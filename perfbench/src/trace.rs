//! Spans recorded by the benchmark around its own calls into each
//! layer. Nothing here reaches inside the program: a span starts just
//! before a public call and ends just after it returns.
//!
//! Spans are kept in memory and written as JSON lines when the run
//! ends. A disabled tracer records nothing, so the untraced timed
//! phase pays only the `Instant` reads the job timer needs anyway.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
struct Span {
    id: u64,
    parent: Option<u64>,
    job: Option<u64>,
    name: &'static str,
    start: Instant,
    end: Instant,
    attrs: Vec<(&'static str, f64)>,
}

/// The span store.
pub struct Tracer {
    on: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only while switched on; its span ids
    /// start after `base`.
    pub fn new(on: bool, base: u64) -> Self {
        Tracer {
            on: AtomicBool::new(on),
            origin: Instant::now(),
            next_id: AtomicU64::new(base + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switch recording on or off (between timed phases only).
    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// A fresh span id, for a parent whose children end before it does.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span under a pre-allocated `id`.
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        job: Option<u64>,
        start: Instant,
        end: Instant,
        attrs: Vec<(&'static str, f64)>,
    ) {
        if !self.on() {
            return;
        }
        self.spans.lock().expect("span store lock").push(Span {
            id,
            parent,
            job,
            name,
            start,
            end,
            attrs,
        });
    }

    /// Record a finished span with a fresh id; returns the id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        job: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.record_as(id, name, parent, job, start, end, Vec::new());
        id
    }

    /// The spans as JSON lines, in recording order.
    pub fn to_jsonl(&self) -> String {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        let mut out = String::new();
        for s in self.spans.lock().expect("span store lock").iter() {
            let attrs: Vec<String> = s
                .attrs
                .iter()
                .map(|(k, v)| format!("\"{k}\":{}", crate::metrics::num(*v)))
                .collect();
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"attrs\":{{{}}}}}",
                s.id,
                opt(s.parent),
                opt(s.job),
                s.name,
                ns(s.start),
                ns(s.end),
                attrs.join(",")
            );
        }
        out
    }
}
