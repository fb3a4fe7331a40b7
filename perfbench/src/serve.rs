//! The `serve-journal` workload: an in-process daemon on loopback with
//! its state directory under the worker's work directory, loaded by two
//! closed-loop client threads. A job runs from the SUBMIT frame to the
//! terminal status frame, so it includes admission, dispatch, the
//! fsynced journal stream and the daemon's own re-verification.
//!
//! The client speaks the frame protocol directly (`rlrpd_core::remote`)
//! so it can time the DECISION frame and the first journal frame; a
//! connection lost mid-job is retried through `rlrpd_serve::submit`,
//! which resubmits idempotently. After each timed phase every finished
//! job's journal is replayed from disk onto the declared initial arrays
//! and checked against `CompiledProgram::run_sequential` by
//! [`check`].

use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rlrpd_core::remote::{
    frame_kind, read_frame, write_frame, FRAME_DECISION, FRAME_STATUS, FRAME_SUMMARY,
};
use rlrpd_core::{
    FrontierSummary, JobDecision, JobSpec, JobState, JobStatusFrame, Journal, RejectReason,
    SERVE_PROTOCOL_VERSION,
};
use rlrpd_serve::jobs::{job_dir, JOURNAL_FILE};
use rlrpd_serve::{submit, ClientError, ClientOptions, Daemon, DaemonHandle, ServeConfig};

use crate::gen::Rng;
use crate::measure::{check, prepare, Job, Measured, Phase, Prepared};
use crate::trace::Tracer;
use crate::{Args, P, SETUP_REPS};

/// The closed-loop clients, one tenant each, and the strategy each one
/// submits. One fixed strategy per client keeps the load steady: an
/// `sw:64` job (~190 fsynced commits) always runs beside an `adaptive`
/// one, never beside another `sw:64` job.
const CLIENTS: [&str; 2] = ["adaptive", "sw:64"];

/// Upper bound of a client's random think time between jobs, in
/// microseconds. The daemon polls its listener every 20 ms; a client
/// that resubmits the instant its job ends can phase-lock with that
/// poll, and a whole run then sees an admission wait near 5 ms or near
/// 17 ms. A seeded uniform pause over one poll period keeps submissions
/// at random phases, so the wait averages out.
const THINK_MAX_US: usize = 20_000;

/// Read `key` as a number from a flat JSON object (the status frame's
/// `report_json`).
fn json_field(json: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    json.find(&pat)
        .map(|at| &json[at + pat.len()..])
        .and_then(|rest| {
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or(0.0)
}

/// Timestamps of one direct submission.
#[derive(Default)]
struct Marks {
    sent: Option<Instant>,
    decision: Option<Instant>,
    first_frame: Option<Instant>,
}

enum Direct {
    Status(JobStatusFrame),
    Rejected(RejectReason),
    Lost,
}

/// Submit over one connection and follow the stream to a status frame.
fn direct(addr: &str, spec: &JobSpec, job: &mut Job, marks: &mut Marks) -> Direct {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return Direct::Lost;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    if write_frame(&mut stream, &spec.encode()).is_err() {
        return Direct::Lost;
    }
    marks.sent = Some(Instant::now());
    let decision = match read_frame(&mut stream) {
        Ok(Some(f)) if frame_kind(&f) == Some(FRAME_DECISION) => JobDecision::decode(&f),
        _ => return Direct::Lost,
    };
    marks.decision = Some(Instant::now());
    match decision {
        Ok(JobDecision::Rejected(RejectReason::Draining)) | Err(_) => return Direct::Lost,
        Ok(JobDecision::Rejected(r)) => return Direct::Rejected(r),
        Ok(_) => {}
    }
    loop {
        let Ok(Some(frame)) = read_frame(&mut stream) else {
            return Direct::Lost;
        };
        match frame_kind(&frame) {
            Some(FRAME_STATUS) => {
                return match JobStatusFrame::decode(&frame) {
                    Ok(st) if matches!(st.state, JobState::Done | JobState::Failed) => {
                        Direct::Status(st)
                    }
                    _ => Direct::Lost,
                }
            }
            Some(FRAME_SUMMARY) => {
                if let Ok(s) = FrontierSummary::decode(&frame) {
                    job.dropped += s.dropped as f64;
                }
            }
            _ => {
                job.frames += 1.0;
                marks.first_frame.get_or_insert_with(Instant::now);
            }
        }
    }
}

/// One job: submit, follow, fall back to the retrying library client
/// on a lost connection.
fn one_job(addr: &str, spec: &JobSpec, tracer: &Tracer, job_id: u64) -> Job {
    let mut job = Job::default();
    let mut marks = Marks::default();
    let t0 = Instant::now();
    let status = match direct(addr, spec, &mut job, &mut marks) {
        Direct::Status(st) => Some(st),
        Direct::Rejected(r) => {
            eprintln!("perfbench: job {:016x} rejected: {r}", spec.key);
            job.rejected = 1.0;
            None
        }
        Direct::Lost => {
            job.reconnects += 1.0;
            match submit(addr, spec, &ClientOptions::default()) {
                Ok(out) => {
                    job.frames += out.frames as f64;
                    job.dropped += out.dropped as f64;
                    job.reconnects += out.reconnects as f64;
                    Some(out.status)
                }
                Err(ClientError::Rejected(r)) => {
                    eprintln!("perfbench: job {:016x} rejected: {r}", spec.key);
                    job.rejected = 1.0;
                    None
                }
                Err(e) => {
                    eprintln!("perfbench: job {:016x}: {e}", spec.key);
                    None
                }
            }
        }
    };
    let t_end = Instant::now();
    job.wall_s = (t_end - t0).as_secs_f64();
    let since = |m: Option<Instant>| m.map_or(0.0, |t| (t - t0).as_secs_f64());
    job.decision_s = since(marks.decision);
    job.first_frame_s = since(marks.first_frame);
    if let Some(st) = &status {
        let r = &st.report_json;
        job.ok = st.state == JobState::Done && st.verified;
        job.stages = json_field(r, "stages");
        job.restarts = json_field(r, "restarts");
        job.virtual_speedup = json_field(r, "speedup");
        job.shadow_peak_bytes = json_field(r, "shadow_bytes_peak");
        job.shadow_migrations = json_field(r, "shadow_migrations");
        job.journal_bytes = json_field(r, "journal_bytes");
        job.journal_append_s = json_field(r, "journal_seconds");
        if !job.ok {
            eprintln!(
                "perfbench: job {:016x} ended {:?} (verified {}): {}",
                spec.key, st.state, st.verified, st.message
            );
        }
    }
    if tracer.on() {
        let span = tracer.id();
        let sent = marks.sent.unwrap_or(t0);
        let decided = marks.decision.unwrap_or(sent);
        tracer.record("serve.submit", Some(span), Some(job_id), t0, sent);
        tracer.record("serve.decision", Some(span), Some(job_id), sent, decided);
        tracer.record_as(
            tracer.id(),
            "serve.stream",
            Some(span),
            Some(job_id),
            decided,
            t_end,
            vec![
                ("first_frame_s", job.first_frame_s),
                ("frames", job.frames),
                ("dropped", job.dropped),
                ("reconnects", job.reconnects),
            ],
        );
        tracer.record_as(
            span,
            "job",
            None,
            Some(job_id),
            t0,
            t_end,
            vec![
                ("stages", job.stages),
                ("restarts", job.restarts),
                ("virtual_speedup", job.virtual_speedup),
                ("shadow_peak_bytes", job.shadow_peak_bytes),
                ("journal_bytes", job.journal_bytes),
                ("journal_append_s", job.journal_append_s),
            ],
        );
    }
    job
}

/// Replay a finished job's journal onto the declared initial arrays and
/// check the result against the sequential reference. Returns the
/// record count and whether a reduction matched only within rounding.
fn replay(state_dir: &Path, key: u64, prep: &Prepared) -> Result<(usize, bool), String> {
    let path = job_dir(state_dir, key).join(JOURNAL_FILE);
    let journal = Journal::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if journal.truncated_bytes() > 0 {
        return Err(format!("{}: torn tail", path.display()));
    }
    let mut arrays: Vec<Vec<f64>> = prep
        .prog
        .program()
        .arrays
        .iter()
        .map(|d| vec![d.init; d.size])
        .collect();
    for rec in journal.commits() {
        for (id, elems) in &rec.arrays {
            let array = arrays
                .get_mut(*id as usize)
                .ok_or(format!("record names array {id}"))?;
            for &(elem, bits) in elems {
                *array
                    .get_mut(elem as usize)
                    .ok_or(format!("record names element {elem} of array {id}"))? =
                    f64::from_bits(bits);
            }
        }
    }
    if !journal
        .commits()
        .last()
        .is_some_and(|c| c.completes(prep.iters))
    {
        return Err(format!(
            "job {key:016x}: journal does not complete the loop"
        ));
    }
    let got: Vec<&[f64]> = arrays.iter().map(Vec::as_slice).collect();
    let verdict = check(prep, &got);
    match verdict.error {
        Some(e) => Err(format!(
            "job {key:016x}: journal replay differs from sequential: {e}"
        )),
        None => Ok((journal.records(), verdict.reduction_inexact)),
    }
}

fn start_daemon(state_dir: &Path) -> Result<DaemonHandle, String> {
    Daemon::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        state_dir: state_dir.to_path_buf(),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("daemon start: {e}"))
}

fn stop_daemon(daemon: DaemonHandle) -> Result<(), String> {
    daemon.drain();
    match daemon.join() {
        0 => Ok(()),
        code => Err(format!("daemon drain exited {code}")),
    }
}

/// Run both clients for `seconds`, then verify every job's journal.
/// `think_seed` seeds the clients' think times.
fn phase(
    prep: &Prepared,
    addr: &str,
    state_dir: &Path,
    seconds: f64,
    tracer: &Tracer,
    next_key: &AtomicU64,
    think_seed: u64,
) -> Phase {
    let spec_text = format!("rlp:{}", prep.src);
    let start = Instant::now();
    let per_client: Vec<Vec<(u64, Job)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS.len())
            .map(|c| {
                let spec_text = &spec_text;
                s.spawn(move || {
                    let mut think = Rng::new(think_seed ^ ((c as u64 + 1) << 48));
                    let mut out = Vec::new();
                    loop {
                        let seq = next_key.fetch_add(1, Ordering::Relaxed);
                        let spec = JobSpec {
                            protocol: SERVE_PROTOCOL_VERSION,
                            // One tenant per client (the key's upper half).
                            key: ((c as u64 + 1) << 32) | seq,
                            spec: spec_text.clone(),
                            p: P as u32,
                            strategy: CLIENTS[c].into(),
                            budget_bytes: 0,
                            fault_seed: 0,
                            shadow_fault: String::new(),
                            max_stages: 0,
                        };
                        out.push((spec.key, one_job(addr, &spec, tracer, seq)));
                        if start.elapsed().as_secs_f64() >= seconds {
                            break;
                        }
                        let pause = think.range(0, THINK_MAX_US) as u64;
                        std::thread::sleep(Duration::from_micros(pause));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut jobs = Vec::new();
    for (key, mut job) in per_client.into_iter().flatten() {
        if job.ok {
            let t = Instant::now();
            match replay(state_dir, key, prep) {
                Ok((records, inexact)) => {
                    job.journal_records = records as f64;
                    job.reduction_inexact = f64::from(u8::from(inexact));
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    job.ok = false;
                }
            }
            tracer.record(
                "verify.journal",
                None,
                Some(key & 0xffff_ffff),
                t,
                Instant::now(),
            );
        }
        jobs.push(job);
    }
    Phase {
        jobs,
        seconds: elapsed,
    }
}

/// Set up `SETUP_REPS` times (each with its own daemon), then run the
/// timed phase(s) against the last daemon.
pub fn run(args: &Args, tracer: &Tracer, work_dir: &Path) -> Result<Measured, String> {
    let mut setups = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let (prep, mut times) = prepare(args, tracer)?;
        let state_dir = work_dir.join(format!("state-{rep}"));
        let t = Instant::now();
        let daemon = start_daemon(&state_dir)?;
        let t1 = Instant::now();
        tracer.record("setup.daemon", None, None, t, t1);
        times.total_s += (t1 - t).as_secs_f64();
        setups.push(times);
        if let Some((_, old, _)) = last.replace((prep, daemon, state_dir)) {
            stop_daemon(old)?;
        }
    }
    let (prep, daemon, state_dir) = last.expect("at least one set-up");
    let addr = daemon.addr().to_string();
    let next_key = AtomicU64::new(args.id_base());
    let think_seed = args.seed ^ args.id_base();
    let run = |seconds, phase_no| {
        phase(
            &prep,
            &addr,
            &state_dir,
            seconds,
            tracer,
            &next_key,
            think_seed ^ phase_no,
        )
    };
    let (untraced, traced) = if args.trace {
        tracer.set(false);
        let untraced = run(args.seconds / 2.0, 0);
        tracer.set(true);
        (untraced, Some(run(args.seconds / 2.0, 1)))
    } else {
        (run(args.seconds, 0), None)
    };
    stop_daemon(daemon)?;
    Ok(Measured {
        setups,
        untraced,
        traced,
        iters: prep.iters,
        peak_rss_mb: Vec::new(),
        notes: vec![format!(
            "program: {} iterations, {} bytes of .rlp text; closed-loop clients {CLIENTS:?}",
            prep.iters,
            prep.src.len()
        )],
    })
}
