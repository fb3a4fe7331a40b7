//! Cost of the crash-durable commit journal.
//!
//! Three questions, answered on a fully parallel loop (single stage, so
//! deltas are crisp) and a partially parallel loop (multiple commits,
//! so the journal appends repeatedly):
//!
//! 1. **No-journal overhead** — the journaled path is opt-in; a plain
//!    run must cost the same as before the journal existed (delta
//!    capture is gated on `EngineCfg::capture_deltas`, which only the
//!    journaled entry point sets).
//! 2. **Journal cost** — a journaled run pays delta capture plus an
//!    fsynced append per stage commit; this bounds the durability tax.
//! 3. **Resume cost** — replaying a journal prefix instead of
//!    re-executing the committed iterations; the saved work is the
//!    point of the whole mechanism.
//!
//! Besides the criterion output, the harness re-times the headline
//! configurations and records them to `BENCH_journal.json` at the
//! repository root (set `RLRPD_BENCH_NO_JSON=1` to skip).

use criterion::{criterion_group, BenchmarkId, Criterion};
use rlrpd_core::{
    try_run_speculative, ArrayDecl, ArrayId, ClosureLoop, Journal, RunConfig, RunPlan, Runner,
    ShadowKind,
};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

const A: ArrayId = ArrayId(0);
const N: usize = 16_384;

/// Per-iteration body work: enough arithmetic that the loop body, not
/// the harness, dominates an iteration.
fn churn(mut acc: i64) -> i64 {
    for k in 0..32u64 {
        acc = acc
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(k as i64);
    }
    acc
}

/// Fully parallel: a clean speculative run commits in one stage.
fn par_loop() -> ClosureLoop<i64> {
    ClosureLoop::new(
        N,
        || vec![ArrayDecl::tested("A", vec![1i64; N], ShadowKind::Dense)],
        |i, ctx| {
            let v = ctx.read(A, i);
            ctx.write(A, i, churn(v + i as i64));
        },
    )
}

/// Partially parallel: backward dependence of distance 7 forces the
/// usual restart cascade, so several stages commit (and journal).
fn dep_loop() -> ClosureLoop<i64> {
    ClosureLoop::new(
        N,
        || vec![ArrayDecl::tested("A", vec![1i64; N], ShadowKind::Dense)],
        |i, ctx| {
            let v = ctx.read(A, i.saturating_sub(7));
            ctx.write(A, i, churn(v));
        },
    )
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rlrpd-jbench-{name}-{}", std::process::id()))
}

/// One plain speculative run.
fn run_plain(lp: &ClosureLoop<i64>) -> usize {
    let res = try_run_speculative(lp, RunConfig::new(4)).expect("bench loop has no genuine bug");
    res.report.stages.len()
}

/// One journaled run against a fresh journal file.
fn run_journaled(lp: &ClosureLoop<i64>, name: &str) -> usize {
    let path = tmp(name);
    std::fs::remove_file(&path).ok();
    let mut journal = Journal::create(&path).unwrap();
    let res = Runner::new(RunConfig::new(4))
        .execute(lp, RunPlan::default().journal(&mut journal))
        .expect("bench loop has no genuine bug");
    drop(journal);
    std::fs::remove_file(&path).ok();
    res.report.stages.len()
}

/// One resume of a complete journal: pure replay, no execution.
fn run_resume(lp: &ClosureLoop<i64>, path: &PathBuf) -> usize {
    let mut journal = Journal::open(path).unwrap();
    let res = Runner::new(RunConfig::new(4))
        .execute(lp, RunPlan::default().journal(&mut journal))
        .expect("journal replays");
    res.arrays.len()
}

fn journal_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("journal_overhead");
    for (shape, mk) in [
        ("parallel", par_loop as fn() -> ClosureLoop<i64>),
        ("dep7", dep_loop as fn() -> ClosureLoop<i64>),
    ] {
        let lp = mk();
        g.bench_with_input(BenchmarkId::new(shape, "no_journal"), &(), |b, _| {
            b.iter(|| black_box(run_plain(&lp)));
        });
        g.bench_with_input(BenchmarkId::new(shape, "journaled"), &(), |b, _| {
            b.iter(|| black_box(run_journaled(&lp, shape)));
        });

        // A complete journal of this loop, replayed.
        let replay = tmp(&format!("{shape}-replay"));
        std::fs::remove_file(&replay).ok();
        let mut journal = Journal::create(&replay).unwrap();
        Runner::new(RunConfig::new(4))
            .execute(&lp, RunPlan::default().journal(&mut journal))
            .unwrap();
        drop(journal);
        g.bench_with_input(BenchmarkId::new(shape, "resume_replay"), &(), |b, _| {
            b.iter(|| black_box(run_resume(&lp, &replay)));
        });
        std::fs::remove_file(&replay).ok();
    }
    g.finish();
}

/// Median wall time per configuration, in nanoseconds, with the
/// configurations sampled round-robin so slow drift of the host (cache
/// state, frequency scaling) hits every configuration equally instead
/// of biasing whichever was timed last.
fn time_interleaved_ns(runs: usize, configs: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    for f in configs.iter_mut() {
        f(); // warm-up: allocator, code, and data caches
    }
    let mut samples = vec![Vec::with_capacity(runs); configs.len()];
    for round in 0..runs {
        // Alternate the visit order so position-in-round effects (what
        // the previous configuration left in the allocator and caches)
        // hit every configuration from both sides.
        let order: Vec<usize> = if round % 2 == 0 {
            (0..configs.len()).collect()
        } else {
            (0..configs.len()).rev().collect()
        };
        for i in order {
            let start = Instant::now();
            configs[i]();
            samples[i].push(start.elapsed().as_secs_f64() * 1e9);
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        })
        .collect()
}

/// Re-time the headline configurations and write `BENCH_journal.json`
/// at the repository root.
fn record_baseline() {
    if std::env::var_os("RLRPD_BENCH_NO_JSON").is_some() {
        return;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let runs = 31;
    let mut entries = Vec::new();
    for (shape, mk) in [
        ("parallel", par_loop as fn() -> ClosureLoop<i64>),
        ("dep7", dep_loop as fn() -> ClosureLoop<i64>),
    ] {
        let lp = mk();
        let replay = tmp(&format!("{shape}-baseline-replay"));
        std::fs::remove_file(&replay).ok();
        let mut journal = Journal::create(&replay).unwrap();
        Runner::new(RunConfig::new(4))
            .execute(&lp, RunPlan::default().journal(&mut journal))
            .unwrap();
        drop(journal);

        let timed = time_interleaved_ns(
            runs,
            &mut [
                &mut || {
                    black_box(run_plain(&lp));
                },
                &mut || {
                    black_box(run_journaled(&lp, &format!("{shape}-baseline")));
                },
                &mut || {
                    black_box(run_resume(&lp, &replay));
                },
            ],
        );
        std::fs::remove_file(&replay).ok();
        let (plain, journaled, resume) = (timed[0], timed[1], timed[2]);
        entries.push(format!(
            "    {{\"bench\": \"journal_overhead\", \"loop\": \"{shape}\", \"n\": {N}, \
             \"procs\": 4, \"no_journal_ns\": {plain:.0}, \"journaled_ns\": {journaled:.0}, \
             \"journal_overhead_pct\": {:.2}, \"resume_replay_ns\": {resume:.0}}}",
            (journaled / plain - 1.0) * 100.0
        ));
    }
    let json = format!(
        "{{\n  \"host_cores\": {cores},\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_journal.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("baseline recorded to {path}");
    }
}

criterion_group!(benches, journal_overhead);

fn main() {
    benches();
    record_baseline();
}
