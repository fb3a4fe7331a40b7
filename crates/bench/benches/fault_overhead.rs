//! Cost of the fault-containment machinery.
//!
//! Three questions, answered on both a fully parallel loop (one stage,
//! so deltas are crisp) and a partially parallel loop (restarts already
//! happen, so containment rides an existing mechanism):
//!
//! 1. **No-fault overhead** — a run with `fault: None` must cost the
//!    same as before the containment layer existed (the per-iteration
//!    injection checks are gated on an `Option` that is `None`). An
//!    empty [`FaultPlan`] is filtered to the same path.
//! 2. **Armed-plan overhead** — with a plan whose sites never fire,
//!    every iteration pays the site scan; this bounds the cost of
//!    running loops with injection compiled in and armed.
//! 3. **Recovery cost** — on the fully parallel loop a clean run is a
//!    single stage and a run with one injected panic is exactly two:
//!    the delta is the price of containing one fault (discard plus
//!    re-execution of the uncommitted suffix).
//!
//! Besides the criterion output, the harness re-times the headline
//! configurations and records them to `BENCH_fault.json` at the
//! repository root (set `RLRPD_BENCH_NO_JSON=1` to skip).

use criterion::{criterion_group, BenchmarkId, Criterion};
use rlrpd_core::{
    ArrayDecl, ArrayId, ClosureLoop, FaultPlan, RunConfig, RunPlan, Runner, ShadowKind,
};
use std::hint::black_box;
use std::sync::Arc;
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
/// usual restart cascade.
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

/// One full speculative run, optionally with a fault plan installed.
fn run_once(lp: &ClosureLoop<i64>, plan: Option<FaultPlan>) -> usize {
    let mut runner = Runner::new(RunConfig::new(4));
    if let Some(p) = plan {
        runner = runner.with_fault(Arc::new(p));
    }
    let res = runner
        .execute(lp, RunPlan::default())
        .expect("bench loop has no genuine bug");
    res.report.stages.len()
}

/// A plan whose only site can never fire (iteration outside the loop) —
/// the armed-scan cost without any recovery.
fn armed_inert_plan() -> FaultPlan {
    FaultPlan::new().panic_at_iter(N + 1_000)
}

fn containment_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("fault_overhead");
    for (shape, mk) in [
        ("parallel", par_loop as fn() -> ClosureLoop<i64>),
        ("dep7", dep_loop as fn() -> ClosureLoop<i64>),
    ] {
        let lp = mk();
        g.bench_with_input(BenchmarkId::new(shape, "no_plan"), &(), |b, _| {
            b.iter(|| black_box(run_once(&lp, None)));
        });
        g.bench_with_input(BenchmarkId::new(shape, "empty_plan"), &(), |b, _| {
            b.iter(|| black_box(run_once(&lp, Some(FaultPlan::new()))));
        });
        g.bench_with_input(BenchmarkId::new(shape, "armed_plan"), &(), |b, _| {
            b.iter(|| black_box(run_once(&lp, Some(armed_inert_plan()))));
        });
        g.bench_with_input(BenchmarkId::new(shape, "one_panic"), &(), |b, _| {
            b.iter(|| black_box(run_once(&lp, Some(FaultPlan::seeded_panic(42, N)))));
        });
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

/// Re-time the headline configurations on the fully parallel loop
/// (single-stage, so deltas are attributable) and write
/// `BENCH_fault.json` at the repository root.
fn record_baseline() {
    if std::env::var_os("RLRPD_BENCH_NO_JSON").is_some() {
        return;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let lp = par_loop();
    let runs = 31;
    let timed = time_interleaved_ns(
        runs,
        &mut [
            &mut || {
                black_box(run_once(&lp, None));
            },
            &mut || {
                black_box(run_once(&lp, Some(FaultPlan::new())));
            },
            &mut || {
                black_box(run_once(&lp, Some(armed_inert_plan())));
            },
            &mut || {
                black_box(run_once(&lp, Some(FaultPlan::seeded_panic(42, N))));
            },
        ],
    );
    let (no_plan, empty, armed, panic) = (timed[0], timed[1], timed[2], timed[3]);
    let entries = [
        format!(
            "    {{\"bench\": \"containment_overhead\", \"loop\": \"parallel\", \"n\": {N}, \
             \"procs\": 4, \"no_plan_ns\": {no_plan:.0}, \"empty_plan_ns\": {empty:.0}, \
             \"empty_plan_overhead_pct\": {:.2}, \"armed_plan_ns\": {armed:.0}, \
             \"armed_plan_overhead_pct\": {:.2}}}",
            (empty / no_plan - 1.0) * 100.0,
            (armed / no_plan - 1.0) * 100.0
        ),
        format!(
            "    {{\"bench\": \"recovery_cost\", \"loop\": \"parallel\", \"n\": {N}, \
             \"procs\": 4, \"clean_ns\": {no_plan:.0}, \"one_panic_ns\": {panic:.0}, \
             \"per_panic_recovery_ns\": {:.0}}}",
            panic - no_plan
        ),
    ];
    let json = format!(
        "{{\n  \"host_cores\": {cores},\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fault.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("baseline recorded to {path}");
    }
}

criterion_group!(benches, containment_overhead);

fn main() {
    benches();
    record_baseline();
}
