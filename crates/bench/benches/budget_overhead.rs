//! Cost of shadow-memory governance.
//!
//! Three questions, on a fully parallel loop (one stage, so deltas are
//! attributable) and a partially parallel loop (restarts exercise the
//! accountant across many stages):
//!
//! 1. **Ungoverned baseline** — no budget configured: the accountant is
//!    a sentinel cap and the per-stage reconciliation must be noise.
//! 2. **Armed-but-generous overhead** — a cap far above the footprint:
//!    every stage pays the full accounting pass (footprint sum, peak
//!    fold, pressure check that never fires). This is the headline
//!    number — the ISSUE's bar is < 2% against the ungoverned baseline.
//! 3. **Degradation cost** — a cap at half the observed peak: the run
//!    must migrate representations (and possibly fall back); the delta
//!    prices the graceful-degradation ladder.
//!
//! Besides the criterion output, the harness re-times the headline
//! configurations and records them to `BENCH_budget.json` at the
//! repository root (set `RLRPD_BENCH_NO_JSON=1` to skip).

use criterion::{criterion_group, BenchmarkId, Criterion};
use rlrpd_core::{try_run_speculative, ArrayDecl, ArrayId, ClosureLoop, RunConfig, ShadowKind};
use std::hint::black_box;
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

/// One full speculative run under an optional shadow budget.
fn run_once(lp: &ClosureLoop<i64>, budget: Option<u64>) -> usize {
    let res = try_run_speculative(lp, RunConfig::new(4).with_shadow_budget(budget))
        .expect("bench loop has no genuine bug");
    res.report.stages.len()
}

/// The observed peak footprint of an armed run — the anchor for the
/// generous and tight caps below.
fn observed_peak(lp: &ClosureLoop<i64>) -> u64 {
    try_run_speculative(lp, RunConfig::new(4).with_shadow_budget(Some(u64::MAX / 2)))
        .expect("peak probe")
        .report
        .shadow_bytes_peak()
}

fn governance_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("budget_overhead");
    for (shape, mk) in [
        ("parallel", par_loop as fn() -> ClosureLoop<i64>),
        ("dep7", dep_loop as fn() -> ClosureLoop<i64>),
    ] {
        let lp = mk();
        let peak = observed_peak(&lp);
        g.bench_with_input(BenchmarkId::new(shape, "ungoverned"), &(), |b, _| {
            b.iter(|| black_box(run_once(&lp, None)));
        });
        g.bench_with_input(BenchmarkId::new(shape, "armed_generous"), &(), |b, _| {
            b.iter(|| black_box(run_once(&lp, Some(peak.saturating_mul(8)))));
        });
        g.bench_with_input(BenchmarkId::new(shape, "tight_half_peak"), &(), |b, _| {
            b.iter(|| black_box(run_once(&lp, Some((peak / 2).max(1)))));
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

/// Re-time the headline configurations on the fully parallel loop and
/// write `BENCH_budget.json` at the repository root.
fn record_baseline() {
    if std::env::var_os("RLRPD_BENCH_NO_JSON").is_some() {
        return;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let lp = par_loop();
    let peak = observed_peak(&lp);
    let generous = peak.saturating_mul(8);
    let tight = (peak / 2).max(1);
    let runs = 31;
    let timed = time_interleaved_ns(
        runs,
        &mut [
            &mut || {
                black_box(run_once(&lp, None));
            },
            &mut || {
                black_box(run_once(&lp, Some(generous)));
            },
            &mut || {
                black_box(run_once(&lp, Some(tight)));
            },
        ],
    );
    let (ungoverned, armed, degrade) = (timed[0], timed[1], timed[2]);
    let entries = [
        format!(
            "    {{\"bench\": \"governance_overhead\", \"loop\": \"parallel\", \"n\": {N}, \
             \"procs\": 4, \"shadow_peak_bytes\": {peak}, \"ungoverned_ns\": {ungoverned:.0}, \
             \"armed_generous_ns\": {armed:.0}, \"armed_overhead_pct\": {:.2}}}",
            (armed / ungoverned - 1.0) * 100.0
        ),
        format!(
            "    {{\"bench\": \"degradation_cost\", \"loop\": \"parallel\", \"n\": {N}, \
             \"procs\": 4, \"cap_bytes\": {tight}, \"ungoverned_ns\": {ungoverned:.0}, \
             \"tight_half_peak_ns\": {degrade:.0}, \"degradation_delta_ns\": {:.0}}}",
            degrade - ungoverned
        ),
    ];
    let json = format!(
        "{{\n  \"host_cores\": {cores},\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_budget.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("baseline recorded to {path}");
    }
}

criterion_group!(benches, governance_overhead);

fn main() {
    benches();
    record_baseline();
}
