//! Randomized cross-executor equivalence suite.
//!
//! The parallel analysis/commit pipeline must be *observationally
//! invisible*: whatever host parallelism executes a stage, the R-LRPD
//! decisions — which blocks commit, which arcs are reported, and the
//! final array contents — are a pure function of the loop. Two layers
//! pin that down:
//!
//! 1. **Engine-level**: random loops run under every [`ExecMode`]
//!    produce identical final arrays, restart counts, per-stage commit
//!    decisions, and dependence arcs.
//! 2. **Analysis-level**: [`analyze_parallel`] over randomly populated
//!    per-block shadow views equals [`analyze_seq`] byte-for-byte for
//!    every processor count 1..=16 (the partitioned merge must be
//!    insensitive to the bucket count).

use proptest::prelude::*;
use rlrpd_core::view::ProcView;
use rlrpd_core::{
    analyze_parallel, analyze_seq, run_speculative, ArrayDecl, ArrayId, ClosureLoop, ExecMode,
    FaultPlan, Reduction, RunConfig, RunPlan, Runner, ShadowKind,
};
use rlrpd_runtime::Executor;
use std::sync::Arc;

const SIZE: usize = 16;
const A: ArrayId = ArrayId(0);

#[derive(Clone, Copy, Debug)]
enum Op {
    Read(usize),
    Write(usize, i64),
    Reduce(usize, i64),
}

fn ops() -> impl proptest::strategy::Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(
        prop::collection::vec(
            (0usize..SIZE, -20i64..20, 0u8..3).prop_map(|(e, v, k)| match k {
                0 => Op::Read(e),
                1 => Op::Write(e, v),
                _ => Op::Reduce(e, v),
            }),
            0..6,
        ),
        1..14,
    )
}

fn make_loop(per_iter: Arc<Vec<Vec<Op>>>, kind: ShadowKind) -> ClosureLoop<i64> {
    ClosureLoop::new(
        per_iter.len(),
        move || {
            vec![ArrayDecl::reduction(
                "A",
                vec![100i64; SIZE],
                kind,
                Reduction {
                    identity: 0,
                    combine: |a, b| a + b,
                },
            )]
        },
        move |i, ctx| {
            for op in &per_iter[i] {
                match *op {
                    Op::Read(e) => {
                        ctx.read(A, e);
                    }
                    Op::Write(e, v) => ctx.write(A, e, v),
                    Op::Reduce(e, v) => ctx.reduce(A, e, v),
                }
            }
        },
    )
}

/// Everything decision-shaped a run produces, with wall-clock timings
/// (the only mode-dependent output) stripped.
#[derive(Debug, PartialEq)]
struct Decisions {
    array: Vec<i64>,
    restarts: usize,
    stages: Vec<(usize, usize)>, // (iters_attempted, iters_committed)
    arcs: Vec<rlrpd_core::DepArc>,
    exited_at: Option<usize>,
}

fn decisions(per_iter: &Arc<Vec<Vec<Op>>>, kind: ShadowKind, p: usize, e: ExecMode) -> Decisions {
    let lp = make_loop(Arc::clone(per_iter), kind);
    let res = run_speculative(&lp, RunConfig::new(p).with_exec(e));
    Decisions {
        array: res.array("A").to_vec(),
        restarts: res.report.restarts,
        stages: res
            .report
            .stages
            .iter()
            .map(|s| (s.iters_attempted, s.iters_committed))
            .collect(),
        arcs: res.arcs,
        exited_at: res.report.exited_at,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random loops: the simulated, thread-per-block, and pooled
    /// executors make identical commit decisions and produce identical
    /// arrays and arcs.
    #[test]
    fn executor_modes_make_identical_decisions(
        per_iter in ops(),
        p in 1usize..7,
        kind_sel in 0u8..3,
    ) {
        let kind = match kind_sel {
            0 => ShadowKind::Dense,
            1 => ShadowKind::DensePacked,
            _ => ShadowKind::Sparse,
        };
        let per_iter = Arc::new(per_iter);
        let reference = decisions(&per_iter, kind, p, ExecMode::Simulated);
        let mode = ExecMode::Pooled;
        let got = decisions(&per_iter, kind, p, mode);
        prop_assert_eq!(&got, &reference, "mode={:?} p={} kind={:?}", mode, p, kind);
    }
}

/// Populate two tested-array views per block from a random op tape and
/// hand back both the owning storage and the analysis-ready refs.
fn build_views(blocks: &[Vec<(u8, usize, i64)>], kind: ShadowKind) -> Vec<Vec<ProcView<i64>>> {
    const N: usize = 64;
    let sum = Reduction {
        identity: 0i64,
        combine: |a: i64, b: i64| a + b,
    };
    blocks
        .iter()
        .map(|tape| {
            let mut v0 = ProcView::new(N, kind, Some(sum));
            let mut v1 = ProcView::new(N, kind, None);
            for &(k, e, val) in tape {
                match k {
                    0 => {
                        v0.read(e, |_| 7);
                    }
                    1 => v0.write(e, val),
                    _ => v0.reduce(e, val, |_| 7),
                }
                // Drive the second slot with a shifted tape so the two
                // slots disagree about which elements are touched.
                match k {
                    0 => v1.write((e + 3) % N, val),
                    _ => {
                        v1.read((e + 3) % N, |_| 7);
                    }
                }
            }
            vec![v0, v1]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The acceptance bar of the partitioned merge: for random shadow
    /// populations and every processor count 1..=16, the parallel
    /// analysis is byte-identical to the sequential reference —
    /// same earliest violation, same arcs in the same order, same
    /// touched-element statistics.
    #[test]
    fn parallel_analysis_matches_sequential_for_1_to_16_procs(
        blocks in prop::collection::vec(
            prop::collection::vec((0u8..3, 0usize..64, -10i64..10), 0..40),
            1..17,
        ),
        kind_sel in 0u8..3,
    ) {
        let kind = match kind_sel {
            0 => ShadowKind::Dense,
            1 => ShadowKind::DensePacked,
            _ => ShadowKind::Sparse,
        };
        let views = build_views(&blocks, kind);
        let refs: Vec<&[ProcView<i64>]> = views.iter().map(|v| v.as_slice()).collect();
        let tested_ids = [0usize, 3];
        let seq = analyze_seq(&refs, &tested_ids);
        for p in 1..=16usize {
            let mode = ExecMode::Pooled;
            let ex = Executor::with_procs(mode, p);
            let par = analyze_parallel(&refs, &tested_ids, &ex);
            prop_assert_eq!(
                par.first_violation, seq.first_violation,
                "mode={:?} p={}", mode, p
            );
            prop_assert_eq!(&par.arcs, &seq.arcs, "mode={:?} p={}", mode, p);
            prop_assert_eq!(par.max_touched, seq.max_touched, "mode={:?} p={}", mode, p);
            prop_assert_eq!(par.total_touched, seq.total_touched, "mode={:?} p={}", mode, p);
        }
    }
}

/// A deterministic partially parallel loop (backward dependence of
/// distance 3) as a fixed smoke check: every mode agrees with the
/// simulated reference for each processor count, and the loop really
/// does restart (so the commit-prefix path is exercised, not just the
/// all-pass path).
#[test]
fn commit_prefix_identical_across_modes_on_fixed_loop() {
    for p in [1usize, 2, 3, 4, 8] {
        let mk = || {
            ClosureLoop::<i64>::new(
                48,
                || vec![ArrayDecl::tested("A", vec![0i64; 48], ShadowKind::Dense)],
                |i, ctx| {
                    let v = ctx.read(A, i.saturating_sub(3));
                    ctx.write(A, i, v + 1);
                },
            )
        };
        let reference = run_speculative(&mk(), RunConfig::new(p).with_exec(ExecMode::Simulated));
        if p > 1 {
            assert!(
                reference.report.restarts > 0,
                "p={p}: loop should be partially parallel"
            );
        }
        let mode = ExecMode::Pooled;
        let got = run_speculative(&mk(), RunConfig::new(p).with_exec(mode));
        assert_eq!(got.array("A"), reference.array("A"), "mode={mode:?} p={p}");
        assert_eq!(
            got.report.restarts, reference.report.restarts,
            "mode={mode:?} p={p}"
        );
        assert_eq!(got.arcs, reference.arcs, "mode={mode:?} p={p}");
    }
}

/// An injected panic is contained identically whatever executor runs
/// the stage: same arrays, same restart count, same number of contained
/// faults, same per-stage commit decisions. A [`FaultPlan`] holds
/// one-shot interior state, so each run gets a fresh plan.
#[test]
fn fault_injection_is_identical_across_modes() {
    for p in [2usize, 4] {
        for seed in [7u64, 42, 1009] {
            let run = |mode: ExecMode| {
                let lp = ClosureLoop::<i64>::new(
                    48,
                    || vec![ArrayDecl::tested("A", vec![0i64; 48], ShadowKind::Dense)],
                    |i, ctx| {
                        let v = ctx.read(A, i.saturating_sub(3));
                        ctx.write(A, i, v + 1);
                    },
                );
                let plan = FaultPlan::seeded_panic(seed, 48);
                let res = Runner::new(RunConfig::new(p).with_exec(mode))
                    .with_fault(Arc::new(plan))
                    .execute(&lp, RunPlan::default())
                    .expect("injected fault must be contained");
                (
                    res.array("A").to_vec(),
                    res.report.restarts,
                    res.report.contained_faults(),
                    res.report
                        .stages
                        .iter()
                        .map(|s| (s.iters_attempted, s.iters_committed))
                        .collect::<Vec<_>>(),
                )
            };
            let reference = run(ExecMode::Simulated);
            assert_eq!(reference.2, 1, "p={p} seed={seed}: fault must fire once");
            let mode = ExecMode::Pooled;
            assert_eq!(run(mode), reference, "mode={mode:?} p={p} seed={seed}");
        }
    }
}
