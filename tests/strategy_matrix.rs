//! The full configuration matrix on one partially parallel loop:
//! every strategy × balance policy × checkpoint policy × shadow kind ×
//! executor must produce the sequential result. This is the "no bad
//! interaction" net over knobs that other tests exercise separately.

use rlrpd::core::AdaptRule;
use rlrpd::{
    run_sequential, run_speculative, ArrayDecl, ArrayId, BalancePolicy, CheckpointPolicy,
    ClosureLoop, ExecMode, RunConfig, ShadowKind, Strategy, WindowConfig,
};

const A: ArrayId = ArrayId(0);
const B: ArrayId = ArrayId(1);

fn workload(kind: ShadowKind) -> ClosureLoop {
    ClosureLoop::new(
        240,
        move || {
            vec![
                ArrayDecl::tested("A", vec![1.0; 240], kind),
                ArrayDecl::untested("B", vec![0.0; 240]),
            ]
        },
        |i, ctx| {
            let v = if i % 29 == 0 && i >= 11 {
                ctx.read(A, i - 11)
            } else {
                i as f64
            };
            ctx.write(A, i, v * 0.5 + 1.0);
            let old = ctx.read(B, i);
            ctx.write(B, i, old + v);
        },
    )
    .with_cost(|i| 1.0 + (i % 5) as f64)
}

#[test]
fn every_configuration_combination_is_correct() {
    let strategies = [
        Strategy::Nrd,
        Strategy::Rd,
        Strategy::AdaptiveRd(AdaptRule::ModelEq4),
        Strategy::AdaptiveRd(AdaptRule::Measured),
        Strategy::SlidingWindow(WindowConfig::fixed(10)),
    ];
    let balances = [
        BalancePolicy::Even,
        BalancePolicy::FeedbackGuided,
        BalancePolicy::FeedbackTrend,
    ];
    let checkpoints = [CheckpointPolicy::Eager, CheckpointPolicy::OnDemand];
    let kinds = [
        ShadowKind::Dense,
        ShadowKind::DensePacked,
        ShadowKind::Sparse,
    ];

    for kind in kinds {
        let lp = workload(kind);
        let (seq, _) = run_sequential(&lp);
        for strategy in strategies {
            for balance in balances {
                for checkpoint in checkpoints {
                    let cfg = RunConfig::new(6)
                        .with_strategy(strategy)
                        .with_balance(balance)
                        .with_checkpoint(checkpoint);
                    let res = run_speculative(&lp, cfg);
                    assert_eq!(
                        res.array("A"),
                        &seq[0].1[..],
                        "A: {kind:?}/{strategy:?}/{balance:?}/{checkpoint:?}"
                    );
                    assert_eq!(
                        res.array("B"),
                        &seq[1].1[..],
                        "B: {kind:?}/{strategy:?}/{balance:?}/{checkpoint:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn both_executors_across_the_strategy_row() {
    let lp = workload(ShadowKind::Dense);
    let (seq, _) = run_sequential(&lp);
    for strategy in [
        Strategy::Nrd,
        Strategy::Rd,
        Strategy::SlidingWindow(WindowConfig::fixed(10)),
    ] {
        for exec in [ExecMode::Simulated, ExecMode::Pooled] {
            let res = run_speculative(
                &lp,
                RunConfig::new(6).with_strategy(strategy).with_exec(exec),
            );
            assert_eq!(res.array("A"), &seq[0].1[..], "{strategy:?}/{exec:?}");
            assert_eq!(res.array("B"), &seq[1].1[..], "{strategy:?}/{exec:?}");
        }
    }
}

#[test]
fn stage_structure_is_identical_across_shadow_kinds_and_checkpoints() {
    // Representation and checkpointing are implementation choices: the
    // speculative decisions (stages, restarts, arcs) must be invariant.
    let baseline = run_speculative(
        &workload(ShadowKind::Dense),
        RunConfig::new(6).with_strategy(Strategy::Nrd),
    );
    for kind in [ShadowKind::DensePacked, ShadowKind::Sparse] {
        for checkpoint in [CheckpointPolicy::Eager, CheckpointPolicy::OnDemand] {
            let res = run_speculative(
                &workload(kind),
                RunConfig::new(6)
                    .with_strategy(Strategy::Nrd)
                    .with_checkpoint(checkpoint),
            );
            assert_eq!(res.report.restarts, baseline.report.restarts, "{kind:?}");
            assert_eq!(res.arcs, baseline.arcs, "{kind:?}/{checkpoint:?}");
            assert_eq!(
                res.report.stages.len(),
                baseline.report.stages.len(),
                "{kind:?}/{checkpoint:?}"
            );
        }
    }
}
