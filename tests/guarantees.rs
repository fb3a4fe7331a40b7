//! The paper's performance guarantees, asserted on the virtual-time
//! accounting:
//!
//! * NRD completes any loop in at most `p` stages, so a speculatively
//!   parallelized loop runs no slower than sequential plus test
//!   overhead;
//! * a fully parallel loop runs in exactly one stage;
//! * the classic LRPD test pays the whole speculation as slowdown on a
//!   partially parallel loop, while the R-LRPD test still extracts
//!   speedup from it;
//! * every stage commits at least one block (progress).

use rlrpd::core::run_classic_lrpd;
use rlrpd::loops::{AlphaLoop, FullyParallelLoop, NlfiltInput, NlfiltLoop, SequentialChainLoop};
use rlrpd::runtime::OverheadKind;
use rlrpd::{run_speculative, CostModel, RunConfig, Strategy};

#[test]
fn nrd_never_exceeds_p_stages() {
    for p in [2usize, 4, 8, 16] {
        // The worst case: a fully sequential chain.
        let lp = SequentialChainLoop::new(p * 13, 1.0);
        let res = run_speculative(&lp, RunConfig::new(p).with_strategy(Strategy::Nrd));
        assert_eq!(
            res.report.stages.len(),
            p,
            "exactly one block commits per stage"
        );
    }
}

#[test]
fn nrd_slowdown_is_bounded_by_test_overhead() {
    // T_NRD <= k_s * (n*omega/p + s) <= n*omega + p*s + overheads: the
    // loop-time component alone never exceeds sequential work.
    for p in [2usize, 4, 8] {
        let lp = SequentialChainLoop::new(p * 50, 2.0);
        let res = run_speculative(&lp, RunConfig::new(p).with_strategy(Strategy::Nrd));
        let loop_time: f64 = res.report.stages.iter().map(|s| s.loop_time).sum();
        let seq = res.report.sequential_work;
        assert!(
            loop_time <= seq + 1e-9,
            "p={p}: loop time {loop_time} exceeds sequential {seq}"
        );
        // And the total overhead is the test's bookkeeping only.
        let overhead = res.report.virtual_time() - loop_time;
        assert!(
            overhead < seq,
            "test overhead should be small relative to work"
        );
    }
}

#[test]
fn fully_parallel_loops_run_in_one_stage_with_near_ideal_speedup() {
    let lp = FullyParallelLoop::new(4096, 100.0);
    for p in [2usize, 8, 16] {
        let res = run_speculative(&lp, RunConfig::new(p));
        assert_eq!(res.report.stages.len(), 1);
        let s = res.report.speedup();
        assert!(s > 0.8 * p as f64, "p={p}: speedup {s} too far from ideal");
    }
}

#[test]
fn classic_lrpd_pays_full_slowdown_where_rlrpd_profits() {
    let lp = AlphaLoop::new(2048, 0.5, 100.0);
    let cfg = RunConfig::new(8);
    let classic = run_classic_lrpd(&lp, &cfg);
    let recursive = run_speculative(&lp, cfg.with_strategy(Strategy::Nrd));

    // Classic: one failed doall + full sequential re-execution -> the
    // virtual time strictly exceeds sequential work.
    assert_eq!(classic.report.restarts, 1);
    assert!(classic.report.speedup() < 1.0, "classic must slow down");
    // R-LRPD on the same loop extracts real speedup.
    assert!(
        recursive.report.speedup() > 1.5,
        "R-LRPD speedup = {}",
        recursive.report.speedup()
    );
    // And both end in the same (correct) state.
    assert_eq!(classic.array("A"), recursive.array("A"));
}

#[test]
fn every_failing_stage_still_commits_work() {
    let lp = AlphaLoop::new(1024, 0.5, 1.0);
    let res = run_speculative(&lp, RunConfig::new(8).with_strategy(Strategy::Rd));
    assert!(res.report.restarts > 0);
    for (k, stage) in res.report.stages.iter().enumerate() {
        assert!(
            stage.iters_committed > 0,
            "stage {k} committed nothing — progress violated"
        );
    }
}

#[test]
fn wasted_work_is_attempted_minus_sequential() {
    let lp = AlphaLoop::new(1024, 0.5, 1.0);
    let res = run_speculative(&lp, RunConfig::new(8).with_strategy(Strategy::Rd));
    let executed = res.report.total_work_executed();
    let useful = res.report.sequential_work;
    assert!(executed > useful, "restarts must waste some speculation");
    // Committed iterations across stages sum exactly to n.
    let committed: usize = res.report.stages.iter().map(|s| s.iters_committed).sum();
    assert_eq!(committed, 1024);
}

#[test]
fn eager_checkpoint_costs_scale_with_state_not_writes() {
    use rlrpd::CheckpointPolicy;
    let lp = NlfiltLoop::new(NlfiltInput::i4_50());
    let cfg = RunConfig::new(4)
        .with_strategy(Strategy::Nrd)
        .with_cost(CostModel::default());
    let eager = run_speculative(&lp, cfg.with_checkpoint(CheckpointPolicy::Eager));
    let on_demand = run_speculative(&lp, cfg.with_checkpoint(CheckpointPolicy::OnDemand));
    let e = eager.report.overhead(OverheadKind::Checkpoint);
    let d = on_demand.report.overhead(OverheadKind::Checkpoint);
    assert!(
        e > d,
        "eager checkpointing ({e}) must cost more than on-demand ({d}) on a large state"
    );
}

#[test]
fn pr_accumulates_across_instantiations() {
    use rlrpd::{RunPlan, Runner};
    let lp = AlphaLoop::new(256, 0.5, 1.0);
    let mut runner = Runner::new(RunConfig::new(4).with_strategy(Strategy::Nrd));
    for _ in 0..3 {
        runner.execute(&lp, RunPlan::default()).unwrap();
    }
    let pr = runner.pr.pr();
    assert!(pr > 0.0 && pr < 1.0);
    assert_eq!(runner.pr.instantiations, 3);
}
