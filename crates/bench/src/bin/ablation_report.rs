//! Consolidated ablation report — deterministic virtual-time numbers
//! for every design choice DESIGN.md calls out, on one realistic
//! partially parallel workload (NLFILT 16-400, p = 16).
//!
//! Complements the criterion benches (which measure the *machinery's*
//! wall-clock cost) with the *algorithmic* virtual-time effect of each
//! choice, reproducible bit-for-bit.

use rlrpd_bench::{fmt, print_table};
use rlrpd_core::{
    run_speculative, AdaptRule, ArrayDecl, ArrayId, BalancePolicy, CheckpointPolicy, ClosureLoop,
    CostModel, RunConfig, RunPlan, Runner, ShadowKind, Strategy, WindowConfig, WindowPolicy,
};
use rlrpd_loops::{NlfiltInput, NlfiltLoop};

const P: usize = 16;

fn base_cfg() -> RunConfig {
    RunConfig::new(P).with_cost(CostModel::default())
}

fn time_of(cfg: RunConfig, instantiations: usize) -> f64 {
    let lp = NlfiltLoop::new(NlfiltInput::i16_400());
    let mut runner = Runner::new(cfg);
    let mut best = f64::MAX;
    for _ in 0..instantiations.max(1) {
        let res = runner.execute(&lp, RunPlan::default()).unwrap();
        best = best.min(res.report.virtual_time());
    }
    best
}

fn main() {
    println!("Ablation report — NLFILT 16-400, p = {P}, virtual time (lower is better)");

    // 1. Strategy.
    let rows: Vec<Vec<String>> = [
        ("NRD", Strategy::Nrd),
        ("RD", Strategy::Rd),
        (
            "adaptive (Eq. 4)",
            Strategy::AdaptiveRd(AdaptRule::ModelEq4),
        ),
        (
            "adaptive (measured)",
            Strategy::AdaptiveRd(AdaptRule::Measured),
        ),
        ("SW w=32", Strategy::SlidingWindow(WindowConfig::fixed(32))),
        (
            "SW w=128",
            Strategy::SlidingWindow(WindowConfig::fixed(128)),
        ),
        (
            "SW grow 16→256",
            Strategy::SlidingWindow(WindowConfig {
                iters_per_proc: 16,
                policy: WindowPolicy::GrowOnFailure {
                    factor: 2.0,
                    max: 256,
                },
                circular: true,
            }),
        ),
    ]
    .into_iter()
    .map(|(label, s)| {
        vec![
            label.to_string(),
            fmt(time_of(base_cfg().with_strategy(s), 1)),
        ]
    })
    .collect();
    print_table("strategy", &["configuration", "time"], &rows);

    // 2. Checkpointing.
    let rows: Vec<Vec<String>> = [
        ("eager", CheckpointPolicy::Eager),
        ("on-demand", CheckpointPolicy::OnDemand),
    ]
    .into_iter()
    .map(|(label, c)| {
        vec![
            label.to_string(),
            fmt(time_of(base_cfg().with_checkpoint(c), 1)),
        ]
    })
    .collect();
    print_table(
        "checkpoint policy (adaptive Eq. 4)",
        &["configuration", "time"],
        &rows,
    );

    // 3. Load balancing under NRD (block boundaries matter most when
    // failed blocks re-run in place): measure the third instantiation,
    // after feedback has accumulated history.
    let rows: Vec<Vec<String>> = [
        ("even blocks", BalancePolicy::Even),
        ("feedback-guided", BalancePolicy::FeedbackGuided),
        ("feedback + linear trend", BalancePolicy::FeedbackTrend),
    ]
    .into_iter()
    .map(|(label, b)| {
        let lp = NlfiltLoop::new(NlfiltInput::i16_400());
        let mut runner = Runner::new(base_cfg().with_strategy(Strategy::Nrd).with_balance(b));
        let mut last = 0.0;
        for _ in 0..3 {
            let res = runner.execute(&lp, RunPlan::default()).unwrap();
            last = res.report.virtual_time();
        }
        vec![label.to_string(), fmt(last)]
    })
    .collect();
    print_table(
        "load balancing (3rd instantiation, NRD)",
        &["configuration", "time"],
        &rows,
    );

    // 4. Window circularity (locality).
    let rows: Vec<Vec<String>> = [true, false]
        .into_iter()
        .map(|circ| {
            let s = Strategy::SlidingWindow(WindowConfig {
                iters_per_proc: 32,
                policy: WindowPolicy::Fixed,
                circular: circ,
            });
            vec![
                if circ { "circular" } else { "linear" }.to_string(),
                fmt(time_of(base_cfg().with_strategy(s), 1)),
            ]
        })
        .collect();
    print_table(
        "window processor assignment",
        &["configuration", "time"],
        &rows,
    );

    // 5. Shadow representation on a dense chain (virtual times equal by
    // construction — representation is a wall-clock concern — so report
    // the restart structure as the sanity column instead).
    const A: ArrayId = ArrayId(0);
    let rows: Vec<Vec<String>> = [
        ("dense (byte)", ShadowKind::Dense),
        ("dense (bit-packed)", ShadowKind::DensePacked),
        ("sparse (hash)", ShadowKind::Sparse),
    ]
    .into_iter()
    .map(|(label, kind)| {
        let lp = ClosureLoop::new(
            2048,
            move || vec![ArrayDecl::tested("A", vec![0.0; 2048], kind)],
            |i, ctx| {
                let v = if i % 33 == 0 && i > 0 {
                    ctx.read(A, i - 5)
                } else {
                    0.0
                };
                ctx.write(A, i, v + i as f64);
            },
        );
        let res = run_speculative(&lp, base_cfg());
        vec![
            label.to_string(),
            fmt(res.report.virtual_time()),
            res.report.restarts.to_string(),
        ]
    })
    .collect();
    print_table(
        "shadow representation (identical decisions expected)",
        &["configuration", "time", "restarts"],
        &rows,
    );
    let times: Vec<&String> = rows.iter().map(|r| &r[1]).collect();
    assert!(
        times.windows(2).all(|w| w[0] == w[1]),
        "representation must not change decisions"
    );
    println!("\nshadow representations produce identical speculative decisions ✓");
}
