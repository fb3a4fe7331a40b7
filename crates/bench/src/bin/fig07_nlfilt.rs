//! Fig. 7 — NLFILT_300: (a) parallelism ratio per input set vs
//! processors, (b) best obtained speedup (all optimizations on:
//! adaptive redistribution, on-demand checkpointing, feedback-guided
//! load balancing over three instantiations).
//!
//! PR depends on the processor count because only *inter-processor*
//! dependences restart the test; the denser decks degrade faster.

use rlrpd_bench::{fmt, print_table, PROCS};
use rlrpd_core::{
    AdaptRule, BalancePolicy, CheckpointPolicy, CostModel, RunConfig, RunPlan, Runner, Strategy,
    WindowConfig,
};
use rlrpd_loops::{NlfiltInput, NlfiltLoop};

/// Candidate strategies — "all optimizations turned on" in the paper
/// means the best configuration found per input, so the sweep tries
/// each and keeps the winner.
fn strategies() -> Vec<(&'static str, Strategy)> {
    vec![
        ("NRD", Strategy::Nrd),
        ("adaptive", Strategy::AdaptiveRd(AdaptRule::Measured)),
        ("SW32", Strategy::SlidingWindow(WindowConfig::fixed(32))),
        ("SW128", Strategy::SlidingWindow(WindowConfig::fixed(128))),
    ]
}

fn main() {
    println!("Fig. 7: NLFILT 300 — (a) parallelism ratio and (b) speedup per input set");
    let cost = CostModel::default();

    let mut pr_rows = Vec::new();
    let mut sp_rows = Vec::new();
    for &p in PROCS {
        let mut pr_row = vec![p.to_string()];
        let mut sp_row = vec![p.to_string()];
        for input in NlfiltInput::all() {
            let lp = NlfiltLoop::new(input);
            let mut best_speedup = f64::MIN;
            let mut best_pr = 1.0;
            for (_, strategy) in strategies() {
                let cfg = RunConfig::new(p)
                    .with_strategy(strategy)
                    .with_checkpoint(CheckpointPolicy::OnDemand)
                    .with_balance(BalancePolicy::FeedbackGuided)
                    .with_cost(cost);
                let mut runner = Runner::new(cfg);
                // Two instantiations: feedback-guided scheduling uses
                // the previous instantiation's timings, so PR and
                // speedup vary across them (the paper's "variable PR"
                // remark).
                for _ in 0..2 {
                    let res = runner.execute(&lp, RunPlan::default()).unwrap();
                    if res.report.speedup() > best_speedup {
                        best_speedup = res.report.speedup();
                        best_pr = runner.pr.pr();
                    }
                }
            }
            pr_row.push(fmt(best_pr));
            sp_row.push(fmt(best_speedup));
        }
        pr_rows.push(pr_row);
        sp_rows.push(sp_row);
    }

    let headers: Vec<String> = std::iter::once("procs".to_string())
        .chain(NlfiltInput::all().iter().map(|i| i.name.to_string()))
        .collect();
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table("(a) parallelism ratio", &headers, &pr_rows);
    print_table("(b) best speedup (all optimizations)", &headers, &sp_rows);
}
