//! Ablations of the design choices DESIGN.md calls out: eager vs
//! on-demand checkpointing, even vs feedback-guided blocks, dense vs
//! sparse shadows for the same loop, and circular vs non-circular
//! sliding windows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rlrpd_core::{
    ArrayDecl, ArrayId, BalancePolicy, CheckpointPolicy, ClosureLoop, RunConfig, RunPlan, Runner,
    ShadowKind, Strategy, WindowConfig,
};
use rlrpd_loops::{NlfiltInput, NlfiltLoop};
use std::hint::black_box;

fn checkpoint_policy(c: &mut Criterion) {
    let lp = NlfiltLoop::new(NlfiltInput::i8_100());
    let mut g = c.benchmark_group("checkpoint_policy");
    for (label, p) in [
        ("eager", CheckpointPolicy::Eager),
        ("on_demand", CheckpointPolicy::OnDemand),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &p, |b, &ckpt| {
            let cfg = RunConfig::new(8)
                .with_checkpoint(ckpt)
                .with_strategy(Strategy::Nrd);
            b.iter(|| black_box(rlrpd_core::run_speculative(&lp, cfg).report.restarts));
        });
    }
    g.finish();
}

fn balance_policy(c: &mut Criterion) {
    let lp = NlfiltLoop::new(NlfiltInput::i8_100());
    let mut g = c.benchmark_group("balance_policy");
    for (label, pol) in [
        ("even", BalancePolicy::Even),
        ("feedback", BalancePolicy::FeedbackGuided),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &pol, |b, &bal| {
            let cfg = RunConfig::new(8)
                .with_balance(bal)
                .with_strategy(Strategy::Nrd);
            b.iter(|| {
                let mut runner = Runner::new(cfg);
                let _ = runner.execute(&lp, RunPlan::default()).unwrap();
                let res = runner.execute(&lp, RunPlan::default()).unwrap();
                black_box(res.report.restarts)
            });
        });
    }
    g.finish();
}

fn shadow_kind_same_loop(c: &mut Criterion) {
    const A: ArrayId = ArrayId(0);
    let make = |kind: ShadowKind| {
        ClosureLoop::new(
            2048,
            move || vec![ArrayDecl::tested("A", vec![0.0; 2048], kind)],
            |i, ctx| {
                let v = ctx.read(A, i.saturating_sub(1));
                ctx.write(A, i, v + 1.0);
            },
        )
    };
    let mut g = c.benchmark_group("shadow_kind");
    g.bench_function("dense", |b| {
        let lp = make(ShadowKind::Dense);
        let cfg = RunConfig::new(4).with_strategy(Strategy::Nrd);
        b.iter(|| black_box(rlrpd_core::run_speculative(&lp, cfg).report.restarts));
    });
    g.bench_function("dense_packed", |b| {
        let lp = make(ShadowKind::DensePacked);
        let cfg = RunConfig::new(4).with_strategy(Strategy::Nrd);
        b.iter(|| black_box(rlrpd_core::run_speculative(&lp, cfg).report.restarts));
    });
    g.bench_function("sparse", |b| {
        let lp = make(ShadowKind::Sparse);
        let cfg = RunConfig::new(4).with_strategy(Strategy::Nrd);
        b.iter(|| black_box(rlrpd_core::run_speculative(&lp, cfg).report.restarts));
    });
    g.finish();
}

fn window_circularity(c: &mut Criterion) {
    let lp = NlfiltLoop::new(NlfiltInput::i8_100());
    let mut g = c.benchmark_group("window_circularity");
    for circular in [true, false] {
        let label = if circular { "circular" } else { "linear" };
        g.bench_with_input(BenchmarkId::from_parameter(label), &circular, |b, &circ| {
            let cfg = RunConfig::new(8).with_strategy(Strategy::SlidingWindow(WindowConfig {
                iters_per_proc: 16,
                policy: rlrpd_core::WindowPolicy::Fixed,
                circular: circ,
            }));
            b.iter(|| black_box(rlrpd_core::run_speculative(&lp, cfg).report.restarts));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    checkpoint_policy,
    balance_policy,
    shadow_kind_same_loop,
    window_circularity
);
criterion_main!(benches);
