//! The bytecode VM against the tree-walk oracle on the example
//! programs and the paper-shaped model kernels, across strategies and
//! execution modes.
//!
//! The differential proptest suite (`crates/lang/tests/proptest_vm.rs`)
//! covers random programs on the simulated engine; this suite pins the
//! *real* workloads — every `examples/programs/*.rlp` and the
//! TRACK/SPICE/NLFILT DSL decks — and sweeps NRD/RD/sliding-window ×
//! Simulated/Pooled, asserting byte-identical final arrays
//! (`f64::to_bits`) between the two tiers. Restart machinery, block
//! scheduling, privatization commit order, and thread-pool reuse all
//! sit between the body and the observable state, so agreement here
//! means the VM is interchangeable wherever the engines call a body.

use rlrpd::lang::CompiledProgram;
use rlrpd::loops::dsl::{nlfilt_dsl, spice_dsl, track_dsl};
use rlrpd::{run_induction, CostModel, ExecMode, RunConfig, Strategy, WindowConfig};

fn strategies() -> Vec<(&'static str, Strategy)> {
    vec![
        ("nrd", Strategy::Nrd),
        ("rd", Strategy::Rd),
        ("sw16", Strategy::SlidingWindow(WindowConfig::fixed(16))),
    ]
}

fn exec_modes() -> Vec<(&'static str, ExecMode)> {
    vec![
        ("simulated", ExecMode::Simulated),
        ("pooled", ExecMode::Pooled),
    ]
}

/// Final arrays of a speculative run of `src`, as bit patterns.
fn run_arrays(src: &str, interp: bool, cfg: RunConfig) -> Vec<(&'static str, Vec<u64>)> {
    let mut prog = CompiledProgram::compile(src).expect("compiles");
    if interp {
        prog = prog.with_interpreter();
    }
    prog.run(cfg)
        .arrays
        .iter()
        .map(|(name, data)| (*name, data.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

fn assert_backends_agree(label: &str, src: &str) {
    for (sname, strategy) in strategies() {
        for (ename, exec) in exec_modes() {
            let cfg = RunConfig::new(4).with_strategy(strategy).with_exec(exec);
            let vm = run_arrays(src, false, cfg);
            let tw = run_arrays(src, true, cfg);
            assert_eq!(
                vm, tw,
                "{label}: VM diverged from tree-walk under {sname}/{ename}"
            );
        }
    }
}

fn example(name: &str) -> String {
    let path = format!("{}/examples/programs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn tracking_example_is_byte_identical_across_strategies_and_modes() {
    assert_backends_agree("tracking.rlp", &example("tracking.rlp"));
}

#[test]
fn lu_sparse_example_is_byte_identical_across_strategies_and_modes() {
    assert_backends_agree("lu_sparse.rlp", &example("lu_sparse.rlp"));
}

#[test]
fn premature_exit_example_is_byte_identical_across_strategies_and_modes() {
    assert_backends_agree("premature_exit.rlp", &example("premature_exit.rlp"));
}

#[test]
fn two_phase_example_is_byte_identical_across_strategies_and_modes() {
    assert_backends_agree("two_phase.rlp", &example("two_phase.rlp"));
}

#[test]
fn track_model_deck_is_byte_identical_across_strategies_and_modes() {
    assert_backends_agree("track_dsl(512)", &track_dsl(512));
}

#[test]
fn spice_model_deck_is_byte_identical_across_strategies_and_modes() {
    assert_backends_agree("spice_dsl(400)", &spice_dsl(400));
}

#[test]
fn nlfilt_model_deck_is_byte_identical_across_strategies_and_modes() {
    assert_backends_agree("nlfilt_dsl(512)", &nlfilt_dsl(512));
}

/// The large journaling deck, once, on the default adaptive strategy:
/// 800k iterations through the VM and the oracle must still agree
/// bit-for-bit.
#[test]
fn tracking_large_is_byte_identical_on_the_simulated_engine() {
    let src = example("tracking_large.rlp");
    let cfg = RunConfig::new(8);
    assert_eq!(
        run_arrays(&src, false, cfg),
        run_arrays(&src, true, cfg),
        "tracking_large.rlp: VM diverged from tree-walk"
    );
}

/// The induction scheme (EXTEND two-pass): counter, range-test verdict,
/// and tracked arrays agree between the tiers in every exec mode.
#[test]
fn extend_induction_program_is_byte_identical_across_modes() {
    use rlrpd::lang::CompiledInduction;
    let src = example("extend.rlp");
    for (ename, exec) in exec_modes() {
        let run = |interp: bool| {
            let mut ind = CompiledInduction::compile(&src).expect("compiles");
            if interp {
                ind = ind.with_interpreter();
            }
            let res = run_induction(&ind, 4, exec, CostModel::default());
            let arrays: Vec<(&'static str, Vec<u64>)> = res
                .arrays
                .iter()
                .map(|(name, data)| (*name, data.iter().map(|v| v.to_bits()).collect()))
                .collect();
            (res.final_counter, res.test_passed, arrays)
        };
        assert_eq!(
            run(false),
            run(true),
            "extend.rlp: VM diverged from tree-walk under {ename}"
        );
    }
}
