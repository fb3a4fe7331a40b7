//! The TRACK program harness: many timesteps, each instantiating the
//! three measured loops.
//!
//! The paper reports TRACK results "over the life of the program": the
//! parallelism ratio `PR = #instantiations / (#restarts +
//! #instantiations)` accumulates across instantiations, feedback-guided
//! load balancing learns from one timestep to the next, and Fig. 12(b)
//! combines the loops — ≈95% of sequential time — into a program
//! speedup. This harness reproduces that structure: per timestep the
//! radar picture changes slightly (varying seeds/densities), NLFILT and
//! FPTRAK run under stateful [`rlrpd_core::Runner`]s (optionally the
//! history-based [`rlrpd_core::PredictiveRunner`]), and EXTEND runs the
//! two-pass induction scheme.

use crate::extend::{ExtendInput, ExtendLoop};
use crate::fptrak::{FptrakInput, FptrakLoop};
use crate::nlfilt::{NlfiltInput, NlfiltLoop};
use rlrpd_core::{
    run_induction, BalancePolicy, CheckpointPolicy, CostModel, ExecMode, PrAccumulator,
    PredictiveRunner, RunConfig, RunPlan, Runner,
};

/// Fraction of TRACK's sequential time outside the three loops
/// (the paper: the loops cover ≈95%).
const SERIAL_SHARE: f64 = 0.05;

/// Accumulated results of one loop over the program's life.
#[derive(Clone, Debug)]
pub struct LoopSummary {
    /// Loop name.
    pub name: &'static str,
    /// Program-lifetime parallelism ratio.
    pub pr: f64,
    /// Σ useful work across instantiations.
    pub sequential_work: f64,
    /// Σ virtual time across instantiations.
    pub virtual_time: f64,
}

impl LoopSummary {
    /// Aggregate speedup of this loop over the program's life.
    pub fn speedup(&self) -> f64 {
        self.sequential_work / self.virtual_time
    }
}

/// Whole-program results.
#[derive(Clone, Debug)]
pub struct ProgramReport {
    /// Per-loop summaries (NLFILT, EXTEND, FPTRAK).
    pub loops: Vec<LoopSummary>,
    /// Whole-program speedup including the serial share.
    pub program_speedup: f64,
}

/// Scheduling mode for the harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgramMode {
    /// Fixed configuration from [`RunConfig`] for every instantiation.
    Fixed,
    /// History-based strategy prediction per loop
    /// ([`PredictiveRunner`]).
    Predictive,
}

/// The TRACK program: `timesteps` radar frames.
#[derive(Clone, Debug)]
pub struct TrackProgram {
    timesteps: usize,
    base_seed: u64,
}

impl TrackProgram {
    /// A program of `timesteps` frames with deck variation derived from
    /// `base_seed`.
    pub fn new(timesteps: usize, base_seed: u64) -> Self {
        assert!(timesteps > 0);
        TrackProgram {
            timesteps,
            base_seed,
        }
    }

    fn nlfilt_at(&self, t: usize) -> NlfiltLoop {
        // The picture drifts: density wiggles with the frame.
        let mut input = NlfiltInput::i8_100();
        input.seed = self.base_seed ^ (t as u64).wrapping_mul(0x9e37);
        input.write_rate = 0.004 + 0.002 * ((t % 3) as f64);
        NlfiltLoop::new(input)
    }

    fn extend_at(&self, t: usize) -> ExtendLoop {
        let mut input = ExtendInput::dense();
        input.n = 1200;
        input.seed = self.base_seed ^ (t as u64).wrapping_mul(0xabcd);
        input.accept_rate = 0.25 + 0.05 * ((t % 4) as f64 / 4.0);
        ExtendLoop::new(input)
    }

    fn fptrak_at(&self, t: usize) -> FptrakLoop {
        let mut input = FptrakInput::chained();
        input.n = 1000;
        input.seed = self.base_seed ^ (t as u64).wrapping_mul(0x5a5a);
        FptrakLoop::new(input)
    }

    /// Run the whole program on `p` processors.
    pub fn run(&self, p: usize, cost: CostModel, mode: ProgramMode) -> ProgramReport {
        let cfg = RunConfig::new(p)
            .with_checkpoint(CheckpointPolicy::OnDemand)
            .with_balance(BalancePolicy::FeedbackGuided)
            .with_cost(cost);

        enum Driver {
            Fixed(Box<Runner>),
            Predictive(Box<PredictiveRunner>),
        }
        impl Driver {
            fn run(&mut self, lp: &dyn rlrpd_core::SpecLoop<f64>) -> rlrpd_core::RunResult<f64> {
                match self {
                    Driver::Fixed(r) => r
                        .execute(lp, RunPlan::default())
                        .expect("TRACK loops have no genuine fault"),
                    Driver::Predictive(r) => r.run(lp),
                }
            }
            fn pr(&self) -> f64 {
                match self {
                    Driver::Fixed(r) => r.pr.pr(),
                    Driver::Predictive(r) => r.pr(),
                }
            }
        }
        let make = || match mode {
            ProgramMode::Fixed => Driver::Fixed(Box::new(Runner::new(cfg))),
            ProgramMode::Predictive => Driver::Predictive(Box::new(PredictiveRunner::new(cfg))),
        };
        let mut nlfilt_driver = make();
        let mut fptrak_driver = make();
        let mut extend_pr = PrAccumulator::default();

        let mut nl = ("NLFILT_300", 0.0f64, 0.0f64);
        let mut ex = ("EXTEND_400", 0.0f64, 0.0f64);
        let mut fp = ("FPTRAK_300", 0.0f64, 0.0f64);

        for t in 0..self.timesteps {
            let lp = self.nlfilt_at(t);
            let res = nlfilt_driver.run(&lp);
            nl.1 += res.report.sequential_work;
            nl.2 += res.report.virtual_time();

            let lp = self.extend_at(t);
            let res = run_induction(&lp, p, ExecMode::Simulated, cost);
            extend_pr.add(&res.report);
            ex.1 += res.report.sequential_work;
            ex.2 += res.report.virtual_time();

            let lp = self.fptrak_at(t);
            let res = fptrak_driver.run(&lp);
            fp.1 += res.report.sequential_work;
            fp.2 += res.report.virtual_time();
        }

        let loops = vec![
            LoopSummary {
                name: nl.0,
                pr: nlfilt_driver.pr(),
                sequential_work: nl.1,
                virtual_time: nl.2,
            },
            LoopSummary {
                name: ex.0,
                pr: extend_pr.pr(),
                sequential_work: ex.1,
                virtual_time: ex.2,
            },
            LoopSummary {
                name: fp.0,
                pr: fptrak_driver.pr(),
                sequential_work: fp.1,
                virtual_time: fp.2,
            },
        ];

        // Whole program: the loops are 95% of sequential time; the rest
        // runs serially in both versions.
        let loops_seq: f64 = loops.iter().map(|l| l.sequential_work).sum();
        let loops_par: f64 = loops.iter().map(|l| l.virtual_time).sum();
        let serial = loops_seq / (1.0 - SERIAL_SHARE) * SERIAL_SHARE;
        let program_speedup = (loops_seq + serial) / (loops_par + serial);

        ProgramReport {
            loops,
            program_speedup,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_runs_and_reports_all_loops() {
        let prog = TrackProgram::new(4, 42);
        let report = prog.run(8, CostModel::default(), ProgramMode::Fixed);
        assert_eq!(report.loops.len(), 3);
        for l in &report.loops {
            assert!(l.pr > 0.0 && l.pr <= 1.0, "{}: PR = {}", l.name, l.pr);
            assert!(l.virtual_time > 0.0);
            assert!(l.sequential_work > 0.0);
        }
        assert!(report.program_speedup > 0.0);
    }

    #[test]
    fn program_speedup_grows_with_processors() {
        let prog = TrackProgram::new(3, 7);
        let s2 = prog
            .run(2, CostModel::default(), ProgramMode::Fixed)
            .program_speedup;
        let s16 = prog
            .run(16, CostModel::default(), ProgramMode::Fixed)
            .program_speedup;
        assert!(s16 > s2, "p=16 ({s16}) must beat p=2 ({s2})");
    }

    #[test]
    fn predictive_mode_is_at_least_competitive_eventually() {
        // Over enough timesteps the predictor should not lose badly to
        // the fixed default configuration.
        let prog = TrackProgram::new(12, 99);
        let fixed = prog.run(8, CostModel::default(), ProgramMode::Fixed);
        let pred = prog.run(8, CostModel::default(), ProgramMode::Predictive);
        assert!(
            pred.program_speedup > 0.6 * fixed.program_speedup,
            "predictive {} vs fixed {}",
            pred.program_speedup,
            fixed.program_speedup
        );
    }

    #[test]
    fn deck_variation_is_deterministic() {
        let a = TrackProgram::new(3, 1).run(4, CostModel::default(), ProgramMode::Fixed);
        let b = TrackProgram::new(3, 1).run(4, CostModel::default(), ProgramMode::Fixed);
        assert_eq!(a.program_speedup, b.program_speedup);
    }
}
