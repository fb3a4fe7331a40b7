//! What a run measures: per-job samples, set-up timings, the shared
//! set-up step, the correctness check, and the line records a worker
//! process hands back to the coordinating process.

use std::time::Instant;

use rlrpd_lang::{Class, CompiledProgram};
use rlrpd_runtime::WorkerPool;

use crate::metrics::median;
use crate::trace::Tracer;
use crate::{gen, Args, Workload, P};

/// Empty pool round trips timed while warming the pool.
const POOL_EPOCHS: usize = 200;

/// Relative tolerance for floating-point `+=` reduction arrays: the
/// rounding-level bound `rlrpd run` applies to them, because
/// speculative reductions fold per-block partial sums and so
/// reassociate.
const REDUCTION_TOLERANCE: f64 = 1e-9;

/// Declares [`Job`] and its line codec from one field list, so the two
/// cannot drift apart. Every field is an `f64` sample; a field a
/// workload's layers do not expose stays 0 (`README.md` lists which).
macro_rules! job_fields {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// What one job observed.
        #[derive(Clone, Debug, Default)]
        pub struct Job {
            /// Completed, and agreed with sequential execution.
            pub ok: bool,
            $($(#[$doc])* pub $field: f64,)*
        }

        impl Job {
            /// `ok` then every field, space-separated.
            fn encode(&self) -> String {
                let mut s = u8::from(self.ok).to_string();
                $(s.push(' '); s.push_str(&self.$field.to_string());)*
                s
            }

            fn decode<'a>(f: &mut impl Iterator<Item = &'a str>) -> Option<Job> {
                let ok = f.next()? == "1";
                Some(Job { ok, $($field: f.next()?.parse().ok()?,)* })
            }
        }
    };
}

job_fields!(
    /// Wall seconds of the job (the `run_s` sample).
    wall_s,
    execute_s,
    analysis_s,
    commit_s,
    restore_s,
    shadow_clear_s,
    stages,
    restarts,
    useful_ratio,
    virtual_speedup,
    shadow_peak_bytes,
    shadow_migrations,
    journal_records,
    journal_bytes,
    journal_append_s,
    decision_s,
    first_frame_s,
    frames,
    dropped,
    rejected,
    reconnects,
    /// 1 when a reduction array matched only within rounding tolerance.
    reduction_inexact,
);

impl Job {
    /// Sum of the engine's wall phases.
    pub fn phases_s(&self) -> f64 {
        self.execute_s + self.analysis_s + self.commit_s + self.restore_s + self.shadow_clear_s
    }
}

/// One timed phase: its jobs and its wall length.
#[derive(Default)]
pub struct Phase {
    pub jobs: Vec<Job>,
    pub seconds: f64,
}

/// Timings of one set-up repetition.
pub struct SetupTimes {
    pub total_s: f64,
    pub compile_s: f64,
    pub seq_s: f64,
    pub pool_epoch_us: f64,
}

/// Everything one worker process measured.
#[derive(Default)]
pub struct Measured {
    pub setups: Vec<SetupTimes>,
    /// The timed phase measured with tracing off.
    pub untraced: Phase,
    /// The traced phase (`--trace 1` only).
    pub traced: Option<Phase>,
    pub iters: usize,
    /// The process high-water RSS in MiB, one entry per worker process.
    pub peak_rss_mb: Vec<f64>,
    /// Human-readable notes printed with the metrics.
    pub notes: Vec<String>,
}

impl Measured {
    /// The line records a worker process prints on standard output.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for s in &self.setups {
            out += &format!(
                "setup {} {} {} {}\n",
                s.total_s, s.compile_s, s.seq_s, s.pool_epoch_us
            );
        }
        let phases = [Some(&self.untraced), self.traced.as_ref()];
        for (traced, phase) in phases.into_iter().enumerate() {
            let Some(phase) = phase else { continue };
            out += &format!("phase {traced} {}\n", phase.seconds);
            for job in &phase.jobs {
                out += &format!("job {traced} {}\n", job.encode());
            }
        }
        for rss in &self.peak_rss_mb {
            out += &format!("rss {rss}\n");
        }
        out += &format!("iters {}\n", self.iters);
        for note in &self.notes {
            out += &format!("note {note}\n");
        }
        out
    }

    /// Fold one worker process's records into `self`.
    pub fn absorb(&mut self, records: &str) -> Result<(), String> {
        for line in records.lines() {
            let bad = || format!("bad record from a worker process: {line:?}");
            let mut f = line.split(' ');
            match f.next() {
                Some("setup") => {
                    let mut v = f.map(str::parse::<f64>);
                    let mut next = || v.next().and_then(Result::ok).ok_or_else(bad);
                    self.setups.push(SetupTimes {
                        total_s: next()?,
                        compile_s: next()?,
                        seq_s: next()?,
                        pool_epoch_us: next()?,
                    });
                }
                Some("phase") => {
                    let traced = f.next() == Some("1");
                    let secs: f64 = f.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
                    self.phase_mut(traced).seconds += secs;
                }
                Some("job") => {
                    let traced = f.next() == Some("1");
                    let job = Job::decode(&mut f).ok_or_else(bad)?;
                    self.phase_mut(traced).jobs.push(job);
                }
                Some("rss") => {
                    let rss = f.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
                    self.peak_rss_mb.push(rss);
                }
                Some("iters") => {
                    self.iters = f.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?
                }
                Some("note") => {
                    let note = line["note ".len()..].to_string();
                    if !self.notes.contains(&note) {
                        self.notes.push(note);
                    }
                }
                _ => return Err(bad()),
            }
        }
        Ok(())
    }

    fn phase_mut(&mut self, traced: bool) -> &mut Phase {
        if traced {
            self.traced.get_or_insert_with(Phase::default)
        } else {
            &mut self.untraced
        }
    }
}

/// The program a workload runs, with its sequential reference.
pub struct Prepared {
    pub src: String,
    pub prog: CompiledProgram,
    pub reference: Vec<(&'static str, Vec<f64>)>,
    /// Per array: classified a reduction in some loop.
    pub reductions: Vec<bool>,
    pub iters: usize,
}

/// Generate, compile, self-check, warm the pool and run the sequential
/// reference: the part of set-up every workload shares.
pub fn prepare(args: &Args, tracer: &Tracer) -> Result<(Prepared, SetupTimes), String> {
    let t0 = Instant::now();
    let iters = args.workload.iters(args.tiny);
    let mut rng = gen::Rng::new(args.seed);
    let src = match args.workload {
        Workload::Doacross => gen::beta(iters, &mut rng),
        _ => gen::tracking(iters, &mut rng),
    };
    let prog = CompiledProgram::compile(&src).map_err(|e| format!("generated program: {e}"))?;
    match args.workload {
        Workload::Doacross => gen::check_beta(&prog)?,
        _ => gen::check_tracking(&prog)?,
    }
    let reductions = (0..prog.program().arrays.len())
        .map(|a| {
            (0..prog.num_loops())
                .any(|k| matches!(prog.classifications(k)[a].class, Class::Reduction(_)))
        })
        .collect();
    let t1 = Instant::now();
    tracer.record("setup.compile", None, None, t0, t1);

    let pool = WorkerPool::shared(P);
    let mut epochs = Vec::with_capacity(POOL_EPOCHS);
    for _ in 0..POOL_EPOCHS {
        let e = Instant::now();
        std::hint::black_box(pool.run_indexed(P, |i| i));
        epochs.push(e.elapsed().as_secs_f64());
    }
    let t2 = Instant::now();
    tracer.record("setup.pool", None, None, t1, t2);

    let reference = prog.run_sequential();
    let t3 = Instant::now();
    tracer.record("verify.seq", None, None, t2, t3);
    Ok((
        Prepared {
            src,
            prog,
            reference,
            reductions,
            iters,
        },
        SetupTimes {
            total_s: (t3 - t0).as_secs_f64(),
            compile_s: (t1 - t0).as_secs_f64(),
            seq_s: (t3 - t2).as_secs_f64(),
            pool_epoch_us: median(&epochs) * 1e6,
        },
    ))
}

/// Outcome of checking one job's arrays against the sequential
/// reference.
pub struct Check {
    /// The first disagreement, described; `None` when the job passed.
    pub error: Option<String>,
    /// A reduction array passed only within the rounding tolerance (its
    /// bits differ from sequential execution).
    pub reduction_inexact: bool,
}

/// Compare `got` with the reference: every array bit-for-bit
/// (`f64::to_bits`), except reduction arrays, which must agree within
/// [`REDUCTION_TOLERANCE`] and are flagged when their bits differ.
pub fn check(prep: &Prepared, got: &[&[f64]]) -> Check {
    let mut out = Check {
        error: None,
        reduction_inexact: false,
    };
    if got.len() != prep.reference.len() {
        out.error = Some(format!(
            "{} arrays, expected {}",
            got.len(),
            prep.reference.len()
        ));
        return out;
    }
    let close = |w: f64, g: f64| (w - g).abs() <= REDUCTION_TOLERANCE * w.abs().max(1.0);
    for (((name, want), got), &reduction) in prep.reference.iter().zip(got).zip(&prep.reductions) {
        if want.len() != got.len() {
            out.error = Some(format!(
                "{name} has {} elements, expected {}",
                got.len(),
                want.len()
            ));
            return out;
        }
        let Some(k) = want
            .iter()
            .zip(*got)
            .position(|(w, g)| w.to_bits() != g.to_bits())
        else {
            continue;
        };
        if reduction && want.iter().zip(*got).all(|(&w, &g)| close(w, g)) {
            out.reduction_inexact = true;
            continue;
        }
        out.error = Some(format!(
            "{name}[{k}] = {:e}, sequential {:e}",
            got[k], want[k]
        ));
        return out;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip() {
        let job = Job {
            ok: true,
            wall_s: 0.123456789,
            stages: 13.0,
            useful_ratio: f64::NAN,
            ..Job::default()
        };
        let m = Measured {
            setups: vec![SetupTimes {
                total_s: 0.5,
                compile_s: 0.001,
                seq_s: 0.4,
                pool_epoch_us: 12.5,
            }],
            untraced: Phase {
                jobs: vec![job.clone()],
                seconds: 2.0,
            },
            traced: Some(Phase {
                jobs: vec![job],
                seconds: 1.5,
            }),
            iters: 800,
            peak_rss_mb: vec![12.25],
            notes: vec!["program: 800 iterations".into()],
        };
        let mut back = Measured::default();
        back.absorb(&m.encode()).unwrap();
        assert_eq!(back.encode(), m.encode());
        assert_eq!(
            back.untraced.jobs[0].wall_s.to_bits(),
            0.123456789f64.to_bits()
        );
    }
}
