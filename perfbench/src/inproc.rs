//! The in-process workloads: `spec-bulk`, `spec-window` and
//! `doacross-pipeline`. A job is one call from the compiled program to
//! its final arrays on the shared pooled executor; the check against
//! the sequential reference runs after the job's timer stops.

use std::time::Instant;

use rlrpd_core::{AdaptRule, ExecMode, RunConfig, RunReport, Strategy, WindowConfig};

use crate::measure::{check, prepare, Job, Measured, Phase, Prepared};
use crate::trace::Tracer;
use crate::{Args, Workload, P, SETUP_REPS};

/// The run configuration of each workload. `ExecMode::Pooled` is set
/// explicitly: the default `Simulated` mode never runs in parallel.
fn config(workload: Workload) -> RunConfig {
    let strategy = match workload {
        Workload::SpecWindow => Strategy::SlidingWindow(WindowConfig::fixed(8)),
        // The CLI's `adaptive`; `run_auto` replaces it with DOACROSS on
        // a proven loop.
        _ => Strategy::AdaptiveRd(AdaptRule::Measured),
    };
    RunConfig::new(P)
        .with_strategy(strategy)
        .with_exec(ExecMode::Pooled)
}

/// Fold a job's reports (one per loop) into its sample.
fn sample(reports: &[RunReport], wall_s: f64, ok: bool) -> Job {
    let mut job = Job {
        wall_s,
        ok,
        ..Job::default()
    };
    let (mut seq_work, mut work, mut virt) = (0.0, 0.0, 0.0);
    for r in reports {
        let ph = r.phase_totals();
        job.execute_s += ph.execute_seconds;
        job.analysis_s += ph.analysis_seconds;
        job.commit_s += ph.commit_seconds;
        job.restore_s += ph.restore_seconds;
        job.shadow_clear_s += ph.shadow_clear_seconds;
        job.stages += r.stages.len() as f64;
        job.restarts += r.restarts as f64;
        job.shadow_peak_bytes = job.shadow_peak_bytes.max(r.shadow_bytes_peak() as f64);
        job.shadow_migrations += r.shadow_migrations() as f64;
        seq_work += r.sequential_work;
        work += r.total_work_executed();
        virt += r.virtual_time();
    }
    job.useful_ratio = seq_work / work;
    job.virtual_speedup = seq_work / virt;
    job
}

/// Refuse to report numbers from the simulator: every speculative job
/// must have spent wall time executing, and a DOACROSS job must have
/// run as one stage with no restarts.
fn guard(workload: Workload, reports: &[RunReport]) -> Result<(), String> {
    for r in reports {
        let ok = match workload {
            Workload::Doacross => r.stages.len() == 1 && r.restarts == 0,
            _ => r.phase_totals().execute_seconds > 0.0,
        };
        if !ok {
            return Err(format!(
                "guard: {} job reported {} stages, {} restarts, execute {} s — not a pooled run of its tier",
                workload.name(),
                r.stages.len(),
                r.restarts,
                r.phase_totals().execute_seconds
            ));
        }
    }
    Ok(())
}

fn phase(
    w: Workload,
    prep: &Prepared,
    seconds: f64,
    tracer: &Tracer,
    next_job: &mut u64,
) -> Result<Phase, String> {
    let cfg = config(w);
    let start = Instant::now();
    let mut jobs = Vec::new();
    loop {
        let job_id = *next_job;
        *next_job += 1;
        let t0 = Instant::now();
        let res = match w {
            Workload::Doacross => prep.prog.run_auto(cfg),
            _ => prep.prog.run(cfg),
        };
        let t1 = Instant::now();
        let got: Vec<&[f64]> = res.arrays.iter().map(|(_, a)| a.as_slice()).collect();
        let verdict = check(prep, &got);
        if let Some(e) = &verdict.error {
            eprintln!("perfbench: job {job_id} differs from sequential: {e}");
        }
        let t2 = Instant::now();
        guard(w, &res.reports)?;
        let mut job = sample(
            &res.reports,
            (t1 - t0).as_secs_f64(),
            verdict.error.is_none(),
        );
        job.reduction_inexact = f64::from(u8::from(verdict.reduction_inexact));
        if tracer.on() {
            let span = tracer.id();
            let attrs = vec![
                ("stages", job.stages),
                ("restarts", job.restarts),
                ("execute_s", job.execute_s),
                ("analysis_s", job.analysis_s),
                ("commit_s", job.commit_s),
                ("restore_s", job.restore_s),
                ("shadow_clear_s", job.shadow_clear_s),
                ("useful_ratio", job.useful_ratio),
                ("virtual_speedup", job.virtual_speedup),
                ("shadow_peak_bytes", job.shadow_peak_bytes),
                ("shadow_migrations", job.shadow_migrations),
            ];
            tracer.record_as(
                tracer.id(),
                "core.run",
                Some(span),
                Some(job_id),
                t0,
                t1,
                attrs,
            );
            tracer.record_as(span, "job", None, Some(job_id), t0, t2, Vec::new());
        }
        drop(res);
        jobs.push(job);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(Phase {
        jobs,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// Set up `SETUP_REPS` times, then run the timed phase(s).
pub fn run(args: &Args, tracer: &Tracer) -> Result<Measured, String> {
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let (prep, times) = prepare(args, tracer)?;
        setups.push(times);
        prepared = Some(prep);
    }
    let prep = prepared.expect("at least one set-up");
    let mut next_job = args.id_base();
    let (untraced, traced) = if args.trace {
        tracer.set(false);
        let untraced = phase(
            args.workload,
            &prep,
            args.seconds / 2.0,
            tracer,
            &mut next_job,
        )?;
        tracer.set(true);
        let traced = phase(
            args.workload,
            &prep,
            args.seconds / 2.0,
            tracer,
            &mut next_job,
        )?;
        (untraced, Some(traced))
    } else {
        (
            phase(args.workload, &prep, args.seconds, tracer, &mut next_job)?,
            None,
        )
    };
    Ok(Measured {
        setups,
        untraced,
        traced,
        iters: prep.iters,
        peak_rss_mb: Vec::new(),
        notes: vec![format!(
            "program: {} iterations, {} bytes of .rlp text",
            prep.iters,
            prep.src.len()
        )],
    })
}
