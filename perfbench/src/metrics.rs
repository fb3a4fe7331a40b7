//! Statistics, the metric sets, and the output format.

use crate::measure::{Job, Measured};
use crate::Workload;

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The percentile `run_s_tail` reports. It is fixed, not "the highest
/// with ten samples beyond": with a fixed run length a faster program
/// runs more jobs, and a rank-based tail would then sit at a higher
/// percentile and read worse for that reason alone. Every workload
/// runs well over 100 jobs, so at least ten samples lie beyond it.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// Nearest-rank percentile `pct` of `xs`; also returns how many samples
/// lie beyond it. 0 for an empty slice.
pub fn percentile(xs: &[f64], pct: f64) -> (f64, usize) {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return (0.0, 0);
    }
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (s[rank - 1], n - rank)
}

/// The eleventh-largest sample (the highest percentile with ten samples
/// beyond it) and its percentile, printed beside `run_s_tail`. `None`
/// with fewer than eleven samples.
pub fn eleventh_largest(xs: &[f64]) -> Option<(f64, f64)> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    (n >= 11).then(|| (s[n - 11], 100.0 * (n - 10) as f64 / n as f64))
}

/// A finite JSON number (non-finite values, which only arise from an
/// empty or degenerate sample, print as 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub struct Metric {
    pub name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let walls: Vec<f64> = m.untraced.jobs.iter().map(|j| j.wall_s).collect();
    let ok = m.untraced.jobs.iter().filter(|j| j.ok).count();
    let n = m.untraced.jobs.len();
    let (tail_s, beyond) = percentile(&walls, TAIL_PERCENTILE);
    let setup: Vec<f64> = m.setups.iter().map(|s| s.total_s).collect();
    let fail_frac = (n - ok) as f64 / n as f64;
    let mut out = vec![
        metric("run_s", median(&walls), "s"),
        metric("run_s_tail", tail_s, "s"),
        metric("jobs_per_s", ok as f64 / m.untraced.seconds, "1/s"),
        metric("setup_s", median(&setup), "s"),
        metric("verified_frac", 1.0 - fail_frac, "frac"),
        metric("peak_rss_mb", median(&m.peak_rss_mb), "MiB"),
    ];
    out[0].note = format!("median of {n} jobs");
    out[1].note = format!("p{TAIL_PERCENTILE} of {n} jobs, {beyond} beyond");
    if let Some((v, pct)) = eleventh_largest(&walls) {
        out[1].note += &format!("; 11th-largest p{pct:.1} = {v:.6} s");
    }
    out[2].note = format!("{ok} verified jobs in {:.3} s", m.untraced.seconds);
    out[3].note = format!("median of {} set-ups", setup.len());
    let inexact = m
        .untraced
        .jobs
        .iter()
        .filter(|j| j.reduction_inexact > 0.0)
        .count();
    out[4].note =
        format!("fail_frac {fail_frac}; {inexact} jobs' reductions matched only within rounding");
    out
}

pub fn per_layer(m: &Measured, workload: Workload) -> Vec<Metric> {
    let traced = m
        .traced
        .as_ref()
        .expect("per-layer metrics come from the traced phase");
    let jobs = &traced.jobs;
    let med = |f: fn(&Job) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    let sum = |f: fn(&Job) -> f64| jobs.iter().map(f).sum::<f64>();
    let run_s = med(|j| j.wall_s);
    let untraced_run_s = median(&m.untraced.jobs.iter().map(|j| j.wall_s).collect::<Vec<_>>());
    let seq_s = median(&m.setups.iter().map(|s| s.seq_s).collect::<Vec<_>>());
    // Core phases are exposed only by an in-process RunReport.
    let in_process = workload != Workload::ServeJournal;
    let other_s = if in_process {
        med(|j| j.wall_s - j.phases_s())
    } else {
        0.0
    };
    let floor_us = if in_process {
        med(|j| (j.wall_s - j.execute_s) / j.stages.max(1.0)) * 1e6
    } else {
        0.0
    };
    let doacross_ns = if workload == Workload::Doacross {
        run_s / m.iters as f64 * 1e9
    } else {
        0.0
    };
    vec![
        metric(
            "lang.compile_s",
            median(&m.setups.iter().map(|s| s.compile_s).collect::<Vec<_>>()),
            "s",
        ),
        metric("lang.seq_s", seq_s, "s"),
        metric("lang.seq_ns_per_iter", seq_s / m.iters as f64 * 1e9, "ns"),
        metric("core.execute_s", med(|j| j.execute_s), "s"),
        metric("core.analysis_s", med(|j| j.analysis_s), "s"),
        metric("core.commit_s", med(|j| j.commit_s), "s"),
        metric("core.restore_s", med(|j| j.restore_s), "s"),
        metric("core.shadow_clear_s", med(|j| j.shadow_clear_s), "s"),
        metric("core.other_s", other_s, "s"),
        metric("core.stage_floor_us", floor_us, "us"),
        metric("core.stages", med(|j| j.stages), "count"),
        metric("core.restarts", med(|j| j.restarts), "count"),
        metric("core.useful_ratio", med(|j| j.useful_ratio), "ratio"),
        metric("core.wall_speedup", seq_s / run_s, "x"),
        metric("model.virtual_speedup", med(|j| j.virtual_speedup), "x"),
        metric("shadow.peak_bytes", med(|j| j.shadow_peak_bytes), "bytes"),
        metric("shadow.migrations", med(|j| j.shadow_migrations), "count"),
        metric(
            "runtime.pool_epoch_us",
            median(&m.setups.iter().map(|s| s.pool_epoch_us).collect::<Vec<_>>()),
            "us",
        ),
        metric("runtime.doacross_ns_per_iter", doacross_ns, "ns"),
        metric("journal.records", med(|j| j.journal_records), "count"),
        metric("journal.bytes", med(|j| j.journal_bytes), "bytes"),
        metric("journal.append_s", med(|j| j.journal_append_s), "s"),
        metric("serve.decision_s", med(|j| j.decision_s), "s"),
        metric("serve.first_frame_s", med(|j| j.first_frame_s), "s"),
        metric("serve.frames", med(|j| j.frames), "count"),
        metric("serve.dropped", sum(|j| j.dropped), "count"),
        metric("serve.rejected", sum(|j| j.rejected), "count"),
        metric("serve.reconnects", sum(|j| j.reconnects), "count"),
        metric(
            "verify.reduction_inexact",
            sum(|j| j.reduction_inexact),
            "count",
        ),
        metric("trace.run_s", run_s, "s"),
        metric("trace.overhead_s", run_s - untraced_run_s, "s"),
    ]
}

pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        if m.note.is_empty() {
            println!("{:<30} {:>16} {}", m.name, num(m.value), m.unit);
        } else {
            println!(
                "{:<30} {:>16} {:<6} ({})",
                m.name,
                num(m.value),
                m.unit,
                m.note
            );
        }
    }
}

pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
