//! `perfbench`: the wall-clock layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload spec-bulk --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Run from the repository root. The run is split over
//! [`PROCESSES`] worker processes started one after another (this
//! binary again, with `--worker I`), so no single process's luck
//! decides a number. Each worker sets up [`SETUP_REPS`] times, then
//! runs jobs back to back for its share of `--seconds`, checking every
//! job's arrays against `CompiledProgram::run_sequential`. The
//! coordinating process pools the workers' samples. With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1` each worker runs an
//! untraced and a traced half, and the per-layer metrics, the tracing
//! overhead and the span file come from the traced halves. The last
//! line of standard output is one JSON object; the exit code is
//! non-zero when any job failed or disagreed with sequential execution.
//! See `README.md`.

mod gen;
mod inproc;
mod measure;
mod metrics;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use measure::Measured;
use metrics::{end_to_end, per_layer, print_metrics, result_json};
use trace::Tracer;

/// Worker count of every workload (the benchmark host has two cores).
pub const P: usize = 2;

/// Worker processes per run, run one after another.
const PROCESSES: usize = 5;

/// Set-up repetitions per worker process; `setup_s` is the median over
/// all of them.
pub const SETUP_REPS: usize = 2;

/// Directory (relative to the repository root) for spans and the
/// workers' work directories; a worker removes its own when it ends.
const OUT_DIR: &str = "perfbench/out";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SpecBulk,
    SpecWindow,
    Doacross,
    ServeJournal,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SpecBulk,
        Workload::SpecWindow,
        Workload::Doacross,
        Workload::ServeJournal,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SpecBulk => "spec-bulk",
            Workload::SpecWindow => "spec-window",
            Workload::Doacross => "doacross-pipeline",
            Workload::ServeJournal => "serve-journal",
        }
    }

    /// Loop iterations of one job at full (or smoke-test) size.
    fn iters(self, tiny: bool) -> usize {
        match (self, tiny) {
            (Workload::SpecBulk, false) => 800_000,
            (Workload::SpecWindow, false) => 16_000,
            (Workload::Doacross, false) => 400_000,
            (Workload::ServeJournal, false) => 24_000,
            (Workload::SpecBulk, true) => 20_000,
            (Workload::SpecWindow, true) => 800,
            (Workload::Doacross, true) => 10_000,
            (Workload::ServeJournal, true) => 2_000,
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub spans: Option<PathBuf>,
    /// Set in a worker process: its index among the run's workers.
    pub worker: Option<u64>,
}

impl Args {
    /// First id a worker's spans and jobs use, so the ids of all workers
    /// stay distinct in the pooled span file.
    pub fn id_base(&self) -> u64 {
        self.worker.unwrap_or(0) * 1_000_000
    }
}

const USAGE: &str =
    "usage: perfbench --workload spec-bulk|spec-window|doacross-pipeline|serve-journal \
--seed N --seconds S --trace 0|1 [--size full|tiny] [--spans PATH]";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut spans = None;
    let mut worker = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *Workload::ALL
                        .iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got '{value}'")),
                })
            }
            "--size" => {
                tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err(format!("--size expects full or tiny, got '{value}'")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            "--worker" => {
                worker = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad worker index '{value}'"))?,
                )
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        spans,
        worker,
    })
}

// ---------------------------------------------------------------------------
// Host header
// ---------------------------------------------------------------------------

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let _dev = f.next()?;
            let at = f.next()?;
            let fs = f.next()?;
            path.starts_with(at).then(|| (at.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".into(), |(_, fs)| fs)
}

/// The process high-water resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_header(args: &Args) {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} size={} processes={PROCESSES}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.tiny { "tiny" } else { "full" }
    );
    println!(
        "# host_cores={} p={P} git_rev={} rustc=\"{}\" state_fs={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if Path::new(".git").exists() {
            command_line("git", &["--git-dir=.git", "rev-parse", "--short", "HEAD"])
        } else {
            "unknown".into()
        },
        command_line("rustc", &["--version"]),
        filesystem_of(Path::new(OUT_DIR))
    );
}

// ---------------------------------------------------------------------------
// Worker and coordinator
// ---------------------------------------------------------------------------

/// A worker process: measure, then print the records for the
/// coordinator (and write the spans to `--spans` when tracing).
fn worker(args: &Args) -> Result<(), String> {
    let work_dir = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
    let tracer = Tracer::new(args.trace, args.id_base());
    let measured = match args.workload {
        Workload::ServeJournal => serve::run(args, &tracer, &work_dir),
        _ => inproc::run(args, &tracer),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let mut measured = measured?;
    measured.peak_rss_mb = vec![peak_rss_mb()];
    if let Some(path) = &args.spans {
        std::fs::write(path, tracer.to_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    print!("{}", measured.encode());
    Ok(())
}

/// Run the worker processes one after another and pool their records.
/// Returns the pooled measurement and the concatenated span file.
fn coordinate(args: &Args) -> Result<(Measured, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut pooled = Measured::default();
    let mut spans = String::new();
    for i in 0..PROCESSES {
        let part = Path::new(OUT_DIR).join(format!("spans-{}-{i}.part", std::process::id()));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / PROCESSES as f64).to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--size", if args.tiny { "tiny" } else { "full" }])
            .args(["--worker", &i.to_string()]);
        if args.trace {
            cmd.arg("--spans").arg(&part);
        }
        let out = cmd
            .output()
            .map_err(|e| format!("cannot start worker process {i}: {e}"))?;
        // Worker diagnostics were captured with its records; pass them on.
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        if !out.status.success() {
            return Err(format!("worker process {i} exited with {}", out.status));
        }
        let records = String::from_utf8(out.stdout)
            .map_err(|_| format!("worker process {i} printed non-UTF-8 records"))?;
        pooled.absorb(&records)?;
        if args.trace {
            spans += &std::fs::read_to_string(&part)
                .map_err(|e| format!("cannot read {}: {e}", part.display()))?;
            let _ = std::fs::remove_file(&part);
        }
    }
    Ok((pooled, spans))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.worker.is_some() {
        return match worker(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", args.workload.name());
                ExitCode::FAILURE
            }
        };
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    print_header(&args);
    let (measured, spans) = match coordinate(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for note in &measured.notes {
        println!("# {note}");
    }

    let phases = std::iter::once(&measured.untraced).chain(measured.traced.as_ref());
    let attempted: usize = phases.clone().map(|p| p.jobs.len()).sum();
    let failed: usize = phases
        .map(|p| p.jobs.iter().filter(|j| !j.ok).count())
        .sum();
    let e2e = end_to_end(&measured);
    print_metrics("end-to-end (tracing off)", &e2e);
    let reported = if args.trace {
        let span_count = spans.lines().count();
        let layer = per_layer(&measured, args.workload);
        print_metrics("per-layer (traced halves)", &layer);
        let path = args.spans.clone().unwrap_or_else(|| {
            Path::new(OUT_DIR).join(format!(
                "spans-{}-seed{}.jsonl",
                args.workload.name(),
                args.seed
            ))
        });
        if let Err(e) = std::fs::write(&path, &spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# spans: {} ({span_count} spans)", path.display());
        layer
    } else {
        e2e
    };
    let correct = failed == 0;
    println!("{}", result_json(correct, attempted, failed, &reported));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {failed} of {attempted} jobs failed or differed from sequential");
        ExitCode::FAILURE
    }
}
