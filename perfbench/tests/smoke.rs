//! Smoke test: every workload, at a tiny size, completes with no failed
//! job and prints every metric `BENCHMARK.json` names — end-to-end
//! metrics untraced, per-layer metrics traced — so the benchmark cannot
//! rot between changes to the repository.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// The metric names listed under `section` in `BENCHMARK.json`.
fn metric_names(section: &str) -> Vec<String> {
    let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = spec
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section is a JSON array")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = &rest[rest.find('"').expect("name value") + 1..];
            value[..value.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> (String, String) {
    let spans = repo_root().join(format!("perfbench/out/smoke-{workload}-{trace}.jsonl"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.4"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .arg("--spans")
        .arg(&spans)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let spans_text = if trace == 1 {
        let text = std::fs::read_to_string(&spans).expect("spans file written");
        let _ = std::fs::remove_file(&spans);
        text
    } else {
        String::new()
    };
    (stdout, spans_text)
}

fn check(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let (stdout, spans) = run(workload, trace);
        let last = stdout.lines().last().expect("some output");
        assert!(
            last.starts_with("{\"correct\": true,"),
            "{workload}: {last}"
        );
        assert!(last.contains("\"failed\": 0,"), "{workload}: {last}");
        for name in metric_names(section) {
            assert!(
                last.contains(&format!("\"{name}\": {{\"value\": ")),
                "{workload} --trace {trace} lacks {name}: {last}"
            );
            assert!(
                stdout.lines().any(|l| l.starts_with(&format!("{name} "))),
                "{workload} --trace {trace} does not print {name} with its unit"
            );
        }
        assert!(stdout.contains("# host_cores="), "no host header");
        if trace == 1 {
            let job_span = if workload == "serve-journal" {
                "\"name\":\"serve.stream\""
            } else {
                "\"name\":\"core.run\""
            };
            assert!(spans.contains(job_span), "{workload}: no {job_span} span");
            assert!(
                spans.contains("\"name\":\"verify.seq\""),
                "{workload}: no verify.seq span"
            );
        }
    }
}

#[test]
fn spec_bulk_smoke() {
    check("spec-bulk");
}

#[test]
fn spec_window_smoke() {
    check("spec-window");
}

#[test]
fn doacross_pipeline_smoke() {
    check("doacross-pipeline");
}

#[test]
fn serve_journal_smoke() {
    check("serve-journal");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            "no-such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark binary");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
