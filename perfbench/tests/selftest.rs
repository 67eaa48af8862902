//! Self-test of the benchmark at a tiny size (`--size tiny`): every
//! metric `BENCHMARK.json` names is reported with its unit, a corrupted
//! expected verdict fails the run, and a second seed draws different
//! inputs that still pass.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;
use verifas::core::Json;

const WORKLOADS: [&str; 3] = ["paper-real", "lattice-deep", "serve-edit-loop"];

struct Run {
    code: i32,
    stdout: String,
    result: Json,
}

fn run(workload: &str, seed: u64, trace: bool, expected: Option<&Path>) -> Run {
    let mut command = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    command.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        "1",
        "--trace",
        if trace { "1" } else { "0" },
        "--size",
        "tiny",
    ]);
    if let Some(path) = expected {
        command.arg("--expected").arg(path);
    }
    let output = command.output().expect("the benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_owned();
    let result = Json::parse(&last)
        .unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"));
    Run {
        code: output.status.code().unwrap_or(-1),
        stdout,
        result,
    }
}

/// `(name, unit)` of every metric of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("string").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn count(run: &Run, key: &str) -> u64 {
    run.result.get(key).and_then(Json::as_u64).expect(key)
}

fn draw(run: &Run) -> String {
    let header = run.stdout.lines().next().unwrap_or_default();
    let rest = header
        .split("input draw ")
        .nth(1)
        .expect("header names the draw");
    rest.split_whitespace()
        .next()
        .unwrap_or_default()
        .to_owned()
}

#[test]
fn every_declared_metric_is_reported_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let declared = declared(section);
        for workload in WORKLOADS {
            let run = run(workload, 1, trace, None);
            assert_eq!(
                run.code, 0,
                "{workload} trace={trace} failed:\n{}",
                run.stdout
            );
            assert_eq!(
                run.result.get("correct").and_then(Json::as_bool),
                Some(true)
            );
            assert!(count(&run, "attempted") >= 1);
            assert_eq!(count(&run, "failed"), 0);
            let Some(Json::Obj(metrics)) = run.result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let reported: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
                    assert!(
                        matches!(m.get("value"), Some(Json::Num(v)) if v.is_finite()),
                        "{workload}: {name} has no numeric value"
                    );
                    (name.clone(), unit.to_owned())
                })
                .collect();
            assert_eq!(reported, declared, "{workload} trace={trace}");
        }
    }
}

/// A copy of a pin file with every satisfied/violated verdict swapped.
fn corrupted_pin(workload: &str) -> PathBuf {
    let source = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{workload}.tsv"));
    let text = std::fs::read_to_string(source).expect("pin is readable");
    let swapped = text
        .replace("\"outcome\":\"satisfied\"", "\"outcome\":\"SWAP\"")
        .replace("\"outcome\":\"violated\"", "\"outcome\":\"satisfied\"")
        .replace("\"outcome\":\"SWAP\"", "\"outcome\":\"violated\"");
    assert_ne!(swapped, text, "{workload}: nothing to corrupt");
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("corrupt-{workload}.tsv"));
    std::fs::write(&path, swapped).expect("temp dir is writable");
    path
}

#[test]
fn a_corrupted_expected_verdict_fails_the_run() {
    for workload in ["paper-real", "serve-edit-loop"] {
        let path = corrupted_pin(workload);
        let run = run(workload, 1, false, Some(&path));
        assert_ne!(run.code, 0, "{workload}: a corrupted pin must fail the run");
        assert!(
            count(&run, "failed") > 0,
            "{workload}: failed must count the mismatches"
        );
        assert_eq!(
            run.result.get("correct").and_then(Json::as_bool),
            Some(false)
        );
        let header = run.stdout.lines().next().unwrap_or_default();
        let failed_frac: f64 = header
            .rsplit("failed_frac ")
            .next()
            .and_then(|v| v.trim().parse().ok())
            .expect("header carries failed_frac");
        assert!(failed_frac > 0.0, "{workload}: failed_frac {failed_frac}");
    }
}

#[test]
fn another_seed_draws_different_inputs_that_still_pass() {
    for workload in WORKLOADS {
        let first = run(workload, 1, false, None);
        let second = run(workload, 2, false, None);
        let again = run(workload, 1, false, None);
        for r in [&first, &second, &again] {
            assert_eq!(r.code, 0, "{workload}:\n{}", r.stdout);
            assert_eq!(count(r, "failed"), 0);
        }
        assert_ne!(
            draw(&first),
            draw(&second),
            "{workload}: seeds 1 and 2 drew the same inputs"
        );
        assert_eq!(
            draw(&first),
            draw(&again),
            "{workload}: seed 1 is not reproducible"
        );
    }
}
