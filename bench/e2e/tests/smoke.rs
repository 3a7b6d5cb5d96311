//! Drives the built `e2e` binary the way the benchmark contract does, at
//! a fiftieth of the size, with the correctness gate on.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["lifecycle", "regday_mem", "regday_deploy", "booth"];

fn e2e(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(args)
        .output()
        .expect("the e2e binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (out.status.success(), stdout)
}

/// `"name": {"value": <number>, "unit": "<unit>"}` pairs of a result line.
/// (The binary's own JSON reader is tested where it lives; this one only
/// has to split the fixed shape the contract prescribes.)
fn metrics_of(line: &str) -> BTreeMap<String, (f64, String)> {
    let body = line
        .split_once("\"metrics\": {")
        .expect("a metrics object")
        .1;
    let mut out = BTreeMap::new();
    for entry in body.trim_end_matches('}').split("}, ") {
        let (name, rest) = entry.split_once("\": {\"value\": ").expect("a value");
        let (value, unit) = rest.split_once(", \"unit\": \"").expect("a unit");
        out.insert(
            name.trim_start_matches('"').to_string(),
            (
                value.parse().unwrap_or(f64::NAN),
                unit.trim_end_matches(['"', '}']).to_string(),
            ),
        );
    }
    out
}

/// `"name": "<x>", "unit": "<y>"` pairs of one array of the manifest.
fn declared(manifest: &str, section: &str) -> BTreeMap<String, String> {
    let body = manifest
        .split_once(&format!("\"{section}\": ["))
        .expect("the section")
        .1;
    let body = body.split_once(']').expect("the section's end").0;
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let (name, rest) = entry.split_once('"').expect("a name");
            let unit = rest
                .split_once("\"unit\": \"")
                .map_or("", |(_, u)| u.split('"').next().unwrap_or(""));
            (name.to_string(), unit.to_string())
        })
        .collect()
}

fn result_line(stdout: &str) -> &str {
    let line = stdout.lines().last().expect("some output");
    assert!(
        line.starts_with("{\"correct\": "),
        "last line is not a result: {line}"
    );
    line
}

#[test]
fn benchmark_json_is_what_the_binary_declares() {
    let (ok, manifest) = e2e(&["manifest"]);
    assert!(ok);
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed, manifest,
        "regenerate it: e2e manifest > BENCHMARK.json"
    );
    assert!(manifest.len() <= 64 * 1024);
    assert_eq!(declared(&manifest, "workloads").len(), 4);
    let e2e_metrics = declared(&manifest, "end_to_end");
    assert!(!e2e_metrics.is_empty() && e2e_metrics.len() <= 16);
    assert_eq!(e2e_metrics.get("setup_s").map(String::as_str), Some("s"));
    assert!(declared(&manifest, "per_layer").len() <= 128);
}

#[test]
fn every_workload_runs_correct_and_prints_the_declared_metrics() {
    let manifest = e2e(&["manifest"]).1;
    let declared = declared(&manifest, "end_to_end");
    let mut digests = BTreeMap::new();
    for w in WORKLOADS {
        let (ok, stdout) = e2e(&[
            "--workload",
            w,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--scale",
            "0.02",
            "--reps",
            "1",
        ]);
        assert!(ok, "{w} failed:\n{stdout}");
        let line = result_line(&stdout);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0, "), "{line}");
        let printed = metrics_of(line);
        let names: Vec<_> = printed.keys().collect();
        assert_eq!(names, declared.keys().collect::<Vec<_>>(), "{w}");
        for (name, (value, unit)) in &printed {
            assert_eq!(unit, &declared[name], "{w} {name}");
            assert!(value.is_finite() && *value > 0.0, "{w} {name} = {value}");
        }
        if let Some(digest) = stdout
            .lines()
            .find_map(|l| l.trim().strip_prefix("L_R/L_E heads digest: "))
        {
            digests.insert(w, digest.to_string());
        }
    }
    // Same seed, same queue: memory and deployment agree bit for bit.
    assert_eq!(digests.len(), 2);
    assert_eq!(digests["regday_mem"], digests["regday_deploy"]);
}

#[test]
fn traced_run_prints_every_layer_metric_and_writes_its_spans() {
    let manifest = e2e(&["manifest"]).1;
    let declared = declared(&manifest, "per_layer");
    let spans = format!("{}/smoke-spans.jsonl", env!("CARGO_TARGET_TMPDIR"));
    let (ok, stdout) = e2e(&[
        "--workload",
        "lifecycle",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--scale",
        "0.02",
        "--out",
        &spans,
    ]);
    assert!(ok, "traced run failed:\n{stdout}");
    let line = result_line(&stdout);
    assert!(line.starts_with("{\"correct\": true, "), "{line}");
    let printed = metrics_of(line);
    assert_eq!(
        printed.keys().collect::<Vec<_>>(),
        declared.keys().collect::<Vec<_>>()
    );
    for (name, (value, unit)) in &printed {
        assert_eq!(unit, &declared[name], "{name}");
        assert!(value.is_finite(), "{name} has no value");
    }
    let text = std::fs::read_to_string(&spans).expect("the span file");
    assert!(text.lines().count() > 100);
    for needle in [
        "\"name\": \"phase.tally\"",
        "\"name\": \"reenact.tally\"",
        "\"name\": \"vg-shuffle.mixnet.mix_pairs\"",
        "\"name\": \"vg-trip.pool.derive\"",
    ] {
        assert!(text.contains(needle), "no span {needle}");
    }
    let _ = std::fs::remove_file(&spans);
}

#[test]
fn layers_alone_and_the_listing_run() {
    let (ok, stdout) = e2e(&["layers", "--seconds", "1", "--scale", "0.02"]);
    assert!(
        ok && stdout.contains("vg-crypto.field.mul_ns")
            && stdout.contains("vg-service.day.wal_records_per_session"),
        "{stdout}"
    );
    let (ok, stdout) = e2e(&["list"]);
    assert!(
        ok && stdout.contains("session_ms_p99") && stdout.contains("failed_ops_ratio"),
        "{stdout}"
    );
}

#[test]
fn compare_judges_result_files() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let (a, b) = (format!("{dir}/smoke-a.json"), format!("{dir}/smoke-b.json"));
    for path in [&a, &b] {
        let _ = std::fs::remove_file(path);
        let (ok, stdout) = e2e(&[
            "--workload",
            "regday_mem",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--scale",
            "0.02",
            "--reps",
            "3",
            "--json",
            path,
        ]);
        assert!(ok, "{stdout}");
    }
    let (_, report) = e2e(&["compare", "--aa", &a, &b]);
    assert!(
        report.contains("reg_sessions_per_s")
            && report.contains("head digests: identical for each of 1 seeds"),
        "{report}"
    );
    let (ok, _) = e2e(&["compare", &a]);
    assert!(!ok, "compare needs two files");
    for path in [&a, &b] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn a_bad_command_line_fails_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["frobnicate"],
        &["--seconds", "0"],
    ] {
        let (ok, stdout) = e2e(args);
        assert!(!ok && !stdout.contains("\"correct\""), "{args:?}: {stdout}");
    }
}
