//! The end-to-end metric registry, the result formats and `compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::stats::{self, Summary};
use crate::workloads::{Run, Workload};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what it is called, which way is better, by
/// what share of the reference median it may worsen, and which workloads
/// have the phase it times.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub on: &'static [Workload],
}

use Better::{Higher, Lower};
use Workload::{Booth, Lifecycle, RegdayDeploy};

const EVERY: &[Workload] = &Workload::ALL;

const fn def(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    on: &'static [Workload],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        on,
    }
}

/// Every end-to-end metric. A workload reports a metric only if it has
/// the phase; the four that every workload has are the ones
/// `BENCHMARK.json` lists as `end_to_end` (see [`is_uniform`]).
pub const METRICS: &[MetricDef] = &[
    def("setup_s", "s", Lower, 0.25, EVERY),
    def("reg_sessions_per_s", "sessions/s", Higher, 0.25, EVERY),
    def("voters_per_s", "voters/s", Higher, 0.25, EVERY),
    def("peak_rss_mb", "MiB", Lower, 0.25, EVERY),
    def("session_ms_p50", "ms", Lower, 0.25, &[Booth]),
    def("session_ms_p99", "ms", Lower, 0.25, &[Booth]),
    def("cast_ms_p50", "ms", Lower, 0.25, &[Booth]),
    def("cast_ms_p99", "ms", Lower, 0.25, &[Booth]),
    def(
        "cast_ballots_per_s",
        "ballots/s",
        Higher,
        0.25,
        &[Lifecycle],
    ),
    def(
        "tally_ballots_per_s",
        "ballots/s",
        Higher,
        0.25,
        &[Lifecycle],
    ),
    def(
        "verify_ballots_per_s",
        "ballots/s",
        Higher,
        0.25,
        &[Lifecycle],
    ),
    def("reopen_s", "s", Lower, 0.25, &[RegdayDeploy]),
    def(
        "disk_bytes_per_session",
        "bytes/session",
        Lower,
        0.01,
        &[RegdayDeploy],
    ),
];

/// Whether every workload reports `def`.
pub fn is_uniform(def: &MetricDef) -> bool {
    def.on.len() == Workload::ALL.len()
}

#[cfg(test)]
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// One reported value with the repetitions behind it.
#[derive(Clone, Debug)]
pub struct Reported {
    pub def: &'static MetricDef,
    /// In nominal time (see [`crate::host`]).
    pub value: f64,
    /// The same statistic of the wall-clock readings.
    pub wall: f64,
    /// Over the repetitions (rates) or the pooled samples (latencies).
    pub summary: Option<Summary>,
    /// The repetitions' values (none behind a pooled percentile or a
    /// single reading).
    pub reps: Vec<f64>,
}

/// The end-to-end metrics `run` reports: the median over its repetitions,
/// or a percentile of the pooled latency samples. A metric whose phase the
/// workload lacks, or whose percentile has fewer than ten samples beyond
/// it, is absent.
pub fn reported(run: &Run) -> Vec<Reported> {
    METRICS
        .iter()
        .filter(|def| def.on.contains(&run.workload))
        .filter_map(|def| {
            let pooled = |nominal: &[f64], wall: &[f64], p: f64| {
                Some(Reported {
                    def,
                    value: stats::percentile(nominal, p)?,
                    wall: stats::percentile(wall, p)?,
                    summary: Some(stats::summarize(nominal)),
                    reps: Vec::new(),
                })
            };
            match def.name {
                "peak_rss_mb" => Some(Reported {
                    def,
                    value: run.peak_rss_mb,
                    wall: run.peak_rss_mb,
                    summary: None,
                    reps: Vec::new(),
                }),
                "session_ms_p50" => pooled(&run.session_ms, &run.wall_session_ms, 50.0),
                "session_ms_p99" => pooled(&run.session_ms, &run.wall_session_ms, 99.0),
                "cast_ms_p50" => pooled(&run.cast_ms, &run.wall_cast_ms, 50.0),
                "cast_ms_p99" => pooled(&run.cast_ms, &run.wall_cast_ms, 99.0),
                name => {
                    let reps = run.samples.get(name)?;
                    Some(Reported {
                        def,
                        value: stats::median(reps),
                        wall: stats::median(run.wall_samples.get(name)?),
                        summary: Some(stats::summarize(reps)),
                        reps: reps.clone(),
                    })
                }
            }
        })
        .collect()
}

/// The table a person reads: every metric by name with unit, direction
/// and bound, then the value with quartiles, minimum and sample count.
pub fn human_table(run: &Run, metrics: &[Reported]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {} — {} voters x {} repetitions (after one discarded warm-up)",
        run.workload.name(),
        run.voters,
        run.reps
    );
    let _ = writeln!(
        out,
        "  {:<24} {:>12} {:<14} {:<7} {:>6}   {:>11} {:>11} {:>11} {:>6}   {:>11}",
        "metric", "value", "unit", "better", "bound", "q1", "q3", "min", "n", "wall clock"
    );
    for m in metrics {
        let (q1, q3, min, n) = m.summary.map_or(
            (
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "1".to_string(),
            ),
            |s| {
                (
                    fmt_short(s.q1),
                    fmt_short(s.q3),
                    fmt_short(s.min),
                    s.n.to_string(),
                )
            },
        );
        let _ = writeln!(
            out,
            "  {:<24} {:>12} {:<14} {:<7} {:>5.0}%   {:>11} {:>11} {:>11} {:>6}   {:>11}",
            m.def.name,
            fmt_short(m.value),
            m.def.unit,
            m.def.better.as_str(),
            m.def.bound * 100.0,
            q1,
            q3,
            min,
            n,
            fmt_short(m.wall)
        );
    }
    let ratio = run.gate.failed as f64 / run.gate.attempted.max(1) as f64;
    let _ = writeln!(
        out,
        "  {:<24} {:>12} {:<14} {:<7} {:>5.0}%   ({} failed of {} attempted)",
        "failed_ops_ratio",
        fmt_short(ratio),
        "ratio",
        "lower",
        0.0,
        run.gate.failed,
        run.gate.attempted
    );
    let _ = writeln!(
        out,
        "  host ran {:.2}x slower than nominal around this run's phases (median); values are nominal time, the last column is the wall clock",
        run.slowdown
    );
    if let Some(digest) = &run.heads_digest {
        let _ = writeln!(out, "  L_R/L_E heads digest: {digest}");
    }
    for failure in &run.gate.failures {
        let _ = writeln!(out, "  FAILED: {failure}");
    }
    out
}

/// A number for a table: six significant digits. (Result lines and files
/// carry every digit that was measured.)
pub fn fmt_short(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.decimals$}")
}

/// The one-line result the benchmark contract asks for.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::escape(name),
                number(*value),
                json::escape(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// JSON has no NaN or infinity; a value that is not a number is `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

// ---------------------------------------------------------------------
// Result files
// ---------------------------------------------------------------------

/// Facts about the run that are not measurements.
#[derive(Clone, Debug)]
pub struct Meta {
    pub seed: u64,
    pub scale: f64,
    pub seconds: f64,
    pub nproc: usize,
    pub loadavg: String,
    pub commit: String,
}

impl Meta {
    pub fn collect(seed: u64, scale: f64, seconds: f64) -> Meta {
        Meta {
            seed,
            scale,
            seconds,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            loadavg: std::fs::read_to_string("/proc/loadavg")
                .map(|s| s.trim().to_string())
                .unwrap_or_default(),
            commit: git_commit(),
        }
    }
}

/// The checked-out commit, read from `.git` without starting a process;
/// a source tree that is not a repository says so.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| head.clone()),
        None => head,
    }
}

/// One run as a JSON object for the result file.
pub fn run_json(meta: &Meta, run: &Run, metrics: &[Reported]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            let spread = m.summary.map_or(String::new(), |s| {
                format!(
                    ", \"q1\": {}, \"q3\": {}, \"min\": {}, \"n\": {}",
                    number(s.q1),
                    number(s.q3),
                    number(s.min),
                    s.n
                )
            });
            let reps = if m.reps.is_empty() {
                String::new()
            } else {
                let v: Vec<String> = m.reps.iter().map(|&x| number(x)).collect();
                format!(", \"reps\": [{}]", v.join(", "))
            };
            format!(
                "\"{}\": {{\"value\": {}, \"wall\": {}, \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}{spread}{reps}}}",
                m.def.name,
                number(m.value),
                number(m.wall),
                m.def.unit,
                m.def.better.as_str(),
                m.def.bound
            )
        })
        .collect();
    let digest = run
        .heads_digest
        .as_ref()
        .map_or("null".to_string(), |d| format!("\"{d}\""));
    format!(
        "{{\"workload\": \"{}\", \"claim\": null, \"meta\": {{\"seed\": {}, \"reps\": {}, \"voters\": {}, \"scale\": {}, \"seconds\": {}, \"nproc\": {}, \"loadavg\": \"{}\", \"commit\": \"{}\", \"host_slowdown\": {}}}, \"attempted\": {}, \"failed\": {}, \"heads_digest\": {digest}, \"metrics\": {{{}}}}}",
        run.workload.name(),
        meta.seed,
        run.reps,
        run.voters,
        meta.scale,
        meta.seconds,
        meta.nproc,
        json::escape(&meta.loadavg),
        json::escape(&meta.commit),
        number(run.slowdown),
        run.gate.attempted,
        run.gate.failed,
        metrics.join(", ")
    )
}

/// Appends `run` to the result file at `path` (a `{"runs": [...]}`
/// document), creating it if needed.
pub fn append_run(path: &str, run: &str) -> Result<(), String> {
    let mut runs: Vec<String> = match std::fs::read_to_string(path) {
        Ok(text) => split_runs(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{path}: {e}")),
    };
    runs.push(run.to_string());
    let doc = format!("{{\"runs\": [\n{}\n]}}\n", runs.join(",\n"));
    std::fs::write(path, doc).map_err(|e| format!("{path}: {e}"))
}

/// The run objects of a result file, one per line as `append_run` wrote
/// them, after checking the file parses.
fn split_runs(text: &str) -> Result<Vec<String>, String> {
    json::parse(text)?;
    Ok(text
        .lines()
        .map(|l| l.trim().trim_end_matches(',').to_string())
        .filter(|l| l.starts_with("{\"workload\""))
        .collect())
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot show a change of that size.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a` the value `b` is worse (negative when better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Judges set `b` against reference set `a`. In A/A mode both sets come
/// from one commit, so a shift in either direction beyond the bound is a
/// disagreement.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64], aa: bool) -> (f64, f64, Verdict) {
    let (sa, sb) = (stats::summarize(a), stats::summarize(b));
    let worse = worse_by(def.better, sa.median, sb.median);
    let shift = if aa { worse.abs() } else { worse };
    let verdict = if sa.spread().max(sb.spread()) > def.bound {
        Verdict::Unresolved
    } else if shift > def.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (sa.median, sb.median, verdict)
}

/// `(workload, metric) -> values` of one result file: one value per run
/// of the set, or, when the file holds a single run of a workload, that
/// run's repetitions.
type ValueSets = BTreeMap<(String, String), Vec<f64>>;

/// `seed -> head digests` of the registration-day runs of a result file.
type Digests = BTreeMap<u64, Vec<String>>;

fn value_sets(doc: &Value) -> Result<(ValueSets, Digests), String> {
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("result file has no \"runs\" array")?;
    let mut per_run: ValueSets = BTreeMap::new();
    let mut reps: ValueSets = BTreeMap::new();
    let mut digests = Digests::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run without a workload")?;
        let seed = run
            .get("meta")
            .and_then(|m| m.get("seed"))
            .and_then(Value::as_f64);
        if let (Some(d), Some(seed)) = (run.get("heads_digest").and_then(Value::as_str), seed) {
            digests.entry(seed as u64).or_default().push(d.to_string());
        }
        let metrics = run
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("run without metrics")?;
        for (name, m) in metrics {
            let key = (workload.to_string(), name.clone());
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                per_run.entry(key.clone()).or_default().push(v);
            }
            if let Some(r) = m.get("reps").and_then(Value::as_array) {
                reps.insert(key, r.iter().filter_map(Value::as_f64).collect());
            }
        }
    }
    for (key, values) in per_run.iter_mut() {
        if values.len() == 1 {
            if let Some(r) = reps.get(key).filter(|r| r.len() > 1) {
                *values = r.clone();
            }
        }
    }
    Ok((per_run, digests))
}

/// Compares two result files; returns the report and whether every row
/// is `ok` and every head digest agrees.
pub fn compare(a_text: &str, b_text: &str, aa: bool) -> Result<(String, bool), String> {
    let (a, a_digests) = value_sets(&json::parse(a_text)?)?;
    let (b, b_digests) = value_sets(&json::parse(b_text)?)?;
    let mut out = String::new();
    let mut all_ok = true;
    let _ = writeln!(
        out,
        "{:<14} {:<24} {:>14} {:>14} {:>8} {:>6}  {}",
        "workload",
        "metric",
        "median a",
        "median b",
        "b/a",
        "bound",
        if aa { "verdict (A/A)" } else { "verdict" }
    );
    for w in Workload::ALL {
        for def in METRICS.iter().filter(|d| d.on.contains(&w)) {
            let key = (w.name().to_string(), def.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (ma, mb, verdict) = judge(def, va, vb, aa);
            all_ok &= verdict == Verdict::Ok;
            let _ = writeln!(
                out,
                "{:<14} {:<24} {:>14} {:>14} {:>8.4} {:>5.0}%  {}",
                w.name(),
                def.name,
                fmt_short(ma),
                fmt_short(mb),
                mb / ma,
                def.bound * 100.0,
                verdict.as_str()
            );
        }
    }
    // Same seed, same queue: the in-memory and the deployed day must have
    // reached the same heads, whichever file a run is in.
    let mut by_seed = a_digests;
    for (seed, digests) in b_digests {
        by_seed.entry(seed).or_default().extend(digests);
    }
    if !by_seed.is_empty() {
        let split: Vec<u64> = by_seed
            .iter()
            .filter(|(_, d)| d.iter().any(|x| x != &d[0]))
            .map(|(&seed, _)| seed)
            .collect();
        all_ok &= split.is_empty();
        let _ = writeln!(
            out,
            "regday_mem / regday_deploy head digests: {}",
            if split.is_empty() {
                format!("identical for each of {} seeds", by_seed.len())
            } else {
                format!("DIFFERENT for seeds {split:?}")
            }
        );
    }
    Ok((out, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(METRICS.len() <= 16);
        for m in METRICS {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{}", m.unit);
            assert!(m.bound <= 0.25);
        }
        assert!(METRICS
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        for w in Workload::ALL {
            assert!(ok_name(w.name()));
        }
    }

    #[test]
    fn judge_separates_ok_regressed_and_unresolved() {
        let def = metric("reg_sessions_per_s").unwrap();
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [70.0, 71.0, 69.0, 70.5, 69.5];
        let faster = [140.0, 141.0, 139.0, 140.5, 139.5];
        let noisy = [100.0, 160.0, 60.0, 130.0, 80.0];
        assert_eq!(judge(def, &a, &a, false).2, Verdict::Ok);
        assert_eq!(judge(def, &a, &slower, false).2, Verdict::Regressed);
        // A gain is not a regression, but two sets of one commit that far
        // apart do not agree.
        assert_eq!(judge(def, &a, &faster, false).2, Verdict::Ok);
        assert_eq!(judge(def, &a, &faster, true).2, Verdict::Regressed);
        assert_eq!(judge(def, &a, &noisy, false).2, Verdict::Unresolved);
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(Better::Lower, 10.0, 12.0) - 0.2).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 12.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn contract_line_is_json_with_exactly_the_four_keys() {
        let line = contract_line(
            true,
            10,
            0,
            &[("setup_s".into(), 0.25, "s"), ("x".into(), f64::NAN, "ms")],
        );
        let v = json::parse(&line).unwrap();
        let keys: Vec<_> = v.as_object().unwrap().keys().cloned().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.25)
        );
        assert_eq!(
            v.get("metrics").unwrap().get("x").unwrap().get("value"),
            Some(&Value::Null)
        );
    }

    #[test]
    fn compare_reads_sets_and_single_runs() {
        let run = |value: f64, reps: &str| {
            format!(
                "{{\"workload\": \"regday_mem\", \"meta\": {{\"seed\": 4}}, \"heads_digest\": \"ab\", \"metrics\": {{\"reg_sessions_per_s\": {{\"value\": {value}, \"reps\": [{reps}]}}}}}}"
            )
        };
        let file = |runs: &[String]| format!("{{\"runs\": [\n{}\n]}}\n", runs.join(",\n"));
        // Single runs: the repetitions are the distribution.
        let a = file(&[run(100.0, "99, 100, 101")]);
        let b = file(&[run(60.0, "59, 60, 61")]);
        let (text, ok) = compare(&a, &b, false).unwrap();
        assert!(
            !ok && text.contains("regressed") && text.contains("identical"),
            "{text}"
        );
        // Sets of runs: the runs' values are.
        let set = file(&[run(100.0, "1, 2"), run(101.0, "1, 2"), run(99.0, "1, 2")]);
        let (text, ok) = compare(&set, &set, true).unwrap();
        assert!(ok, "{text}");
        assert_eq!(split_runs(&set).unwrap().len(), 3);
    }
}
