//! `e2e`: the lifecycle benchmark of the votegral workspace.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run; last line is the result
//! e2e [--seed <n>] [--seconds <s>]                               all four workloads, one table each
//! e2e trace --workload <name> --out <file.jsonl>                 traced run, spans written out
//! e2e layers                                                     the per-layer probes alone
//! e2e host [--seconds <s>]                                       how steady this machine is right now
//! e2e list                                                       every metric with unit, direction, bound
//! e2e manifest                                                   the repository's BENCHMARK.json
//! e2e compare [--aa] <a.json> <b.json>                           two result files (written with --json)
//! ```
//!
//! `--scale <x>` and `--reps <n>` size a run (in a traced run `--reps` is
//! the number of opaque-call/re-enactment pairs behind the coverages); no
//! flag or environment variable changes what the program under test does.

#![forbid(unsafe_code)]

mod adapter;
mod host;
mod json;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use report::Meta;
use trace::Tracer;
use workloads::{RunOpts, Workload};

struct Args {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    reps: Option<usize>,
    json: Option<String>,
    out: Option<String>,
    aa: bool,
    files: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: "run".into(),
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        scale: 1.0,
        reps: None,
        json: None,
        out: None,
        aa: false,
        files: Vec::new(),
    };
    let mut argv = std::env::args().skip(1).peekable();
    if let Some(first) = argv.peek() {
        if !first.starts_with("--") {
            args.command = argv.next().unwrap_or_default();
        }
    }
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--scale" => {
                args.scale = value("a number")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--reps" => {
                args.reps = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--reps: {e}"))?,
                )
            }
            "--json" => args.json = Some(value("a path")?),
            "--out" => args.out = Some(value("a path")?),
            "--aa" => args.aa = true,
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            _ => args.files.push(flag),
        }
    }
    if !(args.scale > 0.0 && args.seconds > 0.0) {
        return Err("--scale and --seconds must be positive".into());
    }
    Ok(args)
}

/// One untraced run of `w`: the table, the optional result file, and the
/// contract's result line when this is the only workload of the process.
fn end_to_end(args: &Args, w: Workload, contract: bool) -> Result<bool, String> {
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        reps: args.reps,
        scale: args.scale,
    };
    let meta = Meta::collect(args.seed, args.scale, args.seconds);
    let run = workloads::run(&mut Tracer::off(), w, opts);
    let metrics = report::reported(&run);
    print!("{}", report::human_table(&run, &metrics));
    if let Some(path) = &args.json {
        report::append_run(path, &report::run_json(&meta, &run, &metrics))?;
    }
    let correct = run.gate.failed == 0;
    if contract {
        let uniform: Vec<(String, f64, &str)> = metrics
            .iter()
            .filter(|m| report::is_uniform(m.def))
            .map(|m| (m.def.name.to_string(), m.value, m.def.unit))
            .collect();
        println!(
            "{}",
            report::contract_line(correct, run.gate.attempted, run.gate.failed, &uniform)
        );
    }
    Ok(correct)
}

/// The traced run: per-layer metrics, and the span file when asked for.
fn traced(args: &Args, w: Workload, contract: bool) -> Result<bool, String> {
    let pairs = args.reps.unwrap_or(layers::COVERAGE_PAIRS);
    let suite = layers::run_suite(w, args.seed, args.seconds, args.scale, pairs);
    print!("{}", layers::human_table(&suite.metrics));
    if let Some(path) = &args.out {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        let mut file = std::io::BufWriter::new(file);
        suite
            .tracer
            .write_jsonl(&mut file)
            .map_err(|e| format!("{path}: {e}"))?;
        std::io::Write::flush(&mut file).map_err(|e| format!("{path}: {e}"))?;
        println!("{} spans written to {path}", suite.tracer.spans().len());
    }
    for failure in &suite.gate.failures {
        println!("  FAILED: {failure}");
    }
    let correct = suite.gate.failed == 0;
    if contract {
        let metrics: Vec<(String, f64, &str)> = suite
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.value, m.unit))
            .collect();
        println!(
            "{}",
            report::contract_line(correct, suite.gate.attempted, suite.gate.failed, &metrics)
        );
    }
    Ok(correct)
}

/// Reads the reference kernel for `seconds` and prints its spread: how
/// far this host is from nominal, and how much it wanders.
fn host_report(seconds: f64) {
    let start = std::time::Instant::now();
    let mut windows = Vec::new();
    let mut all = Vec::new();
    while start.elapsed().as_secs_f64() < seconds {
        let window = host::burst(100);
        windows.push(stats::median(&window));
        all.extend(window);
    }
    let s = stats::summarize(&all);
    println!(
        "reference kernel, {} readings: min {} ms, q1 {}, median {}, q3 {}, max {} (nominal {} ms)",
        s.n,
        report::fmt_short(s.min),
        report::fmt_short(s.q1),
        report::fmt_short(s.median),
        report::fmt_short(s.q3),
        report::fmt_short(s.max),
        host::NOMINAL_MS
    );
    let w = stats::summarize(&windows);
    println!(
        "medians of {} windows of 100 readings: min {} ms, median {}, max {} — the host's speed wandered {:.0}% over {:.0} s",
        w.n,
        report::fmt_short(w.min),
        report::fmt_short(w.median),
        report::fmt_short(w.max),
        (w.max / w.min - 1.0) * 100.0,
        seconds
    );
}

fn list() {
    println!("end-to-end metrics (`uniform` ones are BENCHMARK.json's end_to_end):");
    for m in report::METRICS {
        let on: Vec<&str> = m.on.iter().map(|w| w.name()).collect();
        println!(
            "  {:<24} {:<14} better={:<6} bound={:>3.0}%  {}  on {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            if report::is_uniform(m) {
                "uniform"
            } else {
                "       "
            },
            on.join(", ")
        );
    }
    println!(
        "  {:<24} {:<14} better=lower  bound=  0%  uniform  (the result's attempted/failed)",
        "failed_ops_ratio", "ratio"
    );
    println!("per-layer metrics:");
    for m in layers::METRICS {
        println!(
            "  {:<48} {:<14} better={}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    println!("workloads:");
    for w in Workload::ALL {
        println!("  {:<14} {}", w.name(), w.why());
    }
}

/// Seconds one run measures when the driver of `BENCHMARK.json` calls.
const RUN_SECONDS: u32 = 20;

/// `BENCHMARK.json`, from the registries the binary reports with, so the
/// two cannot drift apart (a test compares the committed file to this).
fn manifest() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                json::escape(w.why())
            )
        })
        .collect();
    let end_to_end: Vec<String> = report::METRICS
        .iter()
        .filter(|m| report::is_uniform(m))
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = layers::METRICS
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"bench/e2e/Cargo.toml\", \"--\"],\n  \"paths\": [\"bench/e2e\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

fn compare(args: &Args) -> Result<bool, String> {
    let [a, b] = args.files.as_slice() else {
        return Err("compare takes two result files".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (text, ok) = report::compare(&read(a)?, &read(b)?, args.aa)?;
    print!("{text}");
    Ok(ok)
}

fn dispatch(args: &Args) -> Result<bool, String> {
    match (args.command.as_str(), args.workload) {
        ("run", Some(w)) if args.trace => traced(args, w, true),
        ("run", Some(w)) => end_to_end(args, w, true),
        ("run", None) => {
            let mut ok = true;
            for w in Workload::ALL {
                // One process serves all four here, so start each
                // workload's peak-RSS reading afresh where the kernel
                // allows it.
                let _ = std::fs::write("/proc/self/clear_refs", "5");
                ok &= end_to_end(args, w, false)?;
            }
            Ok(ok)
        }
        ("trace", Some(w)) => traced(args, w, false),
        ("trace", None) => Err("trace needs --workload".into()),
        ("layers", _) => {
            let metrics = layers::run_probes(args.seed, args.seconds, args.scale);
            print!("{}", layers::human_table(&metrics));
            Ok(true)
        }
        ("host", _) => {
            host_report(args.seconds);
            Ok(true)
        }
        ("list", _) => {
            list();
            Ok(true)
        }
        ("manifest", _) => {
            print!("{}", manifest());
            Ok(true)
        }
        ("compare", _) => compare(args),
        (other, _) => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| dispatch(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}
