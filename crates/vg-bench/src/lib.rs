//! Benchmark harness utilities: plain-text table rendering and
//! `--flag value` parsing for the figure binaries (`fig4`, `fig5a`,
//! `fig5b`, `usability`, `ivbound`, `coercion`, `ablations`), which
//! regenerate the rows and series of the paper's evaluation section (see
//! `DESIGN.md` §3 for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured records). They and the four criterion benches are
//! reproduction artefacts; the performance gate is `bench/gate.sh` over
//! `bench/e2e`.
//!
//! This crate forbids `unsafe` code (`#![forbid(unsafe_code)]`): the
//! whole workspace is safe Rust, locked in by the `vg-lint` analyzer's
//! `forbid-unsafe` rule.

#![forbid(unsafe_code)]

/// Renders a fixed-width table to stdout.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    println!("+{line}+");
    let head: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!(" {:<width$} ", h, width = widths[i]))
        .collect();
    println!("|{}|", head.join("|"));
    println!("+{line}+");
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!(" {:>width$} ", c, width = widths[i]))
            .collect();
        println!("|{}|", cells.join("|"));
    }
    println!("+{line}+");
}

/// Formats milliseconds into a human unit (ms / s / min / h / d / y).
pub fn human_time(ms: f64) -> String {
    if ms < 1.0 {
        format!("{:.3} ms", ms)
    } else if ms < 1_000.0 {
        format!("{:.1} ms", ms)
    } else if ms < 60_000.0 {
        format!("{:.2} s", ms / 1e3)
    } else if ms < 3_600_000.0 {
        format!("{:.1} min", ms / 6e4)
    } else if ms < 86_400_000.0 {
        format!("{:.1} h", ms / 3.6e6)
    } else if ms < 31_536_000_000.0 {
        format!("{:.1} d", ms / 8.64e7)
    } else {
        format!("{:.1} y", ms / 3.1536e10)
    }
}

/// The value of `--flag value` in `args`: `default` when the flag is
/// absent, an error naming the flag when its value is missing or is not
/// a number.
pub fn parse_usize(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(default);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{name} needs a number"))?;
    value
        .parse()
        .map_err(|e| format!("{name} takes a number, not `{value}`: {e}"))
}

/// [`parse_usize`] over the process arguments; a bad value ends the
/// process with status 2 instead of running the default.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    parse_usize(&args, name, default).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Returns `true` if `--flag` is present.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_time_units() {
        assert!(human_time(0.5).ends_with("ms"));
        assert!(human_time(1500.0).ends_with("s"));
        assert!(human_time(120_000.0).ends_with("min"));
        assert!(human_time(7.2e6).ends_with("h"));
        assert!(human_time(1e12).ends_with("y"));
    }

    #[test]
    fn parse_usize_defaults_only_when_the_flag_is_absent() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_usize(&args(&["bin"]), "--cap", 200), Ok(200));
        assert_eq!(
            parse_usize(&args(&["bin", "--cap", "7"]), "--cap", 200),
            Ok(7)
        );
        let garbage = parse_usize(&args(&["bin", "--cap", "1e6"]), "--cap", 200);
        assert!(garbage.is_err_and(|e| e.contains("--cap") && e.contains("1e6")));
        let missing = parse_usize(&args(&["bin", "--cap"]), "--cap", 200);
        assert!(missing.is_err_and(|e| e.contains("--cap")));
    }
}
