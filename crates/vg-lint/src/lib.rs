//! # vg-lint — the workspace invariant analyzer
//!
//! An offline, dependency-free static analyzer that enforces the
//! project's security and robustness invariants over the whole
//! workspace, run as `cargo run -p vg-lint` locally and as the
//! `static-analysis` CI job. The container ships no AST crates (`syn`
//! is unavailable offline), so the analyzer is a hand-rolled
//! token/line-level scanner — see [`lex`] — which is sufficient for
//! every rule below and keeps the tool runnable anywhere the workspace
//! builds.
//!
//! This crate forbids `unsafe` code (`#![forbid(unsafe_code)]`): the
//! whole workspace is safe Rust, locked in by the analyzer's own
//! `forbid-unsafe` rule.
//!
//! ## Rules
//!
//! | rule | invariant |
//! |------|-----------|
//! | `secret-debug` | secret-bearing types have a manual redacted `Debug`, and no derived `Debug`/`Serialize`/`Display` |
//! | `ct-compare` | no `==`/`!=` on MAC tags / secret material outside `vg_crypto::ct` |
//! | `panic-path` | no `unwrap`/`expect`/panicking macros/literal indexing in request-serving paths |
//! | `lock-unwrap` | no bare `.lock().unwrap()`; acquire via `vg_crypto::sync::lock_recover` |
//! | `nondeterminism` | no wall clocks or OS entropy in seeded deterministic modules |
//! | `wire-tags` | protocol tag registries are collision-free, encode==decode, handshake range disjoint |
//! | `test-scope` | no `#[test]` functions outside `#[cfg(test)]` modules |
//! | `forbid-unsafe` | every crate root carries `#![forbid(unsafe_code)]` |
//!
//! ## Allowlisting
//!
//! A violation is suppressed by a justified directive on the same line
//! or the line directly above:
//!
//! ```text
//! // vg-lint: allow(ct-compare) symbol tags are public wire discriminants
//! .find(|s| s.tag() == tag)
//! ```
//!
//! The justification is mandatory, and a directive that suppresses
//! nothing is itself reported — allowlists cannot rot silently. Neither
//! can the path lists that scope the rules: an entry of
//! [`Config::server_paths`], [`Config::det_paths`] or an `*_exempt` list
//! that matches no scanned file is a hygiene finding too
//! ([`stale_config_paths`]).
//!
//! The analyzer skips `#[cfg(test)]` modules, `tests/`, `benches/`, the
//! dev shims, and its own source tree (whose rule tables and fixtures
//! necessarily spell out the forbidden patterns).

#![forbid(unsafe_code)]

pub mod lex;
pub mod rules;

use std::path::{Path, PathBuf};

/// One rule violation (or allowlist-hygiene finding).
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule name (`ct-compare`, `panic-path`, …, `allowlist`, or `config`
    /// for a path list entry that matches nothing).
    pub rule: &'static str,
    /// Workspace-relative file.
    pub file: PathBuf,
    /// 1-based line (0 for whole-project findings).
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// Allowlist-hygiene finding (unused / unjustified directive):
    /// denied only under `--deny-all`.
    pub hygiene: bool,
}

impl Violation {
    fn new(rule: &'static str, file: &Path, line: usize, message: String) -> Self {
        Self {
            rule,
            file: file.to_path_buf(),
            line,
            message,
            hygiene: false,
        }
    }

    /// `file:line rule: message` — one line per finding.
    pub fn render(&self) -> String {
        format!(
            "{}:{} [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// One scanned workspace source file.
pub struct SourceFile {
    /// Workspace-relative path.
    pub path: PathBuf,
    /// Raw source lines (used where masked text hides what a rule needs
    /// to see, e.g. the `redacted` marker inside a Debug impl string).
    pub raw_lines: Vec<String>,
    /// The masked scan.
    pub scanned: lex::Scanned,
}

impl SourceFile {
    /// Builds a scanned file from a path label and source text.
    pub fn from_source(path: impl Into<PathBuf>, src: &str) -> Self {
        Self {
            path: path.into(),
            raw_lines: src.lines().map(|l| l.to_string()).collect(),
            scanned: lex::scan(src),
        }
    }

    /// Whether this file's normalized path contains `pattern`.
    pub fn path_matches(&self, pattern: &str) -> bool {
        self.path
            .to_string_lossy()
            .replace('\\', "/")
            .contains(pattern)
    }
}

/// What the analyzer checks and where. [`Config::default`] is the
/// workspace's production configuration; fixtures build narrow ones.
pub struct Config {
    /// Types whose `Debug` must redact and which must not be
    /// printable/serializable.
    pub secret_types: Vec<String>,
    /// Request-serving paths for the `panic-path` rule.
    pub server_paths: Vec<String>,
    /// Seeded deterministic modules for the `nondeterminism` rule.
    pub det_paths: Vec<String>,
    /// Deterministic-path files allowed to touch OS entropy (the audited
    /// entropy boundary itself).
    pub entropy_exempt: Vec<String>,
    /// Files exempt from `ct-compare` (the constant-time helpers).
    pub ct_exempt: Vec<String>,
    /// Files exempt from `lock-unwrap` (the audited recovery helper).
    pub lock_exempt: Vec<String>,
    /// Path fragments excluded from the workspace walk entirely.
    pub skip_paths: Vec<String>,
    /// The wire codec file audited by `wire-tags`.
    pub messages_path: String,
    /// The error-code table file audited by `wire-tags`.
    pub error_path: String,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            secret_types: [
                // vg-crypto: long-term and session key material.
                "SigningKey",
                "NonceCoupon",
                "HmacSha256",
                "HmacDrbg",
                "EphemeralKey",
                "DirectionKeys",
                "ChannelKeys",
                "FrameSealer",
                "ElGamalKeyPair",
                "AuthorityMember",
                // vg-service: transport configuration.
                "SecureConfig",
                // vg-trip: ceremony secrets a coercer must not read.
                "RealPrecursor",
                "FakePrecursor",
                "SessionMaterials",
                "TransportKeyring",
                "ResponseQr",
                "PaperCredential",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
            server_paths: [
                "vg-service/src/gateway.rs",
                // The day engine, split by role: mod (run_day),
                // sequencer, station, coordinator.
                "vg-service/src/pipeline/",
                "vg-service/src/channel.rs",
                "vg-service/src/transport.rs",
                "vg-service/src/fault.rs",
                "vg-service/src/retry.rs",
                "vg-ledger/src/durable.rs",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
            det_paths: [
                "vg-trip/src/ceremony.rs",
                "vg-trip/src/materials.rs",
                "vg-trip/src/pool.rs",
                "vg-ledger/src/",
                "vg-service/src/messages.rs",
                "vg-service/src/wire.rs",
                // The fault plane and retry backoff must themselves be
                // seeded-deterministic: an injected fault schedule or a
                // jittered backoff that consulted a wall clock or OS
                // entropy could never replay a failing chaos seed.
                "vg-service/src/fault.rs",
                "vg-service/src/retry.rs",
                "vg-crypto/src/",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
            entropy_exempt: vec!["vg-crypto/src/drbg.rs".into()],
            ct_exempt: vec!["vg-crypto/src/ct.rs".into()],
            lock_exempt: vec!["vg-crypto/src/sync.rs".into()],
            skip_paths: vec![
                "proptest-shim".into(),
                "criterion-shim".into(),
                "vg-lint".into(),
            ],
            messages_path: "vg-service/src/messages.rs".into(),
            error_path: "vg-service/src/error.rs".into(),
        }
    }
}

/// Runs every rule over the file set and applies the allowlist. The
/// returned violations include allowlist-hygiene findings (marked
/// [`Violation::hygiene`]).
pub fn analyze(files: &[SourceFile], cfg: &Config) -> Vec<Violation> {
    let mut raw: Vec<Violation> = Vec::new();
    for f in files {
        rules::ct_compare(f, cfg, &mut raw);
        rules::panic_path(f, cfg, &mut raw);
        rules::lock_unwrap(f, cfg, &mut raw);
        rules::nondeterminism(f, cfg, &mut raw);
        rules::test_scope(f, cfg, &mut raw);
    }
    rules::secret_debug(files, cfg, &mut raw);
    rules::forbid_unsafe(files, cfg, &mut raw);
    rules::wire_tags(files, cfg, &mut raw);

    // Allowlist pass: a directive on the violation's line or the line
    // directly above suppresses it and is marked used.
    let mut kept: Vec<Violation> = Vec::new();
    for v in raw {
        let suppressed = files
            .iter()
            .find(|f| f.path == v.file)
            .map(|f| {
                f.scanned.directives.iter().any(|d| {
                    d.rule == v.rule && (d.line == v.line || d.line + 1 == v.line) && {
                        d.used.set(true);
                        true
                    }
                })
            })
            .unwrap_or(false);
        if !suppressed {
            kept.push(v);
        }
    }
    // Hygiene: every directive must be justified and must suppress
    // something.
    for f in files {
        for d in &f.scanned.directives {
            if !d.used.get() {
                kept.push(Violation {
                    rule: "allowlist",
                    file: f.path.clone(),
                    line: d.line,
                    message: format!(
                        "`allow({})` suppresses nothing here; remove the stale directive",
                        d.rule
                    ),
                    hygiene: true,
                });
            } else if d.justification.is_empty() {
                kept.push(Violation {
                    rule: "allowlist",
                    file: f.path.clone(),
                    line: d.line,
                    message: format!(
                        "`allow({})` has no justification; say why the rule does not apply",
                        d.rule
                    ),
                    hygiene: true,
                });
            }
        }
    }
    kept.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    kept
}

/// Path-rot hygiene: every `server_paths` / `det_paths` / `*_exempt`
/// entry must match at least one scanned file. A renamed or deleted
/// serving file would otherwise silently leave its rule (the entry keeps
/// "matching" nothing, and nothing complains). Reported as hygiene
/// findings — denied under `--deny-all` — and kept out of [`analyze`] so
/// narrow fixture file sets need not satisfy every list.
pub fn stale_config_paths(files: &[SourceFile], cfg: &Config) -> Vec<Violation> {
    let lists: [(&str, &[String]); 5] = [
        ("server_paths", &cfg.server_paths),
        ("det_paths", &cfg.det_paths),
        ("entropy_exempt", &cfg.entropy_exempt),
        ("ct_exempt", &cfg.ct_exempt),
        ("lock_exempt", &cfg.lock_exempt),
    ];
    let mut out = Vec::new();
    for (list, entries) in lists {
        for entry in entries {
            if !files.iter().any(|f| f.path_matches(entry)) {
                out.push(Violation {
                    rule: "config",
                    file: PathBuf::from(entry),
                    line: 0,
                    message: format!(
                        "`{list}` entry matches no scanned file; the file moved or is gone — \
                         update the list so its rule keeps covering the code"
                    ),
                    hygiene: true,
                });
            }
        }
    }
    out
}

/// Loads every production source file of the workspace rooted at `root`.
pub fn load_workspace(root: &Path, cfg: &Config) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let mut dirs = vec![root.join("src"), root.join("crates")];
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries {
            let entry = entry?;
            let path = entry.path();
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            if cfg.skip_paths.iter().any(|s| rel_str.contains(s)) {
                continue;
            }
            if path.is_dir() {
                // Only production code: skip integration tests, benches,
                // examples, and build output.
                let name = entry.file_name();
                if matches!(
                    name.to_string_lossy().as_ref(),
                    "tests" | "benches" | "examples" | "target" | "fixtures"
                ) {
                    continue;
                }
                dirs.push(path);
            } else if rel_str.ends_with(".rs") {
                let src = std::fs::read_to_string(&path)?;
                files.push(SourceFile::from_source(rel, &src));
            }
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

/// Finds the workspace root at or above `start` (the directory whose
/// `Cargo.toml` declares `[workspace]`).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}
