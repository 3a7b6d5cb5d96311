//! The rule implementations.
//!
//! Every rule works on the masked view produced by [`crate::lex::scan`]
//! (literal and comment contents blanked), so substring scans cannot be
//! fooled by forbidden patterns inside strings or comments. Test modules
//! (`#[cfg(test)]`) are exempt everywhere: the rules police production
//! paths, and tests legitimately unwrap.

use std::path::Path;

use crate::{Config, SourceFile, Violation};

// ---------------------------------------------------------------------
// Small scanning helpers
// ---------------------------------------------------------------------

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offset → 1-based line number, given per-line start offsets.
fn line_of(starts: &[usize], off: usize) -> usize {
    match starts.binary_search(&off) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

/// Start offsets of each line in a joined (newline-separated) text.
fn line_starts(joined: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in joined.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// Whether `hay[pos..]` starts with `word` on identifier boundaries.
fn word_at(hay: &[char], pos: usize, word: &str) -> bool {
    let w: Vec<char> = word.chars().collect();
    if pos + w.len() > hay.len() || hay[pos..pos + w.len()] != w[..] {
        return false;
    }
    let before_ok = pos == 0 || !is_ident(hay[pos - 1]);
    let after_ok = pos + w.len() == hay.len() || !is_ident(hay[pos + w.len()]);
    before_ok && after_ok
}

/// All word-boundary occurrences of `word` in `hay`.
fn find_words(hay: &str, word: &str) -> Vec<usize> {
    let chars: Vec<char> = hay.chars().collect();
    (0..chars.len())
        .filter(|&i| word_at(&chars, i, word))
        .collect()
}

/// The span (inclusive start line .. inclusive end line, 1-based) of the
/// brace-delimited block whose opening `{` is the first one at or after
/// `from_line` (1-based).
fn brace_span(lines: &[String], from_line: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut opened = false;
    for (i, l) in lines.iter().enumerate().skip(from_line.saturating_sub(1)) {
        for c in l.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
            if opened && depth == 0 {
                return Some((from_line, i + 1));
            }
        }
    }
    None
}

/// Parses an integer literal (decimal or 0x, optional `_` separators and
/// `u8`/`u16`/`u32`/`usize` suffix) at the start of `s`.
fn parse_int(s: &str) -> Option<u64> {
    let s = s.trim_start();
    let (digits, radix) = if let Some(hex) = s.strip_prefix("0x") {
        (hex, 16)
    } else {
        (s, 10)
    };
    let body: String = digits
        .chars()
        .take_while(|c| c.is_ascii_hexdigit() || *c == '_')
        .filter(|c| *c != '_')
        .collect();
    if body.is_empty() {
        return None;
    }
    // A decimal literal must not carry hex digits.
    if radix == 10 && !body.chars().all(|c| c.is_ascii_digit()) {
        return None;
    }
    u64::from_str_radix(&body, radix).ok()
}

// ---------------------------------------------------------------------
// Rule: ct-compare
// ---------------------------------------------------------------------

/// Identifier segments that mark an operand as secret-bearing.
const SENSITIVE_SEGMENTS: &[&str] = &[
    "mac",
    "hmac",
    "tag",
    "tags",
    "confirm",
    "confirmation",
    "digest",
    "secret",
    "secrets",
    "sk",
    "seed",
    "auth",
];

fn segments(operand: &str) -> Vec<String> {
    operand
        .split(|c: char| !c.is_alphanumeric())
        .filter(|s| !s.is_empty())
        .map(|s| s.to_ascii_lowercase())
        .collect()
}

fn is_sensitive_operand(op: &str) -> bool {
    // Lengths and emptiness of tags are public (`tag.len()` guards a
    // read, it does not branch on tag *bytes*).
    if op.ends_with("len()") || op.ends_with("is_empty()") || op.ends_with("count()") {
        return false;
    }
    segments(op)
        .iter()
        .any(|s| SENSITIVE_SEGMENTS.contains(&s.as_str()))
}

fn is_literal_operand(op: &str) -> bool {
    let op = op.trim_start_matches(['&', '*']);
    op.starts_with(|c: char| c.is_ascii_digit()) || op == "true" || op == "false"
}

/// Reads the expression ending just before `chars[end]` (exclusive),
/// walking back over balanced `()`/`[]` and identifier chains.
fn operand_back(chars: &[char], end: usize) -> String {
    let mut i = end;
    while i > 0 && chars[i - 1] == ' ' {
        i -= 1;
    }
    let stop = i;
    while i > 0 {
        let c = chars[i - 1];
        if c == ')' || c == ']' {
            let close = c;
            let open = if c == ')' { '(' } else { '[' };
            let mut depth = 0i32;
            while i > 0 {
                let d = chars[i - 1];
                if d == close {
                    depth += 1;
                } else if d == open {
                    depth -= 1;
                }
                i -= 1;
                if depth == 0 {
                    break;
                }
            }
        } else if is_ident(c) || c == '.' || c == ':' || c == '?' {
            i -= 1;
        } else if c == '&' || c == '*' {
            i -= 1;
            break;
        } else {
            break;
        }
    }
    chars[i..stop].iter().collect()
}

/// Reads the expression starting at `chars[start]`, walking forward over
/// balanced `()`/`[]` and identifier chains.
fn operand_fwd(chars: &[char], start: usize) -> String {
    let mut i = start;
    while i < chars.len() && chars[i] == ' ' {
        i += 1;
    }
    let begin = i;
    while i < chars.len() {
        let c = chars[i];
        if c == '(' || c == '[' {
            let open = c;
            let close = if c == '(' { ')' } else { ']' };
            let mut depth = 0i32;
            while i < chars.len() {
                let d = chars[i];
                if d == open {
                    depth += 1;
                } else if d == close {
                    depth -= 1;
                }
                i += 1;
                if depth == 0 {
                    break;
                }
            }
        } else if is_ident(c)
            || c == '.'
            || c == ':'
            || c == '?'
            || ((c == '&' || c == '*') && i == begin)
        {
            i += 1;
        } else {
            break;
        }
    }
    chars[begin..i].iter().collect()
}

/// Forbids `==`/`!=` on MAC-tag/secret-bearing operands outside
/// `vg_crypto::ct` — timing-dependent comparison of authenticators leaks
/// how many leading bytes matched.
pub fn ct_compare(file: &SourceFile, cfg: &Config, out: &mut Vec<Violation>) {
    if cfg.ct_exempt.iter().any(|p| file.path_matches(p)) {
        return;
    }
    for (idx, line) in file.scanned.masked_lines.iter().enumerate() {
        let lineno = idx + 1;
        if file.scanned.is_test_line(lineno) {
            continue;
        }
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i + 1 < chars.len() {
            let two = (chars[i], chars[i + 1]);
            let is_cmp = (two == ('=', '=') || two == ('!', '='))
                && chars[i + 1] == '='
                && (i == 0
                    || !matches!(
                        chars[i - 1],
                        '<' | '>' | '=' | '!' | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^'
                    ))
                && chars.get(i + 2) != Some(&'=');
            if !is_cmp {
                i += 1;
                continue;
            }
            let lhs = operand_back(&chars, i);
            let rhs = operand_fwd(&chars, i + 2);
            if (is_sensitive_operand(&lhs) || is_sensitive_operand(&rhs))
                && !is_literal_operand(&lhs)
                && !is_literal_operand(&rhs)
            {
                out.push(Violation::new(
                    "ct-compare",
                    &file.path,
                    lineno,
                    format!(
                        "`{}` {} `{}` compares authenticator/secret material with a \
                         short-circuiting operator; route it through `vg_crypto::ct::ct_eq`",
                        lhs.trim(),
                        if two.0 == '=' { "==" } else { "!=" },
                        rhs.trim()
                    ),
                ));
            }
            i += 2;
        }
    }
}

// ---------------------------------------------------------------------
// Rule: panic-path
// ---------------------------------------------------------------------

/// Forbids `.unwrap()`, `.expect(..)`, panicking macros, and
/// integer-literal indexing in the request-serving paths (gateway,
/// pipeline, ingest, connection handling): a panic there kills a serving
/// thread mid-day instead of answering a typed `ServiceError`.
pub fn panic_path(file: &SourceFile, cfg: &Config, out: &mut Vec<Violation>) {
    if !cfg.server_paths.iter().any(|p| file.path_matches(p)) {
        return;
    }
    let joined = file.scanned.masked_joined();
    let starts = line_starts(&joined);
    let chars: Vec<char> = joined.chars().collect();

    let mut flag = |off: usize, msg: String| {
        let lineno = line_of(&starts, off);
        if !file.scanned.is_test_line(lineno) {
            out.push(Violation::new("panic-path", &file.path, lineno, msg));
        }
    };

    for mac in ["panic!", "unreachable!", "todo!", "unimplemented!"] {
        for off in find_words(&joined, mac.trim_end_matches('!')) {
            // The `!` must follow for it to be the macro.
            let after = off + mac.len() - 1;
            if chars.get(after) == Some(&'!') {
                flag(
                    off,
                    format!("`{mac}(..)` in a request-serving path; answer a typed ServiceError instead"),
                );
            }
        }
    }
    for word in ["unwrap", "expect"] {
        for off in find_words(&joined, word) {
            // Must be a method call: preceded by `.`, followed by `(`.
            let dot = off.checked_sub(1).map(|i| chars[i]) == Some('.');
            let mut j = off + word.len();
            while j < chars.len() && chars[j].is_whitespace() {
                j += 1;
            }
            if dot && chars.get(j) == Some(&'(') {
                flag(
                    off,
                    format!(
                        ".{word}(..) in a request-serving path; propagate a typed error instead"
                    ),
                );
            }
        }
    }
    // Integer-literal indexing `buf[0]`, `buf[4..]`, `buf[..4]`: a
    // length mistake panics instead of failing typed. (Non-literal
    // indices are allowed — bounds are the caller's proven invariant.)
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' || i == 0 {
            continue;
        }
        let prev = chars[i - 1];
        if !(is_ident(prev) || prev == ')' || prev == ']') {
            continue; // array literal, attribute, slice type — not indexing
        }
        let inner: String = chars[i + 1..].iter().take(24).collect();
        let inner = inner.trim_start();
        let literal_start = parse_int(inner).is_some()
            || inner
                .strip_prefix("..")
                .map(|r| parse_int(r).is_some())
                .unwrap_or(false);
        if literal_start {
            flag(
                i,
                "integer-literal indexing in a request-serving path; use `get(..)`/`first_chunk` \
                 and answer a typed error on short input"
                    .into(),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Rule: lock-unwrap
// ---------------------------------------------------------------------

/// Forbids bare `.lock().unwrap()` / `.lock().expect(..)` workspace-wide:
/// poison recovery is a policy decision, made once in
/// `vg_crypto::sync::lock_recover`, not re-improvised at every call site.
pub fn lock_unwrap(file: &SourceFile, cfg: &Config, out: &mut Vec<Violation>) {
    if cfg.lock_exempt.iter().any(|p| file.path_matches(p)) {
        return;
    }
    let joined = file.scanned.masked_joined();
    let starts = line_starts(&joined);
    let chars: Vec<char> = joined.chars().collect();
    for off in find_words(&joined, "lock") {
        if off == 0 || chars[off - 1] != '.' {
            continue;
        }
        // `.lock()` exactly.
        let mut j = off + "lock".len();
        if chars.get(j) != Some(&'(') {
            continue;
        }
        j += 1;
        while j < chars.len() && chars[j].is_whitespace() {
            j += 1;
        }
        if chars.get(j) != Some(&')') {
            continue;
        }
        j += 1;
        while j < chars.len() && chars[j].is_whitespace() {
            j += 1;
        }
        if chars.get(j) != Some(&'.') {
            continue;
        }
        j += 1;
        while j < chars.len() && chars[j].is_whitespace() {
            j += 1;
        }
        let rest: String = chars[j..].iter().take(16).collect();
        let bare = ["unwrap", "expect"].iter().any(|w| {
            rest.starts_with(w) && {
                let after = rest[w.len()..].trim_start();
                after.starts_with('(')
            }
        });
        if bare {
            let lineno = line_of(&starts, off);
            if !file.scanned.is_test_line(lineno) {
                out.push(Violation::new(
                    "lock-unwrap",
                    &file.path,
                    lineno,
                    "bare `.lock().unwrap()/.expect(..)`; acquire through \
                     `vg_crypto::sync::lock_recover` so poison policy stays in one place"
                        .into(),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: nondeterminism
// ---------------------------------------------------------------------

const NONDET_PATTERNS: &[(&str, &str)] = &[
    ("Instant::now", "wall-clock time"),
    ("SystemTime::now", "wall-clock time"),
    ("thread_rng", "ambient OS randomness"),
    ("from_entropy", "ambient OS randomness"),
    ("getrandom", "ambient OS randomness"),
    ("OsRng", "OS entropy"),
];

/// Forbids wall-clock reads and OS entropy in the seeded deterministic
/// modules (ceremony, ledger admission, the wire codec): their whole
/// test story is bit-identical replay from an `HmacDrbg` seed.
pub fn nondeterminism(file: &SourceFile, cfg: &Config, out: &mut Vec<Violation>) {
    if !cfg.det_paths.iter().any(|p| file.path_matches(p)) {
        return;
    }
    if cfg.entropy_exempt.iter().any(|p| file.path_matches(p)) {
        return;
    }
    for (idx, line) in file.scanned.masked_lines.iter().enumerate() {
        let lineno = idx + 1;
        if file.scanned.is_test_line(lineno) {
            continue;
        }
        // Imports and re-exports only *name* the item; the rule fires on
        // the lines that invoke it.
        let t = line.trim_start();
        if t.starts_with("use ") || t.starts_with("pub use ") {
            continue;
        }
        for (pat, what) in NONDET_PATTERNS {
            // Word-boundary on the leading identifier is enough; these
            // patterns contain `::` so plain contains() is already tight.
            if line.contains(pat) {
                out.push(Violation::new(
                    "nondeterminism",
                    &file.path,
                    lineno,
                    format!(
                        "`{pat}` pulls {what} into a seeded deterministic module; \
                         thread the day's `Rng`/clock through instead"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: test-scope
// ---------------------------------------------------------------------

/// Forbids `#[test]` functions outside a `#[cfg(test)]` module,
/// workspace-wide: a test fn in live scope compiles into the production
/// binary (dragging its fixtures and any `dev-dependencies` shims along)
/// and silently escapes `cargo test`'s compilation gate for
/// test-only code. The scanner's test-span tracking (the same one every
/// other rule uses to *skip* test code) is what makes this scope-aware:
/// the attribute alone is not a violation, the attribute in live scope
/// is.
pub fn test_scope(file: &SourceFile, _cfg: &Config, out: &mut Vec<Violation>) {
    for (idx, line) in file.scanned.masked_lines.iter().enumerate() {
        let lineno = idx + 1;
        if file.scanned.is_test_line(lineno) {
            continue;
        }
        let t = line.trim_start();
        if t.starts_with("#[test]") || t.starts_with("#[test ") {
            out.push(Violation::new(
                "test-scope",
                &file.path,
                lineno,
                "`#[test]` outside a `#[cfg(test)]` module; move it into                  `#[cfg(test)] mod tests` so test code never compiles into                  the production binary"
                    .into(),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rule: secret-debug (project-level)
// ---------------------------------------------------------------------

/// Checks every configured secret-bearing type: no derived
/// `Debug`/`Serialize`, no `Display`, and a manual `Debug` impl whose
/// body redacts (contains a `redacted` marker) — so key material cannot
/// leak through `{:?}` in a log line.
pub fn secret_debug(files: &[SourceFile], cfg: &Config, out: &mut Vec<Violation>) {
    for ty in &cfg.secret_types {
        let mut defined = None;
        let mut debug_impl: Option<(&SourceFile, usize)> = None;
        for f in files {
            for (idx, line) in f.scanned.masked_lines.iter().enumerate() {
                let lineno = idx + 1;
                if f.scanned.is_test_line(lineno) {
                    continue;
                }
                let chars: Vec<char> = line.chars().collect();
                for off in find_words(line, ty) {
                    let before: String = chars[..off].iter().collect();
                    let before = before.trim_end();
                    if before.ends_with("struct") || before.ends_with("enum") {
                        defined = Some((f, lineno));
                    }
                    if before.ends_with("for") {
                        let head = before.trim_end_matches("for").trim_end();
                        if head.ends_with("Debug") {
                            debug_impl = Some((f, lineno));
                        }
                        for trait_name in ["Display", "Serialize"] {
                            if head.ends_with(trait_name) {
                                out.push(Violation::new(
                                    "secret-debug",
                                    &f.path,
                                    lineno,
                                    format!(
                                        "secret type `{ty}` implements `{trait_name}`; \
                                         secret-bearing types must not be printable/serializable"
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }
        let Some((def_file, def_line)) = defined else {
            out.push(Violation::new(
                "secret-debug",
                Path::new("(config)"),
                0,
                format!("configured secret type `{ty}` was not found in the workspace"),
            ));
            continue;
        };
        // Attribute lines directly above the definition: no derived
        // Debug/Serialize.
        let mut l = def_line - 1;
        while l >= 1 {
            let line = &def_file.scanned.masked_lines[l - 1];
            let t = line.trim();
            if t.starts_with("#[") || t.is_empty() {
                if t.contains("derive") {
                    for banned in ["Debug", "Serialize"] {
                        if find_words(t, banned).iter().any(|_| true) {
                            out.push(Violation::new(
                                "secret-debug",
                                &def_file.path,
                                l,
                                format!(
                                    "secret type `{ty}` derives `{banned}`, which prints every \
                                     field; write a manual redacted impl instead"
                                ),
                            ));
                        }
                    }
                }
                l -= 1;
            } else {
                break;
            }
        }
        // A manual Debug impl must exist and visibly redact.
        match debug_impl {
            None => out.push(Violation::new(
                "secret-debug",
                &def_file.path,
                def_line,
                format!(
                    "secret type `{ty}` has no manual `Debug` impl; add one that prints \
                     `<redacted>` in place of key material"
                ),
            )),
            Some((f, impl_line)) => {
                let redacts = brace_span(&f.scanned.masked_lines, impl_line)
                    .map(|(a, b)| {
                        f.raw_lines[a - 1..b]
                            .iter()
                            .any(|l| l.to_ascii_lowercase().contains("redact"))
                    })
                    .unwrap_or(false);
                if !redacts {
                    out.push(Violation::new(
                        "secret-debug",
                        &f.path,
                        impl_line,
                        format!(
                            "manual `Debug` for secret type `{ty}` never says `redacted`; \
                             the impl must visibly replace key material"
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: forbid-unsafe (project-level)
// ---------------------------------------------------------------------

/// Every crate root must carry `#![forbid(unsafe_code)]`: the workspace
/// is pure safe Rust and stays that way by construction.
pub fn forbid_unsafe(files: &[SourceFile], cfg: &Config, out: &mut Vec<Violation>) {
    for f in files {
        let p = f.path.to_string_lossy().replace('\\', "/");
        if !p.ends_with("src/lib.rs") {
            continue;
        }
        if cfg.skip_paths.iter().any(|s| p.contains(s)) {
            continue;
        }
        let has = f
            .scanned
            .masked_lines
            .iter()
            .any(|l| l.replace(' ', "").contains("#![forbid(unsafe_code)]"));
        if !has {
            out.push(Violation::new(
                "forbid-unsafe",
                &f.path,
                1,
                "crate root lacks `#![forbid(unsafe_code)]`".into(),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rule: wire-tags (project-level)
// ---------------------------------------------------------------------

/// Extracts the first integer of every `(<int>,` tuple inside the given
/// line span (how `to_wire`/`encode_error` state their tags).
fn tuple_head_ints(lines: &[String]) -> Vec<u64> {
    let mut out = Vec::new();
    for l in lines {
        let chars: Vec<char> = l.chars().collect();
        for (i, &c) in chars.iter().enumerate() {
            if c != '(' {
                continue;
            }
            let rest: String = chars[i + 1..].iter().collect();
            let trimmed = rest.trim_start();
            if let Some(v) = parse_int(trimmed) {
                // Must be a tuple `(N, ...)`, not a call argument `(N)`.
                let after_num: String = trimmed
                    .chars()
                    .skip_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == 'x')
                    .collect();
                if after_num.trim_start().starts_with(',') {
                    out.push(v);
                }
            }
        }
    }
    out
}

/// Extracts the integer of every `<int> =>` match arm in the span.
fn arm_ints(lines: &[String]) -> Vec<u64> {
    let mut out = Vec::new();
    for l in lines {
        let t = l.trim_start();
        if let Some(v) = parse_int(t) {
            let rest: String = t
                .chars()
                .skip_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == 'x')
                .collect();
            if rest.trim_start().starts_with("=>") {
                out.push(v);
            }
        }
    }
    out
}

/// The span of `fn <name>` inside `lines`, brace-matched.
fn fn_span<'a>(lines: &'a [String], name: &str, from: usize, to: usize) -> Option<&'a [String]> {
    for i in from..to.min(lines.len()) {
        if find_words(&lines[i], name).iter().any(|_| true) && lines[i].contains("fn ") {
            let (a, b) = brace_span(lines, i + 1)?;
            return Some(&lines[a - 1..b]);
        }
    }
    None
}

/// Parses `const <NAME>: u16 = <int>;`.
fn const_val(lines: &[String], name: &str) -> Option<u64> {
    for l in lines {
        if find_words(l, name).iter().any(|_| true) && l.contains("const") {
            let rhs = l.split('=').nth(1)?;
            return parse_int(rhs.trim());
        }
    }
    None
}

/// Parses `<NAME>: [u16; N] = [a, b, c];`.
fn const_array(lines: &[String], name: &str) -> Option<Vec<u64>> {
    for l in lines {
        if find_words(l, name).iter().any(|_| true) && l.contains("const") {
            let rhs = l.split('=').nth(1)?;
            let inner = rhs.split('[').nth(1)?.split(']').next()?;
            let vals: Vec<u64> = inner
                .split(',')
                .filter_map(|s| parse_int(s.trim()))
                .collect();
            return Some(vals);
        }
    }
    None
}

fn set_eq(a: &[u64], b: &[u64]) -> bool {
    let mut a: Vec<u64> = a.to_vec();
    let mut b: Vec<u64> = b.to_vec();
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

fn dup_free(v: &[u64]) -> bool {
    let mut s = v.to_vec();
    s.sort_unstable();
    s.dedup();
    s.len() == v.len()
}

/// The span of `impl <Type>` (non-trait impl) in `lines`: returns
/// (start_idx, end_idx) 0-based inclusive.
fn impl_span(lines: &[String], ty: &str) -> Option<(usize, usize)> {
    for (i, l) in lines.iter().enumerate() {
        let t = l.trim_start();
        if t.starts_with("impl") && find_words(t, ty).iter().any(|_| true) && !t.contains(" for ") {
            let (a, b) = brace_span(lines, i + 1)?;
            return Some((a - 1, b - 1));
        }
    }
    None
}

/// Machine-checks the wire-protocol registries: encode and decode agree
/// for every message family, the published `*_TAGS` arrays match the
/// match arms, handshake tags live in (and fill only) the reserved
/// `0x48xx` range disjoint from request/response tags, and error codes
/// are collision-free with encode == decode.
pub fn wire_tags(files: &[SourceFile], cfg: &Config, out: &mut Vec<Violation>) {
    let Some(messages) = files.iter().find(|f| f.path_matches(&cfg.messages_path)) else {
        return; // fixture sets without a protocol are fine
    };
    let lines = &messages.scanned.masked_lines;
    let mut flag = |line: usize, msg: String| {
        out.push(Violation::new("wire-tags", &messages.path, line, msg));
    };

    let mut families: Vec<(&str, Vec<u64>, Vec<u64>)> = Vec::new();
    for ty in ["Request", "Response", "HandshakeFrame"] {
        let Some((a, b)) = impl_span(lines, ty) else {
            flag(
                1,
                format!("could not locate `impl {ty}` to audit its wire tags"),
            );
            continue;
        };
        let enc = fn_span(&lines[a..=b], "to_wire", 0, b - a + 1).map(tuple_head_ints);
        let dec = fn_span(&lines[a..=b], "from_wire", 0, b - a + 1).map(arm_ints);
        match (enc, dec) {
            (Some(enc), Some(dec)) => {
                if !dup_free(&enc) {
                    flag(
                        a + 1,
                        format!("`{ty}::to_wire` assigns a tag twice: {enc:?}"),
                    );
                }
                if !dup_free(&dec) {
                    flag(
                        a + 1,
                        format!("`{ty}::from_wire` matches a tag twice: {dec:?}"),
                    );
                }
                if !set_eq(&enc, &dec) {
                    flag(
                        a + 1,
                        format!("`{ty}` encode/decode tag sets differ: {enc:?} vs {dec:?}"),
                    );
                }
                families.push((ty, enc, dec));
            }
            _ => flag(
                a + 1,
                format!("could not parse `{ty}` to_wire/from_wire bodies"),
            ),
        }
    }

    // Published registries must match the arms.
    let registry_of = |ty: &str| match ty {
        "Request" => "REQUEST_TAGS",
        "Response" => "RESPONSE_TAGS",
        _ => "HANDSHAKE_TAGS",
    };
    for (ty, enc, _) in &families {
        let reg_name = registry_of(ty);
        match const_array(lines, reg_name) {
            Some(reg) => {
                if !set_eq(&reg, enc) {
                    flag(
                        1,
                        format!(
                            "`{reg_name}` ({reg:?}) disagrees with `{ty}::to_wire` arms ({enc:?})"
                        ),
                    );
                }
            }
            None => flag(1, format!("registry `{reg_name}` not found in messages.rs")),
        }
    }

    // Handshake range discipline.
    let base = const_val(lines, "HS_TAG_BASE");
    let last = const_val(lines, "HS_TAG_LAST");
    match (base, last) {
        (Some(base), Some(last)) => {
            for (ty, enc, _) in &families {
                for t in enc {
                    let in_range = (base..=last).contains(t);
                    if *ty == "HandshakeFrame" && !in_range {
                        flag(1, format!("handshake tag {t:#x} escapes the reserved {base:#x}..={last:#x} range"));
                    }
                    if *ty != "HandshakeFrame" && in_range {
                        flag(1, format!("`{ty}` tag {t:#x} collides with the secure-channel range {base:#x}..={last:#x}"));
                    }
                }
            }
        }
        _ => flag(1, "HS_TAG_BASE/HS_TAG_LAST not found in messages.rs".into()),
    }

    // Error code tables.
    if let Some(errors) = files.iter().find(|f| f.path_matches(&cfg.error_path)) {
        let elines = &errors.scanned.masked_lines;
        let enc = fn_span(elines, "encode_error", 0, elines.len()).map(tuple_head_ints);
        let dec = fn_span(elines, "decode_error", 0, elines.len()).map(arm_ints);
        // decode_error's leading reads (r.u32()) precede the match; its
        // arms are the `N =>` lines, which arm_ints already isolates.
        match (enc, dec) {
            (Some(enc), Some(dec)) => {
                if !dup_free(&enc) {
                    out.push(Violation::new(
                        "wire-tags",
                        &errors.path,
                        1,
                        format!("`encode_error` assigns an error code twice: {enc:?}"),
                    ));
                }
                if !set_eq(&enc, &dec) {
                    out.push(Violation::new(
                        "wire-tags",
                        &errors.path,
                        1,
                        format!("error encode/decode code sets differ: {enc:?} vs {dec:?}"),
                    ));
                }
            }
            _ => out.push(Violation::new(
                "wire-tags",
                &errors.path,
                1,
                "could not parse encode_error/decode_error bodies".into(),
            )),
        }
    }
}
