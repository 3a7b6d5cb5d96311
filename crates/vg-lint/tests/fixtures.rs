//! Fixture suite: every rule must fire on a known-bad snippet, respect
//! the allowlist, and stay quiet on the real workspace.

use vg_lint::{analyze, stale_config_paths, Config, SourceFile, Violation};

/// A config whose path filters match the fixture file names used below.
/// `secret_types` stays empty; the secret-debug tests use [`run_secret`].
fn fixture_config() -> Config {
    Config {
        secret_types: vec![],
        server_paths: vec!["srv.rs".into()],
        det_paths: vec!["det.rs".into()],
        entropy_exempt: vec!["entropy.rs".into()],
        ct_exempt: vec!["ct.rs".into()],
        lock_exempt: vec![],
        skip_paths: vec![],
        messages_path: "messages.rs".into(),
        error_path: "error.rs".into(),
    }
}

fn run(files: &[(&str, &str)]) -> Vec<Violation> {
    let set: Vec<SourceFile> = files
        .iter()
        .map(|(p, s)| SourceFile::from_source(*p, s))
        .collect();
    analyze(&set, &fixture_config())
}

/// Like [`run`], with `SessionKey` registered as a secret type.
fn run_secret(files: &[(&str, &str)]) -> Vec<Violation> {
    let set: Vec<SourceFile> = files
        .iter()
        .map(|(p, s)| SourceFile::from_source(*p, s))
        .collect();
    let mut cfg = fixture_config();
    cfg.secret_types = vec!["SessionKey".into()];
    analyze(&set, &cfg)
}

fn rules_of(vs: &[Violation]) -> Vec<&str> {
    vs.iter().map(|v| v.rule).collect()
}

// ---------------------------------------------------------------------
// ct-compare
// ---------------------------------------------------------------------

#[test]
fn ct_compare_fires_on_tag_equality() {
    let vs = run(&[(
        "lib.rs",
        "fn verify(mac_tag: &[u8; 32], other: &[u8; 32]) -> bool {\n    mac_tag == other\n}\n",
    )]);
    assert_eq!(rules_of(&vs), ["ct-compare"], "{vs:#?}");
    assert_eq!(vs[0].line, 2);
}

#[test]
fn ct_compare_ignores_literals_lengths_and_tests() {
    let vs = run(&[(
        "lib.rs",
        concat!(
            "fn f(tag: u16, t: &[u8]) -> bool {\n",
            "    let a = tag == 15;\n", // numeric literal: public
            "    let b = t.len() == tag_bytes.len();\n", // lengths: public
            "    a && b\n",
            "}\n",
            "#[cfg(test)]\nmod tests {\n",
            "    fn t(tag: [u8; 32], o: [u8; 32]) { assert!(tag == o); }\n",
            "}\n",
        ),
    )]);
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn ct_compare_respects_justified_allowlist() {
    let vs = run(&[(
        "lib.rs",
        concat!(
            "fn f(tag: u8, wire_tag: u8) -> bool {\n",
            "    // vg-lint: allow(ct-compare) wire discriminant, public by definition\n",
            "    wire_tag == tag\n",
            "}\n",
        ),
    )]);
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn unjustified_allowlist_is_flagged() {
    let vs = run(&[(
        "lib.rs",
        concat!(
            "fn f(tag: u8, wire_tag: u8) -> bool {\n",
            "    // vg-lint: allow(ct-compare)\n",
            "    wire_tag == tag\n",
            "}\n",
        ),
    )]);
    assert_eq!(rules_of(&vs), ["allowlist"], "{vs:#?}");
    assert!(vs[0].hygiene);
    assert!(vs[0].message.contains("justification"));
}

#[test]
fn unused_allowlist_is_flagged() {
    let vs = run(&[(
        "lib.rs",
        "// vg-lint: allow(ct-compare) nothing here needs this\nfn f() {}\n",
    )]);
    assert_eq!(rules_of(&vs), ["allowlist"], "{vs:#?}");
    assert!(vs[0].message.contains("suppresses nothing"));
}

#[test]
fn ct_compare_skips_the_ct_module_itself() {
    let vs = run(&[(
        "ct.rs",
        "pub fn ct_eq(a: &[u8], b: &[u8]) -> bool { /* diff-fold */ a.len() == b.len() && mac_fold(a, b) }\nfn mac_fold(mac_a: &[u8], mac_b: &[u8]) -> bool { mac_a == mac_b }\n",
    )]);
    assert!(vs.is_empty(), "{vs:#?}");
}

// ---------------------------------------------------------------------
// panic-path
// ---------------------------------------------------------------------

#[test]
fn panic_path_fires_on_unwrap_expect_macros_and_literal_indexing() {
    let vs = run(&[(
        "srv.rs",
        concat!(
            "fn handle(buf: &[u8]) {\n",
            "    let a = buf.first().unwrap();\n",
            "    let b = parse(buf).expect(\"parse\");\n",
            "    if buf.is_empty() { panic!(\"empty\"); }\n",
            "    let c = buf[0];\n",
            "    let d = &buf[4..];\n",
            "    match a { _ => unreachable!(\"nope\") }\n",
            "}\n",
        ),
    )]);
    let rules = rules_of(&vs);
    assert_eq!(rules.len(), 6, "{vs:#?}");
    assert!(rules.iter().all(|r| *r == "panic-path"));
    let lines: Vec<usize> = vs.iter().map(|v| v.line).collect();
    assert_eq!(lines, [2, 3, 4, 5, 6, 7]);
}

#[test]
fn panic_path_is_scoped_to_server_files_and_skips_tests() {
    let vs = run(&[
        ("other.rs", "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n"),
        (
            "srv.rs",
            concat!(
                "fn ok(buf: &[u8], n: usize) -> Option<u8> { buf.get(n).copied() }\n",
                "fn dynamic(buf: &[u8], n: usize) -> u8 { buf[n] }\n", // non-literal index: allowed
                "fn wrapped(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n", // unwrap_or: allowed
                "#[cfg(test)]\nmod tests {\n",
                "    fn t() { Some(1).unwrap(); }\n",
                "}\n",
            ),
        ),
    ]);
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn panic_path_respects_allowlist() {
    let vs = run(&[(
        "srv.rs",
        concat!(
            "fn f(x: Option<u8>) -> u8 {\n",
            "    // vg-lint: allow(panic-path) invariant: caller checked is_some above\n",
            "    x.unwrap()\n",
            "}\n",
        ),
    )]);
    assert!(vs.is_empty(), "{vs:#?}");
}

// ---------------------------------------------------------------------
// lock-unwrap
// ---------------------------------------------------------------------

#[test]
fn lock_unwrap_fires_everywhere_even_across_lines() {
    let vs = run(&[(
        "anywhere.rs",
        concat!(
            "fn f(m: &std::sync::Mutex<u32>) {\n",
            "    let a = m.lock().unwrap();\n",
            "    let b = m.lock().expect(\"poisoned\");\n",
            "    let c = m\n",
            "        .lock()\n",
            "        .unwrap();\n",
            "}\n",
        ),
    )]);
    let rules = rules_of(&vs);
    assert_eq!(
        rules,
        ["lock-unwrap", "lock-unwrap", "lock-unwrap"],
        "{vs:#?}"
    );
}

#[test]
fn lock_recover_and_try_lock_pass() {
    let vs = run(&[(
        "anywhere.rs",
        concat!(
            "fn f(m: &std::sync::Mutex<u32>) {\n",
            "    let a = lock_recover(m);\n",
            "    let b = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n",
            "    let c = m.try_lock();\n",
            "}\n",
        ),
    )]);
    assert!(vs.is_empty(), "{vs:#?}");
}

// ---------------------------------------------------------------------
// nondeterminism
// ---------------------------------------------------------------------

#[test]
fn nondeterminism_fires_in_seeded_modules_only() {
    let bad = concat!(
        "fn stamp() -> std::time::Instant { std::time::Instant::now() }\n",
        "fn entropy(buf: &mut [u8]) { OsRng.fill(buf); }\n",
    );
    let vs = run(&[("det.rs", bad)]);
    assert_eq!(
        rules_of(&vs),
        ["nondeterminism", "nondeterminism"],
        "{vs:#?}"
    );

    let vs = run(&[("free.rs", bad)]);
    assert!(vs.is_empty(), "outside det paths: {vs:#?}");

    let vs = run(&[("entropy.rs", bad)]);
    assert!(vs.is_empty(), "audited entropy boundary is exempt: {vs:#?}");
}

#[test]
fn nondeterminism_ignores_imports_and_comments() {
    let vs = run(&[(
        "det.rs",
        concat!(
            "use std::time::Instant; // Instant::now would be flagged\n",
            "pub use crate::drbg::OsRng;\n",
            "// never call SystemTime::now here\n",
            "fn seeded(rng: &mut dyn Rng) -> u64 { rng.next() }\n",
        ),
    )]);
    assert!(vs.is_empty(), "{vs:#?}");
}

// ---------------------------------------------------------------------
// test-scope
// ---------------------------------------------------------------------

#[test]
fn test_scope_fires_on_test_fn_in_live_scope() {
    let vs = run(&[(
        "lib.rs",
        concat!(
            "fn live() {}
",
            "#[test]
",
            "fn stray() { assert!(live_check()); }
",
        ),
    )]);
    assert_eq!(rules_of(&vs), ["test-scope"], "{vs:#?}");
    assert_eq!(vs[0].line, 2);
}

#[test]
fn test_scope_allows_tests_inside_cfg_test_mods() {
    let vs = run(&[(
        "lib.rs",
        concat!(
            "fn live() {}
",
            "#[cfg(test)]
",
            "mod tests {
",
            "    #[test]
",
            "    fn fine() { super::live(); }
",
            "}
",
        ),
    )]);
    assert!(vs.is_empty(), "{vs:#?}");
}

// ---------------------------------------------------------------------
// secret-debug
// ---------------------------------------------------------------------

#[test]
fn secret_debug_flags_derived_debug() {
    let vs = run_secret(&[(
        "lib.rs",
        "#[derive(Clone, Debug)]\npub struct SessionKey {\n    bytes: [u8; 32],\n}\n",
    )]);
    let rules = rules_of(&vs);
    assert!(rules.contains(&"secret-debug"), "{vs:#?}");
    assert!(
        vs.iter().any(|v| v.message.contains("derives `Debug`")),
        "{vs:#?}"
    );
}

#[test]
fn secret_debug_requires_a_redacting_manual_impl() {
    // No Debug impl at all.
    let vs = run_secret(&[(
        "lib.rs",
        "pub struct SessionKey {\n    bytes: [u8; 32],\n}\n",
    )]);
    assert!(
        vs.iter().any(|v| v.message.contains("no manual `Debug`")),
        "{vs:#?}"
    );

    // A manual impl that prints the key without redacting.
    let vs = run_secret(&[(
        "lib.rs",
        concat!(
            "pub struct SessionKey { bytes: [u8; 32] }\n",
            "impl core::fmt::Debug for SessionKey {\n",
            "    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {\n",
            "        write!(f, \"SessionKey({:02x?})\", self.bytes)\n",
            "    }\n",
            "}\n",
        ),
    )]);
    assert!(
        vs.iter()
            .any(|v| v.message.contains("never says `redacted`")),
        "{vs:#?}"
    );
}

#[test]
fn secret_debug_flags_display_and_serialize() {
    let vs = run_secret(&[(
        "lib.rs",
        concat!(
            "pub struct SessionKey { bytes: [u8; 32] }\n",
            "impl core::fmt::Debug for SessionKey {\n",
            "    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {\n",
            "        write!(f, \"SessionKey(<redacted>)\")\n",
            "    }\n",
            "}\n",
            "impl core::fmt::Display for SessionKey {\n",
            "    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {\n",
            "        write!(f, \"key\")\n",
            "    }\n",
            "}\n",
        ),
    )]);
    assert!(
        vs.iter()
            .any(|v| v.message.contains("implements `Display`")),
        "{vs:#?}"
    );
}

#[test]
fn secret_debug_accepts_a_redacted_impl() {
    let vs = run_secret(&[(
        "lib.rs",
        concat!(
            "#[derive(Clone)]\n",
            "pub struct SessionKey { bytes: [u8; 32] }\n",
            "impl core::fmt::Debug for SessionKey {\n",
            "    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {\n",
            "        write!(f, \"SessionKey(<redacted>)\")\n",
            "    }\n",
            "}\n",
        ),
    )]);
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn secret_debug_reports_missing_configured_type() {
    let vs = run_secret(&[("lib.rs", "pub struct SomethingElse;\n")]);
    assert!(
        vs.iter().any(|v| v.message.contains("was not found")),
        "{vs:#?}"
    );
}

// ---------------------------------------------------------------------
// forbid-unsafe
// ---------------------------------------------------------------------

#[test]
fn forbid_unsafe_checks_crate_roots() {
    let vs = run(&[
        (
            "crates/a/src/lib.rs",
            "//! A crate.\n#![forbid(unsafe_code)]\npub fn f() {}\n",
        ),
        (
            "crates/b/src/lib.rs",
            "//! No forbid here.\npub fn g() {}\n",
        ),
        ("crates/b/src/util.rs", "pub fn h() {}\n"), // non-root: not required
    ]);
    assert_eq!(rules_of(&vs), ["forbid-unsafe"], "{vs:#?}");
    assert!(vs[0].file.to_string_lossy().contains("crates/b"));
}

// ---------------------------------------------------------------------
// wire-tags
// ---------------------------------------------------------------------

/// A minimal protocol file in the shape of vg-service's messages.rs.
/// `req_decode_arm` lets tests desynchronize encode from decode.
fn protocol_fixture(req_decode_arm: u16, hs_record_tag: u16) -> String {
    format!(
        concat!(
            "pub(crate) const HS_TAG_BASE: u16 = 0x4801;\n",
            "pub(crate) const HS_TAG_LAST: u16 = 0x4810;\n",
            "pub const REQUEST_TAGS: [u16; 2] = [0, 1];\n",
            "pub const RESPONSE_TAGS: [u16; 2] = [0, 15];\n",
            "pub const HANDSHAKE_TAGS: [u16; 2] = [0x4801, {hs:#x}];\n",
            "impl Request {{\n",
            "    pub fn to_wire(&self) -> Vec<u8> {{\n",
            "        let (tag, body) = match self {{\n",
            "            Request::A(m) => (0u16, m.to_bytes()),\n",
            "            Request::B => (1, Vec::new()),\n",
            "        }};\n",
            "        seal(tag, &body)\n",
            "    }}\n",
            "    pub fn from_wire(msg: &[u8]) -> Result<Self, E> {{\n",
            "        let (tag, mut r) = unseal(msg)?;\n",
            "        let req = match tag {{\n",
            "            0 => Request::A(X::decode(&mut r)?),\n",
            "            {arm} => Request::B,\n",
            "            _ => return Err(E::UnknownTag),\n",
            "        }};\n",
            "        Ok(req)\n",
            "    }}\n",
            "}}\n",
            "impl Response {{\n",
            "    pub fn to_wire(&self) -> Vec<u8> {{\n",
            "        let (tag, body) = match self {{\n",
            "            Response::A(m) => (0u16, m.to_bytes()),\n",
            "            Response::Err(e) => (15, encode(e)),\n",
            "        }};\n",
            "        seal(tag, &body)\n",
            "    }}\n",
            "    pub fn from_wire(msg: &[u8]) -> Result<Self, E> {{\n",
            "        let (tag, mut r) = unseal(msg)?;\n",
            "        let resp = match tag {{\n",
            "            0 => Response::A(X::decode(&mut r)?),\n",
            "            15 => Response::Err(decode(&mut r)?),\n",
            "            _ => return Err(E::UnknownTag),\n",
            "        }};\n",
            "        Ok(resp)\n",
            "    }}\n",
            "}}\n",
            "impl HandshakeFrame {{\n",
            "    pub fn to_wire(&self) -> Vec<u8> {{\n",
            "        let (tag, body) = match self {{\n",
            "            HandshakeFrame::Init(m) => (0x4801u16, m.to_bytes()),\n",
            "            HandshakeFrame::Record(m) => ({hs:#x}, m.to_bytes()),\n",
            "        }};\n",
            "        seal(tag, &body)\n",
            "    }}\n",
            "    pub fn from_wire(msg: &[u8]) -> Result<Self, E> {{\n",
            "        let (tag, mut r) = unseal(msg)?;\n",
            "        let frame = match tag {{\n",
            "            0x4801 => HandshakeFrame::Init(I::decode(&mut r)?),\n",
            "            {hs:#x} => HandshakeFrame::Record(R::decode(&mut r)?),\n",
            "            _ => return Err(E::UnknownTag),\n",
            "        }};\n",
            "        Ok(frame)\n",
            "    }}\n",
            "}}\n",
        ),
        arm = req_decode_arm,
        hs = hs_record_tag,
    )
}

const ERROR_FIXTURE: &str = concat!(
    "pub(crate) fn encode_error(buf: &mut Vec<u8>, e: &E) {\n",
    "    let (tag, text): (u32, &str) = match e {\n",
    "        E::A => (0, \"\"),\n",
    "        E::B(s) => (1, s.as_str()),\n",
    "    };\n",
    "    put(buf, tag, text);\n",
    "}\n",
    "pub(crate) fn decode_error(r: &mut Reader<'_>) -> Result<E, D> {\n",
    "    let tag = r.u32()?;\n",
    "    Ok(match tag {\n",
    "        0 => E::A,\n",
    "        1 => E::B(r.text()?),\n",
    "        _ => return Err(D::Unknown),\n",
    "    })\n",
    "}\n",
);

#[test]
fn wire_tags_passes_on_a_consistent_protocol() {
    let proto = protocol_fixture(1, 0x4810);
    let vs = run(&[("messages.rs", proto.as_str()), ("error.rs", ERROR_FIXTURE)]);
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn wire_tags_fires_when_encode_and_decode_disagree() {
    let proto = protocol_fixture(2, 0x4810); // decode matches 2, encode emits 1
    let vs = run(&[("messages.rs", proto.as_str()), ("error.rs", ERROR_FIXTURE)]);
    assert!(
        vs.iter()
            .any(|v| v.rule == "wire-tags" && v.message.contains("encode/decode tag sets differ")),
        "{vs:#?}"
    );
    // The registry check also notices from_wire no longer covers tag 1.
    assert!(rules_of(&vs).iter().all(|r| *r == "wire-tags"), "{vs:#?}");
}

#[test]
fn wire_tags_fires_when_a_handshake_tag_escapes_its_range() {
    let proto = protocol_fixture(1, 0x5000); // record tag outside 0x4801..=0x4810
    let vs = run(&[("messages.rs", proto.as_str()), ("error.rs", ERROR_FIXTURE)]);
    assert!(
        vs.iter()
            .any(|v| v.rule == "wire-tags" && v.message.contains("escapes the reserved")),
        "{vs:#?}"
    );
}

#[test]
fn wire_tags_fires_when_a_request_tag_collides_with_the_secure_range() {
    let proto = protocol_fixture(1, 0x4810)
        .replace(
            "Request::B => (1, Vec::new())",
            "Request::B => (0x4805, Vec::new())",
        )
        .replace("1 => Request::B", "0x4805 => Request::B")
        .replace(
            "REQUEST_TAGS: [u16; 2] = [0, 1]",
            "REQUEST_TAGS: [u16; 2] = [0, 0x4805]",
        );
    let vs = run(&[("messages.rs", proto.as_str()), ("error.rs", ERROR_FIXTURE)]);
    assert!(
        vs.iter().any(|v| v.rule == "wire-tags"
            && v.message.contains("collides with the secure-channel range")),
        "{vs:#?}"
    );
}

#[test]
fn wire_tags_fires_on_error_code_mismatch() {
    let bad_errors = ERROR_FIXTURE.replace("1 => E::B(r.text()?),", "2 => E::B(r.text()?),");
    let proto = protocol_fixture(1, 0x4810);
    let vs = run(&[
        ("messages.rs", proto.as_str()),
        ("error.rs", bad_errors.as_str()),
    ]);
    assert!(
        vs.iter()
            .any(|v| v.rule == "wire-tags"
                && v.message.contains("error encode/decode code sets differ")),
        "{vs:#?}"
    );
}

// ---------------------------------------------------------------------
// Path-list rot
// ---------------------------------------------------------------------

#[test]
fn config_entry_matching_no_file_is_a_hygiene_finding() {
    let files = [
        SourceFile::from_source("crates/svc/src/srv.rs", "fn serve() {}\n"),
        SourceFile::from_source("crates/svc/src/det.rs", "fn derive() {}\n"),
    ];
    let mut cfg = fixture_config();
    cfg.entropy_exempt = vec![];
    cfg.ct_exempt = vec![];
    assert!(stale_config_paths(&files, &cfg).is_empty());

    // The serving file is renamed away from its list entry, and an
    // exemption names a file that no longer exists.
    cfg.server_paths = vec!["svc/src/registrar.rs".into()];
    cfg.lock_exempt = vec!["sync.rs".into()];
    let vs = stale_config_paths(&files, &cfg);
    assert_eq!(rules_of(&vs), ["config", "config"], "{vs:#?}");
    assert!(vs.iter().all(|v| v.hygiene), "denied only under --deny-all");
    assert!(vs[0].message.contains("server_paths"), "{vs:#?}");
    assert!(vs[1].message.contains("lock_exempt"), "{vs:#?}");
}

// ---------------------------------------------------------------------
// The real workspace
// ---------------------------------------------------------------------

#[test]
fn the_workspace_is_clean_under_deny_all() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/vg-lint")
        .to_path_buf();
    let cfg = Config::default();
    let files = vg_lint::load_workspace(&root, &cfg).expect("workspace readable");
    assert!(files.len() > 50, "workspace walk found too few files");
    let mut vs = analyze(&files, &cfg);
    vs.extend(stale_config_paths(&files, &cfg));
    assert!(
        vs.is_empty(),
        "workspace must be clean including allowlist and path-list hygiene:\n{}",
        vs.iter().map(|v| v.render()).collect::<Vec<_>>().join("\n")
    );
}
