//! Crash recovery walkthrough: a registration-and-voting day on durable
//! (WAL-backed) ledger storage, killed at several byte offsets, reopened
//! and replayed back to bit-identical signed tree heads.
//!
//! The invariant on display is the WAL commit point: every accepted
//! record is appended (and group-fsynced) *before* the in-memory Merkle
//! state advances, and signed heads are persisted only after the records
//! they cover. A kill at any instant therefore leaves each file a clean
//! byte prefix; reopening truncates at most one torn final record and
//! replays the rest, and re-running the deterministic day no-ops through
//! the persisted prefix and lands on exactly the uncrashed heads.
//!
//! Writes the recovered-head digests as JSON (CI `cmp`s them against
//! `examples/recovered-heads.expected.json`, written by the commit before
//! the record log became one file, and uploads them):
//! `cargo run --example durable_day --release -- [out.json]`

use std::path::{Path, PathBuf};

use votegral::crypto::HmacDrbg;
use votegral::ledger::{simulate_crash, TreeHead, VoterId};
use votegral::votegral::{Election, ElectionBuilder, Tallying};

const VOTERS: u64 = 6;
const SEED: u64 = 0xDA1;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vg-durable-day-{}-{tag}", std::process::id()))
}

/// One full deterministic day. With `dir` set, ledgers live on the
/// durable backend there — on a directory holding a crashed day's WAL,
/// `build` replays the survivors and the re-run dedups against them.
fn run_day(dir: Option<&Path>) -> Election<Tallying> {
    let mut rng = HmacDrbg::from_u64(SEED);
    let mut builder = ElectionBuilder::new().voters(VOTERS).options(2);
    if let Some(dir) = dir {
        builder = builder.storage(dir);
    }
    let mut election = builder.build(&mut rng);

    let mut devices = Vec::new();
    for v in 1..=VOTERS {
        let (_, vsd) = election
            .register_and_activate(VoterId(v), 0, &mut rng)
            .expect("registers");
        devices.push(vsd);
    }
    // Mid-day commit barrier: everything registered so far is now
    // fsynced and covered by persisted signed heads.
    election.persist_ledgers().expect("persist");

    let mut voting = election.open_voting();
    for (i, vsd) in devices.iter().enumerate() {
        voting
            .cast(&vsd.credentials[0], ((i + 1) % 2) as u32, &mut rng)
            .expect("casts");
    }
    let mut election = voting.close();
    // End-of-day barrier: the ballot ledger joins the durable prefix.
    election.persist_ledgers().expect("persist");
    election
}

fn heads(election: &Election<Tallying>) -> [TreeHead; 3] {
    let ledger = election.ledger();
    [
        ledger.registration.tree_head(),
        ledger.envelopes.tree_head(),
        ledger.ballots.tree_head(),
    ]
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "recovered-heads.json".into());

    println!("== Durable day: kill, reopen, replay ==\n");

    // The uncrashed references: a volatile run (the durable store is a
    // flat Merkle tree, so roots must match in-memory bit-for-bit) and
    // the durable day whose WAL directory the crashes are carved from.
    let reference = heads(&run_day(None));
    let day_dir = scratch_dir("day");
    let _ = std::fs::remove_dir_all(&day_dir);
    let durable = heads(&run_day(Some(&day_dir)));
    assert_eq!(
        reference, durable,
        "durable day must match the volatile reference"
    );
    println!(
        "reference heads: registration={}… envelopes={}… ballots={}…\n",
        &hex(&reference[0].root)[..16],
        &hex(&reference[1].root)[..16],
        &hex(&reference[2].root)[..16],
    );

    // Kill the day at several byte offsets — early, mid, late — each a
    // SIGKILL-equivalent prefix cut (usually tearing a frame mid-write),
    // then reopen and re-run the same deterministic day on the wreckage.
    let mut entries = Vec::new();
    for keep_permille in [103u32, 457, 761] {
        let crash_dir = scratch_dir(&format!("crash-{keep_permille}"));
        let _ = std::fs::remove_dir_all(&crash_dir);
        let report = simulate_crash(&day_dir, &crash_dir, keep_permille).expect("crash simulation");
        let recovered = heads(&run_day(Some(&crash_dir)));
        let identical = recovered == reference;
        println!(
            "kill @ {keep_permille}‰: {} records survived, {} lost, torn tail: {} -> \
             replayed to identical heads: {identical}",
            report.surviving_records, report.dropped_records, report.torn_tail
        );
        assert!(
            identical,
            "recovered heads diverged at {keep_permille} permille"
        );

        let ledgers = ["registration", "envelopes", "ballots"]
            .iter()
            .zip(&recovered)
            .map(|(name, head)| {
                format!(
                    "{{\"ledger\": \"{name}\", \"size\": {}, \"root\": \"{}\"}}",
                    head.size,
                    hex(&head.root)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        entries.push(format!(
            "  {{\"keep_permille\": {keep_permille}, \"surviving_records\": {}, \
             \"dropped_records\": {}, \"torn_tail\": {}, \"identical_to_reference\": {identical}, \
             \"recovered_heads\": [{ledgers}]}}",
            report.surviving_records, report.dropped_records, report.torn_tail
        ));
        let _ = std::fs::remove_dir_all(&crash_dir);
    }
    let _ = std::fs::remove_dir_all(&day_dir);

    let json = format!(
        "{{\n\"bench\": \"durable_day\",\n\"seed\": {SEED},\n\"voters\": {VOTERS},\n\
         \"crashes\": [\n{}\n]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&out, json).expect("write digests");
    println!("\nrecovered-head digests written to {out}");
}
