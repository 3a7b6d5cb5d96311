//! Auditing the public bulletin board: tree heads, inclusion proofs,
//! consistency proofs, and tamper detection — on both storage backends.
//!
//! Run with: `cargo run --example audit_ledger --release`

use votegral::crypto::HmacDrbg;
use votegral::ledger::{verify_consistency_heads, LedgerBackend, TamperEvidentLog, VoterId};
use votegral::votegral::{Election, ElectionBuilder, Tallying};

fn run_audit(backend: LedgerBackend, seed: u64) -> Election<Tallying> {
    let mut rng = HmacDrbg::from_u64(seed);

    println!("-- Backend: {backend:?} --");
    let mut election = ElectionBuilder::new()
        .voters(3)
        .options(2)
        .backend(backend)
        .build(&mut rng);

    // A few registrations and votes produce ledger history.
    let mut devices = Vec::new();
    let mut head_after_first = None;
    for v in 1..=3u64 {
        let (_, vsd) = election
            .register_and_activate(VoterId(v), 0, &mut rng)
            .expect("registers");
        devices.push(vsd);
        if v == 1 {
            head_after_first = Some(election.ledger().registration.tree_head());
        }
    }
    let mut voting = election.open_voting();
    for (i, vsd) in devices.iter().enumerate() {
        voting
            .cast(&vsd.credentials[0], ((i + 1) % 2) as u32, &mut rng)
            .unwrap();
    }
    let election = voting.close();

    let reg = &election.ledger().registration;
    let head = reg.tree_head();
    println!(
        "Registration ledger: {} records, head root {:02x?}…",
        head.size,
        &head.root[..4]
    );

    // 1. The signed tree head verifies under the operator key.
    head.verify(&reg.operator_key()).expect("head signature");
    println!("  [1] signed tree head verifies");

    // 2. Inclusion: every record is provably in the tree (the proof is
    // the same RFC 6962 audit path on either backend).
    for (i, record) in reg.records().iter().enumerate() {
        let proof = reg.prove_inclusion(i);
        assert!(
            TamperEvidentLog::verify_inclusion(&head, record, i, &proof),
            "inclusion of record {i}"
        );
    }
    println!(
        "  [2] inclusion proofs verify for all {} records",
        head.size
    );

    // 3. Consistency: today's ledger extends the snapshot taken earlier —
    // nothing was rewritten.
    let old = head_after_first.expect("snapshot");
    let proof = reg.prove_consistency(old.size as usize);
    assert!(verify_consistency_heads(&old, &head, &proof));
    println!(
        "  [3] consistency proof: head at size {} extends to size {}",
        old.size, head.size
    );

    // 4. Tamper demonstration: a forged head fails.
    let mut forged = reg.tree_head();
    forged.root[0] ^= 1;
    assert!(forged.verify(&reg.operator_key()).is_err());
    println!("  [4] forged tree head rejected");

    // 5. Public counts anyone can check against census data (§4.2).
    println!(
        "Public aggregates: {} active registrations, {} envelopes committed, \
         {} challenges revealed, {} ballots",
        reg.active_count(),
        election.ledger().envelopes.committed_count(),
        election.ledger().envelopes.revealed_count(),
        election.ledger().ballots.len()
    );
    election
}

fn main() {
    println!("== Ledger audit walkthrough ==");
    let memory = run_audit(LedgerBackend::InMemory, 5);
    println!();
    // The same audit passes unchanged on a durable ledger, and lands on
    // the same heads: the write-ahead log commits the same flat tree, so
    // auditors need no backend at all.
    let dir = std::env::temp_dir().join(format!("vg-audit-ledger-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = run_audit(
        LedgerBackend::Durable {
            dir: dir.clone(),
            fsync: false,
        },
        5,
    );
    let head = |e: &Election<Tallying>| {
        let h = e.ledger().registration.tree_head();
        (h.size, h.root)
    };
    assert_eq!(head(&memory), head(&durable), "backends disagree");
    println!("Both backends publish the same registration head.");
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}
