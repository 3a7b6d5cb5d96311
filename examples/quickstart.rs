//! Quickstart: a two-voter election end to end through the phase-typed
//! session API.
//!
//! Run with: `cargo run --example quickstart --release`

use votegral::crypto::{HmacDrbg, OsRng, Rng};
use votegral::ledger::VoterId;
use votegral::votegral::ElectionBuilder;

fn main() {
    // Deterministic RNG for a reproducible demo; swap for OsRng in
    // anything real.
    let mut rng: Box<dyn Rng + Send> = if std::env::var_os("VOTEGRAL_OS_RNG").is_some() {
        Box::new(OsRng::new())
    } else {
        Box::new(HmacDrbg::from_u64(2025))
    };
    let rng = rng.as_mut();

    println!("== Votegral quickstart ==");
    println!("Setting up an election: 2 voters, 3 ballot options…");
    let mut election = ElectionBuilder::new().voters(2).options(3).build(rng);

    // Voter 1 registers in person, creating one real + one fake credential.
    println!("Voter 1 registers (1 real + 1 fake credential)…");
    let (outcome, vsd1) = election
        .register_and_activate(VoterId(1), 1, rng)
        .expect("registration succeeds");
    println!(
        "  booth events: {:?}",
        outcome
            .events
            .iter()
            .map(|e| format!("{e:?}"))
            .collect::<Vec<_>>()
    );
    println!("  activated credentials: {}", vsd1.credentials.len());

    // Voter 2 registers with no fakes.
    println!("Voter 2 registers (no fakes)…");
    let (_, vsd2) = election
        .register_and_activate(VoterId(2), 0, rng)
        .expect("registration succeeds");

    // Registration closes; the session moves to the voting phase (from
    // here on, `register_and_activate` is a compile error).
    let mut voting = election.open_voting();

    // Votes: voter 1 really wants option 2 but is coerced toward 0;
    // they cast the real vote secretly and hand the coercer a fake.
    println!("Voter 1 casts real vote for option 2, fake (coerced) vote for option 0.");
    voting.cast(&vsd1.credentials[0], 2, rng).unwrap();
    voting.cast(&vsd1.credentials[1], 0, rng).unwrap();
    println!("Voter 2 casts vote for option 1.");
    voting.cast(&vsd2.credentials[0], 1, rng).unwrap();

    // Voting closes; the session moves to the tally phase.
    let tallying = voting.close();
    println!("Tallying (4-mixer cascades, deterministic tagging, threshold decryption)…");
    let transcript = tallying.tally(rng).expect("tally runs");
    println!("  counts: {:?}", transcript.result.counts);
    println!("  counted: {}", transcript.result.counted);
    println!(
        "  unmatched (fake-credential ballots): {}",
        transcript.result.unmatched
    );

    print!("Independent verification of the full transcript… ");
    tallying.verify(&transcript).expect("verifies");
    println!("OK");

    assert_eq!(transcript.result.counts, vec![0, 1, 1]);
    println!("The coerced vote did not count; the real votes did.");
}
