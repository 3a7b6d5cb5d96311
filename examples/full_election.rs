//! A fuller election: a population of voters with realistic behaviour
//! (fake-credential and vote distributions), batched casting through the
//! ledger's admission fast path, re-voting, a coercion attempt, and
//! complete universal verification.
//!
//! Run with: `cargo run --example full_election --release [n_voters]`

use votegral::crypto::HmacDrbg;
use votegral::ledger::VoterId;
use votegral::sim::{FakeCredentialDist, VoteDist};
use votegral::trip::vsd::{ActivatedCredential, Vsd};
use votegral::votegral::ElectionBuilder;

fn main() {
    let n_voters: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let n_options = 3u32;
    let mut rng = HmacDrbg::from_u64(99);

    println!("== Full election: {n_voters} voters, {n_options} options ==");
    let mut election = ElectionBuilder::new()
        .voters(n_voters)
        .options(n_options)
        .build(&mut rng);
    let d_c = FakeCredentialDist::default();
    let d_v = VoteDist::weighted(&[3.0, 2.0, 1.0]);

    // Registration phase.
    let mut devices: Vec<Vsd> = Vec::new();
    let mut fakes_created = 0usize;
    for v in 1..=n_voters {
        let n_fakes = d_c.sample(&mut rng);
        fakes_created += n_fakes;
        let (_, vsd) = election
            .register_and_activate(VoterId(v), n_fakes, &mut rng)
            .expect("registration");
        devices.push(vsd);
    }
    println!(
        "Registered {n_voters} voters ({} fake credentials among them).",
        fakes_created
    );

    // Voting phase: sample every voter's ballots, then cast the whole
    // wave through the batch fast path.
    let mut voting = election.open_voting();
    let mut expected = vec![0u64; n_options as usize];
    let mut wave: Vec<(&ActivatedCredential, u32)> = Vec::new();
    let mut revotes: Vec<(&ActivatedCredential, u32)> = Vec::new();
    for (i, vsd) in devices.iter().enumerate() {
        let v = i as u64 + 1;
        // Real vote.
        let vote = d_v.sample(&mut rng);
        expected[vote as usize] += 1;
        wave.push((&vsd.credentials[0], vote));
        // Every fake credential casts a decoy ballot.
        for fake in &vsd.credentials[1..] {
            wave.push((fake, d_v.sample(&mut rng)));
        }
        // Some voters change their mind and re-vote with the same real
        // credential (only the last counts).
        if v.is_multiple_of(4) {
            let new_vote = d_v.sample(&mut rng);
            expected[vote as usize] -= 1;
            expected[new_vote as usize] += 1;
            revotes.push((&vsd.credentials[0], new_vote));
        }
    }
    let t0 = std::time::Instant::now();
    voting.cast_batch(&wave, &mut rng).expect("wave accepted");
    voting
        .cast_batch(&revotes, &mut rng)
        .expect("revotes accepted");
    println!(
        "Cast {} ballots (+{} revotes) in {:.2}s via cast_batch.",
        wave.len(),
        revotes.len(),
        t0.elapsed().as_secs_f64()
    );
    println!("Ballots on the ledger: {}", voting.ledger().ballots.len());

    // Tally phase.
    let tallying = voting.close();
    let t0 = std::time::Instant::now();
    let transcript = tallying.tally(&mut rng).expect("tally");
    println!(
        "Tally finished in {:.2}s: counts {:?}",
        t0.elapsed().as_secs_f64(),
        transcript.result.counts
    );
    println!(
        "  counted {} · superseded {} · unmatched(fakes) {}",
        transcript.result.counted, transcript.superseded, transcript.result.unmatched
    );

    let t0 = std::time::Instant::now();
    let verified = tallying.verify(&transcript).expect("verifies");
    println!(
        "Universal verification finished in {:.2}s and agrees.",
        t0.elapsed().as_secs_f64()
    );
    assert_eq!(verified.counts, expected, "tally matches ground truth");
    println!("Ground truth matches: {expected:?}");
}
