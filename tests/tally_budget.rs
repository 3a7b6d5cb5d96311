//! The tally when the core budget has no free slot.
//!
//! `tally` draws its coins in `join`'s first closure and runs the ballot
//! chain, which consumes them, in its second. With no free slot `join`
//! runs the first closure to its end, then the second, on the calling
//! thread, so every coin must be drawn before anything waits for one. A
//! tally whose consumer ran first would wait forever on coins no thread
//! draws.
//!
//! Its own test binary, so that no other test in the process takes or
//! returns budget slots while it runs.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use votegral::crypto::drbg::Rng;
use votegral::crypto::par::{default_threads, join, run_jobs};
use votegral::crypto::sha2::Sha256;
use votegral::crypto::HmacDrbg;
use votegral::ledger::VoterId;
use votegral::trip::vsd::ActivatedCredential;
use votegral::votegral::ElectionBuilder;

/// `tests/properties.rs` `batched_pipeline_replays_bit_identically`'s
/// election, cast as a batch: the transcript digest and where the tally
/// leaves the DRBG, both pinned there.
fn pinned_election() -> (String, String) {
    let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
    let mut rng = HmacDrbg::from_u64(4242);
    let mut election = ElectionBuilder::new().voters(3).options(3).build(&mut rng);
    let voters: Vec<VoterId> = (1..=3).map(VoterId).collect();
    let sessions = election
        .register_batch(&voters, &mut rng)
        .expect("registers");
    let mut voting = election.open_voting();
    let votes: Vec<(&ActivatedCredential, u32)> = sessions
        .iter()
        .enumerate()
        .map(|(i, (_, vsd))| (&vsd.credentials[0], (i % 3) as u32))
        .collect();
    voting.cast_batch(&votes, &mut rng).expect("casts");
    let tallying = voting.close();
    let transcript = tallying.tally(&mut rng).expect("tallies");
    let mut h = Sha256::new();
    h.update(format!("{transcript:?}").as_bytes());
    (hex(&h.finalize()), hex(&rng.bytes32()))
}

#[test]
fn tally_finishes_with_no_free_budget_slot() {
    // One `run_jobs` section takes every free slot: job 0 runs the
    // election, each other job holds its participant's slot until the
    // election is done. A watcher gives the section a deadline, so a
    // tally that waits on itself fails the test instead of hanging it.
    let (pins_tx, pins_rx) = mpsc::channel();
    let section = std::thread::spawn(move || {
        let done = (Mutex::new(false), Condvar::new());
        let jobs: Vec<usize> = (0..default_threads()).collect();
        let mut outcomes = run_jobs(&jobs, jobs.len(), |&job| {
            if job == 0 {
                let here = || std::thread::current().id();
                let (a, b) = join(2, here, here);
                assert_eq!(a, b, "a budget slot was free");
                let pins = pinned_election();
                *done.0.lock().expect("no holder panics") = true;
                done.1.notify_all();
                return Some(pins);
            }
            let guard = done.0.lock().expect("no holder panics");
            drop(done.1.wait_while(guard, |done| !*done));
            None
        });
        let _ = pins_tx.send(outcomes.swap_remove(0));
    });
    let pins = match pins_rx.recv_timeout(Duration::from_secs(60)) {
        Ok(pins) => pins,
        Err(RecvTimeoutError::Timeout) => panic!("the tally hung with no free budget slot"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(section.join().expect_err("the section sent nothing"))
        }
    };
    section.join().expect("the section finished");
    let (transcript, next) = pins.expect("job 0 runs the election");
    assert_eq!(
        transcript, "3014678042c5a88a7df39f89e1e4fe969099de2d3d595c9651f4a37aafeaa426",
        "tally transcript bytes moved"
    );
    assert_eq!(
        next, "7f59740fee8547c1f99fb03607474fc2a0eaa2748f8606273a00ce200eda035f",
        "the tally left the DRBG elsewhere"
    );
}
