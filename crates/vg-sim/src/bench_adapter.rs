//! TRIP-Core / Votegral as a [`BenchSystem`] (the "TRIP-Core"
//! configuration of §7.3, which omits all QR-related tasks to isolate the
//! cryptographic operations).

use vg_baselines::BenchSystem;
use vg_crypto::{HmacDrbg, Rng};
use vg_ledger::{LedgerBackend, VoterId};
use vg_trip::protocol::{activate_all, register_voter};
use vg_trip::setup::TripConfig;
use vg_trip::vsd::ActivatedCredential;
use vg_votegral::{Election, ElectionBuilder, Voting};

/// The full Votegral pipeline driven through the benchmark trait.
///
/// The wrapped session is held in the `Voting` phase: the `BenchSystem`
/// trait interleaves registration and casting freely, and the TRIP layer
/// (`register_voter`/`activate_all`) is phase-agnostic, so registrations
/// go through the protocol functions directly while casts use the
/// session.
pub struct VotegralCore {
    election: Election<Voting>,
    credentials: Vec<ActivatedCredential>,
    n_voters: usize,
}

impl VotegralCore {
    /// Sets up an election for `n_voters` and `n_options` (setup/DKG time
    /// is excluded from the phases, as in the paper).
    pub fn new(n_voters: usize, n_options: u32, rng: &mut dyn Rng) -> Self {
        Self::with_backend(n_voters, n_options, LedgerBackend::InMemory, 1, rng)
    }

    /// Like [`VotegralCore::new`] with an explicit ledger backend and
    /// batch thread count (the scaling-experiment entry point).
    pub fn with_backend(
        n_voters: usize,
        n_options: u32,
        backend: LedgerBackend,
        threads: usize,
        rng: &mut dyn Rng,
    ) -> Self {
        let mut config = TripConfig::with_voters(n_voters as u64);
        // One envelope per voter is enough for the credential-per-voter
        // benchmark; keep the booth floor.
        config.envelopes_per_voter = 1;
        config.backend = backend;
        Self {
            election: ElectionBuilder::new()
                .trip_config(config)
                .options(n_options)
                .threads(threads)
                .build(rng)
                .open_voting(),
            credentials: Vec::new(),
            n_voters,
        }
    }

    /// Access to the wrapped election (used by the figure binaries).
    pub fn election(&self) -> &Election<Voting> {
        &self.election
    }

    /// Runs the tally and then an independent (secret-free) verification
    /// of its transcript under the given mix-proof
    /// [`VerifyMode`](vg_votegral::VerifyMode),
    /// returning the counts with the two phase latencies in milliseconds.
    /// This is the universal-verifiability cost the Fig 5 tally workloads
    /// leave unmeasured; `VerifyMode::Batched` is what a production
    /// auditor would run.
    pub fn tally_and_verify(
        &mut self,
        mode: vg_votegral::VerifyMode,
        rng: &mut dyn Rng,
    ) -> (Vec<u64>, f64, f64) {
        use std::time::Instant;
        let t0 = Instant::now();
        let transcript = vg_votegral::tally(
            &self.election.trip.authority,
            &self.election.trip.ledger,
            self.election.vote_config,
            &self.election.trip.kiosk_registry,
            self.election.mixers,
            rng,
        )
        .expect("tally runs");
        let tally_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let verified = vg_votegral::verify_tally_with(
            &transcript,
            &self.election.trip.ledger,
            &vg_votegral::verifier::PublicAuthority::of(&self.election.trip.authority),
            &self.election.trip.kiosk_registry,
            self.election.mixers,
            mode,
            self.election.threads,
        )
        .expect("transcript verifies");
        let verify_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(verified, transcript.result, "verifier re-derives result");
        (transcript.result.counts, tally_ms, verify_ms)
    }

    /// Casts every vote through the batch fast path instead of one by
    /// one (identical ledger contents, amortized admission).
    pub fn vote_all_batched(&mut self, votes: &[u32], rng: &mut dyn Rng) {
        assert_eq!(votes.len(), self.n_voters, "one vote per voter");
        assert_eq!(
            self.credentials.len(),
            votes.len(),
            "register_all must run before voting"
        );
        let pairs: Vec<(&ActivatedCredential, u32)> =
            self.credentials.iter().zip(votes.iter().copied()).collect();
        self.election
            .cast_batch(&pairs, rng)
            .expect("batch accepted");
    }
}

impl BenchSystem for VotegralCore {
    fn name(&self) -> &'static str {
        "TRIP-Core"
    }

    /// Registration = the TRIP crypto path: check-in MAC, credential
    /// generation, IZKP, signatures, check-out posting, activation checks.
    fn register_all(&mut self, rng: &mut dyn Rng) {
        for v in 1..=self.n_voters as u64 {
            let mut outcome = register_voter(&mut self.election.trip, VoterId(v), 0, rng)
                .expect("registration succeeds");
            let vsd =
                activate_all(&mut self.election.trip, &mut outcome).expect("activation succeeds");
            self.credentials
                .push(vsd.credentials.into_iter().next().expect("one credential"));
        }
    }

    fn vote_all(&mut self, votes: &[u32], rng: &mut dyn Rng) {
        assert_eq!(votes.len(), self.n_voters, "one vote per voter");
        for (cred, &v) in self.credentials.iter().zip(votes.iter()) {
            self.election.cast(cred, v, rng).expect("ballot accepted");
        }
    }

    fn tally(&mut self, rng: &mut dyn Rng) -> Vec<u64> {
        // The trait interleaves phases, so tally through the free
        // function rather than consuming the session into `Tallying`.
        let transcript = vg_votegral::tally(
            &self.election.trip.authority,
            &self.election.trip.ledger,
            self.election.vote_config,
            &self.election.trip.kiosk_registry,
            self.election.mixers,
            rng,
        )
        .expect("tally runs");
        transcript.result.counts
    }
}

/// Convenience: a deterministic RNG for benchmark harnesses.
pub fn bench_rng(seed: u64) -> HmacDrbg {
    HmacDrbg::from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::VoteDist;

    #[test]
    fn votegral_core_through_trait() {
        let mut rng = bench_rng(1);
        let mut sys = VotegralCore::new(3, 2, &mut rng);
        sys.register_all(&mut rng);
        sys.vote_all(&[1, 0, 1], &mut rng);
        assert_eq!(sys.tally(&mut rng), vec![1, 2]);
        assert!(!sys.quadratic_tally());
    }

    #[test]
    fn tally_and_verify_agrees_across_modes() {
        // The same election verified under both modes yields the same
        // counts; the DRBG is re-seeded per run so the transcripts match.
        let run = |mode| {
            let mut rng = bench_rng(7);
            let mut sys = VotegralCore::new(3, 2, &mut rng);
            sys.register_all(&mut rng);
            sys.vote_all(&[1, 1, 0], &mut rng);
            let (counts, _, _) = sys.tally_and_verify(mode, &mut rng);
            counts
        };
        let seq = run(vg_votegral::VerifyMode::Sequential);
        let bat = run(vg_votegral::VerifyMode::Batched);
        assert_eq!(seq, bat);
        assert_eq!(seq, vec![1, 2]);
    }

    #[test]
    fn sharded_batched_core_matches_sequential() {
        // The scaling-experiment entry point (sharded ledger + batched
        // casting) counts exactly like the sequential in-memory path.
        let votes = [1u32, 0, 1, 2];
        let mut rng = bench_rng(4);
        let mut seq = VotegralCore::new(4, 3, &mut rng);
        seq.register_all(&mut rng);
        seq.vote_all(&votes, &mut rng);
        let expected = seq.tally(&mut rng);

        let mut rng = bench_rng(4);
        let mut batched = VotegralCore::with_backend(4, 3, LedgerBackend::sharded(4), 2, &mut rng);
        batched.register_all(&mut rng);
        batched.vote_all_batched(&votes, &mut rng);
        assert_eq!(batched.tally(&mut rng), expected);
        assert_eq!(expected, vec![1, 2, 1]);
    }

    #[test]
    fn all_four_systems_agree_on_result() {
        // The same vote vector tallied by every system yields identical
        // counts — the cross-system correctness check behind Fig 5.
        let votes = {
            let mut rng = bench_rng(2);
            VoteDist::uniform(3).sample_many(5, &mut rng)
        };
        let mut expected = vec![0u64; 3];
        for &v in &votes {
            expected[v as usize] += 1;
        }

        let mut rng = bench_rng(3);
        let mut votegral = VotegralCore::new(5, 3, &mut rng);
        votegral.register_all(&mut rng);
        votegral.vote_all(&votes, &mut rng);
        assert_eq!(votegral.tally(&mut rng), expected, "votegral");

        let mut swiss = vg_baselines::SwissPost::new(5, 3, &mut rng);
        swiss.register_all(&mut rng);
        swiss.vote_all(&votes, &mut rng);
        assert_eq!(swiss.tally(&mut rng), expected, "swisspost");

        let mut va = vg_baselines::VoteAgain::new(5, 3, &mut rng);
        va.register_all(&mut rng);
        va.vote_all(&votes, &mut rng);
        assert_eq!(va.tally(&mut rng), expected, "voteagain");

        let mut civitas = vg_baselines::Civitas::with_tellers(5, 3, 2, &mut rng);
        civitas.register_all(&mut rng);
        civitas.vote_all(&votes, &mut rng);
        assert_eq!(civitas.tally(&mut rng), expected, "civitas");
    }
}
