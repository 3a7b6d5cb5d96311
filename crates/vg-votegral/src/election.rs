//! High-level election orchestration: the full Votegral lifecycle as a
//! phase-typed session.
//!
//! An election moves through the phases of Fig 3 — register, vote,
//! tally — and the type system enforces that order. [`ElectionBuilder`]
//! produces an [`Election<Registration>`]; consuming transitions move the
//! session forward:
//!
//! ```text
//! ElectionBuilder::new() … .build(rng)        -> Election<Registration>
//! Election<Registration>::open_voting()       -> Election<Voting>
//! Election<Voting>::close()                   -> Election<Tallying>
//! Election<Tallying>::reopen_voting()         -> Election<Voting>   (next round)
//! ```
//!
//! Out-of-phase operations are compile errors, not latent runtime bugs:
//!
//! ```compile_fail
//! use vg_crypto::HmacDrbg;
//! use vg_votegral::election::ElectionBuilder;
//!
//! let mut rng = HmacDrbg::from_u64(1);
//! let mut election = ElectionBuilder::new().voters(1).options(2).build(&mut rng);
//! // ERROR: no `cast` before `.open_voting()` — still in Registration.
//! let _ = election.cast(unimplemented!(), 0, &mut rng);
//! ```
//!
//! ```compile_fail
//! use vg_crypto::HmacDrbg;
//! use vg_votegral::election::ElectionBuilder;
//!
//! let mut rng = HmacDrbg::from_u64(1);
//! let election = ElectionBuilder::new().voters(1).options(2).build(&mut rng);
//! let mut voting = election.open_voting();
//! // ERROR: no `register_batch` after `.open_voting()` — registration is closed.
//! let _ = voting.register_batch(&[], &mut rng);
//! ```
//!
//! ```compile_fail
//! use vg_crypto::HmacDrbg;
//! use vg_votegral::election::ElectionBuilder;
//!
//! let mut rng = HmacDrbg::from_u64(1);
//! let election = ElectionBuilder::new().voters(1).options(2).build(&mut rng);
//! // ERROR: no `tally` before `.open_voting()` and `.close()`.
//! let _ = election.tally(&mut rng);
//! ```

use std::marker::PhantomData;

use vg_crypto::drbg::Rng;
use vg_ledger::{Ledger, LedgerBackend, VoterId};
use vg_service::{ChannelSecurity, DayPlan, IngestMode, PipelineConfig, TransportPlan};
use vg_trip::fleet::{FleetConfig, KioskFleet};
use vg_trip::protocol::RegistrationOutcome;
use vg_trip::setup::{TripConfig, TripSystem};
use vg_trip::vsd::{ActivatedCredential, Vsd};

use crate::ballot::{cast_ballot, cast_ballots, VoteConfig};
use crate::error::VotegralError;
use crate::tally::{tally, ElectionResult, TallyTranscript};
use crate::verifier::{verify_tally, PublicAuthority};

/// Phase marker: voters register and activate credentials.
pub struct Registration(());

/// Phase marker: ballots are cast.
pub struct Voting(());

/// Phase marker: tallying and verification.
pub struct Tallying(());

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Registration {}
    impl Sealed for super::Voting {}
    impl Sealed for super::Tallying {}
}

/// The lifecycle phases an [`Election`] session can be in.
pub trait ElectionPhase: sealed::Sealed {}

impl ElectionPhase for Registration {}
impl ElectionPhase for Voting {}
impl ElectionPhase for Tallying {}

/// How many fake credentials `register_batch` requests per voter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FakesPolicy {
    /// Every voter gets the same number of fakes.
    Fixed(usize),
    /// Voter `v` gets `v mod m` fakes — a cheap deterministic spread for
    /// experiments (`m` must be at least 1).
    Cycling(usize),
}

impl Default for FakesPolicy {
    fn default() -> Self {
        FakesPolicy::Fixed(1)
    }
}

impl FakesPolicy {
    /// Number of fakes for `voter` under this policy.
    pub fn fakes_for(&self, voter: VoterId) -> usize {
        match *self {
            FakesPolicy::Fixed(n) => n,
            FakesPolicy::Cycling(m) => (voter.0 % m.max(1) as u64) as usize,
        }
    }
}

/// Configures and constructs a phase-typed election session.
///
/// ```
/// use vg_crypto::HmacDrbg;
/// use vg_ledger::{LedgerBackend, VoterId};
/// use vg_votegral::election::ElectionBuilder;
///
/// let mut rng = HmacDrbg::from_u64(7);
/// let election = ElectionBuilder::new()
///     .voters(2)
///     .options(3)
///     .backend(LedgerBackend::sharded(4))
///     .threads(2)
///     .build(&mut rng);
/// let sessions = election.trip.config.n_voters;
/// assert_eq!(sessions, 2);
/// ```
#[derive(Clone, Debug)]
pub struct ElectionBuilder {
    trip_config: TripConfig,
    options: u32,
    mixers: usize,
    threads: usize,
    fakes: FakesPolicy,
    transport: TransportPlan,
    pipeline: PipelineConfig,
}

impl Default for ElectionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ElectionBuilder {
    /// Starts from the paper's defaults: 8 voters, 2 options, 4 mixers,
    /// in-memory ledger, single-threaded, one fake per voter.
    pub fn new() -> Self {
        Self {
            trip_config: TripConfig::default(),
            options: 2,
            mixers: vg_shuffle::MixCascade::DEFAULT_MIXERS,
            threads: 1,
            fakes: FakesPolicy::default(),
            transport: TransportPlan::IN_PROCESS,
            pipeline: PipelineConfig::default(),
        }
    }

    /// Number of eligible voters (roster is `1..=n`).
    pub fn voters(mut self, n: u64) -> Self {
        self.trip_config.n_voters = n;
        self
    }

    /// Number of ballot options.
    pub fn options(mut self, n: u32) -> Self {
        self.options = n;
        self
    }

    /// Number of registration kiosks |K| (the fleet runs one concurrent
    /// lane per kiosk).
    pub fn kiosks(mut self, n: usize) -> Self {
        self.trip_config.n_kiosks = n.max(1);
        self
    }

    /// Number of mixers in the tally cascades (the paper uses 4).
    pub fn mixers(mut self, n: usize) -> Self {
        self.mixers = n.max(1);
        self
    }

    /// Ledger storage backend.
    pub fn backend(mut self, backend: LedgerBackend) -> Self {
        self.trip_config.backend = backend;
        self
    }

    /// Durable crash-recoverable ledger storage rooted at `dir`
    /// (fsync-at-flush on). Shorthand for
    /// `backend(LedgerBackend::durable(dir))`; reopening an election on
    /// the same directory with the same setup seed replays the
    /// persisted WAL back to the exact pre-crash ledger heads.
    pub fn storage(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.trip_config.backend = LedgerBackend::durable(dir);
        self
    }

    /// Worker threads for batch registration/casting fast paths.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Fake-credential policy for `register_batch`.
    pub fn fakes(mut self, policy: FakesPolicy) -> Self {
        self.fakes = policy;
        self
    }

    /// Which transport registration runs over: a [`TransportPlan`]
    /// combining the link ([`vg_service::LinkKind::InProcess`], the
    /// zero-copy default, or [`vg_service::LinkKind::Tcp`], the
    /// registrar services behind a framed loopback socket) with the
    /// channel security policy. Every plan produces bit-identical
    /// ledgers and credentials for the same seed — the service layer's
    /// equivalence contract. Anything but the plaintext in-process plan
    /// runs registration on the threaded engine behind the gateway.
    pub fn transport(mut self, transport: impl Into<TransportPlan>) -> Self {
        self.transport = transport.into();
        self
    }

    /// Runs the registration channels under the mutually-authenticated
    /// encrypted handshake (station keys are enrolled at setup alongside
    /// the officials' signing keys). Composes with any link:
    /// `.transport(TransportPlan::TCP).secure(true)` is the deployment
    /// shape, secure in-process runs the same handshake without a
    /// socket. Ledgers and credentials stay bit-identical either way.
    pub fn secure(mut self, on: bool) -> Self {
        self.transport.security = if on {
            ChannelSecurity::Secure
        } else {
            ChannelSecurity::Plaintext
        };
        self
    }

    /// Number of polling-station connections registration runs over.
    /// Must not exceed the deployment's kiosk count: the day returns a
    /// typed [`vg_trip::TripError::InvalidConfig`] rather than silently
    /// clamping (kiosks split into contiguous chunks, so `1 <= stations
    /// <= |K|` is a hard invariant). More than one routes registration
    /// through the threaded engine: stations drive disjoint kiosk
    /// chunks concurrently and the registrar's ingest layer restores
    /// global queue order, so the ledgers stay bit-identical to a
    /// single-station run.
    pub fn stations(mut self, n: usize) -> Self {
        self.pipeline.stations = n.max(1);
        self
    }

    /// Sets nothing: the registrar's ingest layer is one
    /// verify-and-commit lane per ledger on the commit sequencer's
    /// thread, and ledgers were bit-identical across worker counts while
    /// the count existed. Kept only because the frozen benchmark adapter
    /// (`bench/e2e/src/adapter.rs`, its only caller) names it; ROADMAP
    /// item 2's benchmark-only PR stops calling it and deletes it.
    pub fn ingest_workers(self, _n: usize) -> Self {
        self
    }

    /// Background-refiller low-water mark, in sessions. Non-zero gives
    /// every station a dedicated refiller thread (owning its own print
    /// client) that keeps ceremony material precomputed ahead of the
    /// booths all day; `0` (the default) refills synchronously at window
    /// boundaries.
    pub fn low_water(mut self, sessions: usize) -> Self {
        self.pipeline.low_water = sessions;
        self
    }

    /// When the registrar's commit sequencer runs admission sweeps:
    /// [`IngestMode::Barrier`] (only at sync barriers — the default) or
    /// [`IngestMode::Background`] (also in channel-idle gaps, overlapping
    /// sweeps with the next window's ceremonies). Selecting `Background`
    /// routes registration through the threaded engine.
    pub fn ingest(mut self, mode: IngestMode) -> Self {
        self.pipeline.ingest = mode;
        self
    }

    /// Activate groups of this many pool windows behind one shared
    /// prefix barrier (default 1 = a barrier every window). Larger lags
    /// amortize barrier and verification-fold fixed costs at the price
    /// of O(lag × pool batch) peak memory.
    pub fn activation_lag(mut self, windows: usize) -> Self {
        self.pipeline.activation_lag = windows.max(1);
        self
    }

    /// Replaces the whole TRIP deployment configuration (keeps any
    /// voters/backend already set on it).
    pub fn trip_config(mut self, config: TripConfig) -> Self {
        self.trip_config = config;
        self
    }

    /// Runs TRIP setup (Fig 7) and opens the registration phase.
    pub fn build(self, rng: &mut dyn Rng) -> Election<Registration> {
        let trip = TripSystem::setup(self.trip_config.clone(), rng);
        self.build_with_system(trip)
    }

    /// Like [`ElectionBuilder::build`], but wraps an existing TRIP system
    /// (for adversarial setups with non-default kiosk behaviour).
    pub fn build_with_system(self, trip: TripSystem) -> Election<Registration> {
        Election {
            trip,
            vote_config: VoteConfig::new(self.options),
            mixers: self.mixers,
            threads: self.threads,
            fakes: self.fakes,
            transport: self.transport,
            pipeline: self.pipeline,
            _phase: PhantomData,
        }
    }
}

/// A complete Votegral election in phase `P`.
///
/// See the [module docs](self) for the phase diagram. Construct with
/// [`ElectionBuilder`].
pub struct Election<P: ElectionPhase = Registration> {
    /// The TRIP registration system (kiosks, officials, ledger, …).
    pub trip: TripSystem,
    /// The ballot option configuration.
    pub vote_config: VoteConfig,
    /// Number of mixers in the tally cascades (the paper uses 4).
    pub mixers: usize,
    /// Worker threads for batch fast paths.
    pub threads: usize,
    /// Fake-credential policy for batch registration.
    pub fakes: FakesPolicy,
    /// Transport plan (link + channel security) the registration
    /// services run over.
    pub transport: TransportPlan,
    /// Threaded-engine tuning (stations, refiller low-water mark,
    /// ingest mode, activation lag). With the lock-step
    /// defaults on the plaintext in-process transport, registration runs
    /// inline on `vg_trip::LocalBoundary` (see [`vg_service::run_day`]).
    pub pipeline: PipelineConfig,
    _phase: PhantomData<P>,
}

impl<P: ElectionPhase> Election<P> {
    /// The public bulletin board.
    pub fn ledger(&self) -> &Ledger {
        &self.trip.ledger
    }

    /// Durable commit barrier: drains buffered WAL appends on all three
    /// ledgers, group-fsyncs them (when the backend enables fsync) and
    /// persists the current signed tree heads. A no-op on volatile
    /// backends. After this returns `Ok`, a crash-and-reopen on the same
    /// storage directory replays to exactly the heads current now. An IO
    /// failure surfaces typed (and poisons the store until restart)
    /// instead of panicking.
    pub fn persist_ledgers(&mut self) -> Result<(), vg_ledger::WalError> {
        self.trip.ledger.persist()
    }

    fn into_phase<Q: ElectionPhase>(self) -> Election<Q> {
        Election {
            trip: self.trip,
            vote_config: self.vote_config,
            mixers: self.mixers,
            threads: self.threads,
            fakes: self.fakes,
            transport: self.transport,
            pipeline: self.pipeline,
            _phase: PhantomData,
        }
    }
}

impl Election<Registration> {
    /// A builder with the paper's defaults.
    pub fn builder() -> ElectionBuilder {
        ElectionBuilder::new()
    }

    /// The registration engine for this session: a [`KioskFleet`] over
    /// the deployment's kiosks, seeded from the caller's RNG (so a seeded
    /// run replays bit-identically) and using the session's thread
    /// budget for precompute, ceremonies and batched admission.
    fn fleet(&self, rng: &mut dyn Rng) -> KioskFleet {
        KioskFleet::new(FleetConfig {
            pool_batch: 256,
            threads: self.threads,
            seed: rng.bytes32(),
        })
    }

    /// Registers a voter (one real credential plus `n_fakes` fakes) and
    /// activates every credential on a fresh device.
    ///
    /// Routed through the kiosk-fleet engine over the session's
    /// [`TransportPlan`]: the session's expensive material comes from a
    /// precomputed ceremony pool and every check is batched, so a loop of
    /// this call and one [`Election::register_batch`] differ only in
    /// amortization, never in outcome shape.
    pub fn register_and_activate(
        &mut self,
        voter: VoterId,
        n_fakes: usize,
        rng: &mut dyn Rng,
    ) -> Result<(RegistrationOutcome, Vsd), VotegralError> {
        let mut session = None;
        self.register_and_activate_each(&[(voter, n_fakes)], rng, |outcome, vsd| {
            session = Some((outcome, vsd));
        })?;
        Ok(session.expect("one session planned"))
    }

    /// Registers and activates a batch of voters, applying the builder's
    /// fakes policy. Results come back in input order.
    ///
    /// The batch is one [`KioskFleet`] run over the session's
    /// [`TransportPlan`]: per-session material is precomputed pool-batch-wise
    /// on worker threads ahead of each ceremony window, sessions fan out
    /// across the deployment's kiosks (session `i` on kiosk `i mod |K|`),
    /// and envelope commitments, check-out records and activation checks
    /// all go through batched random-linear-combination admission.
    /// If a voter appears twice, only the last registration's credentials
    /// activate (re-registration semantics, §3.2).
    pub fn register_batch(
        &mut self,
        voters: &[VoterId],
        rng: &mut dyn Rng,
    ) -> Result<Vec<(RegistrationOutcome, Vsd)>, VotegralError> {
        let plan: Vec<(VoterId, usize)> = voters
            .iter()
            .map(|&voter| (voter, self.fakes.fakes_for(voter)))
            .collect();
        let mut sessions = Vec::with_capacity(plan.len());
        self.register_and_activate_each(&plan, rng, |outcome, vsd| {
            sessions.push((outcome, vsd));
        })?;
        Ok(sessions)
    }

    /// Streaming registration + activation: each session's
    /// `(outcome, device)` pair goes to `sink` as its pool window
    /// completes, so peak memory stays O(pool batch) — the entry point
    /// for million-voter registration days. One [`vg_service::run_day`]
    /// under the session's transport and pipeline settings: registration
    /// and activation interleave per window (or per
    /// `activation_lag` windows on the threaded engine).
    pub fn register_and_activate_each(
        &mut self,
        plan: &[(VoterId, usize)],
        rng: &mut dyn Rng,
        sink: impl FnMut(RegistrationOutcome, Vsd),
    ) -> Result<(), VotegralError> {
        let fleet = self.fleet(rng);
        let day = DayPlan {
            transport: self.transport,
            pipeline: self.pipeline,
            activate: true,
            chaos: None,
        };
        vg_service::run_day(&fleet, &mut self.trip, plan, &day, sink)?;
        Ok(())
    }

    /// Closes registration and opens the voting phase.
    pub fn open_voting(self) -> Election<Voting> {
        self.into_phase()
    }
}

impl Election<Voting> {
    /// Casts a ballot with any activated credential (real or fake).
    pub fn cast(
        &mut self,
        credential: &ActivatedCredential,
        vote: u32,
        rng: &mut dyn Rng,
    ) -> Result<usize, VotegralError> {
        let apk = self.trip.authority.public_key;
        cast_ballot(
            credential,
            vote,
            self.vote_config,
            &apk,
            &mut self.trip.ledger,
            rng,
        )
    }

    /// Casts a batch of ballots through the ledger's batch fast path
    /// (parallel admission checks and leaf hashing, one signed head for
    /// the batch). Consumes the RNG exactly as the equivalent sequence
    /// of [`Election::cast`] calls would, so both paths produce
    /// bit-identical ledgers.
    pub fn cast_batch(
        &mut self,
        votes: &[(&ActivatedCredential, u32)],
        rng: &mut dyn Rng,
    ) -> Result<Vec<usize>, VotegralError> {
        let apk = self.trip.authority.public_key;
        cast_ballots(
            votes,
            self.vote_config,
            &apk,
            &mut self.trip.ledger,
            self.threads,
            rng,
        )
    }

    /// Closes voting and opens the tally phase.
    pub fn close(self) -> Election<Tallying> {
        self.into_phase()
    }
}

impl Election<Tallying> {
    /// Runs the tally, producing the publicly verifiable transcript.
    pub fn tally(&self, rng: &mut dyn Rng) -> Result<TallyTranscript, VotegralError> {
        tally(
            &self.trip.authority,
            &self.trip.ledger,
            self.vote_config,
            &self.trip.kiosk_registry,
            self.mixers,
            rng,
        )
    }

    /// Independently verifies a tally transcript (no secrets used).
    ///
    /// Mix proofs go through the batched verification path; see
    /// [`Election::verify_with_mode`] for the explicit knob.
    pub fn verify(&self, transcript: &TallyTranscript) -> Result<ElectionResult, VotegralError> {
        verify_tally(
            transcript,
            &self.trip.ledger,
            &PublicAuthority::of(&self.trip.authority),
            &self.trip.kiosk_registry,
            self.mixers,
        )
    }

    /// Verifies a tally transcript with an explicit mix-proof
    /// [`vg_shuffle::VerifyMode`], using the session's thread budget.
    pub fn verify_with_mode(
        &self,
        transcript: &TallyTranscript,
        mode: vg_shuffle::VerifyMode,
    ) -> Result<ElectionResult, VotegralError> {
        crate::verifier::verify_tally_with(
            transcript,
            &self.trip.ledger,
            &PublicAuthority::of(&self.trip.authority),
            &self.trip.kiosk_registry,
            self.mixers,
            mode,
            self.threads,
        )
    }

    /// Opens the next voting round over the same registrations (§3.1:
    /// credentials are reusable across successive elections).
    pub fn reopen_voting(self) -> Election<Voting> {
        self.into_phase()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::HmacDrbg;

    fn small_election(seed: u64, n_voters: u64) -> (Election<Registration>, HmacDrbg) {
        let mut rng = HmacDrbg::from_u64(seed);
        let election = ElectionBuilder::new()
            .voters(n_voters)
            .options(3)
            .build(&mut rng);
        (election, rng)
    }

    #[test]
    fn real_votes_count_fake_votes_do_not() {
        let (mut election, mut rng) = small_election(1, 3);
        // Voter 1: registers with 1 fake; real vote for option 2, fake
        // vote (under coercion) for option 0.
        let (_, vsd1) = election
            .register_and_activate(VoterId(1), 1, &mut rng)
            .unwrap();
        // Voter 2: no fakes, votes option 1.
        let (_, vsd2) = election
            .register_and_activate(VoterId(2), 0, &mut rng)
            .unwrap();

        let mut voting = election.open_voting();
        voting.cast(&vsd1.credentials[0], 2, &mut rng).unwrap(); // real
        voting.cast(&vsd1.credentials[1], 0, &mut rng).unwrap(); // fake
        voting.cast(&vsd2.credentials[0], 1, &mut rng).unwrap();

        let tallying = voting.close();
        let transcript = tallying.tally(&mut rng).expect("tally runs");
        assert_eq!(transcript.result.counts, vec![0, 1, 1]);
        assert_eq!(transcript.result.counted, 2);
        // One fake ballot went unmatched (dummies: none, 3 ballots ≥ 2).
        assert_eq!(transcript.result.unmatched, 1);

        // Universal verifiability: an independent verifier agrees.
        let verified = tallying.verify(&transcript).expect("verifies");
        assert_eq!(verified, transcript.result);
    }

    #[test]
    fn register_batch_applies_fakes_policy() {
        let mut rng = HmacDrbg::from_u64(11);
        let mut election = ElectionBuilder::new()
            .voters(3)
            .options(2)
            .fakes(FakesPolicy::Cycling(2))
            .build(&mut rng);
        let sessions = election
            .register_batch(&[VoterId(1), VoterId(2), VoterId(3)], &mut rng)
            .expect("registers");
        // v mod 2 fakes: voter 1 → 1, voter 2 → 0, voter 3 → 1.
        assert_eq!(sessions[0].1.credentials.len(), 2);
        assert_eq!(sessions[1].1.credentials.len(), 1);
        assert_eq!(sessions[2].1.credentials.len(), 2);
        assert_eq!(election.trip.ledger.registration.active_count(), 3);
    }

    #[test]
    fn multi_kiosk_fleet_registration_runs_the_full_lifecycle() {
        let mut rng = HmacDrbg::from_u64(17);
        let mut election = ElectionBuilder::new()
            .voters(6)
            .options(2)
            .kiosks(3)
            .threads(2)
            .fakes(FakesPolicy::Fixed(1))
            .build(&mut rng);
        assert_eq!(election.trip.kiosks.len(), 3);
        let voters: Vec<VoterId> = (1..=6).map(VoterId).collect();
        let sessions = election.register_batch(&voters, &mut rng).unwrap();
        assert_eq!(election.trip.ledger.registration.active_count(), 6);
        // Sessions were spread over the fleet: every kiosk issued some
        // check-outs.
        let kiosk_pks: std::collections::HashSet<_> = sessions
            .iter()
            .map(|(o, _)| o.believed_real.receipt.checkout_qr.kiosk_pk)
            .collect();
        assert_eq!(kiosk_pks.len(), 3);
        let mut voting = election.open_voting();
        for (_, vsd) in &sessions {
            voting.cast(&vsd.credentials[0], 1, &mut rng).unwrap();
        }
        let tallying = voting.close();
        let transcript = tallying.tally(&mut rng).unwrap();
        assert_eq!(transcript.result.counts, vec![0, 6]);
        tallying.verify(&transcript).expect("verifies");
    }

    #[test]
    fn pipelined_registration_matches_lockstep() {
        // The threaded engine (stations + refiller + background ingest +
        // lagged activation) is invisible in the ledgers and devices.
        let run = |pipelined: bool| {
            let mut rng = HmacDrbg::from_u64(77);
            let mut builder = ElectionBuilder::new()
                .voters(5)
                .options(2)
                .kiosks(4)
                .threads(2)
                .fakes(FakesPolicy::Cycling(2));
            if pipelined {
                builder = builder
                    .stations(2)
                    .low_water(4)
                    .ingest(IngestMode::Background)
                    .activation_lag(3);
            }
            let mut election = builder.build(&mut rng);
            let voters: Vec<VoterId> = (1..=5).map(VoterId).collect();
            let sessions = election.register_batch(&voters, &mut rng).unwrap();
            (
                election.ledger().registration.tree_head().root,
                election.ledger().envelopes.tree_head().root,
                sessions
                    .iter()
                    .map(|(_, vsd)| vsd.credentials.len())
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn cast_batch_matches_sequential_cast() {
        // The same seeded RNG driven through cast_batch and through a
        // loop of cast calls yields bit-identical ballot ledgers.
        let run = |batch: bool| {
            let (mut election, mut rng) = small_election(21, 2);
            let sessions = election
                .register_batch(&[VoterId(1), VoterId(2)], &mut rng)
                .unwrap();
            let creds: Vec<&ActivatedCredential> = sessions
                .iter()
                .map(|(_, vsd)| &vsd.credentials[0])
                .collect();
            let mut voting = election.open_voting();
            if batch {
                voting
                    .cast_batch(&[(creds[0], 2), (creds[1], 1)], &mut rng)
                    .unwrap();
            } else {
                voting.cast(creds[0], 2, &mut rng).unwrap();
                voting.cast(creds[1], 1, &mut rng).unwrap();
            }
            let tallying = voting.close();
            let transcript = tallying.tally(&mut rng).unwrap();
            (
                tallying.ledger().ballots.tree_head().root,
                transcript.result,
            )
        };
        let (head_seq, result_seq) = run(false);
        let (head_batch, result_batch) = run(true);
        assert_eq!(head_seq, head_batch, "identical ballot ledger heads");
        assert_eq!(result_seq, result_batch, "identical results");
    }

    #[test]
    fn sharded_backend_runs_the_full_lifecycle() {
        let mut rng = HmacDrbg::from_u64(31);
        let mut election = ElectionBuilder::new()
            .voters(2)
            .options(2)
            .backend(LedgerBackend::sharded(4))
            .threads(2)
            .build(&mut rng);
        assert_eq!(
            election.ledger().backend(),
            LedgerBackend::Sharded { shards: 4 }
        );
        let sessions = election
            .register_batch(&[VoterId(1), VoterId(2)], &mut rng)
            .unwrap();
        let mut voting = election.open_voting();
        let votes: Vec<(&ActivatedCredential, u32)> = sessions
            .iter()
            .map(|(_, vsd)| (&vsd.credentials[0], 1u32))
            .collect();
        voting.cast_batch(&votes, &mut rng).unwrap();
        let tallying = voting.close();
        let transcript = tallying.tally(&mut rng).unwrap();
        assert_eq!(transcript.result.counts, vec![0, 2]);
        tallying.verify(&transcript).expect("verifies");
    }

    #[test]
    fn revote_with_same_credential_keeps_last() {
        let (mut election, mut rng) = small_election(2, 2);
        let (_, vsd) = election
            .register_and_activate(VoterId(1), 0, &mut rng)
            .unwrap();
        let mut voting = election.open_voting();
        voting.cast(&vsd.credentials[0], 0, &mut rng).unwrap();
        voting.cast(&vsd.credentials[0], 2, &mut rng).unwrap();
        let tallying = voting.close();
        let transcript = tallying.tally(&mut rng).unwrap();
        assert_eq!(transcript.result.counts, vec![0, 0, 1]);
        assert_eq!(transcript.superseded, 1);
        tallying.verify(&transcript).expect("verifies");
    }

    #[test]
    fn unregistered_credential_cannot_vote() {
        // A self-made key pair signs a syntactically plausible ballot but
        // has no kiosk issuance signature — admission rejects it.
        let (mut election, mut rng) = small_election(3, 2);
        let (_, vsd) = election
            .register_and_activate(VoterId(1), 0, &mut rng)
            .unwrap();
        let mut voting = election.open_voting();
        voting.cast(&vsd.credentials[0], 1, &mut rng).unwrap();

        // Forge: reuse a real credential's issuance data with a new key.
        let mut forged = vsd.credentials[0].clone();
        forged.key = vg_crypto::schnorr::SigningKey::generate(&mut rng);
        let err = voting.cast(&forged, 1, &mut rng);
        // The cast succeeds syntactically (ledger accepts the signature)…
        assert!(err.is_ok());
        // …but the tally rejects it: σ_kr does not cover the forged key.
        let tallying = voting.close();
        let transcript = tallying.tally(&mut rng).unwrap();
        assert_eq!(transcript.rejected, 1);
        assert_eq!(transcript.result.counted, 1);
        tallying.verify(&transcript).expect("verifies");
    }

    #[test]
    fn empty_election_tallies_to_zero() {
        let (election, mut rng) = small_election(4, 2);
        let tallying = election.open_voting().close();
        let transcript = tallying.tally(&mut rng).unwrap();
        assert_eq!(transcript.result.counts, vec![0, 0, 0]);
        assert_eq!(transcript.n_ballot_dummies, 2);
        tallying.verify(&transcript).expect("verifies");
    }

    #[test]
    fn padding_dummies_pass_through_both_verify_modes() {
        // Zero ballots and one ballot: the identity-ciphertext dummies
        // (and the empty vote opening) go through the tagging and opening
        // folds exactly as through the one-by-one checks.
        use vg_shuffle::VerifyMode;
        for ballots in 0..=1usize {
            let (mut election, mut rng) = small_election(14, 2);
            let (_, vsd) = election
                .register_and_activate(VoterId(1), 0, &mut rng)
                .unwrap();
            let mut voting = election.open_voting();
            for _ in 0..ballots {
                voting.cast(&vsd.credentials[0], 2, &mut rng).unwrap();
            }
            let tallying = voting.close();
            let transcript = tallying.tally(&mut rng).unwrap();
            assert_eq!(transcript.n_ballot_dummies, 2 - ballots);
            assert_eq!(transcript.n_reg_dummies, 1);
            assert_eq!(transcript.result.counted, ballots);
            for mode in [VerifyMode::Sequential, VerifyMode::Batched] {
                let verified = tallying.verify_with_mode(&transcript, mode);
                assert_eq!(verified.as_ref(), Ok(&transcript.result), "{mode:?}");
            }
        }
    }

    #[test]
    fn tampered_transcript_detected() {
        let (mut election, mut rng) = small_election(5, 2);
        let (_, vsd) = election
            .register_and_activate(VoterId(1), 0, &mut rng)
            .unwrap();
        let mut voting = election.open_voting();
        voting.cast(&vsd.credentials[0], 0, &mut rng).unwrap();
        let tallying = voting.close();
        let mut transcript = tallying.tally(&mut rng).unwrap();
        // Claim a different count.
        transcript.result.counts[0] = 0;
        transcript.result.counts[1] = 1;
        assert!(tallying.verify(&transcript).is_err());
    }

    #[test]
    fn stolen_tag_dummy_injection_detected() {
        // A malicious tally that pads with a non-canonical "dummy"
        // (e.g. an encryption of a victim's credential) is caught.
        let (mut election, mut rng) = small_election(6, 2);
        let (_, vsd) = election
            .register_and_activate(VoterId(1), 0, &mut rng)
            .unwrap();
        let mut voting = election.open_voting();
        voting.cast(&vsd.credentials[0], 0, &mut rng).unwrap();
        let tallying = voting.close();
        let mut transcript = tallying.tally(&mut rng).unwrap();
        // Tamper with a padding dummy on the ballot side (there is one,
        // because a single ballot is padded to two).
        assert_eq!(transcript.n_ballot_dummies, 1);
        let last = transcript.ballot_pair_inputs.len() - 1;
        transcript.ballot_pair_inputs[last].1 = transcript.ballot_pair_inputs[0].1;
        assert!(tallying.verify(&transcript).is_err());
    }
}
