//! The kiosk fleet: N concurrent kiosks draining one check-in queue, fed
//! by a [`CeremonyPool`].
//!
//! This is the registration-day engine the paper's throughput story needs
//! (§7.3): the expensive per-session material is precomputed by the pool
//! (ahead of voter arrival, in parallel), every signature the booth emits
//! is coupon-backed (hash-only), and ledger admission — envelope
//! commitments, check-out records, activation checks — is folded into
//! batched random-linear-combination sweeps. Session `i` of the queue is
//! served by kiosk `i mod N`, each kiosk's sessions run strictly
//! sequentially (a booth holds one voter), and all ledger writes happen on
//! the station's thread in queue order.
//!
//! A station is one loop on one thread ([`KioskFleet::run_station_over`]):
//! take a window of materials, run its ceremonies, submit its records. The
//! station — not the kiosk CPU — is the unit of concurrency: the ceremony
//! is hash-only, and a day's time goes to derivation, printing and
//! admission (Fig 4, §7.3).
//!
//! # Determinism
//!
//! A fleet run is a pure function of `(seed, queue, kiosk count)`: session
//! materials derive from `(seed, queue position, voter)`, coupons are part
//! of that derivation, and ledger ordering is fixed by the queue — so any
//! `(pool batch, thread count)` choice replays bit-identically, and the
//! whole run equals a sequential loop of
//! [`crate::protocol::register_voter_seeded`] record-for-record. The
//! equivalence is enforced by `tests/fleet.rs` at the workspace root.

use std::collections::HashMap;

use vg_crypto::schnorr::NonceCoupon;
use vg_crypto::{CompressedPoint, EdwardsPoint};
use vg_ledger::{EnvelopeCommitment, VoterId};

use crate::boundary::{LocalBoundary, RegistrarBoundary};
use crate::ceremony::{FakePrecursor, RealPrecursor, SessionMaterials};
use crate::error::TripError;
use crate::kiosk::{Kiosk, KioskBehavior, StolenCredential};
use crate::materials::{CheckInTicket, Envelope, PaperCredential, Symbol};
use crate::pool::{CeremonyPool, PoolFeed, SessionPlan};
use crate::protocol::RegistrationOutcome;
use crate::setup::TripSystem;
use crate::vsd::{activate_batch_over, Vsd};

/// Where a station's ceremony windows come from: either a caller-managed
/// [`CeremonyPool`] refilled synchronously at window boundaries
/// ([`PoolSource`], the inline day's behavior), or a [`PoolFeed`] kept warm
/// by a background refiller thread ([`FeedSource`]), so the coordinator
/// never waits for precompute mid-day.
pub trait MaterialsSource {
    /// The next up-to-`max` ready sessions in derivation order; empty
    /// means the plan is exhausted. `boundary` is available for
    /// synchronous print fulfilment (unused by fed sources).
    fn next_window(
        &mut self,
        max: usize,
        boundary: &mut dyn RegistrarBoundary,
    ) -> Result<Vec<SessionMaterials>, TripError>;
}

/// The synchronous source: refills the pool through the boundary's print
/// service whenever it runs dry — precompute serializes with ceremonies,
/// exactly the pre-pipeline behavior.
pub struct PoolSource<'a> {
    /// The pool to drain (and refill on demand).
    pub pool: &'a mut CeremonyPool,
}

impl MaterialsSource for PoolSource<'_> {
    fn next_window(
        &mut self,
        max: usize,
        boundary: &mut dyn RegistrarBoundary,
    ) -> Result<Vec<SessionMaterials>, TripError> {
        if self.pool.prepared() == 0
            && self
                .pool
                .refill_via(&mut |jobs| boundary.print_envelopes(jobs))?
                == 0
        {
            return Ok(Vec::new());
        }
        let take = self.pool.prepared().min(max.max(1));
        Ok((0..take)
            .map(|_| self.pool.take_ready().expect("prepared sessions"))
            .collect())
    }
}

/// The pipelined source: pops whatever the background refiller has ready,
/// blocking only when the feed is truly empty.
pub struct FeedSource<'a> {
    /// The buffer the refiller thread keeps above its low-water mark.
    pub feed: &'a PoolFeed,
}

impl MaterialsSource for FeedSource<'_> {
    fn next_window(
        &mut self,
        max: usize,
        _boundary: &mut dyn RegistrarBoundary,
    ) -> Result<Vec<SessionMaterials>, TripError> {
        self.feed.take_window(max)
    }
}

/// One polling station's share of a registration day: the subsequence of
/// the global check-in queue served by its kiosk chunk.
///
/// Stations partition the kiosks into contiguous chunks and a session
/// follows its kiosk (session `i` is served by kiosk `i mod |K|`, as
/// always), so concurrent stations never contend for a booth and every
/// credential still carries the same kiosk signature as in the sequential
/// reference.
pub struct StationPlan {
    /// Station number (0-based).
    pub station: usize,
    /// `(global session index, plan)` in queue order (malicious flags
    /// resolved per serving kiosk): the station's queue, and its pool's
    /// derivation plan.
    pub plans: Vec<(usize, SessionPlan)>,
}

/// The `(global session index, voter)` check-in list of an indexed plan.
pub fn check_ins(plans: &[(usize, SessionPlan)]) -> Vec<(usize, VoterId)> {
    plans.iter().map(|&(idx, p)| (idx, p.voter)).collect()
}

/// Splits a day's plan across `stations` polling stations. Kiosk `k`
/// belongs to station `⌊k·S/|K|⌋`-ish contiguous chunks; sessions follow
/// their kiosks.
///
/// # Invariant
///
/// `1 ≤ stations ≤ |K|`: every station must own at least one kiosk, so a
/// day can never run more stations than kiosks. Violations return
/// [`TripError::InvalidConfig`] instead of silently clamping, which would
/// make capacity planning (and the station-death steal math) quietly wrong.
pub fn partition_stations(
    plan: &[(VoterId, usize)],
    kiosks: &[Kiosk],
    stations: usize,
) -> Result<Vec<StationPlan>, TripError> {
    let k = kiosks.len();
    if stations == 0 || stations > k {
        return Err(TripError::InvalidConfig(format!(
            "{stations} stations over {k} kiosks (need 1 <= stations <= kiosks)"
        )));
    }
    // Kiosk → owning station: contiguous, balanced chunks.
    let mut owner = vec![0usize; k];
    for station in 0..stations {
        owner[station * k / stations..(station + 1) * k / stations].fill(station);
    }
    let mut out: Vec<StationPlan> = (0..stations)
        .map(|station| StationPlan {
            station,
            plans: Vec::new(),
        })
        .collect();
    for (i, &(voter, n_fakes)) in plan.iter().enumerate() {
        let ki = i % k;
        out[owner[ki]].plans.push((
            i,
            SessionPlan {
                voter,
                n_fakes,
                malicious: kiosks[ki].behavior() == KioskBehavior::StealsRealCredential,
            },
        ));
    }
    Ok(out)
}

/// Everything the activation half of a station run needs besides the
/// boundary: the authority key, the printer registry, and the *global*
/// last-occurrence map (re-registration semantics, §3.2 — computed over
/// the whole day's plan, not one station's slice).
pub struct ActivationContext<'a> {
    /// The authority's collective ElGamal key.
    pub authority_pk: &'a EdwardsPoint,
    /// Authorized printer public keys.
    pub printer_registry: &'a [CompressedPoint],
    /// Voter → global index of their last planned session.
    pub last_occurrence: &'a HashMap<VoterId, usize>,
}

/// Accumulates ceremony windows and activates them `lag` windows at a
/// time: one `sync_through` prefix barrier, one folded device-side check
/// batch and one activation sweep cover the whole group, so barrier and
/// fold fixed costs amortize across windows (the single-core half of the
/// pipelined speedup). `lag = 1` reproduces the per-window barrier
/// behavior exactly.
struct ActivationDriver<'a> {
    ctx: &'a ActivationContext<'a>,
    threads: usize,
    lag: usize,
    pending: Vec<(usize, RegistrationOutcome, Option<StolenCredential>)>,
    windows: usize,
}

/// Per-session results a station run hands back, in global session order:
/// the outcome, the device (when activation ran; superseded sessions get
/// an empty one), and any credential a compromised kiosk stole.
pub type StationSink<'a> =
    dyn FnMut(usize, RegistrationOutcome, Option<Vsd>, Option<StolenCredential>) + 'a;

/// One session's ceremony result, tagged with its global index.
type SessionResult = (usize, Result<CeremonyOutput, TripError>);

impl<'a> ActivationDriver<'a> {
    fn new(ctx: &'a ActivationContext<'a>, threads: usize, lag: usize) -> Self {
        Self {
            ctx,
            threads,
            lag: lag.max(1),
            pending: Vec::new(),
            windows: 0,
        }
    }

    fn push_window(
        &mut self,
        boundary: &mut dyn RegistrarBoundary,
        window: Vec<(usize, RegistrationOutcome, Option<StolenCredential>)>,
        sink: &mut StationSink<'_>,
    ) -> Result<(), TripError> {
        self.pending.extend(window);
        self.windows += 1;
        if self.windows >= self.lag {
            self.flush(boundary, sink)?;
        }
        Ok(())
    }

    fn flush(
        &mut self,
        boundary: &mut dyn RegistrarBoundary,
        sink: &mut StationSink<'_>,
    ) -> Result<(), TripError> {
        self.windows = 0;
        if self.pending.is_empty() {
            return Ok(());
        }
        // The group's records must be admitted (across *all* stations up
        // to our highest session) before activation cross-checks them.
        let max_idx = self.pending.last().expect("non-empty").0;
        boundary.sync_through(max_idx as u64 + 1)?;
        let mut batch = std::mem::take(&mut self.pending);
        for (_, outcome, _) in &mut batch {
            outcome.believed_real.lift_to_activate();
            for fake in &mut outcome.fakes {
                fake.lift_to_activate();
            }
        }
        // A session superseded later in the global queue is skipped at
        // activation: its credentials no longer match the eventual active
        // L_R record (§3.2).
        let active: Vec<bool> = batch
            .iter()
            .map(|(idx, outcome, _)| {
                let voter = outcome.believed_real.receipt.checkout_qr.voter_id;
                self.ctx.last_occurrence[&voter] == *idx
            })
            .collect();
        let credential_refs: Vec<&PaperCredential> = batch
            .iter()
            .zip(active.iter())
            .filter(|(_, &is_active)| is_active)
            .flat_map(|((_, o, _), _)| std::iter::once(&o.believed_real).chain(o.fakes.iter()))
            .collect();
        let activated = activate_batch_over(
            boundary,
            &credential_refs,
            self.ctx.authority_pk,
            self.ctx.printer_registry,
            self.threads,
        )?;
        let mut activated = activated.into_iter();
        for ((idx, outcome, stolen), is_active) in batch.into_iter().zip(active) {
            let mut vsd = Vsd::new();
            if is_active {
                for _ in 0..=outcome.fakes.len() {
                    vsd.credentials
                        .push(activated.next().expect("one activation per credential"));
                }
            }
            sink(idx, outcome, Some(vsd), stolen);
        }
        Ok(())
    }
}

/// Fleet tuning knobs. The seed fixes every credential, envelope and
/// signature of the run; batch and thread counts only change scheduling.
#[derive(Clone, Copy)]
pub struct FleetConfig {
    /// Sessions precomputed per pool refill.
    pub pool_batch: usize,
    /// Worker threads for precompute and batched admission, fanned out
    /// per call and joined before it returns. Above 1, a window's kiosk
    /// lanes are spread over as many scoped threads as well; at 1 (the
    /// default) a station spawns nothing.
    pub threads: usize,
    /// Derivation seed for the whole registration day.
    pub seed: [u8; 32],
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            pool_batch: 256,
            threads: 1,
            seed: [0u8; 32],
        }
    }
}

impl core::fmt::Debug for FleetConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The seed derives every real credential of the day.
        write!(
            f,
            "FleetConfig(pool_batch={}, threads={}, seed=<redacted>)",
            self.pool_batch, self.threads
        )
    }
}

impl FleetConfig {
    /// A config with the given seed and defaults otherwise.
    pub fn seeded(seed: [u8; 32]) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

/// One pool session's ceremony, before the coordinator touches the
/// ledger: what the voter carries out, what a compromised kiosk kept, and
/// the bundle's ledger material passed through.
pub(crate) struct CeremonyOutput {
    pub(crate) outcome: RegistrationOutcome,
    pub(crate) stolen: Option<StolenCredential>,
    pub(crate) commitments: Vec<EnvelopeCommitment>,
    pub(crate) official_coupon: NonceCoupon,
}

/// One voter's in-booth ceremony (Fig 9 from the voter's side, §3.2): the
/// real credential — or what a compromised kiosk passes off as one — then
/// one fake per precursor, then the private marking. `pick` is the voter's
/// hand in the envelope supply: `Some(symbol)` asks for the envelope
/// matching the symbol an honest kiosk just printed, `None` for any
/// envelope. The workspace's only booth: the fleet and
/// [`crate::protocol::register_voter_seeded`] run it over a pool bundle,
/// [`crate::protocol::register_voter`] and the Fig 4 runner over
/// precursors drawn at the door ([`Kiosk::draw_real`]/[`Kiosk::draw_fake`]).
pub fn run_session(
    kiosk: &Kiosk,
    ticket: &CheckInTicket,
    real: RealPrecursor,
    fakes: Vec<FakePrecursor>,
    malicious_spare: Option<FakePrecursor>,
    pick: &mut dyn FnMut(Option<Symbol>) -> Result<Envelope, TripError>,
) -> Result<(RegistrationOutcome, Option<StolenCredential>), TripError> {
    let mut session = kiosk.begin_session(ticket)?;
    let mut stolen = None;

    let mut believed_real = match kiosk.behavior() {
        KioskBehavior::Honest => {
            // Real credential, 4-step process (§3.2): ticket scanned;
            // kiosk prints symbol + commit; voter picks the matching
            // envelope; kiosk prints the remaining QRs.
            let symbol = session.begin_real_from(real)?.symbol();
            let envelope = pick(Some(symbol))?;
            let receipt = session.finish_real_credential(&envelope)?;
            PaperCredential::assemble(receipt, envelope)
        }
        KioskBehavior::StealsRealCredential => {
            // The compromised kiosk asks for an envelope up front.
            let spare = malicious_spare.ok_or(TripError::WrongPhysicalState)?;
            let envelope = pick(None)?;
            let (receipt, loot) = session.malicious_real_from(real, spare, &envelope)?;
            stolen = Some(loot);
            PaperCredential::assemble(receipt, envelope)
        }
    };

    // Fake credentials, 2-step process each.
    let mut fake_creds = Vec::with_capacity(fakes.len());
    for pre in fakes {
        let envelope = pick(None)?;
        let receipt = session.create_fake_from(pre, &envelope)?;
        fake_creds.push(PaperCredential::assemble(receipt, envelope));
    }

    // The voter privately marks the credentials (§3.2).
    believed_real.mark("R");
    for (i, fake) in fake_creds.iter_mut().enumerate() {
        fake.mark(&format!("F{i}"));
    }

    let outcome = RegistrationOutcome {
        believed_real,
        fakes: fake_creds,
        events: session.finish(),
    };
    Ok((outcome, stolen))
}

/// [`run_session`] over a pool bundle: the voter's envelopes are the ones
/// the pool packed for them, in ceremony order (the real credential's
/// first, symbol already matched), and the bundle's ledger material comes
/// back beside the outcome.
pub(crate) fn run_pool_session(
    kiosk: &Kiosk,
    ticket: &CheckInTicket,
    materials: SessionMaterials,
) -> Result<CeremonyOutput, TripError> {
    let mut packed = materials.envelopes.into_iter();
    let (outcome, stolen) = run_session(
        kiosk,
        ticket,
        materials.real,
        materials.fakes,
        materials.malicious_spare,
        &mut |_| Ok(packed.next().expect("one packed envelope per credential")),
    )?;
    Ok(CeremonyOutput {
        outcome,
        stolen,
        commitments: materials.commitments,
        official_coupon: materials.official_coupon,
    })
}

/// N concurrent kiosks over a shared check-in queue, pool-fed.
pub struct KioskFleet {
    config: FleetConfig,
}

impl KioskFleet {
    /// Creates a fleet with the given tuning.
    pub fn new(config: FleetConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Builds the [`CeremonyPool`] for a queue over this system's kiosks,
    /// without deriving anything yet. Pre-warm it ([`CeremonyPool::warm`])
    /// to model the booth-idle precompute the paper's deployment assumes,
    /// then drain it through [`KioskFleet::register_each`].
    pub fn prepare_pool(&self, system: &TripSystem, plan: &[(VoterId, usize)]) -> CeremonyPool {
        // A system without kiosks serves nobody: its pool is empty, and
        // `register_each` refuses the day typed.
        let day = partition_stations(plan, &system.kiosks, 1);
        let plans = day.map(|mut day| day.remove(0).plans).unwrap_or_default();
        self.prepare_pool_indexed(system.authority.public_key, plans)
    }

    /// Registers the whole queue: `plan` lists `(voter, fakes)` in
    /// check-in order. Returns one [`RegistrationOutcome`] per session, in
    /// queue order.
    ///
    /// Work proceeds in pool-batch windows: precompute (parallel) →
    /// ceremonies (sequential per kiosk) → ledger phase (batched envelope
    /// commitments, batched check-out admission, loot collection) — so
    /// memory stays bounded by the pool batch while the ledgers fill in
    /// queue order.
    pub fn register(
        &self,
        system: &mut TripSystem,
        plan: &[(VoterId, usize)],
    ) -> Result<Vec<RegistrationOutcome>, TripError> {
        let mut pool = self.prepare_pool(system, plan);
        let mut outcomes = Vec::with_capacity(plan.len());
        self.register_each(system, plan, &mut pool, false, |outcome, _| {
            outcomes.push(outcome)
        })?;
        Ok(outcomes)
    }

    /// [`KioskFleet::register`] followed by batched activation of every
    /// credential on a fresh per-voter device (Fig 11 through the batched
    /// activation sweep), window by window.
    ///
    /// If the same voter appears twice in one queue, only the *last*
    /// registration's credentials activate (earlier ones are superseded on
    /// L_R — re-registration semantics, §3.2); the superseded session's
    /// device comes back empty.
    pub fn register_and_activate(
        &self,
        system: &mut TripSystem,
        plan: &[(VoterId, usize)],
    ) -> Result<Vec<(RegistrationOutcome, Vsd)>, TripError> {
        let mut pool = self.prepare_pool(system, plan);
        let mut out = Vec::with_capacity(plan.len());
        self.register_each(system, plan, &mut pool, true, |outcome, vsd| {
            out.push((outcome, vsd))
        })?;
        Ok(out)
    }

    /// The streaming core under both collecting wrappers: a whole
    /// registration day on the in-process [`LocalBoundary`], drawing from
    /// a caller-managed pool — typically one pre-warmed while the booths
    /// were idle. The pool must have been built by
    /// [`KioskFleet::prepare_pool`] for the same `(system, plan)`;
    /// whatever it has not derived yet is refilled on demand.
    ///
    /// Each session's `(outcome, device)` pair goes to `sink` in queue
    /// order as its window completes, so the dominant per-session state
    /// (credential materials, receipts, envelopes) stays O(pool batch)
    /// even for million-voter queues. Light bookkeeping remains O(queue):
    /// the check-in tickets, the ledger records themselves, and each
    /// kiosk's sealed event journal. With `activate`, every window is
    /// registered *and* activated (behind its own barrier) before the
    /// next window's ledger phase; without it every device comes back
    /// empty.
    pub fn register_each(
        &self,
        system: &mut TripSystem,
        plan: &[(VoterId, usize)],
        pool: &mut CeremonyPool,
        activate: bool,
        mut sink: impl FnMut(RegistrationOutcome, Vsd),
    ) -> Result<(), TripError> {
        let TripSystem {
            officials,
            printers,
            ledger,
            kiosks,
            kiosk_registry,
            adversary_loot,
            authority,
            printer_registry,
            ..
        } = system;
        let (Some(official), Some(printer)) = (officials.first(), printers.first()) else {
            return Err(TripError::InvalidConfig(
                "a registration day needs at least one official and one printer".into(),
            ));
        };
        // The whole day as one station; no kiosks is refused here, typed.
        let sessions = check_ins(&partition_stations(plan, kiosks, 1)?.remove(0).plans);
        let mut boundary = LocalBoundary::new(
            official,
            printer,
            ledger,
            kiosk_registry,
            self.config.threads,
        );
        let last_occurrence = last_occurrence_of(plan);
        let ctx = ActivationContext {
            authority_pk: &authority.public_key,
            printer_registry,
            last_occurrence: &last_occurrence,
        };
        self.run_station_over(
            kiosks,
            &mut boundary,
            &sessions,
            &mut PoolSource { pool },
            // lag 1: activate every window behind its own barrier — the
            // lock-step reference the threaded engine must equal
            // bit-identically (and the baseline it is benched against).
            activate.then_some((&ctx, 1)),
            &mut |_idx, outcome, vsd, stolen| {
                if let Some(looted) = stolen {
                    adversary_loot.push(looted);
                }
                sink(outcome, vsd.unwrap_or_default());
            },
        )
    }

    /// Builds an indexed [`CeremonyPool`] for one station's share of the
    /// day (see [`partition_stations`]), under this fleet's tuning.
    pub fn prepare_pool_indexed(
        &self,
        authority_pk: EdwardsPoint,
        plans: Vec<(usize, SessionPlan)>,
    ) -> CeremonyPool {
        CeremonyPool::new(
            self.config.seed,
            authority_pk,
            plans,
            self.config.pool_batch,
            self.config.threads,
        )
    }

    /// The station engine every fleet entry point drives, one loop on the
    /// calling thread: checks in `sessions` (a station's — or the whole
    /// day's — slice of the global queue), then window by window takes the
    /// next materials from `source`, runs their ceremonies (in session
    /// order; with `threads > 1`, kiosk lanes side by side on scoped
    /// threads), submits the window's ledger records session-tagged
    /// through the boundary, and — when an
    /// [`ActivationContext`] is given — activates groups of `lag` windows
    /// behind one prefix barrier each.
    ///
    /// Results reach `sink` strictly in session order; ledger submission
    /// order per ledger is fixed by session index, which is what keeps any
    /// scheduling bit-identical to the sequential reference.
    ///
    /// `source` must yield exactly the materials for `sessions`, in
    /// order, and `kiosks` must be the non-empty slice their plan was
    /// partitioned over ([`partition_stations`] refuses an empty one).
    pub fn run_station_over(
        &self,
        kiosks: &[Kiosk],
        boundary: &mut dyn RegistrarBoundary,
        sessions: &[(usize, VoterId)],
        source: &mut dyn MaterialsSource,
        activation: Option<(&ActivationContext<'_>, usize)>,
        sink: &mut StationSink<'_>,
    ) -> Result<(), TripError> {
        let threads = self.config.threads.max(1);
        let window_cap = self.config.pool_batch.max(1);

        // Check-in for the station's whole queue (Fig 8; MAC-only).
        let mut tickets: HashMap<usize, CheckInTicket> = HashMap::with_capacity(sessions.len());
        for &(idx, voter) in sessions {
            tickets.insert(idx, boundary.check_in(voter)?);
        }
        let max_session = sessions.iter().map(|&(idx, _)| idx).max();
        let mut driver = activation.map(|(ctx, lag)| ActivationDriver::new(ctx, threads, lag));

        loop {
            let window = source.next_window(window_cap, &mut *boundary)?;
            if window.is_empty() {
                break;
            }
            let outputs = run_window(kiosks, &tickets, window, threads);
            ledger_phase(&mut *boundary, outputs, &mut driver, sink)?;
        }

        // Trailing activation group, then the station's prefix barrier.
        if let Some(driver) = driver.as_mut() {
            driver.flush(boundary, sink)?;
        }
        boundary.sync_through(max_session.map_or(0, |m| m as u64 + 1))
    }
}

/// One window's ceremonies, in session order. Session `i` runs on kiosk
/// `i mod |K|`, and a kiosk's sessions run one after another in session
/// order — a booth holds one voter — so every kiosk journal fills in queue
/// order. With one thread that is a plain loop on the caller; with more,
/// the window's kiosk lanes are dealt round-robin onto `min(threads, |K|)`
/// scoped threads (a kiosk never spans two) that are joined before this
/// returns: no channel, no worker outliving its window.
fn run_window(
    kiosks: &[Kiosk],
    tickets: &HashMap<usize, CheckInTicket>,
    window: Vec<SessionMaterials>,
    threads: usize,
) -> Vec<SessionResult> {
    let run = |materials: SessionMaterials| -> SessionResult {
        let idx = materials.session_index;
        let kiosk = &kiosks[idx % kiosks.len()];
        (idx, run_pool_session(kiosk, &tickets[&idx], materials))
    };
    let workers = threads.min(kiosks.len());
    if workers == 1 {
        return window.into_iter().map(run).collect();
    }
    let mut lanes: Vec<Vec<SessionMaterials>> = (0..workers).map(|_| Vec::new()).collect();
    for materials in window {
        lanes[materials.session_index % kiosks.len() % workers].push(materials);
    }
    let mut outputs: Vec<SessionResult> = std::thread::scope(|scope| {
        let running: Vec<_> = lanes
            .into_iter()
            .filter(|lane| !lane.is_empty())
            .map(|lane| scope.spawn(|| lane.into_iter().map(run).collect::<Vec<_>>()))
            .collect();
        running
            .into_iter()
            .flat_map(|lane| lane.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    outputs.sort_by_key(|(idx, _)| *idx);
    outputs
}

/// Voter → global index of their last planned session, over the whole
/// day's plan.
pub fn last_occurrence_of(plan: &[(VoterId, usize)]) -> HashMap<VoterId, usize> {
    let mut last = HashMap::new();
    for (i, &(voter, _)) in plan.iter().enumerate() {
        last.insert(voter, i);
    }
    last
}

/// One window's ledger phase: propagate the earliest ceremony
/// failure in session order, submit the window's envelope commitments and
/// check-out records session-tagged, then either hand the outcomes to the
/// activation driver or straight to the sink.
fn ledger_phase(
    boundary: &mut dyn RegistrarBoundary,
    outputs: Vec<SessionResult>,
    driver: &mut Option<ActivationDriver<'_>>,
    sink: &mut StationSink<'_>,
) -> Result<(), TripError> {
    let mut env_groups = Vec::with_capacity(outputs.len());
    let mut checkout_groups = Vec::with_capacity(outputs.len());
    let mut finals = Vec::with_capacity(outputs.len());
    for (idx, result) in outputs {
        let CeremonyOutput {
            outcome,
            stolen,
            commitments,
            official_coupon,
        } = result?;
        let checkout = outcome.believed_real.transport_view()?.checkout.clone();
        env_groups.push((idx as u64, commitments));
        checkout_groups.push((idx as u64, vec![(checkout, official_coupon)]));
        finals.push((idx, outcome, stolen));
    }
    boundary.submit_envelope_groups(env_groups)?;
    boundary.submit_checkout_groups(checkout_groups)?;
    match driver {
        Some(driver) => driver.push_window(boundary, finals, sink),
        None => {
            for (idx, outcome, stolen) in finals {
                sink(idx, outcome, None, stolen);
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kiosk::KioskEvent;
    use crate::protocol::{register_voter_seeded, trace_shows_honest_real_flow};
    use crate::setup::TripConfig;
    use vg_crypto::HmacDrbg;

    fn config(n_voters: u64, n_kiosks: usize) -> TripConfig {
        TripConfig {
            n_voters,
            n_kiosks,
            ..TripConfig::default()
        }
    }

    fn plan(n: u64) -> Vec<(VoterId, usize)> {
        (1..=n).map(|v| (VoterId(v), (v % 3) as usize)).collect()
    }

    #[test]
    fn fleet_config_debug_redacts_the_seed() {
        let shown = format!("{:?}", FleetConfig::seeded([0xAB; 32]));
        assert_eq!(
            shown,
            "FleetConfig(pool_batch=256, threads=1, seed=<redacted>)"
        );
    }

    /// Ledger heads plus per-credential identifying bytes of a run.
    fn fingerprint(
        system: &TripSystem,
        outcomes: &[RegistrationOutcome],
    ) -> (Vec<u8>, Vec<u8>, Vec<Vec<u8>>) {
        let creds = outcomes
            .iter()
            .flat_map(|o| o.all_credentials())
            .map(|c| {
                let mut bytes = c.receipt.checkout_qr.kiosk_sig.to_bytes().to_vec();
                bytes.extend_from_slice(&c.receipt.response_qr.credential_sk.to_bytes());
                bytes.extend_from_slice(&c.envelope.challenge.to_bytes());
                bytes
            })
            .collect();
        (
            system.ledger.registration.tree_head().root.to_vec(),
            system.ledger.envelopes.tree_head().root.to_vec(),
            creds,
        )
    }

    #[test]
    fn fleet_matches_sequential_seeded_reference() {
        let seed = [5u8; 32];
        let queue = plan(5);

        let mut rng = HmacDrbg::from_u64(1);
        let mut seq_system = TripSystem::setup(config(5, 2), &mut rng);
        let mut seq_outcomes = Vec::new();
        for (i, &(voter, fakes)) in queue.iter().enumerate() {
            seq_outcomes
                .push(register_voter_seeded(&mut seq_system, voter, fakes, &seed, i).unwrap());
        }

        // The same deterministic setup, drained through the fleet: with a
        // small pool window and more threads than kiosks (lanes fan out
        // per window), as one window on the calling thread, and with
        // one-session refills (no authority-key table).
        for (pool_batch, threads) in [(2, 3), (256, 1), (1, 1)] {
            let mut rng = HmacDrbg::from_u64(1);
            let mut fleet_system = TripSystem::setup(config(5, 2), &mut rng);
            let fleet = KioskFleet::new(FleetConfig {
                pool_batch,
                threads,
                seed,
            });
            let fleet_outcomes = fleet.register(&mut fleet_system, &queue).unwrap();

            assert_eq!(
                fingerprint(&seq_system, &seq_outcomes),
                fingerprint(&fleet_system, &fleet_outcomes),
            );
            for outcome in &fleet_outcomes {
                assert!(trace_shows_honest_real_flow(&outcome.events));
            }
        }
    }

    #[test]
    fn fleet_activation_matches_sequential_activation() {
        let seed = [8u8; 32];
        let queue = plan(4);

        let mut rng = HmacDrbg::from_u64(2);
        let mut seq_system = TripSystem::setup(config(4, 2), &mut rng);
        let mut seq_creds = Vec::new();
        for (i, &(voter, fakes)) in queue.iter().enumerate() {
            let mut outcome =
                register_voter_seeded(&mut seq_system, voter, fakes, &seed, i).unwrap();
            let vsd = crate::protocol::activate_all(&mut seq_system, &mut outcome).unwrap();
            seq_creds.extend(vsd.credentials.into_iter().map(|c| c.key.secret()));
        }

        let mut rng = HmacDrbg::from_u64(2);
        let mut fleet_system = TripSystem::setup(config(4, 2), &mut rng);
        let fleet = KioskFleet::new(FleetConfig {
            pool_batch: 3,
            threads: 2,
            seed,
        });
        let sessions = fleet
            .register_and_activate(&mut fleet_system, &queue)
            .unwrap();
        let fleet_creds: Vec<_> = sessions
            .iter()
            .flat_map(|(_, vsd)| vsd.credentials.iter().map(|c| c.key.secret()))
            .collect();
        assert_eq!(seq_creds, fleet_creds);
        assert_eq!(
            seq_system.ledger.envelopes.revealed_count(),
            fleet_system.ledger.envelopes.revealed_count()
        );
        assert_eq!(fleet_system.ledger.registration.active_count(), 4);
    }

    #[test]
    fn kiosk_journals_stay_per_session_ordered() {
        // A thread per kiosk, and more kiosks than threads (a thread
        // carries several kiosks' lanes).
        for (n_kiosks, threads) in [(3, 3), (5, 2)] {
            let n_voters = 3 * n_kiosks as u64;
            let mut rng = HmacDrbg::from_u64(3);
            let mut system = TripSystem::setup(config(n_voters, n_kiosks), &mut rng);
            let fleet = KioskFleet::new(FleetConfig {
                pool_batch: 4,
                threads,
                seed: [1u8; 32],
            });
            fleet.register(&mut system, &plan(n_voters)).unwrap();
            // Kiosk k served sessions k, k+|K|, k+2|K| — in that order,
            // each trace contiguous and honest.
            for (k, kiosk) in system.kiosks.iter().enumerate() {
                let journal = kiosk.journal();
                let voters: Vec<u64> = journal.iter().map(|t| t.voter_id.0).collect();
                let expected: Vec<u64> = (0..3).map(|r| (k + r * n_kiosks) as u64 + 1).collect();
                assert_eq!(voters, expected, "kiosk {k} of {n_kiosks} journal order");
                for trace in &journal {
                    assert_eq!(trace.events[0], KioskEvent::SessionStarted);
                    assert!(trace_shows_honest_real_flow(&trace.events));
                }
            }
        }
    }

    /// `ledger_phase`'s contract: a ceremony that fails in the middle of
    /// window `w` fails the station with that session's error, nothing of
    /// window `w` reaches L_E or L_R, and every earlier window is admitted
    /// and sunk.
    #[test]
    fn failed_ceremony_admits_nothing_of_its_window() {
        let seed = [9u8; 32];
        let queue = plan(6);
        let stealing = KioskBehavior::StealsRealCredential;
        for threads in [1, 2] {
            let fleet = KioskFleet::new(FleetConfig {
                pool_batch: 3,
                threads,
                seed,
            });
            // What window 0 (sessions 0..3) alone leaves on the ledgers.
            let mut rng = HmacDrbg::from_u64(6);
            let mut first = TripSystem::setup_with_behavior(config(6, 2), stealing, &mut rng);
            let admitted = fleet.register(&mut first, &queue[..3]).unwrap();

            let mut rng = HmacDrbg::from_u64(6);
            let mut system = TripSystem::setup_with_behavior(config(6, 2), stealing, &mut rng);
            let mut day = partition_stations(&queue, &system.kiosks, 1)
                .unwrap()
                .remove(0);
            // Session 4, the middle of window 1, is planned for an honest
            // kiosk: the spare precursor its stealing kiosk needs is
            // never derived.
            day.plans[4].1.malicious = false;
            let sessions = check_ins(&day.plans);
            let mut pool = fleet.prepare_pool_indexed(system.authority.public_key, day.plans);
            let mut boundary = LocalBoundary::new(
                &system.officials[0],
                &system.printers[0],
                &mut system.ledger,
                &system.kiosk_registry,
                threads,
            );
            let mut sunk = Vec::new();
            let run = fleet.run_station_over(
                &system.kiosks,
                &mut boundary,
                &sessions,
                &mut PoolSource { pool: &mut pool },
                None,
                &mut |idx, outcome, _, _| sunk.push((idx, outcome)),
            );
            assert_eq!(run, Err(TripError::WrongPhysicalState));
            let (indices, outcomes): (Vec<usize>, Vec<_>) = sunk.into_iter().unzip();
            assert_eq!(indices, vec![0, 1, 2]);
            assert_eq!(
                fingerprint(&system, &outcomes),
                fingerprint(&first, &admitted)
            );
        }
    }

    #[test]
    fn duplicate_voter_in_queue_activates_only_last_registration() {
        let mut rng = HmacDrbg::from_u64(5);
        let mut system = TripSystem::setup(config(3, 2), &mut rng);
        let fleet = KioskFleet::new(FleetConfig::seeded([7u8; 32]));
        // Voter 1 re-registers at the end of the same queue.
        let queue = vec![
            (VoterId(1), 1),
            (VoterId(2), 0),
            (VoterId(3), 0),
            (VoterId(1), 0),
        ];
        let sessions = fleet.register_and_activate(&mut system, &queue).unwrap();
        assert_eq!(system.ledger.registration.active_count(), 3);
        // The superseded first session comes back with an empty device;
        // the re-registration's credentials activate.
        assert!(sessions[0].1.credentials.is_empty());
        assert_eq!(sessions[1].1.credentials.len(), 1);
        assert_eq!(sessions[2].1.credentials.len(), 1);
        assert_eq!(sessions[3].1.credentials.len(), 1);
        assert_eq!(
            sessions[3].0.believed_real.receipt.checkout_qr.voter_id,
            VoterId(1)
        );
    }

    #[test]
    fn malicious_kiosk_inside_fleet_still_caught() {
        let mut rng = HmacDrbg::from_u64(4);
        let mut system = TripSystem::setup_with_behavior(
            config(4, 2),
            KioskBehavior::StealsRealCredential,
            &mut rng,
        );
        let fleet = KioskFleet::new(FleetConfig::seeded([6u8; 32]));
        let queue = plan(4);
        let sessions = fleet.register_and_activate(&mut system, &queue).unwrap();
        // Every stolen key was collected, in queue order.
        assert_eq!(system.adversary_loot.len(), 4);
        let looted: Vec<u64> = system.adversary_loot.iter().map(|s| s.voter_id.0).collect();
        assert_eq!(looted, vec![1, 2, 3, 4]);
        for (outcome, vsd) in &sessions {
            // The forged "real" credential still activates (Fig 11 cannot
            // tell) — only the booth ordering betrays the kiosk.
            assert!(!vsd.credentials.is_empty());
            assert!(!trace_shows_honest_real_flow(&outcome.events));
        }
    }
}
