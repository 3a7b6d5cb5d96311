//! The registration day: one entry point, [`run_day`], and the threaded
//! engine behind every day that needs concurrency — background pool
//! refillers, a sharded multi-worker ingest layer, and a multi-connection
//! registrar with dynamic kiosk work stealing.
//!
//! # One entry point, two ways to run
//!
//! [`run_day`] reads the engine off its [`DayPlan`]; the caller never
//! picks one. A plan that needs no concurrency — in-process plaintext
//! transport, the default [`PipelineConfig`], no chaos — runs **inline**:
//! thread-free (beyond the fleet's own ceremony crew) on
//! [`vg_trip::LocalBoundary`], synchronous admission, a `persist()`
//! commit point at every barrier. Every other plan, one-station TCP and
//! secure days included, runs on the **threaded** engine below.
//!
//! Both sides are measured, not assumed. Forcing one-session booth days
//! through the threaded engine cost 26 % of `reg_sessions_per_s` on the
//! lifecycle benchmark's `booth` workload (394 → 293 sessions/s, p50
//! session latency 2.16 → 3.15 ms, +19 % peak RSS — about ten
//! cross-thread round trips per one-session day), so "the barrier day is
//! the degenerate threaded plan" was rejected; the threaded side is what
//! `regday_mem`/`regday_deploy` run. A third, deferred-admission engine
//! between the two (a coalescing ingest queue behind a private server
//! thread) measured 1.02× the inline path and was deleted.
//!
//! # The threaded engine
//!
//! - **Refillers** ([`vg_trip::pool::PoolFeed`]): each polling station
//!   runs a dedicated thread owning a `PrintService` client that keeps
//!   the station's ceremony pool above a low-water mark, hiding
//!   precompute behind ceremony latency mid-day, not just at warm start.
//! - **Sharded ingest**: N shard workers
//!   ([`PipelineConfig::workers`]) own disjoint station partitions of
//!   the session stream — shard = original kiosk-chunk owner, so a
//!   station's submissions always route to one worker. Each worker runs
//!   its own reorder buffers and the per-shard RLC admission sweeps
//!   (pure signature-chain verification, no ledger state:
//!   [`vg_ledger::RegistrationLedger::verify_batch`]), publishing
//!   verified groups into a shared inbox. One **commit sequencer**
//!   thread owns the ledgers: it drains the inbox's contiguous global
//!   prefix, appends through the preverified entry points in exact
//!   session order, and ends every sweep at the `persist()` commit
//!   barrier — so N workers saturate cores on verification while the
//!   day still yields **one signed head per ledger**, bit-identical to
//!   one worker. Prefix barriers
//!   ([`Request::SyncThrough`](crate::messages::Request)) resolve as
//!   admission advances.
//! - **Multi-connection registrar**: the gateway serves N
//!   kiosk-coordinator connections (one per polling station, plus each
//!   station's refiller client), with the commit sequencer as the single
//!   serialization point for ledger state. Both ledger lanes — envelope
//!   commitments and registration records — run through the same
//!   reorder → verify → inbox → commit routine, parameterised only by
//!   the lane's verify and commit functions.
//!
//! # Bit-identity
//!
//! Every plan — inline or threaded; station count, worker count,
//! low-water mark, ingest mode, activation lag, transport — produces
//! ledgers and credentials bit-identical to the sequential seeded
//! reference: session materials are pure functions of `(seed, global
//! index, voter)`, kiosk assignment stays `index mod |K|` (stations own
//! disjoint kiosk chunks), and the sequencer commits records in global
//! session order no matter which station or worker finished first.
//! Threading changes *when* work happens, never *what* lands on the
//! ledger — pinned by `tests/pipeline.rs`.
//!
//! # Failover: work stealing
//!
//! If a station's connection dies mid-window, the coordinator partitions
//! the dead station's undelivered kiosk range into contiguous chunks and
//! attributes one *steal-runner* connection per chunk to the surviving
//! stations — parallel recovery instead of one serial replay connection.
//! The kiosk assignment `i mod |K|` never moves (credentials keep the
//! same kiosk signatures); only transport ownership does. Re-derived
//! sessions are byte-identical (determinism again) and shard routing
//! keys off the *original* owner, so stolen re-submissions land on the
//! same worker whose reorder buffer drops duplicates — a partially
//! submitted window heals without double admission.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vg_crypto::par::par_map;
use vg_crypto::schnorr::NonceCoupon;
use vg_crypto::CompressedPoint;
use vg_ledger::{
    EnvelopeCommitment, EnvelopeLedger, Ledger, LedgerError, RegistrationLedger,
    RegistrationRecord, VoterId,
};
use vg_trip::boundary::{IngestTicket, RegistrarBoundary};
use vg_trip::fleet::{
    kiosk_owners, last_occurrence_of, partition_stations, ActivationContext, FeedSource,
    KioskFleet, PoolSource,
};
use vg_trip::kiosk::{Kiosk, StolenCredential};
use vg_trip::materials::{CheckInTicket, CheckOutQr, Envelope};
use vg_trip::official::Official;
use vg_trip::pool::PoolFeed;
use vg_trip::printer::EnvelopePrinter;
use vg_trip::protocol::RegistrationOutcome;
use vg_trip::setup::TripSystem;
use vg_trip::vsd::{activation_ledger_phase, ActivationClaim, Vsd};
use vg_trip::{PrintJob, TripError};

use crate::channel::{Connector, Deadlines, TcpConnector};
use crate::error::ServiceError;
use crate::fault::{FaultPlan, FaultyConnector};
use crate::gateway::{
    acceptor_loop, reactor_loop, Dispatched, GatewayDispatch, GatewayIntake, PipeHub, REAP_AFTER,
};
use crate::messages::{
    ActivationSweepRequest, CheckInRequest, CheckInResponse, CheckOutBatchResponse, IngestReceipt,
    IngestStatsReply, LedgerHeads, PrintRequest, PrintResponse, Request, Response,
    SeqCheckOutRequest, SeqEnvelopeSubmitRequest,
};
use crate::retry::RetryPolicy;
use crate::traits::{ActivationService, LedgerIngestService, PrintService, RegistrarService};
use crate::transport::{
    client_policy, server_policy, ChannelClient, ChannelSecurity, DayStats, LinkKind,
    ServiceBoundary, StealRecord, TransportPlan,
};

/// When the ingest worker runs admission sweeps.
///
/// Either mode ends every sweep at the same commit point: records are
/// admitted to the in-memory Merkle state only after they are appended
/// (and, with fsync on, group-synced) to the durable WAL, and each sweep
/// closes by persisting a signed tree head covering everything admitted.
/// The modes differ only in *when* sweeps run, never in what a completed
/// sweep guarantees — so crash recovery replays to the same heads under
/// both.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IngestMode {
    /// Flush only at barriers (sync/heads/activation), coalescing every
    /// window submitted in between into one sweep.
    #[default]
    Barrier,
    /// Additionally flush whenever the command channel goes idle, so
    /// admission sweeps overlap the next window's ceremonies.
    Background,
}

/// Tuning for the threaded engine. The default is the lock-step plan: on
/// the in-process transport, with no chaos, [`run_day`] runs it inline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Polling-station connections. Must satisfy `1 <= stations <= |K|`
    /// (kiosks split into contiguous chunks, sessions follow their
    /// kiosk); anything else is a typed
    /// [`TripError::InvalidConfig`] — never silently clamped.
    pub stations: usize,
    /// Background-refiller low-water mark in sessions; `0` disables the
    /// refiller thread (stations refill synchronously at window
    /// boundaries).
    pub low_water: usize,
    /// When the ingest layer sweeps.
    pub ingest: IngestMode,
    /// Activate groups of this many windows behind one prefix barrier
    /// (`1` = a barrier per window, the lock-step reference). Larger lags
    /// amortize barrier and verification-fold fixed costs; peak memory
    /// grows to O(lag × pool batch).
    pub activation_lag: usize,
    /// Shard verification workers for the ingest layer. Shards key off
    /// the station owning each session's kiosk chunk, so the effective
    /// count is `min(workers, stations)` — the day reports it in
    /// [`DayStats::workers`]. `0` and `1` both mean the single-worker
    /// engine.
    pub workers: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            stations: 1,
            low_water: 0,
            ingest: IngestMode::Barrier,
            activation_lag: 1,
            workers: 1,
        }
    }
}

/// A chaos hook for failover tests: station `station`'s boundary starts
/// failing every call after `after_ops` successful ones, simulating a
/// polling-station connection dying mid-window. Honest deployments pass
/// `None`.
#[derive(Clone, Copy, Debug)]
pub struct StationFault {
    /// Which station loses its connection.
    pub station: usize,
    /// Boundary calls that succeed before the connection "dies".
    pub after_ops: usize,
    /// If set, *recovery* (steal-runner) connections replaying the dead
    /// station's undelivered sessions also die after this many successful
    /// calls — the kill-during-failover case. How many runner
    /// generations die is bounded by [`StationFault::recovery_deaths`];
    /// once the bounded re-steal depth is exhausted the day aborts with a
    /// typed error. On a durable backend everything admitted before the
    /// kill is already persisted, so a reopened system replays it and
    /// dedups the re-submitted sessions against that persisted prefix.
    pub recovery_after_ops: Option<usize>,
    /// How many steal runners (in spawn order) the
    /// [`recovery_after_ops`](StationFault::recovery_after_ops) fault is
    /// injected into before subsequent runners run healthy. `usize::MAX`
    /// kills every generation, exhausting the bounded re-steal depth and
    /// aborting the day; a small count exercises the re-steal path that
    /// heals. Ignored when `recovery_after_ops` is `None`.
    pub recovery_deaths: usize,
}

/// Everything the chaos harness can inject into a threaded day
/// ([`DayPlan::chaos`]). The default injects nothing and runs with the
/// production liveness deadlines. The contract the chaos sweep asserts:
/// the day either completes with ledgers bit-identical to the unfaulted
/// sequential reference, or returns a typed [`TripError`] — never a
/// panic, never a hang.
#[derive(Clone, Debug, Default)]
pub struct ChaosOptions {
    /// Clean connection-death schedule (the original failover hook).
    pub fault: Option<StationFault>,
    /// Seeded network/disk fault plan (see [`FaultPlan`]).
    pub plan: Option<FaultPlan>,
    /// Override for the coordinator's stall-detection deadline
    /// (`DEFAULT_STALL_TIMEOUT`, 30 s, when `None`).
    pub stall_timeout: Option<Duration>,
    /// Deterministic hang injection: the station stops mid-day WITHOUT
    /// erroring — the lost-without-dying scenario only the stall
    /// detector can recover from ([`StationFault`] deaths surface typed
    /// errors and take the ordinary failover path instead).
    pub hang: Option<StationHang>,
}

/// A station that silently stops making progress mid-day (see
/// [`ChaosOptions::hang`]). The hung thread parks until day teardown —
/// it never errors, never sends `Done` while the day runs — so healing
/// it is entirely on the coordinator's liveness deadline.
#[derive(Clone, Copy, Debug)]
pub struct StationHang {
    /// Which original station hangs.
    pub station: usize,
    /// Boundary operations the station completes before hanging.
    pub after_ops: usize,
}

/// What one registration day runs as: how stations reach the registrar,
/// how the threaded engine is tuned, whether credentials activate, and
/// what the chaos harness injects. The default is a thread-free,
/// register-only day on [`vg_trip::LocalBoundary`].
#[derive(Clone, Debug, Default)]
pub struct DayPlan {
    /// Link × channel security between the stations and the registrar.
    pub transport: TransportPlan,
    /// Threaded-engine tuning.
    pub pipeline: PipelineConfig,
    /// Activate every window's credentials on fresh devices (groups of
    /// [`PipelineConfig::activation_lag`] windows behind one prefix
    /// barrier each); without it every device comes back empty.
    pub activate: bool,
    /// Fault injection; `None` on honest deployments.
    pub chaos: Option<ChaosOptions>,
}

/// Whether `plan` needs no concurrency and runs inline on
/// [`vg_trip::LocalBoundary`]. Read off the plan — no caller picks an
/// engine — and measured on both sides (see the module docs).
fn runs_inline(plan: &DayPlan) -> bool {
    plan.transport == TransportPlan::IN_PROCESS
        && plan.pipeline == PipelineConfig::default()
        && plan.chaos.is_none()
}

/// Runs one whole registration day for `queue` (`(voter, fakes)` in
/// check-in order) as `plan` describes, streaming each session's
/// `(outcome, device)` pair to `sink` in queue order, and returns the
/// day's service-layer telemetry. Ledgers and credentials are
/// bit-identical to the sequential seeded reference for any plan and any
/// `(seed, queue, kiosks, pool batch, threads)`.
pub fn run_day(
    fleet: &KioskFleet,
    system: &mut TripSystem,
    queue: &[(VoterId, usize)],
    plan: &DayPlan,
    mut sink: impl FnMut(RegistrationOutcome, Vsd),
) -> Result<DayStats, TripError> {
    if !runs_inline(plan) {
        return run_threaded_day(fleet, system, queue, plan, &mut sink);
    }
    let mut pool = fleet.prepare_pool(system, queue);
    fleet.register_each(system, queue, &mut pool, plan.activate, sink)?;
    let durability = system.ledger.durability_stats();
    Ok(DayStats {
        ingest: IngestStatsReply {
            wal_records: durability.wal_records,
            wal_fsyncs: durability.wal_fsyncs,
            wal_failures: durability.wal_failures,
            ..IngestStatsReply::default()
        },
        workers: 1,
        ..DayStats::default()
    })
}

// Shared engine state (the verified inbox) is internally consistent at
// every individual store, so locks recover from poisoning via
// `vg_crypto::sync::lock_recover` rather than panicking every waiting
// station and the day coordinator with it.
use vg_crypto::sync::lock_recover;

// ---------------------------------------------------------------------------
// The sharded ingest engine
// ---------------------------------------------------------------------------

/// Minimum pending records before a channel-idle gap triggers a
/// background admission sweep (barriers always flush everything).
/// Smaller idle sweeps would fragment the RLC folds the coalescing win
/// comes from.
const MIN_IDLE_SWEEP: usize = 512;

/// Per-lane ceiling on deferred records. Coalescing submissions into one
/// folded admission sweep is the throughput win, but an unbounded backlog
/// would buffer a whole million-voter day server-side and delay admission
/// errors to end-of-day. Past the cap a shard sweeps inline on the
/// submitter's call and a [`IngestMode::Barrier`] sequencer commits, so
/// memory and error latency stay O(cap) while many small windows still
/// coalesce.
const MAX_PENDING_RECORDS: usize = 16_384;

/// Commands for one shard verification worker.
enum ShardCmd {
    /// Session-tagged envelope-commitment groups for sessions this shard
    /// owns; the reply resolves once the groups are buffered (and any
    /// overflow sweep ran).
    Envelopes(
        Vec<(u64, Vec<EnvelopeCommitment>)>,
        Sender<Result<(), ServiceError>>,
    ),
    /// Session-tagged registration-record groups, same contract.
    Records(
        Vec<(u64, Vec<RegistrationRecord>)>,
        Sender<Result<(), ServiceError>>,
    ),
    /// Barrier: verify everything pending now and publish it, then
    /// report how many session groups are still stuck in the reorder
    /// buffers, both lanes (nonzero at day end means sessions were lost
    /// in transit).
    Flush(Sender<usize>),
}

/// Which shard worker owns a global session index. Ownership keys off
/// the *original* station owning the session's kiosk (`i mod |K|`, then
/// the contiguous kiosk chunk map) — never off whichever connection
/// happens to carry the submission — so work-stealing re-submissions
/// route to the same worker and dedup in its reorder buffer.
#[derive(Clone)]
struct ShardRoute {
    /// Kiosk index → owning station (from
    /// [`vg_trip::fleet::kiosk_owners`]).
    owner: Arc<Vec<usize>>,
    workers: usize,
}

impl ShardRoute {
    fn worker_of(&self, session: u64) -> usize {
        self.owner[session as usize % self.owner.len()] % self.workers
    }
}

/// Per-worker telemetry snapshot, published into the inbox so the
/// sequencer can answer [`Cmd::Stats`] without stopping the workers.
#[derive(Clone, Copy, Default)]
struct WorkerTelemetry {
    env_batches: u64,
    env_sweeps: u64,
    reg_batches: u64,
    reg_sweeps: u64,
    busy_us: u64,
    idle_us: u64,
}

/// One ledger lane of the [`VerifiedInbox`]: session groups that passed
/// their shard's RLC sweep, waiting for the sequencer to drain them as
/// one contiguous, globally-ordered prefix.
struct InboxLane<R> {
    groups: BTreeMap<u64, Vec<R>>,
    /// Records across `groups` (commit-threshold bookkeeping).
    records: usize,
    /// Per-worker release floors: worker `w` has released every owned
    /// session below `floor[w]`. The global released prefix is the
    /// minimum across workers — what parked barriers can force a flush
    /// for.
    floor: Vec<u64>,
}

impl<R> InboxLane<R> {
    fn new(floor: Vec<u64>) -> Self {
        Self {
            groups: BTreeMap::new(),
            records: 0,
            floor,
        }
    }

    /// Takes what `worker` verified (`groups`) and released empty
    /// (`empties` — they advance the commit prefix but verify nothing),
    /// and its new release floor.
    fn publish(
        &mut self,
        worker: usize,
        groups: Vec<(u64, Vec<R>)>,
        empties: Vec<u64>,
        floor: u64,
    ) {
        for session in empties {
            self.groups.entry(session).or_default();
        }
        for (session, group) in groups {
            self.records += group.len();
            self.groups.insert(session, group);
        }
        self.floor[worker] = floor;
    }

    /// Removes the contiguous run of groups starting at session `next`,
    /// in session order.
    fn drain_prefix(&mut self, mut next: u64) -> Vec<Vec<R>> {
        let mut groups = Vec::new();
        while let Some(group) = self.groups.remove(&next) {
            self.records -= group.len();
            groups.push(group);
            next += 1;
        }
        groups
    }

    /// Every session below this is released by its owning worker.
    fn released_through(&self) -> u64 {
        self.floor.iter().copied().min().unwrap_or(u64::MAX)
    }
}

/// Verified-but-uncommitted state shared between the shard workers and
/// the commit sequencer.
struct VerifiedInbox {
    env: InboxLane<EnvelopeCommitment>,
    reg: InboxLane<RegistrationRecord>,
    /// Earliest verification failure across all workers, by session.
    failed: Option<(u64, ServiceError)>,
    stats: Vec<WorkerTelemetry>,
}

impl VerifiedInbox {
    fn new(worker_sessions: &[Vec<u64>]) -> Self {
        let floor: Vec<u64> = worker_sessions
            .iter()
            .map(|s| s.first().copied().unwrap_or(u64::MAX))
            .collect();
        Self {
            env: InboxLane::new(floor.clone()),
            reg: InboxLane::new(floor),
            failed: None,
            stats: vec![WorkerTelemetry::default(); worker_sessions.len()],
        }
    }

    /// Total records across both lanes.
    fn records(&self) -> usize {
        self.env.records + self.reg.records
    }

    /// Record a verification failure, keeping the earliest session.
    fn fail(&mut self, session: u64, error: ServiceError) {
        match &self.failed {
            Some((s, _)) if *s <= session => {}
            _ => self.failed = Some((session, error)),
        }
    }
}

/// What one lane of a shard worker hands the inbox: the verified-good
/// session groups in submission order, the sessions released empty, and
/// the first verification failure (pinned to its session) if a sweep hit
/// one.
struct LaneUpdate<R> {
    groups: Vec<(u64, Vec<R>)>,
    empties: Vec<u64>,
    failure: Option<(u64, ServiceError)>,
}

impl<R> Default for LaneUpdate<R> {
    fn default() -> Self {
        Self {
            groups: Vec::new(),
            empties: Vec::new(),
            failure: None,
        }
    }
}

impl<R> LaneUpdate<R> {
    fn is_empty(&self) -> bool {
        self.groups.is_empty() && self.empties.is_empty() && self.failure.is_none()
    }
}

/// One ledger lane of a shard worker: the reorder buffer over the
/// worker's *owned* sessions, the verification backlog, and the lane's
/// pure signature-chain check ([`EnvelopeLedger::verify_batch`] or
/// [`RegistrationLedger::verify_batch`]) — the only thing the two lanes
/// do differently.
struct WorkerLane<R> {
    /// The worker's owned global session indices, ascending (sparse —
    /// shards interleave in the global order).
    sessions: Arc<Vec<u64>>,
    /// Position in `sessions` of the next owned session to release.
    pos: usize,
    /// Session groups waiting for an earlier owned session to arrive.
    reorder: BTreeMap<u64, Vec<R>>,
    /// Released, in-order groups awaiting a verification sweep.
    pending: Vec<(u64, Vec<R>)>,
    pending_records: usize,
    batches: u64,
    sweeps: u64,
    verify: fn(&[R], usize) -> Result<(), LedgerError>,
}

impl<R: Clone> WorkerLane<R> {
    fn new(sessions: Arc<Vec<u64>>, verify: fn(&[R], usize) -> Result<(), LedgerError>) -> Self {
        Self {
            sessions,
            pos: 0,
            reorder: BTreeMap::new(),
            pending: Vec::new(),
            pending_records: 0,
            batches: 0,
            sweeps: 0,
            verify,
        }
    }

    /// The next owned session this lane has not yet released
    /// (`u64::MAX` once exhausted) — the worker's release floor.
    fn waiting_for(&self) -> u64 {
        self.sessions.get(self.pos).copied().unwrap_or(u64::MAX)
    }

    /// Buffers session-tagged groups, dropping duplicates (steal
    /// re-submissions are byte-identical, so first-wins is sound), then
    /// releases the in-order prefix of *owned* sessions: nonempty groups
    /// join the verification backlog, empty ones are returned so the
    /// caller can publish them straight to the inbox.
    fn absorb(&mut self, groups: Vec<(u64, Vec<R>)>) -> Vec<u64> {
        for (session, records) in groups {
            if session < self.waiting_for() || self.reorder.contains_key(&session) {
                continue; // duplicate (failover re-submission)
            }
            self.reorder.insert(session, records);
        }
        let mut empties = Vec::new();
        let mut released_any = false;
        while self.pos < self.sessions.len() {
            let next = self.sessions[self.pos];
            let Some(records) = self.reorder.remove(&next) else {
                break;
            };
            if records.is_empty() {
                empties.push(next);
            } else {
                self.pending_records += records.len();
                self.pending.push((next, records));
                released_any = true;
            }
            self.pos += 1;
        }
        if released_any {
            self.batches += 1;
        }
        empties
    }

    /// The per-shard RLC admission sweep: one coalesced fold over
    /// everything pending. On a fold failure, re-verify per group to
    /// attribute the offender: groups before it survive, the offender
    /// and everything after are dropped with the failure pinned to the
    /// offending session.
    fn sweep(&mut self, threads: usize) -> LaneUpdate<R> {
        let mut update = LaneUpdate::default();
        if self.pending.is_empty() {
            return update;
        }
        self.sweeps += 1;
        self.pending_records = 0;
        let groups = std::mem::take(&mut self.pending);
        let flat: Vec<R> = groups.iter().flat_map(|(_, g)| g.iter().cloned()).collect();
        if (self.verify)(&flat, threads).is_ok() {
            update.groups = groups;
            return update;
        }
        // If no group reproduces the coalesced failure, the per-group
        // pass is authoritative (an RLC false accept is the
        // cryptographically negligible direction, not this one).
        for (session, group) in groups {
            match (self.verify)(&group, threads) {
                Ok(()) => update.groups.push((session, group)),
                Err(e) => {
                    update.failure = Some((session, e.into()));
                    break;
                }
            }
        }
        update
    }

    /// A station's submission: buffer and release, and past the cap
    /// sweep inline. Verification needs no ledger, so the backlog just
    /// drains here, on the shard's own thread.
    fn submit(&mut self, groups: Vec<(u64, Vec<R>)>, threads: usize) -> LaneUpdate<R> {
        let empties = self.absorb(groups);
        let mut update = if self.pending_records > MAX_PENDING_RECORDS {
            self.sweep(threads)
        } else {
            LaneUpdate::default()
        };
        update.empties = empties;
        update
    }
}

/// One shard verification worker: owns the reorder buffers for its
/// session partition and runs the per-shard RLC admission sweeps. It
/// never touches a ledger — verification is pure signature-chain
/// checking — which is exactly why N of these can run concurrently while
/// commits stay single-owner.
struct ShardWorker {
    id: usize,
    threads: usize,
    mode: IngestMode,
    env: WorkerLane<EnvelopeCommitment>,
    reg: WorkerLane<RegistrationRecord>,
    inbox: Arc<Mutex<VerifiedInbox>>,
    seq: Sender<Cmd>,
    /// Sticky local mirror of the shared failure: refuses further
    /// submissions without taking the inbox lock.
    failed: Option<ServiceError>,
    busy: Duration,
    idle: Duration,
}

impl ShardWorker {
    fn telemetry(&self) -> WorkerTelemetry {
        WorkerTelemetry {
            env_batches: self.env.batches,
            env_sweeps: self.env.sweeps,
            reg_batches: self.reg.batches,
            reg_sweeps: self.reg.sweeps,
            busy_us: self.busy.as_micros() as u64,
            idle_us: self.idle.as_micros() as u64,
        }
    }

    /// Pushes this worker's new state into the shared inbox under one
    /// lock — both lanes' updates, release floors, telemetry and any
    /// verification failures — and returns the sticky *global* failure
    /// (possibly another worker's) if one is set.
    fn publish(
        &mut self,
        env: LaneUpdate<EnvelopeCommitment>,
        reg: LaneUpdate<RegistrationRecord>,
    ) -> Option<ServiceError> {
        let telemetry = self.telemetry();
        let mut sh = lock_recover(&self.inbox);
        sh.env
            .publish(self.id, env.groups, env.empties, self.env.waiting_for());
        sh.reg
            .publish(self.id, reg.groups, reg.empties, self.reg.waiting_for());
        sh.stats[self.id] = telemetry;
        for (session, error) in env.failure.into_iter().chain(reg.failure) {
            sh.fail(session, error);
        }
        sh.failed.as_ref().map(|(_, e)| e.clone())
    }

    /// Sweeps both lanes and publishes; returns whether anything moved
    /// (so the sequencer is worth poking).
    fn sweep_and_publish(&mut self) -> bool {
        let env = self.env.sweep(self.threads);
        let reg = self.reg.sweep(self.threads);
        let moved = !(env.is_empty() && reg.is_empty());
        if let Some(e) = self.publish(env, reg) {
            self.failed.get_or_insert(e);
        }
        moved
    }

    /// Acknowledges a station's submission on one lane: refused after a
    /// sticky failure, otherwise `submit` runs the lane's
    /// [`WorkerLane::submit`], the result is published and the sequencer
    /// poked so it can commit and re-check parked barriers.
    fn acknowledge(
        &mut self,
        submit: impl FnOnce(
            &mut Self,
        ) -> (
            LaneUpdate<EnvelopeCommitment>,
            LaneUpdate<RegistrationRecord>,
        ),
    ) -> Result<(), ServiceError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let (env, reg) = submit(self);
        let sticky = self.publish(env, reg);
        let _ = self.seq.send(Cmd::Poke);
        match sticky {
            Some(e) => Err(self.failed.get_or_insert(e).clone()),
            None => Ok(()),
        }
    }

    fn handle(&mut self, cmd: ShardCmd) {
        match cmd {
            ShardCmd::Envelopes(groups, reply) => {
                let _ = reply.send(
                    self.acknowledge(|w| (w.env.submit(groups, w.threads), LaneUpdate::default())),
                );
            }
            ShardCmd::Records(groups, reply) => {
                let _ = reply.send(
                    self.acknowledge(|w| (LaneUpdate::default(), w.reg.submit(groups, w.threads))),
                );
            }
            ShardCmd::Flush(ack) => {
                // No poke: the sequencer is blocked on this ack and
                // commits as soon as every shard reports.
                self.sweep_and_publish();
                let _ = ack.send(self.env.reorder.len() + self.reg.reorder.len());
            }
        }
    }

    /// The worker loop: drain immediately-available commands first, use
    /// [`IngestMode::Background`] idle gaps for verification sweeps that
    /// overlap the stations' next ceremonies, and only then block.
    fn run(mut self, rx: Receiver<ShardCmd>) {
        loop {
            let cmd = match rx.try_recv() {
                Ok(cmd) => cmd,
                Err(TryRecvError::Empty) => {
                    if self.mode == IngestMode::Background
                        && self.failed.is_none()
                        && self.env.pending_records + self.reg.pending_records >= MIN_IDLE_SWEEP
                    {
                        let t = Instant::now();
                        if self.sweep_and_publish() {
                            let _ = self.seq.send(Cmd::Poke);
                        }
                        self.busy += t.elapsed();
                        continue;
                    }
                    let t = Instant::now();
                    match rx.recv() {
                        Ok(cmd) => {
                            self.idle += t.elapsed();
                            cmd
                        }
                        Err(_) => break,
                    }
                }
                Err(TryRecvError::Disconnected) => break,
            };
            let t = Instant::now();
            self.handle(cmd);
            self.busy += t.elapsed();
        }
        // The sequencer dropped our channel (day teardown): sweep the
        // remaining backlog into the inbox so the final commit pass sees
        // it, then release our sequencer sender by returning.
        let t = Instant::now();
        self.sweep_and_publish();
        self.busy += t.elapsed();
        let _ = self.seq.send(Cmd::Poke);
    }
}

/// Commands for the commit sequencer — the one thread owning the ledgers.
enum Cmd {
    CheckIn(VoterId, Sender<Result<CheckInTicket, ServiceError>>),
    SyncThrough(u64, Sender<Result<(), ServiceError>>),
    SyncAll(Sender<Result<(), ServiceError>>),
    Activate(Vec<ActivationClaim>, Sender<Result<(), ServiceError>>),
    Heads(Sender<Result<LedgerHeads, ServiceError>>),
    Stats(Sender<IngestStatsReply>),
    /// Fail every parked barrier so blocked stations unwind (day abort).
    Abort,
    /// A shard worker changed the shared inbox (released, verified or
    /// failed something): commit opportunistically and re-check parked
    /// barriers. Carries nothing — the inbox is the message.
    Poke,
    /// Day teardown, sent exactly once by the coordinator after every
    /// station is done: the sequencer drops its shard senders so the
    /// workers drain, exit-sweep into the inbox, and release their own
    /// sequencer senders in turn. Without this the worker ⇄ sequencer
    /// channel cycle would keep both sides parked in `recv` forever.
    Shutdown,
}

/// One ledger lane of the sequencer: the commit cursor plus the lane's
/// preverified append
/// ([`EnvelopeLedger::commit_batch_preverified`] or
/// [`RegistrationLedger::post_batch_preverified`]) — the only thing the
/// two lanes do differently.
struct CommitLane<R> {
    /// Next session to commit; `[0, next)` is on this lane's ledger.
    next: u64,
    append: fn(&mut Ledger, Vec<R>, usize) -> Result<(), LedgerError>,
}

impl<R: Clone> CommitLane<R> {
    /// Commits `groups` — the contiguous verified prefix starting at
    /// `self.next`, in session order — as one coalesced append, with a
    /// per-group fallback to pin a failure to the first offending session
    /// and keep the committed prefix before it. Eligibility (roster,
    /// double registration) is a real failure mode of the registration
    /// lane, checked here at the commit point; the preverified entry
    /// points check it before appending anything, so re-running per
    /// group never double-appends. Returns whether anything was appended,
    /// and the failure if the lane hit one.
    fn commit(
        &mut self,
        ledger: &mut Ledger,
        threads: usize,
        groups: Vec<Vec<R>>,
    ) -> (bool, Option<ServiceError>) {
        let count = groups.len() as u64;
        let flat: Vec<R> = groups.iter().flatten().cloned().collect();
        if flat.is_empty() {
            self.next += count;
            return (false, None);
        }
        if (self.append)(ledger, flat, threads).is_ok() {
            self.next += count;
            return (true, None);
        }
        let mut appended = false;
        for group in groups {
            if !group.is_empty() {
                if let Err(e) = (self.append)(ledger, group, threads) {
                    return (appended, Some(e.into()));
                }
                appended = true;
            }
            self.next += 1;
        }
        (appended, None)
    }
}

/// The commit sequencer: the one thread owning the ledgers for the day.
/// It drains the shared inbox's contiguous verified prefix and appends
/// it in exact global session order through the preverified entry points
/// — eligibility is checked here, at the commit point — so N shard
/// workers change *where verification runs*, never what lands on the
/// ledger or how many signed heads a day produces. Every mutation
/// funnels through [`Sequencer::flush_all`], whose final `persist()` is
/// the one durable commit point: no code path answers a barrier or
/// returns ledger heads for state that has not already been fsynced
/// under a signed head.
struct Sequencer<'a> {
    ledger: &'a mut Ledger,
    official: &'a Official,
    threads: usize,
    mode: IngestMode,
    workers: usize,
    shard_txs: Vec<Sender<ShardCmd>>,
    inbox: Arc<Mutex<VerifiedInbox>>,
    env: CommitLane<EnvelopeCommitment>,
    reg: CommitLane<RegistrationRecord>,
    parked: Vec<(u64, Sender<Result<(), ServiceError>>)>,
    failed: Option<ServiceError>,
    /// Reorder-buffer occupancy reported by the last flush barrier —
    /// nonzero at day end means sessions were lost in transit.
    stalled_reorder: usize,
    busy: Duration,
    idle: Duration,
}

impl Sequencer<'_> {
    fn admitted_through(&self) -> u64 {
        self.env.next.min(self.reg.next)
    }

    /// The durable commit barrier, with graceful degradation: a WAL IO
    /// failure (disk full, torn write, failed fsync) becomes the
    /// sequencer's sticky day-abort error instead of a panic. The store
    /// itself is poisoned by the failure, so every subsequent barrier
    /// re-surfaces the same typed error and no head covering lost bytes
    /// is ever published.
    fn persist_ledger(&mut self) {
        if let Err(e) = self.ledger.persist() {
            self.failed
                .get_or_insert(ServiceError::from(LedgerError::from(e)));
        }
    }

    fn inbox_records(&self) -> usize {
        lock_recover(&self.inbox).records()
    }

    /// Drains the contiguous verified prefix out of the inbox and
    /// commits it, envelope lane first (see [`CommitLane::commit`]).
    /// Returns whether anything was appended; callers follow with the
    /// `persist()` commit barrier before answering anyone.
    fn commit_ready(&mut self) -> bool {
        if self.failed.is_some() {
            return false;
        }
        let (env_groups, reg_groups, verify_failed) = {
            let mut sh = lock_recover(&self.inbox);
            (
                sh.env.drain_prefix(self.env.next),
                sh.reg.drain_prefix(self.reg.next),
                sh.failed.clone(),
            )
        };
        let (mut appended, mut failed) = self.env.commit(self.ledger, self.threads, env_groups);
        if failed.is_none() {
            let (reg_appended, reg_failed) = self.reg.commit(self.ledger, self.threads, reg_groups);
            appended |= reg_appended;
            failed = reg_failed;
        }
        // A verification failure parked in the inbox becomes sticky only
        // after the good prefix before it is committed (the workers only
        // publish verified-good groups below the failing session).
        self.failed = failed.or(verify_failed.map(|(_, e)| e));
        appended
    }

    /// The full admission barrier: every shard worker sweeps its pending
    /// backlog *concurrently* (this fan-out is the throughput win of the
    /// shard layer), then one globally-ordered commit closes at the
    /// durable commit point — RLC admission → segment append → group
    /// fsync → signed-head publish. Barriers are answered only after
    /// `persist()` returns, so an admitted session is always a persisted
    /// session.
    fn flush_all(&mut self) {
        let mut acks = Vec::new();
        for tx in &self.shard_txs {
            let (ack_tx, ack_rx) = mpsc::channel();
            if tx.send(ShardCmd::Flush(ack_tx)).is_ok() {
                acks.push(ack_rx);
            }
        }
        self.stalled_reorder = acks.into_iter().filter_map(|ack| ack.recv().ok()).sum();
        self.commit_ready();
        // Commit barrier: everything this sweep admitted reaches stable
        // storage (WAL fsync + signed head) before any barrier observes
        // it as admitted. A no-op on volatile backends.
        self.persist_ledger();
    }

    /// Resolves parked prefix barriers: flushes when a parked barrier's
    /// prefix is fully released (per the workers' published floors) but
    /// not yet admitted, then answers whatever the sweep satisfied.
    /// Sticky failures answer everything.
    fn service_parked(&mut self) {
        if self.parked.is_empty() {
            return;
        }
        if self.failed.is_none() {
            let releasable = {
                let sh = lock_recover(&self.inbox);
                sh.env.released_through().min(sh.reg.released_through())
            };
            let admitted = self.admitted_through();
            if self
                .parked
                .iter()
                .any(|(needed, _)| *needed > admitted && *needed <= releasable)
            {
                self.flush_all();
            }
        }
        if let Some(e) = self.failed.clone() {
            for (_, reply) in self.parked.drain(..) {
                let _ = reply.send(Err(e.clone()));
            }
            return;
        }
        let admitted = self.admitted_through();
        self.parked.retain(|(needed, reply)| {
            if *needed <= admitted {
                let _ = reply.send(Ok(()));
                false
            } else {
                true
            }
        });
    }

    fn stats(&self) -> IngestStatsReply {
        let durability = self.ledger.durability_stats();
        let sh = lock_recover(&self.inbox);
        let mut reply = IngestStatsReply {
            env_batches: 0,
            env_sweeps: 0,
            reg_batches: 0,
            reg_sweeps: 0,
            worker_busy_us: self.busy.as_micros() as u64,
            worker_idle_us: self.idle.as_micros() as u64,
            wal_records: durability.wal_records,
            wal_fsyncs: durability.wal_fsyncs,
            workers: self.workers as u64,
            wal_failures: durability.wal_failures,
        };
        for t in &sh.stats {
            reply.env_batches += t.env_batches;
            reply.env_sweeps += t.env_sweeps;
            reply.reg_batches += t.reg_batches;
            reply.reg_sweeps += t.reg_sweeps;
            reply.worker_busy_us += t.busy_us;
            reply.worker_idle_us += t.idle_us;
        }
        reply
    }

    fn handle(&mut self, cmd: Cmd) {
        match cmd {
            Cmd::CheckIn(voter, reply) => {
                let out = self
                    .official
                    .check_in(self.ledger, voter)
                    .map_err(ServiceError::Trip);
                let _ = reply.send(out);
            }
            Cmd::SyncThrough(sessions, reply) => {
                if self.admitted_through() >= sessions && self.failed.is_none() {
                    let _ = reply.send(Ok(()));
                } else {
                    self.parked.push((sessions, reply));
                }
            }
            Cmd::SyncAll(reply) => {
                self.flush_all();
                let residual = {
                    let sh = lock_recover(&self.inbox);
                    !sh.env.groups.is_empty() || !sh.reg.groups.is_empty()
                };
                let out = if let Some(e) = self.failed.clone() {
                    Err(e)
                } else if self.stalled_reorder > 0 || residual {
                    Err(ServiceError::Transport(format!(
                        "sessions lost: admission stalled at {} (gap in submissions)",
                        self.admitted_through()
                    )))
                } else {
                    Ok(())
                };
                let _ = reply.send(out);
            }
            Cmd::Activate(claims, reply) => {
                self.flush_all();
                let out = if let Some(e) = self.failed.clone() {
                    Err(e)
                } else {
                    let mut out = Ok(());
                    for claim in &claims {
                        if let Err(e) = activation_ledger_phase(self.ledger, claim) {
                            out = Err(ServiceError::Trip(e));
                            break;
                        }
                    }
                    // Activation appended reveal-WAL entries; sync them
                    // before acknowledging the claims.
                    self.persist_ledger();
                    out
                };
                let _ = reply.send(out);
            }
            Cmd::Heads(reply) => {
                self.flush_all();
                let out = if let Some(e) = self.failed.clone() {
                    Err(e)
                } else {
                    Ok(LedgerHeads {
                        registration: self.ledger.registration.tree_head(),
                        envelopes: self.ledger.envelopes.tree_head(),
                    })
                };
                let _ = reply.send(out);
            }
            Cmd::Stats(reply) => {
                let _ = reply.send(self.stats());
            }
            Cmd::Abort => {
                let e = ServiceError::Transport("registration day aborted".into());
                self.failed.get_or_insert(e.clone());
                // Mirror into the inbox so the shard workers refuse
                // further submissions too.
                lock_recover(&self.inbox).fail(u64::MAX, e);
            }
            Cmd::Poke => {
                // The inbox changed; the shared post-command path below
                // commits and re-checks parked barriers.
            }
            Cmd::Shutdown => {
                // Drop the shard senders: the workers' receivers
                // disconnect, they exit-sweep into the inbox, and their
                // own sequencer senders drop in turn.
                self.shard_txs.clear();
            }
        }
    }

    fn run(mut self, rx: Receiver<Cmd>) {
        loop {
            let t = Instant::now();
            let Ok(cmd) = rx.recv() else { break };
            self.idle += t.elapsed();
            let t = Instant::now();
            self.handle(cmd);
            // Opportunistic commits: verified records must not pile up
            // in the inbox unboundedly. Background mode commits as soon
            // as a worthwhile batch is verified (overlapping the
            // stations' next ceremonies); Barrier mode only bounds
            // memory at the queue cap — everything else rides the next
            // barrier, preserving the coalescing behavior.
            let cap = match self.mode {
                IngestMode::Background => MIN_IDLE_SWEEP,
                IngestMode::Barrier => MAX_PENDING_RECORDS,
            };
            if self.failed.is_none() && self.inbox_records() >= cap && self.commit_ready() {
                self.persist_ledger();
            }
            self.service_parked();
            self.busy += t.elapsed();
        }
        // Day over: every client and worker sender is gone — the workers
        // exit-swept their backlogs into the inbox before releasing
        // their senders — so one final commit pass closes the day, then
        // fail anything still parked (a parked barrier at this point
        // means its prefix never arrived).
        self.flush_all();
        self.service_parked();
        for (_, reply) in self.parked.drain(..) {
            let _ = reply.send(Err(ServiceError::Transport(
                "registration day ended with submissions missing".into(),
            )));
        }
    }
}

/// Client half of the sharded engine (cheap to clone; one per connection
/// handler / in-process endpoint): submissions fan out to the shard
/// workers owning their sessions, everything stateful goes to the
/// sequencer.
#[derive(Clone)]
struct IngestClient {
    seq: Sender<Cmd>,
    shards: Arc<Vec<Sender<ShardCmd>>>,
    route: ShardRoute,
    /// One engine-wide ticket sequence, so tickets stay monotonic per
    /// connection no matter which shard served the submission.
    tickets: Arc<AtomicU64>,
}

impl IngestClient {
    fn call<T>(
        &self,
        build: impl FnOnce(Sender<Result<T, ServiceError>>) -> Cmd,
    ) -> Result<T, ServiceError> {
        let (tx, rx) = mpsc::channel();
        self.seq
            .send(build(tx))
            .map_err(|_| ServiceError::Transport("ingest sequencer gone".into()))?;
        rx.recv()
            .map_err(|_| ServiceError::Transport("ingest sequencer gone".into()))?
    }

    /// Sends one sequencer command and hands back the reply receiver
    /// without blocking (the gateway reactor polls it as a pending
    /// response instead of parking a thread on it).
    fn call_async<T: Send>(
        &self,
        build: impl FnOnce(Sender<Result<T, ServiceError>>) -> Cmd,
    ) -> Result<Receiver<Result<T, ServiceError>>, ServiceError> {
        let (tx, rx) = mpsc::channel();
        self.seq
            .send(build(tx))
            .map_err(|_| ServiceError::Transport("ingest sequencer gone".into()))?;
        Ok(rx)
    }

    /// Submits session-tagged groups on one lane (`make` picks it):
    /// splits them by owning shard, waits for every touched worker's
    /// acknowledgement (a station's sessions all live in one shard, so
    /// the common case is exactly one send) and returns the submission's
    /// ticket.
    fn submit<R>(
        &self,
        groups: Vec<(u64, Vec<R>)>,
        make: impl Fn(Vec<(u64, Vec<R>)>, Sender<Result<(), ServiceError>>) -> ShardCmd,
    ) -> Result<u64, ServiceError> {
        for ack in self.fan_out_async(groups, make)? {
            ack.recv()
                .map_err(|_| ServiceError::Transport("ingest worker gone".into()))??;
        }
        Ok(self.tickets.fetch_add(1, Ordering::SeqCst))
    }

    /// The non-blocking half of [`IngestClient::submit`]: splits groups
    /// by owning shard, sends, and hands back one acknowledgement
    /// receiver per touched worker.
    fn fan_out_async<R>(
        &self,
        groups: Vec<(u64, Vec<R>)>,
        make: impl Fn(Vec<(u64, Vec<R>)>, Sender<Result<(), ServiceError>>) -> ShardCmd,
    ) -> Result<Vec<Receiver<Result<(), ServiceError>>>, ServiceError> {
        let mut per_worker: Vec<Vec<(u64, Vec<R>)>> =
            (0..self.route.workers).map(|_| Vec::new()).collect();
        for group in groups {
            per_worker[self.route.worker_of(group.0)].push(group);
        }
        let mut acks = Vec::new();
        for (worker, batch) in per_worker.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let (tx, rx) = mpsc::channel();
            self.shards[worker]
                .send(make(batch, tx))
                .map_err(|_| ServiceError::Transport("ingest worker gone".into()))?;
            acks.push(rx);
        }
        Ok(acks)
    }

    fn stats(&self) -> Result<IngestStatsReply, ServiceError> {
        let (tx, rx) = mpsc::channel();
        self.seq
            .send(Cmd::Stats(tx))
            .map_err(|_| ServiceError::Transport("ingest sequencer gone".into()))?;
        rx.recv()
            .map_err(|_| ServiceError::Transport("ingest sequencer gone".into()))
    }

    fn abort(&self) {
        let _ = self.seq.send(Cmd::Abort);
    }

    /// Day teardown — must be sent exactly once, by the coordinator,
    /// after every station connection is gone (see [`Cmd::Shutdown`]).
    fn shutdown(&self) {
        let _ = self.seq.send(Cmd::Shutdown);
    }
}

/// The wired-but-unspawned sharded engine: [`build_ingest`] constructs
/// every piece before any thread exists so the caller controls spawning
/// (the day runs them on scoped threads).
struct IngestEngine<'a> {
    client: IngestClient,
    sequencer: Sequencer<'a>,
    seq_rx: Receiver<Cmd>,
    shards: Vec<(ShardWorker, Receiver<ShardCmd>)>,
}

/// Wires up the sharded ingest engine: one sequencer owning `ledger`,
/// one shard worker per entry of `worker_sessions` (each list the
/// ascending global session indices that worker owns — together a
/// partition of the day), and a cloneable client routing by `route`.
fn build_ingest<'a>(
    ledger: &'a mut Ledger,
    official: &'a Official,
    threads: usize,
    mode: IngestMode,
    route: ShardRoute,
    worker_sessions: Vec<Vec<u64>>,
) -> IngestEngine<'a> {
    let workers = worker_sessions.len();
    let (seq_tx, seq_rx) = mpsc::channel();
    let inbox = Arc::new(Mutex::new(VerifiedInbox::new(&worker_sessions)));
    let mut shard_txs = Vec::with_capacity(workers);
    let mut shards = Vec::with_capacity(workers);
    for (id, sessions) in worker_sessions.into_iter().enumerate() {
        let (tx, rx) = mpsc::channel();
        shard_txs.push(tx);
        let sessions = Arc::new(sessions);
        shards.push((
            ShardWorker {
                id,
                threads,
                mode,
                env: WorkerLane::new(Arc::clone(&sessions), EnvelopeLedger::verify_batch),
                reg: WorkerLane::new(sessions, RegistrationLedger::verify_batch),
                inbox: Arc::clone(&inbox),
                seq: seq_tx.clone(),
                failed: None,
                busy: Duration::ZERO,
                idle: Duration::ZERO,
            },
            rx,
        ));
    }
    let client = IngestClient {
        seq: seq_tx,
        shards: Arc::new(shard_txs.clone()),
        route,
        tickets: Arc::new(AtomicU64::new(0)),
    };
    let sequencer = Sequencer {
        ledger,
        official,
        threads,
        mode,
        workers,
        shard_txs,
        inbox,
        env: CommitLane {
            next: 0,
            append: |ledger, batch, threads| {
                ledger
                    .envelopes
                    .commit_batch_preverified(batch, threads)
                    .map(drop)
            },
        },
        reg: CommitLane {
            next: 0,
            append: |ledger, batch, threads| {
                ledger
                    .registration
                    .post_batch_preverified(batch, threads)
                    .map(drop)
            },
        },
        parked: Vec::new(),
        failed: None,
        stalled_reorder: 0,
        busy: Duration::ZERO,
        idle: Duration::ZERO,
    };
    IngestEngine {
        client,
        sequencer,
        seq_rx,
        shards,
    }
}

// ---------------------------------------------------------------------------
// Registrar-side shared services (no ledger state)
// ---------------------------------------------------------------------------

/// The ledger-free registrar services every connection handler can run on
/// its own thread: printing and desk-side check-out verification. Only
/// the resulting records funnel into the worker.
#[derive(Clone, Copy)]
struct HostCore<'a> {
    official: &'a Official,
    printer: &'a EnvelopePrinter,
    kiosk_registry: &'a [CompressedPoint],
    threads: usize,
}

impl HostCore<'_> {
    fn print(&self, jobs: &[PrintJob]) -> Vec<(Envelope, EnvelopeCommitment)> {
        par_map(jobs, self.threads, |job| {
            self.printer.print_detached(job.challenge, job.symbol)
        })
    }

    /// Fig 10 lines 2–5 for a station's window: verify the whole window
    /// in one committed RLC sweep on the *caller's* thread (stations
    /// verify concurrently), countersign, and regroup by session.
    fn verify_and_countersign(
        &self,
        groups: Vec<(u64, Vec<(CheckOutQr, NonceCoupon)>)>,
    ) -> Result<Vec<(u64, Vec<RegistrationRecord>)>, ServiceError> {
        let counts: Vec<(u64, usize)> = groups.iter().map(|(s, c)| (*s, c.len())).collect();
        let flat: Vec<(CheckOutQr, NonceCoupon)> =
            groups.into_iter().flat_map(|(_, c)| c).collect();
        self.official
            .verify_checkouts(&flat, self.kiosk_registry, self.threads)?;
        let mut records = self.official.countersign_checkouts(flat).into_iter();
        Ok(counts
            .into_iter()
            .map(|(session, n)| (session, records.by_ref().take(n).collect()))
            .collect())
    }
}

/// The in-process pipelined endpoint: ledger-free services run inline on
/// the station's thread; submissions fan out to the shard workers and
/// everything touching ledger state crosses the sequencer channel.
/// Serves the same four service traits a [`ChannelClient`] speaks over
/// the gateway, so the fleet drives either through the ordinary
/// [`ServiceBoundary`].
struct PipelinedEndpoint<'a> {
    core: HostCore<'a>,
    client: IngestClient,
}

impl RegistrarService for PipelinedEndpoint<'_> {
    fn check_in(&mut self, req: CheckInRequest) -> Result<CheckInResponse, ServiceError> {
        self.client
            .call(|reply| Cmd::CheckIn(req.voter, reply))
            .map(|ticket| CheckInResponse { ticket })
    }

    fn check_out_groups(
        &mut self,
        req: SeqCheckOutRequest,
    ) -> Result<CheckOutBatchResponse, ServiceError> {
        let groups = req
            .groups
            .into_iter()
            .map(|(s, checkouts)| {
                (
                    s,
                    checkouts
                        .into_iter()
                        .map(|(qr, coupon)| (qr, coupon.into()))
                        .collect(),
                )
            })
            .collect();
        let records = self.core.verify_and_countersign(groups)?;
        let ticket = self.client.submit(records, ShardCmd::Records)?;
        Ok(CheckOutBatchResponse { ticket })
    }
}

impl PrintService for PipelinedEndpoint<'_> {
    fn print_envelopes(&mut self, req: PrintRequest) -> Result<PrintResponse, ServiceError> {
        Ok(PrintResponse {
            envelopes: self.core.print(&req.jobs),
        })
    }
}

impl LedgerIngestService for PipelinedEndpoint<'_> {
    fn submit_envelope_groups(
        &mut self,
        req: SeqEnvelopeSubmitRequest,
    ) -> Result<IngestReceipt, ServiceError> {
        let ticket = self.client.submit(req.groups, ShardCmd::Envelopes)?;
        Ok(IngestReceipt { ticket })
    }

    fn sync(&mut self) -> Result<(), ServiceError> {
        self.client.call(Cmd::SyncAll)
    }

    fn sync_through(&mut self, sessions: u64) -> Result<(), ServiceError> {
        self.client.call(|reply| Cmd::SyncThrough(sessions, reply))
    }

    fn ledger_heads(&mut self) -> Result<LedgerHeads, ServiceError> {
        self.client.call(Cmd::Heads)
    }

    fn ingest_stats(&mut self) -> Result<IngestStatsReply, ServiceError> {
        self.client.stats()
    }
}

impl ActivationService for PipelinedEndpoint<'_> {
    fn activation_sweep(&mut self, req: ActivationSweepRequest) -> Result<(), ServiceError> {
        self.client.call(|reply| Cmd::Activate(req.claims, reply))
    }
}

// ---------------------------------------------------------------------------
// Client-side station runner
// ---------------------------------------------------------------------------

/// Wraps a boundary so every call past `remaining` fails as if the
/// station's connection dropped (the chaos hook behind [`StationFault`]).
struct FaultingBoundary<'a> {
    inner: &'a mut dyn RegistrarBoundary,
    remaining: usize,
    /// `Some` turns the fault into a HANG: once `remaining` hits zero
    /// the boundary parks until the flag (set at day teardown) releases
    /// it, modeling a station that stops making progress without the
    /// courtesy of an error. The release-then-error keeps the thread
    /// joinable; while the day runs, the station is simply silent.
    hang_until: Option<Arc<AtomicBool>>,
}

impl FaultingBoundary<'_> {
    fn tick(&mut self) -> Result<(), TripError> {
        if self.remaining == 0 {
            if let Some(released) = &self.hang_until {
                while !released.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(5));
                }
                return Err(TripError::Boundary(
                    "hung station released at day teardown".into(),
                ));
            }
            return Err(TripError::Boundary(
                "station connection lost (injected fault)".into(),
            ));
        }
        self.remaining -= 1;
        Ok(())
    }
}

impl RegistrarBoundary for FaultingBoundary<'_> {
    fn check_in(&mut self, voter: VoterId) -> Result<CheckInTicket, TripError> {
        self.tick()?;
        self.inner.check_in(voter)
    }

    fn print_envelopes(
        &mut self,
        jobs: &[PrintJob],
    ) -> Result<Vec<(Envelope, EnvelopeCommitment)>, TripError> {
        self.tick()?;
        self.inner.print_envelopes(jobs)
    }

    fn submit_envelope_groups(
        &mut self,
        groups: Vec<(u64, Vec<EnvelopeCommitment>)>,
    ) -> Result<IngestTicket, TripError> {
        self.tick()?;
        self.inner.submit_envelope_groups(groups)
    }

    fn submit_checkout_groups(
        &mut self,
        groups: Vec<(u64, Vec<(CheckOutQr, NonceCoupon)>)>,
    ) -> Result<IngestTicket, TripError> {
        self.tick()?;
        self.inner.submit_checkout_groups(groups)
    }

    fn sync(&mut self) -> Result<(), TripError> {
        self.tick()?;
        self.inner.sync()
    }

    fn sync_through(&mut self, sessions: u64) -> Result<(), TripError> {
        self.tick()?;
        self.inner.sync_through(sessions)
    }

    fn activation_sweep(&mut self, claims: &[ActivationClaim]) -> Result<(), TripError> {
        self.tick()?;
        self.inner.activation_sweep(claims)
    }

    fn registration_head(&mut self) -> Result<vg_ledger::TreeHead, TripError> {
        self.tick()?;
        self.inner.registration_head()
    }

    fn envelope_head(&mut self) -> Result<vg_ledger::TreeHead, TripError> {
        self.tick()?;
        self.inner.envelope_head()
    }
}

/// One delivered session, boxed: outcomes are large (credentials,
/// receipts, traces) and `Done` is tiny.
type SessionDelivery = Box<(RegistrationOutcome, Option<Vsd>, Option<StolenCredential>)>;

enum StationMsg {
    Outcome(usize, SessionDelivery),
    Done(usize, Result<(), TripError>),
}

/// How a station (or its refiller, or a steal lane) reaches the
/// registrar: direct in-process dispatch, or a pluggable [`Connector`]
/// that dials (and, per policy, secures) a gateway-served channel.
#[derive(Clone, Copy)]
enum Link<'a> {
    InProcess(HostCore<'a>),
    Gateway(&'a dyn Connector),
}

struct StationJob<'a> {
    fleet: &'a KioskFleet,
    kiosks: &'a [Kiosk],
    sessions: Vec<(usize, VoterId, usize)>,
    plans: Vec<(usize, vg_trip::pool::SessionPlan)>,
    authority_pk: vg_crypto::EdwardsPoint,
    activation: Option<&'a ActivationContext<'a>>,
    pipeline: PipelineConfig,
    fault_after: Option<usize>,
    /// `Some` makes `fault_after` a silent hang instead of a clean death
    /// (see [`StationHang`]); the flag releases the parked thread at
    /// day teardown.
    hang_release: Option<Arc<AtomicBool>>,
    /// Reconnect policy for every channel this job dials (station
    /// boundary, refiller, steal-lane reuse). Seeded per runner so a
    /// fleet that loses the registrar at once backs off desynchronized.
    retry: RetryPolicy,
    /// Shared degraded-mode telemetry, surfaced in [`DayStats`].
    counters: &'a DayCounters,
}

/// Day-wide degraded-mode counters shared across every station, steal
/// lane and refiller thread.
#[derive(Debug, Default)]
struct DayCounters {
    /// Deadline expiries observed at station boundaries (connect-time
    /// `ServiceError::Timeout`s plus in-flight stalls surfacing as
    /// `deadline expired` boundary failures).
    timeouts: AtomicU64,
    /// Retry-layer attempts beyond each operation's first try.
    reconnects: AtomicU64,
}

/// Dials (with retry) one gateway channel, counting reconnect attempts
/// and connect-time deadline expiries into the day's counters.
fn dial_with_retry(
    conn: &dyn Connector,
    retry: RetryPolicy,
    counters: &DayCounters,
) -> Result<ChannelClient, ServiceError> {
    retry.run(|attempt| {
        if attempt > 0 {
            counters.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        ChannelClient::connect(conn).inspect_err(|e| {
            if matches!(e, ServiceError::Timeout(_)) {
                counters.timeouts.fetch_add(1, Ordering::Relaxed);
            }
        })
    })
}

/// Opens a station-side boundary over `link`: the in-process pipelined
/// endpoint, or a freshly dialed (and policy-secured) channel.
fn station_boundary<'a>(
    link: Link<'a>,
    client: &IngestClient,
    retry: RetryPolicy,
    counters: &DayCounters,
) -> Result<Box<dyn RegistrarBoundary + 'a>, TripError> {
    Ok(match link {
        Link::InProcess(core) => Box::new(ServiceBoundary::new(PipelinedEndpoint {
            core,
            client: client.clone(),
        })),
        Link::Gateway(conn) => Box::new(ServiceBoundary::new(
            dial_with_retry(conn, retry, counters)
                .map_err(|e| TripError::Boundary(e.to_string()))?,
        )),
    })
}

/// One station's whole day: connect, optionally spawn the refiller on its
/// own connection, and drive the generalized fleet engine.
fn run_station(
    job: StationJob<'_>,
    link: Link<'_>,
    client: &IngestClient,
    tx: &Sender<StationMsg>,
) -> Result<(), TripError> {
    let mut boundary = station_boundary(link, client, job.retry, job.counters)?;
    drive_station(job, link, &mut *boundary, tx)
}

/// Drives one station job over an already-open boundary (stations open
/// their own; steal lanes amortize one across every chunk they absorb).
fn drive_station(
    mut job: StationJob<'_>,
    link: Link<'_>,
    boundary: &mut dyn RegistrarBoundary,
    tx: &Sender<StationMsg>,
) -> Result<(), TripError> {
    let mut faulting;
    let hang_release = job.hang_release.take();
    let boundary: &mut dyn RegistrarBoundary = match job.fault_after {
        Some(after_ops) => {
            faulting = FaultingBoundary {
                inner: boundary,
                remaining: after_ops,
                hang_until: hang_release,
            };
            &mut faulting
        }
        None => boundary,
    };
    let activation = job
        .activation
        .map(|ctx| (ctx, job.pipeline.activation_lag.max(1)));
    let mut sink = |idx: usize,
                    outcome: RegistrationOutcome,
                    vsd: Option<Vsd>,
                    stolen: Option<StolenCredential>| {
        let _ = tx.send(StationMsg::Outcome(idx, Box::new((outcome, vsd, stolen))));
    };
    // The indexed plan is only needed by the pool; move it rather than
    // cloning megabytes of SessionPlans per station (and per recovery).
    let plans = std::mem::take(&mut job.plans);
    if job.pipeline.low_water > 0 {
        let mut pool = job.fleet.prepare_pool_indexed(job.authority_pk, plans);
        let feed = PoolFeed::new(job.pipeline.low_water);
        let threads = job.fleet.config().threads;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // The refiller owns its own print client: a second
                // connection for TCP days, direct printer calls locally.
                let result = match link {
                    Link::InProcess(core) => feed.run_refiller(&mut pool, &mut |jobs| {
                        Ok(par_map(jobs, threads, |j| {
                            core.printer.print_detached(j.challenge, j.symbol)
                        }))
                    }),
                    Link::Gateway(conn) => match dial_with_retry(conn, job.retry, job.counters) {
                        Ok(mut client) => feed.run_refiller(&mut pool, &mut |jobs| {
                            client
                                .print_envelopes(PrintRequest {
                                    jobs: jobs.to_vec(),
                                })
                                .map(|r| r.envelopes)
                                .map_err(ServiceError::into_trip)
                        }),
                        Err(e) => Err(TripError::Boundary(e.to_string())),
                    },
                };
                // A refiller failure reaches the consumer through the
                // feed; nothing further to do here.
                let _ = result;
            });
            let run = job.fleet.run_station_over(
                job.kiosks,
                &mut *boundary,
                &job.sessions,
                &mut FeedSource { feed: &feed },
                activation,
                &mut sink,
            );
            feed.close();
            run
        })
    } else {
        let mut pool = job.fleet.prepare_pool_indexed(job.authority_pk, plans);
        job.fleet.run_station_over(
            job.kiosks,
            &mut *boundary,
            &job.sessions,
            &mut PoolSource { pool: &mut pool },
            activation,
            &mut sink,
        )
    }
}

/// One stolen chunk queued onto a surviving station's steal lane.
struct StealJob<'a> {
    /// Coordinator-assigned runner id (`stations + steal_seq`), the key
    /// for per-chunk failure attribution and bounded re-steal.
    runner_id: usize,
    job: StationJob<'a>,
}

/// Coordinator bookkeeping for one in-flight steal chunk: enough to
/// re-partition its sessions onto the remaining survivors if the chunk's
/// runner dies too, up to [`MAX_RESTEAL_DEPTH`] retries deep.
struct StealMeta {
    /// The original dead station (attribution in [`StealRecord`]s).
    victim: usize,
    /// Retry depth of this chunk (0 = stolen from the victim itself).
    depth: usize,
    /// Global session indices the chunk was responsible for.
    sessions: Vec<usize>,
    /// The steal lane carrying the chunk, or `None` for a dedicated
    /// one-shot runner (spawned when every candidate lane was busy).
    lane: Option<usize>,
}

/// A surviving station's steal lane: ONE extra connection per thief,
/// amortized across every chunk (and re-stolen chunk) attributed to it,
/// instead of one connection per chunk. Jobs run sequentially; a failed
/// job bounces back to the coordinator as a `Done(runner_id, Err)` and
/// the lane reconnects before the next job (an injected fault only
/// poisons the per-job wrapper, but a real transport failure would not
/// survive reuse). Exits when the coordinator drops the job sender.
///
/// A lane is only ever handed a job while it is IDLE. Steal chunks park
/// on the sequencer's global-session-order prefix barriers, so a chunk
/// queued behind a parked chunk whose barrier needs the queued chunk's
/// sessions would deadlock the day; the coordinator therefore falls
/// back to a dedicated one-shot runner whenever every candidate lane
/// still has a chunk in flight.
fn run_steal_lane<'a>(
    jobs: Receiver<StealJob<'a>>,
    link: Link<'a>,
    client: &IngestClient,
    tx: &Sender<StationMsg>,
) {
    let mut boundary: Option<Box<dyn RegistrarBoundary + 'a>> = None;
    while let Ok(StealJob { runner_id, job }) = jobs.recv() {
        let result = (|| -> Result<(), TripError> {
            let open = match &mut boundary {
                Some(open) => open,
                None => boundary.insert(station_boundary(link, client, job.retry, job.counters)?),
            };
            drive_station(job, link, &mut **open, tx)
        })();
        if result.is_err() {
            boundary = None;
        }
        let _ = tx.send(StationMsg::Done(runner_id, result));
    }
}

// ---------------------------------------------------------------------------
// The gateway dispatch
// ---------------------------------------------------------------------------

/// The pipelined engine behind the multiplexed gateway: ledger-free
/// requests (printing, check-out verification) run inline on the reactor,
/// everything stateful is forwarded to the sequencer / shard workers and
/// *parked* — the reactor polls the reply channel instead of blocking, so
/// one station's barrier never stalls another station's connection.
struct PipelineDispatch<'a> {
    core: HostCore<'a>,
    client: IngestClient,
}

/// Parks a unit-reply sequencer command as a pending gateway response.
fn park_unit(rx: Receiver<Result<(), ServiceError>>, ok: Response) -> Dispatched {
    let mut ok = Some(ok);
    park(rx, move |()| {
        // The reactor clears `pending` on the first `Some`, so the
        // closure resolves at most once; a second call is a reactor bug
        // answered typed rather than by killing the thread.
        ok.take().unwrap_or_else(|| {
            Response::Err(ServiceError::Transport(
                "pending response polled after resolution".into(),
            ))
        })
    })
}

/// Parks a typed-reply sequencer command as a pending gateway response.
fn park<T: Send + 'static>(
    rx: Receiver<Result<T, ServiceError>>,
    mut wrap: impl FnMut(T) -> Response + Send + 'static,
) -> Dispatched {
    Dispatched::Pending(Box::new(move || match rx.try_recv() {
        Ok(Ok(v)) => Some(wrap(v)),
        Ok(Err(e)) => Some(Response::Err(e)),
        Err(TryRecvError::Empty) => None,
        Err(TryRecvError::Disconnected) => Some(Response::Err(ServiceError::Transport(
            "ingest sequencer gone".into(),
        ))),
    }))
}

impl PipelineDispatch<'_> {
    /// Fans session-tagged groups out to the shard workers and parks on
    /// the workers' acknowledgements; the submission ticket is allocated
    /// when the last ack lands, mirroring the blocking path's ordering.
    fn park_fan_out<R>(
        &self,
        groups: Vec<(u64, Vec<R>)>,
        make: impl Fn(Vec<(u64, Vec<R>)>, Sender<Result<(), ServiceError>>) -> ShardCmd,
        done: impl Fn(u64) -> Response + Send + 'static,
    ) -> Dispatched {
        let mut acks = match self.client.fan_out_async(groups, make) {
            Ok(acks) => acks,
            Err(e) => return Dispatched::Now(Response::Err(e)),
        };
        let tickets = Arc::clone(&self.client.tickets);
        Dispatched::Pending(Box::new(move || {
            while let Some(rx) = acks.last() {
                match rx.try_recv() {
                    Ok(Ok(())) => {
                        acks.pop();
                    }
                    Ok(Err(e)) => return Some(Response::Err(e)),
                    Err(TryRecvError::Empty) => return None,
                    Err(TryRecvError::Disconnected) => {
                        return Some(Response::Err(ServiceError::Transport(
                            "ingest worker gone".into(),
                        )))
                    }
                }
            }
            Some(done(tickets.fetch_add(1, Ordering::SeqCst)))
        }))
    }
}

impl GatewayDispatch for PipelineDispatch<'_> {
    fn dispatch(&mut self, req: Request) -> Dispatched {
        match req {
            Request::CheckIn(m) => match self.client.call_async(|r| Cmd::CheckIn(m.voter, r)) {
                Ok(rx) => park(rx, |ticket| Response::CheckIn(CheckInResponse { ticket })),
                Err(e) => Dispatched::Now(Response::Err(e)),
            },
            Request::Print(m) => Dispatched::Now(Response::Print(PrintResponse {
                envelopes: self.core.print(&m.jobs),
            })),
            Request::SubmitEnvelopes(_) | Request::CheckOutBatch(_) => {
                Dispatched::Now(Response::Err(ServiceError::Transport(
                    "the sharded registrar requires session-tagged submissions".into(),
                )))
            }
            Request::SubmitEnvelopesSeq(m) => {
                self.park_fan_out(m.groups, ShardCmd::Envelopes, |ticket| {
                    Response::SubmitEnvelopesSeq(IngestReceipt { ticket })
                })
            }
            Request::CheckOutBatchSeq(m) => {
                let groups = m
                    .groups
                    .into_iter()
                    .map(|(s, checkouts)| {
                        (
                            s,
                            checkouts
                                .into_iter()
                                .map(|(qr, coupon)| (qr, coupon.into()))
                                .collect(),
                        )
                    })
                    .collect();
                match self.core.verify_and_countersign(groups) {
                    Ok(records) => self.park_fan_out(records, ShardCmd::Records, |ticket| {
                        Response::CheckOutBatchSeq(CheckOutBatchResponse { ticket })
                    }),
                    Err(e) => Dispatched::Now(Response::Err(e)),
                }
            }
            Request::Sync => match self.client.call_async(Cmd::SyncAll) {
                Ok(rx) => park_unit(rx, Response::Sync),
                Err(e) => Dispatched::Now(Response::Err(e)),
            },
            Request::SyncThrough(m) => {
                match self.client.call_async(|r| Cmd::SyncThrough(m.sessions, r)) {
                    Ok(rx) => park_unit(rx, Response::SyncThrough),
                    Err(e) => Dispatched::Now(Response::Err(e)),
                }
            }
            Request::LedgerHeads => match self.client.call_async(Cmd::Heads) {
                Ok(rx) => park(rx, Response::LedgerHeads),
                Err(e) => Dispatched::Now(Response::Err(e)),
            },
            Request::IngestStats => {
                let (tx, rx) = mpsc::channel();
                if self.client.seq.send(Cmd::Stats(tx)).is_err() {
                    return Dispatched::Now(Response::Err(ServiceError::Transport(
                        "ingest sequencer gone".into(),
                    )));
                }
                Dispatched::Pending(Box::new(move || match rx.try_recv() {
                    Ok(stats) => Some(Response::IngestStats(stats)),
                    Err(TryRecvError::Empty) => None,
                    Err(TryRecvError::Disconnected) => Some(Response::Err(
                        ServiceError::Transport("ingest sequencer gone".into()),
                    )),
                }))
            }
            Request::ActivationSweep(m) => {
                match self.client.call_async(|r| Cmd::Activate(m.claims, r)) {
                    Ok(rx) => park_unit(rx, Response::ActivationSweep),
                    Err(e) => Dispatched::Now(Response::Err(e)),
                }
            }
            // No ingest flush: the coordinator owns the day's final
            // barrier (matching the old multi-connection semantics).
            Request::Shutdown => Dispatched::CloseAfter(Response::Shutdown),
        }
    }
}

// ---------------------------------------------------------------------------
// The whole threaded day
// ---------------------------------------------------------------------------

/// How many times a failed steal chunk may be re-partitioned onto the
/// surviving stations before the day gives up with the runner's typed
/// error. Depth 0 is the initial steal off a dead station; each retry
/// re-steals only what is still undelivered, so bounded depth bounds
/// total replay work at roughly `depth × remaining`.
const MAX_RESTEAL_DEPTH: usize = 2;

/// Default coordinator liveness deadline: a station that delivers no
/// outcome for this long (while still holding undelivered sessions) is
/// declared *stalled* and its remainder is stolen exactly like a dead
/// station's. Deliberately generous — healthy stations deliver every few
/// milliseconds, and a false positive is merely wasteful (the dedup
/// layer absorbs the double delivery), never incorrect. Chaos tests
/// tighten it through [`ChaosOptions::stall_timeout`].
const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// [`run_day`] on the threaded engine: the commit sequencer, the shard
/// workers, the gateway (for every plan but plaintext in-process) and one
/// thread per polling station, coordinated from the caller's thread.
fn run_threaded_day(
    fleet: &KioskFleet,
    system: &mut TripSystem,
    queue: &[(VoterId, usize)],
    plan: &DayPlan,
    sink: &mut dyn FnMut(RegistrationOutcome, Vsd),
) -> Result<DayStats, TripError> {
    let DayPlan {
        transport,
        pipeline,
        activate,
        ..
    } = *plan;
    let quiet = ChaosOptions::default();
    let chaos = plan.chaos.as_ref().unwrap_or(&quiet);
    let fault = chaos.fault;
    let stall_timeout = chaos.stall_timeout.unwrap_or(DEFAULT_STALL_TIMEOUT);
    let authority_pk = system.authority.public_key;
    let printer_registry = system.printer_registry.clone();
    let last_occurrence = last_occurrence_of(queue);
    let total_sessions = queue.len();
    let TripSystem {
        officials,
        printers,
        ledger,
        kiosks,
        kiosk_registry,
        adversary_loot,
        transport_keys,
        ..
    } = system;
    let (Some(official), Some(printer)) = (officials.first(), printers.first()) else {
        return Err(TripError::InvalidConfig(
            "a registration day needs at least one official and one printer".into(),
        ));
    };
    let core = HostCore {
        official,
        printer,
        kiosk_registry,
        threads: fleet.config().threads,
    };
    let ctx = ActivationContext {
        authority_pk: &authority_pk,
        printer_registry: &printer_registry,
        last_occurrence: &last_occurrence,
    };
    let station_plans = partition_stations(queue, kiosks, pipeline.stations)?;

    // Shard ownership: one worker per station partition, folded down to
    // the effective worker count. Routing keys off the *original* kiosk
    // owner so steal re-submissions land on the same shard.
    let workers = pipeline.workers.max(1).min(station_plans.len());
    let route = ShardRoute {
        owner: Arc::new(kiosk_owners(kiosks.len(), station_plans.len())),
        workers,
    };
    let mut worker_sessions: Vec<Vec<u64>> = vec![Vec::new(); workers];
    for session in 0..total_sessions as u64 {
        worker_sessions[route.worker_of(session)].push(session);
    }

    // Disk faults go in before the engine is wired so the very first
    // WAL write is already under the injected schedule.
    if let Some(ff) = chaos.plan.as_ref().and_then(FaultPlan::fault_fs) {
        ledger.install_fault_fs(ff);
    }

    // The whole engine — sequencer, shard workers, client — is wired
    // before any thread spawns.
    let IngestEngine {
        client,
        sequencer,
        seq_rx,
        shards,
    } = build_ingest(
        ledger,
        official,
        core.threads,
        pipeline.ingest,
        route,
        worker_sessions,
    );

    // TCP: bind before the scope so stations can connect immediately.
    let listener = match transport.link {
        LinkKind::InProcess => None,
        LinkKind::Tcp => Some(
            TcpListener::bind(("127.0.0.1", 0))
                .map_err(|e| TripError::Boundary(format!("bind: {e}")))?,
        ),
    };
    let addr = listener
        .as_ref()
        .map(|l| l.local_addr())
        .transpose()
        .map_err(|e| TripError::Boundary(format!("local_addr: {e}")))?;
    // One flag tears the whole gateway down: the acceptor stops
    // admitting and the reactors exit once their connections drain.
    let accepting = Arc::new(AtomicBool::new(true));

    // The gateway serves every remote-ish day: real TCP links, and
    // in-process links that the policy secures (the handshake needs the
    // frame-level server). Only the plaintext in-process day bypasses it
    // and dispatches straight into the engine — that is the bit-identity
    // reference and the zero-overhead perf path.
    let use_gateway =
        transport.link == LinkKind::Tcp || transport.security == ChannelSecurity::Secure;

    // Reactor pool: bounded by the deployment, not the connection count.
    const MAX_REACTORS: usize = 4;
    let mut reactor_rxs = Vec::new();
    let mut intake = None;
    if use_gateway {
        let n = station_plans.len().clamp(1, MAX_REACTORS);
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| mpsc::channel()).unzip();
        reactor_rxs = rxs;
        intake = Some(GatewayIntake::new(txs));
    }
    // One pluggable connector per station, carrying that station's
    // enrolled channel identity; its refiller and steal lanes dial the
    // same connector (they act on the station's behalf).
    let connectors: Option<Vec<Box<dyn Connector>>> = intake.as_ref().map(|intake| {
        station_plans
            .iter()
            .map(|sp| -> Box<dyn Connector> {
                let policy = client_policy(transport_keys, transport.security, sp.station);
                let base: Box<dyn Connector> = match addr {
                    Some(addr) => Box::new(TcpConnector {
                        addr,
                        policy,
                        deadlines: Deadlines::default(),
                    }),
                    None => Box::new(PipeHub::new(intake.clone(), policy)),
                };
                // Network faults wrap the *established* channel, so the
                // schedule applies uniformly to plaintext and secured
                // links (injection sits outside the security policy).
                match &chaos.plan {
                    Some(fp) if fp.net_rate_permille > 0 => {
                        Box::new(FaultyConnector::new(base, fp.clone(), sp.station))
                    }
                    _ => base,
                }
            })
            .collect()
    });

    // Day-wide degraded-mode telemetry: boundary counters shared by the
    // station/lane threads, reap count owned by the gateway reactors.
    let counters = DayCounters::default();
    let reaped = Arc::new(AtomicU64::new(0));
    // Releases injected hangs at teardown so their threads join.
    let day_over = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| -> Result<DayStats, TripError> {
        scope.spawn(move || sequencer.run(seq_rx));
        for (worker, rx) in shards {
            scope.spawn(move || worker.run(rx));
        }

        // The multiplexed gateway: a bounded reactor pool serves every
        // connection — stations, refillers, steal lanes — and the
        // acceptor (TCP days only; in-process dials inject straight into
        // the intake) only hands sockets over.
        if use_gateway {
            let server_pol = server_policy(transport_keys, transport.security);
            for rx in reactor_rxs.drain(..) {
                let policy = server_pol.clone();
                let dispatch = PipelineDispatch {
                    core,
                    client: client.clone(),
                };
                let open = Arc::clone(&accepting);
                let reaped = Arc::clone(&reaped);
                scope.spawn(move || reactor_loop(rx, policy, dispatch, open, REAP_AFTER, reaped));
            }
        }
        if let Some(listener) = listener {
            let open = Arc::clone(&accepting);
            let Some(intake) = intake.clone() else {
                return Err(TripError::InvalidConfig(
                    "TCP listener configured without a gateway intake".into(),
                ));
            };
            scope.spawn(move || acceptor_loop(listener, open, intake));
        }

        let station_link = |station: usize| match &connectors {
            Some(conns) => Link::Gateway(conns[station].as_ref()),
            None => Link::InProcess(core),
        };

        let (msg_tx, msg_rx) = mpsc::channel::<StationMsg>();
        let mut spawned = 0usize;
        for sp in &station_plans {
            let hang = chaos.hang.filter(|h| h.station == sp.station);
            let job = StationJob {
                fleet,
                kiosks,
                sessions: sp.sessions.clone(),
                plans: sp.plans.clone(),
                authority_pk,
                activation: activate.then_some(&ctx),
                pipeline,
                fault_after: fault
                    .filter(|f| f.station == sp.station)
                    .map(|f| f.after_ops)
                    .or(hang.map(|h| h.after_ops)),
                hang_release: hang.map(|_| Arc::clone(&day_over)),
                retry: RetryPolicy::reconnect(sp.station as u64),
                counters: &counters,
            };
            let tx = msg_tx.clone();
            let client = client.clone();
            let station_id = sp.station;
            let link = station_link(sp.station);
            scope.spawn(move || {
                let result = run_station(job, link, &client, &tx);
                let _ = tx.send(StationMsg::Done(station_id, result));
            });
            spawned += 1;
        }

        // Coordinator: release outcomes in global session order, push
        // adversary loot in that same order, and steal a dead station's
        // undelivered kiosk range onto the survivors. Runs as an
        // immediately-invoked closure so EVERY exit path — including the
        // error returns — falls through to the acceptor wake-up below;
        // returning early from the scope with the acceptor still parked
        // in accept() would deadlock the scope join.
        let coordinate = || -> Result<DayStats, TripError> {
            let mut next_emit = 0usize;
            let mut buffered: BTreeMap<usize, SessionDelivery> = BTreeMap::new();
            let mut done = 0usize;
            let mut recovered: HashSet<usize> = HashSet::new();
            let mut alive = vec![true; station_plans.len()];
            let mut steals: Vec<StealRecord> = Vec::new();
            let mut steal_seq = 0usize;
            let mut first_error: Option<TripError> = None;
            // Per-thief steal lanes: ONE extra connection per surviving
            // station, shared by every chunk (and re-stolen chunk) that
            // thief absorbs. Declared inside the coordinator so every
            // return path drops the job senders and the lanes unwind
            // before the scope joins.
            let mut steal_lanes: HashMap<usize, Sender<StealJob>> = HashMap::new();
            // In-flight chunks per lane. A lane only accepts a job at
            // load 0 (see `run_steal_lane` on why queueing can deadlock).
            let mut lane_load: HashMap<usize, usize> = HashMap::new();
            let mut steal_meta: HashMap<usize, StealMeta> = HashMap::new();
            // Chaos budget: how many recovery runners the injected fault
            // may still kill (so bounded re-steal is testable without
            // the fault killing every retry forever).
            let mut recovery_deaths_left = fault.map_or(0, |f| f.recovery_deaths);
            // Stall-aware liveness. `session_owner` resolves a delivered
            // session index back to its original station so each outcome
            // refreshes its station's activity clock; a station with
            // undelivered sessions and a stale clock is declared
            // *stalled* — lost without the courtesy of dying — and its
            // remainder is stolen through the exact same path as a dead
            // station's, by synthesizing the `Done(id, Err)` it never
            // sent. If the stalled station later recovers and sends its
            // REAL `Done`, that message is swallowed (`stalled` set):
            // the synthetic one already advanced the `done` accounting,
            // and a late error must not abort a day the steal healed.
            let session_owner: HashMap<usize, usize> = station_plans
                .iter()
                .enumerate()
                .flat_map(|(s, sp)| sp.sessions.iter().map(move |&(idx, _, _)| (idx, s)))
                .collect();
            let mut last_activity: Vec<Instant> = vec![Instant::now(); station_plans.len()];
            let mut finished: HashSet<usize> = HashSet::new();
            let mut stalled: HashSet<usize> = HashSet::new();
            let mut stall_steals = 0u64;
            let mut synthetic: VecDeque<StationMsg> = VecDeque::new();
            let stall_poll =
                (stall_timeout / 4).clamp(Duration::from_millis(10), Duration::from_millis(250));
            while done < spawned {
                let (msg, synthesized) = match synthetic.pop_front() {
                    Some(msg) => (msg, true),
                    None => match msg_rx.recv_timeout(stall_poll) {
                        Ok(msg) => (msg, false),
                        Err(RecvTimeoutError::Disconnected) => break,
                        Err(RecvTimeoutError::Timeout) => {
                            // Liveness scan: only stations that are still
                            // nominally alive, unfinished, hold sessions
                            // nobody has delivered, and have been silent
                            // past the deadline. A healthy station parked
                            // on an activation barrier keeps its clock
                            // fresh through the other stations' outcomes
                            // only if it owns none of the missing
                            // sessions — so a false positive costs a
                            // redundant (deduped) replay, never
                            // correctness.
                            for id in 0..station_plans.len() {
                                if !alive[id]
                                    || finished.contains(&id)
                                    || stalled.contains(&id)
                                    || last_activity[id].elapsed() < stall_timeout
                                {
                                    continue;
                                }
                                let undelivered =
                                    station_plans[id].sessions.iter().any(|&(idx, _, _)| {
                                        idx >= next_emit && !buffered.contains_key(&idx)
                                    });
                                if !undelivered {
                                    continue;
                                }
                                stalled.insert(id);
                                stall_steals += 1;
                                synthetic.push_back(StationMsg::Done(
                                    id,
                                    Err(TripError::Boundary(format!(
                                        "station {id} stalled: no outcome within \
                                         {stall_timeout:?}"
                                    ))),
                                ));
                            }
                            continue;
                        }
                    },
                };
                if !synthesized {
                    if let StationMsg::Done(id, _) = &msg {
                        if stalled.remove(id) {
                            continue;
                        }
                    }
                }
                match msg {
                    StationMsg::Outcome(idx, delivery) => {
                        if let Some(&owner) = session_owner.get(&idx) {
                            last_activity[owner] = Instant::now();
                        }
                        buffered.entry(idx).or_insert(delivery);
                        while let Some(delivery) = buffered.remove(&next_emit) {
                            let (outcome, vsd, stolen) = *delivery;
                            if let Some(looted) = stolen {
                                adversary_loot.push(looted);
                            }
                            sink(outcome, vsd.unwrap_or_default());
                            next_emit += 1;
                        }
                    }
                    StationMsg::Done(id, Ok(())) => {
                        done += 1;
                        if id < station_plans.len() {
                            finished.insert(id);
                        }
                        // Retire a finished steal chunk's lane slot.
                        if let Some(t) = steal_meta.remove(&id).and_then(|m| m.lane) {
                            lane_load.entry(t).and_modify(|n| *n = n.saturating_sub(1));
                        }
                    }
                    StationMsg::Done(id, Err(e)) => {
                        done += 1;
                        if matches!(&e, TripError::Boundary(m) if m.contains("deadline expired")) {
                            counters.timeouts.fetch_add(1, Ordering::Relaxed);
                        }
                        let meta = steal_meta.remove(&id);
                        if let Some(t) = meta.as_ref().and_then(|m| m.lane) {
                            lane_load.entry(t).and_modify(|n| *n = n.saturating_sub(1));
                        }
                        // Attribute the death: an *original* station's
                        // first death is stolen; a dead steal chunk is
                        // re-stolen onto the remaining survivors up to
                        // MAX_RESTEAL_DEPTH retries deep; anything else
                        // aborts the day.
                        let resteal: Option<(usize, usize, Vec<usize>)> =
                            if id < station_plans.len()
                                && recovered.insert(id)
                                && first_error.is_none()
                            {
                                alive[id] = false;
                                Some((
                                    id,
                                    0,
                                    station_plans[id]
                                        .sessions
                                        .iter()
                                        .map(|&(idx, _, _)| idx)
                                        .collect(),
                                ))
                            } else if let Some(meta) = meta {
                                (first_error.is_none() && meta.depth < MAX_RESTEAL_DEPTH)
                                    .then_some((meta.victim, meta.depth + 1, meta.sessions))
                            } else {
                                None
                            };
                        let Some((victim, depth, candidates)) = resteal else {
                            // Unrecoverable: remember the first error and
                            // fail every parked barrier so blocked stations
                            // unwind instead of deadlocking the scope join.
                            first_error.get_or_insert(e);
                            client.abort();
                            continue;
                        };
                        // Undelivered = not yet emitted and not buffered.
                        let remaining: Vec<usize> = candidates
                            .into_iter()
                            .filter(|idx| *idx >= next_emit && !buffered.contains_key(idx))
                            .collect();
                        if remaining.is_empty() {
                            continue;
                        }
                        // Dynamic work stealing: split the undelivered
                        // kiosk range into contiguous chunks attributed
                        // round-robin to the surviving stations, so
                        // recovery re-derivation runs in parallel
                        // instead of on one serial replay connection.
                        // Each chunk rides its thief's steal *lane* —
                        // one amortized connection per thief, not one
                        // per chunk — unless every lane is busy, in
                        // which case it gets a dedicated runner (see
                        // `run_steal_lane`). The kiosk assignment never
                        // moves; shard routing (keyed off the original
                        // owner) dedups the re-submissions.
                        let sp = &station_plans[victim];
                        let k = kiosks.len();
                        let mut stolen_kiosks: Vec<usize> =
                            remaining.iter().map(|idx| idx % k).collect();
                        stolen_kiosks.sort_unstable();
                        stolen_kiosks.dedup();
                        let survivors: Vec<usize> =
                            (0..station_plans.len()).filter(|s| alive[*s]).collect();
                        // No survivors: one chunk, replayed by the
                        // victim itself (the pre-stealing behavior).
                        let chunks = survivors.len().clamp(1, stolen_kiosks.len());
                        for c in 0..chunks {
                            let lo = c * stolen_kiosks.len() / chunks;
                            let hi = (c + 1) * stolen_kiosks.len() / chunks;
                            let owned: HashSet<usize> =
                                stolen_kiosks[lo..hi].iter().copied().collect();
                            let keep: HashSet<usize> = remaining
                                .iter()
                                .copied()
                                .filter(|idx| owned.contains(&(idx % k)))
                                .collect();
                            if keep.is_empty() {
                                continue;
                            }
                            // Prefer riding an IDLE survivor lane (one
                            // amortized connection per thief); when every
                            // candidate lane has a chunk in flight, fall
                            // back to a dedicated one-shot runner so
                            // session-ordered chunks never serialize
                            // behind each other (prefix-barrier deadlock).
                            let preferred = survivors
                                .get(c % survivors.len().max(1))
                                .copied()
                                .unwrap_or(victim);
                            let lane_thief = (0..survivors.len())
                                .map(|o| survivors[(c + o) % survivors.len()])
                                .find(|t| lane_load.get(t).is_none_or(|n| *n == 0));
                            let thief = lane_thief.unwrap_or(preferred);
                            steals.push(StealRecord {
                                victim,
                                thief,
                                sessions: keep.len(),
                                depth,
                            });
                            let sessions: Vec<(usize, VoterId, usize)> = sp
                                .sessions
                                .iter()
                                .filter(|(idx, _, _)| keep.contains(idx))
                                .copied()
                                .collect();
                            let session_idxs: Vec<usize> =
                                sessions.iter().map(|&(idx, _, _)| idx).collect();
                            // Steal chunks draw their materials from a
                            // pre-built pool instead of spinning up a
                            // refiller connection per chunk (same
                            // seeded plans → same bytes either way).
                            let mut chunk_pipeline = pipeline;
                            chunk_pipeline.low_water = 0;
                            // Kill-during-failover chaos hook: the
                            // fault may kill up to `recovery_deaths`
                            // recovery runners before the retries are
                            // allowed to succeed.
                            let fault_after = match fault {
                                Some(f) if f.station == victim && recovery_deaths_left > 0 => {
                                    f.recovery_after_ops.inspect(|_| recovery_deaths_left -= 1)
                                }
                                _ => None,
                            };
                            let job = StationJob {
                                fleet,
                                kiosks,
                                sessions,
                                plans: sp
                                    .plans
                                    .iter()
                                    .filter(|(idx, _)| keep.contains(idx))
                                    .copied()
                                    .collect(),
                                authority_pk,
                                activation: activate.then_some(&ctx),
                                pipeline: chunk_pipeline,
                                fault_after,
                                hang_release: None,
                                retry: RetryPolicy::reconnect(
                                    (station_plans.len() + steal_seq) as u64,
                                ),
                                counters: &counters,
                            };
                            let runner_id = station_plans.len() + steal_seq;
                            steal_seq += 1;
                            steal_meta.insert(
                                runner_id,
                                StealMeta {
                                    victim,
                                    depth,
                                    sessions: session_idxs,
                                    lane: lane_thief,
                                },
                            );
                            match lane_thief {
                                Some(t) => {
                                    *lane_load.entry(t).or_insert(0) += 1;
                                    let lane = steal_lanes.entry(t).or_insert_with(|| {
                                        let (job_tx, job_rx) = mpsc::channel::<StealJob>();
                                        let tx = msg_tx.clone();
                                        let client = client.clone();
                                        let link = station_link(t);
                                        scope.spawn(move || {
                                            run_steal_lane(job_rx, link, &client, &tx)
                                        });
                                        job_tx
                                    });
                                    // The lane cannot be gone while we
                                    // hold its sender; a send failure is
                                    // unreachable.
                                    let _ = lane.send(StealJob { runner_id, job });
                                }
                                None => {
                                    let tx = msg_tx.clone();
                                    let client = client.clone();
                                    let link = station_link(thief);
                                    scope.spawn(move || {
                                        let result = run_station(job, link, &client, &tx);
                                        let _ = tx.send(StationMsg::Done(runner_id, result));
                                    });
                                }
                            }
                            spawned += 1;
                        }
                    }
                }
            }
            drop(msg_tx);

            if let Some(e) = first_error {
                return Err(e);
            }
            if next_emit != total_sessions {
                return Err(TripError::Boundary(format!(
                    "day ended with {next_emit}/{total_sessions} sessions delivered"
                )));
            }

            // Final barrier + telemetry straight over the engine channel.
            client.call(Cmd::SyncAll).map_err(ServiceError::into_trip)?;
            let ingest = client
                .stats()
                .map_err(|e| TripError::Boundary(e.to_string()))?;
            Ok(DayStats {
                ingest,
                workers,
                steals,
                timeouts: counters.timeouts.load(Ordering::Relaxed),
                reconnects: counters.reconnects.load(Ordering::Relaxed),
                reaped: reaped.load(Ordering::Relaxed),
                stall_steals,
            })
        };
        let result = coordinate();

        // Tear the gateway down — on success AND failure alike (see the
        // coordinator comment): clear the flag so the reactors exit once
        // their connections drain, and wake the acceptor (parked in
        // accept()) with a throwaway connection so it observes the flag.
        // Injected hangs release first so their threads join.
        day_over.store(true, Ordering::SeqCst);
        accepting.store(false, Ordering::SeqCst);
        if let Some(addr) = addr {
            drop(TcpStream::connect(addr));
        }
        // Teardown handshake: the sequencer drops its shard senders so
        // the workers drain and exit; dropping the coordinator's client
        // (the reactors' clones go with their threads) then lets the
        // sequencer itself exit. Both must happen on every exit path or
        // the scope join deadlocks.
        client.shutdown();
        drop(client);
        result
    })
}
