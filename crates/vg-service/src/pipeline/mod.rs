//! The registration day: one entry point, [`run_day`], and the threaded
//! engine behind every day that needs concurrency — background pool
//! refillers, one ingest lane per ledger, and a multi-connection
//! registrar with dynamic kiosk work stealing.
//!
//! # One entry point, two ways to run
//!
//! [`run_day`] reads the engine off its [`DayPlan`]; the caller never
//! picks one. A plan that needs no concurrency — in-process plaintext
//! transport, the default [`PipelineConfig`], no chaos — runs **inline**:
//! thread-free on [`vg_trip::LocalBoundary`] (unless
//! `FleetConfig::threads > 1` fans a window out), synchronous admission,
//! a `persist()` commit point at every barrier. Every other plan, one-station TCP and
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
//! - **One seam**: every registrar operation enters the engine as a
//!   [`Request`](crate::messages::Request) and is translated into a
//!   sequencer command in exactly one dispatch arm (`station.rs`), which
//!   waits on the reply channel it creates. Its caller is the station's
//!   own thread (the in-process link) or the thread serving the
//!   station's connection. All engine threads book their telemetry into
//!   one shared counter block, snapshotted into the flat [`DayStats`].
//! - **Refillers** ([`vg_trip::pool::PoolFeed`]): each polling station
//!   runs a dedicated thread with its own registrar link, sending
//!   `Request::Print`s that keep the station's ceremony pool above a
//!   low-water mark, hiding precompute behind ceremony latency mid-day,
//!   not just at warm start. It is the station's only other thread:
//!   ceremonies, submissions and activation run in one loop on the
//!   station's own ([`KioskFleet::run_station_over`]).
//! - **One ingest lane per ledger**: the **commit sequencer** thread
//!   (`sequencer.rs`) owns the ledgers and every piece of admission
//!   state, under no lock. Each lane — envelope commitments,
//!   registration records — is a reorder buffer keyed by global session
//!   index, a commit cursor and the ledger's own verify-then-append
//!   entry point ([`vg_ledger::EnvelopeLedger::commit_batch`],
//!   [`vg_ledger::RegistrationLedger::post_batch`]: the two calls
//!   `LocalBoundary` makes). A sweep admits the contiguous arrived
//!   prefix as one coalesced RLC-folded batch, in exact session order,
//!   and ends at the `persist()` commit barrier — **one signed head per
//!   ledger**. Prefix barriers
//!   ([`Request::SyncThrough`](crate::messages::Request)) resolve as
//!   soon as their prefix has arrived and been admitted. A layer of
//!   shard verification workers in front of the sequencer was measured
//!   level with this (one worker against two, and the fold against its
//!   parent, ten alternating pairs each — README, *Ingest & work
//!   stealing*) and deleted; a multi-lane design has to beat those rows.
//! - **Multi-connection registrar**: the server (`gateway.rs`) gives
//!   each of N kiosk-coordinator connections (one per polling station,
//!   plus each station's refiller client) a blocking thread of its own,
//!   which prints and runs Fig 10's check-out verification itself; the
//!   commit sequencer is the single serialization point for ledger
//!   state.
//!
//! # Bit-identity
//!
//! Every plan — inline or threaded; station count, low-water mark,
//! ingest mode, activation lag, transport — produces
//! ledgers and credentials bit-identical to the sequential seeded
//! reference: session materials are pure functions of `(seed, global
//! index, voter)`, kiosk assignment stays `index mod |K|` (stations own
//! disjoint kiosk chunks), and the sequencer commits records in global
//! session order no matter which station finished first.
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
//! sessions are byte-identical (determinism again) and each lane drops a
//! session index it has already admitted or buffered, so a partially
//! submitted window heals without double admission.

mod coordinator;
mod sequencer;
mod station;

use std::time::Duration;

use vg_ledger::VoterId;
use vg_trip::fleet::KioskFleet;
use vg_trip::protocol::RegistrationOutcome;
use vg_trip::setup::TripSystem;
use vg_trip::vsd::Vsd;
use vg_trip::TripError;

use crate::fault::FaultPlan;
use crate::transport::{DayStats, EngineStats, TransportPlan};

use coordinator::run_threaded_day;

/// When the sequencer runs admission sweeps.
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
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            stations: 1,
            low_water: 0,
            ingest: IngestMode::Barrier,
            activation_lag: 1,
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
    // No engine: a zeroed counter block.
    Ok(EngineStats::default().snapshot(system.ledger.durability_stats()))
}
