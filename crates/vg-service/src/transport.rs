//! Transport plans, the one typed↔message mapping ([`ServiceBoundary`])
//! over the one-method [`RequestEndpoint`] seam, the [`ChannelClient`]
//! that speaks it over any framed channel, and the day telemetry every
//! [`run_day`](crate::run_day) returns.
//!
//! Below [`RegistrarBoundary`] the [`Request`] → [`Response`] message is
//! the only seam. A registrar operation is spelled in four places: the
//! trait declaration and `LocalBoundary` in `vg-trip`, its mapping in
//! [`ServiceBoundary`] here, and its dispatch arm in the threaded engine
//! ([`crate::pipeline`]). Three things implement [`RequestEndpoint`]: the
//! [`ChannelClient`] (wire), the engine's in-process link (dispatch, then
//! block on the reply channel) and the chaos op-count wrapper around
//! either.
//!
//! Endpoints are pluggable *channel values* (see [`crate::channel`]): a
//! day takes one of the three [`TransportPlan`]s and wires its stations
//! to the registrar through whichever [`Connector`] implements it:
//!
//! - [`TransportPlan::IN_PROCESS`]: no frames at all. On the default
//!   pipeline the day runs inline on [`vg_trip::LocalBoundary`]; on any
//!   other it dispatches straight into the threaded engine over
//!   in-process channels. The reference.
//! - [`TransportPlan::TCP`] and [`TransportPlan::SECURE_TCP`]:
//!   length-prefixed frames over a loopback socket into the server;
//!   every request round-trips the full versioned codec (and, when
//!   secure, the handshake and the sealed-record layer).
//!
//! Every plan is bit-identical to every other (pinned by the workspace's
//! cross-transport equivalence proptests).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use vg_ledger::{DurabilityStats, EnvelopeCommitment, VoterId};
use vg_trip::boundary::{RegistrarBoundary, SessionSubmission};
use vg_trip::materials::{CheckInTicket, Envelope};
use vg_trip::setup::TransportKeyring;
use vg_trip::vsd::ActivationClaim;
use vg_trip::{PrintJob, TripError};

use crate::channel::{ChannelPolicy, Connector, FramedChannel, SecureConfig};
use crate::error::ServiceError;
use crate::messages::{
    ActivationSweepRequest, CheckInRequest, IngestStatsReply, PrintRequest, Request, Response,
    SubmitWindowRequest, SyncThroughRequest,
};

/// Which link a registration day runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub(crate) enum LinkKind {
    /// Same-process endpoints (direct dispatch).
    #[default]
    InProcess,
    /// Length-prefixed frames over a loopback TCP socket.
    Tcp,
}

/// Whether the day's channels run the mutual-auth encrypted handshake.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub(crate) enum ChannelSecurity {
    /// Bare frames (the reference configuration).
    #[default]
    Plaintext,
    /// SIGMA-style handshake + per-direction encrypt-then-MAC sealing,
    /// keyed by the deployment's enrolled
    /// [`TransportKeyring`].
    Secure,
}

/// How a registration day's endpoints are wired: one of the three
/// plans below, the only values a caller can name. Security rides only
/// on the TCP link; the default is [`TransportPlan::IN_PROCESS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TransportPlan {
    pub(crate) link: LinkKind,
    pub(crate) security: ChannelSecurity,
}

impl TransportPlan {
    /// Direct in-process dispatch (zero-copy; the reference).
    pub const IN_PROCESS: Self = Self {
        link: LinkKind::InProcess,
        security: ChannelSecurity::Plaintext,
    };
    /// Plaintext loopback TCP.
    pub const TCP: Self = Self {
        link: LinkKind::Tcp,
        security: ChannelSecurity::Plaintext,
    };
    /// Authenticated + encrypted loopback TCP.
    pub const SECURE_TCP: Self = Self {
        link: LinkKind::Tcp,
        security: ChannelSecurity::Secure,
    };
}

/// Builds the client-side channel policy for `station` from the
/// deployment keyring (station keys round-robin over the keyring slots;
/// refillers and steal runners reuse their station's identity).
pub(crate) fn client_policy(
    keys: &TransportKeyring,
    security: ChannelSecurity,
    station: usize,
) -> ChannelPolicy {
    match security {
        ChannelSecurity::Plaintext => ChannelPolicy::Plaintext,
        ChannelSecurity::Secure => ChannelPolicy::Secure(SecureConfig {
            local: keys.station(station).clone(),
            registrar: keys.registrar_pk,
            enrolled: Arc::new(Vec::new()),
        }),
    }
}

/// Builds the registrar-side channel policy from the deployment keyring.
pub(crate) fn server_policy(keys: &TransportKeyring, security: ChannelSecurity) -> ChannelPolicy {
    match security {
        ChannelSecurity::Plaintext => ChannelPolicy::Plaintext,
        ChannelSecurity::Secure => ChannelPolicy::Secure(SecureConfig {
            local: keys.registrar.clone(),
            registrar: keys.registrar_pk,
            enrolled: Arc::new(keys.station_registry.clone()),
        }),
    }
}

/// The one seam below [`RegistrarBoundary`]: a registrar that answers
/// one [`Request`] with one [`Response`] — [`Response::Err`] when it
/// refused the request or the link to it failed.
pub trait RequestEndpoint {
    /// Sends one request and waits for its response.
    fn call(&mut self, req: Request) -> Response;
}

/// The fleet's [`RegistrarBoundary`] over any [`RequestEndpoint`]: the
/// single place a typed registrar call becomes a [`Request`] and its
/// [`Response`] becomes a typed result — one request per call, so the
/// chaos op counter under it counts boundary calls.
pub struct ServiceBoundary<'a> {
    endpoint: &'a mut dyn RequestEndpoint,
    timeouts: &'a AtomicU64,
}

impl<'a> ServiceBoundary<'a> {
    /// Wraps an endpoint; deadline expiries it reports are counted into
    /// `timeouts` while they are still typed [`ServiceError::Timeout`]s.
    pub fn new(endpoint: &'a mut dyn RequestEndpoint, timeouts: &'a AtomicU64) -> Self {
        Self { endpoint, timeouts }
    }

    fn call(&mut self, req: Request) -> Result<Response, TripError> {
        match self.endpoint.call(req) {
            Response::Err(e) => {
                if matches!(e, ServiceError::Timeout(_)) {
                    self.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                Err(e.into_trip())
            }
            resp => Ok(resp),
        }
    }
}

fn mismatched<T>() -> Result<T, TripError> {
    Err(TripError::Boundary("mismatched response tag".into()))
}

impl RegistrarBoundary for ServiceBoundary<'_> {
    fn check_in(&mut self, voter: VoterId) -> Result<CheckInTicket, TripError> {
        match self.call(Request::CheckIn(CheckInRequest { voter }))? {
            Response::CheckIn(r) => Ok(r.ticket),
            _ => mismatched(),
        }
    }

    fn print_envelopes(
        &mut self,
        jobs: &[PrintJob],
    ) -> Result<Vec<(Envelope, EnvelopeCommitment)>, TripError> {
        let jobs = jobs.to_vec();
        match self.call(Request::Print(PrintRequest { jobs }))? {
            Response::Print(r) => Ok(r.envelopes),
            _ => mismatched(),
        }
    }

    fn submit_window(&mut self, window: Vec<SessionSubmission>) -> Result<(), TripError> {
        let sessions = window.into_iter().map(Into::into).collect();
        match self.call(Request::SubmitWindow(SubmitWindowRequest { sessions }))? {
            Response::SubmitWindow => Ok(()),
            _ => mismatched(),
        }
    }

    fn sync_through(&mut self, sessions: u64) -> Result<(), TripError> {
        match self.call(Request::SyncThrough(SyncThroughRequest { sessions }))? {
            Response::SyncThrough => Ok(()),
            _ => mismatched(),
        }
    }

    fn activation_sweep(&mut self, claims: &[ActivationClaim]) -> Result<(), TripError> {
        let claims = claims.to_vec();
        match self.call(Request::ActivationSweep(ActivationSweepRequest { claims }))? {
            Response::ActivationSweep => Ok(()),
            _ => mismatched(),
        }
    }
}

/// A [`RequestEndpoint`] over any established [`FramedChannel`]
/// (plaintext TCP, secure TCP, in-process pipes — the client neither
/// knows nor cares).
pub struct ChannelClient {
    chan: Box<dyn FramedChannel>,
}

impl ChannelClient {
    /// Wraps an already-established channel.
    pub fn over(chan: Box<dyn FramedChannel>) -> Self {
        Self { chan }
    }

    /// Dials through a [`Connector`] (which runs any configured
    /// handshake before returning).
    pub fn connect(connector: &dyn Connector) -> Result<Self, ServiceError> {
        Ok(Self::over(connector.connect()?))
    }
}

impl RequestEndpoint for ChannelClient {
    fn call(&mut self, req: Request) -> Response {
        let round_trip = |chan: &mut dyn FramedChannel| {
            chan.send_frame(&req.to_wire())?;
            Response::from_wire(&chan.recv_frame()?).map_err(ServiceError::codec)
        };
        round_trip(&mut *self.chan).unwrap_or_else(Response::Err)
    }
}

/// One stolen kiosk-range chunk: when a polling station dies mid-day,
/// each surviving station that absorbs a contiguous chunk of the dead
/// station's kiosk range logs one of these (the kiosk assignment `i mod
/// |K|` never moves — only transport ownership does).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StealRecord {
    /// The dead station whose kiosk range was stolen.
    pub victim: usize,
    /// The surviving station the chunk was attributed to.
    pub thief: usize,
    /// Undelivered sessions the chunk re-ran.
    pub sessions: usize,
    /// Retry depth of this chunk: `0` for a first steal off the dead
    /// station, `n` for a chunk re-stolen after `n` steal-runner deaths.
    pub depth: usize,
}

/// End-of-day service-layer telemetry, returned by
/// [`run_day`](crate::run_day): one flat record. The engine counters
/// (batches, sweeps, busy/idle, degraded-mode counts) are zero on an
/// inline day, which has no engine; the WAL counters are the ledger's
/// own on every day.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DayStats {
    /// Window submissions the ingest lane buffered that brought at least
    /// one new session (the coalescing ratio is `batches / sweeps`).
    pub batches: u64,
    /// Admission sweeps that admitted at least one session: each one
    /// verifies its sessions' commitments and records in one RLC fold per
    /// ledger and appends them to L_E and L_R.
    pub sweeps: u64,
    /// Busy time of the one ingest thread, the commit sequencer, in
    /// microseconds.
    pub worker_busy_us: u64,
    /// Idle time of the same thread (parked on its command channel), in
    /// microseconds.
    pub worker_idle_us: u64,
    /// Records appended to the WAL (zero on the volatile backends).
    pub wal_records: u64,
    /// Group fsyncs issued at commit barriers.
    pub wal_fsyncs: u64,
    /// WAL IO failures absorbed as typed errors (nonzero only on days
    /// degraded by real or injected disk faults).
    pub wal_failures: u64,
    /// Work-stealing log: one entry per chunk of a dead station's kiosk
    /// range absorbed by a survivor, retry chains included. Empty on
    /// healthy days.
    pub steals: Vec<StealRecord>,
    /// Deadline expiries observed at station boundaries (connect and
    /// call timeouts, injected stalls included). Zero on healthy days.
    pub timeouts: u64,
    /// Reconnect attempts the retry layer made beyond first tries.
    pub reconnects: u64,
    /// Connections the server ended at a read deadline: half-open in the
    /// handshake, or stalled mid-frame.
    pub reaped: u64,
    /// Stations declared lost by the coordinator's *stall* detector (no
    /// progress within the liveness deadline) rather than by a clean
    /// connection death; each one triggered the chunked steal path.
    pub stall_steals: u64,
    /// Runners (stations or steal chunks) the coordinator marked lost,
    /// dead or stalled, whether or not they left sessions to steal: a
    /// station lost at its final barrier shows here and nowhere else.
    pub lost_runners: u64,
}

/// Tag 11's wire payload — the one place it is built — from the same
/// snapshot every day returns.
impl From<&DayStats> for IngestStatsReply {
    fn from(day: &DayStats) -> Self {
        Self {
            batches: day.batches,
            sweeps: day.sweeps,
            worker_busy_us: day.worker_busy_us,
            worker_idle_us: day.worker_idle_us,
            wal_records: day.wal_records,
            wal_fsyncs: day.wal_fsyncs,
            wal_failures: day.wal_failures,
        }
    }
}

/// The threaded engine's one shared counter block: the sequencer,
/// station/refiller/steal runners, the server's threads and the
/// coordinator all bump it in place, and [`EngineStats::snapshot`]
/// flattens it into the public [`DayStats`] (an inline day snapshots a
/// zeroed block).
#[derive(Default)]
pub(crate) struct EngineStats {
    /// The ingest lane's coalescing counters ([`DayStats::batches`],
    /// [`DayStats::sweeps`]).
    pub(crate) batches: AtomicU64,
    pub(crate) sweeps: AtomicU64,
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
    pub(crate) timeouts: AtomicU64,
    pub(crate) reconnects: AtomicU64,
    pub(crate) reaped: AtomicU64,
    pub(crate) stall_steals: AtomicU64,
}

impl EngineStats {
    /// Books the time since `since` as ingest-thread busy time.
    pub(crate) fn busy(&self, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Books the time since `since` as ingest-thread idle time.
    pub(crate) fn idle(&self, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        self.idle_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// The counters as of now beside the ledger's WAL counters (no steal
    /// log — the coordinator adds that).
    pub(crate) fn snapshot(&self, wal: DurabilityStats) -> DayStats {
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        DayStats {
            batches: get(&self.batches),
            sweeps: get(&self.sweeps),
            worker_busy_us: get(&self.busy_ns) / 1000,
            worker_idle_us: get(&self.idle_ns) / 1000,
            wal_records: wal.wal_records,
            wal_fsyncs: wal.wal_fsyncs,
            wal_failures: wal.wal_failures,
            timeouts: get(&self.timeouts),
            reconnects: get(&self.reconnects),
            reaped: get(&self.reaped),
            stall_steals: get(&self.stall_steals),
            ..DayStats::default()
        }
    }
}
