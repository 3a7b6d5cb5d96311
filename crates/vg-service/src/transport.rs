//! Transport plans, the fleet-facing [`ServiceBoundary`] adapter, the
//! [`ChannelClient`] that speaks the four services over any framed
//! channel, and the day telemetry every [`run_day`](crate::run_day)
//! returns.
//!
//! Endpoints are pluggable *channel values* (see [`crate::channel`]): a
//! day takes a [`TransportPlan`] — a link kind × security policy pair —
//! and wires its stations to the registrar through whichever
//! [`Connector`] implements it:
//!
//! - `InProcess × Plaintext`: no frames at all. On the default pipeline
//!   the day runs inline on [`vg_trip::LocalBoundary`]; on any other it
//!   dispatches straight into the sharded engine over in-process
//!   channels. The reference.
//! - `InProcess × Secure`: the full handshake + encrypted records over
//!   in-process pipes into the gateway, exercising the identical
//!   protocol state machines without a socket.
//! - `Tcp × {Plaintext, Secure}`: length-prefixed frames over a loopback
//!   socket into the gateway; every request round-trips the full
//!   versioned codec (and, when secure, the sealed-record layer).
//!
//! Every plan is bit-identical to every other (pinned by the workspace's
//! cross-transport equivalence proptests).

use std::sync::Arc;

use vg_crypto::schnorr::NonceCoupon;
use vg_ledger::{EnvelopeCommitment, TreeHead, VoterId};
use vg_trip::boundary::{IngestTicket, RegistrarBoundary};
use vg_trip::materials::{CheckInTicket, CheckOutQr, Envelope};
use vg_trip::setup::TransportKeyring;
use vg_trip::vsd::ActivationClaim;
use vg_trip::{PrintJob, TripError};

use crate::channel::{ChannelPolicy, Connector, FramedChannel, SecureConfig};
use crate::error::ServiceError;
use crate::messages::{
    ActivationSweepRequest, CheckInRequest, CheckInResponse, CheckOutBatchResponse, IngestReceipt,
    IngestStatsReply, LedgerHeads, PrintRequest, PrintResponse, Request, Response,
    SeqCheckOutRequest, SeqEnvelopeSubmitRequest, SyncThroughRequest,
};
use crate::traits::{
    ActivationService, LedgerIngestService, PrintService, RegistrarEndpoint, RegistrarService,
};

/// Which link a registration day runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LinkKind {
    /// Same-process endpoints (direct dispatch, or pipes when secured).
    #[default]
    InProcess,
    /// Length-prefixed frames over a loopback TCP socket.
    Tcp,
}

/// Whether the day's channels run the mutual-auth encrypted handshake.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ChannelSecurity {
    /// Bare frames (the reference configuration).
    #[default]
    Plaintext,
    /// SIGMA-style handshake + per-direction encrypt-then-MAC sealing,
    /// keyed by the deployment's enrolled
    /// [`TransportKeyring`].
    Secure,
}

/// A value describing how a registration day's endpoints are wired:
/// link kind × channel security. Plans compose, and new links/policies
/// slot in without touching every call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TransportPlan {
    /// The link layer.
    pub link: LinkKind,
    /// The channel-security policy.
    pub security: ChannelSecurity,
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
    /// Authenticated + encrypted in-process pipes.
    pub const SECURE_IN_PROCESS: Self = Self {
        link: LinkKind::InProcess,
        security: ChannelSecurity::Secure,
    };

    /// This plan with the secure channel policy switched on.
    pub fn secured(self) -> Self {
        Self {
            security: ChannelSecurity::Secure,
            ..self
        }
    }

    /// Whether channels run the handshake + encryption.
    pub fn is_secure(&self) -> bool {
        self.security == ChannelSecurity::Secure
    }
}

impl From<LinkKind> for TransportPlan {
    fn from(link: LinkKind) -> Self {
        Self {
            link,
            security: ChannelSecurity::Plaintext,
        }
    }
}

/// Builds the client-side channel policy for `station` from the
/// deployment keyring (station keys round-robin over the keyring slots;
/// refillers and steal lanes reuse their station's identity).
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

/// Adapts any [`RegistrarEndpoint`] into the fleet's
/// [`RegistrarBoundary`], mapping message types at the seam.
pub struct ServiceBoundary<E> {
    /// The underlying endpoint (the in-process sharded-engine endpoint
    /// or a [`ChannelClient`]).
    pub endpoint: E,
}

impl<E: RegistrarEndpoint> ServiceBoundary<E> {
    /// Wraps an endpoint.
    pub fn new(endpoint: E) -> Self {
        Self { endpoint }
    }
}

impl<E: RegistrarEndpoint> RegistrarBoundary for ServiceBoundary<E> {
    fn check_in(&mut self, voter: VoterId) -> Result<CheckInTicket, TripError> {
        self.endpoint
            .check_in(CheckInRequest { voter })
            .map(|r| r.ticket)
            .map_err(ServiceError::into_trip)
    }

    fn print_envelopes(
        &mut self,
        jobs: &[PrintJob],
    ) -> Result<Vec<(Envelope, EnvelopeCommitment)>, TripError> {
        self.endpoint
            .print_envelopes(PrintRequest {
                jobs: jobs.to_vec(),
            })
            .map(|r| r.envelopes)
            .map_err(ServiceError::into_trip)
    }

    fn sync(&mut self) -> Result<(), TripError> {
        self.endpoint.sync().map_err(ServiceError::into_trip)
    }

    fn submit_envelope_groups(
        &mut self,
        groups: Vec<(u64, Vec<EnvelopeCommitment>)>,
    ) -> Result<IngestTicket, TripError> {
        self.endpoint
            .submit_envelope_groups(SeqEnvelopeSubmitRequest { groups })
            .map(|r| IngestTicket(r.ticket))
            .map_err(ServiceError::into_trip)
    }

    fn submit_checkout_groups(
        &mut self,
        groups: Vec<(u64, Vec<(CheckOutQr, NonceCoupon)>)>,
    ) -> Result<IngestTicket, TripError> {
        let groups = groups
            .into_iter()
            .map(|(idx, checkouts)| {
                (
                    idx,
                    checkouts
                        .into_iter()
                        .map(|(qr, coupon)| (qr, coupon.into()))
                        .collect(),
                )
            })
            .collect();
        self.endpoint
            .check_out_groups(SeqCheckOutRequest { groups })
            .map(|r| IngestTicket(r.ticket))
            .map_err(ServiceError::into_trip)
    }

    fn sync_through(&mut self, sessions: u64) -> Result<(), TripError> {
        self.endpoint
            .sync_through(sessions)
            .map_err(ServiceError::into_trip)
    }

    fn activation_sweep(&mut self, claims: &[ActivationClaim]) -> Result<(), TripError> {
        self.endpoint
            .activation_sweep(ActivationSweepRequest {
                claims: claims.to_vec(),
            })
            .map_err(ServiceError::into_trip)
    }

    fn registration_head(&mut self) -> Result<TreeHead, TripError> {
        self.endpoint
            .ledger_heads()
            .map(|h| h.registration)
            .map_err(ServiceError::into_trip)
    }

    fn envelope_head(&mut self) -> Result<TreeHead, TripError> {
        self.endpoint
            .ledger_heads()
            .map(|h| h.envelopes)
            .map_err(ServiceError::into_trip)
    }
}

/// A client for all four services over any established [`FramedChannel`]
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

    fn call(&mut self, req: &Request) -> Result<Response, ServiceError> {
        self.chan.send_frame(&req.to_wire())?;
        let frame = self.chan.recv_frame()?;
        Response::from_wire(&frame).map_err(ServiceError::codec)
    }
}

macro_rules! chan_call {
    ($self:ident, $req:expr, $variant:ident) => {
        match $self.call(&$req)? {
            Response::$variant(m) => Ok(m),
            Response::Err(e) => Err(e),
            _ => Err(ServiceError::Transport("mismatched response tag".into())),
        }
    };
    ($self:ident, $req:expr, $variant:ident, unit) => {
        match $self.call(&$req)? {
            Response::$variant => Ok(()),
            Response::Err(e) => Err(e),
            _ => Err(ServiceError::Transport("mismatched response tag".into())),
        }
    };
}

impl RegistrarService for ChannelClient {
    fn check_in(&mut self, req: CheckInRequest) -> Result<CheckInResponse, ServiceError> {
        chan_call!(self, Request::CheckIn(req), CheckIn)
    }

    fn check_out_groups(
        &mut self,
        req: SeqCheckOutRequest,
    ) -> Result<CheckOutBatchResponse, ServiceError> {
        chan_call!(self, Request::CheckOutBatchSeq(req), CheckOutBatchSeq)
    }
}

impl PrintService for ChannelClient {
    fn print_envelopes(&mut self, req: PrintRequest) -> Result<PrintResponse, ServiceError> {
        chan_call!(self, Request::Print(req), Print)
    }
}

impl LedgerIngestService for ChannelClient {
    fn sync(&mut self) -> Result<(), ServiceError> {
        chan_call!(self, Request::Sync, Sync, unit)
    }

    fn ledger_heads(&mut self) -> Result<LedgerHeads, ServiceError> {
        chan_call!(self, Request::LedgerHeads, LedgerHeads)
    }

    fn submit_envelope_groups(
        &mut self,
        req: SeqEnvelopeSubmitRequest,
    ) -> Result<IngestReceipt, ServiceError> {
        chan_call!(self, Request::SubmitEnvelopesSeq(req), SubmitEnvelopesSeq)
    }

    fn sync_through(&mut self, sessions: u64) -> Result<(), ServiceError> {
        chan_call!(
            self,
            Request::SyncThrough(SyncThroughRequest { sessions }),
            SyncThrough,
            unit
        )
    }

    fn ingest_stats(&mut self) -> Result<IngestStatsReply, ServiceError> {
        chan_call!(self, Request::IngestStats, IngestStats)
    }
}

impl ActivationService for ChannelClient {
    fn activation_sweep(&mut self, req: ActivationSweepRequest) -> Result<(), ServiceError> {
        chan_call!(self, Request::ActivationSweep(req), ActivationSweep, unit)
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

/// End-of-day service-layer telemetry, returned by [`run_day`](crate::run_day).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DayStats {
    /// Ingest coalescing counters and worker busy/idle time (threaded
    /// days only) plus the ledger's WAL counters (every day).
    pub ingest: IngestStatsReply,
    /// Effective ingest worker count (`1` on inline and single-worker
    /// days; threaded days run `min(workers, stations)` shards).
    pub workers: usize,
    /// Work-stealing log: one entry per chunk of a dead station's kiosk
    /// range absorbed by a survivor, retry chains included. Empty on
    /// healthy days.
    pub steals: Vec<StealRecord>,
    /// Deadline expiries observed at station boundaries (connect and
    /// call timeouts, injected stalls included). Zero on healthy days.
    pub timeouts: u64,
    /// Reconnect attempts the retry layer made beyond first tries.
    pub reconnects: u64,
    /// Half-open or mid-frame-stalled connections the gateway reaped.
    pub reaped: u64,
    /// Stations declared lost by the coordinator's *stall* detector (no
    /// progress within the liveness deadline) rather than by a clean
    /// connection death; each one triggered the chunked steal path.
    pub stall_steals: u64,
}
