//! The four registrar service traits: the typed RPC surface of a TRIP
//! deployment, one trait per paper role.
//!
//! | Service | Paper role | Machine |
//! |---|---|---|
//! | [`RegistrarService`] | registration officials' desks (Figs 8, 10) | registrar |
//! | [`LedgerIngestService`] | the public bulletin board's admission front-end | ledger operator |
//! | [`PrintService`] | envelope printers (Fig 7 line 5) | print room |
//! | [`ActivationService`] | the ledger-facing half of activation (Fig 11 lines 9–11) | registrar |
//!
//! Implementations: the threaded engine's in-process endpoint serves all
//! four straight off the shard workers and the commit sequencer;
//! `ChannelClient` speaks them over any framed channel into the gateway.
//! The fleet consumes them bundled as a [`RegistrarEndpoint`] through the
//! `ServiceBoundary` adapter. (An inline day — see
//! [`run_day`](crate::run_day) — skips this layer entirely and runs on
//! `vg_trip::LocalBoundary`, which documents the same commit-point
//! contract.)
//!
//! The untagged `Request::SubmitEnvelopes` / `Request::CheckOutBatch`
//! messages are sent by no fleet and served by no host any more (every
//! station submits session-tagged groups, and the traits no longer carry
//! the untagged calls); their codec stays in [`crate::messages`] because
//! the wire format is versioned and the lifecycle benchmark probes it.

use crate::error::ServiceError;
use crate::messages::{
    ActivationSweepRequest, CheckInRequest, CheckInResponse, CheckOutBatchResponse, IngestReceipt,
    IngestStatsReply, LedgerHeads, PrintRequest, PrintResponse, SeqCheckOutRequest,
    SeqEnvelopeSubmitRequest,
};

/// The registration officials' desk service.
///
/// # Trust assumptions
///
/// Trusted to apply the roster at check-in and Fig 10's verification rules
/// at check-out; it holds the official's signing key and the shared MAC
/// secret `s_rk`. It is **not** trusted with voter privacy beyond what the
/// paper grants the registrar: everything it sees (check-out QRs, records)
/// is also on the public ledger or visible at the desk. A compromised
/// implementation can deny service or register ineligible voters — both
/// publicly auditable against the roster — but cannot forge a voter's
/// credential tag without the kiosk signature chain.
pub trait RegistrarService {
    /// Check-in (Fig 8): authenticates the voter, issues a session ticket.
    fn check_in(&mut self, req: CheckInRequest) -> Result<CheckInResponse, ServiceError>;

    /// Session-tagged batched check-out from one polling station (Fig
    /// 10): verifies kiosk signatures, countersigns from the supplied
    /// coupons, and queues the records for L_R admission; the registrar
    /// uses the global indices to restore queue order across stations
    /// before admission. The returned ticket resolves by the next
    /// [`LedgerIngestService::sync`].
    fn check_out_groups(
        &mut self,
        req: SeqCheckOutRequest,
    ) -> Result<CheckOutBatchResponse, ServiceError>;
}

/// The bulletin board's asynchronous admission front-end.
///
/// # Trust assumptions
///
/// Runs with the ledger operator's signing key. Submissions are **ordered
/// and coalesced**: in-flight batches may be folded into one
/// random-linear-combination admission sweep, but always admit in
/// submission order — the signed tree heads any auditor checks are
/// therefore bit-identical to a synchronous, batch-at-a-time ledger. A
/// compromised implementation is exactly a compromised ledger operator:
/// it can withhold or reorder *pending* submissions (detectable by the
/// submitting registrar at `sync`) but cannot rewrite admitted history
/// without breaking the Merkle consistency proofs.
///
/// # Commit-point contract
///
/// On a durable ledger backend every barrier in this trait is also a
/// *durability* barrier. When [`LedgerIngestService::sync`],
/// [`LedgerIngestService::sync_through`] or
/// [`LedgerIngestService::ledger_heads`] returns `Ok`, everything the
/// barrier covers has been appended to the write-ahead log,
/// group-fsynced (when fsync is enabled), and covered by a persisted
/// signed tree head — in that order, records strictly before the head
/// that commits them. A crash after the barrier returns loses nothing
/// it covered: reopening the store replays the WAL back to the same
/// heads, bit-identically. Receipts from
/// [`LedgerIngestService::submit_envelope_groups`] alone promise ordering,
/// not durability; durability attaches at the next barrier, identically
/// under both [`IngestMode`](crate::IngestMode)s — the modes only change
/// when sweeps happen, not what a returned barrier means.
pub trait LedgerIngestService {
    /// Barrier: drives every queued submission (envelopes *and* check-out
    /// records) to admission, surfacing the earliest failure.
    fn sync(&mut self) -> Result<(), ServiceError>;

    /// Signed tree heads of L_R and L_E (implies a sync).
    fn ledger_heads(&mut self) -> Result<LedgerHeads, ServiceError>;

    /// Queues a window's envelope commitments for L_E admission,
    /// session-tagged (ordering contract as
    /// [`RegistrarService::check_out_groups`]).
    fn submit_envelope_groups(
        &mut self,
        req: SeqEnvelopeSubmitRequest,
    ) -> Result<IngestReceipt, ServiceError>;

    /// Prefix barrier: returns once every session with global index below
    /// `sessions` is admitted on both ledgers.
    fn sync_through(&mut self, sessions: u64) -> Result<(), ServiceError>;

    /// Coalescing and worker-utilization telemetry (see
    /// [`IngestStatsReply`]).
    fn ingest_stats(&mut self) -> Result<IngestStatsReply, ServiceError>;
}

/// The envelope print service.
///
/// # Trust assumptions
///
/// Holds a printer signing key from the printer registry. The paper
/// trusts printers not to leak or duplicate challenges (a duplicating
/// printer is caught by activation's duplicate-challenge detector,
/// Appendix F.3.5); this service additionally learns which challenges
/// belong to one refill batch, which the physical print room learns
/// anyway. It never sees credential keys or voter identities.
pub trait PrintService {
    /// Signs one envelope per job, in order, returning the envelopes with
    /// their not-yet-posted L_E commitments.
    fn print_envelopes(&mut self, req: PrintRequest) -> Result<PrintResponse, ServiceError>;
}

/// The ledger-facing half of credential activation.
///
/// # Trust assumptions
///
/// Performs only Fig 11 lines 9–11: the L_R cross-check and the L_E
/// challenge reveal. The device-side checks (lines 2–8) — and the
/// credential *secret* — stay on the voter's device; this service learns
/// exactly what the public ledger learns at activation (which challenges
/// were revealed, and the aggregate activation count the coercion
/// adversary is allowed to see, Appendix F.1). It cannot distinguish real
/// from fake credentials, by design.
pub trait ActivationService {
    /// Runs the ledger phase for a batch of claims, in order, stopping at
    /// the first failure exactly as a sequential activation loop would.
    fn activation_sweep(&mut self, req: ActivationSweepRequest) -> Result<(), ServiceError>;
}

/// Everything the fleet coordinator needs, as one bundle.
pub trait RegistrarEndpoint:
    RegistrarService + LedgerIngestService + PrintService + ActivationService
{
}

impl<T: RegistrarService + LedgerIngestService + PrintService + ActivationService> RegistrarEndpoint
    for T
{
}
