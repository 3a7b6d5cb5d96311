//! The registrar boundary: everything the fleet coordinator asks of the
//! registrar side of a deployment, as one narrow trait.
//!
//! In the paper's deployment (§6) the kiosks, the registration officials'
//! desks, the envelope printers and the public ledgers are **separate
//! machines**. [`RegistrarBoundary`] is the seam along which this
//! reproduction splits them: the fleet (kiosks plus their coordinator)
//! drives the voter-facing ceremonies and talks to the registrar only
//! through these calls — check-in tickets, envelope print fulfilment,
//! batched ledger submissions and the activation ledger phase.
//!
//! Two implementations exist:
//!
//! - [`LocalBoundary`] (here): direct, zero-copy calls into the
//!   in-process registrar state — today's behavior, and the reference a
//!   remote run must equal bit-identically.
//! - `vg-service`'s `ServiceBoundary`: the same six calls mapped onto
//!   typed, versioned `Request`/`Response` messages to a registrar that
//!   admits in global session order whichever station submitted first
//!   (in-process dispatch or a length-prefixed TCP socket).
//!
//! # Submission semantics
//!
//! [`RegistrarBoundary::submit_envelope_groups`] and
//! [`RegistrarBoundary::submit_checkout_groups`] are **ordered,
//! asynchronous submissions**: the boundary promises that batches are admitted to each
//! ledger in submission order, but may defer admission (coalescing several
//! windows into one RLC-folded sweep) until the next barrier. An
//! admission failure therefore surfaces either at the submitting call or
//! at the next barrier — callers that need errors attributed before
//! proceeding (the fleet does, before activating a window) place a
//! [`RegistrarBoundary::sync_through`]. [`LocalBoundary`] admits
//! synchronously; the fleet's replay contract (ledger heads bit-identical
//! to the sequential reference) holds for any conforming implementation
//! because Merkle roots depend only on record order, not on batching.
//!
//! # Commit points
//!
//! Both barriers — [`RegistrarBoundary::sync_through`] and
//! [`RegistrarBoundary::activation_sweep`] — are also *durability*
//! barriers on a durable ledger backend: when one returns `Ok`,
//! everything it covers is in the write-ahead log, group-fsynced (when
//! fsync is on) and under a persisted signed head. On volatile backends
//! the barrier costs nothing.

use vg_crypto::schnorr::NonceCoupon;
use vg_crypto::CompressedPoint;
use vg_ledger::{EnvelopeCommitment, Ledger, VoterId};

use crate::ceremony::PrintJob;
use crate::error::TripError;
use crate::materials::{CheckInTicket, CheckOutQr, Envelope};
use crate::official::Official;
use crate::printer::EnvelopePrinter;
use crate::vsd::{sweep_ledger, ActivationClaim};

/// The registrar-side operations a fleet run needs, in coordinator call
/// order. See the [module docs](self) for the deployment picture and the
/// submission semantics.
pub trait RegistrarBoundary {
    /// Check-in (Fig 8): the official authenticates `voter` against the
    /// roster and issues a kiosk-session ticket.
    fn check_in(&mut self, voter: VoterId) -> Result<CheckInTicket, TripError>;

    /// Envelope print fulfilment: signs (and prepares ledger commitments
    /// for) one envelope per job, in job order. The commitments are *not*
    /// posted here — the coordinator submits them in queue order via
    /// [`RegistrarBoundary::submit_envelope_groups`].
    fn print_envelopes(
        &mut self,
        jobs: &[PrintJob],
    ) -> Result<Vec<(Envelope, EnvelopeCommitment)>, TripError>;

    /// Submits a window's envelope commitments for admission to L_E
    /// (ordered, possibly deferred; see the module docs). `groups` pairs
    /// each global session index with that session's commitments, in
    /// session order: a multi-station registrar uses the indices to
    /// restore global queue order across stations before admission, so
    /// the ledgers stay bit-identical to the sequential reference no
    /// matter which station finished first.
    fn submit_envelope_groups(
        &mut self,
        groups: Vec<(u64, Vec<EnvelopeCommitment>)>,
    ) -> Result<(), TripError>;

    /// Submits a window's check-out tickets (Fig 10), session-tagged like
    /// [`RegistrarBoundary::submit_envelope_groups`]: the official
    /// verifies the kiosk signatures, countersigns from the sessions'
    /// coupons, and the records are admitted to L_R (ordered, possibly
    /// deferred).
    fn submit_checkout_groups(
        &mut self,
        groups: Vec<(u64, Vec<(CheckOutQr, NonceCoupon)>)>,
    ) -> Result<(), TripError>;

    /// Prefix barrier: returns once every session with global index below
    /// `sessions` is admitted on both ledgers, surfacing the earliest
    /// admission failure. On a single-connection boundary all own
    /// submissions are the whole prefix; a multi-station registrar may
    /// need to wait for *other* stations' earlier sessions to arrive
    /// before this station's activation cross-checks can run.
    fn sync_through(&mut self, sessions: u64) -> Result<(), TripError>;

    /// The activation ledger phase (Fig 11 lines 9–11) for a batch of
    /// claims, in order: L_R cross-check and L_E challenge reveal per
    /// claim, stopping at the first failure exactly as a sequential loop
    /// of [`crate::vsd::activate`] would.
    fn activation_sweep(&mut self, claims: &[ActivationClaim]) -> Result<(), TripError>;
}

/// The in-process registrar: direct calls into borrowed registrar state,
/// admitting every submission synchronously and persisting at every
/// barrier. This is the zero-copy reference implementation of
/// [`RegistrarBoundary`], and the engine every thread-free registration
/// day runs on.
pub struct LocalBoundary<'a> {
    official: &'a Official,
    printer: &'a EnvelopePrinter,
    ledger: &'a mut Ledger,
    kiosk_registry: &'a [CompressedPoint],
    threads: usize,
}

impl<'a> LocalBoundary<'a> {
    /// Wraps the registrar parts of a deployment.
    pub fn new(
        official: &'a Official,
        printer: &'a EnvelopePrinter,
        ledger: &'a mut Ledger,
        kiosk_registry: &'a [CompressedPoint],
        threads: usize,
    ) -> Self {
        Self {
            official,
            printer,
            ledger,
            kiosk_registry,
            threads: threads.max(1),
        }
    }

    /// The durable commit point (see the module docs): WAL group-fsync,
    /// then signed heads. An IO failure surfaces typed and leaves the
    /// store poisoned, so later barriers keep failing until restart.
    fn persist(&mut self) -> Result<(), TripError> {
        self.ledger
            .persist()
            .map_err(|e| TripError::Ledger(e.into()))
    }
}

impl RegistrarBoundary for LocalBoundary<'_> {
    fn check_in(&mut self, voter: VoterId) -> Result<CheckInTicket, TripError> {
        self.official.check_in(self.ledger, voter)
    }

    fn print_envelopes(
        &mut self,
        jobs: &[PrintJob],
    ) -> Result<Vec<(Envelope, EnvelopeCommitment)>, TripError> {
        Ok(self.printer.print_jobs(jobs, self.threads))
    }

    fn submit_envelope_groups(
        &mut self,
        groups: Vec<(u64, Vec<EnvelopeCommitment>)>,
    ) -> Result<(), TripError> {
        // One boundary carries the whole queue in order, so the session
        // tags are redundant here: admit the window as one batch.
        let commitments = groups.into_iter().flat_map(|(_, g)| g).collect();
        self.ledger
            .envelopes
            .commit_batch(commitments, self.threads)
            .map(drop)
            .map_err(TripError::Ledger)
    }

    fn submit_checkout_groups(
        &mut self,
        groups: Vec<(u64, Vec<(CheckOutQr, NonceCoupon)>)>,
    ) -> Result<(), TripError> {
        let checkouts = groups.into_iter().flat_map(|(_, g)| g).collect();
        self.official
            .check_out_batch(self.ledger, checkouts, self.kiosk_registry, self.threads)
    }

    fn sync_through(&mut self, _sessions: u64) -> Result<(), TripError> {
        // Everything was admitted at submission time; only the commit
        // point is left.
        self.persist()
    }

    fn activation_sweep(&mut self, claims: &[ActivationClaim]) -> Result<(), TripError> {
        sweep_ledger(self.ledger, claims)?;
        // Activation appended reveal-WAL entries; sync them before
        // acknowledging the sweep.
        self.persist()
    }
}
