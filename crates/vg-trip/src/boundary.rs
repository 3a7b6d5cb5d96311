//! The registrar boundary: everything the fleet coordinator asks of the
//! registrar side of a deployment, as one narrow trait.
//!
//! In the paper's deployment (§6) the kiosks, the registration officials'
//! desks, the envelope printers and the public ledgers are **separate
//! machines**. [`RegistrarBoundary`] is the seam along which this
//! reproduction splits them: the fleet (kiosks plus their coordinator)
//! drives the voter-facing ceremonies and talks to the registrar only
//! through these calls — check-in tickets, envelope print fulfilment,
//! window submissions and the activation ledger phase.
//!
//! Two implementations exist:
//!
//! - [`LocalBoundary`] (here): direct, zero-copy calls into the
//!   in-process registrar state — today's behavior, and the reference a
//!   remote run must equal bit-identically.
//! - `vg-service`'s `ServiceBoundary`: the same five calls mapped onto
//!   typed, versioned `Request`/`Response` messages to a registrar that
//!   admits in global session order whichever station submitted first
//!   (in-process dispatch or a length-prefixed TCP socket).
//!
//! # Submission semantics
//!
//! [`RegistrarBoundary::submit_window`] is an **ordered, asynchronous
//! submission**: each session's envelope commitments (L_E) and check-out
//! record (L_R) cross as one value and are admitted together by
//! [`Ledger::admit_sessions`], so a session lands on **both ledgers or
//! neither**. Sessions are admitted in session order, but admission may
//! be deferred (coalescing several windows into one RLC-folded sweep)
//! until the next barrier. An admission failure therefore surfaces either
//! at the submitting call or at the next barrier — callers that need
//! errors attributed before proceeding (the fleet does, before activating
//! a window) place a [`RegistrarBoundary::sync_through`]. [`LocalBoundary`]
//! admits synchronously; the fleet's replay contract (ledger heads
//! bit-identical to the sequential reference) holds for any conforming
//! implementation because Merkle roots depend only on record order, not
//! on batching.
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
use vg_ledger::{EnvelopeCommitment, Ledger, SessionRecords, VoterId};

use crate::ceremony::PrintJob;
use crate::error::TripError;
use crate::fleet::DAY_THREADS;
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
    /// posted here — the coordinator submits them with their sessions via
    /// [`RegistrarBoundary::submit_window`].
    fn print_envelopes(
        &mut self,
        jobs: &[PrintJob],
    ) -> Result<Vec<(Envelope, EnvelopeCommitment)>, TripError>;

    /// Submits a window of sessions, in session order, for admission to
    /// both ledgers (ordered, possibly deferred; see the module docs):
    /// the official verifies the kiosk signatures (Fig 10), countersigns
    /// from the sessions' coupons, and each session's commitments and
    /// record are admitted together. A multi-station registrar uses the
    /// global session indices to restore queue order across stations
    /// before admission, so the ledgers stay bit-identical to the
    /// sequential reference no matter which station finished first.
    fn submit_window(&mut self, window: Vec<SessionSubmission>) -> Result<(), TripError>;

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

/// One session of a submitted window: its global session index, the
/// envelope commitments its ceremony used (for L_E), and its check-out
/// ticket with the coupon the official countersigns it from (for L_R).
#[derive(Debug)]
pub struct SessionSubmission {
    /// Global session index (queue position).
    pub session: u64,
    /// The session's envelope commitments, in ceremony order.
    pub commitments: Vec<EnvelopeCommitment>,
    /// The real credential's check-out ticket.
    pub checkout: CheckOutQr,
    /// The official's signing coupon for this session.
    pub coupon: NonceCoupon,
}

/// Fig 10 lines 2–5 over a submitted window, touching no ledger: the
/// official verifies every check-out ticket in one fold
/// ([`Official::verify_checkouts`]) and countersigns each from its
/// session's coupon. Returns each session's index with the records
/// [`Ledger::admit_sessions`] takes, in window order.
pub fn check_out_window(
    official: &Official,
    kiosk_registry: &[CompressedPoint],
    window: Vec<SessionSubmission>,
) -> Result<Vec<(u64, SessionRecords)>, TripError> {
    let (tags, checkouts): (Vec<_>, Vec<_>) = window
        .into_iter()
        .map(|s| ((s.session, s.commitments), (s.checkout, s.coupon)))
        .unzip();
    official.verify_checkouts(&checkouts, kiosk_registry, DAY_THREADS)?;
    let records = official.countersign_checkouts(checkouts);
    let session = |((session, commitments), record)| {
        (
            session,
            SessionRecords {
                commitments,
                record,
            },
        )
    };
    Ok(tags.into_iter().zip(records).map(session).collect())
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
}

impl<'a> LocalBoundary<'a> {
    /// Wraps the registrar parts of a deployment.
    pub fn new(
        official: &'a Official,
        printer: &'a EnvelopePrinter,
        ledger: &'a mut Ledger,
        kiosk_registry: &'a [CompressedPoint],
    ) -> Self {
        Self {
            official,
            printer,
            ledger,
            kiosk_registry,
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
        Ok(self.printer.print_jobs(jobs))
    }

    fn submit_window(&mut self, window: Vec<SessionSubmission>) -> Result<(), TripError> {
        // One boundary carries the whole queue in order, so the session
        // tags are redundant here: admit the window as one batch.
        let sessions = check_out_window(self.official, self.kiosk_registry, window)?;
        let mut sessions = sessions.into_iter().map(|(_, s)| s).collect();
        self.ledger
            .admit_sessions(&mut sessions, DAY_THREADS)
            .map_err(TripError::Ledger)
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
