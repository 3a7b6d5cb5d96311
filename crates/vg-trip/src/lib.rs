//! TRIP: coercion-resistant in-person registration with paper credentials —
//! the paper's core contribution (§4, Appendix E).
//!
//! TRIP issues voters *real* and *fake* voting credentials on paper in a
//! privacy booth. A real credential embeds a **sound** interactive
//! zero-knowledge proof transcript (commit printed before the voter chooses
//! an envelope/challenge); a fake credential embeds a **forged** transcript
//! (challenge before commit). The voter observes the difference in printing
//! order; the printed artifacts are indistinguishable afterwards, so the
//! voter can verify their real credential but cannot prove anything to a
//! coercer.
//!
//! # Module map
//!
//! - [`materials`]: envelopes, receipts, tickets, and the physical state
//!   machine of an assembled credential (Fig 2);
//! - [`official`]: check-in and check-out (Figs 8, 10);
//! - [`printer`]: envelope issuance with ledger commitments (Fig 7), plus
//!   the adversarial duplicate-envelope attack;
//! - [`ceremony`]: everything a kiosk may compute *before* it scans an
//!   envelope — the real and fake credential precursors and the seeded
//!   per-session bundle built from them;
//! - [`kiosk`]: what a kiosk does with a precursor in the booth (Fig 9) —
//!   session state machine, event trace, hash-only signing — with honest
//!   and credential-stealing behaviours;
//! - [`vsd`]: credential activation with every check of Fig 11;
//! - [`pool`], [`fleet`], [`boundary`]: the registration day — sessions
//!   precomputed in refill batches, N kiosks draining one check-in queue,
//!   and the seam to the registrar's desks, printers and ledgers;
//! - [`setup`], [`protocol`]: system setup (Fig 7) and the end-to-end
//!   registration workflow (Fig 6) for one voter, from an rng
//!   ([`protocol::register_voter`]) or a day seed
//!   ([`protocol::register_voter_seeded`]) — the same ceremony either way.
//!
//! # Example
//!
//! ```
//! use vg_crypto::HmacDrbg;
//! use vg_ledger::VoterId;
//! use vg_trip::{protocol, setup::{TripConfig, TripSystem}};
//!
//! let mut rng = HmacDrbg::from_u64(7);
//! let mut system = TripSystem::setup(TripConfig::with_voters(2), &mut rng);
//! let mut outcome = protocol::register_voter(&mut system, VoterId(1), 1, &mut rng).unwrap();
//! let vsd = protocol::activate_all(&mut system, &mut outcome).unwrap();
//! assert_eq!(vsd.credentials.len(), 2); // one real + one fake
//! ```
//!
//! This crate forbids `unsafe` code (`#![forbid(unsafe_code)]`): the
//! whole workspace is safe Rust, locked in by the `vg-lint` analyzer's
//! `forbid-unsafe` rule.

#![forbid(unsafe_code)]

pub mod boundary;
pub mod ceremony;
pub mod error;
pub mod fleet;
pub mod kiosk;
pub mod materials;
pub mod official;
pub mod pool;
pub mod printer;
pub mod protocol;
pub mod setup;
pub mod vsd;

pub use boundary::{LocalBoundary, RegistrarBoundary, SessionSubmission};
pub use ceremony::{PrintJob, SessionMaterials, UnprintedSession};
pub use error::{ActivationCheck, TripError};
pub use fleet::{FleetConfig, KioskFleet, DAY_THREADS};
pub use kiosk::{Kiosk, KioskBehavior, KioskEvent, KioskSession, SessionTrace};
pub use materials::{
    CheckInTicket, CheckOutQr, CommitQr, CredentialState, Envelope, PaperCredential, Receipt,
    ResponseQr, Symbol,
};
pub use official::Official;
pub use pool::{CeremonyPool, SessionPlan};
pub use printer::EnvelopePrinter;
pub use protocol::{
    activate_all, register_voter, register_voter_seeded, register_with_delegation,
    DelegationOutcome, RegistrationOutcome,
};
pub use setup::{TransportKeyring, TripConfig, TripSystem};
pub use vsd::{
    activate_batch, activate_batch_over, activation_ledger_phase, ActivatedCredential,
    ActivationClaim, Vsd,
};
