//! Tamper-evident public bulletin board for Votegral.
//!
//! The paper (§3.1, Appendix D.1) assumes a ledger implementing a
//! tamper-evident log in the style of Crosby–Wallach \[32\], split into three
//! sub-ledgers: registration (L_R), envelope commitments (L_E) and ballots
//! (L_V). This crate provides:
//!
//! - [`merkle`]: the underlying append-only Merkle tree with RFC 6962-style
//!   inclusion and consistency proofs, all O(log n) off stored levels;
//! - [`store`]: pluggable storage backends — the flat [`store::InMemoryStore`]
//!   and the key-hash partitioned [`store::ShardedStore`] with a rolled-up
//!   head — behind the [`store::LedgerStore`] trait, plus backend-tagged
//!   proof objects;
//! - [`durable`]: the crash-recoverable WAL backend
//!   ([`durable::DurableStore`]) — one append-only checksummed record
//!   log per store, written event-before-state, persisted signed heads,
//!   snapshot+replay reopen with torn-tail repair anchored on the last
//!   persisted head, and the replay cursor that makes a deterministic
//!   re-run of a killed day resume bit-identically;
//! - [`log`]: typed tamper-evident logs with operator-signed tree heads
//!   and a parallel batch-append fast path;
//! - [`ledger`]: the three Votegral sub-ledgers with their domain rules
//!   (registration supersede semantics, envelope duplicate-challenge
//!   detection, ballot admission checks) and batch posting.
//!
//! This crate forbids `unsafe` code (`#![forbid(unsafe_code)]`): the
//! whole workspace is safe Rust, locked in by the `vg-lint` analyzer's
//! `forbid-unsafe` rule.

#![forbid(unsafe_code)]

pub mod durable;
pub mod ledger;
pub mod log;
pub mod merkle;
pub mod store;

pub use durable::{
    simulate_crash, CrashReport, DurabilityStats, DurableRecord, DurableStore, FaultFs, FsFault,
    WalError,
};
pub use ledger::{
    challenge_hash, BallotLedger, BallotRecord, EnvelopeCommitment, EnvelopeLedger, Ledger,
    LedgerError, RegistrationLedger, RegistrationRecord, VoterId,
};
pub use log::{verify_consistency_heads, Record, TamperEvidentLog, TreeHead};
pub use store::{
    ConsistencyProof, InMemoryStore, InclusionProof, LedgerBackend, LedgerStore, ShardedStore,
};
