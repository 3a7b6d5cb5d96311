//! Votegral: coercion-resistant e-voting with TRIP paper-credential
//! registration — a from-scratch Rust reproduction of the SOSP 2025 paper
//! *"TRIP: Coercion-resistant Registration for E-Voting with Verifiability
//! and Usability in Votegral"*.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! - [`crypto`]: the cryptographic substrate (edwards25519, SHA-2, Schnorr,
//!   ElGamal, Chaum–Pedersen IZKPs, DKG, Pedersen commitments, PETs);
//! - [`ledger`]: the tamper-evident public bulletin board (L_R, L_E, L_V);
//! - [`service`]: the transport-agnostic registrar service layer (typed
//!   RPC boundaries for officials, printers, ledger ingestion and
//!   activation, over in-process or TCP transports);
//! - [`shuffle`]: the Bayer–Groth verifiable shuffle and mix cascade;
//! - [`trip`]: the TRIP registration protocol — the paper's contribution;
//! - [`votegral`]: ballot casting and the verifiable linear-time tally;
//! - [`baselines`]: Civitas, Swiss Post and VoteAgain crypto-path
//!   simulators;
//! - [`hardware`]: simulated kiosk peripherals (QR codec with
//!   Reed–Solomon, device profiles, printer/scanner models);
//! - [`sim`]: workloads, the usability/verifiability/coercion analyses and
//!   the figure runners.
//!
//! # Quickstart
//!
//! An election is a *phase-typed session*: [`votegral::ElectionBuilder`]
//! opens the registration phase, and consuming transitions
//! (`open_voting`, `close`) move it through voting into tallying.
//! Calling a phase's methods out of order is a compile error, not a
//! runtime bug.
//!
//! ```
//! use votegral::crypto::HmacDrbg;
//! use votegral::ledger::{LedgerBackend, VoterId};
//! use votegral::votegral::ElectionBuilder;
//!
//! let mut rng = HmacDrbg::from_u64(42);
//! let mut election = ElectionBuilder::new()
//!     .voters(2)
//!     .options(2)
//!     .backend(LedgerBackend::InMemory) // or LedgerBackend::durable(dir)
//!     .build(&mut rng);
//!
//! // Registration phase: one fake credential; activate both on a device.
//! let (_, vsd) = election
//!     .register_and_activate(VoterId(1), 1, &mut rng)
//!     .unwrap();
//!
//! // Voting phase: real vote for option 1; coerced (fake) vote for 0.
//! // Batches go through the ledger's parallel admission fast path.
//! let mut voting = election.open_voting();
//! voting
//!     .cast_batch(&[(&vsd.credentials[0], 1), (&vsd.credentials[1], 0)], &mut rng)
//!     .unwrap();
//!
//! // Tally phase: only the real vote counts, and anyone can verify.
//! let tallying = voting.close();
//! let transcript = tallying.tally(&mut rng).unwrap();
//! assert_eq!(transcript.result.counts, vec![0, 1]);
//! tallying.verify(&transcript).unwrap();
//! ```
//!
//! This crate forbids `unsafe` code (`#![forbid(unsafe_code)]`): the
//! whole workspace is safe Rust, locked in by the `vg-lint` analyzer's
//! `forbid-unsafe` rule.

#![forbid(unsafe_code)]

pub use vg_baselines as baselines;
pub use vg_crypto as crypto;
pub use vg_hardware as hardware;
pub use vg_ledger as ledger;
pub use vg_service as service;
pub use vg_shuffle as shuffle;
pub use vg_sim as sim;
pub use vg_trip as trip;
pub use vg_votegral as votegral;
