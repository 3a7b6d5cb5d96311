//! Votegral voting and verifiable linear-time tallying on TRIP credentials.
//!
//! This crate implements the voting and tally stages of Fig 3 and
//! Appendix M: ballot construction with validity proofs and
//! registrar-issuance evidence ([`ballot`]), distributed deterministic
//! tagging ([`tagging`]), the six-stage tally pipeline with a fully
//! verifiable transcript ([`mod@tally`]), the secret-free universal verifier
//! ([`verifier`]), and the high-level [`election::Election`] facade.
//!
//! The tally's defining property versus the Civitas/JCJ baseline is
//! **linear-time filtering**: ballots are matched to registrations by
//! comparing blinded deterministic tags in a hash map, instead of quadratic
//! pairwise plaintext-equivalence tests (§7.4).
//!
//! This crate forbids `unsafe` code (`#![forbid(unsafe_code)]`): the
//! whole workspace is safe Rust, locked in by the `vg-lint` analyzer's
//! `forbid-unsafe` rule.

#![forbid(unsafe_code)]

pub mod ballot;
pub mod codec;
pub mod election;
pub mod error;
pub mod history;
pub mod tagging;
pub mod tally;
pub mod transfer;
pub mod verifier;

pub use ballot::{
    build_ballot_record, cast_ballot, cast_ballots, Ballot, IssuanceTag, VoteConfig, VoteProof,
};
pub use election::{
    Election, ElectionBuilder, ElectionPhase, FakesPolicy, Registration, Tallying, Voting,
};
pub use error::{VerifyStage, VotegralError};
pub use history::{prove_ownership, recover_votes, VotingHistory};
pub use tally::{tally, AcceptedBallot, ElectionResult, TallyTranscript, VectorOpening};
pub use transfer::{transfer_credential, TransferCertificate, TransferredCredential};
pub use verifier::{verify_tally, verify_tally_with, PublicAuthority};
pub use vg_service::{ChannelSecurity, LinkKind, TransportPlan};
pub use vg_shuffle::VerifyMode;
