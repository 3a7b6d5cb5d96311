//! Bayer–Groth verifiable shuffle and mix cascade for ElGamal ciphertexts.
//!
//! The paper's prototype uses the Bayer–Groth shuffle argument \[10\] through
//! a C implementation \[33\]; this crate is a from-scratch Rust
//! implementation of the m = 1 variant (the n shuffled items arranged as
//! one 1×n matrix): proof size O(n), prover and verifier O(n) group
//! exponentiations — the quantity the tally benchmarks (§7.4) measure.
//!
//! - [`svp`]: the single-value product argument (BG12 §5.3);
//! - [`multiexp`]: the multi-exponentiation Σ-argument;
//! - [`shuffle`]: the combined shuffle argument, one prover and verifier
//!   generic over the [`Row`] each shuffled item is — a ciphertext (the
//!   registration-tag mix) or a ciphertext pair (the ballot mix);
//! - [`batch`]: the whole cascade's proof equations folded into one
//!   multi-scalar check, again for either row;
//! - [`mixnet`]: a cascade of independent mixers \[37\] with a publicly
//!   verifiable transcript (four mixers in the paper's evaluation).
//!
//! This crate forbids `unsafe` code (`#![forbid(unsafe_code)]`): the
//! whole workspace is safe Rust, locked in by the `vg-lint` analyzer's
//! `forbid-unsafe` rule.

#![forbid(unsafe_code)]

pub mod batch;
pub mod mixnet;
pub mod multiexp;
pub mod shuffle;
pub mod svp;

pub use mixnet::{
    MixCascade, MixStage, MixTranscript, PairMixStage, PairMixTranscript, RowMixStage,
    RowMixTranscript,
};
pub use shuffle::{
    PairShuffleProof, Row, RowShuffleProof, ShuffleCoins, ShuffleContext, ShuffleProof,
};
