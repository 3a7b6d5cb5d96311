//! From-scratch cryptography substrate for the Votegral / TRIP reproduction.
//!
//! The paper's prototype (§6) builds on Go's `dedis/kyber`: Schnorr
//! signatures with SHA-256 on edwards25519, ElGamal on the same group,
//! Chaum–Pedersen interactive zero-knowledge proofs of discrete-log
//! equality, a distributed key generation, and Pedersen commitments for the
//! Bayer–Groth shuffle. This crate implements all of it from first
//! principles on top of a 5×51-limb field and an extended-coordinates
//! Edwards group, with no dependencies outside `std`.
//!
//! # Layout
//!
//! - [`field`], [`scalar`], [`edwards`]: the group. [`field`] keeps limbs
//!   below 2^52 across every public operation (its module doc states the
//!   bounds and the headroom the point formulas use); [`edwards`] exposes
//!   extended coordinates and works internally in projective, completed,
//!   cached and affine-Niels forms (tabulated in its module doc), with
//!   width-5 NAF single and Straus multiplication, signed-digit Pippenger
//!   and [`edwards::FixedBaseTable`] for a point multiplied many times.
//! - [`sha2`], [`hmac`], [`drbg`], [`transcript`]: hashing, MACs,
//!   deterministic randomness, Fiat–Shamir.
//! - [`schnorr`], [`elgamal`]: the signature and encryption schemes of
//!   Appendix E.1.
//! - [`chaum_pedersen`]: the interactive ZKPoE at the heart of TRIP's
//!   real/fake credential distinction (§4.3), including the *deliberately
//!   unsound* transcript forgery used for fake credentials.
//! - [`pedersen`]: vector commitments for the shuffle argument.
//! - [`dkg`]: the election authority's distributed key generation and
//!   verifiable threshold decryption.
//! - [`pet`]: plaintext-equivalence tests (the quadratic primitive driving
//!   Civitas' tally cost, reproduced for the baseline).
//!
//! # Security caveat
//!
//! Group and field operations are variable-time and unaudited — *all*
//! scalar multiplication (single, fixed-base, multi-scalar) branches on
//! scalar digits and skips the zero ones: this is a
//! faithful research reproduction of the paper's cryptographic path, not
//! a hardened production signer. MAC-tag and key-byte *comparisons*,
//! however, are constant-time throughout (see [`ct`]) — the `vg-lint`
//! workspace analyzer enforces that discipline mechanically.
//!
//! The crate forbids `unsafe` code (`#![forbid(unsafe_code)]`): every
//! primitive is safe Rust, and the lint keeps it that way.

#![forbid(unsafe_code)]

pub mod batch;
pub mod bigint;
pub mod channel;
pub mod chaum_pedersen;
pub mod codec;
pub mod ct;
pub mod dkg;
pub mod drbg;
pub mod edwards;
pub mod elgamal;
pub mod field;
pub mod hmac;
pub mod par;
pub mod pedersen;
pub mod pet;
pub mod scalar;
pub mod schnorr;
pub mod sha2;
pub mod sync;
pub mod transcript;

pub use batch::BatchVerifier;
pub use channel::{
    derive_channel_keys, transcript_hash, ChannelKeys, DirectionKeys, EphemeralKey, FrameSealer,
};
pub use ct::{ct_eq, ct_eq32};
pub use drbg::{HmacDrbg, OsRng, Rng};
pub use edwards::{basemul, multiscalar_mul, multiscalar_mul_par, CompressedPoint, EdwardsPoint};
pub use scalar::Scalar;
pub use sync::lock_recover;
pub use transcript::Transcript;

/// Errors surfaced by the cryptographic layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// A compressed point failed to decode (non-canonical or off-curve).
    InvalidPoint,
    /// A scalar encoding was not canonical.
    InvalidScalar,
    /// A signature failed to verify.
    BadSignature,
    /// A zero-knowledge proof failed to verify.
    BadProof,
    /// A MAC tag failed to verify.
    BadMac,
    /// An input had an unexpected length or structure.
    Malformed(&'static str),
    /// Not enough decryption shares to meet the threshold.
    InsufficientShares,
    /// A decryption share failed its correctness proof.
    BadShare,
}

impl core::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CryptoError::InvalidPoint => write!(f, "invalid point encoding"),
            CryptoError::InvalidScalar => write!(f, "invalid scalar encoding"),
            CryptoError::BadSignature => write!(f, "signature verification failed"),
            CryptoError::BadProof => write!(f, "zero-knowledge proof verification failed"),
            CryptoError::BadMac => write!(f, "MAC verification failed"),
            CryptoError::Malformed(what) => write!(f, "malformed input: {what}"),
            CryptoError::InsufficientShares => write!(f, "not enough decryption shares"),
            CryptoError::BadShare => write!(f, "invalid decryption share"),
        }
    }
}

impl std::error::Error for CryptoError {}
