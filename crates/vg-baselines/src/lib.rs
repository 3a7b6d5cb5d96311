//! Crypto-path simulators for the paper's baseline systems (§7).
//!
//! The evaluation compares Votegral against three state-of-the-art
//! e-voting systems: **Civitas** \[27\] (JCJ with fake credentials and a
//! quadratic PET-based tally), **Swiss Post** \[145\] (verifiable, not
//! coercion-resistant, return-code based) and **VoteAgain** \[93\]
//! (coercion resistance via deniable re-voting with dummy ballots).
//!
//! These are *crypto-path simulators*: the authors'
//! original implementations (Java/JML, the vendor's simulator, Python) are
//! unavailable or proprietary, so each baseline is re-implemented over the
//! same edwards25519 group with the per-phase cryptographic operation
//! counts of its published protocol. Every system produces a *correct*
//! election result (tested), and the relative cost ordering of Fig 5 —
//! who wins each phase, where the quadratic blow-up bites — is what these
//! reproduce. Absolute numbers differ from the paper (Civitas originally
//! used large-modulus groups, which is part of its reported gap; §7.3).
//!
//! This crate forbids `unsafe` code (`#![forbid(unsafe_code)]`): the
//! whole workspace is safe Rust, locked in by the `vg-lint` analyzer's
//! `forbid-unsafe` rule.

#![forbid(unsafe_code)]

pub mod civitas;
pub mod swisspost;
pub mod voteagain;

use vg_crypto::Rng;

pub use civitas::Civitas;
pub use swisspost::SwissPost;
pub use voteagain::VoteAgain;

/// A voting system under benchmark: three timed phases.
///
/// `vg-sim`'s Fig 5 runner implements it for TRIP-Core / Votegral and
/// times each phase across systems and voter counts; its `SystemKind`
/// names each system and says which one's tally it extrapolates
/// quadratically.
pub trait BenchSystem {
    /// Registers every voter (the registration phase of Fig 5a).
    fn register_all(&mut self, rng: &mut dyn Rng);

    /// Casts one ballot per voter with the given choices.
    ///
    /// # Panics
    ///
    /// Panics if `votes.len()` differs from the voter count.
    fn vote_all(&mut self, votes: &[u32], rng: &mut dyn Rng);

    /// Tallies and returns per-option counts.
    fn tally(&mut self, rng: &mut (dyn Rng + Send)) -> Vec<u64>;
}
