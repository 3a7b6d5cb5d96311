//! Random-linear-combination batch verification of Σ-protocol equations.
//!
//! A Σ-protocol verification equation has the shape Σᵢ aᵢ·Pᵢ = 𝒪 (the
//! identity), for scalars aᵢ derived from the statement, the proof and the
//! Fiat–Shamir challenge. Checking k such equations one by one costs k
//! multi-scalar multiplications; a [`BatchVerifier`] instead folds them
//! into the single equation
//!
//! ```text
//!   Σⱼ wⱼ · ( Σᵢ aⱼᵢ·Pⱼᵢ ) = 𝒪
//! ```
//!
//! for verifier-chosen random weights wⱼ, and checks it with **one**
//! multi-scalar multiplication over the union of all terms.
//!
//! # Soundness of the small-exponent RLC
//!
//! Let Eⱼ = Σᵢ aⱼᵢ·Pⱼᵢ be the error point of equation j. When every point
//! lives in the prime-order subgroup of order ℓ, each Eⱼ equals eⱼ·B for a
//! unique eⱼ ∈ Z_ℓ and the folded check accepts iff Σⱼ wⱼ·eⱼ ≡ 0 (mod ℓ).
//! If some eⱼ ≠ 0, then over weights drawn uniformly from [1, 2¹²⁸) —
//! independently of the eⱼ — at most one choice of wⱼ (with the others
//! fixed) satisfies the congruence, so the batch wrongly accepts with
//! probability at most 2⁻¹²⁷. Using 128-bit rather than full 253-bit
//! weights keeps that bound while halving the scalar-arithmetic cost of
//! weighting, which is the classical small-exponent batching trade-off
//! (Bellare–Garay–Rabin style). Callers must derive the weights from a
//! source the prover cannot predict when forming the proofs: fresh
//! entropy, or a hash that commits to every statement *and* every proof
//! in the batch (grinding a hash gives a cheating prover only a 2⁻¹²⁷
//! success chance per attempt).
//!
//! # Points outside the prime-order subgroup
//!
//! Decoded points are curve-checked, not subgroup-checked, so an error
//! point may carry a component Tⱼ in the 8-torsion E\[8\]: Eⱼ = eⱼ·B + Tⱼ.
//! The bound above covers only the eⱼ, and whether Σⱼ wⱼ·Tⱼ vanishes
//! depends on the weights, so a fold cannot decide the Tⱼ. The workspace
//! therefore has one rule, ZIP 215's: every equation holds modulo E\[8\],
//! checked alone or folded. [`BatchVerifier::verify`] checks
//! 8·Σⱼ wⱼ·Eⱼ = 𝒪, and every single check compares `(lhs − rhs)` with
//! [`EdwardsPoint::is_small_order`]. A fold then accepts exactly when every
//! item passes alone, up to the 2⁻¹²⁷ bound, so a verdict never depends on
//! the batch an item rode in. Provers, mixers and kiosks are not trusted to
//! publish torsion-free points, so every *decision* that rests on a
//! relation is taken in the quotient too: `match_tags` and `count_votes`
//! in `vg-votegral` compare and read `mul_by_cofactor()` images, never raw
//! encodings.
//!
//! # Static bases
//!
//! Equations from one proof system typically share bases — Pedersen
//! generators, the group basepoint, a public key. Registering those once
//! as *static* bases lets every equation fold its coefficient into a
//! single per-base accumulator, so a shared base costs one point in the
//! final multi-scalar multiplication no matter how many equations touch
//! it.

use crate::drbg::{HmacDrbg, Rng};
use crate::edwards::{multiscalar_mul_par, EdwardsPoint};
use crate::scalar::Scalar;
use crate::sha2::Sha512;

/// Draws a uniform non-zero 128-bit batching weight.
///
/// See the [module docs](self) for why 128 bits suffice.
pub fn small_weight(rng: &mut dyn Rng) -> Scalar {
    loop {
        let mut wide = [0u8; 32];
        rng.fill_bytes(&mut wide[..16]);
        // < 2^128 < ℓ, so the encoding is canonical by construction.
        let w = Scalar::from_bytes_mod_order(&wide);
        if !w.is_zero() {
            return w;
        }
    }
}

/// Draws `n` batching weights with a single generator call.
///
/// Same distribution as `n` calls of [`small_weight`], but an HMAC-DRBG
/// pays its state update once per call rather than once per weight, which
/// matters when a fold draws two weights per proof.
pub fn small_weights(rng: &mut dyn Rng, n: usize) -> Vec<Scalar> {
    let mut bytes = vec![0u8; 16 * n];
    rng.fill_bytes(&mut bytes);
    bytes
        .chunks_exact(16)
        .map(|half| {
            let mut wide = [0u8; 32];
            wide[..16].copy_from_slice(half);
            let w = Scalar::from_bytes_mod_order(&wide);
            if w.is_zero() {
                small_weight(rng)
            } else {
                w
            }
        })
        .collect()
}

/// The weight source of a deterministic fold over in-memory statements:
/// a running hash that must absorb **every** statement and proof a fold
/// checks before that fold's weights are drawn from it — the
/// everything-committed rule [`crate::schnorr::SignatureSweep`] documents,
/// for folds that carry no signatures.
///
/// A verifier that folds a long vector in fixed-size chunks keeps one
/// commitment for the whole vector: each chunk is absorbed before its
/// weights are drawn, so chunk k's weights commit to chunks 0 … k — a
/// superset of what chunk k's fold checks — and memory stays bounded by
/// the chunk.
pub struct CommittedWeights {
    hash: Sha512,
}

impl CommittedWeights {
    /// Starts a commitment under `domain` (a versioned per-call-site
    /// separation label).
    pub fn new(domain: &[u8]) -> Self {
        let mut hash = Sha512::new();
        hash.update(b"votegral-committed-weights-v1");
        hash.update(&(domain.len() as u64).to_le_bytes());
        hash.update(domain);
        Self { hash }
    }

    /// Absorbs statement or proof bytes. Callers absorb fixed-width fields
    /// in a fixed order (and every count that shapes the order), which
    /// keeps the absorbed stream injective.
    pub fn absorb(&mut self, bytes: &[u8]) -> &mut Self {
        self.hash.update(bytes);
        self
    }

    /// Draws `n` weights bound to everything absorbed so far.
    pub fn weights(&self, n: usize) -> Vec<Scalar> {
        let mut rng = HmacDrbg::new(&self.hash.clone().finalize());
        small_weights(&mut rng, n)
    }
}

/// Accumulates weighted Σ-protocol equations into one multi-scalar check.
///
/// Create with the shared [static bases](self#static-bases), queue each
/// equation with its weight, then call [`BatchVerifier::verify`] once.
pub struct BatchVerifier {
    statics: Vec<EdwardsPoint>,
    static_coeffs: Vec<Scalar>,
    scalars: Vec<Scalar>,
    points: Vec<EdwardsPoint>,
    equations: usize,
}

impl BatchVerifier {
    /// Creates an empty batch over the given static bases.
    pub fn new(statics: &[EdwardsPoint]) -> Self {
        Self {
            statics: statics.to_vec(),
            static_coeffs: vec![Scalar::ZERO; statics.len()],
            scalars: Vec::new(),
            points: Vec::new(),
            equations: 0,
        }
    }

    /// Number of equations queued so far.
    pub fn equations(&self) -> usize {
        self.equations
    }

    /// Adds `coeff` onto the accumulator of static base `idx`.
    ///
    /// The caller is responsible for having already multiplied `coeff` by
    /// the equation's weight.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn add_static(&mut self, idx: usize, coeff: Scalar) {
        self.static_coeffs[idx] += coeff;
    }

    /// Adds one pre-weighted dynamic term `coeff·point`.
    pub fn add_term(&mut self, coeff: Scalar, point: EdwardsPoint) {
        self.scalars.push(coeff);
        self.points.push(point);
    }

    /// Queues one equation Σ static_terms + Σ dynamic_terms = 𝒪, scaled by
    /// `weight`. Static terms are `(base index, coefficient)` pairs.
    pub fn queue(
        &mut self,
        weight: &Scalar,
        static_terms: &[(usize, Scalar)],
        dynamic_terms: &[(Scalar, EdwardsPoint)],
    ) {
        for &(idx, coeff) in static_terms {
            self.add_static(idx, *weight * coeff);
        }
        for &(coeff, point) in dynamic_terms {
            self.add_term(*weight * coeff, point);
        }
        self.equations += 1;
    }

    /// Runs the single folded multi-scalar multiplication over up to
    /// `threads` workers and accepts iff the sum lies in the 8-torsion
    /// (8·Σ = 𝒪): every queued relation holds modulo E\[8\], see
    /// [the module docs](self#points-outside-the-prime-order-subgroup).
    pub fn verify(mut self, threads: usize) -> bool {
        for (coeff, point) in self.static_coeffs.iter().zip(self.statics.iter()) {
            if !coeff.is_zero() {
                self.scalars.push(*coeff);
                self.points.push(*point);
            }
        }
        multiscalar_mul_par(&self.scalars, &self.points, threads).is_small_order()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HmacDrbg;

    /// Builds k Schnorr-style equations z·B − c·P − R = 𝒪 with P = x·B,
    /// R = r·B, z = r + c·x.
    fn schnorr_equations(k: usize, seed: u64) -> Vec<[(Scalar, EdwardsPoint); 3]> {
        let mut rng = HmacDrbg::from_u64(seed);
        (0..k)
            .map(|_| {
                let x = rng.scalar();
                let r = rng.scalar();
                let c = rng.scalar();
                let z = r + c * x;
                [
                    (z, EdwardsPoint::basepoint()),
                    (-c, EdwardsPoint::mul_base(&x)),
                    (-Scalar::ONE, EdwardsPoint::mul_base(&r)),
                ]
            })
            .collect()
    }

    #[test]
    fn valid_equations_accept() {
        let mut rng = HmacDrbg::from_u64(1);
        let mut bv = BatchVerifier::new(&[EdwardsPoint::basepoint()]);
        for eq in schnorr_equations(10, 2) {
            let w = small_weight(&mut rng);
            // Route the basepoint term through the static accumulator.
            bv.queue(&w, &[(0, eq[0].0)], &eq[1..]);
        }
        assert_eq!(bv.equations(), 10);
        assert!(bv.verify(2));
    }

    #[test]
    fn one_bad_equation_rejects() {
        let mut rng = HmacDrbg::from_u64(3);
        for bad in 0..5 {
            let mut bv = BatchVerifier::new(&[]);
            for (j, mut eq) in schnorr_equations(5, 4).into_iter().enumerate() {
                if j == bad {
                    eq[0].0 += Scalar::ONE; // corrupt the response
                }
                let w = small_weight(&mut rng);
                bv.queue(&w, &[], &eq);
            }
            assert!(!bv.verify(1), "bad equation {bad} survived folding");
        }
    }

    #[test]
    fn empty_batch_accepts() {
        assert!(BatchVerifier::new(&[EdwardsPoint::basepoint()]).verify(4));
    }

    #[test]
    fn static_folding_matches_dynamic() {
        // The same batch expressed with static and dynamic basepoint terms
        // accepts either way.
        let eqs = schnorr_equations(8, 7);
        let mut rng1 = HmacDrbg::from_u64(8);
        let mut rng2 = HmacDrbg::from_u64(8);
        let mut with_static = BatchVerifier::new(&[EdwardsPoint::basepoint()]);
        let mut all_dynamic = BatchVerifier::new(&[]);
        for eq in &eqs {
            with_static.queue(&small_weight(&mut rng1), &[(0, eq[0].0)], &eq[1..]);
            all_dynamic.queue(&small_weight(&mut rng2), &[], eq);
        }
        assert!(with_static.verify(1));
        assert!(all_dynamic.verify(1));
    }

    #[test]
    fn cofactored_check_ignores_torsion_and_nothing_else() {
        // (0, −1) has order 2. An equation whose error is exactly that
        // point passes on any weight; a prime-order error fails, torsion
        // or not.
        let mut enc = [0xffu8; 32];
        enc[0] = 0xec;
        enc[31] = 0x7f;
        let t2 = crate::CompressedPoint(enc).decompress().expect("on curve");
        assert!(t2.is_small_order() && !t2.is_identity());
        let w = Scalar::ONE;
        let queue = |error: EdwardsPoint| {
            let mut bv = BatchVerifier::new(&[]);
            bv.queue(&w, &[], &[(Scalar::ONE, error)]);
            bv
        };
        assert!(queue(t2).verify(1));
        assert!(!queue(EdwardsPoint::basepoint()).verify(1));
        assert!(!queue(EdwardsPoint::basepoint() + t2).verify(1));
    }

    #[test]
    fn committed_weights_depend_on_everything_absorbed() {
        let mut a = CommittedWeights::new(b"d1");
        let b = CommittedWeights::new(b"d2");
        assert_ne!(a.weights(2), b.weights(2), "domain not committed");
        let before = a.weights(2);
        assert_eq!(before, a.weights(2), "drawing is repeatable");
        a.absorb(b"statement");
        assert_ne!(before, a.weights(2), "absorbed bytes not committed");
    }

    #[test]
    fn bulk_weights_are_small_and_nonzero() {
        let mut rng = HmacDrbg::from_u64(10);
        let ws = small_weights(&mut rng, 33);
        assert_eq!(ws.len(), 33);
        for w in &ws {
            assert!(!w.is_zero());
            assert!(w.to_bytes()[16..].iter().all(|&b| b == 0));
        }
        assert_ne!(ws[0], ws[1]);
        assert!(small_weights(&mut rng, 0).is_empty());
    }

    #[test]
    fn small_weight_is_small_and_nonzero() {
        let mut rng = HmacDrbg::from_u64(9);
        for _ in 0..50 {
            let w = small_weight(&mut rng);
            assert!(!w.is_zero());
            // Top 16 bytes clear: the weight is below 2^128.
            assert!(w.to_bytes()[16..].iter().all(|&b| b == 0));
        }
    }
}
