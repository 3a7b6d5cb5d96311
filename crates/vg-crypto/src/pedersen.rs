//! Pedersen vector commitments for the Bayer–Groth shuffle argument.
//!
//! A commitment to a vector a ∈ Z_ℓⁿ under blinding r is
//! com(a; r) = r·H + Σ aᵢ·Gᵢ, where H and the Gᵢ are independent
//! "nothing-up-my-sleeve" generators derived by hashing a label. The
//! commitment is perfectly hiding and computationally binding under the
//! discrete-log assumption, and is additively homomorphic — both properties
//! the shuffle argument (crate `vg-shuffle`) relies on.

use crate::edwards::{hash_to_point, multiscalar_mul, EdwardsPoint};
use crate::scalar::Scalar;

/// A commitment key: one blinding generator and `n` message generators.
#[derive(Clone, Debug)]
pub struct CommitKey {
    /// The blinding generator H.
    pub h: EdwardsPoint,
    /// The message generators G₁ … Gₙ.
    pub gs: Vec<EdwardsPoint>,
}

impl CommitKey {
    /// Derives a commitment key for vectors of length `n` from a label.
    pub fn new(label: &[u8], n: usize) -> Self {
        let mut h_label = label.to_vec();
        h_label.extend_from_slice(b"/h");
        let h = hash_to_point(&h_label);
        let gs = (0..n)
            .map(|i| {
                let mut g_label = label.to_vec();
                g_label.extend_from_slice(b"/g/");
                g_label.extend_from_slice(&(i as u64).to_le_bytes());
                hash_to_point(&g_label)
            })
            .collect();
        Self { h, gs }
    }

    /// Maximum vector length this key supports.
    pub fn len(&self) -> usize {
        self.gs.len()
    }

    /// Returns `true` if the key has no message generators.
    pub fn is_empty(&self) -> bool {
        self.gs.is_empty()
    }

    /// Commits to `values` under blinding `blind`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is longer than the key.
    pub fn commit(&self, values: &[Scalar], blind: &Scalar) -> EdwardsPoint {
        assert!(values.len() <= self.gs.len(), "vector longer than key");
        let mut scalars = Vec::with_capacity(values.len() + 1);
        let mut points = Vec::with_capacity(values.len() + 1);
        scalars.push(*blind);
        points.push(self.h);
        scalars.extend_from_slice(values);
        points.extend_from_slice(&self.gs[..values.len()]);
        multiscalar_mul(&scalars, &points)
    }

    /// Commits to the constant vector (v, v, …, v) of length `n` with zero
    /// blinding (used by the shuffle verifier for public offsets): v·Σgᵢ,
    /// n additions and one multiplication. Panics if `n` exceeds the key.
    pub fn commit_constant(&self, v: &Scalar, n: usize) -> EdwardsPoint {
        self.gs[..n].iter().copied().sum::<EdwardsPoint>() * v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::{HmacDrbg, Rng};

    #[test]
    fn deterministic_generators() {
        let a = CommitKey::new(b"test", 4);
        let b = CommitKey::new(b"test", 4);
        assert_eq!(a.h, b.h);
        assert_eq!(a.gs, b.gs);
        let c = CommitKey::new(b"other", 4);
        assert_ne!(a.h, c.h);
    }

    #[test]
    fn generators_are_distinct_and_torsion_free() {
        let key = CommitKey::new(b"distinct", 8);
        for (i, g) in key.gs.iter().enumerate() {
            assert!(g.is_torsion_free(), "G{i} in prime-order subgroup");
            assert_ne!(*g, key.h, "G{i} != H");
            for (j, g2) in key.gs.iter().enumerate().skip(i + 1) {
                assert_ne!(g, g2, "G{i} != G{j}");
            }
        }
    }

    #[test]
    fn homomorphic_addition() {
        let mut rng = HmacDrbg::from_u64(1);
        let key = CommitKey::new(b"hom", 3);
        let a = vec![rng.scalar(), rng.scalar(), rng.scalar()];
        let b = vec![rng.scalar(), rng.scalar(), rng.scalar()];
        let (ra, rb) = (rng.scalar(), rng.scalar());
        let ca = key.commit(&a, &ra);
        let cb = key.commit(&b, &rb);
        let sum: Vec<Scalar> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        assert_eq!(ca + cb, key.commit(&sum, &(ra + rb)));
    }

    #[test]
    fn scalar_multiplication_homomorphism() {
        let mut rng = HmacDrbg::from_u64(2);
        let key = CommitKey::new(b"scale", 2);
        let a = vec![rng.scalar(), rng.scalar()];
        let r = rng.scalar();
        let c = key.commit(&a, &r);
        let k = rng.scalar();
        let scaled: Vec<Scalar> = a.iter().map(|x| *x * k).collect();
        assert_eq!(c * k, key.commit(&scaled, &(r * k)));
    }

    #[test]
    fn hiding_under_different_blinds() {
        let mut rng = HmacDrbg::from_u64(3);
        let key = CommitKey::new(b"hide", 2);
        let a = vec![Scalar::from_u64(1), Scalar::from_u64(2)];
        let c1 = key.commit(&a, &rng.scalar());
        let c2 = key.commit(&a, &rng.scalar());
        assert_ne!(c1, c2);
    }

    #[test]
    fn binding_different_vectors_differ() {
        let key = CommitKey::new(b"bind", 2);
        let r = Scalar::from_u64(7);
        let c1 = key.commit(&[Scalar::from_u64(1), Scalar::from_u64(2)], &r);
        let c2 = key.commit(&[Scalar::from_u64(2), Scalar::from_u64(1)], &r);
        assert_ne!(c1, c2);
    }

    #[test]
    fn short_vector_allowed() {
        let key = CommitKey::new(b"short", 4);
        let r = Scalar::from_u64(5);
        let c_short = key.commit(&[Scalar::from_u64(9)], &r);
        let c_padded = key.commit(
            &[
                Scalar::from_u64(9),
                Scalar::ZERO,
                Scalar::ZERO,
                Scalar::ZERO,
            ],
            &r,
        );
        assert_eq!(c_short, c_padded);
    }

    #[test]
    fn commit_constant_matches_explicit() {
        let key = CommitKey::new(b"const", 4);
        for v in [Scalar::from_u64(42), -Scalar::ONE] {
            assert_eq!(
                key.commit_constant(&v, 3),
                key.commit(&[v, v, v], &Scalar::ZERO)
            );
        }
        assert!(key.commit_constant(&Scalar::ONE, 0).is_identity());
    }
}
