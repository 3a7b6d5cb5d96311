//! ElGamal encryption over the prime-order subgroup of edwards25519.
//!
//! The scheme of Appendix E.1: `EG.KGen`, a randomized `EG.Enc` of group
//! elements, and deterministic `EG.Dec`. TRIP encrypts the voter's real
//! credential public key under the election authority's collective key to
//! form the public credential tag `c_pc` (Fig 9a line 4); Votegral's ballots
//! encrypt votes with exponential encoding; and the tally pipeline relies on
//! the homomorphic and re-randomization properties implemented here.

use crate::drbg::Rng;
use crate::edwards::{CompressedPoint, EdwardsPoint, FixedBaseTable};
use crate::scalar::Scalar;
use crate::CryptoError;
use core::ops::{Add, Sub};

/// An ElGamal key pair (sk, pk = sk·B).
#[derive(Clone)]
pub struct ElGamalKeyPair {
    /// The secret decryption scalar.
    pub sk: Scalar,
    /// The public encryption key.
    pub pk: EdwardsPoint,
}

impl core::fmt::Debug for ElGamalKeyPair {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print the decryption scalar.
        write!(f, "ElGamalKeyPair(pk={:?}, sk=<redacted>)", self.pk)
    }
}

impl ElGamalKeyPair {
    /// Generates a fresh key pair (`EG.KGen`).
    pub fn generate(rng: &mut dyn Rng) -> Self {
        let sk = rng.scalar();
        Self {
            sk,
            pk: EdwardsPoint::mul_base(&sk),
        }
    }
}

/// An ElGamal ciphertext (C₁, C₂) = (r·B, r·pk + M).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ciphertext {
    /// C₁ = r·B.
    pub c1: EdwardsPoint,
    /// C₂ = r·pk + M.
    pub c2: EdwardsPoint,
}

impl Ciphertext {
    /// The encryption of the identity with zero randomness (the
    /// homomorphic unit).
    pub const fn identity() -> Self {
        Self {
            c1: EdwardsPoint::IDENTITY,
            c2: EdwardsPoint::IDENTITY,
        }
    }

    /// Scales both components by `s` (used by deterministic tagging and
    /// plaintext-equivalence tests).
    pub fn scale(&self, s: &Scalar) -> Self {
        Self {
            c1: self.c1 * s,
            c2: self.c2 * s,
        }
    }

    /// Serializes to 64 bytes (compressed C₁ ‖ C₂).
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.c1.compress().0);
        out[32..].copy_from_slice(&self.c2.compress().0);
        out
    }

    /// Deserializes from 64 bytes with full point validation.
    pub fn from_bytes(bytes: &[u8; 64]) -> Result<Self, CryptoError> {
        let mut a = [0u8; 32];
        a.copy_from_slice(&bytes[..32]);
        let mut b = [0u8; 32];
        b.copy_from_slice(&bytes[32..]);
        let c1 = CompressedPoint(a)
            .decompress()
            .ok_or(CryptoError::InvalidPoint)?;
        let c2 = CompressedPoint(b)
            .decompress()
            .ok_or(CryptoError::InvalidPoint)?;
        Ok(Self { c1, c2 })
    }
}

impl Add for Ciphertext {
    type Output = Ciphertext;
    /// Homomorphic addition: Enc(M₁)·Enc(M₂) = Enc(M₁+M₂).
    fn add(self, rhs: Ciphertext) -> Ciphertext {
        Ciphertext {
            c1: self.c1 + rhs.c1,
            c2: self.c2 + rhs.c2,
        }
    }
}

impl Sub for Ciphertext {
    type Output = Ciphertext;
    /// Homomorphic subtraction (used by PETs).
    fn sub(self, rhs: Ciphertext) -> Ciphertext {
        Ciphertext {
            c1: self.c1 - rhs.c1,
            c2: self.c2 - rhs.c2,
        }
    }
}

/// Encrypts the group element `m` under `pk` with fresh randomness,
/// returning the ciphertext and the randomness used (callers that prove
/// statements about the encryption need `r`).
pub fn encrypt_point(
    pk: &EdwardsPoint,
    m: &EdwardsPoint,
    rng: &mut dyn Rng,
) -> (Ciphertext, Scalar) {
    let r = rng.scalar();
    (encrypt_point_with(pk, m, &r), r)
}

/// Encrypts `m` under `pk` with caller-supplied randomness `r`.
pub fn encrypt_point_with(pk: &EdwardsPoint, m: &EdwardsPoint, r: &Scalar) -> Ciphertext {
    Ciphertext {
        c1: EdwardsPoint::mul_base(r),
        c2: *pk * r + *m,
    }
}

/// Encrypts the scalar `m` in the exponent (message g^m); decryption
/// recovers g^m, and small values are recovered by table lookup.
pub fn encrypt_exponent(pk: &EdwardsPoint, m: &Scalar, rng: &mut dyn Rng) -> (Ciphertext, Scalar) {
    let g_m = EdwardsPoint::mul_base(m);
    encrypt_point(pk, &g_m, rng)
}

/// Decrypts to the group element M = C₂ − sk·C₁ (`EG.Dec`).
pub fn decrypt(sk: &Scalar, ct: &Ciphertext) -> EdwardsPoint {
    ct.c2 - ct.c1 * sk
}

/// Re-randomizes a ciphertext: Enc(M; r) ↦ Enc(M; r + r′).
pub fn rerandomize(pk: &EdwardsPoint, ct: &Ciphertext, rng: &mut dyn Rng) -> (Ciphertext, Scalar) {
    let r = rng.scalar();
    (rerandomize_with(pk, ct, &r), r)
}

/// Re-randomizes with caller-supplied randomness.
pub fn rerandomize_with(pk: &EdwardsPoint, ct: &Ciphertext, r: &Scalar) -> Ciphertext {
    Ciphertext {
        c1: ct.c1 + EdwardsPoint::mul_base(r),
        c2: ct.c2 + *pk * r,
    }
}

/// [`rerandomize_with`] for a loop under one key: `pk_table` is the
/// [`FixedBaseTable`] of `pk`, built once by the caller, which turns the
/// variable-base `pk·r` into a table walk. Same ciphertext, byte for byte.
pub fn rerandomize_with_table(
    pk_table: &FixedBaseTable,
    ct: &Ciphertext,
    r: &Scalar,
) -> Ciphertext {
    Ciphertext {
        c1: ct.c1 + EdwardsPoint::mul_base(r),
        c2: ct.c2 + pk_table.mul(r),
    }
}

/// Looks up g^m for m in [0, bound), recovering an exponentially encoded
/// message after decryption. Returns `None` if the point is out of range.
pub fn discrete_log_small(point: &EdwardsPoint, bound: u64) -> Option<u64> {
    let mut acc = EdwardsPoint::IDENTITY;
    let b = EdwardsPoint::basepoint();
    for m in 0..bound {
        if acc == *point {
            return Some(m);
        }
        acc += b;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;
    use proptest::prelude::*;

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut rng = HmacDrbg::from_u64(1);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let m = EdwardsPoint::mul_base(&rng.scalar());
        let (ct, _r) = encrypt_point(&kp.pk, &m, &mut rng);
        assert_eq!(decrypt(&kp.sk, &ct), m);
    }

    #[test]
    fn encryption_is_randomized() {
        let mut rng = HmacDrbg::from_u64(2);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let m = EdwardsPoint::basepoint();
        let (ct1, _) = encrypt_point(&kp.pk, &m, &mut rng);
        let (ct2, _) = encrypt_point(&kp.pk, &m, &mut rng);
        // Same plaintext, different ciphertexts — the property §5.2 relies
        // on when arguing a coercer cannot recompute c_pc.
        assert_ne!(ct1, ct2);
        assert_eq!(decrypt(&kp.sk, &ct1), decrypt(&kp.sk, &ct2));
    }

    #[test]
    fn homomorphic_addition() {
        let mut rng = HmacDrbg::from_u64(3);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let (ct1, _) = encrypt_exponent(&kp.pk, &Scalar::from_u64(3), &mut rng);
        let (ct2, _) = encrypt_exponent(&kp.pk, &Scalar::from_u64(4), &mut rng);
        let sum = decrypt(&kp.sk, &(ct1 + ct2));
        assert_eq!(discrete_log_small(&sum, 10), Some(7));
    }

    #[test]
    fn rerandomization_preserves_plaintext() {
        let mut rng = HmacDrbg::from_u64(4);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let m = EdwardsPoint::mul_base(&Scalar::from_u64(99));
        let (ct, _) = encrypt_point(&kp.pk, &m, &mut rng);
        let (ct2, _) = rerandomize(&kp.pk, &ct, &mut rng);
        assert_ne!(ct, ct2);
        assert_eq!(decrypt(&kp.sk, &ct2), m);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn table_rerandomization_is_byte_equal(
            sk in proptest::array::uniform32(any::<u8>()),
            r in proptest::array::uniform32(any::<u8>()),
        ) {
            let pk = EdwardsPoint::mul_base(&Scalar::from_bytes_mod_order(&sk));
            let table = FixedBaseTable::new(&pk);
            let mut rng = HmacDrbg::new(&r);
            let (ct, _) = encrypt_point(&pk, &EdwardsPoint::mul_base(&rng.scalar()), &mut rng);
            for r in [Scalar::ZERO, Scalar::ONE, Scalar::from_bytes_mod_order(&r)] {
                let plain = rerandomize_with(&pk, &ct, &r);
                let tabled = rerandomize_with_table(&table, &ct, &r);
                prop_assert_eq!(plain.to_bytes(), tabled.to_bytes());
                prop_assert_eq!(plain, tabled);
            }
        }
    }

    #[test]
    fn wrong_key_decrypts_to_garbage() {
        let mut rng = HmacDrbg::from_u64(5);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let other = ElGamalKeyPair::generate(&mut rng);
        let m = EdwardsPoint::mul_base(&Scalar::from_u64(5));
        let (ct, _) = encrypt_point(&kp.pk, &m, &mut rng);
        assert_ne!(decrypt(&other.sk, &ct), m);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut rng = HmacDrbg::from_u64(6);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let m = EdwardsPoint::mul_base(&Scalar::from_u64(7));
        let (ct, _) = encrypt_point(&kp.pk, &m, &mut rng);
        let decoded = Ciphertext::from_bytes(&ct.to_bytes()).expect("decodes");
        assert_eq!(decoded, ct);
    }

    #[test]
    fn scale_matches_exponentiation() {
        let mut rng = HmacDrbg::from_u64(7);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let m = EdwardsPoint::mul_base(&Scalar::from_u64(2));
        let (ct, _) = encrypt_point(&kp.pk, &m, &mut rng);
        let s = Scalar::from_u64(13);
        let scaled = ct.scale(&s);
        // Dec(scale(ct, s)) == s·M.
        assert_eq!(decrypt(&kp.sk, &scaled), m * s);
    }

    #[test]
    fn discrete_log_bounds() {
        let g5 = EdwardsPoint::mul_base(&Scalar::from_u64(5));
        assert_eq!(discrete_log_small(&g5, 10), Some(5));
        assert_eq!(discrete_log_small(&g5, 5), None);
        assert_eq!(discrete_log_small(&EdwardsPoint::IDENTITY, 1), Some(0));
    }
}
