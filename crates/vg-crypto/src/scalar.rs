//! Arithmetic in the scalar field of edwards25519.
//!
//! Scalars are integers modulo the prime group order
//! ℓ = 2^252 + 27742317777372353535851937790883648493, stored canonically
//! (fully reduced) as four little-endian 64-bit limbs. Multiplication uses
//! Barrett reduction with a constant derived at first use from a
//! shift-subtract division, which keeps the implementation free of
//! hand-transcribed magic reduction constants.
//!
//! All operations are variable-time; this library is a research artifact
//! reproducing the paper's cryptographic path, not a hardened production
//! signer (see `DESIGN.md` §7).

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::OnceLock;

use crate::bigint::{self, U256, U512};

/// The group order ℓ as little-endian limbs.
pub const L: U256 = [
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0x0000_0000_0000_0000,
    0x1000_0000_0000_0000,
];

/// Barrett constant μ = ⌊2^512 / ℓ⌋ (five limbs, 260 bits).
fn mu() -> &'static [u64; 5] {
    static MU: OnceLock<[u64; 5]> = OnceLock::new();
    MU.get_or_init(|| {
        // 2^512 as a 9-limb number.
        let mut num = [0u64; 9];
        num[8] = 1;
        let (q, _r) = bigint::div_rem(&num, &L);
        debug_assert!(q[5..].iter().all(|&x| x == 0), "mu must fit in 5 limbs");
        [q[0], q[1], q[2], q[3], q[4]]
    })
}

/// An element of the scalar field Z/ℓZ, always in canonical reduced form.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scalar(pub(crate) U256);

impl fmt::Debug for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scalar(0x")?;
        for b in self.to_bytes().iter().rev() {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl Default for Scalar {
    fn default() -> Self {
        Self::ZERO
    }
}

/// Multiplies a 5-limb by a 4-limb little-endian integer (schoolbook).
fn mul_5x4(a: &[u64; 5], b: &U256) -> [u64; 9] {
    let mut r = [0u64; 9];
    for i in 0..5 {
        let mut carry = 0u128;
        for j in 0..4 {
            let acc = (a[i] as u128) * (b[j] as u128) + (r[i + j] as u128) + carry;
            r[i + j] = acc as u64;
            carry = acc >> 64;
        }
        r[i + 4] = r[i + 4].wrapping_add(carry as u64);
    }
    r
}

/// Multiplies two 5-limb little-endian integers (schoolbook).
fn mul_5x5(a: &[u64; 5], b: &[u64; 5]) -> [u64; 10] {
    let mut r = [0u64; 10];
    for i in 0..5 {
        let mut carry = 0u128;
        for j in 0..5 {
            let acc = (a[i] as u128) * (b[j] as u128) + (r[i + j] as u128) + carry;
            r[i + j] = acc as u64;
            carry = acc >> 64;
        }
        r[i + 5] = carry as u64;
    }
    r
}

/// Reduces a 512-bit value modulo ℓ via Barrett reduction.
fn barrett_reduce(x: &U512) -> U256 {
    let mu = mu();
    // q1 = x >> 192 (five limbs).
    let q1 = [x[3], x[4], x[5], x[6], x[7]];
    // q3 = (q1 * mu) >> 320 (five limbs).
    let q2 = mul_5x5(&q1, mu);
    let q3 = [q2[5], q2[6], q2[7], q2[8], q2[9]];
    // r = (x mod 2^320) - (q3 * L mod 2^320), wrapping mod 2^320.
    let mut r = [x[0], x[1], x[2], x[3], x[4]];
    let q3l = mul_5x4(&q3, &L);
    let _ = bigint::sub_assign(&mut r, &q3l[..5]);
    // At most two conditional subtractions of L.
    let l5 = [L[0], L[1], L[2], L[3], 0u64];
    while bigint::cmp(&r, &l5) != Ordering::Less {
        let borrow = bigint::sub_assign(&mut r, &l5);
        debug_assert!(!borrow);
    }
    debug_assert_eq!(r[4], 0);
    [r[0], r[1], r[2], r[3]]
}

impl Scalar {
    /// The additive identity.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Constructs a scalar from a small integer.
    pub fn from_u64(x: u64) -> Scalar {
        Scalar([x, 0, 0, 0])
    }

    /// Constructs a scalar from a little-endian 32-byte string, reducing
    /// modulo ℓ.
    pub fn from_bytes_mod_order(bytes: &[u8; 32]) -> Scalar {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(bytes);
        Scalar::from_bytes_wide(&wide)
    }

    /// Constructs a scalar from a little-endian 64-byte string, reducing
    /// modulo ℓ (the standard "wide reduction" used after hashing).
    pub fn from_bytes_wide(bytes: &[u8; 64]) -> Scalar {
        let mut limbs = [0u64; 8];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            limbs[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        Scalar(barrett_reduce(&limbs))
    }

    /// Constructs a scalar from a canonical little-endian encoding, returning
    /// `None` if the value is not fully reduced.
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let mut limbs = [0u64; 4];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            limbs[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        if bigint::cmp(&limbs, &L) == Ordering::Less {
            Some(Scalar(limbs))
        } else {
            None
        }
    }

    /// Serializes to the canonical little-endian 32-byte encoding.
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            out[8 * i..8 * i + 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// Returns `true` for the zero scalar.
    pub fn is_zero(&self) -> bool {
        bigint::is_zero(&self.0)
    }

    /// Returns the bit at position `i` (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        bigint::bit(&self.0, i)
    }

    /// Number of significant bits.
    pub fn bit_len(&self) -> usize {
        bigint::bit_len(&self.0)
    }

    /// Raises `self` to the power `e` (square-and-multiply, variable time).
    pub fn pow_vartime(&self, e: &U256) -> Scalar {
        let bits = bigint::bit_len(e);
        let mut acc = Scalar::ONE;
        for i in (0..bits).rev() {
            acc = acc * acc;
            if bigint::bit(e, i) {
                acc *= *self;
            }
        }
        acc
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero; callers guard against the zero scalar.
    pub fn invert(&self) -> Scalar {
        assert!(!self.is_zero(), "inverse of zero scalar");
        // ℓ - 2.
        let mut e = L;
        e[0] -= 2; // L[0] ends in ...ed, no borrow.
        self.pow_vartime(&e)
    }

    /// Inverts a slice of non-zero scalars in place using Montgomery's trick
    /// (one inversion plus 3(n−1) multiplications).
    ///
    /// # Panics
    ///
    /// Panics if any element is zero.
    pub fn batch_invert(scalars: &mut [Scalar]) {
        if scalars.is_empty() {
            return;
        }
        let n = scalars.len();
        let mut prefix = Vec::with_capacity(n);
        let mut acc = Scalar::ONE;
        for s in scalars.iter() {
            assert!(!s.is_zero(), "inverse of zero scalar in batch");
            prefix.push(acc);
            acc *= *s;
        }
        let mut inv = acc.invert();
        for i in (0..n).rev() {
            let orig = scalars[i];
            scalars[i] = inv * prefix[i];
            inv *= orig;
        }
    }

    /// Computes the powers `[1, x, x², …, x^(n−1)]`.
    pub fn powers(x: Scalar, n: usize) -> Vec<Scalar> {
        let mut out = Vec::with_capacity(n);
        let mut acc = Scalar::ONE;
        for _ in 0..n {
            out.push(acc);
            acc *= x;
        }
        out
    }

    /// Sum of a slice of scalars.
    pub fn sum(xs: &[Scalar]) -> Scalar {
        xs.iter().fold(Scalar::ZERO, |a, b| a + *b)
    }

    /// Product of a slice of scalars.
    pub fn product(xs: &[Scalar]) -> Scalar {
        xs.iter().fold(Scalar::ONE, |a, b| a * *b)
    }
}

impl Add for Scalar {
    type Output = Scalar;
    fn add(self, rhs: Scalar) -> Scalar {
        let mut r = self.0;
        let carry = bigint::add_assign(&mut r, &rhs.0);
        // Both inputs < ℓ < 2^253, so no limb-level overflow occurs.
        debug_assert!(!carry);
        if bigint::cmp(&r, &L) != Ordering::Less {
            let borrow = bigint::sub_assign(&mut r, &L);
            debug_assert!(!borrow);
        }
        Scalar(r)
    }
}

impl AddAssign for Scalar {
    fn add_assign(&mut self, rhs: Scalar) {
        *self = *self + rhs;
    }
}

impl Sub for Scalar {
    type Output = Scalar;
    fn sub(self, rhs: Scalar) -> Scalar {
        let mut r = self.0;
        if bigint::sub_assign(&mut r, &rhs.0) {
            let carry = bigint::add_assign(&mut r, &L);
            debug_assert!(carry);
        }
        Scalar(r)
    }
}

impl SubAssign for Scalar {
    fn sub_assign(&mut self, rhs: Scalar) {
        *self = *self - rhs;
    }
}

impl Neg for Scalar {
    type Output = Scalar;
    fn neg(self) -> Scalar {
        Scalar::ZERO - self
    }
}

impl Mul for Scalar {
    type Output = Scalar;
    fn mul(self, rhs: Scalar) -> Scalar {
        let wide = bigint::mul_wide(&self.0, &rhs.0);
        Scalar(barrett_reduce(&wide))
    }
}

impl MulAssign for Scalar {
    fn mul_assign(&mut self, rhs: Scalar) {
        *self = *self * rhs;
    }
}

impl<'a> core::iter::Sum<&'a Scalar> for Scalar {
    fn sum<I: Iterator<Item = &'a Scalar>>(iter: I) -> Scalar {
        iter.fold(Scalar::ZERO, |a, b| a + *b)
    }
}

impl core::iter::Sum for Scalar {
    fn sum<I: Iterator<Item = Scalar>>(iter: I) -> Scalar {
        iter.fold(Scalar::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Oracle: reduce a 512-bit value mod ℓ with shift-subtract division.
    fn reduce_oracle(x: &U512) -> U256 {
        let (_q, r) = bigint::div_rem(x, &L);
        [r[0], r[1], r[2], r[3]]
    }

    fn arb_scalar() -> impl Strategy<Value = Scalar> {
        proptest::array::uniform32(any::<u8>()).prop_map(|b| Scalar::from_bytes_mod_order(&b))
    }

    #[test]
    fn mu_has_expected_width() {
        assert_eq!(bigint::bit_len(mu()), 260);
    }

    #[test]
    fn one_times_one() {
        assert_eq!(Scalar::ONE * Scalar::ONE, Scalar::ONE);
        assert_eq!(
            Scalar::from_u64(6) * Scalar::from_u64(7),
            Scalar::from_u64(42)
        );
    }

    #[test]
    fn ell_reduces_to_zero() {
        let mut bytes = [0u8; 32];
        for (i, limb) in L.iter().enumerate() {
            bytes[8 * i..8 * i + 8].copy_from_slice(&limb.to_le_bytes());
        }
        assert_eq!(Scalar::from_bytes_mod_order(&bytes), Scalar::ZERO);
        assert!(Scalar::from_canonical_bytes(&bytes).is_none());
    }

    #[test]
    fn subtraction_wraps() {
        let a = Scalar::from_u64(3);
        let b = Scalar::from_u64(5);
        assert_eq!(a - b + b, a);
        assert_eq!(-(b - a), a - b);
    }

    #[test]
    fn invert_small() {
        for x in 1u64..20 {
            let s = Scalar::from_u64(x);
            assert_eq!(s * s.invert(), Scalar::ONE, "x = {x}");
        }
    }

    #[test]
    fn batch_invert_matches_single() {
        let mut xs: Vec<Scalar> = (1u64..17).map(Scalar::from_u64).collect();
        let expect: Vec<Scalar> = xs.iter().map(|x| x.invert()).collect();
        Scalar::batch_invert(&mut xs);
        assert_eq!(xs, expect);
    }

    #[test]
    fn powers_match_pow() {
        let x = Scalar::from_u64(0x1234_5678_9abc);
        let pows = Scalar::powers(x, 10);
        for (i, p) in pows.iter().enumerate() {
            assert_eq!(*p, x.pow_vartime(&[i as u64, 0, 0, 0]));
        }
    }

    proptest! {
        #[test]
        fn barrett_matches_oracle(a in proptest::array::uniform8(any::<u64>())) {
            prop_assert_eq!(barrett_reduce(&a), reduce_oracle(&a));
        }

        #[test]
        fn mul_commutative(a in arb_scalar(), b in arb_scalar()) {
            prop_assert_eq!(a * b, b * a);
        }

        #[test]
        fn mul_associative(a in arb_scalar(), b in arb_scalar(), c in arb_scalar()) {
            prop_assert_eq!((a * b) * c, a * (b * c));
        }

        #[test]
        fn distributive(a in arb_scalar(), b in arb_scalar(), c in arb_scalar()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn add_inverse(a in arb_scalar()) {
            prop_assert_eq!(a + (-a), Scalar::ZERO);
        }

        #[test]
        fn mul_inverse(a in arb_scalar()) {
            prop_assume!(!a.is_zero());
            prop_assert_eq!(a * a.invert(), Scalar::ONE);
        }

        #[test]
        fn bytes_roundtrip(a in arb_scalar()) {
            let b = a.to_bytes();
            prop_assert_eq!(Scalar::from_canonical_bytes(&b), Some(a));
        }
    }
}
