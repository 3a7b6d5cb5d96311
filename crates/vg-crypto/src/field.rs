//! Arithmetic in the base field GF(2^255 − 19) of edwards25519.
//!
//! Elements are represented with five 51-bit limbs in radix 2^51
//! (the standard 64-bit representation).
//!
//! # Limb bounds
//!
//! Every public operation accepts limbs below 2^52 and returns limbs below
//! 2^52 (*reduced*; the value is unchanged mod p, only [`to_bytes`] is
//! canonical). [`Mul`], [`square`] and [`Sub`] have headroom beyond that:
//! they accept limbs below 2^54, which is what lets the point formulas in
//! [`crate::edwards`] skip the carry pass after an addition whose result
//! feeds straight into one of them (`add_lazy`, crate-private: two reduced
//! operands give limbs below 2^53; the formulas sum at most three reduced
//! terms lazily — `2·Z₁Z₂ + 2d·T₁T₂` in an addition, below 3·2^52 < 2^54 —
//! and that sum feeds only `Mul`). With `aᵢ, bⱼ < 2^54` the folded terms `19·bⱼ < 2^58.3` (and a
//! square's doubled `2·aᵢ < 2^55`) fit a `u64`, so each of the 25 (15 for a
//! square) limb products is one 64×64→128 multiply, and every column sum
//! stays below 2^115, inside `u128` with its carry inside `u64`.
//!
//! The curve constants that depend on this field (d, 2d, √−1) are `const`
//! limbs, checked against their defining equations by this module's tests.
//!
//! [`to_bytes`]: FieldElement::to_bytes
//! [`square`]: FieldElement::square

use core::fmt;
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

const LOW_51_BIT_MASK: u64 = (1u64 << 51) - 1;

/// An element of GF(2^255 − 19).
#[derive(Clone, Copy)]
pub struct FieldElement(pub(crate) [u64; 5]);

impl fmt::Debug for FieldElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FieldElement(0x")?;
        for b in self.to_bytes().iter().rev() {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl PartialEq for FieldElement {
    fn eq(&self, other: &Self) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

impl Eq for FieldElement {}

impl Default for FieldElement {
    fn default() -> Self {
        Self::ZERO
    }
}

impl FieldElement {
    /// The additive identity.
    pub const ZERO: FieldElement = FieldElement([0, 0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: FieldElement = FieldElement([1, 0, 0, 0, 0]);

    /// Constructs an element from a small integer.
    pub fn from_u64(x: u64) -> FieldElement {
        let mut fe = FieldElement::ZERO;
        fe.0[0] = x & LOW_51_BIT_MASK;
        fe.0[1] = x >> 51;
        fe
    }

    /// Weakly reduces the limbs below 2^52 (value unchanged mod p).
    #[inline(always)]
    fn weak_reduce(mut self) -> FieldElement {
        let c0 = self.0[0] >> 51;
        let c1 = self.0[1] >> 51;
        let c2 = self.0[2] >> 51;
        let c3 = self.0[3] >> 51;
        let c4 = self.0[4] >> 51;
        self.0[0] &= LOW_51_BIT_MASK;
        self.0[1] &= LOW_51_BIT_MASK;
        self.0[2] &= LOW_51_BIT_MASK;
        self.0[3] &= LOW_51_BIT_MASK;
        self.0[4] &= LOW_51_BIT_MASK;
        self.0[0] += c4 * 19;
        self.0[1] += c0;
        self.0[2] += c1;
        self.0[3] += c2;
        self.0[4] += c3;
        self
    }

    /// Serializes to the canonical little-endian 32-byte encoding
    /// (fully reduced, top bit clear).
    pub fn to_bytes(self) -> [u8; 32] {
        // Two weak reductions bring every limb below 2^51 + 19·2^? small
        // excess; then a final conditional subtraction of p canonicalizes.
        let mut h = self.weak_reduce().weak_reduce();
        // Now limbs < 2^51 + small epsilon; compute h + 19, shift out the
        // high bit chain to decide whether h >= p.
        let mut q = (h.0[0] + 19) >> 51;
        q = (h.0[1] + q) >> 51;
        q = (h.0[2] + q) >> 51;
        q = (h.0[3] + q) >> 51;
        q = (h.0[4] + q) >> 51;
        // If h >= p then q = 1 and we subtract p by adding 19 and masking.
        h.0[0] += 19 * q;
        let mut carry = h.0[0] >> 51;
        h.0[0] &= LOW_51_BIT_MASK;
        h.0[1] += carry;
        carry = h.0[1] >> 51;
        h.0[1] &= LOW_51_BIT_MASK;
        h.0[2] += carry;
        carry = h.0[2] >> 51;
        h.0[2] &= LOW_51_BIT_MASK;
        h.0[3] += carry;
        carry = h.0[3] >> 51;
        h.0[3] &= LOW_51_BIT_MASK;
        h.0[4] += carry;
        h.0[4] &= LOW_51_BIT_MASK; // Discard the 2^255 bit (subtracting p).

        let mut out = [0u8; 32];
        let limbs = h.0;
        out[0] = limbs[0] as u8;
        out[1] = (limbs[0] >> 8) as u8;
        out[2] = (limbs[0] >> 16) as u8;
        out[3] = (limbs[0] >> 24) as u8;
        out[4] = (limbs[0] >> 32) as u8;
        out[5] = (limbs[0] >> 40) as u8;
        out[6] = ((limbs[0] >> 48) | (limbs[1] << 3)) as u8;
        out[7] = (limbs[1] >> 5) as u8;
        out[8] = (limbs[1] >> 13) as u8;
        out[9] = (limbs[1] >> 21) as u8;
        out[10] = (limbs[1] >> 29) as u8;
        out[11] = (limbs[1] >> 37) as u8;
        out[12] = ((limbs[1] >> 45) | (limbs[2] << 6)) as u8;
        out[13] = (limbs[2] >> 2) as u8;
        out[14] = (limbs[2] >> 10) as u8;
        out[15] = (limbs[2] >> 18) as u8;
        out[16] = (limbs[2] >> 26) as u8;
        out[17] = (limbs[2] >> 34) as u8;
        out[18] = (limbs[2] >> 42) as u8;
        out[19] = ((limbs[2] >> 50) | (limbs[3] << 1)) as u8;
        out[20] = (limbs[3] >> 7) as u8;
        out[21] = (limbs[3] >> 15) as u8;
        out[22] = (limbs[3] >> 23) as u8;
        out[23] = (limbs[3] >> 31) as u8;
        out[24] = (limbs[3] >> 39) as u8;
        out[25] = ((limbs[3] >> 47) | (limbs[4] << 4)) as u8;
        out[26] = (limbs[4] >> 4) as u8;
        out[27] = (limbs[4] >> 12) as u8;
        out[28] = (limbs[4] >> 20) as u8;
        out[29] = (limbs[4] >> 28) as u8;
        out[30] = (limbs[4] >> 36) as u8;
        out[31] = (limbs[4] >> 44) as u8;
        out
    }

    /// Deserializes from a little-endian 32-byte encoding, masking the top
    /// bit (the caller handles the sign bit of point encodings).
    ///
    /// Non-canonical encodings (values in [p, 2^255)) are accepted and
    /// interpreted modulo p, matching ed25519 conventions; strict callers use
    /// [`FieldElement::from_bytes_canonical`].
    pub fn from_bytes(bytes: &[u8; 32]) -> FieldElement {
        let load8 =
            |b: &[u8]| -> u64 { u64::from_le_bytes(b[..8].try_into().expect("8-byte slice")) };
        FieldElement([
            load8(&bytes[0..]) & LOW_51_BIT_MASK,
            (load8(&bytes[6..]) >> 3) & LOW_51_BIT_MASK,
            (load8(&bytes[12..]) >> 6) & LOW_51_BIT_MASK,
            (load8(&bytes[19..]) >> 1) & LOW_51_BIT_MASK,
            (load8(&bytes[24..]) >> 12) & LOW_51_BIT_MASK,
        ])
    }

    /// Strict deserialization that rejects non-canonical encodings and a set
    /// top bit.
    pub fn from_bytes_canonical(bytes: &[u8; 32]) -> Option<FieldElement> {
        if bytes[31] & 0x80 != 0 {
            return None;
        }
        let fe = Self::from_bytes(bytes);
        if fe.to_bytes() == *bytes {
            Some(fe)
        } else {
            None
        }
    }

    /// Returns `true` if the element is zero.
    pub fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// Returns `true` if the canonical encoding is odd (the "negative" sign
    /// convention of RFC 8032).
    pub fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// The sum without the carry pass: limbs are the sums of the operands'
    /// limbs (below 2^53 for reduced operands). Only for results that feed
    /// straight into `Mul`, `square` or `Sub` — see the module doc.
    #[inline(always)]
    pub(crate) fn add_lazy(&self, rhs: &FieldElement) -> FieldElement {
        let (a, b) = (&self.0, &rhs.0);
        FieldElement([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
    }

    /// The square of `self`: 15 limb products where `self * self` takes 25
    /// (the cross terms are doubled instead of computed twice).
    #[inline]
    pub fn square(&self) -> FieldElement {
        let a = &self.0;
        let a3_19 = 19 * a[3];
        let a4_19 = 19 * a[4];
        // Each cross term appears twice; doubling one u64 operand (below
        // 2^55, or 2^59.3 with the 19) is cheaper than doubling the u128.
        let (d0, d1, d2, d4) = (2 * a[0], 2 * a[1], 2 * a[2], 2 * a[4]);
        let c0 = m(a[0], a[0]) + m(d1, a4_19) + m(d2, a3_19);
        let c1 = m(a[3], a3_19) + m(d0, a[1]) + m(d2, a4_19);
        let c2 = m(a[1], a[1]) + m(d0, a[2]) + m(d4, a3_19);
        let c3 = m(a[4], a4_19) + m(d0, a[3]) + m(d1, a[2]);
        let c4 = m(a[2], a[2]) + m(d0, a[4]) + m(d1, a[3]);
        carry_wide([c0, c1, c2, c3, c4])
    }

    /// Squares `self` `k` times.
    #[inline]
    pub fn pow2k(&self, k: u32) -> FieldElement {
        debug_assert!(k > 0);
        let mut z = *self;
        for _ in 0..k {
            z = z.square();
        }
        z
    }

    /// Raises to the power 2^250 − 1 (shared prefix of the inversion and
    /// square-root exponent chains).
    fn pow_2_250_minus_1(&self) -> (FieldElement, FieldElement) {
        let z = *self;
        let z2 = z.square(); // 2
        let z8 = z2.pow2k(2); // 8
        let z9 = z * z8; // 9
        let z11 = z2 * z9; // 11
        let z22 = z11.square(); // 22
        let z_5_0 = z9 * z22; // 2^5 - 1
        let z_10_5 = z_5_0.pow2k(5);
        let z_10_0 = z_10_5 * z_5_0; // 2^10 - 1
        let z_20_10 = z_10_0.pow2k(10);
        let z_20_0 = z_20_10 * z_10_0; // 2^20 - 1
        let z_40_20 = z_20_0.pow2k(20);
        let z_40_0 = z_40_20 * z_20_0; // 2^40 - 1
        let z_50_10 = z_40_0.pow2k(10);
        let z_50_0 = z_50_10 * z_10_0; // 2^50 - 1
        let z_100_50 = z_50_0.pow2k(50);
        let z_100_0 = z_100_50 * z_50_0; // 2^100 - 1
        let z_200_100 = z_100_0.pow2k(100);
        let z_200_0 = z_200_100 * z_100_0; // 2^200 - 1
        let z_250_50 = z_200_0.pow2k(50);
        let z_250_0 = z_250_50 * z_50_0; // 2^250 - 1
        (z_250_0, z11)
    }

    /// Multiplicative inverse (z^(p−2)).
    ///
    /// Returns zero for the zero input (callers that must distinguish check
    /// [`FieldElement::is_zero`] first).
    pub fn invert(&self) -> FieldElement {
        let (z_250_0, z11) = self.pow_2_250_minus_1();
        let z_255_5 = z_250_0.pow2k(5);
        z_255_5 * z11 // 2^255 - 21 = p - 2
    }

    /// Raises to the power (p−5)/8 = 2^252 − 3 (used by `sqrt_ratio_i`).
    pub fn pow_p58(&self) -> FieldElement {
        let (z_250_0, _) = self.pow_2_250_minus_1();
        let z_252_2 = z_250_0.pow2k(2); // 2^252 - 4
        z_252_2 * *self // 2^252 - 3
    }

    /// Computes `sqrt(u/v)` when it exists.
    ///
    /// Returns `(true, r)` with `r² = u/v` and `r` non-negative, or
    /// `(false, r)` with `r² = i·u/v` when `u/v` is a non-square (the second
    /// form is what Ristretto-style decodings use to reject).
    pub fn sqrt_ratio_i(u: &FieldElement, v: &FieldElement) -> (bool, FieldElement) {
        let v3 = v.square() * *v;
        let v7 = v3.square() * *v;
        let mut r = (*u * v3) * (*u * v7).pow_p58();
        let check = *v * r.square();

        let i = SQRT_M1;
        let correct_sign = check == *u;
        let flipped_sign = check == -*u;
        let flipped_sign_i = check == -(*u * i);
        if flipped_sign || flipped_sign_i {
            r *= i;
        }
        if r.is_negative() {
            r = -r;
        }
        (correct_sign || flipped_sign, r)
    }

    /// Conditionally negates to the non-negative representative.
    pub fn abs(&self) -> FieldElement {
        if self.is_negative() {
            -*self
        } else {
            *self
        }
    }
}

impl Add for FieldElement {
    type Output = FieldElement;
    #[inline]
    fn add(self, rhs: FieldElement) -> FieldElement {
        self.add_lazy(&rhs).weak_reduce()
    }
}

impl AddAssign for FieldElement {
    #[inline]
    fn add_assign(&mut self, rhs: FieldElement) {
        *self = *self + rhs;
    }
}

impl Sub for FieldElement {
    type Output = FieldElement;
    #[inline]
    fn sub(self, rhs: FieldElement) -> FieldElement {
        // Add 16p (limb-wise) before subtracting to avoid underflow; valid
        // because 16p's limbs ≈ 2^55 exceed the 2^54 input bound.
        const P16: [u64; 5] = [
            36028797018963664, // 16 * (2^51 - 19)
            36028797018963952, // 16 * (2^51 - 1)
            36028797018963952,
            36028797018963952,
            36028797018963952,
        ];
        let (a, b) = (&self.0, &rhs.0);
        FieldElement([
            a[0] + P16[0] - b[0],
            a[1] + P16[1] - b[1],
            a[2] + P16[2] - b[2],
            a[3] + P16[3] - b[3],
            a[4] + P16[4] - b[4],
        ])
        .weak_reduce()
    }
}

impl SubAssign for FieldElement {
    #[inline]
    fn sub_assign(&mut self, rhs: FieldElement) {
        *self = *self - rhs;
    }
}

impl Neg for FieldElement {
    type Output = FieldElement;
    #[inline]
    fn neg(self) -> FieldElement {
        FieldElement::ZERO - self
    }
}

/// One 64×64→128 limb product.
#[inline(always)]
fn m(x: u64, y: u64) -> u128 {
    x as u128 * y as u128
}

/// Carries five column sums (each below 2^115) into reduced 51-bit limbs.
#[inline(always)]
fn carry_wide(c: [u128; 5]) -> FieldElement {
    let [c0, mut c1, mut c2, mut c3, mut c4] = c;
    let mut out = [0u64; 5];
    // Every column is below 2^115, so each carry fits a u64 and the
    // accumulation into the next column is a 64-bit add with carry.
    c1 += ((c0 >> 51) as u64) as u128;
    out[0] = (c0 as u64) & LOW_51_BIT_MASK;
    c2 += ((c1 >> 51) as u64) as u128;
    out[1] = (c1 as u64) & LOW_51_BIT_MASK;
    c3 += ((c2 >> 51) as u64) as u128;
    out[2] = (c2 as u64) & LOW_51_BIT_MASK;
    c4 += ((c3 >> 51) as u64) as u128;
    out[3] = (c3 as u64) & LOW_51_BIT_MASK;
    // c4 carries no 19-folded term, so it stays below 2^110.4 and the
    // folded carry below 2^63.6.
    let carry = (c4 >> 51) as u64;
    out[4] = (c4 as u64) & LOW_51_BIT_MASK;
    out[0] += carry * 19;
    let carry = out[0] >> 51;
    out[0] &= LOW_51_BIT_MASK;
    out[1] += carry;
    FieldElement(out)
}

impl Mul for FieldElement {
    type Output = FieldElement;
    #[inline]
    fn mul(self, rhs: FieldElement) -> FieldElement {
        let a = &self.0;
        let b = &rhs.0;
        // The terms that wrap past 2^255 fold back multiplied by 19; with
        // bⱼ < 2^54 the pre-multiplication stays inside u64, so every
        // product below is a single 64×64→128 multiply.
        let b1_19 = 19 * b[1];
        let b2_19 = 19 * b[2];
        let b3_19 = 19 * b[3];
        let b4_19 = 19 * b[4];
        let c0 = m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19);
        let c1 = m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19);
        let c2 = m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19);
        let c3 = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19);
        let c4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);
        carry_wide([c0, c1, c2, c3, c4])
    }
}

impl MulAssign for FieldElement {
    #[inline]
    fn mul_assign(&mut self, rhs: FieldElement) {
        *self = *self * rhs;
    }
}

/// √−1 in GF(2^255−19): 2^((p−1)/4), the root with even canonical encoding.
pub(crate) const SQRT_M1: FieldElement = FieldElement([
    1718705420411056,
    234908883556509,
    2233514472574048,
    2117202627021982,
    765476049583133,
]);

/// The Edwards curve constant d = −121665/121666.
pub(crate) const EDWARDS_D: FieldElement = FieldElement([
    929955233495203,
    466365720129213,
    1662059464998953,
    2033849074728123,
    1442794654840575,
]);

/// 2·d, the constant of the extended-coordinate addition formulas.
pub(crate) const EDWARDS_D2: FieldElement = FieldElement([
    1859910466990425,
    932731440258426,
    1072319116312658,
    1815898335770999,
    633789495995903,
]);

/// √−1 in GF(2^255−19).
pub fn sqrt_m1() -> FieldElement {
    SQRT_M1
}

/// The Edwards curve constant d = −121665/121666.
pub fn edwards_d() -> FieldElement {
    EDWARDS_D
}

/// 2·d, used by the extended-coordinate addition formulas.
pub fn edwards_d2() -> FieldElement {
    EDWARDS_D2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint;
    use proptest::prelude::*;

    fn arb_fe() -> impl Strategy<Value = FieldElement> {
        proptest::array::uniform32(any::<u8>()).prop_map(|mut b| {
            b[31] &= 0x7f;
            FieldElement::from_bytes(&b)
        })
    }

    #[test]
    fn one_plus_one() {
        assert_eq!(
            FieldElement::ONE + FieldElement::ONE,
            FieldElement::from_u64(2)
        );
    }

    #[test]
    fn p_encodes_to_zero() {
        // p = 2^255 - 19.
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        let fe = FieldElement::from_bytes(&p_bytes);
        assert!(fe.is_zero());
        assert!(FieldElement::from_bytes_canonical(&p_bytes).is_none());
    }

    #[test]
    fn p_minus_one_is_canonical() {
        let mut b = [0xffu8; 32];
        b[0] = 0xec;
        b[31] = 0x7f;
        let fe = FieldElement::from_bytes_canonical(&b).expect("canonical");
        assert_eq!(fe + FieldElement::ONE, FieldElement::ZERO);
    }

    #[test]
    fn sqrt_m1_matches_its_derivation() {
        // (p−1)/4 = 2^253 − 5: bits 252..=3 set, then 0b011.
        let two = FieldElement::from_u64(2);
        let mut acc = FieldElement::ONE;
        for i in (0..253).rev() {
            acc = acc.square();
            if i != 2 {
                acc *= two;
            }
        }
        assert_eq!(sqrt_m1(), acc);
        assert_eq!(acc.0, SQRT_M1.0, "the const is stored reduced");
        assert_eq!(SQRT_M1 * SQRT_M1, -FieldElement::ONE);
        assert!(!SQRT_M1.is_negative());
    }

    #[test]
    fn d_matches_its_derivation() {
        let d = -FieldElement::from_u64(121665) * FieldElement::from_u64(121666).invert();
        assert_eq!(edwards_d(), d);
        assert_eq!(edwards_d2(), d + d);
        for c in [EDWARDS_D, EDWARDS_D2] {
            assert!(
                c.0.iter().all(|&l| l < 1 << 51),
                "consts are stored reduced"
            );
        }
    }

    /// p = 2^255 − 19 as little-endian 64-bit limbs.
    const P: [u64; 4] = [
        0xffff_ffff_ffff_ffed,
        0xffff_ffff_ffff_ffff,
        0xffff_ffff_ffff_ffff,
        0x7fff_ffff_ffff_ffff,
    ];

    /// The integer Σ limbᵢ·2^(51i) reduced mod p, by `crate::bigint` alone
    /// (no field code), so unreduced limbs are read at face value.
    fn value_mod_p(fe: &FieldElement) -> [u64; 4] {
        let mut wide = [0u64; 5];
        for (i, &limb) in fe.0.iter().enumerate() {
            let (word, shift) = (51 * i / 64, 51 * i % 64);
            let mut term = [0u64; 5];
            term[word] = limb << shift;
            if shift > 0 && word + 1 < 5 {
                term[word + 1] = limb >> (64 - shift);
            }
            assert!(!bigint::add_assign(&mut wide, &term));
        }
        let (_, r) = bigint::div_rem(&wide, &P);
        [r[0], r[1], r[2], r[3]]
    }

    fn reference_mul(a: &FieldElement, b: &FieldElement) -> [u8; 32] {
        let wide = bigint::mul_wide(&value_mod_p(a), &value_mod_p(b));
        let (_, r) = bigint::div_rem(&wide, &P);
        let mut out = [0u8; 32];
        for (chunk, limb) in out.chunks_exact_mut(8).zip(&r) {
            chunk.copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    fn assert_mul_and_square_match_reference(a: &FieldElement, b: &FieldElement) {
        let product = *a * *b;
        assert_eq!(product.to_bytes(), reference_mul(a, b));
        assert_eq!((*b * *a).to_bytes(), reference_mul(a, b));
        assert_eq!(a.square().to_bytes(), reference_mul(a, a));
        assert_eq!(a.pow2k(2).to_bytes(), {
            let sq = a.square();
            reference_mul(&sq, &sq)
        });
        for out in [product, a.square(), *a - *b, *a + *b, -*a] {
            assert!(out.0.iter().all(|&l| l < 1 << 52), "output limbs reduced");
        }
    }

    #[test]
    fn mul_and_square_at_the_limb_bounds() {
        // The documented public bound, the lazy-add bound the point
        // formulas reach, and the hard 2^54 input limit.
        let at = |bits: u32| FieldElement([(1u64 << bits) - 1; 5]);
        let bounds = [at(51), at(52), at(53), at(54)];
        for a in &bounds {
            for b in &bounds {
                assert_mul_and_square_match_reference(a, b);
                let diff = *a - *b;
                let mut expect = value_mod_p(a);
                if bigint::sub_assign(&mut expect, &value_mod_p(b)) {
                    bigint::add_assign(&mut expect, &P);
                }
                assert_eq!(value_mod_p(&diff), expect);
            }
        }
        // Mixed: one saturated limb at a time against a saturated operand.
        for i in 0..5 {
            let mut limbs = [0u64; 5];
            limbs[i] = (1 << 54) - 1;
            assert_mul_and_square_match_reference(&FieldElement(limbs), &at(54));
        }
    }

    #[test]
    fn lazy_adds_of_the_point_formulas_stay_in_bounds() {
        // The deepest chain in `crate::edwards`: 2·ZZ lazily, then + TT2d
        // lazily (three reduced terms), multiplied by a lazy Y+X.
        let r = FieldElement([(1 << 52) - 1; 5]);
        let zz2 = r.add_lazy(&r);
        let z = zz2.add_lazy(&r);
        let y_plus_x = r.add_lazy(&r);
        assert!(z.0.iter().all(|&l| l < 1 << 54));
        assert_mul_and_square_match_reference(&z, &y_plus_x);
        assert_mul_and_square_match_reference(&y_plus_x, &z);
        assert_eq!(value_mod_p(&(r - z)), value_mod_p(&(r - z.weak_reduce())));
    }

    #[test]
    fn invert_small_values() {
        for x in 1u64..32 {
            let fe = FieldElement::from_u64(x);
            assert_eq!(fe * fe.invert(), FieldElement::ONE, "x = {x}");
        }
    }

    #[test]
    fn sqrt_ratio_of_square() {
        let u = FieldElement::from_u64(49);
        let v = FieldElement::from_u64(4);
        let (ok, r) = FieldElement::sqrt_ratio_i(&u, &v);
        assert!(ok);
        assert_eq!(r.square() * v, u);
        assert!(!r.is_negative());
    }

    #[test]
    fn sqrt_ratio_of_nonsquare() {
        // 2 is a non-square mod p (p ≡ 5 mod 8 ⇒ 2 is a QNR? verify via the
        // function itself being consistent: r² = i·u/v must hold).
        let u = FieldElement::from_u64(2);
        let v = FieldElement::ONE;
        let (ok, r) = FieldElement::sqrt_ratio_i(&u, &v);
        if !ok {
            assert_eq!(r.square(), u * sqrt_m1());
        } else {
            assert_eq!(r.square(), u);
        }
    }

    proptest! {
        #[test]
        fn add_commutes(a in arb_fe(), b in arb_fe()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn mul_commutes(a in arb_fe(), b in arb_fe()) {
            prop_assert_eq!(a * b, b * a);
        }

        #[test]
        fn mul_associates(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
            prop_assert_eq!((a * b) * c, a * (b * c));
        }

        #[test]
        fn distributes(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn sub_is_add_neg(a in arb_fe(), b in arb_fe()) {
            prop_assert_eq!(a - b, a + (-b));
        }

        #[test]
        fn inverse_property(a in arb_fe()) {
            prop_assume!(!a.is_zero());
            prop_assert_eq!(a * a.invert(), FieldElement::ONE);
        }

        #[test]
        fn bytes_roundtrip(a in arb_fe()) {
            prop_assert_eq!(FieldElement::from_bytes(&a.to_bytes()), a);
        }

        #[test]
        fn square_matches_mul(a in arb_fe()) {
            prop_assert_eq!(a.square(), a * a);
        }

        #[test]
        fn mul_matches_bigint_reference(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
            assert_mul_and_square_match_reference(&a, &b);
            // Unreduced operands: a lazy sum and a lazy sum of lazy sums.
            let ab = a.add_lazy(&b);
            assert_mul_and_square_match_reference(&ab, &c);
            assert_mul_and_square_match_reference(&ab.add_lazy(&ab), &ab);
        }

        #[test]
        fn sqrt_ratio_consistent(a in arb_fe()) {
            prop_assume!(!a.is_zero());
            let sq = a.square();
            let (ok, r) = FieldElement::sqrt_ratio_i(&sq, &FieldElement::ONE);
            prop_assert!(ok);
            prop_assert_eq!(r, a.abs());
        }
    }
}
