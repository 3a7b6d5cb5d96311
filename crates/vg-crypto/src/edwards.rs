//! The edwards25519 group: −x² + y² = 1 + d·x²y² over GF(2^255−19).
//!
//! Points use extended twisted-Edwards coordinates (X : Y : Z : T) with
//! x = X/Z, y = Y/Z, T = XY/Z, the unified addition law (complete for
//! a = −1), and the RFC 8032 compressed encoding (little-endian y with the
//! sign of x in the top bit).
//!
//! The protocol layer works exclusively in the prime-order subgroup of
//! order ℓ generated by the standard basepoint; decompression of untrusted
//! inputs offers [`EdwardsPoint::is_torsion_free`] for callers that must
//! enforce subgroup membership (see `DESIGN.md` §7).

use core::fmt;
use core::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};
use std::sync::OnceLock;

use crate::field::{edwards_d, edwards_d2, FieldElement};
use crate::scalar::Scalar;

/// A point on edwards25519 in extended coordinates.
#[derive(Clone, Copy)]
pub struct EdwardsPoint {
    pub(crate) x: FieldElement,
    pub(crate) y: FieldElement,
    pub(crate) z: FieldElement,
    pub(crate) t: FieldElement,
}

/// A compressed (32-byte) point encoding, used in all wire formats.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompressedPoint(pub [u8; 32]);

impl fmt::Debug for CompressedPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CompressedPoint(")?;
        for b in self.0.iter() {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for EdwardsPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EdwardsPoint({:?})", self.compress())
    }
}

impl PartialEq for EdwardsPoint {
    fn eq(&self, other: &Self) -> bool {
        // (X1/Z1 == X2/Z2) && (Y1/Z1 == Y2/Z2), cross-multiplied.
        self.x * other.z == other.x * self.z && self.y * other.z == other.y * self.z
    }
}

impl Eq for EdwardsPoint {}

impl Default for EdwardsPoint {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl EdwardsPoint {
    /// The identity element (0, 1).
    pub const IDENTITY: EdwardsPoint = EdwardsPoint {
        x: FieldElement::ZERO,
        y: FieldElement::ONE,
        z: FieldElement::ONE,
        t: FieldElement::ZERO,
    };

    /// The standard basepoint B with y = 4/5 and even x.
    pub fn basepoint() -> EdwardsPoint {
        static B: OnceLock<EdwardsPoint> = OnceLock::new();
        *B.get_or_init(|| {
            let y = FieldElement::from_u64(4) * FieldElement::from_u64(5).invert();
            let mut bytes = y.to_bytes();
            bytes[31] &= 0x7f; // Sign bit 0: the canonical basepoint x is even.
            CompressedPoint(bytes)
                .decompress()
                .expect("basepoint decompression cannot fail")
        })
    }

    /// Returns `true` for the identity element.
    pub fn is_identity(&self) -> bool {
        *self == Self::IDENTITY
    }

    /// Point doubling.
    pub fn double(&self) -> EdwardsPoint {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz2 = self.z.square() + self.z.square();
        let xpy2 = (self.x + self.y).square();
        let yy_plus_xx = yy + xx;
        let yy_minus_xx = yy - xx;
        let e = xpy2 - yy_plus_xx; // 2XY
        let t = zz2 - yy_minus_xx;
        EdwardsPoint {
            x: e * t,
            y: yy_plus_xx * yy_minus_xx,
            z: yy_minus_xx * t,
            t: e * yy_plus_xx,
        }
    }

    /// Multiplies by the cofactor 8.
    pub fn mul_by_cofactor(&self) -> EdwardsPoint {
        self.double().double().double()
    }

    /// Returns `true` if the point is in the 8-element torsion subgroup.
    pub fn is_small_order(&self) -> bool {
        self.mul_by_cofactor().is_identity()
    }

    /// Returns `true` if the point lies in the prime-order subgroup.
    pub fn is_torsion_free(&self) -> bool {
        // P is torsion-free ⇔ ℓ·P = identity; computed as (ℓ−1)·P + P since
        // scalars are reduced mod ℓ.
        let mut e = crate::scalar::L;
        e[0] -= 1;
        let l_minus_1 = Scalar(e);
        ((*self * l_minus_1) + *self).is_identity()
    }

    /// Compresses to the 32-byte RFC 8032 encoding.
    pub fn compress(&self) -> CompressedPoint {
        let z_inv = self.z.invert();
        Self::compress_with(self, &z_inv)
    }

    fn compress_with(p: &EdwardsPoint, z_inv: &FieldElement) -> CompressedPoint {
        let x = p.x * *z_inv;
        let y = p.y * *z_inv;
        let mut bytes = y.to_bytes();
        bytes[31] |= (x.is_negative() as u8) << 7;
        CompressedPoint(bytes)
    }

    /// Compresses many points with a single shared field inversion
    /// (Montgomery's trick), producing exactly the same encodings as
    /// [`EdwardsPoint::compress`] point by point. Statement hashing over
    /// large ciphertext vectors is inversion-bound without this.
    pub fn batch_compress(points: &[EdwardsPoint]) -> Vec<CompressedPoint> {
        let n = points.len();
        if n == 0 {
            return Vec::new();
        }
        // prefix[i] = z_0·…·z_{i−1}; one inversion of the total product.
        let mut prefix = Vec::with_capacity(n);
        let mut acc = FieldElement::ONE;
        for p in points {
            prefix.push(acc);
            acc *= p.z;
        }
        let mut inv = acc.invert();
        let mut out = vec![CompressedPoint([0u8; 32]); n];
        for i in (0..n).rev() {
            let z_inv = inv * prefix[i];
            inv *= points[i].z;
            out[i] = Self::compress_with(&points[i], &z_inv);
        }
        out
    }

    /// The multiples [0·P, 1·P, …, 15·P] a 4-bit window looks up.
    fn window_table(&self) -> [EdwardsPoint; 16] {
        let mut table = [EdwardsPoint::IDENTITY; 16];
        for i in 1..16 {
            table[i] = table[i - 1] + *self;
        }
        table
    }

    /// Variable-time scalar multiplication with a 4-bit window.
    fn mul_vartime(&self, s: &Scalar) -> EdwardsPoint {
        let table = self.window_table();
        let bytes = s.to_bytes();
        let mut acc = EdwardsPoint::IDENTITY;
        for i in (0..64).rev() {
            acc = acc.double().double().double().double();
            let nibble = nibble(&bytes, i);
            if nibble != 0 {
                acc += table[nibble];
            }
        }
        acc
    }

    /// Fixed-base scalar multiplication `s·B` using a precomputed
    /// radix-16 table (64 additions after one-time setup).
    pub fn mul_base(s: &Scalar) -> EdwardsPoint {
        static TABLE: OnceLock<Vec<[EdwardsPoint; 16]>> = OnceLock::new();
        let table = TABLE.get_or_init(|| {
            let mut windows = Vec::with_capacity(64);
            let mut base = EdwardsPoint::basepoint();
            for _ in 0..64 {
                let mut row = [EdwardsPoint::IDENTITY; 16];
                for d in 1..16 {
                    row[d] = row[d - 1] + base;
                }
                windows.push(row);
                base = base.double().double().double().double();
            }
            windows
        });
        let bytes = s.to_bytes();
        let mut acc = EdwardsPoint::IDENTITY;
        for (i, row) in table.iter().enumerate() {
            let nibble = nibble(&bytes, i);
            if nibble != 0 {
                acc += row[nibble];
            }
        }
        acc
    }

    /// Checks the curve equation −x² + y² = z² + d·(xy/z)²·z²
    /// (in projective form); used by debug assertions and tests.
    pub fn is_on_curve(&self) -> bool {
        // Extended coordinates satisfy:
        //   (−X² + Y²)·Z² == Z⁴ + d·X²·Y²  and  T·Z == X·Y.
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let lhs = (yy - xx) * zz;
        let rhs = zz.square() + edwards_d() * xx * yy;
        lhs == rhs && self.t * self.z == self.x * self.y
    }
}

impl CompressedPoint {
    /// The compressed identity encoding.
    pub fn identity() -> CompressedPoint {
        CompressedPoint(EdwardsPoint::IDENTITY.compress().0)
    }

    /// Decompresses, validating that the encoding is canonical and the
    /// point is on the curve. Returns `None` otherwise.
    pub fn decompress(&self) -> Option<EdwardsPoint> {
        let sign = (self.0[31] >> 7) & 1;
        let mut y_bytes = self.0;
        y_bytes[31] &= 0x7f;
        let y = FieldElement::from_bytes_canonical(&y_bytes)?;
        let yy = y.square();
        let u = yy - FieldElement::ONE;
        let v = edwards_d() * yy + FieldElement::ONE;
        let (is_square, mut x) = FieldElement::sqrt_ratio_i(&u, &v);
        if !is_square {
            return None;
        }
        if x.is_zero() && sign == 1 {
            // Reject the non-canonical "negative zero" encoding.
            return None;
        }
        if (x.is_negative() as u8) != sign {
            x = -x;
        }
        Some(EdwardsPoint {
            x,
            y,
            z: FieldElement::ONE,
            t: x * y,
        })
    }

    /// Byte view of the encoding.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl Add for EdwardsPoint {
    type Output = EdwardsPoint;
    fn add(self, rhs: EdwardsPoint) -> EdwardsPoint {
        // Unified addition "add-2008-hwcd-3" for a = −1.
        let a = (self.y - self.x) * (rhs.y - rhs.x);
        let b = (self.y + self.x) * (rhs.y + rhs.x);
        let c = self.t * edwards_d2() * rhs.t;
        let zz = self.z * rhs.z;
        let d = zz + zz;
        let e = b - a;
        let f = d - c;
        let g = d + c;
        let h = b + a;
        EdwardsPoint {
            x: e * f,
            y: g * h,
            z: f * g,
            t: e * h,
        }
    }
}

impl AddAssign for EdwardsPoint {
    fn add_assign(&mut self, rhs: EdwardsPoint) {
        *self = *self + rhs;
    }
}

impl Sub for EdwardsPoint {
    type Output = EdwardsPoint;
    fn sub(self, rhs: EdwardsPoint) -> EdwardsPoint {
        self + (-rhs)
    }
}

impl SubAssign for EdwardsPoint {
    fn sub_assign(&mut self, rhs: EdwardsPoint) {
        *self = *self - rhs;
    }
}

impl Neg for EdwardsPoint {
    type Output = EdwardsPoint;
    fn neg(self) -> EdwardsPoint {
        EdwardsPoint {
            x: -self.x,
            y: self.y,
            z: self.z,
            t: -self.t,
        }
    }
}

impl Mul<Scalar> for EdwardsPoint {
    type Output = EdwardsPoint;
    fn mul(self, s: Scalar) -> EdwardsPoint {
        self.mul_vartime(&s)
    }
}

impl Mul<&Scalar> for EdwardsPoint {
    type Output = EdwardsPoint;
    fn mul(self, s: &Scalar) -> EdwardsPoint {
        self.mul_vartime(s)
    }
}

impl Mul<EdwardsPoint> for Scalar {
    type Output = EdwardsPoint;
    fn mul(self, p: EdwardsPoint) -> EdwardsPoint {
        p.mul_vartime(&self)
    }
}

impl core::iter::Sum for EdwardsPoint {
    fn sum<I: Iterator<Item = EdwardsPoint>>(iter: I) -> EdwardsPoint {
        iter.fold(EdwardsPoint::IDENTITY, |a, b| a + b)
    }
}

/// The `i`-th 4-bit digit of a little-endian scalar encoding.
fn nibble(bytes: &[u8; 32], i: usize) -> usize {
    let byte = bytes[i / 2];
    (if i % 2 == 1 { byte >> 4 } else { byte & 0x0f }) as usize
}

/// Fixed-base shorthand `s·B`.
pub fn basemul(s: &Scalar) -> EdwardsPoint {
    EdwardsPoint::mul_base(s)
}

/// Derives a "nothing-up-my-sleeve" prime-order point from a label.
///
/// Try-and-increment over SHA-512 outputs: candidate y-coordinates are
/// decompressed until one lies on the curve, then the torsion component is
/// cleared by cofactor multiplication. Deterministic in `label`; the
/// discrete log relative to the basepoint is unknown, which is what the
/// Pedersen commitments require.
pub fn hash_to_point(label: &[u8]) -> EdwardsPoint {
    use crate::sha2::Sha512;
    for ctr in 0u64..u64::MAX {
        let mut h = Sha512::new();
        h.update(b"votegral-hash-to-point-v1");
        h.update(&(label.len() as u64).to_le_bytes());
        h.update(label);
        h.update(&ctr.to_le_bytes());
        let digest = h.finalize();
        let mut bytes = [0u8; 32];
        bytes.copy_from_slice(&digest[..32]);
        // Take the sign bit from the digest too, then let decompression
        // validate canonicity.
        bytes[31] &= 0x7f;
        bytes[31] |= digest[32] & 0x80;
        if let Some(p) = CompressedPoint(bytes).decompress() {
            let q = p.mul_by_cofactor();
            if !q.is_identity() {
                return q;
            }
        }
    }
    unreachable!("hash_to_point exhausts only after 2^64 attempts")
}

/// Variable-time multi-scalar multiplication Σ sᵢ·Pᵢ.
///
/// Uses Pippenger's bucket method for larger inputs and Straus' shared
/// doubling chain for a handful of terms; both are cross-checked against
/// one-by-one accumulation by tests.
///
/// # Panics
///
/// Panics if `scalars` and `points` have different lengths.
pub fn multiscalar_mul(scalars: &[Scalar], points: &[EdwardsPoint]) -> EdwardsPoint {
    assert_eq!(scalars.len(), points.len(), "multiscalar length mismatch");
    let n = scalars.len();
    if n == 0 {
        return EdwardsPoint::IDENTITY;
    }
    if n < 8 {
        return straus(scalars, points);
    }
    pippenger(scalars, points)
}

/// Straus' interleaved method: one 4-bit table per point and a single
/// chain of doublings shared by all terms, so every term after the first
/// costs its table and ~60 additions instead of a full multiplication.
fn straus(scalars: &[Scalar], points: &[EdwardsPoint]) -> EdwardsPoint {
    let tables: Vec<[EdwardsPoint; 16]> = points.iter().map(EdwardsPoint::window_table).collect();
    let digits: Vec<[u8; 32]> = scalars.iter().map(|s| s.to_bytes()).collect();
    let mut acc = EdwardsPoint::IDENTITY;
    for i in (0..64).rev() {
        acc = acc.double().double().double().double();
        for (table, bytes) in tables.iter().zip(digits.iter()) {
            let nibble = nibble(bytes, i);
            if nibble != 0 {
                acc += table[nibble];
            }
        }
    }
    acc
}

/// Parallel variable-time multi-scalar multiplication Σ sᵢ·Pᵢ.
///
/// Splits the terms into `threads` chunks, runs Pippenger on each chunk on
/// its own worker via [`crate::par::par_map`], and sums the partial
/// results. Falls back to the single-threaded path when the input is too
/// small for the split to pay off.
///
/// # Panics
///
/// Panics if `scalars` and `points` have different lengths.
pub fn multiscalar_mul_par(
    scalars: &[Scalar],
    points: &[EdwardsPoint],
    threads: usize,
) -> EdwardsPoint {
    assert_eq!(scalars.len(), points.len(), "multiscalar length mismatch");
    let n = scalars.len();
    let threads = threads.max(1);
    if threads == 1 || n < 4096 {
        return multiscalar_mul(scalars, points);
    }
    let chunk = n.div_ceil(threads);
    let jobs: Vec<(usize, usize)> = (0..n)
        .step_by(chunk)
        .map(|lo| (lo, (lo + chunk).min(n)))
        .collect();
    crate::par::par_map(&jobs, threads, |&(lo, hi)| {
        multiscalar_mul(&scalars[lo..hi], &points[lo..hi])
    })
    .into_iter()
    .sum()
}

/// Pippenger window size for `n` terms, chosen by minimizing the point-
/// addition cost model `⌈253/c⌉·(n + 2·2^c)` over c ∈ [4, 16].
fn pippenger_window(n: usize) -> usize {
    (4usize..=16)
        .min_by_key(|&c| 253usize.div_ceil(c) * (n + 2 * (1usize << c)))
        .expect("non-empty window range")
}

/// Pippenger bucket multi-scalar multiplication (variable time).
fn pippenger(scalars: &[Scalar], points: &[EdwardsPoint]) -> EdwardsPoint {
    let n = scalars.len();
    let c = pippenger_window(n);
    let digits_count = 253_usize.div_ceil(c);
    let buckets_count = 1usize << c;
    let mask = (buckets_count - 1) as u64;

    // Extract the w-th c-bit digit of each scalar, reading its canonical
    // little-endian limbs directly.
    let digit = |s: &Scalar, w: usize| -> u64 {
        let bit_off = w * c;
        let limbs = &s.0;
        let limb_idx = bit_off / 64;
        let shift = bit_off % 64;
        if limb_idx >= 4 {
            return 0;
        }
        let mut d = limbs[limb_idx] >> shift;
        if shift + c > 64 && limb_idx + 1 < 4 {
            d |= limbs[limb_idx + 1] << (64 - shift);
        }
        d & mask
    };

    let mut windows = Vec::with_capacity(digits_count);
    for w in 0..digits_count {
        let mut buckets = vec![EdwardsPoint::IDENTITY; buckets_count];
        for i in 0..n {
            let d = digit(&scalars[i], w) as usize;
            if d != 0 {
                buckets[d] += points[i];
            }
        }
        // Running-sum trick: Σ d·bucket[d] in 2(B−1) additions.
        let mut running = EdwardsPoint::IDENTITY;
        let mut acc = EdwardsPoint::IDENTITY;
        for b in (1..buckets_count).rev() {
            running += buckets[b];
            acc += running;
        }
        windows.push(acc);
    }
    // Combine windows from the top: acc = acc·2^c + window.
    let mut acc = EdwardsPoint::IDENTITY;
    for w in windows.iter().rev() {
        for _ in 0..c {
            acc = acc.double();
        }
        acc += *w;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::L;
    use proptest::prelude::*;

    fn arb_scalar() -> impl Strategy<Value = Scalar> {
        proptest::array::uniform32(any::<u8>()).prop_map(|b| Scalar::from_bytes_mod_order(&b))
    }

    #[test]
    fn basepoint_matches_rfc8032() {
        // Compressed basepoint from RFC 8032: y = 4/5, sign 0.
        let b = EdwardsPoint::basepoint().compress();
        let expected: [u8; 32] = [
            0x58, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
            0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
            0x66, 0x66, 0x66, 0x66,
        ];
        assert_eq!(b.0, expected);
        assert!(EdwardsPoint::basepoint().is_on_curve());
    }

    #[test]
    fn rfc8032_public_key_derivation() {
        // RFC 8032 TEST 1: seed -> SHA-512 -> clamp -> s·B must equal the
        // published public key. Exercises SHA-512, scalar reduction, point
        // multiplication and compression end to end.
        let seed: [u8; 32] = [
            0x9d, 0x61, 0xb1, 0x9d, 0xef, 0xfd, 0x5a, 0x60, 0xba, 0x84, 0x4a, 0xf4, 0x92, 0xec,
            0x2c, 0xc4, 0x44, 0x49, 0xc5, 0x69, 0x7b, 0x32, 0x69, 0x19, 0x70, 0x3b, 0xac, 0x03,
            0x1c, 0xae, 0x7f, 0x60,
        ];
        let expected_pk: [u8; 32] = [
            0xd7, 0x5a, 0x98, 0x01, 0x82, 0xb1, 0x0a, 0xb7, 0xd5, 0x4b, 0xfe, 0xd3, 0xc9, 0x64,
            0x07, 0x3a, 0x0e, 0xe1, 0x72, 0xf3, 0xda, 0xa6, 0x23, 0x25, 0xaf, 0x02, 0x1a, 0x68,
            0xf7, 0x07, 0x51, 0x1a,
        ];
        let h = crate::sha2::sha512(&seed);
        let mut key = [0u8; 32];
        key.copy_from_slice(&h[..32]);
        key[0] &= 248;
        key[31] &= 127;
        key[31] |= 64;
        // The clamped integer can exceed ℓ; reducing mod ℓ yields the same
        // point because B has order ℓ.
        let s = Scalar::from_bytes_mod_order(&key);
        let pk = EdwardsPoint::mul_base(&s).compress();
        assert_eq!(pk.0, expected_pk);
    }

    #[test]
    fn order_annihilates_basepoint() {
        // (ℓ−1)·B + B == identity.
        let mut e = L;
        e[0] -= 1;
        let l_minus_1 = Scalar(e);
        let p = EdwardsPoint::mul_base(&l_minus_1) + EdwardsPoint::basepoint();
        assert!(p.is_identity());
    }

    #[test]
    fn double_matches_add() {
        let b = EdwardsPoint::basepoint();
        assert_eq!(b.double(), b + b);
        let p = b * Scalar::from_u64(12345);
        assert_eq!(p.double(), p + p);
        assert!(p.double().is_on_curve());
    }

    #[test]
    fn identity_laws() {
        let b = EdwardsPoint::basepoint();
        assert_eq!(b + EdwardsPoint::IDENTITY, b);
        assert_eq!(EdwardsPoint::IDENTITY + b, b);
        assert!((b - b).is_identity());
        assert_eq!(b * Scalar::ZERO, EdwardsPoint::IDENTITY);
        assert_eq!(b * Scalar::ONE, b);
    }

    #[test]
    fn mul_base_matches_mul() {
        for k in [1u64, 2, 3, 255, 256, 65537, u64::MAX] {
            let s = Scalar::from_u64(k);
            assert_eq!(EdwardsPoint::mul_base(&s), EdwardsPoint::basepoint() * s);
        }
    }

    #[test]
    fn compress_decompress_roundtrip() {
        for k in 1u64..20 {
            let p = EdwardsPoint::mul_base(&Scalar::from_u64(k));
            let c = p.compress();
            let q = c.decompress().expect("valid point");
            assert_eq!(p, q);
            assert!(q.is_on_curve());
            assert!(q.is_torsion_free());
        }
    }

    #[test]
    fn decompress_rejects_garbage() {
        // An all-0xFF encoding has the top bit set on a non-canonical y.
        assert!(CompressedPoint([0xff; 32]).decompress().is_none());
        // y = 2 gives a non-square x² on this curve? Either way, validate
        // that failures return None instead of junk.
        let mut bytes = [0u8; 32];
        bytes[0] = 2;
        if let Some(p) = CompressedPoint(bytes).decompress() {
            assert!(p.is_on_curve());
        }
    }

    #[test]
    fn negation() {
        let p = EdwardsPoint::mul_base(&Scalar::from_u64(7));
        assert!((p + (-p)).is_identity());
        assert_eq!(-(-p), p);
    }

    #[test]
    fn multiscalar_matches_naive() {
        let scalars: Vec<Scalar> = (1u64..40).map(Scalar::from_u64).collect();
        let points: Vec<EdwardsPoint> = (1u64..40)
            .map(|k| EdwardsPoint::mul_base(&Scalar::from_u64(k * k + 1)))
            .collect();
        let naive: EdwardsPoint = scalars.iter().zip(points.iter()).map(|(s, p)| *p * s).sum();
        assert_eq!(multiscalar_mul(&scalars, &points), naive);
    }

    #[test]
    fn multiscalar_all_sizes_agree() {
        // Exercise both the naive and the Pippenger path, across window
        // boundaries, against one-by-one accumulation.
        use crate::drbg::Rng;
        let mut rng = crate::HmacDrbg::from_u64(99);
        for n in [0usize, 1, 2, 7, 8, 9, 33, 100] {
            let scalars: Vec<Scalar> = (0..n).map(|_| rng.scalar()).collect();
            let points: Vec<EdwardsPoint> = (0..n)
                .map(|_| EdwardsPoint::mul_base(&rng.scalar()))
                .collect();
            let naive: EdwardsPoint = scalars.iter().zip(points.iter()).map(|(s, p)| *p * s).sum();
            assert_eq!(multiscalar_mul(&scalars, &points), naive, "n={n}");
            assert_eq!(
                multiscalar_mul_par(&scalars, &points, 4),
                naive,
                "n={n} par"
            );
        }
    }

    #[test]
    fn batch_compress_matches_pointwise() {
        use crate::drbg::Rng;
        let mut rng = crate::HmacDrbg::from_u64(17);
        for n in [0usize, 1, 2, 5, 31] {
            let points: Vec<EdwardsPoint> = (0..n)
                .map(|_| EdwardsPoint::mul_base(&rng.scalar()) + EdwardsPoint::basepoint().double())
                .collect();
            let batch = EdwardsPoint::batch_compress(&points);
            let single: Vec<CompressedPoint> = points.iter().map(|p| p.compress()).collect();
            assert_eq!(batch, single, "n={n}");
        }
    }

    #[test]
    fn window_model_is_monotone_in_n() {
        // Bigger inputs never pick a smaller window.
        let mut prev = 0;
        for n in [8usize, 64, 512, 4096, 32_768, 262_144] {
            let c = pippenger_window(n);
            assert!((4..=16).contains(&c));
            assert!(c >= prev, "window shrank at n={n}");
            prev = c;
        }
    }

    #[test]
    fn small_order_detection() {
        assert!(EdwardsPoint::IDENTITY.is_small_order());
        assert!(!EdwardsPoint::basepoint().is_small_order());
        assert!(EdwardsPoint::basepoint().is_torsion_free());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn scalar_mul_distributes(a in arb_scalar(), b in arb_scalar()) {
            let lhs = EdwardsPoint::mul_base(&(a + b));
            let rhs = EdwardsPoint::mul_base(&a) + EdwardsPoint::mul_base(&b);
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn scalar_mul_composes(a in arb_scalar(), b in arb_scalar()) {
            let p = EdwardsPoint::mul_base(&a);
            prop_assert_eq!(p * b, EdwardsPoint::mul_base(&(a * b)));
        }

        #[test]
        fn addition_commutes(a in arb_scalar(), b in arb_scalar()) {
            let p = EdwardsPoint::mul_base(&a);
            let q = EdwardsPoint::mul_base(&b);
            prop_assert_eq!(p + q, q + p);
            prop_assert!((p + q).is_on_curve());
        }

        #[test]
        fn roundtrip_random(a in arb_scalar()) {
            let p = EdwardsPoint::mul_base(&a);
            prop_assert_eq!(p.compress().decompress(), Some(p));
        }
    }
}
