//! The edwards25519 group: −x² + y² = 1 + d·x²y² over GF(2^255−19).
//!
//! **All scalar multiplication here is variable-time** — single,
//! fixed-base and multi-scalar alike branch on scalar digits and skip the
//! zero ones (the crate-level caveat applies; nothing below repeats it).
//!
//! # Coordinate forms
//!
//! The public type is [`EdwardsPoint`], extended twisted-Edwards
//! coordinates (X : Y : Z : T) with x = X/Z, y = Y/Z, T = XY/Z, encoded by
//! the RFC 8032 compression (little-endian y with the sign of x in the top
//! bit). Four private forms sit behind it so that a scalar multiplication
//! pays only for what each step reads (M = field multiplication, S =
//! squaring; limb bounds in [`crate::field`]):
//!
//! | form | coordinates | role |
//! |---|---|---|
//! | `Projective` | (X : Y : Z) | input of a doubling — a doubling never reads T |
//! | `Completed` | (X : Z), (Y : T) | output of every doubling (4S) and addition; → `Projective` 3M, → extended 4M |
//! | `Cached` | (Y+X, Y−X, Z, 2dT) | an addend that is reused (window tables): extended + cached = 4M, no constant load |
//! | `AffineNiels` | (y+x, y−x, 2dxy) | a normalised addend ([`FixedBaseTable`] rows, [`EdwardsPoint::mul_each`]'s powers): extended + niels = 3M |
//!
//! So a doubling inside a chain is 4S + 3M, an addition of a table entry is
//! 8M (7M affine), and T is materialised only where an addition reads it.
//! The addition law is the unified one (complete for a = −1), so every
//! form handles the identity, doublings-by-addition and torsion points.
//!
//! # Compression and the Z = 1 rule
//!
//! [`EdwardsPoint::compress`] divides X and Y by Z, which costs one field
//! inversion (about 250 multiplications) — unless Z's limbs are exactly
//! one, when it encodes X and Y as they stand. Decoded points have Z = 1,
//! so every point read off the wire, a log or the ledger compresses for
//! free. A point that is made once and encoded many times (a credential
//! tag, a Σ-commitment, a public key) is put in that form where it is
//! made: [`EdwardsPoint::batch_normalize`] rewrites many points to Z = 1
//! for one shared inversion, and [`EdwardsPoint::batch_compress`] encodes
//! many for one. Either way the group element, and so every encoding, is
//! unchanged. The branch reads how a point is represented, never a
//! secret: whether a point was normalised is fixed by the code that made
//! it.
//!
//! The protocol layer works exclusively in the prime-order subgroup of
//! order ℓ generated by the standard basepoint; decompression of untrusted
//! inputs offers [`EdwardsPoint::is_torsion_free`] for callers that must
//! enforce subgroup membership (README, *The torsion rule*).

use core::fmt;
use core::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};
use std::sync::{Arc, Mutex, OnceLock};

use crate::field::{FieldElement, EDWARDS_D, EDWARDS_D2};
use crate::scalar::Scalar;
use crate::sync::lock_recover;

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

/// (X : Y : Z) without T: what a doubling reads.
#[derive(Clone, Copy)]
struct Projective {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
}

/// ((X : Z), (Y : T)) — the point (X/Z, Y/T). Doublings and additions land
/// here; the caller picks which form to pay for next.
#[derive(Clone, Copy)]
struct Completed {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
    t: FieldElement,
}

/// (Y+X, Y−X, Z, 2dT): an extended point prepared as a repeated addend.
#[derive(Clone, Copy)]
struct Cached {
    y_plus_x: FieldElement,
    y_minus_x: FieldElement,
    z: FieldElement,
    t2d: FieldElement,
}

/// (y+x, y−x, 2dxy): a `Cached` with Z = 1, three-quarters the size and
/// one multiplication less per addition.
#[derive(Clone, Copy)]
struct AffineNiels {
    y_plus_x: FieldElement,
    y_minus_x: FieldElement,
    xy2d: FieldElement,
}

impl Projective {
    const IDENTITY: Projective = Projective {
        x: FieldElement::ZERO,
        y: FieldElement::ONE,
        z: FieldElement::ONE,
    };

    /// Doubling "dbl-2008-hwcd" for a = −1, 4S.
    fn double(&self) -> Completed {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let xpy2 = self.x.add_lazy(&self.y).square();
        let yy_plus_xx = yy.add_lazy(&xx);
        let yy_minus_xx = yy - xx;
        Completed {
            x: xpy2 - yy_plus_xx, // 2XY
            y: yy_plus_xx,
            z: yy_minus_xx,
            t: zz.add_lazy(&zz) - yy_minus_xx,
        }
    }
}

impl Completed {
    #[inline(always)]
    fn swap_z_t(self) -> Completed {
        Completed {
            z: self.t,
            t: self.z,
            ..self
        }
    }

    /// 3M: drops T, for a result that is doubled next.
    fn to_projective(self) -> Projective {
        Projective {
            x: self.x * self.t,
            y: self.y * self.z,
            z: self.z * self.t,
        }
    }

    /// 4M: for a result that is added to next (or returned).
    fn to_extended(self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x * self.t,
            y: self.y * self.z,
            z: self.z * self.t,
            t: self.x * self.y,
        }
    }
}

impl AffineNiels {
    const IDENTITY: AffineNiels = AffineNiels {
        y_plus_x: FieldElement::ONE,
        y_minus_x: FieldElement::ONE,
        xy2d: FieldElement::ZERO,
    };

    /// The addend form of a point with Z = 1 (T = xy), 1M.
    fn from_normal(p: &EdwardsPoint) -> AffineNiels {
        debug_assert!(p.z.0 == FieldElement::ONE.0);
        AffineNiels {
            y_plus_x: p.y + p.x,
            y_minus_x: p.y - p.x,
            xy2d: p.t * EDWARDS_D2,
        }
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

    #[inline]
    fn as_projective(&self) -> Projective {
        Projective {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    /// 1M: the reusable-addend form.
    fn to_cached(self) -> Cached {
        Cached {
            y_plus_x: self.y.add_lazy(&self.x),
            y_minus_x: self.y - self.x,
            z: self.z,
            t2d: self.t * EDWARDS_D2,
        }
    }

    /// The shared tail of every addition, "add-2008-hwcd-3" for a = −1
    /// (unified: complete on the whole curve), given the addend's Y₂+X₂ and
    /// Y₂−X₂ and the two cross products 2·Z₁Z₂ and 2d·T₁T₂.
    #[inline(always)]
    fn add_with(
        &self,
        y_plus_x: &FieldElement,
        y_minus_x: &FieldElement,
        zz2: FieldElement,
        tt2d: FieldElement,
    ) -> Completed {
        let pp = self.y.add_lazy(&self.x) * *y_plus_x;
        let mm = (self.y - self.x) * *y_minus_x;
        Completed {
            x: pp - mm,
            y: pp.add_lazy(&mm),
            z: zz2.add_lazy(&tt2d),
            t: zz2 - tt2d,
        }
    }

    /// Addition of a prepared addend, 4M.
    fn add_cached(&self, rhs: &Cached) -> Completed {
        let zz = self.z * rhs.z;
        self.add_with(
            &rhs.y_plus_x,
            &rhs.y_minus_x,
            zz.add_lazy(&zz),
            self.t * rhs.t2d,
        )
    }

    /// Subtraction of a prepared addend, for signed digits: negating it
    /// swaps Y+X with Y−X and the sign of 2dT, i.e. the result's Z and T.
    fn sub_cached(&self, rhs: &Cached) -> Completed {
        let zz = self.z * rhs.z;
        self.add_with(
            &rhs.y_minus_x,
            &rhs.y_plus_x,
            zz.add_lazy(&zz),
            self.t * rhs.t2d,
        )
        .swap_z_t()
    }

    /// Mixed addition of a normalised addend (Z₂ = 1), 3M.
    fn add_niels(&self, rhs: &AffineNiels) -> Completed {
        self.add_with(
            &rhs.y_plus_x,
            &rhs.y_minus_x,
            self.z.add_lazy(&self.z),
            self.t * rhs.xy2d,
        )
    }

    /// Mixed subtraction of a normalised addend.
    fn sub_niels(&self, rhs: &AffineNiels) -> Completed {
        self.add_with(
            &rhs.y_minus_x,
            &rhs.y_plus_x,
            self.z.add_lazy(&self.z),
            self.t * rhs.xy2d,
        )
        .swap_z_t()
    }

    /// Point doubling.
    pub fn double(&self) -> EdwardsPoint {
        self.as_projective().double().to_extended()
    }

    /// 2^k·P for k ≥ 1: T is restored after the last doubling only.
    fn mul_by_pow_2(&self, k: usize) -> EdwardsPoint {
        debug_assert!(k > 0);
        let mut p = self.as_projective();
        for _ in 1..k {
            p = p.double().to_projective();
        }
        p.double().to_extended()
    }

    /// Multiplies by the cofactor 8.
    pub fn mul_by_cofactor(&self) -> EdwardsPoint {
        self.mul_by_pow_2(3)
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

    /// Compresses to the 32-byte RFC 8032 encoding: one field inversion,
    /// none when Z's limbs are exactly one (the Z = 1 rule in the module
    /// docs).
    pub fn compress(&self) -> CompressedPoint {
        if self.z.0 == FieldElement::ONE.0 {
            return encode_affine(&self.x, &self.y);
        }
        let z_inv = self.z.invert();
        Self::compress_with(self, &z_inv)
    }

    fn compress_with(p: &EdwardsPoint, z_inv: &FieldElement) -> CompressedPoint {
        encode_affine(&(p.x * *z_inv), &(p.y * *z_inv))
    }

    /// Compresses many points with a single shared field inversion
    /// (Montgomery's trick), producing exactly the same encodings as
    /// [`EdwardsPoint::compress`] point by point. Statement hashing over
    /// large ciphertext vectors is inversion-bound without this.
    pub fn batch_compress(points: &[EdwardsPoint]) -> Vec<CompressedPoint> {
        points
            .iter()
            .zip(z_inverses(points))
            .map(|(p, z_inv)| Self::compress_with(p, &z_inv))
            .collect()
    }

    /// Rewrites every point to Z = 1 (the same group elements) with a
    /// single shared field inversion, so that each later
    /// [`EdwardsPoint::compress`] of them costs none.
    pub fn batch_normalize(points: &mut [EdwardsPoint]) {
        let inverses = z_inverses(points);
        for (p, z_inv) in points.iter_mut().zip(inverses) {
            // T = XY/Z, so T/Z = (X/Z)(Y/Z).
            p.x *= z_inv;
            p.y *= z_inv;
            p.t *= z_inv;
            p.z = FieldElement::ONE;
        }
    }

    /// The odd multiples [P, 3P, 5P, …, 15P] a width-5 NAF looks up.
    fn odd_multiples(&self) -> [Cached; 8] {
        let p2 = self.double().to_cached();
        let mut table = [self.to_cached(); 8];
        let mut odd = *self;
        for entry in &mut table[1..] {
            odd = odd.add_cached(&p2).to_extended();
            *entry = odd.to_cached();
        }
        table
    }

    /// Scalar multiplication along the width-5 NAF of `s`: ~253 doublings
    /// and on average 253/6 additions from an 8-entry table.
    fn mul_vartime(&self, s: &Scalar) -> EdwardsPoint {
        naf_chain(&[naf5(s)], &[self.odd_multiples()])
    }

    /// Fixed-base scalar multiplication `s·B` on a [`FixedBaseTable`] built
    /// at first use (64 mixed additions, no doubling).
    pub fn mul_base(s: &Scalar) -> EdwardsPoint {
        static TABLE: OnceLock<FixedBaseTable> = OnceLock::new();
        TABLE
            .get_or_init(|| FixedBaseTable::new(&EdwardsPoint::basepoint()))
            .mul(s)
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
        let rhs = zz.square() + EDWARDS_D * xx * yy;
        lhs == rhs && self.t * self.z == self.x * self.y
    }
}

/// The affine point (x, y) in the RFC 8032 encoding.
fn encode_affine(x: &FieldElement, y: &FieldElement) -> CompressedPoint {
    let mut bytes = y.to_bytes();
    bytes[31] |= (x.is_negative() as u8) << 7;
    CompressedPoint(bytes)
}

/// zᵢ⁻¹ for every point, in order, for the price of one field inversion
/// and three multiplications per point (Montgomery's trick); none for an
/// empty slice.
fn z_inverses(points: &[EdwardsPoint]) -> Vec<FieldElement> {
    if points.is_empty() {
        return Vec::new();
    }
    // out[i] = z_0·…·z_{i−1}, overwritten with zᵢ⁻¹ on the way back; one
    // inversion of the total product.
    let mut out = Vec::with_capacity(points.len());
    let mut acc = FieldElement::ONE;
    for p in points {
        out.push(acc);
        acc *= p.z;
    }
    let mut inv = acc.invert();
    for (slot, p) in out.iter_mut().zip(points).rev() {
        *slot *= inv;
        inv *= p.z;
    }
    out
}

impl CompressedPoint {
    /// The compressed identity encoding (y = 1, sign 0).
    pub fn identity() -> CompressedPoint {
        let mut bytes = [0u8; 32];
        bytes[0] = 1;
        CompressedPoint(bytes)
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
        let v = EDWARDS_D * yy + FieldElement::ONE;
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
        self.add_cached(&rhs.to_cached()).to_extended()
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
        self.sub_cached(&rhs.to_cached()).to_extended()
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

/// The width-5 non-adjacent form of `s`: Σ nafᵢ·2^i = s with every
/// non-zero digit odd, |nafᵢ| ≤ 15, and at least four zeros between two
/// non-zero digits (one addition per six bits on average).
fn naf5(s: &Scalar) -> [i8; 256] {
    const W: usize = 5;
    // One zero limb past the scalar, so a window may read across the top.
    let x = [s.0[0], s.0[1], s.0[2], s.0[3], 0];
    let mut naf = [0i8; 256];
    let mut pos = 0;
    let mut carry = 0u64;
    while pos < 256 {
        let (word, bit) = (pos / 64, pos % 64);
        let bits = if bit <= 64 - W {
            x[word] >> bit
        } else {
            (x[word] >> bit) | (x[word + 1] << (64 - bit))
        };
        let window = carry + (bits & ((1 << W) - 1));
        if window & 1 == 0 {
            // Even (carry included): this digit is zero, the carry stands.
            pos += 1;
            continue;
        }
        if window < 1 << (W - 1) {
            carry = 0;
            naf[pos] = window as i8;
        } else {
            carry = 1;
            naf[pos] = (window as i8).wrapping_sub(1 << W);
        }
        pos += W;
    }
    // Scalars are below ℓ < 2^253, so the recoding ends far below 2^256.
    debug_assert_eq!(carry, 0);
    naf
}

/// One doubling chain shared by every term: at bit i the accumulator is
/// doubled once and each term whose NAF digit there is non-zero adds (or
/// subtracts) its table entry.
fn naf_chain(nafs: &[[i8; 256]], tables: &[[Cached; 8]]) -> EdwardsPoint {
    let Some(top) = (0..256).rev().find(|&i| nafs.iter().any(|naf| naf[i] != 0)) else {
        return EdwardsPoint::IDENTITY;
    };
    let step = |acc: &Projective, i: usize| -> Completed {
        let mut t = acc.double();
        for (naf, table) in nafs.iter().zip(tables) {
            let d = naf[i];
            if d > 0 {
                t = t.to_extended().add_cached(&table[(d / 2) as usize]);
            } else if d < 0 {
                t = t.to_extended().sub_cached(&table[(-d / 2) as usize]);
            }
        }
        t
    };
    let mut acc = Projective::IDENTITY;
    for i in (1..=top).rev() {
        acc = step(&acc, i).to_projective();
    }
    step(&acc, 0).to_extended()
}

/// The 64 signed radix-16 digits of `s`: Σ dᵢ·16^i = s with dᵢ ∈ [−8, 8).
fn radix16_signed(s: &Scalar) -> [i8; 64] {
    let bytes = s.to_bytes();
    let mut digits = [0i8; 64];
    for (i, byte) in bytes.iter().enumerate() {
        digits[2 * i] = (byte & 0x0f) as i8;
        digits[2 * i + 1] = (byte >> 4) as i8;
    }
    for i in 0..63 {
        let carry = (digits[i] + 8) >> 4;
        digits[i] -= carry << 4;
        digits[i + 1] += carry;
    }
    // s < 2^253 leaves the top nibble at most 1, so d₆₃ ≤ 2 and no carry
    // leaves the top digit.
    digits
}

/// A precomputed table for multiplying one fixed point by many scalars.
///
/// Row i holds j·16^i·P for j = 1..=8 in affine-Niels form (all 512
/// entries normalised with a single field inversion), so a multiplication
/// is the scalar's 64 signed radix-16 digits looked up and summed — at most
/// 64 mixed additions and no doubling, about a quarter of a variable-base
/// multiplication. Building it costs about five variable-base
/// multiplications. 60 KiB, plain data: a loop over one point builds its
/// own with [`FixedBaseTable::new`], and a point the whole process
/// multiplies — the election key — comes from [`FixedBaseTable::shared`].
pub struct FixedBaseTable {
    rows: [[AffineNiels; 8]; 64],
}

/// [`FixedBaseTable::shared`]'s table: the last base it was asked for.
/// Every workload multiplies one election key at a time, so one slot is
/// enough; a new key replaces the old one.
static SHARED: Mutex<Option<(EdwardsPoint, Arc<FixedBaseTable>)>> = Mutex::new(None);

impl FixedBaseTable {
    /// Builds the table for `base`.
    pub fn new(base: &EdwardsPoint) -> FixedBaseTable {
        // multiples[8i + j − 1] = j·16^i·P.
        let mut multiples = Vec::with_capacity(64 * 8);
        let mut row_base = *base;
        for _ in 0..64 {
            let step = row_base.to_cached();
            let mut multiple = row_base;
            multiples.push(multiple);
            for _ in 1..8 {
                multiple = multiple.add_cached(&step).to_extended();
                multiples.push(multiple);
            }
            row_base = multiple.double(); // 16·16^i·P = 2·(8·16^i·P)
        }
        EdwardsPoint::batch_normalize(&mut multiples);
        let mut rows = [[AffineNiels::IDENTITY; 8]; 64];
        for (i, p) in multiples.iter().enumerate() {
            rows[i / 8][i % 8] = AffineNiels::from_normal(p);
        }
        FixedBaseTable { rows }
    }

    /// The process-wide table of `base`, built on first use: what
    /// [`EdwardsPoint::mul_base`]'s table is for B, for a point that is only
    /// known at run time. The process keeps the table of the last base
    /// asked for. A missing table is built outside the lock, so two threads
    /// that miss together may both build it.
    pub fn shared(base: &EdwardsPoint) -> Arc<FixedBaseTable> {
        if let Some((b, table)) = &*lock_recover(&SHARED) {
            if b == base {
                return Arc::clone(table);
            }
        }
        let built = Arc::new(FixedBaseTable::new(base));
        *lock_recover(&SHARED) = Some((*base, Arc::clone(&built)));
        built
    }

    /// `s·P` for the table's point.
    pub fn mul(&self, s: &Scalar) -> EdwardsPoint {
        let mut acc = EdwardsPoint::IDENTITY;
        for (row, d) in self.rows.iter().zip(radix16_signed(s)) {
            if d > 0 {
                acc = acc.add_niels(&row[d as usize - 1]).to_extended();
            } else if d < 0 {
                acc = acc.sub_niels(&row[(-d) as usize - 1]).to_extended();
            }
        }
        acc
    }
}

impl EdwardsPoint {
    /// `[s·P for s in scalars]` for this point P, the base powers shared.
    ///
    /// P's 64 powers 16ⁱ·P are computed once — 252 doublings, one shared
    /// inversion to put them in affine-Niels form — and each scalar is then
    /// its 64 signed radix-16 digits dᵢ summed into eight buckets
    /// (bucket |dᵢ| gets ±16ⁱ·P, one mixed addition) and the buckets folded
    /// by the running-sum trick: no doubling per scalar. The powers are
    /// 7.5 KiB of scratch. Measured against one NAF multiplication per
    /// scalar (`shared_base_sweep` in this module's tests; the two alternate
    /// call by call, so the ratio column is free of the host's speed drift)
    /// —
    ///
    /// | k | NAF µs/base | shared µs/base | shared ÷ NAF |
    /// |---|---|---|---|
    /// | 1 | 75.4 | 106.3 | 1.42 |
    /// | 2 | 115.4 | 104.7 | 0.89 |
    /// | 4 | 293.0 | 186.3 | 0.59 |
    /// | 8 | 369.9 | 167.5 | 0.46 |
    ///
    /// — it pays from two scalars on; one scalar alone is a plain `P * s`.
    pub fn mul_each(&self, scalars: &[Scalar]) -> Vec<EdwardsPoint> {
        let powers = self.radix16_powers();
        scalars
            .iter()
            .map(|s| sum_radix16_digits(&powers, s))
            .collect()
    }

    /// [16ⁱ·P for i in 0..64] in affine-Niels form.
    fn radix16_powers(&self) -> [AffineNiels; 64] {
        let mut powers = Vec::with_capacity(64);
        let mut power = *self;
        powers.push(power);
        for _ in 1..64 {
            power = power.mul_by_pow_2(4);
            powers.push(power);
        }
        EdwardsPoint::batch_normalize(&mut powers);
        let mut niels = [AffineNiels::IDENTITY; 64];
        for (slot, p) in niels.iter_mut().zip(&powers) {
            *slot = AffineNiels::from_normal(p);
        }
        niels
    }
}

/// Σ dᵢ·16ⁱ·P over the signed radix-16 digits of `s`, for `powers` from
/// [`EdwardsPoint::radix16_powers`]: bucket j − 1 collects the powers whose
/// digit is ±j, and Σ j·bucket is folded from the top by a running sum.
fn sum_radix16_digits(powers: &[AffineNiels; 64], s: &Scalar) -> EdwardsPoint {
    let mut buckets = [EdwardsPoint::IDENTITY; 8];
    for (power, d) in powers.iter().zip(radix16_signed(s)) {
        if d > 0 {
            let bucket = &mut buckets[d as usize - 1];
            *bucket = bucket.add_niels(power).to_extended();
        } else if d < 0 {
            let bucket = &mut buckets[(-d) as usize - 1];
            *bucket = bucket.sub_niels(power).to_extended();
        }
    }
    let mut running = EdwardsPoint::IDENTITY;
    let mut sum = EdwardsPoint::IDENTITY;
    for bucket in buckets.iter().rev() {
        running += *bucket;
        sum += running;
    }
    sum
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

/// Below this many terms [`multiscalar_mul`] runs Straus, from it on
/// Pippenger. A constant, not a knob: it sits where the measured sweep
/// (`crossover_sweep` in this module's tests; the two alternate call by
/// call, so the ratio column is free of the host's speed drift, the
/// wall-clock µs columns are not) puts the break-even —
///
/// | n | Straus µs/term | Pippenger µs/term (c) | Pippenger ÷ Straus |
/// |---|---|---|---|
/// | 4 | 15.99 | 48.23 (4) | 2.95 |
/// | 8 | 13.11 | 32.52 (4) | 2.39 |
/// | 16 | 11.31 | 20.82 (4) | 1.87 |
/// | 32 | 10.02 | 16.24 (5) | 1.58 |
/// | 64 | 10.35 | 12.90 (5) | 1.29 |
/// | 128 | 10.21 | 10.74 (6) | 1.04 |
/// | 160 | 10.20 | 9.77 (6) | 0.97 |
/// | 192 | 9.93 | 9.27 (6) | 0.96 |
/// | 256 | 10.55 | 8.91 (7) | 0.85 |
/// | 512 | 9.96 | 7.54 (8) | 0.72 |
///
/// — between 128 and 160. It also bounds Straus' scratch to ~220 KiB.
const STRAUS_BELOW: usize = 150;

/// Variable-time multi-scalar multiplication Σ sᵢ·Pᵢ.
///
/// Uses Straus' shared doubling chain below 150 terms (`STRAUS_BELOW`, a
/// measured constant) and Pippenger's bucket method from there on; both
/// are cross-checked against a bit-by-bit double-and-add oracle by tests.
///
/// # Panics
///
/// Panics if `scalars` and `points` have different lengths.
pub fn multiscalar_mul(scalars: &[Scalar], points: &[EdwardsPoint]) -> EdwardsPoint {
    assert_eq!(scalars.len(), points.len(), "multiscalar length mismatch");
    if scalars.len() < STRAUS_BELOW {
        straus(scalars, points)
    } else {
        pippenger(scalars, points)
    }
}

/// Straus' interleaved method on width-5 NAFs: one 8-entry odd-multiples
/// table per point and a single chain of doublings shared by all terms, so
/// every term costs its table and ~42 additions. Scratch is 1.5 KiB per
/// term, bounded by [`STRAUS_BELOW`].
fn straus(scalars: &[Scalar], points: &[EdwardsPoint]) -> EdwardsPoint {
    let nafs: Vec<[i8; 256]> = scalars.iter().map(naf5).collect();
    let tables: Vec<[Cached; 8]> = points.iter().map(EdwardsPoint::odd_multiples).collect();
    naf_chain(&nafs, &tables)
}

/// Parallel variable-time multi-scalar multiplication Σ sᵢ·Pᵢ.
///
/// From 4 096 terms on, splits the terms into one contiguous chunk per
/// participant — this thread and up to `threads − 1` workers, as many as
/// the core budget ([`crate::par`]) has free slots — runs
/// [`multiscalar_mul`] on each and sums the partial results. Below that,
/// or with no slot free, it is one [`multiscalar_mul`] over all terms: a
/// split run on one thread costs more than the whole.
///
/// # Panics
///
/// Panics if `scalars` and `points` have different lengths.
pub fn multiscalar_mul_par(
    scalars: &[Scalar],
    points: &[EdwardsPoint],
    threads: usize,
) -> EdwardsPoint {
    msm_split(
        crate::par::Budget::global(),
        scalars,
        points,
        threads,
        multiscalar_mul,
    )
}

/// [`multiscalar_mul_par`] against `budget`, with `msm` for each chunk.
fn msm_split(
    budget: &crate::par::Budget,
    scalars: &[Scalar],
    points: &[EdwardsPoint],
    threads: usize,
    msm: impl Fn(&[Scalar], &[EdwardsPoint]) -> EdwardsPoint + Sync,
) -> EdwardsPoint {
    assert_eq!(scalars.len(), points.len(), "multiscalar length mismatch");
    let n = scalars.len();
    if n < 4096 {
        return msm(scalars, points);
    }
    crate::par::par_ranges_in(budget, n, threads, |r| msm(&scalars[r.clone()], &points[r]))
        .into_iter()
        .sum()
}

/// Number of signed c-bit windows covering a scalar: one more than the
/// bits strictly need, so the top digit (< 2^(c−1) before its carry-in)
/// never carries out.
fn pippenger_windows(c: usize) -> usize {
    253 / c + 1
}

/// Pippenger window size for `n` terms, chosen by minimizing the cost
/// model `windows·(3n + 2·2^c)` over c ∈ [4, 16]. Per window every term is
/// one cached-form bucket addition (8M), and each of the 2^(c−1)
/// signed-digit buckets costs two full additions to fold less the one its
/// first point saved by being copied in (≈ 11M) — two thirds of an addition
/// per unit of 2^c. Re-fitted to the signed-digit buckets against the
/// sweep under [`STRAUS_BELOW`]: the model's c was the measured best (or
/// within 1 % of it) at every n there.
fn pippenger_window(n: usize) -> usize {
    (4usize..=16)
        .min_by_key(|&c| pippenger_windows(c) * (3 * n + (2usize << c)))
        .expect("non-empty window range")
}

/// Pippenger bucket multi-scalar multiplication on signed c-bit digits.
///
/// A digit d ∈ [−2^(c−1), 2^(c−1)] sends its point to bucket |d| with the
/// digit's sign, which halves the buckets (and the work of folding them)
/// against unsigned digits. Scratch is allocated once per call: the bucket
/// vector, one carry byte per term, and the 2dT of every point — the one
/// part of its cached form that costs a multiplication, paid once here
/// instead of once per window (40 bytes per term against 160 for the whole
/// form).
fn pippenger(scalars: &[Scalar], points: &[EdwardsPoint]) -> EdwardsPoint {
    let c = pippenger_window(scalars.len());
    let half = 1usize << (c - 1);
    let mask = (1u64 << c) - 1;

    // The w-th unsigned c-bit digit, read off the canonical limbs.
    let digit = |s: &Scalar, w: usize| -> usize {
        let (word, bit) = (w * c / 64, w * c % 64);
        if word >= 4 {
            return 0;
        }
        let mut d = s.0[word] >> bit;
        if bit + c > 64 && word + 1 < 4 {
            d |= s.0[word + 1] << (64 - bit);
        }
        (d & mask) as usize
    };

    let t2ds: Vec<FieldElement> = points.iter().map(|p| p.t * EDWARDS_D2).collect();
    let mut carries = vec![0u8; scalars.len()];
    let mut buckets: Vec<Option<EdwardsPoint>> = vec![None; half];
    let mut sums = Vec::with_capacity(pippenger_windows(c));
    for w in 0..pippenger_windows(c) {
        buckets.fill(None);
        for (((s, p), t2d), carry) in scalars.iter().zip(points).zip(&t2ds).zip(&mut carries) {
            // Recode to signed: a digit above 2^(c−1) borrows 2^c from the
            // next window (and 2^c itself becomes 0 with the borrow).
            let d = digit(s, w) + *carry as usize;
            *carry = (d > half) as u8;
            if d == 0 || d == 1 << c {
                continue;
            }
            let negative = d > half;
            let bucket = &mut buckets[if negative { (1 << c) - d } else { d } - 1];
            *bucket = Some(match *bucket {
                // The first point of a bucket is a copy, not an addition.
                None if negative => -*p,
                None => *p,
                Some(sum) => {
                    let addend = Cached {
                        y_plus_x: p.y.add_lazy(&p.x),
                        y_minus_x: p.y - p.x,
                        z: p.z,
                        t2d: *t2d,
                    };
                    if negative {
                        sum.sub_cached(&addend).to_extended()
                    } else {
                        sum.add_cached(&addend).to_extended()
                    }
                }
            });
        }
        // Running-sum trick: Σ d·bucket[d] in at most 2·2^(c−1) additions.
        let mut running = EdwardsPoint::IDENTITY;
        let mut sum = EdwardsPoint::IDENTITY;
        for bucket in buckets.iter().rev() {
            if let Some(bucket) = bucket {
                running += *bucket;
            }
            sum += running;
        }
        sums.push(sum);
    }
    debug_assert!(carries.iter().all(|&carry| carry == 0));
    // Combine windows from the top: acc = acc·2^c + window.
    sums.iter().rev().fold(EdwardsPoint::IDENTITY, |acc, sum| {
        acc.mul_by_pow_2(c) + *sum
    })
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
        // Exercise the Straus and the Pippenger path, across window
        // boundaries, against one-by-one accumulation.
        use crate::drbg::Rng;
        let mut rng = crate::HmacDrbg::from_u64(99);
        for n in [0usize, 1, 2, 9, 33, STRAUS_BELOW - 1, STRAUS_BELOW, 200] {
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

/// The curve kernel against an oracle that shares none of its code.
///
/// The oracle is bit-by-bit double-and-add over the textbook unified
/// addition written on reduced public field operations (with d re-derived
/// from −121665/121666): no coordinate forms, no lazy additions, no digit
/// recoding, no tables. Every scalar-multiplication entry point must agree
/// with it on random inputs and on the edges the recodings add — carries
/// out of the top digit, repeated and identity points, both sides of the
/// Straus↔Pippenger crossover, and points with a torsion component (which
/// the cofactored folds of `crate::batch` feed through the MSM).
#[cfg(test)]
mod kernel_oracle {
    use super::*;
    use crate::scalar::L;
    use proptest::prelude::*;

    /// 1024 cases at optimized speed (CI's `release-test`), a sample in debug.
    const CASES: u32 = if cfg!(debug_assertions) { 32 } else { 1024 };

    /// "add-2008-hwcd-3", complete for a = −1.
    fn oracle_add(p: &EdwardsPoint, q: &EdwardsPoint) -> EdwardsPoint {
        static D: OnceLock<FieldElement> = OnceLock::new();
        let d = *D.get_or_init(|| {
            -FieldElement::from_u64(121665) * FieldElement::from_u64(121666).invert()
        });
        let a = (p.y - p.x) * (q.y - q.x);
        let b = (p.y + p.x) * (q.y + q.x);
        let c = p.t * (d + d) * q.t;
        let zz = p.z * q.z;
        let (e, f, g, h) = (b - a, zz + zz - c, zz + zz + c, b + a);
        EdwardsPoint {
            x: e * f,
            y: g * h,
            z: f * g,
            t: e * h,
        }
    }

    /// k·P for the 256-bit integer `k` (not reduced: ℓ itself is a valid `k`).
    fn oracle_mul(p: &EdwardsPoint, k: &[u64; 4]) -> EdwardsPoint {
        let mut acc = EdwardsPoint::IDENTITY;
        for i in (0..256).rev() {
            acc = oracle_add(&acc, &acc);
            if crate::bigint::bit(k, i) {
                acc = oracle_add(&acc, p);
            }
        }
        acc
    }

    fn oracle_msm(scalars: &[Scalar], points: &[EdwardsPoint]) -> EdwardsPoint {
        scalars
            .iter()
            .zip(points)
            .fold(EdwardsPoint::IDENTITY, |acc, (s, p)| {
                oracle_add(&acc, &oracle_mul(p, &s.0))
            })
    }

    /// A generator of the 8-torsion: ℓ·Q for the first small y whose point Q
    /// has full 8ℓ order.
    fn t8() -> EdwardsPoint {
        (2u64..)
            .filter_map(|y| CompressedPoint(FieldElement::from_u64(y).to_bytes()).decompress())
            .map(|q| oracle_mul(&q, &L))
            .find(|t| !oracle_mul(t, &[4, 0, 0, 0]).is_identity())
            .expect("an order-8 point exists")
    }

    /// The scalars at which a digit recoding can go wrong.
    fn edge_scalars() -> &'static [Scalar] {
        static EDGES: OnceLock<Vec<Scalar>> = OnceLock::new();
        EDGES.get_or_init(build_edge_scalars)
    }

    fn build_edge_scalars() -> Vec<Scalar> {
        let limbs = |top: u64, fill: u64| Scalar([fill, fill, fill, top]);
        let two_252 = Scalar([0, 0, 0, 1 << 60]);
        let mut l_minus_1 = L;
        l_minus_1[0] -= 1;
        vec![
            Scalar::ZERO,
            Scalar::ONE,
            Scalar::from_u64(8),
            Scalar::from_u64(15),
            Scalar::from_u64(16),
            Scalar::from_u64(u64::MAX),
            Scalar(l_minus_1),
            Scalar(l_minus_1) - Scalar::ONE,
            two_252,
            two_252 + Scalar::ONE,
            // 2^252 − 1: every nibble 15, every c-bit window all-ones — the
            // carry runs the whole length and out of the top digit.
            two_252 - Scalar::ONE,
            limbs(0x0888_8888_8888_8888, 0x8888_8888_8888_8888),
            limbs(0x0777_7777_7777_7777, 0x7777_7777_7777_7777),
            limbs(0x0f0f_0f0f_0f0f_0f0f, 0x0f0f_0f0f_0f0f_0f0f),
            limbs(0x0fff_ffff_ffff_ffff, 0),
            limbs(0, u64::MAX),
        ]
    }

    /// Identity, ±B, the torsion subgroup's generators, and B + T₈.
    fn edge_points() -> &'static [EdwardsPoint] {
        static EDGES: OnceLock<Vec<EdwardsPoint>> = OnceLock::new();
        EDGES.get_or_init(|| {
            let b = EdwardsPoint::basepoint();
            let t8 = t8();
            let t4 = oracle_add(&t8, &t8);
            let t2 = oracle_add(&t4, &t4);
            vec![
                EdwardsPoint::IDENTITY,
                b,
                -b,
                t2,
                t4,
                t8,
                oracle_add(&b, &t8),
            ]
        })
    }

    fn pick_scalar(draw: &[u8; 32]) -> Scalar {
        let edges = edge_scalars();
        match draw[31] >> 6 {
            0 => edges[draw[0] as usize % edges.len()],
            _ => Scalar::from_bytes_mod_order(draw),
        }
    }

    fn pick_point(draw: &[u8; 32]) -> EdwardsPoint {
        let edges = edge_points();
        let random = || oracle_mul(&edges[1], &Scalar::from_bytes_mod_order(draw).0);
        match draw[30] >> 6 {
            0 => edges[draw[1] as usize % edges.len()],
            1 => oracle_add(&random(), &edges[5]), // a torsion component
            _ => random(),
        }
    }

    fn draw() -> impl Strategy<Value = [u8; 32]> {
        proptest::array::uniform32(any::<u8>())
    }

    /// Term counts around the window boundaries and both sides of the
    /// Straus↔Pippenger crossover.
    const SIZES: [usize; 10] = [
        0,
        1,
        2,
        3,
        9,
        STRAUS_BELOW - 1,
        STRAUS_BELOW,
        STRAUS_BELOW + 1,
        STRAUS_BELOW + 40,
        2 * STRAUS_BELOW,
    ];

    fn terms(draws: &[[u8; 32]], n: usize) -> (Vec<Scalar>, Vec<EdwardsPoint>) {
        let scalars = draws[..n].iter().map(pick_scalar).collect();
        // A few distinct points, heavily repeated: oracle cost stays flat and
        // buckets/tables see duplicates and inverses.
        let pool: Vec<EdwardsPoint> = draws[..n.min(6)].iter().map(pick_point).collect();
        let points = draws[..n]
            .iter()
            .map(|d| pool[d[2] as usize % pool.len()])
            .collect();
        (scalars, points)
    }

    #[test]
    fn every_edge_scalar_times_every_edge_point() {
        for &p in edge_points() {
            let table = FixedBaseTable::new(&p);
            for &s in edge_scalars() {
                let expect = oracle_mul(&p, &s.0);
                assert_eq!(p * s, expect, "mul_vartime {s:?}");
                assert_eq!(table.mul(&s), expect, "FixedBaseTable {s:?}");
                assert_eq!(straus(&[s], &[p]), expect, "straus {s:?}");
                assert_eq!(pippenger(&[s], &[p]), expect, "pippenger {s:?}");
                assert!((p * s).is_on_curve());
            }
        }
        let b = EdwardsPoint::basepoint();
        for &s in edge_scalars() {
            assert_eq!(EdwardsPoint::mul_base(&s), oracle_mul(&b, &s.0));
        }
    }

    #[test]
    fn edge_scalars_fill_an_msm_on_both_sides_of_the_crossover() {
        // Every term an edge: all-ones scalars carry in every Pippenger window
        // at once, and torsion points meet their own inverses in the buckets.
        let (scalars, points) = (edge_scalars(), edge_points());
        for n in [STRAUS_BELOW - 1, STRAUS_BELOW, 3 * STRAUS_BELOW] {
            let s: Vec<Scalar> = scalars.iter().cycle().take(n).copied().collect();
            let p: Vec<EdwardsPoint> = points.iter().cycle().take(n).copied().collect();
            let expect = oracle_msm(&s, &p);
            assert_eq!(multiscalar_mul(&s, &p), expect, "n={n}");
            assert_eq!(straus(&s, &p), expect, "straus n={n}");
            assert_eq!(pippenger(&s, &p), expect, "pippenger n={n}");
        }
    }

    /// The smallest input `multiscalar_mul_par` splits, as scalars and
    /// points cycling through the edge cases.
    fn split_input() -> (Vec<Scalar>, Vec<EdwardsPoint>) {
        let n = 4096 + 3;
        let (scalars, points) = (edge_scalars(), edge_points());
        let s = (0..n)
            .map(|i| scalars[i % scalars.len()] * Scalar::from_u64(i as u64 | 1))
            .collect();
        (s, points.iter().cycle().take(n).copied().collect())
    }

    #[test]
    fn parallel_split_matches_the_oracle() {
        // The smallest input `multiscalar_mul_par` splits, split three
        // ways on a budget of its own, which has the two slots free.
        let ((s, p), points) = (split_input(), edge_points());
        // Per distinct point, the oracle multiplies once by the integer sum of
        // its scalars (not reduced mod ℓ: torsion points have order up to 8ℓ).
        let mut expect = EdwardsPoint::IDENTITY;
        for (j, point) in points.iter().enumerate() {
            let mut sum = [0u64; 5];
            for s in s.iter().skip(j).step_by(points.len()) {
                crate::bigint::add_assign(&mut sum, &[s.0[0], s.0[1], s.0[2], s.0[3], 0]);
            }
            let high = oracle_mul(
                &oracle_mul(point, &[0, 0, 0, 1 << 63]),
                &[2 * sum[4], 0, 0, 0],
            );
            let low = oracle_mul(point, &[sum[0], sum[1], sum[2], sum[3]]);
            expect = oracle_add(&expect, &oracle_add(&high, &low));
        }
        let budget = crate::par::Budget::new(2);
        let chunks = std::sync::atomic::AtomicUsize::new(0);
        let split = msm_split(&budget, &s, &p, 3, |s, p| {
            chunks.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            multiscalar_mul(s, p)
        });
        assert_eq!(split, expect);
        assert_eq!(chunks.into_inner(), 3, "three chunks");
        assert_eq!(multiscalar_mul_par(&s, &p, 3), expect);
        assert_eq!(multiscalar_mul_par(&s, &p, 1), expect);
        assert_eq!(multiscalar_mul(&s, &p), expect);
    }

    #[test]
    fn parallel_split_runs_on_two_threads_when_a_slot_is_free() {
        // With a free slot the two halves run on two threads; with none
        // the terms stay one multiplication on the calling thread.
        let (s, p) = split_input();
        let whole = multiscalar_mul(&s, &p);
        for (slots, threads) in [(1, 2), (0, 2), (1, 1)] {
            let budget = crate::par::Budget::new(slots);
            let ran = std::sync::Mutex::new(Vec::new());
            let sum = msm_split(&budget, &s, &p, threads, |s, p| {
                crate::sync::lock_recover(&ran).push((std::thread::current().id(), s.len()));
                multiscalar_mul(s, p)
            });
            let ran = ran
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            assert_eq!(sum, whole, "{slots} slots");
            let mut ids: Vec<_> = ran.iter().map(|(id, _)| *id).collect();
            ids.dedup();
            let terms: usize = ran.iter().map(|(_, len)| len).sum();
            assert_eq!(terms, s.len(), "{slots} slots");
            let expect = if slots == 1 && threads == 2 { 2 } else { 1 };
            assert_eq!((ran.len(), ids.len()), (expect, expect), "{slots} slots");
            assert_eq!(budget.free(), slots, "the slot is back");
        }
    }

    #[test]
    fn naf5_is_sparse_odd_and_exact() {
        for &s in edge_scalars() {
            let naf = naf5(&s);
            let mut value = Scalar::ZERO;
            let mut last_nonzero = None;
            for i in (0..256).rev() {
                value = value + value;
                let d = naf[i];
                if d != 0 {
                    assert!(d % 2 != 0 && (-15..=15).contains(&d), "digit {d} at {i}");
                    if let Some(j) = last_nonzero {
                        assert!(j - i >= 5, "digits at {i} and {j} too close");
                    }
                    last_nonzero = Some(i);
                    let magnitude = Scalar::from_u64(d.unsigned_abs() as u64);
                    value = if d > 0 {
                        value + magnitude
                    } else {
                        value - magnitude
                    };
                }
            }
            // Mod ℓ is exact here: both sides are integers below 2^254.
            assert_eq!(value, s);
            assert!(naf[254..].iter().all(|&d| d == 0));
        }
    }

    #[test]
    fn radix16_digits_are_signed_and_exact() {
        for &s in edge_scalars() {
            let digits = radix16_signed(&s);
            let mut value = Scalar::ZERO;
            for (i, &d) in digits.iter().enumerate().rev() {
                assert!(
                    (-8..=8).contains(&d) && (i == 63 || d < 8),
                    "digit {d} at {i}"
                );
                value *= Scalar::from_u64(16);
                let magnitude = Scalar::from_u64(d.unsigned_abs() as u64);
                value = if d >= 0 {
                    value + magnitude
                } else {
                    value - magnitude
                };
            }
            assert_eq!(value, s);
        }
    }

    /// `shared(base).mul(s) == base·s`.
    fn check_shared(base: &EdwardsPoint, s: &Scalar) {
        assert_eq!(FixedBaseTable::shared(base).mul(s), *base * *s, "{s:?}");
    }

    #[test]
    fn shared_table_over_interleaved_bases() {
        use crate::drbg::Rng;
        // The identity, an 8-torsion point and random bases, visited in an
        // interleaved order, so a lookup after a switch replaces the table
        // and the next one for the same base finds it.
        let mut rng = crate::HmacDrbg::from_u64(41);
        let mut bases = vec![EdwardsPoint::IDENTITY, t8()];
        bases.extend((0..3).map(|_| EdwardsPoint::mul_base(&rng.scalar())));
        let n = bases.len();
        for step in [1, 3, 2] {
            for i in 0..n {
                let base = &bases[i * step % n];
                check_shared(base, &rng.scalar());
                for s in edge_scalars() {
                    check_shared(base, s);
                }
            }
        }
    }

    #[test]
    fn shared_table_from_par_map_workers() {
        use crate::drbg::Rng;
        let mut rng = crate::HmacDrbg::from_u64(42);
        let mut bases = vec![t8(), EdwardsPoint::IDENTITY];
        bases.extend((0..3).map(|_| EdwardsPoint::mul_base(&rng.scalar())));
        let jobs: Vec<(EdwardsPoint, Scalar)> = (0..96)
            .map(|i| (bases[i / 8 * 3 % bases.len()], rng.scalar()))
            .collect();
        let products =
            crate::par::par_map(&jobs, 4, |(base, s)| FixedBaseTable::shared(base).mul(s));
        for ((base, s), product) in jobs.iter().zip(products) {
            assert_eq!(product, *base * *s);
        }
    }

    #[test]
    fn fixed_base_table_fits_64_kib() {
        assert!(core::mem::size_of::<FixedBaseTable>() <= 64 * 1024);
    }

    #[test]
    fn compressed_identity_is_the_constant() {
        assert_eq!(
            CompressedPoint::identity(),
            EdwardsPoint::IDENTITY.compress()
        );
        assert_eq!(
            CompressedPoint::identity().decompress(),
            Some(EdwardsPoint::IDENTITY)
        );
    }

    #[test]
    fn forms_agree_with_the_textbook_formulas() {
        for &p in edge_points() {
            assert_eq!(p.double(), oracle_add(&p, &p));
            assert_eq!(p.mul_by_cofactor(), oracle_mul(&p, &[8, 0, 0, 0]));
            assert_eq!(p.mul_by_pow_2(1), oracle_add(&p, &p));
            for &q in edge_points() {
                assert_eq!(p + q, oracle_add(&p, &q));
                assert_eq!(p - q, oracle_add(&p, &-q));
                assert!((p + q).is_on_curve() && (p - q).is_on_curve());
            }
        }
    }

    /// The measurement behind [`STRAUS_BELOW`] and [`pippenger_window`]:
    /// `cargo test --release -p vg-crypto crossover_sweep -- --ignored
    /// --nocapture`. The two algorithms alternate call by call, so the host's
    /// speed drift cancels in the ratio column (the µs columns keep it).
    #[test]
    #[ignore = "a measurement, not a check"]
    fn crossover_sweep() {
        use crate::drbg::Rng;
        use std::hint::black_box;
        use std::time::Instant;

        let mut rng = crate::HmacDrbg::from_u64(5);
        let points: Vec<EdwardsPoint> = (0..512)
            .map(|_| EdwardsPoint::mul_base(&rng.scalar()))
            .collect();
        let scalars: Vec<Scalar> = (0..512).map(|_| rng.scalar()).collect();
        let micros_per_term = |n: usize, f: &dyn Fn(&[Scalar], &[EdwardsPoint]) -> EdwardsPoint| {
            let calls = (512 / n).max(1);
            let start = Instant::now();
            for _ in 0..calls {
                black_box(f(&scalars[..n], &points[..n]));
            }
            start.elapsed().as_secs_f64() * 1e6 / (calls * n) as f64
        };
        let median = |v: &mut [f64]| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        println!("| n | Straus µs/term | Pippenger µs/term (c) | Pippenger ÷ Straus |");
        println!("|---|---|---|---|");
        for n in [4usize, 8, 16, 32, 64, 128, 160, 192, 256, 512] {
            let (mut st, mut pi, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..41 {
                let before = micros_per_term(n, &straus);
                let between = micros_per_term(n, &pippenger);
                let after = micros_per_term(n, &straus);
                st.push(before);
                pi.push(between);
                ratio.push(2.0 * between / (before + after));
            }
            println!(
                "| {n} | {:.2} | {:.2} ({}) | {:.2} |",
                median(&mut st),
                median(&mut pi),
                pippenger_window(n),
                median(&mut ratio)
            );
        }
    }

    /// The measurement behind [`EdwardsPoint::mul_each`]'s table:
    /// `cargo test --release -p vg-crypto --lib shared_base_sweep --
    /// --ignored --nocapture`. k scalars on one base, the shared powers
    /// against k NAF multiplications, alternating call by call as in
    /// `crossover_sweep`.
    #[test]
    #[ignore = "a measurement, not a check"]
    fn shared_base_sweep() {
        use crate::drbg::Rng;
        use std::hint::black_box;
        use std::time::Instant;

        let mut rng = crate::HmacDrbg::from_u64(6);
        let bases: Vec<EdwardsPoint> = (0..64)
            .map(|_| EdwardsPoint::mul_base(&rng.scalar()))
            .collect();
        let scalars: Vec<Scalar> = (0..8).map(|_| rng.scalar()).collect();
        let micros_per_base =
            |k: usize, f: &dyn Fn(&EdwardsPoint, &[Scalar]) -> Vec<EdwardsPoint>| {
                let start = Instant::now();
                for base in &bases {
                    black_box(f(base, &scalars[..k]));
                }
                start.elapsed().as_secs_f64() * 1e6 / bases.len() as f64
            };
        let naf = |p: &EdwardsPoint, s: &[Scalar]| -> Vec<EdwardsPoint> {
            s.iter().map(|s| *p * s).collect()
        };
        let median = |v: &mut [f64]| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        println!("| k | NAF µs/base | shared µs/base | shared ÷ NAF |");
        println!("|---|---|---|---|");
        for k in [1usize, 2, 4, 8] {
            let (mut nf, mut sh, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..41 {
                let before = micros_per_base(k, &naf);
                let between = micros_per_base(k, &EdwardsPoint::mul_each);
                let after = micros_per_base(k, &naf);
                nf.push(before);
                sh.push(between);
                ratio.push(2.0 * between / (before + after));
            }
            println!(
                "| {k} | {:.1} | {:.1} | {:.2} |",
                median(&mut nf),
                median(&mut sh),
                median(&mut ratio)
            );
        }
    }

    /// Bases in every form `mul_each` meets: the edge points (the identity,
    /// ±B, B + T₈), all eight torsion points, and a random point with a
    /// torsion component, as arithmetic leaves it (Z ≠ 1) and decoded
    /// (Z = 1).
    fn shared_bases(draw: &[u8; 32]) -> Vec<EdwardsPoint> {
        let arithmetic = oracle_add(&pick_point(draw), &edge_points()[5]).double();
        let decoded = oracle_compress(&arithmetic)
            .decompress()
            .expect("an encoding decodes");
        assert!(!is_z_one(&arithmetic) && is_z_one(&decoded));
        let mut bases = edge_points().to_vec();
        bases.extend_from_slice(torsion_points());
        bases.extend([arithmetic, decoded]);
        bases
    }

    /// `p.mul_each(scalars)` against the oracle, scalar by scalar.
    fn check_mul_each(p: &EdwardsPoint, scalars: &[Scalar]) {
        let products = p.mul_each(scalars);
        assert_eq!(products.len(), scalars.len());
        for (s, product) in scalars.iter().zip(&products) {
            assert_eq!(*product, oracle_mul(p, &s.0), "{p:?} · {s:?}");
            assert!(product.is_on_curve(), "{p:?} · {s:?}");
        }
    }

    #[test]
    fn mul_each_edge_lists_on_every_base_form() {
        // Lists of 0–9 scalars cut from the edge scalars (0, 1, 8, 15, 16,
        // ℓ − 1, 2²⁵², and the all-fifteen nibbles whose recoding carries
        // into the top digit), and all of them at once.
        let edges = edge_scalars();
        for p in shared_bases(&[0x5a; 32]) {
            for n in 0..=9 {
                let start = 3 * n % edges.len();
                let list: Vec<Scalar> = edges.iter().cycle().skip(start).take(n).copied().collect();
                check_mul_each(&p, &list);
            }
            check_mul_each(&p, edges);
        }
    }

    /// The RFC 8032 encoding through an explicit inversion of Z, whatever
    /// Z is: what `compress` must give with or without its Z = 1 branch.
    fn oracle_compress(p: &EdwardsPoint) -> CompressedPoint {
        let z_inv = p.z.invert();
        let (x, y) = (p.x * z_inv, p.y * z_inv);
        let mut bytes = y.to_bytes();
        bytes[31] |= (x.to_bytes()[0] & 1) << 7;
        CompressedPoint(bytes)
    }

    /// All eight torsion points, k·T₈ for k = 0..8 (the identity first).
    fn torsion_points() -> &'static [EdwardsPoint] {
        static TORSION: OnceLock<Vec<EdwardsPoint>> = OnceLock::new();
        TORSION.get_or_init(|| {
            let t8 = edge_points()[5];
            std::iter::successors(Some(EdwardsPoint::IDENTITY), |p| Some(oracle_add(p, &t8)))
                .take(8)
                .collect()
        })
    }

    /// Points in every representation `compress` meets: the torsion
    /// subgroup, then per draw a random point, its decoding (Z = 1), and
    /// the outputs of fixed-base, variable-base and table multiplication,
    /// addition, subtraction, doubling and negation.
    fn representations(draws: &[[u8; 32]]) -> Vec<EdwardsPoint> {
        let b = EdwardsPoint::basepoint();
        let mut points = torsion_points().to_vec();
        for d in draws {
            let (s, p) = (pick_scalar(d), pick_point(d));
            let decoded = oracle_compress(&p)
                .decompress()
                .expect("an encoding decodes");
            points.extend([
                p,
                decoded,
                EdwardsPoint::mul_base(&s),
                p * s,
                FixedBaseTable::new(&decoded).mul(&s),
                p + b,
                decoded - b.double(),
                p.double(),
                -(decoded + p),
            ]);
        }
        points
    }

    fn is_z_one(p: &EdwardsPoint) -> bool {
        p.z.0 == FieldElement::ONE.0
    }

    #[test]
    fn empty_batches_are_empty() {
        let mut none: [EdwardsPoint; 0] = [];
        EdwardsPoint::batch_normalize(&mut none);
        assert!(EdwardsPoint::batch_compress(&none).is_empty());
        assert!(crate::schnorr::batch_sign(&[]).is_empty());
        assert!(crate::schnorr::SigningKey::batch_from_scalars(&[]).is_empty());
    }

    #[test]
    fn decoded_and_constant_points_are_already_normal() {
        // The Z = 1 branch covers everything read off the wire.
        assert!(is_z_one(&EdwardsPoint::IDENTITY));
        assert!(is_z_one(&EdwardsPoint::basepoint()));
        for p in representations(&[[7u8; 32], [0xc3; 32]]) {
            let decoded = p.compress().decompress().expect("decodes");
            assert!(is_z_one(&decoded));
            assert_eq!(decoded.compress(), oracle_compress(&p));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        #[test]
        fn normalised_points_compress_as_the_inversion_reference(
            draws in proptest::collection::vec(draw(), 1..5),
        ) {
            let points = representations(&draws);
            let expect: Vec<CompressedPoint> = points.iter().map(oracle_compress).collect();
            let single: Vec<CompressedPoint> = points.iter().map(|p| p.compress()).collect();
            prop_assert_eq!(&single, &expect);
            prop_assert_eq!(&EdwardsPoint::batch_compress(&points), &expect);

            let mut normal = points.clone();
            EdwardsPoint::batch_normalize(&mut normal);
            for (n, p) in normal.iter().zip(&points) {
                prop_assert!(is_z_one(n));
                prop_assert!(n.is_on_curve());
                prop_assert_eq!(n.t, n.x * n.y);
                prop_assert_eq!(n, p);
            }
            let single: Vec<CompressedPoint> = normal.iter().map(|p| p.compress()).collect();
            prop_assert_eq!(&single, &expect);
            prop_assert_eq!(&EdwardsPoint::batch_compress(&normal), &expect);

            // A batch of Z = 1 and raw points, as a station's messages mix them.
            let mixed: Vec<EdwardsPoint> = normal
                .iter()
                .zip(&points)
                .enumerate()
                .map(|(i, (n, p))| if i % 2 == 0 { *n } else { *p })
                .collect();
            prop_assert_eq!(&EdwardsPoint::batch_compress(&mixed), &expect);
            let mut again = mixed;
            EdwardsPoint::batch_normalize(&mut again);
            let twice: Vec<CompressedPoint> = again.iter().map(|p| p.compress()).collect();
            prop_assert_eq!(&twice, &expect);
        }

        #[test]
        fn batch_signing_and_key_rebuild_match_one_by_one(
            draws in proptest::collection::vec(draw(), 1..9),
        ) {
            use crate::schnorr::{batch_sign, SigningKey};
            let secrets: Vec<Scalar> = draws.iter().map(pick_scalar).collect();
            let keys = SigningKey::batch_from_scalars(&secrets);
            prop_assert_eq!(keys.len(), secrets.len());
            for (key, sk) in keys.iter().zip(&secrets) {
                let one = SigningKey::from_scalar(*sk);
                prop_assert_eq!(key.secret(), *sk);
                prop_assert_eq!(key.public_key_compressed(), one.public_key_compressed());
                prop_assert_eq!(key.verifying_key(), one.verifying_key());
            }
            // Two messages per key's worth of draws over three texts: the
            // same (key, message) pair repeats, as does a message under
            // different keys.
            let texts: [&[u8]; 3] = [b"", b"envelope", b"trip-envelope-v1 challenge"];
            let items: Vec<(&SigningKey, &[u8])> = draws
                .iter()
                .flat_map(|d| [(d[3], d[4]), (d[3], d[5])])
                .map(|(k, m)| (&keys[k as usize % keys.len()], texts[m as usize % texts.len()]))
                .collect();
            let batch: Vec<[u8; 64]> = batch_sign(&items).iter().map(|s| s.to_bytes()).collect();
            let single: Vec<[u8; 64]> = items.iter().map(|(k, m)| k.sign(m).to_bytes()).collect();
            prop_assert_eq!(batch, single);
        }

        #[test]
        fn single_multiplications_match_the_oracle(s in draw(), p in draw()) {
            let (s, p) = (pick_scalar(&s), pick_point(&p));
            let expect = oracle_mul(&p, &s.0);
            prop_assert_eq!(p * s, expect);
            prop_assert_eq!(FixedBaseTable::new(&p).mul(&s), expect);
            prop_assert_eq!(
                EdwardsPoint::mul_base(&s),
                oracle_mul(&EdwardsPoint::basepoint(), &s.0)
            );
        }

        #[test]
        fn mul_each_matches_the_oracle(
            base in draw(),
            draws in proptest::collection::vec(draw(), 0..10),
        ) {
            let scalars: Vec<Scalar> = draws.iter().map(pick_scalar).collect();
            let p = pick_point(&base);
            check_mul_each(&p, &scalars);
            let decoded = oracle_compress(&p).decompress().expect("an encoding decodes");
            check_mul_each(&decoded, &scalars);
        }

        #[test]
        fn multiscalar_paths_match_the_oracle(
            draws in proptest::collection::vec(draw(), 2 * STRAUS_BELOW),
            size in any::<u8>(),
        ) {
            let n = SIZES[size as usize % SIZES.len()];
            let (scalars, points) = terms(&draws, n);
            let expect = oracle_msm(&scalars, &points);
            prop_assert_eq!(multiscalar_mul(&scalars, &points), expect, "n={}", n);
            prop_assert_eq!(multiscalar_mul_par(&scalars, &points, 4), expect, "n={} par", n);
            prop_assert_eq!(straus(&scalars, &points), expect, "n={} straus", n);
            if n > 0 {
                prop_assert_eq!(pippenger(&scalars, &points), expect, "n={} pippenger", n);
            }
        }
    }
}
