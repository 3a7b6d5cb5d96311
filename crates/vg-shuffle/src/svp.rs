//! Bayer–Groth single-value product argument (BG12 §5.3).
//!
//! Given a Pedersen vector commitment c_a = com(a; r) and a public value b,
//! the prover shows Π aᵢ = b in zero knowledge. The shuffle argument uses it
//! to show that the committed vector y·π(j) + x^π(j) − z has the same
//! product as the public vector y·i + x^i − z, which (by Schwartz–Zippel
//! over the random y, z) forces the committed exponents to be a permutation.
//!
//! The protocol commits to the running products bᵢ = a₁…aᵢ masked by a
//! random δ-vector pinned at both ends (δ₁ = d₁, δₙ = 0), and opens random
//! linear combinations; the verifier's second commitment equation checks the
//! telescoping relation x·b̃ᵢ₊₁ − b̃ᵢ·ãᵢ₊₁, whose x² coefficient is exactly
//! bᵢ₊₁ − bᵢ·aᵢ₊₁ = 0.

use vg_crypto::drbg::Rng;
use vg_crypto::edwards::EdwardsPoint;
use vg_crypto::pedersen::CommitKey;
use vg_crypto::scalar::Scalar;
use vg_crypto::transcript::Transcript;
use vg_crypto::CryptoError;

/// A single-value product argument.
#[derive(Clone, Debug)]
pub struct SvpProof {
    /// Commitment to the d-mask.
    pub c_d: EdwardsPoint,
    /// Commitment to −δᵢ·dᵢ₊₁ (the x⁰ coefficients).
    pub c_delta: EdwardsPoint,
    /// Commitment to δᵢ₊₁ − aᵢ₊₁·δᵢ − bᵢ·dᵢ₊₁ (the x¹ coefficients).
    pub c_big_delta: EdwardsPoint,
    /// Openings ãᵢ = x·aᵢ + dᵢ.
    pub a_tilde: Vec<Scalar>,
    /// Openings b̃ᵢ = x·bᵢ + δᵢ.
    pub b_tilde: Vec<Scalar>,
    /// Blinding opening for c_a^x·c_d.
    pub r_tilde: Scalar,
    /// Blinding opening for c_Δ^x·c_δ.
    pub s_tilde: Scalar,
}

/// Absorbs the standalone statement `(c_a, b)` into the transcript.
fn absorb_statement(transcript: &mut Transcript, c_a: &EdwardsPoint, b: &Scalar) {
    transcript.append_point(b"svp-ca", c_a);
    transcript.append_scalar(b"svp-b", b);
}

/// Proves that the vector committed in `c_a` (opening `a`, blinding `r`)
/// has product `b`.
///
/// # Panics
///
/// Panics if `a` has fewer than two elements (the shuffle layer pads
/// degenerate sizes) or exceeds the commitment key.
pub fn prove_svp(
    transcript: &mut Transcript,
    ck: &CommitKey,
    c_a: &EdwardsPoint,
    b: &Scalar,
    a: &[Scalar],
    r: &Scalar,
    rng: &mut dyn Rng,
) -> SvpProof {
    absorb_statement(transcript, c_a, b);
    let masks = Masks::draw(a.len(), ck, rng);
    debug_assert_eq!(ck.commit(a, r), *c_a, "opening must match commitment");
    debug_assert_eq!(Scalar::product(a), *b, "claimed product must match");
    let bs = running_products(a);
    let commitments = [
        masks.commit_d(ck),
        masks.commit_delta(ck),
        masks.commit_big_delta(ck, a, &bs),
    ];
    masks.respond(transcript, commitments, a, &bs, r)
}

/// Running products bᵢ = a₁ … aᵢ (the last is the claimed product).
pub(crate) fn running_products(a: &[Scalar]) -> Vec<Scalar> {
    a.iter()
        .scan(Scalar::ONE, |acc, ai| {
            *acc *= *ai;
            Some(*acc)
        })
        .collect()
}

/// The prover's masks d, r_d, δ (δ₁ = d₁, δₙ = 0), s₁ and s_x, drawn in
/// that order before anything is computed from them. c_d and c_δ commit
/// to masks only, so the shuffle argument (whose transcript binds `c_a`
/// and the claimed product as functions of absorbed data) computes them
/// beside its own earlier steps.
pub(crate) struct Masks {
    d: Vec<Scalar>,
    r_d: Scalar,
    delta: Vec<Scalar>,
    s_1: Scalar,
    s_x: Scalar,
}

impl Masks {
    /// Draws the masks for an `n`-element argument; panics if `n` is below
    /// two or exceeds the commitment key.
    pub(crate) fn draw(n: usize, ck: &CommitKey, rng: &mut dyn Rng) -> Self {
        assert!(n >= 2, "product argument requires n >= 2");
        assert!(n <= ck.len(), "vector longer than commitment key");
        let d: Vec<Scalar> = (0..n).map(|_| rng.scalar()).collect();
        let r_d = rng.scalar();
        let mut delta: Vec<Scalar> = (0..n).map(|_| rng.scalar()).collect();
        delta[0] = d[0];
        delta[n - 1] = Scalar::ZERO;
        let s_1 = rng.scalar();
        let s_x = rng.scalar();
        Self {
            d,
            r_d,
            delta,
            s_1,
            s_x,
        }
    }

    /// c_d = com(d; r_d).
    pub(crate) fn commit_d(&self, ck: &CommitKey) -> EdwardsPoint {
        ck.commit(&self.d, &self.r_d)
    }

    /// c_δ, the commitment to the x⁰ coefficients −δᵢ·dᵢ₊₁ (length n−1).
    pub(crate) fn commit_delta(&self, ck: &CommitKey) -> EdwardsPoint {
        let lo: Vec<Scalar> = (0..self.d.len() - 1)
            .map(|i| -(self.delta[i] * self.d[i + 1]))
            .collect();
        ck.commit(&lo, &self.s_1)
    }

    /// c_Δ, the commitment to the x¹ coefficients δᵢ₊₁ − aᵢ₊₁·δᵢ − bᵢ·dᵢ₊₁
    /// for the opening `a` and its [`running_products`] `bs`.
    pub(crate) fn commit_big_delta(
        &self,
        ck: &CommitKey,
        a: &[Scalar],
        bs: &[Scalar],
    ) -> EdwardsPoint {
        let (d, delta) = (&self.d, &self.delta);
        let hi: Vec<Scalar> = (0..d.len() - 1)
            .map(|i| delta[i + 1] - a[i + 1] * delta[i] - bs[i] * d[i + 1])
            .collect();
        ck.commit(&hi, &self.s_x)
    }

    /// Absorbs the three commitments `[c_d, c_δ, c_Δ]`, derives the
    /// challenge x and opens ã = x·a + d, b̃ = x·bs + δ, r̃ = x·r + r_d and
    /// s̃ = x·s_x + s₁.
    pub(crate) fn respond(
        self,
        transcript: &mut Transcript,
        [c_d, c_delta, c_big_delta]: [EdwardsPoint; 3],
        a: &[Scalar],
        bs: &[Scalar],
        r: &Scalar,
    ) -> SvpProof {
        transcript.append_point(b"svp-cd", &c_d);
        transcript.append_point(b"svp-cdelta", &c_delta);
        transcript.append_point(b"svp-cbigdelta", &c_big_delta);
        let x = transcript.challenge_scalar(b"svp-x");
        let open = |v: &[Scalar], mask: &[Scalar]| -> Vec<Scalar> {
            v.iter().zip(mask).map(|(v, m)| x * *v + *m).collect()
        };
        SvpProof {
            c_d,
            c_delta,
            c_big_delta,
            a_tilde: open(a, &self.d),
            b_tilde: open(bs, &self.delta),
            r_tilde: x * *r + self.r_d,
            s_tilde: x * self.s_x + self.s_1,
        }
    }
}

/// Verifies a single-value product argument for commitment `c_a` and
/// claimed product `b`.
pub fn verify_svp(
    transcript: &mut Transcript,
    ck: &CommitKey,
    c_a: &EdwardsPoint,
    b: &Scalar,
    proof: &SvpProof,
) -> Result<(), CryptoError> {
    absorb_statement(transcript, c_a, b);
    verify_svp_core(transcript, ck, c_a, b, proof)
}

/// [`verify_svp`] without statement absorption, for the shuffle argument
/// (see [`Masks`]).
pub(crate) fn verify_svp_core(
    transcript: &mut Transcript,
    ck: &CommitKey,
    c_a: &EdwardsPoint,
    b: &Scalar,
    proof: &SvpProof,
) -> Result<(), CryptoError> {
    let n = proof.a_tilde.len();
    if n < 2 || proof.b_tilde.len() != n || n > ck.len() {
        return Err(CryptoError::Malformed("svp opening lengths"));
    }

    transcript.append_point(b"svp-cd", &proof.c_d);
    transcript.append_point(b"svp-cdelta", &proof.c_delta);
    transcript.append_point(b"svp-cbigdelta", &proof.c_big_delta);
    let x = transcript.challenge_scalar(b"svp-x");

    // (1) com(ã; r̃) == x·c_a + c_d, modulo the 8-torsion as every point
    // equation is (see `vg_crypto::batch`).
    if !(ck.commit(&proof.a_tilde, &proof.r_tilde) - *c_a * x - proof.c_d).is_small_order() {
        return Err(CryptoError::BadProof);
    }
    // (2) com({x·b̃ᵢ₊₁ − b̃ᵢ·ãᵢ₊₁}; s̃) == x·c_Δ + c_δ.
    let cross: Vec<Scalar> = (0..n - 1)
        .map(|i| x * proof.b_tilde[i + 1] - proof.b_tilde[i] * proof.a_tilde[i + 1])
        .collect();
    if !(ck.commit(&cross, &proof.s_tilde) - proof.c_big_delta * x - proof.c_delta).is_small_order()
    {
        return Err(CryptoError::BadProof);
    }
    // (3) boundary conditions.
    if proof.b_tilde[0] != proof.a_tilde[0] {
        return Err(CryptoError::BadProof);
    }
    if proof.b_tilde[n - 1] != x * *b {
        return Err(CryptoError::BadProof);
    }
    Ok(())
}

/// Batch-path replay: runs the structural and scalar-only checks of
/// [`verify_svp_core`] and advances the transcript to the challenge, but
/// leaves the two point equations to the caller (who folds them into a
/// batched multi-scalar check). Returns the challenge x.
pub(crate) fn replay_svp(
    transcript: &mut Transcript,
    ck: &CommitKey,
    b: &Scalar,
    proof: &SvpProof,
) -> Result<Scalar, CryptoError> {
    let n = proof.a_tilde.len();
    if n < 2 || proof.b_tilde.len() != n || n > ck.len() {
        return Err(CryptoError::Malformed("svp opening lengths"));
    }
    transcript.append_point(b"svp-cd", &proof.c_d);
    transcript.append_point(b"svp-cdelta", &proof.c_delta);
    transcript.append_point(b"svp-cbigdelta", &proof.c_big_delta);
    let x = transcript.challenge_scalar(b"svp-x");
    if proof.b_tilde[0] != proof.a_tilde[0] {
        return Err(CryptoError::BadProof);
    }
    if proof.b_tilde[n - 1] != x * *b {
        return Err(CryptoError::BadProof);
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::HmacDrbg;

    fn setup(n: usize, seed: u64) -> (CommitKey, Vec<Scalar>, Scalar, HmacDrbg) {
        let mut rng = HmacDrbg::from_u64(seed);
        let ck = CommitKey::new(b"svp-test", n);
        let a: Vec<Scalar> = (0..n).map(|_| rng.scalar()).collect();
        let r = rng.scalar();
        (ck, a, r, rng)
    }

    #[test]
    fn completeness() {
        for n in [2usize, 3, 5, 16] {
            let (ck, a, r, mut rng) = setup(n, n as u64);
            let c_a = ck.commit(&a, &r);
            let b = Scalar::product(&a);
            let proof = prove_svp(&mut Transcript::new(b"t"), &ck, &c_a, &b, &a, &r, &mut rng);
            verify_svp(&mut Transcript::new(b"t"), &ck, &c_a, &b, &proof)
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn wrong_product_rejected() {
        let (ck, a, r, mut rng) = setup(4, 42);
        let c_a = ck.commit(&a, &r);
        let b = Scalar::product(&a);
        let wrong = b + Scalar::ONE;
        // A proof honestly constructed for the wrong product claim fails
        // (the prover asserts internally in debug builds, so construct the
        // proof for the true product and verify against the wrong claim).
        let proof = prove_svp(&mut Transcript::new(b"t"), &ck, &c_a, &b, &a, &r, &mut rng);
        assert!(verify_svp(&mut Transcript::new(b"t"), &ck, &c_a, &wrong, &proof).is_err());
    }

    #[test]
    fn wrong_commitment_rejected() {
        let (ck, a, r, mut rng) = setup(4, 43);
        let c_a = ck.commit(&a, &r);
        let b = Scalar::product(&a);
        let proof = prove_svp(&mut Transcript::new(b"t"), &ck, &c_a, &b, &a, &r, &mut rng);
        let bad_c = c_a + EdwardsPoint::basepoint();
        assert!(verify_svp(&mut Transcript::new(b"t"), &ck, &bad_c, &b, &proof).is_err());
    }

    #[test]
    fn tampered_openings_rejected() {
        let (ck, a, r, mut rng) = setup(4, 44);
        let c_a = ck.commit(&a, &r);
        let b = Scalar::product(&a);
        let good = prove_svp(&mut Transcript::new(b"t"), &ck, &c_a, &b, &a, &r, &mut rng);
        let mut bad = good.clone();
        bad.a_tilde[2] += Scalar::ONE;
        assert!(verify_svp(&mut Transcript::new(b"t"), &ck, &c_a, &b, &bad).is_err());
        let mut bad = good.clone();
        bad.b_tilde[1] += Scalar::ONE;
        assert!(verify_svp(&mut Transcript::new(b"t"), &ck, &c_a, &b, &bad).is_err());
        let mut bad = good;
        bad.s_tilde += Scalar::ONE;
        assert!(verify_svp(&mut Transcript::new(b"t"), &ck, &c_a, &b, &bad).is_err());
    }

    #[test]
    fn domain_separation() {
        let (ck, a, r, mut rng) = setup(3, 45);
        let c_a = ck.commit(&a, &r);
        let b = Scalar::product(&a);
        let proof = prove_svp(
            &mut Transcript::new(b"ctx-1"),
            &ck,
            &c_a,
            &b,
            &a,
            &r,
            &mut rng,
        );
        assert!(verify_svp(&mut Transcript::new(b"ctx-2"), &ck, &c_a, &b, &proof).is_err());
    }

    #[test]
    fn zero_factor_product() {
        // A vector containing zero has product zero; the argument must
        // still be complete.
        let mut rng = HmacDrbg::from_u64(46);
        let ck = CommitKey::new(b"svp-test", 3);
        let a = vec![rng.scalar(), Scalar::ZERO, rng.scalar()];
        let r = rng.scalar();
        let c_a = ck.commit(&a, &r);
        let proof = prove_svp(
            &mut Transcript::new(b"t"),
            &ck,
            &c_a,
            &Scalar::ZERO,
            &a,
            &r,
            &mut rng,
        );
        verify_svp(&mut Transcript::new(b"t"), &ck, &c_a, &Scalar::ZERO, &proof).unwrap();
    }
}
