//! Multi-exponentiation argument (Bayer–Groth, single-row case).
//!
//! Statement: for ElGamal ciphertexts C′₁ … C′ₙ, a target ciphertext E, and
//! a Pedersen commitment c_b to an exponent vector b, the prover knows
//! (b, s, ρ) with c_b = com(b; s) and E = Enc_pk(0; ρ) + Σ bᵢ·C′ᵢ
//! (additive notation; Enc(0; ρ) is an encryption of the identity).
//!
//! With one row this reduces to a standard Σ-protocol for a linear
//! relation: commit to a masked exponent vector and the corresponding
//! masked ciphertext, then open a random linear combination.

use vg_crypto::drbg::Rng;
use vg_crypto::edwards::{multiscalar_mul, EdwardsPoint};
use vg_crypto::elgamal::Ciphertext;
use vg_crypto::pedersen::CommitKey;
use vg_crypto::scalar::Scalar;
use vg_crypto::transcript::Transcript;
use vg_crypto::CryptoError;

/// A multi-exponentiation argument.
#[derive(Clone, Debug)]
pub struct MultiExpProof {
    /// Commitment to the exponent mask d.
    pub c_d: EdwardsPoint,
    /// Masked ciphertext E_d = Enc(0; ρ_d) + Σ dᵢ·C′ᵢ.
    pub e_d: Ciphertext,
    /// Openings b̃ = x·b + d.
    pub b_tilde: Vec<Scalar>,
    /// Blinding opening s̃ = x·s + r_d.
    pub s_tilde: Scalar,
    /// Encryption-randomness opening ρ̃ = x·ρ + ρ_d.
    pub rho_tilde: Scalar,
}

/// Evaluates Enc_pk(0; ρ) + Σ bᵢ·Cᵢ with two multi-scalar multiplications.
pub fn linear_combination(
    pk: &EdwardsPoint,
    bases: &[Ciphertext],
    exponents: &[Scalar],
    rho: &Scalar,
) -> Ciphertext {
    assert_eq!(bases.len(), exponents.len(), "length mismatch");
    Ciphertext {
        c1: component(&EdwardsPoint::basepoint(), bases, |c| c.c1, exponents, rho),
        c2: component(pk, bases, |c| c.c2, exponents, rho),
    }
}

/// ρ·`base` + Σ bᵢ·`part`(Cᵢ): one of [`linear_combination`]'s two sums.
fn component(
    base: &EdwardsPoint,
    bases: &[Ciphertext],
    part: fn(&Ciphertext) -> EdwardsPoint,
    exponents: &[Scalar],
    rho: &Scalar,
) -> EdwardsPoint {
    let mut scalars = Vec::with_capacity(bases.len() + 1);
    let mut points = Vec::with_capacity(bases.len() + 1);
    scalars.push(*rho);
    points.push(*base);
    scalars.extend_from_slice(exponents);
    points.extend(bases.iter().map(part));
    multiscalar_mul(&scalars, &points)
}

/// Proves E = Enc_pk(0; ρ) + Σ bᵢ·C′ᵢ for the vector committed in `c_b`.
#[allow(clippy::too_many_arguments)] // the Σ-protocol statement simply has this many parts
pub fn prove_multiexp(
    transcript: &mut Transcript,
    ck: &CommitKey,
    pk: &EdwardsPoint,
    bases: &[Ciphertext],
    target: &Ciphertext,
    c_b: &EdwardsPoint,
    b: &[Scalar],
    s: &Scalar,
    rho: &Scalar,
    rng: &mut dyn Rng,
) -> MultiExpProof {
    let n = bases.len();
    assert_eq!(b.len(), n, "exponent length mismatch");
    debug_assert_eq!(ck.commit(b, s), *c_b, "opening must match commitment");
    debug_assert_eq!(
        linear_combination(pk, bases, b, rho),
        *target,
        "witness must satisfy the statement"
    );

    absorb(transcript, pk, bases, target, c_b);
    let masks = Masks::draw(n, rng);
    let c_d = masks.commit_d(ck);
    let e_d = linear_combination(pk, bases, &masks.d, &masks.rho_d);
    masks.respond(transcript, c_d, e_d, b, s, rho)
}

/// The prover's masks d, r_d and ρ_d, drawn in that order before anything
/// is computed from them. The first message (c_d, E_d) commits to masks
/// only, so the shuffle argument computes it beside its own earlier steps.
/// Its transcript binds `pk`, the bases and `c_b` directly and the target
/// E as a function of absorbed data, which lets a batched verifier fold
/// E's defining sum into its combined check instead of materializing it.
pub(crate) struct Masks {
    d: Vec<Scalar>,
    r_d: Scalar,
    rho_d: Scalar,
}

impl Masks {
    /// Draws the masks for an `n`-term argument.
    pub(crate) fn draw(n: usize, rng: &mut dyn Rng) -> Self {
        let d = (0..n).map(|_| rng.scalar()).collect();
        let r_d = rng.scalar();
        let rho_d = rng.scalar();
        Self { d, r_d, rho_d }
    }

    /// c_d = com(d; r_d).
    pub(crate) fn commit_d(&self, ck: &CommitKey) -> EdwardsPoint {
        ck.commit(&self.d, &self.r_d)
    }

    /// One of the two sums of E_d = Enc(0; ρ_d) + Σ dᵢ·C′ᵢ: B with every
    /// C′ᵢ's C₁, or `pk` with every C₂.
    pub(crate) fn e_d_component(
        &self,
        base: &EdwardsPoint,
        bases: &[Ciphertext],
        part: fn(&Ciphertext) -> EdwardsPoint,
    ) -> EdwardsPoint {
        component(base, bases, part, &self.d, &self.rho_d)
    }

    /// Absorbs the first message (c_d, E_d), derives the challenge x and
    /// opens b̃ = x·b + d, s̃ = x·s + r_d, ρ̃ = x·ρ + ρ_d for the witness
    /// (b, s, ρ) of `c_b` = com(b; s) and E = Enc(0; ρ) + Σ bᵢ·C′ᵢ.
    pub(crate) fn respond(
        self,
        transcript: &mut Transcript,
        c_d: EdwardsPoint,
        e_d: Ciphertext,
        b: &[Scalar],
        s: &Scalar,
        rho: &Scalar,
    ) -> MultiExpProof {
        assert_eq!(b.len(), self.d.len(), "exponent length mismatch");
        transcript.append_point(b"mexp-cd", &c_d);
        transcript.append_point(b"mexp-ed1", &e_d.c1);
        transcript.append_point(b"mexp-ed2", &e_d.c2);
        let x = transcript.challenge_scalar(b"mexp-x");
        let b_tilde = b.iter().zip(&self.d).map(|(b, d)| x * *b + *d).collect();
        MultiExpProof {
            c_d,
            e_d,
            b_tilde,
            s_tilde: x * *s + self.r_d,
            rho_tilde: x * *rho + self.rho_d,
        }
    }
}

/// Verifies a multi-exponentiation argument.
pub fn verify_multiexp(
    transcript: &mut Transcript,
    ck: &CommitKey,
    pk: &EdwardsPoint,
    bases: &[Ciphertext],
    target: &Ciphertext,
    c_b: &EdwardsPoint,
    proof: &MultiExpProof,
) -> Result<(), CryptoError> {
    absorb(transcript, pk, bases, target, c_b);
    verify_multiexp_core(transcript, ck, pk, bases, target, c_b, proof)
}

/// [`verify_multiexp`] without statement absorption, for the shuffle
/// argument (see [`Masks`]).
pub(crate) fn verify_multiexp_core(
    transcript: &mut Transcript,
    ck: &CommitKey,
    pk: &EdwardsPoint,
    bases: &[Ciphertext],
    target: &Ciphertext,
    c_b: &EdwardsPoint,
    proof: &MultiExpProof,
) -> Result<(), CryptoError> {
    let n = bases.len();
    if proof.b_tilde.len() != n || n > ck.len() {
        return Err(CryptoError::Malformed("multiexp opening length"));
    }
    transcript.append_point(b"mexp-cd", &proof.c_d);
    transcript.append_point(b"mexp-ed1", &proof.e_d.c1);
    transcript.append_point(b"mexp-ed2", &proof.e_d.c2);
    let x = transcript.challenge_scalar(b"mexp-x");

    // (1) com(b̃; s̃) == x·c_b + c_d, modulo the 8-torsion as every point
    // equation is (see `vg_crypto::batch`).
    if !(ck.commit(&proof.b_tilde, &proof.s_tilde) - *c_b * x - proof.c_d).is_small_order() {
        return Err(CryptoError::BadProof);
    }
    // (2) Enc(0; ρ̃) + Σ b̃ᵢ·C′ᵢ == x·E + E_d, componentwise.
    let lhs = linear_combination(pk, bases, &proof.b_tilde, &proof.rho_tilde);
    let error = lhs - target.scale(&x) - proof.e_d;
    if !(error.c1.is_small_order() && error.c2.is_small_order()) {
        return Err(CryptoError::BadProof);
    }
    Ok(())
}

/// Batch-path replay: runs the structural checks of
/// [`verify_multiexp_core`] and advances the transcript to the challenge,
/// leaving the point equations to the caller's batched multi-scalar
/// check. Returns the challenge x.
pub(crate) fn replay_multiexp(
    transcript: &mut Transcript,
    ck: &CommitKey,
    n: usize,
    proof: &MultiExpProof,
) -> Result<Scalar, CryptoError> {
    if proof.b_tilde.len() != n || n > ck.len() {
        return Err(CryptoError::Malformed("multiexp opening length"));
    }
    transcript.append_point(b"mexp-cd", &proof.c_d);
    transcript.append_point(b"mexp-ed1", &proof.e_d.c1);
    transcript.append_point(b"mexp-ed2", &proof.e_d.c2);
    Ok(transcript.challenge_scalar(b"mexp-x"))
}

fn absorb(
    transcript: &mut Transcript,
    pk: &EdwardsPoint,
    bases: &[Ciphertext],
    target: &Ciphertext,
    c_b: &EdwardsPoint,
) {
    transcript.append_point(b"mexp-pk", pk);
    transcript.append_u64(b"mexp-n", bases.len() as u64);
    for c in bases {
        transcript.append_bytes(b"mexp-base", &c.to_bytes());
    }
    transcript.append_bytes(b"mexp-target", &target.to_bytes());
    transcript.append_point(b"mexp-cb", c_b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::elgamal::{encrypt_point, ElGamalKeyPair};
    use vg_crypto::HmacDrbg;

    struct Setup {
        ck: CommitKey,
        pk: EdwardsPoint,
        bases: Vec<Ciphertext>,
        b: Vec<Scalar>,
        s: Scalar,
        rho: Scalar,
        c_b: EdwardsPoint,
        target: Ciphertext,
        rng: HmacDrbg,
    }

    fn setup(n: usize, seed: u64) -> Setup {
        let mut rng = HmacDrbg::from_u64(seed);
        let ck = CommitKey::new(b"mexp-test", n);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let bases: Vec<Ciphertext> = (0..n)
            .map(|_| {
                let m = EdwardsPoint::mul_base(&rng.scalar());
                encrypt_point(&kp.pk, &m, &mut rng).0
            })
            .collect();
        let b: Vec<Scalar> = (0..n).map(|_| rng.scalar()).collect();
        let s = rng.scalar();
        let rho = rng.scalar();
        let c_b = ck.commit(&b, &s);
        let target = linear_combination(&kp.pk, &bases, &b, &rho);
        Setup {
            ck,
            pk: kp.pk,
            bases,
            b,
            s,
            rho,
            c_b,
            target,
            rng,
        }
    }

    #[test]
    fn completeness() {
        for n in [1usize, 2, 7, 16] {
            let mut s = setup(n, n as u64 + 100);
            let proof = prove_multiexp(
                &mut Transcript::new(b"t"),
                &s.ck,
                &s.pk,
                &s.bases,
                &s.target,
                &s.c_b,
                &s.b,
                &s.s,
                &s.rho,
                &mut s.rng,
            );
            verify_multiexp(
                &mut Transcript::new(b"t"),
                &s.ck,
                &s.pk,
                &s.bases,
                &s.target,
                &s.c_b,
                &proof,
            )
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn wrong_target_rejected() {
        let mut s = setup(4, 200);
        let proof = prove_multiexp(
            &mut Transcript::new(b"t"),
            &s.ck,
            &s.pk,
            &s.bases,
            &s.target,
            &s.c_b,
            &s.b,
            &s.s,
            &s.rho,
            &mut s.rng,
        );
        let bad_target = Ciphertext {
            c1: s.target.c1 + EdwardsPoint::basepoint(),
            c2: s.target.c2,
        };
        assert!(verify_multiexp(
            &mut Transcript::new(b"t"),
            &s.ck,
            &s.pk,
            &s.bases,
            &bad_target,
            &s.c_b,
            &proof,
        )
        .is_err());
    }

    #[test]
    fn tampered_openings_rejected() {
        let mut s = setup(4, 201);
        let good = prove_multiexp(
            &mut Transcript::new(b"t"),
            &s.ck,
            &s.pk,
            &s.bases,
            &s.target,
            &s.c_b,
            &s.b,
            &s.s,
            &s.rho,
            &mut s.rng,
        );
        for field in 0..3 {
            let mut bad = good.clone();
            match field {
                0 => bad.b_tilde[0] += Scalar::ONE,
                1 => bad.s_tilde += Scalar::ONE,
                _ => bad.rho_tilde += Scalar::ONE,
            }
            assert!(
                verify_multiexp(
                    &mut Transcript::new(b"t"),
                    &s.ck,
                    &s.pk,
                    &s.bases,
                    &s.target,
                    &s.c_b,
                    &bad,
                )
                .is_err(),
                "field {field}"
            );
        }
    }

    #[test]
    fn swapped_bases_rejected() {
        let mut s = setup(4, 202);
        let proof = prove_multiexp(
            &mut Transcript::new(b"t"),
            &s.ck,
            &s.pk,
            &s.bases,
            &s.target,
            &s.c_b,
            &s.b,
            &s.s,
            &s.rho,
            &mut s.rng,
        );
        let mut swapped = s.bases.clone();
        swapped.swap(0, 1);
        assert!(verify_multiexp(
            &mut Transcript::new(b"t"),
            &s.ck,
            &s.pk,
            &s.bases,
            &s.target,
            &s.c_b,
            &proof,
        )
        .is_ok());
        assert!(verify_multiexp(
            &mut Transcript::new(b"t"),
            &s.ck,
            &s.pk,
            &swapped,
            &s.target,
            &s.c_b,
            &proof,
        )
        .is_err());
    }
}
