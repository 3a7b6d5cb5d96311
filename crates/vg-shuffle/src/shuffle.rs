//! The Bayer–Groth verifiable shuffle argument (single-row variant).
//!
//! Statement: ciphertext vectors C and C′ under public key pk such that
//! C′ⱼ = C_{π(j)} + Enc(0; ρⱼ) for a secret permutation π and fresh
//! randomness ρ. The argument (Fiat–Shamir over a [`Transcript`]):
//!
//! 1. Commit c_a = com(π(1)…π(n)) (1-indexed).
//! 2. Challenge x; commit c_b = com(x^π(1) … x^π(n)).
//! 3. Challenges y, z; run the [single-value product
//!    argument](crate::svp) on the public combination y·c_a + c_b − com(z̄)
//!    with claimed product Π (y·i + xⁱ − z) — by Schwartz–Zippel this
//!    forces {(aⱼ, bⱼ)} = {(i, xⁱ)}, i.e. a is a permutation and b its
//!    x-powers.
//! 4. Run the [multi-exponentiation argument](crate::multiexp) showing
//!    Σ xⁱ·Cᵢ = Enc(0; ρ̂) + Σ bⱼ·C′ⱼ, which transfers the permutation
//!    relation onto the ciphertexts.
//!
//! The paper's tally (§4.2) uses this to anonymize the registration-tag and
//! ballot sets with public verifiability [10, 65].

use vg_crypto::drbg::{shuffle as fisher_yates, Rng};
use vg_crypto::edwards::EdwardsPoint;
use vg_crypto::edwards::FixedBaseTable;
use vg_crypto::elgamal::{rerandomize_with_table, Ciphertext};
use vg_crypto::pedersen::CommitKey;
use vg_crypto::scalar::Scalar;
use vg_crypto::transcript::Transcript;
use vg_crypto::CryptoError;

use crate::multiexp::{self, MultiExpProof};
use crate::svp::{self, SvpProof};

/// A complete shuffle proof.
#[derive(Clone, Debug)]
pub struct ShuffleProof {
    /// Commitment to the (1-indexed) permutation values.
    pub c_a: EdwardsPoint,
    /// Commitment to the x-powers of the permutation values.
    pub c_b: EdwardsPoint,
    /// Product argument binding c_a and c_b to a genuine permutation.
    pub svp: SvpProof,
    /// Multi-exponentiation argument binding the ciphertexts.
    pub mexp: MultiExpProof,
}

/// Context holding the commitment key for shuffles up to a fixed size.
pub struct ShuffleContext {
    pub(crate) ck: CommitKey,
}

impl ShuffleContext {
    /// Creates a context supporting shuffles of up to `max_n` ciphertexts.
    pub fn new(max_n: usize) -> Self {
        Self {
            ck: CommitKey::new(b"votegral-shuffle-v1", max_n.max(2)),
        }
    }

    /// The underlying commitment key.
    pub fn commit_key(&self) -> &CommitKey {
        &self.ck
    }

    /// Shuffles `inputs` under `pk` with a fresh random permutation and
    /// re-encryption randomness, returning the outputs and proof.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has fewer than 2 or more than `max_n` elements.
    pub fn shuffle(
        &self,
        pk: &EdwardsPoint,
        inputs: &[Ciphertext],
        rng: &mut dyn Rng,
    ) -> (Vec<Ciphertext>, ShuffleProof) {
        let n = inputs.len();
        assert!(n >= 2, "shuffle requires at least 2 ciphertexts");
        // Sample π and ρ, produce C'_j = C_{π(j)} + Enc(0; ρ_j).
        let mut perm: Vec<usize> = (0..n).collect();
        fisher_yates(rng, &mut perm);
        let rho: Vec<Scalar> = (0..n).map(|_| rng.scalar()).collect();
        // pk·ρⱼ is a third of the re-encryption; one table of pk for the
        // loop.
        let pk_table = FixedBaseTable::new(pk);
        let outputs: Vec<Ciphertext> = (0..n)
            .map(|j| rerandomize_with_table(&pk_table, &inputs[perm[j]], &rho[j]))
            .collect();
        let proof = self.prove(pk, inputs, &outputs, &perm, &rho, rng);
        (outputs, proof)
    }

    /// Proves that `outputs` is a correct re-encryption shuffle of `inputs`
    /// under permutation `perm` and randomness `rho`.
    pub fn prove(
        &self,
        pk: &EdwardsPoint,
        inputs: &[Ciphertext],
        outputs: &[Ciphertext],
        perm: &[usize],
        rho: &[Scalar],
        rng: &mut dyn Rng,
    ) -> ShuffleProof {
        let n = inputs.len();
        assert!(n >= 2 && outputs.len() == n && perm.len() == n && rho.len() == n);
        assert!(n <= self.ck.len(), "shuffle larger than context");
        let mut transcript = Transcript::new(b"votegral-shuffle");
        absorb_statement(&mut transcript, pk, inputs, outputs);

        // Step 1: commit to the 1-indexed permutation values.
        let a: Vec<Scalar> = perm
            .iter()
            .map(|&p| Scalar::from_u64(p as u64 + 1))
            .collect();
        let r = rng.scalar();
        let c_a = self.ck.commit(&a, &r);
        transcript.append_point(b"shuf-ca", &c_a);

        // Step 2: challenge x, commit to b_j = x^{π(j)+1}.
        let x = transcript.challenge_scalar(b"shuf-x");
        let x_powers = Scalar::powers(x, n + 1); // x^0 … x^n
        let b: Vec<Scalar> = perm.iter().map(|&p| x_powers[p + 1]).collect();
        let s = rng.scalar();
        let c_b = self.ck.commit(&b, &s);
        transcript.append_point(b"shuf-cb", &c_b);

        // Step 3: challenges y, z; product argument on y·a + b − z̄.
        let y = transcript.challenge_scalar(b"shuf-y");
        let z = transcript.challenge_scalar(b"shuf-z");
        let d: Vec<Scalar> = (0..n).map(|j| y * a[j] + b[j] - z).collect();
        let r_d = y * r + s;
        let c_d = c_a * y + c_b - self.ck.commit_constant(&z, n);
        let product = claimed_product(&x_powers, y, z, n);
        let svp_proof =
            svp::prove_svp_core(&mut transcript, &self.ck, &c_d, &product, &d, &r_d, rng);

        // Step 4: multi-exponentiation argument.
        // E = Σ_{i=1..n} x^i·C_{i−1};  ρ̂ = −Σ_j ρ_j·b_j.
        let target = multiexp::linear_combination(pk, inputs, &x_powers[1..=n], &Scalar::ZERO);
        let rho_hat = -(0..n).fold(Scalar::ZERO, |acc, j| acc + rho[j] * b[j]);
        let mexp_proof = multiexp::prove_multiexp_core(
            &mut transcript,
            &self.ck,
            pk,
            outputs,
            &target,
            &c_b,
            &b,
            &s,
            &rho_hat,
            rng,
        );

        ShuffleProof {
            c_a,
            c_b,
            svp: svp_proof,
            mexp: mexp_proof,
        }
    }

    /// Verifies a shuffle proof.
    pub fn verify(
        &self,
        pk: &EdwardsPoint,
        inputs: &[Ciphertext],
        outputs: &[Ciphertext],
        proof: &ShuffleProof,
    ) -> Result<(), CryptoError> {
        let n = inputs.len();
        if n < 2 || outputs.len() != n || n > self.ck.len() {
            return Err(CryptoError::Malformed("shuffle size"));
        }
        let mut transcript = Transcript::new(b"votegral-shuffle");
        absorb_statement(&mut transcript, pk, inputs, outputs);
        transcript.append_point(b"shuf-ca", &proof.c_a);
        let x = transcript.challenge_scalar(b"shuf-x");
        transcript.append_point(b"shuf-cb", &proof.c_b);
        let y = transcript.challenge_scalar(b"shuf-y");
        let z = transcript.challenge_scalar(b"shuf-z");

        let x_powers = Scalar::powers(x, n + 1);
        let c_d = proof.c_a * y + proof.c_b - self.ck.commit_constant(&z, n);
        let product = claimed_product(&x_powers, y, z, n);
        svp::verify_svp_core(&mut transcript, &self.ck, &c_d, &product, &proof.svp)?;

        let target = multiexp::linear_combination(pk, inputs, &x_powers[1..=n], &Scalar::ZERO);
        multiexp::verify_multiexp_core(
            &mut transcript,
            &self.ck,
            pk,
            outputs,
            &target,
            &proof.c_b,
            &proof.mexp,
        )
    }
}

/// A shuffle proof for *pairs* of ciphertexts moved under one permutation.
///
/// Votegral's ballot mix permutes (encrypted vote, encrypted credential
/// key) pairs; soundness requires both columns to move under the same π.
/// The same commitment c_b (hence the same committed exponent vector)
/// backs two multi-exponentiation arguments, which binds the columns
/// together.
#[derive(Clone, Debug)]
pub struct PairShuffleProof {
    /// Commitment to the permutation values.
    pub c_a: EdwardsPoint,
    /// Commitment to the x-powers of the permutation values.
    pub c_b: EdwardsPoint,
    /// Product argument (shared by both columns).
    pub svp: SvpProof,
    /// Multi-exponentiation argument for the first column.
    pub mexp_a: MultiExpProof,
    /// Multi-exponentiation argument for the second column.
    pub mexp_b: MultiExpProof,
}

impl ShuffleContext {
    /// Shuffles linked ciphertext pairs under one fresh permutation.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has fewer than 2 or more than `max_n` elements.
    pub fn shuffle_pairs(
        &self,
        pk: &EdwardsPoint,
        inputs: &[(Ciphertext, Ciphertext)],
        rng: &mut dyn Rng,
    ) -> (Vec<(Ciphertext, Ciphertext)>, PairShuffleProof) {
        let n = inputs.len();
        assert!(n >= 2, "pair shuffle requires at least 2 pairs");
        let mut perm: Vec<usize> = (0..n).collect();
        fisher_yates(rng, &mut perm);
        let rho_a: Vec<Scalar> = (0..n).map(|_| rng.scalar()).collect();
        let rho_b: Vec<Scalar> = (0..n).map(|_| rng.scalar()).collect();
        let pk_table = FixedBaseTable::new(pk);
        let outputs: Vec<(Ciphertext, Ciphertext)> = (0..n)
            .map(|j| {
                (
                    rerandomize_with_table(&pk_table, &inputs[perm[j]].0, &rho_a[j]),
                    rerandomize_with_table(&pk_table, &inputs[perm[j]].1, &rho_b[j]),
                )
            })
            .collect();
        let proof = self.prove_pairs(pk, inputs, &outputs, &perm, &rho_a, &rho_b, rng);
        (outputs, proof)
    }

    /// Proves a pair shuffle for a known witness.
    #[allow(clippy::too_many_arguments)]
    pub fn prove_pairs(
        &self,
        pk: &EdwardsPoint,
        inputs: &[(Ciphertext, Ciphertext)],
        outputs: &[(Ciphertext, Ciphertext)],
        perm: &[usize],
        rho_a: &[Scalar],
        rho_b: &[Scalar],
        rng: &mut dyn Rng,
    ) -> PairShuffleProof {
        let n = inputs.len();
        assert!(n >= 2 && outputs.len() == n && perm.len() == n);
        assert!(n <= self.ck.len(), "shuffle larger than context");
        let mut transcript = Transcript::new(b"votegral-pair-shuffle");
        absorb_pair_statement(&mut transcript, pk, inputs, outputs);

        let a: Vec<Scalar> = perm
            .iter()
            .map(|&p| Scalar::from_u64(p as u64 + 1))
            .collect();
        let r = rng.scalar();
        let c_a = self.ck.commit(&a, &r);
        transcript.append_point(b"shuf-ca", &c_a);

        let x = transcript.challenge_scalar(b"shuf-x");
        let x_powers = Scalar::powers(x, n + 1);
        let b: Vec<Scalar> = perm.iter().map(|&p| x_powers[p + 1]).collect();
        let s = rng.scalar();
        let c_b = self.ck.commit(&b, &s);
        transcript.append_point(b"shuf-cb", &c_b);

        let y = transcript.challenge_scalar(b"shuf-y");
        let z = transcript.challenge_scalar(b"shuf-z");
        let d: Vec<Scalar> = (0..n).map(|j| y * a[j] + b[j] - z).collect();
        let r_d = y * r + s;
        let c_d = c_a * y + c_b - self.ck.commit_constant(&z, n);
        let product = claimed_product(&x_powers, y, z, n);
        let svp_proof =
            svp::prove_svp_core(&mut transcript, &self.ck, &c_d, &product, &d, &r_d, rng);

        let col_a_in: Vec<Ciphertext> = inputs.iter().map(|p| p.0).collect();
        let col_b_in: Vec<Ciphertext> = inputs.iter().map(|p| p.1).collect();
        let col_a_out: Vec<Ciphertext> = outputs.iter().map(|p| p.0).collect();
        let col_b_out: Vec<Ciphertext> = outputs.iter().map(|p| p.1).collect();

        let target_a = multiexp::linear_combination(pk, &col_a_in, &x_powers[1..=n], &Scalar::ZERO);
        let rho_hat_a = -(0..n).fold(Scalar::ZERO, |acc, j| acc + rho_a[j] * b[j]);
        let mexp_a = multiexp::prove_multiexp_core(
            &mut transcript,
            &self.ck,
            pk,
            &col_a_out,
            &target_a,
            &c_b,
            &b,
            &s,
            &rho_hat_a,
            rng,
        );
        let target_b = multiexp::linear_combination(pk, &col_b_in, &x_powers[1..=n], &Scalar::ZERO);
        let rho_hat_b = -(0..n).fold(Scalar::ZERO, |acc, j| acc + rho_b[j] * b[j]);
        let mexp_b = multiexp::prove_multiexp_core(
            &mut transcript,
            &self.ck,
            pk,
            &col_b_out,
            &target_b,
            &c_b,
            &b,
            &s,
            &rho_hat_b,
            rng,
        );

        PairShuffleProof {
            c_a,
            c_b,
            svp: svp_proof,
            mexp_a,
            mexp_b,
        }
    }

    /// Verifies a pair-shuffle proof.
    pub fn verify_pairs(
        &self,
        pk: &EdwardsPoint,
        inputs: &[(Ciphertext, Ciphertext)],
        outputs: &[(Ciphertext, Ciphertext)],
        proof: &PairShuffleProof,
    ) -> Result<(), CryptoError> {
        let n = inputs.len();
        if n < 2 || outputs.len() != n || n > self.ck.len() {
            return Err(CryptoError::Malformed("pair shuffle size"));
        }
        let mut transcript = Transcript::new(b"votegral-pair-shuffle");
        absorb_pair_statement(&mut transcript, pk, inputs, outputs);
        transcript.append_point(b"shuf-ca", &proof.c_a);
        let x = transcript.challenge_scalar(b"shuf-x");
        transcript.append_point(b"shuf-cb", &proof.c_b);
        let y = transcript.challenge_scalar(b"shuf-y");
        let z = transcript.challenge_scalar(b"shuf-z");

        let x_powers = Scalar::powers(x, n + 1);
        let c_d = proof.c_a * y + proof.c_b - self.ck.commit_constant(&z, n);
        let product = claimed_product(&x_powers, y, z, n);
        svp::verify_svp_core(&mut transcript, &self.ck, &c_d, &product, &proof.svp)?;

        let col_a_in: Vec<Ciphertext> = inputs.iter().map(|p| p.0).collect();
        let col_b_in: Vec<Ciphertext> = inputs.iter().map(|p| p.1).collect();
        let col_a_out: Vec<Ciphertext> = outputs.iter().map(|p| p.0).collect();
        let col_b_out: Vec<Ciphertext> = outputs.iter().map(|p| p.1).collect();

        let target_a = multiexp::linear_combination(pk, &col_a_in, &x_powers[1..=n], &Scalar::ZERO);
        multiexp::verify_multiexp_core(
            &mut transcript,
            &self.ck,
            pk,
            &col_a_out,
            &target_a,
            &proof.c_b,
            &proof.mexp_a,
        )?;
        let target_b = multiexp::linear_combination(pk, &col_b_in, &x_powers[1..=n], &Scalar::ZERO);
        multiexp::verify_multiexp_core(
            &mut transcript,
            &self.ck,
            pk,
            &col_b_out,
            &target_b,
            &proof.c_b,
            &proof.mexp_b,
        )
    }
}

/// Compresses a ciphertext slice's components with one shared inversion,
/// returning each ciphertext's 64-byte wire encoding (identical to
/// [`Ciphertext::to_bytes`], but inversion costs are amortized — the
/// statement hash over large vectors is otherwise inversion-bound).
fn batch_ct_bytes(cts: &[Ciphertext]) -> Vec<[u8; 64]> {
    let mut pts = Vec::with_capacity(2 * cts.len());
    for c in cts {
        pts.push(c.c1);
        pts.push(c.c2);
    }
    let comp = EdwardsPoint::batch_compress(&pts);
    comp.chunks_exact(2)
        .map(|pair| {
            let mut out = [0u8; 64];
            out[..32].copy_from_slice(&pair[0].0);
            out[32..].copy_from_slice(&pair[1].0);
            out
        })
        .collect()
}

pub(crate) fn absorb_pair_statement(
    transcript: &mut Transcript,
    pk: &EdwardsPoint,
    inputs: &[(Ciphertext, Ciphertext)],
    outputs: &[(Ciphertext, Ciphertext)],
) {
    transcript.append_point(b"shuf-pk", pk);
    transcript.append_u64(b"shuf-n", inputs.len() as u64);
    let col_a: Vec<Ciphertext> = inputs.iter().map(|p| p.0).collect();
    let col_b: Vec<Ciphertext> = inputs.iter().map(|p| p.1).collect();
    for (a, b) in batch_ct_bytes(&col_a)
        .iter()
        .zip(batch_ct_bytes(&col_b).iter())
    {
        transcript.append_bytes(b"shuf-in-a", a);
        transcript.append_bytes(b"shuf-in-b", b);
    }
    let col_a: Vec<Ciphertext> = outputs.iter().map(|p| p.0).collect();
    let col_b: Vec<Ciphertext> = outputs.iter().map(|p| p.1).collect();
    for (a, b) in batch_ct_bytes(&col_a)
        .iter()
        .zip(batch_ct_bytes(&col_b).iter())
    {
        transcript.append_bytes(b"shuf-out-a", a);
        transcript.append_bytes(b"shuf-out-b", b);
    }
}

/// Π_{i=1..n} (y·i + xⁱ − z), the public side of the product argument.
#[allow(clippy::needless_range_loop)] // x_powers is 1-indexed by construction
pub(crate) fn claimed_product(x_powers: &[Scalar], y: Scalar, z: Scalar, n: usize) -> Scalar {
    let mut acc = Scalar::ONE;
    for i in 1..=n {
        acc *= y * Scalar::from_u64(i as u64) + x_powers[i] - z;
    }
    acc
}

pub(crate) fn absorb_statement(
    transcript: &mut Transcript,
    pk: &EdwardsPoint,
    inputs: &[Ciphertext],
    outputs: &[Ciphertext],
) {
    transcript.append_point(b"shuf-pk", pk);
    transcript.append_u64(b"shuf-n", inputs.len() as u64);
    for bytes in batch_ct_bytes(inputs) {
        transcript.append_bytes(b"shuf-in", &bytes);
    }
    for bytes in batch_ct_bytes(outputs) {
        transcript.append_bytes(b"shuf-out", &bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use vg_crypto::elgamal::{decrypt, encrypt_point, rerandomize_with, ElGamalKeyPair};
    use vg_crypto::HmacDrbg;

    fn sample_ciphertexts(
        n: usize,
        kp: &ElGamalKeyPair,
        rng: &mut dyn Rng,
    ) -> (Vec<EdwardsPoint>, Vec<Ciphertext>) {
        let msgs: Vec<EdwardsPoint> = (0..n)
            .map(|i| EdwardsPoint::mul_base(&Scalar::from_u64(i as u64 + 1)))
            .collect();
        let cts = msgs
            .iter()
            .map(|m| encrypt_point(&kp.pk, m, rng).0)
            .collect();
        (msgs, cts)
    }

    #[test]
    fn shuffle_verifies_and_permutes_plaintexts() {
        let mut rng = HmacDrbg::from_u64(1);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let n = 8;
        let (msgs, inputs) = sample_ciphertexts(n, &kp, &mut rng);
        let ctx = ShuffleContext::new(n);
        let (outputs, proof) = ctx.shuffle(&kp.pk, &inputs, &mut rng);
        ctx.verify(&kp.pk, &inputs, &outputs, &proof)
            .expect("honest shuffle verifies");

        // The decrypted outputs are a permutation of the input plaintexts.
        let in_set: HashSet<_> = msgs.iter().map(|m| m.compress()).collect();
        let out_set: HashSet<_> = outputs
            .iter()
            .map(|c| decrypt(&kp.sk, c).compress())
            .collect();
        assert_eq!(in_set, out_set);
        // And the ciphertexts themselves all changed (re-encryption).
        for o in &outputs {
            assert!(!inputs.contains(o));
        }
    }

    #[test]
    fn minimum_size_two() {
        let mut rng = HmacDrbg::from_u64(2);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let (_, inputs) = sample_ciphertexts(2, &kp, &mut rng);
        let ctx = ShuffleContext::new(2);
        let (outputs, proof) = ctx.shuffle(&kp.pk, &inputs, &mut rng);
        ctx.verify(&kp.pk, &inputs, &outputs, &proof).unwrap();
    }

    #[test]
    fn tampered_output_rejected() {
        let mut rng = HmacDrbg::from_u64(3);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let (_, inputs) = sample_ciphertexts(5, &kp, &mut rng);
        let ctx = ShuffleContext::new(5);
        let (mut outputs, proof) = ctx.shuffle(&kp.pk, &inputs, &mut rng);
        outputs[2].c2 += EdwardsPoint::basepoint();
        assert!(ctx.verify(&kp.pk, &inputs, &outputs, &proof).is_err());
    }

    #[test]
    fn replaced_ballot_rejected() {
        // A malicious mixer that *replaces* a ciphertext (rather than
        // permuting) cannot produce a valid proof with the honest prover's
        // transcript.
        let mut rng = HmacDrbg::from_u64(4);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let (_, inputs) = sample_ciphertexts(5, &kp, &mut rng);
        let ctx = ShuffleContext::new(5);
        let (outputs, proof) = ctx.shuffle(&kp.pk, &inputs, &mut rng);
        let mut forged_inputs = inputs.clone();
        let injected = encrypt_point(&kp.pk, &EdwardsPoint::basepoint(), &mut rng).0;
        forged_inputs[0] = injected;
        assert!(ctx
            .verify(&kp.pk, &forged_inputs, &outputs, &proof)
            .is_err());
    }

    #[test]
    fn dropped_ciphertext_rejected() {
        let mut rng = HmacDrbg::from_u64(5);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let (_, inputs) = sample_ciphertexts(4, &kp, &mut rng);
        let ctx = ShuffleContext::new(4);
        let (outputs, proof) = ctx.shuffle(&kp.pk, &inputs, &mut rng);
        assert!(ctx.verify(&kp.pk, &inputs, &outputs[..3], &proof).is_err());
    }

    #[test]
    fn wrong_public_key_rejected() {
        let mut rng = HmacDrbg::from_u64(6);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let other = ElGamalKeyPair::generate(&mut rng);
        let (_, inputs) = sample_ciphertexts(4, &kp, &mut rng);
        let ctx = ShuffleContext::new(4);
        let (outputs, proof) = ctx.shuffle(&kp.pk, &inputs, &mut rng);
        assert!(ctx.verify(&other.pk, &inputs, &outputs, &proof).is_err());
    }

    #[test]
    fn identity_permutation_still_hides() {
        // Even the identity permutation with fresh randomness produces
        // distinct ciphertexts and a valid proof.
        let mut rng = HmacDrbg::from_u64(7);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let (_, inputs) = sample_ciphertexts(3, &kp, &mut rng);
        let ctx = ShuffleContext::new(3);
        let perm = vec![0, 1, 2];
        let rho: Vec<Scalar> = (0..3).map(|_| rng.scalar()).collect();
        let outputs: Vec<Ciphertext> = (0..3)
            .map(|j| rerandomize_with(&kp.pk, &inputs[perm[j]], &rho[j]))
            .collect();
        let proof = ctx.prove(&kp.pk, &inputs, &outputs, &perm, &rho, &mut rng);
        ctx.verify(&kp.pk, &inputs, &outputs, &proof).unwrap();
        assert_ne!(inputs, outputs);
    }

    #[test]
    fn larger_shuffle() {
        let mut rng = HmacDrbg::from_u64(8);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let (_, inputs) = sample_ciphertexts(64, &kp, &mut rng);
        let ctx = ShuffleContext::new(64);
        let (outputs, proof) = ctx.shuffle(&kp.pk, &inputs, &mut rng);
        ctx.verify(&kp.pk, &inputs, &outputs, &proof).unwrap();
    }
}
