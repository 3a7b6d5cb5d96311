//! Distributed deterministic tagging (\[153\], §5.1, Appendix M).
//!
//! After mixing, the tally must match each ballot's (encrypted) credential
//! key against the (encrypted) real-credential tags from the registration
//! ledger — without decrypting either to its raw value. Each authority
//! member applies a secret per-election exponent sᵢ to every ciphertext,
//! with a Chaum–Pedersen proof per component against a public commitment
//! Sᵢ = sᵢ·B. After all members have passed, threshold decryption yields
//! the *blinded* value (Πsᵢ)·P: equal plaintexts produce equal blinded
//! tags (enabling hash-map matching in linear time), while the blinding
//! hides the actual keys.

use vg_crypto::batch::{BatchVerifier, CommittedWeights};
use vg_crypto::chaum_pedersen::{
    dleq_challenge, prove_dleq_batch, verify_dleq, DlEqJob, DlEqProof, DlEqStatement,
};
use vg_crypto::drbg::Rng;
use vg_crypto::elgamal::Ciphertext;
use vg_crypto::{CryptoError, EdwardsPoint, Scalar, Transcript};
use vg_shuffle::VerifyMode;

/// Ciphertexts handled per pass of [`TaggingKey::apply`] and per fold of
/// [`TaggingRound::verify`] (four equations each), so neither's working
/// memory grows with the vector.
const CHUNK: usize = 512;

/// One member's secret tagging exponent for one election.
pub struct TaggingKey {
    secret: Scalar,
    /// Public commitment Sᵢ = sᵢ·B.
    pub commitment: EdwardsPoint,
}

impl TaggingKey {
    /// Samples a fresh tagging exponent.
    pub fn generate(rng: &mut dyn Rng) -> Self {
        let secret = rng.scalar();
        Self {
            secret,
            commitment: EdwardsPoint::mul_base(&secret),
        }
    }

    /// Applies the exponent to every ciphertext, producing a verifiable
    /// round.
    ///
    /// Nonces are drawn ciphertext by ciphertext, first component first —
    /// the order a loop of single proofs would draw them — and each
    /// chunk's commitments are compressed through one shared inversion
    /// before hashing ([`prove_dleq_batch`]).
    pub fn apply(&self, inputs: &[Ciphertext], rng: &mut dyn Rng) -> TaggingRound {
        let mut outputs = Vec::with_capacity(inputs.len());
        let mut proofs = Vec::with_capacity(inputs.len());
        for (k, chunk) in inputs.chunks(CHUNK).enumerate() {
            let scaled: Vec<Ciphertext> = chunk.iter().map(|c| c.scale(&self.secret)).collect();
            let jobs = chunk
                .iter()
                .zip(scaled.iter())
                .enumerate()
                .flat_map(|(i, (input, out))| {
                    [(0, input.c1, out.c1), (1, input.c2, out.c2)].map(|(comp, g2, y2)| DlEqJob {
                        transcript: proof_transcript(k * CHUNK + i, comp),
                        stmt: component_statement(&self.commitment, &g2, &y2),
                        witness: &self.secret,
                    })
                })
                .collect();
            let chunk_proofs = prove_dleq_batch(jobs, rng);
            proofs.extend(chunk_proofs.chunks_exact(2).map(|p| [p[0], p[1]]));
            outputs.extend(scaled);
        }
        TaggingRound {
            commitment: self.commitment,
            outputs,
            proofs,
        }
    }
}

fn component_statement(
    commitment: &EdwardsPoint,
    input: &EdwardsPoint,
    output: &EdwardsPoint,
) -> DlEqStatement {
    DlEqStatement {
        g1: EdwardsPoint::basepoint(),
        y1: *commitment,
        g2: *input,
        y2: *output,
    }
}

fn proof_transcript(index: usize, component: u8) -> Transcript {
    let mut t = Transcript::new(b"votegral-tagging");
    t.append_u64(b"tag-idx", index as u64);
    t.append_u64(b"tag-comp", component as u64);
    t
}

/// One member's verifiable pass over a ciphertext vector.
#[derive(Clone, Debug)]
pub struct TaggingRound {
    /// The member's public commitment Sᵢ.
    pub commitment: EdwardsPoint,
    /// sᵢ-scaled ciphertexts.
    pub outputs: Vec<Ciphertext>,
    /// Per-ciphertext proofs for both components.
    pub proofs: Vec<[DlEqProof; 2]>,
}

impl TaggingRound {
    /// Verifies the round against its inputs through the batched path on
    /// the host's cores.
    pub fn verify(&self, inputs: &[Ciphertext]) -> Result<(), CryptoError> {
        self.verify_with(inputs, VerifyMode::Batched, crate::par::default_threads())
    }

    /// Verifies the round against its inputs.
    ///
    /// [`VerifyMode::Sequential`] checks the proofs one by one and is the
    /// reference. [`VerifyMode::Batched`] folds every proof of the round
    /// into cofactored multi-scalar checks of 512 ciphertexts each: it
    /// accepts what the reference accepts, with every relation taken
    /// modulo the 8-torsion — which is why the tally decides on
    /// cofactor-cleared plaintexts (see [`vg_crypto::batch`]).
    pub fn verify_with(
        &self,
        inputs: &[Ciphertext],
        mode: VerifyMode,
        threads: usize,
    ) -> Result<(), CryptoError> {
        if self.outputs.len() != inputs.len() || self.proofs.len() != inputs.len() {
            return Err(CryptoError::Malformed("tagging round lengths"));
        }
        match mode {
            VerifyMode::Sequential => self.verify_one_by_one(inputs),
            VerifyMode::Batched => self.verify_folded(inputs, threads),
        }
    }

    fn verify_one_by_one(&self, inputs: &[Ciphertext]) -> Result<(), CryptoError> {
        for (idx, ((input, output), proof)) in inputs
            .iter()
            .zip(self.outputs.iter())
            .zip(self.proofs.iter())
            .enumerate()
        {
            verify_dleq(
                &mut proof_transcript(idx, 0),
                &component_statement(&self.commitment, &input.c1, &output.c1),
                &proof[0],
            )?;
            verify_dleq(
                &mut proof_transcript(idx, 1),
                &component_statement(&self.commitment, &input.c2, &output.c2),
                &proof[1],
            )?;
        }
        Ok(())
    }

    fn verify_folded(&self, inputs: &[Ciphertext], threads: usize) -> Result<(), CryptoError> {
        // Static bases: B at 0, Sᵢ at 1.
        let statics = [EdwardsPoint::basepoint(), self.commitment];
        let static_enc = EdwardsPoint::batch_compress(&statics);
        let mut commitment = CommittedWeights::new(b"votegral-tagging-fold-v1");
        commitment.absorb(&static_enc[1].0);
        commitment.absorb(&(inputs.len() as u64).to_le_bytes());

        for (k, ((inputs, outputs), proofs)) in inputs
            .chunks(CHUNK)
            .zip(self.outputs.chunks(CHUNK))
            .zip(self.proofs.chunks(CHUNK))
            .enumerate()
        {
            // Per component: (input, output, Y₁, Y₂), through one inversion.
            let mut points = Vec::with_capacity(8 * inputs.len());
            for ((input, output), proof) in inputs.iter().zip(outputs).zip(proofs) {
                let (p0, p1) = (proof[0].commit, proof[1].commit);
                points.extend([input.c1, output.c1, p0.a1, p0.a2]);
                points.extend([input.c2, output.c2, p1.a1, p1.a2]);
            }
            let encoded = EdwardsPoint::batch_compress(&points);
            for enc in &encoded {
                commitment.absorb(&enc.0);
            }
            for proof in proofs {
                commitment.absorb(&proof[0].response.to_bytes());
                commitment.absorb(&proof[1].response.to_bytes());
            }
            let weights = commitment.weights(4 * inputs.len());

            let mut batch = BatchVerifier::new(&statics);
            for (c, proof) in proofs.iter().flatten().enumerate() {
                let [input, output, a1, a2] = [0, 1, 2, 3].map(|i| points[4 * c + i]);
                let enc = &encoded[4 * c..];
                let e = dleq_challenge(
                    &mut proof_transcript(k * CHUNK + c / 2, (c % 2) as u8),
                    &[static_enc[0], static_enc[1], enc[0], enc[1], enc[2], enc[3]],
                );
                let r = proof.response;
                // w₁·(Y₁ − r·B − e·Sᵢ) + w₂·(Y₂ − r·in − e·out).
                let (w1, w2) = (weights[2 * c], weights[2 * c + 1]);
                batch.add_static(0, -(w1 * r));
                batch.add_static(1, -(w1 * e));
                batch.add_term(w1, a1);
                batch.add_term(w2, a2);
                batch.add_term(-(w2 * r), input);
                batch.add_term(-(w2 * e), output);
            }
            if !batch.verify_cofactored(threads) {
                return Err(CryptoError::BadProof);
            }
        }
        Ok(())
    }
}

/// Applies a full tagging cascade (every member in order) to `inputs`.
pub fn apply_cascade(
    keys: &[TaggingKey],
    inputs: &[Ciphertext],
    rng: &mut dyn Rng,
) -> Vec<TaggingRound> {
    let mut rounds = Vec::with_capacity(keys.len());
    let mut current = inputs.to_vec();
    for key in keys {
        let round = key.apply(&current, rng);
        current = round.outputs.clone();
        rounds.push(round);
    }
    rounds
}

/// Verifies a tagging cascade through the batched path on the host's
/// cores and returns the final ciphertexts.
///
/// `expected_commitments` pins the member commitments so that the ballot
/// and registration cascades provably used the *same* exponents.
pub fn verify_cascade<'a>(
    inputs: &'a [Ciphertext],
    rounds: &'a [TaggingRound],
    expected_commitments: &[EdwardsPoint],
) -> Result<&'a [Ciphertext], CryptoError> {
    verify_cascade_with(
        inputs,
        rounds,
        expected_commitments,
        VerifyMode::Batched,
        crate::par::default_threads(),
    )
}

/// [`verify_cascade`] with an explicit [`VerifyMode`] and worker thread
/// count (see [`TaggingRound::verify_with`]).
pub fn verify_cascade_with<'a>(
    inputs: &'a [Ciphertext],
    rounds: &'a [TaggingRound],
    expected_commitments: &[EdwardsPoint],
    mode: VerifyMode,
    threads: usize,
) -> Result<&'a [Ciphertext], CryptoError> {
    if rounds.len() != expected_commitments.len() {
        return Err(CryptoError::Malformed("tagging cascade length"));
    }
    let mut current: &[Ciphertext] = inputs;
    for (round, expected) in rounds.iter().zip(expected_commitments.iter()) {
        if round.commitment != *expected {
            return Err(CryptoError::BadProof);
        }
        round.verify_with(current, mode, threads)?;
        current = &round.outputs;
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::elgamal::{decrypt, encrypt_point, ElGamalKeyPair};
    use vg_crypto::HmacDrbg;

    #[test]
    fn cascade_blinds_consistently() {
        let mut rng = HmacDrbg::from_u64(1);
        let kp = ElGamalKeyPair::generate(&mut rng);
        // Two encryptions of the SAME point and one of a different point.
        let p = EdwardsPoint::mul_base(&Scalar::from_u64(5));
        let q = EdwardsPoint::mul_base(&Scalar::from_u64(6));
        let cts = vec![
            encrypt_point(&kp.pk, &p, &mut rng).0,
            encrypt_point(&kp.pk, &p, &mut rng).0,
            encrypt_point(&kp.pk, &q, &mut rng).0,
        ];
        let keys: Vec<TaggingKey> = (0..4).map(|_| TaggingKey::generate(&mut rng)).collect();
        let rounds = apply_cascade(&keys, &cts, &mut rng);
        let commitments: Vec<EdwardsPoint> = keys.iter().map(|k| k.commitment).collect();
        let finals = verify_cascade(&cts, &rounds, &commitments).expect("verifies");

        // Decrypt the blinded values: equal plaintexts → equal tags,
        // different plaintexts → different tags, and no tag reveals the
        // original point.
        let tags: Vec<EdwardsPoint> = finals.iter().map(|c| decrypt(&kp.sk, c)).collect();
        assert_eq!(tags[0], tags[1]);
        assert_ne!(tags[0], tags[2]);
        assert_ne!(tags[0], p);
        assert_ne!(tags[2], q);
    }

    #[test]
    fn tampered_round_detected() {
        let mut rng = HmacDrbg::from_u64(2);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let cts = vec![
            encrypt_point(&kp.pk, &EdwardsPoint::basepoint(), &mut rng).0,
            encrypt_point(&kp.pk, &EdwardsPoint::basepoint(), &mut rng).0,
        ];
        let key = TaggingKey::generate(&mut rng);
        let mut round = key.apply(&cts, &mut rng);
        round.outputs[0].c1 += EdwardsPoint::basepoint();
        assert!(round.verify(&cts).is_err());
    }

    /// `n` encryptions of small points under a fresh key.
    fn inputs(n: u64, rng: &mut dyn Rng) -> Vec<Ciphertext> {
        let kp = ElGamalKeyPair::generate(rng);
        (1..=n)
            .map(|i| encrypt_point(&kp.pk, &EdwardsPoint::mul_base(&Scalar::from_u64(i)), rng).0)
            .collect()
    }

    #[test]
    fn apply_matches_a_loop_of_single_proofs() {
        // Same outputs, same proofs, same RNG position as proving component
        // by component — across a chunk boundary.
        let mut rng = HmacDrbg::from_u64(5);
        let cts = inputs(CHUNK as u64 + 3, &mut rng);
        let key = TaggingKey::generate(&mut rng);
        let mut rng_a = HmacDrbg::from_u64(6);
        let mut rng_b = HmacDrbg::from_u64(6);
        let round = key.apply(&cts, &mut rng_a);
        for (idx, ((input, output), proof)) in cts
            .iter()
            .zip(round.outputs.iter())
            .zip(round.proofs.iter())
            .enumerate()
        {
            assert_eq!(*output, input.scale(&key.secret));
            for (comp, g2, y2) in [(0, input.c1, output.c1), (1, input.c2, output.c2)] {
                let single = vg_crypto::chaum_pedersen::prove_dleq(
                    &mut proof_transcript(idx, comp),
                    &component_statement(&key.commitment, &g2, &y2),
                    &key.secret,
                    &mut rng_b,
                );
                assert_eq!(proof[comp as usize], single, "ciphertext {idx}/{comp}");
            }
        }
        assert_eq!(rng_a.scalar(), rng_b.scalar());
        // … and the fold spans the boundary too.
        round.verify(&cts).expect("honest round folds clean");
        round
            .verify_with(&cts, VerifyMode::Sequential, 1)
            .expect("honest round verifies one by one");
    }

    #[test]
    fn folded_and_one_by_one_agree_on_every_tamper() {
        let mut rng = HmacDrbg::from_u64(7);
        let cts = inputs(5, &mut rng);
        let round = TaggingKey::generate(&mut rng).apply(&cts, &mut rng);
        let b = EdwardsPoint::basepoint();
        let tampers: [&dyn Fn(&mut TaggingRound); 9] = [
            &|r| r.outputs[0].c1 += b,
            &|r| r.outputs[4].c2 += b,
            &|r| r.proofs[1][0].commit.a1 += b,
            &|r| r.proofs[1][1].commit.a2 += b,
            &|r| r.proofs[2][0].response += Scalar::ONE,
            &|r| r.proofs[3][1].response += Scalar::ONE,
            &|r| r.proofs.swap(0, 1),
            &|r| r.proofs[2].swap(0, 1),
            &|r| r.commitment += b,
        ];
        for (k, tamper) in tampers.iter().enumerate() {
            let mut bad = round.clone();
            tamper(&mut bad);
            for mode in [VerifyMode::Sequential, VerifyMode::Batched] {
                assert_eq!(
                    bad.verify_with(&cts, mode, 2),
                    Err(CryptoError::BadProof),
                    "tamper {k} under {mode:?}"
                );
            }
        }
        // Empty rounds pass through both paths.
        let empty = TaggingKey::generate(&mut rng).apply(&[], &mut rng);
        for mode in [VerifyMode::Sequential, VerifyMode::Batched] {
            empty.verify_with(&[], mode, 1).expect("empty round");
        }
    }

    #[test]
    fn commitment_substitution_detected() {
        // A member trying to use a different exponent for the ballot side
        // than the registration side is caught by the pinned commitments.
        let mut rng = HmacDrbg::from_u64(3);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let cts = vec![
            encrypt_point(&kp.pk, &EdwardsPoint::basepoint(), &mut rng).0,
            encrypt_point(&kp.pk, &EdwardsPoint::basepoint(), &mut rng).0,
        ];
        let key_a = TaggingKey::generate(&mut rng);
        let key_b = TaggingKey::generate(&mut rng);
        let rounds = apply_cascade(&[key_a], &cts, &mut rng);
        assert!(verify_cascade(&cts, &rounds, &[key_b.commitment]).is_err());
    }

    #[test]
    fn wrong_input_vector_detected() {
        let mut rng = HmacDrbg::from_u64(4);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let cts = vec![
            encrypt_point(&kp.pk, &EdwardsPoint::basepoint(), &mut rng).0,
            encrypt_point(&kp.pk, &EdwardsPoint::basepoint(), &mut rng).0,
        ];
        let other = vec![
            encrypt_point(&kp.pk, &EdwardsPoint::basepoint(), &mut rng).0,
            encrypt_point(&kp.pk, &EdwardsPoint::basepoint(), &mut rng).0,
        ];
        let key = TaggingKey::generate(&mut rng);
        let round = key.apply(&cts, &mut rng);
        assert!(round.verify(&other).is_err());
    }
}
