//! Distributed deterministic tagging (\[153\], §5.1, Appendix M).
//!
//! After mixing, the tally must match each ballot's (encrypted) credential
//! key against the (encrypted) real-credential tags from the registration
//! ledger — without decrypting either to its raw value. Each authority
//! member applies a secret per-election exponent sᵢ to every ciphertext
//! and proves, against a public commitment Sᵢ = sᵢ·B, that it used that
//! one exponent throughout. After all members have passed, threshold
//! decryption yields the *blinded* value (Πsᵢ)·P: equal plaintexts produce
//! equal blinded tags (enabling hash-map matching in linear time), while
//! the blinding hides the actual keys.
//!
//! # One proof per round
//!
//! A round claims outₖ = sᵢ·inₖ for the 2n components of n ciphertexts and
//! carries **one** Chaum–Pedersen proof for all of them, the batched DLEQ
//! of RFC 9497 §2.2.1: DLEQ(B, Sᵢ; G, Y) over the composites G = Σ wₖ·inₖ
//! and Y = Σ wₖ·outₖ. The prover takes Y = sᵢ·G with one multiplication;
//! the verifier recomputes both composites by multi-scalar multiplication.
//! The weights are 128-bit, non-zero, and drawn from a hash that has
//! absorbed Sᵢ, n and the encoding of every input and output component, so
//! every error point eₖ = outₖ − sᵢ·inₖ is fixed before they are: if some
//! eₖ ≠ 𝒪, Y − sᵢ·G = Σ wₖ·eₖ vanishes for at most one value of one weight
//! given the others, and a wrong component survives with probability
//! ≤ 2⁻¹²⁷ per hash query (the small-exponent bound of
//! [`vg_crypto::batch`]); otherwise the composite statement is false and
//! the proof's own soundness applies. The proof transcript binds n and the
//! weights bind order and side, so a round verifies only against the exact
//! input vector it was made for.
//!
//! Transcript points are curve-checked, not subgroup-checked, so — as for
//! every tally proof — all of this holds modulo E\[8\]: a torsion offset on
//! an output survives on an even weight or an even challenge, and
//! `match_tags`/`count_votes` decide on cofactor-cleared images.

use vg_crypto::batch::{BatchVerifier, CommittedWeights};
use vg_crypto::chaum_pedersen::{dleq_challenge, prove_dleq_with, DlEqProof, DlEqStatement};
use vg_crypto::drbg::Rng;
use vg_crypto::edwards::multiscalar_mul;
use vg_crypto::elgamal::Ciphertext;
use vg_crypto::par::{default_threads, par_map};
use vg_crypto::{CryptoError, EdwardsPoint, Scalar, Transcript};

/// Ciphertexts absorbed, weighted and folded per pass of [`composites`],
/// so neither side's working memory grows with the vector. Part of the
/// proof format: weights are drawn chunk by chunk.
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
    /// round: two multiplications and two short multi-scalar terms per
    /// ciphertext, one nonce per round. The multiplications run on the
    /// host's cores; the weights' hash and the proof's one draw stay on
    /// this thread.
    pub fn apply(&self, inputs: &[Ciphertext], rng: &mut dyn Rng) -> TaggingRound {
        self.apply_with(inputs, rng.scalar())
    }

    /// [`TaggingKey::apply`] with the proof's one nonce drawn beforehand:
    /// the same round, and no DRBG needed.
    pub fn apply_with(&self, inputs: &[Ciphertext], nonce: Scalar) -> TaggingRound {
        let outputs = par_map(inputs, default_threads(), |c| c.scale(&self.secret));
        let (_, [g]) = composites(&self.commitment, inputs, &outputs, [inputs]);
        let proof = prove_dleq_with(
            &mut round_transcript(inputs.len()),
            &round_statement(&self.commitment, &g, &(g * self.secret)),
            &self.secret,
            nonce,
        );
        TaggingRound {
            commitment: self.commitment,
            outputs,
            proof,
        }
    }
}

/// Draws the round's weights and folds them over each of `vectors` (the
/// round's inputs and, for a verifier, its outputs): Σ wₖ·vₖ over the 2n
/// components, first component first. The weight commitment has absorbed
/// Sᵢ, n and every input and output component before the first weight is
/// drawn (chunk k's after absorbing k); it is returned so a fold can go
/// on to bind the proof.
fn composites<const N: usize>(
    commitment: &EdwardsPoint,
    inputs: &[Ciphertext],
    outputs: &[Ciphertext],
    vectors: [&[Ciphertext]; N],
) -> (CommittedWeights, [EdwardsPoint; N]) {
    let mut seal = CommittedWeights::new(b"votegral-tagging-weights-v1");
    seal.absorb(&commitment.compress().0);
    seal.absorb(&(inputs.len() as u64).to_le_bytes());
    for (inputs, outputs) in inputs.chunks(CHUNK).zip(outputs.chunks(CHUNK)) {
        let points: Vec<EdwardsPoint> = inputs
            .iter()
            .zip(outputs)
            .flat_map(|(i, o)| [i.c1, i.c2, o.c1, o.c2])
            .collect();
        for enc in EdwardsPoint::batch_compress(&points) {
            seal.absorb(&enc.0);
        }
    }
    let mut sums = [EdwardsPoint::IDENTITY; N];
    for (k, lo) in (0..inputs.len()).step_by(CHUNK).enumerate() {
        let hi = (lo + CHUNK).min(inputs.len());
        seal.absorb(&(k as u64).to_le_bytes());
        let weights = seal.weights(2 * (hi - lo));
        for (sum, vector) in sums.iter_mut().zip(vectors) {
            let points: Vec<EdwardsPoint> =
                vector[lo..hi].iter().flat_map(|c| [c.c1, c.c2]).collect();
            *sum += multiscalar_mul(&weights, &points);
        }
    }
    (seal, sums)
}

fn round_statement(commitment: &EdwardsPoint, g: &EdwardsPoint, y: &EdwardsPoint) -> DlEqStatement {
    DlEqStatement {
        g1: EdwardsPoint::basepoint(),
        y1: *commitment,
        g2: *g,
        y2: *y,
    }
}

fn round_transcript(n: usize) -> Transcript {
    let mut t = Transcript::new(b"votegral-tagging-round-v1");
    t.append_u64(b"tag-n", n as u64);
    t
}

/// One member's verifiable pass over a ciphertext vector.
#[derive(Clone, Debug)]
pub struct TaggingRound {
    /// The member's public commitment Sᵢ.
    pub commitment: EdwardsPoint,
    /// sᵢ-scaled ciphertexts.
    pub outputs: Vec<Ciphertext>,
    /// The round's one proof: DLEQ(B, Sᵢ; G, Y), see the [module docs](self).
    pub proof: DlEqProof,
}

impl TaggingRound {
    /// Verifies the round against its inputs: recomputes the weights and
    /// both composites, then checks the one proof as one cofactored fold
    /// of its two equations on the host's cores. It accepts what the exact
    /// DLEQ check accepts, with the relation taken modulo the 8-torsion
    /// (why the tally decides on cofactor-cleared plaintexts).
    pub fn verify(&self, inputs: &[Ciphertext]) -> Result<(), CryptoError> {
        if self.outputs.len() != inputs.len() {
            return Err(CryptoError::Malformed("tagging round lengths"));
        }
        let (mut seal, [g, y]) = composites(
            &self.commitment,
            inputs,
            &self.outputs,
            [inputs, &self.outputs],
        );
        let DlEqProof { commit, response } = self.proof;
        let statics = [EdwardsPoint::basepoint(), self.commitment];
        let points = [statics[0], statics[1], g, y, commit.a1, commit.a2];
        let enc = EdwardsPoint::batch_compress(&points);
        let e = dleq_challenge(
            &mut round_transcript(inputs.len()),
            enc[..].try_into().expect("six points, six encodings"),
        );
        // The weights of the proof's two equations commit to the proof as
        // well as to the statement.
        seal.absorb(&enc[4].0).absorb(&enc[5].0);
        let w = seal.absorb(&response.to_bytes()).weights(2);
        // w₁·(Y₁ − r·B − e·Sᵢ) + w₂·(Y₂ − r·G − e·Y).
        let mut batch = BatchVerifier::new(&statics);
        batch.add_static(0, -(w[0] * response));
        batch.add_static(1, -(w[0] * e));
        batch.add_term(w[0], commit.a1);
        batch.add_term(w[1], commit.a2);
        batch.add_term(-(w[1] * response), g);
        batch.add_term(-(w[1] * e), y);
        if batch.verify_cofactored(default_threads()) {
            Ok(())
        } else {
            Err(CryptoError::BadProof)
        }
    }
}

/// Applies a full tagging cascade (every member in order) to `inputs`:
/// [`cascade_nonces`] then [`apply_cascade_with`].
pub fn apply_cascade(
    keys: &[TaggingKey],
    inputs: &[Ciphertext],
    rng: &mut dyn Rng,
) -> Vec<TaggingRound> {
    let nonces = cascade_nonces(keys.len(), rng);
    apply_cascade_with(keys, inputs, &nonces)
}

/// Draws the nonces a cascade of `rounds` rounds takes, one per round in
/// member order, as [`apply_cascade`] draws them.
pub fn cascade_nonces(rounds: usize, rng: &mut dyn Rng) -> Vec<Scalar> {
    (0..rounds).map(|_| rng.scalar()).collect()
}

/// [`apply_cascade`] on nonces drawn beforehand by [`cascade_nonces`]: the
/// same rounds, and no DRBG needed.
///
/// # Panics
///
/// Panics unless there is one nonce per key.
pub fn apply_cascade_with(
    keys: &[TaggingKey],
    inputs: &[Ciphertext],
    nonces: &[Scalar],
) -> Vec<TaggingRound> {
    assert_eq!(keys.len(), nonces.len(), "one nonce per round");
    let mut rounds: Vec<TaggingRound> = Vec::with_capacity(keys.len());
    for (key, nonce) in keys.iter().zip(nonces) {
        let current = rounds.last().map_or(inputs, |r| r.outputs.as_slice());
        rounds.push(key.apply_with(current, *nonce));
    }
    rounds
}

/// Verifies a tagging cascade round by round ([`TaggingRound::verify`])
/// and returns the final ciphertexts.
///
/// `expected_commitments` pins the member commitments so that the ballot
/// and registration cascades provably used the *same* exponents.
pub fn verify_cascade<'a>(
    inputs: &'a [Ciphertext],
    rounds: &'a [TaggingRound],
    expected_commitments: &[EdwardsPoint],
) -> Result<&'a [Ciphertext], CryptoError> {
    if rounds.len() != expected_commitments.len() {
        return Err(CryptoError::Malformed("tagging cascade length"));
    }
    let mut current: &[Ciphertext] = inputs;
    for (round, expected) in rounds.iter().zip(expected_commitments.iter()) {
        if round.commitment != *expected {
            return Err(CryptoError::BadProof);
        }
        round.verify(current)?;
        current = &round.outputs;
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::chaum_pedersen::{prove_dleq, verify_dleq};
    use vg_crypto::elgamal::{decrypt, encrypt_point, ElGamalKeyPair};
    use vg_crypto::HmacDrbg;

    /// The exact check the fold is held against: the round's one DLEQ
    /// proof verified on its own statement, torsion included.
    fn verify_exact(round: &TaggingRound, inputs: &[Ciphertext]) -> Result<(), CryptoError> {
        if round.outputs.len() != inputs.len() {
            return Err(CryptoError::Malformed("tagging round lengths"));
        }
        let outputs = &round.outputs;
        let (_, [g, y]) = composites(&round.commitment, inputs, outputs, [inputs, outputs]);
        verify_dleq(
            &mut round_transcript(inputs.len()),
            &round_statement(&round.commitment, &g, &y),
            &round.proof,
        )
    }

    /// The fold and the exact check on `round`, by name.
    fn verdicts(
        round: &TaggingRound,
        inputs: &[Ciphertext],
    ) -> [(&'static str, Result<(), CryptoError>); 2] {
        [
            ("fold", round.verify(inputs)),
            ("exact", verify_exact(round, inputs)),
        ]
    }

    /// A tagging cascade's bytes and the DRBG position after it, pinned
    /// before the prover was split into its draws and its arithmetic.
    #[test]
    fn cascade_bytes_and_drbg_position_are_pinned() {
        for split in [false, true] {
            let mut rng = HmacDrbg::from_u64(41);
            let cts = inputs(20, &mut rng);
            let keys: Vec<TaggingKey> = (0..3).map(|_| TaggingKey::generate(&mut rng)).collect();
            let rounds = if split {
                let nonces = cascade_nonces(keys.len(), &mut rng);
                apply_cascade_with(&keys, &cts, &nonces)
            } else {
                apply_cascade(&keys, &cts, &mut rng)
            };
            let mut h = vg_crypto::sha2::Sha256::new();
            h.update(format!("{rounds:?}").as_bytes());
            h.update(&rng.bytes32());
            let digest: String = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(
                digest, "6551bd495b76ad2da5046afa0cb533dc4f6efac406131e6b4bc1d5c6a07cc067",
                "split: {split}"
            );
        }
    }

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

    /// `n` encryptions of small points under a fresh key.
    fn inputs(n: u64, rng: &mut dyn Rng) -> Vec<Ciphertext> {
        let kp = ElGamalKeyPair::generate(rng);
        (1..=n)
            .map(|i| encrypt_point(&kp.pk, &EdwardsPoint::mul_base(&Scalar::from_u64(i)), rng).0)
            .collect()
    }

    fn assert_rejected(round: &TaggingRound, inputs: &[Ciphertext], what: &str) {
        for (check, verdict) in verdicts(round, inputs) {
            assert_eq!(verdict, Err(CryptoError::BadProof), "{what} under {check}");
        }
    }

    #[test]
    fn one_proof_covers_the_round_and_draws_one_nonce() {
        // Across a chunk boundary: every output is sᵢ·input, the round's
        // cost in randomness is one scalar, and both paths accept — as
        // they do the empty and the one-element round.
        let mut rng = HmacDrbg::from_u64(5);
        let cts = inputs(CHUNK as u64 + 3, &mut rng);
        let key = TaggingKey::generate(&mut rng);
        for n in [0, 1, cts.len()] {
            let mut rng_a = HmacDrbg::from_u64(6);
            let mut rng_b = HmacDrbg::from_u64(6);
            let round = key.apply(&cts[..n], &mut rng_a);
            for (input, output) in cts.iter().zip(round.outputs.iter()) {
                assert_eq!(*output, input.scale(&key.secret));
            }
            rng_b.scalar();
            assert_eq!(rng_a.scalar(), rng_b.scalar(), "{n} ciphertexts");
            for (check, verdict) in verdicts(&round, &cts[..n]) {
                assert_eq!(verdict, Ok(()), "honest round under {check}");
            }
        }
    }

    #[test]
    fn one_bad_output_at_any_position_is_rejected() {
        // A wrong component cannot hide among good ones, wherever it sits.
        let mut rng = HmacDrbg::from_u64(7);
        let cts = inputs(6, &mut rng);
        let round = TaggingKey::generate(&mut rng).apply(&cts, &mut rng);
        let b = EdwardsPoint::basepoint();
        for item in 0..cts.len() {
            for comp in 0..2 {
                let mut bad = round.clone();
                match comp {
                    0 => bad.outputs[item].c1 += b,
                    _ => bad.outputs[item].c2 += b,
                }
                assert_rejected(&bad, &cts, &format!("output {item}/{comp}"));
            }
        }
        // Two errors that cancel under equal weights do not under the
        // round's.
        let mut bad = round.clone();
        bad.outputs[0].c1 += b;
        bad.outputs[1].c1 -= b;
        assert_rejected(&bad, &cts, "cancelling pair");
        // The proof's own fields and the commitment are bound too.
        let tampers: [&dyn Fn(&mut TaggingRound); 4] = [
            &|r| r.proof.commit.a1 += b,
            &|r| r.proof.commit.a2 += b,
            &|r| r.proof.response += Scalar::ONE,
            &|r| r.commitment += b,
        ];
        for (k, tamper) in tampers.iter().enumerate() {
            let mut bad = round.clone();
            tamper(&mut bad);
            assert_rejected(&bad, &cts, &format!("proof tamper {k}"));
        }
    }

    #[test]
    fn round_is_bound_to_its_exact_input_vector() {
        // Weights and n bind order and length: a round — every output of
        // which is a correct sᵢ·input — does not verify against the same
        // pairs permuted, truncated or extended.
        let mut rng = HmacDrbg::from_u64(8);
        let cts = inputs(5, &mut rng);
        let key = TaggingKey::generate(&mut rng);
        let round = key.apply(&cts, &mut rng);

        let (mut swapped_in, mut swapped) = (cts.clone(), round.clone());
        swapped_in.swap(1, 3);
        swapped.outputs.swap(1, 3);
        assert_rejected(&swapped, &swapped_in, "permuted");

        let mut truncated = round.clone();
        truncated.outputs.pop();
        assert_rejected(&truncated, &cts[..4], "truncated");

        let (mut longer_in, mut extended) = (cts.clone(), round.clone());
        longer_in.push(cts[0]);
        extended.outputs.push(round.outputs[0]);
        assert_rejected(&extended, &longer_in, "extended");

        // Lengths that disagree are malformed before any proof is read.
        for (check, verdict) in verdicts(&round, &cts[..4]) {
            let malformed = Err(CryptoError::Malformed("tagging round lengths"));
            assert_eq!(verdict, malformed, "{check}");
        }
        // Another round's proof over the same vector does not transplant.
        let mut other = key.apply(&swapped_in, &mut rng);
        other.outputs = round.outputs.clone();
        assert_rejected(&other, &cts, "transplanted proof");
    }

    /// T₂ = (0, −1), the point of order 2.
    fn t2() -> EdwardsPoint {
        let mut enc = [0xffu8; 32];
        enc[0] = 0xec;
        enc[31] = 0x7f;
        vg_crypto::CompressedPoint(enc)
            .decompress()
            .expect("on curve")
    }

    #[test]
    fn torsion_offset_survives_only_on_an_even_weight_or_challenge() {
        // A member that adds T₂ to one output — before proving, since the
        // weights commit to every output — moves Y off sᵢ·G by wₖ·T₂. With
        // wₖ even nothing moved. With wₖ odd its proof leaves an error
        // e·T₂: the cofactored fold never sees it, the exact check does
        // unless the member regrinds its nonce to an even challenge.
        let mut rng = HmacDrbg::from_u64(9);
        let cts = inputs(8, &mut rng);
        let key = TaggingKey::generate(&mut rng);
        let honest = key.apply(&cts, &mut rng);
        let (mut even, mut odd) = (0, 0);
        for victim in 0..cts.len() {
            let mut shifted = honest.clone();
            shifted.outputs[victim].c2 += t2();
            assert_rejected(&shifted, &cts, "the honest proof, outputs moved");
            let (_, [g, y]) = composites(
                &key.commitment,
                &cts,
                &shifted.outputs,
                [&cts, &shifted.outputs],
            );
            let stmt = round_statement(&key.commitment, &g, &y);
            let mut prove = || {
                prove_dleq(
                    &mut round_transcript(cts.len()),
                    &stmt,
                    &key.secret,
                    &mut rng,
                )
            };
            let weight_is_even = y == g * key.secret;
            assert!(weight_is_even || y == g * key.secret + t2());
            *(if weight_is_even { &mut even } else { &mut odd }) += 1;
            // Every fresh proof passes the fold; the exact check needs an
            // even weight or grinds for an even challenge.
            let mut grinds = 0;
            loop {
                shifted.proof = prove();
                shifted
                    .verify(&cts)
                    .expect("the cofactored fold is blind to torsion");
                match verify_exact(&shifted, &cts) {
                    Ok(()) => break,
                    Err(_) => grinds += 1,
                }
                assert!(
                    !weight_is_even && grinds < 64,
                    "victim {victim}: {grinds} grinds"
                );
            }
        }
        assert!(even > 0 && odd > 0, "{even} even and {odd} odd weights");
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
