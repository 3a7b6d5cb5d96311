//! Mix cascade: sequential verifiable shuffles by independent mixers.
//!
//! Votegral anonymizes ballots and registration tags through a cascade of
//! mixers \[37\]: each mixer re-encrypts and permutes the previous stage's
//! output, attaching a Bayer–Groth proof. Privacy holds if *any* mixer is
//! honest; integrity holds unconditionally because every stage is publicly
//! verifiable. The paper's evaluation fixes four mixers (Fig 5), matching
//! [`MixCascade::DEFAULT_MIXERS`].
//!
//! The cascade is generic over the [`Row`] it moves: one mix loop and one
//! pair of verifiers — [`MixCascade::verify`] stage by stage,
//! [`MixCascade::verify_batch`] as one fold — serve the registration-tag
//! mix ([`MixTranscript`]) and the ballot-pair mix ([`PairMixTranscript`]).

use std::fmt;

use vg_crypto::drbg::Rng;
use vg_crypto::edwards::EdwardsPoint;
use vg_crypto::elgamal::Ciphertext;
use vg_crypto::CryptoError;

use crate::batch::{verify_cascade_batch, StageRef};
use crate::shuffle::{Row, RowShuffleProof, ShuffleCoins, ShuffleContext};

/// One mixer's contribution to a cascade over rows of type `R`.
#[derive(Clone)]
pub struct RowMixStage<R: Row> {
    /// Output rows of this stage.
    pub outputs: Vec<R>,
    /// The shuffle proof for this stage.
    pub proof: RowShuffleProof<R>,
}

/// The public transcript of a complete cascade run over rows of type `R`.
#[derive(Clone)]
pub struct RowMixTranscript<R: Row> {
    /// Input rows to the first stage.
    pub inputs: Vec<R>,
    /// Each mixer's outputs and proof, in order.
    pub stages: Vec<RowMixStage<R>>,
}

/// One mixer's contribution to the registration-tag mix.
pub type MixStage = RowMixStage<Ciphertext>;
/// The transcript of the registration-tag mix.
pub type MixTranscript = RowMixTranscript<Ciphertext>;
/// One mixer's contribution to the ballot mix.
pub type PairMixStage = RowMixStage<(Ciphertext, Ciphertext)>;
/// The transcript of the ballot mix, which moves (vote, credential-key)
/// pairs under one permutation.
pub type PairMixTranscript = RowMixTranscript<(Ciphertext, Ciphertext)>;

// Both print under their width's pre-generic name (`MixStage` /
// `PairMixStage`, …); see the `Debug` impl of [`RowShuffleProof`].
impl<R: Row> fmt::Debug for RowMixStage<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(R::TYPE_NAMES[1])
            .field("outputs", &self.outputs)
            .field("proof", &self.proof)
            .finish()
    }
}

impl<R: Row> fmt::Debug for RowMixTranscript<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(R::TYPE_NAMES[2])
            .field("inputs", &self.inputs)
            .field("stages", &self.stages)
            .finish()
    }
}

impl<R: Row> RowMixTranscript<R> {
    /// Final anonymized rows.
    pub fn outputs(&self) -> &[R] {
        self.stages
            .last()
            .map(|s| s.outputs.as_slice())
            .unwrap_or(&self.inputs)
    }
}

/// A cascade of verifiable shufflers over a shared commitment key.
pub struct MixCascade {
    ctx: ShuffleContext,
    mixers: usize,
}

impl MixCascade {
    /// The paper's evaluation configuration: four shufflers (§7, Fig 5).
    pub const DEFAULT_MIXERS: usize = 4;

    /// Creates a cascade of `mixers` shufflers handling up to `max_n`
    /// rows.
    pub fn new(max_n: usize, mixers: usize) -> Self {
        assert!(mixers >= 1, "cascade needs at least one mixer");
        Self {
            ctx: ShuffleContext::new(max_n),
            mixers,
        }
    }

    /// Number of mixers in the cascade.
    pub fn mixers(&self) -> usize {
        self.mixers
    }

    /// The shared shuffle context (for external per-stage use).
    pub fn context(&self) -> &ShuffleContext {
        &self.ctx
    }

    /// Runs the full cascade over `inputs` — single ciphertexts or linked
    /// pairs — producing a verifiable transcript. Each mixer reads the
    /// previous stage's outputs where the transcript holds them.
    ///
    /// [`MixCascade::draw`] then [`MixCascade::mix_with`].
    pub fn mix<R: Row>(
        &self,
        pk: &EdwardsPoint,
        inputs: &[R],
        rng: &mut dyn Rng,
    ) -> RowMixTranscript<R> {
        let coins = self.draw(inputs.len(), rng);
        self.mix_with(pk, inputs, coins)
    }

    /// Draws every stage's coins for a cascade over `n` rows, stage by
    /// stage, in the order [`MixCascade::mix`] draws them.
    pub fn draw<R: Row>(&self, n: usize, rng: &mut dyn Rng) -> Vec<ShuffleCoins<R>> {
        (0..self.mixers).map(|_| self.ctx.draw(n, rng)).collect()
    }

    /// The arithmetic of [`MixCascade::mix`] on coins drawn apart from it:
    /// the same transcript, and no DRBG needed. The stages' coins
    /// ([`ShuffleContext::draw`], one stage each, in stage order) are
    /// taken one at a time as each stage starts, so they can still be
    /// arriving — say over a channel from the thread that draws them —
    /// while the first stages run.
    ///
    /// # Panics
    ///
    /// Panics unless `coins` yields one stage's coins per mixer, each
    /// drawn for `inputs.len()` rows.
    pub fn mix_with<R: Row>(
        &self,
        pk: &EdwardsPoint,
        inputs: &[R],
        coins: impl IntoIterator<Item = ShuffleCoins<R>>,
    ) -> RowMixTranscript<R> {
        let mut stages: Vec<RowMixStage<R>> = Vec::with_capacity(self.mixers);
        for coins in coins {
            assert!(stages.len() < self.mixers, "one stage's coins per mixer");
            let current = stages.last().map_or(inputs, |s| s.outputs.as_slice());
            let (outputs, proof) = self.ctx.shuffle_with(pk, current, coins);
            stages.push(RowMixStage { outputs, proof });
        }
        assert_eq!(stages.len(), self.mixers, "one stage's coins per mixer");
        RowMixTranscript {
            inputs: inputs.to_vec(),
            stages,
        }
    }

    /// [`MixCascade::mix`] under the name the lifecycle benchmark's adapter
    /// calls for the ballot mix.
    pub fn mix_pairs(
        &self,
        pk: &EdwardsPoint,
        inputs: &[(Ciphertext, Ciphertext)],
        rng: &mut dyn Rng,
    ) -> PairMixTranscript {
        self.mix(pk, inputs, rng)
    }

    /// Verifies every stage's proof on its own, in cascade order, and
    /// returns the final outputs. The one-by-one check: it is the reference
    /// the Fig 5 baselines time, and it fails at the first bad stage.
    pub fn verify<'a, R: Row>(
        &self,
        pk: &EdwardsPoint,
        transcript: &'a RowMixTranscript<R>,
    ) -> Result<&'a [R], CryptoError> {
        for (s_in, s_out, proof) in self.stages(transcript)? {
            self.ctx.verify(pk, s_in, s_out, proof)?;
        }
        Ok(transcript.outputs())
    }

    /// Verifies a cascade transcript by folding every stage's proof
    /// equations into one multi-scalar check, with the equation collection
    /// parallelized over up to `threads` workers, and returns the final
    /// outputs. The tally verifier's path.
    ///
    /// # Soundness
    ///
    /// The fold checks 8·Σⱼ wⱼ·Eⱼ = 𝒪 for the stages' equations Eⱼ = 𝒪
    /// with independent random 128-bit weights wⱼ (a *small-exponent
    /// random linear combination*). Decoding checks that a point is on the
    /// curve, not that it is in the prime-order subgroup, so each error is
    /// Eⱼ = eⱼ·B + Tⱼ with Tⱼ in the 8-torsion E\[8\]. If some eⱼ ≠ 0 mod ℓ,
    /// a uniformly random wⱼ satisfies the folded congruence with
    /// probability at most 2⁻¹²⁷. The Tⱼ are cleared, as
    /// [`MixCascade::verify`] clears them, so the two verifiers agree on
    /// every transcript (see [`vg_crypto::batch`]). Each stage's weights are derived from that stage's own
    /// Fiat–Shamir transcript hash after additionally absorbing the
    /// proof's response scalars, so they commit to the stage's complete
    /// statement and proof: a cheating mixer cannot choose its stage proof
    /// after learning the weights that will scale its equations — any
    /// change to the proof re-randomizes them, and grinding proofs against
    /// the hash buys only 2⁻¹²⁷ per attempt. Small (128-bit rather than
    /// 253-bit) weights keep that bound while halving the weighting cost,
    /// the classical Bellare–Garay–Rabin trade-off. See
    /// [`vg_crypto::batch`] for the primitive.
    pub fn verify_batch<'a, R: Row>(
        &self,
        pk: &EdwardsPoint,
        transcript: &'a RowMixTranscript<R>,
        threads: usize,
    ) -> Result<&'a [R], CryptoError> {
        let stages = self.stages(transcript)?;
        verify_cascade_batch(&self.ctx, pk, &transcript.inputs, &stages, threads)?;
        Ok(transcript.outputs())
    }

    /// Each stage with its input rows, once the stage count is checked.
    fn stages<'a, R: Row>(
        &self,
        transcript: &'a RowMixTranscript<R>,
    ) -> Result<Vec<StageRef<'a, R>>, CryptoError> {
        if transcript.stages.len() != self.mixers {
            return Err(CryptoError::Malformed("wrong number of mix stages"));
        }
        let outputs = transcript.stages.iter().map(|s| s.outputs.as_slice());
        let inputs = std::iter::once(transcript.inputs.as_slice()).chain(outputs);
        let stages = inputs.zip(&transcript.stages);
        Ok(stages
            .map(|(s_in, s)| (s_in, s.outputs.as_slice(), &s.proof))
            .collect())
    }

    /// [`MixCascade::verify_batch`] under the name the lifecycle
    /// benchmark's adapter calls for the ballot mix.
    pub fn verify_pairs_batch<'a>(
        &self,
        pk: &EdwardsPoint,
        transcript: &'a PairMixTranscript,
        threads: usize,
    ) -> Result<&'a [(Ciphertext, Ciphertext)], CryptoError> {
        self.verify_batch(pk, transcript, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shuffle::tests::sample_rows as rows;
    use std::collections::HashSet;
    use vg_crypto::elgamal::{decrypt, encrypt_point, ElGamalKeyPair};
    use vg_crypto::scalar::Scalar;
    use vg_crypto::HmacDrbg;

    type Pair = (Ciphertext, Ciphertext);

    /// Both verifiers' verdicts on `transcript`: per stage, then folded.
    fn verdicts<'a, R: Row>(
        cascade: &MixCascade,
        pk: &EdwardsPoint,
        transcript: &'a RowMixTranscript<R>,
    ) -> [(&'static str, Result<&'a [R], CryptoError>); 2] {
        [
            ("verify", cascade.verify(pk, transcript)),
            ("verify_batch", cascade.verify_batch(pk, transcript, 2)),
        ]
    }

    #[test]
    fn cascade_roundtrip() {
        let mut rng = HmacDrbg::from_u64(1);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let inputs: Vec<Ciphertext> = rows(6, 0, &kp, &mut rng);
        let cascade = MixCascade::new(6, MixCascade::DEFAULT_MIXERS);
        let transcript = cascade.mix(&kp.pk, &inputs, &mut rng);
        let outputs = cascade.verify(&kp.pk, &transcript).expect("verifies");

        let plain = |cts: &[Ciphertext]| -> HashSet<_> {
            cts.iter().map(|c| decrypt(&kp.sk, c).compress()).collect()
        };
        assert_eq!(plain(&inputs), plain(outputs));
    }

    #[test]
    fn drawn_coins_mix_like_the_drbg() {
        // `draw` then `mix_with`, on a Vec or on coins sent stage by stage
        // over a channel, is `mix`: the same transcript, and the DRBG left
        // at the same place.
        let run = |how: &str| {
            let mut rng = HmacDrbg::from_u64(12);
            let kp = ElGamalKeyPair::generate(&mut rng);
            let inputs: Vec<Pair> = rows(5, 100, &kp, &mut rng);
            let cascade = MixCascade::new(5, 3);
            let transcript = match how {
                "mix" => cascade.mix(&kp.pk, &inputs, &mut rng),
                "vec" => {
                    let coins = cascade.draw::<Pair>(inputs.len(), &mut rng);
                    cascade.mix_with(&kp.pk, &inputs, coins)
                }
                _ => {
                    let (tx, rx) = std::sync::mpsc::channel();
                    for _ in 0..cascade.mixers() {
                        tx.send(cascade.context().draw::<Pair>(inputs.len(), &mut rng))
                            .expect("receiver alive");
                    }
                    drop(tx);
                    cascade.mix_with(&kp.pk, &inputs, rx)
                }
            };
            crate::shuffle::tests::digest_then_position(&transcript, &mut rng)
        };
        let mixed = run("mix");
        assert_eq!(run("vec"), mixed);
        assert_eq!(run("channel"), mixed);
    }

    #[test]
    #[should_panic(expected = "one stage's coins per mixer")]
    fn mix_with_too_few_stages_panics() {
        let mut rng = HmacDrbg::from_u64(13);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let inputs: Vec<Ciphertext> = rows(4, 0, &kp, &mut rng);
        let cascade = MixCascade::new(4, 3);
        let mut coins = cascade.draw::<Ciphertext>(inputs.len(), &mut rng);
        coins.pop();
        cascade.mix_with(&kp.pk, &inputs, coins);
    }

    #[test]
    fn dishonest_middle_mixer_detected() {
        let mut rng = HmacDrbg::from_u64(2);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let inputs: Vec<Ciphertext> = rows(4, 0, &kp, &mut rng);
        let cascade = MixCascade::new(4, 3);
        let mut transcript = cascade.mix(&kp.pk, &inputs, &mut rng);
        // Mixer 1 swaps in a ballot of its choosing after proving.
        transcript.stages[1].outputs[0] =
            encrypt_point(&kp.pk, &EdwardsPoint::basepoint(), &mut rng).0;
        assert!(cascade.verify(&kp.pk, &transcript).is_err());
    }

    #[test]
    fn pair_cascade_keeps_pairs_linked() {
        let mut rng = HmacDrbg::from_u64(10);
        let kp = ElGamalKeyPair::generate(&mut rng);
        // Pair i carries (g^i, g^(100+i)): after mixing, decrypted pairs
        // must still be matched (vote stays with its credential).
        let inputs: Vec<Pair> = rows(5, 100, &kp, &mut rng);
        let cascade = MixCascade::new(5, 3);
        let transcript = cascade.mix_pairs(&kp.pk, &inputs, &mut rng);
        let outputs = cascade.verify(&kp.pk, &transcript).expect("verifies");

        let mut seen = HashSet::new();
        for (ca, cb) in outputs {
            let a = decrypt(&kp.sk, ca);
            let b = decrypt(&kp.sk, cb);
            // b must equal a shifted by g^100: the linkage survived.
            assert_eq!(b, a + EdwardsPoint::mul_base(&Scalar::from_u64(100)));
            seen.insert(a.compress());
        }
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn pair_cascade_detects_column_swap() {
        let mut rng = HmacDrbg::from_u64(11);
        let kp = ElGamalKeyPair::generate(&mut rng);
        // Both columns of a row carry the same plaintext.
        let inputs: Vec<Pair> = rows(4, 0, &kp, &mut rng);
        let cascade = MixCascade::new(4, 2);
        let mut transcript = cascade.mix(&kp.pk, &inputs, &mut rng);
        // A malicious mixer swaps the second column of two outputs,
        // unlinking votes from credentials.
        let last = transcript.stages.len() - 1;
        let tmp = transcript.stages[last].outputs[0].1;
        transcript.stages[last].outputs[0].1 = transcript.stages[last].outputs[1].1;
        transcript.stages[last].outputs[1].1 = tmp;
        assert!(cascade.verify(&kp.pk, &transcript).is_err());
    }

    #[test]
    fn batched_verify_matches_sequential() {
        let mut rng = HmacDrbg::from_u64(20);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let inputs: Vec<Ciphertext> = rows(8, 0, &kp, &mut rng);
        for mixers in [1usize, 2, 4] {
            let cascade = MixCascade::new(8, mixers);
            let transcript = cascade.mix(&kp.pk, &inputs, &mut rng);
            let seq = cascade.verify(&kp.pk, &transcript).expect("sequential");
            let bat = cascade
                .verify_batch(&kp.pk, &transcript, 2)
                .expect("batched");
            assert_eq!(seq, bat, "mixers={mixers}");
            assert!(cascade.verify_batch(&kp.pk, &transcript, 1).is_ok());
        }
    }

    #[test]
    fn batched_verify_rejects_what_sequential_rejects() {
        let mut rng = HmacDrbg::from_u64(21);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let inputs: Vec<Ciphertext> = rows(5, 0, &kp, &mut rng);
        let cascade = MixCascade::new(5, 3);
        let good = cascade.mix(&kp.pk, &inputs, &mut rng);

        // Tampered middle-stage output.
        let mut bad = good.clone();
        bad.stages[1].outputs[2].c1 += EdwardsPoint::basepoint();
        assert!(cascade.verify(&kp.pk, &bad).is_err());
        assert!(cascade.verify_batch(&kp.pk, &bad, 2).is_err());

        // Tampered proof commitment.
        let mut bad = good.clone();
        bad.stages[2].proof.c_b += EdwardsPoint::basepoint();
        assert!(cascade.verify(&kp.pk, &bad).is_err());
        assert!(cascade.verify_batch(&kp.pk, &bad, 2).is_err());

        // Tampered opening scalar.
        let mut bad = good.clone();
        bad.stages[0].proof.mexp[0].rho_tilde += Scalar::ONE;
        assert!(cascade.verify(&kp.pk, &bad).is_err());
        assert!(cascade.verify_batch(&kp.pk, &bad, 2).is_err());

        // Missing stage.
        let mut bad = good.clone();
        bad.stages.pop();
        assert!(cascade.verify(&kp.pk, &bad).is_err());
        assert!(cascade.verify_batch(&kp.pk, &bad, 2).is_err());
    }

    #[test]
    fn t2_shifted_output_gets_one_verdict_from_both_verifiers() {
        // A mixer adds T₂ = (0, −1), of order 2, to one output's C₁ and
        // proves over what it publishes: its multi-exponentiation
        // equation is left an error of order 2 or none, by the parity of
        // a response. The stage-by-stage check and the fold take it alike
        // at every position, where the fold's verdict used to turn on its
        // weight. The honest proof, outputs moved, fails both.
        let mut enc = [0xffu8; 32];
        enc[0] = 0xec;
        enc[31] = 0x7f;
        let t2 = vg_crypto::CompressedPoint(enc)
            .decompress()
            .expect("on curve");
        let mut rng = HmacDrbg::from_u64(23);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let inputs: Vec<Ciphertext> = rows(6, 0, &kp, &mut rng);
        let cascade = MixCascade::new(6, 1);
        let perm: Vec<usize> = (0..6).rev().collect();
        let rho = vec![(0..6).map(|_| rng.scalar()).collect::<Vec<_>>()];
        let honest: Vec<Ciphertext> = perm
            .iter()
            .zip(&rho[0])
            .map(|(&from, r)| vg_crypto::elgamal::rerandomize_with(&kp.pk, &inputs[from], r))
            .collect();
        let ctx = cascade.context();
        let proof = ctx.prove(&kp.pk, &inputs, &honest, &perm, &rho, &mut rng);
        for victim in 0..6 {
            let mut outputs = honest.clone();
            outputs[victim].c1 += t2;
            let stale = RowMixTranscript {
                inputs: inputs.clone(),
                stages: vec![RowMixStage {
                    outputs: outputs.clone(),
                    proof: proof.clone(),
                }],
            };
            for (name, verdict) in verdicts(&cascade, &kp.pk, &stale) {
                assert!(verdict.is_err(), "stale proof, victim {victim}, {name}");
            }
            let proof = ctx.prove(&kp.pk, &inputs, &outputs, &perm, &rho, &mut rng);
            let reproved = RowMixTranscript {
                inputs: inputs.clone(),
                stages: vec![RowMixStage { outputs, proof }],
            };
            let [(_, single), (_, folded)] = verdicts(&cascade, &kp.pk, &reproved);
            assert_eq!(single, folded, "re-proved, victim {victim}");
            assert!(single.is_ok(), "re-proved, victim {victim}");
        }
    }

    #[test]
    fn batched_pair_verify_matches_sequential() {
        let mut rng = HmacDrbg::from_u64(22);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let inputs: Vec<Pair> = rows(6, 50, &kp, &mut rng);
        let cascade = MixCascade::new(6, 3);
        let good = cascade.mix_pairs(&kp.pk, &inputs, &mut rng);
        let seq = cascade.verify(&kp.pk, &good).expect("sequential");
        let bat = cascade
            .verify_pairs_batch(&kp.pk, &good, 2)
            .expect("batched");
        assert_eq!(seq, bat);

        // Column swap is caught by both verifiers.
        let mut bad = good.clone();
        let tmp = bad.stages[2].outputs[0].1;
        bad.stages[2].outputs[0].1 = bad.stages[2].outputs[1].1;
        bad.stages[2].outputs[1].1 = tmp;
        assert!(cascade.verify(&kp.pk, &bad).is_err());
        assert!(cascade.verify_pairs_batch(&kp.pk, &bad, 2).is_err());

        // Tampered second-column multi-exp opening.
        let mut bad = good.clone();
        bad.stages[0].proof.mexp[1].b_tilde[1] += Scalar::ONE;
        assert!(cascade.verify(&kp.pk, &bad).is_err());
        assert!(cascade.verify_pairs_batch(&kp.pk, &bad, 2).is_err());
    }

    /// The product argument's opening must have the shuffle's length. The
    /// commitment key has room for a longer one, so only the explicit
    /// check stands between it and the commitment equations.
    fn svp_opening_of_wrong_length_is_malformed<R: Row>() {
        let mut rng = HmacDrbg::from_u64(23);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let inputs: Vec<R> = rows(4, 50, &kp, &mut rng);
        let cascade = MixCascade::new(8, 2);
        let good = cascade.mix(&kp.pk, &inputs, &mut rng);
        for (verifier, verdict) in verdicts(&cascade, &kp.pk, &good) {
            verdict.unwrap_or_else(|e| panic!("{verifier} rejected the honest cascade: {e:?}"));
        }
        // Short and over-long; a lone opening, then both (which agree with
        // each other and so pass the product argument's own length check).
        for len in [3usize, 5] {
            for (resize_a, resize_b) in [(true, false), (false, true), (true, true)] {
                let mut bad = good.clone();
                let svp = &mut bad.stages[1].proof.svp;
                if resize_a {
                    svp.a_tilde.resize(len, Scalar::ZERO);
                }
                if resize_b {
                    svp.b_tilde.resize(len, Scalar::ZERO);
                }
                for (verifier, verdict) in verdicts(&cascade, &kp.pk, &bad) {
                    assert_eq!(
                        verdict.err(),
                        Some(CryptoError::Malformed("svp opening lengths")),
                        "{verifier}, len {len}, a {resize_a}, b {resize_b}"
                    );
                }
            }
        }
    }

    #[test]
    fn both_verifiers_reject_svp_opening_of_wrong_length() {
        svp_opening_of_wrong_length_is_malformed::<Ciphertext>();
        svp_opening_of_wrong_length_is_malformed::<Pair>();
    }

    #[test]
    fn width_1_proof_is_rejected_inside_a_width_2_transcript() {
        // A mixer holding a valid single-column proof re-presents it as a
        // pair proof over the same column duplicated (same c_a, c_b and
        // product argument, the one multi-exp argument used for both
        // columns). Every equation would hold over those ciphertexts under
        // the width-1 challenges; width 2 hashes its statement under its
        // own domain and labels, so the challenges differ and both
        // verifiers reject.
        let mut rng = HmacDrbg::from_u64(24);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let inputs: Vec<Ciphertext> = rows(4, 0, &kp, &mut rng);
        let cascade = MixCascade::new(4, 2);
        let single = cascade.mix(&kp.pk, &inputs, &mut rng);
        let twice = |cts: &[Ciphertext]| -> Vec<Pair> { cts.iter().map(|c| (*c, *c)).collect() };
        let forged = PairMixTranscript {
            inputs: twice(&single.inputs),
            stages: single
                .stages
                .iter()
                .map(|s| PairMixStage {
                    outputs: twice(&s.outputs),
                    proof: crate::shuffle::PairShuffleProof {
                        c_a: s.proof.c_a,
                        c_b: s.proof.c_b,
                        svp: s.proof.svp.clone(),
                        mexp: [s.proof.mexp[0].clone(), s.proof.mexp[0].clone()],
                    },
                })
                .collect(),
        };
        for (verifier, verdict) in verdicts(&cascade, &kp.pk, &single) {
            verdict.unwrap_or_else(|e| panic!("{verifier} rejected the width-1 transcript: {e:?}"));
        }
        for (verifier, verdict) in verdicts(&cascade, &kp.pk, &forged) {
            assert_eq!(verdict.err(), Some(CryptoError::BadProof), "{verifier}");
        }
    }

    #[test]
    fn missing_stage_detected() {
        let mut rng = HmacDrbg::from_u64(3);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let inputs: Vec<Ciphertext> = rows(4, 0, &kp, &mut rng);
        let cascade = MixCascade::new(4, 3);
        let mut transcript = cascade.mix(&kp.pk, &inputs, &mut rng);
        transcript.stages.pop();
        assert!(cascade.verify(&kp.pk, &transcript).is_err());
    }
}
