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
//! verification entry ([`MixCascade::verify_with`]) serve the
//! registration-tag mix ([`MixTranscript`]) and the ballot-pair mix
//! ([`PairMixTranscript`]).

use std::fmt;

use vg_crypto::drbg::Rng;
use vg_crypto::edwards::EdwardsPoint;
use vg_crypto::elgamal::Ciphertext;
use vg_crypto::CryptoError;

use crate::batch::{verify_cascade_batch, StageRef};
use crate::shuffle::{Row, RowShuffleProof, ShuffleContext};

/// How a cascade transcript is verified.
///
/// Both modes accept exactly the same transcripts; [`VerifyMode::Batched`]
/// is the production default and `Sequential` remains available as the
/// reference implementation (and for pinpointing *which* stage of a
/// rejected cascade failed).
///
/// # Soundness of the batched mode
///
/// Batched verification folds every stage's Σ-protocol equations
/// Eⱼ = 𝒪 into the single check Σⱼ wⱼ·Eⱼ = 𝒪 with independent random
/// 128-bit weights wⱼ (a *small-exponent random linear combination*).
/// All points lie in the prime-order subgroup, so each error Eⱼ is
/// eⱼ·B for a unique exponent eⱼ mod ℓ; if any eⱼ ≠ 0, a uniformly
/// random wⱼ satisfies the folded congruence with probability at most
/// 2⁻¹²⁷. Each stage's weights are derived from that stage's own
/// Fiat–Shamir transcript hash after additionally absorbing the proof's
/// response scalars, so they commit to the stage's complete statement
/// and proof: a cheating mixer cannot choose its stage proof after
/// learning the weights that will scale its equations — any change to
/// the proof re-randomizes them, and grinding proofs against the hash
/// buys only 2⁻¹²⁷ per attempt. Small (128-bit rather than 253-bit)
/// weights keep that bound while halving the weighting cost, the
/// classical Bellare–Garay–Rabin trade-off. See [`vg_crypto::batch`]
/// for the primitive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VerifyMode {
    /// Check every stage's proof on its own, in cascade order.
    Sequential,
    /// Fold all stages' proof equations into one random-linear-combination
    /// multi-scalar check (parallelized across mixers).
    #[default]
    Batched,
}

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
    pub fn mix<R: Row>(
        &self,
        pk: &EdwardsPoint,
        inputs: &[R],
        rng: &mut dyn Rng,
    ) -> RowMixTranscript<R> {
        let mut stages: Vec<RowMixStage<R>> = Vec::with_capacity(self.mixers);
        for _ in 0..self.mixers {
            let current = stages.last().map_or(inputs, |s| s.outputs.as_slice());
            let (outputs, proof) = self.ctx.shuffle(pk, current, rng);
            stages.push(RowMixStage { outputs, proof });
        }
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

    /// Verifies a cascade transcript with the given [`VerifyMode`],
    /// returning the final outputs on success. `threads` bounds the
    /// batched mode's workers; the sequential mode ignores it.
    pub fn verify_with<'a, R: Row>(
        &self,
        pk: &EdwardsPoint,
        transcript: &'a RowMixTranscript<R>,
        mode: VerifyMode,
        threads: usize,
    ) -> Result<&'a [R], CryptoError> {
        if transcript.stages.len() != self.mixers {
            return Err(CryptoError::Malformed("wrong number of mix stages"));
        }
        let mut stages: Vec<StageRef<'a, R>> = Vec::with_capacity(self.mixers);
        let mut current: &[R] = &transcript.inputs;
        for stage in &transcript.stages {
            stages.push((current, &stage.outputs, &stage.proof));
            current = &stage.outputs;
        }
        match mode {
            VerifyMode::Sequential => {
                for (s_in, s_out, proof) in stages {
                    self.ctx.verify(pk, s_in, s_out, proof)?;
                }
            }
            VerifyMode::Batched => {
                verify_cascade_batch(&self.ctx, pk, &transcript.inputs, &stages, threads)?;
            }
        }
        Ok(current)
    }

    /// Verifies every stage's proof on its own, in cascade order
    /// ([`VerifyMode::Sequential`]).
    pub fn verify<'a, R: Row>(
        &self,
        pk: &EdwardsPoint,
        transcript: &'a RowMixTranscript<R>,
    ) -> Result<&'a [R], CryptoError> {
        self.verify_with(pk, transcript, VerifyMode::Sequential, 1)
    }

    /// Verifies a cascade transcript by folding every stage's proof
    /// equations into one batched multi-scalar check, with the equation
    /// collection parallelized over up to `threads` workers
    /// ([`VerifyMode::Batched`]). Accepts exactly the same transcripts as
    /// [`MixCascade::verify`]; see [`VerifyMode`] for the soundness
    /// argument.
    pub fn verify_batch<'a, R: Row>(
        &self,
        pk: &EdwardsPoint,
        transcript: &'a RowMixTranscript<R>,
        threads: usize,
    ) -> Result<&'a [R], CryptoError> {
        self.verify_with(pk, transcript, VerifyMode::Batched, threads)
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
    const MODES: [VerifyMode; 2] = [VerifyMode::Sequential, VerifyMode::Batched];

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
            assert!(cascade
                .verify_with(&kp.pk, &transcript, VerifyMode::Batched, 1)
                .is_ok());
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
        assert!(cascade
            .verify_with(&kp.pk, &good, VerifyMode::Sequential, 1)
            .is_ok());

        // Column swap is caught by both modes.
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
    fn svp_opening_of_wrong_length_is_malformed<R: Row>(mode: VerifyMode) {
        let mut rng = HmacDrbg::from_u64(23);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let inputs: Vec<R> = rows(4, 50, &kp, &mut rng);
        let cascade = MixCascade::new(8, 2);
        let good = cascade.mix(&kp.pk, &inputs, &mut rng);
        cascade.verify_with(&kp.pk, &good, mode, 2).expect("honest");
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
                assert_eq!(
                    cascade.verify_with(&kp.pk, &bad, mode, 2).err(),
                    Some(CryptoError::Malformed("svp opening lengths")),
                    "{mode:?}, len {len}, a {resize_a}, b {resize_b}"
                );
            }
        }
    }

    #[test]
    fn sequential_verify_rejects_svp_opening_of_wrong_length() {
        svp_opening_of_wrong_length_is_malformed::<Ciphertext>(VerifyMode::Sequential);
        svp_opening_of_wrong_length_is_malformed::<Pair>(VerifyMode::Sequential);
    }

    #[test]
    fn batched_verify_rejects_svp_opening_of_wrong_length() {
        svp_opening_of_wrong_length_is_malformed::<Ciphertext>(VerifyMode::Batched);
        svp_opening_of_wrong_length_is_malformed::<Pair>(VerifyMode::Batched);
    }

    #[test]
    fn width_1_proof_is_rejected_inside_a_width_2_transcript() {
        // A mixer holding a valid single-column proof re-presents it as a
        // pair proof over the same column duplicated (same c_a, c_b and
        // product argument, the one multi-exp argument used for both
        // columns). Every equation would hold over those ciphertexts under
        // the width-1 challenges; width 2 hashes its statement under its
        // own domain and labels, so the challenges differ and both modes
        // reject.
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
        for mode in MODES {
            cascade
                .verify_with(&kp.pk, &single, mode, 2)
                .expect("the width-1 transcript itself is valid");
            assert_eq!(
                cascade.verify_with(&kp.pk, &forged, mode, 2).err(),
                Some(CryptoError::BadProof),
                "{mode:?}"
            );
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
