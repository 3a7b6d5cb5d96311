//! Independent tally verification — universal verifiability (§3.3).
//!
//! The verifier holds no secrets: from the public ledger, the authority's
//! public material and the tally transcript, it re-derives the admitted
//! ballot set, checks every mix proof, every tagging round's one proof and
//! every decryption share, recomputes the matching and the counts, and
//! compares against the claimed result. Any single inconsistency pinpoints
//! the stage (and thus the responsible actor) via [`crate::error::VerifyStage`].
//!
//! The checks run side by side as jobs on the host's cores, under the
//! process's core budget (`vg_crypto::par`), while the verdict stays the
//! one a verifier running them one after the other gives: the first
//! failing stage in that order (see [`verify_tally`]).

use std::sync::OnceLock;

use vg_crypto::dkg::{verify_openings, Authority};
use vg_crypto::elgamal::Ciphertext;
use vg_crypto::par::{default_threads, run_jobs};
use vg_crypto::{CompressedPoint, EdwardsPoint};
use vg_ledger::Ledger;
use vg_shuffle::{MixCascade, Row, RowMixTranscript};

use crate::error::{VerifyStage, VotegralError};
use crate::tagging::{verify_cascade, TaggingRound};
use crate::tally::{
    admit_ballots, count_votes, dummy_ciphertext, match_tags, registration_inputs, ElectionResult,
    TallyTranscript, VectorOpening,
};

/// The authority's public material, sufficient for verification.
#[derive(Clone, Debug)]
pub struct PublicAuthority {
    /// The collective encryption key A_pk.
    pub public_key: EdwardsPoint,
    /// Per-member verification keys X_j (1-based by member index).
    pub member_vks: Vec<EdwardsPoint>,
    /// The decryption threshold t.
    pub threshold: usize,
}

impl PublicAuthority {
    /// Extracts the public view of an [`Authority`].
    pub fn of(authority: &Authority) -> Self {
        Self {
            public_key: authority.public_key,
            member_vks: authority.members.iter().map(|m| m.vk).collect(),
            threshold: authority.t,
        }
    }
}

/// Verifies a complete tally transcript against the public ledger.
///
/// Returns the (re-derived) election result on success. Every Σ-proof
/// stage is checked as a random-linear-combination fold on the host's
/// cores: each mix cascade in one fold ([`MixCascade::verify_batch`]),
/// each tagging round in one cofactored fold
/// ([`crate::tagging::verify_cascade`]) and each opening in one fold
/// ([`vg_crypto::dkg::verify_openings`]). Ballot admission is the tally's
/// own [`crate::tally::admit_ballots`] (folded, with a one-by-one
/// fallback).
///
/// # Jobs and the verdict
///
/// The checks are independent jobs, run side by side ([`run_jobs`]):
/// admission with the input checks, the two mixes, the two tagging
/// cascades, the three openings and matching. Each reads its inputs from
/// the transcript alone — a tagging cascade's inputs are the mix outputs
/// the transcript claims, the vote opening's are the rows
/// `matched_indices` names — and returns an error, never panics, on a
/// transcript an earlier check rejects. The verdict is the first failing
/// check in the order a verifier running them one after the other meets
/// them (the order of its `Check` list), then counting. So the verdict is
/// that sequential verifier's: when every earlier check passes, the
/// transcript's claims are exactly what that verifier would have derived
/// and handed on.
pub fn verify_tally(
    transcript: &TallyTranscript,
    ledger: &Ledger,
    authority: &PublicAuthority,
    kiosk_registry: &[CompressedPoint],
    mixers: usize,
) -> Result<ElectionResult, VotegralError> {
    let inputs = Inputs {
        transcript,
        ledger,
        authority,
        kiosk_registry,
        mixers,
        cascade: OnceLock::new(),
    };
    let verdicts = run_jobs(&Check::LONGEST_FIRST, default_threads(), |check| {
        inputs.check(*check).map_err(|stage| (*check, stage))
    });
    let first_failure = verdicts
        .into_iter()
        .filter_map(Result::err)
        .min_by_key(|(check, _)| *check);
    if let Some((_, stage)) = first_failure {
        return Err(VotegralError::Verification(stage));
    }

    // Counting, once every check has passed.
    let result = count_votes(
        transcript.config,
        &transcript.vote_opening.plaintexts,
        transcript.ballot_mix.outputs().len(),
        transcript.matched_indices.len(),
    );
    if result != transcript.result {
        return Err(VotegralError::Verification(VerifyStage::Counting));
    }
    Ok(result)
}

/// The verifier's independent checks, declared in the order a verifier
/// running them one after the other meets them: the order that picks the
/// verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Check {
    /// Admission re-derived from L_V, then the ballot, padding and
    /// registration inputs.
    Admission,
    BallotMix,
    RegistrationMix,
    RegistrationTagging,
    BallotTagging,
    RegistrationOpening,
    KeyOpening,
    Matching,
    VoteOpening,
}

impl Check {
    /// The order the jobs start in: the longest first, so the short ones
    /// fill in beside them. Measured at the lifecycle benchmark's size
    /// (165 ballot rows, 100 tags, four mixers), where the ballot mix
    /// takes about a fifth of the checks' time and matching almost none.
    const LONGEST_FIRST: [Check; 9] = [
        Check::BallotMix,
        Check::Admission,
        Check::BallotTagging,
        Check::KeyOpening,
        Check::RegistrationMix,
        Check::RegistrationTagging,
        Check::RegistrationOpening,
        Check::VoteOpening,
        Check::Matching,
    ];
}

/// What every check reads.
struct Inputs<'a> {
    transcript: &'a TallyTranscript,
    ledger: &'a Ledger,
    authority: &'a PublicAuthority,
    kiosk_registry: &'a [CompressedPoint],
    mixers: usize,
    cascade: OnceLock<MixCascade>,
}

impl Inputs<'_> {
    fn check(&self, check: Check) -> Result<(), VerifyStage> {
        let t = self.transcript;
        match check {
            Check::Admission => self.admission(),
            Check::BallotMix => ensure(
                t.ballot_mix.inputs == t.ballot_pair_inputs && self.mix_verifies(&t.ballot_mix),
                VerifyStage::BallotMix,
            ),
            Check::RegistrationMix => ensure(
                t.reg_mix.inputs == t.reg_inputs && self.mix_verifies(&t.reg_mix),
                VerifyStage::RegistrationMix,
            ),
            Check::RegistrationTagging => {
                verify_cascade(t.reg_mix.outputs(), &t.reg_tagging, &t.tag_commitments)
                    .map(drop)
                    .map_err(|_| VerifyStage::Tagging)
            }
            Check::BallotTagging => {
                verify_cascade(&mixed_keys(t), &t.ballot_tagging, &t.tag_commitments)
                    .map(drop)
                    .map_err(|_| VerifyStage::Tagging)
            }
            Check::RegistrationOpening => {
                let tagged = tagged(&t.reg_tagging, t.reg_mix.outputs());
                self.opening(&t.reg_opening, tagged)
            }
            Check::KeyOpening => {
                let keys = mixed_keys(t);
                self.opening(&t.key_opening, tagged(&t.ballot_tagging, &keys))
            }
            Check::Matching => {
                let matched = match_tags(&t.reg_opening.plaintexts, &t.key_opening.plaintexts);
                ensure(matched == t.matched_indices, VerifyStage::Matching)
            }
            Check::VoteOpening => {
                let rows = t.ballot_mix.outputs();
                let votes: Option<Vec<Ciphertext>> = t
                    .matched_indices
                    .iter()
                    .map(|&i| rows.get(i).map(|pair| pair.0))
                    .collect();
                let votes = votes.ok_or(VerifyStage::Decryption)?;
                self.opening(&t.vote_opening, &votes)
            }
        }
    }

    /// Admission re-derived and compared, then the ballot pair inputs
    /// (vote ciphertexts and trivial key encryptions), their padding, and
    /// the registration inputs (active records in roster order) and
    /// theirs.
    fn admission(&self) -> Result<(), VerifyStage> {
        let t = self.transcript;
        let apk = self.authority.public_key;
        let (accepted, rejected, superseded) =
            admit_ballots(self.ledger, t.config, &apk, self.kiosk_registry);
        if accepted != t.accepted || rejected != t.rejected || superseded != t.superseded {
            return Err(VerifyStage::BallotAdmission);
        }
        let n_real_pairs = accepted.len();
        if t.ballot_pair_inputs.len() != n_real_pairs + t.n_ballot_dummies {
            return Err(VerifyStage::BallotAdmission);
        }
        for (ab, pair) in accepted.iter().zip(&t.ballot_pair_inputs) {
            let pk_point = ab
                .credential_pk
                .decompress()
                .ok_or(VerifyStage::BallotAdmission)?;
            if pair.0 != ab.ballot.vote_ct
                || pair.1.c1 != EdwardsPoint::IDENTITY
                || pair.1.c2 != pk_point
            {
                return Err(VerifyStage::BallotAdmission);
            }
        }
        for pair in &t.ballot_pair_inputs[n_real_pairs..] {
            if pair.0 != dummy_ciphertext() || pair.1 != dummy_ciphertext() {
                return Err(VerifyStage::DummyPadding);
            }
        }

        let reg = registration_inputs(self.ledger);
        if t.reg_inputs.len() != reg.len() + t.n_reg_dummies || t.reg_inputs[..reg.len()] != reg[..]
        {
            return Err(VerifyStage::RegistrationInputs);
        }
        if t.reg_inputs[reg.len()..]
            .iter()
            .any(|ct| *ct != dummy_ciphertext())
        {
            return Err(VerifyStage::DummyPadding);
        }
        Ok(())
    }

    /// Both mixes run through one cascade sized for the larger input,
    /// built by whichever mix job gets there first.
    fn mix_verifies<R: Row>(&self, mix: &RowMixTranscript<R>) -> bool {
        let t = self.transcript;
        let max_n = t.ballot_pair_inputs.len().max(t.reg_inputs.len());
        self.cascade
            .get_or_init(|| MixCascade::new(max_n, self.mixers))
            .verify_batch(&self.authority.public_key, mix, default_threads())
            .is_ok()
    }

    /// Every share and the recombination of `opening` over `cts`, folded.
    fn opening(&self, opening: &VectorOpening, cts: &[Ciphertext]) -> Result<(), VerifyStage> {
        verify_openings(
            cts,
            &opening.shares,
            &opening.plaintexts,
            &self.authority.member_vks,
            self.authority.threshold,
        )
        .map_err(|_| VerifyStage::Decryption)
    }
}

fn ensure(ok: bool, stage: VerifyStage) -> Result<(), VerifyStage> {
    if ok {
        Ok(())
    } else {
        Err(stage)
    }
}

/// The credential-key column of the mixed ballot rows.
fn mixed_keys(t: &TallyTranscript) -> Vec<Ciphertext> {
    t.ballot_mix.outputs().iter().map(|p| p.1).collect()
}

/// What a tagging cascade claims to hand the opening: its last round's
/// outputs, or its inputs when it has no round.
fn tagged<'a>(rounds: &'a [TaggingRound], inputs: &'a [Ciphertext]) -> &'a [Ciphertext] {
    rounds.last().map_or(inputs, |r| &r.outputs)
}
