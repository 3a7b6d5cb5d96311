//! Independent tally verification — universal verifiability (§3.3).
//!
//! The verifier holds no secrets: from the public ledger, the authority's
//! public material and the tally transcript, it re-derives the admitted
//! ballot set, checks every mix proof, every tagging round's one proof and
//! every decryption share, recomputes the matching and the counts, and
//! compares against the claimed result. Any single inconsistency pinpoints
//! the stage (and thus the responsible actor) via [`crate::error::VerifyStage`].

use vg_crypto::dkg::{combine_shares, verify_openings, Authority};
use vg_crypto::elgamal::Ciphertext;
use vg_crypto::par::{default_threads, par_map};
use vg_crypto::{CompressedPoint, EdwardsPoint};
use vg_ledger::Ledger;
use vg_shuffle::{MixCascade, VerifyMode};

use crate::error::{VerifyStage, VotegralError};
use crate::tagging::verify_cascade_with;
use crate::tally::{
    admit_records, count_votes, dummy_ciphertext, match_tags, registration_inputs, ElectionResult,
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
/// Returns the (re-derived) election result on success. Mix-cascade,
/// tagging and decryption-share proofs are checked through the batched
/// random-linear-combination paths ([`VerifyMode::Batched`]); use
/// [`verify_tally_with`] to select the sequential reference paths instead.
/// Ballot admission is the tally's own [`crate::tally::admit_ballots`]
/// (folded, with a one-by-one fallback) in either mode.
pub fn verify_tally(
    transcript: &TallyTranscript,
    ledger: &Ledger,
    authority: &PublicAuthority,
    kiosk_registry: &[CompressedPoint],
    mixers: usize,
) -> Result<ElectionResult, VotegralError> {
    verify_tally_with(
        transcript,
        ledger,
        authority,
        kiosk_registry,
        mixers,
        VerifyMode::Batched,
        default_threads(),
    )
}

/// [`verify_tally`] with an explicit proof [`VerifyMode`] (mixes, tagging
/// rounds and openings alike) and worker thread count — the knob the
/// equivalence property tests turn.
pub fn verify_tally_with(
    transcript: &TallyTranscript,
    ledger: &Ledger,
    authority: &PublicAuthority,
    kiosk_registry: &[CompressedPoint],
    mixers: usize,
    mode: VerifyMode,
    threads: usize,
) -> Result<ElectionResult, VotegralError> {
    let apk = authority.public_key;

    // Stage 1: re-derive admission and compare.
    let (accepted, rejected, superseded) = admit_records(
        ledger.ballots.records(),
        transcript.config,
        &apk,
        kiosk_registry,
        threads,
    );
    if accepted != transcript.accepted
        || rejected != transcript.rejected
        || superseded != transcript.superseded
    {
        return Err(VotegralError::Verification(VerifyStage::BallotAdmission));
    }

    // Ballot pair inputs: vote ciphertexts and trivial key encryptions.
    let n_real_pairs = accepted.len();
    if transcript.ballot_pair_inputs.len() != n_real_pairs + transcript.n_ballot_dummies {
        return Err(VotegralError::Verification(VerifyStage::BallotAdmission));
    }
    for (i, ab) in accepted.iter().enumerate() {
        let pair = &transcript.ballot_pair_inputs[i];
        let pk_point = ab
            .credential_pk
            .decompress()
            .ok_or(VotegralError::Verification(VerifyStage::BallotAdmission))?;
        if pair.0 != ab.ballot.vote_ct
            || pair.1.c1 != EdwardsPoint::IDENTITY
            || pair.1.c2 != pk_point
        {
            return Err(VotegralError::Verification(VerifyStage::BallotAdmission));
        }
    }
    for pair in &transcript.ballot_pair_inputs[n_real_pairs..] {
        if pair.0 != dummy_ciphertext() || pair.1 != dummy_ciphertext() {
            return Err(VotegralError::Verification(VerifyStage::DummyPadding));
        }
    }

    // Registration inputs: active records in roster order + dummies.
    let reg = registration_inputs(ledger);
    if transcript.reg_inputs.len() != reg.len() + transcript.n_reg_dummies
        || transcript.reg_inputs[..reg.len()] != reg[..]
    {
        return Err(VotegralError::Verification(VerifyStage::RegistrationInputs));
    }
    for ct in &transcript.reg_inputs[reg.len()..] {
        if *ct != dummy_ciphertext() {
            return Err(VotegralError::Verification(VerifyStage::DummyPadding));
        }
    }

    // Stage 2: both mixes.
    let max_n = transcript
        .ballot_pair_inputs
        .len()
        .max(transcript.reg_inputs.len());
    let cascade = MixCascade::new(max_n, mixers);
    if transcript.ballot_mix.inputs != transcript.ballot_pair_inputs
        || cascade
            .verify_with(&apk, &transcript.ballot_mix, mode, threads)
            .is_err()
    {
        return Err(VotegralError::Verification(VerifyStage::BallotMix));
    }
    if transcript.reg_mix.inputs != transcript.reg_inputs
        || cascade
            .verify_with(&apk, &transcript.reg_mix, mode, threads)
            .is_err()
    {
        return Err(VotegralError::Verification(VerifyStage::RegistrationMix));
    }

    // Stage 3: tagging cascades share the same member commitments.
    let mixed_keys: Vec<Ciphertext> = transcript
        .ballot_mix
        .outputs()
        .iter()
        .map(|p| p.1)
        .collect();
    let tagged_regs = verify_cascade_with(
        transcript.reg_mix.outputs(),
        &transcript.reg_tagging,
        &transcript.tag_commitments,
        mode,
        threads,
    )
    .map_err(|_| VotegralError::Verification(VerifyStage::Tagging))?;
    let tagged_keys = verify_cascade_with(
        &mixed_keys,
        &transcript.ballot_tagging,
        &transcript.tag_commitments,
        mode,
        threads,
    )
    .map_err(|_| VotegralError::Verification(VerifyStage::Tagging))?;

    // Stage 4: both openings.
    let check_opening = |opening: &VectorOpening, cts: &[Ciphertext]| {
        verify_opening(opening, cts, authority, mode, threads)
    };
    check_opening(&transcript.reg_opening, tagged_regs)?;
    check_opening(&transcript.key_opening, tagged_keys)?;

    // Stage 5: recompute matching.
    let matched = match_tags(
        &transcript.reg_opening.plaintexts,
        &transcript.key_opening.plaintexts,
    );
    if matched != transcript.matched_indices {
        return Err(VotegralError::Verification(VerifyStage::Matching));
    }

    // Stage 6: verify vote openings and recount.
    let matched_votes: Vec<Ciphertext> = matched
        .iter()
        .map(|&i| transcript.ballot_mix.outputs()[i].0)
        .collect();
    check_opening(&transcript.vote_opening, &matched_votes)?;
    let result = count_votes(
        transcript.config,
        &transcript.vote_opening.plaintexts,
        transcript.ballot_mix.outputs().len(),
        matched.len(),
    );
    if result != transcript.result {
        return Err(VotegralError::Verification(VerifyStage::Counting));
    }
    Ok(result)
}

/// Verifies every decryption share of an opening and the recombination.
///
/// [`VerifyMode::Batched`] folds the whole opening
/// ([`vg_crypto::dkg::verify_openings`]); [`VerifyMode::Sequential`] is
/// the reference: per item, every share proof and then the recombination,
/// independent items fanned out over `threads` (the paper's tally
/// evaluation used a 128-core node; see [`crate::par`]).
fn verify_opening(
    opening: &VectorOpening,
    cts: &[Ciphertext],
    authority: &PublicAuthority,
    mode: VerifyMode,
    threads: usize,
) -> Result<(), VotegralError> {
    let ok = match mode {
        VerifyMode::Batched => verify_openings(
            cts,
            &opening.shares,
            &opening.plaintexts,
            &authority.member_vks,
            authority.threshold,
            threads,
        )
        .is_ok(),
        VerifyMode::Sequential => {
            opening.shares.len() == cts.len()
                && opening.plaintexts.len() == cts.len()
                && verify_opening_one_by_one(opening, cts, authority, threads)
        }
    };
    if ok {
        Ok(())
    } else {
        Err(VotegralError::Verification(VerifyStage::Decryption))
    }
}

fn verify_opening_one_by_one(
    opening: &VectorOpening,
    cts: &[Ciphertext],
    authority: &PublicAuthority,
    threads: usize,
) -> bool {
    let items: Vec<(usize, &Ciphertext)> = cts.iter().enumerate().collect();
    par_map(&items, threads, |(i, ct)| {
        let shares = &opening.shares[*i];
        let claimed = &opening.plaintexts[*i];
        if shares.len() < authority.threshold {
            return false;
        }
        for share in shares {
            let idx = share.member_index as usize;
            let Some(vk) = authority.member_vks.get(idx.wrapping_sub(1)) else {
                return false;
            };
            if share.verify(vk, ct).is_err() {
                return false;
            }
        }
        match combine_shares(ct, shares, authority.threshold) {
            Ok(combined) => combined == *claimed,
            Err(_) => false,
        }
    })
    .into_iter()
    .all(|ok| ok)
}
