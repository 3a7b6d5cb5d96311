//! The Votegral tally pipeline (Fig 3 "Tally", Appendix M).
//!
//! Stages, each leaving publicly verifiable evidence in the
//! [`TallyTranscript`]:
//!
//! 1. **Admission**: decode each ballot from L_V, check its credential
//!    signature, vote-validity proof and registrar-issuance signature;
//!    deduplicate by credential key (keep-last).
//! 2. **Mixing**: shuffle the (vote, credential-key) pairs, then the
//!    registration tags c_pc, through verifiable mix cascades (four
//!    mixers by default, as in the paper's evaluation).
//! 3. **Deterministic tagging**: every authority member exponentiates both
//!    mixed sets by a secret sᵢ with one proof per set.
//! 4. **Opening**: threshold-decrypt the tagged sets, yielding *blinded*
//!    credential keys and *blinded* real-credential tags.
//! 5. **Matching**: a ballot counts iff its blinded key equals some unused
//!    blinded tag — linear time via a hash map, the key difference from
//!    Civitas' quadratic pairwise PETs (§7.4).
//! 6. **Counting**: threshold-decrypt only the matched votes and tally.
//!
//! # What runs on the host's cores
//!
//! Admission runs first: each record's decoding and exact checks, and its
//! credential key's decoding, on [`default_threads`] workers, then the
//! signature sweep and proof fold, themselves parallel, over the records
//! in ledger order. Every DRBG value stages 2–4 take is then drawn in the
//! order a tally running the stages one after the other takes them: the
//! ballot mix's stages, then the registration mix's, the tagging
//! exponents, the registration tagging's nonces, then the ballot
//! tagging's, the registration opening's nonces, then the key opening's.
//! The two chains share nothing but the tagging exponents:
//!
//! - ballot mix → ballot tagging (of the credential-key column) → key
//!   opening;
//! - registration mix → registration tagging → registration opening.
//!
//! They run side by side under [`join`]. Its first closure, on a worker
//! when the core budget has a free slot, draws every coin and then runs
//! the registration chain; its second, on the calling thread, runs the
//! ballot chain, which takes each mix stage's coins as they are drawn
//! ([`MixCascade::mix_with`]) and its later coins through a one-shot
//! channel. So the ballot mix starts on its first stage's coins while the
//! rest are drawn. With no free slot `join` runs the first closure to its
//! end, then the second: every coin is then waiting in its channel before
//! the ballot chain asks for it, which is why the drawing side must be
//! the first closure (`tests/tally_budget.rs` runs a tally with every
//! slot held).
//!
//! Matching, the vote opening's draws and the vote opening follow. Within
//! a stage the point arithmetic runs on [`default_threads`] workers
//! (`vg_crypto::par`): each mix stage's re-encryptions and commitments,
//! each tagging round's exponentiations, and each opening's share points,
//! proof commitments and recombinations. Every worker comes out of the
//! process's core budget, so while both chains run their stages mostly
//! run inline, and a chain that finishes first hands its core to the
//! other. Every transcript hash stays on its chain's thread, absorbed in
//! the proof's own order. So the transcript's bytes, and where the
//! caller's DRBG is left, do not depend on how many cores ran it
//! (`tests/properties.rs` pins both), and on one core everything runs
//! inline: the draws, then the registration chain, then the ballot chain.
//!
//! The drawn coins are O(mixers · n) scalars held at once: 6n + 9 per
//! ballot-mix stage, 4n + 7 per registration-mix stage and t per opened
//! row — about 220 KB at the lifecycle benchmark's size (165 ballot rows,
//! 100 tags, four mixers, t = 4), about 1.6 GB at 10⁶ rows a side.

use std::collections::HashMap;
use std::sync::{mpsc, OnceLock};

use vg_crypto::batch::{small_weights, BatchVerifier};
use vg_crypto::dkg::{combine_with, lagrange_coefficients, Authority, DecryptionShare};
use vg_crypto::drbg::Rng;
use vg_crypto::elgamal::Ciphertext;
use vg_crypto::par::{default_threads, join, par_map};
use vg_crypto::schnorr::{SignatureSweep, VerifyingKey};
use vg_crypto::{CompressedPoint, EdwardsPoint, Scalar};
use vg_ledger::{BallotRecord, Ledger};
use vg_shuffle::{
    MixCascade, MixTranscript, PairMixTranscript, Row, RowMixTranscript, ShuffleCoins,
};
use vg_trip::materials::response_message_from_hash;

use crate::ballot::{
    check_vote_challenge, queue_vote_proof, verify_vote_proof, Ballot, VoteConfig,
};
use crate::error::VotegralError;
use crate::tagging::{apply_cascade_with, cascade_nonces, TaggingKey, TaggingRound};

/// A ballot that passed admission, paired with its credential key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AcceptedBallot {
    /// The authenticating credential public key.
    pub credential_pk: CompressedPoint,
    /// The decoded ballot.
    pub ballot: Ballot,
}

/// A verifiable threshold decryption of a ciphertext vector.
#[derive(Clone, Debug)]
pub struct VectorOpening {
    /// shares\[item\]\[member\].
    pub shares: Vec<Vec<DecryptionShare>>,
    /// The combined plaintexts.
    pub plaintexts: Vec<EdwardsPoint>,
}

/// The published election outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElectionResult {
    /// counts\[v\] = number of valid real votes for option v.
    pub counts: Vec<u64>,
    /// Ballots that matched a registration tag and decrypted to a valid
    /// option.
    pub counted: usize,
    /// Matched ballots whose vote decrypted outside the option range.
    pub invalid: usize,
    /// Mixed pairs with no matching tag — fake-credential ballots plus the
    /// padding dummies (their count is public in the transcript).
    pub unmatched: usize,
}

/// The complete public evidence of one tally run.
///
/// `Debug` renders every component in canonical compressed form, so two
/// transcripts format identically iff they are bit-identical — which the
/// deterministic-replay tests rely on.
#[derive(Debug)]
pub struct TallyTranscript {
    /// The election's option count.
    pub config: VoteConfig,
    /// Ballots accepted at admission, in canonical (last-post) order.
    pub accepted: Vec<AcceptedBallot>,
    /// Ballot records rejected at admission.
    pub rejected: usize,
    /// Ballots superseded by a later ballot from the same credential.
    pub superseded: usize,
    /// Registration tags (active records in roster order).
    pub reg_inputs: Vec<Ciphertext>,
    /// The (vote, trivially-encrypted credential key) pairs fed to the mix.
    pub ballot_pair_inputs: Vec<(Ciphertext, Ciphertext)>,
    /// Number of padding dummies appended to the ballot pairs.
    pub n_ballot_dummies: usize,
    /// Number of padding dummies appended to the registration tags.
    pub n_reg_dummies: usize,
    /// Verifiable ballot mix.
    pub ballot_mix: PairMixTranscript,
    /// Verifiable registration-tag mix.
    pub reg_mix: MixTranscript,
    /// Tagging commitments Sᵢ, one per authority member, shared by both
    /// tagging cascades.
    pub tag_commitments: Vec<EdwardsPoint>,
    /// Tagging cascade over the mixed registration tags.
    pub reg_tagging: Vec<TaggingRound>,
    /// Tagging cascade over the mixed ballot credential keys.
    pub ballot_tagging: Vec<TaggingRound>,
    /// Opening of the tagged registration tags (blinded tags).
    pub reg_opening: VectorOpening,
    /// Opening of the tagged ballot keys (blinded keys).
    pub key_opening: VectorOpening,
    /// Indices (into the mixed pairs) of ballots that matched a tag.
    pub matched_indices: Vec<usize>,
    /// Opening of the matched ballots' vote ciphertexts, in
    /// `matched_indices` order.
    pub vote_opening: VectorOpening,
    /// The claimed result.
    pub result: ElectionResult,
}

/// The trivial ciphertext used for padding (Enc(identity; 0)); verifiers
/// check padding entries against this exact value.
pub fn dummy_ciphertext() -> Ciphertext {
    Ciphertext::identity()
}

/// Ballot records admitted per signature sweep and vote-proof fold, so
/// admission's working memory does not grow with the ledger and one bad
/// record sends only its own block through the one-by-one fallback.
const ADMISSION_BLOCK: usize = 1024;

/// Admission: deterministically derives the accepted ballot list from the
/// ledger. Used identically by the tally and by independent verifiers.
pub fn admit_ballots(
    ledger: &Ledger,
    config: VoteConfig,
    authority_pk: &EdwardsPoint,
    kiosk_registry: &[CompressedPoint],
) -> (Vec<AcceptedBallot>, usize, usize) {
    admit_records(
        ledger.ballots.records(),
        config,
        authority_pk,
        kiosk_registry,
    )
}

/// [`admit_ballots`] over a record slice.
///
/// Each block of records is checked by [`admit_block_folded`]; only when
/// that fold rejects is the block re-checked one by one. Folds and single
/// checks take every equation modulo the 8-torsion, so the decisions are
/// those of a loop of single checks, whatever block a record lands in.
fn admit_records(
    records: &[BallotRecord],
    config: VoteConfig,
    authority_pk: &EdwardsPoint,
    kiosk_registry: &[CompressedPoint],
) -> (Vec<AcceptedBallot>, usize, usize) {
    keep_last(records.chunks(ADMISSION_BLOCK).flat_map(|block| {
        admit_block_folded(block, config, authority_pk, kiosk_registry).unwrap_or_else(|| {
            block
                .iter()
                .map(|r| admit_one(r, config, authority_pk, kiosk_registry))
                .collect()
        })
    }))
}

/// Turns per-record decisions (ledger order) into the accepted list, the
/// rejected count and the superseded count: ballots are deduplicated by
/// credential key, keeping the last (re-voting with the same credential
/// replaces the earlier ballot).
fn keep_last(
    decisions: impl Iterator<Item = Option<AcceptedBallot>>,
) -> (Vec<AcceptedBallot>, usize, usize) {
    let mut rejected = 0usize;
    let mut candidates: Vec<AcceptedBallot> = Vec::new();
    for decision in decisions {
        match decision {
            Some(ab) => candidates.push(ab),
            None => rejected += 1,
        }
    }
    let mut last: HashMap<CompressedPoint, usize> = HashMap::new();
    for (i, ab) in candidates.iter().enumerate() {
        last.insert(ab.credential_pk, i);
    }
    let superseded = candidates.len() - last.len();
    let mut keep: Vec<usize> = last.into_values().collect();
    keep.sort_unstable();
    let accepted = keep.into_iter().map(|i| candidates[i].clone()).collect();
    (accepted, rejected, superseded)
}

/// Checks a block of records with one [`SignatureSweep`] (credential
/// signature and kiosk issuance signature per record) continued into one
/// fold of every vote-proof branch equation, both on the host's cores
/// ([`default_threads`]).
///
/// Everything a single check decides *exactly* — key and payload decoding,
/// the branch count, the branch challenges summing to the Fiat–Shamir
/// challenge, kiosk registry membership — is decided exactly here too, per
/// record on the host's cores, and a record failing any of it is `None`
/// without entering the folds; the rest enter the sweep in ledger order. The
/// sweep's weights commit to every queued key, message and signature; the
/// credential signature's message is the whole payload, so continuing its
/// DRBG into the branch fold keeps the everything-committed rule (A_pk
/// and the option count are committed explicitly).
///
/// Returns `None` when a fold rejects: some queued record is invalid and
/// the caller locates it with [`admit_one`].
fn admit_block_folded(
    block: &[BallotRecord],
    config: VoteConfig,
    authority_pk: &EdwardsPoint,
    kiosk_registry: &[CompressedPoint],
) -> Option<Vec<Option<AcceptedBallot>>> {
    let threads = default_threads();
    let apk_enc = authority_pk.compress();
    let mut sweep = SignatureSweep::new(b"votegral-ballot-admission-v1");
    sweep.commit(&apk_enc.0);
    sweep.commit(&config.n_options.to_le_bytes());
    // Registry entries that do not decode are dropped up front, so a
    // record naming one is `None` before its credential signature is
    // queued, and the kiosk push below cannot fail.
    let kiosks: Vec<CompressedPoint> = kiosk_registry
        .iter()
        .filter(|pk| VerifyingKey::from_compressed(pk).is_ok())
        .copied()
        .collect();
    // Every exact check, and the credential key's decoding, per record on
    // the host's cores; the sweep then takes the queued records in ledger
    // order.
    let checked = par_map(block, threads, |record| {
        let ballot = Ballot::from_bytes(&record.payload).ok()?;
        let credential_pk = record.credential_pk;
        check_vote_challenge(&apk_enc, &ballot, &record.payload, &credential_pk, config).ok()?;
        if !kiosks.contains(&ballot.issuance.kiosk_pk) {
            return None;
        }
        let key = VerifyingKey::from_compressed(&credential_pk).ok()?;
        Some((key, BallotRecord::message(&record.payload), ballot))
    });
    let decisions: Vec<Option<AcceptedBallot>> = block
        .iter()
        .zip(checked)
        .map(|(record, checked)| {
            let (key, message, ballot) = checked?;
            let credential_pk = record.credential_pk;
            sweep.push_decoded(&credential_pk, key, message, record.signature);
            sweep
                .push(
                    &ballot.issuance.kiosk_pk,
                    response_message_from_hash(&credential_pk, &ballot.issuance.er_hash),
                    ballot.issuance.signature,
                )
                .ok()?;
            Some(AcceptedBallot {
                credential_pk,
                ballot,
            })
        })
        .collect();
    let mut rng = sweep.verify(threads).ok()?;

    let per_ballot = 2 * config.n_options as usize;
    let queued = decisions.iter().flatten().count();
    let weights = small_weights(&mut rng, per_ballot * queued);
    let mut proofs = BatchVerifier::new(&[EdwardsPoint::basepoint(), *authority_pk]);
    for (ab, weights) in decisions
        .iter()
        .flatten()
        .zip(weights.chunks_exact(per_ballot))
    {
        queue_vote_proof(&mut proofs, weights, &ab.ballot);
    }
    proofs.verify(threads).then_some(decisions)
}

fn admit_one(
    record: &BallotRecord,
    config: VoteConfig,
    authority_pk: &EdwardsPoint,
    kiosk_registry: &[CompressedPoint],
) -> Option<AcceptedBallot> {
    let vk = VerifyingKey::from_compressed(&record.credential_pk).ok()?;
    vk.verify(&BallotRecord::message(&record.payload), &record.signature)
        .ok()?;
    let ballot = Ballot::from_bytes(&record.payload).ok()?;
    verify_vote_proof(
        authority_pk,
        &ballot.vote_ct,
        config,
        &record.credential_pk,
        &ballot.vote_proof,
    )
    .ok()?;
    ballot
        .verify_issuance(&record.credential_pk, kiosk_registry)
        .ok()?;
    Some(AcceptedBallot {
        credential_pk: record.credential_pk,
        ballot,
    })
}

/// Derives the registration-tag inputs: active records in roster order.
pub fn registration_inputs(ledger: &Ledger) -> Vec<Ciphertext> {
    ledger
        .registration
        .roster()
        .iter()
        .filter_map(|v| ledger.registration.active_record(*v))
        .map(|r| r.c_pc)
        .collect()
}

/// Threshold-decrypts a ciphertext vector with verifiable shares from the
/// first t members, recombining every item, on the host's cores, with one
/// set of Lagrange coefficients.
fn open_vector(
    authority: &Authority,
    cts: &[Ciphertext],
    rng: &mut dyn Rng,
) -> Result<VectorOpening, VotegralError> {
    let nonces = authority.share_nonces(cts.len(), rng);
    open_vector_with(authority, cts, &nonces)
}

/// [`open_vector`] on nonces drawn beforehand ([`Authority::share_nonces`]).
fn open_vector_with(
    authority: &Authority,
    cts: &[Ciphertext],
    nonces: &[Scalar],
) -> Result<VectorOpening, VotegralError> {
    let shares = authority.decryption_shares_with(cts, nonces);
    let indices: Vec<u32> = authority.members[..authority.t]
        .iter()
        .map(|m| m.index)
        .collect();
    let lambdas = lagrange_coefficients(&indices).map_err(VotegralError::Crypto)?;
    let items: Vec<(&Ciphertext, &Vec<DecryptionShare>)> = cts.iter().zip(&shares).collect();
    let plaintexts = par_map(&items, default_threads(), |(ct, item)| {
        combine_with(ct, item, &lambdas)
    });
    Ok(VectorOpening { shares, plaintexts })
}

/// A chain's coins past its mix: the tagging exponents both chains share,
/// its tagging rounds' nonces and its opening's.
struct LaterCoins<'k> {
    keys: &'k [TaggingKey],
    tagging: Vec<Scalar>,
    opening: Vec<Scalar>,
}

/// One chain's evidence: its mix, its tagging cascade over the mix's
/// credential column and the opening of the tagged values.
type Chain<R> = (RowMixTranscript<R>, Vec<TaggingRound>, VectorOpening);

/// Mixes `inputs` on `mix`'s coins, taken stage by stage as they arrive,
/// then takes the chain's later coins from `later`, tags the column
/// `tagged` picks from the mixed rows and opens the tagged values.
fn run_chain<'k, R: Row>(
    authority: &Authority,
    cascade: &MixCascade,
    inputs: &[R],
    tagged: fn(&R) -> Ciphertext,
    mix: impl IntoIterator<Item = ShuffleCoins<R>>,
    later: impl FnOnce() -> LaterCoins<'k>,
) -> Result<Chain<R>, VotegralError> {
    let mix = cascade.mix_with(&authority.public_key, inputs, mix);
    let column: Vec<Ciphertext> = mix.outputs().iter().map(tagged).collect();
    let coins = later();
    let tagging = apply_cascade_with(coins.keys, &column, &coins.tagging);
    let opened = tagging.last().map_or(&column, |r| &r.outputs);
    let opening = open_vector_with(authority, opened, &coins.opening)?;
    Ok((mix, tagging, opening))
}

/// Runs the complete tally, producing the transcript.
pub fn tally(
    authority: &Authority,
    ledger: &Ledger,
    config: VoteConfig,
    kiosk_registry: &[CompressedPoint],
    mixers: usize,
    rng: &mut (dyn Rng + Send),
) -> Result<TallyTranscript, VotegralError> {
    let apk = authority.public_key;

    // Stage 1: admission + dedup.
    let (accepted, rejected, superseded) = admit_ballots(ledger, config, &apk, kiosk_registry);

    // Stage 2 inputs. Credential keys ride along as trivial encryptions.
    let mut ballot_pair_inputs: Vec<(Ciphertext, Ciphertext)> = accepted
        .iter()
        .map(|ab| {
            let pk_point = ab
                .credential_pk
                .decompress()
                .expect("admitted keys decompress");
            (
                ab.ballot.vote_ct,
                Ciphertext {
                    c1: EdwardsPoint::IDENTITY,
                    c2: pk_point,
                },
            )
        })
        .collect();
    let mut reg_inputs = registration_inputs(ledger);

    // Pad both sides to the mixnet minimum with canonical dummies.
    let mut n_ballot_dummies = 0;
    while ballot_pair_inputs.len() < 2 {
        ballot_pair_inputs.push((dummy_ciphertext(), dummy_ciphertext()));
        n_ballot_dummies += 1;
    }
    let mut n_reg_dummies = 0;
    while reg_inputs.len() < 2 {
        reg_inputs.push(dummy_ciphertext());
        n_reg_dummies += 1;
    }
    let max_n = ballot_pair_inputs.len().max(reg_inputs.len());
    let cascade = MixCascade::new(max_n, mixers);

    // Stages 2–4 as two chains side by side (module docs). The drawing
    // side must be `join`'s first closure: with no free slot `join` runs
    // it to its end first, so every coin is waiting in its channel before
    // the ballot chain, on this thread, asks for it.
    let (mix_tx, mix_rx) = mpsc::channel();
    let (later_tx, later_rx) = mpsc::channel();
    let keys: OnceLock<Vec<TaggingKey>> = OnceLock::new();
    let draw_then_register = || {
        for _ in 0..cascade.mixers() {
            // A send fails only once the ballot chain has panicked, and
            // that panic reaches the caller.
            let _ = mix_tx.send(cascade.context().draw(ballot_pair_inputs.len(), rng));
        }
        // The ballot mix takes stages until the sender is gone.
        drop(mix_tx);
        let reg_mix = cascade.draw(reg_inputs.len(), rng);
        let keys = keys.get_or_init(|| {
            (0..authority.n)
                .map(|_| TaggingKey::generate(rng))
                .collect()
        });
        let reg_tagging = cascade_nonces(keys.len(), rng);
        let ballot_tagging = cascade_nonces(keys.len(), rng);
        let reg_opening = authority.share_nonces(reg_inputs.len(), rng);
        let key_opening = authority.share_nonces(ballot_pair_inputs.len(), rng);
        let _ = later_tx.send((ballot_tagging, key_opening));
        run_chain(
            authority,
            &cascade,
            &reg_inputs,
            |ct| *ct,
            reg_mix,
            || LaterCoins {
                keys,
                tagging: reg_tagging,
                opening: reg_opening,
            },
        )
    };
    let ballots = || {
        run_chain(
            authority,
            &cascade,
            &ballot_pair_inputs,
            |pair| pair.1,
            mix_rx,
            || {
                let (tagging, opening) = later_rx
                    .recv()
                    .expect("the drawing side sends the ballot chain's later coins");
                LaterCoins {
                    keys: keys.get().expect("drawn before the later coins were sent"),
                    tagging,
                    opening,
                }
            },
        )
    };
    let (reg_chain, ballot_chain) = join(default_threads(), draw_then_register, ballots);
    let (reg_mix, reg_tagging, reg_opening) = reg_chain?;
    let (ballot_mix, ballot_tagging, key_opening) = ballot_chain?;
    let tag_commitments: Vec<EdwardsPoint> = keys
        .get()
        .expect("drawn by the drawing side")
        .iter()
        .map(|k| k.commitment)
        .collect();

    // Stage 5: linear-time matching, consuming each tag at most once.
    let matched_indices = match_tags(&reg_opening.plaintexts, &key_opening.plaintexts);

    // Stage 6: decrypt matched votes only, and count.
    let matched_votes: Vec<Ciphertext> = matched_indices
        .iter()
        .map(|&i| ballot_mix.outputs()[i].0)
        .collect();
    let vote_opening = open_vector(authority, &matched_votes, rng)?;
    let result = count_votes(
        config,
        &vote_opening.plaintexts,
        ballot_mix.outputs().len(),
        matched_indices.len(),
    );

    Ok(TallyTranscript {
        config,
        accepted,
        rejected,
        superseded,
        reg_inputs,
        ballot_pair_inputs,
        n_ballot_dummies,
        n_reg_dummies,
        ballot_mix,
        reg_mix,
        tag_commitments,
        reg_tagging,
        ballot_tagging,
        reg_opening,
        key_opening,
        matched_indices,
        vote_opening,
        result,
    })
}

/// Matches blinded ballot keys against blinded registration tags; each tag
/// is consumed at most once (at most one counted ballot per registration).
///
/// A ballot whose key matches *several* tags is listed once per matched
/// tag: an ordinary credential anchors exactly one active registration, so
/// multiplicity above one arises only when several voters delegated their
/// voting rights to the same well-known entity (extension C.3) — whose
/// single ballot then counts once per delegating voter, as Appendix C.3
/// specifies.
///
/// The identity element never matches: padding dummies on both sides blind
/// to the identity (s·0 = 0), while genuine credential keys cannot be the
/// identity because small-order keys are rejected at ballot admission.
///
/// Every comparison — identity test included — is made on cofactor-cleared
/// images 8·P: the tagging and opening proofs establish the blinded values
/// only up to an 8-torsion component (transcript points are curve-checked,
/// not subgroup-checked), so a member could otherwise shift one victim's
/// published tag by a torsion point and silently unmatch it. Honest values
/// lie in the prime-order subgroup, where P ↦ 8·P is a bijection, so
/// honest runs decide exactly as a comparison of raw encodings would.
pub fn match_tags(blinded_tags: &[EdwardsPoint], blinded_keys: &[EdwardsPoint]) -> Vec<usize> {
    let cleared = |points: &[EdwardsPoint]| {
        let images: Vec<EdwardsPoint> = points.iter().map(|p| p.mul_by_cofactor()).collect();
        EdwardsPoint::batch_compress(&images)
    };
    let identity = CompressedPoint::identity();
    let mut available: HashMap<CompressedPoint, u32> = HashMap::new();
    for c in cleared(blinded_tags) {
        if c != identity {
            *available.entry(c).or_insert(0) += 1;
        }
    }
    let mut matched = Vec::new();
    for (i, c) in cleared(blinded_keys).into_iter().enumerate() {
        if c == identity {
            continue;
        }
        if let Some(count) = available.get_mut(&c) {
            // Consume every tag this key anchors (multiplicity = number of
            // voters who delegated to this key; 1 for ordinary ballots).
            for _ in 0..*count {
                matched.push(i);
            }
            *count = 0;
        }
    }
    matched
}

/// The option v < `n_options` with 8·P = 8·(v·B), if any: the vote a
/// decrypted point encodes, read — like [`match_tags`] — on
/// cofactor-cleared images.
fn vote_of(point: &EdwardsPoint, n_options: u32) -> Option<u32> {
    let cleared = point.mul_by_cofactor();
    let step = EdwardsPoint::basepoint().mul_by_cofactor();
    let mut acc = EdwardsPoint::IDENTITY;
    for v in 0..n_options {
        if acc == cleared {
            return Some(v);
        }
        acc += step;
    }
    None
}

/// Counts decrypted votes (g^v points) into per-option totals.
pub fn count_votes(
    config: VoteConfig,
    opened_votes: &[EdwardsPoint],
    total_mixed: usize,
    total_matched: usize,
) -> ElectionResult {
    let mut counts = vec![0u64; config.n_options as usize];
    let mut counted = 0usize;
    let mut invalid = 0usize;
    for point in opened_votes {
        match vote_of(point, config.n_options) {
            Some(v) => {
                counts[v as usize] += 1;
                counted += 1;
            }
            None => invalid += 1,
        }
    }
    ElectionResult {
        counts,
        counted,
        invalid,
        // Saturating: with delegation multiplicity (extension C.3) the
        // match count can exceed the mixed-ballot count.
        unmatched: total_mixed.saturating_sub(total_matched),
    }
}

// The tally's verifier lives in `crate::verifier`; tests for the full
// pipeline are in `crate::election` and the workspace integration tests.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ballot::{build_ballot_record, Ballot};
    use crate::election::ElectionBuilder;
    use vg_crypto::schnorr::SigningKey;
    use vg_crypto::{HmacDrbg, Scalar};
    use vg_ledger::VoterId;
    use vg_trip::vsd::ActivatedCredential;

    struct Board {
        config: VoteConfig,
        apk: EdwardsPoint,
        registry: Vec<CompressedPoint>,
        credentials: Vec<ActivatedCredential>,
        /// One honest ballot per credential, then a re-vote by the first.
        records: Vec<BallotRecord>,
        rng: HmacDrbg,
    }

    fn board(seed: u64) -> Board {
        let mut rng = HmacDrbg::from_u64(seed);
        let mut election = ElectionBuilder::new().voters(3).options(3).build(&mut rng);
        let mut credentials = Vec::new();
        for v in 1..=3u64 {
            let (_, vsd) = election
                .register_and_activate(VoterId(v), (v % 2) as usize, &mut rng)
                .expect("registers");
            credentials.extend(vsd.credentials);
        }
        let (config, apk) = (election.vote_config, election.trip.authority.public_key);
        let mut records: Vec<BallotRecord> = credentials
            .iter()
            .enumerate()
            .map(|(i, c)| build_ballot_record(c, i as u32 % 3, config, &apk, &mut rng).unwrap())
            .collect();
        records.push(build_ballot_record(&credentials[0], 2, config, &apk, &mut rng).unwrap());
        Board {
            config,
            apk,
            registry: election.trip.kiosk_registry.clone(),
            credentials,
            records,
            rng,
        }
    }

    impl Board {
        /// Re-signs `records[i]` after `edit` changed its decoded ballot.
        fn rewrite(&mut self, i: usize, edit: impl FnOnce(&mut Ballot, &mut HmacDrbg)) {
            let mut ballot = Ballot::from_bytes(&self.records[i].payload).expect("decodes");
            edit(&mut ballot, &mut self.rng);
            let payload = ballot.to_bytes();
            self.records[i].signature = self.credentials[i]
                .key
                .sign(&BallotRecord::message(&payload));
            self.records[i].payload = payload;
        }

        fn one_by_one(&self) -> (Vec<AcceptedBallot>, usize, usize) {
            keep_last(
                self.records
                    .iter()
                    .map(|r| admit_one(r, self.config, &self.apk, &self.registry)),
            )
        }

        fn folded(&self) -> Option<Vec<Option<AcceptedBallot>>> {
            admit_block_folded(&self.records, self.config, &self.apk, &self.registry)
        }

        fn admitted(&self) -> (Vec<AcceptedBallot>, usize, usize) {
            admit_records(&self.records, self.config, &self.apk, &self.registry)
        }
    }

    #[test]
    fn all_valid_board_never_enters_the_fallback() {
        let board = board(1);
        let decisions = board.folded().expect("the folds accept an honest board");
        assert!(decisions.iter().all(Option::is_some));
        let (accepted, rejected, superseded) = board.admitted();
        assert_eq!((rejected, superseded), (0, 1), "one re-vote, no rejects");
        assert_eq!(accepted.len(), board.credentials.len());
        assert_eq!(board.admitted(), board.one_by_one());
        // The empty board passes through the folds too.
        let empty = admit_block_folded(&[], board.config, &board.apk, &board.registry);
        assert_eq!(empty, Some(Vec::new()));
    }

    #[test]
    fn exact_rejections_stay_out_of_the_folds() {
        // Undecodable payload, broken challenge sum, unknown kiosk, and a
        // registry entry that is no key (the identity) named by a ballot
        // with a bad credential signature: decided exactly, before any
        // signature is queued, so the remaining valid ballots still fold
        // clean.
        let mut board = board(2);
        let garbage = vec![0xffu8; 40];
        board.records[1].signature = board.credentials[1]
            .key
            .sign(&BallotRecord::message(&garbage));
        board.records[1].payload = garbage;
        board.rewrite(2, |ballot, _| {
            ballot.vote_proof.branches[0].1 += Scalar::ONE
        });
        board.rewrite(3, |ballot, rng| {
            ballot.issuance.kiosk_pk = SigningKey::generate(rng).verifying_key().compress();
        });
        let mut identity = [0u8; 32];
        identity[0] = 1;
        board.registry.push(CompressedPoint(identity));
        board.rewrite(4, |ballot, _| {
            ballot.issuance.kiosk_pk = CompressedPoint(identity)
        });
        board.records[4].signature.s += Scalar::ONE;
        let decisions = board.folded().expect("no fold sees the exact rejections");
        let rejected: Vec<usize> = (0..decisions.len())
            .filter(|&i| decisions[i].is_none())
            .collect();
        assert_eq!(rejected, vec![1, 2, 3, 4]);
        assert_eq!(board.admitted(), board.one_by_one());
    }

    #[test]
    fn fold_then_fallback_decides_like_one_by_one() {
        // One bad credential signature, one bad vote-proof branch and one
        // unknown kiosk among valid ballots: the folds reject, the
        // fallback locates the offenders, and the outcome is the loop's.
        let mut board = board(3);
        board.records[1].signature.s += Scalar::ONE;
        board.rewrite(2, |ballot, _| {
            ballot.vote_proof.branches[1].2 += Scalar::ONE
        });
        board.rewrite(3, |ballot, rng| {
            ballot.issuance.kiosk_pk = SigningKey::generate(rng).verifying_key().compress();
        });
        assert!(board.folded().is_none(), "a fold must reject this board");
        let (accepted, rejected, superseded) = board.admitted();
        assert_eq!((accepted, rejected, superseded), board.one_by_one());
        assert_eq!((rejected, superseded), (3, 1));

        // Each fold-level offender alone is caught by its own fold.
        for offender in 0..3 {
            let mut board = self::board(4);
            match offender {
                0 => board.records[0].signature.s += Scalar::ONE,
                1 => board.rewrite(1, |ballot, _| {
                    ballot.vote_proof.branches[0].2 += Scalar::ONE
                }),
                _ => board.rewrite(2, |ballot, _| ballot.issuance.signature.s += Scalar::ONE),
            }
            assert!(board.folded().is_none(), "offender {offender} folded clean");
            assert_eq!(board.admitted(), board.one_by_one(), "offender {offender}");
            assert_eq!(board.admitted().1, 1);
        }
    }

    #[test]
    fn torsion_crafted_vote_proof_gets_one_verdict_alone_and_in_its_block() {
        // A credential holder encrypts with C₁ shifted by a point T of
        // order 8 and proves with its true randomness: every branch
        // equation is off by eₘ·T, so the proof holds modulo E[8] and
        // almost never exactly. The block fold and the one-by-one check
        // take it alike: the ballot is admitted either way.
        let mut board = board(5);
        let inv8 = Scalar::from_u64(8).invert();
        let t8 = (1u8..)
            .filter_map(|b| CompressedPoint([b; 32]).decompress())
            .map(|p| p - p.mul_by_cofactor() * inv8)
            .find(|t| !t.double().double().is_identity())
            .expect("some point has a component of order 8");
        let (config, apk) = (board.config, board.apk);
        let credential_pk = board.credentials[1].public_key();
        board.rewrite(1, |ballot, rng| {
            let r = rng.scalar();
            let vote = EdwardsPoint::mul_base(&Scalar::from_u64(2));
            let mut ct = vg_crypto::elgamal::encrypt_point_with(&apk, &vote, &r);
            ct.c1 += t8;
            ballot.vote_proof =
                crate::ballot::prove_vote(&apk, &ct, &r, 2, config, &credential_pk, rng);
            ballot.vote_ct = ct;
        });
        assert!(board.folded().is_some(), "the folds accept the board");
        assert_eq!(board.admitted(), board.one_by_one());
        assert_eq!(board.admitted().1, 0, "no ballot rejected");
    }

    #[test]
    fn decisions_are_taken_on_cofactor_cleared_points() {
        // (0, −1) has order 2: adding it to an opened plaintext changes its
        // encoding but neither its match nor its vote.
        let mut enc = [0xffu8; 32];
        enc[0] = 0xec;
        enc[31] = 0x7f;
        let t2 = CompressedPoint(enc).decompress().expect("on curve");
        let p = |k: u64| EdwardsPoint::mul_base(&Scalar::from_u64(k));
        let tags = [p(11), EdwardsPoint::IDENTITY, p(12)];
        let keys = [p(12) + t2, p(13), t2, p(11)];
        assert_eq!(match_tags(&tags, &keys), vec![0, 3]);
        let counted = count_votes(VoteConfig::new(3), &[p(2) + t2, p(0), p(3), t2], 4, 4);
        assert_eq!(counted.counts, vec![2, 0, 1]);
        assert_eq!((counted.counted, counted.invalid), (3, 1));
    }
}
