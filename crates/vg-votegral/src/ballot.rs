//! Ballot construction, validity proofs and casting (Fig 3 "Vote" stage,
//! Appendix M).
//!
//! A Votegral ballot contains the ElGamal-encrypted vote (exponential
//! encoding), a disjunctive Chaum–Pedersen proof that the plaintext is a
//! valid option (which simultaneously proves knowledge of the encryption
//! randomness, preventing ballot copying), and the kiosk's issuance
//! signature σ_kr over the credential public key — restricting valid
//! ballots to registrar-issued credentials, which is what makes the tally's
//! filtering *linear* instead of Civitas' quadratic PET matching (§7.4) and
//! defeats board-flooding \[82\].
//!
//! The ballot payload is signed by the credential key pair and posted to
//! the ballot ledger L_V.

use vg_crypto::batch::BatchVerifier;
use vg_crypto::chaum_pedersen::{verify_transcript, Commitment, DlEqStatement, IzkpTranscript};
use vg_crypto::codec::{put_scalar, Reader};
use vg_crypto::drbg::Rng;
use vg_crypto::edwards::FixedBaseTable;
use vg_crypto::elgamal::Ciphertext;
use vg_crypto::schnorr::{Signature, VerifyingKey};
use vg_crypto::{CompressedPoint, CryptoError, EdwardsPoint, Scalar, Transcript};
use vg_ledger::{BallotRecord, Ledger};
use vg_trip::materials::response_message_from_hash;
use vg_trip::vsd::ActivatedCredential;

use crate::error::VotegralError;

/// Election vote configuration: the candidate list size |M|.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VoteConfig {
    /// Number of options; valid votes are 0 … n_options−1.
    pub n_options: u32,
}

impl VoteConfig {
    /// A configuration with `n` options.
    pub fn new(n: u32) -> Self {
        assert!(n >= 1, "an election needs at least one option");
        Self { n_options: n }
    }
}

/// A disjunctive (OR) Chaum–Pedersen proof that an ElGamal ciphertext
/// encrypts g^v for some v in 0 … M−1, bound to the casting credential.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VoteProof {
    /// One simulated-or-real Σ-branch per option: (commit, challenge,
    /// response); the challenges sum to the Fiat–Shamir challenge.
    pub branches: Vec<(Commitment, Scalar, Scalar)>,
}

/// The registrar-issuance evidence carried by every ballot (§4.5
/// "credential signing").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IssuanceTag {
    /// The issuing kiosk.
    pub kiosk_pk: CompressedPoint,
    /// H(e ‖ r) from the paper credential.
    pub er_hash: [u8; 32],
    /// σ_kr over c_pk ‖ H(e ‖ r).
    pub signature: Signature,
}

/// A decoded ballot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ballot {
    /// Enc(A_pk, g^v).
    pub vote_ct: Ciphertext,
    /// Proof that v is a valid option.
    pub vote_proof: VoteProof,
    /// Registrar-issuance evidence.
    pub issuance: IssuanceTag,
}

/// The per-branch statement: "c₂ − m·B = r·A_pk and c₁ = r·B".
fn branch_statement(authority_pk: &EdwardsPoint, ct: &Ciphertext, option: u32) -> DlEqStatement {
    let m_point = EdwardsPoint::mul_base(&Scalar::from_u64(option as u64));
    DlEqStatement {
        g1: EdwardsPoint::basepoint(),
        y1: ct.c1,
        g2: *authority_pk,
        y2: ct.c2 - m_point,
    }
}

/// The Fiat–Shamir challenge of a vote proof, from the *encodings* of
/// everything it binds: A_pk, the 64-byte ciphertext, the credential key
/// and each branch's (Y₁, Y₂) in option order.
fn vote_challenge<'a>(
    authority_pk: &CompressedPoint,
    ct: &[u8],
    credential_pk: &CompressedPoint,
    config: VoteConfig,
    commitments: impl Iterator<Item = (&'a [u8], &'a [u8])>,
) -> Scalar {
    let mut t = Transcript::new(b"votegral-vote-proof");
    t.append_compressed(b"vp-apk", authority_pk);
    t.append_bytes(b"vp-ct", ct);
    t.append_bytes(b"vp-cred", &credential_pk.0);
    t.append_u64(b"vp-m", config.n_options as u64);
    for (a1, a2) in commitments {
        t.append_bytes(b"vp-a1", a1);
        t.append_bytes(b"vp-a2", a2);
    }
    t.challenge_scalar(b"vp-e")
}

/// [`vote_challenge`] for a statement and commitments held as points,
/// all compressed through one shared inversion.
fn vote_challenge_of_points<'a>(
    authority_pk: &EdwardsPoint,
    ct: &Ciphertext,
    credential_pk: &CompressedPoint,
    config: VoteConfig,
    commitments: impl Iterator<Item = &'a Commitment>,
) -> Scalar {
    let mut points = vec![*authority_pk, ct.c1, ct.c2];
    for commit in commitments {
        points.extend([commit.a1, commit.a2]);
    }
    let enc = EdwardsPoint::batch_compress(&points);
    vote_challenge(
        &enc[0],
        &[enc[1].0, enc[2].0].concat(),
        credential_pk,
        config,
        enc[3..].chunks_exact(2).map(|c| (&c[0].0[..], &c[1].0[..])),
    )
}

/// Proves that `ct = Enc(A_pk, g^vote; r)` with `vote < n_options`,
/// bound to `credential_pk`.
///
/// Every commitment is computed from the witness (r, vote), on the two
/// fixed bases B and A_pk. With C₁ = r·B and C₂ = r·A_pk + v·B, a forged
/// branch m with challenge eₘ and response y commits
/// (y·B + eₘ·C₁, y·A_pk + eₘ·(C₂ − m·B)) = (t·B, t·A_pk + eₘ(v − m)·B)
/// for t = y + eₘ·r, and the real branch commits (k·B, k·A_pk): the points
/// `forge_transcript` and `Prover::commit` produce on the branch
/// statements, from the same draws in the same order (eₘ then y for each
/// forged branch in option order, then k). A `ct` that does not encrypt
/// `vote` under `randomness` yields a proof that fails verification.
///
/// # Panics
///
/// Panics if `vote >= config.n_options`.
pub fn prove_vote(
    authority_pk: &EdwardsPoint,
    ct: &Ciphertext,
    randomness: &Scalar,
    vote: u32,
    config: VoteConfig,
    credential_pk: &CompressedPoint,
    rng: &mut dyn Rng,
) -> VoteProof {
    assert!(vote < config.n_options, "vote out of range");
    let pk_table = FixedBaseTable::shared(authority_pk);
    prove_vote_on(
        authority_pk,
        &pk_table,
        ct,
        randomness,
        vote,
        config,
        credential_pk,
        rng,
    )
}

/// [`prove_vote`] on A_pk's table, fetched once by the caller.
#[allow(clippy::too_many_arguments)] // prove_vote's seven, and the table
fn prove_vote_on(
    authority_pk: &EdwardsPoint,
    pk_table: &FixedBaseTable,
    ct: &Ciphertext,
    randomness: &Scalar,
    vote: u32,
    config: VoteConfig,
    credential_pk: &CompressedPoint,
    rng: &mut dyn Rng,
) -> VoteProof {
    let v = Scalar::from_u64(vote as u64);

    // Forge every branch except the real one, whose slot waits for k.
    let mut branches = Vec::with_capacity(config.n_options as usize);
    let mut challenge_sum = Scalar::ZERO;
    for opt in 0..config.n_options {
        if opt == vote {
            let pending = Commitment {
                a1: EdwardsPoint::IDENTITY,
                a2: EdwardsPoint::IDENTITY,
            };
            branches.push((pending, Scalar::ZERO, Scalar::ZERO));
            continue;
        }
        let e_m = rng.scalar();
        let y = rng.scalar();
        let t = y + e_m * *randomness;
        let shift = e_m * (v - Scalar::from_u64(opt as u64));
        let commit = Commitment {
            a1: EdwardsPoint::mul_base(&t),
            a2: pk_table.mul(&t) + EdwardsPoint::mul_base(&shift),
        };
        challenge_sum += e_m;
        branches.push((commit, e_m, y));
    }
    // Real branch: commit honestly, then split the global challenge.
    let k = rng.scalar();
    branches[vote as usize].0 = Commitment {
        a1: EdwardsPoint::mul_base(&k),
        a2: pk_table.mul(&k),
    };
    let e = vote_challenge_of_points(
        authority_pk,
        ct,
        credential_pk,
        config,
        branches.iter().map(|(commit, _, _)| commit),
    );
    let e_real = e - challenge_sum;
    branches[vote as usize].1 = e_real;
    branches[vote as usize].2 = k - e_real * *randomness;
    VoteProof { branches }
}

/// Verifies a vote-validity proof.
pub fn verify_vote_proof(
    authority_pk: &EdwardsPoint,
    ct: &Ciphertext,
    config: VoteConfig,
    credential_pk: &CompressedPoint,
    proof: &VoteProof,
) -> Result<(), CryptoError> {
    if proof.branches.len() != config.n_options as usize {
        return Err(CryptoError::Malformed("wrong branch count"));
    }
    let e = vote_challenge_of_points(
        authority_pk,
        ct,
        credential_pk,
        config,
        proof.branches.iter().map(|(commit, _, _)| commit),
    );
    let sum: Scalar = proof.branches.iter().map(|(_, e_m, _)| *e_m).sum();
    if sum != e {
        return Err(CryptoError::BadProof);
    }
    for (opt, (commit, e_m, z_m)) in proof.branches.iter().enumerate() {
        let stmt = branch_statement(authority_pk, ct, opt as u32);
        let t = IzkpTranscript {
            commit: *commit,
            challenge: *e_m,
            response: *z_m,
        };
        if !verify_transcript(&stmt, &t) {
            return Err(CryptoError::BadProof);
        }
    }
    Ok(())
}

/// Byte offset of the first branch in a ballot payload, after the 4-byte
/// branch count and the 64-byte ciphertext; each branch is 128 bytes
/// (Y₁ ‖ Y₂ ‖ e ‖ z).
const BRANCHES_AT: usize = 68;

/// The exact half of [`verify_vote_proof`] for a ballot decoded from
/// `payload`: branch count and Σ eₘ = H(…). The strict decoder accepts
/// only canonical encodings, so the payload's own bytes *are* the
/// compressed ciphertext and commitments the challenge binds — no point is
/// re-compressed.
pub(crate) fn check_vote_challenge(
    authority_pk: &CompressedPoint,
    ballot: &Ballot,
    payload: &[u8],
    credential_pk: &CompressedPoint,
    config: VoteConfig,
) -> Result<(), CryptoError> {
    let branches = &ballot.vote_proof.branches;
    if branches.len() != config.n_options as usize {
        return Err(CryptoError::Malformed("wrong branch count"));
    }
    let e = vote_challenge(
        authority_pk,
        &payload[4..BRANCHES_AT],
        credential_pk,
        config,
        payload[BRANCHES_AT..]
            .chunks_exact(128)
            .take(branches.len())
            .map(|branch| (&branch[..32], &branch[32..64])),
    );
    let sum: Scalar = branches.iter().map(|(_, e_m, _)| *e_m).sum();
    if sum == e {
        Ok(())
    } else {
        Err(CryptoError::BadProof)
    }
}

/// The folded half of [`verify_vote_proof`]: queues both equations of
/// every branch, w₁·(Y₁ − z·B − eₘ·C₁) + w₂·(Y₂ − z·A_pk − eₘ·(C₂ − m·B)),
/// into a batch whose static bases are B at 0 and A_pk at 1. `weights`
/// holds two per branch; C₁ and C₂ are one term each for all branches.
pub(crate) fn queue_vote_proof(batch: &mut BatchVerifier, weights: &[Scalar], ballot: &Ballot) {
    let (mut c1_coeff, mut c2_coeff) = (Scalar::ZERO, Scalar::ZERO);
    for (m, ((commit, e_m, z_m), w)) in ballot
        .vote_proof
        .branches
        .iter()
        .zip(weights.chunks_exact(2))
        .enumerate()
    {
        batch.add_static(0, w[1] * *e_m * Scalar::from_u64(m as u64) - w[0] * *z_m);
        batch.add_static(1, -(w[1] * *z_m));
        batch.add_term(w[0], commit.a1);
        batch.add_term(w[1], commit.a2);
        c1_coeff -= w[0] * *e_m;
        c2_coeff -= w[1] * *e_m;
    }
    batch.add_term(c1_coeff, ballot.vote_ct.c1);
    batch.add_term(c2_coeff, ballot.vote_ct.c2);
}

impl Ballot {
    /// Serializes the ballot payload canonically.
    ///
    /// The ciphertext's and the branches' 2 + 2·|M| points are compressed
    /// through one field inversion ([`EdwardsPoint::batch_compress`]); the
    /// bytes are those of compressing each point on its own.
    pub fn to_bytes(&self) -> Vec<u8> {
        let branches = &self.vote_proof.branches;
        let mut points = Vec::with_capacity(2 + 2 * branches.len());
        points.extend([self.vote_ct.c1, self.vote_ct.c2]);
        for (commit, _, _) in branches {
            points.extend([commit.a1, commit.a2]);
        }
        let encoded = EdwardsPoint::batch_compress(&points);
        let mut buf = Vec::with_capacity(64 + branches.len() * 128 + 128);
        buf.extend_from_slice(&(branches.len() as u32).to_le_bytes());
        buf.extend_from_slice(&encoded[0].0);
        buf.extend_from_slice(&encoded[1].0);
        for ((_, e_m, z_m), pair) in branches.iter().zip(encoded[2..].chunks_exact(2)) {
            buf.extend_from_slice(&pair[0].0);
            buf.extend_from_slice(&pair[1].0);
            put_scalar(&mut buf, e_m);
            put_scalar(&mut buf, z_m);
        }
        buf.extend_from_slice(&self.issuance.kiosk_pk.0);
        buf.extend_from_slice(&self.issuance.er_hash);
        buf.extend_from_slice(&self.issuance.signature.to_bytes());
        buf
    }

    /// Decodes and structurally validates a ballot payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let mut r = Reader::new(bytes);
        let n_branches = r.u32()? as usize;
        if n_branches == 0 || n_branches > 4096 {
            return Err(CryptoError::Malformed("branch count"));
        }
        let vote_ct = r.ciphertext()?;
        let mut branches = Vec::with_capacity(n_branches);
        for _ in 0..n_branches {
            let a1 = r.point()?;
            let a2 = r.point()?;
            let e_m = r.scalar()?;
            let z_m = r.scalar()?;
            branches.push((Commitment { a1, a2 }, e_m, z_m));
        }
        let kiosk_pk = CompressedPoint(r.bytes32()?);
        let er_hash = r.bytes32()?;
        let sig_bytes: [u8; 64] = r.take(64)?.try_into().expect("64 bytes");
        let signature = Signature::from_bytes(&sig_bytes)?;
        r.finish()?;
        Ok(Ballot {
            vote_ct,
            vote_proof: VoteProof { branches },
            issuance: IssuanceTag {
                kiosk_pk,
                er_hash,
                signature,
            },
        })
    }

    /// Verifies the issuance tag against the credential key and the kiosk
    /// registry.
    pub fn verify_issuance(
        &self,
        credential_pk: &CompressedPoint,
        kiosk_registry: &[CompressedPoint],
    ) -> Result<(), VotegralError> {
        if !kiosk_registry.contains(&self.issuance.kiosk_pk) {
            return Err(VotegralError::UnknownKiosk);
        }
        let kiosk_vk = VerifyingKey::from_compressed(&self.issuance.kiosk_pk)
            .map_err(VotegralError::Crypto)?;
        kiosk_vk
            .verify(
                &response_message_from_hash(credential_pk, &self.issuance.er_hash),
                &self.issuance.signature,
            )
            .map_err(VotegralError::Crypto)?;
        Ok(())
    }
}

/// Encrypts and casts a vote with an activated credential, posting the
/// signed ballot to L_V as a batch of one. Returns the index of the
/// posted record.
///
/// Used identically with real and fake credentials — only the tally
/// determines which ballots count, and nothing in the cast path reveals
/// which kind the credential is.
pub fn cast_ballot(
    credential: &ActivatedCredential,
    vote: u32,
    config: VoteConfig,
    authority_pk: &EdwardsPoint,
    ledger: &mut Ledger,
    rng: &mut dyn Rng,
) -> Result<usize, VotegralError> {
    let record = build_ballot_record(credential, vote, config, authority_pk, rng)?;
    let posted = ledger.ballots.post_batch(vec![record], 1);
    posted
        .map(|range| range.start)
        .map_err(VotegralError::Ledger)
}

/// Constructs a signed, provable ballot record without posting it —
/// the per-ballot half of the batch casting pipeline.
pub fn build_ballot_record(
    credential: &ActivatedCredential,
    vote: u32,
    config: VoteConfig,
    authority_pk: &EdwardsPoint,
    rng: &mut dyn Rng,
) -> Result<BallotRecord, VotegralError> {
    if vote >= config.n_options {
        return Err(VotegralError::VoteOutOfRange);
    }
    let randomness = rng.scalar();
    let g_v = EdwardsPoint::mul_base(&Scalar::from_u64(vote as u64));
    let pk_table = FixedBaseTable::shared(authority_pk);
    let vote_ct = vg_crypto::elgamal::encrypt_point_with_table(&pk_table, &g_v, &randomness);
    let credential_pk = credential.public_key();
    let vote_proof = prove_vote_on(
        authority_pk,
        &pk_table,
        &vote_ct,
        &randomness,
        vote,
        config,
        &credential_pk,
        rng,
    );
    let er_hash = vg_trip::materials::er_hash(&credential.challenge, &credential.response);
    let ballot = Ballot {
        vote_ct,
        vote_proof,
        issuance: IssuanceTag {
            kiosk_pk: credential.kiosk_pk,
            er_hash,
            signature: credential.issuance_sig,
        },
    };
    let payload = ballot.to_bytes();
    let signature = credential.key.sign(&BallotRecord::message(&payload));
    Ok(BallotRecord {
        credential_pk,
        payload,
        signature,
    })
}

/// Casts a batch of ballots: records are built one after another on the
/// calling thread (consuming the RNG in exactly the order a loop of
/// [`cast_ballot`] calls would, so the two paths are bit-for-bit
/// interchangeable), then admitted through the ledger's batch path — one
/// committed signature sweep, parallel leaf hashing, one head
/// re-publication. `threads` reaches only that admission. Returns the
/// posted indices in input order.
pub fn cast_ballots(
    votes: &[(&ActivatedCredential, u32)],
    config: VoteConfig,
    authority_pk: &EdwardsPoint,
    ledger: &mut Ledger,
    threads: usize,
    rng: &mut dyn Rng,
) -> Result<Vec<usize>, VotegralError> {
    let mut records = Vec::with_capacity(votes.len());
    for (credential, vote) in votes {
        records.push(build_ballot_record(
            credential,
            *vote,
            config,
            authority_pk,
            rng,
        )?);
    }
    let range = ledger
        .ballots
        .post_batch(records, threads)
        .map_err(VotegralError::Ledger)?;
    Ok(range.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::codec::{put_ciphertext, put_point};
    use vg_crypto::elgamal::encrypt_point_with;
    use vg_crypto::HmacDrbg;

    fn enc_vote(authority_pk: &EdwardsPoint, vote: u32, rng: &mut dyn Rng) -> (Ciphertext, Scalar) {
        let r = rng.scalar();
        let g_v = EdwardsPoint::mul_base(&Scalar::from_u64(vote as u64));
        (encrypt_point_with(authority_pk, &g_v, &r), r)
    }

    /// The prover before it computed commitments from its witness: forged
    /// branches through `forge_transcript`, the real one through `Prover`,
    /// all on the branch statements.
    fn prove_vote_reference(
        authority_pk: &EdwardsPoint,
        ct: &Ciphertext,
        randomness: &Scalar,
        vote: u32,
        config: VoteConfig,
        credential_pk: &CompressedPoint,
        rng: &mut dyn Rng,
    ) -> VoteProof {
        use vg_crypto::chaum_pedersen::{forge_transcript, Prover};
        let mut branches: Vec<Option<(Commitment, Scalar, Scalar)>> =
            vec![None; config.n_options as usize];
        let mut challenge_sum = Scalar::ZERO;
        for (opt, slot) in branches.iter_mut().enumerate() {
            if opt as u32 == vote {
                continue;
            }
            let stmt = branch_statement(authority_pk, ct, opt as u32);
            let e_m = rng.scalar();
            let t = forge_transcript(&stmt, &e_m, rng);
            challenge_sum += e_m;
            *slot = Some((t.commit, t.challenge, t.response));
        }
        let prover = Prover::commit(&branch_statement(authority_pk, ct, vote), rng);
        let real_commit = prover.commitment();
        let e = vote_challenge_of_points(
            authority_pk,
            ct,
            credential_pk,
            config,
            branches
                .iter()
                .map(|slot| slot.as_ref().map_or(&real_commit, |(commit, _, _)| commit)),
        );
        let t_real = prover.respond(randomness, &(e - challenge_sum));
        branches[vote as usize] = Some((t_real.commit, t_real.challenge, t_real.response));
        VoteProof {
            branches: branches.into_iter().map(|b| b.expect("filled")).collect(),
        }
    }

    fn proof_bytes(proof: &VoteProof) -> Vec<u8> {
        let mut buf = Vec::new();
        for (commit, e_m, z_m) in &proof.branches {
            put_point(&mut buf, &commit.a1);
            put_point(&mut buf, &commit.a2);
            put_scalar(&mut buf, e_m);
            put_scalar(&mut buf, z_m);
        }
        buf
    }

    #[test]
    fn vote_prover_matches_reference() {
        for seed in 0..4u64 {
            let mut rng = HmacDrbg::from_u64(100 + seed);
            let apk = EdwardsPoint::mul_base(&rng.scalar());
            let cred = EdwardsPoint::mul_base(&rng.scalar()).compress();
            for n in 1..=5 {
                let config = VoteConfig::new(n);
                for vote in 0..n {
                    let (ct, r) = enc_vote(&apk, vote, &mut rng);
                    let draws = rng.bytes32();
                    let (mut ours, mut theirs) = (HmacDrbg::new(&draws), HmacDrbg::new(&draws));
                    let proof = prove_vote(&apk, &ct, &r, vote, config, &cred, &mut ours);
                    let reference =
                        prove_vote_reference(&apk, &ct, &r, vote, config, &cred, &mut theirs);
                    assert_eq!(
                        proof_bytes(&proof),
                        proof_bytes(&reference),
                        "n={n} v={vote}"
                    );
                    assert_eq!(ours.bytes32(), theirs.bytes32(), "n={n} v={vote}");
                    verify_vote_proof(&apk, &ct, config, &cred, &proof).expect("verifies");
                }
            }
        }
    }

    #[test]
    fn vote_prover_with_a_mismatched_witness_is_rejected() {
        let mut rng = HmacDrbg::from_u64(6);
        let apk = EdwardsPoint::mul_base(&rng.scalar());
        let cred = EdwardsPoint::mul_base(&rng.scalar()).compress();
        let config = VoteConfig::new(3);
        let (ct, r) = enc_vote(&apk, 1, &mut rng);
        // The wrong randomness, and the right randomness with the wrong vote.
        for (r, vote) in [(r + Scalar::ONE, 1), (r, 2), (r, 0)] {
            let proof = prove_vote(&apk, &ct, &r, vote, config, &cred, &mut rng);
            assert!(verify_vote_proof(&apk, &ct, config, &cred, &proof).is_err());
        }
    }

    #[test]
    fn vote_proof_roundtrip_all_options() {
        let mut rng = HmacDrbg::from_u64(1);
        let apk = EdwardsPoint::mul_base(&rng.scalar());
        let config = VoteConfig::new(4);
        let cred = EdwardsPoint::mul_base(&rng.scalar()).compress();
        for vote in 0..4 {
            let (ct, r) = enc_vote(&apk, vote, &mut rng);
            let proof = prove_vote(&apk, &ct, &r, vote, config, &cred, &mut rng);
            verify_vote_proof(&apk, &ct, config, &cred, &proof)
                .unwrap_or_else(|e| panic!("vote {vote}: {e}"));
        }
    }

    #[test]
    fn out_of_range_vote_has_no_proof() {
        // Encrypt g^7 but the config allows 0..3: an honest prover panics,
        // and no forged branch set can verify (the proof for vote=7 cannot
        // even be constructed via the public API). Verify that a proof for
        // a *different* ciphertext fails.
        let mut rng = HmacDrbg::from_u64(2);
        let apk = EdwardsPoint::mul_base(&rng.scalar());
        let config = VoteConfig::new(3);
        let cred = EdwardsPoint::mul_base(&rng.scalar()).compress();
        let (ct_valid, r) = enc_vote(&apk, 1, &mut rng);
        let proof = prove_vote(&apk, &ct_valid, &r, 1, config, &cred, &mut rng);
        let (ct_other, _) = enc_vote(&apk, 7, &mut rng);
        assert!(verify_vote_proof(&apk, &ct_other, config, &cred, &proof).is_err());
    }

    #[test]
    fn proof_bound_to_credential() {
        let mut rng = HmacDrbg::from_u64(3);
        let apk = EdwardsPoint::mul_base(&rng.scalar());
        let config = VoteConfig::new(2);
        let cred_a = EdwardsPoint::mul_base(&rng.scalar()).compress();
        let cred_b = EdwardsPoint::mul_base(&rng.scalar()).compress();
        let (ct, r) = enc_vote(&apk, 0, &mut rng);
        let proof = prove_vote(&apk, &ct, &r, 0, config, &cred_a, &mut rng);
        assert!(verify_vote_proof(&apk, &ct, config, &cred_a, &proof).is_ok());
        // Re-using the proof under another credential (ballot copying)
        // fails because the challenge binds the credential key.
        assert!(verify_vote_proof(&apk, &ct, config, &cred_b, &proof).is_err());
    }

    #[test]
    fn tampered_branch_rejected() {
        let mut rng = HmacDrbg::from_u64(4);
        let apk = EdwardsPoint::mul_base(&rng.scalar());
        let config = VoteConfig::new(3);
        let cred = EdwardsPoint::mul_base(&rng.scalar()).compress();
        let (ct, r) = enc_vote(&apk, 2, &mut rng);
        let good = prove_vote(&apk, &ct, &r, 2, config, &cred, &mut rng);
        let mut bad = good.clone();
        bad.branches[1].2 += Scalar::ONE;
        assert!(verify_vote_proof(&apk, &ct, config, &cred, &bad).is_err());
        let mut bad = good;
        bad.branches[0].1 += Scalar::ONE;
        assert!(verify_vote_proof(&apk, &ct, config, &cred, &bad).is_err());
    }

    #[test]
    fn ballot_codec_roundtrip() {
        let mut rng = HmacDrbg::from_u64(5);
        let apk = EdwardsPoint::mul_base(&rng.scalar());
        let config = VoteConfig::new(3);
        let kiosk = vg_crypto::schnorr::SigningKey::generate(&mut rng);
        let cred = EdwardsPoint::mul_base(&rng.scalar()).compress();
        let (ct, r) = enc_vote(&apk, 1, &mut rng);
        let proof = prove_vote(&apk, &ct, &r, 1, config, &cred, &mut rng);
        let er_hash = [9u8; 32];
        let ballot = Ballot {
            vote_ct: ct,
            vote_proof: proof,
            issuance: IssuanceTag {
                kiosk_pk: kiosk.verifying_key().compress(),
                er_hash,
                signature: kiosk.sign(&response_message_from_hash(&cred, &er_hash)),
            },
        };
        let decoded = Ballot::from_bytes(&ballot.to_bytes()).expect("decodes");
        assert_eq!(decoded, ballot);
        decoded
            .verify_issuance(&cred, &[kiosk.verifying_key().compress()])
            .expect("issuance verifies");
        // Unknown kiosk rejected.
        assert!(decoded.verify_issuance(&cred, &[]).is_err());
    }

    #[test]
    fn batch_compressed_encoding_matches_per_point() {
        let mut rng = HmacDrbg::from_u64(7);
        let apk = EdwardsPoint::mul_base(&rng.scalar());
        let kiosk = vg_crypto::schnorr::SigningKey::generate(&mut rng);
        let cred = EdwardsPoint::mul_base(&rng.scalar()).compress();
        let er_hash = [3u8; 32];
        for n in 1..=5 {
            let config = VoteConfig::new(n);
            for vote in 0..n {
                let (ct, r) = enc_vote(&apk, vote, &mut rng);
                let proof = prove_vote(&apk, &ct, &r, vote, config, &cred, &mut rng);
                let ballot = Ballot {
                    vote_ct: ct,
                    vote_proof: proof,
                    issuance: IssuanceTag {
                        kiosk_pk: kiosk.verifying_key().compress(),
                        er_hash,
                        signature: kiosk.sign(&response_message_from_hash(&cred, &er_hash)),
                    },
                };
                // The encoding as it was, one `compress` per point.
                let mut want = n.to_le_bytes().to_vec();
                put_ciphertext(&mut want, &ballot.vote_ct);
                want.extend(proof_bytes(&ballot.vote_proof));
                want.extend_from_slice(&ballot.issuance.kiosk_pk.0);
                want.extend_from_slice(&er_hash);
                want.extend_from_slice(&ballot.issuance.signature.to_bytes());
                assert_eq!(ballot.to_bytes(), want, "n={n} v={vote}");
            }
        }
    }

    #[test]
    fn ballot_decode_rejects_garbage() {
        assert!(Ballot::from_bytes(&[]).is_err());
        assert!(Ballot::from_bytes(&[0u8; 16]).is_err());
        let mut valid_prefix = 2u32.to_le_bytes().to_vec();
        valid_prefix.extend_from_slice(&[0xffu8; 300]);
        assert!(Ballot::from_bytes(&valid_prefix).is_err());
    }
}
