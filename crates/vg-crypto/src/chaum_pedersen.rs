//! Chaum–Pedersen proofs of discrete-logarithm equality — the IZKP at the
//! heart of TRIP (§4.3, Appendix E.1).
//!
//! The statement is: given (g₁, y₁, g₂, y₂), the prover knows x with
//! y₁ = x·g₁ and y₂ = x·g₂. TRIP instantiates it with g₁ = B, y₁ = C₁,
//! g₂ = A_pk, y₂ = X where the public credential is c_pc = (C₁, C₂) and
//! X = C₂ − c_pk: a *sound* proof convinces the voter that c_pc encrypts
//! their credential public key.
//!
//! Three modes are provided:
//!
//! - **Interactive, sound** ([`Prover`]): commit → challenge → response in
//!   that order. Used when the kiosk prints a *real* credential (Fig 9a).
//! - **Forged, unsound** ([`forge_transcript`]): the challenge is known
//!   first, so the "prover" computes a commitment that makes any desired
//!   statement check out (Fig 9b). Used for *fake* credentials. The forged
//!   transcript is structurally valid and — by the zero-knowledge property —
//!   indistinguishable from a sound one, which is exactly the paper's
//!   mechanism for coercion-resistant verifiability.
//! - **Non-interactive** ([`prove_dleq`]): Fiat–Shamir over a
//!   [`Transcript`], used for decryption-share and tagging proofs where no
//!   human is in the loop.

use crate::drbg::Rng;
use crate::edwards::{multiscalar_mul, CompressedPoint, EdwardsPoint};
use crate::par::{default_threads, par_map};
use crate::scalar::Scalar;
use crate::transcript::Transcript;
use crate::CryptoError;

/// The public statement y₁ = x·g₁ ∧ y₂ = x·g₂.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DlEqStatement {
    /// First base.
    pub g1: EdwardsPoint,
    /// First image y₁ = x·g₁.
    pub y1: EdwardsPoint,
    /// Second base.
    pub g2: EdwardsPoint,
    /// Second image y₂ = x·g₂.
    pub y2: EdwardsPoint,
}

/// The prover's first message (Y₁, Y₂) = (y·g₁, y·g₂).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Commitment {
    /// Y₁ = y·g₁.
    pub a1: EdwardsPoint,
    /// Y₂ = y·g₂.
    pub a2: EdwardsPoint,
}

/// A complete Σ-protocol transcript (commit, challenge, response).
///
/// Printed on paper credentials as three QR codes; the transcript alone
/// does not reveal whether commit or challenge was chosen first — the one
/// bit of information only the voter in the booth observes (§4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IzkpTranscript {
    /// The commitment pair.
    pub commit: Commitment,
    /// The verifier's challenge e.
    pub challenge: Scalar,
    /// The response r (= y − e·x when sound).
    pub response: Scalar,
}

/// Interactive prover state between commit and response.
///
/// Constructed *before* the challenge is known; this ordering is what makes
/// the resulting transcript sound.
pub struct Prover {
    nonce: Scalar,
    commit: Commitment,
}

/// `s·base`, through the fixed-base table when `base` is the basepoint —
/// every tagging, decryption-share and vote-proof statement has g₁ = B.
fn scale(base: &EdwardsPoint, s: &Scalar) -> EdwardsPoint {
    if *base == EdwardsPoint::basepoint() {
        EdwardsPoint::mul_base(s)
    } else {
        *base * s
    }
}

impl Prover {
    /// Step 1 (kiosk, Fig 9a line 5): choose a nonce and commit.
    pub fn commit(stmt: &DlEqStatement, rng: &mut dyn Rng) -> Self {
        Self::with_nonce(stmt, rng.scalar())
    }

    /// [`Prover::commit`] with a nonce drawn beforehand.
    fn with_nonce(stmt: &DlEqStatement, nonce: Scalar) -> Self {
        let commit = Commitment {
            a1: scale(&stmt.g1, &nonce),
            a2: scale(&stmt.g2, &nonce),
        };
        Self { nonce, commit }
    }

    /// Rebuilds prover state from a nonce and its commitment computed
    /// ahead of time (the ceremony-pool precomputation path: the two
    /// commitment multiplications are the expensive half of the kiosk's
    /// real-credential step and depend only on the bases, never on the
    /// voter).
    ///
    /// The caller is responsible for `commit == (y·g₁, y·g₂)`; a mismatch
    /// yields transcripts that fail verification, never an unsound accept.
    pub fn from_parts(nonce: Scalar, commit: Commitment) -> Self {
        Self { nonce, commit }
    }

    /// The commitment to print before receiving the challenge.
    pub fn commitment(&self) -> Commitment {
        self.commit
    }

    /// Step 3 (kiosk, Fig 9a line 12): compute r = y − e·x.
    pub fn respond(self, x: &Scalar, challenge: &Scalar) -> IzkpTranscript {
        IzkpTranscript {
            commit: self.commit,
            challenge: *challenge,
            response: self.nonce - *challenge * *x,
        }
    }
}

/// Forges a structurally valid transcript for a statement the "prover"
/// has no witness for, given the challenge *in advance* (Fig 9b).
///
/// With r = y and A = (y·g₁ + e·y₁, y·g₂ + e·y₂) the verification equations
/// hold by construction for any (y₁, y₂); soundness is lost exactly because
/// the challenge preceded the commitment. This is deliberate: it is the
/// fake-credential mechanism, not a bug.
pub fn forge_transcript(
    stmt: &DlEqStatement,
    challenge: &Scalar,
    rng: &mut dyn Rng,
) -> IzkpTranscript {
    let y = rng.scalar();
    let commit = Commitment {
        a1: scale(&stmt.g1, &y) + stmt.y1 * *challenge,
        a2: multiscalar_mul(&[y, *challenge], &[stmt.g2, stmt.y2]),
    };
    IzkpTranscript {
        commit,
        challenge: *challenge,
        response: y,
    }
}

/// Verifies a Σ-protocol transcript:
/// Y₁ == r·g₁ + e·y₁ and Y₂ == r·g₂ + e·y₂.
///
/// Both sound and forged transcripts pass — the transcript carries no
/// information about the order in which it was produced.
pub fn verify_transcript(stmt: &DlEqStatement, t: &IzkpTranscript) -> bool {
    let lhs1 = stmt.g1 * t.response + stmt.y1 * t.challenge;
    let lhs2 = stmt.g2 * t.response + stmt.y2 * t.challenge;
    lhs1 == t.commit.a1 && lhs2 == t.commit.a2
}

/// A non-interactive (Fiat–Shamir) discrete-log-equality proof.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DlEqProof {
    /// The commitment pair.
    pub commit: Commitment,
    /// The response.
    pub response: Scalar,
}

/// The encodings a NIZK challenge absorbs, in absorption order:
/// g₁, y₁, g₂, y₂, Y₁, Y₂.
pub type DlEqEncodings = [CompressedPoint; 6];

/// Derives the Fiat–Shamir challenge of a NIZK proof from the *encodings*
/// of its statement and commitment — byte for byte what [`prove_dleq`] and
/// [`verify_dleq`] absorb. Batched provers and verifiers compress a whole
/// vector of points with one shared inversion
/// ([`EdwardsPoint::batch_compress`]) and replay the challenges from here.
pub fn dleq_challenge(transcript: &mut Transcript, enc: &DlEqEncodings) -> Scalar {
    const LABELS: [&[u8]; 6] = [b"cp-g1", b"cp-y1", b"cp-g2", b"cp-y2", b"cp-a1", b"cp-a2"];
    for (label, point) in LABELS.into_iter().zip(enc.iter()) {
        transcript.append_compressed(label, point);
    }
    transcript.challenge_scalar(b"cp-e")
}

fn encodings(stmt: &DlEqStatement, commit: &Commitment) -> DlEqEncodings {
    EdwardsPoint::batch_compress(&[stmt.g1, stmt.y1, stmt.g2, stmt.y2, commit.a1, commit.a2])
        .try_into()
        .expect("six points in, six encodings out")
}

/// Produces a NIZK proof of y₁ = x·g₁ ∧ y₂ = x·g₂ bound to `transcript`.
pub fn prove_dleq(
    transcript: &mut Transcript,
    stmt: &DlEqStatement,
    x: &Scalar,
    rng: &mut dyn Rng,
) -> DlEqProof {
    prove_dleq_with(transcript, stmt, x, rng.scalar())
}

/// [`prove_dleq`] with its one nonce drawn beforehand: the same proof for
/// the nonce [`prove_dleq`] would have drawn.
pub fn prove_dleq_with(
    transcript: &mut Transcript,
    stmt: &DlEqStatement,
    x: &Scalar,
    nonce: Scalar,
) -> DlEqProof {
    let prover = Prover::with_nonce(stmt, nonce);
    let e = dleq_challenge(transcript, &encodings(stmt, &prover.commit));
    let t = prover.respond(x, &e);
    DlEqProof {
        commit: t.commit,
        response: t.response,
    }
}

/// One proof request of [`prove_dleq_batch`]: the transcript the proof is
/// bound to, the statement, and its witness.
pub struct DlEqJob<'a> {
    /// The transcript, positioned where [`prove_dleq`] would receive it.
    pub transcript: Transcript,
    /// The statement to prove.
    pub stmt: DlEqStatement,
    /// The witness x.
    pub witness: &'a Scalar,
}

/// Proves a vector of statements, producing exactly the proofs — and
/// consuming exactly the randomness — of [`prove_dleq`] called on each job
/// in order: every nonce is drawn, in job order, before any commitment is
/// computed; the commitments are then computed on the host's cores; then
/// every point the challenges absorb is compressed with one shared
/// inversion instead of six per proof, and the challenges are derived
/// job by job on this thread.
pub fn prove_dleq_batch(jobs: Vec<DlEqJob<'_>>, rng: &mut dyn Rng) -> Vec<DlEqProof> {
    let nonces: Vec<Scalar> = jobs.iter().map(|_| rng.scalar()).collect();
    prove_dleq_batch_with(jobs, &nonces)
}

/// [`prove_dleq_batch`] with its nonces drawn beforehand, one per job in
/// job order.
///
/// # Panics
///
/// Panics unless there is one nonce per job.
pub fn prove_dleq_batch_with(jobs: Vec<DlEqJob<'_>>, nonces: &[Scalar]) -> Vec<DlEqProof> {
    assert_eq!(jobs.len(), nonces.len(), "one nonce per proof");
    let drawn: Vec<(&DlEqStatement, Scalar)> = jobs
        .iter()
        .map(|job| &job.stmt)
        .zip(nonces.iter().copied())
        .collect();
    let provers = par_map(&drawn, default_threads(), |&(stmt, nonce)| {
        Prover::with_nonce(stmt, nonce)
    });
    let mut points = Vec::with_capacity(6 * jobs.len());
    for (job, prover) in jobs.iter().zip(provers.iter()) {
        let (stmt, commit) = (&job.stmt, &prover.commit);
        points.extend([stmt.g1, stmt.y1, stmt.g2, stmt.y2, commit.a1, commit.a2]);
    }
    let encoded = EdwardsPoint::batch_compress(&points);
    jobs.into_iter()
        .zip(provers)
        .zip(encoded.chunks_exact(6))
        .map(|((mut job, prover), enc)| {
            let enc = enc.try_into().expect("chunks of six");
            let e = dleq_challenge(&mut job.transcript, enc);
            let t = prover.respond(job.witness, &e);
            DlEqProof {
                commit: t.commit,
                response: t.response,
            }
        })
        .collect()
}

/// Verifies a NIZK discrete-log-equality proof bound to `transcript`.
///
/// The one-by-one reference check; vectors of proofs are verified by the
/// folds built on [`crate::batch::BatchVerifier`].
pub fn verify_dleq(
    transcript: &mut Transcript,
    stmt: &DlEqStatement,
    proof: &DlEqProof,
) -> Result<(), CryptoError> {
    let e = dleq_challenge(transcript, &encodings(stmt, &proof.commit));
    let t = IzkpTranscript {
        commit: proof.commit,
        challenge: e,
        response: proof.response,
    };
    if verify_transcript(stmt, &t) {
        Ok(())
    } else {
        Err(CryptoError::BadProof)
    }
}

/// A Schnorr proof of knowledge of a discrete logarithm (y = x·g).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DlogProof {
    /// The commitment A = k·g.
    pub commit: EdwardsPoint,
    /// The response r = k + e·x.
    pub response: Scalar,
}

/// Proves knowledge of x with y = x·g, bound to `transcript`.
pub fn prove_dlog(
    transcript: &mut Transcript,
    g: &EdwardsPoint,
    y: &EdwardsPoint,
    x: &Scalar,
    rng: &mut dyn Rng,
) -> DlogProof {
    let k = rng.scalar();
    let commit = *g * k;
    transcript.append_point(b"dlog-g", g);
    transcript.append_point(b"dlog-y", y);
    transcript.append_point(b"dlog-a", &commit);
    let e = transcript.challenge_scalar(b"dlog-e");
    DlogProof {
        commit,
        response: k + e * *x,
    }
}

/// Verifies a proof of knowledge of the discrete log of `y` base `g`.
pub fn verify_dlog(
    transcript: &mut Transcript,
    g: &EdwardsPoint,
    y: &EdwardsPoint,
    proof: &DlogProof,
) -> Result<(), CryptoError> {
    transcript.append_point(b"dlog-g", g);
    transcript.append_point(b"dlog-y", y);
    transcript.append_point(b"dlog-a", &proof.commit);
    let e = transcript.challenge_scalar(b"dlog-e");
    // r·g == A + e·y.
    if *g * proof.response == proof.commit + *y * e {
        Ok(())
    } else {
        Err(CryptoError::BadProof)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;

    fn stmt_with_witness(rng: &mut dyn Rng) -> (DlEqStatement, Scalar) {
        let x = rng.scalar();
        let g1 = EdwardsPoint::basepoint();
        let g2 = EdwardsPoint::mul_base(&rng.scalar());
        let stmt = DlEqStatement {
            g1,
            y1: g1 * x,
            g2,
            y2: g2 * x,
        };
        (stmt, x)
    }

    #[test]
    fn sound_transcript_verifies() {
        let mut rng = HmacDrbg::from_u64(1);
        let (stmt, x) = stmt_with_witness(&mut rng);
        let prover = Prover::commit(&stmt, &mut rng);
        let e = rng.scalar(); // Verifier's (envelope's) challenge.
        let t = prover.respond(&x, &e);
        assert!(verify_transcript(&stmt, &t));
    }

    #[test]
    fn wrong_witness_fails() {
        let mut rng = HmacDrbg::from_u64(2);
        let (stmt, x) = stmt_with_witness(&mut rng);
        let prover = Prover::commit(&stmt, &mut rng);
        let e = rng.scalar();
        let t = prover.respond(&(x + Scalar::ONE), &e);
        assert!(!verify_transcript(&stmt, &t));
    }

    #[test]
    fn forged_transcript_verifies_for_false_statement() {
        // The fake-credential path: the statement is FALSE (y₂ has a
        // different discrete log) yet the forged transcript verifies.
        let mut rng = HmacDrbg::from_u64(3);
        let g1 = EdwardsPoint::basepoint();
        let g2 = EdwardsPoint::mul_base(&rng.scalar());
        let stmt = DlEqStatement {
            g1,
            y1: g1 * rng.scalar(),
            g2,
            y2: g2 * rng.scalar(), // Unrelated exponent: no witness exists.
        };
        let e = rng.scalar();
        let t = forge_transcript(&stmt, &e, &mut rng);
        assert!(verify_transcript(&stmt, &t));
        assert_eq!(t.challenge, e);
    }

    #[test]
    fn forged_and_sound_transcripts_same_shape() {
        // Indistinguishability smoke test: both kinds verify under the same
        // verifier, and neither carries a marker of its origin.
        let mut rng = HmacDrbg::from_u64(4);
        let (stmt, x) = stmt_with_witness(&mut rng);
        let e = rng.scalar();
        let sound = {
            let p = Prover::commit(&stmt, &mut rng);
            p.respond(&x, &e)
        };
        let forged = forge_transcript(&stmt, &e, &mut rng);
        assert!(verify_transcript(&stmt, &sound));
        assert!(verify_transcript(&stmt, &forged));
        // Same challenge, same statement, both valid; the transcripts differ
        // only in the (uniformly distributed) commitment/response pair.
        assert_ne!(sound.response, forged.response);
    }

    #[test]
    fn tampered_transcript_fails() {
        let mut rng = HmacDrbg::from_u64(5);
        let (stmt, x) = stmt_with_witness(&mut rng);
        let prover = Prover::commit(&stmt, &mut rng);
        let e = rng.scalar();
        let mut t = prover.respond(&x, &e);
        t.challenge += Scalar::ONE;
        assert!(!verify_transcript(&stmt, &t));
    }

    #[test]
    fn nizk_roundtrip() {
        let mut rng = HmacDrbg::from_u64(6);
        let (stmt, x) = stmt_with_witness(&mut rng);
        let proof = prove_dleq(&mut Transcript::new(b"test"), &stmt, &x, &mut rng);
        verify_dleq(&mut Transcript::new(b"test"), &stmt, &proof).expect("verifies");
    }

    #[test]
    fn nizk_domain_separation() {
        let mut rng = HmacDrbg::from_u64(7);
        let (stmt, x) = stmt_with_witness(&mut rng);
        let proof = prove_dleq(&mut Transcript::new(b"domain-a"), &stmt, &x, &mut rng);
        assert!(verify_dleq(&mut Transcript::new(b"domain-b"), &stmt, &proof).is_err());
    }

    #[test]
    fn nizk_rejects_wrong_statement() {
        let mut rng = HmacDrbg::from_u64(8);
        let (stmt, x) = stmt_with_witness(&mut rng);
        let proof = prove_dleq(&mut Transcript::new(b"t"), &stmt, &x, &mut rng);
        let mut bad = stmt;
        bad.y1 += EdwardsPoint::basepoint();
        assert!(verify_dleq(&mut Transcript::new(b"t"), &bad, &proof).is_err());
    }

    #[test]
    fn batch_prover_matches_one_by_one() {
        // Same proofs, same RNG position afterwards, with 40 jobs: past
        // `par_map`'s inline cutoff, so the commitments run on workers.
        let mut setup = HmacDrbg::from_u64(20);
        let stmts: Vec<(DlEqStatement, Scalar)> =
            (0..40).map(|_| stmt_with_witness(&mut setup)).collect();
        let transcript = |i: usize| {
            let mut t = Transcript::new(b"batch-test");
            t.append_u64(b"i", i as u64);
            t
        };
        let mut rng_a = HmacDrbg::from_u64(21);
        let mut rng_b = HmacDrbg::from_u64(21);
        let single: Vec<DlEqProof> = stmts
            .iter()
            .enumerate()
            .map(|(i, (stmt, x))| prove_dleq(&mut transcript(i), stmt, x, &mut rng_a))
            .collect();
        let jobs = stmts
            .iter()
            .enumerate()
            .map(|(i, (stmt, x))| DlEqJob {
                transcript: transcript(i),
                stmt: *stmt,
                witness: x,
            })
            .collect();
        let batch = prove_dleq_batch(jobs, &mut rng_b);
        assert_eq!(single, batch);
        assert_eq!(rng_a.scalar(), rng_b.scalar());
        for (i, ((stmt, _), proof)) in stmts.iter().zip(batch.iter()).enumerate() {
            verify_dleq(&mut transcript(i), stmt, proof).expect("verifies");
        }
        assert!(prove_dleq_batch(Vec::new(), &mut rng_a).is_empty());
    }

    #[test]
    fn basepoint_fast_path_matches_generic_multiplication() {
        // g₁ = B takes the table path in commit and forge; the commitments
        // must be the points the generic multiplication yields.
        let mut rng = HmacDrbg::from_u64(22);
        let (stmt, _) = stmt_with_witness(&mut rng);
        let mut rng_a = HmacDrbg::from_u64(23);
        let mut rng_b = HmacDrbg::from_u64(23);
        let commit = Prover::commit(&stmt, &mut rng_a).commitment();
        let nonce = rng_b.scalar();
        assert_eq!(commit.a1, stmt.g1 * nonce);
        assert_eq!(commit.a2, stmt.g2 * nonce);
        let e = rng.scalar();
        let forged = forge_transcript(&stmt, &e, &mut rng_a);
        let y = rng_b.scalar();
        assert_eq!(forged.response, y);
        assert_eq!(forged.commit.a1, stmt.g1 * y + stmt.y1 * e);
        assert_eq!(forged.commit.a2, stmt.g2 * y + stmt.y2 * e);
    }

    #[test]
    fn dlog_proof_roundtrip() {
        let mut rng = HmacDrbg::from_u64(9);
        let x = rng.scalar();
        let g = EdwardsPoint::basepoint();
        let y = g * x;
        let proof = prove_dlog(&mut Transcript::new(b"t"), &g, &y, &x, &mut rng);
        verify_dlog(&mut Transcript::new(b"t"), &g, &y, &proof).expect("verifies");
        // Wrong y rejected.
        let bad_y = y + g;
        assert!(verify_dlog(&mut Transcript::new(b"t"), &g, &bad_y, &proof).is_err());
    }
}
