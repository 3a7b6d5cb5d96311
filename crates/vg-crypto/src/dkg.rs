//! Distributed key generation and verifiable threshold decryption for the
//! election authority (Appendix E.1, `DKG`).
//!
//! The authority consists of n members; the collective ElGamal public key
//! A_pk is generated so that no member ever learns the collective secret.
//! Each member deals a random degree-(t−1) polynomial with Feldman
//! commitments; members verify their received shares against the
//! commitments, and any t members can later produce verifiable decryption
//! shares. The paper's privacy and coercion adversaries may compromise up
//! to n−1 members (Appendix D.2, Table 1), which this scheme tolerates with
//! t = n; the evaluation runs four members, matching the paper's four
//! talliers.
//!
//! The complaint/disqualification round of a full DKG is modelled by share
//! verification plus tests that reject corrupted dealings; simulated members
//! live in one process, as in the paper's prototype.

use crate::batch::{BatchVerifier, CommittedWeights};
use crate::chaum_pedersen::{
    dleq_challenge, verify_dleq, Commitment, DlEqProof, DlEqStatement, Prover,
};
use crate::drbg::Rng;
use crate::edwards::{multiscalar_mul, CompressedPoint, EdwardsPoint};
use crate::elgamal::Ciphertext;
use crate::par::{default_threads, run_jobs};
use crate::scalar::Scalar;
use crate::transcript::Transcript;
use crate::CryptoError;

/// Equations handled per fold of [`verify_openings`], so its working
/// memory does not grow with the vector.
const CHUNK: usize = 2048;

/// The statement of a decryption share: log_B(X_j) = log_{C₁}(D_j).
fn share_statement(vk: &EdwardsPoint, ct: &Ciphertext, share: &EdwardsPoint) -> DlEqStatement {
    DlEqStatement {
        g1: EdwardsPoint::basepoint(),
        y1: *vk,
        g2: ct.c1,
        y2: *share,
    }
}

fn share_transcript() -> Transcript {
    Transcript::new(b"votegral-decryption-share")
}

/// One authority member's long-term key material after the DKG.
#[derive(Clone)]
pub struct AuthorityMember {
    /// 1-based member index (the Shamir evaluation point).
    pub index: u32,
    /// The member's secret share x_j = Σᵢ fᵢ(j).
    share: Scalar,
    /// The public verification key X_j = x_j·B.
    pub vk: EdwardsPoint,
}

impl core::fmt::Debug for AuthorityMember {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print the threshold secret share.
        write!(
            f,
            "AuthorityMember(index={}, vk={:?}, share=<redacted>)",
            self.index, self.vk
        )
    }
}

/// A dealing broadcast by one DKG participant: Feldman commitments to the
/// coefficients of its secret polynomial.
#[derive(Clone, Debug)]
pub struct Dealing {
    /// F_k = coeff_k·B for k = 0 … t−1.
    pub commitments: Vec<EdwardsPoint>,
}

impl Dealing {
    /// Verifies that `share` is a correct evaluation for member `index`:
    /// share·B == Σ_k index^k · F_k.
    pub fn verify_share(&self, index: u32, share: &Scalar) -> Result<(), CryptoError> {
        let mut expected = EdwardsPoint::IDENTITY;
        let j = Scalar::from_u64(index as u64);
        let mut j_pow = Scalar::ONE;
        for f in &self.commitments {
            expected += *f * j_pow;
            j_pow *= j;
        }
        if EdwardsPoint::mul_base(share) == expected {
            Ok(())
        } else {
            Err(CryptoError::BadShare)
        }
    }
}

/// The election authority: n members with a t-of-n threshold key.
#[derive(Clone)]
pub struct Authority {
    /// Number of members.
    pub n: usize,
    /// Decryption threshold (any `t` members suffice).
    pub t: usize,
    /// The collective public key A_pk.
    pub public_key: EdwardsPoint,
    /// The members (each holding a secret share).
    pub members: Vec<AuthorityMember>,
    /// The broadcast dealings, retained for public auditability.
    pub dealings: Vec<Dealing>,
}

impl Authority {
    /// Runs the distributed key generation among `n` simulated members with
    /// threshold `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is zero or exceeds `n`.
    pub fn dkg(n: usize, t: usize, rng: &mut dyn Rng) -> Self {
        assert!(t >= 1 && t <= n, "threshold must satisfy 1 <= t <= n");
        // Each dealer i samples a polynomial f_i of degree t-1.
        let polys: Vec<Vec<Scalar>> = (0..n)
            .map(|_| (0..t).map(|_| rng.scalar()).collect())
            .collect();
        let dealings: Vec<Dealing> = polys
            .iter()
            .map(|coeffs| Dealing {
                commitments: coeffs.iter().map(EdwardsPoint::mul_base).collect(),
            })
            .collect();
        // Member j receives s_{i,j} = f_i(j) from each dealer i and verifies
        // against the broadcast commitments.
        let mut members = Vec::with_capacity(n);
        for j in 1..=n as u32 {
            let mut share = Scalar::ZERO;
            for (i, coeffs) in polys.iter().enumerate() {
                let s = eval_poly(coeffs, j);
                dealings[i]
                    .verify_share(j, &s)
                    .expect("honest dealer share verifies");
                share += s;
            }
            members.push(AuthorityMember {
                index: j,
                share,
                vk: EdwardsPoint::mul_base(&share),
            });
        }
        // Every share proof absorbs its member's X_j: in Z = 1 form it
        // encodes for free.
        let mut vks: Vec<EdwardsPoint> = members.iter().map(|m| m.vk).collect();
        EdwardsPoint::batch_normalize(&mut vks);
        for (m, vk) in members.iter_mut().zip(vks) {
            m.vk = vk;
        }
        // A_pk = Σ_i F_{i,0}.
        let public_key = dealings
            .iter()
            .map(|d| d.commitments[0])
            .sum::<EdwardsPoint>();
        Self {
            n,
            t,
            public_key,
            members,
            dealings,
        }
    }

    /// The first `t` members' verifiable shares for every ciphertext,
    /// `shares[item][member]` — exactly the shares (and exactly the RNG
    /// draws, item-major) of [`AuthorityMember::decryption_share`] called
    /// in that order. Every nonce is drawn first; then the items are
    /// proved on the host's cores, each by the share prover
    /// (`ShareProver::prove`) as one job. An item costs about 3t
    /// multiplications, so even a vector of two fans out.
    pub fn decryption_shares(
        &self,
        cts: &[Ciphertext],
        rng: &mut dyn Rng,
    ) -> Vec<Vec<DecryptionShare>> {
        let nonces = self.share_nonces(cts.len(), rng);
        self.decryption_shares_with(cts, &nonces)
    }

    /// Draws the nonces [`Authority::decryption_shares`] draws for `items`
    /// ciphertexts: one per share proof, item by item, member by member.
    fn share_nonces(&self, items: usize, rng: &mut dyn Rng) -> Vec<Scalar> {
        (0..items * self.t).map(|_| rng.scalar()).collect()
    }

    /// [`Authority::decryption_shares`] on nonces drawn beforehand by
    /// `Authority::share_nonces`: the same shares.
    ///
    /// # Panics
    ///
    /// Panics unless there are t nonces per ciphertext.
    fn decryption_shares_with(
        &self,
        cts: &[Ciphertext],
        nonces: &[Scalar],
    ) -> Vec<Vec<DecryptionShare>> {
        assert_eq!(nonces.len(), cts.len() * self.t, "t nonces per item");
        let prover = ShareProver::new(&self.members[..self.t]);
        let items: Vec<(&Ciphertext, &[Scalar])> = cts.iter().zip(nonces.chunks(self.t)).collect();
        run_jobs(&items, default_threads(), |(ct, nonces)| {
            prover.prove(ct, nonces)
        })
    }

    /// Threshold-decrypts `ct` using the first `t` members, verifying every
    /// share proof; returns the plaintext point.
    pub fn threshold_decrypt(
        &self,
        ct: &Ciphertext,
        rng: &mut dyn Rng,
    ) -> Result<EdwardsPoint, CryptoError> {
        let shares: Vec<DecryptionShare> = self.members[..self.t]
            .iter()
            .map(|m| m.decryption_share(ct, rng))
            .collect();
        for share in &shares {
            let member = &self.members[(share.member_index - 1) as usize];
            share.verify(&member.vk, ct)?;
        }
        combine_shares(ct, &shares, self.t)
    }
}

impl AuthorityMember {
    /// Produces this member's verifiable decryption share for `ct`:
    /// D_j = x_j·C₁ with a Chaum–Pedersen proof against X_j, on one nonce
    /// drawn from `rng`: the share prover (`ShareProver::prove`) with one
    /// member.
    pub fn decryption_share(&self, ct: &Ciphertext, rng: &mut dyn Rng) -> DecryptionShare {
        let mut shares = ShareProver::new(core::slice::from_ref(self)).prove(ct, &[rng.scalar()]);
        shares.pop().expect("one member, one share")
    }
}

/// The one share prover: what every item's proofs absorb that no item
/// changes — B's and each member's X_j encodings — taken once per call.
struct ShareProver<'a> {
    members: &'a [AuthorityMember],
    b_enc: CompressedPoint,
    vk_enc: Vec<CompressedPoint>,
}

impl<'a> ShareProver<'a> {
    fn new(members: &'a [AuthorityMember]) -> Self {
        Self {
            members,
            b_enc: EdwardsPoint::basepoint().compress(),
            vk_enc: members.iter().map(|m| m.vk.compress()).collect(),
        }
    }

    /// The members' shares of `ct`, member j's proof on `nonces[j]` —
    /// byte for byte the proof [`crate::chaum_pedersen::prove_dleq`] makes
    /// on that nonce.
    ///
    /// Of the 3t multiplications, 2t have the base C₁ — each share
    /// Dⱼ = xⱼ·C₁ and its proof's Y₂ = kⱼ·C₁ — and share one set of its
    /// powers ([`EdwardsPoint::mul_each`]); each Y₁ = kⱼ·B comes off B's
    /// table. The item's points go to Z = 1 through one inversion, so the
    /// challenges' encodings, and every later one, cost none.
    fn prove(&self, ct: &Ciphertext, nonces: &[Scalar]) -> Vec<DecryptionShare> {
        let t = self.members.len();
        assert_eq!(nonces.len(), t, "one nonce per member");
        let scalars: Vec<Scalar> = self
            .members
            .iter()
            .map(|m| m.share)
            .chain(nonces.iter().copied())
            .collect();
        let mut points = ct.c1.mul_each(&scalars);
        points.extend(nonces.iter().map(EdwardsPoint::mul_base));
        points.push(ct.c1);
        EdwardsPoint::batch_normalize(&mut points);
        let (ds, rest) = points.split_at(t);
        let (a2s, rest) = rest.split_at(t);
        let (a1s, c1) = rest.split_at(t);
        let c1_enc = c1[0].compress();
        self.members
            .iter()
            .zip(&self.vk_enc)
            .zip(nonces)
            .zip(ds.iter().zip(a1s).zip(a2s))
            .map(|(((m, vk_enc), k), ((d, a1), a2))| {
                let e = dleq_challenge(
                    &mut share_transcript(),
                    &[
                        self.b_enc,
                        *vk_enc,
                        c1_enc,
                        d.compress(),
                        a1.compress(),
                        a2.compress(),
                    ],
                );
                let proof =
                    Prover::from_parts(*k, Commitment { a1: *a1, a2: *a2 }).respond(&m.share, &e);
                DecryptionShare {
                    member_index: m.index,
                    share: *d,
                    proof: DlEqProof {
                        commit: proof.commit,
                        response: proof.response,
                    },
                }
            })
            .collect()
    }
}

/// A verifiable decryption share D_j = x_j·C₁.
#[derive(Clone, Debug)]
pub struct DecryptionShare {
    /// The producing member's 1-based index.
    pub member_index: u32,
    /// D_j = x_j·C₁.
    pub share: EdwardsPoint,
    /// Proof that log_B(X_j) = log_{C₁}(D_j).
    pub proof: DlEqProof,
}

impl DecryptionShare {
    /// Verifies the share against the member's verification key.
    pub fn verify(&self, vk: &EdwardsPoint, ct: &Ciphertext) -> Result<(), CryptoError> {
        verify_dleq(
            &mut share_transcript(),
            &share_statement(vk, ct, &self.share),
            &self.proof,
        )
    }
}

/// Evaluates a polynomial (coefficients low-to-high) at the point `x`.
fn eval_poly(coeffs: &[Scalar], x: u32) -> Scalar {
    let xs = Scalar::from_u64(x as u64);
    let mut acc = Scalar::ZERO;
    for c in coeffs.iter().rev() {
        acc = acc * xs + *c;
    }
    acc
}

/// The Lagrange coefficients λ_j at zero for a set of distinct member
/// indices, in `indices` order — computed once per index set (one shared
/// scalar inversion) and reused for every ciphertext that set opens.
pub fn lagrange_coefficients(indices: &[u32]) -> Result<Vec<Scalar>, CryptoError> {
    // Reject duplicate indices (would make interpolation meaningless).
    for (a, &ia) in indices.iter().enumerate() {
        if indices[a + 1..].contains(&ia) {
            return Err(CryptoError::Malformed("duplicate share index"));
        }
    }
    let xs: Vec<Scalar> = indices
        .iter()
        .map(|&m| Scalar::from_u64(m as u64))
        .collect();
    let mut nums = Vec::with_capacity(xs.len());
    let mut dens = Vec::with_capacity(xs.len());
    for (j, xj) in xs.iter().enumerate() {
        let mut num = Scalar::ONE;
        let mut den = Scalar::ONE;
        for (m, xm) in xs.iter().enumerate() {
            if m != j {
                num *= *xm;
                den *= *xm - *xj;
            }
        }
        nums.push(num);
        dens.push(den);
    }
    Scalar::batch_invert(&mut dens);
    Ok(nums.into_iter().zip(dens).map(|(n, d)| n * d).collect())
}

/// M = C₂ − Σⱼ λⱼ·Dⱼ for `lambdas` =
/// [`lagrange_coefficients`] of exactly these shares' indices.
pub fn combine_with(
    ct: &Ciphertext,
    shares: &[DecryptionShare],
    lambdas: &[Scalar],
) -> EdwardsPoint {
    let points: Vec<EdwardsPoint> = shares.iter().map(|s| s.share).collect();
    ct.c2 - multiscalar_mul(lambdas, &points)
}

/// Combines at least `t` verified decryption shares into the plaintext
/// M = C₂ − x·C₁ using Lagrange interpolation in the exponent.
pub fn combine_shares(
    ct: &Ciphertext,
    shares: &[DecryptionShare],
    t: usize,
) -> Result<EdwardsPoint, CryptoError> {
    if shares.len() < t {
        return Err(CryptoError::InsufficientShares);
    }
    let used = &shares[..t];
    let indices: Vec<u32> = used.iter().map(|s| s.member_index).collect();
    Ok(combine_with(ct, used, &lagrange_coefficients(&indices)?))
}

/// Verifies a whole vector of threshold openings — every share proof of
/// every item and every recombination `plaintexts[i]` = C₂ − Σλⱼ·Dⱼ — in
/// [`BatchVerifier`] folds of about two thousand equations.
///
/// Accepts what the one-by-one reference ([`DecryptionShare::verify`] on
/// every share, then [`combine_shares`] compared with the claim modulo the
/// 8-torsion) accepts: callers decide on cofactor-cleared plaintexts (see
/// [`crate::batch`]). `member_vks[j−1]`
/// is X_j; every item needs at least `threshold` shares and is recombined
/// from its first `threshold`, as [`combine_shares`] does.
///
/// Per item the fold merges what the relations share: C₁ is one term for
/// all of the item's share proofs, each Dⱼ one term for its proof *and*
/// the recombination, C₂ − P one short-weight term. The folds run on the
/// host's cores ([`default_threads`]).
///
/// A fold's weights are drawn after its items are absorbed: every value
/// its equations take from the prover (each item's share count, points,
/// member indices and responses) is fixed before the weights that scale
/// it. The commitment also absorbs `cts.len()` and `threshold`, though
/// soundness does not rest on either. The verifier fixes both, not the
/// prover: the threshold is the authority's, and the item count is that
/// of the vector the verifier passes. Without either absorb the weights
/// would differ but stay as unpredictable to the prover, so a mutant that
/// drops one is equivalent, and no test but a byte pin can kill it.
pub fn verify_openings(
    cts: &[Ciphertext],
    shares: &[Vec<DecryptionShare>],
    plaintexts: &[EdwardsPoint],
    member_vks: &[EdwardsPoint],
    threshold: usize,
) -> Result<(), CryptoError> {
    if shares.len() != cts.len() || plaintexts.len() != cts.len() {
        return Err(CryptoError::Malformed("opening lengths"));
    }
    // Static bases: B at 0, X_j at j.
    let mut statics = vec![EdwardsPoint::basepoint()];
    statics.extend_from_slice(member_vks);
    let static_enc = EdwardsPoint::batch_compress(&statics);
    let mut commitment = CommittedWeights::new(b"votegral-opening-fold-v1");
    commitment.absorb(&(cts.len() as u64).to_le_bytes());
    commitment.absorb(&(threshold as u64).to_le_bytes());
    for enc in &static_enc {
        commitment.absorb(&enc.0);
    }

    let mut lagrange: (Vec<u32>, Vec<Scalar>) = (Vec::new(), Vec::new());
    let items_per_fold = (CHUNK / (2 * threshold + 1)).max(1);
    for ((cts, shares), plaintexts) in cts
        .chunks(items_per_fold)
        .zip(shares.chunks(items_per_fold))
        .zip(plaintexts.chunks(items_per_fold))
    {
        // Shape checks, then every point of the chunk through one
        // inversion: (C₁, C₂, P) per item, (D, Y₁, Y₂) per share.
        let mut points = Vec::new();
        for ((ct, item), plain) in cts.iter().zip(shares).zip(plaintexts) {
            if item.len() < threshold {
                return Err(CryptoError::InsufficientShares);
            }
            points.extend([ct.c1, ct.c2, *plain]);
            for s in item {
                if s.member_index == 0 || s.member_index as usize > member_vks.len() {
                    return Err(CryptoError::BadShare);
                }
                points.extend([s.share, s.proof.commit.a1, s.proof.commit.a2]);
            }
        }
        let encoded = EdwardsPoint::batch_compress(&points);
        let mut equations = 0;
        let mut enc = encoded.iter();
        for item in shares {
            commitment.absorb(&(item.len() as u64).to_le_bytes());
            for e in enc.by_ref().take(3 + 3 * item.len()) {
                commitment.absorb(&e.0);
            }
            for s in item {
                commitment.absorb(&s.member_index.to_le_bytes());
                commitment.absorb(&s.proof.response.to_bytes());
            }
            equations += 2 * item.len() + 1;
        }
        let weights = commitment.weights(equations);
        let mut weights = weights.iter();
        let mut weight = || *weights.next().expect("one weight per equation");

        let mut batch = BatchVerifier::new(&statics);
        let mut enc = encoded.iter();
        let mut next_enc = || *enc.next().expect("one encoding per point");
        for ((ct, item), plain) in cts.iter().zip(shares).zip(plaintexts) {
            let (c1_enc, _, _) = (next_enc(), next_enc(), next_enc());
            let indices: Vec<u32> = item[..threshold].iter().map(|s| s.member_index).collect();
            if indices != lagrange.0 {
                lagrange = (indices.clone(), lagrange_coefficients(&indices)?);
            }
            let w_sum = weight();
            let mut c1_coeff = Scalar::ZERO;
            for (j, s) in item.iter().enumerate() {
                let (d_enc, a1_enc, a2_enc) = (next_enc(), next_enc(), next_enc());
                let vk = s.member_index as usize;
                let e = dleq_challenge(
                    &mut share_transcript(),
                    &[static_enc[0], static_enc[vk], c1_enc, d_enc, a1_enc, a2_enc],
                );
                let r = s.proof.response;
                // w₁·(Y₁ − r·B − e·X_j) + w₂·(Y₂ − r·C₁ − e·D_j).
                let (w1, w2) = (weight(), weight());
                batch.add_static(0, -(w1 * r));
                batch.add_static(vk, -(w1 * e));
                batch.add_term(w1, s.proof.commit.a1);
                batch.add_term(w2, s.proof.commit.a2);
                c1_coeff -= w2 * r;
                // … + w·(C₂ − P − Σ λⱼ·D_j) over the first t shares.
                let mut d_coeff = -(w2 * e);
                if let Some(lambda) = lagrange.1.get(j) {
                    d_coeff -= w_sum * *lambda;
                }
                batch.add_term(d_coeff, s.share);
            }
            batch.add_term(c1_coeff, ct.c1);
            batch.add_term(w_sum, ct.c2 - *plain);
        }
        if !batch.verify(default_threads()) {
            return Err(CryptoError::BadShare);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;
    use crate::elgamal;

    #[test]
    fn dkg_then_threshold_decrypt() {
        let mut rng = HmacDrbg::from_u64(1);
        let authority = Authority::dkg(4, 4, &mut rng);
        let m = EdwardsPoint::mul_base(&Scalar::from_u64(42));
        let (ct, _) = elgamal::encrypt_point(&authority.public_key, &m, &mut rng);
        let pt = authority
            .threshold_decrypt(&ct, &mut rng)
            .expect("decrypts");
        assert_eq!(pt, m);
    }

    #[test]
    fn t_of_n_with_subset() {
        let mut rng = HmacDrbg::from_u64(2);
        let authority = Authority::dkg(5, 3, &mut rng);
        let m = EdwardsPoint::mul_base(&Scalar::from_u64(7));
        let (ct, _) = elgamal::encrypt_point(&authority.public_key, &m, &mut rng);
        // Use members 2, 4, 5 (not the first t).
        let shares: Vec<DecryptionShare> = [1usize, 3, 4]
            .iter()
            .map(|&i| authority.members[i].decryption_share(&ct, &mut rng))
            .collect();
        for s in &shares {
            let vk = authority.members[(s.member_index - 1) as usize].vk;
            s.verify(&vk, &ct).expect("share verifies");
        }
        assert_eq!(combine_shares(&ct, &shares, 3).expect("combines"), m);
    }

    #[test]
    fn insufficient_shares_rejected() {
        let mut rng = HmacDrbg::from_u64(3);
        let authority = Authority::dkg(4, 3, &mut rng);
        let m = EdwardsPoint::basepoint();
        let (ct, _) = elgamal::encrypt_point(&authority.public_key, &m, &mut rng);
        let shares: Vec<DecryptionShare> = authority.members[..2]
            .iter()
            .map(|mem| mem.decryption_share(&ct, &mut rng))
            .collect();
        assert_eq!(
            combine_shares(&ct, &shares, 3).unwrap_err(),
            CryptoError::InsufficientShares
        );
    }

    #[test]
    fn corrupted_share_detected() {
        let mut rng = HmacDrbg::from_u64(4);
        let authority = Authority::dkg(3, 3, &mut rng);
        let m = EdwardsPoint::basepoint();
        let (ct, _) = elgamal::encrypt_point(&authority.public_key, &m, &mut rng);
        let mut share = authority.members[0].decryption_share(&ct, &mut rng);
        share.share += EdwardsPoint::basepoint();
        let vk = authority.members[0].vk;
        assert!(share.verify(&vk, &ct).is_err());
    }

    #[test]
    fn bad_dealing_share_detected() {
        let mut rng = HmacDrbg::from_u64(5);
        let coeffs: Vec<Scalar> = (0..3).map(|_| rng.scalar()).collect();
        let dealing = Dealing {
            commitments: coeffs.iter().map(EdwardsPoint::mul_base).collect(),
        };
        let good = eval_poly(&coeffs, 2);
        dealing.verify_share(2, &good).expect("honest share");
        let bad = good + Scalar::ONE;
        assert!(dealing.verify_share(2, &bad).is_err());
    }

    #[test]
    fn lagrange_reconstructs_constant_term() {
        let mut rng = HmacDrbg::from_u64(6);
        let coeffs: Vec<Scalar> = (0..3).map(|_| rng.scalar()).collect();
        let indices = [1u32, 3, 7];
        let lambdas = lagrange_coefficients(&indices).expect("distinct indices");
        let mut secret = Scalar::ZERO;
        for (lambda, &j) in lambdas.iter().zip(indices.iter()) {
            secret += *lambda * eval_poly(&coeffs, j);
        }
        assert_eq!(secret, coeffs[0]);
    }

    #[test]
    fn duplicate_share_indices_rejected() {
        let mut rng = HmacDrbg::from_u64(7);
        let authority = Authority::dkg(3, 2, &mut rng);
        let m = EdwardsPoint::basepoint();
        let (ct, _) = elgamal::encrypt_point(&authority.public_key, &m, &mut rng);
        let s = authority.members[0].decryption_share(&ct, &mut rng);
        let dup = vec![s.clone(), s];
        assert!(matches!(
            combine_shares(&ct, &dup, 2),
            Err(CryptoError::Malformed(_))
        ));
    }

    /// An honest opening of `n` ciphertexts by the first t of 4 members,
    /// and the DRBG positioned after it.
    #[allow(clippy::type_complexity)]
    fn opened_vector(
        seed: u64,
        n: u64,
        t: usize,
    ) -> (
        Authority,
        Vec<Ciphertext>,
        Vec<Vec<DecryptionShare>>,
        Vec<EdwardsPoint>,
        HmacDrbg,
    ) {
        let mut rng = HmacDrbg::from_u64(seed);
        let authority = Authority::dkg(4, t, &mut rng);
        let cts: Vec<Ciphertext> = (1..=n)
            .map(|i| {
                let m = EdwardsPoint::mul_base(&Scalar::from_u64(i));
                elgamal::encrypt_point(&authority.public_key, &m, &mut rng).0
            })
            .collect();
        let shares = authority.decryption_shares(&cts, &mut rng);
        let plaintexts = cts
            .iter()
            .zip(shares.iter())
            .map(|(ct, s)| combine_shares(ct, s, t).expect("combines"))
            .collect();
        (authority, cts, shares, plaintexts, rng)
    }

    fn vks(authority: &Authority) -> Vec<EdwardsPoint> {
        authority.members.iter().map(|m| m.vk).collect()
    }

    /// A vector opening's shares and the DRBG position after them, over
    /// `CHUNK / 3 + 5` items, pinned before the prover was split into its
    /// draws and its arithmetic.
    #[test]
    fn vector_share_bytes_and_drbg_position_are_pinned() {
        let n = (CHUNK / 3) as u64 + 5;
        let digest = |shares: &[Vec<DecryptionShare>], rng: &mut HmacDrbg| -> String {
            let mut h = crate::sha2::Sha256::new();
            h.update(format!("{shares:?}").as_bytes());
            h.update(&rng.bytes32());
            h.finalize().iter().map(|b| format!("{b:02x}")).collect()
        };
        let (authority, cts, shares, _, mut rng) = opened_vector(12, n, 3);
        let pin = "eb5afd0a8391be5462732d1ad569519b9fae9218ac8e8d0dd6c344646b45f7bb";
        assert_eq!(digest(&shares, &mut rng), pin);
        // `share_nonces` then `decryption_shares_with` from the position
        // `opened_vector` took its shares at.
        let mut rng = HmacDrbg::from_u64(12);
        let _ = Authority::dkg(4, 3, &mut rng);
        for _ in 0..n {
            let _ =
                elgamal::encrypt_point(&authority.public_key, &EdwardsPoint::IDENTITY, &mut rng);
        }
        let nonces = authority.share_nonces(cts.len(), &mut rng);
        let split = authority.decryption_shares_with(&cts, &nonces);
        assert_eq!(digest(&split, &mut rng), pin, "draw then compute");
    }

    /// For t = 1..4, 16 items each: every share of the vector prover and of
    /// `decryption_share` is x_j·C₁ and carries the reference prover's proof
    /// (`prove_dleq_with`) on the nonce drawn for it, and both leave the
    /// DRBG at the same position.
    #[test]
    fn vector_shares_match_one_by_one() {
        use crate::chaum_pedersen::prove_dleq_with;
        for t in 1..=4 {
            let (authority, cts, shares, plaintexts, mut rng_vector) = opened_vector(9, 16, t);
            // The stream at the position the shares were taken at.
            let replay = || {
                let mut rng = HmacDrbg::from_u64(9);
                let _ = Authority::dkg(4, t, &mut rng);
                for _ in 0..cts.len() {
                    let _ = elgamal::encrypt_point(
                        &authority.public_key,
                        &EdwardsPoint::IDENTITY,
                        &mut rng,
                    );
                }
                rng
            };
            let nonces = authority.share_nonces(cts.len(), &mut replay());
            let mut rng = replay();
            for (i, ((ct, item), nonces)) in
                cts.iter().zip(&shares).zip(nonces.chunks(t)).enumerate()
            {
                assert_eq!(item.len(), t);
                for ((m, share), nonce) in authority.members.iter().zip(item).zip(nonces) {
                    assert_eq!(share.share, ct.c1 * m.share, "t = {t}");
                    let reference = prove_dleq_with(
                        &mut share_transcript(),
                        &share_statement(&m.vk, ct, &share.share),
                        &m.share,
                        *nonce,
                    );
                    assert_eq!(share.proof, reference, "the vector prover, t = {t}");
                    let single = m.decryption_share(ct, &mut rng);
                    assert_eq!(single.member_index, share.member_index);
                    assert_eq!(single.share, share.share);
                    assert_eq!(single.proof, reference, "one member, t = {t}");
                }
                assert_eq!(
                    plaintexts[i],
                    EdwardsPoint::mul_base(&Scalar::from_u64(i as u64 + 1))
                );
            }
            assert_eq!(rng.scalar(), rng_vector.scalar(), "same RNG position");
        }
    }

    #[test]
    fn folded_openings_accept_honest_and_reject_each_tamper() {
        let (authority, cts, shares, plaintexts, _) = opened_vector(10, 5, 3);
        let vks = vks(&authority);
        verify_openings(&cts, &shares, &plaintexts, &vks, 3).expect("honest opening");
        verify_openings(&[], &[], &[], &vks, 3).expect("empty opening");
        let b = EdwardsPoint::basepoint();
        let tampers: [fn(&mut DecryptionShare, &mut EdwardsPoint); 5] = [
            |s, _| s.share += EdwardsPoint::basepoint(),
            |s, _| s.proof.commit.a1 += EdwardsPoint::basepoint(),
            |s, _| s.proof.commit.a2 += EdwardsPoint::basepoint(),
            |s, _| s.proof.response += Scalar::ONE,
            |_, p| *p += EdwardsPoint::basepoint(),
        ];
        for (k, tamper) in tampers.iter().enumerate() {
            let (mut bad_shares, mut bad_plain) = (shares.clone(), plaintexts.clone());
            tamper(&mut bad_shares[k][k % 3], &mut bad_plain[k]);
            assert!(
                verify_openings(&cts, &bad_shares, &bad_plain, &vks, 3).is_err(),
                "tamper {k} survived the fold"
            );
        }
        // Shape violations the one-by-one path rejects too.
        let mut short = shares.clone();
        short[1].pop();
        assert!(verify_openings(&cts, &short, &plaintexts, &vks, 3).is_err());
        let mut dup = shares.clone();
        dup[2][1] = dup[2][0].clone();
        assert!(verify_openings(&cts, &dup, &plaintexts, &vks, 3).is_err());
        let mut stranger = shares.clone();
        stranger[0][0].member_index = 9;
        assert!(verify_openings(&cts, &stranger, &plaintexts, &vks, 3).is_err());
        let mut wrong_ct = cts.clone();
        wrong_ct[4].c2 += b;
        assert!(verify_openings(&wrong_ct, &shares, &plaintexts, &vks, 3).is_err());
    }

    #[test]
    fn folded_openings_span_several_folds() {
        // More items than one fold holds (CHUNK / 3 with t = 1): the
        // rolling commitment and the per-fold cursors line up, and a
        // tamper in the last fold is still caught.
        let n = (CHUNK / 3 + 5) as u64;
        let (authority, cts, shares, mut plaintexts, _) = opened_vector(11, n, 1);
        let vks = vks(&authority);
        verify_openings(&cts, &shares, &plaintexts, &vks, 1).expect("honest opening");
        *plaintexts.last_mut().expect("non-empty") += EdwardsPoint::basepoint();
        assert!(verify_openings(&cts, &shares, &plaintexts, &vks, 1).is_err());
    }

    #[test]
    fn public_key_is_sum_of_constant_terms() {
        let mut rng = HmacDrbg::from_u64(8);
        let authority = Authority::dkg(4, 2, &mut rng);
        let sum: EdwardsPoint = authority.dealings.iter().map(|d| d.commitments[0]).sum();
        assert_eq!(sum, authority.public_key);
    }
}
