//! Civitas / JCJ crypto-path simulator [27, 75].
//!
//! Registration: the voter interacts with every registration teller; each
//! teller issues a credential share with a designated-verifier proof of
//! correct encryption, and the voter homomorphically combines the shares.
//! The combined encrypted credential goes on the public roster.
//!
//! Voting: a ballot carries a fresh re-encryption of the credential, the
//! encrypted vote, a vote-validity OR-proof and a proof of credential
//! knowledge.
//!
//! Tally: the defining cost — **pairwise plaintext-equivalence tests**:
//! duplicate elimination compares every ballot pair, and credential
//! matching compares ballots against roster entries, giving the quadratic
//! tally the paper extrapolates to 1,768 *years* at 10^6 voters (§7.4,
//! Fig 5b).

use vg_crypto::chaum_pedersen::{prove_dleq, verify_dleq, DlEqStatement};
use vg_crypto::dkg::Authority;
use vg_crypto::elgamal::{discrete_log_small, encrypt_point, rerandomize, Ciphertext};
use vg_crypto::pet::pet;
use vg_crypto::{EdwardsPoint, Rng, Scalar, Transcript};

use crate::BenchSystem;

/// Per-voter registration material.
struct CivitasVoter {
    /// The private credential exponent s (sum of teller shares).
    credential: Scalar,
    /// The roster entry Enc(g^s).
    roster_entry: Ciphertext,
}

/// A cast ballot.
struct CivitasBallot {
    /// Fresh re-encryption of the voter's credential.
    enc_credential: Ciphertext,
    /// Encrypted vote (exponential encoding).
    enc_vote: Ciphertext,
}

/// The Civitas system state.
pub struct Civitas {
    authority: Authority,
    n_voters: usize,
    n_options: u32,
    voters: Vec<CivitasVoter>,
    ballots: Vec<CivitasBallot>,
}

impl Civitas {
    /// Creates a Civitas instance with the paper's four tellers.
    pub fn new(n_voters: usize, n_options: u32, rng: &mut dyn Rng) -> Self {
        Self::with_tellers(n_voters, n_options, 4, rng)
    }

    /// Creates a Civitas instance with a chosen teller count (tests use
    /// fewer tellers to keep the quadratic tally fast).
    pub fn with_tellers(
        n_voters: usize,
        n_options: u32,
        tellers: usize,
        rng: &mut dyn Rng,
    ) -> Self {
        Self {
            authority: Authority::dkg(tellers, tellers, rng),
            n_voters,
            n_options,
            voters: Vec::new(),
            ballots: Vec::new(),
        }
    }

    /// Registers one voter through all tellers (multi-teller protocol with
    /// per-share designated-verifier proofs).
    fn register_one(&mut self, rng: &mut dyn Rng) {
        let pk = self.authority.public_key;
        let mut credential = Scalar::ZERO;
        let mut roster_entry = Ciphertext::identity();
        for _teller in 0..self.authority.n {
            // Teller share: s_i, Enc(g^{s_i}; r_i), and a DVRP modelled as a
            // Chaum–Pedersen proof the voter verifies.
            let s_i = rng.scalar();
            let g_si = EdwardsPoint::mul_base(&s_i);
            let r_i = rng.scalar();
            let share_ct = vg_crypto::elgamal::encrypt_point_with(&pk, &g_si, &r_i);
            // Prove c1 = r·B ∧ (c2 − g^{s_i}) = r·pk, the correct-encryption
            // relation (witness r_i).
            let stmt = DlEqStatement {
                g1: EdwardsPoint::basepoint(),
                y1: share_ct.c1,
                g2: pk,
                y2: share_ct.c2 - g_si,
            };
            let proof = prove_dleq(&mut Transcript::new(b"civitas-dvrp"), &stmt, &r_i, rng);
            // Voter-side verification of the share.
            verify_dleq(&mut Transcript::new(b"civitas-dvrp"), &stmt, &proof)
                .expect("honest teller share verifies");
            credential += s_i;
            roster_entry = roster_entry + share_ct;
        }
        self.voters.push(CivitasVoter {
            credential,
            roster_entry,
        });
    }

    /// Casts one ballot for voter `idx`.
    fn vote_one(&mut self, idx: usize, vote: u32, rng: &mut dyn Rng) {
        let pk = self.authority.public_key;
        let voter = &self.voters[idx];
        // Fresh encryption of the credential (the voter knows s, not the
        // roster randomness).
        let g_s = EdwardsPoint::mul_base(&voter.credential);
        let (enc_credential, r_c) = encrypt_point(&pk, &g_s, rng);
        let g_v = EdwardsPoint::mul_base(&Scalar::from_u64(vote as u64));
        let (enc_vote, r_v) = encrypt_point(&pk, &g_v, rng);
        // Ballot proofs: credential-encryption PoK plus one simulated
        // OR-branch pair per option (vote wellformedness), mirroring the
        // JCJ ballot proof load.
        let stmt_c = DlEqStatement {
            g1: EdwardsPoint::basepoint(),
            y1: enc_credential.c1,
            g2: pk,
            y2: enc_credential.c2 - g_s,
        };
        let p1 = prove_dleq(
            &mut Transcript::new(b"civitas-ballot-c"),
            &stmt_c,
            &r_c,
            rng,
        );
        verify_dleq(&mut Transcript::new(b"civitas-ballot-c"), &stmt_c, &p1)
            .expect("ballot proof verifies");
        for m in 0..self.n_options {
            let m_pt = EdwardsPoint::mul_base(&Scalar::from_u64(m as u64));
            let stmt_v = DlEqStatement {
                g1: EdwardsPoint::basepoint(),
                y1: enc_vote.c1,
                g2: pk,
                y2: enc_vote.c2 - m_pt,
            };
            if m == vote {
                let p = prove_dleq(
                    &mut Transcript::new(b"civitas-ballot-v"),
                    &stmt_v,
                    &r_v,
                    rng,
                );
                verify_dleq(&mut Transcript::new(b"civitas-ballot-v"), &stmt_v, &p)
                    .expect("vote branch verifies");
            } else {
                // Simulated branch (same cost as a real one).
                let e = rng.scalar();
                let _ = vg_crypto::chaum_pedersen::forge_transcript(&stmt_v, &e, rng);
            }
        }
        self.ballots.push(CivitasBallot {
            enc_credential,
            enc_vote,
        });
    }
}

impl BenchSystem for Civitas {
    fn register_all(&mut self, rng: &mut dyn Rng) {
        for _ in 0..self.n_voters {
            self.register_one(rng);
        }
    }

    fn vote_all(&mut self, votes: &[u32], rng: &mut dyn Rng) {
        assert_eq!(votes.len(), self.n_voters, "one vote per voter");
        for (idx, &v) in votes.iter().enumerate() {
            self.vote_one(idx, v, rng);
        }
    }

    /// The JCJ tally: pairwise-PET duplicate elimination, mixing
    /// (re-randomization pass per teller), pairwise-PET roster matching,
    /// then decryption — quadratic in the ballot/roster sizes.
    fn tally(&mut self, rng: &mut (dyn Rng + Send)) -> Vec<u64> {
        let pk = self.authority.public_key;
        let a = self.ballots.len();

        // Phase 1: duplicate elimination via pairwise PETs (keep last).
        let mut keep = vec![true; a];
        for i in 0..a {
            for j in (i + 1)..a {
                if !keep[i] || !keep[j] {
                    continue;
                }
                let t = pet(
                    &self.authority,
                    &self.ballots[i].enc_credential,
                    &self.ballots[j].enc_credential,
                    rng,
                )
                .expect("pet runs");
                if t.plaintexts_equal() {
                    keep[i] = false; // Later ballot supersedes.
                }
            }
        }

        // Phase 2: anonymizing re-encryption pass by each teller (the mix;
        // proof cost dominated by the PET phases).
        let mut mixed: Vec<(Ciphertext, Ciphertext)> = self
            .ballots
            .iter()
            .zip(keep.iter())
            .filter(|(_, k)| **k)
            .map(|(b, _)| (b.enc_credential, b.enc_vote))
            .collect();
        for _ in 0..self.authority.n {
            for pair in mixed.iter_mut() {
                pair.0 = rerandomize(&pk, &pair.0, rng).0;
                pair.1 = rerandomize(&pk, &pair.1, rng).0;
            }
        }

        // Phase 3: roster matching via pairwise PETs.
        let mut counts = vec![0u64; self.n_options as usize];
        let mut roster_used = vec![false; self.voters.len()];
        for (cred_ct, vote_ct) in &mixed {
            let mut matched = false;
            for (vi, voter) in self.voters.iter().enumerate() {
                if roster_used[vi] {
                    continue;
                }
                let t = pet(&self.authority, cred_ct, &voter.roster_entry, rng).expect("pet runs");
                if t.plaintexts_equal() {
                    roster_used[vi] = true;
                    matched = true;
                    break;
                }
            }
            if matched {
                let plain = self
                    .authority
                    .threshold_decrypt(vote_ct, rng)
                    .expect("decrypts");
                if let Some(v) = discrete_log_small(&plain, self.n_options as u64) {
                    counts[v as usize] += 1;
                }
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::HmacDrbg;

    #[test]
    fn civitas_counts_correctly() {
        let mut rng = HmacDrbg::from_u64(1);
        let mut sys = Civitas::with_tellers(4, 3, 2, &mut rng);
        sys.register_all(&mut rng);
        sys.vote_all(&[0, 2, 2, 1], &mut rng);
        assert_eq!(sys.tally(&mut rng), vec![1, 1, 2]);
    }

    #[test]
    fn civitas_duplicate_credential_ballots_deduped() {
        let mut rng = HmacDrbg::from_u64(2);
        let mut sys = Civitas::with_tellers(2, 2, 2, &mut rng);
        sys.register_all(&mut rng);
        sys.vote_all(&[0, 1], &mut rng);
        // Voter 0 re-votes for option 1: the earlier ballot is dropped.
        sys.vote_one(0, 1, &mut rng);
        assert_eq!(sys.tally(&mut rng), vec![0, 2]);
    }
}
