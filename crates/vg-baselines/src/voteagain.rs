//! VoteAgain crypto-path simulator \[93\].
//!
//! VoteAgain achieves coercion resistance through deniable re-voting: a
//! trusted registrar issues each voter a pseudonym, voters may re-vote,
//! and the tally hides re-voting patterns by padding each pseudonym's
//! ballot list with dummies, shuffling, and selecting the last real ballot
//! per pseudonym with proofs.
//!
//! Its cryptographic profile (Fig 5a): **trivial registration** (one key
//! generation, 0.1 ms/voter — but under a trust assumption TRIP avoids:
//! the registration authority must not impersonate voters, §7.4), voting
//! comparable to Swiss Post, and the **fastest tally** of the compared
//! systems (≈3 h at 10^6 vs Votegral's 14 h) thanks to a single mix pass
//! plus cheap per-ballot selection proofs.

use vg_crypto::chaum_pedersen::{prove_dleq, verify_dleq, DlEqStatement};
use vg_crypto::dkg::Authority;
use vg_crypto::elgamal::{discrete_log_small, encrypt_point, Ciphertext};
use vg_crypto::schnorr::SigningKey;
use vg_crypto::{EdwardsPoint, Rng, Scalar, Transcript};
use vg_shuffle::MixCascade;

use crate::BenchSystem;

struct VoteAgainVoter {
    /// The voter's signing key (pseudonym key), issued at registration.
    key: SigningKey,
}

struct VoteAgainBallot {
    /// Pseudonym index (which voter key signed).
    voter: usize,
    /// Encrypted vote.
    ct: Ciphertext,
    /// Cast order (the tally keeps each pseudonym's last ballot).
    seq: usize,
}

/// The VoteAgain system state.
pub struct VoteAgain {
    authority: Authority,
    n_voters: usize,
    n_options: u32,
    voters: Vec<VoteAgainVoter>,
    ballots: Vec<VoteAgainBallot>,
    seq: usize,
}

impl VoteAgain {
    /// Creates a VoteAgain instance (four tally servers).
    pub fn new(n_voters: usize, n_options: u32, rng: &mut dyn Rng) -> Self {
        Self {
            authority: Authority::dkg(4, 4, rng),
            n_voters,
            n_options,
            voters: Vec::new(),
            ballots: Vec::new(),
            seq: 0,
        }
    }

    fn vote_one(&mut self, idx: usize, vote: u32, rng: &mut dyn Rng) {
        let pk = self.authority.public_key;
        let g_v = EdwardsPoint::mul_base(&Scalar::from_u64(vote as u64));
        let (ct, r) = encrypt_point(&pk, &g_v, rng);
        // Vote-validity OR-proof (per option), a ballot signature under the
        // pseudonym key, and an epoch tag — the VoteAgain ballot load.
        for m in 0..self.n_options {
            let m_pt = EdwardsPoint::mul_base(&Scalar::from_u64(m as u64));
            let stmt = DlEqStatement {
                g1: EdwardsPoint::basepoint(),
                y1: ct.c1,
                g2: pk,
                y2: ct.c2 - m_pt,
            };
            if m == vote {
                let proof = prove_dleq(&mut Transcript::new(b"voteagain-vote"), &stmt, &r, rng);
                verify_dleq(&mut Transcript::new(b"voteagain-vote"), &stmt, &proof)
                    .expect("ballot proof verifies");
            } else {
                let e = rng.scalar();
                let _ = vg_crypto::chaum_pedersen::forge_transcript(&stmt, &e, rng);
            }
        }
        let _signature = self.voters[idx].key.sign(&ct.to_bytes());
        self.ballots.push(VoteAgainBallot {
            voter: idx,
            ct,
            seq: self.seq,
        });
        self.seq += 1;
    }

    /// Casts an additional (re-)vote for a voter; only the last counts.
    pub fn revote(&mut self, idx: usize, vote: u32, rng: &mut dyn Rng) {
        self.vote_one(idx, vote, rng);
    }
}

impl BenchSystem for VoteAgain {
    /// Registration is a single key generation per voter — the 0.1 ms
    /// column of Fig 5a.
    fn register_all(&mut self, rng: &mut dyn Rng) {
        for _ in 0..self.n_voters {
            self.voters.push(VoteAgainVoter {
                key: SigningKey::generate(rng),
            });
        }
    }

    fn vote_all(&mut self, votes: &[u32], rng: &mut dyn Rng) {
        assert_eq!(votes.len(), self.n_voters, "one vote per voter");
        for (idx, &v) in votes.iter().enumerate() {
            self.vote_one(idx, v, rng);
        }
    }

    /// Dummy-padded filter tally: select each pseudonym's last ballot
    /// (with a cheap selection proof per ballot), pad with dummies to hide
    /// re-voting counts, one mix cascade, then verifiable decryption.
    fn tally(&mut self, rng: &mut dyn Rng) -> Vec<u64> {
        let pk = self.authority.public_key;

        // Selection: last ballot per pseudonym; each selection carries a
        // small proof (modelled as one Chaum–Pedersen per kept ballot).
        let mut last: Vec<Option<usize>> = vec![None; self.n_voters];
        for (i, b) in self.ballots.iter().enumerate() {
            match last[b.voter] {
                Some(j) if self.ballots[j].seq > b.seq => {}
                _ => last[b.voter] = Some(i),
            }
        }
        let mut selected: Vec<Ciphertext> = Vec::new();
        for slot in last.iter().flatten() {
            let ct = self.ballots[*slot].ct;
            let z = rng.scalar();
            let blinded = ct.c1 * z;
            let stmt = DlEqStatement {
                g1: EdwardsPoint::basepoint(),
                y1: EdwardsPoint::mul_base(&z),
                g2: ct.c1,
                y2: blinded,
            };
            let proof = prove_dleq(&mut Transcript::new(b"voteagain-select"), &stmt, &z, rng);
            verify_dleq(&mut Transcript::new(b"voteagain-select"), &stmt, &proof)
                .expect("selection proof verifies");
            selected.push(ct);
        }
        // Dummy padding: one dummy per superseded ballot (hides re-voting
        // multiplicities), plus padding to the mix minimum.
        let superseded = self.ballots.len() - selected.len();
        let mut inputs = selected;
        let n_real = inputs.len();
        for _ in 0..superseded.max(2usize.saturating_sub(n_real)) {
            inputs.push(Ciphertext::identity());
        }
        if inputs.len() < 2 {
            inputs.push(Ciphertext::identity());
        }

        // One verifiable mix cascade.
        let cascade = MixCascade::new(inputs.len(), 4);
        let transcript = cascade.mix(&pk, &inputs, rng);
        cascade.verify(&pk, &transcript).expect("own mix verifies");

        // Verifiable decryption; identities are the dummies.
        let mut counts = vec![0u64; self.n_options as usize];
        let mut identity_seen = 0usize;
        for ct in transcript.outputs() {
            let plain = self.authority.threshold_decrypt(ct, rng).expect("decrypts");
            if plain == EdwardsPoint::IDENTITY {
                identity_seen += 1;
                continue;
            }
            if let Some(v) = discrete_log_small(&plain, self.n_options as u64) {
                counts[v as usize] += 1;
            }
        }
        // Real votes for option 0 decrypt to the identity too; recover
        // them from the dummy accounting.
        let dummies = transcript.outputs().len() - n_real;
        counts[0] += (identity_seen - dummies) as u64;
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::HmacDrbg;

    #[test]
    fn voteagain_counts_correctly() {
        let mut rng = HmacDrbg::from_u64(1);
        let mut sys = VoteAgain::new(4, 3, &mut rng);
        sys.register_all(&mut rng);
        sys.vote_all(&[0, 1, 2, 1], &mut rng);
        assert_eq!(sys.tally(&mut rng), vec![1, 2, 1]);
    }

    #[test]
    fn voteagain_revote_keeps_last() {
        let mut rng = HmacDrbg::from_u64(2);
        let mut sys = VoteAgain::new(2, 2, &mut rng);
        sys.register_all(&mut rng);
        sys.vote_all(&[0, 0], &mut rng);
        sys.revote(0, 1, &mut rng);
        assert_eq!(sys.tally(&mut rng), vec![1, 1]);
    }

    #[test]
    fn voteagain_zero_option_votes_counted() {
        // Option 0 encodes to g^0 = identity; ensure the dummy accounting
        // distinguishes real zero-votes from padding.
        let mut rng = HmacDrbg::from_u64(3);
        let mut sys = VoteAgain::new(3, 2, &mut rng);
        sys.register_all(&mut rng);
        sys.vote_all(&[0, 0, 0], &mut rng);
        assert_eq!(sys.tally(&mut rng), vec![3, 0]);
    }
}
