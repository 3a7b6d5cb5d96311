//! Swiss Post e-voting crypto-path simulator \[145\].
//!
//! The Swiss Post system is individually and universally verifiable but
//! not coercion-resistant. Its cryptographic profile per the published
//! protocol:
//!
//! - **Registration / setup**: per voter, the setup component generates a
//!   verification-card key pair and, for every voting option, partial
//!   choice-return codes computed by each of the four control components
//!   (exponentiations by per-CC secrets) plus their encryptions — the
//!   heaviest registration phase of the linear systems (13 ms/voter vs
//!   TRIP's 1.2 ms in the paper's Fig 5a).
//! - **Voting**: the client encrypts the vote with an OR validity proof
//!   and computes partial choice codes; all four control components verify
//!   the proofs and derive the return codes.
//! - **Tally**: a four-stage verifiable mix where **each control component
//!   re-verifies every stage**, then verifiable threshold decryption —
//!   roughly twice Votegral's tally cost at scale (27 h vs 14 h at 10^6).

use vg_crypto::chaum_pedersen::{prove_dleq, verify_dleq, DlEqStatement};
use vg_crypto::dkg::Authority;
use vg_crypto::elgamal::{discrete_log_small, encrypt_point, Ciphertext};
use vg_crypto::{EdwardsPoint, Rng, Scalar, Transcript};
use vg_shuffle::MixCascade;

use crate::BenchSystem;

const CONTROL_COMPONENTS: usize = 4;

struct SwissPostVoter {
    /// Verification-card secret.
    vc_secret: Scalar,
    /// Encrypted partial choice-return codes, one per option per CC.
    #[allow(dead_code)]
    choice_codes: Vec<Ciphertext>,
}

/// The Swiss Post system state.
pub struct SwissPost {
    authority: Authority,
    n_voters: usize,
    n_options: u32,
    voters: Vec<SwissPostVoter>,
    ballots: Vec<Ciphertext>,
}

impl SwissPost {
    /// Creates a Swiss Post instance (four control components).
    pub fn new(n_voters: usize, n_options: u32, rng: &mut dyn Rng) -> Self {
        Self {
            authority: Authority::dkg(CONTROL_COMPONENTS, CONTROL_COMPONENTS, rng),
            n_voters,
            n_options,
            voters: Vec::new(),
            ballots: Vec::new(),
        }
    }

    fn register_one(&mut self, rng: &mut dyn Rng) {
        let pk = self.authority.public_key;
        // Verification-card key pair.
        let vc_secret = rng.scalar();
        let _vc_pub = EdwardsPoint::mul_base(&vc_secret);
        // Per option, each control component derives a partial
        // choice-return code (an exponentiation by its per-voter secret)
        // and encrypts it for the code table.
        let mut choice_codes = Vec::with_capacity(self.n_options as usize * CONTROL_COMPONENTS);
        for opt in 0..self.n_options {
            let opt_point = EdwardsPoint::mul_base(&Scalar::from_u64(opt as u64 + 1));
            for _cc in 0..CONTROL_COMPONENTS {
                let cc_secret = rng.scalar();
                let partial = opt_point * cc_secret; // pCC exponentiation.
                let (ct, _) = encrypt_point(&pk, &partial, rng);
                choice_codes.push(ct);
            }
        }
        self.voters.push(SwissPostVoter {
            vc_secret,
            choice_codes,
        });
    }

    fn vote_one(&mut self, idx: usize, vote: u32, rng: &mut dyn Rng) {
        let pk = self.authority.public_key;
        let g_v = EdwardsPoint::mul_base(&Scalar::from_u64(vote as u64));
        let (ct, r) = encrypt_point(&pk, &g_v, rng);
        // Client-side OR validity proof (one branch per option; simulated
        // branches cost the same as real ones).
        for m in 0..self.n_options {
            let m_pt = EdwardsPoint::mul_base(&Scalar::from_u64(m as u64));
            let stmt = DlEqStatement {
                g1: EdwardsPoint::basepoint(),
                y1: ct.c1,
                g2: pk,
                y2: ct.c2 - m_pt,
            };
            if m == vote {
                let proof = prove_dleq(&mut Transcript::new(b"swisspost-vote"), &stmt, &r, rng);
                // Every control component verifies the client proof and
                // derives a return code from the partial choice codes.
                let vc = self.voters[idx].vc_secret;
                for _cc in 0..CONTROL_COMPONENTS {
                    verify_dleq(&mut Transcript::new(b"swisspost-vote"), &stmt, &proof)
                        .expect("client proof verifies");
                    let _return_code = ct.c1 * vc; // CC return-code exponentiation.
                }
            } else {
                let e = rng.scalar();
                let _ = vg_crypto::chaum_pedersen::forge_transcript(&stmt, &e, rng);
            }
        }
        self.ballots.push(ct);
    }
}

impl BenchSystem for SwissPost {
    fn name(&self) -> &'static str {
        "SwissPost"
    }

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

    fn tally(&mut self, rng: &mut dyn Rng) -> Vec<u64> {
        let pk = self.authority.public_key;
        // Swiss Post ballots travel through the mix as (encrypted vote,
        // encrypted confirmation key) pairs — the mixnet moves both under
        // one permutation.
        let mut inputs: Vec<(Ciphertext, Ciphertext)> = self
            .ballots
            .iter()
            .enumerate()
            .map(|(i, ct)| {
                let vc = EdwardsPoint::mul_base(&self.voters[i].vc_secret);
                let (conf, _) = encrypt_point(&pk, &vc, rng);
                (*ct, conf)
            })
            .collect();
        while inputs.len() < 2 {
            inputs.push((Ciphertext::identity(), Ciphertext::identity()));
        }
        // Four-mixer cascade; every control component independently
        // re-verifies the whole cascade, and the mandated post-election
        // Verifier re-checks it once more (the system's defining
        // overhead).
        let cascade = MixCascade::new(inputs.len(), CONTROL_COMPONENTS);
        let transcript = cascade.mix(&pk, &inputs, rng);
        for _verifier in 0..=CONTROL_COMPONENTS {
            cascade.verify(&pk, &transcript).expect("own mix verifies");
        }
        // Verifiable threshold decryption of every mixed ballot. Each of
        // the four control components produces a proven share, and each of
        // the four *re-verifies every other component's share* before
        // accepting the plaintext — the re-verification fan-out that makes
        // Swiss Post's tally the most expensive linear one (≈2× Votegral
        // at 10^6 in Fig 5b).
        let mut counts = vec![0u64; self.n_options as usize];
        for (ct, _conf) in transcript.outputs() {
            let shares: Vec<vg_crypto::dkg::DecryptionShare> = self
                .authority
                .members
                .iter()
                .map(|m| m.decryption_share(ct, rng))
                .collect();
            // Each control component verifies every share online, and the
            // Verifier re-checks them all post-election.
            for _verifying_cc in 0..=CONTROL_COMPONENTS {
                for share in &shares {
                    let vk = self.authority.members[(share.member_index - 1) as usize].vk;
                    share.verify(&vk, ct).expect("share verifies");
                }
            }
            let plain =
                vg_crypto::dkg::combine_shares(ct, &shares, self.authority.t).expect("combines");
            if let Some(v) = discrete_log_small(&plain, self.n_options as u64) {
                if !(plain == EdwardsPoint::IDENTITY && self.ballots.is_empty()) {
                    counts[v as usize] += 1;
                }
            }
        }
        // Padding identities decrypt to g^0; remove the padding we added.
        let padding = inputs.len() - self.ballots.len();
        counts[0] = counts[0].saturating_sub(padding as u64);
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::HmacDrbg;

    #[test]
    fn swisspost_counts_correctly() {
        let mut rng = HmacDrbg::from_u64(1);
        let mut sys = SwissPost::new(5, 3, &mut rng);
        sys.register_all(&mut rng);
        sys.vote_all(&[0, 1, 1, 2, 1], &mut rng);
        assert_eq!(sys.tally(&mut rng), vec![1, 3, 1]);
    }

    #[test]
    fn swisspost_single_ballot_with_padding() {
        let mut rng = HmacDrbg::from_u64(2);
        let mut sys = SwissPost::new(1, 2, &mut rng);
        sys.register_all(&mut rng);
        sys.vote_all(&[1], &mut rng);
        assert_eq!(sys.tally(&mut rng), vec![0, 1]);
    }

    #[test]
    fn swisspost_is_linear() {
        let mut rng = HmacDrbg::from_u64(3);
        let sys = SwissPost::new(1, 2, &mut rng);
        assert!(!sys.quadratic_tally());
    }
}
