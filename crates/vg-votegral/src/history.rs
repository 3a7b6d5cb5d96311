//! Voting-history review and verification — extension C.1 (§4.5).
//!
//! Fake credentials make it safe to show voters how they voted: the
//! record of votes cast with a credential does not leak whether that
//! credential is real, so a coerced voter's device full of fake history is
//! indistinguishable from a real one. Two mechanisms from Appendix C.1:
//!
//! - a device-local [`VotingHistory`] storing each cast vote with its
//!   ballot receipt (ciphertext + randomness), letting a second device
//!   re-encrypt and compare — cast-as-intended verification;
//! - [`recover_votes`]: the voter's device proves credential ownership and
//!   obtains verifiable decryption shares for the ballots cast with it,
//!   reconstructing the votes *locally* so no authority member learns
//!   them.

use vg_crypto::chaum_pedersen::{prove_dlog, verify_dlog, DlogProof};
use vg_crypto::dkg::{combine_shares, Authority, DecryptionShare};
use vg_crypto::drbg::Rng;
use vg_crypto::edwards::FixedBaseTable;
use vg_crypto::elgamal::{discrete_log_small, encrypt_point_with_table, Ciphertext};
use vg_crypto::{CompressedPoint, EdwardsPoint, Scalar, Transcript};
use vg_trip::vsd::ActivatedCredential;

use crate::ballot::VoteConfig;
use crate::error::VotegralError;

/// One remembered cast: the vote, the posted ciphertext, and the
/// encryption randomness (the receipt that enables re-encryption checks).
#[derive(Clone, Debug)]
pub struct HistoryEntry {
    /// The credential that cast this ballot.
    pub credential_pk: CompressedPoint,
    /// The claimed vote.
    pub vote: u32,
    /// The posted vote ciphertext.
    pub ciphertext: Ciphertext,
    /// The encryption randomness.
    pub randomness: Scalar,
}

/// A device-local voting history.
#[derive(Default, Debug)]
pub struct VotingHistory {
    entries: Vec<HistoryEntry>,
}

impl VotingHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a cast vote.
    pub fn record(&mut self, entry: HistoryEntry) {
        self.entries.push(entry);
    }

    /// All remembered casts (what the voter reviews).
    pub fn entries(&self) -> &[HistoryEntry] {
        &self.entries
    }

    /// Cast-as-intended check on a (possibly second) device: re-encrypts
    /// each claimed vote with the stored randomness and compares with the
    /// recorded ciphertext. Returns the indices of entries that fail.
    pub fn verify(&self, authority_pk: &EdwardsPoint) -> Vec<usize> {
        let pk_table = FixedBaseTable::shared(authority_pk);
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                let g_v = EdwardsPoint::mul_base(&Scalar::from_u64(e.vote as u64));
                let expect = encrypt_point_with_table(&pk_table, &g_v, &e.randomness);
                if expect == e.ciphertext {
                    None
                } else {
                    Some(i)
                }
            })
            .collect()
    }
}

/// A credential-ownership proof used when requesting decryption shares.
#[derive(Clone, Debug)]
pub struct OwnershipProof {
    /// The credential public key being claimed.
    pub credential_pk: CompressedPoint,
    /// Schnorr proof of knowledge of the credential secret.
    pub proof: DlogProof,
}

/// Proves ownership of a credential to the authority (Appendix C.1:
/// "the voter's device proves ownership of the credential to each
/// election authority member").
pub fn prove_ownership(credential: &ActivatedCredential, rng: &mut dyn Rng) -> OwnershipProof {
    let pk = credential.public_key();
    let pk_point = pk.decompress().expect("own key decompresses");
    let proof = prove_dlog(
        &mut Transcript::new(b"votegral-history-ownership"),
        &EdwardsPoint::basepoint(),
        &pk_point,
        &credential.key.secret(),
        rng,
    );
    OwnershipProof {
        credential_pk: pk,
        proof,
    }
}

/// Authority-side check of an ownership proof.
pub fn verify_ownership(proof: &OwnershipProof) -> Result<(), VotegralError> {
    let pk_point = proof
        .credential_pk
        .decompress()
        .ok_or(VotegralError::Crypto(vg_crypto::CryptoError::InvalidPoint))?;
    verify_dlog(
        &mut Transcript::new(b"votegral-history-ownership"),
        &EdwardsPoint::basepoint(),
        &pk_point,
        &proof.proof,
    )
    .map_err(VotegralError::Crypto)
}

/// Recovers the votes cast with an owned credential: each authority
/// member (after checking the ownership proof) supplies verifiable
/// decryption shares for the given ballots; the device verifies every
/// share and reconstructs locally.
///
/// Returns the decrypted votes (None for out-of-range plaintexts).
pub fn recover_votes(
    authority: &Authority,
    ownership: &OwnershipProof,
    ballots: &[Ciphertext],
    config: VoteConfig,
    rng: &mut dyn Rng,
) -> Result<Vec<Option<u32>>, VotegralError> {
    verify_ownership(ownership)?;
    let mut out = Vec::with_capacity(ballots.len());
    for ct in ballots {
        let shares: Vec<DecryptionShare> = authority.members[..authority.t]
            .iter()
            .map(|m| m.decryption_share(ct, rng))
            .collect();
        // Device-side share verification: a lying member is caught.
        for share in &shares {
            let vk = authority.members[(share.member_index - 1) as usize].vk;
            share.verify(&vk, ct).map_err(VotegralError::Crypto)?;
        }
        let plain = combine_shares(ct, &shares, authority.t).map_err(VotegralError::Crypto)?;
        out.push(discrete_log_small(&plain, config.n_options as u64).map(|v| v as u32));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::elgamal::encrypt_point_with;
    use vg_crypto::HmacDrbg;
    use vg_ledger::VoterId;
    use vg_trip::setup::TripConfig;

    fn setup() -> (crate::election::Election, ActivatedCredential, HmacDrbg) {
        let mut rng = HmacDrbg::from_u64(1);
        let mut election = crate::election::ElectionBuilder::new()
            .trip_config(TripConfig::with_voters(2))
            .options(3)
            .build(&mut rng);
        let (_, vsd) = election
            .register_and_activate(VoterId(1), 0, &mut rng)
            .unwrap();
        let cred = vsd.credentials[0].clone();
        (election, cred, rng)
    }

    #[test]
    fn history_verifies_honest_entries() {
        let (election, cred, mut rng) = setup();
        let apk = election.trip.authority.public_key;
        let mut history = VotingHistory::new();
        for vote in [2u32, 1] {
            let r = rng.scalar();
            let g_v = EdwardsPoint::mul_base(&Scalar::from_u64(vote as u64));
            let ct = encrypt_point_with(&apk, &g_v, &r);
            history.record(HistoryEntry {
                credential_pk: cred.public_key(),
                vote,
                ciphertext: ct,
                randomness: r,
            });
        }
        assert!(history.verify(&apk).is_empty());
    }

    #[test]
    fn history_flags_tampered_entry() {
        let (election, cred, mut rng) = setup();
        let apk = election.trip.authority.public_key;
        let mut history = VotingHistory::new();
        let r = rng.scalar();
        let ct = encrypt_point_with(&apk, &EdwardsPoint::mul_base(&Scalar::from_u64(2)), &r);
        history.record(HistoryEntry {
            credential_pk: cred.public_key(),
            vote: 1, // Claims 1 but the ciphertext holds 2.
            ciphertext: ct,
            randomness: r,
        });
        assert_eq!(history.verify(&apk), vec![0]);
    }

    #[test]
    fn ownership_proof_roundtrip() {
        let (_election, cred, mut rng) = setup();
        let proof = prove_ownership(&cred, &mut rng);
        verify_ownership(&proof).expect("owner verifies");

        // A proof for a different key fails.
        let mut forged = proof;
        forged.credential_pk = EdwardsPoint::mul_base(&rng.scalar()).compress();
        assert!(verify_ownership(&forged).is_err());
    }

    #[test]
    fn recover_votes_locally() {
        let (election, cred, mut rng) = setup();
        let apk = election.trip.authority.public_key;
        let votes = [0u32, 2, 1];
        let cts: Vec<Ciphertext> = votes
            .iter()
            .map(|&v| {
                let r = rng.scalar();
                encrypt_point_with(
                    &apk,
                    &EdwardsPoint::mul_base(&Scalar::from_u64(v as u64)),
                    &r,
                )
            })
            .collect();
        let ownership = prove_ownership(&cred, &mut rng);
        let recovered = recover_votes(
            &election.trip.authority,
            &ownership,
            &cts,
            VoteConfig::new(3),
            &mut rng,
        )
        .expect("recovers");
        assert_eq!(
            recovered,
            votes.iter().map(|&v| Some(v)).collect::<Vec<_>>()
        );
    }
}
