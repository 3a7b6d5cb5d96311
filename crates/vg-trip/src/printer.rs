//! Envelope printers (Fig 7, Setup).
//!
//! Printers issue the booth's envelope supply: each envelope carries a
//! fresh random challenge nonce e, the printer's signature over H(e), and a
//! pre-printed symbol. For every envelope the printer publishes
//! (P_pk, H(e), σ_p) to the envelope ledger L_E, enabling the
//! activation-time duplicate-challenge detection of Appendix F.3.5.
//!
//! The [`EnvelopePrinter::print_duplicates`] method models the
//! envelope-stuffing attack of the individual-verifiability analysis
//! (§5.1): a compromised registrar printing k envelopes with the *same*
//! challenge to improve its forgery odds.

use vg_crypto::drbg::Rng;
use vg_crypto::schnorr::SigningKey;
use vg_crypto::{CompressedPoint, Scalar};
use vg_ledger::{challenge_hash, EnvelopeCommitment, EnvelopeLedger, LedgerError};

use crate::materials::{Envelope, Symbol};

/// An envelope printer.
pub struct EnvelopePrinter {
    key: SigningKey,
}

impl EnvelopePrinter {
    /// Creates a printer with a fresh signing key.
    pub fn new(rng: &mut dyn Rng) -> Self {
        Self {
            key: SigningKey::generate(rng),
        }
    }

    /// The printer's public key.
    pub fn public_key(&self) -> CompressedPoint {
        self.key.public_key_compressed()
    }

    /// Prints one envelope with challenge `e`, committing H(e) to the
    /// ledger.
    pub fn print_one(
        &self,
        ledger: &mut EnvelopeLedger,
        e: Scalar,
        symbol: Symbol,
    ) -> Result<Envelope, LedgerError> {
        let (envelope, commitment) = self.print_detached(e, symbol);
        ledger.commit(commitment)?;
        Ok(envelope)
    }

    /// Prepares one envelope *without* touching the ledger, returning the
    /// physical envelope together with the commitment that still has to be
    /// posted to L_E.
    ///
    /// This is the ceremony pool's precompute hook: worker threads prepare
    /// envelopes (the signature is the expensive part) ahead of voter
    /// arrival, and the fleet coordinator posts the commitments in
    /// check-in-queue order so the resulting L_E is bit-identical to a
    /// sequential registration day. An envelope whose commitment never
    /// reaches L_E fails activation (Fig 11 line 11), so a crashed pool
    /// leaks nothing usable.
    pub fn print_detached(&self, e: Scalar, symbol: Symbol) -> (Envelope, EnvelopeCommitment) {
        let h = challenge_hash(&e);
        let signature = self.key.sign(&EnvelopeCommitment::message(&h));
        (
            Envelope {
                printer_pk: self.public_key(),
                challenge: e,
                signature,
                symbol,
            },
            EnvelopeCommitment {
                printer_pk: self.public_key(),
                challenge_hash: h,
                signature,
            },
        )
    }

    /// Prints a batch of `n` honest envelopes with fresh random challenges
    /// and random symbols.
    pub fn print_batch(
        &self,
        ledger: &mut EnvelopeLedger,
        n: usize,
        rng: &mut dyn Rng,
    ) -> Result<Vec<Envelope>, LedgerError> {
        (0..n)
            .map(|_| self.print_one(ledger, rng.scalar(), Symbol::random(rng)))
            .collect()
    }

    /// Models the adversarial duplicate-envelope ("stuffing") attack: `k`
    /// envelopes sharing one challenge e★. Only the first commitment for
    /// H(e★) is posted (re-posting an identical hash would be conspicuous);
    /// the physical envelopes are still produced.
    pub fn print_duplicates(
        &self,
        ledger: &mut EnvelopeLedger,
        k: usize,
        rng: &mut dyn Rng,
    ) -> Result<Vec<Envelope>, LedgerError> {
        let e_star = rng.scalar();
        (0..k)
            .map(|i| match i {
                0 => self.print_one(ledger, e_star, Symbol::random(rng)),
                // Clone the physical artifact without a new ledger entry.
                _ => Ok(self.print_detached(e_star, Symbol::random(rng)).0),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::schnorr::VerifyingKey;
    use vg_crypto::HmacDrbg;
    use vg_ledger::{Ledger, VoterId};

    #[test]
    fn batch_commits_every_envelope() {
        let mut rng = HmacDrbg::from_u64(1);
        let mut ledger = Ledger::new(vec![VoterId(1)], &mut rng);
        let printer = EnvelopePrinter::new(&mut rng);
        let envs = printer
            .print_batch(&mut ledger.envelopes, 12, &mut rng)
            .expect("prints");
        assert_eq!(envs.len(), 12);
        assert_eq!(ledger.envelopes.committed_count(), 12);
        for env in &envs {
            assert!(ledger
                .envelopes
                .is_committed(&challenge_hash(&env.challenge)));
            // Printer signature verifies.
            let vk = VerifyingKey::from_compressed(&env.printer_pk).unwrap();
            vk.verify(
                &EnvelopeCommitment::message(&challenge_hash(&env.challenge)),
                &env.signature,
            )
            .expect("printer signature");
        }
    }

    #[test]
    fn challenges_are_unique_in_honest_batch() {
        let mut rng = HmacDrbg::from_u64(2);
        let mut ledger = Ledger::new(vec![], &mut rng);
        let printer = EnvelopePrinter::new(&mut rng);
        let envs = printer
            .print_batch(&mut ledger.envelopes, 50, &mut rng)
            .unwrap();
        let set: std::collections::HashSet<_> =
            envs.iter().map(|e| e.challenge.to_bytes()).collect();
        assert_eq!(set.len(), 50);
    }

    #[test]
    fn duplicates_share_one_challenge() {
        let mut rng = HmacDrbg::from_u64(3);
        let mut ledger = Ledger::new(vec![], &mut rng);
        let printer = EnvelopePrinter::new(&mut rng);
        let envs = printer
            .print_duplicates(&mut ledger.envelopes, 5, &mut rng)
            .unwrap();
        let set: std::collections::HashSet<_> =
            envs.iter().map(|e| e.challenge.to_bytes()).collect();
        assert_eq!(set.len(), 1);
        // Only one ledger commitment was posted.
        assert_eq!(ledger.envelopes.committed_count(), 1);
        // First activation succeeds, the second trips duplicate detection.
        let e = envs[0].challenge;
        ledger.envelopes.reveal_challenge(&e).expect("first reveal");
        assert!(ledger.envelopes.reveal_challenge(&e).is_err());
    }
}
