//! Envelope printers (Fig 7, Setup).
//!
//! Printers issue the booth's envelope supply: each envelope carries a
//! fresh random challenge nonce e, the printer's signature over H(e), and a
//! pre-printed symbol. For every envelope the printer publishes
//! (P_pk, H(e), σ_p) to the envelope ledger L_E, enabling the
//! activation-time duplicate-challenge detection of Appendix F.3.5.
//!
//! A supply (setup's n_E envelopes, a booth restock, a printer's batch) is
//! printed by [`print_supply`]: every challenge and symbol is drawn in
//! order, the signatures are computed on the host's cores (64 at a time
//! through one [`batch_sign`]), and L_E takes the commitments through
//! [`EnvelopeLedger::commit_batch`] in chunks of at most 4 096. The
//! ledger and the drawn stream are those of one
//! [`EnvelopePrinter::print_one`] per envelope, each a `commit_batch` of
//! one; only the time differs.
//!
//! The [`EnvelopePrinter::print_duplicates`] method models the
//! envelope-stuffing attack of the individual-verifiability analysis
//! (§5.1): a compromised registrar printing k envelopes with the *same*
//! challenge to improve its forgery odds.

use vg_crypto::drbg::Rng;
use vg_crypto::par::{default_threads, par_chunks};
use vg_crypto::schnorr::{batch_sign, Signature, SigningKey};
use vg_crypto::{CompressedPoint, Scalar};
use vg_ledger::{challenge_hash, EnvelopeCommitment, EnvelopeLedger, LedgerError};

use crate::ceremony::PrintJob;
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
    /// ledger as a batch of one.
    pub fn print_one(
        &self,
        ledger: &mut EnvelopeLedger,
        e: Scalar,
        symbol: Symbol,
    ) -> Result<Envelope, LedgerError> {
        let (envelope, commitment) = self.print_detached(e, symbol);
        ledger.commit_batch(vec![commitment], 1)?;
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
        self.assemble(e, symbol, h, signature)
    }

    /// [`EnvelopePrinter::print_detached`] for every job, in order: the
    /// same envelopes and commitments, signed on up to `threads` cores
    /// through [`batch_sign`] (one field inversion per 64 envelopes
    /// rather than one per envelope).
    pub fn print_jobs(
        &self,
        jobs: &[PrintJob],
        threads: usize,
    ) -> Vec<(Envelope, EnvelopeCommitment)> {
        let drawn: Vec<(&EnvelopePrinter, Scalar, Symbol)> = jobs
            .iter()
            .map(|job| (self, job.challenge, job.symbol))
            .collect();
        par_chunks(&drawn, SIGN_BATCH, threads, print_drawn)
    }

    fn assemble(
        &self,
        e: Scalar,
        symbol: Symbol,
        h: [u8; 32],
        signature: Signature,
    ) -> (Envelope, EnvelopeCommitment) {
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
    /// and random symbols: [`print_supply`] with this printer alone.
    pub fn print_batch(
        &self,
        ledger: &mut EnvelopeLedger,
        n: usize,
        rng: &mut dyn Rng,
    ) -> Result<Vec<Envelope>, LedgerError> {
        print_supply(std::slice::from_ref(self), ledger, n, rng)
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

/// Most envelopes one [`print_supply`] chunk posts to L_E. It bounds the
/// working memory of a supply at an electorate's size, and one printer's
/// full chunk folds 4 098 terms, enough for the fold's multi-scalar
/// multiplication to split across cores.
pub(crate) const SUPPLY_CHUNK: usize = 4096;

/// Prints `n` honest envelopes round-robin across `printers` (envelope `i`
/// from printer `i mod |P|`) and commits them to L_E.
///
/// Each envelope's `(e, symbol)` is drawn from `rng` in envelope order, as
/// a loop of [`EnvelopePrinter::print_one`] draws them. The signatures are
/// computed on [`default_threads`] workers, and each chunk of at most
/// 4 096 commitments is posted through one
/// [`EnvelopeLedger::commit_batch`]: one folded printer-signature check,
/// then one batch append. The envelopes, L_E's records and head, and the
/// rng's state afterwards are those of the `print_one` loop. A chunk that
/// fails its check is not posted; earlier chunks stay on L_E.
///
/// # Panics
///
/// Panics if `printers` is empty and `n > 0`.
pub fn print_supply(
    printers: &[EnvelopePrinter],
    ledger: &mut EnvelopeLedger,
    n: usize,
    rng: &mut dyn Rng,
) -> Result<Vec<Envelope>, LedgerError> {
    let threads = default_threads();
    let mut supply = Vec::with_capacity(n);
    for lo in (0..n).step_by(SUPPLY_CHUNK) {
        let drawn: Vec<(&EnvelopePrinter, Scalar, Symbol)> = (lo..n.min(lo + SUPPLY_CHUNK))
            .map(|i| {
                (
                    &printers[i % printers.len()],
                    rng.scalar(),
                    Symbol::random(rng),
                )
            })
            .collect();
        let (envelopes, commitments): (Vec<Envelope>, Vec<EnvelopeCommitment>) =
            par_chunks(&drawn, SIGN_BATCH, threads, print_drawn)
                .into_iter()
                .unzip();
        ledger.commit_batch(commitments, threads)?;
        supply.extend(envelopes);
    }
    Ok(supply)
}

/// Most envelopes one [`batch_sign`] call signs: its one field inversion
/// is then under a fortieth of one envelope's signing, and its working
/// vectors stay a few KiB, not a core's share of a supply.
const SIGN_BATCH: usize = 64;

/// [`EnvelopePrinter::print_detached`] for every `(printer, e, symbol)`,
/// in order, through one [`batch_sign`].
fn print_drawn(
    drawn: &[(&EnvelopePrinter, Scalar, Symbol)],
) -> Vec<(Envelope, EnvelopeCommitment)> {
    let hashes: Vec<[u8; 32]> = drawn.iter().map(|(_, e, _)| challenge_hash(e)).collect();
    let messages: Vec<Vec<u8>> = hashes.iter().map(EnvelopeCommitment::message).collect();
    let items: Vec<(&SigningKey, &[u8])> = drawn
        .iter()
        .zip(&messages)
        .map(|((printer, _, _), m)| (&printer.key, m.as_slice()))
        .collect();
    batch_sign(&items)
        .into_iter()
        .zip(drawn)
        .zip(hashes)
        .map(|((signature, &(printer, e, symbol)), h)| printer.assemble(e, symbol, h, signature))
        .collect()
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
    fn print_jobs_matches_print_detached() {
        let mut rng = HmacDrbg::from_u64(4);
        let printer = EnvelopePrinter::new(&mut rng);
        for n in [0usize, 1, 17, 40, 130] {
            let jobs: Vec<PrintJob> = (0..n)
                .map(|i| PrintJob {
                    challenge: rng.scalar(),
                    symbol: Symbol::ALL[i % Symbol::ALL.len()],
                })
                .collect();
            let bytes = |(env, c): (Envelope, EnvelopeCommitment)| {
                (env, c.printer_pk, c.challenge_hash, c.signature.to_bytes())
            };
            let one_by_one: Vec<_> = jobs
                .iter()
                .map(|job| bytes(printer.print_detached(job.challenge, job.symbol)))
                .collect();
            for threads in [1, 3] {
                let batch: Vec<_> = printer
                    .print_jobs(&jobs, threads)
                    .into_iter()
                    .map(bytes)
                    .collect();
                assert_eq!(batch, one_by_one, "n {n}");
            }
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
