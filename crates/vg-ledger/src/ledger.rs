//! The Votegral public bulletin board: L_R, L_E and L_V sub-ledgers.
//!
//! Appendix D.1 idealizes the ledger as an append-only, globally consistent
//! structure with three sub-ledgers: the registration ledger L_R (one
//! *active* record per voter, later registrations superseding earlier ones),
//! the envelope-commitment ledger L_E (printer commitments H(e) at setup,
//! revealed challenges at activation — the duplicate-envelope detector of
//! Appendix F.3.5), and the ballot ledger L_V. Every sub-ledger is backed by
//! a tamper-evident Merkle log ([`crate::log`]) so any mutation of history
//! is detectable by auditors.

use std::collections::{HashMap, VecDeque};

use crate::durable::{DurabilityStats, FaultFs, WalError};
use crate::log::{Record, TamperEvidentLog, TreeHead};
use crate::store::LedgerBackend;
use vg_crypto::edwards::CompressedPoint;
use vg_crypto::elgamal::Ciphertext;
use vg_crypto::schnorr::{Signature, SignatureSweep, SigningKey, VerifyingKey};
use vg_crypto::{CryptoError, Rng, Scalar};

/// A voter's unique identifier on the electoral roll.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct VoterId(pub u64);

impl VoterId {
    /// Canonical byte encoding.
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_le_bytes()
    }
}

/// Errors raised by ledger operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// The voter is not on the electoral roll.
    NotOnRoster,
    /// The envelope challenge hash was never committed by a printer.
    UnknownEnvelope,
    /// The challenge was already revealed — a duplicated envelope
    /// (Appendix F.3.5) or a replayed activation.
    DuplicateChallenge,
    /// A signature or proof failed cryptographic verification.
    Crypto(CryptoError),
    /// Durable storage failed beneath the ledger (a WAL write, fsync, or
    /// commit barrier): the day degrades to a typed abort instead of a
    /// panic. Carries the [`crate::durable::WalError`] description.
    Storage(String),
}

impl core::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LedgerError::NotOnRoster => write!(f, "voter not on electoral roll"),
            LedgerError::UnknownEnvelope => write!(f, "envelope commitment not found"),
            LedgerError::DuplicateChallenge => write!(f, "challenge already revealed"),
            LedgerError::Crypto(e) => write!(f, "cryptographic check failed: {e}"),
            LedgerError::Storage(m) => write!(f, "durable storage failed: {m}"),
        }
    }
}

impl std::error::Error for LedgerError {}

impl From<CryptoError> for LedgerError {
    fn from(e: CryptoError) -> Self {
        LedgerError::Crypto(e)
    }
}

impl From<WalError> for LedgerError {
    fn from(e: WalError) -> Self {
        LedgerError::Storage(e.to_string())
    }
}

/// A registration-ledger record (Fig 10 line 5):
/// L_R\[V_id\] ← (c_pc, K_pk, σ_kot, O_pk, σ_o).
#[derive(Clone, Debug)]
pub struct RegistrationRecord {
    /// The registering voter.
    pub voter_id: VoterId,
    /// The public credential tag (ElGamal encryption of the real
    /// credential's public key).
    pub c_pc: Ciphertext,
    /// Issuing kiosk's public key.
    pub kiosk_pk: CompressedPoint,
    /// Kiosk check-out signature σ_kot over V_id ‖ c_pc.
    pub kiosk_sig: Signature,
    /// Approving official's public key.
    pub official_pk: CompressedPoint,
    /// Official signature σ_o over V_id ‖ c_pc ‖ σ_kot.
    pub official_sig: Signature,
}

impl RegistrationRecord {
    /// The message the kiosk signs at check-out.
    pub fn kiosk_message(voter_id: VoterId, c_pc: &Ciphertext) -> Vec<u8> {
        let mut m = Vec::with_capacity(80);
        m.extend_from_slice(b"trip-checkout-v1");
        m.extend_from_slice(&voter_id.to_bytes());
        m.extend_from_slice(&c_pc.to_bytes());
        m
    }

    /// The message the official signs at check-out.
    pub fn official_message(
        voter_id: VoterId,
        c_pc: &Ciphertext,
        kiosk_sig: &Signature,
    ) -> Vec<u8> {
        let mut m = Self::kiosk_message(voter_id, c_pc);
        m.extend_from_slice(b"|official|");
        m.extend_from_slice(&kiosk_sig.to_bytes());
        m
    }
}

impl Record for RegistrationRecord {
    fn canonical_bytes(&self) -> Vec<u8> {
        let mut m = Vec::with_capacity(256);
        m.extend_from_slice(b"reg-record-v1");
        m.extend_from_slice(&self.voter_id.to_bytes());
        m.extend_from_slice(&self.c_pc.to_bytes());
        m.extend_from_slice(&self.kiosk_pk.0);
        m.extend_from_slice(&self.kiosk_sig.to_bytes());
        m.extend_from_slice(&self.official_pk.0);
        m.extend_from_slice(&self.official_sig.to_bytes());
        m
    }

    fn shard_key(&self) -> Vec<u8> {
        // Partition by voter so every (re-)registration of a voter lands
        // on one shard.
        self.voter_id.to_bytes().to_vec()
    }
}

/// The registration sub-ledger L_R with supersede semantics.
pub struct RegistrationLedger {
    log: TamperEvidentLog<RegistrationRecord>,
    /// Electoral roll (populated at setup from V).
    roster: Vec<VoterId>,
    roster_set: HashMap<VoterId, ()>,
    /// voter → index of the currently active record.
    active: HashMap<VoterId, usize>,
}

impl RegistrationLedger {
    fn new(operator: SigningKey, roster: Vec<VoterId>, backend: LedgerBackend) -> Self {
        let roster_set = roster.iter().map(|v| (*v, ())).collect();
        let log: TamperEvidentLog<RegistrationRecord> =
            TamperEvidentLog::with_backend(operator, backend);
        // A durable backend may have replayed history: rebuild the
        // supersede map exactly as the original posting order built it.
        let mut active = HashMap::new();
        for (idx, record) in log.records().iter().enumerate() {
            active.insert(record.voter_id, idx);
        }
        Self {
            log,
            roster,
            roster_set,
            active,
        }
    }

    /// The electoral roll.
    pub fn roster(&self) -> &[VoterId] {
        &self.roster
    }

    /// Returns `true` if the voter is eligible.
    pub fn is_eligible(&self, voter: VoterId) -> bool {
        self.roster_set.contains_key(&voter)
    }

    /// Posts registration records (check-out, Fig 10): the one admission
    /// path, a single record being a batch of one. Eligibility is checked
    /// per record, the signature chains through
    /// [`RegistrationLedger::verify_batch`], and the records are appended
    /// through the backend's batch path. All-or-nothing: any invalid
    /// record rejects the whole batch, with its precise error, before the
    /// ledger is touched. Any prior record for the same voter is
    /// superseded, in input order.
    ///
    /// The fold's weights are derived from a hash committing to the whole
    /// batch, so replays are bit-identical; a submitter grinding records
    /// against the fold is the classical RLC residual risk, and auditors
    /// re-verify individually.
    pub fn post_batch(
        &mut self,
        records: Vec<RegistrationRecord>,
        threads: usize,
    ) -> Result<std::ops::Range<usize>, LedgerError> {
        for record in &records {
            if !self.is_eligible(record.voter_id) {
                return Err(LedgerError::NotOnRoster);
            }
        }
        Self::verify_batch(&records, threads)?;
        self.post_batch_preverified(records, threads)
    }

    /// The signature-chain half of [`RegistrationLedger::post_batch`]:
    /// one committed RLC admission sweep over the batch, whatever its
    /// size, whose [`SignatureSweep::check`] names the first offender,
    /// touching no ledger state.
    ///
    /// An associated function: it needs no ledger. Eligibility is *not*
    /// checked here because the roster lives with the ledger. `pub`
    /// beside [`RegistrationLedger::post_batch_preverified`] because
    /// `bench/e2e`'s re-enactment and layer probes time the two halves
    /// separately; the registrar itself calls
    /// [`RegistrationLedger::post_batch`].
    pub fn verify_batch(records: &[RegistrationRecord], threads: usize) -> Result<(), LedgerError> {
        let mut sweep = SignatureSweep::new(b"ledger-reg-admission-v1");
        for record in records {
            sweep.push(
                &record.kiosk_pk,
                RegistrationRecord::kiosk_message(record.voter_id, &record.c_pc),
                record.kiosk_sig,
            )?;
            sweep.push(
                &record.official_pk,
                RegistrationRecord::official_message(
                    record.voter_id,
                    &record.c_pc,
                    &record.kiosk_sig,
                ),
                record.official_sig,
            )?;
        }
        Ok(sweep.check(threads)?)
    }

    /// The state half of [`RegistrationLedger::post_batch`]: eligibility
    /// check (the roster is ledger state, so it stays at the commit
    /// point), append through the backend's batch fast path, and
    /// supersede semantics in input order.
    ///
    /// # Trust contract
    ///
    /// The caller **must** have run [`RegistrationLedger::verify_batch`]
    /// over exactly these records — this entry point re-checks no
    /// signatures, and yields the same signed head as the all-in-one
    /// path.
    pub fn post_batch_preverified(
        &mut self,
        records: Vec<RegistrationRecord>,
        threads: usize,
    ) -> Result<std::ops::Range<usize>, LedgerError> {
        for record in &records {
            if !self.is_eligible(record.voter_id) {
                return Err(LedgerError::NotOnRoster);
            }
        }
        let voters: Vec<VoterId> = records.iter().map(|r| r.voter_id).collect();
        let range = self.log.append_batch(records, threads);
        for (voter, idx) in voters.into_iter().zip(range.clone()) {
            self.active.insert(voter, idx);
        }
        Ok(range)
    }

    /// The currently active record for `voter`, if any.
    pub fn active_record(&self, voter: VoterId) -> Option<&RegistrationRecord> {
        self.active.get(&voter).and_then(|&i| self.log.get(i))
    }

    /// Number of voters with an active registration — the publicly
    /// checkable count the paper compares against census data (§4.2).
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// All records ever posted (the append-only history).
    pub fn records(&self) -> &[RegistrationRecord] {
        self.log.records()
    }

    /// Signed tree head for auditors.
    pub fn tree_head(&self) -> TreeHead {
        self.log.tree_head()
    }

    /// Operator key for head verification.
    pub fn operator_key(&self) -> VerifyingKey {
        self.log.operator_key()
    }

    /// Inclusion proof for the record at `index`.
    pub fn prove_inclusion(&self, index: usize) -> crate::store::InclusionProof {
        self.log.prove_inclusion(index)
    }

    /// Consistency proof from an earlier snapshot size to the current head.
    pub fn prove_consistency(&self, old_size: usize) -> crate::store::ConsistencyProof {
        self.log.prove_consistency(old_size)
    }

    /// The storage backend this sub-ledger runs on.
    pub fn backend(&self) -> LedgerBackend {
        self.log.backend()
    }

    /// Commit barrier (no-op on volatile backends): see
    /// [`TamperEvidentLog::persist`].
    pub fn persist(&mut self) -> Result<(), WalError> {
        self.log.persist()
    }

    /// Installs a deterministic write-layer fault schedule (chaos tests).
    pub fn install_fault_fs(&mut self, fault: FaultFs) {
        self.log.install_fault_fs(fault);
    }

    /// Durability counters for this sub-ledger.
    pub fn durability_stats(&self) -> DurabilityStats {
        self.log.durability_stats()
    }
}

/// An envelope commitment (Setup, Fig 7 line 5): (P_pk, H(e), σ_p).
#[derive(Clone, Debug)]
pub struct EnvelopeCommitment {
    /// The issuing printer's public key.
    pub printer_pk: CompressedPoint,
    /// H(e), the hash of the envelope's challenge nonce.
    pub challenge_hash: [u8; 32],
    /// Printer signature over H(e).
    pub signature: Signature,
}

impl EnvelopeCommitment {
    /// The message the printer signs.
    pub fn message(challenge_hash: &[u8; 32]) -> Vec<u8> {
        let mut m = Vec::with_capacity(64);
        m.extend_from_slice(b"trip-envelope-v1");
        m.extend_from_slice(challenge_hash);
        m
    }
}

impl Record for EnvelopeCommitment {
    fn canonical_bytes(&self) -> Vec<u8> {
        let mut m = Vec::with_capacity(128);
        m.extend_from_slice(b"env-commit-v1");
        m.extend_from_slice(&self.printer_pk.0);
        m.extend_from_slice(&self.challenge_hash);
        m.extend_from_slice(&self.signature.to_bytes());
        m
    }

    fn shard_key(&self) -> Vec<u8> {
        // Partition by challenge hash: activation looks envelopes up by
        // H(e).
        self.challenge_hash.to_vec()
    }
}

/// The envelope sub-ledger L_E: printer commitments, and the challenges
/// revealed at activation. On a durable backend each reveal is a side
/// frame `H(e) ‖ e` of the commitment log itself, so it rides the same
/// buffer, fsync and torn-tail repair as the commitments.
pub struct EnvelopeLedger {
    log: TamperEvidentLog<EnvelopeCommitment>,
    by_hash: HashMap<[u8; 32], usize>,
    /// Challenges revealed at activation, keyed by H(e).
    revealed: HashMap<[u8; 32], Scalar>,
    /// The H(e) of every reveal a reopened durable ledger replayed, in
    /// reveal order, until a re-run of the day reveals it again.
    replay: VecDeque<[u8; 32]>,
}

impl EnvelopeLedger {
    fn new(operator: SigningKey, backend: LedgerBackend) -> Self {
        let mut log: TamperEvidentLog<EnvelopeCommitment> =
            TamperEvidentLog::with_backend(operator, backend);
        let mut by_hash = HashMap::new();
        for (idx, c) in log.records().iter().enumerate() {
            by_hash.insert(c.challenge_hash, idx);
        }
        let (mut revealed, mut replay) = (HashMap::new(), VecDeque::new());
        for frame in log.take_side_frames() {
            let mut r = vg_crypto::codec::Reader::new(&frame);
            let (Ok(h), Ok(e), Ok(())) = (r.bytes32(), r.scalar(), r.finish()) else {
                // Corruption is fail-stop, like the commitment log's.
                panic!("durable envelope ledger holds a bad reveal frame");
            };
            revealed.insert(h, e);
            replay.push_back(h);
        }
        Self {
            log,
            by_hash,
            revealed,
            replay,
        }
    }

    /// Records printer commitments (Fig 7 line 5), the one admission
    /// path: setup's booth supply and every restock, posted by `vg-trip`'s
    /// `print_supply` in chunks of at most 4 096, the ceremony pool's
    /// batched refills, and a single envelope as a batch of one.
    /// All-or-nothing on signature failure; printer signatures are checked
    /// through one RLC fold with the same weight derivation and offender
    /// search as [`RegistrationLedger::post_batch`]. The fold carries one
    /// term per distinct printer key, so a chunk from |P| printers folds
    /// n + |P| + 1 terms.
    pub fn commit_batch(
        &mut self,
        commitments: Vec<EnvelopeCommitment>,
        threads: usize,
    ) -> Result<std::ops::Range<usize>, LedgerError> {
        Self::verify_batch(&commitments, threads)?;
        self.commit_batch_preverified(commitments, threads)
    }

    /// The printer-signature half of [`EnvelopeLedger::commit_batch`]:
    /// one committed RLC sweep over the batch, touching no ledger state
    /// (see [`RegistrationLedger::verify_batch`] for why the split is
    /// `pub`).
    pub fn verify_batch(
        commitments: &[EnvelopeCommitment],
        threads: usize,
    ) -> Result<(), LedgerError> {
        let mut sweep = SignatureSweep::new(b"ledger-env-admission-v1");
        for c in commitments {
            sweep.push(
                &c.printer_pk,
                EnvelopeCommitment::message(&c.challenge_hash),
                c.signature,
            )?;
        }
        Ok(sweep.check(threads)?)
    }

    /// The state half of [`EnvelopeLedger::commit_batch`]: append and
    /// index, re-checking no signatures.
    ///
    /// # Trust contract
    ///
    /// The caller **must** have run [`EnvelopeLedger::verify_batch`] over
    /// exactly these commitments (same contract as
    /// [`RegistrationLedger::post_batch_preverified`]).
    pub fn commit_batch_preverified(
        &mut self,
        commitments: Vec<EnvelopeCommitment>,
        threads: usize,
    ) -> Result<std::ops::Range<usize>, LedgerError> {
        let hashes: Vec<[u8; 32]> = commitments.iter().map(|c| c.challenge_hash).collect();
        let range = self.log.append_batch(commitments, threads);
        for (h, idx) in hashes.into_iter().zip(range.clone()) {
            self.by_hash.insert(h, idx);
        }
        Ok(range)
    }

    /// Returns `true` if H(e) was committed by some printer.
    pub fn is_committed(&self, challenge_hash: &[u8; 32]) -> bool {
        self.by_hash.contains_key(challenge_hash)
    }

    /// Reveals a challenge at activation (Fig 11 line 11):
    /// `e ∉ L_E[H(e)]; L_E[H(e)] ← e`.
    ///
    /// On a reopened durable ledger, re-revealing the persisted reveals
    /// *in their original order* (what a deterministic re-run of the day
    /// does) is an idempotent no-op; any other repeat still trips the
    /// duplicate-envelope detector of Appendix F.3.5.
    pub fn reveal_challenge(&mut self, e: &Scalar) -> Result<(), LedgerError> {
        let h = challenge_hash(e);
        if !self.by_hash.contains_key(&h) {
            return Err(LedgerError::UnknownEnvelope);
        }
        if self.revealed.contains_key(&h) {
            if self.replay.front() == Some(&h) {
                self.replay.pop_front();
                return Ok(());
            }
            return Err(LedgerError::DuplicateChallenge);
        }
        // Event before state: the reveal's frame lands before the map
        // accepts it. A write failure refuses the reveal typed, and
        // poisons the log so no later frame lands behind a torn one.
        self.log.append_side(|| [&h[..], &e.to_bytes()].concat())?;
        self.revealed.insert(h, *e);
        Ok(())
    }

    /// Number of envelopes committed at setup.
    pub fn committed_count(&self) -> usize {
        self.by_hash.len()
    }

    /// Number of challenges revealed — the aggregate count of activated
    /// credentials, the only envelope information the coercion adversary
    /// sees (Appendix F.1, Hybrid 2).
    pub fn revealed_count(&self) -> usize {
        self.revealed.len()
    }

    /// Signed tree head for auditors.
    pub fn tree_head(&self) -> TreeHead {
        self.log.tree_head()
    }

    /// Commit barrier (no-op on volatile backends): see
    /// [`TamperEvidentLog::persist`]; reveals sync with the commitments.
    pub fn persist(&mut self) -> Result<(), WalError> {
        self.log.persist()
    }

    /// Installs a deterministic write-layer fault schedule (chaos tests).
    pub fn install_fault_fs(&mut self, fault: FaultFs) {
        self.log.install_fault_fs(fault);
    }

    /// Durability counters for this sub-ledger (reveals count as frames).
    pub fn durability_stats(&self) -> DurabilityStats {
        self.log.durability_stats()
    }
}

/// Hashes an envelope challenge: H(e) (Fig 7 line 5).
pub fn challenge_hash(e: &Scalar) -> [u8; 32] {
    let mut m = Vec::with_capacity(64);
    m.extend_from_slice(b"trip-challenge-hash-v1");
    m.extend_from_slice(&e.to_bytes());
    vg_crypto::sha2::sha256(&m)
}

/// A ballot-ledger record: an opaque encrypted ballot authenticated by a
/// credential key pair (the payload format is defined by `vg-votegral`).
#[derive(Clone, Debug)]
pub struct BallotRecord {
    /// The credential public key that authenticated this ballot.
    pub credential_pk: CompressedPoint,
    /// Serialized encrypted ballot with its proofs.
    pub payload: Vec<u8>,
    /// Credential signature over the payload.
    pub signature: Signature,
}

impl BallotRecord {
    /// The message the credential key signs.
    pub fn message(payload: &[u8]) -> Vec<u8> {
        let mut m = Vec::with_capacity(payload.len() + 16);
        m.extend_from_slice(b"votegral-ballot-v1");
        m.extend_from_slice(payload);
        m
    }
}

impl Record for BallotRecord {
    fn canonical_bytes(&self) -> Vec<u8> {
        let mut m = Vec::with_capacity(self.payload.len() + 128);
        m.extend_from_slice(b"ballot-record-v1");
        m.extend_from_slice(&self.credential_pk.0);
        m.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        m.extend_from_slice(&self.payload);
        m.extend_from_slice(&self.signature.to_bytes());
        m
    }

    fn shard_key(&self) -> Vec<u8> {
        // Partition by casting credential: a credential's revotes stay on
        // one shard.
        self.credential_pk.0.to_vec()
    }
}

/// The ballot sub-ledger L_V.
pub struct BallotLedger {
    log: TamperEvidentLog<BallotRecord>,
}

impl BallotLedger {
    fn new(operator: SigningKey, backend: LedgerBackend) -> Self {
        Self {
            log: TamperEvidentLog::with_backend(operator, backend),
        }
    }

    /// Posts ballots after checking their credential signatures (the
    /// PBB's syntactic admission check; semantic checks happen at tally):
    /// one committed RLC sweep over the batch on up to `threads` workers,
    /// whose [`SignatureSweep::check`] names the first offender, Merkle
    /// leaves hashed in parallel, one head re-publication for the whole
    /// batch. A single cast is a batch of one. All-or-nothing: every key
    /// is decoded before any signature is checked, so an undecodable key
    /// is the error even behind an earlier bad signature.
    pub fn post_batch(
        &mut self,
        records: Vec<BallotRecord>,
        threads: usize,
    ) -> Result<std::ops::Range<usize>, LedgerError> {
        let mut sweep = SignatureSweep::new(b"ledger-ballot-admission-v1");
        for r in &records {
            sweep.push(
                &r.credential_pk,
                BallotRecord::message(&r.payload),
                r.signature,
            )?;
        }
        sweep.check(threads)?;
        Ok(self.log.append_batch(records, threads))
    }

    /// All posted ballots.
    pub fn records(&self) -> &[BallotRecord] {
        self.log.records()
    }

    /// Number of posted ballots.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Returns `true` if no ballots were posted.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Signed tree head for auditors.
    pub fn tree_head(&self) -> TreeHead {
        self.log.tree_head()
    }

    /// Commit barrier (no-op on volatile backends): see
    /// [`TamperEvidentLog::persist`].
    pub fn persist(&mut self) -> Result<(), WalError> {
        self.log.persist()
    }

    /// Installs a deterministic write-layer fault schedule (chaos tests).
    pub fn install_fault_fs(&mut self, fault: FaultFs) {
        self.log.install_fault_fs(fault);
    }

    /// Durability counters for this sub-ledger.
    pub fn durability_stats(&self) -> DurabilityStats {
        self.log.durability_stats()
    }
}

/// The complete public bulletin board.
pub struct Ledger {
    /// Registration sub-ledger L_R.
    pub registration: RegistrationLedger,
    /// Envelope sub-ledger L_E.
    pub envelopes: EnvelopeLedger,
    /// Ballot sub-ledger L_V.
    pub ballots: BallotLedger,
}

impl Ledger {
    /// Creates the ledger for an electoral roll on the in-memory
    /// backend, generating operator keys.
    pub fn new(roster: Vec<VoterId>, rng: &mut dyn Rng) -> Self {
        Self::with_backend(roster, LedgerBackend::InMemory, rng)
    }

    /// Creates the ledger on the chosen storage backend. All three
    /// sub-ledgers share the backend choice; on a durable backend each
    /// sub-ledger gets its own subdirectory and reopening an existing
    /// directory replays the persisted history (operator keys are drawn
    /// from `rng` in creation order, so a seeded reopen regenerates the
    /// same signing identities).
    pub fn with_backend(roster: Vec<VoterId>, backend: LedgerBackend, rng: &mut dyn Rng) -> Self {
        Self {
            registration: RegistrationLedger::new(
                SigningKey::generate(rng),
                roster,
                backend.for_subledger("registration"),
            ),
            envelopes: EnvelopeLedger::new(
                SigningKey::generate(rng),
                backend.for_subledger("envelopes"),
            ),
            ballots: BallotLedger::new(SigningKey::generate(rng), backend.for_subledger("ballots")),
        }
    }

    /// The storage backend this ledger runs on.
    pub fn backend(&self) -> LedgerBackend {
        self.registration.backend()
    }

    /// Commit barrier across all three sub-ledgers (no-op on volatile
    /// backends): everything admitted so far is made durable and the
    /// signed heads are persisted. The first failing sub-ledger aborts
    /// the barrier typed (its store is poisoned; later barriers keep
    /// failing until restart).
    pub fn persist(&mut self) -> Result<(), WalError> {
        self.registration.persist()?;
        self.envelopes.persist()?;
        self.ballots.persist()?;
        Ok(())
    }

    /// Installs a deterministic write-layer fault schedule on all three
    /// sub-ledgers (chaos tests). Each sub-ledger gets its own clone of
    /// the schedule, so per-store write counters stay deterministic.
    pub fn install_fault_fs(&mut self, fault: FaultFs) {
        self.registration.install_fault_fs(fault.clone());
        self.envelopes.install_fault_fs(fault.clone());
        self.ballots.install_fault_fs(fault);
    }

    /// Aggregated durability counters across the sub-ledgers.
    pub fn durability_stats(&self) -> DurabilityStats {
        self.registration
            .durability_stats()
            .merge(&self.envelopes.durability_stats())
            .merge(&self.ballots.durability_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::elgamal;
    use vg_crypto::{EdwardsPoint, HmacDrbg};

    fn sample_record(
        voter: VoterId,
        kiosk: &SigningKey,
        official: &SigningKey,
        rng: &mut dyn Rng,
    ) -> RegistrationRecord {
        let pk = EdwardsPoint::mul_base(&rng.scalar());
        let m = EdwardsPoint::mul_base(&rng.scalar());
        let (c_pc, _) = elgamal::encrypt_point(&pk, &m, rng);
        let kiosk_sig = kiosk.sign(&RegistrationRecord::kiosk_message(voter, &c_pc));
        let official_sig = official.sign(&RegistrationRecord::official_message(
            voter, &c_pc, &kiosk_sig,
        ));
        RegistrationRecord {
            voter_id: voter,
            c_pc,
            kiosk_pk: kiosk.verifying_key().compress(),
            kiosk_sig,
            official_pk: official.verifying_key().compress(),
            official_sig,
        }
    }

    #[test]
    fn registration_supersede_semantics() {
        let mut rng = HmacDrbg::from_u64(1);
        let kiosk = SigningKey::generate(&mut rng);
        let official = SigningKey::generate(&mut rng);
        let roster = vec![VoterId(1), VoterId(2)];
        let mut ledger = Ledger::new(roster, &mut rng);

        let r1 = sample_record(VoterId(1), &kiosk, &official, &mut rng);
        let first_tag = r1.c_pc;
        ledger.registration.post_batch(vec![r1], 1).expect("posts");
        assert_eq!(ledger.registration.active_count(), 1);

        // Re-registration supersedes.
        let r2 = sample_record(VoterId(1), &kiosk, &official, &mut rng);
        let second_tag = r2.c_pc;
        ledger.registration.post_batch(vec![r2], 1).expect("posts");
        assert_eq!(ledger.registration.active_count(), 1);
        assert_eq!(ledger.registration.records().len(), 2);
        let active = ledger.registration.active_record(VoterId(1)).unwrap();
        assert_ne!(first_tag, second_tag);
        assert_eq!(active.c_pc, second_tag);
    }

    #[test]
    fn ineligible_voter_rejected() {
        let mut rng = HmacDrbg::from_u64(2);
        let kiosk = SigningKey::generate(&mut rng);
        let official = SigningKey::generate(&mut rng);
        let mut ledger = Ledger::new(vec![VoterId(1)], &mut rng);
        let r = sample_record(VoterId(99), &kiosk, &official, &mut rng);
        assert_eq!(
            ledger.registration.post_batch(vec![r], 1),
            Err(LedgerError::NotOnRoster)
        );
    }

    #[test]
    fn bad_kiosk_signature_rejected() {
        let mut rng = HmacDrbg::from_u64(3);
        let kiosk = SigningKey::generate(&mut rng);
        let official = SigningKey::generate(&mut rng);
        let mut ledger = Ledger::new(vec![VoterId(1)], &mut rng);
        let mut r = sample_record(VoterId(1), &kiosk, &official, &mut rng);
        // Swap in a signature over a different message.
        r.kiosk_sig = kiosk.sign(b"unrelated");
        assert!(matches!(
            ledger.registration.post_batch(vec![r], 1),
            Err(LedgerError::Crypto(_))
        ));
    }

    #[test]
    fn envelope_commit_and_reveal() {
        let mut rng = HmacDrbg::from_u64(4);
        let printer = SigningKey::generate(&mut rng);
        let mut ledger = Ledger::new(vec![], &mut rng);
        let e = rng.scalar();
        let h = challenge_hash(&e);
        let c = EnvelopeCommitment {
            printer_pk: printer.verifying_key().compress(),
            challenge_hash: h,
            signature: printer.sign(&EnvelopeCommitment::message(&h)),
        };
        ledger.envelopes.commit_batch(vec![c], 1).expect("commits");
        assert!(ledger.envelopes.is_committed(&h));
        ledger.envelopes.reveal_challenge(&e).expect("reveals");
        assert_eq!(ledger.envelopes.revealed_count(), 1);
        // Second reveal of the same challenge: duplicate detection.
        assert_eq!(
            ledger.envelopes.reveal_challenge(&e),
            Err(LedgerError::DuplicateChallenge)
        );
    }

    #[test]
    fn unknown_envelope_rejected() {
        let mut rng = HmacDrbg::from_u64(5);
        let mut ledger = Ledger::new(vec![], &mut rng);
        let e = rng.scalar();
        assert_eq!(
            ledger.envelopes.reveal_challenge(&e),
            Err(LedgerError::UnknownEnvelope)
        );
    }

    #[test]
    fn ballot_posting_checks_signature() {
        let mut rng = HmacDrbg::from_u64(6);
        let mut ledger = Ledger::new(vec![], &mut rng);
        let cred = SigningKey::generate(&mut rng);
        let payload = b"encrypted-ballot".to_vec();
        let signature = cred.sign(&BallotRecord::message(&payload));
        let rec = BallotRecord {
            credential_pk: cred.verifying_key().compress(),
            payload: payload.clone(),
            signature,
        };
        ledger.ballots.post_batch(vec![rec], 1).expect("posts");
        assert_eq!(ledger.ballots.len(), 1);

        // Tampered payload rejected.
        let bad = BallotRecord {
            credential_pk: cred.verifying_key().compress(),
            payload: b"tampered".to_vec(),
            signature,
        };
        assert!(ledger.ballots.post_batch(vec![bad], 1).is_err());
    }

    /// A point with a component of order 8.
    fn order_eight() -> EdwardsPoint {
        let inv8 = Scalar::from_u64(8).invert();
        (1u8..)
            .filter_map(|b| CompressedPoint([b; 32]).decompress())
            .map(|p| p - p.mul_by_cofactor() * inv8)
            .find(|t| !t.double().double().is_identity())
            .expect("some point has a component of order 8")
    }

    /// The scheme's Fiat–Shamir challenge e = H(R ‖ A ‖ M).
    fn challenge(r: &CompressedPoint, pk: &CompressedPoint, msg: &[u8]) -> Scalar {
        let hash = [&b"votegral-schnorr-v1"[..], &r.0, &pk.0, msg].concat();
        Scalar::from_bytes_mod_order(&vg_crypto::sha2::sha256(&hash))
    }

    /// How a test record's signature is made.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        Honest,
        /// s off by one.
        Forged,
        /// The key encoding is no curve point.
        Undecodable,
        /// A = a·B + T with T of order 8, and the nonce ground until
        /// R = k·B − e·T: s·B = R + e·A holds exactly.
        MixedKey,
        /// An honest key, and R = k·B + T with T of order 8:
        /// s·B = R + e·A − T holds only modulo E\[8\].
        ShiftedR,
    }

    /// The key encoding and signature a `kind` record carries for `msg`,
    /// `key` signing where the kind has an honest key.
    fn signed(
        kind: Kind,
        key: &SigningKey,
        msg: &[u8],
        rng: &mut dyn Rng,
    ) -> (CompressedPoint, Signature) {
        let pk = key.public_key_compressed();
        match kind {
            Kind::Honest => (pk, key.sign(msg)),
            Kind::Forged => {
                let mut sig = key.sign(msg);
                sig.s += Scalar::ONE;
                (pk, sig)
            }
            Kind::Undecodable => {
                let bad = (2u8..)
                    .map(|b| CompressedPoint([b; 32]))
                    .find(|c| c.decompress().is_none())
                    .expect("some y has no x");
                (bad, key.sign(msg))
            }
            Kind::MixedKey => {
                let t = order_eight();
                let a = rng.scalar();
                let pk = (EdwardsPoint::mul_base(&a) + t).compress();
                loop {
                    let k = rng.scalar();
                    for j in 0..8u8 {
                        let r = (EdwardsPoint::mul_base(&k) - t * Scalar::from_u64(j.into()))
                            .compress();
                        let e = challenge(&r, &pk, msg);
                        if e.to_bytes()[0] % 8 == j {
                            return (pk, Signature { r, s: k + e * a });
                        }
                    }
                }
            }
            Kind::ShiftedR => {
                let k = rng.scalar();
                let r = (EdwardsPoint::mul_base(&k) + order_eight()).compress();
                let e = challenge(&r, &pk, msg);
                let s = k + e * key.secret();
                (pk, Signature { r, s })
            }
        }
    }

    /// The keys a test stream's honest signatures are made with.
    struct Signers {
        kiosk: SigningKey,
        official: SigningKey,
        printer: SigningKey,
    }

    impl Signers {
        fn new(rng: &mut dyn Rng) -> Self {
            Self {
                kiosk: SigningKey::generate(rng),
                official: SigningKey::generate(rng),
                printer: SigningKey::generate(rng),
            }
        }

        /// An L_R record whose kiosk signature is of `kind`, countersigned
        /// honestly by the official.
        fn registration(
            &self,
            kind: Kind,
            voter: VoterId,
            rng: &mut dyn Rng,
        ) -> RegistrationRecord {
            let mut r = sample_record(voter, &self.kiosk, &self.official, rng);
            let msg = RegistrationRecord::kiosk_message(voter, &r.c_pc);
            (r.kiosk_pk, r.kiosk_sig) = signed(kind, &self.kiosk, &msg, rng);
            let msg = RegistrationRecord::official_message(voter, &r.c_pc, &r.kiosk_sig);
            r.official_sig = self.official.sign(&msg);
            r
        }

        /// An L_E commitment whose printer signature is of `kind`.
        fn envelope(&self, kind: Kind, rng: &mut dyn Rng) -> EnvelopeCommitment {
            let challenge_hash = challenge_hash(&rng.scalar());
            let msg = EnvelopeCommitment::message(&challenge_hash);
            let (printer_pk, signature) = signed(kind, &self.printer, &msg, rng);
            EnvelopeCommitment {
                printer_pk,
                challenge_hash,
                signature,
            }
        }

        /// An L_V ballot under a fresh credential, its signature of `kind`.
        fn ballot(&self, kind: Kind, rng: &mut dyn Rng) -> BallotRecord {
            let payload = rng.bytes32().to_vec();
            let credential = SigningKey::generate(rng);
            let msg = BallotRecord::message(&payload);
            let (credential_pk, signature) = signed(kind, &credential, &msg, rng);
            BallotRecord {
                credential_pk,
                payload,
                signature,
            }
        }
    }

    #[test]
    fn torsion_items_are_admitted_alone_and_in_batches() {
        // A mixed-order key, whose signature verifies exactly, and R
        // shifted by a point of order 8, whose equation holds only modulo
        // E[8]: each verifies alone and folds clean, in a sweep of one
        // and in L_R, L_E and L_V admission, one record and three.
        let mut rng = HmacDrbg::from_u64(8);
        let signers = Signers::new(&mut rng);
        let mut ledger = Ledger::new((1..=4).map(VoterId).collect(), &mut rng);
        for kind in [Kind::MixedKey, Kind::ShiftedR] {
            let msg = b"torsion".to_vec();
            let (pk, sig) = signed(kind, &signers.kiosk, &msg, &mut rng);
            let vk = VerifyingKey::from_compressed(&pk).expect("decodes");
            assert_eq!(vk.verify(&msg, &sig), Ok(()), "{kind:?}");
            let mut sweep = SignatureSweep::new(b"test-torsion-v1");
            sweep.push(&pk, msg, sig).unwrap();
            assert!(sweep.verify(1).is_ok(), "{kind:?}");
            assert_eq!(sweep.check(1), Ok(()), "{kind:?}");

            let three = [Kind::Honest, kind, Kind::Honest];
            let regs = (1..=3)
                .zip(three)
                .map(|(v, k)| signers.registration(k, VoterId(v), &mut rng))
                .collect();
            let alone = signers.registration(kind, VoterId(4), &mut rng);
            let posted = ledger.registration.post_batch(regs, 1);
            assert_eq!(posted.map(|r| r.len()), Ok(3), "L_R, {kind:?}");
            let posted = ledger.registration.post_batch(vec![alone], 1);
            assert_eq!(posted.map(|r| r.len()), Ok(1), "L_R, {kind:?}");

            let envs = three.map(|k| signers.envelope(k, &mut rng)).to_vec();
            let alone = signers.envelope(kind, &mut rng);
            let posted = ledger.envelopes.commit_batch(envs, 1);
            assert_eq!(posted.map(|r| r.len()), Ok(3), "L_E, {kind:?}");
            let posted = ledger.envelopes.commit_batch(vec![alone], 1);
            assert_eq!(posted.map(|r| r.len()), Ok(1), "L_E, {kind:?}");

            let ballots = three.map(|k| signers.ballot(k, &mut rng)).to_vec();
            let alone = signers.ballot(kind, &mut rng);
            let posted = ledger.ballots.post_batch(ballots, 1);
            assert_eq!(posted.map(|r| r.len()), Ok(3), "L_V, {kind:?}");
            let posted = ledger.ballots.post_batch(vec![alone], 1);
            assert_eq!(posted.map(|r| r.len()), Ok(1), "L_V, {kind:?}");
        }
    }

    /// Admits `stream` in batches of `sizes` (the last cut short), each
    /// refused batch again record by record, as the day's sequencer falls
    /// back: every record's verdict, in stream order.
    fn admit_partitioned<R: Clone>(
        ledger: &mut Ledger,
        stream: &[R],
        sizes: &[usize],
        admit: fn(&mut Ledger, Vec<R>) -> Result<std::ops::Range<usize>, LedgerError>,
    ) -> Vec<Result<(), LedgerError>> {
        let mut verdicts = Vec::with_capacity(stream.len());
        let mut rest = stream;
        for &size in sizes {
            let (batch, tail) = rest.split_at(size.min(rest.len()));
            rest = tail;
            if admit(ledger, batch.to_vec()).is_ok() {
                verdicts.extend(batch.iter().map(|_| Ok(())));
            } else {
                verdicts.extend(
                    batch
                        .iter()
                        .map(|r| admit(ledger, vec![r.clone()]).map(drop)),
                );
            }
        }
        verdicts
    }

    #[test]
    fn admission_verdicts_hold_under_every_partition() {
        // One stream of honest, forged, undecodable-key and torsioned
        // records (both kinds), admitted through L_R, L_E and L_V in
        // random batches of 1..=n: every record gets its own verdict, and
        // every ledger its (size, root), whatever the batches were.
        use Kind::*;
        const STREAM: [Kind; 10] = [
            Honest,
            ShiftedR,
            Forged,
            MixedKey,
            Honest,
            Undecodable,
            ShiftedR,
            Honest,
            MixedKey,
            ShiftedR,
        ];
        let n = STREAM.len();
        let mut rng = HmacDrbg::from_u64(11);
        let signers = Signers::new(&mut rng);
        let roster: Vec<VoterId> = (1..=n as u64).map(VoterId).collect();
        let regs: Vec<RegistrationRecord> = STREAM
            .iter()
            .zip(&roster)
            .map(|(&kind, &voter)| signers.registration(kind, voter, &mut rng))
            .collect();
        let envs: Vec<EnvelopeCommitment> = STREAM
            .iter()
            .map(|&k| signers.envelope(k, &mut rng))
            .collect();
        let ballots: Vec<BallotRecord> = STREAM
            .iter()
            .map(|&k| signers.ballot(k, &mut rng))
            .collect();
        let expected: Vec<Result<(), LedgerError>> = STREAM
            .iter()
            .map(|kind| match kind {
                Forged => Err(LedgerError::Crypto(CryptoError::BadSignature)),
                Undecodable => Err(LedgerError::Crypto(CryptoError::InvalidPoint)),
                _ => Ok(()),
            })
            .collect();

        let mut first = None;
        for case in 0..32 {
            let sizes: Vec<usize> = match case {
                0 => vec![1; n],
                1 => vec![n],
                _ => (0..n).map(|_| 1 + rng.next_u64() as usize % n).collect(),
            };
            let mut ledger = Ledger::new(roster.clone(), &mut HmacDrbg::from_u64(12));
            let verdicts = [
                admit_partitioned(&mut ledger, &regs, &sizes, |l, b| {
                    l.registration.post_batch(b, 1)
                }),
                admit_partitioned(&mut ledger, &envs, &sizes, |l, b| {
                    l.envelopes.commit_batch(b, 1)
                }),
                admit_partitioned(&mut ledger, &ballots, &sizes, |l, b| {
                    l.ballots.post_batch(b, 1)
                }),
            ];
            let heads = [
                ledger.registration.tree_head(),
                ledger.envelopes.tree_head(),
                ledger.ballots.tree_head(),
            ]
            .map(|h| (h.size, h.root));
            let outcome = (verdicts, heads);
            assert_eq!(
                first.get_or_insert(outcome.clone()),
                &outcome,
                "batches of {sizes:?}"
            );
        }
        // One record at a time, each kind gets its own verdict.
        let (verdicts, _) = first.expect("32 cases ran");
        for (name, verdicts) in ["L_R", "L_E", "L_V"].into_iter().zip(verdicts) {
            assert_eq!(verdicts, expected, "{name}");
        }
    }

    #[test]
    fn tree_heads_verify() {
        let mut rng = HmacDrbg::from_u64(7);
        let kiosk = SigningKey::generate(&mut rng);
        let official = SigningKey::generate(&mut rng);
        let mut ledger = Ledger::new(vec![VoterId(1)], &mut rng);
        let r = sample_record(VoterId(1), &kiosk, &official, &mut rng);
        ledger.registration.post_batch(vec![r], 1).expect("posts");
        let head = ledger.registration.tree_head();
        head.verify(&ledger.registration.operator_key())
            .expect("head verifies");
        assert_eq!(head.size, 1);
    }
}
