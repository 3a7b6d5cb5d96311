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
use vg_crypto::par::par_map;
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

/// Runs one committed RLC signature sweep
/// ([`vg_crypto::schnorr::SignatureSweep`] — the weights commit to every
/// key, message and signature the fold checks, keeping batched admission
/// deterministic and grind-resistant), falling back to the per-item
/// checker to locate the offender (and surface its precise error) when
/// the fold rejects.
fn batched_signature_sweep<R: Record + Sync>(
    sweep: &SignatureSweep,
    records: &[R],
    threads: usize,
    per_item: impl Fn(&R) -> Result<(), LedgerError> + Sync,
) -> Result<(), LedgerError> {
    if sweep.verify(threads).is_ok() {
        return Ok(());
    }
    for check in par_map(records, threads, &per_item) {
        check?;
    }
    // The fold rejected but every item passes individually: a negligible-
    // probability RLC false negative, or (far more likely) a torsioned
    // but verifying R component. Per-item acceptance is authoritative.
    Ok(())
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

    /// Checks the signature chain of one record (Fig 10's ledger-side
    /// admission rule), without mutating anything.
    fn check_record(record: &RegistrationRecord) -> Result<(), LedgerError> {
        let kiosk_vk = VerifyingKey::from_compressed(&record.kiosk_pk)?;
        kiosk_vk.verify(
            &RegistrationRecord::kiosk_message(record.voter_id, &record.c_pc),
            &record.kiosk_sig,
        )?;
        let official_vk = VerifyingKey::from_compressed(&record.official_pk)?;
        official_vk.verify(
            &RegistrationRecord::official_message(record.voter_id, &record.c_pc, &record.kiosk_sig),
            &record.official_sig,
        )?;
        Ok(())
    }

    /// The electoral roll.
    pub fn roster(&self) -> &[VoterId] {
        &self.roster
    }

    /// Returns `true` if the voter is eligible.
    pub fn is_eligible(&self, voter: VoterId) -> bool {
        self.roster_set.contains_key(&voter)
    }

    /// Posts a registration record (check-out, Fig 10). Any prior record
    /// for the same voter is superseded.
    pub fn post(&mut self, record: RegistrationRecord) -> Result<usize, LedgerError> {
        if !self.is_eligible(record.voter_id) {
            return Err(LedgerError::NotOnRoster);
        }
        // The ledger checks the signature chain before accepting.
        Self::check_record(&record)?;
        let voter = record.voter_id;
        let idx = self.log.append(record);
        self.active.insert(voter, idx);
        Ok(idx)
    }

    /// Posts a batch of registration records, verifying signature chains
    /// through one random-linear-combination fold ([`vg_crypto::schnorr::
    /// batch_verify_par`]; 2 records and up) and appending through the
    /// backend's batch fast path. All-or-nothing: any invalid record
    /// rejects the whole batch before the ledger is touched, with the
    /// per-record checker re-run to surface the offender's precise error.
    /// Supersede semantics apply in input order.
    ///
    /// The fold's weights are derived from a hash committing to the whole
    /// batch, so replays are bit-identical; a submitter grinding records
    /// against the fold is the classical RLC residual risk, and auditors
    /// (and the per-record [`RegistrationLedger::post`] path) always
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
    /// one committed RLC admission sweep over the batch (2 records and
    /// up; per-record checks below that), touching no ledger state.
    ///
    /// An associated function: it needs no ledger. Eligibility is *not*
    /// checked here because the roster lives with the ledger. `pub`
    /// beside [`RegistrationLedger::post_batch_preverified`] because
    /// `bench/e2e`'s re-enactment and layer probes time the two halves
    /// separately; the registrar itself calls
    /// [`RegistrationLedger::post_batch`].
    pub fn verify_batch(records: &[RegistrationRecord], threads: usize) -> Result<(), LedgerError> {
        if records.len() < 2 {
            for check in par_map(records, threads, Self::check_record) {
                check?;
            }
            return Ok(());
        }
        let mut vk_cache = vg_crypto::schnorr::VerifyingKeyCache::new();
        let mut sweep = SignatureSweep::new(b"ledger-reg-admission-v1");
        for record in records {
            sweep.push(
                vk_cache.get(&record.kiosk_pk)?,
                RegistrationRecord::kiosk_message(record.voter_id, &record.c_pc),
                record.kiosk_sig,
            );
            sweep.push(
                vk_cache.get(&record.official_pk)?,
                RegistrationRecord::official_message(
                    record.voter_id,
                    &record.c_pc,
                    &record.kiosk_sig,
                ),
                record.official_sig,
            );
        }
        batched_signature_sweep(&sweep, records, threads, Self::check_record)
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

    /// Checks one commitment's printer signature.
    fn check_commitment(commitment: &EnvelopeCommitment) -> Result<(), LedgerError> {
        let printer = VerifyingKey::from_compressed(&commitment.printer_pk)?;
        printer.verify(
            &EnvelopeCommitment::message(&commitment.challenge_hash),
            &commitment.signature,
        )?;
        Ok(())
    }

    /// Records a printer's envelope commitment at setup.
    pub fn commit(&mut self, commitment: EnvelopeCommitment) -> Result<usize, LedgerError> {
        Self::check_commitment(&commitment)?;
        let h = commitment.challenge_hash;
        let idx = self.log.append(commitment);
        self.by_hash.insert(h, idx);
        Ok(idx)
    }

    /// Records a batch of commitments (setup stocks hundreds of
    /// thousands of envelopes at once; Fig 7 line 5, and the ceremony
    /// pool's batched refills). All-or-nothing on signature failure;
    /// printer signatures are checked through one RLC fold with the same
    /// weight derivation and fallback as
    /// [`RegistrationLedger::post_batch`].
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
        if commitments.len() < 2 {
            for check in par_map(commitments, threads, Self::check_commitment) {
                check?;
            }
            return Ok(());
        }
        let mut vk_cache = vg_crypto::schnorr::VerifyingKeyCache::new();
        let mut sweep = SignatureSweep::new(b"ledger-env-admission-v1");
        for c in commitments {
            sweep.push(
                vk_cache.get(&c.printer_pk)?,
                EnvelopeCommitment::message(&c.challenge_hash),
                c.signature,
            );
        }
        batched_signature_sweep(&sweep, commitments, threads, Self::check_commitment)
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

    /// Checks one ballot's credential signature.
    fn check_record(record: &BallotRecord) -> Result<(), LedgerError> {
        let vk = VerifyingKey::from_compressed(&record.credential_pk)?;
        vk.verify(&BallotRecord::message(&record.payload), &record.signature)?;
        Ok(())
    }

    /// Posts a ballot after checking its credential signature (the PBB's
    /// syntactic admission check; semantic checks happen at tally).
    pub fn post(&mut self, record: BallotRecord) -> Result<usize, LedgerError> {
        Self::check_record(&record)?;
        Ok(self.log.append(record))
    }

    /// Posts a batch of ballots: signatures verified with up to
    /// `threads` workers, Merkle leaves hashed in parallel, one head
    /// re-publication for the whole batch. This is the election-day
    /// ingestion fast path. All-or-nothing on signature failure.
    pub fn post_batch(
        &mut self,
        records: Vec<BallotRecord>,
        threads: usize,
    ) -> Result<std::ops::Range<usize>, LedgerError> {
        let checks = par_map(&records, threads, Self::check_record);
        for check in checks {
            check?;
        }
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
        ledger.registration.post(r1).expect("posts");
        assert_eq!(ledger.registration.active_count(), 1);

        // Re-registration supersedes.
        let r2 = sample_record(VoterId(1), &kiosk, &official, &mut rng);
        let second_tag = r2.c_pc;
        ledger.registration.post(r2).expect("posts");
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
        assert_eq!(ledger.registration.post(r), Err(LedgerError::NotOnRoster));
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
            ledger.registration.post(r),
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
        ledger.envelopes.commit(c).expect("commits");
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
        ledger.ballots.post(rec).expect("posts");
        assert_eq!(ledger.ballots.len(), 1);

        // Tampered payload rejected.
        let bad = BallotRecord {
            credential_pk: cred.verifying_key().compress(),
            payload: b"tampered".to_vec(),
            signature,
        };
        assert!(ledger.ballots.post(bad).is_err());
    }

    #[test]
    fn tree_heads_verify() {
        let mut rng = HmacDrbg::from_u64(7);
        let kiosk = SigningKey::generate(&mut rng);
        let official = SigningKey::generate(&mut rng);
        let mut ledger = Ledger::new(vec![VoterId(1)], &mut rng);
        let r = sample_record(VoterId(1), &kiosk, &official, &mut rng);
        ledger.registration.post(r).expect("posts");
        let head = ledger.registration.tree_head();
        head.verify(&ledger.registration.operator_key())
            .expect("head verifies");
        assert_eq!(head.size, 1);
    }
}
