//! Generic tamper-evident logs with signed tree heads.
//!
//! A [`TamperEvidentLog`] keeps a typed record sequence, the flat Merkle
//! tree that authenticates it and, on a durable backend, the write-ahead
//! side that persists both ([`crate::durable`]), and signs its tree heads
//! with the operator's key. Appends return the entry index; auditors fetch
//! [`TreeHead`]s and verify inclusion and consistency proofs against
//! them. The paper idealizes the ledger as globally consistent
//! (Appendix D.1); signed tree heads are how a deployment distributes
//! that trust, so we model them explicitly.

use std::ops::Range;

use crate::durable::{DurabilityStats, DurableRecord, FaultFs, Wal, WalError};
use crate::merkle::{self, Hash, MerkleLog};
use crate::store::{ConsistencyProof, InclusionProof, LedgerBackend};
use vg_crypto::par::par_map;
use vg_crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use vg_crypto::CryptoError;

/// A record that has a canonical (hashable, signable) byte encoding.
pub trait Record {
    /// Serializes the record into an injective canonical form.
    fn canonical_bytes(&self) -> Vec<u8>;
}

/// A signed snapshot of the log: (size, root) under the operator's key.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TreeHead {
    /// Number of entries covered.
    pub size: u64,
    /// Merkle root over the first `size` entries.
    pub root: Hash,
    /// Operator signature over `size ‖ root`.
    pub signature: Signature,
}

impl TreeHead {
    fn message(size: u64, root: &Hash) -> Vec<u8> {
        let mut m = Vec::with_capacity(48);
        m.extend_from_slice(b"votegral-tree-head-v1");
        m.extend_from_slice(&size.to_le_bytes());
        m.extend_from_slice(root);
        m
    }

    fn sign(operator: &SigningKey, size: u64, root: Hash) -> Self {
        let signature = operator.sign(&Self::message(size, &root));
        TreeHead {
            size,
            root,
            signature,
        }
    }

    /// Verifies the operator signature.
    pub fn verify(&self, operator: &VerifyingKey) -> Result<(), CryptoError> {
        operator.verify(&Self::message(self.size, &self.root), &self.signature)
    }
}

/// An append-only, tamper-evident, typed log, in memory or written ahead
/// to disk.
pub struct TamperEvidentLog<T: Record> {
    records: Vec<T>,
    merkle: MerkleLog,
    /// The write-ahead side on [`LedgerBackend::Durable`]; `None` in
    /// memory.
    pub(crate) wal: Option<Wal>,
    operator: SigningKey,
}

impl<T: DurableRecord> TamperEvidentLog<T> {
    /// Creates a log on the chosen backend: empty in memory, replayed
    /// from disk for [`LedgerBackend::Durable`]. Fail-stop on an
    /// unreadable or corrupt durable directory.
    pub fn with_backend(operator: SigningKey, backend: LedgerBackend) -> Self {
        match backend {
            LedgerBackend::InMemory => Self {
                records: Vec::new(),
                merkle: MerkleLog::new(),
                wal: None,
                operator,
            },
            LedgerBackend::Durable { dir, fsync } => Self::open(operator, dir.clone(), fsync)
                .unwrap_or_else(|e| panic!("durable ledger open failed at {}: {e}", dir.display())),
        }
    }

    /// A durable log on `dir`, replayed from disk; an unreadable or
    /// corrupt directory is a typed error.
    pub(crate) fn open(
        operator: SigningKey,
        dir: std::path::PathBuf,
        fsync: bool,
    ) -> Result<Self, WalError> {
        let (wal, records, merkle) = Wal::open(dir, fsync)?;
        Ok(Self {
            records,
            merkle,
            wal: Some(wal),
            operator,
        })
    }
}

impl<T: Record + Sync> TamperEvidentLog<T> {
    /// Appends a record, returning its index: a batch of one.
    pub fn append(&mut self, record: T) -> usize {
        self.append_batch(vec![record], 1).start
    }

    /// Appends a batch of records, hashing Merkle leaves with up to
    /// `threads` workers. Returns the index range of the batch. In memory
    /// each record's encoding is dropped once hashed; a durable log
    /// writes it ahead of the tree ([`crate::durable`]).
    pub fn append_batch(&mut self, records: Vec<T>, threads: usize) -> Range<usize> {
        if let Some(wal) = &mut self.wal {
            return wal.append_batch(&mut self.merkle, &mut self.records, records, threads);
        }
        let leaves = par_map(&records, threads, |r| {
            merkle::leaf_hash(&r.canonical_bytes())
        });
        let range = self.merkle.append_leaves(&leaves);
        self.records.extend(records);
        range
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Immutable view of the records.
    pub fn records(&self) -> &[T] {
        &self.records
    }

    /// Record at `index`, if present.
    pub fn get(&self, index: usize) -> Option<&T> {
        self.records.get(index)
    }

    /// Issues a signed tree head for the current state.
    pub fn tree_head(&self) -> TreeHead {
        TreeHead::sign(
            &self.operator,
            self.records.len() as u64,
            self.merkle.root(),
        )
    }

    /// The operator's public key, for auditors.
    pub fn operator_key(&self) -> VerifyingKey {
        self.operator.verifying_key()
    }

    /// Inclusion proof for the entry at `index` against the current head.
    pub fn prove_inclusion(&self, index: usize) -> InclusionProof {
        InclusionProof {
            path: self.merkle.inclusion_proof(index, self.records.len()),
        }
    }

    /// Consistency proof from an earlier size to the current head.
    pub fn prove_consistency(&self, old_size: usize) -> ConsistencyProof {
        ConsistencyProof {
            path: self.merkle.consistency_proof(old_size),
        }
    }

    /// Commit barrier on a durable backend: group-fsyncs outstanding
    /// appends, then persists the current signed tree head (records
    /// always reach stable storage before the head that covers them). A
    /// no-op in memory — callers can invoke it unconditionally at flush
    /// points. An IO failure surfaces typed (and poisons the write-ahead
    /// log) instead of panicking.
    pub fn persist(&mut self) -> Result<(), WalError> {
        let Some(wal) = &mut self.wal else {
            return Ok(());
        };
        wal.persist(&TreeHead::sign(
            &self.operator,
            self.records.len() as u64,
            self.merkle.root(),
        ))
    }

    /// Installs a deterministic write-layer fault schedule on a durable
    /// backend (chaos tests); a no-op in memory.
    pub fn install_fault_fs(&mut self, fault: FaultFs) {
        if let Some(wal) = &mut self.wal {
            wal.install_fault_fs(fault);
        }
    }

    /// Durability counters (all zero in memory).
    pub fn durability_stats(&self) -> DurabilityStats {
        self.wal.as_ref().map(Wal::stats).unwrap_or_default()
    }

    /// Appends the side frame `frame` builds to the record log, on a
    /// durable backend only: durable at the next barrier like a record,
    /// and a write failure poisons the log.
    pub(crate) fn append_side(&mut self, frame: impl FnOnce() -> Vec<u8>) -> Result<(), WalError> {
        match &mut self.wal {
            Some(wal) => wal.append_side(&frame()),
            None => Ok(()),
        }
    }

    /// The side frames replayed at open, in log order; handed back once.
    pub(crate) fn take_side_frames(&mut self) -> Vec<Vec<u8>> {
        self.wal
            .as_mut()
            .map(Wal::take_side_frames)
            .unwrap_or_default()
    }

    /// Verifies that `record` is included at `index` under `head`.
    pub fn verify_inclusion(
        head: &TreeHead,
        record: &T,
        index: usize,
        proof: &InclusionProof,
    ) -> bool {
        proof.verify(&head.root, head.size, record, index)
    }

    /// Verifies append-only growth between two heads.
    pub fn verify_consistency(old: &TreeHead, new: &TreeHead, proof: &ConsistencyProof) -> bool {
        verify_consistency_heads(old, new, proof)
    }
}

/// Verifies append-only growth between two tree heads (free function for
/// callers that don't want to name the log's record type).
pub fn verify_consistency_heads(old: &TreeHead, new: &TreeHead, proof: &ConsistencyProof) -> bool {
    proof.verify(&old.root, old.size, &new.root, new.size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::HmacDrbg;

    struct Note(String);

    impl Record for Note {
        fn canonical_bytes(&self) -> Vec<u8> {
            self.0.as_bytes().to_vec()
        }
    }

    impl DurableRecord for Note {
        fn decode_canonical(bytes: &[u8]) -> Result<Self, crate::durable::WalError> {
            String::from_utf8(bytes.to_vec())
                .map(Note)
                .map_err(|_| crate::durable::WalError::Corrupt("note is not utf-8"))
        }
    }

    fn durable_backend(tag: &str) -> LedgerBackend {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vg-log-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        LedgerBackend::Durable { dir, fsync: false }
    }

    fn new_log_on(backend: LedgerBackend) -> TamperEvidentLog<Note> {
        let mut rng = HmacDrbg::from_u64(1);
        TamperEvidentLog::with_backend(SigningKey::generate(&mut rng), backend)
    }

    fn new_log() -> TamperEvidentLog<Note> {
        new_log_on(LedgerBackend::InMemory)
    }

    #[test]
    fn append_and_prove_on_all_backends() {
        for backend in [LedgerBackend::InMemory, durable_backend("prove")] {
            let mut log = new_log_on(backend.clone());
            for i in 0..10 {
                log.append(Note(format!("n{i}")));
            }
            let head = log.tree_head();
            head.verify(&log.operator_key()).expect("head verifies");
            for i in 0..10 {
                let proof = log.prove_inclusion(i);
                assert!(
                    TamperEvidentLog::verify_inclusion(&head, &Note(format!("n{i}")), i, &proof),
                    "{backend:?} index {i}"
                );
            }
        }
    }

    #[test]
    fn batch_append_head_matches_sequential() {
        for (a, b) in [
            (LedgerBackend::InMemory, LedgerBackend::InMemory),
            (durable_backend("batch-one"), durable_backend("batch-many")),
        ] {
            let mut one = new_log_on(a.clone());
            let mut many = new_log_on(b);
            for i in 0..33 {
                one.append(Note(format!("n{i}")));
            }
            many.append_batch((0..33).map(|i| Note(format!("n{i}"))).collect(), 4);
            assert_eq!(one.tree_head().root, many.tree_head().root, "{a:?}");
        }
    }

    #[test]
    fn persist_and_reopen_round_trips_through_the_log_layer() {
        let backend = durable_backend("log-reopen");
        let head = {
            let mut log = new_log_on(backend.clone());
            for i in 0..12 {
                log.append(Note(format!("n{i}")));
            }
            log.persist().expect("persist");
            assert_eq!(log.durability_stats().heads_persisted, 1);
            log.tree_head()
        };
        // Same operator seed → the reopened log verifies its own heads.
        let log = new_log_on(backend);
        assert_eq!(log.len(), 12);
        assert_eq!(log.tree_head().root, head.root);
        head.verify(&log.operator_key()).expect("head verifies");
    }

    #[test]
    fn inclusion_fails_for_absent_record() {
        let mut log = new_log();
        log.append(Note("a".into()));
        log.append(Note("b".into()));
        let head = log.tree_head();
        let proof = log.prove_inclusion(0);
        assert!(!TamperEvidentLog::verify_inclusion(
            &head,
            &Note("z".into()),
            0,
            &proof
        ));
    }

    #[test]
    fn consistency_across_appends_on_both_backends() {
        for backend in [LedgerBackend::InMemory, durable_backend("consistency")] {
            let mut log = new_log_on(backend.clone());
            log.append(Note("a".into()));
            log.append(Note("b".into()));
            let old = log.tree_head();
            log.append(Note("c".into()));
            log.append(Note("d".into()));
            let new = log.tree_head();
            let proof = log.prove_consistency(old.size as usize);
            assert!(
                TamperEvidentLog::<Note>::verify_consistency(&old, &new, &proof),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn forged_head_rejected() {
        let mut rng = HmacDrbg::from_u64(9);
        let log = new_log();
        let mut head = log.tree_head();
        head.size += 1;
        assert!(head.verify(&log.operator_key()).is_err());
        // A head signed by a different operator also fails.
        let other = SigningKey::generate(&mut rng);
        let head2 = log.tree_head();
        assert!(head2.verify(&other.verifying_key()).is_err());
    }
}
