//! Generic tamper-evident logs with signed tree heads.
//!
//! A [`TamperEvidentLog`] couples a typed record store (any
//! [`crate::store::LedgerStore`] backend) with operator-signed tree
//! heads. Appends return the entry index; auditors fetch [`TreeHead`]s
//! and verify backend-tagged inclusion/consistency proofs against them.
//! The paper idealizes the ledger as globally consistent (Appendix D.1);
//! signed tree heads are how a deployment distributes that trust, so we
//! model them explicitly.

use crate::durable::{DurabilityStats, DurableRecord, FaultFs, WalError};
use crate::merkle::Hash;
use crate::store::{ConsistencyProof, InclusionProof, LedgerBackend, LedgerStore};
use vg_crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use vg_crypto::CryptoError;

/// A record that has a canonical (hashable, signable) byte encoding.
pub trait Record {
    /// Serializes the record into an injective canonical form.
    fn canonical_bytes(&self) -> Vec<u8>;

    /// The partition key a sharded backend hashes to place this record.
    /// Defaults to the full canonical encoding; records with a natural
    /// key (voter id, credential key, challenge hash) override this so
    /// related records co-locate.
    fn shard_key(&self) -> Vec<u8> {
        self.canonical_bytes()
    }
}

/// A signed snapshot of the log: (size, root) under the operator's key.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TreeHead {
    /// Number of entries covered.
    pub size: u64,
    /// Authenticated root over the first `size` entries (flat Merkle
    /// root or sharded rollup, per the log's backend).
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

    /// Verifies the operator signature.
    pub fn verify(&self, operator: &VerifyingKey) -> Result<(), CryptoError> {
        operator.verify(&Self::message(self.size, &self.root), &self.signature)
    }
}

/// An append-only, tamper-evident, typed log over a pluggable backend.
pub struct TamperEvidentLog<T: Record> {
    store: Box<dyn LedgerStore<T> + Send + Sync>,
    operator: SigningKey,
}

impl<T: DurableRecord + Send + Sync + 'static> TamperEvidentLog<T> {
    /// Creates a log on the chosen backend — empty for the volatile
    /// backends, replayed from disk for [`LedgerBackend::Durable`].
    pub fn with_backend(operator: SigningKey, backend: LedgerBackend) -> Self {
        Self {
            store: backend.make_store(),
            operator,
        }
    }
}

impl<T: Record> TamperEvidentLog<T> {
    /// Appends a record, returning its index: a batch of one.
    pub fn append(&mut self, record: T) -> usize {
        self.append_batch(vec![record], 1).start
    }

    /// Appends a batch of records, hashing Merkle leaves with up to
    /// `threads` workers. Returns the index range of the batch.
    pub fn append_batch(&mut self, records: Vec<T>, threads: usize) -> std::ops::Range<usize> {
        self.store.append_batch(records, threads)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Returns `true` if the log is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Immutable view of the records.
    pub fn records(&self) -> &[T] {
        self.store.records()
    }

    /// Record at `index`, if present.
    pub fn get(&self, index: usize) -> Option<&T> {
        self.store.get(index)
    }

    /// The backend this log runs on.
    pub fn backend(&self) -> LedgerBackend {
        self.store.backend()
    }

    /// Issues a signed tree head for the current state.
    pub fn tree_head(&self) -> TreeHead {
        let size = self.store.len() as u64;
        let root = self.store.root();
        let signature = self.operator.sign(&TreeHead::message(size, &root));
        TreeHead {
            size,
            root,
            signature,
        }
    }

    /// The operator's public key, for auditors.
    pub fn operator_key(&self) -> VerifyingKey {
        self.operator.verifying_key()
    }

    /// Inclusion proof for the entry at `index` against the current head.
    pub fn prove_inclusion(&self, index: usize) -> InclusionProof {
        self.store.prove_inclusion(index)
    }

    /// Consistency proof from an earlier size to the current head.
    pub fn prove_consistency(&self, old_size: usize) -> ConsistencyProof {
        self.store.prove_consistency(old_size)
    }

    /// Commit barrier on a durable backend: group-fsyncs outstanding
    /// appends, then persists the current signed tree head (records
    /// always reach stable storage before the head that covers them). A
    /// no-op on the volatile backends — callers can invoke it
    /// unconditionally at flush points. An IO failure surfaces typed
    /// (and poisons the backing store) instead of panicking.
    pub fn persist(&mut self) -> Result<(), WalError> {
        if self.store.is_durable() {
            let head = self.tree_head();
            self.store.persist(&head)?;
        }
        Ok(())
    }

    /// Installs a deterministic write-layer fault schedule on a durable
    /// backend (chaos tests); a no-op on volatile backends.
    pub fn install_fault_fs(&mut self, fault: FaultFs) {
        self.store.install_fault_fs(fault);
    }

    /// Durability counters (all zero on volatile backends).
    pub fn durability_stats(&self) -> DurabilityStats {
        self.store.durability_stats()
    }

    /// Appends the side frame `frame` builds, on a durable backend only
    /// ([`LedgerStore::append_side`]).
    pub(crate) fn append_side(&mut self, frame: impl FnOnce() -> Vec<u8>) -> Result<(), WalError> {
        if !self.store.is_durable() {
            return Ok(());
        }
        self.store.append_side(&frame())
    }

    /// The side frames replayed at open ([`LedgerStore::take_side_frames`]).
    pub(crate) fn take_side_frames(&mut self) -> Vec<Vec<u8>> {
        self.store.take_side_frames()
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
        for backend in [
            LedgerBackend::InMemory,
            LedgerBackend::sharded(4),
            durable_backend("prove"),
        ] {
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
            (LedgerBackend::sharded(4), LedgerBackend::sharded(4)),
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
        for backend in [
            LedgerBackend::InMemory,
            LedgerBackend::sharded(3),
            durable_backend("consistency"),
        ] {
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
