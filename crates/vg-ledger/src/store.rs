//! Backend selection and the proof objects of the tamper-evident logs.
//!
//! Every log is one flat RFC 6962 Merkle tree over its append order, held
//! in memory and, on [`LedgerBackend::Durable`], written ahead to disk
//! ([`crate::durable`]). The backend changes where the records live, never
//! what is committed: both backends reach the same roots, heads and
//! proofs for the same records. Proof objects ([`InclusionProof`],
//! [`ConsistencyProof`]) verify against a signed [`crate::TreeHead`]
//! without access to the log, so auditors need no backend at all.

use std::path::PathBuf;

use crate::log::Record;
use crate::merkle::{self, Hash};

/// Backend selection for ledger construction.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum LedgerBackend {
    /// The log lives in memory only.
    #[default]
    InMemory,
    /// Crash-recoverable write-ahead log rooted at `dir`
    /// ([`crate::durable`]): the same tree and roots as
    /// [`LedgerBackend::InMemory`], persisted event-before-state with
    /// group fsync at commit barriers when `fsync` is set.
    Durable {
        /// Directory holding the record log, persisted heads and
        /// snapshot (one subdirectory per sub-ledger at the
        /// [`crate::Ledger`] level).
        dir: PathBuf,
        /// Whether commit barriers issue `fsync` (durability against
        /// machine crashes; without it the log still survives process
        /// kills).
        fsync: bool,
    },
}

impl LedgerBackend {
    /// [`LedgerBackend::InMemory`], whatever `shards` says: the log has
    /// one layout. Kept only because the frozen benchmark adapter
    /// (`bench/e2e/src/adapter.rs`) calls it; ROADMAP item 1's deletion
    /// PR removes it.
    pub fn sharded(_shards: usize) -> Self {
        LedgerBackend::InMemory
    }

    /// A durable backend rooted at `dir` with fsync at commit barriers.
    pub fn durable(dir: impl Into<PathBuf>) -> Self {
        LedgerBackend::Durable {
            dir: dir.into(),
            fsync: true,
        }
    }

    /// The backend a named sub-ledger should run on: durable directories
    /// get a per-sub-ledger subdirectory, the in-memory backend is shared
    /// configuration.
    pub fn for_subledger(&self, name: &str) -> LedgerBackend {
        match self {
            LedgerBackend::Durable { dir, fsync } => LedgerBackend::Durable {
                dir: dir.join(name),
                fsync: *fsync,
            },
            LedgerBackend::InMemory => LedgerBackend::InMemory,
        }
    }
}

/// An inclusion proof, verifiable against a signed head.
#[derive(Clone, Debug)]
pub struct InclusionProof {
    /// RFC 6962 audit path: sibling hashes, leaf level upward.
    pub path: Vec<Hash>,
}

impl InclusionProof {
    /// Verifies that `record` sits at `index` under a head with the given
    /// root and size.
    pub fn verify<T: Record>(
        &self,
        head_root: &Hash,
        head_size: u64,
        record: &T,
        index: usize,
    ) -> bool {
        let leaf = merkle::leaf_hash(&record.canonical_bytes());
        merkle::verify_inclusion(head_root, &leaf, index, head_size as usize, &self.path)
    }
}

/// A consistency proof between two signed heads.
#[derive(Clone, Debug)]
pub struct ConsistencyProof {
    /// RFC 6962 consistency path, as produced by the prover.
    pub path: Vec<Hash>,
}

impl ConsistencyProof {
    /// Verifies append-only growth from `(old_root, old_size)` to
    /// `(new_root, new_size)`.
    pub fn verify(&self, old_root: &Hash, old_size: u64, new_root: &Hash, new_size: u64) -> bool {
        merkle::verify_consistency(
            old_root,
            old_size as usize,
            new_root,
            new_size as usize,
            &self.path,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{DurableRecord, WalError};
    use crate::log::TamperEvidentLog;
    use vg_crypto::schnorr::SigningKey;
    use vg_crypto::HmacDrbg;

    struct Note(u64);

    impl Record for Note {
        fn canonical_bytes(&self) -> Vec<u8> {
            self.0.to_le_bytes().to_vec()
        }
    }

    impl DurableRecord for Note {
        fn decode_canonical(bytes: &[u8]) -> Result<Self, WalError> {
            let arr: [u8; 8] = bytes
                .try_into()
                .map_err(|_| WalError::Corrupt("bad note length"))?;
            Ok(Note(u64::from_le_bytes(arr)))
        }
    }

    fn durable_backend(tag: &str) -> LedgerBackend {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vg-store-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        LedgerBackend::Durable { dir, fsync: false }
    }

    fn log_on(backend: LedgerBackend) -> TamperEvidentLog<Note> {
        TamperEvidentLog::with_backend(SigningKey::generate(&mut HmacDrbg::from_u64(3)), backend)
    }

    fn root(log: &TamperEvidentLog<Note>) -> Hash {
        log.tree_head().root
    }

    fn notes(n: u64) -> Vec<Note> {
        (0..n).map(Note).collect()
    }

    /// `sharded(n)` is a stand-in for the in-memory backend, so what the
    /// benchmark adapter times under its name is the flat append.
    #[test]
    fn sharded_is_the_in_memory_backend() {
        assert_eq!(LedgerBackend::sharded(4), LedgerBackend::InMemory);
        let mut flat = log_on(LedgerBackend::InMemory);
        let mut stand_in = log_on(LedgerBackend::sharded(4));
        flat.append_batch(notes(40), 1);
        stand_in.append_batch(notes(40), 2);
        assert_eq!(root(&stand_in), root(&flat));
    }

    #[test]
    fn backends_keep_identical_record_order() {
        let mut flat = log_on(LedgerBackend::InMemory);
        let mut durable = log_on(durable_backend("order"));
        for r in notes(40) {
            flat.append_batch(vec![r], 1);
        }
        durable.append_batch(notes(40), 2);
        assert_eq!(flat.len(), durable.len());
        for i in 0..40 {
            assert_eq!(flat.get(i).unwrap().0, durable.get(i).unwrap().0);
        }
    }

    #[test]
    fn batch_equals_sequential_per_backend() {
        // The two durable logs must not share a directory (a shared
        // directory would replay rather than build independently).
        for (a, b) in [
            (LedgerBackend::InMemory, LedgerBackend::InMemory),
            (durable_backend("one"), durable_backend("many")),
        ] {
            let mut one = log_on(a.clone());
            let mut many = log_on(b);
            for r in notes(25) {
                one.append_batch(vec![r], 1);
            }
            let range = many.append_batch(notes(25), 4);
            assert_eq!(range, 0..25);
            assert_eq!(root(&one), root(&many), "{a:?}");
        }
    }

    #[test]
    fn empty_append_batch_is_a_noop() {
        for backend in [LedgerBackend::InMemory, durable_backend("empty-batch")] {
            let mut log = log_on(backend.clone());
            log.append_batch(notes(7), 2);
            let root_before = root(&log);
            let range = log.append_batch(Vec::new(), 4);
            assert_eq!(range, 7..7, "{backend:?}");
            assert_eq!(log.len(), 7);
            assert_eq!(root(&log), root_before, "{backend:?}: root must not move");
            // The log remains fully provable afterwards.
            let proof = log.prove_inclusion(6);
            assert!(proof.verify(&root(&log), 7, &Note(6), 6));
        }
    }

    #[test]
    fn proof_index_at_exact_head_boundary() {
        let mut log = log_on(LedgerBackend::InMemory);
        log.append_batch(notes(16), 1);
        let root = root(&log);
        // The last record (index head_size − 1) verifies…
        let proof = log.prove_inclusion(15);
        assert!(proof.verify(&root, 16, &Note(15), 15));
        // …but the same proof claiming index == head_size (one past the
        // boundary) is rejected…
        assert!(!proof.verify(&root, 16, &Note(15), 16));
        // …and so is a head one record short.
        assert!(!proof.verify(&root, 15, &Note(15), 15));
    }
}
