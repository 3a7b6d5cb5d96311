//! Pluggable storage backends for the tamper-evident logs.
//!
//! A [`LedgerStore`] owns a typed record sequence plus the Merkle
//! structure that authenticates it. Two backends are provided:
//!
//! - [`InMemoryStore`] — the seed's original layout: one flat Merkle log
//!   over the append order. Proofs are the plain RFC 6962 paths.
//! - [`ShardedStore`] — partitions the *Merkle* side across N shards by
//!   record key hash (records themselves stay in one insertion-ordered
//!   vector, so global indices and iteration are unchanged). Each shard
//!   is its own Merkle log; the published head root is a domain-separated
//!   rollup over the per-shard `(size, root)` pairs. Batch appends hash
//!   leaves in parallel via [`vg_crypto::par::par_map`] and touch each
//!   shard once, which is the layout a multi-node deployment partitions
//!   along (each shard maps to a storage node).
//!
//! Proof objects ([`InclusionProof`], [`ConsistencyProof`]) carry enough
//! backend-specific context to verify against a signed
//! [`TreeHead`] without access to the store, so auditors
//! stay backend-agnostic.

use std::ops::Range;
use std::path::PathBuf;

use crate::durable::{DurabilityStats, DurableRecord, DurableStore, FaultFs, WalError};
use crate::log::{Record, TreeHead};
use crate::merkle::{self, Hash, MerkleLog};
use vg_crypto::par::par_map;
use vg_crypto::sha2::Sha256;

/// Backend selection for ledger construction.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum LedgerBackend {
    /// One flat Merkle log (the seed's original layout).
    #[default]
    InMemory,
    /// Key-hash partitioning across `shards` Merkle logs with a rolled-up
    /// head. `shards` must be at least 1.
    Sharded {
        /// Number of partitions.
        shards: usize,
    },
    /// Crash-recoverable WAL-backed flat log rooted at `dir`
    /// ([`crate::durable::DurableStore`]): same commitment structure and
    /// roots as [`LedgerBackend::InMemory`], persisted event-before-state
    /// with group fsync at commit barriers when `fsync` is set.
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
    /// A sharded backend with a host-appropriate shard count.
    pub fn sharded(shards: usize) -> Self {
        LedgerBackend::Sharded {
            shards: shards.max(1),
        }
    }

    /// A durable backend rooted at `dir` with fsync at commit barriers.
    pub fn durable(dir: impl Into<PathBuf>) -> Self {
        LedgerBackend::Durable {
            dir: dir.into(),
            fsync: true,
        }
    }

    /// The backend a named sub-ledger should run on: durable directories
    /// get a per-sub-ledger subdirectory, the other backends are shared
    /// configuration.
    pub fn for_subledger(&self, name: &str) -> LedgerBackend {
        match self {
            LedgerBackend::Durable { dir, fsync } => LedgerBackend::Durable {
                dir: dir.join(name),
                fsync: *fsync,
            },
            other => other.clone(),
        }
    }

    /// Instantiates a store of this backend — empty for the in-memory
    /// backends, replayed from disk for [`LedgerBackend::Durable`]. The
    /// trait object is `Send + Sync` so a whole [`crate::Ledger`] can
    /// move behind a service boundary (the registrar server thread owns
    /// it). Fail-stop on an unreadable or corrupt durable directory.
    pub fn make_store<T: DurableRecord + Send + Sync + 'static>(
        &self,
    ) -> Box<dyn LedgerStore<T> + Send + Sync> {
        match self {
            LedgerBackend::InMemory => Box::new(InMemoryStore::new()),
            LedgerBackend::Sharded { shards } => Box::new(ShardedStore::new(*shards)),
            LedgerBackend::Durable { dir, fsync } => {
                Box::new(DurableStore::open(dir.clone(), *fsync).unwrap_or_else(|e| {
                    panic!("durable ledger open failed at {}: {e}", dir.display())
                }))
            }
        }
    }
}

/// Storage + authentication backend for one typed log.
pub trait LedgerStore<T: Record> {
    /// Appends one record, returning its global index.
    fn append(&mut self, record: T) -> usize;

    /// Appends a batch, hashing Merkle leaves with up to `threads`
    /// workers. Returns the global index range of the batch.
    fn append_batch(&mut self, records: Vec<T>, threads: usize) -> Range<usize>;

    /// Record at `index`, if present.
    fn get(&self, index: usize) -> Option<&T>;

    /// All records in append order.
    fn records(&self) -> &[T];

    /// Number of records.
    fn len(&self) -> usize;

    /// Returns `true` if the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current authenticated root (flat Merkle root or sharded
    /// rollup).
    fn root(&self) -> Hash;

    /// Inclusion proof for the record at `index` against the current
    /// root.
    fn prove_inclusion(&self, index: usize) -> InclusionProof;

    /// Consistency proof from the state at `old_size` records to now.
    fn prove_consistency(&self, old_size: usize) -> ConsistencyProof;

    /// Which backend this store is.
    fn backend(&self) -> LedgerBackend;

    /// Whether appends are persisted to stable storage (true only for
    /// [`crate::durable::DurableStore`]). Lets callers skip the head
    /// computation a [`persist`](LedgerStore::persist) barrier needs.
    fn is_durable(&self) -> bool {
        false
    }

    /// Commit barrier: make everything appended so far durable (group
    /// fsync) and persist the signed head. A no-op on volatile backends.
    /// On a durable backend an IO failure surfaces typed (and poisons the
    /// store) instead of panicking — see [`crate::durable::WalError`].
    fn persist(&mut self, head: &TreeHead) -> Result<(), WalError> {
        let _ = head;
        Ok(())
    }

    /// Installs a deterministic write-layer fault schedule (chaos tests);
    /// a no-op on volatile backends.
    fn install_fault_fs(&mut self, fault: FaultFs) {
        let _ = fault;
    }

    /// Durability counters (all zero on volatile backends).
    fn durability_stats(&self) -> DurabilityStats {
        DurabilityStats::default()
    }

    /// Appends an opaque side frame to the record log (the envelope
    /// ledger's reveals), durable at the next barrier like a record. A
    /// no-op on volatile backends; a write failure poisons the store.
    fn append_side(&mut self, payload: &[u8]) -> Result<(), WalError> {
        let _ = payload;
        Ok(())
    }

    /// The side frames replayed at open, in log order; handed back once.
    fn take_side_frames(&mut self) -> Vec<Vec<u8>> {
        Vec::new()
    }
}

/// Domain-separated rollup root over per-shard `(size, root)` heads.
pub fn sharded_root(shard_heads: &[(u64, Hash)]) -> Hash {
    let mut h = Sha256::new();
    h.update(b"vg-sharded-root-v1");
    h.update(&(shard_heads.len() as u64).to_le_bytes());
    for (size, root) in shard_heads {
        h.update(&size.to_le_bytes());
        h.update(root);
    }
    h.finalize()
}

/// The shard a record with `key` belongs to, out of `n_shards`.
pub fn shard_of(key: &[u8], n_shards: usize) -> usize {
    let mut h = Sha256::new();
    h.update(b"vg-shard-key-v1");
    h.update(key);
    let digest = h.finalize();
    let mut first = [0u8; 8];
    first.copy_from_slice(&digest[..8]);
    (u64::from_le_bytes(first) % n_shards as u64) as usize
}

/// Leaf encoding used by the sharded backend: the global index is bound
/// into the leaf so entries cannot be re-ordered across shards.
fn sharded_leaf(global_index: usize, canonical: &[u8]) -> Hash {
    let mut data = Vec::with_capacity(canonical.len() + 8);
    data.extend_from_slice(&(global_index as u64).to_le_bytes());
    data.extend_from_slice(canonical);
    merkle::leaf_hash(&data)
}

/// A backend-tagged inclusion proof, verifiable against a signed head.
#[derive(Clone, Debug)]
pub enum InclusionProof {
    /// RFC 6962 audit path in a flat log.
    Flat {
        /// Sibling hashes, leaf level upward.
        path: Vec<Hash>,
    },
    /// Audit path within one shard, plus the full set of shard heads the
    /// rollup commits to.
    ///
    /// Trust note: the flat backend structurally guarantees one record
    /// per global index (the index is a tree position). Here the global
    /// index is bound *inside* the leaf, so a malicious operator
    /// hand-building shard logs could commit two leaves in different
    /// shards claiming the same global index; catching that requires a
    /// cross-shard audit of the full logs (the same full-audit bar CT
    /// logs have), not a single proof check. The provided
    /// [`ShardedStore`] never produces such heads; deployments wanting
    /// per-proof index uniqueness should run the flat backend for the
    /// auditor-facing replica.
    Sharded {
        /// The shard holding the record (the verifier recomputes this
        /// from the record's key).
        shard: usize,
        /// The record's index within its shard.
        index_in_shard: usize,
        /// Audit path within the shard.
        path: Vec<Hash>,
        /// `(size, root)` of every shard at proof time.
        shard_heads: Vec<(u64, Hash)>,
    },
}

impl InclusionProof {
    /// Verifies that `record` sits at global `index` under a head with
    /// the given root and size.
    pub fn verify<T: Record>(
        &self,
        head_root: &Hash,
        head_size: u64,
        record: &T,
        index: usize,
    ) -> bool {
        match self {
            InclusionProof::Flat { path } => {
                let leaf = merkle::leaf_hash(&record.canonical_bytes());
                merkle::verify_inclusion(head_root, &leaf, index, head_size as usize, path)
            }
            InclusionProof::Sharded {
                shard,
                index_in_shard,
                path,
                shard_heads,
            } => {
                if shard_heads.is_empty() || *shard >= shard_heads.len() {
                    return false;
                }
                // The claimed global index must lie inside the head.
                if index as u64 >= head_size {
                    return false;
                }
                // The record's key must map to the claimed shard.
                if shard_of(&record.shard_key(), shard_heads.len()) != *shard {
                    return false;
                }
                // The shard heads must add up to the signed rollup.
                let total: u64 = shard_heads.iter().map(|(n, _)| n).sum();
                if total != head_size || sharded_root(shard_heads) != *head_root {
                    return false;
                }
                let (shard_size, shard_root) = shard_heads[*shard];
                let leaf = sharded_leaf(index, &record.canonical_bytes());
                merkle::verify_inclusion(
                    &shard_root,
                    &leaf,
                    *index_in_shard,
                    shard_size as usize,
                    path,
                )
            }
        }
    }
}

/// One shard's contribution to a sharded consistency proof.
#[derive(Clone, Debug)]
pub struct ShardConsistency {
    /// Shard size at the old snapshot.
    pub old_size: u64,
    /// Shard root at the old snapshot.
    pub old_root: Hash,
    /// Shard size now.
    pub new_size: u64,
    /// Shard root now.
    pub new_root: Hash,
    /// RFC 6962 consistency path between the two (empty when the shard
    /// was empty at the snapshot).
    pub path: Vec<Hash>,
}

/// A backend-tagged consistency proof between two signed heads.
#[derive(Clone, Debug)]
pub enum ConsistencyProof {
    /// RFC 6962 consistency path in a flat log.
    Flat {
        /// Sibling hashes as produced by the prover.
        path: Vec<Hash>,
    },
    /// Per-shard consistency, bound to both rollup roots.
    Sharded {
        /// One entry per shard, in shard order.
        shards: Vec<ShardConsistency>,
    },
}

impl ConsistencyProof {
    /// Verifies append-only growth from `(old_root, old_size)` to
    /// `(new_root, new_size)`.
    pub fn verify(&self, old_root: &Hash, old_size: u64, new_root: &Hash, new_size: u64) -> bool {
        match self {
            ConsistencyProof::Flat { path } => merkle::verify_consistency(
                old_root,
                old_size as usize,
                new_root,
                new_size as usize,
                path,
            ),
            ConsistencyProof::Sharded { shards } => {
                let old_heads: Vec<(u64, Hash)> =
                    shards.iter().map(|s| (s.old_size, s.old_root)).collect();
                let new_heads: Vec<(u64, Hash)> =
                    shards.iter().map(|s| (s.new_size, s.new_root)).collect();
                let old_total: u64 = old_heads.iter().map(|(n, _)| n).sum();
                let new_total: u64 = new_heads.iter().map(|(n, _)| n).sum();
                if old_total != old_size || new_total != new_size {
                    return false;
                }
                if sharded_root(&old_heads) != *old_root || sharded_root(&new_heads) != *new_root {
                    return false;
                }
                shards.iter().all(|s| {
                    merkle::verify_consistency(
                        &s.old_root,
                        s.old_size as usize,
                        &s.new_root,
                        s.new_size as usize,
                        &s.path,
                    )
                })
            }
        }
    }
}

/// The seed's flat single-log backend.
pub struct InMemoryStore<T> {
    records: Vec<T>,
    merkle: MerkleLog,
}

impl<T> InMemoryStore<T> {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self {
            records: Vec::new(),
            merkle: MerkleLog::new(),
        }
    }
}

impl<T> Default for InMemoryStore<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Record + Sync> LedgerStore<T> for InMemoryStore<T> {
    fn append(&mut self, record: T) -> usize {
        let idx = self.merkle.append(&record.canonical_bytes());
        self.records.push(record);
        idx
    }

    fn append_batch(&mut self, records: Vec<T>, threads: usize) -> Range<usize> {
        let leaves = par_map(&records, threads, |r| {
            merkle::leaf_hash(&r.canonical_bytes())
        });
        let range = self.merkle.append_leaves(&leaves);
        self.records.extend(records);
        range
    }

    fn get(&self, index: usize) -> Option<&T> {
        self.records.get(index)
    }

    fn records(&self) -> &[T] {
        &self.records
    }

    fn len(&self) -> usize {
        self.records.len()
    }

    fn root(&self) -> Hash {
        self.merkle.root()
    }

    fn prove_inclusion(&self, index: usize) -> InclusionProof {
        InclusionProof::Flat {
            path: self.merkle.inclusion_proof(index, self.records.len()),
        }
    }

    fn prove_consistency(&self, old_size: usize) -> ConsistencyProof {
        ConsistencyProof::Flat {
            path: self.merkle.consistency_proof(old_size),
        }
    }

    fn backend(&self) -> LedgerBackend {
        LedgerBackend::InMemory
    }
}

/// Key-hash partitioned backend: one Merkle log per shard, records kept
/// in one insertion-ordered vector.
pub struct ShardedStore<T> {
    records: Vec<T>,
    /// Per global index: `(shard, index within shard)`.
    locate: Vec<(u32, u32)>,
    shards: Vec<MerkleLog>,
}

impl<T> ShardedStore<T> {
    /// Creates an empty store with `n_shards` partitions (at least 1).
    pub fn new(n_shards: usize) -> Self {
        let n = n_shards.max(1);
        Self {
            records: Vec::new(),
            locate: Vec::new(),
            shards: (0..n).map(|_| MerkleLog::new()).collect(),
        }
    }

    fn shard_heads(&self) -> Vec<(u64, Hash)> {
        self.shards
            .iter()
            .map(|s| (s.len() as u64, s.root()))
            .collect()
    }
}

impl<T: Record + Sync> LedgerStore<T> for ShardedStore<T> {
    fn append(&mut self, record: T) -> usize {
        let global = self.records.len();
        let shard = shard_of(&record.shard_key(), self.shards.len());
        let leaf = sharded_leaf(global, &record.canonical_bytes());
        let in_shard = self.shards[shard].append_leaf(leaf);
        self.locate.push((shard as u32, in_shard as u32));
        self.records.push(record);
        global
    }

    fn append_batch(&mut self, records: Vec<T>, threads: usize) -> Range<usize> {
        let start = self.records.len();
        let n_shards = self.shards.len();
        // The expensive parts — canonical encoding, shard-key hashing and
        // leaf hashing — fan out across threads; the per-shard appends
        // are cheap binary-counter updates done sequentially.
        let placed: Vec<(usize, Hash)> = {
            let indexed: Vec<(usize, &T)> = records
                .iter()
                .enumerate()
                .map(|(i, r)| (start + i, r))
                .collect();
            par_map(&indexed, threads, |(global, r)| {
                (
                    shard_of(&r.shard_key(), n_shards),
                    sharded_leaf(*global, &r.canonical_bytes()),
                )
            })
        };
        for (shard, leaf) in placed {
            let in_shard = self.shards[shard].append_leaf(leaf);
            self.locate.push((shard as u32, in_shard as u32));
        }
        self.records.extend(records);
        start..self.records.len()
    }

    fn get(&self, index: usize) -> Option<&T> {
        self.records.get(index)
    }

    fn records(&self) -> &[T] {
        &self.records
    }

    fn len(&self) -> usize {
        self.records.len()
    }

    fn root(&self) -> Hash {
        sharded_root(&self.shard_heads())
    }

    fn prove_inclusion(&self, index: usize) -> InclusionProof {
        let (shard, in_shard) = self.locate[index];
        let shard = shard as usize;
        let in_shard = in_shard as usize;
        InclusionProof::Sharded {
            shard,
            index_in_shard: in_shard,
            path: self.shards[shard].inclusion_proof(in_shard, self.shards[shard].len()),
            shard_heads: self.shard_heads(),
        }
    }

    fn prove_consistency(&self, old_size: usize) -> ConsistencyProof {
        assert!(old_size <= self.records.len(), "bad consistency range");
        // Reconstruct each shard's size at the global snapshot.
        let mut old_sizes = vec![0u64; self.shards.len()];
        for (shard, _) in &self.locate[..old_size] {
            old_sizes[*shard as usize] += 1;
        }
        let shards = self
            .shards
            .iter()
            .zip(old_sizes.iter())
            .map(|(log, &old)| ShardConsistency {
                old_size: old,
                old_root: log.root_of(old as usize),
                new_size: log.len() as u64,
                new_root: log.root(),
                path: if old == 0 {
                    Vec::new()
                } else {
                    log.consistency_proof(old as usize)
                },
            })
            .collect();
        ConsistencyProof::Sharded { shards }
    }

    fn backend(&self) -> LedgerBackend {
        LedgerBackend::Sharded {
            shards: self.shards.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::WalError;

    struct Note(u64);

    impl Record for Note {
        fn canonical_bytes(&self) -> Vec<u8> {
            self.0.to_le_bytes().to_vec()
        }

        fn shard_key(&self) -> Vec<u8> {
            // Spread by value so different notes land on different shards.
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

    fn notes(n: u64) -> Vec<Note> {
        (0..n).map(Note).collect()
    }

    #[test]
    fn backends_keep_identical_record_order() {
        let mut flat = InMemoryStore::new();
        let mut sharded = ShardedStore::new(4);
        for r in notes(40) {
            flat.append(r);
        }
        sharded.append_batch(notes(40), 2);
        assert_eq!(flat.len(), sharded.len());
        for i in 0..40 {
            assert_eq!(flat.get(i).unwrap().0, sharded.get(i).unwrap().0);
        }
    }

    #[test]
    fn batch_equals_sequential_per_backend() {
        // The two durable stores must not share a directory (a shared
        // directory would replay rather than build independently).
        for (a, b) in [
            (LedgerBackend::InMemory, LedgerBackend::InMemory),
            (LedgerBackend::sharded(3), LedgerBackend::sharded(3)),
            (durable_backend("one"), durable_backend("many")),
        ] {
            let mut one: Box<dyn LedgerStore<Note> + Send + Sync> = a.make_store();
            let mut many: Box<dyn LedgerStore<Note> + Send + Sync> = b.make_store();
            for r in notes(25) {
                one.append(r);
            }
            let range = many.append_batch(notes(25), 4);
            assert_eq!(range, 0..25);
            assert_eq!(one.root(), many.root(), "{a:?}");
        }
    }

    #[test]
    fn sharded_inclusion_proofs_verify() {
        let mut store = ShardedStore::new(4);
        store.append_batch(notes(23), 2);
        let root = store.root();
        for i in 0..23usize {
            let proof = store.prove_inclusion(i);
            assert!(proof.verify(&root, 23, &Note(i as u64), i), "index {i}");
            // Wrong record fails (wrong shard or wrong leaf).
            assert!(!proof.verify(&root, 23, &Note(99), i));
            // A claimed index outside the head fails even with a valid
            // in-shard path.
            assert!(!proof.verify(&root, 23, &Note(i as u64), i + 23));
        }
    }

    #[test]
    fn sharded_consistency_verifies_and_detects_tamper() {
        let mut store = ShardedStore::new(4);
        store.append_batch(notes(9), 1);
        let old_root = store.root();
        store.append_batch((9..30).map(Note).collect(), 1);
        let new_root = store.root();
        let proof = store.prove_consistency(9);
        assert!(proof.verify(&old_root, 9, &new_root, 30));

        // A different history of the same length does not chain.
        let mut forged = ShardedStore::new(4);
        forged.append_batch((100..130u64).map(Note).collect(), 1);
        let forged_proof = forged.prove_consistency(9);
        assert!(!forged_proof.verify(&old_root, 9, &forged.root(), 30));
    }

    #[test]
    fn single_shard_store_full_proof_cycle() {
        // The degenerate 1-shard configuration must still produce valid
        // backend-tagged proofs (it is sharded-by-structure even though
        // every record lands in shard 0).
        let mut store = ShardedStore::new(1);
        assert_eq!(store.backend(), LedgerBackend::Sharded { shards: 1 });
        let old_root = store.root();
        store.append_batch(notes(11), 2);
        let root = store.root();
        for i in 0..11usize {
            let proof = store.prove_inclusion(i);
            assert!(proof.verify(&root, 11, &Note(i as u64), i), "index {i}");
            if let InclusionProof::Sharded { shard, .. } = &proof {
                assert_eq!(*shard, 0);
            } else {
                panic!("sharded store must emit sharded proofs");
            }
        }
        let consistency = store.prove_consistency(0);
        assert!(consistency.verify(&old_root, 0, &root, 11));
    }

    #[test]
    fn empty_append_batch_is_a_noop() {
        for backend in [
            LedgerBackend::InMemory,
            LedgerBackend::sharded(4),
            durable_backend("empty-batch"),
        ] {
            let mut store: Box<dyn LedgerStore<Note> + Send + Sync> = backend.make_store();
            store.append_batch(notes(7), 2);
            let root_before = store.root();
            let range = store.append_batch(Vec::new(), 4);
            assert_eq!(range, 7..7, "{backend:?}");
            assert_eq!(store.len(), 7);
            assert_eq!(store.root(), root_before, "{backend:?}: root must not move");
            // The store remains fully provable afterwards.
            let proof = store.prove_inclusion(6);
            assert!(proof.verify(&store.root(), 7, &Note(6), 6));
        }
    }

    #[test]
    fn proof_index_at_exact_head_boundary() {
        let mut store = ShardedStore::new(4);
        store.append_batch(notes(16), 1);
        let root = store.root();
        // The last record (index head_size − 1) verifies…
        let proof = store.prove_inclusion(15);
        assert!(proof.verify(&root, 16, &Note(15), 15));
        // …but the same proof claiming index == head_size (one past the
        // boundary) is rejected even though the in-shard path is valid.
        assert!(!proof.verify(&root, 16, &Note(15), 16));
        // A head one record short also rejects: the shard heads no longer
        // add up to the claimed size.
        assert!(!proof.verify(&root, 15, &Note(15), 15));

        // Same boundary discipline on the flat backend.
        let mut flat = InMemoryStore::new();
        for r in notes(16) {
            flat.append(r);
        }
        let root = flat.root();
        let proof = flat.prove_inclusion(15);
        assert!(proof.verify(&root, 16, &Note(15), 15));
        assert!(!proof.verify(&root, 16, &Note(15), 16));
    }

    #[test]
    fn cross_backend_proofs_rejected() {
        // The same 12 records committed under both backends.
        let mut flat = InMemoryStore::new();
        let mut sharded = ShardedStore::new(4);
        for r in notes(12) {
            flat.append(r);
        }
        for r in notes(12) {
            sharded.append(r);
        }
        for i in 0..12usize {
            // A flat proof never verifies against the sharded rollup root…
            let flat_proof = flat.prove_inclusion(i);
            assert!(flat_proof.verify(&flat.root(), 12, &Note(i as u64), i));
            assert!(
                !flat_proof.verify(&sharded.root(), 12, &Note(i as u64), i),
                "flat proof {i} accepted by sharded root"
            );
            // …and a sharded proof never verifies against the flat root.
            let sharded_proof = sharded.prove_inclusion(i);
            assert!(sharded_proof.verify(&sharded.root(), 12, &Note(i as u64), i));
            assert!(
                !sharded_proof.verify(&flat.root(), 12, &Note(i as u64), i),
                "sharded proof {i} accepted by flat root"
            );
        }
        // Consistency proofs are backend-bound the same way.
        let mut flat2 = InMemoryStore::new();
        let mut sharded2 = ShardedStore::new(4);
        for r in notes(5) {
            flat2.append(r);
        }
        for r in notes(5) {
            sharded2.append(r);
        }
        let flat_old = flat2.root();
        let sharded_old = sharded2.root();
        for r in (5..12u64).map(Note) {
            flat2.append(r);
        }
        for r in (5..12u64).map(Note) {
            sharded2.append(r);
        }
        let flat_proof = flat2.prove_consistency(5);
        let sharded_proof = sharded2.prove_consistency(5);
        assert!(flat_proof.verify(&flat_old, 5, &flat2.root(), 12));
        assert!(sharded_proof.verify(&sharded_old, 5, &sharded2.root(), 12));
        assert!(!flat_proof.verify(&sharded_old, 5, &sharded2.root(), 12));
        assert!(!sharded_proof.verify(&flat_old, 5, &flat2.root(), 12));
    }

    #[test]
    fn flat_and_sharded_roots_differ_but_both_commit() {
        let mut flat = InMemoryStore::new();
        let mut sharded = ShardedStore::new(4);
        for r in notes(10) {
            flat.append(r);
        }
        for r in notes(10) {
            sharded.append(r);
        }
        // Different commitment structures…
        assert_ne!(flat.root(), sharded.root());
        // …but both notice any mutation.
        let mut sharded2 = ShardedStore::new(4);
        for i in 0..10u64 {
            sharded2.append(Note(if i == 3 { 77 } else { i }));
        }
        assert_ne!(sharded.root(), sharded2.root());
    }
}
