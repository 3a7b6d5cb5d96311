//! Append-only Merkle tree with inclusion and consistency proofs.
//!
//! This is the tamper-evident log of Crosby–Wallach \[32\] in its widely
//! deployed RFC 6962 formulation: leaves are hashed with a `0x00` prefix,
//! interior nodes with `0x01` (preventing second-preimage confusion), the
//! split point is the largest power of two below the subtree size, and both
//! proof kinds are verified by structural recursion so the verifier code
//! mirrors the prover code line for line.

use vg_crypto::sha2::Sha256;

/// A 32-byte Merkle hash.
pub type Hash = [u8; 32];

/// Hashes a leaf entry (domain-separated).
pub fn leaf_hash(data: &[u8]) -> Hash {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(data);
    h.finalize()
}

/// Hashes an interior node (domain-separated).
pub fn node_hash(left: &Hash, right: &Hash) -> Hash {
    #[cfg(test)]
    tests::NODE_HASHES.with(|n| n.set(n.get() + 1));
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left);
    h.update(right);
    h.finalize()
}

/// The hash of the empty tree.
pub fn empty_root() -> Hash {
    Sha256::new().finalize()
}

/// Largest power of two strictly less than `n` (n ≥ 2).
fn split_point(n: usize) -> usize {
    debug_assert!(n >= 2);
    let mut k = 1usize;
    while k * 2 < n {
        k *= 2;
    }
    k
}

/// An append-only Merkle log over pre-hashed leaves.
///
/// The log keeps every interior node of the maximal perfect subtrees of
/// the current tree — one 32-byte node per record beside its leaf.
/// Appends carry like a binary counter (amortized O(1) hashes), and any
/// aligned perfect range is answered by lookup, so roots (current and
/// historical), inclusion paths and consistency proofs all cost
/// O(log n) hashes instead of recomputing the tree. This is what makes
/// per-append signed tree heads and per-voter proofs affordable on a
/// live bulletin board.
#[derive(Clone, Default)]
pub struct MerkleLog {
    /// `levels[h][i]` is the root of leaves `[i·2^h, (i+1)·2^h)`;
    /// `levels[0]` is the leaf vector.
    levels: Vec<Vec<Hash>>,
}

impl MerkleLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// Returns `true` if the log has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The leaf hash at `index`, if present.
    pub(crate) fn leaf(&self, index: usize) -> Option<&Hash> {
        self.levels.first()?.get(index)
    }

    /// Appends an entry, returning its index.
    pub fn append(&mut self, data: &[u8]) -> usize {
        self.append_leaf(leaf_hash(data))
    }

    /// Appends a pre-hashed leaf, returning its index. The hash must be a
    /// domain-separated [`leaf_hash`] (batch pipelines compute these in
    /// parallel before appending).
    pub fn append_leaf(&mut self, leaf: Hash) -> usize {
        // Binary-counter carry: a node that completes a pair is hashed
        // with its left sibling into the level above.
        let mut node = leaf;
        for height in 0.. {
            if height == self.levels.len() {
                self.levels.push(Vec::new());
            }
            let level = &mut self.levels[height];
            level.push(node);
            if level.len() % 2 == 1 {
                break;
            }
            node = node_hash(&level[level.len() - 2], &node);
        }
        self.len() - 1
    }

    /// Appends a batch of pre-hashed leaves, returning the index range.
    pub fn append_leaves(&mut self, leaves: &[Hash]) -> std::ops::Range<usize> {
        let start = self.len();
        for leaf in leaves {
            self.append_leaf(*leaf);
        }
        start..self.len()
    }

    /// The current tree head.
    pub fn root(&self) -> Hash {
        self.root_of(self.len())
    }

    /// The tree head after the first `size` entries.
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds the log length.
    pub fn root_of(&self, size: usize) -> Hash {
        assert!(size <= self.len(), "size beyond log length");
        if size == 0 {
            return empty_root();
        }
        self.subtree_root(0, size)
    }

    /// The RFC 6962 root of leaves `[lo, lo + n)`: a stored node where
    /// the range is an aligned perfect subtree — every left child of the
    /// recursion is — and one hash per level down the right edge where
    /// it is not.
    fn subtree_root(&self, lo: usize, n: usize) -> Hash {
        if n.is_power_of_two() && lo.is_multiple_of(n) {
            return self.levels[n.trailing_zeros() as usize][lo / n];
        }
        let k = split_point(n);
        node_hash(&self.subtree_root(lo, k), &self.subtree_root(lo + k, n - k))
    }

    /// Builds the inclusion (audit) path for `index` within the first
    /// `size` entries, sibling hashes from leaf level upward.
    ///
    /// # Panics
    ///
    /// Panics if `index >= size` or `size` exceeds the log length.
    pub fn inclusion_proof(&self, index: usize, size: usize) -> Vec<Hash> {
        assert!(index < size && size <= self.len(), "bad proof range");
        let mut path = Vec::new();
        self.path(0, size, index, &mut path);
        path
    }

    fn path(&self, lo: usize, n: usize, index: usize, out: &mut Vec<Hash>) {
        if n == 1 {
            return;
        }
        let k = split_point(n);
        if index < k {
            self.path(lo, k, index, out);
            out.push(self.subtree_root(lo + k, n - k));
        } else {
            self.path(lo + k, n - k, index - k, out);
            out.push(self.subtree_root(lo, k));
        }
    }

    /// Builds a consistency proof between the tree of size `old_size` and
    /// the current tree.
    ///
    /// # Panics
    ///
    /// Panics if `old_size` is zero or exceeds the log length.
    pub fn consistency_proof(&self, old_size: usize) -> Vec<Hash> {
        assert!(
            old_size >= 1 && old_size <= self.len(),
            "bad consistency range"
        );
        let mut proof = Vec::new();
        self.subproof(0, self.len(), old_size, true, &mut proof);
        proof
    }

    fn subproof(&self, lo: usize, n: usize, m: usize, complete: bool, out: &mut Vec<Hash>) {
        if m == n {
            if !complete {
                out.push(self.subtree_root(lo, n));
            }
            return;
        }
        let k = split_point(n);
        if m <= k {
            self.subproof(lo, k, m, complete, out);
            out.push(self.subtree_root(lo + k, n - k));
        } else {
            self.subproof(lo + k, n - k, m - k, false, out);
            out.push(self.subtree_root(lo, k));
        }
    }
}

/// Verifies an inclusion proof: does `leaf` sit at `index` in the tree of
/// `size` leaves with head `root`?
pub fn verify_inclusion(
    root: &Hash,
    leaf: &Hash,
    index: usize,
    size: usize,
    proof: &[Hash],
) -> bool {
    if index >= size || size == 0 {
        return false;
    }
    match reconstruct_root(leaf, index, size, proof) {
        Some(r) => r == *root,
        None => false,
    }
}

fn reconstruct_root(leaf: &Hash, index: usize, size: usize, proof: &[Hash]) -> Option<Hash> {
    if size == 1 {
        return if proof.is_empty() { Some(*leaf) } else { None };
    }
    let (rest, last) = proof.split_last().map(|(l, r)| (r, l))?;
    let k = split_point(size);
    if index < k {
        let left = reconstruct_root(leaf, index, k, rest)?;
        Some(node_hash(&left, last))
    } else {
        let right = reconstruct_root(leaf, index - k, size - k, rest)?;
        Some(node_hash(last, &right))
    }
}

/// Verifies a consistency proof between heads `(old_root, old_size)` and
/// `(new_root, new_size)`.
pub fn verify_consistency(
    old_root: &Hash,
    old_size: usize,
    new_root: &Hash,
    new_size: usize,
    proof: &[Hash],
) -> bool {
    if old_size == 0 {
        // The empty tree is a prefix of everything; no proof required.
        return proof.is_empty() && *old_root == empty_root();
    }
    if old_size > new_size {
        return false;
    }
    if old_size == new_size {
        return proof.is_empty() && old_root == new_root;
    }
    match reconstruct_consistency(old_root, old_size, new_size, true, proof) {
        Some((o, n)) => o == *old_root && n == *new_root,
        None => false,
    }
}

/// Reconstructs (old_root, new_root) from a consistency proof, consuming
/// sibling hashes from the end (mirroring `subproof`).
fn reconstruct_consistency(
    old_root: &Hash,
    m: usize,
    n: usize,
    complete: bool,
    proof: &[Hash],
) -> Option<(Hash, Hash)> {
    if m == n {
        return if complete {
            if proof.is_empty() {
                Some((*old_root, *old_root))
            } else {
                None
            }
        } else {
            let (rest, last) = proof.split_last().map(|(l, r)| (r, l))?;
            if rest.is_empty() {
                Some((*last, *last))
            } else {
                None
            }
        };
    }
    let (rest, last) = proof.split_last().map(|(l, r)| (r, l))?;
    let k = split_point(n);
    if m <= k {
        let (o, nw) = reconstruct_consistency(old_root, m, k, complete, rest)?;
        Some((o, node_hash(&nw, last)))
    } else {
        let (o, nw) = reconstruct_consistency(old_root, m - k, n - k, false, rest)?;
        Some((node_hash(last, &o), node_hash(last, &nw)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize) -> MerkleLog {
        let mut log = MerkleLog::new();
        for i in 0..n {
            log.append(format!("entry-{i}").as_bytes());
        }
        log
    }

    #[test]
    fn empty_and_single() {
        let log = MerkleLog::new();
        assert_eq!(log.root(), empty_root());
        let log = build(1);
        assert_eq!(log.root(), leaf_hash(b"entry-0"));
    }

    #[test]
    fn inclusion_all_sizes() {
        for n in 1..=20 {
            let log = build(n);
            let root = log.root();
            for i in 0..n {
                let proof = log.inclusion_proof(i, n);
                let leaf = leaf_hash(format!("entry-{i}").as_bytes());
                assert!(verify_inclusion(&root, &leaf, i, n, &proof), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn inclusion_rejects_wrong_leaf() {
        let log = build(8);
        let root = log.root();
        let proof = log.inclusion_proof(3, 8);
        let wrong = leaf_hash(b"entry-4");
        assert!(!verify_inclusion(&root, &wrong, 3, 8, &proof));
    }

    #[test]
    fn inclusion_rejects_wrong_index() {
        let log = build(8);
        let root = log.root();
        let proof = log.inclusion_proof(3, 8);
        let leaf = leaf_hash(b"entry-3");
        assert!(!verify_inclusion(&root, &leaf, 4, 8, &proof));
        // A proof never verifies against the head of a different tree;
        // the (size, root) pair is bound together by the signed tree head.
        let other_root = log.root_of(7);
        assert!(!verify_inclusion(&other_root, &leaf, 3, 7, &proof));
    }

    #[test]
    fn inclusion_rejects_truncated_proof() {
        let log = build(8);
        let root = log.root();
        let mut proof = log.inclusion_proof(3, 8);
        proof.pop();
        let leaf = leaf_hash(b"entry-3");
        assert!(!verify_inclusion(&root, &leaf, 3, 8, &proof));
    }

    #[test]
    fn consistency_all_size_pairs() {
        for n in 1..=16 {
            let log = build(n);
            let new_root = log.root();
            for m in 1..=n {
                let proof = log.consistency_proof(m);
                let old_root = log.root_of(m);
                assert!(
                    verify_consistency(&old_root, m, &new_root, n, &proof),
                    "m={m} n={n}"
                );
            }
        }
    }

    #[test]
    fn consistency_detects_history_rewrite() {
        // Build a log, snapshot, then build a *different* log of the same
        // eventual size: its consistency proof must not verify against the
        // old head.
        let honest = build(6);
        let old_root = honest.root_of(4);

        let mut forged = MerkleLog::new();
        for i in 0..6 {
            let data = if i == 2 {
                "tampered".to_string()
            } else {
                format!("entry-{i}")
            };
            forged.append(data.as_bytes());
        }
        let proof = forged.consistency_proof(4);
        assert!(!verify_consistency(&old_root, 4, &forged.root(), 6, &proof));
    }

    #[test]
    fn consistency_from_empty() {
        let log = build(5);
        assert!(verify_consistency(&empty_root(), 0, &log.root(), 5, &[]));
    }

    /// The RFC 6962 definition, computed from the leaves alone: the
    /// oracle the stored levels are checked against.
    fn recursive_root(leaves: &[Hash]) -> Hash {
        match leaves.len() {
            0 => empty_root(),
            1 => leaves[0],
            n => {
                let (left, right) = leaves.split_at(split_point(n));
                node_hash(&recursive_root(left), &recursive_root(right))
            }
        }
    }

    #[test]
    fn incremental_root_matches_recursive() {
        // Every historical root read off the stored levels must equal
        // the recursive RFC 6962 root, across many carry patterns.
        let mut log = MerkleLog::new();
        let mut leaves = Vec::new();
        for i in 0..130 {
            leaves.push(leaf_hash(format!("e{i}").as_bytes()));
            log.append(format!("e{i}").as_bytes());
            assert_eq!(log.root(), recursive_root(&leaves), "size {}", i + 1);
        }
        for size in 0..=130 {
            assert_eq!(log.root_of(size), recursive_root(&leaves[..size]), "{size}");
        }
    }

    thread_local! {
        /// `node_hash` calls made on this thread (test builds only).
        pub(super) static NODE_HASHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn node_hashes_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = NODE_HASHES.with(|n| n.get());
        let out = f();
        (out, NODE_HASHES.with(|n| n.get()) - before)
    }

    #[test]
    fn proofs_and_roots_cost_logarithmically_many_hashes() {
        // 100 003 = 0b11000011010100011: a ragged right edge at most
        // levels. A proof may hash only down that edge — at most
        // 2·⌈log₂ n⌉ = 34 nodes — where recomputing the tree takes n − 1.
        let n = 100_003usize;
        let mut log = MerkleLog::new();
        let (_, appended) = node_hashes_during(|| {
            for i in 0..n as u64 {
                log.append_leaf(leaf_hash(&i.to_le_bytes()));
            }
        });
        assert!(appended < n, "amortized one hash per append: {appended}");
        let bound = 2 * n.next_power_of_two().trailing_zeros() as usize;
        let root = log.root();
        for index in [0, 1, 65_535, 65_536, 98_303, 98_304, n - 2, n - 1] {
            let (proof, hashes) = node_hashes_during(|| log.inclusion_proof(index, n));
            assert!(hashes <= bound, "inclusion of {index}: {hashes} hashes");
            let leaf = leaf_hash(&(index as u64).to_le_bytes());
            assert!(verify_inclusion(&root, &leaf, index, n, &proof));
        }
        for old in [1, 2, 65_536, 65_537, 99_999, n - 1, n] {
            let (proof, hashes) = node_hashes_during(|| log.consistency_proof(old));
            assert!(hashes <= bound, "consistency from {old}: {hashes} hashes");
            let (old_root, hashes) = node_hashes_during(|| log.root_of(old));
            assert!(hashes <= bound, "root of {old}: {hashes} hashes");
            assert!(verify_consistency(&old_root, old, &root, n, &proof));
        }
    }

    #[test]
    fn batch_append_matches_sequential() {
        let hashes: Vec<Hash> = (0..37u32).map(|i| leaf_hash(&i.to_le_bytes())).collect();
        let mut seq = MerkleLog::new();
        for h in &hashes {
            seq.append_leaf(*h);
        }
        let mut batched = MerkleLog::new();
        let range = batched.append_leaves(&hashes);
        assert_eq!(range, 0..37);
        assert_eq!(seq.root(), batched.root());
    }

    #[test]
    fn appends_change_root() {
        let mut log = build(4);
        let r1 = log.root();
        log.append(b"more");
        assert_ne!(log.root(), r1);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Every (index, size ≤ n) inclusion proof verifies, for
            /// arbitrary log contents.
            #[test]
            fn prop_inclusion(entries in proptest::collection::vec(any::<u64>(), 1..40), pick in any::<u64>()) {
                let mut log = MerkleLog::new();
                for e in &entries {
                    log.append(&e.to_le_bytes());
                }
                let n = entries.len();
                let i = (pick as usize) % n;
                let proof = log.inclusion_proof(i, n);
                let leaf = leaf_hash(&entries[i].to_le_bytes());
                prop_assert!(verify_inclusion(&log.root(), &leaf, i, n, &proof));
                // A different leaf value at the same position fails.
                let wrong = leaf_hash(&entries[i].wrapping_add(1).to_le_bytes());
                prop_assert!(!verify_inclusion(&log.root(), &wrong, i, n, &proof));
            }

            /// Consistency holds between every prefix pair of a random log.
            #[test]
            fn prop_consistency(entries in proptest::collection::vec(any::<u64>(), 2..32), pick in any::<u64>()) {
                let mut log = MerkleLog::new();
                for e in &entries {
                    log.append(&e.to_le_bytes());
                }
                let n = entries.len();
                let m = 1 + (pick as usize) % n;
                let proof = log.consistency_proof(m);
                prop_assert!(verify_consistency(&log.root_of(m), m, &log.root(), n, &proof));
            }

            /// Mutating any single entry changes the root (second-preimage
            /// sanity at the structural level).
            #[test]
            fn prop_any_mutation_changes_root(entries in proptest::collection::vec(any::<u64>(), 1..24), pick in any::<u64>()) {
                let mut log = MerkleLog::new();
                for e in &entries {
                    log.append(&e.to_le_bytes());
                }
                let i = (pick as usize) % entries.len();
                let mut mutated = MerkleLog::new();
                for (j, e) in entries.iter().enumerate() {
                    let v = if j == i { e.wrapping_add(1) } else { *e };
                    mutated.append(&v.to_le_bytes());
                }
                prop_assert_ne!(log.root(), mutated.root());
            }
        }
    }

    #[test]
    fn leaf_node_domain_separation() {
        // A leaf containing what looks like two child hashes must not
        // collide with the interior node of those children.
        let a = leaf_hash(b"a");
        let b = leaf_hash(b"b");
        let mut concat = Vec::new();
        concat.extend_from_slice(&a);
        concat.extend_from_slice(&b);
        assert_ne!(leaf_hash(&concat), node_hash(&a, &b));
    }
}
