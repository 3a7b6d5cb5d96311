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
/// Alongside the full leaf vector (needed for historical roots and
/// proofs), the log maintains the RFC 6962 "peak" decomposition of the
/// current tree — the roots of the maximal perfect subtrees given by the
/// binary representation of the leaf count. Appends update the peaks like
/// a binary counter (amortized O(1)), so [`MerkleLog::root`] costs
/// O(log n) hashes instead of recomputing the whole tree. This is what
/// makes per-append signed tree heads affordable on a live bulletin
/// board.
#[derive(Clone, Default)]
pub struct MerkleLog {
    leaves: Vec<Hash>,
    /// Roots of the maximal perfect subtrees, leftmost (largest) first,
    /// paired with their height (a peak of height h covers 2^h leaves).
    peaks: Vec<(u32, Hash)>,
}

impl MerkleLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self {
            leaves: Vec::new(),
            peaks: Vec::new(),
        }
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Returns `true` if the log has no entries.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// The leaf hash at `index`, if present.
    pub(crate) fn leaf(&self, index: usize) -> Option<&Hash> {
        self.leaves.get(index)
    }

    /// Appends an entry, returning its index.
    pub fn append(&mut self, data: &[u8]) -> usize {
        self.append_leaf(leaf_hash(data))
    }

    /// Appends a pre-hashed leaf, returning its index. The hash must be a
    /// domain-separated [`leaf_hash`] (batch pipelines compute these in
    /// parallel before appending).
    pub fn append_leaf(&mut self, leaf: Hash) -> usize {
        self.leaves.push(leaf);
        // Binary-counter carry: merge equal-height peaks.
        let mut height = 0u32;
        let mut acc = leaf;
        while let Some(&(top_height, top)) = self.peaks.last() {
            if top_height != height {
                break;
            }
            self.peaks.pop();
            acc = node_hash(&top, &acc);
            height += 1;
        }
        self.peaks.push((height, acc));
        self.leaves.len() - 1
    }

    /// Appends a batch of pre-hashed leaves, returning the index range.
    pub fn append_leaves(&mut self, leaves: &[Hash]) -> std::ops::Range<usize> {
        let start = self.leaves.len();
        for leaf in leaves {
            self.append_leaf(*leaf);
        }
        start..self.leaves.len()
    }

    /// The current tree head (O(log n) via the peak decomposition).
    pub fn root(&self) -> Hash {
        match self.peaks.split_last() {
            None => empty_root(),
            Some(((_, last), rest)) => {
                // Fold right-to-left: the RFC 6962 root of a non-perfect
                // tree hangs each smaller peak under its larger left
                // sibling's parent.
                let mut acc = *last;
                for (_, peak) in rest.iter().rev() {
                    acc = node_hash(peak, &acc);
                }
                acc
            }
        }
    }

    /// The tree head after the first `size` entries.
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds the log length.
    pub fn root_of(&self, size: usize) -> Hash {
        assert!(size <= self.leaves.len(), "size beyond log length");
        if size == 0 {
            return empty_root();
        }
        Self::subtree_root(&self.leaves[..size])
    }

    fn subtree_root(leaves: &[Hash]) -> Hash {
        match leaves.len() {
            1 => leaves[0],
            n => {
                let k = split_point(n);
                node_hash(
                    &Self::subtree_root(&leaves[..k]),
                    &Self::subtree_root(&leaves[k..]),
                )
            }
        }
    }

    /// Builds the inclusion (audit) path for `index` within the first
    /// `size` entries, sibling hashes from leaf level upward.
    ///
    /// # Panics
    ///
    /// Panics if `index >= size` or `size` exceeds the log length.
    pub fn inclusion_proof(&self, index: usize, size: usize) -> Vec<Hash> {
        assert!(index < size && size <= self.leaves.len(), "bad proof range");
        let mut path = Vec::new();
        Self::path(&self.leaves[..size], index, &mut path);
        path
    }

    fn path(leaves: &[Hash], index: usize, out: &mut Vec<Hash>) {
        if leaves.len() == 1 {
            return;
        }
        let k = split_point(leaves.len());
        if index < k {
            Self::path(&leaves[..k], index, out);
            out.push(Self::subtree_root(&leaves[k..]));
        } else {
            Self::path(&leaves[k..], index - k, out);
            out.push(Self::subtree_root(&leaves[..k]));
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
            old_size >= 1 && old_size <= self.leaves.len(),
            "bad consistency range"
        );
        let mut proof = Vec::new();
        Self::subproof(&self.leaves, old_size, true, &mut proof);
        proof
    }

    fn subproof(leaves: &[Hash], m: usize, complete: bool, out: &mut Vec<Hash>) {
        let n = leaves.len();
        if m == n {
            if !complete {
                out.push(Self::subtree_root(leaves));
            }
            return;
        }
        let k = split_point(n);
        if m <= k {
            Self::subproof(&leaves[..k], m, complete, out);
            out.push(Self::subtree_root(&leaves[k..]));
        } else {
            Self::subproof(&leaves[k..], m - k, false, out);
            out.push(Self::subtree_root(&leaves[..k]));
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

    #[test]
    fn incremental_root_matches_recursive() {
        // The O(log n) peak-fold root must equal the recursive RFC 6962
        // root at every size, including across many carry patterns.
        let mut log = MerkleLog::new();
        for i in 0..130 {
            log.append(format!("e{i}").as_bytes());
            assert_eq!(log.root(), log.root_of(log.len()), "size {}", i + 1);
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
