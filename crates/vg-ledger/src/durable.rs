//! Durable crash-recoverable storage backend: write-ahead segment logs,
//! persisted signed tree heads, snapshot verification and replay-cursor
//! reopen.
//!
//! [`DurableStore`] implements [`LedgerStore`] over append-only segment
//! files of length-prefixed, checksummed frames carrying each record's
//! canonical byte encoding (the same injective encoding the Merkle leaves
//! hash, so disk and tree can never disagree about content). The write
//! discipline is **event-before-state**: a record's frame is written to
//! the segment before the in-memory Merkle accumulator absorbs its leaf,
//! so a process killed at any instant leaves the disk a superset-or-equal
//! of the published state, never behind it. Group fsync happens at the
//! commit barrier ([`LedgerStore::persist`]), not per append, which is
//! where the commit sequencer's admission sweep calls it.
//!
//! Reopen is snapshot-load + segment replay: frames are replayed in
//! order, a torn partial frame at the very tail of the log is truncated
//! (a crash mid-`write` is expected), while a corrupt frame *followed by
//! more data* — a mid-log hole — is a hard error, because append-only
//! writes cannot produce it. The persisted snapshot and the last
//! persisted signed head are both cross-checked against the replayed
//! tree ([`MerkleLog::root_of`]) before the store accepts the directory.
//!
//! ## The replay cursor
//!
//! The TRIP pipeline is deterministic from its seed: setup re-commits the
//! envelope supply and a re-run day re-posts every admitted record in the
//! same global order. A reopened store therefore starts in *replay mode*:
//! incoming appends are matched byte-for-byte (by leaf hash) against the
//! persisted sequence and returned their original indices as no-ops,
//! without touching the WAL; the first append past the persisted tail
//! switches back to normal write-ahead appends. Any divergence from the
//! persisted history is a fail-stop panic — a bulletin board must never
//! silently fork. This is what makes a killed registration day resumable
//! by simply re-running it: everything already durable is deduplicated
//! against *persisted* (not in-memory) progress.

use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::log::{Record, TreeHead};
use crate::merkle::{self, Hash, MerkleLog};
use crate::store::{ConsistencyProof, InclusionProof, LedgerBackend, LedgerStore};
use vg_crypto::codec::Reader;
use vg_crypto::par::par_map;
use vg_crypto::schnorr::Signature;
use vg_crypto::sha2::Sha256;
use vg_crypto::{CryptoError, Scalar};

/// Roll threshold for WAL segments: a segment that has reached this many
/// bytes is closed and a new one started. Small enough that a
/// registration day spans several segments (exercising multi-segment
/// replay and recovery), large enough that rolls are rare per flush.
pub const SEGMENT_BYTES: u64 = 8 * 1024;

/// Hard ceiling on a single frame payload; a length prefix above this is
/// corruption, not data.
pub const MAX_FRAME: usize = 1 << 24;

const FRAME_HEADER: usize = 4 + 8;
const HEADS_FILE: &str = "heads.log";
const SNAPSHOT_FILE: &str = "snapshot.bin";
const REVEALS_FILE: &str = "reveals.log";

/// Errors raised opening, replaying, or writing a durable log directory.
///
/// Append-path IO errors surface *typed*, not as panics: a failed WAL
/// write poisons the store ([`WalError::Poisoned`]) so no head covering
/// the unpersisted bytes can ever be published — the next
/// [`LedgerStore::persist`] barrier returns the error and the caller
/// aborts the day cleanly instead of the process dying mid-request. A
/// restart then reopens the directory and replays the clean prefix the
/// disk actually holds.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Structural corruption that torn-tail truncation cannot repair.
    Corrupt(&'static str),
    /// A complete, checksummed frame whose payload fails canonical
    /// decoding — the log was written by something other than this codec.
    Codec(CryptoError),
    /// An earlier append or barrier already failed; the store refuses
    /// every further persist until the process restarts and replays the
    /// on-disk prefix. Carries the original failure's description.
    Poisoned(String),
}

impl core::fmt::Display for WalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt(m) => write!(f, "wal corrupt: {m}"),
            WalError::Codec(e) => write!(f, "wal record decode failed: {e}"),
            WalError::Poisoned(m) => write!(f, "wal poisoned by earlier failure: {m}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<CryptoError> for WalError {
    fn from(e: CryptoError) -> Self {
        WalError::Codec(e)
    }
}

/// A [`Record`] that can also be decoded back from its canonical bytes —
/// the requirement for WAL replay. The codec must be the exact inverse of
/// [`Record::canonical_bytes`]; reopen verifies this by re-encoding every
/// replayed record.
pub trait DurableRecord: Record + Sized {
    /// Decodes a record from its canonical byte encoding.
    fn decode_canonical(bytes: &[u8]) -> Result<Self, WalError>;
}

/// Durability counters for one store (all zero on the in-memory and
/// sharded backends).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Frames appended to the WAL by this process (replay-cursor matches
    /// are free and not counted).
    pub wal_records: u64,
    /// `fsync` calls issued at commit barriers (zero when the backend
    /// runs with `fsync: false`).
    pub wal_fsyncs: u64,
    /// Segment files the log currently spans.
    pub segments: u64,
    /// Records replayed from disk when the store was opened.
    pub replayed: u64,
    /// Signed tree heads persisted to `heads.log`.
    pub heads_persisted: u64,
    /// WAL write or fsync failures observed (each one poisons its store;
    /// nonzero means the day ran degraded and aborted typed).
    pub wal_failures: u64,
}

impl DurabilityStats {
    /// Component-wise sum (for aggregating sub-ledger stats).
    pub fn merge(&self, other: &DurabilityStats) -> DurabilityStats {
        DurabilityStats {
            wal_records: self.wal_records + other.wal_records,
            wal_fsyncs: self.wal_fsyncs + other.wal_fsyncs,
            segments: self.segments + other.segments,
            replayed: self.replayed + other.replayed,
            heads_persisted: self.heads_persisted + other.heads_persisted,
            wal_failures: self.wal_failures + other.wal_failures,
        }
    }
}

// ---------------------------------------------------------------------------
// FaultFs: deterministic write-layer fault injection
// ---------------------------------------------------------------------------

/// One injected filesystem fault, keyed by deterministic operation
/// counters — never wall clocks or OS entropy (this file is inside
/// vg-lint's `nondeterminism` scope, and the chaos tests rely on a seed
/// reproducing the exact same failure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsFault {
    /// The `nth` segment write (0-based) fails with an injected IO error
    /// before any byte lands.
    FailWrite {
        /// 0-based write index at which the fault fires.
        nth: u64,
    },
    /// The `nth` segment write persists only the first `keep` bytes of
    /// the frame, then fails — a torn write the torn-tail repair path
    /// must truncate away on reopen.
    ShortWrite {
        /// 0-based write index at which the fault fires.
        nth: u64,
        /// Bytes of the frame that reach the file before the failure.
        keep: usize,
    },
    /// Every segment write from the `nth` on fails with `ENOSPC`.
    DiskFull {
        /// 0-based write index from which the disk reports full.
        nth: u64,
    },
    /// The `nth` fsync (group sync at a commit barrier or segment roll)
    /// fails with an injected IO error.
    FailFsync {
        /// 0-based fsync index at which the fault fires.
        nth: u64,
    },
}

/// What [`FaultFs`] decided for one write.
enum FsWriteDecision {
    Proceed,
    Short(usize),
    Fail(std::io::Error),
}

/// A deterministic write-layer fault schedule installed on a
/// [`DurableStore`] (via [`crate::ledger::Ledger::install_fault_fs`] or
/// [`LedgerStore::install_fault_fs`]). Decisions depend only on the
/// schedule and the store's own write/fsync counters, so a given seed
/// replays the identical failure on every run.
#[derive(Clone, Debug, Default)]
pub struct FaultFs {
    faults: Vec<FsFault>,
    writes: u64,
    fsyncs: u64,
}

impl FaultFs {
    /// Builds a schedule from a set of faults.
    pub fn new(faults: Vec<FsFault>) -> Self {
        Self {
            faults,
            writes: 0,
            fsyncs: 0,
        }
    }

    fn on_write(&mut self) -> FsWriteDecision {
        let n = self.writes;
        self.writes += 1;
        for f in &self.faults {
            match *f {
                FsFault::FailWrite { nth } if nth == n => {
                    return FsWriteDecision::Fail(std::io::Error::other(
                        "injected WAL write failure",
                    ));
                }
                FsFault::ShortWrite { nth, keep } if nth == n => {
                    return FsWriteDecision::Short(keep);
                }
                FsFault::DiskFull { nth } if n >= nth => {
                    return FsWriteDecision::Fail(std::io::Error::new(
                        std::io::ErrorKind::StorageFull,
                        "injected ENOSPC",
                    ));
                }
                _ => {}
            }
        }
        FsWriteDecision::Proceed
    }

    fn on_fsync(&mut self) -> Result<(), std::io::Error> {
        let n = self.fsyncs;
        self.fsyncs += 1;
        for f in &self.faults {
            if let FsFault::FailFsync { nth } = *f {
                if nth == n {
                    return Err(std::io::Error::other("injected fsync failure"));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Frame codec: u32 length ‖ 8-byte truncated domain-prefixed SHA-256 ‖ payload
// ---------------------------------------------------------------------------

fn frame_checksum(payload: &[u8]) -> [u8; 8] {
    let mut h = Sha256::new();
    h.update(b"vg-wal-frame-v1");
    h.update(payload);
    let digest = h.finalize();
    std::array::from_fn(|i| digest[i])
}

/// The complete on-disk encoding of one frame.
fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_HEADER + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&frame_checksum(payload));
    buf.extend_from_slice(payload);
    buf
}

pub(crate) fn append_frame<W: Write>(file: &mut W, payload: &[u8]) -> std::io::Result<()> {
    file.write_all(&frame_bytes(payload))
}

enum FrameRead<'a> {
    /// A complete, checksum-valid frame ending at `next`.
    Frame { payload: &'a [u8], next: usize },
    /// Clean end of buffer.
    Eof,
    /// An incomplete or checksum-failing frame starting at the cursor.
    Torn,
}

fn read_frame(buf: &[u8], pos: usize) -> FrameRead<'_> {
    if pos == buf.len() {
        return FrameRead::Eof;
    }
    if pos + FRAME_HEADER > buf.len() {
        return FrameRead::Torn;
    }
    let len = match buf[pos..pos + 4].try_into() {
        Ok(b) => u32::from_le_bytes(b) as usize,
        Err(_) => return FrameRead::Torn,
    };
    if len > MAX_FRAME || pos + FRAME_HEADER + len > buf.len() {
        return FrameRead::Torn;
    }
    let payload = &buf[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
    if frame_checksum(payload) != buf[pos + 4..pos + 12] {
        return FrameRead::Torn;
    }
    FrameRead::Frame {
        payload,
        next: pos + FRAME_HEADER + len,
    }
}

/// Replays every frame of one file with torn-tail truncation: a torn
/// frame at the tail is cut off (the file is physically truncated so
/// subsequent appends start clean) and everything before it returned.
/// Returns the payloads and the valid byte length.
pub(crate) fn load_frames(path: &Path) -> Result<(Vec<Vec<u8>>, u64), WalError> {
    let buf = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e.into()),
    };
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    loop {
        match read_frame(&buf, pos) {
            FrameRead::Frame { payload, next } => {
                payloads.push(payload.to_vec());
                pos = next;
            }
            FrameRead::Eof => break,
            FrameRead::Torn => {
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(pos as u64)?;
                break;
            }
        }
    }
    Ok((payloads, pos as u64))
}

// ---------------------------------------------------------------------------
// Segment files
// ---------------------------------------------------------------------------

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:06}.log"))
}

/// Segment files of `dir` in index order, verified contiguous from 0.
fn list_segments(dir: &Path) -> Result<Vec<PathBuf>, WalError> {
    let mut indices = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(num) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".log"))
        {
            if let Ok(i) = num.parse::<u64>() {
                indices.push(i);
            }
        }
    }
    indices.sort_unstable();
    for (k, &i) in indices.iter().enumerate() {
        if i != k as u64 {
            return Err(WalError::Corrupt("segment sequence has a gap"));
        }
    }
    Ok(indices.iter().map(|&i| segment_path(dir, i)).collect())
}

struct SegmentWriter {
    dir: PathBuf,
    index: u64,
    /// Buffered so a frame append costs a memcpy, not a syscall; the
    /// buffer drains at segment rolls, at every commit barrier, and on
    /// drop. A kill can lose buffered frames — that only ever shortens
    /// the on-disk log by a tail, which replay repairs, and `sync`
    /// drains before any head is written so heads never cover bytes the
    /// segment files don't have.
    file: BufWriter<File>,
    bytes: u64,
    dirty: bool,
    fsync: bool,
    /// Injected write-layer fault schedule (chaos tests only).
    fault: Option<FaultFs>,
}

impl SegmentWriter {
    fn open(dir: &Path, index: u64, bytes: u64, fsync: bool) -> Result<Self, WalError> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(dir, index))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            index,
            file: BufWriter::new(file),
            bytes,
            dirty: false,
            fsync,
            fault: None,
        })
    }

    fn injected_fsync(&mut self) -> Result<(), WalError> {
        if let Some(f) = self.fault.as_mut() {
            f.on_fsync().map_err(WalError::Io)?;
        }
        Ok(())
    }

    fn append(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        let mut fsyncs = 0;
        if self.bytes >= SEGMENT_BYTES {
            // Seal the full segment (synced under fsync discipline so the
            // roll itself is not a durability gap) and start the next.
            self.file.flush()?;
            if self.fsync && self.dirty {
                self.injected_fsync()?;
                self.file.get_ref().sync_data()?;
                fsyncs += 1;
            }
            self.index += 1;
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(segment_path(&self.dir, self.index))?;
            self.file = BufWriter::new(file);
            self.bytes = 0;
            self.dirty = false;
        }
        match self
            .fault
            .as_mut()
            .map(|f| f.on_write())
            .unwrap_or(FsWriteDecision::Proceed)
        {
            FsWriteDecision::Proceed => append_frame(&mut self.file, payload)?,
            FsWriteDecision::Short(keep) => {
                // A torn write: a prefix of the frame reaches the file,
                // then the write fails. Flushed through so the torn tail
                // is really on disk for the reopen path to repair.
                let full = frame_bytes(payload);
                let cut = keep.min(full.len());
                self.file.write_all(full.get(..cut).unwrap_or(&full))?;
                self.file.flush()?;
                return Err(WalError::Io(std::io::Error::other(
                    "injected torn write: frame cut mid-byte",
                )));
            }
            FsWriteDecision::Fail(e) => return Err(WalError::Io(e)),
        }
        self.bytes += (FRAME_HEADER + payload.len()) as u64;
        self.dirty = true;
        Ok(fsyncs)
    }

    /// Commit barrier: drains the write buffer, then group-fsyncs when
    /// fsync discipline is on; returns whether a sync was issued.
    fn sync(&mut self) -> Result<bool, WalError> {
        self.file.flush()?;
        if self.fsync && self.dirty {
            self.injected_fsync()?;
            self.file.get_ref().sync_data()?;
            self.dirty = false;
            return Ok(true);
        }
        Ok(false)
    }
}

// ---------------------------------------------------------------------------
// DurableStore
// ---------------------------------------------------------------------------

/// WAL-backed flat Merkle store: identical commitment structure (and
/// therefore identical roots and proofs) to [`crate::store::InMemoryStore`],
/// plus crash durability. See the module docs for the write discipline
/// and the replay cursor.
pub struct DurableStore<T> {
    dir: PathBuf,
    fsync: bool,
    records: Vec<T>,
    leaves: Vec<Hash>,
    merkle: MerkleLog,
    /// Records loaded from disk at open; indices below this are the
    /// replayable prefix.
    replayed: usize,
    /// Replay cursor: how many of the replayed records have been
    /// re-appended (matched) by the caller since open.
    matched: usize,
    writer: SegmentWriter,
    heads: File,
    last_head_size: u64,
    stats: DurabilityStats,
    /// First WAL write/barrier failure, sticky until restart: while set,
    /// appends stop touching the disk (the on-disk log stays a clean
    /// prefix) and every `persist` returns [`WalError::Poisoned`], so no
    /// published head can ever cover bytes the WAL does not have.
    failed: Option<String>,
}

impl<T: DurableRecord> DurableStore<T> {
    /// Opens (or creates) a durable log rooted at `dir`: replays the
    /// segments with torn-tail repair, cross-checks the snapshot and the
    /// last persisted signed head against the rebuilt tree, and rewrites
    /// the start-of-day snapshot.
    pub fn open(dir: impl Into<PathBuf>, fsync: bool) -> Result<Self, WalError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;

        // Segment replay. Only the final segment may have a torn tail;
        // a corrupt frame with data after it is a mid-log hole.
        let segments = list_segments(&dir)?;
        let mut records: Vec<T> = Vec::new();
        let mut leaves: Vec<Hash> = Vec::new();
        let mut tail = (0u64, 0u64); // (index, valid bytes) of last segment
        for (k, path) in segments.iter().enumerate() {
            let is_last = k + 1 == segments.len();
            let buf = fs::read(path)?;
            let mut pos = 0usize;
            loop {
                match read_frame(&buf, pos) {
                    FrameRead::Frame { payload, next } => {
                        let record = T::decode_canonical(payload)?;
                        if record.canonical_bytes() != payload {
                            return Err(WalError::Corrupt("record re-encoding diverges"));
                        }
                        leaves.push(merkle::leaf_hash(payload));
                        records.push(record);
                        pos = next;
                    }
                    FrameRead::Eof => break,
                    FrameRead::Torn if is_last => {
                        // A crash mid-write: truncate the partial final
                        // record so appends resume from a clean tail.
                        let f = OpenOptions::new().write(true).open(path)?;
                        f.set_len(pos as u64)?;
                        break;
                    }
                    FrameRead::Torn => {
                        return Err(WalError::Corrupt(
                            "mid-log hole: corrupt frame in a non-final segment",
                        ));
                    }
                }
            }
            if is_last {
                tail = (k as u64, pos as u64);
            }
        }
        let mut merkle_log = MerkleLog::new();
        merkle_log.append_leaves(&leaves);

        // Persisted signed heads: torn tail tolerated, but the newest
        // surviving head must describe a prefix of the replayed log.
        let heads_path = dir.join(HEADS_FILE);
        let (head_payloads, _) = load_frames(&heads_path)?;
        let mut last_head_size = 0u64;
        for payload in &head_payloads {
            let (size, root) = decode_head(payload)?;
            if size < last_head_size {
                return Err(WalError::Corrupt("persisted head sizes regress"));
            }
            if size as usize > records.len() {
                return Err(WalError::Corrupt("persisted head beyond the log"));
            }
            if merkle_log.root_of(size as usize) != root {
                return Err(WalError::Corrupt("persisted head root mismatch"));
            }
            last_head_size = size;
        }

        // Snapshot cross-check, then rewrite for this open (atomically,
        // via rename, so a crash never leaves a half-written snapshot).
        let snap_path = dir.join(SNAPSHOT_FILE);
        if let Ok(buf) = fs::read(&snap_path) {
            if let FrameRead::Frame { payload, .. } = read_frame(&buf, 0) {
                let (size, root) = decode_head(payload)?;
                if size as usize > records.len() || merkle_log.root_of(size as usize) != root {
                    return Err(WalError::Corrupt("snapshot disagrees with the log"));
                }
            }
        }
        let mut snap_payload = Vec::with_capacity(40);
        snap_payload.extend_from_slice(&(records.len() as u64).to_le_bytes());
        snap_payload.extend_from_slice(&merkle_log.root());
        let tmp = dir.join("snapshot.tmp");
        let mut snap = File::create(&tmp)?;
        append_frame(&mut snap, &snap_payload)?;
        if fsync {
            snap.sync_data()?;
        }
        drop(snap);
        fs::rename(&tmp, &snap_path)?;

        let writer = SegmentWriter::open(&dir, tail.0, tail.1, fsync)?;
        let heads = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&heads_path)?;
        let replayed = records.len();
        Ok(Self {
            dir,
            fsync,
            records,
            leaves,
            merkle: merkle_log,
            replayed,
            matched: 0,
            writer,
            heads,
            last_head_size,
            stats: DurabilityStats {
                replayed: replayed as u64,
                ..DurabilityStats::default()
            },
            failed: None,
        })
    }

    /// Whether the store is still matching appends against the replayed
    /// prefix (true between open and the first genuinely new append).
    pub fn replaying(&self) -> bool {
        self.matched < self.replayed
    }

    /// Installs a deterministic write-layer fault schedule (chaos tests).
    pub fn install_fault_fs(&mut self, fault: FaultFs) {
        self.writer.fault = Some(fault);
    }

    fn absorb(&mut self, record: T, payload: &[u8], leaf: Hash) -> usize {
        if self.matched < self.replayed {
            // Replay cursor: a byte-identical re-append of persisted
            // history is a no-op resolving to its original index.
            assert_eq!(
                leaf,
                self.leaves[self.matched],
                "durable replay diverged from the persisted log at index {} in {}",
                self.matched,
                self.dir.display()
            );
            self.matched += 1;
            return self.matched - 1;
        }
        // Event before state: the WAL frame lands before the Merkle
        // accumulator moves. An IO error poisons the store instead of
        // panicking: the in-memory tree keeps its indices coherent for
        // the caller, later appends skip the disk (keeping the on-disk
        // log a clean prefix), and the next `persist` barrier surfaces
        // the failure typed — no head covering the lost bytes is ever
        // published, which is the durability contract.
        if self.failed.is_none() {
            match self.writer.append(payload) {
                Ok(fsyncs) => {
                    self.stats.wal_fsyncs += fsyncs;
                    self.stats.wal_records += 1;
                }
                Err(e) => {
                    self.stats.wal_failures += 1;
                    self.failed = Some(e.to_string());
                }
            }
        }
        let idx = self.merkle.append_leaf(leaf);
        self.leaves.push(leaf);
        self.records.push(record);
        idx
    }

    fn next_index(&self) -> usize {
        if self.matched < self.replayed {
            self.matched
        } else {
            self.records.len()
        }
    }
}

fn decode_head(payload: &[u8]) -> Result<(u64, Hash), WalError> {
    // size ‖ root ‖ signature — the signature rides along for external
    // auditors; the store itself verifies structure, not signatures
    // (operator keys live a layer up). The snapshot omits the signature.
    if payload.len() != 40 && payload.len() != 104 {
        return Err(WalError::Corrupt("bad head frame length"));
    }
    let (size_bytes, rest) = payload.split_at(8);
    let size = match size_bytes.try_into() {
        Ok(b) => u64::from_le_bytes(b),
        Err(_) => return Err(WalError::Corrupt("bad head frame length")),
    };
    let mut root = [0u8; 32];
    root.copy_from_slice(
        rest.get(..32)
            .ok_or(WalError::Corrupt("bad head frame length"))?,
    );
    Ok((size, root))
}

impl<T: DurableRecord + Sync> LedgerStore<T> for DurableStore<T> {
    fn append(&mut self, record: T) -> usize {
        let payload = record.canonical_bytes();
        let leaf = merkle::leaf_hash(&payload);
        self.absorb(record, &payload, leaf)
    }

    fn append_batch(&mut self, records: Vec<T>, threads: usize) -> Range<usize> {
        let start = self.next_index();
        let encoded: Vec<(Vec<u8>, Hash)> = par_map(&records, threads, |r| {
            let payload = r.canonical_bytes();
            let leaf = merkle::leaf_hash(&payload);
            (payload, leaf)
        });
        for (record, (payload, leaf)) in records.into_iter().zip(encoded) {
            self.absorb(record, &payload, leaf);
        }
        start..self.next_index()
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
        LedgerBackend::Durable {
            dir: self.dir.clone(),
            fsync: self.fsync,
        }
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn persist(&mut self, head: &TreeHead) -> Result<(), WalError> {
        if let Some(msg) = &self.failed {
            return Err(WalError::Poisoned(msg.clone()));
        }
        let result: Result<(), WalError> = (|| {
            // Commit barrier: group-fsync the outstanding appends first,
            // publish the signed head second — the head on disk never
            // gets ahead of the records it covers.
            if self.writer.sync()? {
                self.stats.wal_fsyncs += 1;
            }
            if head.size > self.last_head_size {
                let mut payload = Vec::with_capacity(104);
                payload.extend_from_slice(&head.size.to_le_bytes());
                payload.extend_from_slice(&head.root);
                payload.extend_from_slice(&head.signature.to_bytes());
                append_frame(&mut self.heads, &payload)?;
                if self.fsync {
                    self.heads.sync_data()?;
                    self.stats.wal_fsyncs += 1;
                }
                self.last_head_size = head.size;
                self.stats.heads_persisted += 1;
            }
            Ok(())
        })();
        if let Err(e) = result {
            // A failed barrier also poisons: the buffered writer's state
            // is unknown, so further appends must not touch the disk.
            self.stats.wal_failures += 1;
            self.failed = Some(e.to_string());
            return Err(e);
        }
        Ok(())
    }

    fn install_fault_fs(&mut self, fault: FaultFs) {
        DurableStore::install_fault_fs(self, fault);
    }

    fn durability_stats(&self) -> DurabilityStats {
        DurabilityStats {
            segments: self.writer.index + 1,
            ..self.stats
        }
    }
}

// ---------------------------------------------------------------------------
// Reveal WAL (envelope challenge reveals live outside the Merkle log)
// ---------------------------------------------------------------------------

/// Write-ahead persistence for the envelope ledger's revealed-challenge
/// map, which is keyed state *next to* the Merkle log rather than in it.
/// Entries are `(H(e), e)` frames in reveal order. On reopen the map is
/// reloaded and a replay queue of the original reveal order makes a
/// deterministic re-run's re-reveals idempotent, while any *other*
/// repeated reveal still trips the duplicate-envelope detector.
pub struct RevealWal {
    file: File,
    fsync: bool,
    dirty: bool,
    replay: VecDeque<[u8; 32]>,
    stats: DurabilityStats,
    /// Injected fault schedule (chaos tests only); only its fsync faults
    /// apply here.
    fault: Option<FaultFs>,
}

/// The persisted `H(e) → e` reveal map, in reveal order.
pub type RevealedEntries = Vec<([u8; 32], Scalar)>;

impl RevealWal {
    /// Opens the reveal WAL inside a store directory, returning the WAL
    /// and the persisted `H(e) → e` map.
    pub fn open(dir: &Path, fsync: bool) -> Result<(Self, RevealedEntries), WalError> {
        fs::create_dir_all(dir)?;
        let path = dir.join(REVEALS_FILE);
        let (payloads, _) = load_frames(&path)?;
        let mut revealed = Vec::with_capacity(payloads.len());
        let mut replay = VecDeque::with_capacity(payloads.len());
        for payload in &payloads {
            let mut r = Reader::new(payload);
            let h = r.bytes32()?;
            let e = r.scalar()?;
            r.finish()?;
            revealed.push((h, e));
            replay.push_back(h);
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let stats = DurabilityStats {
            replayed: revealed.len() as u64,
            ..DurabilityStats::default()
        };
        Ok((
            Self {
                file,
                fsync,
                dirty: false,
                replay,
                stats,
                fault: None,
            },
            revealed,
        ))
    }

    /// If `h` is the next reveal in the persisted replay order, consume
    /// it (the caller treats the re-reveal as an idempotent no-op).
    pub fn matches_replay(&mut self, h: &[u8; 32]) -> bool {
        if self.replay.front() == Some(h) {
            self.replay.pop_front();
            return true;
        }
        false
    }

    /// Appends a newly revealed challenge (event-before-state; a write
    /// failure surfaces typed so the caller can refuse the reveal).
    pub fn append(&mut self, h: &[u8; 32], e: &Scalar) -> Result<(), WalError> {
        let mut payload = Vec::with_capacity(64);
        payload.extend_from_slice(h);
        payload.extend_from_slice(&e.to_bytes());
        if let Err(err) = append_frame(&mut self.file, &payload) {
            self.stats.wal_failures += 1;
            return Err(WalError::Io(err));
        }
        self.dirty = true;
        self.stats.wal_records += 1;
        Ok(())
    }

    /// Installs a deterministic fault schedule (chaos tests): this WAL's
    /// own fsync counter decides which group sync fails.
    pub(crate) fn install_fault_fs(&mut self, fault: FaultFs) {
        self.fault = Some(fault);
    }

    /// Group fsync at a commit barrier.
    pub fn sync(&mut self) -> Result<(), WalError> {
        if self.fsync && self.dirty {
            let injected = self.fault.as_mut().map_or(Ok(()), FaultFs::on_fsync);
            if let Err(err) = injected.and_then(|()| self.file.sync_data()) {
                self.stats.wal_failures += 1;
                return Err(WalError::Io(err));
            }
            self.dirty = false;
            self.stats.wal_fsyncs += 1;
        }
        Ok(())
    }

    /// Durability counters for this WAL.
    pub fn stats(&self) -> DurabilityStats {
        self.stats
    }
}

// ---------------------------------------------------------------------------
// Canonical decoders for the ledger record types
// ---------------------------------------------------------------------------

fn expect_tag(r: &mut Reader<'_>, tag: &[u8]) -> Result<(), WalError> {
    // vg-lint: allow(ct-compare) WAL record tags are public format markers, not secrets
    if r.take(tag.len())? != tag {
        return Err(WalError::Corrupt("wrong record tag"));
    }
    Ok(())
}

impl DurableRecord for crate::ledger::RegistrationRecord {
    fn decode_canonical(bytes: &[u8]) -> Result<Self, WalError> {
        let mut r = Reader::new(bytes);
        expect_tag(&mut r, b"reg-record-v1")?;
        let voter_id = crate::ledger::VoterId(r.u64()?);
        let c_pc = r.ciphertext()?;
        let kiosk_pk = r.compressed_point()?;
        let kiosk_sig = Signature::from_bytes(&r.bytes64()?)?;
        let official_pk = r.compressed_point()?;
        let official_sig = Signature::from_bytes(&r.bytes64()?)?;
        r.finish()?;
        Ok(Self {
            voter_id,
            c_pc,
            kiosk_pk,
            kiosk_sig,
            official_pk,
            official_sig,
        })
    }
}

impl DurableRecord for crate::ledger::EnvelopeCommitment {
    fn decode_canonical(bytes: &[u8]) -> Result<Self, WalError> {
        let mut r = Reader::new(bytes);
        expect_tag(&mut r, b"env-commit-v1")?;
        let printer_pk = r.compressed_point()?;
        let challenge_hash = r.bytes32()?;
        let signature = Signature::from_bytes(&r.bytes64()?)?;
        r.finish()?;
        Ok(Self {
            printer_pk,
            challenge_hash,
            signature,
        })
    }
}

impl DurableRecord for crate::ledger::BallotRecord {
    fn decode_canonical(bytes: &[u8]) -> Result<Self, WalError> {
        let mut r = Reader::new(bytes);
        expect_tag(&mut r, b"ballot-record-v1")?;
        let credential_pk = r.compressed_point()?;
        let len = r.u64()? as usize;
        if len > MAX_FRAME {
            return Err(WalError::Corrupt("implausible ballot payload length"));
        }
        let payload = r.take(len)?.to_vec();
        let signature = Signature::from_bytes(&r.bytes64()?)?;
        r.finish()?;
        Ok(Self {
            credential_pk,
            payload,
            signature,
        })
    }
}

// ---------------------------------------------------------------------------
// Crash simulation (SIGKILL-equivalence for tests and the example)
// ---------------------------------------------------------------------------

/// What a simulated crash left behind (aggregated over sub-ledger dirs).
#[derive(Clone, Copy, Debug, Default)]
pub struct CrashReport {
    /// Complete records surviving in the truncated copy.
    pub surviving_records: u64,
    /// Records of the source log lost to the crash point.
    pub dropped_records: u64,
    /// Whether at least one file was cut mid-frame (a torn tail the
    /// reopen path must repair).
    pub torn_tail: bool,
}

impl CrashReport {
    fn merge(&mut self, other: &CrashReport) {
        self.surviving_records += other.surviving_records;
        self.dropped_records += other.dropped_records;
        self.torn_tail |= other.torn_tail;
    }
}

/// Copies a durable ledger directory as if the writing process had been
/// SIGKILLed partway through the day, keeping `keep_permille`/1000 of the
/// segment bytes.
///
/// Because every file is appended by a single writer, a kill at any
/// instant leaves each file a *prefix* of its final content — that is the
/// whole crash-state space. This helper reproduces it: segment files are
/// cut to a byte prefix (usually mid-frame, yielding a torn tail), later
/// segments are dropped entirely, and `heads.log` is cut to the heads
/// covering surviving records — mirroring the real write order, where
/// records are fsynced *before* their head is published — plus a torn
/// fragment of the next head. The reveal WAL and snapshot are prefix-cut
/// and copied respectively. Recurses over sub-ledger directories.
pub fn simulate_crash(src: &Path, dst: &Path, keep_permille: u32) -> Result<CrashReport, WalError> {
    fs::create_dir_all(dst)?;
    let mut report = CrashReport::default();
    for entry in fs::read_dir(src)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            let sub = simulate_crash(&entry.path(), &dst.join(entry.file_name()), keep_permille)?;
            report.merge(&sub);
        }
    }

    let segments = list_segments(src)?;
    if segments.is_empty() {
        return Ok(report);
    }

    // Cut the concatenated segment stream at the byte fraction.
    let sizes: Vec<u64> = segments
        .iter()
        .map(|p| fs::metadata(p).map(|m| m.len()))
        .collect::<Result<_, _>>()?;
    let total: u64 = sizes.iter().sum();
    let keep_bytes = total * keep_permille as u64 / 1000;
    let mut remaining = keep_bytes;
    let mut kept: Vec<PathBuf> = Vec::new();
    for (path, &len) in segments.iter().zip(&sizes) {
        if remaining == 0 {
            break;
        }
        let take = len.min(remaining) as usize;
        let buf = fs::read(path)?;
        let Some(name) = path.file_name() else {
            continue;
        };
        let out = dst.join(name);
        fs::write(&out, &buf[..take])?;
        kept.push(out);
        remaining -= take as u64;
    }

    // Count complete surviving frames (the prefix cut usually lands
    // mid-frame in the last kept segment).
    let mut survivors = 0u64;
    let mut torn = false;
    for (k, path) in kept.iter().enumerate() {
        let buf = fs::read(path)?;
        let mut pos = 0usize;
        loop {
            match read_frame(&buf, pos) {
                FrameRead::Frame { next, .. } => {
                    survivors += 1;
                    pos = next;
                }
                FrameRead::Eof => break,
                FrameRead::Torn => {
                    assert!(k + 1 == kept.len(), "prefix cut only tears the last file");
                    torn = true;
                    break;
                }
            }
        }
    }
    let mut originals = 0u64;
    for path in &segments {
        let (payloads, _) = {
            let buf = fs::read(path)?;
            let mut payloads = 0u64;
            let mut pos = 0usize;
            while let FrameRead::Frame { next, .. } = read_frame(&buf, pos) {
                payloads += 1;
                pos = next;
            }
            (payloads, ())
        };
        originals += payloads;
    }

    // Heads: keep the prefix describing surviving records, then leave a
    // torn fragment of the next head to exercise tail repair there too.
    let heads_src = src.join(HEADS_FILE);
    if heads_src.exists() {
        let buf = fs::read(&heads_src)?;
        let mut pos = 0usize;
        let mut keep = 0usize;
        let mut next_frame_end = None;
        while let FrameRead::Frame { payload, next } = read_frame(&buf, pos) {
            let (size, _) = decode_head(payload)?;
            if size <= survivors {
                keep = next;
                pos = next;
            } else {
                next_frame_end = Some(next);
                break;
            }
        }
        let mut out = buf[..keep].to_vec();
        if let Some(end) = next_frame_end {
            // Half of the next head made it to disk before the kill.
            let frag = keep + (end - keep) / 2;
            out.extend_from_slice(&buf[keep..frag]);
        }
        fs::write(dst.join(HEADS_FILE), &out)?;
    }

    // Reveal WAL: same byte-prefix cut as the segments.
    let reveals_src = src.join(REVEALS_FILE);
    if reveals_src.exists() {
        let buf = fs::read(&reveals_src)?;
        let cut = buf.len() as u64 * keep_permille as u64 / 1000;
        fs::write(dst.join(REVEALS_FILE), &buf[..cut as usize])?;
    }

    // The snapshot is written atomically at open, so a crash leaves the
    // previous one intact — copy verbatim.
    let snap_src = src.join(SNAPSHOT_FILE);
    if snap_src.exists() {
        fs::copy(&snap_src, dst.join(SNAPSHOT_FILE))?;
    }

    report.merge(&CrashReport {
        surviving_records: survivors,
        dropped_records: originals - survivors,
        torn_tail: torn,
    });
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::InMemoryStore;

    #[derive(Clone, Debug, PartialEq)]
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

    fn tmp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "vg-durable-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).expect("tempdir");
        d
    }

    fn notes(range: Range<u64>) -> Vec<Note> {
        range.map(Note).collect()
    }

    fn head_of(store: &DurableStore<Note>, operator: &vg_crypto::schnorr::SigningKey) -> TreeHead {
        let size = store.len() as u64;
        let root = store.root();
        // Mirror TamperEvidentLog::tree_head's message.
        let mut m = Vec::with_capacity(61);
        m.extend_from_slice(b"votegral-tree-head-v1");
        m.extend_from_slice(&size.to_le_bytes());
        m.extend_from_slice(&root);
        TreeHead {
            size,
            root,
            signature: operator.sign(&m),
        }
    }

    fn operator() -> vg_crypto::schnorr::SigningKey {
        let mut rng = vg_crypto::HmacDrbg::from_u64(11);
        vg_crypto::schnorr::SigningKey::generate(&mut rng)
    }

    #[test]
    fn reopen_rebuilds_identical_state() {
        let dir = tmp_dir("reopen");
        let op = operator();
        let root = {
            let mut store = DurableStore::<Note>::open(&dir, false).expect("open");
            store.append_batch(notes(0..100), 2);
            let head = head_of(&store, &op);
            store.persist(&head).expect("persist");
            store.root()
        };
        let store = DurableStore::<Note>::open(&dir, false).expect("reopen");
        assert_eq!(store.len(), 100);
        assert_eq!(store.root(), root);
        assert_eq!(store.durability_stats().replayed, 100);
        assert_eq!(store.get(42), Some(&Note(42)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_roots_match_in_memory() {
        let dir = tmp_dir("flat-equal");
        let mut durable = DurableStore::<Note>::open(&dir, false).expect("open");
        let mut memory = InMemoryStore::<Note>::new();
        for n in notes(0..37) {
            memory.append(n.clone());
            durable.append(n);
        }
        assert_eq!(durable.root(), memory.root());
        // Proofs are flat and interchangeable.
        let proof = durable.prove_inclusion(12);
        assert!(proof.verify(&memory.root(), 37, &Note(12), 12));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_cursor_dedups_reappends_to_original_indices() {
        let dir = tmp_dir("cursor");
        {
            let mut store = DurableStore::<Note>::open(&dir, false).expect("open");
            store.append_batch(notes(0..10), 1);
        }
        let mut store = DurableStore::<Note>::open(&dir, false).expect("reopen");
        assert!(store.replaying());
        // Byte-identical re-appends resolve to their original indices…
        assert_eq!(store.append(Note(0)), 0);
        let range = store.append_batch(notes(1..7), 2);
        assert_eq!(range, 1..7);
        // …including a batch spanning the persisted/new boundary.
        let range = store.append_batch(notes(7..14), 2);
        assert_eq!(range, 7..14);
        assert!(!store.replaying());
        assert_eq!(store.len(), 14);
        // Only the 4 genuinely new records hit the WAL.
        assert_eq!(store.durability_stats().wal_records, 4);
        let root = store.root();
        drop(store); // drain the write buffer
        let reopened = DurableStore::<Note>::open(&dir, false).expect("reopen again");
        assert_eq!(reopened.len(), 14);
        assert_eq!(reopened.root(), root);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "durable replay diverged")]
    fn replay_divergence_is_fail_stop() {
        let dir = tmp_dir("diverge");
        {
            let mut store = DurableStore::<Note>::open(&dir, false).expect("open");
            store.append_batch(notes(0..5), 1);
        }
        let mut store = DurableStore::<Note>::open(&dir, false).expect("reopen");
        store.append(Note(99));
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = tmp_dir("torn");
        {
            let mut store = DurableStore::<Note>::open(&dir, false).expect("open");
            store.append_batch(notes(0..8), 1);
        }
        // Chop the final frame in half: a crash mid-write.
        let seg = segment_path(&dir, 0);
        let len = fs::metadata(&seg).expect("meta").len();
        let f = OpenOptions::new().write(true).open(&seg).expect("open");
        f.set_len(len - 10).expect("truncate");
        drop(f);
        let mut store = DurableStore::<Note>::open(&dir, false).expect("repairing reopen");
        assert_eq!(store.len(), 7, "partial final record truncated");
        // The tail is clean: appending the lost record again works and
        // the log reads back whole.
        let mut matched = 0..0;
        for n in notes(0..8) {
            matched = matched.start..store.append(n) + 1;
        }
        assert_eq!(store.len(), 8);
        drop(store); // drain the write buffer
        let reopened = DurableStore::<Note>::open(&dir, false).expect("reopen");
        assert_eq!(reopened.len(), 8);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_hole_is_rejected() {
        let dir = tmp_dir("hole");
        {
            let mut store = DurableStore::<Note>::open(&dir, false).expect("open");
            // Enough records to roll into a second segment.
            store.append_batch(notes(0..600), 1);
            assert!(store.durability_stats().segments > 1, "needs 2+ segments");
        }
        // Flip a byte in the middle of the FIRST segment: corruption that
        // truncation must NOT repair (data follows the hole).
        let seg = segment_path(&dir, 0);
        let mut buf = fs::read(&seg).expect("read");
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        fs::write(&seg, &buf).expect("write");
        match DurableStore::<Note>::open(&dir, false) {
            Err(WalError::Corrupt(_)) => {}
            Err(e) => panic!("mid-log hole must be Corrupt, got {e}"),
            Ok(_) => panic!("mid-log hole must be rejected, but open succeeded"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn persisted_heads_check_and_survive() {
        let dir = tmp_dir("heads");
        let op = operator();
        {
            let mut store = DurableStore::<Note>::open(&dir, true).expect("open");
            store.append_batch(notes(0..5), 1);
            let head = head_of(&store, &op);
            store.persist(&head).expect("persist");
            store.append_batch(notes(5..9), 1);
            let head = head_of(&store, &op);
            store.persist(&head).expect("persist");
            let stats = store.durability_stats();
            assert_eq!(stats.heads_persisted, 2);
            assert!(stats.wal_fsyncs >= 2, "fsync mode syncs at barriers");
        }
        let store = DurableStore::<Note>::open(&dir, true).expect("reopen");
        assert_eq!(store.len(), 9);

        // A head claiming records the log does not have is corruption.
        let bogus = TreeHead {
            size: 1000,
            root: [0u8; 32],
            signature: op.sign(b"x"),
        };
        let mut payload = Vec::new();
        payload.extend_from_slice(&bogus.size.to_le_bytes());
        payload.extend_from_slice(&bogus.root);
        payload.extend_from_slice(&bogus.signature.to_bytes());
        let mut heads = OpenOptions::new()
            .append(true)
            .open(dir.join(HEADS_FILE))
            .expect("open heads");
        append_frame(&mut heads, &payload).expect("append");
        drop(heads);
        drop(store);
        match DurableStore::<Note>::open(&dir, true) {
            Err(WalError::Corrupt(_)) => {}
            Err(e) => panic!("head beyond log must be Corrupt, got {e}"),
            Ok(_) => panic!("head beyond log must be rejected, but open succeeded"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_batch_and_head_boundary() {
        let dir = tmp_dir("edges");
        let mut store = DurableStore::<Note>::open(&dir, false).expect("open");
        store.append_batch(notes(0..7), 2);
        let root_before = store.root();
        let range = store.append_batch(Vec::new(), 4);
        assert_eq!(range, 7..7);
        assert_eq!(store.root(), root_before, "empty batch moves nothing");
        // Exact head-boundary indexing, as on the other backends.
        let proof = store.prove_inclusion(6);
        assert!(proof.verify(&store.root(), 7, &Note(6), 6));
        assert!(!proof.verify(&store.root(), 7, &Note(6), 7));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulate_crash_sweeps_are_reopenable() {
        let dir = tmp_dir("sim");
        let op = operator();
        let full_root = {
            let mut store = DurableStore::<Note>::open(&dir, false).expect("open");
            store.append_batch(notes(0..800), 2);
            let head = head_of(&store, &op);
            store.persist(&head).expect("persist");
            store.root()
        };
        let mut any_torn = false;
        // Fractions chosen so at least one cut lands mid-frame (frames
        // here are 20 bytes; a multiple-of-5 permille over 16000 bytes
        // would always cut on a frame boundary).
        for permille in [101u32, 333, 507, 761, 931] {
            let crashed = tmp_dir(&format!("sim-{permille}"));
            let report = simulate_crash(&dir, &crashed, permille).expect("simulate");
            any_torn |= report.torn_tail;
            assert_eq!(report.surviving_records + report.dropped_records, 800);
            let mut store = DurableStore::<Note>::open(&crashed, false).expect("reopen");
            assert_eq!(store.len() as u64, report.surviving_records);
            // Re-running the original append sequence replays the
            // survivors and re-appends the lost tail…
            let range = store.append_batch(notes(0..800), 2);
            assert_eq!(range, 0..800);
            // …to the exact same head as the uncrashed log.
            assert_eq!(store.root(), full_root, "keep {permille}‰");
            let _ = fs::remove_dir_all(&crashed);
        }
        assert!(any_torn, "the sweep must include a mid-frame cut");
        let _ = fs::remove_dir_all(&dir);
    }
}
