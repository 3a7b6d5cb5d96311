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
//! order, and every file that was open for append when the process died
//! — the final segment, `heads.log`, `reveals.log` — is truncated at its
//! first incomplete or checksum-failing frame (a crash mid-`write` is
//! expected, and the sticky poison below guarantees the writer never
//! appended past one). A bad frame in a *non-final* segment — a mid-log
//! hole — is a hard error, because append-only writes cannot produce
//! it. The persisted snapshot and the last persisted signed head are
//! both cross-checked against the replayed tree ([`MerkleLog::root_of`])
//! before the store accepts the directory.
//!
//! Every log file is written through one private `FrameLog`: one append,
//! one `sync_data`, one [`FaultFs`] consult per write and per fsync, and
//! one poison rule — the first failed write or sync on a file makes
//! every later append and sync of that file a [`WalError::Poisoned`].
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
/// Append-path IO errors surface *typed*, not as panics: a failed write
/// or fsync poisons its log file ([`WalError::Poisoned`]) so no head
/// covering the unpersisted bytes can ever be published and no reveal
/// acknowledged past a torn frame — the next [`LedgerStore::persist`]
/// barrier returns the error and the caller aborts the day cleanly
/// instead of the process dying mid-request. A restart then reopens the
/// directory and replays the clean prefix the disk actually holds.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Structural corruption that torn-tail truncation cannot repair.
    Corrupt(&'static str),
    /// A complete, checksummed frame whose payload fails canonical
    /// decoding — the log was written by something other than this codec.
    Codec(CryptoError),
    /// An earlier append or sync of this log file already failed; it
    /// refuses every further append and barrier until the process
    /// restarts and replays the on-disk prefix. Carries the original
    /// failure's description.
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
    /// WAL write or fsync failures observed (each one poisons its log
    /// file; nonzero means the day ran degraded and aborted typed).
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
/// reproducing the exact same failure). Every log file — a store's
/// segment stream, its `heads.log`, the envelope ledger's `reveals.log`
/// — counts its own writes and fsyncs from 0, so a fault fires once on
/// each file that gets that far.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsFault {
    /// The file's `nth` frame write (0-based) fails with an injected IO
    /// error before any byte lands.
    FailWrite {
        /// 0-based write index at which the fault fires.
        nth: u64,
    },
    /// The file's `nth` frame write persists only the first `keep` bytes
    /// of the frame, then fails — a torn write the torn-tail repair path
    /// must truncate away on reopen.
    ShortWrite {
        /// 0-based write index at which the fault fires.
        nth: u64,
        /// Bytes of the frame that reach the file before the failure.
        keep: usize,
    },
    /// Every frame write from the file's `nth` on fails with `ENOSPC`.
    DiskFull {
        /// 0-based write index from which the disk reports full.
        nth: u64,
    },
    /// The file's `nth` fsync (group sync at a commit barrier or segment
    /// roll) fails with an injected IO error.
    FailFsync {
        /// 0-based fsync index at which the fault fires.
        nth: u64,
    },
}

/// A deterministic write-layer fault schedule installed on a
/// [`DurableStore`] (via [`crate::ledger::Ledger::install_fault_fs`] or
/// [`LedgerStore::install_fault_fs`]); every log file gets its own clone.
/// Decisions depend only on the schedule and the file's own write/fsync
/// counters, so a given seed replays the identical failure on every run.
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

    /// Decides one write: proceed (`None`), persist only a prefix of the
    /// frame and then fail (`Some(keep)`), or fail outright.
    fn on_write(&mut self) -> std::io::Result<Option<usize>> {
        let n = self.writes;
        self.writes += 1;
        for f in &self.faults {
            match *f {
                FsFault::FailWrite { nth } if nth == n => {
                    return Err(std::io::Error::other("injected WAL write failure"));
                }
                FsFault::ShortWrite { nth, keep } if nth == n => return Ok(Some(keep)),
                FsFault::DiskFull { nth } if n >= nth => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::StorageFull,
                        "injected ENOSPC",
                    ));
                }
                _ => {}
            }
        }
        Ok(None)
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

/// The frame starting at `pos` — its payload and the offset just past it
/// — or `None` where no complete, checksum-valid frame starts: at the
/// clean end of the buffer, or at a torn frame.
fn read_frame(buf: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    if pos + FRAME_HEADER > buf.len() {
        return None;
    }
    let len = match buf[pos..pos + 4].try_into() {
        Ok(b) => u32::from_le_bytes(b) as usize,
        Err(_) => return None,
    };
    if len > MAX_FRAME || pos + FRAME_HEADER + len > buf.len() {
        return None;
    }
    let payload = &buf[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
    if frame_checksum(payload) != buf[pos + 4..pos + 12] {
        return None;
    }
    Some((payload, pos + FRAME_HEADER + len))
}

/// The one frame scanner: yields the payload of every complete,
/// checksum-valid frame of a file's bytes, in order, stopping at the
/// first position where none starts. `valid` is the byte length of the
/// good prefix scanned so far.
struct Frames<'a> {
    buf: &'a [u8],
    valid: usize,
}

impl<'a> Frames<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, valid: 0 }
    }

    /// After the scan ran out: whether it stopped at a torn frame (bytes
    /// remain past the good prefix) rather than at the clean end.
    fn torn(&self) -> bool {
        self.valid < self.buf.len()
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (payload, next) = read_frame(self.buf, self.valid)?;
        self.valid = next;
        Some(payload)
    }
}

/// Replays one log file through `each`, returning the valid byte length
/// (0 for a missing file). A torn frame ends the replay: where a crash
/// mid-`write` can have produced it (`may_tear` — the tail of the final
/// segment, of `heads.log` and of `reveals.log`) the file is physically
/// truncated there so appends resume from a clean tail; anywhere else it
/// is a mid-log hole.
fn replay_file(
    path: &Path,
    may_tear: bool,
    mut each: impl FnMut(&[u8]) -> Result<(), WalError>,
) -> Result<u64, WalError> {
    let buf = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e.into()),
    };
    let mut frames = Frames::new(&buf);
    for payload in &mut frames {
        each(payload)?;
    }
    if frames.torn() {
        if !may_tear {
            return Err(WalError::Corrupt(
                "mid-log hole: corrupt frame in a non-final segment",
            ));
        }
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(frames.valid as u64)?;
    }
    Ok(frames.valid as u64)
}

// ---------------------------------------------------------------------------
// FrameLog: the one writer under segments, heads and reveals
// ---------------------------------------------------------------------------

fn open_append(path: &Path) -> std::io::Result<BufWriter<File>> {
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    Ok(BufWriter::new(file))
}

/// The append side of one log file. Every durable byte outside the
/// snapshot goes through here, so this is the only place that consults
/// the fault schedule, calls `sync_data` on a log, counts, and poisons.
struct FrameLog {
    file: BufWriter<File>,
    /// Drain the buffer after every frame (heads, reveals). Segments
    /// leave it off: a frame append costs a memcpy, not a syscall, and
    /// the buffer drains at segment rolls, at every commit barrier, and
    /// on drop. A kill can lose buffered frames — that only ever shortens
    /// the on-disk log by a tail, which replay repairs, and `sync` drains
    /// before any head is written so heads never cover bytes the segment
    /// files don't have.
    write_through: bool,
    fsync: bool,
    dirty: bool,
    /// Injected write-layer fault schedule (chaos tests only): this
    /// file's own clone, counting this file's own writes and fsyncs.
    fault: Option<FaultFs>,
    /// First write or sync failure, sticky until restart: while set,
    /// appends and syncs stop touching the disk (the file stays a clean
    /// prefix plus at most one torn tail) and return
    /// [`WalError::Poisoned`], so nothing can be appended past a torn
    /// frame and no barrier can report bytes the file does not have.
    failed: Option<String>,
    /// `wal_records`, `wal_fsyncs` and `wal_failures` of this file.
    stats: DurabilityStats,
}

impl FrameLog {
    fn open(path: &Path, fsync: bool, write_through: bool) -> Result<Self, WalError> {
        Ok(Self {
            file: open_append(path)?,
            write_through,
            fsync,
            dirty: false,
            fault: None,
            failed: None,
            stats: DurabilityStats::default(),
        })
    }

    /// Runs one disk operation under the poison rule.
    fn guarded(
        &mut self,
        op: impl FnOnce(&mut Self) -> std::io::Result<()>,
    ) -> Result<(), WalError> {
        if let Some(msg) = &self.failed {
            return Err(WalError::Poisoned(msg.clone()));
        }
        op(self).map_err(|e| {
            let e = WalError::Io(e);
            self.stats.wal_failures += 1;
            self.failed = Some(e.to_string());
            e
        })
    }

    fn append(&mut self, payload: &[u8]) -> Result<(), WalError> {
        self.guarded(|log| {
            let frame = frame_bytes(payload);
            let torn = match log.fault.as_mut() {
                Some(f) => f.on_write()?,
                None => None,
            };
            if let Some(keep) = torn {
                // A torn write: a prefix of the frame reaches the file,
                // then the write fails. Flushed through so the torn tail
                // is really on disk for the reopen path to repair.
                log.file.write_all(&frame[..keep.min(frame.len())])?;
                log.file.flush()?;
                return Err(std::io::Error::other(
                    "injected torn write: frame cut mid-byte",
                ));
            }
            log.file.write_all(&frame)?;
            if log.write_through {
                log.file.flush()?;
            }
            log.dirty = true;
            log.stats.wal_records += 1;
            Ok(())
        })
    }

    /// Drains the write buffer, then `sync_data`s what was appended since
    /// the last sync when fsync discipline is on.
    fn sync(&mut self) -> Result<(), WalError> {
        self.guarded(|log| {
            log.file.flush()?;
            if log.fsync && log.dirty {
                if let Some(f) = log.fault.as_mut() {
                    f.on_fsync()?;
                }
                log.file.get_ref().sync_data()?;
                log.dirty = false;
                log.stats.wal_fsyncs += 1;
            }
            Ok(())
        })
    }

    /// Continues this log in a fresh file (the segment roll); counters,
    /// fault schedule and poison carry over.
    fn roll(&mut self, path: &Path) -> Result<(), WalError> {
        self.guarded(|log| {
            log.file = open_append(path)?;
            log.dirty = false;
            Ok(())
        })
    }
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

/// A [`FrameLog`] that continues in the next segment file once the
/// current one is full.
struct SegmentWriter {
    dir: PathBuf,
    index: u64,
    bytes: u64,
    log: FrameLog,
}

impl SegmentWriter {
    fn append(&mut self, payload: &[u8]) -> Result<(), WalError> {
        if self.bytes >= SEGMENT_BYTES {
            // Seal the full segment (synced under fsync discipline so the
            // roll itself is not a durability gap) and start the next.
            self.log.sync()?;
            self.log.roll(&segment_path(&self.dir, self.index + 1))?;
            self.index += 1;
            self.bytes = 0;
        }
        self.log.append(payload)?;
        self.bytes += (FRAME_HEADER + payload.len()) as u64;
        Ok(())
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
    records: Vec<T>,
    merkle: MerkleLog,
    /// Records loaded from disk at open; indices below this are the
    /// replayable prefix.
    replayed: usize,
    /// Replay cursor: how many of the replayed records have been
    /// re-appended (matched) by the caller since open.
    matched: usize,
    writer: SegmentWriter,
    heads: FrameLog,
    last_head_size: u64,
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
        // a torn frame in an earlier one is a mid-log hole.
        let segments = list_segments(&dir)?;
        let mut records: Vec<T> = Vec::new();
        let mut merkle_log = MerkleLog::new();
        let mut tail_bytes = 0u64;
        for (k, path) in segments.iter().enumerate() {
            tail_bytes = replay_file(path, k + 1 == segments.len(), |payload| {
                let record = T::decode_canonical(payload)?;
                if record.canonical_bytes() != payload {
                    return Err(WalError::Corrupt("record re-encoding diverges"));
                }
                merkle_log.append_leaf(merkle::leaf_hash(payload));
                records.push(record);
                Ok(())
            })?;
        }

        // Persisted signed heads: torn tail tolerated, but the newest
        // surviving head must describe a prefix of the replayed log.
        let heads_path = dir.join(HEADS_FILE);
        let mut last_head_size = 0u64;
        replay_file(&heads_path, true, |payload| {
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
            Ok(())
        })?;

        // Snapshot cross-check, then rewrite for this open (atomically,
        // via rename, so a crash never leaves a half-written snapshot).
        let snap_path = dir.join(SNAPSHOT_FILE);
        if let Ok(buf) = fs::read(&snap_path) {
            if let Some(payload) = Frames::new(&buf).next() {
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
        snap.write_all(&frame_bytes(&snap_payload))?;
        if fsync {
            snap.sync_data()?;
        }
        drop(snap);
        fs::rename(&tmp, &snap_path)?;

        let index = segments.len().saturating_sub(1) as u64;
        let heads = FrameLog::open(&heads_path, fsync, true)?;
        let writer = SegmentWriter {
            log: FrameLog::open(&segment_path(&dir, index), fsync, false)?,
            dir,
            index,
            bytes: tail_bytes,
        };
        let replayed = records.len();
        Ok(Self {
            records,
            merkle: merkle_log,
            replayed,
            matched: 0,
            writer,
            heads,
            last_head_size,
        })
    }

    /// Whether the store is still matching appends against the replayed
    /// prefix (true between open and the first genuinely new append).
    pub fn replaying(&self) -> bool {
        self.matched < self.replayed
    }

    fn absorb(&mut self, record: T, payload: &[u8], leaf: Hash) -> usize {
        if self.matched < self.replayed {
            // Replay cursor: a byte-identical re-append of persisted
            // history is a no-op resolving to its original index.
            assert_eq!(
                Some(&leaf),
                self.merkle.leaf(self.matched),
                "durable replay diverged from the persisted log at index {} in {}",
                self.matched,
                self.writer.dir.display()
            );
            self.matched += 1;
            return self.matched - 1;
        }
        // Event before state: the WAL frame lands before the Merkle
        // accumulator moves. An IO error poisons the segment log instead
        // of panicking, and is deliberately not returned here: the
        // in-memory tree keeps its indices coherent for the caller, later
        // appends skip the disk (keeping the on-disk log a clean prefix),
        // and the next `persist` barrier surfaces the failure typed — no
        // head covering the lost bytes is ever published, which is the
        // durability contract.
        let _poisoned = self.writer.append(payload);
        let idx = self.merkle.append_leaf(leaf);
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
    let mut r = Reader::new(payload);
    Ok((r.u64()?, r.bytes32()?))
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
            dir: self.writer.dir.clone(),
            fsync: self.writer.log.fsync,
        }
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn persist(&mut self, head: &TreeHead) -> Result<(), WalError> {
        // Commit barrier: group-fsync the outstanding appends first,
        // publish the signed head second — the head on disk never gets
        // ahead of the records it covers. Either log's poison fails the
        // barrier: a failed append surfaces here as the segment sync's
        // `Poisoned`, a failed head write or head sync as the next head
        // append's.
        self.writer.log.sync()?;
        if head.size > self.last_head_size {
            let mut payload = Vec::with_capacity(104);
            payload.extend_from_slice(&head.size.to_le_bytes());
            payload.extend_from_slice(&head.root);
            payload.extend_from_slice(&head.signature.to_bytes());
            self.heads.append(&payload)?;
            self.heads.sync()?;
            self.last_head_size = head.size;
        }
        Ok(())
    }

    fn install_fault_fs(&mut self, fault: FaultFs) {
        // The segment stream and `heads.log` each count their own writes
        // and fsyncs from their own clone.
        self.heads.fault = Some(fault.clone());
        self.writer.log.fault = Some(fault);
    }

    fn durability_stats(&self) -> DurabilityStats {
        let (segments, heads) = (&self.writer.log.stats, &self.heads.stats);
        DurabilityStats {
            wal_records: segments.wal_records,
            wal_fsyncs: segments.wal_fsyncs + heads.wal_fsyncs,
            segments: self.writer.index + 1,
            replayed: self.replayed as u64,
            heads_persisted: heads.wal_records,
            wal_failures: segments.wal_failures + heads.wal_failures,
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
    log: FrameLog,
    replay: VecDeque<[u8; 32]>,
}

/// The persisted `H(e) → e` reveal map, in reveal order.
pub type RevealedEntries = Vec<([u8; 32], Scalar)>;

impl RevealWal {
    /// Opens the reveal WAL inside a store directory, returning the WAL
    /// and the persisted `H(e) → e` map.
    pub fn open(dir: &Path, fsync: bool) -> Result<(Self, RevealedEntries), WalError> {
        fs::create_dir_all(dir)?;
        let path = dir.join(REVEALS_FILE);
        let mut revealed = Vec::new();
        replay_file(&path, true, |payload| {
            let mut r = Reader::new(payload);
            let h = r.bytes32()?;
            let e = r.scalar()?;
            r.finish()?;
            revealed.push((h, e));
            Ok(())
        })?;
        let mut log = FrameLog::open(&path, fsync, true)?;
        log.stats.replayed = revealed.len() as u64;
        let replay = revealed.iter().map(|(h, _)| *h).collect();
        Ok((Self { log, replay }, revealed))
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
    /// failure surfaces typed so the caller can refuse the reveal, and
    /// poisons the WAL: every later reveal and barrier is refused too, so
    /// no reveal is ever acknowledged past a torn frame that reopen would
    /// truncate away).
    pub fn append(&mut self, h: &[u8; 32], e: &Scalar) -> Result<(), WalError> {
        let mut payload = Vec::with_capacity(64);
        payload.extend_from_slice(h);
        payload.extend_from_slice(&e.to_bytes());
        self.log.append(&payload)
    }

    /// Installs a deterministic fault schedule (chaos tests): this WAL's
    /// own write and fsync counters decide which operation fails.
    pub(crate) fn install_fault_fs(&mut self, fault: FaultFs) {
        self.log.fault = Some(fault);
    }

    /// Group fsync at a commit barrier.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.log.sync()
    }

    /// Durability counters for this WAL.
    pub fn stats(&self) -> DurabilityStats {
        self.log.stats
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

    // Cut the concatenated segment stream at the byte fraction, counting
    // the source's frames and the complete ones that survive (the cut
    // usually lands mid-frame in the last kept segment).
    let mut total = 0u64;
    for path in &segments {
        total += fs::metadata(path)?.len();
    }
    let mut remaining = total * keep_permille as u64 / 1000;
    let (mut originals, mut survivors, mut torn) = (0u64, 0u64, false);
    for (index, path) in segments.iter().enumerate() {
        let buf = fs::read(path)?;
        originals += Frames::new(&buf).count() as u64;
        if remaining == 0 {
            continue;
        }
        let take = (buf.len() as u64).min(remaining) as usize;
        fs::write(segment_path(dst, index as u64), &buf[..take])?;
        remaining -= take as u64;
        let mut kept = Frames::new(&buf[..take]);
        survivors += kept.by_ref().count() as u64;
        if kept.torn() {
            assert!(remaining == 0, "prefix cut only tears the last file");
            torn = true;
        }
    }

    // Heads: keep the prefix describing surviving records, then leave a
    // torn fragment of the next head to exercise tail repair there too.
    let heads_src = src.join(HEADS_FILE);
    if heads_src.exists() {
        let buf = fs::read(&heads_src)?;
        let mut heads = Frames::new(&buf);
        let mut keep = 0usize;
        while let Some(payload) = heads.next() {
            if decode_head(payload)?.0 > survivors {
                break;
            }
            keep = heads.valid;
        }
        // Half of the next head, if any, made it to disk before the kill.
        let frag = keep + (heads.valid - keep) / 2;
        fs::write(dst.join(HEADS_FILE), &buf[..frag])?;
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
    use crate::ledger::{challenge_hash, EnvelopeCommitment, Ledger, LedgerError};
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
        heads.write_all(&frame_bytes(&payload)).expect("append");
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

    #[test]
    fn fault_on_heads_log_aborts_the_barrier_and_poisons() {
        let op = operator();
        for fault in [
            FsFault::FailWrite { nth: 1 },
            FsFault::ShortWrite { nth: 1, keep: 9 },
            FsFault::FailFsync { nth: 1 },
        ] {
            let dir = tmp_dir("heads-fault");
            let first = {
                let mut store = DurableStore::<Note>::open(&dir, true).expect("open");
                // On `heads.log` alone, so the fault cannot land on a segment.
                store.heads.fault = Some(FaultFs::new(vec![fault]));
                store.append_batch(notes(0..5), 1);
                let first = head_of(&store, &op);
                store.persist(&first).expect("head 0 is written clean");
                store.append_batch(notes(5..9), 1);
                let second = head_of(&store, &op);
                let failed = store.persist(&second);
                assert!(matches!(failed, Err(WalError::Io(_))), "{fault:?}");
                assert_eq!(store.durability_stats().wal_failures, 1, "{fault:?}");
                // Sticky: the retry is refused without touching the disk.
                let retried = store.persist(&second);
                assert!(matches!(retried, Err(WalError::Poisoned(_))), "{fault:?}");
                assert_eq!(store.durability_stats().wal_failures, 1, "{fault:?}");
                first
            };
            // Reopen checks every surviving head against the segments, so
            // opening at all means no head got ahead of its records.
            let mut store = DurableStore::<Note>::open(&dir, true).expect("reopen");
            assert_eq!(store.len(), 9, "records are synced before their head");
            match fault {
                // The frame reached the file whole; only its sync failed.
                FsFault::FailFsync { .. } => assert_eq!(store.last_head_size, 9),
                _ => assert_eq!(store.last_head_size, first.size, "{fault:?}"),
            }
            store.append_batch(notes(0..12), 1);
            let head = head_of(&store, &op);
            store.persist(&head).expect("clean tail");
            drop(store);
            let store = DurableStore::<Note>::open(&dir, true).expect("reopen again");
            assert_eq!((store.len(), store.last_head_size), (12, 12), "{fault:?}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// The envelope day the `tests/fixtures/parent-pr20` directories were
    /// written with (by the commit before `FrameLog`): 56 commitments
    /// across a segment roll, three barriers, ten reveals.
    fn envelope_day(ledger: &mut Ledger) -> Vec<Scalar> {
        use vg_crypto::Rng;
        let mut rng = vg_crypto::HmacDrbg::from_u64(22);
        let printer = vg_crypto::schnorr::SigningKey::generate(&mut rng);
        let challenges: Vec<Scalar> = (0..56).map(|_| rng.scalar()).collect();
        for (i, e) in challenges.iter().enumerate() {
            let h = challenge_hash(e);
            let commitment = EnvelopeCommitment {
                printer_pk: printer.verifying_key().compress(),
                challenge_hash: h,
                signature: printer.sign(&EnvelopeCommitment::message(&h)),
            };
            ledger.envelopes.commit(commitment).expect("commits");
            if i == 29 {
                ledger.persist().expect("persist");
            }
        }
        ledger.persist().expect("persist");
        for e in &challenges[..10] {
            ledger.envelopes.reveal_challenge(e).expect("reveals");
        }
        ledger.persist().expect("persist");
        challenges
    }

    fn open_ledger(dir: &Path, fsync: bool) -> Ledger {
        let backend = LedgerBackend::Durable {
            dir: dir.to_path_buf(),
            fsync,
        };
        Ledger::with_backend(Vec::new(), backend, &mut vg_crypto::HmacDrbg::from_u64(21))
    }

    #[test]
    fn short_reveal_write_poisons_and_reopen_keeps_acknowledged_reveals() {
        let dir = tmp_dir("reveal-fault");
        let challenges = {
            let mut ledger = open_ledger(&dir, true);
            let challenges = envelope_day(&mut ledger);
            // No commitment follows, so only `reveals.log` reaches write 2:
            // reveals 10 and 11 land, reveal 12 is torn after 7 bytes.
            let torn = FsFault::ShortWrite { nth: 2, keep: 7 };
            ledger.envelopes.install_fault_fs(FaultFs::new(vec![torn]));
            let mut reveal = |i: usize| ledger.envelopes.reveal_challenge(&challenges[i]);
            reveal(10).expect("reveals");
            reveal(11).expect("reveals");
            let refused = reveal(12).expect_err("the torn write refuses the reveal");
            assert!(matches!(refused, LedgerError::Storage(_)), "{refused:?}");
            // Poisoned: a reveal accepted now would sit behind the torn
            // frame, where reopen truncates it away after the barrier
            // acknowledged it.
            let poisoned = reveal(13).expect_err("poisoned");
            assert!(
                matches!(&poisoned, LedgerError::Storage(m) if m.contains("poisoned")),
                "{poisoned:?}"
            );
            let barrier = ledger.envelopes.persist();
            assert!(matches!(barrier, Err(WalError::Poisoned(_))), "{barrier:?}");
            assert_eq!(ledger.envelopes.revealed_count(), 12);
            assert_eq!(ledger.envelopes.durability_stats().wal_failures, 1);
            challenges
        };
        let mut ledger = open_ledger(&dir, true);
        assert_eq!(ledger.envelopes.revealed_count(), 12, "all accepted");
        // Nothing after the tear: the tail is clean and takes the refused
        // reveals, which then survive a reopen.
        for e in &challenges[12..14] {
            ledger.envelopes.reveal_challenge(e).expect("reveals");
        }
        ledger.persist().expect("persist");
        drop(ledger);
        assert_eq!(open_ledger(&dir, true).envelopes.revealed_count(), 14);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn directories_written_by_the_parent_commit_reopen_to_the_same_heads() {
        let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent-pr20");
        // What the parent printed for its own clean day.
        let parent_root: Hash = [
            0xe0, 0x68, 0x83, 0x4b, 0x26, 0x13, 0x67, 0x11, 0x7c, 0x09, 0x32, 0xba, 0x92, 0xa5,
            0x47, 0x3a, 0x81, 0xd7, 0xe7, 0x2d, 0xa8, 0x70, 0x7e, 0x02, 0xf4, 0xfe, 0xb4, 0x81,
            0xa2, 0x8a, 0x81, 0xa4,
        ];
        // (directory, records and reveals the parent left in it): a clean
        // day, and `simulate_crash` at 980‰ — a whole first segment, a
        // torn second one, a torn second head and a torn tenth reveal.
        for (name, records, reveals) in [("clean", 56, 10), ("crashed", 54, 9)] {
            let dir = tmp_dir(name);
            let envelopes = dir.join("envelopes");
            fs::create_dir_all(&envelopes).expect("mkdir");
            for entry in fs::read_dir(fixtures.join(name).join("envelopes")).expect("fixture") {
                let entry = entry.expect("entry");
                fs::copy(entry.path(), envelopes.join(entry.file_name())).expect("copy");
            }
            let mut ledger = open_ledger(&dir, false);
            assert_eq!(ledger.envelopes.tree_head().size, records, "{name}");
            assert_eq!(ledger.envelopes.revealed_count(), reveals, "{name}");
            // Re-running the day dedups against what the parent persisted
            // and lands on the parent's head.
            envelope_day(&mut ledger);
            let head = ledger.envelopes.tree_head();
            assert_eq!((head.size, head.root), (56, parent_root), "{name}");
            assert_eq!(ledger.envelopes.revealed_count(), 10, "{name}");
            let written = ledger.envelopes.durability_stats().wal_records;
            assert_eq!(written, (56 - records) + (10 - reveals as u64), "{name}");
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
