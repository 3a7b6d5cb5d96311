//! Durable crash-recoverable storage backend: one write-ahead record
//! log per store, persisted signed tree heads, snapshot verification and
//! replay-cursor reopen.
//!
//! [`DurableStore`] implements [`LedgerStore`] over one append-only file
//! of length-prefixed, checksummed frames carrying each record's
//! canonical byte encoding (the same injective encoding the Merkle leaves
//! hash, so disk and tree can never disagree about content). The write
//! discipline is **event-before-state**: a record's frame is written to
//! the record log before the in-memory Merkle accumulator absorbs its
//! leaf, so a process killed at any instant leaves the disk a
//! superset-or-equal of the published state, never behind it. The only
//! fsyncs are the commit barrier's ([`LedgerStore::persist`]: the record
//! log first, the signed head that covers it second), which is where the
//! commit sequencer's admission sweep calls it. Nothing is acknowledged
//! before a barrier, so nothing above the last persisted head is owed to
//! anyone.
//!
//! Reopen is snapshot-load + replay, **anchored on the last persisted
//! head**: the record log and `heads.log` are first scanned without
//! modifying anything, one frame at a time, and the persisted snapshot
//! and every persisted signed head are cross-checked against the
//! replayed tree ([`MerkleLog::root_of`]). A file's first incomplete or
//! checksum-failing frame ends its scan (a crash mid-`write` is expected,
//! and the sticky poison below guarantees the writer never appended past
//! one); it is truncated away as a torn tail only if the valid prefix
//! still reaches the last persisted head's size. A bad frame *below*
//! that head is a hard [`WalError::Corrupt`] with every file left at its
//! original length — truncation never un-says an acknowledged record.
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
use std::io::{BufReader, BufWriter, Read, Write};
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

/// Hard ceiling on a single frame payload; a length prefix above this is
/// corruption, not data.
pub const MAX_FRAME: usize = 1 << 24;

const FRAME_HEADER: usize = 4 + 8;
/// A store's one record log. The name is what the first file of the
/// rolled-segment layout was called: `bench/e2e`'s `wal_bytes_per_rec`
/// probe sums a directory's files by the `seg-` prefix.
const RECORDS_FILE: &str = "seg-000000.log";
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
/// record log, its `heads.log`, the envelope ledger's `reveals.log` —
/// counts its own writes and fsyncs from 0, so a fault fires once on
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
    /// The file's `nth` fsync (every one is part of a commit barrier)
    /// fails with an injected IO error.
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

/// Reads up to `n` bytes of `src` into `buf` (cleared first), returning
/// how many the source had. Grows `buf` only by what was read, so a
/// corrupt length prefix cannot allocate more than the file holds.
fn read_up_to(src: &mut impl Read, buf: &mut Vec<u8>, n: usize) -> std::io::Result<usize> {
    buf.clear();
    src.by_ref().take(n as u64).read_to_end(buf)
}

/// The one frame scanner: passes the payload of every complete,
/// checksum-valid frame of a log file to `each`, in order, holding one
/// frame at a time and modifying nothing, and stops at the first position
/// where no such frame starts. At the clean end of the file (or with no
/// file) that is `None`; at a torn frame it is the length of the valid
/// prefix before it — what [`truncate_tail`] cuts the file back to once
/// the caller has decided the tear is a tail.
fn scan_file(
    path: &Path,
    mut each: impl FnMut(&[u8]) -> Result<(), WalError>,
) -> Result<Option<u64>, WalError> {
    let mut src = match File::open(path) {
        Ok(file) => BufReader::new(file),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let (mut header, mut payload, mut valid) = (Vec::new(), Vec::new(), 0u64);
    loop {
        if read_up_to(&mut src, &mut header, FRAME_HEADER)? == 0 {
            return Ok(None);
        }
        // A header the file ends inside has a short checksum, which
        // matches nothing.
        let Some((len, sum)) = header.split_first_chunk::<4>() else {
            return Ok(Some(valid));
        };
        let len = u32::from_le_bytes(*len) as usize;
        if len > MAX_FRAME
            || read_up_to(&mut src, &mut payload, len)? < len
            || frame_checksum(&payload) != *sum
        {
            return Ok(Some(valid));
        }
        valid += (FRAME_HEADER + len) as u64;
        each(&payload)?;
    }
}

/// Physically truncates the torn tail a scan found, so appends resume
/// from a clean end.
fn truncate_tail(path: &Path, torn_at: Option<u64>) -> std::io::Result<()> {
    match torn_at {
        Some(valid) => OpenOptions::new().write(true).open(path)?.set_len(valid),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// FrameLog: the one writer under records, heads and reveals
// ---------------------------------------------------------------------------

/// The append side of one log file. Every durable byte outside the
/// snapshot goes through here, so this is the only place that consults
/// the fault schedule, calls `sync_data` on a log, counts, and poisons.
struct FrameLog {
    file: BufWriter<File>,
    /// Drain the buffer after every frame (heads, reveals). The record
    /// log leaves it off: a frame append costs a memcpy, not a syscall,
    /// and the buffer drains when full, at every commit barrier, and on
    /// drop. A kill can lose buffered frames — that only ever shortens
    /// the on-disk log by a tail, which replay repairs, and `sync` drains
    /// before any head is written so heads never cover bytes the record
    /// log doesn't have.
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
            file: BufWriter::new(OpenOptions::new().create(true).append(true).open(path)?),
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
    dir: PathBuf,
    log: FrameLog,
    heads: FrameLog,
    last_head_size: u64,
}

impl<T: DurableRecord> DurableStore<T> {
    /// Opens (or creates) a durable log rooted at `dir`: replays the
    /// record log, cross-checks the snapshot and every persisted signed
    /// head against the rebuilt tree, truncates torn tails above the last
    /// persisted head, and rewrites the start-of-day snapshot.
    pub fn open(dir: impl Into<PathBuf>, fsync: bool) -> Result<Self, WalError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)? {
            let name = entry?.file_name();
            if name != RECORDS_FILE && name.to_string_lossy().starts_with("seg-") {
                return Err(WalError::Corrupt(
                    "directory holds rolled segment files: not a one-record-log store",
                ));
            }
        }

        // Scan first, modify nothing: whether a torn frame is a tail to
        // cut or an acknowledged record lost is only known once the
        // persisted heads have been read.
        let records_path = dir.join(RECORDS_FILE);
        let mut records: Vec<T> = Vec::new();
        let mut merkle_log = MerkleLog::new();
        let records_torn = scan_file(&records_path, |payload| {
            let record = T::decode_canonical(payload)?;
            if record.canonical_bytes() != payload {
                return Err(WalError::Corrupt("record re-encoding diverges"));
            }
            merkle_log.append_leaf(merkle::leaf_hash(payload));
            records.push(record);
            Ok(())
        })?;

        // Persisted signed heads: every surviving head must describe a
        // prefix of the replayed log. Records are synced before the head
        // that covers them is written, so a head beyond the valid prefix
        // means an acknowledged frame went bad — never a torn tail.
        let heads_path = dir.join(HEADS_FILE);
        let mut last_head_size = 0u64;
        let heads_torn = scan_file(&heads_path, |payload| {
            let (size, root) = decode_head(payload)?;
            if size < last_head_size {
                return Err(WalError::Corrupt("persisted head sizes regress"));
            }
            if size as usize > records.len() {
                return Err(WalError::Corrupt(match records_torn {
                    Some(_) => "corrupt record frame below the last persisted head",
                    None => "persisted head beyond the log",
                }));
            }
            if merkle_log.root_of(size as usize) != root {
                return Err(WalError::Corrupt("persisted head root mismatch"));
            }
            last_head_size = size;
            Ok(())
        })?;

        let snap_path = dir.join(SNAPSHOT_FILE);
        scan_file(&snap_path, |payload| {
            let (size, root) = decode_head(payload)?;
            if size as usize > records.len() || merkle_log.root_of(size as usize) != root {
                return Err(WalError::Corrupt("snapshot disagrees with the log"));
            }
            Ok(())
        })?;

        // The directory is accepted: whatever is torn sits above the last
        // persisted head, so cut it, and rewrite the snapshot for this
        // open (atomically, via rename, so a crash never leaves a
        // half-written one).
        truncate_tail(&records_path, records_torn)?;
        truncate_tail(&heads_path, heads_torn)?;
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

        let replayed = records.len();
        Ok(Self {
            records,
            merkle: merkle_log,
            replayed,
            matched: 0,
            log: FrameLog::open(&records_path, fsync, false)?,
            heads: FrameLog::open(&heads_path, fsync, true)?,
            dir,
            last_head_size,
        })
    }

    /// Whether the store is still matching appends against the replayed
    /// prefix (true between open and the first genuinely new append).
    #[cfg(test)]
    fn replaying(&self) -> bool {
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
                self.dir.display()
            );
            self.matched += 1;
            return self.matched - 1;
        }
        // Event before state: the WAL frame lands before the Merkle
        // accumulator moves. An IO error poisons the record log instead
        // of panicking, and is deliberately not returned here: the
        // in-memory tree keeps its indices coherent for the caller, later
        // appends skip the disk (keeping the on-disk log a clean prefix),
        // and the next `persist` barrier surfaces the failure typed — no
        // head covering the lost bytes is ever published, which is the
        // durability contract.
        let _poisoned = self.log.append(payload);
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
            dir: self.dir.clone(),
            fsync: self.log.fsync,
        }
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn persist(&mut self, head: &TreeHead) -> Result<(), WalError> {
        // Commit barrier: group-fsync the outstanding appends first,
        // publish the signed head second — the head on disk never gets
        // ahead of the records it covers. Either log's poison fails the
        // barrier: a failed append surfaces here as the record sync's
        // `Poisoned`, a failed head write or head sync as the next head
        // append's.
        self.log.sync()?;
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
        // The record log and `heads.log` each count their own writes and
        // fsyncs from their own clone.
        self.heads.fault = Some(fault.clone());
        self.log.fault = Some(fault);
    }

    fn durability_stats(&self) -> DurabilityStats {
        let (records, heads) = (&self.log.stats, &self.heads.stats);
        DurabilityStats {
            wal_records: records.wal_records,
            wal_fsyncs: records.wal_fsyncs + heads.wal_fsyncs,
            replayed: self.replayed as u64,
            heads_persisted: heads.wal_records,
            wal_failures: records.wal_failures + heads.wal_failures,
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
        let torn = scan_file(&path, |payload| {
            let mut r = Reader::new(payload);
            let h = r.bytes32()?;
            let e = r.scalar()?;
            r.finish()?;
            revealed.push((h, e));
            Ok(())
        })?;
        // No head counts reveals, so there is nothing to anchor on: the
        // first bad frame is taken as the tail (the poison rule is what
        // keeps a crash from acknowledging a reveal behind one).
        truncate_tail(&path, torn)?;
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

/// Writes the first `n` bytes of `src` to `dst`.
fn copy_prefix(src: &Path, dst: &Path, n: u64) -> std::io::Result<()> {
    std::io::copy(&mut File::open(src)?.take(n), &mut File::create(dst)?)?;
    Ok(())
}

/// Copies a durable ledger directory as if the writing process had been
/// SIGKILLed partway through the day, keeping `keep_permille`/1000 of the
/// record-log bytes.
///
/// Because every file is appended by a single writer, a kill at any
/// instant leaves each file a *prefix* of its final content — that is the
/// whole crash-state space. This helper reproduces it: the record log is
/// cut to a byte prefix (usually mid-frame, yielding a torn tail), and
/// `heads.log` is cut to the heads covering surviving records —
/// mirroring the real write order, where records are fsynced *before*
/// their head is published — plus a torn fragment of the next head. The
/// reveal WAL and snapshot are prefix-cut and copied respectively.
/// Recurses over sub-ledger directories.
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

    let records_src = src.join(RECORDS_FILE);
    if !records_src.exists() {
        return Ok(report);
    }
    let permille = |len: u64| len * keep_permille as u64 / 1000;

    // Cut the record log at the byte fraction, counting the source's
    // frames and the complete ones that survive (the cut usually lands
    // mid-frame).
    let cut = permille(fs::metadata(&records_src)?.len());
    let (mut originals, mut survivors, mut end, mut boundary) = (0u64, 0u64, 0u64, 0u64);
    scan_file(&records_src, |payload| {
        originals += 1;
        end += (FRAME_HEADER + payload.len()) as u64;
        if end <= cut {
            (survivors, boundary) = (originals, end);
        }
        Ok(())
    })?;
    copy_prefix(&records_src, &dst.join(RECORDS_FILE), cut)?;

    // Heads: keep the prefix describing surviving records, then leave a
    // torn fragment of the next head to exercise tail repair there too.
    let heads_src = src.join(HEADS_FILE);
    if heads_src.exists() {
        let (mut end, mut keep, mut next) = (0u64, 0u64, None);
        scan_file(&heads_src, |payload| {
            end += (FRAME_HEADER + payload.len()) as u64;
            if decode_head(payload)?.0 <= survivors {
                keep = end;
            } else {
                next.get_or_insert(end);
            }
            Ok(())
        })?;
        // Half of the next head, if any, made it to disk before the kill.
        let frag = keep + (next.unwrap_or(keep) - keep) / 2;
        copy_prefix(&heads_src, &dst.join(HEADS_FILE), frag)?;
    }

    // Reveal WAL: same byte-prefix cut as the record log.
    let reveals_src = src.join(REVEALS_FILE);
    if reveals_src.exists() {
        let cut = permille(fs::metadata(&reveals_src)?.len());
        copy_prefix(&reveals_src, &dst.join(REVEALS_FILE), cut)?;
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
        torn_tail: boundary < cut,
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
        let seg = dir.join(RECORDS_FILE);
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
    fn corrupt_frame_is_an_error_below_the_last_head_and_a_tail_above_it() {
        let dir = tmp_dir("anchor");
        let op = operator();
        let full_root = {
            let mut store = DurableStore::<Note>::open(&dir, false).expect("open");
            store.append_batch(notes(0..40), 1);
            let head = head_of(&store, &op);
            store.persist(&head).expect("persist");
            store.append_batch(notes(40..60), 1);
            store.root()
        };
        let path = dir.join(RECORDS_FILE);
        let clean = fs::read(&path).expect("read");
        let heads = fs::read(dir.join(HEADS_FILE)).expect("read");
        // A `Note` frame is 20 bytes; flip one payload byte of frame `k`.
        let flipped = |k: usize| {
            let mut buf = clean.clone();
            buf[k * 20 + 15] ^= 0xFF;
            buf
        };

        // Frame 10 is covered by the persisted head of size 40: the
        // record was acknowledged, so this is corruption, and nothing on
        // disk is touched — not even the 49 good frames after the hole.
        fs::write(&path, flipped(10)).expect("write");
        match DurableStore::<Note>::open(&dir, false) {
            Err(WalError::Corrupt(_)) => {}
            Err(e) => panic!("a bad frame below the head must be Corrupt, got {e}"),
            Ok(_) => panic!("a bad frame below the head must be rejected, but open succeeded"),
        }
        assert_eq!(fs::read(&path).expect("read"), flipped(10), "untouched");
        assert_eq!(fs::read(dir.join(HEADS_FILE)).expect("read"), heads);

        // The same flip in frame 45, above the head: no barrier ever
        // covered it, so it is a torn tail — cut there and carry on.
        fs::write(&path, flipped(45)).expect("write");
        let mut store = DurableStore::<Note>::open(&dir, false).expect("tail repair");
        assert_eq!((store.len(), store.last_head_size), (45, 40));
        assert_eq!(fs::metadata(&path).expect("meta").len(), 45 * 20);
        assert_eq!(store.append_batch(notes(0..60), 1), 0..60);
        assert_eq!(store.root(), full_root);
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
                // On `heads.log` alone, so the fault cannot land on a record.
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
            // Reopen checks every surviving head against the records, so
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

    /// One step of [`EnvelopeDay`]: a commitment (one record-log write),
    /// a reveal (one `reveals.log` write), or a commit barrier (the
    /// record log's fsync, a `heads.log` write and fsync if the log grew,
    /// the reveal log's fsync).
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Commit(usize),
        Reveal(usize),
        Barrier,
    }

    /// The envelope day the `tests/fixtures/parent-pr20` directories were
    /// written with (by the commit before `FrameLog`, which rolled to a
    /// second file after the 54th commitment): 56 commitments with a
    /// barrier after the 30th and the last, then ten reveals and a
    /// barrier.
    struct EnvelopeDay {
        commitments: Vec<EnvelopeCommitment>,
        challenges: Vec<Scalar>,
    }

    impl EnvelopeDay {
        fn new() -> Self {
            use vg_crypto::Rng;
            let mut rng = vg_crypto::HmacDrbg::from_u64(22);
            let printer = vg_crypto::schnorr::SigningKey::generate(&mut rng);
            let challenges: Vec<Scalar> = (0..56).map(|_| rng.scalar()).collect();
            let commitments = challenges
                .iter()
                .map(|e| {
                    let h = challenge_hash(e);
                    EnvelopeCommitment {
                        printer_pk: printer.verifying_key().compress(),
                        challenge_hash: h,
                        signature: printer.sign(&EnvelopeCommitment::message(&h)),
                    }
                })
                .collect();
            Self {
                commitments,
                challenges,
            }
        }

        fn steps() -> Vec<Step> {
            let mut steps: Vec<Step> = (0..30).map(Step::Commit).collect();
            steps.push(Step::Barrier);
            steps.extend((30..56).map(Step::Commit));
            steps.push(Step::Barrier);
            steps.extend((0..10).map(Step::Reveal));
            steps.push(Step::Barrier);
            steps
        }

        fn run(&self, ledger: &mut Ledger, step: Step) -> Result<(), LedgerError> {
            match step {
                Step::Commit(i) => ledger
                    .envelopes
                    .commit(self.commitments[i].clone())
                    .map(drop),
                Step::Reveal(i) => ledger.envelopes.reveal_challenge(&self.challenges[i]),
                Step::Barrier => ledger.persist().map_err(LedgerError::from),
            }
        }

        /// The whole day on a healthy disk.
        fn run_clean(&self, ledger: &mut Ledger) {
            for step in Self::steps() {
                self.run(ledger, step).expect("a clean day");
            }
        }
    }

    fn envelope_day(ledger: &mut Ledger) -> Vec<Scalar> {
        let day = EnvelopeDay::new();
        day.run_clean(ledger);
        day.challenges
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

    /// The newest head `heads.log` holds, read with the one scanner.
    fn last_persisted_head(dir: &Path) -> (u64, Hash) {
        let mut last = (0, merkle::empty_root());
        scan_file(&dir.join(HEADS_FILE), |payload| {
            last = decode_head(payload)?;
            Ok(())
        })
        .expect("heads scan");
        last
    }

    /// Crash points enumerated, not sampled: every write of the day torn
    /// at every byte class, and every barrier's first fsync failed. Each
    /// fault is armed right before the step it is meant for, so `nth: 0`
    /// is that step's own write — the day's k-th, whichever of the three
    /// files it lands on — or that barrier's first sync (the record
    /// log's, or the reveal log's at the last barrier; a failed head sync
    /// leaves the same bytes as tearing the next write at 0 and is driven
    /// directly by `fault_on_heads_log_aborts_the_barrier_and_poisons`).
    #[test]
    fn every_crash_point_of_the_envelope_day_reopens_to_an_acknowledged_prefix() {
        let day = EnvelopeDay::new();
        let steps = EnvelopeDay::steps();
        let mut reference = MerkleLog::new();
        for c in &day.commitments {
            reference.append(&c.canonical_bytes());
        }
        let mut cases = Vec::new();
        for (k, step) in steps.iter().enumerate() {
            let frame = FRAME_HEADER
                + match step {
                    Step::Commit(i) => day.commitments[*i].canonical_bytes().len(),
                    Step::Reveal(_) => 64,
                    Step::Barrier => 104,
                };
            // Nothing, inside the length, inside the checksum, header
            // complete, mid-payload, all but one byte.
            for keep in [0, 2, 8, FRAME_HEADER, (FRAME_HEADER + frame) / 2, frame - 1] {
                cases.push((k, FsFault::ShortWrite { nth: 0, keep }));
            }
            if matches!(step, Step::Barrier) {
                cases.push((k, FsFault::FailFsync { nth: 0 }));
            }
        }

        let mut aborted = 0;
        for (k, fault) in cases {
            let dir = tmp_dir("enumerated");
            // The poisoned day stops at the first refusal, as a caller
            // would; what it was told is durable is what the last barrier
            // that returned `Ok` covered.
            let (mut acked_size, mut acked_reveals, mut reveals) = (0, 0, 0);
            let mut ledger = open_ledger(&dir, true);
            for (i, step) in steps.iter().enumerate() {
                if i == k {
                    ledger.envelopes.install_fault_fs(FaultFs::new(vec![fault]));
                }
                if day.run(&mut ledger, *step).is_err() {
                    aborted += 1;
                    break;
                }
                match step {
                    Step::Commit(_) => {}
                    Step::Reveal(_) => reveals += 1,
                    Step::Barrier => {
                        acked_size = ledger.envelopes.tree_head().size;
                        acked_reveals = reveals;
                    }
                }
            }
            drop(ledger);

            let case = format!("step {k} ({:?}), {fault:?}", steps[k]);
            let mut ledger = open_ledger(&dir, true);
            let (size, root) = last_persisted_head(&dir.join("envelopes"));
            assert!(size >= acked_size, "{case}: an acknowledged head is lost");
            assert_eq!(root, reference.root_of(size as usize), "{case}");
            let replayed = ledger.envelopes.tree_head();
            assert!(replayed.size >= size, "{case}");
            assert_eq!(replayed.root, reference.root_of(replayed.size as usize));
            let kept = ledger.envelopes.revealed_count();
            assert!(
                kept >= acked_reveals,
                "{case}: an acknowledged reveal is lost"
            );

            // The re-run lands on the reference, and leaves clean files.
            day.run_clean(&mut ledger);
            drop(ledger);
            let ledger = open_ledger(&dir, true);
            let head = ledger.envelopes.tree_head();
            assert_eq!((head.size, head.root), (56, reference.root()), "{case}");
            assert_eq!(ledger.envelopes.revealed_count(), 10, "{case}");
            assert_eq!(last_persisted_head(&dir.join("envelopes")).0, 56, "{case}");
            let _ = fs::remove_dir_all(&dir);
        }
        // Every case but the six that arm a torn write before the last
        // barrier, which writes no head.
        assert_eq!(aborted, (56 + 2 + 10) * 6 + 3);
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
            // As the parent left it — two segment files — the directory is
            // refused whole, never read as its first file alone.
            let as_it_stands = DurableStore::<EnvelopeCommitment>::open(&envelopes, false);
            assert!(
                matches!(as_it_stands, Err(WalError::Corrupt(_))),
                "{name}: a rolled directory must be refused typed"
            );
            // The same frames as one record log: the second file's bytes
            // after the first's, every other file untouched.
            let rolled = envelopes.join("seg-000001.log");
            let tail = fs::read(&rolled).expect("read");
            let mut log = OpenOptions::new()
                .append(true)
                .open(envelopes.join(RECORDS_FILE))
                .expect("open");
            log.write_all(&tail).expect("append");
            drop(log);
            fs::remove_file(&rolled).expect("remove");

            let mut ledger = open_ledger(&dir, false);
            assert_eq!(ledger.envelopes.tree_head().size, records, "{name}");
            assert_eq!(ledger.envelopes.revealed_count(), reveals, "{name}");
            // Re-running the day dedups against what the parent persisted
            // and lands on the parent's head, writing only what is missing.
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
