//! The durable backend: one write-ahead record log per store, persisted
//! signed tree heads, snapshot verification and replay-cursor reopen.
//!
//! A durable [`TamperEvidentLog`](crate::TamperEvidentLog) keeps its records and tree in memory
//! like any other and writes them ahead to one append-only file
//! of length-prefixed, checksummed frames carrying each record's
//! canonical byte encoding (the same injective encoding the Merkle leaves
//! hash, so disk and tree can never disagree about content). The same
//! file carries *side frames*: opaque payloads a ledger keeps next to its
//! records (the envelope ledger's reveals), told apart by the kind in the
//! top byte of the length prefix and by a per-kind checksum domain. The
//! write discipline is **event-before-state**: a frame is written to the
//! record log before the in-memory state absorbs it, so a process killed
//! at any instant leaves the disk a superset-or-equal of the published
//! state, never behind it. The only fsyncs are the commit barrier's
//! ([`TamperEvidentLog::persist`](crate::TamperEvidentLog::persist): the record log first, the signed head that
//! covers it second, in `heads.log`), which is where the commit
//! sequencer's admission sweep calls it. Nothing is acknowledged before a
//! barrier, so nothing above the last persisted head is owed to anyone.
//!
//! Reopen is snapshot-load + replay, **anchored on the last persisted
//! head**: the record log and `heads.log` are first scanned without
//! modifying anything, one frame at a time, and the persisted snapshot
//! and every persisted signed head are cross-checked against the
//! replayed tree ([`MerkleLog::root_of`]). A file's first incomplete or
//! checksum-failing frame ends its scan (a crash mid-`write` is expected,
//! and the sticky poison below guarantees the writer never appended past
//! one). In the record log it is truncated away as a torn tail only if
//! the records before it still reach the last persisted head's size, so
//! a bad side frame followed by head-covered records is anchored too. In
//! `heads.log` it is a tail only if no later head follows it. Anything
//! else is a hard [`WalError::Corrupt`] with every file left at its
//! original length — truncation never un-says an acknowledged frame.
//!
//! Both log files are written through one private `FrameLog`: one append,
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

use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::log::{Record, TreeHead};
use crate::merkle::{self, Hash, MerkleLog};
use vg_crypto::codec::Reader;
use vg_crypto::par::par_map;
use vg_crypto::schnorr::Signature;
use vg_crypto::sha2::Sha256;
use vg_crypto::CryptoError;

/// Hard ceiling on a single frame payload: the low 24 bits of a frame's
/// `u32` length prefix (the top byte is the frame's kind).
pub const MAX_FRAME: usize = (1 << 24) - 1;

const FRAME_HEADER: usize = 4 + 8;
/// Frame kinds. Records — and every head and snapshot frame — are kind 0;
/// a side frame rides the record log without being a record. Any other
/// kind is a bad frame.
const RECORD: u8 = 0;
const SIDE: u8 = 1;
/// Every head frame's length: size ‖ root ‖ signature.
const HEAD_FRAME: u64 = (FRAME_HEADER + 104) as u64;
/// A store's one record log. The name is what the first file of the
/// rolled-segment layout was called: `bench/e2e`'s `wal_bytes_per_rec`
/// probe sums a directory's files by the `seg-` prefix.
const RECORDS_FILE: &str = "seg-000000.log";
const HEADS_FILE: &str = "heads.log";
const SNAPSHOT_FILE: &str = "snapshot.bin";

/// Errors raised opening, replaying, or writing a durable log directory.
///
/// Append-path IO errors surface *typed*, not as panics: a failed write
/// or fsync poisons its log file ([`WalError::Poisoned`]) so no head
/// covering the unpersisted bytes can ever be published and no reveal
/// acknowledged past a torn frame — the next [`TamperEvidentLog::persist`](crate::TamperEvidentLog::persist)
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

/// Durability counters for one store (all zero in memory).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Frames appended to the record log by this process: records and
    /// side frames (the envelope ledger's reveals) alike. Replay-cursor
    /// matches are free and not counted.
    pub wal_records: u64,
    /// `fsync` calls issued at commit barriers (zero when the backend
    /// runs with `fsync: false`).
    pub wal_fsyncs: u64,
    /// Frames replayed from the record log when the store was opened:
    /// records and side frames alike.
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
/// reproducing the exact same failure). A store's two log files — its
/// record log and its `heads.log` — each count their own writes and
/// fsyncs from 0, so a fault fires once on each file that gets that far.
/// The envelope ledger's record log counts its commitments and reveals
/// together: both are frames of that one file.
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

/// A deterministic write-layer fault schedule installed on a durable
/// log (via [`crate::ledger::Ledger::install_fault_fs`] or
/// [`TamperEvidentLog::install_fault_fs`](crate::TamperEvidentLog::install_fault_fs)); each of a store's two log
/// files gets its own clone.
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
            ..Self::default()
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
        if self.faults.contains(&FsFault::FailFsync { nth: n }) {
            return Err(std::io::Error::other("injected fsync failure"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Frame codec: u32 kind ‖ length, 8-byte truncated SHA-256 under the kind's
// domain, payload
// ---------------------------------------------------------------------------

/// The checksum is domain-separated by kind, so a flipped kind byte fails
/// it instead of turning a frame into another kind. Records keep the
/// original domain: record, head and snapshot frames are byte-identical
/// to those written before frames had kinds.
fn frame_checksum(kind: u8, payload: &[u8]) -> [u8; 8] {
    let mut h = Sha256::new();
    h.update(match kind {
        RECORD => b"vg-wal-frame-v1".as_slice(),
        _ => b"vg-wal-side-v1",
    });
    h.update(payload);
    let digest = h.finalize();
    std::array::from_fn(|i| digest[i])
}

/// The complete on-disk encoding of one frame.
fn frame_bytes(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_HEADER + payload.len());
    buf.extend_from_slice(&((kind as u32) << 24 | payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&frame_checksum(kind, payload));
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

/// The one frame scanner: passes the kind and payload of every complete,
/// checksum-valid frame of a log file to `each`, in order, holding one
/// frame at a time and modifying nothing, and stops at the first position
/// where no such frame starts. At the clean end of the file (or with no
/// file) that is `None`; at a torn frame it is the length of the valid
/// prefix before it — what [`truncate_tail`] cuts the file back to once
/// the caller has decided the tear is a tail.
fn scan_file(
    path: &Path,
    mut each: impl FnMut(u8, &[u8]) -> Result<(), WalError>,
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
        let Some((prefix, sum)) = header.split_first_chunk::<4>() else {
            return Ok(Some(valid));
        };
        let prefix = u32::from_le_bytes(*prefix);
        let (kind, len) = ((prefix >> 24) as u8, prefix as usize & MAX_FRAME);
        if kind > SIDE
            || read_up_to(&mut src, &mut payload, len)? < len
            || frame_checksum(kind, &payload) != *sum
        {
            return Ok(Some(valid));
        }
        valid += (FRAME_HEADER + len) as u64;
        each(kind, &payload)?;
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
// FrameLog: the one writer under the record log and heads
// ---------------------------------------------------------------------------

/// The append side of one log file. Every durable byte outside the
/// snapshot goes through here, so this is the only place that consults
/// the fault schedule, calls `sync_data` on a log, counts, and poisons.
///
/// A frame append costs a memcpy, not a syscall: the buffer drains when
/// full, at every `sync`, and on drop. A kill can lose buffered frames —
/// that only ever shortens the on-disk log by a tail, which replay
/// repairs — and the record log's `sync` drains before any head is
/// written, so heads never cover bytes the record log doesn't have.
struct FrameLog {
    file: BufWriter<File>,
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
    /// `wal_records`, `wal_fsyncs` and `wal_failures` of this file (and,
    /// for the record log, `replayed`).
    stats: DurabilityStats,
}

impl FrameLog {
    fn open(path: &Path, fsync: bool) -> Result<Self, WalError> {
        Ok(Self {
            file: BufWriter::new(OpenOptions::new().create(true).append(true).open(path)?),
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

    fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), WalError> {
        self.guarded(|log| {
            // A longer payload would spill into the kind byte.
            if payload.len() > MAX_FRAME {
                return Err(std::io::Error::other("frame payload exceeds MAX_FRAME"));
            }
            let frame = frame_bytes(kind, payload);
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
// Wal: the write-ahead side of a durable log
// ---------------------------------------------------------------------------

/// The write-ahead side of a durable [`crate::TamperEvidentLog`]: its record log,
/// its `heads.log`, the replay cursor and the side frames replayed at
/// open. The log keeps the records and the tree exactly as an in-memory
/// log does (so roots and proofs are identical); see the module docs for
/// the write discipline and the replay cursor.
pub(crate) struct Wal {
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
    /// Side frames replayed at open, in log order, until
    /// [`crate::TamperEvidentLog::take_side_frames`] hands them back.
    side: Vec<Vec<u8>>,
}

impl Wal {
    /// Opens (or creates) a durable log rooted at `dir`: replays the
    /// record log, cross-checks the snapshot and every persisted signed
    /// head against the rebuilt tree, truncates torn tails above the last
    /// persisted head, and rewrites the start-of-day snapshot. Returns the
    /// write-ahead side with the replayed records and their tree.
    pub(crate) fn open<T: DurableRecord>(
        dir: PathBuf,
        fsync: bool,
    ) -> Result<(Self, Vec<T>, MerkleLog), WalError> {
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if name == "reveals.log" || (name != RECORDS_FILE && name.starts_with("seg-")) {
                return Err(WalError::Corrupt(
                    "directory holds an older layout's rolled segment or reveal file",
                ));
            }
        }

        // Scan first, modify nothing: whether a torn frame is a tail to
        // cut or an acknowledged frame lost is only known once the
        // persisted heads have been read.
        let records_path = dir.join(RECORDS_FILE);
        let (mut records, mut side): (Vec<T>, _) = (Vec::new(), Vec::new());
        let mut merkle_log = MerkleLog::new();
        let records_torn = scan_file(&records_path, |kind, payload| {
            if kind == SIDE {
                side.push(payload.to_vec());
                return Ok(());
            }
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
        let heads_torn = scan_file(&heads_path, |kind, payload| {
            let (size, root) = decode_head(kind, payload)?;
            if size < last_head_size {
                return Err(WalError::Corrupt("persisted head sizes regress"));
            }
            if size as usize > records.len() {
                return Err(WalError::Corrupt(match records_torn {
                    Some(_) => "corrupt record-log frame below the last persisted head",
                    None => "persisted head beyond the log",
                }));
            }
            if merkle_log.root_of(size as usize) != root {
                return Err(WalError::Corrupt("persisted head root mismatch"));
            }
            last_head_size = size;
            Ok(())
        })?;
        // Each head is synced before the next is written, so a bad head
        // frame is a tear only if at most one frame's bytes follow its
        // start; with more, a later head was persisted above it.
        if let Some(valid) = heads_torn {
            if fs::metadata(&heads_path)?.len() - valid > HEAD_FRAME {
                return Err(WalError::Corrupt("corrupt head frame below a later head"));
            }
        }

        let snap_path = dir.join(SNAPSHOT_FILE);
        scan_file(&snap_path, |kind, payload| {
            let (size, root) = decode_head(kind, payload)?;
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
        snap.write_all(&frame_bytes(RECORD, &snap_payload))?;
        if fsync {
            snap.sync_data()?;
        }
        drop(snap);
        fs::rename(&tmp, &snap_path)?;

        let mut log = FrameLog::open(&records_path, fsync)?;
        log.stats.replayed = (records.len() + side.len()) as u64;
        let wal = Self {
            replayed: records.len(),
            matched: 0,
            log,
            heads: FrameLog::open(&heads_path, fsync)?,
            dir,
            last_head_size,
            side,
        };
        Ok((wal, records, merkle_log))
    }

    /// Appends a batch to a durable log's `records` and `tree`, hashing
    /// leaves with up to `threads` workers, and returns the batch's index
    /// range. Each record's frame is written ahead of the tree, or — while
    /// the replay cursor is inside the replayed prefix — matched against
    /// it: a byte-identical re-append of persisted history resolves to
    /// its original index as a no-op.
    pub(crate) fn append_batch<T: Record + Sync>(
        &mut self,
        tree: &mut MerkleLog,
        records: &mut Vec<T>,
        batch: Vec<T>,
        threads: usize,
    ) -> Range<usize> {
        let start = self.next_index(records.len());
        let encoded = par_map(&batch, threads, |r| {
            let payload = r.canonical_bytes();
            let leaf = merkle::leaf_hash(&payload);
            (payload, leaf)
        });
        for (record, (payload, leaf)) in batch.into_iter().zip(encoded) {
            if self.matched < self.replayed {
                assert_eq!(
                    Some(&leaf),
                    tree.leaf(self.matched),
                    "durable replay diverged from the persisted log at index {} in {}",
                    self.matched,
                    self.dir.display()
                );
                self.matched += 1;
                continue;
            }
            // Event before state: the WAL frame lands before the Merkle
            // accumulator moves. An IO error poisons the record log
            // instead of panicking, and is deliberately not returned
            // here: the in-memory tree keeps its indices coherent for the
            // caller, later appends skip the disk (keeping the on-disk log
            // a clean prefix), and the next `persist` barrier surfaces the
            // failure typed — no head covering the lost bytes is ever
            // published, which is the durability contract.
            let _poisoned = self.log.append(RECORD, &payload);
            tree.append_leaf(leaf);
            records.push(record);
        }
        start..self.next_index(records.len())
    }

    /// The index the next append resolves to, for a log of `len` records:
    /// the replay cursor's while it matches the persisted prefix, `len`
    /// after.
    fn next_index(&self, len: usize) -> usize {
        if self.matched < self.replayed {
            self.matched
        } else {
            len
        }
    }

    /// Commit barrier: group-fsync the outstanding appends (records and
    /// side frames) first, publish the signed head second — the head on
    /// disk never gets ahead of the records it covers. Either log's
    /// poison fails the barrier: a failed append surfaces here as the
    /// record sync's `Poisoned`, a failed head write or head sync as the
    /// next head append's.
    pub(crate) fn persist(&mut self, head: &TreeHead) -> Result<(), WalError> {
        self.log.sync()?;
        if head.size > self.last_head_size {
            let mut payload = Vec::with_capacity(104);
            payload.extend_from_slice(&head.size.to_le_bytes());
            payload.extend_from_slice(&head.root);
            payload.extend_from_slice(&head.signature.to_bytes());
            self.heads.append(RECORD, &payload)?;
            self.heads.sync()?;
            self.last_head_size = head.size;
        }
        Ok(())
    }

    /// Installs `fault` on both files: the record log and `heads.log`
    /// each count their own writes and fsyncs from their own clone.
    pub(crate) fn install_fault_fs(&mut self, fault: FaultFs) {
        self.heads.fault = Some(fault.clone());
        self.log.fault = Some(fault);
    }

    /// The store's counters, both files summed.
    pub(crate) fn stats(&self) -> DurabilityStats {
        let (records, heads) = (&self.log.stats, &self.heads.stats);
        DurabilityStats {
            wal_fsyncs: records.wal_fsyncs + heads.wal_fsyncs,
            heads_persisted: heads.wal_records,
            wal_failures: records.wal_failures + heads.wal_failures,
            ..*records
        }
    }

    /// Appends a side frame to the record log, durable at the next
    /// barrier like a record; a write failure poisons the log.
    pub(crate) fn append_side(&mut self, payload: &[u8]) -> Result<(), WalError> {
        self.log.append(SIDE, payload)
    }

    /// The side frames replayed at open, in log order; handed back once.
    pub(crate) fn take_side_frames(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.side)
    }
}

fn decode_head(kind: u8, payload: &[u8]) -> Result<(u64, Hash), WalError> {
    // size ‖ root ‖ signature — the signature rides along for external
    // auditors; the store itself verifies structure, not signatures
    // (operator keys live a layer up). The snapshot omits the signature.
    if kind != RECORD || (payload.len() != 40 && payload.len() != 104) {
        return Err(WalError::Corrupt("bad head frame"));
    }
    let mut r = Reader::new(payload);
    Ok((r.u64()?, r.bytes32()?))
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
/// record bytes.
///
/// Because every file is appended by a single writer, a kill at any
/// instant leaves each file a *prefix* of its final content — that is the
/// whole crash-state space. This helper reproduces it: the record log is
/// cut at the one offset where its record frames reach the byte fraction
/// (usually mid-frame, yielding a torn tail; side frames before the cut
/// survive, those after it are lost), and `heads.log` is cut to the heads
/// covering surviving records — mirroring the real write order, where
/// records are fsynced *before* their head is published — plus a torn
/// fragment of the next head. The snapshot is copied. Recurses over
/// sub-ledger directories; the report counts record frames only.
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
    let mut frames = Vec::new();
    scan_file(&records_src, |kind, payload| {
        frames.push((kind == RECORD, (FRAME_HEADER + payload.len()) as u64));
        Ok(())
    })?;
    let originals = frames.iter().filter(|f| f.0).count() as u64;
    let record_bytes: u64 = frames.iter().filter_map(|f| f.0.then_some(f.1)).sum();
    let cut = record_bytes * keep_permille as u64 / 1000;
    // Walk to the record frame the cut falls in: every frame before it
    // survives whole, and `cut - kept` of its bytes make the torn tail.
    let (mut kept, mut offset, mut survivors) = (0u64, 0u64, 0u64);
    for (record, len) in frames {
        if record {
            if kept + len > cut {
                break;
            }
            (kept, survivors) = (kept + len, survivors + 1);
        }
        offset += len;
    }
    copy_prefix(&records_src, &dst.join(RECORDS_FILE), offset + (cut - kept))?;

    // Heads: keep the prefix describing surviving records, then leave a
    // torn fragment of the next head to exercise tail repair there too.
    let heads_src = src.join(HEADS_FILE);
    if heads_src.exists() {
        let (mut end, mut keep, mut next) = (0u64, 0u64, None);
        scan_file(&heads_src, |kind, payload| {
            end += (FRAME_HEADER + payload.len()) as u64;
            if decode_head(kind, payload)?.0 <= survivors {
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

    // The snapshot is written atomically at open, so a crash leaves the
    // previous one intact — copy verbatim.
    let snap_src = src.join(SNAPSHOT_FILE);
    if snap_src.exists() {
        fs::copy(&snap_src, dst.join(SNAPSHOT_FILE))?;
    }

    report.merge(&CrashReport {
        surviving_records: survivors,
        dropped_records: originals - survivors,
        torn_tail: kept < cut,
    });
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{challenge_hash, EnvelopeCommitment, Ledger, LedgerError};
    use crate::log::TamperEvidentLog;
    use crate::store::LedgerBackend;
    use vg_crypto::Scalar;

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

    fn operator() -> vg_crypto::schnorr::SigningKey {
        let mut rng = vg_crypto::HmacDrbg::from_u64(11);
        vg_crypto::schnorr::SigningKey::generate(&mut rng)
    }

    /// A durable log on `dir`, or the typed error its open returned.
    fn open<T: DurableRecord + Sync>(
        dir: &Path,
        fsync: bool,
    ) -> Result<TamperEvidentLog<T>, WalError> {
        TamperEvidentLog::open(operator(), dir.to_path_buf(), fsync)
    }

    fn wal(store: &TamperEvidentLog<Note>) -> &Wal {
        store.wal.as_ref().expect("a durable log")
    }

    /// Whether the store is still matching appends against the replayed
    /// prefix (true between open and the first genuinely new append).
    fn replaying(store: &TamperEvidentLog<Note>) -> bool {
        wal(store).matched < wal(store).replayed
    }

    #[test]
    fn reopen_rebuilds_identical_state() {
        let dir = tmp_dir("reopen");
        let root = {
            let mut store = open::<Note>(&dir, false).expect("open");
            store.append_batch(notes(0..100), 2);
            store.persist().expect("persist");
            store.tree_head().root
        };
        let store = open::<Note>(&dir, false).expect("reopen");
        assert_eq!(store.len(), 100);
        assert_eq!(store.tree_head().root, root);
        assert_eq!(store.durability_stats().replayed, 100);
        assert_eq!(store.get(42), Some(&Note(42)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_roots_match_in_memory() {
        let dir = tmp_dir("flat-equal");
        let mut durable = open::<Note>(&dir, false).expect("open");
        let mut memory = TamperEvidentLog::with_backend(operator(), LedgerBackend::InMemory);
        memory.append_batch(notes(0..37), 1);
        durable.append_batch(notes(0..37), 1);
        assert_eq!(durable.tree_head().root, memory.tree_head().root);
        // Proofs are flat and interchangeable.
        let proof = durable.prove_inclusion(12);
        assert!(proof.verify(&memory.tree_head().root, 37, &Note(12), 12));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_cursor_dedups_reappends_to_original_indices() {
        let dir = tmp_dir("cursor");
        {
            let mut store = open::<Note>(&dir, false).expect("open");
            store.append_batch(notes(0..10), 1);
        }
        let mut store = open::<Note>(&dir, false).expect("reopen");
        assert!(replaying(&store));
        // Byte-identical re-appends resolve to their original indices…
        assert_eq!(store.append_batch(vec![Note(0)], 1), 0..1);
        let range = store.append_batch(notes(1..7), 2);
        assert_eq!(range, 1..7);
        // …including a batch spanning the persisted/new boundary.
        let range = store.append_batch(notes(7..14), 2);
        assert_eq!(range, 7..14);
        assert!(!replaying(&store));
        assert_eq!(store.len(), 14);
        // Only the 4 genuinely new records hit the WAL.
        assert_eq!(store.durability_stats().wal_records, 4);
        let root = store.tree_head().root;
        drop(store); // drain the write buffer
        let reopened = open::<Note>(&dir, false).expect("reopen again");
        assert_eq!(reopened.len(), 14);
        assert_eq!(reopened.tree_head().root, root);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "durable replay diverged")]
    fn replay_divergence_is_fail_stop() {
        let dir = tmp_dir("diverge");
        {
            let mut store = open::<Note>(&dir, false).expect("open");
            store.append_batch(notes(0..5), 1);
        }
        let mut store = open::<Note>(&dir, false).expect("reopen");
        store.append_batch(vec![Note(99)], 1);
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = tmp_dir("torn");
        {
            let mut store = open::<Note>(&dir, false).expect("open");
            store.append_batch(notes(0..8), 1);
        }
        // Chop the final frame in half: a crash mid-write.
        let seg = dir.join(RECORDS_FILE);
        let len = fs::metadata(&seg).expect("meta").len();
        let f = OpenOptions::new().write(true).open(&seg).expect("open");
        f.set_len(len - 10).expect("truncate");
        drop(f);
        let mut store = open::<Note>(&dir, false).expect("repairing reopen");
        assert_eq!(store.len(), 7, "partial final record truncated");
        // The tail is clean: appending the lost record again works and
        // the log reads back whole.
        for n in notes(0..8) {
            store.append_batch(vec![n], 1);
        }
        assert_eq!(store.len(), 8);
        drop(store); // drain the write buffer
        let reopened = open::<Note>(&dir, false).expect("reopen");
        assert_eq!(reopened.len(), 8);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frame_is_an_error_below_the_last_head_and_a_tail_above_it() {
        let dir = tmp_dir("anchor");
        let full_root = {
            let mut store = open::<Note>(&dir, false).expect("open");
            store.append_batch(notes(0..40), 1);
            store.persist().expect("persist");
            store.append_batch(notes(40..60), 1);
            store.tree_head().root
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
        match open::<Note>(&dir, false) {
            Err(WalError::Corrupt(_)) => {}
            Err(e) => panic!("a bad frame below the head must be Corrupt, got {e}"),
            Ok(_) => panic!("a bad frame below the head must be rejected, but open succeeded"),
        }
        assert_eq!(fs::read(&path).expect("read"), flipped(10), "untouched");
        assert_eq!(fs::read(dir.join(HEADS_FILE)).expect("read"), heads);

        // The same flip in frame 45, above the head: no barrier ever
        // covered it, so it is a torn tail — cut there and carry on.
        fs::write(&path, flipped(45)).expect("write");
        let mut store = open::<Note>(&dir, false).expect("tail repair");
        assert_eq!((store.len(), wal(&store).last_head_size), (45, 40));
        assert_eq!(fs::metadata(&path).expect("meta").len(), 45 * 20);
        assert_eq!(store.append_batch(notes(0..60), 1), 0..60);
        assert_eq!(store.tree_head().root, full_root);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn persisted_heads_check_and_survive() {
        let dir = tmp_dir("heads");
        let op = operator();
        {
            let mut store = open::<Note>(&dir, true).expect("open");
            store.append_batch(notes(0..5), 1);
            store.persist().expect("persist");
            store.append_batch(notes(5..9), 1);
            store.persist().expect("persist");
            let stats = store.durability_stats();
            assert_eq!(stats.heads_persisted, 2);
            assert!(stats.wal_fsyncs >= 2, "fsync mode syncs at barriers");
        }
        let store = open::<Note>(&dir, true).expect("reopen");
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
        heads
            .write_all(&frame_bytes(RECORD, &payload))
            .expect("append");
        drop(heads);
        drop(store);
        match open::<Note>(&dir, true) {
            Err(WalError::Corrupt(_)) => {}
            Err(e) => panic!("head beyond log must be Corrupt, got {e}"),
            Ok(_) => panic!("head beyond log must be rejected, but open succeeded"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A payload longer than `MAX_FRAME` would spill into its frame's
    /// kind byte: it is refused typed and poisons the log instead.
    #[test]
    fn oversized_frame_is_refused_and_poisons() {
        let dir = tmp_dir("oversized");
        {
            let mut store = open::<Note>(&dir, false).expect("open");
            store.append_batch(notes(0..3), 1);
            let refused = store.append_side(|| vec![0; MAX_FRAME + 1]);
            assert!(matches!(refused, Err(WalError::Io(_))), "{refused:?}");
            let barrier = store.persist();
            assert!(matches!(barrier, Err(WalError::Poisoned(_))), "{barrier:?}");
        }
        let mut store = open::<Note>(&dir, false).expect("reopen");
        assert_eq!((store.len(), store.take_side_frames().len()), (3, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_batch_and_head_boundary() {
        let dir = tmp_dir("edges");
        let mut store = open::<Note>(&dir, false).expect("open");
        store.append_batch(notes(0..7), 2);
        let root_before = store.tree_head().root;
        let range = store.append_batch(Vec::new(), 4);
        assert_eq!(range, 7..7);
        assert_eq!(
            store.tree_head().root,
            root_before,
            "empty batch moves nothing"
        );
        // Exact head-boundary indexing, as on the other backends.
        let proof = store.prove_inclusion(6);
        assert!(proof.verify(&store.tree_head().root, 7, &Note(6), 6));
        assert!(!proof.verify(&store.tree_head().root, 7, &Note(6), 7));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulate_crash_sweeps_are_reopenable() {
        let dir = tmp_dir("sim");
        let full_root = {
            let mut store = open::<Note>(&dir, false).expect("open");
            store.append_batch(notes(0..800), 2);
            store.persist().expect("persist");
            store.tree_head().root
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
            let mut store = open::<Note>(&crashed, false).expect("reopen");
            assert_eq!(store.len() as u64, report.surviving_records);
            // Re-running the original append sequence replays the
            // survivors and re-appends the lost tail…
            let range = store.append_batch(notes(0..800), 2);
            assert_eq!(range, 0..800);
            // …to the exact same head as the uncrashed log.
            assert_eq!(store.tree_head().root, full_root, "keep {permille}‰");
            let _ = fs::remove_dir_all(&crashed);
        }
        assert!(any_torn, "the sweep must include a mid-frame cut");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_on_heads_log_aborts_the_barrier_and_poisons() {
        for fault in [
            FsFault::FailWrite { nth: 1 },
            FsFault::ShortWrite { nth: 1, keep: 9 },
            FsFault::FailFsync { nth: 1 },
        ] {
            let dir = tmp_dir("heads-fault");
            let first = {
                let mut store = open::<Note>(&dir, true).expect("open");
                // On `heads.log` alone, so the fault cannot land on a record.
                let heads = &mut store.wal.as_mut().expect("a durable log").heads;
                heads.fault = Some(FaultFs::new(vec![fault]));
                store.append_batch(notes(0..5), 1);
                store.persist().expect("head 0 is written clean");
                let first = store.tree_head();
                store.append_batch(notes(5..9), 1);
                let failed = store.persist();
                assert!(matches!(failed, Err(WalError::Io(_))), "{fault:?}");
                assert_eq!(store.durability_stats().wal_failures, 1, "{fault:?}");
                // Sticky: the retry is refused without touching the disk.
                let retried = store.persist();
                assert!(matches!(retried, Err(WalError::Poisoned(_))), "{fault:?}");
                assert_eq!(store.durability_stats().wal_failures, 1, "{fault:?}");
                first
            };
            // Reopen checks every surviving head against the records, so
            // opening at all means no head got ahead of its records.
            let mut store = open::<Note>(&dir, true).expect("reopen");
            assert_eq!(store.len(), 9, "records are synced before their head");
            match fault {
                // The frame reached the file whole; only its sync failed.
                FsFault::FailFsync { .. } => assert_eq!(wal(&store).last_head_size, 9),
                _ => assert_eq!(wal(&store).last_head_size, first.size, "{fault:?}"),
            }
            store.append_batch(notes(0..12), 1);
            store.persist().expect("clean tail");
            drop(store);
            let store = open::<Note>(&dir, true).expect("reopen again");
            assert_eq!(
                (store.len(), wal(&store).last_head_size),
                (12, 12),
                "{fault:?}"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// Each head is synced before the next is written, so only the last
    /// head frame can be torn: a bad head with a later one above it is
    /// corruption, not a tail.
    #[test]
    fn anchored_heads_an_early_bad_head_is_corrupt_and_the_last_a_tail() {
        let dir = tmp_dir("anchored-heads");
        {
            let mut store = open::<Note>(&dir, false).expect("open");
            for size in [5, 9, 12] {
                store.append_batch(notes(store.len() as u64..size), 1);
                store.persist().expect("persist");
            }
        }
        let (log_path, heads_path) = (dir.join(RECORDS_FILE), dir.join(HEADS_FILE));
        let log = fs::read(&log_path).expect("read");
        let heads = fs::read(&heads_path).expect("read");
        assert_eq!(heads.len() as u64, 3 * HEAD_FRAME);
        // Flip one byte of head `k`'s size field.
        let flipped = |k: u64| {
            let mut buf = heads.clone();
            buf[(k * HEAD_FRAME) as usize + FRAME_HEADER] ^= 0xFF;
            buf
        };

        fs::write(&heads_path, flipped(0)).expect("write");
        match open::<Note>(&dir, false) {
            Err(WalError::Corrupt(_)) => {}
            Err(e) => panic!("a bad head below a later head must be Corrupt, got {e}"),
            Ok(_) => panic!("a bad head below a later head must be rejected"),
        }
        assert_eq!(
            fs::read(&heads_path).expect("read"),
            flipped(0),
            "untouched"
        );
        assert_eq!(fs::read(&log_path).expect("read"), log, "untouched");

        // The last head has nothing above it: a tail, cut, and the store
        // reopens on the head before it.
        fs::write(&heads_path, flipped(2)).expect("write");
        let store = open::<Note>(&dir, false).expect("tail repair");
        assert_eq!((store.len(), wal(&store).last_head_size), (12, 9));
        let kept = fs::read(&heads_path).expect("read");
        assert_eq!(kept, heads[..2 * HEAD_FRAME as usize]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// One step of [`EnvelopeDay`]: a commitment or a reveal (one
    /// record-log write each), or a commit barrier (the record log's
    /// fsync, then a `heads.log` write and fsync if the tree grew).
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
                    .commit_batch(vec![self.commitments[i].clone()], 1)
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

    /// A reveal is a frame of the envelope record log: a torn one refuses
    /// its reveal and poisons the log, so every later reveal and barrier
    /// is refused, and reopen cuts the tear above the last head and keeps
    /// every reveal accepted before it.
    #[test]
    fn short_reveal_write_poisons_and_reopen_keeps_acknowledged_reveals() {
        let dir = tmp_dir("reveal-fault");
        let challenges = {
            let mut ledger = open_ledger(&dir, true);
            let challenges = envelope_day(&mut ledger);
            // The fault counts from here, and only reveals follow: reveals
            // 10 and 11 land, reveal 12 is torn after 7 bytes.
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
        scan_file(&dir.join(HEADS_FILE), |kind, payload| {
            last = decode_head(kind, payload)?;
            Ok(())
        })
        .expect("heads scan");
        last
    }

    /// Crash points enumerated, not sampled: every write of the day torn
    /// at every byte class, and every barrier's first fsync failed. Each
    /// fault is armed right before the step it is meant for, so `nth: 0`
    /// is that step's own write — the day's k-th, a commitment's or a
    /// reveal's frame in the record log or a head in `heads.log` — or that
    /// barrier's first sync (the record log's, which carries the reveals
    /// at the last barrier; a failed head sync leaves the same bytes as
    /// tearing the next write at 0 and is driven directly by
    /// `fault_on_heads_log_aborts_the_barrier_and_poisons`).
    #[test]
    fn every_crash_point_of_the_envelope_day_reopens_to_an_acknowledged_prefix() {
        let day = EnvelopeDay::new();
        let steps = EnvelopeDay::steps();
        let mut reference = MerkleLog::new();
        for c in &day.commitments {
            reference.append_leaf(merkle::leaf_hash(&c.canonical_bytes()));
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
            let refused = |why: &str| {
                let opened = open::<EnvelopeCommitment>(&envelopes, false);
                assert!(matches!(opened, Err(WalError::Corrupt(_))), "{name}: {why}");
            };
            // As the parent left it — two segment files and a
            // `reveals.log` — the directory is refused whole, never read as
            // its first file alone.
            refused("a rolled directory must be refused typed");
            // A parent file's complete frames, re-encoded as `kind`; the
            // file goes.
            let frames = |file: &str, kind: u8| {
                let mut out = Vec::new();
                scan_file(&envelopes.join(file), |_, payload| {
                    out.extend(frame_bytes(kind, payload));
                    Ok(())
                })
                .expect("scan");
                fs::remove_file(envelopes.join(file)).expect("remove");
                out
            };
            // One record log: the complete record frames of both segments…
            let mut log = frames(RECORDS_FILE, RECORD);
            log.extend(frames("seg-000001.log", RECORD));
            fs::write(envelopes.join(RECORDS_FILE), &log).expect("write");
            refused("a leftover reveals.log must be refused typed");
            // …then the complete reveals, as side frames of that log.
            log.extend(frames("reveals.log", SIDE));
            fs::write(envelopes.join(RECORDS_FILE), &log).expect("write");

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

    /// A reveal is a frame of the commitment log, so it is anchored like
    /// a record: a bad reveal below head-covered commitments is `Corrupt`
    /// with every file untouched; above the last of them it is a tail.
    #[test]
    fn anchored_reveal_is_corrupt_below_a_head_and_a_tail_above_it() {
        let day = EnvelopeDay::new();
        let dir = tmp_dir("anchored-reveal");
        let mut ledger = open_ledger(&dir, false);
        let mut steps: Vec<Step> = (0..5).map(Step::Commit).collect();
        steps.push(Step::Reveal(0));
        steps.extend((5..10).map(Step::Commit));
        steps.extend([Step::Barrier, Step::Reveal(1), Step::Barrier]);
        for step in steps {
            day.run(&mut ledger, step).expect("a clean day");
        }
        drop(ledger);

        let envelopes = dir.join("envelopes");
        let (path, heads_path) = (envelopes.join(RECORDS_FILE), envelopes.join(HEADS_FILE));
        let clean = fs::read(&path).expect("read");
        let heads = fs::read(&heads_path).expect("read");
        let (mut reveals, mut end) = (Vec::new(), 0);
        scan_file(&path, |kind, payload| {
            if kind == SIDE {
                reveals.push(end);
            }
            end += FRAME_HEADER + payload.len();
            Ok(())
        })
        .expect("scan");
        assert_eq!(reveals.len(), 2);
        let flipped = |at: usize| {
            let mut buf = clean.clone();
            buf[at] ^= 0x01;
            buf
        };

        // Reveal 0 lies below commitments the head of 10 covers. Its kind
        // bit flipped fails the record checksum; a payload byte flipped
        // fails its own.
        for at in [reveals[0] + 3, reveals[0] + FRAME_HEADER + 7] {
            fs::write(&path, flipped(at)).expect("write");
            match open::<EnvelopeCommitment>(&envelopes, false) {
                Err(WalError::Corrupt(_)) => {}
                Err(e) => panic!("a bad reveal below a head must be Corrupt, got {e}"),
                Ok(_) => panic!("a bad reveal below a head must be rejected"),
            }
            assert_eq!(fs::read(&path).expect("read"), flipped(at), "untouched");
            assert_eq!(fs::read(&heads_path).expect("read"), heads, "untouched");
        }

        // Reveal 1 follows the last head-covered commitment: a tail.
        fs::write(&path, flipped(reveals[1] + FRAME_HEADER + 7)).expect("write");
        let mut ledger = open_ledger(&dir, false);
        let replayed = (
            ledger.envelopes.tree_head().size,
            ledger.envelopes.revealed_count(),
        );
        assert_eq!(replayed, (10, 1));
        assert_eq!(fs::metadata(&path).expect("meta").len(), reveals[1] as u64);
        // The re-run re-reveals 0 as a no-op and writes 1 again.
        day.run(&mut ledger, Step::Reveal(0)).expect("replayed");
        day.run(&mut ledger, Step::Reveal(1)).expect("reveals");
        day.run(&mut ledger, Step::Barrier).expect("persists");
        assert_eq!(ledger.envelopes.durability_stats().wal_records, 1);
        drop(ledger);
        assert_eq!(open_ledger(&dir, false).envelopes.revealed_count(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Reveals leave no file of their own: an activated envelope day's
    /// store is its record log, its heads and its snapshot.
    #[test]
    fn anchored_envelope_day_leaves_one_record_log_heads_and_snapshot() {
        let dir = tmp_dir("anchored-layout");
        envelope_day(&mut open_ledger(&dir, false));
        let mut names: Vec<String> = fs::read_dir(dir.join("envelopes"))
            .expect("read dir")
            .map(|entry| {
                entry
                    .expect("entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        names.sort();
        assert_eq!(names, [HEADS_FILE, RECORDS_FILE, SNAPSHOT_FILE]);
        let _ = fs::remove_dir_all(&dir);
    }
}
