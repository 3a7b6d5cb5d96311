//! The shard verification workers and the verified inbox they publish
//! into (see the [module docs](super)).

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vg_ledger::{EnvelopeCommitment, LedgerError, RegistrationRecord};

use crate::error::ServiceError;
use crate::transport::{EngineStats, LaneStats};

use super::sequencer::Cmd;
use super::IngestMode;

// Shared engine state (the verified inbox) is internally consistent at
// every individual store, so locks recover from poisoning via
// `vg_crypto::sync::lock_recover` rather than panicking every waiting
// station and the day coordinator with it.
use vg_crypto::sync::lock_recover;

/// Minimum pending records before a channel-idle gap triggers a
/// background admission sweep (barriers always flush everything).
/// Smaller idle sweeps would fragment the RLC folds the coalescing win
/// comes from.
pub(super) const MIN_IDLE_SWEEP: usize = 512;

/// Per-lane ceiling on deferred records. Coalescing submissions into one
/// folded admission sweep is the throughput win, but an unbounded backlog
/// would buffer a whole million-voter day server-side and delay admission
/// errors to end-of-day. Past the cap a shard sweeps inline on the
/// submitter's call and a [`IngestMode::Barrier`] sequencer commits, so
/// memory and error latency stay O(cap) while many small windows still
/// coalesce.
pub(super) const MAX_PENDING_RECORDS: usize = 16_384;

/// Commands for one shard verification worker.
pub(super) enum ShardCmd {
    /// Session-tagged envelope-commitment groups for sessions this shard
    /// owns; the reply resolves once the groups are buffered (and any
    /// overflow sweep ran).
    Envelopes(
        Vec<(u64, Vec<EnvelopeCommitment>)>,
        Sender<Result<(), ServiceError>>,
    ),
    /// Session-tagged registration-record groups, same contract.
    Records(
        Vec<(u64, Vec<RegistrationRecord>)>,
        Sender<Result<(), ServiceError>>,
    ),
    /// Barrier: verify everything pending now and publish it, then
    /// report how many session groups are still stuck in the reorder
    /// buffers, both lanes (nonzero at day end means sessions were lost
    /// in transit).
    Flush(Sender<usize>),
}

/// Which shard worker owns a global session index. Ownership keys off
/// the *original* station owning the session's kiosk (`i mod |K|`, then
/// the contiguous kiosk chunk map) — never off whichever connection
/// happens to carry the submission — so work-stealing re-submissions
/// route to the same worker and dedup in its reorder buffer.
#[derive(Clone)]
pub(super) struct ShardRoute {
    /// Kiosk index → owning station (from
    /// [`vg_trip::fleet::kiosk_owners`]).
    pub(super) owner: Arc<Vec<usize>>,
    pub(super) workers: usize,
}

impl ShardRoute {
    pub(super) fn worker_of(&self, session: u64) -> usize {
        self.owner[session as usize % self.owner.len()] % self.workers
    }
}

/// One ledger lane of the [`VerifiedInbox`]: session groups that passed
/// their shard's RLC sweep, waiting for the sequencer to drain them as
/// one contiguous, globally-ordered prefix.
pub(super) struct InboxLane<R> {
    pub(super) groups: BTreeMap<u64, Vec<R>>,
    /// Records across `groups` (commit-threshold bookkeeping).
    records: usize,
    /// Per-worker release floors: worker `w` has released every owned
    /// session below `floor[w]`. The global released prefix is the
    /// minimum across workers — what parked barriers can force a flush
    /// for.
    floor: Vec<u64>,
}

impl<R> InboxLane<R> {
    fn new(floor: Vec<u64>) -> Self {
        Self {
            groups: BTreeMap::new(),
            records: 0,
            floor,
        }
    }

    /// Takes what `worker` verified (`groups`) and released empty
    /// (`empties` — they advance the commit prefix but verify nothing),
    /// and its new release floor.
    fn publish(
        &mut self,
        worker: usize,
        groups: Vec<(u64, Vec<R>)>,
        empties: Vec<u64>,
        floor: u64,
    ) {
        for session in empties {
            self.groups.entry(session).or_default();
        }
        for (session, group) in groups {
            self.records += group.len();
            self.groups.insert(session, group);
        }
        self.floor[worker] = floor;
    }

    /// Removes the contiguous run of groups starting at session `next`,
    /// in session order.
    pub(super) fn drain_prefix(&mut self, mut next: u64) -> Vec<Vec<R>> {
        let mut groups = Vec::new();
        while let Some(group) = self.groups.remove(&next) {
            self.records -= group.len();
            groups.push(group);
            next += 1;
        }
        groups
    }

    /// Every session below this is released by its owning worker.
    pub(super) fn released_through(&self) -> u64 {
        self.floor.iter().copied().min().unwrap_or(u64::MAX)
    }
}

/// Verified-but-uncommitted state shared between the shard workers and
/// the commit sequencer.
pub(super) struct VerifiedInbox {
    pub(super) env: InboxLane<EnvelopeCommitment>,
    pub(super) reg: InboxLane<RegistrationRecord>,
    /// Earliest verification failure across all workers, by session.
    pub(super) failed: Option<(u64, ServiceError)>,
}

impl VerifiedInbox {
    pub(super) fn new(worker_sessions: &[Vec<u64>]) -> Self {
        let floor: Vec<u64> = worker_sessions
            .iter()
            .map(|s| s.first().copied().unwrap_or(u64::MAX))
            .collect();
        Self {
            env: InboxLane::new(floor.clone()),
            reg: InboxLane::new(floor),
            failed: None,
        }
    }

    /// Total records across both lanes.
    pub(super) fn records(&self) -> usize {
        self.env.records + self.reg.records
    }

    /// Record a verification failure, keeping the earliest session.
    pub(super) fn fail(&mut self, session: u64, error: ServiceError) {
        match &self.failed {
            Some((s, _)) if *s <= session => {}
            _ => self.failed = Some((session, error)),
        }
    }
}

/// What one lane of a shard worker hands the inbox: the verified-good
/// session groups in submission order, the sessions released empty, and
/// the first verification failure (pinned to its session) if a sweep hit
/// one.
struct LaneUpdate<R> {
    groups: Vec<(u64, Vec<R>)>,
    empties: Vec<u64>,
    failure: Option<(u64, ServiceError)>,
}

impl<R> Default for LaneUpdate<R> {
    fn default() -> Self {
        Self {
            groups: Vec::new(),
            empties: Vec::new(),
            failure: None,
        }
    }
}

impl<R> LaneUpdate<R> {
    fn is_empty(&self) -> bool {
        self.groups.is_empty() && self.empties.is_empty() && self.failure.is_none()
    }
}

/// One ledger lane of a shard worker: the reorder buffer over the
/// worker's *owned* sessions, the verification backlog, and the lane's
/// pure signature-chain check ([`EnvelopeLedger::verify_batch`] or
/// [`RegistrationLedger::verify_batch`]) — the only thing the two lanes
/// do differently.
pub(super) struct WorkerLane<R> {
    /// The worker's owned global session indices, ascending (sparse —
    /// shards interleave in the global order).
    sessions: Arc<Vec<u64>>,
    /// Position in `sessions` of the next owned session to release.
    pos: usize,
    /// Session groups waiting for an earlier owned session to arrive.
    reorder: BTreeMap<u64, Vec<R>>,
    /// Released, in-order groups awaiting a verification sweep.
    pending: Vec<(u64, Vec<R>)>,
    pending_records: usize,
    verify: fn(&[R], usize) -> Result<(), LedgerError>,
}

impl<R: Clone> WorkerLane<R> {
    pub(super) fn new(
        sessions: Arc<Vec<u64>>,
        verify: fn(&[R], usize) -> Result<(), LedgerError>,
    ) -> Self {
        Self {
            sessions,
            pos: 0,
            reorder: BTreeMap::new(),
            pending: Vec::new(),
            pending_records: 0,
            verify,
        }
    }

    /// The next owned session this lane has not yet released
    /// (`u64::MAX` once exhausted) — the worker's release floor.
    fn waiting_for(&self) -> u64 {
        self.sessions.get(self.pos).copied().unwrap_or(u64::MAX)
    }

    /// Buffers session-tagged groups, dropping duplicates (steal
    /// re-submissions are byte-identical, so first-wins is sound), then
    /// releases the in-order prefix of *owned* sessions: nonempty groups
    /// join the verification backlog, empty ones are returned so the
    /// caller can publish them straight to the inbox.
    fn absorb(&mut self, groups: Vec<(u64, Vec<R>)>, stats: &LaneStats) -> Vec<u64> {
        for (session, records) in groups {
            if session < self.waiting_for() || self.reorder.contains_key(&session) {
                continue; // duplicate (failover re-submission)
            }
            self.reorder.insert(session, records);
        }
        let mut empties = Vec::new();
        let mut released_any = false;
        while self.pos < self.sessions.len() {
            let next = self.sessions[self.pos];
            let Some(records) = self.reorder.remove(&next) else {
                break;
            };
            if records.is_empty() {
                empties.push(next);
            } else {
                self.pending_records += records.len();
                self.pending.push((next, records));
                released_any = true;
            }
            self.pos += 1;
        }
        if released_any {
            stats.batches.fetch_add(1, Ordering::Relaxed);
        }
        empties
    }

    /// The per-shard RLC admission sweep: one coalesced fold over
    /// everything pending. On a fold failure, re-verify per group to
    /// attribute the offender: groups before it survive, the offender
    /// and everything after are dropped with the failure pinned to the
    /// offending session.
    fn sweep(&mut self, threads: usize, stats: &LaneStats) -> LaneUpdate<R> {
        let mut update = LaneUpdate::default();
        if self.pending.is_empty() {
            return update;
        }
        stats.sweeps.fetch_add(1, Ordering::Relaxed);
        self.pending_records = 0;
        let groups = std::mem::take(&mut self.pending);
        let flat: Vec<R> = groups.iter().flat_map(|(_, g)| g.iter().cloned()).collect();
        if (self.verify)(&flat, threads).is_ok() {
            update.groups = groups;
            return update;
        }
        // If no group reproduces the coalesced failure, the per-group
        // pass is authoritative (an RLC false accept is the
        // cryptographically negligible direction, not this one).
        for (session, group) in groups {
            match (self.verify)(&group, threads) {
                Ok(()) => update.groups.push((session, group)),
                Err(e) => {
                    update.failure = Some((session, e.into()));
                    break;
                }
            }
        }
        update
    }

    /// A station's submission: buffer and release, and past the cap
    /// sweep inline. Verification needs no ledger, so the backlog just
    /// drains here, on the shard's own thread.
    fn submit(
        &mut self,
        groups: Vec<(u64, Vec<R>)>,
        threads: usize,
        stats: &LaneStats,
    ) -> LaneUpdate<R> {
        let empties = self.absorb(groups, stats);
        let mut update = if self.pending_records > MAX_PENDING_RECORDS {
            self.sweep(threads, stats)
        } else {
            LaneUpdate::default()
        };
        update.empties = empties;
        update
    }
}

/// One shard verification worker: owns the reorder buffers for its
/// session partition and runs the per-shard RLC admission sweeps. It
/// never touches a ledger — verification is pure signature-chain
/// checking — which is exactly why N of these can run concurrently while
/// commits stay single-owner.
pub(super) struct ShardWorker {
    pub(super) id: usize,
    pub(super) threads: usize,
    pub(super) mode: IngestMode,
    pub(super) rx: Receiver<ShardCmd>,
    pub(super) env: WorkerLane<EnvelopeCommitment>,
    pub(super) reg: WorkerLane<RegistrationRecord>,
    pub(super) inbox: Arc<Mutex<VerifiedInbox>>,
    pub(super) seq: Sender<Cmd>,
    /// Sticky local mirror of the shared failure: refuses further
    /// submissions without taking the inbox lock.
    pub(super) failed: Option<ServiceError>,
    /// The day's shared counter block (lane counters, busy/idle time).
    pub(super) stats: Arc<EngineStats>,
}

impl ShardWorker {
    /// Pushes this worker's new state into the shared inbox under one
    /// lock — both lanes' updates, release floors and any
    /// verification failures — and returns the sticky *global* failure
    /// (possibly another worker's) if one is set.
    fn publish(
        &mut self,
        env: LaneUpdate<EnvelopeCommitment>,
        reg: LaneUpdate<RegistrationRecord>,
    ) -> Option<ServiceError> {
        let mut sh = lock_recover(&self.inbox);
        sh.env
            .publish(self.id, env.groups, env.empties, self.env.waiting_for());
        sh.reg
            .publish(self.id, reg.groups, reg.empties, self.reg.waiting_for());
        for (session, error) in env.failure.into_iter().chain(reg.failure) {
            sh.fail(session, error);
        }
        sh.failed.as_ref().map(|(_, e)| e.clone())
    }

    /// Sweeps both lanes and publishes; returns whether anything moved
    /// (so the sequencer is worth poking).
    fn sweep_and_publish(&mut self) -> bool {
        let env = self.env.sweep(self.threads, &self.stats.env);
        let reg = self.reg.sweep(self.threads, &self.stats.reg);
        let moved = !(env.is_empty() && reg.is_empty());
        if let Some(e) = self.publish(env, reg) {
            self.failed.get_or_insert(e);
        }
        moved
    }

    /// Acknowledges a station's submission on one lane: refused after a
    /// sticky failure, otherwise `submit` runs the lane's
    /// [`WorkerLane::submit`], the result is published and the sequencer
    /// poked so it can commit and re-check parked barriers.
    fn acknowledge(
        &mut self,
        submit: impl FnOnce(
            &mut Self,
        ) -> (
            LaneUpdate<EnvelopeCommitment>,
            LaneUpdate<RegistrationRecord>,
        ),
    ) -> Result<(), ServiceError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let (env, reg) = submit(self);
        let sticky = self.publish(env, reg);
        let _ = self.seq.send(Cmd::Poke);
        match sticky {
            Some(e) => Err(self.failed.get_or_insert(e).clone()),
            None => Ok(()),
        }
    }

    fn handle(&mut self, cmd: ShardCmd) {
        match cmd {
            ShardCmd::Envelopes(groups, reply) => {
                let _ = reply.send(self.acknowledge(|w| {
                    let env = w.env.submit(groups, w.threads, &w.stats.env);
                    (env, LaneUpdate::default())
                }));
            }
            ShardCmd::Records(groups, reply) => {
                let _ = reply.send(self.acknowledge(|w| {
                    let reg = w.reg.submit(groups, w.threads, &w.stats.reg);
                    (LaneUpdate::default(), reg)
                }));
            }
            ShardCmd::Flush(ack) => {
                // No poke: the sequencer is blocked on this ack and
                // commits as soon as every shard reports.
                self.sweep_and_publish();
                let _ = ack.send(self.env.reorder.len() + self.reg.reorder.len());
            }
        }
    }

    /// The worker loop: drain immediately-available commands first, use
    /// [`IngestMode::Background`] idle gaps for verification sweeps that
    /// overlap the stations' next ceremonies, and only then block.
    pub(super) fn run(mut self) {
        loop {
            let cmd = match self.rx.try_recv() {
                Ok(cmd) => cmd,
                Err(TryRecvError::Empty) => {
                    if self.mode == IngestMode::Background
                        && self.failed.is_none()
                        && self.env.pending_records + self.reg.pending_records >= MIN_IDLE_SWEEP
                    {
                        let t = Instant::now();
                        if self.sweep_and_publish() {
                            let _ = self.seq.send(Cmd::Poke);
                        }
                        self.stats.busy(t);
                        continue;
                    }
                    let t = Instant::now();
                    match self.rx.recv() {
                        Ok(cmd) => {
                            self.stats.idle(t);
                            cmd
                        }
                        Err(_) => break,
                    }
                }
                Err(TryRecvError::Disconnected) => break,
            };
            let t = Instant::now();
            self.handle(cmd);
            self.stats.busy(t);
        }
        // The sequencer dropped our channel (day teardown): sweep the
        // remaining backlog into the inbox so the final commit pass sees
        // it, then release our sequencer sender by returning.
        let t = Instant::now();
        self.sweep_and_publish();
        self.stats.busy(t);
        let _ = self.seq.send(Cmd::Poke);
    }
}
