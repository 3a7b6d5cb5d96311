//! The commit sequencer — the one thread owning the ledgers — and the
//! client half of the sharded engine (see the [module docs](super)).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vg_crypto::sync::lock_recover;
use vg_ledger::{
    EnvelopeCommitment, EnvelopeLedger, Ledger, LedgerError, RegistrationLedger,
    RegistrationRecord, VoterId,
};
use vg_trip::official::Official;
use vg_trip::vsd::{activation_ledger_phase, ActivationClaim};

use crate::error::ServiceError;
use crate::messages::{CheckInResponse, IngestStatsReply, LedgerHeads, Response};
use crate::transport::EngineStats;

use super::shard::{
    ShardCmd, ShardRoute, ShardWorker, VerifiedInbox, WorkerLane, MAX_PENDING_RECORDS,
    MIN_IDLE_SWEEP,
};
use super::IngestMode;

/// Commands for the commit sequencer — the one thread owning the ledgers.
/// The first six are registrar requests that need ledger state; each is
/// answered with its [`Response`] (or [`Response::Err`]).
pub(super) enum Cmd {
    CheckIn(VoterId, Sender<Response>),
    SyncThrough(u64, Sender<Response>),
    SyncAll(Sender<Response>),
    Activate(Vec<ActivationClaim>, Sender<Response>),
    Heads(Sender<Response>),
    Stats(Sender<Response>),
    /// Fail every parked barrier so blocked stations unwind (day abort).
    Abort,
    /// A shard worker changed the shared inbox (released, verified or
    /// failed something): commit opportunistically and re-check parked
    /// barriers. Carries nothing — the inbox is the message.
    Poke,
    /// Day teardown, sent exactly once by the coordinator after every
    /// station is done: the sequencer drops its shard senders so the
    /// workers drain, exit-sweep into the inbox, and release their own
    /// sequencer senders in turn. Without this the worker ⇄ sequencer
    /// channel cycle would keep both sides parked in `recv` forever.
    Shutdown,
}

/// One ledger lane of the sequencer: the commit cursor plus the lane's
/// preverified append
/// ([`EnvelopeLedger::commit_batch_preverified`] or
/// [`RegistrationLedger::post_batch_preverified`]) — the only thing the
/// two lanes do differently.
struct CommitLane<R> {
    /// Next session to commit; `[0, next)` is on this lane's ledger.
    next: u64,
    append: fn(&mut Ledger, Vec<R>, usize) -> Result<(), LedgerError>,
}

impl<R: Clone> CommitLane<R> {
    /// Commits `groups` — the contiguous verified prefix starting at
    /// `self.next`, in session order — as one coalesced append, with a
    /// per-group fallback to pin a failure to the first offending session
    /// and keep the committed prefix before it. Eligibility (roster,
    /// double registration) is a real failure mode of the registration
    /// lane, checked here at the commit point; the preverified entry
    /// points check it before appending anything, so re-running per
    /// group never double-appends. Returns whether anything was appended,
    /// and the failure if the lane hit one.
    fn commit(
        &mut self,
        ledger: &mut Ledger,
        threads: usize,
        groups: Vec<Vec<R>>,
    ) -> (bool, Option<ServiceError>) {
        let count = groups.len() as u64;
        let flat: Vec<R> = groups.iter().flatten().cloned().collect();
        if flat.is_empty() {
            self.next += count;
            return (false, None);
        }
        if (self.append)(ledger, flat, threads).is_ok() {
            self.next += count;
            return (true, None);
        }
        let mut appended = false;
        for group in groups {
            if !group.is_empty() {
                if let Err(e) = (self.append)(ledger, group, threads) {
                    return (appended, Some(e.into()));
                }
                appended = true;
            }
            self.next += 1;
        }
        (appended, None)
    }
}

/// The commit sequencer: the one thread owning the ledgers for the day.
/// It drains the shared inbox's contiguous verified prefix and appends
/// it in exact global session order through the preverified entry points
/// — eligibility is checked here, at the commit point — so N shard
/// workers change *where verification runs*, never what lands on the
/// ledger or how many signed heads a day produces. Every mutation
/// funnels through [`Sequencer::flush_all`], whose final `persist()` is
/// the one durable commit point: no code path answers a barrier or
/// returns ledger heads for state that has not already been fsynced
/// under a signed head.
pub(super) struct Sequencer<'a> {
    ledger: &'a mut Ledger,
    official: &'a Official,
    threads: usize,
    mode: IngestMode,
    rx: Receiver<Cmd>,
    shard_txs: Vec<Sender<ShardCmd>>,
    inbox: Arc<Mutex<VerifiedInbox>>,
    env: CommitLane<EnvelopeCommitment>,
    reg: CommitLane<RegistrationRecord>,
    parked: Vec<(u64, Sender<Response>)>,
    failed: Option<ServiceError>,
    /// Reorder-buffer occupancy reported by the last flush barrier —
    /// nonzero at day end means sessions were lost in transit.
    stalled_reorder: usize,
    stats: Arc<EngineStats>,
}

impl Sequencer<'_> {
    fn admitted_through(&self) -> u64 {
        self.env.next.min(self.reg.next)
    }

    /// The durable commit barrier, with graceful degradation: a WAL IO
    /// failure (disk full, torn write, failed fsync) becomes the
    /// sequencer's sticky day-abort error instead of a panic. The store
    /// itself is poisoned by the failure, so every subsequent barrier
    /// re-surfaces the same typed error and no head covering lost bytes
    /// is ever published.
    fn persist_ledger(&mut self) {
        if let Err(e) = self.ledger.persist() {
            self.failed
                .get_or_insert(ServiceError::from(LedgerError::from(e)));
        }
    }

    fn inbox_records(&self) -> usize {
        lock_recover(&self.inbox).records()
    }

    /// Drains the contiguous verified prefix out of the inbox and
    /// commits it, envelope lane first (see [`CommitLane::commit`]).
    /// Returns whether anything was appended; callers follow with the
    /// `persist()` commit barrier before answering anyone.
    fn commit_ready(&mut self) -> bool {
        if self.failed.is_some() {
            return false;
        }
        let (env_groups, reg_groups, verify_failed) = {
            let mut sh = lock_recover(&self.inbox);
            (
                sh.env.drain_prefix(self.env.next),
                sh.reg.drain_prefix(self.reg.next),
                sh.failed.clone(),
            )
        };
        let (mut appended, mut failed) = self.env.commit(self.ledger, self.threads, env_groups);
        if failed.is_none() {
            let (reg_appended, reg_failed) = self.reg.commit(self.ledger, self.threads, reg_groups);
            appended |= reg_appended;
            failed = reg_failed;
        }
        // A verification failure parked in the inbox becomes sticky only
        // after the good prefix before it is committed (the workers only
        // publish verified-good groups below the failing session).
        self.failed = failed.or(verify_failed.map(|(_, e)| e));
        appended
    }

    /// The full admission barrier: every shard worker sweeps its pending
    /// backlog *concurrently* (this fan-out is the throughput win of the
    /// shard layer), then one globally-ordered commit closes at the
    /// durable commit point — RLC admission → segment append → group
    /// fsync → signed-head publish. Barriers are answered only after
    /// `persist()` returns, so an admitted session is always a persisted
    /// session.
    fn flush_all(&mut self) {
        let mut acks = Vec::new();
        for tx in &self.shard_txs {
            let (ack_tx, ack_rx) = mpsc::channel();
            if tx.send(ShardCmd::Flush(ack_tx)).is_ok() {
                acks.push(ack_rx);
            }
        }
        self.stalled_reorder = acks.into_iter().filter_map(|ack| ack.recv().ok()).sum();
        self.commit_ready();
        // Commit barrier: everything this sweep admitted reaches stable
        // storage (WAL fsync + signed head) before any barrier observes
        // it as admitted. A no-op on volatile backends.
        self.persist_ledger();
    }

    /// Resolves parked prefix barriers: flushes when a parked barrier's
    /// prefix is fully released (per the workers' published floors) but
    /// not yet admitted, then answers whatever the sweep satisfied.
    /// Sticky failures answer everything.
    fn service_parked(&mut self) {
        if self.parked.is_empty() {
            return;
        }
        if self.failed.is_none() {
            let releasable = {
                let sh = lock_recover(&self.inbox);
                sh.env.released_through().min(sh.reg.released_through())
            };
            let admitted = self.admitted_through();
            if self
                .parked
                .iter()
                .any(|(needed, _)| *needed > admitted && *needed <= releasable)
            {
                self.flush_all();
            }
        }
        if let Some(e) = self.failed.clone() {
            for (_, reply) in self.parked.drain(..) {
                let _ = reply.send(Response::Err(e.clone()));
            }
            return;
        }
        let admitted = self.admitted_through();
        self.parked.retain(|(needed, reply)| {
            if *needed <= admitted {
                let _ = reply.send(Response::SyncThrough);
                false
            } else {
                true
            }
        });
    }

    /// `ok` unless the sticky failure is set.
    fn unless_failed(&self, ok: impl FnOnce(&Self) -> Response) -> Response {
        match &self.failed {
            Some(e) => Response::Err(e.clone()),
            None => ok(self),
        }
    }

    fn handle(&mut self, cmd: Cmd) {
        match cmd {
            Cmd::CheckIn(voter, reply) => {
                let _ = reply.send(match self.official.check_in(self.ledger, voter) {
                    Ok(ticket) => Response::CheckIn(CheckInResponse { ticket }),
                    Err(e) => Response::Err(ServiceError::Trip(e)),
                });
            }
            Cmd::SyncThrough(sessions, reply) => {
                if self.admitted_through() >= sessions && self.failed.is_none() {
                    let _ = reply.send(Response::SyncThrough);
                } else {
                    self.parked.push((sessions, reply));
                }
            }
            Cmd::SyncAll(reply) => {
                self.flush_all();
                let residual = {
                    let sh = lock_recover(&self.inbox);
                    !sh.env.groups.is_empty() || !sh.reg.groups.is_empty()
                };
                let _ = reply.send(self.unless_failed(|seq| {
                    if seq.stalled_reorder > 0 || residual {
                        Response::Err(ServiceError::Transport(format!(
                            "sessions lost: admission stalled at {} (gap in submissions)",
                            seq.admitted_through()
                        )))
                    } else {
                        Response::Sync
                    }
                }));
            }
            Cmd::Activate(claims, reply) => {
                self.flush_all();
                let mut out = self.unless_failed(|_| Response::ActivationSweep);
                if self.failed.is_none() {
                    for claim in &claims {
                        if let Err(e) = activation_ledger_phase(self.ledger, claim) {
                            out = Response::Err(ServiceError::Trip(e));
                            break;
                        }
                    }
                    // Activation appended reveal-WAL entries; sync them
                    // before acknowledging the claims.
                    self.persist_ledger();
                }
                let _ = reply.send(out);
            }
            Cmd::Heads(reply) => {
                self.flush_all();
                let _ = reply.send(self.unless_failed(|seq| {
                    Response::LedgerHeads(LedgerHeads {
                        registration: seq.ledger.registration.tree_head(),
                        envelopes: seq.ledger.envelopes.tree_head(),
                    })
                }));
            }
            Cmd::Stats(reply) => {
                let day = self.stats.snapshot(self.ledger.durability_stats());
                let _ = reply.send(Response::IngestStats(IngestStatsReply::from(&day)));
            }
            Cmd::Abort => {
                let e = ServiceError::Transport("registration day aborted".into());
                self.failed.get_or_insert(e.clone());
                // Mirror into the inbox so the shard workers refuse
                // further submissions too.
                lock_recover(&self.inbox).fail(u64::MAX, e);
            }
            Cmd::Poke => {
                // The inbox changed; the shared post-command path below
                // commits and re-checks parked barriers.
            }
            Cmd::Shutdown => {
                // Drop the shard senders: the workers' receivers
                // disconnect, they exit-sweep into the inbox, and their
                // own sequencer senders drop in turn.
                self.shard_txs.clear();
            }
        }
    }

    pub(super) fn run(mut self) {
        loop {
            let t = Instant::now();
            let Ok(cmd) = self.rx.recv() else { break };
            self.stats.idle(t);
            let t = Instant::now();
            self.handle(cmd);
            // Opportunistic commits: verified records must not pile up
            // in the inbox unboundedly. Background mode commits as soon
            // as a worthwhile batch is verified (overlapping the
            // stations' next ceremonies); Barrier mode only bounds
            // memory at the queue cap — everything else rides the next
            // barrier, preserving the coalescing behavior.
            let cap = match self.mode {
                IngestMode::Background => MIN_IDLE_SWEEP,
                IngestMode::Barrier => MAX_PENDING_RECORDS,
            };
            if self.failed.is_none() && self.inbox_records() >= cap && self.commit_ready() {
                self.persist_ledger();
            }
            self.service_parked();
            self.stats.busy(t);
        }
        // Day over: every client and worker sender is gone — the workers
        // exit-swept their backlogs into the inbox before releasing
        // their senders — so one final commit pass closes the day, then
        // fail anything still parked (a parked barrier at this point
        // means its prefix never arrived).
        self.flush_all();
        self.service_parked();
        for (_, reply) in self.parked.drain(..) {
            let _ = reply.send(Response::Err(ServiceError::Transport(
                "registration day ended with submissions missing".into(),
            )));
        }
    }
}

/// Client half of the sharded engine (cheap to clone; one per served
/// connection / in-process link): submissions fan out to the shard
/// workers owning their sessions, everything stateful goes to the
/// sequencer. Both calls wait on the reply channels they create — one
/// request in flight per caller.
#[derive(Clone)]
pub(super) struct IngestClient {
    seq: Sender<Cmd>,
    shards: Arc<Vec<Sender<ShardCmd>>>,
    route: ShardRoute,
    /// One engine-wide ticket sequence, so tickets stay monotonic per
    /// connection no matter which shard served the submission.
    tickets: Arc<AtomicU64>,
}

/// The answer when an engine thread's channel is found closed.
fn gone(who: &str) -> Response {
    Response::Err(ServiceError::Transport(format!("ingest {who} gone")))
}

impl IngestClient {
    /// Sends one sequencer command and waits for its reply.
    pub(super) fn ask(&self, build: impl FnOnce(Sender<Response>) -> Cmd) -> Response {
        let (tx, reply) = mpsc::channel();
        if self.seq.send(build(tx)).is_err() {
            return gone("sequencer");
        }
        reply.recv().unwrap_or_else(|_| gone("sequencer"))
    }

    /// Submits session-tagged groups on one lane (`make` picks it):
    /// splits them by owning shard, sends (a station's sessions all live
    /// in one shard, so the common case is exactly one send) and waits
    /// for every touched worker's acknowledgement; `done` builds the
    /// answer from the submission's ticket.
    pub(super) fn fan_out<R>(
        &self,
        groups: Vec<(u64, Vec<R>)>,
        make: impl Fn(Vec<(u64, Vec<R>)>, Sender<Result<(), ServiceError>>) -> ShardCmd,
        done: impl FnOnce(u64) -> Response,
    ) -> Response {
        let mut per_worker: Vec<Vec<(u64, Vec<R>)>> =
            (0..self.route.workers).map(|_| Vec::new()).collect();
        for group in groups {
            per_worker[self.route.worker_of(group.0)].push(group);
        }
        let mut acks = Vec::new();
        for (worker, batch) in per_worker.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let (tx, rx) = mpsc::channel();
            if self.shards[worker].send(make(batch, tx)).is_err() {
                return gone("worker");
            }
            acks.push(rx);
        }
        let ticket = self.tickets.fetch_add(1, Ordering::SeqCst);
        for ack in acks {
            match ack.recv() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return Response::Err(e),
                Err(_) => return gone("worker"),
            }
        }
        done(ticket)
    }

    pub(super) fn abort(&self) {
        let _ = self.seq.send(Cmd::Abort);
    }

    /// Day teardown — must be sent exactly once, by the coordinator,
    /// after every station connection is gone (see [`Cmd::Shutdown`]).
    pub(super) fn shutdown(&self) {
        let _ = self.seq.send(Cmd::Shutdown);
    }
}

/// The wired-but-unspawned sharded engine: [`build_ingest`] constructs
/// every piece before any thread exists so the caller controls spawning
/// (the day runs them on scoped threads).
pub(super) struct IngestEngine<'a> {
    pub(super) client: IngestClient,
    pub(super) sequencer: Sequencer<'a>,
    pub(super) shards: Vec<ShardWorker>,
}

/// Wires up the sharded ingest engine for a day of `sessions` sessions:
/// one sequencer owning `ledger`, `route.workers` shard workers (each
/// owning the ascending global session indices `route` sends it —
/// together a partition of the day), and a cloneable client routing by
/// `route`.
pub(super) fn build_ingest<'a>(
    ledger: &'a mut Ledger,
    official: &'a Official,
    threads: usize,
    mode: IngestMode,
    route: ShardRoute,
    sessions: u64,
    stats: Arc<EngineStats>,
) -> IngestEngine<'a> {
    let workers = route.workers;
    let mut worker_sessions: Vec<Vec<u64>> = vec![Vec::new(); workers];
    for session in 0..sessions {
        worker_sessions[route.worker_of(session)].push(session);
    }
    let (seq_tx, rx) = mpsc::channel();
    let inbox = Arc::new(Mutex::new(VerifiedInbox::new(&worker_sessions)));
    let mut shard_txs = Vec::with_capacity(workers);
    let mut shards = Vec::with_capacity(workers);
    for (id, sessions) in worker_sessions.into_iter().enumerate() {
        let (tx, rx) = mpsc::channel();
        shard_txs.push(tx);
        let sessions = Arc::new(sessions);
        shards.push(ShardWorker {
            id,
            threads,
            mode,
            rx,
            env: WorkerLane::new(Arc::clone(&sessions), EnvelopeLedger::verify_batch),
            reg: WorkerLane::new(sessions, RegistrationLedger::verify_batch),
            inbox: Arc::clone(&inbox),
            seq: seq_tx.clone(),
            failed: None,
            stats: Arc::clone(&stats),
        });
    }
    let client = IngestClient {
        seq: seq_tx,
        shards: Arc::new(shard_txs.clone()),
        route,
        tickets: Arc::new(AtomicU64::new(0)),
    };
    let sequencer = Sequencer {
        ledger,
        official,
        threads,
        mode,
        rx,
        shard_txs,
        inbox,
        env: CommitLane {
            next: 0,
            append: |ledger, batch, threads| {
                ledger
                    .envelopes
                    .commit_batch_preverified(batch, threads)
                    .map(drop)
            },
        },
        reg: CommitLane {
            next: 0,
            append: |ledger, batch, threads| {
                ledger
                    .registration
                    .post_batch_preverified(batch, threads)
                    .map(drop)
            },
        },
        parked: Vec::new(),
        failed: None,
        stalled_reorder: 0,
        stats,
    };
    IngestEngine {
        client,
        sequencer,
        shards,
    }
}
