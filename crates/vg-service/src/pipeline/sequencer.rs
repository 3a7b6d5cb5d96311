//! The commit sequencer — the one thread owning the ledgers and every
//! piece of admission state — and its cloneable client (see the
//! [module docs](super)).

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Instant;

use vg_ledger::{EnvelopeCommitment, Ledger, LedgerError, RegistrationRecord, VoterId};
use vg_trip::official::Official;
use vg_trip::vsd::{sweep_ledger, ActivationClaim};

use crate::error::ServiceError;
use crate::messages::{
    CheckInResponse, CheckOutBatchResponse, IngestReceipt, IngestStatsReply, LedgerHeads, Response,
};
use crate::transport::{EngineStats, LaneStats};

use super::IngestMode;

/// Minimum ready records before a channel-idle gap triggers a background
/// admission sweep (barriers always sweep everything). Smaller idle
/// sweeps would fragment the RLC folds the coalescing win comes from.
const MIN_IDLE_SWEEP: usize = 512;

/// Per-lane ceiling on deferred records. Coalescing submissions into one
/// folded admission sweep is the throughput win, but an unbounded backlog
/// would buffer a whole million-voter day server-side and delay admission
/// errors to end-of-day. Past the cap the sequencer sweeps on the
/// submitter's call, so memory and error latency stay O(cap) while many
/// small windows still coalesce.
const MAX_PENDING_RECORDS: usize = 16_384;

/// Session groups as stations submit them: each global session index
/// with that session's records.
type Groups<R> = Vec<(u64, Vec<R>)>;

/// Commands for the commit sequencer, each answered with its
/// [`Response`] (or [`Response::Err`]).
pub(super) enum Cmd {
    CheckIn(VoterId, Sender<Response>),
    /// Session-tagged envelope-commitment groups; answered once they are
    /// buffered (and any overflow sweep ran).
    Envelopes(Groups<EnvelopeCommitment>, Sender<Response>),
    /// Session-tagged registration-record groups, same contract.
    Records(Groups<RegistrationRecord>, Sender<Response>),
    SyncThrough(u64, Sender<Response>),
    SyncAll(Sender<Response>),
    Activate(Vec<ActivationClaim>, Sender<Response>),
    Heads(Sender<Response>),
    Stats(Sender<Response>),
    /// Fail every parked barrier so blocked stations unwind (day abort).
    Abort,
}

/// One ledger lane: the reorder buffer over global session indices, the
/// commit cursor, and the ledger's own verify-then-append entry point
/// ([`vg_ledger::EnvelopeLedger::commit_batch`] or
/// [`vg_ledger::RegistrationLedger::post_batch`], which append nothing
/// when a check fails) — the only thing the two lanes do differently.
struct Lane<R> {
    /// Next session to admit; `[0, next)` is on this lane's ledger.
    next: u64,
    /// End of the contiguous arrived prefix: `[next, ready)` is buffered.
    ready: u64,
    /// Records across `[next, ready)` (sweep-threshold bookkeeping).
    ready_records: usize,
    /// Arrived session groups at or above `next`.
    reorder: BTreeMap<u64, Vec<R>>,
    admit: fn(&mut Ledger, Vec<R>, usize) -> Result<(), LedgerError>,
}

impl<R: Clone> Lane<R> {
    fn new(admit: fn(&mut Ledger, Vec<R>, usize) -> Result<(), LedgerError>) -> Self {
        Self {
            next: 0,
            ready: 0,
            ready_records: 0,
            reorder: BTreeMap::new(),
            admit,
        }
    }

    /// Buffers session-tagged groups and extends the arrived prefix. A
    /// session below the cursor or already buffered is a work-stealing
    /// re-submission — byte-identical, so it is dropped and first wins.
    fn absorb(&mut self, groups: Groups<R>, stats: &LaneStats) {
        let mut fresh = false;
        for (session, group) in groups {
            if session >= self.next && !self.reorder.contains_key(&session) {
                fresh |= !group.is_empty();
                self.reorder.insert(session, group);
            }
        }
        while let Some(group) = self.reorder.get(&self.ready) {
            self.ready_records += group.len();
            self.ready += 1;
        }
        if fresh {
            stats.batches.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The admission sweep: verifies and appends the contiguous arrived
    /// prefix as one coalesced batch. When that is refused, falls back
    /// per session group once, keeping the prefix before the first
    /// offending session and returning the failure pinned to it (the
    /// entry points check before they append, so the re-run never
    /// double-appends; what lay behind the offender is dropped — the
    /// failure is sticky and the day is over).
    fn sweep(
        &mut self,
        ledger: &mut Ledger,
        threads: usize,
        stats: &LaneStats,
    ) -> Option<(u64, ServiceError)> {
        let behind = self.reorder.split_off(&self.ready);
        let groups = std::mem::replace(&mut self.reorder, behind);
        self.ready_records = 0;
        let flat: Vec<R> = groups.values().flatten().cloned().collect();
        if flat.is_empty() {
            self.next = self.ready;
            return None;
        }
        stats.sweeps.fetch_add(1, Ordering::Relaxed);
        if (self.admit)(ledger, flat, threads).is_ok() {
            self.next = self.ready;
            return None;
        }
        for (session, group) in groups {
            if !group.is_empty() {
                if let Err(e) = (self.admit)(ledger, group, threads) {
                    self.ready = session;
                    return Some((session, e.into()));
                }
            }
            self.next = session + 1;
        }
        None
    }
}

/// The commit sequencer: the one thread owning the ledgers for the day.
/// Submissions wait in its two [`Lane`]s; every admission funnels through
/// [`Sequencer::sweep`], whose final `persist()` is the one durable
/// commit point: no code path answers a barrier or returns ledger heads
/// for state that has not already been fsynced under a signed head.
pub(super) struct Sequencer<'a> {
    ledger: &'a mut Ledger,
    official: &'a Official,
    threads: usize,
    mode: IngestMode,
    rx: Receiver<Cmd>,
    env: Lane<EnvelopeCommitment>,
    reg: Lane<RegistrationRecord>,
    parked: Vec<(u64, Sender<Response>)>,
    failed: Option<ServiceError>,
    /// Submissions acknowledged so far (the receipts' ticket sequence).
    tickets: u64,
    stats: Arc<EngineStats>,
}

impl<'a> Sequencer<'a> {
    /// The sequencer for a day over `ledger`, and the client that feeds
    /// it; its loop ends when the last clone of that client is dropped.
    pub(super) fn new(
        ledger: &'a mut Ledger,
        official: &'a Official,
        threads: usize,
        mode: IngestMode,
        stats: Arc<EngineStats>,
    ) -> (IngestClient, Self) {
        let (seq, rx) = mpsc::channel();
        let sequencer = Self {
            ledger,
            official,
            threads,
            mode,
            rx,
            env: Lane::new(|ledger, batch, threads| {
                ledger.envelopes.commit_batch(batch, threads).map(drop)
            }),
            reg: Lane::new(|ledger, batch, threads| {
                ledger.registration.post_batch(batch, threads).map(drop)
            }),
            parked: Vec::new(),
            failed: None,
            tickets: 0,
            stats,
        };
        (IngestClient { seq }, sequencer)
    }

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

    /// The full admission barrier: both lanes admit their arrived prefix
    /// in exact global session order — RLC admission → record append —
    /// and the sweep closes at the durable commit point (group fsync →
    /// signed-head publish; a no-op on volatile backends). Barriers are
    /// answered only after `persist()` returns, so an admitted session is
    /// always a persisted session. The earlier session's failure sticks.
    fn sweep(&mut self) {
        if self.failed.is_none() {
            let env = self.env.sweep(self.ledger, self.threads, &self.stats.env);
            let reg = self.reg.sweep(self.ledger, self.threads, &self.stats.reg);
            let first = [env, reg].into_iter().flatten().min_by_key(|(s, _)| *s);
            self.failed = first.map(|(_, e)| e);
        }
        self.persist_ledger();
    }

    /// A station's submission: refused after the sticky failure,
    /// otherwise buffered by `absorb` and, past the cap, admitted on the
    /// submitter's call. Returns the submission's ticket.
    fn submit(&mut self, absorb: impl FnOnce(&mut Self)) -> Result<u64, ServiceError> {
        if self.failed.is_none() {
            absorb(self);
            if self.env.ready_records.max(self.reg.ready_records) > MAX_PENDING_RECORDS {
                self.sweep();
            }
        }
        match &self.failed {
            Some(e) => Err(e.clone()),
            None => {
                self.tickets += 1;
                Ok(self.tickets - 1)
            }
        }
    }

    /// Resolves parked prefix barriers: sweeps when a parked barrier's
    /// prefix has fully arrived but is not yet admitted, then answers
    /// whatever the sweep satisfied. Sticky failures answer everything.
    fn service_parked(&mut self) {
        if self.parked.is_empty() {
            return;
        }
        let (arrived, admitted) = (self.env.ready.min(self.reg.ready), self.admitted_through());
        let waiting = |(needed, _): &(u64, _)| *needed > admitted && *needed <= arrived;
        if self.failed.is_none() && self.parked.iter().any(waiting) {
            self.sweep();
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
            Cmd::Envelopes(groups, reply) => {
                let _ = reply.send(
                    match self.submit(|seq| seq.env.absorb(groups, &seq.stats.env)) {
                        Ok(ticket) => Response::SubmitEnvelopesSeq(IngestReceipt { ticket }),
                        Err(e) => Response::Err(e),
                    },
                );
            }
            Cmd::Records(groups, reply) => {
                let _ = reply.send(
                    match self.submit(|seq| seq.reg.absorb(groups, &seq.stats.reg)) {
                        Ok(ticket) => Response::CheckOutBatchSeq(CheckOutBatchResponse { ticket }),
                        Err(e) => Response::Err(e),
                    },
                );
            }
            Cmd::SyncThrough(sessions, reply) => self.parked.push((sessions, reply)),
            Cmd::SyncAll(reply) => {
                self.sweep();
                let _ = reply.send(self.unless_failed(|seq| {
                    // Anything still buffered sits behind a gap.
                    if seq.env.reorder.is_empty() && seq.reg.reorder.is_empty() {
                        Response::Sync
                    } else {
                        Response::Err(ServiceError::Transport(format!(
                            "sessions lost: admission stalled at {} (gap in submissions)",
                            seq.admitted_through()
                        )))
                    }
                }));
            }
            Cmd::Activate(claims, reply) => {
                self.sweep();
                let mut swept = Ok(());
                if self.failed.is_none() {
                    swept = sweep_ledger(self.ledger, &claims);
                    // Activation appended reveal-WAL entries; sync them
                    // before acknowledging the claims.
                    self.persist_ledger();
                }
                let _ = reply.send(self.unless_failed(|_| match swept {
                    Ok(()) => Response::ActivationSweep,
                    Err(e) => Response::Err(ServiceError::Trip(e)),
                }));
            }
            Cmd::Heads(reply) => {
                self.sweep();
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
                self.failed.get_or_insert(e);
            }
        }
        self.service_parked();
    }

    /// The sequencer loop: drain immediately-available commands first,
    /// use [`IngestMode::Background`] channel-idle gaps for admission
    /// sweeps that overlap the stations' next ceremonies
    /// ([`IngestMode::Barrier`] sweeps only at barriers and the cap), and
    /// only then block. Ends when the last [`IngestClient`] is dropped;
    /// nothing can be parked then — a parked caller holds a client.
    pub(super) fn run(mut self) {
        loop {
            let cmd = match self.rx.try_recv() {
                Ok(cmd) => cmd,
                Err(TryRecvError::Empty) => {
                    let t = Instant::now();
                    if self.mode == IngestMode::Background
                        && self.failed.is_none()
                        && self.env.ready_records + self.reg.ready_records >= MIN_IDLE_SWEEP
                    {
                        self.sweep();
                        self.service_parked();
                        self.stats.busy(t);
                        continue;
                    }
                    let Ok(cmd) = self.rx.recv() else { break };
                    self.stats.idle(t);
                    cmd
                }
                Err(TryRecvError::Disconnected) => break,
            };
            let t = Instant::now();
            self.handle(cmd);
            self.stats.busy(t);
        }
    }
}

/// The engine's client (cheap to clone; one per served connection /
/// in-process link): sends one command and waits on the reply channel it
/// creates — one request in flight per caller.
#[derive(Clone)]
pub(super) struct IngestClient {
    seq: Sender<Cmd>,
}

impl IngestClient {
    /// Sends one sequencer command and waits for its reply.
    pub(super) fn ask(&self, build: impl FnOnce(Sender<Response>) -> Cmd) -> Response {
        let gone = || Response::Err(ServiceError::Transport("ingest sequencer gone".into()));
        let (tx, reply) = mpsc::channel();
        if self.seq.send(build(tx)).is_err() {
            return gone();
        }
        reply.recv().unwrap_or_else(|_| gone())
    }

    pub(super) fn abort(&self) {
        let _ = self.seq.send(Cmd::Abort);
    }
}

/// The lane and the commit point, without threads: the sequencer owns
/// every piece of admission state, so each case drives `handle` on the
/// test thread.
#[cfg(test)]
mod tests {
    use vg_crypto::schnorr::SigningKey;
    use vg_crypto::{elgamal, EdwardsPoint, HmacDrbg, Rng};
    use vg_ledger::{FaultFs, FsFault, LedgerBackend, TreeHead};
    use vg_trip::materials::Symbol;
    use vg_trip::printer::EnvelopePrinter;
    use vg_trip::protocol::register_voter;
    use vg_trip::setup::{TripConfig, TripSystem};
    use vg_trip::TripError;

    use super::*;

    const SESSIONS: u64 = 4;

    fn system(backend: LedgerBackend) -> TripSystem {
        let config = TripConfig {
            n_voters: SESSIONS,
            backend,
            ..TripConfig::default()
        };
        TripSystem::setup(config, &mut HmacDrbg::from_u64(0x5E9))
    }

    fn with_sequencer<T>(system: &mut TripSystem, test: impl FnOnce(&mut Sequencer<'_>) -> T) -> T {
        let (ledger, official) = (&mut system.ledger, &system.officials[0]);
        let (_client, mut seq) =
            Sequencer::new(ledger, official, 1, IngestMode::Barrier, Arc::default());
        test(&mut seq)
    }

    /// Hands `seq` one command; the receiver holds the answer once it is
    /// given.
    fn send(
        seq: &mut Sequencer<'_>,
        build: impl FnOnce(Sender<Response>) -> Cmd,
    ) -> Receiver<Response> {
        let (tx, rx) = mpsc::channel();
        seq.handle(build(tx));
        rx
    }

    fn answer(seq: &mut Sequencer<'_>, build: impl FnOnce(Sender<Response>) -> Cmd) -> Response {
        send(seq, build).try_recv().expect("answered on the call")
    }

    fn refused_with(expected: &ServiceError) -> impl Fn(Response) -> bool + '_ {
        move |resp| matches!(resp, Response::Err(e) if e == *expected)
    }

    /// Turns a record into one the ledger refuses with this error.
    type Spoiler<R> = (fn(&mut R), LedgerError);

    /// Every case of one lane. `group` makes a session's records,
    /// `submit` is the lane's command, `idle_other` fills the other lane
    /// with empty groups (so barriers wait on this lane alone) and `head`
    /// reads the lane's ledger.
    fn lane_cases<R: Clone>(
        mut group: impl FnMut(u64) -> Vec<R>,
        submit: fn(Groups<R>, Sender<Response>) -> Cmd,
        idle_other: fn(Sender<Response>) -> Cmd,
        head: fn(&Ledger) -> TreeHead,
        spoilers: &[Spoiler<R>],
    ) {
        let groups: Groups<R> = (0..SESSIONS).map(|s| (s, group(s))).collect();
        let records =
            |through: usize| -> u64 { groups[..through].iter().map(|g| g.1.len() as u64).sum() };
        let only = |sessions: &[usize]| -> Groups<R> {
            sessions.iter().map(|&s| groups[s].clone()).collect()
        };
        let base = head(&system(LedgerBackend::InMemory).ledger).size;

        // The reference: the whole day as one in-order submission.
        let reference = with_sequencer(&mut system(LedgerBackend::InMemory), |seq| {
            answer(seq, idle_other);
            answer(seq, |tx| submit(groups.clone(), tx));
            assert!(matches!(answer(seq, Cmd::SyncAll), Response::Sync));
            head(seq.ledger)
        });
        assert_eq!(reference.size, base + records(4));

        with_sequencer(&mut system(LedgerBackend::InMemory), |seq| {
            answer(seq, idle_other);
            answer(seq, |tx| submit(only(&[3, 1]), tx));
            let parked = send(seq, |tx| Cmd::SyncThrough(2, tx));
            // Behind a gap nothing is admissible: `Sync` reports it and
            // the barrier stays parked.
            assert!(matches!(
                answer(seq, Cmd::SyncAll),
                Response::Err(ServiceError::Transport(m)) if m.starts_with("sessions lost")
            ));
            assert!(matches!(parked.try_recv(), Err(TryRecvError::Empty)));
            assert_eq!(head(seq.ledger).size, base);
            // The gap arrives: the barrier resolves on that call, with
            // sessions 0 and 1 admitted and 3 still waiting for 2.
            answer(seq, |tx| submit(only(&[0]), tx));
            assert!(matches!(parked.try_recv(), Ok(Response::SyncThrough)));
            assert_eq!(head(seq.ledger).size, base + records(2));
            // Steal re-submissions, one below the cursor and one still
            // buffered, ride in with the last session: both are dropped,
            // and the day lands in session order whatever the arrival
            // order was.
            answer(seq, |tx| submit(only(&[1, 3, 2]), tx));
            assert!(matches!(answer(seq, Cmd::SyncAll), Response::Sync));
            let committed = head(seq.ledger);
            assert_eq!(
                (committed.size, committed.root),
                (reference.size, reference.root)
            );
            let Response::IngestStats(s) = answer(seq, Cmd::Stats) else {
                panic!("stats answer");
            };
            // Three fresh submissions, two sweeps with records; the idle
            // lane's empty groups count as neither.
            let lanes = [(s.env_batches, s.env_sweeps), (s.reg_batches, s.reg_sweeps)];
            assert!(
                lanes.contains(&(3, 2)) && lanes.contains(&(0, 0)),
                "{lanes:?}"
            );
        });

        for (spoil, error) in spoilers {
            let mut spoiled = groups.clone();
            spoil(spoiled[2].1.last_mut().expect("a record"));
            let error = ServiceError::from(error.clone());
            let refused = refused_with(&error);
            with_sequencer(&mut system(LedgerBackend::InMemory), |seq| {
                answer(seq, idle_other);
                let parked = send(seq, |tx| Cmd::SyncThrough(SESSIONS, tx));
                // Buffered and acknowledged; the sweep the parked barrier
                // forces pins the failure to session 2 and keeps 0 and 1.
                assert!(!matches!(
                    answer(seq, |tx| submit(spoiled, tx)),
                    Response::Err(_)
                ));
                assert!(refused(parked.try_recv().expect("the barrier is answered")));
                assert_eq!(head(seq.ledger).size, base + records(2));
                // Sticky: the next submission and barrier get the same.
                assert!(refused(answer(seq, |tx| submit(only(&[3]), tx))));
                assert!(refused(answer(seq, |tx| Cmd::SyncThrough(1, tx))));
            });
        }
    }

    #[test]
    fn lanes_reorder_dedupe_and_pin_failures() {
        let mut rng = HmacDrbg::from_u64(0xA11);
        let printer = EnvelopePrinter::new(&mut rng);
        lane_cases(
            |session| {
                let print = |_| printer.print_detached(rng.scalar(), Symbol::ALL[0]).1;
                (0..=session % 2).map(print).collect()
            },
            Cmd::Envelopes,
            |tx| Cmd::Records((0..SESSIONS).map(|s| (s, Vec::new())).collect(), tx),
            |ledger| ledger.envelopes.tree_head(),
            &[(
                |c| c.challenge_hash[0] ^= 1,
                LedgerError::Crypto(vg_crypto::CryptoError::BadSignature),
            )],
        );

        let mut rng = HmacDrbg::from_u64(0xA12);
        let (kiosk, official) = (
            SigningKey::generate(&mut rng),
            SigningKey::generate(&mut rng),
        );
        lane_cases(
            |session| {
                let voter = VoterId(session + 1);
                let pk = EdwardsPoint::mul_base(&rng.scalar());
                let (c_pc, _) = elgamal::encrypt_point(&pk, &pk, &mut rng);
                let kiosk_sig = kiosk.sign(&RegistrationRecord::kiosk_message(voter, &c_pc));
                let countersigned = RegistrationRecord::official_message(voter, &c_pc, &kiosk_sig);
                vec![RegistrationRecord {
                    voter_id: voter,
                    c_pc,
                    kiosk_pk: kiosk.verifying_key().compress(),
                    kiosk_sig,
                    official_pk: official.verifying_key().compress(),
                    official_sig: official.sign(&countersigned),
                }]
            },
            Cmd::Records,
            |tx| Cmd::Envelopes((0..SESSIONS).map(|s| (s, Vec::new())).collect(), tx),
            |ledger| ledger.registration.tree_head(),
            &[
                (
                    |r| r.voter_id = VoterId(1),
                    LedgerError::Crypto(vg_crypto::CryptoError::BadSignature),
                ),
                (|r| r.voter_id = VoterId(99), LedgerError::NotOnRoster),
            ],
        );
    }

    /// Up to the cap submissions only buffer; the one that crosses it is
    /// admitted before its submitter is answered — no barrier involved.
    #[test]
    fn crossing_the_cap_sweeps_on_the_submitters_call() {
        let mut rng = HmacDrbg::from_u64(0xCA9);
        let one = EnvelopePrinter::new(&mut rng)
            .print_detached(rng.scalar(), Symbol::ALL[0])
            .1;
        with_sequencer(&mut system(LedgerBackend::InMemory), |seq| {
            let base = seq.ledger.envelopes.tree_head().size;
            let at_cap = vec![(0, vec![one.clone(); MAX_PENDING_RECORDS])];
            answer(seq, |tx| Cmd::Envelopes(at_cap, tx));
            assert_eq!((seq.env.next, seq.env.ready), (0, 1));
            answer(seq, |tx| Cmd::Envelopes(vec![(1, vec![one])], tx));
            assert_eq!((seq.env.next, seq.env.ready_records), (2, 0));
            let admitted = seq.ledger.envelopes.tree_head().size - base;
            assert_eq!(admitted as usize, MAX_PENDING_RECORDS + 1);
        });
    }

    /// A reveal barrier that fails is not acknowledged: the claim is
    /// valid and its reveal was written, but the group sync behind it did
    /// not happen, so the station must not hear `ActivationSweep`.
    #[test]
    fn activation_waits_for_its_reveal_barrier() {
        let dir = std::env::temp_dir().join(format!("vg-sequencer-reveal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut system = system(LedgerBackend::Durable {
            dir: dir.clone(),
            fsync: true,
        });
        let mut rng = HmacDrbg::from_u64(7);
        let mut outcome = register_voter(&mut system, VoterId(1), 0, &mut rng).expect("registers");
        system.ledger.persist().expect("persists");
        // The stores are clean now, so the first fsync from here on is
        // the reveal WAL's.
        let fault = FaultFs::new(vec![FsFault::FailFsync { nth: 0 }]);
        system.ledger.install_fault_fs(fault);
        outcome.believed_real.lift_to_activate();
        let view = outcome
            .believed_real
            .activate_view()
            .expect("activate state");
        let claim = ActivationClaim::of(&view);
        with_sequencer(&mut system, |seq| {
            let error = match answer(seq, |tx| Cmd::Activate(vec![claim], tx)) {
                Response::Err(error) => error,
                early => panic!("answered {early:?} before its barrier succeeded"),
            };
            assert!(
                matches!(
                    &error,
                    ServiceError::Trip(TripError::Ledger(LedgerError::Storage(_)))
                ),
                "{error}"
            );
            assert!(refused_with(&error)(answer(seq, |tx| Cmd::SyncThrough(
                0, tx
            ))));
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
