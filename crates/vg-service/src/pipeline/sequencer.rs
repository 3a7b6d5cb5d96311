//! The commit sequencer — the one thread owning the ledgers and every
//! piece of admission state — and its cloneable client (see the
//! [module docs](super)). It sweeps admission at every barrier, when its
//! backlog crosses [`MAX_PENDING_RECORDS`], and whenever its command
//! channel goes idle with at least [`MIN_IDLE_SWEEP`] records arrived.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Instant;

use vg_ledger::{Ledger, LedgerError, SessionRecords, VoterId};
use vg_trip::official::Official;
use vg_trip::vsd::{sweep_ledger, ActivationClaim};
use vg_trip::DAY_THREADS;

use crate::error::ServiceError;
use crate::messages::{CheckInResponse, IngestStatsReply, LedgerHeads, Response};
use crate::transport::EngineStats;

/// Minimum ready records (both ledgers') before a channel-idle gap
/// triggers an admission sweep (barriers always sweep everything).
/// Smaller idle sweeps would fragment the RLC folds the coalescing win
/// comes from.
const MIN_IDLE_SWEEP: usize = 512;

/// Ceiling on deferred records (both ledgers'). Coalescing submissions
/// into one folded admission sweep is the throughput win, but an
/// unbounded backlog would buffer a whole million-voter day server-side
/// and delay admission errors to end-of-day. Past the cap the sequencer
/// sweeps on the submitter's call, so memory and error latency stay
/// O(cap) while many small windows still coalesce.
const MAX_PENDING_RECORDS: usize = 16_384;

/// Sessions as stations submit them, once countersigned: each global
/// session index with that session's records.
type Sessions = Vec<(u64, SessionRecords)>;

/// Commands for the commit sequencer, each answered with its
/// [`Response`] (or [`Response::Err`]).
pub(super) enum Cmd {
    CheckIn(VoterId, Sender<Response>),
    /// A window's countersigned sessions; answered once they are
    /// buffered (and any overflow sweep ran).
    Window(Sessions, Sender<Response>),
    SyncThrough(u64, Sender<Response>),
    SyncAll(Sender<Response>),
    Activate(Vec<ActivationClaim>, Sender<Response>),
    Heads(Sender<Response>),
    Stats(Sender<Response>),
    /// Fail every parked barrier so blocked stations unwind (day abort).
    Abort,
}

/// The ingest lane: the reorder buffer over global session indices and
/// the commit cursor, in front of [`Ledger::admit_sessions`], which
/// appends nothing when a check fails — so a session lands on L_E and L_R
/// together or on neither.
#[derive(Default)]
struct Lane {
    /// Next session to admit; `[0, next)` is on both ledgers.
    next: u64,
    /// End of the contiguous arrived prefix: `[next, ready)` is buffered.
    ready: u64,
    /// Records across `[next, ready)`, both ledgers' (sweep-threshold
    /// bookkeeping).
    ready_records: usize,
    /// Arrived sessions at or above `next`.
    reorder: BTreeMap<u64, SessionRecords>,
}

impl Lane {
    /// Buffers a window's sessions and extends the arrived prefix. A
    /// session below the cursor or already buffered is a work-stealing
    /// re-submission — byte-identical, so it is dropped and first wins.
    fn absorb(&mut self, sessions: Sessions, stats: &EngineStats) {
        let mut fresh = false;
        for (session, records) in sessions {
            if session >= self.next && !self.reorder.contains_key(&session) {
                fresh = true;
                self.reorder.insert(session, records);
            }
        }
        while let Some(records) = self.reorder.get(&self.ready) {
            self.ready_records += records.commitments.len() + 1;
            self.ready += 1;
        }
        if fresh {
            stats.batches.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The admission sweep: verifies and appends the contiguous arrived
    /// prefix as one coalesced batch. When that is refused, falls back
    /// per session once, keeping the prefix before the first offending
    /// session and returning the failure pinned to it (the ledger checks
    /// before it appends, so the re-run never double-appends; what lay
    /// behind the offender is dropped — the failure is sticky and the day
    /// is over).
    fn sweep(&mut self, ledger: &mut Ledger, stats: &EngineStats) -> Option<ServiceError> {
        let behind = self.reorder.split_off(&self.ready);
        let sessions = std::mem::replace(&mut self.reorder, behind);
        self.ready_records = 0;
        if sessions.is_empty() {
            return None;
        }
        stats.sweeps.fetch_add(1, Ordering::Relaxed);
        let (indices, mut batch): (Vec<u64>, Vec<_>) = sessions.into_iter().unzip();
        if ledger.admit_sessions(&mut batch, DAY_THREADS).is_ok() {
            self.next = self.ready;
            return None;
        }
        for (session, records) in indices.into_iter().zip(batch) {
            if let Err(e) = ledger.admit_sessions(&mut vec![records], DAY_THREADS) {
                self.ready = session;
                return Some(e.into());
            }
            self.next = session + 1;
        }
        None
    }
}

/// The commit sequencer: the one thread owning the ledgers for the day.
/// Submissions wait in its one [`Lane`]; every admission funnels through
/// [`Sequencer::sweep`], whose final `persist()` is the one durable
/// commit point: no code path answers a barrier or returns ledger heads
/// for state that has not already been fsynced under a signed head.
pub(super) struct Sequencer<'a> {
    ledger: &'a mut Ledger,
    official: &'a Official,
    rx: Receiver<Cmd>,
    lane: Lane,
    parked: Vec<(u64, Sender<Response>)>,
    failed: Option<ServiceError>,
    stats: Arc<EngineStats>,
}

impl<'a> Sequencer<'a> {
    /// The sequencer for a day over `ledger`, and the client that feeds
    /// it; its loop ends when the last clone of that client is dropped.
    pub(super) fn new(
        ledger: &'a mut Ledger,
        official: &'a Official,
        stats: &Arc<EngineStats>,
    ) -> (IngestClient, Self) {
        let (seq, rx) = mpsc::channel();
        let sequencer = Self {
            ledger,
            official,
            rx,
            lane: Lane::default(),
            parked: Vec::new(),
            failed: None,
            stats: Arc::clone(stats),
        };
        (IngestClient { seq }, sequencer)
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

    /// The full admission barrier: the lane admits its arrived prefix in
    /// exact global session order — RLC admission → L_E append → L_R
    /// append — and the sweep closes at the durable commit point (group
    /// fsync → signed-head publish; a no-op on volatile backends).
    /// Barriers are answered only after `persist()` returns, so an
    /// admitted session is always a persisted session. The failure
    /// sticks.
    fn sweep(&mut self) {
        if self.failed.is_none() {
            self.failed = self.lane.sweep(self.ledger, &self.stats);
        }
        self.persist_ledger();
    }

    /// A station's window: refused after the sticky failure, otherwise
    /// buffered and, past the cap, admitted on the submitter's call.
    fn submit(&mut self, sessions: Sessions) -> Response {
        if self.failed.is_none() {
            self.lane.absorb(sessions, &self.stats);
            if self.lane.ready_records > MAX_PENDING_RECORDS {
                self.sweep();
            }
        }
        self.unless_failed(|_| Response::SubmitWindow)
    }

    /// Resolves parked prefix barriers: sweeps when a parked barrier's
    /// prefix has fully arrived but is not yet admitted, then answers
    /// whatever the sweep satisfied. Sticky failures answer everything.
    fn service_parked(&mut self) {
        if self.parked.is_empty() {
            return;
        }
        let (arrived, admitted) = (self.lane.ready, self.lane.next);
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
        let admitted = self.lane.next;
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
            Cmd::Window(sessions, reply) => {
                let _ = reply.send(self.submit(sessions));
            }
            Cmd::SyncThrough(sessions, reply) => self.parked.push((sessions, reply)),
            Cmd::SyncAll(reply) => {
                self.sweep();
                let _ = reply.send(self.unless_failed(|seq| {
                    // Anything still buffered sits behind a gap.
                    if seq.lane.reorder.is_empty() {
                        Response::Sync
                    } else {
                        Response::Err(ServiceError::Transport(format!(
                            "sessions lost: admission stalled at {} (gap in submissions)",
                            seq.lane.next
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
    /// use a channel-idle gap with at least [`MIN_IDLE_SWEEP`] records
    /// arrived for an admission sweep that overlaps the stations' next
    /// ceremonies, and only then block. Ends when the last
    /// [`IngestClient`] is dropped; nothing can be parked then — a parked
    /// caller holds a client.
    pub(super) fn run(mut self) {
        loop {
            let cmd = match self.rx.try_recv() {
                Ok(cmd) => cmd,
                Err(TryRecvError::Empty) => {
                    let t = Instant::now();
                    if self.failed.is_none() && self.lane.ready_records >= MIN_IDLE_SWEEP {
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

/// The lane and the commit point: the sequencer owns every piece of
/// admission state, so most cases drive `handle` on the test thread; the
/// idle sweep, which only the loop makes, runs `run` on a thread of its
/// own.
#[cfg(test)]
mod tests {
    use std::time::Duration;

    use vg_crypto::schnorr::{NonceCoupon, SigningKey};
    use vg_crypto::{elgamal, EdwardsPoint, HmacDrbg, Rng};
    use vg_ledger::{FaultFs, FsFault, LedgerBackend, RegistrationRecord};
    use vg_trip::boundary::{LocalBoundary, RegistrarBoundary, SessionSubmission};
    use vg_trip::materials::{CheckOutQr, Symbol};
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
        let (_client, mut seq) = Sequencer::new(ledger, official, &Arc::default());
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

    /// A day of correctly signed sessions: session `s` has one or two
    /// envelope commitments and a record for `voter(s)`. Also returns the
    /// kiosk key that signed every check-out.
    fn day(seed: u64, voter: fn(u64) -> VoterId) -> (Sessions, SigningKey) {
        let mut rng = HmacDrbg::from_u64(seed);
        let printer = EnvelopePrinter::new(&mut rng);
        let (kiosk, official) = (
            SigningKey::generate(&mut rng),
            SigningKey::generate(&mut rng),
        );
        let mut session = |s: u64| {
            let print = |_| printer.print_detached(rng.scalar(), Symbol::ALL[0]).1;
            let commitments = (0..=s % 2).map(print).collect();
            let (voter, pk) = (voter(s), EdwardsPoint::mul_base(&rng.scalar()));
            let (c_pc, _) = elgamal::encrypt_point(&pk, &pk, &mut rng);
            let kiosk_sig = kiosk.sign(&RegistrationRecord::kiosk_message(voter, &c_pc));
            let countersigned = RegistrationRecord::official_message(voter, &c_pc, &kiosk_sig);
            let record = RegistrationRecord {
                voter_id: voter,
                c_pc,
                kiosk_pk: kiosk.verifying_key().compress(),
                kiosk_sig,
                official_pk: official.verifying_key().compress(),
                official_sig: official.sign(&countersigned),
            };
            (
                s,
                SessionRecords {
                    commitments,
                    record,
                },
            )
        };
        ((0..SESSIONS).map(&mut session).collect(), kiosk)
    }

    /// Turns a session into one the ledger refuses with this error.
    type Spoiler = (fn(&mut SessionRecords), LedgerError);

    /// Both ledgers' `(size, root)`.
    fn heads(ledger: &Ledger) -> [(u64, [u8; 32]); 2] {
        let (e, r) = (&ledger.envelopes, &ledger.registration);
        [e.tree_head(), r.tree_head()].map(|h| (h.size, h.root))
    }

    /// What `sessions` alone leave on a fresh system's ledgers.
    fn admitted_alone(sessions: &[(u64, SessionRecords)]) -> [(u64, [u8; 32]); 2] {
        with_sequencer(&mut system(LedgerBackend::InMemory), |seq| {
            answer(seq, |tx| Cmd::Window(sessions.to_vec(), tx));
            assert!(matches!(answer(seq, Cmd::SyncAll), Response::Sync));
            heads(seq.ledger)
        })
    }

    #[test]
    fn lane_reorders_dedupes_and_pins_failures() {
        let (day, _) = day(0xA11, |s| VoterId(s + 1));
        let only =
            |sessions: &[usize]| -> Sessions { sessions.iter().map(|&s| day[s].clone()).collect() };
        let base = heads(&system(LedgerBackend::InMemory).ledger);
        // The reference: the whole day as one in-order submission.
        let reference = admitted_alone(&day);
        assert_eq!(reference[0].0, base[0].0 + 6);
        assert_eq!(reference[1].0, base[1].0 + SESSIONS);

        with_sequencer(&mut system(LedgerBackend::InMemory), |seq| {
            answer(seq, |tx| Cmd::Window(only(&[3, 1]), tx));
            let parked = send(seq, |tx| Cmd::SyncThrough(2, tx));
            // Behind a gap nothing is admissible: `Sync` reports it and
            // the barrier stays parked.
            assert!(matches!(
                answer(seq, Cmd::SyncAll),
                Response::Err(ServiceError::Transport(m)) if m.starts_with("sessions lost")
            ));
            assert!(matches!(parked.try_recv(), Err(TryRecvError::Empty)));
            assert_eq!(heads(seq.ledger), base);
            // The gap arrives: the barrier resolves on that call, with
            // sessions 0 and 1 admitted and 3 still waiting for 2.
            answer(seq, |tx| Cmd::Window(only(&[0]), tx));
            assert!(matches!(parked.try_recv(), Ok(Response::SyncThrough)));
            assert_eq!(heads(seq.ledger), admitted_alone(&day[..2]));
            // Steal re-submissions, one below the cursor and one still
            // buffered, ride in with the last session: both are dropped,
            // and the day lands in session order whatever the arrival
            // order was.
            answer(seq, |tx| Cmd::Window(only(&[1, 3, 2]), tx));
            assert!(matches!(answer(seq, Cmd::SyncAll), Response::Sync));
            assert_eq!(heads(seq.ledger), reference);
            let Response::IngestStats(s) = answer(seq, Cmd::Stats) else {
                panic!("stats answer");
            };
            // Three fresh submissions, two sweeps with records.
            assert_eq!((s.batches, s.sweeps), (3, 2));
        });

        // A refused commitment or record at session 2 keeps sessions 0
        // and 1 on both ledgers, whichever ledger refuses.
        let kept = admitted_alone(&day[..2]);
        let bad_signature = LedgerError::Crypto(vg_crypto::CryptoError::BadSignature);
        let spoilers: [Spoiler; 3] = [
            (
                |s| s.commitments[0].challenge_hash[0] ^= 1,
                bad_signature.clone(),
            ),
            (|s| s.record.voter_id = VoterId(1), bad_signature),
            (
                |s| s.record.voter_id = VoterId(99),
                LedgerError::NotOnRoster,
            ),
        ];
        for (spoil, error) in spoilers {
            let mut spoiled = day.clone();
            spoil(&mut spoiled[2].1);
            let error = ServiceError::from(error);
            let refused = refused_with(&error);
            with_sequencer(&mut system(LedgerBackend::InMemory), |seq| {
                let parked = send(seq, |tx| Cmd::SyncThrough(SESSIONS, tx));
                // Buffered and acknowledged; the sweep the parked barrier
                // forces pins the failure to session 2 and keeps 0 and 1.
                assert!(matches!(
                    answer(seq, |tx| Cmd::Window(spoiled, tx)),
                    Response::SubmitWindow
                ));
                assert!(refused(parked.try_recv().expect("the barrier is answered")));
                assert_eq!(heads(seq.ledger), kept);
                // Sticky: the next submission and barrier get the same.
                assert!(refused(answer(seq, |tx| Cmd::Window(only(&[3]), tx))));
                assert!(refused(answer(seq, |tx| Cmd::SyncThrough(1, tx))));
            });
        }
    }

    /// Sessions 0..4 with valid commitments everywhere and an ineligible
    /// (correctly signed) L_R record at session 2: after the barrier both
    /// ledgers hold exactly sessions 0 and 1, and the barrier answers the
    /// typed error.
    #[test]
    fn a_session_lands_on_both_ledgers_or_neither() {
        let (day, kiosk) = day(0xB07, |s| VoterId(if s == 2 { 99 } else { s + 1 }));
        let reference = admitted_alone(&day[..2]);
        let error = ServiceError::from(LedgerError::NotOnRoster);
        with_sequencer(&mut system(LedgerBackend::InMemory), |seq| {
            let parked = send(seq, |tx| Cmd::SyncThrough(SESSIONS, tx));
            answer(seq, |tx| Cmd::Window(day.clone(), tx));
            assert!(refused_with(&error)(parked.try_recv().expect("answered")));
            assert_eq!(heads(seq.ledger), reference);
        });

        // The same window through `LocalBoundary`, which admits it as one
        // batch: refused whole, it moves neither ledger.
        let mut rng = HmacDrbg::from_u64(0xB08);
        let window = day
            .into_iter()
            .map(|(session, s)| SessionSubmission {
                session,
                commitments: s.commitments,
                checkout: CheckOutQr {
                    voter_id: s.record.voter_id,
                    c_pc: s.record.c_pc,
                    kiosk_pk: s.record.kiosk_pk,
                    kiosk_sig: s.record.kiosk_sig,
                },
                coupon: NonceCoupon::generate(&mut rng),
            })
            .collect();
        let mut system = system(LedgerBackend::InMemory);
        let before = heads(&system.ledger);
        let registry = [kiosk.public_key_compressed()];
        let (official, printer) = (&system.officials[0], &system.printers[0]);
        let mut local = LocalBoundary::new(official, printer, &mut system.ledger, &registry);
        assert_eq!(
            local.submit_window(window),
            Err(TripError::Ledger(LedgerError::NotOnRoster))
        );
        assert_eq!(heads(&system.ledger), before);
    }

    /// Up to the cap submissions only buffer; the one that crosses it is
    /// admitted before its submitter is answered — no barrier involved.
    #[test]
    fn crossing_the_cap_sweeps_on_the_submitters_call() {
        let (mut day, _) = day(0xCA9, |s| VoterId(s + 1));
        // Session 0 holds exactly the cap: its commitments and its record.
        let one = day[0].1.commitments[0].clone();
        day[0].1.commitments = vec![one; MAX_PENDING_RECORDS - 1];
        let (first, second) = (day[..1].to_vec(), day[1..2].to_vec());
        with_sequencer(&mut system(LedgerBackend::InMemory), |seq| {
            let base = heads(seq.ledger);
            answer(seq, |tx| Cmd::Window(first, tx));
            assert_eq!((seq.lane.next, seq.lane.ready), (0, 1));
            answer(seq, |tx| Cmd::Window(second, tx));
            assert_eq!((seq.lane.next, seq.lane.ready_records), (2, 0));
            let admitted = heads(seq.ledger);
            assert_eq!(admitted[0].0 - base[0].0, MAX_PENDING_RECORDS as u64 + 1);
            assert_eq!(admitted[1].0 - base[1].0, 2);
        });
    }

    /// A window of exactly [`MIN_IDLE_SWEEP`] records with no barrier
    /// behind it is admitted in the channel-idle gap after it. `Stats`
    /// only snapshots, so polling it sweeps nothing itself.
    #[test]
    fn an_idle_channel_sweeps_an_arrived_window() {
        let (mut day, _) = day(0x1D1E, |s| VoterId(s + 1));
        let one = day[0].1.commitments[0].clone();
        day[0].1.commitments = vec![one; MIN_IDLE_SWEEP - 1];
        // A leaked (`'static`) system, so the loop runs on a plain spawn.
        let system: &'static mut TripSystem = Box::leak(Box::new(system(LedgerBackend::InMemory)));
        let base = heads(&system.ledger);
        let official = &system.officials[0];
        let (client, sequencer) = Sequencer::new(&mut system.ledger, official, &Arc::default());
        std::thread::spawn(move || sequencer.run());
        let window = day[..1].to_vec();
        let submitted = client.ask(|tx| Cmd::Window(window, tx));
        assert!(matches!(submitted, Response::SubmitWindow));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let Response::IngestStats(stats) = client.ask(Cmd::Stats) else {
                panic!("stats answer");
            };
            assert_eq!(stats.batches, 1);
            if stats.sweeps == 1 {
                break;
            }
            assert!(Instant::now() < deadline, "no idle sweep within 20 s");
            std::thread::sleep(Duration::from_millis(1));
        }
        let Response::LedgerHeads(after) = client.ask(Cmd::Heads) else {
            panic!("heads answer");
        };
        assert_eq!(after.envelopes.size - base[0].0, MIN_IDLE_SWEEP as u64 - 1);
        assert_eq!(after.registration.size - base[1].0, 1);
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
        // the envelope record log's, which carries the reveal.
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
