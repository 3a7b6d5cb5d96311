//! The whole threaded day: engine wiring, the registrar's server, one
//! thread per runner, and the coordinator that releases outcomes in
//! queue order and steals a lost station's work (see the
//! [module docs](super)).

use std::collections::{BTreeMap, BTreeSet};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vg_ledger::VoterId;
use vg_trip::fleet::{
    last_occurrence_of, partition_stations, ActivationContext, KioskFleet, StationPlan,
};
use vg_trip::pool::SessionPlan;
use vg_trip::protocol::RegistrationOutcome;
use vg_trip::setup::TripSystem;
use vg_trip::vsd::Vsd;
use vg_trip::TripError;

use crate::channel::{Connector, Deadlines, TcpConnector};
use crate::fault::{FaultPlan, FaultyConnector};
use crate::gateway::{tcp_acceptor, Server, REAP_AFTER};
use crate::messages::{Request, Response};
use crate::retry::RetryPolicy;
use crate::transport::{
    client_policy, server_policy, ChannelSecurity, DayStats, EngineStats, LinkKind,
    RequestEndpoint, StealRecord,
};

use super::sequencer::Sequencer;
use super::station::{run_station, Link, PipelineDispatch, StationJob, StationMsg};
use super::{DayPlan, PipelineConfig};

/// How many times a failed steal chunk may be re-partitioned onto the
/// surviving stations before the day aborts with the runner's typed
/// error. Each retry re-steals only what is still undelivered, so replay
/// work stays bounded at roughly `depth × remaining`.
const MAX_RESTEAL_DEPTH: usize = 2;

/// Default coordinator liveness deadline: an original station that
/// delivers no outcome for this long while holding undelivered sessions
/// is declared *stalled* and stolen from like a dead one. Generous on
/// purpose: healthy stations deliver every few milliseconds, and a false
/// positive only wastes a replay. Chaos tests tighten it through
/// [`ChaosOptions::stall_timeout`](super::ChaosOptions::stall_timeout).
const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// `(global session index, plan)`, in session order.
type Plans = Vec<(usize, SessionPlan)>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Running,
    Finished,
    /// Died or declared stalled; a later `Done` changes nothing.
    Lost,
}

/// One entry of the runner table — the original stations, then every
/// steal chunk in spawn order; a runner's id is its index.
struct Runner {
    state: State,
    /// The station whose link it dials: its own, or a chunk's thief.
    station: usize,
    /// The original station whose sessions it runs.
    victim: usize,
    /// Re-steal depth (0 for an original station).
    depth: usize,
    plans: Plans,
    /// When it was spawned or last delivered an outcome.
    heard: Instant,
}

/// What the scope loop must do after a runner ended or was declared lost:
/// spawn these steal chunks, and whether to fail every parked barrier so
/// blocked runners unwind.
struct Recovery {
    spawn: Range<usize>,
    abort: bool,
}

/// The threaded day's coordinator, without threads or a clock of its own:
/// the runner table and the buffer that releases deliveries in global
/// session order. It never blocks, spawns or reads the time; each call
/// takes `now` and returns what the scope loop must do.
struct Coordinator<D> {
    runners: Vec<Runner>,
    /// `runners[..stations]` are the original stations.
    stations: usize,
    kiosks: usize,
    total: usize,
    /// `[0, next_emit)` went to the sink.
    next_emit: usize,
    /// Arrived deliveries at or above `next_emit`.
    buffered: BTreeMap<usize, D>,
    failed: Option<TripError>,
    stall_timeout: Duration,
}

impl<D> Coordinator<D> {
    fn new(
        now: Instant,
        stations: Vec<StationPlan>,
        kiosks: usize,
        stall_timeout: Duration,
    ) -> Self {
        let mut coord = Self {
            runners: Vec::new(),
            stations: stations.len(),
            kiosks,
            total: stations.iter().map(|sp| sp.plans.len()).sum(),
            next_emit: 0,
            buffered: BTreeMap::new(),
            failed: None,
            stall_timeout,
        };
        for sp in stations {
            coord.add(now, sp.station, sp.station, 0, sp.plans);
        }
        coord
    }

    fn add(&mut self, now: Instant, station: usize, victim: usize, depth: usize, plans: Plans) {
        self.runners.push(Runner {
            state: State::Running,
            station,
            victim,
            depth,
            plans,
            heard: now,
        });
    }

    fn running(&self) -> bool {
        self.runners.iter().any(|r| r.state == State::Running)
    }

    /// Neither released nor buffered: nobody has delivered it yet.
    fn undelivered(&self, idx: usize) -> bool {
        idx >= self.next_emit && !self.buffered.contains_key(&idx)
    }

    /// Runner `id` delivered session `idx`: returns what is now
    /// releasable, in session order. A replay (below the cursor, or
    /// already buffered) is dropped; a lost runner's delivery counts, as
    /// a station declared stalled may only be slow.
    fn outcome(&mut self, now: Instant, id: usize, idx: usize, delivery: D) -> Vec<D> {
        let runner = &mut self.runners[id];
        if runner.state == State::Running {
            runner.heard = now;
        }
        if idx >= self.next_emit {
            self.buffered.entry(idx).or_insert(delivery);
        }
        let mut release = Vec::new();
        while let Some(delivery) = self.buffered.remove(&self.next_emit) {
            release.push(delivery);
            self.next_emit += 1;
        }
        release
    }

    /// Runner `id` ended: cleanly, or lost with its error.
    fn done(&mut self, now: Instant, id: usize, result: Result<(), TripError>) -> Recovery {
        let (first, mut abort) = (self.runners.len(), false);
        if self.runners[id].state == State::Running {
            match result {
                Ok(()) => self.runners[id].state = State::Finished,
                Err(e) => abort = self.lose(now, id, e),
            }
        }
        let spawn = first..self.runners.len();
        Recovery { spawn, abort }
    }

    /// The liveness scan: an original station that is running, silent
    /// for the deadline and holds undelivered sessions is lost without
    /// having died (counted in `stats`). Steal chunks are never watched,
    /// so a slow chunk spends no re-steal depth.
    fn tick(&mut self, now: Instant, stats: &EngineStats) -> Recovery {
        let (first, mut abort) = (self.runners.len(), false);
        for id in 0..self.stations {
            let runner = &self.runners[id];
            if runner.state == State::Running
                && now.saturating_duration_since(runner.heard) >= self.stall_timeout
                && runner.plans.iter().any(|&(idx, _)| self.undelivered(idx))
            {
                stats.stall_steals.fetch_add(1, Ordering::Relaxed);
                let timeout = self.stall_timeout;
                let why = format!("station {id} stalled: no outcome within {timeout:?}");
                abort |= self.lose(now, id, TripError::Boundary(why));
            }
        }
        let spawn = first..self.runners.len();
        Recovery { spawn, abort }
    }

    /// Marks runner `id` lost and steals its undelivered sessions (an
    /// original station's at depth 0, a chunk's one deeper), split by
    /// kiosk into contiguous chunks dealt round-robin to the original
    /// stations not lost, or with none left one chunk on the victim's own
    /// link, each heard from at `now`. Returns whether the day must abort
    /// instead.
    fn lose(&mut self, now: Instant, id: usize, error: TripError) -> bool {
        self.runners[id].state = State::Lost;
        let runner = &self.runners[id];
        let victim = runner.victim;
        let depth = runner.depth + usize::from(id >= self.stations);
        if self.failed.is_some() || depth > MAX_RESTEAL_DEPTH {
            self.failed.get_or_insert(error);
            return true;
        }
        let k = self.kiosks;
        let mut remaining = runner.plans.clone();
        remaining.retain(|&(idx, _)| self.undelivered(idx));
        let stolen = BTreeSet::from_iter(remaining.iter().map(|(idx, _)| idx % k));
        let stolen: Vec<usize> = stolen.into_iter().collect();
        let survivors: Vec<usize> = (0..self.stations)
            .filter(|&s| self.runners[s].state != State::Lost)
            .collect();
        let chunks = survivors.len().max(1).min(stolen.len());
        for c in 0..chunks {
            let owned = &stolen[c * stolen.len() / chunks..(c + 1) * stolen.len() / chunks];
            let mut plans = remaining.clone();
            plans.retain(|(idx, _)| owned.contains(&(idx % k)));
            let thief = survivors.get(c % survivors.len().max(1));
            self.add(now, thief.copied().unwrap_or(victim), victim, depth, plans);
        }
        false
    }

    /// The steal log: the table's chunks, in spawn order.
    fn steals(&self) -> Vec<StealRecord> {
        let record = |r: &Runner| StealRecord {
            victim: r.victim,
            thief: r.station,
            sessions: r.plans.len(),
            depth: r.depth,
        };
        self.runners[self.stations..].iter().map(record).collect()
    }

    /// The day's verdict once no runner is running.
    fn finish(self) -> Result<Vec<StealRecord>, TripError> {
        let (delivered, total) = (self.next_emit, self.total);
        match self.failed {
            Some(e) => Err(e),
            None if delivered != total => Err(TripError::Boundary(format!(
                "day ended with {delivered}/{total} sessions delivered"
            ))),
            None => Ok(self.steals()),
        }
    }
}

/// [`run_day`] on the threaded engine: the commit sequencer, the server
/// (on a TCP day) and one thread per runner, coordinated from the
/// caller's thread.
pub(super) fn run_threaded_day(
    fleet: &KioskFleet,
    system: &mut TripSystem,
    queue: &[(VoterId, usize)],
    plan: &DayPlan,
    sink: &mut dyn FnMut(RegistrationOutcome, Vsd),
) -> Result<DayStats, TripError> {
    let (transport, pipeline) = (plan.transport, plan.pipeline);
    let chaos = plan.chaos.clone().unwrap_or_default();
    let fault = chaos.fault;
    let stall_timeout = chaos.stall_timeout.unwrap_or(DEFAULT_STALL_TIMEOUT);
    let authority_pk = system.authority.public_key;
    let printer_registry = system.printer_registry.clone();
    let last_occurrence = last_occurrence_of(queue);
    let TripSystem {
        officials,
        printers,
        ledger,
        kiosks,
        kiosk_registry,
        adversary_loot,
        transport_keys,
        ..
    } = system;
    let (Some(official), Some(printer)) = (officials.first(), printers.first()) else {
        return Err(TripError::InvalidConfig(
            "a registration day needs at least one official and one printer".into(),
        ));
    };
    let threads = fleet.config().threads;
    let ctx = ActivationContext {
        authority_pk: &authority_pk,
        printer_registry: &printer_registry,
        last_occurrence: &last_occurrence,
    };
    let station_plans = partition_stations(queue, kiosks, pipeline.stations)?;
    let stations = station_plans.len();
    // Disk faults go in before the engine is wired so the very first
    // WAL write is already under the injected schedule.
    if let Some(ff) = chaos.plan.as_ref().and_then(FaultPlan::fault_fs) {
        ledger.install_fault_fs(ff);
    }

    // The day's one counter block: every engine thread bumps it in place.
    let stats = Arc::<EngineStats>::default();
    let (client, sequencer) = Sequencer::new(ledger, official, threads, pipeline.ingest, &stats);

    // TCP: bind before the scope so stations can connect immediately.
    let bind = || TcpListener::bind(("127.0.0.1", 0));
    let listener = (transport.link == LinkKind::Tcp).then(bind).transpose();
    let listener = listener.map_err(|e| TripError::Boundary(format!("bind: {e}")))?;
    let addr = listener.as_ref().map(TcpListener::local_addr).transpose();
    let addr = addr.map_err(|e| TripError::Boundary(format!("local_addr: {e}")))?;
    // Cleared at teardown: the acceptor stops admitting.
    let accepting = Arc::new(AtomicBool::new(true));
    let sealed = transport.security == ChannelSecurity::Secure;
    // One connector per station, carrying its enrolled channel identity;
    // its refiller and the steal chunks it hosts dial the same one.
    let connector = |addr, station| -> Box<dyn Connector> {
        let base = Box::new(TcpConnector {
            addr,
            policy: client_policy(transport_keys, transport.security, station),
            deadlines: Deadlines::default(),
        });
        // Network faults wrap the established channel, secured or not.
        match &chaos.plan {
            Some(fp) if fp.net_rate_permille > 0 => {
                Box::new(FaultyConnector::new(base, fp.clone(), station, sealed))
            }
            _ => base,
        }
    };
    // The in-process day (the bit-identity reference) dispatches straight
    // into the engine; a TCP day is served.
    let connectors: Option<Vec<_>> =
        addr.map(|addr| (0..stations).map(|s| connector(addr, s)).collect());

    // Releases injected hangs at teardown so their threads join.
    let day_over = Arc::new(AtomicBool::new(false));
    let steals = std::thread::scope(|scope| -> Result<Vec<StealRecord>, TripError> {
        // The engine's side of the seam, cloned per link and connection.
        let registrar = PipelineDispatch {
            official,
            printer,
            kiosk_registry,
            threads,
            client,
        };
        scope.spawn(move || sequencer.run());

        // One acceptor hands every connection a thread of its own.
        if let Some(listener) = listener {
            let server = Server {
                policy: server_policy(transport_keys, transport.security),
                endpoint: registrar.clone(),
                reap_after: REAP_AFTER,
                stats: Arc::clone(&stats),
                open: Arc::clone(&accepting),
            };
            scope.spawn(move || tcp_acceptor(scope, listener, server));
        }

        let (msg_tx, msg_rx) = mpsc::channel::<StationMsg>();
        let mut coord =
            Coordinator::new(Instant::now(), station_plans, kiosks.len(), stall_timeout);
        // Steal chunks the kill-during-failover fault may still kill.
        let mut recovery_deaths_left = fault.map_or(0, |f| f.recovery_deaths);
        // One runner's thread. A steal chunk draws its sessions from a
        // pre-built pool (no refiller; same seeded plans, same bytes).
        let mut spawn = |id: usize, runner: &Runner| {
            let original = id < stations;
            let hang = chaos.hang.filter(|h| original && h.station == id);
            let fault_after = match fault {
                Some(f) if original => (f.station == id).then_some(f.after_ops),
                Some(f) if f.station == runner.victim && recovery_deaths_left > 0 => {
                    f.recovery_after_ops.inspect(|_| recovery_deaths_left -= 1)
                }
                _ => None,
            };
            let job = StationJob {
                fleet,
                kiosks,
                plans: runner.plans.clone(),
                authority_pk,
                activation: plan.activate.then_some(&ctx),
                pipeline: PipelineConfig {
                    low_water: if original { pipeline.low_water } else { 0 },
                    ..pipeline
                },
                fault_after: fault_after.or(hang.map(|h| h.after_ops)),
                hang_release: hang.map(|_| Arc::clone(&day_over)),
                retry: RetryPolicy::reconnect(id as u64),
                stats: &stats,
            };
            let tx = msg_tx.clone();
            let link = match &connectors {
                Some(conns) => Link::Gateway(conns[runner.station].as_ref()),
                None => Link::InProcess(registrar.clone()),
            };
            scope.spawn(move || {
                let result = run_station(job, link, id, &tx);
                let _ = tx.send(StationMsg::Done(id, result));
            });
        };
        for id in 0..stations {
            spawn(id, &coord.runners[id]);
        }

        // Release outcomes (and adversary loot) in global session order
        // and act on every loss. Nothing here returns: leaving the scope
        // with the acceptor parked in accept() would deadlock its join.
        let poll = (stall_timeout / 4).clamp(Duration::from_millis(10), Duration::from_millis(250));
        while coord.running() {
            let recovery = match msg_rx.recv_timeout(poll) {
                Ok(StationMsg::Outcome(id, idx, delivery)) => {
                    for delivery in coord.outcome(Instant::now(), id, idx, delivery) {
                        let (outcome, vsd, stolen) = *delivery;
                        adversary_loot.extend(stolen);
                        sink(outcome, vsd.unwrap_or_default());
                    }
                    continue;
                }
                Ok(StationMsg::Done(id, result)) => coord.done(Instant::now(), id, result),
                Err(RecvTimeoutError::Timeout) => coord.tick(Instant::now(), &stats),
                Err(RecvTimeoutError::Disconnected) => break,
            };
            for id in recovery.spawn {
                spawn(id, &coord.runners[id]);
            }
            if recovery.abort {
                registrar.client.abort();
            }
        }
        // The final barrier, over the same in-process link a station uses.
        let synced = |steals| match registrar.clone().call(Request::Sync) {
            Response::Err(e) => Err(e.into_trip()),
            _ => Ok(steals),
        };
        let result = coord.finish().and_then(synced);

        // Teardown, on success and failure alike: release injected hangs,
        // stop the acceptor and wake it (parked in accept()) with a
        // throwaway connection; connection threads end as clients hang up.
        day_over.store(true, Ordering::SeqCst);
        accepting.store(false, Ordering::SeqCst);
        if let Some(addr) = addr {
            drop(TcpStream::connect(addr));
        }
        // Dropping the last client outside a runner ends the sequencer's
        // loop — on every exit path, or the scope join deadlocks.
        drop(registrar);
        result
    })?;
    // Every engine thread has joined: the ledger is ours again.
    Ok(DayStats {
        steals,
        ..stats.snapshot(ledger.durability_stats())
    })
}

#[cfg(test)]
mod tests {
    //! The coordinator without threads: each case drives the runner table
    //! on the test thread, with a session's own index as its delivery.

    use super::*;

    const TIMEOUT: Duration = Duration::from_millis(400);

    /// One station per session list; the plans carry nothing the
    /// coordinator reads.
    fn plans(stations: &[&[usize]]) -> Vec<StationPlan> {
        let plan = |&idx: &usize| {
            let voter = VoterId(idx as u64);
            (
                idx,
                SessionPlan {
                    voter,
                    n_fakes: 0,
                    malicious: false,
                },
            )
        };
        let station = |(station, sessions): (usize, &&[usize])| StationPlan {
            station,
            plans: sessions.iter().map(plan).collect(),
        };
        stations.iter().enumerate().map(station).collect()
    }

    /// Nine sessions over six kiosks and three stations, as
    /// `partition_stations` lays them out: station `s` owns kiosks
    /// `{2s, 2s + 1}`, so station 1 owns sessions {2, 3, 8}. All three are
    /// spawned at `now`.
    fn three_stations(now: Instant) -> Coordinator<usize> {
        let stations = plans(&[&[0, 1, 6, 7], &[2, 3, 8], &[4, 5]]);
        Coordinator::new(now, stations, 6, TIMEOUT)
    }

    fn lost(why: &str) -> Result<(), TripError> {
        Err(TripError::Boundary(why.into()))
    }

    /// Runner `id` delivers `sessions` in this order at `now`; returns
    /// what the coordinator released.
    fn deliver(
        coord: &mut Coordinator<usize>,
        now: Instant,
        id: usize,
        sessions: &[usize],
    ) -> Vec<usize> {
        let released = sessions
            .iter()
            .flat_map(|&idx| coord.outcome(now, id, idx, idx));
        released.collect()
    }

    /// `(station, depth, sessions)` of each runner in `ids`.
    fn runners(coord: &Coordinator<usize>, ids: Range<usize>) -> Vec<(usize, usize, Vec<usize>)> {
        let sessions = |r: &Runner| r.plans.iter().map(|&(idx, _)| idx).collect();
        let runner = |r: &Runner| (r.station, r.depth, sessions(r));
        coord.runners[ids].iter().map(runner).collect()
    }

    fn steal(victim: usize, thief: usize, sessions: usize, depth: usize) -> StealRecord {
        StealRecord {
            victim,
            thief,
            sessions,
            depth,
        }
    }

    #[test]
    fn outcomes_release_in_session_order_and_replays_are_dropped() {
        let t0 = Instant::now();
        let mut coord = three_stations(t0);
        assert!(deliver(&mut coord, t0, 1, &[3, 2]).is_empty());
        assert!(deliver(&mut coord, t0, 2, &[5, 4]).is_empty());
        assert_eq!(deliver(&mut coord, t0, 0, &[0]), [0]);
        assert_eq!(deliver(&mut coord, t0, 0, &[1]), [1, 2, 3, 4, 5]);
        // A replay of a released session is dropped, not parked for the
        // rest of the day beside its credentials.
        assert!(deliver(&mut coord, t0, 0, &[1, 3]).is_empty());
        assert!(coord.buffered.is_empty());
        assert_eq!(deliver(&mut coord, t0, 0, &[6, 7]), [6, 7]);
        for id in 0..3 {
            assert!(!coord.done(t0, id, Ok(())).abort);
        }
        // Every runner finished with session 8 never delivered: a gap.
        assert!(!coord.running());
        assert_eq!(
            coord.finish(),
            Err(TripError::Boundary(
                "day ended with 8/9 sessions delivered".into()
            ))
        );
    }

    #[test]
    fn a_dead_station_is_split_by_kiosk_over_the_survivors() {
        let t0 = Instant::now();
        let mut coord = three_stations(t0);
        // A finished station still takes its share.
        assert!(deliver(&mut coord, t0, 2, &[4, 5]).is_empty());
        assert!(!coord.done(t0, 2, Ok(())).abort);
        // Session 2 is buffered, so it counts as delivered: the steal is
        // {3, 8}, kiosks 3 and 2, one chunk each, dealt in order.
        assert!(deliver(&mut coord, t0, 1, &[2]).is_empty());
        let recovery = coord.done(t0, 1, lost("station 1 died"));
        assert_eq!((recovery.spawn, recovery.abort), (3..5, false));
        assert_eq!(runners(&coord, 3..5), [(0, 0, vec![8]), (2, 0, vec![3])]);
        assert!(coord.runners[3..].iter().all(|r| r.victim == 1));
        assert_eq!(coord.steals(), [steal(1, 0, 1, 0), steal(1, 2, 1, 0)]);

        assert_eq!(deliver(&mut coord, t0, 0, &[0, 1, 6, 7]), [0, 1, 2]);
        assert_eq!(deliver(&mut coord, t0, 4, &[3]), [3, 4, 5, 6, 7]);
        assert_eq!(deliver(&mut coord, t0, 3, &[8]), [8]);
        for id in [0, 3, 4] {
            assert!(!coord.done(t0, id, Ok(())).abort);
        }
        assert!(!coord.running());
        assert_eq!(coord.finish().map(|s| s.len()), Ok(2));
    }

    #[test]
    fn a_dead_chunk_is_restolen_one_level_deeper_until_the_bound() {
        let t0 = Instant::now();
        let mut coord = three_stations(t0);
        assert_eq!(coord.done(t0, 1, lost("station 1 died")).spawn, 3..5);
        assert_eq!(runners(&coord, 3..4), [(0, 0, vec![2, 8])]);
        let mut chunk = 3;
        for depth in 1..=MAX_RESTEAL_DEPTH {
            let recovery = coord.done(t0, chunk, lost("a chunk died"));
            assert!(!recovery.abort && recovery.spawn.len() == 1);
            chunk = recovery.spawn.start;
            // One kiosk left to steal: one chunk, on the first survivor.
            assert_eq!(runners(&coord, chunk..chunk + 1), [(0, depth, vec![2, 8])]);
        }
        let recovery = coord.done(t0, chunk, lost("the last chunk died"));
        assert!(recovery.abort && recovery.spawn.is_empty());
        // Once the day has failed a loss re-steals nothing.
        let recovery = coord.done(t0, 4, lost("a chunk died after the abort"));
        assert!(recovery.abort && recovery.spawn.is_empty());
        for id in [0, 2] {
            coord.done(t0, id, Ok(()));
        }
        assert!(!coord.running());
        let depths: Vec<usize> = coord.steals().iter().map(|s| s.depth).collect();
        assert_eq!(depths, [0, 0, 1, 2]);
        assert_eq!(
            coord.finish(),
            Err(TripError::Boundary("the last chunk died".into()))
        );
    }

    #[test]
    fn with_no_survivors_the_victim_replays_one_chunk_itself() {
        let t0 = Instant::now();
        let mut coord = Coordinator::new(t0, plans(&[&[0, 1, 2, 3, 4]]), 4, TIMEOUT);
        assert_eq!(deliver(&mut coord, t0, 0, &[0]), [0]);
        let recovery = coord.done(t0, 0, lost("the only station died"));
        assert_eq!((recovery.spawn, recovery.abort), (1..2, false));
        assert_eq!(runners(&coord, 1..2), [(0, 0, vec![1, 2, 3, 4])]);
        assert_eq!(coord.steals(), [steal(0, 0, 4, 0)]);
    }

    #[test]
    fn a_stalled_station_is_stolen_from_once_and_its_late_done_is_ignored() {
        let stats = EngineStats::default();
        let t0 = Instant::now();
        let mut coord = three_stations(t0);
        assert_eq!(deliver(&mut coord, t0, 0, &[0, 1, 6, 7]), [0, 1]);
        assert!(deliver(&mut coord, t0, 2, &[4, 5]).is_empty());
        for id in [0, 2] {
            coord.done(t0, id, Ok(()));
        }
        let stall_steals = || stats.stall_steals.load(Ordering::Relaxed);
        let recovery = coord.tick(t0, &stats);
        assert!(recovery.spawn.is_empty() && !recovery.abort);

        let late = t0 + TIMEOUT;
        let recovery = coord.tick(late, &stats);
        assert_eq!((recovery.spawn, recovery.abort), (3..5, false));
        assert_eq!(stall_steals(), 1);
        assert!(coord.tick(late + TIMEOUT, &stats).spawn.is_empty());
        // The station was slow, not hung: its deliveries count like its
        // thieves' would, while its late `Done`, clean or not, neither
        // aborts the day nor steals again.
        assert_eq!(deliver(&mut coord, t0, 1, &[3, 2]), [2, 3, 4, 5, 6, 7]);
        for late_done in [Ok(()), lost("station 1 was only slow")] {
            let recovery = coord.done(t0, 1, late_done);
            assert!(recovery.spawn.is_empty() && !recovery.abort);
        }
        assert_eq!(coord.runners[1].state, State::Lost);
        assert_eq!(deliver(&mut coord, t0, 4, &[3]), []);
        assert_eq!(deliver(&mut coord, t0, 3, &[2, 8]), [8]);
        // Every re-delivery fell below the cursor: nothing stays parked.
        assert!(deliver(&mut coord, t0, 1, &[8]).is_empty() && coord.buffered.is_empty());
        for id in [3, 4] {
            coord.done(t0, id, Ok(()));
        }
        assert!(!coord.running());
        assert_eq!(stall_steals(), 1);
        assert_eq!(
            coord.finish(),
            Ok(vec![steal(1, 0, 2, 0), steal(1, 2, 1, 0)])
        );
    }

    #[test]
    fn a_steal_chunk_is_never_declared_stalled() {
        let stats = EngineStats::default();
        let t0 = Instant::now();
        let mut coord = three_stations(t0);
        assert_eq!(coord.done(t0, 1, lost("station 1 died")).spawn, 3..5);
        // The survivors have delivered all they own, so only the two
        // silent chunks hold undelivered sessions.
        deliver(&mut coord, t0, 0, &[0, 1, 6, 7]);
        deliver(&mut coord, t0, 2, &[4, 5]);
        let recovery = coord.tick(t0 + TIMEOUT * 10, &stats);
        assert!(recovery.spawn.is_empty() && !recovery.abort);
        assert_eq!(stats.stall_steals.load(Ordering::Relaxed), 0);
        assert!(coord.runners[3..].iter().all(|r| r.state == State::Running));
    }

    #[test]
    fn stall_deadline_is_read_on_the_callers_clock() {
        // A virtual clock, no sleep. Station 1 was spawned at `start` and
        // last heard from at t₀, when it delivered session 2; it still
        // owes 3 and 8. The deadline runs from t₀, not from the spawn.
        let stats = EngineStats::default();
        let start = Instant::now();
        let mut coord = three_stations(start);
        for (id, sessions) in [(0, &[0, 1, 6, 7][..]), (2, &[4, 5])] {
            deliver(&mut coord, start, id, sessions);
            coord.done(start, id, Ok(()));
        }
        let t0 = start + TIMEOUT * 3;
        assert_eq!(deliver(&mut coord, t0, 1, &[2]), [2]);
        let ms = Duration::from_millis(1);
        let recovery = coord.tick(t0 + TIMEOUT - ms, &stats);
        assert!(recovery.spawn.is_empty() && !recovery.abort);
        assert_eq!(coord.runners[1].state, State::Running);
        assert_eq!(stats.stall_steals.load(Ordering::Relaxed), 0);

        let recovery = coord.tick(t0 + TIMEOUT + ms, &stats);
        assert_eq!((recovery.spawn, recovery.abort), (3..5, false));
        assert_eq!(coord.runners[1].state, State::Lost);
        assert_eq!(stats.stall_steals.load(Ordering::Relaxed), 1);
        // The thieves were spawned at the tick's `now`.
        assert!(coord.runners[3..]
            .iter()
            .all(|r| r.heard == t0 + TIMEOUT + ms));
    }
}
