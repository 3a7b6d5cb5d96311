//! The whole threaded day: engine wiring, the registrar's server, one
//! thread per station, and the coordinator that releases outcomes in
//! queue order and steals a lost station's work (see the
//! [module docs](super)).

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vg_ledger::VoterId;
use vg_trip::fleet::{last_occurrence_of, partition_stations, ActivationContext, KioskFleet};
use vg_trip::protocol::RegistrationOutcome;
use vg_trip::setup::TripSystem;
use vg_trip::vsd::Vsd;
use vg_trip::TripError;

use crate::channel::{pipe_pair, Connector, Deadlines, TcpConnector};
use crate::fault::{FaultPlan, FaultyConnector};
use crate::gateway::{pipe_acceptor, tcp_acceptor, PipeHub, Server, REAP_AFTER};
use crate::messages::{Request, Response};
use crate::retry::RetryPolicy;
use crate::transport::{
    client_policy, server_policy, ChannelSecurity, DayStats, EngineStats, LinkKind,
    RequestEndpoint, StealRecord,
};

use super::sequencer::Sequencer;
use super::station::{
    run_station, Link, PipelineDispatch, SessionDelivery, StationJob, StationMsg,
};
use super::{ChaosOptions, DayPlan};

/// Coordinator bookkeeping for one in-flight steal chunk: enough to
/// re-partition its sessions onto the remaining survivors if the chunk's
/// runner dies too, up to [`MAX_RESTEAL_DEPTH`] retries deep.
struct StealMeta {
    /// The original dead station (attribution in [`StealRecord`]s).
    victim: usize,
    /// Retry depth of this chunk (0 = stolen from the victim itself).
    depth: usize,
    /// Global session indices the chunk was responsible for.
    sessions: Vec<usize>,
}

/// How many times a failed steal chunk may be re-partitioned onto the
/// surviving stations before the day gives up with the runner's typed
/// error. Depth 0 is the initial steal off a dead station; each retry
/// re-steals only what is still undelivered, so bounded depth bounds
/// total replay work at roughly `depth × remaining`.
const MAX_RESTEAL_DEPTH: usize = 2;

/// Default coordinator liveness deadline: a station that delivers no
/// outcome for this long (while still holding undelivered sessions) is
/// declared *stalled* and its remainder is stolen exactly like a dead
/// station's. Deliberately generous — healthy stations deliver every few
/// milliseconds, and a false positive is merely wasteful (the dedup
/// layer absorbs the double delivery), never incorrect. Chaos tests
/// tighten it through [`ChaosOptions::stall_timeout`].
const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// [`run_day`] on the threaded engine: the commit sequencer, the server
/// (for every plan but plaintext in-process) and one thread per polling
/// station, coordinated from the caller's thread.
pub(super) fn run_threaded_day(
    fleet: &KioskFleet,
    system: &mut TripSystem,
    queue: &[(VoterId, usize)],
    plan: &DayPlan,
    sink: &mut dyn FnMut(RegistrationOutcome, Vsd),
) -> Result<DayStats, TripError> {
    let DayPlan {
        transport,
        pipeline,
        activate,
        ..
    } = *plan;
    let quiet = ChaosOptions::default();
    let chaos = plan.chaos.as_ref().unwrap_or(&quiet);
    let fault = chaos.fault;
    let stall_timeout = chaos.stall_timeout.unwrap_or(DEFAULT_STALL_TIMEOUT);
    let authority_pk = system.authority.public_key;
    let printer_registry = system.printer_registry.clone();
    let last_occurrence = last_occurrence_of(queue);
    let total_sessions = queue.len();
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

    // Disk faults go in before the engine is wired so the very first
    // WAL write is already under the injected schedule.
    if let Some(ff) = chaos.plan.as_ref().and_then(FaultPlan::fault_fs) {
        ledger.install_fault_fs(ff);
    }

    // The day's one counter block: the sequencer books sweeps and
    // busy/idle time into it, station/refiller/steal runners their
    // timeouts and reconnects, the server's connection threads their
    // reaps, the coordinator its stall steals.
    let stats = Arc::<EngineStats>::default();

    let (client, sequencer) = Sequencer::new(
        ledger,
        official,
        threads,
        pipeline.ingest,
        Arc::clone(&stats),
    );

    // TCP: bind before the scope so stations can connect immediately.
    let listener = match transport.link {
        LinkKind::InProcess => None,
        LinkKind::Tcp => Some(
            TcpListener::bind(("127.0.0.1", 0))
                .map_err(|e| TripError::Boundary(format!("bind: {e}")))?,
        ),
    };
    let addr = listener
        .as_ref()
        .map(|l| l.local_addr())
        .transpose()
        .map_err(|e| TripError::Boundary(format!("local_addr: {e}")))?;
    // Cleared at teardown: the acceptor stops admitting. Connection
    // threads end when their clients hang up.
    let accepting = Arc::new(AtomicBool::new(true));

    // The server serves every remote-ish day: real TCP links, and
    // in-process links that the policy secures (the handshake needs the
    // frame-level server). Only the plaintext in-process day bypasses it
    // and dispatches straight into the engine — that is the bit-identity
    // reference and the zero-overhead perf path.
    let use_gateway =
        transport.link == LinkKind::Tcp || transport.security == ChannelSecurity::Secure;
    // Where in-process dials land (secure in-process days).
    let (pipe_tx, pipe_rx) = mpsc::channel();
    // One pluggable connector per station, carrying that station's
    // enrolled channel identity; its refiller and the steal runners it
    // hosts dial the same connector (they act on the station's behalf).
    let connectors: Option<Vec<Box<dyn Connector>>> = use_gateway.then(|| {
        station_plans
            .iter()
            .map(|sp| -> Box<dyn Connector> {
                let policy = client_policy(transport_keys, transport.security, sp.station);
                let base: Box<dyn Connector> = match addr {
                    Some(addr) => Box::new(TcpConnector {
                        addr,
                        policy,
                        deadlines: Deadlines::default(),
                    }),
                    None => Box::new(PipeHub {
                        intake: pipe_tx.clone(),
                        policy,
                    }),
                };
                // Network faults wrap the *established* channel, so the
                // schedule applies uniformly to plaintext and secured
                // links (injection sits outside the security policy).
                match &chaos.plan {
                    Some(fp) if fp.net_rate_permille > 0 => {
                        Box::new(FaultyConnector::new(base, fp.clone(), sp.station))
                    }
                    _ => base,
                }
            })
            .collect()
    });

    // Releases injected hangs at teardown so their threads join.
    let day_over = Arc::new(AtomicBool::new(false));

    let steals = std::thread::scope(|scope| -> Result<Vec<StealRecord>, TripError> {
        // The engine's side of the seam; every in-process link and every
        // served connection calls its own clone.
        let registrar = PipelineDispatch {
            official,
            printer,
            kiosk_registry,
            threads,
            client,
        };
        scope.spawn(move || sequencer.run());

        // The server: one acceptor (a TCP listener, or the intake
        // in-process dials land in) hands every connection — stations,
        // refillers, steal runners — a thread of its own.
        if use_gateway {
            let server = Server {
                policy: server_policy(transport_keys, transport.security),
                endpoint: registrar.clone(),
                reap_after: REAP_AFTER,
                stats: Arc::clone(&stats),
                open: Arc::clone(&accepting),
            };
            match listener {
                Some(listener) => scope.spawn(move || tcp_acceptor(scope, listener, server)),
                None => scope.spawn(move || pipe_acceptor(scope, pipe_rx, server)),
            };
        }

        let station_link = |station: usize| match &connectors {
            Some(conns) => Link::Gateway(conns[station].as_ref()),
            None => Link::InProcess(registrar.clone()),
        };

        let (msg_tx, msg_rx) = mpsc::channel::<StationMsg>();
        let mut spawned = 0usize;
        for sp in &station_plans {
            let hang = chaos.hang.filter(|h| h.station == sp.station);
            let job = StationJob {
                fleet,
                kiosks,
                plans: sp.plans.clone(),
                authority_pk,
                activation: activate.then_some(&ctx),
                pipeline,
                fault_after: fault
                    .filter(|f| f.station == sp.station)
                    .map(|f| f.after_ops)
                    .or(hang.map(|h| h.after_ops)),
                hang_release: hang.map(|_| Arc::clone(&day_over)),
                retry: RetryPolicy::reconnect(sp.station as u64),
                stats: &stats,
            };
            let tx = msg_tx.clone();
            let station_id = sp.station;
            let link = station_link(sp.station);
            scope.spawn(move || {
                let result = run_station(job, link, &tx);
                let _ = tx.send(StationMsg::Done(station_id, result));
            });
            spawned += 1;
        }

        // Coordinator: release outcomes in global session order, push
        // adversary loot in that same order, and steal a dead station's
        // undelivered kiosk range onto the survivors. Runs as an
        // immediately-invoked closure so EVERY exit path — including the
        // error returns — falls through to the acceptor wake-up below;
        // returning early from the scope with the acceptor still parked
        // in accept() would deadlock the scope join.
        let coordinate = || -> Result<Vec<StealRecord>, TripError> {
            let mut next_emit = 0usize;
            let mut buffered: BTreeMap<usize, SessionDelivery> = BTreeMap::new();
            let mut done = 0usize;
            let mut recovered: HashSet<usize> = HashSet::new();
            let mut alive = vec![true; station_plans.len()];
            let mut steals: Vec<StealRecord> = Vec::new();
            let mut steal_seq = 0usize;
            let mut first_error: Option<TripError> = None;
            let mut steal_meta: HashMap<usize, StealMeta> = HashMap::new();
            // Chaos budget: how many recovery runners the injected fault
            // may still kill (so bounded re-steal is testable without
            // the fault killing every retry forever).
            let mut recovery_deaths_left = fault.map_or(0, |f| f.recovery_deaths);
            // Stall-aware liveness. `session_owner` resolves a delivered
            // session index back to its original station so each outcome
            // refreshes its station's activity clock; a station with
            // undelivered sessions and a stale clock is declared
            // *stalled* — lost without the courtesy of dying — and its
            // remainder is stolen through the exact same path as a dead
            // station's, by synthesizing the `Done(id, Err)` it never
            // sent. If the stalled station later recovers and sends its
            // REAL `Done`, that message is swallowed (`stalled` set):
            // the synthetic one already advanced the `done` accounting,
            // and a late error must not abort a day the steal healed.
            let session_owner: HashMap<usize, usize> = station_plans
                .iter()
                .enumerate()
                .flat_map(|(s, sp)| sp.plans.iter().map(move |&(idx, _)| (idx, s)))
                .collect();
            let mut last_activity: Vec<Instant> = vec![Instant::now(); station_plans.len()];
            let mut finished: HashSet<usize> = HashSet::new();
            let mut stalled: HashSet<usize> = HashSet::new();
            let mut synthetic: VecDeque<StationMsg> = VecDeque::new();
            let stall_poll =
                (stall_timeout / 4).clamp(Duration::from_millis(10), Duration::from_millis(250));
            while done < spawned {
                let (msg, synthesized) = match synthetic.pop_front() {
                    Some(msg) => (msg, true),
                    None => match msg_rx.recv_timeout(stall_poll) {
                        Ok(msg) => (msg, false),
                        Err(RecvTimeoutError::Disconnected) => break,
                        Err(RecvTimeoutError::Timeout) => {
                            // Liveness scan: only stations that are still
                            // nominally alive, unfinished, hold sessions
                            // nobody has delivered, and have been silent
                            // past the deadline. A healthy station parked
                            // on an activation barrier keeps its clock
                            // fresh through the other stations' outcomes
                            // only if it owns none of the missing
                            // sessions — so a false positive costs a
                            // redundant (deduped) replay, never
                            // correctness.
                            for id in 0..station_plans.len() {
                                if !alive[id]
                                    || finished.contains(&id)
                                    || stalled.contains(&id)
                                    || last_activity[id].elapsed() < stall_timeout
                                {
                                    continue;
                                }
                                let undelivered =
                                    station_plans[id].plans.iter().any(|&(idx, _)| {
                                        idx >= next_emit && !buffered.contains_key(&idx)
                                    });
                                if !undelivered {
                                    continue;
                                }
                                stalled.insert(id);
                                stats.stall_steals.fetch_add(1, Ordering::Relaxed);
                                synthetic.push_back(StationMsg::Done(
                                    id,
                                    Err(TripError::Boundary(format!(
                                        "station {id} stalled: no outcome within \
                                         {stall_timeout:?}"
                                    ))),
                                ));
                            }
                            continue;
                        }
                    },
                };
                if !synthesized {
                    if let StationMsg::Done(id, _) = &msg {
                        if stalled.remove(id) {
                            continue;
                        }
                    }
                }
                match msg {
                    StationMsg::Outcome(idx, delivery) => {
                        if let Some(&owner) = session_owner.get(&idx) {
                            last_activity[owner] = Instant::now();
                        }
                        buffered.entry(idx).or_insert(delivery);
                        while let Some(delivery) = buffered.remove(&next_emit) {
                            let (outcome, vsd, stolen) = *delivery;
                            if let Some(looted) = stolen {
                                adversary_loot.push(looted);
                            }
                            sink(outcome, vsd.unwrap_or_default());
                            next_emit += 1;
                        }
                    }
                    StationMsg::Done(id, Ok(())) => {
                        done += 1;
                        if id < station_plans.len() {
                            finished.insert(id);
                        }
                    }
                    StationMsg::Done(id, Err(e)) => {
                        done += 1;
                        let meta = steal_meta.remove(&id);
                        // Attribute the death: an *original* station's
                        // first death is stolen; a dead steal chunk is
                        // re-stolen onto the remaining survivors up to
                        // MAX_RESTEAL_DEPTH retries deep; anything else
                        // aborts the day.
                        let resteal: Option<(usize, usize, Vec<usize>)> =
                            if id < station_plans.len()
                                && recovered.insert(id)
                                && first_error.is_none()
                            {
                                alive[id] = false;
                                Some((
                                    id,
                                    0,
                                    station_plans[id]
                                        .plans
                                        .iter()
                                        .map(|&(idx, _)| idx)
                                        .collect(),
                                ))
                            } else if let Some(meta) = meta {
                                (first_error.is_none() && meta.depth < MAX_RESTEAL_DEPTH)
                                    .then_some((meta.victim, meta.depth + 1, meta.sessions))
                            } else {
                                None
                            };
                        let Some((victim, depth, candidates)) = resteal else {
                            // Unrecoverable: remember the first error and
                            // fail every parked barrier so blocked stations
                            // unwind instead of deadlocking the scope join.
                            first_error.get_or_insert(e);
                            registrar.client.abort();
                            continue;
                        };
                        // Undelivered = not yet emitted and not buffered.
                        let remaining: Vec<usize> = candidates
                            .into_iter()
                            .filter(|idx| *idx >= next_emit && !buffered.contains_key(idx))
                            .collect();
                        if remaining.is_empty() {
                            continue;
                        }
                        // Dynamic work stealing: split the undelivered
                        // kiosk range into contiguous chunks attributed
                        // round-robin to the surviving stations, so
                        // recovery re-derivation runs in parallel
                        // instead of on one serial replay connection.
                        // Each chunk gets a one-shot runner of its own
                        // (chunks park on the sequencer's session-order
                        // prefix barriers, so they must never queue
                        // behind each other). The kiosk assignment never
                        // moves; the sequencer's lanes drop the
                        // re-submissions by session index.
                        let sp = &station_plans[victim];
                        let k = kiosks.len();
                        let mut stolen_kiosks: Vec<usize> =
                            remaining.iter().map(|idx| idx % k).collect();
                        stolen_kiosks.sort_unstable();
                        stolen_kiosks.dedup();
                        let survivors: Vec<usize> =
                            (0..station_plans.len()).filter(|s| alive[*s]).collect();
                        // No survivors: one chunk, replayed by the
                        // victim itself (the pre-stealing behavior).
                        let chunks = survivors.len().clamp(1, stolen_kiosks.len());
                        for c in 0..chunks {
                            let lo = c * stolen_kiosks.len() / chunks;
                            let hi = (c + 1) * stolen_kiosks.len() / chunks;
                            let owned: HashSet<usize> =
                                stolen_kiosks[lo..hi].iter().copied().collect();
                            let keep: HashSet<usize> = remaining
                                .iter()
                                .copied()
                                .filter(|idx| owned.contains(&(idx % k)))
                                .collect();
                            if keep.is_empty() {
                                continue;
                            }
                            let thief = survivors
                                .get(c % survivors.len().max(1))
                                .copied()
                                .unwrap_or(victim);
                            steals.push(StealRecord {
                                victim,
                                thief,
                                sessions: keep.len(),
                                depth,
                            });
                            let plans: Vec<_> = sp
                                .plans
                                .iter()
                                .filter(|(idx, _)| keep.contains(idx))
                                .copied()
                                .collect();
                            let session_idxs: Vec<usize> =
                                plans.iter().map(|&(idx, _)| idx).collect();
                            // Steal chunks draw their materials from a
                            // pre-built pool instead of spinning up a
                            // refiller connection per chunk (same
                            // seeded plans → same bytes either way).
                            let mut chunk_pipeline = pipeline;
                            chunk_pipeline.low_water = 0;
                            // Kill-during-failover chaos hook: the
                            // fault may kill up to `recovery_deaths`
                            // recovery runners before the retries are
                            // allowed to succeed.
                            let fault_after = match fault {
                                Some(f) if f.station == victim && recovery_deaths_left > 0 => {
                                    f.recovery_after_ops.inspect(|_| recovery_deaths_left -= 1)
                                }
                                _ => None,
                            };
                            let job = StationJob {
                                fleet,
                                kiosks,
                                plans,
                                authority_pk,
                                activation: activate.then_some(&ctx),
                                pipeline: chunk_pipeline,
                                fault_after,
                                hang_release: None,
                                retry: RetryPolicy::reconnect(
                                    (station_plans.len() + steal_seq) as u64,
                                ),
                                stats: &stats,
                            };
                            let runner_id = station_plans.len() + steal_seq;
                            steal_seq += 1;
                            steal_meta.insert(
                                runner_id,
                                StealMeta {
                                    victim,
                                    depth,
                                    sessions: session_idxs,
                                },
                            );
                            let tx = msg_tx.clone();
                            let link = station_link(thief);
                            scope.spawn(move || {
                                let result = run_station(job, link, &tx);
                                let _ = tx.send(StationMsg::Done(runner_id, result));
                            });
                            spawned += 1;
                        }
                    }
                }
            }
            drop(msg_tx);

            if let Some(e) = first_error {
                return Err(e);
            }
            if next_emit != total_sessions {
                return Err(TripError::Boundary(format!(
                    "day ended with {next_emit}/{total_sessions} sessions delivered"
                )));
            }

            // Final barrier, over the same in-process link a station uses.
            match registrar.clone().call(Request::Sync) {
                Response::Err(e) => Err(e.into_trip()),
                _ => Ok(steals),
            }
        };
        let result = coordinate();

        // Tear the server down — on success AND failure alike (see the
        // coordinator comment): clear the flag and wake the acceptor
        // (parked in accept()) with a throwaway connection so it observes
        // it; each connection's thread ends as its client hangs up.
        // Injected hangs release first so their threads join.
        day_over.store(true, Ordering::SeqCst);
        accepting.store(false, Ordering::SeqCst);
        match addr {
            Some(addr) => drop(TcpStream::connect(addr)),
            None if use_gateway => drop(pipe_tx.send(pipe_pair().1)),
            None => {}
        }
        // Dropping the coordinator's client (the stations' and the
        // server's clones go with their threads) ends the sequencer's
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
