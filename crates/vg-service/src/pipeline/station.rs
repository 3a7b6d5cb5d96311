//! A polling station's day and both ends of its link to the registrar:
//! the engine's request dispatch (called by a connection's server
//! thread, or straight as the in-process link) and the station and
//! refiller runners (see the [module docs](super)).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Duration;

use vg_crypto::schnorr::NonceCoupon;
use vg_crypto::CompressedPoint;
use vg_ledger::{EnvelopeCommitment, RegistrationRecord};
use vg_trip::boundary::RegistrarBoundary;
use vg_trip::fleet::{check_ins, ActivationContext, FeedSource, KioskFleet, PoolSource};
use vg_trip::kiosk::{Kiosk, StolenCredential};
use vg_trip::materials::{CheckOutQr, Envelope};
use vg_trip::official::Official;
use vg_trip::pool::PoolFeed;
use vg_trip::printer::EnvelopePrinter;
use vg_trip::protocol::RegistrationOutcome;
use vg_trip::vsd::Vsd;
use vg_trip::{PrintJob, TripError};

use crate::channel::Connector;
use crate::error::ServiceError;
use crate::messages::{PrintResponse, Request, Response};
use crate::retry::RetryPolicy;
use crate::transport::{
    regroup_coupons, ChannelClient, EngineStats, RequestEndpoint, ServiceBoundary,
};

use super::sequencer::{Cmd, IngestClient};
use super::PipelineConfig;

// ---------------------------------------------------------------------------
// Registrar-side: the request dispatch
// ---------------------------------------------------------------------------

/// The threaded engine's side of the seam: every [`Request`] is
/// translated into sequencer commands here, once. Ledger-free requests
/// (printing, desk-side check-out verification) run inline on the caller
/// — only the resulting records funnel into the sequencer; everything
/// stateful is forwarded, and the caller waits on its reply. The caller
/// is a station's own thread (the in-process link) or its connection's
/// server thread, so one station's barrier never stalls another
/// station. Cheap to clone: one per connection and per in-process link.
#[derive(Clone)]
pub(super) struct PipelineDispatch<'a> {
    pub(super) official: &'a Official,
    pub(super) printer: &'a EnvelopePrinter,
    pub(super) kiosk_registry: &'a [CompressedPoint],
    pub(super) threads: usize,
    pub(super) client: IngestClient,
}

impl PipelineDispatch<'_> {
    fn print(&self, jobs: &[PrintJob]) -> Vec<(Envelope, EnvelopeCommitment)> {
        self.printer.print_jobs(jobs, self.threads)
    }

    /// Fig 10 lines 2–5 for a station's window: verify the whole window
    /// in one committed RLC sweep on the *caller's* thread (stations
    /// verify concurrently), countersign, and regroup by session.
    fn verify_and_countersign(
        &self,
        groups: Vec<(u64, Vec<(CheckOutQr, NonceCoupon)>)>,
    ) -> Result<Vec<(u64, Vec<RegistrationRecord>)>, ServiceError> {
        let counts: Vec<(u64, usize)> = groups.iter().map(|(s, c)| (*s, c.len())).collect();
        let flat: Vec<(CheckOutQr, NonceCoupon)> =
            groups.into_iter().flat_map(|(_, c)| c).collect();
        self.official
            .verify_checkouts(&flat, self.kiosk_registry, self.threads)?;
        let mut records = self.official.countersign_checkouts(flat).into_iter();
        Ok(counts
            .into_iter()
            .map(|(session, n)| (session, records.by_ref().take(n).collect()))
            .collect())
    }
}

impl RequestEndpoint for PipelineDispatch<'_> {
    fn call(&mut self, req: Request) -> Response {
        match req {
            Request::CheckIn(m) => self.client.ask(|r| Cmd::CheckIn(m.voter, r)),
            Request::Print(m) => Response::Print(PrintResponse {
                envelopes: self.print(&m.jobs),
            }),
            Request::SubmitEnvelopes(_) | Request::CheckOutBatch(_) => {
                Response::Err(ServiceError::Transport(
                    "the pipelined registrar requires session-tagged submissions".into(),
                ))
            }
            Request::SubmitEnvelopesSeq(m) => self.client.ask(|r| Cmd::Envelopes(m.groups, r)),
            Request::CheckOutBatchSeq(m) => {
                match self.verify_and_countersign(regroup_coupons(m.groups)) {
                    Ok(records) => self.client.ask(|r| Cmd::Records(records, r)),
                    Err(e) => Response::Err(e),
                }
            }
            Request::Sync => self.client.ask(Cmd::SyncAll),
            Request::SyncThrough(m) => self.client.ask(|r| Cmd::SyncThrough(m.sessions, r)),
            Request::LedgerHeads => self.client.ask(Cmd::Heads),
            Request::IngestStats => self.client.ask(Cmd::Stats),
            Request::ActivationSweep(m) => self.client.ask(|r| Cmd::Activate(m.claims, r)),
            // No ingest flush: the coordinator owns the day's final barrier.
            Request::Shutdown => Response::Shutdown,
        }
    }
}

// ---------------------------------------------------------------------------
// Client-side station runner
// ---------------------------------------------------------------------------

/// Wraps a link so every request past `remaining` fails as if the
/// station's connection dropped (the chaos hook behind [`StationFault`]).
/// [`ServiceBoundary`] makes one request per boundary call, so this
/// counts boundary calls.
struct FaultingEndpoint<'a> {
    inner: &'a mut dyn RequestEndpoint,
    remaining: usize,
    /// `Some` turns the fault into a HANG: once `remaining` hits zero
    /// the link parks until the flag (set at day teardown) releases
    /// it, modeling a station that stops making progress without the
    /// courtesy of an error. The release-then-error keeps the thread
    /// joinable; while the day runs, the station is simply silent.
    hang_until: Option<Arc<AtomicBool>>,
}

impl RequestEndpoint for FaultingEndpoint<'_> {
    fn call(&mut self, req: Request) -> Response {
        if self.remaining > 0 {
            self.remaining -= 1;
            return self.inner.call(req);
        }
        let mut why = "station connection lost (injected fault)";
        if let Some(released) = &self.hang_until {
            while !released.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
            }
            why = "hung station released at day teardown";
        }
        Response::Err(ServiceError::Transport(why.into()))
    }
}

/// One delivered session, boxed: outcomes are large (credentials,
/// receipts, traces) and `Done` is tiny.
pub(super) type SessionDelivery = Box<(RegistrationOutcome, Option<Vsd>, Option<StolenCredential>)>;

/// What a runner's thread tells the coordinator, tagged with the
/// runner's id.
pub(super) enum StationMsg {
    /// `(runner, global session index, delivery)`.
    Outcome(usize, usize, SessionDelivery),
    Done(usize, Result<(), TripError>),
}

/// How a station (or its refiller, or a steal runner) reaches the
/// registrar: direct in-process dispatch, or a pluggable [`Connector`]
/// that dials (and, per policy, secures) a channel to its server.
pub(super) enum Link<'a> {
    InProcess(PipelineDispatch<'a>),
    Gateway(&'a dyn Connector),
}

pub(super) struct StationJob<'a> {
    pub(super) fleet: &'a KioskFleet,
    pub(super) kiosks: &'a [Kiosk],
    /// The job's queue: `(global session index, plan)` in session order.
    pub(super) plans: Vec<(usize, vg_trip::pool::SessionPlan)>,
    pub(super) authority_pk: vg_crypto::EdwardsPoint,
    pub(super) activation: Option<&'a ActivationContext<'a>>,
    pub(super) pipeline: PipelineConfig,
    pub(super) fault_after: Option<usize>,
    /// `Some` makes `fault_after` a silent hang instead of a clean death
    /// (see [`StationHang`]); the flag releases the parked thread at
    /// day teardown.
    pub(super) hang_release: Option<Arc<AtomicBool>>,
    /// Reconnect policy for every channel this job dials (station
    /// boundary, refiller). Seeded per runner so a fleet that loses the
    /// registrar at once backs off desynchronized.
    pub(super) retry: RetryPolicy,
    /// The day's shared counter block (timeouts, reconnects).
    pub(super) stats: &'a EngineStats,
}

/// Dials (with retry) one gateway channel, counting reconnect attempts
/// and connect-time deadline expiries into the day's counters.
fn dial_with_retry(
    conn: &dyn Connector,
    retry: RetryPolicy,
    stats: &EngineStats,
) -> Result<ChannelClient, ServiceError> {
    retry.run(|attempt| {
        if attempt > 0 {
            stats.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        ChannelClient::connect(conn).inspect_err(|e| {
            if matches!(e, ServiceError::Timeout(_)) {
                stats.timeouts.fetch_add(1, Ordering::Relaxed);
            }
        })
    })
}

/// Opens one registrar link: the engine's dispatch itself in process, or
/// a freshly dialed (and policy-secured) channel into the gateway.
fn open_link<'a>(
    link: &Link<'a>,
    retry: RetryPolicy,
    stats: &EngineStats,
) -> Result<Box<dyn RequestEndpoint + 'a>, TripError> {
    Ok(match link {
        Link::InProcess(registrar) => Box::new(registrar.clone()),
        Link::Gateway(conn) => Box::new(
            dial_with_retry(*conn, retry, stats).map_err(|e| TripError::Boundary(e.to_string()))?,
        ),
    })
}

/// One station's whole day (or one stolen chunk's) as runner `runner`:
/// connect, optionally spawn the refiller on its own connection, and
/// drive the fleet's station loop on this thread.
pub(super) fn run_station(
    mut job: StationJob<'_>,
    link: Link<'_>,
    runner: usize,
    tx: &Sender<StationMsg>,
) -> Result<(), TripError> {
    let mut opened = open_link(&link, job.retry, job.stats)?;
    let mut faulting;
    let endpoint: &mut dyn RequestEndpoint = match job.fault_after {
        Some(after_ops) => {
            faulting = FaultingEndpoint {
                inner: &mut *opened,
                remaining: after_ops,
                hang_until: job.hang_release.take(),
            };
            &mut faulting
        }
        None => &mut *opened,
    };
    let boundary = &mut ServiceBoundary::new(endpoint, &job.stats.timeouts);
    let activation = job
        .activation
        .map(|ctx| (ctx, job.pipeline.activation_lag.max(1)));
    let mut sink = |idx: usize,
                    outcome: RegistrationOutcome,
                    vsd: Option<Vsd>,
                    stolen: Option<StolenCredential>| {
        let _ = tx.send(StationMsg::Outcome(
            runner,
            idx,
            Box::new((outcome, vsd, stolen)),
        ));
    };
    // The plan is the check-in list and then the pool's; move it rather
    // than cloning megabytes of SessionPlans per station (and per recovery).
    let sessions = check_ins(&job.plans);
    let plans = std::mem::take(&mut job.plans);
    let mut pool = job.fleet.prepare_pool_indexed(job.authority_pk, plans);
    if job.pipeline.low_water == 0 {
        return job.fleet.run_station_over(
            job.kiosks,
            boundary,
            &sessions,
            &mut PoolSource { pool: &mut pool },
            activation,
            &mut sink,
        );
    }
    let feed = PoolFeed::new(job.pipeline.low_water);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // The refiller prints over its own link: a second connection
            // on gateway days, the dispatch's printer call in process.
            let refilled = open_link(&link, job.retry, job.stats).and_then(|mut own| {
                let mut printer = ServiceBoundary::new(&mut *own, &job.stats.timeouts);
                feed.run_refiller(&mut pool, &mut |jobs| printer.print_envelopes(jobs))
            });
            // `run_refiller` hands its own failures to the feed; a link
            // that never opened must be handed over here, or the station
            // parks in `take_window` forever.
            if let Err(e) = refilled {
                feed.fail(e);
            }
        });
        let run = job.fleet.run_station_over(
            job.kiosks,
            boundary,
            &sessions,
            &mut FeedSource { feed: &feed },
            activation,
            &mut sink,
        );
        feed.close();
        run
    })
}

/// Engine-level tests of the one seam: the same live engine answers a
/// request identically over both links, and a station whose refiller
/// cannot dial unwinds typed instead of parking.
#[cfg(test)]
mod tests {
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    use vg_crypto::{HmacDrbg, Rng};
    use vg_ledger::VoterId;
    use vg_trip::fleet::{partition_stations, FleetConfig, KioskFleet};
    use vg_trip::materials::Symbol;
    use vg_trip::setup::{TripConfig, TripSystem};
    use vg_trip::{PrintJob, TripError};

    use crate::channel::{ChannelPolicy, Connector, Deadlines, FramedChannel, TcpConnector};
    use crate::error::ServiceError;
    use crate::gateway::{tcp_acceptor, Server, REAP_AFTER};
    use crate::messages::*;
    use crate::retry::RetryPolicy;
    use crate::transport::{ChannelClient, EngineStats, RequestEndpoint};

    use super::super::sequencer::Sequencer;
    use super::super::IngestMode;
    use super::*;

    /// A live engine over a leaked (`'static`) system, its threads on plain
    /// `spawn`s — so a watchdog can fail a test that would otherwise hang a
    /// scope join.
    struct Rig {
        registrar: PipelineDispatch<'static>,
        stats: Arc<EngineStats>,
        kiosks: &'static [vg_trip::kiosk::Kiosk],
        authority_pk: vg_crypto::EdwardsPoint,
    }

    fn rig(sessions: u64) -> Rig {
        let mut rng = HmacDrbg::from_u64(0x5EA4);
        let config = TripConfig {
            n_voters: sessions,
            n_kiosks: 2,
            ..TripConfig::default()
        };
        let system: &'static mut TripSystem =
            Box::leak(Box::new(TripSystem::setup(config, &mut rng)));
        let stats = Arc::<EngineStats>::default();
        let (official, mode) = (&system.officials[0], IngestMode::Barrier);
        let (client, sequencer) = Sequencer::new(&mut system.ledger, official, 1, mode, &stats);
        std::thread::spawn(move || sequencer.run());
        let registrar = PipelineDispatch {
            official,
            printer: &system.printers[0],
            kiosk_registry: &system.kiosk_registry,
            threads: 1,
            client,
        };
        Rig {
            registrar,
            stats,
            kiosks: &system.kiosks,
            authority_pk: system.authority.public_key,
        }
    }

    impl Rig {
        /// A connector onto the engine served over plaintext loopback TCP,
        /// its acceptor on a plain (see [`Rig`]) thread that is never
        /// joined.
        fn gateway(&self) -> TcpConnector {
            let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
            let addr = listener.local_addr().expect("local_addr");
            let server = Server {
                policy: ChannelPolicy::Plaintext,
                endpoint: self.registrar.clone(),
                reap_after: REAP_AFTER,
                stats: Arc::clone(&self.stats),
                open: Arc::new(AtomicBool::new(true)),
            };
            std::thread::spawn(move || {
                std::thread::scope(|scope| tcp_acceptor(scope, listener, server));
            });
            TcpConnector {
                addr,
                policy: ChannelPolicy::Plaintext,
                deadlines: Deadlines::default(),
            }
        }
    }

    /// A response's wire bytes with what legitimately differs between two
    /// calls masked out: the engine-wide submission ticket and the ingest
    /// threads' clocks.
    fn comparable(mut resp: Response) -> Vec<u8> {
        match &mut resp {
            Response::SubmitEnvelopesSeq(r) => r.ticket = 0,
            Response::CheckOutBatchSeq(r) => r.ticket = 0,
            Response::IngestStats(r) => (r.worker_busy_us, r.worker_idle_us) = (0, 0),
            _ => {}
        }
        resp.to_wire()
    }

    #[test]
    fn one_engine_answers_both_links_alike() {
        let rig = rig(1);
        let mut local = rig.registrar.clone();
        let mut wire = ChannelClient::connect(&rig.gateway()).expect("tcp dial");

        let mut rng = HmacDrbg::from_u64(11);
        let jobs = vec![PrintJob {
            challenge: rng.scalar(),
            symbol: Symbol::ALL[0],
        }];
        let commitments = rig
            .registrar
            .printer
            .print_detached(jobs[0].challenge, jobs[0].symbol)
            .1;
        // Every variant, in an order a day could produce: session 0's
        // envelopes and (empty) check-out group, then the barriers over them.
        let requests = [
            Request::CheckIn(CheckInRequest { voter: VoterId(1) }),
            Request::Print(PrintRequest { jobs }),
            Request::SubmitEnvelopes(EnvelopeSubmitRequest {
                commitments: vec![commitments.clone()],
            }),
            Request::CheckOutBatch(CheckOutBatchRequest {
                checkouts: Vec::new(),
            }),
            Request::SubmitEnvelopesSeq(SeqEnvelopeSubmitRequest {
                groups: vec![(0, vec![commitments])],
            }),
            Request::CheckOutBatchSeq(SeqCheckOutRequest {
                groups: vec![(0, Vec::new())],
            }),
            Request::SyncThrough(SyncThroughRequest { sessions: 1 }),
            Request::ActivationSweep(ActivationSweepRequest { claims: Vec::new() }),
            Request::Sync,
            Request::LedgerHeads,
            Request::IngestStats,
            Request::Shutdown,
        ];
        assert_eq!(requests.len(), REQUEST_TAGS.len());
        for req in requests {
            let label = format!("{req:?}");
            let retired = matches!(req, Request::SubmitEnvelopes(_) | Request::CheckOutBatch(_));
            let twin = Request::from_wire(&req.to_wire()).expect("round trip");
            let direct = local.call(req);
            let framed = wire.call(twin);
            match &direct {
                // The retired untagged pair: one typed refusal, both ways.
                Response::Err(ServiceError::Transport(_)) if retired => {}
                Response::Err(e) => panic!("{label} refused: {e}"),
                _ => assert!(!retired, "{label} is retired"),
            }
            if let Response::IngestStats(reply) = &direct {
                // Tag 11 on a live engine: the envelope really went through.
                assert_eq!(
                    (reply.workers, reply.env_batches, reply.env_sweeps),
                    (1, 1, 1)
                );
            }
            assert_eq!(comparable(direct), comparable(framed), "{label}");
        }
    }

    /// Dials the gateway once; every later dial finds it unreachable.
    struct DialsOnce {
        gateway: TcpConnector,
        dialed: AtomicBool,
    }

    impl Connector for DialsOnce {
        fn connect(&self) -> Result<Box<dyn FramedChannel>, ServiceError> {
            if self.dialed.swap(true, Ordering::SeqCst) {
                return Err(ServiceError::Transport("registrar unreachable".into()));
            }
            self.gateway.connect()
        }
    }

    /// The station's own dial succeeds (it checks its queue in), its
    /// refiller's fails: the dial error must reach the station through
    /// the feed. Before `PoolFeed::fail` the refiller thread returned
    /// without touching the feed and the station parked in `take_window`
    /// forever (watchdog expiry below).
    #[test]
    fn refiller_dial_failure_unwinds_the_station_typed() {
        let rig = rig(4);
        let connector: &'static DialsOnce = Box::leak(Box::new(DialsOnce {
            gateway: rig.gateway(),
            dialed: AtomicBool::new(false),
        }));
        let queue: Vec<(VoterId, usize)> = (1..=4).map(|v| (VoterId(v), 0)).collect();
        let fleet: &'static KioskFleet = Box::leak(Box::new(KioskFleet::new(FleetConfig {
            pool_batch: 2,
            threads: 1,
            seed: [7; 32],
        })));
        let plan = partition_stations(&queue, rig.kiosks, 1)
            .expect("one station")
            .remove(0);
        let job = StationJob {
            fleet,
            kiosks: rig.kiosks,
            plans: plan.plans,
            authority_pk: rig.authority_pk,
            activation: None,
            pipeline: PipelineConfig {
                low_water: 2,
                ..PipelineConfig::default()
            },
            fault_after: None,
            hang_release: None,
            retry: RetryPolicy::once(),
            stats: Box::leak(Box::new(Arc::clone(&rig.stats))),
        };
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let (tx, _outcomes) = mpsc::channel();
            let _ = done_tx.send(run_station(job, Link::Gateway(connector), 0, &tx));
        });
        let result = done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("watchdog: the station parked on a feed its dead refiller never touched");
        assert_eq!(
            result,
            Err(TripError::Boundary(
                "transport error: registrar unreachable".into()
            ))
        );
    }
}
