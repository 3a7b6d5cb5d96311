//! A polling station's day and both ends of its link to the registrar:
//! the in-process endpoint, the gateway dispatch, and the station, refiller
//! and steal-lane runners (see the [module docs](super)).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

use vg_crypto::par::par_map;
use vg_crypto::schnorr::NonceCoupon;
use vg_crypto::CompressedPoint;
use vg_ledger::{EnvelopeCommitment, RegistrationRecord, VoterId};
use vg_trip::boundary::{IngestTicket, RegistrarBoundary};
use vg_trip::fleet::{ActivationContext, FeedSource, KioskFleet, PoolSource};
use vg_trip::kiosk::{Kiosk, StolenCredential};
use vg_trip::materials::{CheckInTicket, CheckOutQr, Envelope};
use vg_trip::official::Official;
use vg_trip::pool::PoolFeed;
use vg_trip::printer::EnvelopePrinter;
use vg_trip::protocol::RegistrationOutcome;
use vg_trip::vsd::{ActivationClaim, Vsd};
use vg_trip::{PrintJob, TripError};

use crate::channel::Connector;
use crate::error::ServiceError;
use crate::gateway::{Dispatched, GatewayDispatch};
use crate::messages::{
    ActivationSweepRequest, CheckInRequest, CheckInResponse, CheckOutBatchResponse, IngestReceipt,
    IngestStatsReply, LedgerHeads, PrintRequest, PrintResponse, Request, Response,
    SeqCheckOutRequest, SeqEnvelopeSubmitRequest,
};
use crate::retry::RetryPolicy;
use crate::traits::{ActivationService, LedgerIngestService, PrintService, RegistrarService};
use crate::transport::{ChannelClient, ServiceBoundary};

use super::sequencer::{Cmd, IngestClient};
use super::shard::ShardCmd;
use super::PipelineConfig;

// ---------------------------------------------------------------------------
// Registrar-side shared services (no ledger state)
// ---------------------------------------------------------------------------

/// The ledger-free registrar services every connection handler can run on
/// its own thread: printing and desk-side check-out verification. Only
/// the resulting records funnel into the worker.
#[derive(Clone, Copy)]
pub(super) struct HostCore<'a> {
    pub(super) official: &'a Official,
    pub(super) printer: &'a EnvelopePrinter,
    pub(super) kiosk_registry: &'a [CompressedPoint],
    pub(super) threads: usize,
}

impl HostCore<'_> {
    fn print(&self, jobs: &[PrintJob]) -> Vec<(Envelope, EnvelopeCommitment)> {
        par_map(jobs, self.threads, |job| {
            self.printer.print_detached(job.challenge, job.symbol)
        })
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

/// The in-process pipelined endpoint: ledger-free services run inline on
/// the station's thread; submissions fan out to the shard workers and
/// everything touching ledger state crosses the sequencer channel.
/// Serves the same four service traits a [`ChannelClient`] speaks over
/// the gateway, so the fleet drives either through the ordinary
/// [`ServiceBoundary`].
struct PipelinedEndpoint<'a> {
    core: HostCore<'a>,
    client: IngestClient,
}

impl RegistrarService for PipelinedEndpoint<'_> {
    fn check_in(&mut self, req: CheckInRequest) -> Result<CheckInResponse, ServiceError> {
        self.client
            .call(|reply| Cmd::CheckIn(req.voter, reply))
            .map(|ticket| CheckInResponse { ticket })
    }

    fn check_out_groups(
        &mut self,
        req: SeqCheckOutRequest,
    ) -> Result<CheckOutBatchResponse, ServiceError> {
        let groups = req
            .groups
            .into_iter()
            .map(|(s, checkouts)| {
                (
                    s,
                    checkouts
                        .into_iter()
                        .map(|(qr, coupon)| (qr, coupon.into()))
                        .collect(),
                )
            })
            .collect();
        let records = self.core.verify_and_countersign(groups)?;
        let ticket = self.client.submit(records, ShardCmd::Records)?;
        Ok(CheckOutBatchResponse { ticket })
    }
}

impl PrintService for PipelinedEndpoint<'_> {
    fn print_envelopes(&mut self, req: PrintRequest) -> Result<PrintResponse, ServiceError> {
        Ok(PrintResponse {
            envelopes: self.core.print(&req.jobs),
        })
    }
}

impl LedgerIngestService for PipelinedEndpoint<'_> {
    fn submit_envelope_groups(
        &mut self,
        req: SeqEnvelopeSubmitRequest,
    ) -> Result<IngestReceipt, ServiceError> {
        let ticket = self.client.submit(req.groups, ShardCmd::Envelopes)?;
        Ok(IngestReceipt { ticket })
    }

    fn sync(&mut self) -> Result<(), ServiceError> {
        self.client.call(Cmd::SyncAll)
    }

    fn sync_through(&mut self, sessions: u64) -> Result<(), ServiceError> {
        self.client.call(|reply| Cmd::SyncThrough(sessions, reply))
    }

    fn ledger_heads(&mut self) -> Result<LedgerHeads, ServiceError> {
        self.client.call(Cmd::Heads)
    }

    fn ingest_stats(&mut self) -> Result<IngestStatsReply, ServiceError> {
        self.client.stats()
    }
}

impl ActivationService for PipelinedEndpoint<'_> {
    fn activation_sweep(&mut self, req: ActivationSweepRequest) -> Result<(), ServiceError> {
        self.client.call(|reply| Cmd::Activate(req.claims, reply))
    }
}

// ---------------------------------------------------------------------------
// Client-side station runner
// ---------------------------------------------------------------------------

/// Wraps a boundary so every call past `remaining` fails as if the
/// station's connection dropped (the chaos hook behind [`StationFault`]).
struct FaultingBoundary<'a> {
    inner: &'a mut dyn RegistrarBoundary,
    remaining: usize,
    /// `Some` turns the fault into a HANG: once `remaining` hits zero
    /// the boundary parks until the flag (set at day teardown) releases
    /// it, modeling a station that stops making progress without the
    /// courtesy of an error. The release-then-error keeps the thread
    /// joinable; while the day runs, the station is simply silent.
    hang_until: Option<Arc<AtomicBool>>,
}

impl FaultingBoundary<'_> {
    fn tick(&mut self) -> Result<(), TripError> {
        if self.remaining == 0 {
            if let Some(released) = &self.hang_until {
                while !released.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(5));
                }
                return Err(TripError::Boundary(
                    "hung station released at day teardown".into(),
                ));
            }
            return Err(TripError::Boundary(
                "station connection lost (injected fault)".into(),
            ));
        }
        self.remaining -= 1;
        Ok(())
    }
}

impl RegistrarBoundary for FaultingBoundary<'_> {
    fn check_in(&mut self, voter: VoterId) -> Result<CheckInTicket, TripError> {
        self.tick()?;
        self.inner.check_in(voter)
    }

    fn print_envelopes(
        &mut self,
        jobs: &[PrintJob],
    ) -> Result<Vec<(Envelope, EnvelopeCommitment)>, TripError> {
        self.tick()?;
        self.inner.print_envelopes(jobs)
    }

    fn submit_envelope_groups(
        &mut self,
        groups: Vec<(u64, Vec<EnvelopeCommitment>)>,
    ) -> Result<IngestTicket, TripError> {
        self.tick()?;
        self.inner.submit_envelope_groups(groups)
    }

    fn submit_checkout_groups(
        &mut self,
        groups: Vec<(u64, Vec<(CheckOutQr, NonceCoupon)>)>,
    ) -> Result<IngestTicket, TripError> {
        self.tick()?;
        self.inner.submit_checkout_groups(groups)
    }

    fn sync(&mut self) -> Result<(), TripError> {
        self.tick()?;
        self.inner.sync()
    }

    fn sync_through(&mut self, sessions: u64) -> Result<(), TripError> {
        self.tick()?;
        self.inner.sync_through(sessions)
    }

    fn activation_sweep(&mut self, claims: &[ActivationClaim]) -> Result<(), TripError> {
        self.tick()?;
        self.inner.activation_sweep(claims)
    }

    fn registration_head(&mut self) -> Result<vg_ledger::TreeHead, TripError> {
        self.tick()?;
        self.inner.registration_head()
    }

    fn envelope_head(&mut self) -> Result<vg_ledger::TreeHead, TripError> {
        self.tick()?;
        self.inner.envelope_head()
    }
}

/// One delivered session, boxed: outcomes are large (credentials,
/// receipts, traces) and `Done` is tiny.
pub(super) type SessionDelivery = Box<(RegistrationOutcome, Option<Vsd>, Option<StolenCredential>)>;

pub(super) enum StationMsg {
    Outcome(usize, SessionDelivery),
    Done(usize, Result<(), TripError>),
}

/// How a station (or its refiller, or a steal lane) reaches the
/// registrar: direct in-process dispatch, or a pluggable [`Connector`]
/// that dials (and, per policy, secures) a gateway-served channel.
#[derive(Clone, Copy)]
pub(super) enum Link<'a> {
    InProcess(HostCore<'a>),
    Gateway(&'a dyn Connector),
}

pub(super) struct StationJob<'a> {
    pub(super) fleet: &'a KioskFleet,
    pub(super) kiosks: &'a [Kiosk],
    pub(super) sessions: Vec<(usize, VoterId, usize)>,
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
    /// boundary, refiller, steal-lane reuse). Seeded per runner so a
    /// fleet that loses the registrar at once backs off desynchronized.
    pub(super) retry: RetryPolicy,
    /// Shared degraded-mode telemetry, surfaced in [`DayStats`].
    pub(super) counters: &'a DayCounters,
}

/// Day-wide degraded-mode counters shared across every station, steal
/// lane and refiller thread.
#[derive(Debug, Default)]
pub(super) struct DayCounters {
    /// Deadline expiries observed at station boundaries (connect-time
    /// `ServiceError::Timeout`s plus in-flight stalls surfacing as
    /// `deadline expired` boundary failures).
    pub(super) timeouts: AtomicU64,
    /// Retry-layer attempts beyond each operation's first try.
    pub(super) reconnects: AtomicU64,
}

/// Dials (with retry) one gateway channel, counting reconnect attempts
/// and connect-time deadline expiries into the day's counters.
fn dial_with_retry(
    conn: &dyn Connector,
    retry: RetryPolicy,
    counters: &DayCounters,
) -> Result<ChannelClient, ServiceError> {
    retry.run(|attempt| {
        if attempt > 0 {
            counters.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        ChannelClient::connect(conn).inspect_err(|e| {
            if matches!(e, ServiceError::Timeout(_)) {
                counters.timeouts.fetch_add(1, Ordering::Relaxed);
            }
        })
    })
}

/// Opens a station-side boundary over `link`: the in-process pipelined
/// endpoint, or a freshly dialed (and policy-secured) channel.
fn station_boundary<'a>(
    link: Link<'a>,
    client: &IngestClient,
    retry: RetryPolicy,
    counters: &DayCounters,
) -> Result<Box<dyn RegistrarBoundary + 'a>, TripError> {
    Ok(match link {
        Link::InProcess(core) => Box::new(ServiceBoundary::new(PipelinedEndpoint {
            core,
            client: client.clone(),
        })),
        Link::Gateway(conn) => Box::new(ServiceBoundary::new(
            dial_with_retry(conn, retry, counters)
                .map_err(|e| TripError::Boundary(e.to_string()))?,
        )),
    })
}

/// One station's whole day: connect, optionally spawn the refiller on its
/// own connection, and drive the generalized fleet engine.
pub(super) fn run_station(
    job: StationJob<'_>,
    link: Link<'_>,
    client: &IngestClient,
    tx: &Sender<StationMsg>,
) -> Result<(), TripError> {
    let mut boundary = station_boundary(link, client, job.retry, job.counters)?;
    drive_station(job, link, &mut *boundary, tx)
}

/// Drives one station job over an already-open boundary (stations open
/// their own; steal lanes amortize one across every chunk they absorb).
fn drive_station(
    mut job: StationJob<'_>,
    link: Link<'_>,
    boundary: &mut dyn RegistrarBoundary,
    tx: &Sender<StationMsg>,
) -> Result<(), TripError> {
    let mut faulting;
    let hang_release = job.hang_release.take();
    let boundary: &mut dyn RegistrarBoundary = match job.fault_after {
        Some(after_ops) => {
            faulting = FaultingBoundary {
                inner: boundary,
                remaining: after_ops,
                hang_until: hang_release,
            };
            &mut faulting
        }
        None => boundary,
    };
    let activation = job
        .activation
        .map(|ctx| (ctx, job.pipeline.activation_lag.max(1)));
    let mut sink = |idx: usize,
                    outcome: RegistrationOutcome,
                    vsd: Option<Vsd>,
                    stolen: Option<StolenCredential>| {
        let _ = tx.send(StationMsg::Outcome(idx, Box::new((outcome, vsd, stolen))));
    };
    // The indexed plan is only needed by the pool; move it rather than
    // cloning megabytes of SessionPlans per station (and per recovery).
    let plans = std::mem::take(&mut job.plans);
    if job.pipeline.low_water > 0 {
        let mut pool = job.fleet.prepare_pool_indexed(job.authority_pk, plans);
        let feed = PoolFeed::new(job.pipeline.low_water);
        let threads = job.fleet.config().threads;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // The refiller owns its own print client: a second
                // connection for TCP days, direct printer calls locally.
                let result = match link {
                    Link::InProcess(core) => feed.run_refiller(&mut pool, &mut |jobs| {
                        Ok(par_map(jobs, threads, |j| {
                            core.printer.print_detached(j.challenge, j.symbol)
                        }))
                    }),
                    Link::Gateway(conn) => match dial_with_retry(conn, job.retry, job.counters) {
                        Ok(mut client) => feed.run_refiller(&mut pool, &mut |jobs| {
                            client
                                .print_envelopes(PrintRequest {
                                    jobs: jobs.to_vec(),
                                })
                                .map(|r| r.envelopes)
                                .map_err(ServiceError::into_trip)
                        }),
                        Err(e) => Err(TripError::Boundary(e.to_string())),
                    },
                };
                // A refiller failure reaches the consumer through the
                // feed; nothing further to do here.
                let _ = result;
            });
            let run = job.fleet.run_station_over(
                job.kiosks,
                &mut *boundary,
                &job.sessions,
                &mut FeedSource { feed: &feed },
                activation,
                &mut sink,
            );
            feed.close();
            run
        })
    } else {
        let mut pool = job.fleet.prepare_pool_indexed(job.authority_pk, plans);
        job.fleet.run_station_over(
            job.kiosks,
            &mut *boundary,
            &job.sessions,
            &mut PoolSource { pool: &mut pool },
            activation,
            &mut sink,
        )
    }
}

/// One stolen chunk queued onto a surviving station's steal lane.
pub(super) struct StealJob<'a> {
    /// Coordinator-assigned runner id (`stations + steal_seq`), the key
    /// for per-chunk failure attribution and bounded re-steal.
    pub(super) runner_id: usize,
    pub(super) job: StationJob<'a>,
}

/// A surviving station's steal lane: ONE extra connection per thief,
/// amortized across every chunk (and re-stolen chunk) attributed to it,
/// instead of one connection per chunk. Jobs run sequentially; a failed
/// job bounces back to the coordinator as a `Done(runner_id, Err)` and
/// the lane reconnects before the next job (an injected fault only
/// poisons the per-job wrapper, but a real transport failure would not
/// survive reuse). Exits when the coordinator drops the job sender.
///
/// A lane is only ever handed a job while it is IDLE. Steal chunks park
/// on the sequencer's global-session-order prefix barriers, so a chunk
/// queued behind a parked chunk whose barrier needs the queued chunk's
/// sessions would deadlock the day; the coordinator therefore falls
/// back to a dedicated one-shot runner whenever every candidate lane
/// still has a chunk in flight.
pub(super) fn run_steal_lane<'a>(
    jobs: Receiver<StealJob<'a>>,
    link: Link<'a>,
    client: &IngestClient,
    tx: &Sender<StationMsg>,
) {
    let mut boundary: Option<Box<dyn RegistrarBoundary + 'a>> = None;
    while let Ok(StealJob { runner_id, job }) = jobs.recv() {
        let result = (|| -> Result<(), TripError> {
            let open = match &mut boundary {
                Some(open) => open,
                None => boundary.insert(station_boundary(link, client, job.retry, job.counters)?),
            };
            drive_station(job, link, &mut **open, tx)
        })();
        if result.is_err() {
            boundary = None;
        }
        let _ = tx.send(StationMsg::Done(runner_id, result));
    }
}

// ---------------------------------------------------------------------------
// The gateway dispatch
// ---------------------------------------------------------------------------

/// The pipelined engine behind the multiplexed gateway: ledger-free
/// requests (printing, check-out verification) run inline on the reactor,
/// everything stateful is forwarded to the sequencer / shard workers and
/// *parked* — the reactor polls the reply channel instead of blocking, so
/// one station's barrier never stalls another station's connection.
pub(super) struct PipelineDispatch<'a> {
    pub(super) core: HostCore<'a>,
    pub(super) client: IngestClient,
}

/// Parks a unit-reply sequencer command as a pending gateway response.
fn park_unit(rx: Receiver<Result<(), ServiceError>>, ok: Response) -> Dispatched {
    let mut ok = Some(ok);
    park(rx, move |()| {
        // The reactor clears `pending` on the first `Some`, so the
        // closure resolves at most once; a second call is a reactor bug
        // answered typed rather than by killing the thread.
        ok.take().unwrap_or_else(|| {
            Response::Err(ServiceError::Transport(
                "pending response polled after resolution".into(),
            ))
        })
    })
}

/// Parks a typed-reply sequencer command as a pending gateway response.
fn park<T: Send + 'static>(
    rx: Receiver<Result<T, ServiceError>>,
    mut wrap: impl FnMut(T) -> Response + Send + 'static,
) -> Dispatched {
    Dispatched::Pending(Box::new(move || match rx.try_recv() {
        Ok(Ok(v)) => Some(wrap(v)),
        Ok(Err(e)) => Some(Response::Err(e)),
        Err(TryRecvError::Empty) => None,
        Err(TryRecvError::Disconnected) => Some(Response::Err(ServiceError::Transport(
            "ingest sequencer gone".into(),
        ))),
    }))
}

impl PipelineDispatch<'_> {
    /// Fans session-tagged groups out to the shard workers and parks on
    /// the workers' acknowledgements; the submission ticket is allocated
    /// when the last ack lands, mirroring the blocking path's ordering.
    fn park_fan_out<R>(
        &self,
        groups: Vec<(u64, Vec<R>)>,
        make: impl Fn(Vec<(u64, Vec<R>)>, Sender<Result<(), ServiceError>>) -> ShardCmd,
        done: impl Fn(u64) -> Response + Send + 'static,
    ) -> Dispatched {
        let mut acks = match self.client.fan_out_async(groups, make) {
            Ok(acks) => acks,
            Err(e) => return Dispatched::Now(Response::Err(e)),
        };
        let tickets = Arc::clone(&self.client.tickets);
        Dispatched::Pending(Box::new(move || {
            while let Some(rx) = acks.last() {
                match rx.try_recv() {
                    Ok(Ok(())) => {
                        acks.pop();
                    }
                    Ok(Err(e)) => return Some(Response::Err(e)),
                    Err(TryRecvError::Empty) => return None,
                    Err(TryRecvError::Disconnected) => {
                        return Some(Response::Err(ServiceError::Transport(
                            "ingest worker gone".into(),
                        )))
                    }
                }
            }
            Some(done(tickets.fetch_add(1, Ordering::SeqCst)))
        }))
    }
}

impl GatewayDispatch for PipelineDispatch<'_> {
    fn dispatch(&mut self, req: Request) -> Dispatched {
        match req {
            Request::CheckIn(m) => match self.client.call_async(|r| Cmd::CheckIn(m.voter, r)) {
                Ok(rx) => park(rx, |ticket| Response::CheckIn(CheckInResponse { ticket })),
                Err(e) => Dispatched::Now(Response::Err(e)),
            },
            Request::Print(m) => Dispatched::Now(Response::Print(PrintResponse {
                envelopes: self.core.print(&m.jobs),
            })),
            Request::SubmitEnvelopes(_) | Request::CheckOutBatch(_) => {
                Dispatched::Now(Response::Err(ServiceError::Transport(
                    "the sharded registrar requires session-tagged submissions".into(),
                )))
            }
            Request::SubmitEnvelopesSeq(m) => {
                self.park_fan_out(m.groups, ShardCmd::Envelopes, |ticket| {
                    Response::SubmitEnvelopesSeq(IngestReceipt { ticket })
                })
            }
            Request::CheckOutBatchSeq(m) => {
                let groups = m
                    .groups
                    .into_iter()
                    .map(|(s, checkouts)| {
                        (
                            s,
                            checkouts
                                .into_iter()
                                .map(|(qr, coupon)| (qr, coupon.into()))
                                .collect(),
                        )
                    })
                    .collect();
                match self.core.verify_and_countersign(groups) {
                    Ok(records) => self.park_fan_out(records, ShardCmd::Records, |ticket| {
                        Response::CheckOutBatchSeq(CheckOutBatchResponse { ticket })
                    }),
                    Err(e) => Dispatched::Now(Response::Err(e)),
                }
            }
            Request::Sync => match self.client.call_async(Cmd::SyncAll) {
                Ok(rx) => park_unit(rx, Response::Sync),
                Err(e) => Dispatched::Now(Response::Err(e)),
            },
            Request::SyncThrough(m) => {
                match self.client.call_async(|r| Cmd::SyncThrough(m.sessions, r)) {
                    Ok(rx) => park_unit(rx, Response::SyncThrough),
                    Err(e) => Dispatched::Now(Response::Err(e)),
                }
            }
            Request::LedgerHeads => match self.client.call_async(Cmd::Heads) {
                Ok(rx) => park(rx, Response::LedgerHeads),
                Err(e) => Dispatched::Now(Response::Err(e)),
            },
            Request::IngestStats => {
                let (tx, rx) = mpsc::channel();
                if self.client.seq.send(Cmd::Stats(tx)).is_err() {
                    return Dispatched::Now(Response::Err(ServiceError::Transport(
                        "ingest sequencer gone".into(),
                    )));
                }
                Dispatched::Pending(Box::new(move || match rx.try_recv() {
                    Ok(stats) => Some(Response::IngestStats(stats)),
                    Err(TryRecvError::Empty) => None,
                    Err(TryRecvError::Disconnected) => Some(Response::Err(
                        ServiceError::Transport("ingest sequencer gone".into()),
                    )),
                }))
            }
            Request::ActivationSweep(m) => {
                match self.client.call_async(|r| Cmd::Activate(m.claims, r)) {
                    Ok(rx) => park_unit(rx, Response::ActivationSweep),
                    Err(e) => Dispatched::Now(Response::Err(e)),
                }
            }
            // No ingest flush: the coordinator owns the day's final
            // barrier (matching the old multi-connection semantics).
            Request::Shutdown => Dispatched::CloseAfter(Response::Shutdown),
        }
    }
}
