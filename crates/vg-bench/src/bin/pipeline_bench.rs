//! The threaded registration day vs the inline one.
//!
//! Runs the same seeded register-and-activate day (the full
//! `register_and_activate` path: precompute, ceremonies, admission,
//! activation) several ways through [`vg_service::run_day`] and compares
//! end-to-end sessions/sec, **with precompute included in every timed
//! run** (cold pools; the pipelined runs hide precompute behind
//! ceremonies via the background refiller rather than excluding it):
//!
//! - **barrier**: the default plan — inline on `LocalBoundary`,
//!   synchronous pool refills at window boundaries, one admission +
//!   activation barrier per window, no threads (the bit-identical
//!   baseline);
//! - **pipe-s1**: the pipelined engine with a single station —
//!   background refiller + server-side ingest worker + lagged
//!   activation, no extra parallelism (isolates the coalescing and
//!   overlap wins);
//! - **pipe-w1**: the pipelined engine at the configured station count
//!   but a SINGLE ingest worker — every station's admission sweeps
//!   serialize on one reorder buffer (the pre-sharding registrar);
//! - **pipe**: the pipelined engine at the configured station count and
//!   the configured shard worker count (stations drive disjoint kiosk
//!   chunks concurrently; verification shards across workers);
//! - **pipe-tcp**: the same multi-station sharded day with every
//!   station on its own framed loopback TCP connection.
//!
//! All rows produce bit-identical ledgers (pinned by
//! `tests/pipeline.rs`); the guarded headlines are `pipe / barrier`
//! (pipeline speedup) and `pipe / pipe-w1` (shard scaling) at the
//! acceptance grid point — dimensionless ratios that catch pipeline
//! regressions without tracking absolute host speed.
//!
//! `--fault-rate P` (permille) adds a **pipe-chaos** row: the same TCP
//! day under a seeded `FaultPlan` injecting network faults (delays,
//! drops, torn writes, stalls) at P‰ per channel operation — measuring
//! degraded-mode sessions/sec while reconnect, reaping and stall-steal
//! heal the day to the same bit-identical ledgers. The headlines stay
//! fault-free; the chaos row gets its own `degraded_*` metrics.
//!
//! Run with:
//! `cargo run --release -p vg-bench --bin pipeline_bench --
//!  [--quick] [--voters N --kiosks K] [--stations S] [--workers W]
//!  [--threads N] [--pool N] [--lag N] [--low-water N]
//!  [--fault-rate P] [--json path]`

use std::time::Instant;

use vg_bench::{arg_flag, arg_str, arg_usize, print_table, BenchReport};
use vg_crypto::HmacDrbg;
use vg_service::{
    run_day, ChaosOptions, DayPlan, DayStats, FaultPlan, IngestMode, PipelineConfig, TransportPlan,
};
use vg_sim::population::{FakeCredentialDist, RegistrationPlan};
use vg_trip::fleet::{FleetConfig, KioskFleet};
use vg_trip::setup::{TripConfig, TripSystem};

fn config(n_voters: u64, n_kiosks: usize) -> TripConfig {
    TripConfig {
        n_voters,
        n_kiosks,
        // Per-session envelopes are printed by the day itself; the
        // setup-time booth supply would only distort the measurement.
        envelopes_per_voter: 0,
        ..TripConfig::default()
    }
}

/// One timed end-to-end day (cold pool: precompute inside the timer).
/// Returns (sessions/sec, day stats), or the typed error of a chaos day
/// the fault rate overwhelmed.
fn timed_day(
    plan: &RegistrationPlan,
    kiosks: usize,
    fleet_config: FleetConfig,
    day: &DayPlan,
) -> Result<(f64, DayStats), vg_trip::TripError> {
    let n = plan.len();
    let mut rng = HmacDrbg::from_u64(0x71FE);
    let mut system = TripSystem::setup(config(n as u64, kiosks), &mut rng);
    let fleet = KioskFleet::new(fleet_config);
    let mut done = 0usize;
    let t0 = Instant::now();
    let stats = run_day(&fleet, &mut system, plan.sessions(), day, |_, _| done += 1)?;
    let rate = n as f64 / t0.elapsed().as_secs_f64();
    assert_eq!(done, n);
    Ok((rate, stats))
}

fn coalesce_ratio(s: &DayStats) -> f64 {
    let batches = s.env_batches + s.reg_batches;
    let sweeps = (s.env_sweeps + s.reg_sweeps).max(1);
    batches as f64 / sweeps as f64
}

fn main() {
    let quick = arg_flag("--quick");
    let voters = arg_usize("--voters", 1_000);
    let kiosks = arg_usize("--kiosks", 4);
    let stations = arg_usize("--stations", 2);
    // Shard workers cap at the station count inside the engine; default
    // to the full fan-out so the headline measures sharded vs serial.
    let workers = arg_usize("--workers", stations);
    let threads = arg_usize("--threads", 1);
    let pool = arg_usize("--pool", 64);
    let _ = quick; // the acceptance grid point IS the quick grid point
                   // Default lag: one activation barrier per station for the whole day
                   // (maximum fold amortization at O(day/stations) peak memory).
    let windows_per_station = voters.div_ceil(stations.max(1)).div_ceil(pool.max(1));
    let lag = arg_usize("--lag", windows_per_station.max(1));
    let low_water = arg_usize("--low-water", 2 * pool);
    // --secure runs the TCP row over the mutually-authenticated
    // encrypted channel (the deployment configuration); the in-process
    // rows stay direct so the headlines keep their meaning.
    let secure = arg_flag("--secure");
    // Per-operation network fault rate in permille for the chaos row
    // (0 disables the row; the headline rows are always fault-free).
    let fault_rate = arg_usize("--fault-rate", 0);
    let tcp_plan = if secure {
        TransportPlan::SECURE_TCP
    } else {
        TransportPlan::TCP
    };
    let json_path = arg_str("--json");

    let plan = {
        let mut rng = HmacDrbg::from_u64(0xD_C);
        RegistrationPlan::sample(voters as u64, &FakeCredentialDist::default(), &mut rng)
    };
    let fleet_config = FleetConfig {
        pool_batch: pool,
        threads,
        seed: [0x71u8; 32],
    };
    let pipeline = |stations: usize, workers: usize| PipelineConfig {
        stations,
        workers,
        low_water,
        ingest: IngestMode::Background,
        activation_lag: lag,
    };

    println!(
        "Pipelined registration day, {voters} voters x {kiosks} kiosks, \
         {stations} station(s), {workers} ingest worker(s), {threads} thread(s), \
         pool {pool}, lag {lag}:"
    );
    println!("barrier = inline day: synchronous refills + per-window barriers, no threads,");
    println!("pipe-w1 = pipelined stations serialized on a single ingest worker,");
    println!("pipe    = background refiller + sharded ingest workers + lagged activation.");
    println!("Rates are end-to-end register+activate sessions/sec, precompute included.\n");

    let mut report = BenchReport::new("pipeline");
    report
        .meta("voters", voters)
        .meta("kiosks", kiosks)
        .meta("stations", stations)
        .meta("workers", workers)
        .meta("threads", threads)
        .meta("pool_batch", pool)
        .meta("activation_lag", lag)
        .meta("low_water", low_water)
        .meta("secure", secure)
        .meta("fault_rate_permille", fault_rate);

    let day = |pipeline, transport| DayPlan {
        transport,
        pipeline,
        activate: true,
        chaos: None,
    };
    let healthy = |day: DayPlan| timed_day(&plan, kiosks, fleet_config, &day).expect("day runs");
    // The default pipeline on the in-process transport is the inline day.
    let (barrier, _) = healthy(day(PipelineConfig::default(), TransportPlan::IN_PROCESS));
    let (pipe_s1, s1_stats) = healthy(day(pipeline(1, 1), TransportPlan::IN_PROCESS));
    let (pipe_w1, w1_stats) = healthy(day(pipeline(stations, 1), TransportPlan::IN_PROCESS));
    let (pipe, pipe_stats) = healthy(day(pipeline(stations, workers), TransportPlan::IN_PROCESS));
    let (pipe_tcp, tcp_stats) = healthy(day(pipeline(stations, workers), tcp_plan));

    // The degraded-mode row; `None` (with the typed error printed) if the
    // chaos rate overwhelmed the bounded re-steal budget — a legitimate
    // graceful-degradation outcome, just not a measurable rate.
    let chaos_row = (fault_rate > 0)
        .then(|| {
            let chaos = ChaosOptions {
                plan: Some(FaultPlan {
                    seed: 0xFA17,
                    net_rate_permille: fault_rate.min(1000) as u16,
                    stalls: true,
                    // Corruption needs the MAC-protected channel to
                    // surface typed; plaintext would diverge silently.
                    corrupt: secure,
                    disk: None,
                }),
                ..ChaosOptions::default()
            };
            let day = DayPlan {
                chaos: Some(chaos),
                ..day(pipeline(stations, workers), tcp_plan)
            };
            timed_day(&plan, kiosks, fleet_config, &day)
                .inspect_err(|e| {
                    println!("chaos day degraded past healing (typed abort): {e:?}");
                })
                .ok()
        })
        .flatten();

    let speedup = pipe / barrier;
    let shard_scaling = pipe / pipe_w1;
    let mut rows = vec![
        vec![
            "barrier (inline)".into(),
            format!("{barrier:.0}"),
            "1.00x".into(),
            "-".into(),
            "-".into(),
        ],
        vec![
            "pipe (1 station)".into(),
            format!("{pipe_s1:.0}"),
            format!("{:.2}x", pipe_s1 / barrier),
            format!("{:.1}", coalesce_ratio(&s1_stats)),
            format!("{:.0}%", busy_pct(&s1_stats)),
        ],
        vec![
            format!("pipe-w1 ({stations} stations)"),
            format!("{pipe_w1:.0}"),
            format!("{:.2}x", pipe_w1 / barrier),
            format!("{:.1}", coalesce_ratio(&w1_stats)),
            format!("{:.0}%", busy_pct(&w1_stats)),
        ],
        vec![
            format!("pipe ({stations} st x {} wk)", pipe_stats.workers),
            format!("{pipe:.0}"),
            format!("{speedup:.2}x"),
            format!("{:.1}", coalesce_ratio(&pipe_stats)),
            format!("{:.0}%", busy_pct(&pipe_stats)),
        ],
        vec![
            format!("pipe-tcp ({stations} st x {} wk)", tcp_stats.workers),
            format!("{pipe_tcp:.0}"),
            format!("{:.2}x", pipe_tcp / barrier),
            format!("{:.1}", coalesce_ratio(&tcp_stats)),
            format!("{:.0}%", busy_pct(&tcp_stats)),
        ],
    ];
    if let Some((degraded, chaos_stats)) = &chaos_row {
        rows.push(vec![
            format!("pipe-chaos ({fault_rate}permille)"),
            format!("{degraded:.0}"),
            format!("{:.2}x", degraded / barrier),
            format!("{:.1}", coalesce_ratio(chaos_stats)),
            format!("{:.0}%", busy_pct(chaos_stats)),
        ]);
    }
    print_table(
        &[
            "engine",
            "e2e sessions/s",
            "vs barrier",
            "coalesce ratio",
            "worker busy",
        ],
        &rows,
    );

    report.metric("barrier_e2e_per_sec", barrier);
    report.metric("pipe_s1_e2e_per_sec", pipe_s1);
    report.metric("pipe_w1_e2e_per_sec", pipe_w1);
    report.metric("pipe_e2e_per_sec", pipe);
    report.metric("pipe_tcp_e2e_per_sec", pipe_tcp);
    report.metric("pipe_s1_speedup", pipe_s1 / barrier);
    report.metric("pipe_w1_speedup", pipe_w1 / barrier);
    report.metric("pipe_tcp_speedup", pipe_tcp / barrier);
    report.metric("pipe_coalesce_ratio", coalesce_ratio(&pipe_stats));
    report.metric("pipe_worker_busy_us", pipe_stats.worker_busy_us as f64);
    report.metric("pipe_worker_idle_us", pipe_stats.worker_idle_us as f64);
    if let Some((degraded, chaos_stats)) = &chaos_row {
        report.metric("degraded_e2e_per_sec", *degraded);
        report.metric("degraded_vs_healthy", degraded / pipe_tcp);
        report.metric("degraded_timeouts", chaos_stats.timeouts as f64);
        report.metric("degraded_reconnects", chaos_stats.reconnects as f64);
        report.metric("degraded_reaped", chaos_stats.reaped as f64);
        report.metric("degraded_stall_steals", chaos_stats.stall_steals as f64);
        report.metric("degraded_steal_chunks", chaos_stats.steals.len() as f64);
        println!(
            "degraded mode at {fault_rate} permille: {degraded:.0} sessions/s \
             ({:.0}% of the healthy TCP rate), {} timeout(s), {} reconnect \
             attempt(s), {} reaped conn(s), {} steal chunk(s)",
            100.0 * degraded / pipe_tcp,
            chaos_stats.timeouts,
            chaos_stats.reconnects,
            chaos_stats.reaped,
            chaos_stats.steals.len(),
        );
    }
    report.metric("headline_pipeline_speedup", speedup);
    report.metric("headline_shard_scaling", shard_scaling);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.metric("host_cores", cores as f64);
    println!(
        "\npipelined speedup over the inline day: {speedup:.2}x on {cores} core(s) {}",
        if speedup >= 1.3 {
            "(>= 1.3x target met)"
        } else if cores <= 1 {
            "(single core: only fold amortization can show; the refiller/worker \
             overlap needs a second core)"
        } else {
            "(below 1.3x target)"
        }
    );
    println!(
        "sharded ingest ({} workers) over single-worker ingest: {shard_scaling:.2}x{}",
        pipe_stats.workers,
        if cores <= 1 {
            " (single core: shards can only time-slice)"
        } else {
            ""
        }
    );

    if let Some(path) = json_path {
        report.write(&path).expect("write bench json");
        println!("telemetry written to {path}");
    }
}

fn busy_pct(s: &DayStats) -> f64 {
    let busy = s.worker_busy_us as f64;
    let idle = s.worker_idle_us as f64;
    100.0 * busy / (busy + idle).max(1.0)
}
