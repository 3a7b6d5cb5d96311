//! Service-layer overhead: what the typed RPC boundary costs per
//! registration ceremony.
//!
//! Runs the same seeded registration day two ways through
//! [`vg_service::run_day`] and compares sessions/sec:
//!
//! - **inproc**: the default plan — inline and thread-free on the
//!   in-process [`vg_trip::LocalBoundary`] (synchronous per-window ledger
//!   admission);
//! - **svc-tcp**: the one-station gateway day — the same queue over a
//!   length-prefixed loopback TCP socket into the threaded engine, every
//!   request round-tripping the full versioned codec.
//!
//! Both produce bit-identical ledgers (the equivalence proptests pin
//! it); the bench quantifies the framing + socket + thread hand-off tax.
//! The guarded headline is `tcp / inprocess` throughput — a dimensionless
//! ratio that catches codec or transport regressions without tracking
//! absolute host speed.
//!
//! A second section measures **gateway connection scaling**: the same
//! threaded day over the multiplexed station gateway at increasing
//! station-connection counts (`--connections`, default `1,64`). The
//! gateway serves every connection on a small bounded reactor pool, so
//! the guarded headline — the per-ceremony TCP tax at the highest
//! connection count over the tax at one connection — should stay flat
//! as connections grow. `--secure` runs every TCP leg over the
//! mutually-authenticated encrypted channel.
//!
//! Run with:
//! `cargo run --release -p vg-bench --bin service_bench --
//!  [--quick] [--voters N --kiosks K] [--threads N] [--pool N]
//!  [--activate] [--secure] [--connections A,B,..] [--json path]`

use std::time::Instant;

use vg_bench::{arg_flag, arg_str, arg_usize, print_table, BenchReport};
use vg_crypto::HmacDrbg;
use vg_service::{run_day, DayPlan, DayStats, IngestMode, PipelineConfig, TransportPlan};
use vg_sim::population::{FakeCredentialDist, RegistrationPlan};
use vg_trip::fleet::{FleetConfig, KioskFleet};
use vg_trip::setup::{TripConfig, TripSystem};

fn config(n_voters: u64, n_kiosks: usize) -> TripConfig {
    TripConfig {
        n_voters,
        n_kiosks,
        // The fleet prints per-session envelopes; the setup-time booth
        // supply would only distort the measurement.
        envelopes_per_voter: 0,
        ..TripConfig::default()
    }
}

/// One timed registration day over `kiosks` kiosks. Returns sessions/sec
/// plus the day's telemetry.
fn timed_day(
    plan: &RegistrationPlan,
    kiosks: usize,
    fleet_config: FleetConfig,
    day: &DayPlan,
) -> (f64, DayStats) {
    let n = plan.len();
    let mut rng = HmacDrbg::from_u64(0x5E41);
    let mut system = TripSystem::setup(config(n as u64, kiosks), &mut rng);
    let fleet = KioskFleet::new(fleet_config);
    let mut done = 0usize;
    let t0 = Instant::now();
    let stats = run_day(&fleet, &mut system, plan.sessions(), day, |_, _| done += 1)
        .expect("registration day runs");
    assert_eq!(done, n);
    (n as f64 / t0.elapsed().as_secs_f64(), stats)
}

fn main() {
    let threads = arg_usize("--threads", 1);
    let pool = arg_usize("--pool", 256);
    let quick = arg_flag("--quick");
    let activate = arg_flag("--activate");
    // --secure puts every TCP leg behind the mutually-authenticated
    // encrypted channel; in-process legs stay direct so the ratios keep
    // isolating the socket + codec (+ seal) tax.
    let secure = arg_flag("--secure");
    let tcp_plan = if secure {
        TransportPlan::SECURE_TCP
    } else {
        TransportPlan::TCP
    };
    let connections: Vec<usize> = arg_str("--connections")
        .map(|list| {
            list.split(',')
                .map(|c| c.trim().parse().expect("--connections N,N,..."))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 64]);
    let json_path = arg_str("--json");

    let cases: Vec<(usize, usize)> = if let Some(v) = arg_str("--voters") {
        vec![(v.parse().expect("--voters N"), arg_usize("--kiosks", 4))]
    } else if quick {
        vec![(600, 2)]
    } else {
        vec![(2_000, 1), (2_000, 4)]
    };

    println!("Service-layer overhead, {threads} thread(s), pool batch {pool}:");
    println!("inproc = inline day on the in-process boundary (synchronous admission),");
    println!("svc-tcp = one station over a framed loopback socket into the gateway.");
    println!(
        "Rates are sessions/sec ({}).\n",
        if activate {
            "register + activate"
        } else {
            "register only"
        }
    );

    let mut report = BenchReport::new("service");
    report
        .meta("threads", threads)
        .meta("pool_batch", pool)
        .meta("activate", activate)
        .meta("secure", secure)
        .meta(
            "connections",
            connections
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(","),
        )
        .meta(
            "grid",
            cases
                .iter()
                .map(|(n, k)| format!("{n}x{k}"))
                .collect::<Vec<_>>()
                .join(","),
        );

    let mut rows = Vec::new();
    let mut headline: Option<f64> = None;
    for &(n, kiosks) in &cases {
        let plan = {
            let mut rng = HmacDrbg::from_u64(0xD_C);
            RegistrationPlan::sample(n as u64, &FakeCredentialDist::default(), &mut rng)
        };
        let fleet_config = FleetConfig {
            pool_batch: pool,
            threads,
            seed: [0x5Eu8; 32],
        };
        let (inproc, _) = timed_day(
            &plan,
            kiosks,
            fleet_config,
            &DayPlan {
                activate,
                ..DayPlan::default()
            },
        );
        let (tcp, tcp_stats) = timed_day(
            &plan,
            kiosks,
            fleet_config,
            &DayPlan {
                transport: tcp_plan,
                activate,
                ..DayPlan::default()
            },
        );
        let tcp_ratio = tcp / inproc;
        // Per-ceremony cost of the socket + codec, in microseconds.
        let overhead_us = (1.0 / tcp - 1.0 / inproc) * 1e6;
        headline = Some(headline.map_or(tcp_ratio, |h: f64| h.min(tcp_ratio)));
        rows.push(vec![
            n.to_string(),
            kiosks.to_string(),
            format!("{inproc:.0}"),
            format!("{tcp:.0}"),
            format!("{:.1}", overhead_us),
            format!("{tcp_ratio:.3}"),
        ]);
        let prefix = format!("n{n}_k{kiosks}");
        report.metric(&format!("{prefix}_inproc_per_sec"), inproc);
        report.metric(&format!("{prefix}_svc_tcp_per_sec"), tcp);
        report.metric(
            &format!("{prefix}_tcp_overhead_us_per_ceremony"),
            overhead_us,
        );
        report.metric(&format!("{prefix}_tcp_over_inproc"), tcp_ratio);
        // The gateway day's sequencer + shard-worker utilization.
        report.metric(
            &format!("{prefix}_worker_busy_us"),
            tcp_stats.worker_busy_us as f64,
        );
        report.metric(
            &format!("{prefix}_worker_idle_us"),
            tcp_stats.worker_idle_us as f64,
        );
    }
    print_table(
        &[
            "voters",
            "kiosks",
            "inproc/s",
            "svc-tcp/s",
            "tcp us/ceremony",
            "tcp/inproc",
        ],
        &rows,
    );

    if let Some(h) = headline {
        report.metric("headline_tcp_over_inproc", h);
        println!(
            "\nworst tcp/in-process throughput ratio: {h:.3} \
             (1.0 = free transport; the guard flags codec/socket regressions)"
        );
    }

    // Gateway connection scaling: one kiosk-sized station connection
    // per count, every connection multiplexed onto the gateway's bounded
    // reactor pool. The tax is per-ceremony time over the in-process
    // threaded day at the same station count, so station parallelism
    // cancels and only the transport remains.
    let (n, _) = cases[0];
    let gw_plan = {
        let mut rng = HmacDrbg::from_u64(0xD_C);
        RegistrationPlan::sample(n as u64, &FakeCredentialDist::default(), &mut rng)
    };
    let fleet_config = FleetConfig {
        pool_batch: pool,
        threads,
        seed: [0x5Eu8; 32],
    };
    println!("\nGateway connection scaling ({n} voters, tax vs in-process at the same fan-out):");
    let mut gw_rows = Vec::new();
    let mut taxes: Vec<(usize, f64)> = Vec::new();
    for &conns in &connections {
        let inproc = run_gateway_day(&gw_plan, fleet_config, TransportPlan::IN_PROCESS, conns);
        let tcp = run_gateway_day(&gw_plan, fleet_config, tcp_plan, conns);
        // Per-ceremony cost of the gateway transport, in microseconds
        // (floored: a negative tax is measurement noise).
        let tax = ((1.0 / tcp - 1.0 / inproc) * 1e6).max(1.0);
        gw_rows.push(vec![
            conns.to_string(),
            format!("{inproc:.0}"),
            format!("{tcp:.0}"),
            format!("{tax:.1}"),
        ]);
        report.metric(&format!("gateway_c{conns}_inproc_per_sec"), inproc);
        report.metric(&format!("gateway_c{conns}_tcp_per_sec"), tcp);
        report.metric(&format!("gateway_c{conns}_tax_us_per_ceremony"), tax);
        taxes.push((conns, tax));
    }
    print_table(
        &[
            "connections",
            "inproc/s",
            "gateway-tcp/s",
            "tax us/ceremony",
        ],
        &gw_rows,
    );
    if taxes.len() >= 2 {
        let (lo_c, lo_tax) = taxes[0];
        let (hi_c, hi_tax) = *taxes.last().expect("at least two counts");
        let scaling = hi_tax / lo_tax;
        report.metric("headline_gateway_scaling", scaling);
        println!(
            "\nper-ceremony gateway tax at {hi_c} connections over {lo_c}: {scaling:.3} \
             (~1.0 = the reactor pool absorbs the fan-out; growth flags \
             per-connection costs creeping back in)"
        );
    }

    if let Some(path) = json_path {
        report.write(&path).expect("write bench json");
        println!("telemetry written to {path}");
    }
}

/// One timed threaded registration day over the multiplexed gateway at
/// `stations` connections (one kiosk per station so the fan-out is
/// exactly the connection count).
fn run_gateway_day(
    plan: &RegistrationPlan,
    fleet_config: FleetConfig,
    transport: TransportPlan,
    stations: usize,
) -> f64 {
    let day = DayPlan {
        transport,
        pipeline: PipelineConfig {
            stations,
            ingest: IngestMode::Background,
            ..PipelineConfig::default()
        },
        ..DayPlan::default()
    };
    timed_day(plan, stations, fleet_config, &day).0
}
