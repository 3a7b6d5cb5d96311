//! Registration throughput: the kiosk-fleet engine vs the sequential
//! booth.
//!
//! TRIP's deployment story has kiosks precompute the interactive-ZKP
//! material before a voter sits down (§6); this bench quantifies what
//! that buys at registration-roll scale. For each `(voters, kiosks)` grid
//! point it drives the same sampled check-in queue (fakes from the D_c
//! population model) three ways:
//!
//! - **sequential**: the classic one-booth `register_voter` +
//!   `activate_all` loop (measured on a capped prefix of the queue and
//!   reported as a rate);
//! - **fleet cold**: `KioskFleet::register_and_activate`, precompute
//!   interleaved with the ceremonies in pool-batch windows;
//! - **fleet warm**: the pool fully precomputed while the booth is idle
//!   (timed separately), then the ceremony + batched-admission +
//!   batched-activation drain on its own — the number a registrar sizing
//!   a fleet for election day actually cares about.
//!
//! Run with:
//! `cargo run --release -p vg-bench --bin reg_bench -- [--quick|--full]
//!  [--voters N --kiosks K] [--threads N] [--pool N] [--seq-cap N]
//!  [--json path]`
//!
//! - default: voters ∈ {2 000} × kiosks ∈ {1, 8} plus the acceptance
//!   point 10 000 × 8;
//! - `--quick`: 1 000 × {1, 4} (CI telemetry);
//! - `--full`: voters ∈ {10 000, 100 000, 1 000 000} × kiosks ∈ {1, 8, 64}
//!   (warm/activation phases are skipped above the memory cap; the 1M
//!   rows stream outcomes and report the cold register-only rate).

use std::time::Instant;

use vg_bench::{arg_flag, arg_str, arg_usize, human_time, print_table, BenchReport};
use vg_crypto::HmacDrbg;
use vg_sim::population::{FakeCredentialDist, RegistrationPlan};
use vg_trip::fleet::{FleetConfig, KioskFleet};
use vg_trip::protocol::{activate_all, register_voter};
use vg_trip::setup::{TripConfig, TripSystem};

/// Above this many sessions the warm phase (whole pool resident) and the
/// activation phase (every credential resident) are skipped.
const WARM_CAP: usize = 200_000;

fn config(n_voters: u64, n_kiosks: usize) -> TripConfig {
    TripConfig {
        n_voters,
        n_kiosks,
        // The fleet prints per-session envelopes; the sequential baseline
        // restocks on demand. Either way the big setup-time booth supply
        // would only distort the measurement.
        envelopes_per_voter: 0,
        ..TripConfig::default()
    }
}

fn seed_rng() -> HmacDrbg {
    HmacDrbg::from_u64(0x7261)
}

/// Sequential baseline: classic booth loop over the first `cap` sessions
/// of the plan. Returns (register-only, register+activate) rates in
/// sessions/sec.
fn bench_sequential(plan: &RegistrationPlan, cap: usize) -> (f64, f64) {
    let sessions = &plan.sessions()[..plan.len().min(cap)];
    let mut rng = seed_rng();
    let mut system = TripSystem::setup(config(plan.len() as u64, 1), &mut rng);
    let t0 = Instant::now();
    let mut outcomes: Vec<_> = sessions
        .iter()
        .map(|&(voter, fakes)| {
            register_voter(&mut system, voter, fakes, &mut rng).expect("sequential registers")
        })
        .collect();
    let reg_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for outcome in &mut outcomes {
        activate_all(&mut system, outcome, &mut rng).expect("sequential activates");
    }
    let act_secs = t0.elapsed().as_secs_f64();
    let n = sessions.len() as f64;
    (n / reg_secs, n / (reg_secs + act_secs))
}

struct FleetRates {
    cold: f64,
    warm: Option<f64>,
    /// Warm rate with tiny (32-session) windows: many more coordinator
    /// windows per day. With the persistent lane crew this should sit
    /// near the big-window rate — the per-window thread-spawn tax the
    /// crew removed would show up here as a gap.
    warm_small: Option<f64>,
    precompute: Option<f64>,
}

/// Fleet paths over the full plan with `kiosks` booths.
fn bench_fleet(plan: &RegistrationPlan, kiosks: usize, threads: usize, pool: usize) -> FleetRates {
    let n = plan.len();
    let fleet_config = FleetConfig {
        pool_batch: pool,
        threads,
        seed: [0x52u8; 32],
    };

    // Cold: precompute interleaved, outcomes streamed (register-only so
    // the 1M rows stay in bounded memory; activation is measured on the
    // warm path below).
    let mut rng = seed_rng();
    let mut system = TripSystem::setup(config(n as u64, kiosks), &mut rng);
    let fleet = KioskFleet::new(fleet_config);
    let mut registered = 0usize;
    let t0 = Instant::now();
    let mut cold_pool = fleet.prepare_pool(&system, plan.sessions());
    fleet
        .register_each(
            &mut system,
            plan.sessions(),
            &mut cold_pool,
            false,
            |_, _| registered += 1,
        )
        .expect("fleet registers");
    let cold = registered as f64 / t0.elapsed().as_secs_f64();

    if n > WARM_CAP {
        return FleetRates {
            cold,
            warm: None,
            warm_small: None,
            precompute: None,
        };
    }

    // Warm: pool fully derived up front (booth idle time), then the
    // ceremony + admission + activation drain timed on its own.
    let warm_run = |pool_batch: usize| -> (f64, f64) {
        let mut rng = seed_rng();
        let mut system = TripSystem::setup(config(n as u64, kiosks), &mut rng);
        let fleet = KioskFleet::new(FleetConfig {
            pool_batch,
            ..fleet_config
        });
        let mut pool = fleet.prepare_pool(&system, plan.sessions());
        let t0 = Instant::now();
        pool.warm(&system.printers[0]).expect("pool warms");
        let precompute = n as f64 / t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let mut sessions = 0usize;
        fleet
            .register_each(&mut system, plan.sessions(), &mut pool, true, |_, _| {
                sessions += 1
            })
            .expect("warm fleet registers");
        (sessions as f64 / t0.elapsed().as_secs_f64(), precompute)
    };
    let (warm, precompute) = warm_run(pool);
    // The windowing-tax probe: same warm day through 32-session windows
    // (per-window coordinator costs ×(pool/32)); the persistent lane
    // crew keeps this close to the big-window rate.
    let warm_small = (pool > 32).then(|| warm_run(32).0);
    FleetRates {
        cold,
        warm: Some(warm),
        warm_small,
        precompute: Some(precompute),
    }
}

fn fmt_rate(r: f64) -> String {
    if r >= 100.0 {
        format!("{r:.0}")
    } else {
        format!("{r:.1}")
    }
}

fn main() {
    let threads = arg_usize("--threads", 1);
    let pool = arg_usize("--pool", 512);
    let quick = arg_flag("--quick");
    let full = arg_flag("--full");
    let json_path = arg_str("--json");

    let cases: Vec<(usize, usize)> = if let Some(v) = arg_str("--voters") {
        let n: usize = v.parse().expect("--voters N");
        vec![(n, arg_usize("--kiosks", 8))]
    } else if quick {
        // Large enough that every timed segment spans whole seconds —
        // the perf guard compares ratios across runs, so short windows'
        // scheduling noise matters more than absolute duration.
        vec![(1_000, 1), (1_000, 4)]
    } else if full {
        let mut grid = Vec::new();
        for &n in &[10_000usize, 100_000, 1_000_000] {
            for &k in &[1usize, 8, 64] {
                grid.push((n, k));
            }
        }
        grid
    } else {
        vec![(2_000, 1), (2_000, 8), (10_000, 8)]
    };
    let seq_cap = arg_usize("--seq-cap", if quick { 1_000 } else { 2_000 });

    println!("Registration throughput, {threads} thread(s), pool batch {pool}:");
    println!("sequential booth loop vs kiosk fleet (cold = precompute interleaved,");
    println!("warm = pool precomputed while idle; rates are sessions/sec, one real");
    println!("credential + D_c-sampled fakes per session, activation included in");
    println!("the e2e columns).\n");

    let mut rows = Vec::new();
    let mut report = BenchReport::new("registration");
    report
        .meta("threads", threads)
        .meta("pool_batch", pool)
        .meta("seq_cap", seq_cap)
        .meta(
            "grid",
            cases
                .iter()
                .map(|(n, k)| format!("{n}x{k}"))
                .collect::<Vec<_>>()
                .join(","),
        );

    let mut headline: Option<f64> = None;
    let mut seq_cache: std::collections::HashMap<usize, (f64, f64)> =
        std::collections::HashMap::new();
    for (n, kiosks) in cases {
        let plan = {
            let mut rng = HmacDrbg::from_u64(0xD_C);
            RegistrationPlan::sample(n as u64, &FakeCredentialDist::default(), &mut rng)
        };
        let (seq_reg, seq_e2e) = *seq_cache
            .entry(n)
            .or_insert_with(|| bench_sequential(&plan, seq_cap));
        let fleet = bench_fleet(&plan, kiosks, threads, pool);
        let speedup = fleet.warm.map(|w| w / seq_e2e);
        if kiosks == 8 {
            if let Some(s) = speedup {
                headline = Some(headline.map_or(s, |h: f64| h.max(s)));
            }
        }
        rows.push(vec![
            n.to_string(),
            kiosks.to_string(),
            fmt_rate(seq_e2e),
            fmt_rate(fleet.cold),
            fleet.warm.map_or("-".into(), fmt_rate),
            fleet
                .precompute
                .map_or("-".into(), |p| human_time(1e3 * n as f64 / p)),
            speedup.map_or("-".into(), |s| format!("{s:.2}x")),
        ]);
        let prefix = format!("n{n}_k{kiosks}");
        report.metric(&format!("{prefix}_seq_reg_per_sec",), seq_reg);
        report.metric(&format!("{prefix}_seq_e2e_per_sec"), seq_e2e);
        report.metric(&format!("{prefix}_fleet_cold_reg_per_sec"), fleet.cold);
        if let Some(w) = fleet.warm {
            report.metric(&format!("{prefix}_fleet_warm_e2e_per_sec"), w);
        }
        if let (Some(w), Some(ws)) = (fleet.warm, fleet.warm_small) {
            report.metric(&format!("{prefix}_fleet_warm_small_window_per_sec"), ws);
            // ~1.0 = per-window coordinator overhead (thread spawns,
            // barriers) is amortized away; >1 quantifies the residual
            // tax of running 32-session windows.
            report.metric(&format!("{prefix}_windowing_tax"), w / ws);
        }
        if let Some(s) = speedup {
            report.metric(&format!("{prefix}_warm_speedup"), s);
        }
    }
    print_table(
        &[
            "voters",
            "kiosks",
            "seq e2e/s",
            "fleet cold reg/s",
            "fleet warm e2e/s",
            "precompute",
            "speedup",
        ],
        &rows,
    );

    if let Some(s) = headline {
        report.metric("headline_warm_speedup_8_kiosks", s);
        println!(
            "\nwarm fleet speedup over the sequential booth at 8 kiosks: {s:.2}x {}",
            if s >= 3.0 {
                "(>= 3x target met)"
            } else {
                "(below 3x target)"
            }
        );
    } else if let Some((_, s)) = report
        .metrics
        .iter()
        .filter(|(k, _)| k.ends_with("_warm_speedup"))
        .map(|(k, v)| (k.clone(), *v))
        .next_back()
    {
        // No 8-kiosk point in this grid (e.g. --quick): track the largest
        // configured fleet instead.
        report.metric("headline_warm_speedup_max_kiosks", s);
        println!("\nwarm fleet speedup over the sequential booth: {s:.2}x");
    }

    if let Some(path) = json_path {
        report.write(&path).expect("write bench json");
        println!("telemetry written to {path}");
    }
}
