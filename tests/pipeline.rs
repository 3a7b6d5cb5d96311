//! Workspace properties of the pipelined registration-day engine: for
//! ANY pipeline configuration — station count, background-refiller
//! low-water mark, ingest mode, activation lag, transport — a pipelined
//! day produces ledgers and credentials bit-identical to the sequential
//! seeded reference, and a station whose connection dies mid-window is
//! healed by failover without perturbing that identity.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use votegral::crypto::HmacDrbg;
use votegral::ledger::FsFault;
use votegral::ledger::{simulate_crash, LedgerBackend, VoterId};
use votegral::service::{
    run_day, ChaosOptions, DayPlan, FaultPlan, IngestMode, PipelineConfig, StationFault,
    StationHang, TransportPlan,
};
use votegral::trip::fleet::{FleetConfig, KioskFleet};
use votegral::trip::protocol::{register_voter_seeded, RegistrationOutcome};
use votegral::trip::setup::{TripConfig, TripSystem};

/// A register-and-activate day with an optional injected station fault
/// (the failover suites' common shape).
fn faulted_day(
    transport: TransportPlan,
    pipeline: PipelineConfig,
    fault: Option<StationFault>,
) -> DayPlan {
    DayPlan {
        transport,
        pipeline,
        activate: true,
        chaos: fault.map(|fault| ChaosOptions {
            fault: Some(fault),
            ..ChaosOptions::default()
        }),
    }
}

fn trip_config(n_voters: u64, n_kiosks: usize) -> TripConfig {
    TripConfig {
        n_voters,
        n_kiosks,
        ..TripConfig::default()
    }
}

/// Ledger heads plus per-credential identifying bytes, in queue order.
fn fingerprint(
    system: &TripSystem,
    outcomes: &[RegistrationOutcome],
) -> (Vec<u8>, Vec<u8>, usize, Vec<Vec<u8>>) {
    let creds = outcomes
        .iter()
        .flat_map(|o| o.all_credentials())
        .map(|c| {
            let mut bytes = c.receipt.commit_qr.kiosk_sig.to_bytes().to_vec();
            bytes.extend_from_slice(&c.receipt.checkout_qr.kiosk_sig.to_bytes());
            bytes.extend_from_slice(&c.receipt.response_qr.credential_sk.to_bytes());
            bytes.extend_from_slice(&c.envelope.challenge.to_bytes());
            bytes
        })
        .collect();
    (
        system.ledger.registration.tree_head().root.to_vec(),
        system.ledger.envelopes.tree_head().root.to_vec(),
        system.ledger.registration.active_count(),
        creds,
    )
}

fn sequential_reference(
    seed64: u64,
    seed: &[u8; 32],
    n_kiosks: usize,
    queue: &[(VoterId, usize)],
) -> (Vec<u8>, Vec<u8>, usize, Vec<Vec<u8>>) {
    let mut rng = HmacDrbg::from_u64(seed64 ^ 0x91E);
    let mut system = TripSystem::setup(trip_config(queue.len() as u64, n_kiosks), &mut rng);
    let mut outcomes = Vec::new();
    for (i, &(voter, fakes)) in queue.iter().enumerate() {
        outcomes.push(register_voter_seeded(&mut system, voter, fakes, seed, i).unwrap());
    }
    fingerprint(&system, &outcomes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance criterion: pipelined registration days equal the
    /// sequential seeded reference bit-for-bit across (kiosks × pool
    /// batch × low-water mark × station count × ingest mode × threads ×
    /// seed), on every transport — including
    /// the authenticated-encryption secure channel, whose ephemeral
    /// handshake randomness must never leak into ledger bytes.
    #[test]
    fn pipelined_day_equals_sequential_reference(
        seed64 in any::<u64>(),
        n_kiosks in 2usize..5,
        pool_batch in 1usize..5,
        threads in 1usize..3,
        stations in 1usize..4,
        low_water in 0usize..7,
        background in any::<bool>(),
        fake_counts in proptest::collection::vec(0usize..3, 5),
    ) {
        let n_voters = fake_counts.len() as u64;
        let queue: Vec<(VoterId, usize)> = fake_counts
            .iter()
            .enumerate()
            .map(|(i, &f)| (VoterId(i as u64 + 1), f))
            .collect();
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&seed64.to_le_bytes());
        let fleet = KioskFleet::new(FleetConfig { pool_batch, threads, seed });
        let stations = stations.min(n_kiosks);
        let pipeline = PipelineConfig {
            stations,
            low_water,
            ingest: if background { IngestMode::Background } else { IngestMode::Barrier },
            activation_lag: 1 + (seed64 % 3) as usize,
        };
        let reference = sequential_reference(seed64, &seed, n_kiosks, &queue);

        for transport in [
            TransportPlan::IN_PROCESS,
            TransportPlan::TCP,
            TransportPlan::SECURE_TCP,
        ] {
            let mut rng = HmacDrbg::from_u64(seed64 ^ 0x91E);
            let mut system = TripSystem::setup(trip_config(n_voters, n_kiosks), &mut rng);
            let mut outcomes = Vec::new();
            let day = DayPlan { transport, pipeline, ..DayPlan::default() };
            run_day(&fleet, &mut system, &queue, &day, |o, _| outcomes.push(o))
                .expect("pipelined day runs");
            prop_assert_eq!(
                &fingerprint(&system, &outcomes),
                &reference,
                "transport {:?} pipeline {:?}",
                transport,
                pipeline
            );
        }
    }

    /// Pipelined register-and-activate (lagged activation, background
    /// sweeps, multiple stations) matches the barrier-synchronous
    /// engine: same activated credential secrets in queue order, same
    /// reveal counts, same heads.
    #[test]
    fn pipelined_activation_day_matches_barrier_engine(
        seed64 in any::<u64>(),
        threads in 1usize..3,
        stations in 1usize..3,
        activation_lag in 1usize..4,
        fake_counts in proptest::collection::vec(0usize..2, 4),
    ) {
        let n_voters = fake_counts.len() as u64;
        let queue: Vec<(VoterId, usize)> = fake_counts
            .iter()
            .enumerate()
            .map(|(i, &f)| (VoterId(i as u64 + 1), f))
            .collect();
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&seed64.to_le_bytes());
        // pool_batch 2 forces several windows for a 4-voter queue, so
        // lag grouping and prefix barriers actually engage.
        let fleet = KioskFleet::new(FleetConfig { pool_batch: 2, threads, seed });

        let barrier = {
            let mut rng = HmacDrbg::from_u64(seed64 ^ 0xAC8);
            let mut system = TripSystem::setup(trip_config(n_voters, 2), &mut rng);
            let mut secrets = Vec::new();
            let inline = DayPlan { activate: true, ..DayPlan::default() };
            run_day(&fleet, &mut system, &queue, &inline, |_, vsd| {
                secrets.extend(vsd.credentials.iter().map(|c| c.key.secret()));
            })
            .expect("barrier day runs");
            (
                secrets,
                system.ledger.envelopes.revealed_count(),
                system.ledger.registration.tree_head().root,
                system.ledger.envelopes.tree_head().root,
            )
        };

        let pipeline = PipelineConfig {
            stations,
            low_water: 3,
            ingest: IngestMode::Background,
            activation_lag,
        };
        for transport in [
            TransportPlan::IN_PROCESS,
            TransportPlan::SECURE_IN_PROCESS,
            TransportPlan::TCP,
        ] {
            let mut rng = HmacDrbg::from_u64(seed64 ^ 0xAC8);
            let mut system = TripSystem::setup(trip_config(n_voters, 2), &mut rng);
            let mut secrets = Vec::new();
            run_day(
                &fleet,
                &mut system,
                &queue,
                &faulted_day(transport, pipeline, None),
                |_, vsd| secrets.extend(vsd.credentials.iter().map(|c| c.key.secret())),
            )
            .expect("pipelined day runs");
            let got = (
                secrets,
                system.ledger.envelopes.revealed_count(),
                system.ledger.registration.tree_head().root,
                system.ledger.envelopes.tree_head().root,
            );
            prop_assert_eq!(&got, &barrier, "transport {:?}", transport);
        }
    }
}

/// A station's connection dies mid-window (at several different points
/// in its day) and the coordinator's failover completes the day on a
/// fresh recovery connection — outcomes, loot order, devices and ledgers
/// all exactly as if nothing had failed.
#[test]
fn station_death_mid_window_heals_on_survivors() {
    let seed = [0x5Du8; 32];
    let queue: Vec<(VoterId, usize)> = (1..=6).map(|v| (VoterId(v), (v % 2) as usize)).collect();
    let fleet = KioskFleet::new(FleetConfig {
        pool_batch: 2,
        threads: 2,
        seed,
    });
    let pipeline = PipelineConfig {
        stations: 2,
        low_water: 2,
        ingest: IngestMode::Background,
        activation_lag: 1,
    };

    // The healthy pipelined day is the reference.
    let run = |fault: Option<StationFault>, transport: TransportPlan| {
        let mut rng = HmacDrbg::from_u64(0xFA11);
        let mut system = TripSystem::setup(trip_config(6, 4), &mut rng);
        let mut devices = Vec::new();
        let mut outcomes = Vec::new();
        run_day(
            &fleet,
            &mut system,
            &queue,
            &faulted_day(transport, pipeline, fault),
            |outcome, vsd| {
                devices.push(vsd.credentials.len());
                outcomes.push(outcome);
            },
        )
        .expect("day completes despite the dead station");
        let fp = fingerprint(&system, &outcomes);
        (fp, devices, system.ledger.envelopes.revealed_count())
    };
    let reference = run(None, TransportPlan::IN_PROCESS);
    // Everyone got their devices in the healthy run.
    assert_eq!(reference.1, vec![2, 1, 2, 1, 2, 1]);

    // Kill station 1 after a handful of boundary ops — sweeping the
    // fault point across check-in, submission and barrier calls — on
    // both transports.
    for after_ops in [0, 2, 4, 5, 6] {
        for transport in [TransportPlan::IN_PROCESS, TransportPlan::TCP] {
            let fault = Some(StationFault {
                station: 1,
                after_ops,
                recovery_after_ops: None,
                recovery_deaths: 0,
            });
            assert_eq!(
                run(fault, transport),
                reference,
                "fault after {after_ops} ops over {transport:?}"
            );
        }
    }
}

/// An unrecoverable error — an ineligible voter fails the station's
/// check-in AND its one recovery re-run — must surface as the typed
/// error on both transports. Over TCP this also pins the shutdown path:
/// the acceptor must be woken on the error exit too, or the day would
/// deadlock in the scope join instead of returning.
#[test]
fn unrecoverable_error_returns_typed_instead_of_hanging() {
    for transport in [
        TransportPlan::IN_PROCESS,
        TransportPlan::TCP,
        TransportPlan::SECURE_TCP,
    ] {
        let mut rng = HmacDrbg::from_u64(404);
        let mut system = TripSystem::setup(trip_config(2, 2), &mut rng);
        let fleet = KioskFleet::new(FleetConfig::seeded([1u8; 32]));
        let pipeline = PipelineConfig {
            stations: 2,
            low_water: 2,
            ingest: IngestMode::Background,
            activation_lag: 1,
        };
        // Voter 99 is not on the roster; their station fails at check-in
        // deterministically, and so does the recovery connection.
        let out = run_day(
            &fleet,
            &mut system,
            &[(VoterId(1), 0), (VoterId(99), 0)],
            &faulted_day(transport, pipeline, None),
            |_, _| {},
        );
        assert_eq!(
            out,
            Err(votegral::trip::TripError::NotEligible),
            "{transport:?}"
        );
    }
}

/// A fresh scratch directory for a durable ledger under this test run.
fn wal_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vg-pipeline-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(n_voters: u64, n_kiosks: usize, dir: &Path, fsync: bool) -> TripConfig {
    TripConfig {
        n_voters,
        n_kiosks,
        backend: LedgerBackend::Durable {
            dir: dir.to_path_buf(),
            fsync,
        },
        ..TripConfig::default()
    }
}

/// The crash-recovery acceptance criterion: a registration day on the
/// durable backend is SIGKILLed at ≥5 different byte offsets into its
/// write-ahead log — including cuts landing mid-frame, leaving a torn
/// final frame — and every crash state, reopened with the same
/// setup seed and driven through the same deterministic day, replays to
/// signed tree heads and credential bytes bit-identical to the
/// uncrashed sequential seeded reference. Swept over the transports
/// (including the secure gateway), both ingest modes, and the inline day
/// — whose only commit points are `LocalBoundary`'s own barriers (no row
/// calls `Election::persist_ledgers`).
///
/// SIGKILL-equivalence: the durable store writes each file append-only
/// from a single thread, so any kill leaves a per-file byte prefix —
/// exactly what [`simulate_crash`] constructs (and, unlike an in-process
/// kill, it can place the cut at a chosen offset deterministically).
#[test]
fn durable_day_killed_mid_day_replays_to_identical_heads() {
    let seed64 = 0xD00Du64;
    let seed = [0x6Bu8; 32];
    let queue: Vec<(VoterId, usize)> = (1..=6).map(|v| (VoterId(v), (v % 2) as usize)).collect();
    let fleet = KioskFleet::new(FleetConfig {
        pool_batch: 2,
        threads: 2,
        seed,
    });
    let reference = sequential_reference(seed64, &seed, 4, &queue);

    let threaded = |ingest| PipelineConfig {
        stations: 2,
        low_water: 2,
        ingest,
        activation_lag: 1,
    };
    for (engine, pipeline, transport) in [
        (
            "Barrier",
            threaded(IngestMode::Barrier),
            TransportPlan::IN_PROCESS,
        ),
        ("Barrier", threaded(IngestMode::Barrier), TransportPlan::TCP),
        (
            "Background",
            threaded(IngestMode::Background),
            TransportPlan::IN_PROCESS,
        ),
        (
            "Background",
            threaded(IngestMode::Background),
            TransportPlan::TCP,
        ),
        (
            "Background",
            threaded(IngestMode::Background),
            TransportPlan::SECURE_TCP,
        ),
        // The default plan: inline on `LocalBoundary`, no threads.
        (
            "inline",
            PipelineConfig::default(),
            TransportPlan::IN_PROCESS,
        ),
    ] {
        // Reopening is just setup on the same directory with the same
        // seed: the WAL replays, and re-running the deterministic day
        // no-ops through the persisted prefix via the replay cursor.
        let day_on = |dir: &Path| {
            let mut rng = HmacDrbg::from_u64(seed64 ^ 0x91E);
            let mut system = TripSystem::setup(durable_config(6, 4, dir, false), &mut rng);
            let mut outcomes = Vec::new();
            let day = DayPlan {
                transport,
                pipeline,
                ..DayPlan::default()
            };
            let stats = run_day(&fleet, &mut system, &queue, &day, |o, _| outcomes.push(o))
                .expect("durable day runs");
            let wal = system.ledger.durability_stats();
            (fingerprint(&system, &outcomes), stats, wal)
        };

        // The uncrashed durable day: flat WAL Merkle roots are
        // bit-identical to the volatile in-memory reference, and the
        // day's records really went through the WAL.
        let full_dir = wal_dir(&format!("full-{engine}-{transport:?}"));
        let (full, stats, wal) = day_on(&full_dir);
        assert_eq!(full, reference, "{engine}/{transport:?} uncrashed");
        assert!(stats.wal_records > 0, "day must write the WAL");

        // The one flat stats record: its WAL counters are the ledger's
        // own on either engine; the threaded engine's counters are live,
        // the inline day (no engine) reports zeroes.
        assert_eq!(
            (stats.wal_records, stats.wal_fsyncs, stats.wal_failures),
            (wal.wal_records, wal.wal_fsyncs, wal.wal_failures),
            "{engine}/{transport:?}"
        );
        let lanes = [
            (stats.env_batches, stats.env_sweeps),
            (stats.reg_batches, stats.reg_sweeps),
        ];
        if engine == "inline" {
            assert_eq!(lanes, [(0, 0); 2]);
            assert_eq!((stats.worker_busy_us, stats.worker_idle_us), (0, 0));
        } else {
            for (batches, sweeps) in lanes {
                assert!(1 <= sweeps && sweeps <= batches, "{engine}: {lanes:?}");
            }
            assert!(stats.worker_busy_us + stats.worker_idle_us > 0);
        }

        // Kill the day at five byte fractions of its WAL — early (mid
        // envelope-supply setup), mid-registration, and near-complete —
        // then reopen each crash state and finish the day.
        let mut any_torn = false;
        for permille in [97u32, 293, 511, 743, 941] {
            let crashed = wal_dir(&format!("crash-{permille}"));
            let report = simulate_crash(&full_dir, &crashed, permille).expect("simulate crash");
            any_torn |= report.torn_tail;
            let (recovered, ..) = day_on(&crashed);
            assert_eq!(
                recovered, reference,
                "{engine}/{transport:?} killed at {permille}‰"
            );
            let _ = std::fs::remove_dir_all(&crashed);
        }
        assert!(any_torn, "the sweep must include a mid-frame kill");
        let _ = std::fs::remove_dir_all(&full_dir);
    }
}

/// The inline day's commit points: a default-plan [`run_day`] runs on
/// `LocalBoundary`, whose barriers must persist — every activation
/// window's `sync_through` and `activation_sweep` end in a WAL fsync and
/// a signed head on disk *while the day runs*, not when the system
/// drops.
#[test]
fn inline_durable_day_persists_at_every_barrier() {
    let queue: Vec<(VoterId, usize)> = (1..=6).map(|v| (VoterId(v), (v % 2) as usize)).collect();
    let fleet = KioskFleet::new(FleetConfig {
        pool_batch: 2,
        threads: 2,
        seed: [0x1Du8; 32],
    });
    let dir = wal_dir("inline-barrier");
    let mut rng = HmacDrbg::from_u64(0x1D);
    let mut system = TripSystem::setup(durable_config(6, 4, &dir, true), &mut rng);
    let before = system.ledger.durability_stats();
    let day = DayPlan {
        activate: true,
        ..DayPlan::default()
    };
    let mut devices = 0usize;
    run_day(&fleet, &mut system, &queue, &day, |_, vsd| {
        devices += vsd.credentials.len()
    })
    .expect("inline durable day runs");
    assert_eq!(devices, 9);
    // Asserted before the system drops: six voters in windows of two are
    // three activation windows, each behind its own barrier.
    let after = system.ledger.durability_stats();
    let windows = queue.len().div_ceil(2) as u64;
    assert!(
        after.heads_persisted - before.heads_persisted >= windows,
        "every activation window must persist a signed head, got {after:?} (from {before:?})"
    );
    assert!(
        after.wal_fsyncs > before.wal_fsyncs,
        "fsync-at-barrier must engage on the inline path"
    );
    drop(system);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite of the crash-recovery criterion: the kill lands during
/// *failover* — station 1's connection dies mid-window, and then the
/// recovery connection replaying its undelivered sessions dies too. The
/// day aborts with a typed error; everything admitted before the kill
/// is already fsynced under a signed head (the commit-point contract),
/// so reopening the directory and running the day cleanly must dedup
/// the healed station's re-submissions against that *persisted* prefix
/// and land on the healthy reference exactly — devices, reveal count
/// and heads included.
#[test]
fn kill_during_failover_reopens_to_the_healthy_reference() {
    let seed = [0x5Du8; 32];
    let queue: Vec<(VoterId, usize)> = (1..=6).map(|v| (VoterId(v), (v % 2) as usize)).collect();
    let fleet = KioskFleet::new(FleetConfig {
        pool_batch: 2,
        threads: 2,
        seed,
    });
    let pipeline = PipelineConfig {
        stations: 2,
        low_water: 2,
        ingest: IngestMode::Background,
        activation_lag: 1,
    };

    let run = |dir: Option<&Path>, fault: Option<StationFault>, transport: TransportPlan| {
        let mut rng = HmacDrbg::from_u64(0xFA11);
        let config = match dir {
            Some(dir) => durable_config(6, 4, dir, true),
            None => trip_config(6, 4),
        };
        let mut system = TripSystem::setup(config, &mut rng);
        let mut devices = Vec::new();
        let mut outcomes = Vec::new();
        let result = run_day(
            &fleet,
            &mut system,
            &queue,
            &faulted_day(transport, pipeline, fault),
            |outcome, vsd| {
                devices.push(vsd.credentials.len());
                outcomes.push(outcome);
            },
        );
        let stats = result?;
        Ok::<_, votegral::trip::TripError>((
            fingerprint(&system, &outcomes),
            devices,
            system.ledger.envelopes.revealed_count(),
            stats,
        ))
    };
    let (reference, ref_devices, ref_revealed, _) =
        run(None, None, TransportPlan::IN_PROCESS).expect("healthy reference day");
    assert_eq!(ref_devices, vec![2, 1, 2, 1, 2, 1]);

    for transport in [TransportPlan::IN_PROCESS, TransportPlan::TCP] {
        for recovery_after_ops in [0usize, 3] {
            let dir = wal_dir(&format!("failover-{transport:?}-{recovery_after_ops}"));
            // First attempt: station 1 dies after 2 boundary ops, and
            // the recovery connection dies too — unrecoverable, the day
            // aborts mid-flight with whatever was admitted so far
            // persisted.
            // `recovery_deaths: usize::MAX` keeps killing every re-steal
            // generation, so the bounded depth is exhausted and the day
            // genuinely aborts.
            let fault = Some(StationFault {
                station: 1,
                after_ops: 2,
                recovery_after_ops: Some(recovery_after_ops),
                recovery_deaths: usize::MAX,
            });
            let aborted = run(Some(&dir), fault, transport);
            assert!(
                aborted.is_err(),
                "a dead recovery connection must abort the day ({transport:?})"
            );
            // Reopen the crash state and run the day cleanly: replayed
            // submissions dedup against the persisted ingest progress.
            let (fp, devices, revealed, stats) =
                run(Some(&dir), None, transport).expect("reopened day completes");
            assert_eq!(
                (fp, devices, revealed),
                (reference.clone(), ref_devices.clone(), ref_revealed),
                "recovery kill after {recovery_after_ops} ops over {transport:?}"
            );
            assert!(stats.wal_fsyncs > 0, "fsync-at-flush must engage");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The station partition itself: disjoint, exhaustive, kiosk-aligned —
/// and over-subscription (`stations > |K|`, or zero stations) is a typed
/// configuration error rather than a silent clamp.
#[test]
fn station_partition_is_disjoint_and_kiosk_aligned() {
    let mut rng = HmacDrbg::from_u64(3);
    let system = TripSystem::setup(trip_config(10, 5), &mut rng);
    let plan: Vec<(VoterId, usize)> = (1..=10).map(|v| (VoterId(v), 1)).collect();
    for stations in [1, 2, 3, 5] {
        let parts = votegral::trip::fleet::partition_stations(&plan, &system.kiosks, stations)
            .expect("1 <= stations <= kiosks is a valid partition");
        assert_eq!(parts.len(), stations);
        let mut seen = HashSet::new();
        for part in &parts {
            for &(idx, session) in &part.plans {
                assert!(seen.insert(idx), "session {idx} assigned twice");
                assert_eq!(session.voter, plan[idx].0);
            }
        }
        assert_eq!(seen.len(), plan.len(), "stations cover the whole plan");
    }
    for stations in [0, 9] {
        let out = votegral::trip::fleet::partition_stations(&plan, &system.kiosks, stations);
        assert!(
            matches!(out, Err(votegral::trip::TripError::InvalidConfig(_))),
            "{stations} stations over 5 kiosks must be a typed config error"
        );
    }
}

/// A system set up with no kiosks cannot hold a day, and both engines say
/// so typed: the inline one used to index the empty kiosk slice (in
/// `prepare_pool`, then in the station loop) where the threaded one
/// already answered from the partition.
#[test]
fn zero_kiosk_day_is_a_typed_config_error_on_both_engines() {
    let fleet = KioskFleet::new(FleetConfig::seeded([3u8; 32]));
    let queue = [(VoterId(1), 1)];
    let threaded = DayPlan {
        transport: TransportPlan::TCP,
        ..DayPlan::default()
    };
    for (engine, day) in [("inline", DayPlan::default()), ("threaded", threaded)] {
        let mut rng = HmacDrbg::from_u64(9);
        let mut system = TripSystem::setup(trip_config(1, 0), &mut rng);
        let out = run_day(&fleet, &mut system, &queue, &day, |_, _| {});
        assert!(
            matches!(out, Err(votegral::trip::TripError::InvalidConfig(_))),
            "{engine}: {out:?}"
        );
    }
}

/// The work-stealing acceptance criterion: a ≥3-station day in which one
/// station dies mid-window finishes by *partitioning* the dead station's
/// kiosk range across the survivors — at least two distinct thieves each
/// absorb a contiguous chunk — and the healed day stays bit-identical to
/// the healthy pipelined reference. One recovery connection no longer
/// serializes the whole re-run.
#[test]
fn station_death_steals_kiosk_chunks_across_survivors() {
    let seed = [0x5Eu8; 32];
    // 9 voters over 6 kiosks, 3 stations: station 1 owns kiosks {2,3}
    // and therefore sessions {2,3,8}.
    let queue: Vec<(VoterId, usize)> = (1..=9).map(|v| (VoterId(v), (v % 2) as usize)).collect();
    let fleet = KioskFleet::new(FleetConfig {
        pool_batch: 2,
        threads: 2,
        seed,
    });
    let pipeline = PipelineConfig {
        stations: 3,
        low_water: 2,
        ingest: IngestMode::Background,
        activation_lag: 1,
    };

    let run = |fault: Option<StationFault>, transport: TransportPlan| {
        let mut rng = HmacDrbg::from_u64(0x57EA);
        let mut system = TripSystem::setup(trip_config(9, 6), &mut rng);
        let mut devices = Vec::new();
        let mut outcomes = Vec::new();
        let stats = run_day(
            &fleet,
            &mut system,
            &queue,
            &faulted_day(transport, pipeline, fault),
            |outcome, vsd| {
                devices.push(vsd.credentials.len());
                outcomes.push(outcome);
            },
        )
        .expect("day completes despite the dead station");
        (fingerprint(&system, &outcomes), devices, stats)
    };
    let (reference, ref_devices, healthy_stats) = run(None, TransportPlan::IN_PROCESS);
    assert!(
        healthy_stats.steals.is_empty(),
        "healthy day steals nothing"
    );

    for after_ops in [0, 2, 4] {
        for transport in [
            TransportPlan::IN_PROCESS,
            TransportPlan::TCP,
            TransportPlan::SECURE_TCP,
        ] {
            let fault = Some(StationFault {
                station: 1,
                after_ops,
                recovery_after_ops: None,
                recovery_deaths: 0,
            });
            let (fp, devices, stats) = run(fault, transport);
            assert_eq!(
                (&fp, &devices),
                (&reference, &ref_devices),
                "steal-healed day diverged after {after_ops} ops over {transport:?}"
            );
            // Dynamic partition: every chunk names the dead station as
            // victim, and the chunks were spread across ≥2 survivors.
            assert!(
                !stats.steals.is_empty(),
                "a dead station's range must be stolen ({after_ops} ops, {transport:?})"
            );
            assert!(stats.steals.iter().all(|s| s.victim == 1));
            let thieves: HashSet<usize> = stats.steals.iter().map(|s| s.thief).collect();
            if after_ops == 0 {
                // Nothing delivered: both stolen kiosks {2,3} (sessions
                // {2,8} and {3}) must land on distinct survivors.
                assert_eq!(
                    thieves,
                    HashSet::from([0, 2]),
                    "kiosk chunks must spread across both survivors, got {:?}",
                    stats.steals
                );
            }
            assert!(thieves.iter().all(|&t| t != 1), "the victim cannot steal");
        }
    }
}

/// Kill-then-steal chaos on the durable backend: a 3-station durable day
/// loses station 1 mid-window and the *steal chunks* die too, aborting
/// the day with a partial prefix fsynced under a signed head. Reopening
/// the directory and running the day cleanly must dedup every re-run
/// session against the persisted prefix — byte-identical ingest dedup is
/// exactly what makes chunked stealing safe to retry — and land on the
/// healthy reference.
#[test]
fn durable_kill_then_steal_replays_to_identical_heads() {
    let seed = [0x5Eu8; 32];
    let queue: Vec<(VoterId, usize)> = (1..=9).map(|v| (VoterId(v), (v % 2) as usize)).collect();
    let fleet = KioskFleet::new(FleetConfig {
        pool_batch: 2,
        threads: 2,
        seed,
    });
    let pipeline = PipelineConfig {
        stations: 3,
        low_water: 2,
        ingest: IngestMode::Background,
        activation_lag: 1,
    };

    let run = |dir: Option<&Path>, fault: Option<StationFault>, transport: TransportPlan| {
        let mut rng = HmacDrbg::from_u64(0x57EA);
        let config = match dir {
            Some(dir) => durable_config(9, 6, dir, true),
            None => trip_config(9, 6),
        };
        let mut system = TripSystem::setup(config, &mut rng);
        let mut devices = Vec::new();
        let mut outcomes = Vec::new();
        let stats = run_day(
            &fleet,
            &mut system,
            &queue,
            &faulted_day(transport, pipeline, fault),
            |outcome, vsd| {
                devices.push(vsd.credentials.len());
                outcomes.push(outcome);
            },
        )?;
        Ok::<_, votegral::trip::TripError>((fingerprint(&system, &outcomes), devices, stats))
    };
    let (reference, ref_devices, _) =
        run(None, None, TransportPlan::IN_PROCESS).expect("healthy reference day");

    for transport in [TransportPlan::IN_PROCESS, TransportPlan::TCP] {
        // Sanity: steal-healing on the durable backend alone already
        // reproduces the reference.
        let healed_dir = wal_dir(&format!("steal-heal-{transport:?}"));
        let fault = Some(StationFault {
            station: 1,
            after_ops: 2,
            recovery_after_ops: None,
            recovery_deaths: 0,
        });
        let (fp, devices, stats) =
            run(Some(&healed_dir), fault, transport).expect("steal-healed durable day");
        assert_eq!((&fp, &devices), (&reference, &ref_devices), "{transport:?}");
        assert!(!stats.steals.is_empty(), "the dead station must be stolen");
        let _ = std::fs::remove_dir_all(&healed_dir);

        // Chaos: the steal chunks die too; the aborted day leaves a
        // persisted prefix, and a clean reopen replays to the reference.
        for chunk_after_ops in [0usize, 3] {
            let dir = wal_dir(&format!("kill-steal-{transport:?}-{chunk_after_ops}"));
            let fault = Some(StationFault {
                station: 1,
                after_ops: 2,
                recovery_after_ops: Some(chunk_after_ops),
                recovery_deaths: usize::MAX,
            });
            let aborted = run(Some(&dir), fault, transport);
            assert!(
                aborted.is_err(),
                "dead steal chunks must abort the day ({transport:?})"
            );
            let (fp, devices, stats) =
                run(Some(&dir), None, transport).expect("reopened day completes");
            assert_eq!(
                (&fp, &devices),
                (&reference, &ref_devices),
                "steal chunks killed after {chunk_after_ops} ops over {transport:?}"
            );
            assert!(stats.wal_fsyncs > 0, "fsync-at-flush must engage");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Bounded re-steal: when a *stolen chunk's* runner dies too, the chunk
/// is re-stolen onto the remaining survivors — recorded with an
/// incremented [`StealRecord::depth`] — and the day still lands on the
/// healthy reference bit-for-bit. The retry budget is bounded: a fault
/// that kills every re-steal generation must exhaust the depth and
/// abort with a typed error instead of retrying forever.
///
/// Swept over the in-process engine and the secure multiplexed gateway,
/// so re-stolen chunks also ride the per-thief steal lanes over
/// authenticated encrypted connections.
#[test]
fn dead_steal_chunks_are_restolen_with_bounded_depth() {
    let seed = [0x5Eu8; 32];
    // Same geometry as the steal test: 9 voters over 6 kiosks and 3
    // stations, so station 1 owns kiosks {2,3} = sessions {2,3,8} and
    // its death splits into two chunks across survivors {0,2}.
    let queue: Vec<(VoterId, usize)> = (1..=9).map(|v| (VoterId(v), (v % 2) as usize)).collect();
    let fleet = KioskFleet::new(FleetConfig {
        pool_batch: 2,
        threads: 2,
        seed,
    });
    let pipeline = PipelineConfig {
        stations: 3,
        low_water: 2,
        ingest: IngestMode::Background,
        activation_lag: 1,
    };

    let run = |fault: Option<StationFault>, transport: TransportPlan| {
        let mut rng = HmacDrbg::from_u64(0x57EA);
        let mut system = TripSystem::setup(trip_config(9, 6), &mut rng);
        let mut devices = Vec::new();
        let mut outcomes = Vec::new();
        let stats = run_day(
            &fleet,
            &mut system,
            &queue,
            &faulted_day(transport, pipeline, fault),
            |outcome, vsd| {
                devices.push(vsd.credentials.len());
                outcomes.push(outcome);
            },
        )?;
        Ok::<_, votegral::trip::TripError>((fingerprint(&system, &outcomes), devices, stats))
    };
    let (reference, ref_devices, _) =
        run(None, TransportPlan::IN_PROCESS).expect("healthy reference day");

    for transport in [TransportPlan::IN_PROCESS, TransportPlan::SECURE_TCP] {
        // One recovery death: the first stolen chunk dies immediately
        // and is re-stolen exactly one level deep; the day heals.
        let fault = |recovery_deaths| {
            Some(StationFault {
                station: 1,
                after_ops: 0,
                recovery_after_ops: Some(0),
                recovery_deaths,
            })
        };
        let (fp, devices, stats) =
            run(fault(1), transport).expect("one dead chunk must re-steal and heal");
        assert_eq!((&fp, &devices), (&reference, &ref_devices), "{transport:?}");
        let max_depth = stats.steals.iter().map(|s| s.depth).max();
        assert_eq!(
            max_depth,
            Some(1),
            "the dead chunk must reappear as a depth-1 re-steal, got {:?}",
            stats.steals
        );
        assert!(
            stats.steals.iter().any(|s| s.depth == 0),
            "first-generation steal records must survive in the stats"
        );

        // Three recovery deaths: both first-generation chunks die and
        // one depth-1 re-steal dies too, driving a chunk to the maximum
        // depth — and the day STILL heals to the reference.
        let (fp, devices, stats) =
            run(fault(3), transport).expect("re-steals within the depth budget must heal");
        assert_eq!((&fp, &devices), (&reference, &ref_devices), "{transport:?}");
        assert_eq!(
            stats.steals.iter().map(|s| s.depth).max(),
            Some(2),
            "three chunk deaths must drive one chunk to depth 2, got {:?}",
            stats.steals
        );

        // An unbounded killer exhausts the depth budget: the day aborts
        // with a typed error instead of re-stealing forever.
        assert!(
            run(fault(usize::MAX), transport).is_err(),
            "killing every re-steal generation must abort the day ({transport:?})"
        );
    }
}

// ---------------------------------------------------------------------
// The seeded chaos sweep
// ---------------------------------------------------------------------

/// Wall-clock budget per chaos cell. A cell that neither completes nor
/// returns a typed error inside this window counts as a hang — exactly
/// the failure mode the deadline/reap/stall machinery exists to prevent.
const CHAOS_WATCHDOG: std::time::Duration = std::time::Duration::from_secs(120);

/// One cell of the chaos grid: a seeded fault plan, the transport and
/// ingest mode it runs over, and whether the day needs a durable WAL
/// (disk-fault cells do; network-only cells stay on the volatile
/// backend).
#[derive(Clone, Debug)]
struct ChaosCell {
    label: String,
    plan: FaultPlan,
    transport: TransportPlan,
    ingest: IngestMode,
    durable: bool,
}

/// The chaos acceptance criterion: under ANY seeded `FaultPlan` in the
/// grid — network faults (delays, drops, torn writes, stalls, and on
/// the MAC-protected transport, bit corruption) crossed with disk
/// faults (failed/short WAL writes, ENOSPC, failed fsync) over both
/// gateway transports and both ingest modes — a pipelined day either
///
/// 1. completes with ledger heads and credential bytes bit-identical to
///    the unfaulted sequential reference (faults healed by reconnect,
///    reap and steal), or
/// 2. returns a typed [`TripError`] (graceful degradation),
///
/// and in BOTH cases finishes inside a wall-clock watchdog without a
/// single panic. Every cell is reproducible from its printed plan: the
/// schedules are pure functions of the seed (see `vg-service::fault`).
#[test]
fn chaos_sweep_heals_bit_identically_or_fails_typed() {
    let seed64 = 0xC4A0u64;
    let seed = [0x2Eu8; 32];
    let queue: Vec<(VoterId, usize)> = (1..=6).map(|v| (VoterId(v), (v % 2) as usize)).collect();
    let reference = sequential_reference(seed64, &seed, 4, &queue);

    let mut cells: Vec<ChaosCell> = Vec::new();
    // Network grid: rate × stall mix × transport. Corruption rides only
    // with the secure transport — a plaintext frame has no integrity
    // check, so a flipped bit would change payload bytes silently
    // instead of surfacing a fault (see `FaultPlan::corrupt`).
    for (t_label, transport, corrupt) in [
        ("tcp", TransportPlan::TCP, false),
        ("secure", TransportPlan::SECURE_IN_PROCESS, true),
    ] {
        // 8 permille ≈ a handful of faults per day: reliably heals
        // inside the bounded re-steal budget (pinning the heal arm of
        // the contract); the higher rates push days into typed
        // degradation (pinning the other arm).
        for rate in [8u16, 40, 150] {
            for stalls in [false, true] {
                let plan_seed = u64::from(rate) << 1 | u64::from(stalls);
                cells.push(ChaosCell {
                    label: format!("{t_label}/net{rate}permille/stalls={stalls}"),
                    plan: FaultPlan {
                        seed: plan_seed,
                        net_rate_permille: rate,
                        stalls,
                        corrupt,
                        disk: None,
                    },
                    transport,
                    ingest: if stalls {
                        IngestMode::Background
                    } else {
                        IngestMode::Barrier
                    },
                    durable: false,
                });
            }
        }
    }
    // Disk grid: the WAL write layer fails partway through the day. The
    // store's sticky-poison contract turns every one of these into a
    // typed day abort (or, if the fault lands after the last write, a
    // clean bit-identical completion) — never a panic.
    for (d_label, disk) in [
        ("fail-write", FsFault::FailWrite { nth: 2 }),
        ("short-write", FsFault::ShortWrite { nth: 1, keep: 3 }),
        ("disk-full", FsFault::DiskFull { nth: 1 }),
        ("fail-fsync", FsFault::FailFsync { nth: 0 }),
    ] {
        cells.push(ChaosCell {
            label: format!("tcp/disk/{d_label}"),
            plan: FaultPlan {
                seed: 77,
                net_rate_permille: 0,
                stalls: false,
                corrupt: false,
                disk: Some(disk),
            },
            transport: TransportPlan::TCP,
            ingest: IngestMode::Background,
            durable: true,
        });
    }
    // Compound chaos: network and disk faults in the same day.
    cells.push(ChaosCell {
        label: "secure/net150permille+disk-full".into(),
        plan: FaultPlan {
            seed: 303,
            net_rate_permille: 150,
            stalls: true,
            corrupt: true,
            disk: Some(FsFault::DiskFull { nth: 4 }),
        },
        transport: TransportPlan::SECURE_IN_PROCESS,
        ingest: IngestMode::Background,
        durable: true,
    });

    let mut healed = 0usize;
    let mut degraded = 0usize;
    for cell in cells {
        let queue = queue.clone();
        let label = cell.label.clone();
        let plan_repro = format!("{:?}", cell.plan);
        // Each cell runs on its own thread so a hang is a watchdog
        // FAILURE with the cell's repro plan, not a silently wedged
        // test binary.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let dir = cell.durable.then(|| wal_dir(&cell.label.replace('/', "-")));
            let fleet = KioskFleet::new(FleetConfig {
                pool_batch: 2,
                threads: 2,
                seed,
            });
            let pipeline = PipelineConfig {
                stations: 2,
                low_water: 2,
                ingest: cell.ingest,
                activation_lag: 1,
            };
            let mut rng = HmacDrbg::from_u64(seed64 ^ 0x91E);
            let mut system = TripSystem::setup(
                match &dir {
                    Some(dir) => durable_config(6, 4, dir, true),
                    None => trip_config(6, 4),
                },
                &mut rng,
            );
            let mut outcomes = Vec::new();
            let chaos = ChaosOptions {
                fault: None,
                hang: None,
                plan: Some(cell.plan.clone()),
                // Tight enough that an injected stall is detected and
                // stolen well inside the watchdog; generous enough that
                // healthy-but-delayed stations are not mass-stolen.
                stall_timeout: Some(std::time::Duration::from_secs(5)),
            };
            let day = DayPlan {
                transport: cell.transport,
                pipeline,
                activate: true,
                chaos: Some(chaos),
            };
            let result = run_day(&fleet, &mut system, &queue, &day, |outcome, _vsd| {
                outcomes.push(outcome)
            });
            let fp = result
                .as_ref()
                .ok()
                .map(|_| fingerprint(&system, &outcomes));
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(&dir);
            }
            let _ = tx.send((result.map(|stats| (stats, fp)), cell));
        });
        match rx.recv_timeout(CHAOS_WATCHDOG) {
            Ok((Ok((stats, fp)), cell)) => {
                assert_eq!(
                    fp.as_ref(),
                    Some(&reference),
                    "[{label}] day completed but diverged from the sequential \
                     reference; repro plan: {plan_repro}"
                );
                if cell.plan.disk.is_some() {
                    assert_eq!(
                        stats.wal_failures, 0,
                        "[{label}] a day that absorbed WAL failures must not report Ok"
                    );
                }
                healed += 1;
            }
            Ok((Err(e), _cell)) => {
                // Graceful degradation: typed, not a panic. The error
                // formatting exercises the full typed chain.
                let _ = format!("{e:?}");
                degraded += 1;
            }
            Err(_) => panic!(
                "[{label}] chaos cell exceeded the {CHAOS_WATCHDOG:?} watchdog \
                 (hang); repro plan: {plan_repro}"
            ),
        }
    }
    // The sweep must actually exercise both contract arms: some cells
    // heal to bit-identity, and the disk cells degrade typed.
    assert!(healed > 0, "no chaos cell healed to bit-identity");
    assert!(degraded > 0, "no chaos cell exercised typed degradation");
}

/// A quiet `ChaosOptions` (no plan, no fault) is the identity: same
/// heads as the plain pipelined entry point, and every degraded-mode
/// counter stays zero.
#[test]
fn quiet_chaos_options_are_the_identity() {
    let seed64 = 0xBEEFu64;
    let seed = [0x41u8; 32];
    let queue: Vec<(VoterId, usize)> = (1..=4).map(|v| (VoterId(v), 1)).collect();
    let reference = sequential_reference(seed64, &seed, 4, &queue);
    let fleet = KioskFleet::new(FleetConfig {
        pool_batch: 2,
        threads: 2,
        seed,
    });
    let pipeline = PipelineConfig {
        stations: 2,
        low_water: 2,
        ingest: IngestMode::Background,
        activation_lag: 1,
    };
    let mut rng = HmacDrbg::from_u64(seed64 ^ 0x91E);
    let mut system = TripSystem::setup(trip_config(4, 4), &mut rng);
    let mut outcomes = Vec::new();
    let day = DayPlan {
        transport: TransportPlan::TCP,
        pipeline,
        activate: true,
        chaos: Some(ChaosOptions::default()),
    };
    let stats = run_day(&fleet, &mut system, &queue, &day, |outcome, _vsd| {
        outcomes.push(outcome)
    })
    .expect("quiet chaos day runs");
    assert_eq!(fingerprint(&system, &outcomes), reference);
    // All five: a server that wrongly reaped an idle refiller would heal
    // through a reconnect or a steal, and only these would tell.
    let degraded = (stats.timeouts, stats.reconnects, stats.stall_steals);
    assert_eq!(
        (degraded, stats.reaped, stats.steals.len()),
        ((0, 0, 0), 0, 0),
        "a healthy day reports no degraded-mode events"
    );
}

/// The stall detector's flagship scenario: a station goes SILENT
/// mid-day — no error, no death, just no progress. No failover path
/// triggers on its own (the connection is healthy-idle, which the
/// reaper deliberately spares); only the coordinator's liveness
/// deadline can declare it lost. The day must heal bit-identically via
/// the chunked steal path, count the loss in `stall_steals`, and join
/// every thread (the hung one included) without hanging the test.
#[test]
fn silently_hung_station_is_stall_detected_and_stolen() {
    let seed64 = 0x57A11u64;
    let seed = [0x7Cu8; 32];
    let queue: Vec<(VoterId, usize)> = (1..=6).map(|v| (VoterId(v), (v % 2) as usize)).collect();
    let reference = sequential_reference(seed64, &seed, 4, &queue);
    let fleet = KioskFleet::new(FleetConfig {
        pool_batch: 2,
        threads: 2,
        seed,
    });
    let pipeline = PipelineConfig {
        stations: 2,
        low_water: 0,
        ingest: IngestMode::Background,
        activation_lag: 1,
    };
    for transport in [TransportPlan::TCP, TransportPlan::SECURE_IN_PROCESS] {
        for after_ops in [0usize, 3] {
            let mut rng = HmacDrbg::from_u64(seed64 ^ 0x91E);
            let mut system = TripSystem::setup(trip_config(6, 4), &mut rng);
            let mut outcomes = Vec::new();
            let day = DayPlan {
                transport,
                pipeline,
                activate: true,
                chaos: Some(ChaosOptions {
                    hang: Some(StationHang {
                        station: 1,
                        after_ops,
                    }),
                    stall_timeout: Some(std::time::Duration::from_millis(400)),
                    ..ChaosOptions::default()
                }),
            };
            let stats = run_day(&fleet, &mut system, &queue, &day, |outcome, _vsd| {
                outcomes.push(outcome)
            })
            .expect("the stall detector must heal a silently hung station");
            assert_eq!(
                fingerprint(&system, &outcomes),
                reference,
                "{transport:?} hang after {after_ops} ops"
            );
            assert!(
                stats.stall_steals >= 1,
                "{transport:?}: the loss must be attributed to the stall detector, got {stats:?}"
            );
        }
    }
}
