//! Workspace-level properties of the kiosk-fleet registration engine:
//! outcome equivalence with the sequential reference under arbitrary
//! fleet shapes, fakes-policy preservation through the election facade,
//! adversarial kiosk detection inside a fleet, and an absolute pin on one
//! seeded day.

use proptest::prelude::*;
use votegral::crypto::sha2::sha256;
use votegral::crypto::HmacDrbg;
use votegral::ledger::VoterId;
use votegral::service::{run_day, DayPlan, PipelineConfig, Wire};
use votegral::trip::fleet::{FleetConfig, KioskFleet};
use votegral::trip::kiosk::KioskBehavior;
use votegral::trip::protocol::{
    activate_all, register_voter, register_voter_seeded, trace_shows_honest_real_flow,
};
use votegral::trip::setup::{TripConfig, TripSystem};
use votegral::votegral::{ElectionBuilder, FakesPolicy};

fn trip_config(n_voters: u64, n_kiosks: usize) -> TripConfig {
    TripConfig {
        n_voters,
        n_kiosks,
        ..TripConfig::default()
    }
}

/// Everything observable about a finished registration run: ledger tree
/// heads, active-roll size, and per-credential identifying bytes in queue
/// order.
fn run_fingerprint(
    system: &TripSystem,
    outcomes: &[votegral::trip::protocol::RegistrationOutcome],
) -> (Vec<u8>, Vec<u8>, usize, Vec<Vec<u8>>) {
    let creds = outcomes
        .iter()
        .flat_map(|o| o.all_credentials())
        .map(|c| {
            let mut bytes = c.receipt.commit_qr.kiosk_sig.to_bytes().to_vec();
            bytes.extend_from_slice(&c.receipt.checkout_qr.kiosk_sig.to_bytes());
            bytes.extend_from_slice(&c.receipt.response_qr.credential_sk.to_bytes());
            bytes.extend_from_slice(&c.envelope.challenge.to_bytes());
            bytes.push(c.envelope.symbol.tag());
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any (kiosks, pool batch, thread count, seed, queue shape), a
    /// fleet run is bit-identical — same ledgers, same credentials, same
    /// fakes policy — to the sequential `register_voter_seeded` loop over
    /// the same queue, and every credential it minted activates.
    #[test]
    fn fleet_equivalent_to_sequential_for_any_shape(
        seed64 in any::<u64>(),
        n_kiosks in 1usize..5,
        pool_batch in 1usize..7,
        threads in 1usize..5,
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

        // Sequential reference: one voter at a time through the seeded
        // booth path.
        let mut rng = HmacDrbg::from_u64(seed64 ^ 0xF1EE7);
        let mut seq_system = TripSystem::setup(trip_config(n_voters, n_kiosks), &mut rng);
        let mut seq_outcomes = Vec::new();
        for (i, &(voter, fakes)) in queue.iter().enumerate() {
            seq_outcomes.push(
                register_voter_seeded(&mut seq_system, voter, fakes, &seed, i)
                    .expect("sequential seeded registration"),
            );
        }

        // Fleet over the same deterministic setup with an arbitrary
        // (pool, threads) shape.
        let mut rng = HmacDrbg::from_u64(seed64 ^ 0xF1EE7);
        let mut fleet_system = TripSystem::setup(trip_config(n_voters, n_kiosks), &mut rng);
        let fleet = KioskFleet::new(FleetConfig { pool_batch, threads, seed });
        let fleet_outcomes = fleet
            .register(&mut fleet_system, &queue)
            .expect("fleet registration");

        prop_assert_eq!(
            run_fingerprint(&seq_system, &seq_outcomes),
            run_fingerprint(&fleet_system, &fleet_outcomes)
        );
        // Fakes policy preserved session by session.
        for (outcome, &(_, fakes)) in fleet_outcomes.iter().zip(queue.iter()) {
            prop_assert_eq!(outcome.fakes.len(), fakes);
            prop_assert!(trace_shows_honest_real_flow(&outcome.events));
        }

        // Every credential the fleet minted activates on a device (the
        // full Fig 11 check set), and so do the sequential ones.
        for outcome in &mut seq_outcomes {
            let vsd = activate_all(&mut seq_system, outcome).expect("activates");
            prop_assert_eq!(vsd.credentials.len(), 1 + outcome.fakes.len());
        }
    }

    /// The classic rng-driven `register_voter` path and the fleet agree on
    /// every ledger-observable outcome (roll size, credentials per voter,
    /// honest traces) even though their randomness differs.
    #[test]
    fn fleet_outcome_equivalent_to_classic_register_voter(
        seed64 in any::<u64>(),
        fake_counts in proptest::collection::vec(0usize..3, 4),
    ) {
        let n_voters = fake_counts.len() as u64;
        let queue: Vec<(VoterId, usize)> = fake_counts
            .iter()
            .enumerate()
            .map(|(i, &f)| (VoterId(i as u64 + 1), f))
            .collect();

        let mut rng = HmacDrbg::from_u64(seed64);
        let mut classic = TripSystem::setup(trip_config(n_voters, 1), &mut rng);
        let mut classic_outcomes = Vec::new();
        for &(voter, fakes) in &queue {
            classic_outcomes
                .push(register_voter(&mut classic, voter, fakes, &mut rng).expect("classic"));
        }

        let mut rng = HmacDrbg::from_u64(seed64);
        let mut fleet_system = TripSystem::setup(trip_config(n_voters, 1), &mut rng);
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&seed64.to_le_bytes());
        let fleet = KioskFleet::new(FleetConfig::seeded(seed));
        let fleet_outcomes = fleet.register(&mut fleet_system, &queue).expect("fleet");

        prop_assert_eq!(
            classic.ledger.registration.active_count(),
            fleet_system.ledger.registration.active_count()
        );
        for (a, b) in classic_outcomes.iter().zip(fleet_outcomes.iter()) {
            prop_assert_eq!(a.fakes.len(), b.fakes.len());
            prop_assert_eq!(
                a.believed_real.receipt.checkout_qr.voter_id,
                b.believed_real.receipt.checkout_qr.voter_id
            );
            prop_assert_eq!(
                trace_shows_honest_real_flow(&a.events),
                trace_shows_honest_real_flow(&b.events)
            );
            // All of one voter's credentials share the same public tag on
            // both paths.
            for cred in b.all_credentials() {
                prop_assert_eq!(
                    cred.receipt.checkout_qr.c_pc,
                    b.believed_real.receipt.checkout_qr.c_pc
                );
            }
        }
    }
}

/// A compromised kiosk hiding inside an otherwise honest fleet is still
/// caught by the existing detection path: its sessions' traces show the
/// envelope-first tell, and its stolen keys land in the adversary's loot.
#[test]
fn malicious_kiosk_in_fleet_detected_by_trace_and_loot() {
    let mut rng = HmacDrbg::from_u64(99);
    let mut system = TripSystem::setup_with_behavior(
        trip_config(6, 3),
        KioskBehavior::StealsRealCredential,
        &mut rng,
    );
    // Make kiosks 0 and 2 honest again by replacing them: only kiosk 1
    // steals. (Kiosk identity lives in the registry, so rebuild it.)
    let mac = *system.officials[0].mac_key();
    let apk = system.authority.public_key;
    system.kiosks[0] = votegral::trip::kiosk::Kiosk::new(mac, apk, KioskBehavior::Honest, &mut rng);
    system.kiosks[2] = votegral::trip::kiosk::Kiosk::new(mac, apk, KioskBehavior::Honest, &mut rng);
    system.kiosk_registry = system.kiosks.iter().map(|k| k.public_key()).collect();

    let queue: Vec<(VoterId, usize)> = (1..=6).map(|v| (VoterId(v), 1)).collect();
    let fleet = KioskFleet::new(FleetConfig::seeded([42u8; 32]));
    let sessions = fleet
        .register_and_activate(&mut system, &queue)
        .expect("fleet registers");

    // Sessions 1 and 4 (0-indexed) hit kiosk 1: exactly those traces are
    // dishonest, and exactly those voters' keys were stolen.
    let dishonest: Vec<usize> = sessions
        .iter()
        .enumerate()
        .filter(|(_, (o, _))| !trace_shows_honest_real_flow(&o.events))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(dishonest, vec![1, 4]);
    let looted: Vec<u64> = system.adversary_loot.iter().map(|s| s.voter_id.0).collect();
    assert_eq!(looted, vec![2, 5]);
    // The forged credentials still pass every cryptographic activation
    // check — the booth ordering is the only tell (§4.3/§7.5).
    for (_, vsd) in &sessions {
        assert_eq!(vsd.credentials.len(), 2);
    }
}

/// The election facade's fleet-backed `register_batch` preserves the
/// configured fakes policy and interoperates with voting and tallying.
#[test]
fn election_fleet_batch_preserves_fakes_policy() {
    let mut rng = HmacDrbg::from_u64(7);
    let mut election = ElectionBuilder::new()
        .voters(4)
        .options(2)
        .kiosks(2)
        .fakes(FakesPolicy::Cycling(3))
        .build(&mut rng);
    let voters: Vec<VoterId> = (1..=4).map(VoterId).collect();
    let sessions = election
        .register_batch(&voters, &mut rng)
        .expect("registers");
    for (voter, (outcome, vsd)) in voters.iter().zip(sessions.iter()) {
        let expected = (voter.0 % 3) as usize;
        assert_eq!(outcome.fakes.len(), expected, "voter {voter:?}");
        assert_eq!(vsd.credentials.len(), 1 + expected);
    }
    let mut voting = election.open_voting();
    for (_, vsd) in &sessions {
        voting
            .cast(&vsd.credentials[0], 1, &mut rng)
            .expect("casts");
    }
    let tallying = voting.close();
    let transcript = tallying.tally(&mut rng).expect("tallies");
    assert_eq!(transcript.result.counts, vec![0, 4]);
    tallying.verify(&transcript).expect("verifies");
}

/// Digest of every credential a day minted, in queue order: each
/// receipt's three QRs, its symbol and its envelope, as their wire bytes.
fn credentials_digest(outcomes: &[votegral::trip::protocol::RegistrationOutcome]) -> String {
    let mut bytes = Vec::new();
    for c in outcomes.iter().flat_map(|o| o.all_credentials()) {
        c.receipt.commit_qr.encode(&mut bytes);
        c.receipt.checkout_qr.encode(&mut bytes);
        c.receipt.response_qr.encode(&mut bytes);
        c.receipt.symbol.encode(&mut bytes);
        c.envelope.encode(&mut bytes);
    }
    hex(&sha256(&bytes))
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// An absolute pin on one seeded 64-voter registration day: L_R's and
/// L_E's roots and the digest of every credential's bytes, on the inline
/// engine and on the threaded one (two in-process stations). The
/// equivalence suites compare engines with each other and with
/// `register_voter_seeded`, which would all move together; these values
/// were recorded before compression learned the Z = 1 shortcut and the
/// printers signed in batches, so a moved byte anywhere in derivation,
/// printing or admission fails here.
#[test]
fn seeded_day_matches_its_recorded_pin() {
    const L_R: &str = "bf4703c9b3cc020b72f77cda7128bf197e2a372cf6c886b9c5796aa39cc87011";
    const L_E: &str = "1b401a8ee973b65563e796f52c86edcd25df76d5757b5b29d7a9efb3b6979eb1";
    const CREDENTIALS: &str = "79aa10b41107685c34765c8fa4cd879cab88bab74db2eecace2e5cc0db038176";
    let queue: Vec<(VoterId, usize)> = (1..=64).map(|v| (VoterId(v), (v % 3) as usize)).collect();
    let threaded = DayPlan {
        pipeline: PipelineConfig {
            stations: 2,
            ..PipelineConfig::default()
        },
        ..DayPlan::default()
    };
    for (engine, plan) in [("inline", DayPlan::default()), ("threaded", threaded)] {
        let mut rng = HmacDrbg::from_u64(0x05EE_DDA7);
        let mut system = TripSystem::setup(trip_config(64, 4), &mut rng);
        let fleet = KioskFleet::new(FleetConfig {
            pool_batch: 16,
            threads: 2,
            seed: [0x64u8; 32],
        });
        let mut outcomes = Vec::new();
        run_day(&fleet, &mut system, &queue, &plan, |o, _| outcomes.push(o)).expect("day runs");
        let pin = (
            hex(&system.ledger.registration.tree_head().root),
            hex(&system.ledger.envelopes.tree_head().root),
            credentials_digest(&outcomes),
        );
        assert_eq!(
            pin,
            (L_R.into(), L_E.into(), CREDENTIALS.into()),
            "{engine}"
        );
    }
}
