//! A full registration day — check-in, in-booth ceremonies, check-out,
//! activation — run three times from the same seed: in-process, over a
//! plaintext TCP loopback socket, and over TCP secured by the mutually
//! authenticated encrypted channel. The resulting signed ledger tree
//! heads are **bit-identical**, which is the service layer's
//! equivalence contract.
//!
//! Run with: `cargo run --example service_day --release`

use votegral::crypto::HmacDrbg;
use votegral::ledger::VoterId;
use votegral::service::{run_day, DayPlan, TransportPlan};
use votegral::trip::fleet::{FleetConfig, KioskFleet};
use votegral::trip::setup::{TripConfig, TripSystem};

fn main() {
    let seed = [42u8; 32];
    let queue: Vec<(VoterId, usize)> = (1..=24).map(|v| (VoterId(v), (v % 3) as usize)).collect();
    let fleet = KioskFleet::new(FleetConfig {
        pool_batch: 8,
        threads: 2,
        seed,
    });
    let config = TripConfig {
        n_voters: 24,
        n_kiosks: 3,
        ..TripConfig::default()
    };

    println!("== Registration day over typed registrar services ==");
    println!("24 voters, 3 kiosks, pool windows of 8, 2 worker threads.\n");

    let mut heads = Vec::new();
    for transport in [
        TransportPlan::IN_PROCESS,
        TransportPlan::TCP,
        TransportPlan::SECURE_TCP,
    ] {
        // Identical deterministic setup for every run.
        let mut rng = HmacDrbg::from_u64(7);
        let mut system = TripSystem::setup(config.clone(), &mut rng);

        let mut sessions = 0usize;
        let mut credentials = 0usize;
        // One entry point for every plan: the in-process day runs inline
        // on the local boundary, the TCP days on the threaded engine
        // behind the gateway.
        let day = DayPlan {
            transport,
            activate: true,
            ..DayPlan::default()
        };
        run_day(&fleet, &mut system, &queue, &day, |_, vsd| {
            sessions += 1;
            credentials += vsd.credentials.len();
        })
        .expect("registration day runs");

        let reg = system.ledger.registration.tree_head();
        let env = system.ledger.envelopes.tree_head();
        println!("{transport:?}:");
        println!("  sessions registered+activated: {sessions}");
        println!("  credentials on devices:        {credentials}");
        println!("  L_R head: size {} root {}", reg.size, hex(&reg.root[..8]));
        println!("  L_E head: size {} root {}", env.size, hex(&env.root[..8]));
        reg.verify(&system.ledger.registration.operator_key())
            .expect("signed head verifies");
        heads.push((reg.root, env.root, reg.size, env.size));
    }

    assert_eq!(
        heads[0], heads[1],
        "TCP and in-process ledgers must be bit-identical"
    );
    assert_eq!(
        heads[0], heads[2],
        "secure-channel ledgers must be bit-identical too"
    );
    println!("\nAll three transports produced bit-identical signed ledger heads.");
    println!("The registrar can move off-box — and under encryption — without");
    println!("changing a single ledger byte.");
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
