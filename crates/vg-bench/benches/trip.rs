//! Benchmarks for the TRIP registration phases (the crypto-path costs
//! behind Fig 4's "Crypto & Logic" component and Fig 5a's registration
//! column).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vg_crypto::HmacDrbg;
use vg_ledger::VoterId;
use vg_trip::protocol::{activate_all, register_voter};
use vg_trip::setup::{TripConfig, TripSystem};

fn bench_group(c: &mut Criterion) {
    c.bench_function("trip/setup_16_voters", |b| {
        b.iter(|| {
            let mut rng = HmacDrbg::from_u64(1);
            black_box(TripSystem::setup(TripConfig::with_voters(16), &mut rng))
        })
    });

    c.bench_function("trip/register_one_voter", |b| {
        // Fresh system pool so envelopes never run out mid-measurement.
        let mut rng = HmacDrbg::from_u64(2);
        b.iter_batched(
            || TripSystem::setup(TripConfig::with_voters(1), &mut HmacDrbg::from_u64(3)),
            |mut system| {
                let outcome =
                    register_voter(&mut system, VoterId(1), 1, &mut rng).expect("registers");
                black_box(outcome)
            },
            criterion::BatchSize::SmallInput,
        )
    });

    c.bench_function("trip/register_and_activate", |b| {
        let mut rng = HmacDrbg::from_u64(4);
        b.iter_batched(
            || TripSystem::setup(TripConfig::with_voters(1), &mut HmacDrbg::from_u64(5)),
            |mut system| {
                let mut outcome =
                    register_voter(&mut system, VoterId(1), 1, &mut rng).expect("registers");
                let vsd = activate_all(&mut system, &mut outcome).expect("activates");
                black_box(vsd.credentials.len())
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_group);
criterion_main!(benches);
