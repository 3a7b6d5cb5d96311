//! Micro-benchmarks for the cryptographic substrate: the primitive costs
//! underlying every phase latency in the paper's evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vg_crypto::chaum_pedersen::{forge_transcript, prove_dleq, verify_dleq, DlEqStatement, Prover};
use vg_crypto::edwards::FixedBaseTable;
use vg_crypto::elgamal::{decrypt, encrypt_point, ElGamalKeyPair};
use vg_crypto::field::FieldElement;
use vg_crypto::schnorr::SigningKey;
use vg_crypto::sha2::sha256;
use vg_crypto::{multiscalar_mul, EdwardsPoint, HmacDrbg, Rng, Scalar, Transcript};

/// The curve kernel by itself (ROADMAP item 2d): the in-repo before/after
/// for field, point and multi-scalar work that does not need the lifecycle
/// harness. The harness times one call per sample, so the nanosecond-scale
/// rows chain 1000 dependent operations per call (read them as ps/op).
fn bench_kernel(c: &mut Criterion) {
    let mut rng = HmacDrbg::from_u64(2);
    let field = |rng: &mut HmacDrbg| FieldElement::from_bytes(&rng.bytes32());
    let point = |rng: &mut HmacDrbg| EdwardsPoint::mul_base(&rng.scalar());

    c.bench_function("field/mul x1000", |b| {
        let (mut x, y) = (field(&mut rng), field(&mut rng));
        b.iter(|| {
            for _ in 0..1000 {
                x = black_box(x) * y;
            }
            x
        })
    });
    c.bench_function("field/square x1000", |b| {
        let mut x = field(&mut rng);
        b.iter(|| {
            for _ in 0..1000 {
                x = black_box(x).square();
            }
            x
        })
    });
    c.bench_function("edwards/add x1000", |b| {
        let (mut p, q) = (point(&mut rng), point(&mut rng));
        b.iter(|| {
            for _ in 0..1000 {
                p = black_box(p) + q;
            }
            p
        })
    });
    c.bench_function("edwards/double x1000", |b| {
        let mut p = point(&mut rng);
        b.iter(|| {
            for _ in 0..1000 {
                p = black_box(p).double();
            }
            p
        })
    });
    c.bench_function("edwards/fixed_base_table_new", |b| {
        let p = point(&mut rng);
        b.iter(|| black_box(FixedBaseTable::new(black_box(&p))))
    });
    c.bench_function("edwards/fixed_base_table_mul", |b| {
        let table = FixedBaseTable::new(&point(&mut rng));
        let s = rng.scalar();
        b.iter(|| black_box(table.mul(black_box(&s))))
    });

    // `edwards/msm/{64,512,4096}` plus the sizes around the
    // Straus↔Pippenger crossover, through the dispatching entry point (the
    // sweep of the two algorithms side by side, which placed the constant,
    // is `cargo test --release -p vg-crypto crossover_sweep -- --ignored
    // --nocapture`: they are private to the crate).
    let points: Vec<EdwardsPoint> = (0..4096).map(|_| point(&mut rng)).collect();
    let scalars: Vec<Scalar> = (0..4096).map(|_| rng.scalar()).collect();
    let mut group = c.benchmark_group("edwards/msm");
    for n in [4usize, 8, 16, 32, 64, 128, 256, 512, 4096] {
        group.bench_function(&n.to_string(), |b| {
            b.iter(|| black_box(multiscalar_mul(&scalars[..n], &points[..n])))
        });
    }
    group.finish();
}

fn bench_group(c: &mut Criterion) {
    let mut rng = HmacDrbg::from_u64(1);

    c.bench_function("field/scalar_mul_base", |b| {
        let s = rng.scalar();
        b.iter(|| black_box(EdwardsPoint::mul_base(black_box(&s))))
    });

    c.bench_function("field/scalar_mul_variable", |b| {
        let s = rng.scalar();
        let p = EdwardsPoint::mul_base(&rng.scalar());
        b.iter(|| black_box(black_box(p) * black_box(s)))
    });

    c.bench_function("field/point_compress_decompress", |b| {
        let p = EdwardsPoint::mul_base(&rng.scalar());
        b.iter(|| {
            let c = black_box(p).compress();
            black_box(c.decompress().expect("valid"))
        })
    });

    c.bench_function("scalar/mul", |b| {
        let (x, y) = (rng.scalar(), rng.scalar());
        b.iter(|| black_box(black_box(x) * black_box(y)))
    });

    c.bench_function("scalar/invert", |b| {
        let x = rng.scalar();
        b.iter(|| black_box(black_box(x).invert()))
    });

    c.bench_function("hash/sha256_1k", |b| {
        let data = vec![0xabu8; 1024];
        b.iter(|| black_box(sha256(black_box(&data))))
    });

    c.bench_function("schnorr/sign", |b| {
        let key = SigningKey::generate(&mut rng);
        b.iter(|| black_box(key.sign(b"benchmark message")))
    });

    c.bench_function("schnorr/verify", |b| {
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"benchmark message");
        let vk = key.verifying_key();
        b.iter(|| {
            vk.verify(b"benchmark message", black_box(&sig))
                .expect("ok")
        })
    });

    c.bench_function("elgamal/encrypt", |b| {
        let kp = ElGamalKeyPair::generate(&mut rng);
        let m = EdwardsPoint::mul_base(&Scalar::from_u64(5));
        b.iter(|| black_box(encrypt_point(&kp.pk, &m, &mut rng)))
    });

    c.bench_function("elgamal/decrypt", |b| {
        let kp = ElGamalKeyPair::generate(&mut rng);
        let m = EdwardsPoint::mul_base(&Scalar::from_u64(5));
        let (ct, _) = encrypt_point(&kp.pk, &m, &mut rng);
        b.iter(|| black_box(decrypt(&kp.sk, black_box(&ct))))
    });

    // The IZKP at the heart of TRIP: sound proof vs forged transcript —
    // the fake path must not be observably cheaper or dearer by orders.
    let x = rng.scalar();
    let g2 = EdwardsPoint::mul_base(&rng.scalar());
    let stmt = DlEqStatement {
        g1: EdwardsPoint::basepoint(),
        y1: EdwardsPoint::mul_base(&x),
        g2,
        y2: g2 * x,
    };
    c.bench_function("izkp/sound_prove", |b| {
        b.iter(|| {
            let prover = Prover::commit(&stmt, &mut rng);
            let e = rng.scalar();
            black_box(prover.respond(&x, &e))
        })
    });
    c.bench_function("izkp/forge", |b| {
        b.iter(|| {
            let e = rng.scalar();
            black_box(forge_transcript(&stmt, &e, &mut rng))
        })
    });
    c.bench_function("izkp/nizk_prove_verify", |b| {
        b.iter(|| {
            let proof = prove_dleq(&mut Transcript::new(b"bench"), &stmt, &x, &mut rng);
            verify_dleq(&mut Transcript::new(b"bench"), &stmt, &proof).expect("ok")
        })
    });
}

criterion_group!(benches, bench_kernel, bench_group);
criterion_main!(benches);
