//! Ablation studies of the four design choices listed below.
//!
//! `cargo run -p vg-bench --release --bin ablations`
//!
//! 1. **Mixer count** — the paper fixes 4 mixers; tally cost scales
//!    linearly with the cascade length, quantifying the privacy/latency
//!    trade-off.
//! 2. **Multi-scalar multiplication** — Pippenger buckets vs naive
//!    per-point multiplication, the engine behind shuffle verification.
//! 3. **Envelope supply (n_E)** — the verifiability bound of Theorem §5.1
//!    against booth stock and the fake-credential distribution: more
//!    envelopes don't help the adversary; more *fakes* hurt them.
//! 4. **Parallel transcript verification** — thread scaling of the
//!    decryption-opening checks (the paper's tally host had 128 cores).

use std::time::Instant;

use vg_bench::print_table;
use vg_crypto::elgamal::{encrypt_point, ElGamalKeyPair};
use vg_crypto::par::par_map;
use vg_crypto::{multiscalar_mul, EdwardsPoint, HmacDrbg, Rng, Scalar};
use vg_sim::ivbound::adversary_bound;
use vg_sim::FakeCredentialDist;

fn main() {
    mixer_count();
    msm();
    envelope_supply();
    parallel_verification();
}

fn mixer_count() {
    println!("\n[1] Mixer-count ablation (tally mix of 64 ciphertexts)\n");
    let mut rng = HmacDrbg::from_u64(1);
    let kp = ElGamalKeyPair::generate(&mut rng);
    let inputs: Vec<_> = (0..64u64)
        .map(|i| {
            encrypt_point(
                &kp.pk,
                &EdwardsPoint::mul_base(&Scalar::from_u64(i + 1)),
                &mut rng,
            )
            .0
        })
        .collect();
    let mut rows = Vec::new();
    for mixers in [1usize, 2, 4, 8] {
        let cascade = vg_shuffle::MixCascade::new(64, mixers);
        let t0 = Instant::now();
        let transcript = cascade.mix(&kp.pk, &inputs, &mut rng);
        let mix_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        cascade.verify(&kp.pk, &transcript).expect("verifies");
        let verify_ms = t0.elapsed().as_secs_f64() * 1e3;
        rows.push(vec![
            format!("{mixers}"),
            format!("{mix_ms:.1}"),
            format!("{verify_ms:.1}"),
            if mixers == 4 {
                "paper's choice".into()
            } else {
                String::new()
            },
        ]);
    }
    print_table(&["Mixers", "Mix ms", "Verify ms", ""], &rows);
    println!("Privacy holds if ANY mixer is honest; cost is linear in the cascade.");
}

fn msm() {
    println!("\n[2] Multi-scalar multiplication: Pippenger vs naive\n");
    let mut rng = HmacDrbg::from_u64(2);
    let mut rows = Vec::new();
    for n in [32usize, 128, 512] {
        let scalars: Vec<Scalar> = (0..n).map(|_| rng.scalar()).collect();
        let points: Vec<EdwardsPoint> = (0..n)
            .map(|_| EdwardsPoint::mul_base(&rng.scalar()))
            .collect();
        let t0 = Instant::now();
        let fast = multiscalar_mul(&scalars, &points);
        let pip_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let naive: EdwardsPoint = scalars.iter().zip(points.iter()).map(|(s, p)| *p * s).sum();
        let naive_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(fast, naive, "implementations agree");
        rows.push(vec![
            format!("{n}"),
            format!("{pip_ms:.2}"),
            format!("{naive_ms:.2}"),
            format!("{:.1}x", naive_ms / pip_ms.max(1e-9)),
        ]);
    }
    print_table(&["n", "Pippenger ms", "Naive ms", "Speedup"], &rows);
}

fn envelope_supply() {
    println!("\n[3] Envelope supply vs the IV bound (Theorem §5.1)\n");
    let dists = [
        ("no fakes", FakeCredentialDist { p: 1.0, max: 0 }),
        ("default", FakeCredentialDist::default()),
        ("diligent", FakeCredentialDist { p: 0.25, max: 5 }),
    ];
    let mut rows = Vec::new();
    for n_e in [8usize, 32, 128, 512] {
        let mut row = vec![format!("{n_e}")];
        for (_, dist) in &dists {
            let (_, p) = adversary_bound(n_e, dist);
            row.push(format!("{p:.4}"));
        }
        rows.push(row);
    }
    print_table(&["n_E", "no fakes", "default D_c", "diligent D_c"], &rows);
    println!(
        "Reading: the supply size barely moves the bound — the λ_E floor exists\n\
         to hide the booth count from coerced voters (Appendix F.1), while the\n\
         bound itself is governed by P(no fakes). Fake credentials ARE the\n\
         verifiability defence."
    );
}

fn parallel_verification() {
    println!("\n[4] Parallel opening verification (thread scaling)\n");
    let mut rng = HmacDrbg::from_u64(3);
    // Simulate the hot loop: per-item Schnorr-style verifications.
    let items: Vec<Scalar> = (0..512).map(|_| rng.scalar()).collect();
    let base = EdwardsPoint::basepoint();
    let mut rows = Vec::new();
    let mut reference = None;
    for threads in [1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let out = par_map(&items, threads, |s| (base * *s).compress());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(*r, out, "parallelism must not change results"),
        }
        rows.push(vec![format!("{threads}"), format!("{ms:.1}")]);
    }
    print_table(&["Threads", "512 exps ms"], &rows);
}
