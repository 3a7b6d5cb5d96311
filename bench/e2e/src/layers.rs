//! The traced run: per-layer metrics from micro probes, differential
//! registration days, one traced repetition of every workload and the
//! stage-by-stage re-enactment of its opaque phases.
//!
//! A layer is `crate.module`. Each timing is the median of repeated calls
//! into one public function on inputs cut from a workload, in nominal time
//! like every other time (see [`crate::host`]); each count is read from a
//! public return value. End-to-end metrics are never
//! measured here — they come from the untraced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::adapter::{self, Deployment, Engine, Fixture, Link, Storage};
use crate::host::Phase;
use crate::report::{self, Better};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workloads::{self, timed, Gate, Kept, Rep, ScratchDir, Workload};

/// One per-layer metric.
#[derive(Clone, Copy, Debug)]
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
pub const METRICS: &[LayerDef] = &[
    // vg-crypto: the substrate of every rate on every workload.
    lower("vg-crypto.field.mul_ns", "ns"),
    lower("vg-crypto.field.invert_ns", "ns"),
    lower("vg-crypto.scalar.mul_ns", "ns"),
    lower("vg-crypto.scalar.invert_ns", "ns"),
    lower("vg-crypto.edwards.add_ns", "ns"),
    lower("vg-crypto.edwards.double_ns", "ns"),
    lower("vg-crypto.edwards.mul_base_us", "us"),
    lower("vg-crypto.edwards.mul_var_us", "us"),
    lower("vg-crypto.edwards.compress_ns", "ns"),
    lower("vg-crypto.edwards.decompress_ns", "ns"),
    lower("vg-crypto.edwards.batch_compress256_ns_per_pt", "ns/pt"),
    lower("vg-crypto.edwards.msm64_us_per_term", "us/term"),
    lower("vg-crypto.edwards.msm512_us_per_term", "us/term"),
    lower("vg-crypto.edwards.msm4096_us_per_term", "us/term"),
    lower("vg-crypto.sha2.sha256_1k_ns", "ns"),
    lower("vg-crypto.drbg.scalar_ns", "ns"),
    lower("vg-crypto.schnorr.sign_us", "us"),
    lower("vg-crypto.schnorr.verify_us", "us"),
    lower("vg-crypto.schnorr.batch_verify256_us_per_sig", "us/sig"),
    lower("vg-crypto.elgamal.encrypt_us", "us"),
    lower("vg-crypto.chaum_pedersen.prove_us", "us"),
    lower("vg-crypto.chaum_pedersen.forge_us", "us"),
    lower("vg-crypto.chaum_pedersen.verify_us", "us"),
    lower("vg-crypto.batch.fold256_us_per_eq", "us/eq"),
    lower("vg-crypto.dkg.share_us", "us"),
    lower("vg-crypto.dkg.combine_us", "us"),
    lower("vg-crypto.channel.seal_1k_ns", "ns"),
    lower("vg-crypto.channel.open_1k_ns", "ns"),
    // vg-ledger: log/store/ledger everywhere, durable on regday_deploy only.
    lower("vg-ledger.log.append_batch256_ns_per_rec", "ns/rec"),
    lower("vg-ledger.log.append_one_us", "us"),
    lower("vg-ledger.log.tree_head_us", "us"),
    lower("vg-ledger.log.prove_inclusion_us", "us"),
    lower(
        "vg-ledger.store.sharded_append_batch256_ns_per_rec",
        "ns/rec",
    ),
    lower("vg-ledger.ledger.reg_verify_batch256_us_per_rec", "us/rec"),
    lower("vg-ledger.ledger.env_verify_batch256_us_per_rec", "us/rec"),
    lower("vg-ledger.durable.append_batch256_ns_per_rec", "ns/rec"),
    lower("vg-ledger.durable.persist_us", "us"),
    lower("vg-ledger.durable.wal_bytes_per_rec", "bytes/rec"),
    lower("vg-ledger.durable.fsyncs_per_persist", "count"),
    lower("vg-ledger.durable.replay_ns_per_rec", "ns/rec"),
    // vg-trip: the registration rates and the booth session.
    lower("vg-trip.setup.setup_us_per_voter", "us/voter"),
    lower("vg-trip.pool.derive_us_per_session", "us/session"),
    lower("vg-trip.printer.print_batch_us_per_env", "us/env"),
    lower(
        "vg-trip.official.checkout_batch_us_per_session",
        "us/session",
    ),
    lower(
        "vg-trip.official.verify_checkouts_us_per_session",
        "us/session",
    ),
    lower("vg-trip.vsd.client_checks_us_per_cred", "us/cred"),
    lower("vg-trip.vsd.activate_batch_us_per_cred", "us/cred"),
    lower("vg-trip.protocol.register_seeded_us", "us"),
    lower("vg-trip.fleet.local_day_us_per_session", "us/session"),
    // vg-service: probes, then differential days (one setting changed at a time).
    lower("vg-service.wire.encode_checkout_ns", "ns"),
    lower("vg-service.wire.decode_checkout_ns", "ns"),
    lower("vg-service.channel.handshake_us", "us"),
    lower("vg-service.channel.pipe_rtt_us", "us"),
    lower("vg-service.channel.tcp_rtt_us", "us"),
    lower("vg-service.channel.secure_tcp_rtt_us", "us"),
    lower("vg-service.day.barrier_us_per_session", "us/session"),
    lower("vg-service.day.pipelined_us_per_session", "us/session"),
    lower("vg-service.day.tcp_tax_us_per_session", "us/session"),
    lower("vg-service.day.seal_tax_us_per_session", "us/session"),
    lower("vg-service.day.wal_tax_us_per_session", "us/session"),
    lower("vg-service.day.fsync_tax_us_per_session", "us/session"),
    lower("vg-service.day.wal_records_per_session", "count"),
    lower("vg-service.day.wal_fsyncs_per_ksession", "count"),
    // vg-shuffle: the lifecycle rates only.
    lower("vg-shuffle.mixnet.mix_us_per_ct", "us/ct"),
    lower("vg-shuffle.mixnet.mix_pairs_us_per_pair", "us/pair"),
    lower("vg-shuffle.mixnet.verify_batch_us_per_ct", "us/ct"),
    lower(
        "vg-shuffle.mixnet.verify_pairs_batch_us_per_pair",
        "us/pair",
    ),
    lower("vg-shuffle.shuffle.prove_us_per_ct", "us/ct"),
    lower("vg-shuffle.shuffle.verify_us_per_ct", "us/ct"),
    // vg-votegral: cast, tally and verify.
    lower("vg-votegral.ballot.build_us", "us"),
    lower("vg-votegral.ballot.verify_proof_us", "us"),
    lower("vg-votegral.ballot.cast_batch_us_per_ballot", "us/ballot"),
    lower("vg-votegral.tally.admit_us_per_ballot", "us/ballot"),
    lower("vg-votegral.tagging.apply_us_per_ct", "us/ct"),
    lower("vg-votegral.tagging.verify_us_per_ct", "us/ct"),
    lower("vg-votegral.tally.open_us_per_ct", "us/ct"),
    lower("vg-votegral.verifier.open_verify_us_per_ct", "us/ct"),
    lower("vg-votegral.tally.match_count_us_per_ballot", "us/ballot"),
    // The end-to-end phases only one workload has, from one repetition.
    higher("lifecycle.cast_ballots_per_s", "ballots/s"),
    higher("lifecycle.tally_ballots_per_s", "ballots/s"),
    higher("lifecycle.verify_ballots_per_s", "ballots/s"),
    lower("booth.session_ms_p50", "ms"),
    lower("booth.cast_ms_p50", "ms"),
    lower("regday_deploy.reopen_s", "s"),
    lower("regday_deploy.disk_bytes_per_session", "bytes/session"),
    // The budget itself: phase shares of the lifecycle, how much of an
    // opaque phase its re-enactment accounts for, and what tracing costs.
    lower("trace.lifecycle.register_share", "ratio"),
    lower("trace.lifecycle.cast_share", "ratio"),
    lower("trace.lifecycle.tally_share", "ratio"),
    lower("trace.lifecycle.verify_share", "ratio"),
    higher("trace.tally_coverage", "ratio"),
    higher("trace.verify_coverage", "ratio"),
    higher("trace.regday_coverage", "ratio"),
    higher("trace.overhead_ratio", "ratio"),
];

/// One measured per-layer metric.
#[derive(Clone, Copy, Debug)]
pub struct LayerValue {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a traced run produced.
pub struct Suite {
    pub metrics: Vec<LayerValue>,
    pub tracer: Tracer,
    pub gate: Gate,
}

/// Orders `values` as [`METRICS`] lists them; a metric nothing measured
/// reads NaN (`null` in the result) rather than being invented.
fn in_registry_order(values: &BTreeMap<&'static str, f64>) -> Vec<LayerValue> {
    METRICS
        .iter()
        .map(|def| LayerValue {
            name: def.name,
            value: values.get(def.name).copied().unwrap_or(f64::NAN),
            unit: def.unit,
        })
        .collect()
}

pub fn human_table(metrics: &[LayerValue]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "  {:<52} {:>16} unit", "per-layer metric", "value");
    for m in metrics.iter().filter(|m| !m.value.is_nan()) {
        let _ = writeln!(
            out,
            "  {:<52} {:>16} {}",
            m.name,
            report::fmt_short(m.value),
            m.unit
        );
    }
    out
}

// ---------------------------------------------------------------------
// Micro probes
// ---------------------------------------------------------------------

/// Samples behind every probe's median: at least this many however slow
/// one is, at most that many however fast (some probes grow a log).
const MIN_SAMPLES: usize = 3;
const MAX_SAMPLES: usize = 200;

type Values = BTreeMap<&'static str, f64>;

/// Runs every probe for about `budget` in total: one discarded warm-up
/// sample each, then samples until the probe's share is spent.
fn sample_probes(
    t: &mut Tracer,
    fx: &Rc<Fixture>,
    scratch: &ScratchDir,
    budget: Duration,
    into: &mut Values,
) {
    let mut probes = adapter::probes(fx, scratch.path());
    let share = budget / probes.len().max(1) as u32;
    for probe in &mut probes {
        (probe.sample)();
        let (samples, window) = timed(t, probe.name, |_| {
            let start = Instant::now();
            let mut samples = Vec::new();
            while samples.len() < MIN_SAMPLES
                || (start.elapsed() < share && samples.len() < MAX_SAMPLES)
            {
                samples.push((probe.sample)());
            }
            samples
        });
        let median = stats::median(&samples);
        let value = if probe.counts {
            median
        } else {
            median / window.slowdown()
        };
        into.insert(probe.name, value);
    }
}

// ---------------------------------------------------------------------
// Differential days
// ---------------------------------------------------------------------

/// The registration-day queue through `ElectionBuilder` with one setting
/// changed at a time, so each difference is one layer's cost per session.
fn differential_days(t: &mut Tracer, seed: u64, voters: usize, gate: &mut Gate, into: &mut Values) {
    let inputs = workloads::generate(seed, voters);
    let (Ok(a), Ok(b)) = (ScratchDir::new(), ScratchDir::new()) else {
        gate.check(false, || "cannot create a scratch directory".into());
        return;
    };
    let durable = |dir: &ScratchDir, fsync| Storage::Durable {
        dir: dir.path().to_path_buf(),
        fsync,
    };
    let mut reference = None;
    // Nominal microseconds per session of one day, and its WAL counters.
    let mut day = |name, engine, link, storage: Storage| -> (f64, adapter::WalCounters) {
        let mut election = adapter::build(
            &Deployment {
                voters: voters as u64,
                kiosks: 4,
                engine,
                link,
                storage,
            },
            seed,
        );
        let (devices, phase) = timed(t, name, |_| election.register_day(&inputs.queue));
        gate.check(devices.is_ok(), || {
            format!(
                "differential day {name} failed: {:?}",
                devices.as_ref().err()
            )
        });
        // Whatever is changed, the day must reach the same heads.
        let heads = election.heads();
        let same = reference.get_or_insert_with(|| heads.clone()) == &heads;
        gate.check(same, || {
            format!("differential day {name} reached different heads")
        });
        let us_per_session = phase.nominal_s() * 1e6 / voters as f64;
        (us_per_session, election.wal_counters())
    };
    let (barrier, _) = day(
        "day.barrier",
        Engine::Barrier,
        Link::InProcess,
        Storage::Memory,
    );
    let (pipelined, _) = day(
        "day.pipelined",
        Engine::Pipelined,
        Link::InProcess,
        Storage::Memory,
    );
    let (tcp, _) = day("day.tcp", Engine::Pipelined, Link::Tcp, Storage::Memory);
    let (secure, _) = day(
        "day.secure_tcp",
        Engine::Pipelined,
        Link::SecureTcp,
        Storage::Memory,
    );
    let (wal, _) = day(
        "day.wal",
        Engine::Pipelined,
        Link::InProcess,
        durable(&a, false),
    );
    let (synced, counters) = day(
        "day.wal_fsync",
        Engine::Pipelined,
        Link::InProcess,
        durable(&b, true),
    );
    for (name, value) in [
        ("vg-service.day.barrier_us_per_session", barrier),
        ("vg-service.day.pipelined_us_per_session", pipelined),
        ("vg-service.day.tcp_tax_us_per_session", tcp - pipelined),
        ("vg-service.day.seal_tax_us_per_session", secure - tcp),
        ("vg-service.day.wal_tax_us_per_session", wal - pipelined),
        ("vg-service.day.fsync_tax_us_per_session", synced - wal),
        (
            "vg-service.day.wal_records_per_session",
            counters.records as f64 / voters as f64,
        ),
        (
            "vg-service.day.wal_fsyncs_per_ksession",
            counters.fsyncs as f64 * 1e3 / voters as f64,
        ),
    ] {
        into.insert(name, value);
    }
}

// ---------------------------------------------------------------------
// Traced repetitions and re-enactment
// ---------------------------------------------------------------------

/// Self time below the last span named `root`, in seconds.
fn below_s(t: &Tracer, root: &str) -> Option<f64> {
    let root = trace::find_last(t.spans(), root)?;
    Some(trace::descendants_self_ns(t.spans(), root) as f64 / 1e9)
}

/// The phases only one workload has, as per-layer metrics.
fn phase_metrics(w: Workload, rep: &Rep, into: &mut Values) {
    let nominal = |p: &Phase| p.nominal_s();
    let mut samples = workloads::Samples::new();
    workloads::push_samples(&mut samples, w, rep, &nominal);
    let value = |name: &str| samples.get(name).and_then(|v| v.first().copied());
    let p50 = |latencies: &[Phase]| {
        let ms: Vec<f64> = latencies.iter().map(|p| nominal(p) * 1e3).collect();
        stats::percentile(&ms, 50.0)
    };
    let mut put = |name, v: Option<f64>| {
        if let Some(v) = v {
            into.insert(name, v);
        }
    };
    match w {
        Workload::Lifecycle => {
            put("lifecycle.cast_ballots_per_s", value("cast_ballots_per_s"));
            put(
                "lifecycle.tally_ballots_per_s",
                value("tally_ballots_per_s"),
            );
            put(
                "lifecycle.verify_ballots_per_s",
                value("verify_ballots_per_s"),
            );
            let total = rep.total_s(&nominal);
            for (name, phase) in [
                ("trace.lifecycle.register_share", &rep.register),
                ("trace.lifecycle.cast_share", &rep.cast),
                ("trace.lifecycle.tally_share", &rep.tally),
                ("trace.lifecycle.verify_share", &rep.verify),
            ] {
                put(name, phase.as_ref().map(|p| nominal(p) / total));
            }
        }
        Workload::Booth => {
            put("booth.session_ms_p50", p50(&rep.session_ms));
            put("booth.cast_ms_p50", p50(&rep.cast_ms));
        }
        Workload::RegdayDeploy => {
            put("regday_deploy.reopen_s", value("reopen_s"));
            put(
                "regday_deploy.disk_bytes_per_session",
                value("disk_bytes_per_session"),
            );
        }
        Workload::RegdayMem => {}
    }
}

/// How much of an opaque phase its re-enactments account for: the self
/// time below the re-enactments' root spans over the opaque calls' time,
/// both in nominal time, summed over the pairs compared.
#[derive(Default)]
struct Coverage {
    stages_s: f64,
    opaque_s: f64,
}

impl Coverage {
    fn add(&mut self, stages_s: f64, reenacted: Phase, opaque: Phase) {
        self.stages_s += stages_s / reenacted.slowdown();
        self.opaque_s += opaque.nominal_s();
    }

    fn report(&self, name: &'static str, into: &mut Values) {
        if self.opaque_s > 0.0 {
            into.insert(name, self.stages_s / self.opaque_s);
        }
    }
}

/// One re-enactment under root span `root`, next to the `opaque` call it
/// repeats: its result must be `expected`, its stages go into `coverage`.
fn reenact(
    t: &mut Tracer,
    root: &'static str,
    opaque: Option<Phase>,
    expected: &adapter::Outcome,
    gate: &mut Gate,
    coverage: &mut Coverage,
    stages: impl FnOnce(&mut Tracer) -> Result<adapter::Outcome, String>,
) {
    let (outcome, reenacted) = timed(t, root, stages);
    gate.check(outcome.as_ref() == Ok(expected), || {
        format!("{root} returned {outcome:?}, the opaque tally {expected:?}")
    });
    if let (Some(opaque), Some(stages_s)) = (opaque, below_s(t, root)) {
        coverage.add(stages_s, reenacted, opaque);
    }
}

/// Re-enacts the lifecycle's tally and verification on the state its
/// traced repetition ended in, right after it (so that both see the same
/// host), then `pairs - 1` more times next to a further opaque call of
/// each: one pair of single readings is too noisy to say what a
/// re-enactment misses.
fn reenact_lifecycle(
    t: &mut Tracer,
    rep: &Rep,
    pairs: usize,
    counting: &mut adapter::Counting,
    transcript: &adapter::Transcript,
    gate: &mut Gate,
    into: &mut Values,
) {
    let expected = transcript.outcome();
    let (mut tally, mut verify) = (Coverage::default(), Coverage::default());
    for pair in 0..pairs.max(1) {
        let opaque = match pair {
            0 => rep.tally,
            _ => Some(timed(t, "phase.tally.again", |_| counting.tally()).1),
        };
        reenact(
            t,
            "reenact.tally",
            opaque,
            &expected,
            gate,
            &mut tally,
            |t| counting.reenact_tally(t),
        );
        let opaque = match pair {
            0 => rep.verify,
            _ => Some(timed(t, "phase.verify.again", |_| counting.verify(transcript)).1),
        };
        reenact(
            t,
            "reenact.verify",
            opaque,
            &expected,
            gate,
            &mut verify,
            |t| counting.reenact_verify(t, transcript),
        );
    }
    tally.report("trace.tally_coverage", into);
    verify.report("trace.verify_coverage", into);
}

/// The in-memory registration day's stages against its opaque time. The
/// residual is what no public function reaches: the hash-only booth
/// ceremonies, check-in tickets, queueing between stations, ingest
/// workers and the sequencer, and the transport. The pipelined day
/// overlaps stages on two cores, so the serial stage sum can exceed it.
fn reenact_regday(
    t: &mut Tracer,
    seed: u64,
    rep: &Rep,
    queue: &[(u64, usize)],
    devices: &[adapter::Device],
    gate: &mut Gate,
    into: &mut Values,
) {
    let mut fresh = adapter::build(
        &Deployment {
            voters: queue.len() as u64,
            kiosks: 4,
            engine: Engine::Barrier,
            link: Link::InProcess,
            storage: Storage::Memory,
        },
        seed,
    );
    let (staged, reenacted) = timed(t, "reenact.regday", |t| {
        fresh.reenact_regday(t, queue, devices)
    });
    gate.check(staged.is_ok(), || {
        format!("re-enacted registration day failed: {staged:?}")
    });
    // printer.print_detached re-does work pool.derive already contains.
    let printed: u64 = t
        .spans()
        .iter()
        .filter(|s| s.name == "vg-trip.printer.print_detached")
        .map(trace::Span::duration_ns)
        .sum();
    if let (Some(opaque), Some(below)) = (rep.register, below_s(t, "reenact.regday")) {
        let mut coverage = Coverage::default();
        coverage.add(below - printed as f64 / 1e9, reenacted, opaque);
        coverage.report("trace.regday_coverage", into);
    }
}

/// Traced over untraced rate of `w`, from alternating repetitions at a
/// quarter of the voters: at least `pairs`, more while `budget` lasts.
fn overhead_ratio(
    w: Workload,
    seed: u64,
    scale: f64,
    pairs: usize,
    budget: Duration,
    gate: &mut Gate,
) -> f64 {
    let voters = w.voters(scale * 0.25);
    let mut rate = |t: &mut Tracer| {
        let rep = workloads::run_rep(t, w, seed, voters, false);
        let rate = rep.sessions as f64 / rep.total_s(&|p| p.nominal_s());
        gate.absorb(rep.gate);
        rate
    };
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while traced.len() < pairs || (start.elapsed() < budget && traced.len() < 12) {
        untraced.push(rate(&mut Tracer::off()));
        // A tracer of its own: the span file holds one repetition of each
        // workload, not several more of `w`.
        traced.push(rate(&mut Tracer::on()));
    }
    stats::median(&traced) / stats::median(&untraced)
}

/// The probes' fixture: the end states of a lifecycle repetition and of
/// an in-memory registration day.
fn fixture_from(seed: u64, lifecycle: Kept, regday: Kept) -> Option<Rc<Fixture>> {
    match (lifecycle, regday) {
        (
            Kept::Lifecycle {
                counting,
                transcript,
                devices,
            },
            Kept::Regday {
                election,
                devices: sessions,
                ..
            },
        ) => Some(Fixture::new(
            seed, counting, transcript, devices, election, sessions,
        )),
        _ => None,
    }
}

/// The micro probes and the differential days alone (`e2e layers`).
pub fn run_probes(seed: u64, seconds: f64, scale: f64) -> Vec<LayerValue> {
    let mut t = Tracer::off();
    let mut values = Values::new();
    let mut gate = Gate::default();
    let keep =
        |w: Workload| workloads::run_rep(&mut Tracer::off(), w, seed, w.voters(scale), true).kept;
    if let (Some(lifecycle), Some(regday), Ok(scratch)) = (
        keep(Workload::Lifecycle),
        keep(Workload::RegdayMem),
        ScratchDir::new(),
    ) {
        if let Some(fx) = fixture_from(seed, lifecycle, regday) {
            sample_probes(
                &mut t,
                &fx,
                &scratch,
                Duration::from_secs_f64(seconds * 0.5),
                &mut values,
            );
        }
    }
    differential_days(
        &mut t,
        seed,
        Workload::RegdayMem.voters(scale * 0.5),
        &mut gate,
        &mut values,
    );
    in_registry_order(&values)
}

/// Pairs of opaque call and re-enactment behind the coverages, unless
/// `--reps` asks for more.
pub const COVERAGE_PAIRS: usize = 2;

/// The whole traced run for `--workload w`: a traced repetition of every
/// workload (each has phases the others lack), the re-enactments (`pairs`
/// of them for the tally and the verification), the probes, the
/// differential days, and `w`'s tracing overhead.
pub fn run_suite(w: Workload, seed: u64, seconds: f64, scale: f64, pairs: usize) -> Suite {
    let mut t = Tracer::on();
    let mut gate = Gate::default();
    let mut values = Values::new();

    let mut kept = BTreeMap::new();
    let mut heads = BTreeMap::new();
    for (i, each) in Workload::ALL.into_iter().enumerate() {
        t.set_rep(i as u32);
        let mut rep = workloads::run_rep(&mut t, each, seed, each.voters(scale), true);
        phase_metrics(each, &rep, &mut values);
        gate.absorb(std::mem::take(&mut rep.gate));
        heads.insert(each, rep.heads.take());
        // Re-enact a phase right after the opaque call it is compared
        // with, while the host is still in the mood it was in.
        let mut state = rep.kept.take();
        match state.as_mut() {
            Some(Kept::Lifecycle {
                counting,
                transcript,
                ..
            }) => reenact_lifecycle(
                &mut t,
                &rep,
                pairs,
                counting,
                transcript,
                &mut gate,
                &mut values,
            ),
            Some(Kept::Regday { queue, devices, .. }) => {
                reenact_regday(&mut t, seed, &rep, queue, devices, &mut gate, &mut values)
            }
            None => {}
        }
        if let Some(state) = state {
            kept.insert(each, state);
        }
    }
    let same_heads = heads[&Workload::RegdayMem].is_some()
        && heads[&Workload::RegdayMem] == heads[&Workload::RegdayDeploy];
    gate.check(same_heads, || {
        "regday_deploy heads differ from regday_mem's".into()
    });
    t.set_rep(Workload::ALL.len() as u32);

    let fixture = match (
        kept.remove(&Workload::Lifecycle),
        kept.remove(&Workload::RegdayMem),
    ) {
        (Some(lifecycle), Some(regday)) => fixture_from(seed, lifecycle, regday),
        _ => None,
    };
    match (fixture, ScratchDir::new()) {
        (Some(fx), Ok(scratch)) => sample_probes(
            &mut t,
            &fx,
            &scratch,
            Duration::from_secs_f64(seconds * 0.3),
            &mut values,
        ),
        _ => gate.check(false, || {
            "no fixture for the probes: a traced repetition failed".into()
        }),
    }
    differential_days(
        &mut t,
        seed,
        Workload::RegdayMem.voters(scale * 0.5),
        &mut gate,
        &mut values,
    );
    let overhead = overhead_ratio(
        w,
        seed,
        scale,
        pairs.max(3),
        Duration::from_secs_f64(seconds * 0.25),
        &mut gate,
    );
    values.insert("trace.overhead_ratio", overhead);

    let metrics = in_registry_order(&values);
    let missing: Vec<&str> = metrics
        .iter()
        .filter(|m| m.value.is_nan())
        .map(|m| m.name)
        .collect();
    gate.check(missing.is_empty(), || {
        format!("per-layer metrics without a value: {missing:?}")
    });
    Suite {
        metrics,
        tracer: t,
        gate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_names_and_units_fit_the_contract_and_are_unique() {
        assert!(METRICS.len() <= 128, "{}", METRICS.len());
        let mut seen = std::collections::BTreeSet::new();
        for m in METRICS {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(
                m.name.len() <= 64
                    && m.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
            assert!(m
                .name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.unit);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
            assert!(
                report::metric(m.name).is_none(),
                "{} is also an end-to-end name",
                m.name
            );
        }
    }

    #[test]
    fn unmeasured_metrics_read_nan_not_zero() {
        let mut values = BTreeMap::new();
        values.insert("vg-crypto.field.mul_ns", 12.5);
        let listed = in_registry_order(&values);
        assert_eq!(listed.len(), METRICS.len());
        assert_eq!(listed[0].value, 12.5);
        assert!(listed[1].value.is_nan());
    }
}
