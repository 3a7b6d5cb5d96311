//! The four end-to-end workloads: input generation from the seed, one
//! repetition of each shape with its correctness gate, and the
//! repetition loop.
//!
//! The load generator is this one thread. Every repetition rebuilds the
//! election from scratch with the same seed, so repetitions of one run do
//! identical work and must reach identical ledger heads.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::adapter::{self, Deployment, Device, Engine, Heads, Link, Pick, Storage, OPTIONS};
use crate::host::{self, Phase};
use crate::stats;
use crate::trace::Tracer;

/// The workloads, in the order they are listed everywhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    Lifecycle,
    RegdayMem,
    RegdayDeploy,
    Booth,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Lifecycle,
        Workload::RegdayMem,
        Workload::RegdayDeploy,
        Workload::Booth,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Lifecycle => "lifecycle",
            Workload::RegdayMem => "regday_mem",
            Workload::RegdayDeploy => "regday_deploy",
            Workload::Booth => "booth",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line, also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Lifecycle => "whole election on builder defaults; ~95% of it is tally+verify, so mixing, tagging and threshold opening carry it and registration is under 3%",
            Workload::RegdayMem => "pipelined registration+activation day in memory: derivation, RLC folds and Merkle appends carry it; WAL, codec and handshake work predicts no change",
            Workload::RegdayDeploy => "the same queue over secure TCP on a durable fsynced ledger, then reopened: sequencer/persist barrier, WAL, codec and channel work shows only here",
            Workload::Booth => "closed loop of single-session and single-cast calls: batch of one bypasses pooling and fold amortisation, so per-call fixed costs show only here",
        }
    }

    /// Voters of one repetition at scale 1.
    fn base_voters(self) -> usize {
        match self {
            Workload::Lifecycle => 100,
            Workload::RegdayMem | Workload::RegdayDeploy => 2048,
            Workload::Booth => 600,
        }
    }

    /// Voters of one repetition at `scale`; never fewer than a median of
    /// booth latencies needs samples.
    pub fn voters(self, scale: f64) -> usize {
        ((self.base_voters() as f64 * scale).round() as usize).max(24)
    }

    fn kiosks(self) -> usize {
        match self {
            Workload::Booth => 1,
            _ => 4,
        }
    }
}

// ---------------------------------------------------------------------
// Input generation
// ---------------------------------------------------------------------

/// SplitMix64: the benchmark's own generator, so that the program
/// receives only generated inputs and never the seed's stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        // The modulo bias over 2^64 is far below anything a run can see.
        self.next() % bound
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The generated inputs of one workload run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inputs {
    /// `(voter id, fake credentials)` in check-in order.
    pub queue: Vec<(u64, usize)>,
    /// `votes[i][c]`: the option credential `c` of queue position `i`
    /// votes for (the real credential is `c == 0`).
    pub votes: Vec<Vec<u32>>,
    /// `(queue position, new vote)` of the voters who vote again.
    pub revotes: Vec<(usize, u32)>,
}

impl Inputs {
    pub fn credentials(&self) -> usize {
        self.queue.iter().map(|&(_, f)| 1 + f).sum()
    }

    /// One ballot for every credential of every voter, in queue order.
    fn ballots(&self) -> Vec<Pick> {
        let of = |(device, votes): (usize, &Vec<u32>)| {
            let pick = move |(credential, &vote)| Pick {
                device,
                credential,
                vote,
            };
            votes.iter().enumerate().map(pick).collect::<Vec<_>>()
        };
        self.votes.iter().enumerate().flat_map(of).collect()
    }

    /// The tally the generated votes must produce.
    pub fn ground_truth(&self) -> Vec<u64> {
        let mut last: Vec<u32> = self.votes.iter().map(|v| v[0]).collect();
        for &(i, vote) in &self.revotes {
            last[i] = vote;
        }
        let mut counts = vec![0u64; OPTIONS as usize];
        for v in last {
            counts[v as usize] += 1;
        }
        counts
    }
}

/// How many of `n` voters take `k` fakes: the distribution's expected
/// counts, rounded by largest remainder. Every seed permutes the same
/// multiset, so the work of a run does not depend on the seed.
fn fake_quota(n: usize, pmf: &[f64]) -> Vec<usize> {
    let mut quota: Vec<usize> = pmf
        .iter()
        .map(|p| (p * n as f64).floor() as usize)
        .collect();
    let mut order: Vec<usize> = (0..pmf.len()).collect();
    let frac = |k: usize| pmf[k] * n as f64 - quota[k] as f64;
    order.sort_by(|&a, &b| frac(b).total_cmp(&frac(a)).then(a.cmp(&b)));
    let missing = n - quota.iter().sum::<usize>();
    for &k in order.iter().cycle().take(missing) {
        quota[k] += 1;
    }
    quota
}

/// Generates the queue, the votes and the re-votes of `n` voters.
pub fn generate(seed: u64, n: usize) -> Inputs {
    let mut rng = SplitMix(seed ^ 0x7672_2D65_3265_2D69); // "vr-e2e-i"
    let mut fakes: Vec<usize> = fake_quota(n, &adapter::fake_credential_pmf())
        .into_iter()
        .enumerate()
        .flat_map(|(k, count)| std::iter::repeat_n(k, count))
        .collect();
    rng.shuffle(&mut fakes);
    let mut voters: Vec<u64> = (1..=n as u64).collect();
    rng.shuffle(&mut voters);
    // Options weighted 3:2:1, as in the repository's full_election example.
    let mut vote = || [0, 0, 0, 1, 1, 2][rng.below(6) as usize];
    let votes: Vec<Vec<u32>> = fakes
        .iter()
        .map(|&f| (0..=f).map(|_| vote()).collect())
        .collect();
    let revotes = (3..n).step_by(4).map(|i| (i, vote())).collect();
    Inputs {
        queue: voters.into_iter().zip(fakes).collect(),
        votes,
        revotes,
    }
}

// ---------------------------------------------------------------------
// Scratch directories for the durable ledger
// ---------------------------------------------------------------------

/// A fresh directory under `./.e2e-scratch`, removed when dropped — on
/// success, on a failed check and on unwinding alike.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new() -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = Path::new(".e2e-scratch").join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Bytes of every file below the directory.
    pub fn bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            std::fs::read_dir(dir)
                .into_iter()
                .flatten()
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once the last scratch directory is gone.
        let _ = std::fs::remove_dir(".e2e-scratch");
    }
}

// ---------------------------------------------------------------------
// One repetition
// ---------------------------------------------------------------------

/// Operations attempted and failed; a failed correctness check is a
/// failed operation.
#[derive(Clone, Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Gate {
    fn op(&mut self, n: u64) {
        self.attempted += n;
    }

    fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(1);
        if !ok {
            self.fail(1, what());
        }
    }

    pub fn absorb(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 20 {
                self.failures.push(f);
            }
        }
    }
}

/// The state a repetition ends in, kept for the traced run's
/// re-enactment and the probes (an end-to-end run drops it).
// At most two of these exist at a time; boxing would only add a hop.
#[allow(clippy::large_enum_variant)]
pub enum Kept {
    /// A closed election, the transcript of its tally and its voters.
    Lifecycle {
        counting: adapter::Counting,
        transcript: adapter::Transcript,
        devices: Vec<Device>,
    },
    /// A registration day: its queue, the election after it and the
    /// sessions it delivered.
    Regday {
        queue: Vec<(u64, usize)>,
        election: adapter::Registering,
        devices: Vec<Device>,
    },
}

/// What one repetition measured. Phases a workload does not have stay
/// `None`; they are omitted from its report, never reported as 0.
#[derive(Default)]
pub struct Rep {
    pub setup: Option<Phase>,
    pub register: Option<Phase>,
    pub cast: Option<Phase>,
    pub tally: Option<Phase>,
    pub verify: Option<Phase>,
    pub reopen: Option<Phase>,
    pub sessions: usize,
    /// Ballots cast in the cast phase.
    pub ballots: usize,
    /// Records on L_V when the tally ran.
    pub ledger_ballots: usize,
    pub disk_bytes: Option<u64>,
    /// Booth latencies, each with the kernel readings nearest to it.
    pub session_ms: Vec<Phase>,
    pub cast_ms: Vec<Phase>,
    pub heads: Option<Heads>,
    pub gate: Gate,
    pub kept: Option<Kept>,
}

impl Rep {
    /// Time of every phase, set-up included, as `secs` reads a phase.
    pub fn total_s(&self, secs: &dyn Fn(&Phase) -> f64) -> f64 {
        [
            &self.setup,
            &self.register,
            &self.cast,
            &self.tally,
            &self.verify,
            &self.reopen,
        ]
        .into_iter()
        .flatten()
        .map(secs)
        .sum()
    }
}

/// Reference-kernel readings on each side of a phase.
const BURST: usize = 12;

/// Runs `f` inside span `name`, between two bursts of the reference
/// kernel (which stay outside the timed interval).
pub fn timed<T>(
    t: &mut Tracer,
    name: &'static str,
    f: impl FnOnce(&mut Tracer) -> T,
) -> (T, Phase) {
    let mut readings = host::burst(BURST);
    let start = Instant::now();
    let out = t.span(name, f);
    let wall_s = start.elapsed().as_secs_f64();
    readings.extend(host::burst(BURST));
    let phase = Phase {
        wall_s,
        ref_ms: stats::median(&readings),
    };
    (out, phase)
}

fn deployment(w: Workload, voters: usize, storage: Storage) -> Deployment {
    let (engine, link) = match w {
        Workload::Lifecycle | Workload::Booth => (Engine::Barrier, Link::InProcess),
        Workload::RegdayMem => (Engine::Pipelined, Link::InProcess),
        Workload::RegdayDeploy => (Engine::Pipelined, Link::SecureTcp),
    };
    Deployment {
        voters: voters as u64,
        kiosks: w.kiosks(),
        engine,
        link,
        storage,
    }
}

/// Every session delivered its real credential and each requested fake.
fn check_sessions(gate: &mut Gate, inputs: &Inputs, devices: &Result<Vec<Device>, String>) {
    let n = inputs.queue.len() as u64;
    gate.op(n);
    match devices {
        Err(e) => gate.fail(n, format!("registration day failed: {e}")),
        Ok(devices) => {
            let short = inputs
                .queue
                .iter()
                .zip(devices.iter())
                .filter(|(&(_, fakes), d)| d.credentials() != 1 + fakes)
                .count() as u64
                + n.saturating_sub(devices.len() as u64);
            if short > 0 {
                gate.fail(
                    short,
                    format!("{short} sessions delivered the wrong credential count"),
                );
            }
        }
    }
}

/// Set-up as every workload times it: workload generation plus
/// `ElectionBuilder::build` with the default envelope supply (and, on a
/// durable deployment, opening the WAL and committing the supply to it).
fn setup(
    t: &mut Tracer,
    w: Workload,
    seed: u64,
    voters: usize,
    storage: Storage,
) -> ((Inputs, adapter::Registering), Phase) {
    timed(t, "phase.setup", |_| {
        let inputs = generate(seed, voters);
        let election = adapter::build(&deployment(w, voters, storage), seed);
        (inputs, election)
    })
}

fn lifecycle_rep(t: &mut Tracer, seed: u64, voters: usize, keep: bool) -> Rep {
    let mut rep = Rep::default();
    let ((inputs, mut election), setup) =
        setup(t, Workload::Lifecycle, seed, voters, Storage::Memory);
    rep.setup = Some(setup);

    let (devices, register) = timed(t, "phase.register", |_| {
        election.register_day(&inputs.queue)
    });
    rep.register = Some(register);
    rep.sessions = voters;
    check_sessions(&mut rep.gate, &inputs, &devices);
    let Ok(devices) = devices else { return rep };

    // Every credential votes once; then every fourth voter votes again.
    let wave = inputs.ballots();
    let again: Vec<Pick> = inputs
        .revotes
        .iter()
        .map(|&(device, vote)| Pick {
            device,
            credential: 0,
            vote,
        })
        .collect();
    let mut voting = election.open_voting();
    let (cast, cast_phase) = timed(t, "phase.cast", |_| {
        voting.cast_batch(&devices, &wave)?;
        voting.cast_batch(&devices, &again)
    });
    rep.ballots = wave.len() + again.len();
    rep.cast = Some(cast_phase);
    rep.gate.op(rep.ballots as u64);
    if let Err(e) = &cast {
        rep.gate
            .fail(rep.ballots as u64, format!("cast_batch failed: {e}"));
    }
    rep.ledger_ballots = voting.ballots_on_ledger();
    rep.gate.check(rep.ledger_ballots == rep.ballots, || {
        format!(
            "{} ballots on L_V, {} cast",
            rep.ledger_ballots, rep.ballots
        )
    });

    let mut counting = voting.close();
    let (transcript, tally) = timed(t, "phase.tally", |_| counting.tally());
    rep.tally = Some(tally);
    let fake_ballots = inputs.credentials() - voters;
    let expected = adapter::Outcome {
        counts: inputs.ground_truth(),
        counted: voters,
        unmatched: fake_ballots,
    };
    let tally_ok = transcript.as_ref().is_ok_and(|tr| {
        tr.outcome() == expected && tr.superseded() == again.len() && tr.rejected() == 0
    });
    rep.gate.check(tally_ok, || match &transcript {
        Err(e) => format!("tally failed: {e}"),
        Ok(tr) => format!(
            "tally {:?} superseded {} rejected {}, expected {:?} superseded {}",
            tr.outcome(),
            tr.superseded(),
            tr.rejected(),
            expected,
            again.len()
        ),
    });
    let Ok(transcript) = transcript else {
        return rep;
    };

    let (verified, verify) = timed(t, "phase.verify", |_| counting.verify(&transcript));
    rep.verify = Some(verify);
    rep.gate
        .check(verified.as_ref() == Ok(&transcript.outcome()), || {
            format!(
                "verify returned {verified:?}, tally claimed {:?}",
                transcript.outcome()
            )
        });
    if keep {
        rep.kept = Some(Kept::Lifecycle {
            counting,
            transcript,
            devices,
        });
    }
    rep
}

fn regday_rep(t: &mut Tracer, w: Workload, seed: u64, voters: usize, keep: bool) -> Rep {
    let mut rep = Rep::default();
    let scratch = match w {
        Workload::RegdayDeploy => match ScratchDir::new() {
            Ok(dir) => Some(dir),
            Err(e) => {
                rep.gate
                    .check(false, || format!("cannot create a scratch directory: {e}"));
                return rep;
            }
        },
        _ => None,
    };
    let storage = || match &scratch {
        Some(dir) => Storage::Durable {
            dir: dir.path().to_path_buf(),
            fsync: true,
        },
        None => Storage::Memory,
    };
    let ((inputs, mut election), setup) = setup(t, w, seed, voters, storage());
    rep.setup = Some(setup);

    let (devices, register) = timed(t, "phase.register", |_| {
        election.register_day(&inputs.queue)
    });
    rep.register = Some(register);
    rep.sessions = voters;
    check_sessions(&mut rep.gate, &inputs, &devices);
    // An end-to-end run is done with the sessions here; holding them
    // through the reopen would only add to the peak resident set.
    let devices = devices.ok().filter(|_| keep);

    let heads = election.heads();
    rep.gate.check(heads.signatures_ok, || {
        "a signed L_R/L_E head does not verify".into()
    });
    let sessions_on_ledger = heads.registration.size == voters as u64;
    rep.gate.check(sessions_on_ledger, || {
        format!(
            "L_R holds {} records for {voters} sessions",
            heads.registration.size
        )
    });

    if let Some(dir) = &scratch {
        rep.disk_bytes = Some(dir.bytes());
        // Drop the election, then reopen the directory: set-up on it
        // replays the day instead of starting one.
        drop(election);
        let (reopened, reopen) = timed(t, "phase.reopen", |_| {
            adapter::build(&deployment(w, voters, storage()), seed)
        });
        rep.reopen = Some(reopen);
        let replayed = reopened.heads();
        rep.gate.check(replayed == heads, || {
            format!(
                "reopened heads {} differ from pre-drop heads {}",
                replayed.digest(),
                heads.digest()
            )
        });
    } else if let Some(devices) = devices {
        rep.kept = Some(Kept::Regday {
            queue: inputs.queue,
            election,
            devices,
        });
    }
    rep.heads = Some(heads);
    rep
}

/// Booth operations between two short reference bursts.
const GROUP: usize = 32;

/// A closed loop of `n` small operations by one client: the next starts
/// when the previous one has returned. A short reference burst runs every
/// [`GROUP`] operations, outside the timed intervals. Returns the loop as
/// a phase (the sum of the latencies) and every latency with the bursts
/// nearest to it.
fn closed_loop(
    t: &mut Tracer,
    phase: &'static str,
    operation: &'static str,
    n: usize,
    mut op: impl FnMut(usize),
) -> (Phase, Vec<Phase>) {
    let span = t.begin(phase);
    let mut latencies = Vec::with_capacity(n);
    let mut before = host::burst(BURST / 3);
    for group in (0..n).step_by(GROUP) {
        let mut walls = Vec::with_capacity(GROUP);
        for i in group..(group + GROUP).min(n) {
            let op_span = t.begin(operation);
            let start = Instant::now();
            op(i);
            walls.push(start.elapsed().as_secs_f64());
            t.end(op_span);
        }
        let after = host::burst(BURST / 3);
        let around: Vec<f64> = before.iter().chain(after.iter()).copied().collect();
        let ref_ms = stats::median(&around);
        latencies.extend(walls.into_iter().map(|wall_s| Phase { wall_s, ref_ms }));
        before = after;
    }
    t.end(span);
    // The loop as one phase: its nominal time is the sum of its parts',
    // each read against the bursts nearest to it.
    let wall_s: f64 = latencies.iter().map(|l| l.wall_s).sum();
    let nominal_s: f64 = latencies.iter().map(Phase::nominal_s).sum();
    let whole = Phase {
        wall_s,
        ref_ms: host::NOMINAL_MS * wall_s / nominal_s,
    };
    (whole, latencies)
}

fn booth_rep(t: &mut Tracer, seed: u64, voters: usize) -> Rep {
    let mut rep = Rep::default();
    let ((inputs, mut election), setup) = setup(t, Workload::Booth, seed, voters, Storage::Memory);
    rep.setup = Some(setup);

    let mut devices = Vec::with_capacity(voters);
    let mut gate = Gate::default();
    let (register, sessions) = closed_loop(t, "phase.register", "booth.session", voters, |i| {
        let (voter, fakes) = inputs.queue[i];
        gate.op(1);
        match election.register_one(voter, fakes) {
            Ok(d) => {
                if d.credentials() != 1 + fakes {
                    gate.fail(
                        1,
                        format!(
                            "voter {voter}: {} credentials for {fakes} fakes",
                            d.credentials()
                        ),
                    );
                }
                devices.push(d);
            }
            Err(e) => gate.fail(1, format!("voter {voter}: session failed: {e}")),
        }
    });
    rep.register = Some(register);
    rep.session_ms = sessions;
    rep.sessions = voters;
    rep.gate.absorb(std::mem::take(&mut gate));
    if devices.len() != voters {
        return rep;
    }

    let picks = inputs.ballots();
    let mut voting = election.open_voting();
    let (cast, casts) = closed_loop(t, "phase.cast", "booth.cast", picks.len(), |i| {
        let cast = voting.cast_one(&devices, picks[i]);
        gate.check(cast.is_ok(), || format!("cast failed: {cast:?}"));
    });
    rep.cast = Some(cast);
    rep.cast_ms = casts;
    rep.gate.absorb(gate);
    rep.ballots = picks.len();
    rep.ledger_ballots = voting.ballots_on_ledger();
    rep.gate.check(rep.ledger_ballots == rep.ballots, || {
        format!(
            "{} ballots on L_V, {} cast",
            rep.ledger_ballots, rep.ballots
        )
    });
    rep
}

/// One repetition of `w` with `voters` voters; `keep` asks for the state
/// it ends in ([`Rep::kept`]).
pub fn run_rep(t: &mut Tracer, w: Workload, seed: u64, voters: usize, keep: bool) -> Rep {
    let span = t.begin("rep");
    let rep = match w {
        Workload::Lifecycle => lifecycle_rep(t, seed, voters, keep),
        Workload::RegdayMem | Workload::RegdayDeploy => regday_rep(t, w, seed, voters, keep),
        Workload::Booth => booth_rep(t, seed, voters),
    };
    t.end(span);
    rep
}

// ---------------------------------------------------------------------
// The repetition loop
// ---------------------------------------------------------------------

/// How long and how large a run is.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    pub seed: u64,
    /// Measure for at least this long...
    pub seconds: f64,
    /// ...or, when set, for exactly this many timed repetitions.
    pub reps: Option<usize>,
    pub scale: f64,
}

/// Timed repetitions a run makes even when one exceeds `seconds`.
const MIN_REPS: usize = 3;

/// Per-repetition values of every metric a workload has, by name.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

/// Everything a run of one workload measured.
pub struct Run {
    pub workload: Workload,
    pub voters: usize,
    pub reps: usize,
    /// In nominal time (what the metrics report; see [`crate::host`]).
    pub samples: Samples,
    /// As the wall clock read.
    pub wall_samples: Samples,
    /// Booth latencies pooled over the repetitions, nominal and wall.
    pub session_ms: Vec<f64>,
    pub cast_ms: Vec<f64>,
    pub wall_session_ms: Vec<f64>,
    pub wall_cast_ms: Vec<f64>,
    /// The host's median slowdown around the phases of this run.
    pub slowdown: f64,
    pub heads_digest: Option<String>,
    pub gate: Gate,
    pub peak_rss_mb: f64,
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Adds `rep`'s value of every metric `w` has to `samples`, with phase
/// times as `secs` reads them.
pub fn push_samples(samples: &mut Samples, w: Workload, rep: &Rep, secs: &dyn Fn(&Phase) -> f64) {
    let mut put = |name, value: f64| samples.entry(name).or_default().push(value);
    let rate = |count: usize, phase: &Option<Phase>| phase.as_ref().map(|p| count as f64 / secs(p));
    if let Some(setup) = &rep.setup {
        put("setup_s", secs(setup));
    }
    if let Some(r) = rate(rep.sessions, &rep.register) {
        put("reg_sessions_per_s", r);
    }
    put("voters_per_s", rep.sessions as f64 / rep.total_s(secs));
    if let (Workload::Lifecycle, Some(r)) = (w, rate(rep.ballots, &rep.cast)) {
        put("cast_ballots_per_s", r);
    }
    if let Some(r) = rate(rep.ledger_ballots, &rep.tally) {
        put("tally_ballots_per_s", r);
    }
    if let Some(r) = rate(rep.ledger_ballots, &rep.verify) {
        put("verify_ballots_per_s", r);
    }
    if let Some(reopen) = &rep.reopen {
        put("reopen_s", secs(reopen));
    }
    if let Some(bytes) = rep.disk_bytes {
        put("disk_bytes_per_session", bytes as f64 / rep.sessions as f64);
    }
}

/// Runs `w`: one discarded warm-up repetition, then timed repetitions
/// until `opts` is satisfied.
pub fn run(t: &mut Tracer, w: Workload, opts: RunOpts) -> Run {
    let voters = w.voters(opts.scale);
    let mut gate = Gate::default();

    // The in-memory day of the same queue is regday_deploy's reference:
    // its heads must be matched bit for bit. It also warms the code.
    let reference = (w == Workload::RegdayDeploy)
        .then(|| run_rep(t, Workload::RegdayMem, opts.seed, voters, false).heads)
        .flatten();
    let warm_up = run_rep(t, w, opts.seed, voters, false);
    let mut first_heads = warm_up.heads;
    gate.absorb(warm_up.gate);

    let mut reps: Vec<Rep> = Vec::new();
    let start = Instant::now();
    loop {
        let done = match opts.reps {
            Some(n) => reps.len() >= n,
            None => reps.len() >= MIN_REPS && start.elapsed().as_secs_f64() >= opts.seconds,
        };
        if done {
            break;
        }
        t.set_rep(reps.len() as u32);
        let mut rep = run_rep(t, w, opts.seed, voters, false);
        if let Some(heads) = rep.heads.take() {
            let same = first_heads.get_or_insert_with(|| heads.clone()) == &heads;
            gate.check(same, || {
                format!(
                    "repetition {} reached different heads ({})",
                    reps.len(),
                    heads.digest()
                )
            });
        }
        gate.absorb(std::mem::take(&mut rep.gate));
        reps.push(rep);
    }
    if let Some(reference) = &reference {
        gate.check(first_heads.as_ref() == Some(reference), || {
            format!(
                "regday_deploy heads differ from the in-memory day's ({})",
                reference.digest()
            )
        });
    }

    let nominal = |p: &Phase| p.nominal_s();
    let wall = |p: &Phase| p.wall_s;
    let mut run = Run {
        workload: w,
        voters,
        reps: reps.len(),
        samples: Samples::new(),
        wall_samples: Samples::new(),
        session_ms: Vec::new(),
        cast_ms: Vec::new(),
        wall_session_ms: Vec::new(),
        wall_cast_ms: Vec::new(),
        slowdown: f64::NAN,
        heads_digest: first_heads.map(|h| h.digest()),
        gate,
        peak_rss_mb: peak_rss_mb(),
    };
    let mut readings = Vec::new();
    for rep in &reps {
        push_samples(&mut run.samples, w, rep, &nominal);
        push_samples(&mut run.wall_samples, w, rep, &wall);
        run.session_ms
            .extend(rep.session_ms.iter().map(|p| nominal(p) * 1e3));
        run.cast_ms
            .extend(rep.cast_ms.iter().map(|p| nominal(p) * 1e3));
        run.wall_session_ms
            .extend(rep.session_ms.iter().map(|p| wall(p) * 1e3));
        run.wall_cast_ms
            .extend(rep.cast_ms.iter().map(|p| wall(p) * 1e3));
        let phases = [
            &rep.setup,
            &rep.register,
            &rep.cast,
            &rep.tally,
            &rep.verify,
            &rep.reopen,
        ];
        readings.extend(phases.into_iter().flatten().map(Phase::slowdown));
    }
    run.slowdown = stats::median(&readings);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_function_of_the_seed() {
        assert_eq!(generate(7, 100), generate(7, 100));
        assert_ne!(generate(7, 100), generate(8, 100));
    }

    #[test]
    fn every_seed_permutes_the_same_work() {
        let a = generate(1, 400);
        let b = generate(2, 400);
        let fakes = |i: &Inputs| {
            let mut f: Vec<usize> = i.queue.iter().map(|q| q.1).collect();
            f.sort_unstable();
            f
        };
        assert_eq!(fakes(&a), fakes(&b));
        assert_eq!(a.credentials(), b.credentials());
        assert_eq!(a.revotes.len(), 100);
        let mut voters: Vec<u64> = a.queue.iter().map(|q| q.0).collect();
        voters.sort_unstable();
        assert_eq!(voters, (1..=400).collect::<Vec<u64>>());
    }

    #[test]
    fn fake_quota_follows_the_distribution_and_sums_to_n() {
        let pmf = [0.5, 0.3, 0.2];
        assert_eq!(fake_quota(10, &pmf), vec![5, 3, 2]);
        let q = fake_quota(7, &pmf);
        assert_eq!(q.iter().sum::<usize>(), 7);
        assert_eq!(q, vec![4, 2, 1]);
    }

    #[test]
    fn ground_truth_counts_the_last_real_vote_only() {
        let inputs = Inputs {
            queue: vec![(1, 1), (2, 0), (3, 0), (4, 0)],
            votes: vec![vec![0, 2], vec![1], vec![1], vec![2]],
            revotes: vec![(3, 0)],
        };
        // The fake's vote for option 2 and voter 4's first vote do not count.
        assert_eq!(inputs.ground_truth(), vec![2, 2, 0]);
        assert_eq!(inputs.credentials(), 5);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}", w.name());
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn scratch_dir_is_removed_on_drop() {
        let dir = ScratchDir::new().unwrap();
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("f"), b"12345").unwrap();
        assert_eq!(dir.bytes(), 5);
        drop(dir);
        assert!(!path.exists());
    }
}
