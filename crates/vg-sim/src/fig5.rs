//! Experiment runner for Fig 5: phase latencies across voting systems.
//!
//! Measures the registration, voting and tally phases of TRIP-Core /
//! Votegral and the three baselines across voter counts, mirroring §7.3
//! and §7.4. Like the paper — which extrapolates Civitas beyond 10^4
//! voters because of its quadratic PET tally, and which ran on a
//! 128-core Deterlab node we do not have — the runner measures up to a
//! per-system cap and extrapolates beyond it (linearly for the linear
//! systems, quadratically for Civitas), marking extrapolated points.

use std::time::Instant;

use vg_baselines::{BenchSystem, Civitas, SwissPost, VoteAgain};
use vg_crypto::{HmacDrbg, Rng};
use vg_ledger::VoterId;
use vg_trip::protocol::{activate_all, register_voter};
use vg_trip::setup::TripConfig;
use vg_trip::vsd::ActivatedCredential;
use vg_votegral::{Election, ElectionBuilder, Voting};

use crate::population::VoteDist;

/// Identifier for one of the compared systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// TRIP-Core / Votegral (this paper).
    Votegral,
    /// Swiss Post (verifiable, not coercion-resistant).
    SwissPost,
    /// VoteAgain (deniable re-voting).
    VoteAgain,
    /// Civitas (JCJ fake credentials, quadratic tally).
    Civitas,
}

impl SystemKind {
    /// All systems in the figure's order.
    pub const ALL: [SystemKind; 4] = [
        SystemKind::SwissPost,
        SystemKind::VoteAgain,
        SystemKind::Votegral,
        SystemKind::Civitas,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::Votegral => "TRIP-Core",
            SystemKind::SwissPost => "SwissPost",
            SystemKind::VoteAgain => "VoteAgain",
            SystemKind::Civitas => "Civitas",
        }
    }
}

/// One measured (or extrapolated) row of Fig 5.
#[derive(Debug, Clone)]
pub struct PhaseTiming {
    /// Which system.
    pub system: SystemKind,
    /// Voter count this row describes.
    pub n_voters: usize,
    /// Voter count actually measured (differs when extrapolated).
    pub measured_at: usize,
    /// Registration phase, total milliseconds.
    pub register_ms: f64,
    /// Voting phase, total milliseconds.
    pub vote_ms: f64,
    /// Tally phase, total milliseconds.
    pub tally_ms: f64,
}

impl PhaseTiming {
    /// Whether this row was extrapolated from a smaller measurement.
    pub fn extrapolated(&self) -> bool {
        self.measured_at != self.n_voters
    }

    /// Per-voter registration latency (ms), the Fig 5a y-axis.
    pub fn register_per_voter_ms(&self) -> f64 {
        self.register_ms / self.n_voters as f64
    }

    /// Per-voter voting latency (ms).
    pub fn vote_per_voter_ms(&self) -> f64 {
        self.vote_ms / self.n_voters as f64
    }

    /// Per-voter tally latency (ms).
    pub fn tally_per_voter_ms(&self) -> f64 {
        self.tally_ms / self.n_voters as f64
    }
}

/// TRIP-Core / Votegral through the [`BenchSystem`] phases (the
/// "TRIP-Core" configuration of §7.3, which omits all QR-related tasks to
/// isolate the cryptographic operations).
///
/// The election is held in the `Voting` phase: the trait interleaves
/// registration and casting freely, and the TRIP layer
/// (`register_voter`/`activate_all`) is phase-agnostic, so registrations
/// go through the protocol functions directly while casts use the
/// session.
struct VotegralCore {
    election: Election<Voting>,
    credentials: Vec<ActivatedCredential>,
    n_voters: usize,
}

impl VotegralCore {
    /// An election for `n_voters` and `n_options` with one envelope per
    /// voter, on the builder's in-memory, one-thread defaults (setup/DKG
    /// time is excluded from the phases, as in the paper).
    fn new(n_voters: usize, n_options: u32, rng: &mut dyn Rng) -> Self {
        let mut config = TripConfig::with_voters(n_voters as u64);
        config.envelopes_per_voter = 1;
        Self {
            election: ElectionBuilder::new()
                .trip_config(config)
                .options(n_options)
                .build(rng)
                .open_voting(),
            credentials: Vec::new(),
            n_voters,
        }
    }
}

impl BenchSystem for VotegralCore {
    /// Registration = the TRIP crypto path: check-in MAC, credential
    /// generation, IZKP, signatures, check-out posting, activation checks.
    fn register_all(&mut self, rng: &mut dyn Rng) {
        for v in 1..=self.n_voters as u64 {
            let mut outcome = register_voter(&mut self.election.trip, VoterId(v), 0, rng)
                .expect("registration succeeds");
            let vsd =
                activate_all(&mut self.election.trip, &mut outcome).expect("activation succeeds");
            self.credentials
                .push(vsd.credentials.into_iter().next().expect("one credential"));
        }
    }

    fn vote_all(&mut self, votes: &[u32], rng: &mut dyn Rng) {
        assert_eq!(votes.len(), self.n_voters, "one vote per voter");
        for (cred, &v) in self.credentials.iter().zip(votes.iter()) {
            self.election.cast(cred, v, rng).expect("ballot accepted");
        }
    }

    fn tally(&mut self, rng: &mut (dyn Rng + Send)) -> Vec<u64> {
        // The trait interleaves phases, so tally through the free
        // function rather than consuming the session into `Tallying`.
        let transcript = vg_votegral::tally(
            &self.election.trip.authority,
            &self.election.trip.ledger,
            self.election.vote_config,
            &self.election.trip.kiosk_registry,
            self.election.mixers,
            rng,
        )
        .expect("tally runs");
        transcript.result.counts
    }
}

fn instantiate(
    kind: SystemKind,
    n: usize,
    n_options: u32,
    rng: &mut HmacDrbg,
) -> Box<dyn BenchSystem> {
    match kind {
        SystemKind::Votegral => Box::new(VotegralCore::new(n, n_options, rng)),
        SystemKind::SwissPost => Box::new(SwissPost::new(n, n_options, rng)),
        SystemKind::VoteAgain => Box::new(VoteAgain::new(n, n_options, rng)),
        SystemKind::Civitas => Box::new(Civitas::new(n, n_options, rng)),
    }
}

/// Measures one system at voter count `n` (no extrapolation), each phase
/// on the wall clock.
pub fn measure(kind: SystemKind, n: usize, n_options: u32, seed: u64) -> PhaseTiming {
    let start = Instant::now();
    measure_by(kind, n, n_options, seed, &|| {
        start.elapsed().as_secs_f64() * 1e3
    })
}

/// [`measure`] with each phase read off `clock`, any monotone clock: the
/// phase fields then hold its units. A process CPU-time clock counts the
/// work of joined worker threads too, and not the time the host gives to
/// other processes.
pub fn measure_by(
    kind: SystemKind,
    n: usize,
    n_options: u32,
    seed: u64,
    clock: &dyn Fn() -> f64,
) -> PhaseTiming {
    let mut rng = HmacDrbg::from_u64(seed);
    let votes = VoteDist::uniform(n_options).sample_many(n, &mut rng);
    let mut sys = instantiate(kind, n, n_options, &mut rng);

    let t0 = clock();
    sys.register_all(&mut rng);
    let t1 = clock();
    sys.vote_all(&votes, &mut rng);
    let t2 = clock();
    let _counts = sys.tally(&mut rng);
    let t3 = clock();

    PhaseTiming {
        system: kind,
        n_voters: n,
        measured_at: n,
        register_ms: t1 - t0,
        vote_ms: t2 - t1,
        tally_ms: t3 - t2,
    }
}

/// Extrapolates a measured row to a larger population: registration and
/// voting scale linearly for every system; tally scales linearly except
/// Civitas, which scales quadratically (§7.4 — the paper extrapolates
/// Civitas the same way beyond 10^4 voters).
pub fn extrapolate(base: &PhaseTiming, n: usize) -> PhaseTiming {
    let m = base.measured_at;
    let linear = n as f64 / m as f64;
    let tally_factor = if matches!(base.system, SystemKind::Civitas) {
        linear * linear
    } else {
        linear
    };
    PhaseTiming {
        system: base.system,
        n_voters: n,
        measured_at: m,
        register_ms: base.register_ms * linear,
        vote_ms: base.vote_ms * linear,
        tally_ms: base.tally_ms * tally_factor,
    }
}

/// Measures at `min(n, cap)` and extrapolates to `n` when capped.
pub fn measure_with_cap(
    kind: SystemKind,
    n: usize,
    cap: usize,
    n_options: u32,
    seed: u64,
) -> PhaseTiming {
    let m = n.min(cap).max(2);
    let base = measure(kind, m, n_options, seed);
    if m == n {
        return base;
    }
    extrapolate(&base, n)
}

/// Runs the full Fig 5 sweep.
///
/// `caps` gives the largest directly measured population per system
/// (Civitas first hits its cap; the paper itself extrapolates it beyond
/// 10^4).
pub fn run_fig5(
    sizes: &[usize],
    cap_linear: usize,
    cap_civitas: usize,
    n_options: u32,
    seed: u64,
) -> Vec<PhaseTiming> {
    let mut rows = Vec::new();
    for &n in sizes {
        for kind in SystemKind::ALL {
            let cap = if matches!(kind, SystemKind::Civitas) {
                cap_civitas
            } else {
                cap_linear
            };
            rows.push(measure_with_cap(kind, n, cap, n_options, seed));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each phase's fastest reading over `rounds` rounds that measure
    /// every `(kind, n)` once, interleaved, so a scheduling hiccup or a
    /// slow stretch of the host lands on one reading of every system
    /// rather than on all of one system's.
    fn best_of(
        rounds: usize,
        cells: &[(SystemKind, usize)],
        n_options: u32,
        seed: u64,
    ) -> Vec<PhaseTiming> {
        let mut best: Vec<PhaseTiming> = cells
            .iter()
            .map(|&(kind, n)| measure(kind, n, n_options, seed))
            .collect();
        for _ in 1..rounds {
            for (b, &(kind, n)) in best.iter_mut().zip(cells) {
                let t = measure(kind, n, n_options, seed);
                b.register_ms = b.register_ms.min(t.register_ms);
                b.vote_ms = b.vote_ms.min(t.vote_ms);
                b.tally_ms = b.tally_ms.min(t.tally_ms);
            }
        }
        best
    }

    #[test]
    fn civitas_tally_growth_is_superlinear() {
        // The defining Fig 5b shape: doubling the population should
        // roughly quadruple Civitas' tally (pairwise PETs) while the
        // linear systems only double. Allow generous noise margins.
        // Each tally is its best of three interleaved rounds, so one slow
        // reading cannot flatten or steepen a ratio.
        let cells = [
            (SystemKind::Civitas, 6),
            (SystemKind::Civitas, 12),
            (SystemKind::VoteAgain, 6),
            (SystemKind::VoteAgain, 12),
        ];
        let [civitas_small, civitas_large, voteagain_small, voteagain_large] =
            <[PhaseTiming; 4]>::try_from(best_of(3, &cells, 2, 9)).expect("one row per cell");
        let growth = civitas_large.tally_ms / civitas_small.tally_ms;
        assert!(growth > 2.4, "quadratic growth expected, saw {growth:.2}x");

        let growth = voteagain_large.tally_ms / voteagain_small.tally_ms;
        assert!(growth < 3.5, "linear growth expected, saw {growth:.2}x");
    }

    #[test]
    fn civitas_extrapolates_quadratically() {
        // Pure scaling math on one measured row (independent re-measures
        // would add wall-clock noise).
        let base = measure(SystemKind::Civitas, 8, 2, 3);
        let extr = extrapolate(&base, 80);
        assert!(extr.extrapolated());
        let expected_tally = base.tally_ms * 100.0;
        assert!(
            (extr.tally_ms - expected_tally).abs() / expected_tally < 1e-9,
            "quadratic tally scaling"
        );
        // Registration stays linear.
        let expected_reg = base.register_ms * 10.0;
        assert!((extr.register_ms - expected_reg).abs() / expected_reg < 1e-9);

        // Linear systems extrapolate their tally linearly.
        let base = measure(SystemKind::VoteAgain, 8, 2, 3);
        let extr = extrapolate(&base, 80);
        let expected = base.tally_ms * 10.0;
        assert!((extr.tally_ms - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn sweep_produces_all_rows() {
        let rows = run_fig5(&[4, 8], 8, 4, 2, 5);
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().any(|r| r.extrapolated()));
    }

    #[test]
    fn votegral_core_through_trait() {
        let mut rng = HmacDrbg::from_u64(1);
        let mut sys = VotegralCore::new(3, 2, &mut rng);
        sys.register_all(&mut rng);
        sys.vote_all(&[1, 0, 1], &mut rng);
        assert_eq!(sys.tally(&mut rng), vec![1, 2]);
    }

    #[test]
    fn all_four_systems_agree_on_result() {
        // The same vote vector tallied by every system yields identical
        // counts — the cross-system correctness check behind Fig 5.
        let votes = {
            let mut rng = HmacDrbg::from_u64(2);
            VoteDist::uniform(3).sample_many(5, &mut rng)
        };
        let mut expected = vec![0u64; 3];
        for &v in &votes {
            expected[v as usize] += 1;
        }

        let mut rng = HmacDrbg::from_u64(3);
        let mut votegral = VotegralCore::new(5, 3, &mut rng);
        votegral.register_all(&mut rng);
        votegral.vote_all(&votes, &mut rng);
        assert_eq!(votegral.tally(&mut rng), expected, "votegral");

        let mut swiss = SwissPost::new(5, 3, &mut rng);
        swiss.register_all(&mut rng);
        swiss.vote_all(&votes, &mut rng);
        assert_eq!(swiss.tally(&mut rng), expected, "swisspost");

        let mut va = VoteAgain::new(5, 3, &mut rng);
        va.register_all(&mut rng);
        va.vote_all(&votes, &mut rng);
        assert_eq!(va.tally(&mut rng), expected, "voteagain");

        let mut civitas = Civitas::with_tellers(5, 3, 2, &mut rng);
        civitas.register_all(&mut rng);
        civitas.vote_all(&votes, &mut rng);
        assert_eq!(civitas.tally(&mut rng), expected, "civitas");
    }
}
