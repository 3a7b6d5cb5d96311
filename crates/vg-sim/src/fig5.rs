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
use vg_crypto::HmacDrbg;

use crate::bench_adapter::VotegralCore;
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

/// Measures one system at voter count `n` (no extrapolation).
pub fn measure(kind: SystemKind, n: usize, n_options: u32, seed: u64) -> PhaseTiming {
    let mut rng = HmacDrbg::from_u64(seed);
    let votes = VoteDist::uniform(n_options).sample_many(n, &mut rng);
    let mut sys = instantiate(kind, n, n_options, &mut rng);

    let t0 = Instant::now();
    sys.register_all(&mut rng);
    let register_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    sys.vote_all(&votes, &mut rng);
    let vote_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let _counts = sys.tally(&mut rng);
    let tally_ms = t0.elapsed().as_secs_f64() * 1e3;

    PhaseTiming {
        system: kind,
        n_voters: n,
        measured_at: n,
        register_ms,
        vote_ms,
        tally_ms,
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

    #[test]
    fn ordering_matches_paper_shape() {
        // Robust Fig 5a orderings — those with wide margins that survive
        // debug-mode timing noise at a small n. The tighter comparisons
        // (TRIP vs Civitas registration, exact factors) are checked by the
        // release harness binaries, which measure at larger n.
        let n = 12;
        // The faster-tallying of two runs each: the folded tally proofs
        // narrowed VoteAgain-vs-Votegral from ~2.4x to ~1.8x, which one
        // scheduling hiccup on a single wall-clock sample can invert.
        let best_of_two = |kind| {
            let (a, b) = (measure(kind, n, 3, 1), measure(kind, n, 3, 1));
            if a.tally_ms < b.tally_ms {
                a
            } else {
                b
            }
        };
        let votegral = best_of_two(SystemKind::Votegral);
        let swiss = best_of_two(SystemKind::SwissPost);
        let voteagain = best_of_two(SystemKind::VoteAgain);
        let civitas = best_of_two(SystemKind::Civitas);

        // Registration: VoteAgain (one keygen) is far below everything.
        assert!(
            voteagain.register_per_voter_ms() < votegral.register_per_voter_ms(),
            "VoteAgain reg {} < TRIP {}",
            voteagain.register_per_voter_ms(),
            votegral.register_per_voter_ms()
        );
        assert!(
            voteagain.register_per_voter_ms() < civitas.register_per_voter_ms(),
            "VoteAgain reg {} < Civitas {}",
            voteagain.register_per_voter_ms(),
            civitas.register_per_voter_ms()
        );
        // Voting: TRIP's single ballot is the lightest.
        assert!(
            votegral.vote_per_voter_ms() < swiss.vote_per_voter_ms(),
            "TRIP vote {} < SwissPost {}",
            votegral.vote_per_voter_ms(),
            swiss.vote_per_voter_ms()
        );
        // Tally: VoteAgain < Votegral, and Civitas above both.
        assert!(
            voteagain.tally_ms < votegral.tally_ms,
            "VoteAgain tally {} < Votegral {}",
            voteagain.tally_ms,
            votegral.tally_ms
        );
        assert!(
            civitas.tally_ms > votegral.tally_ms,
            "Civitas tally {} > Votegral {}",
            civitas.tally_ms,
            votegral.tally_ms
        );
    }

    #[test]
    fn civitas_tally_growth_is_superlinear() {
        // The defining Fig 5b shape: doubling the population should
        // roughly quadruple Civitas' tally (pairwise PETs) while the
        // linear systems only double. Allow generous noise margins.
        let small = measure(SystemKind::Civitas, 6, 2, 9);
        let large = measure(SystemKind::Civitas, 12, 2, 9);
        let growth = large.tally_ms / small.tally_ms;
        assert!(growth > 2.4, "quadratic growth expected, saw {growth:.2}x");

        let small = measure(SystemKind::VoteAgain, 6, 2, 9);
        let large = measure(SystemKind::VoteAgain, 12, 2, 9);
        let growth = large.tally_ms / small.tally_ms;
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
}
