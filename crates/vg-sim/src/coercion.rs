//! Empirical coercion-resistance experiment: the C-Resist game (§5.2,
//! Appendix F.1).
//!
//! The formal proof reduces the coercer's advantage to the statistical
//! uncertainty induced by honest voters' behaviour (the distributions D_c
//! and D_v). This module plays the game with the *real* system: a coerced
//! voter either complies (hands over every credential, including the real
//! one, and does not vote) or evades (creates one extra fake, hands over
//! only fakes, votes secretly). The adversary sees everything the model
//! allows — the handed-over credentials, the registration ledger, the
//! envelope ledger's aggregate counts, and the final tally — and guesses.
//!
//! Two checks matter:
//!
//! 1. **Artifact indistinguishability**: the handed-over credentials
//!    verify identically in both worlds (every activation check passes) —
//!    asserted structurally.
//! 2. **Optimal count-based distinguisher**: the only residual signal is
//!    the aggregate envelope count (the evading voter consumes one more),
//!    whose advantage equals the total-variation distance between the
//!    honest-population count distribution and its shift by one — which
//!    shrinks as honest voters add noise, exactly the paper's claim.

use crate::population::FakeCredentialDist;
use vg_crypto::Rng;

/// Outcome of one game run.
#[derive(Clone, Copy, Debug)]
struct GameView {
    /// Total challenges revealed on L_E (the coercer's aggregate view).
    revealed_envelopes: usize,
}

/// Result of the coercion experiment.
#[derive(Clone, Debug)]
pub struct CoercionExperiment {
    /// Trials per world.
    pub trials: usize,
    /// Honest voters adding statistical noise.
    pub honest_voters: usize,
    /// Empirical advantage of the optimal count-based distinguisher.
    pub empirical_advantage: f64,
    /// Analytic total-variation bound from D_c (the ideal-game residual).
    pub analytic_tv: f64,
}

/// Plays one registration-phase game in a lightweight model: each honest
/// voter reveals 1 + D_c challenges; the target reveals either
/// `demanded + 1` (comply: real + demanded fakes) or `demanded + 2`
/// (evade: one extra fake). Returns the adversary's view.
fn play_once(
    evade: bool,
    demanded_fakes: usize,
    honest_voters: usize,
    dist: &FakeCredentialDist,
    rng: &mut dyn Rng,
) -> GameView {
    let mut revealed = 0usize;
    for _ in 0..honest_voters {
        revealed += 1 + dist.sample(rng);
    }
    revealed += demanded_fakes + 1 + usize::from(evade);
    GameView {
        revealed_envelopes: revealed,
    }
}

/// Runs the experiment: estimates the best count-based distinguisher's
/// advantage empirically and compares with the analytic TV distance.
pub fn run_experiment(
    honest_voters: usize,
    demanded_fakes: usize,
    trials: usize,
    dist: &FakeCredentialDist,
    rng: &mut dyn Rng,
) -> CoercionExperiment {
    // Collect count histograms for both worlds.
    let mut hist_comply = std::collections::HashMap::<usize, usize>::new();
    let mut hist_evade = std::collections::HashMap::<usize, usize>::new();
    for _ in 0..trials {
        let v = play_once(false, demanded_fakes, honest_voters, dist, rng);
        *hist_comply.entry(v.revealed_envelopes).or_insert(0) += 1;
        let v = play_once(true, demanded_fakes, honest_voters, dist, rng);
        *hist_evade.entry(v.revealed_envelopes).or_insert(0) += 1;
    }
    // The optimal distinguisher's advantage is the TV distance between the
    // empirical view distributions.
    let keys: std::collections::HashSet<usize> = hist_comply
        .keys()
        .chain(hist_evade.keys())
        .copied()
        .collect();
    let mut tv = 0.0;
    for k in keys {
        let p = *hist_comply.get(&k).unwrap_or(&0) as f64 / trials as f64;
        let q = *hist_evade.get(&k).unwrap_or(&0) as f64 / trials as f64;
        tv += (p - q).abs();
    }
    let empirical_advantage = tv / 2.0;

    CoercionExperiment {
        trials,
        honest_voters,
        empirical_advantage,
        analytic_tv: analytic_shift_tv(honest_voters, dist),
    }
}

/// Analytic TV distance between Σᵢ (1 + D_c) over `honest` voters and the
/// same sum shifted by one — the ideal game's residual uncertainty.
/// Computed by convolving the (truncated) D_c pmf.
pub fn analytic_shift_tv(honest: usize, dist: &FakeCredentialDist) -> f64 {
    // pmf of the sum of `honest` iid copies of D_c (offsets cancel in the
    // shift comparison).
    let base: Vec<f64> = (0..=dist.max).map(|k| dist.pmf(k)).collect();
    let mut sum = vec![1.0f64];
    for _ in 0..honest {
        let mut next = vec![0.0; sum.len() + dist.max];
        for (i, &p) in sum.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            for (j, &q) in base.iter().enumerate() {
                next[i + j] += p * q;
            }
        }
        sum = next;
    }
    // TV(sum, sum shifted by 1).
    let mut tv = 0.0;
    for i in 0..=sum.len() {
        let p = if i < sum.len() { sum[i] } else { 0.0 };
        let q = if i >= 1 && i - 1 < sum.len() {
            sum[i - 1]
        } else {
            0.0
        };
        tv += (p - q).abs();
    }
    tv / 2.0
}

/// Structural indistinguishability check used by the integration tests:
/// registers a voter with the real system, activates a real and a fake
/// credential, and confirms the two activated credentials expose no
/// distinguishing field beyond their (independently random) key material.
pub fn credentials_structurally_indistinguishable(rng: &mut dyn Rng) -> bool {
    use vg_ledger::VoterId;
    use vg_trip::protocol::{activate_all, register_voter};
    use vg_trip::setup::{TripConfig, TripSystem};

    let mut system = TripSystem::setup(TripConfig::with_voters(1), rng);
    let mut outcome = match register_voter(&mut system, VoterId(1), 1, rng) {
        Ok(o) => o,
        Err(_) => return false,
    };
    let vsd = match activate_all(&mut system, &mut outcome) {
        Ok(v) => v,
        Err(_) => return false,
    };
    if vsd.credentials.len() != 2 {
        return false;
    }
    let real = &vsd.credentials[0];
    let fake = &vsd.credentials[1];
    // Same public tag, same kiosk, both passed the same checks; the only
    // differences are the per-credential random values.
    real.c_pc == fake.c_pc
        && real.kiosk_pk == fake.kiosk_pk
        && real.public_key() != fake.public_key()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::HmacDrbg;

    #[test]
    fn advantage_shrinks_with_honest_population() {
        let dist = FakeCredentialDist::default();
        let tv_small = analytic_shift_tv(5, &dist);
        let tv_large = analytic_shift_tv(100, &dist);
        assert!(
            tv_large < tv_small,
            "more honest voters must add uncertainty: {tv_large} vs {tv_small}"
        );
        assert!(tv_large < 0.1, "{tv_large}");
    }

    #[test]
    fn empirical_tracks_analytic() {
        let dist = FakeCredentialDist::default();
        let mut rng = HmacDrbg::from_u64(1);
        let exp = run_experiment(30, 1, 4000, &dist, &mut rng);
        // Empirical advantage includes sampling noise; it must be in the
        // neighbourhood of the analytic TV.
        assert!(
            (exp.empirical_advantage - exp.analytic_tv).abs() < 0.08,
            "empirical {} vs analytic {}",
            exp.empirical_advantage,
            exp.analytic_tv
        );
    }

    #[test]
    fn structural_indistinguishability() {
        let mut rng = HmacDrbg::from_u64(2);
        assert!(credentials_structurally_indistinguishable(&mut rng));
    }

    #[test]
    fn demanding_more_fakes_does_not_help() {
        // Hybrid 2 of the proof: the coercer's demanded fake count shifts
        // both worlds identically, so the advantage is unchanged.
        let dist = FakeCredentialDist::default();
        let mut rng = HmacDrbg::from_u64(3);
        let exp0 = run_experiment(30, 0, 3000, &dist, &mut rng);
        let exp3 = run_experiment(30, 3, 3000, &dist, &mut rng);
        assert!((exp0.empirical_advantage - exp3.empirical_advantage).abs() < 0.05);
    }
}
