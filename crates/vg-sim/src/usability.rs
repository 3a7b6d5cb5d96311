//! Usability-study behavioural model and malicious-kiosk detection
//! analysis (§7.5).
//!
//! The paper's 150-participant study \[94\] cannot be re-run with humans,
//! so its published rates become a behavioural model:
//! 83% task success, a System Usability Scale score of 70.4, and
//! kiosk-misbehaviour detection of 47% (with security education) or 10%
//! (without). From the detection rate the paper derives the integrity
//! claim this module reproduces both analytically and by Monte-Carlo
//! against the *real* malicious-kiosk implementation: a kiosk that steals
//! credentials from 50 voters evades detection with probability < 1%, and
//! from 1000 voters with probability ≈ 2^−152.

use vg_crypto::Rng;
use vg_ledger::VoterId;
use vg_trip::kiosk::KioskBehavior;
use vg_trip::protocol::{register_voter, trace_shows_honest_real_flow};
use vg_trip::setup::{TripConfig, TripSystem};

/// The behavioural parameters published by the companion study.
#[derive(Clone, Debug)]
pub struct UsabilityModel {
    /// Probability a participant completes registration and casts a mock
    /// vote with their real credential (83%).
    pub task_success: f64,
    /// Probability a security-educated participant detects and reports a
    /// misbehaving kiosk (47%).
    pub detection_with_education: f64,
    /// Detection probability without security education (10%).
    pub detection_without_education: f64,
    /// Mean System Usability Scale score (70.4; industry average is 68).
    pub sus_mean: f64,
    /// SUS standard deviation (typical spread for SUS studies).
    pub sus_sd: f64,
}

impl Default for UsabilityModel {
    fn default() -> Self {
        Self {
            task_success: 0.83,
            detection_with_education: 0.47,
            detection_without_education: 0.10,
            sus_mean: 70.4,
            sus_sd: 14.0,
        }
    }
}

/// Aggregate outcome of a simulated study cohort.
#[derive(Clone, Debug)]
pub struct StudyOutcome {
    /// Participants who completed the full task.
    pub successes: usize,
    /// Participants exposed to the malicious kiosk who reported it,
    /// among the educated group.
    pub detections_educated: usize,
    /// Size of the educated, exposed group.
    pub exposed_educated: usize,
    /// Detections among the non-educated exposed group.
    pub detections_uneducated: usize,
    /// Size of the non-educated exposed group.
    pub exposed_uneducated: usize,
    /// Mean SUS score of the cohort.
    pub sus_mean: f64,
}

impl StudyOutcome {
    /// Observed success rate.
    pub fn success_rate(&self, cohort: usize) -> f64 {
        self.successes as f64 / cohort as f64
    }
}

/// Probability that a malicious kiosk serving `n_voters` evades every
/// report: (1 − p)^n.
pub fn evasion_probability(p_detect: f64, n_voters: u32) -> f64 {
    (1.0 - p_detect).powi(n_voters as i32)
}

/// log₂ of the evasion probability (finite even when the probability
/// underflows f64, e.g. the paper's 2^−152 for 1000 voters at p = 0.1).
pub fn log2_evasion_probability(p_detect: f64, n_voters: u32) -> f64 {
    n_voters as f64 * (1.0 - p_detect).log2()
}

/// Simulates a study cohort: each participant registers at a **real**
/// malicious kiosk (credential-stealing behaviour), observes the genuine
/// event trace, and reports according to the model.
///
/// Returns the cohort outcome; `educated_fraction` of participants receive
/// security education.
pub fn simulate_study(
    model: &UsabilityModel,
    cohort: usize,
    educated_fraction: f64,
    rng: &mut dyn Rng,
) -> StudyOutcome {
    let mut outcome = StudyOutcome {
        successes: 0,
        detections_educated: 0,
        exposed_educated: 0,
        detections_uneducated: 0,
        exposed_uneducated: 0,
        sus_mean: 0.0,
    };
    let mut sus_total = 0.0;
    for i in 0..cohort {
        // Task success (registration + mock vote).
        if rng.unit_f64() < model.task_success {
            outcome.successes += 1;
        }
        // Exposure to the malicious kiosk: run a real session.
        let mut system = TripSystem::setup_with_behavior(
            TripConfig::with_voters(1),
            KioskBehavior::StealsRealCredential,
            rng,
        );
        let reg =
            register_voter(&mut system, VoterId(1), 0, rng).expect("malicious session completes");
        let anomalous = !trace_shows_honest_real_flow(&reg.events);
        debug_assert!(anomalous, "the stealing kiosk's trace is anomalous");

        let educated = (i as f64) < educated_fraction * cohort as f64;
        let p = if educated {
            outcome.exposed_educated += 1;
            model.detection_with_education
        } else {
            outcome.exposed_uneducated += 1;
            model.detection_without_education
        };
        if anomalous && rng.unit_f64() < p {
            if educated {
                outcome.detections_educated += 1;
            } else {
                outcome.detections_uneducated += 1;
            }
        }
        // SUS score (clamped normal via central limit of 12 uniforms).
        let z: f64 = (0..12).map(|_| rng.unit_f64()).sum::<f64>() - 6.0;
        sus_total += (model.sus_mean + z * model.sus_sd).clamp(0.0, 100.0);
    }
    outcome.sus_mean = sus_total / cohort as f64;
    outcome
}

/// Monte-Carlo estimate of the evasion probability using real malicious
/// kiosk sessions: the kiosk survives if *no* voter reports it.
pub fn simulate_evasion(p_detect: f64, n_voters: u32, trials: usize, rng: &mut dyn Rng) -> f64 {
    let mut evaded = 0usize;
    for _ in 0..trials {
        let mut caught = false;
        for _ in 0..n_voters {
            if rng.unit_f64() < p_detect {
                caught = true;
                break;
            }
        }
        if !caught {
            evaded += 1;
        }
    }
    evaded as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::HmacDrbg;

    #[test]
    fn paper_claim_fifty_voters_under_one_percent() {
        // §7.5: "the probability that such a kiosk could trick 50 voters
        // without detection is under 1%" at p = 0.1.
        let p = evasion_probability(0.10, 50);
        assert!(p < 0.01, "{p}");
        assert!(p > 0.001, "{p}"); // ≈ 0.0052.
    }

    #[test]
    fn paper_claim_thousand_voters_negligible() {
        // §7.5: "for 1000 voters, that drops to ... 1/2^152".
        let log2 = log2_evasion_probability(0.10, 1000);
        assert!((-153.0..=-151.0).contains(&log2), "log2 evasion = {log2}");
    }

    #[test]
    fn study_rates_near_model() {
        let model = UsabilityModel::default();
        let mut rng = HmacDrbg::from_u64(1);
        let cohort = 300;
        let out = simulate_study(&model, cohort, 0.5, &mut rng);
        let success = out.success_rate(cohort);
        assert!((success - 0.83).abs() < 0.07, "success {success}");
        let det_ed = out.detections_educated as f64 / out.exposed_educated as f64;
        assert!((det_ed - 0.47).abs() < 0.12, "educated detection {det_ed}");
        let det_un = out.detections_uneducated as f64 / out.exposed_uneducated as f64;
        assert!(
            (det_un - 0.10).abs() < 0.08,
            "uneducated detection {det_un}"
        );
        assert!(
            out.sus_mean > 60.0 && out.sus_mean < 80.0,
            "{}",
            out.sus_mean
        );
    }

    #[test]
    fn monte_carlo_matches_closed_form() {
        let mut rng = HmacDrbg::from_u64(2);
        let estimated = simulate_evasion(0.10, 20, 4000, &mut rng);
        let exact = evasion_probability(0.10, 20); // ≈ 0.1216.
        assert!((estimated - exact).abs() < 0.03, "{estimated} vs {exact}");
    }
}
