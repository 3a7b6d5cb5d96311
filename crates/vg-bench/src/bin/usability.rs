//! Regenerates the §7.5 usability results from the behavioural model:
//! task success, SUS, kiosk-detection rates, and the malicious-kiosk
//! evasion probabilities (including the 2^−152 headline).
//!
//! `cargo run -p vg-bench --release --bin usability [--cohort 150]`

use vg_bench::{arg_usize, print_table};
use vg_crypto::HmacDrbg;
use vg_sim::usability::{
    evasion_probability, log2_evasion_probability, simulate_study, UsabilityModel,
};

fn main() {
    let cohort = arg_usize("--cohort", 150);
    let model = UsabilityModel::default();
    let mut rng = HmacDrbg::from_u64(0x05AB);

    eprintln!("Simulating a {cohort}-participant study with real malicious-kiosk sessions…");
    let out = simulate_study(&model, cohort, 0.5, &mut rng);

    println!("\n§7.5 usability study (simulated cohort of {cohort}; paper: 150 humans)\n");
    print_table(
        &["Metric", "Simulated", "Paper"],
        &[
            vec![
                "Task success rate".into(),
                format!("{:.0}%", out.success_rate(cohort) * 100.0),
                "83%".into(),
            ],
            vec![
                "SUS score (mean)".into(),
                format!("{:.1}", out.sus_mean),
                "70.4 (industry avg 68)".into(),
            ],
            vec![
                "Kiosk detection (educated)".into(),
                format!(
                    "{:.0}%",
                    100.0 * out.detections_educated as f64 / out.exposed_educated.max(1) as f64
                ),
                "47%".into(),
            ],
            vec![
                "Kiosk detection (no educ.)".into(),
                format!(
                    "{:.0}%",
                    100.0 * out.detections_uneducated as f64 / out.exposed_uneducated.max(1) as f64
                ),
                "10%".into(),
            ],
        ],
    );

    println!("\nMalicious-kiosk evasion probability (detection rate 10%):\n");
    let mut rows = Vec::new();
    for n in [10u32, 50, 100, 500, 1000] {
        let p = evasion_probability(0.10, n);
        let log2 = log2_evasion_probability(0.10, n);
        rows.push(vec![
            format!("{n}"),
            if p > 1e-9 {
                format!("{p:.6}")
            } else {
                "~0".into()
            },
            format!("2^{log2:.1}"),
        ]);
    }
    print_table(&["Voters served", "P(evade all)", "log-scale"], &rows);
    println!(
        "\nPaper: <1% at 50 voters; ~2^-152 at 1000 voters. \
         (Here: {:.4} at 50; 2^{:.1} at 1000.)",
        evasion_probability(0.10, 50),
        log2_evasion_probability(0.10, 1000)
    );
}
