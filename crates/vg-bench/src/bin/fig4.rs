//! Regenerates Fig 4: voter-observable registration latencies per
//! sub-task across the four hardware platforms.
//!
//! `cargo run -p vg-bench --release --bin fig4 [--runs N] [--cpu]`
//!
//! Each run is one registration through the booth every registration runs
//! (`vg_trip::fleet::run_session`), printing and scanning the real QR
//! payloads (see `vg_sim::fig4`). Without `--cpu` prints the wall-clock
//! breakdown (Fig 4a); with it, the CPU breakdown with user/system split
//! (Fig 4b). `--runs 0` is refused with status 2.

use vg_bench::{arg_flag, arg_usize, print_table};
use vg_crypto::HmacDrbg;
use vg_hardware::metrics::{Component, Phase};
use vg_sim::fig4::run_all_devices;

fn main() {
    let runs = arg_usize("--runs", 3);
    let cpu_mode = arg_flag("--cpu");
    let mut rng = HmacDrbg::from_u64(0xF164);

    eprintln!("Running {runs} scripted registrations (1 real + 1 fake) per device…");
    let device_runs = run_all_devices(runs, &mut rng);

    println!();
    if cpu_mode {
        println!("Figure 4b — CPU median latency per sub-task (ms), user+system");
    } else {
        println!("Figure 4a — wall-clock median latency per sub-task (ms)");
    }
    println!("(one registration: 1 real + 1 fake credential, as in §7.2)\n");

    let mut headers = vec!["Phase", "Component"];
    for run in &device_runs {
        headers.push(run.device.label);
    }
    let mut rows = Vec::new();
    for phase in Phase::ALL {
        for component in Component::ALL {
            let mut row = vec![phase.label().to_string(), component.label().to_string()];
            let mut any = false;
            for run in &device_runs {
                let s = run.metrics.get(phase, component);
                let v = if cpu_mode { s.cpu_ms } else { s.wall_ms };
                if v > 0.005 {
                    any = true;
                }
                row.push(if cpu_mode {
                    let sys = v * run.device.system_cpu_fraction;
                    format!("{:.1} ({:.1}u/{:.1}s)", v, v - sys, sys)
                } else {
                    format!("{v:.1}")
                });
            }
            if any {
                rows.push(row);
            }
        }
    }
    print_table(&headers, &rows);

    // §7.2 summary block.
    println!("\nSummary (paper's §7.2 headline numbers alongside):");
    let mut summary = Vec::new();
    for run in &device_runs {
        let total = run.metrics.total_wall_ms();
        summary.push(vec![
            run.device.label.to_string(),
            run.device.name.to_string(),
            format!("{:.1} s", total / 1e3),
            format!("{:.1}%", run.metrics.qr_io_fraction() * 100.0),
            format!("{:.0} ms", run.metrics.mean_wall_ms(Component::QrScan)),
        ]);
    }
    print_table(
        &["Dev", "Platform", "Total wall", "QR I/O share", "Avg scan"],
        &summary,
    );
    println!(
        "\nPaper: max 19.7 s (L1), min 15.8 s (H1); QR print+scan >= 69.5% of wall;\n\
         ~948 ms per QR scan; L devices ~2.6x the CPU of H devices."
    );
}
