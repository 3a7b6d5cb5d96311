//! Regenerates Fig 5a: per-voter latency for the registration, voting and
//! tally phases across the four systems and voter populations.
//!
//! `cargo run -p vg-bench --release --bin fig5a \
//!     [--sizes-max 1000000] [--cap 200] [--cap-civitas 24] [--options 3]`
//!
//! Populations above the caps are measured at the cap and extrapolated
//! (linear for the linear systems, quadratic for the Civitas tally),
//! mirroring the paper's own extrapolation of Civitas beyond 10^4 voters.

use vg_bench::{arg_usize, print_table};
use vg_sim::fig5::{run_fig5, SystemKind};

fn main() {
    let max = arg_usize("--sizes-max", 1_000_000);
    let cap = arg_usize("--cap", 200);
    let cap_civitas = arg_usize("--cap-civitas", 24);
    let n_options = u32::try_from(arg_usize("--options", 3)).unwrap_or_else(|_| {
        eprintln!("--options takes at most {}", u32::MAX);
        std::process::exit(2)
    });

    let mut sizes = vec![];
    let mut n = 100usize;
    while n <= max {
        sizes.push(n);
        n *= 10;
    }
    eprintln!("Measuring sizes {sizes:?} (direct up to {cap}, Civitas up to {cap_civitas})…");
    let rows = run_fig5(&sizes, cap, cap_civitas, n_options, 0xF165);

    println!();
    println!("Figure 5a — per-voter wall-clock latency (ms) per phase");
    println!("('~' marks values extrapolated from a smaller measured run)\n");
    let mut table = Vec::new();
    for &n in &sizes {
        for kind in SystemKind::ALL {
            let row = rows
                .iter()
                .find(|r| r.n_voters == n && r.system == kind)
                .expect("row present");
            let mark = if row.extrapolated() { "~" } else { "" };
            table.push(vec![
                format!("{n}"),
                kind.name().to_string(),
                format!("{mark}{:.3}", row.register_per_voter_ms()),
                format!("{mark}{:.3}", row.vote_per_voter_ms()),
                format!("{mark}{:.3}", row.tally_per_voter_ms()),
            ]);
        }
    }
    print_table(
        &[
            "Voters",
            "System",
            "Reg ms/voter",
            "Vote ms/voter",
            "Tally ms/voter",
        ],
        &table,
    );
    println!(
        "\nPaper (10^6 voters): registration 1.2 ms TRIP / 13 ms SwissPost / \
         0.1 ms VoteAgain / 771 ms Civitas;\nvoting 1 / 10 / 10 / 128 ms. \
         Expected shape: VoteAgain < TRIP < SwissPost << Civitas (registration);\n\
         TRIP fastest voting; Civitas tally explodes quadratically."
    );
}
