//! Workloads, behavioural models and experiment runners for the
//! TRIP/Votegral reproduction.
//!
//! - [`population`]: the honest-voter distributions D_c (fake credentials)
//!   and D_v (vote choices) of the coercion analysis (Appendix F.1);
//! - [`usability`]: the §7.5 user-study behavioural model and the
//!   malicious-kiosk detection math (evasion < 1% at 50 voters, ≈ 2^−152
//!   at 1000);
//! - [`ivbound`]: exact evaluation of the individual-verifiability bound
//!   of Theorem §5.1, with a Monte-Carlo cross-check of the
//!   envelope-stuffing game;
//! - [`coercion`]: the empirical C-Resist experiment (Appendix F.1);
//! - [`bench_adapter`]: TRIP-Core/Votegral as a
//!   [`vg_baselines::BenchSystem`];
//! - [`fig4`], [`fig5`]: the runners regenerating the evaluation figures.
//!
//! This crate forbids `unsafe` code (`#![forbid(unsafe_code)]`): the
//! whole workspace is safe Rust, locked in by the `vg-lint` analyzer's
//! `forbid-unsafe` rule.

#![forbid(unsafe_code)]

pub mod bench_adapter;
pub mod coercion;
pub mod fig4;
pub mod fig5;
pub mod ivbound;
pub mod population;
pub mod usability;

pub use bench_adapter::{bench_rng, VotegralCore};
pub use fig4::{run_all_devices, run_device, DeviceRun};
pub use fig5::{measure, measure_with_cap, run_fig5, PhaseTiming, SystemKind};
pub use population::{FakeCredentialDist, VoteDist};
pub use usability::{
    evasion_probability, log2_evasion_probability, simulate_study, UsabilityModel,
};
