//! Simulated kiosk hardware: QR codec, device profiles and peripherals.
//!
//! The paper's registration experiments (§7.1–7.2, Fig 4) run TRIP on four
//! physical platforms with a thermal receipt printer and a Bluetooth QR
//! scanner. This crate simulates that substrate on one host, scaling host
//! compute per device and modelling the peripherals' mechanical latencies:
//!
//! - [`gf256`] and [`rs`]: GF(2^8) arithmetic and a full Reed–Solomon
//!   encoder/decoder (Berlekamp–Massey, Chien, Forney);
//! - [`qr`]: a QR-style symbol codec (byte mode, RS parity, block
//!   interleaving, module bitmap) covering the paper's 13–356-byte
//!   payload range;
//! - [`device`]: profiles for the L1/L2/H1/H2 platforms, calibrated from
//!   the paper's reported CPU and peripheral breakdowns;
//! - [`peripherals`]: printer/scanner simulation that really encodes and
//!   decodes every payload while charging modelled mechanical latencies;
//! - [`metrics`]: the (phase × component) wall/CPU accounting of Fig 4.
//!
//! This crate forbids `unsafe` code (`#![forbid(unsafe_code)]`): the
//! whole workspace is safe Rust, locked in by the `vg-lint` analyzer's
//! `forbid-unsafe` rule.

#![forbid(unsafe_code)]

pub mod device;
pub mod gf256;
pub mod metrics;
pub mod peripherals;
pub mod qr;
pub mod rs;

pub use device::DeviceProfile;
pub use metrics::{Component, MetricsCollector, Phase, Sample};
pub use peripherals::Peripherals;
pub use qr::{QrError, QrSymbol};
