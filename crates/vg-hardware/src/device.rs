//! Hardware device profiles for the four evaluation platforms (§7.1).
//!
//! The paper measures TRIP on (L1) a Point-of-Sale kiosk, (L2) a Raspberry
//! Pi 4, (H1) a MacBook Pro M1 Max VM and (H2) a Beelink GTR7, all with the
//! same EPSON TM-T20III printer and a Bluetooth QR scanner. We have one
//! machine, so the profiles below *scale measured host CPU time* by
//! per-device factors and add peripheral latencies, both calibrated from
//! the paper's own reported breakdowns:
//!
//! - resource-constrained devices run ≈2.6× the CPU time of the H devices,
//!   with QR print rendering ≈3.8× slower (§7.2);
//! - a QR scan averages ≈948 ms, dominated by Bluetooth transfer and thus
//!   roughly device-independent;
//! - thermal printing is mechanical: one feed/cut per print job plus
//!   per-byte ink time shared across devices, the CPU-side render scaled.

/// A simulated hardware platform.
#[derive(Debug, Clone)]
pub struct DeviceProfile {
    /// Short label used in tables: L for the resource-constrained devices,
    /// H for the resource-abundant ones (§7.2).
    pub label: &'static str,
    /// Human-readable name.
    pub name: &'static str,
    /// Multiplier applied to measured host CPU time for crypto/logic.
    pub cpu_scale: f64,
    /// Multiplier applied to measured host CPU time for QR encode/decode.
    pub qr_codec_scale: f64,
    /// Fixed mechanical print latency (feed, cut) in ms.
    pub print_fixed_ms: f64,
    /// Mechanical print time per payload byte in ms.
    pub print_per_byte_ms: f64,
    /// CPU render multiplier for printing (the 380% gap of §7.2).
    pub print_render_scale: f64,
    /// Fixed scan latency (trigger, decode handshake) in ms.
    pub scan_fixed_ms: f64,
    /// Bluetooth transfer time per payload byte in ms.
    pub scan_per_byte_ms: f64,
    /// Fraction of CPU time attributed to the system (kernel) — used for
    /// the user/system split of Fig 4b.
    pub system_cpu_fraction: f64,
}

impl DeviceProfile {
    /// (L1) The Point-of-Sale kiosk used in the user study
    /// (quad-core Cortex-A17, 2 GB RAM).
    pub fn pos_kiosk() -> Self {
        Self {
            label: "L1",
            name: "Point-of-Sale Kiosk (Cortex-A17)",
            cpu_scale: 10.5,
            qr_codec_scale: 9.0,
            print_fixed_ms: 1500.0,
            print_per_byte_ms: 4.4,
            print_render_scale: 14.0,
            scan_fixed_ms: 790.0,
            scan_per_byte_ms: 0.56,
            system_cpu_fraction: 0.42,
        }
    }

    /// (L2) Raspberry Pi 4 (quad-core Cortex-A72, 4 GB RAM).
    pub fn raspberry_pi4() -> Self {
        Self {
            label: "L2",
            name: "Raspberry Pi 4 (Cortex-A72)",
            cpu_scale: 8.0,
            qr_codec_scale: 7.0,
            print_fixed_ms: 1400.0,
            print_per_byte_ms: 4.2,
            print_render_scale: 11.0,
            scan_fixed_ms: 785.0,
            scan_per_byte_ms: 0.55,
            system_cpu_fraction: 0.38,
        }
    }

    /// (H1) MacBook Pro M1 Max (Parallels VM, Ubuntu 22.04).
    pub fn macbook_pro() -> Self {
        Self {
            label: "H1",
            name: "MacBook Pro M1 Max (VM)",
            cpu_scale: 3.0,
            qr_codec_scale: 2.6,
            print_fixed_ms: 950.0,
            print_per_byte_ms: 3.2,
            print_render_scale: 3.2,
            scan_fixed_ms: 770.0,
            scan_per_byte_ms: 0.54,
            system_cpu_fraction: 0.30,
        }
    }

    /// (H2) Beelink GTR7 (AMD Ryzen 7840HS, 32 GB RAM).
    pub fn beelink_gtr7() -> Self {
        Self {
            label: "H2",
            name: "Beelink GTR7 (Ryzen 7840HS)",
            cpu_scale: 3.3,
            qr_codec_scale: 2.9,
            print_fixed_ms: 1000.0,
            print_per_byte_ms: 3.3,
            print_render_scale: 3.6,
            scan_fixed_ms: 775.0,
            scan_per_byte_ms: 0.54,
            system_cpu_fraction: 0.31,
        }
    }

    /// All four evaluation platforms in the paper's order.
    pub fn all() -> Vec<DeviceProfile> {
        vec![
            Self::pos_kiosk(),
            Self::raspberry_pi4(),
            Self::macbook_pro(),
            Self::beelink_gtr7(),
        ]
    }

    /// Simulated wall-clock time of one print job of `bytes` payload bytes.
    pub fn print_wall_ms(&self, bytes: usize, host_render_cpu_ms: f64) -> f64 {
        self.print_fixed_ms
            + self.print_per_byte_ms * bytes as f64
            + host_render_cpu_ms * self.print_render_scale
    }

    /// Simulated wall-clock scan time for a payload of `bytes` — the
    /// ≈948 ms average of §7.2 at typical payload sizes.
    pub fn scan_wall_ms(&self, bytes: usize) -> f64 {
        self.scan_fixed_ms + self.scan_per_byte_ms * bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_profiles_in_paper_order() {
        let labels: Vec<_> = DeviceProfile::all().iter().map(|d| d.label).collect();
        assert_eq!(labels, ["L1", "L2", "H1", "H2"]);
    }

    #[test]
    fn l_devices_cost_more_cpu() {
        let l1 = DeviceProfile::pos_kiosk();
        let h1 = DeviceProfile::macbook_pro();
        // §7.2: L CPU ≈ 260% higher on average.
        let ratio = l1.cpu_scale / h1.cpu_scale;
        assert!(ratio > 2.0 && ratio < 5.0, "ratio {ratio}");
        // Print rendering ≈ 380% slower.
        let print_ratio = l1.print_render_scale / h1.print_render_scale;
        assert!(
            print_ratio > 3.0 && print_ratio < 6.0,
            "print {print_ratio}"
        );
    }

    #[test]
    fn scan_time_near_paper_average() {
        // §7.2: ≈948 ms per scan on average across devices at the paper's
        // typical payload sizes (13–356 bytes, mid ≈ 280 for receipts).
        let avg: f64 = DeviceProfile::all()
            .iter()
            .map(|d| d.scan_wall_ms(300))
            .sum::<f64>()
            / 4.0;
        assert!((avg - 948.0).abs() < 120.0, "avg {avg}");
    }

    #[test]
    fn print_time_monotone_in_bytes() {
        let d = DeviceProfile::pos_kiosk();
        assert!(d.print_wall_ms(400, 2.0) > d.print_wall_ms(100, 2.0));
    }
}
