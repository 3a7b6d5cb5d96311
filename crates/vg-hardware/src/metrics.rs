//! Latency accounting for the registration experiments (Fig 4).
//!
//! The paper breaks every registration phase into four components —
//! cryptography & logic, QR encode/decode ("QR Read/Write"), QR scanning
//! and QR printing — and reports wall-clock and CPU medians per device.
//! [`MetricsCollector`] accumulates (phase, component) samples; simulated
//! peripheral time comes from the device models, real compute time from
//! host measurement scaled per device.

use std::collections::BTreeMap;

/// The registration phases of Fig 4's x-axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Official issues the check-in ticket.
    CheckIn,
    /// Kiosk validates the ticket (session authorization).
    Authorization,
    /// Real-credential creation.
    RealToken,
    /// Fake-credential creation.
    FakeToken,
    /// Check-out at the official's desk.
    CheckOut,
    /// Credential activation on the voter's device.
    Activation,
}

impl Phase {
    /// All phases in figure order.
    pub const ALL: [Phase; 6] = [
        Phase::CheckIn,
        Phase::Authorization,
        Phase::RealToken,
        Phase::FakeToken,
        Phase::CheckOut,
        Phase::Activation,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::CheckIn => "CheckIn",
            Phase::Authorization => "Authorization",
            Phase::RealToken => "RealToken",
            Phase::FakeToken => "FakeToken",
            Phase::CheckOut => "CheckOut",
            Phase::Activation => "Activation",
        }
    }
}

/// The latency components of Fig 4's legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Component {
    /// Cryptographic operations and protocol logic.
    CryptoLogic,
    /// QR encoding/decoding compute.
    QrReadWrite,
    /// Scanner transfer time.
    QrScan,
    /// Printer time.
    QrPrint,
}

impl Component {
    /// All components in figure order.
    pub const ALL: [Component; 4] = [
        Component::CryptoLogic,
        Component::QrReadWrite,
        Component::QrScan,
        Component::QrPrint,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Component::CryptoLogic => "Crypto & Logic",
            Component::QrReadWrite => "QR Read/Write",
            Component::QrScan => "QR Scan",
            Component::QrPrint => "QR Print",
        }
    }
}

/// A wall/CPU sample in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sample {
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// CPU milliseconds (user + system).
    pub cpu_ms: f64,
    /// Charges recorded into the cell (per run, once scaled to a mean).
    pub charges: f64,
}

/// Accumulates samples per (phase, component).
#[derive(Debug, Default, Clone)]
pub struct MetricsCollector {
    cells: BTreeMap<(Phase, Component), Sample>,
}

impl MetricsCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample to a (phase, component) cell.
    pub fn record(&mut self, phase: Phase, component: Component, wall_ms: f64, cpu_ms: f64) {
        let cell = self.cells.entry((phase, component)).or_default();
        cell.wall_ms += wall_ms;
        cell.cpu_ms += cpu_ms;
        cell.charges += 1.0;
    }

    /// The accumulated sample for a cell.
    pub fn get(&self, phase: Phase, component: Component) -> Sample {
        self.cells
            .get(&(phase, component))
            .copied()
            .unwrap_or_default()
    }

    /// Total wall-clock milliseconds across all cells.
    pub fn total_wall_ms(&self) -> f64 {
        self.cells.values().map(|s| s.wall_ms).sum()
    }

    /// Total CPU milliseconds across all cells.
    pub fn total_cpu_ms(&self) -> f64 {
        self.cells.values().map(|s| s.cpu_ms).sum()
    }

    /// Wall-clock total for one phase.
    pub fn phase_wall_ms(&self, phase: Phase) -> f64 {
        Component::ALL
            .iter()
            .map(|c| self.get(phase, *c).wall_ms)
            .sum()
    }

    /// Wall-clock total for one component across phases.
    pub fn component_wall_ms(&self, component: Component) -> f64 {
        Phase::ALL
            .iter()
            .map(|p| self.get(*p, component).wall_ms)
            .sum()
    }

    /// Mean wall-clock milliseconds per charge of one component (e.g. per
    /// QR scan), across phases; 0 for a component with no charges.
    pub fn mean_wall_ms(&self, component: Component) -> f64 {
        let charges: f64 = Phase::ALL
            .iter()
            .map(|p| self.get(*p, component).charges)
            .sum();
        if charges == 0.0 {
            0.0
        } else {
            self.component_wall_ms(component) / charges
        }
    }

    /// Fraction of total wall time spent in QR scan + print (the ≥69.5%
    /// headline of §7.2).
    pub fn qr_io_fraction(&self) -> f64 {
        let io =
            self.component_wall_ms(Component::QrScan) + self.component_wall_ms(Component::QrPrint);
        let total = self.total_wall_ms();
        if total == 0.0 {
            0.0
        } else {
            io / total
        }
    }

    /// Merges another collector into this one (for averaging runs).
    pub fn merge(&mut self, other: &MetricsCollector) {
        for (&key, sample) in &other.cells {
            let cell = self.cells.entry(key).or_default();
            cell.wall_ms += sample.wall_ms;
            cell.cpu_ms += sample.cpu_ms;
            cell.charges += sample.charges;
        }
    }

    /// Scales all samples by `factor` (e.g. 1/runs for the mean).
    pub fn scale(&mut self, factor: f64) {
        for sample in self.cells.values_mut() {
            sample.wall_ms *= factor;
            sample.cpu_ms *= factor;
            sample.charges *= factor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_aggregate() {
        let mut m = MetricsCollector::new();
        m.record(Phase::CheckIn, Component::CryptoLogic, 1.0, 0.5);
        m.record(Phase::CheckIn, Component::QrPrint, 9.0, 2.0);
        m.record(Phase::RealToken, Component::QrScan, 10.0, 0.1);
        assert_eq!(m.phase_wall_ms(Phase::CheckIn), 10.0);
        assert_eq!(m.total_wall_ms(), 20.0);
        assert_eq!(m.component_wall_ms(Component::QrScan), 10.0);
        assert!((m.qr_io_fraction() - 19.0 / 20.0).abs() < 1e-9);
    }

    #[test]
    fn merge_and_scale() {
        let mut a = MetricsCollector::new();
        a.record(Phase::CheckOut, Component::CryptoLogic, 4.0, 2.0);
        let mut b = MetricsCollector::new();
        b.record(Phase::CheckOut, Component::CryptoLogic, 6.0, 4.0);
        a.merge(&b);
        a.scale(0.5);
        let s = a.get(Phase::CheckOut, Component::CryptoLogic);
        assert_eq!(s.wall_ms, 5.0);
        assert_eq!(s.cpu_ms, 3.0);
    }

    #[test]
    fn mean_per_charge_survives_averaging() {
        let mut a = MetricsCollector::new();
        a.record(Phase::CheckIn, Component::QrScan, 800.0, 1.0);
        a.record(Phase::Activation, Component::QrScan, 1000.0, 1.0);
        let b = a.clone();
        a.merge(&b);
        a.scale(0.5);
        assert_eq!(a.mean_wall_ms(Component::QrScan), 900.0);
    }

    #[test]
    fn empty_collector_is_zero() {
        let m = MetricsCollector::new();
        assert_eq!(m.total_wall_ms(), 0.0);
        assert_eq!(m.qr_io_fraction(), 0.0);
        assert_eq!(m.mean_wall_ms(Component::QrScan), 0.0);
    }
}
