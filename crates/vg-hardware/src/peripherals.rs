//! Simulated kiosk peripherals: receipt printer and QR scanner.
//!
//! The prototype drives an EPSON TM-T20III thermal printer (via CUPS, which
//! the authors instrumented for latency capture, §7.2) and a Bluetooth
//! barcode/QR scanner. We simulate both: a print job really encodes each
//! payload into its own QR symbol (measured as QR Read/Write compute), then
//! charges the device's mechanical print model once for the whole job; a
//! scan really decodes the symbol (compute) and charges the transfer model.
//! Wall-clock latencies land in a [`MetricsCollector`] exactly like the
//! paper's breakdown.

use std::time::Instant;

use crate::device::DeviceProfile;
use crate::metrics::{Component, MetricsCollector, Phase};
use crate::qr::{self, QrError, QrSymbol};

/// Simulated peripherals attached to one device profile.
pub struct Peripherals {
    /// The platform being simulated.
    pub device: DeviceProfile,
    /// Latency accounting for the current run.
    pub metrics: MetricsCollector,
}

impl Peripherals {
    /// Attaches peripherals to a device profile.
    pub fn new(device: DeviceProfile) -> Self {
        Self {
            device,
            metrics: MetricsCollector::new(),
        }
    }

    /// Prints one job with a QR symbol per payload: encodes them (real
    /// compute, scaled) and charges the mechanical print model once — one
    /// feed and cut for the job, ink for every byte on it.
    pub fn print_job(
        &mut self,
        phase: Phase,
        payloads: &[Vec<u8>],
    ) -> Result<Vec<QrSymbol>, QrError> {
        let start = Instant::now();
        let symbols = payloads
            .iter()
            .map(|p| qr::encode(p))
            .collect::<Result<Vec<_>, _>>()?;
        let host_ms = start.elapsed().as_secs_f64() * 1e3;

        let codec_ms = host_ms * self.device.qr_codec_scale;
        self.metrics
            .record(phase, Component::QrReadWrite, codec_ms, codec_ms);

        let bytes = payloads.iter().map(Vec::len).sum();
        let render_cpu_ms = host_ms * self.device.print_render_scale;
        let wall = self.device.print_wall_ms(bytes, host_ms);
        self.metrics
            .record(phase, Component::QrPrint, wall, render_cpu_ms);
        Ok(symbols)
    }

    /// Encodes a payload into a symbol for later scanning *without* a
    /// print charge — used for artifacts that arrive pre-printed (the
    /// envelope challenge QRs from setup, or a receipt being re-scanned at
    /// check-out). Only QR Read/Write compute is charged.
    pub fn encode_for_scan(&mut self, phase: Phase, payload: &[u8]) -> Result<QrSymbol, QrError> {
        let start = Instant::now();
        let symbol = qr::encode(payload)?;
        let host_ms = start.elapsed().as_secs_f64() * 1e3;
        let codec_ms = host_ms * self.device.qr_codec_scale;
        self.metrics
            .record(phase, Component::QrReadWrite, codec_ms, codec_ms);
        Ok(symbol)
    }

    /// Scans a printed QR symbol: decodes it (real compute, scaled) and
    /// charges the transfer model for the payload read. Returns the
    /// payload.
    pub fn scan_qr(&mut self, phase: Phase, symbol: &QrSymbol) -> Result<Vec<u8>, QrError> {
        let start = Instant::now();
        let payload = qr::decode(symbol)?;
        let host_ms = start.elapsed().as_secs_f64() * 1e3;
        let codec_ms = host_ms * self.device.qr_codec_scale;
        self.metrics
            .record(phase, Component::QrReadWrite, codec_ms, codec_ms);

        let wall = self.device.scan_wall_ms(payload.len());
        // Scanner transfer is I/O-bound; the small driver CPU share scales
        // with the device's CPU factor like everything else.
        let cpu = wall * 0.02 * (self.device.cpu_scale / 3.0);
        self.metrics.record(phase, Component::QrScan, wall, cpu);
        Ok(payload)
    }

    /// Times a crypto/logic closure on the host and records it scaled to
    /// the device.
    pub fn crypto<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.crypto_since(phase, start);
        out
    }

    /// Records the host time since `start` as `phase`'s crypto/logic,
    /// scaled to the device: for work that runs inside someone else's
    /// control flow, timed from one mark to the next.
    pub fn crypto_since(&mut self, phase: Phase, start: Instant) {
        let ms = start.elapsed().as_secs_f64() * 1e3 * self.device.cpu_scale;
        self.metrics.record(phase, Component::CryptoLogic, ms, ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_then_scan_roundtrip() {
        let mut p = Peripherals::new(DeviceProfile::macbook_pro());
        let payload = b"commit-qr-payload-with-some-length-to-it".to_vec();
        let printed = p
            .print_job(Phase::RealToken, std::slice::from_ref(&payload))
            .expect("prints");
        let scanned = p.scan_qr(Phase::RealToken, &printed[0]).expect("scans");
        assert_eq!(scanned, payload);
        // All four components have accumulated time.
        assert!(p.metrics.get(Phase::RealToken, Component::QrPrint).wall_ms > 0.0);
        assert!(p.metrics.get(Phase::RealToken, Component::QrScan).wall_ms > 0.0);
        assert!(
            p.metrics
                .get(Phase::RealToken, Component::QrReadWrite)
                .wall_ms
                > 0.0
        );
    }

    /// A job of several symbols pays one feed: two payloads printed as one
    /// job cost one `print_fixed_ms` less than the same two printed apart.
    #[test]
    fn one_job_pays_one_feed() {
        let device = DeviceProfile::pos_kiosk();
        let payloads = vec![vec![3u8; 168], vec![4u8; 160]];
        let mut together = Peripherals::new(device.clone());
        let symbols = together.print_job(Phase::RealToken, &payloads).unwrap();
        assert_eq!(symbols.len(), 2);
        let mut apart = Peripherals::new(device.clone());
        for payload in &payloads {
            apart
                .print_job(Phase::RealToken, std::slice::from_ref(payload))
                .unwrap();
        }
        let wall = |p: &Peripherals| p.metrics.get(Phase::RealToken, Component::QrPrint).wall_ms;
        let saved = wall(&apart) - wall(&together);
        // The render terms are host-timed, so allow them a little slack.
        assert!(
            (saved - device.print_fixed_ms).abs() < 50.0,
            "saved {saved}"
        );
    }

    #[test]
    fn crypto_timer_records() {
        let mut p = Peripherals::new(DeviceProfile::pos_kiosk());
        let x = p.crypto(Phase::Authorization, || {
            // A tiny bit of real work.
            (0..1000u64).sum::<u64>()
        });
        assert_eq!(x, 499500);
        assert!(
            p.metrics
                .get(Phase::Authorization, Component::CryptoLogic)
                .cpu_ms
                >= 0.0
        );
    }

    #[test]
    fn constrained_device_slower() {
        let payload = vec![vec![7u8; 200]];
        let mut l1 = Peripherals::new(DeviceProfile::pos_kiosk());
        let mut h1 = Peripherals::new(DeviceProfile::macbook_pro());
        let pl = l1.print_job(Phase::RealToken, &payload).unwrap();
        let ph = h1.print_job(Phase::RealToken, &payload).unwrap();
        let _ = l1.scan_qr(Phase::RealToken, &pl[0]).unwrap();
        let _ = h1.scan_qr(Phase::RealToken, &ph[0]).unwrap();
        assert!(l1.metrics.total_wall_ms() > h1.metrics.total_wall_ms());
    }
}
