//! Experiment runner for Fig 4: voter-observable registration latencies.
//!
//! Mirrors §7.2's methodology: one registration issues one real and one
//! fake credential "without human involvement", and every user-observable
//! delay is split into four components across six phases. The booth is the
//! one every registration runs, [`run_session`]; this runner only watches
//! it. Crypto & logic is host time scaled per device: each precursor draw
//! is timed on its own, and the kiosk's work between two envelope picks is
//! timed from inside the `pick` closure that stands for the voter's hand
//! (the ticket check opens the booth, so it lands in RealToken). QR print
//! and scan run through the simulated peripherals of `vg-hardware`: every
//! QR is its artifact's canonical [`Wire`] bytes, really encoded and
//! decoded, and every print event on the booth's trace is one print job.

use std::time::Instant;

use vg_crypto::Rng;
use vg_hardware::metrics::{MetricsCollector, Phase};
use vg_hardware::peripherals::Peripherals;
use vg_hardware::{DeviceProfile, QrSymbol};
use vg_ledger::VoterId;
use vg_trip::fleet::run_session;
use vg_trip::setup::{pick_envelope, TripConfig, TripSystem};
use vg_trip::vsd::Vsd;
use vg_trip::{Envelope, KioskEvent, Symbol, TripError};
use vg_votegral::Wire;

/// One device's measured registration run.
pub struct DeviceRun {
    /// The simulated platform.
    pub device: DeviceProfile,
    /// Accumulated (phase × component) latencies, averaged over runs.
    pub metrics: MetricsCollector,
}

/// Runs `runs` scripted registrations (1 real + 1 fake credential each)
/// on one device, returning averaged metrics.
pub fn run_device(device: DeviceProfile, runs: usize, rng: &mut dyn Rng) -> DeviceRun {
    let mut total = MetricsCollector::new();
    for run in 0..runs {
        let (metrics, _) =
            one_registration(device.clone(), rng).unwrap_or_else(|e| panic!("run {run}: {e}"));
        total.merge(&metrics);
    }
    total.scale(1.0 / runs as f64);
    DeviceRun {
        device,
        metrics: total,
    }
}

/// Runs Fig 4 across all four platforms.
pub fn run_all_devices(runs: usize, rng: &mut dyn Rng) -> Vec<DeviceRun> {
    DeviceProfile::all()
        .into_iter()
        .map(|d| run_device(d, runs, rng))
        .collect()
}

/// Every QR one registration printed or scanned: the bytes on paper, the
/// symbol they travelled as, and whether they are the artifact's canonical
/// encoding and parse back to it.
type QrLog = Vec<(Vec<u8>, QrSymbol, bool)>;

/// An artifact's canonical bytes, and whether they parse back to it.
fn wire<T: Wire + PartialEq>(artifact: &T) -> (Vec<u8>, bool) {
    let bytes = artifact.to_bytes();
    (bytes.clone(), is_wire_of(&bytes, artifact))
}

fn is_wire_of<T: Wire + PartialEq>(bytes: &[u8], artifact: &T) -> bool {
    bytes == artifact.to_bytes() && T::from_bytes(bytes).is_ok_and(|t| t == *artifact)
}

/// One registration's peripherals and the QRs they handled.
struct Paper {
    p: Peripherals,
    log: QrLog,
}

impl Paper {
    /// Prints one job: a symbol per QR, one feed.
    fn print(&mut self, phase: Phase, qrs: Vec<(Vec<u8>, bool)>) {
        let payloads: Vec<Vec<u8>> = qrs.iter().map(|(bytes, _)| bytes.clone()).collect();
        let symbols = self
            .p
            .print_job(phase, &payloads)
            .expect("every QR fits a symbol");
        for ((bytes, is_wire), symbol) in qrs.into_iter().zip(symbols) {
            self.log.push((bytes, symbol, is_wire));
        }
    }

    /// Scans an artifact on paper: encodes its bytes into the symbol the
    /// scanner is shown, then reads them back.
    fn scan<T: Wire + PartialEq>(&mut self, phase: Phase, artifact: &T) {
        let symbol = self.p.encode_for_scan(phase, &artifact.to_bytes());
        let symbol = symbol.expect("every QR fits a symbol");
        let bytes = self.p.scan_qr(phase, &symbol).expect("an encoded QR scans");
        let is_wire = is_wire_of(&bytes, artifact);
        self.log.push((bytes, symbol, is_wire));
    }
}

fn one_registration(
    device: DeviceProfile,
    rng: &mut dyn Rng,
) -> Result<(MetricsCollector, QrLog), TripError> {
    let mut paper = Paper {
        p: Peripherals::new(device),
        log: QrLog::new(),
    };
    let mut system = TripSystem::setup(TripConfig::with_voters(1), rng);

    // --- CheckIn: the official verifies eligibility and prints the ticket.
    let ticket = paper.p.crypto(Phase::CheckIn, || {
        system.officials[0].check_in(&system.ledger, VoterId(1))
    })?;
    paper.print(Phase::CheckIn, vec![wire(&ticket)]);

    // --- Authorization: the kiosk scans the ticket; it checks the MAC as
    // it opens the booth.
    paper.scan(Phase::Authorization, &ticket);

    // --- RealToken, FakeToken: the booth every registration runs.
    let kiosk = &system.kiosks[0];
    let real = paper.p.crypto(Phase::RealToken, || kiosk.draw_real(rng));
    let fakes = vec![paper.p.crypto(Phase::FakeToken, || kiosk.draw_fake(rng))];
    let (mut phase, mut mark) = (Phase::RealToken, Instant::now());
    let mut pick = |symbol: Option<Symbol>| -> Result<Envelope, TripError> {
        // The kiosk worked since the last mark; on an honest kiosk, a
        // request for any envelope starts a fake credential.
        paper.p.crypto_since(phase, mark);
        if symbol.is_none() {
            phase = Phase::FakeToken;
        }
        let ledger = &mut system.ledger.envelopes;
        let envelope = pick_envelope(
            &mut system.booth_envelopes,
            &system.printers[0],
            ledger,
            symbol,
            rng,
        )?;
        paper.scan(phase, &envelope);
        mark = Instant::now();
        Ok(envelope)
    };
    let (outcome, _) = run_session(kiosk, &ticket, real, fakes, None, &mut pick)?;
    paper.p.crypto_since(phase, mark);

    // What the trace says the kiosk printed, one job per print event.
    let receipt = &outcome.believed_real.receipt;
    let mut fakes = outcome.fakes.iter().map(|fake| &fake.receipt);
    for event in &outcome.events {
        let (phase, qrs) = match event {
            KioskEvent::PrintedSymbolAndCommit { .. } => {
                (Phase::RealToken, vec![wire(&receipt.commit_qr)])
            }
            KioskEvent::PrintedCheckoutAndResponse => (
                Phase::RealToken,
                vec![wire(&receipt.checkout_qr), wire(&receipt.response_qr)],
            ),
            KioskEvent::PrintedFullReceipt => {
                let fake = fakes.next().expect("one full receipt per fake");
                let qrs = vec![
                    wire(&fake.commit_qr),
                    wire(&fake.checkout_qr),
                    wire(&fake.response_qr),
                ];
                (Phase::FakeToken, qrs)
            }
            _ => continue,
        };
        paper.print(phase, qrs);
    }

    // --- CheckOut: the official scans the check-out QR through the window
    // and posts it.
    paper.scan(Phase::CheckOut, &receipt.checkout_qr);
    let view = outcome.believed_real.transport_view()?;
    let (official, registry) = (&system.officials[0], &system.kiosk_registry);
    let ledger = &mut system.ledger;
    paper.p.crypto(Phase::CheckOut, || {
        official.check_out(ledger, view.checkout, registry)
    })?;

    // --- Activation: three scans plus the Fig 11 checks (real
    // credential; the fake activates identically, §7.2 measures one).
    let mut credential = outcome.believed_real;
    credential.lift_to_activate();
    paper.scan(Phase::Activation, &credential.receipt.commit_qr);
    paper.scan(Phase::Activation, &credential.envelope);
    paper.scan(Phase::Activation, &credential.receipt.response_qr);
    let authority_pk = system.authority.public_key;
    let registry = &system.printer_registry;
    let ledger = &mut system.ledger;
    paper.p.crypto(Phase::Activation, || {
        Vsd::new()
            .activate(&credential, ledger, &authority_pk, registry)
            .map(|_| ())
    })?;

    Ok((paper.p.metrics, paper.log))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::HmacDrbg;

    #[test]
    fn fig4_shape_matches_paper() {
        let mut rng = HmacDrbg::from_u64(1);
        let runs = run_all_devices(1, &mut rng);
        assert_eq!(runs.len(), 4);

        let l1 = &runs[0];
        let h1 = &runs[2];
        // §7.2 headline 1: total wall latency is seconds-scale, and L1 is
        // the slowest platform.
        let l1_total = l1.metrics.total_wall_ms();
        let h1_total = h1.metrics.total_wall_ms();
        assert!(l1_total > h1_total, "L1 {l1_total} vs H1 {h1_total}");
        assert!(
            (10_000.0..40_000.0).contains(&l1_total),
            "L1 total {l1_total} ms"
        );
        // §7.2 headline 2: QR print+scan dominate (≥ 69.5% of wall).
        assert!(
            l1.metrics.qr_io_fraction() > 0.695,
            "QR fraction {}",
            l1.metrics.qr_io_fraction()
        );
        // CPU on constrained devices is a multiple of the H platforms.
        let ratio = l1.metrics.total_cpu_ms() / h1.metrics.total_cpu_ms();
        assert!(ratio > 1.8, "CPU ratio {ratio}");
    }

    #[test]
    fn every_phase_has_some_wall_time() {
        let mut rng = HmacDrbg::from_u64(2);
        let run = run_device(DeviceProfile::macbook_pro(), 1, &mut rng);
        for phase in Phase::ALL {
            assert!(
                run.metrics.phase_wall_ms(phase) > 0.0,
                "phase {:?} empty",
                phase
            );
        }
    }

    /// Every QR of an honest registration is a real artifact: its
    /// canonical wire bytes, within the paper's 13–356-byte symbol range,
    /// byte-equal through the QR codec, and parsed back to the artifact.
    #[test]
    fn every_printed_or_scanned_payload_is_its_artifact() {
        let mut rng = HmacDrbg::from_u64(3);
        for device in DeviceProfile::all() {
            let label = device.label;
            let (_, log) = one_registration(device, &mut rng).unwrap();
            // Ticket, commit, check-out + response, fake receipt (3):
            // 7 printed; ticket, 2 envelopes, check-out, 3 at activation:
            // 7 scanned.
            assert_eq!(log.len(), 14, "{label}");
            for (bytes, symbol, is_wire) in &log {
                assert!(*is_wire, "{label}: {} bytes", bytes.len());
                assert!(
                    (13..=356).contains(&bytes.len()),
                    "{label}: {}",
                    bytes.len()
                );
                assert_eq!(&vg_hardware::qr::decode(symbol).unwrap(), bytes, "{label}");
            }
        }
    }
}
