//! Registration officials and their supporting devices (OSDs).
//!
//! Officials authenticate voters at check-in (issuing a MAC-tagged ticket,
//! Fig 8) and approve registration sessions at check-out (verifying the
//! kiosk signature through the envelope window, countersigning, and posting
//! the record to the registration ledger, Fig 10).

use vg_crypto::drbg::Rng;
use vg_crypto::hmac::{hmac_sha256, hmac_verify};
use vg_crypto::schnorr::{NonceCoupon, SignatureSweep, SigningKey, VerifyingKey};
use vg_crypto::{CompressedPoint, HmacDrbg};
use vg_ledger::{Ledger, RegistrationRecord, VoterId};

use crate::error::TripError;
use crate::materials::{checkin_message, CheckInTicket, CheckOutQr};

/// A registration official with their OSD.
pub struct Official {
    key: SigningKey,
    mac_key: [u8; 32],
}

impl Official {
    /// Creates an official holding the registrar-shared MAC key `s_rk`.
    pub fn new(mac_key: [u8; 32], rng: &mut dyn Rng) -> Self {
        Self {
            key: SigningKey::generate(rng),
            mac_key,
        }
    }

    /// The official's public key (appears in check-out records).
    pub fn public_key(&self) -> CompressedPoint {
        self.key.public_key_compressed()
    }

    /// Check-in (Fig 8): verifies eligibility against the roster and issues
    /// a ticket authorizing one kiosk session.
    pub fn check_in(&self, ledger: &Ledger, voter_id: VoterId) -> Result<CheckInTicket, TripError> {
        if !ledger.registration.is_eligible(voter_id) {
            return Err(TripError::NotEligible);
        }
        let tag = hmac_sha256(&self.mac_key, &checkin_message(voter_id));
        Ok(CheckInTicket { voter_id, tag })
    }

    /// Check-out (Fig 10) at a desk that holds no precomputed coupon:
    /// [`Official::check_out_with_coupon`] with a coupon drawn from
    /// HMAC-DRBG(O_sk ‖ message), the RFC 6979 construction — one nonce per
    /// message, so re-scanning a ticket countersigns it identically.
    pub fn check_out(
        &self,
        ledger: &mut Ledger,
        checkout: &CheckOutQr,
        kiosk_registry: &[CompressedPoint],
    ) -> Result<(), TripError> {
        let mut label = b"trip-checkout-coupon-v1".to_vec();
        label.extend_from_slice(&self.key.secret().to_bytes());
        label.extend_from_slice(&RegistrationRecord::official_message(
            checkout.voter_id,
            &checkout.c_pc,
            &checkout.kiosk_sig,
        ));
        let coupon = NonceCoupon::generate(&mut HmacDrbg::new(&label));
        self.check_out_with_coupon(ledger, checkout, coupon, kiosk_registry)
    }

    /// Check-out (Fig 10): scans the credential's check-out QR through the
    /// envelope window, verifies the kiosk's authorization and signature,
    /// countersigns from `coupon` (the ceremony pool provides one per
    /// session, making the desk hash-only), and posts the registration
    /// record. Record bytes match the batched path exactly, which is the
    /// fleet's replay contract.
    pub fn check_out_with_coupon(
        &self,
        ledger: &mut Ledger,
        checkout: &CheckOutQr,
        coupon: NonceCoupon,
        kiosk_registry: &[CompressedPoint],
    ) -> Result<(), TripError> {
        // K_pk ∈ K_pk? (Fig 10 line 2).
        if !kiosk_registry.contains(&checkout.kiosk_pk) {
            return Err(TripError::UnknownKiosk);
        }
        // Sig.Vf(K_pk, σ_kot, V_id ‖ c_pc) (line 3).
        let kiosk_vk = VerifyingKey::from_compressed(&checkout.kiosk_pk)?;
        kiosk_vk.verify(
            &RegistrationRecord::kiosk_message(checkout.voter_id, &checkout.c_pc),
            &checkout.kiosk_sig,
        )?;
        ledger
            .registration
            .post(self.countersign(checkout, coupon))?;
        Ok(())
    }

    /// Batched check-out (Fig 10 over a whole fleet window): registry
    /// membership is checked per ticket in queue order, the kiosk
    /// signatures are verified through one random-linear-combination fold
    /// (with a per-item fallback to surface the offender), every record is
    /// countersigned from its session's coupon, and the batch is posted
    /// through the registration ledger's batched admission path.
    pub fn check_out_batch(
        &self,
        ledger: &mut Ledger,
        checkouts: Vec<(CheckOutQr, NonceCoupon)>,
        kiosk_registry: &[CompressedPoint],
        threads: usize,
    ) -> Result<(), TripError> {
        if checkouts.is_empty() {
            return Ok(());
        }
        self.verify_checkouts(&checkouts, kiosk_registry, threads)?;
        let records = self.countersign_checkouts(checkouts);
        ledger.registration.post_batch(records, threads)?;
        Ok(())
    }

    /// The verification half of [`Official::check_out_batch`] (Fig 10
    /// lines 2–3 over a window, no ledger access): registry membership per
    /// ticket in queue order, then every σ_kot in one committed
    /// random-linear-combination fold
    /// ([`vg_crypto::schnorr::SignatureSweep`]) with a per-item fallback
    /// that surfaces the earliest offender.
    pub fn verify_checkouts(
        &self,
        checkouts: &[(CheckOutQr, NonceCoupon)],
        kiosk_registry: &[CompressedPoint],
        threads: usize,
    ) -> Result<(), TripError> {
        for (checkout, _) in checkouts {
            if !kiosk_registry.contains(&checkout.kiosk_pk) {
                return Err(TripError::UnknownKiosk);
            }
        }
        // σ_kot sweep (Fig 10 line 3): one fold over the window.
        let mut vk_cache = vg_crypto::schnorr::VerifyingKeyCache::new();
        let mut sweep = SignatureSweep::new(b"trip-checkout-sweep-v1");
        for (checkout, _) in checkouts {
            sweep.push(
                vk_cache.get(&checkout.kiosk_pk)?,
                RegistrationRecord::kiosk_message(checkout.voter_id, &checkout.c_pc),
                checkout.kiosk_sig,
            );
        }
        if sweep.verify(threads).is_err() {
            // Locate the offender (earliest in queue order); if every
            // ticket passes individually, per-item acceptance rules.
            for (checkout, _) in checkouts {
                let vk = vk_cache.get(&checkout.kiosk_pk)?;
                vk.verify(
                    &RegistrationRecord::kiosk_message(checkout.voter_id, &checkout.c_pc),
                    &checkout.kiosk_sig,
                )?;
            }
        }
        Ok(())
    }

    /// The record-construction half of [`Official::check_out_batch`]
    /// (Fig 10 lines 4–5): countersigns each *already verified* ticket
    /// from its session's coupon. Callers that split verification from
    /// posting (the service layer's asynchronous ledger ingestion) combine
    /// this with [`Official::verify_checkouts`].
    pub fn countersign_checkouts(
        &self,
        checkouts: Vec<(CheckOutQr, NonceCoupon)>,
    ) -> Vec<RegistrationRecord> {
        checkouts
            .into_iter()
            .map(|(checkout, coupon)| self.countersign(&checkout, coupon))
            .collect()
    }

    /// Builds the countersigned registration record for a verified
    /// check-out ticket (Fig 10 lines 4–5).
    fn countersign(&self, checkout: &CheckOutQr, coupon: NonceCoupon) -> RegistrationRecord {
        // σ_o ← Sig.Sign(O_sk, V_id ‖ c_pc ‖ σ_kot) (line 4).
        let official_sig = self.key.sign_with_coupon(
            &RegistrationRecord::official_message(
                checkout.voter_id,
                &checkout.c_pc,
                &checkout.kiosk_sig,
            ),
            coupon,
        );
        // L_R[V_id] ← (c_pc, K_pk, σ_kot, O_pk, σ_o) (line 5).
        RegistrationRecord {
            voter_id: checkout.voter_id,
            c_pc: checkout.c_pc,
            kiosk_pk: checkout.kiosk_pk,
            kiosk_sig: checkout.kiosk_sig,
            official_pk: self.public_key(),
            official_sig,
        }
    }

    /// The shared MAC key (used by [`crate::kiosk::Kiosk`] construction in
    /// the simulated registrar).
    pub fn mac_key(&self) -> &[u8; 32] {
        &self.mac_key
    }
}

/// Verifies a check-in ticket against the shared MAC key (kiosk side of
/// Fig 8).
pub fn verify_ticket(mac_key: &[u8; 32], ticket: &CheckInTicket) -> Result<(), TripError> {
    if hmac_verify(mac_key, &checkin_message(ticket.voter_id), &ticket.tag) {
        Ok(())
    } else {
        Err(TripError::BadCheckInTicket)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::HmacDrbg;

    #[test]
    fn check_in_requires_eligibility() {
        let mut rng = HmacDrbg::from_u64(1);
        let ledger = Ledger::new(vec![VoterId(1)], &mut rng);
        let official = Official::new([7u8; 32], &mut rng);
        assert!(official.check_in(&ledger, VoterId(1)).is_ok());
        assert_eq!(
            official.check_in(&ledger, VoterId(2)).unwrap_err(),
            TripError::NotEligible
        );
    }

    #[test]
    fn ticket_mac_verifies_with_shared_key_only() {
        let mut rng = HmacDrbg::from_u64(2);
        let ledger = Ledger::new(vec![VoterId(1)], &mut rng);
        let official = Official::new([7u8; 32], &mut rng);
        let ticket = official.check_in(&ledger, VoterId(1)).unwrap();
        verify_ticket(&[7u8; 32], &ticket).expect("shared key verifies");
        assert_eq!(
            verify_ticket(&[8u8; 32], &ticket).unwrap_err(),
            TripError::BadCheckInTicket
        );
        // A forged ticket for a different voter fails.
        let forged = CheckInTicket {
            voter_id: VoterId(2),
            tag: ticket.tag,
        };
        assert!(verify_ticket(&[7u8; 32], &forged).is_err());
    }
}
