//! The end-to-end TRIP registration workflow (Fig 1, Fig 6).
//!
//! Orchestrates one voter's visit: check-in with an official, the in-booth
//! kiosk session (real credential, then any number of fakes), check-out,
//! and later activation on the voter's device. The orchestration follows
//! the voter's perspective of §3.2 and drives the actor APIs of
//! [`crate::official`], [`crate::kiosk`] and [`crate::vsd`].

use vg_crypto::drbg::Rng;
use vg_ledger::VoterId;

use crate::error::TripError;
use crate::kiosk::{KioskBehavior, KioskEvent};
use crate::materials::{PaperCredential, Symbol};
use crate::setup::{take_any_envelope, take_envelope_with_symbol, TripSystem};
use crate::vsd::Vsd;

/// The result of one registration session.
pub struct RegistrationOutcome {
    /// The credential the voter believes is real (it *is* real iff the
    /// kiosk was honest), marked with the voter's convention.
    pub believed_real: PaperCredential,
    /// The fake credentials created on request.
    pub fakes: Vec<PaperCredential>,
    /// The kiosk event trace the voter observed in the booth.
    pub events: Vec<KioskEvent>,
}

impl RegistrationOutcome {
    /// All paper credentials, believed-real first.
    pub fn all_credentials(&self) -> Vec<&PaperCredential> {
        let mut v = vec![&self.believed_real];
        v.extend(self.fakes.iter());
        v
    }
}

/// Runs a complete registration session for `voter_id` on kiosk 0,
/// creating one real and `n_fakes` fake credentials from the booth's
/// envelope supply, then checking out with the first credential.
///
/// The kiosk draws its precursors from `rng` as the voter walks in and
/// then runs the ceremony every registration day runs
/// (`fleet::run_session`); what differs from
/// [`register_voter_seeded`] is where the randomness and the envelopes come
/// from, not what the booth does.
///
/// If the kiosk is compromised ([`KioskBehavior::StealsRealCredential`]),
/// the "real" credential handed to the voter is forged and the stolen key
/// is appended to [`TripSystem::adversary_loot`]; the returned event trace
/// shows the tell-tale wrong ordering.
pub fn register_voter(
    system: &mut TripSystem,
    voter_id: VoterId,
    n_fakes: usize,
    rng: &mut dyn Rng,
) -> Result<RegistrationOutcome, TripError> {
    // Keep the booth stocked above the λ_E floor: a low supply would leak
    // envelope-count information to coerced voters (Appendix F.1) and can
    // run a symbol out of stock. Printers may issue additional envelopes
    // at any time (paper footnote 6).
    system.restock_booth(rng)?;

    // Check-in (Fig 1 step 1).
    let ticket = system.officials[0].check_in(&system.ledger, voter_id)?;

    // Privacy booth (Fig 1 step 2).
    let kiosk = &system.kiosks[0];
    let real = kiosk.draw_real(rng);
    let fakes = (0..n_fakes).map(|_| kiosk.draw_fake(rng)).collect();
    let spare =
        (kiosk.behavior() == KioskBehavior::StealsRealCredential).then(|| kiosk.draw_fake(rng));
    let mut pick = |symbol: Option<Symbol>| {
        let Some(symbol) = symbol else {
            return take_any_envelope(&mut system.booth_envelopes, rng)
                .ok_or(TripError::NoMatchingEnvelope);
        };
        if let Some(env) = take_envelope_with_symbol(&mut system.booth_envelopes, symbol) {
            return Ok(env);
        }
        // The symbol ran out: the registrar prints fresh envelopes until a
        // matching one appears (footnote 6), leaving the extras in the
        // booth.
        loop {
            let env = system.printers[0].print_one(
                &mut system.ledger.envelopes,
                rng.scalar(),
                Symbol::random(rng),
            )?;
            if env.symbol == symbol {
                return Ok(env);
            }
            system.booth_envelopes.push(env);
        }
    };
    let (outcome, stolen) =
        crate::fleet::run_session(kiosk, &ticket, real, fakes, spare, &mut pick)?;
    system.adversary_loot.extend(stolen);

    // Check-out (Fig 1 step 3) with any one credential — they all carry
    // the same check-out ticket.
    let view = outcome.believed_real.transport_view()?;
    system.officials[0].check_out(&mut system.ledger, view.checkout, &system.kiosk_registry)?;
    Ok(outcome)
}

/// The sequential reference for the kiosk-fleet engine: registers one
/// voter from ceremony-pool material derived for `(seed, session_index)`,
/// serving them on kiosk `session_index mod |K|` and posting to the
/// ledgers immediately.
///
/// A loop of this function over a check-in queue produces ledgers,
/// credentials and event traces **bit-identical** to a
/// [`crate::fleet::KioskFleet`] run over the same `(seed, queue)` with any
/// kiosk count equal to `|K|`, any pool batch size and any thread count —
/// the replay/equivalence contract the fleet's property tests pin down.
/// Unlike [`register_voter`] it does not consume the booth envelope
/// supply: the pool prints per-session envelopes (footnote 6) whose
/// commitments are posted here in queue order.
pub fn register_voter_seeded(
    system: &mut TripSystem,
    voter_id: VoterId,
    n_fakes: usize,
    seed: &[u8; 32],
    session_index: usize,
) -> Result<RegistrationOutcome, TripError> {
    let kiosk_idx = session_index % system.kiosks.len().max(1);
    let malicious = system.kiosks[kiosk_idx].behavior() == KioskBehavior::StealsRealCredential;
    let materials = crate::ceremony::SessionMaterials::derive(
        seed,
        session_index,
        voter_id,
        n_fakes,
        &system.authority.public_key,
        &system.printers[0],
        malicious,
    );
    let ticket = system.officials[0].check_in(&system.ledger, voter_id)?;
    let output = crate::fleet::run_pool_session(&system.kiosks[kiosk_idx], &ticket, materials)?;
    for commitment in output.commitments {
        system.ledger.envelopes.commit(commitment)?;
    }
    system.officials[0].check_out_with_coupon(
        &mut system.ledger,
        output.outcome.believed_real.transport_view()?.checkout,
        output.official_coupon,
        &system.kiosk_registry,
    )?;
    system.adversary_loot.extend(output.stolen);
    Ok(output.outcome)
}

/// Activates every credential from an outcome on a fresh device,
/// returning the device (Fig 1 step 4).
pub fn activate_all(
    system: &mut TripSystem,
    outcome: &mut RegistrationOutcome,
) -> Result<Vsd, TripError> {
    let mut vsd = Vsd::new();
    let authority_pk = system.authority.public_key;
    for credential in std::iter::once(&mut outcome.believed_real).chain(&mut outcome.fakes) {
        credential.lift_to_activate();
        vsd.activate(
            credential,
            &mut system.ledger,
            &authority_pk,
            &system.printer_registry,
        )?;
    }
    Ok(vsd)
}

/// The result of a delegation session (extension C.3): the voter leaves
/// the booth holding only fake credentials.
pub struct DelegationOutcome {
    /// The fake credentials the voter carries out (at least one, used for
    /// check-out).
    pub fakes: Vec<PaperCredential>,
    /// The booth event trace.
    pub events: Vec<KioskEvent>,
}

/// Registers `voter_id` under extreme coercion (Appendix C.3): the kiosk
/// encrypts `party_pk` as the voter's credential tag and issues only fake
/// credentials, so a coercer searching the voter immediately afterwards
/// finds nothing but fakes. Requires `n_fakes >= 1` (check-out needs a
/// credential to scan).
pub fn register_with_delegation(
    system: &mut TripSystem,
    voter_id: VoterId,
    party_pk: &vg_crypto::EdwardsPoint,
    n_fakes: usize,
    rng: &mut dyn Rng,
) -> Result<DelegationOutcome, TripError> {
    assert!(
        n_fakes >= 1,
        "delegation needs at least one fake for check-out"
    );
    let ticket = system.officials[0].check_in(&system.ledger, voter_id)?;
    let kiosk = &system.kiosks[0];
    let mut session = kiosk.begin_session(&ticket)?;
    session.delegate_to_party(party_pk, rng)?;

    let mut fakes = Vec::with_capacity(n_fakes);
    for i in 0..n_fakes {
        let envelope = take_any_envelope(&mut system.booth_envelopes, rng)
            .ok_or(TripError::NoMatchingEnvelope)?;
        let receipt = session.create_fake_credential(&envelope, rng)?;
        let mut cred = PaperCredential::assemble(receipt, envelope);
        cred.mark(&format!("D{i}"));
        fakes.push(cred);
    }
    let view = fakes[0].transport_view()?;
    system.officials[0].check_out(&mut system.ledger, view.checkout, &system.kiosk_registry)?;
    Ok(DelegationOutcome {
        fakes,
        events: session.finish(),
    })
}

/// Returns `true` if the event trace shows the honest real-credential
/// ordering: a commit printed before any envelope is scanned.
///
/// This is the observable a trained voter checks (§4.4, §7.5).
pub fn trace_shows_honest_real_flow(events: &[KioskEvent]) -> bool {
    for event in events {
        match event {
            KioskEvent::PrintedSymbolAndCommit { .. } => return true,
            KioskEvent::ScannedEnvelope { .. } => return false,
            _ => continue,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ActivationCheck;
    use crate::setup::TripConfig;
    use vg_crypto::HmacDrbg;

    #[test]
    fn full_registration_and_activation() {
        let mut rng = HmacDrbg::from_u64(1);
        let mut system = TripSystem::setup(TripConfig::with_voters(3), &mut rng);
        let mut outcome = register_voter(&mut system, VoterId(1), 2, &mut rng).expect("registers");
        assert_eq!(outcome.fakes.len(), 2);
        assert!(trace_shows_honest_real_flow(&outcome.events));
        assert_eq!(system.ledger.registration.active_count(), 1);

        let vsd = activate_all(&mut system, &mut outcome).expect("activates");
        assert_eq!(vsd.credentials.len(), 3);
        // All three credentials share the same public tag.
        let tag = vsd.credentials[0].c_pc;
        assert!(vsd.credentials.iter().all(|c| c.c_pc == tag));
        // But have distinct key pairs.
        let pks: std::collections::HashSet<_> =
            vsd.credentials.iter().map(|c| c.public_key()).collect();
        assert_eq!(pks.len(), 3);
        // Three challenges were revealed on L_E.
        assert_eq!(system.ledger.envelopes.revealed_count(), 3);
    }

    #[test]
    fn malicious_kiosk_trace_detectable_and_loot_collected() {
        let mut rng = HmacDrbg::from_u64(2);
        let mut system = TripSystem::setup_with_behavior(
            TripConfig::with_voters(2),
            KioskBehavior::StealsRealCredential,
            &mut rng,
        );
        let outcome = register_voter(&mut system, VoterId(1), 1, &mut rng).expect("registers");
        assert!(!trace_shows_honest_real_flow(&outcome.events));
        assert_eq!(system.adversary_loot.len(), 1);
        assert_eq!(system.adversary_loot[0].voter_id, VoterId(1));
    }

    #[test]
    fn stolen_credential_passes_activation_checks() {
        // The voter cannot tell cryptographically: the forged "real"
        // credential still activates (all Fig 11 checks pass). Only the
        // process ordering betrays the kiosk.
        let mut rng = HmacDrbg::from_u64(3);
        let mut system = TripSystem::setup_with_behavior(
            TripConfig::with_voters(2),
            KioskBehavior::StealsRealCredential,
            &mut rng,
        );
        let mut outcome = register_voter(&mut system, VoterId(1), 0, &mut rng).unwrap();
        let vsd = activate_all(&mut system, &mut outcome).expect("activates");
        assert_eq!(vsd.credentials.len(), 1);
    }

    #[test]
    fn double_activation_detected() {
        let mut rng = HmacDrbg::from_u64(4);
        let mut system = TripSystem::setup(TripConfig::with_voters(2), &mut rng);
        let mut outcome = register_voter(&mut system, VoterId(1), 0, &mut rng).unwrap();
        activate_all(&mut system, &mut outcome).expect("first activation");
        // Re-activating the same credential trips the duplicate-challenge
        // detector (replay of the envelope challenge).
        let mut vsd = Vsd::new();
        let authority_pk = system.authority.public_key;
        let err = vsd
            .activate(
                &outcome.believed_real,
                &mut system.ledger,
                &authority_pk,
                &system.printer_registry,
            )
            .unwrap_err();
        assert_eq!(
            err,
            TripError::Activation(ActivationCheck::DuplicateChallenge)
        );
    }

    #[test]
    fn re_registration_invalidates_old_credentials() {
        let mut rng = HmacDrbg::from_u64(5);
        let mut system = TripSystem::setup(TripConfig::with_voters(2), &mut rng);
        let mut first = register_voter(&mut system, VoterId(1), 0, &mut rng).unwrap();
        // Voter re-registers before activating the first credential.
        let mut second = register_voter(&mut system, VoterId(1), 0, &mut rng).unwrap();
        assert_eq!(system.ledger.registration.active_count(), 1);

        // The first credential now fails the ledger cross-check.
        first.believed_real.lift_to_activate();
        let mut vsd = Vsd::new();
        let authority_pk = system.authority.public_key;
        let err = vsd
            .activate(
                &first.believed_real,
                &mut system.ledger,
                &authority_pk,
                &system.printer_registry,
            )
            .unwrap_err();
        assert_eq!(err, TripError::Activation(ActivationCheck::LedgerMismatch));

        // The second works.
        let vsd = activate_all(&mut system, &mut second).unwrap();
        assert_eq!(vsd.credentials.len(), 1);
    }

    #[test]
    fn many_voters_register_independently() {
        let mut rng = HmacDrbg::from_u64(6);
        let mut system = TripSystem::setup(TripConfig::with_voters(5), &mut rng);
        for v in 1..=5u64 {
            let n_fakes = (v % 3) as usize;
            let mut outcome = register_voter(&mut system, VoterId(v), n_fakes, &mut rng)
                .unwrap_or_else(|e| panic!("voter {v}: {e}"));
            let vsd = activate_all(&mut system, &mut outcome).unwrap();
            assert_eq!(vsd.credentials.len(), 1 + n_fakes);
        }
        assert_eq!(system.ledger.registration.active_count(), 5);
    }
}
