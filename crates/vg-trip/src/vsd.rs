//! The voter-supporting device (VSD): credential activation (Fig 11).
//!
//! The voter lifts the receipt to the activate position and scans three QR
//! codes. The VSD then performs every check of Fig 11: the two kiosk
//! signatures, the printer signature, the structural validity of the
//! Σ-protocol transcript, the cross-check against the voter's active
//! registration record, and the envelope-challenge uniqueness check that
//! detects duplicated envelopes (Appendix F.3.5). Real and fake credentials
//! pass **identical** checks — the VSD cannot tell them apart, by design.

use vg_crypto::batch::{small_weight, BatchVerifier};
use vg_crypto::chaum_pedersen::{verify_transcript, DlEqStatement, IzkpTranscript};
use vg_crypto::elgamal::Ciphertext;
use vg_crypto::par::par_map;
use vg_crypto::schnorr::{Signature, SignatureSweep, SigningKey, VerifyingKey};
use vg_crypto::{CompressedPoint, EdwardsPoint, Scalar};
use vg_ledger::{challenge_hash, EnvelopeCommitment, Ledger, LedgerError, VoterId};

use crate::error::{ActivationCheck, TripError};
use crate::materials::{commit_message, response_message, ActivateView, PaperCredential};

/// A credential activated on a device, ready to cast ballots.
#[derive(Clone, Debug)]
pub struct ActivatedCredential {
    /// The voter this credential registers.
    pub voter_id: VoterId,
    /// The credential signing key pair (reconstructed from c_sk).
    pub key: SigningKey,
    /// The public credential tag shared by all of this voter's credentials.
    pub c_pc: Ciphertext,
    /// The issuing kiosk.
    pub kiosk_pk: CompressedPoint,
    /// σ_kr — proves the credential was registrar-issued; ballots carry it
    /// to defeat board flooding (Appendix M, \[82\]).
    pub issuance_sig: Signature,
    /// The IZKP response r (needed to reconstruct the issuance message).
    pub response: Scalar,
    /// The envelope challenge e (needed to reconstruct the issuance
    /// message).
    pub challenge: Scalar,
}

impl ActivatedCredential {
    /// The credential public key.
    pub fn public_key(&self) -> CompressedPoint {
        self.key.verifying_key().compress()
    }
}

/// A voter's device: holds activated credentials and registration
/// notifications.
#[derive(Default, Debug)]
pub struct Vsd {
    /// Credentials activated on this device.
    pub credentials: Vec<ActivatedCredential>,
    /// Registration events this device was notified about (Appendix J).
    pub notifications: Vec<VoterId>,
}

impl Vsd {
    /// Creates an empty device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Activates a paper credential (must be in the activate position) and
    /// stores it. See [`activate`].
    pub fn activate(
        &mut self,
        credential: &PaperCredential,
        ledger: &mut Ledger,
        authority_pk: &EdwardsPoint,
        printer_registry: &[CompressedPoint],
    ) -> Result<&ActivatedCredential, TripError> {
        let view = credential.activate_view()?;
        let activated = activate(&view, ledger, authority_pk, printer_registry)?;
        self.credentials.push(activated);
        Ok(self.credentials.last().expect("just pushed"))
    }

    /// Records a registration notification (check-out, Fig 10 line 6).
    pub fn notify_registration(&mut self, voter: VoterId) {
        self.notifications.push(voter);
    }

    /// Returns `true` if the device saw a registration event for `voter`
    /// that the voter did not initiate — the impersonation alarm of §5.1.
    pub fn unexpected_registrations(&self, initiated: &[VoterId]) -> Vec<VoterId> {
        self.notifications
            .iter()
            .filter(|v| !initiated.contains(v))
            .copied()
            .collect()
    }
}

/// The ledger-phase claim of Fig 11 lines 9–11: everything the registrar
/// side needs to cross-check a credential against L_R and reveal its
/// envelope challenge on L_E. This is the activation protocol's natural
/// wire unit — the device-side checks (lines 2–8) involve the credential
/// *secret* and never leave the VSD.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ActivationClaim {
    /// The voter whose active record is cross-checked.
    pub voter_id: VoterId,
    /// The credential tag the record must carry.
    pub c_pc: Ciphertext,
    /// The issuing kiosk the record must name.
    pub kiosk_pk: CompressedPoint,
    /// The envelope challenge to reveal (line 11).
    pub challenge: Scalar,
}

impl ActivationClaim {
    /// The claim a verified activate-state view asserts.
    pub fn of(view: &ActivateView<'_>) -> Self {
        Self {
            voter_id: view.commit.voter_id,
            c_pc: view.commit.c_pc,
            kiosk_pk: view.response.kiosk_pk,
            challenge: view.envelope.challenge,
        }
    }
}

/// The device-side checks of Fig 11 lines 2–8 (no ledger access): receipt
/// signatures, envelope signature and printer authorization, and the
/// Σ-transcript equations. Returns the reconstructed credential key.
pub fn activate_client_checks(
    view: &ActivateView<'_>,
    authority_pk: &EdwardsPoint,
    printer_registry: &[CompressedPoint],
) -> Result<SigningKey, TripError> {
    let commit_qr = view.commit;
    let response_qr = view.response;
    let envelope = view.envelope;

    // Line 2: c_pk ← Sig.PubKey(c_sk).
    let key = SigningKey::from_scalar(response_qr.credential_sk);
    let c_pk = key.verifying_key();

    // Line 3: receipt integrity check 1 — σ_kc over V_id ‖ c_pc ‖ Y_c.
    let kiosk_vk = VerifyingKey::from_compressed(&response_qr.kiosk_pk)
        .map_err(|_| TripError::Activation(ActivationCheck::CommitSignature))?;
    kiosk_vk
        .verify(
            &commit_message(commit_qr.voter_id, &commit_qr.c_pc, &commit_qr.commit),
            &commit_qr.kiosk_sig,
        )
        .map_err(|_| TripError::Activation(ActivationCheck::CommitSignature))?;

    // Line 4: receipt integrity check 2 — σ_kr over c_pk ‖ H(e ‖ r).
    kiosk_vk
        .verify(
            &response_message(&c_pk.compress(), &envelope.challenge, &response_qr.response),
            &response_qr.kiosk_sig,
        )
        .map_err(|_| TripError::Activation(ActivationCheck::ResponseSignature))?;

    // Line 5: envelope integrity — σ_p over H(e), printer authorized.
    if !printer_registry.contains(&envelope.printer_pk) {
        return Err(TripError::Activation(ActivationCheck::EnvelopeSignature));
    }
    let printer_vk = VerifyingKey::from_compressed(&envelope.printer_pk)
        .map_err(|_| TripError::Activation(ActivationCheck::EnvelopeSignature))?;
    printer_vk
        .verify(
            &EnvelopeCommitment::message(&challenge_hash(&envelope.challenge)),
            &envelope.signature,
        )
        .map_err(|_| TripError::Activation(ActivationCheck::EnvelopeSignature))?;

    // Lines 6–8: derive X = C₂ − c_pk and verify the Σ-transcript:
    // Y₁ == g^r·C₁^e and Y₂ == A_pk^r·X^e.
    let big_x = commit_qr.c_pc.c2 - c_pk.0;
    let stmt = DlEqStatement {
        g1: EdwardsPoint::basepoint(),
        y1: commit_qr.c_pc.c1,
        g2: *authority_pk,
        y2: big_x,
    };
    let transcript = IzkpTranscript {
        commit: commit_qr.commit,
        challenge: envelope.challenge,
        response: response_qr.response,
    };
    if !verify_transcript(&stmt, &transcript) {
        return Err(TripError::Activation(ActivationCheck::ZkTranscript));
    }
    Ok(key)
}

/// The ledger phase of Fig 11 (lines 9–11), registrar-side: cross-checks
/// the claim against the voter's active registration record and reveals
/// the envelope challenge (the duplicate-envelope detector).
pub fn activation_ledger_phase(
    ledger: &mut Ledger,
    claim: &ActivationClaim,
) -> Result<(), TripError> {
    // Lines 9–10: cross-check against the voter's registration record.
    let record = ledger
        .registration
        .active_record(claim.voter_id)
        .ok_or(TripError::Activation(ActivationCheck::NoRegistrationRecord))?;
    if record.c_pc != claim.c_pc
        || record.kiosk_pk != claim.kiosk_pk
        || record.voter_id != claim.voter_id
    {
        return Err(TripError::Activation(ActivationCheck::LedgerMismatch));
    }

    // Line 11: challenge unused; reveal it. Only a repeated reveal is
    // the duplicate-envelope accusation of Appendix F.3.5; a challenge
    // that was never committed, or a reveal WAL that could not be
    // written, is the ledger's own failure and says so.
    ledger
        .envelopes
        .reveal_challenge(&claim.challenge)
        .map_err(|e| match e {
            LedgerError::DuplicateChallenge => {
                TripError::Activation(ActivationCheck::DuplicateChallenge)
            }
            e => TripError::Ledger(e),
        })
}

/// [`activation_ledger_phase`] for a run of claims in order, stopping at
/// the first failure.
pub fn sweep_ledger(ledger: &mut Ledger, claims: &[ActivationClaim]) -> Result<(), TripError> {
    claims
        .iter()
        .try_for_each(|claim| activation_ledger_phase(ledger, claim))
}

/// Performs the activation checks of Fig 11 and, on success, returns the
/// activated credential and reveals the envelope challenge on L_E.
pub fn activate(
    view: &ActivateView<'_>,
    ledger: &mut Ledger,
    authority_pk: &EdwardsPoint,
    printer_registry: &[CompressedPoint],
) -> Result<ActivatedCredential, TripError> {
    activate_with(view, authority_pk, printer_registry, &mut |claims| {
        sweep_ledger(ledger, claims)
    })
}

/// Fig 11 for one credential: the device-side checks, then its claim
/// through `ledger_sweep` (see [`activate_batch_with`]).
fn activate_with(
    view: &ActivateView<'_>,
    authority_pk: &EdwardsPoint,
    printer_registry: &[CompressedPoint],
    ledger_sweep: &mut dyn FnMut(&[ActivationClaim]) -> Result<(), TripError>,
) -> Result<ActivatedCredential, TripError> {
    let key = activate_client_checks(view, authority_pk, printer_registry)?;
    ledger_sweep(std::slice::from_ref(&ActivationClaim::of(view)))?;
    Ok(assemble_activated(view, key))
}

/// Activates a whole batch of paper credentials (the fleet's check-out
/// aisle of VSDs), with every per-credential check of Fig 11 preserved but
/// amortized:
///
/// - the three signature checks per credential (σ_kc, σ_kr, σ_p) fold
///   into one random-linear-combination sweep
///   ([`vg_crypto::schnorr::batch_verify_par`]);
/// - the two Σ-transcript equations per credential fold into one
///   [`BatchVerifier`] multi-scalar check over the shared bases (B, A_pk);
/// - key reconstruction (`Sig.PubKey`, the one unavoidable scalar
///   multiplication per credential) fans out over `threads` workers.
///
/// The ledger phase — registration cross-check and challenge reveal —
/// runs per credential in input order, exactly as a sequential loop of
/// [`activate`] would, so accepted batches mutate L_E identically. If any
/// folded check rejects, the whole batch falls back to the sequential
/// loop, reproducing its precise first error and partial-reveal
/// behaviour.
pub fn activate_batch(
    credentials: &[&PaperCredential],
    ledger: &mut Ledger,
    authority_pk: &EdwardsPoint,
    printer_registry: &[CompressedPoint],
    threads: usize,
) -> Result<Vec<ActivatedCredential>, TripError> {
    activate_batch_with(
        credentials,
        authority_pk,
        printer_registry,
        threads,
        &mut |claims| sweep_ledger(ledger, claims),
    )
}

/// [`activate_batch`] with the ledger phase behind a
/// [`crate::boundary::RegistrarBoundary`]: the device-side folded checks
/// (lines 2–8) run locally — the credential secrets never cross the
/// boundary — and only the [`ActivationClaim`]s are shipped for the L_R
/// cross-check and L_E reveal.
pub fn activate_batch_over(
    boundary: &mut dyn crate::boundary::RegistrarBoundary,
    credentials: &[&PaperCredential],
    authority_pk: &EdwardsPoint,
    printer_registry: &[CompressedPoint],
    threads: usize,
) -> Result<Vec<ActivatedCredential>, TripError> {
    activate_batch_with(
        credentials,
        authority_pk,
        printer_registry,
        threads,
        &mut |claims| boundary.activation_sweep(claims),
    )
}

/// The one batched activation body. `ledger_sweep` runs Fig 11 lines 9–11
/// for a run of claims in order, stopping at the first failure: a loop
/// over the ledger, or a boundary's
/// [`activation_sweep`](crate::boundary::RegistrarBoundary::activation_sweep).
fn activate_batch_with(
    credentials: &[&PaperCredential],
    authority_pk: &EdwardsPoint,
    printer_registry: &[CompressedPoint],
    threads: usize,
    ledger_sweep: &mut dyn FnMut(&[ActivationClaim]) -> Result<(), TripError>,
) -> Result<Vec<ActivatedCredential>, TripError> {
    if credentials.is_empty() {
        return Ok(Vec::new());
    }
    // Optimistic, non-mutating folded checks, then one sweep over every
    // claim. Ledger-phase errors are already the sequential-faithful ones
    // and propagate directly.
    if let Ok((views, keys)) =
        activate_batch_checks(credentials, authority_pk, printer_registry, threads)
    {
        let claims: Vec<ActivationClaim> = views.iter().map(ActivationClaim::of).collect();
        ledger_sweep(&claims)?;
        return Ok(views
            .iter()
            .zip(keys)
            .map(|(view, key)| assemble_activated(view, key))
            .collect());
    }
    // A folded check rejected: one credential at a time, so error
    // semantics (including which credentials got their challenge revealed
    // before the error) match a plain [`activate`] loop exactly.
    credentials
        .iter()
        .map(|credential| {
            let view = credential.activate_view()?;
            activate_with(&view, authority_pk, printer_registry, ledger_sweep)
        })
        .collect()
}

/// Builds the [`ActivatedCredential`] for a view whose checks and ledger
/// phase both passed.
fn assemble_activated(view: &ActivateView<'_>, key: SigningKey) -> ActivatedCredential {
    ActivatedCredential {
        voter_id: view.commit.voter_id,
        key,
        c_pc: view.commit.c_pc,
        kiosk_pk: view.response.kiosk_pk,
        issuance_sig: view.response.kiosk_sig,
        response: view.response.response,
        challenge: view.envelope.challenge,
    }
}

/// The non-mutating folded checks behind [`activate_batch`] (Fig 11
/// lines 2–8 over the whole batch), device-side only. Public so the
/// service-layer activation driver can run the same folds before shipping
/// the ledger-phase claims across its RPC boundary.
#[allow(clippy::type_complexity)]
pub fn activate_batch_checks<'a>(
    credentials: &[&'a PaperCredential],
    authority_pk: &EdwardsPoint,
    printer_registry: &[CompressedPoint],
    threads: usize,
) -> Result<(Vec<ActivateView<'a>>, Vec<SigningKey>), TripError> {
    let views: Vec<ActivateView<'a>> = credentials
        .iter()
        .map(|c| c.activate_view())
        .collect::<Result<_, _>>()?;

    // Line 2 fan-out: c_pk ← Sig.PubKey(c_sk).
    let secrets: Vec<Scalar> = views.iter().map(|v| v.response.credential_sk).collect();
    let keys: Vec<SigningKey> = par_map(&secrets, threads, |sk| SigningKey::from_scalar(*sk));

    // Lines 3–5 folded: every signature in the batch in one committed
    // sweep. The sweep's weight derivation binds every key, message and
    // signature it checks — the three messages per credential already
    // bind voter id, c_pc, the Σ-commitment halves, c_pk, H(e ‖ r) and
    // H(e), i.e. every term of the transcript fold below too, so
    // continuing the sweep's DRBG into that fold keeps the
    // everything-committed rule intact.
    let mut vk_cache = vg_crypto::schnorr::VerifyingKeyCache::new();
    let mut sweep = SignatureSweep::new(b"trip-activate-sweep-v1");
    for (view, key) in views.iter().zip(keys.iter()) {
        if !printer_registry.contains(&view.envelope.printer_pk) {
            return Err(TripError::Activation(ActivationCheck::EnvelopeSignature));
        }
        let kiosk_vk = vk_cache
            .get(&view.response.kiosk_pk)
            .map_err(|_| TripError::Activation(ActivationCheck::CommitSignature))?;
        let printer_vk = vk_cache
            .get(&view.envelope.printer_pk)
            .map_err(|_| TripError::Activation(ActivationCheck::EnvelopeSignature))?;
        sweep.push(
            kiosk_vk,
            commit_message(view.commit.voter_id, &view.commit.c_pc, &view.commit.commit),
            view.commit.kiosk_sig,
        );
        sweep.push(
            kiosk_vk,
            response_message(
                &key.public_key_compressed(),
                &view.envelope.challenge,
                &view.response.response,
            ),
            view.response.kiosk_sig,
        );
        sweep.push(
            printer_vk,
            EnvelopeCommitment::message(&challenge_hash(&view.envelope.challenge)),
            view.envelope.signature,
        );
    }
    let mut rng = sweep
        .verify(threads)
        .map_err(|_| TripError::Activation(ActivationCheck::CommitSignature))?;

    // Lines 6–8 folded: both transcript equations of every credential in
    // one multi-scalar check over the shared bases (B, A_pk).
    let mut transcripts = BatchVerifier::new(&[EdwardsPoint::basepoint(), *authority_pk]);
    for (view, key) in views.iter().zip(keys.iter()) {
        let e = view.envelope.challenge;
        let r = view.response.response;
        let big_x = view.commit.c_pc.c2 - key.verifying_key().0;
        // Y₁ = r·B + e·C₁ and Y₂ = r·A + e·X.
        let w1 = small_weight(&mut rng);
        transcripts.queue(
            &w1,
            &[(0, r)],
            &[
                (e, view.commit.c_pc.c1),
                (-Scalar::ONE, view.commit.commit.a1),
            ],
        );
        let w2 = small_weight(&mut rng);
        transcripts.queue(
            &w2,
            &[(1, r)],
            &[(e, big_x), (-Scalar::ONE, view.commit.commit.a2)],
        );
    }
    if !transcripts.verify(threads) {
        return Err(TripError::Activation(ActivationCheck::ZkTranscript));
    }
    Ok((views, keys))
}

#[cfg(test)]
mod tests {
    use vg_crypto::{HmacDrbg, Rng};

    use super::*;
    use crate::protocol::register_voter;
    use crate::setup::{TripConfig, TripSystem};

    /// An authorised printer can sign H(e) and never commit it. That is
    /// the ledger not knowing the envelope — not the duplicated envelope
    /// Appendix F.3.5 accuses a printer of.
    #[test]
    fn uncommitted_challenge_is_not_reported_as_a_duplicate() {
        let mut rng = HmacDrbg::from_u64(6);
        let mut system = TripSystem::setup(TripConfig::with_voters(2), &mut rng);
        let mut outcome = register_voter(&mut system, VoterId(1), 0, &mut rng).unwrap();
        outcome.believed_real.lift_to_activate();
        let view = outcome.believed_real.activate_view().unwrap();
        let committed = ActivationClaim::of(&view);
        let uncommitted = ActivationClaim {
            challenge: rng.scalar(),
            ..committed.clone()
        };
        assert_eq!(
            activation_ledger_phase(&mut system.ledger, &uncommitted),
            Err(TripError::Ledger(LedgerError::UnknownEnvelope))
        );
        assert_eq!(
            sweep_ledger(&mut system.ledger, &[committed.clone(), committed]),
            Err(TripError::Activation(ActivationCheck::DuplicateChallenge))
        );
    }
}
