//! The registration kiosk: real and fake credential issuance (Fig 9).
//!
//! The kiosk sits in a privacy booth. For a **real** credential it follows
//! the sound Σ-protocol order — generate the credential, encrypt its public
//! key into the tag c_pc, *print the commitment first*, accept an envelope
//! (the challenge), then print the response. For a **fake** credential the
//! voter hands over the envelope *first*, so the kiosk can forge a
//! transcript for a statement it has no witness for. The only evidence of
//! which happened is the order of steps the voter observed in the booth;
//! the printed artifacts are indistinguishable (§4.3).
//!
//! # One ceremony
//!
//! Everything a kiosk may compute *before* it scans an envelope — keys,
//! the tag, the Σ-commitment, the forge halves y·g₁, y·g₂ and the signing
//! coupons — is a [`RealPrecursor`] or a [`FakePrecursor`], computed in
//! [`crate::ceremony`] and nowhere else. This module is what the kiosk does
//! *with* them: the session state machine, the event trace, and signing,
//! which is hash-only because every signature a session prints spends a
//! coupon. The `*_from` methods are that ceremony, and
//! [`crate::fleet::run_session`] is the one booth that drives them. A kiosk
//! that precomputed takes its precursors from a
//! [`crate::pool::CeremonyPool`]; one that did not draws them on the spot
//! ([`Kiosk::draw_real`], [`Kiosk::draw_fake`]) and hands them to the same
//! booth, so a registration day, a single interactive voter and the Fig 4
//! runner execute the same code.
//!
//! [`KioskBehavior::StealsRealCredential`] models the integrity adversary
//! of §5.1: a compromised kiosk that runs the fake-credential process while
//! *claiming* to issue a real credential, keeping the real key for itself.
//! The observable difference — the kiosk asks for the envelope before
//! anything is printed — is exactly what the usability study measured
//! voters' ability to detect (§7.5).
//!
//! # Concurrency audit (kiosk-fleet hardening)
//!
//! [`Kiosk::begin_session`] hands out a [`KioskSession`] that borrows the
//! kiosk for the whole ceremony, and under a [`crate::fleet::KioskFleet`]
//! many sessions of *different* kiosks run on worker threads at once. The
//! invariants that keep this sound:
//!
//! - every per-ceremony mutable value (pending credential, used-challenge
//!   set, event trace) lives in the [`KioskSession`], never in the
//!   [`Kiosk`], so concurrent sessions cannot observe each other;
//! - the only shared mutable state a session touches is the kiosk's event
//!   **journal**, and it is appended exactly once, atomically, when the
//!   session is sealed by [`KioskSession::finish`] — traces from two
//!   sessions can therefore never interleave, and
//!   [`crate::protocol::trace_shows_honest_real_flow`] always judges a
//!   contiguous per-session trace;
//! - the fleet schedules each *individual* kiosk's sessions strictly
//!   sequentially (a booth serves one voter at a time), so a kiosk's
//!   journal order is its queue order, independent of thread scheduling.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use vg_crypto::chaum_pedersen::{Commitment, Prover};
use vg_crypto::drbg::Rng;
use vg_crypto::edwards::FixedBaseTable;
use vg_crypto::elgamal::Ciphertext;
use vg_crypto::schnorr::{NonceCoupon, SigningKey};
use vg_crypto::sync::lock_recover;
use vg_crypto::{CompressedPoint, EdwardsPoint, Scalar};
use vg_ledger::{RegistrationRecord, VoterId};

use crate::ceremony::{FakePrecursor, RealPrecursor};
use crate::error::TripError;
use crate::materials::{
    commit_message, response_message, CheckInTicket, CheckOutQr, CommitQr, Envelope, Receipt,
    ResponseQr, Symbol,
};
use crate::official::verify_ticket;

/// Honest or compromised kiosk behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KioskBehavior {
    /// Follows the protocol.
    Honest,
    /// Uses the fake-credential process for the "real" credential, keeping
    /// the real key: the integrity adversary of §5.1.
    StealsRealCredential,
}

/// A registration kiosk.
pub struct Kiosk {
    key: SigningKey,
    mac_key: [u8; 32],
    /// This kiosk's copy of A_pk, as its [`FixedBaseTable::shared`]
    /// table: fetched when the kiosk is set up, so that no session pays
    /// for building it.
    pk_table: Arc<FixedBaseTable>,
    behavior: KioskBehavior,
    /// Sealed per-session event traces, in the order sessions finished on
    /// this kiosk (see the module-level concurrency audit).
    journal: Mutex<Vec<SessionTrace>>,
}

/// One sealed session's observable trace, as recorded in a kiosk journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionTrace {
    /// The session's voter.
    pub voter_id: VoterId,
    /// The booth events, in order.
    pub events: Vec<KioskEvent>,
}

/// Observable kiosk events, in booth order. The voter's mental model of
/// the correct sequence is what detects a compromised kiosk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KioskEvent {
    /// The session began (check-in ticket scanned).
    SessionStarted,
    /// The kiosk printed a symbol and the commit QR (real flow step 2).
    PrintedSymbolAndCommit {
        /// The symbol the voter must match.
        symbol: Symbol,
    },
    /// The kiosk scanned an envelope.
    ScannedEnvelope {
        /// The scanned envelope's symbol.
        symbol: Symbol,
    },
    /// The kiosk printed the check-out and response QRs (real flow step 4).
    PrintedCheckoutAndResponse,
    /// The kiosk printed an entire receipt at once (fake flow step 2).
    PrintedFullReceipt,
    /// The kiosk rejected an envelope whose symbol did not match.
    RejectedEnvelope,
}

/// State of a real-credential issuance between commit and challenge.
pub struct PendingRealCredential {
    credential: SigningKey,
    elgamal_secret: Scalar,
    prover: Prover,
    commit_qr: CommitQr,
    symbol: Symbol,
    /// Coupons for σ_kot and σ_kr, from the precursor.
    checkout_coupon: NonceCoupon,
    response_coupon: NonceCoupon,
}

impl PendingRealCredential {
    /// The symbol printed above the commit (the voter matches an envelope
    /// against it).
    pub fn symbol(&self) -> Symbol {
        self.symbol
    }
}

/// A credential stolen by a compromised kiosk (test/experiment hook).
pub struct StolenCredential {
    /// The victim.
    pub voter_id: VoterId,
    /// The real credential key the kiosk retained.
    pub key: SigningKey,
}

/// An in-booth kiosk session for one checked-in voter.
pub struct KioskSession<'k> {
    kiosk: &'k Kiosk,
    voter_id: VoterId,
    /// Set once the real credential has been issued: (c_pc, σ_kot).
    checkout: Option<CheckOutQr>,
    pending: Option<PendingRealCredential>,
    used_challenges: HashSet<[u8; 32]>,
    /// The observable event trace.
    pub events: Vec<KioskEvent>,
}

impl Kiosk {
    /// Creates a kiosk holding the registrar MAC key and the authority's
    /// collective encryption key.
    pub fn new(
        mac_key: [u8; 32],
        authority_pk: EdwardsPoint,
        behavior: KioskBehavior,
        rng: &mut dyn Rng,
    ) -> Self {
        Self {
            key: SigningKey::generate(rng),
            mac_key,
            pk_table: FixedBaseTable::shared(&authority_pk),
            behavior,
            journal: Mutex::new(Vec::new()),
        }
    }

    /// A snapshot of the sealed session traces recorded on this kiosk.
    pub fn journal(&self) -> Vec<SessionTrace> {
        lock_recover(&self.journal).clone()
    }

    /// The kiosk's public key (appears on receipts and the ledger).
    pub fn public_key(&self) -> CompressedPoint {
        self.key.public_key_compressed()
    }

    /// The configured behaviour.
    pub fn behavior(&self) -> KioskBehavior {
        self.behavior
    }

    /// Issues registrar evidence for a delegation target's public key
    /// (Appendix C.3): a σ_kr-style signature letting the party's ballots
    /// pass the registrar-issuance admission check. The (e, r) pair is a
    /// fresh synthetic binder — only its hash is signed, exactly as for
    /// ordinary credentials.
    pub fn issue_party_evidence(
        &self,
        party_pk: &CompressedPoint,
        rng: &mut dyn Rng,
    ) -> ([u8; 32], vg_crypto::schnorr::Signature, Scalar, Scalar) {
        let e = rng.scalar();
        let r = rng.scalar();
        let h = crate::materials::er_hash(&e, &r);
        let sig = self
            .key
            .sign(&crate::materials::response_message_from_hash(party_pk, &h));
        (h, sig, e, r)
    }

    /// A real precursor drawn on the spot, over this kiosk's copy of
    /// A_pk — what a kiosk that precomputed nothing starts a session from.
    pub fn draw_real(&self, rng: &mut dyn Rng) -> RealPrecursor {
        RealPrecursor::draw(&self.pk_table, rng)
    }

    /// [`Kiosk::draw_real`] for a forge precursor.
    pub fn draw_fake(&self, rng: &mut dyn Rng) -> FakePrecursor {
        FakePrecursor::draw(&self.pk_table, rng)
    }

    /// Starts a session by validating the check-in ticket (Fig 8, kiosk
    /// side).
    pub fn begin_session(&self, ticket: &CheckInTicket) -> Result<KioskSession<'_>, TripError> {
        verify_ticket(&self.mac_key, ticket)?;
        Ok(KioskSession {
            kiosk: self,
            voter_id: ticket.voter_id,
            checkout: None,
            pending: None,
            used_challenges: HashSet::new(),
            events: vec![KioskEvent::SessionStarted],
        })
    }
}

impl KioskSession<'_> {
    /// Real credential, step 2 (Fig 9a lines 6–8): sign the precursor's
    /// tag and commitment, print symbol + commit QR. The precursor was
    /// derived without reference to any envelope challenge, and the voter
    /// observes [`KioskEvent::PrintedSymbolAndCommit`] *before* being asked
    /// for an envelope — the soundness-critical ordering.
    pub fn begin_real_from(
        &mut self,
        pre: RealPrecursor,
    ) -> Result<&PendingRealCredential, TripError> {
        if self.checkout.is_some() || self.pending.is_some() {
            return Err(TripError::WrongPhysicalState);
        }
        let commit_qr = self.commit_qr(pre.c_pc, pre.commit, pre.commit_coupon);
        self.events
            .push(KioskEvent::PrintedSymbolAndCommit { symbol: pre.symbol });
        Ok(self.pending.insert(PendingRealCredential {
            credential: pre.credential,
            elgamal_secret: pre.elgamal_secret,
            prover: Prover::from_parts(pre.nonce, pre.commit),
            commit_qr,
            symbol: pre.symbol,
            checkout_coupon: pre.checkout_coupon,
            response_coupon: pre.response_coupon,
        }))
    }

    /// Real credential, step 4 (Fig 9a lines 9–18): scan the voter's
    /// envelope, compute the response, print the check-out and response
    /// QRs.
    ///
    /// Rejects an envelope with the wrong symbol (the voter keeps their
    /// envelope and picks a matching one, §4.4) or a challenge already
    /// used in this session.
    pub fn finish_real_credential(&mut self, envelope: &Envelope) -> Result<Receipt, TripError> {
        let pending = self.pending.as_ref().ok_or(TripError::WrongPhysicalState)?;
        if envelope.symbol != pending.symbol {
            self.events.push(KioskEvent::RejectedEnvelope);
            return Err(TripError::WrongSymbol);
        }
        self.scan(envelope)?;
        let pending = self.pending.take().expect("checked above");

        // r ← y − e·x (line 12).
        let transcript = pending
            .prover
            .respond(&pending.elgamal_secret, &envelope.challenge);
        // σ_kot, σ_kr (lines 13–14).
        let checkout_qr = self.issue_checkout(pending.commit_qr.c_pc, pending.checkout_coupon);
        let response_qr = self.response_qr(
            &pending.credential,
            &envelope.challenge,
            transcript.response,
            pending.response_coupon,
        );
        self.events.push(KioskEvent::PrintedCheckoutAndResponse);
        Ok(Receipt {
            symbol: pending.symbol,
            commit_qr: pending.commit_qr,
            checkout_qr,
            response_qr,
        })
    }

    /// Fake credential (Fig 9b): the envelope arrives first, the kiosk
    /// forges an unsound transcript from the precursor and the challenge
    /// and prints the whole receipt at once — two scalar multiplications
    /// (the challenge-dependent halves) plus hash-only signing.
    ///
    /// Requires the real credential to exist (the fake shares its c_pc and
    /// check-out ticket).
    pub fn create_fake_from(
        &mut self,
        pre: FakePrecursor,
        envelope: &Envelope,
    ) -> Result<Receipt, TripError> {
        let checkout = self
            .checkout
            .clone()
            .ok_or(TripError::RealCredentialMissing)?;
        self.scan(envelope)?;
        let receipt = self.forge_receipt_from(checkout, envelope, pre);
        self.events.push(KioskEvent::PrintedFullReceipt);
        Ok(receipt)
    }

    /// The compromised-kiosk "real" credential: runs the fake-credential
    /// process while the screen claims a real credential is being created,
    /// and keeps the real precursor's key.
    ///
    /// Returns the receipt handed to the voter and the stolen credential.
    /// The event trace shows [`KioskEvent::ScannedEnvelope`] *before* any
    /// printing — the tell a trained voter can notice (§7.5).
    pub fn malicious_real_from(
        &mut self,
        real: RealPrecursor,
        spare: FakePrecursor,
        envelope: &Envelope,
    ) -> Result<(Receipt, StolenCredential), TripError> {
        if self.kiosk.behavior != KioskBehavior::StealsRealCredential || self.checkout.is_some() {
            return Err(TripError::WrongPhysicalState);
        }
        self.scan(envelope)?;
        // The ledger gets the REAL tag; the voter a forged (fake)
        // credential presented as real.
        let checkout = self.issue_checkout(real.c_pc, real.checkout_coupon);
        let receipt = self.forge_receipt_from(checkout, envelope, spare);
        self.events.push(KioskEvent::PrintedFullReceipt);
        Ok((
            receipt,
            StolenCredential {
                voter_id: self.voter_id,
                key: real.credential,
            },
        ))
    }

    /// Extreme-coercion delegation (Appendix C.3): instead of a real
    /// credential, the voter delegates their voting rights to a well-known
    /// entity (e.g. a political party) whose public key the kiosk encrypts
    /// as this voter's credential tag. The voter then creates only fake
    /// credentials and leaves the booth holding nothing a coercer could
    /// find — at the cost of trusting the kiosk, which is unavoidable in
    /// this scenario.
    ///
    /// The kiosk never needs the party's private key (it encrypts the
    /// public key), so the party's credential is never exposed to the
    /// registrar.
    pub fn delegate_to_party(
        &mut self,
        party_pk: &EdwardsPoint,
        rng: &mut dyn Rng,
    ) -> Result<CheckOutQr, TripError> {
        if self.checkout.is_some() || self.pending.is_some() {
            return Err(TripError::WrongPhysicalState);
        }
        let x = rng.scalar();
        let c_pc = Ciphertext {
            c1: EdwardsPoint::mul_base(&x),
            c2: self.kiosk.pk_table.mul(&x) + *party_pk,
        };
        let checkout = self.issue_checkout(c_pc, NonceCoupon::generate(rng));
        self.events.push(KioskEvent::PrintedCheckoutAndResponse);
        Ok(checkout)
    }

    /// Seals the session: the full event trace is appended to the kiosk's
    /// journal in one atomic step (so traces from concurrent sessions on
    /// other threads can never interleave with it) and returned to the
    /// caller.
    pub fn finish(self) -> Vec<KioskEvent> {
        lock_recover(&self.kiosk.journal).push(SessionTrace {
            voter_id: self.voter_id,
            events: self.events.clone(),
        });
        self.events
    }

    /// Scans an envelope: a challenge already used in this session is
    /// rejected, anything else is on the trace as scanned.
    fn scan(&mut self, envelope: &Envelope) -> Result<(), TripError> {
        if !self.used_challenges.insert(envelope.challenge.to_bytes()) {
            self.events.push(KioskEvent::RejectedEnvelope);
            return Err(TripError::EnvelopeReused);
        }
        self.events.push(KioskEvent::ScannedEnvelope {
            symbol: envelope.symbol,
        });
        Ok(())
    }

    /// Signs the session's check-out ticket t_ot = (V_id, c_pc, K_pk,
    /// σ_kot) and keeps it: every credential of the session carries this
    /// one ticket.
    fn issue_checkout(&mut self, c_pc: Ciphertext, coupon: NonceCoupon) -> CheckOutQr {
        let kiosk_sig = self.kiosk.key.sign_with_coupon(
            &RegistrationRecord::kiosk_message(self.voter_id, &c_pc),
            coupon,
        );
        self.checkout
            .insert(CheckOutQr {
                voter_id: self.voter_id,
                c_pc,
                kiosk_pk: self.kiosk.public_key(),
                kiosk_sig,
            })
            .clone()
    }

    /// Prints q_c = (V_id, c_pc, Y_c, σ_kc), σ_kc over V_id ‖ c_pc ‖ Y_c
    /// (Fig 9a lines 6–7, Fig 9b line 11).
    fn commit_qr(&self, c_pc: Ciphertext, commit: Commitment, coupon: NonceCoupon) -> CommitQr {
        let message = commit_message(self.voter_id, &c_pc, &commit);
        CommitQr {
            voter_id: self.voter_id,
            c_pc,
            commit,
            kiosk_sig: self.kiosk.key.sign_with_coupon(&message, coupon),
        }
    }

    /// Prints q_r = (c_sk, r, K_pk, σ_kr), σ_kr over c_pk ‖ H(e ‖ r)
    /// (Fig 9a lines 14–16, Fig 9b line 12).
    fn response_qr(
        &self,
        credential: &SigningKey,
        challenge: &Scalar,
        response: Scalar,
        coupon: NonceCoupon,
    ) -> ResponseQr {
        let c_pk = credential.public_key_compressed();
        let message = response_message(&c_pk, challenge, &response);
        ResponseQr {
            credential_sk: credential.secret(),
            response,
            kiosk_pk: self.kiosk.public_key(),
            kiosk_sig: self.kiosk.key.sign_with_coupon(&message, coupon),
        }
    }

    /// Forges a receipt whose transcript "proves" that `checkout.c_pc`
    /// encrypts the precursor's fake key (Fig 9b lines 4–14):
    /// Y = (y·g₁ + e·C₁, y·g₂ + e·X̃) with the y-halves already evaluated,
    /// and r = y.
    fn forge_receipt_from(
        &self,
        checkout: CheckOutQr,
        envelope: &Envelope,
        pre: FakePrecursor,
    ) -> Receipt {
        // X̃ ← C₂ − c̃_pk (line 4): no witness exists for this statement.
        let x_tilde = checkout.c_pc.c2 - pre.credential.verifying_key().0;
        // At Z = 1, as a real commitment leaves `RealPrecursor::draw`.
        let mut y = [
            pre.g1y + checkout.c_pc.c1 * envelope.challenge,
            pre.g2y + x_tilde * envelope.challenge,
        ];
        EdwardsPoint::batch_normalize(&mut y);
        let commit = Commitment { a1: y[0], a2: y[1] };
        Receipt {
            symbol: envelope.symbol,
            commit_qr: self.commit_qr(checkout.c_pc, commit, pre.commit_coupon),
            response_qr: self.response_qr(
                &pre.credential,
                &envelope.challenge,
                pre.forge_nonce,
                pre.response_coupon,
            ),
            checkout_qr: checkout,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ceremony::SessionMaterials;
    use crate::materials::checkin_message;
    use crate::printer::EnvelopePrinter;
    use vg_crypto::hmac::hmac_sha256;
    use vg_crypto::HmacDrbg;

    const MAC: [u8; 32] = [9u8; 32];

    fn booth(seed: u64, behavior: KioskBehavior) -> (Kiosk, HmacDrbg) {
        let mut rng = HmacDrbg::from_u64(seed);
        let authority_pk = EdwardsPoint::mul_base(&rng.scalar());
        (Kiosk::new(MAC, authority_pk, behavior, &mut rng), rng)
    }

    /// The kiosk's A_pk, read back from its table as 1·A_pk.
    fn apk(kiosk: &Kiosk) -> EdwardsPoint {
        kiosk.pk_table.mul(&Scalar::ONE)
    }

    fn ticket(mac_key: &[u8; 32], voter: VoterId) -> CheckInTicket {
        CheckInTicket {
            voter_id: voter,
            tag: hmac_sha256(mac_key, &checkin_message(voter)),
        }
    }

    fn envelope(symbol: Symbol, rng: &mut dyn Rng) -> Envelope {
        let printer = SigningKey::generate(rng);
        Envelope {
            printer_pk: printer.verifying_key().compress(),
            challenge: rng.scalar(),
            signature: printer.sign(b"x"),
            symbol,
        }
    }

    fn printer() -> EnvelopePrinter {
        EnvelopePrinter::new(&mut HmacDrbg::from_u64(99))
    }

    /// Where a session's precursors come from: drawn at the booth door
    /// ([`Kiosk::draw_real`], [`Kiosk::draw_fake`]) or taken from a pool
    /// bundle (the seeded derivation). Either way they enter the one
    /// `*_from` ceremony.
    #[derive(Clone, Copy, Debug)]
    enum Source {
        Drawn,
        Pooled,
    }
    const SOURCES: [Source; 2] = [Source::Drawn, Source::Pooled];

    /// A pool bundle for one voter with one fake and the malicious spare
    /// (which leaves the honest prefix of the stream unchanged).
    fn pooled(kiosk: &Kiosk) -> SessionMaterials {
        let apk = &apk(kiosk);
        SessionMaterials::derive(&[3u8; 32], 0, VoterId(1), 1, apk, &printer(), true)
    }

    impl Source {
        fn real(self, kiosk: &Kiosk, rng: &mut dyn Rng) -> RealPrecursor {
            match self {
                Source::Drawn => kiosk.draw_real(rng),
                Source::Pooled => pooled(kiosk).real,
            }
        }

        fn fake(self, kiosk: &Kiosk, rng: &mut dyn Rng) -> FakePrecursor {
            match self {
                Source::Drawn => kiosk.draw_fake(rng),
                Source::Pooled => pooled(kiosk).fakes.remove(0),
            }
        }

        /// The forge precursor a stealing kiosk spends on its victim.
        fn spare(self, kiosk: &Kiosk, rng: &mut dyn Rng) -> FakePrecursor {
            match self {
                Source::Drawn => kiosk.draw_fake(rng),
                Source::Pooled => pooled(kiosk).malicious_spare.unwrap(),
            }
        }
    }

    #[test]
    fn session_requires_valid_ticket() {
        let (kiosk, _) = booth(1, KioskBehavior::Honest);
        assert!(kiosk.begin_session(&ticket(&MAC, VoterId(1))).is_ok());
        assert!(kiosk
            .begin_session(&ticket(&[0u8; 32], VoterId(1)))
            .is_err());
    }

    #[test]
    fn real_flow_event_order() {
        for source in SOURCES {
            let (kiosk, mut rng) = booth(2, KioskBehavior::Honest);
            let mut session = kiosk.begin_session(&ticket(&MAC, VoterId(1))).unwrap();
            let real = source.real(&kiosk, &mut rng);
            let symbol = session.begin_real_from(real).unwrap().symbol();
            let env = envelope(symbol, &mut rng);
            let receipt = session.finish_real_credential(&env).unwrap();
            assert_eq!(receipt.symbol, symbol);
            // Commit printed BEFORE envelope scanned.
            assert_eq!(
                session.events,
                vec![
                    KioskEvent::SessionStarted,
                    KioskEvent::PrintedSymbolAndCommit { symbol },
                    KioskEvent::ScannedEnvelope { symbol },
                    KioskEvent::PrintedCheckoutAndResponse,
                ],
                "{source:?}"
            );
        }
    }

    #[test]
    fn wrong_symbol_gently_rejected() {
        for source in SOURCES {
            let (kiosk, mut rng) = booth(3, KioskBehavior::Honest);
            let mut session = kiosk.begin_session(&ticket(&MAC, VoterId(1))).unwrap();
            let real = source.real(&kiosk, &mut rng);
            let symbol = session.begin_real_from(real).unwrap().symbol();
            let wrong = Symbol::ALL.iter().copied().find(|s| *s != symbol).unwrap();
            let env = envelope(wrong, &mut rng);
            assert_eq!(
                session.finish_real_credential(&env).unwrap_err(),
                TripError::WrongSymbol,
                "{source:?}"
            );
            // The session is still pending; a matching envelope succeeds.
            let env = envelope(symbol, &mut rng);
            assert!(session.finish_real_credential(&env).is_ok(), "{source:?}");
        }
    }

    #[test]
    fn fake_requires_real_first() {
        for source in SOURCES {
            let (kiosk, mut rng) = booth(4, KioskBehavior::Honest);
            let mut session = kiosk.begin_session(&ticket(&MAC, VoterId(1))).unwrap();
            let env = envelope(Symbol::Star, &mut rng);
            assert_eq!(
                session
                    .create_fake_from(source.fake(&kiosk, &mut rng), &env)
                    .unwrap_err(),
                TripError::RealCredentialMissing,
                "{source:?}"
            );
        }
    }

    #[test]
    fn envelope_reuse_rejected() {
        for source in SOURCES {
            let (kiosk, mut rng) = booth(5, KioskBehavior::Honest);
            let mut session = kiosk.begin_session(&ticket(&MAC, VoterId(1))).unwrap();
            let real = source.real(&kiosk, &mut rng);
            let symbol = session.begin_real_from(real).unwrap().symbol();
            let env = envelope(symbol, &mut rng);
            session.finish_real_credential(&env).unwrap();
            // Reusing the same envelope for a fake is rejected.
            assert_eq!(
                session
                    .create_fake_from(source.fake(&kiosk, &mut rng), &env)
                    .unwrap_err(),
                TripError::EnvelopeReused,
                "{source:?}"
            );
        }
    }

    #[test]
    fn fake_shares_checkout_with_real() {
        for source in SOURCES {
            let (kiosk, mut rng) = booth(6, KioskBehavior::Honest);
            let mut session = kiosk.begin_session(&ticket(&MAC, VoterId(1))).unwrap();
            let real = source.real(&kiosk, &mut rng);
            let symbol = session.begin_real_from(real).unwrap().symbol();
            let real = session
                .finish_real_credential(&envelope(symbol, &mut rng))
                .unwrap();
            let env = envelope(Symbol::Circle, &mut rng);
            let fake = session
                .create_fake_from(source.fake(&kiosk, &mut rng), &env)
                .unwrap();
            // "t_ot is identical (both in content and visually)" (Fig 9b):
            // same tag, same kiosk, byte-identical signature.
            assert_eq!(real.checkout_qr, fake.checkout_qr, "{source:?}");
            // But the credential keys differ.
            assert_ne!(
                real.response_qr.credential_sk,
                fake.response_qr.credential_sk
            );
        }
    }

    #[test]
    fn malicious_kiosk_event_order_differs() {
        for source in SOURCES {
            let (kiosk, mut rng) = booth(7, KioskBehavior::StealsRealCredential);
            let mut session = kiosk.begin_session(&ticket(&MAC, VoterId(1))).unwrap();
            let env = envelope(Symbol::Star, &mut rng);
            let (_receipt, stolen) = session
                .malicious_real_from(
                    source.real(&kiosk, &mut rng),
                    source.spare(&kiosk, &mut rng),
                    &env,
                )
                .unwrap();
            assert_eq!(stolen.voter_id, VoterId(1));
            // The tell: envelope scanned first, no commit printed beforehand.
            assert_eq!(
                session.events,
                vec![
                    KioskEvent::SessionStarted,
                    KioskEvent::ScannedEnvelope {
                        symbol: Symbol::Star
                    },
                    KioskEvent::PrintedFullReceipt,
                ],
                "{source:?}"
            );
        }
    }

    #[test]
    fn honest_kiosk_refuses_malicious_flow() {
        for source in SOURCES {
            let (kiosk, mut rng) = booth(8, KioskBehavior::Honest);
            let mut session = kiosk.begin_session(&ticket(&MAC, VoterId(1))).unwrap();
            let env = envelope(Symbol::Star, &mut rng);
            assert!(
                session
                    .malicious_real_from(
                        source.real(&kiosk, &mut rng),
                        source.spare(&kiosk, &mut rng),
                        &env
                    )
                    .is_err(),
                "{source:?}"
            );
        }
    }

    /// Two precursor sources, one ceremony: an interactive session fed the
    /// seeded derivation's own stream prints the seeded session's receipt,
    /// byte for byte. (A fake or stolen credential takes its envelope
    /// before it draws on the interactive side and after on the seeded
    /// one, so only the real flow's streams line up.)
    #[test]
    fn interactive_session_on_the_seeded_stream_prints_the_seeded_receipt() {
        let (kiosk, _) = booth(9, KioskBehavior::Honest);
        let printer = printer();
        let (seed, index, voter) = ([4u8; 32], 3usize, VoterId(7));
        let ticket = ticket(&MAC, voter);

        let apk = &apk(&kiosk);
        let materials = SessionMaterials::derive(&seed, index, voter, 0, apk, &printer, false);
        let seeded = crate::fleet::run_pool_session(&kiosk, &ticket, materials)
            .unwrap()
            .outcome
            .believed_real;

        let mut label = b"trip-pool-session-v1".to_vec();
        label.extend_from_slice(&seed);
        label.extend_from_slice(&(index as u64).to_le_bytes());
        label.extend_from_slice(&voter.to_bytes());
        let mut stream = HmacDrbg::new(&label);
        let mut session = kiosk.begin_session(&ticket).unwrap();
        let real = kiosk.draw_real(&mut stream);
        let symbol = session.begin_real_from(real).unwrap().symbol();
        let (envelope, _) = printer.print_detached(stream.scalar(), symbol);
        let receipt = session.finish_real_credential(&envelope).unwrap();

        assert_eq!(receipt, seeded.receipt);
        assert_eq!(envelope, seeded.envelope);
    }
}
