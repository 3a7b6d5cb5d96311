//! The paper materials of TRIP: envelopes, receipts, tickets (§4.4, Fig 2).
//!
//! A paper credential is an envelope plus a printed receipt. The envelope
//! carries a pre-printed random challenge QR code and a symbol; the receipt
//! carries three QR codes — the IZKP commit, the check-out ticket, and the
//! IZKP response (which includes the credential secret key). The envelope's
//! window and opaque lower portion give the assembly two meaningful
//! physical states:
//!
//! - **transport** (receipt fully inserted, Fig 2c): only the check-out QR
//!   is visible through the window; the secret key is concealed.
//! - **activate** (receipt lifted a third out, Fig 2d): the commit QR, the
//!   envelope challenge QR and the response QR are visible; the check-out
//!   QR is hidden.
//!
//! The [`PaperCredential`] type enforces these visibility rules in the type
//! system: the check-out desk can only read what transport state exposes,
//! and the VSD can only read what activate state exposes.

use vg_crypto::chaum_pedersen::Commitment;
use vg_crypto::edwards::CompressedPoint;
use vg_crypto::elgamal::Ciphertext;
use vg_crypto::schnorr::Signature;
use vg_crypto::sha2::sha256;
use vg_crypto::Scalar;
use vg_ledger::VoterId;

use crate::error::TripError;

/// The symbols printed on envelopes and receipts (§4.4: "one of a few
/// symbols at random"), used to train voters to wait for the commit before
/// choosing an envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Symbol {
    /// ● — filled circle.
    Circle,
    /// ▲ — triangle.
    Triangle,
    /// ■ — square.
    Square,
    /// ★ — star.
    Star,
    /// ◆ — diamond.
    Diamond,
}

impl Symbol {
    /// All symbols, for random selection.
    pub const ALL: [Symbol; 5] = [
        Symbol::Circle,
        Symbol::Triangle,
        Symbol::Square,
        Symbol::Star,
        Symbol::Diamond,
    ];

    /// Picks a symbol uniformly at random.
    pub fn random(rng: &mut dyn vg_crypto::Rng) -> Symbol {
        Self::ALL[rng.below(Self::ALL.len() as u64) as usize]
    }

    /// Stable byte tag for canonical encodings.
    pub fn tag(self) -> u8 {
        match self {
            Symbol::Circle => 0,
            Symbol::Triangle => 1,
            Symbol::Square => 2,
            Symbol::Star => 3,
            Symbol::Diamond => 4,
        }
    }
}

/// A check-in ticket: (V_id, τ_r) with τ_r = MAC(s_rk, V_id) (Fig 8).
///
/// Printed as a barcode in the deployed system (§7.5 switched from QR to
/// barcode after the preliminary studies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckInTicket {
    /// The authenticated voter.
    pub voter_id: VoterId,
    /// HMAC tag authorizing one kiosk session.
    pub tag: [u8; 32],
}

/// An envelope (Fig 2a): pre-printed challenge QR, printer signature and a
/// symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// The issuing printer's public key.
    pub printer_pk: CompressedPoint,
    /// The challenge nonce e (the IZKP challenge).
    pub challenge: Scalar,
    /// Printer signature σ_p over H(e).
    pub signature: Signature,
    /// The pre-printed symbol.
    pub symbol: Symbol,
}

/// The first receipt QR (Fig 9a line 7): q_c = (V_id, c_pc, Y_c, σ_kc).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitQr {
    /// Voter identifier.
    pub voter_id: VoterId,
    /// The public credential tag (encryption of the real credential key).
    pub c_pc: Ciphertext,
    /// The Σ-protocol commitment Y_c = (Y₁, Y₂).
    pub commit: Commitment,
    /// Kiosk signature σ_kc over V_id ‖ c_pc ‖ Y_c.
    pub kiosk_sig: Signature,
}

/// The second receipt QR (Fig 9a line 15): t_ot = (V_id, c_pc, K_pk, σ_kot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutQr {
    /// Voter identifier.
    pub voter_id: VoterId,
    /// The public credential tag.
    pub c_pc: Ciphertext,
    /// Issuing kiosk public key.
    pub kiosk_pk: CompressedPoint,
    /// Kiosk signature σ_kot over V_id ‖ c_pc.
    pub kiosk_sig: Signature,
}

/// The third receipt QR (Fig 9a line 16): q_r = (c_sk, r, K_pk, σ_kr).
#[derive(Clone, PartialEq, Eq)]
pub struct ResponseQr {
    /// The credential *secret* key (hidden inside the envelope during
    /// transport).
    pub credential_sk: Scalar,
    /// The Σ-protocol response r.
    pub response: Scalar,
    /// Issuing kiosk public key.
    pub kiosk_pk: CompressedPoint,
    /// Kiosk signature σ_kr over c_pk ‖ H(e ‖ r).
    pub kiosk_sig: Signature,
}

impl core::fmt::Debug for ResponseQr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // c_sk is the credential itself: it stays off logs, and so does
        // every `{:?}` of a receipt or an activate view built on this one.
        write!(
            f,
            "ResponseQr(kiosk_pk={:?}, credential_sk=<redacted>)",
            self.kiosk_pk
        )
    }
}

/// A fully printed receipt (Fig 2b).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// The symbol printed above the commit QR.
    pub symbol: Symbol,
    /// First QR: the IZKP commit.
    pub commit_qr: CommitQr,
    /// Second QR: the check-out ticket.
    pub checkout_qr: CheckOutQr,
    /// Third QR: the IZKP response (with the secret key).
    pub response_qr: ResponseQr,
}

/// Physical state of an assembled paper credential.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CredentialState {
    /// Receipt fully inserted (Fig 2c): check-out QR visible via window.
    Transport,
    /// Receipt lifted one third (Fig 2d): commit, challenge and response
    /// QRs visible; check-out QR hidden.
    Activate,
}

/// What the check-out official's scanner can see in transport state.
#[derive(Debug, Clone)]
pub struct TransportView<'a> {
    /// The visible check-out QR.
    pub checkout: &'a CheckOutQr,
}

/// What the voter's device can see in activate state.
#[derive(Debug, Clone)]
pub struct ActivateView<'a> {
    /// The commit QR (receipt top).
    pub commit: &'a CommitQr,
    /// The envelope challenge QR.
    pub envelope: &'a Envelope,
    /// The response QR (receipt bottom).
    pub response: &'a ResponseQr,
}

/// An assembled paper credential: receipt inside envelope, with the
/// voter's private marking.
#[derive(Clone)]
pub struct PaperCredential {
    /// The printed receipt.
    pub receipt: Receipt,
    /// The envelope whose challenge was used.
    pub envelope: Envelope,
    /// Current physical state.
    pub state: CredentialState,
    /// The voter's private marking (e.g. "R"); only the voter knows their
    /// own convention (§3.2).
    pub marking: Option<String>,
}

impl core::fmt::Debug for PaperCredential {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The marking says which credential is real — the one bit TRIP
        // exists to keep from a coercer — and the receipt holds c_sk.
        write!(
            f,
            "PaperCredential(kiosk_pk={:?}, state={:?}, credential_sk=<redacted>, marking=<redacted>)",
            self.receipt.response_qr.kiosk_pk, self.state
        )
    }
}

impl PaperCredential {
    /// Assembles a credential in transport state (Fig 2c).
    pub fn assemble(receipt: Receipt, envelope: Envelope) -> Self {
        Self {
            receipt,
            envelope,
            state: CredentialState::Transport,
            marking: None,
        }
    }

    /// The voter marks the credential with their private convention.
    pub fn mark(&mut self, marking: &str) {
        self.marking = Some(marking.to_string());
    }

    /// Lifts the receipt to the activate position (Fig 2d).
    pub fn lift_to_activate(&mut self) {
        self.state = CredentialState::Activate;
    }

    /// Re-inserts the receipt for transport.
    pub fn reinsert(&mut self) {
        self.state = CredentialState::Transport;
    }

    /// What a scanner sees in transport state.
    pub fn transport_view(&self) -> Result<TransportView<'_>, TripError> {
        if self.state != CredentialState::Transport {
            return Err(TripError::WrongPhysicalState);
        }
        Ok(TransportView {
            checkout: &self.receipt.checkout_qr,
        })
    }

    /// What a scanner sees in activate state.
    pub fn activate_view(&self) -> Result<ActivateView<'_>, TripError> {
        if self.state != CredentialState::Activate {
            return Err(TripError::WrongPhysicalState);
        }
        Ok(ActivateView {
            commit: &self.receipt.commit_qr,
            envelope: &self.envelope,
            response: &self.receipt.response_qr,
        })
    }
}

/// Canonical message for the kiosk's commit signature σ_kc
/// (V_id ‖ c_pc ‖ Y_c).
pub fn commit_message(voter_id: VoterId, c_pc: &Ciphertext, commit: &Commitment) -> Vec<u8> {
    let mut m = Vec::with_capacity(192);
    m.extend_from_slice(b"trip-commit-v1");
    m.extend_from_slice(&voter_id.to_bytes());
    m.extend_from_slice(&c_pc.to_bytes());
    m.extend_from_slice(&commit.a1.compress().0);
    m.extend_from_slice(&commit.a2.compress().0);
    m
}

/// H(e ‖ r), the challenge–response digest inside the kiosk's response
/// signature. Ballots carry this hash (not e and r themselves) to prove
/// registrar issuance (Appendix M's board-flooding defence).
pub fn er_hash(e: &Scalar, r: &Scalar) -> [u8; 32] {
    let mut er = Vec::with_capacity(80);
    er.extend_from_slice(b"trip-e-r-v1");
    er.extend_from_slice(&e.to_bytes());
    er.extend_from_slice(&r.to_bytes());
    sha256(&er)
}

/// Canonical message for σ_kr given the precomputed H(e ‖ r).
pub fn response_message_from_hash(credential_pk: &CompressedPoint, h: &[u8; 32]) -> Vec<u8> {
    let mut m = Vec::with_capacity(96);
    m.extend_from_slice(b"trip-response-v1");
    m.extend_from_slice(&credential_pk.0);
    m.extend_from_slice(h);
    m
}

/// Canonical message for the kiosk's response signature σ_kr
/// (c_pk ‖ H(e ‖ r)).
pub fn response_message(credential_pk: &CompressedPoint, e: &Scalar, r: &Scalar) -> Vec<u8> {
    response_message_from_hash(credential_pk, &er_hash(e, r))
}

/// Canonical message for the check-in MAC (τ_r over V_id).
pub fn checkin_message(voter_id: VoterId) -> Vec<u8> {
    let mut m = Vec::with_capacity(32);
    m.extend_from_slice(b"trip-checkin-v1");
    m.extend_from_slice(&voter_id.to_bytes());
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::chaum_pedersen::Commitment;
    use vg_crypto::schnorr::SigningKey;
    use vg_crypto::{EdwardsPoint, HmacDrbg, Rng};

    fn sample_credential(rng: &mut dyn Rng) -> PaperCredential {
        let kiosk = SigningKey::generate(rng);
        let printer = SigningKey::generate(rng);
        let c_pc = Ciphertext {
            c1: EdwardsPoint::mul_base(&rng.scalar()),
            c2: EdwardsPoint::mul_base(&rng.scalar()),
        };
        let commit = Commitment {
            a1: EdwardsPoint::mul_base(&rng.scalar()),
            a2: EdwardsPoint::mul_base(&rng.scalar()),
        };
        let voter_id = VoterId(7);
        let e = rng.scalar();
        let receipt = Receipt {
            symbol: Symbol::Star,
            commit_qr: CommitQr {
                voter_id,
                c_pc,
                commit,
                kiosk_sig: kiosk.sign(&commit_message(voter_id, &c_pc, &commit)),
            },
            checkout_qr: CheckOutQr {
                voter_id,
                c_pc,
                kiosk_pk: kiosk.verifying_key().compress(),
                kiosk_sig: kiosk.sign(b"checkout"),
            },
            response_qr: ResponseQr {
                credential_sk: rng.scalar(),
                response: rng.scalar(),
                kiosk_pk: kiosk.verifying_key().compress(),
                kiosk_sig: kiosk.sign(b"response"),
            },
        };
        let envelope = Envelope {
            printer_pk: printer.verifying_key().compress(),
            challenge: e,
            signature: printer.sign(b"envelope"),
            symbol: Symbol::Star,
        };
        PaperCredential::assemble(receipt, envelope)
    }

    #[test]
    fn transport_state_hides_secret() {
        let mut rng = HmacDrbg::from_u64(1);
        let cred = sample_credential(&mut rng);
        // In transport state only the check-out QR is readable.
        assert!(cred.transport_view().is_ok());
        assert_eq!(
            cred.activate_view().unwrap_err(),
            TripError::WrongPhysicalState
        );
    }

    #[test]
    fn activate_state_hides_checkout() {
        let mut rng = HmacDrbg::from_u64(2);
        let mut cred = sample_credential(&mut rng);
        cred.lift_to_activate();
        assert!(cred.activate_view().is_ok());
        assert_eq!(
            cred.transport_view().unwrap_err(),
            TripError::WrongPhysicalState
        );
        // Reinsert flips it back.
        cred.reinsert();
        assert!(cred.transport_view().is_ok());
    }

    #[test]
    fn marking_is_private_free_text() {
        let mut rng = HmacDrbg::from_u64(3);
        let mut cred = sample_credential(&mut rng);
        assert!(cred.marking.is_none());
        cred.mark("RR");
        assert_eq!(cred.marking.as_deref(), Some("RR"));
    }

    #[test]
    fn debug_prints_neither_the_secret_key_nor_the_marking() {
        let mut rng = HmacDrbg::from_u64(6);
        for marking in ["R", "F0"] {
            let mut cred = sample_credential(&mut rng);
            cred.mark(marking);
            cred.lift_to_activate();
            let sk = cred.receipt.response_qr.credential_sk.to_bytes();
            let sk_hex: String = sk.iter().rev().map(|b| format!("{b:02x}")).collect();
            let view = cred.activate_view().unwrap();
            let printed = format!("{cred:?} {:?} {view:?}", vec![cred.receipt.clone()]);
            assert!(!printed.contains(sk_hex.as_str()), "c_sk in {printed}");
            assert!(
                !printed.contains(&format!("{marking:?}")),
                "marking in {printed}"
            );
            assert!(printed.contains("PaperCredential(") && printed.contains("ResponseQr("));
        }
    }

    #[test]
    fn symbols_distinct_tags() {
        let mut seen = std::collections::HashSet::new();
        for s in Symbol::ALL {
            assert!(seen.insert(s.tag()));
        }
    }

    #[test]
    fn random_symbol_covers_all() {
        let mut rng = HmacDrbg::from_u64(4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(Symbol::random(&mut rng));
        }
        assert_eq!(seen.len(), Symbol::ALL.len());
    }

    #[test]
    fn canonical_messages_injective() {
        let mut rng = HmacDrbg::from_u64(5);
        let c_pc = Ciphertext {
            c1: EdwardsPoint::mul_base(&rng.scalar()),
            c2: EdwardsPoint::mul_base(&rng.scalar()),
        };
        let commit = Commitment {
            a1: EdwardsPoint::mul_base(&rng.scalar()),
            a2: EdwardsPoint::mul_base(&rng.scalar()),
        };
        let m1 = commit_message(VoterId(1), &c_pc, &commit);
        let m2 = commit_message(VoterId(2), &c_pc, &commit);
        assert_ne!(m1, m2);

        let pk = EdwardsPoint::mul_base(&rng.scalar()).compress();
        let (e, r) = (rng.scalar(), rng.scalar());
        assert_ne!(response_message(&pk, &e, &r), response_message(&pk, &r, &e));
    }
}
