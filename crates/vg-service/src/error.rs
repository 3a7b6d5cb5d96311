//! Service-layer errors with a typed wire encoding.
//!
//! Domain errors ([`vg_trip::TripError`] and everything nested inside it)
//! round-trip the wire as tagged variants, so a fleet run over TCP
//! observes the *same* typed error a local run would — the
//! cross-transport equivalence tests rely on this. The one lossy corner
//! is [`vg_crypto::CryptoError::Malformed`]'s static message, which
//! cannot be reconstituted from untrusted bytes and decodes to a fixed
//! placeholder.

use vg_crypto::codec::{put_u32, Reader};
use vg_crypto::CryptoError;
use vg_ledger::LedgerError;
use vg_trip::{ActivationCheck, TripError};

/// Errors raised by the service layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// A registrar-side domain error (typed; survives the wire).
    Trip(TripError),
    /// A transport failure: socket, framing, codec or protocol violation.
    Transport(String),
    /// A secure-channel peer completed the handshake cryptography but is
    /// not enrolled (unknown station key, or the registrar's static key
    /// did not match the enrolled one). Typed separately from
    /// [`ServiceError::HandshakeFailed`] so operators can distinguish
    /// "wrong key material" from "broken/absent handshake".
    AuthFailed(String),
    /// The secure-channel handshake itself failed: malformed, truncated,
    /// replayed or bit-flipped handshake frames, a bad signature or
    /// confirmation MAC, or a plaintext/secure policy mismatch between
    /// the two endpoints.
    HandshakeFailed(String),
    /// A read or write deadline expired before the peer made progress.
    /// Distinct from [`ServiceError::Transport`] so retry policies can
    /// tell a stalled-but-alive peer (retryable, reconnect) from a
    /// protocol violation (fatal). Survives the wire like every other
    /// variant.
    Timeout(String),
}

impl core::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServiceError::Trip(e) => write!(f, "service error: {e}"),
            ServiceError::Transport(what) => write!(f, "transport error: {what}"),
            ServiceError::AuthFailed(who) => write!(f, "channel authentication failed: {who}"),
            ServiceError::HandshakeFailed(why) => write!(f, "channel handshake failed: {why}"),
            ServiceError::Timeout(what) => write!(f, "deadline expired: {what}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<TripError> for ServiceError {
    fn from(e: TripError) -> Self {
        ServiceError::Trip(e)
    }
}

impl From<LedgerError> for ServiceError {
    fn from(e: LedgerError) -> Self {
        ServiceError::Trip(TripError::Ledger(e))
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        // A socket deadline expiring surfaces as `WouldBlock` (Unix) or
        // `TimedOut` (Windows); both mean "the peer stalled", not "the
        // peer broke protocol", so they map to the retryable variant.
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                ServiceError::Timeout(format!("io: {e}"))
            }
            _ => ServiceError::Transport(format!("io: {e}")),
        }
    }
}

impl ServiceError {
    /// A framing/codec failure.
    pub fn codec(e: CryptoError) -> Self {
        ServiceError::Transport(format!("codec: {e}"))
    }

    /// Maps into the fleet coordinator's error type: domain errors keep
    /// their variant, transport failures become
    /// [`TripError::Boundary`].
    pub fn into_trip(self) -> TripError {
        match self {
            ServiceError::Trip(e) => e,
            ServiceError::Transport(what) => TripError::Boundary(what),
            ServiceError::AuthFailed(who) => {
                TripError::Boundary(format!("channel authentication failed: {who}"))
            }
            ServiceError::HandshakeFailed(why) => {
                TripError::Boundary(format!("channel handshake failed: {why}"))
            }
            ServiceError::Timeout(what) => TripError::Boundary(format!("deadline expired: {what}")),
        }
    }

    /// `true` for failures a retry policy may usefully retry: stalls
    /// (deadline expiry) and transport-level connection failures. Domain
    /// errors, auth and handshake failures are deterministic — retrying
    /// them would yield the same answer.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ServiceError::Timeout(_) | ServiceError::Transport(_))
    }
}

fn crypto_code(e: &CryptoError) -> u32 {
    match e {
        CryptoError::InvalidPoint => 0,
        CryptoError::InvalidScalar => 1,
        CryptoError::BadSignature => 2,
        CryptoError::BadProof => 3,
        CryptoError::BadMac => 4,
        CryptoError::Malformed(_) => 5,
        CryptoError::InsufficientShares => 6,
        CryptoError::BadShare => 7,
    }
}

fn crypto_from_code(code: u32) -> Result<CryptoError, CryptoError> {
    Ok(match code {
        0 => CryptoError::InvalidPoint,
        1 => CryptoError::InvalidScalar,
        2 => CryptoError::BadSignature,
        3 => CryptoError::BadProof,
        4 => CryptoError::BadMac,
        5 => CryptoError::Malformed("remote"),
        6 => CryptoError::InsufficientShares,
        7 => CryptoError::BadShare,
        _ => return Err(CryptoError::Malformed("unknown crypto error code")),
    })
}

fn ledger_code(e: &LedgerError) -> (u32, u32) {
    match e {
        LedgerError::NotOnRoster => (0, 0),
        LedgerError::UnknownEnvelope => (1, 0),
        LedgerError::DuplicateChallenge => (2, 0),
        LedgerError::Crypto(c) => (3, crypto_code(c)),
        LedgerError::Storage(_) => (4, 0),
    }
}

/// The free-text payload a ledger error carries (storage failures keep
/// their diagnostic string across the wire; the coded variants carry
/// none).
fn ledger_text(e: &LedgerError) -> &str {
    match e {
        LedgerError::Storage(m) => m.as_str(),
        _ => "",
    }
}

fn ledger_from_code(code: u32, sub: u32, text: &str) -> Result<LedgerError, CryptoError> {
    Ok(match code {
        0 => LedgerError::NotOnRoster,
        1 => LedgerError::UnknownEnvelope,
        2 => LedgerError::DuplicateChallenge,
        3 => LedgerError::Crypto(crypto_from_code(sub)?),
        4 => LedgerError::Storage(text.to_string()),
        _ => return Err(CryptoError::Malformed("unknown ledger error code")),
    })
}

fn activation_code(c: &ActivationCheck) -> u32 {
    match c {
        ActivationCheck::CommitSignature => 0,
        ActivationCheck::ResponseSignature => 1,
        ActivationCheck::EnvelopeSignature => 2,
        ActivationCheck::ZkTranscript => 3,
        ActivationCheck::LedgerMismatch => 4,
        ActivationCheck::DuplicateChallenge => 5,
        ActivationCheck::NoRegistrationRecord => 6,
    }
}

fn activation_from_code(code: u32) -> Result<ActivationCheck, CryptoError> {
    Ok(match code {
        0 => ActivationCheck::CommitSignature,
        1 => ActivationCheck::ResponseSignature,
        2 => ActivationCheck::EnvelopeSignature,
        3 => ActivationCheck::ZkTranscript,
        4 => ActivationCheck::LedgerMismatch,
        5 => ActivationCheck::DuplicateChallenge,
        6 => ActivationCheck::NoRegistrationRecord,
        _ => return Err(CryptoError::Malformed("unknown activation check code")),
    })
}

/// Encodes a service error as `(tag, sub, sub2, text)`.
pub(crate) fn encode_error(buf: &mut Vec<u8>, e: &ServiceError) {
    let (tag, sub, sub2, text): (u32, u32, u32, &str) = match e {
        ServiceError::Trip(t) => match t {
            TripError::BadCheckInTicket => (0, 0, 0, ""),
            TripError::NotEligible => (1, 0, 0, ""),
            TripError::RealCredentialMissing => (2, 0, 0, ""),
            TripError::EnvelopeReused => (3, 0, 0, ""),
            TripError::WrongSymbol => (4, 0, 0, ""),
            TripError::NoMatchingEnvelope => (5, 0, 0, ""),
            TripError::UnknownKiosk => (6, 0, 0, ""),
            TripError::UnknownPrinter => (7, 0, 0, ""),
            TripError::Activation(c) => (8, activation_code(c), 0, ""),
            TripError::WrongPhysicalState => (9, 0, 0, ""),
            TripError::PoolIntegrity => (10, 0, 0, ""),
            TripError::Crypto(c) => (11, crypto_code(c), 0, ""),
            TripError::Ledger(l) => {
                let (a, b) = ledger_code(l);
                (12, a, b, ledger_text(l))
            }
            TripError::Boundary(s) => (13, 0, 0, s.as_str()),
            TripError::InvalidConfig(s) => (15, 0, 0, s.as_str()),
        },
        ServiceError::Transport(s) => (14, 0, 0, s.as_str()),
        ServiceError::AuthFailed(s) => (17, 0, 0, s.as_str()),
        ServiceError::HandshakeFailed(s) => (18, 0, 0, s.as_str()),
        ServiceError::Timeout(s) => (19, 0, 0, s.as_str()),
    };
    put_u32(buf, tag);
    put_u32(buf, sub);
    put_u32(buf, sub2);
    put_u32(buf, text.len() as u32);
    buf.extend_from_slice(text.as_bytes());
}

/// Decodes a service error encoded by [`encode_error`].
pub(crate) fn decode_error(r: &mut Reader<'_>) -> Result<ServiceError, CryptoError> {
    let tag = r.u32()?;
    let sub = r.u32()?;
    let sub2 = r.u32()?;
    let n = r.len_prefix()?;
    let text = String::from_utf8(r.take(n)?.to_vec())
        .map_err(|_| CryptoError::Malformed("error text not utf-8"))?;
    Ok(match tag {
        0 => ServiceError::Trip(TripError::BadCheckInTicket),
        1 => ServiceError::Trip(TripError::NotEligible),
        2 => ServiceError::Trip(TripError::RealCredentialMissing),
        3 => ServiceError::Trip(TripError::EnvelopeReused),
        4 => ServiceError::Trip(TripError::WrongSymbol),
        5 => ServiceError::Trip(TripError::NoMatchingEnvelope),
        6 => ServiceError::Trip(TripError::UnknownKiosk),
        7 => ServiceError::Trip(TripError::UnknownPrinter),
        8 => ServiceError::Trip(TripError::Activation(activation_from_code(sub)?)),
        9 => ServiceError::Trip(TripError::WrongPhysicalState),
        10 => ServiceError::Trip(TripError::PoolIntegrity),
        11 => ServiceError::Trip(TripError::Crypto(crypto_from_code(sub)?)),
        12 => ServiceError::Trip(TripError::Ledger(ledger_from_code(sub, sub2, &text)?)),
        13 => ServiceError::Trip(TripError::Boundary(text)),
        14 => ServiceError::Transport(text),
        15 => ServiceError::Trip(TripError::InvalidConfig(text)),
        // 16 was the barrier host's ingest-backpressure give-up; retired
        // with that host, never reassigned.
        17 => ServiceError::AuthFailed(text),
        18 => ServiceError::HandshakeFailed(text),
        19 => ServiceError::Timeout(text),
        _ => return Err(CryptoError::Malformed("unknown error tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_errors_roundtrip() {
        let cases = vec![
            ServiceError::Trip(TripError::NotEligible),
            ServiceError::Trip(TripError::UnknownKiosk),
            ServiceError::Trip(TripError::Activation(ActivationCheck::LedgerMismatch)),
            ServiceError::Trip(TripError::Crypto(CryptoError::BadSignature)),
            ServiceError::Trip(TripError::Ledger(LedgerError::DuplicateChallenge)),
            ServiceError::Trip(TripError::Ledger(LedgerError::Crypto(
                CryptoError::InvalidPoint,
            ))),
            ServiceError::Trip(TripError::Ledger(LedgerError::Storage(
                "wal poisoned by earlier failure: injected ENOSPC".into(),
            ))),
            ServiceError::Trip(TripError::Boundary("lost".into())),
            ServiceError::Trip(TripError::InvalidConfig("3 stations over 2 kiosks".into())),
            ServiceError::Transport("socket reset".into()),
            ServiceError::AuthFailed("station key not enrolled".into()),
            ServiceError::HandshakeFailed("confirmation mac mismatch".into()),
            ServiceError::Timeout("read deadline after 250ms".into()),
        ];
        for e in cases {
            let mut buf = Vec::new();
            encode_error(&mut buf, &e);
            let mut r = Reader::new(&buf);
            let back = decode_error(&mut r).expect("decodes");
            r.finish().unwrap();
            assert_eq!(back, e);
        }
    }

    #[test]
    fn socket_deadline_expiry_maps_to_timeout() {
        for kind in [std::io::ErrorKind::WouldBlock, std::io::ErrorKind::TimedOut] {
            let e: ServiceError = std::io::Error::new(kind, "read timed out").into();
            assert!(matches!(e, ServiceError::Timeout(_)), "{kind:?}");
            assert!(e.is_retryable());
        }
        let e: ServiceError =
            std::io::Error::new(std::io::ErrorKind::ConnectionReset, "peer reset").into();
        assert!(matches!(e, ServiceError::Transport(_)));
        assert!(!ServiceError::AuthFailed("x".into()).is_retryable());
    }

    #[test]
    fn garbage_error_rejected() {
        // 99 was never assigned; 16 is retired — a peer still speaking it
        // gets the typed codec error, not a misparse.
        for tag in [99, 16] {
            let mut buf = Vec::new();
            put_u32(&mut buf, tag);
            put_u32(&mut buf, 16_000);
            put_u32(&mut buf, 16_384);
            put_u32(&mut buf, 0);
            assert_eq!(
                decode_error(&mut Reader::new(&buf)),
                Err(CryptoError::Malformed("unknown error tag")),
                "tag {tag}"
            );
        }
    }
}
