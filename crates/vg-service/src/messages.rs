//! Typed request/response messages for the four registrar roles, with
//! canonical [`Wire`] encodings.
//!
//! Every message is built from the protocol's natural units — check-in
//! tickets, check-out QRs, envelope commitments, print jobs, activation
//! claims, signed tree heads — encoded under the strict `vg_crypto::codec`
//! rules: points validated on decode, scalars canonical, collection lengths
//! bounded, trailing bytes rejected. Every QR a booth prints is one of these
//! encodings, the receipt's commit and response QRs included. The round-trip
//! property tests at the workspace root (`tests/service.rs`) cover every
//! type here, plus truncation and garbage-frame fuzzing.

use vg_crypto::chaum_pedersen::Commitment;
use vg_crypto::codec::{put_ciphertext, put_point, put_scalar, put_u64, Reader};
use vg_crypto::elgamal::Ciphertext;
use vg_crypto::schnorr::{NonceCoupon, Signature};
use vg_crypto::{CompressedPoint, CryptoError, Scalar};
use vg_ledger::{EnvelopeCommitment, TreeHead, VoterId};
use vg_trip::materials::{CheckInTicket, CheckOutQr, CommitQr, Envelope, ResponseQr, Symbol};
use vg_trip::vsd::ActivationClaim;
use vg_trip::{PrintJob, SessionSubmission};

use crate::wire::Wire;

impl Wire for VoterId {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.0);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok(VoterId(r.u64()?))
    }
}

impl Wire for Scalar {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_scalar(buf, self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        r.scalar()
    }
}

/// Transported as the raw 32-byte encoding: registry membership and
/// record cross-checks compare encodings; any arithmetic use goes through
/// `VerifyingKey::from_compressed`, which re-validates.
impl Wire for CompressedPoint {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        r.compressed_point()
    }
}

impl Wire for Ciphertext {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_ciphertext(buf, self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        r.ciphertext()
    }
}

impl Wire for Signature {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Signature::from_bytes(&r.bytes64()?)
    }
}

impl Wire for Symbol {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.tag());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        let tag = r.u8()?;
        Symbol::ALL
            .into_iter()
            // vg-lint: allow(ct-compare) symbol tags are public wire discriminants, not secrets
            .find(|s| s.tag() == tag)
            .ok_or(CryptoError::Malformed("unknown symbol tag"))
    }
}

impl Wire for CheckInTicket {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.voter_id.encode(buf);
        buf.extend_from_slice(&self.tag);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok(CheckInTicket {
            voter_id: VoterId::decode(r)?,
            tag: r.bytes32()?,
        })
    }
}

impl Wire for CheckOutQr {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.voter_id.encode(buf);
        self.c_pc.encode(buf);
        self.kiosk_pk.encode(buf);
        self.kiosk_sig.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok(CheckOutQr {
            voter_id: VoterId::decode(r)?,
            c_pc: Ciphertext::decode(r)?,
            kiosk_pk: CompressedPoint::decode(r)?,
            kiosk_sig: Signature::decode(r)?,
        })
    }
}

impl Wire for Envelope {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.printer_pk.encode(buf);
        put_scalar(buf, &self.challenge);
        self.signature.encode(buf);
        self.symbol.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok(Envelope {
            printer_pk: CompressedPoint::decode(r)?,
            challenge: r.scalar()?,
            signature: Signature::decode(r)?,
            symbol: Symbol::decode(r)?,
        })
    }
}

impl Wire for CommitQr {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.voter_id.encode(buf);
        self.c_pc.encode(buf);
        put_point(buf, &self.commit.a1);
        put_point(buf, &self.commit.a2);
        self.kiosk_sig.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok(CommitQr {
            voter_id: VoterId::decode(r)?,
            c_pc: Ciphertext::decode(r)?,
            commit: Commitment {
                a1: r.point()?,
                a2: r.point()?,
            },
            kiosk_sig: Signature::decode(r)?,
        })
    }
}

impl Wire for ResponseQr {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_scalar(buf, &self.credential_sk);
        put_scalar(buf, &self.response);
        self.kiosk_pk.encode(buf);
        self.kiosk_sig.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok(ResponseQr {
            credential_sk: r.scalar()?,
            response: r.scalar()?,
            kiosk_pk: CompressedPoint::decode(r)?,
            kiosk_sig: Signature::decode(r)?,
        })
    }
}

impl Wire for EnvelopeCommitment {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.printer_pk.encode(buf);
        buf.extend_from_slice(&self.challenge_hash);
        self.signature.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok(EnvelopeCommitment {
            printer_pk: CompressedPoint::decode(r)?,
            challenge_hash: r.bytes32()?,
            signature: Signature::decode(r)?,
        })
    }
}

impl Wire for PrintJob {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_scalar(buf, &self.challenge);
        self.symbol.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok(PrintJob {
            challenge: r.scalar()?,
            symbol: Symbol::decode(r)?,
        })
    }
}

impl Wire for ActivationClaim {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.voter_id.encode(buf);
        self.c_pc.encode(buf);
        self.kiosk_pk.encode(buf);
        put_scalar(buf, &self.challenge);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok(ActivationClaim {
            voter_id: VoterId::decode(r)?,
            c_pc: Ciphertext::decode(r)?,
            kiosk_pk: CompressedPoint::decode(r)?,
            challenge: r.scalar()?,
        })
    }
}

impl Wire for TreeHead {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.size);
        buf.extend_from_slice(&self.root);
        self.signature.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok(TreeHead {
            size: r.u64()?,
            root: r.bytes32()?,
            signature: Signature::decode(r)?,
        })
    }
}

/// A signing-nonce coupon in transit between the ceremony pool and the
/// registrar's check-out desk. See [`NonceCoupon::into_parts`] for the
/// trust caveat: this crosses the boundary **only** because pool and
/// official are two halves of the registrar; it is key-grade material.
#[derive(PartialEq, Eq)]
pub struct WireCoupon {
    /// The nonce scalar k.
    pub k: Scalar,
    /// The precomputed commitment R = k·B.
    pub r: CompressedPoint,
}

impl core::fmt::Debug for WireCoupon {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print the nonce scalar (same hygiene as `NonceCoupon`:
        // k plus the published signature recovers the signing key), even
        // through derived Debug on the enclosing request types.
        write!(f, "WireCoupon(r={:?})", self.r)
    }
}

impl From<NonceCoupon> for WireCoupon {
    fn from(c: NonceCoupon) -> Self {
        let (k, r) = c.into_parts();
        Self { k, r }
    }
}

impl From<WireCoupon> for NonceCoupon {
    fn from(w: WireCoupon) -> Self {
        NonceCoupon::from_parts(w.k, w.r)
    }
}

impl Wire for WireCoupon {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_scalar(buf, &self.k);
        self.r.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok(WireCoupon {
            k: r.scalar()?,
            r: CompressedPoint::decode(r)?,
        })
    }
}

macro_rules! wire_struct {
    ($(#[$doc:meta])* $name:ident { $($(#[$fdoc:meta])* $field:ident : $ty:ty),* $(,)? }) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name {
            $($(#[$fdoc])* pub $field: $ty,)*
        }

        impl Wire for $name {
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$field.encode(buf);)*
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
                Ok(Self { $($field: <$ty>::decode(r)?,)* })
            }
        }
    };
}

impl Wire for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, *self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        r.u64()
    }
}

wire_struct! {
    /// Check-in (Fig 8): authenticate a voter, get a session ticket.
    CheckInRequest { voter: VoterId }
}

wire_struct! {
    /// The issued kiosk-session ticket.
    CheckInResponse { ticket: CheckInTicket }
}

wire_struct! {
    /// A window's check-out tickets with the officials' signing coupons.
    CheckOutBatchRequest { checkouts: Vec<(CheckOutQr, WireCoupon)> }
}

wire_struct! {
    /// Envelope print fulfilment for a pool refill.
    PrintRequest { jobs: Vec<PrintJob> }
}

wire_struct! {
    /// The printed envelopes with their not-yet-posted ledger commitments,
    /// in job order.
    PrintResponse { envelopes: Vec<(Envelope, EnvelopeCommitment)> }
}

wire_struct! {
    /// Signed tree heads of both registrar ledgers (implies a sync).
    LedgerHeads { registration: TreeHead, envelopes: TreeHead }
}

wire_struct! {
    /// Activation ledger-phase claims (Fig 11 lines 9–11), in order.
    ActivationSweepRequest { claims: Vec<ActivationClaim> }
}

wire_struct! {
    /// A [`SessionSubmission`] on the wire: the coupon travels as a
    /// [`WireCoupon`].
    WireSession {
        session: u64,
        commitments: Vec<EnvelopeCommitment>,
        checkout: CheckOutQr,
        coupon: WireCoupon
    }
}

impl From<SessionSubmission> for WireSession {
    fn from(s: SessionSubmission) -> Self {
        Self {
            session: s.session,
            commitments: s.commitments,
            checkout: s.checkout,
            coupon: s.coupon.into(),
        }
    }
}

impl From<WireSession> for SessionSubmission {
    fn from(w: WireSession) -> Self {
        Self {
            session: w.session,
            commitments: w.commitments,
            checkout: w.checkout,
            coupon: w.coupon.into(),
        }
    }
}

wire_struct! {
    /// A polling station's window, in session order. The commit
    /// sequencer restores global queue order across stations before
    /// admission, so multi-connection days stay bit-identical to the
    /// sequential reference.
    SubmitWindowRequest { sessions: Vec<WireSession> }
}

wire_struct! {
    /// Prefix barrier: resolve once every session with global index below
    /// `sessions` is admitted on both ledgers.
    SyncThroughRequest { sessions: u64 }
}

wire_struct! {
    /// Tag 11's payload: the threaded engine's counters as of the
    /// request — the like-named fields of
    /// [`DayStats`](crate::DayStats), which documents them and from
    /// whose snapshot this is built.
    #[derive(Clone, Copy, Default, PartialEq, Eq)]
    IngestStatsReply {
        batches: u64,
        sweeps: u64,
        worker_busy_us: u64,
        worker_idle_us: u64,
        wal_records: u64,
        wal_fsyncs: u64,
        wal_failures: u64
    }
}

/// A client request, tagged for dispatch: the one seam between the fleet
/// and the registrar side of a deployment (`ServiceBoundary` maps
/// `vg_trip::RegistrarBoundary`'s five calls onto it; the threaded engine
/// serves each variant from one dispatch arm). The variants fall into
/// four groups, one per paper role; variant order is tag order. Tags 3
/// and 8 are retired (the separate envelope submissions, wire version 1)
/// and never reassigned, as is [`Response`] tag 1 (the check-out
/// acknowledgement, wire version 2).
///
/// # Officials' desks (Figs 8, 10): [`Request::CheckIn`], [`Request::SubmitWindow`]
///
/// Trusted to apply the roster at check-in and Fig 10's verification rules
/// at check-out; the desk holds the official's signing key and the shared
/// MAC secret `s_rk`. It is **not** trusted with voter privacy beyond what
/// the paper grants the registrar: everything it sees (check-out QRs,
/// records) is also on the public ledger or visible at the desk. A
/// compromised desk can deny service or register ineligible voters — both
/// publicly auditable against the roster — but cannot forge a voter's
/// credential tag without the kiosk signature chain.
///
/// # Envelope printers (Fig 7 line 5): [`Request::Print`]
///
/// Holds a printer signing key from the printer registry. The paper
/// trusts printers not to leak or duplicate challenges (a duplicating
/// printer is caught by activation's duplicate-challenge detector,
/// Appendix F.3.5); the print room additionally learns which challenges
/// belong to one refill batch, which the physical print room learns
/// anyway. It never sees credential keys or voter identities.
///
/// # Bulletin board: [`Request::SubmitWindow`], [`Request::SyncThrough`], [`Request::Sync`], [`Request::LedgerHeads`], [`Request::IngestStats`]
///
/// The admission front-end runs with the ledger operator's signing key.
/// A window's sessions — each one's envelope commitments with its
/// countersigned record — are **ordered and coalesced**: in-flight
/// windows may be folded into one random-linear-combination admission
/// sweep, but always admit in global session order, each session on both
/// ledgers or neither — the signed tree heads any auditor checks are
/// therefore bit-identical to a synchronous, batch-at-a-time ledger. A
/// compromised
/// front-end is exactly a compromised ledger operator: it can withhold or
/// reorder *pending* submissions (detectable by the submitting registrar
/// at the next barrier) but cannot rewrite admitted history without
/// breaking the Merkle consistency proofs.
///
/// **Commit-point contract.** On a durable ledger backend every barrier
/// is also a *durability* barrier. When [`Request::Sync`],
/// [`Request::SyncThrough`], [`Request::LedgerHeads`] or
/// [`Request::ActivationSweep`] is answered without error, everything the
/// barrier covers has been appended to the write-ahead log, group-fsynced
/// (when fsync is enabled), and covered by a persisted signed tree head —
/// in that order, records strictly before the head that commits them. A
/// crash after the answer loses nothing it covered: reopening the store
/// replays the WAL back to the same heads, bit-identically. A submission's
/// receipt alone promises ordering, not durability; durability attaches
/// at the next barrier. A sweep the sequencer runs in a channel-idle gap
/// ends at the same commit point, so it changes when records are
/// admitted, not what an answered barrier means.
///
/// # Activation ledger phase (Fig 11 lines 9–11): [`Request::ActivationSweep`]
///
/// Performs only the L_R cross-check and the L_E challenge reveal. The
/// device-side checks (lines 2–8) — and the credential *secret* — stay on
/// the voter's device; the registrar learns exactly what the public
/// ledger learns at activation (which challenges were revealed, and the
/// aggregate activation count the coercion adversary is allowed to see,
/// Appendix F.1). It cannot distinguish real from fake credentials, by
/// design.
#[derive(Debug)]
pub enum Request {
    /// Check-in (Fig 8): authenticates the voter, issues a session ticket.
    CheckIn(CheckInRequest),
    /// Untagged batched check-out. Retired (every station submits
    /// [`Request::SubmitWindow`]); no fleet sends it and the registrar
    /// answers it with a typed error, so its response (tag 1) is gone.
    /// The request's codec stays: the tag is versioned and never
    /// reassigned.
    CheckOutBatch(CheckOutBatchRequest),
    /// Signs one envelope per job, in order, returning the envelopes with
    /// their not-yet-posted L_E commitments.
    Print(PrintRequest),
    /// Barrier: drives every queued session to admission, surfacing the
    /// earliest failure.
    Sync,
    /// Signed tree heads of L_R and L_E (implies a [`Request::Sync`]).
    LedgerHeads,
    /// Runs the activation ledger phase for a batch of claims, in order,
    /// stopping at the first failure exactly as a sequential activation
    /// loop would.
    ActivationSweep(ActivationSweepRequest),
    /// Ends the connection; the server loop exits cleanly.
    Shutdown,
    /// A polling station's window of sessions (Fig 10): verifies the
    /// kiosk signatures, countersigns from the supplied coupons, and
    /// queues each session's envelope commitments and record for
    /// admission together; the registrar uses the global session indices
    /// to restore queue order across stations before admission.
    SubmitWindow(SubmitWindowRequest),
    /// Prefix barrier: answered once every session with global index
    /// below `sessions` is admitted on both ledgers.
    SyncThrough(SyncThroughRequest),
    /// Engine telemetry (see [`IngestStatsReply`]).
    IngestStats,
}

/// A server response. Tag values mirror [`Request`] (15 is the error
/// response). Tag 1 is retired: [`Request::CheckOutBatch`] is answered
/// with [`Response::Err`].
#[derive(Debug)]
pub enum Response {
    /// Check-in succeeded.
    CheckIn(CheckInResponse),
    /// Envelopes printed.
    Print(PrintResponse),
    /// All submissions admitted.
    Sync,
    /// The current tree heads.
    LedgerHeads(LedgerHeads),
    /// All claims admitted.
    ActivationSweep,
    /// Shutdown acknowledged.
    Shutdown,
    /// The window's sessions are queued for admission.
    SubmitWindow,
    /// The prefix is admitted.
    SyncThrough,
    /// Current ingest telemetry.
    IngestStats(IngestStatsReply),
    /// The request failed.
    Err(crate::error::ServiceError),
}

impl Request {
    /// Encodes as a sealed wire message.
    pub fn to_wire(&self) -> Vec<u8> {
        let (tag, body) = match self {
            Request::CheckIn(m) => (0u16, m.to_bytes()),
            Request::CheckOutBatch(m) => (1, m.to_bytes()),
            Request::Print(m) => (2, m.to_bytes()),
            Request::Sync => (4, Vec::new()),
            Request::LedgerHeads => (5, Vec::new()),
            Request::ActivationSweep(m) => (6, m.to_bytes()),
            Request::Shutdown => (7, Vec::new()),
            Request::SubmitWindow(m) => (9, m.to_bytes()),
            Request::SyncThrough(m) => (10, m.to_bytes()),
            Request::IngestStats => (11, Vec::new()),
        };
        crate::wire::seal(tag, &body)
    }

    /// Decodes a sealed wire message.
    pub fn from_wire(msg: &[u8]) -> Result<Self, CryptoError> {
        let (tag, mut r) = crate::wire::unseal(msg)?;
        let req = match tag {
            0 => Request::CheckIn(CheckInRequest::decode(&mut r)?),
            1 => Request::CheckOutBatch(CheckOutBatchRequest::decode(&mut r)?),
            2 => Request::Print(PrintRequest::decode(&mut r)?),
            4 => Request::Sync,
            5 => Request::LedgerHeads,
            6 => Request::ActivationSweep(ActivationSweepRequest::decode(&mut r)?),
            7 => Request::Shutdown,
            9 => Request::SubmitWindow(SubmitWindowRequest::decode(&mut r)?),
            10 => Request::SyncThrough(SyncThroughRequest::decode(&mut r)?),
            11 => Request::IngestStats,
            _ => return Err(CryptoError::Malformed("unknown request tag")),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes as a sealed wire message.
    pub fn to_wire(&self) -> Vec<u8> {
        let (tag, body) = match self {
            Response::CheckIn(m) => (0u16, m.to_bytes()),
            Response::Print(m) => (2, m.to_bytes()),
            Response::Sync => (4, Vec::new()),
            Response::LedgerHeads(m) => (5, m.to_bytes()),
            Response::ActivationSweep => (6, Vec::new()),
            Response::Shutdown => (7, Vec::new()),
            Response::SubmitWindow => (9, Vec::new()),
            Response::SyncThrough => (10, Vec::new()),
            Response::IngestStats(m) => (11, m.to_bytes()),
            Response::Err(e) => {
                let mut body = Vec::new();
                crate::error::encode_error(&mut body, e);
                (15, body)
            }
        };
        crate::wire::seal(tag, &body)
    }

    /// Decodes a sealed wire message.
    pub fn from_wire(msg: &[u8]) -> Result<Self, CryptoError> {
        let (tag, mut r) = crate::wire::unseal(msg)?;
        let resp = match tag {
            0 => Response::CheckIn(CheckInResponse::decode(&mut r)?),
            2 => Response::Print(PrintResponse::decode(&mut r)?),
            4 => Response::Sync,
            5 => Response::LedgerHeads(LedgerHeads::decode(&mut r)?),
            6 => Response::ActivationSweep,
            7 => Response::Shutdown,
            9 => Response::SubmitWindow,
            10 => Response::SyncThrough,
            11 => Response::IngestStats(IngestStatsReply::decode(&mut r)?),
            15 => Response::Err(crate::error::decode_error(&mut r)?),
            _ => return Err(CryptoError::Malformed("unknown response tag")),
        };
        r.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Secure-channel handshake frames.
// ---------------------------------------------------------------------

/// Client hello of the SIGMA-style secure-channel handshake: the
/// initiator's fresh ephemeral Diffie–Hellman point, sent in the clear.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandshakeInit {
    /// The client's ephemeral public point.
    pub eph: CompressedPoint,
}

/// Server half of the handshake: its own ephemeral point plus the static
/// identity, a signature over the transcript hash, and a key-confirmation
/// MAC binding the identity to the derived session keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandshakeReply {
    /// The server's ephemeral public point.
    pub eph: CompressedPoint,
    /// The server's enrolled static (signing) key.
    pub static_pk: CompressedPoint,
    /// Schnorr signature over the transcript hash under `static_pk`.
    pub sig: Signature,
    /// `HMAC(auth_key, "server" ‖ static_pk)`.
    pub confirm: [u8; 32],
}

/// Client finisher: its static identity, transcript signature and
/// key-confirmation MAC. The server checks enrolment *before* the
/// signature so an unknown key surfaces as `AuthFailed`, not
/// `HandshakeFailed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandshakeFin {
    /// The client's enrolled static (signing) key.
    pub static_pk: CompressedPoint,
    /// Schnorr signature over the transcript hash under `static_pk`.
    pub sig: Signature,
    /// `HMAC(auth_key, "client" ‖ static_pk)`.
    pub confirm: [u8; 32],
}

/// One encrypted record on an established channel: the sealed bytes
/// (`ciphertext ‖ 32-byte tag`) of an inner `Request`/`Response` wire
/// message, sequenced by the channel's implicit frame counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedRecord {
    /// `FrameSealer::seal` output for the inner wire message.
    pub sealed: Vec<u8>,
}

impl Wire for HandshakeInit {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.eph.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok(Self {
            eph: CompressedPoint::decode(r)?,
        })
    }
}

impl Wire for HandshakeReply {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.eph.encode(buf);
        self.static_pk.encode(buf);
        self.sig.encode(buf);
        buf.extend_from_slice(&self.confirm);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok(Self {
            eph: CompressedPoint::decode(r)?,
            static_pk: CompressedPoint::decode(r)?,
            sig: Signature::decode(r)?,
            confirm: r.bytes32()?,
        })
    }
}

impl Wire for HandshakeFin {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.static_pk.encode(buf);
        self.sig.encode(buf);
        buf.extend_from_slice(&self.confirm);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok(Self {
            static_pk: CompressedPoint::decode(r)?,
            sig: Signature::decode(r)?,
            confirm: r.bytes32()?,
        })
    }
}

impl Wire for SealedRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        vg_crypto::codec::put_len(buf, self.sealed.len());
        buf.extend_from_slice(&self.sealed);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        let n = r.len_prefix()?;
        Ok(Self {
            sealed: r.take(n)?.to_vec(),
        })
    }
}

/// The secure-channel frames. They share the `VGRS` envelope with
/// [`Request`]/[`Response`] but use a disjoint tag range (`0x48xx`), so a
/// plaintext peer that receives one fails with a typed "unknown tag"
/// instead of misinterpreting key material as a request — the
/// plaintext-vs-secure mismatch detection builds on this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeFrame {
    /// Client hello.
    Init(HandshakeInit),
    /// Server authentication + key share.
    Reply(HandshakeReply),
    /// Client authentication.
    Fin(HandshakeFin),
    /// Encrypted application record.
    Record(SealedRecord),
}

/// First tag of the secure-channel range.
pub(crate) const HS_TAG_BASE: u16 = 0x4801;
/// Last tag of the secure-channel range.
pub(crate) const HS_TAG_LAST: u16 = 0x4810;

/// Every request tag on the wire, in variant declaration order. The
/// `vg-lint` `wire-tags` rule cross-checks this registry against the
/// `to_wire`/`from_wire` match arms in this file, and the
/// `tag_registries_match_encoded_frames` test checks it at runtime.
pub const REQUEST_TAGS: [u16; 10] = [0, 1, 2, 4, 5, 6, 7, 9, 10, 11];
/// Every response tag, in variant declaration order (15 is the error
/// response; 1, 3 and 8 are retired).
pub const RESPONSE_TAGS: [u16; 10] = [0, 2, 4, 5, 6, 7, 9, 10, 11, 15];
/// Every secure-channel handshake tag, all inside
/// `HS_TAG_BASE..=HS_TAG_LAST` (`0x4801..=0x4810`).
pub const HANDSHAKE_TAGS: [u16; 4] = [0x4801, 0x4802, 0x4803, 0x4810];

impl HandshakeFrame {
    /// Encodes as a sealed wire message.
    pub fn to_wire(&self) -> Vec<u8> {
        let (tag, body) = match self {
            HandshakeFrame::Init(m) => (0x4801u16, m.to_bytes()),
            HandshakeFrame::Reply(m) => (0x4802, m.to_bytes()),
            HandshakeFrame::Fin(m) => (0x4803, m.to_bytes()),
            HandshakeFrame::Record(m) => (0x4810, m.to_bytes()),
        };
        crate::wire::seal(tag, &body)
    }

    /// Decodes a sealed wire message.
    pub fn from_wire(msg: &[u8]) -> Result<Self, CryptoError> {
        let (tag, mut r) = crate::wire::unseal(msg)?;
        let frame = match tag {
            0x4801 => HandshakeFrame::Init(HandshakeInit::decode(&mut r)?),
            0x4802 => HandshakeFrame::Reply(HandshakeReply::decode(&mut r)?),
            0x4803 => HandshakeFrame::Fin(HandshakeFin::decode(&mut r)?),
            0x4810 => HandshakeFrame::Record(SealedRecord::decode(&mut r)?),
            _ => return Err(CryptoError::Malformed("unknown handshake tag")),
        };
        r.finish()?;
        Ok(frame)
    }

    /// Whether a raw wire message carries a secure-channel tag (without
    /// decoding the body) — how a plaintext endpoint recognises a
    /// mismatched secure peer.
    pub fn is_channel_frame(msg: &[u8]) -> bool {
        matches!(crate::wire::unseal(msg), Ok((tag, _)) if (HS_TAG_BASE..=HS_TAG_LAST).contains(&tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire_tag(msg: &[u8]) -> u16 {
        let (tag, _) = crate::wire::unseal(msg).expect("sealed frame");
        tag
    }

    #[test]
    fn tag_registries_match_encoded_frames() {
        // Payload-free variants encode to exactly the registry entry at
        // their declaration position.
        assert_eq!(wire_tag(&Request::Sync.to_wire()), REQUEST_TAGS[3]);
        assert_eq!(wire_tag(&Request::LedgerHeads.to_wire()), REQUEST_TAGS[4]);
        assert_eq!(wire_tag(&Request::Shutdown.to_wire()), REQUEST_TAGS[6]);
        assert_eq!(wire_tag(&Request::IngestStats.to_wire()), REQUEST_TAGS[9]);
        assert_eq!(wire_tag(&Response::Sync.to_wire()), RESPONSE_TAGS[2]);
        assert_eq!(
            wire_tag(&Response::ActivationSweep.to_wire()),
            RESPONSE_TAGS[4]
        );
        assert_eq!(wire_tag(&Response::Shutdown.to_wire()), RESPONSE_TAGS[5]);
        assert_eq!(
            wire_tag(&Response::SubmitWindow.to_wire()),
            RESPONSE_TAGS[6]
        );
        assert_eq!(wire_tag(&Response::SyncThrough.to_wire()), RESPONSE_TAGS[7]);
        let err = Response::Err(crate::error::ServiceError::Transport("x".into()));
        assert_eq!(wire_tag(&err.to_wire()), RESPONSE_TAGS[9]);
    }

    #[test]
    fn tag_registries_are_collision_free_and_disjoint() {
        for tags in [&REQUEST_TAGS[..], &RESPONSE_TAGS[..], &HANDSHAKE_TAGS[..]] {
            let mut seen = std::collections::BTreeSet::new();
            assert!(
                tags.iter().all(|t| seen.insert(*t)),
                "duplicate tag in registry {tags:?}"
            );
        }
        for hs in HANDSHAKE_TAGS {
            assert!((HS_TAG_BASE..=HS_TAG_LAST).contains(&hs));
            assert!(!REQUEST_TAGS.contains(&hs));
            assert!(!RESPONSE_TAGS.contains(&hs));
        }
        // Request/response tags never wander into the secure range, so
        // `is_channel_frame` can never misclassify a plaintext message.
        for t in REQUEST_TAGS.iter().chain(RESPONSE_TAGS.iter()) {
            assert!(!(HS_TAG_BASE..=HS_TAG_LAST).contains(t));
        }
    }

    #[test]
    fn unknown_tags_decode_to_typed_errors() {
        // The retired envelope submissions' tags 3 and 8 are unknown.
        for retired in [3, 8].map(|tag| crate::wire::seal(tag, &[0; 8])) {
            let unknown = |e| e == CryptoError::Malformed("unknown request tag");
            assert!(Request::from_wire(&retired).is_err_and(unknown));
            let unknown = |e| e == CryptoError::Malformed("unknown response tag");
            assert!(Response::from_wire(&retired).is_err_and(unknown));
        }
        // So is the retired check-out acknowledgement's response tag 1.
        let retired = crate::wire::seal(1, &0u64.to_le_bytes());
        let unknown = |e| e == CryptoError::Malformed("unknown response tag");
        assert!(Response::from_wire(&retired).is_err_and(unknown));
        let stray = crate::wire::seal(0x2222, &[]);
        assert!(Request::from_wire(&stray).is_err());
        assert!(Response::from_wire(&stray).is_err());
        assert!(HandshakeFrame::from_wire(&stray).is_err());
        assert!(!HandshakeFrame::is_channel_frame(&stray));
        assert!(HandshakeFrame::is_channel_frame(&crate::wire::seal(
            HS_TAG_BASE,
            &[]
        )));
    }
}
