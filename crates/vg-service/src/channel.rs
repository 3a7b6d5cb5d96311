//! Pluggable framed channels: the open transport API.
//!
//! The service layer used to hard-code a closed two-variant enum
//! (in-process | plaintext TCP). This module replaces that with three
//! small traits — [`FramedChannel`], [`Connector`], [`Listener`] — so an
//! endpoint is a *value* the fleet plugs in, and with a security layer
//! ([`SecureChannel`]) that wraps **any** framed channel in a mutually
//! authenticated, encrypted session. Concrete channels:
//!
//! - [`TcpChannel`]: length-prefixed frames over a TCP stream (the old
//!   transport, now one impl among several).
//! - [`PipeChannel`]: an in-process duplex frame queue, so probes and
//!   channel-level tests exercise the identical protocol state machines
//!   without a socket.
//! - [`SecureChannel`]: SIGMA-style handshake + per-direction
//!   encrypt-then-MAC sealing over either of the above, driven by a
//!   [`ChannelPolicy`].
//!
//! # Security contract
//!
//! With [`ChannelPolicy::Secure`], both endpoints prove possession of an
//! *enrolled* static Schnorr key (stations and the registrar enroll
//! transport keys exactly like officials enroll signing keys — see
//! `vg_trip::setup::TransportKeyring`), the session keys are bound to the
//! handshake transcript, and every application frame is encrypted and
//! MAC-sequenced so replay, reorder, truncation and bit-flips are
//! rejected. Failures are **typed and survive the wire**: an unenrolled
//! peer yields [`ServiceError::AuthFailed`], any broken or mismatched
//! handshake yields [`ServiceError::HandshakeFailed`] — on *both* sides,
//! never a hang. With [`ChannelPolicy::Plaintext`] the channel provides
//! integrity of framing only; a secure peer connecting to a plaintext
//! endpoint (or vice versa) is detected from the disjoint handshake tag
//! range and rejected with a typed error.

use std::io::{BufRead, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use vg_crypto::channel::{
    confirmation_tag, derive_channel_keys, transcript_hash, ChannelKeys, EphemeralKey, FrameSealer,
};
use vg_crypto::schnorr::{SigningKey, VerifyingKey};
use vg_crypto::{ct_eq32, CompressedPoint, OsRng};

use crate::error::ServiceError;
use crate::messages::{
    HandshakeFin, HandshakeFrame, HandshakeInit, HandshakeReply, Response, SealedRecord,
};
use crate::wire::{read_frame, write_frame};

/// A reliable, ordered, bidirectional frame pipe.
///
/// One frame in is one frame out, in order: the only transport guarantee
/// the RPC layer needs. Implementations carry whole `VGRS` wire messages;
/// they do not interpret them. **Security contract:** a bare
/// `FramedChannel` authenticates nobody and hides nothing — wrap it in a
/// [`SecureChannel`] (via [`ChannelPolicy::Secure`]) before trusting the
/// peer's identity or the frames' confidentiality.
pub trait FramedChannel: Send {
    /// Sends one complete frame.
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), ServiceError>;

    /// Receives the next complete frame, blocking until one arrives.
    /// Returns a typed transport error on EOF or a broken pipe.
    fn recv_frame(&mut self) -> Result<Vec<u8>, ServiceError>;

    /// Moves the deadline [`recv_frame`](Self::recv_frame) waits under
    /// for the next frame to *begin* (`None`: a quiet peer is waited on
    /// forever). How long a frame that has begun may take to finish
    /// stays what the channel was built with. The registrar's server
    /// holds a peer to a deadline through the handshake and lets an
    /// established one idle. The default does nothing: a channel
    /// without read deadlines has none to move.
    fn set_read_deadline(&mut self, _deadline: Option<Duration>) {}
}

/// Dials new channels to one endpoint. `Send + Sync` so a fleet can hand
/// one connector to many station threads.
///
/// **Security contract:** the connector runs the full client side of the
/// configured [`ChannelPolicy`] — when secure, the channel it returns has
/// already authenticated the registrar's enrolled key and derived fresh
/// session keys, so callers never observe a half-established channel.
pub trait Connector: Send + Sync {
    /// Opens (and, per policy, secures) a fresh channel.
    fn connect(&self) -> Result<Box<dyn FramedChannel>, ServiceError>;
}

/// Accepts inbound channels on one endpoint.
///
/// **Security contract:** mirrors [`Connector`] — when the policy is
/// secure, `accept` completes the server side of the handshake (enrolment
/// check included) before returning, and rejects mismatched plaintext
/// peers with a typed error rather than handing out an unauthenticated
/// channel.
pub trait Listener: Send {
    /// Accepts the next inbound channel, completing any handshake.
    fn accept(&mut self) -> Result<Box<dyn FramedChannel>, ServiceError>;
}

// ---------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------

/// Read/write deadlines for a TCP channel.
///
/// A bare blocking socket hangs forever on a stalled peer; the default
/// deadlines bound every read and write so a hung peer surfaces as a
/// typed [`ServiceError::Timeout`] (the retry layer's signal) instead of
/// a parked thread. Defaults are deliberately generous — an order of
/// magnitude above any healthy round trip, including full-day flush
/// barriers — so they only ever fire on genuine stalls; chaos tests
/// tighten them. After a deadline fires mid-frame the stream position is
/// unknown, so the channel must be discarded and redialed. The
/// registrar's server builds its channels with `read` at its reap
/// deadline and, once a peer is established, takes only the wait between
/// frames off the clock ([`FramedChannel::set_read_deadline`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadlines {
    /// Deadline for each blocking read (`None` = wait forever).
    pub read: Option<Duration>,
    /// Deadline for each blocking write (`None` = wait forever).
    pub write: Option<Duration>,
}

/// Default per-read deadline (see [`Deadlines`]).
pub const DEFAULT_READ_DEADLINE: Duration = Duration::from_secs(30);
/// Default per-write deadline (see [`Deadlines`]).
pub const DEFAULT_WRITE_DEADLINE: Duration = Duration::from_secs(10);

impl Default for Deadlines {
    fn default() -> Self {
        Self {
            read: Some(DEFAULT_READ_DEADLINE),
            write: Some(DEFAULT_WRITE_DEADLINE),
        }
    }
}

/// Length-prefixed frames over a TCP stream.
pub struct TcpChannel {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The socket's read deadline ([`Deadlines::read`]).
    read: Option<Duration>,
    /// The deadline for the next frame's first byte; differs from `read`
    /// only after [`FramedChannel::set_read_deadline`] moved it.
    next_frame: Option<Duration>,
}

impl TcpChannel {
    /// Connects to `addr` with `TCP_NODELAY` set and default
    /// [`Deadlines`].
    pub fn connect(addr: SocketAddr) -> Result<Self, ServiceError> {
        Self::connect_with(addr, Deadlines::default())
    }

    /// Connects to `addr` under explicit deadlines. The read deadline
    /// also bounds the connect itself, so dialing a dead address cannot
    /// park a station thread forever either.
    pub fn connect_with(addr: SocketAddr, deadlines: Deadlines) -> Result<Self, ServiceError> {
        let stream = match deadlines.read {
            Some(d) => TcpStream::connect_timeout(&addr, d)?,
            None => TcpStream::connect(addr)?,
        };
        Self::from_stream_with(stream, deadlines)
    }

    /// Wraps an accepted stream under default [`Deadlines`].
    pub fn from_stream(stream: TcpStream) -> Result<Self, ServiceError> {
        Self::from_stream_with(stream, Deadlines::default())
    }

    /// Wraps an accepted stream under explicit deadlines.
    pub fn from_stream_with(stream: TcpStream, deadlines: Deadlines) -> Result<Self, ServiceError> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(deadlines.read)?;
        stream.set_write_timeout(deadlines.write)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
            read: deadlines.read,
            next_frame: deadlines.read,
        })
    }
}

impl FramedChannel for TcpChannel {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), ServiceError> {
        write_frame(&mut self.writer, frame)
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, ServiceError> {
        if self.next_frame != self.read && self.reader.buffer().is_empty() {
            // Wait for the frame's first byte under the moved deadline;
            // the rest of it is held to the socket's own again, so a
            // peer that stalls mid-frame still times out.
            let socket = self.writer.get_ref();
            socket.set_read_timeout(self.next_frame)?;
            let began = self.reader.fill_buf().map(drop);
            socket.set_read_timeout(self.read)?;
            began?;
        }
        read_frame(&mut self.reader)
    }

    fn set_read_deadline(&mut self, deadline: Option<Duration>) {
        self.next_frame = deadline;
    }
}

// ---------------------------------------------------------------------
// In-process pipes
// ---------------------------------------------------------------------

/// One end of an in-process duplex frame queue. Frames arrive whole and
/// a quiet peer is waited on forever: a pipe has no read deadline.
pub struct PipeChannel {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

/// Creates a connected pair of in-process channels.
pub fn pipe_pair() -> (PipeChannel, PipeChannel) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    let end = |tx, rx| PipeChannel { tx, rx };
    (end(a_tx, a_rx), end(b_tx, b_rx))
}

impl FramedChannel for PipeChannel {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), ServiceError> {
        self.tx
            .send(frame.to_vec())
            .map_err(|_| ServiceError::Transport("pipe peer hung up".into()))
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, ServiceError> {
        self.rx
            .recv()
            .map_err(|_| ServiceError::Transport("pipe peer hung up".into()))
    }
}

// ---------------------------------------------------------------------
// Security policy
// ---------------------------------------------------------------------

/// Static key material for one secure endpoint.
///
/// Symmetric by design: a station configures `local` = its own transport
/// key and `registrar` = the enrolled registrar key it will insist on; the
/// registrar configures `local` = its own key and `enrolled` = the station
/// registry it will admit. Cheap to clone (the enrolment list is shared).
#[derive(Clone)]
pub struct SecureConfig {
    /// This endpoint's static transport signing key.
    pub local: SigningKey,
    /// Client side: the registrar static key the client requires. Ignored
    /// by servers.
    pub registrar: CompressedPoint,
    /// Server side: enrolled client (station) keys. Ignored by clients.
    pub enrolled: Arc<Vec<CompressedPoint>>,
}

impl core::fmt::Debug for SecureConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // `local` is a static signing key; print only public material.
        write!(
            f,
            "SecureConfig(registrar={:?}, enrolled={}, local=<redacted>)",
            self.registrar,
            self.enrolled.len()
        )
    }
}

/// Whether (and how) channels on an endpoint are secured.
// One policy value exists per endpoint for a whole day; boxing the
// config would churn every construction/match site to save bytes on a
// type that is never stored in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Default)]
pub enum ChannelPolicy {
    /// Frames travel unauthenticated and in the clear (the reference
    /// configuration; bit-identical to every other one).
    #[default]
    Plaintext,
    /// Every channel runs the mutual-auth handshake and frame encryption.
    Secure(SecureConfig),
}

impl ChannelPolicy {
    /// Runs the client side of the policy over a fresh channel.
    pub fn establish_client(
        &self,
        chan: Box<dyn FramedChannel>,
    ) -> Result<Box<dyn FramedChannel>, ServiceError> {
        match self {
            ChannelPolicy::Plaintext => Ok(chan),
            ChannelPolicy::Secure(cfg) => Ok(Box::new(client_handshake(chan, cfg)?)),
        }
    }

    /// Runs the server side of the policy over an accepted channel. On a
    /// typed handshake failure the rejection is sent to the
    /// peer as a plaintext [`Response::Err`] before the error returns, so
    /// the client observes the same typed error instead of an EOF.
    pub fn establish_server(
        &self,
        chan: Box<dyn FramedChannel>,
    ) -> Result<Box<dyn FramedChannel>, ServiceError> {
        match self {
            ChannelPolicy::Plaintext => Ok(chan),
            ChannelPolicy::Secure(cfg) => server_handshake(chan, cfg),
        }
    }
}

// ---------------------------------------------------------------------
// The handshake
// ---------------------------------------------------------------------

/// Domain separation for the server's transcript signature.
const SERVER_SIG_DOMAIN: &[u8] = b"vgrs/hs/server-sig";
/// Domain separation for the client's transcript signature.
const CLIENT_SIG_DOMAIN: &[u8] = b"vgrs/hs/client-sig";

fn sig_msg(domain: &[u8], th: &[u8; 32]) -> Vec<u8> {
    let mut m = Vec::with_capacity(domain.len() + 32);
    m.extend_from_slice(domain);
    m.extend_from_slice(th);
    m
}

/// Interprets a frame that arrived where a handshake frame was expected:
/// a typed plaintext `Response::Err` from the peer passes through
/// verbatim; anything else becomes a [`ServiceError::HandshakeFailed`].
fn reject_frame(frame: &[u8], expected: &str) -> ServiceError {
    if let Ok(Response::Err(e)) = Response::from_wire(frame) {
        return e;
    }
    ServiceError::HandshakeFailed(format!("expected {expected}, got an unrecognised frame"))
}

/// Client side of the SIGMA-style handshake. Consumes the bare channel
/// and returns it wrapped in sealing/opening state.
fn client_handshake(
    mut chan: Box<dyn FramedChannel>,
    cfg: &SecureConfig,
) -> Result<SecureChannel, ServiceError> {
    let mut rng = OsRng::new();
    let eph = EphemeralKey::generate(&mut rng);
    chan.send_frame(&HandshakeFrame::Init(HandshakeInit { eph: eph.public }).to_wire())?;
    let frame = chan.recv_frame()?;
    let reply = match HandshakeFrame::from_wire(&frame) {
        Ok(HandshakeFrame::Reply(r)) => r,
        _ => return Err(reject_frame(&frame, "handshake reply")),
    };
    let shared = eph.agree(&reply.eph).map_err(|e| {
        ServiceError::HandshakeFailed(format!("server ephemeral point rejected: {e}"))
    })?;
    let keys = derive_channel_keys(&shared, &eph.public, &reply.eph);
    let th = transcript_hash(&eph.public, &reply.eph);
    // Authenticate the server: enrolled identity, transcript signature,
    // key confirmation — in that order, so the error type distinguishes
    // "wrong key" from "broken handshake".
    if reply.static_pk != cfg.registrar {
        return Err(ServiceError::AuthFailed(
            "registrar static key is not the enrolled one".into(),
        ));
    }
    let vk = VerifyingKey::from_compressed(&reply.static_pk)
        .map_err(|e| ServiceError::HandshakeFailed(format!("server static key invalid: {e}")))?;
    vk.verify(&sig_msg(SERVER_SIG_DOMAIN, &th), &reply.sig)
        .map_err(|_| ServiceError::HandshakeFailed("server transcript signature invalid".into()))?;
    if !ct_eq32(
        &confirmation_tag(&keys.auth, b"server", &reply.static_pk),
        &reply.confirm,
    ) {
        return Err(ServiceError::HandshakeFailed(
            "server key-confirmation mac mismatch".into(),
        ));
    }
    let static_pk = cfg.local.public_key_compressed();
    let fin = HandshakeFin {
        static_pk,
        sig: cfg.local.sign(&sig_msg(CLIENT_SIG_DOMAIN, &th)),
        confirm: confirmation_tag(&keys.auth, b"client", &static_pk),
    };
    chan.send_frame(&HandshakeFrame::Fin(fin).to_wire())?;
    Ok(SecureChannel::client(chan, keys))
}

/// Server side of the handshake over a bare channel: answers the client's
/// `Init`, then admits its `Fin` — enrolment first
/// ([`ServiceError::AuthFailed`]), then signature and key confirmation
/// ([`ServiceError::HandshakeFailed`]) — and returns the confirmed keys.
fn server_keys(
    chan: &mut dyn FramedChannel,
    cfg: &SecureConfig,
) -> Result<ChannelKeys, ServiceError> {
    let frame = chan.recv_frame()?;
    let Ok(HandshakeFrame::Init(init)) = HandshakeFrame::from_wire(&frame) else {
        return Err(ServiceError::HandshakeFailed(
            "secure registrar requires a handshake; peer sent something else".into(),
        ));
    };
    let mut rng = OsRng::new();
    let eph = EphemeralKey::generate(&mut rng);
    let shared = eph.agree(&init.eph).map_err(|e| {
        ServiceError::HandshakeFailed(format!("client ephemeral point rejected: {e}"))
    })?;
    let keys = derive_channel_keys(&shared, &init.eph, &eph.public);
    let th = transcript_hash(&init.eph, &eph.public);
    let static_pk = cfg.local.public_key_compressed();
    let reply = HandshakeReply {
        eph: eph.public,
        static_pk,
        sig: cfg.local.sign(&sig_msg(SERVER_SIG_DOMAIN, &th)),
        confirm: confirmation_tag(&keys.auth, b"server", &static_pk),
    };
    chan.send_frame(&HandshakeFrame::Reply(reply).to_wire())?;
    let frame = chan.recv_frame()?;
    let Ok(HandshakeFrame::Fin(fin)) = HandshakeFrame::from_wire(&frame) else {
        return Err(ServiceError::HandshakeFailed(
            "expected handshake fin".into(),
        ));
    };
    if !cfg.enrolled.contains(&fin.static_pk) {
        return Err(ServiceError::AuthFailed(
            "station transport key is not enrolled".into(),
        ));
    }
    let vk = VerifyingKey::from_compressed(&fin.static_pk)
        .map_err(|e| ServiceError::HandshakeFailed(format!("client static key invalid: {e}")))?;
    vk.verify(&sig_msg(CLIENT_SIG_DOMAIN, &th), &fin.sig)
        .map_err(|_| ServiceError::HandshakeFailed("client transcript signature invalid".into()))?;
    if !ct_eq32(
        &confirmation_tag(&keys.auth, b"client", &fin.static_pk),
        &fin.confirm,
    ) {
        return Err(ServiceError::HandshakeFailed(
            "client key-confirmation mac mismatch".into(),
        ));
    }
    Ok(keys)
}

/// The server handshake, the mirror image of [`client_handshake`]. A
/// refusal (as opposed to a lost link) is reported to the peer as a
/// plaintext `Response::Err` — it holds no keys yet — before the error
/// returns.
fn server_handshake(
    mut chan: Box<dyn FramedChannel>,
    cfg: &SecureConfig,
) -> Result<Box<dyn FramedChannel>, ServiceError> {
    match server_keys(&mut *chan, cfg) {
        Ok(keys) => Ok(Box::new(SecureChannel::server(chan, keys))),
        Err(e) => {
            if matches!(
                e,
                ServiceError::HandshakeFailed(_) | ServiceError::AuthFailed(_)
            ) {
                chan.send_frame(&Response::Err(e.clone()).to_wire()).ok();
            }
            Err(e)
        }
    }
}

// ---------------------------------------------------------------------
// The secure channel
// ---------------------------------------------------------------------

/// An established authenticated-encryption session over any inner
/// channel.
///
/// Every application frame travels as a [`SealedRecord`]
/// (encrypt-then-MAC, implicit per-direction sequence numbers), so the
/// peer that completed the handshake is the only one able to produce
/// frames this channel will accept — and replays, reorders and bit-flips
/// fail typed rather than being delivered.
pub struct SecureChannel {
    inner: Box<dyn FramedChannel>,
    tx: FrameSealer,
    rx: FrameSealer,
}

impl SecureChannel {
    /// Client orientation: sends under `client_to_server` keys.
    pub(crate) fn client(inner: Box<dyn FramedChannel>, keys: ChannelKeys) -> Self {
        Self {
            inner,
            tx: FrameSealer::new(keys.client_to_server),
            rx: FrameSealer::new(keys.server_to_client),
        }
    }

    /// Server orientation: sends under `server_to_client` keys.
    pub(crate) fn server(inner: Box<dyn FramedChannel>, keys: ChannelKeys) -> Self {
        Self {
            inner,
            tx: FrameSealer::new(keys.server_to_client),
            rx: FrameSealer::new(keys.client_to_server),
        }
    }
}

impl FramedChannel for SecureChannel {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), ServiceError> {
        let sealed = self.tx.seal(frame);
        self.inner
            .send_frame(&HandshakeFrame::Record(SealedRecord { sealed }).to_wire())
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, ServiceError> {
        let raw = self.inner.recv_frame()?;
        match HandshakeFrame::from_wire(&raw) {
            Ok(HandshakeFrame::Record(rec)) => self.rx.open(&rec.sealed).map_err(|e| {
                ServiceError::Transport(format!("secure channel rejected a record: {e}"))
            }),
            // A typed plaintext rejection (e.g. the server refused our
            // `Fin` after we optimistically sent the first request).
            _ => Err(reject_frame(&raw, "encrypted record")),
        }
    }

    fn set_read_deadline(&mut self, deadline: Option<Duration>) {
        self.inner.set_read_deadline(deadline);
    }
}

// ---------------------------------------------------------------------
// Connectors and listeners
// ---------------------------------------------------------------------

/// Dials framed TCP channels to one address under one policy.
#[derive(Clone)]
pub struct TcpConnector {
    /// Server address.
    pub addr: SocketAddr,
    /// Security policy for every dialed channel.
    pub policy: ChannelPolicy,
    /// Read/write deadlines for every dialed channel.
    pub deadlines: Deadlines,
}

impl Connector for TcpConnector {
    fn connect(&self) -> Result<Box<dyn FramedChannel>, ServiceError> {
        self.policy
            .establish_client(Box::new(TcpChannel::connect_with(
                self.addr,
                self.deadlines,
            )?))
    }
}

/// Accepts framed TCP channels under one policy, one at a time: the
/// handshake runs inside [`accept`](Listener::accept). (A registration
/// day's server gives every connection a thread of its own instead, so a
/// slow handshake holds up nobody else's — see [`crate::gateway`].)
pub struct TcpChannelListener {
    listener: TcpListener,
    policy: ChannelPolicy,
}

impl TcpChannelListener {
    /// Wraps a bound listener (default [`Deadlines`] on every accepted
    /// channel).
    pub fn new(listener: TcpListener, policy: ChannelPolicy) -> Self {
        Self { listener, policy }
    }
}

impl Listener for TcpChannelListener {
    fn accept(&mut self) -> Result<Box<dyn FramedChannel>, ServiceError> {
        let (stream, _) = self.listener.accept()?;
        self.policy
            .establish_server(Box::new(TcpChannel::from_stream(stream)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::HmacDrbg;
    use vg_crypto::Rng;

    fn test_keys() -> (SigningKey, SigningKey, SecureConfig, SecureConfig) {
        let mut rng = HmacDrbg::from_u64(42);
        let server = SigningKey::generate(&mut rng);
        let client = SigningKey::generate(&mut rng);
        let enrolled = Arc::new(vec![client.public_key_compressed()]);
        let server_cfg = SecureConfig {
            local: server.clone(),
            registrar: server.public_key_compressed(),
            enrolled: enrolled.clone(),
        };
        let client_cfg = SecureConfig {
            local: client.clone(),
            registrar: server.public_key_compressed(),
            enrolled,
        };
        (server, client, server_cfg, client_cfg)
    }

    type Established = Result<Box<dyn FramedChannel>, ServiceError>;

    fn establish_pair(
        server_cfg: SecureConfig,
        client_cfg: SecureConfig,
    ) -> (Established, Established) {
        let (client_half, server_half) = pipe_pair();
        let server = std::thread::spawn(move || {
            ChannelPolicy::Secure(server_cfg).establish_server(Box::new(server_half))
        });
        let client = ChannelPolicy::Secure(client_cfg).establish_client(Box::new(client_half));
        (server.join().unwrap(), client)
    }

    #[test]
    fn secure_pipe_round_trip() {
        let (_, _, server_cfg, client_cfg) = test_keys();
        let (server, client) = establish_pair(server_cfg, client_cfg);
        let (mut server, mut client) = (server.unwrap(), client.unwrap());
        client.send_frame(b"hello registrar").unwrap();
        assert_eq!(server.recv_frame().unwrap(), b"hello registrar");
        server.send_frame(b"hello station").unwrap();
        assert_eq!(client.recv_frame().unwrap(), b"hello station");
    }

    #[test]
    fn unenrolled_station_key_is_auth_failed_on_both_sides() {
        let (_, _, server_cfg, mut client_cfg) = test_keys();
        let mut rng = HmacDrbg::from_u64(7);
        client_cfg.local = SigningKey::generate(&mut rng);
        let (server, client) = establish_pair(server_cfg, client_cfg);
        assert!(matches!(server, Err(ServiceError::AuthFailed(_))), "server");
        // The client learns of the rejection on first use of the channel
        // (its handshake optimistically completes when `Fin` is sent).
        let mut client = client.unwrap();
        assert!(matches!(
            client.recv_frame(),
            Err(ServiceError::AuthFailed(_))
        ));
    }

    #[test]
    fn wrong_registrar_key_is_auth_failed_at_client() {
        let (_, _, server_cfg, mut client_cfg) = test_keys();
        let mut rng = HmacDrbg::from_u64(8);
        client_cfg.registrar = SigningKey::generate(&mut rng).public_key_compressed();
        let (_server, client) = establish_pair(server_cfg, client_cfg);
        assert!(matches!(client, Err(ServiceError::AuthFailed(_))));
    }

    #[test]
    fn plaintext_peer_of_secure_server_gets_typed_error() {
        let (_, _, server_cfg, _) = test_keys();
        let (mut client_half, server_half) = pipe_pair();
        let server = std::thread::spawn(move || {
            ChannelPolicy::Secure(server_cfg).establish_server(Box::new(server_half))
        });
        // A plaintext client's first frame is a request, not an Init.
        client_half
            .send_frame(&crate::messages::Request::Sync.to_wire())
            .unwrap();
        assert!(matches!(
            server.join().unwrap(),
            Err(ServiceError::HandshakeFailed(_))
        ));
        let frame = client_half.recv_frame().unwrap();
        assert!(matches!(
            Response::from_wire(&frame),
            Ok(Response::Err(ServiceError::HandshakeFailed(_)))
        ));
    }

    #[test]
    fn tampered_handshake_reply_fails_typed() {
        let (_, _, server_cfg, client_cfg) = test_keys();
        let (client_half, mut to_client) = pipe_pair();
        let (mut to_server, server_half) = pipe_pair();
        let server = std::thread::spawn(move || {
            ChannelPolicy::Secure(server_cfg).establish_server(Box::new(server_half))
        });
        let tamperer = std::thread::spawn(move || {
            // Act as a man-in-the-middle that bit-flips the server reply.
            let init = to_client.recv_frame().unwrap();
            to_server.send_frame(&init).unwrap();
            let reply = to_server.recv_frame().unwrap();
            let mut reply = match HandshakeFrame::from_wire(&reply).unwrap() {
                HandshakeFrame::Reply(r) => r,
                other => panic!("expected reply, got {other:?}"),
            };
            reply.confirm[0] ^= 1;
            to_client
                .send_frame(&HandshakeFrame::Reply(reply).to_wire())
                .unwrap();
        });
        let client = ChannelPolicy::Secure(client_cfg).establish_client(Box::new(client_half));
        tamperer.join().unwrap();
        assert!(matches!(client, Err(ServiceError::HandshakeFailed(_))));
        // The server's peer hung up before `Fin`: no channel comes out.
        assert!(server.join().unwrap().is_err());
    }

    #[test]
    fn truncated_handshake_frames_rejected() {
        let mut rng = HmacDrbg::from_u64(3);
        let eph = EphemeralKey::generate(&mut rng);
        let wire = HandshakeFrame::Init(HandshakeInit { eph: eph.public }).to_wire();
        for cut in 1..wire.len() {
            assert!(HandshakeFrame::from_wire(&wire[..cut]).is_err());
        }
        let mut flipped = wire.clone();
        // Flip a bit inside the point encoding: either it no longer
        // decompresses, or it decodes to a different (still valid) point
        // — the signature check catches the latter, so here we only
        // require "no panic, parse-or-reject".
        flipped[10] ^= 1;
        let _ = HandshakeFrame::from_wire(&flipped);
        rng.fill_bytes(&mut flipped[8..]);
        let _ = HandshakeFrame::from_wire(&flipped);
    }
}
