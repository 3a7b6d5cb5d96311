//! The multiplexed station gateway: a non-blocking acceptor that serves
//! every threaded-day connection — stations, refillers, steal lanes —
//! on a small bounded pool of reactor threads instead of one thread per
//! connection.
//!
//! Each reactor owns a set of connections and drives them with a poll
//! loop: drain newly accepted connections from the intake, step every
//! connection's channel state machine (plaintext, or the server side of
//! the secure handshake frame by frame), decode at most a budgeted
//! number of frames per tick per connection, and hand decoded requests
//! to a `GatewayDispatch`. A dispatch may answer immediately or return
//! a `Pending` set of reply channels (a request parked on the sequencer
//! or the shard workers); while a connection has a response in flight
//! the reactor stops reading it —
//! that per-connection stop-and-wait is the gateway's backpressure, and
//! it composes with the shard workers' own bound (past a per-lane record
//! cap a submission's acknowledgement waits for an inline sweep).
//!
//! The reactor pool size is fixed (bounded by the deployment, not the
//! connection count), so a day with hundreds of station connections runs
//! on the same few threads as a day with four.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vg_crypto::channel::FrameSealer;

use crate::channel::{
    finish_server_handshake, pipe_pair, server_hello, ChannelPolicy, Connector, FramedChannel,
    PipeChannel, ServerHello,
};
use crate::error::ServiceError;
use crate::messages::{HandshakeFrame, Request, Response, SealedRecord};
use crate::transport::EngineStats;
use crate::wire::MAX_FRAME;

/// Frames decoded per connection per reactor tick. Keeps one chatty
/// connection from starving the rest of its reactor's set.
const FRAMES_PER_TICK: usize = 32;

/// Bytes read from a socket per syscall.
const READ_CHUNK: usize = 64 << 10;

/// Idle passes spent yielding before the reactor starts timer-sleeping.
/// A parked response usually resolves as soon as the sequencer thread
/// gets the core, so `yield_now` (one scheduler quantum) beats a timed
/// sleep, whose default Linux timer slack rounds even a 10 µs request
/// up to ~60 µs — a visible per-barrier tax on single-core hosts.
const IDLE_YIELDS: u32 = 64;

/// Idle backoff ceiling. Reactors sleep-with-doubling once the yield
/// budget is spent, so an idle gateway costs ~nothing on a small
/// machine.
const MAX_IDLE_SLEEP: Duration = Duration::from_millis(1);

/// Default reap deadline for half-open and mid-frame-stalled
/// connections. A connection parked in a handshake state, or holding a
/// partial frame, that makes no progress for this long is torn down —
/// it can only be a dead or byzantine peer, and holding it open leaks a
/// reactor slot forever. Healthy idle connections (established channel,
/// empty read buffer, no pending response) are **never** reaped: an
/// idle station waiting out a quiet registration hour is liveness, not
/// a leak.
pub(crate) const REAP_AFTER: Duration = Duration::from_secs(2);

// ---------------------------------------------------------------------
// Non-blocking IO
// ---------------------------------------------------------------------

/// A non-blocking TCP connection with userspace read/write buffers and
/// `u32 length ‖ message` frame extraction.
pub(crate) struct TcpIo {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: VecDeque<u8>,
}

/// A served in-process pipe half (frames arrive whole; sends never
/// block).
pub(crate) struct PipeIo {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

/// One gateway-served connection's IO, link-agnostic.
pub(crate) enum GatewayIo {
    /// A loopback TCP connection.
    Tcp(TcpIo),
    /// An in-process pipe server half.
    Pipe(PipeIo),
}

impl GatewayIo {
    /// Wraps an accepted TCP stream (switches it to non-blocking).
    pub(crate) fn from_stream(stream: TcpStream) -> Result<Self, ServiceError> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(GatewayIo::Tcp(TcpIo {
            stream,
            rbuf: Vec::new(),
            wbuf: VecDeque::new(),
        }))
    }

    /// Wraps a dialed pipe's server half.
    pub(crate) fn from_pipe(pipe: PipeChannel) -> Self {
        let (tx, rx) = pipe.into_parts();
        GatewayIo::Pipe(PipeIo { tx, rx })
    }

    /// Pulls the next complete frame if one is available *now*.
    /// `Ok(None)` means no full frame yet; `Err` means the connection is
    /// gone (EOF, reset) or violated framing.
    fn try_read_frame(&mut self) -> Result<Option<Vec<u8>>, ServiceError> {
        match self {
            GatewayIo::Tcp(io) => {
                if let Some(frame) = io.extract_frame()? {
                    return Ok(Some(frame));
                }
                let mut chunk = [0u8; READ_CHUNK];
                loop {
                    match io.stream.read(&mut chunk) {
                        Ok(0) => {
                            return Err(ServiceError::Transport("peer closed connection".into()))
                        }
                        Ok(n) => {
                            io.rbuf.extend_from_slice(&chunk[..n]);
                            if let Some(frame) = io.extract_frame()? {
                                return Ok(Some(frame));
                            }
                            // A short read means the socket is drained.
                            if n < chunk.len() {
                                return Ok(None);
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e.into()),
                    }
                }
            }
            GatewayIo::Pipe(io) => match io.rx.try_recv() {
                Ok(frame) => Ok(Some(frame)),
                Err(TryRecvError::Empty) => Ok(None),
                Err(TryRecvError::Disconnected) => {
                    Err(ServiceError::Transport("peer closed connection".into()))
                }
            },
        }
    }

    /// `true` when a partial frame sits in the read buffer: bytes
    /// arrived but the frame never completed. Pipes transfer whole
    /// frames, so they are never mid-frame.
    fn mid_frame(&self) -> bool {
        match self {
            GatewayIo::Tcp(io) => !io.rbuf.is_empty(),
            GatewayIo::Pipe(_) => false,
        }
    }

    /// Queues one frame for sending (pipes deliver immediately).
    fn queue_frame(&mut self, frame: &[u8]) -> Result<(), ServiceError> {
        if frame.len() > MAX_FRAME {
            return Err(ServiceError::Transport("frame exceeds MAX_FRAME".into()));
        }
        match self {
            GatewayIo::Tcp(io) => {
                io.wbuf.extend(&(frame.len() as u32).to_le_bytes());
                io.wbuf.extend(frame.iter().copied());
                Ok(())
            }
            GatewayIo::Pipe(io) => io
                .tx
                .send(frame.to_vec())
                .map_err(|_| ServiceError::Transport("peer closed connection".into())),
        }
    }

    /// Pushes buffered bytes to the socket. Returns `true` when the
    /// write buffer is fully drained.
    fn flush(&mut self) -> Result<bool, ServiceError> {
        match self {
            GatewayIo::Tcp(io) => {
                while !io.wbuf.is_empty() {
                    let (head, _) = io.wbuf.as_slices();
                    match io.stream.write(head) {
                        Ok(0) => {
                            return Err(ServiceError::Transport("peer closed connection".into()))
                        }
                        Ok(n) => {
                            io.wbuf.drain(..n);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e.into()),
                    }
                }
                Ok(true)
            }
            GatewayIo::Pipe(_) => Ok(true),
        }
    }
}

impl TcpIo {
    /// Extracts one complete frame from the read buffer, if present.
    fn extract_frame(&mut self) -> Result<Option<Vec<u8>>, ServiceError> {
        let Some(header) = self.rbuf.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*header) as usize;
        if len > MAX_FRAME {
            return Err(ServiceError::Transport("oversized frame".into()));
        }
        if self.rbuf.len() < 4 + len {
            return Ok(None);
        }
        let frame = self.rbuf.drain(..4 + len).skip(4).collect();
        Ok(Some(frame))
    }
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

/// The outcome of dispatching one request.
pub(crate) enum Dispatched {
    /// Answer now; keep serving the connection.
    Now(Response),
    /// Answer now, then close the connection once the response flushes
    /// (e.g. a station's `Shutdown`).
    CloseAfter(Response),
    /// The request is parked (on the sequencer or the shard workers).
    /// The reactor polls the reply channels each tick until they yield
    /// the response; the connection is not read meanwhile — strictly one
    /// request in flight per connection, which is the gateway's
    /// backpressure.
    Pending(Pending),
}

/// A parked response, as data: the reply channels a dispatch arm is
/// waiting on. The reactor resolves it by polling, the in-process link
/// by blocking on the same channels — so each operation's translation
/// into engine commands exists once, in its dispatch arm.
pub(crate) struct Pending {
    /// Shard-worker acknowledgements that must all land `Ok` first.
    pub(crate) acks: Vec<Receiver<Result<(), ServiceError>>>,
    /// The channel the answer arrives on (pre-loaded by the arm when the
    /// acknowledgements are all it waits for).
    pub(crate) reply: Receiver<Response>,
}

impl Pending {
    /// Parks on `acks` alone: `then` answers once they have all landed.
    pub(crate) fn after(acks: Vec<Receiver<Result<(), ServiceError>>>, then: Response) -> Self {
        let (tx, reply) = mpsc::channel();
        let _ = tx.send(then);
        Self { acks, reply }
    }

    /// The response, waiting on the channels (`block`, the in-process
    /// link) or in one non-blocking pass (the reactor) that hands `self`
    /// back while something is still outstanding.
    pub(crate) fn resolve(mut self, block: bool) -> Result<Response, Self> {
        fn take<T>(rx: &Receiver<T>, block: bool) -> Result<T, TryRecvError> {
            if block {
                rx.recv().map_err(|_| TryRecvError::Disconnected)
            } else {
                rx.try_recv()
            }
        }
        let gone = |who| Response::Err(ServiceError::Transport(format!("ingest {who} gone")));
        while let Some(ack) = self.acks.last() {
            match take(ack, block) {
                Ok(Ok(())) => drop(self.acks.pop()),
                Ok(Err(e)) => return Ok(Response::Err(e)),
                Err(TryRecvError::Empty) => return Err(self),
                Err(TryRecvError::Disconnected) => return Ok(gone("worker")),
            }
        }
        match take(&self.reply, block) {
            Ok(resp) => Ok(resp),
            Err(TryRecvError::Empty) => Err(self),
            Err(TryRecvError::Disconnected) => Ok(gone("sequencer")),
        }
    }
}

/// Maps decoded requests to responses for gateway-served connections.
/// One clone per reactor thread.
pub(crate) trait GatewayDispatch: Send {
    /// Handles one request. Must not block on other connections'
    /// progress — park on a [`Dispatched::Pending`] instead.
    fn dispatch(&mut self, req: Request) -> Dispatched;
}

// ---------------------------------------------------------------------
// Intake
// ---------------------------------------------------------------------

/// Round-robin distributor of accepted connections over the reactor
/// pool. Cloneable: the TCP acceptor and the in-process [`PipeHub`]
/// both feed the same intake.
#[derive(Clone)]
pub(crate) struct GatewayIntake {
    txs: Arc<Vec<Sender<GatewayIo>>>,
    next: Arc<AtomicUsize>,
}

impl GatewayIntake {
    /// Builds an intake feeding the given reactor inboxes.
    pub(crate) fn new(txs: Vec<Sender<GatewayIo>>) -> Self {
        Self {
            txs: Arc::new(txs),
            next: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Assigns a connection to the next reactor. Returns `false` when
    /// every reactor is gone (day teardown).
    pub(crate) fn push(&self, mut io: GatewayIo) -> bool {
        for _ in 0..self.txs.len() {
            let i = self.next.fetch_add(1, Ordering::Relaxed) % self.txs.len();
            match self.txs[i].send(io) {
                Ok(()) => return true,
                Err(e) => io = e.0,
            }
        }
        false
    }
}

/// Blocking TCP accept loop feeding the intake. Exits when `open`
/// clears (the coordinator wakes it with a throwaway connection) or the
/// listener/intake dies.
pub(crate) fn acceptor_loop(listener: TcpListener, open: Arc<AtomicBool>, intake: GatewayIntake) {
    while open.load(Ordering::Acquire) {
        let Ok((stream, _)) = listener.accept() else {
            break;
        };
        if !open.load(Ordering::Acquire) {
            break; // the wake-up connection; drop it unserved
        }
        match GatewayIo::from_stream(stream) {
            Ok(io) => {
                if !intake.push(io) {
                    break;
                }
            }
            Err(_) => continue,
        }
    }
}

/// In-process connector onto the gateway: dialing builds a pipe, pushes
/// the server half straight into the reactor intake, and completes the
/// policy's client handshake over the client half. Cloneable so many
/// stations (and their refillers / steal lanes) can dial one gateway.
#[derive(Clone)]
pub(crate) struct PipeHub {
    intake: GatewayIntake,
    policy: ChannelPolicy,
}

impl PipeHub {
    /// Builds a hub dialing the given intake under the client `policy`.
    pub(crate) fn new(intake: GatewayIntake, policy: ChannelPolicy) -> Self {
        Self { intake, policy }
    }
}

impl Connector for PipeHub {
    fn connect(&self) -> Result<Box<dyn FramedChannel>, ServiceError> {
        let (client_half, server_half) = pipe_pair();
        if !self.intake.push(GatewayIo::from_pipe(server_half)) {
            return Err(ServiceError::Transport("pipe gateway is gone".into()));
        }
        self.policy.establish_client(Box::new(client_half))
    }
}

// ---------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------

/// Channel-layer state of one served connection.
enum ConnState {
    /// Plaintext frames are requests.
    Plain,
    /// Secure policy: waiting for the client's `Init`.
    AwaitInit,
    /// Sent our `Reply`; waiting for the client's `Fin`. Boxed: the
    /// half-done handshake dwarfs every other state and lives only for
    /// one round trip.
    AwaitFin(Box<ServerHello>),
    /// Handshake confirmed; frames are sealed records.
    Secure { tx: FrameSealer, rx: FrameSealer },
}

/// One served connection.
struct GatewayConn {
    io: GatewayIo,
    state: ConnState,
    /// An in-flight parked response; the connection is not read while
    /// this is set.
    pending: Option<Pending>,
    /// Close once the write buffer drains.
    closing: bool,
    /// When this connection entered a reapable condition (half-open
    /// handshake or mid-frame stall) without progress; cleared by any
    /// progress. See [`REAP_AFTER`].
    stalled_since: Option<Instant>,
}

enum Step {
    /// Made progress; keep going.
    Progress,
    /// Nothing to do on this connection right now.
    Idle,
    /// Drop the connection (peer gone, or fatal channel violation after
    /// any queued rejection flushes).
    Dead,
    /// Drop the connection: half-open or mid-frame with no progress past
    /// the reap deadline (counted separately from organic deaths).
    Reaped,
}

impl GatewayConn {
    fn new(io: GatewayIo, policy: &ChannelPolicy) -> Self {
        let state = match policy {
            ChannelPolicy::Plaintext => ConnState::Plain,
            ChannelPolicy::Secure(_) => ConnState::AwaitInit,
        };
        Self {
            io,
            state,
            pending: None,
            closing: false,
            stalled_since: None,
        }
    }

    /// `true` when this connection is in a state only a dead or
    /// byzantine peer would hold for long: a half-open handshake
    /// (accepted but never finished — the classic half-open flood), or a
    /// partial frame that stopped growing. Established idle channels are
    /// not reapable.
    fn reapable(&self) -> bool {
        matches!(self.state, ConnState::AwaitInit | ConnState::AwaitFin(_)) || self.io.mid_frame()
    }

    /// Sends a response, sealed when the channel is secure.
    fn queue_response(&mut self, resp: &Response) -> Result<(), ServiceError> {
        let wire = resp.to_wire();
        match &mut self.state {
            ConnState::Secure { tx, .. } => {
                let sealed = tx.seal(&wire);
                self.io
                    .queue_frame(&HandshakeFrame::Record(SealedRecord { sealed }).to_wire())
            }
            // Pre-handshake rejections and plaintext traffic go in the
            // clear (the peer has no keys yet).
            _ => self.io.queue_frame(&wire),
        }
    }

    /// Queues a typed rejection and marks the connection for close.
    fn reject(&mut self, e: ServiceError) {
        let _ = self.queue_response(&Response::Err(e));
        self.closing = true;
    }

    fn apply(&mut self, outcome: Dispatched) {
        match outcome {
            Dispatched::Now(resp) => {
                if self.queue_response(&resp).is_err() {
                    self.closing = true;
                }
            }
            Dispatched::CloseAfter(resp) => {
                let _ = self.queue_response(&resp);
                self.closing = true;
            }
            Dispatched::Pending(parked) => self.pending = Some(parked),
        }
    }

    /// Steps one received frame through the channel state machine.
    fn on_frame(
        &mut self,
        frame: Vec<u8>,
        policy: &ChannelPolicy,
        dispatch: &mut impl GatewayDispatch,
    ) {
        match &mut self.state {
            ConnState::Plain => match Request::from_wire(&frame) {
                Ok(req) => self.apply(dispatch.dispatch(req)),
                Err(_) if HandshakeFrame::is_channel_frame(&frame) => {
                    self.reject(ServiceError::HandshakeFailed(
                        "plaintext gateway received a secure-channel frame".into(),
                    ));
                }
                Err(e) => {
                    // One malformed frame answers typed and the
                    // connection lives on.
                    let _ = self.queue_response(&Response::Err(ServiceError::Transport(format!(
                        "bad request: {e}"
                    ))));
                }
            },
            ConnState::AwaitInit => {
                let ChannelPolicy::Secure(cfg) = policy else {
                    // Connections only enter AwaitInit under a secure
                    // policy; a mismatch means reactor state corruption,
                    // answered typed rather than by tearing the thread down.
                    self.reject(ServiceError::HandshakeFailed(
                        "channel policy changed mid-handshake".into(),
                    ));
                    return;
                };
                match HandshakeFrame::from_wire(&frame) {
                    Ok(HandshakeFrame::Init(init)) => match server_hello(&init, cfg) {
                        Ok(hello) => {
                            let reply = HandshakeFrame::Reply(hello.reply.clone()).to_wire();
                            if self.io.queue_frame(&reply).is_err() {
                                self.closing = true;
                                return;
                            }
                            self.state = ConnState::AwaitFin(Box::new(hello));
                        }
                        Err(e) => self.reject(e),
                    },
                    _ => self.reject(ServiceError::HandshakeFailed(
                        "secure gateway requires a handshake; peer sent something else".into(),
                    )),
                }
            }
            ConnState::AwaitFin(hello) => {
                let ChannelPolicy::Secure(cfg) = policy else {
                    self.reject(ServiceError::HandshakeFailed(
                        "channel policy changed mid-handshake".into(),
                    ));
                    return;
                };
                match HandshakeFrame::from_wire(&frame) {
                    Ok(HandshakeFrame::Fin(fin)) => {
                        match finish_server_handshake(hello, &fin, cfg) {
                            Ok(keys) => {
                                self.state = ConnState::Secure {
                                    tx: FrameSealer::new(keys.server_to_client),
                                    rx: FrameSealer::new(keys.client_to_server),
                                };
                            }
                            Err(e) => self.reject(e),
                        }
                    }
                    _ => self.reject(ServiceError::HandshakeFailed(
                        "expected handshake fin".into(),
                    )),
                }
            }
            ConnState::Secure { rx, .. } => match HandshakeFrame::from_wire(&frame) {
                Ok(HandshakeFrame::Record(rec)) => match rx.open(&rec.sealed) {
                    Ok(plain) => match Request::from_wire(&plain) {
                        Ok(req) => self.apply(dispatch.dispatch(req)),
                        Err(e) => {
                            let _ = self.queue_response(&Response::Err(ServiceError::Transport(
                                format!("bad request: {e}"),
                            )));
                        }
                    },
                    Err(e) => self.reject(ServiceError::Transport(format!(
                        "secure channel rejected a record: {e}"
                    ))),
                },
                _ => self.reject(ServiceError::HandshakeFailed(
                    "expected an encrypted record on an established channel".into(),
                )),
            },
        }
    }

    /// One reactor tick over this connection.
    fn tick(
        &mut self,
        policy: &ChannelPolicy,
        dispatch: &mut impl GatewayDispatch,
        reap_after: Duration,
    ) -> Step {
        let mut progressed = false;
        // 1. Poll an in-flight parked response.
        if let Some(parked) = self.pending.take() {
            match parked.resolve(false) {
                Ok(resp) => {
                    self.apply(Dispatched::Now(resp));
                    progressed = true;
                }
                Err(parked) => self.pending = Some(parked),
            }
        }
        // 2. Read frames (unless closing or a response is in flight).
        if self.pending.is_none() && !self.closing {
            for _ in 0..FRAMES_PER_TICK {
                match self.io.try_read_frame() {
                    Ok(Some(frame)) => {
                        progressed = true;
                        self.on_frame(frame, policy, dispatch);
                        if self.pending.is_some() || self.closing {
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => return Step::Dead,
                }
            }
        }
        // 3. Flush writes; close once drained if marked.
        match self.io.flush() {
            Ok(true) if self.closing => Step::Dead,
            Ok(_) => {
                if progressed {
                    self.stalled_since = None;
                    Step::Progress
                } else if self.reapable() {
                    // 4. Liveness: a half-open or mid-frame connection
                    // that stays stuck past the deadline is torn down.
                    let since = *self.stalled_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= reap_after {
                        Step::Reaped
                    } else {
                        Step::Idle
                    }
                } else {
                    self.stalled_since = None;
                    Step::Idle
                }
            }
            Err(_) => Step::Dead,
        }
    }
}

/// Serves connections from `inbox` until every connection has closed
/// and either the inbox disconnected or `open` cleared (connectors may
/// outlive the day's scope, so the coordinator signals teardown through
/// the flag rather than by dropping senders). One of these runs per
/// reactor-pool thread.
pub(crate) fn reactor_loop(
    inbox: Receiver<GatewayIo>,
    policy: ChannelPolicy,
    mut dispatch: impl GatewayDispatch,
    open: Arc<AtomicBool>,
    reap_after: Duration,
    stats: Arc<EngineStats>,
) {
    let mut conns: Vec<GatewayConn> = Vec::new();
    let mut idle_sleep = Duration::from_micros(10);
    let mut idle_passes = 0u32;
    loop {
        let mut progressed = false;
        let mut disconnected = false;
        // Admit new connections.
        loop {
            match inbox.try_recv() {
                Ok(io) => {
                    conns.push(GatewayConn::new(io, &policy));
                    progressed = true;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        if conns.is_empty() && (disconnected || !open.load(Ordering::Acquire)) {
            return;
        }
        // Tick every connection; drop the dead, reap the stalled.
        let mut i = 0;
        while i < conns.len() {
            match conns[i].tick(&policy, &mut dispatch, reap_after) {
                Step::Progress => {
                    progressed = true;
                    i += 1;
                }
                Step::Idle => i += 1,
                Step::Dead => {
                    conns.swap_remove(i);
                    progressed = true;
                }
                Step::Reaped => {
                    conns.swap_remove(i);
                    stats.reaped.fetch_add(1, Ordering::Relaxed);
                    progressed = true;
                }
            }
        }
        if progressed {
            idle_sleep = Duration::from_micros(10);
            idle_passes = 0;
        } else if idle_passes < IDLE_YIELDS {
            // Nothing moved: hand the core to whoever resolves our
            // parked work (sequencer, shard workers) before backing off.
            idle_passes += 1;
            std::thread::yield_now();
        } else {
            // Still nothing: back off (bounded) instead of spinning.
            std::thread::sleep(idle_sleep);
            idle_sleep = (idle_sleep * 2).min(MAX_IDLE_SLEEP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{pipe_pair, FramedChannel, SecureConfig};
    use std::sync::mpsc::channel;
    use vg_crypto::schnorr::SigningKey;
    use vg_crypto::HmacDrbg;

    /// Answers `Sync` immediately, `LedgerHeads` parked (the reply lands
    /// a few reactor polls later), and `Shutdown` with close-after.
    struct TestDispatch;

    impl GatewayDispatch for TestDispatch {
        fn dispatch(&mut self, req: Request) -> Dispatched {
            match req {
                Request::Sync => Dispatched::Now(Response::Sync),
                Request::LedgerHeads => {
                    let (tx, reply) = channel();
                    std::thread::spawn(move || {
                        std::thread::sleep(Duration::from_millis(20));
                        let _ = tx.send(Response::SyncThrough);
                    });
                    let acks = Vec::new();
                    Dispatched::Pending(Pending { acks, reply })
                }
                Request::Shutdown => Dispatched::CloseAfter(Response::Shutdown),
                _ => Dispatched::Now(Response::Err(ServiceError::Transport("nope".into()))),
            }
        }
    }

    fn spawn_reactor(policy: ChannelPolicy) -> (GatewayIntake, std::thread::JoinHandle<()>) {
        let (intake, handle, _) = spawn_reaping_reactor(policy, REAP_AFTER);
        (intake, handle)
    }

    fn call(chan: &mut dyn FramedChannel, req: &Request) -> Response {
        chan.send_frame(&req.to_wire()).unwrap();
        Response::from_wire(&chan.recv_frame().unwrap()).unwrap()
    }

    #[test]
    fn plaintext_pipe_request_response_and_pending() {
        let (intake, handle) = spawn_reactor(ChannelPolicy::Plaintext);
        let (mut client, server_half) = pipe_pair();
        assert!(intake.push(GatewayIo::from_pipe(server_half)));
        assert!(matches!(call(&mut client, &Request::Sync), Response::Sync));
        // A parked request resolves after the reactor polls it dry.
        assert!(matches!(
            call(&mut client, &Request::LedgerHeads),
            Response::SyncThrough
        ));
        assert!(matches!(
            call(&mut client, &Request::Shutdown),
            Response::Shutdown
        ));
        drop(client);
        drop(intake);
        handle.join().unwrap();
    }

    #[test]
    fn tcp_connection_served_nonblocking() {
        let (intake, handle) = spawn_reactor(ChannelPolicy::Plaintext);
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = crate::channel::TcpChannel::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        assert!(intake.push(GatewayIo::from_stream(stream).unwrap()));
        for _ in 0..5 {
            assert!(matches!(call(&mut client, &Request::Sync), Response::Sync));
        }
        assert!(matches!(
            call(&mut client, &Request::Shutdown),
            Response::Shutdown
        ));
        drop(client);
        drop(intake);
        handle.join().unwrap();
    }

    fn secure_cfgs() -> (SecureConfig, SecureConfig) {
        let mut rng = HmacDrbg::from_u64(99);
        let server = SigningKey::generate(&mut rng);
        let station = SigningKey::generate(&mut rng);
        let enrolled = Arc::new(vec![station.public_key_compressed()]);
        (
            SecureConfig {
                local: server.clone(),
                registrar: server.public_key_compressed(),
                enrolled: enrolled.clone(),
            },
            SecureConfig {
                local: station,
                registrar: server.public_key_compressed(),
                enrolled,
            },
        )
    }

    #[test]
    fn secure_handshake_and_sealed_requests_over_gateway() {
        let (server_cfg, client_cfg) = secure_cfgs();
        let (intake, handle) = spawn_reactor(ChannelPolicy::Secure(server_cfg));
        let (client_half, server_half) = pipe_pair();
        assert!(intake.push(GatewayIo::from_pipe(server_half)));
        let mut client = ChannelPolicy::Secure(client_cfg)
            .establish_client(Box::new(client_half))
            .unwrap();
        assert!(matches!(call(&mut *client, &Request::Sync), Response::Sync));
        assert!(matches!(
            call(&mut *client, &Request::Shutdown),
            Response::Shutdown
        ));
        drop(client);
        drop(intake);
        handle.join().unwrap();
    }

    #[test]
    fn unenrolled_station_rejected_typed_by_gateway() {
        let (server_cfg, mut client_cfg) = secure_cfgs();
        let mut rng = HmacDrbg::from_u64(100);
        client_cfg.local = SigningKey::generate(&mut rng);
        let (intake, handle) = spawn_reactor(ChannelPolicy::Secure(server_cfg));
        let (client_half, server_half) = pipe_pair();
        assert!(intake.push(GatewayIo::from_pipe(server_half)));
        let mut client = ChannelPolicy::Secure(client_cfg)
            .establish_client(Box::new(client_half))
            .unwrap();
        // First use observes the typed rejection.
        assert!(matches!(
            client.recv_frame(),
            Err(ServiceError::AuthFailed(_))
        ));
        drop(client);
        drop(intake);
        handle.join().unwrap();
    }

    fn spawn_reaping_reactor(
        policy: ChannelPolicy,
        reap_after: Duration,
    ) -> (GatewayIntake, std::thread::JoinHandle<()>, Arc<EngineStats>) {
        let (tx, rx) = channel();
        let open = Arc::new(AtomicBool::new(true));
        let stats = EngineStats::new(1);
        let s = stats.clone();
        let handle =
            std::thread::spawn(move || reactor_loop(rx, policy, TestDispatch, open, reap_after, s));
        (GatewayIntake::new(vec![tx]), handle, stats)
    }

    fn await_reap(stats: &EngineStats) -> u64 {
        let t0 = Instant::now();
        while stats.reaped.load(Ordering::Relaxed) == 0 && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(5));
        }
        stats.reaped.load(Ordering::Relaxed)
    }

    #[test]
    fn half_open_handshake_is_reaped() {
        let (server_cfg, _) = secure_cfgs();
        let (intake, handle, reaped) =
            spawn_reaping_reactor(ChannelPolicy::Secure(server_cfg), Duration::from_millis(50));
        // The client connects and then never speaks: the connection
        // parks in AwaitInit and must be reaped, not held forever.
        let (client_half, server_half) = pipe_pair();
        assert!(intake.push(GatewayIo::from_pipe(server_half)));
        assert_eq!(await_reap(&reaped), 1);
        drop(client_half);
        drop(intake);
        handle.join().unwrap();
    }

    #[test]
    fn mid_frame_stall_is_reaped_but_healthy_idle_is_not() {
        let (intake, handle, reaped) =
            spawn_reaping_reactor(ChannelPolicy::Plaintext, Duration::from_millis(50));
        // A healthy idle plaintext connection: established, no partial
        // frame. It must survive many reap deadlines.
        let (mut idle_client, idle_server) = pipe_pair();
        assert!(intake.push(GatewayIo::from_pipe(idle_server)));
        // A TCP peer that sends half a frame header and then stalls.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let stalled = TcpStream::connect(addr).unwrap();
        stalled.set_nodelay(true).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(intake.push(GatewayIo::from_stream(accepted).unwrap()));
        (&stalled).write_all(&[7u8, 0]).unwrap(); // half a length prefix
        assert_eq!(await_reap(&reaped), 1);
        // The idle connection still serves: it was never reaped.
        idle_client.send_frame(&Request::Sync.to_wire()).unwrap();
        assert!(matches!(
            Response::from_wire(&idle_client.recv_frame().unwrap()),
            Ok(Response::Sync)
        ));
        drop(stalled);
        drop(idle_client);
        drop(intake);
        handle.join().unwrap();
    }

    #[test]
    fn plaintext_client_of_secure_gateway_rejected_typed() {
        let (server_cfg, _) = secure_cfgs();
        let (intake, handle) = spawn_reactor(ChannelPolicy::Secure(server_cfg));
        let (mut client, server_half) = pipe_pair();
        assert!(intake.push(GatewayIo::from_pipe(server_half)));
        client.send_frame(&Request::Sync.to_wire()).unwrap();
        let frame = client.recv_frame().unwrap();
        assert!(matches!(
            Response::from_wire(&frame),
            Ok(Response::Err(ServiceError::HandshakeFailed(_)))
        ));
        drop(client);
        drop(intake);
        handle.join().unwrap();
    }

    #[test]
    fn secure_frame_to_plaintext_gateway_rejected_typed() {
        let (intake, handle) = spawn_reactor(ChannelPolicy::Plaintext);
        let (mut client, server_half) = pipe_pair();
        assert!(intake.push(GatewayIo::from_pipe(server_half)));
        let mut rng = HmacDrbg::from_u64(5);
        let eph = vg_crypto::channel::EphemeralKey::generate(&mut rng);
        client
            .send_frame(
                &HandshakeFrame::Init(crate::messages::HandshakeInit { eph: eph.public }).to_wire(),
            )
            .unwrap();
        let frame = client.recv_frame().unwrap();
        assert!(matches!(
            Response::from_wire(&frame),
            Ok(Response::Err(ServiceError::HandshakeFailed(_)))
        ));
        drop(client);
        drop(intake);
        handle.join().unwrap();
    }
}
