//! The registrar's server for a threaded day: every connection it
//! accepts — stations, refillers, steal runners; loopback TCP from
//! `tcp_acceptor`, in-process pipes dialed through a `PipeHub` — is
//! served to its end by a scoped thread of its own, running the mirror
//! image of what its client runs: the policy's server handshake
//! ([`ChannelPolicy::establish_server`]), then one blocking loop of
//! `recv_frame` → [`Request::from_wire`] → the engine's
//! [`RequestEndpoint::call`] → `send_frame`. Framing, the handshake and
//! record sealing live in [`crate::wire`] and [`crate::channel`] and
//! nowhere else.
//!
//! One request is in flight per connection, which is the server's
//! backpressure: a station's parked barrier or its window's verification
//! sweep holds up its own thread and nobody else's. Liveness is a read
//! deadline, not a loop: a peer gets `REAP_AFTER` (2 s) to finish the
//! handshake and to finish any frame it began; between frames an
//! established connection waits on its peer forever. Server threads
//! therefore number the open connections — on a registration site a
//! handful per station.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::Scope;
use std::time::Duration;

use crate::channel::{
    pipe_pair, ChannelPolicy, Connector, Deadlines, FramedChannel, PipeChannel, TcpChannel,
};
use crate::error::ServiceError;
use crate::messages::{HandshakeFrame, Request, Response};
use crate::transport::{EngineStats, RequestEndpoint};

/// Default reap deadline for half-open and mid-frame-stalled
/// connections. A peer that has not finished its handshake, or a frame
/// it began, within this long can only be dead or byzantine, and its
/// connection is ended (and counted in `DayStats::reaped`) rather than
/// left holding a thread forever. Healthy idle connections (established
/// channel, no partial frame) are **never** reaped: an idle station
/// waiting out a quiet registration hour is liveness, not a leak.
pub(crate) const REAP_AFTER: Duration = Duration::from_secs(2);

/// What serves a day's connections; each connection's thread runs its
/// own clone.
#[derive(Clone)]
pub(crate) struct Server<E> {
    /// The registrar's side of the day's channel policy.
    pub(crate) policy: ChannelPolicy,
    /// The engine's side of the seam.
    pub(crate) endpoint: E,
    /// [`REAP_AFTER`]; tests tighten it.
    pub(crate) reap_after: Duration,
    /// The day's counter block (`reaped`).
    pub(crate) stats: Arc<EngineStats>,
    /// Cleared at day teardown: the acceptors stop admitting.
    pub(crate) open: Arc<AtomicBool>,
}

impl<E: RequestEndpoint> Server<E> {
    /// Serves one accepted connection until its peer hangs up, breaks
    /// the channel, runs into a read deadline (a reap) or has been
    /// answered its `Shutdown`.
    pub(crate) fn serve(mut self, chan: Box<dyn FramedChannel>) {
        if let Err(ServiceError::Timeout(_)) = self.converse(chan) {
            self.stats.reaped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The connection's whole conversation; `Err` is what ended it on
    /// the read side.
    fn converse(&mut self, mut chan: Box<dyn FramedChannel>) -> Result<(), ServiceError> {
        chan.set_read_deadline(Some(self.reap_after));
        let mut chan = self.policy.establish_server(chan)?;
        // Established: from here only a frame that has begun is on the
        // clock (the one the acceptor built the channel with).
        chan.set_read_deadline(None);
        loop {
            let frame = match chan.recv_frame() {
                Ok(frame) => frame,
                Err(e) => {
                    // A refusal the peer can still hear (a rejected
                    // record, a frame from outside the channel) reaches
                    // it typed; after a hang-up the send just fails.
                    let _ = chan.send_frame(&Response::Err(e.clone()).to_wire());
                    return Err(e);
                }
            };
            let (resp, last) = match Request::from_wire(&frame) {
                Ok(req) => {
                    let last = matches!(req, Request::Shutdown);
                    (self.endpoint.call(req), last)
                }
                Err(_) if HandshakeFrame::is_channel_frame(&frame) => {
                    let e = "plaintext registrar received a secure-channel frame";
                    (Response::Err(ServiceError::HandshakeFailed(e.into())), true)
                }
                // One malformed frame answers typed and the connection
                // lives on.
                Err(e) => {
                    let e = ServiceError::Transport(format!("bad request: {e}"));
                    (Response::Err(e), false)
                }
            };
            if chan.send_frame(&resp.to_wire()).is_err() || last {
                return Ok(());
            }
        }
    }
}

/// Accepts loopback TCP connections, a scoped thread each, until `open`
/// clears (the coordinator then wakes the parked `accept` with a
/// throwaway connection) or the listener dies.
pub(crate) fn tcp_acceptor<'scope, E>(
    scope: &'scope Scope<'scope, '_>,
    listener: TcpListener,
    server: Server<E>,
) where
    E: RequestEndpoint + Clone + Send + 'scope,
{
    // The socket's own read deadline: it bounds the handshake and every
    // frame that has begun; `serve` lifts it off the wait between frames.
    let deadlines = Deadlines {
        read: Some(server.reap_after),
        ..Deadlines::default()
    };
    while let Ok((stream, _)) = listener.accept() {
        if !server.open.load(Ordering::Acquire) {
            break; // the wake-up connection; drop it unserved
        }
        if let Ok(chan) = TcpChannel::from_stream_with(stream, deadlines) {
            let server = server.clone();
            scope.spawn(move || server.serve(Box::new(chan)));
        }
    }
}

/// The in-process counterpart of [`tcp_acceptor`]: serves every pipe a
/// [`PipeHub`] dialed into `dialed`, until `open` clears (the
/// coordinator wakes it with a throwaway pipe — connectors may outlive
/// the day's scope, so the channel never disconnects by itself).
pub(crate) fn pipe_acceptor<'scope, E>(
    scope: &'scope Scope<'scope, '_>,
    dialed: Receiver<PipeChannel>,
    server: Server<E>,
) where
    E: RequestEndpoint + Clone + Send + 'scope,
{
    for chan in dialed {
        if !server.open.load(Ordering::Acquire) {
            break;
        }
        let server = server.clone();
        scope.spawn(move || server.serve(Box::new(chan)));
    }
}

/// In-process connector onto the server: dialing builds a pipe, hands
/// the server half to [`pipe_acceptor`], and completes the policy's
/// client handshake over the client half. Cloneable so many stations
/// (and their refillers / steal runners) can dial one registrar.
#[derive(Clone)]
pub(crate) struct PipeHub {
    /// Where dialed server halves go.
    pub(crate) intake: Sender<PipeChannel>,
    /// The dialing station's side of the channel policy.
    pub(crate) policy: ChannelPolicy,
}

impl Connector for PipeHub {
    fn connect(&self) -> Result<Box<dyn FramedChannel>, ServiceError> {
        let (client_half, server_half) = pipe_pair();
        if self.intake.send(server_half).is_err() {
            return Err(ServiceError::Transport("pipe gateway is gone".into()));
        }
        self.policy.establish_client(Box::new(client_half))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::SecureConfig;
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::mpsc::channel;
    use std::time::Instant;
    use vg_crypto::schnorr::SigningKey;
    use vg_crypto::HmacDrbg;

    /// Answers `Sync` at once, `LedgerHeads` late (as a request parked on
    /// the sequencer would be) and `Shutdown` with its acknowledgement.
    #[derive(Clone)]
    struct TestEndpoint;

    impl RequestEndpoint for TestEndpoint {
        fn call(&mut self, req: Request) -> Response {
            match req {
                Request::Sync => Response::Sync,
                Request::LedgerHeads => {
                    std::thread::sleep(Duration::from_millis(20));
                    Response::SyncThrough
                }
                Request::Shutdown => Response::Shutdown,
                _ => Response::Err(ServiceError::Transport("nope".into())),
            }
        }
    }

    /// A live server's two front doors and its counters.
    struct Doors {
        addr: SocketAddr,
        intake: Sender<PipeChannel>,
        open: Arc<AtomicBool>,
        stats: Arc<EngineStats>,
    }

    impl Doors {
        /// Dials an in-process pipe; the bare client half.
        fn pipe(&self) -> PipeChannel {
            let (client_half, server_half) = pipe_pair();
            self.intake.send(server_half).unwrap();
            client_half
        }

        fn await_reap(&self) -> u64 {
            let t0 = Instant::now();
            while self.reaped() == 0 && t0.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(5));
            }
            self.reaped()
        }

        fn reaped(&self) -> u64 {
            self.stats.reaped.load(Ordering::Relaxed)
        }
    }

    /// Day teardown — also when an assertion unwinds, or the scope join
    /// would wait on the acceptors forever.
    impl Drop for Doors {
        fn drop(&mut self) {
            self.open.store(false, Ordering::SeqCst);
            drop(TcpStream::connect(self.addr));
            let _ = self.intake.send(pipe_pair().1);
        }
    }

    /// Runs `test` against a server accepting on loopback TCP and on a
    /// pipe intake, as a day's scope runs it, then tears it down;
    /// returning means every acceptor and connection thread joined.
    fn with_server(policy: ChannelPolicy, reap_after: Duration, test: impl FnOnce(&Doors)) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let (intake, dialed) = channel();
        let server = Server {
            policy,
            endpoint: TestEndpoint,
            reap_after,
            stats: Arc::default(),
            open: Arc::new(AtomicBool::new(true)),
        };
        let doors = Doors {
            addr: listener.local_addr().unwrap(),
            intake,
            open: Arc::clone(&server.open),
            stats: Arc::clone(&server.stats),
        };
        std::thread::scope(|scope| {
            let pipes = server.clone();
            scope.spawn(move || tcp_acceptor(scope, listener, server));
            scope.spawn(move || pipe_acceptor(scope, dialed, pipes));
            let doors = doors;
            test(&doors);
        });
    }

    fn call(chan: &mut dyn FramedChannel, req: &Request) -> Response {
        chan.send_frame(&req.to_wire()).unwrap();
        Response::from_wire(&chan.recv_frame().unwrap()).unwrap()
    }

    #[test]
    fn plaintext_pipe_request_response_and_pending() {
        with_server(ChannelPolicy::Plaintext, REAP_AFTER, |doors| {
            let mut client = doors.pipe();
            assert!(matches!(call(&mut client, &Request::Sync), Response::Sync));
            // A reply that arrives late is waited for.
            assert!(matches!(
                call(&mut client, &Request::LedgerHeads),
                Response::SyncThrough
            ));
            assert!(matches!(
                call(&mut client, &Request::Shutdown),
                Response::Shutdown
            ));
            // Answered its `Shutdown`, the server hung up.
            assert!(client.recv_frame().is_err());
        });
    }

    #[test]
    fn tcp_connection_served() {
        with_server(ChannelPolicy::Plaintext, REAP_AFTER, |doors| {
            let mut client = TcpChannel::connect(doors.addr).unwrap();
            for _ in 0..5 {
                assert!(matches!(call(&mut client, &Request::Sync), Response::Sync));
            }
            assert!(matches!(
                call(&mut client, &Request::Shutdown),
                Response::Shutdown
            ));
        });
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
        with_server(ChannelPolicy::Secure(server_cfg), REAP_AFTER, |doors| {
            let mut client = ChannelPolicy::Secure(client_cfg)
                .establish_client(Box::new(doors.pipe()))
                .unwrap();
            assert!(matches!(call(&mut *client, &Request::Sync), Response::Sync));
            assert!(matches!(
                call(&mut *client, &Request::Shutdown),
                Response::Shutdown
            ));
        });
    }

    #[test]
    fn unenrolled_station_rejected_typed_by_gateway() {
        let (server_cfg, mut client_cfg) = secure_cfgs();
        let mut rng = HmacDrbg::from_u64(100);
        client_cfg.local = SigningKey::generate(&mut rng);
        with_server(ChannelPolicy::Secure(server_cfg), REAP_AFTER, |doors| {
            let mut client = ChannelPolicy::Secure(client_cfg)
                .establish_client(Box::new(doors.pipe()))
                .unwrap();
            // First use observes the typed rejection.
            assert!(matches!(
                client.recv_frame(),
                Err(ServiceError::AuthFailed(_))
            ));
        });
    }

    const TIGHT: Duration = Duration::from_millis(50);

    #[test]
    fn half_open_handshake_is_reaped() {
        let (server_cfg, _) = secure_cfgs();
        with_server(ChannelPolicy::Secure(server_cfg), TIGHT, |doors| {
            // The client connects and then never speaks: the server
            // waits for its `Init` and must give up, not wait forever.
            let _silent = doors.pipe();
            assert_eq!(doors.await_reap(), 1);
        });
    }

    #[test]
    fn half_open_tcp_handshake_is_reaped() {
        let (server_cfg, _) = secure_cfgs();
        with_server(ChannelPolicy::Secure(server_cfg), TIGHT, |doors| {
            let mut silent = TcpStream::connect(doors.addr).unwrap();
            assert_eq!(doors.await_reap(), 1);
            // The reaped peer finds its connection closed.
            assert_eq!(silent.read(&mut [0u8; 1]).unwrap(), 0);
        });
    }

    #[test]
    fn mid_frame_stall_is_reaped_but_healthy_idle_is_not() {
        with_server(ChannelPolicy::Plaintext, TIGHT, |doors| {
            // A healthy idle plaintext connection: established, no partial
            // frame. It must survive many reap deadlines.
            let mut idle_client = doors.pipe();
            // A TCP peer that sends half a frame header and then stalls.
            let mut stalled = TcpStream::connect(doors.addr).unwrap();
            stalled.set_nodelay(true).unwrap();
            stalled.write_all(&[7u8, 0]).unwrap(); // half a length prefix
            assert_eq!(doors.await_reap(), 1);
            // The idle connection still serves: it was never reaped.
            assert!(matches!(
                call(&mut idle_client, &Request::Sync),
                Response::Sync
            ));
        });
    }

    #[test]
    fn idle_tcp_connection_outlives_the_reap_deadline() {
        with_server(ChannelPolicy::Plaintext, TIGHT, |doors| {
            let mut client = TcpChannel::connect(doors.addr).unwrap();
            assert!(matches!(call(&mut client, &Request::Sync), Response::Sync));
            // Quiet for ten reap deadlines, with no partial frame.
            std::thread::sleep(10 * TIGHT);
            assert!(matches!(call(&mut client, &Request::Sync), Response::Sync));
            assert_eq!(doors.reaped(), 0);
        });
    }

    #[test]
    fn plaintext_client_of_secure_gateway_rejected_typed() {
        let (server_cfg, _) = secure_cfgs();
        with_server(ChannelPolicy::Secure(server_cfg), REAP_AFTER, |doors| {
            let mut client = doors.pipe();
            assert!(matches!(
                call(&mut client, &Request::Sync),
                Response::Err(ServiceError::HandshakeFailed(_))
            ));
        });
    }

    #[test]
    fn secure_frame_to_plaintext_gateway_rejected_typed() {
        with_server(ChannelPolicy::Plaintext, REAP_AFTER, |doors| {
            let mut client = doors.pipe();
            let mut rng = HmacDrbg::from_u64(5);
            let eph = vg_crypto::channel::EphemeralKey::generate(&mut rng);
            let init = crate::messages::HandshakeInit { eph: eph.public };
            client
                .send_frame(&HandshakeFrame::Init(init).to_wire())
                .unwrap();
            let frame = client.recv_frame().unwrap();
            assert!(matches!(
                Response::from_wire(&frame),
                Ok(Response::Err(ServiceError::HandshakeFailed(_)))
            ));
        });
    }
}
