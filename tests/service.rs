//! Workspace-level properties of the service layer: canonical codec
//! round-trips for every wire message, truncation/garbage-frame
//! rejection, and the cross-transport equivalence contract — a fleet
//! registration day over the TCP transport is bit-identical to the
//! in-process run and to the sequential seeded reference, for any
//! `(kiosks, pool batch, threads, seed, queue shape)`.

use std::net::TcpListener;
use std::sync::Arc;

use proptest::prelude::*;
use votegral::crypto::channel::{DirectionKeys, EphemeralKey, FrameSealer};
use votegral::crypto::chaum_pedersen::Commitment;
use votegral::crypto::schnorr::{NonceCoupon, SigningKey};
use votegral::crypto::{HmacDrbg, Rng};
use votegral::ledger::{challenge_hash, VoterId};
use votegral::service::messages::{
    ActivationSweepRequest, CheckInRequest, CheckInResponse, CheckOutBatchRequest,
    CheckOutBatchResponse, EnvelopeSubmitRequest, HandshakeFin, HandshakeFrame, HandshakeInit,
    HandshakeReply, IngestReceipt, IngestStatsReply, LedgerHeads, PrintRequest, PrintResponse,
    Request, Response, SealedRecord, SeqCheckOutRequest, SeqEnvelopeSubmitRequest,
    SyncThroughRequest, WireCoupon,
};
use votegral::service::{
    run_day, ChannelPolicy, Connector, DayPlan, Deadlines, LinkKind, Listener, SecureConfig,
    ServiceError, TcpChannelListener, TcpConnector, TransportPlan, Wire,
};
use votegral::trip::fleet::{FleetConfig, KioskFleet};
use votegral::trip::materials::{CheckInTicket, CheckOutQr, CommitQr, ResponseQr, Symbol};
use votegral::trip::printer::EnvelopePrinter;
use votegral::trip::protocol::{register_voter_seeded, RegistrationOutcome};
use votegral::trip::setup::{TripConfig, TripSystem};
use votegral::trip::vsd::ActivationClaim;
use votegral::trip::PrintJob;
use votegral::votegral::ElectionBuilder;

/// A registration day over `transport` on the default (one-station,
/// lock-step) pipeline: inline for the plaintext in-process plan, the
/// one-station gateway day for every other.
fn day(transport: TransportPlan, activate: bool) -> DayPlan {
    DayPlan {
        transport,
        activate,
        ..DayPlan::default()
    }
}

fn trip_config(n_voters: u64, n_kiosks: usize) -> TripConfig {
    TripConfig {
        n_voters,
        n_kiosks,
        ..TripConfig::default()
    }
}

/// Builds one plausible instance of every wire message from a seed.
fn sample_messages(seed: u64) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut rng = HmacDrbg::from_u64(seed);
    let kiosk = SigningKey::generate(&mut rng);
    let printer = EnvelopePrinter::new(&mut rng);
    let c_pc = votegral::crypto::elgamal::Ciphertext {
        c1: votegral::crypto::EdwardsPoint::mul_base(&rng.scalar()),
        c2: votegral::crypto::EdwardsPoint::mul_base(&rng.scalar()),
    };
    let qr = CheckOutQr {
        voter_id: VoterId(rng.below(1 << 20)),
        c_pc,
        kiosk_pk: kiosk.public_key_compressed(),
        kiosk_sig: kiosk.sign(b"checkout"),
    };
    let coupon: WireCoupon = NonceCoupon::generate(&mut rng).into();
    let e = rng.scalar();
    let (envelope, commitment) = printer.print_detached(e, Symbol::random(&mut rng));
    let job = PrintJob {
        challenge: rng.scalar(),
        symbol: Symbol::random(&mut rng),
    };
    let claim = ActivationClaim {
        voter_id: qr.voter_id,
        c_pc: qr.c_pc,
        kiosk_pk: qr.kiosk_pk,
        challenge: e,
    };
    let head = votegral::ledger::TreeHead {
        size: rng.below(1 << 30),
        root: rng.bytes32(),
        signature: kiosk.sign(b"head"),
    };
    let ticket = CheckInTicket {
        voter_id: qr.voter_id,
        tag: rng.bytes32(),
    };
    assert_eq!(commitment.challenge_hash, challenge_hash(&e));

    let requests = vec![
        Request::CheckIn(CheckInRequest { voter: qr.voter_id }).to_wire(),
        Request::CheckOutBatch(CheckOutBatchRequest {
            checkouts: vec![(qr.clone(), coupon)],
        })
        .to_wire(),
        Request::Print(PrintRequest {
            jobs: vec![job, job],
        })
        .to_wire(),
        Request::SubmitEnvelopes(EnvelopeSubmitRequest {
            commitments: vec![commitment.clone(), commitment.clone()],
        })
        .to_wire(),
        Request::Sync.to_wire(),
        Request::LedgerHeads.to_wire(),
        Request::ActivationSweep(ActivationSweepRequest {
            claims: vec![claim.clone(), claim.clone()],
        })
        .to_wire(),
        Request::Shutdown.to_wire(),
        Request::SubmitEnvelopesSeq(SeqEnvelopeSubmitRequest {
            groups: vec![
                (2, vec![commitment.clone()]),
                (3, vec![commitment.clone(), commitment.clone()]),
            ],
        })
        .to_wire(),
        Request::CheckOutBatchSeq(SeqCheckOutRequest {
            groups: vec![(
                5,
                vec![(qr.clone(), NonceCoupon::generate(&mut rng).into())],
            )],
        })
        .to_wire(),
        Request::SyncThrough(SyncThroughRequest {
            sessions: rng.below(1 << 30),
        })
        .to_wire(),
        Request::IngestStats.to_wire(),
    ];
    let responses = vec![
        Response::CheckIn(CheckInResponse { ticket }).to_wire(),
        Response::CheckOutBatch(CheckOutBatchResponse { ticket: 7 }).to_wire(),
        Response::Print(PrintResponse {
            envelopes: vec![(envelope, commitment)],
        })
        .to_wire(),
        Response::SubmitEnvelopes(IngestReceipt { ticket: 9 }).to_wire(),
        Response::Sync.to_wire(),
        Response::LedgerHeads(LedgerHeads {
            registration: head.clone(),
            envelopes: head,
        })
        .to_wire(),
        Response::ActivationSweep.to_wire(),
        Response::Shutdown.to_wire(),
        Response::SubmitEnvelopesSeq(IngestReceipt { ticket: 11 }).to_wire(),
        Response::CheckOutBatchSeq(CheckOutBatchResponse { ticket: 12 }).to_wire(),
        Response::SyncThrough.to_wire(),
        Response::IngestStats(IngestStatsReply {
            env_batches: 8,
            env_sweeps: 2,
            reg_batches: 8,
            reg_sweeps: 2,
            worker_busy_us: 1_000,
            worker_idle_us: 9_000,
            wal_records: 16,
            wal_fsyncs: 2,
            workers: 4,
            wal_failures: 1,
        })
        .to_wire(),
        Response::Err(ServiceError::Trip(votegral::trip::TripError::NotEligible)).to_wire(),
        Response::Err(ServiceError::AuthFailed(
            "station transport key is not enrolled".into(),
        ))
        .to_wire(),
        Response::Err(ServiceError::HandshakeFailed(
            "client transcript signature invalid".into(),
        ))
        .to_wire(),
    ];
    (requests, responses)
}

/// Builds one plausible instance of every secure-channel handshake frame.
fn sample_handshake_frames(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = HmacDrbg::from_u64(seed);
    let key = SigningKey::generate(&mut rng);
    let client_eph = EphemeralKey::generate(&mut rng);
    let server_eph = EphemeralKey::generate(&mut rng);
    let sig = key.sign(b"transcript");
    let confirm = rng.bytes32();
    let mut sealed = vec![0u8; 48];
    rng.fill_bytes(&mut sealed);
    vec![
        HandshakeFrame::Init(HandshakeInit {
            eph: client_eph.public,
        })
        .to_wire(),
        HandshakeFrame::Reply(HandshakeReply {
            eph: server_eph.public,
            static_pk: key.public_key_compressed(),
            sig,
            confirm,
        })
        .to_wire(),
        HandshakeFrame::Fin(HandshakeFin {
            static_pk: key.public_key_compressed(),
            sig,
            confirm,
        })
        .to_wire(),
        HandshakeFrame::Record(SealedRecord { sealed }).to_wire(),
    ]
}

/// One commit QR and one response QR from a seed.
fn sample_receipt_qrs(seed: u64) -> (CommitQr, ResponseQr) {
    let mut rng = HmacDrbg::from_u64(seed ^ 0x9C);
    let kiosk = SigningKey::generate(&mut rng);
    let mut point = || votegral::crypto::EdwardsPoint::mul_base(&rng.scalar());
    let (c1, c2, a1, a2) = (point(), point(), point(), point());
    let commit = CommitQr {
        voter_id: VoterId(rng.below(1 << 20)),
        c_pc: votegral::crypto::elgamal::Ciphertext { c1, c2 },
        commit: Commitment { a1, a2 },
        kiosk_sig: kiosk.sign(b"commit"),
    };
    let response = ResponseQr {
        credential_sk: rng.scalar(),
        response: rng.scalar(),
        kiosk_pk: kiosk.public_key_compressed(),
        kiosk_sig: kiosk.sign(b"response"),
    };
    (commit, response)
}

/// Ledger heads plus per-credential identifying bytes of a run, in queue
/// order — the full bit-identity fingerprint.
fn run_fingerprint(
    system: &TripSystem,
    outcomes: &[RegistrationOutcome],
) -> (Vec<u8>, Vec<u8>, usize, Vec<Vec<u8>>) {
    let creds = outcomes
        .iter()
        .flat_map(|o| o.all_credentials())
        .map(|c| {
            let mut bytes = c.receipt.commit_qr.kiosk_sig.to_bytes().to_vec();
            bytes.extend_from_slice(&c.receipt.checkout_qr.kiosk_sig.to_bytes());
            bytes.extend_from_slice(&c.receipt.response_qr.credential_sk.to_bytes());
            bytes.extend_from_slice(&c.envelope.challenge.to_bytes());
            bytes.push(c.envelope.symbol.tag());
            bytes
        })
        .collect();
    (
        system.ledger.registration.tree_head().root.to_vec(),
        system.ledger.envelopes.tree_head().root.to_vec(),
        system.ledger.registration.active_count(),
        creds,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every service message round-trips the versioned codec exactly
    /// (byte-for-byte re-encoding equality).
    #[test]
    fn wire_messages_roundtrip(seed in any::<u64>()) {
        let (requests, responses) = sample_messages(seed);
        for bytes in &requests {
            let decoded = Request::from_wire(bytes).expect("request decodes");
            prop_assert_eq!(&decoded.to_wire(), bytes);
        }
        for bytes in &responses {
            let decoded = Response::from_wire(bytes).expect("response decodes");
            prop_assert_eq!(&decoded.to_wire(), bytes);
        }
        // The receipt QRs that travel on paper, not in a message.
        let (commit, response) = sample_receipt_qrs(seed);
        let bytes = commit.to_bytes();
        prop_assert_eq!(&CommitQr::from_bytes(&bytes).expect("commit QR decodes"), &commit);
        let bytes = response.to_bytes();
        prop_assert_eq!(&ResponseQr::from_bytes(&bytes).expect("response QR decodes"), &response);
    }

    /// Truncating any message anywhere, or corrupting its envelope, is
    /// detected — no partial decode ever succeeds silently.
    #[test]
    fn truncated_and_garbage_frames_rejected(seed in any::<u64>()) {
        let (requests, responses) = sample_messages(seed);
        for bytes in &requests {
            // Every strict prefix must fail to decode.
            for cut in 0..bytes.len() {
                prop_assert!(Request::from_wire(&bytes[..cut]).is_err(), "cut {cut}");
            }
            // Magic and version corruption rejected.
            let mut bad = bytes.clone();
            bad[0] ^= 0x01;
            prop_assert!(Request::from_wire(&bad).is_err());
            let mut bad = bytes.clone();
            bad[4] ^= 0x40;
            prop_assert!(Request::from_wire(&bad).is_err());
            // Trailing garbage rejected.
            let mut bad = bytes.clone();
            bad.push(0);
            prop_assert!(Request::from_wire(&bad).is_err());
        }
        for bytes in &responses {
            for cut in 0..bytes.len() {
                prop_assert!(Response::from_wire(&bytes[..cut]).is_err(), "cut {cut}");
            }
        }
        // Pure noise never decodes.
        let mut rng = HmacDrbg::from_u64(seed ^ 0xBAD);
        let mut noise = vec![0u8; 64];
        rng.fill_bytes(&mut noise);
        prop_assert!(Request::from_wire(&noise).is_err());
        prop_assert!(Response::from_wire(&noise).is_err());
    }

    /// Every secure-channel handshake frame (`Init`/`Reply`/`Fin`/
    /// `Record`) round-trips the versioned codec exactly, and the
    /// handshake tag range is disjoint from the request/response range —
    /// the disjointness is what lets a plaintext endpoint *detect* a
    /// secure peer (and vice versa) instead of misparsing it.
    #[test]
    fn handshake_frames_roundtrip_and_are_disjoint(seed in any::<u64>()) {
        for bytes in &sample_handshake_frames(seed) {
            let decoded = HandshakeFrame::from_wire(bytes).expect("handshake frame decodes");
            prop_assert_eq!(&decoded.to_wire(), bytes);
            prop_assert!(HandshakeFrame::is_channel_frame(bytes));
            prop_assert!(Request::from_wire(bytes).is_err());
            prop_assert!(Response::from_wire(bytes).is_err());
        }
        let (requests, responses) = sample_messages(seed);
        for bytes in requests.iter().chain(&responses) {
            prop_assert!(!HandshakeFrame::is_channel_frame(bytes));
            prop_assert!(HandshakeFrame::from_wire(bytes).is_err());
        }
    }

    /// Truncating a handshake frame anywhere is rejected — a mangled
    /// handshake can never decode into a shorter valid one.
    #[test]
    fn truncated_handshake_frames_rejected(seed in any::<u64>()) {
        for bytes in &sample_handshake_frames(seed) {
            for cut in 0..bytes.len() {
                prop_assert!(HandshakeFrame::from_wire(&bytes[..cut]).is_err(), "cut {cut}");
            }
            let mut bad = bytes.clone();
            bad.push(0);
            prop_assert!(HandshakeFrame::from_wire(&bad).is_err());
        }
    }

    /// The acceptance criterion: a registration day over every transport
    /// plan — plaintext or authenticated-encrypted, loopback TCP or
    /// in-process pipes — produces ledgers and credentials bit-identical
    /// to the in-process run and to the sequential seeded reference, for
    /// any fleet shape.
    #[test]
    fn tcp_day_equals_inprocess_and_sequential(
        seed64 in any::<u64>(),
        n_kiosks in 1usize..4,
        pool_batch in 1usize..6,
        threads in 1usize..4,
        fake_counts in proptest::collection::vec(0usize..3, 4),
    ) {
        let n_voters = fake_counts.len() as u64;
        let queue: Vec<(VoterId, usize)> = fake_counts
            .iter()
            .enumerate()
            .map(|(i, &f)| (VoterId(i as u64 + 1), f))
            .collect();
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&seed64.to_le_bytes());
        let fleet = KioskFleet::new(FleetConfig { pool_batch, threads, seed });

        // Sequential seeded reference.
        let mut rng = HmacDrbg::from_u64(seed64 ^ 0x5EC);
        let mut seq_system = TripSystem::setup(trip_config(n_voters, n_kiosks), &mut rng);
        let mut seq_outcomes = Vec::new();
        for (i, &(voter, fakes)) in queue.iter().enumerate() {
            seq_outcomes.push(
                register_voter_seeded(&mut seq_system, voter, fakes, &seed, i)
                    .expect("sequential reference"),
            );
        }
        let reference = run_fingerprint(&seq_system, &seq_outcomes);

        for transport in [
            TransportPlan::IN_PROCESS,
            TransportPlan::TCP,
            TransportPlan::SECURE_TCP,
            TransportPlan::SECURE_IN_PROCESS,
        ] {
            let mut rng = HmacDrbg::from_u64(seed64 ^ 0x5EC);
            let mut system = TripSystem::setup(trip_config(n_voters, n_kiosks), &mut rng);
            let mut outcomes = Vec::new();
            run_day(&fleet, &mut system, &queue, &day(transport, false), |o, _| outcomes.push(o))
                .expect("service day runs");
            prop_assert_eq!(
                &run_fingerprint(&system, &outcomes),
                &reference,
                "transport {:?}",
                transport
            );
        }
    }

    /// Per-window activation over both transports matches: same activated
    /// credential secrets in queue order, same reveal counts.
    #[test]
    fn activation_day_equivalent_across_transports(
        seed64 in any::<u64>(),
        threads in 1usize..3,
        fake_counts in proptest::collection::vec(0usize..2, 3),
    ) {
        let n_voters = fake_counts.len() as u64;
        let queue: Vec<(VoterId, usize)> = fake_counts
            .iter()
            .enumerate()
            .map(|(i, &f)| (VoterId(i as u64 + 1), f))
            .collect();
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&seed64.to_le_bytes());
        // pool_batch 2 forces multiple windows (and thus multiple ingest
        // flush barriers) for a 3-voter queue.
        let fleet = KioskFleet::new(FleetConfig { pool_batch: 2, threads, seed });

        let run = |transport: TransportPlan| {
            let mut rng = HmacDrbg::from_u64(seed64 ^ 0xAC7);
            let mut system = TripSystem::setup(trip_config(n_voters, 2), &mut rng);
            let mut secrets = Vec::new();
            run_day(&fleet, &mut system, &queue, &day(transport, true), |_, vsd| {
                secrets.extend(vsd.credentials.iter().map(|c| c.key.secret()));
            })
            .expect("activation day runs");
            (
                secrets,
                system.ledger.envelopes.revealed_count(),
                system.ledger.registration.tree_head().root,
            )
        };
        let reference = run(TransportPlan::IN_PROCESS);
        prop_assert_eq!(&run(TransportPlan::TCP), &reference);
        prop_assert_eq!(&run(TransportPlan::SECURE_TCP), &reference);
    }
}

/// The whole phase-typed election lifecycle — register, vote, tally,
/// verify — over the TCP transport (plaintext and secure), with heads
/// equal to the in-process run of the same seed. The `secure` knob run
/// also exercises the `From<LinkKind>` plan conversion.
#[test]
fn election_lifecycle_over_tcp_bit_identical() {
    let run = |transport: TransportPlan, secure: bool| {
        let mut rng = HmacDrbg::from_u64(404);
        let mut election = ElectionBuilder::new()
            .voters(4)
            .options(2)
            .kiosks(2)
            .threads(2)
            .transport(transport)
            .secure(secure)
            .build(&mut rng);
        let voters: Vec<VoterId> = (1..=4).map(VoterId).collect();
        let sessions = election
            .register_batch(&voters, &mut rng)
            .expect("registers");
        let reg_head = election.ledger().registration.tree_head().root;
        let env_head = election.ledger().envelopes.tree_head().root;
        let mut voting = election.open_voting();
        for (_, vsd) in &sessions {
            voting
                .cast(&vsd.credentials[0], 1, &mut rng)
                .expect("casts");
        }
        let tallying = voting.close();
        let transcript = tallying.tally(&mut rng).expect("tallies");
        tallying.verify(&transcript).expect("verifies");
        (reg_head, env_head, transcript.result)
    };
    let reference = run(TransportPlan::IN_PROCESS, false);
    assert_eq!(run(TransportPlan::TCP, false), reference);
    // The deployment posture: plain TCP link + the `secure` builder knob
    // (equivalent to `.transport(TransportPlan::SECURE_TCP)`).
    assert_eq!(run(LinkKind::Tcp.into(), true), reference);
}

/// A malicious kiosk hiding in the fleet is caught identically over TCP:
/// the loot, traces and ledger state cross the boundary unchanged.
#[test]
fn malicious_kiosk_detected_over_tcp() {
    let run = |transport: TransportPlan| {
        let mut rng = HmacDrbg::from_u64(77);
        let mut system = TripSystem::setup_with_behavior(
            trip_config(3, 2),
            votegral::trip::kiosk::KioskBehavior::StealsRealCredential,
            &mut rng,
        );
        let queue: Vec<(VoterId, usize)> = (1..=3).map(|v| (VoterId(v), 1)).collect();
        let fleet = KioskFleet::new(FleetConfig::seeded([9u8; 32]));
        let mut honest_traces = Vec::new();
        run_day(
            &fleet,
            &mut system,
            &queue,
            &day(transport, true),
            |outcome, vsd| {
                honest_traces.push((
                    votegral::trip::protocol::trace_shows_honest_real_flow(&outcome.events),
                    vsd.credentials.len(),
                ));
            },
        )
        .expect("day runs");
        let looted: Vec<u64> = system.adversary_loot.iter().map(|s| s.voter_id.0).collect();
        (honest_traces, looted)
    };
    let (traces, looted) = run(TransportPlan::TCP);
    assert_eq!(
        run(TransportPlan::IN_PROCESS),
        (traces.clone(), looted.clone())
    );
    assert_eq!(
        run(TransportPlan::SECURE_TCP),
        (traces.clone(), looted.clone())
    );
    // Every session was served by a stealing kiosk: dishonest traces,
    // but the forged credentials still activate (Fig 11 cannot tell).
    assert!(traces.iter().all(|&(honest, creds)| !honest && creds == 2));
    assert_eq!(looted, vec![1, 2, 3]);
}

/// Typed domain errors survive the socket: an ineligible voter's
/// check-in fails with the same `TripError` over plaintext AND secure
/// TCP as locally — the sealed-record layer carries errors unchanged.
#[test]
fn typed_errors_cross_the_wire() {
    let run = |transport: TransportPlan| {
        let mut rng = HmacDrbg::from_u64(31);
        let mut system = TripSystem::setup(trip_config(2, 1), &mut rng);
        let fleet = KioskFleet::new(FleetConfig::seeded([3u8; 32]));
        // Voter 99 is not on the roster.
        run_day(
            &fleet,
            &mut system,
            &[(VoterId(1), 0), (VoterId(99), 0)],
            &day(transport, false),
            |_, _| {},
        )
    };
    let local = run(TransportPlan::IN_PROCESS);
    let remote = run(TransportPlan::TCP);
    let secure = run(TransportPlan::SECURE_TCP);
    assert_eq!(local, Err(votegral::trip::TripError::NotEligible));
    assert_eq!(remote, Err(votegral::trip::TripError::NotEligible));
    assert_eq!(secure, Err(votegral::trip::TripError::NotEligible));
}

/// A rogue station whose transport key is NOT in the deployment's
/// enrolled registry is rejected by the secure registrar with a typed
/// [`ServiceError::AuthFailed`] — observed on *both* sides of the real
/// TCP socket, never as a hang or a bare EOF.
#[test]
fn unenrolled_station_rejected_over_real_tcp() {
    let mut rng = HmacDrbg::from_u64(66);
    let system = TripSystem::setup(trip_config(1, 2), &mut rng);
    let keys = &system.transport_keys;
    let server_cfg = SecureConfig {
        local: keys.registrar.clone(),
        registrar: keys.registrar_pk,
        enrolled: Arc::new(keys.station_registry.clone()),
    };
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        TcpChannelListener::new(listener, ChannelPolicy::Secure(server_cfg)).accept()
    });
    let rogue = SigningKey::generate(&mut rng);
    let connector = TcpConnector {
        addr,
        policy: ChannelPolicy::Secure(SecureConfig {
            local: rogue,
            registrar: keys.registrar_pk,
            enrolled: Arc::new(Vec::new()),
        }),
        deadlines: Deadlines::default(),
    };
    let client = connector.connect();
    assert!(
        matches!(server.join().unwrap(), Err(ServiceError::AuthFailed(_))),
        "the registrar must reject the unenrolled station key"
    );
    // The client's handshake completes optimistically when `Fin` is
    // sent; the typed rejection arrives on first use of the channel.
    let mut client = client.expect("client side establishes optimistically");
    assert!(matches!(
        client.recv_frame(),
        Err(ServiceError::AuthFailed(_))
    ));
}

/// The sealed-record layer under adversarial delivery: replaying,
/// reordering, truncating or bit-flipping an encrypted record is
/// rejected typed (MAC or implicit sequence-number failure), never
/// delivered as plaintext.
#[test]
fn sealed_records_reject_replay_reorder_and_tampering() {
    let keys = DirectionKeys {
        enc: [7u8; 32],
        mac: [9u8; 32],
    };
    let mut tx = FrameSealer::new(keys.clone());
    let first = tx.seal(b"first frame");
    let second = tx.seal(b"second frame");

    // Honest delivery opens in order.
    let mut rx = FrameSealer::new(keys.clone());
    assert_eq!(rx.open(&first).unwrap(), b"first frame");
    // Replay of an already-opened record fails (sequence moved on).
    assert!(rx.open(&first).is_err(), "replay must be rejected");
    assert_eq!(rx.open(&second).unwrap(), b"second frame");

    // Reorder: delivering the second record first fails.
    let mut rx = FrameSealer::new(keys.clone());
    assert!(rx.open(&second).is_err(), "reorder must be rejected");

    // Truncation and bit-flips break the MAC.
    let mut rx = FrameSealer::new(keys.clone());
    assert!(rx.open(&first[..first.len() - 1]).is_err());
    let mut rx = FrameSealer::new(keys);
    let mut flipped = first.clone();
    flipped[0] ^= 1;
    assert!(rx.open(&flipped).is_err(), "bit-flip must be rejected");
}
