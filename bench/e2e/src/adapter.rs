//! The only file that calls into the workspace.
//!
//! Everything else in the benchmark sees the program through the types
//! defined here, so an API change in the workspace is a one-file change
//! in the benchmark. The end-to-end section binds only to
//! `ElectionBuilder`, the `Election<…>` phase methods and the `Ledger`
//! head and `durability_stats()` accessors; the re-enactment and probe
//! sections bind to the leaf functions those phases call.

use std::hint::black_box;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

// What the end-to-end section binds to.
use votegral::crypto::schnorr::SigningKey;
use votegral::crypto::sha2::sha256;
use votegral::crypto::HmacDrbg;
use votegral::ledger::{LedgerBackend, TreeHead, VoterId};
use votegral::service::{IngestMode, TransportPlan};
use votegral::sim::FakeCredentialDist;
use votegral::trip::protocol::RegistrationOutcome;
use votegral::trip::vsd::Vsd;
use votegral::votegral::{
    Election, ElectionBuilder, Registration, TallyTranscript, Tallying, Voting,
};

// What the re-enactment and the probes bind to.
use votegral::crypto::batch::{small_weight, BatchVerifier};
use votegral::crypto::channel::{DirectionKeys, FrameSealer};
use votegral::crypto::chaum_pedersen::{
    forge_transcript, verify_transcript, DlEqStatement, Prover,
};
use votegral::crypto::dkg::{combine_shares, DecryptionShare};
use votegral::crypto::elgamal::{encrypt_point, Ciphertext};
use votegral::crypto::field::FieldElement;
use votegral::crypto::par::{default_threads, par_map};
use votegral::crypto::schnorr::{batch_verify, NonceCoupon};
use votegral::crypto::{multiscalar_mul, EdwardsPoint, Rng, Scalar};
use votegral::ledger::{
    EnvelopeCommitment, EnvelopeLedger, Ledger, RegistrationLedger, RegistrationRecord,
    TamperEvidentLog,
};
use votegral::service::messages::{CheckOutBatchRequest, Request, WireCoupon};
use votegral::service::{
    pipe_pair, ChannelPolicy, Connector, Deadlines, FramedChannel, Listener, SecureConfig,
    TcpChannel, TcpChannelListener, TcpConnector,
};
use votegral::shuffle::{MixCascade, ShuffleContext};
use votegral::trip::materials::{CheckOutQr, PaperCredential, Symbol};
use votegral::trip::protocol::register_voter_seeded;
use votegral::trip::setup::{TripConfig, TripSystem};
use votegral::trip::vsd::{
    activate_batch, activate_batch_checks, activate_client_checks, activation_ledger_phase,
    ActivationClaim,
};
use votegral::trip::{FleetConfig, KioskFleet};
use votegral::votegral::ballot::{build_ballot_record, cast_ballots, verify_vote_proof, Ballot};
use votegral::votegral::tagging::{apply_cascade, verify_cascade, TaggingKey};
use votegral::votegral::tally::{
    admit_ballots, count_votes, match_tags, registration_inputs, VectorOpening,
};
use votegral::votegral::verifier::PublicAuthority;

use crate::trace::Tracer;

/// Sessions the fleet precomputes, admits and activates per window (fixed
/// inside `Election`); the pipelined shape sizes its activation lag from it.
const POOL_WINDOW: usize = 256;

/// Ballot options of every benchmark election.
pub const OPTIONS: u32 = 3;

/// Probability of `k` fake credentials under the paper's default voter
/// behaviour, for `k` in `0..=max`.
pub fn fake_credential_pmf() -> Vec<f64> {
    let dist = FakeCredentialDist::default();
    (0..=dist.max).map(|k| dist.pmf(k)).collect()
}

// ---------------------------------------------------------------------
// End to end: ElectionBuilder and the phase-typed sessions
// ---------------------------------------------------------------------

/// Which registration-day engine the builder selects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Builder defaults: one station, lock-step windows.
    Barrier,
    /// Two stations, two ingest workers, background refiller and ingest,
    /// one activation barrier per station.
    Pipelined,
}

/// What the registration services run over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Link {
    InProcess,
    Tcp,
    SecureTcp,
}

/// Where the ledgers live.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Storage {
    Memory,
    Durable { dir: PathBuf, fsync: bool },
}

/// One election deployment, as `ElectionBuilder` settings.
#[derive(Clone, Debug)]
pub struct Deployment {
    pub voters: u64,
    pub kiosks: usize,
    pub engine: Engine,
    pub link: Link,
    pub storage: Storage,
}

impl Deployment {
    fn builder(&self) -> ElectionBuilder {
        let mut b = ElectionBuilder::new()
            .voters(self.voters)
            .kiosks(self.kiosks)
            .options(OPTIONS)
            .threads(1);
        if self.engine == Engine::Pipelined {
            let stations = 2;
            let windows_per_station = (self.voters as usize)
                .div_ceil(stations)
                .div_ceil(POOL_WINDOW)
                .max(1);
            b = b
                .stations(stations)
                .ingest_workers(2)
                .ingest(IngestMode::Background)
                .low_water(512)
                .activation_lag(windows_per_station);
        }
        b = b.transport(match self.link {
            Link::InProcess => TransportPlan::IN_PROCESS,
            Link::Tcp => TransportPlan::TCP,
            Link::SecureTcp => TransportPlan::SECURE_TCP,
        });
        if let Storage::Durable { dir, fsync } = &self.storage {
            b = b.backend(LedgerBackend::Durable {
                dir: dir.clone(),
                fsync: *fsync,
            });
        }
        b
    }
}

/// The program's randomness for `seed`. It depends on the seed alone, so
/// the same queue over two deployments must reach the same ledger heads.
fn program_rng(seed: u64) -> HmacDrbg {
    let mut label = b"vg-e2e/program/".to_vec();
    label.extend_from_slice(&seed.to_le_bytes());
    HmacDrbg::new(&label)
}

/// One signed tree head as the benchmark compares it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Head {
    pub size: u64,
    pub root: [u8; 32],
    pub signature: [u8; 64],
}

impl From<&TreeHead> for Head {
    fn from(h: &TreeHead) -> Self {
        Head {
            size: h.size,
            root: h.root,
            signature: h.signature.to_bytes(),
        }
    }
}

/// The signed L_R and L_E heads of a registration day.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Heads {
    pub registration: Head,
    pub envelopes: Head,
    /// Both operator signatures verify.
    pub signatures_ok: bool,
}

impl Heads {
    /// SHA-256 over both heads (sizes, roots and signatures), in hex.
    pub fn digest(&self) -> String {
        let mut buf = Vec::with_capacity(2 * (8 + 32 + 64));
        for h in [&self.registration, &self.envelopes] {
            buf.extend_from_slice(&h.size.to_le_bytes());
            buf.extend_from_slice(&h.root);
            buf.extend_from_slice(&h.signature);
        }
        sha256(&buf).iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// WAL counters of all three sub-ledgers since this process opened them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalCounters {
    pub records: u64,
    pub fsyncs: u64,
}

/// One voter's registration session: the paper credentials and the
/// device they were activated on.
pub struct Device {
    outcome: RegistrationOutcome,
    vsd: Vsd,
}

impl Device {
    /// Activated credentials (the real one first).
    pub fn credentials(&self) -> usize {
        self.vsd.credentials.len()
    }
}

/// An election in its registration phase.
pub struct Registering {
    election: Election<Registration>,
    rng: HmacDrbg,
    seed: u64,
}

/// Runs TRIP setup for `deployment` (on a durable directory that already
/// holds a day, this replays it).
pub fn build(deployment: &Deployment, seed: u64) -> Registering {
    let mut rng = program_rng(seed);
    let election = deployment.builder().build(&mut rng);
    Registering {
        election,
        rng,
        seed,
    }
}

impl Registering {
    /// Registers and activates the whole queue through the deployment's
    /// day engine, then passes the durable commit barrier.
    pub fn register_day(&mut self, queue: &[(u64, usize)]) -> Result<Vec<Device>, String> {
        let plan: Vec<(VoterId, usize)> = queue.iter().map(|&(v, f)| (VoterId(v), f)).collect();
        let mut devices = Vec::with_capacity(plan.len());
        self.election
            .register_and_activate_each(&plan, &mut self.rng, |outcome, vsd| {
                devices.push(Device { outcome, vsd })
            })
            .map_err(|e| e.to_string())?;
        self.election.persist_ledgers().map_err(|e| e.to_string())?;
        Ok(devices)
    }

    /// One booth session: a single voter registers and activates.
    pub fn register_one(&mut self, voter: u64, fakes: usize) -> Result<Device, String> {
        self.election
            .register_and_activate(VoterId(voter), fakes, &mut self.rng)
            .map(|(outcome, vsd)| Device { outcome, vsd })
            .map_err(|e| e.to_string())
    }

    /// The current signed L_R and L_E heads.
    ///
    /// L_E exposes no operator key, so both keys are re-derived the way
    /// `Ledger::with_backend` documents it draws them (first from the
    /// setup randomness, registration before envelopes); the L_R key is
    /// checked against the ledger's accessor, which catches a change in
    /// that order.
    pub fn heads(&self) -> Heads {
        let ledger = self.election.ledger();
        let registration = ledger.registration.tree_head();
        let envelopes = ledger.envelopes.tree_head();
        let mut replay = program_rng(self.seed);
        let reg_key = SigningKey::generate(&mut replay).verifying_key();
        let env_key = SigningKey::generate(&mut replay).verifying_key();
        let signatures_ok = reg_key.compress() == ledger.registration.operator_key().compress()
            && registration.verify(&reg_key).is_ok()
            && envelopes.verify(&env_key).is_ok();
        Heads {
            registration: Head::from(&registration),
            envelopes: Head::from(&envelopes),
            signatures_ok,
        }
    }

    pub fn wal_counters(&self) -> WalCounters {
        let s = self.election.ledger().durability_stats();
        WalCounters {
            records: s.wal_records,
            fsyncs: s.wal_fsyncs,
        }
    }

    pub fn open_voting(self) -> Casting {
        Casting {
            election: self.election.open_voting(),
            rng: self.rng,
        }
    }
}

/// One ballot to cast: credential `credential` of `devices[device]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pick {
    pub device: usize,
    pub credential: usize,
    pub vote: u32,
}

/// An election in its voting phase.
pub struct Casting {
    election: Election<Voting>,
    rng: HmacDrbg,
}

impl Casting {
    pub fn cast_one(&mut self, devices: &[Device], pick: Pick) -> Result<(), String> {
        let credential = &devices[pick.device].vsd.credentials[pick.credential];
        self.election
            .cast(credential, pick.vote, &mut self.rng)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    pub fn cast_batch(&mut self, devices: &[Device], picks: &[Pick]) -> Result<(), String> {
        let wave: Vec<_> = picks
            .iter()
            .map(|p| (&devices[p.device].vsd.credentials[p.credential], p.vote))
            .collect();
        self.election
            .cast_batch(&wave, &mut self.rng)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    pub fn ballots_on_ledger(&self) -> usize {
        self.election.ledger().ballots.len()
    }

    pub fn close(self) -> Counting {
        Counting {
            election: self.election.close(),
            rng: self.rng,
        }
    }
}

/// What a tally or a verification claims.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub counts: Vec<u64>,
    pub counted: usize,
    pub unmatched: usize,
}

/// The public evidence of one tally.
pub struct Transcript {
    inner: TallyTranscript,
}

impl Transcript {
    pub fn outcome(&self) -> Outcome {
        Outcome {
            counts: self.inner.result.counts.clone(),
            counted: self.inner.result.counted,
            unmatched: self.inner.result.unmatched,
        }
    }

    pub fn superseded(&self) -> usize {
        self.inner.superseded
    }

    pub fn rejected(&self) -> usize {
        self.inner.rejected
    }
}

/// An election in its tally phase.
pub struct Counting {
    election: Election<Tallying>,
    rng: HmacDrbg,
}

impl Counting {
    pub fn tally(&mut self) -> Result<Transcript, String> {
        self.election
            .tally(&mut self.rng)
            .map(|inner| Transcript { inner })
            .map_err(|e| e.to_string())
    }

    pub fn verify(&self, transcript: &Transcript) -> Result<Outcome, String> {
        self.election
            .verify(&transcript.inner)
            .map(|r| Outcome {
                counts: r.counts,
                counted: r.counted,
                unmatched: r.unmatched,
            })
            .map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------
// Re-enactment: the opaque phases stage by stage, for the traced run
// ---------------------------------------------------------------------
//
// The end-to-end call is one opaque method per phase, so the traced run
// repeats each phase through the public functions the engines call, on
// the same inputs, with a span around every call into a layer.

impl Device {
    fn paper(&self) -> impl Iterator<Item = &PaperCredential> {
        std::iter::once(&self.outcome.believed_real).chain(self.outcome.fakes.iter())
    }
}

/// Threshold-opens `cts` the way the tally does: the first `t` members
/// each contribute a share, then the shares are combined.
fn open_vector(
    t: &mut Tracer,
    authority: &votegral::crypto::dkg::Authority,
    cts: &[Ciphertext],
    rng: &mut dyn Rng,
) -> Result<VectorOpening, String> {
    let mut shares = Vec::with_capacity(cts.len());
    let mut plaintexts = Vec::with_capacity(cts.len());
    for ct in cts {
        let item: Vec<DecryptionShare> = authority.members[..authority.t]
            .iter()
            .map(|m| {
                t.span("vg-crypto.dkg.decryption_share", |_| {
                    m.decryption_share(ct, rng)
                })
            })
            .collect();
        let plain = t
            .span("vg-crypto.dkg.combine_shares", |_| {
                combine_shares(ct, &item, authority.t)
            })
            .map_err(|e| e.to_string())?;
        shares.push(item);
        plaintexts.push(plain);
    }
    Ok(VectorOpening { shares, plaintexts })
}

/// Checks an opening the way the verifier does: every share against its
/// member's key, then the recombination, fanned out over the host's cores.
fn check_opening(
    t: &mut Tracer,
    opening: &VectorOpening,
    cts: &[Ciphertext],
    authority: &PublicAuthority,
) -> bool {
    t.span("vg-crypto.dkg.verify_shares", |_| {
        let items: Vec<(usize, &Ciphertext)> = cts.iter().enumerate().collect();
        opening.shares.len() == cts.len()
            && par_map(&items, default_threads(), |&(i, ct)| {
                let shares = &opening.shares[i];
                shares.len() >= authority.threshold
                    && shares.iter().all(|s| {
                        authority
                            .member_vks
                            .get((s.member_index as usize).wrapping_sub(1))
                            .is_some_and(|vk| s.verify(vk, ct).is_ok())
                    })
                    && combine_shares(ct, shares, authority.threshold)
                        .is_ok_and(|p| p == opening.plaintexts[i])
            })
            .into_iter()
            .all(|ok| ok)
    })
}

impl Counting {
    /// The tally, stage by stage (Fig 3 "Tally"): admission, both mixes,
    /// both tagging cascades, the three openings, matching and counting.
    pub fn reenact_tally(&mut self, t: &mut Tracer) -> Result<Outcome, String> {
        let trip = &self.election.trip;
        let (authority, ledger) = (&trip.authority, &trip.ledger);
        let apk = authority.public_key;
        let config = self.election.vote_config;
        let rng = &mut self.rng;

        let (accepted, _, _) = t.span("vg-votegral.tally.admit_ballots", |_| {
            admit_ballots(ledger, config, &apk, &trip.kiosk_registry)
        });
        let pairs: Vec<(Ciphertext, Ciphertext)> = accepted
            .iter()
            .map(|ab| {
                let key = ab
                    .credential_pk
                    .decompress()
                    .ok_or("admitted key does not decompress")?;
                Ok((
                    ab.ballot.vote_ct,
                    Ciphertext {
                        c1: EdwardsPoint::IDENTITY,
                        c2: key,
                    },
                ))
            })
            .collect::<Result<_, String>>()?;
        let regs = registration_inputs(ledger);
        if pairs.len() < 2 || regs.len() < 2 {
            return Err("re-enactment needs at least two ballots and two registrations".into());
        }

        let cascade = MixCascade::new(pairs.len().max(regs.len()), self.election.mixers);
        let ballot_mix = t.span("vg-shuffle.mixnet.mix_pairs", |_| {
            cascade.mix_pairs(&apk, &pairs, rng)
        });
        let reg_mix = t.span("vg-shuffle.mixnet.mix", |_| cascade.mix(&apk, &regs, rng));

        let keys: Vec<TaggingKey> = (0..authority.n)
            .map(|_| TaggingKey::generate(rng))
            .collect();
        let mixed_keys: Vec<Ciphertext> = ballot_mix.outputs().iter().map(|p| p.1).collect();
        let reg_tagging = t.span("vg-votegral.tagging.apply_cascade", |_| {
            apply_cascade(&keys, reg_mix.outputs(), rng)
        });
        let key_tagging = t.span("vg-votegral.tagging.apply_cascade", |_| {
            apply_cascade(&keys, &mixed_keys, rng)
        });
        let last = |rounds: &[votegral::votegral::tagging::TaggingRound]| {
            rounds
                .last()
                .map(|r| r.outputs.clone())
                .ok_or("empty tagging cascade")
        };

        let reg_opening = t.span("open_vector", |t| {
            open_vector(t, authority, &last(&reg_tagging)?, rng)
        })?;
        let key_opening = t.span("open_vector", |t| {
            open_vector(t, authority, &last(&key_tagging)?, rng)
        })?;
        let matched = t.span("vg-votegral.tally.match_tags", |_| {
            match_tags(&reg_opening.plaintexts, &key_opening.plaintexts)
        });
        let votes: Vec<Ciphertext> = matched.iter().map(|&i| ballot_mix.outputs()[i].0).collect();
        let vote_opening = t.span("open_vector", |t| open_vector(t, authority, &votes, rng))?;
        let result = t.span("vg-votegral.tally.count_votes", |_| {
            count_votes(
                config,
                &vote_opening.plaintexts,
                ballot_mix.outputs().len(),
                matched.len(),
            )
        });
        Ok(Outcome {
            counts: result.counts,
            counted: result.counted,
            unmatched: result.unmatched,
        })
    }

    /// Universal verification of `transcript`, stage by stage.
    pub fn reenact_verify(
        &self,
        t: &mut Tracer,
        transcript: &Transcript,
    ) -> Result<Outcome, String> {
        let tr = &transcript.inner;
        let trip = &self.election.trip;
        let authority = PublicAuthority::of(&trip.authority);
        let apk = authority.public_key;
        let threads = default_threads();

        let (accepted, rejected, superseded) = t.span("vg-votegral.tally.admit_ballots", |_| {
            admit_ballots(&trip.ledger, tr.config, &apk, &trip.kiosk_registry)
        });
        if accepted.len() != tr.accepted.len()
            || rejected != tr.rejected
            || superseded != tr.superseded
        {
            return Err("admission differs from the transcript".into());
        }
        let cascade = MixCascade::new(
            tr.ballot_pair_inputs.len().max(tr.reg_inputs.len()),
            self.election.mixers,
        );
        t.span("vg-shuffle.mixnet.verify_pairs_batch", |_| {
            cascade
                .verify_pairs_batch(&apk, &tr.ballot_mix, threads)
                .map(|_| ())
        })
        .map_err(|e| format!("ballot mix: {e}"))?;
        t.span("vg-shuffle.mixnet.verify_batch", |_| {
            cascade.verify_batch(&apk, &tr.reg_mix, threads).map(|_| ())
        })
        .map_err(|e| format!("registration mix: {e}"))?;

        let mixed_keys: Vec<Ciphertext> = tr.ballot_mix.outputs().iter().map(|p| p.1).collect();
        let tagged_regs = t
            .span("vg-votegral.tagging.verify_cascade", |_| {
                verify_cascade(tr.reg_mix.outputs(), &tr.reg_tagging, &tr.tag_commitments)
            })
            .map_err(|e| format!("registration tagging: {e}"))?;
        let tagged_keys = t
            .span("vg-votegral.tagging.verify_cascade", |_| {
                verify_cascade(&mixed_keys, &tr.ballot_tagging, &tr.tag_commitments)
            })
            .map_err(|e| format!("ballot tagging: {e}"))?;

        if !check_opening(t, &tr.reg_opening, tagged_regs, &authority)
            || !check_opening(t, &tr.key_opening, tagged_keys, &authority)
        {
            return Err("a tag opening does not verify".into());
        }
        let matched = t.span("vg-votegral.tally.match_tags", |_| {
            match_tags(&tr.reg_opening.plaintexts, &tr.key_opening.plaintexts)
        });
        let votes: Vec<Ciphertext> = matched
            .iter()
            .map(|&i| tr.ballot_mix.outputs()[i].0)
            .collect();
        if !check_opening(t, &tr.vote_opening, &votes, &authority) {
            return Err("the vote opening does not verify".into());
        }
        let result = t.span("vg-votegral.tally.count_votes", |_| {
            count_votes(
                tr.config,
                &tr.vote_opening.plaintexts,
                tr.ballot_mix.outputs().len(),
                matched.len(),
            )
        });
        Ok(Outcome {
            counts: result.counts,
            counted: result.counted,
            unmatched: result.unmatched,
        })
    }
}

impl Registering {
    /// A registration day's registrar-side and device-side work, stage by
    /// stage, on the credentials `devices` that an opaque day over the
    /// same seed and queue produced. `self` must be a fresh in-memory
    /// election of the same seed, voters and kiosks: it has the same keys,
    /// and its ledgers take the re-enacted admission.
    ///
    /// What no public function reaches — the hash-only booth ceremonies,
    /// check-in tickets, queueing and the transport — is the residual of
    /// the coverage this feeds.
    pub fn reenact_regday(
        &mut self,
        t: &mut Tracer,
        queue: &[(u64, usize)],
        devices: &[Device],
    ) -> Result<(), String> {
        let system = &mut self.election.trip;
        let plan: Vec<(VoterId, usize)> = queue.iter().map(|&(v, f)| (VoterId(v), f)).collect();
        let threads = 1;

        // Ceremony derivation with its printing and self-check.
        let fleet = KioskFleet::new(FleetConfig::seeded(self.rng.bytes32()));
        t.span("vg-trip.pool.derive", |_| {
            let mut pool = fleet.prepare_pool(system, &plan);
            pool.warm(&system.printers[0])
        })
        .map_err(|e| e.to_string())?;

        for window in devices.chunks(POOL_WINDOW) {
            let paper: Vec<&PaperCredential> = window.iter().flat_map(Device::paper).collect();
            // The printer's half of a refill; its output is also the only
            // way to the commitments L_E holds for these envelopes.
            let commitments: Vec<EnvelopeCommitment> =
                t.span("vg-trip.printer.print_detached", |_| {
                    paper
                        .iter()
                        .map(|c| {
                            system.printers[0]
                                .print_detached(c.envelope.challenge, c.envelope.symbol)
                                .1
                        })
                        .collect()
                });
            let coupons = NonceCoupon::batch(window.len(), &mut self.rng);
            let checkouts: Vec<(CheckOutQr, NonceCoupon)> = window
                .iter()
                .map(|d| d.outcome.believed_real.receipt.checkout_qr.clone())
                .zip(coupons)
                .collect();

            t.span("vg-trip.official.verify_checkouts", |_| {
                system.officials[0].verify_checkouts(&checkouts, &system.kiosk_registry, threads)
            })
            .map_err(|e| e.to_string())?;
            let records = t.span("vg-trip.official.countersign_checkouts", |_| {
                system.officials[0].countersign_checkouts(checkouts)
            });
            t.span("vg-ledger.ledger.env_verify_batch", |_| {
                EnvelopeLedger::verify_batch(&commitments, threads)
            })
            .map_err(|e| e.to_string())?;
            t.span("vg-ledger.ledger.reg_verify_batch", |_| {
                RegistrationLedger::verify_batch(&records, threads)
            })
            .map_err(|e| e.to_string())?;
            t.span("vg-ledger.ledger.commit_batch_preverified", |_| {
                system
                    .ledger
                    .envelopes
                    .commit_batch_preverified(commitments, threads)
            })
            .map_err(|e| e.to_string())?;
            t.span("vg-ledger.ledger.post_batch_preverified", |_| {
                system
                    .ledger
                    .registration
                    .post_batch_preverified(records, threads)
            })
            .map_err(|e| e.to_string())?;

            let views = t
                .span("vg-trip.vsd.activate_batch_checks", |_| {
                    activate_batch_checks(
                        &paper,
                        &system.authority.public_key,
                        &system.printer_registry,
                        threads,
                    )
                    .map(|(views, _keys)| views)
                })
                .map_err(|e| e.to_string())?;
            t.span("vg-trip.vsd.activation_ledger_phase", |_| {
                views.iter().try_for_each(|v| {
                    activation_ledger_phase(&mut system.ledger, &ActivationClaim::of(v))
                })
            })
            .map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Probes: one timed call into one layer
// ---------------------------------------------------------------------

/// A micro probe. `sample` makes one timed batch of calls and returns the
/// metric's value for it, in the metric's unit — or, for a probe that
/// `counts`, what a public accessor reports.
pub struct Probe {
    pub name: &'static str,
    pub counts: bool,
    pub sample: Box<dyn FnMut() -> f64>,
}

fn probe(name: &'static str, sample: impl FnMut() -> f64 + 'static) -> Probe {
    Probe {
        name,
        counts: false,
        sample: Box::new(sample),
    }
}

fn count(name: &'static str, sample: impl FnMut() -> f64 + 'static) -> Probe {
    Probe {
        counts: true,
        ..probe(name, sample)
    }
}

/// Seconds `f` took.
fn secs<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

/// Nanoseconds per iteration of `iters` calls of `f`.
fn ns_per(iters: usize, mut f: impl FnMut()) -> f64 {
    secs(|| (0..iters).for_each(|_| f())) * 1e9 / iters as f64
}

/// Microseconds per iteration of `iters` calls of `f`.
fn us_per(iters: usize, f: impl FnMut()) -> f64 {
    ns_per(iters, f) / 1e3
}

/// States cut from the workloads for the probes: a closed election with
/// its tally transcript, and the sessions of a registration day.
pub struct Fixture {
    seed: u64,
    counting: Counting,
    transcript: Transcript,
    voters: Vec<Device>,
    day: Registering,
    day_sessions: Vec<Device>,
}

impl Fixture {
    /// `counting` with the `transcript` of its tally and the `voters` who
    /// cast its ballots; `day` after registering `day_sessions`.
    pub fn new(
        seed: u64,
        counting: Counting,
        transcript: Transcript,
        voters: Vec<Device>,
        day: Registering,
        day_sessions: Vec<Device>,
    ) -> Rc<Fixture> {
        Rc::new(Fixture {
            seed,
            counting,
            transcript,
            voters,
            day,
            day_sessions,
        })
    }

    fn rng(&self, label: &str) -> HmacDrbg {
        let mut l = format!("vg-e2e/probe/{label}/").into_bytes();
        l.extend_from_slice(&self.seed.to_le_bytes());
        HmacDrbg::new(&l)
    }

    fn trip(&self) -> &TripSystem {
        &self.counting.election.trip
    }

    /// The first `n` registration records of the day, repeated if short.
    fn reg_records(&self, n: usize) -> Vec<RegistrationRecord> {
        let records = self.day.election.ledger().registration.records();
        records.iter().cycle().take(n).cloned().collect()
    }

    fn checkouts(&self, n: usize, rng: &mut dyn Rng) -> Vec<(CheckOutQr, NonceCoupon)> {
        self.day_sessions
            .iter()
            .cycle()
            .take(n)
            .map(|d| d.outcome.believed_real.receipt.checkout_qr.clone())
            .zip(NonceCoupon::batch(n, rng))
            .collect()
    }
}

/// A fresh deployment for the probes that consume one per sample.
fn fresh_system(voters: u64, seed: u64) -> TripSystem {
    let config = TripConfig {
        n_voters: voters,
        n_kiosks: 4,
        ..TripConfig::default()
    };
    TripSystem::setup(config, &mut program_rng(seed))
}

fn plan(voters: std::ops::RangeInclusive<u64>) -> Vec<(VoterId, usize)> {
    voters
        .map(|v| (VoterId(v), (v % 3 == 0) as usize))
        .collect()
}

fn crypto_probes(fx: &Rc<Fixture>, out: &mut Vec<Probe>) {
    let mut rng = fx.rng("crypto");
    let field = |rng: &mut HmacDrbg| FieldElement::from_bytes(&rng.bytes32());
    let point = |rng: &mut HmacDrbg| EdwardsPoint::mul_base(&rng.scalar());

    let (mut a, b) = (field(&mut rng), field(&mut rng));
    out.push(probe("vg-crypto.field.mul_ns", move || {
        ns_per(20_000, || a = black_box(a) * b)
    }));
    let mut a = field(&mut rng);
    out.push(probe("vg-crypto.field.invert_ns", move || {
        ns_per(200, || a = black_box(a).invert())
    }));
    let (mut x, y) = (rng.scalar(), rng.scalar());
    out.push(probe("vg-crypto.scalar.mul_ns", move || {
        ns_per(20_000, || x = black_box(x) * y)
    }));
    let mut x = rng.scalar();
    out.push(probe("vg-crypto.scalar.invert_ns", move || {
        ns_per(100, || x = black_box(x).invert())
    }));
    let (mut p, q) = (point(&mut rng), point(&mut rng));
    out.push(probe("vg-crypto.edwards.add_ns", move || {
        ns_per(5_000, || p = black_box(p) + q)
    }));
    let mut p = point(&mut rng);
    out.push(probe("vg-crypto.edwards.double_ns", move || {
        ns_per(5_000, || p = black_box(p).double())
    }));
    let mut s = rng.scalar();
    out.push(probe("vg-crypto.edwards.mul_base_us", move || {
        us_per(40, || {
            s += Scalar::ONE;
            black_box(EdwardsPoint::mul_base(&s));
        })
    }));
    let (p, mut s) = (point(&mut rng), rng.scalar());
    out.push(probe("vg-crypto.edwards.mul_var_us", move || {
        us_per(20, || {
            s += Scalar::ONE;
            black_box(black_box(p) * s);
        })
    }));

    let points: Vec<EdwardsPoint> = (0..4096).map(|_| point(&mut rng)).collect();
    let scalars: Vec<Scalar> = (0..4096).map(|_| rng.scalar()).collect();
    let pts = points[..256].to_vec();
    out.push(probe("vg-crypto.edwards.compress_ns", move || {
        let mut i = 0;
        ns_per(256, || {
            black_box(pts[i].compress());
            i += 1;
        })
    }));
    let compressed: Vec<_> = points[..256].iter().map(EdwardsPoint::compress).collect();
    out.push(probe("vg-crypto.edwards.decompress_ns", move || {
        let mut i = 0;
        ns_per(256, || {
            black_box(compressed[i].decompress());
            i += 1;
        })
    }));
    let pts = points[..256].to_vec();
    out.push(probe(
        "vg-crypto.edwards.batch_compress256_ns_per_pt",
        move || secs(|| EdwardsPoint::batch_compress(&pts)) * 1e9 / 256.0,
    ));
    for (name, n) in [
        ("vg-crypto.edwards.msm64_us_per_term", 64),
        ("vg-crypto.edwards.msm512_us_per_term", 512),
        ("vg-crypto.edwards.msm4096_us_per_term", 4096),
    ] {
        let (s, p) = (scalars[..n].to_vec(), points[..n].to_vec());
        out.push(probe(name, move || {
            secs(|| multiscalar_mul(&s, &p)) * 1e6 / n as f64
        }));
    }

    let data = vec![0xabu8; 1024];
    out.push(probe("vg-crypto.sha2.sha256_1k_ns", move || {
        ns_per(400, || {
            black_box(sha256(black_box(&data)));
        })
    }));
    let mut drbg = fx.rng("drbg");
    out.push(probe("vg-crypto.drbg.scalar_ns", move || {
        ns_per(500, || {
            black_box(drbg.scalar());
        })
    }));

    let key = SigningKey::generate(&mut rng);
    let vk = key.verifying_key();
    let msg = b"votegral e2e benchmark message".to_vec();
    let sig = key.sign(&msg);
    let (k, m) = (key.clone(), msg.clone());
    out.push(probe("vg-crypto.schnorr.sign_us", move || {
        us_per(50, || {
            black_box(k.sign(black_box(&m)));
        })
    }));
    let m = msg.clone();
    out.push(probe("vg-crypto.schnorr.verify_us", move || {
        us_per(20, || {
            black_box(vk.verify(&m, black_box(&sig)).is_ok());
        })
    }));
    let signed: Vec<(SigningKey, Vec<u8>)> = (0..256u32)
        .map(|i| (SigningKey::generate(&mut rng), i.to_le_bytes().to_vec()))
        .collect();
    let items: Vec<_> = signed
        .iter()
        .map(|(k, m)| (k.verifying_key(), m.clone(), k.sign(m)))
        .collect();
    let mut weights = fx.rng("batch-verify");
    out.push(probe(
        "vg-crypto.schnorr.batch_verify256_us_per_sig",
        move || {
            let borrowed: Vec<_> = items
                .iter()
                .map(|(vk, m, s)| (*vk, m.as_slice(), *s))
                .collect();
            secs(|| batch_verify(&borrowed, &mut weights).is_ok()) * 1e6 / 256.0
        },
    ));

    let apk = fx.trip().authority.public_key;
    let m = point(&mut rng);
    let mut r = fx.rng("elgamal");
    out.push(probe("vg-crypto.elgamal.encrypt_us", move || {
        us_per(20, || {
            black_box(encrypt_point(&apk, &m, &mut r));
        })
    }));

    let secret = rng.scalar();
    let g2 = point(&mut rng);
    let stmt = DlEqStatement {
        g1: EdwardsPoint::basepoint(),
        y1: EdwardsPoint::mul_base(&secret),
        g2,
        y2: g2 * secret,
    };
    let mut r = fx.rng("cp-prove");
    out.push(probe("vg-crypto.chaum_pedersen.prove_us", move || {
        us_per(20, || {
            let prover = Prover::commit(&stmt, &mut r);
            let e = r.scalar();
            black_box(prover.respond(&secret, &e));
        })
    }));
    let mut r = fx.rng("cp-forge");
    out.push(probe("vg-crypto.chaum_pedersen.forge_us", move || {
        us_per(20, || {
            let e = r.scalar();
            black_box(forge_transcript(&stmt, &e, &mut r));
        })
    }));
    let e = rng.scalar();
    let honest = Prover::commit(&stmt, &mut rng).respond(&secret, &e);
    out.push(probe("vg-crypto.chaum_pedersen.verify_us", move || {
        us_per(20, || {
            black_box(verify_transcript(&stmt, black_box(&honest)));
        })
    }));

    // 256 discrete-log-equality equations r·G − e·Y − A = 0, folded.
    let eqs: Vec<(Scalar, Scalar, EdwardsPoint, EdwardsPoint)> = (0..256)
        .map(|_| {
            let (x, k, e) = (rng.scalar(), rng.scalar(), rng.scalar());
            (
                k + e * x,
                e,
                EdwardsPoint::mul_base(&x),
                EdwardsPoint::mul_base(&k),
            )
        })
        .collect();
    let mut weights = fx.rng("fold");
    out.push(probe("vg-crypto.batch.fold256_us_per_eq", move || {
        secs(|| {
            let mut batch = BatchVerifier::new(&[EdwardsPoint::basepoint()]);
            for &(r, e, y, a) in &eqs {
                batch.queue(
                    &small_weight(&mut weights),
                    &[(0, r)],
                    &[(-e, y), (-Scalar::ONE, a)],
                );
            }
            batch.verify(1)
        }) * 1e6
            / 256.0
    }));

    let fixture = Rc::clone(fx);
    let ct = fx.transcript.inner.reg_inputs[0];
    let mut r = fx.rng("dkg-share");
    out.push(probe("vg-crypto.dkg.share_us", move || {
        let member = &fixture.trip().authority.members[0];
        us_per(20, || {
            black_box(member.decryption_share(&ct, &mut r));
        })
    }));
    let authority = &fx.trip().authority;
    let threshold = authority.t;
    let shares: Vec<DecryptionShare> = authority.members[..threshold]
        .iter()
        .map(|m| m.decryption_share(&ct, &mut rng))
        .collect();
    out.push(probe("vg-crypto.dkg.combine_us", move || {
        us_per(20, || {
            black_box(combine_shares(&ct, &shares, threshold).is_ok());
        })
    }));

    let keys = || DirectionKeys {
        enc: [7; 32],
        mac: [9; 32],
    };
    let frame = vec![0x5au8; 1024];
    let f = frame.clone();
    out.push(probe("vg-crypto.channel.seal_1k_ns", move || {
        let mut sealer = FrameSealer::new(keys());
        ns_per(100, || {
            black_box(sealer.seal(&f));
        })
    }));
    out.push(probe("vg-crypto.channel.open_1k_ns", move || {
        let mut tx = FrameSealer::new(keys());
        let sealed: Vec<Vec<u8>> = (0..100).map(|_| tx.seal(&frame)).collect();
        let mut rx = FrameSealer::new(keys());
        let mut i = 0;
        ns_per(100, || {
            black_box(rx.open(&sealed[i]).is_ok());
            i += 1;
        })
    }));
}

fn ledger_probes(fx: &Rc<Fixture>, scratch: &std::path::Path, out: &mut Vec<Probe>) {
    let mut rng = fx.rng("ledger");
    let records = fx.reg_records(256);
    let log = |rng: &mut HmacDrbg, backend: LedgerBackend| {
        TamperEvidentLog::<RegistrationRecord>::with_backend(SigningKey::generate(rng), backend)
    };

    let (r, mut keys) = (records.clone(), fx.rng("log-batch"));
    out.push(probe(
        "vg-ledger.log.append_batch256_ns_per_rec",
        move || {
            let mut l = log(&mut keys, LedgerBackend::InMemory);
            let batch = r.clone();
            secs(|| l.append_batch(batch, 1)) * 1e9 / 256.0
        },
    ));
    let (r, mut keys) = (records.clone(), fx.rng("log-sharded"));
    out.push(probe(
        "vg-ledger.store.sharded_append_batch256_ns_per_rec",
        move || {
            let mut l = log(&mut keys, LedgerBackend::sharded(4));
            let batch = r.clone();
            secs(|| l.append_batch(batch, 1)) * 1e9 / 256.0
        },
    ));
    let (r, mut keys) = (records.clone(), fx.rng("log-one"));
    out.push(probe("vg-ledger.log.append_one_us", move || {
        let mut l = log(&mut keys, LedgerBackend::InMemory);
        let mut batch = r[..64].iter().cloned();
        us_per(64, || {
            black_box(l.append(batch.next().expect("64 records")));
        })
    }));

    let mut big = log(&mut rng, LedgerBackend::InMemory);
    for _ in 0..16 {
        big.append_batch(records.clone(), 1);
    }
    let big = Rc::new(big);
    let l = Rc::clone(&big);
    out.push(probe("vg-ledger.log.tree_head_us", move || {
        us_per(20, || {
            black_box(l.tree_head());
        })
    }));
    let l = big;
    out.push(probe("vg-ledger.log.prove_inclusion_us", move || {
        let mut i = 0;
        us_per(50, || {
            black_box(l.prove_inclusion(i * 79 % 4096));
            i += 1;
        })
    }));

    let r = records.clone();
    out.push(probe(
        "vg-ledger.ledger.reg_verify_batch256_us_per_rec",
        move || secs(|| RegistrationLedger::verify_batch(&r, 1).is_ok()) * 1e6 / 256.0,
    ));
    let printer = &fx.trip().printers[0];
    let commitments: Vec<EnvelopeCommitment> = (0..256)
        .map(|_| {
            printer
                .print_detached(rng.scalar(), Symbol::random(&mut rng))
                .1
        })
        .collect();
    out.push(probe(
        "vg-ledger.ledger.env_verify_batch256_us_per_rec",
        move || secs(|| EnvelopeLedger::verify_batch(&commitments, 1).is_ok()) * 1e6 / 256.0,
    ));

    // The durable store: one log that every sample appends 256 records to
    // and then commits (fsync on), read back at the end of each sample.
    let dir = scratch.join("durable-probe");
    let backend = LedgerBackend::Durable {
        dir: dir.clone(),
        fsync: true,
    };
    let key = SigningKey::generate(&mut rng);
    let durable = Rc::new(std::cell::RefCell::new(TamperEvidentLog::<
        RegistrationRecord,
    >::with_backend(
        key.clone(), backend.clone()
    )));
    let (l, r) = (Rc::clone(&durable), records.clone());
    out.push(probe(
        "vg-ledger.durable.append_batch256_ns_per_rec",
        move || {
            let batch = r.clone();
            secs(|| l.borrow_mut().append_batch(batch, 1)) * 1e9 / 256.0
        },
    ));
    let (l, r) = (Rc::clone(&durable), records.clone());
    out.push(probe("vg-ledger.durable.persist_us", move || {
        l.borrow_mut().append_batch(r.clone(), 1);
        secs(|| l.borrow_mut().persist().is_ok()) * 1e6
    }));
    let (l, d) = (Rc::clone(&durable), dir.clone());
    out.push(count("vg-ledger.durable.wal_bytes_per_rec", move || {
        let _ = l.borrow_mut().persist();
        let bytes: u64 = std::fs::read_dir(&d)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("seg-"))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum();
        bytes as f64 / l.borrow().len().max(1) as f64
    }));
    let l = Rc::clone(&durable);
    out.push(count("vg-ledger.durable.fsyncs_per_persist", move || {
        let stats = l.borrow().durability_stats();
        stats.wal_fsyncs as f64 / stats.heads_persisted.max(1) as f64
    }));
    let l = durable;
    out.push(probe("vg-ledger.durable.replay_ns_per_rec", move || {
        let _ = l.borrow_mut().persist();
        let n = l.borrow().len().max(1);
        secs(|| {
            TamperEvidentLog::<RegistrationRecord>::with_backend(key.clone(), backend.clone()).len()
        }) * 1e9
            / n as f64
    }));
}

fn trip_probes(fx: &Rc<Fixture>, out: &mut Vec<Probe>) {
    let seed = fx.seed;
    out.push(probe("vg-trip.setup.setup_us_per_voter", move || {
        secs(|| fresh_system(64, seed)) * 1e6 / 64.0
    }));
    let system = fresh_system(64, seed);
    let mut seeds = fx.rng("derive");
    out.push(probe("vg-trip.pool.derive_us_per_session", move || {
        let fleet = KioskFleet::new(FleetConfig::seeded(seeds.bytes32()));
        secs(|| {
            let mut pool = fleet.prepare_pool(&system, &plan(1..=64));
            pool.warm(&system.printers[0]).is_ok()
        }) * 1e6
            / 64.0
    }));
    let mut system = fresh_system(64, seed);
    let mut r = fx.rng("print");
    out.push(probe("vg-trip.printer.print_batch_us_per_env", move || {
        secs(|| {
            system.printers[0]
                .print_batch(&mut system.ledger.envelopes, 64, &mut r)
                .is_ok()
        }) * 1e6
            / 64.0
    }));

    // Check-out re-posts the day's own tickets: a later record for the
    // same voter supersedes, which is what re-registration does.
    let (fixture, mut r) = (Rc::clone(fx), fx.rng("checkout"));
    let mut system = fresh_system(fx.day.election.trip.config.n_voters, seed);
    out.push(probe(
        "vg-trip.official.checkout_batch_us_per_session",
        move || {
            let checkouts = fixture.checkouts(64, &mut r);
            secs(|| {
                system.officials[0]
                    .check_out_batch(&mut system.ledger, checkouts, &system.kiosk_registry, 1)
                    .is_ok()
            }) * 1e6
                / 64.0
        },
    ));
    let (fixture, mut r) = (Rc::clone(fx), fx.rng("verify-checkout"));
    out.push(probe(
        "vg-trip.official.verify_checkouts_us_per_session",
        move || {
            let trip = &fixture.day.election.trip;
            let checkouts = fixture.checkouts(64, &mut r);
            secs(|| {
                trip.officials[0]
                    .verify_checkouts(&checkouts, &trip.kiosk_registry, 1)
                    .is_ok()
            }) * 1e6
                / 64.0
        },
    ));

    let fixture = Rc::clone(fx);
    out.push(probe("vg-trip.vsd.client_checks_us_per_cred", move || {
        let trip = &fixture.day.election.trip;
        let paper: Vec<&PaperCredential> = fixture
            .day_sessions
            .iter()
            .flat_map(Device::paper)
            .take(16)
            .collect();
        us_per(paper.len(), {
            let mut creds = paper.iter();
            move || {
                let view = creds
                    .next()
                    .and_then(|c| c.activate_view().ok())
                    .expect("activate-state credential");
                black_box(
                    activate_client_checks(
                        &view,
                        &trip.authority.public_key,
                        &trip.printer_registry,
                    )
                    .is_ok(),
                );
            }
        })
    }));
    // Activation reveals each envelope challenge once, so every sample
    // registers a fresh day (untimed) and activates it (timed).
    let mut seeds = fx.rng("activate");
    out.push(probe("vg-trip.vsd.activate_batch_us_per_cred", move || {
        let mut system = fresh_system(64, seed);
        let fleet = KioskFleet::new(FleetConfig::seeded(seeds.bytes32()));
        let mut outcomes = fleet
            .register(&mut system, &plan(1..=64))
            .expect("fleet day registers");
        for o in &mut outcomes {
            o.believed_real.lift_to_activate();
            o.fakes
                .iter_mut()
                .for_each(PaperCredential::lift_to_activate);
        }
        let paper: Vec<&PaperCredential> =
            outcomes.iter().flat_map(|o| o.all_credentials()).collect();
        let (apk, printers) = (system.authority.public_key, system.printer_registry.clone());
        secs(|| activate_batch(&paper, &mut system.ledger, &apk, &printers, 1).is_ok()) * 1e6
            / paper.len() as f64
    }));

    // The sequential reference every engine must equal bit for bit: the
    // floor a session costs with no engine at all.
    // (A voter who comes round again re-registers, which the ledger takes.)
    let mut system = fresh_system(1024, seed);
    let day_seed = fx.rng("seeded").bytes32();
    let mut next = 0usize;
    out.push(probe("vg-trip.protocol.register_seeded_us", move || {
        us_per(4, || {
            next += 1;
            let voter = VoterId(1 + next as u64 % 1024);
            black_box(register_voter_seeded(&mut system, voter, next % 2, &day_seed, next).is_ok());
        })
    }));
    let mut seeds = fx.rng("local-day");
    out.push(probe("vg-trip.fleet.local_day_us_per_session", move || {
        let mut system = fresh_system(256, seed);
        let fleet = KioskFleet::new(FleetConfig::seeded(seeds.bytes32()));
        secs(|| {
            fleet
                .register_and_activate(&mut system, &plan(1..=256))
                .is_ok()
        }) * 1e6
            / 256.0
    }));
}

/// Echoes frames on the channel `accept` yields until the peer hangs up,
/// on a thread that is joined when the returned guard drops.
struct EchoServer(Option<std::thread::JoinHandle<()>>);

impl EchoServer {
    fn one(accept: impl FnOnce() -> Option<Box<dyn FramedChannel>> + Send + 'static) -> Self {
        EchoServer(Some(std::thread::spawn(move || {
            if let Some(mut chan) = accept() {
                while let Ok(frame) = chan.recv_frame() {
                    if chan.send_frame(&frame).is_err() {
                        break;
                    }
                }
            }
        })))
    }
}

impl Drop for EchoServer {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            let _ = handle.join();
        }
    }
}

/// Round trips per sample of the channel probes.
const ROUND_TRIPS: usize = 100;

/// Microseconds per 64-byte echo round trip over `client`.
fn rtt_us(client: &mut dyn FramedChannel) -> f64 {
    let frame = [0x42u8; 64];
    us_per(ROUND_TRIPS, || {
        let _ = client.send_frame(&frame);
        black_box(client.recv_frame().is_ok());
    })
}

fn service_probes(fx: &Rc<Fixture>, out: &mut Vec<Probe>) {
    let mut rng = fx.rng("service");
    let request = Request::CheckOutBatch(CheckOutBatchRequest {
        checkouts: fx
            .checkouts(64, &mut rng)
            .into_iter()
            .map(|(qr, coupon)| (qr, WireCoupon::from(coupon)))
            .collect(),
    });
    let wire = request.to_wire();
    out.push(probe("vg-service.wire.encode_checkout_ns", move || {
        secs(|| request.to_wire()) * 1e9 / 64.0
    }));
    out.push(probe("vg-service.wire.decode_checkout_ns", move || {
        secs(|| Request::from_wire(&wire).is_ok()) * 1e9 / 64.0
    }));

    let keyring = &fx.trip().transport_keys;
    let enrolled = std::sync::Arc::new(keyring.station_registry.clone());
    let server = ChannelPolicy::Secure(SecureConfig {
        local: keyring.registrar.clone(),
        registrar: keyring.registrar_pk,
        enrolled: std::sync::Arc::clone(&enrolled),
    });
    let client = ChannelPolicy::Secure(SecureConfig {
        local: keyring.station(0).clone(),
        registrar: keyring.registrar_pk,
        enrolled,
    });

    // The client's view of the handshake: Init out, Reply in, Fin out.
    let (s, c) = (server.clone(), client.clone());
    out.push(probe("vg-service.channel.handshake_us", move || {
        let (near, far) = pipe_pair();
        let policy = s.clone();
        let _server = EchoServer::one(move || policy.establish_server(Box::new(far)).ok());
        secs(|| c.establish_client(Box::new(near)).is_ok()) * 1e6
    }));
    out.push(probe("vg-service.channel.pipe_rtt_us", move || {
        let (far, mut near) = pipe_pair();
        let server = EchoServer::one(move || Some(Box::new(far) as Box<dyn FramedChannel>));
        let rtt = rtt_us(&mut near);
        // Hang up first: the server is joined when its guard drops.
        drop(near);
        drop(server);
        rtt
    }));
    out.push(probe("vg-service.channel.tcp_rtt_us", move || {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener.local_addr().expect("bound address");
        let _server = EchoServer::one(move || {
            let (stream, _) = listener.accept().ok()?;
            Some(Box::new(TcpChannel::from_stream(stream).ok()?) as Box<dyn FramedChannel>)
        });
        let mut near = TcpChannel::connect(addr).expect("loopback connect");
        rtt_us(&mut near)
    }));
    out.push(probe("vg-service.channel.secure_tcp_rtt_us", move || {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener.local_addr().expect("bound address");
        let mut listener = TcpChannelListener::new(listener, server.clone());
        let _server = EchoServer::one(move || listener.accept().ok());
        let connector = TcpConnector {
            addr,
            policy: client.clone(),
            deadlines: Deadlines::default(),
        };
        let mut near = connector.connect().expect("secure loopback connect");
        rtt_us(near.as_mut())
    }));
}

fn shuffle_probes(fx: &Rc<Fixture>, out: &mut Vec<Probe>) {
    let tr = &fx.transcript.inner;
    let apk = fx.trip().authority.public_key;
    let mixers = fx.counting.election.mixers;
    let (cts, pairs) = (tr.reg_inputs.clone(), tr.ballot_pair_inputs.clone());
    let (n_cts, n_pairs) = (cts.len() as f64, pairs.len() as f64);
    let cascade = Rc::new(MixCascade::new(cts.len().max(pairs.len()), mixers));

    let (c, input, mut r) = (Rc::clone(&cascade), cts.clone(), fx.rng("mix"));
    out.push(probe("vg-shuffle.mixnet.mix_us_per_ct", move || {
        secs(|| c.mix(&apk, &input, &mut r)) * 1e6 / n_cts
    }));
    let (c, input, mut r) = (Rc::clone(&cascade), pairs.clone(), fx.rng("mix-pairs"));
    out.push(probe(
        "vg-shuffle.mixnet.mix_pairs_us_per_pair",
        move || secs(|| c.mix_pairs(&apk, &input, &mut r)) * 1e6 / n_pairs,
    ));
    let (c, fixture) = (Rc::clone(&cascade), Rc::clone(fx));
    out.push(probe(
        "vg-shuffle.mixnet.verify_batch_us_per_ct",
        move || {
            secs(|| {
                c.verify_batch(&apk, &fixture.transcript.inner.reg_mix, default_threads())
                    .is_ok()
            }) * 1e6
                / n_cts
        },
    ));
    let (c, fixture) = (cascade, Rc::clone(fx));
    out.push(probe(
        "vg-shuffle.mixnet.verify_pairs_batch_us_per_pair",
        move || {
            secs(|| {
                c.verify_pairs_batch(
                    &apk,
                    &fixture.transcript.inner.ballot_mix,
                    default_threads(),
                )
                .is_ok()
            }) * 1e6
                / n_pairs
        },
    ));

    let ctx = Rc::new(ShuffleContext::new(cts.len()));
    let (x, input, mut r) = (Rc::clone(&ctx), cts.clone(), fx.rng("shuffle"));
    out.push(probe("vg-shuffle.shuffle.prove_us_per_ct", move || {
        secs(|| x.shuffle(&apk, &input, &mut r)) * 1e6 / n_cts
    }));
    let (outputs, proof) = ctx.shuffle(&apk, &cts, &mut fx.rng("shuffle-fixed"));
    out.push(probe("vg-shuffle.shuffle.verify_us_per_ct", move || {
        secs(|| ctx.verify(&apk, &cts, &outputs, &proof).is_ok()) * 1e6 / n_cts
    }));
}

fn votegral_probes(fx: &Rc<Fixture>, out: &mut Vec<Probe>) {
    let trip = fx.trip();
    let apk = trip.authority.public_key;
    let config = fx.counting.election.vote_config;
    let ballots = trip.ledger.ballots.len() as f64;

    let (fixture, mut r) = (Rc::clone(fx), fx.rng("ballot"));
    out.push(probe("vg-votegral.ballot.build_us", move || {
        let credential = &fixture.voters[0].vsd.credentials[0];
        us_per(4, || {
            black_box(build_ballot_record(credential, 1, config, &apk, &mut r).is_ok());
        })
    }));
    let record = &trip.ledger.ballots.records()[0];
    let ballot = Ballot::from_bytes(&record.payload).expect("a posted ballot decodes");
    let credential_pk = record.credential_pk;
    out.push(probe("vg-votegral.ballot.verify_proof_us", move || {
        us_per(4, || {
            black_box(
                verify_vote_proof(
                    &apk,
                    &ballot.vote_ct,
                    config,
                    &credential_pk,
                    &ballot.vote_proof,
                )
                .is_ok(),
            );
        })
    }));
    let (fixture, mut r) = (Rc::clone(fx), fx.rng("cast"));
    let mut board = Ledger::new(Vec::new(), &mut fx.rng("cast-board"));
    out.push(probe(
        "vg-votegral.ballot.cast_batch_us_per_ballot",
        move || {
            let wave: Vec<_> = fixture
                .voters
                .iter()
                .take(32)
                .map(|d| (&d.vsd.credentials[0], 0u32))
                .collect();
            secs(|| cast_ballots(&wave, config, &apk, &mut board, 1, &mut r).is_ok()) * 1e6
                / wave.len() as f64
        },
    ));
    let fixture = Rc::clone(fx);
    out.push(probe("vg-votegral.tally.admit_us_per_ballot", move || {
        let trip = fixture.trip();
        secs(|| admit_ballots(&trip.ledger, config, &apk, &trip.kiosk_registry)) * 1e6 / ballots
    }));

    let cts = fx.transcript.inner.reg_mix.outputs().to_vec();
    let n = cts.len() as f64;
    let (input, mut r) = (cts.clone(), fx.rng("tag"));
    out.push(probe("vg-votegral.tagging.apply_us_per_ct", move || {
        let key = TaggingKey::generate(&mut r);
        secs(|| key.apply(&input, &mut r)) * 1e6 / n
    }));
    let round =
        TaggingKey::generate(&mut fx.rng("tag-fixed")).apply(&cts, &mut fx.rng("tag-fixed-proofs"));
    let input = cts.clone();
    out.push(probe("vg-votegral.tagging.verify_us_per_ct", move || {
        secs(|| round.verify(&input).is_ok()) * 1e6 / n
    }));

    let (fixture, input, mut r) = (Rc::clone(fx), cts.clone(), fx.rng("open"));
    out.push(probe("vg-votegral.tally.open_us_per_ct", move || {
        secs(|| {
            open_vector(
                &mut Tracer::off(),
                &fixture.trip().authority,
                &input,
                &mut r,
            )
            .is_ok()
        }) * 1e6
            / n
    }));
    let fixture = Rc::clone(fx);
    out.push(probe(
        "vg-votegral.verifier.open_verify_us_per_ct",
        move || {
            let tr = &fixture.transcript.inner;
            let tagged = tr
                .reg_tagging
                .last()
                .map_or(&[][..], |r| r.outputs.as_slice());
            let authority = PublicAuthority::of(&fixture.trip().authority);
            secs(|| check_opening(&mut Tracer::off(), &tr.reg_opening, tagged, &authority)) * 1e6
                / tagged.len().max(1) as f64
        },
    ));
    let fixture = Rc::clone(fx);
    out.push(probe(
        "vg-votegral.tally.match_count_us_per_ballot",
        move || {
            let tr = &fixture.transcript.inner;
            secs(|| {
                let matched = match_tags(&tr.reg_opening.plaintexts, &tr.key_opening.plaintexts);
                count_votes(
                    tr.config,
                    &tr.vote_opening.plaintexts,
                    tr.ballot_mix.outputs().len(),
                    matched.len(),
                )
            }) * 1e6
                / ballots
        },
    ));
}

/// Every micro probe, on inputs cut from `fx`; the durable-store probes
/// write below `scratch`.
pub fn probes(fx: &Rc<Fixture>, scratch: &std::path::Path) -> Vec<Probe> {
    let mut out = Vec::new();
    crypto_probes(fx, &mut out);
    ledger_probes(fx, scratch, &mut out);
    trip_probes(fx, &mut out);
    service_probes(fx, &mut out);
    shuffle_probes(fx, &mut out);
    votegral_probes(fx, &mut out);
    out
}
