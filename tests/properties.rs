//! Workspace-level property-based tests: protocol invariants under random
//! configurations, decoder totality on adversarial bytes, determinism,
//! and backend equivalence.

use std::path::PathBuf;

use proptest::prelude::*;
use votegral::crypto::schnorr::SigningKey;
use votegral::crypto::{CompressedPoint, HmacDrbg, Scalar};
use votegral::ledger::{BallotRecord, LedgerBackend, TamperEvidentLog, VoterId};
use votegral::trip::vsd::ActivatedCredential;
use votegral::votegral::{Ballot, Election, ElectionBuilder, Tallying, VotegralError};

/// A fresh scratch directory for durable-backend cases.
fn wal_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vg-props-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Shared honest mix-cascade fixtures for the batch-verification soak:
/// proving is the expensive part, so each `(n, mixers)` combination is
/// mixed once and every soak case clones and tampers it.
mod mix_fixtures {
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex, OnceLock};

    use votegral::crypto::drbg::Rng;
    use votegral::crypto::elgamal::{encrypt_point, Ciphertext, ElGamalKeyPair};
    use votegral::crypto::{EdwardsPoint, HmacDrbg, Scalar};
    use votegral::shuffle::{MixCascade, MixTranscript, PairMixTranscript, Row, RowMixTranscript};

    pub struct Fixture {
        pub pk: EdwardsPoint,
        pub cascade: MixCascade,
        pub single: MixTranscript,
        pub pair: PairMixTranscript,
    }

    type Cache = Mutex<HashMap<(usize, usize), Arc<Fixture>>>;

    pub fn get(n: usize, mixers: usize) -> Arc<Fixture> {
        static CACHE: OnceLock<Cache> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = cache.lock().unwrap();
        map.entry((n, mixers))
            .or_insert_with(|| {
                let mut rng = HmacDrbg::from_u64((n * 101 + mixers) as u64);
                let kp = ElGamalKeyPair::generate(&mut rng);
                let inputs: Vec<Ciphertext> = (1..=n as u64)
                    .map(|i| {
                        let m = EdwardsPoint::mul_base(&Scalar::from_u64(i));
                        encrypt_point(&kp.pk, &m, &mut rng).0
                    })
                    .collect();
                let pair_inputs: Vec<(Ciphertext, Ciphertext)> = (1..=n as u64)
                    .map(|i| {
                        let a = EdwardsPoint::mul_base(&Scalar::from_u64(i));
                        let b = EdwardsPoint::mul_base(&Scalar::from_u64(1000 + i));
                        (
                            encrypt_point(&kp.pk, &a, &mut rng).0,
                            encrypt_point(&kp.pk, &b, &mut rng).0,
                        )
                    })
                    .collect();
                let cascade = MixCascade::new(n, mixers);
                let single = cascade.mix(&kp.pk, &inputs, &mut rng);
                let pair = cascade.mix_pairs(&kp.pk, &pair_inputs, &mut rng);
                Arc::new(Fixture {
                    pk: kp.pk,
                    cascade,
                    single,
                    pair,
                })
            })
            .clone()
    }

    fn bump_point(p: &mut EdwardsPoint) {
        *p += EdwardsPoint::basepoint();
    }

    /// Tampers one uniformly chosen field of one uniformly chosen stage of
    /// a cascade of either width: a component of an output ciphertext in
    /// any column, any field of the shared commitments and product
    /// argument, or any field of any column's multi-exponentiation
    /// argument.
    pub fn tamper<R: Row>(t: &mut RowMixTranscript<R>, rng: &mut dyn Rng) {
        let k = rng.below(t.stages.len() as u64) as usize;
        let stage = &mut t.stages[k];
        let j = rng.below(stage.outputs.len() as u64) as usize;
        let width = R::WIDTH as u64;
        let p = &mut stage.proof;
        let field = rng.below(2 * width + 9 + 6 * width);
        if field < 2 * width {
            let (col, second) = ((field / 2) as usize, field % 2 == 1);
            let row = stage.outputs[j];
            stage.outputs[j] = R::from_cols(|c| {
                let mut ct = row.col(c);
                if c == col {
                    bump_point(if second { &mut ct.c2 } else { &mut ct.c1 });
                }
                ct
            });
            return;
        }
        match field - 2 * width {
            0 => bump_point(&mut p.c_a),
            1 => bump_point(&mut p.c_b),
            2 => bump_point(&mut p.svp.c_d),
            3 => bump_point(&mut p.svp.c_delta),
            4 => bump_point(&mut p.svp.c_big_delta),
            5 => p.svp.a_tilde[j] += Scalar::ONE,
            6 => p.svp.b_tilde[j] += Scalar::ONE,
            7 => p.svp.r_tilde += Scalar::ONE,
            8 => p.svp.s_tilde += Scalar::ONE,
            m => {
                let mexp = &mut p.mexp.as_mut()[(m - 9) as usize / 6];
                match (m - 9) % 6 {
                    0 => bump_point(&mut mexp.c_d),
                    1 => bump_point(&mut mexp.e_d.c1),
                    2 => bump_point(&mut mexp.e_d.c2),
                    3 => mexp.b_tilde[j] += Scalar::ONE,
                    4 => mexp.s_tilde += Scalar::ONE,
                    _ => mexp.rho_tilde += Scalar::ONE,
                }
            }
        }
    }

    /// One soak case of `batch_verification_equivalent_and_tamper_sound` at
    /// either width: `verify` and `verify_batch` both accept the honest
    /// transcript, or both reject one single-field tamper of it.
    pub fn check<R: Row>(
        fx: &Fixture,
        honest: &RowMixTranscript<R>,
        check_honest: bool,
        rng: &mut dyn Rng,
    ) {
        if check_honest {
            assert!(fx.cascade.verify(&fx.pk, honest).is_ok());
            assert!(fx.cascade.verify_batch(&fx.pk, honest, 2).is_ok());
        } else {
            let mut bad = honest.clone();
            tamper(&mut bad, rng);
            assert!(fx.cascade.verify(&fx.pk, &bad).is_err());
            assert!(fx.cascade.verify_batch(&fx.pk, &bad, 2).is_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the population shape, every real vote is counted exactly
    /// once, every fake ballot is discarded, and the transcript verifies.
    #[test]
    fn election_correct_under_random_population(
        seed in any::<u64>(),
        n_voters in 1u64..4,
        n_options in 2u32..4,
        fake_counts in proptest::collection::vec(0usize..3, 3),
        votes in proptest::collection::vec(0u32..4, 3),
    ) {
        let mut rng = HmacDrbg::from_u64(seed);
        let mut election = ElectionBuilder::new()
            .voters(n_voters)
            .options(n_options)
            .build(&mut rng);
        let mut devices = Vec::new();
        for v in 1..=n_voters {
            let n_fakes = fake_counts[(v - 1) as usize];
            let (_, vsd) = election
                .register_and_activate(VoterId(v), n_fakes, &mut rng)
                .expect("registration");
            devices.push(vsd);
        }
        let mut voting = election.open_voting();
        let mut expected = vec![0u64; n_options as usize];
        let mut fake_ballots = 0usize;
        for (i, vsd) in devices.iter().enumerate() {
            let vote = votes[i] % n_options;
            expected[vote as usize] += 1;
            voting.cast(&vsd.credentials[0], vote, &mut rng).expect("real cast");
            for fake in &vsd.credentials[1..] {
                voting.cast(fake, (vote + 1) % n_options, &mut rng).expect("fake cast");
                fake_ballots += 1;
            }
        }
        let tallying = voting.close();
        let transcript = tallying.tally(&mut rng).expect("tally");
        prop_assert_eq!(&transcript.result.counts, &expected);
        prop_assert_eq!(transcript.result.counted as u64, n_voters);
        // Unmatched = fake ballots (+ dummies when fewer than 2 pairs).
        prop_assert!(transcript.result.unmatched >= fake_ballots);
        let verified = tallying.verify(&transcript).expect("verifies");
        prop_assert_eq!(verified, transcript.result);
    }

    /// The in-memory and durable backends are interchangeable: the same
    /// seeded election produces identical counts and transcript verdicts
    /// on both, `cast_batch` matches sequential `cast`, and — because the
    /// WAL backend hashes the same flat Merkle tree — the durable ledger
    /// heads are bit-identical to in-memory, not merely equivalent.
    #[test]
    fn backends_and_batching_equivalent(
        seed in any::<u64>(),
        n_voters in 1u64..4,
    ) {
        let run = |backend: LedgerBackend, batch: bool| {
            let mut rng = HmacDrbg::from_u64(seed);
            let mut election = ElectionBuilder::new()
                .voters(n_voters)
                .options(2)
                .backend(backend)
                .build(&mut rng);
            let voters: Vec<VoterId> = (1..=n_voters).map(VoterId).collect();
            let sessions = election.register_batch(&voters, &mut rng).expect("registers");
            let mut voting = election.open_voting();
            let pairs: Vec<(&ActivatedCredential, u32)> = sessions
                .iter()
                .enumerate()
                .map(|(i, (_, vsd))| (&vsd.credentials[0], (i % 2) as u32))
                .collect();
            if batch {
                voting.cast_batch(&pairs, &mut rng).expect("batch cast");
            } else {
                for (cred, vote) in &pairs {
                    voting.cast(cred, *vote, &mut rng).expect("cast");
                }
            }
            let tallying = voting.close();
            let ballot_head = tallying.ledger().ballots.tree_head().root;
            let transcript = tallying.tally(&mut rng).expect("tally");
            tallying.verify(&transcript).expect("verifies");
            (ballot_head, transcript.result)
        };
        let (head_mem_seq, result_mem_seq) = run(LedgerBackend::InMemory, false);
        let (head_mem_batch, result_mem_batch) = run(LedgerBackend::InMemory, true);
        let dir = wal_dir("equiv");
        let (head_dur_batch, result_dur_batch) = run(
            LedgerBackend::Durable { dir: dir.clone(), fsync: false },
            true,
        );
        let _ = std::fs::remove_dir_all(&dir);
        // cast_batch ≡ sequential cast: bit-identical ledger heads.
        prop_assert_eq!(head_mem_seq, head_mem_batch);
        prop_assert_eq!(&result_mem_seq, &result_mem_batch);
        // The WAL commits the same flat tree: bit-identical heads too.
        prop_assert_eq!(head_mem_seq, head_dur_batch);
        prop_assert_eq!(&result_mem_seq, &result_dur_batch);
    }

    /// Durable-log edge cases at the workspace surface, tempdir-backed:
    /// batch and sequential appends land on bit-identical signed heads
    /// (matching the in-memory reference), an empty `append_batch` is an
    /// indexless no-op even through the persist barrier, inclusion at
    /// the exact head-boundary index verifies (and one past it does
    /// not), and the whole state survives a reopen.
    #[test]
    fn durable_log_edge_cases(
        seed in any::<u64>(),
        n in 1usize..24,
    ) {
        let records = |count: usize| -> Vec<BallotRecord> {
            let mut rng = HmacDrbg::from_u64(seed);
            let key = SigningKey::generate(&mut rng);
            (0..count)
                .map(|i| {
                    let mut payload = vec![0u8; 24 + (i % 7)];
                    votegral::crypto::drbg::Rng::fill_bytes(&mut rng, &mut payload);
                    let signature = key.sign(&BallotRecord::message(&payload));
                    BallotRecord {
                        credential_pk: CompressedPoint(votegral::crypto::drbg::Rng::bytes32(&mut rng)),
                        payload,
                        signature,
                    }
                })
                .collect()
        };
        let operator = || SigningKey::generate(&mut HmacDrbg::from_u64(seed ^ 0x0D));

        let mut reference = TamperEvidentLog::with_backend(operator(), LedgerBackend::InMemory);
        for r in records(n) {
            reference.append(r);
        }

        let seq_dir = wal_dir("edge-seq");
        let batch_dir = wal_dir("edge-batch");
        let mut seq = TamperEvidentLog::with_backend(
            operator(),
            LedgerBackend::Durable { dir: seq_dir.clone(), fsync: false },
        );
        for r in records(n) {
            seq.append(r);
        }
        let mut batch = TamperEvidentLog::with_backend(
            operator(),
            LedgerBackend::Durable { dir: batch_dir.clone(), fsync: false },
        );
        let range = batch.append_batch(records(n), 2);
        prop_assert_eq!(range, 0..n);
        prop_assert_eq!(seq.tree_head().root, batch.tree_head().root);
        prop_assert_eq!(reference.tree_head().root, batch.tree_head().root);

        // Empty batch at the head boundary: no indices, no new head.
        batch.persist().expect("persist");
        let heads_before = batch.durability_stats().heads_persisted;
        let range = batch.append_batch(Vec::new(), 4);
        prop_assert_eq!(range, n..n);
        batch.persist().expect("persist");
        prop_assert_eq!(batch.durability_stats().heads_persisted, heads_before);

        // Inclusion at the exact head boundary index, and one past it.
        let head = batch.tree_head();
        let last = records(n).pop().expect("n >= 1");
        let proof = batch.prove_inclusion(n - 1);
        prop_assert!(TamperEvidentLog::verify_inclusion(&head, &last, n - 1, &proof));
        prop_assert!(!TamperEvidentLog::verify_inclusion(&head, &last, n, &proof));

        // Reopen: same records, same root, same boundary behaviour.
        drop(batch);
        let reopened = TamperEvidentLog::<BallotRecord>::with_backend(
            operator(),
            LedgerBackend::Durable { dir: batch_dir.clone(), fsync: false },
        );
        prop_assert_eq!(reopened.len(), n);
        prop_assert_eq!(reopened.tree_head().root, head.root);
        head.verify(&reopened.operator_key()).expect("head verifies");

        let _ = std::fs::remove_dir_all(&seq_dir);
        let _ = std::fs::remove_dir_all(&batch_dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The ballot decoder is total: arbitrary bytes never panic, and
    /// anything it accepts re-encodes canonically.
    #[test]
    fn ballot_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        if let Ok(ballot) = Ballot::from_bytes(&bytes) {
            // Canonical re-encoding round-trips.
            let re = Ballot::from_bytes(&ballot.to_bytes()).expect("canonical");
            prop_assert_eq!(re, ballot);
        }
    }

    /// Point decompression is total and involutive on its accepted set.
    #[test]
    fn decompression_total(bytes in proptest::array::uniform32(any::<u8>())) {
        if let Some(p) = CompressedPoint(bytes).decompress() {
            prop_assert!(p.is_on_curve());
            // Canonical encodings round-trip exactly.
            prop_assert_eq!(p.compress().decompress(), Some(p));
        }
    }

    /// Scalar decoding accepts exactly the canonical range.
    #[test]
    fn scalar_canonical_total(bytes in proptest::array::uniform32(any::<u8>())) {
        if let Some(s) = Scalar::from_canonical_bytes(&bytes) {
            prop_assert_eq!(s.to_bytes(), bytes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The folded cascade verifier (`verify_batch`) against the per-stage
    /// one (`verify`): honest transcripts (random sizes, random mixer
    /// counts, single and pair cascades) pass both ways, and a soak of
    /// single-field tampers — one random field of one random stage's proof
    /// or outputs, bumped by `+B` or `+1` — is rejected by both; no such
    /// tamper survives the random-linear-combination folding.
    #[test]
    fn batch_verification_equivalent_and_tamper_sound(
        n in 2usize..6,
        mixers in 1usize..5,
        use_pair in any::<bool>(),
        tamper_seed in any::<u64>(),
    ) {
        let fx = mix_fixtures::get(n, mixers);
        let mut rng = HmacDrbg::from_u64(tamper_seed);
        // A slice of cases re-checks honest acceptance by both verifiers;
        // the rest soak tampered-proof rejection.
        let check_honest = tamper_seed.is_multiple_of(8);
        if use_pair {
            mix_fixtures::check(&fx, &fx.pair, check_honest, &mut rng);
        } else {
            mix_fixtures::check(&fx, &fx.single, check_honest, &mut rng);
        }
    }
}

/// Single-field tampers of the tally's Σ-proof evidence — tagging rounds,
/// openings, matching and counts. Every tamper adds a prime-order offset
/// (`+B` on a point, `+1` on a scalar, index or count) and can be undone,
/// because a `TallyTranscript` is not `Clone`.
mod tally_tampers {
    use votegral::crypto::drbg::Rng;
    use votegral::crypto::{EdwardsPoint, Scalar};
    use votegral::votegral::tagging::TaggingRound;
    use votegral::votegral::tally::VectorOpening;
    use votegral::votegral::{TallyTranscript, VerifyStage};

    /// What is tampered, with its location: `cascade` is 0 for the
    /// registration tags and 1 for the ballot keys, `opening` 0/1/2 for
    /// the tag, key and vote openings.
    #[derive(Clone, Copy, Debug)]
    pub enum Tamper {
        /// Component `comp` of output `item` of round `round`.
        TaggingOutput {
            cascade: usize,
            round: usize,
            item: usize,
            comp: usize,
        },
        /// Field `field` (Y₁, Y₂, response) of round `round`'s one proof.
        TaggingProof {
            cascade: usize,
            round: usize,
            field: usize,
        },
        /// Field `field` (D, Y₁, Y₂, response) of one decryption share.
        Share {
            opening: usize,
            item: usize,
            member: usize,
            field: usize,
        },
        OpenedPlaintext {
            opening: usize,
            item: usize,
        },
        /// Bump entry `Some(k)`, or — with nothing matched — claim one.
        MatchedIndex(Option<usize>),
        ClaimedCount {
            option: usize,
        },
    }

    fn bump_point(p: &mut EdwardsPoint, undo: bool) {
        if undo {
            *p -= EdwardsPoint::basepoint();
        } else {
            *p += EdwardsPoint::basepoint();
        }
    }

    fn bump_scalar(s: &mut Scalar, undo: bool) {
        if undo {
            *s -= Scalar::ONE;
        } else {
            *s += Scalar::ONE;
        }
    }

    fn bump_index(i: &mut usize, undo: bool) {
        if undo {
            *i -= 1;
        } else {
            *i += 1;
        }
    }

    fn cascade(t: &mut TallyTranscript, which: usize) -> &mut Vec<TaggingRound> {
        match which {
            0 => &mut t.reg_tagging,
            _ => &mut t.ballot_tagging,
        }
    }

    fn opening(t: &mut TallyTranscript, which: usize) -> &mut VectorOpening {
        match which {
            0 => &mut t.reg_opening,
            1 => &mut t.key_opening,
            _ => &mut t.vote_opening,
        }
    }

    impl Tamper {
        /// The verification stage that must name this tamper.
        pub fn stage(&self) -> VerifyStage {
            match self {
                Tamper::TaggingOutput { .. } | Tamper::TaggingProof { .. } => VerifyStage::Tagging,
                Tamper::Share { .. } | Tamper::OpenedPlaintext { .. } => VerifyStage::Decryption,
                Tamper::MatchedIndex(_) => VerifyStage::Matching,
                Tamper::ClaimedCount { .. } => VerifyStage::Counting,
            }
        }

        pub fn apply(&self, t: &mut TallyTranscript, undo: bool) {
            match *self {
                Tamper::TaggingOutput {
                    cascade: which,
                    round,
                    item,
                    comp,
                } => {
                    let ct = &mut cascade(t, which)[round].outputs[item];
                    bump_point(if comp == 0 { &mut ct.c1 } else { &mut ct.c2 }, undo);
                }
                Tamper::TaggingProof {
                    cascade: which,
                    round,
                    field,
                } => {
                    let proof = &mut cascade(t, which)[round].proof;
                    match field {
                        0 => bump_point(&mut proof.commit.a1, undo),
                        1 => bump_point(&mut proof.commit.a2, undo),
                        _ => bump_scalar(&mut proof.response, undo),
                    }
                }
                Tamper::Share {
                    opening: which,
                    item,
                    member,
                    field,
                } => {
                    let share = &mut opening(t, which).shares[item][member];
                    match field {
                        0 => bump_point(&mut share.share, undo),
                        1 => bump_point(&mut share.proof.commit.a1, undo),
                        2 => bump_point(&mut share.proof.commit.a2, undo),
                        _ => bump_scalar(&mut share.proof.response, undo),
                    }
                }
                Tamper::OpenedPlaintext {
                    opening: which,
                    item,
                } => bump_point(&mut opening(t, which).plaintexts[item], undo),
                Tamper::MatchedIndex(Some(k)) => bump_index(&mut t.matched_indices[k], undo),
                Tamper::MatchedIndex(None) if undo => {
                    t.matched_indices.pop();
                }
                Tamper::MatchedIndex(None) => t.matched_indices.push(0),
                Tamper::ClaimedCount { option } => {
                    let mut count = t.result.counts[option] as usize;
                    bump_index(&mut count, undo);
                    t.result.counts[option] = count as u64;
                }
            }
        }
    }

    /// One tamper of every kind, at locations drawn from `rng`.
    pub fn one_of_each(t: &TallyTranscript, rng: &mut dyn Rng) -> Vec<Tamper> {
        let mut pick = |n: usize| rng.below(n as u64) as usize;
        let cascade = pick(2);
        let rounds = [&t.reg_tagging, &t.ballot_tagging][cascade];
        let round = pick(rounds.len());
        let item = pick(rounds[round].outputs.len());
        // The vote opening is empty when nothing matched.
        let opening = pick(if t.vote_opening.shares.is_empty() {
            2
        } else {
            3
        });
        let shares = &[&t.reg_opening, &t.key_opening, &t.vote_opening][opening].shares;
        let opened = pick(shares.len());
        let member = pick(shares[opened].len());
        vec![
            Tamper::TaggingOutput {
                cascade,
                round,
                item,
                comp: pick(2),
            },
            Tamper::TaggingProof {
                cascade,
                round,
                field: pick(3),
            },
            Tamper::Share {
                opening,
                item: opened,
                member,
                field: 0,
            },
            Tamper::Share {
                opening,
                item: opened,
                member,
                field: 1 + pick(3),
            },
            Tamper::OpenedPlaintext {
                opening,
                item: opened,
            },
            Tamper::MatchedIndex(match t.matched_indices.len() {
                0 => None,
                n => Some(pick(n)),
            }),
            Tamper::ClaimedCount {
                option: pick(t.result.counts.len()),
            },
        ]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tally verifier, beside the mix-cascade soak above: over random
    /// small elections it accepts the honest transcript with the tally's
    /// result, and rejects every single-field tamper of a tagging output,
    /// tagging proof, decryption share, share proof, opened plaintext,
    /// matched index or claimed count at the expected stage. (Each fold is
    /// held against its exact check in its own crate: `mixnet`, `tagging`
    /// and `dkg` unit tests.)
    #[test]
    fn tally_verify_is_tamper_sound(
        seed in any::<u64>(),
        n_voters in 1u64..4,
        mixers in 1usize..3,
        fake_counts in proptest::collection::vec(0usize..2, 3),
    ) {
        let mut rng = HmacDrbg::from_u64(seed);
        let mut election = ElectionBuilder::new()
            .voters(n_voters)
            .options(3)
            .mixers(mixers)
            .build(&mut rng);
        let mut devices = Vec::new();
        for v in 1..=n_voters {
            let fakes = fake_counts[(v - 1) as usize];
            let (_, vsd) = election
                .register_and_activate(VoterId(v), fakes, &mut rng)
                .expect("registration");
            devices.push(vsd);
        }
        let mut voting = election.open_voting();
        // The last voter abstains in every other election, so padding
        // dummies and unmatched registrations occur.
        let casting = devices.len() - (seed % 2) as usize;
        for (v, vsd) in devices.iter().take(casting).enumerate() {
            for cred in &vsd.credentials {
                voting.cast(cred, (v % 3) as u32, &mut rng).expect("cast");
            }
        }
        let tallying = voting.close();
        let mut transcript = tallying.tally(&mut rng).expect("tally");

        let verified = tallying.verify(&transcript);
        prop_assert_eq!(verified.as_ref(), Ok(&transcript.result), "honest");
        for tamper in tally_tampers::one_of_each(&transcript, &mut rng) {
            tamper.apply(&mut transcript, false);
            prop_assert_eq!(
                tallying.verify(&transcript),
                Err(VotegralError::Verification(tamper.stage())),
                "{:?}", tamper
            );
            tamper.apply(&mut transcript, true);
        }
        // Every tamper was undone: the transcript verifies again.
        prop_assert!(tallying.verify(&transcript).is_ok());
    }
}

/// The 3-voter election `batched_pipeline_replays_bit_identically` pins,
/// its ballots cast as one batch or one by one, closed for the tally, and
/// the DRBG where the tally takes it.
fn three_voter_election(batch: bool) -> (Election<Tallying>, HmacDrbg) {
    let mut rng = HmacDrbg::from_u64(4242);
    let mut election = ElectionBuilder::new().voters(3).options(3).build(&mut rng);
    let voters: Vec<VoterId> = (1..=3).map(VoterId).collect();
    let sessions = election
        .register_batch(&voters, &mut rng)
        .expect("registers");
    let mut voting = election.open_voting();
    let pairs: Vec<(&ActivatedCredential, u32)> = sessions
        .iter()
        .enumerate()
        .map(|(i, (_, vsd))| (&vsd.credentials[0], (i % 3) as u32))
        .collect();
    if batch {
        voting.cast_batch(&pairs, &mut rng).expect("batch cast");
    } else {
        for (cred, vote) in &pairs {
            voting.cast(cred, *vote, &mut rng).expect("cast");
        }
    }
    (voting.close(), rng)
}

/// The 32-voter election `tally_pin_past_the_parallel_cutoff` pins, closed
/// for the tally, and the DRBG where the tally takes it.
fn thirty_two_voter_election() -> (Election<Tallying>, HmacDrbg) {
    let mut rng = HmacDrbg::from_u64(3232);
    let mut election = ElectionBuilder::new()
        .voters(32)
        .options(3)
        .mixers(2)
        .build(&mut rng);
    let voters: Vec<VoterId> = (1..=32).map(VoterId).collect();
    let sessions = election
        .register_batch(&voters, &mut rng)
        .expect("registers");
    let mut voting = election.open_voting();
    let votes: Vec<(&ActivatedCredential, u32)> = sessions
        .iter()
        .enumerate()
        .flat_map(|(i, (_, vsd))| vsd.credentials.iter().map(move |c| (c, (i % 3) as u32)))
        .collect();
    voting.cast_batch(&votes, &mut rng).expect("casts");
    (voting.close(), rng)
}

/// Deterministic replay across the cast paths: `cast_batch` produces a
/// bit-identical `TallyTranscript` (and identical ledger heads) to
/// sequential `cast` under the same DRBG seed, and the verifier accepts
/// both — batching changes performance, never bytes.
#[test]
fn batched_pipeline_replays_bit_identically() {
    use votegral::crypto::dkg::DecryptionShare;
    use votegral::crypto::drbg::Rng;
    use votegral::crypto::elgamal::Ciphertext;
    use votegral::crypto::sha2::Sha256;
    use votegral::crypto::EdwardsPoint;
    use votegral::votegral::tagging::TaggingRound;

    let run = |batch: bool| {
        let (tallying, mut rng) = three_voter_election(batch);
        let transcript = tallying.tally(&mut rng).expect("tally");
        // Where the tally leaves the caller's DRBG: one 32-byte draw past
        // where it took it, the seed every party's coin stream derives
        // from, whatever the tally's stages draw from their own streams.
        // (Re-pinned from 7f59740f…0eda035f, the position after every coin
        // was drawn from this DRBG.)
        let next: String = rng.bytes32().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            next, "cb0b9074db0b14a990b094cdbd1814293fdffede4efff3cccf48cb4a4efb00a1",
            "the tally left the DRBG elsewhere"
        );
        let verified = tallying.verify(&transcript).expect("verifies");
        assert_eq!(verified, transcript.result);
        // `TallyTranscript`'s Debug rendering is canonical (compressed
        // points, canonical scalars), so equal digests ⇔ bit-identical
        // transcripts.
        let digest = |rendered: String| -> String {
            let mut h = Sha256::new();
            h.update(rendered.as_bytes());
            h.finalize().iter().map(|b| format!("{b:02x}")).collect()
        };
        // The transcript less its tagging and share proofs: what a change
        // to how a member *proves* a step, or to the nonces it draws, may
        // not move.
        let t = &transcript;
        fn outputs(cascade: &[TaggingRound]) -> Vec<&Vec<Ciphertext>> {
            cascade.iter().map(|r| &r.outputs).collect()
        }
        let opened = [&t.reg_opening, &t.key_opening, &t.vote_opening].map(|o| {
            let share_points = |item: &Vec<DecryptionShare>| item.iter().map(|s| s.share).collect();
            let shares: Vec<Vec<EdwardsPoint>> = o.shares.iter().map(share_points).collect();
            (&o.plaintexts, shares)
        });
        let statements = digest(format!(
            "{:?}",
            (
                (&t.ballot_mix, &t.reg_mix, &t.tag_commitments),
                (outputs(&t.reg_tagging), outputs(&t.ballot_tagging)),
                (opened, &t.matched_indices, &t.result),
            )
        ));
        (
            tallying.ledger().ballots.tree_head().root,
            (digest(format!("{transcript:?}")), statements),
            transcript.result,
        )
    };

    let sequential = run(false);
    let batched = run(true);
    assert_eq!(sequential.0, batched.0, "identical ballot ledger heads");
    assert_eq!(sequential.1, batched.1, "bit-identical tally transcripts");
    assert_eq!(sequential.2, batched.2, "identical results");
    assert_eq!(
        batched.2.counts,
        vec![1, 1, 1],
        "each voter's ballot counts"
    );
    // Two pins. The whole transcript moves only with a protocol change.
    // It was last re-pinned (from 3014678042…afeaa426) when each party's
    // coins came from its own stream derived from one seed, instead of
    // one DRBG in a fixed order: every mix, tagging key and nonce moved.
    // The second pin is the transcript less its tagging and share proofs.
    // It held when a tagging round went from 2n proofs to one batched
    // DLEQ, and moved (from b74a52e2…5729d9cc) only with the coin
    // streams, since the mixes' permutations and re-encryptions and the
    // tagging exponents are coins too. The result did not move: each
    // voter's one ballot counts (`tally_matches_its_stage_by_stage_oracle`
    // recomputes both pins' transcripts without running `tally`).
    let (transcript, statements) = batched.1;
    assert_eq!(
        transcript, "03024ec4289e526a7acb7621597a692c4d47ecd0b8f5649cad5e4aaa5761af78",
        "tally transcript bytes moved"
    );
    assert_eq!(
        statements, "b0b51a163a63c580fb026028bd5a87f67230156486f6c673bd5c5db0d08355f7",
        "something other than a proof or a nonce moved"
    );
}

/// A third pin, over a tally large enough that every prover step's
/// parallel branch runs (`par_map` maps inline below 16 items): 32
/// registration tags, 64 ballot rows (each voter casts with its real and
/// its fake credential) and 32 matched votes, so the re-encryption rows,
/// the tagging exponentiations and the share proofs all fan out; how many
/// cores run it may not move a byte. Re-pinned (from 3b3fba4a…6736a728c)
/// when each party's coins came from its own stream derived from one
/// seed; `tally_matches_its_stage_by_stage_oracle` recomputes it without
/// running `tally`.
#[test]
fn tally_pin_past_the_parallel_cutoff() {
    use votegral::crypto::sha2::Sha256;

    let (tallying, mut rng) = thirty_two_voter_election();
    let transcript = tallying.tally(&mut rng).expect("tally");
    assert_eq!(transcript.reg_inputs.len(), 32);
    assert_eq!(transcript.ballot_pair_inputs.len(), 64);
    assert_eq!(transcript.result.counted, 32);
    assert_eq!(transcript.result.counts, vec![11, 11, 10]);
    assert_eq!(
        tallying.verify(&transcript).as_ref(),
        Ok(&transcript.result)
    );
    let mut h = Sha256::new();
    h.update(format!("{transcript:?}").as_bytes());
    let digest: String = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        digest, "b7490a6532573b2685680db7cc678ddfe79116286ba9f9b1c3407d46ec428963",
        "tally transcript bytes moved"
    );
}

/// An oracle for the tally's bytes that does not run `tally`: both pinned
/// elections recomputed stage by stage through the public stage functions,
/// each on a coin stream whose label is written out here, give the whole
/// transcript byte for byte. So the pins rest on a second construction,
/// and the tally takes exactly one 32-byte seed from the caller's DRBG.
#[test]
fn tally_matches_its_stage_by_stage_oracle() {
    use votegral::crypto::dkg::{combine_with, lagrange_coefficients};
    use votegral::crypto::drbg::Rng;
    use votegral::crypto::elgamal::Ciphertext;
    use votegral::crypto::EdwardsPoint;
    use votegral::shuffle::MixCascade;
    use votegral::votegral::tagging::{apply_cascade, TaggingKey};
    use votegral::votegral::tally::{
        admit_ballots, count_votes, dummy_ciphertext, match_tags, registration_inputs,
    };
    use votegral::votegral::{TallyTranscript, VectorOpening};

    /// The caller's DRBG, recording every byte the tally draws from it.
    struct Tap<'a>(&'a mut HmacDrbg, Vec<u8>);
    impl Rng for Tap<'_> {
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.0.fill_bytes(dest);
            self.1.extend_from_slice(dest);
        }
    }

    let elections = [
        ("3 voters", three_voter_election(true)),
        ("32 voters", thirty_two_voter_election()),
    ];
    for (name, (tallying, mut rng)) in elections {
        let mut tap = Tap(&mut rng, Vec::new());
        let transcript = tallying.tally(&mut tap).expect("tally");
        let seed: [u8; 32] = tap.1[..]
            .try_into()
            .expect("the tally draws one 32-byte seed");
        // votegral-tally-coins-v1 ‖ seed ‖ chain ‖ role ‖ party, the party
        // as 8 bytes little-endian.
        let stream = |chain: u8, role: u8, party: u64| {
            let mut label = b"votegral-tally-coins-v1".to_vec();
            label.extend_from_slice(&seed);
            label.extend_from_slice(&[chain, role]);
            label.extend_from_slice(&party.to_le_bytes());
            HmacDrbg::new(&label)
        };
        let authority = &tallying.trip.authority;
        let (apk, ledger, config) = (
            authority.public_key,
            tallying.ledger(),
            tallying.vote_config,
        );
        let open = |cts: &[Ciphertext], mut coins: HmacDrbg| {
            let shares = authority.decryption_shares(cts, &mut coins);
            let first_t: Vec<u32> = authority.members[..authority.t]
                .iter()
                .map(|m| m.index)
                .collect();
            let lambdas = lagrange_coefficients(&first_t).expect("distinct indices");
            let plaintexts = cts
                .iter()
                .zip(&shares)
                .map(|(ct, item)| combine_with(ct, item, &lambdas))
                .collect();
            VectorOpening { shares, plaintexts }
        };

        let (accepted, rejected, superseded) =
            admit_ballots(ledger, config, &apk, &tallying.trip.kiosk_registry);
        let mut ballot_pair_inputs: Vec<(Ciphertext, Ciphertext)> = accepted
            .iter()
            .map(|ab| {
                let key = ab.credential_pk.decompress().expect("admitted keys decode");
                let key = Ciphertext {
                    c1: EdwardsPoint::IDENTITY,
                    c2: key,
                };
                (ab.ballot.vote_ct, key)
            })
            .collect();
        let mut reg_inputs = registration_inputs(ledger);
        let (n_ballot_dummies, n_reg_dummies) = (
            2usize.saturating_sub(ballot_pair_inputs.len()),
            2usize.saturating_sub(reg_inputs.len()),
        );
        let dummy = dummy_ciphertext();
        ballot_pair_inputs.extend(std::iter::repeat_n((dummy, dummy), n_ballot_dummies));
        reg_inputs.extend(std::iter::repeat_n(dummy, n_reg_dummies));
        let rows = ballot_pair_inputs.len().max(reg_inputs.len());
        let cascade = MixCascade::new(rows, tallying.mixers);

        let keys: Vec<TaggingKey> = authority
            .members
            .iter()
            .map(|m| TaggingKey::generate(&mut stream(b'A', b'T', m.index.into())))
            .collect();
        let reg_mix = cascade.mix(&apk, &reg_inputs, &mut stream(b'R', b'M', 0));
        let reg_tagging = apply_cascade(&keys, reg_mix.outputs(), &mut stream(b'R', b'T', 0));
        let tagged = reg_tagging.last().expect("one round per member");
        let reg_opening = open(&tagged.outputs, stream(b'R', b'O', 0));
        let ballot_mix = cascade.mix_pairs(&apk, &ballot_pair_inputs, &mut stream(b'B', b'M', 0));
        let key_column: Vec<Ciphertext> = ballot_mix.outputs().iter().map(|p| p.1).collect();
        let ballot_tagging = apply_cascade(&keys, &key_column, &mut stream(b'B', b'T', 0));
        let tagged = ballot_tagging.last().expect("one round per member");
        let key_opening = open(&tagged.outputs, stream(b'B', b'O', 0));
        let matched_indices = match_tags(&reg_opening.plaintexts, &key_opening.plaintexts);
        let matched_votes: Vec<Ciphertext> = matched_indices
            .iter()
            .map(|&i| ballot_mix.outputs()[i].0)
            .collect();
        let vote_opening = open(&matched_votes, stream(b'V', b'O', 0));
        let result = count_votes(
            config,
            &vote_opening.plaintexts,
            ballot_mix.outputs().len(),
            matched_indices.len(),
        );
        let oracle = TallyTranscript {
            config,
            accepted,
            rejected,
            superseded,
            reg_inputs,
            ballot_pair_inputs,
            n_ballot_dummies,
            n_reg_dummies,
            ballot_mix,
            reg_mix,
            tag_commitments: keys.iter().map(|k| k.commitment).collect(),
            reg_tagging,
            ballot_tagging,
            reg_opening,
            key_opening,
            matched_indices,
            vote_opening,
            result,
        };
        assert!(
            format!("{oracle:?}") == format!("{transcript:?}"),
            "{name}: the tally's transcript is not the oracle's"
        );
    }
}

/// The whole pipeline is deterministic from its seed: two elections run
/// with the same seed produce byte-identical ledger heads and results.
/// Structural tampers — a transcript whose shape, not only whose values,
/// is wrong — get the stage the sequential verifier gave them, without a
/// panic in any check that runs beside the failing one: an out-of-range
/// matched index, a tagging cascade one round short, an opening item
/// below the threshold, a mix missing a stage and a ballot input row
/// missing. The expected stages were recorded on the verifier that ran
/// its stages one after the other.
#[test]
fn structural_tampers_keep_their_stage() {
    use votegral::votegral::{TallyTranscript, VerifyStage};

    let mut rng = HmacDrbg::from_u64(5151);
    let mut election = ElectionBuilder::new()
        .voters(3)
        .options(3)
        .mixers(2)
        .build(&mut rng);
    let mut devices = Vec::new();
    for v in 1..=3u64 {
        let (_, vsd) = election
            .register_and_activate(VoterId(v), 1, &mut rng)
            .expect("registers");
        devices.push(vsd);
    }
    let mut voting = election.open_voting();
    for (v, vsd) in devices.iter().enumerate() {
        for cred in &vsd.credentials {
            voting.cast(cred, (v % 3) as u32, &mut rng).expect("cast");
        }
    }
    let tallying = voting.close();
    let transcript = tallying.tally(&mut rng).expect("tally");
    assert_eq!(
        tallying.verify(&transcript).as_ref(),
        Ok(&transcript.result)
    );

    type Edit = fn(&mut TallyTranscript);
    let cases: [(&str, Edit, VerifyStage); 9] = [
        (
            "matched index out of range",
            |t| t.matched_indices[0] = usize::MAX,
            VerifyStage::Matching,
        ),
        (
            "matched index past the mixed rows",
            |t| {
                let rows = t.ballot_mix.outputs().len();
                t.matched_indices.push(rows)
            },
            VerifyStage::Matching,
        ),
        (
            "registration tagging one round short",
            |t| {
                t.reg_tagging.pop();
            },
            VerifyStage::Tagging,
        ),
        (
            "ballot tagging one round short",
            |t| {
                t.ballot_tagging.pop();
            },
            VerifyStage::Tagging,
        ),
        (
            "tag opening item below the threshold",
            |t| {
                t.reg_opening.shares[0].pop();
            },
            VerifyStage::Decryption,
        ),
        (
            "vote opening item below the threshold",
            |t| {
                t.vote_opening.shares[0].pop();
            },
            VerifyStage::Decryption,
        ),
        (
            "ballot mix missing a stage",
            |t| {
                t.ballot_mix.stages.pop();
            },
            VerifyStage::BallotMix,
        ),
        (
            "registration mix missing a stage",
            |t| {
                t.reg_mix.stages.pop();
            },
            VerifyStage::RegistrationMix,
        ),
        (
            "ballot inputs one row short",
            |t| {
                t.ballot_pair_inputs.pop();
            },
            VerifyStage::BallotAdmission,
        ),
    ];
    for (what, edit, stage) in cases {
        let mut bad = clone_transcript(&transcript);
        edit(&mut bad);
        let verdict =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tallying.verify(&bad)))
                .unwrap_or_else(|_| panic!("{what}: the verifier panicked"));
        assert_eq!(verdict, Err(VotegralError::Verification(stage)), "{what}");
    }
}

/// A field-by-field copy of a tally transcript (the type is not `Clone`:
/// only tests copy one).
fn clone_transcript(
    t: &votegral::votegral::TallyTranscript,
) -> votegral::votegral::TallyTranscript {
    use votegral::votegral::tally::VectorOpening;
    let opening = |o: &VectorOpening| VectorOpening {
        shares: o.shares.clone(),
        plaintexts: o.plaintexts.clone(),
    };
    votegral::votegral::TallyTranscript {
        config: t.config,
        accepted: t.accepted.clone(),
        rejected: t.rejected,
        superseded: t.superseded,
        reg_inputs: t.reg_inputs.clone(),
        ballot_pair_inputs: t.ballot_pair_inputs.clone(),
        n_ballot_dummies: t.n_ballot_dummies,
        n_reg_dummies: t.n_reg_dummies,
        ballot_mix: t.ballot_mix.clone(),
        reg_mix: t.reg_mix.clone(),
        tag_commitments: t.tag_commitments.clone(),
        reg_tagging: t.reg_tagging.clone(),
        ballot_tagging: t.ballot_tagging.clone(),
        reg_opening: opening(&t.reg_opening),
        key_opening: opening(&t.key_opening),
        matched_indices: t.matched_indices.clone(),
        vote_opening: opening(&t.vote_opening),
        result: t.result.clone(),
    }
}

#[test]
fn deterministic_from_seed() {
    let run = |seed: u64| {
        let mut rng = HmacDrbg::from_u64(seed);
        let mut election = ElectionBuilder::new().voters(2).options(2).build(&mut rng);
        let mut devices = Vec::new();
        for v in 1..=2u64 {
            let (_, vsd) = election
                .register_and_activate(VoterId(v), 1, &mut rng)
                .unwrap();
            devices.push(vsd);
        }
        let mut voting = election.open_voting();
        for (v, vsd) in devices.iter().enumerate() {
            voting
                .cast(&vsd.credentials[0], ((v + 1) % 2) as u32, &mut rng)
                .unwrap();
        }
        let tallying = voting.close();
        let transcript = tallying.tally(&mut rng).unwrap();
        (
            tallying.ledger().registration.tree_head().root,
            tallying.ledger().ballots.tree_head().root,
            transcript.result,
        )
    };
    let a = run(777);
    let b = run(777);
    assert_eq!(a.0, b.0, "registration heads identical");
    assert_eq!(a.1, b.1, "ballot heads identical");
    assert_eq!(a.2, b.2, "results identical");
    let c = run(778);
    assert_ne!(a.0, c.0, "different seeds diverge");
}
