//! Workspace-level property-based tests: protocol invariants under random
//! configurations, decoder totality on adversarial bytes, determinism,
//! and backend equivalence.

use std::path::PathBuf;

use proptest::prelude::*;
use votegral::crypto::schnorr::SigningKey;
use votegral::crypto::{CompressedPoint, HmacDrbg, Scalar};
use votegral::ledger::{BallotRecord, LedgerBackend, TamperEvidentLog, VoterId};
use votegral::shuffle::VerifyMode;
use votegral::trip::vsd::ActivatedCredential;
use votegral::votegral::{Ballot, ElectionBuilder, VotegralError};

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
    /// either width: both modes accept the honest transcript, or both reject
    /// one single-field tamper of it.
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

    /// The sharded, in-memory and durable backends are interchangeable:
    /// the same seeded election produces identical counts and transcript
    /// verdicts on all three, `cast_batch` matches sequential `cast`,
    /// and — because the WAL backend hashes the same flat Merkle tree —
    /// the durable ledger heads are bit-identical to in-memory, not
    /// merely equivalent.
    #[test]
    fn backends_and_batching_equivalent(
        seed in any::<u64>(),
        n_voters in 1u64..4,
        shards in 1usize..6,
    ) {
        let run = |backend: LedgerBackend, batch: bool| {
            let mut rng = HmacDrbg::from_u64(seed);
            let mut election = ElectionBuilder::new()
                .voters(n_voters)
                .options(2)
                .backend(backend)
                .threads(2)
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
        let (head_sh_batch, result_sh_batch) = run(LedgerBackend::sharded(shards), true);
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
        // The sharded backend commits differently but counts identically.
        prop_assert_eq!(&result_mem_seq.counts, &result_sh_batch.counts);
        prop_assert_eq!(result_mem_seq.counted, result_sh_batch.counted);
        prop_assert_eq!(result_mem_seq.unmatched, result_sh_batch.unmatched);
        let _ = head_sh_batch;
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

    /// Batched cascade verification accepts **iff** per-stage sequential
    /// verification accepts: honest transcripts (random sizes, random
    /// mixer counts, single and pair cascades) pass both ways, and a soak
    /// of single-field tampers — one random field of one random stage's
    /// proof or outputs — is rejected by both; no tamper survives the
    /// random-linear-combination folding.
    #[test]
    fn batch_verification_equivalent_and_tamper_sound(
        n in 2usize..6,
        mixers in 1usize..5,
        use_pair in any::<bool>(),
        tamper_seed in any::<u64>(),
    ) {
        let fx = mix_fixtures::get(n, mixers);
        let mut rng = HmacDrbg::from_u64(tamper_seed);
        // A slice of cases re-checks honest acceptance under both modes;
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

    /// The tally's batched verification (folded tagging rounds, folded
    /// openings) against its sequential reference, beside the mix-cascade
    /// soak above: over random small elections the two modes accept the
    /// honest transcript with the same result, and every single-field
    /// tamper of a tagging output, tagging proof, decryption share, share
    /// proof, opened plaintext, matched index or claimed count is rejected
    /// by both at the same — the expected — stage.
    #[test]
    fn tally_verify_modes_equivalent_and_tamper_sound(
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

        let modes = [VerifyMode::Sequential, VerifyMode::Batched];
        for mode in modes {
            let verified = tallying.verify_with_mode(&transcript, mode);
            prop_assert_eq!(verified.as_ref(), Ok(&transcript.result), "honest, {:?}", mode);
        }
        for tamper in tally_tampers::one_of_each(&transcript, &mut rng) {
            tamper.apply(&mut transcript, false);
            for mode in modes {
                prop_assert_eq!(
                    tallying.verify_with_mode(&transcript, mode),
                    Err(VotegralError::Verification(tamper.stage())),
                    "{:?} under {:?}", tamper, mode
                );
            }
            tamper.apply(&mut transcript, true);
        }
        // Every tamper was undone: the transcript verifies again.
        prop_assert!(tallying.verify(&transcript).is_ok());
    }
}

/// Deterministic replay across the batch paths: `cast_batch` + batched
/// tally verification produces a bit-identical `TallyTranscript` (and
/// identical ledger heads) to sequential `cast` + sequential verification
/// under the same DRBG seed — batching changes performance, never bytes.
#[test]
fn batched_pipeline_replays_bit_identically() {
    use votegral::crypto::dkg::DecryptionShare;
    use votegral::crypto::elgamal::Ciphertext;
    use votegral::crypto::sha2::Sha256;
    use votegral::crypto::EdwardsPoint;
    use votegral::votegral::tagging::TaggingRound;

    let run = |batch: bool, mode: VerifyMode| {
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
        let tallying = voting.close();
        let transcript = tallying.tally(&mut rng).expect("tally");
        let verified = tallying
            .verify_with_mode(&transcript, mode)
            .expect("verifies");
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

    let sequential = run(false, VerifyMode::Sequential);
    let batched = run(true, VerifyMode::Batched);
    assert_eq!(sequential.0, batched.0, "identical ballot ledger heads");
    assert_eq!(sequential.1, batched.1, "bit-identical tally transcripts");
    assert_eq!(sequential.2, batched.2, "identical results");
    // Two pins. The whole transcript moves only with a protocol change,
    // and was re-pinned for one (from 303fca99…3a939293): since PR 22 a
    // tagging round carries one batched DLEQ and draws one nonce where it
    // carried 2n proofs and drew 2n, so the rounds' proofs changed shape
    // and every later draw — the openings' nonces — moved. The second pin
    // was computed on the commit *before* that change and did not move
    // with it: mixes, tagging commitments and outputs, opened plaintexts
    // and share points, matching and result are what they were.
    let (transcript, statements) = batched.1;
    assert_eq!(
        transcript, "3014678042c5a88a7df39f89e1e4fe969099de2d3d595c9651f4a37aafeaa426",
        "tally transcript bytes moved"
    );
    assert_eq!(
        statements, "b74a52e21a3c7e00cb8404103748cf37a5952b5193ce2a55c635b3cd5729d9cc",
        "something other than a proof or a nonce moved"
    );
}

/// The whole pipeline is deterministic from its seed: two elections run
/// with the same seed produce byte-identical ledger heads and results.
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
