//! Adversarial integration tests: the integrity adversary's attack
//! surface across crates — malicious kiosks, duplicated envelopes,
//! impersonation, and coercion-resistance structure.

use votegral::crypto::chaum_pedersen::{
    prove_dleq, verify_dleq, verify_transcript, DlEqStatement, IzkpTranscript,
};
use votegral::crypto::drbg::Rng;
use votegral::crypto::elgamal::{encrypt_point, Ciphertext};
use votegral::crypto::{CompressedPoint, EdwardsPoint, HmacDrbg, Scalar, Transcript};
use votegral::ledger::VoterId;
use votegral::shuffle::{MixCascade, VerifyMode};
use votegral::sim::coercion::credentials_structurally_indistinguishable;
use votegral::trip::protocol::{activate_all, register_voter, trace_shows_honest_real_flow};
use votegral::trip::{ActivationCheck, KioskBehavior, TripConfig, TripError, TripSystem};
use votegral::votegral::ElectionBuilder;

#[test]
fn stolen_credential_lets_adversary_vote_as_victim() {
    // The other half of the §5.1 story: when the malicious kiosk is NOT
    // detected, the stolen credential genuinely works — which is why
    // detection probability matters. The victim's "real" credential is
    // fake; the kiosk's retained key casts the counted vote.
    let mut rng = HmacDrbg::from_u64(1);
    let mut election = {
        let trip = TripSystem::setup_with_behavior(
            TripConfig::with_voters(2),
            KioskBehavior::StealsRealCredential,
            &mut rng,
        );
        ElectionBuilder::new().options(2).build_with_system(trip)
    };

    let mut outcome = register_voter(&mut election.trip, VoterId(1), 0, &mut rng).unwrap();
    assert!(!trace_shows_honest_real_flow(&outcome.events));
    let victim_vsd = activate_all(&mut election.trip, &mut outcome).unwrap();

    let mut voting = election.open_voting();
    // The victim votes with what they believe is real.
    voting
        .cast(&victim_vsd.credentials[0], 0, &mut rng)
        .unwrap();

    // The adversary votes with the stolen real credential. It has no σ_kr
    // receipt (that went to the victim's fake), so the adversary forges a
    // ballot the same way an outsider would — and admission rejects it…
    let stolen = voting.trip.adversary_loot[0].key.clone();
    let mut forged = victim_vsd.credentials[0].clone();
    forged.key = stolen;
    voting.cast(&forged, 1, &mut rng).unwrap();

    let election = voting.close();
    let transcript = election.tally(&mut rng).unwrap();
    // …so neither ballot counts: the victim's is fake (unmatched), the
    // adversary's lacks issuance evidence (rejected). The attack silences
    // the victim rather than flipping their vote — still an integrity
    // violation the voter can only catch via the process ordering (§7.5)
    // or the registration notification (Appendix J).
    assert_eq!(transcript.rejected, 1);
    assert_eq!(transcript.result.counts, vec![0, 0]);
    // Unmatched: the victim's (actually fake) ballot plus the padding
    // dummy that tops the mix up to two pairs.
    assert_eq!(transcript.result.unmatched, 2);
    election.verify(&transcript).unwrap();
}

#[test]
fn duplicated_envelopes_detected_at_activation() {
    // Appendix F.3.5: a registrar stuffing duplicate envelopes is caught
    // when two voters' activations reveal the same challenge.
    let mut rng = HmacDrbg::from_u64(2);
    let mut system = TripSystem::setup(TripConfig::with_voters(2), &mut rng);

    // The corrupt printer slips duplicated envelopes into the booth.
    let printer = &system.printers[0];
    let dupes = printer
        .print_duplicates(&mut system.ledger.envelopes, 2, &mut rng)
        .expect("prints duplicates");
    system.booth_envelopes.clear();
    system.booth_envelopes.extend(dupes);
    // Stock a couple of honest envelopes too (for symbol matching).
    let honest = printer
        .print_batch(&mut system.ledger.envelopes, 20, &mut rng)
        .expect("prints");
    system.booth_envelopes.extend(honest);

    // Two voters register; force each real credential onto a duplicate by
    // having voters use fakes=0 and rigged selection: we simply run both
    // and check that IF both consumed a duplicate, the second activation
    // trips the ledger.
    let mut o1 = register_voter(&mut system, VoterId(1), 0, &mut rng).unwrap();
    let mut o2 = register_voter(&mut system, VoterId(2), 0, &mut rng).unwrap();
    let e1 = o1.believed_real.envelope.challenge;
    let e2 = o2.believed_real.envelope.challenge;

    let r1 = activate_all(&mut system, &mut o1);
    let r2 = activate_all(&mut system, &mut o2);
    if e1 == e2 {
        // Both used a stuffed envelope: second activation must fail.
        assert!(r1.is_ok());
        assert_eq!(
            r2.unwrap_err(),
            TripError::Activation(ActivationCheck::DuplicateChallenge)
        );
    } else {
        // At least the ledger held: both activations are fine and the
        // revealed challenges are distinct.
        assert!(r1.is_ok() && r2.is_ok());
    }
}

#[test]
fn impersonation_triggers_notification_and_reregistration() {
    // Appendix J: a look-alike registers as the victim; the victim's
    // device sees a registration event it didn't initiate, and the victim
    // re-registers, invalidating the impersonator's credential.
    let mut rng = HmacDrbg::from_u64(3);
    let mut system = TripSystem::setup(TripConfig::with_voters(2), &mut rng);

    // Impersonator registers as voter 1.
    let mut stolen_session = register_voter(&mut system, VoterId(1), 0, &mut rng).unwrap();

    // The victim's device monitors the ledger: an unexpected event.
    let mut victim_device = votegral::trip::Vsd::new();
    victim_device.notify_registration(VoterId(1));
    let unexpected = victim_device.unexpected_registrations(&[]);
    assert_eq!(unexpected, vec![VoterId(1)]);

    // Victim re-registers: the impersonator's record is superseded…
    let mut honest_session = register_voter(&mut system, VoterId(1), 0, &mut rng).unwrap();
    // …and the impersonator's credential no longer activates.
    let err = activate_all(&mut system, &mut stolen_session).unwrap_err();
    assert_eq!(err, TripError::Activation(ActivationCheck::LedgerMismatch));
    // The honest credential works.
    let vsd = activate_all(&mut system, &mut honest_session).unwrap();
    assert_eq!(vsd.credentials.len(), 1);
}

#[test]
fn printed_transcripts_carry_no_realness_bit() {
    // §4.3's central claim, checked on real artifacts: the Σ-transcripts
    // on a real and a fake receipt both verify under the same public
    // verifier, so the paper trail cannot prove which is real.
    let mut rng = HmacDrbg::from_u64(4);
    let mut system = TripSystem::setup(TripConfig::with_voters(1), &mut rng);
    let outcome = register_voter(&mut system, VoterId(1), 1, &mut rng).unwrap();

    let apk = system.authority.public_key;
    for (label, cred) in [
        ("real", &outcome.believed_real),
        ("fake", &outcome.fakes[0]),
    ] {
        let commit_qr = &cred.receipt.commit_qr;
        let response_qr = &cred.receipt.response_qr;
        let c_pk = EdwardsPoint::mul_base(&response_qr.credential_sk);
        let stmt = DlEqStatement {
            g1: EdwardsPoint::basepoint(),
            y1: commit_qr.c_pc.c1,
            g2: apk,
            y2: commit_qr.c_pc.c2 - c_pk,
        };
        let transcript = IzkpTranscript {
            commit: commit_qr.commit,
            challenge: cred.envelope.challenge,
            response: response_qr.response,
        };
        assert!(
            verify_transcript(&stmt, &transcript),
            "{label} transcript verifies identically"
        );
    }
    assert!(credentials_structurally_indistinguishable(&mut rng));
}

#[test]
fn malicious_mixer_in_cascade_caught_by_both_verify_modes() {
    // A single malicious mixer in an M-mixer cascade substitutes a
    // non-permutation — dropping a ballot, duplicating one, or flipping
    // one for a ciphertext of its choosing. Whatever the stage and
    // whatever the substitution, both the sequential per-stage verifier
    // and the batched random-linear-combination verifier reject the
    // cascade transcript: a mixer cannot hide behind the folding.
    let mut rng = HmacDrbg::from_u64(77);
    let kp = votegral::crypto::elgamal::ElGamalKeyPair::generate(&mut rng);
    let n = 6usize;
    let mixers = 4usize;
    let inputs: Vec<Ciphertext> = (1..=n as u64)
        .map(|i| {
            let m = EdwardsPoint::mul_base(&Scalar::from_u64(i));
            encrypt_point(&kp.pk, &m, &mut rng).0
        })
        .collect();
    let cascade = MixCascade::new(n, mixers);
    let honest = cascade.mix(&kp.pk, &inputs, &mut rng);
    assert!(cascade.verify(&kp.pk, &honest).is_ok());
    assert!(cascade.verify_batch(&kp.pk, &honest, 2).is_ok());

    let reject_both = |label: &str, bad: &votegral::shuffle::MixTranscript| {
        assert!(
            cascade.verify(&kp.pk, bad).is_err(),
            "{label}: sequential verifier accepted a non-permutation"
        );
        assert!(
            cascade
                .verify_with(&kp.pk, bad, VerifyMode::Batched, 2)
                .is_err(),
            "{label}: batched verifier accepted a non-permutation"
        );
    };

    for malicious_stage in 0..mixers {
        // Drop: the mixer loses ballot 0 and pads with a fresh dummy so
        // the count still matches.
        let mut bad = honest.clone();
        let pad = encrypt_point(&kp.pk, &EdwardsPoint::IDENTITY, &mut rng).0;
        bad.stages[malicious_stage].outputs[0] = pad;
        reject_both(&format!("drop@{malicious_stage}"), &bad);

        // Duplicate: ballot 1 is emitted twice, displacing ballot 0.
        let mut bad = honest.clone();
        bad.stages[malicious_stage].outputs[0] = bad.stages[malicious_stage].outputs[1];
        reject_both(&format!("duplicate@{malicious_stage}"), &bad);

        // Flip: ballot 2 is replaced by an encryption of the mixer's
        // chosen vote.
        let mut bad = honest.clone();
        let forged = encrypt_point(&kp.pk, &EdwardsPoint::mul_base(&rng.scalar()), &mut rng).0;
        bad.stages[malicious_stage].outputs[2] = forged;
        reject_both(&format!("flip@{malicious_stage}"), &bad);
    }
}

/// An RNG that remembers every 64-byte draw, so a test can play the
/// tagging member whose exponent the tally sampled.
struct Recording<'a> {
    inner: &'a mut HmacDrbg,
    wide_draws: Vec<[u8; 64]>,
}

impl Rng for Recording<'_> {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
        if let Ok(wide) = <[u8; 64]>::try_from(&*dest) {
            self.wide_draws.push(wide);
        }
    }
}

#[test]
fn torsion_offset_by_last_tagging_member_cannot_unmatch_a_ballot() {
    // Transcript points are curve-checked, not subgroup-checked, so a
    // Chaum–Pedersen proof only pins its statement modulo the 8-torsion:
    // adding the order-2 point T₂ to y₂ leaves an error e·T₂, which
    // vanishes whenever the challenge e is even — the prover grinds its
    // nonce. The LAST tagging member does exactly that to one victim's
    // tagged key. Every proof still verifies, the opened blinded key
    // becomes P + T₂, and a matching that compares raw encodings would
    // silently drop the victim's ballot. Decisions are taken on
    // cofactor-cleared points instead, so the result must not move — for
    // the tally's own matching and under both verification modes.
    let mut rng = HmacDrbg::from_u64(77);
    let mut election = ElectionBuilder::new().voters(3).options(3).build(&mut rng);
    let devices: Vec<_> = (1..=3u64)
        .map(|v| {
            election
                .register_and_activate(VoterId(v), 0, &mut rng)
                .unwrap()
                .1
        })
        .collect();
    let mut voting = election.open_voting();
    for (v, vsd) in devices.iter().enumerate() {
        voting
            .cast(&vsd.credentials[0], v as u32, &mut rng)
            .unwrap();
    }
    let tallying = voting.close();
    let mut recording = Recording {
        inner: &mut rng,
        wide_draws: Vec::new(),
    };
    let mut transcript = tallying.tally(&mut recording).unwrap();
    let honest_result = transcript.result.clone();
    assert_eq!(honest_result.counts, vec![1, 1, 1]);

    // The last member's exponent: the draw whose image is its commitment.
    let commitment = *transcript.tag_commitments.last().unwrap();
    let secret = recording
        .wide_draws
        .iter()
        .map(Scalar::from_bytes_wide)
        .find(|s| EdwardsPoint::mul_base(s) == commitment)
        .expect("the tally drew the tagging exponent from this RNG");

    // T₂ = (0, −1).
    let mut enc = [0xffu8; 32];
    enc[0] = 0xec;
    enc[31] = 0x7f;
    let t2 = CompressedPoint(enc).decompress().unwrap();
    assert!(t2.is_small_order() && !t2.is_identity());

    // The victim: a matched (real) ballot. Shift its tagged key, regrind
    // the second component's proof until the challenge is even.
    let victim = transcript.matched_indices[0];
    let rounds = transcript.ballot_tagging.len();
    let input = transcript.ballot_tagging[rounds - 2].outputs[victim];
    let last = &mut transcript.ballot_tagging[rounds - 1];
    last.outputs[victim].c2 += t2;
    let stmt = DlEqStatement {
        g1: EdwardsPoint::basepoint(),
        y1: commitment,
        g2: input.c2,
        y2: last.outputs[victim].c2,
    };
    let bound = || {
        let mut t = Transcript::new(b"votegral-tagging");
        t.append_u64(b"tag-idx", victim as u64);
        t.append_u64(b"tag-comp", 1);
        t
    };
    let ground = (0..64)
        .map(|_| prove_dleq(&mut bound(), &stmt, &secret, &mut rng))
        .find(|proof| verify_dleq(&mut bound(), &stmt, proof).is_ok())
        .expect("half of all nonces give an even challenge");
    last.proofs[victim][1] = ground;
    // The shares depend on C₁ alone and stay valid; the recombined
    // plaintext inherits the offset.
    transcript.key_opening.plaintexts[victim] += t2;

    // The tally's own decision…
    let matched = votegral::votegral::tally::match_tags(
        &transcript.reg_opening.plaintexts,
        &transcript.key_opening.plaintexts,
    );
    assert_eq!(
        matched, transcript.matched_indices,
        "the victim stays matched"
    );
    // …and the verifier's, in both modes.
    for mode in [VerifyMode::Sequential, VerifyMode::Batched] {
        assert_eq!(
            tallying.verify_with_mode(&transcript, mode),
            Ok(honest_result.clone()),
            "{mode:?}"
        );
    }
}

#[test]
fn registration_ledger_tamper_evidence() {
    // Any rewrite of registration history breaks the consistency chain.
    let mut rng = HmacDrbg::from_u64(5);
    let mut system = TripSystem::setup(TripConfig::with_voters(3), &mut rng);
    register_voter(&mut system, VoterId(1), 0, &mut rng).unwrap();
    let old_head = system.ledger.registration.tree_head();
    register_voter(&mut system, VoterId(2), 0, &mut rng).unwrap();
    register_voter(&mut system, VoterId(3), 0, &mut rng).unwrap();
    let new_head = system.ledger.registration.tree_head();

    let proof = system
        .ledger
        .registration
        .prove_consistency(old_head.size as usize);
    assert!(votegral::ledger::verify_consistency_heads(
        &old_head, &new_head, &proof
    ));

    // A head from a *different* history does not chain.
    let mut other_rng = HmacDrbg::from_u64(6);
    let mut other = TripSystem::setup(TripConfig::with_voters(3), &mut other_rng);
    register_voter(&mut other, VoterId(1), 0, &mut other_rng).unwrap();
    register_voter(&mut other, VoterId(2), 0, &mut other_rng).unwrap();
    register_voter(&mut other, VoterId(3), 0, &mut other_rng).unwrap();
    let forged_head = other.ledger.registration.tree_head();
    let forged_proof = other.ledger.registration.prove_consistency(1);
    assert!(!votegral::ledger::verify_consistency_heads(
        &old_head,
        &forged_head,
        &forged_proof
    ));
}
