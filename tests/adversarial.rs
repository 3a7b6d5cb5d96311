//! Adversarial integration tests: the integrity adversary's attack
//! surface across crates — malicious kiosks, duplicated envelopes,
//! impersonation, and coercion-resistance structure.

use votegral::crypto::batch::CommittedWeights;
use votegral::crypto::chaum_pedersen::{
    prove_dleq, verify_dleq, verify_transcript, DlEqStatement, IzkpTranscript,
};
use votegral::crypto::drbg::Rng;
use votegral::crypto::elgamal::{encrypt_point, Ciphertext};
use votegral::crypto::{CompressedPoint, EdwardsPoint, HmacDrbg, Scalar, Transcript};
use votegral::ledger::VoterId;
use votegral::shuffle::MixCascade;
use votegral::sim::coercion::credentials_structurally_indistinguishable;
use votegral::trip::protocol::{activate_all, register_voter, trace_shows_honest_real_flow};
use votegral::trip::{ActivationCheck, KioskBehavior, TripConfig, TripError, TripSystem};
use votegral::votegral::election::{Election, Tallying};
use votegral::votegral::{ElectionBuilder, TallyTranscript, VerifyStage, VotegralError};

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
fn malicious_mixer_in_cascade_caught_by_both_cascade_verifiers() {
    // A single malicious mixer in an M-mixer cascade substitutes a
    // non-permutation — dropping a ballot, duplicating one, or flipping
    // one for a ciphertext of its choosing. Whatever the stage and
    // whatever the substitution, both the per-stage verifier (`verify`)
    // and the random-linear-combination fold the tally verifier runs
    // (`verify_batch`) reject the cascade transcript: a mixer cannot hide
    // behind the folding.
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
            "{label}: per-stage verifier accepted a non-permutation"
        );
        assert!(
            cascade.verify_batch(&kp.pk, bad, 2).is_err(),
            "{label}: folded verifier accepted a non-permutation"
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

/// An RNG that remembers every byte drawn from it, so a test can take
/// the tally's seed and play a tagging member on its own coin stream.
struct Recording<'a> {
    inner: &'a mut HmacDrbg,
    drawn: Vec<u8>,
}

impl Rng for Recording<'_> {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
        self.drawn.extend_from_slice(dest);
    }
}

/// Three voters, one real ballot each on options 0, 1, 2, voting closed.
fn three_ballot_election(rng: &mut HmacDrbg) -> Election<Tallying> {
    let mut election = ElectionBuilder::new().voters(3).options(3).build(rng);
    let devices: Vec<_> = (1..=3u64)
        .map(|v| {
            election
                .register_and_activate(VoterId(v), 0, rng)
                .unwrap()
                .1
        })
        .collect();
    let mut voting = election.open_voting();
    for (v, vsd) in devices.iter().enumerate() {
        voting.cast(&vsd.credentials[0], v as u32, rng).unwrap();
    }
    voting.close()
}

/// The verifier rejects `transcript`, naming the tagging stage.
fn assert_caught_at_tagging(
    tallying: &Election<Tallying>,
    transcript: &TallyTranscript,
    what: &str,
) {
    assert_eq!(
        tallying.verify(transcript),
        Err(VotegralError::Verification(VerifyStage::Tagging)),
        "{what}"
    );
}

/// A tagging round's composites G = Σ wₖ·inₖ and Y = Σ wₖ·outₖ, derived
/// here from the published format alone (one chunk: at most 512
/// ciphertexts) — what a member, honest or not, must prove over.
fn tagging_composites(
    commitment: &EdwardsPoint,
    inputs: &[Ciphertext],
    outputs: &[Ciphertext],
) -> (EdwardsPoint, EdwardsPoint) {
    assert!(inputs.len() == outputs.len() && inputs.len() <= 512);
    let mut seal = CommittedWeights::new(b"votegral-tagging-weights-v1");
    seal.absorb(&commitment.compress().0);
    seal.absorb(&(inputs.len() as u64).to_le_bytes());
    for (input, output) in inputs.iter().zip(outputs) {
        for point in [input.c1, input.c2, output.c1, output.c2] {
            seal.absorb(&point.compress().0);
        }
    }
    let weights = seal.absorb(&0u64.to_le_bytes()).weights(2 * inputs.len());
    let fold = |vector: &[Ciphertext]| {
        let components = vector.iter().flat_map(|c| [c.c1, c.c2]);
        components.zip(&weights).map(|(p, w)| p * w).sum()
    };
    (fold(inputs), fold(outputs))
}

#[test]
fn torsion_offset_by_last_tagging_member_cannot_unmatch_a_ballot() {
    // Transcript points are curve-checked, not subgroup-checked, so a
    // tagging round's proof only pins its outputs modulo the 8-torsion.
    // The LAST tagging member adds the order-2 point T₂ to one victim's
    // tagged key before it proves: Y moves off sᵢ·G by wₖ·T₂, which is
    // nothing when the victim's weight is even and otherwise leaves an
    // error e·T₂. Every check takes the proof modulo E[8], so it passes
    // the single check and the verifier's fold alike, the opened blinded
    // key becomes P + T₂, and a matching that compares raw encodings would
    // silently drop the victim's ballot. Decisions are taken on cofactor-cleared
    // points instead, so the result must not move — for the tally's own
    // matching and for the verifier.
    let mut rng = HmacDrbg::from_u64(77);
    let tallying = three_ballot_election(&mut rng);
    let mut recording = Recording {
        inner: &mut rng,
        drawn: Vec::new(),
    };
    let mut transcript = tallying.tally(&mut recording).unwrap();
    let honest_result = transcript.result.clone();
    assert_eq!(honest_result.counts, vec![1, 1, 1]);

    // The last member's exponent: the first draw of its tagging-key
    // stream, on `votegral-tally-coins-v1 ‖ seed ‖ b'A' ‖ b'T' ‖ index`,
    // the seed being the tally's one 32-byte draw from this RNG.
    let commitment = *transcript.tag_commitments.last().unwrap();
    assert_eq!(recording.drawn.len(), 32, "the tally draws one seed");
    let member = tallying.trip.authority.members.last().unwrap().index;
    let mut label = b"votegral-tally-coins-v1".to_vec();
    label.extend_from_slice(&recording.drawn);
    label.extend_from_slice(b"AT");
    label.extend_from_slice(&u64::from(member).to_le_bytes());
    let secret = HmacDrbg::new(&label).scalar();
    assert_eq!(EdwardsPoint::mul_base(&secret), commitment);

    // T₂ = (0, −1).
    let mut enc = [0xffu8; 32];
    enc[0] = 0xec;
    enc[31] = 0x7f;
    let t2 = CompressedPoint(enc).decompress().unwrap();
    assert!(t2.is_small_order() && !t2.is_identity());

    // The victim: a matched (real) ballot. Shift its tagged key; the
    // honest proof was made over other outputs and no longer stands.
    let victim = transcript.matched_indices[0];
    let rounds = transcript.ballot_tagging.len();
    let inputs = transcript.ballot_tagging[rounds - 2].outputs.clone();
    let last = &mut transcript.ballot_tagging[rounds - 1];
    last.outputs[victim].c2 += t2;
    // The shares depend on C₁ alone and stay valid; the recombined
    // plaintext inherits the offset.
    transcript.key_opening.plaintexts[victim] += t2;
    assert_caught_at_tagging(&tallying, &transcript, "stale proof");

    // Re-prove over the shifted outputs: the first proof passes.
    let last = &mut transcript.ballot_tagging[rounds - 1];
    let (g, y) = tagging_composites(&commitment, &inputs, &last.outputs);
    assert!(y == g * secret || y == g * secret + t2);
    let stmt = DlEqStatement {
        g1: EdwardsPoint::basepoint(),
        y1: commitment,
        g2: g,
        y2: y,
    };
    let bound = || {
        let mut t = Transcript::new(b"votegral-tagging-round-v1");
        t.append_u64(b"tag-n", inputs.len() as u64);
        t
    };
    last.proof = prove_dleq(&mut bound(), &stmt, &secret, &mut rng);
    assert_eq!(verify_dleq(&mut bound(), &stmt, &last.proof), Ok(()));

    // The tally's own decision…
    let matched = votegral::votegral::tally::match_tags(
        &transcript.reg_opening.plaintexts,
        &transcript.key_opening.plaintexts,
    );
    assert_eq!(
        matched, transcript.matched_indices,
        "the victim stays matched"
    );
    // …and the verifier's.
    assert_eq!(tallying.verify(&transcript), Ok(honest_result));
}

#[test]
fn one_bad_tagged_output_cannot_hide_behind_the_round_proof() {
    // A round carries one proof for all its outputs. A member that tags
    // every ciphertext but one correctly is still caught — whichever
    // cascade, round, position and component the bad one sits at — and
    // the verifier names the tagging stage.
    let mut rng = HmacDrbg::from_u64(78);
    let tallying = three_ballot_election(&mut rng);
    let mut transcript = tallying.tally(&mut rng).unwrap();
    fn component(t: &mut TallyTranscript, at: [usize; 4]) -> &mut EdwardsPoint {
        let [side, round, item, comp] = at;
        let cascade = if side == 0 {
            &mut t.reg_tagging
        } else {
            &mut t.ballot_tagging
        };
        let ct = &mut cascade[round].outputs[item];
        if comp == 0 {
            &mut ct.c1
        } else {
            &mut ct.c2
        }
    }
    let b = EdwardsPoint::basepoint();
    let rounds = transcript.reg_tagging.len();
    let items = transcript.reg_tagging[0].outputs.len();
    for i in 0..2 * rounds * items * 2 {
        let at = [
            i / (2 * items * rounds),
            i / (2 * items) % rounds,
            i / 2 % items,
            i % 2,
        ];
        *component(&mut transcript, at) += b;
        let what = format!("[side, round, output, component] = {at:?}");
        assert_caught_at_tagging(&tallying, &transcript, &what);
        *component(&mut transcript, at) -= b;
    }
    tallying.verify(&transcript).expect("every tamper undone");
}

#[test]
fn tagging_cascades_cannot_be_swapped_between_sides() {
    // Both cascades come from the same members and, here, have the same
    // length — yet a round verifies only against the input vector its
    // weights absorbed, so the registration-side rounds do not pass for
    // the ballot side or the other way round.
    let mut rng = HmacDrbg::from_u64(79);
    let tallying = three_ballot_election(&mut rng);
    let mut transcript = tallying.tally(&mut rng).unwrap();
    assert_eq!(
        transcript.reg_tagging[0].outputs.len(),
        transcript.ballot_tagging[0].outputs.len()
    );
    std::mem::swap(&mut transcript.reg_tagging, &mut transcript.ballot_tagging);
    assert_caught_at_tagging(&tallying, &transcript, "cascades swapped");
    std::mem::swap(&mut transcript.reg_tagging, &mut transcript.ballot_tagging);
    // Nor does one member's proof for one side stand in for its proof,
    // over as many ciphertexts under the same exponent, for the other.
    for round in 0..transcript.reg_tagging.len() {
        let sides = (&mut transcript.reg_tagging, &mut transcript.ballot_tagging);
        std::mem::swap(&mut sides.0[round].proof, &mut sides.1[round].proof);
        assert_caught_at_tagging(
            &tallying,
            &transcript,
            &format!("round {round}'s proofs swapped"),
        );
        let sides = (&mut transcript.reg_tagging, &mut transcript.ballot_tagging);
        std::mem::swap(&mut sides.0[round].proof, &mut sides.1[round].proof);
    }
    tallying.verify(&transcript).expect("every swap undone");
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
