//! Admission errors at check-out, on L_R, L_E and L_V: a single record and
//! a batch whose offender sits in the middle fail with the same typed
//! error, and leave the ledger's `(size, root)` where it was.

use vg_crypto::elgamal::encrypt_point;
use vg_crypto::schnorr::{NonceCoupon, SigningKey};
use vg_crypto::{CompressedPoint, CryptoError, EdwardsPoint, HmacDrbg, Rng};
use vg_ledger::{challenge_hash, BallotRecord, EnvelopeCommitment, Ledger, LedgerError};
use vg_ledger::{RegistrationRecord, TreeHead, VoterId};
use vg_trip::materials::CheckOutQr;
use vg_trip::{Official, TripError};

/// An encoding that is not a curve point.
fn undecodable() -> CompressedPoint {
    (2u8..)
        .map(|b| CompressedPoint([b; 32]))
        .find(|c| c.decompress().is_none())
        .expect("some y has no x")
}

/// A check-out ticket for `voter` signed by `kiosk`.
fn ticket(voter: u64, kiosk: &SigningKey, rng: &mut HmacDrbg) -> CheckOutQr {
    let (voter_id, pk) = (VoterId(voter), EdwardsPoint::mul_base(&rng.scalar()));
    let (c_pc, _) = encrypt_point(&pk, &EdwardsPoint::mul_base(&rng.scalar()), rng);
    let kiosk_sig = kiosk.sign(&RegistrationRecord::kiosk_message(voter_id, &c_pc));
    let kiosk_pk = kiosk.public_key_compressed();
    CheckOutQr {
        voter_id,
        c_pc,
        kiosk_pk,
        kiosk_sig,
    }
}

fn size_root(head: TreeHead) -> (u64, [u8; 32]) {
    (head.size, head.root)
}

#[test]
fn checkout_errors_match_one_by_one_and_batched() {
    let mut rng = HmacDrbg::from_u64(34);
    let mut ledger = Ledger::new((1..=4).map(VoterId).collect(), &mut rng);
    let official = Official::new([3u8; 32], &mut rng);
    let kiosk = SigningKey::generate(&mut rng);
    let registry = [kiosk.public_key_compressed(), undecodable()];
    let unknown = ticket(2, &SigningKey::generate(&mut rng), &mut rng);
    let mut garbled = ticket(2, &kiosk, &mut rng);
    garbled.kiosk_pk = undecodable();
    let mut forged = ticket(2, &kiosk, &mut rng);
    forged.kiosk_sig = kiosk.sign(b"unrelated");
    let cases = [
        (unknown, TripError::UnknownKiosk),
        (garbled, TripError::Crypto(CryptoError::InvalidPoint)),
        (forged, TripError::Crypto(CryptoError::BadSignature)),
        (
            ticket(99, &kiosk, &mut rng),
            TripError::Ledger(LedgerError::NotOnRoster),
        ),
    ];
    for (bad, expected) in cases {
        let before = size_root(ledger.registration.tree_head());
        let single = official.check_out(&mut ledger, &bad, &registry);
        assert_eq!(single, Err(expected.clone()), "one ticket");
        let batch = [
            ticket(1, &kiosk, &mut rng),
            bad,
            ticket(3, &kiosk, &mut rng),
        ]
        .map(|t| (t, NonceCoupon::generate(&mut rng)));
        let batched = official.check_out_batch(&mut ledger, batch.into(), &registry, 1);
        assert_eq!(batched, Err(expected), "offender in the middle");
        assert_eq!(size_root(ledger.registration.tree_head()), before);
    }
    // Honest tickets still check out, one and three at a time.
    let one = ticket(4, &kiosk, &mut rng);
    assert_eq!(official.check_out(&mut ledger, &one, &registry), Ok(()));
    let three = (1..=3).map(|v| (ticket(v, &kiosk, &mut rng), NonceCoupon::generate(&mut rng)));
    let batched = official.check_out_batch(&mut ledger, three.collect(), &registry, 1);
    assert_eq!((batched, ledger.registration.tree_head().size), (Ok(()), 4));
}

#[test]
fn envelope_and_ballot_errors_match_one_by_one_and_batched() {
    let mut rng = HmacDrbg::from_u64(35);
    let mut ledger = Ledger::new(vec![], &mut rng);
    let printer = SigningKey::generate(&mut rng);
    let commitment = |rng: &mut HmacDrbg| {
        let challenge_hash = challenge_hash(&rng.scalar());
        let signature = printer.sign(&EnvelopeCommitment::message(&challenge_hash));
        let printer_pk = printer.public_key_compressed();
        EnvelopeCommitment {
            printer_pk,
            challenge_hash,
            signature,
        }
    };
    let (mut forged, mut garbled) = (commitment(&mut rng), commitment(&mut rng));
    forged.signature = printer.sign(b"unrelated");
    garbled.printer_pk = undecodable();
    for (bad, expected) in [
        (forged, CryptoError::BadSignature),
        (garbled, CryptoError::InvalidPoint),
    ] {
        let expected = Err(LedgerError::Crypto(expected));
        let before = size_root(ledger.envelopes.tree_head());
        assert_eq!(
            ledger.envelopes.commit_batch(vec![bad.clone()], 1),
            expected,
            "one"
        );
        let batch = vec![commitment(&mut rng), bad, commitment(&mut rng)];
        assert_eq!(
            ledger.envelopes.commit_batch(batch, 1),
            expected,
            "offender in the middle"
        );
        assert_eq!(size_root(ledger.envelopes.tree_head()), before);
    }

    let credential = SigningKey::generate(&mut rng);
    let payload = b"encrypted ballot".to_vec();
    let honest = BallotRecord {
        credential_pk: credential.public_key_compressed(),
        signature: credential.sign(&BallotRecord::message(&payload)),
        payload,
    };
    let (mut tampered, mut garbled) = (honest.clone(), honest.clone());
    tampered.payload = b"tampered ballot".to_vec();
    garbled.credential_pk = undecodable();
    for (bad, expected) in [
        (tampered, CryptoError::BadSignature),
        (garbled, CryptoError::InvalidPoint),
    ] {
        let expected = Err(LedgerError::Crypto(expected));
        let before = size_root(ledger.ballots.tree_head());
        let single = ledger.ballots.post_batch(vec![bad.clone()], 1);
        assert_eq!(single, expected, "one ballot");
        let batch = vec![honest.clone(), bad, honest.clone()];
        assert_eq!(
            ledger.ballots.post_batch(batch, 1),
            expected,
            "offender in the middle"
        );
        assert_eq!(size_root(ledger.ballots.tree_head()), before);
    }
    assert_eq!(ledger.ballots.post_batch(vec![honest], 1), Ok(0..1));
}

/// A record with two faults, a forged signature and an undecodable key,
/// fails on the key, alone or in a batch: every key is decoded before any
/// signature is checked.
#[test]
fn an_undecodable_key_outranks_a_forged_signature() {
    let mut rng = HmacDrbg::from_u64(36);
    let mut ledger = Ledger::new((1..=3).map(VoterId).collect(), &mut rng);
    let (kiosk, official) = (
        SigningKey::generate(&mut rng),
        SigningKey::generate(&mut rng),
    );
    let record = |voter: u64, rng: &mut HmacDrbg| {
        let t = ticket(voter, &kiosk, rng);
        let msg = RegistrationRecord::official_message(t.voter_id, &t.c_pc, &t.kiosk_sig);
        RegistrationRecord {
            voter_id: t.voter_id,
            c_pc: t.c_pc,
            kiosk_pk: t.kiosk_pk,
            kiosk_sig: t.kiosk_sig,
            official_pk: official.public_key_compressed(),
            official_sig: official.sign(&msg),
        }
    };
    let mut bad = record(2, &mut rng);
    bad.kiosk_sig = kiosk.sign(b"unrelated");
    bad.official_pk = undecodable();
    let expected = Err(LedgerError::Crypto(CryptoError::InvalidPoint));
    let before = size_root(ledger.registration.tree_head());
    let single = ledger.registration.post_batch(vec![bad.clone()], 1);
    assert_eq!(single, expected, "one record");
    let batch = vec![record(1, &mut rng), bad, record(3, &mut rng)];
    let batched = ledger.registration.post_batch(batch, 1);
    assert_eq!(batched, expected, "offender in the middle");
    assert_eq!(size_root(ledger.registration.tree_head()), before);

    // On L_V an undecodable key in a later record outranks a bad
    // signature in an earlier one.
    let credential = SigningKey::generate(&mut rng);
    let ballot = |payload: &[u8]| BallotRecord {
        credential_pk: credential.public_key_compressed(),
        signature: credential.sign(&BallotRecord::message(payload)),
        payload: payload.to_vec(),
    };
    let mut tampered = ballot(b"first ballot");
    tampered.payload = b"tampered ballot".to_vec();
    let mut garbled = ballot(b"third ballot");
    garbled.credential_pk = undecodable();
    let batch = vec![tampered, ballot(b"second ballot"), garbled];
    assert_eq!(ledger.ballots.post_batch(batch, 1), expected);
    assert!(ledger.ballots.is_empty());
}
