//! Precomputed ceremony material: everything expensive about one
//! registration session, derived before the voter sits down.
//!
//! The paper's deployment story (§6, §7.3) has kiosks precompute the
//! interactive-ZKP material while the booth is idle; the voter-facing
//! ceremony then consists of hashing, scalar arithmetic and printing. This
//! module captures that split. A [`SessionMaterials`] bundle holds, for one
//! planned session:
//!
//! - the **real-credential precursor**: the credential key pair, the
//!   ElGamal randomness x with the tag c_pc = (g^x, A_pk^x · c_pk), and the
//!   Σ-protocol nonce with its commitment (Y₁, Y₂) — five of the six scalar
//!   multiplications of Fig 9a, none of which depend on the voter's
//!   envelope choice, so the soundness-critical ordering (commit printed
//!   before the challenge is seen) is preserved;
//! - one **fake-credential precursor** per planned fake: the fake key pair
//!   and the challenge-independent halves y·g₁, y·g₂ of the forged
//!   commitment (the challenge-dependent halves are necessarily computed
//!   in-booth, because an honest kiosk only sees the envelope then);
//! - pre-printed **envelopes** with their ledger commitments
//!   ([`EnvelopePrinter::print_detached`]);
//! - single-use signing [`NonceCoupon`]s for every signature the ceremony
//!   will emit (σ_kc, σ_kot, σ_kr per credential, plus the official's
//!   check-out countersignature), so in-booth signing is hash-only.
//!
//! The two precursors come from `RealPrecursor::draw` and
//! `FakePrecursor::draw` and nowhere else: a kiosk that precomputed
//! nothing draws them from its own rng as the voter walks in
//! ([`crate::kiosk`]), through the same constructors.
//!
//! Everything is derived from `(pool seed, session index, voter id)`
//! through an HMAC-DRBG, which is what makes a [`crate::fleet::KioskFleet`]
//! run replay bit-identically regardless of kiosk count, pool size or
//! thread scheduling.

use vg_crypto::chaum_pedersen::Commitment;
use vg_crypto::edwards::FixedBaseTable;
use vg_crypto::elgamal::Ciphertext;
use vg_crypto::schnorr::{NonceCoupon, SigningKey};
use vg_crypto::{EdwardsPoint, HmacDrbg, Rng, Scalar};
use vg_ledger::{EnvelopeCommitment, VoterId};

use crate::materials::{Envelope, Symbol};
use crate::printer::EnvelopePrinter;

/// Precomputed state for issuing one *real* credential (Fig 9a lines 2–5,
/// evaluated ahead of time).
pub struct RealPrecursor {
    pub(crate) credential: SigningKey,
    pub(crate) elgamal_secret: Scalar,
    pub(crate) c_pc: Ciphertext,
    pub(crate) nonce: Scalar,
    pub(crate) commit: Commitment,
    pub(crate) symbol: Symbol,
    /// Coupons for σ_kc, σ_kot, σ_kr, in that order.
    pub(crate) commit_coupon: NonceCoupon,
    pub(crate) checkout_coupon: NonceCoupon,
    pub(crate) response_coupon: NonceCoupon,
}

impl RealPrecursor {
    /// Fig 9a lines 2–5: the credential key pair, the ElGamal randomness x
    /// with the tag c_pc = (g^x, A_pk^x · c_pk), the Σ-nonce with its
    /// commitment, the symbol and the three coupons — drawn in that order,
    /// which is part of the replay contract. `pk_table` is A_pk's table.
    ///
    /// Every station signs or checks c_pc and (Y₁, Y₂) again, so they
    /// leave here at Z = 1, normalised together with the coupons'
    /// commitments for the one inversion those cost anyway.
    pub(crate) fn draw(pk_table: &FixedBaseTable, rng: &mut dyn Rng) -> Self {
        let credential = SigningKey::generate(rng);
        let x = rng.scalar();
        let nonce = rng.scalar();
        let symbol = Symbol::random(rng);
        let ks: [Scalar; 3] = core::array::from_fn(|_| rng.scalar());
        let mut points = [
            EdwardsPoint::mul_base(&x),
            pk_table.mul(&x) + credential.verifying_key().0,
            EdwardsPoint::mul_base(&nonce),
            pk_table.mul(&nonce),
            EdwardsPoint::mul_base(&ks[0]),
            EdwardsPoint::mul_base(&ks[1]),
            EdwardsPoint::mul_base(&ks[2]),
        ];
        EdwardsPoint::batch_normalize(&mut points);
        let [c1, c2, a1, a2, rs @ ..] = points;
        let [commit_coupon, checkout_coupon, response_coupon] =
            core::array::from_fn(|i| NonceCoupon::from_parts(ks[i], rs[i].compress()));
        Self {
            credential,
            elgamal_secret: x,
            c_pc: Ciphertext { c1, c2 },
            nonce,
            commit: Commitment { a1, a2 },
            symbol,
            commit_coupon,
            checkout_coupon,
            response_coupon,
        }
    }

    /// The symbol the kiosk will print above the commit QR.
    pub fn symbol(&self) -> Symbol {
        self.symbol
    }
}

impl core::fmt::Debug for RealPrecursor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Credential scalar, ElGamal secret and ZK nonces stay off logs.
        write!(
            f,
            "RealPrecursor(symbol={:?}, secrets=<redacted>)",
            self.symbol
        )
    }
}

impl core::fmt::Debug for FakePrecursor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The forged credential's scalar and forge nonce stay off logs.
        write!(f, "FakePrecursor(secrets=<redacted>)")
    }
}

/// Precomputed state for forging one *fake* credential (Fig 9b): the fake
/// key pair and the challenge-independent halves of the forged commitment.
pub struct FakePrecursor {
    pub(crate) credential: SigningKey,
    pub(crate) forge_nonce: Scalar,
    /// y·g₁ (basepoint half of the forged Y₁).
    pub(crate) g1y: EdwardsPoint,
    /// y·g₂ (authority-key half of the forged Y₂).
    pub(crate) g2y: EdwardsPoint,
    pub(crate) commit_coupon: NonceCoupon,
    pub(crate) response_coupon: NonceCoupon,
}

impl FakePrecursor {
    /// Fig 9b before the envelope: the fake key pair, the forge nonce y
    /// with its halves y·g₁, y·g₂, and the two coupons, drawn in that
    /// order (replay contract, as for [`RealPrecursor::draw`]).
    pub(crate) fn draw(pk_table: &FixedBaseTable, rng: &mut dyn Rng) -> Self {
        let credential = SigningKey::generate(rng);
        let y = rng.scalar();
        let mut coupons = NonceCoupon::batch(2, rng);
        let response_coupon = coupons.pop().expect("two coupons");
        let commit_coupon = coupons.pop().expect("one coupon");
        Self {
            credential,
            forge_nonce: y,
            g1y: EdwardsPoint::mul_base(&y),
            g2y: pk_table.mul(&y),
            commit_coupon,
            response_coupon,
        }
    }
}

/// Every precomputed input one registration session consumes.
pub struct SessionMaterials {
    /// The session's queue position (drives kiosk assignment).
    pub session_index: usize,
    /// The voter this bundle was prepared for.
    pub voter_id: VoterId,
    pub(crate) real: RealPrecursor,
    pub(crate) fakes: Vec<FakePrecursor>,
    /// A spare forge precursor, derived only for compromised kiosks
    /// ([`crate::kiosk::KioskBehavior::StealsRealCredential`]), whose
    /// "real" credential is itself a forgery.
    pub(crate) malicious_spare: Option<FakePrecursor>,
    /// Pre-printed envelopes: `envelopes[0]` matches the real precursor's
    /// symbol (the voter will pick a matching one), the rest are for
    /// fakes.
    pub(crate) envelopes: Vec<Envelope>,
    /// The L_E commitments for `envelopes`, posted by the coordinator in
    /// queue order.
    pub(crate) commitments: Vec<EnvelopeCommitment>,
    /// Coupon for the official's check-out countersignature σ_o.
    pub(crate) official_coupon: NonceCoupon,
}

impl core::fmt::Debug for SessionMaterials {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The precursors inside carry credential secrets; identify the
        // bundle by its public coordinates only.
        write!(
            f,
            "SessionMaterials(session_index={}, voter_id={:?}, fakes={}, secrets=<redacted>)",
            self.session_index,
            self.voter_id,
            self.fakes.len()
        )
    }
}

/// A pending envelope print: the challenge and symbol one envelope of a
/// session will carry. The challenges are part of the seeded session
/// derivation; only the *signing* (and ledger commitment) belongs to the
/// printer, so a batch of jobs can cross a service boundary to a print
/// service and come back as finished envelopes without perturbing the
/// replay contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrintJob {
    /// The envelope's challenge nonce e.
    pub challenge: Scalar,
    /// The pre-printed symbol.
    pub symbol: Symbol,
}

/// A derived session bundle still waiting for its envelopes: everything in
/// [`SessionMaterials`] except the printed envelopes, plus the
/// [`PrintJob`]s that produce them.
pub struct UnprintedSession {
    materials: SessionMaterials,
    jobs: Vec<PrintJob>,
}

impl UnprintedSession {
    /// The envelopes this session still needs, in attachment order
    /// (`jobs()[0]` is the real credential's symbol-matched envelope).
    pub fn jobs(&self) -> &[PrintJob] {
        &self.jobs
    }

    /// Attaches the printed envelopes (one per [`UnprintedSession::jobs`]
    /// entry, same order) and completes the bundle.
    ///
    /// # Panics
    ///
    /// Panics if the count differs from the job count — a print-service
    /// protocol violation, not a recoverable voter-facing error.
    pub fn attach(mut self, printed: Vec<(Envelope, EnvelopeCommitment)>) -> SessionMaterials {
        assert_eq!(
            printed.len(),
            self.jobs.len(),
            "print response must cover every job of the session"
        );
        for (env, com) in printed {
            self.materials.envelopes.push(env);
            self.materials.commitments.push(com);
        }
        self.materials
    }
}

impl SessionMaterials {
    /// Derives the full bundle for session `session_index` serving
    /// `voter_id`, deterministically from `seed`.
    ///
    /// The derivation order is part of the replay contract: the
    /// sequential reference path
    /// ([`crate::protocol::register_voter_seeded`]) and the fleet both
    /// call this function, so changing the draw order is a
    /// compatibility-breaking change for recorded seeds (not for
    /// correctness).
    pub fn derive(
        seed: &[u8; 32],
        session_index: usize,
        voter_id: VoterId,
        n_fakes: usize,
        authority_pk: &EdwardsPoint,
        printer: &EnvelopePrinter,
        malicious: bool,
    ) -> SessionMaterials {
        let unprinted = Self::derive_unprinted_with(
            seed,
            session_index,
            voter_id,
            n_fakes,
            &FixedBaseTable::shared(authority_pk),
            malicious,
        );
        let printed = printer.print_jobs(unprinted.jobs(), 1);
        unprinted.attach(printed)
    }

    /// [`SessionMaterials::derive`] without a printer in reach, and with
    /// A_pk as its [`FixedBaseTable::shared`] table: derives everything
    /// session-local (keys, tag, Σ-state, coupons, envelope challenges and
    /// symbols) and returns the bundle together with the [`PrintJob`]s some
    /// envelope printer — local or behind an RPC boundary — must fulfil
    /// before the session can run. Printing does not consume the session's
    /// derivation stream, so both paths yield bit-identical bundles.
    pub(crate) fn derive_unprinted_with(
        seed: &[u8; 32],
        session_index: usize,
        voter_id: VoterId,
        n_fakes: usize,
        pk_table: &FixedBaseTable,
        malicious: bool,
    ) -> UnprintedSession {
        let mut label = Vec::with_capacity(64);
        label.extend_from_slice(b"trip-pool-session-v1");
        label.extend_from_slice(seed);
        label.extend_from_slice(&(session_index as u64).to_le_bytes());
        label.extend_from_slice(&voter_id.to_bytes());
        let mut rng = HmacDrbg::new(&label);

        let real = RealPrecursor::draw(pk_table, &mut rng);

        // The voter picks a matching envelope; in simulation the printer
        // simply prepares one with the right symbol (footnote 6 lets
        // printers issue envelopes at any time).
        let mut jobs = Vec::with_capacity(1 + n_fakes);
        jobs.push(PrintJob {
            challenge: rng.scalar(),
            symbol: real.symbol,
        });

        let mut fakes = Vec::with_capacity(n_fakes);
        for _ in 0..n_fakes {
            fakes.push(FakePrecursor::draw(pk_table, &mut rng));
            jobs.push(PrintJob {
                challenge: rng.scalar(),
                symbol: Symbol::random(&mut rng),
            });
        }

        let official_coupon = NonceCoupon::generate(&mut rng);
        let malicious_spare = malicious.then(|| FakePrecursor::draw(pk_table, &mut rng));

        UnprintedSession {
            materials: SessionMaterials {
                session_index,
                voter_id,
                real,
                fakes,
                malicious_spare,
                envelopes: Vec::with_capacity(jobs.len()),
                commitments: Vec::with_capacity(jobs.len()),
                official_coupon,
            },
            jobs,
        }
    }

    /// Number of envelopes this session will consume.
    pub fn envelope_count(&self) -> usize {
        self.envelopes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::chaum_pedersen::{verify_transcript, DlEqStatement, Prover};

    fn printer() -> EnvelopePrinter {
        EnvelopePrinter::new(&mut HmacDrbg::from_u64(9))
    }

    #[test]
    fn derivation_is_deterministic_and_session_scoped() {
        let apk = EdwardsPoint::mul_base(&Scalar::from_u64(5));
        let p = printer();
        let a = SessionMaterials::derive(&[7u8; 32], 0, VoterId(1), 2, &apk, &p, false);
        let b = SessionMaterials::derive(&[7u8; 32], 0, VoterId(1), 2, &apk, &p, false);
        assert_eq!(a.real.c_pc, b.real.c_pc);
        assert_eq!(a.real.commit, b.real.commit);
        assert_eq!(a.envelopes, b.envelopes);
        // A different session index (re-registration later in the queue)
        // yields fresh material for the same voter.
        let c = SessionMaterials::derive(&[7u8; 32], 3, VoterId(1), 2, &apk, &p, false);
        assert_ne!(a.real.c_pc, c.real.c_pc);
        assert_ne!(a.envelopes[0].challenge, c.envelopes[0].challenge);
    }

    #[test]
    fn real_precursor_is_a_sound_prover_state() {
        let mut rng = HmacDrbg::from_u64(1);
        let apk = EdwardsPoint::mul_base(&rng.scalar());
        let m = SessionMaterials::derive(&[1u8; 32], 0, VoterId(4), 0, &apk, &printer(), false);
        let big_x = m.real.c_pc.c2 - m.real.credential.verifying_key().0;
        let stmt = DlEqStatement {
            g1: EdwardsPoint::basepoint(),
            y1: m.real.c_pc.c1,
            g2: apk,
            y2: big_x,
        };
        // The precomputed (nonce, commitment) pair drives the ordinary
        // interactive prover to a verifying transcript.
        let prover = Prover::from_parts(m.real.nonce, m.real.commit);
        let challenge = rng.scalar();
        let t = prover.respond(&m.real.elgamal_secret, &challenge);
        assert!(verify_transcript(&stmt, &t));
    }

    #[test]
    fn envelope_zero_matches_real_symbol() {
        let apk = EdwardsPoint::mul_base(&Scalar::from_u64(3));
        for i in 0..8 {
            let m = SessionMaterials::derive(
                &[i as u8; 32],
                i,
                VoterId(i as u64 + 1),
                1,
                &apk,
                &printer(),
                false,
            );
            assert_eq!(m.envelopes[0].symbol, m.real.symbol());
            assert_eq!(m.envelope_count(), 2);
        }
    }

    #[test]
    fn unprinted_derivation_matches_printed() {
        // The print-deferred path (service-layer pool refills) yields the
        // same bundle as the direct path, envelope for envelope.
        let apk = EdwardsPoint::mul_base(&Scalar::from_u64(11));
        let p = printer();
        let direct = SessionMaterials::derive(&[4u8; 32], 2, VoterId(9), 2, &apk, &p, false);
        let unprinted = SessionMaterials::derive_unprinted_with(
            &[4u8; 32],
            2,
            VoterId(9),
            2,
            &FixedBaseTable::new(&apk),
            false,
        );
        assert_eq!(unprinted.jobs().len(), 3);
        let printed = unprinted
            .jobs()
            .iter()
            .map(|job| p.print_detached(job.challenge, job.symbol))
            .collect();
        let attached = unprinted.attach(printed);
        assert_eq!(direct.envelopes, attached.envelopes);
        assert_eq!(direct.real.c_pc, attached.real.c_pc);
        assert_eq!(direct.real.commit, attached.real.commit);
        assert_eq!(direct.commitments.len(), attached.commitments.len(),);
    }

    #[test]
    fn malicious_spare_only_when_requested() {
        let apk = EdwardsPoint::mul_base(&Scalar::from_u64(3));
        let p = printer();
        let honest = SessionMaterials::derive(&[2u8; 32], 0, VoterId(1), 0, &apk, &p, false);
        assert!(honest.malicious_spare.is_none());
        let compromised = SessionMaterials::derive(&[2u8; 32], 0, VoterId(1), 0, &apk, &p, true);
        assert!(compromised.malicious_spare.is_some());
        // The honest prefix of the stream is unchanged by the spare.
        assert_eq!(honest.real.c_pc, compromised.real.c_pc);
        assert_eq!(honest.envelopes, compromised.envelopes);
    }
}
