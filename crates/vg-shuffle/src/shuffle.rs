//! The Bayer–Groth verifiable shuffle argument, generic over the row it
//! moves.
//!
//! Statement (width k): row vectors C and C′ under public key pk, every
//! row k ElGamal ciphertexts wide, such that for one secret permutation π
//! and fresh randomness ρ every column c satisfies
//! C′ⱼ,c = C_{π(j)},c + Enc(0; ρⱼ,c). The tally (§4.2, Fig 5) mixes two
//! such lists: registration tags (k = 1, [`Ciphertext`]) and ballots
//! (k = 2, an (encrypted vote, encrypted credential key) pair). The
//! argument (Fiat–Shamir over a [`Transcript`] in the width's own domain):
//!
//! 1. Commit c_a = com(π(1)…π(n)) (1-indexed).
//! 2. Challenge x; commit c_b = com(x^π(1) … x^π(n)).
//! 3. Challenges y, z; run the [single-value product
//!    argument](crate::svp) on the public combination y·c_a + c_b − com(z̄)
//!    with claimed product Π (y·i + xⁱ − z) — by Schwartz–Zippel this
//!    forces {(aⱼ, bⱼ)} = {(i, xⁱ)}, i.e. a is a permutation and b its
//!    x-powers.
//! 4. Per column c, run a [multi-exponentiation argument](crate::multiexp)
//!    showing Σ xⁱ·Cᵢ,c = Enc(0; ρ̂_c) + Σ bⱼ·C′ⱼ,c, which transfers the
//!    permutation relation onto that column's ciphertexts.
//!
//! Steps 1–3 do not depend on k. All k arguments of step 4 open the *same*
//! commitment c_b, hence the same committed exponent vector, hence the same
//! π: that is what keeps a vote beside its credential key, and it is the
//! only place the width enters the proof.

use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;

use vg_crypto::drbg::{shuffle as fisher_yates, Rng};
use vg_crypto::edwards::EdwardsPoint;
use vg_crypto::edwards::FixedBaseTable;
use vg_crypto::elgamal::{rerandomize_with_table, Ciphertext};
use vg_crypto::par::{default_threads, join, par_map};
use vg_crypto::pedersen::CommitKey;
use vg_crypto::scalar::Scalar;
use vg_crypto::transcript::Transcript;
use vg_crypto::CryptoError;

use crate::multiexp::{self, MultiExpProof};
use crate::svp::{self, SvpProof};

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Ciphertext {}
    impl Sealed for (super::Ciphertext, super::Ciphertext) {}
}

/// A row the shuffle moves as one unit: [`Ciphertext`] (width 1) or
/// `(Ciphertext, Ciphertext)` (width 2). Sealed — the two widths are the
/// two transcript formats, each with its own Fiat–Shamir domain, statement
/// labels and `Debug` names (which `TallyTranscript` digests pin).
pub trait Row: sealed::Sealed + Copy + fmt::Debug + Send + Sync + 'static {
    /// The proof's multi-exponentiation arguments, one per column:
    /// `[MultiExpProof; WIDTH]`.
    type MultiExps: AsRef<[MultiExpProof]>
        + AsMut<[MultiExpProof]>
        + TryFrom<Vec<MultiExpProof>>
        + Clone
        + Send
        + Sync;
    /// Ciphertext columns per row.
    const WIDTH: usize = Self::IN_LABELS.len();
    /// Fiat–Shamir domain of this width's argument.
    const DOMAIN: &'static [u8];
    /// Per column, the label its input ciphertexts are absorbed under.
    const IN_LABELS: &'static [&'static [u8]];
    /// Per column, the label its output ciphertexts are absorbed under.
    const OUT_LABELS: &'static [&'static [u8]];
    /// `Debug` names of this width's proof, mix stage and mix transcript.
    const TYPE_NAMES: [&'static str; 3];
    /// Per column, the `Debug` name of its multi-exponentiation argument.
    const MEXP_NAMES: &'static [&'static str];
    /// Column `k` of the row.
    fn col(&self, k: usize) -> Ciphertext;
    /// Builds a row from its columns, asked for in order.
    fn from_cols(col: impl FnMut(usize) -> Ciphertext) -> Self;
}

impl Row for Ciphertext {
    type MultiExps = [MultiExpProof; 1];
    const DOMAIN: &'static [u8] = b"votegral-shuffle";
    const IN_LABELS: &'static [&'static [u8]] = &[b"shuf-in"];
    const OUT_LABELS: &'static [&'static [u8]] = &[b"shuf-out"];
    const TYPE_NAMES: [&'static str; 3] = ["ShuffleProof", "MixStage", "MixTranscript"];
    const MEXP_NAMES: &'static [&'static str] = &["mexp"];
    fn col(&self, _: usize) -> Ciphertext {
        *self
    }
    fn from_cols(mut col: impl FnMut(usize) -> Ciphertext) -> Self {
        col(0)
    }
}

impl Row for (Ciphertext, Ciphertext) {
    type MultiExps = [MultiExpProof; 2];
    const DOMAIN: &'static [u8] = b"votegral-pair-shuffle";
    const IN_LABELS: &'static [&'static [u8]] = &[b"shuf-in-a", b"shuf-in-b"];
    const OUT_LABELS: &'static [&'static [u8]] = &[b"shuf-out-a", b"shuf-out-b"];
    const TYPE_NAMES: [&'static str; 3] = ["PairShuffleProof", "PairMixStage", "PairMixTranscript"];
    const MEXP_NAMES: &'static [&'static str] = &["mexp_a", "mexp_b"];
    fn col(&self, k: usize) -> Ciphertext {
        match k {
            0 => self.0,
            _ => self.1,
        }
    }
    fn from_cols(mut col: impl FnMut(usize) -> Ciphertext) -> Self {
        (col(0), col(1))
    }
}

/// A complete shuffle proof for rows of type `R`.
#[derive(Clone)]
pub struct RowShuffleProof<R: Row> {
    /// Commitment to the (1-indexed) permutation values.
    pub c_a: EdwardsPoint,
    /// Commitment to the x-powers of the permutation values.
    pub c_b: EdwardsPoint,
    /// Product argument binding c_a and c_b to a genuine permutation
    /// (shared by every column).
    pub svp: SvpProof,
    /// Multi-exponentiation arguments binding the ciphertexts, one per
    /// column, all against `c_b`.
    pub mexp: R::MultiExps,
}

/// A shuffle proof for single ciphertexts (the registration-tag mix).
pub type ShuffleProof = RowShuffleProof<Ciphertext>;

/// A shuffle proof for ciphertext *pairs* moved under one permutation
/// (the ballot mix).
pub type PairShuffleProof = RowShuffleProof<(Ciphertext, Ciphertext)>;

/// Prints what the per-width structs printed before they became one
/// generic (`ShuffleProof { …, mexp }`, `PairShuffleProof { …, mexp_a,
/// mexp_b }`): that text is the transcript format the tally digest pins.
impl<R: Row> fmt::Debug for RowShuffleProof<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct(R::TYPE_NAMES[0]);
        s.field("c_a", &self.c_a)
            .field("c_b", &self.c_b)
            .field("svp", &self.svp);
        for (name, mexp) in R::MEXP_NAMES.iter().zip(self.mexp.as_ref()) {
            s.field(name, mexp);
        }
        s.finish()
    }
}

/// Every coin one shuffle of rows of type `R` takes from the DRBG, drawn
/// by `ShuffleContext::draw` and spent by `ShuffleContext::shuffle_with`.
/// It is the mixer's secret witness (π and ρ) and masks: `Debug` prints
/// only the row count, and the shuffle consumes it.
struct ShuffleCoins<R: Row> {
    perm: Vec<usize>,
    /// ρ\[column\]\[row\].
    rho: Vec<Vec<Scalar>>,
    proof: ProofCoins,
    _row: PhantomData<fn() -> R>,
}

impl<R: Row> fmt::Debug for ShuffleCoins<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ShuffleCoins(rows={}, <redacted>)", self.perm.len())
    }
}

/// The proof's share of [`ShuffleCoins`].
struct ProofCoins {
    r: Scalar,
    s: Scalar,
    svp: svp::Masks,
    mexp: Vec<multiexp::Masks>,
}

/// Context holding the commitment key for shuffles up to a fixed size.
pub struct ShuffleContext {
    pub(crate) ck: CommitKey,
}

/// What either verifier holds once a stage's statement and commitments
/// are absorbed: the transcript (positioned before the product argument)
/// and the challenges.
pub(crate) struct Replay {
    pub(crate) transcript: Transcript,
    /// x⁰ … xⁿ.
    pub(crate) x_powers: Vec<Scalar>,
    pub(crate) y: Scalar,
    pub(crate) z: Scalar,
    /// Π (y·i + xⁱ − z), the product argument's public side.
    pub(crate) product: Scalar,
}

impl ShuffleContext {
    /// Creates a context supporting shuffles of up to `max_n` rows.
    pub fn new(max_n: usize) -> Self {
        Self {
            ck: CommitKey::new(b"votegral-shuffle-v1", max_n.max(2)),
        }
    }

    /// Shuffles `inputs` under `pk` with a fresh random permutation and
    /// re-encryption randomness, returning the outputs and proof. Every
    /// column of a row moves under the same permutation.
    ///
    /// π, every ρ and every coin of the proof are drawn first; the
    /// re-encryptions and the proof then run on the host's cores.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has fewer than 2 or more than `max_n` rows.
    pub fn shuffle<R: Row>(
        &self,
        pk: &EdwardsPoint,
        inputs: &[R],
        rng: &mut dyn Rng,
    ) -> (Vec<R>, RowShuffleProof<R>) {
        let coins = self.draw(inputs.len(), rng);
        self.shuffle_with(pk, inputs, coins)
    }

    /// Draws everything a shuffle of `n` rows takes from `rng`, in the
    /// order [`ShuffleContext::shuffle`] takes it: π (Fisher–Yates), ρ
    /// column by column, then the proof's coins (see
    /// `draw_proof`). No draw depends on a computed value.
    ///
    /// # Panics
    ///
    /// Panics if `n` is below 2 or above `max_n`.
    fn draw<R: Row>(&self, n: usize, rng: &mut dyn Rng) -> ShuffleCoins<R> {
        assert!(n >= 2, "shuffle requires at least 2 rows");
        let mut perm: Vec<usize> = (0..n).collect();
        fisher_yates(rng, &mut perm);
        let rho: Vec<Vec<Scalar>> = (0..R::WIDTH)
            .map(|_| (0..n).map(|_| rng.scalar()).collect())
            .collect();
        let proof = self.draw_proof::<R>(n, rng);
        ShuffleCoins {
            perm,
            rho,
            proof,
            _row: PhantomData,
        }
    }

    /// The arithmetic of [`ShuffleContext::shuffle`] on coins drawn
    /// beforehand by `ShuffleContext::draw`: the same bytes out.
    ///
    /// # Panics
    ///
    /// Panics if the coins were drawn for another row count than
    /// `inputs.len()`.
    fn shuffle_with<R: Row>(
        &self,
        pk: &EdwardsPoint,
        inputs: &[R],
        coins: ShuffleCoins<R>,
    ) -> (Vec<R>, RowShuffleProof<R>) {
        let ShuffleCoins {
            perm, rho, proof, ..
        } = coins;
        assert_eq!(perm.len(), inputs.len(), "coins drawn for another size");
        // C′ⱼ = C_{π(j)} + Enc(0; ρⱼ). pk·ρⱼ is a third of the
        // re-encryption: pk's process-wide table serves it, and every
        // other shuffle under the same key.
        let pk_table = FixedBaseTable::shared(pk);
        let rows: Vec<(usize, usize)> = perm.iter().copied().enumerate().collect();
        let outputs: Vec<R> = par_map(&rows, default_threads(), |&(j, from)| {
            let row = &inputs[from];
            R::from_cols(|k| rerandomize_with_table(&pk_table, &row.col(k), &rho[k][j]))
        });
        let proof = self.prove_with(pk, inputs, &outputs, &perm, &rho, proof);
        (outputs, proof)
    }

    /// Proves that `outputs` is a correct re-encryption shuffle of `inputs`
    /// under permutation `perm` and per-column randomness `rho[k][j]`.
    ///
    /// Every scalar the proof takes from `rng` is drawn first, in the
    /// order the steps below use them (r, s, the product argument's masks,
    /// then each column's): no draw depends on a challenge, so drawing
    /// ahead moves no transcript byte. The commitments are then computed
    /// on the host's cores, each beside others that wait on no later
    /// challenge, while this thread absorbs them and derives the
    /// challenges in the argument's order.
    ///
    /// Test-only: every production shuffle proves through
    /// [`ShuffleContext::shuffle`]; the tests prove outputs they built or
    /// corrupted themselves.
    #[cfg(test)]
    pub(crate) fn prove<R: Row>(
        &self,
        pk: &EdwardsPoint,
        inputs: &[R],
        outputs: &[R],
        perm: &[usize],
        rho: &[Vec<Scalar>],
        rng: &mut dyn Rng,
    ) -> RowShuffleProof<R> {
        let coins = self.draw_proof::<R>(inputs.len(), rng);
        self.prove_with(pk, inputs, outputs, perm, rho, coins)
    }

    /// The proof's coins for `n` rows: r, s, the product argument's masks,
    /// then each column's multi-exponentiation masks.
    fn draw_proof<R: Row>(&self, n: usize, rng: &mut dyn Rng) -> ProofCoins {
        let r = rng.scalar();
        let s = rng.scalar();
        let svp = svp::Masks::draw(n, &self.ck, rng);
        let mexp = (0..R::WIDTH)
            .map(|_| multiexp::Masks::draw(n, rng))
            .collect();
        ProofCoins { r, s, svp, mexp }
    }

    fn prove_with<R: Row>(
        &self,
        pk: &EdwardsPoint,
        inputs: &[R],
        outputs: &[R],
        perm: &[usize],
        rho: &[Vec<Scalar>],
        coins: ProofCoins,
    ) -> RowShuffleProof<R> {
        let n = inputs.len();
        assert!(n >= 2 && outputs.len() == n && perm.len() == n);
        assert!(rho.len() == R::WIDTH && rho.iter().all(|r| r.len() == n));
        assert!(n <= self.ck.len(), "shuffle larger than context");
        let (ck, threads) = (&self.ck, default_threads());
        let ProofCoins {
            r,
            s,
            svp: svp_masks,
            mexp: mexp_masks,
        } = coins;

        let mut transcript = Transcript::new(R::DOMAIN);
        absorb_statement(&mut transcript, pk, inputs, outputs);

        // Step 1: commit to the 1-indexed permutation values, beside the
        // product argument's c_d.
        let a: Vec<Scalar> = perm
            .iter()
            .map(|&p| Scalar::from_u64(p as u64 + 1))
            .collect();
        let (c_a, svp_c_d) = join(threads, || ck.commit(&a, &r), || svp_masks.commit_d(ck));
        transcript.append_point(b"shuf-ca", &c_a);

        // Step 2: challenge x, commit to b_j = x^{π(j)+1}, beside c_δ.
        let x = transcript.challenge_scalar(b"shuf-x");
        let x_powers = Scalar::powers(x, n + 1); // x^0 … x^n
        let b: Vec<Scalar> = perm.iter().map(|&p| x_powers[p + 1]).collect();
        let (c_b, svp_c_delta) = join(threads, || ck.commit(&b, &s), || svp_masks.commit_delta(ck));
        transcript.append_point(b"shuf-cb", &c_b);

        // Step 3: challenges y, z; product argument on y·a + b − z̄. Its
        // last commitment c_Δ is computed together with every column's
        // first message (c_d, then E_d's C₁ and C₂ sums).
        let y = transcript.challenge_scalar(b"shuf-y");
        let z = transcript.challenge_scalar(b"shuf-z");
        let d: Vec<Scalar> = (0..n).map(|j| y * a[j] + b[j] - z).collect();
        let r_d = y * r + s;
        let product = claimed_product(&x_powers, y, z, n);
        debug_assert_eq!(Scalar::product(&d), product, "d must be a permutation");
        debug_assert_eq!(
            ck.commit(&d, &r_d),
            c_a * y + c_b - ck.commit_constant(&z, n),
            "the product argument opens c_a·y + c_b − com(z̄)"
        );
        let bs = svp::running_products(&d);
        let out_cols = columns(outputs);
        let computed = evaluate(threads, 0..1 + 3 * R::WIDTH, &|i| {
            let Some(i) = i.checked_sub(1) else {
                return svp_masks.commit_big_delta(ck, &d, &bs);
            };
            let (masks, col) = (&mexp_masks[i / 3], &out_cols[i / 3]);
            match i % 3 {
                0 => masks.commit_d(ck),
                1 => masks.e_d_component(&EdwardsPoint::basepoint(), col, |c| c.c1),
                _ => masks.e_d_component(pk, col, |c| c.c2),
            }
        });
        let svp_proof = svp_masks.respond(
            &mut transcript,
            [svp_c_d, svp_c_delta, computed[0]],
            &d,
            &bs,
            &r_d,
        );

        // Step 4: one multi-exponentiation argument per column, in column
        // order, each against E = Σ_{i=1..n} x^i·C_{i−1} with
        // ρ̂ = −Σ_j ρ_j·b_j. Only a debug build computes E: the
        // transcript binds it as a function of absorbed data.
        let mexps: Vec<MultiExpProof> = mexp_masks
            .into_iter()
            .zip(computed[1..].chunks_exact(3))
            .enumerate()
            .map(|(k, (masks, first))| {
                let rho_hat = -(0..n).fold(Scalar::ZERO, |acc, j| acc + rho[k][j] * b[j]);
                // Modulo the 8-torsion, as the verifiers take it.
                debug_assert!(
                    {
                        let error = multiexp::linear_combination(pk, &out_cols[k], &b, &rho_hat)
                            - multiexp::linear_combination(
                                pk,
                                &columns(inputs)[k],
                                &x_powers[1..=n],
                                &Scalar::ZERO,
                            );
                        error.c1.is_small_order() && error.c2.is_small_order()
                    },
                    "witness must satisfy the statement"
                );
                let e_d = Ciphertext {
                    c1: first[1],
                    c2: first[2],
                };
                masks.respond(&mut transcript, first[0], e_d, &b, &s, &rho_hat)
            })
            .collect();
        let Ok(mexp) = R::MultiExps::try_from(mexps) else {
            unreachable!("one multi-exponentiation argument per column")
        };

        RowShuffleProof {
            c_a,
            c_b,
            svp: svp_proof,
            mexp,
        }
    }

    /// Verifies a shuffle proof, one equation at a time (the reference
    /// the batched cascade check in [`crate::batch`] is held against).
    pub fn verify<R: Row>(
        &self,
        pk: &EdwardsPoint,
        inputs: &[R],
        outputs: &[R],
        proof: &RowShuffleProof<R>,
    ) -> Result<(), CryptoError> {
        let mut rp = self.replay(pk, inputs, outputs, proof)?;
        let n = inputs.len();
        let c_d = proof.c_a * rp.y + proof.c_b - self.ck.commit_constant(&rp.z, n);
        svp::verify_svp_core(&mut rp.transcript, &self.ck, &c_d, &rp.product, &proof.svp)?;
        let (in_cols, out_cols) = (columns(inputs), columns(outputs));
        for (k, mexp) in proof.mexp.as_ref().iter().enumerate() {
            let target =
                multiexp::linear_combination(pk, &in_cols[k], &rp.x_powers[1..=n], &Scalar::ZERO);
            multiexp::verify_multiexp_core(
                &mut rp.transcript,
                &self.ck,
                pk,
                &out_cols[k],
                &target,
                &proof.c_b,
                mexp,
            )?;
        }
        Ok(())
    }

    /// The part of verification [`ShuffleContext::verify`] and the cascade
    /// fold share: the structural checks (before any group operation), the
    /// statement and commitment absorption, and the challenges x, y, z.
    pub(crate) fn replay<R: Row>(
        &self,
        pk: &EdwardsPoint,
        inputs: &[R],
        outputs: &[R],
        proof: &RowShuffleProof<R>,
    ) -> Result<Replay, CryptoError> {
        let n = inputs.len();
        if n < 2 || outputs.len() != n || n > self.ck.len() {
            return Err(CryptoError::Malformed("shuffle size"));
        }
        // An honest product argument opens exactly the n shuffled values.
        if proof.svp.a_tilde.len() != n || proof.svp.b_tilde.len() != n {
            return Err(CryptoError::Malformed("svp opening lengths"));
        }
        let mut transcript = Transcript::new(R::DOMAIN);
        absorb_statement(&mut transcript, pk, inputs, outputs);
        transcript.append_point(b"shuf-ca", &proof.c_a);
        let x = transcript.challenge_scalar(b"shuf-x");
        transcript.append_point(b"shuf-cb", &proof.c_b);
        let y = transcript.challenge_scalar(b"shuf-y");
        let z = transcript.challenge_scalar(b"shuf-z");
        let x_powers = Scalar::powers(x, n + 1);
        let product = claimed_product(&x_powers, y, z, n);
        Ok(Replay {
            transcript,
            x_powers,
            y,
            z,
            product,
        })
    }
}

/// `point(i)` for every `i` in `indices`, in order, on `threads` workers:
/// the range is halved over [`join`] until each half has one worker.
fn evaluate(
    threads: usize,
    indices: Range<usize>,
    point: &(impl Fn(usize) -> EdwardsPoint + Sync),
) -> Vec<EdwardsPoint> {
    if threads <= 1 || indices.len() <= 1 {
        return indices.map(point).collect();
    }
    let mid = indices.start + indices.len() / 2;
    let (mut lo, hi) = join(
        threads,
        || evaluate(threads / 2, indices.start..mid, point),
        || evaluate(threads - threads / 2, mid..indices.end, point),
    );
    lo.extend(hi);
    lo
}

/// Splits rows into their ciphertext columns, once per statement side:
/// each column's multi-scalar sums read them as slices.
fn columns<R: Row>(rows: &[R]) -> Vec<Vec<Ciphertext>> {
    (0..R::WIDTH)
        .map(|k| rows.iter().map(|row| row.col(k)).collect())
        .collect()
}

/// Absorbs pk, n and both statement sides; within a side the columns are
/// interleaved row by row, each under its own label.
fn absorb_statement<R: Row>(
    transcript: &mut Transcript,
    pk: &EdwardsPoint,
    inputs: &[R],
    outputs: &[R],
) {
    let n = inputs.len();
    transcript.append_point(b"shuf-pk", pk);
    transcript.append_u64(b"shuf-n", n as u64);
    for (rows, labels) in [(inputs, R::IN_LABELS), (outputs, R::OUT_LABELS)] {
        // One shared inversion compresses every component of every column
        // of the side (the statement hash over large vectors is otherwise
        // inversion-bound); each ciphertext is absorbed as its 64-byte wire
        // encoding, identical to `Ciphertext::to_bytes`.
        let pts: Vec<EdwardsPoint> = (0..R::WIDTH)
            .flat_map(|k| rows.iter().map(move |row| row.col(k)))
            .flat_map(|ct| [ct.c1, ct.c2])
            .collect();
        let comp = EdwardsPoint::batch_compress(&pts);
        for j in 0..n {
            for (k, label) in labels.iter().enumerate() {
                let at = 2 * (k * n + j);
                let mut bytes = [0u8; 64];
                bytes[..32].copy_from_slice(&comp[at].0);
                bytes[32..].copy_from_slice(&comp[at + 1].0);
                transcript.append_bytes(label, &bytes);
            }
        }
    }
}

/// Π_{i=1..n} (y·i + xⁱ − z), the public side of the product argument.
#[allow(clippy::needless_range_loop)] // x_powers is 1-indexed by construction
fn claimed_product(x_powers: &[Scalar], y: Scalar, z: Scalar, n: usize) -> Scalar {
    let mut acc = Scalar::ONE;
    for i in 1..=n {
        acc *= y * Scalar::from_u64(i as u64) + x_powers[i] - z;
    }
    acc
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::HashSet;
    use vg_crypto::elgamal::{decrypt, encrypt_point, rerandomize_with, ElGamalKeyPair};
    use vg_crypto::HmacDrbg;

    type Pair = (Ciphertext, Ciphertext);

    /// Rows 1..=n; row i encrypts g^(offset·k + i) in column k.
    pub(crate) fn sample_rows<R: Row>(
        n: u64,
        offset: u64,
        kp: &ElGamalKeyPair,
        rng: &mut dyn Rng,
    ) -> Vec<R> {
        (1..=n)
            .map(|i| {
                R::from_cols(|k| {
                    let m = EdwardsPoint::mul_base(&Scalar::from_u64(offset * k as u64 + i));
                    encrypt_point(&kp.pk, &m, rng).0
                })
            })
            .collect()
    }

    /// `row` with `B` added to the c2 of its last column.
    fn bumped<R: Row>(row: &R) -> R {
        R::from_cols(|k| {
            let mut ct = row.col(k);
            if k == R::WIDTH - 1 {
                ct.c2 += EdwardsPoint::basepoint();
            }
            ct
        })
    }

    /// An honest shuffle and everything a test needs to disturb it.
    struct Honest<R: Row> {
        rng: HmacDrbg,
        kp: ElGamalKeyPair,
        ctx: ShuffleContext,
        inputs: Vec<R>,
        outputs: Vec<R>,
        proof: RowShuffleProof<R>,
    }

    impl<R: Row> Honest<R> {
        fn verify(&self) -> Result<(), CryptoError> {
            self.ctx
                .verify(&self.kp.pk, &self.inputs, &self.outputs, &self.proof)
        }
    }

    /// An honest `n`-row shuffle under seed `seed`.
    fn honest<R: Row>(n: usize, seed: u64) -> Honest<R> {
        let mut rng = HmacDrbg::from_u64(seed);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let inputs = sample_rows::<R>(n as u64, 100, &kp, &mut rng);
        let ctx = ShuffleContext::new(n);
        let (outputs, proof) = ctx.shuffle(&kp.pk, &inputs, &mut rng);
        Honest {
            rng,
            kp,
            ctx,
            inputs,
            outputs,
            proof,
        }
    }

    /// Instantiates each generic test body at width 1 and width 2.
    macro_rules! over_both_widths {
        ($($name:ident),* $(,)?) => {
            mod width_1 { $( #[test] fn $name() { super::$name::<super::Ciphertext>() } )* }
            mod width_2 { $( #[test] fn $name() { super::$name::<super::Pair>() } )* }
        };
    }
    over_both_widths!(
        shuffle_verifies_and_permutes_plaintexts,
        minimum_size_two,
        tampered_output_rejected,
        replaced_ballot_rejected,
        dropped_ciphertext_rejected,
        wrong_public_key_rejected,
    );

    fn shuffle_verifies_and_permutes_plaintexts<R: Row>() {
        let h = honest::<R>(8, 1);
        h.verify().expect("honest shuffle verifies");

        // The decrypted output rows are a permutation of the input rows —
        // whole rows, so every column moved under the same π.
        let plain = |rows: &[R]| -> HashSet<Vec<_>> {
            rows.iter()
                .map(|row| {
                    (0..R::WIDTH)
                        .map(|k| decrypt(&h.kp.sk, &row.col(k)).compress())
                        .collect()
                })
                .collect()
        };
        assert_eq!(plain(&h.inputs), plain(&h.outputs));
        assert_eq!(plain(&h.outputs).len(), 8);
        // And the ciphertexts themselves all changed (re-encryption).
        let in_cts: Vec<Ciphertext> = columns(&h.inputs).concat();
        for o in columns(&h.outputs).concat() {
            assert!(!in_cts.contains(&o));
        }
    }

    fn minimum_size_two<R: Row>() {
        honest::<R>(2, 2).verify().unwrap();
    }

    fn tampered_output_rejected<R: Row>() {
        let mut h = honest::<R>(5, 3);
        h.outputs[2] = bumped(&h.outputs[2]);
        assert!(h.verify().is_err());
    }

    fn replaced_ballot_rejected<R: Row>() {
        // A malicious mixer that *replaces* a row (rather than permuting)
        // cannot produce a valid proof with the honest prover's transcript.
        let mut h = honest::<R>(5, 4);
        let injected = EdwardsPoint::basepoint();
        h.inputs[0] = R::from_cols(|_| encrypt_point(&h.kp.pk, &injected, &mut h.rng).0);
        assert!(h.verify().is_err());
    }

    fn dropped_ciphertext_rejected<R: Row>() {
        let mut h = honest::<R>(4, 5);
        h.outputs.pop();
        assert!(h.verify().is_err());
    }

    fn wrong_public_key_rejected<R: Row>() {
        let mut h = honest::<R>(4, 6);
        h.verify().unwrap();
        h.kp = ElGamalKeyPair::generate(&mut h.rng);
        assert!(h.verify().is_err());
    }

    #[test]
    fn identity_permutation_still_hides() {
        // Even the identity permutation with fresh randomness produces
        // distinct ciphertexts and a valid proof.
        let mut rng = HmacDrbg::from_u64(7);
        let kp = ElGamalKeyPair::generate(&mut rng);
        let inputs = sample_rows::<Ciphertext>(3, 0, &kp, &mut rng);
        let ctx = ShuffleContext::new(3);
        let perm = vec![0, 1, 2];
        let rho: Vec<Scalar> = (0..3).map(|_| rng.scalar()).collect();
        let outputs: Vec<Ciphertext> = (0..3)
            .map(|j| rerandomize_with(&kp.pk, &inputs[perm[j]], &rho[j]))
            .collect();
        let proof = ctx.prove(&kp.pk, &inputs, &outputs, &perm, &[rho], &mut rng);
        ctx.verify(&kp.pk, &inputs, &outputs, &proof).unwrap();
        assert_ne!(inputs, outputs);
    }

    #[test]
    fn larger_shuffle() {
        honest::<Ciphertext>(64, 8).verify().unwrap();
    }

    /// SHA-256 of `value`'s canonical `Debug` rendering followed by the
    /// DRBG's next 32 bytes: equal digests mean equal bytes out *and* the
    /// DRBG left at the same position.
    pub(crate) fn digest_then_position(value: &impl fmt::Debug, rng: &mut dyn Rng) -> String {
        let mut h = vg_crypto::sha2::Sha256::new();
        h.update(format!("{value:?}").as_bytes());
        h.update(&rng.bytes32());
        h.finalize().iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The shuffle's bytes and DRBG position at both widths, past
    /// `par_map`'s inline cutoff, pinned before the prover was split into
    /// its draws and its arithmetic; `draw` then `shuffle_with` gives the
    /// same bytes and leaves the DRBG at the same place.
    #[test]
    fn shuffle_bytes_and_drbg_position_are_pinned() {
        fn run<R: Row>(seed: u64, split: bool) -> String {
            let mut rng = HmacDrbg::from_u64(seed);
            let kp = ElGamalKeyPair::generate(&mut rng);
            let inputs = sample_rows::<R>(20, 100, &kp, &mut rng);
            let ctx = ShuffleContext::new(20);
            let shuffled = if split {
                let coins = ctx.draw::<R>(inputs.len(), &mut rng);
                ctx.shuffle_with(&kp.pk, &inputs, coins)
            } else {
                ctx.shuffle(&kp.pk, &inputs, &mut rng)
            };
            digest_then_position(&shuffled, &mut rng)
        }
        for split in [false, true] {
            assert_eq!(
                run::<Ciphertext>(31, split),
                "380a8dd4257d91fe848656dfacdddde20712ea65d262163c983a16906531633e",
                "split: {split}"
            );
            assert_eq!(
                run::<Pair>(32, split),
                "069a423aadc077fa44fb115ad39f0efd601255812288c8685f762331213864c4",
                "split: {split}"
            );
        }
    }
}
