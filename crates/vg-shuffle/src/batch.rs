//! Batched cascade verification: every mixer's proof equations folded
//! into one random-linear-combination multi-scalar check, for rows of
//! either width through one stage collector and one cascade fold.
//!
//! Sequential verification of an M-mixer cascade over n rows of k
//! ciphertexts performs ~2 + 6k n-term multi-scalar multiplications per
//! stage (two Pedersen commitment checks for the product argument, and per
//! column one for the multi-exponentiation argument plus two
//! ElGamal-component equations whose *target* E = Σ xⁱ·Cᵢ must itself be
//! materialized with two more). The batch path instead:
//!
//! 1. replays every stage's Fiat–Shamir transcript to recover the
//!    challenges (cheap hashing, parallel across mixers);
//! 2. rewrites each point equation as Σ aᵢ·Pᵢ = 𝒪 and folds all of them,
//!    scaled by verifier-chosen random weights, into a single
//!    [`BatchVerifier`] accumulation — the multi-exp target is *never*
//!    materialized, its defining sum just contributes coefficients on the
//!    input ciphertexts;
//! 3. coalesces coefficients that land on shared bases: the Pedersen
//!    generators (shared by every stage), the basepoint, the election key,
//!    and each stage boundary's ciphertext columns (stage k's outputs are
//!    stage k+1's inputs, so each boundary is touched twice but costs one
//!    set of points);
//! 4. checks the whole cascade with one large multi-scalar multiplication
//!    (split over worker threads).
//!
//! Weights are derived per stage from the stage's own verification
//! transcript *after* absorbing the proof's response scalars, so they
//! commit to the full statement and proof; see
//! [`vg_crypto::batch`] for the small-exponent RLC
//! soundness argument.

use vg_crypto::batch::{small_weight, BatchVerifier};
use vg_crypto::edwards::EdwardsPoint;
use vg_crypto::par::par_map;
use vg_crypto::scalar::Scalar;
use vg_crypto::transcript::Transcript;
use vg_crypto::{CryptoError, HmacDrbg, Rng};

use crate::multiexp::{self, MultiExpProof};
use crate::shuffle::{Row, RowShuffleProof, ShuffleContext};
use crate::svp::{self, SvpProof};

/// The weighted contributions every equation shape shares: coefficients
/// on the static bases (H, B, pk, the Pedersen generators) and the
/// pre-weighted dynamic proof-commitment terms.
struct EqAccumulator {
    /// Coefficient on the Pedersen blinding generator H.
    h: Scalar,
    /// Coefficient on the group basepoint B.
    bp: Scalar,
    /// Coefficient on the election public key.
    pk: Scalar,
    /// Coefficients on the Pedersen message generators G₀….
    g: Vec<Scalar>,
    /// Remaining (pre-weighted) dynamic terms: proof commitments.
    terms: Vec<(Scalar, EdwardsPoint)>,
}

/// One ciphertext column's coefficients on a stage's input and output
/// vectors, per ElGamal component (c1, c2) — kept apart from the generic
/// dynamic terms so the cascade assembler can put adjacent stages'
/// contributions on one set of points per boundary.
struct ColumnFold {
    input: [Vec<Scalar>; 2],
    output: [Vec<Scalar>; 2],
}

/// One stage's weighted contributions to the folded check: one shared
/// accumulator, one [`ColumnFold`] per ciphertext column of the row.
struct StageFold {
    acc: EqAccumulator,
    cols: Vec<ColumnFold>,
}

impl EqAccumulator {
    fn new(g_len: usize) -> Self {
        Self {
            h: Scalar::ZERO,
            bp: Scalar::ZERO,
            pk: Scalar::ZERO,
            g: vec![Scalar::ZERO; g_len],
            terms: Vec::with_capacity(16),
        }
    }

    /// Folds a stage's product argument — two commitment equations, where
    /// the statement commitment is the derived c_d = y·c_a + c_b − com(z̄)
    /// and the openings have the accumulator's length n.
    fn fold_svp<R: Row>(
        &mut self,
        svp_x: Scalar,
        y: Scalar,
        z: Scalar,
        proof: &RowShuffleProof<R>,
        wt: &mut dyn Rng,
    ) {
        let svp = &proof.svp;
        // (A) com(ã; r̃) − x·(y·c_a + c_b − Σᵢ z·Gᵢ) − c_d = 𝒪.
        let w_a = small_weight(wt);
        self.h += w_a * svp.r_tilde;
        let xz = w_a * svp_x * z;
        for (gi, a) in self.g.iter_mut().zip(svp.a_tilde.iter()) {
            *gi += w_a * *a + xz;
        }
        self.terms.push((-(w_a * svp_x * y), proof.c_a));
        self.terms.push((-(w_a * svp_x), proof.c_b));
        self.terms.push((-w_a, svp.c_d));

        // (B) com({x·b̃ᵢ₊₁ − b̃ᵢ·ãᵢ₊₁}; s̃) − x·c_Δ − c_δ = 𝒪.
        let w_b = small_weight(wt);
        self.h += w_b * svp.s_tilde;
        for i in 0..svp.a_tilde.len() - 1 {
            let cross = svp_x * svp.b_tilde[i + 1] - svp.b_tilde[i] * svp.a_tilde[i + 1];
            self.g[i] += w_b * cross;
        }
        self.terms.push((-(w_b * svp_x), svp.c_big_delta));
        self.terms.push((-w_b, svp.c_delta));
    }

    /// Folds one multi-exponentiation argument's three equations into this
    /// accumulator and returns its ciphertext column's coefficients. The
    /// target Σᵢ x^i·inᵢ₋₁ is folded symbolically onto the column's input
    /// coefficients instead of being materialized.
    fn fold_multiexp(
        &mut self,
        mexp_x: Scalar,
        x_powers: &[Scalar],
        c_b: &EdwardsPoint,
        proof: &MultiExpProof,
        wt: &mut dyn Rng,
    ) -> ColumnFold {
        // (C) com(b̃; s̃) − x·c_b − c_d = 𝒪.
        let w_c = small_weight(wt);
        self.h += w_c * proof.s_tilde;
        for (gi, b) in self.g.iter_mut().zip(proof.b_tilde.iter()) {
            *gi += w_c * *b;
        }
        self.terms.push((-(w_c * mexp_x), *c_b));
        self.terms.push((-w_c, proof.c_d));

        // (D)/(E) per ElGamal component:
        //   ρ̃·B + Σⱼ b̃ⱼ·outⱼ − x·Σⱼ x^{j+1}·inⱼ − e_d = 𝒪   (c1, base B)
        //   ρ̃·pk + …                                           (c2, base pk)
        let w = [small_weight(wt), small_weight(wt)];
        self.bp += w[0] * proof.rho_tilde;
        self.pk += w[1] * proof.rho_tilde;
        self.terms.push((-w[0], proof.e_d.c1));
        self.terms.push((-w[1], proof.e_d.c2));
        let scaled = |w: Scalar, v: &[Scalar]| v.iter().map(|s| w * *s).collect();
        ColumnFold {
            input: w.map(|w| scaled(-(w * mexp_x), &x_powers[1..])),
            output: w.map(|w| scaled(w, &proof.b_tilde)),
        }
    }
}

/// Absorbs proof response scalars so the weight derivation commits to the
/// complete proof, not just its commitments.
fn absorb_responses(t: &mut Transcript, svp: &SvpProof, mexps: &[MultiExpProof]) {
    for a in &svp.a_tilde {
        t.append_scalar(b"batch-resp", a);
    }
    for b in &svp.b_tilde {
        t.append_scalar(b"batch-resp", b);
    }
    t.append_scalar(b"batch-resp", &svp.r_tilde);
    t.append_scalar(b"batch-resp", &svp.s_tilde);
    for mexp in mexps {
        for b in &mexp.b_tilde {
            t.append_scalar(b"batch-resp", b);
        }
        t.append_scalar(b"batch-resp", &mexp.s_tilde);
        t.append_scalar(b"batch-resp", &mexp.rho_tilde);
    }
}

/// Collects one stage into a [`StageFold`]: replays its transcript, then
/// folds the product argument and each column's multi-exponentiation
/// argument under weights drawn from that transcript.
fn collect_stage<R: Row>(
    ctx: &ShuffleContext,
    pk: &EdwardsPoint,
    inputs: &[R],
    outputs: &[R],
    proof: &RowShuffleProof<R>,
) -> Result<StageFold, CryptoError> {
    let mut rp = ctx.replay(pk, inputs, outputs, proof)?;
    let (n, t) = (inputs.len(), &mut rp.transcript);
    let mexps = proof.mexp.as_ref();
    let svp_x = svp::replay_svp(t, &ctx.ck, &rp.product, &proof.svp)?;
    let mexp_xs = mexps
        .iter()
        .map(|mexp| multiexp::replay_multiexp(t, &ctx.ck, n, mexp))
        .collect::<Result<Vec<_>, _>>()?;

    absorb_responses(t, &proof.svp, mexps);
    let mut wt = HmacDrbg::new(&t.challenge_bytes(b"batch-weights"));

    let mut acc = EqAccumulator::new(n);
    acc.fold_svp(svp_x, rp.y, rp.z, proof, &mut wt);
    let cols = mexps
        .iter()
        .zip(mexp_xs)
        .map(|(mexp, mexp_x)| acc.fold_multiexp(mexp_x, &rp.x_powers, &proof.c_b, mexp, &mut wt))
        .collect();
    Ok(StageFold { acc, cols })
}

/// Builds the shared static-base table `[H, B, pk, G₀…]`.
fn statics(ctx: &ShuffleContext, pk: &EdwardsPoint, g_max: usize) -> Vec<EdwardsPoint> {
    let mut s = Vec::with_capacity(3 + g_max);
    s.push(ctx.ck.h);
    s.push(EdwardsPoint::basepoint());
    s.push(*pk);
    s.extend_from_slice(&ctx.ck.gs[..g_max]);
    s
}

const H: usize = 0;
const BP: usize = 1;
const PK: usize = 2;
const G0: usize = 3;

/// Adds one stage's accumulated static coefficients and dynamic terms to
/// the verifier.
fn drain_accumulator(bv: &mut BatchVerifier, acc: &EqAccumulator) {
    bv.add_static(H, acc.h);
    bv.add_static(BP, acc.bp);
    bv.add_static(PK, acc.pk);
    for (i, gi) in acc.g.iter().enumerate() {
        bv.add_static(G0 + i, *gi);
    }
    for (coeff, point) in &acc.terms {
        bv.add_term(*coeff, *point);
    }
}

/// One stage as the batch verifier sees it: inputs, outputs, proof.
pub(crate) type StageRef<'a, R> = (&'a [R], &'a [R], &'a RowShuffleProof<R>);

/// Batched verification of a cascade: collects every stage's equations
/// (in parallel across mixers) and checks them with one folded
/// multi-scalar multiplication.
pub(crate) fn verify_cascade_batch<R: Row>(
    ctx: &ShuffleContext,
    pk: &EdwardsPoint,
    inputs: &[R],
    stages: &[StageRef<'_, R>],
    threads: usize,
) -> Result<(), CryptoError> {
    let folds = par_map(stages, threads, |(s_in, s_out, proof)| {
        collect_stage(ctx, pk, s_in, s_out, proof)
    });
    let folds = folds.into_iter().collect::<Result<Vec<_>, _>>()?;

    let mut bv = BatchVerifier::new(&statics(ctx, pk, inputs.len()));
    for fold in &folds {
        drain_accumulator(&mut bv, &fold.acc);
    }
    // Boundary k — the cascade input, then each stage's output — is stage
    // k−1's output and stage k's input: one set of points, carrying the
    // sum of the two stages' coefficients.
    let sides = std::iter::once(inputs).chain(stages.iter().map(|(_, s_out, _)| *s_out));
    for (k, rows) in sides.enumerate() {
        let as_output = k.checked_sub(1).map(|prev| &folds[prev].cols);
        let as_input = folds.get(k).map(|next| &next.cols);
        for c in 0..R::WIDTH {
            for (j, row) in rows.iter().enumerate() {
                let ct = row.col(c);
                for (i, point) in [ct.c1, ct.c2].into_iter().enumerate() {
                    let coeff = as_output.map_or(Scalar::ZERO, |f| f[c].output[i][j])
                        + as_input.map_or(Scalar::ZERO, |f| f[c].input[i][j]);
                    bv.add_term(coeff, point);
                }
            }
        }
    }
    if bv.verify(threads) {
        Ok(())
    } else {
        Err(CryptoError::BadProof)
    }
}
