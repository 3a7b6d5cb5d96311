//! Schnorr signatures with SHA-256 on edwards25519 (§6 of the paper).
//!
//! This is the EUF-CMA signature scheme `Sig` of Appendix E.1: key
//! generation, signing, verification, and public-key derivation
//! (`Sig.PubKey`). Kiosks sign credential material with it, officials sign
//! check-out approvals, envelope printers sign challenge hashes, and ballot
//! authentication reuses the same scheme through credential key pairs.
//!
//! [`SigningKey::sign`] derives its nonce deterministically from the secret
//! key and message (RFC 6979 style) so a faulty RNG can never leak a key
//! through nonce reuse; [`SigningKey::sign_with_coupon`] spends a nonce
//! drawn ahead of time, and is where s = k + e·sk is computed for both.

use std::collections::HashMap;

use crate::drbg::Rng;
use crate::edwards::{CompressedPoint, EdwardsPoint};
use crate::scalar::Scalar;
use crate::sha2::{sha256, Sha256, Sha512};
use crate::CryptoError;

/// A Schnorr signing key pair.
///
/// The compressed public key is cached at construction: every signature's
/// challenge hash includes it, and compression costs a field inversion —
/// measurable when a kiosk signs for hundreds of thousands of ceremonies.
#[derive(Clone)]
pub struct SigningKey {
    sk: Scalar,
    pk: EdwardsPoint,
    pk_compressed: CompressedPoint,
}

impl core::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print the secret scalar.
        write!(f, "SigningKey(pk={:?}, sk=<redacted>)", self.pk_compressed)
    }
}

/// A Schnorr public key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VerifyingKey(pub EdwardsPoint);

/// A Schnorr signature (R, s).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    /// The commitment point R = k·B.
    pub r: CompressedPoint,
    /// The response s = k + e·sk.
    pub s: Scalar,
}

impl Signature {
    /// Serializes to 64 bytes (R ‖ s).
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r.0);
        out[32..].copy_from_slice(&self.s.to_bytes());
        out
    }

    /// Deserializes from 64 bytes, validating the scalar encoding.
    pub fn from_bytes(bytes: &[u8; 64]) -> Result<Self, CryptoError> {
        let mut r = [0u8; 32];
        r.copy_from_slice(&bytes[..32]);
        let mut s = [0u8; 32];
        s.copy_from_slice(&bytes[32..]);
        let s = Scalar::from_canonical_bytes(&s).ok_or(CryptoError::InvalidScalar)?;
        Ok(Self {
            r: CompressedPoint(r),
            s,
        })
    }
}

impl SigningKey {
    /// Generates a fresh key pair.
    pub fn generate(rng: &mut dyn Rng) -> Self {
        let sk = rng.scalar();
        Self::from_scalar(sk)
    }

    /// Builds the key pair for a known secret scalar.
    pub fn from_scalar(sk: Scalar) -> Self {
        let pk = EdwardsPoint::mul_base(&sk);
        Self {
            sk,
            pk,
            pk_compressed: pk.compress(),
        }
    }

    /// [`SigningKey::from_scalar`] for every secret, in order, with the
    /// public keys' compressions sharing one field inversion (and the
    /// keys left at Z = 1, so compressing them again is free too).
    pub fn batch_from_scalars(secrets: &[Scalar]) -> Vec<SigningKey> {
        let mut pks: Vec<EdwardsPoint> = secrets.iter().map(EdwardsPoint::mul_base).collect();
        EdwardsPoint::batch_normalize(&mut pks);
        secrets
            .iter()
            .zip(pks)
            .map(|(&sk, pk)| Self {
                sk,
                pk,
                pk_compressed: pk.compress(),
            })
            .collect()
    }

    /// The secret scalar (used by the credential-transfer extension C.2).
    pub fn secret(&self) -> Scalar {
        self.sk
    }

    /// The public verification key (`Sig.PubKey`).
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey(self.pk)
    }

    /// The compressed public key, from the construction-time cache (no
    /// field inversion — use this on hot paths instead of
    /// `verifying_key().compress()`).
    pub fn public_key_compressed(&self) -> CompressedPoint {
        self.pk_compressed
    }

    /// Signs `msg` (`Sig.Sign`) with the deterministic nonce
    /// k = H(sk ‖ msg): [`SigningKey::sign_with_coupon`] over the coupon
    /// ⟨k, R = k·B⟩.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let k = self.nonce(msg);
        let r = EdwardsPoint::mul_base(&k).compress();
        self.sign_with_coupon(msg, NonceCoupon { k, r })
    }

    /// The deterministic nonce k = H(sk ‖ msg) of [`SigningKey::sign`].
    fn nonce(&self, msg: &[u8]) -> Scalar {
        let mut h = Sha512::new();
        h.update(b"votegral-schnorr-nonce-v1");
        h.update(&self.sk.to_bytes());
        h.update(&(msg.len() as u64).to_le_bytes());
        h.update(msg);
        Scalar::from_bytes_wide(&h.finalize())
    }
}

/// Signs every `(key, message)` pair: the signatures [`SigningKey::sign`]
/// gives one by one, byte for byte, with the nonce commitments'
/// compressions sharing one field inversion. Envelope printers sign their
/// supply through it.
pub fn batch_sign(items: &[(&SigningKey, &[u8])]) -> Vec<Signature> {
    let ks: Vec<Scalar> = items.iter().map(|(key, msg)| key.nonce(msg)).collect();
    let rs: Vec<EdwardsPoint> = ks.iter().map(EdwardsPoint::mul_base).collect();
    EdwardsPoint::batch_compress(&rs)
        .into_iter()
        .zip(ks)
        .zip(items)
        .map(|((r, k), (key, msg))| key.sign_with_coupon(msg, NonceCoupon { k, r }))
        .collect()
}

/// A precomputed signing nonce: the pair (k, R = k·B) with R already
/// compressed.
///
/// Generating R is the only scalar multiplication in Schnorr signing, so a
/// batch of coupons prepared ahead of time turns signing into pure hashing
/// and scalar arithmetic — the kiosk-side precomputation TRIP's deployment
/// story depends on (registration booths prepare material before a voter
/// arrives). A coupon is **single-use**: signing two different messages
/// with one nonce reveals the secret key, which is why the type is neither
/// `Clone` nor `Copy` and [`SigningKey::sign_with_coupon`] consumes it.
///
/// Coupons are key-independent (they involve only the basepoint), so one
/// pool can serve any signer.
pub struct NonceCoupon {
    k: Scalar,
    r: CompressedPoint,
}

impl core::fmt::Debug for NonceCoupon {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print the nonce scalar.
        write!(f, "NonceCoupon(r={:?}, k=<redacted>)", self.r)
    }
}

impl NonceCoupon {
    /// Draws one coupon.
    pub fn generate(rng: &mut dyn Rng) -> Self {
        let k = rng.scalar();
        Self {
            k,
            r: EdwardsPoint::mul_base(&k).compress(),
        }
    }

    /// Draws `n` coupons, amortizing the point compressions through one
    /// shared field inversion ([`EdwardsPoint::batch_compress`]).
    pub fn batch(n: usize, rng: &mut dyn Rng) -> Vec<NonceCoupon> {
        let ks: Vec<Scalar> = (0..n).map(|_| rng.scalar()).collect();
        let rs: Vec<EdwardsPoint> = ks.iter().map(EdwardsPoint::mul_base).collect();
        let compressed = EdwardsPoint::batch_compress(&rs);
        ks.into_iter()
            .zip(compressed)
            .map(|(k, r)| NonceCoupon { k, r })
            .collect()
    }

    /// The commitment point R this coupon will place in a signature.
    pub fn commitment(&self) -> CompressedPoint {
        self.r
    }

    /// Splits the coupon into its `(nonce, R)` pair for wire transport,
    /// consuming it (the single-use discipline survives serialization: the
    /// local copy is gone once the bytes leave).
    ///
    /// A deployment ships coupons only between mutually trusting halves of
    /// one signer (a kiosk appliance's precompute store and its booth
    /// process, or — in this reproduction — the seeded ceremony pool and
    /// the registrar service), over a channel as protected as the signing
    /// key itself: whoever reads `k` and later sees the signature can
    /// recover the secret key.
    pub fn into_parts(self) -> (Scalar, CompressedPoint) {
        (self.k, self.r)
    }

    /// Rebuilds a coupon from its wire parts, or builds one whose R the
    /// caller compressed in a batch of its own (`RealPrecursor::draw`).
    ///
    /// The pair is *not* checked against R = k·B (that would spend the
    /// scalar multiplication the coupon exists to avoid); a mismatched
    /// pair only ever yields an invalid signature, which ledger admission
    /// rejects.
    pub fn from_parts(k: Scalar, r: CompressedPoint) -> Self {
        Self { k, r }
    }
}

impl SigningKey {
    /// Signs `msg` using a precomputed [`NonceCoupon`]: no scalar
    /// multiplication happens on this path, only hashing and scalar
    /// arithmetic.
    ///
    /// Produces a valid signature for any coupon, but — unlike
    /// [`SigningKey::sign`] — a *different* one per coupon, so replaying a
    /// ceremony bit-identically requires replaying the coupon stream too
    /// (the ceremony pool derives both from one seed).
    pub fn sign_with_coupon(&self, msg: &[u8], coupon: NonceCoupon) -> Signature {
        let e = challenge(&coupon.r, &self.pk_compressed, msg);
        Signature {
            r: coupon.r,
            s: coupon.k + e * self.sk,
        }
    }
}

impl VerifyingKey {
    /// Verifies `sig` over `msg` (`Sig.Vf`), modulo the 8-torsion as every
    /// check in the workspace is (see [`crate::batch`]).
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), CryptoError> {
        let r_point = sig.r.decompress().ok_or(CryptoError::InvalidPoint)?;
        if r_point.is_small_order() {
            return Err(CryptoError::InvalidPoint);
        }
        let e = challenge(&sig.r, &self.0.compress(), msg);
        // 8·(s·B − R − e·A) == 𝒪.
        if (EdwardsPoint::mul_base(&sig.s) - r_point - self.0 * e).is_small_order() {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }

    /// The compressed encoding of the public key.
    pub fn compress(&self) -> CompressedPoint {
        self.0.compress()
    }

    /// Decodes a public key, rejecting small-order and off-curve points.
    pub fn from_compressed(c: &CompressedPoint) -> Result<Self, CryptoError> {
        let p = c.decompress().ok_or(CryptoError::InvalidPoint)?;
        if p.is_small_order() {
            return Err(CryptoError::InvalidPoint);
        }
        Ok(Self(p))
    }
}

/// Batch-verifies independent (key, message, signature) triples with one
/// multi-scalar multiplication.
///
/// Uses the standard random-linear-combination check: with random weights
/// zᵢ drawn by [`crate::batch::small_weights`] (nonzero, below 2¹²⁸),
/// 8·(Σ zᵢ·sᵢ·B − Σ zᵢ·Rᵢ − Σ zᵢ·eᵢ·Aᵢ) == 𝒪 holds when every signature
/// passes [`VerifyingKey::verify`] and fails except with negligible
/// probability otherwise. The key terms are merged per distinct key:
/// every item signed under one key A adds its zᵢ·eᵢ to A's single scalar,
/// so a batch over k distinct keys folds n + k + 1 terms rather than
/// 2n + 1 and sums to the same group element. Ballot admission verifies
/// thousands of credential signatures under as many keys; ledger
/// admission, check-out and activation verify thousands under a handful of
/// printer, kiosk and official keys. Pippenger makes either batch several
/// times cheaper than one-by-one verification.
///
/// Returns `Ok(())` only if *every* signature is valid (callers fall back
/// to per-item verification to locate an offender). An undecodable or
/// small-order R is [`CryptoError::InvalidPoint`], decided before any
/// weight is drawn. The keys are already decoded: their encodings, which
/// the challenge hashes need, share one inversion, and the fold keys its
/// table by them as [`SignatureSweep`] does.
pub fn batch_verify(
    items: &[(VerifyingKey, &[u8], Signature)],
    rng: &mut dyn Rng,
) -> Result<(), CryptoError> {
    let points: Vec<EdwardsPoint> = items.iter().map(|(vk, _, _)| vk.0).collect();
    let mut keys = KeyTable::default();
    let slotted = EdwardsPoint::batch_compress(&points)
        .into_iter()
        .zip(items)
        .map(|(pk, (vk, msg, sig))| Ok((keys.slot(&pk, || Ok(*vk))?, *msg, *sig)))
        .collect::<Result<Vec<_>, CryptoError>>()?;
    fold_verify(&keys.keys, &slotted, 1, rng)
}

/// Each distinct key encoding, with its decoded key, in first-seen order:
/// the table [`fold_verify`] merges key terms by.
#[derive(Default)]
struct KeyTable {
    keys: Vec<(CompressedPoint, VerifyingKey)>,
    slots: HashMap<CompressedPoint, usize>,
}

impl KeyTable {
    /// The index of encoding `pk`, appending it with the key `decode`
    /// yields the first time it is seen; a failed decode adds nothing.
    fn slot(
        &mut self,
        pk: &CompressedPoint,
        decode: impl FnOnce() -> Result<VerifyingKey, CryptoError>,
    ) -> Result<usize, CryptoError> {
        if let Some(&slot) = self.slots.get(pk) {
            return Ok(slot);
        }
        self.keys.push((*pk, decode()?));
        self.slots.insert(*pk, self.keys.len() - 1);
        Ok(self.keys.len() - 1)
    }
}

/// The key-merged fold behind [`batch_verify`] and [`SignatureSweep`] on
/// up to `threads` workers: `keys` holds each distinct key once, with its
/// encoding, and every item names its key by slot. The per-item R
/// decompressions, small-order rejections and challenge hashes run under
/// [`crate::par::par_map`], and the multi-scalar multiplication splits
/// across workers once it is large enough.
fn fold_verify<M: AsRef<[u8]> + Sync>(
    keys: &[(CompressedPoint, VerifyingKey)],
    items: &[(usize, M, Signature)],
    threads: usize,
    rng: &mut dyn Rng,
) -> Result<(), CryptoError> {
    if items.is_empty() {
        return Ok(());
    }
    // Per item, in parallel; the first failing item in input order decides
    // the error.
    let checked: Vec<(EdwardsPoint, Scalar)> =
        crate::par::par_map(items, threads, |(slot, msg, sig)| {
            let r_point = sig.r.decompress().ok_or(CryptoError::InvalidPoint)?;
            // The same rejection `VerifyingKey::verify` makes: without it a
            // key holder's (R = 𝒪, s = e·sk) folds clean here and fails one
            // by one.
            if r_point.is_small_order() {
                return Err(CryptoError::InvalidPoint);
            }
            Ok((r_point, challenge(&sig.r, &keys[*slot].0, msg.as_ref())))
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
    let weights = crate::batch::small_weights(rng, items.len());

    let mut scalars = Vec::with_capacity(items.len() + keys.len() + 1);
    let mut points = Vec::with_capacity(items.len() + keys.len() + 1);
    // One term per distinct key.
    let mut key_scalars = vec![Scalar::ZERO; keys.len()];
    let mut s_sum = Scalar::ZERO;
    for ((slot, _, sig), ((r_point, e), z)) in items.iter().zip(checked.into_iter().zip(weights)) {
        s_sum += z * sig.s;
        scalars.push(z);
        points.push(r_point);
        key_scalars[*slot] += z * e;
    }
    scalars.extend(key_scalars);
    points.extend(keys.iter().map(|(_, vk)| vk.0));
    scalars.push(-s_sum);
    points.push(EdwardsPoint::basepoint());
    if crate::edwards::multiscalar_mul_par(&scalars, &points, threads).is_small_order() {
        Ok(())
    } else {
        Err(CryptoError::BadSignature)
    }
}

/// A random-linear-combination signature sweep whose weights commit to
/// **everything the fold checks** — the single source of the
/// "everything-committed" soundness rule every batched admission path in
/// the workspace relies on.
///
/// Per the analysis in [`crate::batch`], RLC weights must be unpredictable
/// to whoever formed the proofs. Deterministic replays (a registration day
/// re-run bit-identically) rule out fresh entropy, so the weights are
/// drawn from an HMAC-DRBG seeded with a hash that commits to a domain
/// label plus, for every queued item, its public key, its full message and
/// its signature bytes. Grinding any component of any statement against
/// the weights then leaves a cheating submitter the classical ≤ 2⁻¹²⁷
/// success chance per attempt. [`SignatureSweep::push`] folds each item
/// into the commitment automatically, so a call site *cannot* forget to
/// commit a component the sweep checks; extra statement material covered
/// by an accompanying fold (e.g. Σ-transcript terms sharing the DRBG) goes
/// in via [`SignatureSweep::commit`].
///
/// Items carry their keys as the records do, compressed; the sweep decodes
/// each distinct encoding once and runs the key-merged fold of
/// [`batch_verify`] over them. The fold, like [`VerifyingKey::verify`],
/// takes every equation modulo the 8-torsion, so an item's verdict is its
/// own, whatever sweep it rides in. `vg-ledger`'s record admission on L_R,
/// L_E and L_V, at any batch size, and `vg-trip`'s batched check-out take
/// its verdict with [`SignatureSweep::check`]; `vg-trip`'s activation and
/// `vg-votegral`'s tally-time ballot admission continue the DRBG
/// [`SignatureSweep::verify`] returns.
pub struct SignatureSweep {
    /// The running weight commitment: the label, then every committed
    /// byte string and queued item's message and signature, as they
    /// arrive.
    label: Sha256,
    /// Each distinct key encoding pushed, with its decoded key.
    keys: KeyTable,
    /// The queued items: key slot, message, signature.
    items: Vec<(usize, Vec<u8>, Signature)>,
}

impl SignatureSweep {
    /// Starts an empty sweep under `domain` (a versioned, per-call-site
    /// separation label).
    pub fn new(domain: &[u8]) -> Self {
        let mut label = Sha256::new();
        label
            .update(b"votegral-committed-sweep-v1")
            .update(&(domain.len() as u64).to_le_bytes())
            .update(domain);
        Self {
            label,
            keys: KeyTable::default(),
            items: Vec::new(),
        }
    }

    /// Folds extra statement material into the weight commitment (for
    /// callers that continue the returned DRBG into a second fold over
    /// statements this sweep's items do not already bind).
    pub fn commit(&mut self, bytes: &[u8]) {
        self.label
            .update(&(bytes.len() as u64).to_le_bytes())
            .update(bytes);
    }

    /// Queues one `(key, message, signature)` triple under the key's
    /// encoding `pk`. The first push of an encoding decodes it with
    /// [`VerifyingKey::from_compressed`]'s rejections; a push that fails
    /// queues and commits nothing. The message and signature enter the
    /// weight commitment now, the key encoding at
    /// [`SignatureSweep::verify`].
    pub fn push(
        &mut self,
        pk: &CompressedPoint,
        msg: Vec<u8>,
        sig: Signature,
    ) -> Result<(), CryptoError> {
        let slot = self.keys.slot(pk, || VerifyingKey::from_compressed(pk))?;
        self.label
            .update(&(msg.len() as u64).to_le_bytes())
            .update(&msg)
            .update(&sig.to_bytes());
        self.items.push((slot, msg, sig));
        Ok(())
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if nothing was queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Runs the single folded check over up to `threads` workers.
    ///
    /// On success returns the post-sweep DRBG so follow-on folds (e.g. a
    /// [`crate::batch::BatchVerifier`] over Σ-transcripts checked in the
    /// same admission decision) can keep drawing weights from the same
    /// committed stream. The fold itself cannot name an offender:
    /// [`SignatureSweep::check`] does.
    pub fn verify(&self, threads: usize) -> Result<crate::HmacDrbg, CryptoError> {
        // The key encodings go in last, in item order (order inside the
        // commitment is immaterial; completeness is what soundness needs).
        let mut label = self.label.clone();
        for (slot, _, _) in &self.items {
            label.update(&self.keys.keys[*slot].0 .0);
        }
        let mut rng = crate::HmacDrbg::new(&label.finalize());
        fold_verify(&self.keys.keys, &self.items, threads, &mut rng)?;
        Ok(rng)
    }

    /// The sweep's verdict with its offender named: the fold of
    /// [`SignatureSweep::verify`], and if it rejects, every item checked
    /// alone under its decoded key, in push order, the first failure
    /// being the error. Both take the equation modulo the 8-torsion, so a
    /// fold rejects only if some item fails alone: the verdict is every
    /// item's own, whatever the sweep's size or company.
    pub fn check(&self, threads: usize) -> Result<(), CryptoError> {
        let Err(fold) = self.verify(threads) else {
            return Ok(());
        };
        crate::par::par_map(&self.items, threads, |(slot, msg, sig)| {
            self.keys.keys[*slot].1.verify(msg, sig)
        })
        .into_iter()
        .collect::<Result<(), _>>()?;
        Err(fold)
    }
}

/// Fiat–Shamir challenge e = SHA-256(R ‖ A ‖ M) reduced mod ℓ.
fn challenge(r: &CompressedPoint, pk: &CompressedPoint, msg: &[u8]) -> Scalar {
    let mut data = Vec::with_capacity(64 + msg.len() + 16);
    data.extend_from_slice(b"votegral-schnorr-v1");
    data.extend_from_slice(&r.0);
    data.extend_from_slice(&pk.0);
    data.extend_from_slice(msg);
    Scalar::from_bytes_mod_order(&sha256(&data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;

    #[test]
    fn coupon_signature_verifies() {
        let mut rng = HmacDrbg::from_u64(40);
        let key = SigningKey::generate(&mut rng);
        let coupon = NonceCoupon::generate(&mut rng);
        let sig = key.sign_with_coupon(b"precomputed", coupon);
        key.verifying_key()
            .verify(b"precomputed", &sig)
            .expect("coupon signature verifies");
    }

    #[test]
    fn coupon_batch_matches_one_by_one() {
        // The batch constructor and the one-by-one constructor driven by
        // the same DRBG produce identical coupons (batch_compress is
        // encoding-exact).
        let mut rng_a = HmacDrbg::from_u64(41);
        let mut rng_b = HmacDrbg::from_u64(41);
        let batch = NonceCoupon::batch(5, &mut rng_a);
        for coupon in batch {
            let single = NonceCoupon::generate(&mut rng_b);
            assert_eq!(coupon.k, single.k);
            assert_eq!(coupon.r, single.r);
        }
    }

    #[test]
    fn coupon_signatures_differ_from_deterministic_signs() {
        // Coupons draw their nonce from the pool stream, not from the
        // RFC 6979-style derivation, so the signatures differ even on the
        // same message — both remain valid.
        let mut rng = HmacDrbg::from_u64(42);
        let key = SigningKey::generate(&mut rng);
        let coupon = NonceCoupon::generate(&mut rng);
        let a = key.sign(b"msg");
        let b = key.sign_with_coupon(b"msg", coupon);
        assert_ne!(a.to_bytes(), b.to_bytes());
        key.verifying_key().verify(b"msg", &a).unwrap();
        key.verifying_key().verify(b"msg", &b).unwrap();
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut rng = HmacDrbg::from_u64(1);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"the votes are in");
        key.verifying_key()
            .verify(b"the votes are in", &sig)
            .expect("valid signature verifies");
    }

    #[test]
    fn wrong_message_rejected() {
        let mut rng = HmacDrbg::from_u64(2);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"msg-a");
        assert_eq!(
            key.verifying_key().verify(b"msg-b", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let mut rng = HmacDrbg::from_u64(3);
        let key_a = SigningKey::generate(&mut rng);
        let key_b = SigningKey::generate(&mut rng);
        let sig = key_a.sign(b"msg");
        assert!(key_b.verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn tampered_signature_rejected() {
        let mut rng = HmacDrbg::from_u64(4);
        let key = SigningKey::generate(&mut rng);
        let mut sig = key.sign(b"msg");
        sig.s += Scalar::ONE;
        assert!(key.verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn serialization_roundtrip() {
        let mut rng = HmacDrbg::from_u64(5);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"serialize me");
        let decoded = Signature::from_bytes(&sig.to_bytes()).expect("decodes");
        assert_eq!(decoded, sig);
        key.verifying_key()
            .verify(b"serialize me", &decoded)
            .unwrap();
    }

    #[test]
    fn coupon_parts_roundtrip() {
        let mut rng = HmacDrbg::from_u64(50);
        let key = SigningKey::generate(&mut rng);
        let (k, r) = NonceCoupon::generate(&mut rng).into_parts();
        let sig = key.sign_with_coupon(b"over the wire", NonceCoupon::from_parts(k, r));
        key.verifying_key().verify(b"over the wire", &sig).unwrap();
        assert_eq!(sig.r, r);
    }

    #[test]
    fn committed_sweep_accepts_valid_batches() {
        let mut rng = HmacDrbg::from_u64(51);
        let mut sweep = SignatureSweep::new(b"test-sweep-v1");
        for i in 0..6u8 {
            let key = SigningKey::generate(&mut rng);
            let msg = vec![i; 9];
            let sig = key.sign(&msg);
            sweep.push(&key.public_key_compressed(), msg, sig).unwrap();
        }
        assert_eq!(sweep.len(), 6);
        sweep.verify(2).expect("honest batch folds clean");
    }

    #[test]
    fn committed_sweep_rejects_any_tampered_item() {
        let mut rng = HmacDrbg::from_u64(52);
        let keys: Vec<SigningKey> = (0..4).map(|_| SigningKey::generate(&mut rng)).collect();
        for bad in 0..4usize {
            let mut sweep = SignatureSweep::new(b"test-sweep-v1");
            for (i, key) in keys.iter().enumerate() {
                let msg = vec![i as u8; 5];
                let mut sig = key.sign(&msg);
                if i == bad {
                    sig.s += Scalar::ONE;
                }
                sweep.push(&key.public_key_compressed(), msg, sig).unwrap();
            }
            assert!(sweep.verify(1).is_err(), "tampered item {bad} survived");
            assert_eq!(sweep.check(1), Err(CryptoError::BadSignature));
        }
    }

    #[test]
    fn committed_sweep_weights_depend_on_every_component() {
        // Changing any committed component — domain, extra material, a
        // message — shifts the whole weight stream.
        let mut rng = HmacDrbg::from_u64(53);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"m");
        let stream = |domain: &[u8], extra: Option<&[u8]>, msg: &[u8]| {
            let mut sweep = SignatureSweep::new(domain);
            if let Some(e) = extra {
                sweep.commit(e);
            }
            sweep
                .push(&key.public_key_compressed(), msg.to_vec(), sig)
                .unwrap();
            sweep
        };
        let mut a = stream(b"d1", None, b"m").verify(1).expect("valid");
        let mut b = stream(b"d2", None, b"m").verify(1).expect("valid");
        assert_ne!(a.scalar(), b.scalar(), "domain not committed");
        let mut c = stream(b"d1", Some(b"x"), b"m").verify(1).expect("valid");
        let mut d = stream(b"d1", Some(b"y"), b"m").verify(1).expect("valid");
        assert_ne!(c.scalar(), d.scalar(), "extra material not committed");
    }

    #[test]
    fn empty_sweep_accepts() {
        let sweep = SignatureSweep::new(b"empty");
        assert!(sweep.is_empty());
        sweep.verify(4).expect("vacuous batch accepts");
    }

    #[test]
    fn deterministic_signing() {
        let mut rng = HmacDrbg::from_u64(6);
        let key = SigningKey::generate(&mut rng);
        assert_eq!(key.sign(b"m").to_bytes(), key.sign(b"m").to_bytes());
        assert_ne!(key.sign(b"m").to_bytes(), key.sign(b"n").to_bytes());
    }

    #[test]
    fn pubkey_decode_rejects_identity() {
        let id = EdwardsPoint::IDENTITY.compress();
        assert!(VerifyingKey::from_compressed(&id).is_err());
    }

    #[test]
    fn batch_verify_accepts_honest_batch() {
        let mut rng = HmacDrbg::from_u64(8);
        let msgs: Vec<Vec<u8>> = (0..20)
            .map(|i| format!("ballot-{i}").into_bytes())
            .collect();
        let items: Vec<(VerifyingKey, &[u8], Signature)> = msgs
            .iter()
            .map(|m| {
                let key = SigningKey::generate(&mut rng);
                let sig = key.sign(m);
                (key.verifying_key(), m.as_slice(), sig)
            })
            .collect();
        batch_verify(&items, &mut rng).expect("honest batch verifies");
    }

    #[test]
    fn batch_verify_rejects_single_bad_signature() {
        let mut rng = HmacDrbg::from_u64(9);
        let msgs: Vec<Vec<u8>> = (0..10).map(|i| format!("m{i}").into_bytes()).collect();
        let mut items: Vec<(VerifyingKey, &[u8], Signature)> = msgs
            .iter()
            .map(|m| {
                let key = SigningKey::generate(&mut rng);
                let sig = key.sign(m);
                (key.verifying_key(), m.as_slice(), sig)
            })
            .collect();
        items[7].2.s += Scalar::ONE;
        assert_eq!(
            batch_verify(&items, &mut rng),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn batch_verify_matches_individual() {
        // Agreement: the batch accepts exactly when every individual check
        // accepts (probabilistically, over several random batches).
        let mut rng = HmacDrbg::from_u64(10);
        for round in 0..5u64 {
            let corrupt = round % 2 == 0;
            let msgs: Vec<Vec<u8>> = (0..6)
                .map(|i| format!("r{round}m{i}").into_bytes())
                .collect();
            let mut items: Vec<(VerifyingKey, &[u8], Signature)> = msgs
                .iter()
                .map(|m| {
                    let key = SigningKey::generate(&mut rng);
                    let sig = key.sign(m);
                    (key.verifying_key(), m.as_slice(), sig)
                })
                .collect();
            if corrupt {
                items[0].2.s += Scalar::ONE;
            }
            let individual_ok = items.iter().all(|(vk, m, sig)| vk.verify(m, sig).is_ok());
            let batch_ok = batch_verify(&items, &mut rng).is_ok();
            assert_eq!(individual_ok, batch_ok, "round {round}");
        }
    }

    #[test]
    fn small_order_commitment_rejected_by_every_path() {
        // R = 𝒪 and s = e·sk satisfy s·B = R + e·A, so only the explicit
        // small-order rejection keeps this out — on the single path, in
        // the batch fold and in the committed sweep alike.
        let mut rng = HmacDrbg::from_u64(12);
        let key = SigningKey::generate(&mut rng);
        let msg = b"crafted";
        let r = EdwardsPoint::IDENTITY.compress();
        let e = challenge(&r, &key.public_key_compressed(), msg);
        let crafted = Signature {
            r,
            s: e * key.secret(),
        };
        let vk = key.verifying_key();
        assert_eq!(vk.verify(msg, &crafted), Err(CryptoError::InvalidPoint));
        let honest = key.sign(b"honest");
        let items: Vec<(VerifyingKey, &[u8], Signature)> =
            vec![(vk, b"honest", honest), (vk, msg, crafted)];
        assert_eq!(
            batch_verify(&items, &mut rng),
            Err(CryptoError::InvalidPoint)
        );
        let mut sweep = SignatureSweep::new(b"test-sweep-v1");
        let pk = key.public_key_compressed();
        sweep.push(&pk, b"honest".to_vec(), honest).unwrap();
        sweep.push(&pk, msg.to_vec(), crafted).unwrap();
        assert!(sweep.verify(1).is_err());
    }

    /// Signing keys for a fold-equivalence batch of `n` items: one key for
    /// all, a key per item, or a mix of four repeated keys and fresh ones.
    fn fold_keys(shape: &str, n: usize, rng: &mut HmacDrbg) -> Vec<SigningKey> {
        let pool: Vec<SigningKey> = (0..4).map(|_| SigningKey::generate(rng)).collect();
        (0..n)
            .map(|i| match shape {
                "shared" => pool[0].clone(),
                "distinct" => SigningKey::generate(rng),
                _ if i % 3 == 0 => SigningKey::generate(rng),
                _ => pool[i % 4].clone(),
            })
            .collect()
    }

    /// Runs the fold through [`batch_verify`] and through a sweep on 1
    /// and 2 workers, asserts the three agree, and returns the verdict.
    fn fold_on_one_and_two(items: &[(VerifyingKey, &[u8], Signature)]) -> Result<(), CryptoError> {
        let mut sweep = SignatureSweep::new(b"test-sweep-v1");
        for (vk, msg, sig) in items {
            sweep.push(&vk.compress(), msg.to_vec(), *sig).unwrap();
        }
        let one = sweep.verify(1).map(|_| ());
        assert_eq!(one, sweep.verify(2).map(|_| ()), "threads 1 and 2 disagree");
        let direct = batch_verify(items, &mut HmacDrbg::from_u64(77));
        assert_eq!(one, direct, "the sweep and batch_verify disagree");
        one
    }

    const FOLD_SHAPES: [&str; 3] = ["shared", "distinct", "mixed"];

    /// An encoding that is not a curve point.
    fn undecodable() -> CompressedPoint {
        (2u8..)
            .map(|b| {
                let mut bytes = [0u8; 32];
                bytes[0] = b;
                CompressedPoint(bytes)
            })
            .find(|c| c.decompress().is_none())
            .expect("some y has no x")
    }

    #[test]
    fn key_merged_fold_accepts_exactly_when_every_signature_verifies() {
        let mut rng = HmacDrbg::from_u64(70);
        for n in [15, 16, 257] {
            for shape in FOLD_SHAPES {
                let keys = fold_keys(shape, n, &mut rng);
                let msgs: Vec<Vec<u8>> = (0..n)
                    .map(|i| format!("{shape}-{i}").into_bytes())
                    .collect();
                let mut items: Vec<(VerifyingKey, &[u8], Signature)> = keys
                    .iter()
                    .zip(&msgs)
                    .map(|(k, m)| (k.verifying_key(), m.as_slice(), k.sign(m)))
                    .collect();
                assert!(items.iter().all(|(vk, m, sig)| vk.verify(m, sig).is_ok()));
                assert_eq!(fold_on_one_and_two(&items), Ok(()), "{shape} n={n}");
                // A bad s on an item whose key repeats (item 4 shares pool
                // key 0 in every shape but "distinct", where no key repeats).
                items[4].2.s += Scalar::ONE;
                assert!(items[4].0.verify(items[4].1, &items[4].2).is_err());
                assert_eq!(
                    fold_on_one_and_two(&items),
                    Err(CryptoError::BadSignature),
                    "{shape} n={n}"
                );
            }
        }
    }

    #[test]
    fn key_merged_fold_rejects_bad_commitment_points() {
        let mut rng = HmacDrbg::from_u64(71);
        let undecodable = undecodable();
        for n in [15, 16, 257] {
            for shape in FOLD_SHAPES {
                let keys = fold_keys(shape, n, &mut rng);
                let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 7]).collect();
                let honest: Vec<(VerifyingKey, &[u8], Signature)> = keys
                    .iter()
                    .zip(&msgs)
                    .map(|(k, m)| (k.verifying_key(), m.as_slice(), k.sign(m)))
                    .collect();
                // An undecodable R, and a small-order R = 𝒪 with
                // s = e·sk, which satisfies s·B = R + e·A.
                let mut bad_r = honest.clone();
                bad_r[n - 1].2.r = undecodable;
                let mut small = honest.clone();
                let (key, msg) = (&keys[4], msgs[4].as_slice());
                let r = EdwardsPoint::IDENTITY.compress();
                let e = challenge(&r, &key.public_key_compressed(), msg);
                small[4].2 = Signature {
                    r,
                    s: e * key.secret(),
                };
                for items in [&bad_r, &small] {
                    let single = items
                        .iter()
                        .map(|(vk, m, sig)| vk.verify(m, sig))
                        .find(Result::is_err);
                    assert_eq!(single, Some(Err(CryptoError::InvalidPoint)));
                    assert_eq!(
                        fold_on_one_and_two(items),
                        Err(CryptoError::InvalidPoint),
                        "{shape} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn key_merged_fold_sweep_is_thread_count_free() {
        // The committed sweep folds the same keys it binds: its verdict and
        // the DRBG it hands on do not depend on the worker count.
        let mut rng = HmacDrbg::from_u64(72);
        let keys = fold_keys("mixed", 257, &mut rng);
        let mut sweep = SignatureSweep::new(b"test-sweep-v1");
        for (i, key) in keys.iter().enumerate() {
            let msg = (i as u64).to_le_bytes().to_vec();
            let sig = key.sign(&msg);
            sweep.push(&key.public_key_compressed(), msg, sig).unwrap();
        }
        let mut one = sweep.verify(1).expect("honest sweep");
        let mut two = sweep.verify(2).expect("honest sweep");
        assert_eq!(one.scalar(), two.scalar());
    }

    #[test]
    fn sweep_pin_weight_stream() {
        // One commit and 40 items under three repeated keys and fresh
        // ones: the DRBG the sweep hands on is a fixed byte stream, so no
        // label byte may move.
        let mut rng = HmacDrbg::from_u64(74);
        let pool: Vec<SigningKey> = (0..3).map(|_| SigningKey::generate(&mut rng)).collect();
        let mut sweep = SignatureSweep::new(b"test-sweep-pin-v1");
        sweep.commit(b"statement material");
        for i in 0..40 {
            let fresh = SigningKey::generate(&mut rng);
            let key = if i % 4 == 0 { &fresh } else { &pool[i % 3] };
            let msg = format!("pin-{i}").into_bytes();
            let sig = key.sign(&msg);
            sweep.push(&key.public_key_compressed(), msg, sig).unwrap();
            if i == 20 {
                // Rejected keys queue and commit nothing.
                for bad in [undecodable(), EdwardsPoint::IDENTITY.compress()] {
                    let refused = sweep.push(&bad, b"refused".to_vec(), sig);
                    assert_eq!(refused, Err(CryptoError::InvalidPoint));
                }
                assert_eq!(sweep.len(), 21);
            }
        }
        let next = sweep.verify(2).expect("honest sweep").bytes32();
        let hex: String = next.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "02542e3c03565bf649526258cb6ed545eb1ef37107bcc1ab4207559846579b3b"
        );
    }

    #[test]
    fn batch_verify_empty_is_ok() {
        let mut rng = HmacDrbg::from_u64(11);
        batch_verify(&[], &mut rng).expect("empty batch");
    }
}
