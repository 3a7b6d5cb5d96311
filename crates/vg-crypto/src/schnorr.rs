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

use crate::drbg::Rng;
use crate::edwards::{CompressedPoint, EdwardsPoint};
use crate::scalar::Scalar;
use crate::sha2::{sha256, Sha512};
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
        let mut h = Sha512::new();
        h.update(b"votegral-schnorr-nonce-v1");
        h.update(&self.sk.to_bytes());
        h.update(&(msg.len() as u64).to_le_bytes());
        h.update(msg);
        let k = Scalar::from_bytes_wide(&h.finalize());
        let r = EdwardsPoint::mul_base(&k).compress();
        self.sign_with_coupon(msg, NonceCoupon { k, r })
    }
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

    /// Rebuilds a coupon from its wire parts.
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

/// A decompression memo for admission sweeps.
///
/// Batched ledger admission, check-out and activation see the *same* few
/// registrar keys (kiosks, officials, printers) tens of thousands of
/// times, and every [`VerifyingKey::from_compressed`] costs a field
/// square root. The cache decodes each distinct encoding once, with the
/// same small-order rejection.
#[derive(Default)]
pub struct VerifyingKeyCache {
    memo: std::collections::HashMap<[u8; 32], Result<VerifyingKey, CryptoError>>,
}

impl VerifyingKeyCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`VerifyingKey::from_compressed`], memoized.
    pub fn get(&mut self, c: &CompressedPoint) -> Result<VerifyingKey, CryptoError> {
        *self
            .memo
            .entry(c.0)
            .or_insert_with(|| VerifyingKey::from_compressed(c))
    }
}

impl VerifyingKey {
    /// Verifies `sig` over `msg` (`Sig.Vf`).
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), CryptoError> {
        let r_point = sig.r.decompress().ok_or(CryptoError::InvalidPoint)?;
        if r_point.is_small_order() {
            return Err(CryptoError::InvalidPoint);
        }
        let e = challenge(&sig.r, &self.0.compress(), msg);
        // s·B == R + e·A.
        let lhs = EdwardsPoint::mul_base(&sig.s);
        let rhs = r_point + self.0 * e;
        if lhs == rhs {
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
/// Uses the standard random-linear-combination check: with fresh random
/// weights zᵢ, Σ zᵢ·sᵢ·B == Σ zᵢ·Rᵢ + Σ zᵢ·eᵢ·Aᵢ holds for honest batches
/// and fails except with negligible probability if any signature is
/// invalid. Ballot admission verifies thousands of independent credential
/// signatures, which is exactly this shape; Pippenger makes the batch
/// several times cheaper than one-by-one verification.
///
/// Returns `Ok(())` only if *every* signature is valid (callers fall back
/// to per-item verification to locate an offender).
pub fn batch_verify(
    items: &[(VerifyingKey, &[u8], Signature)],
    rng: &mut dyn Rng,
) -> Result<(), CryptoError> {
    batch_verify_par(items, 1, rng)
}

/// [`batch_verify`] with the folded multi-scalar multiplication spread
/// over up to `threads` workers (large registration and admission batches
/// are Pippenger-bound; the fold parallelizes cleanly).
pub fn batch_verify_par(
    items: &[(VerifyingKey, &[u8], Signature)],
    threads: usize,
    rng: &mut dyn Rng,
) -> Result<(), CryptoError> {
    if items.is_empty() {
        return Ok(());
    }
    let n = items.len();
    let mut scalars = Vec::with_capacity(2 * n + 1);
    let mut points = Vec::with_capacity(2 * n + 1);
    let mut s_sum = Scalar::ZERO;
    // One shared inversion for all the public-key encodings the challenge
    // hashes need (admission sweeps repeat a handful of keys thousands of
    // times; compressing them one by one is inversion-bound).
    let vk_points: Vec<EdwardsPoint> = items.iter().map(|(vk, _, _)| vk.0).collect();
    let vk_compressed = EdwardsPoint::batch_compress(&vk_points);
    for ((vk, msg, sig), vk_c) in items.iter().zip(vk_compressed.iter()) {
        let r_point = sig.r.decompress().ok_or(CryptoError::InvalidPoint)?;
        // The same rejection `VerifyingKey::verify` makes: without it a key
        // holder's (R = 𝒪, s = e·sk) folds clean here and fails one by one.
        if r_point.is_small_order() {
            return Err(CryptoError::InvalidPoint);
        }
        let e = challenge(&sig.r, vk_c, msg);
        // 128-bit random weight is ample for soundness.
        let mut w = [0u8; 32];
        rng.fill_bytes(&mut w[..16]);
        let z = Scalar::from_bytes_mod_order(&w);
        s_sum += z * sig.s;
        scalars.push(z);
        points.push(r_point);
        scalars.push(z * e);
        points.push(vk.0);
    }
    scalars.push(-s_sum);
    points.push(EdwardsPoint::basepoint());
    if crate::edwards::multiscalar_mul_par(&scalars, &points, threads).is_identity() {
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
/// Used by `vg-ledger`'s batched record admission, `vg-trip`'s batched
/// check-out, and `vg-trip`'s batched activation checks.
pub struct SignatureSweep {
    label: Vec<u8>,
    keys: Vec<(VerifyingKey, Signature)>,
    msgs: Vec<Vec<u8>>,
}

impl SignatureSweep {
    /// Starts an empty sweep under `domain` (a versioned, per-call-site
    /// separation label).
    pub fn new(domain: &[u8]) -> Self {
        let mut label = Vec::with_capacity(64 + domain.len());
        label.extend_from_slice(b"votegral-committed-sweep-v1");
        label.extend_from_slice(&(domain.len() as u64).to_le_bytes());
        label.extend_from_slice(domain);
        Self {
            label,
            keys: Vec::new(),
            msgs: Vec::new(),
        }
    }

    /// Folds extra statement material into the weight commitment (for
    /// callers that continue the returned DRBG into a second fold over
    /// statements this sweep's items do not already bind).
    pub fn commit(&mut self, bytes: &[u8]) {
        self.label
            .extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        self.label.extend_from_slice(bytes);
    }

    /// Queues one `(key, message, signature)` triple, committing all three
    /// to the weight derivation (the key encodings are folded in at
    /// [`SignatureSweep::verify`] time through one shared-inversion batch
    /// compression).
    pub fn push(&mut self, vk: VerifyingKey, msg: Vec<u8>, sig: Signature) {
        self.label
            .extend_from_slice(&(msg.len() as u64).to_le_bytes());
        self.label.extend_from_slice(&msg);
        self.label.extend_from_slice(&sig.to_bytes());
        self.keys.push((vk, sig));
        self.msgs.push(msg);
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` if nothing was queued.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Runs the single folded check over up to `threads` workers.
    ///
    /// On success returns the post-sweep DRBG so follow-on folds (e.g. a
    /// [`crate::batch::BatchVerifier`] over Σ-transcripts checked in the
    /// same admission decision) can keep drawing weights from the same
    /// committed stream. Callers that need per-item error attribution run
    /// their own fallback on `Err` — the fold itself cannot name an
    /// offender.
    pub fn verify(&self, threads: usize) -> Result<crate::HmacDrbg, CryptoError> {
        // Fold the key encodings in last (order inside the commitment is
        // immaterial; completeness is what soundness needs), sharing one
        // inversion across the whole batch.
        let vk_points: Vec<EdwardsPoint> = self.keys.iter().map(|(vk, _)| vk.0).collect();
        let mut label = self.label.clone();
        for c in EdwardsPoint::batch_compress(&vk_points) {
            label.extend_from_slice(&c.0);
        }
        let mut rng = crate::HmacDrbg::new(&sha256(&label));
        let items: Vec<(VerifyingKey, &[u8], Signature)> = self
            .keys
            .iter()
            .zip(self.msgs.iter())
            .map(|(&(vk, sig), msg)| (vk, msg.as_slice(), sig))
            .collect();
        batch_verify_par(&items, threads, &mut rng)?;
        Ok(rng)
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
            sweep.push(key.verifying_key(), msg, sig);
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
                sweep.push(key.verifying_key(), msg, sig);
            }
            assert!(sweep.verify(1).is_err(), "tampered item {bad} survived");
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
            sweep.push(key.verifying_key(), msg.to_vec(), sig);
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
        sweep.push(vk, b"honest".to_vec(), honest);
        sweep.push(vk, msg.to_vec(), crafted);
        assert!(sweep.verify(1).is_err());
    }

    #[test]
    fn batch_verify_empty_is_ok() {
        let mut rng = HmacDrbg::from_u64(11);
        batch_verify(&[], &mut rng).expect("empty batch");
    }
}
