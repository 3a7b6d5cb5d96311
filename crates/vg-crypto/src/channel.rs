//! Secure-channel primitives: ephemeral key agreement, a transcript-bound
//! key schedule, and authenticated frame encryption.
//!
//! `vg-service` layers a SIGMA-style mutual-authentication handshake over
//! its `VGRS` framing; this module supplies the cryptographic core so the
//! service crate never touches raw group or MAC operations. The pieces:
//!
//! - [`EphemeralKey`]: a fresh X-style Diffie–Hellman exchange on the
//!   Edwards group (the same group as every other primitive in this
//!   crate). Peer points are validated — canonical encoding, on-curve,
//!   torsion-free, not small-order — before any secret is derived, so an
//!   adversary cannot force a low-entropy shared key.
//! - [`derive_channel_keys`]: an HKDF-shaped expansion (HMAC-SHA256
//!   extract-and-expand keyed by the handshake transcript hash) yielding
//!   independent per-direction encryption/MAC keys plus a key-confirmation
//!   key that binds the static identities into the session.
//! - [`FrameSealer`]: encrypt-then-MAC over whole frames with a monotonically
//!   increasing 64-bit sequence number. The ciphertext is the plaintext
//!   XOR the [`crate::chacha20`] keystream under the direction's `enc` key,
//!   with nonce `0u32 ‖ seq` (little-endian) and block counter 0; the tag
//!   is HMAC-SHA256 under the direction's `mac` key over
//!   `seq ‖ len ‖ ciphertext`. Replayed, reordered, truncated or
//!   bit-flipped frames all fail the tag check ([`CryptoError::BadMac`]);
//!   the sequence number is implicit (never on the wire), so an attacker
//!   cannot even choose which counter a forgery is checked against.
//!
//! The transcript label `vgrs/handshake/v2` names this record format. A
//! `v1` peer (HMAC-SHA256 counter-mode keystream) derives different keys
//! and fails key confirmation before it can send a record.
//!
//! Like the rest of the crate this is a faithful research substrate, not
//! a hardened TLS replacement: group operations are variable-time and
//! every primitive is written from scratch, because the crate deliberately
//! has no dependencies outside `std`. MAC-tag comparisons, however, are
//! constant-time throughout (via [`crate::ct::ct_eq32`]).

use crate::chacha20;
use crate::ct::ct_eq32;
use crate::drbg::Rng;
use crate::edwards::{CompressedPoint, EdwardsPoint};
use crate::hmac::{hmac_sha256, HmacSha256};
use crate::scalar::Scalar;
use crate::sha2::sha256;
use crate::CryptoError;

/// Domain-separation label for the handshake transcript hash; its version
/// names the record format (see the module doc).
const TRANSCRIPT_DOMAIN: &[u8] = b"vgrs/handshake/v2";

/// A fresh ephemeral Diffie–Hellman key for one handshake.
///
/// The secret scalar never leaves this struct; [`EphemeralKey::agree`]
/// consumes nothing and can be called once per peer point.
pub struct EphemeralKey {
    sk: Scalar,
    /// The compressed public point `x·B`, sent in the clear.
    pub public: CompressedPoint,
}

impl core::fmt::Debug for EphemeralKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print the ephemeral secret scalar.
        write!(f, "EphemeralKey(public={:?}, sk=<redacted>)", self.public)
    }
}

impl EphemeralKey {
    /// Samples a fresh ephemeral key from `rng`.
    pub fn generate(rng: &mut dyn Rng) -> Self {
        let sk = rng.scalar();
        let public = EdwardsPoint::mul_base(&sk).compress();
        Self { sk, public }
    }

    /// Computes the shared secret with a peer's ephemeral public point.
    ///
    /// Rejects encodings that are non-canonical, off-curve, small-order
    /// (which would force a constant shared secret) or carry a torsion
    /// component (which would leak secret bits into the cofactor).
    pub fn agree(&self, peer: &CompressedPoint) -> Result<[u8; 32], CryptoError> {
        let p = validate_peer_point(peer)?;
        Ok((p * self.sk).compress().0)
    }
}

/// Decompresses and validates a peer's handshake point.
pub fn validate_peer_point(peer: &CompressedPoint) -> Result<EdwardsPoint, CryptoError> {
    let p = peer.decompress().ok_or(CryptoError::InvalidPoint)?;
    if p.is_small_order() || !p.is_torsion_free() {
        return Err(CryptoError::InvalidPoint);
    }
    Ok(p)
}

/// Keys for one direction of an established channel.
#[derive(Clone)]
pub struct DirectionKeys {
    /// ChaCha20 record-cipher key.
    pub enc: [u8; 32],
    /// Frame-tag MAC key.
    pub mac: [u8; 32],
}

impl core::fmt::Debug for DirectionKeys {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "DirectionKeys(<enc/mac keys redacted>)")
    }
}

/// The full key block derived from one handshake.
#[derive(Clone)]
pub struct ChannelKeys {
    /// Protects frames sent by the handshake initiator.
    pub client_to_server: DirectionKeys,
    /// Protects frames sent by the responder.
    pub server_to_client: DirectionKeys,
    /// Key-confirmation MAC key: each side tags its static identity under
    /// this key, binding "who signed" to "who holds the session keys".
    pub auth: [u8; 32],
}

impl core::fmt::Debug for ChannelKeys {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ChannelKeys(<session keys redacted>)")
    }
}

/// Hash of the public handshake transcript (both ephemeral points).
///
/// Both sides sign this hash with their static keys, so a
/// man-in-the-middle cannot splice two half-handshakes together.
pub fn transcript_hash(client_eph: &CompressedPoint, server_eph: &CompressedPoint) -> [u8; 32] {
    let mut buf = Vec::with_capacity(TRANSCRIPT_DOMAIN.len() + 64);
    buf.extend_from_slice(TRANSCRIPT_DOMAIN);
    buf.extend_from_slice(&client_eph.0);
    buf.extend_from_slice(&server_eph.0);
    sha256(&buf)
}

/// HKDF-shaped extract-and-expand: the shared secret is extracted under
/// the transcript hash (so the key block is bound to this handshake) and
/// expanded with per-purpose labels into independent keys.
pub fn derive_channel_keys(
    shared: &[u8; 32],
    client_eph: &CompressedPoint,
    server_eph: &CompressedPoint,
) -> ChannelKeys {
    let prk = hmac_sha256(&transcript_hash(client_eph, server_eph), shared);
    let expand = |label: &[u8]| hmac_sha256(&prk, label);
    ChannelKeys {
        client_to_server: DirectionKeys {
            enc: expand(b"c2s/enc"),
            mac: expand(b"c2s/mac"),
        },
        server_to_client: DirectionKeys {
            enc: expand(b"s2c/enc"),
            mac: expand(b"s2c/mac"),
        },
        auth: expand(b"auth/mac"),
    }
}

/// Computes the key-confirmation tag over a static identity.
pub fn confirmation_tag(auth_key: &[u8; 32], role: &[u8], static_pk: &CompressedPoint) -> [u8; 32] {
    let mut mac = HmacSha256::new(auth_key);
    mac.update(role).update(&static_pk.0);
    mac.finalize()
}

/// Authenticated frame encryption for one direction of a channel.
///
/// Encrypt-then-MAC with an implicit 64-bit sequence number: the sender
/// and receiver each count frames. Frame `seq` is encrypted with ChaCha20
/// under the `enc` key and nonce `0u32 ‖ seq` (little-endian), and its
/// HMAC-SHA256 tag under the `mac` key covers the counter, the length and
/// the ciphertext. Any replay, reorder, truncation, extension or bit-flip
/// therefore fails [`FrameSealer::open`] with [`CryptoError::BadMac`].
/// One sealer must only ever be used for one direction — the key schedule
/// hands out disjoint keys per direction. The MAC key's pads are hashed
/// once, here, and every frame's tag starts from a clone of that state.
///
/// A sealer carries at most `u64::MAX` frames: frame `u64::MAX` would
/// need a counter past the end, so [`FrameSealer::seal`] panics and
/// [`FrameSealer::open`] refuses rather than reuse a nonce.
pub struct FrameSealer {
    enc: [u8; 32],
    mac: HmacSha256,
    seq: u64,
}

impl core::fmt::Debug for FrameSealer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The sequence number is public protocol state; the keys are not.
        write!(f, "FrameSealer(seq={}, keys=<redacted>)", self.seq)
    }
}

impl FrameSealer {
    /// Wraps direction keys with the sequence counter at zero.
    pub fn new(keys: DirectionKeys) -> Self {
        Self {
            enc: keys.enc,
            mac: HmacSha256::new(&keys.mac),
            seq: 0,
        }
    }

    /// XORs the ChaCha20 keystream for frame `seq` into `data`.
    fn keystream_xor(&self, seq: u64, data: &mut [u8]) {
        // The service layer's `MAX_FRAME` is 64 MiB, a million blocks: the
        // 32-bit block counter cannot wrap inside one frame (`xor`
        // debug-asserts it).
        let mut nonce = [0u8; 12];
        nonce[4..].copy_from_slice(&seq.to_le_bytes());
        chacha20::xor(&self.enc, 0, &nonce, data);
    }

    fn tag(&self, seq: u64, ct: &[u8]) -> [u8; 32] {
        let mut mac = self.mac.clone();
        mac.update(&seq.to_le_bytes())
            .update(&(ct.len() as u64).to_le_bytes())
            .update(ct);
        mac.finalize()
    }

    /// Seals one frame: returns `ciphertext ‖ tag` and advances the
    /// sequence counter.
    ///
    /// # Panics
    ///
    /// When the sequence space is exhausted (`u64::MAX` frames sealed):
    /// another frame would reuse frame 0's nonce and keystream.
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let seq = self.seq;
        self.seq = seq
            .checked_add(1)
            .expect("FrameSealer: sequence space exhausted; re-handshake");
        let mut out = Vec::with_capacity(plaintext.len() + 32);
        out.extend_from_slice(plaintext);
        self.keystream_xor(seq, &mut out);
        let tag = self.tag(seq, &out);
        out.extend_from_slice(&tag);
        out
    }

    /// Opens one sealed frame, enforcing the implicit sequence number.
    ///
    /// On failure the counter does *not* advance, so a garbage frame
    /// cannot desynchronise an honest stream it failed to break. Once the
    /// sequence space is exhausted every frame is refused.
    pub fn open(&mut self, sealed: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if sealed.len() < 32 {
            return Err(CryptoError::Malformed("sealed frame too short"));
        }
        let (ct, tag) = sealed.split_at(sealed.len() - 32);
        let seq = self.seq;
        let next = seq
            .checked_add(1)
            .ok_or(CryptoError::Malformed("sealed frame sequence exhausted"))?;
        let tag: &[u8; 32] = tag
            .try_into()
            .map_err(|_| CryptoError::Malformed("sealed frame tag length"))?;
        if !ct_eq32(&self.tag(seq, ct), tag) {
            return Err(CryptoError::BadMac);
        }
        self.seq = next;
        let mut pt = ct.to_vec();
        self.keystream_xor(seq, &mut pt);
        Ok(pt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;

    fn keys(seed: u64) -> ChannelKeys {
        let mut rng = HmacDrbg::from_u64(seed);
        let a = EphemeralKey::generate(&mut rng);
        let b = EphemeralKey::generate(&mut rng);
        let s1 = a.agree(&b.public).unwrap();
        let s2 = b.agree(&a.public).unwrap();
        assert_eq!(s1, s2, "DH must commute");
        derive_channel_keys(&s1, &a.public, &b.public)
    }

    #[test]
    fn seal_open_round_trip_and_sequencing() {
        let k = keys(7);
        let mut tx = FrameSealer::new(k.client_to_server.clone());
        let mut rx = FrameSealer::new(k.client_to_server);
        for i in 0..5u8 {
            let msg = vec![i; 40 + i as usize * 17];
            let sealed = tx.seal(&msg);
            assert_ne!(&sealed[..msg.len()], &msg[..], "ciphertext differs");
            assert_eq!(rx.open(&sealed).unwrap(), msg);
        }
    }

    /// Every frame length across the first three keystream block edges.
    #[test]
    fn seal_open_round_trip_every_length_to_200() {
        let k = keys(13);
        let mut tx = FrameSealer::new(k.client_to_server.clone());
        let mut rx = FrameSealer::new(k.client_to_server);
        for len in 0..=200usize {
            let msg: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            let sealed = tx.seal(&msg);
            assert_eq!(sealed.len(), len + 32);
            assert_eq!(rx.open(&sealed).unwrap(), msg, "length {len}");
        }
    }

    /// The record format, pinned: frames of length 0, 1, 64 and 65 (bytes
    /// `0, 1, 2, …`) sealed in that order under `enc = [7; 32]`,
    /// `mac = [9; 32]`. A change here is a change to the wire.
    #[test]
    fn sealed_frames_match_pinned_vector() {
        let keys = DirectionKeys {
            enc: [7; 32],
            mac: [9; 32],
        };
        let mut tx = FrameSealer::new(keys);
        let sealed: Vec<String> = [0usize, 1, 64, 65]
            .iter()
            .map(|&len| {
                let msg: Vec<u8> = (0..len as u8).collect();
                tx.seal(&msg).iter().map(|b| format!("{b:02x}")).collect()
            })
            .collect();
        assert_eq!(sealed, PINNED_FRAMES);
    }

    /// Cross-checked against OpenSSL's `chacha20` (iv = counter ‖ nonce)
    /// and an independent HMAC-SHA256 when pinned.
    const PINNED_FRAMES: [&str; 4] = [
        "9fbc2f3b21bddc46633bec810cae2d2a10c3565a1655178167403f4f2a0ef9bf",
        "6d3afadd9d561c2d66a96bf9e2fcc7e40ada1207ace904f4c62884371754e1893c",
        "c51886a4e603d8cec81b18f1ded61f0115362097420d946d112b27ca1d49985f\
         2f15292d78f101d47ca9ad8d421f42e28386e057153e0034218d76b178bd1204\
         eca0f067079dad1867350792dc382ab254cdf61a308a166feac31b8cd00fb766",
        "8f275bf80e460af90df805d48e12a1b6691954b6631b04194671843af562120b\
         2465d9f29a1877448c79697cda4717f60fb6a9c24dc92e856fefbe174c4895c9\
         cd3f9cad6807be777117fa1f0004da2334f05d1d7bca621f8883d128870a4cddde",
    ];

    fn sealer_at(keys: &DirectionKeys, seq: u64) -> FrameSealer {
        FrameSealer {
            seq,
            ..FrameSealer::new(keys.clone())
        }
    }

    /// The last frame of the sequence space opens; after it the receiver
    /// refuses, typed, instead of wrapping to frame 0's nonce.
    #[test]
    fn exhausted_sequence_is_refused_not_wrapped() {
        let k = keys(14).client_to_server;
        let mut tx = sealer_at(&k, u64::MAX - 1);
        let mut rx = sealer_at(&k, u64::MAX - 1);
        assert_eq!(rx.open(&tx.seal(b"last")).unwrap(), b"last");
        let frame0 = FrameSealer::new(k).seal(b"frame 0 replayed");
        assert_eq!(
            rx.open(&frame0),
            Err(CryptoError::Malformed("sealed frame sequence exhausted"))
        );
    }

    #[test]
    #[should_panic(expected = "sequence space exhausted")]
    fn exhausted_sequence_panics_on_seal() {
        let mut tx = sealer_at(&keys(15).client_to_server, u64::MAX - 1);
        tx.seal(b"last");
        tx.seal(b"would reuse frame 0's keystream");
    }

    #[test]
    fn replay_reorder_and_tamper_fail() {
        let k = keys(8);
        let mut tx = FrameSealer::new(k.client_to_server.clone());
        let mut rx = FrameSealer::new(k.client_to_server);
        let s1 = tx.seal(b"first");
        let s2 = tx.seal(b"second");
        // Reorder: frame 2 cannot open at position 1.
        assert_eq!(rx.open(&s2), Err(CryptoError::BadMac));
        // The failed open did not advance the counter.
        assert_eq!(rx.open(&s1).unwrap(), b"first");
        // Replay: frame 1 again fails at position 2.
        assert_eq!(rx.open(&s1), Err(CryptoError::BadMac));
        // Bit-flip fails.
        let mut bad = s2.clone();
        bad[0] ^= 1;
        assert_eq!(rx.open(&bad), Err(CryptoError::BadMac));
        // Truncation fails.
        assert_eq!(rx.open(&s2[..s2.len() - 1]), Err(CryptoError::BadMac));
        // The original still opens.
        assert_eq!(rx.open(&s2).unwrap(), b"second");
    }

    #[test]
    fn directions_are_independent() {
        let k = keys(9);
        let mut tx = FrameSealer::new(k.client_to_server);
        let mut rx = FrameSealer::new(k.server_to_client);
        let sealed = tx.seal(b"wrong direction");
        assert_eq!(rx.open(&sealed), Err(CryptoError::BadMac));
    }

    #[test]
    fn low_order_and_garbage_points_rejected() {
        let mut rng = HmacDrbg::from_u64(10);
        let eph = EphemeralKey::generate(&mut rng);
        assert_eq!(
            eph.agree(&CompressedPoint::identity()),
            Err(CryptoError::InvalidPoint)
        );
        assert_eq!(
            eph.agree(&CompressedPoint([0xff; 32])),
            Err(CryptoError::InvalidPoint)
        );
    }

    /// The transcript label names the record format: a peer still on the
    /// HMAC-keystream `v1` format derives other keys and fails key
    /// confirmation.
    #[test]
    fn transcript_label_is_v2() {
        let (a, b) = (CompressedPoint([1; 32]), CompressedPoint([2; 32]));
        let v2 = sha256(&[&b"vgrs/handshake/v2"[..], &a.0, &b.0].concat());
        assert_eq!(transcript_hash(&a, &b), v2);
    }

    #[test]
    fn key_schedule_is_transcript_bound() {
        let k1 = keys(11);
        let k2 = keys(12);
        assert_ne!(k1.client_to_server.enc, k2.client_to_server.enc);
        assert_ne!(k1.client_to_server.enc, k1.server_to_client.enc);
        assert_ne!(k1.client_to_server.mac, k1.client_to_server.enc);
    }
}
