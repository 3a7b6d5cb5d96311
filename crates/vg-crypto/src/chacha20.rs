//! The ChaCha20 stream cipher (RFC 8439 §2.3–2.4), implemented from scratch.
//!
//! [`crate::channel::FrameSealer`] encrypts sealed records with it: one
//! 256-bit key per direction, a 96-bit nonce carrying the frame's sequence
//! number and the 32-bit block counter starting at 0. The RFC's own
//! known-answer vectors are the oracle at the bottom of this module.

/// `"expand 32-byte k"` as four little-endian words (RFC 8439 §2.3).
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Bytes of keystream one block yields.
pub const BLOCK_LEN: usize = 64;

/// The initial state: constants, key, block counter, nonce.
fn init_state(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u32; 16] {
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let mut s = [0u32; 16];
    s[..4].copy_from_slice(&SIGMA);
    for (w, b) in s[4..12].iter_mut().zip(key.chunks_exact(4)) {
        *w = word(b);
    }
    s[12] = counter;
    for (w, b) in s[13..].iter_mut().zip(nonce.chunks_exact(4)) {
        *w = word(b);
    }
    s
}

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// Twenty rounds over `init`, added back to `init`, serialised little-endian.
#[inline(always)]
fn keystream_block(init: &[u32; 16]) -> [u8; BLOCK_LEN] {
    let mut s = *init;
    for _ in 0..10 {
        quarter_round(&mut s, 0, 4, 8, 12);
        quarter_round(&mut s, 1, 5, 9, 13);
        quarter_round(&mut s, 2, 6, 10, 14);
        quarter_round(&mut s, 3, 7, 11, 15);
        quarter_round(&mut s, 0, 5, 10, 15);
        quarter_round(&mut s, 1, 6, 11, 12);
        quarter_round(&mut s, 2, 7, 8, 13);
        quarter_round(&mut s, 3, 4, 9, 14);
    }
    let mut out = [0u8; BLOCK_LEN];
    for ((o, w), i) in out.chunks_exact_mut(4).zip(s).zip(init) {
        o.copy_from_slice(&w.wrapping_add(*i).to_le_bytes());
    }
    out
}

/// The ChaCha20 block function (RFC 8439 §2.3): 64 keystream bytes.
pub fn block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; BLOCK_LEN] {
    keystream_block(&init_state(key, counter, nonce))
}

/// XORs the keystream starting at block `counter` into `data`, which
/// encrypts or decrypts it in place (RFC 8439 §2.4).
///
/// The block counter must not wrap: `data` may span at most
/// `2^32 − counter` blocks (256 GiB from counter 0).
pub fn xor(key: &[u8; 32], counter: u32, nonce: &[u8; 12], data: &mut [u8]) {
    debug_assert!(
        (data.len() as u64).div_ceil(BLOCK_LEN as u64) <= (1u64 << 32) - u64::from(counter),
        "ChaCha20 block counter would wrap"
    );
    let mut state = init_state(key, counter, nonce);
    for chunk in data.chunks_mut(BLOCK_LEN) {
        let ks = keystream_block(&state);
        for (b, k) in chunk.iter_mut().zip(ks) {
            *b ^= k;
        }
        state[12] = state[12].wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn rfc_key() -> [u8; 32] {
        core::array::from_fn(|i| i as u8)
    }

    /// RFC 8439 §2.3.2: the block function on the RFC's key, counter 1.
    #[test]
    fn chacha20_rfc8439_block_function() {
        let nonce = [0, 0, 0, 0x09, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        assert_eq!(
            hex(&block(&rfc_key(), 1, &nonce)),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    /// RFC 8439 §2.4.2: encrypting the "sunscreen" plaintext from counter 1.
    #[test]
    fn chacha20_rfc8439_encryption() {
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you \
                         only one tip for the future, sunscreen would be it."
            .to_vec();
        assert_eq!(data.len(), 114);
        xor(&rfc_key(), 1, &nonce, &mut data);
        assert_eq!(
            hex(&data),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
        );
        // Decryption is the same XOR.
        xor(&rfc_key(), 1, &nonce, &mut data);
        assert!(data.starts_with(b"Ladies and Gentlemen"));
    }

    /// `xor` over several blocks equals the concatenated block function,
    /// whatever the split of the data into calls.
    #[test]
    fn chacha20_xor_matches_block_stream() {
        let (key, nonce) = ([3u8; 32], [5u8; 12]);
        let stream: Vec<u8> = (7..10).flat_map(|c| block(&key, c, &nonce)).collect();
        for len in [0, 1, 63, 64, 65, 130, 192] {
            let mut data = vec![0u8; len];
            xor(&key, 7, &nonce, &mut data);
            assert_eq!(data, stream[..len]);
        }
    }
}
