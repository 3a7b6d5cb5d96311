//! A QR-style two-dimensional symbol codec.
//!
//! The paper's prototype uses `gozxing` to encode and decode QR codes
//! carrying 13–356 bytes of credential material (§7.2). This module is a
//! from-scratch codec with the same computational shape: byte-mode
//! segmentation with length header and standard QR padding (0xEC/0x11),
//! Reed–Solomon parity per block with ≤255-codeword blocks and block
//! interleaving, and a module bitmap with finder patterns and a mask.
//!
//! The symbol geometry follows QR conventions (version v is a
//! (17+4v)×(17+4v) module square) but uses a simplified capacity model and
//! a single mask. That substitution is deliberate: what the experiments
//! measure is encode/decode compute and payload-proportional print/scan
//! time, both of which this codec reproduces.

use crate::rs::{self, RsError};

/// Error-correction level as a parity fraction (QR level M ≈ 15%,
/// rounded up per block).
const PARITY_FRACTION_NUM: usize = 15;
const PARITY_FRACTION_DEN: usize = 100;

/// Maximum supported version.
pub const MAX_VERSION: u8 = 20;

/// Errors raised by the QR codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QrError {
    /// Payload too large for the maximum version.
    TooLarge,
    /// The bitmap does not parse as a symbol (bad geometry or header).
    Malformed,
    /// Reed–Solomon decoding failed (damage beyond correction capacity).
    Unrecoverable(RsError),
    /// The decoded length header is inconsistent.
    BadHeader,
}

/// A QR-style symbol: version, codewords and module bitmap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QrSymbol {
    /// Symbol version (1..=MAX_VERSION).
    pub version: u8,
    /// Interleaved codewords (data blocks + parity blocks).
    pub codewords: Vec<u8>,
    /// Module bitmap, row-major, `side()`² entries.
    pub modules: Vec<bool>,
}

/// Side length in modules for a version.
pub fn side(version: u8) -> usize {
    17 + 4 * version as usize
}

/// Total codeword capacity for a version (modules minus the three 9×9
/// finder regions and the format strip, divided into bytes).
pub fn total_codewords(version: u8) -> usize {
    let s = side(version);
    (s * s - 3 * 81 - 2 * s) / 8
}

/// Data codewords (total minus parity) for a version.
pub fn data_codewords(version: u8) -> usize {
    let total = total_codewords(version);
    total - parity_codewords(version)
}

/// Parity codewords for a version.
pub fn parity_codewords(version: u8) -> usize {
    let total = total_codewords(version);
    (total * PARITY_FRACTION_NUM).div_ceil(PARITY_FRACTION_DEN)
}

/// Picks the smallest version that fits `payload_len` bytes (plus the
/// 3-byte header).
pub fn version_for(payload_len: usize) -> Option<u8> {
    (1..=MAX_VERSION).find(|&v| data_codewords(v) >= payload_len + 3)
}

/// Splits a codeword count into RS blocks of at most 255 codewords,
/// as evenly as possible.
fn block_sizes(total_data: usize, total_parity: usize) -> Vec<(usize, usize)> {
    // Keep each block's data+parity within 255.
    let mut blocks = 1usize;
    while total_data.div_ceil(blocks) + total_parity.div_ceil(blocks) > 255 {
        blocks += 1;
    }
    let mut out = Vec::with_capacity(blocks);
    for i in 0..blocks {
        let d = total_data / blocks + usize::from(i < total_data % blocks);
        let p = total_parity / blocks + usize::from(i < total_parity % blocks);
        out.push((d, p));
    }
    out
}

/// Encodes a payload into a symbol.
pub fn encode(payload: &[u8]) -> Result<QrSymbol, QrError> {
    let version = version_for(payload.len()).ok_or(QrError::TooLarge)?;
    let n_data = data_codewords(version);
    let n_parity = parity_codewords(version);

    // Byte-mode header: mode nibble (0100), 16-bit length — packed here as
    // three whole bytes for byte alignment.
    let mut data = Vec::with_capacity(n_data);
    data.push(0x40);
    data.extend_from_slice(&(payload.len() as u16).to_be_bytes());
    data.extend_from_slice(payload);
    // Standard QR padding alternation.
    let mut pad = [0xecu8, 0x11].iter().cycle();
    while data.len() < n_data {
        data.push(*pad.next().expect("cycle"));
    }

    // Per-block RS parity, then interleave (all data blocks column-major,
    // then all parity blocks column-major), as QR does.
    let blocks = block_sizes(n_data, n_parity);
    let mut data_blocks = Vec::with_capacity(blocks.len());
    let mut parity_blocks = Vec::with_capacity(blocks.len());
    let mut offset = 0;
    for &(d, p) in &blocks {
        let chunk = &data[offset..offset + d];
        parity_blocks.push(rs::encode(chunk, p));
        data_blocks.push(chunk.to_vec());
        offset += d;
    }
    let mut codewords = Vec::with_capacity(n_data + n_parity);
    let max_d = blocks.iter().map(|b| b.0).max().unwrap_or(0);
    for col in 0..max_d {
        for db in &data_blocks {
            if col < db.len() {
                codewords.push(db[col]);
            }
        }
    }
    let max_p = blocks.iter().map(|b| b.1).max().unwrap_or(0);
    for col in 0..max_p {
        for pb in &parity_blocks {
            if col < pb.len() {
                codewords.push(pb[col]);
            }
        }
    }

    let modules = paint(version, &codewords);
    Ok(QrSymbol {
        version,
        codewords,
        modules,
    })
}

/// Lays the codeword bits into the module bitmap (finder patterns in three
/// corners, mask (i+j)%2, serpentine fill of the free area).
fn paint(version: u8, codewords: &[u8]) -> Vec<bool> {
    let s = side(version);
    let mut modules = vec![false; s * s];
    let mut reserved = vec![false; s * s];
    // Finder patterns: 9×9 regions (7×7 pattern + separator) in three
    // corners.
    for &(r0, c0) in &[(0usize, 0usize), (0, s - 9), (s - 9, 0)] {
        for r in 0..9 {
            for c in 0..9 {
                let idx = (r0 + r) * s + (c0 + c);
                reserved[idx] = true;
                // Concentric squares of the finder pattern.
                let (fr, fc) = (r as i32 - 1, c as i32 - 1);
                let inside = (0..7).contains(&fr) && (0..7).contains(&fc);
                let dark = inside
                    && (fr == 0
                        || fr == 6
                        || fc == 0
                        || fc == 6
                        || ((2..=4).contains(&fr) && (2..=4).contains(&fc)));
                modules[idx] = dark;
            }
        }
    }
    // Format strip: first full row and column below/right of the finders.
    for k in 0..s {
        reserved[9 * s + k] = true;
        reserved[k * s + 9] = true;
    }
    // Serpentine data fill with checkerboard mask.
    let mut bit_iter = codewords
        .iter()
        .flat_map(|b| (0..8).rev().map(move |k| (b >> k) & 1 == 1));
    'outer: for r in 0..s {
        let cols: Box<dyn Iterator<Item = usize>> = if r % 2 == 0 {
            Box::new(0..s)
        } else {
            Box::new((0..s).rev())
        };
        for c in cols {
            let idx = r * s + c;
            if reserved[idx] {
                continue;
            }
            match bit_iter.next() {
                Some(bit) => modules[idx] = bit ^ ((r + c) % 2 == 0),
                None => break 'outer,
            }
        }
    }
    modules
}

/// Extracts codewords back out of a module bitmap.
fn unpaint(version: u8, modules: &[bool]) -> Result<Vec<u8>, QrError> {
    let s = side(version);
    if modules.len() != s * s {
        return Err(QrError::Malformed);
    }
    let mut reserved = vec![false; s * s];
    for &(r0, c0) in &[(0usize, 0usize), (0, s - 9), (s - 9, 0)] {
        for r in 0..9 {
            for c in 0..9 {
                reserved[(r0 + r) * s + (c0 + c)] = true;
            }
        }
    }
    for k in 0..s {
        reserved[9 * s + k] = true;
        reserved[k * s + 9] = true;
    }
    let n_total = total_codewords(version);
    let mut bits = Vec::with_capacity(n_total * 8);
    'outer: for r in 0..s {
        let cols: Box<dyn Iterator<Item = usize>> = if r % 2 == 0 {
            Box::new(0..s)
        } else {
            Box::new((0..s).rev())
        };
        for c in cols {
            let idx = r * s + c;
            if reserved[idx] {
                continue;
            }
            bits.push(modules[idx] ^ ((r + c) % 2 == 0));
            if bits.len() == n_total * 8 {
                break 'outer;
            }
        }
    }
    let mut codewords = Vec::with_capacity(n_total);
    for chunk in bits.chunks_exact(8) {
        let mut b = 0u8;
        for &bit in chunk {
            b = (b << 1) | bit as u8;
        }
        codewords.push(b);
    }
    Ok(codewords)
}

/// Decodes a symbol's payload, correcting transmission errors.
pub fn decode(symbol: &QrSymbol) -> Result<Vec<u8>, QrError> {
    decode_from_modules(symbol.version, &symbol.modules)
}

/// Decodes directly from a (possibly damaged) module bitmap.
pub fn decode_from_modules(version: u8, modules: &[bool]) -> Result<Vec<u8>, QrError> {
    if version == 0 || version > MAX_VERSION {
        return Err(QrError::Malformed);
    }
    let codewords = unpaint(version, modules)?;
    let n_data = data_codewords(version);
    let n_parity = parity_codewords(version);
    if codewords.len() < n_data + n_parity {
        return Err(QrError::Malformed);
    }

    // De-interleave into blocks.
    let blocks = block_sizes(n_data, n_parity);
    let mut data_blocks: Vec<Vec<u8>> = blocks.iter().map(|b| Vec::with_capacity(b.0)).collect();
    let mut parity_blocks: Vec<Vec<u8>> = blocks.iter().map(|b| Vec::with_capacity(b.1)).collect();
    let mut it = codewords.iter().copied();
    let max_d = blocks.iter().map(|b| b.0).max().unwrap_or(0);
    for col in 0..max_d {
        for (bi, b) in blocks.iter().enumerate() {
            if col < b.0 {
                data_blocks[bi].push(it.next().ok_or(QrError::Malformed)?);
            }
        }
    }
    let max_p = blocks.iter().map(|b| b.1).max().unwrap_or(0);
    for col in 0..max_p {
        for (bi, b) in blocks.iter().enumerate() {
            if col < b.1 {
                parity_blocks[bi].push(it.next().ok_or(QrError::Malformed)?);
            }
        }
    }

    // RS-decode each block.
    let mut data = Vec::with_capacity(n_data);
    for (bi, b) in blocks.iter().enumerate() {
        let mut codeword = data_blocks[bi].clone();
        codeword.extend_from_slice(&parity_blocks[bi]);
        rs::decode(&mut codeword, b.1).map_err(QrError::Unrecoverable)?;
        data.extend_from_slice(&codeword[..b.0]);
    }

    // Parse header.
    if data.len() < 3 || data[0] != 0x40 {
        return Err(QrError::BadHeader);
    }
    let len = u16::from_be_bytes([data[1], data[2]]) as usize;
    if 3 + len > data.len() {
        return Err(QrError::BadHeader);
    }
    Ok(data[3..3 + len].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_payload_range_roundtrips() {
        // The paper's QR payloads span 13–356 bytes (§7.2).
        for len in [13usize, 64, 150, 356] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let symbol = encode(&payload).expect("encodes");
            assert_eq!(decode(&symbol).expect("decodes"), payload, "len {len}");
        }
    }

    #[test]
    fn version_scales_with_payload() {
        let small = encode(&[0u8; 13]).unwrap();
        let large = encode(&[0u8; 356]).unwrap();
        assert!(small.version < large.version);
        assert!(small.modules.len() < large.modules.len());
    }

    #[test]
    fn damaged_modules_recovered() {
        let payload: Vec<u8> = (0..100u8).collect();
        let mut symbol = encode(&payload).unwrap();
        // Flip a handful of isolated data modules (within RS capacity:
        // each flip damages at most one codeword, and t = ecc/2 >= 10
        // at this payload size).
        let s = side(symbol.version);
        for k in 0..8 {
            let idx = (11 + 2 * k) * s + (11 + k);
            symbol.modules[idx] = !symbol.modules[idx];
        }
        assert_eq!(decode(&symbol).expect("recovers"), payload);
    }

    #[test]
    fn heavy_damage_detected() {
        let payload: Vec<u8> = (0..100u8).collect();
        let mut symbol = encode(&payload).unwrap();
        // Destroy a third of the non-reserved area.
        let n = symbol.modules.len();
        for idx in (0..n).step_by(3) {
            symbol.modules[idx] = !symbol.modules[idx];
        }
        match decode(&symbol) {
            Err(_) => {}
            Ok(out) => assert_ne!(out, payload, "must not silently miscorrect"),
        }
    }

    #[test]
    fn too_large_rejected() {
        let huge = vec![0u8; 10_000];
        assert_eq!(encode(&huge).unwrap_err(), QrError::TooLarge);
    }

    #[test]
    fn capacity_model_sane() {
        for v in 1..=MAX_VERSION {
            assert!(data_codewords(v) > 0);
            assert!(parity_codewords(v) > 0);
            assert!(total_codewords(v) == data_codewords(v) + parity_codewords(v));
            if v > 1 {
                assert!(total_codewords(v) > total_codewords(v - 1));
            }
        }
        // Version 1 must hold the smallest paper payload (13 bytes).
        assert!(data_codewords(1) >= 16);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_roundtrip(payload in proptest::collection::vec(any::<u8>(), 1..356)) {
            let symbol = encode(&payload).expect("encodes");
            prop_assert_eq!(decode(&symbol).expect("decodes"), payload);
        }
    }
}
