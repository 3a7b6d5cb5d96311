//! The versioned wire format: canonical message bytes plus
//! length-prefixed framing.
//!
//! Every message body follows the `vg_crypto::codec` conventions — a
//! strict, injective encoding validated field by field on decode (points
//! decompressed, scalars canonical, lengths bounded, no trailing bytes).
//! A complete wire message is
//!
//! ```text
//!   MAGIC "VGRS" (4) ‖ VERSION u16 ‖ TAG u16 ‖ body…
//! ```
//!
//! and travels inside a frame of `u32 length ‖ message`, so the socket
//! loop can recover message boundaries without parsing bodies. Unknown
//! versions and implausible lengths are rejected before any body decoding
//! happens.

use std::io::{Read, Write};

use vg_crypto::codec::Reader;
use vg_crypto::CryptoError;

use crate::error::ServiceError;

/// The wire magic: identifies a Votegral registrar service stream.
pub const MAGIC: [u8; 4] = *b"VGRS";

/// The wire protocol version this build speaks. Version 2 carries a
/// window's envelope commitments and check-outs in one request (tag 9)
/// and retires version 1's separate envelope submissions (tags 3 and 8).
/// Version 3 retires the untagged check-out's response (tag 1): the
/// registrar answers that request with a typed error.
pub const VERSION: u16 = 3;

/// Hard ceiling on a single frame (64 MiB). A registration window of
/// thousands of sessions stays far below this; anything larger is a
/// protocol violation or an attack.
pub const MAX_FRAME: usize = 64 << 20;

/// A type with a canonical body encoding under the shared codec rules.
pub trait Wire: Sized {
    /// Appends the canonical encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes and validates from a reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError>;

    /// The full encoding as a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Decodes from a complete buffer, requiring full consumption.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// Encodes `Vec<T>` as a length-prefixed sequence.
impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        vg_crypto::codec::put_len(buf, self.len());
        for item in self {
            item.encode(buf);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        let n = r.len_prefix()?;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// Wraps a tagged message body in the versioned envelope.
pub fn seal(tag: u16, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Opens a versioned envelope, returning `(tag, body reader)`.
pub fn unseal(msg: &[u8]) -> Result<(u16, Reader<'_>), CryptoError> {
    let mut r = Reader::new(msg);
    if r.take(4)? != MAGIC {
        return Err(CryptoError::Malformed("bad wire magic"));
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(CryptoError::Malformed("unsupported wire version"));
    }
    let tag = r.u16()?;
    Ok((tag, r))
}

/// Writes one `u32 length ‖ message` frame.
pub fn write_frame(w: &mut impl Write, msg: &[u8]) -> Result<(), ServiceError> {
    if msg.len() > MAX_FRAME {
        return Err(ServiceError::Transport("frame exceeds MAX_FRAME".into()));
    }
    w.write_all(&(msg.len() as u32).to_le_bytes())?;
    w.write_all(msg)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, enforcing [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ServiceError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(ServiceError::Transport("oversized frame".into()));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_roundtrip() {
        let msg = seal(7, b"payload");
        let (tag, mut r) = unseal(&msg).expect("opens");
        assert_eq!(tag, 7);
        assert_eq!(r.take(7).unwrap(), b"payload");
        r.finish().unwrap();
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut msg = seal(1, b"");
        msg[0] ^= 0xff;
        assert!(unseal(&msg).is_err());
        // An unknown version, and a version-1 peer's frame.
        for version in [0xeeu16, 1] {
            let mut msg = seal(1, b"");
            msg[4..6].copy_from_slice(&version.to_le_bytes());
            let unsupported = CryptoError::Malformed("unsupported wire version");
            assert_eq!(unseal(&msg).err(), Some(unsupported));
        }
    }

    #[test]
    fn frame_roundtrip_and_limits() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");

        // An adversarial length prefix is refused before allocation of
        // anything larger than MAX_FRAME.
        let mut evil = Vec::new();
        evil.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = std::io::Cursor::new(evil);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn truncated_frame_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }
}
