//! Deterministic and system randomness.
//!
//! All protocol code draws randomness through the [`Rng`] trait so that
//! tests and experiments can run fully deterministically from a seed while
//! deployments use operating-system entropy. The deterministic generator is
//! an HMAC-DRBG (NIST SP 800-90A) over HMAC-SHA-256.

use crate::hmac::HmacSha256;
use crate::scalar::Scalar;

/// Source of cryptographic randomness.
pub trait Rng {
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);

    /// Samples a uniformly random scalar via 64-byte wide reduction.
    fn scalar(&mut self) -> Scalar {
        let mut wide = [0u8; 64];
        self.fill_bytes(&mut wide);
        Scalar::from_bytes_wide(&wide)
    }

    /// Samples 32 random bytes.
    fn bytes32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.fill_bytes(&mut out);
        out
    }

    /// Samples a uniform `u64`.
    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    /// Samples uniformly from `[0, bound)` by rejection.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        // Rejection sampling on the top multiple of `bound`.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Samples a uniform `f64` in `[0, 1)`.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Samples a uniformly random permutation of `0..n`.
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below((i + 1) as u64) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// Fisher–Yates shuffles a slice (free function so that [`Rng`] stays
/// dyn-compatible despite the generic element type).
pub fn shuffle<T>(rng: &mut dyn Rng, items: &mut [T]) {
    let n = items.len();
    for i in (1..n).rev() {
        let j = rng.below((i + 1) as u64) as usize;
        items.swap(i, j);
    }
}

/// HMAC-DRBG (SP 800-90A) over HMAC-SHA-256; deterministic from its seed.
pub struct HmacDrbg {
    k: [u8; 32],
    v: [u8; 32],
    reseed_counter: u64,
}

impl core::fmt::Debug for HmacDrbg {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // K and V determine every future output; never print them.
        write!(
            f,
            "HmacDrbg(reseed_counter={}, state=<redacted>)",
            self.reseed_counter
        )
    }
}

impl HmacDrbg {
    /// Instantiates the DRBG from seed material (entropy ‖ nonce ‖
    /// personalization, concatenated by the caller).
    pub fn new(seed: &[u8]) -> Self {
        let mut drbg = Self {
            k: [0u8; 32],
            v: [1u8; 32],
            reseed_counter: 1,
        };
        drbg.drbg_update(Some(seed));
        drbg
    }

    /// Convenience constructor from a 64-bit test seed.
    pub fn from_u64(seed: u64) -> Self {
        Self::new(&seed.to_le_bytes())
    }

    fn drbg_update(&mut self, provided: Option<&[u8]>) {
        let mut mac = HmacSha256::new(&self.k);
        mac.update(&self.v).update(&[0x00]);
        if let Some(p) = provided {
            mac.update(p);
        }
        self.k = mac.finalize();
        self.v = crate::hmac::hmac_sha256(&self.k, &self.v);
        if let Some(p) = provided {
            let mut mac = HmacSha256::new(&self.k);
            mac.update(&self.v).update(&[0x01]).update(p);
            self.k = mac.finalize();
            self.v = crate::hmac::hmac_sha256(&self.k, &self.v);
        }
    }
}

impl Rng for HmacDrbg {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut offset = 0;
        while offset < dest.len() {
            self.v = crate::hmac::hmac_sha256(&self.k, &self.v);
            let take = (dest.len() - offset).min(32);
            dest[offset..offset + take].copy_from_slice(&self.v[..take]);
            offset += take;
        }
        self.drbg_update(None);
        self.reseed_counter += 1;
    }
}

/// System entropy source reading `/dev/urandom`, buffered through an
/// HMAC-DRBG reseeded per instantiation.
pub struct OsRng {
    inner: HmacDrbg,
}

impl core::fmt::Debug for OsRng {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "OsRng(state=<redacted>)")
    }
}

impl OsRng {
    /// Creates a generator seeded from the operating system.
    ///
    /// # Panics
    ///
    /// Panics if the platform entropy source cannot be read; a voting
    /// system must not silently degrade to weak randomness.
    pub fn new() -> Self {
        use std::io::Read;
        let mut seed = [0u8; 48];
        let mut f =
            std::fs::File::open("/dev/urandom").expect("open /dev/urandom for system entropy");
        f.read_exact(&mut seed).expect("read system entropy");
        Self {
            inner: HmacDrbg::new(&seed),
        }
    }
}

impl Default for OsRng {
    fn default() -> Self {
        Self::new()
    }
}

impl Rng for OsRng {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = HmacDrbg::from_u64(42);
        let mut b = HmacDrbg::from_u64(42);
        assert_eq!(a.bytes32(), b.bytes32());
        assert_eq!(a.next_u64(), b.next_u64());
        assert_eq!(a.scalar(), b.scalar());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = HmacDrbg::from_u64(1);
        let mut b = HmacDrbg::from_u64(2);
        assert_ne!(a.bytes32(), b.bytes32());
    }

    #[test]
    fn below_is_in_range() {
        let mut rng = HmacDrbg::from_u64(7);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..50 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn permutation_is_permutation() {
        let mut rng = HmacDrbg::from_u64(9);
        let p = rng.permutation(100);
        let mut seen = [false; 100];
        for &i in &p {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_f64_in_range() {
        let mut rng = HmacDrbg::from_u64(3);
        for _ in 0..100 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn scalar_sampling_not_degenerate() {
        let mut rng = HmacDrbg::from_u64(11);
        let a = rng.scalar();
        let b = rng.scalar();
        assert_ne!(a, b);
        assert!(!a.is_zero());
    }

    #[test]
    fn os_rng_produces_output() {
        let mut rng = OsRng::new();
        let a = rng.bytes32();
        let b = rng.bytes32();
        assert_ne!(a, b);
    }
}
