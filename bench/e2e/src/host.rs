//! Host speed: the reference kernel every time is read against.
//!
//! The hosts this benchmark runs on switch between a fast and a slow mode
//! (up to 2x apart) on every time scale from milliseconds to minutes, so
//! the wall time of identical work differs by a quarter and more between
//! runs, and no amount of repetition inside a run averages that out. What
//! does repeat (to a few percent) is the ratio of a phase's wall time to
//! the time of a fixed arithmetic kernel run right before and after it.
//!
//! Every time the benchmark reports is therefore a *nominal* time: the
//! wall time divided by how many times slower than [`NOMINAL_MS`] the
//! kernel ran around the phase. On a quiet host of the class the kernel
//! was sized on, nominal and wall time coincide; the wall-clock readings
//! are printed beside the nominal ones.
//!
//! The kernel is the benchmark's own code — a chain of 5x51-bit limb
//! multiplications modulo 2^255 - 19, the operation the program spends
//! most of its time in — so no change to the program can move it.

use std::hint::black_box;
use std::time::Instant;

/// What one kernel reading takes on a quiet host of the reference class.
pub const NOMINAL_MS: f64 = 1.0;

/// Multiplications per reading, sized for [`NOMINAL_MS`].
const CHAIN: usize = 78_000;

const MASK: u64 = (1 << 51) - 1;

/// `a * b mod 2^255 - 19` on five 51-bit limbs.
#[inline(always)]
fn mul(a: &[u64; 5], b: &[u64; 5]) -> [u64; 5] {
    let m = |x: u64, y: u64| x as u128 * y as u128;
    let (b1, b2, b3, b4) = (b[1] * 19, b[2] * 19, b[3] * 19, b[4] * 19);
    let mut c = [
        m(a[0], b[0]) + m(a[4], b1) + m(a[3], b2) + m(a[2], b3) + m(a[1], b4),
        m(a[1], b[0]) + m(a[0], b[1]) + m(a[4], b2) + m(a[3], b3) + m(a[2], b4),
        m(a[2], b[0]) + m(a[1], b[1]) + m(a[0], b[2]) + m(a[4], b3) + m(a[3], b4),
        m(a[3], b[0]) + m(a[2], b[1]) + m(a[1], b[2]) + m(a[0], b[3]) + m(a[4], b4),
        m(a[4], b[0]) + m(a[3], b[1]) + m(a[2], b[2]) + m(a[1], b[3]) + m(a[0], b[4]),
    ];
    let mut out = [0u64; 5];
    for i in 0..4 {
        c[i + 1] += c[i] >> 51;
        out[i] = c[i] as u64 & MASK;
    }
    let carry = (c[4] >> 51) as u64;
    out[4] = c[4] as u64 & MASK;
    out[0] += carry * 19;
    out[1] += out[0] >> 51;
    out[0] &= MASK;
    out
}

/// One reading of the reference kernel, in milliseconds.
pub fn reference_ms() -> f64 {
    let start = Instant::now();
    let mut x = [
        0x5_1234_5678_9abc,
        0x2_0fed_cba9_8765,
        0x7_1111_2222_3333,
        0x3_4444_5555_6666,
        0x1_7777_8888_9999,
    ];
    let y = [
        0x6_a09e_667f_3bcc,
        0x3_bb67_ae85_84ca,
        0x4_3c6e_f372_fe94,
        0x2_a54f_f53a_5f1d,
        0x5_510e_527f_ade6,
    ];
    for _ in 0..CHAIN {
        x = mul(black_box(&x), &y);
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// `n` readings in a row on this thread and, at the same time, on a
/// second one: the program under test runs on up to two cores, and the
/// cores of one host do not slow down together.
pub fn burst(n: usize) -> Vec<f64> {
    static TWO_CORES: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    let row = || (0..n).map(|_| reference_ms()).collect::<Vec<f64>>();
    if !*TWO_CORES.get_or_init(|| std::thread::available_parallelism().is_ok_and(|p| p.get() >= 2))
    {
        return row();
    }
    std::thread::scope(|scope| {
        let other = scope.spawn(row);
        let mut readings = row();
        // A sampler that cannot be joined has panicked; its half of the
        // readings is then simply missing.
        readings.extend(other.join().unwrap_or_default());
        readings
    })
}

/// One timed interval with the kernel's median reading around it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Phase {
    pub wall_s: f64,
    pub ref_ms: f64,
}

impl Phase {
    /// How many times slower than nominal the host ran around the phase.
    pub fn slowdown(&self) -> f64 {
        self.ref_ms / NOMINAL_MS
    }

    /// The phase's time on the nominal host.
    pub fn nominal_s(&self) -> f64 {
        self.wall_s / self.slowdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_agrees_with_small_integers_and_wraps_at_the_modulus() {
        let limb = |v: u64| [v, 0, 0, 0, 0];
        assert_eq!(mul(&limb(6), &limb(7)), limb(42));
        // 2^204 * 2^51 = 2^255 = 19 (mod 2^255 - 19)
        assert_eq!(mul(&[0, 0, 0, 0, 1], &[0, 1, 0, 0, 0]), limb(19));
        // (2^255 - 20) * 2 = 2^256 - 40 = 38 - 40 = -2 = 2^255 - 21
        let minus_one = [MASK - 19, MASK, MASK, MASK, MASK];
        assert_eq!(
            mul(&minus_one, &limb(2)),
            [MASK - 20, MASK, MASK, MASK, MASK]
        );
    }

    #[test]
    fn nominal_time_divides_by_the_slowdown() {
        let p = Phase {
            wall_s: 3.0,
            ref_ms: 1.5 * NOMINAL_MS,
        };
        assert_eq!(p.slowdown(), 1.5);
        assert_eq!(p.nominal_s(), 2.0);
    }

    #[test]
    fn a_reading_is_positive_and_repeatable_work() {
        let readings = burst(3);
        assert!(readings.iter().all(|&r| r > 0.0 && r.is_finite()));
    }
}
