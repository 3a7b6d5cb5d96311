//! Deterministic fault injection for the transport and storage seams.
//!
//! A [`FaultPlan`] is a *seed*, not a script: every fault decision is
//! drawn from an [`HmacDrbg`] keyed by the plan seed plus a stable
//! domain-separated coordinate (station index, dial count, operation
//! counter), so the same plan replays the same faults in the same
//! places on every run — on any machine, at any wall-clock speed. A CI
//! failure therefore reproduces locally from the seed alone.
//!
//! # Determinism contract
//!
//! No fault *decision* reads a wall clock or an OS entropy source
//! (vg-lint's nondeterminism rule is enforced on this file). The only
//! time-dependent effect is [`ChannelFault::Delay`], which sleeps for a
//! DRBG-chosen duration — *whether* and *how long* to delay are both
//! pure functions of the seed; only the interleaving the delay provokes
//! varies, which is exactly the schedule diversity the chaos sweep is
//! after. A [`ChannelFault::Stall`] does not sleep at all: it models a
//! peer that stopped making progress by surfacing the typed
//! [`ServiceError::Timeout`] the deadline layer would produce, keeping
//! chaos runs fast and hang-free by construction.
//!
//! The plan realizes faults at two seams:
//!
//! - **Network**: [`FaultyChannel`] wraps any [`FramedChannel`] and
//!   injects per-operation faults (delay, stall, connection drop, torn
//!   write, and on sealed channels byte corruption). [`FaultyConnector`]
//!   wraps any [`Connector`] so every dial — initial connect, reconnect,
//!   steal runner — gets a fresh schedule derived from `(seed, station,
//!   dial)`.
//! - **Disk**: [`FaultPlan::fault_fs`] builds the write-layer schedule
//!   ([`vg_ledger::FaultFs`]) that each of a durable store's two log files
//!   (its record log — on the envelope ledger, commitments and reveals
//!   alike — and `heads.log`) consumes its own clone of —
//!   fail the Nth write or fsync, short writes, ENOSPC.

use std::sync::atomic::{AtomicU64, Ordering};

use vg_crypto::{HmacDrbg, Rng};
use vg_ledger::{FaultFs, FsFault};

use crate::channel::{Connector, FramedChannel};
use crate::error::ServiceError;

/// A seeded, deterministic fault schedule for one registration day.
///
/// See the [module docs](self) for the determinism contract. A plan
/// with `net_rate_permille == 0` and `disk == None` injects nothing and
/// is byte-for-byte equivalent to running without the fault plane.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Root seed every schedule derives from.
    pub seed: u64,
    /// Per-operation network fault probability in permille (`0..=1000`).
    /// Applied independently to each frame send/receive on each faulty
    /// channel.
    pub net_rate_permille: u16,
    /// Include stalls (deadline expiry) in the network fault mix. Kept
    /// separate from the rate so a grid can sweep "lossy but live"
    /// against "lossy and stalling".
    pub stalls: bool,
    /// Write-layer fault for the day's durable store, if any.
    pub disk: Option<FsFault>,
}

impl FaultPlan {
    /// A plan that injects nothing (the identity element of the grid).
    pub fn quiet() -> Self {
        Self::default()
    }

    /// The channel-level fault schedule for dial number `dial` from
    /// station `station`. Reconnects get fresh-but-deterministic
    /// schedules: same `(seed, station, dial)` → same faults.
    ///
    /// In-flight byte corruption is in the mix exactly when the channel
    /// is `sealed`: the secure transport's MAC turns a flipped bit into a
    /// typed rejection, while a plaintext frame would decode the altered
    /// bytes as-is — silent divergence, not a fault the chaos contract
    /// can observe.
    pub fn channel_schedule(&self, station: usize, dial: u64, sealed: bool) -> ChannelSchedule {
        let mut key = Vec::with_capacity(40);
        key.extend_from_slice(b"vgrs/fault/channel-v1");
        key.extend_from_slice(&self.seed.to_le_bytes());
        key.extend_from_slice(&(station as u64).to_le_bytes());
        key.extend_from_slice(&dial.to_le_bytes());
        ChannelSchedule {
            drbg: HmacDrbg::new(&key),
            rate: self.net_rate_permille.min(1000) as u64,
            stalls: self.stalls,
            corrupt: sealed,
        }
    }

    /// The write-layer schedule for the day's durable store, if the
    /// plan injects disk faults.
    pub fn fault_fs(&self) -> Option<FaultFs> {
        self.disk.map(|f| FaultFs::new(vec![f]))
    }
}

/// One injected channel-level fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelFault {
    /// Sleep for the given number of microseconds, then proceed. The
    /// only fault that perturbs timing rather than correctness.
    Delay(u64),
    /// The peer stopped making progress: surface the typed deadline
    /// expiry ([`ServiceError::Timeout`]) without sleeping. The channel
    /// is dead afterwards (a timed-out frame boundary is unrecoverable).
    Stall,
    /// The connection dies cleanly: typed transport error, channel dead.
    Drop,
    /// A torn/partial write at the frame boundary: the frame is lost and
    /// the connection dies (the peer would see a truncated frame and
    /// hang up).
    Truncate,
    /// One bit of the frame is flipped in flight. The frame is still
    /// delivered; framing/MAC/decode layers must reject it typed.
    Corrupt,
}

/// The per-channel deterministic fault stream (see [`FaultPlan`]).
#[derive(Debug)]
pub struct ChannelSchedule {
    drbg: HmacDrbg,
    rate: u64,
    stalls: bool,
    corrupt: bool,
}

impl ChannelSchedule {
    /// Draws the fault decision for the next channel operation.
    fn next(&mut self) -> Option<ChannelFault> {
        if self.rate == 0 || self.drbg.below(1000) >= self.rate {
            return None;
        }
        let kinds = 4 + u64::from(self.corrupt) + u64::from(self.stalls);
        Some(match self.drbg.below(kinds) {
            // Delays dominate the mix: they reorder schedules without
            // killing connections, which is where heal-to-bit-identity
            // actually gets exercised.
            0 | 1 => ChannelFault::Delay(self.drbg.below(2_000)),
            2 => ChannelFault::Drop,
            3 => ChannelFault::Truncate,
            // Arm 4 is corruption when enabled, else the stall arm
            // shifts down; arm 5 only exists when both flags are on.
            4 if self.corrupt => ChannelFault::Corrupt,
            _ => ChannelFault::Stall,
        })
    }

    /// Flips one DRBG-chosen bit of `frame` (no-op on an empty frame).
    fn corrupt(&mut self, frame: &mut [u8]) {
        if frame.is_empty() {
            return;
        }
        let i = self.drbg.below(frame.len() as u64) as usize;
        if let Some(byte) = frame.get_mut(i) {
            *byte ^= 1 << self.drbg.below(8);
        }
    }
}

/// A [`FramedChannel`] wrapper that injects the faults its
/// [`ChannelSchedule`] dictates. Fatal faults (stall, drop, torn write)
/// are sticky: every later operation fails with a typed error, exactly
/// like a real dead socket.
pub struct FaultyChannel {
    inner: Box<dyn FramedChannel>,
    sched: ChannelSchedule,
    dead: Option<ServiceError>,
}

impl FaultyChannel {
    /// Wraps `inner` under `sched`.
    pub fn new(inner: Box<dyn FramedChannel>, sched: ChannelSchedule) -> Self {
        Self {
            inner,
            sched,
            dead: None,
        }
    }

    fn kill(&mut self, e: ServiceError) -> ServiceError {
        self.dead = Some(e.clone());
        e
    }
}

impl FramedChannel for FaultyChannel {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), ServiceError> {
        if let Some(e) = &self.dead {
            return Err(e.clone());
        }
        match self.sched.next() {
            None => self.inner.send_frame(frame),
            Some(ChannelFault::Delay(us)) => {
                std::thread::sleep(std::time::Duration::from_micros(us));
                self.inner.send_frame(frame)
            }
            Some(ChannelFault::Corrupt) => {
                let mut bent = frame.to_vec();
                self.sched.corrupt(&mut bent);
                self.inner.send_frame(&bent)
            }
            Some(ChannelFault::Stall) => Err(self.kill(ServiceError::Timeout(
                "injected stall: write deadline expired".into(),
            ))),
            Some(ChannelFault::Drop) => Err(self.kill(ServiceError::Transport(
                "injected fault: connection dropped".into(),
            ))),
            Some(ChannelFault::Truncate) => Err(self.kill(ServiceError::Transport(
                "injected fault: torn write at frame boundary".into(),
            ))),
        }
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, ServiceError> {
        if let Some(e) = &self.dead {
            return Err(e.clone());
        }
        match self.sched.next() {
            None => self.inner.recv_frame(),
            Some(ChannelFault::Delay(us)) => {
                std::thread::sleep(std::time::Duration::from_micros(us));
                self.inner.recv_frame()
            }
            Some(ChannelFault::Corrupt) => {
                let mut frame = self.inner.recv_frame()?;
                self.sched.corrupt(&mut frame);
                Ok(frame)
            }
            Some(ChannelFault::Stall) => Err(self.kill(ServiceError::Timeout(
                "injected stall: read deadline expired".into(),
            ))),
            Some(ChannelFault::Drop) => Err(self.kill(ServiceError::Transport(
                "injected fault: connection dropped".into(),
            ))),
            // A torn read is indistinguishable from a drop at the frame
            // seam: the partial frame never decodes.
            Some(ChannelFault::Truncate) => Err(self.kill(ServiceError::Transport(
                "injected fault: torn frame on receive".into(),
            ))),
        }
    }

    fn set_read_deadline(&mut self, deadline: Option<std::time::Duration>) {
        self.inner.set_read_deadline(deadline);
    }
}

/// A [`Connector`] wrapper giving every dial a fresh deterministic
/// schedule: dial `n` from `station` replays identically across runs of
/// the same [`FaultPlan`].
///
/// The wrapper composes *outside* the security policy (it wraps the
/// fully established channel), so injected corruption — drawn only when
/// `inner` dials `sealed` channels — exercises the secure channel's MAC
/// rejection path rather than breaking handshakes nondeterministically.
pub struct FaultyConnector {
    inner: Box<dyn Connector>,
    plan: FaultPlan,
    station: usize,
    sealed: bool,
    dials: AtomicU64,
}

impl FaultyConnector {
    /// Wraps `inner`, whose channels are `sealed` or plaintext, for
    /// `station` under `plan`.
    pub fn new(inner: Box<dyn Connector>, plan: FaultPlan, station: usize, sealed: bool) -> Self {
        Self {
            inner,
            plan,
            station,
            sealed,
            dials: AtomicU64::new(0),
        }
    }
}

impl Connector for FaultyConnector {
    fn connect(&self) -> Result<Box<dyn FramedChannel>, ServiceError> {
        let dial = self.dials.fetch_add(1, Ordering::Relaxed);
        let chan = self.inner.connect()?;
        Ok(Box::new(FaultyChannel::new(
            chan,
            self.plan.channel_schedule(self.station, dial, self.sealed),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::pipe_pair;

    fn drain(mut sched: ChannelSchedule, n: usize) -> Vec<Option<ChannelFault>> {
        (0..n).map(|_| sched.next()).collect()
    }

    #[test]
    fn schedules_are_deterministic_and_domain_separated() {
        let plan = FaultPlan {
            seed: 7,
            net_rate_permille: 400,
            stalls: true,
            disk: None,
        };
        let a = drain(plan.channel_schedule(0, 0, true), 64);
        let b = drain(plan.channel_schedule(0, 0, true), 64);
        assert_eq!(a, b, "same coordinate replays identically");
        assert_ne!(
            a,
            drain(plan.channel_schedule(1, 0, true), 64),
            "stations draw independent schedules"
        );
        assert_ne!(
            a,
            drain(plan.channel_schedule(0, 1, true), 64),
            "reconnects draw independent schedules"
        );
        let other = FaultPlan { seed: 8, ..plan };
        assert_ne!(
            a,
            drain(other.channel_schedule(0, 0, true), 64),
            "seed matters"
        );
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let sched = FaultPlan::quiet().channel_schedule(0, 0, true);
        assert!(drain(sched, 256).iter().all(|f| f.is_none()));
    }

    #[test]
    fn stall_mix_gated_by_flag() {
        let plan = FaultPlan {
            seed: 3,
            net_rate_permille: 1000,
            stalls: false,
            disk: None,
        };
        assert!(drain(plan.channel_schedule(0, 0, true), 512)
            .iter()
            .all(|f| !matches!(f, Some(ChannelFault::Stall))));
        let stalling = FaultPlan {
            stalls: true,
            ..plan
        };
        assert!(drain(stalling.channel_schedule(0, 0, true), 512)
            .iter()
            .any(|f| matches!(f, Some(ChannelFault::Stall))));
    }

    #[test]
    fn corruption_is_drawn_exactly_on_sealed_channels() {
        let plan = FaultPlan {
            seed: 9,
            net_rate_permille: 1000,
            stalls: true,
            disk: None,
        };
        let corrupts = |sealed| {
            drain(plan.channel_schedule(0, 0, sealed), 512)
                .iter()
                .filter(|f| matches!(f, Some(ChannelFault::Corrupt)))
                .count()
        };
        assert_eq!(corrupts(false), 0, "a plaintext channel is never corrupted");
        assert!(corrupts(true) > 0, "a sealed channel draws corruption");
    }

    #[test]
    fn fatal_faults_are_sticky_and_typed() {
        let plan = FaultPlan {
            seed: 11,
            net_rate_permille: 1000,
            stalls: true,
            disk: None,
        };
        // Rate 1000 → every op faults; drive sends until a fatal one.
        let (a, _b) = pipe_pair();
        let mut chan = FaultyChannel::new(Box::new(a), plan.channel_schedule(0, 0, true));
        let fatal = loop {
            match chan.send_frame(b"frame") {
                Ok(()) => continue,
                Err(e) => break e,
            }
        };
        assert!(
            matches!(fatal, ServiceError::Timeout(_) | ServiceError::Transport(_)),
            "{fatal:?}"
        );
        // Dead is dead: the error repeats, no panic, no hang.
        assert_eq!(chan.send_frame(b"again"), Err(fatal.clone()));
        assert_eq!(chan.recv_frame(), Err(fatal));
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let plan = FaultPlan {
            seed: 5,
            net_rate_permille: 0,
            stalls: false,
            disk: None,
        };
        let mut sched = plan.channel_schedule(0, 0, true);
        let original = vec![0u8; 32];
        let mut bent = original.clone();
        sched.corrupt(&mut bent);
        let flipped: u32 = original
            .iter()
            .zip(&bent)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn disk_schedule_materializes() {
        let plan = FaultPlan {
            seed: 1,
            net_rate_permille: 0,
            stalls: false,
            disk: Some(FsFault::DiskFull { nth: 3 }),
        };
        assert!(plan.fault_fs().is_some());
        assert!(FaultPlan::quiet().fault_fs().is_none());
    }
}
