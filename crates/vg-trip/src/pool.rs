//! The ceremony pool: batched precomputation of registration session
//! material ahead of voter arrival.
//!
//! A [`CeremonyPool`] owns the planned check-in queue and derives
//! [`SessionMaterials`] bundles for it in configurable refill batches, on
//! the thread that refills it (a station, or its background refiller).
//! Because every bundle is a pure function of `(seed, session index,
//! voter)`, the pool's batch size changes *when* material is ready, never
//! *what* it is — which is what lets a kiosk fleet replay bit-identically.
//!
//! Each refill ends with a batched **self-check**: one random-linear-
//! combination multi-scalar multiplication ([`vg_crypto::multiscalar_mul`])
//! over all freshly derived commitments verifies that every precomputed
//! point matches its claimed scalar. A kiosk appliance whose precompute
//! store bit-rots (or is tampered with between idle-time precompute and
//! the ceremony) is caught before any voter consumes the material.
//! Signing coupons are deliberately *not* covered — checking R = k·B
//! would require handling the nonce outside its single-use cell — and a
//! corrupted coupon only yields an invalid signature that ledger
//! admission rejects.

use std::collections::VecDeque;

use vg_crypto::edwards::FixedBaseTable;
use vg_crypto::sync::{lock_recover, wait_recover};
use vg_crypto::{multiscalar_mul, EdwardsPoint, HmacDrbg, Scalar};
use vg_ledger::VoterId;

use crate::ceremony::SessionMaterials;
use crate::error::TripError;
use crate::materials::Envelope;
use crate::printer::EnvelopePrinter;
use vg_ledger::EnvelopeCommitment;

/// One planned registration session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionPlan {
    /// The voter expected at this queue position.
    pub voter: VoterId,
    /// Fake credentials the voter intends to create.
    pub n_fakes: usize,
    /// Whether the serving kiosk is the credential-stealing adversary
    /// (decides if a spare forge precursor is derived).
    pub malicious: bool,
}

/// An envelope print fulfilment hook: [`crate::ceremony::PrintJob`]s in,
/// printed envelopes with their (not yet posted) ledger commitments out,
/// one per job in job order.
pub type PrintFulfil<'a> = dyn FnMut(&[crate::ceremony::PrintJob]) -> Result<Vec<(Envelope, EnvelopeCommitment)>, TripError>
    + 'a;

/// Precomputes [`SessionMaterials`] for a planned queue, in refill batches,
/// with a batched integrity self-check per refill.
pub struct CeremonyPool {
    seed: [u8; 32],
    authority_pk: EdwardsPoint,
    /// `(global session index, plan)` pairs, in derivation order. For a
    /// whole-queue pool the indices are simply `0..n`; a polling-station
    /// pool derives its station's (interleaved) subsequence of the global
    /// queue, and the indices keep every bundle a pure function of
    /// `(seed, global index, voter)` — the replay contract.
    plan: Vec<(usize, SessionPlan)>,
    ready: VecDeque<SessionMaterials>,
    next: usize,
    batch: usize,
    refills: u64,
}

impl CeremonyPool {
    /// Creates a pool for `plan` — `(global session index, plan)` pairs,
    /// the whole day's queue or a polling station's share of it —
    /// refilling `batch` sessions at a time. Indices must be strictly
    /// increasing.
    pub fn new(
        seed: [u8; 32],
        authority_pk: EdwardsPoint,
        plan: Vec<(usize, SessionPlan)>,
        batch: usize,
    ) -> Self {
        debug_assert!(plan.windows(2).all(|w| w[0].0 < w[1].0));
        Self {
            seed,
            authority_pk,
            plan,
            ready: VecDeque::new(),
            next: 0,
            batch: batch.max(1),
            refills: 0,
        }
    }

    /// Sessions derived and waiting to be consumed.
    pub fn prepared(&self) -> usize {
        self.ready.len()
    }

    /// Sessions not yet derived.
    pub fn pending(&self) -> usize {
        self.plan.len() - self.next
    }

    /// Derives the next refill batch (up to the configured batch size) and
    /// self-checks it. Returns how many sessions became ready.
    pub fn refill(&mut self, printer: &EnvelopePrinter) -> Result<usize, TripError> {
        self.refill_via(&mut |jobs| Ok(printer.print_jobs(jobs)))
    }

    /// [`CeremonyPool::refill`] with envelope printing routed through a
    /// caller-supplied fulfilment hook — the service layer's print
    /// request (`Request::Print`). The batch's session material is
    /// derived locally, every session's
    /// [`PrintJob`](crate::ceremony::PrintJob)s are gathered
    /// into **one** `print` call (batch order = session order, jobs
    /// contiguous per session), and the returned envelopes are attached
    /// back. Printing is a pure function of each job under an honest
    /// printer key, so both fulfilment paths yield bit-identical pools.
    pub fn refill_via(&mut self, print: &mut PrintFulfil<'_>) -> Result<usize, TripError> {
        let end = (self.next + self.batch).min(self.plan.len());
        if self.next == end {
            return Ok(0);
        }
        // Every credential multiplies A_pk once or twice. Its table is built
        // once per process, so a booth's one-session refill uses it too.
        let pk_table = FixedBaseTable::shared(&self.authority_pk);
        let unprinted: Vec<_> = self.plan[self.next..end]
            .iter()
            .map(|&(index, plan)| {
                SessionMaterials::derive_unprinted_with(
                    &self.seed,
                    index,
                    plan.voter,
                    plan.n_fakes,
                    &pk_table,
                    plan.malicious,
                )
            })
            .collect();
        let print_jobs: Vec<crate::ceremony::PrintJob> = unprinted
            .iter()
            .flat_map(|u| u.jobs().iter().copied())
            .collect();
        let mut printed = print(&print_jobs)?;
        if printed.len() != print_jobs.len() {
            return Err(TripError::Crypto(vg_crypto::CryptoError::Malformed(
                "print fulfilment returned a wrong envelope count",
            )));
        }
        let mut fresh = Vec::with_capacity(unprinted.len());
        for u in unprinted.into_iter().rev() {
            let take = u.jobs().len();
            let batch: Vec<(Envelope, EnvelopeCommitment)> =
                printed.drain(printed.len() - take..).collect();
            fresh.push(u.attach(batch));
        }
        fresh.reverse();
        // Advance the cursor only once the batch passes its self-check:
        // a caller that treats `PoolIntegrity` as transient and retries
        // re-derives the same sessions instead of silently skipping them.
        self.self_check(&fresh)?;
        self.next = end;
        self.refills += 1;
        let n = fresh.len();
        self.ready.extend(fresh);
        Ok(n)
    }

    /// Derives everything still pending (the "booth is idle overnight"
    /// case the paper's deployment assumes).
    pub fn warm(&mut self, printer: &EnvelopePrinter) -> Result<(), TripError> {
        while self.pending() > 0 {
            self.refill(printer)?;
        }
        Ok(())
    }

    /// Takes the next already-derived session's materials without
    /// refilling (the fleet drains exactly one refill window at a time).
    pub fn take_ready(&mut self) -> Option<SessionMaterials> {
        self.ready.pop_front()
    }

    /// One folded multi-scalar check over the refill: for random 128-bit
    /// weights w, Σ w·(claimed scalar · base − precomputed point) must be
    /// the identity across every real-credential commitment half, tag
    /// component and forge-precursor half in the batch.
    fn self_check(&self, fresh: &[SessionMaterials]) -> Result<(), TripError> {
        let mut label = Vec::with_capacity(48);
        label.extend_from_slice(b"trip-pool-selfcheck-v1");
        label.extend_from_slice(&self.seed);
        label.extend_from_slice(&self.refills.to_le_bytes());
        let mut rng = HmacDrbg::new(&label);
        let mut weight = || vg_crypto::batch::small_weight(&mut rng);

        // Accumulate basepoint and authority-key coefficients; everything
        // else is a dynamic term.
        let mut base_coeff = Scalar::ZERO;
        let mut auth_coeff = Scalar::ZERO;
        let mut scalars = Vec::new();
        let mut points = Vec::new();
        let mut push = |w: Scalar, claimed: &Scalar, point: &EdwardsPoint, auth: bool| {
            scalars.push(-w);
            points.push(*point);
            if auth {
                auth_coeff += w * *claimed;
            } else {
                base_coeff += w * *claimed;
            }
        };
        for m in fresh {
            let r = &m.real;
            // c₁ = x·B and X = c₂ − c_pk = x·A.
            push(weight(), &r.elgamal_secret, &r.c_pc.c1, false);
            let big_x = r.c_pc.c2 - r.credential.verifying_key().0;
            push(weight(), &r.elgamal_secret, &big_x, true);
            // Y₁ = y·B, Y₂ = y·A.
            push(weight(), &r.nonce, &r.commit.a1, false);
            push(weight(), &r.nonce, &r.commit.a2, true);
            for f in m.fakes.iter().chain(m.malicious_spare.iter()) {
                push(weight(), &f.forge_nonce, &f.g1y, false);
                push(weight(), &f.forge_nonce, &f.g2y, true);
            }
        }
        scalars.push(base_coeff);
        points.push(EdwardsPoint::basepoint());
        scalars.push(auth_coeff);
        points.push(self.authority_pk);
        if multiscalar_mul(&scalars, &points).is_identity() {
            Ok(())
        } else {
            Err(TripError::PoolIntegrity)
        }
    }
}

/// A bounded buffer between a background pool-refiller thread and the
/// ceremony consumer — the "booth never waits for precompute" half of the
/// pipelined registration day.
///
/// The refiller ([`PoolFeed::run_refiller`]) owns a [`CeremonyPool`] and a
/// print fulfilment hook (typically a `Request::Print` client on its own
/// connection) and derives the next refill batch whenever the buffer sinks
/// to the low-water mark, so precompute overlaps ceremony latency all day
/// instead of only at warm start. The consumer pops ready sessions in
/// strict derivation order ([`PoolFeed::take_window`]); because every
/// bundle is a pure function of `(seed, global index, voter)`, buffering
/// changes *when* material exists, never *what* it is.
pub struct PoolFeed {
    state: std::sync::Mutex<FeedState>,
    /// Signalled when sessions become takeable (or the feed ends).
    takeable: std::sync::Condvar,
    /// Signalled when the buffer drains to the low-water mark (or the
    /// consumer goes away).
    refill: std::sync::Condvar,
    low_water: usize,
}

struct FeedState {
    ready: VecDeque<SessionMaterials>,
    /// The refiller exhausted its plan (or failed) and will push no more.
    done: bool,
    /// The consumer is gone; the refiller should stop deriving.
    closed: bool,
    error: Option<TripError>,
}

impl PoolFeed {
    /// A feed whose refiller tops the buffer up whenever fewer than
    /// `low_water` sessions are ready.
    pub fn new(low_water: usize) -> Self {
        Self {
            state: std::sync::Mutex::new(FeedState {
                ready: VecDeque::new(),
                done: false,
                closed: false,
                error: None,
            }),
            takeable: std::sync::Condvar::new(),
            refill: std::sync::Condvar::new(),
            low_water: low_water.max(1),
        }
    }

    /// Sessions currently buffered (telemetry).
    pub fn prepared(&self) -> usize {
        lock_recover(&self.state).ready.len()
    }

    /// The refiller body: derives `pool` batch by batch (printing through
    /// `print`), keeping the buffer above the low-water mark, until the
    /// plan is exhausted, the consumer closes the feed, or a refill fails
    /// (the error is handed to the consumer). Run this on a dedicated
    /// thread; it blocks while the buffer is full enough.
    pub fn run_refiller(
        &self,
        pool: &mut CeremonyPool,
        print: &mut PrintFulfil<'_>,
    ) -> Result<(), TripError> {
        loop {
            {
                let mut st = lock_recover(&self.state);
                while st.ready.len() > self.low_water && !st.closed {
                    st = wait_recover(&self.refill, st);
                }
                if st.closed || pool.pending() == 0 {
                    st.done = true;
                    self.takeable.notify_all();
                    return Ok(());
                }
            }
            // Derive (and print) outside the lock: this is the expensive
            // work the feed exists to overlap with ceremonies.
            match pool.refill_via(print) {
                Ok(_) => {
                    let mut st = lock_recover(&self.state);
                    while let Some(m) = pool.take_ready() {
                        st.ready.push_back(m);
                    }
                    self.takeable.notify_all();
                }
                Err(e) => {
                    self.fail(e.clone());
                    return Err(e);
                }
            }
        }
    }

    /// Takes up to `max` ready sessions in derivation order, blocking
    /// until at least one is ready or the plan is exhausted. `Ok(vec![])`
    /// means the feed is drained; a refiller failure surfaces here.
    pub fn take_window(&self, max: usize) -> Result<Vec<SessionMaterials>, TripError> {
        let mut st = lock_recover(&self.state);
        while st.ready.is_empty() && !st.done {
            st = wait_recover(&self.takeable, st);
        }
        if let Some(e) = st.error.clone() {
            return Err(e);
        }
        let take = st.ready.len().min(max.max(1));
        let window = st.ready.drain(..take).collect();
        self.refill.notify_all();
        Ok(window)
    }

    /// Ends the feed with `error` (refiller side; the first failure
    /// wins): the consumer's [`PoolFeed::take_window`] surfaces it instead
    /// of parking. [`PoolFeed::run_refiller`] does this for its own refill
    /// failures; a refiller that dies before it ever runs (its print link
    /// never opened) must call it itself.
    pub fn fail(&self, error: TripError) {
        let mut st = lock_recover(&self.state);
        st.error.get_or_insert(error);
        st.done = true;
        self.takeable.notify_all();
    }

    /// Tells the refiller to stop (consumer side; idempotent). Call on
    /// every consumer exit path so the refiller thread never outlives the
    /// day.
    pub fn close(&self) {
        let mut st = lock_recover(&self.state);
        st.closed = true;
        self.refill.notify_all();
        self.takeable.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::Rng;

    fn plan(n: usize) -> Vec<(usize, SessionPlan)> {
        let session = |i| SessionPlan {
            voter: VoterId(i as u64 + 1),
            n_fakes: i % 3,
            malicious: false,
        };
        (0..n).map(|i| (i, session(i))).collect()
    }

    fn fixtures() -> (EdwardsPoint, EnvelopePrinter) {
        let mut rng = HmacDrbg::from_u64(5);
        (
            EdwardsPoint::mul_base(&rng.scalar()),
            EnvelopePrinter::new(&mut rng),
        )
    }

    #[test]
    fn refill_batches_cover_the_plan() {
        let (apk, printer) = fixtures();
        let mut pool = CeremonyPool::new([3u8; 32], apk, plan(10), 4);
        assert_eq!(pool.pending(), 10);
        assert_eq!(pool.refill(&printer).unwrap(), 4);
        assert_eq!(pool.prepared(), 4);
        pool.warm(&printer).unwrap();
        assert_eq!(pool.prepared(), 10);
        assert_eq!(pool.pending(), 0);
        assert_eq!(pool.refill(&printer).unwrap(), 0);
    }

    /// Drains a pool the way the fleet does: refill, then every ready
    /// session, until a refill comes back empty.
    fn drain(pool: &mut CeremonyPool, printer: &EnvelopePrinter) -> Vec<SessionMaterials> {
        let mut out = Vec::new();
        while pool.refill(printer).unwrap() > 0 {
            out.extend(std::iter::from_fn(|| pool.take_ready()));
        }
        out
    }

    #[test]
    fn take_drains_in_queue_order_independent_of_batch_size() {
        let (apk, printer) = fixtures();
        for batch in [1usize, 3, 64] {
            let mut pool = CeremonyPool::new([9u8; 32], apk, plan(7), batch);
            let voters: Vec<(usize, VoterId)> = drain(&mut pool, &printer)
                .iter()
                .map(|m| (m.session_index, m.voter_id))
                .collect();
            let expected: Vec<(usize, VoterId)> =
                (0..7).map(|i| (i, VoterId(i as u64 + 1))).collect();
            assert_eq!(voters, expected, "batch size {batch}");
        }
    }

    #[test]
    fn indexed_pool_derives_global_indices() {
        let (apk, printer) = fixtures();
        // A station owning the odd half of a 6-session queue.
        let sub: Vec<_> = plan(6).into_iter().filter(|(i, _)| i % 2 == 1).collect();
        let mut whole = CeremonyPool::new([4u8; 32], apk, plan(6), 8);
        let mut station = CeremonyPool::new([4u8; 32], apk, sub, 8);
        whole.warm(&printer).unwrap();
        station.warm(&printer).unwrap();
        let whole: Vec<SessionMaterials> = std::iter::from_fn(|| whole.take_ready()).collect();
        while let Some(m) = station.take_ready() {
            // Bit-identical to the whole-queue derivation at the same
            // global index.
            let reference = &whole[m.session_index];
            assert_eq!(m.session_index % 2, 1);
            assert_eq!(m.voter_id, reference.voter_id);
            assert_eq!(m.real.c_pc, reference.real.c_pc);
            assert_eq!(m.envelopes, reference.envelopes);
        }
    }

    #[test]
    fn feed_refiller_streams_the_whole_plan_in_order() {
        let (apk, printer) = fixtures();
        let mut pool = CeremonyPool::new([6u8; 32], apk, plan(9), 2);
        let feed = PoolFeed::new(3);
        let taken = std::thread::scope(|scope| {
            scope.spawn(|| {
                feed.run_refiller(&mut pool, &mut |jobs| {
                    Ok(jobs
                        .iter()
                        .map(|job| printer.print_detached(job.challenge, job.symbol))
                        .collect())
                })
                .expect("refiller runs");
            });
            let mut taken = Vec::new();
            loop {
                let window = feed.take_window(4).expect("take");
                if window.is_empty() {
                    break;
                }
                taken.extend(window.into_iter().map(|m| m.session_index));
            }
            feed.close();
            taken
        });
        assert_eq!(taken, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn feed_close_stops_the_refiller_early() {
        let (apk, printer) = fixtures();
        let mut pool = CeremonyPool::new([6u8; 32], apk, plan(64), 2);
        let feed = PoolFeed::new(1);
        std::thread::scope(|scope| {
            let refiller = scope.spawn(|| {
                feed.run_refiller(&mut pool, &mut |jobs| {
                    Ok(jobs
                        .iter()
                        .map(|job| printer.print_detached(job.challenge, job.symbol))
                        .collect())
                })
            });
            let _ = feed.take_window(2).expect("take");
            feed.close();
            refiller.join().expect("joins").expect("stops cleanly");
        });
    }

    #[test]
    fn failed_feed_surfaces_its_error_from_take_window() {
        let feed = PoolFeed::new(2);
        feed.fail(TripError::Boundary("print link never opened".into()));
        feed.fail(TripError::PoolIntegrity); // the first failure wins
        assert_eq!(
            feed.take_window(4).map(|w| w.len()),
            Err(TripError::Boundary("print link never opened".into()))
        );
    }

    #[test]
    fn self_check_catches_corrupted_commitment() {
        let (apk, printer) = fixtures();
        let pool = CeremonyPool::new([2u8; 32], apk, plan(3), 8);
        let mut fresh: Vec<SessionMaterials> = (0..3)
            .map(|i| {
                SessionMaterials::derive(
                    &[2u8; 32],
                    i,
                    VoterId(i as u64 + 1),
                    1,
                    &apk,
                    &printer,
                    false,
                )
            })
            .collect();
        assert!(pool.self_check(&fresh).is_ok());
        // Flip one precomputed commitment half: a single bit-rotted point
        // in a 3-session refill must sink the whole fold.
        fresh[1].real.commit.a1 += EdwardsPoint::basepoint();
        assert_eq!(pool.self_check(&fresh), Err(TripError::PoolIntegrity));
    }
}
