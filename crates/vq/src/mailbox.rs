//! Per-worker mailboxes: how remote workers deliver visitors to a queue
//! owner, and how an idle owner parks until mail arrives.
//!
//! Two implementations behind one `Mailbox` dispatch, selected by
//! [`MailboxImpl`]:
//!
//! * **`Lock`** — the original `Mutex<Vec<V>>` inbox with condvar parking.
//!   Kept as the ablation baseline: every delivery takes the destination's
//!   lock, every wake is a condvar notify.
//! * **`LockFree`** — a segmented Treiber-style MPSC chain plus
//!   event-count parking. Producers publish a whole flushed buffer as one
//!   heap-allocated segment with a single CAS; the owner detaches the
//!   entire chain with a single `swap` and merges it into its private
//!   priority queue. A producer issues one futex-style wake (a sticky
//!   `Thread::unpark`) only when its publish made the chain non-empty
//!   *and* the owner has announced it is parking. No mutex anywhere on
//!   the delivery path.
//!
//! # Memory ordering (lock-free path)
//!
//! Three edges carry the correctness argument (DESIGN.md §14 spells out
//! the full version):
//!
//! 1. **Publish → consume.** The publishing CAS on `head` is
//!    `SeqCst`-success (a release store at minimum), and the owner's
//!    detaching `swap` is `Acquire`: every write to a segment's items
//!    happens-before the owner reads them.
//! 2. **Park announcement ↔ publish (Dekker).** The owner announces
//!    parking with a `SeqCst` RMW on the event-count word, *then*
//!    re-checks `head` with a `SeqCst` load; a producer publishes with a
//!    `SeqCst` CAS, *then* reads the event-count word with a `SeqCst`
//!    load. All four operations are in the single total order of SC
//!    operations, so at least one side sees the other: either the owner
//!    sees the new segment (and does not park), or the producer sees the
//!    parked bit (and wakes the owner). A lost-wakeup requires both
//!    loads to miss, which SC forbids.
//! 3. **Termination.** The global `pending` counter is incremented
//!    *before* a visitor is published (in `Outbox::route`) and
//!    decremented only after its visit returns, so the mailbox can only
//!    make `pending` an over-count — termination may be delayed, never
//!    detected early. Missed teardown wakes are additionally bounded by
//!    the park timeout, exactly as on the condvar path.

use crate::bucket::BucketQueue;
use crate::config::MailboxImpl;
use crate::visitor::Visitor;
use asyncgt_obs::{Counter, Gauge, HistKind, Recorder};
use parking_lot::{Condvar, Mutex};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Upper bound on visitors per published segment. A larger delivery is
/// split into several segments (still one CAS each); typical flushes are
/// far below this, so almost every delivery is a single CAS.
const SEGMENT_CAP: usize = 1024;

/// Low bit of the event-count word: the owner has announced it is about
/// to park (or is parked). The remaining bits are the wake epoch.
const PARKED: u64 = 1;

/// Sequence-number parking for a single queue owner.
///
/// The word packs `(epoch << 1) | parked`. The owner announces parking by
/// setting the bit, re-checks its condition, then blocks on
/// [`std::thread::park_timeout`]. A producer that needs to wake the owner
/// bumps the epoch, clears the bit and issues one `unpark` — and skips
/// the syscall entirely whenever the bit is clear (the owner is running).
/// `unpark` tokens are sticky, so a wake that races ahead of the owner's
/// `park` is never lost — the park returns immediately.
pub(crate) struct EventCount {
    seq: AtomicU64,
    /// The owner's thread handle, registered once at worker startup.
    /// Producers read it lock-free; before registration the owner cannot
    /// be parked, so a missing handle never strands a wake.
    owner: OnceLock<Thread>,
}

impl EventCount {
    fn new() -> Self {
        EventCount {
            seq: AtomicU64::new(0),
            owner: OnceLock::new(),
        }
    }

    /// Bind the calling thread as the parkable owner.
    fn register_owner(&self) {
        let _ = self.owner.set(std::thread::current());
    }

    /// Producer: wake the owner iff it has announced parking. Exactly one
    /// racing producer wins the CAS and pays the `unpark`; the rest see
    /// the bit already cleared (or an advanced epoch) and do nothing.
    /// Returns whether this call issued the wake.
    fn notify(&self) -> bool {
        let cur = self.seq.load(Ordering::SeqCst);
        if cur & PARKED == 0 {
            return false;
        }
        if self
            .seq
            .compare_exchange(
                cur,
                cur.wrapping_add(2) & !PARKED,
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            if let Some(t) = self.owner.get() {
                t.unpark();
            }
            return true;
        }
        // Lost the race: the seq word changed under us, meaning the owner
        // woke (it will re-check the chain and see our publish) or another
        // producer's wake is in flight. Either way the owner is covered.
        false
    }

    /// Teardown broadcast (termination, poison, abort): advance the epoch
    /// and unpark unconditionally, parked bit or not. A stray token is
    /// consumed by the owner's next park attempt, which always re-checks
    /// its exit conditions first.
    fn notify_force(&self) {
        self.seq.fetch_add(2, Ordering::AcqRel);
        if let Some(t) = self.owner.get() {
            t.unpark();
        }
    }

    /// Owner: announce parking intent. Must be followed by a re-check of
    /// the wait condition before actually parking. Returns the epoch
    /// ticket for [`Self::park`].
    fn prepare_park(&self) -> u64 {
        self.seq.fetch_or(PARKED, Ordering::SeqCst) >> 1
    }

    /// Owner: withdraw a park announcement (found work after announcing).
    fn cancel_park(&self) {
        self.seq.fetch_and(!PARKED, Ordering::Relaxed);
    }

    /// Owner: block for up to `timeout` (or until a producer's wake, or a
    /// stray token, or spuriously — callers loop). Clears the parked bit
    /// on the way out; returns whether the epoch advanced (a producer or
    /// teardown wake, as opposed to a timeout).
    fn park(&self, ticket: u64, timeout: Duration) -> bool {
        std::thread::park_timeout(timeout);
        self.seq.fetch_and(!PARKED, Ordering::Relaxed);
        (self.seq.load(Ordering::Relaxed) >> 1) != ticket
    }
}

/// One published batch of visitors in a lock-free mailbox.
struct Segment<V> {
    items: Vec<V>,
    /// Publish instant, captured only when a real recorder is attached —
    /// drained into the `mailbox_delivery_ns` histogram.
    stamp: Option<Instant>,
    /// Which producer published this segment — indexes the inbox's spare
    /// slots so the draining owner can hand the emptied segment back for
    /// reuse. [`NO_PRODUCER`] for anonymous deliveries (seeding).
    producer: usize,
    /// Next-older segment in the chain. Written by the publisher before
    /// its CAS, read only by the draining owner (which holds the whole
    /// chain exclusively after its `swap`).
    next: *mut Segment<V>,
}

/// Producer id for deliveries with no return slot (the seed path).
pub(crate) const NO_PRODUCER: usize = usize::MAX;

/// Lock-free MPSC mailbox: a Treiber-style chain of segments.
///
/// Producers push segments onto `head` with a CAS loop; the publishing
/// CAS also detects the empty→non-empty edge (`prev.is_null()`), which is
/// the only moment a wake can be required. The owner detaches everything
/// with one `swap(null)`. ABA cannot bite: producers never dereference
/// the head they link to (a recycled address that *is* the current head
/// is simply a correct link target), and only the single owner ever
/// unlinks nodes.
///
/// # Segment recycling
///
/// Allocating one boxed segment per flushed buffer is ruinous under
/// oversubscription: the producer-allocates/owner-frees pattern
/// serializes on the allocator and pays a cross-thread free per
/// delivery. Each inbox therefore keeps a per-producer spare stack: the
/// owner pushes drained (empty, capacity-preserving) segments onto
/// `spares[producer]`, and that producer's next flush pops one back.
/// Each stack has exactly one popper (that producer) — the owner only
/// ever pushes — so the pop's `compare_exchange(head → head.next)`
/// cannot be foiled by ABA: a popped node can only re-enter the stack
/// through this same producer publishing it again, which cannot overlap
/// its own in-flight pop. Nothing is ever dropped on the return path, so
/// after warm-up each (producer, destination) pair cycles a small fixed
/// set of allocations.
pub(crate) struct LfInbox<V> {
    head: AtomicPtr<Segment<V>>,
    /// Per-producer recycled-segment return stacks (see type docs).
    spares: Vec<AtomicPtr<Segment<V>>>,
    ec: EventCount,
}

// SAFETY: the raw segment pointers are only ever created from `Box`es and
// handed off through the atomic head; a segment is touched by exactly one
// thread at a time (publisher before the CAS, owner after the swap).
unsafe impl<V: Send> Send for LfInbox<V> {}
unsafe impl<V: Send> Sync for LfInbox<V> {}

impl<V: Visitor> LfInbox<V> {
    fn new(num_producers: usize) -> Self {
        LfInbox {
            head: AtomicPtr::new(ptr::null_mut()),
            spares: (0..num_producers)
                .map(|_| AtomicPtr::new(ptr::null_mut()))
                .collect(),
            ec: EventCount::new(),
        }
    }

    /// Cheap emptiness hint for the owner's polling loop.
    #[inline]
    fn has_mail(&self) -> bool {
        !self.head.load(Ordering::Acquire).is_null()
    }

    /// Producer: an empty segment to fill — popped from `producer`'s
    /// recycled-spare stack when one is waiting, a fresh allocation
    /// otherwise (counted as `mailbox_segments`; steady state allocates
    /// almost never).
    fn take_segment<R: Recorder>(&self, producer: usize, rec: &R) -> Box<Segment<V>> {
        if let Some(stack) = self.spares.get(producer) {
            let mut top = stack.load(Ordering::Acquire);
            while !top.is_null() {
                // SAFETY: non-null nodes in the stack are live Boxes; only
                // this producer pops, so `top` cannot be freed under us.
                let next = unsafe { (*top).next };
                match stack.compare_exchange_weak(top, next, Ordering::Acquire, Ordering::Acquire) {
                    // SAFETY: the CAS unlinked `top`, transferring sole
                    // ownership; the owner only stores drained segments.
                    Ok(_) => return unsafe { Box::from_raw(top) },
                    Err(actual) => top = actual,
                }
            }
        }
        if R::ENABLED {
            rec.counter(Counter::MailboxSegments, 1);
        }
        Box::new(Segment {
            items: Vec::new(),
            stamp: None,
            producer,
            next: ptr::null_mut(),
        })
    }

    /// Publish one filled segment; returns whether this publish made the
    /// chain non-empty (the edge on which the publisher owes a notify).
    fn push_segment<R: Recorder>(&self, mut seg: Box<Segment<V>>, rec: &R) -> bool {
        seg.stamp = if R::ENABLED {
            Some(Instant::now())
        } else {
            None
        };
        let node = Box::into_raw(seg);
        let mut cur = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: `node` is unpublished — no other thread can see it
            // until the CAS below succeeds.
            unsafe { (*node).next = cur };
            match self
                .head
                .compare_exchange_weak(cur, node, Ordering::SeqCst, Ordering::Relaxed)
            {
                Ok(prev) => return prev.is_null(),
                Err(actual) => {
                    if R::ENABLED {
                        rec.counter(Counter::MailboxCasRetries, 1);
                    }
                    cur = actual;
                }
            }
        }
    }

    /// Deliver a whole buffer. The common case (`len ≤ SEGMENT_CAP`) is
    /// zero-copy: the buffer `Vec` is swapped wholesale into a recycled
    /// segment and the producer walks away with the segment's previous
    /// (empty, capacity-preserving) storage — no per-item copy, no
    /// allocation. Oversized buffers are split into capped copies first.
    /// Wakes the owner iff some publish crossed the empty→non-empty edge.
    fn deliver<R: Recorder>(&self, buf: &mut Vec<V>, producer: usize, rec: &R) {
        let mut edge = false;
        while !buf.is_empty() {
            let take = buf.len().min(SEGMENT_CAP);
            let mut seg = self.take_segment(producer, rec);
            seg.items.extend(buf.drain(buf.len() - take..));
            edge |= self.push_segment(seg, rec);
        }
        if edge && self.ec.notify() && R::ENABLED {
            rec.counter(Counter::MailboxNotifies, 1);
        }
    }

    /// Owner: detach the whole chain with one `swap`, merge every segment
    /// into the private heap, and push each emptied segment back onto its
    /// producer's spare stack for reuse. Returns visitors moved.
    fn drain_into<R: Recorder>(&self, heap: &mut BucketQueue<V>, rec: &R) -> u64 {
        let mut node = self.head.swap(ptr::null_mut(), Ordering::Acquire);
        let mut moved = 0u64;
        while !node.is_null() {
            // SAFETY: the swap above transferred exclusive ownership of
            // the entire chain to this (single-owner) drain.
            let mut seg = unsafe { Box::from_raw(node) };
            #[cfg(target_arch = "x86_64")]
            if !seg.next.is_null() {
                // The chain is pointer-chased through scattered blocks the
                // hardware prefetcher cannot follow; hint the next node
                // (and the start of its items) while this one is merged.
                unsafe {
                    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                    _mm_prefetch(seg.next as *const i8, _MM_HINT_T0);
                    let nxt = &*seg.next;
                    _mm_prefetch(nxt.items.as_ptr() as *const i8, _MM_HINT_T0);
                }
            }
            moved += seg.items.len() as u64;
            if R::ENABLED {
                if let Some(t0) = seg.stamp {
                    rec.observe(HistKind::MailboxDeliveryNs, t0.elapsed().as_nanos() as u64);
                }
            }
            node = seg.next;
            heap.extend(seg.items.drain(..));
            self.recycle(seg);
        }
        moved
    }

    /// Owner: push a drained segment back onto its producer's spare
    /// stack. Anonymous (seed-path) segments have no stack and are simply
    /// freed. The push pairs with the producer's single-popper pop in
    /// [`Self::take_segment`]; see the type docs for the ABA argument.
    fn recycle(&self, seg: Box<Segment<V>>) {
        debug_assert!(seg.items.is_empty());
        if let Some(stack) = self.spares.get(seg.producer) {
            let raw = Box::into_raw(seg);
            let mut top = stack.load(Ordering::Relaxed);
            loop {
                // SAFETY: `raw` is unpublished until the CAS succeeds.
                unsafe { (*raw).next = top };
                match stack.compare_exchange_weak(top, raw, Ordering::Release, Ordering::Relaxed) {
                    Ok(_) => return,
                    Err(actual) => top = actual,
                }
            }
        }
    }
}

impl<V> Drop for LfInbox<V> {
    fn drop(&mut self) {
        // Free any undrained chain (aborted/poisoned runs drop queued
        // work by design) and the recycled spares.
        let mut node = *self.head.get_mut();
        while !node.is_null() {
            // SAFETY: drop has exclusive access; every node in the chain
            // was leaked from a Box by `push_segment`.
            let seg = unsafe { Box::from_raw(node) };
            node = seg.next;
        }
        for stack in &mut self.spares {
            let mut spare = *stack.get_mut();
            while !spare.is_null() {
                // SAFETY: as above — the stack held sole ownership.
                let seg = unsafe { Box::from_raw(spare) };
                spare = seg.next;
            }
        }
    }
}

/// The original mutex mailbox: `Mutex<Vec<V>>` + condvar, with an atomic
/// emptiness hint so owners skip locking an empty inbox.
pub(crate) struct LockInbox<V> {
    mail: Mutex<Vec<V>>,
    cv: Condvar,
    has_mail: AtomicBool,
}

impl<V: Visitor> LockInbox<V> {
    fn new() -> Self {
        LockInbox {
            mail: Mutex::new(Vec::new()),
            cv: Condvar::new(),
            has_mail: AtomicBool::new(false),
        }
    }

    fn deliver(&self, buf: &mut Vec<V>) {
        let newly_nonempty = {
            let mut mail = self.mail.lock();
            mail.append(buf);
            // Under the mail lock the flag exactly mirrors "mail may be
            // non-empty", so the false→true edge identifies the one
            // flusher responsible for waking the owner.
            !self.has_mail.swap(true, Ordering::AcqRel)
        };
        if newly_nonempty {
            self.cv.notify_one();
        }
    }

    fn drain_into(&self, heap: &mut BucketQueue<V>) -> u64 {
        let mut mail = self.mail.lock();
        self.has_mail.store(false, Ordering::Release);
        let moved = mail.len() as u64;
        heap.extend(mail.drain(..));
        moved
    }
}

/// Outcome of one [`Mailbox::idle_wait`] call.
#[derive(Default)]
pub(crate) struct IdleOutcome {
    /// Visitors drained into the heap (0 when exiting).
    pub drained: u64,
    /// Times the owner parked while waiting.
    pub parks: u64,
    /// The exit condition (termination/halt) became true.
    pub exit: bool,
}

/// A worker's shared mailbox, dispatching on the configured
/// [`MailboxImpl`]. Remote workers [`deliver`](Self::deliver); the owner
/// [`drain`](Self::drain)s and, when out of work,
/// [`idle_wait`](Self::idle_wait)s.
pub(crate) enum Mailbox<V> {
    Lock(LockInbox<V>),
    LockFree(LfInbox<V>),
}

impl<V: Visitor> Mailbox<V> {
    /// `num_producers` sizes the lock-free path's recycled-segment slots
    /// (one per worker that may deliver here).
    pub(crate) fn new(kind: MailboxImpl, num_producers: usize) -> Self {
        match kind {
            MailboxImpl::Lock => Mailbox::Lock(LockInbox::new()),
            MailboxImpl::LockFree => Mailbox::LockFree(LfInbox::new(num_producers)),
        }
    }

    /// Bind the calling thread as this mailbox's owner (enables parking
    /// wakes on the lock-free path; no-op for the mutex path, whose
    /// condvar needs no handle).
    pub(crate) fn register_owner(&self) {
        if let Mailbox::LockFree(ib) = self {
            ib.ec.register_owner();
        }
    }

    /// Cheap may-have-mail hint; false negatives are impossible, false
    /// positives merely cost a drain that moves nothing.
    #[inline]
    pub(crate) fn has_mail(&self) -> bool {
        match self {
            Mailbox::Lock(ib) => ib.has_mail.load(Ordering::Acquire),
            Mailbox::LockFree(ib) => ib.has_mail(),
        }
    }

    /// Deliver a whole buffer of visitors addressed to this mailbox's
    /// owner, waking it iff the mailbox was empty. The buffer is drained
    /// but keeps its capacity on both paths. `producer` is the delivering
    /// worker's id ([`NO_PRODUCER`] for the seed path) — it selects the
    /// lock-free path's segment-recycling slot.
    pub(crate) fn deliver<R: Recorder>(&self, buf: &mut Vec<V>, producer: usize, rec: &R) {
        if buf.is_empty() {
            return;
        }
        match self {
            Mailbox::Lock(ib) => ib.deliver(buf),
            Mailbox::LockFree(ib) => ib.deliver(buf, producer, rec),
        }
    }

    /// Owner: move all queued mail into the private heap. Records the
    /// inbox-batch and queue-depth metrics for non-empty drains; returns
    /// the number of visitors moved.
    pub(crate) fn drain<R: Recorder>(&self, heap: &mut BucketQueue<V>, rec: &R) -> u64 {
        let moved = match self {
            Mailbox::Lock(ib) => ib.drain_into(heap),
            Mailbox::LockFree(ib) => ib.drain_into(heap, rec),
        };
        if R::ENABLED && moved > 0 {
            rec.counter(Counter::InboxBatches, 1);
            rec.observe(HistKind::InboxBatchSize, moved);
            let depth = heap.len() as u64;
            rec.observe(HistKind::QueueDepth, depth);
            rec.gauge_max(Gauge::QueueDepthHwm, depth);
        }
        moved
    }

    /// Teardown wake (termination, poison, abort): rouse a parked owner
    /// regardless of mailbox contents.
    pub(crate) fn wake(&self) {
        match self {
            Mailbox::Lock(ib) => {
                ib.cv.notify_all();
            }
            Mailbox::LockFree(ib) => ib.ec.notify_force(),
        }
    }

    /// Owner out of local work: block until mail arrives (drained into
    /// `heap` before returning) or `exit` turns true. `exit` is
    /// re-checked between parks; each park is bounded by `timeout` so a
    /// missed teardown wake delays exit by at most one timeout.
    pub(crate) fn idle_wait<R: Recorder>(
        &self,
        heap: &mut BucketQueue<V>,
        exit: impl Fn() -> bool,
        timeout: Duration,
        rec: &R,
    ) -> IdleOutcome {
        let mut out = IdleOutcome::default();
        match self {
            Mailbox::Lock(ib) => {
                let mut mail = ib.mail.lock();
                loop {
                    if !mail.is_empty() {
                        ib.has_mail.store(false, Ordering::Release);
                        out.drained = mail.len() as u64;
                        heap.extend(mail.drain(..));
                        drop(mail);
                        if R::ENABLED {
                            rec.counter(Counter::InboxBatches, 1);
                            rec.observe(HistKind::InboxBatchSize, out.drained);
                            let depth = heap.len() as u64;
                            rec.observe(HistKind::QueueDepth, depth);
                            rec.gauge_max(Gauge::QueueDepthHwm, depth);
                        }
                        return out;
                    }
                    if exit() {
                        out.exit = true;
                        return out;
                    }
                    out.parks += 1;
                    if R::ENABLED {
                        rec.counter(Counter::Parks, 1);
                    }
                    // Timed wait: bounds the missed-notify race (a pusher
                    // notifies between our emptiness check and the wait)
                    // without spinning.
                    let wait = ib.cv.wait_for(&mut mail, timeout);
                    if R::ENABLED && !wait.timed_out() {
                        rec.counter(Counter::Wakes, 1);
                    }
                }
            }
            Mailbox::LockFree(ib) => loop {
                let ticket = ib.ec.prepare_park();
                // The post-announcement re-check must be SeqCst to pair
                // with the publisher's SeqCst CAS + SeqCst seq load
                // (Dekker edge 2 in the module docs).
                if !ib.head.load(Ordering::SeqCst).is_null() {
                    ib.ec.cancel_park();
                    out.drained = self.drain(heap, rec);
                    if out.drained > 0 {
                        return out;
                    }
                    continue;
                }
                if exit() {
                    ib.ec.cancel_park();
                    out.exit = true;
                    return out;
                }
                out.parks += 1;
                if R::ENABLED {
                    rec.counter(Counter::Parks, 1);
                }
                if ib.ec.park(ticket, timeout) && R::ENABLED {
                    rec.counter(Counter::Wakes, 1);
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncgt_obs::NoopRecorder;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[derive(PartialEq, Eq, PartialOrd, Ord, Debug, Clone)]
    struct T(u64);
    impl Visitor for T {
        fn target(&self) -> u64 {
            self.0
        }
    }

    fn heap() -> BucketQueue<T> {
        BucketQueue::new(0, true)
    }

    #[test]
    fn lockfree_deliver_then_drain_moves_everything() {
        let mb: Mailbox<T> = Mailbox::new(MailboxImpl::LockFree, 1);
        assert!(!mb.has_mail());
        let mut buf = vec![T(3), T(1), T(2)];
        mb.deliver(&mut buf, 0, &NoopRecorder);
        assert!(buf.is_empty());
        assert!(mb.has_mail());
        let mut h = heap();
        assert_eq!(mb.drain(&mut h, &NoopRecorder), 3);
        assert!(!mb.has_mail());
        assert_eq!(h.pop(), Some(T(1)));
        assert_eq!(h.pop(), Some(T(2)));
        assert_eq!(h.pop(), Some(T(3)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn lockfree_oversize_delivery_splits_into_segments() {
        let mb: Mailbox<T> = Mailbox::new(MailboxImpl::LockFree, 1);
        let n = SEGMENT_CAP * 2 + 7;
        let mut buf: Vec<T> = (0..n as u64).map(T).collect();
        mb.deliver(&mut buf, 0, &NoopRecorder);
        let mut h = heap();
        assert_eq!(mb.drain(&mut h, &NoopRecorder), n as u64);
        assert_eq!(h.len(), n);
    }

    #[test]
    fn lockfree_recycles_segments_per_producer() {
        let ib: LfInbox<T> = LfInbox::new(2);
        let mut h = heap();
        // First flush allocates; the drain returns the segment to
        // producer 0's spare slot.
        let mut buf = vec![T(1)];
        ib.deliver(&mut buf, 0, &NoopRecorder);
        assert_eq!(ib.drain_into(&mut h, &NoopRecorder), 1);
        let spare0 = ib.spares[0].load(Ordering::Relaxed);
        assert!(!spare0.is_null(), "drained segment returned to its slot");
        // The next flush from producer 0 reuses exactly that allocation.
        buf.push(T(2));
        ib.deliver(&mut buf, 0, &NoopRecorder);
        assert_eq!(ib.head.load(Ordering::Relaxed), spare0);
        assert!(ib.spares[0].load(Ordering::Relaxed).is_null());
        assert_eq!(ib.drain_into(&mut h, &NoopRecorder), 1);
        // An anonymous delivery (seed path) has no slot and still works.
        buf.push(T(3));
        ib.deliver(&mut buf, NO_PRODUCER, &NoopRecorder);
        assert_eq!(ib.drain_into(&mut h, &NoopRecorder), 1);
        assert!(ib.spares[1].load(Ordering::Relaxed).is_null());
    }

    #[test]
    fn lockfree_drop_frees_undrained_chain() {
        // Visitors carrying an Arc: the drop balance proves no segment
        // leaks (Miri/ASan would also flag a double free).
        #[derive(Clone)]
        struct Counted(Arc<AtomicUsize>, u64);
        impl PartialEq for Counted {
            fn eq(&self, o: &Self) -> bool {
                self.1 == o.1
            }
        }
        impl Eq for Counted {}
        impl PartialOrd for Counted {
            fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for Counted {
            fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                self.1.cmp(&o.1)
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        impl Visitor for Counted {
            fn target(&self) -> u64 {
                self.1
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let mb: Mailbox<Counted> = Mailbox::new(MailboxImpl::LockFree, 2);
            let mut buf: Vec<Counted> = (0..10).map(|i| Counted(drops.clone(), i)).collect();
            mb.deliver(&mut buf, 0, &NoopRecorder);
            let mut more: Vec<Counted> = (10..15).map(|i| Counted(drops.clone(), i)).collect();
            mb.deliver(&mut more, 1, &NoopRecorder);
        }
        assert_eq!(drops.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn eventcount_notify_only_wakes_announced_parkers() {
        let ec = EventCount::new();
        ec.register_owner();
        // No announcement: notify is a no-op.
        assert!(!ec.notify());
        // Announced: exactly one notify wins.
        let t = ec.prepare_park();
        assert!(ec.notify());
        assert!(!ec.notify(), "bit already cleared, second notify skipped");
        // The epoch advanced, so a park with the stale ticket reports a
        // wake immediately (and the sticky unpark token makes it prompt).
        assert!(ec.park(t, Duration::from_millis(100)));
    }

    #[test]
    fn eventcount_cancel_clears_announcement() {
        let ec = EventCount::new();
        ec.register_owner();
        ec.prepare_park();
        ec.cancel_park();
        assert!(!ec.notify());
    }

    #[test]
    fn lockfree_producers_wake_parked_owner() {
        // One parked owner, many producers delivering concurrently; the
        // owner must observe every visitor without a lost wakeup.
        let mb: Arc<Mailbox<T>> = Arc::new(Mailbox::new(MailboxImpl::LockFree, 64));
        let total = 64 * 100u64;
        let seen = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            let owner_mb = mb.clone();
            let owner_seen = seen.clone();
            let owner = s.spawn(move || {
                owner_mb.register_owner();
                let mut h = heap();
                let mut got = 0u64;
                while got < total {
                    let exit = || false;
                    let out =
                        owner_mb.idle_wait(&mut h, exit, Duration::from_millis(1), &NoopRecorder);
                    got += out.drained;
                    while h.pop().is_some() {
                        owner_seen.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            for p in 0..64u64 {
                let mb = mb.clone();
                s.spawn(move || {
                    for i in 0..100u64 {
                        let mut buf = vec![T(p * 1000 + i)];
                        mb.deliver(&mut buf, p as usize, &NoopRecorder);
                    }
                });
            }
            owner.join().unwrap();
        });
        assert_eq!(seen.load(Ordering::Relaxed) as u64, total);
    }

    #[test]
    fn lock_mailbox_round_trips_too() {
        let mb: Mailbox<T> = Mailbox::new(MailboxImpl::Lock, 1);
        let mut buf = vec![T(9), T(4)];
        mb.deliver(&mut buf, 0, &NoopRecorder);
        assert!(mb.has_mail());
        let mut h = heap();
        assert_eq!(mb.drain(&mut h, &NoopRecorder), 2);
        assert_eq!(h.pop(), Some(T(4)));
    }
}
