//! Runtime configuration.

use std::time::Duration;

/// Which mailbox structure delivers remote pushes to a worker's queue.
///
/// Both implementations preserve every engine invariant (same-vertex
/// exclusivity, over-count-only termination, prompt poison/abort wakeup);
/// they differ only in how producers hand visitors to an owner and how an
/// idle owner parks. The selector exists so the two can be A/B'd — see the
/// `mailbox` ablation and `results/BENCH_vq.json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MailboxImpl {
    /// `Mutex<Vec>` inbox with condvar parking: the original delivery
    /// path, kept as the ablation baseline. Every remote flush takes the
    /// destination's lock; every wake is a condvar notify.
    Lock,
    /// Lock-free segmented MPSC (Treiber-style chain of published
    /// segments) with event-count parking: producers publish a whole
    /// batch with one CAS and wake the owner only on the empty→non-empty
    /// edge; the owner detaches the entire chain with one `swap`. No
    /// mutex anywhere on the delivery path.
    #[default]
    LockFree,
}

impl MailboxImpl {
    /// Stable name used by CLI flags, ablation rows and the bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            MailboxImpl::Lock => "lock",
            MailboxImpl::LockFree => "lockfree",
        }
    }
}

impl std::fmt::Display for MailboxImpl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for MailboxImpl {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "lock" | "mutex" => Ok(MailboxImpl::Lock),
            "lockfree" | "lock-free" => Ok(MailboxImpl::LockFree),
            other => Err(format!("unknown mailbox impl {other:?} (lock|lockfree)")),
        }
    }
}

/// Configuration for a [`VisitorQueue`](crate::VisitorQueue) run.
#[derive(Clone, Debug)]
pub struct VqConfig {
    /// Number of worker threads — and therefore of visitor queues (the
    /// paper's implementation has "a prioritized queue per thread").
    ///
    /// May exceed the core count: the paper finds "using as many as 512
    /// threads on 16 cores offers substantial benefit" because more queues
    /// mean less lock contention and, for semi-external graphs, more
    /// concurrent I/O requests in flight.
    pub num_threads: usize,

    /// Yield-loop iterations an idle worker spins through before parking on
    /// its mailbox (event count or condvar). Small values suit
    /// oversubscription (parked threads free the core); larger values cut
    /// wake latency when threads ≤ cores.
    pub spin_iters: u32,

    /// Upper bound on a single park. Parking always re-checks the
    /// termination counter on wake, so this only bounds the latency of the
    /// rare missed-notify race, not correctness.
    pub park_timeout: Duration,

    /// Right-shift applied to [`Visitor::priority`] to form the bucketed
    /// queues' priority classes: `0` keeps exact priorities (Dial queue);
    /// larger values coarsen ordering delta-stepping-style, which is what
    /// lets SSSP over wide weight ranges keep O(1) queue operations.
    ///
    /// [`Visitor::priority`]: crate::Visitor::priority
    pub priority_shift: u32,

    /// Sort each priority bucket before draining it. Within a bucket this
    /// yields exact `(priority, vertex-id)` order — the paper's §IV-C
    /// *semi-sort* that raises storage access locality for semi-external
    /// graphs (and costs a sequential `sort_unstable` per bucket).
    pub sort_buckets: bool,

    /// Upper bound on visitors a worker drains from its queue per service
    /// round (`1` preserves strict pop-visit-pop order). Draining a batch
    /// first exposes the whole semi-sorted batch to the handler through
    /// [`FallibleVisitHandler::prepare_batch`], which semi-external
    /// handlers forward to the storage layer's I/O scheduler. Execution
    /// order within the batch is unchanged, so label-correcting
    /// traversals converge to the same fixed point at any setting.
    ///
    /// [`FallibleVisitHandler::prepare_batch`]:
    /// crate::FallibleVisitHandler::prepare_batch
    pub batch_drain: usize,

    /// Remote-delivery mailbox implementation (see [`MailboxImpl`]).
    /// Defaults to the lock-free structure; the mutex path remains
    /// selectable for A/B ablation.
    pub mailbox: MailboxImpl,
}

impl VqConfig {
    /// `num_threads` workers, default idle policy.
    pub fn with_threads(num_threads: usize) -> Self {
        VqConfig {
            num_threads: num_threads.max(1),
            ..Default::default()
        }
    }
}

impl Default for VqConfig {
    /// One worker per available core, 16 spin iterations, 1 ms park bound,
    /// exact priorities, semi-sorted buckets, single-visitor drains.
    fn default() -> Self {
        VqConfig {
            num_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            spin_iters: 16,
            park_timeout: Duration::from_millis(1),
            priority_shift: 0,
            sort_buckets: true,
            batch_drain: 1,
            mailbox: MailboxImpl::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_clamps_zero() {
        assert_eq!(VqConfig::with_threads(0).num_threads, 1);
        assert_eq!(VqConfig::with_threads(7).num_threads, 7);
    }

    #[test]
    fn default_uses_at_least_one_thread() {
        assert!(VqConfig::default().num_threads >= 1);
    }

    #[test]
    fn default_mailbox_is_lockfree() {
        assert_eq!(VqConfig::default().mailbox, MailboxImpl::LockFree);
    }

    #[test]
    fn mailbox_impl_parses_and_round_trips() {
        assert_eq!("lock".parse::<MailboxImpl>().unwrap(), MailboxImpl::Lock);
        assert_eq!("mutex".parse::<MailboxImpl>().unwrap(), MailboxImpl::Lock);
        assert_eq!(
            "lockfree".parse::<MailboxImpl>().unwrap(),
            MailboxImpl::LockFree
        );
        assert_eq!(
            "lock-free".parse::<MailboxImpl>().unwrap(),
            MailboxImpl::LockFree
        );
        assert!("spinlock".parse::<MailboxImpl>().is_err());
        for m in [MailboxImpl::Lock, MailboxImpl::LockFree] {
            assert_eq!(m.to_string().parse::<MailboxImpl>().unwrap(), m);
        }
    }
}
