//! Outside-in layer tracing: a [`Graph`] adaptor that times every
//! adjacency call and the neighbor callbacks it makes, and a
//! [`MetricSink`] that counts what the storage reader reports.
//!
//! Both hook into seams the library already exposes, so tracing needs no
//! change to the program. The adjacency span splits into the scan itself
//! (`graph::csr`, or `storage::reader` for a semi-external graph) and the
//! callbacks it drives, which push visitors into the queues (`vq`).

use asyncgt::graph::NeighborError;
use asyncgt::obs::MetricSink;
use asyncgt::{Graph, Vertex, Weight};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Per-thread accumulators; each thread adds into its own slot so the
/// clock itself adds no contention to the traversal.
#[repr(align(128))]
#[derive(Default)]
struct Slot {
    calls: AtomicU64,
    span_ns: AtomicU64,
    callback_ns: AtomicU64,
}

const SLOTS: usize = 64;

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn thread_slot() -> usize {
    THREAD_SLOT.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_THREAD.fetch_add(1, Relaxed) % SLOTS);
        }
        s.get()
    })
}

/// Time spent in adjacency calls, split into the scan and the callbacks.
pub struct LayerClock {
    slots: Box<[Slot]>,
}

/// Totals of a [`LayerClock`] over every thread.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotals {
    /// Adjacency calls: `for_each_neighbor`, `try_for_each_neighbor` and
    /// `prefetch_adjacency`.
    pub calls: u64,
    /// Wall time inside those calls, summed over threads.
    pub span: Duration,
    /// Part of `span` spent in the neighbor callbacks.
    pub callbacks: Duration,
}

impl LayerTotals {
    /// Adjacency time outside the callbacks. Callback intervals nest
    /// inside their call's interval on one monotonic clock, so this
    /// never underflows.
    pub fn self_time(&self) -> Duration {
        self.span - self.callbacks
    }
}

impl LayerClock {
    pub fn new() -> Self {
        LayerClock {
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
        }
    }

    pub fn totals(&self) -> LayerTotals {
        let sum = |f: fn(&Slot) -> &AtomicU64| self.slots.iter().map(|s| f(s).load(Relaxed)).sum();
        LayerTotals {
            calls: sum(|s| &s.calls),
            span: Duration::from_nanos(sum(|s| &s.span_ns)),
            callbacks: Duration::from_nanos(sum(|s| &s.callback_ns)),
        }
    }

    fn record(&self, span: Duration, callbacks: Duration) {
        let slot = &self.slots[thread_slot()];
        slot.calls.fetch_add(1, Relaxed);
        slot.span_ns.fetch_add(span.as_nanos() as u64, Relaxed);
        slot.callback_ns
            .fetch_add(callbacks.as_nanos() as u64, Relaxed);
    }
}

/// A graph whose adjacency calls are timed into a [`LayerClock`].
/// Results, errors and edge order pass through unchanged.
pub struct TracedGraph<'c, G> {
    inner: G,
    clock: &'c LayerClock,
}

impl<'c, G: Graph> TracedGraph<'c, G> {
    pub fn new(inner: G, clock: &'c LayerClock) -> Self {
        TracedGraph { inner, clock }
    }
}

/// Wrap a neighbor callback so the time spent in it adds to `callbacks`.
fn timed<'a, F: FnMut(Vertex, Weight) + 'a>(
    mut f: F,
    callbacks: &'a mut Duration,
) -> impl FnMut(Vertex, Weight) + 'a {
    move |t, w| {
        let c = Instant::now();
        f(t, w);
        *callbacks += c.elapsed();
    }
}

impl<G: Graph> Graph for TracedGraph<'_, G> {
    fn num_vertices(&self) -> u64 {
        self.inner.num_vertices()
    }

    fn num_edges(&self) -> u64 {
        self.inner.num_edges()
    }

    fn out_degree(&self, v: Vertex) -> u64 {
        self.inner.out_degree(v)
    }

    fn for_each_neighbor<F: FnMut(Vertex, Weight)>(&self, v: Vertex, f: F) {
        let start = Instant::now();
        let mut callbacks = Duration::ZERO;
        self.inner.for_each_neighbor(v, timed(f, &mut callbacks));
        self.clock.record(start.elapsed(), callbacks);
    }

    fn try_for_each_neighbor<F: FnMut(Vertex, Weight)>(
        &self,
        v: Vertex,
        f: F,
    ) -> Result<(), NeighborError> {
        let start = Instant::now();
        let mut callbacks = Duration::ZERO;
        let out = self
            .inner
            .try_for_each_neighbor(v, timed(f, &mut callbacks));
        self.clock.record(start.elapsed(), callbacks);
        out
    }

    fn is_weighted(&self) -> bool {
        self.inner.is_weighted()
    }

    fn prefetch_adjacency(&self, vertices: &[Vertex]) {
        let start = Instant::now();
        self.inner.prefetch_adjacency(vertices);
        self.clock.record(start.elapsed(), Duration::ZERO);
    }
}

/// Storage events reported by the semi-external reader through
/// `SemConfig::metrics`.
#[derive(Default)]
pub struct StorageProbe {
    reads: AtomicU64,
    read_ns: AtomicU64,
    bytes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    retries: AtomicU64,
    faults_absorbed: AtomicU64,
    faults_fatal: AtomicU64,
}

/// Totals of a [`StorageProbe`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StorageTotals {
    /// Device reads that delivered data.
    pub reads: u64,
    /// Time those reads took, device queueing included, summed over
    /// threads.
    pub busy: Duration,
    pub bytes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub retries: u64,
    pub faults_absorbed: u64,
    pub faults_fatal: u64,
}

impl StorageProbe {
    pub fn totals(&self) -> StorageTotals {
        StorageTotals {
            reads: self.reads.load(Relaxed),
            busy: Duration::from_nanos(self.read_ns.load(Relaxed)),
            bytes: self.bytes.load(Relaxed),
            cache_hits: self.hits.load(Relaxed),
            cache_misses: self.misses.load(Relaxed),
            retries: self.retries.load(Relaxed),
            faults_absorbed: self.faults_absorbed.load(Relaxed),
            faults_fatal: self.faults_fatal.load(Relaxed),
        }
    }
}

impl MetricSink for StorageProbe {
    fn io_read(&self, latency_ns: u64, bytes: u64) {
        self.reads.fetch_add(1, Relaxed);
        self.read_ns.fetch_add(latency_ns, Relaxed);
        self.bytes.fetch_add(bytes, Relaxed);
    }

    fn cache_access(&self, hit: bool) {
        let c = if hit { &self.hits } else { &self.misses };
        c.fetch_add(1, Relaxed);
    }

    fn io_retry(&self, attempts: u64, _latency_ns: u64) {
        self.retries.fetch_add(attempts, Relaxed);
    }

    fn io_fault(&self, fatal: bool) {
        let c = if fatal {
            &self.faults_fatal
        } else {
            &self.faults_absorbed
        };
        c.fetch_add(1, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncgt::graph::generators::{RmatGenerator, RmatParams};
    use asyncgt::storage::{FaultPlan, FaultyDevice, SemConfig};
    use asyncgt::{bfs, connected_components, sssp, try_bfs, Config, CsrGraph, SemGraph};
    use std::sync::Arc;

    fn rmat(scale: u32) -> CsrGraph {
        RmatGenerator::new(RmatParams::RMAT_A, scale, 8, 5).directed()
    }

    #[test]
    fn traced_results_equal_untraced() {
        let g = rmat(10);
        let und = RmatGenerator::new(RmatParams::RMAT_A, 10, 8, 5).undirected();
        let clock = LayerClock::new();
        let tg = TracedGraph::new(&g, &clock);
        let tu = TracedGraph::new(&und, &clock);
        let cfg = Config::with_threads(4);
        assert_eq!(bfs(&tg, 0, &cfg).dist, bfs(&g, 0, &cfg).dist);
        assert_eq!(sssp(&tg, 0, &cfg).dist, sssp(&g, 0, &cfg).dist);
        assert_eq!(
            connected_components(&tu, &cfg).ccid,
            connected_components(&und, &cfg).ccid
        );
        let t = clock.totals();
        assert!(t.calls > 0);
        assert!(t.callbacks > Duration::ZERO);
    }

    #[test]
    fn edges_pass_through_in_order() {
        let g = rmat(8);
        let clock = LayerClock::new();
        let tg = TracedGraph::new(&g, &clock);
        for v in 0..g.num_vertices() {
            let mut seen = Vec::new();
            tg.try_for_each_neighbor(v, |t, w| seen.push((t, w)))
                .unwrap();
            let mut want = Vec::new();
            g.for_each_neighbor(v, |t, w| want.push((t, w)));
            assert_eq!(seen, want);
            assert_eq!(tg.neighbors(v), g.neighbors(v));
        }
    }

    #[test]
    fn self_time_is_never_negative() {
        let g = rmat(9);
        let clock = LayerClock::new();
        let tg = TracedGraph::new(&g, &clock);
        let _ = bfs(&tg, 0, &Config::with_threads(4));
        // Callbacks that dwarf the scan must still leave self time >= 0.
        for v in 0..64 {
            tg.for_each_neighbor(v, |_, _| std::thread::sleep(Duration::from_micros(20)));
        }
        let t = clock.totals();
        assert!(t.span >= t.callbacks, "{t:?}");
        assert!(t.callbacks >= Duration::from_micros(20));
        assert_eq!(t.self_time(), t.span - t.callbacks);
    }

    #[test]
    fn storage_errors_pass_through_unchanged() {
        let dir = crate::test_dir("trace-errors");
        let path = dir.join("g.agt");
        let g = rmat(9);
        asyncgt::storage::write_sem_graph(&path, &g).unwrap();
        let open = |faults: Option<Arc<FaultyDevice>>, probe: Arc<StorageProbe>| {
            let cfg = SemConfig {
                block_size: 4096,
                cache_blocks: 0,
                faults,
                metrics: Some(probe),
                ..SemConfig::default()
            };
            SemGraph::open_with(&path, cfg).unwrap()
        };
        let faults = || Some(Arc::new(FaultyDevice::new(FaultPlan::permanent(3, 1.0))));
        let plain = open(faults(), Arc::default());
        let probe = Arc::new(StorageProbe::default());
        let traced_inner = open(faults(), Arc::clone(&probe));
        let clock = LayerClock::new();
        let traced = TracedGraph::new(&traced_inner, &clock);

        let v = (0..g.num_vertices())
            .find(|&v| g.out_degree(v) > 0)
            .unwrap();
        let want = plain.try_for_each_neighbor(v, |_, _| {}).unwrap_err();
        let got = traced.try_for_each_neighbor(v, |_, _| {}).unwrap_err();
        assert_eq!(got.to_string(), want.to_string());
        assert!(probe.totals().faults_fatal >= 1);

        let cfg = Config::with_threads(2);
        let want = try_bfs(&plain, v, &cfg).unwrap_err();
        let got = try_bfs(&traced, v, &cfg).unwrap_err();
        assert_eq!(got.to_string(), want.to_string());
        assert!(got.storage_error().is_some());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn probe_counts_device_reads_and_cache_traffic() {
        let dir = crate::test_dir("trace-probe");
        let path = dir.join("g.agt");
        let g = rmat(9);
        asyncgt::storage::write_sem_graph(&path, &g).unwrap();
        let probe = Arc::new(StorageProbe::default());
        let cfg = SemConfig {
            block_size: 4096,
            cache_blocks: 1024,
            metrics: Some(probe.clone()),
            ..SemConfig::default()
        };
        let sg = SemGraph::open_with(&path, cfg).unwrap();
        let out = try_bfs(&sg, 0, &Config::with_threads(2)).unwrap();
        assert_eq!(out.dist, bfs(&g, 0, &Config::with_threads(2)).dist);
        let t = probe.totals();
        assert!(t.reads > 0 && t.bytes >= t.reads * 512);
        assert!(t.cache_hits + t.cache_misses > 0);
        assert_eq!((t.retries, t.faults_fatal), (0, 0));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
