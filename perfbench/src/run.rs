//! What one closed loop of traversals records, and the metrics derived
//! from it.

use crate::report::Metrics;
use crate::stats::{median, mteps, quartiles, tail};
use crate::trace::{LayerTotals, StorageTotals};
use asyncgt::obs::MetricsSnapshot;
use asyncgt::{CcOutput, TraversalOutput, TraversalStats};
use std::fmt::Display;
use std::time::Duration;

/// The three traversals of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Bfs,
    Sssp,
    Cc,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Bfs, Kind::Sssp, Kind::Cc];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Bfs => "bfs",
            Kind::Sssp => "sssp",
            Kind::Cc => "cc",
        }
    }
}

/// One completed query: what ran, how long the caller waited, and the
/// work counters the library returned with it.
#[derive(Clone, Copy, Debug)]
pub struct Query {
    pub kind: Kind,
    pub latency: Duration,
    /// Input edges of the graph the query ran on.
    pub edges: u64,
    pub visitors: u64,
    pub relaxations: u64,
}

/// Everything one closed loop recorded.
#[derive(Debug, Default)]
pub struct Run {
    pub queries: Vec<Query>,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of the whole loop, checks included.
    pub wall: Duration,
    /// Admission wait and run time per engine query (engine loop only).
    pub submit: Vec<f64>,
    pub serve: Vec<f64>,
}

impl Run {
    /// Book one attempted query. `ok` says whether its result passed the
    /// oracle and validator checks; a query that errored or failed them
    /// counts as failed and contributes no latency sample.
    pub fn book(
        &mut self,
        kind: Kind,
        latency: Duration,
        edges: u64,
        stats: Option<&TraversalStats>,
        ok: bool,
    ) {
        self.attempted += 1;
        match stats {
            Some(s) if ok => self.queries.push(Query {
                kind,
                latency,
                edges,
                visitors: s.visitors_executed,
                relaxations: s.relaxations,
            }),
            _ => self.failed += 1,
        }
    }

    pub fn merge(&mut self, other: Run) {
        self.queries.extend(other.queries);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.submit.extend(other.submit);
        self.serve.extend(other.serve);
    }

    pub fn latencies(&self, kind: Option<Kind>) -> Vec<f64> {
        self.queries
            .iter()
            .filter(|q| kind.is_none_or(|k| q.kind == k))
            .map(|q| q.latency.as_secs_f64())
            .collect()
    }

    fn median_latency(&self, kind: Kind) -> f64 {
        median(&self.latencies(Some(kind))).unwrap_or(f64::NAN)
    }

    /// Print per-kind latency quartiles, one line each.
    pub fn describe(&self, label: &str) {
        for kind in Kind::ALL {
            let xs = self.latencies(Some(kind));
            if let Some([q1, q2, q3]) = quartiles(&xs) {
                println!(
                    "{label} {:<5} n={:<4} q1/median/q3 = {:.2}/{:.2}/{:.2} ms",
                    kind.name(),
                    xs.len(),
                    q1 * 1e3,
                    q2 * 1e3,
                    q3 * 1e3
                );
            }
        }
        println!(
            "{label} {} queries in {:.2} s, {} failed of {}",
            self.queries.len(),
            self.wall.as_secs_f64(),
            self.failed,
            self.attempted
        );
    }
}

/// Set-up phases, each the median over the repeated set-ups of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    pub total: f64,
    pub generate: f64,
    pub sem_write: f64,
    pub oracle: f64,
}

/// The end-to-end metrics of an untraced loop.
pub fn end_to_end(run: &Run, setup: &Setup, peak_rss_mib: f64) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", setup.total, "s", 1);
    for kind in Kind::ALL {
        let n = run.latencies(Some(kind)).len();
        let edges = run
            .queries
            .iter()
            .find(|q| q.kind == kind)
            .map_or(0, |q| q.edges);
        let name = format!("{}_mteps", kind.name());
        m.put(&name, mteps(edges, run.median_latency(kind)), "Medges/s", n);
    }
    let all = run.latencies(None);
    m.put(
        "queries_per_s",
        all.len() as f64 / run.wall.as_secs_f64(),
        "1/s",
        all.len(),
    );
    m.put(
        "query_p50_ms",
        median(&all).unwrap_or(f64::NAN) * 1e3,
        "ms",
        all.len(),
    );
    let t = tail(&all);
    m.put(
        "query_tail_ms",
        t.map_or(f64::NAN, |t| t.value * 1e3),
        "ms",
        all.len(),
    );
    m.note(format!(
        "query_tail_ms is p{:.1} of {} samples",
        t.map_or(f64::NAN, |t| t.percentile),
        all.len()
    ));
    m.put("peak_rss_mb", peak_rss_mib, "MiB", 1);
    m
}

/// What a traced loop saw through the outside-in hooks.
pub struct Trace<'a> {
    pub run: &'a Run,
    /// The untraced loop of the same run, for the tracing overhead.
    pub untraced: &'a Run,
    pub workers: usize,
    /// Wall time the workers were available for: the sum of query
    /// latencies for one query at a time, the loop wall for the engine.
    pub worker_wall: Duration,
    pub layers: LayerTotals,
    pub storage: StorageTotals,
    pub vq: &'a MetricsSnapshot,
    pub setup: &'a Setup,
}

/// The per-layer metrics of a traced loop, per completed query where the
/// quantity is a count or a time.
pub fn per_layer(t: &Trace) -> Metrics {
    let q = t.run.queries.len().max(1) as f64;
    let secs = |d: Duration| d.as_secs_f64();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let edges: u64 = t.run.queries.iter().map(|x| x.edges).sum();
    let visitors: u64 = t.run.queries.iter().map(|x| x.visitors).sum();
    let relaxations: u64 = t.run.queries.iter().map(|x| x.relaxations).sum();
    let adjacency_self = secs(t.layers.self_time());
    let runtime = (t.workers as f64 * secs(t.worker_wall) - secs(t.layers.span)).max(0.0);
    let c = |name: &str| t.vq.counter(name) as f64;
    let n = t.run.queries.len();

    let mut m = Metrics::default();
    m.put("adjacency.calls", t.layers.calls as f64 / q, "count", n);
    m.put("adjacency.self_s", adjacency_self / q, "s", n);
    m.put("push.s", secs(t.layers.callbacks) / q, "s", n);
    m.put("runtime.s", runtime / q, "s", n);
    m.put(
        "visits_per_edge",
        ratio(visitors as f64, edges as f64),
        "ratio",
        n,
    );
    m.put("relaxations", relaxations as f64 / q, "count", n);
    m.put(
        "vq.remote_push_frac",
        ratio(c("remote_pushes"), c("visitors_pushed")),
        "ratio",
        n,
    );
    // Each outbox flush publishes one mailbox segment; the runtime's
    // `mailbox_segments` counter counts only newly allocated segments.
    m.put(
        "vq.visitors_per_segment",
        ratio(c("remote_pushes"), c("outbox_flushes")),
        "ratio",
        n,
    );
    m.put("vq.cas_retries", c("mailbox_cas_retries") / q, "count", n);
    m.put("vq.parks", c("parks") / q, "count", n);
    m.put("vq.wakes", c("wakes") / q, "count", n);
    let s = &t.storage;
    m.put("device.reads", s.reads as f64 / q, "count", n);
    m.put("device.busy_s", secs(s.busy) / q, "s", n);
    m.put(
        "device.bytes_per_edge",
        ratio(s.bytes as f64, edges as f64),
        "B/edge",
        n,
    );
    m.put(
        "device.reads_in_flight",
        ratio(secs(s.busy), secs(t.worker_wall)),
        "ratio",
        n,
    );
    let lookups = (s.cache_hits + s.cache_misses) as f64;
    m.put(
        "cache.hit_ratio",
        ratio(s.cache_hits as f64, lookups),
        "ratio",
        n,
    );
    // In-memory graphs do no storage work: their adjacency self time is
    // the CSR scan, not storage CPU.
    let storage_cpu = if s.reads > 0 || lookups > 0.0 {
        (adjacency_self - secs(s.busy)).max(0.0)
    } else {
        0.0
    };
    m.put("storage.cpu_s", storage_cpu / q, "s", n);
    m.put("io.retries", s.retries as f64 / q, "count", n);
    m.put(
        "io.faults_absorbed",
        s.faults_absorbed as f64 / q,
        "count",
        n,
    );
    m.put(
        "engine.submit_s",
        median(&t.run.submit).unwrap_or(0.0),
        "s",
        t.run.submit.len(),
    );
    m.put(
        "engine.run_s",
        median(&t.run.serve).unwrap_or(0.0),
        "s",
        t.run.serve.len(),
    );
    m.put("setup.generate_s", t.setup.generate, "s", 1);
    m.put("setup.sem_write_s", t.setup.sem_write, "s", 1);
    m.put("setup.oracle_s", t.setup.oracle, "s", 1);
    let traced: f64 = Kind::ALL.iter().map(|&k| t.run.median_latency(k)).sum();
    let plain: f64 = Kind::ALL
        .iter()
        .map(|&k| t.untraced.median_latency(k))
        .sum();
    m.put("trace.overhead_frac", traced / plain - 1.0, "ratio", n);
    let attempted = t.run.attempted + t.untraced.attempted;
    let failed = t.run.failed + t.untraced.failed;
    m.put(
        "failed_frac",
        ratio(failed as f64, attempted as f64),
        "ratio",
        attempted as usize,
    );
    m
}

/// Check a BFS/SSSP result against the serial oracle's distances and the
/// library's validator. Diagnostics go to standard error.
pub fn path_ok<G: asyncgt::Graph, E: Display>(
    check: &G,
    source: u64,
    out: &Result<TraversalOutput, E>,
    want: &[u64],
    unit_weights: bool,
) -> bool {
    let verdict = match out {
        Err(e) => Err(format!("error: {e}")),
        Ok(out) if out.dist != want => Err("distances differ from the serial oracle".into()),
        Ok(out) => asyncgt::validate::check_shortest_paths(check, source, out, unit_weights),
    };
    report(verdict, if unit_weights { "bfs" } else { "sssp" }, source)
}

/// Check a CC result against the serial oracle and the validator.
pub fn cc_ok<G: asyncgt::Graph, E: Display>(
    check: &G,
    out: &Result<CcOutput, E>,
    want: &[u64],
) -> bool {
    let verdict = match out {
        Err(e) => Err(format!("error: {e}")),
        Ok(out) if out.ccid != want => Err("labels differ from the serial oracle".into()),
        Ok(out) => asyncgt::validate::check_components(check, &out.ccid),
    };
    report(verdict, "cc", 0)
}

fn report(verdict: Result<(), String>, what: &str, source: u64) -> bool {
    if let Err(e) = &verdict {
        eprintln!("FAILED {what} from {source}: {e}");
    }
    verdict.is_ok()
}
