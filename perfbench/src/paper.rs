//! The paper's one-shot traversals (Tables I–V): BFS, SSSP and CC on an
//! RMAT-A graph, in memory (`im-rmat`) or semi-external through
//! `SemGraph` on a simulated flash device (`sem-flash`).

use crate::run::{cc_ok, path_ok, Kind, Run, Setup};
use crate::trace::{LayerClock, StorageProbe, TracedGraph};
use crate::{mix, Args, Workload};
use asyncgt::graph::generators::{RmatGenerator, RmatParams};
use asyncgt::graph::weights::{weighted_copy, WeightKind};
use asyncgt::graph::GraphBuilder;
use asyncgt::obs::{MetricSink, Recorder, ShardedRecorder};
use asyncgt::storage::{DeviceModel, SemConfig, SimulatedFlash};
use asyncgt::{
    try_bfs_recorded, try_connected_components_recorded, try_sssp_recorded, Config, CsrGraph,
    Graph, SemGraph, Vertex,
};
use asyncgt_baselines::serial;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// RMAT scale of `im-rmat`: 2^16 vertices, 2^20 directed edges. A run
/// takes twice as many queries of each kind as at scale 17, and its
/// set-up a third of the time.
pub const IM_SCALE: u32 = 16;
/// RMAT scale of `sem-flash`: 2^17 vertices, 2^21 directed edges, so the
/// edge regions are 8–16× the block cache.
pub const SEM_SCALE: u32 = 17;
/// The paper's average out-degree.
pub const EDGE_FACTOR: u64 = 16;
/// Seeded BFS/SSSP sources per run, cycled round by round, so a run's
/// median is a property of the graph rather than of a few draws.
const SOURCES: usize = 16;
/// Queries of one in-memory round. Equal shares put the median query
/// latency in the middle of the SSSP latencies (BFS < SSSP < CC), not on
/// an edge between two kinds, where it would jump from run to run.
const IM_ROUND: &[Kind] = &[Kind::Bfs, Kind::Sssp, Kind::Cc];
/// Queries of one SEM round. CC through the device varies most from run
/// to run (0.6–1.4 s per query), so it gets most of the samples; the
/// median query latency then falls inside the CC latencies.
const SEM_ROUND: &[Kind] = &[
    Kind::Bfs,
    Kind::Cc,
    Kind::Bfs,
    Kind::Cc,
    Kind::Cc,
    Kind::Sssp,
    Kind::Cc,
];
/// Rounds run even when `--seconds` is shorter: enough for every kind to
/// have samples and for the tail rule to apply.
const MIN_ROUNDS: usize = 4;

/// `sem-flash` reads 8 KiB blocks through a 128-block (1 MiB) cache,
/// 8–16× smaller than the edge regions, so the device is really used.
pub const SEM_BLOCK: usize = 8192;
pub const SEM_CACHE_BLOCKS: usize = 128;
/// Enough workers to keep reads in flight on the device while staying
/// clear of a scheduler storm on a small host.
pub const SEM_WORKERS: usize = 8;

/// `im-rmat` workers on a host with `parallelism` hardware threads: all
/// but one, and at least one. When every core runs a worker, the worker
/// on a slower or busier core falls behind and the others run ahead
/// along labels that are later corrected: on 2 cores, one SSSP query
/// executed up to 4× the visitors of the next and CC up to 2×, so their
/// medians followed the host's load (ten interleaved pairs of runs:
/// `sssp_mteps` spread 0.27 at two workers, 0.11 at one). With a core
/// to spare, every SSSP query executed the same visitors, and every CC
/// query but a rare one.
fn im_workers(parallelism: usize) -> usize {
    parallelism.saturating_sub(1).max(1)
}

/// The inputs of one round.
pub struct Inputs<G> {
    /// Directed, unweighted: BFS.
    pub directed: G,
    /// Directed with UW weights in `[0, n)`: SSSP in memory. `None` for
    /// SEM, where SSSP runs with unit weights on `directed`: weighted SEM
    /// SSSP at these settings takes seconds per query with 2–3× redundant
    /// visits, too slow to sample within one run.
    pub weighted: Option<G>,
    /// Undirected: CC.
    pub undirected: G,
}

impl<G: Graph> Inputs<G> {
    /// The graph SSSP runs on.
    fn sssp(&self) -> &G {
        self.weighted.as_ref().unwrap_or(&self.directed)
    }

    fn traced<'a>(&'a self, clock: &'a LayerClock) -> Inputs<TracedGraph<'a, &'a G>> {
        Inputs {
            directed: TracedGraph::new(&self.directed, clock),
            weighted: self.weighted.as_ref().map(|g| TracedGraph::new(g, clock)),
            undirected: TracedGraph::new(&self.undirected, clock),
        }
    }
}

/// Serial answers for every query a round can issue.
pub struct Oracle {
    pub sources: Vec<SourceOracle>,
    pub cc: Vec<Vertex>,
}

/// Generate the seeded inputs. The undirected graph adds the reverse of
/// every directed edge, as `RmatGenerator::undirected` does, from the
/// same edge list instead of sampling it twice.
pub fn generate(scale: u32, seed: u64, weighted: bool) -> Inputs<CsrGraph> {
    let gen = RmatGenerator::new(RmatParams::RMAT_A, scale, EDGE_FACTOR, mix(seed, 1));
    let n = gen.num_vertices();
    let edges = gen.edges();
    let directed = GraphBuilder::from_edges(n, edges.clone(), false).build();
    let weighted = weighted.then(|| weighted_copy(&directed, WeightKind::Uniform, mix(seed, 2)));
    let undirected = GraphBuilder::from_edges(n, edges, false)
        .symmetrize()
        .dedup()
        .build();
    Inputs {
        directed,
        weighted,
        undirected,
    }
}

/// The serial answers for one source: BFS levels and SSSP distances.
pub struct SourceOracle {
    pub source: Vertex,
    pub bfs: Vec<u64>,
    pub sssp: Vec<u64>,
}

/// Draw `count` seeded sources whose serial BFS reaches at least half of
/// the graph, so every source traverses the giant component, and compute
/// their serial answers (SSSP on `weighted`, or the BFS levels for unit
/// weights). Candidates are evaluated on `threads` threads.
pub fn pick_sources(
    g: &CsrGraph,
    weighted: Option<&CsrGraph>,
    seed: u64,
    count: usize,
    threads: usize,
) -> Vec<SourceOracle> {
    let n = g.num_vertices();
    let answer = |v: Vertex| {
        let bfs = serial::bfs(g, v).dist;
        let reached = bfs.iter().filter(|&&d| d != asyncgt::INF_DIST).count() as u64;
        (2 * reached >= n).then(|| SourceOracle {
            source: v,
            sssp: weighted.map_or_else(|| bfs.clone(), |w| serial::dijkstra(w, v).dist),
            bfs,
        })
    };
    let mut picked: Vec<SourceOracle> = Vec::with_capacity(count);
    let mut candidates = (0..10_000u64)
        .map(|i| mix(seed, 100 + i) % n)
        .filter(|&v| g.out_degree(v) > 0);
    while picked.len() < count {
        let mut batch: Vec<Vertex> = Vec::new();
        while batch.len() < count - picked.len() {
            let v = candidates
                .next()
                .unwrap_or_else(|| panic!("fewer than {count} sources reach half of the graph"));
            if !batch.contains(&v) && picked.iter().all(|p| p.source != v) {
                batch.push(v);
            }
        }
        let per = batch.len().div_ceil(threads.max(1));
        let found: Vec<SourceOracle> = std::thread::scope(|s| {
            let handles: Vec<_> = batch
                .chunks(per)
                .map(|c| s.spawn(|| c.iter().filter_map(|&v| answer(v)).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread panicked"))
                .collect()
        });
        picked.extend(found);
    }
    picked
}

impl Oracle {
    pub fn compute(inputs: &Inputs<CsrGraph>, seed: u64, threads: usize) -> Oracle {
        let weighted = inputs.weighted.as_ref();
        Oracle {
            sources: pick_sources(&inputs.directed, weighted, seed, SOURCES, threads),
            cc: serial::connected_components(&inputs.undirected),
        }
    }
}

/// One closed loop: a single client runs `round` over and over for
/// `secs`, checking each result outside its timing.
pub fn closed_loop<G: Graph, R: Recorder>(
    round: &[Kind],
    inputs: &Inputs<G>,
    check: &Inputs<CsrGraph>,
    oracle: &Oracle,
    cfg: &Config,
    secs: Duration,
    rec: &R,
) -> Run {
    let mut run = Run::default();
    let start = Instant::now();
    let mut k = 0;
    while k < MIN_ROUNDS * round.len() || start.elapsed() < secs {
        let src = &oracle.sources[(k / round.len()) % oracle.sources.len()];
        let s = src.source;
        let kind = round[k % round.len()];
        let t = Instant::now();
        match kind {
            Kind::Bfs | Kind::Sssp => {
                let bfs = kind == Kind::Bfs;
                let (g, c) = if bfs {
                    (&inputs.directed, &check.directed)
                } else {
                    (inputs.sssp(), check.sssp())
                };
                let out = if bfs {
                    try_bfs_recorded(g, s, cfg, rec)
                } else {
                    try_sssp_recorded(g, s, cfg, rec)
                };
                let dt = t.elapsed();
                let want = if bfs { &src.bfs } else { &src.sssp };
                let ok = path_ok(c, s, &out, want, bfs);
                run.book(
                    kind,
                    dt,
                    g.num_edges(),
                    out.as_ref().ok().map(|o| &o.stats),
                    ok,
                );
            }
            Kind::Cc => {
                let g = &inputs.undirected;
                let out = try_connected_components_recorded(g, cfg, rec);
                let dt = t.elapsed();
                let ok = cc_ok(&check.undirected, &out, &oracle.cc);
                // Undirected input edges: the graph stores both directions.
                let edges = g.num_edges() / 2;
                run.book(kind, dt, edges, out.as_ref().ok().map(|o| &o.stats), ok);
            }
        }
        k += 1;
    }
    run.wall = start.elapsed();
    run
}

/// A set-up paper workload.
pub struct Paper {
    csr: Inputs<CsrGraph>,
    oracle: Oracle,
    cfg: Config,
    /// `sem-flash` only: the device and the opened files.
    sem: Option<(Arc<SimulatedFlash>, Inputs<SemGraph>)>,
    dir: PathBuf,
}

impl Paper {
    /// Generate inputs, compute the oracle answers and, for SEM, write
    /// and open the graph files. Returns the phase timings with it.
    pub fn setup(args: &Args, sem: bool) -> (Paper, Setup) {
        let t = Instant::now();
        let csr = generate(Self::scale(sem), args.seed, !sem);
        let generate_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let oracle = Oracle::compute(&csr, args.seed, args.workers);
        let oracle_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let dir = args.workdir.clone();
        let sem = sem.then(|| {
            write_sem(&dir, &csr);
            let device = Arc::new(SimulatedFlash::new(DeviceModel::fusion_io()));
            let inputs = open_sem(&dir, &device, None);
            (device, inputs)
        });
        let sem_write_s = t.elapsed().as_secs_f64();

        let workers = if sem.is_some() {
            SEM_WORKERS
        } else {
            im_workers(args.workers)
        };
        let paper = Paper {
            csr,
            oracle,
            cfg: Config::with_threads(workers),
            sem,
            dir,
        };
        let setup = Setup {
            total: generate_s + oracle_s + sem_write_s,
            generate: generate_s,
            sem_write: sem_write_s,
            oracle: oracle_s,
        };
        (paper, setup)
    }
}

impl Paper {
    fn scale(sem: bool) -> u32 {
        if sem {
            SEM_SCALE
        } else {
            IM_SCALE
        }
    }

    fn round(&self) -> &'static [Kind] {
        if self.sem.is_some() {
            SEM_ROUND
        } else {
            IM_ROUND
        }
    }
}

impl Workload for Paper {
    fn workers(&self) -> usize {
        self.cfg.num_threads
    }

    fn timed(&self, secs: Duration) -> Run {
        let noop = asyncgt::obs::NoopRecorder;
        match &self.sem {
            Some((_, sem)) => closed_loop(
                self.round(),
                sem,
                &self.csr,
                &self.oracle,
                &self.cfg,
                secs,
                &noop,
            ),
            None => closed_loop(
                self.round(),
                &self.csr,
                &self.csr,
                &self.oracle,
                &self.cfg,
                secs,
                &noop,
            ),
        }
    }

    /// Graphs wrapped in the layer clock, a recorder in the runtime and,
    /// for SEM, a second set of file handles reporting to the probe.
    fn traced(
        &self,
        secs: Duration,
        clock: &LayerClock,
        probe: Arc<StorageProbe>,
        rec: &ShardedRecorder,
    ) -> (Run, Duration) {
        let (csr, oracle, cfg) = (&self.csr, &self.oracle, &self.cfg);
        let run = match &self.sem {
            Some((device, _)) => {
                let sem = open_sem(&self.dir, device, Some(probe));
                closed_loop(
                    self.round(),
                    &sem.traced(clock),
                    csr,
                    oracle,
                    cfg,
                    secs,
                    rec,
                )
            }
            None => closed_loop(
                self.round(),
                &csr.traced(clock),
                csr,
                oracle,
                cfg,
                secs,
                rec,
            ),
        };
        // One query at a time: the workers were there for the sum of the
        // query latencies.
        let busy = run.queries.iter().map(|q| q.latency).sum();
        (run, busy)
    }

    fn params(&self) -> String {
        let sem = self.sem.is_some();
        let round: Vec<_> = self
            .round()
            .iter()
            .map(|k| format!("\"{}\"", k.name()))
            .collect();
        let mut p = format!(
            "{{\"graph\": \"RMAT-A\", \"scale\": {}, \"edge_factor\": {EDGE_FACTOR}, \
             \"sssp_weights\": \"{}\", \"sources\": {SOURCES}, \"round\": [{}], \"workers\": {}",
            Self::scale(sem),
            if sem { "unit" } else { "UW" },
            round.join(", "),
            self.cfg.num_threads
        );
        if sem {
            p.push_str(&format!(
                ", \"device\": \"FusionIO (simulated)\", \"block_bytes\": {SEM_BLOCK}, \
                 \"cache_blocks\": {SEM_CACHE_BLOCKS}, \"io_batch\": 1, \"verify_checksums\": true"
            ));
        }
        p.push('}');
        p
    }
}

/// Removes the workload's SEM files.
impl Drop for Paper {
    fn drop(&mut self) {
        if self.sem.is_some() {
            for f in FILES {
                let _ = std::fs::remove_file(self.dir.join(f));
            }
        }
    }
}

const FILES: [&str; 2] = ["directed.agt", "undirected.agt"];

fn write_sem(dir: &Path, csr: &Inputs<CsrGraph>) {
    for (name, g) in FILES.iter().zip([&csr.directed, &csr.undirected]) {
        asyncgt::storage::write_sem_graph(dir.join(name), g).expect("write SEM graph");
    }
}

/// Open the semi-external inputs at the workload's settings.
fn open_sem(
    dir: &Path,
    device: &Arc<SimulatedFlash>,
    metrics: Option<Arc<StorageProbe>>,
) -> Inputs<SemGraph> {
    open_sem_with(dir, |cfg| SemConfig {
        device: Some(Arc::clone(device)),
        metrics: metrics.clone().map(|m| m as Arc<dyn MetricSink>),
        ..cfg
    })
}

/// Open the files with the workload's block and cache sizes, adjusted by
/// `with`.
fn open_sem_with(dir: &Path, with: impl Fn(SemConfig) -> SemConfig) -> Inputs<SemGraph> {
    let open = |name: &str| {
        let cfg = with(SemConfig {
            block_size: SEM_BLOCK,
            cache_blocks: SEM_CACHE_BLOCKS,
            ..SemConfig::default()
        });
        SemGraph::open_with(dir.join(name), cfg).expect("open SEM graph")
    };
    Inputs {
        directed: open(FILES[0]),
        weighted: None,
        undirected: open(FILES[1]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{per_layer, Trace};
    use asyncgt::obs::{NoopRecorder, ShardedRecorder};
    use asyncgt::storage::{FaultPlan, FaultyDevice};

    fn tiny(name: &str) -> (PathBuf, Inputs<CsrGraph>, Oracle) {
        let dir = crate::test_dir(name);
        let csr = generate(9, 7, false);
        let oracle = Oracle::compute(&csr, 7, 2);
        write_sem(&dir, &csr);
        (dir, csr, oracle)
    }

    #[test]
    fn tiny_sem_loop_checks_out_traced_and_untraced() {
        let (dir, csr, oracle) = tiny("sem-ok");
        let cfg = Config::with_threads(4);
        let sem = open_sem_with(&dir, |c| c);
        let run = closed_loop(
            SEM_ROUND,
            &sem,
            &csr,
            &oracle,
            &cfg,
            Duration::ZERO,
            &NoopRecorder,
        );
        assert_eq!(
            (run.attempted, run.failed),
            ((MIN_ROUNDS * SEM_ROUND.len()) as u64, 0)
        );

        let clock = LayerClock::new();
        let probe = Arc::new(StorageProbe::default());
        let sem = open_sem_with(&dir, |c| SemConfig {
            metrics: Some(probe.clone()),
            ..c
        });
        let rec = ShardedRecorder::new(4);
        let traced = closed_loop(
            SEM_ROUND,
            &sem.traced(&clock),
            &csr,
            &oracle,
            &cfg,
            Duration::ZERO,
            &rec,
        );
        assert_eq!(traced.failed, 0);
        assert!(clock.totals().calls > 0);
        assert!(probe.totals().cache_hits + probe.totals().cache_misses > 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn permanent_faults_report_failed_operations() {
        let (dir, csr, oracle) = tiny("sem-faults");
        let sem = open_sem_with(&dir, |c| SemConfig {
            cache_blocks: 0,
            faults: Some(Arc::new(FaultyDevice::new(FaultPlan::permanent(1, 1.0)))),
            ..c
        });
        let cfg = Config::with_threads(2);
        let run = closed_loop(
            SEM_ROUND,
            &sem,
            &csr,
            &oracle,
            &cfg,
            Duration::ZERO,
            &NoopRecorder,
        );
        assert!(run.attempted > 0);
        assert_eq!(run.failed, run.attempted, "every read fails permanently");

        let snapshot = ShardedRecorder::new(2).snapshot();
        let m = per_layer(&Trace {
            run: &run,
            untraced: &run,
            workers: 2,
            worker_wall: run.wall,
            layers: Default::default(),
            storage: Default::default(),
            vq: &snapshot,
            setup: &Default::default(),
        });
        assert!(m.get("failed_frac").unwrap() > 0.0);
        let correct = m.emit(&[], run.attempted, run.failed);
        assert!(!correct, "a run with failed operations is not correct");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
