//! `engine-mixed`: one persistent engine serving a closed loop of short
//! BFS, SSSP and CC queries from concurrent clients.

use crate::paper::{pick_sources, SourceOracle};
use crate::run::{cc_ok, path_ok, Kind, Run, Setup};
use crate::trace::{LayerClock, StorageProbe, TracedGraph};
use crate::{mix, Args, Workload};
use asyncgt::engine::{with_engine, EngineOpts, TraversalEngine};
use asyncgt::graph::generators::{RmatGenerator, RmatParams};
use asyncgt::graph::weights::{weighted_copy, WeightKind};
use asyncgt::obs::{NoopRecorder, Recorder, ShardedRecorder};
use asyncgt::vq::SubmitError;
use asyncgt::{CsrGraph, Graph, TraversalError, Vertex};
use asyncgt_baselines::serial;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// RMAT scale of the served graph: 2^14 vertices, so a query takes tens
/// of milliseconds and per-query fixed costs show.
pub const SCALE: u32 = 14;
const EDGE_FACTOR: u64 = 16;
/// Seeded sources queries draw from.
const SOURCES: usize = 8;
/// Query mix per ten queries of one client: eight BFS, one SSSP, one CC.
const MIX: [Kind; 10] = [
    Kind::Bfs,
    Kind::Bfs,
    Kind::Bfs,
    Kind::Bfs,
    Kind::Sssp,
    Kind::Bfs,
    Kind::Bfs,
    Kind::Bfs,
    Kind::Bfs,
    Kind::Cc,
];
/// Queries each client issues even when `--seconds` is shorter, so every
/// kind has samples.
const MIN_QUERIES: usize = 10;

/// The served graph and the serial answer to every query the loop can
/// issue.
pub struct Serving {
    /// Undirected, UW weights: BFS ignores them, SSSP uses them, CC sees
    /// the undirected structure.
    graph: CsrGraph,
    sources: Vec<SourceOracle>,
    cc: Vec<Vertex>,
    opts: EngineOpts,
    clients: usize,
    seed: u64,
}

impl Serving {
    pub fn setup(args: &Args) -> (Serving, Setup) {
        Self::setup_at(SCALE, args)
    }

    fn setup_at(scale: u32, args: &Args) -> (Serving, Setup) {
        let t = Instant::now();
        let gen = RmatGenerator::new(RmatParams::RMAT_A, scale, EDGE_FACTOR, mix(args.seed, 11));
        let graph = weighted_copy(&gen.undirected(), WeightKind::Uniform, mix(args.seed, 12));
        let generate_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let sources = pick_sources(&graph, Some(&graph), args.seed, SOURCES, args.workers);
        let cc = serial::connected_components(&graph);
        let oracle_s = t.elapsed().as_secs_f64();

        let clients = args.workers;
        let opts = EngineOpts::with_threads(args.workers).with_max_concurrent(clients);
        let serving = Serving {
            sources,
            graph,
            cc,
            opts,
            clients,
            seed: args.seed,
        };
        // Starting the engine is set-up: time an engine that serves nothing.
        let t = Instant::now();
        with_engine(&serving.graph, &serving.opts, &NoopRecorder, |_| ());
        let start_s = t.elapsed().as_secs_f64();
        let setup = Setup {
            total: generate_s + oracle_s + start_s,
            generate: generate_s,
            sem_write: 0.0,
            oracle: oracle_s,
        };
        (serving, setup)
    }

    /// `clients` threads each submit their next query only after the last
    /// one returned and was checked. A query's latency runs from submit to
    /// `wait()` returning; its check runs outside that window.
    fn closed_loop<G: Graph, R: Recorder>(&self, g: &G, secs: Duration, rec: &R) -> Run {
        let (run, _) = with_engine(g, &self.opts, rec, |eng| {
            let start = Instant::now();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..self.clients)
                    .map(|c| s.spawn(move || self.client(eng, c, start, secs)))
                    .collect();
                let mut run = Run::default();
                for h in handles {
                    run.merge(h.join().expect("client thread panicked"));
                }
                run.wall = start.elapsed();
                run
            })
        });
        run
    }

    fn client<G: Graph, R: Recorder>(
        &self,
        eng: &TraversalEngine<'_, '_, G, R>,
        client: usize,
        start: Instant,
        secs: Duration,
    ) -> Run {
        let mut run = Run::default();
        let mut k = 0;
        while k < MIN_QUERIES || start.elapsed() < secs {
            let kind = MIX[(k + 5 * client) % MIX.len()];
            let i = (mix(self.seed, ((client as u64) << 32) | k as u64) % SOURCES as u64) as usize;
            let src = &self.sources[i];
            let s = src.source;
            let t = Instant::now();
            let (submitted, done, stats, ok) = match kind {
                Kind::Cc => {
                    let ticket = eng.submit_cc();
                    let submitted = t.elapsed();
                    let out = settle(ticket, |t| t.wait());
                    let done = t.elapsed();
                    let ok = cc_ok(&self.graph, &out, &self.cc);
                    (submitted, done, out.ok().map(|o| o.stats), ok)
                }
                Kind::Bfs | Kind::Sssp => {
                    let bfs = kind == Kind::Bfs;
                    let ticket = if bfs {
                        eng.submit_bfs(&[s])
                    } else {
                        eng.submit_sssp(&[s])
                    };
                    let submitted = t.elapsed();
                    let out = settle(ticket, |t| t.wait());
                    let done = t.elapsed();
                    let want = if bfs { &src.bfs } else { &src.sssp };
                    let ok = path_ok(&self.graph, s, &out, want, bfs);
                    (submitted, done, out.ok().map(|o| o.stats), ok)
                }
            };
            let edges = match kind {
                Kind::Cc => self.graph.num_edges() / 2,
                _ => self.graph.num_edges(),
            };
            run.book(kind, done, edges, stats.as_ref(), ok);
            if ok {
                run.submit.push(submitted.as_secs_f64());
                run.serve.push((done - submitted).as_secs_f64());
            }
            k += 1;
        }
        run
    }
}

/// Wait for an accepted query; a refused submit is an error too.
fn settle<K, T>(
    ticket: Result<K, SubmitError>,
    wait: impl FnOnce(K) -> Result<T, TraversalError>,
) -> Result<T, String> {
    match ticket {
        Ok(k) => wait(k).map_err(|e| e.to_string()),
        Err(e) => Err(format!("submit refused: {e}")),
    }
}

impl Workload for Serving {
    fn workers(&self) -> usize {
        self.opts.cfg.num_threads
    }

    fn timed(&self, secs: Duration) -> Run {
        self.closed_loop(&self.graph, secs, &NoopRecorder)
    }

    /// The graph wrapped in the layer clock and a recorder in the engine;
    /// the graph is in memory, so the storage probe stays empty.
    fn traced(
        &self,
        secs: Duration,
        clock: &LayerClock,
        _probe: Arc<StorageProbe>,
        rec: &ShardedRecorder,
    ) -> (Run, Duration) {
        let run = self.closed_loop(&TracedGraph::new(&self.graph, clock), secs, rec);
        let wall = run.wall;
        (run, wall)
    }

    fn params(&self) -> String {
        format!(
            "{{\"graph\": \"RMAT-A undirected\", \"scale\": {SCALE}, \"weights\": \"UW\", \
             \"workers\": {}, \"clients\": {}, \"max_concurrent\": {}, \"sources\": {SOURCES}, \
             \"mix\": \"bfs:sssp:cc = 8:1:1\"}}",
            self.workers(),
            self.clients,
            self.opts.max_concurrent
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn engine_loop_checks_out_traced_and_untraced() {
        let args = Args {
            workload: "engine-mixed".into(),
            seed: 3,
            seconds: 0.0,
            trace: true,
            workdir: crate::test_dir("engine"),
            workers: 2,
        };
        let (srv, setup) = Serving::setup_at(9, &args);
        assert!(setup.total > 0.0);
        let run = srv.timed(Duration::ZERO);
        assert_eq!((run.attempted, run.failed), (2 * MIN_QUERIES as u64, 0));
        for kind in Kind::ALL {
            assert!(!run.latencies(Some(kind)).is_empty(), "{kind:?}");
        }
        assert_eq!(run.submit.len(), run.queries.len());

        let clock = LayerClock::new();
        let rec = ShardedRecorder::new(2);
        let (traced, _) = srv.traced(Duration::ZERO, &clock, Arc::default(), &rec);
        assert_eq!(traced.failed, 0);
        assert!(clock.totals().calls > 0);
        assert_eq!(
            rec.snapshot().counter("queries_completed"),
            traced.attempted
        );
        std::fs::remove_dir_all(args.workdir).unwrap();
    }
}
