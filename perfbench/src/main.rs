//! The repository benchmark. Runs one workload for a fixed time through
//! the library's public API, checks every result against the serial
//! baselines, and prints the end-to-end metrics (or, with `--trace 1`,
//! the per-layer metrics of a separate traced loop) as one JSON line.
//!
//! ```text
//! asyncgt-perfbench --workload im-rmat|sem-flash|engine-mixed
//!                   --seed N --seconds S --trace 0|1 [--workdir DIR]
//! ```
//!
//! Exits 1 when any operation failed or a result was wrong, 2 on a usage
//! error.

mod paper;
mod report;
mod run;
mod serving;
mod stats;
mod trace;

use asyncgt::obs::ShardedRecorder;
use paper::Paper;
use run::{end_to_end, per_layer, Run, Setup, Trace};
use serving::Serving;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use trace::{LayerClock, StorageProbe};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

const WORKLOADS: [&str; 3] = ["im-rmat", "sem-flash", "engine-mixed"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub workdir: PathBuf,
    /// Worker threads of the CPU-bound workloads: the host's parallelism.
    pub workers: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = std::collections::HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let num = |k: &str| -> Result<f64, String> {
        get(k)?.parse::<f64>().map_err(|e| format!("--{k}: {e}"))
    };
    let seconds = num("seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
        workdir: kv
            .get("workdir")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(".bench_build/perfbench-work")),
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        workload,
    })
}

/// SplitMix64 of `seed` and a stream id: every seeded choice in the
/// benchmark derives from `--seed` through this.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Run `setup` [`SETUP_REPEATS`] times, keep the last result, and report
/// each phase as its median.
fn repeated<T>(mut setup: impl FnMut() -> (T, Setup)) -> (T, Setup) {
    let mut runs = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let (t, s) = setup();
        runs.push(s);
        last = Some(t);
    }
    let med = |f: fn(&Setup) -> f64| {
        stats::median(&runs.iter().map(f).collect::<Vec<_>>()).expect("at least one set-up")
    };
    let setup = Setup {
        total: med(|s| s.total),
        generate: med(|s| s.generate),
        sem_write: med(|s| s.sem_write),
        oracle: med(|s| s.oracle),
    };
    (last.expect("at least one set-up"), setup)
}

/// Peak resident memory of this process since the last [`reset_peak_rss`].
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Return freed set-up memory to the kernel, then reset its
/// resident-memory high-water mark to the current resident size, so the
/// peak covers only what follows.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and only releases
        // free heap pages; it is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("warning: cannot reset peak RSS ({e}); peak_rss_mb includes set-up");
    }
}

/// Share of CPU time the hypervisor gave to other guests (`steal` in
/// `/proc/stat`) between two readings of the aggregate CPU line.
struct Steal([u64; 2]);

impl Steal {
    fn read() -> Steal {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        Steal([
            fields.get(7).copied().unwrap_or(0),
            fields.iter().take(8).sum(),
        ])
    }

    fn frac_since(&self, earlier: &Steal) -> f64 {
        let steal = self.0[0].saturating_sub(earlier.0[0]) as f64;
        let total = self.0[1].saturating_sub(earlier.0[1]) as f64;
        if total > 0.0 {
            steal / total
        } else {
            0.0
        }
    }
}

fn provenance(args: &Args, params: String, steal: f64) -> Vec<(&'static str, String)> {
    let env = |k: &str| report::json_str(&std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    vec![
        ("workload", report::json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("available_parallelism", args.workers.to_string()),
        ("git_revision", env("PERFBENCH_GIT_REVISION")),
        ("source_digest", env("PERFBENCH_SOURCE_DIGEST")),
        ("rustc", env("PERFBENCH_RUSTC")),
        ("params", params),
        ("cpu_steal_frac", format!("{steal:.4}")),
    ]
}

/// A set-up workload, ready to run its closed loops.
pub trait Workload {
    /// Worker threads the traversals run on.
    fn workers(&self) -> usize;
    /// The untraced closed loop through the plain (no-op recorder) entry
    /// points.
    fn timed(&self, secs: Duration) -> Run;
    /// The traced closed loop, and the wall time the workers were there
    /// for during it.
    fn traced(
        &self,
        secs: Duration,
        clock: &LayerClock,
        probe: Arc<StorageProbe>,
        rec: &ShardedRecorder,
    ) -> (Run, Duration);
    /// Workload parameters recorded with the result, as a JSON object.
    fn params(&self) -> String;
}

/// Run the timed loop (and with `--trace 1` the traced one) and print the
/// result. Returns whether the run was correct.
fn measure(w: &impl Workload, setup: &Setup, args: &Args) -> bool {
    let secs = Duration::from_secs_f64(args.seconds);
    reset_peak_rss();
    let before = Steal::read();
    let timed = w.timed(secs);
    let steal = Steal::read().frac_since(&before);
    let peak_rss = peak_rss_mib();
    timed.describe("timed ");

    let (metrics, attempted, failed) = if args.trace {
        let clock = LayerClock::new();
        let probe = Arc::new(StorageProbe::default());
        let rec = ShardedRecorder::new(w.workers());
        let (run, worker_wall) = w.traced(secs, &clock, Arc::clone(&probe), &rec);
        run.describe("traced");
        let m = per_layer(&Trace {
            run: &run,
            untraced: &timed,
            workers: w.workers(),
            worker_wall,
            layers: clock.totals(),
            storage: probe.totals(),
            vq: &rec.snapshot(),
            setup,
        });
        (
            m,
            timed.attempted + run.attempted,
            timed.failed + run.failed,
        )
    } else {
        (
            end_to_end(&timed, setup, peak_rss),
            timed.attempted,
            timed.failed,
        )
    };
    metrics.emit(&provenance(args, w.params(), steal), attempted, failed)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            std::process::exit(2);
        }
    };
    let workdir = args
        .workdir
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&workdir) {
        eprintln!("cannot create {}: {e}", workdir.display());
        std::process::exit(2);
    }
    let args = Args { workdir, ..args };

    let ok = match args.workload.as_str() {
        "engine-mixed" => {
            let (w, setup) = repeated(|| Serving::setup(&args));
            measure(&w, &setup, &args)
        }
        name => {
            let (w, setup) = repeated(|| Paper::setup(&args, name == "sem-flash"));
            measure(&w, &setup, &args)
        }
    };
    let _ = std::fs::remove_dir(&args.workdir);
    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
pub fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}
