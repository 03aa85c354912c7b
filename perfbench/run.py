#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload im-rmat --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds the benchmark package (and the
library it measures, from source) with cargo into $CARGO_TARGET_DIR, or
.bench_build when unset, then runs one workload. The last line of standard
output is the result: one JSON object with the keys correct, attempted,
failed and metrics. Build output goes to standard error.

Exits nonzero, printing no result, when the library sources are missing,
the build fails, a run fails its correctness checks, or a run overruns.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["im-rmat", "sem-flash", "engine-mixed"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def capture(cmd):
    """Output of a short helper command, or None when it is unavailable."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the library and benchmark sources, so a result names the
    code it measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = []
    for base in ("crates", "perfbench"):
        for p in (ROOT / base).rglob("*"):
            if p.is_file() and (p.suffix in (".rs", ".py") or p.name == "Cargo.toml"):
                files.append(p)
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        print("run.py: library sources (crates/) not found; run from a full checkout",
              file=sys.stderr)
        return 2

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 3
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 3

    git = None
    if (ROOT / ".git").exists():
        git = capture(["git", "rev-parse", "HEAD"])
        if git and capture(["git", "status", "--porcelain", "--untracked-files=no"]):
            git += "+dirty"
    env["PERFBENCH_GIT_REVISION"] = git or "none"
    env["PERFBENCH_RUSTC"] = capture(["rustc", "--version"]) or "unknown"
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()

    cmd = [str(target / "release" / "asyncgt-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(target / "perfbench-work")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
