#!/usr/bin/env python3
"""Benchmark for offlang: seeded inputs, four closed-loop workloads, checks.

    python3 perfbench/run.py --workload {train,ingest,predict,taskb} \
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the repository root. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics (from a traced
pass, after an untraced pass of the same length) with ``--trace 1``. The
line before it holds the run environment, the workload-specific numbers and
``failed_fraction``. NOTES.md explains the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
# Load comes from one process with one BLAS thread: offlang's matrices are
# small, so a second thread doubles the CPU time for little or no wall-time
# gain and makes the run feel every slow core of a shared host. The
# variables must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SETUP_REPEATS = 3
WORKLOAD_NAMES = ("train", "ingest", "predict", "taskb")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def environment() -> dict:
    import numpy as np

    try:
        # the ceiling keeps git from reporting an enclosing repository
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=20, check=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
                             ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    task_dir = Path("/proc/self/task")
    return {
        "git_sha": sha,
        "cpu_count": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "process_threads": len(list(task_dir.iterdir())) if task_dir.is_dir() else None,
        "machine": platform.machine(),
    }


def run_setup(workload: str, seed: int, directory: Path, repeats: int) -> int:
    """Set-up process: generate the inputs ``repeats`` times, print the times
    and the manifest of each."""
    import gen
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](directory / "inputs", directory / "out")
    times, manifests = [], []
    for _ in range(repeats):
        if wl.inputs.exists():
            shutil.rmtree(wl.inputs)
        start = time.perf_counter()
        manifest = wl.setup(seed)
        times.append(time.perf_counter() - start)
        manifest["files"] = {p.name: gen.sha256(p) for p in sorted(wl.inputs.iterdir())}
        manifests.append(manifest)
    print(json.dumps({"setup_s": times, "manifests": manifests}))
    return 0


def set_up(workload: str, seed: int, directory: Path, repeats: int):
    """Set up ``repeats`` times in a child process.

    The child keeps set-up memory out of the measuring process's peak RSS.
    Returns the median set-up time, the manifest, and whether every repeat
    wrote byte-identical inputs.
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup", workload, "--seed", str(seed),
         "--dir", str(directory), "--repeats", str(repeats)],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    manifests = result["manifests"]
    deterministic = all(m == manifests[0] for m in manifests)
    return statistics.median(result["setup_s"]), manifests[0], deterministic


def measure(wl, seconds: float, min_rounds: int, rounds: int | None = None):
    """Closed loop: rounds back to back until ``seconds`` have passed."""
    done = []
    start = time.perf_counter()
    while (len(done) < min_rounds or time.perf_counter() - start < seconds) \
            and (rounds is None or len(done) < rounds):
        done.append(wl.round())
    return done


def traced_pass(wl, seconds: float, spans_path: Path):
    """Untraced rounds for half of ``seconds``, then as many traced rounds.

    Returns (rounds, per-layer metrics, whether self times add up to the
    traced wall time, detail).
    """
    import probes
    from tracer import Tracer

    untraced = measure(wl, seconds / 2, 1)
    tracer = Tracer()
    probes.install(tracer, wl.vector_lines())
    wl.tracer = tracer
    try:
        traced = measure(wl, 0, len(untraced), rounds=len(untraced))
    finally:
        tracer.uninstall()
        wl.tracer = None
    fastest = lambda rounds: min(sum(op.wall for op in ops) for ops in rounds)
    values = probes.per_layer_metrics(tracer, len(traced), wl.tweets_per_round(),
                                      fastest(traced) - fastest(untraced))
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in probes.per_layer_names()}
    traced_wall, self_sum = tracer.root_wall(), sum(tracer.self_times())
    adds_up = abs(self_sum - traced_wall) <= 1e-9 * (1.0 + traced_wall)
    tracer.write(spans_path)
    detail = {"traced_wall_s": traced_wall, "self_time_sum_s": self_sum,
              "spans": len(tracer.spans)}
    return untraced + traced, metrics, adds_up, detail


def measured_pass(wl, seconds: float, setup_s: float):
    """Rounds for ``seconds`` (at least ``wl.min_rounds``), tracing off."""
    from workloads import END_TO_END

    rounds = measure(wl, seconds, wl.min_rounds)
    values = {
        "tweets_per_s": wl.throughput(rounds),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    detail = {"end_to_end": {k: {"value": v, "unit": u}
                             for k, (v, u) in wl.details(rounds).items()}}
    return rounds, metrics, detail


def run_workload(args) -> int:
    from workloads import WORKLOADS

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results_dir = ROOT / ".perfbench_out"
    results_dir.mkdir(exist_ok=True)
    # offlang's log lines go to a file, not to a pipe whose reader could
    # stall the timed calls; the CLI's own basicConfig then does nothing.
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s",
                        filename=results_dir / f"{args.workload}-seed{args.seed}.log",
                        filemode="w", encoding="utf-8")
    try:
        setup_s, manifest, deterministic = set_up(
            args.workload, args.seed, work, 1 if args.trace else SETUP_REPEATS)
        wl = WORKLOADS[args.workload](work / "inputs", work / "out")
        wl.out.mkdir(parents=True, exist_ok=True)
        wl.prepare(manifest)
        detail: dict = {"workload": args.workload, "seed": args.seed,
                        "seconds": args.seconds, "trace": args.trace,
                        "inputs": {k: v for k, v in manifest.items() if k != "files"},
                        "setup_deterministic": deterministic}
        checks_ok = deterministic
        if args.trace:
            rounds, metrics, adds_up, extra = traced_pass(
                wl, args.seconds, results_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")
            checks_ok = checks_ok and adds_up
        else:
            rounds, metrics, extra = measured_pass(wl, args.seconds, setup_s)
        detail.update(extra)
        ops = [op for r in rounds for op in r]
        failed = [op for op in ops if not op.ok]
        detail.update(rounds=len(rounds), round_walls_s=[sum(o.wall for o in r) for r in rounds],
                      op_timings=[op.timings for op in ops],
                      failed_fraction=len(failed) / len(ops),
                      failures=sorted({f"{op.name}: {op.note}" for op in failed}),
                      env=environment())
        result = {"correct": checks_ok and not failed, "attempted": len(ops),
                  "failed": len(failed), "metrics": metrics}
        (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
        print(json.dumps({"detail": detail}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in turn, each in its own process, with a summary table."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            return _fail(f"workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        results[name] = result
        rows = dict(result["metrics"])
        rows.update(detail.get("end_to_end", {}))
        rows["failed_fraction"] = {"value": detail["failed_fraction"], "unit": "ratio"}
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, metric in rows.items():
            print(f"   {key:<48} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    parser.add_argument("--dir", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--repeats", type=int, default=SETUP_REPEATS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "offlang" / "__init__.py").is_file():
        return _fail(f"no offlang sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    if args.setup:
        return run_setup(args.setup, args.seed, args.dir, args.repeats)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
