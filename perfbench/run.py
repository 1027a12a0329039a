#!/usr/bin/env python3
"""deltaclose benchmark: one command, four closed-loop workloads.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the repository root; the package is imported from ``src/``.  One
caller runs the workload's items back to back, each only after the previous
one returned.  Each workload runs in its own fresh worker process
(worker.py); set-up time is the median over that process and three
set-up-only processes.  ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer metrics of a traced pass, next to an identical
untraced pass that gives the tracing overhead.  See README.md.  The last stdout line is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("roundtrip", "diamond", "tower_grid", "prop7_pipeline")
SETUP_PROBES = 3     # set-up-only processes per run, besides the worker itself
TIME_LIMIT = 170.0   # seconds for all processes of one workload


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # single caller, single BLAS thread: at most nproc
    return env


def worker(args, deadline) -> dict:
    """Run worker.py with args; its last stdout line is a JSON object."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker {' '.join(args)} timed out") from e
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace) -> tuple[dict, dict]:
    """(result of the worker, metric values by name)."""
    deadline = time.monotonic() + TIME_LIMIT
    if trace:
        res = worker(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", "1"], deadline)
        return res, res["per_layer"]

    def setup_probes(n):
        return [worker(["--workload", name, "--setup-only"], deadline) for _ in range(n)]

    # probes before and after the worker sample the machine at different
    # times; the median absorbs the first one compiling the bytecode cache
    setups = setup_probes(SETUP_PROBES - 1)
    res = worker(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", "0"], deadline)
    setups += setup_probes(1) + [res]
    raw = time_metrics(res["latencies"], [s["setup_s"] for s in setups])
    print(f"== {name}: raw " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
          + f"; median speed factor {statistics.median(res['speed']):.3f}")
    return res, {
        **time_metrics([t * f for t, f in zip(res["latencies"], res["speed"])],
                       [s["setup_s"] * s["setup_speed"] for s in setups]),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def time_metrics(latencies, setups) -> dict:
    return {
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_ms": statistics.median(latencies) * 1e3,
        "item_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "setup_s": statistics.median(setups),
    }


def report(name, res, values, spec):
    """Human-readable table of one workload's metrics; returns them with units."""
    failed = len(res["failures"])
    samples = len(res.get("latencies", ()))
    print(f"== {name}: {res['attempted']} items attempted, {failed} failed"
          + (f", latency percentiles over {samples} samples" if samples else ""))
    metrics = {}
    for m in spec:
        if m["name"] not in values:
            raise BenchError(f"workload {name} did not produce metric {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<36} {values[m['name']]:>14.6g} {m['unit']}")
    if samples:
        print(f"  {'failed_ratio':<36} {failed / res['attempted']:>14.6g} ratio")
    for line in res["failures"][:20]:
        print(f"  FAILED {line}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if not (ROOT / "src" / "deltaclose" / "__init__.py").is_file():
            raise BenchError(f"no deltaclose package under {ROOT / 'src'}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        spec = bench["per_layer" if args.trace else "end_to_end"]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        attempted = failed = 0
        metrics = {}
        for name in names:
            res, values = run_workload(name, args.seed, args.seconds, args.trace)
            shown = report(name, res, values, spec)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in shown.items()})
            attempted += res["attempted"]
            failed += len(res["failures"])
        env = res["env"]
        print(f"python {env['python']}, numpy {env['numpy']}, nproc {os.cpu_count()}, "
              f"seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
