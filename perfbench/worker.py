"""One workload in one fresh process; normally started by run.py.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --setup-only

Prints one JSON object as its last stdout line: the set-up time, the item
latencies with their speed factors (trace 0) or the per-layer figures
(trace 1), the attempted and failed item counts with the failure messages,
and the exact-output digest of the first pass.  Exits non-zero, printing
nothing, if set-up fails or the tracer finds drift.

Speed factors: the machine this benchmark was defined on (a shared 2-vCPU
virtual machine) changed speed by up to 1.8x within a minute, so raw times of
identical runs spread by 20-50%.  Right after each timed item the worker
times a fixed pure-Python reference loop that does not touch deltaclose; an
item's speed factor is REF_NOMINAL_S over the median reference time of the
eleven items around it, and latency x factor is the latency at the nominal
speed.  On a 60 s run of repeated tower_grid items, dividing by the
reference time cut the coefficient of variation of 25-item windows from 0.19
to 0.05.
"""

from time import perf_counter

_T0 = perf_counter()  # set-up time counts from here: before any import below

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import workloads  # noqa: E402  (imports deltaclose)

HERE = Path(__file__).resolve().parent
REF_NOMINAL_S = 0.002  # scale only: about reference_time() on that machine


def reference_time() -> float:
    """Seconds for a fixed Fraction and dict loop, with the collector off so
    that the program's heap does not change its cost."""
    gc.disable()
    try:
        t0 = perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, 300):
            acc += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
            seen[i, i % 7] = acc
        return perf_counter() - t0
    finally:
        gc.enable()


def speed_factors(refs, half=5):
    """Per item, REF_NOMINAL_S over the median reference time of the items
    within ``half`` places of it."""
    return [REF_NOMINAL_S / statistics.median(refs[max(0, i - half):i + half + 1])
            for i in range(len(refs))]


def item_digest(item, out) -> str | None:
    exact = item.exact(out)
    if exact is None:
        return None
    return hashlib.sha256(workloads.jsonio.dumps(exact).encode()).hexdigest()


def pass_digest(digests) -> str | None:
    present = [d for d in digests if d is not None]
    if not present:
        return None
    return hashlib.sha256("".join(present).encode()).hexdigest()


class Runner:
    """Runs passes of one workload and keeps the tallies."""

    def __init__(self, name, wl, ctx, seed):
        self.name, self.wl, self.seed = name, wl, seed
        self.inputs = wl.inputs(ctx, workloads.seed_stream(name, seed))
        self.attempted = 0
        self.failures = {}     # (pass, item) -> message
        self.passes = 0
        self.reference = None  # per-item digests of the first pass
        self.latencies = []    # recorded item latencies, in run order
        self.refs = []         # reference_time() right after each of them

    def run_pass(self, ctx, deadline=None, record=False, tracer=None):
        """One pass over the seed's items, traced if a tracer is given;
        returns the pass's timed total.  With ``record`` the latencies are
        kept, and the pass stops early once their total reaches
        ``deadline``."""
        items = self.wl.items(ctx, self.inputs)
        first = self.reference is None
        digests = []
        timed = 0.0
        gc.collect()
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.begin_item(i)
            t0 = perf_counter()
            try:
                out, error = item.run(), None
            except Exception as e:  # noqa: BLE001 - a raising item is a failed item
                out, error = None, e
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end_item()
            timed += dt
            if record:
                self.latencies.append(dt)
                self.refs.append(reference_time())
            self.attempted += 1
            digests.append(self.check(i, item, out, error, first))
            if deadline is not None and sum(self.latencies) >= deadline:
                break
        if first:
            self.reference = digests
        self.passes += 1
        return timed

    def check(self, i, item, out, error, first):
        """Oracle and digest check of one item, untimed; records a failure."""
        try:
            if error is not None:
                raise error
            if first or item.cheap_check:
                item.check(out)
            digest = item_digest(item, out)
            if not first and digest != self.reference[i]:
                raise workloads.CheckFailed("exact output differs from the first pass")
            return digest
        except Exception as e:  # noqa: BLE001 - any failure counts against the item
            self.failures[(self.passes, i)] = f"pass {self.passes} item {i}: " \
                f"{type(e).__name__}: {e}"
            return None

    def recorded_digest_check(self):
        """Compare the first pass with digests.json, where the seed is recorded."""
        digest = pass_digest(self.reference)
        recorded = json.loads((HERE / "digests.json").read_text()) \
            .get(self.name, {}).get(str(self.seed))
        if recorded is not None and digest != recorded:
            # the recorded digest covers the whole first pass: all its items fail
            for i in range(len(self.reference)):
                self.failures.setdefault((0, i), f"pass 0 item {i}: digest differs "
                                                 "from digests.json")
        return digest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]()
    ctx = wl.setup()
    setup_s = perf_counter() - _T0
    setup = {"setup_s": setup_s, "setup_speed": REF_NOMINAL_S / statistics.median(
        reference_time() for _ in range(5))}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    runner = Runner(args.workload, wl, ctx, args.seed)
    result = dict(setup)
    # The warm-up pass runs the oracles and warms the process up: the first
    # pass in a process ran 10-30% slower than later ones, by an amount that
    # varied between runs, so its latencies are not reported.
    if wl.warm_up:
        runner.run_pass(ctx)
    if args.trace == 0:
        runner.run_pass(wl.setup(), record=True)
        while sum(runner.latencies) < args.seconds:
            runner.run_pass(wl.setup(), args.seconds, record=True)
        result["latencies"] = runner.latencies
        result["speed"] = speed_factors(runner.refs)
    else:
        from tracer import Tracer

        untraced = runner.run_pass(wl.setup())
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.run_pass(wl.setup(), tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.check_exercised(args.workload)
        per_layer = tracer.metrics()
        per_layer["trace.untraced_s"] = untraced
        per_layer["trace.traced_s"] = traced
        per_layer["trace.overhead_s"] = traced - untraced
        result["per_layer"] = per_layer
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"{args.workload}.spans.npz")
    result["digest"] = runner.recorded_digest_check()
    result["attempted"] = runner.attempted
    result["failures"] = sorted(runner.failures.values())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = {"python": platform.python_version(), "numpy": numpy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
