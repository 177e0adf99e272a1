"""Benchmark of galmon: one workload per fresh process, cold caches per op.

    python3 bench/run.py --workload correspondence --seed 1 --seconds 20 --trace 0

--trace 0 times whole rounds of the workload's operations, interleaved
round-robin, and reports the end-to-end metrics.  --trace 1 runs every
operation once untraced and once traced per round, and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object; see README.md.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import layers
import reference
import workloads

HASH_SEED = "0"
MIN_ROUNDS = 3
SETUP_STARTS = 7
REFERENCE_STEPS = 100000
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["correspondence", "ends", "lattices"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def pin_hash_seed():
    """Re-execute under the pinned hash seed: set iteration order inside
    enumerate_submonoids, and so its work, depends on it."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + sys.argv[1:], env)


def import_galmon():
    if not os.path.isdir(os.path.join(SRC, "galmon")):
        sys.exit("bench: no galmon sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import galmon
    import galmon.cli
    if not os.path.abspath(galmon.__file__).startswith(SRC + os.sep):
        sys.exit("bench: galmon was imported from %s, not %s" % (galmon.__file__, SRC))
    return galmon


def setup_seconds():
    """Median wall time of a fresh interpreter importing galmon.cli."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=HASH_SEED)
    cmd = [sys.executable, "-c", "import galmon.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes bytecode once
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Runs operations with cold caches and checks what they return."""

    def __init__(self, galmon):
        from galmon import actions, ends, finset, galois
        self.galmon = galmon
        # the cached callables themselves, kept before any tracing rebinds them;
        # a function that no longer has a cache has nothing to clear
        self.caches = [getattr(fn, "cache_clear", None) for fn in (
            finset.product, finset.exponential, actions.default_site,
            galois.invariants, galois.stabilizer, ends.end_of_forgetful)]
        self.failed = 0
        self.correct = True

    def clear(self):
        for cache_clear in self.caches:
            if cache_clear is not None:
                cache_clear()
        gc.collect()

    def call(self, op):
        """Run op and return (seconds, output); output is None on failure."""
        if op.argv is None:
            t0 = time.perf_counter()
            with open(op.monoid_path) as fd:
                m = self.galmon.cli.parse_monoid(json.load(fd))
            site = self.galmon.default_site(m)
            return time.perf_counter() - t0, site
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.galmon.cli.run(op.argv)
        dt = time.perf_counter() - t0
        return dt, (buf.getvalue() if code == 0 else None)

    def run(self, op, cold=True):
        """Time one operation and check its output; returns the seconds."""
        if cold:
            self.clear()
        try:
            dt, out = self.call(op)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            print("bench: %s raised %r" % (op.name, exc), file=sys.stderr)
            self.failed += 1
            self.correct = False
            return 0.0
        if out is None:
            print("bench: %s exited nonzero or was refused" % op.name, file=sys.stderr)
            self.failed += 1
            self.correct = False
            return dt
        try:
            op.check(json.loads(out) if isinstance(out, str) else out)
        except (reference.Mismatch, KeyError, TypeError, ValueError) as exc:
            print("bench: %s fails its check: %s" % (op.name, exc), file=sys.stderr)
            self.failed += 1
            self.correct = False
        return dt


def rss_mb():
    with open("/proc/self/statm") as fd:
        pages = int(fd.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def reference_loop():
    """Seconds a fixed pure-Python loop takes: the host's speed right now."""
    d = {}
    t0 = time.perf_counter()
    for i in range(REFERENCE_STEPS):
        d[i % 1000] = d.get(i % 1000, 0) + i
    return time.perf_counter() - t0


def timed(runner, ops, seconds):
    """Whole interleaved rounds until the next would pass `seconds`.

    Each operation's time is divided by the mean of two reference loops,
    run just before and just after it: the virtual CPU's speed drifts by
    up to a third from one minute to the next, and the loop tracks it."""
    samples = {op.name: [] for op in ops}
    start = time.perf_counter()
    rounds = 0
    while True:
        for op in ops:
            before = reference_loop()
            dt = runner.run(op)
            samples[op.name].append(2 * dt / (before + reference_loop()))
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            return rounds, sum(statistics.median(v) for v in samples.values())


def untraced(runner, ops, seconds):
    setup = setup_seconds()
    rounds, sweep = timed(runner, ops, seconds)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runner.clear()
    for op in ops:
        runner.run(op, cold=False)
    gc.collect()
    metrics = {"sweep_norm": (sweep, "loops"), "peak_rss_mb": (peak, "MB"),
               "longlived_rss_mb": (rss_mb(), "MB"), "setup_s": (setup, "s")}
    return (rounds + 1) * len(ops), metrics


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fd:
        return {m["name"]: m["unit"] for m in json.load(fd)["per_layer"]}


def traced(runner, ops, seconds):
    """Whole rounds in which every operation runs once untraced and once
    traced, alternating which goes first.  Each per-layer metric is the
    median over rounds of one traced pass; the overhead is the traced
    sweep minus the untraced one, both sums of per-operation medians."""
    units = per_layer_units()
    plain = {op.name: [] for op in ops}
    spans = {op.name: [] for op in ops}
    passes = []
    start = time.perf_counter()
    while True:
        tracer = layers.Tracer()
        for i, op in enumerate(ops):
            for on in ((False, True) if (len(passes) + i) % 2 == 0 else (True, False)):
                if not on:
                    plain[op.name].append(runner.run(op))
                    continue
                tracer.install()
                try:
                    spans[op.name].append(runner.run(op))
                finally:
                    tracer.uninstall()
        passes.append(tracer.metrics(units))
        rounds = len(passes)
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            break
    values = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    untraced_sweep = sum(statistics.median(v) for v in plain.values())
    traced_sweep = sum(statistics.median(v) for v in spans.values())
    values.update({"trace.untraced_sweep_s": untraced_sweep,
                   "trace.traced_sweep_s": traced_sweep,
                   "trace.overhead_s": traced_sweep - untraced_sweep})
    return 2 * rounds * len(ops), {k: (v, units[k]) for k, v in values.items()}


def main(argv=None):
    args = parse_args(argv)
    pin_hash_seed()
    galmon = import_galmon()
    workdir = os.path.join(ROOT, "bench", "_work", "%s-%d-%d"
                           % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        ops = workloads.build(args.workload, workdir, args.seed)
        runner = Runner(galmon)
        if args.trace:
            attempted, metrics = traced(runner, ops, args.seconds)
        else:
            attempted, metrics = untraced(runner, ops, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": runner.correct, "attempted": attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
