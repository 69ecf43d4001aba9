#!/usr/bin/env python3
"""relshift benchmark.

    python3 perfbench/run.py --workload {bundled,clone,ladder} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout that holds ``src/relshift``; the program
is imported from there and from nowhere else.  One client drives the
program in a closed loop: each item starts when the previous one has
returned.  After WARMUP_S of untimed items, whole passes over the
workload's items run until the next one would overrun ``--seconds`` of
measured time, and at least MIN_PASSES of them.  End-to-end times are
scaled to a reference host speed that `HostGauge` samples around and
during every timed sample.  Outputs are verified after the passes,
outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures
untraced passes for half the time, then one traced pass (and, on ladder,
the traced sweep), and prints the per-layer metrics.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

import argparse
import gc
import hashlib
import itertools
import json
import math
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "relshift")
WORKLOADS = ("bundled", "clone", "ladder")
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
# Passes every run makes.  The tail is reported at the percentile that has
# TAIL_BEYOND samples beyond it in a run of exactly this many passes, so it
# stays at the same rank however many more passes a faster program fits in.
MIN_PASSES = {"bundled": 2, "clone": 2, "ladder": 6}
MIN_ITEM_S = 0.2  # an item faster than this is repeated and its mean time taken
# On a shared 2-core host, the host's speed drifted by 1.7x within five
# minutes and by 25% from one second to the next.  So `HostGauge` samples it
# by timing a fixed pure-Python loop before and after every timed sample and,
# during the passes, every GAUGE_PERIOD_S from a timer signal.  Each sample is
# scaled by REFERENCE_S over the mean loop time taken around and within it: it
# reads as seconds on a host whose loop takes REFERENCE_S.  Repeated runs of
# n5_unary's record spread by 19% unscaled and by 8% scaled.
GAUGE_LOOP = 20_000
GAUGE_PERIOD_S = 0.05
REFERENCE_S = 0.001  # the loop's time on a 2-core x86-64 host, Python 3.11, at its fastest
WARMUP_S = 2.0  # items run untimed before the first pass; first passes ran up to 20% slower
SETUP_PROBES = 7
SETUP_GAUGE_WARMUP = 2  # host-speed samples a set-up probe discards: a fresh process runs its first loops slower
CLI_PROBES = 5
CLI_FILE = os.path.join("src", "relshift", "corpus", "z4.json")
PROBE_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

sys.path.insert(0, HERE)


class Unavailable(Exception):
    """The checkout does not hold the program."""


def load_relshift():
    """relshift's modules, imported from this checkout's ``src``."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        raise Unavailable(f"no relshift package under {SRC}")
    sys.path.insert(0, SRC)
    import relshift
    import relshift.cli  # noqa: F401  (the CLI binds names at import too)

    if os.path.realpath(os.path.dirname(relshift.__file__)) != os.path.realpath(PACKAGE):
        raise Unavailable(f"relshift was imported from {relshift.__file__}, not {PACKAGE}")
    return types.SimpleNamespace(**{m: sys.modules[f"relshift.{m}"] for m in (
        "algebras", "checks", "cli", "constructions", "harness", "relations", "terms")})


def make_algebra(rs, name, n, ops):
    """A relshift Algebra from the benchmark's description of one."""
    return rs.algebras.Algebra(
        name,
        rs.relations.Carrier(n),
        rs.algebras.Signature(tuple((op, arity) for op, arity, _ in ops)),
        {op: tuple(table) for op, _, table in ops},
    )


def build_inputs(workload, seed):
    rs = load_relshift()
    import workloads

    items = workloads.build(workload, seed)
    for item in items:
        item.algebra = make_algebra(rs, item.spec.name, item.spec.n, item.spec.ops)
    return rs, items


def setup_probe():
    """Import relshift and construct the algebras described on stdin, in
    this fresh process; print the seconds taken, at reference speed."""
    specs = json.load(sys.stdin)
    gauge = HostGauge()
    for _ in range(SETUP_GAUGE_WARMUP + 1):
        gauge.sample()
    t0 = time.perf_counter()
    rs = load_relshift()
    for name, n, ops in specs:
        make_algebra(rs, name, n, ops)
    seconds = time.perf_counter() - t0
    gauge.sample()
    print(repr(seconds * REFERENCE_S / statistics.fmean(gauge.samples[SETUP_GAUGE_WARMUP:])))


class HostGauge:
    """Samples of the host's speed: times of a fixed pure-Python loop, taken
    by `sample` and, inside ``with gauge:``, every GAUGE_PERIOD_S from a
    SIGALRM handler."""

    def __init__(self):
        self.samples = []
        self.stolen_s = 0.0  # time spent in the handler, to be taken out of timed samples
        self._busy = False
        self._previous = None

    def sample(self):
        self._busy = True
        t0 = time.perf_counter()
        sum(i * i for i in range(GAUGE_LOOP))
        self.samples.append(time.perf_counter() - t0)
        self._busy = False

    def _tick(self, _signum, _frame):
        if not self._busy:  # a tick during an explicit sample is dropped
            t0 = time.perf_counter()
            self.sample()
            self.stolen_s += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn):
        """Run ``fn()``; return (its result, its time at reference speed, its
        time unscaled), or (the exception it raised, None, None)."""
        first, stolen = len(self.samples), self.stolen_s
        self.sample()
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # the caller records the failure
            return exc, None, None
        seconds = time.perf_counter() - t0 - (self.stolen_s - stolen)
        self.sample()
        return result, seconds * REFERENCE_S / statistics.fmean(self.samples[first:]), seconds


def median_child_time(argv, probes, parse, env=None, stdin=None):
    """Median over ``probes`` fresh processes of ``parse(stdout, wall)``."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, env=env, input=stdin,
                              timeout=PROBE_TIMEOUT_S, check=False)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        times.append(parse(proc.stdout, wall))
    return statistics.median(times)


def setup_seconds(items):
    """Set-up time: a fresh process imports relshift and constructs the
    inputs, at reference speed.  Drawing the seeded inputs is the
    benchmark's own work and is done here, once, outside that time."""
    specs = json.dumps([[item.spec.name, item.spec.n, item.spec.ops] for item in items])
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe"]
    return median_child_time(argv, SETUP_PROBES, lambda out, _wall: float(out.strip().splitlines()[-1]),
                             stdin=specs)


def cli_startup_seconds():
    """Wall time of a fresh ``relshift validate`` process on a corpus file."""
    env = {**os.environ, "PYTHONPATH": SRC}
    argv = [sys.executable, "-m", "relshift.cli", "validate", "--file", CLI_FILE]

    def parse(out, wall):
        if json.loads(out.strip().splitlines()[-1]) != {"valid": True, "kind": "algebra"}:
            raise RuntimeError(f"relshift validate printed {out!r}")
        return wall

    return median_child_time(argv, CLI_PROBES, parse, env)


class Run:
    """The passes of one run and everything they found."""

    def __init__(self, workload, rs, items):
        import workloads

        self.wl = workloads
        self.workload = workload
        self.rs = rs
        self.items = items
        self.pass_times = []
        self.samples = {item.name: [] for item in items}  # untraced, at reference speed
        self.unscaled_pass_times = []
        self.gauge = HostGauge()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.checks = []
        self.first = {}
        self.unverified = []

    def one_pass(self):
        """Run every item once, each timed by the host gauge; return the pass
        time, the sum of the item times at reference speed."""
        outputs, times, unscaled = [], [], []
        for item in self.items:
            gc.collect()  # start every item with no collection debt from the one before
            out, seconds, raw = self.gauge.timed(lambda: self._repeat(item))
            if isinstance(out, Exception):  # an item that raises counts as failed
                outputs.append(out)
                continue
            runs, out = out
            outputs.append(out)
            times.append(seconds / runs)
            unscaled.append(raw / runs)
            self.samples[item.name].append(times[-1])
        self.unscaled_pass_times.append(sum(unscaled))
        for item, out in zip(self.items, outputs):
            self._check(item, out)
        return sum(times)

    def typical_item_times(self):
        """Every item sample replaced by the median of its item's samples.
        Percentiles taken over these follow the items' costs, not the noise
        of single samples."""
        return [statistics.median(v) for v in self.samples.values() for _ in v]

    def _repeat(self, item):
        """(runs, output): ``item`` run until MIN_ITEM_S have passed, so that
        the timer and scheduler noise of a fast item averages out."""
        t0, runs = time.perf_counter(), 0
        while True:
            out = self.wl.run_item(self.workload, self.rs, item)
            runs += 1
            if time.perf_counter() - t0 >= MIN_ITEM_S:
                return runs, out

    def traced_pass(self, span):
        """Run every item once through ``span``; return the unscaled pass time."""
        outputs = []
        t0 = time.perf_counter()
        for item in self.items:
            try:
                outputs.append(span(self.wl.run_item, self.workload, self.rs, item))
            except Exception as exc:  # an item that raises counts as failed
                outputs.append(exc)
        elapsed = time.perf_counter() - t0
        for item, out in zip(self.items, outputs):
            self._check(item, out)
        return elapsed

    def _check(self, item, out):
        self.attempted += 1
        if isinstance(out, Exception):
            self._fail(f"{item.name}: raised {type(out).__name__}: {out}")
            return
        try:
            fp = self.wl.fingerprint(self.workload, out)
            if item.name not in self.first:
                self.first[item.name] = fp
                self.checks += self.wl.item_checks(self.workload, out)
                self.unverified.append((item, out))
            elif fp != self.first[item.name]:
                self._fail(f"{item.name}: output differs from the first pass")
        except Exception as exc:  # output of an unexpected shape
            self._fail(f"{item.name}: unreadable output, {type(exc).__name__}: {exc}")

    def verify(self):
        """Check first-pass outputs against the oracle.  Runs after the passes,
        so that the oracle's own memory stays out of the measured peak."""
        for item, out in self.unverified:
            try:
                problems = self.wl.verify_item(self.workload, item, out)
            except Exception as exc:  # output of an unexpected shape
                problems = [f"{item.name}: verification raised {type(exc).__name__}: {exc}"]
            if problems:
                self._fail(*problems)
        self.unverified.clear()

    def _fail(self, *problems):
        self.failed += 1
        self.problems += problems

    def measure(self, seconds, min_passes):
        """Whole passes until the next one would overrun ``seconds``, after
        WARMUP_S of untimed items whose outputs are not kept."""
        t0 = time.perf_counter()
        for item in itertools.cycle(self.items):
            try:
                self.wl.run_item(self.workload, self.rs, item)
            except Exception:  # the timed passes record and report a failing item
                pass
            if time.perf_counter() - t0 >= WARMUP_S:
                break
        t0 = time.perf_counter()
        with self.gauge:
            while True:
                self.pass_times.append(self.one_pass())
                passes, spent = len(self.pass_times), time.perf_counter() - t0
                if passes >= min_passes and spent * (passes + 1) / passes > seconds:
                    return

    def sweep(self):
        self.attempted += 1
        try:
            outcomes, problems = self.wl.sweep(self.rs, self.items)
        except Exception as exc:  # a failing sweep counts as one failed item
            outcomes, problems = [], [f"sweep raised {type(exc).__name__}: {exc}"]
        self.checks += outcomes
        if problems:
            self._fail(*problems)


def tail(samples, items, passes):
    """(value, percentile): the highest percentile that has TAIL_BEYOND
    samples beyond it in a run of ``passes`` passes over ``items`` items,
    taken by nearest rank over all ``samples``."""
    minimum = items * passes
    percentile = 100.0 * (minimum - TAIL_BEYOND) / minimum
    ordered = sorted(samples)
    rank = math.ceil(percentile / 100.0 * len(ordered) - 1e-9)
    return ordered[rank - 1], percentile


def environment():
    def git_sha():
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                                  timeout=10, check=False,
                                  env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    digest, lines = hashlib.sha256(), 0
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            with open(os.path.join(dirpath, name), "rb") as f:
                data = f.read()
            digest.update(name.encode() + b"\0" + data)
            if name.endswith(".py"):
                lines += data.count(b"\n")
    import numpy

    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_py_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": os.getloadavg(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def trace_metrics(run, workload):
    import tracer

    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)["metrics"]
    untraced = statistics.median(run.unscaled_pass_times)
    cli_s = cli_startup_seconds()
    t = tracer.Tracer(run.rs)
    t.install()
    patched = t.patched_names()
    try:
        traced = run.traced_pass(t.span)
        if workload == "ladder":
            run.sweep()
    finally:
        t.uninstall()
    values = dict(t.metrics())
    values["cli.startup_s"] = (cli_s, "s")
    values["trace.overhead_share"] = (traced / untraced - 1.0, "share")
    for name, spec in layers.items():
        if workload in spec.get("nonzero_on", ()) and not values[name][0]:
            run._fail(f"traced count {name} is zero on {workload}")
    detail = {"traced_pass_s": traced, "untraced_pass_s": untraced, "spans": len(t.span_start),
              "patched": len(patched), "unwrapped": t.missing}
    return {name: values[name] for name in layers}, detail


def pin_environment():
    """One BLAS/OpenMP thread and the program's default budgets, set before
    numpy is imported here or in a child process."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("RELSHIFT_BUDGET", None)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    pin_environment()
    if argv == ["--setup-probe"]:
        try:
            setup_probe()
        except Unavailable as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        rs, items = build_inputs(args.workload, args.seed)
        setup_s = setup_seconds(items)
    except (Unavailable, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    run = Run(args.workload, rs, items)
    if args.trace:
        run.measure(args.seconds / 2, min_passes=1)
        metrics, detail = trace_metrics(run, args.workload)
        run.verify()
    else:
        run.measure(args.seconds, MIN_PASSES[args.workload])
        if args.workload == "ladder":
            run.sweep()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.verify()
        typical = run.typical_item_times()
        tail_s, tail_pct = tail(typical, len(items), MIN_PASSES[args.workload])
        decided = sum(1 for c in run.checks if run.wl.decided(c))
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (statistics.median(run.pass_times), "s"),
            "item_s.p50": (statistics.median(typical), "s"),
            "item_s.tail": (tail_s, "s"),
            "decided_share": (decided / len(run.checks), "share"),
            "verified_share": ((run.attempted - run.failed) / run.attempted, "share"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        detail = {"item_s.tail": {"percentile": tail_pct, "samples": len(typical)},
                  "unscaled_pass_s": run.unscaled_pass_times,
                  "gauge": {"median_s": statistics.median(run.gauge.samples), "samples": len(run.gauge.samples)},
                  "failed_share": run.failed / run.attempted,
                  "checks": {"attempted": len(run.checks), "decided": decided}}
    detail.update(workload=args.workload, seed=args.seed, pass_s=run.pass_times,
                  items=len(items), samples=run.samples, problems=run.problems[:20], environment=environment())
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
