"""wpbench benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else.  Set-up (imports, carriers, grids,
seeded inputs, warm-up) is repeated SETUP_REPEATS times and its median is
``setup_s``.  The untraced phase then runs whole passes over the item list
until the next pass would overrun ``--seconds`` (at least MIN_PASSES
passes); every item of every pass is checked against its pinned
expectation.

Item times are reported in ``ref_ms``: an item's wall time divided by the
mean duration of a fixed host probe run around it (and, from a timer,
inside it), so one ref_ms is one probe duration (about 1.3 ms on a 2-core
sandbox).  The host's speed drifts by 20-50% within seconds; the probe
drifts with it, so the ratio measures the program and not the host.
``setup_s`` is measured the same way and reported in reference seconds
(1000 probe durations).  The wall-clock figures stay in the record line.

With ``--trace 1`` the untraced phase gets half the time and is followed by
one traced pass over the same items, which yields the per-layer metrics;
its spans are written to ``.bench_out/spans_<workload>.tsv``.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics untraced, the per-layer
metrics traced).  The line before it is a JSON record with the input
digest, sample counts, ``fail_ratio``, the wall-clock figures and the
environment.  The exit code is 1 when any item missed its pinned output,
2 when the package cannot be loaded.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MODULES = ("core", "monads", "modalities", "semantics", "verdicts", "healthiness", "synthesis", "sweep", "cli")
SETUP_REPEATS = 5
MIN_PASSES = 3

PROBE_ROUNDS = 120
PROBE_PERIOD_S = 0.2
E2E_UNITS = {
    "items_per_s": "items/ref_s",
    "item_p50_ms": "ref_ms",
    "item_p90_ms": "ref_ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class LoadError(Exception):
    """The package under test is missing or was imported from elsewhere."""


def load_wpbench() -> SimpleNamespace:
    """A fresh import of the package from the checkout's ``src``."""
    if not (SRC / "wpbench" / "__init__.py").is_file():
        raise LoadError(f"no wpbench package under {SRC}")
    for name in [n for n in sys.modules if n == "wpbench" or n.startswith("wpbench.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("wpbench")
    if Path(pkg.__file__).resolve().parent != (SRC / "wpbench").resolve():
        raise LoadError(f"wpbench was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"wpbench.{m}") for m in MODULES})


class Gate:
    """Counts gated items and keeps the first few mismatches."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def run(self, label, item) -> tuple:
        """Run one item; return its start and end in perf_counter ns."""
        t0 = time.perf_counter_ns()
        try:
            problem = item()
        except Exception as exc:  # an item that raises is a failed item, not a crash
            problem = f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{label}: {problem}")
        return t0, t1


def set_up(name: str, seed: int, gate: Gate, probes: "Probes"):
    """Repeat the whole set-up, probing the host around and inside each
    repeat; return (median wall s, median ref s, namespace, workload)."""
    walls, refs, digests = [], [], set()
    before = probes.between()
    for _ in range(SETUP_REPEATS):
        probes.samples.clear()
        t0 = time.perf_counter_ns()
        W = load_wpbench()
        wl = workloads.BUILDERS[name](W, seed)
        for label, item in wl.warmup:
            gate.run(f"warm-up {label}", item)
        t1 = time.perf_counter_ns()
        inside = probes.take(t0, t1)
        after = probes.between()
        wall, ref = probed_time(t0, t1, inside, before, after)
        walls.append(wall / 1e9)
        refs.append(ref / 1e3)
        before = after
        digests.add(wl.digest)
    if len(digests) != 1:
        raise RuntimeError(f"set-up is not deterministic: digests {sorted(digests)}")
    return statistics.median(walls), statistics.median(refs), W, wl


def host_probe_ns() -> int:
    """Wall time of a fixed stdlib-only loop of Fraction arithmetic and dict
    stores, the kind of work the package does; about 1.3 ms on a 2-core
    sandbox.  Collection is held off so garbage left by an item is not
    charged to the probe."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        acc, memo = Fraction(0), {}
        for k in range(PROBE_ROUNDS):
            v = Fraction(k % 7, 8) * Fraction(k % 5, 6) + Fraction(1, 3)
            memo[v.numerator, v.denominator] = v
            acc = min(acc, v)
        return time.perf_counter_ns() - t0
    finally:
        if collecting:
            gc.enable()


class Probes:
    """Host probes between items, and inside items from an interval timer.

    Inside a ``with`` block a SIGALRM every PROBE_PERIOD_S runs a probe in
    the main thread between two bytecodes of whatever item is running, and
    records (start ns, duration ns).  Items of several seconds (the sweeps)
    are then measured against the host's speed while they ran, not only at
    their ends.  The probes between items hold the signal off, so a probe
    never runs inside another.
    """

    def __init__(self):
        self.samples: list = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        start = time.perf_counter_ns()
        self.samples.append((start, host_probe_ns()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def between(self) -> int:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return host_probe_ns()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def take(self, t0: int, t1: int) -> list:
        """Durations of the probes that ran inside [t0, t1); forgets all."""
        inside = [d for start, d in self.samples if t0 <= start < t1]
        self.samples.clear()
        return inside


def probed_time(t0: int, t1: int, inside: list, before: int, after: int) -> tuple:
    """(wall ns of [t0, t1) less the probes inside it, the same in probe
    durations: over the mean of the probes before, inside and after)."""
    work = t1 - t0 - sum(inside)
    return work, work * (2 + len(inside)) / (before + after + sum(inside))


def run_pass(items, gate: Gate, probes: Probes, rec: spans.Recorder | None = None) -> list:
    """One pass over the items, in order, probing the host around each item.

    Returns (wall ns, ref ms) per item.  Wall ns is the item's time less the
    probes that ran inside it; ref ms is that over the mean duration of the
    probes before, inside and after it, so it counts probe durations and the
    host's speed drift cancels out of it.
    """
    root = rec.name_id(spans.ROOT) if rec is not None else None
    out = []
    before = probes.between()
    for k, (label, item) in enumerate(items):
        probes.samples.clear()
        if rec is None:
            t0, t1 = gate.run(label, item)
        else:
            rec.item_id = k
            idx = rec.open(root)
            try:
                t0, t1 = gate.run(label, item)
            finally:
                rec.close(idx)
        inside = probes.take(t0, t1)
        after = probes.between()
        out.append(probed_time(t0, t1, inside, before, after))
        before = after
    return out


def timed_passes(items, gate: Gate, probes: Probes, budget: float, min_passes: int) -> tuple:
    """Whole passes until the next one would end past the budget; returns
    (per-item median wall ns, per-item median ref ms, number of passes).

    An item's median over passes that lie seconds apart also discards a
    spell the probes did not track that hit one of its repeats.
    """
    runs = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        runs.append(run_pass(items, gate, probes))
        now = time.perf_counter()
        if len(runs) >= min_passes and (now - start) + (now - t0) > budget:
            per_item = list(zip(*runs))
            wall = [statistics.median(dt for dt, _ in reps) for reps in per_item]
            ref = [statistics.median(r for _, r in reps) for reps in per_item]
            return wall, ref, len(runs)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "wpbench").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(load_before) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "load_before": load_before,
        "load_after": list(os.getloadavg()),
        "commit": _git_commit(),
        "source_digest": _source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_before = list(os.getloadavg())

    gate = Gate()
    try:
        with Probes() as probes:
            wall_setup_s, setup_s, W, wl = set_up(args.workload, args.seed, gate, probes)
    except LoadError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2

    budget = args.seconds / 2 if args.trace else args.seconds
    with Probes() as probes:
        wall, ref, n_passes = timed_passes(wl.items, gate, probes, budget, 1 if args.trace else MIN_PASSES)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "input_digest": wl.digest,
        "items_per_pass": len(wl.items),
        "untraced_passes": n_passes,
        # wall-clock counterparts of the ref metrics, and the host's speed
        "wall_items_per_s": len(wall) / (sum(wall) / 1e9),
        "wall_item_p50_ms": statistics.median(wall) / 1e6,
        "host_probe_ms": sum(wall) / 1e6 / sum(ref),
        "wall_setup_s": wall_setup_s,
    }

    if args.trace:
        rec = spans.Recorder()
        inst = spans.Instrumentation(W, rec)
        inst.install()
        try:
            with Probes() as probes:
                traced = run_pass(wl.items, gate, probes, rec=rec)
        finally:
            inst.remove()
        overhead = sum(ref) / sum(r for _, r in traced) - 1
        metrics = inst.layer_metrics(overhead)
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans_{args.workload}.tsv"
        rec.write(str(span_file))
        record.update(spans=len(rec.start), span_file=str(span_file.relative_to(ROOT)))
    else:
        p90 = statistics.quantiles(ref, n=10, method="inclusive")[8]
        values = {
            "items_per_s": len(ref) / (sum(ref) / 1e3),
            "item_p50_ms": statistics.median(ref),
            "item_p90_ms": p90,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        record["p90_samples_beyond"] = sum(1 for v in ref if v > p90)

    record["fail_ratio"] = gate.failed / gate.attempted
    record["problems"] = gate.problems
    record["env"] = environment(load_before)
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio: {record['fail_ratio']:.6g} ratio")
    print(json.dumps({"record": record}, sort_keys=True))
    print(
        json.dumps(
            {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed, "metrics": metrics}
        )
    )
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
