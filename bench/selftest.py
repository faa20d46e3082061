"""Self-tests for the benchmark at tiny sizes (2x2 sweeps, a handful of arrows).

    python3 bench/selftest.py

Checks that the same seed gives the same input digest, that the pinned
gate catches a deliberately wrong expectation, and that the self times of
nested spans sum to their root span's duration.  Exits 1 on the first
failed check.
"""

from __future__ import annotations

import sys
from random import Random

import run
import spans
import workloads


def check(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def test_same_seed_same_digest(W):
    for name, build in workloads.BUILDERS.items():
        a, b, other = build(W, 5, tiny=True), build(W, 5, tiny=True), build(W, 6, tiny=True)
        check(a.digest == b.digest, f"{name}: seed 5 gave digests {a.digest} and {b.digest}")
        check(a.digest != other.digest, f"{name}: seeds 5 and 6 gave the same digest")


def test_tiny_passes_are_clean(W):
    for name, build in workloads.BUILDERS.items():
        gate = run.Gate()
        with run.Probes() as probes:
            times = run.run_pass(build(W, 3, tiny=True).items, gate, probes)
        check(gate.attempted > 0 and gate.failed == 0, f"{name}: {gate.problems}")
        check(all(wall > 0 and ref > 0 for wall, ref in times), f"{name}: non-positive item time")


def test_gate_catches_wrong_expectations(W):
    theorem, nx, ny, expected = workloads.BOOL_SWEEPS_TINY[0]
    wrong = dict(expected, healthy=str(int(expected["healthy"]) + 1))
    argv = ["enum-verify", "--theorem", theorem, "--sizes", str(nx), str(ny), "--jobs", "1"]
    bad_items = [("wrong count", workloads._enum_verify_item(W, argv, theorem, nx, ny, wrong))]

    mismatch = W.modalities.builtin_modality("diamond")
    bad_items.append(
        (
            "wrong verdict",
            workloads._verdict_item(
                "diamond:cl_meet", lambda: W.modalities.lifting_check(mismatch, "cl_meet", n_max=2), "healthy"
            ),
        )
    )

    X, Y = workloads.carrier(W, "x", 2), workloads.carrier(W, "y", 2)
    grid = W.healthiness.ProbeGrid.default(Y, seed=1)
    healthy_rule = lambda v: (v[0] / 2, v[1] / 4)  # linear, mass below one: gemod_total holds
    bad_items.append(("clean rule", workloads._triage_item(W, "gemod_total", healthy_rule, X, Y, grid)))

    def raises():
        raise ValueError("deliberate")

    bad_items.append(("raises", raises))
    gate = run.Gate()
    for label, item in bad_items:
        gate.run(label, item)
    check(gate.failed == len(bad_items), f"gate missed a wrong expectation: {gate.problems}")
    check("healthy: got '16'" in gate.problems[0], gate.problems[0])


def test_self_times_sum_to_root(W):
    for name in ("prob_roundtrip", "law_suites", "unhealthy_triage"):
        wl = workloads.BUILDERS[name](W, 2, tiny=True)
        rec = spans.Recorder()
        inst = spans.Instrumentation(W, rec)
        inst.install()
        try:
            with run.Probes() as probes:
                run.run_pass(wl.items, run.Gate(), probes, rec=rec)
        finally:
            inst.remove()
        own = rec.self_ns()
        root = rec.name_id(spans.ROOT)
        roots = {rec.item[i]: i for i in range(len(rec.start)) if rec.name[i] == root}
        check(len(roots) == len(wl.items), f"{name}: {len(roots)} root spans for {len(wl.items)} items")
        check(len(rec.start) > 2 * len(roots), f"{name}: no nested spans recorded")
        sums = dict.fromkeys(roots, 0)
        for i, item in enumerate(rec.item):
            check(own[i] >= 0, f"{name}: negative self time in span {i}")
            sums[item] += own[i]
        for item, i in roots.items():
            duration = rec.end[i] - rec.start[i]
            check(sums[item] == duration, f"{name} item {item}: self times {sums[item]} != root {duration}")
        if name == "prob_roundtrip":
            metrics = inst.layer_metrics(0.0)
            calls = metrics["healthiness.grid_check.calls"]["value"]
            check(calls == 2 * len(wl.items), f"grid checks {calls} for {len(wl.items)} arrows")
            check(metrics["healthiness.recheck_ratio"]["value"] == 0.5, "recheck ratio is not 0.5")
        before = len(rec.start)
        X1, Y1 = workloads.carrier(W, "x", 1), workloads.carrier(W, "y", 1)
        f = workloads._arrow(W, "subdist", workloads.Draws(Random(0)), X1, Y1)
        W.semantics.pt_modality("total", f).apply_values((1,))
        check(len(rec.start) == before, f"{name}: a wrapper survived remove()")


def main() -> int:
    W = run.load_wpbench()
    for test in (
        test_same_seed_same_digest,
        test_tiny_passes_are_clean,
        test_gate_catches_wrong_expectations,
        test_self_times_sum_to_root,
    ):
        try:
            test(W)
        except AssertionError as exc:
            print(f"FAIL {test.__name__}: {exc}")
            return 1
        print(f"ok   {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
