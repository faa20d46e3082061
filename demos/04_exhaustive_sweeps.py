"""Theorem-scale brute force: the healthiness equivalences checked by
exhaustion at desk scale.

Each Boolean law acts on every precondition state on its own, so the
healthy transformers and the image of the semantics at |X| states are
the |X|-fold products of their one-state sets.  A sweep compares the two
sets for one state, where the healthy functionals come from a search
that sets every entry a law fixes and cuts off every partial table
violating a law, and reports the counts at |X| states as powers.  Pass
--big to run the four 3x3 sweeps, whose 16.7 million transformers each
are decided in a few milliseconds.
"""

import sys

from wpbench import TheoremInstance, enum_verify

BIG = "--big" in sys.argv[1:]

for theorem in ("may", "must", "game", "dijkstra"):
    report = enum_verify(TheoremInstance(theorem, (2, 2)))
    print(report.render(include_timing=True))

for theorem in ("subdist_total", "dist_convex", "cv_sublinear"):
    report = enum_verify(TheoremInstance(theorem, (2, 2), seed=1, count=40))
    print(report.render(include_timing=True))

if BIG:
    for theorem in ("may", "must", "game", "dijkstra"):
        report = enum_verify(TheoremInstance(theorem, (3, 3)))
        print(report.render(include_timing=True))
else:
    print("(re-run with --big for the 16.7M-transformer sweeps at 3x3)")
