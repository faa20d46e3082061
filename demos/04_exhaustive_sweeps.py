"""Theorem-scale brute force: the healthiness equivalences checked by
exhaustion at desk scale.

At |X| = |Y| = 2, the 256 transformers are partitioned and both sets are
compared outright; at 3x3 the healthy ones among the 16.7 million are found
by a search that sets every entry a law fixes and cuts off every partial
table violating a law, and are matched against the image of the
semantics.  Pass --big to run the four 3x3 sweeps (under a second, most
of it building the 8000 game computations).
"""

import sys

from wpbench import TheoremInstance, enum_verify

BIG = "--big" in sys.argv[1:]

for theorem in ("may", "must", "game", "dijkstra"):
    report = enum_verify(TheoremInstance(theorem, (2, 2)))
    print(report.render(include_timing=True))

for theorem in ("subdist_total", "dist_convex", "cv_sublinear"):
    report = enum_verify(TheoremInstance(theorem, (2, 2), "sampled", seed=1, count=40))
    print(report.render(include_timing=True))

if BIG:
    for theorem in ("may", "must", "game", "dijkstra"):
        report = enum_verify(TheoremInstance(theorem, (3, 3)))
        print(report.render(include_timing=True))
else:
    print("(re-run with --big for the 16.7M-transformer sweeps at 3x3)")
