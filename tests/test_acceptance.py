"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line with its measured figures.  Budgets are wall-clock upper
bounds; every numeric expectation is pinned here, nothing is deferred."""

import time
from fractions import Fraction
from random import Random

from wpbench.core import FinSet
from wpbench.healthiness import ProbeGrid, check_regular_sublinear, run_condition
from wpbench.modalities import builtin_modality, lifting_check
from wpbench.monads import (
    ContinuationTarget,
    MonadKind,
    MonadMapSpec,
    _lattice_membership,
    check_monad_laws,
    check_monad_map_laws,
    enumerate_arrows,
    enumerate_tvalues,
    random_arrow,
    sigma_inverse,
    sigma_prime_inverse,
    sigma_prime_spec,
    sigma_spec,
)
from wpbench.semantics import (
    MissingProbeError,
    RationalTransformer,
    check_functoriality,
    pt_modality,
)
from wpbench.sweep import TheoremInstance, enum_verify
from wpbench.synthesis import INSTANCES, roundtrip_verify, synth_polytope
from wpbench.verdicts import witness_is_sound

F = Fraction

# (criterion, subject, witness) triples accumulated by the criteria below;
# criterion 9 replays every one of them.
RECORDED_WITNESSES = []


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _carrier(prefix, n):
    return FinSet(prefix.upper(), tuple(f"{prefix}{i}" for i in range(n)))


def test_criterion_1_may_exhaustive():
    t0 = time.perf_counter()
    small = enum_verify(TheoremInstance("may", (2, 2)))
    small_dt = time.perf_counter() - t0
    ok = (
        small.equal
        and small.counts["transformers"] == 256
        and small.counts["healthy"] == 16
        and small.counts["image"] == 16
        and small_dt < 1.0
    )
    _report(
        "criterion 1a (may 2x2)",
        ok,
        f"256 transformers = 16 join-preserving + 240 others, {small_dt:.3f}s < 1s",
    )
    t0 = time.perf_counter()
    big = enum_verify(TheoremInstance("may", (3, 3)))
    big_dt = time.perf_counter() - t0
    ok = (
        big.equal
        and big.counts["transformers"] == 16_777_216
        and big.counts["healthy"] == 512
        and big.counts["image"] == 512
        and big_dt < 600.0
    )
    _report(
        "criterion 1b (may 3x3)",
        ok,
        f"16,777,216 transformers decided, double inclusion holds, {big_dt:.1f}s < 600s",
    )


def test_criterion_2_must_exhaustive():
    t0 = time.perf_counter()
    small = enum_verify(TheoremInstance("must", (2, 2)))
    small_dt = time.perf_counter() - t0
    ok = small.equal and small.counts["healthy"] == 16 and small_dt < 1.0
    _report("criterion 2a (must 2x2)", ok, f"16 meet-preserving = image, {small_dt:.3f}s < 1s")
    t0 = time.perf_counter()
    big = enum_verify(TheoremInstance("must", (3, 3)))
    big_dt = time.perf_counter() - t0
    ok = big.equal and big.counts["healthy"] == 512 and big_dt < 600.0
    _report("criterion 2b (must 3x3)", ok, f"dual sweep holds, {big_dt:.1f}s < 600s")


def test_criterion_3_alternating_boolean():
    for theorem, healthy in (("game", 36), ("dijkstra", 16)):
        t0 = time.perf_counter()
        report = enum_verify(TheoremInstance(theorem, (2, 2)))
        dt = time.perf_counter() - t0
        ok = report.equal and report.counts["healthy"] == healthy and dt < 10.0
        _report(
            f"criterion 3 ({theorem} 2x2)",
            ok,
            f"{report.counts['healthy']} healthy = image of {report.counts['computations']} computations, {dt:.2f}s < 10s",
        )
    # 3x3: 20^3 monotone tables (20 is the Dedekind number of 3, OEIS
    # A000372) and (2^3)^3 strict-meet tables, out of 16,777,216 each
    for theorem, healthy in (("game", 8000), ("dijkstra", 512)):
        t0 = time.perf_counter()
        report = enum_verify(TheoremInstance(theorem, (3, 3)))
        dt = time.perf_counter() - t0
        ok = (
            "equivalence: holds" in report.render()
            and report.counts["transformers"] == 16_777_216
            and report.counts["healthy"] == healthy
            and report.counts["image"] == healthy
            and dt < 60.0
        )
        _report(
            f"criterion 3 ({theorem} 3x3)",
            ok,
            f"{healthy} healthy = image of {report.counts['computations']} computations, {dt:.2f}s < 60s",
        )


def test_criterion_4_monad_and_map_laws():
    t0 = time.perf_counter()
    carriers = [_carrier("a", 1), _carrier("b", 2)]
    details = []
    ok = True
    for kind in MonadKind:
        verdict = check_monad_laws(kind, carriers, sample_count=100, seed=1)
        enumerable = kind in (
            MonadKind.POWERSET,
            MonadKind.LIFT_POWERSET,
            MonadKind.UP_POWERSET,
        )
        ok = ok and verdict.is_healthy and (enumerable or verdict.checked >= 100)
        details.append(f"{kind.value}:{verdict.checked}")
    for spec in (sigma_spec(), sigma_prime_spec()):
        verdict = check_monad_map_laws(spec, carriers, seed=1)
        ok = ok and verdict.is_healthy
        inverse = sigma_inverse if spec.name == "sigma" else sigma_prime_inverse
        for n in (1, 2, 3):
            X = _carrier("x", n)
            for S in enumerate_tvalues(MonadKind.POWERSET, X):
                ok = ok and inverse(X, spec.at(X, S)) == S
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    _report(
        "criterion 4 (monad/map laws)",
        ok,
        f"six monads pass ({', '.join(details)}); sigma/sigma' laws + bijectivity at |X|<=3; {dt:.1f}s < 30s",
    )


def test_criterion_5_lifting_conditions():
    t0 = time.perf_counter()
    ok = True
    for name, cls in (
        ("diamond", "cl_join"),
        ("box", "cl_meet"),
        ("total", "gemod"),
        ("partial", "gemod_dual"),
        ("convex", "emod"),
    ):
        verdict = lifting_check(builtin_modality(name), cls, n_max=3)
        ok = ok and verdict.is_healthy
    mismatch = lifting_check(builtin_modality("diamond"), "cl_meet", n_max=3)
    again = lifting_check(builtin_modality("diamond"), "cl_meet", n_max=3)
    ok = ok and mismatch.is_unhealthy and mismatch.witness == again.witness
    RECORDED_WITNESSES.append(
        ("criterion 5", _mismatch_subject(mismatch.witness), mismatch.witness)
    )
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    _report(
        "criterion 5 (lifting)",
        ok,
        f"five declared pairs pass at n<=3, (join, CL-meet) fails reproducibly, {dt:.1f}s < 30s",
    )


def _mismatch_subject(witness):
    mod = builtin_modality("diamond")
    n, t = witness.args["n"], witness.args["t"]
    X = FinSet(f"n{n}", tuple(f"e{i}" for i in range(n)))
    idx = {x: i for i, x in enumerate(X.elements)}
    return lambda tup: mod.evaluate(t, lambda x: tup[idx[x]])


def test_criterion_6_probabilistic_roundtrips():
    t0 = time.perf_counter()
    X = _carrier("x", 2)
    Y = _carrier("y", 3)
    grid = ProbeGrid.default(Y, seed=0)
    ok = True
    for instance, kind in (
        ("subdist_total", "subdist"),
        ("subdist_partial", "subdist"),
        ("dist_convex", "dist"),
    ):
        rng = Random(42)
        mod = INSTANCES[instance]
        violations = 0
        for _ in range(200):
            f = random_arrow(kind, rng, X, Y)
            phi = pt_modality(mod, f)
            if not run_condition(mod.condition, phi, grid).is_healthy:
                violations += 1
                continue
            if not roundtrip_verify(f, instance, grid).is_healthy:
                violations += 1
        ok = ok and violations == 0
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    _report(
        "criterion 6 (probabilistic round-trips)",
        ok,
        f"200 seeded arrows per variant: exact synth(pt(f)) = f, grid checks clean, {dt:.1f}s < 60s",
    )


def test_criterion_7_alternating_probabilistic():
    t0 = time.perf_counter()
    X = _carrier("x", 2)
    Y = _carrier("y", 3)
    grid = ProbeGrid.default(Y, seed=0)
    rng = Random(7)
    violations = 0
    for _ in range(100):
        f = random_arrow("cv_dist", rng, X, Y)
        phi = pt_modality(builtin_modality("demonic_prob"), f)
        if not check_regular_sublinear(phi, grid).is_healthy:
            violations += 1
            continue
        result = synth_polytope(phi, grid)
        if not result.residual.is_healthy:
            violations += 1
    dt = time.perf_counter() - t0
    ok = violations == 0 and dt < 120.0
    _report(
        "criterion 7a (alternating probabilistic)",
        ok,
        f"100 seeded polytope arrows: sublinear + certified reconstructions, {dt:.1f}s < 120s",
    )

    # the crafted grid-insufficient input must land on the inconclusive path
    Y2 = _carrier("y", 2)
    X1 = _carrier("x", 1)
    lookup = {
        (F(0), F(0)): (F(0),),
        (F(1), F(1)): (F(1),),
        (F(1), F(0)): (F(1, 4),),
        (F(0), F(1)): (F(1, 4),),
        (F(1, 2), F(1)): (F(1, 2),),
    }

    def fn(values):
        key = tuple(values)
        if key not in lookup:
            raise MissingProbeError(key)
        return lookup[key]

    crafted = RationalTransformer(Y2, X1, fn, label="crafted")
    small_grid = ProbeGrid.explicit(Y2, list(lookup), scalars=(F(0), F(1)))
    on_grid = check_regular_sublinear(crafted, small_grid)
    res = synth_polytope(crafted, small_grid)
    ok = on_grid.is_healthy and res.residual.status == "inconclusive"
    if res.residual.witness is not None:
        RECORDED_WITNESSES.append(("criterion 7", crafted, res.residual.witness))
    _report(
        "criterion 7b (inconclusive path)",
        ok,
        "grid-passing crafted transformer is not certified; verdict inconclusive",
    )


def test_criterion_8_functoriality():
    t0 = time.perf_counter()
    ok = True
    diamond = builtin_modality("diamond")
    sizes = (1, 2)
    checked = 0
    for nx in sizes:
        for ny in sizes:
            X, Y = _carrier("x", nx), _carrier("y", ny)
            fs = list(enumerate_arrows(MonadKind.POWERSET, X, Y))
            for nz in sizes:
                Z = _carrier("z", nz)
                gs = list(enumerate_arrows(MonadKind.POWERSET, Y, Z))
                for f in fs:
                    for g in gs:
                        verdict = check_functoriality(diamond, f, g)
                        ok = ok and verdict.is_healthy
                        checked += 1
    rational = 0
    for name, kind in (("total", "subdist"), ("convex", "dist"), ("demonic_prob", "cv_dist")):
        mod = builtin_modality(name)
        rng = Random(11)
        X, Y, Z = _carrier("x", 2), _carrier("y", 2), _carrier("z", 2)
        for _ in range(100):
            f = random_arrow(kind, rng, X, Y)
            g = random_arrow(kind, rng, Y, Z)
            verdict = check_functoriality(mod, f, g)
            ok = ok and verdict.is_healthy
            rational += 1
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    _report(
        "criterion 8 (functoriality)",
        ok,
        f"{checked} exhaustive powerset pairs + {rational} seeded rational triples, {dt:.1f}s < 60s",
    )


def test_criterion_9_witness_soundness():
    from wpbench.healthiness import (
        check_emod_morphism,
        check_gemod_morphism,
        check_join_preserving,
        check_meet_preserving,
        check_monotone,
        check_strict_nonempty_meets,
    )
    from wpbench.modalities import Modality, check_algebra_laws
    from wpbench.monads import KleisliArrow
    from wpbench.semantics import BooleanTransformer

    Y = _carrier("y", 2)
    X = _carrier("x", 2)
    grid = ProbeGrid.default(Y, seed=0)
    battery = []

    const1 = BooleanTransformer(Y, X, (3, 3, 3, 3))
    battery.append((const1, check_join_preserving(const1)))
    const0 = BooleanTransformer(Y, X, (0, 0, 0, 0))
    battery.append((const0, check_meet_preserving(const0)))
    neg = BooleanTransformer(Y, Y, tuple(3 ^ m for m in range(4)))
    battery.append((neg, check_monotone(neg)))
    battery.append((const1, check_strict_nonempty_meets(const1)))

    square = RationalTransformer(Y, X, lambda v: (v[0] * v[0], v[1]), label="sq")
    battery.append((square, check_gemod_morphism(square, grid, "total")))
    battery.append((square, check_gemod_morphism(square, grid, "partial")))
    half = RationalTransformer(Y, X, lambda v: (v[0] / 2, v[1] / 2), label="half")
    battery.append((half, check_emod_morphism(half, grid)))
    vmax = RationalTransformer(Y, X, lambda v: (max(v), max(v)), label="max")
    battery.append((vmax, check_regular_sublinear(vmax, grid)))

    def bad_compose(f, g):
        if f.kind == MonadKind.POWERSET:
            rows = []
            for x in f.source.elements:
                row = None
                for y in f.row(x):
                    row = g.row(y) if row is None else (row & g.row(y))
                rows.append(row if row is not None else frozenset())
            return KleisliArrow(f.kind, f.source, g.target, rows)
        return None

    monad_verdict = check_monad_laws("powerset", [Y], compose=bad_compose)
    battery.append((bad_compose, monad_verdict))

    bad_sigma = MonadMapSpec(
        "bad_sigma",
        MonadKind.POWERSET,
        ContinuationTarget(),
        lambda elems, s: (lambda f: min((f(x) for x in s), default=1)),
        _lattice_membership(True),
    )
    battery.append((bad_sigma, check_monad_map_laws(bad_sigma, [Y])))

    bad_alg = Modality(
        "sum_sq",
        MonadKind.SUBDIST,
        "rational",
        None,
        lambda p, f: sum((q * f(x) ** 2 for x, q in p.items()), F(0)),
    )
    battery.append((bad_alg, check_algebra_laws(bad_alg, sample_depth=20)))

    sound = 0
    total = 0
    for subject, verdict in battery:
        total += 1
        assert verdict.is_unhealthy, f"battery entry produced {verdict.status}"
        if witness_is_sound(subject, verdict.witness):
            sound += 1
    for criterion, subject, witness in RECORDED_WITNESSES:
        total += 1
        if witness_is_sound(subject, witness):
            sound += 1
    ok = sound == total
    _report(
        "criterion 9 (witness soundness)",
        ok,
        f"{sound}/{total} unhealthy verdicts replay to strict violations",
    )
