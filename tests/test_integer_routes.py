"""The integer comparisons of the round trip against Fraction references.

``synthesis._grid_residual`` compares phi with the rebuilt transformer at
the grid's lattice points; ``synthesis.cv_semantically_equal`` and
``monads.cv_values_equal`` compare the closed forms of two vertex lists at
their probes' lattice points.  All three call one routine,
``monads._differing_point``, by one of two routes.  Rows on a lattice in
the cube, which ``IntegerRows`` holds only when they map the cube into
[0, 1], answer at once when they are the same and are compared a column
at a time otherwise (``monads._first_column_difference``); an opaque rule,
or a point outside the cube, goes to ``monads._first_difference``, which
reads a closed form's rows and scales a rule's values to one denominator.
Rows that leave [0, 1] are refused where they are built, so their values
are tested here behind plain rules.
The package keeps no Fraction loop for any of them.  The references below
are the Fraction loops they replaced: verdicts, ``checked`` counts,
witnesses, answers and exception types must be the same on every valid
input.  A vertex list that no arrow can hold (no vertex, support outside
the carrier, a weight past one) raises ``ValueError``.
``synth_polytope`` runs on integers from bound to certificate: it
reads its bounds off the rows' columns, or off a rule at each lattice
point, clips on homogeneous integer rows (``synthesis._clip_ints``) and
certifies each minimum on the integer vertices.  Its reference clips
and certifies in Fractions, on closed forms and on the same forms behind
plain Python rules; the clipper core and its Fraction front end
``_clip_region`` are checked against the Fraction clipper they replaced.
"""

import dataclasses
import itertools
import math
import pickle
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wpbench import monads, semantics, synthesis
from wpbench.core import FinSet, SizeGuardError
from wpbench.healthiness import ProbeGrid, run_condition
from wpbench.modalities import TauR, builtin_modality
from wpbench.monads import (
    MONADS,
    DistV,
    IntegerRows,
    KleisliArrow,
    Lattice,
    MonadKind,
    cv_probe_tuples,
    cv_values_equal,
    dedup_vertices,
    random_arrow,
)
from wpbench.semantics import RationalTransformer, pt_modality
from wpbench.synthesis import (
    SynthesisResult,
    cv_semantically_equal,
    roundtrip_verify,
    synth_dist,
    synth_polytope,
    synth_subdist,
    synthesize,
)
from wpbench.verdicts import Verdict, Witness, witness_is_sound

ZERO, ONE = F(0), F(1)
X = FinSet("X", ("x0", "x1"))
SIZES = (1, 2, 3)


def _carrier(n):
    return FinSet("Y", tuple(f"y{j}" for j in range(n)))


def fraction_grid_residual(phi, rebuilt, grid):
    checked = 0
    for p in grid.predicates:
        a = phi.apply_values(p)
        b = rebuilt.apply_values(p)
        checked += len(a)
        if a != b:
            i = next(k for k, (u, v) in enumerate(zip(a, b)) if u != v)
            witness = Witness("synthesis.reevaluate", {"pred": p, "x": phi.target.elements[i]}, b[i], a[i])
            return Verdict.unhealthy(witness, checked)
    return Verdict.healthy(checked)


def fraction_clip_region(n, halfspaces):
    """Sutherland-Hodgman clipping of the simplex in Fractions: an interval
    in u for n = 2, a polygon in (u, v) for n = 3."""
    if n == 1:
        return [] if any(p[0] < b for p, b in halfspaces) else [(ONE,)]
    if n == 2:
        lo, hi = ZERO, ONE  # mu = (u, 1-u)
        for p, b in halfspaces:
            coef, rhs = p[0] - p[1], b - p[1]
            if coef == 0:
                if rhs > 0:
                    return []
            elif coef > 0:
                lo = max(lo, rhs / coef)
            else:
                hi = min(hi, rhs / coef)
        if lo > hi:
            return []
        return [(lo, ONE - lo)] + ([(hi, ONE - hi)] if hi != lo else [])
    poly = [(ZERO, ZERO), (ONE, ZERO), (ZERO, ONE)]  # mu = (u, v, 1-u-v)
    for p, b in halfspaces:
        a1, a2, c = p[0] - p[2], p[1] - p[2], b - p[2]
        out = []
        for i, P in enumerate(poly):
            Q = poly[(i + 1) % len(poly)]
            sP = a1 * P[0] + a2 * P[1] - c
            sQ = a1 * Q[0] + a2 * Q[1] - c
            if sP >= 0:
                out.append(P)
            if (sP > 0 > sQ) or (sP < 0 < sQ):
                t = sP / (sP - sQ)
                out.append((P[0] + t * (Q[0] - P[0]), P[1] + t * (Q[1] - P[1])))
        poly = list(dict.fromkeys(out))
        if not poly:
            return []
    return [(u, v, ONE - u - v) for u, v in poly]


def fraction_synth_polytope(phi, grid):
    """synth_polytope past its precondition, certifying in Fractions."""
    Y = phi.source
    vertex_rows, checked = [], 0
    for i, x in enumerate(phi.target.elements):
        halfspaces = tuple((p, phi.apply_values(p)[i]) for p in grid.predicates)
        vertices = fraction_clip_region(len(Y), halfspaces)
        if not vertices:
            note = f"region for state {x!r} is empty; grid constraints are jointly infeasible"
            return SynthesisResult(None, Verdict.inconclusive(note))
        for p, bound in halfspaces:
            certified = min(sum(a * b for a, b in zip(p, v)) for v in vertices)
            checked += 1
            if certified != bound:
                note = "minimum over the region is not certified at a region vertex"
                witness = Witness("polytope.certify", {"x": x, "p": p, "halfspaces": halfspaces}, certified, bound)
                return SynthesisResult(None, Verdict.inconclusive(note, checked, witness))
        vertex_rows.append(dedup_vertices(DistV(zip(Y.elements, v)) for v in vertices))
    arrow = KleisliArrow(MonadKind.CV_DIST, phi.target, Y, vertex_rows)
    return SynthesisResult(arrow, Verdict.healthy(checked))


def fraction_cv_semantically_equal(a, b, grid):
    if a.source.elements != b.source.elements or a.target.elements != b.target.elements:
        return False
    mod = builtin_modality("demonic_prob")
    n = len(a.target)
    diracs = [tuple(ONE if k == j else ZERO for k in range(n)) for j in range(n)]
    idx = {y: k for k, y in enumerate(a.target.elements)}
    for p in list(grid.predicates) + diracs:
        val = lambda y: p[idx[y]]
        for ra, rb in zip(a.rows, b.rows):
            if mod.evaluate(ra, val) != mod.evaluate(rb, val):
                return False
    return True


def fraction_cv_values_equal(a, b, target):
    if frozenset(a) == frozenset(b):
        return True
    idx = {y: i for i, y in enumerate(target.elements)}
    for p in cv_probe_tuples(target):
        fa = min(sum((q * p[idx[y]] for y, q in mu.items()), ZERO) for mu in a)
        fb = min(sum((q * p[idx[y]] for y, q in mu.items()), ZERO) for mu in b)
        if fa != fb:
            return False
    return True


def evaluated_difference(a, b, points, one):
    """``monads._differing_point`` on two rows without its shortcut: the
    first point where the outputs differ, or None; it raises where ``ints``
    does."""
    for k, p in enumerate(points):
        u, v = a.ints(p, one)[0], b.ints(p, one)[0]
        if len(u) != len(v) or any(x * b.den != y * a.den for x, y in zip(u, v)):
            return k
    return None


def outcome(call, *args):
    """What the call returns, or the type of what it raises."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc)


def _rule(source, target, rows):
    """Vertex rows (offset, coefficients) in Fractions behind a plain rule,
    per output the least over its rows: the rule of rows that
    ``IntegerRows`` refuses, which the point loop compares."""
    value = lambda c0, cs, v: c0 + sum(c * q for c, q in zip(cs, v))
    return RationalTransformer(
        source, target, lambda v: tuple(min(value(c0, cs, v) for c0, cs in verts) for verts in rows)
    )


@pytest.fixture
def integer_calls(monkeypatch):
    """The calls of the integer comparisons, ``_first_difference`` and its
    columnar route ``_first_column_difference``: points compared, not
    answered by the same-rows shortcut of ``_differing_point``, through
    which every check decides."""
    calls = []
    for name in ("_first_difference", "_first_column_difference"):
        real = getattr(monads, name)
        monkeypatch.setattr(monads, name, lambda *a, real=real: calls.append(1) or real(*a))
    return calls


# seeded arrows of the three rational monads, each under its modalities
MODALITIES = {
    MonadKind.SUBDIST: ("total", "partial"),
    MonadKind.DIST: ("convex",),
    MonadKind.CV_DIST: ("demonic_prob",),
}


def _transformers(Y, seed, per_kind=3):
    rng = Random(seed)
    out = []
    for kind, names in MODALITIES.items():
        for _ in range(per_kind):
            f = random_arrow(kind, rng, X, Y, max_den=8)
            out += [pt_modality(builtin_modality(name), f) for name in names]
    return out


SYNTHS = {
    "total": (lambda phi, grid: synth_subdist(phi, "total", grid), "total"),
    "partial": (lambda phi, grid: synth_subdist(phi, "partial", grid), "partial"),
    "dist": (synth_dist, "convex"),
}


@pytest.mark.parametrize("n", SIZES)
def test_synthesis_routes_agree_with_the_fraction_routes(monkeypatch, integer_calls, n):
    # with the precondition switched off, every transformer reaches every
    # synthesis, so the residuals and certifications also meet failures; the
    # opaque copies hold no rows, so every residual they reach compares points
    monkeypatch.setattr(synthesis, "_guard", lambda verdict, condition: None)
    Y = _carrier(n)
    grid = ProbeGrid.default(Y, seed=n)
    laws = set()
    phis = _transformers(Y, seed=40 + n)
    for phi in phis + [_opaque(phi) for phi in phis]:
        for name, (synth, modality) in SYNTHS.items():
            integer = outcome(synth, phi, grid)
            with monkeypatch.context() as m:
                m.setattr(synthesis, "_grid_residual", fraction_grid_residual)
                assert outcome(synth, phi, grid) == integer, name
            residual = integer.residual
            laws.add(residual.witness.law if residual.witness else residual.status)
            if residual.witness and residual.witness.law == "synthesis.reevaluate":
                rebuilt = pt_modality(builtin_modality(modality), integer.arrow)
                assert witness_is_sound((phi, rebuilt), residual.witness)
        integer = outcome(synth_polytope, phi, grid)
        assert integer == fraction_synth_polytope(phi, grid)
        residual = integer.residual
        laws.add(residual.witness.law if residual.witness else residual.status)
        if residual.witness:
            assert residual.witness.law == "polytope.certify"
            assert witness_is_sound(phi, residual.witness)
    assert {"healthy", "polytope.certify"} <= laws, laws
    assert integer_calls
    # one closed form against another: they differ at the second state only,
    # and there only where the last element of Y has a positive value
    integer_calls.clear()
    last, uniform = Y.elements[-1], DistV({y: F(1, n) for y in Y.elements})
    arrows = (KleisliArrow(MonadKind.SUBDIST, X, Y, [uniform, DistV({last: w})]) for w in (ONE, F(1, 2)))
    a, b = (pt_modality(builtin_modality("total"), f) for f in arrows)
    verdict = synthesis._grid_residual(a, b, grid)
    assert verdict == fraction_grid_residual(a, b, grid) and verdict.is_unhealthy
    assert witness_is_sound((a, b), verdict.witness) and integer_calls


def test_residual_witness_at_a_pair_sum(monkeypatch, integer_calls, X1, Y3):
    # min((p0 + p1 + p2)/3, 1/2 + p2/2) has the rows of the uniform
    # distribution at the Diracs, 0 and 1, so synth_dist rebuilds the
    # uniform expectation; the two first differ at the core sum (1, 1, 0)
    monkeypatch.setattr(synthesis, "_guard", lambda verdict, condition: None)
    third, half = F(1, 3), F(1, 2)
    rows = IntegerRows([[(ZERO, (third, third, third)), (half, (ZERO, ZERO, half))]], 3)
    phi = RationalTransformer(Y3, X1, rows)
    grid = ProbeGrid.default(Y3, seed=4)
    result = synth_dist(phi, grid)
    with monkeypatch.context() as m:
        m.setattr(synthesis, "_grid_residual", fraction_grid_residual)
        assert synth_dist(phi, grid) == result
    witness = result.residual.witness
    assert witness.law == "synthesis.reevaluate" and witness.args["pred"] == (ONE, ONE, ZERO)
    assert (witness.lhs, witness.rhs) == (F(2, 3), half)
    rebuilt = pt_modality(builtin_modality("convex"), result.arrow)
    assert witness_is_sound((phi, rebuilt), witness)
    assert integer_calls


def _variants(f, rng):
    """Arrows to compare with f: a convex combination of two vertices added
    (the same hull), the vertices reversed, a random vertex added, the
    synthesis of f's transformer, and an unrelated arrow."""
    Y = f.target
    inner = [
        row + (DistV.mix(((F(1, 3), row[0]), (F(2, 3), row[-1]))),) for row in f.rows
    ]
    outer = [row + (random_arrow(MonadKind.DIST, rng, X, Y).rows[0],) for row in f.rows]
    yield KleisliArrow(MonadKind.CV_DIST, X, Y, inner)
    yield KleisliArrow(MonadKind.CV_DIST, X, Y, [row[::-1] for row in f.rows])
    yield KleisliArrow(MonadKind.CV_DIST, X, Y, outer)
    synthesized = synth_polytope(pt_modality(builtin_modality("demonic_prob"), f))
    if synthesized.ok:
        yield synthesized.arrow
    yield random_arrow(MonadKind.CV_DIST, rng, X, Y)


@pytest.mark.parametrize("n", SIZES)
def test_polytope_equalities_agree_with_the_fraction_routes(integer_calls, n):
    Y = _carrier(n)
    grid = ProbeGrid.default(Y, seed=n)
    rng = Random(70 + n)
    answers = set()
    for _ in range(6):
        f = random_arrow(MonadKind.CV_DIST, rng, X, Y, max_den=8)
        for g in _variants(f, rng):
            same = cv_semantically_equal(f, g, grid)
            assert same == fraction_cv_semantically_equal(f, g, grid)
            answers.add(same)
            for a, b in zip(f.rows, g.rows):
                same = cv_values_equal(a, b, Y)
                assert same == fraction_cv_values_equal(a, b, Y)
                answers.add(same)
    # at |Y| = 1 every vertex is the one Dirac: the rows are the same, and
    # no point is evaluated
    assert bool(integer_calls) == (n > 1)
    assert answers == ({True, False} if n > 1 else {True})


def test_the_diracs_join_the_grid_of_the_arrow_equality(integer_calls, X1, Y2):
    # the constants cannot tell a Dirac at y0 from one at y1; the Diracs can
    constants = ProbeGrid.explicit(Y2, [(0, 0), (1, 1)])
    a = KleisliArrow(MonadKind.CV_DIST, X1, Y2, [(DistV.dirac("y0"),)])
    b = KleisliArrow(MonadKind.CV_DIST, X1, Y2, [(DistV.dirac("y1"),)])
    assert cv_semantically_equal(a, b, constants) is False
    assert fraction_cv_semantically_equal(a, b, constants) is False
    assert cv_semantically_equal(a, a, constants) is True and integer_calls


def test_reevaluate_witness_at_one_probe(integer_calls, X1, Y2):
    # min(p0, p1) against min(p0, p1, 1 - (p0 + p1)/2): equal on every
    # probe but the last, (1, 1), where they are 1 and 0
    phi = RationalTransformer(Y2, X1, IntegerRows([[(ZERO, (ONE, ZERO)), (ZERO, (ZERO, ONE))]], 2))
    dip = (ONE, (F(-1, 2), F(-1, 2)))
    # rows with negative coefficients are refused, so the dip is a rule
    with pytest.raises(ValueError, match="negative"):
        IntegerRows([[(ZERO, (ONE, ZERO)), (ZERO, (ZERO, ONE)), dip]], 2)
    rebuilt = _rule(Y2, X1, [[(ZERO, (ONE, ZERO)), (ZERO, (ZERO, ONE)), dip]])
    grid = ProbeGrid.explicit(Y2, [(0, 0), (1, 0), (0, 1), (F(1, 2), F(1, 2)), (1, 1)])
    verdict = synthesis._grid_residual(phi, rebuilt, grid)
    assert integer_calls
    assert verdict == fraction_grid_residual(phi, rebuilt, grid)
    assert verdict.is_unhealthy and verdict.checked == 5
    witness = verdict.witness
    assert witness.args == {"pred": (ONE, ONE), "x": "x0"} and (witness.lhs, witness.rhs) == (0, 1)
    assert witness_is_sound((phi, rebuilt), witness)
    assert not witness_is_sound((phi, phi), witness)
    assert synthesis._grid_residual(phi, phi, grid) == Verdict.healthy(5)


def test_closed_forms_against_rules_agree_with_the_fraction_residual(integer_calls, Y3):
    # a closed form against a rule (and the reverse): the rule's values are
    # scaled to their own denominator at each lattice point
    grid = ProbeGrid.default(Y3, seed=5)
    phis = _transformers(Y3, seed=60, per_kind=1)
    statuses = set()
    for phi in phis:
        for other in phis:
            for a, b in ((phi, _opaque(other)), (_opaque(phi), other)):
                verdict = synthesis._grid_residual(a, b, grid)
                assert verdict == fraction_grid_residual(a, b, grid)
                if verdict.witness:
                    assert witness_is_sound((a, b), verdict.witness)
                statuses.add(verdict.status)
    assert statuses == {"healthy", "unhealthy"} and integer_calls


def test_values_over_different_denominators_are_told_apart(X1, Y2):
    # the constants 1/2 and 1/3 are both 1 over their rows' own
    # denominators: only the cross-scaled values differ
    half = RationalTransformer(Y2, X1, IntegerRows([[(F(1, 2), (ZERO, ZERO))]], 2))
    third = RationalTransformer(Y2, X1, IntegerRows([[(F(1, 3), (ZERO, ZERO))]], 2))
    grid = ProbeGrid.default(Y2, seed=2)
    verdict = synthesis._grid_residual(half, third, grid)
    assert verdict == fraction_grid_residual(half, third, grid)
    assert verdict.is_unhealthy and verdict.checked == 1


def _halfspaces(n, rng):
    """A seeded half-space list: each p is random, constant (all its
    coordinates equal) or a Dirac; b is 0, 1, phi-like (tight at a point
    mu0 of the simplex, so that the list can pin mu0 down) or random."""
    frac = lambda: F(rng.randint(0, 6), 6) if rng.random() < 0.5 else F(rng.randint(0, 5), 5)
    weights = [rng.randint(0, 4) for _ in range(n)]
    weights[rng.randrange(n)] += 1
    mu0 = [F(w, sum(weights)) for w in weights]
    out = []
    for _ in range(rng.randint(1, 8)):
        shape = rng.random()
        if shape < 0.2:
            p = (frac(),) * n
        elif shape < 0.3:
            p = tuple(ONE if k == rng.randrange(n) else ZERO for k in range(n))
        else:
            p = tuple(frac() for _ in range(n))
        tight = sum(a * m for a, m in zip(p, mu0))
        b = rng.choice([ZERO, ONE, tight, tight, max(tight - F(1, 7), ZERO), frac()])
        out.append((p, b))
    if rng.random() < 0.3:
        # the complement of a tight probe caps <p, mu> at its value at mu0
        p = out[0][0]
        out.append((tuple(ONE - a for a in p), ONE - sum(a * m for a, m in zip(p, mu0))))
    return tuple(out)


@pytest.mark.parametrize("n", SIZES)
def test_integer_clipper_matches_the_fraction_clipper(n):
    rng = Random(90 + n)
    sizes = set()
    for _ in range(1500):
        halfspaces = _halfspaces(n, rng)
        vertices = synthesis._clip_region(n, halfspaces)
        assert vertices == fraction_clip_region(n, halfspaces), halfspaces
        assert all(type(q) is F for v in vertices for q in v)
        sizes.add(min(len(vertices), 2))
    # empty regions, single points and (above |Y| = 1) segments or polygons
    assert sizes == ({0, 1, 2} if n > 1 else {0, 1})


def test_clipper_edge_cases_match_the_fraction_clipper():
    half, third = F(1, 2), F(1, 3)
    cases = {
        1: [(), (((half,), half),), (((half,), ONE),), (((ZERO,), ZERO),)],
        2: [
            (),
            (((half, half), half),),  # a constant p at its own value: everything
            (((half, half), ONE),),  # a constant p above its value: nothing
            (((ONE, ZERO), half), ((ZERO, ONE), half)),  # one point
            (((ONE, ZERO), ONE),),  # the Dirac vertex (1, 0)
            (((ZERO, ONE), ONE), ((ONE, ZERO), ONE)),  # two vertices: empty
        ],
        3: [
            (),
            (((third,) * 3, third),),
            (((third,) * 3, ONE),),
            (((ONE, ZERO, ZERO), ZERO),),
            (((ONE, ZERO, ZERO), ONE),),  # one vertex of the simplex
            (((ONE, ONE, ZERO), ONE),),  # the edge mu2 = 0
            (((ONE, ONE, ZERO), ONE), ((ZERO, ONE, ONE), ONE)),  # the vertex (0, 1, 0)
            (((ONE, ZERO, ZERO), half), ((ZERO, ONE, ZERO), half)),  # the point (1/2, 1/2, 0)
            (((ONE, ZERO, ZERO), half), ((ZERO, ONE, ZERO), F(2, 3))),  # empty
        ],
    }
    for n, lists in cases.items():
        for halfspaces in lists:
            assert synthesis._clip_region(n, halfspaces) == fraction_clip_region(n, halfspaces), halfspaces
    assert synthesis._clip_region(3, cases[3][5]) == [(ONE, ZERO, ZERO), (ZERO, ONE, ZERO)]
    assert synthesis._clip_region(3, cases[3][7]) == [(half, half, ZERO)]
    for n in (0, 4):
        with pytest.raises(SizeGuardError):
            synthesis._clip_region(n, ())


def test_polytope_certify_witness_replays(monkeypatch, Y2):
    # phi(p) = p0/2 fails certification: the minimum over its region
    # {mu : mu0 >= 1/2} at the constant one is 1, not phi's 1/2
    monkeypatch.setattr(synthesis, "_guard", lambda verdict, condition: None)
    phi = RationalTransformer(Y2, FinSet("X", ("x",)), IntegerRows([[(ZERO, (F(1, 2), ZERO))]], 2))
    grid = ProbeGrid.default(Y2, seed=3)
    result = synth_polytope(phi, grid)
    assert result == fraction_synth_polytope(phi, grid)
    witness = result.residual.witness
    assert result.residual.status == "inconclusive" and witness.law == "polytope.certify"
    assert witness_is_sound(phi, witness)
    # a constant one cuts out an empty region: inconclusive, no witness
    ones = RationalTransformer(Y2, FinSet("X", ("x",)), IntegerRows([[(ONE, (ZERO, ZERO))]], 2))
    result = synth_polytope(ones, grid)
    assert result == fraction_synth_polytope(ones, grid)
    assert "is empty" in result.residual.note


def test_cv_values_equal_keeps_the_probe_answer_on_the_counterexample(integer_calls, Y3):
    # B adds a vertex outside the hull of A; the minima differ at
    # (0, 391/660, 59/165), which is no probe, so the probe test says equal
    A = (
        DistV(zip(Y3.elements, (F(2, 3), F(1, 3), ZERO))),
        DistV(zip(Y3.elements, (F(3, 5), F(1, 5), F(1, 5)))),
        DistV(zip(Y3.elements, (ZERO, F(9, 11), F(2, 11)))),
    )
    B = A + (DistV(zip(Y3.elements, (F(323, 500), F(703, 2750), F(541, 5500)))),)
    assert cv_values_equal(A, B, Y3) is True
    assert fraction_cv_values_equal(A, B, Y3) is True
    assert integer_calls
    p = (ZERO, F(391, 660), F(59, 165))
    minimum = lambda vs: min(sum(q * v for q, v in zip(p, (mu.weight(y) for y in Y3.elements))) for mu in vs)
    assert (minimum(A), minimum(B)) == (F(19, 100), F(338711, 1815000))


def test_out_of_range_values_and_empty_vertex_lists_raise_value_error(X1, Y2):
    y0, grid = DistV.dirac("y0"), ProbeGrid.default(Y2, seed=1)
    # vertex lists no arrow holds: empty ones, weights past one, elements
    # outside Y; the Fraction loops answered True for two of them
    heavy = DistV({"y0": 2})
    stray = DistV.dirac("z")
    pairs = [
        ((), (y0,)),
        ((y0,), ()),
        ((heavy,), (y0,)),
        ((heavy,), (heavy, DistV({"y0": 3}))),
        ((stray,), (DistV({"z": F(1, 2), "w": F(1, 2)}),)),
        ((stray,), (y0,)),
    ]
    for a, b in pairs:
        assert outcome(cv_values_equal, a, b, Y2) is ValueError, (a, b)
    assert fraction_cv_values_equal((heavy,), (heavy, DistV({"y0": 3})), Y2) is True
    # equal vertex sets pass at once, with nothing evaluated
    assert cv_values_equal((), (), Y2) is True and cv_values_equal((heavy,), (heavy,), Y2) is True
    # arrow rows with no vertex, or a vertex outside Y (built past validation)
    full = KleisliArrow(MonadKind.CV_DIST, X1, Y2, [(y0,)])
    for row in ((), (stray,), (stray, y0)):
        bad = KleisliArrow._of_valid_rows(MonadKind.CV_DIST, X1, Y2, (row,))
        for a, b in ((bad, full), (full, bad)):
            assert outcome(cv_semantically_equal, a, b, grid) is ValueError, row
    # where the rows differ, the Fraction loop met the stray vertex as a KeyError
    bad = KleisliArrow._of_valid_rows(MonadKind.CV_DIST, X1, Y2, ((stray, y0),))
    assert outcome(fraction_cv_semantically_equal, full, bad, grid) is KeyError
    # residuals whose values leave [0, 1] at a probe, or have no vertex
    # row: refused as rows, so they are rules, compared point by point
    rows = {
        "in range": [[(ZERO, (ONE, ZERO))]],
        "over one": [[(ZERO, (F(2), ZERO))]],
        "below zero": [[(ZERO, (F(-1), ONE))]],
        "no vertex": [[]],
    }
    phis = {k: _rule(Y2, X1, v) for k, v in rows.items()}
    for k in ("over one", "below zero", "no vertex"):
        assert outcome(IntegerRows, rows[k], 2) is ValueError, k
    phis["in range"] = RationalTransformer(Y2, X1, IntegerRows(rows["in range"], 2))
    for a in phis.values():
        for b in phis.values():
            integer = outcome(synthesis._grid_residual, a, b, grid)
            assert integer == outcome(fraction_grid_residual, a, b, grid)
    assert outcome(synthesis._grid_residual, phis["over one"], phis["in range"], grid) is ValueError


def test_rows_of_the_wrong_shape_raise_value_error(monkeypatch, X1, Y2):
    grid = ProbeGrid.default(Y2, seed=1)
    # an output with no vertex row, as the generic demonic_prob rule refuses it
    with pytest.raises(ValueError, match="no vertex row"):
        IntegerRows([[]], 2)
    # rows with two outputs over a one-state target, or of another width,
    # are refused by the transformer with the messages of apply_values
    with pytest.raises(ValueError, match="target carrier"):
        RationalTransformer(Y2, X1, IntegerRows([[(ZERO, (ONE, ZERO))]] * 2, 2))
    with pytest.raises(ValueError, match="source carrier"):
        RationalTransformer(Y2, X1, IntegerRows([[(ZERO, (ONE, ZERO, ZERO))]], 3))
    # the two outputs behind a rule, against the one-output twin that
    # agrees on the first output
    two = _rule(Y2, X1, [[(ZERO, (ONE, ZERO))]] * 2)
    one = RationalTransformer(Y2, X1, IntegerRows([[(ZERO, (ONE, ZERO))]], 2))
    for a, b in ((two, one), (one, two)):
        with pytest.raises(ValueError, match="target carrier"):
            synthesis._grid_residual(a, b, grid)
        assert outcome(fraction_grid_residual, a, b, grid) is ValueError
    with pytest.raises(ValueError, match="target carrier"):
        RationalTransformer(Y2, X1, lambda vals: ()).apply_values((0, 0))
    # the polytope bounds are read off the rule, and refuse it the same way
    monkeypatch.setattr(synthesis, "_guard", lambda verdict, condition: None)
    with pytest.raises(ValueError, match="target carrier"):
        synth_polytope(two, grid)
    assert outcome(fraction_synth_polytope, two, grid) is ValueError


def test_rows_that_leave_the_cube_are_refused_where_they_are_built(X1, X2, Y2, Y3):
    # rows that map some point of [0, 1]^width outside [0, 1], or hold a
    # vertex row of another width, raise however they are built
    refused = [
        ([[(ZERO, (F(-1, 4), ONE))]], "negative"),
        ([[(F(-1, 4), (ONE, ZERO))]], "negative"),
        ([[(ZERO, (ONE, ZERO))], []], "no vertex row"),
        ([[(F(1, 2), (F(1, 2), F(1, 4))), (ZERO, (ONE, F(1, 3)))]], "5/4 outside"),
        ([[(ZERO, (ONE,))]], "needs 2 coefficients"),
    ]
    for rows, message in refused:
        # the constructor, and rows already scaled to integers over 12
        ints = tuple(tuple((int(12 * c0), tuple(int(12 * c) for c in cs)) for c0, cs in v) for v in rows)
        for build in (lambda: IntegerRows(rows, 2), lambda: IntegerRows._of_ints(ints, 12, 2)):
            with pytest.raises(ValueError, match=message):
                build()
    # one vertex row within den bounds an output; the others may pass it
    rows = IntegerRows([[(F(1, 2), (F(1, 2), F(1, 4))), (ZERO, (F(1, 2), F(1, 2)))]], 2)
    assert rows((ONE, ONE)) == (ONE,)
    # tau_r for r past one sends a subdistribution's missing mass above one;
    # on a distribution it misses none
    with pytest.raises(ValueError, match="outside"):
        TauR(F(2)).rows([DistV({"y0": F(1, 2)})], Y2.elements)
    assert TauR(F(2)).rows([DistV.dirac("y0")], Y2.elements).rows == (((0, (1, 0)),),)
    # vertex lists with a weight past one
    with pytest.raises(ValueError, match="outside"):
        monads.vertex_rows([(DistV({"y0": 2}),)], Y2.elements)
    # a transformer refuses rows that miss its carriers, as apply_values does
    rows = IntegerRows([[(ZERO, (ONE, ZERO))]], 2)
    with pytest.raises(ValueError, match="transformer output length does not match the target carrier"):
        RationalTransformer(Y2, X2, rows)
    with pytest.raises(ValueError, match="predicate length does not match the source carrier"):
        RationalTransformer(Y3, X1, rows)
    assert RationalTransformer(Y2, X1, rows).apply_values((F(1, 3), ONE)) == (F(1, 3),)


_ENTRIES = st.sampled_from((ZERO, F(1, 6), F(1, 4), F(1, 3), F(1, 2), ONE))
_SMALL = st.sampled_from((ZERO, F(1, 6), F(1, 4), F(1, 3)))


@st.composite
def _small_vertex(draw, width):
    """A vertex row with entries >= 0 and sum at most one."""
    cs = tuple(draw(_SMALL) for _ in range(width))
    return draw(st.sampled_from((ZERO, 1 - sum(cs)))), cs


@st.composite
def _vertex(draw, width):
    """A vertex row with entries >= 0: any, or with sum at most one."""
    if draw(st.booleans()):
        return draw(_ENTRIES), tuple(draw(_ENTRIES) for _ in range(width))
    return draw(_small_vertex(width))


@st.composite
def _vertices(draw, width):
    """An output's vertex rows, as the rows accept them: one with sum at
    most one among up to two more."""
    verts = draw(st.lists(_vertex(width), max_size=2))
    verts.insert(draw(st.integers(0, len(verts))), draw(_small_vertex(width)))
    return verts


@st.composite
def _rows_pair_and_points(draw):
    width, one = draw(st.integers(1, 3)), draw(st.sampled_from((1, 2, 6, 12)))
    outputs = draw(st.integers(1, 2))
    rows = [draw(_vertices(width)) for _ in range(outputs)]
    how = draw(st.sampled_from(("same", "reordered", "moved", "drawn")))
    if how == "same":
        other = rows
    elif how == "reordered":
        # the same vertex sets, reordered, one row repeated
        other = [draw(st.permutations(verts)) + verts[:1] for verts in rows]
    elif how == "moved":
        other = [list(verts) for verts in rows]
        c0, cs = other[-1][0]
        moved = c0 + draw(st.sampled_from((F(-1, 4), F(1, 12), F(1, 4))))
        other[-1][0] = (moved, cs)
        # rows the check accepts: the offset stays >= 0, and some vertex row
        # sums to at most one
        assume(moved >= 0 and any(d0 + sum(ds) <= 1 for d0, ds in other[-1]))
    else:
        other = [draw(_vertices(width)) for _ in range(outputs)]
    in_range = st.integers(0, one)
    coordinate = draw(st.sampled_from((in_range, in_range, st.integers(-1, one + 1))))
    lengths = st.just(width) if draw(st.booleans()) else st.integers(width - 1, width + 1)
    points = draw(st.lists(lengths.flatmap(lambda n: st.tuples(*[coordinate] * n)), max_size=6))
    return IntegerRows(rows, width), IntegerRows(other, width), points, one


@settings(max_examples=300, deadline=None)
@given(_rows_pair_and_points())
def test_same_values_shortcut_agrees_with_evaluation(case):
    # the shortcut is sufficient: where it answers at once, the evaluation at
    # the points finds no difference either, and every outcome (an index,
    # None or ValueError) is the evaluation's
    a, b, points, one = case
    fits = all(len(p) == a.width and 0 <= min(p, default=0) and max(p, default=0) <= one for p in points)
    lattice = Lattice(one, tuple(points), ())
    assert (lattice.cube_width == a.width) == (fits and bool(points))
    expected = outcome(evaluated_difference, a, b, points, one)
    if a._same_rows(b) and fits:
        assert expected is None
    assert outcome(monads._differing_point, a, b, lattice) == expected
    assert outcome(monads._differing_point, b, a, lattice) == outcome(evaluated_difference, b, a, points, one)


def test_same_values_shortcut_evaluates_no_point(monkeypatch):
    # distributions, subdistributions with an offset, and their reordering
    rows = [[(ZERO, (F(1, 2), F(1, 2))), (F(1, 4), (F(3, 4), ZERO))], [(ZERO, (ZERO, F(1, 3)))]]
    a, b = IntegerRows(rows, 2), IntegerRows([rows[0][::-1], rows[1]], 2)
    grid = ProbeGrid.default(FinSet("Y", ("y0", "y1")), seed=4)
    calls = []
    ints = IntegerRows.ints
    monkeypatch.setattr(IntegerRows, "ints", lambda self, *a: calls.append(1) or ints(self, *a))
    assert monads._differing_point(a, b, grid.lattice) is None
    assert not calls
    # a negative coefficient is refused where the rows are built
    with pytest.raises(ValueError, match="negative"):
        IntegerRows([[(ONE, (F(-1, 2), ZERO))]], 2)
    # a point outside [0, one] goes to the points, where the values pass
    # one, and the evaluation raises
    with pytest.raises(ValueError, match="outside"):
        monads._differing_point(a, b, Lattice(grid.lattice.one, ((3 * grid.lattice.one,) * 2,), ()))
    assert calls


def test_same_values_shortcut_needs_one_bounded_vertex_per_output(monkeypatch):
    # identical rows with a vertex sum above den: the least vertex sum per
    # output bounds the values, so the shortcut answers with no point
    # evaluated, as the evaluation would
    rows = [[(ZERO, (F(1, 2), F(1, 2))), (F(1, 2), (ONE, ONE))]]
    a, b = IntegerRows(rows, 2), IntegerRows(rows, 2)
    assert max(c0 + sum(cs) for c0, cs in a.rows[0]) > a.den
    grid = ProbeGrid.default(FinSet("Y", ("y0", "y1")), seed=4)
    assert evaluated_difference(a, b, grid.lattice.preds, grid.lattice.one) is None
    calls = []
    ints = IntegerRows.ints
    monkeypatch.setattr(IntegerRows, "ints", lambda self, *a: calls.append(1) or ints(self, *a))
    assert monads._differing_point(a, b, grid.lattice) is None
    assert not calls


def _bounded_vertex(rng, width, den):
    """A vertex row over den with entries >= 0 and sum at most one."""
    left, cs = den, []
    for _ in range(width):
        cs.append(F(rng.randint(0, left), den))
        left -= cs[-1].numerator * den // cs[-1].denominator
    return F(rng.randint(0, left), den), tuple(cs)


def _spied_difference(monkeypatch, a, b, lattice):
    """What ``_differing_point`` answers (an index, None, or the type and
    message of what it raises), the points at which ``ints`` evaluated a
    side, and whether the columnar route ran."""
    points, columnar = [], []
    ints, column = IntegerRows.ints, monads._first_column_difference
    with monkeypatch.context() as m:
        m.setattr(IntegerRows, "ints", lambda self, p, one: points.append(p) or ints(self, p, one))
        m.setattr(monads, "_first_column_difference", lambda *args: columnar.append(1) or column(*args))
        try:
            answer = monads._differing_point(a, b, lattice)
        except ValueError as exc:
            answer = (ValueError, str(exc))
    return answer, points, bool(columnar)


def _loop_difference(monkeypatch, a, b, lattice):
    """The same for the point loop, ``_first_difference`` on ``ints``."""
    points, ints = [], IntegerRows.ints
    with monkeypatch.context() as m:
        m.setattr(IntegerRows, "ints", lambda self, p, one: points.append(p) or ints(self, p, one))
        try:
            answer = monads._first_difference(a.ints, b.ints, lattice.preds, lattice.one)
        except ValueError as exc:
            answer = (ValueError, str(exc))
    return answer, points


def test_the_columnar_route_agrees_with_the_point_loop(monkeypatch):
    # rows of the lattice's width with as many outputs go a column at a time
    # and give the loop's index; every other pair is the loop itself, which
    # raises the same ValueError at the same point
    rng = Random(32)
    seen = set()
    for trial in range(300):
        width, outputs = rng.randint(1, 3), rng.randint(1, 3)
        da, db = rng.choice((1, 4, 6, 12)), rng.choice((1, 4, 6, 12))
        one = rng.choice((1, 2, 6, 12))
        preds = [tuple(rng.randint(0, one) for _ in range(width)) for _ in range(rng.randint(1, 12))]
        rows = [[_bounded_vertex(rng, width, da) for _ in range(rng.randint(1, 3))] for _ in range(outputs)]
        how = rng.choice(("equal", "output", "den", "width", "outside"))
        other = [list(verts) for verts in rows]
        if how == "equal":
            # the same values from other rows: one more vertex row, above another
            c0, cs = other[-1][0]
            other[-1].append((c0 + F(1, 2 * db), cs))
        elif how == "output":
            # one output replaced, so the first difference falls at a random point
            other[rng.randrange(outputs)] = [_bounded_vertex(rng, width, db) for _ in range(rng.randint(1, 3))]
        elif how == "den":
            other = [[_bounded_vertex(rng, width, db) for _ in range(rng.randint(1, 3))] for _ in range(outputs)]
        elif how == "width":
            other = [[(c0, cs + (ZERO,)) for c0, cs in verts] for verts in other]
        else:
            preds.insert(rng.randrange(len(preds) + 1), tuple(rng.randint(0, 3 * one) for _ in range(width)))
        a, b = IntegerRows(rows, width), IntegerRows(other, len(other[0][0][1]))
        lattice = Lattice(one, tuple(preds), ())
        for left, right in ((a, b), (b, a)):
            answer, points, columnar = _spied_difference(monkeypatch, left, right, lattice)
            loop, loop_points = _loop_difference(monkeypatch, left, right, lattice)
            assert answer == loop
            fits = lattice.cube_width == left.width == right.width
            assert columnar == (fits and not left._same_rows(right))
            if not fits:
                assert points == loop_points
            seen.add((how, columnar, "raises" if isinstance(answer, tuple) else answer is None))
    # every case was reached: equal values and a difference on the columns,
    # and the fallbacks, raising or not
    for how in ("output", "den"):
        assert {(how, True, False)} <= seen
    assert ("equal", True, True) in seen
    for how in ("width", "outside"):
        assert (how, False, "raises") in seen
    assert ("outside", False, False) in seen or ("outside", False, True) in seen


def test_closed_forms_and_opaque_rules_synthesize_the_same_polytopes(monkeypatch):
    # random bounded rows: the closed form reads its bounds off the columns,
    # the same values behind a rule read them point by point, and both give
    # the Fraction reference's arrow (to its repr and pickle bytes), verdict,
    # checked count and witness
    monkeypatch.setattr(synthesis, "_guard", lambda verdict, condition: None)
    rng = Random(33)
    statuses = set()
    for n in SIZES:
        Y = _carrier(n)
        grid = ProbeGrid.default(Y, seed=n)
        for _ in range(20):
            den = rng.choice((2, 4, 6))
            rows = IntegerRows([[_bounded_vertex(rng, n, den) for _ in range(rng.randint(1, 3))] for _ in X], n)
            closed = RationalTransformer(Y, X, rows)
            rule = RationalTransformer(Y, X, lambda values, rows=rows: rows(values))
            a, b = synth_polytope(closed, grid), synth_polytope(rule, grid)
            assert a == b == fraction_synth_polytope(rule, grid)
            assert a.residual.checked == b.residual.checked and a.residual.witness == b.residual.witness
            assert repr(a.arrow) == repr(b.arrow) and pickle.dumps(a.arrow) == pickle.dumps(b.arrow)
            if a.residual.witness:
                assert witness_is_sound(rule, a.residual.witness)
            statuses.add(a.residual.status)
    assert statuses == {"healthy", "inconclusive"}


def _opaque(phi):
    """phi's closed form behind a plain Python rule: ``rows`` is None, so
    synth_polytope reads its bounds through ``apply_values``."""
    rows = phi.rows
    return RationalTransformer(phi.source, phi.target, lambda values: rows(values))


def _certify_failures(Y):
    """phi(p) = p0/2, whose certification fails at the constant one, and the
    constant one, which cuts out an empty region."""
    n, X1 = len(Y), FinSet("X", ("x",))
    half = IntegerRows([[(ZERO, (F(1, 2),) + (ZERO,) * (n - 1))]], n)
    return [RationalTransformer(Y, X1, half), RationalTransformer(Y, X1, IntegerRows([[(ONE, (ZERO,) * n)]], n))]


@pytest.mark.parametrize("n", SIZES)
def test_opaque_rules_synthesize_as_their_closed_forms(monkeypatch, n):
    monkeypatch.setattr(synthesis, "_guard", lambda verdict, condition: None)
    Y = _carrier(n)
    grid = ProbeGrid.default(Y, seed=n)
    outcomes = set()
    for phi in _transformers(Y, seed=40 + n) + _certify_failures(Y):
        rule = _opaque(phi)
        result = synth_polytope(rule, grid)
        assert result == synth_polytope(phi, grid) == fraction_synth_polytope(rule, grid)
        residual = result.residual
        if residual.witness:
            assert witness_is_sound(rule, residual.witness)
        outcomes.add(residual.status if residual.checked else "empty")
    assert outcomes == {"healthy", "inconclusive", "empty"}


@pytest.mark.parametrize("n", SIZES)
def test_healthy_polytopes_rebuild_phi_at_every_lattice_point_and_dirac(monkeypatch, n):
    monkeypatch.setattr(synthesis, "_guard", lambda verdict, condition: None)
    Y = _carrier(n)
    grid = ProbeGrid.default(Y, seed=n)
    probes = list(grid.predicates) + [tuple(ONE if k == j else ZERO for k in range(n)) for j in range(n)]
    healthy = 0
    for phi in _transformers(Y, seed=40 + n):
        result = synth_polytope(phi, grid)
        if result.ok:
            rebuilt = pt_modality(builtin_modality("demonic_prob"), result.arrow)
            assert all(rebuilt.apply_values(p) == phi.apply_values(p) for p in probes)
            healthy += 1
    assert healthy


def test_closed_form_synthesis_neither_evaluates_nor_rebuilds(monkeypatch, Y3):
    f = random_arrow(MonadKind.CV_DIST, Random(3), X, Y3, max_den=8)
    phi = pt_modality(builtin_modality("demonic_prob"), f)
    calls = []
    apply_values, rebuild = RationalTransformer.apply_values, synthesis.pt_modality
    monkeypatch.setattr(RationalTransformer, "apply_values", lambda self, p: calls.append(p) or apply_values(self, p))
    monkeypatch.setattr(synthesis, "pt_modality", lambda *a: calls.append(a) or rebuild(*a))
    grid = ProbeGrid.default(Y3)
    result = synth_polytope(phi, grid)
    assert result.ok and result.residual.checked == 2 * len(grid.predicates)
    assert not calls


@st.composite
def _integer_rows(draw):
    n = draw(st.integers(1, 3))
    return n, draw(st.lists(st.tuples(*[st.integers(-6, 6)] * n), max_size=6))


@settings(max_examples=400, deadline=None)
@given(_integer_rows())
def test_integer_clipper_core_matches_the_fraction_clipper(case):
    # a row w is the half-space <w, mu> >= 0 of the Fraction clipper
    n, rows = case
    vertices = synthesis._clip_ints(n, rows)
    assert all(min(m) >= 0 and sum(m) > 0 and math.gcd(*m) == 1 for m in vertices)
    halfspaces = tuple((tuple(map(F, w)), ZERO) for w in rows)
    assert [tuple(F(c, sum(m)) for c in m) for m in vertices] == fraction_clip_region(n, halfspaces)


def test_the_clipper_core_refuses_other_sizes():
    for n in (0, 4):
        with pytest.raises(SizeGuardError):
            synthesis._clip_ints(n, ())


def test_the_default_grid_holds_the_dirac_probes(monkeypatch, Y3):
    # two lists with one hull but other rows are compared at every lattice
    # point, and at no Dirac point besides: the default grid holds them all
    f = random_arrow(MonadKind.CV_DIST, Random(5), X, Y3, max_den=8)
    mix = lambda row: row + (DistV.mix(((F(1, 3), row[0]), (F(2, 3), row[-1]))),)
    g = KleisliArrow(MonadKind.CV_DIST, X, Y3, [mix(row) for row in f.rows])
    grid = ProbeGrid.default(Y3)
    calls = []
    ints, table = IntegerRows.ints, IntegerRows.table
    monkeypatch.setattr(IntegerRows, "ints", lambda self, *a: calls.append(a[0]) or ints(self, *a))
    # the columnar route evaluates both sides at every point of its lattice,
    # the grid's own
    lattices = []
    monkeypatch.setattr(IntegerRows, "table", lambda self, at: lattices.append(at) or table(self, at))
    assert cv_semantically_equal(f, g, grid)
    calls += [p for at in lattices for p in at.preds]
    assert len(calls) == 2 * len(grid.lattice.preds) and set(calls) == set(grid.lattice.preds)
    assert all(at is grid.lattice for at in lattices)


# P(f) o P(g) as one row set (``IntegerRows.then``): the composite of two
# closed forms, which check_functoriality compares with P(g . f)
COMPOSED = ("total", "partial", "tau_r:1/3", "convex", "demonic_prob")


@pytest.mark.parametrize("name", COMPOSED)
def test_then_equals_the_two_stages_at_every_lattice_point(name):
    mod, rng = builtin_modality(name), Random(26)
    for ny, nz in ((1, 2), (2, 2), (3, 2), (2, 3)):
        Y, Z = _carrier(ny), FinSet("Z", tuple(f"z{k}" for k in range(nz)))
        lattice = semantics._functor_probes(nz, 3)[1][1]
        for _ in range(4):
            f, g = random_arrow(mod.monad, rng, X, Y, max_den=8), random_arrow(mod.monad, rng, Y, Z, max_den=8)
            inner, outer = pt_modality(mod, g).rows, pt_modality(mod, f).rows
            composite = inner.then(outer)
            assert (composite.width, len(composite.rows)) == (nz, len(X))
            for p in lattice.preds:
                # outer at inner's outputs, as _first_difference composes them
                (u, du), (v, dv) = composite.ints(p, lattice.one), outer.ints(*inner.ints(p, lattice.one))
                assert [a * dv for a in u] == [b * du for b in v], (name, p)
            # the Kleisli composite compiles to the same rows, so a healthy
            # check reads no point
            assert pt_modality(mod, monads.kleisli_compose(f, g)).rows._same_rows(composite)


def test_only_bounded_rows_compose_within_the_probe_count():
    X1, Y, Z = FinSet("X", ("x",)), FinSet("Y", ("y0", "y1")), FinSet("Z", ("z0", "z1"))
    lattice = semantics._functor_probes(2, 3)[1][1]
    inner = IntegerRows([[(ZERO, (ONE, ZERO))], [(ZERO, (F(1, 2), F(1, 2))), (ZERO, (ZERO, ONE))]], 2)
    pg = RationalTransformer(Z, Y, inner)
    outer = lambda rows: RationalTransformer(Y, X1, IntegerRows(rows, 2))
    # a negative weight turns a sum of minima into no minimum, and an
    # offset above 1 raises in the two stages: such rows are refused where
    # they are built, and as rules both take the point loop
    negative, over_one = [[(ONE, (F(-1, 2), F(1, 2)))]], [[(F(3, 2), (ZERO, ZERO))]] * 2
    for rows in (negative, over_one):
        assert outcome(IntegerRows, rows, 2) is ValueError
    assert semantics._rows_after(pg, _rule(Y, X1, negative), lattice) is None
    assert semantics._rows_after(_rule(Z, Y, over_one), outer([[(ZERO, (ONE, ZERO))]]), lattice) is None
    # per outer row, one inner vertex row per weighted coordinate (1 * 2,
    # then 1), over the product of the dens
    pf = outer([[(ZERO, (F(1, 2), F(1, 2))), (ONE, (ZERO, ZERO))]])
    composite = semantics._rows_after(pg, pf, lattice)
    assert composite.rows == (((0, (3, 1)), (0, (2, 2)), (4, (0, 0))),) and composite.den == 4
    # three composite rows on two probes: the point loop runs
    assert semantics._rows_after(pg, pf, monads.Lattice.of([[ONE, ZERO], [ZERO, ONE]], ())) is None


@pytest.mark.parametrize("name", COMPOSED)
def test_healthy_closed_form_functoriality_compares_no_point(integer_calls, name):
    # both laws hold on equal rows: _differing_point answers at once
    mod, rng = builtin_modality(name), Random(27)
    for ny in SIZES:
        Y = _carrier(ny)
        for nz in SIZES:
            Z = FinSet("Z", tuple(f"z{k}" for k in range(nz)))
            f, g = random_arrow(mod.monad, rng, X, Y), random_arrow(mod.monad, rng, Y, Z)
            verdict = semantics.check_functoriality(mod, f, g)
            assert verdict.is_healthy and verdict.checked > 100
    assert not integer_calls


@pytest.mark.parametrize("name", COMPOSED)
def test_closed_forms_never_take_the_point_loop_and_opaque_copies_do(monkeypatch, name):
    # closed forms on grids in the cube are compared by their rows or
    # columns: the grid checks, residuals, synth_polytope, round trips and
    # functoriality never call _first_difference.  The same row without its
    # closed form is a rule, which is compared point by point, one
    # evaluator per side.  tau_r:1/3 is no catalog row: it only composes.
    sides = []
    real = monads._first_difference
    monkeypatch.setattr(monads, "_first_difference", lambda a, b, *rest: sides.append((a, b)) or real(a, b, *rest))
    mod, rng = builtin_modality(name), Random(34)
    opaque = dataclasses.replace(mod, closed_form=None, theorem=None)
    for ny in SIZES:
        Y, Z = _carrier(ny), FinSet("Z", ("z0", "z1"))
        grid = ProbeGrid.default(Y, seed=ny)
        for _ in range(2):
            f, g = random_arrow(mod.monad, rng, X, Y, max_den=8), random_arrow(mod.monad, rng, Y, Z, max_den=8)
            phi, rule = pt_modality(mod, f), pt_modality(opaque, f)
            assert phi.rows is not None and rule.rows is None
            if mod.theorem is not None:
                assert run_condition(mod.condition, phi, grid).is_healthy
                assert synthesize(mod, phi, grid).ok
                assert roundtrip_verify(f, mod.theorem, grid).is_healthy
            assert semantics.check_functoriality(mod, f, g).is_healthy
            assert not sides
            if mod.theorem is not None:
                # the residual of the rule against its rebuilt rule
                assert synthesize(opaque, rule, grid).ok
                assert sides and all(callable(a) and callable(b) for a, b in sides)
                sides.clear()
            assert semantics.check_functoriality(opaque, f, g).is_healthy
            assert sides and all(callable(a) and callable(b) for a, b in sides)
            sides.clear()


def fraction_mix(weighted):
    """sum c * d as a dict of Fraction weights, in first-appearance order:
    the composition's mix as it was, one Fraction product per weight."""
    w = {}
    for c, d in weighted:
        for z, q in d.items():
            w[z] = w.get(z, ZERO) + c * q
    return w


def fraction_compose_value(kind, value, g):
    """``Monad.extend`` of SUBDIST, DIST and CV_DIST on Fraction
    weights: a (sub)distribution mixes g's rows by its weights; a vertex
    list mixes one vertex of g per support point, in g's source order, and
    keeps the first of equal vertices."""
    if kind != MonadKind.CV_DIST:
        return list(fraction_mix((q, g.row(y)) for y, q in value.items()).items())
    verts = []
    for mu in value:
        supp = sorted(mu.support, key=g.source.index)
        for choice in itertools.product(*(g.row(y) for y in supp)):
            v = list(fraction_mix((mu.weight(y), nu) for y, nu in zip(supp, choice)).items())
            if all(dict(v) != dict(u) for u in verts):
                verts.append(v)
    return verts


@pytest.mark.parametrize("kind", (MonadKind.SUBDIST, MonadKind.DIST, MonadKind.CV_DIST))
def test_integer_composition_matches_the_fraction_mix(kind):
    # same points, weights and order; for CV_DIST the same vertices in the
    # same order, each with its points in the same order
    rng = Random(28)
    for nx, ny, nz in itertools.product(SIZES, repeat=3):
        Xc = FinSet("X", tuple(f"x{k}" for k in range(nx)))
        Y, Z = _carrier(ny), FinSet("Z", tuple(f"z{k}" for k in range(nz)))
        for _ in range(3):
            f, g = random_arrow(kind, rng, Xc, Y), random_arrow(kind, rng, Y, Z)
            for value, row in zip(f.rows, monads.kleisli_compose(f, g).rows):
                expected = fraction_compose_value(kind, value, g)
                if kind == MonadKind.CV_DIST:
                    assert [list(v.items()) for v in row] == expected
                else:
                    assert list(row.items()) == expected


# (status, checked) of check_monad_laws at seeds 0-19 on carriers of sizes
# (1, 2), as the Fraction-weighted composition gave them
LAW_VERDICTS = {kind: [("healthy", 200)] * 20 for kind in ("subdist", "dist", "cv_dist")}


@pytest.mark.parametrize("kind", sorted(LAW_VERDICTS))
def test_sampled_monad_laws_keep_their_verdicts(kind):
    carriers = [FinSet("A", ("a0",)), FinSet("B", ("b0", "b1"))]
    got = [monads.check_monad_laws(kind, carriers, seed=s) for s in range(20)]
    assert [(v.status, v.checked) for v in got] == LAW_VERDICTS[kind]


def test_distribution_rows_match_the_fraction_compile():
    # vertex_rows and tau_r's rows read the numerators; the constructor
    # scales the same weights given as Fractions to the same rows and den
    rng = Random(29)
    tau = TauR(F(1, 3))
    for n in SIZES:
        Y = _carrier(n)
        ts = [MONADS[MonadKind.CV_DIST].sample(rng, Y) for _ in range(4)]
        got = monads.vertex_rows(ts, Y.elements)
        want = IntegerRows([[(ZERO, [mu.weight(y) for y in Y]) for mu in t] for t in ts], n)
        assert (got.rows, got.den) == (want.rows, want.den)
        ds = [MONADS[MonadKind.SUBDIST].sample(rng, Y) for _ in range(4)]
        got = tau.rows(ds, Y.elements)
        want = IntegerRows([[(F(1, 3) * (ONE - d.mass), [d.weight(y) for y in Y])] for d in ds], n)
        assert (got.rows, got.den) == (want.rows, want.den)
