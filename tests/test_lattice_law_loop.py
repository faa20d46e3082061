"""The per-argument law loop on the lattice against its Fraction reference.

``LawCheck.first_violation`` reads every law of a group at integer points
over the lattice's ``one``, with F evaluated once per point, and compares
the sides as (numerator, denominator) pairs.  The reference below is the
Fraction loop it replaced, kept here and not in the package: verdicts,
``checked`` counts, witnesses, ``describe()`` and ``ValueError`` messages
must be the same on both, and F must be called at the same distinct points
in the same order.
"""

import json
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpbench import modalities, monads
from wpbench.cli import parse_spec
from wpbench.core import FinSet
from wpbench.healthiness import ProbeGrid, run_condition
from wpbench.modalities import RATIONAL, STRUCTURE_CLASSES, LawCheck
from wpbench.monads import IntegerRows
from wpbench.semantics import RationalTransformer

RATIONAL_CONDITIONS = ("gemod_total", "gemod_partial", "emod", "regular_sublinear")
GROUPS = [g for cls in STRUCTURE_CLASSES.values() if cls.carrier == RATIONAL for g, _ in cls.groups]
SCALED = ("scale", "shift")


def fraction_first_violation(check, laws, weight):
    """``LawCheck.first_violation`` as a Fraction loop: F at each predicate
    once per check, by index, and at every "at" point of every argument;
    both sides built and clamped in Fractions at every argument."""
    shape = laws[0].shape
    if check._rows is not None and check._certified(laws[-1]):
        check.checked += weight * check._count(shape)
        return None
    values = vars(check).setdefault("fraction_values", {})

    def value(i):
        if i not in values:
            values[i] = check.F(check.preds[i])
        return values[i]

    npreds = 1 if shape in SCALED else 2
    for idx in check.arguments(shape):
        fargs = [value(i) for i in idx[:npreds]]
        if shape in SCALED:
            args = check.preds[idx[0]], check.scalars[idx[1]]
        else:
            args = tuple(check.preds[i] for i in idx)
        check.checked += weight
        memo = {}
        for law in laws:
            lhs, rhs = check.sides(law, args, fargs, memo)
            if lhs != rhs:
                x = next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
                return law, args, lhs[x], rhs[x], x
    return None


def recording(rule, calls):
    """The rule, appending each predicate it is called at to ``calls``."""

    def fn(values):
        calls.append(tuple(values))
        return rule(values)

    return fn


def _fields(verdict):
    w = verdict.witness
    witness = None if w is None else (w.law, list(w.args.items()), w.lhs, w.rhs)
    return verdict.status, verdict.checked, witness, verdict.describe()


def _condition(condition, rule, grid, X, reference):
    """The verdict fields of a condition, or its ValueError message, and the
    distinct points the rule was called at in first-call order, on the
    lattice loop or the reference."""
    calls = []
    phi = RationalTransformer(grid.domain, X, recording(rule, calls), label="opaque")
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            mp.setattr(LawCheck, "first_violation", fraction_first_violation)
        try:
            outcome = _fields(run_condition(condition, phi, grid))
        except ValueError as exc:
            outcome = str(exc)
    return outcome, list(dict.fromkeys(calls))


def _group(laws, rule, grid, X, reference):
    """One group alone: its first violation and checked count, or its
    ValueError message, and the distinct points the rule was called at in
    first-call order."""
    calls = []
    phi = RationalTransformer(grid.domain, X, recording(rule, calls), label="opaque")
    n = len(X)
    check = LawCheck(phi.apply_values, n, grid.predicates, grid.scalars, len(grid.domain), grid.lattice)
    loop = fraction_first_violation if reference else LawCheck.first_violation
    try:
        outcome = loop(check, laws, n * len(laws)), check.checked
    except ValueError as exc:
        outcome = str(exc)
    return outcome, list(dict.fromkeys(calls))


_ENTRIES = st.sampled_from((F(-1, 2), F(0), F(0), F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)))
_SMALL = st.sampled_from((F(0), F(1, 6), F(1, 4), F(1, 3)))


@st.composite
def _vertex(draw, n):
    """A vertex row (offset, coefficients): arbitrary, or with entries >= 0
    and a sum of at most one, with or without the offset that makes it one."""
    if draw(st.booleans()):
        return draw(_ENTRIES), tuple(draw(_ENTRIES) for _ in range(n))
    cs = tuple(draw(_SMALL) for _ in range(n))
    return draw(st.sampled_from((F(0), 1 - sum(cs)))), cs


@st.composite
def _opaque_rules(draw):
    """An affine rule (one vertex row per output) or a minimum of rows, with
    one corrupted output at one point: a grid predicate, or the sum, dual
    sum, scaling or shift of grid predicates; the value put there is
    sometimes outside [0, 1]."""
    n = draw(st.integers(1, 3))
    Y = FinSet("Y", tuple(f"y{j}" for j in range(n)))
    X = FinSet("X", tuple(f"x{i}" for i in range(draw(st.integers(1, 2)))))
    most = 1 if draw(st.booleans()) else 3
    rows = [draw(st.lists(_vertex(n), min_size=1, max_size=most)) for _ in X.elements]
    extra = st.tuples(*[st.sampled_from((F(0), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1)))] * n)
    preds = ProbeGrid.default(Y, random_count=0).predicates + tuple(draw(st.lists(extra, max_size=4)))
    scalars = draw(st.sampled_from((None, (0, F(1, 3), F(1, 2), 1))))
    grid = ProbeGrid.explicit(Y, preds, scalars)
    p, q = draw(st.sampled_from(grid.predicates)), draw(st.sampled_from(grid.predicates))
    r = draw(st.sampled_from(grid.scalars))
    spot = draw(
        st.sampled_from(
            (
                p,
                tuple(a + b for a, b in zip(p, q)),
                tuple(a + b - 1 for a, b in zip(p, q)),
                tuple(r * a for a in p),
                tuple(r * a + 1 - r for a in p),
                tuple(a + r for a in p),
            )
        )
    )
    at = draw(st.integers(0, len(X) - 1))
    moved = draw(st.sampled_from((F(-1, 4), F(0), F(1, 5), F(1, 2), F(1), F(5, 4))))

    def rule(values):
        out = tuple(min(c0 + sum(c * v for c, v in zip(cs, values)) for c0, cs in verts) for verts in rows)
        if tuple(values) == spot:
            out = out[:at] + (moved,) + out[at + 1 :]
        return out

    return rule, grid, X


@settings(max_examples=60, deadline=None)
@given(_opaque_rules())
def test_lattice_loop_agrees_with_the_fraction_loop(case):
    # every condition, and every rational group alone: the same verdict,
    # count, witness, description or error, and the rule called at the same
    # distinct points in the same order
    rule, grid, X = case
    for condition in RATIONAL_CONDITIONS:
        assert _condition(condition, rule, grid, X, False) == _condition(condition, rule, grid, X, True)
    for laws in GROUPS:
        assert _group(laws, rule, grid, X, False) == _group(laws, rule, grid, X, True)


def test_lattice_loop_reads_no_point_twice():
    # a functional with no memo of its own: the loop calls it once per
    # distinct point, where the Fraction loop re-evaluates every sum point
    Y = FinSet("Y", ("y0", "y1"))
    grid = ProbeGrid.default(Y, seed=2)
    laws = STRUCTURE_CLASSES["gemod"].groups[1][0]
    counts = []
    for loop in (LawCheck.first_violation, fraction_first_violation):
        calls = []
        F1 = recording(lambda v: (v[0] / 2 + v[1] / 3,), calls)
        check = LawCheck(F1, 1, grid.predicates, grid.scalars, 2, grid.lattice)
        assert loop(check, laws, 2) is None
        counts.append((len(calls), len(set(calls)), check.checked))
    (lattice, distinct, checked), (fraction, fraction_distinct, fraction_checked) = counts
    assert lattice == distinct == fraction_distinct < fraction
    assert checked == fraction_checked


def _probe_table_doc(rule, points, grid):
    sets = {"X": ["x"], "Y": list(grid.domain.elements)}
    pairs = [[[str(v) for v in p], [str(v) for v in rule(p)]] for p in points]
    probes = {"predicates": [[str(v) for v in p] for p in grid.predicates], "random": 0}
    table = {"kind": "probe_table", "source": "Y", "target": "X", "pairs": pairs}
    return json.dumps({"sets": sets, "transformer": table, "probes": probes})


def test_probe_table_missing_a_sum_point_is_inconclusive():
    # a CLI probe table holding every point the reference loop reads under
    # gemod_total but one sum point: both loops stop there with the same
    # count and note, and every point the lattice loop asks for before it
    # is a key of the table, built on the lattice and found by Fraction
    # equality
    Y = FinSet("Y", ("y0", "y1", "y2"))
    grid = ProbeGrid.explicit(Y, ProbeGrid.default(Y, random_count=3, seed=5).predicates)
    linear = lambda v: (v[0] / 2 + v[1] / 4 + v[2] / 8,)
    X = FinSet("X", ("x",))
    fields, read = _condition("gemod_total", linear, grid, X, True)
    assert fields[0] == "healthy"
    missing = next(p for p in read if p not in grid.predicates and max(p) > 0)
    keys = [p for p in read if p != missing]
    doc = parse_spec(_probe_table_doc(linear, keys, grid))
    table, grid = doc.transformer, doc.grid_for(doc.sets["Y"])
    outcomes = [_condition("gemod_total", table.fn, grid, table.target, reference) for reference in (False, True)]
    (verdict, asked), (reference, reference_asked) = outcomes
    assert verdict == reference and verdict[0] == "inconclusive"
    assert verdict[3] == f"inconclusive: probe table lacks a required evaluation point: {missing!r}"
    assert asked == reference_asked and asked[-1] == missing
    assert set(asked[:-1]) <= set(keys)
    # the sum point the table lacks, built on the lattice
    one, preds = grid.lattice.one, grid.lattice.preds
    sums = {tuple(F(a + b, one) for a, b in zip(p, q)) for p in preds for q in preds}
    assert missing in sums


def _pointwise_pairs(lattice, shape):
    """The pairs i <= j whose sum (dual: sum minus one) lies in [0, 1] at
    every coordinate, scanned point by point."""
    ints, one = lattice.preds, lattice.one
    fits = (lambda s: min(s) >= one) if shape == "dual_sum" else (lambda s: max(s) <= one)
    k = len(ints)
    return [(i, j) for i in range(k) for j in range(i, k) if fits([a + b for a, b in zip(ints[i], ints[j])])]


def test_pair_arguments_are_scanned_once_per_lattice(monkeypatch):
    # the sum and dual-sum pairs depend on the lattice alone: grid checks of
    # two rules on one grid scan each shape once, and keep what a pointwise
    # scan finds; a closed form the certificates decide keeps no pair
    scans = []
    scan = LawCheck._pair_rows
    monkeypatch.setattr(LawCheck, "_pair_rows", lambda self, shape: scans.append(shape) or scan(self, shape))
    Y, X = FinSet("Y", ("y0", "y1", "y2")), FinSet("X", ("x",))
    grid = ProbeGrid.default(Y, seed=4)
    rules = {
        "gemod_total": (lambda v: (v[0] / 2 + v[1] / 4,), lambda v: (v[2] / 3,)),
        "gemod_partial": (lambda v: (F(1, 4) + v[0] / 2 + v[1] / 4,), lambda v: (F(1, 2) + v[2] / 2,)),
    }
    for condition, pair in rules.items():
        for rule in pair:
            phi = RationalTransformer(Y, X, rule, label="opaque")
            assert run_condition(condition, phi, grid).is_healthy
    assert sorted(scans) == ["dual_sum", "sum"]
    for shape in scans:
        check = LawCheck(None, 1, grid.predicates, grid.scalars, 3, grid.lattice)
        assert list(check.arguments(shape)) == _pointwise_pairs(grid.lattice, shape)
    closed = ProbeGrid.default(Y, seed=5)
    rows = IntegerRows([[(F(0), (F(1, 2), F(1, 4), F(0)))]], 3)
    assert run_condition("gemod_total", RationalTransformer(Y, X, rows, label="rows"), closed).is_healthy
    assert closed.lattice.pairs == {} and closed.lattice.counts


@st.composite
def _integer_lattices(draw):
    """Lattices over a small ``one`` at width 1-4, with repeated predicates
    and the all-zero and all-``one`` points among drawn ones."""
    one, width = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(0, one)] * width)
    preds = draw(st.lists(st.one_of(point, st.just((0,) * width), st.just((one,) * width)), max_size=40))
    preds += draw(st.lists(st.sampled_from(preds), max_size=10)) if preds else []
    return monads.Lattice(one, tuple(draw(st.permutations(preds))), ())


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_integer_lattices(), st.sampled_from((1, 3, 64)))
def test_pair_masks_match_the_pointwise_pairs(lattice, window):
    # the bit-mask pair rows, and the counts by popcount on a lattice that
    # keeps no pair, are the pairs of a pointwise scan, as are the counts
    # of the kept rows; small windows split the predicates into several
    # masks each
    with mock.patch.object(modalities, "_PAIR_WINDOW", window):
        for shape in ("sum", "dual_sum"):
            pairs = _pointwise_pairs(lattice, shape)
            fresh = monads.Lattice(lattice.one, lattice.preds, ())
            assert LawCheck(None, 1, lattice=fresh)._count(shape) == len(pairs)
            assert fresh.pairs == {}
            check = LawCheck(None, 1, lattice=lattice)
            assert [(i, j) for i, js in enumerate(check._pairs(shape)) for j in js] == pairs
            assert check._count(shape) == len(pairs)
