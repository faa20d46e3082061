import tracemalloc
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpbench import healthiness
from wpbench.core import FinSet
from wpbench.healthiness import (
    ProbeGrid,
    check_emod_morphism,
    check_gemod_morphism,
    check_join_preserving,
    check_meet_preserving,
    check_monotone,
    check_regular_sublinear,
    check_strict_nonempty_meets,
    finitary_report,
    finitary_support,
    run_condition,
)
from wpbench.modalities import (
    BOOLEAN,
    DEFAULT_SCALARS,
    RATIONAL,
    STRUCTURE_CLASSES,
    IntegerRows,
    LawCheck,
    StructureClass,
    builtin_modality,
)
from wpbench.monads import DistV, KleisliArrow, MonadKind, enumerate_arrows, random_arrow
from wpbench.semantics import (
    BooleanTransformer,
    RationalTransformer,
    pt_alternating,
    pt_modality,
    wp_box,
    wp_diamond,
)
from wpbench.verdicts import Verdict, witness_is_sound

F = Fraction


def identity_transformer(Y):
    return BooleanTransformer(Y, Y, tuple(range(1 << len(Y))))


def constant_transformer(Y, X, mask):
    return BooleanTransformer(Y, X, (mask,) * (1 << len(Y)))


def test_join_identity_healthy(Y2):
    assert check_join_preserving(identity_transformer(Y2)).is_healthy


def test_join_constant_one_unhealthy(Y2, X2):
    phi = constant_transformer(Y2, X2, 3)
    verdict = check_join_preserving(phi)
    assert verdict.is_unhealthy
    assert verdict.witness.args["law"] == "join.bottom"
    assert witness_is_sound(phi, verdict.witness)


def test_join_wp_diamond_always_healthy_small():
    for nx in (1, 2, 3):
        for ny in (1, 2, 3):
            X = FinSet("X", tuple(f"x{i}" for i in range(nx)))
            Y = FinSet("Y", tuple(f"y{i}" for i in range(ny)))
            for R in enumerate_arrows(MonadKind.POWERSET, X, Y):
                assert check_join_preserving(wp_diamond(R)).is_healthy


def test_meet_checks(Y2, X2):
    assert check_meet_preserving(identity_transformer(Y2)).is_healthy
    verdict = check_meet_preserving(constant_transformer(Y2, X2, 0))
    assert verdict.is_unhealthy
    assert verdict.witness.args["law"] == "meet.top"
    for nx in (1, 2, 3):
        X = FinSet("X", tuple(f"x{i}" for i in range(nx)))
        Y = FinSet("Y", ("y0", "y1", "y2"))
        rng = Random(nx)
        for _ in range(10):
            R = random_arrow(MonadKind.POWERSET, rng, X, Y)
            assert check_meet_preserving(wp_box(R)).is_healthy


def test_monotone_checks(Y2):
    assert check_monotone(identity_transformer(Y2)).is_healthy
    # negation transformer flips the order
    neg = BooleanTransformer(Y2, Y2, tuple(3 ^ m for m in range(4)))
    verdict = check_monotone(neg)
    assert verdict.is_unhealthy
    assert witness_is_sound(neg, verdict.witness)
    rng = Random(0)
    X = FinSet("X", ("x0", "x1"))
    for _ in range(10):
        f = random_arrow(MonadKind.UP_POWERSET, rng, X, Y2)
        assert check_monotone(pt_alternating("game", f)).is_healthy


def test_strict_meets_checks(Y2, X2):
    assert check_strict_nonempty_meets(constant_transformer(Y2, X2, 0)).is_healthy
    verdict = check_strict_nonempty_meets(constant_transformer(Y2, X2, 3))
    assert verdict.is_unhealthy
    assert verdict.witness.args["law"] == "strict.bottom"
    rng = Random(1)
    for _ in range(10):
        f = random_arrow(MonadKind.LIFT_POWERSET, rng, X2, Y2)
        assert check_strict_nonempty_meets(pt_alternating("dijkstra", f)).is_healthy


def linear_transformer(Y, X, coefficients, offset=None):
    offset = offset or [F(0)] * len(X)

    def fn(values):
        return tuple(
            sum((c * v for c, v in zip(row, values)), off)
            for row, off in zip(coefficients, offset)
        )

    return RationalTransformer(Y, X, fn, label="linear")


def test_gemod_total_examples(Y2):
    X = FinSet("X", ("x",))
    grid = ProbeGrid.default(Y2, seed=1)
    half = linear_transformer(Y2, X, [[F(1, 2), F(0)]])
    assert check_gemod_morphism(half, grid, "total").is_healthy
    ident = linear_transformer(Y2, Y2, [[F(1), F(0)], [F(0), F(1)]])
    assert check_gemod_morphism(ident, grid, "total").is_healthy

    square = RationalTransformer(Y2, X, lambda v: (v[0] * v[0],), label="square")
    verdict = check_gemod_morphism(square, grid, "total")
    assert verdict.is_unhealthy
    assert witness_is_sound(square, verdict.witness)


def test_gemod_scaling_witness_matches_stated_example(Y2):
    # phi(p) = p(y0)^2 fails scaling at r=1/2, p = dirac y0
    X = FinSet("X", ("x",))
    square = RationalTransformer(Y2, X, lambda v: (v[0] * v[0],), label="square")
    grid = ProbeGrid.explicit(
        Y2, [(F(0), F(0)), (F(1), F(1)), (F(1), F(0)), (F(0), F(1)), (F(1, 2), F(1, 2))],
        scalars=(F(0), F(1, 2), F(1)),
    )
    verdict = check_gemod_morphism(square, grid, "total")
    assert verdict.is_unhealthy


def test_gemod_partial_on_arrow_transformers(Y3):
    rng = Random(2)
    X = FinSet("X", ("x0", "x1"))
    grid = ProbeGrid.default(Y3, seed=2)
    for _ in range(10):
        f = random_arrow(MonadKind.SUBDIST, rng, X, Y3)
        phi = pt_modality(builtin_modality("partial"), f)
        assert check_gemod_morphism(phi, grid, "partial").is_healthy


def test_emod_examples(Y2):
    grid = ProbeGrid.default(Y2, seed=3)
    ident = linear_transformer(Y2, Y2, [[F(1), F(0)], [F(0), F(1)]])
    assert check_emod_morphism(ident, grid).is_healthy
    X = FinSet("X", ("x",))
    half = linear_transformer(Y2, X, [[F(1, 2), F(0)]])
    verdict = check_emod_morphism(half, grid)
    assert verdict.is_unhealthy  # unit (one) fails
    assert verdict.witness.args["law"] == "gemod.one"
    rng = Random(4)
    for _ in range(10):
        f = random_arrow(MonadKind.DIST, rng, X, Y2)
        phi = pt_modality(builtin_modality("convex"), f)
        assert check_emod_morphism(phi, grid).is_healthy


def test_regular_sublinear_examples(Y2):
    X = FinSet("X", ("x",))
    grid = ProbeGrid.default(Y2, seed=5)
    vmin = RationalTransformer(Y2, X, lambda v: (min(v[0], v[1]),), label="min")
    assert check_regular_sublinear(vmin, grid).is_healthy

    vmax = RationalTransformer(Y2, X, lambda v: (max(v[0], v[1]),), label="max")
    verdict = check_regular_sublinear(vmax, grid)
    assert verdict.is_unhealthy
    assert witness_is_sound(vmax, verdict.witness)

    # sub-mass linear maps fail the strengthened (equality) translation law
    leaky = linear_transformer(Y2, X, [[F(1, 4), F(1, 4)]])
    verdict = check_regular_sublinear(leaky, grid)
    assert verdict.is_unhealthy
    assert verdict.witness.args["law"] in ("sublinear.translate", "sublinear.translate_defined")


def test_regular_sublinear_max_witness_is_subadditivity(Y2):
    X = FinSet("X", ("x",))
    grid = ProbeGrid.explicit(
        Y2,
        [(F(0), F(0)), (F(1), F(1)), (F(1), F(0)), (F(0), F(1)), (F(1, 2), F(0)), (F(0), F(1, 2))],
    )
    vmax = RationalTransformer(Y2, X, lambda v: (max(v[0], v[1]),), label="max")
    verdict = check_regular_sublinear(vmax, grid)
    assert verdict.is_unhealthy
    assert verdict.witness.args["law"].startswith("sublinear.subadditive")


def test_grid_minimum_invariant(Y2):
    bare = ProbeGrid.explicit(Y2, [(F(0), F(0))])
    phi = linear_transformer(Y2, Y2, [[F(1), F(0)], [F(0), F(1)]])
    verdict = check_gemod_morphism(phi, bare, "total")
    assert verdict.status == "inconclusive"


def test_grid_check_rejects_a_boolean_transformer(Y2):
    bare = ProbeGrid.explicit(Y2, [(F(0), F(0))])
    with pytest.raises(TypeError):
        check_gemod_morphism(identity_transformer(Y2), bare, "total")


def test_grid_check_rejects_a_grid_over_another_carrier(Y2, Y3):
    bare = ProbeGrid.explicit(Y2, [(F(0), F(0))])
    phi = linear_transformer(Y3, Y3, [[F(int(i == j)) for j in range(3)] for i in range(3)])
    with pytest.raises(ValueError):
        check_gemod_morphism(phi, bare, "total")


def test_grid_monotone_enlarging_never_heals(Y3):
    X = FinSet("X", ("x",))
    square = RationalTransformer(Y3, X, lambda v: (v[0] * v[0],), label="square")
    grid = ProbeGrid.default(Y3, seed=7)
    assert check_gemod_morphism(square, grid, "total").is_unhealthy
    bigger = ProbeGrid.default(Y3, seed=7, random_count=90)
    assert check_gemod_morphism(square, bigger, "total").is_unhealthy


def test_default_grid_contents(Y2):
    grid = ProbeGrid.default(Y2, seed=0)
    preds = set(grid.predicates)
    assert (F(1), F(0)) in preds and (F(0), F(1)) in preds
    assert (F(0), F(0)) in preds and (F(1), F(1)) in preds
    assert grid.meets_minimum()
    assert set(grid.scalars) == {F(0), F(1, 4), F(1, 2), F(3, 4), F(1)}


def test_finitary_support_evaluation(Y3):
    X = FinSet("X", ("x",))
    # phi(f)(x) = f(y0) or f(y1) over three targets
    table = tuple(1 if (m & 0b011) else 0 for m in range(8))
    phi = BooleanTransformer(Y3, X, table)
    assert finitary_support(phi, "x") == frozenset({"y0", "y1"})


def test_finitary_support_constant_and_dirac(Y2):
    X = FinSet("X", ("x",))
    const = constant_transformer(Y2, X, 1)
    assert finitary_support(const, "x") == frozenset()
    ev = BooleanTransformer(Y2, X, (0, 1, 0, 1))  # evaluation at y0
    assert finitary_support(ev, "x") == frozenset({"y0"})


def test_finitary_support_equals_relation_row():
    # exhaustive at 3x3: support of the may-transformer is exactly the row
    X = FinSet("X", ("x0", "x1", "x2"))
    Y = FinSet("Y", ("y0", "y1", "y2"))
    count = 0
    for R in enumerate_arrows(MonadKind.POWERSET, X, Y):
        phi = wp_diamond(R)
        for x in X.elements:
            assert finitary_support(phi, x) == R.row(x)
        count += 1
    assert count == 512


def test_finitary_support_rational_uses_arrow(Y2):
    X = FinSet("X", ("x",))
    from wpbench.monads import KleisliArrow

    f = KleisliArrow("subdist", X, Y2, {"x": {"y0": F(1, 2)}})
    phi = pt_modality(builtin_modality("total"), f)
    assert finitary_support(phi, "x") == frozenset({"y0"})
    report = finitary_report(phi)
    assert report.is_healthy and "y0" in report.note


def test_finitary_report_says_an_opaque_support_was_probed_on_the_grid(Y2):
    # the rule reads p(y1) only at 1/97, which no grid predicate holds
    X = FinSet("X", ("x0",))
    phi = RationalTransformer(Y2, X, lambda v: ((v[0] + (v[1] if v[1] == F(1, 97) else 0)) / 2,))
    assert phi.apply_values((0, F(1, 97))) != phi.apply_values((0, 0))
    report = finitary_report(phi)
    assert report.is_healthy and report.note == "supports probed on the grid: x0 <- {y0}"


def test_explicit_grid_rejects_values_outside_the_unit_interval(Y2):
    # a value of 3/2 is no predicate; the grid used to check the law over it
    # and report "healthy (36 instances checked)"
    from wpbench.monads import KleisliArrow

    f = KleisliArrow("subdist", FinSet("X", ("x",)), Y2, {"x": {"y0": F(1, 2)}})
    phi = pt_modality(builtin_modality("total"), f)
    core = list(ProbeGrid.default(Y2, random_count=0).predicates)
    assert run_condition("gemod_total", phi, ProbeGrid.explicit(Y2, core)).is_healthy
    with pytest.raises(ValueError, match="outside"):
        run_condition("gemod_total", phi, ProbeGrid.explicit(Y2, core + [(F(3, 2), 0)]))
    with pytest.raises(ValueError, match="outside"):
        ProbeGrid.explicit(Y2, core + [(F(-1, 2), 0)])
    with pytest.raises(ValueError, match="outside"):
        ProbeGrid.explicit(Y2, core, scalars=(0, F(5, 4)))
    with pytest.raises(ValueError, match="needs 2 values"):
        ProbeGrid.explicit(Y2, core + [(F(1, 2),)])
    with pytest.raises(ValueError, match="needs 2 values"):
        ProbeGrid.explicit(Y2, core + [(0, 0, 1)])
    # the constructor checks the same, on Fractions and on ints
    grid = ProbeGrid.explicit(Y2, core)
    assert ProbeGrid(Y2, grid.predicates, grid.scalars) == grid
    for preds, scalars, message in (
        (core + [(F(3, 2), F(0))], DEFAULT_SCALARS, "predicate value 3/2 outside"),
        (core + [(F(-1, 2), F(0))], DEFAULT_SCALARS, "predicate value -1/2 outside"),
        (core + [(2, 0)], DEFAULT_SCALARS, "predicate value 2 outside"),
        (core, (F(0), F(5, 4)), "scalar 5/4 outside"),
        (core, (-1,), "scalar -1 outside"),
        (core + [(F(1, 2),)], DEFAULT_SCALARS, "needs 2 values"),
        (core + [(0, 0, 1)], DEFAULT_SCALARS, "needs 2 values"),
    ):
        with pytest.raises(ValueError, match=message):
            ProbeGrid(Y2, tuple(preds), scalars)
    # a float is no exact rational: the constructor raised AttributeError on
    # it, and explicit stored 0.1 as 3602879701896397/36028797018963968
    for make in (
        lambda: ProbeGrid(Y2, ((0.5, 0.5),), DEFAULT_SCALARS),
        lambda: ProbeGrid(Y2, tuple(core), (F(0), 0.5)),
        lambda: ProbeGrid.explicit(Y2, [(0.1, 0.5)]),
        lambda: ProbeGrid.explicit(Y2, core, scalars=(0, 0.25)),
    ):
        with pytest.raises(TypeError):
            make()


def test_run_condition_names(Y2):
    assert run_condition("join", identity_transformer(Y2)).is_healthy
    with pytest.raises(ValueError):
        run_condition("bogus", identity_transformer(Y2))
    with pytest.raises(TypeError):
        run_condition("join", linear_transformer(Y2, Y2, [[F(1), F(0)], [F(0), F(1)]]))


def test_a_rational_class_outside_the_catalog_is_decided_by_its_own_laws(monkeypatch, Y2):
    # phi(p) = p0 * p1 preserves one, and breaks the dual sums of gemod_dual
    unital = StructureClass("unital", "unital", RATIONAL, (("one", "unital.one"),))
    monkeypatch.setitem(STRUCTURE_CLASSES, "unital", unital)
    monkeypatch.setitem(healthiness._CLASSES, "unital", unital)
    phi = RationalTransformer(Y2, FinSet("X", ("x",)), lambda v: (v[0] * v[1],))
    verdict = run_condition("unital", phi)
    assert verdict == healthiness._grid_verdict(phi, None, unital) == Verdict.healthy(1)


@pytest.mark.parametrize(
    "carrier, law",
    [
        (RATIONAL, "binary_meet"),
        (RATIONAL, "binary_join"),
        (RATIONAL, "monotone"),
        (BOOLEAN, "sum"),
        (BOOLEAN, "translate"),
        (BOOLEAN, "scale"),
    ],
)
def test_a_class_names_only_laws_of_its_carrier(carrier, law):
    # a law its carrier's checks do not read is refused when the class is
    # built, not misread (or crashed on) when a transformer is checked
    with pytest.raises(ValueError, match=f"law '{law}' of shape"):
        StructureClass("mixed", "mixed", carrier, ((law, f"mixed.{law}"),))


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=255))
def test_boolean_verdicts_sound(table_index):
    # every unhealthy verdict's witness replays to a strict violation
    Y = FinSet("Y", ("y0", "y1"))
    X = FinSet("X", ("x0", "x1"))
    table = tuple((table_index >> (2 * k)) & 3 for k in range(4))
    phi = BooleanTransformer(Y, X, table)
    for check in (
        check_join_preserving,
        check_meet_preserving,
        check_monotone,
        check_strict_nonempty_meets,
    ):
        verdict = check(phi)
        if verdict.is_unhealthy:
            assert witness_is_sound(phi, verdict.witness)


RATIONAL_CONDITIONS = ("gemod_total", "gemod_partial", "emod", "regular_sublinear")


def _verdict_fields(verdict):
    w = verdict.witness
    witness = None if w is None else (w.law, list(w.args.items()), w.lhs, w.rhs)
    return verdict.status, verdict.checked, witness, verdict.describe()


def _group_alone(phi, grid, laws, rows):
    """One law group checked on its own: its first violation and the
    checked count, or the message of the ValueError it raises."""
    check = LawCheck(
        phi.apply_values, len(phi.target), grid.predicates, grid.scalars, len(phi.source), grid.lattice, rows
    )
    try:
        return check.first_violation(laws, 1), check.checked
    except ValueError as exc:
        return str(exc)


def _opaque(phi):
    return RationalTransformer(phi.source, phi.target, lambda v, phi=phi: phi.fn(v), label="opaque")


def test_integer_kernel_agrees_with_fraction_route(Y3, monkeypatch):
    # each closed form, once with its integer rows and once wrapped as an
    # opaque rule, under every rational condition (healthy or not), on every
    # group of a rational class alone, and on two grids with different
    # common denominators; the integer route must find violations of each
    # shape a certificate decides, which it leaves to the per-argument loop
    violated = set()
    first_violation = LawCheck.first_violation

    def spy(self, laws, weight):
        found = first_violation(self, laws, weight)
        if found is not None and self._rows is not None:
            violated.add(laws[0].shape)
        return found

    monkeypatch.setattr(LawCheck, "first_violation", spy)
    X = FinSet("X", ("x0", "x1"))
    rng = Random(31)
    core = ProbeGrid.default(Y3, random_count=0).predicates
    off_lattice = [tuple(F(rng.randint(0, d), d) for _ in range(3)) for d in (7, 9) * 6]
    grids = (
        ProbeGrid.default(Y3),
        ProbeGrid.explicit(Y3, core + tuple(off_lattice), scalars=(0, F(1, 3), F(1, 2), 1)),
    )
    assert [g.lattice.one for g in grids] == [840 * 4, 63 * 6]
    phis = []
    for name in ("total", "partial", "convex", "tau_r:1/3", "demonic_prob"):
        mod = builtin_modality(name)
        phis += [pt_modality(mod, random_arrow(mod.monad, rng, X, Y3)) for _ in range(2)]
    # polytopes of several vertices (superadditive, not additive), and
    # affine rows that are neither homogeneous nor translation invariant
    d = DistV.dirac
    polytopes = {
        "x0": (d("y0"), d("y1")),
        "x1": (DistV({"y0": F(1, 2), "y2": F(1, 2)}), DistV({"y1": F(1, 3), "y2": F(2, 3)}), d("y2")),
    }
    phis.append(pt_modality(builtin_modality("demonic_prob"), KleisliArrow(MonadKind.CV_DIST, X, Y3, polytopes)))
    affine = [[(F(1, 4), (F(1, 2), F(1, 4), F(0)))], [(F(0), (F(1, 3), F(0), F(1, 3)))]]
    phis.append(RationalTransformer(Y3, X, IntegerRows(affine, 3), label="affine"))
    statuses = set()
    groups = [g for cls in STRUCTURE_CLASSES.values() if cls.carrier == RATIONAL for g, _ in cls.groups]
    for phi in phis:
        opaque = _opaque(phi)
        assert phi.rows is not None and opaque.rows is None
        for grid in grids:
            for condition in RATIONAL_CONDITIONS:
                kernel = run_condition(condition, phi, grid)
                fraction = run_condition(condition, opaque, grid)
                assert _verdict_fields(kernel) == _verdict_fields(fraction)
                if kernel.is_unhealthy:
                    assert witness_is_sound(phi, kernel.witness)
                statuses.add(kernel.status)
            for laws in groups:
                assert _group_alone(phi, grid, laws, phi.rows) == _group_alone(opaque, grid, laws, None)
    assert statuses == {"healthy", "unhealthy"}
    assert violated >= {laws[0].shape for laws in groups if laws[-1].certificate is not None}


def test_integer_kernel_raises_the_fraction_routes_range_error(Y3):
    # values in [0, 1] at every probe but at 3/2 on the sum of the two
    # halves: as rows they are refused where they are built, and behind an
    # opaque rule the loop meets that value and raises; with the core
    # first, a violation of the sum law comes earlier and wins
    X = FinSet("X", ("x0",))
    vertices = [(F(0), (F(3), F(0), F(0))), (F(0), (F(0), F(3), F(0))), (F(2), (F(-1, 2), F(-1, 2), F(0)))]
    with pytest.raises(ValueError, match="negative"):
        IntegerRows([vertices], 3)
    value = lambda c0, cs, v: c0 + sum(c * q for c, q in zip(cs, v))
    peak = lambda v: (min(value(c0, cs, v) for c0, cs in vertices),)
    opaque = RationalTransformer(Y3, X, peak, label="opaque")
    core = ProbeGrid.default(Y3, random_count=0).predicates
    halves = ((F(1, 2), F(0), F(0)), (F(0), F(1, 2), F(0)))
    first, last = ProbeGrid.explicit(Y3, halves + core), ProbeGrid.explicit(Y3, core + halves)
    message = "transformer produced 3/2 outside [0, 1]"
    with pytest.raises(ValueError) as exc:
        run_condition("gemod_total", opaque, first)
    assert str(exc.value) == message
    assert run_condition("gemod_total", opaque, last).witness.args["law"] == "gemod.sum"
    # the subadditive group alone holds at the sum of the halves, so there
    # only the range check raises
    assert _group_alone(opaque, first, STRUCTURE_CLASSES["emod_sublinear"].groups[0][0], None) == message


_COEFFICIENTS = st.sampled_from((F(0), F(0), F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)))


@st.composite
def _vertex_row(draw, n, kinds=("any", "subdist", "dist", "partial")):
    """A vertex row over n coordinates with entries >= 0: any, or of the
    form of a subdistribution (no offset), a distribution (no offset, mass
    one) or a partial one (offset plus mass one), some of which the
    certificates accept.  The last three sum to at most one."""
    kind = draw(st.sampled_from(kinds))
    cs = draw(st.lists(_COEFFICIENTS, min_size=n, max_size=n))
    if kind == "any":
        return draw(_COEFFICIENTS), tuple(cs)
    mass = sum(cs)
    if mass > 1 or (kind == "dist" and mass == 0):
        cs = [c / mass for c in cs] if mass else [F(1, n)] * n
    if kind == "dist":
        cs[-1] += 1 - sum(cs)
    return (1 - sum(cs) if kind == "partial" else F(0)), tuple(cs)


@st.composite
def _rows_and_grid(draw):
    n = draw(st.integers(1, 3))
    Y = FinSet("Y", tuple(f"y{i}" for i in range(n)))
    outputs = draw(st.integers(1, 2))
    # per output, as the rows accept them, a vertex row with sum at most one
    # among up to two more
    rows = []
    for _ in range(outputs):
        verts = draw(st.lists(_vertex_row(n), max_size=2))
        verts.insert(draw(st.integers(0, len(verts))), draw(_vertex_row(n, ("subdist", "dist", "partial"))))
        rows.append(verts)
    extra = draw(st.lists(st.tuples(*[st.sampled_from((F(0), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1)))] * n), max_size=4))
    grid = ProbeGrid.explicit(Y, ProbeGrid.default(Y, random_count=0).predicates + tuple(extra))
    return Y, IntegerRows(rows, n), grid


@settings(max_examples=80, deadline=None)
@given(_rows_and_grid())
def test_certificate_agrees_with_the_fraction_route(case):
    # each rational group alone on random rows, with offsets and vertex rows
    # summing above one: the rows route (certificate, then the loop) and the
    # opaque Fraction route agree in verdict, count and error, and a group
    # the certificate accepts holds at every argument
    Y, rows, grid = case
    X = FinSet("X", tuple(f"x{i}" for i in range(len(rows.rows))))
    phi = RationalTransformer(Y, X, rows, label="rows")
    opaque = _opaque(phi)
    groups = [g for cls in STRUCTURE_CLASSES.values() if cls.carrier == RATIONAL for g, _ in cls.groups]
    for laws in groups:
        fraction = _group_alone(opaque, grid, laws, None)
        assert _group_alone(phi, grid, laws, rows) == fraction
        check = LawCheck(phi.apply_values, len(X), grid.predicates, grid.scalars, len(Y), grid.lattice, rows)
        if check._certified(laws[-1]):
            assert fraction[0] is None and fraction[1] == check._count(laws[0].shape)


def test_every_group_but_the_constant_laws_has_a_certificate():
    for cls in STRUCTURE_CLASSES.values():
        if cls.carrier == RATIONAL:
            for laws, _ in cls.groups:
                assert (laws[0].shape in ("bottom", "top")) == (laws[-1].certificate is None), laws


def test_certificate_decides_healthy_closed_forms(Y3, monkeypatch):
    # a healthy closed form under each rational condition: the certificate
    # decides every group but the constant laws, so the checks evaluate F
    # at the constant predicates only
    points = []
    value = LawCheck._value
    monkeypatch.setattr(LawCheck, "_value", lambda self, point, *a: points.append(point) or value(self, point, *a))
    X = FinSet("X", ("x0", "x1"))
    rng = Random(8)
    grid = ProbeGrid.default(Y3)
    for name in ("total", "partial", "convex", "demonic_prob"):
        mod = builtin_modality(name)
        for _ in range(3):
            verdict = run_condition(mod.condition, pt_modality(mod, random_arrow(mod.monad, rng, X, Y3)), grid)
            assert verdict.is_healthy
    one = grid.lattice.one
    assert set(points) == {(0, 0, 0), (one, one, one)}


@pytest.mark.parametrize("ny", [1, 2, 3])
def test_a_grid_check_calls_an_opaque_rule_once_per_point(ny):
    # the transformer keeps no evaluations: the check's table of values per
    # lattice point alone keeps a healthy opaque rule, which the check reads
    # at every argument, from being called twice at one point; the finitary
    # report keeps one table over its states
    Y = FinSet("Y", tuple(f"y{j}" for j in range(ny)))
    X = FinSet("X", ("x0", "x1"))
    rng = Random(20 + ny)
    grid = ProbeGrid.default(Y, seed=ny)
    for name in ("total", "partial", "convex", "demonic_prob"):
        mod = builtin_modality(name)
        for _ in range(2):
            closed = pt_modality(mod, random_arrow(mod.monad, rng, X, Y))
            calls = []
            phi = RationalTransformer(Y, X, lambda v: calls.append(v) or closed.fn(v), label="opaque")
            assert run_condition(mod.condition, phi, grid).is_healthy
            assert len(grid.predicates) < len(calls) == len(set(calls)), (name, ny)
            calls.clear()
            report = run_condition("finitary", phi, grid)
            assert report.is_healthy and "probed" in report.note
            assert calls and len(calls) == len(set(calls)), (name, ny)


# (the arrow's modality, a condition it fails at a law with an "at" side)
MISMATCHED = (
    ("demonic_prob", "gemod_total"),
    ("demonic_prob", "emod"),
    ("partial", "regular_sublinear"),
    ("total", "regular_sublinear"),
)


@pytest.mark.parametrize("name, condition", MISMATCHED)
def test_an_unhealthy_check_calls_an_opaque_rule_once_per_point(name, condition):
    # the witness reads F at the violated law's "at" point off the check's
    # table, where the loop has just evaluated it
    Y, X = FinSet("Y", ("y0", "y1", "y2")), FinSet("X", ("x0", "x1"))
    mod, rng = builtin_modality(name), Random(24)
    grid = ProbeGrid.default(Y, seed=2)
    seen = 0
    for _ in range(4):
        closed = pt_modality(mod, random_arrow(mod.monad, rng, X, Y))
        calls = []
        phi = RationalTransformer(Y, X, lambda v: calls.append(v) or closed.fn(v), label="opaque")
        verdict = run_condition(condition, phi, grid)
        assert len(calls) == len(set(calls)), (name, condition)
        assert verdict == run_condition(condition, closed, grid)
        if verdict.status == "unhealthy":
            assert witness_is_sound(phi, verdict.witness)
            seen += not verdict.witness.args["law"].endswith(("zero", "one", "defined"))
    assert seen


def test_certified_check_memory_is_linear_in_the_grid():
    # a certified grid check holds a few ints per predicate: growing a grid
    # at |Y| = 4 from 150 to 600 predicates grows the peak about as a linear
    # term does (at most four times), where a table with an entry per pair
    # of predicates would grow it sixteen times (over 0.6 MB at 600)
    Y4 = FinSet("Y", tuple(f"y{i}" for i in range(4)))
    X = FinSet("X", ("x0", "x1"))
    phi = pt_modality(builtin_modality("convex"), random_arrow(MonadKind.DIST, Random(12), X, Y4))
    core = ProbeGrid.default(Y4, random_count=0).predicates
    peaks = []
    for count in (150, 600):
        grid = ProbeGrid.explicit(Y4, core + tuple(ProbeGrid.random_tuples(Y4, 5, count)))
        assert grid.lattice.one == 840 * 4
        tracemalloc.start()
        try:
            verdict = run_condition("emod", phi, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert verdict.is_healthy
    assert peaks[1] < 6 * peaks[0] and peaks[1] < 1 << 19, peaks
