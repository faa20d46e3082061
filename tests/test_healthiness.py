from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from wpbench.modalities import builtin_modality
from wpbench.monads import MonadKind, enumerate_arrows, random_arrow
from wpbench.semantics import (
    BooleanTransformer,
    RationalTransformer,
    pt_alternating,
    pt_modality,
    wp_box,
    wp_diamond,
)
from wpbench.verdicts import witness_is_sound

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


def test_run_condition_names(Y2):
    assert run_condition("join", identity_transformer(Y2)).is_healthy
    with pytest.raises(ValueError):
        run_condition("bogus", identity_transformer(Y2))
    with pytest.raises(TypeError):
        run_condition("join", linear_transformer(Y2, Y2, [[F(1), F(0)], [F(0), F(1)]]))


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


def test_integer_kernel_agrees_with_fraction_route(Y3):
    # each closed form, once with its integer rows and once wrapped as an
    # opaque rule, under every rational condition (healthy or not) and on two
    # grids with different common denominators
    X = FinSet("X", ("x0", "x1"))
    rng = Random(31)
    core = ProbeGrid.default(Y3, random_count=0).predicates
    off_lattice = [tuple(F(rng.randint(0, d), d) for _ in range(3)) for d in (7, 9) * 6]
    grids = (
        ProbeGrid.default(Y3),
        ProbeGrid.explicit(Y3, core + tuple(off_lattice), scalars=(0, F(1, 3), F(1, 2), 1)),
    )
    assert [g.lattice.one for g in grids] == [840 * 4, 63 * 6]
    statuses = set()
    for name in ("total", "partial", "convex", "tau_r:1/3", "demonic_prob"):
        mod = builtin_modality(name)
        for _ in range(2):
            phi = pt_modality(mod, random_arrow(mod.monad, rng, X, Y3))
            opaque = RationalTransformer(Y3, X, lambda v, phi=phi: phi.fn(v), label="opaque")
            assert phi.rows is not None and opaque.rows is None
            for grid in grids:
                for condition in RATIONAL_CONDITIONS:
                    kernel = run_condition(condition, phi, grid)
                    fraction = run_condition(condition, opaque, grid)
                    assert _verdict_fields(kernel) == _verdict_fields(fraction)
                    if kernel.is_unhealthy:
                        assert witness_is_sound(phi, kernel.witness)
                    statuses.add(kernel.status)
    assert statuses == {"healthy", "unhealthy"}
