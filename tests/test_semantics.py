import itertools
import time
import tracemalloc
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpbench import semantics
from wpbench.core import FinSet
from wpbench.healthiness import ProbeGrid, run_condition
from wpbench.modalities import (
    BOOLEAN,
    INSTANCES,
    Modality,
    algebra_to_monad_map,
    builtin_modality,
    monad_map_to_algebra,
)
from wpbench.monads import (
    BOT,
    DistV,
    KleisliArrow,
    MonadKind,
    enumerate_arrows,
    kleisli_compose,
    random_arrow,
    unit,
    up_closure,
)
from wpbench.semantics import (
    BooleanTransformer,
    RationalTransformer,
    check_functoriality,
    pt_alternating,
    pt_modality,
    wp_box,
    wp_diamond,
)
from wpbench.verdicts import Verdict, Witness, witness_is_sound

F = Fraction


def relation_arrows(X, Y):
    return list(enumerate_arrows(MonadKind.POWERSET, X, Y))


def test_wp_diamond_empty_and_identity(X2, Y2):
    empty = KleisliArrow("powerset", X2, Y2, {"x0": [], "x1": []})
    phi = wp_diamond(empty)
    assert all(m == 0 for m in phi.table)
    ident = unit(MonadKind.POWERSET, Y2)
    assert wp_diamond(ident).table == tuple(range(4))


def test_wp_diamond_total_single_source(Y2):
    X = FinSet("X", ("x",))
    total = KleisliArrow("powerset", X, Y2, {"x": ["y0", "y1"]})
    phi = wp_diamond(total)
    # phi(f)(x) = f(y0) or f(y1)
    assert phi.table == (0, 1, 1, 1)


def test_wp_box_empty_identity_total(X2, Y2):
    empty = KleisliArrow("powerset", X2, Y2, {"x0": [], "x1": []})
    assert all(m == 3 for m in wp_box(empty).table)
    ident = unit(MonadKind.POWERSET, Y2)
    assert wp_box(ident).table == tuple(range(4))
    X = FinSet("X", ("x",))
    total = KleisliArrow("powerset", X, Y2, {"x": ["y0", "y1"]})
    assert wp_box(total).table == (0, 0, 0, 1)


def test_wp_equals_generic_route_small_sizes():
    diamond = builtin_modality("diamond")
    box = builtin_modality("box")
    for nx in (1, 2, 3):
        for ny in (1, 2, 3):
            X = FinSet("X", tuple(f"x{i}" for i in range(nx)))
            Y = FinSet("Y", tuple(f"y{i}" for i in range(ny)))
            for R in relation_arrows(X, Y):
                assert wp_diamond(R).table == pt_modality(diamond, R).table
                assert wp_box(R).table == pt_modality(box, R).table


def test_pt_unit_is_identity_all_monads(Y3):
    rng = Random(1)
    grid = ProbeGrid.default(Y3, seed=5)
    for name in ("diamond", "box", "total", "partial", "convex", "dijkstra", "game", "demonic_prob"):
        mod = builtin_modality(name)
        ident = unit(mod.monad, Y3)
        phi = pt_modality(mod, ident)
        if isinstance(phi, BooleanTransformer):
            assert phi.table == tuple(range(1 << len(Y3)))
        else:
            for p in grid.predicates[:20]:
                assert phi.apply_values(p) == tuple(p)


def test_pt_subdist_total_expectation(Y2):
    X = FinSet("X", ("x",))
    f = KleisliArrow("subdist", X, Y2, {"x": {"y0": F(1, 2), "y1": F(1, 4)}})
    phi = pt_modality(builtin_modality("total"), f)
    assert phi.apply_values((F(1), F(0)))[0] == F(1, 2)
    assert phi.apply_values((F(0), F(1)))[0] == F(1, 4)
    assert phi.apply_values((F(1), F(1)))[0] == F(3, 4)


def test_pt_subdist_partial_divergence_is_truth(Y2):
    X = FinSet("X", ("x",))
    f = KleisliArrow("subdist", X, Y2, {"x": {}})
    phi = pt_modality(builtin_modality("partial"), f)
    for p in ((F(0), F(0)), (F(1, 2), F(1, 3)), (F(1), F(1))):
        assert phi.apply_values(p) == (F(1),)


def test_pt_alternating_game_unit(Y2):
    X = FinSet("X", ("x",))
    f = KleisliArrow("up_powerset", X, Y2, {"x": up_closure([frozenset({"y0"})], Y2)})
    phi = pt_alternating("game", f)
    # evaluation at y0: phi(g) = g(y0)
    assert phi.table == (0, 1, 0, 1)


def test_pt_alternating_lift_bottom_fails_everything(Y2):
    X = FinSet("X", ("x",))
    f = KleisliArrow("lift_powerset", X, Y2, {"x": frozenset({BOT})})
    phi = pt_alternating("dijkstra", f)
    assert phi.table == (0, 0, 0, 0)


def test_pt_alternating_lift_subset_semantics(Y2):
    X = FinSet("X", ("x",))
    f = KleisliArrow("lift_powerset", X, Y2, {"x": frozenset({"y0", "y1"})})
    phi = pt_alternating("dijkstra", f)
    # 1 iff no bottom and chosen set inside the truth set
    assert phi.table == (0, 0, 0, 1)


def test_pt_alternating_cv_min_at_vertices(Y2):
    X = FinSet("X", ("x",))
    f = KleisliArrow("cv_dist", X, Y2, {"x": (DistV.dirac("y0"), DistV.dirac("y1"))})
    phi = pt_alternating("demonic_prob", f)
    assert phi.apply_values((F(1, 3), F(2, 3))) == (F(1, 3),)
    assert phi.apply_values((F(1), F(0))) == (F(0),)


def test_cv_min_never_beaten_by_interior_points(Y3):
    # linearity: interior points of the polytope cannot go below the
    # vertex minimum; checked against brute-forced rational mixtures
    rng = Random(9)
    X = FinSet("X", ("x",))
    for _ in range(20):
        f = random_arrow("cv_dist", rng, X, Y3)
        phi = pt_alternating("demonic_prob", f)
        vertices = f.row("x")
        for p in ProbeGrid.default(Y3, seed=2).predicates[:15]:
            vertex_min = phi.apply_values(p)[0]
            for w in (F(1, 2), F(1, 3), F(1, 4)):
                for va, vb in itertools.combinations(vertices, 2) if len(vertices) > 1 else []:
                    interior = DistV.mix([(w, va), (1 - w, vb)])
                    val = sum(
                        (q * p[Y3.index(y)] for y, q in interior.items()), F(0)
                    )
                    assert val >= vertex_min


def test_functoriality_powerset_exhaustive_small():
    diamond = builtin_modality("diamond")
    X = FinSet("X", ("x0",))
    Y = FinSet("Y", ("y0", "y1"))
    Z = FinSet("Z", ("z0",))
    for f in relation_arrows(X, Y):
        for g in relation_arrows(Y, Z):
            assert check_functoriality(diamond, f, g).is_healthy


def test_functoriality_unit_case(Y2):
    mod = builtin_modality("box")
    f = unit(MonadKind.POWERSET, Y2)
    g = unit(MonadKind.POWERSET, Y2)
    assert check_functoriality(mod, f, g).is_healthy


def test_functoriality_rational_monads(Y2):
    rng = Random(6)
    X = FinSet("X", ("x0", "x1"))
    Z = FinSet("Z", ("z0", "z1"))
    for name, kind in (("total", "subdist"), ("convex", "dist"), ("demonic_prob", "cv_dist")):
        mod = builtin_modality(name)
        for _ in range(5):
            f = random_arrow(kind, rng, X, Y2)
            g = random_arrow(kind, rng, Y2, Z)
            verdict = check_functoriality(mod, f, g)
            assert verdict.is_healthy, f"{name}: {verdict.describe()}"


def test_functoriality_corrupted_composition_detected(Y2):
    # row-wise pairing instead of Kleisli composition
    diamond = builtin_modality("diamond")
    X = FinSet("X", ("x0", "x1"))
    Z = FinSet("Z", ("z0", "z1"))
    f = KleisliArrow("powerset", X, Y2, {"x0": ["y0"], "x1": ["y1"]})
    g = KleisliArrow("powerset", Y2, Z, {"y0": ["z1"], "y1": []})
    composed = kleisli_compose(f, g)
    paired = KleisliArrow("powerset", X, Z, {"x0": ["z0"], "x1": ["z1"]})
    lhs = pt_modality(diamond, paired)
    rhs_f, rhs_g = pt_modality(diamond, f), pt_modality(diamond, g)
    composed_tables = tuple(rhs_f.apply_mask(rhs_g.apply_mask(m)) for m in range(4))
    assert lhs.table != composed_tables
    assert pt_modality(diamond, composed).table == composed_tables


def test_functoriality_builds_each_transformer_once(Y2, monkeypatch):
    calls = []
    compose = semantics.kleisli_compose
    monkeypatch.setattr(semantics, "kleisli_compose", lambda f, g: calls.append(1) or compose(f, g))
    rng = Random(8)
    Z = FinSet("Z", ("z0", "z1"))
    f = random_arrow("subdist", rng, Y2, Y2)
    g = random_arrow("subdist", rng, Y2, Z)
    verdict = check_functoriality(builtin_modality("total"), f, g)
    assert verdict.is_healthy and verdict.checked > 100
    assert len(calls) == 1


@pytest.mark.parametrize("seed", (3, 8))
def test_functoriality_default_probes(Y2, seed):
    # the default grid over g's target padded to 100 probes, then the
    # default grid over f's source; the tuples are shared between calls
    rng = Random(seed)
    X = FinSet("X", ("x0",))
    Z = FinSet("Z", ("z0", "z1", "z2"))
    f, g = random_arrow("subdist", rng, X, Y2), random_arrow("subdist", rng, Y2, Z)
    probes = ProbeGrid.default(Z, seed=seed).value_tuples()
    probes += ProbeGrid.random_tuples(Z, seed + 1, 100 - len(probes))
    expected = len(probes) + len(ProbeGrid.default(X, seed=seed).value_tuples())
    for _ in range(2):
        verdict = check_functoriality("total", f, g, seed=seed)
        assert verdict.is_healthy and verdict.checked == expected
    assert check_functoriality("total", f, g, probes=probes, seed=seed) == verdict


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(("total", "partial", "convex", "tau_r:1/3", "demonic_prob")),
    st.integers(min_value=0, max_value=1 << 16),
    st.lists(st.tuples(st.sampled_from((1, 2, 7, 9, 11)), st.integers(0, 11)), min_size=3, max_size=3),
)
def test_closed_forms_agree_with_generic_evaluation(name, seed, pred):
    # denominators 7, 9 and 11 lie outside the default grid's lattice, so the
    # Fraction entry point of the integer rows does the scaling
    mod = builtin_modality(name)
    X, Y = FinSet("X", ("x0", "x1")), FinSet("Y", ("y0", "y1", "y2"))
    arrow = random_arrow(mod.monad, Random(seed), X, Y)
    p = tuple(F(min(k, d), d) for d, k in pred)
    phi = pt_modality(mod, arrow)
    assert phi.rows is not None
    val = lambda y: p[Y.index(y)]
    assert phi.apply_values(p) == tuple(mod.evaluate(row, val) for row in arrow.rows)


@pytest.mark.parametrize("theorem", ("may", "must", "game", "dijkstra"))
def test_boolean_closed_forms_agree_with_generic_evaluation(theorem):
    # every T-value over up to three elements as a one-row arrow (empty rows,
    # rows holding bottom, the empty family and families holding the empty
    # set), and random arrows with up to ten rows (output masks above 255)
    mod, rng = INSTANCES[theorem], Random(11)
    arrows = []
    for ny in range(4):
        Y = FinSet("Y", tuple(f"y{j}" for j in range(ny)))
        arrows += enumerate_arrows(mod.monad, FinSet("X", ("x0",)), Y)
        for nx in (2, 3, 9, 10):
            X = FinSet("X", tuple(f"x{i}" for i in range(nx)))
            arrows += [random_arrow(mod.monad, rng, X, Y) for _ in range(4)]
    for arrow in arrows:
        Y = arrow.target
        table = pt_modality(mod, arrow).table
        for m in range(1 << len(Y)):
            val = lambda y: (m >> Y.index(y)) & 1
            want = sum(1 << i for i, row in enumerate(arrow.rows) if mod.evaluate(row, val))
            assert table[m] == want, (arrow, m)


def test_boolean_closed_forms_stay_linear_in_the_table_size():
    # a relation into 16 states: 2^16 output masks, built in time and memory
    # proportional to the table, checked against the generic rule at samples
    X = FinSet("X", ("x0", "x1", "x2"))
    Y = FinSet("Y", tuple(f"y{j}" for j in range(16)))
    R = KleisliArrow("powerset", X, Y, {"x0": Y.elements, "x1": [], "x2": ("y3", "y9", "y15")})
    tracemalloc.start()
    start = time.perf_counter()
    tables = {"may": wp_diamond(R).table, "must": wp_box(R).table}
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 30 and peak < 16 << 20, (elapsed, peak)
    rng = Random(4)
    for m in [0, (1 << 16) - 1, 1 << 3 | 1 << 9 | 1 << 15] + [rng.getrandbits(16) for _ in range(40)]:
        val = lambda y: (m >> Y.index(y)) & 1
        for theorem, table in tables.items():
            mod = INSTANCES[theorem]
            assert table[m] == sum(1 << i for i, row in enumerate(R.rows) if mod.evaluate(row, val))


def test_closed_forms_are_chosen_by_what_the_modality_is(X1, Y2):
    # the partial algebra, recovered from its monad map and named "total",
    # is no catalog row: it takes the generic route and keeps its value
    f = KleisliArrow("subdist", X1, Y2, {"x0": DistV({"y0": F(1, 2)})})
    partial = monad_map_to_algebra(algebra_to_monad_map(INSTANCES["subdist_partial"]), name="total")
    phi = pt_modality(partial, f)
    assert phi.rows is None
    assert phi.apply_values((0, 0)) == (F(1, 2),)
    assert pt_modality("tau_r:1/3", f).rows is not None
    # a Boolean modality named "diamond" with the box rule evaluates as box
    boxed = Modality("diamond", MonadKind.POWERSET, BOOLEAN, "cl_join", INSTANCES["must"].evaluate)
    R = KleisliArrow("powerset", X1, Y2, {"x0": ["y0", "y1"]})
    assert pt_modality(boxed, R).table == wp_box(R).table == (0, 0, 0, 1)


def test_rational_output_denominators_divide_products(Y3):
    # exactness invariant: output denominators divide the product of the
    # predicate and row denominators
    rng = Random(12)
    X = FinSet("X", ("x0", "x1"))
    grid = ProbeGrid.default(Y3, seed=12)
    for name, kind in (("total", "subdist"), ("partial", "subdist"), ("convex", "dist")):
        mod = builtin_modality(name)
        for _ in range(10):
            f = random_arrow(kind, rng, X, Y3)
            phi = pt_modality(mod, f)
            for p in grid.predicates[:20]:
                out = phi.apply_values(p)
                bound = 1
                for v in p:
                    bound *= v.denominator
                for x in X.elements:
                    for _, q in f.row(x).items():
                        bound *= q.denominator
                for v in out:
                    assert bound % v.denominator == 0


def test_transformer_validation(Y2, X2):
    with pytest.raises(ValueError):
        BooleanTransformer(Y2, X2, (0, 1, 2))  # wrong length
    with pytest.raises(ValueError):
        BooleanTransformer(Y2, X2, (0, 1, 2, 4))  # mask out of range
    phi = RationalTransformer(Y2, X2, lambda v: (F(2), F(0)))
    with pytest.raises(ValueError):
        phi.apply_values((F(0), F(0)))  # output outside [0,1]


def test_apply_values_refuses_floats(Y2, X1):
    # a rule in floats would decide laws on rounding: under gemod_total its
    # sum law fails at 0.9166666666666667 != 0.9166666666666666
    halves = RationalTransformer(Y2, X1, lambda v: (0.5 * v[0] + 0.5 * v[1],))
    with pytest.raises(TypeError, match="float"):
        halves.apply_values((F(1, 3), F(1, 2)))
    with pytest.raises(TypeError, match="float"):
        run_condition("gemod_total", halves)
    exact = RationalTransformer(Y2, X1, lambda v: (v[0] / 2 + v[1] / 2,))
    with pytest.raises(TypeError, match="0.1"):
        exact.apply_values((0.1, 0))
    assert exact.apply_values((0, F(1, 5))) == (F(1, 10),)
    assert run_condition("gemod_total", exact).is_healthy


# check_functoriality against its Fraction loop, kept here as the
# reference: verdicts, checked counts, witnesses and errors must agree.
# The last case has no closed form, so both of its sides are rules.
FUNCTOR_CASES = (
    (builtin_modality("total"), "subdist"),
    (builtin_modality("convex"), "dist"),
    (builtin_modality("demonic_prob"), "cv_dist"),
    (monad_map_to_algebra(algebra_to_monad_map(INSTANCES["subdist_total"])), "subdist"),
)


def fraction_check_functoriality(mod, f, g, probes=None, seed=3):
    """The rational check as a Fraction loop; names resolve in ``semantics``, so patches reach it."""
    preds = list(probes) if probes is not None else semantics._functor_probes(len(g.target), seed)[1][0]
    id_preds = semantics._functor_probes(len(f.source), seed)[0][0]
    composed = semantics.pt_modality(mod, semantics.kleisli_compose(f, g))
    pf, pg = semantics.pt_modality(mod, f), semantics.pt_modality(mod, g)
    for k, pred in enumerate(preds):
        lhs, rhs = composed.apply_values(pred), pf.apply_values(pg.apply_values(pred))
        if lhs != rhs:
            args = {"modality": mod, "f": f, "g": g, "pred": pred}
            return Verdict.unhealthy(Witness("functor.compose", args, lhs, rhs), k + 1)
    ident = semantics.pt_modality(mod, semantics.unit(mod.monad, f.source))
    for k, pred in enumerate(id_preds):
        lhs, rhs = ident.apply_values(pred), tuple(pred)
        if lhs != rhs:
            args = {"modality": mod, "carrier": f.source, "pred": pred}
            return Verdict.unhealthy(Witness("functor.identity", args, lhs, rhs), len(preds) + k + 1)
    return Verdict.healthy(len(preds) + len(id_preds))


def _both_functor_routes(mod, f, g):
    outcome = lambda v: (v.status, v.checked, v.witness.describe() if v.witness else None)
    return outcome(check_functoriality(mod, f, g)), outcome(fraction_check_functoriality(mod, f, g))


def _sized_carriers():
    for sizes in itertools.product((1, 2), repeat=3):
        yield tuple(FinSet(name, tuple(f"{name.lower()}{i}" for i in range(n))) for name, n in zip("XYZ", sizes))


def test_functoriality_routes_agree_on_seeded_arrows():
    rng = Random(16)
    for mod, kind in FUNCTOR_CASES:
        for X, Y, Z in _sized_carriers():
            f, g = random_arrow(kind, rng, X, Y), random_arrow(kind, rng, Y, Z)
            integer, fraction = _both_functor_routes(mod, f, g)
            assert integer == fraction and integer[0] == "healthy", (mod.name, integer, fraction)


def test_functoriality_routes_agree_on_a_broken_composite(monkeypatch):
    # the composite of f with an unrelated arrow h in place of g; the
    # identity law meets a unit that swaps the points of a two-point carrier
    rng = Random(17)
    swap = lambda kind, C: KleisliArrow(kind, C, C, unit(kind, C).rows[::-1])
    seen = set()
    for mod, kind in FUNCTOR_CASES:
        for X, Y, Z in _sized_carriers():
            f, g, h = (random_arrow(kind, rng, A, B) for A, B in ((X, Y), (Y, Z), (Y, Z)))
            for patch in (("kleisli_compose", lambda f, g, h=h: kleisli_compose(f, h)), ("unit", swap)):
                with monkeypatch.context() as m:
                    m.setattr(semantics, *patch)
                    integer, fraction = _both_functor_routes(mod, f, g)
                    witness = check_functoriality(mod, f, g).witness
                    # the witness replays under the fault, and not without it
                    assert witness is None or witness_is_sound(None, witness), (mod.name, integer)
                assert witness is None or not witness_is_sound(None, witness), (mod.name, integer)
                assert integer == fraction, (mod.name, integer, fraction)
                seen.add((mod.closed_form is None, integer[2].split()[0] if integer[2] else None))
    for opaque in (False, True):
        assert {(opaque, "functor.compose"), (opaque, "functor.identity")} <= seen, seen


def test_healthy_closed_form_functoriality_evaluates_no_transformer(monkeypatch):
    # the integer route decides: no transformer is evaluated
    built, calls = [], []
    real, apply_values = semantics.pt_modality, RationalTransformer.apply_values
    monkeypatch.setattr(semantics, "pt_modality", lambda *args: built.append(real(*args)) or built[-1])
    monkeypatch.setattr(RationalTransformer, "apply_values", lambda self, p: calls.append(p) or apply_values(self, p))
    rng = Random(18)
    X, Y, Z = FinSet("X", ("x0", "x1")), FinSet("Y", ("y0", "y1")), FinSet("Z", ("z0", "z1"))
    closed = [(mod, kind) for mod, kind in FUNCTOR_CASES if mod.closed_form is not None]
    for mod, kind in closed:
        for _ in range(3):
            f, g = random_arrow(kind, rng, X, Y), random_arrow(kind, rng, Y, Z)
            assert check_functoriality(mod, f, g).is_healthy
    assert len(built) == 4 * 3 * len(closed)
    assert all(phi.rows is not None for phi in built)
    assert len(calls) == 0


@pytest.mark.parametrize("probe", [(F(1, 2),), (F(3, 2), F(1, 2)), (F(1, 2), F(-1, 3)), (F(1, 2), 0.5)])
def test_functoriality_refuses_bad_probes_on_both_routes(probe):
    # a probe of the wrong width, or one whose image leaves [0, 1], raises
    # ValueError where the Fraction loop meets it; a float, TypeError
    X, Y, Z = FinSet("X", ("x0", "x1")), FinSet("Y", ("y0", "y1")), FinSet("Z", ("z0", "z1"))
    f = KleisliArrow("dist", X, Y, [DistV({"y0": F(1, 2), "y1": F(1, 2)}), DistV.dirac("y1")])
    g = KleisliArrow("dist", Y, Z, [DistV.dirac("z0"), DistV({"z0": F(1, 4), "z1": F(3, 4)})])
    probes = ProbeGrid.default(Z).value_tuples() + [probe]
    error = TypeError if isinstance(probe[-1], float) else ValueError
    for mod in (builtin_modality("convex"), monad_map_to_algebra(algebra_to_monad_map(INSTANCES["dist_convex"]))):
        with pytest.raises(error) as integer:
            check_functoriality(mod, f, g, probes=probes)
        with pytest.raises(error) as fraction:
            fraction_check_functoriality(mod, f, g, probes=probes)
        assert str(integer.value) == str(fraction.value)
