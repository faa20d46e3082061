import dataclasses
import hashlib
import itertools
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wpbench
from wpbench.core import FinSet
from wpbench.modalities import INSTANCES
from wpbench.monads import (
    BOT,
    MONADS,
    ContinuationTarget,
    DistV,
    KindTarget,
    KleisliArrow,
    MonadKind,
    MonadMapSpec,
    RowError,
    check_monad_laws,
    check_monad_map_laws,
    cv_values_equal,
    dedup_vertices,
    enumerate_arrows,
    is_up_closed,
    kleisli_compose,
    random_arrow,
    sigma_prime_spec,
    sigma_spec,
    support_map_spec,
    unit,
    up_closure,
)
from wpbench.monads import _extend_set, _mix_rows
from wpbench.verdicts import witness_is_sound

F = Fraction
SUBSETS = MONADS[MonadKind.POWERSET].tvalues


@pytest.fixture
def carriers():
    return [FinSet("A", ("a0",)), FinSet("B", ("b0", "b1"))]


def test_unit_values(Y2):
    assert MONADS[MonadKind.POWERSET].unit(Y2, "y0") == frozenset({"y0"})
    assert MONADS[MonadKind.DIST].unit(Y2, "y1") == DistV.dirac("y1")
    # up-closure of {{y0}} inside {y0, y1}
    assert MONADS[MonadKind.UP_POWERSET].unit(Y2, "y0") == frozenset(
        {frozenset({"y0"}), frozenset({"y0", "y1"})}
    )
    assert MONADS[MonadKind.LIFT_POWERSET].unit(Y2, "y0") == frozenset({"y0"})
    assert MONADS[MonadKind.CV_DIST].unit(Y2, "y0") == (DistV.dirac("y0"),)


def test_kleisli_compose_powerset_union_oracle(X1, Y2):
    Z = FinSet("Z", ("z",))
    f = KleisliArrow("powerset", X1, Y2, {"x0": ["y0", "y1"]})
    g = KleisliArrow("powerset", Y2, Z, {"y0": ["z"], "y1": []})
    composed = kleisli_compose(f, g)
    assert composed.row("x0") == frozenset({"z"})


def test_kleisli_compose_subdist_sum_product(X1, Y2):
    Z = FinSet("Z", ("z",))
    f = KleisliArrow("subdist", X1, Y2, {"x0": {"y0": F(1, 2)}})
    g = KleisliArrow("subdist", Y2, Z, {"y0": {"z": F(1, 2)}, "y1": {}})
    composed = kleisli_compose(f, g)
    assert composed.row("x0") == DistV({"z": F(1, 4)})


def test_compose_with_units_is_identity(carriers):
    rng = Random(0)
    for kind in MonadKind:
        f = random_arrow(kind, rng, carriers[0], carriers[1])
        left = kleisli_compose(unit(kind, carriers[0]), f)
        right = kleisli_compose(f, unit(kind, carriers[1]))
        for x in carriers[0].elements:
            if kind == MonadKind.CV_DIST:
                assert cv_values_equal(left.row(x), f.row(x), f.target)
                assert cv_values_equal(right.row(x), f.row(x), f.target)
            else:
                assert left.row(x) == f.row(x)
                assert right.row(x) == f.row(x)


def test_lift_bottom_contributes_bottom(X1, Y2):
    Z = FinSet("Z", ("z",))
    f = KleisliArrow("lift_powerset", X1, Y2, {"x0": frozenset(["y0", BOT])})
    g = KleisliArrow("lift_powerset", Y2, Z, {"y0": ["z"], "y1": ["z"]})
    composed = kleisli_compose(f, g)
    assert composed.row("x0") == frozenset({"z", BOT})


def test_up_closure():
    Y = FinSet("Y", ("a", "b"))
    assert up_closure([], Y) == frozenset()
    closed = up_closure([frozenset({"a"})], Y)
    assert closed == frozenset({frozenset({"a"}), frozenset({"a", "b"})})
    assert up_closure(closed, Y) == closed  # idempotent
    assert is_up_closed(closed, Y)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=255))
def test_up_closure_idempotent_random(mask):
    Y = FinSet("Y", ("a", "b", "c"))
    subsets = SUBSETS(Y)
    fam = [s for i, s in enumerate(subsets) if (mask >> i) & 1]
    closed = up_closure(fam, Y)
    assert up_closure(closed, Y) == closed
    assert is_up_closed(closed, Y)


def test_up_closed_families_match_the_closure_filter():
    # every family over n <= 3 elements, in mask order, kept iff its closure
    # adds nothing; 168 at n = 4 is the Dedekind number (OEIS A000372)
    for n in range(4):
        Y = FinSet("Y", tuple(f"y{i}" for i in range(n)))
        subsets = SUBSETS(Y)
        families = [
            frozenset(s for i, s in enumerate(subsets) if (m >> i) & 1) for m in range(1 << (1 << n))
        ]
        closed = [fam for fam in families if up_closure(fam, Y) == fam]
        assert [is_up_closed(fam, Y) for fam in families] == [fam in closed for fam in families]
        assert MONADS[MonadKind.UP_POWERSET].tvalues(Y) == closed
    Y4 = FinSet("Y", ("a", "b", "c", "d"))
    assert len(MONADS[MonadKind.UP_POWERSET].tvalues(Y4)) == 168


def test_monad_laws_enumerable_exhaustive(carriers):
    for kind in ("powerset", "lift_powerset", "up_powerset"):
        verdict = check_monad_laws(kind, carriers)
        assert verdict.is_healthy, verdict.describe()


def test_monad_laws_sampled(carriers):
    for kind in ("subdist", "dist", "cv_dist"):
        verdict = check_monad_laws(kind, carriers, sample_count=60, seed=4)
        assert verdict.is_healthy, verdict.describe()


def test_monad_laws_corrupted_composition_witnessed(carriers):
    def bad_compose(f, g):
        # union replaced by intersection
        if f.kind == MonadKind.POWERSET:
            rows = []
            for x in f.source.elements:
                row = None
                for y in f.row(x):
                    row = g.row(y) if row is None else (row & g.row(y))
                rows.append(row if row is not None else frozenset())
            return KleisliArrow(f.kind, f.source, g.target, rows)
        return kleisli_compose(f, g)

    verdict = check_monad_laws("powerset", carriers, compose=bad_compose)
    assert verdict.is_unhealthy
    assert verdict.witness.law in ("monad.left_unit", "monad.right_unit", "monad.assoc")
    assert witness_is_sound(bad_compose, verdict.witness)
    assert not witness_is_sound(kleisli_compose, verdict.witness)


def test_monad_laws_left_unit_witness_replays(carriers):
    # a composition that empties the first state's row breaks the left unit
    # law, which is checked first
    def lossy(f, g):
        h = kleisli_compose(f, g)
        return KleisliArrow(h.kind, h.source, h.target, [frozenset(), *h.rows[1:]])

    verdict = check_monad_laws("powerset", carriers, compose=lossy)
    assert verdict.witness.law == "monad.left_unit"
    assert witness_is_sound(lossy, verdict.witness)
    assert not witness_is_sound(kleisli_compose, verdict.witness)


ENUMERABLE = ("powerset", "lift_powerset", "up_powerset")


def _supplied_compose(f, g):
    # any supplied composition runs the loop over every triple of arrows
    return kleisli_compose(f, g)


@pytest.mark.parametrize("kind", ENUMERABLE)
def test_monad_law_routes_agree_on_healthy_monads(kind, carriers):
    per_value = check_monad_laws(kind, carriers)
    per_triple = check_monad_laws(kind, carriers, compose=_supplied_compose)
    assert per_value.is_healthy and per_triple.is_healthy
    expected = {"powerset": 7458, "lift_powerset": 169492, "up_powerset": 75060}[kind]
    assert per_value.checked == per_triple.checked == expected


def test_monad_law_counts_keep_carriers_apart_that_share_a_name():
    # hom-set sizes are keyed by carrier position, not by name
    same_name = [FinSet("A", ("a0",)), FinSet("A", ("a0", "a1"))]
    per_value = check_monad_laws("powerset", same_name)
    per_triple = check_monad_laws("powerset", same_name, compose=_supplied_compose)
    assert per_value.checked == per_triple.checked == 7458


# the largest T-value over a two-point carrier, composed into a one-point
# carrier, goes to the smallest; unit arrows never meet it
ROW_FAULTS = {
    "powerset": (lambda Y: frozenset(Y.elements), frozenset()),
    "lift_powerset": (lambda Y: frozenset(Y.elements), frozenset({BOT})),
    "up_powerset": (lambda Y: frozenset(SUBSETS(Y)), frozenset()),
}


@pytest.mark.parametrize("kind", ENUMERABLE)
def test_monad_law_routes_agree_on_a_row_wise_fault(kind, carriers, monkeypatch):
    largest, smallest = ROW_FAULTS[kind]
    monad = MONADS[MonadKind(kind)]

    def faulty(value, g):
        if len(g.source) == 2 and len(g.target) == 1 and value == largest(g.source):
            return smallest
        return monad.extend(value, g)

    monkeypatch.setitem(MONADS, monad.kind, dataclasses.replace(monad, extend=faulty))
    per_value = check_monad_laws(kind, carriers)
    per_triple = check_monad_laws(kind, carriers, compose=_supplied_compose)
    assert per_value.is_unhealthy and per_value.witness.law == "monad.assoc"
    assert per_value.status == per_triple.status
    assert per_value.checked == per_triple.checked
    assert per_value.witness == per_triple.witness
    assert witness_is_sound(kleisli_compose, per_value.witness)
    if kind == "powerset":
        assert per_value.checked == 272


def _assert_valid_rows(arrow):
    for row in arrow.rows:
        assert MONADS[arrow.kind].validate(arrow.target, row) == row


def test_composites_and_units_are_valid_tvalues():
    # kleisli_compose and unit do not validate their rows again
    small = [FinSet(f"C{n}", tuple(f"c{i}" for i in range(n))) for n in range(3)]
    for kind in ENUMERABLE:
        for X, Y, Z in itertools.product(small, repeat=3):
            gs = list(enumerate_arrows(kind, Y, Z))
            for f in enumerate_arrows(kind, X, Y):
                for g in gs:
                    _assert_valid_rows(kleisli_compose(f, g))
    for kind in MonadKind:
        for C in small:
            _assert_valid_rows(unit(kind, C))
    rng = Random(12)
    nonempty = small[1:] + [FinSet("C3", ("c0", "c1", "c2"))]
    for kind in ("subdist", "dist", "cv_dist"):
        for _ in range(150):
            X, Y, Z = (rng.choice(nonempty) for _ in range(3))
            f = random_arrow(kind, rng, X, Y, max_den=rng.choice((2, 6, 16)))
            g = random_arrow(kind, rng, Y, Z, max_den=rng.choice((2, 6, 16)))
            _assert_valid_rows(kleisli_compose(f, g))


def test_cv_composition_vertex_order_independent(X1, Y2):
    Z = FinSet("Z", ("z0", "z1"))
    rng = Random(7)
    f = random_arrow("cv_dist", rng, X1, Y2)
    g = random_arrow("cv_dist", rng, Y2, Z)
    fw = kleisli_compose(f, g)
    f2 = KleisliArrow("cv_dist", X1, Y2, [tuple(reversed(r)) for r in f.rows])
    g2 = KleisliArrow("cv_dist", Y2, Z, [tuple(reversed(r)) for r in g.rows])
    bw = kleisli_compose(f2, g2)
    for x in X1.elements:
        assert frozenset(fw.row(x)) == frozenset(bw.row(x))


def test_dedup_vertices():
    a, b = DistV.dirac("y"), DistV.dirac("z")
    assert dedup_vertices((a, b, a)) == (a, b)


def _assert_laws_and_bijectivity(spec, row, carriers, read_back):
    # the shipped reader of the row inverts the map: every subset comes back
    assert check_monad_map_laws(spec, carriers).is_healthy
    for n in (1, 2, 3):
        X = FinSet("X", tuple(f"x{i}" for i in range(n)))
        subsets = SUBSETS(X)
        result = read_back(row, X, [spec.at(X, S) for S in subsets])
        assert result.ok
        assert list(result.arrow.rows) == subsets


def test_sigma_laws_and_bijectivity(carriers, read_back):
    _assert_laws_and_bijectivity(sigma_spec(), INSTANCES["may"], carriers, read_back)


def test_sigma_prime_laws_and_bijectivity(carriers, read_back):
    _assert_laws_and_bijectivity(sigma_prime_spec(), INSTANCES["must"], carriers, read_back)


def _join_preserving_tables(n):
    """All dense functionals 2^(2^n) -> 2 that preserve joins (oracle)."""
    out = []
    for table in itertools.product((0, 1), repeat=1 << n):
        if table[0]:
            continue
        if all(
            table[m] == max((table[1 << j] for j in range(n) if (m >> j) & 1), default=0)
            for m in range(1 << n)
        ):
            out.append(table)
    return out


def test_sigma_surjective_onto_join_preserving(read_back):
    # sigma(S) = xi for every functional xi in the join target, with S
    # read off xi by the may row's reader
    spec = sigma_spec()
    for n in (1, 2, 3):
        X = FinSet("X", tuple(f"x{i}" for i in range(n)))
        tables = _join_preserving_tables(n)
        assert len(tables) == 1 << n
        index = lambda f: sum(1 << j for j, x in enumerate(X.elements) if f(x))
        xis = [lambda f, table=table: table[index(f)] for table in tables]
        result = read_back(INSTANCES["may"], X, xis)
        assert result.ok
        for S, table in zip(result.arrow.rows, tables):
            rebuilt = spec.at(X, S)
            for bits in itertools.product((0, 1), repeat=n):
                valuation = dict(zip(X.elements, bits))
                idx = sum(1 << j for j, b in enumerate(bits) if b)
                assert rebuilt(lambda x: valuation[x]) == table[idx]


def test_support_map_laws(carriers):
    verdict = check_monad_map_laws(support_map_spec(), carriers, sample_count=40)
    assert verdict.is_healthy, verdict.describe()


def test_corrupted_sigma_membership_fails(carriers):
    bad = dataclasses.replace(
        sigma_spec(), name="bad_sigma", component=lambda elems, s: (lambda f: min((f(x) for x in s), default=1))
    )
    verdict = check_monad_map_laws(bad, carriers)
    assert verdict.is_unhealthy
    assert verdict.witness.law == "map.membership"
    assert witness_is_sound(bad, verdict.witness)


@pytest.mark.parametrize(
    "law, target, component",
    [
        # every T-value goes to the whole carrier
        ("map.unit", KindTarget(MonadKind.POWERSET), lambda elems, s: frozenset(elems)),
        # the empty set goes to the whole carrier, which a function need not cover
        ("map.naturality", KindTarget(MonadKind.POWERSET), lambda elems, s: s or frozenset(elems)),
        # sigma, but the empty set goes to the constant 1, which flattening loses
        ("map.mult", ContinuationTarget(), lambda elems, s: lambda f: max((f(x) for x in s), default=1)),
    ],
)
def test_corrupted_monad_maps_are_witnessed(carriers, law, target, component):
    bad = MonadMapSpec("bad", MonadKind.POWERSET, target, component)
    verdict = check_monad_map_laws(bad, carriers)
    assert verdict.witness.law == law
    assert witness_is_sound(bad, verdict.witness)


def test_tt_values_are_read_off_the_source_row(X1, carriers):
    # T(T X) on LIFT_POWERSET: over one point, the 15 nonempty subsets of
    # its 3 T-values and bottom (unit 1 + naturality 3 + mult 15); over
    # one and two points, 15 + 255 of them
    kind = MonadKind.LIFT_POWERSET
    identity = MonadMapSpec("id", kind, KindTarget(kind), lambda elems, t: t)
    assert check_monad_map_laws(identity, [X1]).describe() == "healthy (19 instances checked)"
    assert check_monad_map_laws(identity, carriers).describe() == "healthy (317 instances checked)"
    # a target multiplication that drops an outer bottom fails only at a
    # TT-value holding one
    target = KindTarget(kind)
    target.mult = lambda ss: frozenset().union(*[inner for inner in ss if inner is not BOT])
    bad = dataclasses.replace(identity, target=target)
    verdict = check_monad_map_laws(bad, [X1])
    assert verdict.witness.law == "map.mult" and BOT in verdict.witness.args["tt"]
    assert witness_is_sound(bad, verdict.witness)


def test_arrow_validation():
    X = FinSet("X", ("x",))
    Y = FinSet("Y", ("y0", "y1"))
    with pytest.raises(ValueError):
        KleisliArrow("subdist", X, Y, {"x": {"y0": F(5, 8), "y1": F(5, 8)}})
    with pytest.raises(ValueError):
        KleisliArrow("dist", X, Y, {"x": {"y0": F(1, 2)}})
    with pytest.raises(ValueError):
        KleisliArrow("lift_powerset", X, Y, {"x": []})
    with pytest.raises(ValueError):
        KleisliArrow("up_powerset", X, Y, {"x": [["y0"]]})  # not up-closed
    with pytest.raises(ValueError):
        KleisliArrow("cv_dist", X, Y, {"x": []})
    with pytest.raises(RowError, match="'nope' is not in set 'Y'") as err:
        KleisliArrow("powerset", X, Y, {"x": ["nope"]})
    assert err.value.code == "E_SET"


def test_the_dict_form_of_an_arrow_names_missing_and_unknown_labels():
    # the list form checks its length; the dict form checks its labels
    X, Y = FinSet("X", ("x0", "x1")), FinSet("Y", ("y0",))
    row = frozenset({"y0"})
    with pytest.raises(ValueError, match=r"missing \['x1'\], unknown labels \[\]"):
        KleisliArrow("powerset", X, Y, {"x0": row})
    with pytest.raises(ValueError, match=r"missing \[\], unknown labels \['z'\]"):
        KleisliArrow("powerset", X, Y, {"x0": row, "x1": row, "z": row})
    assert KleisliArrow("powerset", X, Y, {"x1": row, "x0": frozenset()}).rows == (frozenset(), row)


def test_distv_arithmetic():
    d = DistV({"a": F(1, 2), "b": F(0)})
    assert d.support == frozenset({"a"})
    assert d.mass == F(1, 2)
    assert DistV.mix([(F(1, 2), DistV.dirac("a")), (F(1, 2), DistV.dirac("b"))]) == DistV(
        {"a": F(1, 2), "b": F(1, 2)}
    )
    with pytest.raises(ValueError):
        DistV({"a": F(-1, 2)})


def test_float_weights_are_refused():
    # Fraction(0.1) is 3602879701896397/2^55, not 1/10: a float weight
    # raises instead of being stored inexactly
    X, Y = FinSet("X", ("x",)), FinSet("Y", ("a", "b"))
    with pytest.raises(TypeError, match="float"):
        DistV({"a": 0.1})
    with pytest.raises(TypeError, match="float"):
        KleisliArrow("dist", X, Y, [DistV({"a": 0.3, "b": 0.7})])
    with pytest.raises(TypeError, match="float"):
        KleisliArrow("dist", X, Y, [{"a": 0.3, "b": 0.7}])
    with pytest.raises(TypeError, match="float"):
        DistV.mix([(0.5, DistV.dirac("a")), (Fraction(1, 2), DistV.dirac("b"))])
    assert DistV({"a": "3/10", "b": Fraction(7, 10)}) == DistV({"a": Fraction(3, 10), "b": Fraction(7, 10)})


def test_bool_weights_are_refused():
    # a bool is an int to Python, so True once made a Dirac and False no point
    a, b = DistV.dirac("a"), DistV.dirac("b")
    for weight in (True, False):
        with pytest.raises(TypeError, match="bool"):
            DistV({"a": weight})
        with pytest.raises(TypeError, match="bool"):
            DistV.mix([(weight, a), (Fraction(1, 2), b)])
    assert DistV({"a": 1}) == a and DistV.mix([(1, a)]) == a


def _is_reduced(d):
    return d._den > 0 and all(n > 0 for n in d._nums.values()) and math.gcd(d._den, *d._nums.values()) == 1


def test_every_route_gives_one_reduced_distv():
    # equal, equally hashed and printed whichever route built it
    F = Fraction
    UV = FinSet("UV", ("u", "v"))
    g = KleisliArrow("subdist", UV, FinSet("AB", ("a", "b")), [DistV.dirac("b"), DistV.dirac("a")])
    routes = [
        DistV({"b": F(2, 4), "a": F(1, 4)}),
        DistV([("b", F(1, 4)), ("a", F(3, 12)), ("b", F(2, 8))]),
        DistV.mix([(F(1, 2), DistV.dirac("b")), (F(1, 2), DistV({"a": F(1, 2)}))]),
        DistV({"b1": F(1, 4), "a": F(1, 4), "b2": F(1, 4)}).pushforward(lambda x: x[0]),
        MONADS[MonadKind.SUBDIST].extend(DistV({"u": F(1, 2), "v": F(1, 4)}), g),
        pickle.loads(pickle.dumps(DistV({"b": F(2, 4), "a": F(1, 4)}))),
    ]
    for d in routes:
        assert d == routes[0] and hash(d) == hash(routes[0]) and _is_reduced(d)
        assert repr(d) == "DistV(1/2*'b' + 1/4*'a')"
        assert d.items() == [("b", F(1, 2)), ("a", F(1, 4))] and d.mass == F(3, 4)
    other_order = DistV({"a": F(1, 4), "b": F(1, 2)})
    assert other_order == routes[0] and hash(other_order) == hash(routes[0])
    assert repr(other_order) == "DistV(1/4*'a' + 1/2*'b')"
    ints = [DistV({"a": 1, "b": 2}), DistV([("b", 2), ("a", 1)]), DistV({"b": F(4, 2), "a": F(3, 3)})]
    diracs = [DistV.dirac("x"), DistV({"x": 1}), DistV([("x", F(1, 3)), ("x", F(2, 3))])]
    for same in (ints, diracs, [DistV(), DistV({"a": 0}), DistV.mix([])]):
        assert all(d == same[0] and hash(d) == hash(same[0]) and _is_reduced(d) for d in same)
    assert repr(diracs[2]) == "DistV(1*'x')" and repr(DistV()) == "DistV(0)"


@pytest.mark.parametrize("kind", list(MonadKind))
def test_random_draws_are_valid_and_reduced(kind):
    # random_arrow does not validate its rows again: every drawn row is a
    # valid T-value, and every drawn distribution is reduced
    monad = MONADS[kind]
    X = FinSet("X", ("x0", "x1"))
    for n in range(4):
        Y = FinSet("Y", tuple(f"y{i}" for i in range(n)))
        if not monad.has_tvalues(Y):
            continue
        for seed in range(50):
            value = monad.sample(Random(seed), Y)
            assert monad.validate(Y, value) == value
            arrow = random_arrow(kind, Random(seed), X, Y)
            _assert_valid_rows(arrow)
            assert KleisliArrow(kind, X, Y, arrow.rows) == arrow
            dists = [d for r in (value, *arrow.rows) for d in (r if kind == MonadKind.CV_DIST else [r])]
            assert all(_is_reduced(d) for d in dists if isinstance(d, DistV))


def pairs_mix(weighted):
    """``DistV.mix`` as it was: every product c * q as a Fraction pair,
    summed by the constructor."""
    pairs = []
    for c, d in weighted:
        pairs.extend((x, c * q) for x, q in d.items())
    return DistV(pairs)


def _mix_inputs(rng, Y):
    weights = (F(0), F(1), F(1, 2), F(1, 3), F(2, 7), F(5, 12), 0, 1, 3)
    for _ in range(200):
        kind = rng.choice((MonadKind.SUBDIST, MonadKind.DIST))
        yield [(rng.choice(weights), MONADS[kind].sample(rng, Y)) for _ in range(rng.randint(0, 4))]


def _outcome(fn, weighted):
    try:
        d = fn(weighted)
    except ValueError as exc:
        return "ValueError", str(exc)
    return d, hash(d), repr(d)


def test_integer_mix_matches_the_pairs_mix():
    # equal, equally hashed and printed (the dict keeps first appearance);
    # zero weights add no point, and a negative one fails with the same error
    rng = Random(21)
    Y = FinSet("Y", ("y0", "y1", "y2"))
    for weighted in _mix_inputs(rng, Y):
        assert _outcome(DistV.mix, weighted) == _outcome(pairs_mix, weighted)
        negative = weighted + [(F(-1, 3), DistV.dirac("y1"))]
        assert _outcome(DistV.mix, negative) == _outcome(pairs_mix, negative)
    assert _outcome(DistV.mix, [(F(-1, 2), DistV.dirac("y0"))])[0] == "ValueError"
    assert DistV.mix([(F(-1, 2), DistV())]) == DistV()


def pairs_cv_compose(value, g):
    verts = []
    for mu in value:
        supp = sorted(mu.support, key=g.source.index)
        for choice in itertools.product(*(g.row(y) for y in supp)):
            verts.append(pairs_mix((mu.weight(y), nu) for y, nu in zip(supp, choice)))
    return dedup_vertices(verts)


def test_cv_composite_vertices_match_the_pairs_route():
    # vertices deduplicated on integer keys keep the first of equal ones,
    # in the same order and with the same weights
    rng = Random(22)
    Y, Z = FinSet("Y", ("y0", "y1")), FinSet("Z", ("z0", "z1", "z2"))
    dropped = 0
    for _ in range(60):
        f = random_arrow(MonadKind.CV_DIST, rng, Y, Y)
        g = random_arrow(MonadKind.CV_DIST, rng, Y, Z)
        # one row at both points: a vertex of f weighting both alike makes
        # the choices (a, b) and (b, a) the same composite vertex
        g = KleisliArrow(MonadKind.CV_DIST, Y, Z, [g.rows[0], g.rows[0]])
        for value in f.rows:
            row = kleisli_compose(KleisliArrow(MonadKind.CV_DIST, Y, Y, [value, value]), g).rows[0]
            assert repr(row) == repr(pairs_cv_compose(value, g))
            dropped += sum(len(g.rows[0]) ** len(mu.support) for mu in value) - len(row)
    assert dropped > 0


def test_unit_is_built_once_per_carrier():
    Y = FinSet("Y", ("y0", "y1"))
    assert unit("dist", Y) is unit(MonadKind.DIST, FinSet("Y", ("y0", "y1")))
    assert unit("cv_dist", Y).rows == ((DistV.dirac("y0"),), (DistV.dirac("y1"),))


def test_distv_pickles_without_its_hash():
    d = DistV.mix([(F(1, 3), DistV.dirac("a")), (F(2, 3), DistV({"b": F(1, 2), "a": F(1, 2)}))])
    hash(d)
    copy = pickle.loads(pickle.dumps(d))
    assert copy == d and repr(copy) == repr(d) and copy._hash is None


def test_skipped_map_laws_are_named_in_the_note(X1):
    # over four points P has 16 T-values, past the 12 the mult square
    # enumerates TT-values over; the healthy verdict says it skipped it
    X4 = FinSet("X", ("x0", "x1", "x2", "x3"))
    skipped = "skipped map.mult at X (16 T-values > 12)"
    assert check_monad_map_laws(sigma_spec(), [X4]).describe() == f"healthy (4116 instances checked); {skipped}"
    # the empty set goes to the constant 1: only the mult square sees it
    empty_to_one = MonadMapSpec(
        "bad", MonadKind.POWERSET, ContinuationTarget(), lambda elems, s: lambda f: max((f(x) for x in s), default=1)
    )
    assert check_monad_map_laws(empty_to_one, [X4]).describe() == f"healthy (4100 instances checked); {skipped}"
    assert check_monad_map_laws(empty_to_one, [X1]).witness.law == "map.mult"
    B5 = FinSet("B", tuple(f"b{i}" for i in range(5)))
    verdict = check_monad_map_laws(support_map_spec(), [X1, B5], sample_count=4)
    assert verdict.is_healthy and verdict.note == "skipped map.naturality at B -> B (5^5 maps > 256)"


def test_membership_replay_reads_the_law_arguments():
    # the replay evaluates the class law the witness names at its
    # arguments: the witness with another law and arguments is not sound
    bad = dataclasses.replace(
        sigma_spec(), name="bad_sigma", component=lambda elems, s: (lambda f: min((f(x) for x in s), default=1))
    )
    witness = check_monad_map_laws(bad, [FinSet("B", ("b0", "b1"))]).witness
    assert witness.law == "map.membership" and witness.args["law"] == "bottom"
    assert witness_is_sound(bad, witness)
    edited = dataclasses.replace(witness, args={**witness.args, "law": "binary_join", "f": (0, 1), "g": (1, 0)})
    assert not witness_is_sound(bad, edited)


WEIGHTED = (MonadKind.SUBDIST, MonadKind.DIST, MonadKind.CV_DIST)


def _general_mix(weights, den, rows):
    """``_mix_rows`` with no shortcut: every row scaled into one integer
    mix over lcm * den, reduced."""
    lcm = math.lcm(*[d._den for d in rows])
    nums = {}
    for a, d in zip(weights, rows):
        for z, n in d._nums.items():
            nums[z] = nums.get(z, 0) + a * (lcm // d._den) * n
    return DistV._over(nums, lcm * den)


def _same_value(a, b):
    return a == b and repr(a) == repr(b) and pickle.dumps(a) == pickle.dumps(b)


def _sized(name, n):
    return FinSet(name.upper(), tuple(f"{name}{i}" for i in range(n)))


@pytest.mark.parametrize("kind", WEIGHTED)
def test_unit_weight_mixes_match_the_general_mix(kind):
    # one row at weight one is that row: equal, printed and pickled alike
    monad = MONADS[kind]
    for n in (1, 2, 3):
        Y = _sized("y", n)
        for seed in range(50):
            rng = Random(seed)
            value = monad.sample(rng, Y)
            for d in value if kind == MonadKind.CV_DIST else (value,):
                for den in (1, 3, 16):
                    assert _mix_rows([den], den, [d]) is d
                    assert _same_value(_mix_rows([den], den, [d]), _general_mix([den], den, [d]))
                assert _same_value(DistV.mix([(1, d)]), pairs_mix([(1, d)]))
            g = random_arrow(kind, rng, Y, Y)
            for t in (value, *[monad.unit(Y, y) for y in Y]):
                if kind == MonadKind.CV_DIST:
                    want = pairs_cv_compose(t, g)
                else:
                    want = _general_mix(list(t._nums.values()), t._den, [g.row(y) for y in t._nums])
                assert _same_value(monad.extend(t, g), want)


@pytest.mark.parametrize("kind", [MonadKind.POWERSET, MonadKind.LIFT_POWERSET])
def test_singleton_set_extension_is_the_row(kind):
    for n in (1, 2, 3):
        Y = _sized("y", n)
        for seed in range(50):
            g = random_arrow(kind, Random(seed), Y, Y)
            for y in (*Y, BOT) if kind == MonadKind.LIFT_POWERSET else Y:
                union = set()
                union |= frozenset((BOT,)) if y is BOT else g.row(y)
                assert _same_value(_extend_set(frozenset((y,)), g), frozenset(union))


def _canonical(x) -> str:
    """A T-value or an arrow printed alike in every process: a frozenset's
    items are sorted (string hashes are salted per process, and BOT hashes
    by address); a DistV keeps its points' draw order."""
    if isinstance(x, frozenset):
        return "{" + ", ".join(sorted(map(_canonical, x))) + "}"
    if isinstance(x, tuple):
        return "(" + ", ".join(map(_canonical, x)) + ")"
    if isinstance(x, KleisliArrow):
        return f"{x.kind}:{x.source!r}->{x.target!r}:{_canonical(x.rows)}"
    return repr(x)


# the digest of the draws below: a sampler or random_arrow that draws
# one value differently from the same seed changes it
DRAW_DIGEST = "b882faf855adc0b9"


def test_draw_streams_are_pinned():
    # the samplers and random_arrow draw the same values from the same seeds
    h = hashlib.sha256()
    for kind in MonadKind:
        for n in (1, 2, 3):
            X, Y = _sized("x", 4 - n), _sized("y", n)
            for seed in range(200):
                rng = Random(seed)
                value = MONADS[kind].sample(rng, Y)
                h.update(f"{_canonical(value)} {_canonical(random_arrow(kind, rng, X, Y))}\n".encode())
    assert h.hexdigest()[:16] == DRAW_DIGEST


_PICKLE_IN_ANOTHER_PROCESS = """
import pickle, sys
from wpbench.core import FinSet
from wpbench.monads import DistV, KleisliArrow
X, Y = FinSet("X", ("x0", "x1")), FinSet("Y", ("y0", "y1"))
arrow = KleisliArrow("dist", X, Y, [DistV.dirac("y1"), DistV({"y0": "1/3", "y1": "2/3"})])
hash(X), hash(arrow)
sys.stdout.buffer.write(pickle.dumps((hash("x0"), X, arrow)))
"""


def test_finset_pickles_across_hash_seeds():
    # a FinSet keeps its hash; one pickled where strings hash otherwise
    # rehashes on loading, alone and inside an arrow
    X, Y = FinSet("X", ("x0", "x1")), FinSet("Y", ("y0", "y1"))
    arrow = KleisliArrow("dist", X, Y, [DistV.dirac("y1"), DistV({"y0": F(1, 3), "y1": F(2, 3)})])
    src = os.path.dirname(os.path.dirname(wpbench.__file__))
    salted = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", _PICKLE_IN_ANOTHER_PROCESS], env=env, capture_output=True, check=True)
        their_hash, X2, arrow2 = pickle.loads(out.stdout)
        salted.append(their_hash != hash("x0"))
        for local, loaded in ((X, X2), (arrow, arrow2)):
            assert loaded == local and hash(loaded) == hash(local)
            assert {local: seed}[loaded] == seed
        assert arrow2.source.index("x1") == 1 and arrow2.row("x1") == arrow.row("x1")
    assert any(salted)


_BOT_IN_ANOTHER_PROCESS = """
import pickle, sys
from wpbench.monads import BOT
value = frozenset({BOT, *(f"y{i}" for i in range(8))})
sys.stdout.buffer.write(pickle.dumps((hash(BOT), repr(value), pickle.dumps(value))))
"""


def test_bot_hashes_and_pickles_alike_across_processes():
    # BOT's hash does not depend on where it was allocated, so under one
    # string-hash seed a LIFT_POWERSET value holding it prints and pickles
    # to the same bytes in every process, and loads with the loader's BOT
    src = os.path.dirname(os.path.dirname(wpbench.__file__))
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": src}
    script = [sys.executable, "-c", _BOT_IN_ANOTHER_PROCESS]
    runs = [pickle.loads(subprocess.run(script, env=env, capture_output=True, check=True).stdout) for _ in range(2)]
    assert runs[0] == runs[1]
    their_hash, text, data = runs[0]
    assert their_hash == hash(BOT) and "BOT" in text
    loaded = pickle.loads(data)
    assert [y for y in loaded if y is BOT] == [BOT] and len(loaded) == 9
