import dataclasses
from fractions import Fraction
from random import Random

import pytest

from wpbench import synthesis
from wpbench.core import FinSet
from wpbench.healthiness import ProbeGrid
from wpbench.modalities import (
    BOOLEAN,
    INSTANCES,
    STRUCTURE_CLASSES,
    IntegerRows,
    RATIONAL,
    Modality,
    algebra_to_monad_map,
    monad_map_to_algebra,
)
from wpbench.monads import (
    BOT,
    DistV,
    KleisliArrow,
    MonadKind,
    enumerate_arrows,
    random_arrow,
    unit,
    up_closure,
)
from wpbench.semantics import (
    BooleanTransformer,
    MissingProbeError,
    RationalTransformer,
    pt_alternating,
    pt_modality,
    wp_box,
    wp_diamond,
)
from wpbench.synthesis import (
    SynthesisResult,
    UnhealthyInputError,
    cv_semantically_equal,
    roundtrip_verify,
    synth_dijkstra,
    synth_dist,
    synth_polytope,
    synth_relation,
    synth_subdist,
    synth_upfamily,
    synthesize,
)
from wpbench.sweep import healthy_tables
from wpbench.verdicts import Verdict, witness_is_sound

F = Fraction


def test_synth_relation_identity(Y2):
    ident = BooleanTransformer(Y2, Y2, tuple(range(4)))
    res = synth_relation(ident, "diamond")
    assert res.ok
    assert res.arrow.rows == (frozenset({"y0"}), frozenset({"y1"}))


def test_synth_relation_constant_zero_gives_empty(Y2, X2):
    phi = BooleanTransformer(Y2, X2, (0, 0, 0, 0))
    res = synth_relation(phi, "diamond")
    assert res.ok
    assert res.arrow.rows == (frozenset(), frozenset())


def test_synth_relation_or_unique_by_exhaustion(Y2):
    X = FinSet("X", ("x",))
    phi = BooleanTransformer(Y2, X, (0, 1, 1, 1))
    res = synth_relation(phi, "diamond")
    assert res.ok
    assert res.arrow.rows == (frozenset({"y0", "y1"}),)
    # uniqueness: wp_diamond over all 2^(|X||Y|) relations hits phi exactly once
    hits = [
        R
        for R in enumerate_arrows(MonadKind.POWERSET, X, Y2)
        if wp_diamond(R).table == phi.table
    ]
    assert len(hits) == 1 and hits[0].rows == res.arrow.rows


def test_synth_relation_box(Y2, X2):
    rng = Random(0)
    for _ in range(20):
        R = random_arrow(MonadKind.POWERSET, rng, X2, Y2)
        res = synth_relation(wp_box(R), "box")
        assert res.ok and res.arrow.rows == R.rows


def test_synth_relation_rejects_unhealthy(Y2, X2):
    const1 = BooleanTransformer(Y2, X2, (3, 3, 3, 3))
    with pytest.raises(UnhealthyInputError):
        synth_relation(const1, "diamond")


def test_synth_subdist_total_example(Y2):
    X = FinSet("X", ("x",))

    def fn(values):
        return (F(1, 2) * values[0] + F(1, 4) * values[1],)

    phi = RationalTransformer(Y2, X, fn)
    res = synth_subdist(phi, "total")
    assert res.ok
    assert res.arrow.row("x") == DistV({"y0": F(1, 2), "y1": F(1, 4)})


def test_synth_subdist_identity_gives_unit(Y2):
    phi = RationalTransformer(Y2, Y2, lambda v: tuple(v))
    res = synth_subdist(phi, "total")
    assert res.ok
    assert res.arrow.rows == unit(MonadKind.SUBDIST, Y2).rows


def test_synth_subdist_partial_subtracts_divergence(Y2):
    X = FinSet("X", ("x",))

    def fn(values):
        return (F(1, 2) * values[0] + F(1, 2),)

    phi = RationalTransformer(Y2, X, fn)
    res = synth_subdist(phi, "partial")
    assert res.ok
    assert res.arrow.row("x") == DistV({"y0": F(1, 2)})
    assert res.arrow.row("x").mass == F(1, 2)


def test_synth_dist_identity_and_uniform(Y2):
    phi = RationalTransformer(Y2, Y2, lambda v: tuple(v))
    res = synth_dist(phi)
    assert res.ok and res.arrow.rows == unit(MonadKind.DIST, Y2).rows
    X = FinSet("X", ("x",))
    avg = RationalTransformer(Y2, X, lambda v: ((v[0] + v[1]) / 2,))
    res = synth_dist(avg)
    assert res.ok
    assert res.arrow.row("x") == DistV({"y0": F(1, 2), "y1": F(1, 2)})


def test_synth_dist_rejects_mass_failure(Y2):
    X = FinSet("X", ("x",))
    half = RationalTransformer(Y2, X, lambda v: (F(1, 2) * v[0],))
    with pytest.raises(UnhealthyInputError):
        synth_dist(half)  # fails the unit (one) law already


def test_synth_upfamily_examples(Y2):
    X = FinSet("X", ("x",))
    meet = BooleanTransformer(Y2, X, (0, 0, 0, 1))
    res = synth_upfamily(meet)
    assert res.ok
    assert res.arrow.row("x") == up_closure([frozenset({"y0", "y1"})], Y2)

    const1 = BooleanTransformer(Y2, X, (1, 1, 1, 1))
    res = synth_upfamily(const1)
    assert res.ok
    assert res.arrow.row("x") == frozenset(
        {frozenset(), frozenset({"y0"}), frozenset({"y1"}), frozenset({"y0", "y1"})}
    )

    ident = BooleanTransformer(Y2, Y2, tuple(range(4)))
    res = synth_upfamily(ident)
    assert res.ok
    assert res.arrow.row("y0") == up_closure([frozenset({"y0"})], Y2)


def test_synth_dijkstra_examples(Y2):
    X = FinSet("X", ("x",))
    ev = BooleanTransformer(Y2, X, (0, 1, 0, 1))
    res = synth_dijkstra(ev)
    assert res.ok and res.arrow.row("x") == frozenset({"y0"})

    const0 = BooleanTransformer(Y2, X, (0, 0, 0, 0))
    res = synth_dijkstra(const0)
    assert res.ok and res.arrow.row("x") == frozenset({BOT})
    assert "bottom-absorption" in res.normalization

    meet = BooleanTransformer(Y2, X, (0, 0, 0, 1))
    res = synth_dijkstra(meet)
    assert res.ok and res.arrow.row("x") == frozenset({"y0", "y1"})


def test_synth_dijkstra_on_an_empty_carrier(X2):
    # with Y empty, strictness sends every state to {bottom}
    empty = FinSet("E", ())
    res = synth_dijkstra(BooleanTransformer(empty, X2, (0,)))
    assert res.ok
    assert res.arrow.rows == (frozenset((BOT,)),) * len(X2)
    f = KleisliArrow(MonadKind.LIFT_POWERSET, X2, empty, [frozenset((BOT,))] * len(X2))
    assert roundtrip_verify(f, "dijkstra").is_healthy
    with pytest.raises(UnhealthyInputError):
        synth_dijkstra(BooleanTransformer(empty, X2, (1,)))


def test_synth_polytope_dirac_pinned(Y2):
    X = FinSet("X", ("x",))
    phi = RationalTransformer(Y2, X, lambda v: (v[0],), label="eval-y0")
    grid = ProbeGrid.default(Y2, seed=1)
    res = synth_polytope(phi, grid)
    assert res.ok
    assert res.arrow.row("x") == (DistV.dirac("y0"),)


def test_synth_polytope_min_segment(Y2):
    X = FinSet("X", ("x",))
    phi = RationalTransformer(Y2, X, lambda v: (min(v),), label="min")
    grid = ProbeGrid.default(Y2, seed=2)
    res = synth_polytope(phi, grid)
    assert res.ok
    verts = {tuple(mu.weight(y) for y in Y2.elements) for mu in res.arrow.row("x")}
    assert (F(1), F(0)) in verts and (F(0), F(1)) in verts


def test_synth_polytope_full_simplex(Y3):
    X = FinSet("X", ("x",))
    phi = RationalTransformer(Y3, X, lambda v: (min(v),), label="min3")
    grid = ProbeGrid.default(Y3, seed=3)
    res = synth_polytope(phi, grid)
    assert res.ok
    verts = {tuple(mu.weight(y) for y in Y3.elements) for mu in res.arrow.row("x")}
    for j in range(3):
        assert tuple(F(1) if k == j else F(0) for k in range(3)) in verts


def test_synth_polytope_inconclusive_on_grid_insufficient_input(Y2):
    X = FinSet("X", ("x",))
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

    phi = RationalTransformer(Y2, X, fn, label="crafted")
    grid = ProbeGrid.explicit(Y2, list(lookup), scalars=(F(0), F(1)))
    from wpbench.healthiness import check_regular_sublinear

    assert check_regular_sublinear(phi, grid).is_healthy  # grid-limited pass
    res = synth_polytope(phi, grid)
    assert res.residual.status == "inconclusive"
    w = res.residual.witness
    assert w is not None and w.law == "polytope.certify"
    assert witness_is_sound(phi, w)


def test_roundtrip_powerset_exhaustive_2x2(X2, Y2):
    for R in enumerate_arrows(MonadKind.POWERSET, X2, Y2):
        assert roundtrip_verify(R, "may").is_healthy
        assert roundtrip_verify(R, "must").is_healthy


def test_roundtrip_powerset_exhaustive_3x3():
    # 2^(3*3) = 512 relations; both directions exact for each
    X = FinSet("X", ("x0", "x1", "x2"))
    Y = FinSet("Y", ("y0", "y1", "y2"))
    count = 0
    for R in enumerate_arrows(MonadKind.POWERSET, X, Y):
        count += 1
        assert roundtrip_verify(R, "may").is_healthy
        assert roundtrip_verify(R, "must").is_healthy
    assert count == 512


def test_roundtrip_bottom_mixed_row_collapses(Y2):
    X = FinSet("X", ("x",))
    f = KleisliArrow("lift_powerset", X, Y2, {"x": frozenset({BOT, "y0"})})
    verdict = roundtrip_verify(f, "dijkstra")
    assert verdict.is_healthy
    assert "bottom-absorption" in verdict.note


def test_roundtrip_sampled_rational(Y3):
    rng = Random(17)
    X = FinSet("X", ("x0", "x1"))
    grid = ProbeGrid.default(Y3, seed=17)
    for kind, inst in (("subdist", "subdist_total"), ("subdist", "subdist_partial"), ("dist", "dist_convex")):
        for _ in range(10):
            f = random_arrow(kind, rng, X, Y3)
            verdict = roundtrip_verify(f, inst, grid)
            assert verdict.is_healthy, f"{inst}: {verdict.describe()}"


def test_roundtrip_cv_semantic_equality(Y2):
    rng = Random(23)
    X = FinSet("X", ("x",))
    grid = ProbeGrid.default(Y2, seed=23)
    for _ in range(10):
        f = random_arrow("cv_dist", rng, X, Y2)
        phi = pt_alternating("demonic_prob", f)
        res = synth_polytope(phi, grid)
        assert res.ok
        assert cv_semantically_equal(f, res.arrow, grid)


def test_roundtrip_defaults_to_the_first_row_of_the_monad_and_the_default_grid(Y3):
    f = random_arrow("subdist", Random(29), FinSet("X", ("x0", "x1")), Y3)
    assert synthesis.instance_for_arrow(f) == "subdist_total"
    verdict = roundtrip_verify(f)
    assert verdict.is_healthy
    assert verdict.describe() == roundtrip_verify(f, "subdist_total", ProbeGrid.default(Y3)).describe()


def test_roundtrip_passes_an_inconclusive_synthesis_on(monkeypatch, Y2):
    # a seeded fault: the clipper finds every region empty, which no arrow's
    # region is, so the synthesis is inconclusive and the round trip says so
    monkeypatch.setattr(synthesis, "_clip_ints", lambda n, rows: [])
    f = random_arrow("cv_dist", Random(31), FinSet("X", ("x",)), Y2)
    verdict = roundtrip_verify(f, "cv_sublinear")
    assert verdict.status == "inconclusive"
    assert "region for state 'x' is empty" in verdict.describe()


def test_cv_semantic_equality_detects_difference(Y2):
    X = FinSet("X", ("x",))
    a = KleisliArrow("cv_dist", X, Y2, {"x": (DistV.dirac("y0"),)})
    b = KleisliArrow("cv_dist", X, Y2, {"x": (DistV.dirac("y1"),)})
    assert not cv_semantically_equal(a, b)
    mixed = KleisliArrow(
        "cv_dist", X, Y2, {"x": (DistV.dirac("y0"), DistV({"y0": F(1, 2), "y1": F(1, 2)}))}
    )
    hull_equal = KleisliArrow(
        "cv_dist",
        X,
        Y2,
        {"x": (DistV({"y0": F(1, 2), "y1": F(1, 2)}), DistV.dirac("y0"), DistV({"y0": F(3, 4), "y1": F(1, 4)}))},
    )
    assert cv_semantically_equal(mixed, hull_equal)


def test_grid_core_sums_expose_overweight_masses(Y3):
    # coefficients 2/5 each: every pairwise Dirac sum is fine, but the grid's
    # core already contains the two-Dirac sums as members, so pairing them
    # with the remaining Dirac exposes the full-carrier mass 6/5
    X = FinSet("X", ("x",))

    def fn(values):
        return (min(F(2, 5) * (values[0] + values[1] + values[2]), F(1)),)

    phi = RationalTransformer(Y3, X, fn, label="overweight")
    grid = ProbeGrid.default(Y3, seed=0)
    from wpbench.healthiness import check_gemod_morphism

    verdict = check_gemod_morphism(phi, grid, "total")
    assert verdict.is_unhealthy
    assert witness_is_sound(phi, verdict.witness)
    with pytest.raises(UnhealthyInputError):
        synth_subdist(phi, "total", grid)


def test_inverse_is_chosen_by_what_the_modality_is(X1, Y2):
    # the partial algebra, recovered from its monad map and named "total":
    # its value 1/2 at the zero predicate is no total transformer's value
    partial = monad_map_to_algebra(algebra_to_monad_map(INSTANCES["subdist_partial"]), name="total")
    f = KleisliArrow("subdist", X1, Y2, {"x0": DistV({"y0": F(1, 2)})})
    result = synthesize(partial, pt_modality(partial, f), ProbeGrid.default(Y2))
    assert result.ok
    assert result.arrow.rows == f.rows
    # a relation modality named "diamond" with the box rule inverts as box
    boxed = Modality("diamond", MonadKind.POWERSET, BOOLEAN, "cl_join", INSTANCES["must"].evaluate)
    R = KleisliArrow("powerset", X1, Y2, {"x0": ["y0"]})
    result = synthesize(boxed, wp_box(R))
    assert result.ok
    assert result.arrow.rows == R.rows


def test_a_modality_outside_the_catalog_is_checked_with_its_own_semantics(X1, Y2):
    # the dual game, min over the family of max within each set, is read as
    # game: phi(f)(x0) = f(y0) and f(y1) gives the family {{y0, y1}}, whose
    # dual-game transformer is f(y0) or f(y1)
    dual_eval = lambda fam, f: min((max((f(y) for y in s), default=0) for s in fam), default=1)
    dual = Modality("dual_game", MonadKind.UP_POWERSET, BOOLEAN, "pos", dual_eval)
    family = [frozenset({"y0"}), frozenset({"y1"}), frozenset({"y0", "y1"})]
    phi = pt_modality(dual, KleisliArrow("up_powerset", X1, Y2, {"x0": family}))
    assert phi.table == (0, 0, 0, 1)
    result = synthesize(dual, phi)
    assert not result.ok and pt_modality(dual, result.arrow).table == (0, 1, 1, 1)
    witness = result.residual.witness
    assert witness.law == "synthesis.reevaluate" and witness.args == {"pred_mask": 1}
    assert witness_is_sound((phi, pt_modality(dual, result.arrow)), witness)
    # half the expectation is read as total, whose arrow has half the mass
    half = Modality("half", MonadKind.SUBDIST, RATIONAL, "gemod", lambda mu, f: mu.expect(f) / 2)
    phi = pt_modality(half, KleisliArrow("subdist", X1, Y2, {"x0": DistV({"y0": F(1, 2), "y1": F(1, 2)})}))
    grid = ProbeGrid.default(Y2)
    result = synthesize(half, phi, grid)
    assert not result.ok and result.arrow.rows == (DistV({"y0": F(1, 4), "y1": F(1, 4)}),)
    witness = result.residual.witness
    assert witness.law == "synthesis.reevaluate"
    assert witness_is_sound((phi, pt_modality(half, result.arrow)), witness)


def _affine(Y, X, rows):
    """A closed-form transformer with one (offset, coefficients) row per state."""
    rows = [[(F(offset), tuple(map(F, coefs)))] for offset, coefs in rows]
    return RationalTransformer(Y, X, IntegerRows(rows, len(Y)), label="affine")


def _affine_rule(Y, X, rows):
    """The same values behind a rule, for rows that ``IntegerRows`` refuses."""
    value = lambda offset, coefs, v: offset + sum(c * q for c, q in zip(coefs, v))
    return RationalTransformer(Y, X, lambda v: tuple(value(o, cs, v) for o, cs in rows), label="affine")


@pytest.mark.parametrize(
    "synth, rows, law",
    [
        # phi(1) = 3/4, but the Dirac coefficients 3/4 and 1/4 have mass 1
        (lambda phi: synth_subdist(phi, "total"), [(F(1, 4), (F(1, 2), 0))], "synthesis.mass"),
        # phi(dirac_y0) - phi(0) = -1/4
        (lambda phi: synth_subdist(phi, "partial"), [(F(1, 2), (F(-1, 4), 0))], "synthesis.coefficient"),
        # the coefficients 1/2 and 0 have mass 1/2, against 1 - phi(0) = 3/4
        (lambda phi: synth_subdist(phi, "partial"), [(F(1, 4), (F(1, 2), 0))], "synthesis.mass"),
        (synth_dist, [(0, (F(1, 2), 0))], "synthesis.mass"),
    ],
)
def test_synthesis_mass_and_coefficient_witnesses_replay(monkeypatch, X1, Y2, synth, rows, law):
    # with the precondition check switched off, a transformer outside the
    # class reaches the checks on the rows read off the Dirac probes
    monkeypatch.setattr(synthesis, "_guard", lambda verdict, condition: None)
    if law == "synthesis.coefficient":
        # a negative coefficient is refused as rows, so it stands behind a rule
        with pytest.raises(ValueError, match="negative"):
            _affine(Y2, X1, rows)
        phi = _affine_rule(Y2, X1, rows)
    else:
        phi = _affine(Y2, X1, rows)
    witness = synth(phi).residual.witness
    assert witness.law == law
    assert witness_is_sound(phi, witness)
    # a transformer in the class gives no witness, and the witness above
    # does not replay on it
    clean = _affine(Y2, X1, [(0, (F(1, 4), F(3, 4)))])
    result = synth(clean)
    assert result.ok and result.residual.witness is None
    assert not witness_is_sound(clean, witness)


@pytest.mark.parametrize(
    "instance, rows",
    [
        ("dist_convex", {"x0": DistV.dirac("y0"), "x1": DistV({"y0": F(1, 3), "y1": F(2, 3)})}),
        (
            "cv_sublinear",
            {
                "x0": (DistV.dirac("y0"),),
                "x1": (DistV.dirac("y1"), DistV({"y0": F(1, 2), "y1": F(1, 2)})),
            },
        ),
    ],
)
def test_roundtrip_arrow_witness_replays(monkeypatch, X2, Y2, instance, rows):
    f = KleisliArrow(INSTANCES[instance].monad, X2, Y2, rows)
    grid = ProbeGrid.default(Y2, seed=5)
    assert roundtrip_verify(f, instance, grid).is_healthy
    # seeded fault: the synthesis hands back its rows in reverse state order
    real = synthesis.synthesize

    def reversed_rows(mod, phi, grid=None):
        result = real(mod, phi, grid)
        arrow = result.arrow
        flipped = KleisliArrow(arrow.kind, arrow.source, arrow.target, arrow.rows[::-1])
        return SynthesisResult(flipped, result.residual)

    monkeypatch.setattr(synthesis, "synthesize", reversed_rows)
    verdict = roundtrip_verify(f, instance, grid)
    assert verdict.is_unhealthy and verdict.witness.law == "roundtrip.arrow"
    assert witness_is_sound((f, grid), verdict.witness)
    # replayed without the fault, the synthesis rebuilds f
    monkeypatch.setattr(synthesis, "synthesize", real)
    assert not witness_is_sound((f, grid), verdict.witness)


def test_a_polytope_round_trip_compiles_each_arrow_once(monkeypatch, X2, Y2):
    # pt(f)'s rows serve the synthesis and the arrow comparison, so a round
    # trip, and the replay of its arrow witness, compile f's and the
    # synthesized arrow's closed forms once each
    row, calls = INSTANCES["cv_sublinear"], []
    spy = lambda tvalues, targets: calls.append(tvalues) or row.closed_form(tvalues, targets)
    monkeypatch.setitem(INSTANCES, "cv_sublinear", dataclasses.replace(row, closed_form=spy))
    grid = ProbeGrid.default(Y2, seed=5)
    for f in (random_arrow("cv_dist", Random(k), X2, Y2) for k in range(3)):
        calls.clear()
        assert roundtrip_verify(f, "cv_sublinear", grid).is_healthy
        assert len(calls) == 2 and calls[0] == f.rows
    real = synthesis.synthesize

    def reversed_rows(mod, phi, grid=None):
        result = real(mod, phi, grid)
        arrow = result.arrow
        return SynthesisResult(KleisliArrow(arrow.kind, arrow.source, arrow.target, arrow.rows[::-1]), result.residual)

    monkeypatch.setattr(synthesis, "synthesize", reversed_rows)
    verdict = roundtrip_verify(f, "cv_sublinear", grid)
    assert verdict.is_unhealthy and verdict.witness.law == "roundtrip.arrow"
    calls.clear()
    assert witness_is_sound((f, grid), verdict.witness)
    assert len(calls) == 2


# The Boolean inverses read each state's accepted predicates.  The probe
# reads they replaced are kept here as references: the Dirac read of the
# may case, the co-singleton read of the must and dijkstra cases, and the
# characteristic-predicate read of the game case.


def dirac_read(phi, i):
    """The may row at state i: the y whose Dirac predicate phi accepts."""
    return frozenset(y for j, y in enumerate(phi.source.elements) if phi.table[1 << j] >> i & 1)


def co_singleton_read(phi, i):
    """The must row at state i: the y whose co-singleton predicate phi rejects."""
    full = len(phi.table) - 1
    return frozenset(y for j, y in enumerate(phi.source.elements) if not phi.table[full ^ (1 << j)] >> i & 1)


def characteristic_read(phi, i):
    """The game row at state i: the subsets whose characteristic predicate
    phi accepts."""
    Y = phi.source
    return frozenset(
        frozenset(y for j, y in enumerate(Y.elements) if m >> j & 1)
        for m, out in enumerate(phi.table)
        if out >> i & 1
    )


def dijkstra_read(phi, i):
    """The dijkstra row at state i: {bottom} when the everywhere-true
    predicate fails, else the co-singleton read."""
    if not phi.table[-1] >> i & 1:
        return frozenset((BOT,))
    return co_singleton_read(phi, i)


BOOLEAN_INVERSES = {
    "may": (lambda phi: synth_relation(phi, "diamond"), dirac_read),
    "must": (lambda phi: synth_relation(phi, "box"), co_singleton_read),
    "game": (synth_upfamily, characteristic_read),
    "dijkstra": (synth_dijkstra, dijkstra_read),
}


@pytest.mark.parametrize("ny", range(5))
@pytest.mark.parametrize("theorem", list(BOOLEAN_INVERSES))
def test_boolean_reader_matches_the_probe_reads(theorem, ny):
    # every healthy one-state table, up to |Y| = 4, beyond the golden sweeps
    synth, read = BOOLEAN_INVERSES[theorem]
    X = FinSet("X", ("x",))
    Y = FinSet("Y", tuple(f"y{j}" for j in range(ny)))
    tables = healthy_tables(STRUCTURE_CLASSES[INSTANCES[theorem].structure_class], 1, ny)
    assert tables
    for table in tables:
        phi = BooleanTransformer(Y, X, table)
        result = synth(phi)
        row = read(phi, 0)
        assert result.arrow.rows == (row,), table
        assert result.residual == Verdict.healthy(1 << ny)
        assert result.normalization == (("bottom-absorption",) if BOT in row else ())


@pytest.mark.parametrize("theorem", list(BOOLEAN_INVERSES))
def test_boolean_reader_rows_pass_validation_unchanged(theorem):
    # the reader builds its arrow without validating the rows it built;
    # validating them changes none, at every healthy one-state table
    row = INSTANCES[theorem]
    X, Y = FinSet("X", ("x",)), FinSet("Y", ("y0", "y1", "y2"))
    for table in healthy_tables(STRUCTURE_CLASSES[row.structure_class], 1, 3):
        arrow = synthesize(row, BooleanTransformer(Y, X, table)).arrow
        assert KleisliArrow(row.monad, X, Y, arrow.rows).rows == arrow.rows, table


def test_unknown_modality_and_variant_raise_value_error(Y2):
    with pytest.raises(ValueError, match="'diamond' or 'box'") as exc:
        synth_relation(BooleanTransformer(Y2, Y2, range(4)), "bogus")
    assert not isinstance(exc.value, UnhealthyInputError)
    with pytest.raises(ValueError, match="'total' or 'partial'") as exc:
        synth_subdist(RationalTransformer(Y2, Y2, lambda v: tuple(v)), "dist")
    assert not isinstance(exc.value, UnhealthyInputError)
