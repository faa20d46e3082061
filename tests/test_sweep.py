import itertools
from fractions import Fraction
from random import Random
from types import SimpleNamespace

import pytest

from wpbench import semantics, sweep, synthesis
from wpbench.core import FinSet, SizeGuardError, count_transformers, enumerate_transformer_tables
from wpbench.modalities import INSTANCES, STRUCTURE_CLASSES, check_dense
from wpbench.monads import KleisliArrow, enumerate_arrows
from wpbench.semantics import BooleanTransformer, RationalTransformer
from wpbench.sweep import TheoremInstance, enum_verify, healthy_tables
from wpbench.verdicts import Witness, witness_is_sound


def test_may_2x2_partition():
    report = enum_verify(TheoremInstance("may", (2, 2)))
    assert report.equal
    assert report.counts["transformers"] == 256
    assert report.counts["healthy"] == 16
    assert report.counts["image"] == 16
    assert report.counts["wp_injective"] == "yes"
    assert report.counts["set_equality"] == "checked"


def test_must_2x2_partition():
    report = enum_verify(TheoremInstance("must", (2, 2)))
    assert report.equal
    assert report.counts["healthy"] == 16


def test_may_asymmetric_sizes():
    report = enum_verify(TheoremInstance("may", (1, 2)))
    assert report.equal
    assert report.counts["healthy"] == 4  # relations {x} -> 2^{2 elements}
    report = enum_verify(TheoremInstance("may", (2, 1)))
    assert report.equal
    assert report.counts["healthy"] == 4


def test_boolean_completeness_all_sizes_up_to_two():
    # healthy set = image, for every condition and every carrier pair <= 2
    for theorem in ("may", "must", "game", "dijkstra"):
        for nx in (1, 2):
            for ny in (1, 2):
                report = enum_verify(TheoremInstance(theorem, (nx, ny)))
                assert report.equal, f"{theorem} {(nx, ny)}: {report.render()}"


def test_game_2x2():
    report = enum_verify(TheoremInstance("game", (2, 2)))
    assert report.equal
    assert report.counts["healthy"] == 36
    assert report.counts["computations"] == 36


def test_dijkstra_2x2():
    report = enum_verify(TheoremInstance("dijkstra", (2, 2)))
    assert report.equal
    assert report.counts["healthy"] == 16
    assert report.counts["computations"] == 49  # collapses onto 16 classes
    assert report.counts["image"] == 16


def test_sampled_instances_small():
    for theorem in ("subdist_total", "subdist_partial", "dist_convex"):
        report = enum_verify(TheoremInstance(theorem, (2, 2), seed=5, count=20))
        assert report.equal, report.render()
        assert report.counts["healthy_images"] == 20
        assert report.counts["roundtrips_exact"] == 20
        assert report.counts["constructed_synthesized"] == 20
    report = enum_verify(TheoremInstance("cv_sublinear", (2, 2), seed=5, count=10))
    assert report.equal
    assert report.counts["roundtrips_exact"] == 10


def test_rational_instances_report_the_sampled_mode():
    # the catalog row decides the mode; no caller can set it
    report = enum_verify(TheoremInstance("subdist_total", (1, 2), count=5))
    assert report.mode == "sampled"
    assert "mode: sampled\n" in report.render()
    assert enum_verify(TheoremInstance("may", (1, 2))).mode == "exhaustive"


def test_negative_sizes_are_refused():
    for sizes in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            TheoremInstance("may", sizes)
    # size 0 stays valid: one empty table on each side
    report = enum_verify(TheoremInstance("may", (0, 2)))
    assert report.equal and report.counts["transformers"] == 1


@pytest.mark.parametrize(
    "sizes",
    [(1, 2, 3), (2,), (), (1.5, 2), (2, 2.0), (True, 2), (2, False), "12", 2, None],
)
def test_sizes_of_the_wrong_shape_are_refused(sizes):
    # three sizes used to fail inside enum_verify ("too many values to
    # unpack"), and a float size on a range() over it
    with pytest.raises(ValueError, match="two nonnegative integers"):
        TheoremInstance("may", sizes)


def test_size_lists_stay_valid():
    report = enum_verify(TheoremInstance("may", [1, 2]))
    assert report.equal and report.render().startswith("theorem: may\nsizes: 1 2\n")


def test_size_guard():
    with pytest.raises(SizeGuardError):
        enum_verify(TheoremInstance("may", (4, 4)))
    with pytest.raises(ValueError):
        TheoremInstance("bogus", (2, 2))


def test_report_rendering_deterministic():
    a = enum_verify(TheoremInstance("may", (2, 2))).render()
    b = enum_verify(TheoremInstance("may", (2, 2))).render()
    assert a == b
    assert "wall_time" not in a  # timing never leaks into the deterministic report
    timed = enum_verify(TheoremInstance("may", (2, 2))).render(include_timing=True)
    assert "wall_time_s" in timed


BOOLEAN_THEOREMS = ("may", "must", "game", "dijkstra")
# every size pair with at most 2^16 dense tables (ny <= 4; nx = 0 leaves one table)
ORACLE_SIZES = [
    (nx, ny)
    for ny in range(5)
    for nx in range(17)
    if count_transformers(FinSet("Y", range(ny)), FinSet("X", range(nx))) <= 1 << 16
]


# per-state witnesses are lifted to full tables; replay them at several sizes
WITNESS_SIZES = (1, 2, 3)


@pytest.mark.parametrize("theorem", BOOLEAN_THEOREMS)
def test_pruned_search_matches_the_filtered_stream(theorem):
    cls = STRUCTURE_CLASSES[INSTANCES[theorem].structure_class]
    for nx, ny in ORACLE_SIZES:
        X, Y = FinSet("X", range(nx)), FinSet("Y", range(ny))
        top = (1 << nx) - 1
        oracle = [
            t for t in enumerate_transformer_tables(Y, X) if check_dense(t, top, cls)[0] is None
        ]
        assert healthy_tables(cls, nx, ny) == oracle, (theorem, nx, ny)


@pytest.mark.parametrize("theorem", BOOLEAN_THEOREMS)
def test_factorized_sweep_matches_the_direct_sweep(theorem):
    mod = INSTANCES[theorem]
    cls = STRUCTURE_CLASSES[mod.structure_class]
    for nx, ny in ORACLE_SIZES:
        X, Y = FinSet("X", range(nx)), FinSet("Y", range(ny))
        healthy = healthy_tables(cls, nx, ny)
        arrows = list(enumerate_arrows(mod.monad, X, Y))
        image = {semantics.pt_modality(mod, arrow).table for arrow in arrows}
        report = enum_verify(TheoremInstance(theorem, (nx, ny)))
        counts = report.counts
        got = (counts["healthy"], counts["computations"], counts["image"], report.equal)
        assert got == (len(healthy), len(arrows), len(image), set(healthy) == image), (nx, ny)


def test_image_health_witness_replays(monkeypatch):
    # a seeded fault in the semantics: every transformer maps the empty
    # postcondition to the full precondition set
    pt_modality = sweep.pt_modality

    def faulty(mod, arrow):
        phi = pt_modality(mod, arrow)
        top = (1 << len(phi.target)) - 1
        return BooleanTransformer(phi.source, phi.target, (top,) + phi.table[1:])

    # the per-state witness is lifted to a full table at several sizes
    for nx in WITNESS_SIZES:
        monkeypatch.setattr(sweep, "pt_modality", faulty)
        for theorem in ("game", "dijkstra"):
            instance = TheoremInstance(theorem, (nx, 2))
            report = enum_verify(instance)
            assert report.witness.law == "sweep.image_health", nx
            assert witness_is_sound(instance, report.witness), nx
        monkeypatch.undo()
        # a healthy table does not replay as a violation
        instance = TheoremInstance("may", (nx, 2))
        table = healthy_tables(STRUCTURE_CLASSES["cl_join"], nx, 2)[-1]
        healthy = Witness("sweep.image_health", {"table": table}, "unhealthy", "healthy")
        assert not witness_is_sound(instance, healthy), nx


# The per-state sets of functionals 2^Y -> 2, by brute force over all of them:
# every Boolean class constrains each output bit on its own, so the healthy
# tables at nx x ny are the products of nx per-state sets.
DEDEKIND = {2: 6, 3: 20, 4: 168}  # monotone Boolean functions, OEIS A000372


def _per_state(cls, ny):
    tables = itertools.product((0, 1), repeat=1 << ny)
    return [t for t in tables if check_dense(t, 1, cls)[0] is None]


@pytest.mark.parametrize("theorem", BOOLEAN_THEOREMS)
def test_per_state_counts_match_independent_oracles(theorem):
    cls = STRUCTURE_CLASSES[INSTANCES[theorem].structure_class]
    for ny in (2, 3, 4):
        want = DEDEKIND[ny] if cls.condition == "monotone" else 1 << ny
        assert len(_per_state(cls, ny)) == want, (theorem, ny)


@pytest.mark.parametrize("theorem", BOOLEAN_THEOREMS)
def test_search_is_the_product_of_per_state_sets(theorem):
    cls = STRUCTURE_CLASSES[INSTANCES[theorem].structure_class]
    nx, ny = 3, 3
    states = _per_state(cls, ny)
    product = [
        tuple(sum(s[m] << i for i, s in enumerate(rows)) for m in range(1 << ny))
        for rows in itertools.product(states, repeat=nx)
    ]
    # stream index: table[k] is digit k in base 2^nx
    product.sort(key=lambda t: sum(v << (nx * k) for k, v in enumerate(t)))
    assert healthy_tables(cls, nx, ny) == product


def test_realizability_witness_replays(monkeypatch):
    for nx in WITNESS_SIZES:
        # a seeded fault in the semantics: every chosen set also holds y0, so
        # no computation realizes the healthy tables whose chosen sets miss it
        dijkstra = semantics.MASK_BASES["dijkstra"]
        faulty = lambda row, mask: tuple(b | 1 for b in dijkstra(row, mask))
        monkeypatch.setitem(semantics.MASK_BASES, "dijkstra", faulty)
        instance = TheoremInstance("dijkstra", (nx, 2))
        report = enum_verify(instance)
        assert report.witness.law == "sweep.realizability", nx
        assert witness_is_sound(instance, report.witness), nx
        monkeypatch.undo()
        # an unhealthy table is no realizability witness
        top = (1 << nx) - 1
        bad = Witness("sweep.realizability", {"table": (top, 0, 0, 0)}, "unrealized", "realized")
        assert not witness_is_sound(TheoremInstance("game", (nx, 2)), bad), nx


def test_set_equality_witness_replays(monkeypatch):
    # the image equals the healthy set exactly when every healthy table is
    # realized, so a set-equality failure is reported as sweep.realizability
    for nx in WITNESS_SIZES:
        # a seeded fault in the sweep's enumeration of computations: the last
        # one is skipped, so a healthy table seems to lie outside the image;
        # the inverse synthesis realizes it, so the witness does not replay
        arrows = sweep.enumerate_arrows
        monkeypatch.setattr(sweep, "enumerate_arrows", lambda *args: list(arrows(*args))[:-1])
        for theorem in ("may", "game"):
            instance = TheoremInstance(theorem, (nx, 2))
            report = enum_verify(instance)
            assert report.witness.law == "sweep.realizability", (theorem, nx)
            assert (report.witness.lhs, report.witness.rhs) == ("unrealized", "realized")
            assert not witness_is_sound(instance, report.witness), (theorem, nx)
        monkeypatch.undo()
        # a seeded fault in the semantics: every state of a relation also
        # reaches y0, so no computation realizes the zero table, which is healthy
        instance = TheoremInstance("may", (nx, 2))
        diamond = semantics.MASK_BASES["may"]
        monkeypatch.setitem(semantics.MASK_BASES, "may", lambda row, mask: diamond(row, mask) + [1])
        zero = Witness("sweep.realizability", {"table": (0, 0, 0, 0)}, "unrealized", "realized")
        assert witness_is_sound(instance, zero), nx
        monkeypatch.undo()
        assert not witness_is_sound(instance, zero), nx


def test_synthesis_witness_replays(monkeypatch):
    # a seeded fault in the inverse: the first state's row loses or gains its
    # last element, so the synthesized relation re-evaluates wrongly
    synthesize = sweep.synthesize

    def faulty_inverse(mod, phi, grid=None):
        arrow = synthesize(mod, phi, grid).arrow
        rows = [arrow.rows[0] ^ {phi.source.elements[-1]}, *arrow.rows[1:]]
        rebuilt = semantics.pt_modality(mod, KleisliArrow(arrow.kind, arrow.source, arrow.target, rows))
        return SimpleNamespace(ok=rebuilt.table == phi.table)

    monkeypatch.setattr(sweep, "synthesize", faulty_inverse)
    for nx in WITNESS_SIZES:
        for theorem in ("may", "must"):
            instance = TheoremInstance(theorem, (nx, 2))
            report = enum_verify(instance)
            assert not report.equal, (theorem, nx)
            assert report.witness.law == "sweep.realizability", (theorem, nx)
            assert witness_is_sound(instance, report.witness), (theorem, nx)


def _stack_cases(rng, theorem, ny):
    """Seeded lists of 1 x ny tables: mostly healthy, some drawn at random
    (usually unhealthy)."""
    healthy = healthy_tables(STRUCTURE_CLASSES[INSTANCES[theorem].structure_class], 1, ny)
    for _ in range(40):
        size = rng.randint(1, 6)
        if rng.random() < 0.5:
            yield [rng.choice(healthy) for _ in range(size)]
        else:
            yield [
                tuple(rng.randint(0, 1) for _ in range(1 << ny)) if rng.random() < 0.3 else rng.choice(healthy)
                for _ in range(size)
            ]


@pytest.mark.parametrize("theorem", BOOLEAN_THEOREMS)
def test_stacked_synthesis_decides_every_table(monkeypatch, theorem):
    # the stacked check answers exactly what the per-table loop does, also
    # under a seeded fault that leaves healthy tables outside the image:
    # every chosen set also holds y0
    rng = Random(17)
    mod = INSTANCES[theorem]
    X1 = FinSet("X", ("x0",))
    answers = set()
    for faulty in (False, True):
        if faulty:
            basis = semantics.MASK_BASES[theorem]
            monkeypatch.setitem(semantics.MASK_BASES, theorem, lambda row, mask: [b | 1 for b in basis(row, mask)])
        # the fault needs an element y0
        for ny in range(faulty, 4):
            Y = FinSet("Y", tuple(f"y{j}" for j in range(ny)))
            for tables in _stack_cases(rng, theorem, ny):
                want = all(sweep._realized(mod, X1, Y, t) for t in tables)
                assert sweep._all_realized(mod, Y, tables) == want, (faulty, ny, tables)
                answers.add((faulty, want))
        monkeypatch.undo()
    assert answers == {(False, True), (False, False), (True, True), (True, False)}


@pytest.mark.parametrize("theorem", BOOLEAN_THEOREMS)
def test_a_passing_boolean_sweep_synthesizes_once(monkeypatch, theorem):
    # one synthesis of the stacked tables, whose guard decides the health of
    # every stacked state
    calls, guarded = [], []
    synthesize, run_condition = sweep.synthesize, synthesis.run_condition

    def counted(mod, phi, grid=None):
        calls.append(len(phi.target))
        return synthesize(mod, phi, grid)

    def guard(name, phi, grid=None):
        verdict = run_condition(name, phi, grid)
        guarded.append((len(phi.target), verdict.is_healthy))
        return verdict

    monkeypatch.setattr(sweep, "synthesize", counted)
    monkeypatch.setattr(synthesis, "run_condition", guard)
    cls = STRUCTURE_CLASSES[INSTANCES[theorem].structure_class]
    for sizes in ((2, 3), (1, 4), (3, 1)):
        calls.clear()
        guarded.clear()
        assert enum_verify(TheoremInstance(theorem, sizes)).equal, sizes
        states = len(healthy_tables(cls, 1, sizes[1]))
        assert calls == [states] and guarded == [(states, True)], sizes


def test_sampled_image_health_witness_replays(monkeypatch):
    # a seeded fault in the semantics: a computation whose first state puts
    # more than half its mass on y0 gets a transformer of half the value,
    # which breaks phi(1) = 1
    pt_modality = sweep.pt_modality

    def faulty(mod, arrow):
        phi = pt_modality(mod, arrow)
        if arrow.rows[0].weight("y0") <= Fraction(1, 2):
            return phi
        return RationalTransformer(phi.source, phi.target, lambda p: tuple(v / 2 for v in phi.apply_values(p)))

    instance = TheoremInstance("dist_convex", (2, 2), seed=0, count=20)
    monkeypatch.setattr(sweep, "pt_modality", faulty)
    report = enum_verify(instance)
    assert report.witness.law == "sweep.image_health"
    assert report.witness.args["sample"] > 0 and report.witness.lhs == "unhealthy"
    assert witness_is_sound(instance, report.witness)
    monkeypatch.undo()
    assert not witness_is_sound(instance, report.witness)


@pytest.mark.parametrize("theorem", ("subdist_total", "cv_sublinear"))
def test_sampled_roundtrip_witness_replays(monkeypatch, theorem):
    # a seeded fault in the inverse: where the rebuilt first state puts more
    # than half its mass on y0, the states' rows are swapped
    inverse = {"subdist_total": "synthesize", "cv_sublinear": "synth_polytope"}[theorem]
    module = synthesis if theorem == "subdist_total" else sweep
    real = getattr(module, inverse)

    def swapped(*args):
        result = real(*args)
        arrow = result.arrow
        first = arrow.rows[0]  # a distribution, or a tuple of vertices
        weights = [v.weight("y0") for v in (first if isinstance(first, tuple) else (first,))]
        if max(weights) <= Fraction(1, 2):
            return result
        rebuilt = KleisliArrow(arrow.kind, arrow.source, arrow.target, arrow.rows[::-1])
        phi, grid = args[-2:]
        residual = synthesis._grid_residual(phi, semantics.pt_modality(INSTANCES[theorem], rebuilt), grid)
        return synthesis.SynthesisResult(rebuilt, residual)

    instance = TheoremInstance(theorem, (2, 2), seed=4, count=20)
    monkeypatch.setattr(module, inverse, swapped)
    report = enum_verify(instance)
    assert report.witness.law == "sweep.roundtrip"
    assert report.witness.args["sample"] > 0
    assert witness_is_sound(instance, report.witness)
    monkeypatch.undo()
    assert not witness_is_sound(instance, report.witness)
