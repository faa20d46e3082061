import pytest

from wpbench import sweep
from wpbench.core import FinSet, SizeGuardError, count_transformers, enumerate_transformer_tables
from wpbench.modalities import INSTANCES, STRUCTURE_CLASSES, check_dense
from wpbench.semantics import BooleanTransformer
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
        report = enum_verify(TheoremInstance(theorem, (2, 2), "sampled", seed=5, count=20))
        assert report.equal, report.render()
        assert report.counts["healthy_images"] == 20
        assert report.counts["roundtrips_exact"] == 20
        assert report.counts["constructed_synthesized"] == 20
    report = enum_verify(TheoremInstance("cv_sublinear", (2, 2), "sampled", seed=5, count=10))
    assert report.equal
    assert report.counts["roundtrips_exact"] == 10


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


def test_jobs_partition_matches_serial():
    serial = enum_verify(TheoremInstance("may", (2, 2)), jobs=1)
    parallel = enum_verify(TheoremInstance("may", (2, 2)), jobs=4)
    assert serial.render() == parallel.render()


BOOLEAN_THEOREMS = ("may", "must", "game", "dijkstra")
# every size pair with at most 2^16 dense tables (ny <= 4; nx = 0 leaves one table)
ORACLE_SIZES = [
    (nx, ny)
    for ny in range(5)
    for nx in range(17)
    if count_transformers(FinSet("Y", range(ny)), FinSet("X", range(nx))) <= 1 << 16
]


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


def test_synthesis_witness_replays(monkeypatch):
    # a seeded fault in the inverse formulas: the first row loses its last bit
    synth = sweep._synth_table

    def faulty(law, table, nx, ny):
        rows = synth(law, table, nx, ny)
        return (rows[0] ^ 2,) + rows[1:]

    monkeypatch.setattr(sweep, "_synth_table", faulty)
    for theorem in ("may", "must"):
        instance = TheoremInstance(theorem, (2, 2))
        report = enum_verify(instance)
        assert not report.equal
        assert report.witness.law == "sweep.synthesis"
        assert witness_is_sound(instance, report.witness)


def test_image_health_witness_replays(monkeypatch):
    # a seeded fault in the semantics: every transformer maps the empty
    # postcondition to the full precondition set
    pt_modality = sweep.pt_modality

    def faulty(mod, arrow):
        phi = pt_modality(mod, arrow)
        return BooleanTransformer(phi.source, phi.target, (3,) + phi.table[1:])

    monkeypatch.setattr(sweep, "pt_modality", faulty)
    for theorem in ("game", "dijkstra"):
        instance = TheoremInstance(theorem, (2, 2))
        report = enum_verify(instance)
        assert report.witness.law == "sweep.image_health"
        assert witness_is_sound(instance, report.witness)
    # a healthy table does not replay as a violation
    instance = TheoremInstance("may", (2, 2))
    healthy = Witness("sweep.image_health", {"table": (0, 1, 2, 3)}, "unhealthy", "healthy")
    assert not witness_is_sound(instance, healthy)
