import json
from fractions import Fraction

import pytest

from wpbench import cli
from wpbench.cli import (
    EXIT_HEALTHY,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_UNHEALTHY,
    SpecError,
    _build_parser,
    parse_spec,
    run,
)
from wpbench.monads import BOT, MonadKind
from wpbench.semantics import BooleanTransformer

F = Fraction

RELATION_DOC = {
    "sets": {"X": ["x0", "x1"], "Y": ["y0", "y1"]},
    "computation": {
        "monad": "powerset",
        "source": "X",
        "target": "Y",
        "rows": {"x0": ["y0", "y1"], "x1": []},
    },
    "modality": "diamond",
}


def write(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_minimal_relation():
    doc = parse_spec(json.dumps(RELATION_DOC))
    assert doc.computation.kind == MonadKind.POWERSET
    assert doc.computation.row("x0") == frozenset({"y0", "y1"})
    assert doc.modality == "diamond"


def test_parse_error_codes():
    with pytest.raises(SpecError) as err:
        parse_spec("not json")
    assert err.value.code == "E_JSON"

    bad_mass = {
        "sets": {"X": ["a", "b"]},
        "computation": {
            "monad": "subdist",
            "source": "X",
            "target": "X",
            "rows": {"a": {"a": "5/8", "b": "5/8"}, "b": {}},
        },
    }
    with pytest.raises(SpecError) as err:
        parse_spec(json.dumps(bad_mass))
    assert err.value.code == "E_MASS"

    bad_rat = json.loads(json.dumps(bad_mass))
    bad_rat["computation"]["rows"]["a"] = {"a": "1/0"}
    with pytest.raises(SpecError) as err:
        parse_spec(json.dumps(bad_rat))
    assert err.value.code == "E_RAT"

    unknown_set = json.loads(json.dumps(RELATION_DOC))
    unknown_set["computation"]["target"] = "Z"
    with pytest.raises(SpecError) as err:
        parse_spec(json.dumps(unknown_set))
    assert err.value.code == "E_SET"

    not_up_closed = {
        "sets": {"X": ["x"], "Y": ["y0", "y1"]},
        "computation": {
            "monad": "up_powerset",
            "source": "X",
            "target": "Y",
            "rows": {"x": [["y0"]]},
        },
    }
    with pytest.raises(SpecError) as err:
        parse_spec(json.dumps(not_up_closed))
    assert err.value.code == "E_UPCLOSED"


def test_parse_lift_and_generators():
    doc = {
        "sets": {"X": ["x"], "Y": ["y0", "y1"]},
        "computation": {
            "monad": "lift_powerset",
            "source": "X",
            "target": "Y",
            "rows": {"x": {"elements": ["y0"], "bottom": True}},
        },
    }
    parsed = parse_spec(json.dumps(doc))
    assert parsed.computation.row("x") == frozenset({"y0", BOT})

    doc["computation"] = {
        "monad": "up_powerset",
        "source": "X",
        "target": "Y",
        "rows": {"x": {"generators": [["y0"]]}},
    }
    parsed = parse_spec(json.dumps(doc))
    assert frozenset({"y0"}) in parsed.computation.row("x")
    assert frozenset({"y0", "y1"}) in parsed.computation.row("x")


def test_parse_truth_table_complete_and_incomplete():
    doc = {
        "sets": {"X": ["x"], "Y": ["y0", "y1"]},
        "transformer": {
            "kind": "truth_table",
            "source": "Y",
            "target": "X",
            "rows": {"00": "0", "10": "1", "01": "1", "11": "1"},
        },
    }
    parsed = parse_spec(json.dumps(doc))
    assert isinstance(parsed.transformer, BooleanTransformer)
    assert parsed.transformer.table == (0, 1, 1, 1)
    del doc["transformer"]["rows"]["11"]
    with pytest.raises(SpecError) as err:
        parse_spec(json.dumps(doc))
    assert err.value.code == "E_TABLE"


def test_cmd_check_exit_codes(tmp_path, capsys):
    spec = write(tmp_path, RELATION_DOC)
    assert run(["check", "--spec", spec, "--condition", "join"]) == EXIT_HEALTHY
    assert run(["check", "--spec", spec, "--condition", "meet"]) == EXIT_UNHEALTHY
    out = capsys.readouterr().out
    assert "witness" in out or "violated" in out


def test_cmd_check_inconclusive(tmp_path):
    doc = {
        "sets": {"X": ["x"], "Y": ["y0", "y1"]},
        "transformer": {
            "kind": "probe_table",
            "source": "Y",
            "target": "X",
            "pairs": [
                [["0", "0"], ["0"]],
                [["1", "1"], ["1"]],
                [["1", "0"], ["1/4"]],
                [["0", "1"], ["1/4"]],
            ],
        },
        "probes": {"predicates": [["0", "0"]], "scalars": ["0", "1"]},
    }
    spec = write(tmp_path, doc)
    # grid below minimum (no diracs): inconclusive
    assert run(["check", "--spec", spec, "--condition", "gemod_total"]) == EXIT_INCONCLUSIVE


def test_cmd_wp_and_synth_roundtrip_through_files(tmp_path, capsys):
    spec = write(tmp_path, RELATION_DOC)
    out_file = tmp_path / "phi.json"
    assert run(["wp", "--spec", spec, "--out", str(out_file)]) == EXIT_HEALTHY
    payload = json.loads(out_file.read_text())
    payload["modality"] = "diamond"
    spec2 = write(tmp_path, payload, "phi_doc.json")
    out_file2 = tmp_path / "synth.txt"
    assert run(["synth", "--spec", spec2, "--out", str(out_file2)]) == EXIT_HEALTHY
    emitted = out_file2.read_text()
    rebuilt = json.loads(emitted[: emitted.index("\nresidual")])
    assert rebuilt["computation"]["rows"] == {"x0": ["y0", "y1"], "x1": []}
    # emitted computation re-parses and re-verifies
    spec3 = write(tmp_path, rebuilt, "rebuilt.json")
    assert run(["roundtrip", "--spec", spec3]) == EXIT_HEALTHY


def test_cmd_synth_rejects_unhealthy(tmp_path):
    doc = {
        "sets": {"X": ["x0", "x1"], "Y": ["y0", "y1"]},
        "transformer": {
            "kind": "truth_table",
            "source": "Y",
            "target": "X",
            "rows": {"00": "11", "10": "11", "01": "11", "11": "11"},
        },
        "modality": "diamond",
    }
    spec = write(tmp_path, doc)
    assert run(["synth", "--spec", spec]) == EXIT_UNHEALTHY


def test_cmd_wp_probe_output_deterministic(tmp_path):
    doc = {
        "sets": {"X": ["x"], "Y": ["y0", "y1"]},
        "computation": {
            "monad": "subdist",
            "source": "X",
            "target": "Y",
            "rows": {"x": {"y0": "1/2", "y1": "1/4"}},
        },
        "modality": "total",
        "seed": 9,
    }
    spec = write(tmp_path, doc)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["wp", "--spec", spec, "--out", str(a)]) == EXIT_HEALTHY
    assert run(["wp", "--spec", spec, "--out", str(b)]) == EXIT_HEALTHY
    assert a.read_bytes() == b.read_bytes()


def test_cmd_enum_verify(tmp_path, capsys):
    assert run(["enum-verify", "--theorem", "may", "--sizes", "2", "2"]) == EXIT_HEALTHY
    out = capsys.readouterr().out
    assert "transformers: 256" in out
    assert "equivalence: holds" in out
    assert run(["enum-verify", "--theorem", "bogus"]) == EXIT_INPUT
    capsys.readouterr()
    assert run(["enum-verify", "--theorem", "may", "--sizes", "4", "4"]) == EXIT_INPUT
    assert "raise max_enum (--max-enum) to force" in capsys.readouterr().err


def test_negative_sizes_are_input_errors(capsys):
    # a negative size used to run on an empty carrier and print a verdict
    for argv in (
        ["enum-verify", "--theorem", "may", "--sizes", "-1", "2"],
        ["laws", "--monad", "powerset", "--sizes", "-1", "1"],
    ):
        assert run(argv) == EXIT_INPUT
        assert "--sizes" in capsys.readouterr().err
    assert run(["enum-verify", "--theorem", "may", "--sizes", "0", "2"]) == EXIT_HEALTHY
    assert "transformers: 1\n" in capsys.readouterr().out
    assert run(["laws", "--monad", "powerset", "--sizes", "0", "1"]) == EXIT_HEALTHY


def test_empty_hom_sets_are_not_drawn_from(capsys):
    # X -> D(empty) has no arrows when X is not empty: these inputs stopped
    # with "mass must equal one, got 0" and exit 70
    for monad in ("dist", "cv_dist"):
        assert run(["laws", "--monad", monad, "--sizes", "0", "1"]) == EXIT_HEALTHY
        out = capsys.readouterr().out
        assert out.startswith(f"monad {monad}: healthy (0 instances checked)\n"), out
    for theorem, monad in (("dist_convex", "dist"), ("cv_sublinear", "cv_dist")):
        assert run(["enum-verify", "--theorem", theorem, "--sizes", "1", "0"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "[E_SCHEMA] at --sizes:" in err and f"X -> {monad}(Y) is empty" in err, err
        assert "internal error" not in err
    # one empty state space leaves one empty arrow to sample
    assert run(["enum-verify", "--theorem", "dist_convex", "--sizes", "0", "0"]) == EXIT_HEALTHY


def test_random_probe_count_is_bounded_by_max_enum(tmp_path, capsys):
    # refused before any tuple is drawn: a billion probes cannot be allocated
    spec = write(tmp_path, {**SUBDIST_DOC, "probes": {"random": 10**9}})
    for command in (["wp"], ["check", "--condition", "gemod_total"], ["synth"], ["roundtrip"]):
        assert run(command + ["--spec", spec]) == EXIT_INPUT
        assert "[E_PROBE] at $.probes.random:" in capsys.readouterr().err
    spec = write(tmp_path, {**SUBDIST_DOC, "probes": {"random": 3}})
    assert run(["wp", "--spec", spec, "--max-enum", "2"]) == EXIT_INPUT
    assert "3 random probes exceed the guard (--max-enum 2)" in capsys.readouterr().err
    assert run(["wp", "--spec", spec, "--max-enum", "3"]) == EXIT_HEALTHY


def test_cmd_enum_verify_deterministic_output(tmp_path):
    a, b, c = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
    run(["enum-verify", "--theorem", "dijkstra", "--sizes", "2", "2", "--out", str(a)])
    run(["enum-verify", "--theorem", "dijkstra", "--sizes", "2", "2", "--out", str(b)])
    # --jobs is accepted and leaves the report unchanged
    run(["enum-verify", "--theorem", "dijkstra", "--sizes", "2", "2", "--jobs", "4", "--out", str(c)])
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_successive_runs_carry_no_state(tmp_path, capsys):
    # the parser is built once per process, so an --out or --sizes given to
    # one call must not leak into the next
    assert _build_parser() is _build_parser()
    out = tmp_path / "report.txt"
    assert run(["enum-verify", "--theorem", "may", "--sizes", "1", "1", "--out", str(out)]) == EXIT_HEALTHY
    assert capsys.readouterr().out == ""
    assert "transformers: 4\n" in out.read_text()
    out.unlink()
    assert run(["enum-verify", "--theorem", "may"]) == EXIT_HEALTHY
    assert "transformers: 256\n" in capsys.readouterr().out  # the default sizes 2 2
    assert not out.exists()


def test_cmd_laws(capsys):
    assert run(["laws", "--monad", "powerset", "--sizes", "2", "2"]) == EXIT_HEALTHY
    out = capsys.readouterr().out
    assert "monad powerset: healthy" in out
    assert "monad-map sigma" in out


def test_cmd_laws_forwards_max_enum(capsys):
    # at sizes 2 2 the lift_powerset suite has 1882384 associativity triples
    assert run(["laws", "--monad", "lift_powerset"]) == EXIT_HEALTHY
    assert "monad lift_powerset: healthy (1882580 instances checked)" in capsys.readouterr().out
    assert run(["laws", "--monad", "lift_powerset", "--max-enum", "1000"]) == EXIT_INPUT
    assert "1882384 associativity triples exceed the guard (1000)" in capsys.readouterr().err


def test_unknown_command_and_flags():
    assert run(["frobnicate"]) == EXIT_INPUT
    assert run(["check", "--no-such-flag"]) == EXIT_INPUT
    assert run([]) == EXIT_INPUT
    assert run(["check", "--condition", "join"]) == EXIT_INPUT  # missing --spec
    assert run(["check", "--spec", "/nonexistent.json", "--condition", "join"]) == EXIT_INPUT


def test_cmd_alternating_pipeline(tmp_path):
    doc = {
        "sets": {"X": ["x"], "Y": ["y0", "y1"]},
        "computation": {
            "monad": "up_powerset",
            "source": "X",
            "target": "Y",
            "rows": {"x": {"generators": [["y0", "y1"]]}},
        },
        "modality": "game",
    }
    spec = write(tmp_path, doc, "game.json")
    assert run(["check", "--spec", spec, "--condition", "monotone"]) == EXIT_HEALTHY
    assert run(["roundtrip", "--spec", spec]) == EXIT_HEALTHY
    out = tmp_path / "game_phi.json"
    assert run(["wp", "--spec", spec, "--out", str(out)]) == EXIT_HEALTHY
    payload = json.loads(out.read_text())
    assert payload["transformer"]["rows"] == {"00": "0", "10": "0", "01": "0", "11": "1"}
    payload["modality"] = "game"
    spec2 = write(tmp_path, payload, "game_phi_doc.json")
    synth_out = tmp_path / "game_synth.txt"
    assert run(["synth", "--spec", spec2, "--out", str(synth_out)]) == EXIT_HEALTHY
    emitted = synth_out.read_text()
    rebuilt = json.loads(emitted[: emitted.index("\nresidual")])
    assert rebuilt["computation"]["monad"] == "up_powerset"


def test_cmd_cv_dist_pipeline(tmp_path):
    doc = {
        "sets": {"X": ["x"], "Y": ["y0", "y1"]},
        "computation": {
            "monad": "cv_dist",
            "source": "X",
            "target": "Y",
            "rows": {"x": [{"y0": "3/4", "y1": "1/4"}, {"y0": "1/4", "y1": "3/4"}]},
        },
        "modality": "demonic_prob",
        "seed": 3,
    }
    spec = write(tmp_path, doc, "cv.json")
    assert run(["check", "--spec", spec, "--condition", "regular_sublinear"]) == EXIT_HEALTHY
    assert run(["roundtrip", "--spec", spec]) == EXIT_HEALTHY
    assert run(["synth", "--spec", spec]) == EXIT_HEALTHY


def test_cmd_synth_inconclusive_paths(tmp_path):
    # probe table + insufficient grid: the precondition is inconclusive
    doc = {
        "sets": {"X": ["x"], "Y": ["y0", "y1"]},
        "transformer": {
            "kind": "probe_table",
            "source": "Y",
            "target": "X",
            "pairs": [
                [["0", "0"], ["0"]],
                [["1", "1"], ["1"]],
                [["1", "0"], ["1/4"]],
                [["0", "1"], ["1/4"]],
            ],
        },
        "probes": {"predicates": [["0", "0"]], "scalars": ["0", "1"]},
        "modality": "total",
    }
    spec = write(tmp_path, doc, "inc1.json")
    assert run(["synth", "--spec", spec]) == EXIT_INCONCLUSIVE

    # adequate probes for the check, but certification fails: inconclusive
    doc["modality"] = "demonic_prob"
    doc["transformer"]["pairs"].append([["1/2", "1"], ["1/2"]])
    doc["probes"] = {
        "predicates": [["0", "0"], ["1", "1"], ["1", "0"], ["0", "1"], ["1/2", "1"]],
        "scalars": ["0", "1"],
    }
    spec = write(tmp_path, doc, "inc2.json")
    assert run(["synth", "--spec", spec]) == EXIT_INCONCLUSIVE

    # a probe table cannot answer Dirac probes outside its list: inconclusive,
    # never a crash
    doc["modality"] = "total"
    doc["probes"] = {
        "predicates": [["0", "0"], ["1", "1"], ["1", "0"], ["0", "1"], ["1/2", "1"], ["1/2", "1/2"]],
        "scalars": ["0", "1"],
    }
    spec = write(tmp_path, doc, "inc3.json")
    assert run(["synth", "--spec", spec]) == EXIT_INCONCLUSIVE


def test_cmd_check_finitary(tmp_path, capsys):
    spec = write(tmp_path, RELATION_DOC)
    assert run(["check", "--spec", spec, "--condition", "finitary"]) == EXIT_HEALTHY
    out = capsys.readouterr().out
    assert "supports" in out


def test_cmd_laws_modality(capsys):
    assert run(["laws", "--monad", "powerset", "--modality", "diamond"]) == EXIT_HEALTHY
    out = capsys.readouterr().out
    assert "algebra diamond: healthy" in out
    assert "lifting diamond:cl_join: healthy" in out


def test_probe_table_backed_by_computation_mismatch(tmp_path):
    doc = {
        "sets": {"X": ["x"], "Y": ["y0", "y1"]},
        "computation": {
            "monad": "subdist",
            "source": "X",
            "target": "Y",
            "rows": {"x": {"y0": "1/2"}},
        },
        "modality": "total",
        "transformer": {
            "kind": "probe_table",
            "source": "Y",
            "target": "X",
            "pairs": [[["1", "0"], ["1/3"]]],  # disagrees: should be 1/2
        },
    }
    with pytest.raises(SpecError) as err:
        parse_spec(json.dumps(doc))
    assert err.value.code == "E_PROBE"


@pytest.mark.parametrize(
    "probes, code, path",
    [
        ({"predicates": [["2", "0"]], "random": 0}, "E_RAT", "$.probes.predicates[0][0]"),
        ({"predicates": [["0", "abc"]], "random": 0}, "E_RAT", "$.probes.predicates[0][1]"),
        ({"scalars": ["0", "3/2"]}, "E_RAT", "$.probes.scalars[1]"),
        ({"predicates": "01"}, "E_SCHEMA", "$.probes.predicates"),
        ({"scalars": "01"}, "E_SCHEMA", "$.probes.scalars"),
        ({"random": -1}, "E_SCHEMA", "$.probes.random"),
        ({"random": 1.5}, "E_SCHEMA", "$.probes.random"),
    ],
)
def test_probe_overrides_are_validated(tmp_path, capsys, probes, code, path):
    doc = {
        "sets": {"X": ["x"], "Y": ["y0", "y1"]},
        "computation": {
            "monad": "subdist",
            "source": "X",
            "target": "Y",
            "rows": {"x": {"y0": "1/2", "y1": "1/4"}},
        },
        "modality": "total",
        "probes": probes,
    }
    spec = write(tmp_path, doc)
    assert run(["wp", "--spec", spec]) == EXIT_INPUT
    assert f"[{code}] at {path}:" in capsys.readouterr().err
    assert run(["check", "--spec", spec, "--condition", "gemod_total"]) == EXIT_INPUT


def _relation_rows(monad, row):
    """RELATION_DOC as a computation of another monad, with row at x0 and
    the full row at x1."""
    rows = {"x0": row, "x1": ["y0", "y1"] if monad == "lift_powerset" else [["y0", "y1"]]}
    return {**RELATION_DOC, "computation": {**RELATION_DOC["computation"], "monad": monad, "rows": rows}}


PROBE_TABLE = {"kind": "probe_table", "source": "Y", "target": "X", "pairs": [[["0", "0"], ["0", "0"]]]}
SUBDIST_DOC = {
    "sets": {"X": ["x"], "Y": ["y0", "y1"]},
    "computation": {"monad": "subdist", "source": "X", "target": "Y", "rows": {"x": {"y0": "1/2"}}},
    "modality": "total",
}


@pytest.mark.parametrize(
    "argv, doc, code",
    [
        (["wp", "--modality", "bogus"], SUBDIST_DOC, "E_MODALITY"),
        (["wp", "--modality", "diamond"], SUBDIST_DOC, "E_MODALITY"),
        (["synth", "--modality", "diamond"], SUBDIST_DOC, "E_MODALITY"),
        (["roundtrip", "--modality", "diamond"], SUBDIST_DOC, "E_MODALITY"),
        (["check", "--condition", "join"], SUBDIST_DOC, "E_SCHEMA"),
        (["check", "--condition", "emod"], RELATION_DOC, "E_SCHEMA"),
        (["check", "--condition", "join"], {**RELATION_DOC, "computation": 5}, "E_SCHEMA"),
        (["check", "--condition", "join"], {**RELATION_DOC, "transformer": []}, "E_SCHEMA"),
        (["check", "--condition", "join"], {**RELATION_DOC, "transformer": PROBE_TABLE}, "E_MODALITY"),
        (
            ["check", "--condition", "join"],
            {**RELATION_DOC, "transformer": {**PROBE_TABLE, "pairs": [[5, ["0", "0"]]]}},
            "E_SCHEMA",
        ),
        (["wp"], {**RELATION_DOC, "modality": 5}, "E_MODALITY"),
        (["wp", "--modality", "game"], _relation_rows("up_powerset", {"generators": 5}), "E_SCHEMA"),
        (["wp", "--modality", "game"], _relation_rows("up_powerset", [5]), "E_SCHEMA"),
        (["wp", "--modality", "dijkstra"], _relation_rows("lift_powerset", {"elements": 5}), "E_SCHEMA"),
    ],
)
def test_bad_input_is_a_spec_error(tmp_path, capsys, argv, doc, code):
    # each of these once surfaced as a ValueError, TypeError or
    # AttributeError from inside the package
    assert run(argv + ["--spec", write(tmp_path, doc)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"[{code}]" in err and "internal error" not in err


def test_bad_flags_are_input_errors(capsys):
    assert run(["laws", "--monad", "bogus"]) == EXIT_INPUT
    assert "[E_SCHEMA] at --monad" in capsys.readouterr().err
    assert run(["laws", "--monad", "powerset", "--modality", "bogus"]) == EXIT_INPUT
    assert "[E_MODALITY] at --modality" in capsys.readouterr().err


def test_a_bug_is_an_internal_error(monkeypatch, capsys):
    # a ValueError from inside wpbench is not bad input: it exits 70 with
    # its traceback, where it used to exit 64 as an input error
    def broken(instance, max_enum):
        raise ValueError("broken sweep")

    monkeypatch.setattr(cli, "enum_verify", broken)
    assert run(["enum-verify", "--theorem", "may", "--sizes", "1", "1"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback" in err and err.endswith("internal error: ValueError: broken sweep\n")


def test_roundtrip_on_a_grid_below_the_minimum_is_inconclusive(tmp_path, capsys):
    # the synthesis precondition fails on the grid, not on the transformer
    spec = write(tmp_path, {**SUBDIST_DOC, "probes": {"predicates": [], "random": 0}})
    assert run(["roundtrip", "--spec", spec]) == EXIT_INCONCLUSIVE
    assert capsys.readouterr().out == (
        "synthesis rejected: inconclusive: grid below the minimum invariant (diracs/constants/core sums)\n"
    )
