import argparse
import ast
import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wpbench import cli
from wpbench.cli import (
    EXIT_HEALTHY,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_UNHEALTHY,
    SpecError,
    _build_parser,
    computation_to_json,
    parse_spec,
    run,
)
from wpbench.core import FinSet
from wpbench.monads import BOT, MONADS, DistV, KleisliArrow, MonadKind, RowError, random_arrow
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


def _command_flags() -> dict:
    """The option strings each subcommand accepts."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: set(p._option_string_actions) for name, p in sub.choices.items()}


@pytest.mark.parametrize(
    "command, flag",
    [
        ("check", "--seed"),
        ("wp", "--sizes"),
        ("synth", "--jobs"),
        ("roundtrip", "--condition"),
        ("laws", "--spec"),
        ("enum-verify", "--modality"),
    ],
)
def test_a_flag_the_command_does_not_read_is_an_input_error(capsys, command, flag):
    # check --seed 7 used to run with the document's seed
    assert flag not in _command_flags()[command]
    assert run([command, flag, "7"]) == EXIT_INPUT
    assert f"unrecognized arguments: {flag} 7" in capsys.readouterr().err


def test_no_command_line_passes_a_flag_its_command_does_not_read():
    # every argv list literal in the tests, demos and bench, and every golden
    # case; a flag no command has is left to the tests of unknown flags
    flags = _command_flags()
    known = set().union(*flags.values())
    root = Path(__file__).parent.parent
    argvs = [case["argv"] for case in json.loads((root / "tests/golden/cases.json").read_text())]
    for path in [*root.glob("tests/*.py"), *root.glob("demos/*.py"), *root.glob("bench/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.List):
                argvs.append([e.value if isinstance(e, ast.Constant) else None for e in node.elts])
    seen = set()
    for argv in argvs:
        if argv and argv[0] in flags:
            seen.add(argv[0])
            ignored = [a for a in argv[1:] if a in known and a not in flags[argv[0]]]
            assert not ignored, argv
    assert seen == set(flags)


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
    # pairs that agree leave the computation's transformer in place, which
    # answers predicates the table does not list
    doc["transformer"]["pairs"] = [[["1", "0"], ["1/2"]]]
    spec = parse_spec(json.dumps(doc))
    assert spec.transformer.label != "probe_table"
    assert spec.transformer.apply_values((F(1, 2), F(1))) == (F(1, 4),)


# a probe table that lacks the grid point (1, 1)
INCOMPLETE_PROBE_DOC = {
    "sets": {"X": ["x"], "Y": ["y0", "y1"]},
    "transformer": {
        "kind": "probe_table",
        "source": "Y",
        "target": "X",
        "pairs": [[["0", "0"], ["0"]], [["1", "0"], ["1/4"]], [["0", "1"], ["3/4"]]],
    },
    "probes": {"predicates": [["0", "0"], ["1", "1"], ["1", "0"], ["0", "1"]], "scalars": ["0", "1"]},
}
MISSING = "probe table lacks a required evaluation point: (Fraction(1, 1), Fraction(1, 1))"


def test_a_probe_table_without_a_point_the_check_reads_is_inconclusive(tmp_path, capsys):
    # the finitary report probes every grid point
    spec = write(tmp_path, INCOMPLETE_PROBE_DOC)
    assert run(["check", "--spec", spec, "--condition", "finitary"]) == EXIT_INCONCLUSIVE
    out, err = capsys.readouterr()
    assert out == f"condition: finitary\nverdict: inconclusive: {MISSING}\n"
    assert err == ""


@pytest.mark.parametrize(
    "argv, report",
    [
        (["check", "--condition", c], f"condition: {c}\nverdict: inconclusive: {MISSING}\n")
        for c in ("gemod_total", "gemod_partial", "emod", "regular_sublinear", "finitary")
    ]
    + [
        (["synth", "--modality", m], f"synthesis rejected: inconclusive: {MISSING}\n")
        for m in ("total", "partial", "convex", "demonic_prob")
    ],
)
def test_no_command_leaks_a_missing_probe(tmp_path, capsys, argv, report):
    # each command answers the missing point with its own inconclusive
    # report; an escaped MissingProbeError would exit as an internal error
    assert run([*argv, "--spec", write(tmp_path, INCOMPLETE_PROBE_DOC)]) == EXIT_INCONCLUSIVE
    assert capsys.readouterr() == (report, "")


@pytest.mark.parametrize(
    "monad, row, code, path",
    [
        ("lift_powerset", 5, "E_ROWS", ""),
        ("lift_powerset", [], "E_ROWS", ""),
        ("up_powerset", 5, "E_ROWS", ""),
        ("up_powerset", {"elements": []}, "E_ROWS", ""),
        ("cv_dist", [], "E_ROWS", ""),
        ("cv_dist", ["y0"], "E_ROWS", "[0]"),
        ("cv_dist", [{"y0": "1/2"}], "E_MASS", "[0]"),
        # bottom is a JSON boolean, and a row object has only its own keys
        ("lift_powerset", {"elements": ["y0"], "bottom": "false"}, "E_SCHEMA", ".bottom"),
        ("lift_powerset", {"elements": ["y0"], "bottom": 1}, "E_SCHEMA", ".bottom"),
        ("lift_powerset", {"elems": ["y0"]}, "E_SCHEMA", ""),
        ("up_powerset", {"generators": [["y0"]], "junk": 1}, "E_SCHEMA", ""),
    ],
)
def test_malformed_rows_are_spec_errors(monad, row, code, path):
    with pytest.raises(SpecError) as err:
        parse_spec(json.dumps(_relation_rows(monad, row)))
    assert (err.value.code, err.value.path) == (code, "$.computation.rows.x0" + path)


ONE_ROW_TARGET = FinSet("Y", ("y0", "y1"))


def _one_row(monad, row):
    """A document whose computation has one state, x0, with the row."""
    computation = {"monad": monad, "source": "X", "target": "Y", "rows": {"x0": row}}
    return {"sets": {"X": ["x0"], "Y": ["y0", "y1"]}, "computation": computation}


# (monad, JSON row, the same row as a library value, code, path in the row)
REFUSED_ROWS = [
    ("powerset", ["y0", "z"], frozenset({"y0", "z"}), "E_SET", ""),
    ("lift_powerset", [], frozenset(), "E_ROWS", ""),
    ("lift_powerset", {"elements": ["z"], "bottom": True}, frozenset({"z", BOT}), "E_SET", ""),
    ("subdist", {"y0": "3/4", "y1": "1/2"}, DistV({"y0": F(3, 4), "y1": F(1, 2)}), "E_MASS", ""),
    ("subdist", {"z": "1/2"}, DistV({"z": F(1, 2)}), "E_SET", ""),
    ("dist", {"y0": "1/2"}, DistV({"y0": F(1, 2)}), "E_MASS", ""),
    ("dist", {"y1": "1/2", "z": "1/2"}, DistV({"y1": F(1, 2), "z": F(1, 2)}), "E_SET", ""),
    ("up_powerset", [["y0"]], frozenset({frozenset({"y0"})}), "E_UPCLOSED", ""),
    ("up_powerset", [["z"], ["y0", "z"]], frozenset({frozenset({"z"}), frozenset({"y0", "z"})}), "E_SET", ""),
    ("cv_dist", [], (), "E_ROWS", ""),
    ("cv_dist", [{"y0": "1"}, {"y0": "1/2"}], (DistV.dirac("y0"), DistV({"y0": F(1, 2)})), "E_MASS", "[1]"),
    ("cv_dist", [{"y0": "1"}, {"z": "1"}], (DistV.dirac("y0"), DistV.dirac("z")), "E_SET", "[1]"),
]


@pytest.mark.parametrize("monad, raw, value, code, path", REFUSED_ROWS)
def test_the_cli_and_the_library_refuse_the_same_rows(monad, raw, value, code, path):
    with pytest.raises(SpecError) as err:
        parse_spec(json.dumps(_one_row(monad, raw)))
    assert (err.value.code, err.value.path) == (code, "$.computation.rows.x0" + path)
    with pytest.raises(RowError) as err:
        KleisliArrow(monad, FinSet("X", ("x0",)), ONE_ROW_TARGET, [value])
    assert (err.value.code, err.value.path) == (code, path)


@pytest.mark.parametrize("kind", list(MonadKind))
def test_every_row_the_codec_accepts_is_the_row_the_arrow_holds(kind):
    monad, X = MONADS[kind], FinSet("X", ("x0",))
    rng = Random(5)
    for n in range(4):
        Y = FinSet("Y", tuple(f"y{j}" for j in range(n)))
        if not monad.has_tvalues(Y):
            continue
        for _ in range(40):
            row = monad.sample(rng, Y)
            read = monad.from_json(json.loads(json.dumps(monad.to_json(row, Y))), Y)
            assert read == KleisliArrow(kind, X, Y, [row]).rows[0] == row
    # the other shapes a row document may take
    other = {
        MonadKind.LIFT_POWERSET: [({"elements": [], "bottom": True}, {BOT}), (["y1"], {"y1"})],
        MonadKind.UP_POWERSET: [({"generators": [["y0"]]}, [["y0"], ["y0", "y1"]])],
        MonadKind.CV_DIST: [([{"y0": "1"}, {"y0": "1/1"}], [DistV.dirac("y0")])],
        MonadKind.SUBDIST: [({}, DistV()), ({"y0": "0", "y1": "1/3"}, DistV({"y1": F(1, 3)}))],
    }
    for raw, value in other.get(kind, []):
        read = monad.from_json(raw, ONE_ROW_TARGET)
        assert read == KleisliArrow(kind, X, ONE_ROW_TARGET, [value]).rows[0]
        assert parse_spec(json.dumps(_one_row(kind.value, raw))).computation.rows[0] == read


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


def _with(doc, **fields):
    return json.dumps({**doc, **fields})


def test_json_booleans_are_no_numbers(tmp_path, capsys):
    # Python counts a bool as an int, so true once read as 1 and false as 0
    rows = {"x": {"y0": True}}
    refused = [
        (_with(SUBDIST_DOC, computation={**SUBDIST_DOC["computation"], "rows": rows}), "$.computation.rows.x.y0"),
        (_with(SUBDIST_DOC, transformer={**PROBE_TABLE, "pairs": [[[True, "0"], ["0"]]]}), "$.transformer.pairs[0][0]"),
        (_with(SUBDIST_DOC, transformer={**PROBE_TABLE, "pairs": [[["0", "0"], [False]]]}), "$.transformer.pairs[0][1]"),
    ]
    for text, path in refused:
        with pytest.raises(SpecError) as err:
            parse_spec(text)
        assert (err.value.code, err.value.path) == ("E_RAT", path)
    # probe values and scalars are read when a command asks for its grid
    for probes, path in (
        ({"predicates": [["0", True]], "random": 0}, "$.probes.predicates[0][1]"),
        ({"scalars": ["1/2", False]}, "$.probes.scalars[1]"),
    ):
        spec = write(tmp_path, {**SUBDIST_DOC, "probes": probes})
        assert run(["wp", "--spec", spec]) == EXIT_INPUT
        assert f"[E_RAT] at {path}:" in capsys.readouterr().err
    # a seed is an integer, and a bool is none
    with pytest.raises(SpecError) as err:
        parse_spec(_with(SUBDIST_DOC, seed=True))
    assert (err.value.code, err.value.path) == ("E_SCHEMA", "$.seed")
    assert parse_spec(_with(SUBDIST_DOC, seed=1)).seed == 1


def test_a_probe_table_refuses_a_repeated_predicate():
    # "1/2" and "2/4" are one predicate, which the table held once, with the
    # value row of its last pair
    pairs = [[["1/2"], ["1/4"]], [["2/4"], ["3/4"]], [["1/2"], ["0"]]]
    table = {"kind": "probe_table", "source": "Y", "target": "X", "pairs": pairs}
    doc = {"sets": {"X": ["x"], "Y": ["y"]}, "transformer": table}
    with pytest.raises(SpecError) as err:
        parse_spec(json.dumps(doc))
    assert (err.value.code, err.value.path) == ("E_TABLE", "$.transformer.pairs[1]")
    assert "[1/2] is listed twice" in str(err.value)
    doc["transformer"]["pairs"] = [pairs[0], [["1/3"], ["3/4"]]]
    assert parse_spec(json.dumps(doc)).transformer.apply_values((F(1, 2),)) == (F(1, 4),)


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


@pytest.mark.parametrize("doc", [RELATION_DOC, SUBDIST_DOC])
def test_cmd_roundtrip_without_a_modality_takes_the_first_row_of_the_monad(tmp_path, capsys, doc):
    # RELATION_DOC names diamond (may) and SUBDIST_DOC total (subdist_total),
    # the first catalog rows of their monads
    assert run(["roundtrip", "--spec", write(tmp_path, doc)]) == EXIT_HEALTHY
    named = capsys.readouterr().out
    bare = {key: value for key, value in doc.items() if key != "modality"}
    assert run(["roundtrip", "--spec", write(tmp_path, bare, "bare.json")]) == EXIT_HEALTHY
    assert capsys.readouterr().out == named


def test_roundtrip_on_a_grid_below_the_minimum_is_inconclusive(tmp_path, capsys):
    # the synthesis precondition fails on the grid, not on the transformer
    spec = write(tmp_path, {**SUBDIST_DOC, "probes": {"predicates": [], "random": 0}})
    assert run(["roundtrip", "--spec", spec]) == EXIT_INCONCLUSIVE
    assert capsys.readouterr().out == (
        "synthesis rejected: inconclusive: grid below the minimum invariant (diracs/constants/core sums)\n"
    )


# Spec fuzzing.  Documents are drawn from the spec's own shapes and
# vocabulary (its keys, the labels of two small sets, monads, modalities,
# transformer kinds, rationals in and out of [0, 1]), so that most of them
# reach the validation of a row, a table, a probe pair or a probe override,
# with arbitrary JSON in any place.
_WORD = st.sampled_from(
    ("sets", "rows", "kind", "truth_table", "probe_table", "X", "Y", "x0", "y0", "diamond", "convex", "tau_r:2")
    + tuple(k.value for k in MonadKind)
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False, allow_infinity=False) | _WORD,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_WORD | st.text(max_size=2), inner, max_size=3),
    max_leaves=10,
)


def _mostly(shape):
    """The shape nine times in ten, else arbitrary JSON."""
    return st.integers(0, 9).flatmap(lambda k: shape if k else _JSON)


_LABEL = st.sampled_from(("y0", "y1", "y0", "y1", "z"))
_RAT = _mostly(st.sampled_from(("0", "1", "1/2", "1/3", "2/3", "3/2", "-1/4", "1/0", "0.5")) | st.integers(-1, 2))
_PREDICATE = st.lists(_RAT, max_size=3)
_BITS = st.sampled_from(("", "0", "1", "00", "01", "10", "11", "2"))
_ROW = _mostly(
    st.one_of(
        st.lists(_LABEL, max_size=3),
        st.dictionaries(_LABEL, _RAT, max_size=3),
        st.fixed_dictionaries({}, optional={"elements": st.lists(_LABEL, max_size=2), "bottom": st.booleans()}),
        st.lists(st.dictionaries(_LABEL, _RAT, max_size=3), max_size=3),
        st.lists(st.lists(_LABEL, max_size=2), max_size=4),
        st.fixed_dictionaries({"generators": st.lists(st.lists(_LABEL, max_size=2), max_size=3)}),
    )
)
_SET = _mostly(st.sampled_from(("X", "Y", "Z")))
_CARRIER = lambda *labels: st.lists(st.sampled_from(labels), min_size=1, max_size=2, unique=True)
_DOCUMENTS = st.fixed_dictionaries(
    {"sets": _mostly(st.fixed_dictionaries({"X": _CARRIER("x0", "x1"), "Y": _CARRIER("y0", "y1")}))},
    optional={
        "computation": _mostly(
            st.fixed_dictionaries(
                {
                    "monad": _mostly(st.sampled_from([k.value for k in MonadKind])),
                    "source": _SET,
                    "target": _SET,
                    "rows": _mostly(st.fixed_dictionaries({"x0": _ROW, "x1": _ROW}, optional={"y0": _ROW})),
                }
            )
        ),
        "transformer": _mostly(
            st.fixed_dictionaries(
                {"kind": _mostly(st.sampled_from(("truth_table", "probe_table"))), "source": _SET, "target": _SET},
                optional={
                    "rows": _mostly(st.dictionaries(_BITS, _mostly(_BITS), max_size=4)),
                    "pairs": _mostly(st.lists(_mostly(st.lists(_PREDICATE, min_size=2, max_size=2)), max_size=3)),
                },
            )
        ),
        "modality": _mostly(
            st.sampled_from(("diamond", "box", "game", "total", "convex", "demonic_prob", "tau_r:1/3", "tau_r:2"))
        ),
        "probes": _mostly(
            st.fixed_dictionaries(
                {},
                optional={
                    "predicates": _mostly(st.lists(_PREDICATE, max_size=2)),
                    "scalars": _mostly(st.lists(_RAT, max_size=2)),
                    "random": _mostly(st.integers(-1, 3)),
                },
            )
        ),
        "seed": _mostly(st.integers(-1, 3)),
    },
)


# Documents on fixed carriers whose rows and probe pairs are mostly well
# formed (one value in six lies outside [0, 1]), so that they reach
# up-closure and the agreement of a probe table with its computation.
_VALUE = st.sampled_from(("0", "1", "1/2", "1/3", "2/3", "3/2"))
_Y = st.sampled_from(("y0", "y1"))
_DEEP_ROWS = {
    "up_powerset": st.lists(st.lists(_Y, max_size=2), max_size=4),
    "subdist": st.dictionaries(_Y, _VALUE, max_size=2),
    "dist": st.dictionaries(_Y, _VALUE, max_size=2),
}
_PAIR = st.tuples(st.lists(_VALUE, min_size=2, max_size=2), st.lists(_VALUE, min_size=1, max_size=1))
_DEEP = st.sampled_from(tuple(_DEEP_ROWS)).flatmap(
    lambda monad: st.fixed_dictionaries(
        {
            "sets": st.just({"X": ["x0"], "Y": ["y0", "y1"]}),
            "computation": st.fixed_dictionaries(
                {
                    "monad": st.just(monad),
                    "source": st.just("X"),
                    "target": st.just("Y"),
                    "rows": st.fixed_dictionaries({"x0": _DEEP_ROWS[monad]}),
                }
            ),
            "modality": st.just("total"),
            "transformer": st.fixed_dictionaries(
                {
                    "kind": st.just("probe_table"),
                    "source": st.just("Y"),
                    "target": st.just("X"),
                    "pairs": st.lists(_PAIR, min_size=1, max_size=2),
                }
            ),
        }
    )
)
_TEXTS = st.integers(0, 9).flatmap(
    lambda k: st.text(max_size=8) if k == 0 else (_DEEP if k == 1 else _DOCUMENTS).map(json.dumps)
)


def test_parse_spec_raises_only_spec_errors():
    codes = set()

    @settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_TEXTS)
    def parse(text):
        try:
            parse_spec(text)
        except SpecError as exc:
            codes.add(exc.code)

    parse()
    # the documents reach the deep validation codes, not only the schema
    assert {"E_RAT", "E_MASS", "E_UPCLOSED", "E_PROBE"} <= codes, codes


@pytest.mark.parametrize("kind", list(MonadKind))
@settings(max_examples=40, derandomize=True, deadline=None)
@given(nx=st.integers(0, 2), ny=st.integers(0, 3), seed=st.integers(0, 1 << 16))
def test_serialized_computations_parse_back(kind, nx, ny, seed):
    X = FinSet("X", tuple(f"x{i}" for i in range(nx)))
    Y = FinSet("Y", tuple(f"y{j}" for j in range(ny)))
    if nx and not MONADS[kind].has_tvalues(Y):
        return  # no arrow X -> T(Y) to draw
    arrow = random_arrow(kind, Random(seed), X, Y)
    assert parse_spec(json.dumps(computation_to_json(arrow))).computation == arrow
