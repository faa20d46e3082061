"""The law table and the instance catalog: replay coverage and docs sync."""

import ast
import importlib
import re
from fractions import Fraction
from pathlib import Path

import pytest

import wpbench
from wpbench.cli import run
from wpbench.core import FinSet
from wpbench.healthiness import CONDITIONS, ProbeGrid, run_condition
from wpbench.modalities import INSTANCES, LAWS, STRUCTURE_CLASSES, check_functional_laws
from wpbench.semantics import BooleanTransformer, RationalTransformer
from wpbench.sweep import THEOREM_IDS
from wpbench.verdicts import _LAW_EVALUATORS, witness_is_sound

F = Fraction
README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = README.parent / "src" / "wpbench"
# witness laws the package emits with no replay evaluator yet; the set may
# only shrink
UNREPLAYED = {"sweep.constructed_health", "sweep.constructed_synth"}

# One seeded violation per law.  Boolean laws: a one-output dense table over
# two postcondition states.  Rational laws: a one-dimensional rule (identity
# or the given map, with some points moved) on a small explicit grid.
BOOLEAN_TABLES = {
    "bottom": (1, 1, 1, 1),
    "top": (0, 0, 0, 0),
    "binary_join": (0, 1, 0, 0),
    "binary_meet": (0, 1, 1, 1),
    "monotone": (0, 1, 0, 0),
}
G3, S3 = (0, F(1, 2), 1), (0, F(1, 2), 1)
RATIONAL_RULES = {
    "zero": (G3, S3, None, {0: F(1, 4)}),
    "one": (G3, S3, lambda v: v / 2, {}),
    "dual_zero": (G3, S3, lambda v: v / 2, {}),
    "sum_defined": (G3, S3, None, {F(1, 2): F(3, 4)}),
    "sum": (G3, S3, None, {F(1, 2): F(1, 4)}),
    "scale": (G3, S3, None, {F(1, 4): F(1, 3)}),
    "dual_sum_defined": (G3, S3, None, {F(1, 2): F(1, 4)}),
    "dual_sum": (G3, S3, None, {F(1, 2): F(3, 4)}),
    "dual_scale": (G3, S3, lambda v: (1 + v) / 2, {F(3, 4): F(1, 2)}),
    "subadditive_defined": (G3, S3, None, {F(1, 2): F(3, 4)}),
    "subadditive": (G3, S3, None, {1: F(1, 2)}),
    "translate_defined": ((0, F(1, 4), 1), (0, F(3, 4), 1), None, {F(3, 16): F(1, 4), F(1, 4): F(1, 3), F(1, 2): F(2, 3)}),
    "translate": (G3, (0, F(1, 4), F(1, 2), 1), None, {F(3, 4): F(1, 2)}),
}


def _class_laws():
    """(class, law name, transformer law id) for every law of every class."""
    for cls in STRUCTURE_CLASSES.values():
        for laws, law_id in cls.groups:
            for law in laws:
                yield cls, law.name, law_id if law is laws[-1] else f"{law_id}_defined"


def _rule(name):
    grid, scalars, base, moved = RATIONAL_RULES[name]
    g = lambda v: F(moved.get(v, base(v) if base else v))
    return [(F(p),) for p in grid], [F(s) for s in scalars], g


def test_every_law_is_covered():
    assert set(BOOLEAN_TABLES) | set(RATIONAL_RULES) == set(LAWS)
    assert {name for _, name, _ in _class_laws()} == set(LAWS)


@pytest.mark.parametrize("cls, name, law_id", list(_class_laws()), ids=lambda v: getattr(v, "tag", v))
def test_seeded_violation_replays_in_both_consumers(cls, name, law_id):
    if name in BOOLEAN_TABLES:
        Y, X = FinSet("Y", ("y0", "y1")), FinSet("X", ("x",))
        table = BOOLEAN_TABLES[name]
        phi = BooleanTransformer(Y, X, table)
        verdict = run_condition(cls.condition, phi)
        functional = lambda t: table[t[0] + 2 * t[1]]
        witness, _ = check_functional_laws(functional, 2, cls)
    else:
        preds, scalars, g = _rule(name)
        line = FinSet("L", ("l",))
        phi = RationalTransformer(line, line, lambda v: (g(v[0]),))
        verdict = run_condition(cls.condition, phi, ProbeGrid.explicit(line, preds, scalars))
        functional = lambda t: g(t[0])
        witness, _ = check_functional_laws(functional, 1, cls, preds, scalars)
    assert verdict.is_unhealthy and verdict.witness.args["law"] == law_id
    assert verdict.witness.law in _LAW_EVALUATORS
    assert witness_is_sound(phi, verdict.witness)
    # the functional check folds translation's definedness into translate
    assert witness.args["law"] == ("translate" if name == "translate_defined" else name)
    assert witness.law in _LAW_EVALUATORS
    assert witness_is_sound(functional, witness)


def _readme_list(label: str) -> list:
    text = README.read_text(encoding="utf-8")
    body = re.search(rf"^{label}: (.*?)\.$", text, re.M | re.S).group(1)
    return [name.strip().strip("`") for name in body.replace("\n", " ").split("|")]


def test_docs_and_messages_follow_the_catalog(tmp_path, capsys):
    theorems = [mod.theorem for mod in INSTANCES.values()]
    conditions = [mod.condition for mod in INSTANCES.values()] + ["finitary"]
    assert list(THEOREM_IDS) == theorems
    assert list(CONDITIONS) == conditions
    assert _readme_list("Theorems") == theorems
    assert _readme_list("Conditions") == conditions
    assert run(["enum-verify", "--theorem", "bogus"]) == 64
    assert f"ids: {', '.join(theorems)}" in capsys.readouterr().err
    spec = tmp_path / "doc.json"
    spec.write_text('{"sets": {"X": ["x"]}}')
    assert run(["check", "--spec", str(spec), "--condition", "bogus"]) == 64
    assert f"choose from {'|'.join(sorted(conditions))}" in capsys.readouterr().err
    with pytest.raises(ValueError, match=re.escape(f"choose from {'|'.join(sorted(conditions))}")):
        run_condition("bogus", None)


def _emitted_laws() -> tuple:
    """(laws, expressions): the law of every ``Witness(...)`` call in the
    package, and the source of each law not written as a string.  A law
    held in a name is collected from the function's tuples that start with
    a law string; one read off another witness re-wraps a law emitted
    elsewhere."""
    is_law = lambda node: isinstance(node, ast.Constant) and re.fullmatch(r"[a-z_]+\.[a-z_]+", str(node.value))
    laws, expressions = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for call in ast.walk(func):
                if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Witness"):
                    continue
                law = call.args[0]
                if isinstance(law, ast.Constant):
                    laws.add(law.value)
                    continue
                expressions.add(ast.unparse(law))
                if isinstance(law, ast.Name):
                    tuples = (t for t in ast.walk(func) if isinstance(t, ast.Tuple) and t.elts)
                    laws |= {t.elts[0].value for t in tuples if is_law(t.elts[0])}
    return laws, expressions


def test_every_emitted_witness_law_replays():
    laws, expressions = _emitted_laws()
    assert expressions == {"law", "witness.law"}
    assert {"transformer.rational", "sweep.realizability", "roundtrip.arrow", "synthesis.mass"} <= laws
    assert {law for law in laws if law not in _LAW_EVALUATORS} == UNREPLAYED


def test_every_export_resolves():
    # each module's __all__ names what it defines and star-imports; every
    # name the package imports into wpbench resolves there
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"wpbench.{path.stem}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{path.stem}.__all__ names undefined {missing}"
        exec(f"from wpbench.{path.stem} import *", {})
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    names = [a.asname or a.name for n in tree.body if isinstance(n, ast.ImportFrom) for a in n.names]
    assert names and all(hasattr(wpbench, name) for name in names)


def test_imports_sit_in_functions_only_to_break_cycles():
    # a function-level import is kept only where a module-level one would
    # close an import cycle: modalities and healthiness import the modules
    # these two functions need
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        owner = {}
        # ast.walk reaches an outer function before the functions inside
        # it, so each import is named by its outermost function
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        owner.setdefault(node, func.name)
        found += sorted((path.stem, name) for name in owner.values())
    assert found == [("monads", "_lattice_membership"), ("semantics", "_functor_probes")]
