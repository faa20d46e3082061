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
from wpbench.monads import MonadKind
from wpbench.semantics import BooleanTransformer, RationalTransformer
from wpbench.sweep import THEOREM_IDS
from wpbench.verdicts import _LAW_EVALUATORS, witness_is_sound

F = Fraction
README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = README.parent / "src" / "wpbench"
# witness laws the package emits with no replay evaluator; it stays empty
UNREPLAYED = set()

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
    assert found == [("monads", "_comparison_map"), ("semantics", "_functor_probes")]


def _switches(tree: ast.AST, names, skip: range = range(0), share: float = 0) -> list:
    """The line of every switch on the given names (theorem ids, class tags,
    or dotted attributes such as ``MonadKind.DIST``) in a module, outside
    the lines in ``skip``: a comparison (==, !=, in, not in) with a name
    literal or attribute, a dict display keyed by names, a
    conditional expression with a name literal for a branch, and an
    f-string with literal text that builds a name, where that text is at
    least ``share`` of the name's length (a share of one half keeps a short
    name, the tag ``emod``, from being built by every ``f"e{i}"``).  A
    lookup by a literal name (``INSTANCES["may"]``) is none of these."""
    names = set(names)
    spelled = lambda node: ast.unparse(node) if isinstance(node, ast.Attribute) else getattr(node, "value", None)
    is_name = lambda node: isinstance(node, (ast.Constant, ast.Attribute)) and spelled(node) in names
    compare_ops = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)
    found = []
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in skip:
            continue
        if isinstance(node, ast.Compare) and any(isinstance(op, compare_ops) for op in node.ops):
            sides = [node.left, *node.comparators]
            elts = [e for side in sides for e in getattr(side, "elts", [side])]
            hit = any(map(is_name, elts))
        elif isinstance(node, ast.Dict):
            hit = any(map(is_name, node.keys))
        elif isinstance(node, ast.IfExp):
            hit = is_name(node.body) or is_name(node.orelse)
        elif isinstance(node, ast.JoinedStr):
            parts = [re.escape(v.value) if isinstance(v, ast.Constant) else ".*" for v in node.values]
            literal = sum(len(v.value) for v in node.values if isinstance(v, ast.Constant))
            hit = literal > 0 and any(re.fullmatch("".join(parts), i) and literal >= share * len(i) for i in names)
        else:
            hit = False
        if hit:
            found.append(node.lineno)
    return found


def _package_switches(names, block: str, share: float = 0, owners: bool = False) -> list:
    """path:line of every switch on the names in the package, outside the
    module-level assignment or function called ``block``; with ``owners``,
    path:function, naming the innermost function around the switch."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = [
            range(node.lineno, node.end_lineno + 1)
            for node in tree.body
            if block in [getattr(node, "name", None), *(getattr(t, "id", None) for t in getattr(node, "targets", ()))]
        ]
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for line in _switches(tree, names, *skip, share=share):
            around = [f for f in funcs if f.lineno <= line <= f.end_lineno]
            owner = min(around, key=lambda f: f.end_lineno - f.lineno).name if owners and around else line
            found.append(f"{path.name}:{owner}")
    return sorted(found)


def test_theorem_ids_are_read_off_the_catalog_only():
    # the scan itself: each switch shape is found, a literal lookup is not
    switches = (
        'a == "may"\n"game" != b\nc in ("x", "must")\n{"dijkstra": 1}\nf"subdist_{v}"\nf"dist_{v}"\nf"{m}_total"\n'
        'INSTANCES["subdist_total" if z else "subdist_partial"]\n'
    )
    assert _switches(ast.parse(switches), INSTANCES) == [1, 2, 3, 4, 5, 6, 7, 8]
    lookups = 'INSTANCES["may"]\nf"coef[{t}]"\nx == "diamond"\n{k: 1 for k in "ab"}\n'
    assert _switches(ast.parse(lookups), INSTANCES) == []
    # the package: theorem ids appear only in the catalog block, which
    # writes each row's id
    assert _package_switches(INSTANCES, "INSTANCES") == []


def test_class_tags_are_read_off_the_tables_only():
    # a class is read off a catalog row or a condition's table entry; only
    # run_condition still dispatches on tags, to the three named grid
    # checkers that the benchmark traces
    tags = 'cls.tag == "emod"\nf"gemod_{v}"\nf"e{i}"\nSTRUCTURE_CLASSES["cl_join" if join else "cl_meet"]\n'
    assert _switches(ast.parse(tags), STRUCTURE_CLASSES, share=0.5) == [1, 2, 4]
    assert _package_switches(STRUCTURE_CLASSES, "run_condition", share=0.5) == []


# The monad-kind switches the package keeps, per function: (the number of
# comparisons, why).  A kind-generic routine reads its monad's row
# (``monads.MONADS``) instead; the synthesis switches choose a catalog
# row's inverse, and the other two shape a report.
KIND_SWITCHES = {
    "synthesis.py:synthesize": (2, "calls the inverse of a rational catalog row by its monad"),
    "synthesis.py:_synth_boolean": (2, "an up-closed row keeps its family; a lifted row may diverge"),
    "synthesis.py:_dirac_rows": (1, "every row of a distribution has mass one"),
    "synthesis.py:_arrow_sides": (1, "polytope arrows compare on the grid as one pair"),
    "synthesis.py:_normalize_arrow": (1, "a lifted row that may diverge collapses to bottom"),
    "sweep.py:_sweep_boolean": (2, "the may/must reports print wp_injective and set_equality"),
    "cli.py:_cmd_enum_verify": (1, "enum-verify draws 100 polytope arrows, 200 of any other kind"),
}


def test_monad_kinds_are_read_off_the_table_only():
    kinds = [f"MonadKind.{k.name}" for k in MonadKind]
    snippet = (
        "a.kind == MonadKind.DIST\nMonadKind.POWERSET != b\nc in (MonadKind.SUBDIST, MonadKind.DIST)\n"
        "d not in (MonadKind.CV_DIST,)\nMONADS[MonadKind.DIST]\nKleisliArrow(MonadKind.DIST, X, Y, rows)\n"
        "e == Other.DIST\n"
    )
    assert _switches(ast.parse(snippet), kinds) == [1, 2, 3, 4]
    expected = sorted(name for name, (count, _) in KIND_SWITCHES.items() for _ in range(count))
    # an f-string cannot spell an attribute, so one is never a kind switch
    assert _package_switches(kinds, "MONADS", share=1, owners=True) == expected


# the exceptions a handler in the package may catch outside the CLI: a
# refused synthesis, a probe a table lacks, a missing key
CAUGHT = {"UnhealthyInputError", "MissingProbeError", "KeyError"}


def _caught(tree: ast.AST) -> list:
    """(line, name) for every exception an ``except`` clause names; a bare
    ``except`` names BaseException."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            types = getattr(node.type, "elts", [node.type])
            found += [(node.lineno, ast.unparse(t) if t else "BaseException") for t in types]
    return found


def test_an_error_is_never_an_answer():
    # outside the CLI, which turns errors into exit codes, no handler turns
    # a ValueError, a TypeError or any exception into a verdict or an answer
    snippet = (
        "try:\n    f()\nexcept ValueError:\n    pass\n"
        "try:\n    g()\nexcept (KeyError, TypeError):\n    pass\n"
    )
    assert _caught(ast.parse(snippet)) == [(3, "ValueError"), (7, "KeyError"), (7, "TypeError")]
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "cli.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [f"{path.name}:{line} {name}" for line, name in _caught(tree) if name not in CAUGHT]
    assert found == []
