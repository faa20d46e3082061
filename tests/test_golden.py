"""Byte-identity corpus: CLI reports and verdict descriptions pinned to files.

``golden/cases.json`` lists command lines over the spec documents in
``golden/specs``; each case's exit code and standard output are pinned in
``golden/expected/<name>.txt``.  Two Python-level lists are pinned as well:
``lifting.txt`` (``lifting_check`` on the benchmark's modality/class pairs and
on corrupted modalities) and ``opaque.txt`` (seeded corrupted opaque rules
and dense tables, covering every transformer law id).

After a deliberate change of output, rewrite the expected files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

from wpbench.cli import run
from wpbench.core import FinSet
from wpbench.healthiness import ProbeGrid, run_condition
from wpbench.modalities import Modality, builtin_modality, lifting_check
from wpbench.semantics import BooleanTransformer, RationalTransformer

GOLDEN = Path(__file__).parent / "golden"
F = Fraction

BOOLEAN_LAWS = {"join.bottom", "join.binary", "meet.top", "meet.binary", "strict.bottom", "monotone"}
RATIONAL_LAWS = {
    f"{family}.{law}"
    for family, laws in (
        ("gemod", ("zero", "one", "sum", "sum_defined", "scale")),
        ("gemod_dual", ("zero", "sum", "sum_defined", "scale")),
        ("sublinear", ("subadditive", "subadditive_defined", "scale", "translate", "translate_defined")),
    )
    for law in laws
}


def cli_outputs() -> dict:
    """name -> "exit N" line plus the command's standard output."""
    out = {}
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        for case in json.loads((GOLDEN / "cases.json").read_text()):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = run(case["argv"])
            out[case["name"]] = f"exit {code}\n{buf.getvalue()}"
    finally:
        os.chdir(cwd)
    return out


def _corrupted_modality(name: str, rule) -> Modality:
    """The catalog modality with value rule(value, t, f), clamped to [0, 1]."""
    base = builtin_modality(name)

    def evaluate(t, f):
        return min(max(rule(base.evaluate(t, f), t, f), F(0)), F(1))

    return Modality(f"{name}~", base.monad, base.carrier, base.structure_class, evaluate, base.param)


def _bump_at(den: int, by):
    """Move the value by ``by`` where the valuation takes a value whose
    denominator den divides: such values come from one law's arguments only."""

    def rule(v, t, f):
        support = set().union(*(mu.support for mu in t)) if isinstance(t, tuple) else t.support
        return v + by if any(f(y).denominator % den == 0 for y in support) else v

    return rule


def lifting_lines() -> list:
    lines = []
    for name, cls in (
        ("diamond", "cl_join"),
        ("box", "cl_meet"),
        ("total", "gemod"),
        ("partial", "gemod_dual"),
        ("convex", "emod"),
        ("diamond", "cl_meet"),
    ):
        verdict = lifting_check(builtin_modality(name), cls, n_max=3, samples_per_n=20)
        lines.append(f"{name}:{cls} {verdict.describe()}")
    # corrupted components: witnesses in every arg format (a witness at a
    # t of two strings would print in hash order, so none is pinned here)
    for name, cls, rule in (
        ("game", "pos", lambda v, t, f: 1 - v),
        ("dijkstra", "strict_cl_meet", lambda v, t, f: 1),
        ("dijkstra", "strict_cl_meet", lambda v, t, f: 1 - v),
        ("total", "gemod", lambda v, t, f: v + F(1, 8)),
        ("total", "gemod", lambda v, t, f: v * v),
        ("total", "gemod", lambda v, t, f: v + v),
        ("total", "gemod", _bump_at(16, F(1, 8))),
        ("partial", "gemod_dual", lambda v, t, f: v - F(1, 8)),
        ("partial", "gemod_dual", lambda v, t, f: v * v),
        ("partial", "gemod_dual", lambda v, t, f: 2 * v - v * v),
        ("partial", "gemod_dual", _bump_at(16, -F(1, 8))),
        ("convex", "emod", lambda v, t, f: v * F(7, 8)),
        ("convex", "emod", lambda v, t, f: v + F(1, 8) if v < 1 else v),
        ("demonic_prob", "emod_sublinear", lambda v, t, f: v * v),
        ("demonic_prob", "emod_sublinear", lambda v, t, f: v + v),
        ("demonic_prob", "emod_sublinear", _bump_at(24, -F(1, 8))),
    ):
        verdict = lifting_check(_corrupted_modality(name, rule), cls, n_max=2, samples_per_n=20)
        lines.append(f"{name}~:{cls} {verdict.describe()}")
    return lines


def _weights(rng: Random, n: int, exact: bool) -> tuple:
    den = rng.choice((2, 3, 4, 6, 8))
    remaining, nums = den, []
    for j in range(n):
        k = remaining if (exact and j == n - 1) else rng.randint(0, remaining)
        nums.append(k)
        remaining -= k
    rng.shuffle(nums)
    return tuple(F(k, den) for k in nums)


def _healthy_rule(rng: Random, condition: str, nx: int, ny: int):
    if condition == "regular_sublinear":
        polys = [[_weights(rng, ny, True) for _ in range(rng.randint(1, 3))] for _ in range(nx)]
        return lambda v: tuple(min(sum(c * a for c, a in zip(w, v)) for w in verts) for verts in polys)
    rows = []
    for _ in range(nx):
        w = _weights(rng, ny, condition == "emod")
        rows.append((w, 1 - sum(w) if condition == "gemod_partial" else F(0)))
    return lambda v: tuple(sum((c * a for c, a in zip(w, v)), off) for w, off in rows)


def _corrupt(rule, point: tuple, i: int, value):
    """The rule with output coordinate i replaced by value at one point."""

    def fn(v):
        out = rule(v)
        return out[:i] + (value,) + out[i + 1 :] if tuple(v) == point else out

    return fn


def opaque_lines() -> list:
    """Opaque rules corrupted at every grid predicate and at off-grid points
    that only the scale and translation laws reach, and seeded dense tables
    under every Boolean condition; asserts that every law id is covered."""
    lines, seen = [], set()

    def record(label, condition, phi, grid=None):
        verdict = run_condition(condition, phi, grid)
        if verdict.witness is not None:
            seen.add(verdict.witness.args["law"])
        lines.append(f"{label}: {verdict.describe()}")

    X, Y = FinSet("X", ("x0", "x1")), FinSet("Y", ("y0", "y1"))
    grid = ProbeGrid.default(Y, seed=4)
    values = sorted({F(k, d) for d in (2, 3, 4, 6, 8) for k in range(d + 1)})
    rng = Random(2016)
    shifted = {
        "gemod_partial": lambda p: tuple(a / 4 + F(3, 4) for a in p),
        "regular_sublinear": lambda p: tuple(a + F(1, 4) for a in p),
    }
    for condition in ("gemod_total", "gemod_partial", "emod", "regular_sublinear"):
        for k, pred in enumerate(grid.predicates):
            points = [pred]
            if condition in shifted and max(shifted[condition](pred)) <= 1:
                points.append(shifted[condition](pred))
            for n, point in enumerate(points):
                rule = _healthy_rule(rng, condition, len(X), len(Y))
                i = rng.randrange(len(X))
                value = rng.choice([v for v in values if v != rule(point)[i]])
                phi = RationalTransformer(Y, X, _corrupt(rule, point, i, value))
                record(f"{condition} #{k}{'+' * n}", condition, phi, grid)
    # translation past one, reachable only on a grid whose sums stay below it
    line = FinSet("L", ("l",))
    sparse = ProbeGrid.explicit(line, [(F(0),), (F(1, 4),), (F(1),)], (F(0), F(3, 4), F(1)))
    bent = {F(3, 16): F(1, 4), F(1, 4): F(1, 3), F(1, 2): F(2, 3)}
    phi = RationalTransformer(line, line, lambda v: (bent.get(v[0], v[0]),))
    record("regular_sublinear sparse", "regular_sublinear", phi, sparse)
    for k in range(40):
        table = tuple(rng.randrange(4) for _ in range(4))
        for condition in ("join", "meet", "monotone", "strict_meets"):
            record(f"{condition} {table}", condition, BooleanTransformer(Y, X, table))
    missing = (BOOLEAN_LAWS | RATIONAL_LAWS) - seen
    assert not missing, f"corpus no longer covers {sorted(missing)}"
    return lines


def render() -> dict:
    files = {f"expected/{name}.txt": text for name, text in cli_outputs().items()}
    files["expected/lifting.txt"] = "\n".join(lifting_lines()) + "\n"
    files["expected/opaque.txt"] = "\n".join(opaque_lines()) + "\n"
    return files


def test_golden_corpus():
    got = render()
    expected = {
        str(p.relative_to(GOLDEN)): p.read_text(encoding="utf-8")
        for p in (GOLDEN / "expected").glob("*.txt")
    }
    assert sorted(got) == sorted(expected)
    mismatched = [name for name in sorted(got) if got[name] != expected[name]]
    assert not mismatched, f"outputs differ from the golden corpus: {mismatched}"


if __name__ == "__main__":
    for old in (GOLDEN / "expected").glob("*.txt"):
        old.unlink()
    (GOLDEN / "expected").mkdir(exist_ok=True)
    files = render()
    for name, text in files.items():
        (GOLDEN / name).write_text(text, encoding="utf-8")
    sys.stdout.write(f"wrote {len(files)} expected files\n")
