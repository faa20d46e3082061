"""Reconstructing computations from healthy transformers, and the two
round-trip directions.

Each inverse works from the catalog row it inverts, which ``synthesize``
resolves once (``_catalog_row``): it checks the row's healthiness
condition (``run_condition(row.condition, ...)``) and reads the
computation off probe predicates.  There are three readers.  The Boolean
one reads, per state, the predicates phi accepts and their minimal
members, which are the row's mask basis (its ``closed_form``).  The
linear one reads each row off the Dirac probes and the constants, for
the total, partial and dist rows.  Both rebuild the transformer with
``pt_modality(row, ...)`` and compare it with the input.  The
demonic-probabilistic one builds, per state, the half-space region cut
out by the grid, on integers: its bounds are phi's rows at the grid's
lattice points, read a coordinate column at a time when phi holds
integer rows (``IntegerRows.table``) and point by point for a rule.  An
exact integer clipper (``_clip_columns``) finds its vertices in one pass
over slack columns: each vertex carries w_k . m for every half-space k,
a new vertex's column is the integer combination of its edge's two
columns, and the least slack over the final vertices is the certificate
that each minimum is attained on them, which is what the rebuilt
transformer would be compared on.  ``_clip_ints`` is the same clipper on
half-spaces given as rows.  A certification failure is reported as
inconclusive rather than forced.  Outside the catalog,
``synthesize`` checks the arrow read under the given modality.  The
round trip reads what it compares off the row as well: bottom absorption
on LIFT_POWERSET, and polytopes on CV_DIST, where pt(f)'s rows are tabled
once, by the synthesis, which hands the table to the arrow comparison.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import SizeGuardError
from .healthiness import ProbeGrid, run_condition
from .modalities import BOOLEAN, INSTANCES, Modality, TauR, builtin_modality
from .monads import (
    BOT,
    MONADS,
    DistV,
    IntegerRows,
    KleisliArrow,
    Lattice,
    MonadKind,
    _differing_point,
    dedup_vertices,
)
from .semantics import BooleanTransformer, RationalTransformer, pt_modality
from .verdicts import Verdict, Witness, register_law

__all__ = [
    "SynthesisResult",
    "UnhealthyInputError",
    "synth_relation",
    "synth_subdist",
    "synth_dist",
    "synth_upfamily",
    "synth_dijkstra",
    "synth_polytope",
    "roundtrip_verify",
    "synthesize",
    "INSTANCES",
    "instance_for_arrow",
    "cv_semantically_equal",
]

ZERO = Fraction(0)
ONE = Fraction(1)


class UnhealthyInputError(ValueError):
    """Synthesis was attempted on a transformer that fails its precondition."""

    def __init__(self, verdict: Verdict, condition: str):
        self.verdict = verdict
        self.condition = condition
        super().__init__(f"precondition {condition!r} failed: {verdict.describe()}")


@dataclass(frozen=True)
class SynthesisResult:
    """The synthesized arrow (None when refused), the residual verdict and
    the normalization flags.  ``bounds`` is, for ``synth_polytope`` on
    phi's rows, their table at the grid's lattice points
    (``IntegerRows.table``), which the round trip's arrow comparison reads
    instead of tabling the rows again; it takes no part in equality."""

    arrow: KleisliArrow | None
    residual: Verdict
    normalization: tuple = ()
    bounds: list | None = dataclasses.field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.residual.is_healthy


def _guard(verdict: Verdict, condition: str) -> None:
    if not verdict.is_healthy:
        raise UnhealthyInputError(verdict, condition)


# ---------------------------------------------------------------------------
# Boolean inverses: one reader of the accepted predicates


def _dense_residual(phi: BooleanTransformer, rebuilt: BooleanTransformer) -> Verdict:
    for m, (a, b) in enumerate(zip(phi.table, rebuilt.table)):
        if a != b:
            return Verdict.unhealthy(
                Witness("synthesis.reevaluate", {"pred_mask": m}, b, a), m + 1
            )
    return Verdict.healthy(len(phi.table))


def _synth_boolean(phi: BooleanTransformer, row: Modality) -> SynthesisResult:
    """The inverse of a Boolean catalog row, read off the predicates phi
    accepts at each state.  Past the row's condition the accepted family
    is up-closed, and its minimal members are the state's mask basis (the
    row's ``closed_form``): the singletons of a may row, the row itself for
    must and for dijkstra; a game family is every member they generate.
    A relation or dijkstra state gets the union of its minimal members, a
    dijkstra state that accepts nothing gets {bottom}, and a game state
    gets the accepted family.  Each row is a T-value by construction (a
    subset of Y; a nonempty union, as strictness keeps the empty predicate
    unaccepted, or {bottom}; an up-closed family), so the arrow is built
    without validating them again."""
    _guard(run_condition(row.condition, phi), row.condition)
    X, Y, table = phi.target, phi.source, phi.table
    subset = lambda m: frozenset(y for j, y in enumerate(Y.elements) if m >> j & 1)
    # per mask m, the states at which m is accepted and no mask one element
    # smaller is: the states whose basis holds m
    minimal = list(table)
    for j in range(len(Y)):
        bit = 1 << j
        for m in range(len(table)):
            if m & bit:
                minimal[m] &= ~table[m ^ bit]
    accepts = functools.reduce(operator.or_, table)
    rows = []
    for i in range(len(X)):
        if row.monad == MonadKind.UP_POWERSET:
            rows.append(frozenset(subset(m) for m, out in enumerate(table) if out >> i & 1))
        elif row.monad == MonadKind.LIFT_POWERSET and not accepts >> i & 1:
            rows.append(frozenset((BOT,)))
        else:
            basis = (m for m, out in enumerate(minimal) if out >> i & 1)
            rows.append(subset(functools.reduce(operator.or_, basis, 0)))
    arrow = KleisliArrow._of_valid_rows(row.monad, X, Y, tuple(rows))
    flags = ("bottom-absorption",) if any(BOT in r for r in rows) else ()
    return SynthesisResult(arrow, _dense_residual(phi, pt_modality(row, arrow)), flags)


def synth_relation(phi: BooleanTransformer, modality: str = "diamond") -> SynthesisResult:
    """The relation of a join-preserving (``diamond``) or meet-preserving
    (``box``) transformer; re-evaluation must be exact."""
    if modality not in ("diamond", "box"):
        raise ValueError("modality must be 'diamond' or 'box'")
    return _synth_boolean(phi, builtin_modality(modality))


def synth_upfamily(phi: BooleanTransformer) -> SynthesisResult:
    """f(x) = the family of subsets whose characteristic predicate phi accepts;
    monotonicity makes each family up-closed."""
    return _synth_boolean(phi, INSTANCES["game"])


def synth_dijkstra(phi: BooleanTransformer) -> SynthesisResult:
    """The divergence+nondeterminism case: a state that accepts no
    predicate is sent to {bottom}; elsewhere strictness and meet
    preservation give it one minimal accepted set, which is nonempty.
    With Y empty the one predicate is the zero one, so strictness sends
    every state to {bottom}."""
    return _synth_boolean(phi, INSTANCES["dijkstra"])


# ---------------------------------------------------------------------------
# Probabilistic inverses (Dirac probing is exact on rationals)


def _dirac_tuple(n: int, j: int, one: int) -> tuple:
    return tuple(one if k == j else 0 for k in range(n))


def _grid_residual(phi: RationalTransformer, rebuilt: RationalTransformer, grid: ProbeGrid) -> Verdict:
    """The rebuilt transformer against phi at every grid predicate, one
    check per state, on the grid's lattice (``_differing_point``, which
    evaluates no point when both hold the same rows); the witness is the
    first differing value, in Fractions."""
    lattice, n = grid.lattice, len(phi.target)
    k = _differing_point(phi._side, rebuilt._side, lattice)
    if k is not None:
        p = grid.predicates[k]
        a, b = phi.apply_values(p), rebuilt.apply_values(p)
        i = next(j for j, (u, v) in enumerate(zip(a, b)) if u != v)
        witness = Witness("synthesis.reevaluate", {"pred": p, "x": phi.target.elements[i]}, b[i], a[i])
        return Verdict.unhealthy(witness, (k + 1) * n)
    return Verdict.healthy(len(lattice.preds) * n)


def _dirac_rows(phi: RationalTransformer, row: Modality) -> list:
    """Per state x, the coefficients of the linear row's inverse read off
    Dirac probes, and the mass the row must have:

    total:   f(x)(y) = phi(dirac_y)(x), with mass phi(1)(x);
    partial: f(x)(y) = phi(dirac_y)(x) - phi(0)(x), with mass 1 - phi(0)(x)
             (the rule tau_1);
    dist:    f(x)(y) = phi(dirac_y)(x), with mass one.
    """
    n = len(phi.source)

    def at(point):
        out, den = phi._ints(point, 1)
        return [Fraction(v, den) for v in out]

    cols = [at(_dirac_tuple(n, j, 1)) for j in range(n)]
    if row.evaluate == TauR(ONE):
        return [([c[i] - base for c in cols], ONE - base) for i, base in enumerate(at((0,) * n))]
    masses = [ONE] * len(phi.target) if row.monad == MonadKind.DIST else at((1,) * n)
    return [([c[i] for c in cols], mass) for i, mass in enumerate(masses)]


def _synth_diracs(phi: RationalTransformer, row: Modality, grid: ProbeGrid | None) -> SynthesisResult:
    """The inverse of a linear catalog row, read off Dirac probes
    (``_dirac_rows``).  A witness names the row it read by its theorem id,
    which the replay looks up in ``INSTANCES``."""
    grid = grid if grid is not None else ProbeGrid.default(phi.source)
    _guard(run_condition(row.condition, phi, grid), row.condition)
    X, Y = phi.target, phi.source
    rows = []
    for i, (x, (coefs, mass)) in enumerate(zip(X.elements, _dirac_rows(phi, row))):
        for y, c in zip(Y.elements, coefs):
            if c < 0 or c > 1:
                args = {"x": x, "y": y, "instance": row.theorem}
                witness = Witness("synthesis.coefficient", args, c, max(min(c, ONE), ZERO))
                return SynthesisResult(None, Verdict.unhealthy(witness, i + 1))
        total_mass = sum(coefs, ZERO)
        if total_mass != mass:
            witness = Witness("synthesis.mass", {"x": x, "instance": row.theorem}, total_mass, mass)
            return SynthesisResult(None, Verdict.unhealthy(witness, i + 1))
        rows.append(DistV(zip(Y.elements, coefs)))
    arrow = KleisliArrow(row.monad, X, Y, rows)
    return SynthesisResult(arrow, _grid_residual(phi, pt_modality(row, arrow), grid))


def synth_subdist(phi: RationalTransformer, variant: str = "total", grid: ProbeGrid = None) -> SynthesisResult:
    """Subdistribution rows from Dirac probes, for the ``total`` or the
    ``partial`` row, by name (see ``_dirac_rows``)."""
    if variant not in ("total", "partial"):
        raise ValueError("variant must be 'total' or 'partial'")
    return _synth_diracs(phi, builtin_modality(variant), grid)


def synth_dist(phi: RationalTransformer, grid: ProbeGrid = None) -> SynthesisResult:
    """Distribution rows from Dirac probes; the unit law pins mass to one."""
    return _synth_diracs(phi, INSTANCES["dist_convex"], grid)


def _law_synth_coefficient(subject, args):
    """Replay on the transformer: a coefficient read off its Dirac probe,
    and that coefficient clamped to [0, 1]."""
    coefs, _ = _dirac_rows(subject, INSTANCES[args["instance"]])[subject.target.index(args["x"])]
    c = coefs[subject.source.index(args["y"])]
    return c, max(min(c, ONE), ZERO)


def _law_synth_mass(subject, args):
    """Replay on the transformer: the mass of a row read off Dirac probes,
    and the mass it must have."""
    coefs, mass = _dirac_rows(subject, INSTANCES[args["instance"]])[subject.target.index(args["x"])]
    return sum(coefs, ZERO), mass


register_law("synthesis.coefficient", _law_synth_coefficient)
register_law("synthesis.mass", _law_synth_mass)


# ---------------------------------------------------------------------------
# Half-space synthesis for the demonic-probabilistic case


# the standard simplex at |Y| = 1, 2, 3, as barycentric integer vertices
_SIMPLEX = {1: [(1,)], 2: [(0, 1), (1, 0)], 3: [(0, 0, 1), (1, 0, 0), (0, 1, 0)]}


def _first_negative(column: list, start: int) -> int:
    """The least k >= start with column[k] < 0, else len(column)."""
    for k in range(start, len(column)):
        if column[k] < 0:
            return k
    return len(column)


def _clip_columns(n: int, columns: Sequence) -> tuple:
    """The vertices of {m in simplex(n) : w_k . m >= 0 for each k}, and
    per k the least w_k . m over them; ([], []) when the region is empty.

    Exact Sutherland-Hodgman clipping of the standard simplex, supported
    for n in {1, 2, 3}, on homogeneous integer half-spaces given a
    coordinate at a time: columns[y] holds w_k[y] for every k.  A vertex
    is a gcd-normalized integer vector m, the point m / sum(m) of the
    simplex, and it carries its slack column s_k(m) = w_k . m for every k.
    The simplex vertex e_y starts with columns[y]; a crossing vertex
    m = (sP Q - sQ P) / g of an edge PQ gets (sP col(Q) - sQ col(P)) / g,
    exact in integers, as the slack is linear in m.  The next cut is the
    first k past the last at which some vertex has a negative slack: a
    polygon only shrinks, so a half-space passed over is never cut later,
    and the vertices come out in the order of a clip by every row in turn.
    Each vertex keeps the first k at which it is negative, which no later
    cut moves while it stays.  The minima over the final vertices are the
    certificate of ``synth_polytope``.
    """
    simplex = _SIMPLEX.get(n)
    if simplex is None:
        raise SizeGuardError("half-space certification is implemented for |Y| <= 3")
    # per vertex, in polygon order: its slack column and its first negative slack
    poly = {}
    for m in simplex:
        col = columns[m.index(1)]
        poly[m] = (col, _first_negative(col, 0))
    size = len(columns[0])
    while True:
        k = min([first for _, first in poly.values()])
        if k == size:
            break
        verts = list(poly.items())
        poly = {}
        for (P, (cP, fP)), (Q, (cQ, _)) in zip(verts, verts[1:] + verts[:1]):
            sP, sQ = cP[k], cQ[k]
            if sP >= 0 and P not in poly:
                poly[P] = (cP, fP)
            if (sP > 0 > sQ) or (sP < 0 < sQ):
                m = [sP * q - sQ * r for r, q in zip(P, Q)]
                # the crossing point, divided by a gcd whose sign makes sum(m) > 0
                g = math.gcd(*m) if sP > 0 else -math.gcd(*m)
                m = tuple([c // g for c in m])
                if m not in poly:
                    col = [(sP * q - sQ * r) // g for r, q in zip(cP, cQ)]
                    poly[m] = (col, _first_negative(col, k + 1))
        if not poly:
            return [], []
    cols = [col for col, _ in poly.values()]
    return list(poly), cols[0] if len(cols) == 1 else list(map(min, *cols))


def _clip_ints(n: int, rows: Sequence) -> list:
    """Vertices of {m in simplex(n) : w . m >= 0 for each row w}: the rows
    transposed to slack columns, one per simplex vertex, and clipped by
    ``_clip_columns``; for ``_clip_region`` and the ``polytope.certify``
    replay."""
    return _clip_columns(n, [[w[y] for w in rows] for y in range(n)])[0]


def _as_fractions(vertices: list) -> list:
    return [tuple(Fraction(c, sum(m)) for c in m) for m in vertices]


def _clip_region(n: int, halfspaces: Sequence) -> list:
    """Vertices of {mu in simplex(n) : <p, mu> >= b for each (p, b)}, in
    Fractions: a half-space scaled by the lcm L of its denominators is the
    integer row w_j = L p_j - L b of ``_clip_ints``."""
    rows = []
    for p, b in halfspaces:
        L = math.lcm(b.denominator, *(q.denominator for q in p))
        B = b.numerator * (L // b.denominator)
        rows.append([q.numerator * (L // q.denominator) - B for q in p])
    return _as_fractions(_clip_ints(n, rows))


def _law_polytope_certify(subject, args):
    """Replay: rebuild the region from the stored half-spaces and compare the
    certified minimum with the transformer value."""
    phi = subject
    n = len(args["p"])
    vertices = _clip_region(n, args["halfspaces"])
    lhs = min(sum(a * b for a, b in zip(args["p"], v)) for v in vertices)
    xi = phi.target.index(args["x"])
    return lhs, phi.apply_values(args["p"])[xi]


register_law("polytope.certify", _law_polytope_certify)


def synth_polytope(phi: RationalTransformer, grid: ProbeGrid = None) -> SynthesisResult:
    """Per state x, the polytope C(x) = {mu : <p, mu> >= phi(p)(x)} cut out
    by the grid, whose vertices are the arrow's row at x.

    An exact clipper finds the vertices, and the minimum of every grid
    predicate over C(x) must be attained exactly at phi's value.  Bounds,
    clipping and certification run on integers: with a grid predicate q
    over the lattice's one and its bound c over one * den (phi at the
    lattice point, scaled to one common den), the half-space is the row
    w_k = q_k den - c_k, and at a vertex m, w_k . m is <p, mu> - phi(p)(x)
    times the positive one * den * sum(m), so the minimum is certified
    when the least w_k . m over the vertices is 0.  Past the precondition
    the grid's lattice lies in the cube at phi's width, so rows give their
    bounds at every lattice point at once, a coordinate column at a time
    (``IntegerRows.table``); a rule is evaluated point by point
    (``RationalTransformer._ints``), raising where a point does.  The
    half-spaces are never built as rows: the slack column of the simplex
    vertex e_y is den times column y of the lattice less the bounds, and
    one pass of the clipper (``_clip_columns``) carries each vertex's slack
    column through the cuts, so the least slack over the final vertices,
    per lattice point, is the certificate; the first point where it is
    not 0 is the one a per-row loop would stop at.  The arrow's row at x
    holds the vertices m / sum(m), built from the integers; on rows, the
    result carries the bounds (``SynthesisResult.bounds``) for the round
    trip's arrow comparison.  A failed certification (possible when the
    grid undersamples a transformer that is not genuinely realizable)
    yields inconclusive, with its witness in Fractions: the state's
    half-spaces, built for the witness alone.  Deciding the full converse
    needs a Farkas-style argument this workbench does not attempt.
    """
    row = INSTANCES["cv_sublinear"]
    grid = grid if grid is not None else ProbeGrid.default(phi.source)
    _guard(run_condition(row.condition, phi, grid), row.condition)
    X, Y = phi.target, phi.source
    lattice = grid.lattice
    rows = phi.rows
    if rows is not None:
        # per state, its bounds at every lattice point, over one * den
        den, bounds = rows.den, rows.table(lattice)
    else:
        outs = [phi._ints(q, lattice.one) for q in lattice.preds]
        top = math.lcm(lattice.one, *[d for _, d in outs])
        den = top // lattice.one
        bounds = [[vs[i] * (top // d) for vs, d in outs] for i in range(len(X))]
    # the vertex m / sum(m), on integers: a clipped vertex is gcd-normalized, so already reduced
    vertex = lambda m: DistV._over({y: c for y, c in zip(Y.elements, m) if c}, sum(m))
    # column y of the half-spaces is den times column y of the lattice, less the bounds
    scaled = [[v * den for v in col] for col in lattice.columns]
    checked = 0
    vertex_rows = []
    for x, cs in zip(X.elements, bounds):
        ms, mins = _clip_columns(len(Y), [list(map(operator.sub, col, cs)) for col in scaled])
        if not ms:
            return SynthesisResult(
                None,
                Verdict.inconclusive(
                    f"region for state {x!r} is empty; grid constraints are jointly infeasible"
                ),
            )
        # per lattice point k, the least w_k . m over the vertices, none below 0
        k = next((k for k, least in enumerate(mins) if least), None)
        if k is not None:
            checked += k + 1
            top = lattice.one * den
            halfspaces = tuple((q, Fraction(c, top)) for q, c in zip(grid.predicates, cs))
            p, bound = halfspaces[k]
            certified = min(sum(a * b for a, b in zip(p, v)) for v in _as_fractions(ms))
            return SynthesisResult(
                None,
                Verdict.inconclusive(
                    "minimum over the region is not certified at a region vertex",
                    checked,
                    Witness("polytope.certify", {"x": x, "p": p, "halfspaces": halfspaces}, certified, bound),
                ),
            )
        checked += len(mins)
        vertex_rows.append(dedup_vertices(map(vertex, ms)))
    arrow = KleisliArrow(MonadKind.CV_DIST, X, Y, vertex_rows)
    return SynthesisResult(arrow, Verdict.healthy(checked), bounds=bounds if rows is not None else None)


def cv_semantically_equal(a: KleisliArrow, b: KleisliArrow, grid: ProbeGrid = None) -> bool:
    """Vertex lists are not canonical; compare polytope-valued arrows by
    mutual evaluation (min over vertices) on the grid plus all Diracs: a
    probe-based test, not a decision of hull equality.  Both arrows are
    compared as the integer rows of their demonic_prob transformers on the
    grid's lattice plus the Dirac points it lacks (none on a grid that
    holds its core, as the default grid does), by ``_differing_point``.
    A row with no vertex, with support outside the target or with a value
    outside [0, 1] at a point raises ``ValueError``."""
    if a.source.elements != b.source.elements or a.target.elements != b.target.elements:
        return False
    closed_form = builtin_modality("demonic_prob").closed_form
    return _cv_rows_equal(closed_form(a.rows, a.target.elements), b, grid)


def _cv_rows_equal(rows_a: IntegerRows, b: KleisliArrow, grid: ProbeGrid | None, table_a: list = None) -> bool:
    """``cv_semantically_equal`` with a given as its demonic_prob rows,
    on b's carriers: a round trip holds pt(f)'s rows already, and their
    table at the grid's lattice points (``table_a``) from the synthesis."""
    grid = grid if grid is not None else ProbeGrid.default(b.target)
    lattice = grid.lattice
    if not grid.meets_minimum():
        # a grid that holds its core, as the default grid does, holds every Dirac
        n, one, preds = len(b.target), lattice.one, lattice.preds
        diracs = (_dirac_tuple(n, j, one) for j in range(n))
        lattice, table_a = Lattice(one, preds + tuple(d for d in diracs if d not in preds), ()), None
    rows_b = builtin_modality("demonic_prob").closed_form(b.rows, b.target.elements)
    return _differing_point(rows_a, rows_b, lattice, table_a) is None


# ---------------------------------------------------------------------------
# Instances and round trips


def _value_at_empty(mod: Modality):
    """The modality's value at the empty T-value: 0 for diamond and 1 for
    box on relations, r for tau_r on subdistributions."""
    return mod.evaluate(MONADS[mod.monad].empty, lambda y: ZERO)


def _catalog_row(mod: Modality) -> Modality:
    """The catalog row whose inverse synthesizes mod's transformers: mod
    itself for a catalog row, else the row of mod's monad, chosen, where
    the monad has two, by what mod is (its value at the empty T-value),
    never by its name."""
    if mod.theorem is not None:
        return mod
    rows = [row for row in INSTANCES.values() if row.monad == MonadKind(mod.monad)]
    if len(rows) > 1:
        value = _value_at_empty(mod)
        rows = [row for row in rows if _value_at_empty(row) == value]
        if not rows:
            raise ValueError(f"no inverse construction for {mod.name!r} (r = {value})")
    return rows[0]


def synthesize(mod: Modality, phi, grid: ProbeGrid = None) -> SynthesisResult:
    """The inverse construction of mod's catalog row (``_catalog_row``).
    Outside the catalog the residual compares phi with pt(mod, arrow), so
    a row that does not invert mod is a refused synthesis, not a false ok."""
    row = _catalog_row(mod)
    if row.carrier == BOOLEAN:
        result = _synth_boolean(phi, row)
    elif row.monad == MonadKind.SUBDIST:
        result = synth_subdist(phi, row.name, grid)
    elif row.monad == MonadKind.DIST:
        result = synth_dist(phi, grid)
    else:
        result = synth_polytope(phi, grid)
    if row is not mod and result.arrow is not None:
        rebuilt = pt_modality(mod, result.arrow)
        if row.carrier == BOOLEAN:
            residual = _dense_residual(phi, rebuilt)
        else:
            residual = _grid_residual(phi, rebuilt, grid if grid is not None else ProbeGrid.default(phi.source))
        result = dataclasses.replace(result, residual=residual)
    return result


def instance_for_arrow(arrow: KleisliArrow) -> str:
    """The first catalog instance of the arrow's monad."""
    return next(mod for mod in INSTANCES.values() if mod.monad == arrow.kind).theorem


def _normalize_arrow(row: Modality, arrow: KleisliArrow):
    """The documented semantic collapse applied before arrow comparison: on
    LIFT_POWERSET a row that may diverge is {bottom}."""
    if row.monad == MonadKind.LIFT_POWERSET:
        rows = [frozenset((BOT,)) if BOT in r else r for r in arrow.rows]
        flags = ("bottom-absorption",) if any(BOT in r for r in arrow.rows) else ()
        return KleisliArrow(arrow.kind, arrow.source, arrow.target, rows), flags
    return arrow, ()


def _resynthesize(f: KleisliArrow, row: Modality, grid: ProbeGrid | None) -> tuple:
    """synth(pt(f)) for the catalog row, the grid it ran on (the default
    grid of a rational transformer when none is given) and pt(f)."""
    phi = pt_modality(row, f)
    if grid is None and isinstance(phi, RationalTransformer):
        grid = ProbeGrid.default(phi.source)
    return synthesize(row, phi, grid), grid, phi


def _arrow_sides(instance: str, row: Modality, normalized: KleisliArrow, result: SynthesisResult, grid, phi) -> list:
    """The round trip's arrow comparison, as (witness args, synth(pt f), f
    normalized) triples: one per state, or one for polytopes, whose sides
    are the arrows' reprs where they disagree on the grid
    (``cv_semantically_equal`` on phi = pt(f)'s rows and the table of them
    the synthesis read, ``_cv_rows_equal``, as f needs no normalization
    there), else f normalized on both sides."""
    arrow = result.arrow
    if row.monad == MonadKind.CV_DIST:
        if _cv_rows_equal(phi.rows, arrow, grid, result.bounds):
            return [({"instance": instance}, normalized, normalized)]
        return [({"instance": instance}, repr(arrow), repr(normalized))]
    states = zip(normalized.source.elements, arrow.rows, normalized.rows)
    return [({"instance": instance, "x": x}, a, b) for x, a, b in states]


def roundtrip_verify(f: KleisliArrow, instance: str = None, grid: ProbeGrid = None) -> Verdict:
    """synth(pt(f)) must equal f up to the documented normalization, and
    pt(synth(pt(f))) must reproduce pt(f) exactly (dense) or on the grid."""
    instance = instance or instance_for_arrow(f)
    row = INSTANCES[instance]
    if MonadKind(f.kind) != row.monad:
        raise ValueError(f"instance {instance!r} expects {row.monad}, got {f.kind}")
    result, grid, phi = _resynthesize(f, row, grid)
    if not result.ok:
        if result.residual.status == "inconclusive":
            return result.residual
        return Verdict.unhealthy(result.residual.witness, result.residual.checked)
    normalized, flags = _normalize_arrow(row, f)
    for args, lhs, rhs in _arrow_sides(instance, row, normalized, result, grid, phi):
        if lhs != rhs:
            return Verdict.unhealthy(Witness("roundtrip.arrow", args, lhs, rhs), 0)
    # the transformer direction pt(synth(pt f)) = pt(f) is the residual,
    # already verified densely / on the grid by the synthesis itself
    note = f"normalization: {', '.join(flags)}" if flags else ""
    return Verdict.healthy(result.residual.checked, note=note)


def _law_synth_reevaluate(subject, args):
    phi, rebuilt = subject
    if "pred_mask" in args:
        m = args["pred_mask"]
        return rebuilt.apply_mask(m), phi.apply_mask(m)
    p = args["pred"]
    i = phi.target.index(args["x"])
    return rebuilt.apply_values(p)[i], phi.apply_values(p)[i]


def _law_roundtrip_arrow(subject, args):
    """Replay on (f, grid), the arrow and the grid the round trip ran on:
    the sides of the round trip's arrow comparison at the witness args."""
    f, grid = subject
    row = INSTANCES[args["instance"]]
    result, grid, phi = _resynthesize(f, row, grid)
    sides = _arrow_sides(args["instance"], row, _normalize_arrow(row, f)[0], result, grid, phi)
    return next((lhs, rhs) for at, lhs, rhs in sides if at == args)


register_law("synthesis.reevaluate", _law_synth_reevaluate)
register_law("roundtrip.arrow", _law_roundtrip_arrow)
