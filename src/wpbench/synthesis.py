"""Reconstructing computations from healthy transformers, and the two
round-trip directions.

Every synthesis reads the computation off a handful of probe predicates
(Diracs, co-singletons, characteristic predicates) exactly as the
inverse constructions prescribe, then re-evaluates the rebuilt
computation against the input transformer.  The demonic-probabilistic
case builds, per state, the half-space region cut out by the grid; an
exact integer clipper finds its vertices, minima are certified on them,
and a certification failure is reported as inconclusive rather than
forced.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import SizeGuardError
from .healthiness import (
    ProbeGrid,
    check_emod_morphism,
    check_gemod_morphism,
    check_join_preserving,
    check_meet_preserving,
    check_monotone,
    check_regular_sublinear,
    check_strict_nonempty_meets,
)
from .modalities import INSTANCES, Modality, _closed_form_eval, builtin_modality
from .monads import BOT, DistV, IntegerRows, KleisliArrow, MonadKind, dedup_vertices
from .semantics import (
    BooleanTransformer,
    RationalTransformer,
    pt_alternating,
    pt_modality,
    wp_box,
    wp_diamond,
)
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
    arrow: KleisliArrow | None
    residual: Verdict
    normalization: tuple = ()
    regions: tuple | None = None  # per-state half-space data (polytope synthesis)

    @property
    def ok(self) -> bool:
        return self.residual.is_healthy


def _guard(verdict: Verdict, condition: str) -> None:
    if not verdict.is_healthy:
        raise UnhealthyInputError(verdict, condition)


# ---------------------------------------------------------------------------
# Boolean inverses


def synth_relation(phi: BooleanTransformer, modality: str = "diamond") -> SynthesisResult:
    """Read a relation off the transformer: Dirac probes for the may case,
    co-singleton probes for the must case; re-evaluation must be exact."""
    X, Y = phi.target, phi.source
    if modality == "diamond":
        _guard(check_join_preserving(phi), "join")
        rows = []
        for i in range(len(X)):
            rows.append(
                frozenset(
                    Y.elements[j] for j in range(len(Y)) if (phi.table[1 << j] >> i) & 1
                )
            )
    elif modality == "box":
        _guard(check_meet_preserving(phi), "meet")
        full = (1 << len(Y)) - 1
        rows = []
        for i in range(len(X)):
            rows.append(
                frozenset(
                    Y.elements[j]
                    for j in range(len(Y))
                    if not (phi.table[full ^ (1 << j)] >> i) & 1
                )
            )
    else:
        raise ValueError("modality must be 'diamond' or 'box'")
    arrow = KleisliArrow(MonadKind.POWERSET, X, Y, rows)
    rebuilt = wp_diamond(arrow) if modality == "diamond" else wp_box(arrow)
    residual = _dense_residual(phi, rebuilt)
    return SynthesisResult(arrow, residual)


def _dense_residual(phi: BooleanTransformer, rebuilt: BooleanTransformer) -> Verdict:
    for m, (a, b) in enumerate(zip(phi.table, rebuilt.table)):
        if a != b:
            return Verdict.unhealthy(
                Witness("synthesis.reevaluate", {"pred_mask": m}, b, a), m + 1
            )
    return Verdict.healthy(len(phi.table))


def synth_upfamily(phi: BooleanTransformer) -> SynthesisResult:
    """f(x) = the family of subsets whose characteristic predicate phi accepts;
    monotonicity makes each family up-closed."""
    _guard(check_monotone(phi), "monotone")
    X, Y = phi.target, phi.source
    rows = []
    for i in range(len(X)):
        fam = frozenset(
            frozenset(Y.elements[j] for j in range(len(Y)) if (m >> j) & 1)
            for m in range(1 << len(Y))
            if (phi.table[m] >> i) & 1
        )
        rows.append(fam)
    arrow = KleisliArrow(MonadKind.UP_POWERSET, X, Y, rows)
    residual = _dense_residual(phi, pt_alternating("game", arrow))
    return SynthesisResult(arrow, residual)


def synth_dijkstra(phi: BooleanTransformer) -> SynthesisResult:
    """Dirac-style probes for the divergence+nondeterminism case.

    States where the everywhere-true postcondition already fails are sent
    to {bottom}; elsewhere the chosen set is read off co-singleton
    probes, and strictness plus meet preservation make it nonempty.  With
    Y empty the everywhere-true postcondition is the zero one, so
    strictness sends every state to {bottom}.
    """
    X, Y = phi.target, phi.source
    _guard(check_strict_nonempty_meets(phi), "strict_meets")
    full = (1 << len(Y)) - 1
    rows = []
    absorbed = False
    for i in range(len(X)):
        if not (phi.table[full] >> i) & 1:
            rows.append(frozenset((BOT,)))
            absorbed = True
        else:
            chosen = frozenset(
                Y.elements[j]
                for j in range(len(Y))
                if not (phi.table[full ^ (1 << j)] >> i) & 1
            )
            if not chosen:
                raise AssertionError(
                    "strictness and meet preservation force a nonempty chosen set"
                )
            rows.append(chosen)
    arrow = KleisliArrow(MonadKind.LIFT_POWERSET, X, Y, rows)
    residual = _dense_residual(phi, pt_alternating("dijkstra", arrow))
    flags = ("bottom-absorption",) if absorbed else ()
    return SynthesisResult(arrow, residual, flags)


# ---------------------------------------------------------------------------
# Probabilistic inverses (Dirac probing is exact on rationals)


def _dirac_tuple(n: int, j: int, one=ONE, zero=ZERO) -> tuple:
    return tuple(one if k == j else zero for k in range(n))


def _grid_residual(phi: RationalTransformer, rebuilt: RationalTransformer, grid: ProbeGrid) -> Verdict:
    """The rebuilt transformer against phi at every grid predicate; each
    predicate adds one check per state, and the first differing value is
    the witness.  Two closed forms are first compared on the grid's
    lattice (``IntegerRows.same_values``); the Fraction loop runs only
    when that comparison fails, and finds the witness, or raises, as it
    would alone."""
    if phi.rows is not None and rebuilt.rows is not None:
        lattice = grid.lattice
        if phi.rows.same_values(rebuilt.rows, lattice.preds, lattice.one):
            return Verdict.healthy(len(lattice.preds) * len(phi.rows.rows))
    checked = 0
    for p in grid.predicates:
        a = phi.apply_values(p)
        b = rebuilt.apply_values(p)
        checked += len(a)
        if a != b:
            i = next(k for k, (u, v) in enumerate(zip(a, b)) if u != v)
            return Verdict.unhealthy(
                Witness("synthesis.reevaluate", {"pred": p, "x": phi.target.elements[i]}, b[i], a[i]),
                checked,
            )
    return Verdict.healthy(checked)


def _coefficients(phi: RationalTransformer, variant: str) -> list:
    """Per state x, its row read off Dirac probes and the mass the row must
    have: phi(dirac_y)(x) and phi(1)(x), or for the partial variant
    phi(dirac_y)(x) - phi(0)(x) and 1 - phi(0)(x)."""
    n = len(phi.source)
    cols = [phi.apply_values(_dirac_tuple(n, j)) for j in range(n)]
    if variant == "partial":
        zeros = phi.apply_values((ZERO,) * n)
        return [([c[i] - base for c in cols], ONE - base) for i, base in enumerate(zeros)]
    return [([c[i] for c in cols], one) for i, one in enumerate(phi.apply_values((ONE,) * n))]


def synth_subdist(phi: RationalTransformer, variant: str = "total", grid: ProbeGrid = None) -> SynthesisResult:
    """Subdistribution rows from Dirac probes.

    total:   f(x)(y) = phi(dirac_y)(x), with mass phi(1)(x) <= 1;
    partial: f(x)(y) = phi(dirac_y)(x) - phi(0)(x), with mass 1 - phi(0)(x).
    """
    grid = grid if grid is not None else ProbeGrid.default(phi.source)
    _guard(check_gemod_morphism(phi, grid, variant), f"gemod_{variant}")
    X, Y = phi.target, phi.source
    rows = []
    for i, (x, (coefs, mass_expected)) in enumerate(zip(X.elements, _coefficients(phi, variant))):
        for y, c in zip(Y.elements, coefs):
            if c < 0 or c > 1:
                return SynthesisResult(
                    None,
                    Verdict.unhealthy(
                        Witness(
                            "synthesis.coefficient",
                            {"x": x, "y": y, "variant": variant},
                            c,
                            max(min(c, ONE), ZERO),
                        ),
                        i + 1,
                    ),
                )
        total_mass = sum(coefs, ZERO)
        if total_mass != mass_expected or total_mass > 1:
            return SynthesisResult(
                None,
                Verdict.unhealthy(
                    Witness(
                        "synthesis.mass",
                        {"x": x, "variant": variant},
                        total_mass,
                        min(mass_expected, ONE),
                    ),
                    i + 1,
                ),
            )
        rows.append(DistV(zip(Y.elements, coefs)))
    arrow = KleisliArrow(MonadKind.SUBDIST, X, Y, rows)
    rebuilt = pt_modality(builtin_modality("total" if variant == "total" else "partial"), arrow)
    return SynthesisResult(arrow, _grid_residual(phi, rebuilt, grid))


def synth_dist(phi: RationalTransformer, grid: ProbeGrid = None) -> SynthesisResult:
    """Distribution rows from Dirac probes; the unit law pins mass to one."""
    grid = grid if grid is not None else ProbeGrid.default(phi.source)
    _guard(check_emod_morphism(phi, grid), "emod")
    X, Y = phi.target, phi.source
    rows = []
    for i, (x, (coefs, one)) in enumerate(zip(X.elements, _coefficients(phi, "total"))):
        total_mass = sum(coefs, ZERO)
        if total_mass != ONE or one != ONE:
            return SynthesisResult(
                None,
                Verdict.unhealthy(
                    Witness("synthesis.mass", {"x": x, "variant": "dist"}, total_mass, ONE),
                    i + 1,
                ),
            )
        rows.append(DistV(zip(Y.elements, coefs)))
    arrow = KleisliArrow(MonadKind.DIST, X, Y, rows)
    rebuilt = pt_modality(builtin_modality("convex"), arrow)
    return SynthesisResult(arrow, _grid_residual(phi, rebuilt, grid))


def _law_synth_coefficient(subject, args):
    """Replay on the transformer: a coefficient read off its Dirac probe,
    and that coefficient clamped to [0, 1]."""
    coefs, _ = _coefficients(subject, args["variant"])[subject.target.index(args["x"])]
    c = coefs[subject.source.index(args["y"])]
    return c, max(min(c, ONE), ZERO)


def _law_synth_mass(subject, args):
    """Replay on the transformer: the mass of a row read off Dirac probes,
    and the mass it must have (one for a distribution)."""
    variant = args["variant"]
    rows = _coefficients(subject, "total" if variant == "dist" else variant)
    coefs, mass = rows[subject.target.index(args["x"])]
    return sum(coefs, ZERO), ONE if variant == "dist" else min(mass, ONE)


register_law("synthesis.coefficient", _law_synth_coefficient)
register_law("synthesis.mass", _law_synth_mass)


# ---------------------------------------------------------------------------
# Half-space synthesis for the demonic-probabilistic case


# the standard simplex at |Y| = 1, 2, 3, as barycentric integer vertices
_SIMPLEX = {1: [(1,)], 2: [(0, 1), (1, 0)], 3: [(0, 0, 1), (1, 0, 0), (0, 1, 0)]}


def _clip_region(n: int, halfspaces: Sequence) -> list:
    """Vertices of {mu in simplex(n) : <p, mu> >= b for each (p, b)}.

    Exact Sutherland-Hodgman clipping of the standard simplex, supported
    for n in {1, 2, 3}, on integers: a vertex is a gcd-normalized vector m
    with mu = m / sum(m), and a half-space scaled by the lcm L of its
    denominators is sum_j (L p_j - L b) m_j >= 0.  The vertices become
    Fractions only at the end.
    """
    poly = _SIMPLEX.get(n)
    if poly is None:
        raise SizeGuardError("half-space certification is implemented for |Y| <= 3")
    for p, b in halfspaces:
        L = math.lcm(b.denominator, *(q.denominator for q in p))
        B = b.numerator * (L // b.denominator)
        w = [q.numerator * (L // q.denominator) - B for q in p]
        s = [sum(map(operator.mul, w, m)) for m in poly]
        if min(s) >= 0:
            continue
        out = []
        for P, sP, Q, sQ in zip(poly, s, poly[1:] + poly[:1], s[1:] + s[:1]):
            if sP >= 0:
                out.append(P)
            if (sP > 0 > sQ) or (sP < 0 < sQ):
                m = [sP * q - sQ * r for r, q in zip(P, Q)]
                # the crossing point, divided by a gcd whose sign makes sum(m) > 0
                g = math.gcd(*m) if sP > 0 else -math.gcd(*m)
                out.append(tuple(c // g for c in m))
        poly = list(dict.fromkeys(out))
        if not poly:
            return []
    return [tuple(Fraction(c, sum(m)) for c in m) for m in poly]


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
    """Per-state half-space regions C(x) = {mu : <p, mu> >= phi(p)(x)}.

    The region is represented by its defining half-space list; an exact
    clipper produces a rational feasible vertex, and the minimum of every
    grid predicate over the region must be attained exactly at phi's
    value.  A failed certification (possible when the grid undersamples
    a transformer that is not genuinely realizable) yields inconclusive:
    deciding the full converse needs a Farkas-style argument this
    workbench does not attempt.
    """
    grid = grid if grid is not None else ProbeGrid.default(phi.source)
    _guard(check_regular_sublinear(phi, grid), "regular_sublinear")
    X, Y = phi.target, phi.source
    n = len(Y)
    lattice = grid.lattice
    regions = []
    vertex_rows = []
    checked = 0
    for i, x in enumerate(X.elements):
        halfspaces = tuple((p, phi.apply_values(p)[i]) for p in grid.predicates)
        vertices = _clip_region(n, halfspaces)
        if not vertices:
            return SynthesisResult(
                None,
                Verdict.inconclusive(
                    f"region for state {x!r} is empty; grid constraints are jointly infeasible"
                ),
                regions=tuple(regions),
            )
        region = {
            "state": x,
            "halfspaces": halfspaces,
            "feasible": vertices[0],
            "vertices": tuple(vertices),
        }
        regions.append(region)
        # the minimum over the vertices at each probe, on the lattice
        mins = IntegerRows([[(ZERO, v) for v in vertices]], n)
        top = lattice.one * mins.den
        for q, (p, bound) in zip(lattice.preds, halfspaces):
            (ci,) = mins.ints(q, lattice.one)
            checked += 1
            if ci * bound.denominator != bound.numerator * top:
                certified = min(sum(a * b for a, b in zip(p, v)) for v in vertices)
                return SynthesisResult(
                    None,
                    Verdict.inconclusive(
                        "minimum over the region is not certified at a region vertex",
                        checked,
                        Witness(
                            "polytope.certify",
                            {"x": x, "p": p, "halfspaces": halfspaces},
                            certified,
                            bound,
                        ),
                    ),
                    regions=tuple(regions),
                )
        vertex_rows.append(dedup_vertices(DistV(zip(Y.elements, v)) for v in vertices))
    arrow = KleisliArrow(MonadKind.CV_DIST, X, Y, vertex_rows)
    return SynthesisResult(arrow, Verdict.healthy(checked), regions=tuple(regions))


def cv_semantically_equal(a: KleisliArrow, b: KleisliArrow, grid: ProbeGrid = None) -> bool:
    """Vertex lists are not canonical; compare polytope-valued arrows by
    mutual evaluation (min over vertices) on the grid plus all Diracs: a
    probe-based test, not a decision of hull equality.  Both arrows are
    first compared on integers, as the rows of their demonic_prob
    transformers on the grid's lattice plus the Dirac points
    (``IntegerRows.same_values``); the Fraction loop runs only when that
    comparison fails, and answers, or raises, as it would alone."""
    if a.source.elements != b.source.elements or a.target.elements != b.target.elements:
        return False
    grid = grid if grid is not None else ProbeGrid.default(a.target)
    mod = builtin_modality("demonic_prob")
    n = len(a.target)
    lattice = grid.lattice
    diracs = tuple(_dirac_tuple(n, j, lattice.one, 0) for j in range(n))
    rows_a, rows_b = (_closed_form_eval(mod, f.rows, a.target.elements) for f in (a, b))
    if rows_a.same_values(rows_b, lattice.preds + diracs, lattice.one):
        return True
    probes = list(grid.predicates) + [_dirac_tuple(n, j) for j in range(n)]
    idx = {y: k for k, y in enumerate(a.target.elements)}
    for p in probes:
        val = lambda y: p[idx[y]]
        for ra, rb in zip(a.rows, b.rows):
            if mod.evaluate(ra, val) != mod.evaluate(rb, val):
                return False
    return True


# ---------------------------------------------------------------------------
# Instances and round trips


def _value_at_empty(mod: Modality):
    """The modality's value at the empty T-value: 0 for diamond and 1 for
    box on relations, r for tau_r on subdistributions."""
    empty = frozenset() if mod.monad == MonadKind.POWERSET else DistV()
    return mod.evaluate(empty, lambda y: ZERO)


def synthesize(mod: Modality, phi, grid: ProbeGrid = None) -> SynthesisResult:
    """The inverse construction of a catalog instance, chosen by its monad
    and, for relations and subdistributions, by what the modality is (its
    value at the empty T-value), never by its name."""
    kind = MonadKind(mod.monad)
    if kind == MonadKind.POWERSET:
        return synth_relation(phi, "diamond" if _value_at_empty(mod) == ZERO else "box")
    if kind == MonadKind.UP_POWERSET:
        return synth_upfamily(phi)
    if kind == MonadKind.LIFT_POWERSET:
        return synth_dijkstra(phi)
    if kind == MonadKind.SUBDIST:
        r = _value_at_empty(mod)
        if r not in (ZERO, ONE):
            raise ValueError(f"no inverse construction for {mod.name!r} (r = {r})")
        return synth_subdist(phi, "total" if r == ZERO else "partial", grid)
    if kind == MonadKind.DIST:
        return synth_dist(phi, grid)
    return synth_polytope(phi, grid)


def instance_for_arrow(arrow: KleisliArrow) -> str:
    """The first catalog instance of the arrow's monad."""
    return next(mod for mod in INSTANCES.values() if mod.monad == arrow.kind).theorem


def _normalize_arrow(instance: str, arrow: KleisliArrow):
    """The documented semantic collapse applied before arrow comparison."""
    if instance == "dijkstra":
        rows = [frozenset((BOT,)) if BOT in r else r for r in arrow.rows]
        flags = ("bottom-absorption",) if any(BOT in r for r in arrow.rows) else ()
        return KleisliArrow(arrow.kind, arrow.source, arrow.target, rows), flags
    return arrow, ()


def _resynthesize(f: KleisliArrow, instance: str, grid: ProbeGrid | None) -> tuple:
    """synth(pt(f)) for the instance, and the grid it ran on: the default
    grid of a rational transformer when none is given."""
    mod = INSTANCES[instance]
    phi = pt_modality(mod, f)
    if grid is None and isinstance(phi, RationalTransformer):
        grid = ProbeGrid.default(phi.source)
    return synthesize(mod, phi, grid), grid


def roundtrip_verify(f: KleisliArrow, instance: str = None, grid: ProbeGrid = None) -> Verdict:
    """synth(pt(f)) must equal f up to the documented normalization, and
    pt(synth(pt(f))) must reproduce pt(f) exactly (dense) or on the grid."""
    instance = instance or instance_for_arrow(f)
    mod = INSTANCES[instance]
    if MonadKind(f.kind) != mod.monad:
        raise ValueError(f"instance {instance!r} expects {mod.monad}, got {f.kind}")
    result, grid = _resynthesize(f, instance, grid)
    if not result.ok:
        if result.residual.status == "inconclusive":
            return result.residual
        return Verdict.unhealthy(result.residual.witness, result.residual.checked)
    normalized, flags = _normalize_arrow(instance, f)
    checked = 0
    if instance == "cv_sublinear":
        if not cv_semantically_equal(normalized, result.arrow, grid):
            return Verdict.unhealthy(
                Witness("roundtrip.arrow", {"instance": instance}, repr(result.arrow), repr(normalized)),
                checked,
            )
    else:
        if normalized.rows != result.arrow.rows:
            bad = next(
                x
                for x, (a, b) in zip(f.source.elements, zip(normalized.rows, result.arrow.rows))
                if a != b
            )
            return Verdict.unhealthy(
                Witness(
                    "roundtrip.arrow",
                    {"instance": instance, "x": bad},
                    result.arrow.row(bad),
                    normalized.row(bad),
                ),
                checked,
            )
    # the transformer direction pt(synth(pt f)) = pt(f) is the residual,
    # already verified densely / on the grid by the synthesis itself
    checked += result.residual.checked
    note = f"normalization: {', '.join(flags)}" if flags else ""
    return Verdict.healthy(checked, note=note)


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
    synth(pt(f)) against f normalized, at the witness state, or as a whole
    for polytopes (equal reprs when they agree on the grid)."""
    f, grid = subject
    instance = args["instance"]
    result, grid = _resynthesize(f, instance, grid)
    normalized, _ = _normalize_arrow(instance, f)
    if instance == "cv_sublinear":
        same = cv_semantically_equal(normalized, result.arrow, grid)
        return repr(normalized if same else result.arrow), repr(normalized)
    return result.arrow.row(args["x"]), normalized.row(args["x"])


register_law("synthesis.reevaluate", _law_synth_reevaluate)
register_law("roundtrip.arrow", _law_roundtrip_arrow)
