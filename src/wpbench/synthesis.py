"""Reconstructing computations from healthy transformers, and the two
round-trip directions.

Every synthesis reads the computation off a handful of probe predicates
(Diracs, co-singletons, characteristic predicates) exactly as the
inverse constructions prescribe, then re-evaluates the rebuilt
computation against the input transformer.  The demonic-probabilistic
case builds, per state, the half-space region cut out by the grid; an
exact rational clipper certifies minima on the region's vertices, and a
certification failure is reported as inconclusive rather than forced.
"""

from __future__ import annotations

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
from .modalities import INSTANCES, Modality, builtin_modality
from .monads import BOT, DistV, KleisliArrow, MonadKind, dedup_vertices
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
    probes, and strictness plus meet preservation make it nonempty.
    """
    X, Y = phi.target, phi.source
    if len(Y) == 0:
        raise ValueError("the divergence instance needs a nonempty postcondition carrier")
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


def _dirac_tuple(n: int, j: int) -> tuple:
    return tuple(ONE if k == j else ZERO for k in range(n))


def _grid_residual(phi: RationalTransformer, rebuilt: RationalTransformer, grid: ProbeGrid) -> Verdict:
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


def synth_subdist(phi: RationalTransformer, variant: str = "total", grid: ProbeGrid = None) -> SynthesisResult:
    """Subdistribution rows from Dirac probes.

    total:   f(x)(y) = phi(dirac_y)(x), with mass phi(1)(x) <= 1;
    partial: f(x)(y) = phi(dirac_y)(x) - phi(0)(x), with mass 1 - phi(0)(x).
    """
    grid = grid if grid is not None else ProbeGrid.default(phi.source)
    _guard(check_gemod_morphism(phi, grid, variant), f"gemod_{variant}")
    X, Y = phi.target, phi.source
    n = len(Y)
    dirac_cols = [phi.apply_values(_dirac_tuple(n, j)) for j in range(n)]
    ones = phi.apply_values((ONE,) * n)
    zeros = phi.apply_values((ZERO,) * n)
    rows = []
    for i, x in enumerate(X.elements):
        if variant == "total":
            coefs = [dirac_cols[j][i] for j in range(n)]
            mass_expected = ones[i]
        else:
            base = zeros[i]
            coefs = [dirac_cols[j][i] - base for j in range(n)]
            mass_expected = ONE - base
        for j, c in enumerate(coefs):
            if c < 0 or c > 1:
                return SynthesisResult(
                    None,
                    Verdict.unhealthy(
                        Witness(
                            "synthesis.coefficient",
                            {"x": x, "y": Y.elements[j]},
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
    n = len(Y)
    dirac_cols = [phi.apply_values(_dirac_tuple(n, j)) for j in range(n)]
    ones = phi.apply_values((ONE,) * n)
    rows = []
    for i, x in enumerate(X.elements):
        coefs = [dirac_cols[j][i] for j in range(n)]
        total_mass = sum(coefs, ZERO)
        if total_mass != ONE or ones[i] != ONE:
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


# ---------------------------------------------------------------------------
# Half-space synthesis for the demonic-probabilistic case


def _clip_region(n: int, halfspaces: Sequence) -> list:
    """Vertices of {mu in simplex(n) : <p, mu> >= b for each (p, b)}.

    Exact rational Sutherland-Hodgman clipping on the standard simplex,
    supported for n in {1, 2, 3}.
    """
    if n == 1:
        mu = (ONE,)
        for p, b in halfspaces:
            if p[0] < b:
                return []
        return [mu]
    if n == 2:
        lo, hi = ZERO, ONE  # mu = (u, 1-u)
        for p, b in halfspaces:
            coef = p[0] - p[1]
            rhs = b - p[1]
            if coef == 0:
                if rhs > 0:
                    return []
            elif coef > 0:
                lo = max(lo, rhs / coef)
            else:
                hi = min(hi, rhs / coef)
        if lo > hi:
            return []
        pts = [(lo, ONE - lo)]
        if hi != lo:
            pts.append((hi, ONE - hi))
        return pts
    if n == 3:
        poly = [(ZERO, ZERO), (ONE, ZERO), (ZERO, ONE)]  # mu = (u, v, 1-u-v)
        for p, b in halfspaces:
            a1 = p[0] - p[2]
            a2 = p[1] - p[2]
            c = b - p[2]
            poly = _clip_poly(poly, a1, a2, c)
            if not poly:
                return []
        return [(u, v, ONE - u - v) for u, v in poly]
    raise SizeGuardError("half-space certification is implemented for |Y| <= 3")


def _clip_poly(poly: list, a1: Fraction, a2: Fraction, c: Fraction) -> list:
    """Clip a convex polygon (possibly degenerate) by a1*u + a2*v >= c."""
    if not poly:
        return []
    if len(poly) == 1:
        u, v = poly[0]
        return poly if a1 * u + a2 * v >= c else []
    out = []
    k = len(poly)
    for i in range(k):
        P, Q = poly[i], poly[(i + 1) % k]
        sP = a1 * P[0] + a2 * P[1] - c
        sQ = a1 * Q[0] + a2 * Q[1] - c
        if sP >= 0:
            out.append(P)
        if (sP > 0 > sQ) or (sP < 0 < sQ):
            t = sP / (sP - sQ)
            out.append((P[0] + t * (Q[0] - P[0]), P[1] + t * (Q[1] - P[1])))
    seen, uniq = set(), []
    for pt in out:
        if pt not in seen:
            seen.add(pt)
            uniq.append(pt)
    return uniq


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
        for p, bound in halfspaces:
            certified = min(sum(a * b for a, b in zip(p, v)) for v in vertices)
            checked += 1
            if certified != bound:
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
    mutual evaluation (min over vertices) on the grid plus all Diracs."""
    if a.source.elements != b.source.elements or a.target.elements != b.target.elements:
        return False
    grid = grid if grid is not None else ProbeGrid.default(a.target)
    mod = builtin_modality("demonic_prob")
    n = len(a.target)
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


def synthesize(mod: Modality, phi, grid: ProbeGrid = None) -> SynthesisResult:
    """The inverse construction of a catalog instance, chosen by its monad."""
    kind = MonadKind(mod.monad)
    if kind == MonadKind.POWERSET:
        return synth_relation(phi, mod.name)
    if kind == MonadKind.UP_POWERSET:
        return synth_upfamily(phi)
    if kind == MonadKind.LIFT_POWERSET:
        return synth_dijkstra(phi)
    if kind == MonadKind.SUBDIST:
        return synth_subdist(phi, mod.name, grid)
    if kind == MonadKind.DIST:
        return synth_dist(phi, grid)
    return synth_polytope(phi, grid)


def instance_for_arrow(arrow: KleisliArrow, variant: str = None) -> str:
    """The first catalog instance of the arrow's monad, or the one whose
    modality is named ``variant``."""
    rows = [mod for mod in INSTANCES.values() if mod.monad == arrow.kind]
    return next((mod for mod in rows if mod.name == variant), rows[0]).theorem


def _normalize_arrow(instance: str, arrow: KleisliArrow):
    """The documented semantic collapse applied before arrow comparison."""
    if instance == "dijkstra":
        rows = [frozenset((BOT,)) if BOT in r else r for r in arrow.rows]
        flags = ("bottom-absorption",) if any(BOT in r for r in arrow.rows) else ()
        return KleisliArrow(arrow.kind, arrow.source, arrow.target, rows), flags
    return arrow, ()


def roundtrip_verify(f: KleisliArrow, instance: str = None, grid: ProbeGrid = None) -> Verdict:
    """synth(pt(f)) must equal f up to the documented normalization, and
    pt(synth(pt(f))) must reproduce pt(f) exactly (dense) or on the grid."""
    instance = instance or instance_for_arrow(f)
    mod = INSTANCES[instance]
    if MonadKind(f.kind) != mod.monad:
        raise ValueError(f"instance {instance!r} expects {mod.monad}, got {f.kind}")
    phi = pt_modality(mod, f)
    if grid is None and isinstance(phi, RationalTransformer):
        grid = ProbeGrid.default(phi.source)
    result = synthesize(mod, phi, grid)
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


register_law("synthesis.reevaluate", _law_synth_reevaluate)
