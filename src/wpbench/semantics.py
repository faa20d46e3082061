"""Weakest-precondition transformers: the may/must pair, the generic
modality-indexed semantics, and the alternating instances.

A transformer maps postconditions on Y to preconditions on X.  Boolean
ones are always materialized as dense tables (2^|Y| rows of output
masks) so exhaustive checks can compare them bit for bit; rational ones
stay evaluation rules backed by their defining computation, since
[0,1]^Y is infinite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .core import FinSet, Predicate
from .modalities import BOOLEAN, INSTANCES, RATIONAL, Modality, builtin_modality
from .monads import KleisliArrow, MonadKind, kleisli_compose, unit
from .verdicts import Verdict, Witness, register_law

__all__ = [
    "BooleanTransformer",
    "RationalTransformer",
    "MissingProbeError",
    "wp_diamond",
    "wp_box",
    "pt_modality",
    "pt_alternating",
    "check_functoriality",
    "table_wp_diamond",
    "table_wp_box",
]

ZERO = Fraction(0)
ONE = Fraction(1)


class MissingProbeError(LookupError):
    """A probe-table transformer was asked for a predicate it does not list."""


@dataclass(frozen=True)
class BooleanTransformer:
    """A dense predicate transformer 2^source -> 2^target.

    ``table[k]`` is the output mask over the target carrier for the k-th
    predicate on the source carrier (canonical little-endian order).
    """

    source: FinSet  # postcondition carrier Y
    target: FinSet  # precondition carrier X
    table: tuple

    def __init__(self, source: FinSet, target: FinSet, table: Sequence[int]):
        tab = tuple(table)
        if len(tab) != 1 << len(source):
            raise ValueError(
                f"dense table over {source.name!r} needs {1 << len(source)} rows, got {len(tab)}"
            )
        top = 1 << len(target)
        for m in tab:
            if not (0 <= m < top):
                raise ValueError(f"output mask {m} out of range for carrier {target.name!r}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "table", tab)

    @property
    def carrier(self) -> str:
        return BOOLEAN

    def apply_mask(self, mask: int) -> int:
        return self.table[mask]

    def apply(self, pred: Predicate) -> Predicate:
        return Predicate.from_mask(self.target, self.table[pred.mask])

    def __repr__(self):
        return f"BooleanTransformer({self.source.name}->{self.target.name}, {list(self.table)})"


@dataclass(frozen=True)
class RationalTransformer:
    """An exact-rational predicate transformer [0,1]^source -> [0,1]^target.

    Kept as an evaluation rule (values aligned with the carriers' element
    order); ``arrow`` optionally records the defining computation.
    Evaluations are memoized per instance: grid checks, synthesis
    preconditions and round trips repeatedly probe the same predicates.
    """

    source: FinSet
    target: FinSet
    fn: Callable  # tuple of Fractions over source -> tuple of Fractions over target
    arrow: KleisliArrow | None = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})

    @property
    def carrier(self) -> str:
        return RATIONAL

    def apply_values(self, values: Sequence[Fraction]) -> tuple:
        vals = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)
        # int-pair keys: hashing Fractions costs a modular inverse each
        key = tuple((v.numerator, v.denominator) for v in vals)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if len(vals) != len(self.source):
            raise ValueError("predicate length does not match the source carrier")
        out = tuple(self.fn(vals))
        for q in out:
            if not (ZERO <= q <= ONE):
                raise ValueError(f"transformer produced {q} outside [0, 1]")
        self._memo[key] = out
        return out

    def apply(self, pred: Predicate) -> Predicate:
        return Predicate(self.target, self.apply_values(pred.rational_values()))

    def __repr__(self):
        tag = self.label or "rule"
        return f"RationalTransformer({self.source.name}->{self.target.name}, {tag})"


def table_wp_diamond(rows: Sequence[int], n_source: int) -> tuple:
    """Dense may-table from row masks: x is in phi(f) iff row(x) meets f."""
    out = []
    for m in range(1 << n_source):
        bits = 0
        for i, r in enumerate(rows):
            if r & m:
                bits |= 1 << i
        out.append(bits)
    return tuple(out)


def table_wp_box(rows: Sequence[int], n_source: int) -> tuple:
    """Dense must-table from row masks: x is in phi(f) iff row(x) is inside f."""
    out = []
    for m in range(1 << n_source):
        bits = 0
        for i, r in enumerate(rows):
            if r & ~m == 0:
                bits |= 1 << i
        out.append(bits)
    return tuple(out)


def _relation_row_masks(arrow: KleisliArrow) -> list:
    masks = []
    for row in arrow.rows:
        m = 0
        for y in row:
            m |= 1 << arrow.target.index(y)
        masks.append(m)
    return masks


def wp_diamond(arrow: KleisliArrow) -> BooleanTransformer:
    """May-semantics of a relation: phi(f)(x) = exists y. xRy and f(y)."""
    if arrow.kind != MonadKind.POWERSET:
        raise ValueError("wp_diamond interprets POWERSET computations")
    rows = _relation_row_masks(arrow)
    return BooleanTransformer(arrow.target, arrow.source, table_wp_diamond(rows, len(arrow.target)))


def wp_box(arrow: KleisliArrow) -> BooleanTransformer:
    """Must-semantics of a relation: phi(f)(x) = forall y. xRy implies f(y)."""
    if arrow.kind != MonadKind.POWERSET:
        raise ValueError("wp_box interprets POWERSET computations")
    rows = _relation_row_masks(arrow)
    return BooleanTransformer(arrow.target, arrow.source, table_wp_box(rows, len(arrow.target)))


def pt_modality(mod: Modality, arrow: KleisliArrow):
    """The generic backward semantics: phi(h)(x) = eval(arrow(x), h).

    Boolean modalities produce dense tables; rational ones produce an
    evaluation rule carrying the defining arrow.
    """
    if isinstance(mod, str):
        mod = builtin_modality(mod)
    if mod.monad != arrow.kind:
        raise ValueError(f"modality {mod.name!r} interprets {mod.monad}, got {arrow.kind}")
    Y, X = arrow.target, arrow.source
    if mod.carrier == BOOLEAN:
        table = []
        for m in range(1 << len(Y)):
            val = lambda y: (m >> Y.index(y)) & 1
            bits = 0
            for i, row in enumerate(arrow.rows):
                if mod.evaluate(row, val):
                    bits |= 1 << i
            table.append(bits)
        return BooleanTransformer(Y, X, tuple(table))

    idx = {y: i for i, y in enumerate(Y.elements)}
    fn = _closed_form_eval(mod, arrow, idx)
    if fn is None:

        def fn(values):
            val = lambda y: values[idx[y]]
            return tuple(mod.evaluate(row, val) for row in arrow.rows)

    return RationalTransformer(Y, X, fn, arrow=arrow, label=mod.name)


def _closed_form_eval(mod: Modality, arrow: KleisliArrow, idx: dict):
    """Inline evaluators for the linear modalities (expectation plus an
    r-weighted divergence offset; min over polytope vertices).  These are
    the concrete forms the modalities denote; agreement with the generic
    evaluation route is property-tested."""
    linear = mod.name in ("total", "partial", "convex") or mod.name.startswith("tau_r")
    if linear and arrow.kind in (MonadKind.SUBDIST, MonadKind.DIST):
        r = mod.param if mod.param is not None else ZERO
        rows = [
            ([(idx[y], q) for y, q in row.items()], ONE - row.mass) for row in arrow.rows
        ]

        def fn(values):
            out = []
            for pairs, gap in rows:
                acc = r * gap
                for i, q in pairs:
                    acc += q * values[i]
                out.append(acc)
            return tuple(out)

        return fn
    if mod.name == "demonic_prob" and arrow.kind == MonadKind.CV_DIST:
        rows = [
            [[(idx[y], q) for y, q in mu.items()] for mu in row] for row in arrow.rows
        ]

        def fn(values):
            out = []
            for verts in rows:
                best = None
                for pairs in verts:
                    acc = ZERO
                    for i, q in pairs:
                        acc += q * values[i]
                    if best is None or acc < best:
                        best = acc
                out.append(best)
            return tuple(out)

        return fn
    return None


def pt_alternating(pair, arrow: KleisliArrow):
    """Alternating-branching semantics; the pair may be a catalog name,
    a Modality for the composite monad, or omitted (None) to pick the
    canonical pair for the arrow's monad."""
    alternating = {mod.monad: mod for mod in INSTANCES.values() if mod.pair}
    if arrow.kind not in alternating:
        raise ValueError(f"{arrow.kind} is not an alternating (composite) monad")
    return pt_modality(alternating[arrow.kind] if pair is None else pair, arrow)


def _law_functor_compose(subject, args):
    mod, f, g, pred = args["modality"], args["f"], args["g"], args["pred"]
    composed = pt_modality(mod, kleisli_compose(f, g))
    pf = pt_modality(mod, f)
    pg = pt_modality(mod, g)
    if isinstance(composed, BooleanTransformer):
        return composed.apply_mask(pred), pf.apply_mask(pg.apply_mask(pred))
    return composed.apply_values(pred), pf.apply_values(pg.apply_values(pred))


def _law_functor_identity(subject, args):
    mod, carrier, pred = args["modality"], args["carrier"], args["pred"]
    ident = pt_modality(mod, unit(mod.monad, carrier))
    if isinstance(ident, BooleanTransformer):
        return ident.apply_mask(pred), pred
    return ident.apply_values(pred), tuple(pred)


register_law("functor.compose", _law_functor_compose)
register_law("functor.identity", _law_functor_identity)


def check_functoriality(
    mod, f: KleisliArrow, g: KleisliArrow, probes: Sequence | None = None, seed: int = 3
) -> Verdict:
    """Contravariant functoriality: P(g . f) = P(f) o P(g), and P(unit) = id.

    Both sides are computed independently: the left goes through the
    Kleisli composite, the right through transformer composition.
    Boolean instances sweep all postconditions; rational ones use probe
    tuples (>= 100 by default).
    """
    if isinstance(mod, str):
        mod = builtin_modality(mod)
    if f.target.elements != g.source.elements:
        raise ValueError("arrows are not composable")
    checked = 0
    if mod.carrier == BOOLEAN:
        preds = list(range(1 << len(g.target)))
        id_preds = list(range(1 << len(f.source)))
    else:
        from .healthiness import ProbeGrid

        if probes is None:
            probes = ProbeGrid.default(g.target, seed=seed).value_tuples()
            if len(probes) < 100:
                probes = probes + ProbeGrid.random_tuples(g.target, seed + 1, 100 - len(probes))
        preds = list(probes)
        id_preds = ProbeGrid.default(f.source, seed=seed).value_tuples()
    for pred in preds:
        args = {"modality": mod, "f": f, "g": g, "pred": pred}
        lhs, rhs = _law_functor_compose(None, args)
        checked += 1
        if lhs != rhs:
            return Verdict.unhealthy(Witness("functor.compose", args, lhs, rhs), checked)
    for pred in id_preds:
        args = {"modality": mod, "carrier": f.source, "pred": pred}
        lhs, rhs = _law_functor_identity(None, args)
        checked += 1
        if lhs != rhs:
            return Verdict.unhealthy(Witness("functor.identity", args, lhs, rhs), checked)
    return Verdict.healthy(checked)
