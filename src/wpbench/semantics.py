"""Weakest-precondition transformers: the may/must pair, the generic
modality-indexed semantics, and the alternating instances.

A transformer maps postconditions on Y to preconditions on X.  Boolean
ones are always materialized as dense tables (2^|Y| rows of output
masks) so exhaustive checks can compare them bit for bit; rational ones
stay evaluation rules backed by their defining computation, since
[0,1]^Y is infinite.

The catalog rows and the built-in tau_r rows carry their closed forms
(``Modality.closed_form``), so a closed form is chosen by the row, never
by a modality's name.  The four Boolean rows compile each T-value to a
basis of masks, and a state is in phi(m) iff some basis mask lies inside
m (``mask_table``); the rational ones compile to integer coefficient rows
(``monads.IntegerRows``, the same compiler ``lifting_check`` runs on the
component functionals at every sampled T-value at once).  Every other
modality goes through its generic evaluation rule.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .core import FinSet, _exact
from .modalities import (
    BOOLEAN,
    INSTANCES,
    RATIONAL,
    Modality,
    builtin_modality,
)
from .monads import (
    IntegerRows,
    KleisliArrow,
    Lattice,
    _differing_point,
    kleisli_compose,
    unit,
)
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
]


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

    def __repr__(self):
        return f"BooleanTransformer({self.source.name}->{self.target.name}, {list(self.table)})"


@dataclass(frozen=True)
class RationalTransformer:
    """An exact-rational predicate transformer [0,1]^source -> [0,1]^target.

    Kept as an evaluation rule (values aligned with the carriers' element
    order); ``arrow`` optionally records the defining computation.  The
    rule is called at every evaluation: a grid check evaluates each point
    once (``LawCheck``), and a closed form is compared on its integer rows,
    which must fit the carriers (else ``ValueError``, as ``apply_values``).
    """

    source: FinSet
    target: FinSet
    fn: Callable  # tuple of Fractions over source -> tuple of Fractions over target
    arrow: KleisliArrow | None = None
    label: str = ""

    def __post_init__(self):
        rows = self.rows
        if rows is not None and rows.width != len(self.source):
            raise ValueError("predicate length does not match the source carrier")
        if rows is not None and len(rows.rows) != len(self.target):
            raise ValueError("transformer output length does not match the target carrier")

    @property
    def carrier(self) -> str:
        return RATIONAL

    @property
    def rows(self):
        """The integer rows of a closed-form transformer; None for a rule."""
        return self.fn if isinstance(self.fn, IntegerRows) else None

    def apply_values(self, values: Sequence[Fraction]) -> tuple:
        """The outputs of the rule at a predicate.  A float input or output
        is refused with ``TypeError``, as a rounded value would decide a
        law, and so is any output but an int or a Fraction; an output
        outside [0, 1], or a length that misses its carrier, raises
        ``ValueError``."""
        vals = tuple(v if type(v) is Fraction else _exact(v, "predicate value") for v in values)
        if len(vals) != len(self.source):
            raise ValueError("predicate length does not match the source carrier")
        out = tuple(self.fn(vals))
        if len(out) != len(self.target):
            raise ValueError("transformer output length does not match the target carrier")
        for q in out:
            if type(q) is not Fraction and not isinstance(q, (int, Fraction)):
                kind = type(q).__name__
                raise TypeError(f"transformer produced {q!r}, a {kind}, not an int or a Fraction")
            if not 0 <= q.numerator <= q.denominator:
                raise ValueError(f"transformer produced {q} outside [0, 1]")
        return out

    @functools.cached_property
    def _side(self):
        """The transformer as the integer comparison reads it
        (``monads._differing_point``): its ``IntegerRows``, which fit the
        carriers, or for a rule an evaluator (point, one) -> (outputs,
        their denominator), ``apply_values`` scaled to the lcm."""
        if self.rows is not None:
            return self.rows

        def at(point, one):
            out = self.apply_values([Fraction(m, one) for m in point])
            den = math.lcm(*[q.denominator for q in out])
            return [q.numerator * (den // q.denominator) for q in out], den

        return at

    @functools.cached_property
    def _ints(self) -> Callable:
        """The integer evaluator of ``_side``; ``IntegerRows.ints`` raises as
        ``apply_values`` does."""
        side = self._side
        return side.ints if isinstance(side, IntegerRows) else side

    def __repr__(self):
        tag = self.label or "rule"
        return f"RationalTransformer({self.source.name}->{self.target.name}, {tag})"


def mask_table(bases: Sequence, n_source: int) -> tuple:
    """The dense table of a Boolean closed form: bit i of entry m is set iff
    some mask of ``bases[i]`` lies inside m.  Each basis mask sets bit i
    in the entries of its supersets, walked in ascending order."""
    full = (1 << n_source) - 1
    table = [0] * (full + 1)
    for i, basis in enumerate(bases):
        for b in basis:
            m = b
            while True:
                table[m] |= 1 << i
                if m == full:
                    break
                m = (m + 1) | b
    return tuple(table)


def wp_diamond(arrow: KleisliArrow) -> BooleanTransformer:
    """May-semantics of a relation: phi(f)(x) = exists y. xRy and f(y)."""
    if arrow.kind != INSTANCES["may"].monad:
        raise ValueError("wp_diamond interprets POWERSET computations")
    return pt_modality(INSTANCES["may"], arrow)


def wp_box(arrow: KleisliArrow) -> BooleanTransformer:
    """Must-semantics of a relation: phi(f)(x) = forall y. xRy implies f(y)."""
    if arrow.kind != INSTANCES["must"].monad:
        raise ValueError("wp_box interprets POWERSET computations")
    return pt_modality(INSTANCES["must"], arrow)


def pt_modality(mod: Modality, arrow: KleisliArrow):
    """The generic backward semantics: phi(h)(x) = eval(arrow(x), h).

    Boolean modalities produce dense tables, through the mask kernel for
    a row with a closed form (``Modality.closed_form``); rational ones
    produce an evaluation rule carrying the defining arrow, the integer
    rows of the closed form when the row has one.
    """
    if isinstance(mod, str):
        mod = builtin_modality(mod)
    if mod.monad != arrow.kind:
        raise ValueError(f"modality {mod.name!r} interprets {mod.monad}, got {arrow.kind}")
    Y, X = arrow.target, arrow.source
    closed = mod.closed_form
    if mod.carrier == BOOLEAN:
        if closed is not None:
            return BooleanTransformer(Y, X, mask_table(closed(arrow.rows, Y.elements), len(Y)))
        table = []
        for m in range(1 << len(Y)):
            val = lambda y: (m >> Y.index(y)) & 1
            bits = 0
            for i, row in enumerate(arrow.rows):
                if mod.evaluate(row, val):
                    bits |= 1 << i
            table.append(bits)
        return BooleanTransformer(Y, X, tuple(table))

    if closed is not None:
        fn = closed(arrow.rows, Y.elements)
    else:
        idx = {y: i for i, y in enumerate(Y.elements)}

        def fn(values):
            val = lambda y: values[idx[y]]
            return tuple(mod.evaluate(row, val) for row in arrow.rows)

    return RationalTransformer(Y, X, fn, arrow=arrow, label=mod.name)


def pt_alternating(pair, arrow: KleisliArrow):
    """Alternating-branching semantics; the pair may be a catalog name,
    a Modality for the composite monad, or omitted (None) to pick the
    canonical pair for the arrow's monad."""
    alternating = {mod.monad: mod for mod in INSTANCES.values() if mod.pair}
    if arrow.kind not in alternating:
        raise ValueError(f"{arrow.kind} is not an alternating (composite) monad")
    return pt_modality(alternating[arrow.kind] if pair is None else pair, arrow)


def _compose_sides(composed, pf, pg, pred) -> tuple:
    if isinstance(composed, BooleanTransformer):
        return composed.apply_mask(pred), pf.apply_mask(pg.apply_mask(pred))
    return composed.apply_values(pred), pf.apply_values(pg.apply_values(pred))


def _identity_sides(ident, pred) -> tuple:
    if isinstance(ident, BooleanTransformer):
        return ident.apply_mask(pred), pred
    return ident.apply_values(pred), tuple(pred)


def _law_functor_compose(subject, args):
    mod, f, g = args["modality"], args["f"], args["g"]
    composed = pt_modality(mod, kleisli_compose(f, g))
    return _compose_sides(composed, pt_modality(mod, f), pt_modality(mod, g), args["pred"])


def _law_functor_identity(subject, args):
    mod, carrier = args["modality"], args["carrier"]
    return _identity_sides(pt_modality(mod, unit(mod.monad, carrier)), args["pred"])


register_law("functor.compose", _law_functor_compose)
register_law("functor.identity", _law_functor_identity)


@functools.lru_cache(maxsize=32)
def _functor_probes(n: int, seed: int) -> tuple:
    """The default probe grid's value tuples over n points, and the same
    padded with seeded random tuples to at least 100, each with its
    ``Lattice``.  Both depend only on n and the seed, so functoriality
    checks share them; the grids themselves are not shared."""
    from .healthiness import ProbeGrid

    domain = FinSet("probe", range(n))
    grid = tuple(ProbeGrid.default(domain, seed=seed).value_tuples())
    padded = grid + tuple(ProbeGrid.random_tuples(domain, seed + 1, max(0, 100 - len(grid))))
    return (grid, Lattice.of(grid, ())), (padded, Lattice.of(padded, ()))


@functools.lru_cache(maxsize=32)
def _identity_rows(n: int) -> IntegerRows:
    """The rows of the identity on n coordinates: output i is p(i)."""
    return IntegerRows([[(0, [int(j == i) for j in range(n)])] for i in range(n)], n)


def _rows_after(pg: RationalTransformer, pf: RationalTransformer, lattice: Lattice):
    """P(f) o P(g) as one row set (``IntegerRows.then``) when it may stand
    for the two stages on the lattice, else None: both carry rows, which
    raise nowhere in the cube, the lattice lies in the cube, and the
    composite holds no more vertex rows than the lattice has points."""
    inner, outer = pg.rows, pf.rows
    if inner is None or outer is None or lattice.cube_width != inner.width:
        return None
    counts = [len(verts) for verts in inner.rows]
    size = sum(math.prod([counts[y] for y, c in enumerate(cs) if c]) for verts in outer.rows for _, cs in verts)
    return inner.then(outer) if size <= len(lattice.preds) else None


def check_functoriality(
    mod, f: KleisliArrow, g: KleisliArrow, probes: Sequence | None = None, seed: int = 3
) -> Verdict:
    """Contravariant functoriality: P(g . f) = P(f) o P(g), and P(unit) = id.

    Both sides are computed independently: the left goes through the
    Kleisli composite, the right through transformer composition.
    Boolean instances sweep all postconditions; rational ones compare
    integers at probe tuples (>= 100 by default) and build the witness in
    Fractions.  P(g . f) is compared with P(f) o P(g) by
    ``_differing_point``: as one row set when P(f) and P(g) carry rows and
    the probes lie in the cube (``_rows_after``), so equal rows answer with
    no point evaluated, else as P(f) at P(g)'s outputs, point by point.
    P(unit) is compared with the identity rows on the default grid, by the
    same routine.  A probe that is no exact rational raises ``TypeError``
    before any is evaluated.
    """
    if isinstance(mod, str):
        mod = builtin_modality(mod)
    if f.target.elements != g.source.elements:
        raise ValueError("arrows are not composable")
    # the replay evaluators rebuild these per witness; the check builds them once
    composed = pt_modality(mod, kleisli_compose(f, g))
    pf, pg = pt_modality(mod, f), pt_modality(mod, g)
    if mod.carrier == BOOLEAN:
        preds, id_preds = range(1 << len(g.target)), range(1 << len(f.source))
        k = next((m for m in preds if operator.ne(*_compose_sides(composed, pf, pg, m))), None)
    else:
        preds, lattice = _functor_probes(len(g.target), seed)[1]
        id_preds, id_lattice = _functor_probes(len(f.source), seed)[0]
        if probes is not None:
            preds = list(probes)
            lattice = Lattice.of([[_exact(v, "predicate value") for v in p] for p in preds], ())
        right = _rows_after(pg, pf, lattice)
        if right is None:
            right = lambda p, one: pf._ints(*pg._ints(p, one))
        k = _differing_point(composed._side, right, lattice)
    if k is not None:
        lhs, rhs = _compose_sides(composed, pf, pg, preds[k])
        args = {"modality": mod, "f": f, "g": g, "pred": preds[k]}
        return Verdict.unhealthy(Witness("functor.compose", args, lhs, rhs), k + 1)
    ident = pt_modality(mod, unit(mod.monad, f.source))
    if mod.carrier == BOOLEAN:
        k = next((m for m in id_preds if operator.ne(*_identity_sides(ident, m))), None)
    else:
        k = _differing_point(ident._side, _identity_rows(len(f.source)), id_lattice)
    if k is not None:
        lhs, rhs = _identity_sides(ident, id_preds[k])
        args = {"modality": mod, "carrier": f.source, "pred": id_preds[k]}
        return Verdict.unhealthy(Witness("functor.identity", args, lhs, rhs), len(preds) + k + 1)
    return Verdict.healthy(len(preds) + len(id_preds))
