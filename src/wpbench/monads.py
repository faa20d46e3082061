"""Concrete finite representations of the six branching monads.

Each monad is given by a row representation for Kleisli arrows, a unit,
and a Kleisli composition.  Law suites (unit/associativity, and the
monad-map laws of natural transformations into continuation-like or
concrete monads) are executable and return witnessed verdicts.

The two composite monads are represented by their carriers on Set:

* ``LIFT_POWERSET``  — nonempty subsets of Y + {bottom}  (divergence under
  nondeterminism; bottom is absorbed only during semantic round trips).
* ``UP_POWERSET``    — up-closed families of subsets of Y (two layers of
  nondeterminism).  Its composition is the derived one
  ``(g . f)(x) = {W : {y : W in g(y)} in f(x)}``; the law checker is the
  oracle that this is the right multiplication.
* ``CV_DIST``        — nonempty vertex lists of distributions (demonic
  choice over probabilistic choice).  Vertex lists are V-representations
  without hull minimization; equality is semantic, never geometric.

The closed forms of the rational modalities evaluate on integers here
(``IntegerRows`` on a ``Lattice`` of probes): one evaluator serves the
transformers, the synthesis round trip and the vertex-list equality
``cv_values_equal``, and the law checks read certificates off its
coefficients.

The hot paths build tuples from lists (``tuple([...])``), at their final
size.  A tuple grown from a generator, once freed, is kept on CPython's
free list for its final size, and only a full collection empties those
lists; the integer paths allocate too few tracked objects to trigger one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from random import Random
from typing import Callable, Iterable, Sequence

from .core import FinSet, SizeGuardError
from .verdicts import Verdict, Witness, register_law

__all__ = [
    "MonadKind",
    "BOT",
    "DistV",
    "KleisliArrow",
    "MonadMapSpec",
    "unit",
    "unit_value",
    "kleisli_compose",
    "up_closure",
    "is_up_closed",
    "dedup_vertices",
    "enumerate_tvalues",
    "enumerate_arrows",
    "is_enumerable",
    "has_tvalues",
    "support",
    "random_tvalue",
    "random_arrow",
    "check_monad_laws",
    "check_monad_map_laws",
    "sigma_spec",
    "sigma_prime_spec",
    "support_map_spec",
    "sigma_inverse",
    "fmap_value",
    "mult_value",
    "ContinuationTarget",
    "KindTarget",
]

ZERO = Fraction(0)
ONE = Fraction(1)


class MonadKind(str, Enum):
    POWERSET = "powerset"
    LIFT_POWERSET = "lift_powerset"
    SUBDIST = "subdist"
    DIST = "dist"
    UP_POWERSET = "up_powerset"
    CV_DIST = "cv_dist"

    def __str__(self) -> str:
        return self.value


class _Bottom:
    """Divergence marker for LIFT_POWERSET rows."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BOT"


BOT = _Bottom()


class DistV:
    """A finite-support rational (sub)distribution.

    Weights are exact nonnegative Fractions; zero weights are dropped at
    construction so equality and hashing see only the support.  The
    weights never change after construction, so the hash is computed once.
    """

    __slots__ = ("_w", "_hash")

    def __init__(self, pairs: Iterable = ()):
        w: dict = {}
        items = pairs.items() if isinstance(pairs, dict) else pairs
        for x, q in items:
            q = q if isinstance(q, Fraction) else Fraction(q)
            if q < 0:
                raise ValueError(f"negative weight {q} at {x!r}")
            if q == 0:
                continue
            w[x] = w.get(x, ZERO) + q
        self._w = w
        self._hash = None

    @classmethod
    def _of_weights(cls, w: dict) -> "DistV":
        """A DistV over a dict of positive Fraction weights, taken as is."""
        d = object.__new__(cls)
        d._w, d._hash = w, None
        return d

    @classmethod
    def dirac(cls, x) -> "DistV":
        return cls._of_weights({x: ONE})

    @property
    def mass(self) -> Fraction:
        weights = self._w.values()
        den = math.lcm(*[q.denominator for q in weights])
        return Fraction(sum([q.numerator * (den // q.denominator) for q in weights]), den)

    @property
    def support(self) -> frozenset:
        return frozenset(self._w)

    def weight(self, x) -> Fraction:
        return self._w.get(x, ZERO)

    def items(self):
        return self._w.items()

    def items_in(self, carrier: FinSet):
        """Support items in carrier order (deterministic display)."""
        return [(x, self._w[x]) for x in carrier.elements if x in self._w]

    def scale(self, c: Fraction) -> "DistV":
        c = c if isinstance(c, Fraction) else Fraction(c)
        return DistV((x, c * q) for x, q in self._w.items())

    def add(self, other: "DistV") -> "DistV":
        return DistV(list(self._w.items()) + list(other._w.items()))

    def pushforward(self, fn) -> "DistV":
        return DistV((fn(x), q) for x, q in self._w.items())

    @staticmethod
    def mix(weighted: Iterable) -> "DistV":
        """Convex-style combination sum_i c_i * d_i, summed on integer
        numerators over one common denominator (``_mix_numerators``).  A
        c_i that is negative, or not an int or a Fraction, goes through the
        constructor's pairs instead, which refuses a negative weight."""
        terms = list(weighted)
        mixed = _mix_numerators(terms)
        if mixed is None:
            return DistV((x, c * q) for c, d in terms for x, q in d.items())
        nums, den = mixed
        return DistV._of_weights({x: Fraction(n, den) for x, n in nums.items()})

    def expect(self, fn) -> Fraction:
        return sum((q * fn(x) for x, q in self._w.items()), ZERO)

    def __eq__(self, other):
        return isinstance(other, DistV) and self._w == other._w

    def __reduce__(self):
        # the constructor rebuilds the weights; a cached string hash is
        # salted per process, so it is not carried along
        return DistV, (self._w,)

    def __hash__(self):
        h = self._hash
        if h is None:
            # weights are normalized Fractions, so equal ones have equal
            # terms, and hashing two ints costs less than hashing a Fraction
            h = self._hash = hash(frozenset((x, q.numerator, q.denominator) for x, q in self._w.items()))
        return h

    def __repr__(self):
        inner = " + ".join(f"{q}*{x!r}" for x, q in self._w.items())
        return f"DistV({inner or '0'})"


def _mix_numerators(terms: Sequence) -> tuple | None:
    """sum c * d over (c, d) as integers: per point, in first-appearance
    order, its numerator over the lcm of the products' denominators, and
    that lcm.  A zero c adds no point.  None when some c is negative, or
    not an int or a Fraction."""
    scaled = []
    for c, d in terms:
        if not isinstance(c, (int, Fraction)):
            return None
        a, b = c.numerator, c.denominator
        if a < 0:
            return None
        if a:
            for x, q in d.items():
                scaled.append((x, a * q.numerator, b * q.denominator))
    den = math.lcm(*[b for _, _, b in scaled])
    nums: dict = {}
    for x, n, b in scaled:
        nums[x] = nums.get(x, 0) + n * (den // b)
    return nums, den


def up_closure(family: Iterable, universe) -> frozenset:
    """Smallest superset-closed family over the universe containing the input."""
    elems = tuple(universe.elements) if isinstance(universe, FinSet) else tuple(universe)
    out = set()
    for s in family:
        s = frozenset(s)
        rest = [x for x in elems if x not in s]
        for k in range(len(rest) + 1):
            for extra in itertools.combinations(rest, k):
                out.add(s | frozenset(extra))
    return frozenset(out)


def is_up_closed(family: frozenset, universe) -> bool:
    """Every member extended by one element is a member, which reaches
    every superset one element at a time."""
    elems = tuple(universe.elements) if isinstance(universe, FinSet) else tuple(universe)
    fam = frozenset(frozenset(s) for s in family)
    return all(s | {y} in fam for s in fam for y in elems if y not in s)


def dedup_vertices(vertices: Iterable[DistV]) -> tuple:
    seen = set()
    out = []
    for v in vertices:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return tuple(out)


def _validate_value(kind: MonadKind, target: FinSet, value):
    if kind == MonadKind.POWERSET:
        v = frozenset(value)
        for y in v:
            target.index(y)
        return v
    if kind == MonadKind.LIFT_POWERSET:
        v = frozenset(value)
        if not v:
            raise ValueError("LIFT_POWERSET rows must be nonempty")
        for y in v:
            if y is not BOT:
                target.index(y)
        return v
    if kind in (MonadKind.SUBDIST, MonadKind.DIST):
        v = value if isinstance(value, DistV) else DistV(value)
        for y in v._w:
            target.index(y)
        m = v.mass
        if m > 1:
            raise ValueError(f"row mass {m} exceeds one")
        if kind == MonadKind.DIST and m != 1:
            raise ValueError(f"DIST row mass must equal one, got {m}")
        return v
    if kind == MonadKind.UP_POWERSET:
        fam = frozenset(frozenset(s) for s in value)
        for s in fam:
            for y in s:
                target.index(y)
        if not is_up_closed(fam, target):
            raise ValueError("UP_POWERSET rows must be up-closed families")
        return fam
    if kind == MonadKind.CV_DIST:
        checked = []
        for d in value:
            d = d if isinstance(d, DistV) else DistV(d)
            if d.mass != 1:
                raise ValueError(f"CV_DIST vertex mass must equal one, got {d.mass}")
            for y in d._w:
                target.index(y)
            checked.append(d)
        vs = dedup_vertices(checked)
        if not vs:
            raise ValueError("CV_DIST rows need at least one vertex")
        return vs
    raise ValueError(f"unknown monad kind {kind!r}")


@dataclass(frozen=True)
class KleisliArrow:
    """A monad-tagged computation table X -> T Y."""

    kind: MonadKind
    source: FinSet
    target: FinSet
    rows: tuple

    def __init__(self, kind, source: FinSet, target: FinSet, rows):
        kind = MonadKind(kind)
        if isinstance(rows, dict):
            row_list = [rows[x] for x in source.elements]
        else:
            row_list = list(rows)
        if len(row_list) != len(source):
            raise ValueError(
                f"arrow needs {len(source)} rows for carrier {source.name!r}, got {len(row_list)}"
            )
        validated = tuple([_validate_value(kind, target, r) for r in row_list])
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "rows", validated)

    @classmethod
    def _of_valid_rows(cls, kind: MonadKind, source: FinSet, target: FinSet, rows: tuple):
        """An arrow whose rows are T-values over target already validated,
        as enumerated and composed ones are."""
        arrow = object.__new__(cls)
        for field, value in zip(("kind", "source", "target", "rows"), (kind, source, target, rows)):
            object.__setattr__(arrow, field, value)
        return arrow

    def row(self, x):
        return self.rows[self.source.index(x)]

    def __repr__(self):
        body = ", ".join(f"{x!r}->{r!r}" for x, r in zip(self.source.elements, self.rows))
        return f"KleisliArrow[{self.kind}]({body})"


def unit_value(kind: MonadKind, target: FinSet, x):
    kind = MonadKind(kind)
    target.index(x)
    if kind == MonadKind.POWERSET or kind == MonadKind.LIFT_POWERSET:
        return frozenset((x,))
    if kind in (MonadKind.SUBDIST, MonadKind.DIST):
        return DistV.dirac(x)
    if kind == MonadKind.UP_POWERSET:
        return up_closure([frozenset((x,))], target)
    if kind == MonadKind.CV_DIST:
        return (DistV.dirac(x),)
    raise ValueError(f"unknown monad kind {kind!r}")


def unit(kind: MonadKind, carrier: FinSet) -> KleisliArrow:
    """The identity arrow of the Kleisli category at the carrier, built
    once per (kind, carrier): arrows are immutable, so callers share it."""
    return _unit(MonadKind(kind), carrier)


@functools.lru_cache(maxsize=256)
def _unit(kind: MonadKind, carrier: FinSet) -> KleisliArrow:
    rows = tuple(unit_value(kind, carrier, x) for x in carrier)
    return KleisliArrow._of_valid_rows(kind, carrier, carrier, rows)


def _compose_value(kind: MonadKind, value, g: KleisliArrow):
    """Extend g over one T-value: the row of (g . f) at a point."""
    if kind == MonadKind.POWERSET:
        out = set()
        for y in value:
            out |= g.row(y)
        return frozenset(out)
    if kind == MonadKind.LIFT_POWERSET:
        out = set()
        for y in value:
            out |= frozenset((BOT,)) if y is BOT else g.row(y)
        return frozenset(out)
    if kind in (MonadKind.SUBDIST, MonadKind.DIST):
        return DistV.mix((q, g.row(y)) for y, q in value.items())
    if kind == MonadKind.UP_POWERSET:
        # (g.f)(x) = {W : {y : W in g(y)} in f(x)}, derived from the
        # composite-monad adjunction and validated by check_monad_laws.
        z_elems = tuple(g.target.elements)
        fam = set()
        for bits in itertools.product((0, 1), repeat=len(z_elems)):
            w = frozenset(z for z, b in zip(z_elems, bits) if b)
            pulled = frozenset(y for y in g.source.elements if w in g.row(y))
            if pulled in value:
                fam.add(w)
        return frozenset(fam)
    if kind == MonadKind.CV_DIST:
        # each vertex is a mix of g's vertices by the positive Fraction
        # weights of one of the value's, which _mix_numerators takes; equal
        # vertices are dropped on their reduced integer weights, before any
        # DistV is built, and the first of them is kept
        verts = {}
        for mu in value:
            supp = sorted(mu._w, key=g.source.index)
            weights = [mu._w[y] for y in supp]
            for choice in itertools.product(*(g.row(y) for y in supp)):
                nums, den = _mix_numerators(list(zip(weights, choice)))
                r = math.gcd(den, *nums.values())
                key = (den // r, frozenset((x, n // r) for x, n in nums.items()))
                if key not in verts:
                    verts[key] = DistV._of_weights({x: Fraction(n, den) for x, n in nums.items()})
        return tuple(verts.values())
    raise ValueError(f"unknown monad kind {kind!r}")


def kleisli_compose(f: KleisliArrow, g: KleisliArrow) -> KleisliArrow:
    """The Kleisli composite g . f : X -> T Z of f : X -> T Y and g : Y -> T Z.

    Composites of valid T-values are valid, so the rows are not validated
    again: a union of subsets is a subset, a lifted row stays nonempty, a
    mix of (sub)distributions keeps its mass at most one (at one for DIST),
    the pulled-back family of up-closed ones is up-closed, and every CV
    vertex is a mix of mass-one vertices with weights summing to one."""
    if f.kind != g.kind:
        raise ValueError(f"monad tag mismatch: {f.kind} vs {g.kind}")
    if f.target is not g.source and f.target.elements != g.source.elements:
        raise ValueError(
            f"carrier mismatch: f targets {f.target.name!r}, g sources {g.source.name!r}"
        )
    rows = tuple([_compose_value(f.kind, r, g) for r in f.rows])
    return KleisliArrow._of_valid_rows(f.kind, f.source, g.target, rows)


def support(kind: MonadKind, value) -> frozenset:
    """The carrier elements one T-value mentions (bottom excluded)."""
    kind = MonadKind(kind)
    if kind in (MonadKind.POWERSET, MonadKind.LIFT_POWERSET):
        return frozenset(y for y in value if y is not BOT)
    if kind in (MonadKind.SUBDIST, MonadKind.DIST):
        return value.support
    if kind == MonadKind.UP_POWERSET:
        return frozenset().union(*value)
    if kind == MonadKind.CV_DIST:
        return frozenset().union(*(mu.support for mu in value))
    raise ValueError(f"unknown monad kind {kind!r}")


# ---------------------------------------------------------------------------
# Enumeration and sampling of T-values and arrows


def is_enumerable(kind: MonadKind) -> bool:
    """Whether every T-value over a finite carrier can be listed."""
    return MonadKind(kind) in (MonadKind.POWERSET, MonadKind.LIFT_POWERSET, MonadKind.UP_POWERSET)


def has_tvalues(kind: MonadKind, target: FinSet) -> bool:
    """Whether T(target) is nonempty.  Only D(empty) and the convex sets of
    distributions over it are empty, so for those monads no nonempty X has
    an arrow X -> T(empty)."""
    return len(target) > 0 or MonadKind(kind) not in (MonadKind.DIST, MonadKind.CV_DIST)


def _up_closed_masks(n: int) -> list:
    """The up-closed families over n elements, ascending, as masks whose bit
    s stands for the subset with mask s.  Subsets are decided in descending
    order, so a subset may join once its one-element extensions have.  The
    search keeps its own stack: a recursive closure would leave a reference
    cycle per call for the cyclic collector."""
    out, stack = [], [((1 << n) - 1, 0)]
    while stack:
        s, fam = stack.pop()
        if s < 0:
            out.append(fam)
            continue
        stack.append((s - 1, fam))
        if all((fam >> (s | 1 << j)) & 1 for j in range(n) if not (s >> j) & 1):
            stack.append((s - 1, fam | 1 << s))
    return sorted(out)


def enumerate_tvalues(kind: MonadKind, target: FinSet, max_enum: int = 1 << 20) -> list:
    """All T-values over a carrier, for the Boolean-enumerable monads."""
    kind = MonadKind(kind)
    n = len(target)
    if kind == MonadKind.POWERSET:
        if (1 << n) > max_enum:
            raise SizeGuardError(f"2^{n} subsets exceed guard")
        return [
            frozenset(x for i, x in enumerate(target.elements) if (m >> i) & 1)
            for m in range(1 << n)
        ]
    if kind == MonadKind.LIFT_POWERSET:
        ext = tuple(target.elements) + (BOT,)
        if (1 << len(ext)) > max_enum:
            raise SizeGuardError("lifted subset space exceeds guard")
        out = []
        for m in range(1, 1 << len(ext)):
            out.append(frozenset(x for i, x in enumerate(ext) if (m >> i) & 1))
        return out
    if kind == MonadKind.UP_POWERSET:
        if n > 4 or (1 << (1 << n)) > max_enum:
            raise SizeGuardError("up-closed family space exceeds guard")
        subsets = enumerate_tvalues(MonadKind.POWERSET, target)
        return [
            frozenset(s for i, s in enumerate(subsets) if (m >> i) & 1)
            for m in _up_closed_masks(n)
        ]
    raise SizeGuardError(f"{kind} values are not enumerable; sample them instead")


def enumerate_arrows(
    kind: MonadKind, source: FinSet, target: FinSet, max_enum: int = 1 << 20
) -> Iterable[KleisliArrow]:
    """All arrows X -> T Y in canonical order (first row varies fastest)."""
    kind = MonadKind(kind)
    values = enumerate_tvalues(kind, target, max_enum)
    total = len(values) ** len(source)
    if total > max_enum:
        raise SizeGuardError(f"{total} arrows exceed the enumeration guard")
    for rev in itertools.product(values, repeat=len(source)):
        yield KleisliArrow._of_valid_rows(kind, source, target, rev[::-1])


_DENOMS = (2, 3, 4, 5, 6, 8, 12, 16)


def random_tvalue(kind: MonadKind, rng: Random, target: FinSet, max_den: int = 16):
    kind = MonadKind(kind)
    elems = list(target.elements)
    if kind == MonadKind.POWERSET:
        return frozenset(x for x in elems if rng.random() < 0.5)
    if kind == MonadKind.LIFT_POWERSET:
        ext = elems + [BOT]
        pick = [x for x in ext if rng.random() < 0.5]
        return frozenset(pick or [rng.choice(ext)])
    if kind in (MonadKind.SUBDIST, MonadKind.DIST):
        den = rng.choice([d for d in _DENOMS if d <= max_den])
        remaining = den
        order = elems[:]
        rng.shuffle(order)
        weights = {}
        for i, x in enumerate(order):
            if kind == MonadKind.DIST and i == len(order) - 1:
                num = remaining
            else:
                num = rng.randint(0, remaining)
            if num:
                weights[x] = Fraction(num, den)
            remaining -= num
        return DistV._of_weights(weights)
    if kind == MonadKind.UP_POWERSET:
        subsets = enumerate_tvalues(MonadKind.POWERSET, target)
        gens = [s for s in subsets if rng.random() < 0.3]
        return up_closure(gens, target)
    if kind == MonadKind.CV_DIST:
        k = rng.randint(1, 3)
        return dedup_vertices(
            random_tvalue(MonadKind.DIST, rng, target, max_den) for _ in range(k)
        )
    raise ValueError(f"unknown monad kind {kind!r}")


def random_arrow(
    kind: MonadKind, rng: Random, source: FinSet, target: FinSet, max_den: int = 16
) -> KleisliArrow:
    return KleisliArrow(
        kind, source, target, [random_tvalue(kind, rng, target, max_den) for _ in source]
    )


# ---------------------------------------------------------------------------
# Integer rows on a lattice: the one integer evaluator of the closed forms


class IntegerRows:
    """A closed-form transformer compiled to integer coefficient rows.

    Output x is the minimum, over the vertex rows of x, of
    ``(c0 + sum_y c_y * p(y)) / den``: an expectation plus an r-weighted
    divergence offset is one vertex row, a polytope has one per vertex.
    Called on Fractions, as the rule of a ``RationalTransformer``, the rows
    scale them to their common denominator and evaluate them on integers
    (``ints``, with the checks of ``RationalTransformer.apply_values``);
    the law checks read a certificate off the coefficients themselves
    (``modalities.LawCheck``).  ``same_values`` compares two closed
    forms at the points of a lattice: the synthesis residuals and both
    polytope equalities (``synthesis.cv_semantically_equal`` and
    ``cv_values_equal``) decide on it.  ``semantics.check_functoriality``
    composes ``ints`` of two closed forms on its probes' lattice and
    compares the result with the composite's.  The rows live here, below the
    catalog, so that ``cv_values_equal`` can use them; ``modalities``
    compiles the closed forms of its modalities to them.
    """

    __slots__ = ("rows", "den", "width")

    def __init__(self, rows: Sequence, width: int):
        # rows: per output, its vertex rows (offset, coefficients), in Fractions
        den = self.den = math.lcm(
            *[q.denominator for verts in rows for c0, cs in verts for q in (c0, *cs)]
        )
        scaled = lambda q: q.numerator * (den // q.denominator)
        self.width = width
        self.rows = tuple(
            [tuple([(scaled(c0), tuple([scaled(c) for c in cs])) for c0, cs in verts]) for verts in rows]
        )

    def ints(self, values: Sequence[int], one: int) -> tuple:
        """The outputs, over one * den, at a predicate given over one."""
        if len(values) != self.width:
            raise ValueError("predicate length does not match the source carrier")
        top = one * self.den
        out = []
        for verts in self.rows:
            best = None
            for c0, cs in verts:
                acc = c0 * one
                for c, v in zip(cs, values):
                    acc += c * v
                if best is None or acc < best:
                    best = acc
            if best is None:
                raise ValueError("an output has no vertex row")
            if not 0 <= best <= top:
                raise ValueError(f"transformer produced {Fraction(best, top)} outside [0, 1]")
            out.append(best)
        return tuple(out)

    def __call__(self, values: Sequence[Fraction]) -> tuple:
        """The outputs at a predicate given in Fractions."""
        one = math.lcm(*[v.denominator for v in values])
        top = one * self.den
        ints = [v.numerator * (one // v.denominator) for v in values]
        return tuple([Fraction(v, top) for v in self.ints(ints, one)])

    def same_values(self, other: "IntegerRows", points: Sequence, one: int) -> bool:
        """Whether both give the same outputs at every point (an integer
        vector over one): the values, over one * den each, are compared
        cross-scaled by the other's den.  False as well when the output
        counts differ, an output has no vertex row, or ``ints`` raises (a
        value outside [0, 1], a point of the wrong width), so that the
        caller's Fraction route decides: it builds the witness, or raises,
        as it would without this test.  True at once, with no point
        evaluated, when both hold the same rows (``_same_bounded_rows``)
        and every point lies in [0, one] at their width."""
        if len(self.rows) != len(other.rows) or not all(self.rows) or not all(other.rows):
            return False
        w = self.width
        if self._same_bounded_rows(other) and all(
            len(p) == w and min(p, default=0) >= 0 and max(p, default=0) <= one for p in points
        ):
            return True
        da, db = self.den, other.den
        try:
            for p in points:
                if any(u * db != v * da for u, v in zip(self.ints(p, one), other.ints(p, one))):
                    return False
        except ValueError:
            return False
        return True

    def _same_bounded_rows(self, other: "IntegerRows") -> bool:
        """Whether both give the same outputs and raise at no point in
        [0, one]: they have one width, per output the same vertex rows
        cross-scaled by the other's den, every offset and coefficient >= 0,
        and every vertex sum c0 + sum(cs) at most den."""
        if self.width != other.width:
            return False
        da, db = self.den, other.den
        for va, vb in zip(self.rows, other.rows):
            scaled = {(c0 * db, tuple(c * db for c in cs)) for c0, cs in va}
            if scaled != {(c0 * da, tuple(c * da for c in cs)) for c0, cs in vb}:
                return False
            if not all(c0 >= 0 and min(cs, default=0) >= 0 and c0 + sum(cs) <= da for c0, cs in va):
                return False
        return True


def vertex_rows(tvalues: Sequence, targets: Sequence) -> IntegerRows:
    """The integer rows of min-evaluation over vertex lists: per T-value,
    one vertex row (no offset) per distribution, over ``targets``."""
    rows = [[(ZERO, [mu.weight(y) for y in targets]) for mu in t] for t in tvalues]
    return IntegerRows(rows, len(targets))


@dataclass(frozen=True)
class Lattice:
    """Probe predicates and scalars over one integer denominator ``one``:
    the lcm of the predicate denominators times the lcm of the scalar
    denominators, so every predicate, and its product with any scalar, is
    an integer vector over it."""

    one: int
    preds: tuple  # integer numerator vectors over one
    scalars: tuple  # each scalar's integer multiple of one

    @classmethod
    def of(cls, preds, scalars) -> "Lattice":
        one = math.lcm(*[v.denominator for p in preds for v in p])
        one *= math.lcm(*[r.denominator for r in scalars])
        ints = tuple([tuple([v.numerator * (one // v.denominator) for v in p]) for p in preds])
        return cls(one, ints, tuple([r.numerator * (one // r.denominator) for r in scalars]))

    @functools.cached_property
    def counts(self) -> dict:
        """Per law shape, the number of its defined arguments on the
        lattice, filled in by the law checks (``modalities.LawCheck``)."""
        return {}

    @functools.cached_property
    def pairs(self) -> dict:
        """Per pair shape ("sum", "dual_sum"), per predicate i the j >= i
        that the shape defines at (i, j), filled in by the per-argument
        law loop (``modalities.LawCheck``)."""
        return {}


# ---------------------------------------------------------------------------
# Monad laws (Kleisli form: units are two-sided identities, composition
# associative)

@functools.cache
def _cv_probes(elements: tuple) -> tuple:
    """The probes of ``cv_probe_tuples`` over the carrier's elements, and
    their lattice."""
    n = len(elements)
    probes = [(ZERO,) * n, (ONE,) * n]
    for i in range(n):
        probes.append(tuple(ONE if j == i else ZERO for j in range(n)))
    for i in range(n):
        for j in range(i + 1, n):
            probes.append(
                tuple(
                    Fraction(1, 2) if k in (i, j) else ZERO for k in range(n)
                )
            )
    rng = Random(20510)
    for _ in range(16):
        den = rng.choice((2, 3, 4, 8))
        probes.append(tuple(Fraction(rng.randint(0, den), den) for _ in range(n)))
    out = tuple(dict.fromkeys(probes))
    return out, Lattice.of(out, ())


def cv_probe_tuples(target: FinSet) -> tuple:
    """Deterministic probe valuations for semantic polytope comparison."""
    return _cv_probes(target.elements)[0]


def cv_values_equal(a, b, target: FinSet) -> bool:
    """Vertex lists are V-representations without hull minimization, so
    polytope equality is tested by mutual min-evaluation on the
    ``cv_probe_tuples``: a probe-based test, not a decision of hull
    equality.  Equal vertex sets pass at once; otherwise the probes are
    compared on integers (``IntegerRows.same_values`` on their lattice),
    and the Fraction loop runs only when that comparison fails or a vertex
    is not a distribution over ``target``.  It gives the answer, or
    raises, as it would alone."""
    if frozenset(a) == frozenset(b):
        return True
    probes, lattice = _cv_probes(target.elements)
    known = frozenset(target.elements)
    if all(isinstance(mu, DistV) and mu.support <= known for t in (a, b) for mu in t):
        ra, rb = (vertex_rows((t,), target.elements) for t in (a, b))
        if ra.same_values(rb, lattice.preds, lattice.one):
            return True
    idx = {y: i for i, y in enumerate(target.elements)}
    for p in probes:
        fa = min(sum((q * p[idx[y]] for y, q in mu.items()), ZERO) for mu in a)
        fb = min(sum((q * p[idx[y]] for y, q in mu.items()), ZERO) for mu in b)
        if fa != fb:
            return False
    return True


def _values_equal(kind: MonadKind, a, b, target: FinSet = None) -> bool:
    if kind == MonadKind.CV_DIST:
        if target is None:
            return frozenset(a) == frozenset(b)
        return cv_values_equal(a, b, target)
    return a == b


def _assoc_failure(f, g, h, left: KleisliArrow, right: KleisliArrow):
    """The associativity witness at the first state where (f;g);h and
    f;(g;h) differ, or None."""
    for x in f.source.elements:
        if not _values_equal(f.kind, left.row(x), right.row(x), left.target):
            args = {"f": f, "g": g, "h": h, "x": x}
            return Witness("monad.assoc", args, left.row(x), right.row(x))
    return None


def _law_left_unit(subject, args):
    # the subject of a monad-law witness is the composition under test
    compose = subject if callable(subject) else kleisli_compose
    f = args["f"]
    composed = compose(unit(f.kind, f.source), f)
    x = args["x"]
    return composed.row(x), f.row(x)


def _law_right_unit(subject, args):
    compose = subject if callable(subject) else kleisli_compose
    f = args["f"]
    composed = compose(f, unit(f.kind, f.target))
    x = args["x"]
    return composed.row(x), f.row(x)


def _law_assoc(subject, args):
    compose = subject if callable(subject) else kleisli_compose
    f, g, h, x = args["f"], args["g"], args["h"], args["x"]
    left = compose(compose(f, g), h)
    right = compose(f, compose(g, h))
    return left.row(x), right.row(x)


register_law("monad.left_unit", _law_left_unit)
register_law("monad.right_unit", _law_right_unit)
register_law("monad.assoc", _law_assoc)


def _unit_law_failures(f: KleisliArrow, compose):
    lu = compose(unit(f.kind, f.source), f)
    for x in f.source.elements:
        if not _values_equal(f.kind, lu.row(x), f.row(x), f.target):
            yield Witness("monad.left_unit", {"f": f, "x": x}, lu.row(x), f.row(x))
            return
    ru = compose(f, unit(f.kind, f.target))
    for x in f.source.elements:
        if not _values_equal(f.kind, ru.row(x), f.row(x), f.target):
            yield Witness("monad.right_unit", {"f": f, "x": x}, ru.row(x), f.row(x))
            return


def _assoc_holds_per_value(kind: MonadKind, carriers: Sequence[FinSet], max_enum: int) -> bool:
    """Whether the built-in composition passes every associativity triple
    of the exhaustive sweep.

    ``kleisli_compose`` builds the row of g . f at x from f(x) and g alone,
    so (f;g);h and f;(g;h) agree at x iff h#(g#(t)) = (g;h)#(t) at
    t = f(x), and every t in TY is the row of some f out of a nonempty
    carrier.  A pass here is a pass of the sweep; a failure may be one
    the sweep does not see (all carriers empty), so it decides nothing.
    g# is evaluated once per (g, t) and h# once per (h, T-value).
    """
    arrows = [[list(enumerate_arrows(kind, Y, Z, max_enum)) for Z in carriers] for Y in carriers]
    # h# on the T-values met so far, one memo per arrow h
    lifted = [[[{} for _ in hs] for hs in row] for row in arrows]

    def extend(memo, h, value):
        out = memo.get(value)
        if out is None:
            out = memo[value] = _compose_value(kind, value, h)
        return out

    for i, Y in enumerate(carriers):
        ts = enumerate_tvalues(kind, Y, max_enum)
        for j in range(len(carriers)):
            for g in arrows[i][j]:
                us = [_compose_value(kind, t, g) for t in ts]
                for k, W in enumerate(carriers):
                    for h, memo in zip(arrows[j][k], lifted[j][k]):
                        rows = tuple([extend(memo, h, r) for r in g.rows])
                        gh = KleisliArrow._of_valid_rows(kind, Y, W, rows)
                        for t, u in zip(ts, us):
                            if extend(memo, h, u) != _compose_value(kind, t, gh):
                                return False
    return True


def check_monad_laws(
    kind: MonadKind,
    carriers: Sequence[FinSet],
    seed: int = 0,
    sample_count: int = 100,
    max_enum: int = 1 << 20,
    compose=None,
) -> Verdict:
    """Left/right unit and associativity of the Kleisli composition.

    Enumerable monads are swept exhaustively over the given carriers;
    SUBDIST/DIST/CV_DIST are checked on seeded sample triples.
    ``compose`` is swappable so a deliberately corrupted composition can
    be exercised in tests; None means ``kleisli_compose``.

    With the built-in composition the exhaustive associativity sweep is
    decided per T-value (``_assoc_holds_per_value``).  A supplied
    composition, or any failure there, runs the sweep over every triple
    of arrows, which builds the witness; verdicts and ``checked`` counts
    are the same on both routes.
    """
    kind = MonadKind(kind)
    per_value = compose is None
    if compose is None:
        compose = kleisli_compose
    checked = 0
    if is_enumerable(kind):
        counts = {
            (X.name, Y.name): len(enumerate_tvalues(kind, Y, max_enum)) ** len(X)
            for X in carriers
            for Y in carriers
        }
        triple_total = sum(
            counts[(X.name, Y.name)] * counts[(Y.name, Z.name)] * counts[(Z.name, W.name)]
            for X in carriers
            for Y in carriers
            for Z in carriers
            for W in carriers
        )
        if triple_total > max_enum:
            raise SizeGuardError(
                f"{triple_total} associativity triples exceed the guard ({max_enum}); "
                "shrink the carriers or raise max_enum (--max-enum)"
            )
        for X in carriers:
            for Y in carriers:
                for f in enumerate_arrows(kind, X, Y, max_enum):
                    for w in _unit_law_failures(f, compose):
                        return Verdict.unhealthy(w, checked)
                    checked += 1
        if per_value and _assoc_holds_per_value(kind, carriers, max_enum):
            return Verdict.healthy(checked + triple_total)
        for X in carriers:
            for Y in carriers:
                fs = list(enumerate_arrows(kind, X, Y, max_enum))
                for Z in carriers:
                    gs = list(enumerate_arrows(kind, Y, Z, max_enum))
                    for W in carriers:
                        hs = list(enumerate_arrows(kind, Z, W, max_enum))
                        for g in gs:
                            fgs = [(f, compose(f, g)) for f in fs]
                            ghs = [(h, compose(g, h)) for h in hs]
                            for f, fg in fgs:
                                for h, gh in ghs:
                                    checked += 1
                                    w = _assoc_failure(f, g, h, compose(fg, h), compose(f, gh))
                                    if w is not None:
                                        return Verdict.unhealthy(w, checked)
        return Verdict.healthy(checked)

    rng = Random(seed)
    cs = list(carriers)
    # sample i composes along carriers i, ..., i + 3 (mod len(cs)); when one
    # of its three hom-sets is empty, its laws hold vacuously
    n = len(cs)
    drawn = [
        all(not len(cs[(r + j) % n]) or has_tvalues(kind, cs[(r + j + 1) % n]) for j in range(3))
        for r in range(n)
    ]
    for i in range(sample_count):
        if not drawn[i % n]:
            continue
        X, Y, Z, W = (cs[(i + j) % n] for j in range(4))
        f, g, h = (random_arrow(kind, rng, A, B) for A, B in ((X, Y), (Y, Z), (Z, W)))
        for w in _unit_law_failures(f, compose):
            return Verdict.unhealthy(w, checked)
        checked += 2
        w = _assoc_failure(f, g, h, compose(compose(f, g), h), compose(f, compose(g, h)))
        if w is not None:
            return Verdict.unhealthy(w, checked)
    return Verdict.healthy(checked)


# ---------------------------------------------------------------------------
# Monad maps


def fmap_value(kind: MonadKind, fn, value):
    """Functor action on one T-value (needed for naturality squares)."""
    kind = MonadKind(kind)
    if kind in (MonadKind.POWERSET, MonadKind.LIFT_POWERSET):
        return frozenset(fn(x) if x is not BOT else BOT for x in value)
    if kind in (MonadKind.SUBDIST, MonadKind.DIST):
        return value.pushforward(fn)
    raise ValueError(f"fmap not implemented for {kind}; use Kleisli-form checks")


def mult_value(kind: MonadKind, value):
    """Monad multiplication on one TT-value."""
    kind = MonadKind(kind)
    if kind == MonadKind.POWERSET:
        out = set()
        for inner in value:
            out |= inner
        return frozenset(out)
    if kind in (MonadKind.SUBDIST, MonadKind.DIST):
        return DistV.mix((q, inner) for inner, q in value.items())
    raise ValueError(f"mult not implemented for {kind}; use Kleisli-form checks")


class ContinuationTarget:
    """The continuation-like monad X -> ((X -> Omega) -> Omega) for Boolean Omega.

    Values are callables on valuations.  Equality at a finite carrier is
    decided by densifying over all valuations into ``probe_values``.
    """

    name = "continuation[2]"
    probe_values = (0, 1)

    def unit(self, carrier, x):
        return lambda f: f(x)

    def fmap(self, fn, value):
        return lambda f: value(lambda x: f(fn(x)))

    def mult(self, value):
        return lambda f: value(lambda xi: xi(f))

    def densify(self, carrier: Sequence, value) -> tuple:
        elems = tuple(carrier)
        out = []
        for vals in itertools.product(self.probe_values, repeat=len(elems)):
            table = dict(zip(elems, vals))
            out.append(value(lambda x, table=table: table[x]))
        return tuple(out)


class KindTarget:
    """A concrete monad used as the target of a monad map."""

    def __init__(self, kind: MonadKind):
        self.kind = MonadKind(kind)
        self.name = str(self.kind)

    def unit(self, carrier, x):
        return unit_value(self.kind, carrier, x)

    def fmap(self, fn, value):
        return fmap_value(self.kind, fn, value)

    def mult(self, value):
        return mult_value(self.kind, value)


@dataclass(frozen=True)
class MonadMapSpec:
    """A natural transformation from a source monad into a target monad.

    ``component(carrier_elements, tvalue)`` gives the component at any
    finite carrier; carriers may have arbitrary hashable elements (the
    multiplication square instantiates components at carriers whose
    elements are themselves monad values).  ``membership``, when present,
    decides that component values land inside the intended subobject of
    the target (e.g. the join-preserving functionals), returning None for
    members and (extra_args, lhs, rhs) for the violated closure law.
    """

    name: str
    source: MonadKind
    target: object
    component: Callable
    membership: Callable = None

    def at(self, carrier, tvalue):
        elems = tuple(carrier.elements) if isinstance(carrier, FinSet) else tuple(carrier)
        return self.component(elems, tvalue)


def _lattice_membership(join: bool):
    """Component values of sigma (sigma') must be join- (meet-) preserving
    functionals; checked densely over Boolean valuations."""

    def check(elems, value):
        from .modalities import STRUCTURE_CLASSES, check_dense  # modalities imports this module

        bits = list(itertools.product((0, 1), repeat=len(elems)))
        table = [value(dict(zip(elems, b)).__getitem__) for b in bits]
        cls = STRUCTURE_CLASSES["cl_join" if join else "cl_meet"]
        found, _ = check_dense(table, 1, cls, all_pairs=True)
        if found is None:
            return None
        law, _, f, g, lhs, rhs = found
        extra = {"f": bits[f]} if law.shape in ("bottom", "top") else {"f": bits[f], "g": bits[g]}
        return extra, lhs, rhs

    return check


def sigma_spec() -> MonadMapSpec:
    """sigma : P -> [2^(-), 2]_join,  sigma(S) = lam f. join_{x in S} f(x)."""

    def component(elems, s):
        return lambda f: max((f(x) for x in s), default=0)

    return MonadMapSpec(
        "sigma", MonadKind.POWERSET, ContinuationTarget(), component, _lattice_membership(True)
    )


def sigma_prime_spec() -> MonadMapSpec:
    """sigma' : P -> [2^(-), 2]_meet,  sigma'(S) = lam f. meet_{x in S} f(x)."""

    def component(elems, s):
        return lambda f: min((f(x) for x in s), default=1)

    return MonadMapSpec(
        "sigma_prime",
        MonadKind.POWERSET,
        ContinuationTarget(),
        component,
        _lattice_membership(False),
    )


def support_map_spec() -> MonadMapSpec:
    """The support monad map D -> P_omega."""

    def component(elems, d):
        return d.support

    return MonadMapSpec("support", MonadKind.DIST, KindTarget(MonadKind.POWERSET), component)


def sigma_inverse(carrier: FinSet, xi) -> frozenset:
    """Inverse of sigma on a finite carrier: {x : xi(dirac_x) = 1}."""
    out = []
    for x in carrier.elements:
        if xi(lambda y, x=x: 1 if y == x else 0) == 1:
            out.append(x)
    return frozenset(out)


def sigma_prime_inverse(carrier: FinSet, xi) -> frozenset:
    """Inverse of sigma' : {x : xi(co-dirac_x) = 0}."""
    out = []
    for x in carrier.elements:
        if xi(lambda y, x=x: 0 if y == x else 1) == 0:
            out.append(x)
    return frozenset(out)


def _dense(spec, carrier, value):
    elems = tuple(carrier.elements) if isinstance(carrier, FinSet) else tuple(carrier)
    if isinstance(spec.target, ContinuationTarget):
        return spec.target.densify(elems, value)
    return value


def _law_map_unit(spec, args):
    carrier, x = args["carrier"], args["x"]
    lhs = _dense(spec, carrier, spec.at(carrier, unit_value(spec.source, carrier, x)))
    rhs = _dense(spec, carrier, spec.target.unit(carrier, x))
    return lhs, rhs


def _law_map_natural(spec, args):
    X, Y, fn_table, t = args["source"], args["target"], args["fn"], args["t"]
    fn = lambda x: fn_table[x]
    lhs = _dense(spec, Y, spec.at(Y, fmap_value(spec.source, fn, t)))
    rhs = _dense(spec, Y, spec.target.fmap(fn, spec.at(X, t)))
    return lhs, rhs


def _law_map_mult(spec, args):
    X, tt = args["carrier"], args["tt"]
    lhs = _dense(spec, X, spec.at(X, mult_value(spec.source, tt)))
    inner = fmap_value(spec.source, lambda t: spec.at(X, t), tt)
    mid_carrier = tuple(_collect_intermediate(spec.source, inner))
    rhs = _dense(spec, X, spec.target.mult(spec.at(mid_carrier, inner)))
    return lhs, rhs


def _collect_intermediate(kind: MonadKind, value):
    if kind in (MonadKind.POWERSET, MonadKind.LIFT_POWERSET):
        return list(value)
    return [x for x, _ in value.items()]


def _law_map_membership(spec, args):
    out = spec.membership(tuple(args["carrier"].elements), spec.at(args["carrier"], args["t"]))
    if out is None:
        return ("member", "member")
    _, lhs, rhs = out
    return lhs, rhs


register_law("map.unit", _law_map_unit)
register_law("map.naturality", _law_map_natural)
register_law("map.mult", _law_map_mult)
register_law("map.membership", _law_map_membership)


def check_monad_map_laws(
    spec: MonadMapSpec,
    carriers: Sequence[FinSet],
    seed: int = 0,
    sample_count: int = 50,
    max_enum: int = 1 << 16,
) -> Verdict:
    """Unit/multiplication squares and naturality for a monad map.

    Enumerable sources sweep every T-value and TT-value over the given
    carriers; distribution sources use seeded samples.
    """
    checked = 0
    enumerable = spec.source in (MonadKind.POWERSET, MonadKind.LIFT_POWERSET)
    rng = Random(seed)

    def tvalues(C: FinSet):
        if enumerable:
            return enumerate_tvalues(spec.source, C, max_enum)
        if not has_tvalues(spec.source, C):
            return []
        return [random_tvalue(spec.source, rng, C) for _ in range(sample_count)]

    for C in carriers:
        for x in C.elements:
            lhs, rhs = _law_map_unit(spec, {"carrier": C, "x": x})
            checked += 1
            if lhs != rhs:
                return Verdict.unhealthy(
                    Witness("map.unit", {"carrier": C, "x": x}, lhs, rhs), checked
                )

    if spec.membership is not None:
        for C in carriers:
            for t in tvalues(C):
                out = spec.membership(tuple(C.elements), spec.at(C, t))
                checked += 1
                if out is not None:
                    extra, lhs, rhs = out
                    args = {"carrier": C, "t": t}
                    args.update(extra)
                    return Verdict.unhealthy(Witness("map.membership", args, lhs, rhs), checked)

    for X in carriers:
        ts = tvalues(X)
        for Y in carriers:
            if len(Y) ** len(X) > 256:
                continue
            for values in itertools.product(Y.elements, repeat=len(X)):
                fn_table = dict(zip(X.elements, values))
                for t in ts:
                    args = {"source": X, "target": Y, "fn": fn_table, "t": t}
                    lhs, rhs = _law_map_natural(spec, args)
                    checked += 1
                    if lhs != rhs:
                        return Verdict.unhealthy(Witness("map.naturality", args, lhs, rhs), checked)

    for X in carriers:
        if enumerable:
            inner_values = enumerate_tvalues(spec.source, X, max_enum)
            if len(inner_values) > 12:
                continue
            tts = []
            for m in range(1 << len(inner_values)):
                tts.append(frozenset(v for i, v in enumerate(inner_values) if (m >> i) & 1))
        elif not has_tvalues(spec.source, X):
            continue
        else:
            tts = []
            for _ in range(sample_count):
                inners = [random_tvalue(spec.source, rng, X) for _ in range(rng.randint(1, 3))]
                kind = MonadKind.DIST if spec.source == MonadKind.DIST else MonadKind.SUBDIST
                coefs = random_tvalue(kind, rng, FinSet("_i", range(len(inners))))
                tts.append(DistV((inner, coefs.weight(i)) for i, inner in enumerate(inners)))
        for tt in tts:
            args = {"carrier": X, "tt": tt}
            lhs, rhs = _law_map_mult(spec, args)
            checked += 1
            if lhs != rhs:
                return Verdict.unhealthy(Witness("map.mult", args, lhs, rhs), checked)
    return Verdict.healthy(checked)
