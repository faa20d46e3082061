"""Concrete finite representations of the six branching monads.

Each monad is one row of the table ``MONADS`` (a frozen ``Monad`` per
``MonadKind``, in ``MonadKind`` order), read once per arrow or call.  A
row holds the validator of one T-value (raising a coded ``RowError``),
the unit, the Kleisli extension, the support, the T-values (None where
not enumerable), the sampler, fmap and mult (None where undefined), the
empty T-value, value equality and the JSON codec (``read_json`` checks a
row document's shape; ``from_json`` validates what it reads).  Law suites
(unit/associativity, and the monad-map laws of natural transformations
into continuation-like or concrete monads) return witnessed verdicts.
sigma and sigma' are the comparison maps of the may and must catalog
rows (``modalities.algebra_to_monad_map``), and a map's membership law
is the law check of its structure class.

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

A (sub)distribution (``DistV``) is held as positive integer numerators
over one reduced denominator, so Kleisli composition of SUBDIST, DIST
and CV_DIST mixes ints (``_mix_rows``), and so do the sampled draws, the
mass checks and the rows compiled from distributions
(``IntegerRows.of_distributions``); ``Fraction``s are built only where a
weight leaves the class.

T-values never change, so values already built are shared, not rebuilt.
An extension at unit weight is the row it reads: ``_mix_rows`` of one
row at weight den / den returns that row, which is already reduced, so
the rows of a left-unit composite and the extension of a Dirac vertex
are g's own DistVs, and a POWERSET or LIFT_POWERSET extension of a
singleton is g's row there.  Arrows hold the row tuples they are handed
(``KleisliArrow._of_valid_rows``), a unit arrow is built once per (kind,
carrier), and a ``FinSet`` computes its hash once.

The closed forms of the rational modalities evaluate on integers here
(``IntegerRows`` on a ``Lattice`` of probes): one evaluator serves the
transformers, the synthesis round trip and the vertex-list equality
``cv_values_equal``, and the law checks read certificates off its
coefficients.  Rows map [0, 1]^width into [0, 1], as the closed form of
an algebra does, which is checked once, where they are built.  Rows
compose exactly (``IntegerRows.then``), so a composite of two closed
forms is one row set.  Every equality of two sides at lattice points goes
through ``_differing_point``, by one of two routes.  Rows on a lattice in
the cube raise nowhere: the same rows answer at once, and other rows are
evaluated and compared a coordinate column at a time
(``IntegerRows.table``).  An opaque evaluator, or a point outside the
cube, is compared point by point on integers (``_first_difference``),
which raises where a side does.

The hot paths build tuples from lists (``tuple([...])``), at their final
size.  A tuple grown from a generator, once freed, is kept on CPython's
free list for its final size, and only a full collection empties those
lists; the integer paths allocate too few tracked objects to trigger one.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from random import Random
from typing import Callable, Iterable, Sequence

from .core import FinSet, SizeGuardError, _exact, format_rational, is_rational, parse_rational
from .verdicts import Verdict, Witness, register_law, replay_law

__all__ = [
    "MonadKind",
    "BOT",
    "DistV",
    "KleisliArrow",
    "MonadMapSpec",
    "Monad",
    "MONADS",
    "RowError",
    "unit",
    "kleisli_compose",
    "up_closure",
    "is_up_closed",
    "dedup_vertices",
    "enumerate_arrows",
    "random_arrow",
    "check_monad_laws",
    "check_monad_map_laws",
    "sigma_spec",
    "sigma_prime_spec",
    "support_map_spec",
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

    # a fixed hash, so that a set holding BOT iterates (prints, pickles) in
    # the same order in every process with the same string-hash seed
    def __hash__(self) -> int:
        return 0x42_4F_54

    def __reduce__(self) -> str:
        return "BOT"


BOT = _Bottom()


class DistV:
    """A finite-support rational (sub)distribution.

    The weights are held as positive integer numerators (``_nums``, one per
    support point, in first-appearance order) over one integer denominator
    (``_den``), reduced so that gcd(den, *nums) = 1.  The reduced pair is
    unique, so equality and hashing compare ints, and composition, sampling
    and validation run on them.  ``Fraction``s are built only where a
    weight leaves the class: ``items``, ``items_in``, ``weight``, ``mass``,
    ``expect``, pickling and ``repr``.  The constructor takes exact weights
    (``Fraction``s, ints, or what ``Fraction`` parses; a float raises
    ``TypeError``), drops zero weights and refuses negative ones.  The
    weights never change after construction, so the hash is computed once.
    """

    __slots__ = ("_nums", "_den", "_hash")

    def __init__(self, pairs: Iterable = ()):
        scaled = []
        items = pairs.items() if isinstance(pairs, dict) else pairs
        for x, q in items:
            q = q if isinstance(q, (int, Fraction)) else _exact(q, "weight")
            if q < 0:
                raise ValueError(f"negative weight {Fraction(q)} at {x!r}")
            if q:
                scaled.append((x, q.numerator, q.denominator))
        den = math.lcm(*[b for _, _, b in scaled])
        nums: dict = {}
        for x, a, b in scaled:
            nums[x] = nums.get(x, 0) + a * (den // b)
        d = DistV._over(nums, den)
        self._nums, self._den, self._hash = d._nums, d._den, None

    @classmethod
    def _over(cls, nums: dict, den: int) -> "DistV":
        """A DistV over a dict of positive integer numerators over den,
        divided here by gcd(den, *nums)."""
        r = math.gcd(den, *nums.values())
        if r != 1:
            nums = {x: n // r for x, n in nums.items()}
            den //= r
        d = object.__new__(cls)
        d._nums, d._den, d._hash = nums, den, None
        return d

    @classmethod
    def dirac(cls, x) -> "DistV":
        d = object.__new__(cls)
        d._nums, d._den, d._hash = {x: 1}, 1, None
        return d

    @property
    def mass(self) -> Fraction:
        return Fraction(sum(self._nums.values()), self._den)

    @property
    def support(self) -> frozenset:
        return frozenset(self._nums)

    def weight(self, x) -> Fraction:
        return Fraction(self._nums.get(x, 0), self._den)

    def items(self) -> list:
        den = self._den
        return [(x, Fraction(n, den)) for x, n in self._nums.items()]

    def items_in(self, carrier: FinSet):
        """Support items in carrier order (deterministic display)."""
        nums, den = self._nums, self._den
        return [(x, Fraction(nums[x], den)) for x in carrier.elements if x in nums]

    def pushforward(self, fn) -> "DistV":
        nums: dict = {}
        for x, n in self._nums.items():
            y = fn(x)
            nums[y] = nums.get(y, 0) + n
        return DistV._over(nums, self._den)

    @staticmethod
    def mix(weighted: Iterable) -> "DistV":
        """Convex-style combination sum_i c_i * d_i, one integer mix
        (``_mix_rows``) with the c_i over their common denominator.  Each
        c_i is read as an exact weight (a float raises ``TypeError``); a
        zero c_i adds no point, and when some c_i is negative the products
        go through the constructor's pairs, which refuses a negative weight."""
        terms = [(c if isinstance(c, (int, Fraction)) else _exact(c, "weight"), d) for c, d in weighted]
        if any(c < 0 for c, _ in terms):
            return DistV((x, c * q) for c, d in terms for x, q in d.items())
        terms = [(c, d) for c, d in terms if c]
        den = math.lcm(*[c.denominator for c, _ in terms])
        return _mix_rows([c.numerator * (den // c.denominator) for c, _ in terms], den, [d for _, d in terms])

    def expect(self, fn) -> Fraction:
        return sum((n * fn(x) for x, n in self._nums.items()), ZERO) / self._den

    def __eq__(self, other):
        return isinstance(other, DistV) and self._den == other._den and self._nums == other._nums

    def __reduce__(self):
        # the constructor rebuilds the pair; a cached string hash is
        # salted per process, so it is not carried along
        return DistV, (dict(self.items()),)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self._den, frozenset(self._nums.items())))
        return h

    def __repr__(self):
        inner = " + ".join(f"{q}*{x!r}" for x, q in self.items())
        return f"DistV({inner or '0'})"


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
    return tuple(dict.fromkeys(vertices))


class RowError(ValueError):
    """A value that is not a T-value: a stable code (E_SET, E_ROWS, E_MASS,
    E_UPCLOSED; E_SCHEMA, E_RAT from a JSON reader) and the path of the
    fault inside the row ("" for the row, "[k]" for vertex k, ".y", ...)."""

    def __init__(self, code: str, message: str, path: str = ""):
        super().__init__(message)
        self.code, self.path = code, path


def _known(target: FinSet, labels, path: str = ""):
    """The labels, once each is found an element of target."""
    for y in labels:
        if y not in target:
            raise RowError("E_SET", f"label {y!r} is not in set {target.name!r}", path)
    return labels


@dataclass(frozen=True)
class KleisliArrow:
    """A monad-tagged computation table X -> T Y."""

    kind: MonadKind
    source: FinSet
    target: FinSet
    rows: tuple

    def __init__(self, kind, source: FinSet, target: FinSet, rows):
        kind = MonadKind(kind)
        if isinstance(rows, dict) and rows.keys() != set(source.elements):
            missing, unknown = [x for x in source if x not in rows], [x for x in rows if x not in source]
            raise ValueError(f"arrow rows for carrier {source.name!r}: missing {missing}, unknown labels {unknown}")
        row_list = [rows[x] for x in source.elements] if isinstance(rows, dict) else list(rows)
        if len(row_list) != len(source):
            raise ValueError(
                f"arrow needs {len(source)} rows for carrier {source.name!r}, got {len(row_list)}"
            )
        validate = MONADS[kind].validate
        validated = tuple([validate(target, r) for r in row_list])
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "rows", validated)

    @classmethod
    def _of_valid_rows(cls, kind: MonadKind, source: FinSet, target: FinSet, rows: tuple):
        """An arrow whose rows are T-values over target already validated,
        as enumerated, drawn, parsed and composed ones are."""
        arrow = object.__new__(cls)
        arrow.__dict__.update(kind=kind, source=source, target=target, rows=rows)
        return arrow

    def row(self, x):
        return self.rows[self.source.index(x)]

    def __repr__(self):
        body = ", ".join(f"{x!r}->{r!r}" for x, r in zip(self.source.elements, self.rows))
        return f"KleisliArrow[{self.kind}]({body})"


def unit(kind: MonadKind, carrier: FinSet) -> KleisliArrow:
    """The identity arrow of the Kleisli category at the carrier, built
    once per (kind, carrier): arrows are immutable, so callers share it."""
    return _unit(kind if kind.__class__ is MonadKind else MonadKind(kind), carrier)


@functools.lru_cache(maxsize=256)
def _unit(kind: MonadKind, carrier: FinSet) -> KleisliArrow:
    eta = MONADS[kind].unit
    rows = tuple([eta(carrier, x) for x in carrier])
    return KleisliArrow._of_valid_rows(kind, carrier, carrier, rows)


def _mix_rows(weights: Sequence[int], den: int, rows: Sequence[DistV]) -> DistV:
    """sum_i weights[i] / den * rows[i] as one integer mix over
    lcm(den of each row) * den, its points in first-appearance order.  One
    row at weight den / den is that row itself: it is reduced, and a DistV
    never changes."""
    if len(rows) == 1 and weights[0] == den:
        return rows[0]
    lcm = math.lcm(*[d._den for d in rows])
    nums: dict = {}
    for a, d in zip(weights, rows):
        k = a * (lcm // d._den)
        for z, n in d._nums.items():
            nums[z] = nums.get(z, 0) + k * n
    return DistV._over(nums, lcm * den)


def kleisli_compose(f: KleisliArrow, g: KleisliArrow) -> KleisliArrow:
    """The Kleisli composite g . f : X -> T Z of f : X -> T Y and g : Y -> T Z,
    whose row at x is g extended over f(x) (``Monad.extend``).

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
    extend = MONADS[f.kind].extend
    rows = tuple([extend(r, g) for r in f.rows])
    return KleisliArrow._of_valid_rows(f.kind, f.source, g.target, rows)


def enumerate_arrows(
    kind: MonadKind, source: FinSet, target: FinSet, max_enum: int = 1 << 20
) -> Iterable[KleisliArrow]:
    """All arrows X -> T Y in canonical order (first row varies fastest)."""
    kind = MonadKind(kind)
    tvalues = MONADS[kind].tvalues
    if tvalues is None:
        raise SizeGuardError(f"{kind} values are not enumerable; sample them instead")
    values = tvalues(target, max_enum)
    total = len(values) ** len(source)
    if total > max_enum:
        raise SizeGuardError(f"{total} arrows exceed the enumeration guard")
    for rev in itertools.product(values, repeat=len(source)):
        yield KleisliArrow._of_valid_rows(kind, source, target, rev[::-1])


def random_arrow(
    kind: MonadKind, rng: Random, source: FinSet, target: FinSet, max_den: int = 16
) -> KleisliArrow:
    """A seeded arrow; its rows are drawn valid, so they are not checked again."""
    kind = kind if kind.__class__ is MonadKind else MonadKind(kind)
    sample = MONADS[kind].sample
    rows = tuple([sample(rng, target, max_den) for _ in source])
    return KleisliArrow._of_valid_rows(kind, source, target, rows)


# ---------------------------------------------------------------------------
# Integer rows on a lattice: the one integer evaluator of the closed forms


class IntegerRows:
    """A closed-form transformer compiled to integer coefficient rows.

    Output x is the minimum, over the vertex rows of x, of
    ``(c0 + sum_y c_y * p(y)) / den``: an expectation plus an r-weighted
    divergence offset is one vertex row, a polytope has one per vertex.
    Called on Fractions, as the rule of a ``RationalTransformer``, the rows
    scale them to their common denominator and evaluate them on integers
    (``ints``, with the checks of ``RationalTransformer.apply_values``).
    Rows map [0, 1]^width into [0, 1]; others raise ``ValueError`` where
    they are built (``_take``).  On a lattice in the cube they are
    evaluated at every point at once, a coordinate column at a time
    (``table``), for the bounds of ``synthesis.synth_polytope`` and the
    columnar comparison.  The law checks read a certificate off the
    coefficients themselves (``modalities.LawCheck``).  Rows compose into
    rows of the same kind (``then``), so functoriality compares P(g . f)
    with P(f) o P(g) as two row sets.  Two rows are compared at the points
    of a lattice by ``_differing_point``, for the residual, functoriality
    and both polytope equalities (``synthesis.cv_semantically_equal`` and
    ``cv_values_equal``).  The rows live here, below the catalog, so that
    ``cv_values_equal`` can use them; ``modalities`` compiles the closed
    forms of its modalities to them.
    """

    __slots__ = ("rows", "den", "width")

    def __init__(self, rows: Sequence, width: int):
        # rows: per output, its vertex rows (offset, coefficients), in Fractions
        den = math.lcm(*[q.denominator for verts in rows for c0, cs in verts for q in (c0, *cs)])
        scaled = lambda q: q.numerator * (den // q.denominator)
        out = tuple([tuple([(scaled(c0), tuple([scaled(c) for c in cs])) for c0, cs in verts]) for verts in rows])
        self._take(out, den, width)

    @classmethod
    def _of_ints(cls, rows: tuple, den: int, width: int) -> "IntegerRows":
        """Rows already scaled to integers over den, checked as the
        constructor checks them."""
        out = cls.__new__(cls)
        out._take(rows, den, width)
        return out

    def _take(self, rows: tuple, den: int, width: int) -> None:
        """Hold rows over den that map [0, 1]^width into [0, 1], else raise
        ``ValueError``: each output has a vertex row, each vertex row has
        width coefficients and no entry below 0, and the least vertex sum
        c0 + sum(cs) of an output, its value at the predicate 1, is at most
        den, so the minimum is at most 1 everywhere in the cube."""
        for verts in rows:
            if not verts:
                raise ValueError("an output has no vertex row")
            for c0, cs in verts:
                if len(cs) != width or min((c0, *cs)) < 0:
                    raise ValueError(f"a vertex row needs {width} coefficients and no negative entry")
            least = min([c0 + sum(cs) for c0, cs in verts])
            if least > den:
                raise ValueError(f"rows produce {Fraction(least, den)} outside [0, 1] at the predicate 1")
        self.rows, self.den, self.width = rows, den, width

    @classmethod
    def of_distributions(cls, rows: Sequence, targets: Sequence) -> "IntegerRows":
        """Rows whose coefficients are distributions: per output, its vertex
        rows (offset, mu) with a Fraction offset and mu's weights at
        ``targets``, scaled from mu's numerators with no Fraction per
        weight.  The denominator is the lcm of the offsets' and the mus'
        reduced denominators, as the constructor would find it."""
        den = math.lcm(*[math.lcm(c0.denominator, mu._den) for verts in rows for c0, mu in verts])
        scaled = lambda mu: tuple([mu._nums.get(y, 0) * (den // mu._den) for y in targets])
        out = [
            tuple([(c0.numerator * (den // c0.denominator), scaled(mu)) for c0, mu in verts]) for verts in rows
        ]
        return cls._of_ints(tuple(out), den, len(targets))

    def ints(self, values: Sequence[int], one: int) -> tuple:
        """The outputs at a predicate given over one, as integers over
        one * den, and one * den."""
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
            if not 0 <= best <= top:
                raise ValueError(f"transformer produced {Fraction(best, top)} outside [0, 1]")
            out.append(best)
        return tuple(out), top

    def table(self, lattice: "Lattice") -> list:
        """Per output, its values at every point of the lattice, as integers
        over lattice.one * den, a coordinate column at a time: per vertex
        row, c0 * one plus c_y times column y of the lattice
        (``Lattice.columns``) for each y with c_y != 0, and per output the
        pointwise minimum over its vertex rows.  Valid only on a lattice in
        [0, one]^width (``Lattice.cube_width == width``), where no point
        can raise, so no value is checked."""
        n, one = len(lattice.preds), lattice.one
        return [_column_min([([c0 * one] * n, cs) for c0, cs in verts], lattice.columns) for verts in self.rows]

    def __call__(self, values: Sequence[Fraction]) -> tuple:
        """The outputs at a predicate given in Fractions."""
        one = math.lcm(*[v.denominator for v in values])
        out, top = self.ints([v.numerator * (one // v.denominator) for v in values], one)
        return tuple([Fraction(v, top) for v in out])

    def then(self, outer: "IntegerRows") -> "IntegerRows":
        """The rows of outer after self, over self's inputs: per vertex row
        (c0, cs) of an output of outer, one row per choice of a vertex row
        (d0_y, ds_y) of self for each y with c_y > 0, with the offset
        c0 * den + sum c_y * d0_y and the coefficients sum c_y * ds_y, over
        outer.den * den.  With every c_y >= 0 a weighted sum of minima is
        the minimum over the choices, so the composite equals the two
        stages wherever self's outputs lie in [0, 1], which they do at
        every point of the cube.  Outer must read self's outputs (its width
        is their number), as the carriers of ``semantics._rows_after``
        make it."""
        den, width = self.den, self.width
        out = []
        for verts in outer.rows:
            composite = []
            for c0, cs in verts:
                used = [(c, self.rows[y]) for y, c in enumerate(cs) if c]
                for choice in itertools.product(*[inner for _, inner in used]):
                    off, acc = c0 * den, [0] * width
                    for (c, _), (d0, ds) in zip(used, choice):
                        off += c * d0
                        for z, d in enumerate(ds):
                            acc[z] += c * d
                    composite.append((off, tuple(acc)))
            out.append(tuple(composite))
        return IntegerRows._of_ints(tuple(out), outer.den * den, width)

    def _same_rows(self, other: "IntegerRows") -> bool:
        """Whether two row sets of one width with as many outputs hold, per
        output, the same vertex rows cross-scaled by the other's den, so
        that they give the same outputs at every point."""
        da, db = self.den, other.den
        for va, vb in zip(self.rows, other.rows):
            scaled = {(c0 * db, tuple(c * db for c in cs)) for c0, cs in va}
            if scaled != {(c0 * da, tuple(c * da for c in cs)) for c0, cs in vb}:
                return False
        return True


def _column_min(vertex_rows: Sequence, columns: Sequence) -> list:
    """Per point, the least over the vertex rows (start, cs) of start plus
    sum_y cs[y] * columns[y] there: start holds one integer per point, and
    each columns[y] holds coordinate y of every point."""
    best = None
    for acc, cs in vertex_rows:
        for c, col in zip(cs, columns):
            if c:
                acc = [a + c * v for a, v in zip(acc, col)]
        best = acc if best is None else [u if u < v else v for u, v in zip(best, acc)]
    return best


def _first_difference(left: Callable, right: Callable, points: Sequence, one: int) -> int | None:
    """The index of the first point over one where two sides differ, or
    None.  A side maps (point, one) to (outputs, their denominator); values
    are compared cross-scaled, left first, so errors raise where a loop
    would."""
    for k, p in enumerate(points):
        a, da = left(p, one)
        b, db = right(p, one)
        if len(a) != len(b) or any(u * db != v * da for u, v in zip(a, b)):
            return k
    return None


def _first_column_difference(a: IntegerRows, b: IntegerRows, lattice: Lattice) -> int | None:
    """``_first_difference`` of two row sets of the lattice's width with as
    many outputs, on a lattice in the cube, read off whole columns
    (``IntegerRows.table``): per output, its values cross-scaled by the
    other's den, and the least index where some output differs."""
    da, db = a.den, b.den
    first = None
    for u, v in zip(a.table(lattice), b.table(lattice)):
        if da != db:
            u, v = [x * db for x in u], [y * da for y in v]
        if u != v:
            k = next(k for k, (x, y) in enumerate(zip(u, v)) if x != y)
            first = k if first is None or k < first else first
    return first


def _differing_point(a, b, lattice: Lattice) -> int | None:
    """The index of the first predicate of the lattice where two sides give
    different outputs, or None.  A side is ``IntegerRows`` or an evaluator
    (point, one) -> (outputs, their denominator).  Two row sets of one
    shape on a lattice in [0, one]^width (``Lattice.cube_width``), where
    rows raise nowhere, answer None with no point evaluated when they hold
    the same rows (``IntegerRows._same_rows``), else are compared a column
    at a time (``_first_column_difference``).  Every other pair (an
    evaluator, a point outside the cube, rows of two shapes) is compared
    point by point by ``_first_difference``, which raises where a side
    does."""
    if isinstance(a, IntegerRows) and isinstance(b, IntegerRows) and lattice.cube_width == a.width == b.width:
        if len(a.rows) == len(b.rows):
            return None if a._same_rows(b) else _first_column_difference(a, b, lattice)
    ints = lambda side: side.ints if isinstance(side, IntegerRows) else side
    return _first_difference(ints(a), ints(b), lattice.preds, lattice.one)


def vertex_rows(tvalues: Sequence, targets: Sequence) -> IntegerRows:
    """The integer rows of min-evaluation over vertex lists: per T-value,
    one vertex row (no offset) per distribution, over ``targets``.  A
    vertex with weight outside ``targets`` raises ``ValueError``."""
    known = frozenset(targets)
    if not all(known.issuperset(mu._nums) for t in tvalues for mu in t):
        raise ValueError("a vertex puts weight outside the carrier")
    return IntegerRows.of_distributions([[(ZERO, mu) for mu in t] for t in tvalues], targets)


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
    def cube_width(self) -> int | None:
        """The n with every predicate in [0, one]^n, or None when there is
        none: a predicate is outside [0, one], two lengths differ, or there
        is no predicate."""
        widths = {len(p) for p in self.preds}
        if len(widths) == 1 and all(0 <= v <= self.one for p in self.preds for v in p):
            return widths.pop()
        return None

    @functools.cached_property
    def columns(self) -> tuple:
        """The predicates a coordinate at a time: entry y holds coordinate
        y of every predicate, in order (``IntegerRows.table``)."""
        return tuple(zip(*self.preds))

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
    equality.  Equal vertex sets pass at once; otherwise both lists are
    compared as integer rows on the probes' lattice
    (``_differing_point``).  A list with no vertex, with support outside
    ``target`` or with a value outside [0, 1] at a probe raises
    ``ValueError``."""
    if frozenset(a) == frozenset(b):
        return True
    ra, rb = (vertex_rows((t,), target.elements) for t in (a, b))
    return _differing_point(ra, rb, _cv_probes(target.elements)[1]) is None


# ---------------------------------------------------------------------------
# The monad table: one row per kind


@dataclass(frozen=True)
class Monad:
    """One monad, as the functions every kind-generic routine reads off it:
    ``validate(target, value)``, ``unit(target, x)``, ``extend(value, g)``
    (g extended over one T-value: the row of g . f where f's row is value),
    ``support(value)``, ``sample(rng, target, max_den)``,
    ``to_json(value, target)``, ``read_json(raw, target)``,
    ``equal(a, b, target)`` (vertex lists compare as polytopes), and, None
    where undefined, ``tvalues(target, max_enum)`` (every T-value, in
    canonical order), ``fmap(fn, value)``, ``mult(value)`` and ``empty``
    (the least T-value over the empty carrier)."""

    kind: MonadKind
    validate: Callable
    unit: Callable
    extend: Callable
    support: Callable
    sample: Callable
    to_json: Callable
    read_json: Callable
    tvalues: Callable | None = None
    fmap: Callable | None = None
    mult: Callable | None = None
    empty: object = None
    equal: Callable = lambda a, b, target: a == b

    def has_tvalues(self, target: FinSet) -> bool:
        """Whether T(target) is nonempty; only T(empty) can be empty."""
        return len(target) > 0 or self.empty is not None

    def from_json(self, raw, target: FinSet):
        """The T-value a JSON row document denotes, validated once."""
        return self.validate(target, self.read_json(raw, target))


def _validate_lifted(target: FinSet, value) -> frozenset:
    v = frozenset(value)
    _known(target, [y for y in v if y is not BOT])
    if not v:
        raise RowError("E_ROWS", "lifted row must be nonempty")
    return v


def _validate_weights(target: FinSet, value, exact: bool = False) -> DistV:
    v = value if isinstance(value, DistV) else DistV(value)
    _known(target, v._nums)
    mass = sum(v._nums.values())
    if mass > v._den:
        raise RowError("E_MASS", f"mass {v.mass} exceeds one")
    if exact and mass != v._den:
        raise RowError("E_MASS", f"distribution mass must equal one, got {v.mass}")
    return v


def _validate_family(target: FinSet, value) -> frozenset:
    # members are checked as they come, so a reader may hand them over lazily
    fam = frozenset(_known(target, frozenset(s)) for s in value)
    if not is_up_closed(fam, target):
        raise RowError("E_UPCLOSED", "family is not up-closed")
    return fam


def _validate_polytope(target: FinSet, value) -> tuple:
    # vertices are checked as they come, so a reader may hand them over lazily
    checked = []
    for k, d in enumerate(value):
        d = d if isinstance(d, DistV) else DistV(d)
        _known(target, d._nums, f"[{k}]")
        if sum(d._nums.values()) != d._den:
            raise RowError("E_MASS", f"vertex mass must equal one, got {d.mass}", f"[{k}]")
        checked.append(d)
    if not checked:
        raise RowError("E_ROWS", "polytope row must be a nonempty list of vertices")
    return dedup_vertices(checked)


def _extend_set(value, g: KleisliArrow) -> frozenset:
    if len(value) == 1:
        # g extended over one point is its row there
        (y,) = value
        return frozenset((BOT,)) if y is BOT else g.row(y)
    out = set()
    for y in value:
        out |= frozenset((BOT,)) if y is BOT else g.row(y)
    return frozenset(out)


def _extend_family(value: frozenset, g: KleisliArrow) -> frozenset:
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


def _extend_polytope(value: tuple, g: KleisliArrow) -> tuple:
    # each vertex is a mix of g's vertices by the weights of one of the
    # value's, in g's source order; equal vertices are one reduced DistV,
    # and the first of them is kept
    verts: dict = {}
    for mu in value:
        supp = list(mu._nums) if len(mu._nums) == 1 else sorted(mu._nums, key=g.source.index)
        weights = [mu._nums[y] for y in supp]
        for choice in itertools.product(*[g.row(y) for y in supp]):
            verts.setdefault(_mix_rows(weights, mu._den, choice))
    return tuple(verts)


def _subsets(target: FinSet, max_enum: int = 1 << 20) -> list:
    n = len(target)
    if (1 << n) > max_enum:
        raise SizeGuardError(f"2^{n} subsets exceed guard")
    return [frozenset(x for i, x in enumerate(target.elements) if (m >> i) & 1) for m in range(1 << n)]


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


def _up_closed_families(target: FinSet, max_enum: int = 1 << 20) -> list:
    n = len(target)
    if n > 4 or (1 << (1 << n)) > max_enum:
        raise SizeGuardError("up-closed family space exceeds guard")
    subsets = _subsets(target)
    return [frozenset(s for i, s in enumerate(subsets) if (m >> i) & 1) for m in _up_closed_masks(n)]


def _sample_lifted(rng: Random, target: FinSet, max_den: int = 16) -> frozenset:
    ext = [*target.elements, BOT]
    pick = [x for x in ext if rng.random() < 0.5]
    return frozenset(pick or [rng.choice(ext)])


# the denominators a sampled (sub)distribution draws from, ascending
_SAMPLE_DENS = (2, 3, 4, 5, 6, 8, 12, 16)


def _sample_weights(rng: Random, target: FinSet, max_den: int = 16, exact: bool = False) -> DistV:
    den = rng.choice(_SAMPLE_DENS[: bisect.bisect_right(_SAMPLE_DENS, max_den)])
    remaining = den
    elems = list(target.elements)
    rng.shuffle(elems)
    # a distribution's last point takes the rest of the mass
    last = len(elems) - 1 if exact else -1
    nums = {}
    for i, x in enumerate(elems):
        num = remaining if i == last else rng.randint(0, remaining)
        if num:
            nums[x] = num
        remaining -= num
    return DistV._over(nums, den)


def _ordered(labels, target: FinSet) -> list:
    return sorted(labels, key=target.index)


def _weights_to_json(d: DistV, target: FinSet) -> dict:
    return {y: format_rational(q) for y, q in d.items_in(target)}


# JSON readers check a row document's shape (RowError E_ROWS, E_SCHEMA, or
# E_RAT for a weight) and leave the rest to the validator.  So that the first
# fault in document order is reported, a label that keys a weight or makes a
# generator is looked up at once, and members and vertices are handed over
# lazily.


def read_weight(raw, path: str = "") -> Fraction:
    """A rational in [0, 1] written as a JSON string "p/q" or an integer; a
    JSON true or false is no number, though Python counts a bool as an int."""
    if isinstance(raw, bool) or not is_rational(raw):
        raise RowError("E_RAT", f"{raw!r} is not an integer or a rational p/q with q > 0", path)
    q = parse_rational(raw)
    if not (0 <= q <= 1):
        raise RowError("E_RAT", f"value {q} outside [0, 1]", path)
    return q


def _json_list(raw, what: str, path: str = "") -> list:
    if not isinstance(raw, list):
        raise RowError("E_SCHEMA", f"{what} must be a list", path)
    return raw


def _only_keys(raw: dict, keys: tuple) -> None:
    extra = sorted(str(k) for k in raw if k not in keys)
    if extra:
        raise RowError("E_SCHEMA", f"unknown keys {extra}; a row object has only {list(keys)}")


def _read_set(raw, target: FinSet) -> frozenset:
    if not isinstance(raw, list):
        raise RowError("E_ROWS", "powerset row must be a list of labels")
    return frozenset(map(str, raw))


def _read_lifted(raw, target: FinSet) -> frozenset:
    if isinstance(raw, list):
        return frozenset(map(str, raw))
    if not isinstance(raw, dict):
        raise RowError("E_ROWS", "lifted row must be a list or {elements, bottom}")
    _only_keys(raw, ("elements", "bottom"))
    row = frozenset(map(str, _json_list(raw.get("elements", []), "lifted row elements", ".elements")))
    bottom = raw.get("bottom", False)
    if not isinstance(bottom, bool):
        raise RowError("E_SCHEMA", "bottom must be true or false", ".bottom")
    return row | {BOT} if bottom else row


def _read_weights(raw, target: FinSet) -> DistV:
    if not isinstance(raw, dict):
        raise RowError("E_ROWS", "distribution row must map labels to rationals")
    pairs = []
    for y, q in raw.items():
        _known(target, (y,))
        pairs.append((y, read_weight(q, f".{y}")))
    return DistV(pairs)


def _read_family(raw, target: FinSet):
    if isinstance(raw, list):
        return (frozenset(map(str, _json_list(s, "a family member"))) for s in raw)
    if not (isinstance(raw, dict) and "generators" in raw):
        raise RowError("E_ROWS", "up-closed row must be a list of lists or {generators}")
    _only_keys(raw, ("generators",))
    gens = [
        frozenset(_known(target, [str(x) for x in _json_list(s, "a generator", ".generators")], ".generators"))
        for s in _json_list(raw["generators"], "generators", ".generators")
    ]
    return up_closure(gens, target)


def _read_vertex(raw, target: FinSet, path: str) -> DistV:
    if not isinstance(raw, dict):
        raise RowError("E_ROWS", "each vertex maps labels to rationals", path)
    pairs = [(y, read_weight(q, f"{path}.{y}")) for y, q in raw.items()]
    _known(target, [y for y, _ in pairs], path)
    return DistV(pairs)


def _read_polytope(raw, target: FinSet):
    if not isinstance(raw, list):
        raise RowError("E_ROWS", "polytope row must be a nonempty list of vertices")
    return (_read_vertex(v, target, f"[{k}]") for k, v in enumerate(raw))


_POWERSET = Monad(
    MonadKind.POWERSET, validate=lambda target, s: frozenset(_known(target, frozenset(s))),
    unit=lambda target, x: frozenset((x,)), extend=_extend_set,
    support=lambda s: frozenset(y for y in s if y is not BOT),
    sample=lambda rng, target, max_den=16: frozenset(x for x in target.elements if rng.random() < 0.5),
    to_json=_ordered, read_json=_read_set, tvalues=_subsets,
    fmap=lambda fn, s: frozenset(fn(x) if x is not BOT else BOT for x in s),
    # an outer bottom diverges; an inner one stays in the union
    mult=lambda ss: frozenset().union(*[{BOT} if inner is BOT else inner for inner in ss]),
    empty=frozenset(),
)
_SUBDIST = Monad(
    MonadKind.SUBDIST, validate=_validate_weights, unit=lambda target, x: DistV.dirac(x),
    extend=lambda d, g: _mix_rows(list(d._nums.values()), d._den, [g.row(y) for y in d._nums]),
    support=lambda d: d.support, sample=_sample_weights,
    to_json=_weights_to_json, read_json=_read_weights, fmap=lambda fn, d: d.pushforward(fn),
    mult=lambda dd: DistV.mix((q, inner) for inner, q in dd.items()), empty=DistV(),
)
MONADS = {
    row.kind: row
    for row in (
        _POWERSET,
        dataclasses.replace(
            _POWERSET, kind=MonadKind.LIFT_POWERSET, validate=_validate_lifted, sample=_sample_lifted,
            # the nonempty subsets of target + {bottom}
            tvalues=lambda target, max_enum=1 << 20: _subsets(
                FinSet(target.name, (*target.elements, BOT)), max_enum
            )[1:],
            read_json=_read_lifted, empty=frozenset((BOT,)),
            to_json=lambda s, target: {"elements": _ordered(_POWERSET.support(s), target), "bottom": BOT in s},
        ),
        _SUBDIST,
        dataclasses.replace(
            _SUBDIST, kind=MonadKind.DIST, validate=functools.partial(_validate_weights, exact=True),
            sample=functools.partial(_sample_weights, exact=True), empty=None,
        ),
        Monad(
            MonadKind.UP_POWERSET, validate=_validate_family,
            unit=lambda target, x: up_closure([frozenset((x,))], target), extend=_extend_family,
            support=lambda fam: frozenset().union(*fam),
            sample=lambda rng, target, max_den=16: up_closure(
                [s for s in _subsets(target) if rng.random() < 0.3], target
            ),
            to_json=lambda fam, target: [
                _ordered(s, target) for s in sorted(fam, key=lambda s: (len(s), sorted(map(target.index, s))))
            ],
            read_json=_read_family, tvalues=_up_closed_families, empty=frozenset(),
        ),
        Monad(
            MonadKind.CV_DIST, validate=_validate_polytope, unit=lambda target, x: (DistV.dirac(x),),
            extend=_extend_polytope, support=lambda vs: frozenset().union(*(mu.support for mu in vs)),
            sample=lambda rng, target, max_den=16: dedup_vertices(
                _sample_weights(rng, target, max_den, True) for _ in range(rng.randint(1, 3))
            ),
            to_json=lambda vs, target: [_weights_to_json(mu, target) for mu in vs],
            read_json=_read_polytope, equal=cv_values_equal,
        ),
    )
}


def _assoc_failure(f, g, h, left: KleisliArrow, right: KleisliArrow):
    """The associativity witness at the first state where (f;g);h and
    f;(g;h) differ, or None."""
    equal = MONADS[f.kind].equal
    for x in f.source.elements:
        if not equal(left.row(x), right.row(x), left.target):
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
    equal = MONADS[f.kind].equal
    sides = (
        ("monad.left_unit", lambda: compose(unit(f.kind, f.source), f)),
        ("monad.right_unit", lambda: compose(f, unit(f.kind, f.target))),
    )
    for law, side in sides:
        composed = side()
        for x in f.source.elements:
            if not equal(composed.row(x), f.row(x), f.target):
                yield Witness(law, {"f": f, "x": x}, composed.row(x), f.row(x))
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
    monad = MONADS[kind]
    arrows = [[list(enumerate_arrows(kind, Y, Z, max_enum)) for Z in carriers] for Y in carriers]
    # h# on the T-values met so far, one memo per arrow h
    lifted = [[[{} for _ in hs] for hs in row] for row in arrows]

    def extend(memo, h, value):
        out = memo.get(value)
        if out is None:
            out = memo[value] = monad.extend(value, h)
        return out

    for i, Y in enumerate(carriers):
        ts = monad.tvalues(Y, max_enum)
        for j in range(len(carriers)):
            for g in arrows[i][j]:
                us = [monad.extend(t, g) for t in ts]
                for k, W in enumerate(carriers):
                    for h, memo in zip(arrows[j][k], lifted[j][k]):
                        rows = tuple([extend(memo, h, r) for r in g.rows])
                        gh = KleisliArrow._of_valid_rows(kind, Y, W, rows)
                        for t, u in zip(ts, us):
                            if extend(memo, h, u) != monad.extend(t, gh):
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
    monad = MONADS[kind]
    per_value = compose is None
    if compose is None:
        compose = kleisli_compose
    checked = 0
    if monad.tvalues is not None:
        # hom-set sizes by carrier position: two carriers may share a name
        sizes = [len(monad.tvalues(Y, max_enum)) for Y in carriers]
        counts = [[size ** len(X) for size in sizes] for X in carriers]
        triple_total = sum(
            counts[x][y] * counts[y][z] * counts[z][w]
            for x, y, z, w in itertools.product(range(len(carriers)), repeat=4)
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
        all(not len(cs[(r + j) % n]) or monad.has_tvalues(cs[(r + j + 1) % n]) for j in range(3))
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

    @staticmethod
    def functional(carrier: Sequence, value) -> Callable:
        """The value as a function of valuation tuples aligned with the
        carrier's elements."""
        elems = tuple(carrier)
        return lambda vals: value(dict(zip(elems, vals)).__getitem__)

    def densify(self, carrier: Sequence, value) -> tuple:
        elems = tuple(carrier)
        F = self.functional(elems, value)
        return tuple([F(vals) for vals in itertools.product(self.probe_values, repeat=len(elems))])


class KindTarget:
    """A concrete monad used as the target of a monad map: its row's unit,
    fmap and mult."""

    def __init__(self, kind: MonadKind):
        self.kind = MonadKind(kind)
        self.name = str(self.kind)
        monad = MONADS[self.kind]
        self.unit, self.fmap, self.mult = monad.unit, monad.fmap, monad.mult


@dataclass(frozen=True)
class MonadMapSpec:
    """A natural transformation from a source monad into a target monad.

    ``component(carrier_elements, tvalue)`` gives the component at any
    finite carrier; carriers may have arbitrary hashable elements (the
    multiplication square instantiates components at carriers whose
    elements are themselves monad values).  ``membership``, when present,
    is the law check of the structure class the component values must
    land in (``modalities.algebra_to_monad_map`` takes it from the
    modality's class): ``membership(carrier_elements, value)`` is None for
    a morphism of the class, else the ``class.law`` witness of the first
    law it violates.  The class's values are functionals, so a component
    value is read as one through ``ContinuationTarget.functional``.
    """

    name: str
    source: MonadKind
    target: object
    component: Callable
    membership: Callable = None

    def at(self, carrier, tvalue):
        elems = tuple(carrier.elements) if isinstance(carrier, FinSet) else tuple(carrier)
        return self.component(elems, tvalue)


def _comparison_map(theorem: str, name: str) -> MonadMapSpec:
    """The comparison map of a catalog row (``algebra_to_monad_map``), under
    ``name``."""
    from .modalities import INSTANCES, algebra_to_monad_map  # modalities imports this module

    return dataclasses.replace(algebra_to_monad_map(INSTANCES[theorem]), name=name)


def sigma_spec() -> MonadMapSpec:
    """sigma : P -> [2^(-), 2]_join, the comparison map of the may row
    (diamond): sigma(S) = lam f. join_{x in S} f(x)."""
    return _comparison_map("may", "sigma")


def sigma_prime_spec() -> MonadMapSpec:
    """sigma' : P -> [2^(-), 2]_meet, the comparison map of the must row
    (box): sigma'(S) = lam f. meet_{x in S} f(x)."""
    return _comparison_map("must", "sigma_prime")


def support_map_spec() -> MonadMapSpec:
    """The support monad map D -> P_omega."""

    def component(elems, d):
        return d.support

    return MonadMapSpec("support", MonadKind.DIST, KindTarget(MonadKind.POWERSET), component)


def _dense(spec, carrier, value):
    elems = tuple(carrier.elements) if isinstance(carrier, FinSet) else tuple(carrier)
    if isinstance(spec.target, ContinuationTarget):
        return spec.target.densify(elems, value)
    return value


def _law_map_unit(spec, args):
    carrier, x = args["carrier"], args["x"]
    lhs = _dense(spec, carrier, spec.at(carrier, MONADS[spec.source].unit(carrier, x)))
    rhs = _dense(spec, carrier, spec.target.unit(carrier, x))
    return lhs, rhs


def _law_map_natural(spec, args):
    X, Y, fn_table, t = args["source"], args["target"], args["fn"], args["t"]
    fn = lambda x: fn_table[x]
    lhs = _dense(spec, Y, spec.at(Y, MONADS[spec.source].fmap(fn, t)))
    rhs = _dense(spec, Y, spec.target.fmap(fn, spec.at(X, t)))
    return lhs, rhs


def _law_map_mult(spec, args):
    X, tt = args["carrier"], args["tt"]
    monad = MONADS[spec.source]
    lhs = _dense(spec, X, spec.at(X, monad.mult(tt)))
    inner = monad.fmap(lambda t: spec.at(X, t), tt)
    rhs = _dense(spec, X, spec.target.mult(spec.at(tuple(monad.support(inner)), inner)))
    return lhs, rhs


def _law_map_membership(spec, args):
    # the class law the witness names, at its arguments, through the
    # ``class.law`` evaluator on the component value at (carrier, t)
    carrier, t = args["carrier"], args["t"]
    value = ContinuationTarget.functional(carrier.elements, spec.at(carrier, t))
    law_args = {k: v for k, v in args.items() if k not in ("carrier", "t")}
    return replay_law(value, "class.law", law_args)


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
    carriers, a TT-value being a T-value over the T-values (where there
    are at most 12); distribution sources use seeded samples.  Naturality
    is checked where |Y|^|X| <= 256.  A healthy verdict's note names each
    law skipped by these bounds, with its carrier and size.  A source
    whose fmap or mult is not implemented raises ``ValueError``.
    """
    checked = 0
    skipped = []
    monad = MONADS[spec.source]
    if monad.fmap is None or monad.mult is None:
        raise ValueError(f"fmap and mult are not implemented for {spec.source}; use Kleisli-form checks")
    rng = Random(seed)

    def tvalues(C: FinSet):
        if monad.tvalues is not None:
            return monad.tvalues(C, max_enum)
        if not monad.has_tvalues(C):
            return []
        return [monad.sample(rng, C) for _ in range(sample_count)]

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
                found = spec.membership(tuple(C.elements), spec.at(C, t))
                checked += 1
                if found is not None:
                    args = {"carrier": C, "t": t, **found.args}
                    return Verdict.unhealthy(Witness("map.membership", args, found.lhs, found.rhs), checked)

    for X in carriers:
        ts = tvalues(X)
        for Y in carriers:
            if len(Y) ** len(X) > 256:
                skipped.append(f"map.naturality at {X.name} -> {Y.name} ({len(Y)}^{len(X)} maps > 256)")
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
        if monad.tvalues is not None:
            inner_values = monad.tvalues(X, max_enum)
            if len(inner_values) > 12:
                skipped.append(f"map.mult at {X.name} ({len(inner_values)} T-values > 12)")
                continue
            tts = monad.tvalues(FinSet("tx", inner_values), max_enum)
        elif not monad.has_tvalues(X):
            continue
        else:
            tts = []
            for _ in range(sample_count):
                inners = [monad.sample(rng, X) for _ in range(rng.randint(1, 3))]
                coefs = monad.sample(rng, FinSet("_i", range(len(inners))))
                tts.append(DistV((inner, coefs.weight(i)) for i, inner in enumerate(inners)))
        for tt in tts:
            args = {"carrier": X, "tt": tt}
            lhs, rhs = _law_map_mult(spec, args)
            checked += 1
            if lhs != rhs:
                return Verdict.unhealthy(Witness("map.mult", args, lhs, rhs), checked)
    return Verdict.healthy(checked, "skipped " + ", ".join(skipped) if skipped else "")
