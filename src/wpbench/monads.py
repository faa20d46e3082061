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
"""

from __future__ import annotations

import itertools
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
    construction so equality and hashing see only the support.
    """

    __slots__ = ("_w",)

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

    @classmethod
    def dirac(cls, x) -> "DistV":
        return cls(((x, ONE),))

    @property
    def mass(self) -> Fraction:
        return sum(self._w.values(), ZERO)

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
        """Convex-style combination sum_i c_i * d_i."""
        pairs = []
        for c, d in weighted:
            pairs.extend((x, c * q) for x, q in d.items())
        return DistV(pairs)

    def expect(self, fn) -> Fraction:
        return sum((q * fn(x) for x, q in self._w.items()), ZERO)

    def __eq__(self, other):
        return isinstance(other, DistV) and self._w == other._w

    def __hash__(self):
        return hash(frozenset(self._w.items()))

    def __repr__(self):
        inner = " + ".join(f"{q}*{x!r}" for x, q in self._w.items())
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
    return up_closure(family, universe) == frozenset(frozenset(s) for s in family)


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
        for y in v.support:
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
            for y in d.support:
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
        validated = tuple(_validate_value(kind, target, r) for r in row_list)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "rows", validated)

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
    """The identity arrow of the Kleisli category at the carrier."""
    return KleisliArrow(kind, carrier, carrier, [unit_value(kind, carrier, x) for x in carrier])


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
        verts = []
        for mu in value:
            supp = sorted(mu.support, key=g.source.index)
            for choice in itertools.product(*(g.row(y) for y in supp)):
                verts.append(DistV.mix((mu.weight(y), nu) for y, nu in zip(supp, choice)))
        return dedup_vertices(verts)
    raise ValueError(f"unknown monad kind {kind!r}")


def kleisli_compose(f: KleisliArrow, g: KleisliArrow) -> KleisliArrow:
    """The Kleisli composite g . f : X -> T Z of f : X -> T Y and g : Y -> T Z."""
    if f.kind != g.kind:
        raise ValueError(f"monad tag mismatch: {f.kind} vs {g.kind}")
    if f.target is not g.source and f.target.elements != g.source.elements:
        raise ValueError(
            f"carrier mismatch: f targets {f.target.name!r}, g sources {g.source.name!r}"
        )
    return KleisliArrow(f.kind, f.source, g.target, [_compose_value(f.kind, r, g) for r in f.rows])


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
        out = []
        for m in range(1 << len(subsets)):
            fam = frozenset(s for i, s in enumerate(subsets) if (m >> i) & 1)
            if is_up_closed(fam, target):
                out.append(fam)
        return out
    raise SizeGuardError(f"{kind} values are not enumerable; sample them instead")


def enumerate_arrows(
    kind: MonadKind, source: FinSet, target: FinSet, max_enum: int = 1 << 20
) -> Iterable[KleisliArrow]:
    """All arrows X -> T Y in canonical order (first row varies fastest)."""
    values = enumerate_tvalues(kind, target, max_enum)
    total = len(values) ** len(source)
    if total > max_enum:
        raise SizeGuardError(f"{total} arrows exceed the enumeration guard")
    for rev in itertools.product(values, repeat=len(source)):
        yield KleisliArrow(kind, source, target, rev[::-1])


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
        pairs = []
        for i, x in enumerate(order):
            if kind == MonadKind.DIST and i == len(order) - 1:
                num = remaining
            else:
                num = rng.randint(0, remaining)
            pairs.append((x, Fraction(num, den)))
            remaining -= num
        return DistV(pairs)
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
# Monad laws (Kleisli form: units are two-sided identities, composition
# associative)

_CV_PROBE_CACHE: dict = {}


def cv_probe_tuples(target: FinSet) -> tuple:
    """Deterministic probe valuations for semantic polytope comparison."""
    key = target.elements
    cached = _CV_PROBE_CACHE.get(key)
    if cached is not None:
        return cached
    n = len(key)
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
    _CV_PROBE_CACHE[key] = out
    return out


def cv_values_equal(a, b, target: FinSet) -> bool:
    """Vertex lists are V-representations without hull minimization, so
    polytope equality is decided by mutual min-evaluation on probes."""
    if frozenset(a) == frozenset(b):
        return True
    idx = {y: i for i, y in enumerate(target.elements)}
    for p in cv_probe_tuples(target):
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


def _unit_law_failures(f: KleisliArrow, compose=kleisli_compose):
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


def check_monad_laws(
    kind: MonadKind,
    carriers: Sequence[FinSet],
    samples: Sequence = None,
    seed: int = 0,
    sample_count: int = 100,
    max_enum: int = 1 << 20,
    compose=kleisli_compose,
) -> Verdict:
    """Left/right unit and associativity of the Kleisli composition.

    Enumerable monads are swept exhaustively over the given carriers;
    SUBDIST/DIST/CV_DIST are checked on seeded samples (or the provided
    ones).  ``compose`` is swappable so a deliberately corrupted
    composition can be exercised in tests.
    """
    kind = MonadKind(kind)
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
                "shrink the carriers or raise max_enum"
            )
        for X in carriers:
            for Y in carriers:
                for f in enumerate_arrows(kind, X, Y, max_enum):
                    for w in _unit_law_failures(f, compose):
                        return Verdict.unhealthy(w, checked)
                    checked += 1
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
    if samples is None:
        samples = []
        cs = list(carriers)
        for i in range(sample_count):
            X, Y, Z, W = (cs[(i + j) % len(cs)] for j in range(4))
            samples.append(
                (
                    random_arrow(kind, rng, X, Y),
                    random_arrow(kind, rng, Y, Z),
                    random_arrow(kind, rng, Z, W),
                )
            )
    for entry in samples:
        if isinstance(entry, KleisliArrow):
            triple = (entry, None, None)
        else:
            triple = tuple(entry)
        f, g, h = triple
        for w in _unit_law_failures(f, compose):
            return Verdict.unhealthy(w, checked)
        checked += 1
        if g is None:
            continue
        checked += 1
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

    def equal(self, carrier, a, b) -> bool:
        return self.densify(carrier, a) == self.densify(carrier, b)


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

    def equal(self, carrier, a, b) -> bool:
        return a == b


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
    samples: Sequence = None,
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
        if samples is not None:
            return [t for (c, t) in samples if c is C]
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
        else:
            tts = []
            for _ in range(sample_count):
                inners = [random_tvalue(spec.source, rng, X) for _ in range(rng.randint(1, 3))]
                if spec.source == MonadKind.DIST:
                    coefs = random_tvalue(MonadKind.DIST, rng, FinSet("_i", range(len(inners))))
                    tts.append(DistV((inner, coefs.weight(i)) for i, inner in enumerate(inners)))
                else:
                    coefs = random_tvalue(MonadKind.SUBDIST, rng, FinSet("_i", range(len(inners))))
                    tts.append(DistV((inner, coefs.weight(i)) for i, inner in enumerate(inners)))
        for tt in tts:
            args = {"carrier": X, "tt": tt}
            lhs, rhs = _law_map_mult(spec, args)
            checked += 1
            if lhs != rhs:
                return Verdict.unhealthy(Witness("map.mult", args, lhs, rhs), checked)
    return Verdict.healthy(checked)
