"""Finite carriers, exact rationals, predicates, and enumeration primitives.

Everything downstream (monads, transformers, healthiness checks, sweeps)
is built on the types here.  All enumeration follows one canonical order:
little-endian over the element order of the carrier, so that two runs of
any enumeration produce identical streams.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

__all__ = [
    "FinSet",
    "Predicate",
    "SizeGuardError",
    "DEFAULT_ENUM_GUARD",
    "parse_rational",
    "format_rational",
    "subset_mask",
    "mask_to_set",
    "enumerate_subsets",
    "enumerate_predicates",
    "enumerate_transformer_tables",
    "count_transformers",
    "predicate_index",
    "subset_index",
]

# Refuse to stream transformer spaces larger than this unless overridden.
DEFAULT_ENUM_GUARD = 2 ** 28

ZERO = Fraction(0)
ONE = Fraction(1)


class SizeGuardError(Exception):
    """An enumeration was refused because its size exceeds the guard."""


@dataclass(frozen=True)
class FinSet:
    """A named finite carrier with a fixed element order.

    The element order is load-bearing: it defines subset masks, predicate
    indices and every enumeration stream.  Elements are usually strings
    but any hashable value is accepted (law checkers build carriers whose
    elements are themselves monad values).
    """

    name: str
    elements: tuple

    def __init__(self, name: str, elements: Iterable):
        elems = tuple(elements)
        if len(set(elems)) != len(elems):
            raise ValueError(f"duplicate elements in carrier {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(elems)})

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._index

    def index(self, x) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise KeyError(f"{x!r} is not an element of carrier {self.name!r}") from None

    def __repr__(self) -> str:
        return f"FinSet({self.name!r}, {list(self.elements)!r})"


def parse_rational(text) -> Fraction:
    """Parse "p/q" or "k" into an exact Fraction; q must be positive."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    s = str(text).strip()
    if "/" in s:
        num, _, den = s.partition("/")
        d = int(den)
        if d == 0:
            raise ValueError("zero denominator")
        if d < 0:
            raise ValueError("denominator must be positive")
        return Fraction(int(num), d)
    return Fraction(int(s))


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Predicate:
    """A total map from a carrier into the truth values.

    Boolean predicates store 0/1 ints; rational ones store Fractions in
    [0, 1].  Values are aligned with ``domain.elements``.
    """

    domain: FinSet
    values: tuple

    def __init__(self, domain: FinSet, values: Sequence):
        vals = []
        for v in values:
            if isinstance(v, Fraction):
                if not (ZERO <= v <= ONE):
                    raise ValueError(f"predicate value {v} outside [0, 1]")
                vals.append(v)
            elif isinstance(v, (bool, int)):
                if v not in (0, 1):
                    raise ValueError(f"Boolean predicate value must be 0 or 1, got {v!r}")
                vals.append(int(v))
            else:
                raise TypeError(f"predicate value must be 0/1 or Fraction, got {v!r}")
        if len(vals) != len(domain):
            raise ValueError(
                f"predicate over {domain.name!r} needs {len(domain)} values, got {len(vals)}"
            )
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "values", tuple(vals))

    @property
    def is_boolean(self) -> bool:
        return all(not isinstance(v, Fraction) for v in self.values)

    def __call__(self, x):
        return self.values[self.domain.index(x)]

    @property
    def mask(self) -> int:
        """Bitmask of the truth set (Boolean predicates only)."""
        m = 0
        for i, v in enumerate(self.values):
            if isinstance(v, Fraction):
                if v == ONE:
                    m |= 1 << i
                elif v != ZERO:
                    raise ValueError("mask undefined for a properly rational predicate")
            elif v:
                m |= 1 << i
        return m

    @classmethod
    def from_mask(cls, domain: FinSet, mask: int) -> "Predicate":
        return cls(domain, tuple((mask >> i) & 1 for i in range(len(domain))))

    @classmethod
    def dirac(cls, domain: FinSet, x) -> "Predicate":
        """The rational point predicate: 1 at x, 0 elsewhere."""
        i = domain.index(x)
        return cls(domain, tuple(ONE if j == i else ZERO for j in range(len(domain))))

    @classmethod
    def constant(cls, domain: FinSet, value) -> "Predicate":
        v = value if isinstance(value, Fraction) else Fraction(value)
        return cls(domain, (v,) * len(domain))

    def rational_values(self) -> tuple:
        return tuple(v if isinstance(v, Fraction) else Fraction(v) for v in self.values)


def subset_mask(domain: FinSet, members: Iterable) -> int:
    m = 0
    for x in members:
        m |= 1 << domain.index(x)
    return m


def mask_to_set(domain: FinSet, mask: int) -> frozenset:
    return frozenset(x for i, x in enumerate(domain.elements) if (mask >> i) & 1)


def enumerate_subsets(domain: FinSet) -> list:
    """All 2^|X| subsets in canonical (bit-counting) order."""
    n = len(domain)
    return [mask_to_set(domain, m) for m in range(1 << n)]


def subset_index(domain: FinSet, subset: Iterable) -> int:
    return subset_mask(domain, subset)


def enumerate_predicates(domain: FinSet, carrier: str = "boolean") -> list:
    """All 2^|Y| Boolean predicates in canonical order.

    Rational carriers are rejected: [0,1]^Y is infinite and is probed,
    never enumerated.
    """
    if carrier != "boolean":
        raise SizeGuardError("only Boolean predicate spaces are enumerable")
    n = len(domain)
    return [Predicate.from_mask(domain, m) for m in range(1 << n)]


def predicate_index(pred: Predicate) -> int:
    return pred.mask


def count_transformers(source: FinSet, target: FinSet, max_enum: int | None = None) -> int:
    """Number of dense Boolean transformers 2^source -> 2^target; with
    ``max_enum``, refuse a space larger than it with SizeGuardError."""
    total = (1 << len(target)) ** (1 << len(source))
    if max_enum is not None and total > max_enum:
        raise SizeGuardError(
            f"{total} transformers exceed the enumeration guard ({max_enum}); "
            "raise max_enum (--max-enum) to force"
        )
    return total


def enumerate_transformer_tables(
    source: FinSet, target: FinSet, max_enum: int = DEFAULT_ENUM_GUARD
) -> Iterator[tuple]:
    """Stream every dense Boolean transformer 2^source -> 2^target.

    Yields tables: tuples of length 2^|source| whose k-th entry is the
    output mask (over target) for the k-th predicate on source.  Stream
    index i encodes the table little-endian: table[k] = digit k of i in
    base 2^|target|.
    """
    count_transformers(source, target, max_enum)
    # product varies its last factor fastest, so reversed tuples walk the
    # stream in canonical (little-endian) index order.
    for rev in itertools.product(range(1 << len(target)), repeat=1 << len(source)):
        yield rev[::-1]
