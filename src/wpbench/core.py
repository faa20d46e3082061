"""Finite carriers, exact rationals, and the Boolean transformer stream.

Everything downstream (monads, transformers, healthiness checks, sweeps)
is built on the types here.  A predicate has no type of its own: a Boolean
one is a mask over the carrier's element order, a rational one a tuple of
Fractions aligned with it.  All enumeration follows one canonical order:
little-endian over the element order of the carrier, so that two runs of
any enumeration produce identical streams.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

__all__ = [
    "FinSet",
    "SizeGuardError",
    "DEFAULT_ENUM_GUARD",
    "parse_rational",
    "is_rational",
    "format_rational",
    "enumerate_transformer_tables",
    "count_transformers",
]

# The default size guard (``--max-enum``): larger enumerations and random
# probe counts are refused unless it is raised.
DEFAULT_ENUM_GUARD = 2 ** 28


class SizeGuardError(Exception):
    """An enumeration was refused because its size exceeds the guard."""


@dataclass(frozen=True)
class FinSet:
    """A named finite carrier with a fixed element order.

    The element order is load-bearing: it defines subset masks, predicate
    indices and every enumeration stream.  Elements are usually strings
    but any hashable value is accepted (law checkers build carriers whose
    elements are themselves monad values).  The hash is computed once, at
    construction; pickling rebuilds through the constructor, since a
    string's hash is salted per process.
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
        object.__setattr__(self, "_hash", hash((name, elems)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return FinSet, (self.name, self.elements)

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


def _exact(v, what: str = "probe value") -> Fraction:
    # Fraction(0.1) is the binary 3602879701896397/2^55, not 1/10; a bool
    # is an int to Python, but no number here
    if isinstance(v, (float, bool)):
        raise TypeError(f"{what} {v!r} is a {type(v).__name__}, not an exact rational")
    return Fraction(v)


def _int_literal(text: str) -> bool:
    """Whether int() reads text: a sign, then decimal digits with single
    underscores between them, within the interpreter's digit limit."""
    text = text.strip()
    parts = (text[1:] if text[:1] in "+-" else text).split("_")
    limit = sys.get_int_max_str_digits()
    return all(p.isdecimal() for p in parts) and not (limit and sum(map(len, parts)) > limit)


def is_rational(text) -> bool:
    """Whether ``parse_rational`` reads text: an int that is not a bool, a
    Fraction, or "k" or "p/q" with q > 0 (decided without raising)."""
    if isinstance(text, bool):
        return False
    if isinstance(text, (int, Fraction)):
        return True
    num, slash, den = str(text).strip().partition("/")
    return _int_literal(num) and (not slash or _int_literal(den) and int(den) > 0)


def parse_rational(text) -> Fraction:
    """Parse "p/q" or "k" into an exact Fraction; q must be positive."""
    if not is_rational(text):
        raise ValueError(f"{text!r} is not an integer k or a rational p/q with q > 0")
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    num, _, den = str(text).strip().partition("/")
    return Fraction(int(num), int(den or 1))


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


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
