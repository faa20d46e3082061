import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpbench.core import (
    FinSet,
    Predicate,
    SizeGuardError,
    count_transformers,
    enumerate_predicates,
    enumerate_subsets,
    enumerate_transformer_tables,
    format_rational,
    parse_rational,
    predicate_index,
    subset_index,
)


def bit_enumeration_oracle(elements):
    """Independent subset oracle: walk all bit tuples little-endian."""
    out = []
    for bits in itertools.product((0, 1), repeat=len(elements)):
        out.append(frozenset(e for e, b in zip(elements, bits) if b))
    # product varies the LAST coordinate fastest; canonical order varies the
    # first element fastest, so rebuild by index arithmetic instead.
    return [
        frozenset(e for j, e in enumerate(elements) if (m >> j) & 1)
        for m in range(1 << len(elements))
    ]


def test_enumerate_subsets_empty():
    assert enumerate_subsets(FinSet("E", ())) == [frozenset()]


def test_enumerate_subsets_singleton():
    assert enumerate_subsets(FinSet("S", ("a",))) == [frozenset(), frozenset({"a"})]


def test_enumerate_subsets_pair_matches_oracle():
    dom = FinSet("D", ("a", "b"))
    expected = bit_enumeration_oracle(("a", "b"))
    assert enumerate_subsets(dom) == expected
    assert enumerate_subsets(dom) == [
        frozenset(),
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"a", "b"}),
    ]


def test_enumeration_is_deterministic():
    dom = FinSet("D", ("p", "q", "r"))
    assert enumerate_subsets(dom) == enumerate_subsets(dom)
    assert enumerate_subsets(dom) == bit_enumeration_oracle(("p", "q", "r"))


def test_subset_index_roundtrip():
    dom = FinSet("D", ("a", "b", "c"))
    for i, s in enumerate(enumerate_subsets(dom)):
        assert subset_index(dom, s) == i


def test_enumerate_predicates_counts():
    assert len(enumerate_predicates(FinSet("Y", ("y",)))) == 2
    assert len(enumerate_predicates(FinSet("E", ()))) == 1
    assert len(enumerate_predicates(FinSet("Y", ("a", "b", "c")))) == 8


def test_enumerate_predicates_rejects_rational():
    with pytest.raises(SizeGuardError):
        enumerate_predicates(FinSet("Y", ("y",)), carrier="rational")


def test_predicate_index_roundtrip():
    dom = FinSet("Y", ("a", "b"))
    for i, p in enumerate(enumerate_predicates(dom)):
        assert predicate_index(p) == i


def test_transformer_counts():
    one = FinSet("A", ("a",))
    assert count_transformers(one, one) == 4
    two = FinSet("B", ("a", "b"))
    assert count_transformers(two, two) == 256
    three = FinSet("C", ("a", "b", "c"))
    assert count_transformers(three, three) == 16_777_216


def test_transformer_stream_order_and_size_guard():
    one = FinSet("A", ("a",))
    tables = list(enumerate_transformer_tables(one, one))
    assert tables == [(0, 0), (1, 0), (0, 1), (1, 1)]
    with pytest.raises(SizeGuardError):
        next(enumerate_transformer_tables(FinSet("C", tuple("abc")), FinSet("C", tuple("abc")), max_enum=100))


def test_finset_rejects_duplicates():
    with pytest.raises(ValueError):
        FinSet("D", ("a", "a"))


def test_predicate_validation():
    dom = FinSet("Y", ("a", "b"))
    with pytest.raises(ValueError):
        Predicate(dom, (Fraction(3, 2), Fraction(0)))
    with pytest.raises(ValueError):
        Predicate(dom, (2, 0))
    with pytest.raises(ValueError):
        Predicate(dom, (1,))


def test_predicate_mask_and_dirac():
    dom = FinSet("Y", ("a", "b", "c"))
    p = Predicate.from_mask(dom, 0b101)
    assert p.values == (1, 0, 1)
    assert p.mask == 0b101
    d = Predicate.dirac(dom, "b")
    assert d.values == (0, 1, 0)
    assert d("b") == 1 and d("a") == 0


rationals = st.fractions(min_value=0, max_value=1, max_denominator=64)


@given(rationals, rationals)
def test_rational_arithmetic_exact(a, b):
    # lowest terms and exactness: (a/b + c/d) reduced, no floats anywhere
    s = a + b
    assert isinstance(s, Fraction)
    assert s == Fraction(a.numerator * b.denominator + b.numerator * a.denominator,
                         a.denominator * b.denominator)
    import math

    assert math.gcd(s.numerator, s.denominator) == 1
    assert s.denominator > 0


@given(st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=40))
def test_parse_format_rational_roundtrip(num, den):
    q = Fraction(num, den)
    if 0 <= q <= 1:
        assert parse_rational(format_rational(q)) == q


def test_parse_rational_errors():
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("1/-2")


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_stream_index_identity(nx, ny):
    src = FinSet("Y", tuple(f"y{i}" for i in range(ny)))
    tgt = FinSet("X", tuple(f"x{i}" for i in range(nx)))
    total = count_transformers(src, tgt)
    if total > 4096:
        return
    base = 1 << nx
    for i, t in enumerate(enumerate_transformer_tables(src, tgt)):
        assert t == tuple(i // base**k % base for k in range(1 << ny))
