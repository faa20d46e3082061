import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpbench.core import (
    FinSet,
    SizeGuardError,
    count_transformers,
    enumerate_transformer_tables,
    format_rational,
    is_rational,
    parse_rational,
)


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



def _reads(text) -> bool:
    """Whether text is read as parse_rational has always read it: an int, a
    Fraction, or a string "p/q" or "k" whose parts int() reads, q > 0."""
    if isinstance(text, (int, Fraction)):
        return True
    num, slash, den = str(text).strip().partition("/")
    try:
        int(num)
        return not slash or int(den) > 0
    except ValueError:
        return False


@settings(max_examples=400, derandomize=True)
@given(
    st.one_of(
        st.text(alphabet="0123456789+-_/ \t\n.e\u0663x", max_size=8),
        st.integers(-3, 3),
        st.booleans(),
        st.none(),
        st.floats(allow_nan=False),
        st.lists(st.integers(), max_size=2),
    )
)
def test_is_rational_decides_what_parse_rational_reads(text):
    assert is_rational(text) == _reads(text)
    if _reads(text):
        num, _, den = str(text).strip().partition("/")
        expected = Fraction(text) if isinstance(text, (int, Fraction)) else Fraction(int(num), int(den or 1))
        assert parse_rational(text) == expected
    else:
        with pytest.raises(ValueError):
            parse_rational(text)


def test_is_rational_keeps_the_digit_limit():
    # int() refuses a literal longer than the interpreter's digit limit
    limit = sys.get_int_max_str_digits() or 5000
    for text in ("1" * limit, "1" * (limit + 1), "1/" + "1" * (limit + 1)):
        assert is_rational(text) == _reads(text)
