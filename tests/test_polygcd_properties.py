"""Hypothesis properties of `poly_gcd` (derandomized: see conftest.py)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from weilreg import GREVLEX, Polynomial  # noqa: E402
from weilreg.polygcd import poly_gcd  # noqa: E402


@st.composite
def polynomials(draw, count):
    """count polynomials of one arity (1-3), degree at most 3 in each variable."""
    arity = draw(st.integers(1, 3))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * arity), st.integers(-9, 9), max_size=4)
    return [Polynomial(arity, draw(terms)) for _ in range(count)]


def divides(h, f):
    return f.divide((h,), GREVLEX)[1].is_zero()


@given(polynomials(2))
def test_gcd_divides_both_arguments(fg):
    f, g = fg
    h, cf, cg = poly_gcd(f, g)
    if not h.is_zero():
        assert divides(h, f) and divides(h, g)
        assert h * cf == f and h * cg == g


@given(polynomials(3))
def test_a_common_factor_multiplies_the_gcd(fgk):
    f, g, k = fgk
    assert poly_gcd(f * k, g * k)[0] == poly_gcd(f, g)[0] * k.primitive()


@given(polynomials(2))
def test_gcd_is_symmetric(fg):
    f, g = fg
    h, cf, cg = poly_gcd(f, g)
    assert poly_gcd(g, f) == (h, cg, cf)


@given(polynomials(2))
def test_gcd_is_normalised(fg):
    h = poly_gcd(*fg)[0]
    assert h == h.primitive()
    assert h.is_zero() or h.leading_term(GREVLEX)[1] > 0
