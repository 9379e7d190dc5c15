"""Hypothesis properties of `poly_gcd` and its exact division (derandomized:
see conftest.py)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from weilreg import GREVLEX, Polynomial  # noqa: E402
from weilreg.polygcd import _quotient, poly_gcd  # noqa: E402

from oracles import quotient  # noqa: E402


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


@st.composite
def division_cases(draw):
    """(f, g) integer term dicts, g = c*h with c in (1, 2, 3, -2) and a lead
    of either sign: f is a*g, or a*h (a multiple of g over Q, and over Z
    only when c divides a's content), perturbed by one term or not."""
    arity = draw(st.integers(1, 3))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * arity), st.integers(-9, 9).filter(bool),
                            min_size=1, max_size=4)
    h = draw(terms)
    content = draw(st.sampled_from((1, 2, 3, -2)))
    g = {e: content * c for e, c in h.items()}
    a = Polynomial(arity, draw(terms))
    f = dict((a * Polynomial(arity, draw(st.sampled_from((g, h))))).terms)
    if draw(st.booleans()):
        e = draw(st.tuples(*[st.integers(0, 6)] * arity))
        f[e] = f.get(e, 0) + draw(st.integers(-3, 3).filter(bool))
        f = {e: c for e, c in f.items() if c}
    return f, g


@given(division_cases())
def test_exact_division_matches_the_verbatim_division_loop(fg):
    f, g = fg
    if f:
        assert _quotient(f, g) == quotient(f, g)
