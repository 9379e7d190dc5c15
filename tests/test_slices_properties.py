"""Hypothesis properties of the slice decision "is p/den a polynomial on the
host" (derandomized: see conftest.py), against the division test it replaced."""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from weilreg.slices import _polynomial_form  # noqa: E402
from weilreg.varieties import variety  # noqa: E402

import oracles  # noqa: E402

HOSTS = {
    "line": variety(["a", "b", "c"], "b - 1"),
    "torus": variety(["a", "b", "c"], "b*c - 1"),
}
# denominators that are units on the host, then ones that vanish somewhere on it
UNITS = {"line": ["b+1", "b"], "torus": ["b", "c^2"]}
NON_UNITS = {"line": ["c^2", "a+1", "a*b"], "torus": ["b+1", "a+1", "a*b"]}
POINTS = {
    "line": [(Fraction(a), Fraction(1), Fraction(c)) for a in range(-2, 3) for c in range(-2, 3)],
    "torus": [(Fraction(a), Fraction(b), Fraction(1, b)) for a in range(-2, 3) for b in (-2, -1, 1, 2, 3)],
}


@st.composite
def cases(draw):
    host = draw(st.sampled_from(sorted(HOSTS)))
    den = draw(st.sampled_from(UNITS[host] + NON_UNITS[host]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    X = HOSTS[host]
    d = X.poly(den)
    p = oracles.random_polynomial(rng, 3, 3)
    if draw(st.booleans()):  # a numerator in I + (den)
        p = p * d + oracles.random_polynomial(rng, 3, 2) * X.ideal.gens[0]
    return host, den, p


@settings(max_examples=80)
@given(cases())
def test_localisation_reader_certifies_and_agrees_with_the_division_oracle(case):
    host, den, p = case
    X = HOSTS[host]
    d = X.poly(den)
    q = _polynomial_form(X, p, d)
    old = oracles.polynomial_form(X, p, d)
    if old is not None:
        assert q == old
    if den in UNITS[host]:
        assert q is not None
    if q is None:
        assert not X.ideal.plus([d]).contains(p)
        return
    assert X.ideal.contains(q * d - p)
    assert X.ideal.normal_form(q) == q
    for point in POINTS[host]:
        assert X.point_on(point)
        if d.evaluate(point):
            assert q.evaluate(point) == p.evaluate(point) / d.evaluate(point)
