"""Hypothesis properties of `Polynomial.specialize` (derandomized: see conftest.py).

Substitution of constants is checked against `oracles.substitute`, the
term-by-term substitution loop that does not use the image table."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from weilreg import Polynomial  # noqa: E402

from oracles import substitute  # noqa: E402


@st.composite
def polynomial_and_point(draw):
    """A polynomial of arity 1-4 and a rational point for 0..arity leading variables."""
    arity = draw(st.integers(1, 4))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * arity), st.integers(-9, 9), max_size=6)
    k = draw(st.integers(0, arity))
    values = draw(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7), min_size=k, max_size=k))
    return Polynomial(arity, draw(terms)), values


@given(polynomial_and_point())
def test_specialize_is_substitution_of_constants_for_the_leading_variables(case):
    p, values = case
    rest = p.arity - len(values)
    images = [Polynomial.constant(rest, v) for v in values]
    images += [Polynomial.variable(rest, j) for j in range(rest)]
    assert p.specialize(values) == substitute(p, images)


@given(polynomial_and_point())
def test_specializing_every_variable_is_evaluation(case):
    p, values = case
    tail = [Fraction(j + 2, 3) for j in range(p.arity - len(values))]
    assert p.specialize(values + tail) == Polynomial.constant(0, p.evaluate(values + tail))
