"""Hypothesis properties of the coefficient form (derandomized: see conftest.py).

A stored coefficient is an int when it is integral and a Fraction with
denominator > 1 otherwise.  Every operation below keeps that form, and gives
the same term dicts as the same operation on polynomials whose coefficients
are all Fractions, integral ones included.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from weilreg import GREVLEX, LEX, Polynomial  # noqa: E402
from weilreg.ideals import buchberger  # noqa: E402
from weilreg.polygcd import poly_gcd, simplify_fraction  # noqa: E402
from weilreg.ratfunc import FractionImages, compose_poly  # noqa: E402

# ints, integral Fractions such as 4/2, and proper fractions
COEFFICIENTS = st.one_of(
    st.integers(-6, 6),
    st.builds(lambda n, d: Fraction(n * d, d), st.integers(-6, 6), st.integers(1, 3)),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)
NONZERO = COEFFICIENTS.filter(bool)


@st.composite
def polynomials(draw, count):
    """count polynomials of one arity (1-2), degree at most 2 in each variable."""
    arity = draw(st.integers(1, 2))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * arity), COEFFICIENTS, max_size=3)
    return [Polynomial(arity, draw(terms)) for _ in range(count)]


def as_fractions(p):
    """p with every coefficient a Fraction, as before the int form."""
    return Polynomial._of(p.arity, {e: Fraction(c) for e, c in p.terms.items()})


def nonzero(p):
    return p if p else Polynomial.one(p.arity)


def images(ps):
    """Fraction images (p_i, 1 + p_i^2) of the variables, one per variable."""
    return FractionImages((p, p * p + 1) for p in ps)


# name -> operation on two polynomials of one arity and a nonzero scalar
OPERATIONS = {
    "add": lambda f, g, c: f + g,
    "sub": lambda f, g, c: f - g,
    "mul": lambda f, g, c: f * g,
    "scale": lambda f, g, c: f.scale(c),
    "scalar_mul": lambda f, g, c: c * f,
    "mul_term": lambda f, g, c: f.mul_term((1,) * f.arity, c),
    "divide": lambda f, g, c: f.divide([nonzero(g), g + c], GREVLEX),
    "primitive": lambda f, g, c: f.primitive(),
    "monic": lambda f, g, c: f.monic(LEX),
    "specialize": lambda f, g, c: f.specialize([c]),
    "substitute": lambda f, g, c: compose_poly(f, FractionImages([g.scale(c)] * f.arity))[0],
    "embed": lambda f, g, c: f.embed(f.arity + 1, list(range(1, f.arity + 1))),
    "restrict": lambda f, g, c: f.embed(f.arity + 1, list(range(f.arity))).restrict(range(f.arity)),
    "poly_gcd": lambda f, g, c: poly_gcd(f, g),
    "simplify_fraction": lambda f, g, c: simplify_fraction(f, nonzero(g)),
    "buchberger": lambda f, g, c: buchberger([f, g.scale(c)], LEX),
    "compose_poly": lambda f, g, c: compose_poly(f, images([g.scale(c)] * f.arity)),
}


def coefficients(value):
    if isinstance(value, Polynomial):
        return list(value.terms.values())
    return [c for v in value for c in coefficients(v)]


def term_dicts(value):
    if isinstance(value, Polynomial):
        return value.terms
    return [term_dicts(v) for v in value]


def in_form(c):
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


@given(polynomials(1))
def test_the_constructor_stores_the_coefficient_form(f):
    (f,) = f
    assert all(map(in_form, coefficients(f)))


@pytest.mark.parametrize("name", OPERATIONS)
@given(fg=polynomials(2), c=NONZERO)
def test_operations_keep_the_coefficient_form(name, fg, c):
    f, g = fg
    operation = OPERATIONS[name]
    result = operation(f, g, c)
    assert all(map(in_form, coefficients(result)))
    assert term_dicts(result) == term_dicts(operation(as_fractions(f), as_fractions(g), Fraction(c)))
