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


@given(polynomials(1))
def test_integer_primitive_content_is_an_int_exactly_when_the_polynomial_is_integral(f):
    (f,) = f
    content, terms = f.integer_primitive()
    assert in_form(content) and content >= 0 and (content == 0) == f.is_zero()
    assert (type(content) is int) == all(type(c) is int for c in f.terms.values())
    assert Polynomial(f.arity, terms).scale(content) == f


@given(fgh=polynomials(3))
def test_divide_on_integral_inputs_is_exact_and_never_a_float(fgh):
    # the kernel's scale is a Fraction: int content / int scale would be a float
    f, g, h = (p.scale(12) for p in fgh)
    x = Polynomial.variable(f.arity, 0)
    dividend = f * (x ** 5 + g) + h
    for divisors, integral in (([x ** 5 + g, x ** 6 + h], True), ([nonzero(g), 2 * x ** 5 + h], False)):
        quotients, remainder = dividend.divide(divisors, GREVLEX)
        out = coefficients([*quotients, remainder])
        assert all(map(in_form, out))
        if integral:  # every lead coefficient is 1
            assert all(type(c) is int for c in out)
        assert sum(map(Polynomial.__mul__, quotients, divisors), remainder) == dividend
    [q], r = Polynomial(1, {(1,): 3}).divide([Polynomial(1, {(1,): 2})])
    assert q.terms == {(0,): Fraction(3, 2)} and type(q.terms[(0,)]) is Fraction and r.is_zero()


def test_primitive_takes_its_sign_from_the_lead_of_the_order_it_is_given():
    # 2*x - 4*y^2: the lex lead is 2*x, the grevlex lead -4*y^2
    p = Polynomial(2, {(1, 0): 2, (0, 2): -4})
    assert p.primitive(LEX) == Polynomial(2, {(1, 0): 1, (0, 2): -2})
    assert p.primitive(GREVLEX) == Polynomial(2, {(1, 0): -1, (0, 2): 2})


@pytest.mark.parametrize("order", [LEX, GREVLEX], ids=["lex", "grevlex"])
@given(polynomials(1))
def test_primitive_is_the_integer_part_with_a_positive_lead(order, f):
    (f,) = f
    p, integral = f.primitive(order), Polynomial(f.arity, f.integer_primitive()[1])
    assert p in (integral, -integral)
    assert f.is_zero() or p.leading_term(order)[1] > 0
