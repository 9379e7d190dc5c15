import random
from fractions import Fraction

import pytest

from weilreg import GREVLEX, LEX, Polynomial, parse_polynomial, parse_fraction
from weilreg.errors import ArityMismatch
from weilreg.orders import block_order
from weilreg.poly import format_polynomial
from weilreg.ideals import reduce_full
from weilreg.polygcd import divide_exact, poly_gcd, simplify_fraction, squarefree_part
from weilreg.ratfunc import FractionImages, compose_poly

from oracles import random_polynomial


def P(text, names=("x", "y", "z")):
    return parse_polynomial(text, names)


def test_construction_merges_and_drops_zero_terms():
    p = Polynomial(2, [((1, 0), 2), ((1, 0), -2), ((0, 1), 3)])
    assert p.terms == {(0, 1): 3} and type(p.terms[(0, 1)]) is int
    q = Polynomial(2, [((0, 1), Fraction(6, 4)), ((0, 1), Fraction(1, 2))])
    assert q.terms == {(0, 1): 2} and type(q.terms[(0, 1)]) is int


def test_scalars_are_lowest_terms_with_positive_denominator():
    c = Fraction(4, -6)
    assert c.numerator == -2 and c.denominator == 3
    assert Fraction(0, 5) == Fraction(0, 1)


def test_arithmetic_ring_laws():
    a, b, c = P("x^2-y"), P("y*z+1"), P("x-z")
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - a).is_zero()
    assert a * Polynomial.one(3) == a


def test_arity_mismatch_raises():
    with pytest.raises(ArityMismatch):
        P("x") + parse_polynomial("u", ["u", "v"])


def test_lex_and_grevlex_leading_terms():
    p = P("x*y^2 + x^2 + y^3")
    assert p.leading_term(LEX)[0] == (2, 0, 0)  # x^2 beats x*y^2 in lex
    assert p.leading_term(GREVLEX)[0] == (1, 2, 0)  # degree 3, x*y^2 > y^3


def test_block_order_eliminates_designated_variables():
    order = block_order({0})
    p = P("x + y^5")
    assert p.leading_term(order)[0] == (1, 0, 0)


def test_evaluate():
    p = P("x^2*y - 3*z + 1/2")
    assert p.evaluate((2, 3, Fraction(1, 2))) == 12 - Fraction(3, 2) + Fraction(1, 2)


def test_substitute_polynomials():
    p = P("x^2 + y", names=("x", "y"))
    img = [parse_polynomial("u+1", ["u"]), parse_polynomial("u^2", ["u"])]
    assert compose_poly(p, FractionImages(img)) == (parse_polynomial("(u+1)^2 + u^2", ["u"]), Polynomial.one(1))


def test_coefficients_wrt_collects_by_power():
    # u^2 + u*s collected by s: [u^2, u]   (s^0, s^1 descending by monomial)
    p = parse_polynomial("u^2 + u*s", ["u", "s"])
    coeffs = [c for _, c in p.coefficients_wrt([1])]
    assert coeffs == [parse_polynomial("u", ["u", "s"]), parse_polynomial("u^2", ["u", "s"])] or coeffs == [
        parse_polynomial("u^2", ["u", "s"]),
        parse_polynomial("u", ["u", "s"]),
    ]
    # descending: s^1 before s^0
    heads = [h for h, _ in p.coefficients_wrt([1])]
    assert heads == [(0, 1), (0, 0)]


def test_coefficients_wrt_trivial_and_three_powers():
    p = parse_polynomial("x", ["x"])
    assert [c for _, c in p.coefficients_wrt([0])] == [Polynomial.one(1)]
    q = parse_polynomial("s^2*t + s*u + v", ["s", "t", "u", "v"])
    assert [c for _, c in q.coefficients_wrt([0])] == [
        parse_polynomial("t", ["s", "t", "u", "v"]),
        parse_polynomial("u", ["s", "t", "u", "v"]),
        parse_polynomial("v", ["s", "t", "u", "v"]),
    ]


def test_format_polynomial_canonical():
    assert format_polynomial(P("x*y - 1"), ["x", "y", "z"]) == "x*y-1"
    assert format_polynomial(P("-x + 3/2*y^2"), ["x", "y", "z"]) == "3/2*y^2-x"
    assert format_polynomial(Polynomial.zero(1), ["x"]) == "0"


def test_parse_fraction_preserves_the_written_representative():
    num, den = parse_fraction("(x^2-1)/(x-1)", ["x"])
    assert num == parse_polynomial("x^2-1", ["x"])
    assert den == parse_polynomial("x-1", ["x"])
    cancelled = simplify_fraction(num, den)
    assert cancelled == (parse_polynomial("x+1", ["x"]), Polynomial.one(1))


def test_divide_exact():
    f = P("x^2 - y^2")
    g = P("x - y")
    assert divide_exact(f, g) == P("x + y")
    assert divide_exact(P("x^2 + 1"), P("x + 1")) is None


def reference_division(f, divisors, order):
    """The division loop the kernel replaced, verbatim: rescans the whole
    remainder for its leading term at every step."""
    quotients = [Polynomial.zero(f.arity) for _ in divisors]
    leads = [(g.leading_term(order) if not g.is_zero() else None) for g in divisors]
    remainder = Polynomial.zero(f.arity)
    p = f
    while not p.is_zero():
        exps, coeff = p.leading_term(order)
        for i, lead in enumerate(leads):
            if lead is None:
                continue
            lexps, lcoeff = lead
            diff = tuple(a - b for a, b in zip(exps, lexps))
            if all(d >= 0 for d in diff):
                c = Fraction(coeff) / lcoeff
                quotients[i] = quotients[i] + Polynomial(f.arity, {diff: c})
                p = p - divisors[i].mul_term(diff, c)
                break
        else:
            head = Polynomial(f.arity, {exps: coeff})
            remainder = remainder + head
            p = p - head
    return quotients, remainder


def _division_instances(count, seed=20251017):
    rng = random.Random(seed)
    for _ in range(count):
        arity = rng.randrange(1, 4)
        order = rng.choice([LEX, GREVLEX, block_order({0}), block_order(range(arity - 1))])
        f = random_polynomial(rng, arity, 6, max_terms=8)
        divisors = [random_polynomial(rng, arity, 3) for _ in range(rng.randrange(1, 4))]
        if rng.random() < 0.3:
            divisors.insert(rng.randrange(len(divisors) + 1), Polynomial.zero(arity))
        yield f, divisors, order


def test_division_kernel_matches_the_reference_loop_and_its_contract():
    for f, divisors, order in _division_instances(300):
        quotients, remainder = f.divide(divisors, order)
        assert (quotients, remainder) == reference_division(f, divisors, order)
        total = remainder
        for q, g in zip(quotients, divisors):
            total = total + q * g
        assert total == f
        leads = [g.leading_term(order)[0] for g in divisors if not g.is_zero()]
        for exps in remainder.terms:
            assert not any(all(a >= b for a, b in zip(exps, lead)) for lead in leads)
        for q, g in zip(quotients, divisors):
            if g.is_zero():
                assert q.is_zero()
        assert reduce_full(f, divisors, order) == remainder


def test_divide_exact_on_products_and_non_multiples():
    rng = random.Random(20251018)
    for _ in range(200):
        arity = rng.randrange(1, 4)
        f = random_polynomial(rng, arity, 3)
        g = random_polynomial(rng, arity, 3)
        if g.is_zero():
            with pytest.raises(ZeroDivisionError):
                divide_exact(f, g)
            continue
        assert divide_exact(f * g, g) == f
        if not g.is_constant():
            # g divides f*g but not 1, so not f*g + 1
            assert divide_exact(f * g + 1, g) is None
    with pytest.raises(ZeroDivisionError):
        divide_exact(P("x"), Polynomial.zero(3))
    assert divide_exact(Polynomial.zero(3), P("x - y")) == Polynomial.zero(3)


def test_poly_gcd_basic():
    f = P("x^2 - y^2") * P("x + z")
    g = P("x + y") * P("x + z")
    assert poly_gcd(f, g) == (P("x+y") * P("x+z"), P("x - y"), Polynomial.one(3))
    assert poly_gcd(P("x"), P("y")) == (Polynomial.one(3), P("x"), P("y"))
    assert poly_gcd(Polynomial.zero(3), P("2*x")) == (P("x"), Polynomial.zero(3), P("2"))
    assert poly_gcd(Polynomial.zero(3), Polynomial.zero(3)) == (Polynomial.zero(3),) * 3


def test_simplify_fraction_cancels_and_normalises():
    num, den = simplify_fraction(P("x^2*y"), P("x*y^2"))
    assert num == P("x") and den == P("y")
    num, den = simplify_fraction(P("x"), P("2*y"))
    assert den == P("y") and num == P("1/2*x")


def test_squarefree_part_degree():
    f = parse_polynomial("(x-1)^2*(x-2)", ["x"])
    # the number of distinct roots of a polynomial in one variable
    assert squarefree_part(f).degree_in(0) == 2
    assert squarefree_part(parse_polynomial("x^3", ["x"])).degree_in(0) == 1
    assert squarefree_part(parse_polynomial("5", ["x"])).degree_in(0) == 0
