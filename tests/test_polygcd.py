"""Cross-checks of the GCDHEU kernel in `polygcd`.

The reference is the primitive pseudo-remainder gcd that `polygcd` used
before GCDHEU, kept here verbatim except that its exact divisions run
through the verbatim division loop `oracles.divide_exact`, so that none of
its steps uses the division kernel that `polygcd` now runs on.  sympy, an
independent implementation, is a second oracle where it is installed.
"""

import random
import time
from fractions import Fraction

import pytest

from weilreg import GREVLEX, Polynomial
from weilreg import polygcd
from weilreg.errors import BudgetExceeded
from weilreg.ideals import WorkLedger
from weilreg.polygcd import (
    derivative,
    divide_exact,
    poly_gcd,
    simplify_fraction,
    squarefree_part,
)

from oracles import divide_exact as oracle_divide_exact, random_polynomial


# -- the pseudo-remainder reference -------------------------------------------------


def _univariate_parts(f, var):
    deg = f.degree_in(var)
    parts = [dict() for _ in range(deg + 1)]
    for exps, coeff in f.terms.items():
        e = exps[var]
        rest = list(exps)
        rest[var] = 0
        parts[e][tuple(rest)] = coeff
    return [Polynomial(f.arity, p) for p in parts]


def _content_wrt(f, var):
    acc = Polynomial.zero(f.arity)
    for part in _univariate_parts(f, var):
        if not part.is_zero():
            acc = prs_gcd(acc, part)
    return acc


def _pseudo_rem(a, b, var):
    db = b.degree_in(var)
    lb = _univariate_parts(b, var)[db]
    r = a
    xv = Polynomial.variable(a.arity, var)
    while not r.is_zero() and r.degree_in(var) >= db:
        dr = r.degree_in(var)
        lr = _univariate_parts(r, var)[dr]
        r = r * lb - b * lr * xv ** (dr - db)
    return r


def prs_gcd(f, g):
    if f.is_zero() and g.is_zero():
        return Polynomial.zero(f.arity)
    if f.is_zero():
        return g.primitive()
    if g.is_zero():
        return f.primitive()
    fvars = f.variables_present()
    gvars = g.variables_present()
    if not fvars or not gvars:
        return Polynomial.one(f.arity)
    common = fvars | gvars
    var = max(common)
    if f.degree_in(var) == 0 or g.degree_in(var) == 0:
        a, b = (f, g) if g.degree_in(var) else (g, f)
        return prs_gcd(a, _content_wrt(b, var))
    cf = _content_wrt(f, var)
    cg = _content_wrt(g, var)
    cont = prs_gcd(cf, cg)
    a = oracle_divide_exact(f, cf)
    b = oracle_divide_exact(g, cg)
    while not b.is_zero():
        r = _pseudo_rem(a, b, var)
        if not r.is_zero():
            rc = _content_wrt(r, var)
            r = oracle_divide_exact(r, rc)
        a, b = b, r
    return (cont * a).primitive()


# -- inputs ---------------------------------------------------------------------------


def gcd_pairs(seed, count=60, max_terms=None):
    """Seeded (f, g) pairs at arity 1-4: unrelated pairs, and (a*c, b*c) with
    a common factor c, with rational coefficients.  Each factor draws up to
    max_terms terms (default 2 + 2**arity)."""
    rng = random.Random(seed)
    for i in range(count):
        arity = 1 + i % 4
        terms = 2 + 2**arity if max_terms is None else max_terms
        # random_polynomial drops the drawn terms of degree above 3: most of them at arity 4
        a, b, c = (random_polynomial(rng, arity, 3, max_terms=terms, coeff_bound=9) for _ in range(3))
        yield a, b
        scale = Fraction(rng.randrange(1, 20), rng.randrange(1, 20))
        yield (a * c).scale(scale), b * c


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gcd_equals_the_pseudo_remainder_reference(seed):
    for f, g in gcd_pairs(seed):
        assert poly_gcd(f, g)[0] == prs_gcd(f, g), (f, g)


def test_fallback_gives_the_same_gcd(monkeypatch):
    monkeypatch.setattr(polygcd, "HEU_TRIES", 0)
    calls = []
    fallback = polygcd._lcm_gcd
    monkeypatch.setattr(polygcd, "_lcm_gcd", lambda f, g: calls.append(1) or fallback(f, g))
    for f, g in gcd_pairs(4, count=20):
        assert poly_gcd(f, g)[0] == prs_gcd(f, g), (f, g)
    assert calls  # the heuristic made no try, so the fallback ran


def _large_pair():
    """Pair 5 of the seed-1 stream with up to 68 terms per factor: arity 3,
    75 and 52 terms, with a common cubic factor."""
    f, g = list(gcd_pairs(1, count=3, max_terms=68))[5]
    assert (f.arity, len(f.terms), len(g.terms)) == (3, 75, 52)
    return f, g


def test_fallback_gives_the_heuristic_gcd_of_a_large_pair_quickly(monkeypatch):
    f, g = _large_pair()
    expected = poly_gcd(f, g)
    monkeypatch.setattr(polygcd, "HEU_TRIES", 0)
    start = time.perf_counter()
    assert poly_gcd(f, g) == expected
    assert time.perf_counter() - start < 1


def test_fallback_is_bounded_by_the_step_budget(monkeypatch):
    f, g = _large_pair()
    monkeypatch.setattr(polygcd, "HEU_TRIES", 0)
    with WorkLedger(1), pytest.raises(BudgetExceeded):
        poly_gcd(f, g)


def test_exact_division_returns_the_cofactor_or_none():
    for f, g in gcd_pairs(5, count=20):
        h, *cofactors = poly_gcd(f, g)
        if h.is_zero():
            continue
        for p, cofactor in zip((f, g), cofactors):
            q = divide_exact(p, h)
            assert q is not None and q * h == p and q == cofactor
            if h.total_degree() > 0:
                assert divide_exact(p + Polynomial.one(p.arity), h) is None


# simplify_fraction and squarefree_part as they were before poly_gcd handed out
# its cofactors: each divided by the gcd a second time


def reference_simplify_fraction(num, den):
    if num.is_zero():
        return num, Polynomial.one(den.arity)
    g = poly_gcd(num, den)[0]
    if not g.is_constant():
        num = divide_exact(num, g)
        den = divide_exact(den, g)
    lc = den.leading_term(GREVLEX)[1]
    if lc != 1:
        scale = Fraction(1) / lc
        num = num.scale(scale)
        den = den.scale(scale)
    return num, den


def reference_squarefree_part(f):
    if f.is_zero() or f.is_constant():
        return f.primitive()
    g = f
    for var in sorted(f.variables_present()):
        g = poly_gcd(g, derivative(f, var))[0]
    if g.is_constant():
        return f.primitive()
    return divide_exact(f, g).primitive()


@pytest.mark.parametrize("seed", [8, 9])
def test_cofactors_give_the_same_fractions_and_squarefree_parts(seed):
    for f, g in gcd_pairs(seed, count=30):
        if not g.is_zero():
            assert simplify_fraction(f, g) == reference_simplify_fraction(f, g), (f, g)
        for p in (f, f * f * g, g * g):
            assert squarefree_part(p) == reference_squarefree_part(p), p


# -- sympy ----------------------------------------------------------------------------


def test_gcd_and_squarefree_part_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    from test_sympy_oracle import from_sympy, to_sympy

    for f, g in gcd_pairs(6, count=20):
        xs = sympy.symbols(f"x0:{f.arity}")
        theirs = sympy.gcd(to_sympy(f, xs), to_sympy(g, xs))
        assert poly_gcd(f, g)[0] == from_sympy(theirs, xs).primitive(), (f, g)
        square = f * f * g
        if not square.is_zero():
            assert squarefree_part(square) == from_sympy(sympy.sqf_part(to_sympy(square, xs)), xs).primitive()


def test_squarefree_part_degree_counts_distinct_roots():
    sympy = pytest.importorskip("sympy")
    from test_sympy_oracle import to_sympy

    rng = random.Random(7)
    x = sympy.Symbol("x")
    for _ in range(30):
        f = random_polynomial(rng, 1, 4, coeff_bound=9)
        f = f * f * random_polynomial(rng, 1, 2, coeff_bound=9)
        if f.total_degree() > 0:
            assert squarefree_part(f).degree_in(0) == sympy.Poly(to_sympy(f, [x]), x).sqf_part().degree()
