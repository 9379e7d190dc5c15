"""Cross-checks of the Groebner engine against sympy, an independent
implementation.  Skipped where sympy is not installed; it is a test-only
dependency."""

import random
from fractions import Fraction

import pytest

from weilreg import GREVLEX, LEX, Ideal, Polynomial, block_order, eliminate, saturate
from weilreg.ideals import buchberger

from oracles import random_polynomial

sympy = pytest.importorskip("sympy")


def _symbols(arity):
    return sympy.symbols(f"x0:{arity}")


def to_sympy(p: Polynomial, xs):
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[x**e for x, e in zip(xs, exps)])
                       for exps, c in p.terms.items()])


def from_sympy(expr, xs) -> Polynomial:
    poly = sympy.Poly(expr, *xs, domain="QQ")
    return Polynomial(len(xs), {exps: Fraction(int(c.numerator), int(c.denominator))
                                for exps, c in poly.terms()})


def _random_ideals(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        arity = rng.randrange(2, 4)
        gens = [random_polynomial(rng, arity, 3) for _ in range(rng.randrange(2, 4))]
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            yield arity, gens


@pytest.mark.parametrize("order, name", [(GREVLEX, "grevlex"), (LEX, "lex")])
def test_reduced_bases_equal_sympy(order, name):
    for arity, gens in _random_ideals(150, seed=20251019):
        xs = _symbols(arity)
        ours = {g.monic(order) for g in buchberger(gens, order)}
        theirs = sympy.groebner([to_sympy(g, xs) for g in gens], *xs, order=name, domain="QQ")
        assert ours == {from_sympy(g, xs).monic(order) for g in theirs.exprs}, (gens, name)


def test_eliminate_agrees_with_sympy_lex_elimination():
    rng = random.Random(20251020)
    for arity, gens in _random_ideals(60, seed=20251021):
        drop = set(rng.sample(range(arity), rng.randrange(1, arity)))
        xs = _symbols(arity)
        ordered = [xs[i] for i in sorted(drop)] + [xs[i] for i in range(arity) if i not in drop]
        basis = sympy.groebner([to_sympy(g, xs) for g in gens], *ordered, order="lex", domain="QQ")
        dropped = {xs[i] for i in drop}
        theirs = [g for g in basis.exprs if not (g.free_symbols & dropped)]
        ours = eliminate(Ideal(arity, gens), drop)
        assert all(not (g.variables_present() & drop) for g in ours.gens)
        assert all(ours.contains(from_sympy(g, xs)) for g in theirs)
        if theirs:
            theirs_basis = sympy.groebner(theirs, *xs, order="grevlex", domain="QQ")
            assert all(theirs_basis.contains(to_sympy(g, xs)) for g in ours.gens)
        else:
            assert ours.gens == ()


def test_block_order_reduced_bases_equal_sympy():
    # block_order(B) is grevlex on the variables in B, ties broken by grevlex
    # on the rest: sympy's product order once the block's variables lead.
    rng = random.Random(20251022)
    for arity, gens in _random_ideals(200, seed=20251023):
        block = sorted(rng.sample(range(arity), rng.randrange(1, arity)))
        order = block_order(block)
        xs = _symbols(arity)
        ordered = [xs[i] for i in block] + [xs[i] for i in range(arity) if i not in block]
        b = len(block)
        grevlex = sympy.polys.orderings.grevlex
        product = sympy.polys.orderings.ProductOrder((grevlex, lambda m: m[:b]), (grevlex, lambda m: m[b:]))
        theirs = sympy.groebner([to_sympy(g, xs) for g in gens], *ordered, order=product, domain="QQ")
        ours = {g.monic(order) for g in buchberger(gens, order)}
        assert ours == {from_sympy(g, xs).monic(order) for g in theirs.exprs}, (gens, block)


def test_saturate_agrees_with_sympy():
    # I : f^infinity is the t-free part of I + (t*f - 1) under lex with t first
    rng = random.Random(20251024)
    t = sympy.Symbol("t")
    for arity, gens in _random_ideals(60, seed=20251025):
        f = random_polynomial(rng, arity, 2)
        if f.is_zero():
            continue
        xs = _symbols(arity)
        lifted = [to_sympy(g, xs) for g in gens] + [t * to_sympy(f, xs) - 1]
        basis = sympy.groebner(lifted, t, *xs, order="lex", domain="QQ")
        theirs = [g for g in basis.exprs if t not in g.free_symbols]
        ours = saturate(Ideal(arity, gens), f)
        assert all(ours.contains(from_sympy(g, xs)) for g in theirs), (gens, f)
        if theirs:
            theirs_basis = sympy.groebner(theirs, *xs, order="grevlex", domain="QQ")
            assert all(theirs_basis.contains(to_sympy(g, xs)) for g in ours.gens), (gens, f)
        else:
            assert ours.gens == ()
