"""Cross-checks of the Groebner engine against sympy, an independent
implementation.  Skipped where sympy is not installed; it is a test-only
dependency."""

import random
from fractions import Fraction

import pytest

from weilreg import GREVLEX, LEX, Ideal, Polynomial, eliminate
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
