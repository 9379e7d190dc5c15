"""Cross-checks of the Groebner engine and the map calculus against sympy,
an independent implementation.  Skipped where sympy is not installed; it is
a test-only dependency."""

import itertools
import random
from fractions import Fraction

import pytest

from weilreg import GREVLEX, LEX, Ideal, Polynomial, block_order, eliminate, saturate
from weilreg.errors import NotBirational
from weilreg.ideals import buchberger, dimension
from weilreg.maps import closed_image, graph_closure, inverse, make_rational_map, rational_map
from weilreg.ratfunc import RationalFunction
from weilreg.varieties import affine_space, variety

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


def _torus_gens(arity):
    """x0*x1 - 1, x2*x3 - 1, ...: leading monomials that share no variable."""
    xs = [Polynomial.variable(arity, i) for i in range(arity)]
    return [xs[i] * xs[i + 1] - 1 for i in range(0, arity - 1, 2)]


def _path_gens(arity):
    """x0*x1, x1*x2, ...: one connected chain of leading monomials."""
    xs = [Polynomial.variable(arity, i) for i in range(arity)]
    return [xs[i] * xs[i + 1] for i in range(arity - 1)]


def test_dimension_agrees_with_sympy_leading_monomials():
    """`dimension` against sympy's grevlex basis of the same ideal: the
    arity minus the fewest variables meeting every leading monomial, found
    by trying every variable subset, smallest first; -1 for the unit ideal.
    Random ideals, and the torus and path families whose search `dimension`
    splits into components and memoizes."""
    rng = random.Random(20261020)
    cases = []
    for _ in range(150):
        arity = rng.randrange(2, 5)
        gens = []
        for _ in range(rng.randrange(1, arity + 1)):
            g = random_polynomial(rng, arity, 2, max_terms=3, coeff_bound=3)
            if not g.is_zero():
                gens.append(g)
        cases.append((arity, gens))
    cases += [(arity, family(arity)) for family in (_torus_gens, _path_gens) for arity in range(2, 11)]
    for arity, gens in cases:
        xs = _symbols(arity)
        basis = sympy.groebner([to_sympy(g, xs) for g in gens], *xs, order="grevlex", domain="QQ")
        leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in basis.exprs]
        if (0,) * arity in leads:
            expected = -1
        else:
            expected = arity - next(size for size in range(arity + 1)
                                    for meet in itertools.combinations(range(arity), size)
                                    if all(any(lead[i] for i in meet) for lead in leads))
        assert dimension(Ideal(arity, gens)) == expected, gens


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


def _same_ideal(ours: Ideal, theirs, xs):
    """ours equals the ideal sympy generates with theirs, by mutual containment."""
    if not theirs:
        return all(g.is_zero() for g in ours.gens)
    theirs_basis = sympy.groebner(theirs, *xs, order="grevlex", domain="QQ")
    return (all(ours.contains(from_sympy(g, xs)) for g in theirs)
            and all(theirs_basis.contains(to_sympy(g, xs)) for g in ours.gens))


def _random_maps(count, seed):
    """Rational maps from A^1, A^2 or the curve xy = 1 to A^1 or A^2, with
    numerators of degree at most 2 and denominators of degree at most 1."""
    rng = random.Random(seed)
    sources = [affine_space(["x"]), affine_space(["x", "y"]), variety(["x", "y"], "x*y-1")]
    targets = [affine_space(["u"]), affine_space(["u", "v"])]
    for _ in range(count):
        X, Y = rng.choice(sources), rng.choice(targets)
        coords = []
        for _ in range(Y.arity):
            num = random_polynomial(rng, X.arity, 2, max_terms=4, coeff_bound=3)
            den = random_polynomial(rng, X.arity, 1, max_terms=3, coeff_bound=3)
            if den.is_zero() or X.ideal.contains(den):
                den = Polynomial.one(X.arity)
            coords.append(RationalFunction(X, num, den))
        yield make_rational_map(X, Y, [tuple(coords)])


def test_graph_closure_and_closed_image_agree_with_sympy():
    # the graph closure is (den_j * y_j - num_j, I(X)) saturated by the product
    # of the denominators; the closed image eliminates the source from it
    t = sympy.Symbol("t")
    for phi in _random_maps(30, seed=20261019):
        X, Y = phi.source, phi.target
        xs, ys = sympy.symbols(f"x0:{X.arity}"), sympy.symbols(f"y0:{Y.arity}")
        dens = sympy.Mul(*[to_sympy(f.den, xs) for f in phi.reps[0]])
        graph = ([to_sympy(g, xs) for g in X.ideal.gens] + [t * dens - 1]
                 + [to_sympy(f.den, xs) * y - to_sympy(f.num, xs) for f, y in zip(phi.reps[0], ys)])
        basis = sympy.groebner(graph, t, *xs, *ys, order="lex", domain="QQ")
        closure = [g for g in basis.exprs if t not in g.free_symbols]
        image = [g for g in closure if not g.free_symbols & set(xs)]
        assert _same_ideal(graph_closure(phi).ideal, closure, xs + ys), phi.reps[0]
        assert _same_ideal(closed_image(phi).ideal, image, ys), phi.reps[0]


def _triangular_maps(count, seed):
    """Maps of A^2 sending (x, y) to (m(x), y + P(x)), alternating with their
    mirror images (x + P(y), m(y)); m(t) = (at + b)/(ct + d) with ad - bc != 0,
    P of degree at most 2.  Yields (c, P's coefficients, map)."""
    rng = random.Random(seed)
    plane = affine_space(["x", "y"])
    for k in range(count):
        a, b, c, d = 0, 0, 0, 0
        while a * d == b * c:
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        shear = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        s, t = ("x", "y") if k % 2 == 0 else ("y", "x")
        moebius = f"({a}*{s}+{b})/({c}*{s}+{d})"
        sheared = f"{t}+" + "+".join(f"({e})*{s}^{i}" for i, e in enumerate(shear))
        yield c, shear, rational_map(plane, plane, (moebius, sheared) if s == "x" else (sheared, moebius))


def _as_sympy(functions, xs):
    return [to_sympy(f.num, xs) / to_sympy(f.den, xs) for f in functions]


def test_inverse_composes_to_the_identity_under_sympy():
    """Every inverse `inverse` returns gives the identity composed either
    way, simplified by sympy.cancel.  Of the 40 seeded triangular maps, 17
    invert; the 23 NotBirational refusals are all ROADMAP item 4's shape, a
    Moebius part with c != 0 and a non-constant P."""
    xs = sympy.symbols("x y")
    refused = 0
    for c, shear, f in _triangular_maps(40, seed=20261020):
        try:
            g = inverse(f)
        except NotBirational:
            assert c != 0 and any(shear[1:]), f.reps[0]
            refused += 1
            continue
        forward, backward = _as_sympy(f.reps[0], xs), _as_sympy(g.reps[0], xs)
        for outer, inner in ((forward, backward), (backward, forward)):
            composite = [e.subs(dict(zip(xs, inner)), simultaneous=True) for e in outer]
            assert [sympy.cancel(e) for e in composite] == list(xs), (f.reps[0], g.reps[0])
    assert refused == 23
