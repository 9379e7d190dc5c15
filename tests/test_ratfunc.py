"""`reduced_fraction` against the hand-written pipeline it replaced.

The reference below is the substitute-and-reduce sequence that compose,
specialisation, the lifted action and `RationalFunction.substitute` each
spelled out inline: compose, refuse a denominator in the host ideal, reduce
both sides, cancel.  The shared function must give the very same
representative, not merely an equal function.
"""

import ast
import random
import sys
from pathlib import Path

import pytest

from oracles import random_polynomial
from weilreg.errors import ZeroDenominator
from weilreg.poly import Polynomial
from weilreg.polygcd import simplify_fraction
import weilreg.ratfunc
from weilreg.ratfunc import (
    FractionImages,
    RationalFunction,
    compose_fraction,
    compose_poly,
    fraction_text,
    pullback,
    reduced_fraction,
)
from weilreg.varieties import affine_space, variety


def reference_reduce(host, num, den):
    if host.ideal.contains(den):
        raise ZeroDenominator("denominator vanishes identically after substitution")
    num, den = simplify_fraction(host.ideal.normal_form(num), host.ideal.normal_form(den))
    return RationalFunction(host, num, den)


def reference_substitute(f, images, new_host):
    num, den = compose_fraction(f.num, f.den, images)
    return reference_reduce(new_host, num, den)


HOSTS = {
    "plane": affine_space(["x", "y"]),
    "torus": variety(["x", "y"], "x*y-1"),
    "parabola": variety(["x", "y"], "y-x^2"),
    "circle": variety(["x", "y"], "x^2+y^2-1"),
}


def _nonvanishing(rng, host, max_deg):
    while True:
        p = random_polynomial(rng, host.arity, max_deg, max_terms=3, coeff_bound=3)
        if not host.ideal.contains(p):
            return p


def _assert_same(got, want):
    assert got.host is want.host
    assert got.num == want.num and got.den == want.den
    assert fraction_text(got) == fraction_text(want)


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_reduced_fraction_matches_inline_pipeline(name):
    host = HOSTS[name]
    rng = random.Random(f"reduced-fraction-{name}")
    for _ in range(60):
        num = random_polynomial(rng, host.arity, 3, max_terms=4, coeff_bound=3)
        den = _nonvanishing(rng, host, 2)
        _assert_same(reduced_fraction(host, num, den), reference_reduce(host, num, den))


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_substitute_matches_inline_pipeline(name):
    host = HOSTS[name]
    source = HOSTS["plane"]
    rng = random.Random(f"substitute-{name}")
    checked = 0
    while checked < 40:
        f = RationalFunction(source, random_polynomial(rng, 2, 2, max_terms=3, coeff_bound=3),
                             _nonvanishing(rng, source, 2))
        images = FractionImages((random_polynomial(rng, 2, 2, max_terms=3, coeff_bound=3),
                                 _nonvanishing(rng, host, 1)) for _ in range(2))
        try:
            want = reference_substitute(f, images, host)
        except ZeroDenominator:
            with pytest.raises(ZeroDenominator):
                f.substitute(images, host)
            continue
        _assert_same(f.substitute(images, host), want)
        checked += 1


def test_denominator_vanishing_on_the_host_raises_in_both_versions():
    torus, plane = HOSTS["torus"], HOSTS["plane"]
    one = torus.poly("1")
    for den in (torus.poly("x*y-1"), torus.poly("x^2*y-x"), torus.poly("0")):
        with pytest.raises(ZeroDenominator):
            reference_reduce(torus, one, den)
        with pytest.raises(ZeroDenominator):
            reduced_fraction(torus, one, den)
    # 1/x pulled back along x -> x*y - 1 lands on a denominator zero on the torus
    f = RationalFunction.parse(plane, "1/x")
    images = FractionImages([(torus.poly("x*y-1"), torus.poly("1")), (torus.poly("y"), torus.poly("1"))])
    with pytest.raises(ZeroDenominator):
        reference_substitute(f, images, torus)
    with pytest.raises(ZeroDenominator):
        f.substitute(images, torus)


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_reduced_fraction_denominator_lies_outside_the_host_ideal(name):
    # reduced_fraction builds its result without the constructor's membership
    # test; this is the fact that makes skipping it sound
    host = HOSTS[name]
    rng = random.Random(f"reduced-fraction-{name}")
    for _ in range(60):
        num = random_polynomial(rng, host.arity, 3, max_terms=4, coeff_bound=3)
        den = _nonvanishing(rng, host, 2)
        for n, d in ((num, den), (num * den, den * den)):
            result = reduced_fraction(host, n, d)
            assert not host.ideal.contains(result.den)


def test_pullback_refuses_a_vanishing_composite_denominator():
    torus, plane = HOSTS["torus"], HOSTS["plane"]
    f = RationalFunction.parse(plane, "y/x")
    one = torus.poly("1")
    # x -> x*y - 1 sends the denominator x to zero on the torus
    with pytest.raises(ZeroDenominator):
        pullback(torus, f.num, f.den, FractionImages([(torus.poly("x*y-1"), one), (torus.poly("y"), one)]))
    # x -> x*y keeps it; the pair comes back as composed, unreduced
    images = FractionImages([(torus.poly("x*y"), one), (torus.poly("y"), one)])
    assert pullback(torus, f.num, f.den, images) == compose_fraction(f.num, f.den, images)


def test_only_ratfunc_calls_compose_fraction():
    src = Path(weilreg.ratfunc.__file__).resolve().parent
    callers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "compose_fraction":
                    callers.add(path.name)
    # every other module composes through pullback, RationalFunction.substitute
    # or compose_poly, each on a FractionImages table
    assert callers == {"ratfunc.py"}


def test_the_only_substitute_is_rational_function_substitute():
    src = Path(weilreg.ratfunc.__file__).resolve().parent
    owners = set()
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef) and child.name == "substitute":
                    owners.add((path.name, getattr(node, "name", None)))
    # polynomial substitution is compose_poly on a FractionImages table
    assert not hasattr(Polynomial, "substitute")
    assert owners == {("ratfunc.py", "RationalFunction")}


def reference_compose_fraction(num, den, images):
    """`compose_fraction` as it was: each side composed with its own degrees,
    then cross-multiplied."""
    n_num, d_num = compose_poly(num, images)
    n_den, d_den = compose_poly(den, images)
    return n_num * d_den, d_num * n_den


def reference_pullback(host, num, den, images):
    num, den = reference_compose_fraction(num, den, images)
    if host.ideal.contains(den):
        raise ZeroDenominator("denominator vanishes identically after substitution")
    return num, den


def test_a_fraction_is_homogenised_once():
    line, target = affine_space(["x"]), affine_space(["y"])
    f = RationalFunction.parse(line, "(2*x+1)/(x+3)")
    images = FractionImages([(target.poly("y+1"), target.poly("y-2"))])
    assert compose_fraction(f.num, f.den, images) == (target.poly("3*y"), target.poly("4*y-5"))
    assert reference_compose_fraction(f.num, f.den, images) == (target.poly("3*y*(y-2)"),
                                                                target.poly("(y-2)*(4*y-5)"))


def _image(rng, host):
    """A fraction image on host: random, a small constant, or a constant plus
    a generator of the host ideal, so that denominators x - c often vanish."""
    kind = rng.randrange(3)
    c = host.poly(str(rng.randrange(-1, 2)))
    if kind == 0 or not host.ideal.gens:
        return random_polynomial(rng, host.arity, 1, max_terms=2, coeff_bound=2), _nonvanishing(rng, host, 1)
    return (c, host.poly("1")) if kind == 1 else (c + rng.choice(host.ideal.gens), host.poly("1"))


def _pullback_verdicts(host, seed):
    """(new refused, reference refused) for fractions on the plane pulled back
    to host, their denominators often x - c, y - c or x - y."""
    plane = HOSTS["plane"]
    rng = random.Random(seed)
    dens = [plane.poly(t) for t in ("x", "x-1", "x+1", "y", "y-1", "x-y", "x*y-1")]
    for _ in range(80):
        images = FractionImages([_image(rng, host), _image(rng, host)])
        num = random_polynomial(rng, 2, 2, max_terms=3, coeff_bound=3)
        den = rng.choice(dens) if rng.randrange(3) else _nonvanishing(rng, plane, 2)
        yield tuple(_refuses(pull, host, num, den, images) for pull in (pullback, reference_pullback))


def _refuses(pull, host, num, den, images):
    try:
        pull(host, num, den, images)
    except ZeroDenominator:
        return True
    return False


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_pullback_refuses_exactly_where_the_cross_products_do(name):
    # on a prime host the cross products' extra prod den_i^k, each den_i
    # outside the ideal, changes no membership
    verdicts = list(_pullback_verdicts(HOSTS[name], f"pullback-{name}"))
    assert all(new == ref for new, ref in verdicts)
    assert {new for new, _ in verdicts} == {True, False}


def test_pullback_on_a_host_that_is_not_prime_refuses_only_where_the_cross_products_do():
    # on V(xy) a den_i can be a zero divisor: x is not in (xy), but x*y is
    cross = variety(["x", "y"], "x*y", irreducible=False)
    verdicts = list(_pullback_verdicts(cross, "pullback-cross"))
    assert all(ref for new, ref in verdicts if new)
    assert {new for new, _ in verdicts} == {True, False}
    # (x+1)/x along (x, y) -> (y/x, y) is (x+y)/y, whose denominator y is
    # outside (xy); the cross products carry x*y and refuse
    f = RationalFunction.parse(HOSTS["plane"], "(x+1)/x")
    images = FractionImages([(cross.poly("y"), cross.poly("x")), (cross.poly("y"), cross.poly("1"))])
    assert pullback(cross, f.num, f.den, images) == (cross.poly("x+y"), cross.poly("y"))
    with pytest.raises(ZeroDenominator):
        reference_pullback(cross, f.num, f.den, images)


def test_compose_fraction_multiplies_only_inside_the_image_table(monkeypatch):
    callers = []
    mul = Polynomial.__mul__

    def spy(self, other):
        callers.append(sys._getframe(1).f_code)
        return mul(self, other)

    plane = HOSTS["plane"]
    images = FractionImages([(plane.poly("x+1"), plane.poly("y-2")), (plane.poly("x*y"), plane.poly("3*x+1"))])
    fs = [RationalFunction.parse(plane, text)
          for text in ("(2*x+1)/(x+3)", "(x^2*y/3 - y)/(x*y^2 + 1/2)", "x^3/(y^2 - 1)", "1/(x*y)")]
    monkeypatch.setattr(Polynomial, "__mul__", spy)
    for f in fs:
        compose_fraction(f.num, f.den, images)
    assert callers and set(callers) == {FractionImages.monomial.__code__}
