"""The point form (derandomized hypothesis properties: see conftest.py).

A group point's coordinates are stored as coefficients are (`poly.rational`):
an int when integral, else a Fraction with denominator > 1.  Whatever form a
coordinate is given in (int, integral or proper Fraction, str, float), the
points below hold that form and equal what the all-Fraction arithmetic gave,
one point is one `specialize` memo entry, and `evaluate` still returns a
Fraction.
"""

from fractions import Fraction
from functools import cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from weilreg import Polynomial, RationalFunction, affine_space, make_rational_action, rational_map, variety  # noqa: E402
from weilreg.actions import specialize  # noqa: E402
from weilreg.atlas import build_atlas  # noqa: E402
from weilreg.groups import additive_group, multiplicative_group, product_group  # noqa: E402
from weilreg.poly import rational  # noqa: E402
from weilreg.varieties import ProductAmbient  # noqa: E402

GA, GM = additive_group("s"), multiplicative_group(("z", "w"))
GAM = product_group(GA, GM)
GROUPS = {"Ga": GA, "Gm": GM, "Ga x Gm": GAM}


def in_form(c):
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def old_evaluate(p, point):
    """`Polynomial.evaluate` as it was, on Fractions only."""
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        val = coeff
        for x, e in zip(point, exps):
            if e:
                val *= Fraction(x) ** e
        total += val
    return total


def old_point(point):
    return tuple(Fraction(x) for x in point)


def old_multiply(group, g, h):
    return tuple(old_evaluate(mi, old_point(g) + old_point(h)) for mi in group.mult)


def old_invert(group, g):
    return tuple(old_evaluate(p, old_point(g)) for p in group.inv)


def same(point, reference):
    """point holds the stored form and equals the all-Fraction reference."""
    return all(map(in_form, point)) and point == reference


# dyadic values, so that a float holds each exactly
VALUES = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 4]))
UNITS = st.builds(lambda sign, k: sign * Fraction(2) ** k, st.sampled_from([1, -1]), st.integers(-2, 2))


@st.composite
def written(draw, value):
    """value as an int (where integral), a Fraction, a str or a float."""
    forms = [Fraction, str, float] + ([int] if value.denominator == 1 else [])
    return draw(st.sampled_from(forms))(value)


@st.composite
def group_points(draw, group):
    """A point of group (Ga, Gm or Ga x Gm), coordinates in mixed forms."""
    values = []
    if group is not GM:
        values.append(draw(VALUES))
    if group is not GA:
        z = draw(UNITS)
        values += [z, 1 / z]
    return tuple(draw(written(v)) for v in values)


@pytest.mark.parametrize("form", [int, Fraction, str, float])
def test_rational_stores_every_input_form(form):
    assert rational(form(3)) == 3 and type(rational(form(3))) is int
    if form is not int:
        assert rational(form(Fraction(-1, 2))) == Fraction(-1, 2)
        assert type(rational(form(Fraction(-1, 2)))) is Fraction


@pytest.mark.parametrize("name", GROUPS)
@given(data=st.data())
def test_group_points_hold_the_stored_form(name, data):
    group = GROUPS[name]
    g, h = data.draw(group_points(group)), data.draw(group_points(group))
    assert same(group.require_point(g), old_point(g))
    assert same(group.variety.require_point(g), old_point(g))
    assert group.variety.point_on(g)
    assert same(group.multiply_points(g, h), old_multiply(group, g, h))
    assert same(group.invert_point(g), old_invert(group, g))


def test_the_identity_is_stored_in_int_form():
    identities = {name: group.identity_point() for name, group in GROUPS.items()}
    assert identities == {"Ga": (0,), "Gm": (1, 1), "Ga x Gm": (0, 1, 1)}
    assert all(type(c) is int for e in identities.values() for c in e)


def _action(group, coordinates):
    """The action of group on the (u, t)-plane with the given coordinates."""
    X = affine_space(["u", "t"])
    rho = rational_map(ProductAmbient(group.variety, X).variety, X, coordinates)
    return make_rational_action(group, X, rho)


ACTIONS = {
    "Ga": ("u+s", "u*t/(u+s)"),
    "Gm": ("z*u", "w*t"),
    "Ga x Gm": ("z*u", "t+s"),
}


@cache
def action(name):
    """One action per group for every example, so its element maps are memoized across them."""
    return _action(GROUPS[name], ACTIONS[name])


@pytest.mark.parametrize("name", ACTIONS)
@given(data=st.data())
def test_atlas_elements_hold_the_stored_form(name, data):
    group = GROUPS[name]
    points = data.draw(st.lists(group_points(group), min_size=1, max_size=3,
                                unique_by=lambda p: old_point(p)))
    atlas = build_atlas(action(name), points)
    e = old_point(group.identity)
    stored = [e] + [p for p in map(old_point, points) if p != e]
    assert len(atlas.points) == len(stored)
    assert all(same(p, q) for p, q in zip(atlas.points, stored))
    for (i, j), g in atlas.elements.items():
        assert same(g, old_multiply(group, old_invert(group, stored[j]), stored[i]))


def test_evaluate_returns_a_fraction_at_an_integral_point():
    p, d = Polynomial(1, {(1,): 1}), Polynomial.constant(1, 2)
    for point in [(1,), (Fraction(1),), ("1",), (1.0,)]:
        assert type(p.evaluate(point)) is Fraction and type(d.evaluate(point)) is Fraction
        # an int from evaluate would make this float division
        assert p.evaluate(point) / d.evaluate(point) == Fraction(1, 2)
        assert type(p.evaluate(point) / d.evaluate(point)) is Fraction
    assert type(Polynomial.zero(2).evaluate((3, 4))) is Fraction
    plane = variety(["x", "y"])
    f = RationalFunction.parse(plane, "(x+y)/2")
    assert type(f.evaluate((1, 1))) is Fraction and f.evaluate((1, 1)) == 1
    assert f.evaluate(("1", 0.5)) == Fraction(3, 4)


def test_a_group_point_in_any_form_is_one_specialize_entry():
    rho = _action(GA, ACTIONS["Ga"])
    two = specialize(rho, (2,))
    assert specialize(rho, (Fraction(4, 2),)) is two and specialize(rho, ("2",)) is two
    assert specialize(rho, [2.0]) is two
    assert two.memo["inverse", ()] is specialize(rho, (-2,))
    half = specialize(rho, (Fraction(1, 2),))
    assert specialize(rho, ("1/2",)) is half and specialize(rho, (0.5,)) is half
    # g and its inverse, each keyed by its stored form
    points = sorted(key[0] for name, key in rho.memo if name == "specialize")
    assert points == [(-2,), (Fraction(-1, 2),), (Fraction(1, 2),), (2,)]
    assert [type(c) for (c,) in points] == [int, Fraction, Fraction, int]
