"""Hypothesis properties of the map calculus on triangular maps of A^2
(derandomized: see conftest.py).

A triangular map sends (x, y) to (m(x), y + P(x)) with m a Möbius map
(ax + b)/(cx + d), ad - bc != 0, and P a polynomial.  Each is birational,
with inverse (m^-1(x), y - P(m^-1(x))), so the calculus must find that
composing with the inverse gives the identity, and `compose` must be
associative on them.  Equality is `maps_equal`, which compares coordinates
as rational functions.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from weilreg.errors import NotBirational  # noqa: E402
from weilreg.maps import compose, identity_map, inverse, maps_equal, rational_map  # noqa: E402
from weilreg.varieties import affine_space  # noqa: E402

PLANE = affine_space(["x", "y"])

SMALL = st.integers(-3, 3)
MOEBIUS = st.tuples(SMALL, SMALL, SMALL, SMALL).filter(lambda m: m[0] * m[3] != m[1] * m[2])
SHEAR = st.lists(SMALL, min_size=1, max_size=3)  # coefficients of P, constant term first


def _triangular(moebius, shear):
    a, b, c, d = moebius
    p = "+".join(f"({k})*x^{i}" for i, k in enumerate(shear))
    return rational_map(PLANE, PLANE, (f"({a}*x+{b})/({c}*x+{d})", f"y+{p}"))


@settings(max_examples=40)
@given(MOEBIUS, SHEAR)
def test_a_triangular_map_composed_with_its_inverse_is_the_identity(moebius, shear):
    f = _triangular(moebius, shear)
    try:
        g = inverse(f)
    except NotBirational:
        # ROADMAP item 4: the inverse search finds no element linear in x
        # when m is not affine and P is not constant.  The inverse is then
        # the composite of the inverses of f's two factors, m and the shear.
        assert moebius[2] != 0 and any(shear[1:])
        g = compose(inverse(_triangular(moebius, [0])), inverse(_triangular((1, 0, 0, 1), shear)))
    identity = identity_map(PLANE)
    assert maps_equal(compose(f, g), identity)
    assert maps_equal(compose(g, f), identity)


@settings(max_examples=20)
@given(st.lists(st.tuples(MOEBIUS, SHEAR), min_size=3, max_size=3))
def test_compose_is_associative_on_triangular_maps(triple):
    f, g, h = (_triangular(moebius, shear) for moebius, shear in triple)
    assert maps_equal(compose(compose(f, g), h), compose(f, compose(g, h)))
