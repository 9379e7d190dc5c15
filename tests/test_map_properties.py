"""Hypothesis properties of the map calculus on triangular maps of A^2
(derandomized: see conftest.py).

A triangular map sends (x, y) to (m(x), y + P(x)) with m a Möbius map
(ax + b)/(cx + d), ad - bc != 0, and P a polynomial.  Each is birational,
with inverse (m^-1(x), y - P(m^-1(x))), so the calculus must find that
composing with the inverse gives the identity, and `compose` must be
associative on them.  Equality is `maps_equal`, which compares coordinates
as rational functions.

Graph closures must contain the graph: at sampled rational points p where a
triangular map f is defined, every generator of the closure ideal vanishes
at (p, f(p)).  The same holds for an action's family ideal J, the graph
closure of rho: G x X -> X specialised at a group point g, at (x, g.x) for
the Ga blow-up chart, the Ga x Ga chart and the Gm chart.  The atlas's
separatedness check rests on that containment.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from weilreg.actions import make_rational_action, specialize  # noqa: E402
from weilreg.errors import NotBirational  # noqa: E402
from weilreg.groups import additive_group, multiplicative_group, product_group  # noqa: E402
from weilreg.maps import compose, graph_closure, identity_map, inverse, maps_equal, rational_map  # noqa: E402
from weilreg.varieties import ProductAmbient, affine_space  # noqa: E402

PLANE = affine_space(["x", "y"])

SMALL = st.integers(-3, 3)
RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
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


def _graph_point(phi, p):
    """p followed by phi(p), or None where a denominator of phi vanishes at p."""
    rep = phi.reps[0]
    if any(f.den.evaluate(p) == 0 for f in rep):
        return None
    return tuple(p) + tuple(f.evaluate(p) for f in rep)


@settings(max_examples=40)
@given(MOEBIUS, SHEAR, st.tuples(RATIONAL, RATIONAL))
def test_the_graph_closure_contains_the_graph(moebius, shear, p):
    f = _triangular(moebius, shear)
    point = _graph_point(f, p)
    assume(point is not None)
    assert all(g.evaluate(point) == 0 for g in graph_closure(f).ideal.gens)


def _action(group, chart):
    X = affine_space(["u", "t"])
    return make_rational_action(group, X, rational_map(ProductAmbient(group.variety, X).variety, X, chart))


# each action with the group point a parameter pair (a, b) stands for
ACTIONS = {
    "ga": (_action(additive_group("s"), ("u+s", "u*t/(u+s)")), lambda a, b: (a,)),
    "ga_ga": (_action(product_group(additive_group("s"), additive_group("r")), ("u+s", "(u*t+r)/(u+s)")),
              lambda a, b: (a, b)),
    "gm": (_action(multiplicative_group(("z", "w")), ("z*u", "w*t*(u+1)/(z*u+1)")),
           lambda a, b: (a, 1 / a) if a else None),
}


@pytest.mark.parametrize("name", sorted(ACTIONS))
@settings(max_examples=30)
@given(st.tuples(RATIONAL, RATIONAL), st.tuples(RATIONAL, RATIONAL))
def test_the_specialised_family_ideal_contains_each_transition_graph(name, params, x):
    action, group_point = ACTIONS[name]
    g = group_point(*params)
    assume(g is not None)
    point = _graph_point(specialize(action, g), x)
    assume(point is not None)
    family = graph_closure(action.rho).ideal.gens
    assert all(f.specialize(g).evaluate(point) == 0 for f in family)
