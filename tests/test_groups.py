import sys
from fractions import Fraction

import pytest

from weilreg import GREVLEX, Ideal, Polynomial, parse_polynomial
from weilreg.errors import (
    AxiomFailure,
    EmptyLocus,
    NotAnAction,
    NotApplicable,
    PointNotOnGroup,
    ZeroDenominator,
)
from weilreg.groups import (
    additive_group,
    cyclic_group_2,
    finite_group,
    make_group,
    multiplicative_group,
    product_group,
)
from weilreg.maps import identity_map, inverse, maps_equal, point_status, rational_map
import weilreg.actions
from weilreg.actions import (
    action_point_defined,
    element_biregular_locus,
    g_regular_locus,
    lift_action,
    RationalAction,
    make_rational_action,
    restrict_to_open,
    restrict_to_regular_locus,
    specialize,
    tilde_biregular_locus,
)
from weilreg.ratfunc import RationalFunction
from weilreg.varieties import OpenSubset, ProductAmbient, affine_space, variety


# -- groups ------------------------------------------------------------------------


def test_additive_group_valid():
    G = additive_group("s")
    assert G.multiply_points((2,), (3,)) == (Fraction(5),)
    assert G.invert_point((4,)) == (Fraction(-4),)
    assert G.identity_point() == (Fraction(0),)


def test_multiplicative_group_valid():
    G = multiplicative_group()
    assert G.multiply_points((2, Fraction(1, 2)), (3, Fraction(1, 3))) == (6, Fraction(1, 6))
    assert G.invert_point((2, Fraction(1, 2))) == (Fraction(1, 2), 2)
    with pytest.raises(PointNotOnGroup):
        G.require_point((2, 3))


def test_cyclic_group_of_order_two():
    G = cyclic_group_2()
    assert G.multiply_points("g", "g") == "e"
    assert G.invert_point("g") == "g"


def test_axiom_failure_detected():
    line = affine_space(["s"])
    bad_mult = [Polynomial.variable(2, 0) + Polynomial.variable(2, 1) + Polynomial.one(2)]
    with pytest.raises(AxiomFailure):
        make_group(line, bad_mult, [-Polynomial.variable(1, 0)], (0,))


@pytest.mark.parametrize("mult, inv, law", [
    ("a+2*b", "-s", "left identity"),
    ("2*a+b", "-s", "right identity"),
    ("a+b", "s", "inverse"),
])
def test_each_group_identity_law_names_itself(mult, inv, law):
    line, pair = affine_space(["s"]), ["a", "b"]
    with pytest.raises(AxiomFailure, match=f"^{law} law fails in coordinate s$"):
        make_group(line, [parse_polynomial(mult, pair)], [parse_polynomial(inv, ["s"])], (0,))


def test_associativity_failure_detected():
    # a + b + ab(a + b) has identity 0 and inverse -a, but is not associative
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    with pytest.raises(AxiomFailure, match="^associativity fails in coordinate s$"):
        make_group(affine_space(["s"]), [a + b + a * b * (a + b)], [-Polynomial.variable(1, 0)], (0,))


@pytest.mark.parametrize("group, images", [
    (additive_group("s"), ("s+s'",)),
    (multiplicative_group(("z", "w")), ("z*z'", "w*w'")),
])
def test_a_group_multiplication_acts_on_the_group(group, images):
    P = ProductAmbient(group.variety, group.variety)
    action = make_rational_action(group, group.variety, rational_map(P.variety, group.variety, images))
    assert not action.is_finite


def test_bad_finite_table_rejected():
    with pytest.raises(AxiomFailure):
        finite_group(("e", "a"), {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "a"})


def test_a_table_entry_naming_a_non_element_is_rejected():
    table = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e", ("z", "a"): "e"}
    with pytest.raises(AxiomFailure, match="^table entry z\\*a names a non-element$"):
        finite_group(("e", "a"), table)


def test_product_group():
    G = product_group(additive_group("s"), multiplicative_group())
    assert G.arity == 3
    assert G.multiply_points((1, 2, Fraction(1, 2)), (2, 3, Fraction(1, 3))) == (3, 6, Fraction(1, 6))


# -- fixture actions ----------------------------------------------------------------


@pytest.fixture
def blowup_action():
    G = additive_group("s")
    X = affine_space(["u", "t"])
    from weilreg.varieties import ProductAmbient

    P = ProductAmbient(G.variety, X)
    rho = rational_map(P.variety, X, ("u+s", "u*t/(u+s)"))
    return make_rational_action(G, X, rho)


@pytest.fixture
def translation_action():
    G = additive_group("s")
    X = affine_space(["x", "y"])
    from weilreg.varieties import ProductAmbient

    P = ProductAmbient(G.variety, X)
    rho = rational_map(P.variety, X, ("x+s", "y"))
    return make_rational_action(G, X, rho)


@pytest.fixture
def cremona_action():
    G = cyclic_group_2(("e", "sig"))
    X = affine_space(["x", "y"])
    sigma = rational_map(X, X, ("1/x", "1/y"))
    return make_rational_action(G, X, {"e": identity_map(X), "sig": sigma})


# -- action validation ----------------------------------------------------------------


def test_blowup_action_accepted(blowup_action):
    assert not blowup_action.is_finite


def test_cremona_action_accepted(cremona_action):
    assert cremona_action.is_finite


def test_translation_action_accepted(translation_action):
    assert not translation_action.is_finite


def test_mutated_denominator_rejected_with_nonzero_residue():
    G = additive_group("s")
    X = affine_space(["u", "t"])
    from weilreg.varieties import ProductAmbient

    P = ProductAmbient(G.variety, X)
    rho = rational_map(P.variety, X, ("u+s", "u*t/(u+2*s)"))
    with pytest.raises(NotAnAction) as err:
        make_rational_action(G, X, rho)
    assert err.value.law == "associativity"
    assert err.value.residue not in (None, "0")


def test_a_parametric_action_refuses_a_map_of_another_space():
    # the torus under the plane's own names: rho must act on the space itself
    G = additive_group("s")
    T = variety(["x", "y"], "x*y-1")
    rho = rational_map(ProductAmbient(G.variety, T).variety, T, ("x", "y"))
    with pytest.raises(NotAnAction) as err:
        make_rational_action(G, affine_space(["x", "y"]), rho)
    assert err.value.law == "shape"


def test_prose_failure_carries_no_residue():
    G = additive_group("s")
    X = affine_space(["u", "t"])
    P = ProductAmbient(G.variety, X)
    with pytest.raises(NotAnAction) as err:
        make_rational_action(G, X, rational_map(P.variety, X, ("u/s", "t")))
    assert err.value.law == "identity" and err.value.residue is None
    assert "residue" not in str(err.value)
    with pytest.raises(NotAnAction) as err:
        make_rational_action(G, X, rational_map(P.variety, X, ("u+s", "u*t/(u+2*s)")))
    assert str(err.value) == "action law violated: associativity (residue s*s'*u*t)"
    assert err.value.residue == "s*s'*u*t"


@pytest.mark.parametrize("images, pairs", [
    ((("y", "1/x"), ("1/x", "1/y"), ("1/y", "x")),
     [("a", "a"), ("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"), ("c", "c")]),
    ((("1/x", "1/y"),), []),
])
def test_a_finite_action_composes_only_the_unsettled_pairs(images, pairs, monkeypatch):
    # the golden Z/4 rotation and the Cremona Z/2: e in {g, h, gh} is settled by
    # the identity law and by the inverse pairing, so only the other pairs are
    # proved, by pulling rho_g's coordinates back along rho_h; no map is
    # composed, and no pairing is proved twice: the identity map came paired,
    # and each other pair {g, g^-1} costs one round trip, b o a = id on a
    # plane, which proves a o b = id as well (a and c share one)
    X = affine_space(["x", "y"])
    elements = ("e", "a", "b", "c")[:len(images) + 1]
    n = len(elements)
    G = finite_group(elements, {(g, h): elements[(i + j) % n]
                                for i, g in enumerate(elements) for j, h in enumerate(elements)})
    maps = {"e": identity_map(X)} | {g: rational_map(X, X, rep) for g, rep in zip(elements[1:], images)}
    owner = {id(f.num): g for g, m in maps.items() for f in m.reps[0]}
    along = {id(m.images()): h for h, m in maps.items()}
    substituted, composed, proved = [], [], []
    real_pullback, real_compose = weilreg.actions.pullback, weilreg.maps.compose
    real_roundtrip = weilreg.maps._roundtrip_is_identity

    def spy(host, num, den, images):
        substituted.append((owner[id(num)], along[id(images)]))
        return real_pullback(host, num, den, images)

    def roundtrip(phi, psi):
        proved.append((phi, psi))
        return real_roundtrip(phi, psi)

    monkeypatch.setattr(weilreg.actions, "pullback", spy)
    monkeypatch.setattr(weilreg.maps, "_roundtrip_is_identity", roundtrip)
    for module in [m for name, m in sys.modules.items() if name.startswith("weilreg")]:
        if getattr(module, "compose", None) is real_compose:
            monkeypatch.setattr(module, "compose", lambda phi, psi: composed.append((phi, psi)))
    make_rational_action(G, X, maps)
    assert list(dict.fromkeys(substituted)) == pairs
    assert not composed and len(proved) == len({frozenset((g, G.invert_point(g))) for g in elements[1:]})


@pytest.mark.parametrize("space", [affine_space(["u", "v"]), variety(["x", "y"], "x*y-1")])
def test_a_finite_action_refuses_an_element_map_of_another_space(space):
    # another plane, or the torus under the plane's own names: an element map
    # must go from the acted-on space to itself
    X = affine_space(["x", "y"])
    u, v = space.names
    sig = rational_map(space, space, (f"1/{u}", f"1/{v}"))
    with pytest.raises(NotAnAction) as err:
        make_rational_action(cyclic_group_2(("e", "sig")), X, {"e": identity_map(X), "sig": sig})
    assert err.value.law == "shape"


def test_a_finite_identity_element_that_moves_a_point_fails_with_its_residue():
    # only the Python API reaches this: a session's identity map is implied
    X = affine_space(["x", "y"])
    G = cyclic_group_2(("e", "sig"))
    flip = rational_map(X, X, ("y", "x"))
    with pytest.raises(NotAnAction) as err:
        make_rational_action(G, X, {"e": rational_map(X, X, ("x", "2*y")), "sig": flip})
    assert err.value.law == "identity" and err.value.residue == "y"


def test_non_homomorphism_finite_rejected():
    G = cyclic_group_2(("e", "g"))
    X = affine_space(["x", "y"])
    not_involution = rational_map(X, X, ("x+1", "y"))
    with pytest.raises(NotAnAction):
        make_rational_action(G, X, {"e": identity_map(X), "g": not_involution})


# -- lift ---------------------------------------------------------------------------------


def test_lift_of_blowup_action(blowup_action):
    forward, backward = lift_action(blowup_action)
    P = forward.source
    expected_fwd = rational_map(P, P, ("s", "u+s", "u*t/(u+s)"))
    expected_bwd = rational_map(P, P, ("s", "u-s", "u*t/(u-s)"))
    assert maps_equal(forward, expected_fwd)
    assert maps_equal(backward, expected_bwd)


def test_lift_of_translation_is_polynomial_both_ways(translation_action):
    forward, backward = lift_action(translation_action)
    assert all(f.is_polynomial() for f in forward.reps[0])
    assert all(f.is_polynomial() for f in backward.reps[0])


def test_finite_element_maps_come_paired_from_specialize():
    names = ("e", "a", "b", "c")  # Z/4, generated by a
    G = finite_group(names, {(p, q): names[(i + j) % 4]
                             for i, p in enumerate(names) for j, q in enumerate(names)})
    X = affine_space(["x", "y"])
    maps = {"e": identity_map(X), "a": rational_map(X, X, ("y", "1/x")),
            "b": rational_map(X, X, ("1/x", "1/y")), "c": rational_map(X, X, ("1/y", "x"))}
    rotation = make_rational_action(G, X, maps)
    a, c = specialize(rotation, "a"), specialize(rotation, "c")
    assert inverse(a) is c and inverse(c) is a


def test_a_finite_action_has_no_lift(cremona_action):
    with pytest.raises(NotApplicable, match="use specialize"):
        lift_action(cremona_action)


def test_parametric_regular_locus_needs_an_irreducible_group():
    mu2 = variety(["z"], "z^2-1", irreducible=False)
    z, z2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    group = make_group(mu2, [z * z2], [Polynomial.variable(1, 0)], (1,))
    with pytest.raises(NotApplicable, match="irreducible group"):
        g_regular_locus(RationalAction(group, affine_space(["x"])))


# -- specialize ------------------------------------------------------------------------------


def test_specialize_blowup_at_one(blowup_action):
    rho1 = specialize(blowup_action, (1,))
    X = rho1.source
    assert maps_equal(rho1, rational_map(X, X, ("u+1", "u*t/(u+1)")))
    assert rho1.memo.get(("inverse", ())) is not None


def test_a_specialize_pair_proves_both_round_trips(blowup_action, monkeypatch):
    # one substituted round trip proves both: rho_-1 o rho_1 = id between
    # varieties of one dimension makes rho_1 dominant, so rho_1 o rho_-1 = id
    import weilreg.maps

    trips = []
    real = weilreg.maps._roundtrip_is_identity
    monkeypatch.setattr(weilreg.maps, "_roundtrip_is_identity", lambda a, b: trips.append((a, b)) or real(a, b))
    rho1 = specialize(blowup_action, (1,))
    rho1_inv = rho1.memo["inverse", ()]
    assert trips == [(rho1, rho1_inv)]
    assert real(rho1_inv, rho1)


def test_a_memo_entry_is_keyed_by_normalised_arguments(blowup_action):
    ideal = Ideal(2, [Polynomial.variable(2, 0) ** 2 - Polynomial.variable(2, 1)])
    assert ideal.groebner_basis() is ideal.groebner_basis(GREVLEX) is ideal.groebner_basis(order=GREVLEX)
    rho1 = specialize(blowup_action, [1])
    assert specialize(blowup_action, (1,)) is rho1 and specialize(blowup_action, (Fraction(1),)) is rho1
    assert rho1.images() is rho1.images(0)
    # the inverse element's map was recorded with it
    assert specialize(blowup_action, [-1]) is rho1.memo["inverse", ()]


def test_a_restriction_copies_the_element_maps_one_way(blowup_action):
    rho1 = specialize(blowup_action, (1,))
    restricted = restrict_to_open(blowup_action, OpenSubset(blowup_action.space, [Polynomial.variable(2, 0)]))
    assert specialize(restricted, (1,)) is rho1
    assert specialize(restricted, (2,)) is not specialize(blowup_action, (2,))


def test_specialize_at_identity_is_identity(blowup_action, cremona_action):
    X = blowup_action.space
    assert maps_equal(specialize(blowup_action, (0,)), identity_map(X))
    assert maps_equal(specialize(cremona_action, "e"), identity_map(cremona_action.space))


def test_specialize_translation(translation_action):
    X = translation_action.space
    assert maps_equal(specialize(translation_action, (3,)), rational_map(X, X, ("x+3", "y")))


def test_specialize_requires_group_point(blowup_action, cremona_action):
    with pytest.raises(PointNotOnGroup):
        specialize(cremona_action, "tau")


# -- G-regular locus --------------------------------------------------------------------------


def test_blowup_regular_locus_is_chart_minus_exceptional_fiber(blowup_action):
    reg = g_regular_locus(blowup_action)
    X = blowup_action.space
    assert reg.locus.witnesses == (X.poly("u"),)
    [bad] = reg.bad_ideals
    assert bad == Ideal(2, [X.poly("u")])
    # open with proper complement on an irreducible host: dense
    assert reg.locus.is_dense()


def test_cremona_regular_locus_is_torus(cremona_action):
    reg = g_regular_locus(cremona_action)
    X = cremona_action.space
    assert reg.locus.witnesses == (X.poly("x*y"),)
    assert reg.locus.complement_ideal == Ideal(2, [X.poly("x*y")])


def test_translation_regular_locus_is_everything(translation_action):
    reg = g_regular_locus(translation_action)
    assert reg.locus.is_all()


# -- restriction --------------------------------------------------------------------------------


def test_restrict_cremona_to_torus_makes_action_regular(cremona_action):
    X = cremona_action.space
    torus_part = OpenSubset(X, [X.poly("x*y")])
    restricted = restrict_to_open(cremona_action, torus_part)
    reg = g_regular_locus(restricted)
    # every point of the open host is regular: witnesses cover the host
    assert reg.locus.witnesses == restricted.domain.witnesses


def test_restrict_blowup_to_punctured_chart_all_points_regular(blowup_action):
    restricted = restrict_to_regular_locus(blowup_action)
    reg = g_regular_locus(restricted)
    samples = [(u, t) for u in (-3, -1, 1, 2) for t in (-2, 0, 1)]
    for p in samples:
        if restricted.domain.contains_point(p):
            assert reg.locus.contains_point(p)


def test_restrict_to_everything_changes_nothing(blowup_action):
    X = blowup_action.space
    restricted = restrict_to_open(blowup_action, OpenSubset.full(X))
    assert not restricted.is_restricted
    assert g_regular_locus(restricted).locus.witnesses == g_regular_locus(blowup_action).locus.witnesses


# -- sampled pointwise regularity laws --------------------------------------------------------------


def _tilde_biregular_at(action, witnesses, g, x):
    point = tuple(Fraction(c) for c in g) + tuple(Fraction(c) for c in x)
    return any(w.evaluate(point) != 0 for w in witnesses)


def test_regular_image_stays_regular_on_samples(blowup_action):
    # if x is G-regular and the lifted map is biregular at (g, x), then g.x is G-regular
    reg = g_regular_locus(blowup_action)
    breg = tilde_biregular_locus(blowup_action)
    count = 0
    for s in range(-3, 4):
        for u in range(-3, 4):
            for t in range(-3, 4):
                if not reg.locus.contains_point((u, t)):
                    continue
                if not _tilde_biregular_at(blowup_action, breg.witnesses, (s,), (u, t)):
                    continue
                ok, image = action_point_defined(blowup_action, (s,), (u, t))
                assert ok
                assert reg.locus.contains_point(image)
                count += 1
    assert count >= 200


def test_biregular_composition_law_on_samples(blowup_action):
    # if the lift is biregular at (g, x) and rho_h is biregular at g.x,
    # then the lift is biregular at (h+g, x)
    breg = tilde_biregular_locus(blowup_action)
    count = 0
    for h in range(-2, 3):
        h_breg = element_biregular_locus(blowup_action, (h,))
        for s in range(-2, 3):
            for u in range(-2, 3):
                for t in range(-2, 3):
                    if not _tilde_biregular_at(blowup_action, breg.witnesses, (s,), (u, t)):
                        continue
                    ok, image = action_point_defined(blowup_action, (s,), (u, t))
                    if not ok or not h_breg.contains_point(image):
                        continue
                    assert _tilde_biregular_at(blowup_action, breg.witnesses, (h + s,), (u, t))
                    count += 1
    assert count >= 200


def test_defined_implies_biregular_after_restriction(blowup_action):
    # on the restriction to the G-regular locus, defined points are biregular points
    restricted = restrict_to_regular_locus(blowup_action)
    count = 0
    for s in range(-3, 4):
        breg_s = element_biregular_locus(restricted, (s,))
        for u in range(-3, 4):
            for t in range(-3, 4):
                ok, _ = action_point_defined(restricted, (s,), (u, t))
                if not ok:
                    continue
                assert breg_s.contains_point((u, t))
                count += 1
    assert count >= 100
