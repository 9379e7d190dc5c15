"""Rational actions of algebraic groups on affine varieties.

A parametric action is a rational map G x X -> X validated against the
identity and associativity laws; a finite action is one birational map per
group element validated against the multiplication table.  Every law is a
`ratfunc.residue` of pulled-back coordinates: no law builds a map.  The
module computes the lifted product map (g, x) |-> (g, rho(g, x)), its
inverse, and the locus of G-regular points.
"""

from dataclasses import dataclass
from .errors import EmptyLocus, NotAnAction, NotApplicable, RoundTripFailure, ZeroDenominator
from .groups import AlgebraicGroup
from .ideals import Ideal, memoized
from .maps import RationalMap, _pair_inverses, biregular_locus, make_rational_map, point_status
from .orders import block_order
from .poly import Polynomial
from .ratfunc import FractionImages, RationalFunction, compose_poly, pullback, reduced_fraction, residue
from .varieties import AffineVariety, OpenSubset, ProductAmbient, format_point, varieties_equal


@dataclass
class GRegularLocus:
    """The computed locus of points whose lifted action map is biregular on a
    dense set of group elements."""

    locus: OpenSubset
    bad_ideals: list


class RationalAction:
    __slots__ = ("group", "space", "ambient", "rho", "maps", "domain", "memo")

    def __init__(self, group: AlgebraicGroup, space: AffineVariety, rho=None,
                 maps=None, domain: OpenSubset = None):
        self.group = group
        self.space = space
        self.ambient = None if group.is_finite else ProductAmbient(group.variety, space)
        self.rho = rho
        self.maps = dict(maps) if maps is not None else None
        self.domain = domain if domain is not None else OpenSubset.full(space)
        self.memo = {}

    @property
    def is_finite(self) -> bool:
        return self.group.is_finite

    @property
    def is_restricted(self) -> bool:
        return not self.domain.is_all()

    def __repr__(self):
        kind = "finite" if self.is_finite else "parametric"
        return f"RationalAction({kind}, on {self.space!r})"


@memoized(key=lambda action, g: (action.group.require_point(g),))
def specialize(action: RationalAction, g) -> RationalMap:
    """The birational map of one group element, with its inverse attached;
    the inverse element's map is recorded with it."""
    if action.is_finite:
        return action.maps[g]
    result = _specialize_raw(action, g)
    g_inv = action.group.invert_point(g)
    candidate = result if g_inv == g else _specialize_raw(action, g_inv)
    _pair_inverses(result, candidate, RoundTripFailure(
        f"specialisations at {format_point(g)} and {format_point(g_inv)} are not mutually inverse"))
    action.memo["specialize", (g_inv,)] = candidate
    return result


def _specialize_raw(action: RationalAction, point) -> RationalMap:
    X = action.space
    for rep in action.rho.reps:
        try:
            coords = [reduced_fraction(X, f.num.specialize(point), f.den.specialize(point)) for f in rep]
        except ZeroDenominator:
            continue
        return make_rational_map(X, X, [tuple(coords)])
    raise ZeroDenominator(f"denominators vanish identically at the group point {format_point(point)}")


def make_rational_action(group: AlgebraicGroup, space: AffineVariety, rho) -> RationalAction:
    """Validate the action laws and build the action.

    Parametric: rho is a rational map on the product of the group and the
    space; identity and associativity are checked as exact identities.
    Finite: rho maps each element to a rational self-map of the space; the
    identity law and the homomorphism law on every pair are proved.
    """
    if group.is_finite:
        action = RationalAction(group, space, maps=rho)
        _validate_finite_action(action)
        return action
    action = RationalAction(group, space, rho=rho)
    if not (varieties_equal(rho.source, action.ambient.variety) and varieties_equal(rho.target, space)):
        raise NotAnAction("shape", "the map must go from the group-space product to the space")
    try:
        rho_e = _specialize_raw(action, group.identity_point())
    except ZeroDenominator as err:
        raise NotAnAction("identity", str(err))
    _validate_identity_law(action, rho_e)
    _validate_associativity_law(action)
    return action


def _validate_identity_law(action: RationalAction, rho_e: RationalMap):
    """rho_e = id on X; the first nonzero residue x_k o rho_e - x_k is the failure's."""
    X = action.space
    for k, f in enumerate(rho_e.reps[0]):
        r = residue(X, f.fraction_pair(), (Polynomial.variable(X.arity, k), Polynomial.one(X.arity)))
        if not r.is_zero():
            raise NotAnAction("identity", residue=X.format(r))


def _validate_associativity_law(action: RationalAction):
    """rho(g, rho(g', x)) = rho(m(g, g'), x) on G x (G x X), for rho's first
    representative.  Embedding rho's denominators in G x (G x X) keeps them
    nonzero there: I(G x (G x X)) meet k[G x X] = I(G x X)."""
    try:
        big, residues = action.group.associativity_residues(
            action.space, [f.fraction_pair() for f in action.rho.reps[0]])
    except ZeroDenominator:
        raise NotAnAction("associativity", "law is not checkable with this representative")
    r = next((r for r in residues if not r.is_zero()), None)
    if r is not None:
        raise NotAnAction("associativity", residue=big.format(r.primitive()))


def _validate_finite_action(action: RationalAction):
    """rho_g o rho_h = rho_gh, proved only where e is not among g, h, gh:
    rho_e = id settles g = e and h = e, and pairing rho_g with rho_g^-1 (one
    round trip on X proves both) settles gh = e.  The rest pull rho_g back
    along rho_h, paired and so dominant, and take residues against rho_gh."""
    G, X, maps = action.group, action.space, action.maps
    if set(maps) != set(G.elements):
        raise NotAnAction("homomorphism", "need exactly one map per group element")
    seen = set()  # one map object per element, so no pairing overwrites another's inverse
    for g, m in maps.items():
        if not (varieties_equal(m.source, X) and varieties_equal(m.target, X)):
            raise NotAnAction("shape", f"the map of {g} must go from the space to itself")
        maps[g] = RationalMap(m.source, m.target, m.reps) if m in seen else m
        seen.add(m)
    e = G.identity_point()
    _validate_identity_law(action, maps[e])
    # attach inverses so every element map is certified birational
    for g in G.elements:
        g_inv = G.invert_point(g)
        _pair_inverses(maps[g], maps[g_inv], NotAnAction(
            "homomorphism", f"maps of {g} and {g_inv} are not mutually inverse"))
    for g in G.elements:
        for h in G.elements:
            gh = G.table[(g, h)]
            if e not in (g, h, gh) and any(
                    not residue(X, pullback(X, f.num, f.den, maps[h].images()), f_gh.fraction_pair()).is_zero()
                    for f, f_gh in zip(maps[g].reps[0], maps[gh].reps[0])):
                raise NotAnAction("homomorphism", f"map of {g}*{h} differs from the composition")


# -- the lifted product map ----------------------------------------------------------


@memoized
def lift_action(action: RationalAction):
    """The pair (g, x) |-> (g, rho(g, x)) and its inverse (g, y) |-> (g, rho(g^-1, y)).

    The inverse comes from conjugating with the group-inversion swap, so no
    Groebner inversion is needed; the round trip is verified exactly.  A
    finite action has no product to lift on: `specialize` gives each
    element's map, paired with its inverse element's.
    """
    if action.is_finite:
        raise NotApplicable("a finite action lifts per element: use specialize")
    amb = action.ambient
    P = amb.variety
    g_coords = tuple(RationalFunction.coordinate(P, i) for i in amb.left_indices)
    forward = make_rational_map(P, P, [g_coords + tuple(
        RationalFunction(P, f.num, f.den) for f in action.rho.reps[0])])
    images = FractionImages([amb.embed_left(p) for p in action.group.inv]
                            + [Polynomial.variable(amb.arity, j) for j in amb.right_indices])
    back_coords = [f.substitute(images, P) for f in action.rho.reps[0]]
    backward = make_rational_map(P, P, [g_coords + tuple(back_coords)])
    _pair_inverses(forward, backward, RoundTripFailure(
        "lifted action map and its conjugated inverse do not round-trip"))
    return forward, backward


def tilde_biregular_locus(action: RationalAction) -> OpenSubset:
    """Biregular locus of the lifted map on the product, with the restriction
    witnesses (x in the domain, g.x in the domain) multiplied in."""
    forward, _ = lift_action(action)
    return _restrict_locus(action, biregular_locus(forward), action.rho, action.ambient.embed_right)


def element_biregular_locus(action: RationalAction, g) -> OpenSubset:
    """Biregular locus of one element's map, restricted to the action domain."""
    m = specialize(action, g)
    return _restrict_locus(action, biregular_locus(m), m, lambda v: v)


def _restrict_locus(action: RationalAction, base: OpenSubset, phi: RationalMap, embed) -> OpenSubset:
    """base restricted to the action domain: w * v * (v o phi) for each base
    witness w and domain witness v, where phi is the action map on base's
    host and `embed` takes v into that host's ring."""
    if not action.is_restricted:
        return base
    images = phi.images()
    return OpenSubset(base.host, [w * embed(v) * compose_poly(v, images)[0]
                                  for w in base.witnesses for v in action.domain.witnesses])


def action_point_defined(action: RationalAction, g, x):
    """Whether g.x is defined for the (possibly restricted) action, and its
    value when it is: (True, value) or (False, None)."""
    m = specialize(action, g)
    st = point_status(m, x)
    if st.kind != "DEFINED":
        return False, None
    if action.is_restricted:
        if not action.domain.contains_point(x) or not action.domain.contains_point(st.value):
            return False, None
    return True, st.value


# -- the G-regular locus ----------------------------------------------------------------


@memoized
def g_regular_locus(action: RationalAction) -> GRegularLocus:
    X = action.space
    if action.is_finite:
        bad_ideals = []
        locus = OpenSubset.full(X)
        for g in action.group.elements:
            breg = element_biregular_locus(action, g)
            bad = Ideal(X.arity, breg.witnesses)
            bad = Ideal(X.arity, bad.groebner_basis())
            bad_ideals.append(bad)
            locus = locus.intersect(breg)
    else:
        if not action.group.variety.irreducible:
            raise NotApplicable("parametric G-regular loci need an irreducible group")
        amb = action.ambient
        breg = tilde_biregular_locus(action)
        group_ideal = Ideal(amb.arity, [amb.embed_left(g) for g in action.group.variety.ideal.gens])
        order = block_order(amb.left_indices)
        coeffs = []
        for w in breg.witnesses:
            nf = group_ideal.normal_form(w, order)
            for _, c in nf.coefficients_wrt(amb.left_indices):
                coeffs.append(c.restrict(amb.right_indices))
        bad = Ideal(X.arity, coeffs)
        bad = Ideal(X.arity, bad.groebner_basis())
        locus, bad_ideals = OpenSubset(X, bad.gens), [bad]
    locus = locus.intersect(action.domain)
    if locus.is_empty():
        raise EmptyLocus("no G-regular points certified; supply more representatives")
    return GRegularLocus(locus, bad_ideals)


def restrict_to_open(action: RationalAction, subset: OpenSubset) -> RationalAction:
    """The induced action on a nonempty open subset of the space.

    The maps are unchanged; all loci computations pick up witnesses for
    membership of the point and of its image.  The restriction starts with
    a copy of the action's element maps and lifted product maps, which
    depend on rho and G alone, and shares nothing after.
    """
    subset.require_nonempty()
    domain = action.domain.intersect(subset)
    domain.require_nonempty()
    restricted = RationalAction(action.group, action.space, action.rho, action.maps, domain)
    restricted.memo.update((entry, result) for entry, result in action.memo.items()
                           if entry[0] in ("specialize", "lift_action"))
    return restricted


def restrict_to_regular_locus(action: RationalAction) -> RationalAction:
    """Restriction to the computed G-regular locus."""
    return restrict_to_open(action, g_regular_locus(action).locus)
