"""Chart atlases: the glued model of an action whose points are all
G-regular, represented as chart copies of the space plus transition maps,
together with the four machine-checkable gluing conditions.

The glued object is never embedded; the checks certify exactly the
conditions that make the quotient of the chart union a separated variety
carrying a regular action: transition symmetry, the cocycle identity,
closedness of the transition graphs, and the finite covering of the group
by shifted biregularity loci.

Transition (i, j) is the element map of g_j^-1 * g_i, so k charts give k^2
transitions, stored in chart-pair order, over at most 2k - 1 group elements,
and equal elements share one map object.  Each check caches its verdicts by the transition map objects,
which hash by identity: it is evaluated once per map (the cocycle check once
per triple of maps) and reported per chart pair.

Symmetry is certified by the exact round trip in both directions that
`specialize` made when it paired the maps of g and g^-1: `inverse` returns
that partner, and the check compares it with the reverse transition.

The cocycle tau_jk o tau_ij = tau_ik is composed only where no existing
certificate settles it.  Each tau_dd is checked to be the identity,
coordinate by coordinate.  For i = j or j = k, with tau_jj the identity and
a pairing recorded on tau_ij by `_pair_inverses`, the composite is tau_ij:
a paired map is dominant, so `compose` could neither raise NotDominant nor
meet a denominator pulling back to zero.  For i = k, with tau_ii the
identity and tau_ij's recorded inverse tau_ji, the pairing proved tau_ji o
tau_ij = id by exact substitution.  Maps without such records are composed.

Separatedness is one question about rho: G x X -> X, asked once per atlas,
since every transition is rho at a group point.  Let J be the graph
closure of rho on (G x X) x X (memoized on rho, which a restriction shares
with its action) and w the squarefree denominator product of rho's first
representative.  If (ws(x) wt(y))^N lies in J + (w) for every pair of host
witnesses, then at a group point g where no denominator of that
representative vanishes identically, specialising gives it in J_g + (w(g));
tau_g comes from that representative, so its reduced denominators divide
those of w(g), and J_g lies in tau_g's closure ideal: every zero of tau_g's
bad-locus ideal is a zero of J_g + (w(g)), and tau_g passes the exact test.
Only the first representative may be used: the definable locus of all of
rho's representatives intersects their bad loci, which the one
representative of tau_g need not share.  Every other transition (the family
test failed, the denominator vanishes at g, or the action is finite and has
no rho) gets the exact `is_graph_closed`, which supplies every witness.
"""

from dataclasses import dataclass
from itertools import product

from .actions import (
    RationalAction,
    element_biregular_locus,
    specialize,
    tilde_biregular_locus,
)
from .errors import PointNotOnGroup, ZeroDenominator
from .ideals import Ideal, saturate
from .maps import (_denominator_product, closed_over_host, compose, graph_closure, identity_map, inverse,
                   is_graph_closed, maps_equal)
from .poly import Polynomial
from .ratfunc import FractionImages, compose_poly
from .varieties import OpenSubset


@dataclass
class AtlasReport:
    symmetry: dict = None
    cocycle: dict = None
    separated: dict = None
    covering: dict = None

    def all_passed(self) -> bool:
        return all(part and part.get("passed") for part in
                   (self.symmetry, self.cocycle, self.separated, self.covering))


@dataclass
class Atlas:
    action: RationalAction
    points: tuple  # group points; first is the identity
    transitions: dict  # (i, j) -> RationalMap from chart i to chart j
    elements: dict  # (i, j) -> group point g_j^-1 * g_i, whose element map is transition (i, j)


def build_atlas(action: RationalAction, points=None) -> Atlas:
    """Atlas over the given group points (the identity leads; for finite
    groups the default is every element)."""
    group = action.group
    if points is None:
        if not group.is_finite:
            raise PointNotOnGroup("a finite list of group points is required")
        points = list(group.elements)
    points = [group.require_point(p) for p in points]
    e = group.identity_point()
    if points[0] != e:
        if e in points:
            points.remove(e)
        points.insert(0, e)
    transitions, elements = {}, {}
    for i, gi in enumerate(points):
        for j, gj in enumerate(points):
            g = group.multiply_points(group.invert_point(gj), gi)
            elements[(i, j)] = g
            transitions[(i, j)] = specialize(action, g)
    return Atlas(action, tuple(points), transitions, elements)


def _check_symmetry(atlas: Atlas) -> dict:
    """tau_ji = tau_ij^-1, once per map pair (tau_ij, tau_ji): tau_ji is compared
    with the partner certified by the exact round trip when the pair was formed."""
    failures = []
    verdicts = {}
    for (i, j), tau in atlas.transitions.items():
        if i == j:
            continue
        key = (tau, atlas.transitions[(j, i)])
        if key not in verdicts:
            verdicts[key] = maps_equal(inverse(tau), key[1])
        if not verdicts[key]:
            failures.append([i, j])
    return {"passed": not failures, "failures": failures}


def _check_cocycle(atlas: Atlas) -> dict:
    """tau_jk o tau_ij = tau_ik, decided once per map triple (tau_ij, tau_jk,
    tau_ik); None records a ZeroDenominator skip.  A repeated index passes
    uncomposed where the identity tau_jj and a pairing recorded on tau_ij
    (i = j or j = k), or the identity tau_ii and tau_ij's recorded inverse
    tau_ji (i = k), prove it (module docstring)."""
    failures = []
    skipped = []
    verdicts = {}
    transitions = atlas.transitions
    m = len(atlas.points)
    ident = identity_map(atlas.action.space)
    identity = {tau: maps_equal(tau, ident) for tau in {transitions[(d, d)] for d in range(m)}}
    for i, j, k in product(range(m), repeat=3):
        key = (transitions[(i, j)], transitions[(j, k)], transitions[(i, k)])
        if key not in verdicts:
            paired = key[0].memo.get(("inverse", ()))
            if ((i == j or j == k) and identity[transitions[(j, j)]] and paired is not None
                    or i == k and identity[key[2]] and paired is key[1]):
                verdicts[key] = True
                continue
            try:
                verdicts[key] = maps_equal(compose(key[0], key[1]), key[2])
            except ZeroDenominator:
                verdicts[key] = None
        if verdicts[key] is None:
            skipped.append([i, j, k])
        elif not verdicts[key]:
            failures.append([i, j, k])
    return {"passed": not failures, "failures": failures, "skipped": skipped}


def _check_separated(atlas: Atlas) -> dict:
    """One closed-graph verdict per transition map: True where the family
    test of rho passed once for the atlas and rho's first representative
    specialises at the map's group point (module docstring), else
    `is_graph_closed`'s verdict and witness."""
    action = atlas.action
    rho = action.rho
    family = False
    if not action.is_finite and len(atlas.points) > 1:
        w = OpenSubset(rho.source, [_denominator_product(rho.reps[0], rho.source.arity)]).witnesses
        family = closed_over_host(graph_closure(rho), w, action.domain, action.ambient.embed_right)[0]
    failures = {}
    verdicts = {}
    for (i, j), tau in atlas.transitions.items():
        if i == j:
            continue
        if tau not in verdicts:
            g = atlas.elements[(i, j)]
            if family and not any(action.space.ideal.contains(f.den.specialize(g)) for f in rho.reps[0]):
                verdicts[tau] = True, None
            else:
                verdicts[tau] = is_graph_closed(tau, action.domain)
        closed, witness = verdicts[tau]
        if not closed:
            failures[(i, j)] = witness
    return {"passed": not failures, "witnesses": failures}


def _check_covering(atlas: Atlas) -> dict:
    """The shifted complements of the biregularity locus must have empty
    common intersection over the (possibly restricted) host."""
    action = atlas.action
    if action.is_finite:
        group = action.group
        passed = True
        for g in group.elements:
            gens = []
            for gi in atlas.points:
                h = group.multiply_points(group.invert_point(gi), g)
                gens.extend(element_biregular_locus(action, h).witnesses)
            ideal = Ideal(action.space.arity, gens)
            for v in action.domain.witnesses:
                if not saturate(ideal, v).is_unit():
                    passed = False
        return {"passed": passed}
    amb = action.ambient
    breg = tilde_biregular_locus(action)
    gens = []
    for point in atlas.points:  # g -> (point^-1) * g in the witnesses over the product ring
        inv_point = action.group.invert_point(point)
        shift = FractionImages([amb.embed_left(m.specialize(inv_point)) for m in action.group.mult]
                               + [Polynomial.variable(amb.arity, j) for j in amb.right_indices])
        gens.extend(compose_poly(w, shift)[0] for w in breg.witnesses)
    gens += list(amb.variety.ideal.gens)
    covering_ideal = Ideal(amb.arity, gens)
    saturations = [saturate(covering_ideal, amb.embed_right(v)) for v in action.domain.witnesses]
    passed = all([sat.is_unit() for sat in saturations])
    return {"passed": passed, "ideal": covering_ideal, "saturations": saturations}


def check_atlas(atlas: Atlas) -> AtlasReport:
    return AtlasReport(
        symmetry=_check_symmetry(atlas),
        cocycle=_check_cocycle(atlas),
        separated=_check_separated(atlas),
        covering=_check_covering(atlas),
    )
