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
and equal elements share one map object.  Every check therefore reads the
group: it keys its verdicts by a transition's element (the cocycle check by
a chart triple's element pair), decides each once, and reports per chart
pair or triple.  With a = g_j^-1 g_i and b = g_k^-1 g_j, tau_ik is the map of
ba, so symmetry is the inverse law and the cocycle tau_jk o tau_ij = tau_ik
is the action law rho_b o rho_a = rho_ba at (a, b).  The action certified
both.  `specialize` paired the maps of g and g^-1 by an exact round trip,
so symmetry reads that pairing: `inverse` returns the partner, which must
be the reverse transition.  Each element's pairing is read once and serves
symmetry and the cocycle alike.  The declared identity law rho_e = id
settles the cocycle at a = e and b = e, and the pairing settles it at
ba = e; a finite action proved its law on every pair at declaration.  Every
other pair is the pair of a triple of three distinct charts.

The six orderings of such a triple (i, j, k) give the element pairs (a, b),
(a^-1, ba), (ba, b^-1), (b, (ba)^-1), ((ba)^-1, a) and (b^-1, a^-1), and
one cocycle verdict serves all six when each of the chart pairs (i, j),
(j, k) and (i, k) carries a recorded pairing, inverse(tau_xy) is tau_yx.
The pairing is a round trip proved exactly, so each tau is an element of
the group Bir(X) of birational self-maps (X irreducible, so k(X) is a
field) with tau_yx its inverse there.  Composing tau_jk o tau_ij = tau_ik
on either side with tau_ji, tau_kj or tau_ki turns it into each of the other
five identities, and back: tau_ik o tau_ji = tau_jk, for one, is the first
identity composed on the right with tau_ji.  So one composition per orbit
decides it; an orbit missing a pairing (a hand-built or corrupted atlas), or
whose composition meets a zero denominator, is composed key by key.

Separatedness is one question about rho: G x X -> X, asked once per atlas,
since every transition is rho at a group point.  Let J + (w) be the
boundary of rho's graph closure on (G x X) x X (memoized on rho, which a
restriction shares with its action), w from rho's first representative
alone: tau_g comes from that representative and need not share the bad
loci of the others.  If (ws(x) wt(y))^N lies in J + (w) for every pair of
host witnesses, then at a group point g where no denominator of that
representative vanishes identically, specialising gives it in J_g + (w(g));
tau_g's reduced denominators divide those of w(g), and J_g lies in tau_g's
closure ideal: every zero of tau_g's bad-locus ideal is a zero of
J_g + (w(g)), and tau_g passes the exact test.  Every other transition (the
family test failed, the denominator vanishes at g, or the action is finite
and has no rho) gets the exact `is_graph_closed`, which supplies every
witness.
"""

from dataclasses import dataclass, field
from itertools import permutations, product

from .actions import (
    RationalAction,
    element_biregular_locus,
    specialize,
    tilde_biregular_locus,
)
from .errors import PointNotOnGroup, ZeroDenominator
from .ideals import Ideal, saturate
from .maps import closed_over_host, compose, graph_closure, inverse, is_graph_closed, maps_equal
from .poly import Polynomial
from .ratfunc import FractionImages, compose_poly


@dataclass
class AtlasReport:
    symmetry: dict
    cocycle: dict
    separated: dict
    covering: dict

    def all_passed(self) -> bool:
        return all(part["passed"] for part in (self.symmetry, self.cocycle, self.separated, self.covering))


@dataclass
class Atlas:
    action: RationalAction
    points: tuple  # group points; first is the identity
    elements: dict = field(init=False)  # (i, j) -> g_j^-1 * g_i
    transitions: dict = field(init=False)  # (i, j) -> map from chart i to chart j: specialize at elements[(i, j)]

    def __post_init__(self):
        group = self.action.group
        inverses = [group.invert_point(g) for g in self.points]
        self.elements = {(i, j): group.multiply_points(gj_inv, gi)
                         for (i, gi), (j, gj_inv) in product(enumerate(self.points), enumerate(inverses))}
        self.transitions = {pair: specialize(self.action, g) for pair, g in self.elements.items()}


def build_atlas(action: RationalAction, points=None) -> Atlas:
    """Atlas over the given group points (the identity leads, once; for
    finite groups the default is every element)."""
    group = action.group
    if points is None:
        if not group.is_finite:
            raise PointNotOnGroup("a finite list of group points is required")
        points = list(group.elements)
    e = group.identity_point()
    return Atlas(action, (e, *(p for p in map(group.require_point, points) if p != e)))


def _pairings(atlas: Atlas) -> dict:
    """Whether tau_ji is the recorded inverse of tau_ij, the partner that
    `specialize` paired with it by an exact round trip, read once per element
    g_j^-1 * g_i off the diagonal."""
    paired = {}
    for (i, j), g in atlas.elements.items():
        if i != j and g not in paired:
            paired[g] = inverse(atlas.transitions[(i, j)]) is atlas.transitions[(j, i)]
    return paired


def _check_symmetry(atlas: Atlas, paired: dict) -> dict:
    """tau_ji = tau_ij^-1, the pairing verdict of the element g_j^-1 * g_i."""
    failures = [[i, j] for (i, j), g in atlas.elements.items() if i != j and not paired[g]]
    return {"passed": not failures, "failures": failures}


def _check_cocycle(atlas: Atlas, paired: dict) -> dict:
    """tau_jk o tau_ij = tau_ik, decided once per element pair (a, b) =
    (g_j^-1 g_i, g_k^-1 g_j): settled by the action's certificates where the
    action is finite or e is among a, b and ba = g_k^-1 g_i, composed
    elsewhere, once per orbit of the six orderings of the chart triple where
    its three chart pairs are paired (module docstring); None records a
    ZeroDenominator skip, which is never shared."""
    failures = []
    skipped = []
    verdicts = {}
    transitions, elements = atlas.transitions, atlas.elements
    index = {}  # group element -> small int, so the k^3 triples hash no group points
    ids = {pair: index.setdefault(g, len(index)) for pair, g in elements.items()}
    e = ids[0, 0]  # every diagonal element is the identity
    for i, j, k in product(range(len(atlas.points)), repeat=3):
        key = ids[i, j], ids[j, k]
        if key not in verdicts:
            if atlas.action.is_finite or e in (*key, ids[i, k]):
                verdicts[key] = True
                continue
            try:
                verdict = maps_equal(compose(transitions[(i, j)], transitions[(j, k)]), transitions[(i, k)])
            except ZeroDenominator:
                verdict = None
            verdicts[key] = verdict
            if verdict is not None and all(paired[elements[pair]] for pair in ((i, j), (j, k), (i, k))):
                for p, q, r in permutations((i, j, k)):
                    verdicts.setdefault((ids[p, q], ids[q, r]), verdict)
        if verdicts[key] is None:
            skipped.append([i, j, k])
        elif not verdicts[key]:
            failures.append([i, j, k])
    return {"passed": not failures, "failures": failures, "skipped": skipped}


def _check_separated(atlas: Atlas) -> dict:
    """One closed-graph verdict per element g: True where the family test of
    rho passed once for the atlas and rho's first representative specialises
    at g (module docstring), else `is_graph_closed`'s verdict and witness."""
    action = atlas.action
    rho = action.rho
    family = not action.is_finite and len(atlas.points) > 1 and closed_over_host(
        graph_closure(rho), (), action.domain, action.ambient.embed_right)[0]
    failures = {}
    verdicts = {}
    for (i, j), g in atlas.elements.items():
        if i == j:
            continue
        if g not in verdicts:
            if family and not any(action.space.ideal.contains(f.den.specialize(g)) for f in rho.reps[0]):
                verdicts[g] = True, None
            else:
                verdicts[g] = is_graph_closed(atlas.transitions[(i, j)], action.domain)
        closed, witness = verdicts[g]
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
    paired = _pairings(atlas)
    return AtlasReport(
        symmetry=_check_symmetry(atlas, paired),
        cocycle=_check_cocycle(atlas, paired),
        separated=_check_separated(atlas),
        covering=_check_covering(atlas),
    )
