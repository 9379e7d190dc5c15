"""Rational maps between affine varieties: graphs, closed images, composition,
inversion, definable and biregular loci, the closed-graph test, and the
tri-state point evaluator.

All loci are representative-generated: they are sound under-approximations
that are exact on every fixture shipped with the test suite, and callers may
add representatives to enlarge them.

Each birational fact is proved once: one round trip b o a = id pairs a with
its inverse b between varieties of one dimension (`_pair_inverses`), and one
boundary J + (w) serves a graph closure's dimension certificate and its
closed-graph test (`graph_closure`).
"""

from dataclasses import dataclass
from functools import reduce

from .errors import (
    NotBirational,
    NotComposable,
    NotDominant,
    NotIntoTarget,
    RepresentativeMismatch,
    RoundTripFailure,
    ZeroDenominator,
)
from .ideals import Ideal, dimension, eliminate, memoized, saturate
from .orders import block_order
from .poly import Polynomial
from .polygcd import squarefree_part
from .ratfunc import FractionImages, RationalFunction, compose_poly, pullback, reduced_fraction, residue
from .varieties import AffineVariety, OpenSubset, ProductAmbient, varieties_equal


@dataclass(frozen=True)
class GraphClosure:
    """Vanishing ideal of the closure of the set-theoretic graph, living in
    the product ambient source x target."""

    ambient: ProductAmbient
    ideal: Ideal
    boundary: Ideal  # ideal + (w), w the first representative's denominator witness

    @property
    def names(self) -> tuple:
        return self.ambient.names


@dataclass(frozen=True)
class PointStatus:
    kind: str  # DEFINED | UNDEFINED | UNKNOWN
    value: tuple = None

    def __repr__(self):
        if self.kind == "DEFINED":
            return f"DEFINED{self.value}"
        return self.kind


class RationalMap:
    """Rational map given by one or more tuples of coordinate fractions."""

    __slots__ = ("source", "target", "reps", "memo")

    def __init__(self, source, target, reps):
        self.source = source
        self.target = target
        self.reps = tuple(tuple(rep) for rep in reps)
        self.memo = {}

    @memoized(key=lambda phi, r=0: (r,))
    def images(self, r: int = 0) -> FractionImages:
        """The fraction images of representative r, whose table every
        composition through this map shares."""
        return FractionImages(f.fraction_pair() for f in self.reps[r])

    def __repr__(self):
        body = ", ".join(repr(f) for f in self.reps[0])
        return f"RationalMap(({body}))"


def make_rational_map(source: AffineVariety, target: AffineVariety, reps) -> RationalMap:
    """Validate and build a rational map.

    Each representative is a tuple of RationalFunctions on an irreducible
    source, one per target coordinate.  Validation checks that target
    relations pull back to zero and that representatives agree pairwise.
    """
    if not reps:
        raise ValueError("at least one representative required")
    packed = []
    for rep in reps:
        rep = tuple(rep)
        if len(rep) != target.arity:
            raise ValueError(f"representative has {len(rep)} coordinates, target needs {target.arity}")
        for f in rep:
            if not varieties_equal(f.host, source):
                raise ValueError("representative coordinates must live on the source")
        packed.append(rep)
    phi = RationalMap(source, target, packed)
    for r in range(len(packed)):
        for gen in target.ideal.gens:
            if not source.ideal.contains(compose_poly(gen, phi.images(r))[0]):
                raise NotIntoTarget(
                    f"pullback of target relation {target.format(gen)} does not vanish on the source"
                )
    for a in range(len(packed)):
        for b in range(a + 1, len(packed)):
            for j, (fa, fb) in enumerate(zip(packed[a], packed[b])):
                if not fa.equals(fb):
                    raise RepresentativeMismatch(
                        f"representatives {a} and {b} disagree in coordinate {j}"
                    )
    return phi


def rational_map(source: AffineVariety, target: AffineVariety, *rep_texts) -> RationalMap:
    """Convenience: representatives as tuples of expression strings."""
    reps = []
    for rep in rep_texts:
        reps.append(tuple(RationalFunction.parse(source, t) for t in rep))
    return make_rational_map(source, target, reps)


def identity_map(X: AffineVariety) -> RationalMap:
    rep = tuple(RationalFunction.coordinate(X, i) for i in range(X.arity))
    m = RationalMap(X, X, [rep])
    _pair_inverses(m, m, RoundTripFailure("the identity map does not round-trip"))
    return m


# -- graph ---------------------------------------------------------------------


@memoized
def graph_closure(phi: RationalMap) -> GraphClosure:
    """The closure of phi's graph, J : w^inf for J = I(X) + (den_j*y_j - num_j)
    over the source's relations alone and w the witness `definable_locus`
    reads for the first representative's denominator product (its radical
    modulo I(X) is the product's, so both saturate J alike), with its
    boundary, the closure plus (w).  The target's relations lie in J : w^inf,
    as `make_rational_map` proved that they pull back into I(X); where w lies
    in I(X), as a host that is not prime allows, J : w^inf = (1).

    J is returned unsaturated when dim X = N - |I(X).gens| (N the source
    arity) and dim(J + (w)) < dim X.  V(J) is the graph over X meet D(w)
    together with V(J + (w)), so dim J <= dim X and the height of J is at
    least its |I(X).gens| + m generators: J is a complete intersection,
    unmixed by Macaulay's theorem (Eisenbud, GTM 150, ch. 18), and an
    associated prime holding w would have its zero set in V(J + (w)), so
    J : w^inf = J.  (y/x, y/x) on A^2 fails the test: J + (x) = (x, y) has
    dimension 2, and J : x^inf also holds u - v."""
    X = phi.source
    amb = ProductAmbient(X, phi.target)
    ideal = Ideal(amb.arity, [amb.embed_left(g) for g in X.ideal.gens] + [
        amb.embed_left(f.den) * Polynomial.variable(amb.arity, j) - amb.embed_left(f.num)
        for j, f in zip(amb.right_indices, phi.reps[0])])
    witness = _denominator_locus(phi, 0).witnesses
    if not witness:
        ideal = Ideal(amb.arity, [Polynomial.one(amb.arity)])
        return GraphClosure(amb, ideal, ideal)
    w = amb.embed_left(witness[0])
    boundary = ideal.plus([w])
    if not w.is_constant():
        dim_x = dimension(X.ideal)
        if dim_x != X.arity - len(X.ideal.gens) or dimension(boundary) >= dim_x:
            ideal = saturate(ideal, w)
            boundary = ideal.plus([w])
    return GraphClosure(amb, ideal, boundary)


@memoized
def closed_image(phi: RationalMap) -> AffineVariety:
    graph = graph_closure(phi)
    amb = graph.ambient
    projected = eliminate(graph.ideal, set(amb.left_indices))
    gens = [g.restrict(amb.right_indices) for g in projected.gens]
    return AffineVariety(
        phi.target.names, Ideal(amb.right.arity, gens), irreducible=phi.source.irreducible, check=False
    )


@memoized
def is_dominant(phi: RationalMap) -> bool:
    return closed_image(phi).ideal == phi.target.ideal


# -- composition and equality ----------------------------------------------------


def compose(phi: RationalMap, psi: RationalMap) -> RationalMap:
    """The composition psi o phi (first phi, then psi); phi must be dominant."""
    if not varieties_equal(phi.target, psi.source):
        raise NotComposable("target of the first map is not the source of the second")
    if not is_dominant(phi):
        raise NotDominant("cannot compose through a non-dominant map")
    src = phi.source
    last_error = None
    for r in range(len(phi.reps)):
        images = phi.images(r)
        for rep_psi in psi.reps:
            try:
                coords = [f.substitute(images, src) for f in rep_psi]
            except ZeroDenominator as err:
                last_error = err
                continue
            return make_rational_map(src, psi.target, [tuple(coords)])
    raise last_error if last_error else ZeroDenominator("no composable representative pair")


def maps_equal(phi: RationalMap, psi: RationalMap) -> bool:
    if not varieties_equal(phi.source, psi.source) or not varieties_equal(phi.target, psi.target):
        raise NotComposable("maps compare only between identical varieties")
    for fa, fb in zip(phi.reps[0], psi.reps[0]):
        if not fa.equals(fb):
            return False
    return True


# -- inversion --------------------------------------------------------------------


def _roundtrip_is_identity(phi: RationalMap, psi: RationalMap) -> bool:
    """psi o phi = id on phi's source, by direct substitution."""
    src = phi.source
    images, one = phi.images(), Polynomial.one(src.arity)
    for k, f in enumerate(psi.reps[0]):
        try:
            pair = pullback(src, f.num, f.den, images)
        except ZeroDenominator:
            return False
        if not residue(src, pair, (Polynomial.variable(src.arity, k), one)).is_zero():
            return False
    return True


def _pair_inverses(a: RationalMap, b: RationalMap, error: Exception) -> None:
    """Record a and b as mutually inverse birational maps once the round trip
    b o a = id is proved by exact substitution; raise error, recording
    nothing, if it fails.  The only writer of a map's `inverse` memo entry
    (and of `is_dominant`, for both maps); a recorded pair is not proved again.

    b o a = id makes a injective on a dense open set, so a's image closure
    has dimension dim X; where that is dim Y, it is all of the irreducible Y
    on which b's coordinates live: a is dominant.  Then a o b o a = a, and
    pulling back along a dominant a is injective on k(Y), so a o b = id, and
    D(b) pulls back along a to D, nonzero on the source, so a's denominators
    stay nonzero after substituting b.  Where the dimensions differ,
    a o b = id is substituted too, and fails."""
    if a.memo.get(("inverse", ())) is b:
        return
    if not (_roundtrip_is_identity(a, b) and (dimension(a.source.ideal) == dimension(a.target.ideal)
                                              or _roundtrip_is_identity(b, a))):
        raise error
    a.memo["inverse", ()], b.memo["inverse", ()] = b, a
    a.memo["is_dominant", ()] = b.memo["is_dominant", ()] = True


@memoized
def inverse(phi: RationalMap) -> RationalMap:
    """Rational inverse extracted from the graph closure.

    Failure raises NotBirational: a failure to certify, not a proof that no
    inverse exists.
    """
    if not is_dominant(phi):
        raise NotDominant("only dominant maps can be inverted")
    if not phi.target.irreducible:
        raise NotBirational("inverse construction needs an irreducible target")
    graph = graph_closure(phi)
    amb = graph.ambient
    src_vars = set(amb.left_indices)
    order = block_order(src_vars)
    basis = graph.ideal.groebner_basis(order)
    # a*x_k + c has block-order lead x_k once restricted to the source variables
    leads = [tuple(e if i in src_vars else 0 for i, e in enumerate(g.leading_term(order)[0])) for g in basis]
    tgt = phi.target
    coords = []
    zero_head = (0,) * amb.arity
    for k in amb.left_indices:
        unit = tuple(1 if i == k else 0 for i in range(amb.arity))
        candidate = None
        for g in (g for g, lead in zip(basis, leads) if lead == unit):
            buckets = g.coefficients_wrt(src_vars)
            heads = [h for h, _ in buckets]
            if set(heads) == {unit, zero_head} or heads == [unit]:
                a = dict(buckets)[unit]
                c = dict(buckets).get(zero_head, Polynomial.zero(amb.arity))
                a_t = a.restrict(amb.right_indices)
                c_t = c.restrict(amb.right_indices)
                try:
                    candidate = reduced_fraction(tgt, -c_t, a_t)
                except ZeroDenominator:
                    continue
                break
        if candidate is None:
            raise NotBirational(f"no element linear in source coordinate {phi.source.names[k]}")
        coords.append(candidate)
    try:
        psi = make_rational_map(tgt, phi.source, [tuple(coords)])
    except (NotIntoTarget, ZeroDenominator) as err:
        raise NotBirational(f"extracted candidate is not a map into the source: {err}")
    _pair_inverses(phi, psi, NotBirational("round-trip identity failed for the extracted candidate"))
    return psi


# -- loci --------------------------------------------------------------------------


def _denominator_product(rep, arity: int) -> Polynomial:
    """Product of the integer-primitive parts of the non-constant denominators
    of one representative: a witness up to the constant `OpenSubset` drops."""
    q = Polynomial.one(arity)
    for f in rep:
        if not f.den.is_constant():
            q = q * Polynomial._of(arity, f.den.integer_primitive()[1])
    return q


@memoized(key=lambda phi, r: (r,))
def _denominator_locus(phi: RationalMap, r: int) -> OpenSubset:
    """D(q) for q the denominator product of representative r, normalised
    once: `graph_closure` reads representative 0's witness from it."""
    return OpenSubset(phi.source, [_denominator_product(phi.reps[r], phi.source.arity)])


@memoized
def definable_locus(phi: RationalMap) -> OpenSubset:
    """Union over representatives of the opens where all denominators are
    nonzero (the computed domain of definition)."""
    return reduce(OpenSubset.union, (_denominator_locus(phi, r) for r in range(len(phi.reps))))


@memoized
def biregular_locus(phi: RationalMap) -> OpenSubset:
    """Union over representative pairs (of the map and its inverse) of opens
    on which the map restricts to an open immersion."""
    psi = inverse(phi)
    witnesses = []
    for r, rep in enumerate(phi.reps):
        images = phi.images(r)
        q = _denominator_product(rep, phi.source.arity)
        for rep_inv in psi.reps:
            q_inv = _denominator_product(rep_inv, psi.source.arity)
            witnesses.append(q * compose_poly(q_inv, images)[0])
    return OpenSubset(phi.source, witnesses)


# -- closed graph test ---------------------------------------------------------------


def is_graph_closed(phi: RationalMap, host: OpenSubset = None):
    """Is the graph of phi (restricted to host) closed in host x host?

    Returns (True, None) or (False, witness_ideal): the witness is the ideal
    of closure points over the complement of the computed domain that survive
    inside host x host.
    """
    if host is None:
        host = OpenSubset.full(phi.source)
    if not varieties_equal(phi.source, phi.target):
        raise NotComposable("closed-graph test applies to self-maps")
    return closed_over_host(graph_closure(phi), definable_locus(phi).witnesses, host)


def closed_over_host(graph: GraphClosure, witnesses, host: OpenSubset, embed=lambda p: p):
    """The bad-locus test of `is_graph_closed`: (True, None) when no zero of
    the graph's boundary plus the further witnesses (polynomials on the
    graph's source) has its source point over host and its target point in
    host, else (False, the first surviving saturation).  `embed` takes host
    polynomials to the source's ring (the right embedding for G x host)."""
    amb = graph.ambient
    bad = graph.boundary.plus([amb.embed_left(w) for w in witnesses])
    for ws in host.witnesses:
        for wt in host.witnesses:
            sat = saturate(bad, amb.embed_left(embed(ws)) * amb.embed_right(wt))
            if not sat.is_unit():
                return False, sat
    return True, None


# -- point evaluation -----------------------------------------------------------------


def _fiber_ideal(phi: RationalMap, point):
    """The graph closure's fibre over a source point, as an ideal on the target."""
    return Ideal(phi.target.arity, [g.specialize(point) for g in graph_closure(phi).ideal.gens])


def point_status(phi: RationalMap, point) -> PointStatus:
    """DEFINED with the image, UNDEFINED, or UNKNOWN (singleton graph fiber
    that no supplied representative reaches)."""
    point = phi.source.require_point(point, name="source")
    for rep in phi.reps:
        if all(f.den.evaluate(point) != 0 for f in rep):
            value = tuple(f.evaluate(point) for f in rep)
            return PointStatus("DEFINED", value)
    fiber = _fiber_ideal(phi, point)
    if dimension(fiber) != 0:  # an empty or positive-dimensional fibre
        return PointStatus("UNDEFINED")
    m = phi.target.arity
    for k in range(m):
        # a zero-dimensional fibre holds a nonzero polynomial in each coordinate alone
        uni = eliminate(fiber, set(range(m)) - {k})
        g = min(uni.gens, key=lambda p: p.degree_in(k))
        if squarefree_part(g).degree_in(k) >= 2:  # two distinct roots
            return PointStatus("UNDEFINED")
    return PointStatus("UNKNOWN")
