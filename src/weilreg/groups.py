"""Affine algebraic groups with polynomial structure maps, plus finite groups
given by a multiplication table.

Supported out of the box: the additive and multiplicative groups, finite
products of those, and finite groups by table.  Any variety with polynomial
multiplication and inversion passing the axiom checks is accepted.
"""

from .errors import AxiomFailure, PointNotOnGroup
from .poly import Polynomial, rational
from .ratfunc import FractionImages, compose_poly, pullback, residue
from .varieties import ProductAmbient, affine_space, format_point, variety


class AlgebraicGroup:
    """Either parametric (a variety with structure maps) or finite (a table)."""

    __slots__ = ("variety", "mult", "inv", "identity", "elements", "table", "_inverse_names")

    def __init__(self, variety=None, mult=None, inv=None, identity=None,
                 elements=None, table=None):
        self.variety = variety
        self.mult = tuple(mult) if mult is not None else None
        self.inv = tuple(inv) if inv is not None else None
        self.identity = tuple(map(rational, identity)) if identity is not None else None
        self.elements = tuple(elements) if elements is not None else None
        self.table = dict(table) if table is not None else None
        self._inverse_names = None
        if self.is_finite:
            self._validate_table()
        else:
            self._validate_parametric()

    @property
    def is_finite(self) -> bool:
        return self.elements is not None

    @property
    def arity(self) -> int:
        return 0 if self.is_finite else self.variety.arity

    # -- finite mode ---------------------------------------------------------

    def _validate_table(self):
        elems = self.elements
        if not elems:
            raise AxiomFailure("finite group needs at least the identity element")
        e = elems[0]
        for a, b in self.table:
            if a not in elems or b not in elems:
                raise AxiomFailure(f"table entry {a}*{b} names a non-element")
        for a in elems:
            for b in elems:
                if (a, b) not in self.table:
                    raise AxiomFailure(f"multiplication table is missing {a}*{b}")
                if self.table[(a, b)] not in elems:
                    raise AxiomFailure(f"table entry {a}*{b} is not an element")
        for a in elems:
            if self.table[(e, a)] != a or self.table[(a, e)] != a:
                raise AxiomFailure(f"identity law fails at {a}")
        inverse_names = {}
        for a in elems:
            inv = next((b for b in elems if self.table[(a, b)] == e), None)
            if inv is None or self.table[(inv, a)] != e:
                raise AxiomFailure(f"no two-sided inverse for {a}")
            inverse_names[a] = inv
        for a in elems:
            for b in elems:
                for c in elems:
                    if self.table[(self.table[(a, b)], c)] != self.table[(a, self.table[(b, c)])]:
                        raise AxiomFailure(f"associativity fails at ({a},{b},{c})")
        self._inverse_names = inverse_names

    # -- parametric mode -------------------------------------------------------

    def _validate_parametric(self):
        G = self.variety
        r = G.arity
        if self.mult is None or self.inv is None or self.identity is None:
            raise AxiomFailure("parametric group needs multiplication, inversion, identity")
        if len(self.mult) != r or len(self.inv) != r or len(self.identity) != r:
            raise AxiomFailure("structure map coordinate counts do not match the group")
        if not G.point_on(self.identity):
            raise AxiomFailure("identity point does not lie on the group variety")
        GG = ProductAmbient(G, G)
        mult, inv = FractionImages(self.mult), FractionImages(self.inv)
        # closure under multiplication and inversion
        for gen in G.ideal.gens:
            if not GG.variety.ideal.contains(compose_poly(gen, mult)[0]):
                raise AxiomFailure(f"multiplication does not land in the group: relation {G.format(gen)}")
            if not G.ideal.contains(compose_poly(gen, inv)[0]):
                raise AxiomFailure(f"inversion does not land in the group: relation {G.format(gen)}")
        coords = [Polynomial.variable(r, i) for i in range(r)]
        e, one = [Polynomial.constant(r, c) for c in self.identity], Polynomial.one(r)
        # m(e, g) = g, m(g, e) = g and m(inv(g), g) = e
        laws = (("left identity", e + coords, coords), ("right identity", coords + e, coords),
                ("inverse", list(self.inv) + coords, e))
        for law, images, expected in laws:
            images = FractionImages(images)
            for i, mi in enumerate(self.mult):
                if not residue(G, compose_poly(mi, images), (expected[i], one)).is_zero():
                    raise AxiomFailure(f"{law} law fails in coordinate {G.names[i]}")
        _, residues = self.associativity_residues(G, [(mi, Polynomial.one(2 * r)) for mi in self.mult])
        for i, res in enumerate(residues):
            if not res.is_zero():
                raise AxiomFailure(f"associativity fails in coordinate {G.names[i]}")

    def associativity_residues(self, space, rho):
        """The product G x (G x space), and per coordinate of space the normal
        form there of the numerator of rho(g, rho(g', x)) - rho(m(g, g'), x),
        for rho: G x space -> space given as fraction pairs.  The group's own
        associativity is this law for its multiplication acting on G.
        ZeroDenominator if a side's denominator vanishes identically."""
        r = self.variety.arity
        big = ProductAmbient(self.variety, ProductAmbient(self.variety, space).variety)  # (g, (g', x))
        n = big.arity
        coords = [Polynomial.variable(n, i) for i in range(n)]
        inner = [(big.embed_right(num), big.embed_right(den)) for num, den in rho]
        sides = (FractionImages(coords[:r] + inner),
                 FractionImages([mi.embed(n, list(range(2 * r))) for mi in self.mult] + coords[2 * r:]))
        return big.variety, [residue(big.variety, *(pullback(big.variety, num, den, side) for side in sides))
                             for num, den in rho]

    # -- rational points ----------------------------------------------------------

    def require_point(self, point):
        if self.is_finite:
            if point not in self.elements:
                shown = repr(point) if isinstance(point, str) else format_point(point)
                raise PointNotOnGroup(f"{shown} is not an element of the group")
            return point
        if isinstance(point, str):
            raise PointNotOnGroup(f"{point!r} names no point of a parametric group")
        return self.variety.require_point(point, PointNotOnGroup, "group")

    def multiply_points(self, g, h):
        if self.is_finite:
            return self.table[(self.require_point(g), self.require_point(h))]
        g = self.require_point(g)
        h = self.require_point(h)
        return tuple(rational(mi.evaluate(g + h)) for mi in self.mult)

    def invert_point(self, g):
        if self.is_finite:
            return self._inverse_names[self.require_point(g)]
        g = self.require_point(g)
        return tuple(rational(p.evaluate(g)) for p in self.inv)

    def identity_point(self):
        return self.elements[0] if self.is_finite else self.identity

    def __repr__(self):
        if self.is_finite:
            return f"AlgebraicGroup(finite {list(self.elements)})"
        return f"AlgebraicGroup({self.variety!r})"


def make_group(variety, mult, inv, identity) -> AlgebraicGroup:
    """Validated parametric group; raises AxiomFailure naming any violation."""
    return AlgebraicGroup(variety=variety, mult=mult, inv=inv, identity=identity)


def finite_group(elements, table) -> AlgebraicGroup:
    """Finite group from a full multiplication table; first element is the
    identity."""
    return AlgebraicGroup(elements=elements, table=table)


def cyclic_group_2(names=("e", "g")) -> AlgebraicGroup:
    e, g = names
    return finite_group(names, {(e, e): e, (e, g): g, (g, e): g, (g, g): e})


def additive_group(name: str = "s") -> AlgebraicGroup:
    G = affine_space([name])
    mult = [Polynomial.variable(2, 0) + Polynomial.variable(2, 1)]
    inv = [-Polynomial.variable(1, 0)]
    return make_group(G, mult, inv, (0,))


def multiplicative_group(names=("z", "w")) -> AlgebraicGroup:
    z, w = names
    G = variety([z, w], f"{z}*{w}-1")
    zz = Polynomial.variable(4, 0) * Polynomial.variable(4, 2)
    ww = Polynomial.variable(4, 1) * Polynomial.variable(4, 3)
    inv = [Polynomial.variable(2, 1), Polynomial.variable(2, 0)]
    return make_group(G, [zz, ww], inv, (1, 1))


def product_group(a: AlgebraicGroup, b: AlgebraicGroup) -> AlgebraicGroup:
    """Direct product of two parametric groups."""
    if a.is_finite or b.is_finite:
        raise AxiomFailure("product groups are supported in parametric mode only")
    ra, rb = a.arity, b.arity
    amb = ProductAmbient(a.variety, b.variety)
    r = ra + rb
    # index blocks inside (G x G) of the product: (a, b, a', b')
    a_pair = list(range(ra)) + list(range(r, r + ra))
    b_pair = list(range(ra, r)) + list(range(r + ra, 2 * r))
    mult = [mi.embed(2 * r, a_pair) for mi in a.mult]
    mult += [mi.embed(2 * r, b_pair) for mi in b.mult]
    inv = [amb.embed_left(p) for p in a.inv] + [amb.embed_right(p) for p in b.inv]
    return make_group(amb.variety, mult, inv, a.identity + b.identity)
