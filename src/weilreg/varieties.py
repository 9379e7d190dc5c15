"""Affine varieties, open subsets, and product ambients.

An open subset is stored as a finite union of principal opens: the witness
list gives polynomials q with the subset equal to the union of the D(q); the
closed complement is then generated by exactly those witnesses.
"""

from .errors import EmptyOpen, ImproperIdeal, PointNotOnVariety
from .exprparse import parse_polynomial
from .ideals import Ideal
from .orders import GREVLEX
from .poly import Polynomial, format_polynomial, rational
from .polygcd import squarefree_part


class AffineVariety:
    """Closed subvariety of affine space: named coordinates plus a defining
    ideal, with irreducibility asserted by the caller.  An irreducible
    variety's ideal must be prime, and nothing checks it: function-field
    computations (rational functions, slice certificates) assume it, so a
    declared V(x*y) gets normal forms modulo I : den^inf, not modulo I."""

    __slots__ = ("names", "ideal", "irreducible")

    def __init__(self, names, ideal: Ideal, irreducible: bool = True, check: bool = True):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate coordinate names in {names}")
        if ideal.arity != len(names):
            raise ImproperIdeal("defining ideal arity does not match the coordinate count")
        if check and ideal.is_unit():
            raise ImproperIdeal("defining ideal is the unit ideal; the variety would be empty")
        self.names = names
        self.ideal = ideal
        self.irreducible = irreducible

    @property
    def arity(self) -> int:
        return len(self.names)

    def poly(self, text: str) -> Polynomial:
        return parse_polynomial(text, self.names)

    def point_on(self, point) -> bool:
        point = tuple(map(rational, point))
        return len(point) == self.arity and all(g.evaluate(point) == 0 for g in self.ideal.gens)

    def require_point(self, point, error=PointNotOnVariety, name="variety"):
        """The point as a tuple of coordinates in `rational` form (ints
        where integral); error, naming the variety as name, if it has the
        wrong length or misses the defining ideal."""
        point = tuple(map(rational, point))
        if len(point) != self.arity:
            raise error(f"{format_point(point)} has {len(point)} coordinates; the {name} has {self.arity}")
        if not self.point_on(point):
            raise error(f"{format_point(point)} does not satisfy the {name}'s defining ideal")
        return point

    def format(self, p: Polynomial) -> str:
        return format_polynomial(p, self.names)

    def __repr__(self):
        gens = ", ".join(self.format(g) for g in self.ideal.gens) or "0"
        return f"AffineVariety({', '.join(self.names)} | {gens})"


def format_point(point) -> str:
    """A point as a parenthesised tuple of rationals, e.g. ``(1, -1/2)``."""
    return "(" + ", ".join(str(rational(c)) for c in point) + ")"


def affine_space(names) -> AffineVariety:
    return AffineVariety(names, Ideal.zero(len(tuple(names))))


def variety(names, *gen_texts, irreducible: bool = True) -> AffineVariety:
    names = tuple(names)
    gens = [parse_polynomial(t, names) for t in gen_texts]
    return AffineVariety(names, Ideal(len(names), gens), irreducible)


def varieties_equal(a: AffineVariety, b: AffineVariety) -> bool:
    return a.names == b.names and a.ideal == b.ideal


def product_names(a_names, b_names):
    """Second-factor names get primes appended until free of collisions."""
    used = list(a_names)
    out = []
    for name in b_names:
        candidate = name
        while candidate in used or candidate in out:
            candidate += "'"
        out.append(candidate)
    return tuple(a_names) + tuple(out)


class ProductAmbient:
    """Bookkeeping for a product of two varieties inside one polynomial ring."""

    __slots__ = ("left", "right", "names", "left_indices", "right_indices", "variety")

    def __init__(self, left: AffineVariety, right: AffineVariety):
        self.left = left
        self.right = right
        self.names = product_names(left.names, right.names)
        n, m = left.arity, right.arity
        self.left_indices = tuple(range(n))
        self.right_indices = tuple(range(n, n + m))
        gens = [g.embed(n + m, list(self.left_indices)) for g in left.ideal.gens]
        gens += [g.embed(n + m, list(self.right_indices)) for g in right.ideal.gens]
        self.variety = AffineVariety(
            self.names,
            Ideal(n + m, gens),
            irreducible=left.irreducible and right.irreducible,
            check=False,
        )

    @property
    def arity(self) -> int:
        return len(self.names)

    def embed_left(self, p: Polynomial) -> Polynomial:
        return p.embed(self.arity, list(self.left_indices))

    def embed_right(self, p: Polynomial) -> Polynomial:
        return p.embed(self.arity, list(self.right_indices))


def _normalise_witnesses(host: AffineVariety, polys):
    """Each polynomial reduced modulo I(host), made squarefree and primitive;
    zeros dropped, and (1,) as soon as one is a nonzero constant."""
    out = []
    for w in polys:
        w = host.ideal.normal_form(w)
        if not w.is_constant():
            w = host.ideal.normal_form(squarefree_part(w)).primitive(GREVLEX)
        if w.is_zero():
            continue
        if w.is_constant():
            return (Polynomial.one(host.arity),)
        out.append(w)
    return _sorted_witnesses(out)


def _sorted_witnesses(witnesses):
    """Normalised witnesses, each once, by degree and then grevlex; (1,) if
    one is the constant 1."""
    if any(w.is_constant() for w in witnesses):
        return (Polynomial.one(witnesses[0].arity),)
    return tuple(sorted(dict.fromkeys(witnesses), key=lambda p: (p.total_degree(), p.sort_key(GREVLEX))))


class OpenSubset:
    """Finite union of principal opens of a host variety."""

    __slots__ = ("host", "witnesses")

    def __init__(self, host: AffineVariety, witnesses):
        self.host = host
        self.witnesses = _normalise_witnesses(host, witnesses)

    @classmethod
    def full(cls, host: AffineVariety) -> "OpenSubset":
        return cls(host, [Polynomial.one(host.arity)])

    @property
    def complement_ideal(self) -> Ideal:
        """Ideal of the closed complement inside the host."""
        return Ideal(self.host.arity, self.witnesses)

    def is_empty(self) -> bool:
        return not self.witnesses

    def is_all(self) -> bool:
        return any(w.is_constant() for w in self.witnesses)

    def require_nonempty(self):
        if self.is_empty():
            raise EmptyOpen("open subset degenerated to the empty set")
        return self

    def contains_point(self, point) -> bool:
        point = self.host.require_point(point)
        return any(w.evaluate(point) != 0 for w in self.witnesses)

    def union(self, other: "OpenSubset") -> "OpenSubset":
        """D(self) u D(other): both sets of witnesses, already normalised."""
        merged = OpenSubset.__new__(OpenSubset)
        merged.host = self.host
        merged.witnesses = _sorted_witnesses(self.witnesses + other.witnesses)
        return merged

    def intersect(self, other: "OpenSubset") -> "OpenSubset":
        if self.host is not other.host and not varieties_equal(self.host, other.host):
            raise ValueError("open subsets live on different hosts")
        products = [a * b for a in self.witnesses for b in other.witnesses]
        return OpenSubset(self.host, products)

    def __repr__(self):
        ws = ", ".join(self.host.format(w) for w in self.witnesses) or "(empty)"
        return f"OpenSubset(D({ws}) in {self.host!r})"
