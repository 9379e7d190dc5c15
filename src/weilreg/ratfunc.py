"""Rational functions on an irreducible affine variety, and the fraction
substitution machinery used to compose coordinate expressions.

Numerator and denominator are kept exactly as supplied; use ``simplified``
where a canonical representative is wanted.  Every identity in k(X) is one
`residue`, lnum*rden - rnum*lden modulo the host ideal, so un-simplified
representatives compare correctly.

Every substitution, of polynomials or of fractions, runs on one tuple of
images held as a `FractionImages`: a polynomial image q is the fraction q/1,
and substituting polynomials into p is the numerator of `compose_poly`.  It
owns a table of the images of the homogenised monomials, filled as
compositions ask for them, so repeated compositions through the same images
reuse the products.  A table lives as long as its owner:
`maps.RationalMap.images` keeps one per representative of a map, and a law
check keeps one per image list for the length of the check.  Nothing is
cached beyond them.

`compose_fraction` homogenises num and den with one degree vector, so the
gcd layer finds no redundant factor to cancel, and clears their coefficient
denominators, where the pair is read as a fraction: the table then sums
products of ints for integral images.  `compose_poly`'s pair is exact.
"""

from fractions import Fraction
from math import lcm
from operator import sub

from .errors import ArityMismatch, ZeroDenominator
from .exprparse import parse_fraction
from .poly import Polynomial, format_polynomial, rational
from .polygcd import simplify_fraction
from .varieties import AffineVariety, format_point


class FractionImages:
    """Fraction images (num_i, den_i) of the variables x_i, with their table.
    An image given as a polynomial q is the fraction q/1.

    A monomial of a polynomial homogenised as c*x^e*w^(deg-e) is keyed by its
    exponent vector (e, deg-e); its image is prod num_i^e_i * den_i^(deg-e)_i,
    computed once as the image of the same vector with its last nonzero
    exponent lowered by one, times the num_i or den_i of that exponent.
    """

    __slots__ = ("arity", "_bases", "_monomials")

    def __init__(self, pairs):
        pairs = [q if isinstance(q, tuple) else (q, Polynomial.one(q.arity)) for q in pairs]
        if not pairs:
            raise ValueError("no images supplied")
        self.arity = pairs[0][0].arity
        bases = [num for num, _ in pairs] + [den for _, den in pairs]
        self._bases = bases
        n = len(bases)
        self._monomials = {(0,) * n: Polynomial.one(self.arity)}
        for i, base in enumerate(bases):
            self._monomials[(0,) * i + (1,) + (0,) * (n - 1 - i)] = base

    def __len__(self):
        return len(self._bases) // 2

    def monomial(self, key) -> Polynomial:
        """The image of the homogenised monomial key."""
        image = self._monomials.get(key)
        steps = []
        while image is None:  # walk down to an image in the table
            last = max(i for i, e in enumerate(key) if e)
            steps.append((key, last))
            key = key[:last] + (key[last] - 1,) + key[last + 1:]
            image = self._monomials.get(key)
        for key, last in reversed(steps):
            image = self._monomials[key] = image * self._bases[last]
        return image


def compose_poly(p: Polynomial, images: FractionImages):
    """Substitute the fraction images (num_i, den_i) into p.

    Returns a fraction pair over the images' ring: num_i and den_i are
    substituted for x_i and w_i in p homogenised as c*x^e*w^(deg-e), and in
    the denominator prod w_i^deg_i.  The numerator is the sum of the table's
    monomial images scaled by p's coefficients; the denominator is a table
    entry.
    """
    degs = tuple(max(p.degree_in(i), 0) for i in range(p.arity))
    return _homogenised_image(p, images, degs), images.monomial((0,) * p.arity + degs)


def _homogenised_image(p: Polynomial, images: FractionImages, degs) -> Polynomial:
    """The numerator of p's image, p homogenised to the degrees degs."""
    if len(images) != p.arity:
        raise ArityMismatch("one image per variable required")
    num = {}
    for exps, coeff in p.terms.items():
        for e, c in images.monomial(exps + tuple(map(sub, degs, exps))).terms.items():
            num[e] = num.get(e, 0) + coeff * c
    return Polynomial._of(images.arity, {e: rational(c) for e, c in num.items() if c})


def compose_fraction(num: Polynomial, den: Polynomial, images: FractionImages):
    """(num/den) after substituting fraction images for the variables: the
    pair (s*num(phi)*W, s*den(phi)*W), W = prod den_i^D_i with D_i the larger
    degree of num and den in x_i, and s > 0 the lcm of their coefficient
    denominators.  Cross-multiplying the sides' own composites would carry
    prod den_i^min(...) on top; W itself is never built."""
    scale = lcm(*(c.denominator for q in (num, den) for c in q.terms.values()))
    if scale != 1:
        num, den = num.scale(scale), den.scale(scale)
    degs = tuple(max(num.degree_in(i), den.degree_in(i), 0) for i in range(num.arity))
    return _homogenised_image(num, images, degs), _homogenised_image(den, images, degs)


def pullback(host: AffineVariety, num: Polynomial, den: Polynomial, images: FractionImages):
    """(num/den) composed with the fraction images, as an unreduced fraction
    pair on host; ZeroDenominator if the composite denominator lies in the
    host ideal.  `RationalFunction.substitute` is the reduced counterpart."""
    num, den = compose_fraction(num, den, images)
    if host.ideal.contains(den):
        raise ZeroDenominator("denominator vanishes identically after substitution")
    return num, den


def residue(host: AffineVariety, lhs, rhs) -> Polynomial:
    """The normal form on host of lnum*rden - rnum*lden: zero exactly when the
    fraction pairs lhs = (lnum, lden) and rhs = (rnum, rden) agree in k(host)."""
    (lnum, lden), (rnum, rden) = lhs, rhs
    return host.ideal.normal_form(lnum * rden - rnum * lden)


def reduced_fraction(host: AffineVariety, num: Polynomial, den: Polynomial) -> "RationalFunction":
    """num/den on host, with both sides reduced modulo the host ideal and the
    common factor cancelled; ZeroDenominator if den vanishes on the host."""
    den = host.ideal.normal_form(den)
    if den.is_zero():
        raise ZeroDenominator("denominator vanishes identically after substitution")
    num, den = simplify_fraction(host.ideal.normal_form(num), den)
    # the cancelled den divides a normal form outside the host ideal, so it is
    # outside the ideal too: the constructor's membership test is skipped
    return RationalFunction._of(host, num, den)


class RationalFunction:
    """Element of the function field of an irreducible affine variety."""

    __slots__ = ("host", "num", "den")

    def __init__(self, host: AffineVariety, num: Polynomial, den: Polynomial = None):
        self._bind(host, num, Polynomial.one(host.arity) if den is None else den)
        if host.ideal.contains(self.den):
            raise ZeroDenominator(f"denominator {host.format(self.den)} vanishes on the host")

    @classmethod
    def _of(cls, host: AffineVariety, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """num/den for a den known to lie outside the host ideal, without testing it."""
        out = cls.__new__(cls)
        out._bind(host, num, den)
        return out

    def _bind(self, host, num, den):
        if not host.irreducible:
            raise ValueError("rational functions require an irreducible host")
        if num.arity != host.arity or den.arity != host.arity:
            raise ValueError("numerator/denominator arity does not match the host")
        self.host = host
        self.num = num
        self.den = den

    @classmethod
    def parse(cls, host: AffineVariety, text: str) -> "RationalFunction":
        num, den = parse_fraction(text, host.names)
        return cls(host, num, den)

    @classmethod
    def coordinate(cls, host: AffineVariety, index: int) -> "RationalFunction":
        return cls(host, Polynomial.variable(host.arity, index))

    def fraction_pair(self):
        return self.num, self.den

    def simplified(self) -> "RationalFunction":
        return reduced_fraction(self.host, self.num, self.den)

    def equals(self, other: "RationalFunction") -> bool:
        return residue(self.host, self.fraction_pair(), other.fraction_pair()).is_zero()

    def evaluate(self, point) -> Fraction:
        point = self.host.require_point(point)
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDenominator(f"denominator vanishes at {format_point(point)}")
        return self.num.evaluate(point) / d

    def substitute(self, images: FractionImages, new_host: AffineVariety) -> "RationalFunction":
        """Compose with fraction images of this host's coordinates, producing
        a function on new_host."""
        return reduced_fraction(new_host, *compose_fraction(self.num, self.den, images))

    def __repr__(self):
        return fraction_text(self)


def fraction_text(f: "RationalFunction") -> str:
    """Canonical compact form, parenthesising only where reparsing needs it."""
    names = f.host.names
    num = format_polynomial(f.num, names)
    if f.den.is_constant() and f.den.constant_value() == 1:
        return num
    den = format_polynomial(f.den, names)
    if any(c in num[1:] for c in "+-"):
        num = f"({num})"
    if any(c in den[1:] for c in "+-*"):
        den = f"({den})"
    return f"{num}/{den}"
