"""Multivariate polynomial gcd and exact division.

The gcd is computed by the classical primitive pseudo-remainder recursion:
pick a main variable, split into content and primitive part over the smaller
ring, run a pseudo-Euclidean loop on the primitive parts, recurse for the
contents.  Sizes in this toolkit are small, so no subresultant refinements
are needed.
"""

from fractions import Fraction

from .orders import GREVLEX
from .poly import Polynomial


def divide_exact(f: Polynomial, g: Polynomial):
    """Quotient f/g when g divides f exactly, else None."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    out = f.divide((g,), GREVLEX, exact=True)
    return None if out is None else out[0][0]


def derivative(f: Polynomial, var: int) -> Polynomial:
    res = {}
    for exps, coeff in f.terms.items():
        e = exps[var]
        if not e:
            continue
        new = list(exps)
        new[var] = e - 1
        res[tuple(new)] = coeff * e
    return Polynomial(f.arity, res)


def _univariate_parts(f: Polynomial, var: int):
    """Coefficient polynomials of f by powers of var: list indexed by power."""
    deg = f.degree_in(var)
    parts = [dict() for _ in range(deg + 1)]
    for exps, coeff in f.terms.items():
        e = exps[var]
        rest = list(exps)
        rest[var] = 0
        parts[e][tuple(rest)] = coeff
    return [Polynomial(f.arity, p) for p in parts]


def _content_wrt(f: Polynomial, var: int) -> Polynomial:
    acc = Polynomial.zero(f.arity)
    for part in _univariate_parts(f, var):
        if not part.is_zero():
            acc = poly_gcd(acc, part)
    return acc


def _pseudo_rem(a, b, var: int):
    """Pseudo-remainder of a by b in the main variable."""
    db = b.degree_in(var)
    lb = _univariate_parts(b, var)[db]
    r = a
    xv = Polynomial.variable(a.arity, var)
    while not r.is_zero() and r.degree_in(var) >= db:
        dr = r.degree_in(var)
        lr = _univariate_parts(r, var)[dr]
        r = r * lb - b * lr * xv ** (dr - db)
    return r


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Gcd normalised to be integer-primitive with positive leading coefficient.

    gcd(0, 0) = 0; constants have gcd 1 (we work over a field).
    """
    if f.is_zero() and g.is_zero():
        return Polynomial.zero(f.arity)
    if f.is_zero():
        return g.primitive()
    if g.is_zero():
        return f.primitive()
    fvars = f.variables_present()
    gvars = g.variables_present()
    if not fvars or not gvars:
        return Polynomial.one(f.arity)
    common = fvars | gvars
    var = max(common)
    if f.degree_in(var) == 0 or g.degree_in(var) == 0:
        # var occurs in only one argument: gcd divides that one's content
        a, b = (f, g) if g.degree_in(var) else (g, f)
        return poly_gcd(a, _content_wrt(b, var))
    cf = _content_wrt(f, var)
    cg = _content_wrt(g, var)
    cont = poly_gcd(cf, cg)
    a = divide_exact(f, cf)
    b = divide_exact(g, cg)
    while not b.is_zero():
        r = _pseudo_rem(a, b, var)
        if not r.is_zero():
            rc = _content_wrt(r, var)
            r = divide_exact(r, rc)
        a, b = b, r
    return (cont * a).primitive()


def simplify_fraction(num: Polynomial, den: Polynomial):
    """Cancel the gcd and scale so the denominator is monic (grevlex)."""
    if num.is_zero():
        return num, Polynomial.one(den.arity)
    g = poly_gcd(num, den)
    if not (g.is_constant() and g.constant_value() == 1):
        num = divide_exact(num, g)
        den = divide_exact(den, g)
    lc = den.leading_term(GREVLEX)[1]
    if lc != 1:
        scale = Fraction(1) / lc
        num = num.scale(scale)
        den = den.scale(scale)
    return num, den


def squarefree_part(f: Polynomial) -> Polynomial:
    """Product of the distinct irreducible factors of f (char 0), primitive
    with positive leading coefficient; D(squarefree_part(f)) = D(f)."""
    if f.is_zero() or f.is_constant():
        return f.primitive()
    g = f
    for var in sorted(f.variables_present()):
        g = poly_gcd(g, derivative(f, var))
    if g.is_constant():
        return f.primitive()
    return divide_exact(f, g).primitive()


def squarefree_part_degree(f: Polynomial, var: int) -> int:
    """Number of distinct roots (over the closure) of a nonzero univariate
    polynomial in the given variable: deg f - deg gcd(f, f')."""
    d = f.degree_in(var)
    if d <= 0:
        return 0
    g = poly_gcd(f, derivative(f, var))
    return d - g.degree_in(var)
