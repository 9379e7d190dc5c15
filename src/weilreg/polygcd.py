"""Multivariate polynomial gcd and exact division over the rationals.

The gcd works on integer term dicts (exponent tuple -> nonzero int): a
polynomial over Q is a positive rational times an integer-primitive one, and
by Gauss's lemma gcds and exact quotients of integer-primitive polynomials
are the same over Z as over Q.  Every exact division is one run of the
division kernel `poly._reduce_terms`: through `Polynomial.divide` in
`divide_exact`, directly in GCDHEU's certificate (`_quotient`).

`poly_gcd` runs the heuristic gcd GCDHEU (Char, Geddes and Gonnet, *GCDHEU:
heuristic polynomial GCD algorithm based on integer GCD computation*, JSC
1989).  At each level of the recursion it

* splits off the gcd of the two integer contents;
* answers a monomial argument directly (x^b, b the componentwise minimum
  exponent; a constant is the monomial x^0);
* evaluates the main variable at an integer xi with
  xi >= 2*min(|f|, |g|) + 2, where |.| is the largest absolute coefficient
  (2*min + 29 here, as in sympy), and takes the gcd of the two images one
  variable down, so that the recursion ends in the integer gcd of
  `math.gcd`;
* interpolates that gcd xi-adically, reading each coefficient as digits in
  (-xi/2, xi/2], and takes the primitive part h.

h is returned only if it divides both arguments exactly.  Divisibility
makes h a common divisor, and for xi above the bound Char, Geddes and Gonnet
show that a candidate built this way which divides both arguments is their
gcd.  The exact divisions are therefore the certificate: a candidate that
fails them is never returned; h = 1 needs none, and the arguments are its
quotients.  The evaluation is retried at larger xi, and
when `HEU_TRIES` tries fail `_lcm_gcd` computes the gcd on the Groebner
engine instead: lcm(f, g) generates the intersection (f) & (g), and the gcd
is f*g / lcm.  The open `WorkLedger`'s step budget bounds that fallback.

Results are integer-primitive with a positive grevlex leading coefficient,
which makes the gcd over Q unique.  `poly_gcd` also hands out the two
cofactors, the quotients that certified h, so a caller that cancels the gcd
does not divide by it again.
"""

from fractions import Fraction
from math import gcd, isqrt
from operator import sub

from .ideals import Ideal, intersect
from .orders import GREVLEX, LEX
from .poly import Polynomial, _record, _reduce_terms, _scaled

# evaluation points tried before the Groebner fallback runs
HEU_TRIES = 6


# -- integer term dicts -------------------------------------------------------


def _quotient(f: dict, g: dict):
    """f/g for nonzero integer term dicts when g divides f in Z[x], else None.
    Then every kernel step divides exactly and never rescales; a scale other
    than 1 means g divides f over Q only (as 2x divides x)."""
    q = {}
    remainder, scale = _reduce_terms(dict(f), [_record(g, max(g))], LEX, [q])
    return None if remainder or scale != 1 else q


def _shift_down(f: dict, low) -> dict:
    """f divided by the monomial x^low, which divides each of its terms."""
    return {tuple(map(sub, e, low)): c for e, c in f.items()}


def _evaluate(f: dict, var: int, xi: int) -> dict:
    """f with variable var set to xi."""
    out = {}
    for e, c in f.items():
        k = e[var]
        if k:
            c *= xi**k
            e = e[:var] + (0,) + e[var + 1:]
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _interpolate(h: dict, var: int, xi: int) -> dict:
    """Primitive part of the polynomial in var whose coefficients of var^k are
    the k-th symmetric xi-adic digits of h's coefficients."""
    half = xi // 2
    out = {}
    for e, c in h.items():
        k = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[e[:var] + (k,) + e[var + 1:]] = d
            c = (c - d) // xi
            k += 1
    content = gcd(*out.values())
    return out if content == 1 else {e: c // content for e, c in out.items()}


def _heu_gcd(f: dict, g: dict):
    """(h, f/h, g/h) for h the gcd of nonzero integer term dicts f and g in
    Z[x], or None when GCDHEU found no candidate that divides both."""
    c = gcd(*f.values(), *g.values())
    if c != 1:
        f = {e: v // c for e, v in f.items()}
        g = {e: v // c for e, v in g.items()}
    if len(f) == 1 or len(g) == 1:
        # a monomial's divisors are monomials: x^low divides every term of both
        low = tuple(map(min, *f, *g))
        return {low: c}, _shift_down(f, low), _shift_down(g, low)
    var = max(i for e in f for i, k in enumerate(e) if k)
    zero = (0,) * len(next(iter(f)))
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(HEU_TRIES):
        ff, gg = _evaluate(f, var, xi), _evaluate(g, var, xi)
        if ff and gg:
            image = _heu_gcd(ff, gg)
            if image is None:
                return None
            h = _interpolate(image[0], var, xi)
            if h == {zero: 1}:  # 1 divides both: no division need certify it
                return {zero: c}, f, g
            qf = _quotient(f, h)
            qg = None if qf is None else _quotient(g, h)
            if qg is not None:
                return {e: v * c for e, v in h.items()}, qf, qg
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011  # about 2.7 * xi^(5/4), sympy's schedule
    return None


# -- the Groebner fallback ---------------------------------------------------------


def _lcm_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Gcd of two nonzero polynomials as f*g over their lcm, the sole
    generator of the reduced basis of (f) & (g); bounded by the open ledger."""
    (lcm,) = intersect(Ideal(f.arity, [f]), Ideal(g.arity, [g])).gens
    return divide_exact(f * g, lcm).primitive()


# -- public functions ---------------------------------------------------------------


def divide_exact(f: Polynomial, g: Polynomial):
    """Quotient f/g when g divides f exactly, else None."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    (q,), r = f.divide([g])
    return None if r else q


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


def poly_gcd(f: Polynomial, g: Polynomial):
    """(h, f/h, g/h) for h the gcd, normalised to be integer-primitive with
    positive leading coefficient.

    gcd(0, 0) = 0, with zero cofactors; constants have gcd 1 (we work over a
    field).  The cofactors are the quotients that certified h; when h is 1
    they are f and g themselves.
    """
    if f.is_zero() and g.is_zero():
        return f, f, g
    if f.is_zero() or g.is_zero():
        h = (g if f.is_zero() else f).primitive()
        return h, divide_exact(f, h), divide_exact(g, h)
    cf, F = f.integer_primitive()
    cg, G = g.integer_primitive()
    found = _heu_gcd(F, G)
    if found is None:
        h = _lcm_gcd(f, g)
        return h, divide_exact(f, h), divide_exact(g, h)
    h, qf, qg = found
    if len(h) == 1 and h.get((0,) * f.arity) == 1:
        return Polynomial.one(f.arity), f, g
    if h[max(h, key=GREVLEX.key)] < 0:
        h = {e: -v for e, v in h.items()}
        cf, cg = -cf, -cg
    return (Polynomial._of(f.arity, h),
            Polynomial._of(f.arity, _scaled(qf, cf)),
            Polynomial._of(g.arity, _scaled(qg, cg)))


def simplify_fraction(num: Polynomial, den: Polynomial):
    """Cancel the gcd and scale so the denominator is monic (grevlex)."""
    if num.is_zero():
        return num, Polynomial.one(den.arity)
    _, num, den = poly_gcd(num, den)
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
    # f = g * prod of the first cofactors along the chain of gcds
    g, quotient = f, Polynomial.one(f.arity)
    for var in sorted(f.variables_present()):
        g, cofactor, _ = poly_gcd(g, derivative(f, var))
        quotient = quotient * cofactor
    return quotient.primitive()
