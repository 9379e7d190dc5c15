"""Exact multivariate polynomials over arbitrary-precision rationals.

A polynomial is immutable: an arity plus a mapping from exponent tuples to
nonzero rational coefficients.  Coefficients and point coordinates have one
rational form (`rational`): an int when integral and otherwise a Fraction
with denominator > 1.  Integral arithmetic is thus int arithmetic, for
`specialize` at an integral point too; a division needs a Fraction operand,
since int / int is a float, so `evaluate` returns a Fraction whatever the
point.  Term order is a view concern; sorted term lists are produced on
demand for a given MonomialOrder.  Points and constants are put in with
`evaluate` and `specialize`; substituting polynomials for the variables is
`ratfunc.compose_poly`, on one image table per image list.

Multivariate division has one kernel, `_reduce_terms`, which is
fraction-free and works on integer term dicts.  `divide`, and so every
normal form and exact division, runs it on the integer-primitive parts of
its arguments and scales the results back exactly; Buchberger in `ideals`
and GCDHEU's certificate in `polygcd` call it directly.
The kernel finds the largest remaining term with a min-heap of negated order
keys; entries whose term was cancelled are skipped when they surface (lazy
deletion).
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from operator import add, ge, neg, sub

from .errors import ArityMismatch
from .orders import GREVLEX, MonomialOrder


class Polynomial:
    __slots__ = ("arity", "terms", "_hash")

    def __init__(self, arity: int, terms=None):
        self.arity = arity
        sums = {}
        for exps, coeff in (terms.items() if isinstance(terms, dict) else terms or ()):
            if coeff:
                exps = tuple(exps)
                if len(exps) != arity:
                    raise ArityMismatch(f"exponent vector {exps} has wrong length for arity {arity}")
                if not isinstance(coeff, (int, Fraction)):
                    coeff = Fraction(coeff)
                sums[exps] = sums[exps] + coeff if exps in sums else coeff
        self.terms = {e: rational(c) for e, c in sums.items() if c}
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, arity: int, terms: dict) -> "Polynomial":
        """Wrap a clean term dict (right-length tuple keys, `rational` coefficients) without copying."""
        out = cls.__new__(cls)
        out.arity, out.terms, out._hash = arity, terms, None
        return out

    @classmethod
    def zero(cls, arity: int) -> "Polynomial":
        return cls(arity, {})

    @classmethod
    def constant(cls, arity: int, value) -> "Polynomial":
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def variable(cls, arity: int, index: int) -> "Polynomial":
        exps = tuple(1 if i == index else 0 for i in range(arity))
        return cls._of(arity, {exps: 1})

    @classmethod
    def one(cls, arity: int) -> "Polynomial":
        return cls.constant(arity, 1)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        [(exps, coeff)] = self.terms.items()
        if any(exps):
            raise ValueError("not a constant polynomial")
        return Fraction(coeff)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(exps) for exps in self.terms)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(exps[var] for exps in self.terms)

    def variables_present(self):
        present = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    present.add(i)
        return present

    # -- ordering views ----------------------------------------------------

    def sorted_terms(self, order: MonomialOrder = GREVLEX):
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def leading_term(self, order: MonomialOrder = GREVLEX):
        exps = max(self.terms, key=order.key)
        return exps, self.terms[exps]

    def sort_key(self, order: MonomialOrder = GREVLEX):
        return tuple((order.key(e), c.numerator, c.denominator) for e, c in self.sorted_terms(order))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.arity, other)
        self._check(other)
        res = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = res.get(exps)
            if acc is None:
                res[exps] = coeff
            elif acc := acc + coeff:
                res[exps] = rational(acc)
            else:
                del res[exps]
        return Polynomial._of(self.arity, res)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.arity, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        res = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                acc = res.get(exps)
                if acc is None:
                    res[exps] = c1 * c2
                elif acc := acc + c1 * c2:
                    res[exps] = acc
                else:
                    del res[exps]
        for exps, c in res.items():
            if type(c) is not int and c.denominator == 1:
                res[exps] = c.numerator
        return Polynomial._of(self.arity, res)

    __rmul__ = __mul__

    def scale(self, factor) -> "Polynomial":
        if factor == 0:
            return Polynomial.zero(self.arity)
        return Polynomial._of(self.arity, _scaled(self.terms, factor))

    def mul_term(self, exps, coeff) -> "Polynomial":
        shifted = {tuple(map(add, e, exps)): rational(c * coeff) for e, c in self.terms.items()}
        return Polynomial._of(self.arity, shifted)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            base = base * base if n > 1 else base
            n >>= 1
        return Polynomial.one(self.arity) if result is None else result

    # -- division ----------------------------------------------------------

    def divide(self, divisors, order: MonomialOrder = GREVLEX):
        """Multivariate division: ``(quotients, remainder)`` with
        ``self == sum(q_i * divisors[i]) + remainder``.

        Each step divides the largest remaining term by the first divisor
        whose leading monomial divides it, or moves it to the remainder, so
        no remainder term is divisible by any lead.  Zero divisors are skipped
        and get a zero quotient.  `_reduce_terms` does the work on the
        integer-primitive parts; only its results are scaled back to Q.
        """
        active = []
        for i, g in enumerate(divisors):
            if g.terms:
                content, terms = g.integer_primitive()
                active.append((i, content, _record(terms, max(terms, key=order.key))))
        content, terms = self.integer_primitive()
        quotients = [{} for _ in active]
        remainder, scale = _reduce_terms(terms, [record for _, _, record in active], order, quotients)
        factor = content / scale
        out = [{} for _ in divisors]
        for (i, divisor_content, _), q in zip(active, quotients):
            out[i] = _scaled(q, factor / divisor_content)
        return ([Polynomial._of(self.arity, q) for q in out],
                Polynomial._of(self.arity, _scaled(remainder, factor)))

    # -- normalisation -----------------------------------------------------

    def integer_primitive(self):
        """(c, F) with self = c*F, c a positive rational and F an integer term
        dict of content 1; (0, {}) for the zero polynomial."""
        if not self.terms:
            return Fraction(0), {}
        num = gcd(*(c.numerator for c in self.terms.values()))
        den = lcm(*(c.denominator for c in self.terms.values()))
        return Fraction(num, den), {e: c.numerator // num * (den // c.denominator)
                                    for e, c in self.terms.items()}

    def primitive(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        """Divide out the content and make the leading coefficient positive."""
        if not self.terms:
            return self
        sign = -1 if self.leading_term(order)[1] < 0 else 1
        terms = self.integer_primitive()[1]
        return Polynomial._of(self.arity, terms if sign > 0 else {e: -c for e, c in terms.items()})

    def monic(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        if not self.terms:
            return self
        return self.scale(Fraction(1) / self.leading_term(order)[1])

    # -- evaluation and specialisation --------------------------------------

    def evaluate(self, point) -> Fraction:
        if len(point) != self.arity:
            raise ArityMismatch(f"point of length {len(point)} for arity {self.arity}")
        point = tuple(map(rational, point))
        total = 0
        for exps, coeff in self.terms.items():
            for x, e in zip(point, exps):
                if e:
                    coeff *= x ** e
            total += coeff
        return Fraction(total)

    def specialize(self, values) -> "Polynomial":
        """Set the leading len(values) variables to the given constants; the
        result is a polynomial in the remaining variables."""
        k = len(values)
        if k > self.arity:
            raise ArityMismatch(f"{k} values for arity {self.arity}")
        res = {}
        for exps, coeff in self.terms.items():
            for v, e in zip(values, exps):
                if e:
                    coeff *= v ** e
            rest = exps[k:]
            res[rest] = res.get(rest, 0) + coeff
        return Polynomial(self.arity - k, res)

    def embed(self, new_arity: int, var_map) -> "Polynomial":
        """Reindex variables: old index i becomes var_map[i] in the new ring."""
        res = {}
        for exps, coeff in self.terms.items():
            new = [0] * new_arity
            for i, e in enumerate(exps):
                if e:
                    new[var_map[i]] += e
            res[tuple(new)] = coeff
        return Polynomial(new_arity, res)

    def restrict(self, keep) -> "Polynomial":
        """Project onto the listed variables; all others must be absent."""
        keep = list(keep)
        pos = {v: i for i, v in enumerate(keep)}
        res = {}
        for exps, coeff in self.terms.items():
            new = [0] * len(keep)
            for i, e in enumerate(exps):
                if not e:
                    continue
                if i not in pos:
                    raise ValueError(f"variable {i} still present; cannot restrict")
                new[pos[i]] = e
            res[tuple(new)] = coeff
        return Polynomial(len(keep), res)

    def coefficients_wrt(self, vars_subset, order: MonomialOrder = GREVLEX):
        """Collect by monomials in the given variables.

        Returns [(vars_monomial_exps, coefficient_polynomial)] with the
        monomials strictly descending in the order and coefficients living in
        the full ring but free of the given variables.
        """
        vset = set(vars_subset)
        buckets = {}
        for exps, coeff in self.terms.items():
            head = tuple(e if i in vset else 0 for i, e in enumerate(exps))
            tail = tuple(0 if i in vset else e for i, e in enumerate(exps))
            buckets.setdefault(head, {})[tail] = coeff
        out = []
        for head in sorted(buckets, key=order.key, reverse=True):
            out.append((head, Polynomial(self.arity, buckets[head])))
        return out

    # -- comparison plumbing -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.arity, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.arity, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        names = [f"x{i}" for i in range(self.arity)]
        return format_polynomial(self, names)


# -- coefficients and the fraction-free division kernel ---------------------------


def rational(c):
    """A rational as coefficients and point coordinates are stored: an int
    when it is integral, else a Fraction (whose denominator is then > 1).
    Any other input (a float, a string) goes through Fraction first."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c if c.denominator != 1 else c.numerator


def _scaled(terms: dict, factor) -> dict:
    """The term dict times a nonzero rational factor."""
    return {e: rational(c * factor) for e, c in terms.items()}


def _record(terms: dict, lead) -> tuple:
    """Divisor record (lead, lc, tail) of a nonzero integer term dict."""
    return lead, terms[lead], [(e, c) for e, c in terms.items() if e != lead]


def _primitive_terms(terms: dict, lead) -> dict:
    """A nonzero integer term dict divided by its content, lead made positive."""
    content = gcd(*terms.values())
    if terms[lead] < 0:
        content = -content
    return terms if content == 1 else {e: c // content for e, c in terms.items()}


def _reduce_terms(p: dict, divisors, order: MonomialOrder, quotients=None):
    """Fraction-free division of the integer term dict p, which it consumes,
    by integer divisor records (lead, lc, tail).

    Returns (remainder, s) with s*p == sum(q_i*D_i) + remainder, s a positive
    rational; the q_i are written into `quotients` (one dict per record) when
    it is given.  The remainder's terms come out in descending order.

    Each step takes the largest remaining term c*x^e and the first divisor
    whose lead divides it.  With d = gcd(c, lc) and m = |lc|/d, everything
    kept (the rest of p, the remainder, the quotients) is multiplied by m and
    (c/d)*x^shift*tail, signed so that the lead cancels, is subtracted.  After
    such a rescale the common content is divided out again (fraction-free
    reduction; Geddes, Czapor and Labahn, *Algorithms for Computer Algebra*,
    1992, ch. 2).  Every state is a positive multiple of the state of the
    same division over Q, so the steps are the same and the results differ
    from it only by the scale s.
    """
    key = order.key
    heap = [(tuple(map(neg, key(e))), e) for e in p]
    heapify(heap)
    remainder = {}
    parts = [p, remainder] if quotients is None else [p, remainder, *quotients]
    num = den = 1
    while heap:
        exps = heappop(heap)[1]
        coeff = p.pop(exps, None)
        if coeff is None:  # cancelled after it was queued
            continue
        for i, (lead, lc, tail) in enumerate(divisors):
            if all(map(ge, exps, lead)):
                break
        else:
            remainder[exps] = coeff
            continue
        d = gcd(coeff, lc)
        m, k = abs(lc) // d, coeff // d if lc > 0 else -coeff // d
        if m != 1:
            for part in parts:
                for e in part:
                    part[e] *= m
            num *= m
        shift = tuple(map(sub, exps, lead))
        if quotients is not None:
            quotients[i][shift] = k
        # every new term lies below exps, so no term popped so far comes back
        for e, c in tail:
            e = tuple(map(add, e, shift))
            old = p.get(e)
            if old is None:
                p[e] = -c * k
                heappush(heap, (tuple(map(neg, key(e))), e))
            else:
                old -= c * k
                if old:
                    p[e] = old
                else:
                    del p[e]
        if m != 1:
            content = gcd(*chain.from_iterable(map(dict.values, parts)))
            if content > 1:
                for part in parts:
                    for e in part:
                        part[e] //= content
                den *= content
    return remainder, Fraction(num, den)


def format_polynomial(p: Polynomial, names, order: MonomialOrder = GREVLEX) -> str:
    """Canonical compact string, e.g. ``u1*u3-1`` or ``3/2*x^2*y``."""
    if p.is_zero():
        return "0"
    parts = []
    for exps, coeff in p.sorted_terms(order):
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if factors and mag == 1:
            body = "*".join(factors)
        elif factors:
            body = f"{mag}*" + "*".join(factors)
        else:
            body = str(mag)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append(("+" if coeff > 0 else "-") + body)
    return "".join(parts)
