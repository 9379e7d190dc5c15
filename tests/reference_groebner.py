"""The Groebner engine as it was before the fraction-free kernel, kept verbatim
as a reference: division, S-polynomials, Buchberger and the reduced basis, all
over `Fraction` coefficients.

Only the bindings differ: `reference_divide` is the old body of
`Polynomial.divide`, `reduce_full` calls it, and the S-pair budget is an
argument and S-pairs are counted in this module's own tally, so that the
reference reads nothing from `ideals` and a test can compare its count with a
`WorkLedger`'s.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, ge, neg, sub

from weilreg.errors import BudgetExceeded
from weilreg.orders import GREVLEX, MonomialOrder
from weilreg.poly import Polynomial

_tally = [0]


def _bump_steps(n: int = 1):
    _tally[0] += n


def step_tally() -> int:
    return _tally[0]


def reset_step_tally():
    _tally[0] = 0


def reference_divide(self, divisors, order: MonomialOrder = GREVLEX):
    """Multivariate division: ``(quotients, remainder)`` with
    ``self == sum(q_i * divisors[i]) + remainder``.

    Each step divides the largest remaining term by the first divisor
    whose leading monomial divides it, or moves it to the remainder, so
    no remainder term is divisible by any lead.  Zero divisors are skipped
    and get a zero quotient.
    """
    key = order.key
    active = []
    for i, g in enumerate(divisors):
        if g.terms:
            lead, lc = g.leading_term(order)
            active.append((i, lead, lc, [(e, c) for e, c in g.terms.items() if e != lead]))
    p = dict(self.terms)
    heap = [(tuple(map(neg, key(e))), e) for e in p]
    heapify(heap)
    quotients = [{} for _ in divisors]
    remainder = {}
    while heap:
        exps = heappop(heap)[1]
        coeff = p.pop(exps, None)
        if coeff is None:  # cancelled after it was queued
            continue
        for i, lead, lc, tail in active:
            if all(map(ge, exps, lead)):
                break
        else:
            remainder[exps] = coeff
            continue
        shift = tuple(map(sub, exps, lead))
        q = Fraction(coeff) / lc
        quotients[i][shift] = q
        # every new term lies below exps, so no term popped so far comes back
        for e, c in tail:
            e = tuple(map(add, e, shift))
            old = p.get(e)
            if old is None:
                p[e] = -c * q
                heappush(heap, (tuple(map(neg, key(e))), e))
            else:
                old -= c * q
                if old:
                    p[e] = old
                else:
                    del p[e]
    return [Polynomial._of(self.arity, q) for q in quotients], Polynomial._of(self.arity, remainder)


def reduce_full(f: Polynomial, basis, order: MonomialOrder = GREVLEX) -> Polynomial:
    """Normal form of f modulo the list of divisors: every term reduced."""
    if not basis:
        return f
    return reference_divide(f, basis, order)[1]


def _s_polynomial(f, g, order):
    (ef, cf) = f.leading_term(order)
    (eg, cg) = g.leading_term(order)
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    mf = tuple(l - a for l, a in zip(lcm, ef))
    mg = tuple(l - b for l, b in zip(lcm, eg))
    return f.mul_term(mf, Fraction(1) / cf) - g.mul_term(mg, Fraction(1) / cg)


def _reduced_basis(basis, order):
    basis = [g.monic(order) for g in basis if not g.is_zero()]
    # minimal: drop generators whose lead is divisible by another's
    basis.sort(key=lambda g: order.key(g.leading_term(order)[0]))
    minimal = []
    for g in basis:
        eg = g.leading_term(order)[0]
        if any(all(a >= b for a, b in zip(eg, h.leading_term(order)[0])) for h in minimal):
            continue
        minimal.append(g)
    # inter-reduce tails
    changed = True
    while changed:
        changed = False
        for i in range(len(minimal)):
            others = minimal[:i] + minimal[i + 1:]
            r = reduce_full(minimal[i], others, order)
            if r.is_zero():
                del minimal[i]
                changed = True
                break
            r = r.monic(order)
            if r != minimal[i]:
                minimal[i] = r
                changed = True
    minimal.sort(key=lambda g: order.key(g.leading_term(order)[0]), reverse=True)
    return tuple(minimal)


def buchberger(generators, order: MonomialOrder = GREVLEX, max_steps=200_000):
    """Reduced Groebner basis of the ideal the generators span; `max_steps`
    caps the S-pairs processed."""
    gens = [g.primitive(order) for g in generators if not g.is_zero()]
    seen = set()
    basis = []
    for g in sorted(gens, key=lambda g: g.sort_key(order)):
        if g not in seen:
            seen.add(g)
            basis.append(g)
    if not basis:
        return ()
    leads = [g.leading_term(order)[0] for g in basis]
    key = order.key

    def pair(i, j):
        lcm = tuple(map(max, leads[i], leads[j]))
        return key(lcm), i, j, lcm

    # (key(lcm), i, j) is unique per pair, so lcm never takes part in a comparison
    pairs = [pair(i, j) for j in range(len(basis)) for i in range(j)]
    heapify(pairs)
    done = set()
    steps = 0

    while pairs:
        _, i, j, lcm = heappop(pairs)
        done.add((i, j))
        steps += 1
        _bump_steps()
        if steps > max_steps:
            raise BudgetExceeded(steps, max_steps)
        # product criterion: disjoint leading monomials
        if all(a + b == l for a, b, l in zip(leads[i], leads[j], lcm)):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if all(l >= e for l, e in zip(lcm, leads[k])):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done and pjk in done:
                    skip = True
                    break
        if skip:
            continue
        s = _s_polynomial(basis[i], basis[j], order)
        r = reduce_full(s, basis, order)
        if r.is_zero():
            continue
        r = r.primitive(order)
        basis.append(r)
        leads.append(r.leading_term(order)[0])
        t = len(basis) - 1
        for k in range(t):
            heappush(pairs, pair(k, t))
    return _reduced_basis(basis, order)
