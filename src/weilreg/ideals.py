"""Ideals and the Buchberger engine.

The engine is plain Buchberger with the product and chain criteria and
normal-strategy pair selection, producing the reduced (hence canonical)
Groebner basis.  Pending pairs sit in a heap keyed by the order key of their
lcm, then by their indices: each pair is keyed once, when it is created, and
pops in exactly the order a scan for the minimum would pick.  Every S-pair
goes on the `WorkLedger` open in the current context, which raises
BudgetExceeded once its total passes its limit, so a budget bounds all the
bases a caller runs under one ledger instead of one basis; without an open
ledger each basis gets a fresh one capped at `DEFAULT_MAX_STEPS`.

The basis is held as integer divisor records (lead, lc, tail) of primitive
polynomials with positive leads, and every reduction runs on the
fraction-free kernel of `poly`.  An S-polynomial is the integer combination
(lc_g/d)*x^m_f*f - (lc_f/d)*x^m_g*g with d = gcd(lc_f, lc_g), and a nonzero
remainder is made primitive.  One sweep in ascending lead order reduces the
basis, on integers too; the monic basis emitted at the end has c // lc for
c/lc wherever lc divides c, as `poly` stores integral coefficients.  A
fraction-free remainder is a positive multiple of the remainder over Q, with
the same primitive part, so every lead, every pair, the step count and the
reduced basis are those of the same algorithm run over Q.
"""

from contextvars import ContextVar
from fractions import Fraction
from functools import partial, wraps
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, ge, sub

from .errors import ArityMismatch, BudgetExceeded
from .orders import GREVLEX, MonomialOrder, block_order
from .poly import Polynomial, _primitive_terms, _record, _reduce_terms

DEFAULT_MAX_STEPS = 200_000


class WorkLedger:
    """S-pairs processed while the ledger is open, and their limit; `with
    WorkLedger(limit) as ledger:` opens it for the current context only."""

    __slots__ = ("steps", "limit", "_token")

    def __init__(self, limit: int = DEFAULT_MAX_STEPS):
        self.steps = 0
        self.limit = limit

    def __enter__(self):
        self._token = _LEDGER.set(self)
        return self

    def __exit__(self, *exc):
        _LEDGER.reset(self._token)


_LEDGER = ContextVar("weilreg_work_ledger", default=None)


def memoized(fn=None, *, key=lambda owner: ()):
    """Decorator keeping each result of fn(owner, ...) in `owner.memo`, the
    owner's one store of derived results, under fn's name and key(owner,
    ...), the argument tuple fn then runs on.  A key fills in defaults, so
    `groebner_basis()` and `groebner_basis(GREVLEX)` are one entry, and
    normalises, as `specialize` keys a group point by `require_point`.  A
    raised error is not kept."""
    if fn is None:
        return partial(memoized, key=key)
    name = fn.__name__

    @wraps(fn)
    def cached(owner, *args, **kwargs):
        entry = name, key(owner, *args, **kwargs)
        try:
            return owner.memo[entry]
        except KeyError:
            result = owner.memo[entry] = fn(owner, *entry[1])
            return result

    return cached


# -- polynomial reduction ----------------------------------------------------


def reduce_full(f: Polynomial, basis, order: MonomialOrder = GREVLEX) -> Polynomial:
    """Normal form of f modulo the list of divisors: every term reduced."""
    if not basis:
        return f
    return f.divide(basis, order)[1]


# -- Buchberger ---------------------------------------------------------------


def _s_polynomial(f, g):
    """(lc_g/d)*x^m_f*f - (lc_f/d)*x^m_g*g for two divisor records, d the gcd
    of their leading coefficients; the leads cancel, so only the tails enter."""
    (ef, cf, tf), (eg, cg, tg) = f, g
    lcm = tuple(map(max, ef, eg))
    mf = tuple(map(sub, lcm, ef))
    mg = tuple(map(sub, lcm, eg))
    d = gcd(cf, cg)
    a, b = cg // d, cf // d
    s = {tuple(map(add, e, mf)): a * c for e, c in tf}
    for e, c in tg:
        e = tuple(map(add, e, mg))
        c = s.get(e, 0) - b * c
        if c:
            s[e] = c
        else:
            del s[e]
    return s


def _reduced_basis(records, order, arity):
    """Reduced basis, monic and in descending lead order, of a Groebner basis
    of divisor records, in one ascending sweep: a record whose lead a kept
    lead divides is dropped, any other is reduced once by the kept records.
    A term below a lead is divisible only by a smaller lead, and the kept
    tails are already reduced, so each kept record is its reduced form and
    keeps its lead (Cox, Little and O'Shea, *Ideals, Varieties, and
    Algorithms*, ch. 2)."""
    kept = []
    for lead, lc, tail in sorted(records, key=lambda rec: order.key(rec[0])):
        if not any(all(map(ge, lead, h[0])) for h in kept):
            r = _reduce_terms({lead: lc, **dict(tail)}, kept, order)[0]
            kept.append(_record(_primitive_terms(r, lead), lead))
    return tuple(Polynomial._of(arity, {lead: 1, **{e: Fraction(c, lc) if c % lc else c // lc
                                                    for e, c in tail}})
                 for lead, lc, tail in reversed(kept))


def buchberger(generators, order: MonomialOrder = GREVLEX):
    """Reduced Groebner basis of the ideal the generators span; each S-pair
    processed goes on the current context's `WorkLedger`."""
    ledger = _LEDGER.get() or WorkLedger()
    key = order.key
    # each distinct generator, primitive with a positive lead, as its terms
    # (key, coefficient, exponents) in descending order; sorting these is
    # sorting by `Polynomial.sort_key`
    distinct = {tuple(sorted(((key(e), c, e) for e, c in g.primitive(order).terms.items()), reverse=True))
                for g in generators if g.terms}
    if not distinct:
        return ()
    basis = [(terms[0][2], terms[0][1], [(e, c) for _, c, e in terms[1:]]) for terms in sorted(distinct)]
    arity = len(basis[0][0])
    leads = [lead for lead, _, _ in basis]

    def pair(i, j):
        lcm = tuple(map(max, leads[i], leads[j]))
        return key(lcm), i, j, lcm

    # (key(lcm), i, j) is unique per pair, so lcm never takes part in a comparison
    pairs = [pair(i, j) for j in range(len(basis)) for i in range(j)]
    heapify(pairs)
    done = set()

    while pairs:
        _, i, j, lcm = heappop(pairs)
        done.add((i, j))
        ledger.steps += 1
        if ledger.steps > ledger.limit:
            raise BudgetExceeded(ledger.steps, ledger.limit)
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
        r = _reduce_terms(_s_polynomial(basis[i], basis[j]), basis, order)[0]
        if not r:
            continue
        lead = next(iter(r))  # the kernel emits the remainder in descending order
        basis.append(_record(_primitive_terms(r, lead), lead))
        leads.append(lead)
        t = len(basis) - 1
        for k in range(t):
            heappush(pairs, pair(k, t))
    return _reduced_basis(basis, order, arity)


# -- the Ideal type -----------------------------------------------------------


class Ideal:
    """Finitely generated ideal whose memo keeps its reduced basis per order."""

    __slots__ = ("arity", "gens", "memo")

    def __init__(self, arity: int, gens):
        gens = tuple(gens)
        for g in gens:
            if g.arity != arity:
                raise ArityMismatch(f"generator arity {g.arity} in ideal of arity {arity}")
        self.arity = arity
        self.gens = tuple(g for g in gens if not g.is_zero())
        self.memo = {}

    @classmethod
    def zero(cls, arity: int) -> "Ideal":
        return cls(arity, ())

    @memoized(key=lambda ideal, order=GREVLEX: (order,))
    def groebner_basis(self, order: MonomialOrder = GREVLEX):
        return buchberger(self.gens, order)

    def normal_form(self, f: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
        if f.arity != self.arity:
            raise ArityMismatch(f"polynomial arity {f.arity} vs ideal arity {self.arity}")
        return reduce_full(f, self.groebner_basis(order), order)

    def contains(self, f: Polynomial, order: MonomialOrder = GREVLEX) -> bool:
        return self.normal_form(f, order).is_zero()

    def is_unit(self) -> bool:
        basis = self.groebner_basis(GREVLEX)
        return len(basis) == 1 and basis[0].is_constant()

    def plus(self, other) -> "Ideal":
        """The sum; self, with its memoized bases, if it adds no generator."""
        extra = other.gens if isinstance(other, Ideal) else tuple(other)
        extra = tuple(g for g in extra if not g.is_zero() and g not in self.gens)
        return Ideal(self.arity, self.gens + extra) if extra else self

    def __eq__(self, other):
        """Equal generators, or equal reduced grevlex bases, which are unique."""
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.arity != other.arity:
            return False
        return self.gens == other.gens or self.groebner_basis() == other.groebner_basis()

    def __hash__(self):
        raise TypeError("ideals are compared by their reduced bases; not hashable")

    def __repr__(self):
        return f"Ideal(arity={self.arity}, gens={list(self.gens)})"


def is_empty_variety(ideal: Ideal) -> bool:
    """True iff 1 lies in the ideal (no points over the algebraic closure)."""
    return ideal.is_unit()


def dimension(ideal: Ideal) -> int:
    """Dimension of V(I), -1 for the unit ideal: the arity minus the fewest
    variables that meet the support of every leading monomial of the reduced
    grevlex basis (Cox, Little and O'Shea, *Ideals, Varieties, and
    Algorithms*, ch. 9 §3)."""
    supports = [frozenset(i for i, e in enumerate(g.leading_term()[0]) if e) for g in ideal.groebner_basis()]
    return -1 if frozenset() in supports else ideal.arity - _fewest_meeting(supports)


def _fewest_meeting(supports) -> int:
    """Size of the smallest variable set meeting every support.  Only the
    minimal supports matter; supports that share no variable, directly or
    through others, are met apart and the sizes added (Bayer and Stillman,
    *Computation of Hilbert functions*, JSC 1992, split monomial ideals so);
    and a connected set holds a variable of its shortest support, so branch
    over those.  Each set of supports left is solved once per call."""
    if not supports:
        return 0
    supports = set(supports)
    solved = {}

    def fewest(sets: frozenset) -> int:
        if not sets:
            return 0
        if sets not in solved:
            parts = _components(sets)
            if len(parts) > 1:
                solved[sets] = sum(map(fewest, parts))
            else:
                solved[sets] = 1 + min(fewest(frozenset(s for s in sets if v not in s))
                                       for v in min(sets, key=len))
        return solved[sets]

    return fewest(frozenset(s for s in supports if not any(t < s for t in supports)))


def _components(sets) -> list:
    """The supports grouped so that no two groups share a variable."""
    parts = []  # (variables, supports) per group
    for s in sets:
        variables, members = set(s), [s]
        for part in [part for part in parts if part[0] & s]:
            parts.remove(part)
            variables |= part[0]
            members += part[1]
        parts.append((variables, members))
    return [frozenset(members) for _, members in parts]


def eliminate(ideal: Ideal, variables) -> Ideal:
    """Intersection with the subring omitting the given variables, presented
    by generators free of them (same ambient arity)."""
    variables = set(variables)
    if not variables:
        return Ideal(ideal.arity, ideal.groebner_basis(GREVLEX))
    if not variables <= set(range(ideal.arity)):
        raise ArityMismatch("eliminated variables outside the ambient ring")
    order = block_order(variables)
    basis = ideal.groebner_basis(order)
    kept = [g for g in basis if not (g.variables_present() & variables)]
    return Ideal(ideal.arity, kept)


def _rabinowitsch(ideal: Ideal, f: Polynomial) -> Ideal:
    """I + (t*f - 1) with t a new last variable: the ideal of the principal
    open D(f) of V(I), embedded in one more dimension."""
    n = ideal.arity
    t = Polynomial.variable(n + 1, n)
    return Ideal(n + 1, [g.embed(n + 1, range(n)) for g in ideal.gens] + [t * f.embed(n + 1, range(n)) - 1])


def saturate(ideal: Ideal, f: Polynomial) -> Ideal:
    """I : f^infinity by the auxiliary-variable method; for a nonzero
    constant f that is I itself, returned without a basis."""
    if f.is_zero():
        raise ZeroDivisionError("cannot saturate by the zero polynomial")
    if f.is_constant():
        return ideal
    n = ideal.arity
    out = eliminate(_rabinowitsch(ideal, f), {n})
    return Ideal(n, [g.restrict(range(n)) for g in out.gens])


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """Ideal intersection via the auxiliary-variable trick."""
    if a.arity != b.arity:
        raise ArityMismatch("intersection of ideals in different rings")
    n = a.arity
    emb = list(range(n))
    t = Polynomial.variable(n + 1, n)
    gens = [t * g.embed(n + 1, emb) for g in a.gens]
    gens += [(Polynomial.one(n + 1) - t) * g.embed(n + 1, emb) for g in b.gens]
    out = eliminate(Ideal(n + 1, gens), {n})
    return Ideal(n, [g.restrict(range(n)) for g in out.gens])


def radical_membership(f: Polynomial, ideal: Ideal) -> bool:
    """f in the radical of the ideal, by the auxiliary-variable trick."""
    return f.is_zero() or is_empty_variety(_rabinowitsch(ideal, f))
