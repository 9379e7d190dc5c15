"""Independent oracles for property tests: these deliberately avoid the
Groebner engine, the division kernel of `poly` and the image table of
`ratfunc`, so that agreement is a real cross-check.  `polynomial_form` is the
exception: it keeps an older regularity test, whose answers the localisation
reader of `slices` must reproduce wherever that test gives one.  `tokenize`
is the session scanner as it was before it became one regular expression.
"""

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, ge, neg, sub

from weilreg.errors import ArityMismatch, SessionSyntaxError
from weilreg.exprparse import Token
from weilreg.poly import Polynomial


def random_polynomial(rng: random.Random, arity: int, max_deg: int, max_terms: int = 5,
                      coeff_bound: int = 5) -> Polynomial:
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(0, max_deg + 1) for _ in range(arity))
        if sum(exps) > max_deg:
            continue
        terms[exps] = Fraction(rng.randrange(-coeff_bound, coeff_bound + 1))
    return Polynomial(arity, terms)


def substitute(p: Polynomial, images) -> Polynomial:
    """Substitute polynomial images[i] for variable i of p.

    `Polynomial.substitute` as it was before every substitution ran on
    `ratfunc.FractionImages`, kept verbatim: one term at a time, with a
    power cache per call.  All images must share one arity, which becomes
    the result arity."""
    if len(images) != p.arity:
        raise ArityMismatch("one image per variable required")
    if not images:
        return Polynomial(0, dict(p.terms))
    target_arity = images[0].arity
    result = Polynomial.zero(target_arity)
    powers = [{} for _ in images]
    for exps, coeff in sorted(p.terms.items()):
        term = Polynomial.constant(target_arity, coeff)
        for i, e in enumerate(exps):
            if not e:
                continue
            cache = powers[i]
            if e not in cache:
                cache[e] = images[i] ** e
            term = term * cache[e]
        result = result + term
    return result


def quotient(f: dict, g: dict):
    """f/g for nonzero integer term dicts when g divides f in Z[x], else None.

    The exact division loop `polygcd._quotient` ran before it became one call
    of the division kernel, kept verbatim: the largest remaining term
    (lexicographic order, plain tuple order) is divided by g's leading term,
    and the loop stops at the first term that does not divide."""
    lead = max(g)
    lc = g[lead]
    tail = [(e, c) for e, c in g.items() if e != lead]
    p = dict(f)
    heap = [(tuple(map(neg, e)), e) for e in p]
    heapify(heap)
    q = {}
    while heap:
        exps = heappop(heap)[1]
        coeff = p.pop(exps, None)
        if coeff is None:  # cancelled after it was queued
            continue
        k, r = divmod(coeff, lc)
        if r or not all(map(ge, exps, lead)):
            return None
        shift = tuple(map(sub, exps, lead))
        q[shift] = k
        for e, c in tail:
            e = tuple(map(add, e, shift))
            old = p.get(e)
            if old is None:
                p[e] = -c * k
                heappush(heap, (tuple(map(neg, e)), e))
            else:
                old -= c * k
                if old:
                    p[e] = old
                else:
                    del p[e]
    return q


def divide_exact(f: Polynomial, g: Polynomial):
    """Quotient f/g when g divides f exactly over Q, else None, by `quotient`
    on the integer-primitive parts (Gauss's lemma)."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return f
    cf, F = f.integer_primitive()
    cg, G = g.integer_primitive()
    q = quotient(F, G)
    return None if q is None else Polynomial(f.arity, q).scale(Fraction(cf) / cg)


def coefficients_in(f: Polynomial, var: int):
    """Coefficient polynomials of f by ascending powers of the variable."""
    deg = f.degree_in(var)
    parts = [dict() for _ in range(deg + 1)]
    for exps, coeff in f.terms.items():
        rest = list(exps)
        e = rest[var]
        rest[var] = 0
        parts[e][tuple(rest)] = coeff
    return [Polynomial(f.arity, p) for p in parts]


def poly_matrix_determinant(rows):
    """Fraction-free (Bareiss) determinant of a matrix of polynomials."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    arity = rows[0][0].arity
    m = [list(r) for r in rows]
    sign = 1
    previous = Polynomial.one(arity)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot = next((r for r in range(k + 1, n) if not m[r][k].is_zero()), None)
            if pivot is None:
                return Polynomial.zero(arity)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                numerator = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = divide_exact(numerator, previous)
        previous = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def sylvester_resultant(f: Polynomial, g: Polynomial, var: int) -> Polynomial:
    """Resultant of f and g with respect to one variable, by the Sylvester
    determinant over the remaining variables."""
    fc = coefficients_in(f, var)
    gc = coefficients_in(g, var)
    m = len(fc) - 1
    n = len(gc) - 1
    if m <= 0 or n <= 0:
        raise ValueError("both inputs need positive degree in the variable")
    size = m + n
    arity = f.arity
    zero = Polynomial.zero(arity)
    rows = []
    for shift in range(n):
        row = [zero] * size
        for i, c in enumerate(reversed(fc)):
            row[shift + i] = c
        rows.append(row)
    for shift in range(m):
        row = [zero] * size
        for i, c in enumerate(reversed(gc)):
            row[shift + i] = c
        rows.append(row)
    return poly_matrix_determinant(rows)


def polynomial_form(host, num: Polynomial, den: Polynomial):
    """Polynomial p with num = p * den modulo the host ideal, or None.

    `slices._polynomial_form` as it was before every slice decision became a
    normal form on the principal open D(den), kept verbatim.  It divides by
    [den] + basis(I), which is not a Groebner basis of I + (den), so it can
    read None for a regular fraction; a polynomial it returns is right."""
    if host.ideal.contains(den):
        return None
    if den.is_constant():
        return host.ideal.normal_form(num.scale(Fraction(1) / den.constant_value()))
    if not host.ideal.plus([den]).contains(num):
        return None
    divisors = [den] + list(host.ideal.groebner_basis())
    quotients, remainder = num.divide(divisors)
    if not remainder.is_zero():
        return None
    return host.ideal.normal_form(quotients[0])


SYMBOLS = ("->", "+", "-", "*", "/", "^", "(", ")", ",", ":", "=", "{", "}", "|", ";")


def tokenize(text: str):
    """Token list with an EOF sentinel; '#' starts a comment to end of line.

    `exprparse.tokenize` as it was before it became one regular expression
    run with `finditer`: a character loop with a table of symbols.  It is
    kept verbatim but for two rules.  First, only decimal digits are digits,
    in an INT and inside an IDENT, so a numeric character that is not a
    decimal digit, such as '²', is an unexpected character wherever it
    stands.  The loop as it was read a `str.isdigit` run, '²' included, into
    an INT, and '²' after a letter into the IDENT.  Second, a comment
    advances the column, so the NEWLINE or EOF after it carries the column
    after the comment's end.  The loop as it was left the column at the
    '#'."""
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            tokens.append(Token("NEWLINE", "\n", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalpha() or text[j].isdecimal() or text[j] == "_"):
                j += 1
            while j < n and text[j] == "'":  # primed copies in product ambients
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token(sym, sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise SessionSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens
