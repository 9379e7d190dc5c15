"""The fraction-free kernel against the Fraction engine it replaced.

`reference_groebner` holds the old division loop, S-polynomial, Buchberger
and reduced basis verbatim.  Reduction over Z only rescales states of the
reduction over Q by positive factors, so on every input the two must agree
exactly: the same quotients and remainders, the same reduced bases, the same
number of S-pairs and the same step at which a budget runs out.
"""

import random
from fractions import Fraction

import pytest

import reference_groebner as ref
from oracles import random_polynomial
from weilreg import GREVLEX, LEX, Ideal, Polynomial, block_order, parse_polynomial
from weilreg.errors import BudgetExceeded
from weilreg.ideals import WorkLedger, buchberger, reduce_full
from weilreg.poly import _record, _reduce_terms


def _orders(arity):
    orders = [GREVLEX, LEX]
    if arity > 1:
        orders += [block_order({0}), block_order({arity - 1}), block_order(range(arity - 1))]
    if arity > 2:
        orders += [block_order({0, 2}), block_order(range(1, arity))]
    return orders


def _ideal_instances(count, seed):
    """Seeded ideals with a common rational zero, so that few are the unit ideal."""
    rng = random.Random(seed)
    for _ in range(count):
        arity = rng.randrange(1, 5)
        order = rng.choice(_orders(arity))
        point = [rng.randrange(-2, 3) for _ in range(arity)]
        gens = []
        for _ in range(rng.randrange(2, 4)):
            h = random_polynomial(rng, arity, 2, max_terms=4 * arity, coeff_bound=9)
            gens.append(h - h.evaluate(point))
        yield gens, order


def _run(engine, gens, order, max_steps):
    """(basis or the budget error's (steps, limit), S-pairs counted), with
    the step budget set to max_steps: the engine runs inside a fresh
    `WorkLedger`, the reference takes the budget as an argument and keeps
    its own tally."""
    if engine is buchberger:
        with WorkLedger(max_steps) as ledger:
            try:
                out = buchberger(gens, order)
            except BudgetExceeded as exc:
                out = ("budget", exc.steps, exc.limit)
        return out, ledger.steps
    ref.reset_step_tally()
    try:
        out = ref.buchberger(gens, order, max_steps)
    except BudgetExceeded as exc:
        out = ("budget", exc.steps, exc.limit)
    return out, ref.step_tally()


def test_reduced_bases_and_step_counts_match_the_fraction_engine():
    arities, sizes = set(), set()
    for gens, order in _ideal_instances(150, seed=20261018):
        new = _run(buchberger, gens, order, 400)
        old = _run(ref.buchberger, gens, order, 400)
        assert new == old, (gens, order)
        arities.add(gens[0].arity)
        sizes.add(len(new[0]))
    assert arities == {1, 2, 3, 4}
    assert max(sizes) >= 5


@pytest.mark.parametrize("max_steps", [0, 1, 2, 3, 5])
def test_budget_runs_out_at_the_same_step(max_steps):
    raised = 0
    for gens, order in _ideal_instances(40, seed=777):
        new = _run(buchberger, gens, order, max_steps)
        old = _run(ref.buchberger, gens, order, max_steps)
        assert new == old, (gens, order)
        raised += new[0][:1] == ("budget",)
    assert raised


def _same_division(f, divisors, order):
    quotients, remainder = f.divide(divisors, order)
    ref_quotients, ref_remainder = ref.reference_divide(f, divisors, order)
    # equal values, and the terms come out in the same order
    assert [list(q.terms.items()) for q in quotients] == [list(q.terms.items()) for q in ref_quotients]
    assert list(remainder.terms.items()) == list(ref_remainder.terms.items())
    assert reduce_full(f, divisors, order) == remainder == ref.reduce_full(f, divisors, order)


def test_division_matches_the_fraction_loop_on_random_inputs():
    rng = random.Random(4242)
    for _ in range(300):
        arity = rng.randrange(1, 5)
        order = rng.choice(_orders(arity))
        f = random_polynomial(rng, arity, 6, max_terms=10, coeff_bound=30)
        divisors = [random_polynomial(rng, arity, 3, coeff_bound=12) for _ in range(rng.randrange(1, 4))]
        if rng.random() < 0.2:
            divisors.insert(rng.randrange(len(divisors) + 1), Polynomial.zero(arity))
        if rng.random() < 0.3:  # rational coefficients on both sides
            f = f.scale(Fraction(rng.randrange(1, 20), rng.randrange(1, 20)))
            divisors = [g.scale(Fraction(-3, 7)) for g in divisors]
        _same_division(f, divisors, order)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def test_division_by_large_non_unit_leading_coefficients():
    names = ["x", "y"]
    divisors = [parse_polynomial(text, names) for text in ("7*x^2*y + 3*y - 5", "-12*x*y^2 + 9*x - 4",
                                                           "1000003*y^3 + 2*x")]
    rng = random.Random(99)
    for _ in range(60):
        terms = {}
        for _ in range(rng.randrange(2, 9)):
            e = (rng.randrange(0, 6), rng.randrange(0, 6))
            terms[e] = Fraction(rng.choice((-1, 1)) * rng.choice(PRIMES), rng.choice(PRIMES))
        f = Polynomial(2, terms)
        for order in _orders(2):
            _same_division(f, divisors, order)
            _same_division(f, divisors[:1], order)
            _same_division(f, divisors[::-1], order)


def test_normal_forms_match_the_fraction_loop():
    for gens, order in _ideal_instances(30, seed=31337):
        try:
            with WorkLedger(400):
                basis = Ideal(gens[0].arity, gens).groebner_basis(order)
        except BudgetExceeded:
            continue
        rng = random.Random(len(basis))
        for _ in range(3):
            probe = random_polynomial(rng, gens[0].arity, 5, max_terms=8, coeff_bound=50)
            assert reduce_full(probe, basis, order) == ref.reduce_full(probe, basis, order)


def test_kernel_identity_with_a_common_factor_in_the_dividend():
    # a dividend with content > 1 makes the kernel divide content out of the
    # quotients too, which `divide` (primitive dividends) never shows
    rng = random.Random(5)
    stripped = 0
    for _ in range(200):
        arity = rng.randrange(1, 4)
        order = rng.choice(_orders(arity))
        f = random_polynomial(rng, arity, 5, max_terms=8, coeff_bound=9).scale(rng.choice((2, 6, 15)))
        divisors = [g for g in (random_polynomial(rng, arity, 2, coeff_bound=9) for _ in range(2)) if g.terms]
        records = [_record({e: int(c) for e, c in g.terms.items()}, g.leading_term(order)[0]) for g in divisors]
        quotients = [{} for _ in records]
        remainder, scale = _reduce_terms({e: int(c) for e, c in f.terms.items()}, records, order, quotients)
        total = Polynomial(arity, remainder)
        for q, g in zip(quotients, divisors):
            total = total + Polynomial(arity, q) * g
        assert total == f.scale(scale)
        stripped += scale.denominator > 1
    assert stripped
