"""Randomised cross-checks of the ideal-arithmetic engine.

The full-scale runs (1,000 basis instances, 100 resultant comparisons) live
in the acceptance module; these use the same generators at a smaller scale
for the development loop.
"""

import random
from fractions import Fraction

import pytest

from weilreg import GREVLEX, Ideal, Polynomial, eliminate, radical_membership, saturate
from weilreg.ideals import reduce_full
from weilreg.orders import LEX
from weilreg.poly import Polynomial

from oracles import random_polynomial, sylvester_resultant
from reference_groebner import _s_polynomial


def check_buchberger_criterion(basis):
    basis = list(basis)
    for a in range(len(basis)):
        for b in range(a):
            s = _s_polynomial(basis[a], basis[b], GREVLEX)
            assert reduce_full(s, basis, GREVLEX).is_zero()


def run_groebner_property_suite(instances: int, seed: int = 20250808):
    rng = random.Random(seed)
    for _ in range(instances):
        arity = rng.randrange(1, 4)
        gens = [random_polynomial(rng, arity, 4) for _ in range(rng.randrange(1, 4))]
        ideal = Ideal(arity, gens)
        basis = ideal.groebner_basis(GREVLEX)
        check_buchberger_criterion(basis)
        probe = random_polynomial(rng, arity, 4)
        once = ideal.normal_form(probe)
        assert ideal.normal_form(once) == once
        # membership of the generators is immediate
        for g in gens:
            assert ideal.contains(g)


def monic_in_x(rng, max_deg_x=3, max_deg_y=2):
    """Random bivariate polynomial monic in the first variable, so the
    resultant has no leading-coefficient components."""
    d = rng.randrange(1, max_deg_x + 1)
    terms = {(d, 0): Fraction(1)}
    for _ in range(rng.randrange(1, 5)):
        e = (rng.randrange(0, d), rng.randrange(0, max_deg_y + 1))
        terms[e] = Fraction(rng.randrange(-4, 5))
    return Polynomial(2, terms)


def run_eliminate_vs_resultant_suite(instances: int, seed: int = 77):
    rng = random.Random(seed)
    done = 0
    while done < instances:
        f = monic_in_x(rng)
        g = monic_in_x(rng)
        res = sylvester_resultant(f, g, 0)
        projected = eliminate(Ideal(2, [f, g]), {0})
        assert radical_membership(res, projected)
        for gen in projected.gens:
            assert radical_membership(gen, Ideal(2, [res]))
        done += 1


def test_groebner_property_suite_smoke():
    run_groebner_property_suite(200)


def test_eliminate_vs_resultant_smoke():
    run_eliminate_vs_resultant_suite(25)


def test_saturation_properties_sampled():
    rng = random.Random(11)
    for _ in range(40):
        arity = rng.randrange(1, 3)
        ideal = Ideal(arity, [random_polynomial(rng, arity, 3) for _ in range(rng.randrange(1, 3))])
        f = random_polynomial(rng, arity, 2)
        if f.is_zero():
            continue
        saturated = saturate(ideal, f)
        # saturation contains the ideal
        for g in ideal.gens:
            assert saturated.contains(g)
        # f*g in saturation implies g in saturation, on sampled g
        for _ in range(3):
            g = random_polynomial(rng, arity, 3)
            if saturated.contains(f * g):
                assert saturated.contains(g)


def test_determinism_across_generator_orderings():
    rng = random.Random(5)
    for _ in range(30):
        arity = rng.randrange(1, 4)
        gens = [random_polynomial(rng, arity, 3) for _ in range(3)]
        shuffled = list(gens)
        rng.shuffle(shuffled)
        a = Ideal(arity, gens).groebner_basis(GREVLEX)
        b = Ideal(arity, shuffled).groebner_basis(GREVLEX)
        assert a == b
        a_lex = Ideal(arity, gens).groebner_basis(LEX)
        b_lex = Ideal(arity, shuffled).groebner_basis(LEX)
        assert a_lex == b_lex


def test_resultant_oracle_sanity():
    # res_x(x - y, x - 2y) = y up to sign: the two lines meet only at y = 0
    f = Polynomial(2, {(1, 0): 1, (0, 1): -1})
    g = Polynomial(2, {(1, 0): 1, (0, 1): -2})
    res = sylvester_resultant(f, g, 0)
    assert res in (Polynomial(2, {(0, 1): 1}), Polynomial(2, {(0, 1): -1}))
