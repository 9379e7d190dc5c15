from fractions import Fraction

import pytest

from weilreg import (
    GREVLEX,
    LEX,
    Ideal,
    Polynomial,
    block_order,
    eliminate,
    intersect,
    is_empty_variety,
    parse_polynomial,
    radical_membership,
    saturate,
)
import reference_groebner as ref
from weilreg import ideals
from weilreg.errors import BudgetExceeded
from weilreg.ideals import WorkLedger, buchberger, reduce_full
from weilreg.poly import _primitive_terms, _record


def P(text, names):
    return parse_polynomial(text, names)


def ideal(names, *gens):
    return Ideal(len(names), [P(g, names) for g in gens])


# -- normal_form ---------------------------------------------------------------


def test_normal_form_membership_by_hand_division():
    # x^2 - 1 = (x+1)(x-1): reduces to 0 modulo (x-1)
    I = ideal(["x"], "x-1")
    assert I.normal_form(P("x^2-1", ["x"]), LEX).is_zero()


def test_normal_form_modulo_zero_ideal_is_identity():
    I = Ideal.zero(1)
    f = P("x", ["x"])
    assert I.normal_form(f, LEX) == f


def test_normal_form_xy_modulo_torus_relation():
    I = ideal(["x", "y"], "x*y-1")
    assert I.normal_form(P("x*y", ["x", "y"]), GREVLEX) == Polynomial.one(2)


def test_normal_form_idempotent():
    I = ideal(["x", "y"], "x^2-y", "x*y-1")
    f = P("x^3+y^3+x", ["x", "y"])
    once = I.normal_form(f)
    assert I.normal_form(once) == once


# -- groebner_basis -------------------------------------------------------------


def test_linear_elimination_by_hand():
    I = ideal(["x", "y"], "x-1", "y-x")
    basis = I.groebner_basis(LEX)
    assert set(basis) == {P("x-1", ["x", "y"]), P("y-1", ["x", "y"])}


def test_principal_ideal_monic_normalisation():
    I = ideal(["x", "y"], "3*x^2-6*y")
    assert I.groebner_basis(GREVLEX) == (P("x^2-2*y", ["x", "y"]),)


def test_block_order_elimination_torus_presentation():
    names = ["x", "y", "u1", "u2", "u3", "u4"]
    I = ideal(names, "u1-x", "u2-y", "x*u3-1", "y*u4-1")
    basis = I.groebner_basis(block_order({0, 1}))
    u_only = [g for g in basis if not (g.variables_present() & {0, 1})]
    J = Ideal(6, u_only)
    expected = ideal(names, "u1*u3-1", "u2*u4-1")
    assert all(expected.contains(g) for g in u_only)
    assert all(J.contains(g) for g in expected.gens)


def test_buchberger_criterion_all_s_polynomials_reduce_to_zero():
    I = ideal(["x", "y", "z"], "x^2+y", "x*y+z", "y*z-x")
    basis = list(I.groebner_basis(GREVLEX))
    from reference_groebner import _s_polynomial

    for i in range(len(basis)):
        for j in range(i):
            s = _s_polynomial(basis[i], basis[j], GREVLEX)
            assert reduce_full(s, basis, GREVLEX).is_zero()


@pytest.mark.parametrize("names, gens", [
    (["x", "y"], ["x-y", "y-1"]),
    # x-y needs y-1, which needs z-1 first; the lead of x*y-1 is a multiple of x's
    (["x", "y", "z"], ["x-y", "y-z", "z-1", "x*y-1"]),
])
def test_the_reduced_basis_is_one_ascending_sweep(monkeypatch, names, gens):
    records = []
    for g in gens:
        terms = P(g, names).integer_primitive()[1]
        lead = max(terms, key=GREVLEX.key)
        records.append(_record(_primitive_terms(terms, lead), lead))
    reduce_terms, calls = ideals._reduce_terms, []

    def spy(*args, **kwargs):
        calls.append(args)
        return reduce_terms(*args, **kwargs)

    monkeypatch.setattr(ideals, "_reduce_terms", spy)
    basis = ideals._reduced_basis(records, GREVLEX, len(names))
    assert basis == ref._reduced_basis([P(g, names) for g in gens], GREVLEX)
    assert len(calls) == len(basis)  # one division per kept record, no second pass


def test_determinism_bit_identical_across_runs():
    gens = ["x^2*y - z", "y^2 - x*z", "z^2*x - y"]
    a = Ideal(3, [P(g, ["x", "y", "z"]) for g in gens]).groebner_basis(GREVLEX)
    b = Ideal(3, [P(g, ["x", "y", "z"]) for g in reversed(gens)]).groebner_basis(GREVLEX)
    assert a == b


def test_budget_exceeded_is_distinct_error():
    gens = [P(g, ["x", "y", "z"]) for g in ("x^3*y^2 - z^4", "x*z^3 - y^3", "y^4*z - x^2")]
    with WorkLedger(1), pytest.raises(BudgetExceeded):
        buchberger(gens, GREVLEX)


# -- eliminate -------------------------------------------------------------------


def test_eliminate_torus_graph_projection_is_dense():
    names = ["x", "y", "xp", "yp"]
    I = ideal(names, "x*xp-1", "y*yp-1")
    out = eliminate(I, {0, 1})
    assert out.gens == ()


def test_eliminate_full_example():
    names = ["x", "y", "u1", "u2", "u3", "u4"]
    I = ideal(names, "u1-x", "u2-y", "x*u3-1", "y*u4-1")
    out = eliminate(I, {0, 1})
    expected = ideal(names, "u1*u3-1", "u2*u4-1")
    assert out == expected


def test_eliminate_nothing():
    I = ideal(["x", "y"], "x-y")
    assert eliminate(I, set()) == I


# -- saturate --------------------------------------------------------------------


def test_saturate_strips_component():
    I = ideal(["x", "y"], "x*y")
    out = saturate(I, P("x", ["x", "y"]))
    assert out == ideal(["x", "y"], "y")


def test_saturate_by_unit_like_poly_keeps_ideal():
    I = ideal(["x", "y"], "x")
    assert saturate(I, P("y", ["x", "y"])) == I


def test_saturate_power_gives_unit_ideal():
    I = ideal(["x"], "x^2")
    out = saturate(I, P("x", ["x"]))
    assert out.is_unit()


@pytest.mark.parametrize("c", ["1", "-3", "2/7"])
def test_saturate_by_a_nonzero_constant_is_the_ideal_without_a_basis(c):
    # I : c^infinity = I for a unit c, so no S-pair is spent
    I = ideal(["x", "y"], "x*y", "y^2-x")
    with WorkLedger() as ledger:
        out = saturate(I, P(c, ["x", "y"]))
    assert ledger.steps == 0
    assert out == I


def test_saturate_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        saturate(ideal(["x"], "x^2"), Polynomial.zero(1))


# -- equality --------------------------------------------------------------------


def test_ideals_are_equal_when_their_reduced_bases_are():
    names = ["x", "y"]
    assert ideal(names, "x", "y") == ideal(names, "x+y", "y")
    assert ideal(names, "x") != ideal(names, "x", "y")


def test_ideals_with_identical_generators_are_equal_without_a_basis(monkeypatch):
    bases = []
    monkeypatch.setattr(ideals, "buchberger", lambda gens, order=GREVLEX: bases.append(gens))
    a, b = ideal(["x", "y"], "x*y-1", "x^2-y"), ideal(["x", "y"], "x*y-1", "x^2-y")
    assert a == b and not bases


# -- emptiness -------------------------------------------------------------------


def test_empty_variety_difference_of_generators():
    I = ideal(["u", "s"], "u+s", "u+s-1")
    assert is_empty_variety(I)


def test_proper_ideal_nonempty():
    assert not is_empty_variety(ideal(["x"], "x-1"))


def test_empty_by_combination():
    # 1 = (x-1)(-x-1) + x^2
    assert is_empty_variety(ideal(["x"], "x^2", "x-1"))


# -- dimension -------------------------------------------------------------------


@pytest.mark.parametrize("names, gens, dim", [
    (["x", "y"], ["x-1", "x"], -1),  # the unit ideal
    (["x", "y", "z"], [], 3),  # the zero ideal
    (["x", "y"], ["x*y"], 1),  # two crossing lines
    (["x", "y", "z"], ["y-x^2", "z-x^3"], 1),  # the twisted cubic
    (["x", "y"], ["x^2", "y"], 0),  # a double point
])
def test_dimension_by_hand(names, gens, dim):
    assert ideals.dimension(ideal(names, *gens)) == dim


def test_dimension_splits_a_torus_and_memoizes_a_path(monkeypatch):
    # the torus V(x0*x1 - 1, x2*x3 - 1, ...) has leading monomials sharing no
    # variable, met one component at a time; the path V(x0*x1, x1*x2, ...) is
    # one component whose branches leave sub-paths, each solved once.  A
    # search over the shortest support alone doubled with each variable pair
    splits = []
    real = ideals._components
    monkeypatch.setattr(ideals, "_components", lambda sets: splits.append(1) or real(sets))
    names = [f"x{i}" for i in range(60)]
    assert ideals.dimension(ideal(names, *[f"x{i}*x{i + 1}-1" for i in range(0, 60, 2)])) == 30
    assert len(splits) == 31
    del splits[:]
    names = [f"x{i}" for i in range(40)]
    assert ideals.dimension(ideal(names, *[f"x{i}*x{i + 1}" for i in range(39)])) == 20
    assert len(splits) < 40 ** 2


# -- other utilities -------------------------------------------------------------


def test_intersect():
    a = ideal(["x", "y"], "x")
    b = ideal(["x", "y"], "y")
    assert intersect(a, b) == ideal(["x", "y"], "x*y")


def test_radical_membership():
    I = ideal(["x", "y"], "x^2")
    assert radical_membership(P("x", ["x", "y"]), I)
    assert not radical_membership(P("y", ["x", "y"]), I)
