import ast
from fractions import Fraction
from pathlib import Path

import pytest

import weilreg.slices
from weilreg import Polynomial, parse_polynomial
from weilreg.actions import make_rational_action
from weilreg.errors import (
    NotFPower,
    NotRegularOnSample,
    SampleBudgetExhausted,
    SliceNotRegular,
)
from weilreg.groups import additive_group, multiplicative_group
from weilreg.maps import rational_map
from weilreg.ratfunc import RationalFunction
from weilreg.sessions import parse_session, run_session
from weilreg.slices import (
    _polynomial_form,
    certify_regular,
    decompose_tensor,
    find_unimodular_samples,
    regularity_from_subgroup,
)
from weilreg.varieties import ProductAmbient, affine_space, variety


@pytest.fixture
def line_pair():
    X = affine_space(["a"])
    Y = affine_space(["y"])
    return ProductAmbient(X, Y)


def yp(text):
    return parse_polynomial(text, ["y"])


def ap(text):
    return parse_polynomial(text, ["a"])


# -- tensor decomposition -----------------------------------------------------------


def test_decompose_basic(line_pair):
    F = RationalFunction.parse(line_pair.variety, "(a*y^2+y)/y")
    dec = decompose_tensor(line_pair, F, yp("y"))
    assert dec.power == 1
    assert [(h, f) for h, f in dec.terms] == [(ap("a"), yp("y^2")), (ap("1"), yp("y"))]


def test_decompose_polynomial_input_power_zero(line_pair):
    F = RationalFunction.parse(line_pair.variety, "a*y")
    dec = decompose_tensor(line_pair, F, yp("y"))
    assert dec.power == 0
    assert dec.terms == [(ap("a"), yp("y"))]


def test_decompose_square_denominator(line_pair):
    F = RationalFunction.parse(line_pair.variety, "(a^2*y^2+a*y^3)/y^2")
    dec = decompose_tensor(line_pair, F, yp("y"))
    assert dec.power == 2
    assert dec.terms == [(ap("a^2"), yp("y^2")), (ap("a"), yp("y^3"))]


def test_decompose_rejects_unrelated_denominator(line_pair):
    F = RationalFunction.parse(line_pair.variety, "a/(y-1)")
    with pytest.raises(NotFPower):
        decompose_tensor(line_pair, F, yp("y"))


# -- sample search -------------------------------------------------------------------


def test_find_samples_affine_line():
    h = [ap("a"), ap("1")]
    points, matrix = find_unimodular_samples(h, [(k,) for k in range(10)])
    assert points == [(0,), (1,)]
    assert matrix == [[0, 1], [1, 1]]


def test_find_samples_single_function():
    points, matrix = find_unimodular_samples([ap("1")], [(k,) for k in range(3)])
    assert points == [(0,)]
    assert matrix == [[1]]


def test_find_samples_quadratic():
    h = [ap("a^2"), ap("a")]
    points, matrix = find_unimodular_samples(h, [(k,) for k in range(1, 10)])
    assert points == [(1,), (2,)]
    assert matrix == [[1, 4], [1, 2]]


def test_find_samples_budget_exhausted():
    h = [ap("a"), ap("1")]
    with pytest.raises(SampleBudgetExhausted):
        find_unimodular_samples(h, [(0,)])


# -- certification ------------------------------------------------------------------------


def test_certify_recovers_polynomial_form(line_pair):
    F = RationalFunction.parse(line_pair.variety, "(a*y^2+y)/y")
    dec = certify_regular(line_pair, F, yp("y"), samples=[(0,), (1,)])
    assert dec.regular_form == parse_polynomial("a*y+1", line_pair.names)
    assert dec.samples == [(0,), (1,)]
    # slices: F at a=0 is 1, at a=1 is y+1
    assert dec.slice_polynomials == [yp("1"), yp("y+1")]
    # solved identities: f_1/f = y = F_1 - F_0 and f_2/f = 1 = F_0
    assert dec.solve_coefficients == [[-1, 1], [1, 0]]


def test_certify_leaves_polynomial_unchanged(line_pair):
    F = RationalFunction.parse(line_pair.variety, "a*y+1")
    dec = certify_regular(line_pair, F, yp("y"), samples=[(0,), (1,)])
    assert dec.regular_form == parse_polynomial("a*y+1", line_pair.names)


def test_certify_rejects_globally_singular_function(line_pair):
    F = RationalFunction.parse(line_pair.variety, "1/y")
    with pytest.raises(SliceNotRegular):
        certify_regular(line_pair, F, yp("y"), samples=[(0,), (1,)])


def test_certificate_exactness_invariant(line_pair):
    F = RationalFunction.parse(line_pair.variety, "(a^2*y^2+a*y^3)/y^2")
    dec = certify_regular(line_pair, F, yp("y"), samples=[(k,) for k in range(8)])
    # f^k * F - sum h_i f_i vanishes
    fk = line_pair.embed_right(yp("y")) ** dec.power
    total = Polynomial.zero(line_pair.arity)
    for h, f in dec.terms:
        total = total + line_pair.embed_left(h) * line_pair.embed_right(f)
    assert (fk * F.num - total * F.den).is_zero()
    # recovered form equals F as a rational function
    assert (dec.regular_form * F.den - F.num).is_zero()


# -- action regularity from a sampled subgroup ------------------------------------------------


def test_inflated_scaling_action_certified_regular():
    G = multiplicative_group()
    X = affine_space(["x"])
    P = ProductAmbient(G.variety, X)
    rho = rational_map(P.variety, X, ("(z*x*(x+1))/(x+1)",))
    action = make_rational_action(G, X, rho)
    result = regularity_from_subgroup(
        action, [(1, 1), (2, Fraction(1, 2)), (3, Fraction(1, 3))]
    )
    [coord] = result.polynomial_map.reps[0]
    assert coord.num == parse_polynomial("z*x", P.names)
    assert coord.den.is_constant()


def test_translation_action_certified_unchanged():
    G = additive_group("s")
    X = affine_space(["x", "y"])
    P = ProductAmbient(G.variety, X)
    action = make_rational_action(G, X, rational_map(P.variety, X, ("x+s", "y")))
    result = regularity_from_subgroup(action, [(0,), (1,)])
    assert [f.num for f in result.polynomial_map.reps[0]] == [
        parse_polynomial("x+s", P.names),
        parse_polynomial("y", P.names),
    ]


def test_blowup_action_rejected_on_non_regular_sample():
    G = additive_group("s")
    X = affine_space(["u", "t"])
    P = ProductAmbient(G.variety, X)
    action = make_rational_action(G, X, rational_map(P.variety, X, ("u+s", "u*t/(u+s)")))
    with pytest.raises(NotRegularOnSample):
        regularity_from_subgroup(action, [(0,), (1,)])


# -- slice decisions on the principal open D(den) ----------------------------------------------

UNIT_DENOMINATOR = """\
var a b s x
variety Y = affine(a, b)/(b - 1)
variety L = affine(x)
map m : Y -> L = (a/(b+1))
group G = Ga(s)
action tr : G x Y -> Y = ((a+s)/(b+1)*2, b)
"""


def test_polynomial_form_of_a_unit_denominator():
    Y = variety(["a", "b"], "b - 1")
    q = _polynomial_form(Y, Y.poly("1"), Y.poly("b+1"))
    assert q == Polynomial.constant(2, Fraction(1, 2))


@pytest.mark.parametrize("f", ["b", "b+1"])
def test_certify_map_whose_denominator_is_a_unit_on_the_host(f):
    session = UNIT_DENOMINATOR + f"cmd certify m wrt (a) f=({f}) samples=(1, 2)\n"
    record = run_session(parse_session(session))[-1]
    assert record["status"] == "ok"
    assert record["payload"]["regular_form"] == "1/2*a"


def test_certify_action_whose_denominator_is_a_unit_on_the_host():
    record = run_session(parse_session(UNIT_DENOMINATOR + "cmd certify tr samples=(0, 1)\n"))[-1]
    assert record["status"] == "ok"
    assert record["payload"]["coordinates"] == ["s+a", "1"]


def test_slices_decide_regularity_only_by_normal_forms():
    path = Path(weilreg.slices.__file__)
    calls = {getattr(node.func, "attr", None)
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)}
    assert "divide" not in calls
    # no error path is left that only a wrong certificate could reach
    for module in path.parent.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert not node.value.startswith("internal:"), module.name
