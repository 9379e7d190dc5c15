"""Acceptance suite: one test per criterion, each printing a verdict line.

Everything is exact arithmetic with zero tolerance; ideal equalities are
mutual membership, locus equalities are radical membership where stated.
"""

import functools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from weilreg import Ideal, Polynomial, is_empty_variety, parse_polynomial, radical_membership
from weilreg.actions import (
    action_point_defined,
    element_biregular_locus,
    g_regular_locus,
    make_rational_action,
    restrict_to_regular_locus,
    specialize,
    tilde_biregular_locus,
    _validate_associativity_law,
)
from weilreg.atlas import build_atlas, check_atlas
from weilreg.errors import NotAnAction, SliceNotRegular
from weilreg.groups import additive_group, cyclic_group_2, multiplicative_group
from weilreg.maps import (
    biregular_locus,
    compose,
    identity_map,
    inverse,
    is_graph_closed,
    maps_equal,
    point_status,
    rational_map,
)
from weilreg.ratfunc import RationalFunction
from weilreg.regularize import regularize_finite
from weilreg.slices import certify_regular, regularity_from_subgroup
from weilreg.varieties import OpenSubset, ProductAmbient, affine_space

from test_properties import run_eliminate_vs_resultant_suite, run_groebner_property_suite

ROOT = Path(__file__).resolve().parent.parent


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number}: FAIL - {title}")
                raise
            print(f"[acceptance] criterion {number}: PASS - {title}")
        return run
    return wrap


def plane():
    return affine_space(["x", "y"])


def cremona_setup():
    X = plane()
    sigma = rational_map(X, X, ("1/x", "1/y"))
    G = cyclic_group_2(("e", "sig"))
    action = make_rational_action(G, X, {"e": identity_map(X), "sig": sigma})
    return X, sigma, action


def blowup_setup():
    G = additive_group("s")
    X = affine_space(["u", "t"])
    P = ProductAmbient(G.variety, X)
    rho = rational_map(P.variety, X, ("u+s", "u*t/(u+s)"))
    return G, X, P, make_rational_action(G, X, rho)


def ideals_equal(a: Ideal, b: Ideal) -> bool:
    return a == b


@criterion(1, "Cremona pipeline: biregular locus, regular locus, torus model")
def test_criterion_1_cremona_pipeline():
    X, sigma, action = cremona_setup()
    xy = Ideal(2, [X.poly("x*y")])
    assert ideals_equal(biregular_locus(sigma).complement_ideal, xy)
    reg = g_regular_locus(action)
    assert ideals_equal(reg.locus.complement_ideal, xy)
    assert reg.locus.witnesses == (X.poly("x*y"),)
    model = regularize_finite(action)
    names = model.model.names
    expected = Ideal(4, [parse_polynomial(t, names) for t in ("u1*u3-1", "u2*u4-1")])
    assert ideals_equal(model.model.ideal, expected)
    u = [Polynomial.variable(4, i) for i in range(4)]
    assert model.action_on_model["sig"] == (u[2], u[3], u[0], u[1])
    # psi is birational: both round trips are exact identities
    assert maps_equal(compose(model.from_space, model.to_space), identity_map(X))
    assert maps_equal(compose(model.to_space, model.from_space), identity_map(model.model))


@criterion(2, "blow-up chart: regular-locus complement is the exceptional fiber")
def test_criterion_2_blowup_regular_locus():
    G, X, P, action = blowup_setup()
    reg = g_regular_locus(action)
    complement = reg.locus.complement_ideal
    exceptional = X.poly("u")
    assert radical_membership(exceptional, complement)
    for gen in complement.gens:
        assert radical_membership(gen, Ideal(2, [exceptional]))


@criterion(3, "closed-graph dichotomy for the time-one chart map")
def test_criterion_3_closed_graph_dichotomy():
    G, X, P, action = blowup_setup()
    rho1 = specialize(action, (1,))
    closed, witness = is_graph_closed(rho1)
    assert not closed
    names = ["u", "t", "u'", "t'"]
    assert witness.contains(parse_polynomial("u+1", names))
    assert witness.contains(parse_polynomial("t", names))
    assert not witness.is_unit()  # the witness locus meets u=-1, t=0
    host = OpenSubset(X, [X.poly("u")])
    closed_after, none_witness = is_graph_closed(rho1, host)
    assert closed_after and none_witness is None


@criterion(4, "atlas checks: all pass on the regular locus, separatedness fails on the full plane")
def test_criterion_4_atlas_checks():
    G, X, P, action = blowup_setup()
    restricted = restrict_to_regular_locus(action)
    atlas = build_atlas(restricted, [(0,), (1,)])
    report = check_atlas(atlas)
    assert report.symmetry["passed"]
    assert report.cocycle["passed"]
    assert report.separated["passed"]
    assert report.covering["passed"]
    assert all(s.is_unit() for s in report.covering["saturations"])
    # the covering certificate: 1 lies in the shifted-complement ideal with the
    # exceptional factor removed
    names = ["s", "u", "t"]
    derived = Ideal(3, [parse_polynomial("u+s", names), parse_polynomial("u+s-1", names)])
    assert is_empty_variety(derived)
    full_atlas = build_atlas(action, [(0,), (1,)])
    full_report = check_atlas(full_atlas)
    assert not full_report.separated["passed"]
    assert full_report.separated["witnesses"]


@criterion(5, "action laws: exact identities hold, a mutated denominator is rejected")
def test_criterion_5_action_laws():
    G, X, P, action = blowup_setup()
    _validate_associativity_law(action)  # exact rational-map identity on G x G x X
    Xc, sigma, cremona = cremona_setup()
    assert maps_equal(compose(sigma, sigma), identity_map(Xc))
    mutated = rational_map(P.variety, X, ("u+s", "u*t/(u+2*s)"))
    with pytest.raises(NotAnAction) as err:
        make_rational_action(G, X, mutated)
    assert err.value.residue not in (None, "0", "")


@criterion(6, "slice certificates: recovery, rejection, and the inflated scaling action")
def test_criterion_6_slice_certificates():
    A = affine_space(["a"])
    Y = affine_space(["y"])
    split = ProductAmbient(A, Y)
    f = parse_polynomial("y", ["y"])
    F = RationalFunction.parse(split.variety, "(a*y^2+y)/y")
    dec = certify_regular(split, F, f, samples=[(0,), (1,)])
    assert dec.regular_form == parse_polynomial("a*y+1", split.names)
    # solved identities: f1/f = y = F_1 - F_0 and f2/f = 1 = F_0
    assert dec.slice_polynomials == [parse_polynomial("1", ["y"]), parse_polynomial("y+1", ["y"])]
    assert dec.solve_coefficients == [[-1, 1], [1, 0]]
    bad = RationalFunction.parse(split.variety, "1/y")
    with pytest.raises(SliceNotRegular):
        certify_regular(split, bad, f, samples=[(0,), (1,)])
    M = multiplicative_group()
    X1 = affine_space(["x"])
    P1 = ProductAmbient(M.variety, X1)
    inflated = rational_map(P1.variety, X1, ("(z*x*(x+1))/(x+1)",))
    scaling = make_rational_action(M, X1, inflated)
    result = regularity_from_subgroup(scaling, [(1, 1), (2, Fraction(1, 2)), (3, Fraction(1, 3))])
    assert result.polynomial_map.reps[0][0].num == parse_polynomial("z*x", P1.names)


@criterion(7, "randomised engine suite: 1000 bases + 100 resultant comparisons under 5 minutes")
def test_criterion_7_engine_property_suite():
    started = time.monotonic()
    run_groebner_property_suite(1000)
    run_eliminate_vs_resultant_suite(100)
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"property suite took {elapsed:.1f}s"


def _grid(values):
    return [(Fraction(a), Fraction(b)) for a in values for b in values]


@criterion(8, "pointwise regularity laws on at least 200 sampled pairs per fixture")
def test_criterion_8_pointwise_laws():
    # parametric fixture: the blow-up chart action
    G, X, P, action = blowup_setup()
    reg = g_regular_locus(action)
    breg = tilde_biregular_locus(action)

    def tilde_ok(g, x):
        point = tuple(g) + tuple(x)
        return any(w.evaluate(point) != 0 for w in breg.witnesses)

    stays_regular = 0
    for s in range(-3, 4):
        for x in _grid([-3, -2, -1, 1, 2, 3]):
            if not reg.locus.contains_point(x) or not tilde_ok((Fraction(s),), x):
                continue
            ok, image = action_point_defined(action, (s,), x)
            assert ok and reg.locus.contains_point(image)
            stays_regular += 1
    assert stays_regular >= 200

    composition_law = 0
    for h in range(-2, 3):
        h_breg = element_biregular_locus(action, (h,))
        for s in range(-2, 3):
            for x in _grid([-2, -1, 1, 2]):
                if not tilde_ok((Fraction(s),), x):
                    continue
                ok, image = action_point_defined(action, (s,), x)
                if not ok or not h_breg.contains_point(image):
                    continue
                assert tilde_ok((Fraction(h + s),), x)
                composition_law += 1
    assert composition_law >= 200

    restricted = restrict_to_regular_locus(action)
    defined_implies_biregular = 0
    for s in range(-3, 4):
        breg_s = element_biregular_locus(restricted, (s,))
        for x in _grid([-3, -2, -1, 1, 2, 3]):
            ok, _ = action_point_defined(restricted, (s,), x)
            if not ok:
                continue
            assert breg_s.contains_point(x)
            defined_implies_biregular += 1
    assert defined_implies_biregular >= 200

    # finite fixture: the Cremona involution
    Xc, sigma, cremona = cremona_setup()
    creg = g_regular_locus(cremona)
    values = [-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), 4, 5]
    pairs = 0
    restricted_c = restrict_to_regular_locus(cremona)
    for g in ("e", "sig"):
        g_breg = element_biregular_locus(cremona, g)
        g_breg_restricted = element_biregular_locus(restricted_c, g)
        for x in _grid(values):
            # stays-regular law
            if creg.locus.contains_point(x) and g_breg.contains_point(x):
                ok, image = action_point_defined(cremona, g, x)
                assert ok and creg.locus.contains_point(image)
                # composition law through the second element
                for h in ("e", "sig"):
                    h_breg = element_biregular_locus(cremona, h)
                    if h_breg.contains_point(image):
                        hg = cremona.group.table[(h, g)]
                        assert element_biregular_locus(cremona, hg).contains_point(x)
                pairs += 1
            # defined-implies-biregular on the restriction
            ok, _ = action_point_defined(restricted_c, g, x)
            if ok:
                assert g_breg_restricted.contains_point(x)
    assert pairs >= 200


@criterion(9, "CLI golden sessions reproduce byte-identical reports")
def test_criterion_9_cli_golden():
    fixtures = ["cremona", "blowup_xreg", "blowup_closedgraph", "blowup_atlas",
                "action_laws", "certify"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for name in fixtures:
        result = subprocess.run(
            [sys.executable, "-m", "weilreg.cli", "run", str(ROOT / "sessions" / f"{name}.wr")],
            capture_output=True, text=True, cwd=ROOT, env=env,
        )
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        for record in doc["records"]:
            record["millis"] = 0
        produced = json.dumps(doc, indent=2) + "\n"
        golden = (ROOT / "tests" / "golden" / f"{name}.json").read_text()
        assert produced == golden, f"golden mismatch for {name}"
