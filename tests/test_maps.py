import ast
import itertools
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from weilreg import GREVLEX, Ideal, Polynomial, parse_polynomial
from weilreg.errors import (
    NotBirational,
    NotDominant,
    NotIntoTarget,
    PointNotOnVariety,
    RepresentativeMismatch,
    RoundTripFailure,
    ZeroDenominator,
)
import weilreg.maps
from weilreg.maps import (
    _pair_inverses,
    _roundtrip_is_identity,
    biregular_locus,
    closed_image,
    compose,
    definable_locus,
    graph_closure,
    identity_map,
    inverse,
    is_dominant,
    is_graph_closed,
    make_rational_map,
    maps_equal,
    point_status,
    rational_map,
)
from weilreg.ratfunc import RationalFunction
from weilreg.sessions import parse_session, run_session
from weilreg.varieties import OpenSubset, affine_space, variety


@pytest.fixture
def plane():
    return affine_space(["x", "y"])


@pytest.fixture
def sigma(plane):
    return rational_map(plane, plane, ("1/x", "1/y"))


@pytest.fixture
def chart():
    return affine_space(["u", "t"])


@pytest.fixture
def rho1(chart):
    # translation (x, y) -> (x+1, y) pulled back through the chart x=u, y=u*t
    return rational_map(chart, chart, ("u+1", "u*t/(u+1)"))


def gp(text):
    return parse_polynomial(text, ["x", "y", "x'", "y'"])


def gc(text):
    return parse_polynomial(text, ["u", "t", "u'", "t'"])


# -- construction / validation ----------------------------------------------------


def test_identity_map_is_trivial(plane):
    ident = identity_map(plane)
    assert maps_equal(ident, rational_map(plane, plane, ("x", "y")))


def test_not_into_target_rejected(plane):
    torus = variety(["x", "y"], "x*y-1")
    with pytest.raises(NotIntoTarget):
        rational_map(plane, torus, ("x", "y"))


def test_into_target_accepted(plane):
    torus = variety(["x", "y"], "x*y-1")
    m = rational_map(plane, torus, ("x", "1/x"))
    assert m.target is torus
    # sampled images satisfy the target ideal exactly
    for p in [(2, 5), (-3, 1), (Fraction(1, 2), 7)]:
        st = point_status(m, p)
        assert st.kind == "DEFINED"
        assert all(g.evaluate(st.value) == 0 for g in torus.ideal.gens)


def test_coordinates_must_live_on_the_source_itself(plane):
    # on the torus x*y simplifies to 1, which is another function on the plane
    torus = variety(["x", "y"], "x*y-1")
    coords = (RationalFunction.parse(torus, "x*y"), RationalFunction.parse(torus, "y"))
    with pytest.raises(ValueError, match="must live on the source"):
        make_rational_map(plane, plane, [coords])


def test_representative_mismatch(plane):
    with pytest.raises(RepresentativeMismatch):
        rational_map(plane, plane, ("x", "y"), ("x", "y+1"))


def test_zero_denominator_on_host():
    torus = variety(["x", "y"], "x*y-1")
    with pytest.raises(ZeroDenominator):
        RationalFunction.parse(torus, "1/(x*y-1)")


# -- graph closure -----------------------------------------------------------------


def test_graph_closure_of_cremona_involution(sigma):
    graph = graph_closure(sigma)
    assert graph.names == ("x", "y", "x'", "y'")
    expected = Ideal(4, [gp("x*x'-1"), gp("y*y'-1")])
    assert graph.ideal == expected


def test_graph_closure_of_identity_on_line():
    line = affine_space(["x"])
    graph = graph_closure(identity_map(line))
    expected = Ideal(2, [parse_polynomial("x'-x", ["x", "x'"])])
    assert graph.ideal == expected


def test_graph_closure_of_blown_up_translation_contains_limit_line(rho1):
    graph = graph_closure(rho1)
    expected = Ideal(4, [gc("u'-u-1"), gc("u'*t'-u*t")])
    assert graph.ideal == expected
    # the line u=-1, t=0, u'=0 (t' free) consists of limit points of the graph
    line = Ideal(4, [gc("u+1"), gc("t"), gc("u'")])
    assert all(line.contains(g) for g in graph.ideal.gens)


def _spy_saturate(monkeypatch):
    calls = []
    real = weilreg.maps.saturate

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(weilreg.maps, "saturate", spy)
    return calls


def test_graph_closure_saturates_where_the_boundary_is_too_big(plane, monkeypatch):
    # J = (x*x' - y, x*y' - y): J + (x) = (x, y) has dimension 2 = dim A^2
    saturations = _spy_saturate(monkeypatch)
    graph = graph_closure(rational_map(plane, plane, ("y/x", "y/x")))
    assert len(saturations) == 1
    assert graph.ideal.contains(gp("x'-y'"))
    assert graph.ideal == Ideal(4, [gp("x*y'-y"), gp("x'-y'")])


def test_graph_closure_saturates_over_a_redundant_generator(monkeypatch):
    saturations = _spy_saturate(monkeypatch)
    lean = variety(["x", "y"], "x^2+y^2-1")
    redundant = variety(["x", "y"], "x^2+y^2-1", "x^3+x*y^2-x")
    closures = []
    for X in (lean, redundant):
        closures.append(graph_closure(rational_map(X, affine_space(["x", "y"]), ("1/x", "y"))).ideal)
        # the circle counts 2 - 1 = 1 = its dimension; with a redundant generator it counts 0
        assert len(saturations) == len(closures) - 1
    assert closures[0] == closures[1]


def test_graph_closures_of_mapcalc_maps_need_no_saturation(monkeypatch):
    # one map of each of the benchmark's fifteen mapcalc shapes, seed 1
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "bench"))
    import workloads

    saturations = _spy_saturate(monkeypatch)
    first = [s for s in workloads.generate("mapcalc", 1, root)
             if int(s.name.split("_")[1]) < len(workloads.MAPCALC_SHAPES)]
    assert len(first) == 15
    for session in first:
        texts = session.expect["f"]
        X = affine_space(workloads.VARS[:len(texts)])
        phi = rational_map(X, X, texts)
        closure = graph_closure(phi)
        amb = closure.ambient
        J = Ideal(amb.arity, [amb.embed_left(f.den) * Polynomial.variable(amb.arity, j) - amb.embed_left(f.num)
                              for j, f in zip(amb.right_indices, phi.reps[0])])
        d = Polynomial.one(amb.arity)
        for f in phi.reps[0]:
            d = d * amb.embed_left(f.den)
        assert closure.ideal == weilreg.ideals.saturate(J, d), texts
    assert not saturations


# -- closed image / dominance --------------------------------------------------------


def test_cremona_is_dominant(sigma):
    image = closed_image(sigma)
    assert image.ideal.gens == ()
    assert is_dominant(sigma)


def test_constant_map_not_dominant():
    line = affine_space(["x"])
    const = rational_map(line, line, ("0",))
    image = closed_image(const)
    assert image.ideal == Ideal(1, [parse_polynomial("x", ["x"])])
    assert not is_dominant(const)


def test_blowup_translation_dominant(rho1):
    assert is_dominant(rho1)


# -- composition ----------------------------------------------------------------------


def test_sigma_squared_is_identity_with_simplified_representative(plane, sigma):
    square = compose(sigma, sigma)
    ident = identity_map(plane)
    assert maps_equal(square, ident)
    nums = [f.num for f in square.reps[0]]
    dens = [f.den for f in square.reps[0]]
    assert nums == [plane.poly("x"), plane.poly("y")]
    assert dens == [Polynomial.one(2), Polynomial.one(2)]


def test_compose_with_identity(plane, sigma):
    assert maps_equal(compose(identity_map(plane), sigma), sigma)
    assert maps_equal(compose(sigma, identity_map(plane)), sigma)


def test_rho1_composed_with_itself(chart, rho1):
    rho2 = rational_map(chart, chart, ("u+2", "u*t/(u+2)"))
    assert maps_equal(compose(rho1, rho1), rho2)


def test_compose_requires_dominance():
    line = affine_space(["x"])
    const = rational_map(line, line, ("0",))
    with pytest.raises(NotDominant):
        compose(const, identity_map(line))


def test_compose_associativity(chart, rho1):
    rho2 = rational_map(chart, chart, ("u+2", "u*t/(u+2)"))
    left = compose(compose(rho1, rho1), rho2)
    right = compose(rho1, compose(rho1, rho2))
    assert maps_equal(left, right)


def test_only_the_compose_command_and_the_cocycle_check_call_compose():
    src = Path(weilreg.maps.__file__).resolve().parent
    callers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "compose":
                    callers.add(path.name)
    # every identity of rational maps is a residue in k(X) on pulled-back
    # coordinates; only a caller that wants the composite map builds one
    assert callers == {"sessions.py", "atlas.py"}


def test_only_the_dominance_test_and_the_image_command_call_closed_image():
    src = Path(weilreg.maps.__file__).resolve().parent
    callers = set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "closed_image":
                callers.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in src.glob("*.py"):
        visit(ast.parse(path.read_text()), (path.stem,))
    # the regular model is a graph closure, so no other path eliminates a
    # source's coordinates to reach an image
    assert callers == {"maps.is_dominant", "sessions._Session.run_image"}


# -- maps_equal -------------------------------------------------------------------------


def test_maps_equal_negative(plane, sigma):
    assert not maps_equal(sigma, identity_map(plane))


# -- inverse ------------------------------------------------------------------------------


def test_inverse_of_cremona_is_itself(sigma):
    assert maps_equal(inverse(sigma), sigma)


def test_inverse_of_identity(plane):
    ident = identity_map(plane)
    assert maps_equal(inverse(ident), ident)


def test_the_identity_of_a_60_variable_torus_inverts_in_seconds():
    # the pairing's two `dimension` calls on V(x0*x1 - 1, x2*x3 - 1, ...)
    # searched for a hitting set in time doubling with each variable pair
    # (3.5 s at 40 variables, hours at 60); split into components, the search
    # is linear, and Buchberger's elimination takes what time is left
    names = [f"x{i}" for i in range(60)]
    X = variety(names, *[f"x{i}*x{i + 1}-1" for i in range(0, 60, 2)])
    f = make_rational_map(X, X, [tuple(RationalFunction.coordinate(X, i) for i in range(60))])
    started = time.process_time()
    psi = inverse(f)
    assert time.process_time() - started < 10
    assert maps_equal(psi, f)


def test_inverse_of_blowup_translation(chart, rho1):
    inv = inverse(rho1)
    expected = rational_map(chart, chart, ("u-1", "u*t/(u-1)"))
    assert maps_equal(inv, expected)
    assert maps_equal(compose(rho1, inv), identity_map(chart))
    assert maps_equal(compose(inv, rho1), identity_map(chart))


def test_inverse_failure_is_not_birational():
    line = affine_space(["x"])
    squaring = rational_map(line, line, ("x^2",))
    assert is_dominant(squaring)
    with pytest.raises(NotBirational):
        inverse(squaring)


def test_pairing_a_non_inverse_pair_raises_and_records_nothing():
    line = affine_space(["x"])
    doubling = rational_map(line, line, ("2*x",))
    ident = rational_map(line, line, ("x",))
    error = RoundTripFailure("not mutually inverse")
    with pytest.raises(RoundTripFailure) as raised:
        _pair_inverses(doubling, ident, error)
    assert raised.value is error
    assert all(key not in m.memo for m in (doubling, ident) for key in (("inverse", ()), ("is_dominant", ())))


def test_inverse_of_a_paired_map_is_its_partner(chart, rho1, monkeypatch):
    partner = rational_map(chart, chart, ("u-1", "u*t/(u-1)"))
    _pair_inverses(rho1, partner, RoundTripFailure("not mutually inverse"))
    closures = []
    monkeypatch.setattr(weilreg.maps, "graph_closure", lambda phi: closures.append(phi))
    assert inverse(rho1) is partner and inverse(partner) is rho1
    assert not closures


def test_a_section_is_not_paired_with_its_retraction():
    # b o a = id, but a line is not birational to a plane: a o b = id is
    # substituted too, and fails
    line, plane = affine_space(["x"]), affine_space(["u", "v"])
    a, b = rational_map(line, plane, ("x", "0")), rational_map(plane, line, ("u",))
    assert _roundtrip_is_identity(a, b)
    with pytest.raises(RoundTripFailure):
        _pair_inverses(a, b, RoundTripFailure("not mutually inverse"))
    assert all(("inverse", ()) not in m.memo for m in (a, b))


def test_an_involution_pairs_with_itself_after_one_round_trip(monkeypatch):
    line = affine_space(["x"])
    trips = []
    real = weilreg.maps._roundtrip_is_identity
    monkeypatch.setattr(weilreg.maps, "_roundtrip_is_identity", lambda a, b: trips.append(1) or real(a, b))
    flip = rational_map(line, line, ("1/x",))
    _pair_inverses(flip, flip, RoundTripFailure("not an involution"))
    _pair_inverses(flip, flip, RoundTripFailure("not an involution"))  # recorded: not proved again
    assert inverse(flip) is flip and len(trips) == 1
    doubling = rational_map(line, line, ("2*x",))
    with pytest.raises(RoundTripFailure):
        _pair_inverses(doubling, doubling, RoundTripFailure("not an involution"))
    assert ("inverse", ()) not in doubling.memo


# Triangular Moebius maps v_i -> (A v_i + B)/(C v_i + D), A..D polynomials in
# the earlier variables of the given degrees (-1: absent), outputs permuted:
# the fifteen shapes of the benchmark's `mapcalc` workload.
MOEBIUS_SHAPES = (
    ((0, 0, -1, 0), (0, 0, 1, 0)),
    ((0, 0, -1, 0), (1, 0, 0, 1)),
    ((0, 0, 0, 0), (-1, 0, 1, 0)),
    ((0, 0, 0, 0), (-1, 0, 1, 1)),
    ((0, 0, 0, 0), (2, 1, 0, 0)),
    ((0, 0, 0, 0), (1, 0, 0, 1)),
    ((0, 0, 0, 0), (2, 2, 0, 1)),
    ((0, 0, 0, 0), (-1, 2, 1, 2)),
    ((0, 0, 0, 0), (1, 1, -1, 0), (0, 0, 0, 0)),
    ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, 0, 0), (0, 0, -1, 0), (1, 1, -1, 0)),
    ((0, 0, -1, 0), (1, 0, -1, 1), (1, 1, -1, 0)),
    ((0, 0, 0, 0), (0, 0, 0, 0), (1, 1, -1, 0)),
    ((0, 0, -1, 0), (1, 1, -1, 0), (1, 0, 0, 1)),
    ((0, 0, 0, 0), (1, 1, -1, 1), (1, 1, -1, 0)),
)


def _moebius_map(rng, shape):
    n = len(shape)
    X = affine_space(["x", "y", "z"][:n])
    coords = []
    for i, degrees in enumerate(shape):
        while True:
            a, b, c, d = (Polynomial(n, {
                e + (0,) * (n - i): rng.choice((-3, -2, -1, 1, 2, 3))
                for e in itertools.product(range(max(k, 0) + 1), repeat=i) if sum(e) <= k})
                for k in degrees)
            if not (a * d - b * c).is_zero():
                break
        v = Polynomial.variable(n, i)
        coords.append(RationalFunction(X, a * v + b, c * v + d))
    rng.shuffle(coords)
    return make_rational_map(X, X, [coords])


def _counting_round_trips(monkeypatch):
    trips = []
    real = weilreg.maps._roundtrip_is_identity
    monkeypatch.setattr(weilreg.maps, "_roundtrip_is_identity", lambda a, b: trips.append(1) or real(a, b))
    return trips


@pytest.mark.parametrize("shape", MOEBIUS_SHAPES)
def test_inverse_proves_one_round_trip_and_both_hold(shape, monkeypatch):
    phi = _moebius_map(random.Random(repr(shape)), shape)
    trips = _counting_round_trips(monkeypatch)
    psi = inverse(phi)
    assert len(trips) == 1
    monkeypatch.undo()
    assert _roundtrip_is_identity(phi, psi) and _roundtrip_is_identity(psi, phi)


def test_every_golden_inverse_pair_round_trips_both_ways(monkeypatch):
    # the oracle of the pairing rule: every pairing the golden sessions make,
    # through any module's binding (19 calls: `specialize`, `lift_action`,
    # finite actions, `identity_map`, `inverse` and `present_subalgebra`; a
    # restriction shares its action's lifted maps, so no restricted lift is
    # paired again), proves one round trip and leaves a pair whose other round
    # trip holds too
    pairs = []
    real = weilreg.maps._pair_inverses

    def recording(a, b, error):
        real(a, b, error)
        pairs.append((a, b))

    for module in [m for name, m in sys.modules.items() if name.startswith("weilreg")]:
        if getattr(module, "_pair_inverses", None) is real:
            monkeypatch.setattr(module, "_pair_inverses", recording)
    for path in sorted((Path(__file__).resolve().parents[1] / "sessions").glob("*.wr")):
        run_session(parse_session(path.read_text(encoding="utf-8")), path.stem)
    monkeypatch.undo()
    assert len(pairs) == 19 and sum(b is not a for a, b in pairs) == 10
    for a, b in pairs:
        assert _roundtrip_is_identity(a, b) and _roundtrip_is_identity(b, a)


def _is_memo(node):
    return (isinstance(node, ast.Attribute) and node.attr == "memo") or (
        isinstance(node, ast.Name) and node.id == "memo")


def _memo_writes(node, func=None):
    """(enclosing function, what is written) for each write to a memo: an
    entry assigned by subscript (named by its key), a memo attribute
    assigned, a memo method called that is not a read, or a memo bound to
    another name, through which it could be written."""
    if isinstance(node, ast.FunctionDef):
        func = node.name
    found = []
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = list(node.targets) if isinstance(node, ast.Assign) else [node.target]
        if isinstance(node.value, ast.Attribute) and node.value.attr == "memo":
            found.append((func, ast.unparse(node)))
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets += target.elts
            elif isinstance(target, ast.Subscript) and _is_memo(target.value):
                found.append((func, ast.unparse(target.slice)))
            elif isinstance(target, ast.Attribute) and target.attr == "memo":
                found.append((func, "memo = " + ast.unparse(node.value)))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and _is_memo(node.func.value)
            and node.func.attr not in ("get", "items", "keys", "values")):
        found.append((func, f"memo.{node.func.attr}"))
    for child in ast.iter_child_nodes(node):
        found += _memo_writes(child, func)
    return found


def test_only_pair_inverses_records_an_inverse():
    src = Path(weilreg.maps.__file__).resolve().parent
    sites = {(path.name,) + site for path in src.glob("*.py")
             for site in _memo_writes(ast.parse(path.read_text()))}
    # every owner starts with an empty memo, the memo helper writes each
    # computed entry, _pair_inverses alone pairs maps (and records their
    # dominance), specialize records the inverse element's map with it, and
    # a restriction starts with a copy of its action's element maps
    assert sites == {
        ("ideals.py", "__init__", "memo = {}"),
        ("maps.py", "__init__", "memo = {}"),
        ("actions.py", "__init__", "memo = {}"),
        ("ideals.py", "cached", "entry"),
        ("maps.py", "_pair_inverses", "('inverse', ())"),
        ("maps.py", "_pair_inverses", "('is_dominant', ())"),
        ("actions.py", "specialize", "('specialize', (g_inv,))"),
        ("actions.py", "restrict_to_open", "memo.update"),
    }


def _memo_reads(node, func=None):
    """(enclosing function, key) for each read of a memo entry by its key: a
    memo subscript that is loaded, or a memo's `get`."""
    if isinstance(node, ast.FunctionDef):
        func = node.name
    found = []
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load) and _is_memo(node.value):
        found.append((func, ast.unparse(node.slice)))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and _is_memo(node.func.value)
            and node.func.attr == "get"):
        found.append((func, ast.unparse(node.args[0])))
    for child in ast.iter_child_nodes(node):
        found += _memo_reads(child, func)
    return found


def test_only_the_memo_writers_read_a_memo_entry_by_key():
    src = Path(weilreg.maps.__file__).resolve().parent
    sites = {(path.name,) + site for path in src.glob("*.py")
             for site in _memo_reads(ast.parse(path.read_text()))}
    # the memo helper returns a stored entry, and _pair_inverses reads the
    # pairing it may already have recorded; every other module asks the
    # memoized function (copying a memo whole, as a restriction does, reads
    # no entry by key)
    assert sites == {
        ("ideals.py", "cached", "entry"),
        ("maps.py", "_pair_inverses", "('inverse', ())"),
    }


# -- definable locus ------------------------------------------------------------------------


def test_definable_locus_cremona(plane, sigma):
    dom = definable_locus(sigma)
    assert dom.witnesses == (plane.poly("x*y"),)
    assert dom.complement_ideal == Ideal(2, [plane.poly("x*y")])


def test_definable_locus_identity_is_everything(plane):
    dom = definable_locus(identity_map(plane))
    assert dom.is_all()
    assert dom.complement_ideal.is_unit()


def test_definable_locus_rho1(chart, rho1):
    dom = definable_locus(rho1)
    assert dom.witnesses == (chart.poly("u+1"),)


def test_definable_locus_normalises_its_witnesses_once(sigma):
    dom = definable_locus(sigma)
    assert sigma.memo[("definable_locus", ())] is dom
    assert definable_locus(sigma) is dom


# -- biregular locus ---------------------------------------------------------------------------


def test_biregular_locus_cremona(plane, sigma):
    breg = biregular_locus(sigma)
    assert breg.complement_ideal == Ideal(2, [plane.poly("x*y")])
    assert breg.is_dense()


def test_biregular_locus_on_torus_is_everything():
    torus = variety(["x", "y"], "x*y-1")
    sigma_t = rational_map(torus, torus, ("1/x", "1/y"))
    assert biregular_locus(sigma_t).is_all()


def test_biregular_locus_identity(plane):
    assert biregular_locus(identity_map(plane)).is_all()


def test_biregular_locus_rho1(chart, rho1):
    breg = biregular_locus(rho1)
    assert breg.witnesses == (chart.poly("u^2+u"),)


# -- closed graph test --------------------------------------------------------------------------


def test_cremona_graph_closed_on_full_plane(sigma):
    closed, witness = is_graph_closed(sigma)
    assert closed and witness is None


def test_rho1_graph_not_closed_on_full_plane(rho1):
    closed, witness = is_graph_closed(rho1)
    assert not closed
    for text in ("u+1", "t", "u'"):
        assert witness.contains(gc(text))


def test_rho1_graph_closed_on_punctured_chart(chart, rho1):
    host = OpenSubset(chart, [chart.poly("u")])
    closed, witness = is_graph_closed(rho1, host)
    assert closed and witness is None


def test_a_mapcalc_closed_graph_test_saturates_the_certificates_boundary(monkeypatch):
    # one map of each of the benchmark's fifteen mapcalc shapes, seed 1: the
    # dimension count computed the boundary's basis, and the closed-graph test
    # of a one-representative map saturates that very ideal
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "bench"))
    import workloads

    saturations = _spy_saturate(monkeypatch)
    for session in [s for s in workloads.generate("mapcalc", 1, root)
                    if int(s.name.split("_")[1]) < len(workloads.MAPCALC_SHAPES)]:
        texts = session.expect["f"]
        X = affine_space(workloads.VARS[:len(texts)])
        phi = rational_map(X, X, texts)
        graph = graph_closure(phi)
        assert ("groebner_basis", (GREVLEX,)) in graph.boundary.memo, texts
        saturations.clear()
        is_graph_closed(phi)
        assert saturations and all(args[0] is graph.boundary for args in saturations), texts


# -- point status -------------------------------------------------------------------------------


def test_point_status_fixed_point(sigma):
    status = point_status(sigma, (1, 1))
    assert status.kind == "DEFINED"
    assert status.value == (Fraction(1), Fraction(1))


def test_point_status_empty_fiber_is_undefined(sigma):
    assert point_status(sigma, (0, 1)).kind == "UNDEFINED"


def test_point_status_positive_dimensional_fiber(rho1):
    assert point_status(rho1, (-1, 0)).kind == "UNDEFINED"


def test_point_status_unknown_when_no_representative_reaches():
    line = affine_space(["x"])
    f = RationalFunction(line, line.poly("x^2"), line.poly("x"))
    from weilreg.maps import make_rational_map

    m = make_rational_map(line, line, [(f,)])
    assert point_status(m, (0,)).kind == "UNKNOWN"
    assert point_status(m, (5,)).kind == "DEFINED"


def test_extra_representatives_enlarge_the_computed_domain():
    line = affine_space(["x"])
    inflated = RationalFunction(line, line.poly("x^2"), line.poly("x"))
    plain = RationalFunction(line, line.poly("x"))
    from weilreg.maps import make_rational_map

    one_rep = make_rational_map(line, line, [(inflated,)])
    two_reps = make_rational_map(line, line, [(inflated,), (plain,)])
    assert definable_locus(one_rep).witnesses == (line.poly("x"),)
    assert definable_locus(two_reps).is_all()
    assert point_status(one_rep, (0,)).kind == "UNKNOWN"
    assert point_status(two_reps, (0,)).kind == "DEFINED"


def test_point_status_requires_point_on_variety():
    torus = variety(["x", "y"], "x*y-1")
    sigma_t = rational_map(torus, torus, ("1/x", "1/y"))
    with pytest.raises(PointNotOnVariety):
        point_status(sigma_t, (1, 2))


# -- sampled soundness properties ------------------------------------------------------------------


def test_biregular_locus_soundness_on_samples(chart, rho1):
    breg = biregular_locus(rho1)
    inv = inverse(rho1)
    samples = [(u, t) for u in range(-3, 4) for t in range(-3, 4)]
    checked = 0
    for p in samples:
        if not breg.contains_point(p):
            continue
        st = point_status(rho1, p)
        assert st.kind == "DEFINED"
        back = point_status(inv, st.value)
        assert back.kind == "DEFINED"
        assert back.value == (Fraction(p[0]), Fraction(p[1]))
        checked += 1
    assert checked > 10


def test_graph_contains_sampled_graph_points(rho1):
    graph = graph_closure(rho1)
    dom = definable_locus(rho1)
    for p in [(0, 1), (1, 2), (2, -1), (-2, 3)]:
        if not dom.contains_point(p):
            continue
        st = point_status(rho1, p)
        full = tuple(Fraction(c) for c in p) + st.value
        assert all(g.evaluate(full) == 0 for g in graph.ideal.gens)


def test_is_graph_closed_agrees_with_fiber_oracle(rho1):
    # brute-force oracle: a closed graph means no graph-closure points over
    # points outside the computed domain
    dom = definable_locus(rho1)
    outside = [p for p in [(-1, t) for t in range(-3, 4)] if not dom.contains_point(p)]
    closed, _ = is_graph_closed(rho1)
    fibers_nonempty = False
    for p in outside:
        from weilreg.maps import _fiber_ideal

        if not _fiber_ideal(rho1, p).is_unit():
            fibers_nonempty = True
    assert fibers_nonempty == (not closed)
