import ast as python_ast
import json
import random
import string
import threading
from pathlib import Path

import pytest

import oracles
from weilreg import errors, ideals
from weilreg.errors import SessionSyntaxError, UseBeforeDeclare
from weilreg.exprparse import tokenize
from weilreg.sessions import (
    COMMANDS,
    ActionDecl,
    Command,
    GroupDecl,
    MapDecl,
    VarietyDecl,
    emit_report,
    format_session,
    parse_session,
    run_session,
    strip_timing,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_SESSIONS = sorted(p.stem for p in (ROOT / "tests" / "golden").glob("*.json"))

CREMONA = """\
var x y
variety X = affine(x, y)
map s : X -> X = (1/x, 1/y)
group Z2 = finite(e, sig | sig*sig = e)
action inv2 : Z2 x X -> X = {sig: (1/x, 1/y)}
cmd breg s
cmd xreg inv2
cmd regularize inv2
"""

BLOWUP = """\
var s u t
variety X = affine(u, t)
group G = Ga(s)
action rho : G x X -> X = (u+s, u*t/(u+s))
cmd xreg rho
"""

# every statement form the golden sessions leave out
FORMS = """\
var s z w x y a b
variety X = affine(x, y)
variety C = affine(a, b)/(a^2+b^2-1, 2 * a)
map m : X -> X = (x+1, y/x)
map n : X -> X = (y, x)
group A = Ga(s)
group T = Gm(z, w)
group P = A x T x A
group E = finite(e)
action tr : A x X -> X = (x+s, y)
action one : E x X -> X = {e: (x, y)}
cmd dom m
cmd graph m
cmd image m
cmd invert n
cmd compose m n
cmd closedgraph m
cmd closedgraph tr at (-1/2, (3)) xreg
cmd atlas one S=(e, (1, 2), -3)
"""

SESSION_FILES = sorted((ROOT / "sessions").glob("*.wr"))


# -- parsing ------------------------------------------------------------------------


def test_parse_simple_session():
    statements = parse_session("var x y\nvariety X = affine(x,y)\nmap s : X -> X = (1/x, 1/y)\n")
    assert len(statements) == 3
    decl = statements[2]
    assert isinstance(decl, MapDecl)
    assert decl.name == "s"
    assert decl.coord_exprs == ("1/x", "1/y")


def test_parse_command_node():
    cmd = parse_session(CREMONA)[5]
    assert isinstance(cmd, Command)
    assert cmd.keyword == "breg"
    assert cmd.names == ("s",)


def test_unclosed_tuple_is_positioned_syntax_error():
    with pytest.raises(SessionSyntaxError) as err:
        parse_session("var x y\nvariety X = affine(x, y)\nmap s : X -> X = (1/x,\n")
    assert err.value.line == 3
    assert err.value.expected


@pytest.mark.parametrize("end", ["\n", ""])
def test_a_diagnostic_after_a_comment_points_past_its_end(end):
    # the NEWLINE or EOF after a comment stands after its last character, not at the '#'
    with pytest.raises(SessionSyntaxError) as err:
        parse_session("var x\nvariety X = affine(x)\nmap s : X -> X = (1/x, # note" + end)
    assert (err.value.line, err.value.column) == (3, 30)


def test_use_before_declare():
    with pytest.raises(UseBeforeDeclare):
        parse_session("var x\nvariety X = affine(x)\ncmd breg undeclared_map\n")


def test_kind_mismatch_is_diagnosed():
    with pytest.raises(SessionSyntaxError):
        parse_session("var x\nvariety X = affine(x)\ncmd breg X\n")


def test_undeclared_coordinate_rejected():
    with pytest.raises(UseBeforeDeclare):
        parse_session("variety X = affine(x, y)\n")


def test_parser_totality_fuzz():
    rng = random.Random(20240817)
    alphabet = string.ascii_letters + string.digits + "()+-*/^,:=|{}#><_ \n'²٣é"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
        try:
            parse_session(text)
        except (SessionSyntaxError, UseBeforeDeclare):
            pass  # positioned diagnostics are the only acceptable failures


WEILREG_ERRORS = {name for name, obj in vars(errors).items()
                  if isinstance(obj, type) and issubclass(obj, errors.WeilregError)}


def _mutant(rng, text):
    """text with one to three operands or operators inside parentheses
    replaced: an integer by a small one, a name by a coordinate of the
    session, an arithmetic operator by another."""
    lines = text.split("\n")
    coords = sorted({name for line in lines if line.startswith("var ") for name in line.split()[1:]})
    for _ in range(rng.randrange(1, 4)):
        k = rng.randrange(len(lines))
        depth, tokens = 0, []
        for t in tokenize(lines[k]):
            depth += (t.kind in ("(", "{")) - (t.kind in (")", "}"))
            if depth and t.kind in ("INT", "IDENT", "+", "-", "*", "/"):
                tokens.append(t)
        if tokens:
            t = rng.choice(tokens)
            new = rng.choice({"INT": "0123", "IDENT": coords}.get(t.kind, "+-*/"))
            lines[k] = lines[k][:t.column - 1] + new + lines[k][t.column - 1 + len(t.text):]
    return "\n".join(lines)


def test_run_totality_on_mutated_golden_sessions():
    # a statement that parses runs to a record: failures are WeilregErrors,
    # never raw Python exceptions escaping run_session
    rng = random.Random(20261019)
    sources = [p.read_text(encoding="utf-8") for p in SESSION_FILES]
    ran = 0
    for _ in range(200):
        try:
            ast = parse_session(_mutant(rng, rng.choice(sources)))
        except (SessionSyntaxError, UseBeforeDeclare):
            continue
        ran += 1
        for record in run_session(ast, max_steps=40):
            if record["status"] == "error":
                assert record["payload"]["reason"] in WEILREG_ERRORS, record
    assert ran >= 150


@pytest.mark.parametrize("statement, column", [
    ("map g : X -> X = (x^²)", 21),
    ("cmd closedgraph f at (²)", 23),
    ("map g : X -> X = (x²+1)", 20),
    ("var x²", 6),
])
def test_a_non_decimal_digit_is_an_unexpected_character(statement, column):
    # str.isdigit accepts '²', which int() does not; only decimal digits make an
    # INT, and an identifier holds none but decimal digits either
    with pytest.raises(SessionSyntaxError) as err:
        parse_session("var x\nvariety X = affine(x)\nmap f : X -> X = (x)\n" + statement + "\n")
    assert str(err.value) == f"unexpected character '²' at line 4, column {column}"


def test_any_decimal_digit_is_an_int():
    record = run_session(parse_session("var x\nvariety X = affine(x)\nmap f : X -> X = (x^٣)\n"))[-1]
    assert record["payload"]["coordinates"] == ["x^3"]


@pytest.mark.parametrize("expr, status", [
    ("(" * 100 + "x" + ")" * 100, "ok"),
    ("(" * 200 + "x" + ")" * 200, "error"),
    ("-" * 1000 + "x", "error"),
])
def test_nesting_past_the_bound_is_a_positioned_error_record(expr, status):
    # each level is a few interpreter frames: past the bound the parser stops
    # at the opening token, before the interpreter's recursion limit does
    record = run_session(parse_session(f"var x\nvariety X = affine(x)\nmap f : X -> X = ({expr})\n"))[-1]
    assert record["status"] == status
    if status == "error":
        assert record["payload"] == {"reason": "SessionSyntaxError",
                                     "message": "expression nested deeper than 100 levels at line 3, column 119"}


def _tokens(scan, text):
    return [(t.kind, t.text, t.line, t.column) for t in scan(text)]


def test_session_files_scan_as_under_the_character_loop():
    for path in SESSION_FILES:
        text = path.read_text(encoding="utf-8")
        assert _tokens(tokenize, text) == _tokens(oracles.tokenize, text), path.name


def _form(stmt):
    if isinstance(stmt, GroupDecl):
        return f"group {stmt.kind}"
    if isinstance(stmt, ActionDecl):
        return "action finite" if stmt.element_exprs else "action parametric"
    return stmt.keyword if isinstance(stmt, Command) else stmt.KEYWORD


def test_pretty_print_round_trip_is_idempotent():
    sources = [CREMONA, BLOWUP, FORMS] + [p.read_text(encoding="utf-8") for p in SESSION_FILES]
    statements = []
    for source in sources:
        parsed = parse_session(source)
        printed = format_session(parsed)
        again = format_session(parse_session(printed))
        assert printed == again
        assert parse_session(printed) == parsed
        statements += parsed
    assert {_form(s) for s in statements} == set(COMMANDS) | {
        "var", "variety", "map", "group additive", "group multiplicative", "group finite",
        "group product", "action parametric", "action finite",
    }
    assert any(isinstance(s, VarietyDecl) and s.ideal_exprs for s in statements)
    assert any(isinstance(s, GroupDecl) and s.kind == "finite" and not s.products for s in statements)


# -- execution -----------------------------------------------------------------------


def test_run_xreg_command_record():
    records = run_session(parse_session(BLOWUP))
    record = records[-1]
    assert record["command"] == "cmd xreg rho"
    assert record["status"] == "ok"
    assert record["payload"]["complement"] == ["u"]


def test_run_regularize_record():
    records = run_session(parse_session(CREMONA))
    record = records[-1]
    assert record["status"] == "ok"
    assert record["payload"]["presentation"] == ["u1*u3-1", "u2*u4-1"]
    assert record["payload"]["action"]["sig"] == ["u3", "u4", "u1", "u2"]


def test_run_atlas_separated_failure_record():
    text = BLOWUP.replace("cmd xreg rho", "cmd atlas rho S=(0, 1)")
    records = run_session(parse_session(text))
    record = records[-1]
    assert record["status"] == "fail"
    assert record["payload"]["separated"] == "fail"
    assert "separated_witness" in record["payload"]


def test_every_form_runs_to_its_record():
    records = run_session(parse_session(FORMS))
    assert [(r["status"], r["payload"]) for r in records] == [
        ("ok", {"vars": ["s", "z", "w", "x", "y", "a", "b"]}),
        ("ok", {"variety": "X", "coordinates": ["x", "y"], "ideal": []}),
        ("ok", {"variety": "C", "coordinates": ["a", "b"], "ideal": ["a^2+b^2-1", "2*a"]}),
        ("ok", {"map": "m", "source": "X", "target": "X", "coordinates": ["x+1", "y/x"]}),
        ("ok", {"map": "n", "source": "X", "target": "X", "coordinates": ["y", "x"]}),
        ("ok", {"group": "A", "kind": "additive", "coordinates": ["s"]}),
        ("ok", {"group": "T", "kind": "multiplicative", "coordinates": ["z", "w"]}),
        ("ok", {"group": "P", "kind": "product", "coordinates": ["s", "z", "w", "s'"]}),
        ("ok", {"group": "E", "kind": "finite", "elements": ["e"]}),
        ("ok", {"action": "tr", "kind": "parametric", "laws": ["identity", "associativity"]}),
        ("ok", {"action": "one", "kind": "finite", "laws": ["identity", "homomorphism"]}),
        ("ok", {"witnesses": ["x"], "complement": ["x"]}),
        ("ok", {"ambient": ["x", "y", "x'", "y'"], "ideal": ["x'*y'-y-y'", "x-x'+1"]}),
        ("ok", {"ideal": [], "dominant": True}),
        ("ok", {"inverse": ["y", "x"]}),
        ("ok", {"composition": ["y/x", "x+1"]}),
        ("fail", {"closed": False, "host": "full", "witness": ["x", "y", "x'-1"]}),
        ("error", {"reason": "PointNotOnGroup", "message": "(-1/2, 3) has 2 coordinates; the group has 1"}),
        ("error", {"reason": "PointNotOnGroup", "message": "(1, 2) is not an element of the group"}),
    ]


@pytest.mark.parametrize("body, message", [
    ("group G = Ga(s)\naction shifted : G x X -> X = (u+s+1, t)", "identity (residue 1)"),
    ("group Z4 = finite(e, a, b, c | a*a = b, a*b = c, a*c = e, b*a = c, b*b = e, b*c = a, c*a = e, "
     "c*b = a, c*c = b)\naction bad : Z4 x X -> X = {a: (t, 1/u), b: (u, 1/t), c: (1/t, u)}",
     "homomorphism: map of a*a differs from the composition"),
])
def test_a_violated_action_law_is_a_fail_record(body, message):
    record = run_session(parse_session("var s u t\nvariety X = affine(u, t)\n" + body + "\n"))[-1]
    assert (record["status"], record["payload"]) == (
        "fail", {"reason": "NotAnAction", "message": f"action law violated: {message}"})


def test_a_product_naming_an_undeclared_element_is_an_error_record():
    record = run_session(parse_session("group G = finite(e, a | a*a = e, z*a = e)\n"))[-1]
    assert (record["status"], record["payload"]) == (
        "error", {"reason": "AxiomFailure", "message": "table entry z*a names a non-element"})


def test_an_atlas_puts_the_identity_first():
    record = run_session(parse_session(BLOWUP.replace("cmd xreg rho", "cmd atlas rho S=(1, 0) xreg")))[-1]
    assert record["status"] == "ok" and record["groebner_steps"] == 35
    assert record["payload"]["points"] == [["0"], ["1"]]
    assert [record["payload"][check] for check in ("symmetry", "cocycle", "separated", "covering")] == ["pass"] * 4


def test_domain_failures_do_not_abort_session():
    text = (
        "var s u t\n"
        "variety X = affine(u, t)\n"
        "group G = Ga(s)\n"
        "action bad : G x X -> X = (u+s, u*t/(u+2*s))\n"
        "cmd xreg bad\n"
        "cmd closedgraph bad at (1)\n"
    )
    records = run_session(parse_session(text))
    assert [r["status"] for r in records] == ["ok", "ok", "ok", "fail", "error", "error"]
    assert records[3]["payload"]["reason"] == "NotAnAction"


def test_denominators_vanishing_on_a_host_that_is_not_prime_close_to_the_unit_ideal():
    # x*y lies in I(Y), so no denominator witness is left: J : (x*y)^inf = (1)
    text = (
        "var x y u v\n"
        "variety Y = affine(x, y)/(x*y)\n"
        "variety A = affine(u, v)\n"
        "map f : Y -> A = (1/x, 1/y)\n"
        "cmd graph f\n"
        "cmd image f\n"
        "cmd breg f\n"
    )
    graph, image, breg = run_session(parse_session(text))[-3:]
    assert graph["status"] == "ok" and graph["payload"]["ideal"] == ["1"]
    assert image["status"] == "ok" and image["payload"] == {"ideal": ["1"], "dominant": False}
    assert breg["status"] == "error" and breg["payload"]["reason"] == "NotDominant"


def _error_classes(cls=errors.WeilregError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


def test_exactly_the_domain_rejections_are_fail_records():
    # a new error class picks its side, fail or error, where errors.py declares it
    classes = set(_error_classes())
    assert all(cls.__module__ == "weilreg.errors" for cls in classes)
    rejections = {cls.__name__ for cls in classes if issubclass(cls, errors.Rejection)} - {"Rejection"}
    assert rejections == {
        "NotAnAction", "NotBirational", "NotFPower", "NotRegularOnSample", "EmptyLocus",
        "NonPolynomialResidue", "RoundTripFailure", "SliceNotRegular",
    }


def test_action_with_vanishing_specialisation_names_the_group_point():
    text = (
        "var s u t\n"
        "variety X = affine(u, t)\n"
        "group G = Ga(s)\n"
        "action bad : G x X -> X = (u+s, t*s/s)\n"
    )
    record = run_session(parse_session(text))[-1]
    assert record["status"] == "fail"
    assert record["payload"]["reason"] == "NotAnAction"
    assert "denominators vanish identically at the group point" in record["payload"]["message"]


def test_failure_messages_print_prose_as_a_reason_and_points_as_rationals():
    text = (
        "var s u t z w\n"
        "variety X = affine(u, t)\n"
        "group G = Ga(s)\n"
        "group T = Gm(z, w)\n"
        "action rho : G x X -> X = (u+s, u*t/(u+s))\n"
        "action sc : T x X -> X = (z*u, t)\n"
        "group Z2 = finite(e, g | g*g = e)\n"
        "action sw : Z2 x X -> X = {g: (t, u)}\n"
        "cmd regularize rho\n"
        "cmd certify sw samples=(g)\n"
        "action bad : G x X -> X = (u/s, t)\n"
        "cmd closedgraph rho at (1, 2)\n"
        "cmd closedgraph sc at (1/2, 3)\n"
    )
    records = run_session(parse_session(text))[-5:]
    assert [(r["status"], r["payload"]["reason"], r["payload"]["message"]) for r in records] == [
        ("error", "NotApplicable", "stable generators exist for finite groups only"),
        ("error", "NotApplicable", "sample certification applies to parametric actions; a finite action "
                                   "is regular exactly when every element map is polynomial"),
        ("fail", "NotAnAction",
         "action law violated: identity: denominators vanish identically at the group point (0)"),
        ("error", "PointNotOnGroup", "(1, 2) has 2 coordinates; the group has 1"),
        ("error", "PointNotOnGroup", "(1/2, 3) does not satisfy the group's defining ideal"),
    ]


def test_step_budget_is_scoped_to_the_session():
    sequential = run_session(parse_session(CREMONA), max_steps=1)
    # no ledger outlives the session: library calls get the default budget again
    assert ideals._LEDGER.get() is None and ideals.DEFAULT_MAX_STEPS == 200_000
    exceeded = [r["command"] for r in sequential if r["payload"].get("reason") == "BudgetExceeded"]
    assert exceeded == ["cmd breg s", "cmd regularize inv2"]
    assert all(r["status"] == "ok" for r in run_session(parse_session(CREMONA)))


def _session_file(name):
    return (ROOT / "sessions" / f"{name}.wr").read_text()


def _zeroed(records, name):
    return strip_timing(json.loads(emit_report(records, session=name)))


def test_step_budget_bounds_a_whole_statement(monkeypatch):
    # `cmd breg s` and `cmd regularize inv2` each run 11 S-pairs over two
    # bases of 10 and 1: a budget of 10 admits every basis alone, not the statements
    session = parse_session(_session_file("cremona"))
    per_basis = []
    real = ideals.buchberger

    def spy(generators, order=ideals.GREVLEX):
        ledger = ideals._LEDGER.get()
        before = ledger.steps
        try:
            return real(generators, order)
        finally:
            per_basis.append(ledger.steps - before)

    monkeypatch.setattr(ideals, "buchberger", spy)
    assert all(r["status"] == "ok" for r in run_session(session, max_steps=11))
    assert max(per_basis) == 10
    records = run_session(session, max_steps=10)
    exceeded = [r for r in records if r["status"] != "ok"]
    assert [(r["command"], r["status"], r["payload"]["reason"]) for r in exceeded] == [
        ("cmd breg s", "error", "BudgetExceeded"), ("cmd regularize inv2", "error", "BudgetExceeded")]
    assert [r["payload"]["message"] for r in exceeded] == ["groebner step budget exceeded: 11 > 10"] * 2


@pytest.mark.parametrize("name", GOLDEN_SESSIONS)
def test_budget_of_the_largest_statement_reproduces_the_golden_report(name):
    golden = json.loads((ROOT / "tests" / "golden" / f"{name}.json").read_text())
    largest = max(r["groebner_steps"] for r in golden["records"])
    records = run_session(parse_session(_session_file(name)), max_steps=largest)
    assert _zeroed(records, name) == golden


# -- known wrong answers, pinned until their ROADMAP items land ------------------------


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: inverse accepts only graph elements whose source "
                                       "part is a*x_k + c, not a triangular system")
def test_invert_a_birational_triangular_moebius_map():
    records = run_session(parse_session("""\
var x y
variety X = affine(x, y)
map f : X -> X = ((2*x+1)/(x+3), (5*y+x^2)/7)
cmd invert f
"""))
    assert records[-1]["status"] == "ok"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: work cached by one command costs the next "
                                       "command nothing, so groebner_steps depends on command order")
def test_a_repeated_command_reports_the_same_groebner_steps():
    declarations = "".join(line for line in _session_file("blowup_closedgraph").splitlines(keepends=True)
                            if not line.startswith("cmd"))
    first, second = run_session(parse_session(declarations + "cmd closedgraph rho at (1) xreg\n" * 2))[-2:]
    assert first["status"] == second["status"] == "ok"
    assert first["groebner_steps"] == second["groebner_steps"]


def test_concurrent_sessions_keep_their_own_budgets():
    session = parse_session(_session_file("cremona"))
    budgets = (1, None)
    serial = [_zeroed(run_session(session, max_steps=b), "cremona") for b in budgets]
    assert serial[0] != serial[1]
    barrier = threading.Barrier(len(budgets))
    concurrent = [None] * len(budgets)

    def worker(i):
        barrier.wait()
        concurrent[i] = _zeroed(run_session(session, max_steps=budgets[i]), "cremona")

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(budgets))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert concurrent == serial


def test_no_module_imports_threading():
    for path in sorted((ROOT / "src" / "weilreg").glob("*.py")):
        for node in python_ast.walk(python_ast.parse(path.read_text(), str(path))):
            if isinstance(node, python_ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, python_ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "threading" for n in names), path.name


TYPED_HEAD = """\
var x y s v z w
variety X = affine(x, y)
variety V = affine(v)
group G = Ga(s)
group M = Gm(z, w)
action rho : G x X -> X = (x+s, y)
"""

TYPED_ERRORS = {
    "map with too few coordinates": ("map m : X -> X = (x)", "SessionSyntaxError", "1 coordinate(s) given"),
    "parametric action with too few coordinates": (
        "action a : G x X -> X = (x+s)", "SessionSyntaxError", "1 coordinate(s) given"),
    "finite action with too few coordinates": (
        "group Z = finite(e, g | g*g = e)\naction f : Z x X -> X = {g: (1/x)}",
        "SessionSyntaxError", "1 coordinate(s) given"),
    "certify on a map without wrt": (
        "map F : X -> V = (x*y)\ncmd certify F samples=(0, 1)", "SessionSyntaxError", "wrt (...) f=(...)"),
    "certify with a zero hypersurface": (
        "map F : X -> V = (x/y)\ncmd certify F wrt (x) f=(0) samples=(1, 2)",
        "NotApplicable", "the hypersurface f must be nonzero"),
    "certify an action whose denominator mixes in the group": (
        "variety X1 = affine(x)\naction idle : G x X1 -> X1 = ((x*(x+s))/(x+s))\ncmd certify idle samples=(0, 1)",
        "NotApplicable", "mixes group parameters into the space factor"),
    "fraction among the ideal generators": (
        "variety Y = affine(x, y)/(x*y, 1/x)", "SessionSyntaxError",
        "expected a polynomial, found a fraction at line 7, column 32"),
    "fraction as the hypersurface of certify": (
        "map F : X -> V = (x*y)\ncmd certify F wrt (x) f=(y/(y+1)) samples=(0, 1)", "SessionSyntaxError",
        "expected a polynomial, found a fraction at line 8, column 26"),
    "named atlas point of a parametric group": ("cmd atlas rho S=(foo)", "PointNotOnGroup", "'foo'"),
    "named sample of a parametric group": (
        "action sc : M x V -> V = (z*v)\ncmd certify sc samples=(foo)", "PointNotOnGroup", "'foo'"),
    "certify on an action with a wrt clause": (
        "action sc : M x V -> V = (z*v)\ncmd certify sc wrt (w) f=(zzz) samples=((1, 1), (2, 1/2))",
        "SessionSyntaxError", "certify on an action takes no 'wrt (...) f=(...)' clause"),
    "named closedgraph point of a parametric group": (
        "cmd closedgraph rho at (foo)", "PointNotOnGroup", "'foo' names no point of a parametric group"),
    "closedgraph of a map at a group point": (
        "map m : X -> X = (y, x)\ncmd closedgraph m at (5)", "SessionSyntaxError", "no group point or 'xreg'"),
    "closedgraph of a map on the regular locus": (
        "map m : X -> X = (y, x)\ncmd closedgraph m xreg", "SessionSyntaxError", "no group point or 'xreg'"),
    "finite group with a repeated element": ("group Z = finite(e, e)", "SessionSyntaxError", "repeated element 'e'"),
    "finite group with a repeated product": (
        "group Z = finite(e, g | g*g = e, g*g = g)", "SessionSyntaxError", "repeated product 'g*g'"),
    "finite action with a repeated element": (
        "group Z = finite(e, g | g*g = e)\naction f : Z x X -> X = {g: (y, x), g: (x, y)}",
        "SessionSyntaxError", "repeated element 'g'"),
    "atlas with a repeated point": (
        "action tr : G x X -> X = (x+s, y)\ncmd atlas tr S=(1/2, 2/4)", "SessionSyntaxError", "repeated point '1/2'"),
    "finite atlas with a repeated point": (
        "group Z = finite(e, g | g*g = e)\naction sw : Z x X -> X = {g: (y, x)}\ncmd atlas sw S=(g, g)",
        "SessionSyntaxError", "repeated point 'g'"),
}


@pytest.mark.parametrize("case", sorted(TYPED_ERRORS))
def test_bad_session_input_is_a_typed_error_record(case):
    body, reason, message = TYPED_ERRORS[case]
    records = run_session(parse_session(TYPED_HEAD + body + "\ncmd checkaction rho\n"))
    failed, after = records[-2], records[-1]
    assert failed["status"] == "error"
    assert failed["payload"]["reason"] == reason
    assert message in failed["payload"]["message"]
    assert after["command"] == "cmd checkaction rho" and after["status"] == "ok"


def test_point_tuple_is_parsed_to_its_end():
    with pytest.raises(SessionSyntaxError) as err:
        parse_session(BLOWUP.replace("cmd xreg rho", "cmd closedgraph rho at (2 3)"))
    assert (err.value.line, err.value.column) == (5, 27)  # the "3"


def test_closedgraph_at_a_finite_group_element():
    declarations = "".join(line for line in _session_file("cremona").splitlines(keepends=True)
                           if not line.startswith("cmd "))
    commands = "cmd closedgraph inv2 at (sig)\ncmd closedgraph inv2 at (sig) xreg\n"
    ast = parse_session(declarations + commands)
    assert format_session(ast).endswith(commands)
    assert parse_session(format_session(ast)) == ast
    assert [(r["status"], r["payload"]) for r in run_session(ast)[-2:]] == [
        ("ok", {"closed": True, "host": "full"}),
        ("ok", {"closed": True, "host": "xreg"}),
    ]
    # an element is one name: neither a list of names nor a name among rationals
    for point in ("sig, e", "sig 1", "1, sig"):
        with pytest.raises(SessionSyntaxError):
            parse_session(declarations + f"cmd closedgraph inv2 at ({point})\n")


@pytest.mark.parametrize("decl, text, trailing", [
    ("variety Y = affine(x)/(2 x)", "2 x", "'x'"),
    ("map m : X -> X = (x y, x)", "x y", "'y'"),
])
def test_adjacent_words_in_an_expression_stay_apart(decl, text, trailing):
    ast = parse_session("var x y\nvariety X = affine(x, y)\n" + decl + "\n")
    assert text in format_session(ast)
    record = run_session(ast)[-1]
    assert record["status"] == "error"
    assert record["payload"]["reason"] == "SessionSyntaxError"
    assert f"trailing input {trailing}" in record["payload"]["message"]


@pytest.mark.parametrize("session, line, column, trailing", [
    ("var x y\nvariety X = affine(x, y)\nmap m : X -> X = (x y, x)\n", 3, 21, "'y'"),
    ("var x y\nvariety X = affine(x, y)\nvariety Y = affine(x, y)/(x*y - 1, 2 x)\n", 3, 38, "'x'"),
    ("var a y v\nvariety P = affine(a, y)\nvariety T = affine(v)\nmap F : P -> T = ((a*y^2+y)/y)\n"
     "cmd certify F wrt (a) f=(y 2) samples=(0, 1)\n", 5, 28, "'2'"),
])
def test_errors_inside_an_expression_point_into_the_session(session, line, column, trailing):
    record = run_session(parse_session(session))[-1]
    assert record["status"] == "error"
    assert record["payload"]["reason"] == "SessionSyntaxError"
    assert f"trailing input {trailing} at line {line}, column {column};" in record["payload"]["message"]


# -- reports --------------------------------------------------------------------------


def test_emit_empty_report():
    assert emit_report([], session="") == '{\n  "version": 1,\n  "session": "",\n  "records": []\n}\n'


def test_text_report_columns_line_up_under_a_wider_header():
    records = run_session(parse_session("var x\nvar y\n"))
    lines = emit_report(records, fmt="text").splitlines()
    assert lines == ["command  status  steps", "-" * 22, "var x    ok      0", "var y    ok      0"]


def test_report_round_trip():
    records = run_session(parse_session(BLOWUP), session_name="blowup")
    text = emit_report(records, session="blowup")
    doc = json.loads(text)
    assert doc["records"] == records
    assert doc["version"] == 1 and doc["session"] == "blowup"


def test_text_format_one_row_per_record():
    records = run_session(parse_session(BLOWUP))
    text = emit_report(records, fmt="text")
    lines = text.strip().splitlines()
    assert len(lines) == len(records) + 2  # header + rule
    assert lines[0].startswith("command")


def test_determinism_byte_identical_reports():
    a = strip_timing(json.loads(emit_report(run_session(parse_session(CREMONA)))))
    b = strip_timing(json.loads(emit_report(run_session(parse_session(CREMONA)))))
    assert json.dumps(a) == json.dumps(b)


# integral values written as ratios of integers
RATIOS = """\
var s r x y
variety X = affine(x, y)
variety L = affine(x, y)/(6/3*x - y)
group A = Ga(s)
group B = Ga(r)
group G = A x B
action tr : G x X -> X = (x+s, y+r)
cmd closedgraph tr at (4/2, -6/3)
cmd atlas tr S=((0, 0), (4/2, -6/3))
"""


def test_integral_ratios_are_reported_as_integers():
    records = run_session(parse_session(RATIOS))
    report = emit_report(records)
    by_command = {r["command"]: r for r in records}
    assert by_command["variety L = affine(x, y)/(6/3*x-y)"]["payload"]["ideal"] == ["2*x-y"]
    assert by_command["cmd closedgraph tr at (2, -2)"]["status"] == "ok"
    assert by_command["cmd atlas tr S=((0, 0), (2, -2))"]["payload"]["points"] == [["0", "0"], ["2", "-2"]]
    assert all(r["status"] == "ok" for r in records)
    assert "." not in report  # no float such as 2.0 anywhere
