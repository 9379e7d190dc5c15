"""The session language: declarations of varieties, maps, groups and actions,
plus commands driving the toolkit, with structured reports.

One statement per line.  Each statement kind is defined once: its AST class
carries its keyword and prints its own canonical text, the parser reads it
with `parse_<keyword>` and the session runs it with `run_<keyword>`; for
commands the keyword is the command's own and `COMMANDS` lists the kinds of
its named operands.  Statements never abort a session at run time: every
statement yields a report record, and failures are recorded, not re-raised.
Parsing is total: bad input produces a positioned diagnostic.
"""

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import ideals
from .actions import (
    g_regular_locus,
    make_rational_action,
    restrict_to_regular_locus,
    specialize,
)
from .atlas import build_atlas, check_atlas
from .errors import Rejection, SessionSyntaxError, UseBeforeDeclare, WeilregError
from .exprparse import FractionExprParser, SourceExpr, Token, TokenStream, parse_polynomial, tokenize
from .groups import additive_group, finite_group, multiplicative_group, product_group
from .ideals import Ideal
from .maps import (
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
)
from .poly import format_polynomial
from .ratfunc import RationalFunction, fraction_text as _fraction_text
from .regularize import regularize_finite
from .slices import certify_regular, regularity_from_subgroup
from .varieties import AffineVariety, OpenSubset, ProductAmbient

# command keyword -> for each named operand, the declaration kinds it may have
COMMANDS = {
    **dict.fromkeys(("dom", "breg", "graph", "image", "invert"), (("map",),)),
    "compose": (("map",), ("map",)),
    "closedgraph": (("map", "action"),),
    **dict.fromkeys(("checkaction", "xreg", "regularize", "atlas"), (("action",),)),
    "certify": (("map", "action"),),
}

# torus group keyword -> (GroupDecl kind, coordinate count)
_TORI = {"Ga": ("additive", 1), "Gm": ("multiplicative", 2)}


# -- AST -------------------------------------------------------------------------


def _join(items):
    return ", ".join(items)


def _point_text(p):
    if isinstance(p, str):
        return p
    return str(p[0]) if len(p) == 1 else f"({_join(map(str, p))})"


@dataclass
class Statement:
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)

    KEYWORD = ""

    @property
    def verb(self):
        """Suffix of the session method that runs this statement."""
        return self.KEYWORD


@dataclass
class VarDecl(Statement):
    names: tuple = ()

    KEYWORD = "var"

    def __str__(self):
        return "var " + " ".join(self.names)


@dataclass
class Declaration(Statement):
    """A statement that binds `name` to an object of kind KEYWORD."""

    name: str = ""


@dataclass
class VarietyDecl(Declaration):
    coords: tuple = ()
    ideal_exprs: tuple = ()

    KEYWORD = "variety"

    def __str__(self):
        text = f"variety {self.name} = affine({_join(self.coords)})"
        return text + f"/({_join(self.ideal_exprs)})" if self.ideal_exprs else text


@dataclass
class MapDecl(Declaration):
    source: str = ""
    target: str = ""
    coord_exprs: tuple = ()

    KEYWORD = "map"

    def __str__(self):
        return f"map {self.name} : {self.source} -> {self.target} = ({_join(self.coord_exprs)})"


@dataclass
class GroupDecl(Declaration):
    kind: str = ""  # additive | multiplicative | finite | product
    coords: tuple = ()  # additive/multiplicative coordinate names
    elements: tuple = ()  # finite mode
    products: tuple = ()  # finite mode: ((a, b, c) meaning a*b=c)
    factors: tuple = ()  # product mode: declared group names

    KEYWORD = "group"

    def __str__(self):
        head = f"group {self.name} = "
        if self.kind == "product":
            return head + " x ".join(self.factors)
        if self.kind == "finite":
            body = _join(self.elements)
            if self.products:
                body += " | " + _join(f"{a}*{b} = {c}" for a, b, c in self.products)
            return head + f"finite({body})"
        return head + ("Ga" if self.kind == "additive" else "Gm") + f"({_join(self.coords)})"


@dataclass
class ActionDecl(Declaration):
    group: str = ""
    space: str = ""
    target: str = ""
    coord_exprs: tuple = ()  # parametric
    element_exprs: tuple = ()  # finite: ((elem, exprs), ...)

    KEYWORD = "action"

    def __str__(self):
        head = f"action {self.name} : {self.group} x {self.space} -> {self.target} = "
        if self.coord_exprs:
            return head + f"({_join(self.coord_exprs)})"
        return head + "{" + _join(f"{elem}: ({_join(exprs)})" for elem, exprs in self.element_exprs) + "}"


@dataclass
class Command(Statement):
    keyword: str = ""
    names: tuple = ()  # object references in order
    at_point: tuple = None  # closedgraph: group point (tuple or element name)
    on_xreg: bool = False
    points: tuple = None  # S = (...) for atlas
    wrt: tuple = None  # certify: parameter-side variable names
    f_expr: str = None  # certify: hypersurface expression
    samples: tuple = None  # certify: sample points (tuples or names)

    KEYWORD = "cmd"

    @property
    def verb(self):
        return self.keyword

    def __str__(self):
        parts = ["cmd", self.keyword, *self.names]
        if self.at_point is not None:
            at = self.at_point if isinstance(self.at_point, str) else _join(map(str, self.at_point))
            parts.append(f"at ({at})")
        if self.wrt is not None:
            parts.append(f"wrt ({_join(self.wrt)})")
        if self.f_expr is not None:
            parts.append(f"f=({self.f_expr})")
        if self.points is not None:
            parts.append(f"S=({_join(map(_point_text, self.points))})")
        if self.samples is not None:
            parts.append(f"samples=({_join(map(_point_text, self.samples))})")
        if self.on_xreg:
            parts.append("xreg")
        return " ".join(parts)


STATEMENTS = tuple(cls.KEYWORD for cls in (VarDecl, VarietyDecl, MapDecl, GroupDecl, ActionDecl, Command))


@dataclass
class SessionAST:
    statements: tuple


# -- parsing -----------------------------------------------------------------------


def _expr_text(tokens):
    """The expression's tokens joined without spaces, except one between
    adjacent words, so that "x y" stays two tokens in a printed session."""
    text = tokens[0].text
    for prev, tok in zip(tokens, tokens[1:]):
        if prev.kind in ("IDENT", "INT") and tok.kind in ("IDENT", "INT"):
            text += " "
        text += tok.text
    return text


class _SessionParser(TokenStream):
    def __init__(self, text: str):
        super().__init__(tokenize(text))
        self.kinds = {}  # declared name -> kind

    def expect_ident(self, what="identifier"):
        tok = self.peek()
        if tok.kind != "IDENT":
            raise SessionSyntaxError(f"expected {what}, found {tok.text!r}", tok.line, tok.column, ("IDENT",))
        return self.next()

    def at_word(self, word):
        tok = self.peek()
        return tok.kind == "IDENT" and tok.text == word

    def expect_word(self, word):
        tok = self.peek()
        if not self.at_word(word):
            raise SessionSyntaxError(f"expected {word!r}, found {tok.text!r}", tok.line, tok.column, (word,))
        return self.next()

    def flag(self, word):
        """Consume the optional word; whether it was there."""
        if self.at_word(word):
            self.next()
            return True
        return False

    def end_statement(self):
        tok = self.peek()
        if tok.kind not in ("NEWLINE", "EOF"):
            raise SessionSyntaxError(
                f"unexpected trailing token {tok.text!r}", tok.line, tok.column, ("NEWLINE", "EOF")
            )
        self.next()

    def declare(self, name_tok, kind):
        """End a declaration and bind its name to kind."""
        self.end_statement()
        if name_tok.text in self.kinds:
            raise SessionSyntaxError(f"{name_tok.text!r} already declared", name_tok.line, name_tok.column)
        self.kinds[name_tok.text] = kind
        return name_tok.text

    # lists, names and expressions ------------------------------------------------

    def items(self, item):
        """item (',' item)*"""
        out = [item()]
        while self.at(","):
            self.next()
            out.append(item())
        return tuple(out)

    def paren_list(self, item):
        self.expect("(")
        out = self.items(item)
        self.expect(")")
        return out

    def reference(self, what, *kinds):
        """An identifier already declared as one of kinds."""
        tok = self.expect_ident(what)
        kind = self.kinds.get(tok.text)
        if kind is None:
            raise UseBeforeDeclare(f"{tok.text!r} used at line {tok.line} before declaration")
        if kind not in kinds:
            raise SessionSyntaxError(
                f"{tok.text!r} is a {kind}, expected {' or '.join(kinds)}", tok.line, tok.column)
        return tok.text

    def word(self, what):
        return self.expect_ident(what).text

    def coordinate(self):
        name = self.word("coordinate")
        if self.kinds.get(name) != "variable":
            raise UseBeforeDeclare(f"coordinate {name!r} was not declared with 'var'")
        return name

    def coordinates(self):
        tok = self.peek()
        coords = self.paren_list(self.coordinate)
        if len(set(coords)) != len(coords):
            raise SessionSyntaxError("duplicate coordinate names", tok.line, tok.column)
        return coords

    def expr(self):
        """The tokens up to an unparenthesised ',' or ')' as a `SourceExpr`, so
        that errors found when it is parsed point into the session; no
        newlines inside."""
        depth = 0
        tokens = []
        while True:
            tok = self.peek()
            if tok.kind in ("NEWLINE", "EOF"):
                if depth:
                    raise SessionSyntaxError("unclosed parenthesis", tok.line, tok.column, (")",))
                break
            if tok.kind == "(":
                depth += 1
            elif tok.kind in (",", ")") and depth == 0:
                break
            elif tok.kind == ")":
                depth -= 1
            tokens.append(self.next())
        if not tokens:
            raise SessionSyntaxError("expected an expression", tok.line, tok.column, ("INT", "IDENT", "("))
        return SourceExpr(_expr_text(tokens), (*tokens, Token("EOF", "", tok.line, tok.column)))

    def exprs(self):
        return self.paren_list(self.expr)

    def rational(self):
        num, den = FractionExprParser(self, []).expr()
        return num.constant_value() / den.constant_value()

    def point(self):
        """A point: a rational, a parenthesised tuple of rationals, or a name."""
        if self.at("("):
            return self.paren_list(self.rational)
        if self.at("IDENT"):
            return self.next().text
        return (self.rational(),)

    # statements -------------------------------------------------------------------

    def parse(self) -> SessionAST:
        statements = []
        while True:
            while self.at("NEWLINE"):
                self.next()
            if self.at("EOF"):
                return SessionAST(tuple(statements))
            statements.append(self.statement())

    def statement(self) -> Statement:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise SessionSyntaxError(
                f"expected a statement, found {tok.text!r}", tok.line, tok.column, STATEMENTS)
        if tok.text not in STATEMENTS:
            raise SessionSyntaxError(f"unknown statement {tok.text!r}", tok.line, tok.column, STATEMENTS)
        return getattr(self, "parse_" + tok.text)(self.next())

    def parse_var(self, start):
        names = []
        while self.at("IDENT"):
            tok = self.next()
            if tok.text in names:
                raise SessionSyntaxError(f"duplicate variable {tok.text!r}", tok.line, tok.column)
            names.append(tok.text)
        if not names:
            tok = self.peek()
            raise SessionSyntaxError("expected variable names", tok.line, tok.column, ("IDENT",))
        for n in names:
            self.kinds.setdefault(n, "variable")
        self.end_statement()
        return VarDecl(start.line, start.column, tuple(names))

    def parse_variety(self, start):
        name_tok = self.expect_ident("variety name")
        self.expect("=")
        self.expect_word("affine")
        coords = self.coordinates()
        ideal_exprs = ()
        if self.at("/"):
            self.next()
            ideal_exprs = self.exprs()
        return VarietyDecl(start.line, start.column, self.declare(name_tok, "variety"), coords, ideal_exprs)

    def parse_map(self, start):
        name_tok = self.expect_ident("map name")
        self.expect(":")
        src = self.reference("source variety", "variety")
        self.expect("->")
        tgt = self.reference("target variety", "variety")
        self.expect("=")
        exprs = self.exprs()
        return MapDecl(start.line, start.column, self.declare(name_tok, "map"), src, tgt, exprs)

    def parse_group(self, start):
        name_tok = self.expect_ident("group name")
        self.expect("=")
        head = self.peek()
        if head.text in _TORI:
            self.next()
            kind, count = _TORI[head.text]
            coords = self.coordinates()
            if len(coords) != count:
                raise SessionSyntaxError(f"{head.text} takes {count} coordinate(s)", head.line, head.column)
            return GroupDecl(start.line, start.column, self.declare(name_tok, "group"), kind, coords)
        if self.flag("finite"):
            self.expect("(")
            elements = self.items(lambda: self.word("element"))
            products = ()
            if self.at("|"):
                self.next()
                products = self.items(self.product)
            self.expect(")")
            return GroupDecl(start.line, start.column, self.declare(name_tok, "group"), "finite",
                             elements=elements, products=products)
        factors = [self.reference("group kind", "group")]
        while self.flag("x"):
            factors.append(self.reference("group name", "group"))
        if len(factors) < 2:
            raise SessionSyntaxError(
                f"unknown group kind {head.text!r}", head.line, head.column,
                ("Ga", "Gm", "finite", "group name"),
            )
        return GroupDecl(start.line, start.column, self.declare(name_tok, "group"), "product",
                         factors=tuple(factors))

    def product(self):
        a = self.word("element")
        self.expect("*")
        b = self.word("element")
        self.expect("=")
        return a, b, self.word("element")

    def parse_action(self, start):
        name_tok = self.expect_ident("action name")
        self.expect(":")
        group = self.reference("group name", "group")
        self.expect_word("x")
        space = self.reference("variety name", "variety")
        self.expect("->")
        target = self.reference("variety name", "variety")
        self.expect("=")
        coords, table = (), ()
        if self.at("{"):
            self.next()
            table = self.items(self.element_map)
            self.expect("}")
        else:
            coords = self.exprs()
        return ActionDecl(start.line, start.column, self.declare(name_tok, "action"),
                          group, space, target, coords, table)

    def element_map(self):
        elem = self.word("element name")
        self.expect(":")
        return elem, self.exprs()

    def parse_cmd(self, start):
        tok = self.expect_ident("command keyword")
        if tok.text not in COMMANDS:
            raise SessionSyntaxError(f"unknown command {tok.text!r}", tok.line, tok.column, tuple(COMMANDS))
        names = tuple(self.reference(" or ".join(kinds) + " name", *kinds) for kinds in COMMANDS[tok.text])
        cmd = Command(start.line, start.column, tok.text, names)
        clauses = getattr(self, "parse_" + tok.text, None)
        if clauses is not None:
            clauses(cmd)
        self.end_statement()
        return cmd

    def parse_closedgraph(self, cmd):
        if self.flag("at"):
            self.expect("(")
            cmd.at_point = self.word("element name") if self.at("IDENT") else self.items(self.rational)
            self.expect(")")
        cmd.on_xreg = self.flag("xreg")

    def parse_atlas(self, cmd):
        self.expect_word("S")
        self.expect("=")
        cmd.points = self.paren_list(self.point)
        cmd.on_xreg = self.flag("xreg")

    def parse_certify(self, cmd):
        if self.flag("wrt"):
            cmd.wrt = self.paren_list(lambda: self.word("variable"))
            self.expect_word("f")
            self.expect("=")
            self.expect("(")
            cmd.f_expr = self.expr()
            self.expect(")")
        self.expect_word("samples")
        self.expect("=")
        cmd.samples = self.paren_list(self.point)


def parse_session(text: str) -> SessionAST:
    """AST of the session, or a positioned diagnostic."""
    return _SessionParser(text).parse()


def format_session(ast: SessionAST) -> str:
    return "\n".join(map(str, ast.statements)) + "\n"


# -- execution --------------------------------------------------------------------------


def _ideal_strings(ideal: Ideal, names) -> list:
    return [format_polynomial(g, names) for g in ideal.groebner_basis()]


def _open_payload(subset: OpenSubset) -> dict:
    names = subset.host.names
    return {
        "witnesses": [format_polynomial(w, names) for w in subset.witnesses],
        "complement": _ideal_strings(subset.complement_ideal, names),
    }


def _point_payload(p) -> list:
    if isinstance(p, str):
        return p
    return [str(Fraction(c)) for c in p]


def _texts(functions) -> list:
    return [_fraction_text(f) for f in functions]


def _laws(finite: bool) -> list:
    return ["identity", "homomorphism" if finite else "associativity"]


def _no_repeats(stmt, items, what="element"):
    seen = set()
    for item in items:
        if item in seen:
            raise SessionSyntaxError(f"repeated {what} {item!r}", stmt.line, stmt.column)
        seen.add(item)


def _map(stmt, source, target, exprs):
    """The rational map source -> target given by one expression per target coordinate."""
    if len(exprs) != target.arity:
        raise SessionSyntaxError(
            f"{len(exprs)} coordinate(s) given, the target has {target.arity}", stmt.line, stmt.column)
    return make_rational_map(source, target, [tuple(RationalFunction.parse(source, e) for e in exprs)])


class _Session:
    """The objects a running session has bound; `run_<verb>` runs one
    statement and returns its payload, or a (status, payload) pair."""

    def __init__(self, max_steps: int):
        self.objects = {}  # name -> (kind, object)
        self.failed = set()  # names whose declaration failed
        self.max_steps = max_steps  # S-pairs one statement may process

    def lookup(self, name):
        if name in self.failed:
            raise UseBeforeDeclare(f"{name!r} is unavailable: its declaration failed")
        if name not in self.objects:
            raise UseBeforeDeclare(f"{name!r} was never bound")
        return self.objects[name]

    def __getitem__(self, name):
        return self.lookup(name)[1]

    def bind(self, stmt: Declaration, obj):
        self.objects[stmt.name] = (stmt.KEYWORD, obj)

    def execute(self, stmt: Statement) -> dict:
        started = time.perf_counter()
        with ideals.WorkLedger(self.max_steps) as ledger:
            try:
                result = getattr(self, "run_" + stmt.verb)(stmt)
                status, payload = result if isinstance(result, tuple) else ("ok", result)
            except WeilregError as err:
                status = "fail" if isinstance(err, Rejection) else "error"
                payload = {"reason": type(err).__name__, "message": str(err)}
                if isinstance(stmt, Declaration):
                    self.failed.add(stmt.name)
        millis = int((time.perf_counter() - started) * 1000)
        return {
            "command": str(stmt),
            "status": status,
            "payload": payload,
            "millis": millis,
            "groebner_steps": ledger.steps,
        }

    # declarations -----------------------------------------------------------

    def run_var(self, stmt):
        return {"vars": list(stmt.names)}

    def run_variety(self, stmt):
        polys = [parse_polynomial(e, stmt.coords) for e in stmt.ideal_exprs]
        X = AffineVariety(stmt.coords, Ideal(len(stmt.coords), polys))
        self.bind(stmt, X)
        return {
            "variety": stmt.name,
            "coordinates": list(stmt.coords),
            "ideal": [format_polynomial(g, X.names) for g in X.ideal.gens],
        }

    def run_map(self, stmt):
        m = _map(stmt, self[stmt.source], self[stmt.target], stmt.coord_exprs)
        self.bind(stmt, m)
        return {
            "map": stmt.name,
            "source": stmt.source,
            "target": stmt.target,
            "coordinates": _texts(m.reps[0]),
        }

    def run_group(self, stmt):
        if stmt.kind == "additive":
            G = additive_group(stmt.coords[0])
        elif stmt.kind == "multiplicative":
            G = multiplicative_group(stmt.coords)
        elif stmt.kind == "finite":
            _no_repeats(stmt, stmt.elements)
            _no_repeats(stmt, (f"{a}*{b}" for a, b, _ in stmt.products), "product")
            e = stmt.elements[0]
            table = {}
            for a in stmt.elements:
                table[(e, a)] = table[(a, e)] = a
            for a, b, c in stmt.products:
                table[(a, b)] = c
            G = finite_group(stmt.elements, table)
        else:
            factors = [self[f] for f in stmt.factors]
            G = factors[0]
            for h in factors[1:]:
                G = product_group(G, h)
        self.bind(stmt, G)
        payload = {"group": stmt.name, "kind": stmt.kind}
        if G.is_finite:
            payload["elements"] = list(G.elements)
        else:
            payload["coordinates"] = list(G.variety.names)
        return payload

    def run_action(self, stmt):
        G, X = self[stmt.group], self[stmt.space]
        if stmt.space != stmt.target:
            raise SessionSyntaxError("actions must map the space to itself", stmt.line, stmt.column)
        if G.is_finite != bool(stmt.element_exprs):
            raise SessionSyntaxError(
                "finite groups act through element tables" if G.is_finite
                else "element tables require a finite group", stmt.line, stmt.column)
        if G.is_finite:
            _no_repeats(stmt, [elem for elem, _ in stmt.element_exprs])
            maps = {G.identity_point(): identity_map(X)}
            for elem, exprs in stmt.element_exprs:
                if elem not in G.elements:
                    raise UseBeforeDeclare(f"{elem!r} is not an element of {stmt.group}")
                maps[elem] = _map(stmt, X, X, exprs)
            for elem in G.elements:
                if elem not in maps:
                    raise SessionSyntaxError(f"no map supplied for element {elem!r}", stmt.line, stmt.column)
            action = make_rational_action(G, X, maps)
        else:
            amb = ProductAmbient(G.variety, X)
            action = make_rational_action(G, X, _map(stmt, amb.variety, X, stmt.coord_exprs))
        self.bind(stmt, action)
        return {
            "action": stmt.name,
            "kind": "finite" if G.is_finite else "parametric",
            "laws": _laws(G.is_finite),
        }

    # commands ------------------------------------------------------------------

    def run_dom(self, stmt):
        return _open_payload(definable_locus(self[stmt.names[0]]))

    def run_breg(self, stmt):
        return _open_payload(biregular_locus(self[stmt.names[0]]))

    def run_graph(self, stmt):
        graph = graph_closure(self[stmt.names[0]])
        return {"ambient": list(graph.names), "ideal": _ideal_strings(graph.ideal, graph.names)}

    def run_image(self, stmt):
        m = self[stmt.names[0]]
        image = closed_image(m)
        return {"ideal": _ideal_strings(image.ideal, image.names), "dominant": is_dominant(m)}

    def run_invert(self, stmt):
        return {"inverse": _texts(inverse(self[stmt.names[0]]).reps[0])}

    def run_compose(self, stmt):
        return {"composition": _texts(compose(self[stmt.names[0]], self[stmt.names[1]]).reps[0])}

    def run_closedgraph(self, stmt):
        kind, obj = self.lookup(stmt.names[0])
        if kind == "map":
            if stmt.at_point is not None or stmt.on_xreg:
                raise SessionSyntaxError(
                    "closedgraph on a map takes no group point or 'xreg'", stmt.line, stmt.column)
            m, host, host_label = obj, OpenSubset.full(obj.source), "full"
        else:
            if stmt.at_point is None:
                raise SessionSyntaxError(
                    "closedgraph on an action needs a group point: at (...)", stmt.line, stmt.column)
            action, host_label = _on_host(obj, stmt)
            m, host = specialize(action, stmt.at_point), action.domain
        closed, witness = is_graph_closed(m, host)
        payload = {"closed": closed, "host": host_label}
        if witness is not None:
            payload["witness"] = _ideal_strings(witness, graph_closure(m).names)
        return ("ok" if closed else "fail"), payload

    def run_checkaction(self, stmt):
        # the declaration already validated the laws; re-state them for the record
        return {"valid": True, "laws": _laws(self[stmt.names[0]].is_finite)}

    def run_xreg(self, stmt):
        action = self[stmt.names[0]]
        reg = g_regular_locus(action)
        payload = _open_payload(reg.locus)
        payload["bad_ideals"] = [_ideal_strings(b, action.space.names) for b in reg.bad_ideals]
        return payload

    def run_regularize(self, stmt):
        action = self[stmt.names[0]]
        model = regularize_finite(action)
        names = model.model.names
        return {
            "model_coordinates": list(names),
            "presentation": _ideal_strings(model.model.ideal, names),
            "psi": _texts(model.to_space.reps[0]),
            "psi_inverse": _texts(model.from_space.reps[0]),
            "action": {
                elem: [format_polynomial(p, names) for p in model.action_on_model[elem]]
                for elem in action.group.elements
            },
        }

    def run_atlas(self, stmt):
        _no_repeats(stmt, map(_point_text, stmt.points), "point")
        action, host_label = _on_host(self[stmt.names[0]], stmt)
        atlas = build_atlas(action, stmt.points)
        report = check_atlas(atlas)
        payload = {"host": host_label, "points": [_point_payload(p) for p in atlas.points]}
        for check in ("symmetry", "cocycle", "separated", "covering"):
            payload[check] = "pass" if getattr(report, check)["passed"] else "fail"
        if report.separated["witnesses"]:
            first_key = sorted(report.separated["witnesses"])[0]
            witness = report.separated["witnesses"][first_key]
            names = graph_closure(atlas.transitions[first_key]).names
            payload["separated_witness"] = {
                "charts": list(first_key),
                "ideal": _ideal_strings(witness, names),
            }
        if not action.is_finite:
            amb = action.ambient
            payload["covering_ideal"] = _ideal_strings(report.covering["ideal"], amb.names)
            payload["covering_saturations"] = [
                _ideal_strings(s, amb.names) for s in report.covering["saturations"]
            ]
        return ("ok" if report.all_passed() else "fail"), payload

    def run_certify(self, stmt):
        kind, obj = self.lookup(stmt.names[0])
        if kind == "action":
            if stmt.wrt is not None:
                raise SessionSyntaxError(
                    "certify on an action takes no 'wrt (...) f=(...)' clause", stmt.line, stmt.column)
            result = regularity_from_subgroup(obj, list(stmt.samples))
            return {
                "regular": True,
                "samples": [_point_payload(p) for p in result.sample_points],
                "coordinates": _texts(result.polynomial_map.reps[0]),
            }
        if stmt.wrt is None:
            raise SessionSyntaxError(
                "certify on a map needs a 'wrt (...) f=(...)' clause", stmt.line, stmt.column)
        src = obj.source
        if len(obj.reps[0]) != 1:
            raise SessionSyntaxError("certify runs on maps with a single coordinate", stmt.line, stmt.column)
        if any(isinstance(p, str) for p in stmt.samples):
            raise SessionSyntaxError(
                "certify on a map takes numeric sample points, not names", stmt.line, stmt.column)
        n_left = len(stmt.wrt)
        if tuple(src.names[:n_left]) != stmt.wrt:
            raise SessionSyntaxError(
                "wrt variables must be the leading source coordinates", stmt.line, stmt.column)
        left_names = src.names[:n_left]
        right_names = src.names[n_left:]
        left_gens, right_gens = [], []
        for g in src.ideal.gens:
            present = g.variables_present()
            if present <= set(range(n_left)):
                left_gens.append(g.restrict(range(n_left)))
            elif present <= set(range(n_left, src.arity)):
                right_gens.append(g.restrict(range(n_left, src.arity)))
            else:
                raise SessionSyntaxError(
                    "source relations must separate into the two factors", stmt.line, stmt.column)
        left = AffineVariety(left_names, Ideal(n_left, left_gens))
        right = AffineVariety(right_names, Ideal(src.arity - n_left, right_gens))
        split = ProductAmbient(left, right)
        f_poly = parse_polynomial(stmt.f_expr, right_names)
        coord = obj.reps[0][0]
        F = RationalFunction(split.variety, coord.num, coord.den)
        dec = certify_regular(split, F, f_poly, samples=list(stmt.samples))
        return {
            "power": dec.power,
            "terms": [
                [format_polynomial(h, left.names), format_polynomial(fi, right.names)]
                for h, fi in dec.terms
            ],
            "samples": [_point_payload(p) for p in dec.samples],
            "matrix": [[str(c) for c in row] for row in dec.matrix],
            "coefficients": [[str(c) for c in row] for row in dec.solve_coefficients],
            "slices": [format_polynomial(p, right.names) for p in dec.slice_polynomials],
            "regular_form": format_polynomial(dec.regular_form, split.names),
        }


def _on_host(action, stmt):
    """The action on the host the command asks for, and the host's label."""
    return (restrict_to_regular_locus(action), "xreg") if stmt.on_xreg else (action, "full")


def iter_session(ast: SessionAST, max_steps=None):
    """The records of the statements, each yielded as its statement ends;
    failures are recorded and never abort the session.  `max_steps` caps the
    S-pairs of each statement."""
    session = _Session(ideals.DEFAULT_MAX_STEPS if max_steps is None else int(max_steps))
    return map(session.execute, ast.statements)


def run_session(ast: SessionAST, session_name: str = "", max_steps=None):
    """Execute every statement, producing the list of records."""
    return list(iter_session(ast, max_steps))


# -- reports ------------------------------------------------------------------------------


def emit_report(records, fmt: str = "json", session: str = "") -> str:
    """Canonical serialisation of the record list."""
    if fmt == "json":
        doc = {"version": 1, "session": session, "records": list(records)}
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "text":
        lines = []
        width = max([len("command")] + [len(r["command"]) for r in records])
        header = f"{'command'.ljust(width)}  status  steps"
        lines.append(header)
        lines.append("-" * len(header))
        for r in records:
            lines.append(f"{r['command'].ljust(width)}  {r['status']:<6}  {r['groebner_steps']}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def parse_report(text: str) -> dict:
    return json.loads(text)


def strip_timing(report: dict) -> dict:
    """Copy of a parsed report with the timing fields zeroed, for golden
    comparisons."""
    doc = json.loads(json.dumps(report))
    for record in doc.get("records", ()):
        record["millis"] = 0
    return doc
