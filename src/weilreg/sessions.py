"""The session language: declarations of varieties, maps, groups and actions,
plus commands driving the toolkit, with structured reports.

One statement per line.  Statements never abort a session at run time: every
statement yields a report record and domain failures are recorded, not
re-raised.  Parsing is total: bad input produces a positioned diagnostic.
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
from .errors import (
    SessionSyntaxError,
    UseBeforeDeclare,
    WeilregError,
    NotAnAction,
    NotBirational,
    NotFPower,
    NotInSpan,
    NotRegularOnSample,
    EmptyLocus,
    NonPolynomialResidue,
    RoundTripFailure,
    SliceNotRegular,
)
from .exprparse import FractionExprParser, Token, TokenStream, tokenize
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

# domain rejections: the command ran and the mathematics said no
_FAIL_ERRORS = (
    NotAnAction,
    NotBirational,
    NotFPower,
    NotInSpan,
    NotRegularOnSample,
    EmptyLocus,
    NonPolynomialResidue,
    RoundTripFailure,
    SliceNotRegular,
)

COMMAND_KEYWORDS = (
    "dom", "breg", "graph", "image", "invert", "compose", "closedgraph",
    "checkaction", "xreg", "regularize", "atlas", "certify",
)


# -- AST -------------------------------------------------------------------------


@dataclass
class Statement:
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass
class VarDecl(Statement):
    names: tuple = ()


@dataclass
class VarietyDecl(Statement):
    name: str = ""
    coords: tuple = ()
    ideal_exprs: tuple = ()


@dataclass
class MapDecl(Statement):
    name: str = ""
    source: str = ""
    target: str = ""
    coord_exprs: tuple = ()


@dataclass
class GroupDecl(Statement):
    name: str = ""
    kind: str = ""  # additive | multiplicative | finite | product
    coords: tuple = ()  # additive/multiplicative coordinate names
    elements: tuple = ()  # finite mode
    products: tuple = ()  # finite mode: ((a, b, c) meaning a*b=c)
    factors: tuple = ()  # product mode: declared group names


@dataclass
class ActionDecl(Statement):
    name: str = ""
    group: str = ""
    space: str = ""
    target: str = ""
    coord_exprs: tuple = ()  # parametric
    element_exprs: tuple = ()  # finite: ((elem, exprs), ...)


@dataclass
class Command(Statement):
    keyword: str = ""
    names: tuple = ()  # object references in order
    at_point: tuple = None  # rational tuple for closedgraph
    on_xreg: bool = False
    points: tuple = None  # S = (...) for atlas
    wrt: tuple = None  # certify: parameter-side variable names
    f_expr: str = None  # certify: hypersurface expression
    samples: tuple = None  # certify: sample points (tuples or names)


@dataclass
class SessionAST:
    statements: tuple


# -- parsing -----------------------------------------------------------------------


def _expr_text(tokens):
    return "".join(t.text for t in tokens)


class _SessionParser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.declared = {}  # name -> kind

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, *kinds):
        tok = self.peek()
        if tok.kind not in kinds:
            raise SessionSyntaxError(f"unexpected token {tok.text!r}", tok.line, tok.column, kinds)
        return self.next()

    def expect_ident(self, what="identifier"):
        tok = self.peek()
        if tok.kind != "IDENT":
            raise SessionSyntaxError(f"expected {what}, found {tok.text!r}", tok.line, tok.column, ("IDENT",))
        return self.next()

    def at(self, *kinds):
        return self.peek().kind in kinds

    def at_word(self, word):
        tok = self.peek()
        return tok.kind == "IDENT" and tok.text == word

    def expect_word(self, word):
        tok = self.peek()
        if not self.at_word(word):
            raise SessionSyntaxError(f"expected {word!r}, found {tok.text!r}", tok.line, tok.column, (word,))
        return self.next()

    def skip_newlines(self):
        while self.at("NEWLINE"):
            self.next()

    def end_statement(self):
        tok = self.peek()
        if tok.kind not in ("NEWLINE", "EOF"):
            raise SessionSyntaxError(
                f"unexpected trailing token {tok.text!r}", tok.line, tok.column, ("NEWLINE", "EOF")
            )
        if tok.kind == "NEWLINE":
            self.next()

    # expression helpers -----------------------------------------------------

    def balanced_expr_tokens(self, stoppers=(",", ")")):
        """Tokens up to an unparenthesised stopper; no newlines inside."""
        depth = 0
        out = []
        while True:
            tok = self.peek()
            if tok.kind in ("NEWLINE", "EOF"):
                if depth:
                    raise SessionSyntaxError("unclosed parenthesis", tok.line, tok.column, (")",))
                break
            if tok.kind == "(":
                depth += 1
            elif tok.kind == ")":
                if depth == 0:
                    break
                depth -= 1
            elif tok.kind in stoppers and depth == 0:
                break
            out.append(self.next())
        if not out:
            tok = self.peek()
            raise SessionSyntaxError("expected an expression", tok.line, tok.column, ("INT", "IDENT", "("))
        return out

    def expr_list_in_parens(self):
        self.expect("(")
        exprs = [_expr_text(self.balanced_expr_tokens())]
        while self.at(","):
            self.next()
            exprs.append(_expr_text(self.balanced_expr_tokens()))
        self.expect(")")
        return tuple(exprs)

    def rational(self):
        tokens = self.balanced_expr_tokens()
        text = _expr_text(tokens)
        parser = FractionExprParser(TokenStream(tokens + [Token("EOF", "", 0, 0)]), [])
        num, den = parser.parse()
        return num.constant_value() / den.constant_value(), text

    def point_or_name(self):
        """A sample item: rational, parenthesised rational tuple, or name."""
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            values = [self.rational()[0]]
            while self.at(","):
                self.next()
                values.append(self.rational()[0])
            self.expect(")")
            return tuple(values)
        if tok.kind == "IDENT" and not _looks_numeric(tok.text):
            self.next()
            return tok.text
        value, _ = self.rational()
        return (value,)

    def point_list(self):
        self.expect("(")
        items = [self.point_or_name()]
        while self.at(","):
            self.next()
            items.append(self.point_or_name())
        self.expect(")")
        return tuple(items)

    # declarations --------------------------------------------------------------

    def require_declared(self, name_tok, *kinds):
        name = name_tok.text
        kind = self.declared.get(name)
        if kind is None:
            raise UseBeforeDeclare(
                f"{name!r} used at line {name_tok.line} before declaration"
            )
        if kinds and kind not in kinds:
            raise SessionSyntaxError(
                f"{name!r} is a {kind}, expected {' or '.join(kinds)}",
                name_tok.line, name_tok.column,
            )
        return name

    def declare(self, tok, kind):
        if tok.text in self.declared:
            raise SessionSyntaxError(f"{tok.text!r} already declared", tok.line, tok.column)
        self.declared[tok.text] = kind
        return tok.text

    def parse(self) -> SessionAST:
        statements = []
        self.skip_newlines()
        while not self.at("EOF"):
            statements.append(self.statement())
            self.skip_newlines()
        return SessionAST(tuple(statements))

    def statement(self) -> Statement:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise SessionSyntaxError(
                f"expected a statement, found {tok.text!r}", tok.line, tok.column,
                ("var", "variety", "map", "group", "action", "cmd"),
            )
        word = tok.text
        if word == "var":
            return self.var_decl()
        if word == "variety":
            return self.variety_decl()
        if word == "map":
            return self.map_decl()
        if word == "group":
            return self.group_decl()
        if word == "action":
            return self.action_decl()
        if word == "cmd":
            return self.command()
        raise SessionSyntaxError(
            f"unknown statement {word!r}", tok.line, tok.column,
            ("var", "variety", "map", "group", "action", "cmd"),
        )

    def var_decl(self):
        start = self.next()
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
            self.declared.setdefault(n, "variable")
        self.end_statement()
        return VarDecl(start.line, start.column, tuple(names))

    def variety_decl(self):
        start = self.next()
        name_tok = self.expect_ident("variety name")
        self.expect("=")
        self.expect_word("affine")
        self.expect("(")
        coords = [self.expect_ident("coordinate").text]
        while self.at(","):
            self.next()
            coords.append(self.expect_ident("coordinate").text)
        self.expect(")")
        for c in coords:
            if self.declared.get(c) != "variable":
                raise UseBeforeDeclare(f"coordinate {c!r} was not declared with 'var'")
        ideal_exprs = ()
        if self.at("/"):
            self.next()
            ideal_exprs = self.expr_list_in_parens()
        self.end_statement()
        name = self.declare(name_tok, "variety")
        return VarietyDecl(start.line, start.column, name, tuple(coords), ideal_exprs)

    def map_decl(self):
        start = self.next()
        name_tok = self.expect_ident("map name")
        self.expect(":")
        src = self.require_declared(self.expect_ident("source variety"), "variety")
        self.expect("->")
        tgt = self.require_declared(self.expect_ident("target variety"), "variety")
        self.expect("=")
        exprs = self.expr_list_in_parens()
        self.end_statement()
        name = self.declare(name_tok, "map")
        return MapDecl(start.line, start.column, name, src, tgt, exprs)

    def group_decl(self):
        start = self.next()
        name_tok = self.expect_ident("group name")
        self.expect("=")
        head = self.expect_ident("group kind")
        if head.text == "Ga":
            self.expect("(")
            coord = self.expect_ident("coordinate").text
            self.expect(")")
            if self.declared.get(coord) != "variable":
                raise UseBeforeDeclare(f"coordinate {coord!r} was not declared with 'var'")
            self.end_statement()
            name = self.declare(name_tok, "group")
            return GroupDecl(start.line, start.column, name, "additive", (coord,))
        if head.text == "Gm":
            self.expect("(")
            a = self.expect_ident("coordinate").text
            self.expect(",")
            b = self.expect_ident("coordinate").text
            self.expect(")")
            for c in (a, b):
                if self.declared.get(c) != "variable":
                    raise UseBeforeDeclare(f"coordinate {c!r} was not declared with 'var'")
            self.end_statement()
            name = self.declare(name_tok, "group")
            return GroupDecl(start.line, start.column, name, "multiplicative", (a, b))
        if head.text == "finite":
            self.expect("(")
            elements = [self.expect_ident("element").text]
            while self.at(","):
                self.next()
                elements.append(self.expect_ident("element").text)
            products = []
            if self.at("|"):
                self.next()
                while True:
                    a = self.expect_ident("element").text
                    self.expect("*")
                    b = self.expect_ident("element").text
                    self.expect("=")
                    c = self.expect_ident("element").text
                    products.append((a, b, c))
                    if self.at(","):
                        self.next()
                        continue
                    break
            self.expect(")")
            self.end_statement()
            name = self.declare(name_tok, "group")
            return GroupDecl(start.line, start.column, name, "finite",
                             elements=tuple(elements), products=tuple(products))
        # product of declared groups: G x H
        first = self.require_declared(head, "group")
        factors = [first]
        while self.at_word("x"):
            self.next()
            factors.append(self.require_declared(self.expect_ident("group name"), "group"))
        if len(factors) < 2:
            raise SessionSyntaxError(
                f"unknown group kind {head.text!r}", head.line, head.column,
                ("Ga", "Gm", "finite", "group name"),
            )
        self.end_statement()
        name = self.declare(name_tok, "group")
        return GroupDecl(start.line, start.column, name, "product", factors=tuple(factors))

    def action_decl(self):
        start = self.next()
        name_tok = self.expect_ident("action name")
        self.expect(":")
        group = self.require_declared(self.expect_ident("group name"), "group")
        self.expect_word("x")
        space = self.require_declared(self.expect_ident("variety name"), "variety")
        self.expect("->")
        target = self.require_declared(self.expect_ident("variety name"), "variety")
        self.expect("=")
        if self.at("{"):
            self.next()
            element_exprs = []
            while True:
                elem = self.expect_ident("element name").text
                self.expect(":")
                exprs = self.expr_list_in_parens()
                element_exprs.append((elem, exprs))
                if self.at(","):
                    self.next()
                    continue
                break
            self.expect("}")
            self.end_statement()
            name = self.declare(name_tok, "action")
            return ActionDecl(start.line, start.column, name, group, space, target,
                              element_exprs=tuple(element_exprs))
        exprs = self.expr_list_in_parens()
        self.end_statement()
        name = self.declare(name_tok, "action")
        return ActionDecl(start.line, start.column, name, group, space, target,
                          coord_exprs=exprs)

    # commands -------------------------------------------------------------------

    def command(self):
        start = self.next()
        key_tok = self.expect_ident("command keyword")
        keyword = key_tok.text
        if keyword not in COMMAND_KEYWORDS:
            raise SessionSyntaxError(
                f"unknown command {keyword!r}", key_tok.line, key_tok.column, COMMAND_KEYWORDS
            )
        cmd = Command(start.line, start.column, keyword)
        if keyword in ("dom", "breg", "graph", "image", "invert"):
            cmd.names = (self.require_declared(self.expect_ident("map name"), "map"),)
        elif keyword == "compose":
            a = self.require_declared(self.expect_ident("map name"), "map")
            b = self.require_declared(self.expect_ident("map name"), "map")
            cmd.names = (a, b)
        elif keyword == "closedgraph":
            tok = self.expect_ident("map or action name")
            name = self.require_declared(tok, "map", "action")
            cmd.names = (name,)
            if self.at_word("at"):
                self.next()
                self.expect("(")
                values = [self.rational()[0]]
                while self.at(","):
                    self.next()
                    values.append(self.rational()[0])
                self.expect(")")
                cmd.at_point = tuple(values)
            if self.at_word("xreg"):
                self.next()
                cmd.on_xreg = True
        elif keyword in ("checkaction", "xreg", "regularize"):
            cmd.names = (self.require_declared(self.expect_ident("action name"), "action"),)
        elif keyword == "atlas":
            cmd.names = (self.require_declared(self.expect_ident("action name"), "action"),)
            self.expect_word("S")
            self.expect("=")
            cmd.points = self.point_list()
            if self.at_word("xreg"):
                self.next()
                cmd.on_xreg = True
        elif keyword == "certify":
            tok = self.expect_ident("map or action name")
            name = self.require_declared(tok, "map", "action")
            cmd.names = (name,)
            if self.at_word("wrt"):
                self.next()
                self.expect("(")
                wrt = [self.expect_ident("variable").text]
                while self.at(","):
                    self.next()
                    wrt.append(self.expect_ident("variable").text)
                self.expect(")")
                cmd.wrt = tuple(wrt)
                self.expect_word("f")
                self.expect("=")
                self.expect("(")
                cmd.f_expr = _expr_text(self.balanced_expr_tokens())
                self.expect(")")
            self.expect_word("samples")
            self.expect("=")
            cmd.samples = self.point_list()
        self.end_statement()
        return cmd


def _looks_numeric(text):
    return text and (text[0].isdigit() or text[0] == "-")


def parse_session(text: str) -> SessionAST:
    """AST of the session, or a positioned diagnostic."""
    return _SessionParser(text).parse()


# -- pretty printing -----------------------------------------------------------------


def _format_point(p):
    if isinstance(p, str):
        return p
    if len(p) == 1:
        return _frac_str(p[0])
    inner = ", ".join(_frac_str(c) for c in p)
    return f"({inner})"


def _frac_str(value: Fraction) -> str:
    return str(value)


def format_statement(stmt: Statement) -> str:
    if isinstance(stmt, VarDecl):
        return "var " + " ".join(stmt.names)
    if isinstance(stmt, VarietyDecl):
        base = f"variety {stmt.name} = affine({', '.join(stmt.coords)})"
        if stmt.ideal_exprs:
            base += "/(" + ", ".join(stmt.ideal_exprs) + ")"
        return base
    if isinstance(stmt, MapDecl):
        return f"map {stmt.name} : {stmt.source} -> {stmt.target} = (" + ", ".join(stmt.coord_exprs) + ")"
    if isinstance(stmt, GroupDecl):
        if stmt.kind == "additive":
            return f"group {stmt.name} = Ga({stmt.coords[0]})"
        if stmt.kind == "multiplicative":
            return f"group {stmt.name} = Gm({stmt.coords[0]}, {stmt.coords[1]})"
        if stmt.kind == "finite":
            body = ", ".join(stmt.elements)
            if stmt.products:
                body += " | " + ", ".join(f"{a}*{b} = {c}" for a, b, c in stmt.products)
            return f"group {stmt.name} = finite({body})"
        return f"group {stmt.name} = " + " x ".join(stmt.factors)
    if isinstance(stmt, ActionDecl):
        head = f"action {stmt.name} : {stmt.group} x {stmt.space} -> {stmt.target} = "
        if stmt.coord_exprs:
            return head + "(" + ", ".join(stmt.coord_exprs) + ")"
        parts = [f"{elem}: (" + ", ".join(exprs) + ")" for elem, exprs in stmt.element_exprs]
        return head + "{" + ", ".join(parts) + "}"
    if isinstance(stmt, Command):
        parts = [f"cmd {stmt.keyword}"] + list(stmt.names)
        if stmt.at_point is not None:
            parts.append("at (" + ", ".join(_frac_str(c) for c in stmt.at_point) + ")")
        if stmt.wrt is not None:
            parts.append("wrt (" + ", ".join(stmt.wrt) + ")")
        if stmt.f_expr is not None:
            parts.append(f"f=({stmt.f_expr})")
        if stmt.points is not None:
            parts.append("S=(" + ", ".join(_format_point(p) for p in stmt.points) + ")")
        if stmt.samples is not None:
            parts.append("samples=(" + ", ".join(_format_point(p) for p in stmt.samples) + ")")
        if stmt.on_xreg:
            parts.append("xreg")
        return " ".join(parts)
    raise TypeError(f"unknown statement {stmt!r}")


def format_session(ast: SessionAST) -> str:
    return "\n".join(format_statement(s) for s in ast.statements) + "\n"


# -- execution --------------------------------------------------------------------------


class _Environment:
    def __init__(self):
        self.objects = {}  # name -> (kind, object)
        self.failed = set()  # names whose declaration failed

    def bind(self, name, kind, obj):
        self.objects[name] = (kind, obj)

    def fetch(self, name, *kinds):
        if name in self.failed:
            raise UseBeforeDeclare(f"{name!r} is unavailable: its declaration failed")
        if name not in self.objects:
            raise UseBeforeDeclare(f"{name!r} was never bound")
        kind, obj = self.objects[name]
        if kinds and kind not in kinds:
            raise UseBeforeDeclare(f"{name!r} is a {kind}, expected {' or '.join(kinds)}")
        return obj




def _ideal_strings(ideal: Ideal, names) -> list:
    basis = ideal.groebner_basis()
    return [format_polynomial(g, names) for g in basis]


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


class _Runner:
    def __init__(self, env: _Environment):
        self.env = env

    # declarations -----------------------------------------------------------

    def run_var(self, stmt: VarDecl):
        return {"vars": list(stmt.names)}

    def run_variety(self, stmt: VarietyDecl):
        gens = [FractionExprParser(
            TokenStream(tokenize(e) ), list(stmt.coords)).parse() for e in stmt.ideal_exprs]
        polys = []
        for num, den in gens:
            if not den.is_constant():
                raise SessionSyntaxError("ideal generators must be polynomials", stmt.line, stmt.column)
            polys.append(num.scale(Fraction(1) / den.constant_value()))
        X = AffineVariety(stmt.coords, Ideal(len(stmt.coords), polys))
        self.env.bind(stmt.name, "variety", X)
        return {
            "variety": stmt.name,
            "coordinates": list(stmt.coords),
            "ideal": [format_polynomial(g, X.names) for g in X.ideal.gens],
        }

    def run_map(self, stmt: MapDecl):
        src = self.env.fetch(stmt.source, "variety")
        tgt = self.env.fetch(stmt.target, "variety")
        coords = tuple(RationalFunction.parse(src, e) for e in stmt.coord_exprs)
        m = make_rational_map(src, tgt, [coords])
        self.env.bind(stmt.name, "map", m)
        return {
            "map": stmt.name,
            "source": stmt.source,
            "target": stmt.target,
            "coordinates": [_fraction_text(f) for f in m.reps[0]],
        }

    def run_group(self, stmt: GroupDecl):
        if stmt.kind == "additive":
            G = additive_group(stmt.coords[0])
        elif stmt.kind == "multiplicative":
            G = multiplicative_group(stmt.coords)
        elif stmt.kind == "finite":
            table = {}
            e = stmt.elements[0]
            for a in stmt.elements:
                table[(e, a)] = a
                table[(a, e)] = a
            for a, b, c in stmt.products:
                table[(a, b)] = c
            G = finite_group(stmt.elements, table)
        else:
            factors = [self.env.fetch(f, "group") for f in stmt.factors]
            G = factors[0]
            for h in factors[1:]:
                G = product_group(G, h)
        self.env.bind(stmt.name, "group", G)
        payload = {"group": stmt.name, "kind": stmt.kind}
        if G.is_finite:
            payload["elements"] = list(G.elements)
        else:
            payload["coordinates"] = list(G.variety.names)
        return payload

    def run_action(self, stmt: ActionDecl):
        G = self.env.fetch(stmt.group, "group")
        X = self.env.fetch(stmt.space, "variety")
        if stmt.space != stmt.target:
            raise SessionSyntaxError("actions must map the space to itself", stmt.line, stmt.column)
        if stmt.element_exprs:
            if not G.is_finite:
                raise SessionSyntaxError(
                    "element tables require a finite group", stmt.line, stmt.column)
            maps = {G.identity_element: identity_map(X)}
            for elem, exprs in stmt.element_exprs:
                if elem not in G.elements:
                    raise UseBeforeDeclare(f"{elem!r} is not an element of {stmt.group}")
                coords = tuple(RationalFunction.parse(X, e) for e in exprs)
                maps[elem] = make_rational_map(X, X, [coords])
            for elem in G.elements:
                if elem not in maps:
                    raise SessionSyntaxError(
                        f"no map supplied for element {elem!r}", stmt.line, stmt.column)
            action = make_rational_action(G, X, maps)
        else:
            if G.is_finite:
                raise SessionSyntaxError(
                    "finite groups act through element tables", stmt.line, stmt.column)
            amb = ProductAmbient(G.variety, X)
            coords = tuple(RationalFunction.parse(amb.variety, e) for e in stmt.coord_exprs)
            rho = make_rational_map(amb.variety, X, [coords])
            action = make_rational_action(G, X, rho)
        self.env.bind(stmt.name, "action", action)
        return {
            "action": stmt.name,
            "kind": "finite" if G.is_finite else "parametric",
            "laws": ["identity", "homomorphism"] if G.is_finite else ["identity", "associativity"],
        }

    # commands ------------------------------------------------------------------

    def run_command(self, stmt: Command):
        handler = getattr(self, f"cmd_{stmt.keyword}")
        return handler(stmt)

    def cmd_dom(self, stmt):
        m = self.env.fetch(stmt.names[0], "map")
        return "ok", _open_payload(definable_locus(m))

    def cmd_breg(self, stmt):
        m = self.env.fetch(stmt.names[0], "map")
        return "ok", _open_payload(biregular_locus(m))

    def cmd_graph(self, stmt):
        m = self.env.fetch(stmt.names[0], "map")
        graph = graph_closure(m)
        return "ok", {
            "ambient": list(graph.names),
            "ideal": _ideal_strings(graph.ideal, graph.names),
        }

    def cmd_image(self, stmt):
        m = self.env.fetch(stmt.names[0], "map")
        image = closed_image(m)
        return "ok", {
            "ideal": _ideal_strings(image.ideal, image.names),
            "dominant": is_dominant(m),
        }

    def cmd_invert(self, stmt):
        m = self.env.fetch(stmt.names[0], "map")
        inv = inverse(m)
        return "ok", {"inverse": [_fraction_text(f) for f in inv.reps[0]]}

    def cmd_compose(self, stmt):
        a = self.env.fetch(stmt.names[0], "map")
        b = self.env.fetch(stmt.names[1], "map")
        composed = compose(a, b)
        return "ok", {"composition": [_fraction_text(f) for f in composed.reps[0]]}

    def _resolve_self_map(self, stmt):
        kind, obj = self.env.objects.get(stmt.names[0], (None, None))
        if stmt.names[0] in self.env.failed or kind is None:
            self.env.fetch(stmt.names[0])  # raises
        if kind == "map":
            return obj, OpenSubset.full(obj.source), "full"
        action = obj
        host_label = "full"
        if stmt.on_xreg:
            action = restrict_to_regular_locus(action)
            host_label = "xreg"
        if stmt.at_point is None:
            raise SessionSyntaxError(
                "closedgraph on an action needs a group point: at (...)", stmt.line, stmt.column)
        m = specialize(action, stmt.at_point)
        return m, action.domain, host_label

    def cmd_closedgraph(self, stmt):
        m, host, host_label = self._resolve_self_map(stmt)
        closed, witness = is_graph_closed(m, host)
        payload = {"closed": closed, "host": host_label}
        if witness is not None:
            names = graph_closure(m).names
            payload["witness"] = _ideal_strings(witness, names)
        return ("ok" if closed else "fail"), payload

    def cmd_checkaction(self, stmt):
        action = self.env.fetch(stmt.names[0], "action")
        # declaration already validated the laws; re-state them for the record
        laws = ["identity", "homomorphism"] if action.is_finite else ["identity", "associativity"]
        return "ok", {"valid": True, "laws": laws}

    def cmd_xreg(self, stmt):
        action = self.env.fetch(stmt.names[0], "action")
        reg = g_regular_locus(action)
        payload = _open_payload(reg.locus)
        names = action.space.names
        payload["bad_ideals"] = [_ideal_strings(b, names) for b in reg.bad_ideals]
        return "ok", payload

    def cmd_regularize(self, stmt):
        action = self.env.fetch(stmt.names[0], "action")
        model = regularize_finite(action)
        names = model.model.names
        return "ok", {
            "model_coordinates": list(names),
            "presentation": _ideal_strings(model.model.ideal, names),
            "psi": [_fraction_text(f) for f in model.to_space.reps[0]],
            "psi_inverse": [_fraction_text(f) for f in model.from_space.reps[0]],
            "action": {
                elem: [format_polynomial(p, names) for p in model.action_on_model[elem]]
                for elem in action.group.elements
            },
        }

    def cmd_atlas(self, stmt):
        action = self.env.fetch(stmt.names[0], "action")
        host_label = "full"
        if stmt.on_xreg:
            action = restrict_to_regular_locus(action)
            host_label = "xreg"
        atlas = build_atlas(action, stmt.points)
        report = check_atlas(atlas)
        payload = {
            "host": host_label,
            "points": [_point_payload(p) for p in atlas.points],
            "symmetry": "pass" if report.symmetry["passed"] else "fail",
            "cocycle": "pass" if report.cocycle["passed"] else "fail",
            "separated": "pass" if report.separated["passed"] else "fail",
            "covering": "pass" if report.covering["passed"] else "fail",
        }
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
        status = "ok" if report.all_passed() else "fail"
        return status, payload

    def cmd_certify(self, stmt):
        kind, obj = self.env.objects.get(stmt.names[0], (None, None))
        if stmt.names[0] in self.env.failed or kind is None:
            self.env.fetch(stmt.names[0])
        if kind == "action":
            samples = [p for p in stmt.samples]
            result = regularity_from_subgroup(obj, samples)
            return "ok", {
                "regular": True,
                "samples": [_point_payload(p) for p in result.sample_points],
                "coordinates": [_fraction_text(f) for f in result.polynomial_map.reps[0]],
            }
        m = obj
        src = m.source
        if len(m.reps[0]) != 1:
            raise SessionSyntaxError(
                "certify runs on maps with a single coordinate", stmt.line, stmt.column)
        wrt = stmt.wrt or ()
        n_left = len(wrt)
        if tuple(src.names[:n_left]) != tuple(wrt):
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
        f_num, f_den = FractionExprParser(
            TokenStream(tokenize(stmt.f_expr)), list(right_names)).parse()
        if not f_den.is_constant():
            raise SessionSyntaxError("f must be a polynomial", stmt.line, stmt.column)
        f_poly = f_num.scale(Fraction(1) / f_den.constant_value())
        coord = m.reps[0][0]
        F = RationalFunction(split.variety, coord.num, coord.den)
        samples = [p for p in stmt.samples]
        dec = certify_regular(split, F, f_poly, samples=samples)
        return "ok", {
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


def run_session(ast: SessionAST, session_name: str = "", max_steps=None):
    """Execute every statement, producing one record each; failures are
    recorded and never abort the session."""
    budget = None if max_steps is None else ideals.STEP_BUDGET.set(int(max_steps))
    env = _Environment()
    runner = _Runner(env)

    def execute(stmt):
        ideals.reset_step_tally()
        started = time.perf_counter()
        status = "ok"
        payload = {}
        try:
            if isinstance(stmt, Command):
                result = runner.run_command(stmt)
                if isinstance(result, tuple):
                    status, payload = result
                else:
                    payload = result
            else:
                payload = _run_declaration(runner, stmt, env)
        except _FAIL_ERRORS as err:
            status = "fail"
            payload = {"reason": type(err).__name__, "message": str(err)}
            if isinstance(stmt, (VarietyDecl, MapDecl, GroupDecl, ActionDecl)):
                env.failed.add(stmt.name)
        except WeilregError as err:
            status = "error"
            payload = {"reason": type(err).__name__, "message": str(err)}
            if isinstance(stmt, (VarietyDecl, MapDecl, GroupDecl, ActionDecl)):
                env.failed.add(stmt.name)
        millis = int((time.perf_counter() - started) * 1000)
        return {
            "command": format_statement(stmt),
            "status": status,
            "payload": payload,
            "millis": millis,
            "groebner_steps": ideals.step_tally(),
        }

    try:
        return [execute(stmt) for stmt in ast.statements]
    finally:
        if budget is not None:
            ideals.STEP_BUDGET.reset(budget)


def _run_declaration(runner: _Runner, stmt, env):
    if isinstance(stmt, VarDecl):
        return runner.run_var(stmt)
    if isinstance(stmt, VarietyDecl):
        return runner.run_variety(stmt)
    if isinstance(stmt, MapDecl):
        return runner.run_map(stmt)
    if isinstance(stmt, GroupDecl):
        return runner.run_group(stmt)
    if isinstance(stmt, ActionDecl):
        return runner.run_action(stmt)
    raise TypeError(f"unknown statement {stmt!r}")


# -- reports ------------------------------------------------------------------------------


def emit_report(records, fmt: str = "json", session: str = "") -> str:
    """Canonical serialisation of the record list."""
    if fmt == "json":
        doc = {"version": 1, "session": session, "records": list(records)}
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "text":
        lines = []
        width = max((len(r["command"]) for r in records), default=7)
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
