"""Tokeniser and recursive-descent parser for polynomial and fraction
expressions: +, -, *, /, ^, integer literals, parentheses.

The session language reuses the tokeniser; the library uses the expression
parser as a convenience constructor for polynomials and coordinate fractions.
"""

import re
from fractions import Fraction

from .errors import SessionSyntaxError
from .poly import Polynomial

# one alternative per token kind; the first that matches at a position wins
_TOKEN = re.compile(
    r"(?P<NEWLINE>\n)|(?P<SKIP>[ \t\r]+|#[^\n]*)|(?P<INT>\d+)|(?P<IDENT>[^\W\d]\w*'*)"
    r"|(?P<SYMBOL>->|[-+*/^(),:={}|;])|(?P<BAD>.)"
)


class Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


def tokenize(text: str):
    """Token list with an EOF sentinel; '#' starts a comment to end of line.
    An IDENT starts with a letter or '_', goes on with letters, decimal digits
    and '_', and may end in primes (the copies in product ambients); a
    symbol's kind is its text.  Any other character, a numeric one that is
    not a decimal digit such as '²' included, is a positioned error."""
    tokens = []
    line, line_start = 1, 0  # line_start: the offset that column 1 stands for
    for m in _TOKEN.finditer(text):
        kind, start = m.lastgroup, m.start()
        if kind == "SKIP":
            continue
        value = m.group()
        if kind == "IDENT" and not value.isascii():
            # \w also holds numeric characters that are not decimal digits, such as '²'
            bad = next((k for k, ch in enumerate(value) if not (ch.isalpha() or ch.isdecimal() or ch in "_'")), None)
            if bad is not None:
                kind, start, value = "BAD", start + bad, value[bad]
        if kind == "BAD":
            raise SessionSyntaxError(f"unexpected character {value[0]!r}", line, start - line_start + 1)
        tokens.append(Token(value if kind == "SYMBOL" else kind, value, line, start - line_start + 1))
        if kind == "NEWLINE":
            line += 1
            line_start = start + 1
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


class SourceExpr(str):
    """The text of an expression read out of a longer token stream, such as a
    session, together with the tokens it was read from, closed by an EOF
    token where the expression ended.  `parse_fraction` parses those tokens,
    so its errors give positions in the whole stream, not in the text."""

    def __new__(cls, text: str, tokens):
        self = super().__new__(cls, text)
        self.tokens = tuple(tokens)
        return self

    def __getnewargs__(self):
        return str(self), self.tokens


class TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, *kinds) -> Token:
        tok = self.peek()
        if tok.kind not in kinds:
            raise SessionSyntaxError(
                f"unexpected token {tok.text!r}", tok.line, tok.column, expected=kinds
            )
        return self.next()

    def at(self, *kinds) -> bool:
        return self.peek().kind in kinds


class FractionExprParser:
    """Parses an expression into a (numerator, denominator) polynomial pair
    over the named variables, with `expr()`.  Fractions are kept exactly as
    written; cancellation is the caller's explicit choice."""

    # parentheses and unary minuses open at once: each level costs a few
    # frames, so deeper input is refused well inside the recursion limit
    MAX_NESTING = 100

    def __init__(self, stream: TokenStream, names):
        self.stream = stream
        self.names = list(names)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.arity = len(self.names)
        self.one = Polynomial.one(self.arity)
        self.depth = 0

    def _nested(self, tok, parse):
        """parse() one nesting level deeper, opened by tok."""
        if self.depth == self.MAX_NESTING:
            raise SessionSyntaxError(
                f"expression nested deeper than {self.MAX_NESTING} levels", tok.line, tok.column)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    # fraction pair helpers
    def _times(self, p, q):
        """p*q, without multiplying when a factor is the polynomial 1."""
        if q == self.one:
            return p
        return q if p == self.one else p * q

    def _add(self, a, b, sign=1):
        left, right = self._times(a[0], b[1]), self._times(b[0], a[1])
        return (left + right if sign > 0 else left - right, self._times(a[1], b[1]))

    def _mul(self, a, b):
        return (self._times(a[0], b[0]), self._times(a[1], b[1]))

    def _div(self, a, b):
        tok = self.stream.peek()
        if b[0].is_zero():
            raise SessionSyntaxError("division by zero", tok.line, tok.column)
        return (self._times(a[0], b[1]), self._times(a[1], b[0]))

    def expr(self):
        value = self.term()
        while self.stream.at("+", "-"):
            op = self.stream.next()
            rhs = self.term()
            value = self._add(value, rhs, 1 if op.kind == "+" else -1)
        return value

    def term(self):
        value = self.unary()
        while self.stream.at("*", "/"):
            op = self.stream.next()
            rhs = self.unary()
            value = self._mul(value, rhs) if op.kind == "*" else self._div(value, rhs)
        return value

    def unary(self):
        if self.stream.at("-"):
            num, den = self._nested(self.stream.next(), self.unary)
            return (-num, den)
        return self.power()

    def power(self):
        value = self.atom()
        while self.stream.at("^"):
            self.stream.next()
            tok = self.stream.expect("INT")
            e = int(tok.text)
            return_num = value[0] ** e
            return_den = value[1] ** e
            value = (return_num, return_den)
        return value

    def atom(self):
        tok = self.stream.peek()
        if tok.kind == "INT":
            self.stream.next()
            return (Polynomial.constant(self.arity, int(tok.text)), self.one)
        if tok.kind == "IDENT":
            if tok.text not in self.index:
                raise SessionSyntaxError(f"unknown variable {tok.text!r}", tok.line, tok.column)
            self.stream.next()
            return (Polynomial.variable(self.arity, self.index[tok.text]), self.one)
        if tok.kind == "(":
            value = self._nested(self.stream.next(), self.expr)
            self.stream.expect(")")
            return value
        raise SessionSyntaxError(
            f"unexpected token {tok.text!r}", tok.line, tok.column, expected=("INT", "IDENT", "(")
        )


def parse_fraction(text: str, names):
    """(numerator, denominator) of the expression over the named variables."""
    stream = TokenStream(text.tokens if isinstance(text, SourceExpr) else tokenize(text))
    num, den = FractionExprParser(stream, names).expr()
    tok = stream.peek()
    if tok.kind != "EOF":
        raise SessionSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.column, expected=("EOF",))
    return num, den


def parse_polynomial(text: str, names) -> Polynomial:
    """The polynomial the expression denotes; a fraction with a non-constant
    denominator is an error at the expression's first token."""
    num, den = parse_fraction(text, names)
    if not den.is_constant():
        first = text.tokens[0] if isinstance(text, SourceExpr) else Token("EOF", "", 1, 1)
        raise SessionSyntaxError("expected a polynomial, found a fraction", first.line, first.column)
    c = den.constant_value()
    return num if c == 1 else num.scale(Fraction(1) / c)

