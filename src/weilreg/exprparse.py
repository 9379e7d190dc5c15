"""Tokeniser and recursive-descent parser for polynomial and fraction
expressions: +, -, *, /, ^, integer literals, parentheses.

The session language reuses the tokeniser; the library uses the expression
parser as a convenience constructor for polynomials and coordinate fractions.
"""

from fractions import Fraction

from .errors import SessionSyntaxError
from .poly import Polynomial

SYMBOLS = ("->", "+", "-", "*", "/", "^", "(", ")", ",", ":", "=", "{", "}", "|", ";")


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
    """Token list with an EOF sentinel; '#' starts a comment to end of line."""
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            tokens.append(Token("NEWLINE", "\n", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            while j < n and text[j] == "'":  # primed copies in product ambients
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token(sym, sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise SessionSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
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
    over the named variables."""

    def __init__(self, stream: TokenStream, names):
        self.stream = stream
        self.names = list(names)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.arity = len(self.names)
        self.one = Polynomial.one(self.arity)

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

    def parse(self):
        # fractions are kept exactly as written; cancellation is the caller's
        # explicit choice
        return self.expr()

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
            self.stream.next()
            num, den = self.unary()
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
            self.stream.next()
            value = self.expr()
            self.stream.expect(")")
            return value
        raise SessionSyntaxError(
            f"unexpected token {tok.text!r}", tok.line, tok.column, expected=("INT", "IDENT", "(")
        )


def parse_fraction(text: str, names):
    """(numerator, denominator) of the expression over the named variables."""
    stream = TokenStream(text.tokens if isinstance(text, SourceExpr) else tokenize(text))
    parser = FractionExprParser(stream, names)
    num, den = parser.parse()
    tok = stream.peek()
    if tok.kind != "EOF":
        raise SessionSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.column, expected=("EOF",))
    return num, den


def parse_polynomial(text: str, names) -> Polynomial:
    num, den = parse_fraction(text, names)
    if not den.is_constant():
        raise SessionSyntaxError("expected a polynomial, found a fraction", 1, 1)
    c = den.constant_value()
    return num if c == 1 else num.scale(Fraction(1) / c)

