"""Hypothesis property of the session scanner (derandomized: see conftest.py).

The oracle is `oracles.tokenize`, the character loop the scanner replaced,
kept verbatim.  Both must give the same tokens, kind, text, line and column
included, or the same positioned diagnostic.  The one allowed difference is
a digit that is not decimal, such as '²': the loop read it into an INT,
which `int()` then refused, and the scanner rejects it where it stands.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from weilreg.errors import SessionSyntaxError  # noqa: E402
from weilreg.exprparse import tokenize  # noqa: E402

import oracles  # noqa: E402

FRAGMENTS = (
    *"xy_Z09()+-*/^,:={}|;><'@ ", "\t", "\r", "\n", "\r\n", "->", "# note", "#",
    "é", "ß", "λ", "ǅ", "x'", "٣", "²", "½", "①", "́", "\xa0",
)


def _outcome(scan, text):
    try:
        return [(t.kind, t.text, t.line, t.column) for t in scan(text)]
    except SessionSyntaxError as err:
        return str(err), err.line, err.column


@settings(max_examples=300)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join))
def test_the_scanner_reads_like_the_character_loop(text):
    new, old = _outcome(tokenize, text), _outcome(oracles.tokenize, text)
    if new == old:
        return
    message, line, column = new
    offset = sum(len(row) + 1 for row in text.split("\n")[:line - 1]) + column - 1
    ch = text[offset]
    assert ch.isdigit() and not ch.isdecimal()
    assert message == f"unexpected character {ch!r} at line {line}, column {column}"
    # up to that character the two agree, and the loop read it into an INT
    assert _outcome(tokenize, text[:offset]) == _outcome(oracles.tokenize, text[:offset])
    kind, token_text, _, _ = _outcome(oracles.tokenize, text[:offset + 1])[-2]
    assert kind == "INT" and token_text.endswith(ch)
