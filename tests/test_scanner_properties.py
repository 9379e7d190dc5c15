"""Hypothesis property of the session scanner (derandomized: see conftest.py).

The oracle is `oracles.tokenize`, the character loop the scanner replaced,
with its one change: only decimal digits are digits.  Both must give the
same tokens, kind, text, line and column included, or the same positioned
diagnostic, so a numeric character that is not a decimal digit, such as
'²', is rejected where it stands: alone, after an INT or inside an IDENT.
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
    assert _outcome(tokenize, text) == _outcome(oracles.tokenize, text)
