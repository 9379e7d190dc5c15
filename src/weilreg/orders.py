"""Monomial orders: lexicographic, graded reverse lexicographic, and block
elimination orders built from the two.

An order exposes a sort key on exponent tuples; bigger key means bigger
monomial.  Keys are flat tuples of ints, so comparing two keys is one C-level
tuple comparison:

* lex: the exponents themselves;
* grevlex: ``(sum(e), -e[n-1], ..., -e[0])``;
* block: the grevlex key of the eliminated block, then the total degree of
  the remaining variables and the negated reversed exponents of all
  variables.  Once the block parts are equal the eliminated exponents are
  equal too, so they do not affect the tail comparison.

Block orders compare the elimination block first, which makes them
elimination orders for that block.  The block's index list is fixed when the
order is built, never per call, and `block_order` builds one order per
variable set.
"""

from dataclasses import dataclass, field
from functools import cache
from operator import neg


@dataclass(frozen=True)
class MonomialOrder:
    """Total order on monomials of a fixed arity, compatible with products."""

    kind: str  # "lex" | "grevlex" | "block"
    elim: tuple = field(default=())  # variable indices eliminated first (block only)
    _head: tuple = field(init=False, repr=False, compare=False)  # elim, reversed

    def __post_init__(self):
        object.__setattr__(self, "_head", tuple(reversed(self.elim)))

    def key(self, exps):
        kind = self.kind
        if kind == "grevlex":
            return (sum(exps), *map(neg, exps[::-1]))
        if kind == "lex":
            return tuple(exps)
        head = [exps[i] for i in self._head]
        degree = sum(head)
        return (degree, *map(neg, head), sum(exps) - degree, *map(neg, exps[::-1]))

    def __repr__(self):
        if self.kind == "block":
            return f"MonomialOrder(block, elim={list(self.elim)})"
        return f"MonomialOrder({self.kind})"


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def block_order(elim_vars) -> MonomialOrder:
    """Elimination order: monomials in the given variables dominate.  Equal
    variable sets get one shared order object."""
    return _block_order(frozenset(elim_vars))


_block_order = cache(lambda elim: MonomialOrder("block", tuple(sorted(elim))))
