"""The flat order keys sort exponent tuples exactly as the nested keys they
replaced, which are kept here as the reference."""

import random

import pytest

from weilreg.orders import GREVLEX, LEX, MonomialOrder, block_order


def _reference_grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def reference_key(order, exps):
    """The nested key of the original MonomialOrder.key, verbatim."""
    if order.kind == "lex":
        return tuple(exps)
    if order.kind == "grevlex":
        return _reference_grevlex_key(exps)
    elim = order.elim
    rest = [e for i, e in enumerate(exps) if i not in frozenset(elim)]
    head = [exps[i] for i in elim]
    return (_reference_grevlex_key(head), _reference_grevlex_key(rest))


def _orders(arity):
    yield LEX
    yield GREVLEX
    for elim in ({0}, {arity - 1}, set(range(arity)), set(range(0, arity, 2)), set(range(1, arity))):
        if elim:
            yield block_order(elim)
    if arity >= 2:
        yield MonomialOrder("block", (arity - 1, 0))  # unsorted block, built by hand


def _sign(a, b):
    return (a > b) - (a < b)


@pytest.mark.parametrize("arity", [1, 2, 3, 4, 5])
def test_flat_key_orders_like_the_nested_key(arity):
    rng = random.Random(1000 + arity)
    # small exponents, so equal degrees and equal blocks are common
    points = list({tuple(rng.randrange(0, 4) for _ in range(arity)) for _ in range(60)})
    for order in _orders(arity):
        key = order.key
        assert sorted(points, key=key) == sorted(points, key=lambda e: reference_key(order, e)), order
        for a in points:
            for b in points:
                assert _sign(key(a), key(b)) == _sign(reference_key(order, a), reference_key(order, b))


def test_flat_keys_are_flat_int_tuples():
    exps = (2, 0, 1)
    for order in _orders(3):
        key = order.key(exps)
        assert isinstance(key, tuple) and all(isinstance(k, int) for k in key)
    assert GREVLEX.key(exps) == (3, -1, 0, -2)
    assert block_order({1}).key(exps) == (0, 0, 3, -1, 0, -2)


def test_orders_compare_and_hash_by_kind_and_block():
    assert block_order({2, 0}) == MonomialOrder("block", (0, 2))
    assert hash(block_order({2, 0})) == hash(MonomialOrder("block", (0, 2)))
    assert block_order({0}) != block_order({1})
    assert repr(block_order({1, 0})) == "MonomialOrder(block, elim=[0, 1])"


def test_equal_variable_sets_share_one_block_order():
    order = block_order({2, 0})
    assert block_order([0, 2, 2]) is order
    assert block_order(range(0, 3, 2)) is order
    assert block_order((1,)) is not order
