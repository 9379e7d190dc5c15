"""Hypothesis properties of `compose_poly` through a shared `FractionImages`
table (derandomized: see conftest.py).

The oracle is `compose_poly` as it was before the table, verbatim: it
homogenises p and substitutes the images with `oracles.substitute`, the
polynomial substitution loop that predates the table, with no state kept
between calls.  A table filled by earlier calls, in any order, must give
the very same numerator and denominator.  An image given as a polynomial
is the fraction over 1.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from weilreg import Polynomial  # noqa: E402
from weilreg.maps import make_rational_map  # noqa: E402
from weilreg.ratfunc import FractionImages, RationalFunction, compose_fraction, compose_poly  # noqa: E402
from weilreg.varieties import affine_space  # noqa: E402

from oracles import substitute  # noqa: E402


def reference_compose_poly(p: Polynomial, images):
    """Substitute fraction pairs images[i] = (num_i, den_i) into p.

    Returns a fraction pair over the images' ring: num_i and den_i are
    substituted for x_i and w_i in p homogenised as c*x^e*w^(deg-e), and in
    the denominator prod w_i^deg_i.
    """
    if not images:
        raise ValueError("no images supplied")
    degs = tuple(max(p.degree_in(i), 0) for i in range(p.arity))
    homogenised = Polynomial(2 * p.arity, {
        exps + tuple(d - e for d, e in zip(degs, exps)): c for exps, c in p.terms.items()})
    kernel = [num for num, _ in images] + [den for _, den in images]
    monomial = Polynomial(2 * p.arity, {(0,) * p.arity + degs: 1})
    return substitute(homogenised, kernel), substitute(monomial, kernel)


COEFFS = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def polynomials(arity, max_degree=3, max_size=4, nonzero=False, coeffs=COEFFS):
    terms = st.dictionaries(st.tuples(*[st.integers(0, max_degree)] * arity), coeffs,
                            min_size=1 if nonzero else 0, max_size=max_size)
    return terms.map(lambda t: Polynomial(arity, t)).filter(lambda p: not nonzero or not p.is_zero())


@st.composite
def images_and_calls(draw):
    """Fraction images of 1-3 variables in a ring of arity 1-3, polynomials to
    compose, and a call order over them with repeats."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pairs = [(draw(polynomials(m, 2, 3)), draw(polynomials(m, 2, 3, nonzero=True))) for _ in range(n)]
    ps = draw(st.lists(polynomials(n, 2), min_size=1, max_size=4))
    order = draw(st.lists(st.integers(0, len(ps) - 1), min_size=1, max_size=10))
    return pairs, ps, order


@settings(max_examples=50)
@given(images_and_calls())
def test_a_shared_table_composes_like_the_reference(case):
    pairs, ps, order = case
    images = FractionImages(pairs)
    for i in order:
        got = compose_poly(ps[i], images)
        want = reference_compose_poly(ps[i], pairs)
        assert got == want
        assert all(q.arity == pairs[0][0].arity for q in got)


@st.composite
def polynomial_images_and_calls(draw):
    """Images of 1-3 variables in a ring of arity 1-3, either all polynomials
    or a mix of polynomials and fraction pairs, polynomials to compose, and a
    call order over them with repeats."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    image = polynomials(m, 2, 3)
    if draw(st.booleans()):
        image = st.one_of(image, st.tuples(image, polynomials(m, 2, 3, nonzero=True)))
    images = [draw(image) for _ in range(n)]
    ps = draw(st.lists(polynomials(n, 2), min_size=1, max_size=4))
    order = draw(st.lists(st.integers(0, len(ps) - 1), min_size=1, max_size=10))
    return Polynomial.one(m), images, ps, order


@settings(max_examples=50)
@given(polynomial_images_and_calls())
def test_a_polynomial_image_is_the_fraction_over_one(case):
    one, images, ps, order = case
    pairs = [q if isinstance(q, tuple) else (q, one) for q in images]
    table = FractionImages(images)
    for i in order:
        got = compose_poly(ps[i], table)
        assert got == reference_compose_poly(ps[i], pairs)
        if not any(isinstance(q, tuple) for q in images):
            assert got == (substitute(ps[i], images), one)


@st.composite
def two_representative_maps(draw):
    """A map from the plane to A^n with two representatives, the second the
    first with numerator and denominator multiplied by a common factor, and
    calls (representative, polynomial) in random order."""
    plane = affine_space(["x", "y"])
    n = draw(st.integers(1, 3))
    first, second = [], []
    for _ in range(n):
        num, den = draw(polynomials(2, 1, 3)), draw(polynomials(2, 1, 3, nonzero=True))
        k = draw(polynomials(2, 1, 2, nonzero=True))
        first.append(RationalFunction(plane, num, den))
        second.append(RationalFunction(plane, num * k, den * k))
    phi = make_rational_map(plane, affine_space([f"z{i}" for i in range(n)]), [first, second])
    ps = draw(st.lists(polynomials(n, 2), min_size=1, max_size=3))
    calls = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, len(ps) - 1)), min_size=1, max_size=10))
    return phi, ps, calls


@settings(max_examples=50)
@given(two_representative_maps())
def test_each_representative_keeps_its_own_table(case):
    phi, ps, calls = case
    for r, i in calls:
        want = reference_compose_poly(ps[i], [f.fraction_pair() for f in phi.reps[r]])
        assert compose_poly(ps[i], phi.images(r)) == want
    assert phi.images(0) is phi.images(0) and phi.images(0) is not phi.images(1)


def reference_compose_fraction(num: Polynomial, den: Polynomial, images):
    """(num/den) composed with fraction images the way `compose_fraction`
    did before one degree vector: each side composed with its own degrees,
    then cross-multiplied."""
    n_num, d_num = reference_compose_poly(num, images)
    n_den, d_den = reference_compose_poly(den, images)
    return n_num * d_den, d_num * n_den


@st.composite
def fractions_and_images(draw):
    """A fraction in 1-3 variables and its fraction images in a ring of arity
    1-3, the images integral or not."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    integral = draw(st.booleans())
    coeffs = st.integers(-9, 9) if integral else COEFFS
    pairs = [(draw(polynomials(m, 2, 3, coeffs=coeffs)), draw(polynomials(m, 2, 3, nonzero=True, coeffs=coeffs)))
             for _ in range(n)]
    return draw(polynomials(n, 2)), draw(polynomials(n, 2, nonzero=True)), pairs, integral


@settings(max_examples=100)
@given(fractions_and_images())
def test_one_degree_vector_drops_the_common_factor(case):
    num, den, pairs, integral = case
    got = compose_fraction(num, den, FractionImages(pairs))
    ref_num, ref_den = reference_compose_fraction(num, den, pairs)
    # the same fraction, by exact cross-multiplication
    assert got[0] * ref_den == ref_num * got[1]
    # the reference is the pair times prod den_i^min(deg_i num, deg_i den) times c > 0
    common = Polynomial.one(pairs[0][0].arity)
    for i, (_, d) in enumerate(pairs):
        common = common * d ** min(max(num.degree_in(i), 0), max(den.degree_in(i), 0))
    scaled = [q * common for q in got]
    ratios = {Fraction(r.terms.get(e, 0)) / c for q, r in zip(scaled, (ref_num, ref_den)) for e, c in q.terms.items()}
    assert len(ratios) <= 1 and all(c > 0 for c in ratios)
    c = ratios.pop() if ratios else 1
    assert (ref_num, ref_den) == tuple(q.scale(c) for q in scaled)
    if integral:
        assert all(type(c) is int for q in got for c in q.terms.values())
