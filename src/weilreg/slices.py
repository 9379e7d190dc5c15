"""Certifying global regularity of a rational function on a product from
regular slices.

Given F on X x Y whose denominator is supported on a hypersurface f of the
second factor, write f^k F = sum h_i (x) * f_i (y) with linearly independent
h_i, pick sample points of the first factor with an invertible evaluation
matrix, and solve each f_i / f^k as an exact combination of the sampled slice
functions.  When every slice is regular, the solved components are regular
and reassemble into a polynomial equal to F; the same engine upgrades a
rational group action to a regular one from a sample of regularly-acting
elements.

Every "is p/den the polynomial q on the prime host" decision is one normal
form on the principal open D(den), whose coordinate ring is
k[x, t]/(I, t*den - 1): `_over` reads q off NF(t*p) with t eliminated first.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .actions import RationalAction, specialize
from .errors import (
    NonPolynomialResidue,
    NotApplicable,
    NotFPower,
    NotRegularOnSample,
    SampleBudgetExhausted,
    SliceNotRegular,
)
from .ideals import _rabinowitsch, saturate
from .linalg import mat_inverse
from .maps import RationalMap
from .orders import block_order
from .poly import Polynomial, rational
from .ratfunc import RationalFunction, residue
from .varieties import AffineVariety, ProductAmbient, format_point


@dataclass
class SliceDecomposition:
    power: int  # minimal k with f^k in (den F) + I
    terms: list  # [(h_i on the first factor, f_i on the second factor)]
    samples: list = field(default=None)  # points of the first factor
    matrix: list = field(default=None)  # (h_i(x_j))
    solve_coefficients: list = field(default=None)  # rows express f_i/f^k in the slices
    slice_polynomials: list = field(default=None)  # regular forms of the sampled slices
    regular_form: Polynomial = field(default=None)  # polynomial equal to F on the product


def decompose_tensor(split: ProductAmbient, fraction: RationalFunction,
                     denominator: Polynomial) -> SliceDecomposition:
    """Minimal power k with f^k * F polynomial, plus the collected tensor
    terms of the polynomial form (terms only; samples come later)."""
    if denominator.is_zero():
        raise NotApplicable("the hypersurface f must be nonzero")
    prod = split.variety
    f_emb = split.embed_right(denominator)
    # f vanishes wherever den does, so some f^k lies in I + (den) and the loop ends
    if not saturate(prod.ideal.plus([fraction.den]), f_emb).is_unit():
        raise NotFPower("the denominator is not supported on the given hypersurface")
    over = _over(prod, fraction.den)
    k = 0
    power = Polynomial.one(prod.arity)
    while over(power) is None:  # f^k in I + (den) iff f^k/den is regular
        k += 1
        power = power * f_emb
        if k > 1000:
            raise NotFPower("no reasonable power of f absorbs the denominator")
    cleared = over(power * fraction.num)
    terms = []
    for head, coeff in cleared.coefficients_wrt(split.left_indices):
        h = Polynomial(split.left.arity, {tuple(head[i] for i in split.left_indices): Fraction(1)})
        terms.append((h, coeff.restrict(split.right_indices)))
    return SliceDecomposition(k, terms)


def find_unimodular_samples(h, candidates, host: AffineVariety = None):
    """Sample points making the evaluation matrix (h_i(x_j)) exactly
    invertible, and that matrix: the candidates are scanned in order, and a
    point on the host is kept when its evaluation vector raises the rank."""
    n = len(h)
    points = []
    vectors = []
    reduced = []  # row-echelon basis of accepted evaluation vectors
    for candidate in candidates:
        if len(points) == n:
            break
        point = tuple(map(rational, candidate))
        if host is not None and not host.point_on(point):
            continue
        vector = [hi.evaluate(point) for hi in h]
        residual = list(vector)
        for row in reduced:
            pivot = next(i for i, x in enumerate(row) if x != 0)
            if residual[pivot] != 0:
                factor = residual[pivot] / row[pivot]
                residual = [a - factor * b for a, b in zip(residual, row)]
        if any(x != 0 for x in residual):
            reduced.append(residual)
            points.append(point)
            vectors.append(vector)
    if len(points) < n:
        raise SampleBudgetExhausted(
            f"only {len(points)} of {n} independent sample points found; enlarge the candidate set"
        )
    return points, [list(column) for column in zip(*vectors)]


def _over(host: AffineVariety, den: Polynomial):
    """The reader p -> p/den as a polynomial on the host, or None.

    It returns NF_K(t*p) for K = I + (t*den - 1), under the block order
    eliminating t, or None when t survives.  For a prime I with den not in I,
    the t-free part of K's reduced block basis is the reduced grevlex basis of
    K meet k[x] = I : den^infinity = I, so an answer is the host's own normal
    form of p/den.  When den lies in I, K is the unit ideal and every answer
    reads 0, so callers rule that case out first.
    """
    n = host.arity
    localised = _rabinowitsch(host.ideal, den)
    order = block_order({n})
    t = Polynomial.variable(n + 1, n)

    def read(p: Polynomial):
        q = localised.normal_form(t * p.embed(n + 1, range(n)), order)
        return None if n in q.variables_present() else q.restrict(range(n))

    return read


def _polynomial_form(host: AffineVariety, num: Polynomial, den: Polynomial):
    """Polynomial p with num = p * den modulo the host ideal, or None."""
    if host.ideal.contains(den):
        return None
    if den.is_constant():
        return host.ideal.normal_form(num.scale(Fraction(1) / den.constant_value()))
    return _over(host, den)(num)


def certify_regular(split: ProductAmbient, fraction: RationalFunction,
                    denominator: Polynomial, samples) -> SliceDecomposition:
    """Produce the regular (polynomial) form of the fraction, certified
    through exactly solved slice combinations.

    ``samples`` are candidate first-factor points, scanned in order.
    """
    dec = decompose_tensor(split, fraction, denominator)
    h = [t[0] for t in dec.terms]
    f_parts = [t[1] for t in dec.terms]
    points, matrix = find_unimodular_samples(h, samples, split.left)
    Y = split.right
    slices = []
    for j, p in enumerate(points):
        poly = _polynomial_form(Y, fraction.num.specialize(p), fraction.den.specialize(p))
        if poly is None:
            raise SliceNotRegular(j, f"the slice at sample {format_point(p)} is not regular")
        slices.append(poly)
    # slice j is sum_i h_i(x_j) f_i/f^k, so row i of the transposed inverse solves for f_i/f^k
    coeffs = [list(column) for column in zip(*mat_inverse(matrix))]
    f_power, one = denominator ** dec.power, Polynomial.one(Y.arity)
    solved = []
    for i in range(len(h)):
        r_i = Y.ideal.normal_form(sum(map(Polynomial.scale, slices, coeffs[i]), Polynomial.zero(Y.arity)))
        if not residue(Y, (f_parts[i], f_power), (r_i, one)).is_zero():
            raise NonPolynomialResidue(
                f"component {i}: {f_parts[i]} over f^{dec.power} is not regular"
            )
        solved.append(r_i)
    total = sum((split.embed_left(hi) * split.embed_right(ri) for hi, ri in zip(h, solved)),
                Polynomial.zero(split.arity))
    total = split.variety.ideal.normal_form(total)
    if not residue(split.variety, (total, Polynomial.one(split.arity)), fraction.fraction_pair()).is_zero():
        raise NonPolynomialResidue("reassembled polynomial does not equal the fraction")
    return SliceDecomposition(dec.power, dec.terms, points, matrix, coeffs, slices, total)


@dataclass
class SubgroupRegularity:
    """Successful upgrade of a rational action to a regular one."""

    polynomial_map: RationalMap  # polynomial coordinates on the product
    sample_points: list  # the group points used


def regularity_from_subgroup(action: RationalAction, sample_points) -> SubgroupRegularity:
    """Certify that the action is regular given group points acting by regular
    automorphisms (asserted to generate a dense subgroup).

    Each sampled element must specialise to a polynomial map with polynomial
    inverse; each coordinate of the parametric map is then certified through
    its sampled slices.
    """
    group = action.group
    X = action.space
    if group.is_finite:
        raise NotApplicable(
            "sample certification applies to parametric actions; a finite action "
            "is regular exactly when every element map is polynomial"
        )
    points = [group.require_point(p) for p in sample_points]
    for p in points:
        forward = specialize(action, p)
        backward = specialize(action, group.invert_point(p))
        for m, which in ((forward, "element"), (backward, "inverse")):
            for f in m.reps[0]:
                if _polynomial_form(X, f.num, f.den) is None:
                    raise NotRegularOnSample(
                        f"the {which} map at {format_point(p)} is not a regular automorphism"
                    )
    split = action.ambient
    prod = split.variety
    coords = []
    for f in action.rho.reps[0]:
        if not f.den.variables_present() <= set(split.right_indices):
            raise NotApplicable(
                "the denominator mixes group parameters into the space factor; "
                "a parameter-independent open set is required"
            )
        F = RationalFunction(prod, f.num, f.den)
        dec = certify_regular(split, F, f.den.restrict(split.right_indices), samples=points)
        coords.append(RationalFunction(prod, dec.regular_form))
    # certify_regular proved each coordinate equal to rho's on the product
    return SubgroupRegularity(RationalMap(prod, X, [coords]), points)
