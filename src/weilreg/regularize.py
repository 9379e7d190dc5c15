"""Regularization of a finite-group rational action on an irreducible affine
variety: present the subalgebra generated by the orbit of the coordinate
functions, and transport the action to the presented model, where it becomes
regular.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotAnAction, NotInSpan, RoundTripFailure
from .ideals import Ideal, eliminate, saturate
from .linalg import solve_linear
from .maps import RationalMap, _pair_inverses, make_rational_map
from .orders import GREVLEX
from .poly import Polynomial
from .polygcd import divide_exact
from .ratfunc import RationalFunction, compose_fraction
from .varieties import AffineVariety


@dataclass
class RegularModel:
    """A presented variety with a regular action matching the input action
    through a birational morphism down to the original space."""

    model: AffineVariety
    action_on_model: dict  # element -> tuple of coordinate Polynomials on the model
    to_space: RationalMap  # polynomial morphism model -> space
    from_space: RationalMap  # rational inverse space -> model
    generators: list = field(default_factory=list)  # stable generators (functions on the space)


def stable_generators(action) -> list:
    """Orbit of the coordinate functions under the element pullbacks, with
    duplicates removed; spans a stable space containing the coordinates.

    Order is element-major: all pullbacks along the identity first (the
    coordinates themselves), then per group element in table order.
    """
    if not action.is_finite:
        raise NotAnAction("finite", "stable generators exist for finite groups only")
    X = action.space
    if not X.irreducible:
        raise NotAnAction("irreducible", "the space must be irreducible")
    gens = []
    for g in action.group.elements:
        element_map = action.element_map(g)
        for f in element_map.reps[0]:
            candidate = f.simplified()
            if not any(candidate.equals(seen) for seen in gens):
                gens.append(candidate)
    return gens


def _model_names(space: AffineVariety, count: int):
    names = []
    used = set(space.names)
    for j in range(count):
        name = f"u{j + 1}"
        while name in used or name in names:
            name += "'"
        names.append(name)
    return tuple(names)


def present_subalgebra(space: AffineVariety, gens):
    """Present the subalgebra generated by the given fractions.

    Returns (model Y, psi: Y -> X polynomial, psi_inverse: X --> Y) with the
    round trips verified; the presentation ideal is obtained by eliminating
    the space variables from the relation ideal saturated by the denominators.
    """
    n = space.arity
    count = len(gens)
    names = _model_names(space, count)
    arity = n + count
    emb = list(range(n))
    rel_gens = [g.embed(arity, emb) for g in space.ideal.gens]
    denominators = []
    for j, f in enumerate(gens):
        uj = Polynomial.variable(arity, n + j)
        rel_gens.append(f.den.embed(arity, emb) * uj - f.num.embed(arity, emb))
        d = f.den.primitive(GREVLEX)
        if not d.is_constant() and d not in denominators:
            denominators.append(d)
    relations = Ideal(arity, rel_gens)
    for d in denominators:
        relations = saturate(relations, d.embed(arity, emb))
    projected = eliminate(relations, set(range(n)))
    J = Ideal(count, [g.restrict(range(n, arity)) for g in projected.gens])
    model = AffineVariety(names, J, irreducible=space.irreducible)

    psi_coords = []
    for i in range(n):
        coord = RationalFunction.coordinate(space, i)
        j = next((k for k, f in enumerate(gens) if f.equals(coord)), None)
        if j is None:
            raise ValueError(f"generators must include the coordinate {space.names[i]}")
        psi_coords.append(RationalFunction.coordinate(model, j))
    psi = make_rational_map(model, space, [tuple(psi_coords)])
    psi_inv = make_rational_map(space, model, [tuple(gens)])
    _pair_inverses(psi_inv, psi, RoundTripFailure("presentation morphism and its inverse do not round-trip"))
    return model, psi, psi_inv


def _express_in_span(space: AffineVariety, gens, target: RationalFunction):
    """Write target as c0 + sum c_l * gens[l] in the function field, solving
    an exact linear system; None when no combination exists."""
    common = Polynomial.one(space.arity)
    for f in gens:
        common = common * f.den
    cofactors = [divide_exact(common, f.den) for f in gens]
    base = space.ideal.normal_form(target.num * common)
    cols = [space.ideal.normal_form(target.den * common)]
    cols += [space.ideal.normal_form(target.den * f.num * cof) for f, cof in zip(gens, cofactors)]
    monomials = set(base.terms)
    for c in cols:
        monomials |= set(c.terms)
    monomials = sorted(monomials)
    rows = [[c.terms.get(m, Fraction(0)) for c in cols] for m in monomials]
    rhs = [base.terms.get(m, Fraction(0)) for m in monomials]
    return solve_linear(rows, rhs)


def induced_regular_action(model: AffineVariety, action, gens) -> dict:
    """Coordinate tuples of the regular action on the presented model.

    Each generator's pullback along an element map is located in the orbit
    list, or expressed as an exact linear combination of the generators
    and 1; a pullback escaping the span signals an upstream bug.
    """
    X = action.space
    count = len(gens)
    result = {}
    for g in action.group.elements:
        images = [f.fraction_pair() for f in action.element_map(g).reps[0]]
        coords = []
        for f in gens:
            pulled = f.substitute(images, X)
            l = next((k for k, h in enumerate(gens) if pulled.equals(h)), None)
            if l is not None:
                coords.append(Polynomial.variable(count, l))
                continue
            combo = _express_in_span(X, gens, pulled)
            if combo is None:
                raise NotInSpan(f"pullback of a generator along {g} escapes the stable span")
            poly = Polynomial.constant(count, combo[0])
            for k in range(count):
                poly = poly + Polynomial.variable(count, k).scale(combo[k + 1])
            coords.append(poly)
        result[g] = tuple(coords)
    _verify_induced_action(model, action, gens, result)
    return result


def _verify_induced_action(model, action, gens, endos):
    group = action.group
    J = model.ideal
    for g, coords in endos.items():
        for rel in J.gens:
            if not J.contains(rel.substitute(list(coords))):
                raise NotAnAction("model", f"the action of {g} does not preserve the presentation")
    for g in group.elements:
        for h in group.elements:
            gh = group.table[(g, h)]
            composed = [p.substitute(list(endos[h])) for p in endos[g]]
            for a, b in zip(composed, endos[gh]):
                if not J.contains(a - b):
                    raise NotAnAction("model", f"group table violated at ({g},{h})")


def _verify_equivariance(model, action, psi, endos):
    """psi(mu_g(y)) = rho_g(psi(y)) for every group element."""
    X = action.space
    J = model.ideal
    psi_images = [f.fraction_pair() for f in psi.reps[0]]
    for g, coords in endos.items():
        rho_g = action.element_map(g)
        for i in range(X.arity):
            lhs = psi.reps[0][i]
            lhs_after = (lhs.num.substitute(list(coords)), lhs.den.substitute(list(coords)))
            f = rho_g.reps[0][i]
            rnum, rden = compose_fraction(f.num, f.den, psi_images)
            cross = lhs_after[0] * rden - rnum * lhs_after[1]
            if not J.contains(cross):
                raise NotAnAction("equivariance", f"fails for {g} in coordinate {X.names[i]}")


def regularize_finite(action) -> RegularModel:
    """Full pipeline: stable generators, presentation, induced action, checks."""
    gens = stable_generators(action)
    model, psi, psi_inv = present_subalgebra(action.space, gens)
    endos = induced_regular_action(model, action, gens)
    _verify_equivariance(model, action, psi, endos)
    return RegularModel(model, endos, psi, psi_inv, gens)
