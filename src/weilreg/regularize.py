"""Regularization of a finite-group rational action on an irreducible affine
variety: the model is the closed image of the space under the orbit of the
coordinate functions (it presents the subalgebra they generate), and the
action transported to the model becomes regular.

G permutes the orbit generators: the pullback of x_i o rho_h along rho_g is
x_i o rho_hg, so the model action is read off the group table.  The checks
that the action preserves the presentation, obeys the table and matches the
input action through the presentation morphism certify the result.
"""

from dataclasses import dataclass

from .actions import specialize
from .errors import NotAnAction, NotApplicable, RoundTripFailure
from .maps import RationalMap, _pair_inverses, closed_image, make_rational_map
from .poly import Polynomial
from .ratfunc import FractionImages, RationalFunction, compose_poly, pullback
from .varieties import AffineVariety, affine_space, product_names


@dataclass
class RegularModel:
    """A presented variety with a regular action matching the input action
    through a birational morphism down to the original space."""

    model: AffineVariety
    action_on_model: dict  # element -> tuple of coordinate Polynomials on the model
    to_space: RationalMap  # polynomial morphism model -> space
    from_space: RationalMap  # rational inverse space -> model


def stable_generators(action):
    """Orbit of the coordinate functions under the element pullbacks, with
    duplicates removed; spans a stable space containing the coordinates.

    Returns (gens, orbit) where orbit[(g, i)] = l means gens[l] equals
    x_i o rho_g.  Order is element-major: all pullbacks along the identity
    first (the coordinates themselves), then per group element in table
    order.
    """
    if not action.is_finite:
        raise NotApplicable("stable generators exist for finite groups only")
    X = action.space
    if not X.irreducible:
        raise NotApplicable("the space must be irreducible")
    gens = []
    orbit = {}
    for g in action.group.elements:
        for i, f in enumerate(specialize(action, g).reps[0]):
            candidate = f.simplified()
            l = next((k for k, seen in enumerate(gens) if candidate.equals(seen)), None)
            if l is None:
                l = len(gens)
                gens.append(candidate)
            orbit[(g, i)] = l
    return gens, orbit


def present_subalgebra(space: AffineVariety, gens):
    """Present the subalgebra generated by the given fractions.

    The model Y is the closed image of the generator map X --> A^count, whose
    coordinate ring is the subalgebra.  Returns (Y, psi: Y -> X polynomial,
    psi_inverse: X --> Y) with both round trips verified.
    """
    names = product_names(space.names, [f"u{j + 1}" for j in range(len(gens))])[space.arity:]
    model = closed_image(make_rational_map(space, affine_space(names), [tuple(gens)]))
    psi_coords = []
    for i in range(space.arity):
        coord = RationalFunction.coordinate(space, i)
        j = next((k for k, f in enumerate(gens) if f.equals(coord)), None)
        if j is None:
            raise ValueError(f"generators must include the coordinate {space.names[i]}")
        psi_coords.append(RationalFunction.coordinate(model, j))
    psi = make_rational_map(model, space, [tuple(psi_coords)])
    psi_inv = make_rational_map(space, model, [tuple(gens)])
    _pair_inverses(psi_inv, psi, RoundTripFailure("presentation morphism and its inverse do not round-trip"))
    return model, psi, psi_inv


def induced_regular_action(model: AffineVariety, action, orbit) -> dict:
    """Coordinate tuples of the regular action on the presented model.

    G permutes the orbit generators as the group table says: generator l is
    x_i o rho_h for its first key (h, i) in orbit, and its pullback along
    rho_g is x_i o rho_hg, so mu_g sends u_l to u_orbit[(hg, i)].  The
    checks certify the result: here, that it preserves the presentation and
    obeys the group table; in `regularize_finite`, that it matches the input
    action through the presentation morphism.
    """
    table = action.group.table
    first = {}
    for key, l in orbit.items():
        first.setdefault(l, key)
    count = model.arity
    result = {}
    for g in action.group.elements:
        coords = []
        for l in range(count):
            h, i = first[l]
            coords.append(Polynomial.variable(count, orbit[(table[(h, g)], i)]))
        result[g] = tuple(coords)
    _verify_induced_action(model, action, result)
    return result


def _verify_induced_action(model, action, endos):
    group = action.group
    J = model.ideal
    tables = {g: FractionImages(coords) for g, coords in endos.items()}
    for g, images in tables.items():
        for rel in J.gens:
            if not J.contains(compose_poly(rel, images)[0]):
                raise NotAnAction("model", f"the action of {g} does not preserve the presentation")
    for g in group.elements:
        for h in group.elements:
            gh = group.table[(g, h)]
            composed = [compose_poly(p, tables[h])[0] for p in endos[g]]
            for a, b in zip(composed, endos[gh]):
                if not J.contains(a - b):
                    raise NotAnAction("model", f"group table violated at ({g},{h})")


def _verify_equivariance(model, action, psi, endos):
    """psi(mu_g(y)) = rho_g(psi(y)) for every group element."""
    X = action.space
    J = model.ideal
    psi_images = psi.images()
    for g, coords in endos.items():
        rho_g = specialize(action, g)
        images = FractionImages(coords)
        for i in range(X.arity):
            lhs = psi.reps[0][i]
            lnum, lden = compose_poly(lhs.num, images)[0], compose_poly(lhs.den, images)[0]
            f = rho_g.reps[0][i]
            rnum, rden = pullback(model, f.num, f.den, psi_images)
            cross = lnum * rden - rnum * lden
            if not J.contains(cross):
                raise NotAnAction("equivariance", f"fails for {g} in coordinate {X.names[i]}")


def regularize_finite(action) -> RegularModel:
    """Full pipeline: stable generators, presentation, induced action, checks."""
    gens, orbit = stable_generators(action)
    model, psi, psi_inv = present_subalgebra(action.space, gens)
    endos = induced_regular_action(model, action, orbit)
    _verify_equivariance(model, action, psi, endos)
    return RegularModel(model, endos, psi, psi_inv)
