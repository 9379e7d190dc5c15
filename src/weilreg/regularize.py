"""Regularization of a finite-group rational action on an irreducible affine
variety: the model is the closed image of the space under the orbit of the
coordinate functions (it presents the subalgebra they generate), and the
action transported to the model becomes regular.

G permutes the orbit generators: the pullback of x_i o rho_h along rho_g is
x_i o rho_hg, so the model action mu is read off the group table.  One
identity certifies it, the theorem's own: psi^-1 o rho_g = mu_g o psi^-1 for
every element g, tested on every generator f_l = u_l o psi^-1 as
f_l o rho_g = mu_g,l o psi^-1 in k(X).  It implies the rest:

- J = I(Y) is the kernel of u_l |-> f_l, the ideal of the closed image of
  the irreducible X; for r in J, r o mu_g o psi^-1 = r o psi^-1 o rho_g = 0,
  so mu_g pulls J into J;
- psi^-1 o psi = id_Y and psi o psi^-1 = id_X (`present_subalgebra` pairs
  psi with psi^-1 by one round trip), so mu_g = psi^-1 o rho_g o psi on Y,
  hence psi o mu_g = rho_g o psi and mu_g o mu_h = psi^-1 o rho_g o rho_h o
  psi = mu_gh by rho's homomorphism law, proved when the action was declared.
"""

from dataclasses import dataclass

from .actions import specialize
from .errors import NotAnAction, NotApplicable, RoundTripFailure
from .maps import RationalMap, _pair_inverses, closed_image, make_rational_map
from .poly import Polynomial
from .ratfunc import RationalFunction, compose_poly, pullback, residue
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
    psi_inverse: X --> Y) paired as mutual inverses by `_pair_inverses`.
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
    """Coordinate tuples of the regular action on the presented model, read
    off the group table with no substitution.

    G permutes the orbit generators: generator l is x_i o rho_h for its
    first key (h, i) in orbit, and its pullback along rho_g is x_i o rho_hg,
    so mu_g sends u_l to u_orbit[(hg, i)].  This only constructs mu;
    `regularize_finite` certifies it.
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
    return result


def regularize_finite(action) -> RegularModel:
    """Full pipeline: stable generators, presentation, induced action, and
    the one check psi^-1 o rho_g = mu_g o psi^-1 on every generator."""
    gens, orbit = stable_generators(action)
    X = action.space
    model, psi, psi_inv = present_subalgebra(X, gens)
    endos = induced_regular_action(model, action, orbit)
    psi_inv_images = psi_inv.images()
    for g, coords in endos.items():
        rho_images = specialize(action, g).images()
        for l, f in enumerate(psi_inv.reps[0]):
            lhs = pullback(X, f.num, f.den, rho_images)
            if not residue(X, lhs, compose_poly(coords[l], psi_inv_images)).is_zero():
                raise NotAnAction("equivariance", f"fails for {g} at generator {model.names[l]}")
    return RegularModel(model, endos, psi, psi_inv)
