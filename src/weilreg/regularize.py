"""Regularization of a finite-group rational action on an irreducible affine
variety: the model presents the subalgebra the orbit of the coordinates
generates.  It is the graph closure of X --> A^(m-n) under the orbit's other
generators, X's coordinates renamed u1..un; the action on it is regular.

G permutes the orbit generators: the pullback of x_i o rho_h along rho_g is
x_i o rho_hg, so the model action mu is read off the group table.  One
identity certifies it, the theorem's own: psi^-1 o rho_g = mu_g o psi^-1 for
every element g, tested on every generator f_l = u_l o psi^-1 as
f_l o rho_g = mu_g,l o psi^-1 in k(X).  It implies the rest:

- J = I(Y) is the kernel of u_l |-> f_l (f_i = x_i for i <= n), the ideal of
  that graph closure; for r in J, r o mu_g o psi^-1 = r o psi^-1 o rho_g = 0,
  so mu_g pulls J into J;
- psi^-1 o psi = id_Y and psi o psi^-1 = id_X (`present_subalgebra` pairs
  psi with psi^-1 by one round trip), so mu_g = psi^-1 o rho_g o psi on Y,
  hence psi o mu_g = rho_g o psi and mu_g o mu_h = psi^-1 o rho_g o rho_h o
  psi = mu_gh by rho's homomorphism law, proved when the action was declared.
"""

from dataclasses import dataclass

from .actions import specialize
from .errors import NotAnAction, NotApplicable, RoundTripFailure
from .maps import RationalMap, _pair_inverses, graph_closure, make_rational_map
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
    first, so gens[i] is x_i for i < n, kept even where I(X) equates two
    coordinates; then per group element in table order.
    """
    if not action.is_finite:
        raise NotApplicable("stable generators exist for finite groups only")
    X = action.space
    if not X.irreducible:
        raise NotApplicable("the space must be irreducible")
    e = action.group.identity_point()
    gens, orbit = [], {}
    for g in action.group.elements:
        for i, f in enumerate(specialize(action, g).reps[0]):
            candidate = f.simplified()
            l = None if g == e else next((k for k, seen in enumerate(gens) if candidate.equals(seen)), None)
            if l is None:
                l = len(gens)
                gens.append(candidate)
            orbit[(g, i)] = l
    return gens, orbit


def present_subalgebra(space: AffineVariety, gens):
    """Present the subalgebra the fractions gens generate, gens[:n] the
    space's coordinates, by the graph closure Y of X' --> A^(count - n) under
    gens[n:], X' the space with coordinates renamed to the first n model
    names.  Returns (Y, psi: Y -> X the projection to those names,
    psi_inverse: X --> Y by gens) paired by `_pair_inverses`.
    """
    n = space.arity
    names = product_names(space.names, [f"u{j + 1}" for j in range(len(gens))])[n:]
    renamed = AffineVariety(names[:n], space.ideal, space.irreducible, check=False)
    others = tuple(RationalFunction._of(renamed, f.num, f.den) for f in gens[n:])
    graph = graph_closure(RationalMap(renamed, affine_space(names[n:]), [others]))
    model = AffineVariety(names, graph.ideal, space.irreducible, check=False)
    psi = make_rational_map(model, space, [tuple(RationalFunction.coordinate(model, i) for i in range(n))])
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
