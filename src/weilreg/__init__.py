"""weilreg: exact toolkit for rational maps and rational group actions on
affine varieties.

Everything is computed over the rationals with arbitrary precision; varieties
are read over the algebraic closure through their defining ideals.
"""

from .errors import *  # noqa: F401,F403
from .orders import LEX, GREVLEX, MonomialOrder, block_order  # noqa: F401
from .poly import Polynomial, format_polynomial  # noqa: F401
from .ideals import (  # noqa: F401
    Ideal,
    buchberger,
    eliminate,
    intersect,
    is_empty_variety,
    radical_membership,
    saturate,
)
from .exprparse import parse_fraction, parse_polynomial  # noqa: F401
from .varieties import (  # noqa: F401
    AffineVariety,
    OpenSubset,
    ProductAmbient,
    affine_space,
    variety,
)
from .ratfunc import RationalFunction  # noqa: F401
from .maps import (  # noqa: F401
    RationalMap,
    biregular_locus,
    closed_image,
    compose,
    definable_locus,
    graph_closure,
    identity_map,
    inverse,
    is_dominant,
    is_graph_closed,
    make_rational_map,
    maps_equal,
    point_status,
    rational_map,
)
from .groups import (  # noqa: F401
    AlgebraicGroup,
    additive_group,
    cyclic_group_2,
    finite_group,
    make_group,
    multiplicative_group,
    product_group,
)
from .actions import (  # noqa: F401
    RationalAction,
    g_regular_locus,
    lift_action,
    make_rational_action,
    restrict_to_open,
    restrict_to_regular_locus,
    specialize,
)
from .regularize import (  # noqa: F401
    RegularModel,
    induced_regular_action,
    present_subalgebra,
    regularize_finite,
    stable_generators,
)
from .atlas import Atlas, AtlasReport, build_atlas, check_atlas  # noqa: F401
from .slices import (  # noqa: F401
    SliceDecomposition,
    certify_regular,
    decompose_tensor,
    find_unimodular_samples,
    regularity_from_subgroup,
)
from .sessions import emit_report, format_session, parse_session, run_session  # noqa: F401

__version__ = "0.1.0"
