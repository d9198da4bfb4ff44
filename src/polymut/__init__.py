"""polymut: exact-arithmetic combinatorial mutations of Fano polygons and
the matching one-parameter deformations of polarized toric surfaces."""

from .geom import (
    Polygon,
    Vector2,
    area,
    convex_hull,
    dilate,
    dual,
    height_range,
    lattice_equivalent,
    lattice_points,
    lattice_slice,
    linear_equivalent,
    linear_normal_form,
    minkowski_difference,
    minkowski_sum,
    primitivize,
)
from .fano import (
    DiophantineClass,
    diophantine_class,
    is_fano,
    markov_tree,
    multiplicity,
    predicted_mutation_weights,
    triangle_from_weights,
    vieta_tree,
    weights,
)
from .mutation import (
    MutationData,
    dual_map,
    factor_for,
    find_factors,
    mutate,
    mutation_graph,
)
from .laurent import (
    LaurentPoly,
    MutationSpec,
    algebraic_mutate,
    newton_polytope,
    parse,
    period_sequence,
    render,
)
from .divpoly import (
    INFINITY,
    ZERO,
    DivPoly,
    PLFunc,
    PointLabel,
    from_polygon,
    shift_affine,
    to_polygon,
    validate,
)
from .deform import (
    Decomposition,
    DeformationCertificate,
    corollary_check,
    general_fiber,
    is_admissible,
    mutation_to_deformation,
    reduce_to_polygon,
)

__version__ = "0.1.0"
