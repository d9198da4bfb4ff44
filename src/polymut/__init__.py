"""polymut: exact-arithmetic combinatorial mutations of Fano polygons and
the matching one-parameter deformations of polarized toric surfaces.

`import polymut` loads no submodule: each public name below is imported
from its submodule on first access (PEP 562) and kept in the package, so
a command of the CLI pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# the submodule of each public name
_EXPORTS = {
    "geom": (
        "Polygon",
        "Vector2",
        "area",
        "dilate",
        "dual",
        "lattice_equivalent",
        "linear_equivalent",
        "primitivize",
    ),
    "fano": (
        "DiophantineClass",
        "diophantine_class",
        "is_fano",
        "markov_tree",
        "multiplicity",
        "triangle_from_weights",
        "vieta_tree",
        "weights",
    ),
    "mutation": (
        "MutationData",
        "dual_map",
        "factor_for",
        "find_factors",
        "mutate",
        "mutation_graph",
    ),
    "laurent": (
        "LaurentPoly",
        "MutationSpec",
        "algebraic_mutate",
        "newton_polytope",
        "parse",
        "period_sequence",
        "render",
    ),
    "divpoly": (
        "INFINITY",
        "ZERO",
        "DivPoly",
        "PLFunc",
        "PointLabel",
        "from_polygon",
        "shift_affine",
        "to_polygon",
    ),
    "deform": (
        "Decomposition",
        "DeformationCertificate",
        "corollary_check",
        "general_fiber",
        "is_admissible",
        "mutation_to_deformation",
        "reduce_to_polygon",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# submodules reachable as attributes without an import of their own
_SUBMODULES = ("errors", *_EXPORTS)

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
