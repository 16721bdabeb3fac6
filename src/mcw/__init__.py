"""Polygon dissections, their gentle quivers, and derived-class tools.

The layers build on each other: `geometry` enumerates and mutates
dissections, `algebra` turns them into quivers with relations, `homology`
computes the numerical invariants, `mutation` performs the algebra-level
moves, and `normalform` reduces any component to its class representative.
"""

from .algebra import QuiverWithRelations, components, quiver, quiver_of
from .geometry import (
    Diagonal,
    Dissection,
    PolygonParams,
    apply_move,
    diagonal,
    dissection,
    enumerate_dissections,
)
from .homology import DerivedInvariant, cartan_matrix, derived_invariant
from .mutation import (
    apply_mutation,
    remove_relation_chain,
    tilting_mutation_minus,
    tilting_mutation_plus,
)
from .normalform import (
    NormalFormSpec,
    ReductionTrace,
    build_normal_form,
    derived_equivalent,
    reduce,
)

__version__ = "0.1.0"

__all__ = [
    "DerivedInvariant",
    "Diagonal",
    "Dissection",
    "NormalFormSpec",
    "PolygonParams",
    "QuiverWithRelations",
    "ReductionTrace",
    "apply_move",
    "apply_mutation",
    "build_normal_form",
    "cartan_matrix",
    "components",
    "derived_equivalent",
    "derived_invariant",
    "diagonal",
    "dissection",
    "enumerate_dissections",
    "quiver",
    "quiver_of",
    "remove_relation_chain",
    "tilting_mutation_minus",
    "tilting_mutation_plus",
    "reduce",
    "__version__",
]
