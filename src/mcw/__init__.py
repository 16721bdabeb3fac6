"""Polygon dissections, their gentle quivers, and derived-class tools.

The layers build on each other: `geometry` enumerates and mutates
dissections, `algebra` turns them into quivers with relations, `homology`
computes the numerical invariants, `mutation` performs the algebra-level
moves, and `normalform` reduces any component to its class representative.
`serialize` and `render` give their JSON and diagram views.

Every layer is a lazy module: importing the package registers each one in
``sys.modules`` unexecuted, and a module's code is compiled and run on the
first attribute read from it.  A command thus pays only for the layers it
touches (`mcw census` runs `geometry` and `serialize`, never `algebra`).
The re-exports below (``from mcw import reduce``) resolve through the
module-level ``__getattr__`` and load their layer on first use.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_LAYERS = ("geometry", "algebra", "homology", "mutation", "normalform", "serialize", "render")


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({name: _lazy(name) for name in _LAYERS})

_EXPORTS = {
    "DerivedInvariant": "homology",
    "Diagonal": "geometry",
    "Dissection": "geometry",
    "NormalFormSpec": "normalform",
    "PolygonParams": "geometry",
    "QuiverWithRelations": "algebra",
    "ReductionTrace": "normalform",
    "apply_move": "geometry",
    "apply_mutation": "mutation",
    "build_normal_form": "normalform",
    "cartan_matrix": "homology",
    "components": "algebra",
    "derived_equivalent": "normalform",
    "derived_invariant": "homology",
    "diagonal": "geometry",
    "dissection": "geometry",
    "enumerate_dissections": "geometry",
    "quiver": "algebra",
    "quiver_of": "algebra",
    "remove_relation_chain": "mutation",
    "tilting_mutation_minus": "mutation",
    "tilting_mutation_plus": "mutation",
    "reduce": "normalform",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    layer = _EXPORTS.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)
