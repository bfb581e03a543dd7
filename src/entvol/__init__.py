"""Entanglement volumes of pure states under single-copy deterministic LOCC.

The package decides LOCC convertibility and measures, for each LU class of
states, how large the set of classes is that can reach it (source volume) and
that it can reach (accessible volume).  Bipartite states of any Schmidt rank
are covered by a closed-form evaluator plus a convex-polytope engine; generic
four-qubit states by case formulas, one numeric region and executable POVM
witnesses; everything is cross-checked by Monte-Carlo oracles.
"""

import importlib

#: The public names of each module.  A name is imported from its module on
#: first access (PEP 562) and then bound here, so ``import entvol`` loads no
#: numpy and each command loads only the modules it uses.
_EXPORTS = {
    "schmidt": (
        "SchmidtVector", "canonicalize", "embed", "lu_equivalent",
        "majorizes", "maximally_entangled", "partial_sum", "separable",
        "sorted_region_volume",
    ),
    "polytope": (
        "HalfspaceSystem", "VertexSet",
        "brion_volume", "enumerate_vertices", "is_simple",
        "vertex_adjacency", "volume_triangulation",
    ),
    "source": (
        "MeasureReport", "source_entanglement", "source_entanglement_k", "source_volume",
    ),
    "bipartite": (
        "accessible_entanglement", "accessible_entanglement_and_vertices",
        "accessible_entanglement_k",
        "accessible_hrep", "accessible_vertices", "accessible_volume",
        "guaranteed_vertices", "max_entangled_accessible",
    ),
    "fourqubit": (
        "Classified", "FourQubitForm", "PovmWitness", "SeedParams",
        "build_seed", "can_convert", "classify", "entanglement_4q",
        "povm_witness", "random_seed_params", "standard_form",
    ),
    "oracle": (
        "McConfig", "McResult", "mc_accessible_volume", "mc_region_volume",
        "mc_source_volume",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS or name == "errors":  # a submodule not imported yet
        return importlib.import_module(f".{name}", __name__)
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it here and skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
