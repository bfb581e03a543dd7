"""Entanglement volumes of pure states under single-copy deterministic LOCC.

The package decides LOCC convertibility and measures, for each LU class of
states, how large the set of classes is that can reach it (source volume) and
that it can reach (accessible volume).  Bipartite states of any Schmidt rank
are covered by a closed-form evaluator plus a convex-polytope engine; generic
four-qubit states by case formulas, one numeric region and executable POVM
witnesses; everything is cross-checked by Monte-Carlo oracles.
"""

from .schmidt import (
    SchmidtVector,
    canonicalize,
    embed,
    lu_equivalent,
    majorizes,
    maximally_entangled,
    partial_sum,
    separable,
    sorted_region_volume,
)
from .polytope import (
    HalfspaceSystem,
    VertexSet,
    brion_volume,
    enumerate_vertices,
    is_simple,
    vertex_adjacency,
    volume_triangulation,
)
from .bipartite import (
    MeasureReport,
    accessible_entanglement,
    accessible_entanglement_and_vertices,
    accessible_entanglement_k,
    accessible_hrep,
    accessible_vertices,
    accessible_volume,
    guaranteed_vertices,
    max_entangled_accessible,
    source_entanglement,
    source_entanglement_k,
    source_volume,
)
from .fourqubit import (
    Classified,
    FourQubitForm,
    PovmWitness,
    SeedParams,
    build_seed,
    can_convert,
    classify,
    entanglement_4q,
    povm_witness,
    random_seed_params,
    standard_form,
)
from .oracle import (
    McConfig,
    McResult,
    mc_accessible_volume,
    mc_region_volume,
    mc_source_volume,
)

__version__ = "0.1.0"

__all__ = [
    "SchmidtVector", "canonicalize", "embed", "lu_equivalent",
    "majorizes", "maximally_entangled", "partial_sum", "separable",
    "sorted_region_volume",
    "HalfspaceSystem", "VertexSet",
    "brion_volume", "enumerate_vertices", "is_simple",
    "vertex_adjacency", "volume_triangulation",
    "MeasureReport", "accessible_entanglement", "accessible_entanglement_and_vertices",
    "accessible_entanglement_k",
    "accessible_hrep", "accessible_vertices", "accessible_volume",
    "guaranteed_vertices", "max_entangled_accessible", "source_entanglement",
    "source_entanglement_k", "source_volume",
    "Classified", "FourQubitForm", "PovmWitness", "SeedParams",
    "build_seed", "can_convert", "classify", "entanglement_4q",
    "povm_witness", "random_seed_params", "standard_form",
    "McConfig", "McResult", "mc_accessible_volume", "mc_region_volume",
    "mc_source_volume",
]
