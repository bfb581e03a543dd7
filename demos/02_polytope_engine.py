"""Tour of the polytope engine: vertex enumeration, adjacency, two volumes.

The engine works on small halfspace systems {x : A x + b >= 0}.  Vertices
come from exhaustive subset intersection, adjacency from shared tight rows,
and volumes from two independent algorithms (qhull's hull volume and the
vertex-sum formula for simple polytopes) that must agree.
"""

import itertools
import math

import numpy as np

from entvol import (
    HalfspaceSystem,
    VertexSet,
    brion_volume,
    canonicalize,
    enumerate_vertices,
    is_simple,
    vertex_adjacency,
    volume_triangulation,
)
from entvol.bipartite import accessible_hrep, source_volume


def permutation_hull(lam):
    """All d! coordinate permutations of lam: the source set over unsorted vectors."""
    return np.array([lam.as_array()[list(p)] for p in itertools.permutations(range(lam.d))])


print("=== A unit square from its halfspaces ===")
square = HalfspaceSystem(
    np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
    np.array([0.0, 0.0, 1.0, 1.0]),
)
V = enumerate_vertices(square)
adj = vertex_adjacency(square, V)
print("vertices:", V.vertices.tolist())
print("neighbors per vertex:", [len(n) for n in adj], "-> simple:", is_simple(V, adj))
print("hull volume:         ", volume_triangulation(V)[0])
print("vertex-sum volume:   ", brion_volume(V, adj, xi=np.array([1.0, 2.0])))

print("\n=== Accessible polytopes and their vertex counts ===")
for lam_list in ([0.30, 0.27, 0.24, 0.19], [0.4, 0.3, 0.2, 0.1]):
    lam = canonicalize(lam_list)
    V = enumerate_vertices(accessible_hrep(lam))
    vol, dim = volume_triangulation(V)
    print(f"  {lam.components}: {V.n} vertices, projected volume {vol:.8f} (dim {dim})")

print("\n=== The permutation hull behind the source volume ===")
lam = canonicalize([0.5, 0.3, 0.2])
verts = permutation_hull(lam)
print(f"hull of all {len(verts)} permutations of {lam.components}")
tri, dim = volume_triangulation(VertexSet(verts))
print(f"  hull volume          = {tri:.12f}  (dim {dim})")
print(f"  face recursion * d!  = {source_volume(lam) * math.factorial(lam.d):.12f}")

print("\n=== Degenerate states break simplicity but not the face recursion ===")
deg = canonicalize([0.4, 0.2, 0.2, 0.2])
verts = permutation_hull(deg)
tri, dim = volume_triangulation(VertexSet(verts))
print(f"  {deg.components}: hull volume {tri:.10f} (dim {dim})")
print(f"  face recursion * d! : {source_volume(deg) * math.factorial(deg.d):.10f}")
