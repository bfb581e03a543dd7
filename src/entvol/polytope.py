"""Convex polytope engine: H/V representations, adjacency, two volume routes.

The enumeration and volume routes serve ``entvol polytope`` (raw H- or
V-input) and the test suite, where they are the independent oracles of the
bipartite accessible engine; the measures of the package use only the data
types and ``EPS_GEOM`` from this module.  The polytopes handled here
are small (at most a few dozen inequalities, a few hundred vertices), so
vertex enumeration runs the textbook route: an LP precheck for emptiness and
boundedness, then every k-subset of tight constraints is solved and the
feasible solutions kept.  Volumes come from two independent algorithms that
are cross-checked in the test suite:

* ``volume_triangulation`` returns the volume qhull computes for the convex
  hull of the vertices, from the same facets it builds for the hull.
* ``brion_volume`` evaluates the vertex-sum formula for simple polytopes,

      vol(P) = 1/k! * sum_v |det(e_1(v),...,e_k(v))|
                      * <v, xi>^k / prod_i <e_i(v), xi>,

  where ``e_i(v) = v - v_i(v)`` are the edge vectors into the neighbors of v
  and xi is any direction not orthogonal to any edge.  With edge vectors
  oriented toward the vertex the alternating signs sit entirely in the
  denominator products, so no explicit sign prefactor appears.

All geometry is double precision; volumes of lower-dimensional polytopes are
measured inside their own affine hull and reported with that dimension.
scipy (``linprog`` for the precheck, qhull for the hull volume) is imported
inside the two functions that use it, so ``import entvol`` does not load it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InconsistentInput,
    Infeasible,
    NotSimple,
    Unbounded,
    XiDegenerate,
)

#: Tolerance for feasibility, tightness, dedup and rank decisions.
EPS_GEOM = 1e-9
#: Directions xi that ``brion_volume`` draws before it gives up.
_XI_RETRIES = 64


@dataclass(frozen=True)
class HalfspaceSystem:
    """Feasible set {x in R^k : A x + b >= 0}."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        if A.ndim != 2 or A.shape[0] != b.shape[0]:
            raise InconsistentInput(f"A has shape {A.shape}, b has {b.shape[0]} rows")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise InconsistentInput("A and b must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def k(self) -> int:
        return self.A.shape[1]

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.all(self.A @ np.asarray(x, dtype=float) + self.b >= -EPS_GEOM))

    def to_json(self) -> dict:
        return {"A": self.A.tolist(), "b": self.b.tolist()}

    @staticmethod
    def from_json(payload: dict) -> "HalfspaceSystem":
        return HalfspaceSystem(np.asarray(payload["A"], float), np.asarray(payload["b"], float))


@dataclass(frozen=True)
class VertexSet:
    """Vertices of a polytope plus, per vertex, the indices of tight rows."""

    vertices: np.ndarray
    tight_sets: tuple[frozenset[int], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        V = np.asarray(self.vertices, dtype=float)
        if V.shape[:1] == (0,):
            raise InconsistentInput("a vertex set needs at least one vertex")
        V = np.atleast_2d(V)
        if V.ndim != 2 or not np.all(np.isfinite(V)):
            raise InconsistentInput(f"vertices must be a finite (n, k) array, not {V.shape}")
        object.__setattr__(self, "vertices", V)

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    @property
    def k(self) -> int:
        return self.vertices.shape[1]

    def to_json(self) -> dict:
        return {"vertices": self.vertices.tolist()}

    @staticmethod
    def from_json(payload: dict) -> "VertexSet":
        return VertexSet(np.asarray(payload["vertices"], float))


def _check_bounded_feasible(H: HalfspaceSystem) -> None:
    """LP precheck: raise Infeasible / Unbounded before enumerating."""
    from scipy.optimize import linprog  # scipy loads only for raw H-input

    A_ub = -H.A
    b_ub = H.b
    bounds = [(None, None)] * H.k
    for j in range(H.k):
        for sign in (1.0, -1.0):
            c = np.zeros(H.k)
            c[j] = sign
            res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
            if res.status == 2:
                raise Infeasible("no point satisfies all constraints")
            if res.status == 3:
                raise Unbounded("a feasible ray exists")
            if res.status != 0:
                raise InconsistentInput(f"LP solver failure: {res.message}")


def enumerate_vertices(H: HalfspaceSystem) -> VertexSet:
    """All vertices of the polytope {A x + b >= 0} by k-subset intersection.

    Cost is O(C(m, k) k^3), fine for the small systems this package builds.
    Each kept vertex records its full tight set (all rows satisfied with
    equality, not just the defining subset).
    """
    m, k = H.m, H.k
    if m < k:
        raise InconsistentInput(f"need at least k={k} rows, got {m}")
    _check_bounded_feasible(H)

    verts: list[np.ndarray] = []
    for rows in itertools.combinations(range(m), k):
        A_sub = H.A[list(rows)]
        if abs(np.linalg.det(A_sub)) < 1e-13:
            continue
        x = np.linalg.solve(A_sub, -H.b[list(rows)])
        if not np.all(H.A @ x + H.b >= -EPS_GEOM):
            continue
        if any(np.linalg.norm(x - v) <= EPS_GEOM for v in verts):
            continue
        verts.append(x)

    if not verts:
        raise Infeasible("feasible but no vertex found; system is degenerate")
    V = np.array(verts)
    slack = V @ H.A.T + H.b  # (n, m)
    tight = tuple(frozenset(np.flatnonzero(np.abs(row) <= EPS_GEOM)) for row in slack)
    return VertexSet(V, tight)


def vertex_adjacency(H: HalfspaceSystem, V: VertexSet) -> list[list[int]]:
    """Adjacency lists: u, v are neighbors iff their common tight rows pin a line.

    Two distinct vertices of a bounded polytope lie on a common edge exactly
    when the rows tight at both have rank k-1 (they then cut out the line
    through the segment, whose intersection with the polytope has the two
    vertices as endpoints).
    """
    if not V.tight_sets or len(V.tight_sets) != V.n:
        raise InconsistentInput("vertex set carries no tight sets for this system")
    for i in range(V.n):
        if not H.contains(V.vertices[i]):
            raise InconsistentInput(f"vertex {i} infeasible for the given system")

    k = H.k
    adj: list[list[int]] = [[] for _ in range(V.n)]
    for i, j in itertools.combinations(range(V.n), 2):
        shared = sorted(V.tight_sets[i] & V.tight_sets[j])
        if len(shared) < k - 1:
            continue
        if np.linalg.matrix_rank(H.A[shared], tol=1e-10) >= k - 1:
            adj[i].append(j)
            adj[j].append(i)
    return adj


def affine_dimension(vertices: np.ndarray) -> int:
    """Dimension of the affine hull (rank of differences to the first vertex)."""
    V = np.atleast_2d(np.asarray(vertices, float))
    if V.shape[0] <= 1:
        return 0
    diffs = V[1:] - V[0]
    s = np.linalg.svd(diffs, compute_uv=False)
    return int(np.sum(s > EPS_GEOM))


def affine_basis(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the affine hull and its base point (the centroid)."""
    V = np.atleast_2d(np.asarray(vertices, float))
    center = V.mean(axis=0)
    diffs = V - center
    _, s, vt = np.linalg.svd(diffs, full_matrices=False)
    rank = int(np.sum(s > EPS_GEOM))
    return vt[:rank].T, center  # columns are basis vectors


def is_simple(V: VertexSet, adjacency: list[list[int]]) -> bool:
    """A k-dimensional polytope is simple iff every vertex has k neighbors."""
    k = affine_dimension(V.vertices)
    return all(len(nbrs) == k for nbrs in adjacency)


def volume_triangulation(V: VertexSet | np.ndarray) -> tuple[float, int]:
    """Volume inside the affine hull: qhull's volume of the convex hull.

    Returns ``(volume, dimension)``.  A polytope whose affine hull is a point
    is degenerate: volume 0.0 is returned with dimension 0 (flagged by the
    dimension, not an exception, so measure-zero sets stay representable).
    The points are sorted lexicographically first, so that the centroid, the
    basis and qhull's hull, and with them the volume, do not depend on the
    order they come in.
    """
    from scipy.spatial import ConvexHull, QhullError  # scipy loads only when called

    pts = V.vertices if isinstance(V, VertexSet) else np.atleast_2d(np.asarray(V, float))
    pts = pts[np.lexsort(pts.T[::-1])]
    dim = affine_dimension(pts)
    if dim == 0:
        return 0.0, 0
    basis, center = affine_basis(pts)
    coords = (pts - center) @ basis  # (n, dim)
    if dim == 1:
        xs = coords[:, 0]
        return float(xs.max() - xs.min()), 1
    try:
        hull = ConvexHull(coords)
    except QhullError:
        hull = ConvexHull(coords, qhull_options="QJ")
    return float(hull.volume), dim


def _xi_sequence(k: int, seed: int):
    """Deterministic pseudo-random candidate directions in R^k."""
    rng = np.random.default_rng(seed)
    for _ in range(_XI_RETRIES):
        yield rng.normal(size=k)


def brion_volume(
    V: VertexSet | np.ndarray,
    adjacency: list[list[int]],
    xi: np.ndarray | None = None,
    seed: int = 20230517,
) -> float:
    """Volume of a simple polytope from the vertex-sum formula.

    Works in orthonormal coordinates of the affine hull, so a polytope on the
    normalization hyperplane needs no explicit basis change by the caller; the
    returned value is the intrinsic volume.  ``xi`` may be supplied explicitly;
    otherwise candidates are drawn from a fixed-seed sequence until none of
    the edge inner products vanish.

    Raises
    ------
    NotSimple
        if some vertex does not have exactly (affine dimension) neighbors or
        its edge vectors are linearly dependent.
    XiDegenerate
        if no valid direction is found within ``_XI_RETRIES`` draws.
    """
    pts = V.vertices if isinstance(V, VertexSet) else np.atleast_2d(np.asarray(V, float))
    k = affine_dimension(pts)
    if k == 0:
        return 0.0
    basis, center = affine_basis(pts)
    coords = (pts - center) @ basis
    n = coords.shape[0]
    if len(adjacency) != n:
        raise InconsistentInput("adjacency does not match the vertex count")

    edge_mats = []
    for i, nbrs in enumerate(adjacency):
        if len(nbrs) != k:
            raise NotSimple(f"vertex {i} has {len(nbrs)} neighbors, expected {k}")
        E = np.array([coords[i] - coords[j] for j in nbrs])  # rows are e_i(v)
        if abs(np.linalg.det(E)) < EPS_GEOM:
            raise NotSimple(f"edge vectors at vertex {i} are linearly dependent")
        edge_mats.append(E)

    if xi is not None:
        candidates = [np.asarray(xi, float)]
    else:
        candidates = _xi_sequence(k, seed)
    for cand in candidates:
        dots = [E @ cand for E in edge_mats]
        if all(np.all(np.abs(d) > EPS_GEOM) for d in dots):
            total = 0.0
            for i, (E, d) in enumerate(zip(edge_mats, dots)):
                det = abs(np.linalg.det(E))
                num = float(coords[i] @ cand) ** k
                total += det * num / float(np.prod(d))
            return total / math.factorial(k)
    raise XiDegenerate("no direction avoided all edge orthogonalities; edges may coincide")

