"""Convex polytope engine: H/V representations, adjacency, two volume routes.

The enumeration and volume routes serve ``entvol polytope`` (raw H- or
V-input) and the test suite, where they are the independent oracles of the
bipartite accessible engine; the measures of the package use only the data
types and ``EPS_GEOM`` from this module.  The polytopes handled here
are small (at most a few dozen inequalities, a few hundred vertices), so
vertex enumeration runs the textbook route: every k-subset of tight
constraints is solved and the feasible solutions kept, and the same subsets
decide emptiness and boundedness, without an LP.  Volumes come from two
independent algorithms that are cross-checked in the test suite:

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
scipy (qhull, for the hull volume) is imported inside
``volume_triangulation``, so ``import entvol`` and vertex enumeration do not
load it.
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
        return _with_coordinates(
            HalfspaceSystem(np.asarray(payload["A"], float), np.asarray(payload["b"], float)))


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
        return _with_coordinates(VertexSet(np.asarray(payload["vertices"], float)))


def _with_coordinates(P):
    """P itself; raw input in R^0 has nothing to enumerate or measure."""
    if P.k == 0:
        raise InconsistentInput("a polytope needs at least one coordinate")
    return P


def scaled_rows(H: HalfspaceSystem) -> tuple[np.ndarray, np.ndarray]:
    """The rows (A_i, b_i) scaled to max |A_i| = 1, zero rows as given.

    Rows already at max |A_i| = 1 keep their bits.  An offset that overflows
    on its scaled row raises ``InconsistentInput``.
    """
    scale = np.abs(H.A).max(axis=1, initial=0.0)
    scale[scale == 0.0] = 1.0
    with np.errstate(over="ignore"):
        A, b = H.A / scale[:, None], H.b / scale
    if not np.all(np.isfinite(b)):
        raise InconsistentInput("an offset overflows on its row scaled to max |A_i| = 1")
    return A, b


def enumerate_vertices(H: HalfspaceSystem) -> VertexSet:
    """All vertices of the polytope {A x + b >= 0} by k-subset intersection.

    Every test below runs on the rows of :func:`scaled_rows`, so no decision
    depends on the scale of a row.  The same subsets decide emptiness and
    boundedness, without an LP:

    * A of rank below k (singular values above ``EPS_GEOM``): null(A) is
      pinned to 0 (rows +-n, offset 0).  A vertex then means the set holds a
      line (``Unbounded``), none that it is empty (``Infeasible``).
    * A of rank k: no vertex means ``Infeasible``.  The set is bounded
      unless its recession cone {A r >= 0} has an extreme ray (Schrijver
      1986): a null direction r of a (k-1)-row subset of rank k-1 with
      A r >= -EPS_GEOM at max |r_i| = 1.  These are the columns of the
      inverses of the nonsingular k-subsets (|det| >= 1e-13): column i is
      null on the subset's other rows and positive on its row i.

    Cost is O(C(m, k) k^3), all subsets solved stacked, fine for the small
    systems this package builds.  Each kept vertex records its full tight
    set (all rows satisfied with equality, not just the defining subset) as
    Python ints.
    """
    m, k = H.m, H.k
    if m < k:
        raise InconsistentInput(f"need at least k={k} rows, got {m}")
    A0, b0 = scaled_rows(H)
    _, s, vt = np.linalg.svd(A0)
    null = vt[np.count_nonzero(s > EPS_GEOM):]
    A = np.vstack([A0, null, -null])
    b = np.concatenate([b0, np.zeros(2 * len(null))])

    rows = np.array(list(itertools.combinations(range(len(A)), k)), dtype=int, ndmin=2)
    A_sub = A[rows]
    solvable = np.abs(np.linalg.det(A_sub)) >= 1e-13
    A_sub, rows = A_sub[solvable], rows[solvable]
    X = np.linalg.solve(A_sub, -b[rows, None])[..., 0]
    X = X[np.all(X @ A.T + b >= -EPS_GEOM, axis=1)]
    keep: list[int] = []
    for i, x in enumerate(X):
        if not keep or np.linalg.norm(X[keep] - x, axis=1).min() > EPS_GEOM:
            keep.append(i)
    if not keep:
        raise Infeasible("no point satisfies all constraints")

    # max |r_i| = 1 does not underflow as |r| = 1 can; R^0 (k = 0) has no r
    R = np.swapaxes(np.linalg.inv(A_sub), 1, 2).reshape(len(A_sub) * k, k)
    Ar = R @ A0.T / np.abs(R).max(axis=1, keepdims=True, initial=0.0)
    if len(null) or np.any(np.all(Ar >= -EPS_GEOM, axis=1)):
        raise Unbounded("a feasible ray exists")
    V = X[keep]
    slack = V @ A0.T + b0  # (n, m)
    tight = tuple(frozenset(np.flatnonzero(np.abs(row) <= EPS_GEOM).tolist()) for row in slack)
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
    """Dimension of the affine hull: the column count of ``affine_basis``."""
    return affine_basis(vertices)[0].shape[1]


def affine_basis(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the affine hull and its base point (the centroid).

    The one rank decision of the hull: the singular values of the centred
    points above ``EPS_GEOM``.
    """
    V = np.atleast_2d(np.asarray(vertices, float))
    center = V.mean(axis=0)
    _, s, vt = np.linalg.svd(V - center, full_matrices=False)
    return vt[s > EPS_GEOM].T, center  # columns are basis vectors


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
    order they come in.  A hull qhull cannot build, joggled or not (its
    coordinates overflow), raises ``InconsistentInput``.
    """
    from scipy.spatial import ConvexHull, QhullError  # scipy loads only when called

    pts = V.vertices if isinstance(V, VertexSet) else np.atleast_2d(np.asarray(V, float))
    pts = pts[np.lexsort(pts.T[::-1])]
    basis, center = affine_basis(pts)
    coords = (pts - center) @ basis  # (n, dim)
    dim = coords.shape[1]
    if dim == 0:
        return 0.0, 0
    if dim == 1:
        return float(np.ptp(coords)), 1
    for options in (None, "QJ"):
        try:
            return float(ConvexHull(coords, qhull_options=options).volume), dim
        except QhullError as exc:
            error = exc
    raise InconsistentInput("qhull cannot build the hull of these vertices") from error


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
    basis, center = affine_basis(pts)
    coords = (pts - center) @ basis
    k = coords.shape[1]
    if k == 0:
        return 0.0
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

