"""Source and accessible volumes/entanglement of bipartite pure states.

Source side (closed form).  The set of unsorted vectors majorized by a sorted
``lam`` is the convex hull of all d! permutations of ``lam``; it is simple for
non-degenerate ``lam``, and summing the vertex formula over that hull yields

    V_s(lam) = 1/d! * sqrt(d)/(d-1)! *
               sum_sigma (sum_k sigma(k) lam_k - (d+1)/2)^(d-1)
                         / prod_k (sigma(k) - sigma(k+1)),

valid for degenerate vectors as well (continuity).  Dividing by the separable
state's volume sqrt(d)/(d! (d-1)!) gives the source entanglement directly as
one minus the permutation sum.

Accessible side (geometry).  After eliminating the last component by
normalization, the accessible set is the polytope in R^(d-1) cut out by the
d-1 majorization rows and the d ordering/positivity rows; its volume is found
by vertex enumeration plus qhull's hull volume and converted to the intrinsic
convention with the sqrt(d) Jacobian.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionTooLarge, IndexOutOfRange, ShrinkNotAllowed
from .polytope import (
    HalfspaceSystem,
    VertexSet,
    enumerate_vertices,
    volume_triangulation,
)
from .schmidt import (
    EPS_NORM,
    SchmidtVector,
    embed,
    maximally_entangled,
    sorted_region_volume,
)

#: Largest dimension for which the exact d! permutation sum is attempted.
MAX_EXACT_DIM = 11

_CHUNK = 200_000


@dataclass(frozen=True)
class MeasureReport:
    """Outcome of one volume/entanglement evaluation."""

    quantity: str          # "source" or "accessible"
    volume: float          # intrinsic volume
    dimension: int         # dimension the volume is measured in
    v_sup: float           # normalization constant used
    entanglement: float    # value in [0, 1]
    k: int                 # family index (k = d for the plain measures)

    def to_json(self) -> dict:
        return {
            "quantity": self.quantity,
            "volume": self.volume,
            "dimension": self.dimension,
            "v_sup": self.v_sup,
            "entanglement": self.entanglement,
            "k": self.k,
        }


def _permutation_sum(lam: np.ndarray) -> float:
    """The normalized vertex sum; equals V_s / V_s(separable).

    Terms alternate in sign, so each chunk is accumulated with exact
    compensated summation (math.fsum) and chunk totals are fsum-reduced again.
    Chunking is deterministic, so any associative parallel reduction of the
    chunks would reproduce the same value.
    """
    d = len(lam)
    if d > MAX_EXACT_DIM:
        raise DimensionTooLarge(f"d={d} exceeds the exact-sum cap {MAX_EXACT_DIM}")
    shift = (d + 1) / 2.0
    perm_iter = itertools.permutations(range(1, d + 1))
    chunk_totals: list[float] = []
    while True:
        block = list(itertools.islice(perm_iter, _CHUNK))
        if not block:
            break
        P = np.array(block, dtype=float)
        nums = (P @ lam - shift) ** (d - 1)
        dens = np.prod(-np.diff(P, axis=1), axis=1) if d > 1 else np.ones(len(block))
        chunk_totals.append(math.fsum((nums / dens).tolist()))
    return math.fsum(chunk_totals)


def source_volume(lam: SchmidtVector) -> float:
    """Intrinsic (d-1)-volume of the set of states that can reach ``lam``."""
    return source_entanglement(lam).volume


def source_entanglement(lam: SchmidtVector) -> MeasureReport:
    """Source entanglement; 0 on the separable state, 1 on the flat state."""
    total = _permutation_sum(lam.as_array())
    sup = sorted_region_volume(lam.d)
    return MeasureReport(
        quantity="source",
        volume=total * sup,
        dimension=lam.d - 1,
        v_sup=sup,
        entanglement=1.0 - total,
        k=lam.d,
    )


@lru_cache(maxsize=None)
def source_entanglement_sup(d: int, k: int) -> float:
    """sup over d-dimensional states of the k-embedded source entanglement.

    The flat state reaches every state of the same dimension by LOCC, and
    embedding preserves majorization, so monotonicity forces the supremum to
    sit at the flat state; the exact flat-state value is returned.
    """
    return source_entanglement(embed(maximally_entangled(d), k)).entanglement


def source_entanglement_k(lam: SchmidtVector, k: int) -> MeasureReport:
    """Generalized source entanglement against source states of dimension k >= d."""
    if k < lam.d:
        raise ShrinkNotAllowed(f"k={k} smaller than d={lam.d}")
    sup = source_entanglement_sup(lam.d, k)
    big = source_entanglement(embed(lam, k))
    return MeasureReport(
        quantity="source",
        volume=big.volume,
        dimension=k - 1,
        v_sup=sup,
        entanglement=big.entanglement / sup,
        k=k,
    )


# -- the permutation hull of lam (source set over unsorted vectors) ----------

def source_polytope_vertices(lam: SchmidtVector) -> np.ndarray:
    """All d! coordinate permutations of lam (the hull's vertex list)."""
    arr = lam.as_array()
    return np.array([arr[list(p)] for p in itertools.permutations(range(lam.d))])


def source_polytope_adjacency(d: int) -> list[list[int]]:
    """Neighbor lists under the adjacent-value-swap rule.

    The neighbors of the vertex indexed by sigma are obtained by composing
    sigma with the transposition of the values i, i+1; for non-degenerate lam
    these are exactly the polytope edges, d-1 per vertex.
    """
    perms = list(itertools.permutations(range(d)))
    index = {p: i for i, p in enumerate(perms)}
    adj = []
    for p in perms:
        nbrs = []
        for i in range(d - 1):
            q = tuple(i + 1 if x == i else (i if x == i + 1 else x) for x in p)
            nbrs.append(index[q])
        adj.append(nbrs)
    return adj


# -- accessible set -----------------------------------------------------------

def accessible_hrep(lam: SchmidtVector) -> HalfspaceSystem:
    """H-representation of the accessible set in projected coordinates.

    Variables are the first d-1 components; rows are the d-1 partial-sum
    floors, the d-2 ordering rows, the floor on the eliminated component and
    its positivity: 2d-1 rows in total.
    """
    return _restricted_accessible_hrep(lam, lam.d)


def _restricted_accessible_hrep(lam: SchmidtVector, k: int) -> HalfspaceSystem:
    """Accessible targets of rank <= k, as a (k-1)-variable system."""
    E = np.cumsum(lam.as_array())
    rows, offs = [], []
    for j in range(1, k):  # partial sums must not drop
        a = np.zeros(k - 1)
        a[:j] = 1.0
        rows.append(a)
        offs.append(-E[j - 1])
    for i in range(k - 2):  # ordering among the free components
        a = np.zeros(k - 1)
        a[i], a[i + 1] = 1.0, -1.0
        rows.append(a)
        offs.append(0.0)
    a = np.ones(k - 1)  # last free component >= eliminated one
    a[k - 2] += 1.0
    rows.append(a)
    offs.append(-1.0)
    rows.append(-np.ones(k - 1))  # eliminated component >= 0
    offs.append(1.0)
    return HalfspaceSystem(np.array(rows), np.array(offs))


def _restricted_accessible_vertices(lam: SchmidtVector, k: int) -> VertexSet:
    """Vertices of the accessible targets of rank <= k, in k-1 coordinates."""
    if k == 1:
        return VertexSet(np.zeros((1, 0)))  # the single target (1,)
    return enumerate_vertices(_restricted_accessible_hrep(lam, k))


def accessible_vertices(lam: SchmidtVector) -> VertexSet:
    return _restricted_accessible_vertices(lam, lam.d)


def _accessible_report(lam: SchmidtVector, k: int) -> MeasureReport:
    """Enumerate the vertices, take the hull volume, apply the sqrt(k) Jacobian."""
    vol_proj, dim = volume_triangulation(_restricted_accessible_vertices(lam, k))
    vol = vol_proj * math.sqrt(k)
    sup = sorted_region_volume(k)
    value = vol / sup if dim == k - 1 else 0.0
    return MeasureReport("accessible", vol, dim, sup, value, k)


def accessible_volume(lam: SchmidtVector) -> tuple[float, int]:
    """Intrinsic volume of the accessible set and the dimension it lives in."""
    rep = _accessible_report(lam, lam.d)
    return rep.volume, rep.dimension


def accessible_entanglement(lam: SchmidtVector) -> MeasureReport:
    """Accessible entanglement: share of the sorted region reachable from lam."""
    return _accessible_report(lam, lam.d)


def accessible_entanglement_k(lam: SchmidtVector, k: int) -> MeasureReport:
    """Accessible entanglement toward targets of Schmidt rank at most k <= d."""
    if not 2 <= k <= lam.d:
        raise IndexOutOfRange(f"need 2 <= k <= d={lam.d}, got {k}")
    return _accessible_report(lam, k)


def guaranteed_vertices(lam: SchmidtVector) -> list[SchmidtVector]:
    """The d-2 vertices of the accessible set that exist for every state.

    The i-th one keeps the first i-1 components, then repeats the i-th
    component as often as normalization allows, closes with the remainder and
    pads with zeros.  Each is checked against the enumerated vertex set.
    """
    d = lam.d
    if d < 3:
        raise IndexOutOfRange("guaranteed vertices are defined for d >= 3")
    out = []
    for i in range(1, d - 1):
        comps = list(lam.components[: i - 1])
        remaining = 1.0 - sum(comps)
        cap = lam.components[i - 1]
        while remaining > EPS_NORM and len(comps) < d:
            step = min(cap, remaining)
            comps.append(step)
            remaining -= step
        comps.extend([0.0] * (d - len(comps)))
        out.append(SchmidtVector(tuple(comps)))
    V = accessible_vertices(lam)
    for v in out:
        proj = v.as_array()[: d - 1]
        if not any(np.linalg.norm(proj - w) <= 1e-8 for w in V.vertices):
            raise AssertionError(f"constructed vertex {v} missing from the vertex set")
    return out


def max_entangled_accessible(lam: SchmidtVector, k: int) -> bool:
    """Whether the flat state of rank k is reachable from lam (iff lam_1 <= 1/k)."""
    if not 1 <= k <= lam.d:
        raise IndexOutOfRange(f"need 1 <= k <= d={lam.d}, got {k}")
    ok = lam.components[0] <= 1.0 / k + EPS_NORM
    if ok and k >= 2 and lam.d >= 2:
        target = embed(maximally_entangled(k), lam.d).as_array()[: lam.d - 1]
        V = accessible_vertices(lam)
        if not any(np.linalg.norm(target - w) <= 1e-8 for w in V.vertices):
            raise AssertionError("flat state reachable but not a vertex; geometry inconsistent")
    return ok

