"""Source and accessible volumes/entanglement of bipartite pure states.

Source side (face recursion).  Restricted to sorted vectors, the states that
can reach a sorted ``lam`` form the chamber {mu sorted, mu majorized by lam}.
With Lam_j = lam_1 + ... + lam_j (Lam_0 = 0) it is cut out by the d-1
partial-sum caps M_j <= Lam_j and the d-1 ordering rows mu_j >= mu_(j+1),
and it is a combinatorial (d-1)-cube: cap j and ordering row j are opposite
facets.  Its vertex v_T, for T a subset of {1..d-1}, is lam averaged over the
blocks that the tight caps T cut, and its faces are F_A = {v_T : T contains A}.

Lasserre's formula vol(P) = 1/dim(P) * sum_F h_F vol(F), taken from the apex
v_A of F_A, drops every facet through v_A (all the ordering facets) and keeps
the facets F_(A u {k}), k not in A.  If k lies in the block (a, b] of A, with
n = b - a and m = k - a, the apex's distance to the cap M_k = Lam_k within
F_A is

    h(a, k, b) = (Lam_k - Lam_a - m (Lam_b - Lam_a) / n) / sqrt(m (n-m) / n),

which is >= 0 because Lam is concave.  A face is the orthogonal product of
the chambers of its blocks (the ordering rows between blocks are implied), so
the 2^(d-1) face volumes are products of the volumes V(a, b) of the O(d^2)
block chambers, and the recursion reads

    V(a, b) = 1/(n-1) * sum_(a<k<b) h(a, k, b) V(a, k) V(k, b),  V(a, a+1) = 1.

Every term is nonnegative and nothing divides by a lam-dependent quantity,
so there is no cancellation and ties or trailing zeros need no special case.
E_s = 1 - V(0, d) / V_sorted, the separable state's chamber being the whole
sorted region.

Accessible side (geometry).  After eliminating the last component by
normalization, the accessible set is the polytope in R^(d-1) cut out by the
d-1 majorization rows and the d ordering/positivity rows; its volume is found
by vertex enumeration plus qhull's hull volume and converted to the intrinsic
convention with the sqrt(d) Jacobian.  A set of lower dimension than d-1,
such as the separable state's single target, gets E_a = 0.

Rank 1.  The single point (1,) is the whole sorted region, and its 0-volume
is 1, as in ``sorted_region_volume(1)`` and the Monte-Carlo oracles.  So at
d = 1 both volumes are 1, E_s = 0 and E_a = 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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

#: Largest Schmidt rank the source measures accept; their precision is tested
#: up to here (E_s within 1e-13 of 0 on the separable state, of 1 on the flat).
MAX_EXACT_DIM = 16

#: Largest target rank of the accessible measures: vertex enumeration solves
#: C(2k-1, k-1) systems, and one rank-10 vector ran past 590 s on a 2-vCPU
#: machine.
MAX_ACCESSIBLE_DIM = 9


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


def _chamber_volume(lam: tuple[float, ...]) -> float:
    """Intrinsic (d-1)-volume of the sorted source chamber, by the face recursion.

    ``vol[a][b]`` is the volume of the block chamber over components a+1..b
    with the partial sums at a and b tight (see the module docstring).
    """
    d = len(lam)
    cum = list(itertools.accumulate(lam, initial=0.0))
    vol = [[1.0] * (d + 1) for _ in range(d + 1)]
    for n in range(2, d + 1):
        for a in range(d - n + 1):
            b = a + n
            slope = (cum[b] - cum[a]) / n
            total = 0.0
            for m in range(1, n):
                h = (cum[a + m] - cum[a] - m * slope) / math.sqrt(m * (n - m) / n)
                total += h * vol[a][a + m] * vol[a + m][b]
            vol[a][b] = total / (n - 1)
    return vol[0][d]


def source_volume(lam: SchmidtVector) -> float:
    """Intrinsic (d-1)-volume of the set of states that can reach ``lam``."""
    return source_entanglement(lam).volume


def source_entanglement(lam: SchmidtVector) -> MeasureReport:
    """Source entanglement; 0 on the separable state, 1 on the flat state."""
    if lam.d > MAX_EXACT_DIM:
        raise DimensionTooLarge(f"d={lam.d} exceeds the source cap {MAX_EXACT_DIM}")
    vol = _chamber_volume(lam.components)
    sup = sorted_region_volume(lam.d)
    return MeasureReport(
        quantity="source",
        volume=vol,
        dimension=lam.d - 1,
        v_sup=sup,
        entanglement=1.0 - vol / sup,
        k=lam.d,
    )


def source_entanglement_sup(d: int, k: int) -> float:
    """sup over d-dimensional states of the k-embedded source entanglement.

    The flat state reaches every state of the same dimension by LOCC, and
    embedding preserves majorization, so monotonicity forces the supremum to
    sit at the flat state; the exact flat-state value is returned.
    """
    return source_entanglement(embed(maximally_entangled(d), k)).entanglement


def source_entanglement_k(lam: SchmidtVector, k: int) -> MeasureReport:
    """Generalized source entanglement against source states of dimension k >= d.

    It is normalized by the flat state's value, which vanishes at d = 1 (the
    flat state is then the separable one), so d >= 2 is required.
    """
    if lam.d < 2:
        raise IndexOutOfRange("the k-embedded source entanglement needs d >= 2")
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


# -- accessible set -----------------------------------------------------------

def accessible_hrep(lam: SchmidtVector) -> HalfspaceSystem:
    """H-representation of the accessible set in projected coordinates.

    Variables are the first d-1 components; rows are the d-1 partial-sum
    floors, the d-2 ordering rows, the floor on the eliminated component and
    its positivity: 2d-1 rows in total.
    """
    if lam.d < 2:
        raise IndexOutOfRange("the accessible H-representation needs d >= 2")
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
    if k > MAX_ACCESSIBLE_DIM:
        raise DimensionTooLarge(f"rank {k} exceeds the accessible cap {MAX_ACCESSIBLE_DIM}")
    if k == 1:
        return VertexSet(np.zeros((1, 0)))  # the single target (1,)
    return enumerate_vertices(_restricted_accessible_hrep(lam, k))


def accessible_vertices(lam: SchmidtVector) -> VertexSet:
    return _restricted_accessible_vertices(lam, lam.d)


def _accessible_report(lam: SchmidtVector, k: int) -> MeasureReport:
    """Enumerate the vertices, take the hull volume, apply the sqrt(k) Jacobian."""
    sup = sorted_region_volume(k)
    if k == 1:  # the single point (1,) is the whole sorted region
        return MeasureReport("accessible", sup, 0, sup, 1.0, 1)
    vol_proj, dim = volume_triangulation(_restricted_accessible_vertices(lam, k))
    vol = vol_proj * math.sqrt(k)
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
    pads with zeros.  They are built in closed form, with no vertex
    enumeration, so any rank is accepted.
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
    return out


def max_entangled_accessible(lam: SchmidtVector, k: int) -> bool:
    """Whether the flat state of rank k is reachable from lam (iff lam_1 <= 1/k)."""
    if not 1 <= k <= lam.d:
        raise IndexOutOfRange(f"need 1 <= k <= d={lam.d}, got {k}")
    return lam.components[0] <= 1.0 / k + EPS_NORM
