"""Source volume and entanglement of bipartite pure states, in pure Python.

Face recursion.  Restricted to sorted vectors, the states that can reach a
sorted ``lam`` form the chamber {mu sorted, mu majorized by lam}.  With
Lam_j = lam_1 + ... + lam_j (Lam_0 = 0) it is cut out by the d-1 partial-sum
caps M_j <= Lam_j and the d-1 ordering rows mu_j >= mu_(j+1), and it is a
combinatorial (d-1)-cube: cap j and ordering row j are opposite facets.  Its
vertex v_T, for T a subset of {1..d-1}, is lam averaged over the blocks that
the tight caps T cut, and its faces are F_A = {v_T : T contains A}.

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
sorted region.  At d = 1 the single point (1,) is that whole region, so
E_s = 0.

The module imports no numpy, so that ``entvol bipartite source`` and
``convert`` start without it; ``bipartite`` re-exports every name here.
"""

from __future__ import annotations

import itertools
import math

from .errors import DimensionTooLarge, IndexOutOfRange, ShrinkNotAllowed
from .schmidt import FrozenRecord, SchmidtVector, embed, maximally_entangled, sorted_region_volume

#: Largest Schmidt rank the source measures accept; their precision is tested
#: up to here (E_s within 1e-13 of 0 on the separable state, of 1 on the flat).
MAX_EXACT_DIM = 16


class MeasureReport(FrozenRecord):
    """Outcome of one volume/entanglement evaluation.

    quantity is "source" or "accessible"; volume the intrinsic volume, of
    dimension ``dimension``; v_sup the normalization constant used;
    entanglement the value in [0, 1]; k the family index (k = d for the plain
    measures); abs_err the Monte-Carlo standard error of the volume (0 when
    exact).
    """

    __slots__ = ("quantity", "volume", "dimension", "v_sup", "entanglement", "k", "abs_err")

    def __init__(self, quantity: str, volume: float, dimension: int, v_sup: float,
                 entanglement: float, k: int, abs_err: float = 0.0) -> None:
        self._set(quantity, volume, dimension, v_sup, entanglement, k, abs_err)


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
