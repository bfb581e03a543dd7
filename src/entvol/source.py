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

Its square roots cancel: R(a, b) = V(a, b) / sqrt(n) obeys

    R(a, b) = 1/(n-1) * sum_(a<k<b) g(a, k, b) R(a, k) R(k, b),  R(a, a+1) = 1,
    g(a, k, b) = Lam_k - Lam_a - m (Lam_b - Lam_a) / n,

so the volume is a polynomial in lam with rational coefficients.  R shrinks
like 1/((n-1)! n!), and underflows from about n = 128.  The scaled
rho(a, b) = (n-1)! n! R(a, b) is (Lam_b - Lam_a)^(n-1) times the fraction of
the block's sorted region that its chamber fills, and obeys

    rho(a, b) = sum_(m=1..n-1) C(n-2, m-1) C(n, m) g(a, a+m, b) rho(a, a+m) rho(a+m, b),

with rho(a, a+1) = 1 and rho(a, a+2) = lam_(a+1) - lam_(a+2).  The integer
weights depend on n only.  Every term is nonnegative and nothing divides by
a lam-dependent quantity, so there is no cancellation, and ties or trailing
zeros need no special case.  Since sorted_region_volume(d) =
sqrt(d) / ((d-1)! d!), rho(0, d) is the chamber's volume as a fraction of the
whole sorted region: it is exactly 1 on the separable state, whose chamber is
that region, so E_s = 1 - rho(0, d) and V_s = rho(0, d) * V_sorted.  E_s never
divides by a volume, so it keeps its precision where V_s underflows.  At
d = 1 the single point (1,) is the whole region, so E_s = 0.

The module imports no numpy, so that ``entvol bipartite source`` and
``convert`` start without it; ``bipartite`` re-exports every name here.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import DimensionTooLarge, IndexOutOfRange, ShrinkNotAllowed
from .schmidt import FrozenRecord, SchmidtVector, embed, maximally_entangled, sorted_region_volume

#: Largest Schmidt rank the source measures accept: the last d whose
#: sorted_region_volume(d), and so V_s, is a float.  E_s is tested up to here
#: (within 1e-13 of 0 on the separable state, of 1 on the flat one).
MAX_EXACT_DIM = 98

#: Smallest flat-state E_s that source_entanglement_k divides by.  E_s is
#: 1 - rho(0, d) with rho near 1, so its error is absolute, 4e-14 at most on
#: the tested states, and E_s^k near this floor is within about 1e-7 of the
#: exact ratio.  It binds only for small d at large k: d = 2 from k = 26,
#: d = 3 from 45, d = 4 from 64, d = 5 from 83, never for d >= 6.
_MIN_SOURCE_SUP = 1e-6


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


@functools.lru_cache(maxsize=None)
def _face_weights(n: int) -> tuple[float, ...]:
    """The weights C(n-2, m-1) C(n, m), m = 1..n-1, of the rho recursion."""
    return tuple(float(math.comb(n - 2, m - 1) * math.comb(n, m)) for m in range(1, n))


def _chamber_volume(lam: tuple[float, ...]) -> float:
    """Volume of the sorted source chamber over that of the sorted region.

    ``rho[a][b]`` is rho(a, b) of the module docstring, the scaled volume of
    the block chamber over components a+1..b; rho(0, d) is the fraction.
    """
    d = len(lam)
    cum = list(itertools.accumulate(lam, initial=0.0))
    rho = [[1.0] * (d + 1) for _ in range(d + 1)]
    for a in range(d - 1):
        rho[a][a + 2] = lam[a] - lam[a + 1]
    for n in range(3, d + 1):
        weights = _face_weights(n)
        for a in range(d - n + 1):
            b = a + n
            base = cum[a]
            slope = (cum[b] - base) / n
            row = rho[a]
            total = 0.0
            for k, w in enumerate(weights, a + 1):
                total += w * (cum[k] - base - (k - a) * slope) * row[k] * rho[k][b]
            row[b] = total
    return rho[0][d]


def source_volume(lam: SchmidtVector) -> float:
    """Intrinsic (d-1)-volume of the set of states that can reach ``lam``."""
    return source_entanglement(lam).volume


def source_entanglement(lam: SchmidtVector) -> MeasureReport:
    """Source entanglement; 0 on the separable state, 1 on the flat state."""
    if lam.d > MAX_EXACT_DIM:
        raise DimensionTooLarge(f"d={lam.d} exceeds the source cap {MAX_EXACT_DIM}")
    fraction = _chamber_volume(lam.components)
    sup = sorted_region_volume(lam.d)
    return MeasureReport(
        quantity="source",
        volume=fraction * sup,
        dimension=lam.d - 1,
        v_sup=sup,
        entanglement=1.0 - fraction,
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
    flat state is then the separable one), so d >= 2 is required.  That value
    falls about like k (1 - 1/d)^(k-1); below _MIN_SOURCE_SUP the ratio would
    lose more than about seven digits to rounding, so such a k raises
    DimensionTooLarge.
    """
    if lam.d < 2:
        raise IndexOutOfRange("the k-embedded source entanglement needs d >= 2")
    if k < lam.d:
        raise ShrinkNotAllowed(f"k={k} smaller than d={lam.d}")
    sup = source_entanglement_sup(lam.d, k)
    if sup < _MIN_SOURCE_SUP:
        raise DimensionTooLarge(
            f"k={k} for d={lam.d}: the flat state's E_s is {sup:.3g} there, below "
            f"{_MIN_SOURCE_SUP:g}, so E_s^k is not resolved")
    big = source_entanglement(embed(lam, k))
    return MeasureReport(
        quantity="source",
        volume=big.volume,
        dimension=k - 1,
        v_sup=sup,
        entanglement=big.entanglement / sup,
        k=k,
    )
