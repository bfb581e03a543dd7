"""Source and accessible volumes/entanglement of bipartite pure states.

The source side (the face recursion, ``MeasureReport`` and the source
measures) lives in ``source``, which loads no numpy; this module re-exports
it, so ``bipartite.source_entanglement`` is ``source.source_entanglement``.

Accessible side (vertex construction and Lasserre's recursion).  With the
partial sums Lam_j = lam_1 + ... + lam_j (Lam_0 = 0), the targets of rank
<= k that lam reaches form the (k-1)-polytope {M concave on 0..k, M_0 = 0, M_k = 1, M_j >= Lam_j for j < k,
M_(k-1) <= 1}: k-1 floors, k-1 ordering (concavity) rows and mu_k >= 0, in
the row order of ``accessible_hrep``.  M is a vertex when no nonzero
perturbation keeps it feasible both ways.  Such a perturbation vanishes at
the pins of M (0, k, every contact M_t = Lam_t and, when mu_k = 0, k-1) and
bends only where M has a knot.  Read from left to right, that leaves one
number of state, the slope of the current piece, which is either pinned or
one unknown theta: a stretch between two pins without a knot pins the line
through them; one knot passes the state on; two knots need a pinned slope
and leave a free one; a pin where M bends needs a pinned slope and starts a
free one; and M must end pinned.  As Lam is concave, a piece of M touches
Lam at two points only where it extends Lam's own segment (t, t+1, or longer
across a tie), and the last piece may be flat at 1 (mu_k = 0).  The
construction walks these patterns, keeps every value affine in theta and the
interval of theta that keeps every floor, kink and mu_k >= 0 off the pins
strict, and drops a pattern as soon as that interval empties; strictness
makes every vertex come out exactly once.  No LP and no linear solve is
involved.  A vertex's tight rows are its contacts, the points where it
does not bend and, if mu_k = 0, the last row.

The walk decides each margin (a value over its floor, a bend, the width of
an interval of theta) as zero or of one sign, and must decide it the same
way wherever it meets it: a vertex set decided one way here and another way
there is no polytope, and the recursion below can return any number on it,
E_a far above 1 included.  So the walk runs in floats, where a margin
within 1e-12 of 0 is 0 (exact ties round to far less) and one beyond
EPS_GEOM has its sign; if any margin falls in between, the walk starts
again in exact rational arithmetic on the partial sums of lam's components
as given, about ten times slower.  Features of lam finer than 1e-12 thus
count as ties, which moves E_a by a few 1e-12 at most.

The volume follows Lasserre (1983): for a face F of dimension m and an apex
v of F,

    vol(F) = 1/m * sum over the facets G of F that miss v of h(v, G) vol(G),

where G is cut from F by a row r and h(v, G) = slack_r(v) / |P_F a_r|, P_F
projecting onto the directions of F (orthogonal to the normals of the rows
tight on all of F).  The slack of a feasible apex is >= 0 and |P_F a_r| > 0,
so every term is nonnegative and nothing cancels.  Faces are keyed by the
bitmask of their vertices and computed once; each new face updates P_F a_r by
one rank-one projection.  Ties, trailing zeros and the flat state make the
polytope degenerate (several rows may cut the same facet, and an intersection
may be smaller than a facet); the rank test on the rows tight on G handles
that.  The volume is measured in the first k-1 coordinates; a full
(k-1)-dimensional set takes the sqrt(k) Jacobian to the intrinsic
convention.  A lower-dimensional set arises only when lam's rank is below k:
it lies in mu_k = 0, where dropping mu_k is an isometry, so it takes no
factor, and it gets E_a = 0, like the separable state's single target.

Rank 1.  The single point (1,) is the whole sorted region, and its 0-volume
is 1, as in ``sorted_region_volume(1)`` and the Monte-Carlo oracles.  So at
d = 1 both volumes are 1, E_s = 0 and E_a = 1.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DimensionTooLarge, IndexOutOfRange
from .polytope import EPS_GEOM, HalfspaceSystem, VertexSet, scaled_rows
# Not called here: bench/harness.py::install_layer_spans wraps these two names
# on this module by name in every traced run.
from .polytope import enumerate_vertices, volume_triangulation  # noqa: F401
from .schmidt import EPS_NORM, SchmidtVector, sorted_region_volume
from .source import (  # noqa: F401  (the source side, re-exported)
    MAX_EXACT_DIM,
    MeasureReport,
    _chamber_volume,
    source_entanglement,
    source_entanglement_k,
    source_entanglement_sup,
    source_volume,
)

#: Largest target rank of the accessible measures.  The faces that the volume
#: recursion visits grow about threefold per rank (about 9k at rank 10, 27k
#: at 11 and 83k at 12 on Dirichlet vectors), and so does the time: a rank-12
#: call took 1.0-1.9 s on Dirichlet, linear, geometric, harmonic and tied
#: vectors and under 0.2 s on step and zero-padded ones (shared 2-vCPU
#: machine); one whose vertex walk runs in exact arithmetic (lam within about
#: 1e-7 of the flat state) took 2.7-3.2 s.
MAX_ACCESSIBLE_DIM = 12

#: The accessible vertex walk, in floats, counts a margin within _TIE of 0 as
#: 0 and one beyond EPS_GEOM as nonzero (see the module docstring).
_TIE = 1e-12


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


class _Undecided(Exception):
    """A margin of the float vertex walk lies too near 0 to be decided there."""


def _float_sign(x: float) -> int:
    """Sign of a walk margin in floats: 0 below _TIE, undecided up to EPS_GEOM."""
    if x > EPS_GEOM:
        return 1
    if x < -EPS_GEOM:
        return -1
    if abs(x) <= _TIE:
        return 0
    raise _Undecided


def _exact_sign(x) -> int:
    return (x > 0) - (x < 0)


def _chamber_vertices(cum: list, k: int, sign) -> list[tuple[list, frozenset[int]]]:
    """Partial sums M_0..M_k and tight rows of every vertex of the rank-<=k
    accessible set.

    ``cum[t]`` is Lam_t for t < k and ``cum[k]`` the value of M_k; the
    numbers are floats or Fractions, and ``sign`` decides every comparison.
    The walk is the one in the module docstring: ``vals`` holds (a, b) with
    M_t = a + b * theta, and ``iv`` the open interval of theta that keeps
    every point off the pins strict so far.
    """
    out: list[list] = []
    top = cum[k]
    zero, one = top - top, top / top
    whole = (-math.inf, math.inf)

    def pins(t: int) -> tuple:
        if t == k:
            return (top,)
        if t == k - 1 and sign(top - cum[t]):  # a contact, or mu_k = 0
            return (cum[t], top)
        return (cum[t],)

    def cut(iv, a, b):
        """Keep the theta with a + b * theta > 0 (None: none left)."""
        if iv is None:
            return None
        lo, hi = iv
        if b == 0:
            return iv if sign(a) > 0 else None
        r = -a / b
        if b > 0:
            if r <= lo:
                return iv
            lo = r
        else:
            if r >= hi:
                return iv
            hi = r
        return (lo, hi) if sign(hi - lo) > 0 else None

    def off_pin(iv, t: int, a, b):
        """Point t, with M_t = a + b theta, strictly above its floor (and below M_k)."""
        iv = cut(iv, a - cum[t], b)
        if t == k - 1:
            iv = cut(iv, top - a, -b)
        return iv

    def line(vals, s, lo: int, hi: int):
        """Values at lo..hi-1 of the line of slope s through the last pin."""
        z = len(vals) - 1
        az = vals[z][0]
        return [(az + s[0] * (u - z), s[1] * (u - z)) for u in range(lo, hi)]

    def walk(vals, s, iv, free: bool) -> None:
        """Go on from the last pin z along the line of slope s."""
        z = len(vals) - 1
        az = vals[z][0]
        for t in range(z + 1, k + 1):
            ma, mb = az + s[0] * (t - z), s[1] * (t - z)
            for pin in pins(t):  # t is the next pin, with no knot before it
                if not free:
                    if not sign(ma - pin):
                        arrive(vals + line(vals, s, z + 1, t) + [(pin, zero)], s, whole, False)
                elif mb != 0:
                    th = (pin - ma) / mb
                    if sign(th - iv[0]) > 0 and sign(iv[1] - th) > 0:
                        done = [(a + b * th, zero) for a, b in vals + line(vals, s, z + 1, t)]
                        arrive(done + [(pin, zero)], (s[0] + s[1] * th, zero), whole, False)
            if t == k:
                return
            knot(vals, s, t, iv, free)  # t is a knot
            iv = off_pin(iv, t, ma, mb)  # t is neither
            if iv is None:
                return

    def knot(vals, s, q: int, iv, free: bool) -> None:
        """A knot at q, then the next pin z2, possibly with a second knot q2."""
        z = len(vals) - 1
        mq = (vals[z][0] + s[0] * (q - z), s[1] * (q - z))
        iv = off_pin(iv, q, *mq)
        if iv is None:
            return
        head = vals + line(vals, s, z + 1, q + 1)
        for z2 in range(q + 1, k + 1):
            for pin in pins(z2):
                # one knot: the next piece runs from (q, M_q) to the pin
                s2 = ((pin - mq[0]) / (z2 - q), -mq[1] / (z2 - q))
                jv = cut(iv, s[0] - s2[0], s[1] - s2[1])  # M bends down at q
                pts = []
                for u in range(q + 1, z2):
                    pts.append((mq[0] + s2[0] * (u - q), mq[1] + s2[1] * (u - q)))
                    jv = off_pin(jv, u, *pts[-1])
                if jv is not None:
                    arrive(head + pts + [(pin, zero)], s2, jv, free)
                if free or z2 == k:
                    continue
                # two knots: a fresh theta is the slope of the piece through the
                # pin, and the middle piece joins (q, M_q) to (q2, pin - theta (z2 - q2))
                for q2 in range(q + 1, z2):
                    mid = ((pin - mq[0]) / (q2 - q), -(z2 - q2) * one / (q2 - q))
                    jv = cut(whole, s[0] - mid[0], -mid[1])  # bend at q
                    jv = cut(jv, mid[0], mid[1] - one)  # bend at q2
                    pts = []
                    for u in range(q + 1, z2):
                        if u <= q2:
                            pts.append((mq[0] + mid[0] * (u - q), mid[1] * (u - q)))
                        else:
                            pts.append((pin, (u - z2) * one))
                        jv = off_pin(jv, u, *pts[-1])
                    if jv is not None:
                        walk(head + pts + [(pin, zero)], (zero, one), jv, True)

    def arrive(vals, s, iv, free: bool) -> None:
        """At a pin reached along slope s: end, go straight on, or bend there."""
        if len(vals) == k + 1:
            if not free:
                out.append([a for a, _ in vals])
            return
        walk(vals, s, iv, free)
        if not free:
            walk(vals, (zero, one), (-math.inf, s[0]), True)

    def tight(M) -> frozenset[int]:
        """Rows tight at M, in accessible_hrep order: the floors at t = 1..k-1,
        no bend at t = 1..k-1 (the ordering rows), then mu_k >= 0.  A pin
        holds its floor's own number, and every other point was kept
        strictly above its floor."""
        rows = [t - 1 for t in range(1, k) if M[t] == cum[t]]
        rows += [k - 2 + t for t in range(1, k) if not sign(2 * M[t] - M[t - 1] - M[t + 1])]
        if not sign(top - M[k - 1]):
            rows.append(2 * k - 2)
        return frozenset(rows)

    walk([(zero, zero)], (zero, one), whole, True)
    return [(M, tight(M)) for M in out]


def _accessible_polytope(lam: SchmidtVector, k: int) -> tuple[HalfspaceSystem, VertexSet]:
    """H-representation and vertices (with tight sets) of the rank-<=k targets."""
    if k > MAX_ACCESSIBLE_DIM:
        raise DimensionTooLarge(f"rank {k} exceeds the accessible cap {MAX_ACCESSIBLE_DIM}")
    if k == 1:
        return HalfspaceSystem(np.zeros((0, 0)), np.zeros(0)), VertexSet(np.zeros((1, 0)))
    H = _restricted_accessible_hrep(lam, k)
    head = lam.components[: k - 1]
    try:
        cum = list(itertools.accumulate(head, initial=0.0)) + [1.0]
        found = _chamber_vertices(cum, k, _float_sign)
    except _Undecided:
        from fractions import Fraction  # only this walk needs it; kept off import entvol

        exact = [Fraction(x) for x in lam.components]
        cum = list(itertools.accumulate(exact[: k - 1], initial=Fraction(0))) + [sum(exact)]
        found = _chamber_vertices(cum, k, _exact_sign)
    # sorted by tight rows, the order enumerate_vertices gives a simple
    # polytope, so that the vertex array does not depend on the walk's order
    found.sort(key=lambda vt: sorted(vt[1]))
    V = [[float(M[t + 1] - M[t]) for t in range(k - 1)] for M, _ in found]
    return H, VertexSet(np.array(V), tuple(t for _, t in found))


def _face_volume(H: HalfspaceSystem, V: VertexSet) -> tuple[float, int]:
    """Volume of conv(V) inside its affine hull, and its dimension, by
    Lasserre's recursion over faces (see the module docstring).

    Faces and row sets are bitmasks: bit i of a face is vertex i, bit r of a
    row set is row r of H, scaled as ``enumerate_vertices`` scales it (max
    |A_i| = 1), so that no row norm underflows or overflows.  ``memo`` maps a
    face to (volume, dimension, the rows tight on all of it).
    """
    A, b = scaled_rows(H)
    n_rows, n = A.shape
    slack = (V.vertices @ A.T + b).tolist()
    pts = V.vertices.tolist()
    masks = [sum(1 << r for r in ts) for ts in V.tight_sets]
    on_row = [sum(1 << i for i, mk in enumerate(masks) if mk >> r & 1) for r in range(n_rows)]
    every = (1 << V.n) - 1
    off_row = [every & ~x for x in on_row]
    implicit = [r for r in range(n_rows) if not off_row[r]]
    W = A.T.copy()  # column r: the projection of row r's normal onto the face
    if implicit:
        basis, sv, _ = np.linalg.svd(A[implicit].T, full_matrices=False)
        basis = basis[:, sv > EPS_GEOM]
        W -= basis @ (basis.T @ W)
        n -= basis.shape[1]
    if n == 0:
        return 0.0, 0
    memo: dict[int, tuple[float, int, int]] = {}

    def vol(F: int, rows_F: int, W: np.ndarray, m: int) -> float:
        apex = F.bit_length() - 1
        if m == 1:  # an edge: the distance between its two vertices
            return math.dist(pts[apex], pts[(F ^ 1 << apex).bit_length() - 1])
        norms = np.sqrt(np.einsum("ij,ij->j", W, W)).tolist()
        s_apex = slack[apex]
        facing = ~(masks[apex] | rows_F) & (1 << n_rows) - 1  # rows whose facets miss the apex
        todo = facing
        total = 0.0
        while todo:
            bit = todo & -todo
            todo ^= bit
            r = bit.bit_length() - 1
            G = F & on_row[r]
            if not G:
                continue
            hit = memo.get(G)
            if hit is None:
                rows_G = rows_F | bit
                extra = []  # rows tight on all of G beyond r (degenerate polytopes)
                # a row tight on all of G is tight at its first and last vertex
                more = masks[G.bit_length() - 1] & masks[(G & -G).bit_length() - 1] & ~rows_G
                while more:
                    low = more & -more
                    more ^= low
                    if not G & off_row[low.bit_length() - 1]:
                        rows_G |= low
                        extra.append(low.bit_length() - 1)
                W_G = None
                if m > 2 or extra:
                    u = W[:, r] / norms[r]
                    W_G = W - u[:, None] * (u @ W)
                    if extra and np.max(np.abs(W_G[:, extra])) > EPS_GEOM:
                        continue  # more than one new direction: a smaller face of F
                memo[G] = hit = (vol(G, rows_G, W_G, m - 1), m - 1, rows_G)
            elif hit[1] != m - 1 or hit[2] & facing & bit - 1:
                continue  # not a facet of F, or already counted under a lower row
            total += s_apex[r] / norms[r] * hit[0]
        return total / m

    return vol(every, sum(1 << r for r in implicit), W, n), n


def accessible_vertices(lam: SchmidtVector) -> VertexSet:
    return _accessible_polytope(lam, lam.d)[1]


def _accessible_measure(H: HalfspaceSystem, V: VertexSet, k: int) -> MeasureReport:
    """Run the face recursion on the vertices, apply the sqrt(k) Jacobian."""
    sup = sorted_region_volume(k)
    if k == 1:  # the single point (1,) is the whole sorted region
        return MeasureReport("accessible", sup, 0, sup, 1.0, 1)
    vol, dim = _face_volume(H, V)
    if dim < k - 1:  # in mu_k = 0, where dropping mu_k is an isometry
        return MeasureReport("accessible", vol, dim, sup, 0.0, k)
    vol *= math.sqrt(k)
    return MeasureReport("accessible", vol, dim, sup, vol / sup, k)


def _accessible_report(lam: SchmidtVector, k: int) -> MeasureReport:
    return _accessible_measure(*_accessible_polytope(lam, k), k)


def accessible_volume(lam: SchmidtVector) -> tuple[float, int]:
    """Intrinsic volume of the accessible set and the dimension it lives in."""
    rep = _accessible_report(lam, lam.d)
    return rep.volume, rep.dimension


def accessible_entanglement(lam: SchmidtVector) -> MeasureReport:
    """Accessible entanglement: share of the sorted region reachable from lam."""
    return _accessible_report(lam, lam.d)


def accessible_entanglement_and_vertices(lam: SchmidtVector) -> tuple[MeasureReport, VertexSet]:
    """Accessible entanglement and the vertex set it was computed from, built once."""
    H, V = _accessible_polytope(lam, lam.d)
    return _accessible_measure(H, V, lam.d), V


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
