"""Reference values computed apart from entvol.

Nothing here imports entvol.  Each function recomputes a quantity from its
definition in the paper, by a route that shares no code with the program:

* bipartite source and accessible volumes as sorted-chamber H-polytopes:
  vertices from scipy's ``HalfspaceIntersection``, volume from the recursive
  pulling decomposition over the faces those rows cut out;
* the signed d!-term source formula evaluated exactly in integers and
  ``fractions.Fraction``;
* the two-qubit and two-qutrit closed forms;
* the four-qubit case formulas, from the parameters a state was built with;
* the Case-III region (|zeta| < 1/2 and gamma/zeta in the character
  tetrahedron) estimated by sampling, and the four-qubit state vectors,
  Gram square roots and Kronecker products that the witness checks need.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection


def chamber_region_volume(d: int) -> float:
    """Intrinsic (d-1)-volume of the sorted probability vectors of length d."""
    return math.sqrt(d) / (math.factorial(d) * math.factorial(d - 1))


# -- bipartite: sorted-chamber polytopes ---------------------------------------

def _chamber_halfspaces(partial: list[float], d: int, side: str) -> np.ndarray:
    """Rows [a | c] with a.x + c <= 0, x = (mu_1 .. mu_{d-1}), mu_d = 1 - sum x.

    The chamber is mu_1 >= ... >= mu_d >= 0.  ``side`` "source" caps the
    partial sums mu_1 + .. + mu_j by ``partial[j-1]``; "accessible" floors them.
    """
    n = d - 1
    rows = []
    for i in range(n - 1):                      # mu_{i+1} <= mu_i
        a = np.zeros(n)
        a[i], a[i + 1] = -1.0, 1.0
        rows.append(np.append(a, 0.0))
    a = -np.ones(n)                             # mu_d <= mu_{d-1}
    a[n - 1] -= 1.0
    rows.append(np.append(a, 1.0))
    rows.append(np.append(np.ones(n), -1.0))    # mu_d >= 0
    sign = 1.0 if side == "source" else -1.0
    for j in range(1, d):
        a = np.zeros(n)
        a[:j] = sign
        rows.append(np.append(a, -sign * partial[j - 1]))
    return np.array(rows)


def chamber_vertices(lam, side: str, k: int | None = None):
    """Vertices and incidence of the sorted k-vectors whose partial sums are
    capped (source) or floored (accessible) by those of ``lam``.

    k defaults to len(lam).  Returns None when the set has no interior (a
    flat ``lam`` on the source side, a product ``lam`` on the accessible
    side).
    """
    d = len(lam) if k is None else k
    partial = list(np.cumsum(np.asarray(lam, float)[:d]))
    H = _chamber_halfspaces(partial, d, side)
    A, c = H[:, :-1], H[:, -1]
    # Chebyshev centre: the deepest interior point, and its depth
    norms = np.linalg.norm(A, axis=1)
    obj = np.zeros(d)
    obj[-1] = -1.0
    lp = linprog(obj, A_ub=np.column_stack([A, norms]), b_ub=-c,
                 bounds=[(None, None)] * (d - 1) + [(0, None)], method="highs")
    if lp.status != 0:
        raise RuntimeError(f"Chebyshev LP failed: {lp.message}")
    if lp.x[-1] <= 1e-12:
        return None
    if d == 2:  # qhull needs two dimensions; the chamber is an interval
        ends = sorted(-b / a for a, b in zip(A[:, 0], c) if a != 0
                      and np.all(A[:, 0] * (-b / a) + c <= 1e-12))
        verts = np.array([[ends[0]], [ends[-1]]])
    else:
        verts = _distinct(HalfspaceIntersection(H, lp.x[:-1]).intersections)
    return verts, np.abs(verts @ A.T + c) <= 1e-11


def chamber_volume(lam, side: str, k: int | None = None) -> float:
    """Intrinsic volume of the set that ``chamber_vertices`` describes."""
    d = len(lam) if k is None else k
    found = chamber_vertices(lam, side, k)
    if found is None:
        return 0.0
    verts, incidence = found
    return _pulling_volume(verts, incidence) * math.sqrt(d)


def _distinct(pts: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """One point per cluster: a vertex where more than d-1 facets meet comes
    back once per facet subset, with rounding noise."""
    kept: list[np.ndarray] = []
    for p in pts:
        if not kept or np.min(np.max(np.abs(np.array(kept) - p), axis=1)) > tol:
            kept.append(p)
    return np.array(kept)


def _affine_basis(pts: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the directions of the affine hull of pts."""
    diffs = pts[1:] - pts[0]
    if len(diffs) == 0:
        return np.zeros((0, pts.shape[1]))
    _, s, vt = np.linalg.svd(diffs, full_matrices=False)
    return vt[: int(np.sum(s > 1e-10))]


def _pulling_volume(verts: np.ndarray, incidence: np.ndarray) -> float:
    """Volume by the recursive pulling decomposition (Lasserre's recursion).

    vol_k(F) = 1/k * sum over the facets G of F that miss the apex v0 of F of
    dist(v0, aff G) * vol_{k-1}(G).  Faces are the vertex sets cut out by the
    rows of the H-representation, so qhull is not needed; every term is
    nonnegative, so nothing cancels.
    """
    memo: dict[frozenset, float] = {}

    def vol(face: tuple[int, ...], k: int) -> float:
        key = frozenset(face)
        if key in memo:
            return memo[key]
        if k == 1:
            pts = verts[list(face)]
            out = float(np.max(np.linalg.norm(pts - pts[0], axis=1)))
        else:
            apex = face[0]
            rows = np.flatnonzero(~incidence[list(face)].all(axis=0))
            seen: set[frozenset] = set()
            out = 0.0
            for r in rows:
                sub = tuple(v for v in face if incidence[v, r])
                if apex in sub or len(sub) < k or frozenset(sub) in seen:
                    continue
                pts = verts[list(sub)]
                basis = _affine_basis(pts)
                if len(basis) != k - 1:
                    continue
                seen.add(frozenset(sub))
                off = verts[apex] - pts[0]
                height = float(np.linalg.norm(off - basis.T @ (basis @ off)))
                out += height * vol(sub, k - 1) / k
        memo[key] = out
        return out

    return vol(tuple(range(len(verts))), verts.shape[1])


# -- bipartite: the exact d!-term source formula ------------------------------

@functools.lru_cache(maxsize=None)
def _permutation_weights(d: int) -> tuple[list, list, int]:
    """Permutations of 1..d, and L / prod_k (sigma(k) - sigma(k+1)) for each,
    with L the least common multiple of those products' magnitudes."""
    perms = list(itertools.permutations(range(1, d + 1)))
    dens = [math.prod(s[k] - s[k + 1] for k in range(d - 1)) for s in perms]
    lcm = math.lcm(*(abs(x) for x in dens))
    return perms, [lcm // x for x in dens], lcm


def source_sum_exact(lam) -> Fraction:
    """The normalized vertex sum V_s / V_s(separable), exactly.

    sum over permutations sigma of {1..d} of
        (sum_k sigma(k) lam_k - (d+1)/2)^(d-1) / prod_k (sigma(k) - sigma(k+1)).
    Every float is a dyadic rational, so lam_k = n_k / D for integers n_k;
    the sum is kept in integers over one common denominator.
    """
    d = len(lam)
    fr = [Fraction(float(x)) for x in lam]
    D = math.lcm(*(f.denominator for f in fr))
    n = [f.numerator * (D // f.denominator) for f in fr]
    perms, weights, lcm = _permutation_weights(d)
    total = sum(w * (2 * sum(si * ni for si, ni in zip(s, n)) - (d + 1) * D) ** (d - 1)
                for s, w in zip(perms, weights))
    return Fraction(total, lcm * (2 * D) ** (d - 1))


def source_entanglement_exact(lam) -> Fraction:
    return 1 - source_sum_exact(lam)


# -- bipartite: closed forms ----------------------------------------------------

def two_qubit_entanglement(lam) -> float:
    """E_s = E_a = 2 (1 - lambda_1) for d = 2."""
    return 2.0 * (1.0 - lam[0])


def two_qutrit_forms(lam) -> dict:
    """Closed forms at d = 3: E_s, V_a, E_a^(k=2) and E_s^(k=4)."""
    l1, l2, l3 = lam
    s3 = math.sqrt(3.0)
    return {
        "E_s": 3 * l2 ** 2 - 6 * l2 * l3 - 6 * (l3 - 1) * l3,
        "V_a": s3 * l2 * l3 if l1 > 0.5 else s3 * (l2 * l3 - 0.25 * (1 - 2 * l1) ** 2),
        "E_a_k2": 2 * (1 - l1) if l1 > 0.5 else 1.0,
        "E_s_k4": 27 / 13 * (2 * l2 ** 3 + 6 * l2 ** 2 * l3
                             + 3 * (3 - 4 * l2) * l3 ** 2 - 10 * l3 ** 3),
    }


def majorizes(a, b) -> bool:
    """True when every partial sum of ``a`` is at least that of ``b``."""
    return bool(np.all(np.cumsum(a)[:-1] >= np.cumsum(b)[:-1] - 1e-12))


# -- four qubits ----------------------------------------------------------------

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
#: gamma component signs produced by conjugating with sigma_k on every party
KLEIN = (np.ones(3), np.array([1.0, -1, -1]), np.array([-1.0, 1, -1]), np.array([-1.0, -1, 1]))


def seed_vector(a, b, c, dd) -> np.ndarray:
    """G_abcd: (a+d)/2 on 0000,1111; (a-d)/2 on 0011,1100; (b+c)/2 on 0101,1010;
    (b-c)/2 on 0110,1001."""
    v = np.zeros(16, dtype=complex)
    for amp, kets in (((a + dd) / 2, (0b0000, 0b1111)), ((a - dd) / 2, (0b0011, 0b1100)),
                      ((b + c) / 2, (0b0101, 0b1010)), ((b - c) / 2, (0b0110, 0b1001))):
        v[list(kets)] = amp
    return v


def gram_sqrt(gamma) -> np.ndarray:
    """sqrt(1/2 + gamma.sigma), from the eigenvalues 1/2 +- |gamma| in closed form."""
    g = float(np.linalg.norm(gamma))
    hi, lo = math.sqrt(0.5 + g), math.sqrt(0.5 - g)
    if g == 0.0:
        return hi * PAULI[0]
    n_sigma = sum(gamma[k] / g * PAULI[k + 1] for k in range(3))
    return 0.5 * (hi + lo) * PAULI[0] + 0.5 * (hi - lo) * n_sigma


def kron_all(ops) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def state_vector(seed, gammas) -> np.ndarray:
    v = kron_all([gram_sqrt(g) for g in gammas]) @ seed_vector(*seed)
    return v / np.linalg.norm(v)


def disc_corner(u: float, v: float, r: float = 0.5) -> float:
    """Area of {x >= u, y >= v, x^2 + y^2 <= r^2}, by quadrature."""
    if u * u + v * v >= r * r:
        return 0.0
    val, _ = quad(lambda x: math.sqrt(max(r * r - x * x, 0.0)) - v, u,
                  math.sqrt(r * r - v * v), epsabs=1e-14, epsrel=1e-13)
    return val


def case_volumes(tag: str, p: dict) -> dict:
    """(dim, volume, sup) of the source and accessible sets per structure tag.

    ``p`` holds the parameters the state was built from: ``axis`` values
    (aligned parties), ``t`` (a transverse vector), ``gw`` (a general party's
    axis component), ``g1``, ``g2`` (two nonzero components of one party).
    """
    if tag == "seed":
        s, a = (0, 0.0, 1.0), (3, 29 * math.pi / 12, 29 * math.pi / 12)
    elif tag == "isolated":
        s, a = (0, 0.0, 1.0), (0, 0.0, 1.0)
    elif tag == "mes_aligned":
        s = (0, 0.0, 1.0)
        a = (2, math.pi * sum(0.25 - x * x for x in p["axis_all"]), math.pi)
    elif tag == "axis_only":
        g = abs(p["value"])
        s = (1, g, 0.5)
        a = (3, math.pi / 48 * (11 + 8 * g * (g * g - 3)), 11 * math.pi / 48)
    elif tag == "two_axes":
        g1, g2 = abs(p["g1"]), abs(p["g2"])
        s, a = (2, 4 * g1 * g2, 1.0), (2, (0.5 - g1) * (0.5 - g2), 0.25)
    elif tag == "axis_plus_transverse":
        t = math.hypot(*p["t"])
        s, a = (1, abs(p["value"]) + t, 1.0), (1, 0.5 - t, 0.5)
    elif tag == "general_plus_axes":
        t = math.hypot(*p["t"])
        s, a = (1, t, 0.5), (1, math.sqrt(0.25 - p["gw"] ** 2) - t, 0.5)
    elif tag == "general_one_party_2d":
        g1, g2 = abs(p["g1"]), abs(p["g2"])
        s, a = (2, g1 * g2, 0.25), (2, disc_corner(g1, g2), math.pi / 16)
    elif tag == "general_one_party":
        g = np.abs(p["gamma"])
        nz = g[g > 0]
        if len(nz) == 3:
            s = (3, 2 / 3 * float(np.prod(nz)), 1 / (36 * math.sqrt(3)))
        else:
            s = (2, float(np.prod(nz)), 0.25)
        a = (3, None, math.pi / 12)
    else:
        raise KeyError(tag)
    out = {"s_dim": s[0], "V_s": s[1], "s_sup": s[2], "a_dim": a[0], "V_a": a[1], "a_sup": a[2]}
    out["E_s"] = 1 - s[1] / s[2]
    out["E_a"] = None if a[1] is None else (0.0 if tag == "isolated" else a[1] / a[2])
    return out


def caseiii_3d(g1: float, g2: float) -> bool:
    """With one gamma component zero the region is 3-D iff the plane
    g1/z1 + g2/z2 = 1 cuts into the ball of radius 1/2."""
    return 2.0 * (g1 ** (2 / 3) + g2 ** (2 / 3)) ** 1.5 < 1.0


# -- the Case-III region ----------------------------------------------------------

_TETRA = np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
HALF_BOX = (np.array([0.0, -0.5, -0.5]), np.array([0.5, 0.5, 0.5]))


def caseiii_hits(gamma, pts: np.ndarray) -> np.ndarray:
    """Members of {|zeta| < 1/2, gamma/zeta in the character tetrahedron}."""
    ball = np.einsum("ij,ij->i", pts, pts) < 0.25
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.abs(np.asarray(gamma, float)) / pts
    tetra = np.all(r @ _TETRA.T >= -1.0, axis=1) & np.all(np.isfinite(r), axis=1)
    return ball & tetra


def caseiii_volume(gamma, gen: np.random.Generator, samples: int, chunk: int = 1 << 19):
    """(estimate, sigma) of the region volume over the half box x >= 0."""
    lo, hi = HALF_BOX
    box = float(np.prod(hi - lo))
    hits = 0
    for start in range(0, samples, chunk):
        n = min(chunk, samples - start)
        hits += int(caseiii_hits(gamma, gen.uniform(lo, hi, size=(n, 3))).sum())
    p = hits / samples
    return p * box, box * math.sqrt(max(p * (1 - p), 1.0 / samples) / samples)


def philox_stream(seed: int, samples: int, chunk: int = 1 << 19):
    """The oracle's documented sampling plan: Philox keyed (seed, chunk index),
    fixed chunk length, uniform on the box."""
    lo, hi = HALF_BOX
    for idx, start in enumerate(range(0, samples, chunk)):
        gen = np.random.Generator(np.random.Philox(key=[seed, idx]))
        yield gen.uniform(lo, hi, size=(min(chunk, samples - start), 3))


def caseiii_replay(gammas: list, seed: int, samples: int) -> list[float]:
    """The oracle's estimate for each gamma, recomputed from its sampling plan."""
    hits = [0] * len(gammas)
    for pts in philox_stream(seed, samples):
        for i, g in enumerate(gammas):
            hits[i] += int(caseiii_hits(g, pts).sum())
    return [h / samples * 0.5 for h in hits]
