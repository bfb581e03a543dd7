"""Shared test helpers: the d!-term source oracles (the signed sum and the
permutation hull of lam), the source face recursion in rationals, a generic
pulling-recursion volume for enumerated polytopes, the row-wise Case-III
predicate, the per-outcome routes of the four-qubit module (square root by
eigh, Kronecker chain, classification on numpy supports, the witness loop),
the Gour-Wallach separable-map test of four-qubit verdicts, and the
random-state and random-pair generators of the four-qubit tests."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from entvol.errors import CompletenessViolation, NotConvertible
from entvol.fourqubit import (
    KLEIN_SIGNS,
    PAULI,
    TAG_AXIS_ONLY,
    TAG_AXIS_TRANSVERSE,
    TAG_GENERAL_ONE,
    TAG_GENERAL_PLUS_AXES,
    TAG_MES,
    TAG_SEED,
    TAG_TWO_AXES,
    FourQubitForm,
    PovmWitness,
    SeedParams,
    _decide,
    _eta_to_probs,
    _probs_to_eta,
    build_seed,
    gram_matrix,
    random_seed_params,
)

Z3 = np.zeros(3)


# -- the d!-term source formula, an independent route to E_s = 1 - sum --------
#
# The source set over unsorted vectors is the permutohedron of lam; summing
# the vertex formula over its d! vertices gives V_s / V_s(separable) as
#     sum_sigma (sum_k sigma(k) lam_k - (d+1)/2)^(d-1) / prod_k (sigma(k) - sigma(k+1)).

def permutation_sum(lam) -> float:
    """The signed d!-term sum in floats, reduced with math.fsum."""
    lam = np.asarray(lam, dtype=float)
    d = len(lam)
    P = np.array(list(itertools.permutations(range(1, d + 1))), dtype=float)
    nums = (P @ lam - (d + 1) / 2.0) ** (d - 1)
    dens = np.prod(-np.diff(P, axis=1), axis=1)
    return math.fsum((nums / dens).tolist())


@functools.lru_cache(maxsize=None)
def _permutation_weights(d: int) -> tuple[list, list, int]:
    """Permutations of 1..d with weights L / prod_k (sigma(k) - sigma(k+1)), L their lcm."""
    perms = list(itertools.permutations(range(1, d + 1)))
    dens = [math.prod(s[k] - s[k + 1] for k in range(d - 1)) for s in perms]
    lcm = math.lcm(*(abs(x) for x in dens))
    return perms, [lcm // x for x in dens], lcm


def permutation_sum_exact(lam) -> Fraction:
    """The same sum in exact rationals: each float is n_k / D for integers n_k."""
    d = len(lam)
    fr = [Fraction(float(x)) for x in lam]
    D = math.lcm(*(f.denominator for f in fr))
    n = [f.numerator * (D // f.denominator) for f in fr]
    perms, weights, lcm = _permutation_weights(d)
    total = sum(w * (2 * sum(si * ni for si, ni in zip(s, n)) - (d + 1) * D) ** (d - 1)
                for s, w in zip(perms, weights))
    return Fraction(total, lcm * (2 * D) ** (d - 1))


def source_rho_exact(lam) -> Fraction:
    """rho(0, d) of the source face recursion (``entvol.source``) in exact
    rationals, on the components as given (each float is a dyadic rational),
    with no closed form for two-component blocks: the source chamber's volume
    as a fraction of the sorted region's, so that E_s = 1 - rho(0, d)."""
    lam = [Fraction(float(x)) for x in lam]
    d = len(lam)
    cum = [Fraction(0), *itertools.accumulate(lam)]
    rho = [[Fraction(1)] * (d + 1) for _ in range(d + 1)]
    for n in range(2, d + 1):
        for a in range(d - n + 1):
            b = a + n
            slope = (cum[b] - cum[a]) / n
            rho[a][b] = sum(math.comb(n - 2, m - 1) * math.comb(n, m)
                            * (cum[a + m] - cum[a] - m * slope) * rho[a][a + m] * rho[a + m][b]
                            for m in range(1, n))
    return rho[0][d]


# -- the permutation hull of lam, the source set over unsorted vectors ---------

def source_polytope_vertices(lam) -> np.ndarray:
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


# -- the pulling recursion on an enumerated polytope, an independent volume ----

def _directions(pts: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the affine hull of pts, from an SVD."""
    if len(pts) < 2:
        return np.zeros((0, pts.shape[1]))
    _, s, vt = np.linalg.svd(pts[1:] - pts[0], full_matrices=False)
    return vt[s > 1e-10]


def pulling_volume(V) -> float:
    """Volume of conv(V) inside its affine hull, 0.0 for a single point.

    ``V`` is a VertexSet with tight sets, as ``enumerate_vertices`` returns
    it.  A face is the tuple of vertices that share a set of tight rows; its
    volume is the sum, over its facets G that miss its first vertex a, of
    dist(a, aff G) vol(G) / dim, with every distance and dimension taken from
    vertex coordinates.
    """
    pts = V.vertices
    rows = sorted(set().union(*V.tight_sets))
    memo: dict[tuple, float] = {}

    def vol(face: tuple, dim: int) -> float:
        if dim == 0:
            return 1.0
        if face not in memo:
            apex, total = face[0], 0.0
            facets = {tuple(i for i in face if r in V.tight_sets[i]) for r in rows}
            for G in facets:
                if not G or apex in G:
                    continue
                basis = _directions(pts[list(G)])
                if len(basis) != dim - 1:
                    continue
                off = pts[apex] - pts[G[0]]
                total += np.linalg.norm(off - basis.T @ (basis @ off)) * vol(G, dim - 1)
            memo[face] = total / dim
        return memo[face]

    dim = len(_directions(pts))
    return vol(tuple(range(V.n)), dim) if dim else 0.0


# -- the Case-III predicate as first vectorized, an oracle for the column one --

def caseiii_predicate_reference(gam: np.ndarray):
    """Members of {|zeta| < 1/2, gam/zeta in the character tetrahedron}: the
    ball test on the rows of pts, then gam / pts on the in-ball rows and the
    four facets row by row, a non-finite quotient counting as +inf.  Its facet
    sums run outside ``errstate``, so inf - inf warns."""
    def predicate(pts: np.ndarray) -> np.ndarray:
        x, y, z = pts.T
        inside = x * x + y * y + z * z < 0.25
        idx = np.flatnonzero(inside)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = gam / pts.take(idx, axis=0)
            r = np.where(np.isfinite(r), r, np.inf)
        inside[idx] = (
            (1 + r[:, 0] + r[:, 1] + r[:, 2] >= 0)
            & (1 + r[:, 0] - r[:, 1] - r[:, 2] >= 0)
            & (1 - r[:, 0] + r[:, 1] - r[:, 2] >= 0)
            & (1 - r[:, 0] - r[:, 1] + r[:, 2] >= 0)
        )
        return inside
    return predicate


# -- the four-qubit module's per-outcome routes, oracles for the batched ones --

def sqrt_g_eigh(gamma) -> np.ndarray:
    """The positive square root of G from its eigendecomposition."""
    w, U = np.linalg.eigh(gram_matrix(np.asarray(gamma, dtype=float)))
    return (U * np.sqrt(np.clip(w, 0.0, None))) @ U.conj().T


def kron_chain(a, b, c, d) -> np.ndarray:
    return np.kron(np.kron(a, b), np.kron(c, d))


def classify_at_reference(g: np.ndarray):
    """The classification rule of ``fourqubit._classify_at`` on numpy
    supports: ``.any()``, ``np.delete`` and ``np.count_nonzero``."""
    active = [j for j in range(4) if g[j].any()]
    if not active:
        return TAG_SEED, None, {}
    if len(active) == 1:
        i = active[0]
        comps = np.flatnonzero(g[i])
        if len(comps) > 1:
            return TAG_GENERAL_ONE, None, {"party": i}
        ax = int(comps[0])
        return TAG_AXIS_ONLY, ax, {"party": i, "value": abs(g[i][ax])}
    for w in range(3):
        off = [j for j in active if np.delete(g[j], w).any()]
        if not off:
            return TAG_MES, w, {"axis_values": tuple(g[j][w] for j in range(4))}
        if len(off) > 1:
            continue
        i = off[0]
        if np.count_nonzero(g[:, w]) >= 2:
            return TAG_GENERAL_PLUS_AXES, w, {"general_party": i}
        j = next(j for j in active if j != i)
        trans = [u for u in range(3) if u != w and g[i][u] != 0]
        if len(trans) == 2:
            return TAG_AXIS_TRANSVERSE, w, {"axis_party": j, "transverse_party": i}
        return TAG_TWO_AXES, w, {"parties": ((i, trans[0]), (j, w))}
    return None


def standard_signs_reference(g: np.ndarray) -> np.ndarray:
    """The Klein sign of the standard form, one ``np.round`` per variant."""
    return max(KLEIN_SIGNS, key=lambda s: tuple(np.round(g * s, 14).ravel()))


def _twirl_loop(party, gamma_new, probs):
    h = sqrt_g_eigh(gamma_new)
    ginv = np.linalg.inv(sqrt_g_eigh(_probs_to_eta(probs) * gamma_new))
    outcomes = []
    for k in range(4):
        if probs[k] <= 1e-14:
            continue
        ops = [PAULI[k].copy() for _ in range(4)]
        ops[party] = math.sqrt(probs[k]) * (h @ PAULI[k] @ ginv)
        outcomes.append((tuple(ops), k))
    return outcomes


def _state_vector_loop(seed: SeedParams, gammas) -> np.ndarray:
    v = kron_chain(*(sqrt_g_eigh(g) for g in gammas)) @ build_seed(seed)
    return v / np.linalg.norm(v)


def povm_witness_loop(initial: FourQubitForm, final: FourQubitForm) -> PovmWitness:
    """``fourqubit.povm_witness`` one outcome at a time: eigh square roots,
    ``np.linalg.inv``, Kronecker chains and a loop over the 16x16 operators."""
    verdict, basis = _decide(initial, final)
    if not verdict:
        raise NotConvertible(verdict.detail or "states are not LOCC related")
    gi, zf, steps = basis
    outcomes = _twirl_loop(*steps[0]) if steps else [(tuple(PAULI[0].copy() for _ in range(4)), 0)]
    for step in steps[1:]:
        outcomes = [(tuple(b[q] @ a[q] for q in range(4)), ka ^ kb)
                    for a, ka in outcomes for b, kb in _twirl_loop(*step)]
    mats = [kron_chain(*ops) for ops, _ in outcomes]
    total = sum(m.conj().T @ m for m in mats)
    comp_res = float(np.max(np.abs(total - np.eye(16))))
    if comp_res > 1e-12:
        raise CompletenessViolation(f"sum M^dag M deviates from identity by {comp_res}")
    psi = _state_vector_loop(initial.seed, gi)
    phi = _state_vector_loop(initial.seed, zf)
    probs = []
    mismatch = 0.0
    for m in mats:
        out = m @ psi
        norm = np.linalg.norm(out)
        probs.append(float(norm ** 2))
        mismatch = max(mismatch, 1.0 - abs(np.vdot(phi, out)) / norm)
    pattern_probs = np.zeros(4)
    for (_, c), p in zip(outcomes, probs):
        pattern_probs[c] += p
    eta_res = float(np.max(np.abs(_probs_to_eta(pattern_probs) * zf - gi)))
    return PovmWitness(
        outcomes=tuple(ops for ops, _ in outcomes),
        probabilities=tuple(probs),
        pauli_patterns=tuple(c for _, c in outcomes),
        row=verdict.row,
        completeness_residual=comp_res,
        eta_residual=eta_res,
        outcome_mismatch=float(mismatch),
    )


# -- the Gour-Wallach separable-map test, an oracle for every verdict ----------
#
# g Psi converts to h Psi by a separable map exactly when some p_k >= 0 give
# sum_k p_k S_k^dag H S_k = G over the stabilizer {S_k} = {sigma_k^(x4)} of a
# generic seed, with G = (x)_i g_i^dag g_i and H likewise (every trace is 1,
# so the scale is 1).  In Pauli strings a in {0, x, y, z}^4 that reads
# G_a = eta_[a] H_a, eta_[a] being the character of the Klein product [a] of
# the letters.  LOCC lies inside SEP, so every yes must pass it; it reads
# neither ``classify`` nor a conversion row.

_SEP_STRINGS = np.array(list(itertools.product(range(4), repeat=4)))[1:]
_SEP_CLASS = np.bitwise_xor.reduce(_SEP_STRINGS, axis=1)
#: _SEP_CHI[l, k]: the sign of sigma_l under conjugation by sigma_k.
_SEP_CHI = np.array([[1.0 if 0 in (k, l) or k == l else -1.0 for k in range(4)] for l in range(4)])


def _pauli_strings(gammas) -> np.ndarray:
    """The 255 non-identity Pauli-string coefficients of (x)_i (1/2 + gamma_i . sigma),
    each divided by 1/2 per identity letter, so that they read on the gamma
    scale: the product of the string's gamma components."""
    c = np.hstack([np.ones((4, 1)), np.asarray(gammas, dtype=float)])
    return np.prod(c[np.arange(4), _SEP_STRINGS], axis=1)


def sep_residual(gi, zf) -> float:
    """min over probability vectors p of the four Klein signs sigma_k^(x4) of
    max_a |G_a - eta_[a](p) H_a|, on the gamma scale: 0 exactly when a
    separable map carries zf to gi.  A Klein sign of the target only
    relabels p, so the target's sign gauge needs no pass of its own.  HiGHS
    runs at tolerances of 1e-10; at its default of about 1e-7 it would
    report 0 for residuals that decide the band."""
    G, H = _pauli_strings(gi), _pauli_strings(zf)
    A = H[:, None] * _SEP_CHI[_SEP_CLASS]      # eta_[a](p) H_a, linear in p
    t = -np.ones((len(A), 1))
    res = linprog(
        c=[0.0, 0.0, 0.0, 0.0, 1.0],
        A_ub=np.vstack([np.hstack([-A, t]), np.hstack([A, t])]),
        b_ub=np.concatenate([-G, G]),
        A_eq=[[1.0, 1.0, 1.0, 1.0, 0.0]], b_eq=[1.0],
        bounds=[(0.0, None)] * 5,
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.fun)


def fixed_seed_params() -> SeedParams:
    return random_seed_params(np.random.default_rng(2024))


def form(seed_params: SeedParams, rows) -> FourQubitForm:
    return FourQubitForm(seed_params, np.array(rows, dtype=float))


def random_eta(rng: np.random.Generator, min_abs: float = 0.05) -> np.ndarray:
    """A character vector from a random probability distribution, bounded away
    from the coordinate planes so that gamma = eta . zeta stays generic."""
    while True:
        eta = _probs_to_eta(rng.dirichlet(np.ones(4)))
        if np.min(np.abs(eta)) >= min_abs:
            return eta


def random_ia_pair(rng, seed_params):
    """Initial/final pair convertible through transverse scaling (same axes)."""
    g_w = rng.uniform(0.0, 0.3)
    a2 = rng.uniform(0.05, 0.4)
    a3 = rng.uniform(0.0, 0.4)
    t_max = 0.95 * np.sqrt(0.45 ** 2 - g_w ** 2)
    t_f = rng.uniform(0.05, t_max)
    s = rng.uniform(0.05, 0.95)
    ang = rng.uniform(0, 2 * np.pi)
    direction = np.array([np.cos(ang), np.sin(ang)])
    gen_i = [g_w, *(s * t_f * direction)]
    gen_f = [g_w, *(t_f * direction)]
    rows_i = [gen_i, [a2, 0, 0], [a3, 0, 0], Z3]
    rows_f = [gen_f, [a2, 0, 0], [a3, 0, 0], Z3]
    return form(seed_params, rows_i), form(seed_params, rows_f)


def random_ii_pair(rng, seed_params):
    gA = rng.uniform(0.02, 0.4)
    gB = rng.uniform(0.02, 0.4)
    zA = rng.uniform(gA, 0.45)
    zB = rng.uniform(gB, 0.45)
    rows_i = [[0, gA, 0], [gB, 0, 0], Z3, Z3]
    rows_f = [[0, zA, 0], [zB, 0, 0], Z3, Z3]
    return form(seed_params, rows_i), form(seed_params, rows_f)


def random_iiia_pair(rng, seed_params):
    while True:
        zet = np.array([rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.3),
                        rng.choice([-1, 1]) * rng.uniform(0.05, 0.3)])
        if np.linalg.norm(zet) <= 0.45:
            break
    eta = random_eta(rng)
    gam = eta * zet
    rows_i = [gam, Z3, Z3, Z3]
    rows_f = [zet, Z3, Z3, Z3]
    return form(seed_params, rows_i), form(seed_params, rows_f)


def random_iiib_pair(rng, seed_params):
    while True:
        g = np.array([0.0, rng.uniform(0.02, 0.35), rng.uniform(0.02, 0.35)])
        z = np.array([0.0, rng.uniform(g[1], 0.4), rng.uniform(g[2], 0.4)])
        if np.linalg.norm(z) <= 0.45:
            break
    return form(seed_params, [g, Z3, Z3, Z3]), form(seed_params, [z, Z3, Z3, Z3])


def random_iiic_pair(rng, seed_params):
    g = rng.uniform(0.02, 0.4)
    z = rng.uniform(g, 0.45)
    rows_i = [[0, 0, g], Z3, Z3, Z3]
    rows_f = [[0, 0, z], Z3, Z3, Z3]
    return form(seed_params, rows_i), form(seed_params, rows_f)


def random_axis_to_general_pair(rng, seed_params):
    """Fourth-row family: a single axis party opening into a general operator."""
    g = rng.uniform(0.02, 0.3)
    while True:
        zet = np.array([rng.uniform(g + 0.02, 0.42),
                        rng.choice([-1, 1]) * rng.uniform(0.03, 0.25),
                        rng.choice([-1, 1]) * rng.uniform(0.03, 0.25)])
        if np.linalg.norm(zet) <= 0.45:
            break
    return (form(seed_params, [[g, 0, 0], Z3, Z3, Z3]),
            form(seed_params, [zet, Z3, Z3, Z3]))


def random_seed_to_general_pair(rng, seed_params):
    while True:
        zet = rng.uniform(-0.3, 0.3, size=3)
        if 0.05 <= np.linalg.norm(zet) <= 0.45 and np.min(np.abs(zet)) > 0.02:
            break
    return (form(seed_params, [Z3, Z3, Z3, Z3]),
            form(seed_params, [zet, Z3, Z3, Z3]))


PAIR_GENERATORS = {
    "transverse_scaling": random_ia_pair,
    "axis_rectangle": random_ii_pair,
    "single_party_general": random_iiia_pair,
    "single_party_plane": random_iiib_pair,
    "single_party_axis": random_iiic_pair,
    "axis_to_general": random_axis_to_general_pair,
    "seed_to_general": random_seed_to_general_pair,
}


def random_family_gammas(rng) -> np.ndarray:
    """Gammas of a random structure of the convertible family: one party with
    one to three components, two axis parties, an axis and a transverse
    party, a general party beside axis parties, or every active party on one
    axis; or, one time in six, a random support."""
    g = np.zeros((4, 3))
    parties = rng.permutation(4)
    w = int(rng.integers(3))
    off = [u for u in range(3) if u != w]

    def val():
        return rng.choice([-1, 1]) * rng.uniform(0.05, 0.3)

    kind = rng.integers(6)
    if kind == 0:
        comps = rng.permutation(3)[:rng.integers(1, 4)]
        g[parties[0], comps] = [val() for _ in comps]
    elif kind == 1:
        g[parties[0], w], g[parties[1], rng.choice(off)] = val(), val()
    elif kind == 2:
        g[parties[0], w], g[parties[1], off] = val(), [val(), val()]
    elif kind == 3:
        g[parties[0]] = [val(), val(), val()]
        g[parties[1:1 + rng.integers(1, 4)], w] = val()
    elif kind == 4:
        g[parties[:rng.integers(2, 5)], w] = val()
    else:
        g = np.where(rng.random((4, 3)) < 0.3, rng.uniform(-0.25, 0.25, (4, 3)), 0.0)
    return g


def random_targeted_pair(rng, seed_params):
    """A pair aimed at the rows' boundaries: the target from
    :func:`random_family_gammas`, the initial eta (.) the target, with eta the
    character of Pauli-pattern probabilities inside the tetrahedron, on a
    face, an edge or a vertex, or just outside a face.  On a quarter each of
    the pairs eta then reaches one party only, one party is switched off, or
    one component flips its sign.  Rows are scaled to norm at most 0.4."""
    zf = random_family_gammas(rng)
    p = rng.dirichlet(np.ones(4))
    where = rng.integers(5)
    if where == 1:
        p[rng.integers(4)] = 0.0
    elif where == 2:
        p[rng.permutation(4)[:2]] = 0.0
    elif where == 3:
        p = np.eye(4)[rng.integers(4)]
    elif where == 4:
        p[rng.integers(4)] = -rng.uniform(1e-3, 0.1)
    eta = _probs_to_eta(p / p.sum())
    gi = eta * zf
    twist = rng.integers(4)
    if twist == 1:
        q = rng.integers(4)
        gi = zf.copy()
        gi[q] = eta * zf[q]
    elif twist == 2:
        gi[rng.integers(4)] = 0.0
    elif twist == 3:
        gi[rng.integers(4), rng.integers(3)] *= -1.0

    def capped(g):
        return g * (0.4 / np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 0.4))

    return form(seed_params, capped(gi)), form(seed_params, capped(zf))
