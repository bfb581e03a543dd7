"""Shared test helpers: the d!-term source oracles (the signed sum and the
permutation hull of lam), a generic pulling-recursion volume for enumerated
polytopes, the row-wise Case-III predicate, the per-outcome routes of the
four-qubit module (square root by eigh, Kronecker chain, classification on
numpy supports, the witness loop), and the random-state and random-pair
generators of the four-qubit tests."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

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
