from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from entvol import bipartite, errors
from entvol.bipartite import (
    MAX_ACCESSIBLE_DIM,
    MAX_EXACT_DIM,
    MeasureReport,
    _accessible_polytope,
    _restricted_accessible_hrep,
    accessible_entanglement,
    accessible_entanglement_k,
    accessible_hrep,
    accessible_vertices,
    accessible_volume,
    guaranteed_vertices,
    max_entangled_accessible,
    source_entanglement,
    source_entanglement_k,
    source_entanglement_sup,
    source_volume,
)
from entvol.oracle import McConfig, mc_accessible_volume, mc_source_volume
from entvol.polytope import brion_volume, enumerate_vertices, volume_triangulation
from entvol.schmidt import (
    SchmidtVector,
    canonicalize,
    embed,
    majorizes,
    maximally_entangled,
    separable,
    sorted_region_volume,
)

from _helpers import (
    permutation_sum,
    permutation_sum_exact,
    pulling_volume,
    source_polytope_adjacency,
    source_polytope_vertices,
    source_rho_exact,
)

SQ2 = math.sqrt(2)
SQ3 = math.sqrt(3)


def d3_source_poly(l2, l3):
    return 3 * l2 ** 2 - 6 * l2 * l3 - 6 * (l3 - 1) * l3


def d3_accessible(l1, l2, l3):
    if l1 > 0.5:
        return SQ3 * l2 * l3
    return SQ3 * (l2 * l3 - 0.25 * (1 - 2 * l1) ** 2)


def test_source_volume_two_qubits():
    lam = canonicalize([0.6, 0.4])
    assert source_volume(lam) == pytest.approx(SQ2 * 0.1, abs=1e-14)


def test_source_volume_boundaries():
    for d in range(2, 8):
        sep = separable(d)
        assert source_volume(sep) == pytest.approx(
            math.sqrt(d) / (math.factorial(d) * math.factorial(d - 1)), abs=1e-14)
        assert source_volume(maximally_entangled(d)) == pytest.approx(0.0, abs=1e-12)


def test_source_entanglement_examples():
    assert source_entanglement(canonicalize([0.6, 0.4])).entanglement == pytest.approx(0.8, abs=1e-13)
    assert source_entanglement(canonicalize([0.4, 0.3, 0.2, 0.1])).entanglement == pytest.approx(
        0.904, abs=1e-12)
    lam = canonicalize([0.6, 0.27, 0.13])
    assert source_entanglement(lam).entanglement == pytest.approx(
        d3_source_poly(0.27, 0.13), abs=1e-12)


def test_source_entanglement_report_fields():
    lam = canonicalize([0.5, 0.3, 0.2])
    rep = source_entanglement(lam)
    assert isinstance(rep, MeasureReport)
    assert rep.quantity == "source"
    assert rep.dimension == 2
    assert rep.v_sup == pytest.approx(sorted_region_volume(3))
    assert rep.entanglement == pytest.approx(1 - rep.volume / rep.v_sup, abs=1e-12)


def test_dimension_cap():
    lam = maximally_entangled(MAX_EXACT_DIM + 1)
    with pytest.raises(errors.DimensionTooLarge):
        source_volume(lam)


def _source_test_vectors(d, rng):
    """Dirichlet vectors, one with tied neighbours and one with trailing zeros."""
    out = [canonicalize(rng.dirichlet(np.ones(d))) for _ in range(3)]
    tied = rng.dirichlet(np.ones(d))
    tied[d // 2 - 1: d // 2 + 1] = tied[d // 2 - 1: d // 2 + 1].mean()
    out.append(canonicalize(tied))
    out.append(embed(canonicalize(rng.dirichlet(np.ones(d - d // 2))), d))
    return out


@pytest.mark.parametrize("d", range(2, 9))
def test_source_recursion_matches_exact_sum(d):
    rng = np.random.default_rng(40 + d)
    for lam in _source_test_vectors(d, rng):
        exact = 1 - permutation_sum_exact(lam.components)
        assert abs(source_entanglement(lam).entanglement - float(exact)) <= 1e-14


def test_source_recursion_matches_float_sum_d9():
    rng = np.random.default_rng(49)
    lam = canonicalize(rng.dirichlet(np.ones(9)))
    expected = 1.0 - permutation_sum(lam.as_array())
    assert abs(source_entanglement(lam).entanglement - expected) <= 1e-10


@pytest.mark.parametrize("d", [16, 32, 64])
def test_source_recursion_matches_exact_recursion(d):
    # the float recursion against the same recursion in rationals; at d = 64
    # one Dirichlet vector (about 3 s in rationals)
    rng = np.random.default_rng(70 + d)
    vectors = _source_test_vectors(d, rng)
    for lam in vectors[:1] if d == 64 else vectors:
        exact = 1 - source_rho_exact(lam.components)
        assert abs(source_entanglement(lam).entanglement - float(exact)) <= 1e-13


@pytest.mark.parametrize("d", range(12, MAX_EXACT_DIM + 1))
def test_source_boundaries_large_rank(d):
    assert abs(source_entanglement(separable(d)).entanglement) <= 1e-13
    assert source_entanglement(maximally_entangled(d)).entanglement == pytest.approx(1.0, abs=1e-13)


def test_source_volume_matches_monte_carlo_d12():
    lam = canonicalize(0.5 ** np.arange(12))
    exact = source_volume(lam)
    assert exact / sorted_region_volume(12) >= 0.05
    mc = mc_source_volume(lam, McConfig(samples=1_000_000, seed=12))
    assert abs(mc.estimate - exact) <= 3 * mc.stderr


def test_source_entanglement_k_reduces_to_plain():
    lam = canonicalize([0.5, 0.3, 0.2])
    plain = source_entanglement(lam).entanglement
    assert source_entanglement_k(lam, 3).entanglement == pytest.approx(plain, abs=1e-12)


def test_source_entanglement_k_rank3_in_dim4():
    lam = canonicalize([0.6, 0.27, 0.13])
    l2, l3 = 0.27, 0.13
    target = 27 / 13 * (2 * l2 ** 3 + 6 * l2 ** 2 * l3 + 3 * (3 - 4 * l2) * l3 ** 2 - 10 * l3 ** 3)
    assert source_entanglement_k(lam, 4).entanglement == pytest.approx(target, abs=1e-9)
    flat = maximally_entangled(3)
    assert source_entanglement_k(flat, 4).entanglement == pytest.approx(1.0, abs=1e-12)


def test_source_entanglement_k_resolution_floor():
    # the flat rank-2 state's E_s is 1.5e-6 at k = 25 and 7.5e-7 at k = 26
    lam = canonicalize([0.6, 0.4])
    exact = ((1 - source_rho_exact(embed(lam, 25).components))
             / (1 - source_rho_exact(embed(maximally_entangled(2), 25).components)))
    assert abs(source_entanglement_k(lam, 25).entanglement - float(exact)) <= 1e-6
    with pytest.raises(errors.DimensionTooLarge):
        source_entanglement_k(lam, 26)
    with pytest.raises(errors.DimensionTooLarge):
        source_entanglement_k(canonicalize([0.4, 0.3, 0.2, 0.1]), MAX_EXACT_DIM)


def test_source_sup_value():
    assert source_entanglement_sup(3, 4) == pytest.approx(26 / 27, abs=1e-12)
    with pytest.raises(errors.ShrinkNotAllowed):
        source_entanglement_k(canonicalize([0.5, 0.3, 0.2]), 2)


@pytest.mark.parametrize("d,k", [(2, 3), (3, 4), (3, 5), (4, 5)])
def test_source_sup_bounds_grid(d, k):
    # the supremum is the flat state's value: no state on a composition grid
    # of the d-simplex exceeds it
    sup = source_entanglement_sup(d, k)
    for comp in itertools.combinations_with_replacement(range(1, 11), d):
        lam = canonicalize(comp)
        assert source_entanglement(embed(lam, k)).entanglement <= sup + 1e-12


def test_accessible_hrep_shape():
    lam = canonicalize([0.6, 0.4])
    H = accessible_hrep(lam)
    assert H.m == 3 and H.k == 1
    assert accessible_hrep(canonicalize([0.5, 0.3, 0.2])).m == 5
    # the state itself saturates all majorization rows: always a vertex
    V = accessible_vertices(canonicalize([0.5, 0.3, 0.2]))
    assert any(np.allclose(v, [0.5, 0.3], atol=1e-10) for v in V.vertices)


def test_accessible_hrep_needs_rank_two():
    lam = canonicalize([1])
    with pytest.raises(errors.IndexOutOfRange):
        accessible_hrep(lam)
    assert accessible_vertices(lam).n == 1


def test_accessible_rank_cap():
    with pytest.raises(errors.DimensionTooLarge):
        accessible_entanglement(maximally_entangled(MAX_ACCESSIBLE_DIM + 1))


@pytest.mark.parametrize("d", range(2, 9))
def test_accessible_engine_matches_enumeration_and_hull(d):
    # the direct vertices and the face recursion against the subset
    # enumeration and qhull's hull volume, for every target rank k
    rng = np.random.default_rng(60 + d)
    for lam in _source_test_vectors(d, rng) + [maximally_entangled(d), separable(d)]:
        for k in range(2, d + 1):
            ref = enumerate_vertices(_restricted_accessible_hrep(lam, k))
            V = _accessible_polytope(lam, k)[1]
            expected = {frozenset(map(int, t)): v for t, v in zip(ref.tight_sets, ref.vertices)}
            assert V.n == ref.n and set(V.tight_sets) == set(expected)
            for t, v in zip(V.tight_sets, V.vertices):
                assert np.allclose(v, expected[t], rtol=0.0, atol=1e-12)
            rep = accessible_entanglement(lam) if k == d else accessible_entanglement_k(lam, k)
            hull, dim = volume_triangulation(ref)
            assert rep.dimension == dim
            e_a = hull * math.sqrt(k) / sorted_region_volume(k) if dim == k - 1 else 0.0
            assert rep.entanglement == pytest.approx(e_a, rel=1e-12, abs=0.0), (lam, k)
            # a lower-dimensional set lies in mu_k = 0 and takes no Jacobian
            volume = hull * math.sqrt(k) if dim == k - 1 else hull
            assert rep.volume == pytest.approx(volume, rel=1e-12, abs=0.0), (lam, k)


@pytest.mark.parametrize("d", range(9, MAX_ACCESSIBLE_DIM + 1))
def test_accessible_boundaries_large_rank(d):
    assert accessible_entanglement(maximally_entangled(d)).entanglement == pytest.approx(
        1.0, abs=1e-13)
    assert accessible_entanglement(separable(d)).entanglement == 0.0


def test_accessible_volume_matches_monte_carlo_d10():
    lam = canonicalize(0.8 ** np.arange(10))
    exact = accessible_volume(lam)[0]
    assert exact / sorted_region_volume(10) >= 0.5
    mc = mc_accessible_volume(lam, McConfig(samples=1_000_000, seed=10))
    assert abs(mc.estimate - exact) <= 3 * mc.stderr


#: A rank-9 vector, bit for bit, on which qhull failed and its joggled retry
#: returned a hull volume 5.8e-4 (relative) off.
QHULL_MISS_D9 = (0.29573532172617983, 0.1899103528520706, 0.15090834104080492,
                 0.10355044515778726, 0.08031046183431954, 0.06099268299950516,
                 0.059310952185752726, 0.03754584148348581, 0.021735600720094145)


def test_accessible_volume_rank9_matches_pulling_oracle():
    lam = SchmidtVector(QHULL_MISS_D9)
    vol, dim = accessible_volume(lam)
    ref = pulling_volume(enumerate_vertices(accessible_hrep(lam))) * 3.0  # sqrt(9)
    assert dim == 8
    assert vol == pytest.approx(ref, rel=1e-12, abs=0.0)


#: A rank-4 vector within about 1e-8 of the flat state, bit for bit; with
#: its walk margins decided to 1e-9 the vertices merged and E_a came out as
#: 1.0000000011.
NEAR_FLAT_D4 = (0.2500000025732097, 0.25000000158110847, 0.24999999968585318,
                0.2499999961598287)


def test_accessible_near_flat_stays_in_range():
    # near the flat state the accessible set is the sorted region less a
    # corner of size ~eps, so E_a lies within a few eps^(d-1) below 1; walk
    # margins between 1e-12 and 1e-9 are decided in exact arithmetic
    assert accessible_entanglement(SchmidtVector(NEAR_FLAT_D4)).entanglement == pytest.approx(
        1.0, abs=1e-14)
    for d in range(3, 10):
        for eps in (1e-6, 1e-7, 3e-8, 1e-8, 1e-10, 1e-12):
            v = 1.0 + eps * np.random.default_rng(d).random(d)
            e_a = accessible_entanglement(canonicalize(v / v.sum())).entanglement
            assert 1.0 - 1e-11 <= e_a <= 1.0 + 1e-14, (d, eps, e_a)


@pytest.mark.parametrize("d", range(2, 8))
def test_accessible_exact_walk_matches_float_walk(d, monkeypatch):
    # the same vertices, tight sets and E_a when every walk margin is decided
    # in exact rational arithmetic
    rng = np.random.default_rng(80 + d)
    cases = [(lam, k) for lam in _source_test_vectors(d, rng) + [maximally_entangled(d), separable(d)]
             for k in range(2, d + 1)]
    floats = [(_accessible_polytope(lam, k)[1], accessible_entanglement_k(lam, k)) for lam, k in cases]

    def undecided(x):
        raise bipartite._Undecided

    monkeypatch.setattr(bipartite, "_float_sign", undecided)
    for (lam, k), (V, rep) in zip(cases, floats):
        W = _accessible_polytope(lam, k)[1]
        assert W.tight_sets == V.tight_sets
        assert np.allclose(W.vertices, V.vertices, rtol=0.0, atol=1e-15)
        exact = accessible_entanglement_k(lam, k).entanglement
        assert exact == pytest.approx(rep.entanglement, rel=1e-13, abs=1e-15), (lam, k)


def test_accessible_volume_two_qubits():
    lam = canonicalize([0.6, 0.4])
    vol, dim = accessible_volume(lam)
    assert dim == 1 and vol == pytest.approx(SQ2 * 0.4, abs=1e-12)


def test_accessible_volume_two_qutrits_piecewise():
    hi = canonicalize([0.6, 0.27, 0.13])      # lambda_1 > 1/2
    lo = canonicalize([0.47, 0.36, 0.17])     # lambda_1 <= 1/2
    vol, dim = accessible_volume(hi)
    assert dim == 2 and vol == pytest.approx(d3_accessible(0.6, 0.27, 0.13), abs=1e-10)
    vol, dim = accessible_volume(lo)
    assert dim == 2 and vol == pytest.approx(d3_accessible(0.47, 0.36, 0.17), abs=1e-10)
    assert accessible_vertices(hi).n == 4
    assert accessible_vertices(lo).n == 5


def test_piecewise_continuous_at_half():
    l2, l3 = 0.30, 0.20
    assert d3_accessible(0.5, l2, l3) == pytest.approx(SQ3 * l2 * l3, abs=1e-15)
    lam = canonicalize([0.5, 0.3, 0.2])
    vol, _ = accessible_volume(lam)
    assert vol == pytest.approx(SQ3 * 0.06, abs=1e-10)


def test_accessible_entanglement_extremes():
    d = 4
    assert accessible_entanglement(maximally_entangled(d)).entanglement == pytest.approx(1.0, abs=1e-10)
    assert accessible_entanglement(separable(d)).entanglement == 0.0
    fig = accessible_entanglement(canonicalize([0.4, 0.3, 0.2, 0.1]))
    assert fig.entanglement == pytest.approx(87 / 125, abs=1e-9)


def test_accessible_entanglement_k_piecewise():
    hi = canonicalize([0.6, 0.27, 0.13])
    rep = accessible_entanglement_k(hi, 2)
    assert rep.volume == pytest.approx(SQ2 * (1 - 0.6), abs=1e-12)
    assert rep.entanglement == pytest.approx(2 * (1 - 0.6), abs=1e-12)
    lo = canonicalize([0.47, 0.36, 0.17])
    rep = accessible_entanglement_k(lo, 2)
    assert rep.volume == pytest.approx(SQ2 / 2, abs=1e-12)
    assert rep.entanglement == pytest.approx(1.0, abs=1e-12)


def test_accessible_entanglement_k_equals_full_at_d():
    lam = canonicalize([0.45, 0.35, 0.2])
    full = accessible_entanglement(lam)
    restricted = accessible_entanglement_k(lam, lam.d)
    assert restricted.entanglement == pytest.approx(full.entanglement, abs=1e-12)
    with pytest.raises(errors.IndexOutOfRange):
        accessible_entanglement_k(lam, 1)


def test_guaranteed_vertices_d4():
    lam = canonicalize([0.4, 0.3, 0.2, 0.1])
    vs = guaranteed_vertices(lam)
    assert len(vs) == 2
    assert vs[0].components == pytest.approx((0.4, 0.4, 0.2, 0.0))
    assert vs[1].components == pytest.approx((0.4, 0.3, 0.3, 0.0))
    for v in vs:
        assert majorizes(v, lam)
        assert sum(v.components) == pytest.approx(1.0, abs=1e-12)


def _is_vertex(v, lam):
    """Whether the sorted vector v is a vertex of lam's enumerated accessible set."""
    proj = np.asarray(v.components)[: lam.d - 1]
    return any(np.linalg.norm(proj - w) <= 1e-8 for w in accessible_vertices(lam).vertices)


def test_guaranteed_vertices_random_membership():
    rng = np.random.default_rng(21)
    for d in (3, 4, 5):
        for _ in range(5):
            lam = canonicalize(rng.dirichlet(np.ones(d)) + 0.02)
            for v in guaranteed_vertices(lam):
                assert _is_vertex(v, lam), (lam.components, v.components)


def test_guaranteed_vertices_need_no_geometry():
    lam = canonicalize(np.random.default_rng(22).dirichlet(np.ones(12)))
    vs = guaranteed_vertices(lam)
    assert len(vs) == 10
    assert all(majorizes(v, lam) for v in vs)


def test_max_entangled_accessible():
    hi = canonicalize([0.6, 0.27, 0.13])
    lo = canonicalize([0.47, 0.36, 0.17])
    assert not max_entangled_accessible(hi, 2)
    assert max_entangled_accessible(lo, 2)
    assert max_entangled_accessible(hi, 1)
    assert max_entangled_accessible(maximally_entangled(10), 2)


def test_max_entangled_accessible_matches_vertex_set():
    # the closed form lam_1 <= 1/k against the geometry: a reachable flat
    # state of rank k is a vertex of the accessible set
    rng = np.random.default_rng(23)
    for d in (3, 4, 5):
        for _ in range(5):
            lam = canonicalize(rng.dirichlet(np.ones(d)))
            for k in range(2, d + 1):
                if max_entangled_accessible(lam, k):
                    assert _is_vertex(embed(maximally_entangled(k), d), lam)
                else:
                    assert not majorizes(embed(maximally_entangled(k), d), lam)


def test_closed_form_matches_hull_volume():
    rng = np.random.default_rng(6)
    for d in (3, 4, 5):
        lam = canonicalize(rng.dirichlet(np.ones(d)) + 0.03)
        mu = brion_volume(source_polytope_vertices(lam), source_polytope_adjacency(d))
        assert source_volume(lam) == pytest.approx(mu / math.factorial(d), abs=1e-10)


def test_degenerate_formula_continuity_quick():
    lam = canonicalize([0.4, 0.2, 0.2, 0.2])
    base = source_volume(lam)
    tilde = canonicalize([0.5, 0.3, 0.15, 0.05])
    deltas = []
    for eps in (1e-3, 1e-5, 1e-7):
        mix = canonicalize((1 - eps) * lam.as_array() + eps * tilde.as_array())
        deltas.append(abs(source_volume(mix) - base))
    assert deltas[0] > deltas[1] > deltas[2]
    assert deltas[2] < 1e-6


def _sample_accessible(lam, rng):
    """Random full-rank element of the accessible set (convex mix of vertices)."""
    V = accessible_vertices(lam).vertices
    w = rng.dirichlet(np.ones(len(V)))
    proj = w @ V
    full = np.append(proj, 1.0 - proj.sum())
    return canonicalize(np.clip(full, 0.0, None))


def test_monotonicity_and_nesting():
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(40):
        d = int(rng.integers(2, 5))
        lam = canonicalize(rng.dirichlet(np.ones(d)) + 0.02)
        lam2 = _sample_accessible(lam, rng)
        if min(lam2.components) <= 1e-9:
            continue
        assert majorizes(lam2, lam)
        assert source_entanglement(lam2).entanglement <= source_entanglement(lam).entanglement + 1e-10
        assert accessible_entanglement(lam2).entanglement <= accessible_entanglement(lam).entanglement + 1e-10
        assert accessible_volume(lam2)[0] <= accessible_volume(lam)[0] + 1e-10
        assert source_volume(lam2) >= source_volume(lam) - 1e-10
        checked += 1
    assert checked >= 20


def test_two_qubit_measures_coincide():
    rng = np.random.default_rng(8)
    for _ in range(50):
        lam = canonicalize(rng.dirichlet([1.0, 1.0]))
        es = source_entanglement(lam).entanglement
        ea = accessible_entanglement(lam).entanglement
        assert abs(es - ea) < 1e-12
        assert abs(es - 2 * (1 - lam.components[0])) < 1e-12


def test_embedding_family_monotone_in_k():
    # appending zeros only grows the pool of potential sources
    lam = canonicalize([0.5, 0.3, 0.2])
    values = [source_entanglement_k(lam, k).entanglement for k in (3, 4, 5)]
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in values)
