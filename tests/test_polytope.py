from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from entvol import errors
from entvol.bipartite import _face_volume, accessible_hrep
from entvol.polytope import (
    HalfspaceSystem,
    VertexSet,
    affine_dimension,
    brion_volume,
    enumerate_vertices,
    is_simple,
    vertex_adjacency,
    volume_triangulation,
)
from entvol.schmidt import SchmidtVector, canonicalize

from _helpers import pulling_volume, source_polytope_adjacency, source_polytope_vertices


UNIT_SQUARE = HalfspaceSystem(
    np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
    np.array([0.0, 0.0, 1.0, 1.0]),
)


def test_unit_square_vertices():
    V = enumerate_vertices(UNIT_SQUARE)
    assert V.n == 4
    expected = {(0, 0), (0, 1), (1, 0), (1, 1)}
    got = {tuple(np.round(v, 9)) for v in V.vertices}
    assert got == expected


def test_unit_square_adjacency_and_simplicity():
    V = enumerate_vertices(UNIT_SQUARE)
    adj = vertex_adjacency(UNIT_SQUARE, V)
    assert all(len(nbrs) == 2 for nbrs in adj)
    assert is_simple(V, adj)


def test_unit_square_volumes():
    V = enumerate_vertices(UNIT_SQUARE)
    adj = vertex_adjacency(UNIT_SQUARE, V)
    vol, dim = volume_triangulation(V)
    assert dim == 2 and vol == pytest.approx(1.0, abs=1e-12)
    assert brion_volume(V, adj, xi=np.array([1.0, 2.0])) == pytest.approx(1.0, abs=1e-12)


def test_standard_simplex_volume_and_graph():
    # x, y >= 0, x + y <= 1
    H = HalfspaceSystem(np.array([[1.0, 0], [0, 1.0], [-1.0, -1.0]]),
                        np.array([0.0, 0.0, 1.0]))
    V = enumerate_vertices(H)
    adj = vertex_adjacency(H, V)
    assert V.n == 3
    assert all(len(nbrs) == V.n - 1 for nbrs in adj)  # complete graph
    vol, dim = volume_triangulation(V)
    assert dim == 2 and vol == pytest.approx(0.5, abs=1e-12)


def test_simplex_complete_graph_3d():
    H = HalfspaceSystem(
        np.vstack([np.eye(3), -np.ones((1, 3))]),
        np.array([0.0, 0.0, 0.0, 1.0]),
    )
    V = enumerate_vertices(H)
    adj = vertex_adjacency(H, V)
    assert V.n == 4
    assert all(len(n) == 3 for n in adj)
    assert is_simple(V, adj)


def test_square_pyramid_not_simple():
    # apex (0,0,1) sits in four facets
    A = np.array([
        [0.0, 0.0, 1.0],     # z >= 0
        [-1.0, 0.0, -1.0],   # x + z <= 1
        [1.0, 0.0, -1.0],    # -x + z <= 1
        [0.0, -1.0, -1.0],   # y + z <= 1
        [0.0, 1.0, -1.0],    # -y + z <= 1
    ])
    b = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
    H = HalfspaceSystem(A, b)
    V = enumerate_vertices(H)
    adj = vertex_adjacency(H, V)
    assert V.n == 5
    assert not is_simple(V, adj)
    with pytest.raises(errors.NotSimple):
        brion_volume(V, adj)


def test_unbounded_detected():
    H = HalfspaceSystem(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(errors.Unbounded):
        enumerate_vertices(H)


def test_infeasible_detected():
    H = HalfspaceSystem(np.array([[1.0], [-1.0]]), np.array([-2.0, 1.0]))  # x>=2, x<=1
    with pytest.raises(errors.Infeasible):
        enumerate_vertices(H)


#: Feasible unbounded systems (A, b, a feasible point, a ray r with A r >= 0)
#: on which a 2k-LP precheck through HiGHS reported "infeasible".
LP_MISREPORTS = [
    ([[-2, 0, -2], [1, -2, -1], [0, -2, -1], [-1, -1, 0], [-2, 2, 1]], [1, 1, 1, 0, 2],
     [0.5, -0.5, 0.0], [-1, -1, 1]),
    ([[-2, 1, 0], [-1, 0, -2], [1, -1, 1], [-1, -1, 0]], [2, 0, 2, 2],
     [2 / 3, 1 / 3, -5 / 6], [-2, -4, 1]),
    ([[1, 1, -2], [2, -2, -1], [2, -2, 1], [-1, 2, -2], [0, 2, -1], [1, 0, -1]],
     [2, 1, 0, 2, 1, 0], [2 / 3, 0.0, -1 / 3], [1, 1, 0]),
    ([[0, 0, -2, -1], [1, -1, -1, 1], [-2, 0, 2, -2], [0, 2, 0, 0], [-2, -2, 0, -1]],
     [1, 1, 0, 0, 0], [-0.5, 0.25, -0.25, 0.0], [-3, 0, -1, 2]),
]


@pytest.mark.parametrize("A,b,point,ray", LP_MISREPORTS, ids=range(len(LP_MISREPORTS)))
def test_unbounded_where_an_lp_said_infeasible(A, b, point, ray):
    H = HalfspaceSystem(np.array(A, float), np.array(b, float))
    assert H.contains(point)
    assert np.all(H.A @ np.array(ray, float) >= 0)
    with pytest.raises(errors.Unbounded):
        enumerate_vertices(H)


def test_huge_rows_keep_their_square():
    # the unit square with its x rows scaled by 1e308
    H = HalfspaceSystem(np.array([[1e308, 0.0], [0.0, 1.0], [-1e308, 0.0], [0.0, -1.0]]),
                        np.array([0.0, 0.0, 1e308, 1.0]))
    V = enumerate_vertices(H)
    assert {tuple(np.round(v, 9)) for v in V.vertices} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    vol, dim = volume_triangulation(V)
    assert dim == 2 and vol == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_tiny_and_huge_rows_keep_their_square(scale):
    # absolute tolerances on unscaled rows called the 1e-300 square unbounded
    H = HalfspaceSystem(np.array([[scale, 0.0], [0.0, 1.0], [-scale, 0.0], [0.0, -1.0]]),
                        np.array([0.0, 0.0, scale, 1.0]))
    V = enumerate_vertices(H)
    assert {tuple(np.round(v, 9)) for v in V.vertices} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    # the face recursion takes the same scaled rows: no row norm under- or overflows
    vol, dim = _face_volume(H, V)
    assert dim == 2 and vol == pytest.approx(1.0, abs=1e-12)


def test_offset_overflowing_its_scaled_row_is_refused():
    H = HalfspaceSystem(np.array([[1e-300], [-1.0]]), np.array([1e10, 1.0]))
    with pytest.raises(errors.InconsistentInput, match="overflows"):
        enumerate_vertices(H)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_tight_sets_feed_lasserre_on_the_unit_box(k):
    H = HalfspaceSystem(np.vstack([np.eye(k), -np.eye(k)]), np.r_[np.zeros(k), np.ones(k)])
    V = enumerate_vertices(H)
    assert all(type(r) is int for ts in V.tight_sets for r in ts)
    vol, dim = _face_volume(H, V)
    assert dim == k and vol == pytest.approx(1.0, abs=1e-12)


def test_rank_deficient_rows_decide_line_or_empty():
    # A of rank 1 in R^2: the strip 0 <= x <= 1 holds a line, x >= 1 and x <= 0 is empty
    A = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(errors.Unbounded):
        enumerate_vertices(HalfspaceSystem(A, np.array([0.0, 1.0])))
    with pytest.raises(errors.Infeasible):
        enumerate_vertices(HalfspaceSystem(A, np.array([-1.0, 0.0])))


def test_degenerate_point_volume():
    V = VertexSet(np.array([[0.3, 0.7]]))
    vol, dim = volume_triangulation(V)
    assert (vol, dim) == (0.0, 0)


def test_segment_volume_projected_and_intrinsic():
    # permutation hull of (0.6, 0.4): segment between (0.6,0.4) and (0.4,0.6)
    pts = np.array([[0.6, 0.4], [0.4, 0.6]])
    vol, dim = volume_triangulation(VertexSet(pts))
    assert dim == 1
    assert vol == pytest.approx(0.2 * math.sqrt(2), abs=1e-12)  # intrinsic length
    proj, dimp = volume_triangulation(VertexSet(pts[:, :1]))
    assert dimp == 1 and proj == pytest.approx(0.2, abs=1e-12)


def test_accessible_vertex_counts_from_examples():
    for lam, n in [((0.30, 0.27, 0.24, 0.19), 10), ((0.4, 0.3, 0.2, 0.1), 8)]:
        V = enumerate_vertices(accessible_hrep(canonicalize(lam)))
        assert V.n == n


def test_source_polytope_structure_small_d():
    rng = np.random.default_rng(3)
    for d in (3, 4, 5, 6):
        lam = canonicalize(rng.dirichlet(np.ones(d)) + 0.01)
        verts = source_polytope_vertices(lam)
        assert len(verts) == math.factorial(d)
        adj = source_polytope_adjacency(d)
        assert all(len(nbrs) == d - 1 for nbrs in adj)
        assert affine_dimension(verts) == d - 1
        # swap-neighbor rule: each neighbor differs by swapping two entries
        # that are adjacent in the sorted order of the components
        sorted_comps = sorted(lam.components, reverse=True)
        for i, nbrs in enumerate(adj[:24]):
            for j in nbrs:
                diff = np.flatnonzero(np.abs(verts[i] - verts[j]) > 1e-12)
                assert len(diff) == 2
                assert np.allclose(verts[j][diff], verts[i][diff][::-1])
                ranks = sorted(sorted_comps.index(verts[i][p]) for p in diff)
                assert ranks[1] - ranks[0] == 1


def test_brion_matches_triangulation_on_source_polytopes():
    rng = np.random.default_rng(9)
    for d in (3, 4, 5):
        for _ in range(5):
            lam = canonicalize(rng.dirichlet(np.ones(d)) + 0.02)
            verts = source_polytope_vertices(lam)
            adj = source_polytope_adjacency(d)
            bv = brion_volume(verts, adj)
            tv, dim = volume_triangulation(VertexSet(verts))
            assert dim == d - 1
            assert bv == pytest.approx(tv, abs=1e-9)


#: Schmidt vectors at ranks 6-8, bit for bit, with nearly degenerate
#: accessible polytopes: a volume summed over simplices fanned from the vertex
#: centroid across qhull's facets moves by up to 1.2e-3 relative on them when
#: the vertex order changes.
FAN_SENSITIVE = (
    (0.33004894739235696, 0.30174162548416417, 0.23270697412514393, 0.08783427038670483,
     0.024071270302984112, 0.02359691230864617),
    (0.2701698982763416, 0.24576524878497105, 0.17102141136390436, 0.149794463792334,
     0.06856945045703564, 0.055801218346592005, 0.03887830897882139),
    (0.3309479676441337, 0.28228119787477945, 0.13223616063931304, 0.08191312008317689,
     0.06926566226108737, 0.05352495549049311, 0.03753052865078434, 0.01230040735623214),
)


@pytest.mark.parametrize("lam", FAN_SENSITIVE, ids=lambda lam: f"d{len(lam)}")
def test_volume_independent_of_vertex_order(lam):
    # the polytope engine's own vertices, in enumerate_vertices' order, then
    # reversed and shuffled; unsorted, qhull raises on the d8 set in some
    # orders and its joggled retry is then off by 3.9e-5 relative
    V = enumerate_vertices(accessible_hrep(SchmidtVector(lam)))
    ref = pulling_volume(V)
    rng = np.random.default_rng(len(lam))
    orders = [np.arange(V.n), np.arange(V.n)[::-1]] + [rng.permutation(V.n) for _ in range(20)]
    results = {volume_triangulation(V.vertices[order]) for order in orders}
    assert len(results) == 1
    (vol, dim), = results
    assert dim == len(lam) - 1
    assert vol == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_brion_independent_of_xi():
    lam = canonicalize([0.45, 0.30, 0.15, 0.10])
    verts = source_polytope_vertices(lam)
    adj = source_polytope_adjacency(4)
    values = [brion_volume(verts, adj, seed=s) for s in range(10)]
    assert max(values) - min(values) < 1e-9


def test_brion_invariance_translation_and_permutation():
    lam = canonicalize([0.5, 0.3, 0.2])
    verts = source_polytope_vertices(lam)
    adj = source_polytope_adjacency(3)
    base = brion_volume(verts, adj)
    shifted = brion_volume(verts + np.array([0.7, -1.3, 0.2]), adj)
    permuted = brion_volume(verts[:, [2, 0, 1]], adj)
    assert shifted == pytest.approx(base, abs=1e-9)
    assert permuted == pytest.approx(base, abs=1e-9)


def test_xi_degenerate_for_explicit_orthogonal_direction():
    V = enumerate_vertices(UNIT_SQUARE)
    adj = vertex_adjacency(UNIT_SQUARE, V)
    with pytest.raises(errors.XiDegenerate):
        brion_volume(V, adj, xi=np.array([0.0, 1.0]))  # orthogonal to x-edges


def test_hrep_json_roundtrip():
    H2 = HalfspaceSystem.from_json(UNIT_SQUARE.to_json())
    assert np.allclose(H2.A, UNIT_SQUARE.A) and np.allclose(H2.b, UNIT_SQUARE.b)
    V = enumerate_vertices(H2)
    V2 = VertexSet.from_json(V.to_json())
    assert np.allclose(V2.vertices, V.vertices)
