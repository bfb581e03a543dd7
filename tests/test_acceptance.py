"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
status lines.  Every tolerance is pinned here and nowhere else.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np
import pytest

from entvol.bipartite import (
    accessible_entanglement,
    accessible_entanglement_k,
    accessible_vertices,
    accessible_volume,
    source_entanglement,
    source_entanglement_k,
    source_volume,
)
from entvol.fourqubit import (
    PAULI,
    TAG_GENERAL_ONE,
    SeedParams,
    _caseiii_predicate,
    build_seed,
    can_convert,
    caseiii_accessible_mc,
    classify,
    entanglement_4q,
    kron4,
    povm_witness,
    random_seed_params,
)
from entvol.oracle import McConfig, mc_accessible_volume, mc_source_volume
from entvol.polytope import VertexSet, brion_volume, volume_triangulation
from entvol.schmidt import canonicalize, maximally_entangled, separable

from _helpers import (
    PAIR_GENERATORS,
    fixed_seed_params,
    source_polytope_adjacency,
    source_polytope_vertices,
)

SEED_PARAMS = fixed_seed_params()
SQ3 = math.sqrt(3)


def _report(name: str, ok: bool, detail: str = "") -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def test_criterion_01_rank4_reference_values():
    t0 = perf_counter()
    lam = canonicalize([0.4, 0.3, 0.2, 0.1])
    e_s = source_entanglement(lam).entanglement
    e_a = accessible_entanglement(lam).entanglement
    dt = perf_counter() - t0
    ok = abs(e_s - 0.904) <= 5e-4 and abs(e_a - 87 / 125) <= 1e-9 and dt < 1.0
    assert _report("criterion 1: rank-4 reference values", ok,
                   f"E_s={e_s:.6f}, E_a={e_a:.9f}, {dt * 1000:.0f} ms")


def test_criterion_02_vertex_counts():
    t0 = perf_counter()
    n1 = accessible_vertices(canonicalize([0.30, 0.27, 0.24, 0.19])).n
    n2 = accessible_vertices(canonicalize([0.4, 0.3, 0.2, 0.1])).n
    dt = perf_counter() - t0
    ok = n1 == 10 and n2 == 8 and dt < 1.0
    assert _report("criterion 2: accessible vertex counts", ok,
                   f"counts {n1}/{n2}, {dt * 1000:.0f} ms")


def test_criterion_03_two_qubit_identity():
    rng = np.random.default_rng(100)
    worst_f = worst_d = 0.0
    for _ in range(1000):
        lam = canonicalize(rng.dirichlet([1.0, 1.0]))
        e_s = source_entanglement(lam).entanglement
        e_a = accessible_entanglement(lam).entanglement
        worst_f = max(worst_f, abs(e_s - 2 * (1 - lam.components[0])))
        worst_d = max(worst_d, abs(e_a - e_s))
    ok = worst_f < 1e-12 and worst_d < 1e-12
    assert _report("criterion 3: two-qubit closed form and E_s = E_a", ok,
                   f"max|E_s-2(1-l1)|={worst_f:.2e}, max|E_a-E_s|={worst_d:.2e}")


def test_criterion_04_two_qutrit_closed_forms():
    rng = np.random.default_rng(200)
    worst = {"es": 0.0, "va": 0.0, "ea2": 0.0, "es4": 0.0}
    for _ in range(200):
        lam = canonicalize(rng.dirichlet(np.ones(3)))
        l1, l2, l3 = lam.components
        e_s = source_entanglement(lam).entanglement
        worst["es"] = max(worst["es"], abs(e_s - (3 * l2 ** 2 - 6 * l2 * l3 - 6 * (l3 - 1) * l3)))
        v_a, _ = accessible_volume(lam)
        target = SQ3 * l2 * l3 if l1 > 0.5 else SQ3 * (l2 * l3 - 0.25 * (1 - 2 * l1) ** 2)
        worst["va"] = max(worst["va"], abs(v_a - target))
        ea2 = accessible_entanglement_k(lam, 2).entanglement
        target2 = 2 * (1 - l1) if l1 > 0.5 else 1.0
        worst["ea2"] = max(worst["ea2"], abs(ea2 - target2))
        es4 = source_entanglement_k(lam, 4).entanglement
        target4 = 27 / 13 * (2 * l2 ** 3 + 6 * l2 ** 2 * l3
                             + 3 * (3 - 4 * l2) * l3 ** 2 - 10 * l3 ** 3)
        worst["es4"] = max(worst["es4"], abs(es4 - target4))
    ok = (worst["es"] < 1e-12 and worst["va"] < 1e-9
          and worst["ea2"] < 1e-9 and worst["es4"] < 1e-6)
    assert _report("criterion 4: two-qutrit closed forms", ok,
                   ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_05_boundary_values():
    worst_sep = worst_flat = 0.0
    for d in range(2, 8):
        ref = math.sqrt(d) / (math.factorial(d) * math.factorial(d - 1))
        worst_sep = max(worst_sep, abs(source_volume(separable(d)) - ref))
        worst_flat = max(worst_flat, abs(source_volume(maximally_entangled(d))))
    ok = worst_sep < 1e-12 and worst_flat < 1e-10
    assert _report("criterion 5: separable/flat boundary volumes", ok,
                   f"sep={worst_sep:.2e}, flat={worst_flat:.2e}")


def test_criterion_06_degenerate_continuity():
    rng = np.random.default_rng(300)
    ok = True
    details = []
    for _ in range(20):
        d = int(rng.integers(3, 6))
        base = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        i = int(rng.integers(0, d - 1))
        base[i + 1] = base[i]  # force one tie
        lam = canonicalize(base)
        tilde = canonicalize(np.sort(rng.dirichlet(np.ones(d)) + 0.05)[::-1])
        direct = source_volume(lam)
        deltas = []
        for eps in (1e-3, 1e-5, 1e-7):
            mix = canonicalize((1 - eps) * lam.as_array() + eps * tilde.as_array())
            deltas.append(abs(source_volume(mix) - direct))
            if deltas[-1] > 10 * eps:
                ok = False
        if not (deltas[0] >= deltas[1] >= deltas[2]):
            ok = False
        details.append(deltas[-1])
    assert _report("criterion 6: degenerate-state continuity", ok,
                   f"max residual at eps=1e-7: {max(details):.2e}")


def test_criterion_07_cross_engine():
    rng = np.random.default_rng(400)
    worst_tri = worst_closed = 0.0
    count = 0
    for d in (3, 4, 5):
        adjacency = source_polytope_adjacency(d)
        for _ in range(17 if d < 5 else 16):
            lam = canonicalize(rng.dirichlet(np.ones(d)) + 0.01)
            verts = source_polytope_vertices(lam)
            bv = brion_volume(verts, adjacency)
            tv, _ = volume_triangulation(VertexSet(verts))
            worst_tri = max(worst_tri, abs(bv - tv))
            worst_closed = max(worst_closed, abs(source_volume(lam) - bv / math.factorial(d)))
            count += 1
    ok = worst_tri < 1e-9 and worst_closed < 1e-9 and count == 50
    assert _report("criterion 7: vertex-sum vs triangulation vs closed form", ok,
                   f"|brion-tri|={worst_tri:.2e}, |closed-brion/d!|={worst_closed:.2e}")


def test_criterion_08_oracle_agreement():
    from entvol.schmidt import sorted_region_volume

    t0 = perf_counter()
    rng = np.random.default_rng(500)
    ok = True
    worst_pull = 0.0
    n = 1_000_000
    for d in (2, 3, 4, 5):
        region = sorted_region_volume(d)
        for i in range(20):
            lam = canonicalize(rng.dirichlet(np.ones(d)))
            cfg = McConfig(samples=n, seed=1000 * d + i)
            for res, target in (
                (mc_source_volume(lam, cfg), source_volume(lam)),
                (mc_accessible_volume(lam, cfg), accessible_volume(lam)[0]),
            ):
                # Laplace-smoothed hit fraction keeps the error bar positive
                # at 0 or n hits, where the plug-in bar would collapse to zero
                p = (res.estimate / region * n + 1.0) / (n + 2.0)
                sigma = region * math.sqrt(p * (1.0 - p) / n)
                pull = abs(res.estimate - target) / sigma
                worst_pull = max(worst_pull, pull)
                if pull > 3.0:
                    ok = False
    dt = perf_counter() - t0
    ok = ok and dt < 60.0
    assert _report("criterion 8: Monte-Carlo oracle agreement", ok,
                   f"worst pull {worst_pull:.2f} sigma, {dt:.1f} s")


def test_criterion_09_fourqubit_closed_forms():
    from _helpers import Z3, form
    def volumes(rows):  # the one sampled state here, c3, is read for V_s only
        s_rep, a_rep = entanglement_4q(classify(form(SEED_PARAMS, rows)), _SUP_ONLY)
        return s_rep.volume, a_rep.volume

    _, v_seed = volumes([Z3, Z3, Z3, Z3])
    ok = v_seed == 29 * math.pi / 12

    _, v_gx = volumes([[0.2, 0, 0], Z3, Z3, Z3])
    ok &= abs(v_gx - math.pi / 48 * (11 + 1.6 * (0.04 - 3))) <= 1e-12

    v_s, v_a = volumes([[0.15, 0.2, 0.1], [0.3, 0, 0], [0.1, 0, 0], Z3])
    ok &= abs(v_a - (math.sqrt(0.2275) - math.sqrt(0.05))) <= 1e-9
    ok &= abs(v_s - math.sqrt(0.05)) <= 1e-9

    v_s, _ = volumes([[0.23, 0.13, 0.15], Z3, Z3, Z3])
    ok &= abs(v_s - 2 / 3 * 0.23 * 0.13 * 0.15) <= 1e-12
    assert _report("criterion 9: four-qubit case formulas", ok,
                   f"seed V_a={v_seed:.6f}, axis V_a={v_gx:.6f}")


def _shared_halfball_points(n=200_000, seed=4242):
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    pts = rng.uniform([0.0, -0.5, -0.5], [0.5, 0.5, 0.5], size=(n, 3))
    return pts


def _region_volume_crn(pts, gammas):
    """Half-ball region volume on a shared sample set (common random numbers)."""
    hits = _caseiii_predicate(np.abs(gammas))(pts)
    return hits.mean() * 0.5


def test_criterion_10_monotonicity_suite():
    rng = np.random.default_rng(600)
    pts = _shared_halfball_points()
    rows = ["transverse_scaling", "axis_rectangle", "single_party_general",
            "single_party_plane", "single_party_axis", "axis_to_general",
            "seed_to_general"]
    violations = 0
    compared = {r: 0 for r in rows}
    for row in rows:
        gen = PAIR_GENERATORS[row]
        for _ in range(500):
            a, b = gen(rng, SEED_PARAMS)
            assert can_convert(a, b), row
            ca, cb = classify(a), classify(b)
            sa, sb = _source_entanglement(ca), _source_entanglement(cb)
            compared_any = False
            if sa[1] == sb[1]:  # equal source-volume dimension
                if sb[0] > sa[0] + 1e-10:
                    violations += 1
                compared_any = True
            ea = _accessible_entanglement_crn(ca, pts)
            eb = _accessible_entanglement_crn(cb, pts)
            if ea is not None and eb is not None and ea[1] == eb[1]:
                if eb[0] > ea[0] + 1e-10:
                    violations += 1
                compared_any = True
            if compared_any:
                compared[row] += 1
    ok = violations == 0 and all(v > 0 for v in compared.values())
    assert _report("criterion 10: monotonicity over convertible pairs", ok,
                   f"violations={violations}, compared={sum(compared.values())}")


#: The normalizations do not depend on the sampling plan, so the program's
#: reports are read at the smallest one; the numeric volume comes from the
#: shared samples instead.
_SUP_ONLY = McConfig(samples=1_000)


def _source_entanglement(cls):
    """(E_s, dimension) as the program reports them."""
    rep = entanglement_4q(cls, _SUP_ONLY)[0]
    return rep.entanglement, rep.dimension


def _accessible_entanglement_crn(cls, pts):
    """(E_a, dimension) using shared samples for the numeric region."""
    rep = entanglement_4q(cls, _SUP_ONLY)[1]
    if cls.tag == TAG_GENERAL_ONE and rep.dimension == 3:
        comps = np.abs(cls.gammas[cls.roles["party"]])
        return _region_volume_crn(pts, comps) / rep.v_sup, 3
    return rep.entanglement, rep.dimension


def test_criterion_11_povm_witnesses():
    rng = np.random.default_rng(700)
    plan = [("axis_rectangle", 34), ("single_party_general", 22),
            ("single_party_plane", 22), ("single_party_axis", 22)]
    worst = {"comp": 0.0, "eta": 0.0, "mis": 0.0}
    for row, count in plan:
        gen = PAIR_GENERATORS[row]
        for _ in range(count):
            a, b = gen(rng, SEED_PARAMS)
            wit = povm_witness(a, b)
            worst["comp"] = max(worst["comp"], wit.completeness_residual)
            worst["eta"] = max(worst["eta"], wit.eta_residual)
            worst["mis"] = max(worst["mis"], wit.outcome_mismatch)
    ok = worst["comp"] <= 1e-12 and worst["eta"] <= 1e-10 and worst["mis"] <= 1e-9
    assert _report("criterion 11: POVM witnesses", ok,
                   f"completeness={worst['comp']:.1e}, eta={worst['eta']:.1e}, "
                   f"overlap defect={worst['mis']:.1e}")


def _swap_parties(vec: np.ndarray, i: int, j: int) -> np.ndarray:
    out = np.zeros_like(vec)
    for n in range(16):
        bits = [(n >> (3 - q)) & 1 for q in range(4)]
        bits[i], bits[j] = bits[j], bits[i]
        m = sum(bit << (3 - q) for q, bit in enumerate(bits))
        out[m] = vec[n]
    return out


# The seed's amplitude groups, as laid out by build_seed (Verstraete's G_abcd):
# A = (a+d)/2 on 0000/1111, B = (a-d)/2 on 0011/1100, C = (b+c)/2 on
# 0101/1010, D = (b-c)/2 on 0110/1001.  Swapping two parties fixes A and
# exchanges one pair of the other groups; sigma_x on the same two parties
# exchanges A with the remaining group and that same pair with each other.
_GA, _GB, _GC, _GD = range(4)
_SWAP_EXCHANGES = {
    (0, 1): ((_GC, _GD),), (2, 3): ((_GC, _GD),),
    (0, 2): ((_GB, _GD),), (1, 3): ((_GB, _GD),),
    (0, 3): ((_GB, _GC),), (1, 2): ((_GB, _GC),),
}
_SIGMA_XX_EXCHANGES = {
    (0, 1): ((_GA, _GB), (_GC, _GD)), (2, 3): ((_GA, _GB), (_GC, _GD)),
    (0, 2): ((_GA, _GC), (_GB, _GD)), (1, 3): ((_GA, _GC), (_GB, _GD)),
    (0, 3): ((_GA, _GD), (_GB, _GC)), (1, 2): ((_GA, _GD), (_GB, _GC)),
}
_DOUBLE_TRANSPOSITIONS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def _seed_with_exchanged_groups(p: SeedParams, pairs) -> np.ndarray:
    g = [(p.a + p.d) / 2, (p.a - p.d) / 2, (p.b + p.c) / 2, (p.b - p.c) / 2]
    for x, y in pairs:
        g[x], g[y] = g[y], g[x]
    q = SeedParams(g[_GA] + g[_GB], g[_GC] + g[_GD], g[_GC] - g[_GD], g[_GA] - g[_GB])
    return build_seed(q, validate=False)


def test_criterion_12_seed_symmetries():
    # sigma_k^(x4) and the three double transpositions leave every seed
    # invariant; a single transposition, or sigma_x on two parties, maps the
    # seed to the seed with amplitude groups exchanged, that is, to the seed
    # of other parameters (see the tables above).
    rng = np.random.default_rng(800)
    worst_sigma = 0.0
    worst_exchange = 0.0
    worst_double = 0.0
    for _ in range(50):
        p = random_seed_params(rng)
        v = build_seed(p)
        for k in range(4):
            U = kron4(*([PAULI[k]] * 4))
            worst_sigma = max(worst_sigma, float(np.max(np.abs(U @ v - v))))
        for (i, j), pairs in _SWAP_EXCHANGES.items():
            expected = _seed_with_exchanged_groups(p, pairs)
            worst_exchange = max(worst_exchange,
                                 float(np.max(np.abs(_swap_parties(v, i, j) - expected))))
            ops = [PAULI[0]] * 4
            ops[i] = ops[j] = PAULI[1]
            expected = _seed_with_exchanged_groups(p, _SIGMA_XX_EXCHANGES[i, j])
            worst_exchange = max(worst_exchange,
                                 float(np.max(np.abs(kron4(*ops) @ v - expected))))
        for (i, j), (k, l) in _DOUBLE_TRANSPOSITIONS:
            swapped = _swap_parties(_swap_parties(v, i, j), k, l)
            worst_double = max(worst_double, float(np.max(np.abs(swapped - v))))
    ok = worst_sigma <= 1e-12 and worst_exchange <= 1e-12 and worst_double <= 1e-12
    assert _report("criterion 12: seed-state symmetries", ok,
                   f"sigma^x4 residual={worst_sigma:.1e}, "
                   f"transposition/group-exchange residual={worst_exchange:.1e}, "
                   f"double-transposition residual={worst_double:.1e}")


def test_criterion_13_region_limit():
    tiny = np.full(3, 1e-5)
    res = caseiii_accessible_mc(tiny, McConfig(samples=10_000_000, seed=11))
    pull = abs(res.estimate - math.pi / 12) / res.stderr
    ok = pull <= 3.0
    assert _report("criterion 13: numeric region converges to the half-ball", ok,
                   f"estimate={res.estimate:.6f}, pi/12={math.pi / 12:.6f}, pull={pull:.2f} sigma")
