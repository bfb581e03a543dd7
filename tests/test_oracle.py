from __future__ import annotations

import math
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from entvol import errors, oracle
from entvol.bipartite import accessible_volume, source_volume
from entvol.fourqubit import caseiii_accessible_mc
from entvol.oracle import (
    McConfig,
    mc_accessible_volume,
    mc_region_volume,
    mc_source_volume,
)
from entvol.schmidt import canonicalize, maximally_entangled, separable, sorted_region_volume


def test_config_validation():
    with pytest.raises(errors.InconsistentInput):
        McConfig(samples=10)
    # refused before any chunk is listed; no run of this size is started
    assert McConfig(samples=oracle.MAX_SAMPLES).samples == 2 ** 30
    with pytest.raises(errors.InconsistentInput):
        McConfig(samples=oracle.MAX_SAMPLES + 1)


@pytest.mark.parametrize("field,value", [
    ("samples", 2000.0), ("samples", True), ("samples", "2000"), ("samples", np.float64(2000)),
    ("seed", 5.7), ("seed", 5.0), ("seed", False), ("seed", np.bool_(True)),
    ("seed", 2 ** 64 + 5), ("seed", 2 ** 64), ("seed", -2 ** 63 - 1),
])
def test_config_refuses_what_is_no_integer_or_key_word(field, value):
    with pytest.raises(errors.InconsistentInput):
        McConfig(**{field: value})


def test_config_accepts_python_and_numpy_ints():
    for samples, seed in [(2_000, -2 ** 63), (np.int64(2_000), np.uint64(2 ** 64 - 1)),
                          (np.int32(2_000), np.int8(-5))]:
        cfg = McConfig(samples=samples, seed=seed)
        assert (cfg.samples, cfg.seed) == (int(samples), int(seed))
        assert type(cfg.samples) is int and type(cfg.seed) is int
    assert (oracle.MIN_SEED, oracle.MAX_SEED) == (-2 ** 63, 2 ** 64 - 1)


def _tied_draws(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Exponential draws rounded to one decimal, with column 0 repeated in
    the middle column: many rows hold equal entries."""
    x = np.round(rng.exponential(size=(n, d)), 1)
    x[:, d // 2] = x[:, 0]
    return x


@pytest.mark.parametrize("d", list(range(1, 18)) + [32])
def test_sorting_network_sorts_rows_descending(d):
    x = _tied_draws(np.random.default_rng(d), 4_000, d)
    pts = oracle._sort_rows_descending(np.asfortranarray(x))
    assert np.array_equal(pts, np.sort(x, axis=1)[:, ::-1])
    if d <= 12:  # every 0-1 row: by the 0-1 principle the network sorts every input
        bits = (np.arange(2 ** d)[:, None] >> np.arange(d) & 1).astype(float)
        pts = oracle._sort_rows_descending(np.asfortranarray(bits))
        assert np.array_equal(pts, np.sort(bits, axis=1)[:, ::-1])


@pytest.mark.parametrize("d", [1, 2, 3, 8, 9, 16])
def test_sorted_simplex_is_the_row_wise_route(d):
    # dividing each row by its sum, sorting it and reading it backwards
    pts = oracle._sorted_simplex(oracle._rng(3, 1), d, 5_000)
    x = oracle._rng(3, 1).exponential(size=(5_000, d))
    x /= x.sum(axis=1, keepdims=True)
    assert pts.flags.f_contiguous
    assert np.array_equal(pts, np.sort(x, axis=1)[:, ::-1])


def test_rank_past_the_float_range_is_refused():
    # d!(d-1)! overflows a float from d = 99; d = 98 keeps its value
    assert sorted_region_volume(98) == math.sqrt(98) / (math.factorial(98) * math.factorial(97))
    with pytest.raises(errors.DimensionTooLarge):
        sorted_region_volume(99)
    with pytest.raises(errors.DimensionTooLarge):
        mc_source_volume(maximally_entangled(99), McConfig(samples=1_000, seed=0))


def test_source_separable_is_whole_region():
    cfg = McConfig(samples=200_000, seed=1)
    res = mc_source_volume(separable(2), cfg)
    assert res.estimate == pytest.approx(math.sqrt(2) / 2, abs=3e-3)
    # every sample is a hit, so the estimate is exact and the error bar zero
    assert res.stderr == 0.0


def test_source_flat_state_measure_zero():
    cfg = McConfig(samples=100_000, seed=2)
    res = mc_source_volume(maximally_entangled(3), cfg)
    assert res.estimate == 0.0


def test_source_matches_closed_form():
    cfg = McConfig(samples=400_000, seed=3)
    lam = canonicalize([0.5, 0.3, 0.2])
    res = mc_source_volume(lam, cfg)
    assert abs(res.estimate - source_volume(lam)) <= 3 * res.stderr


def test_accessible_flat_state_full_region():
    cfg = McConfig(samples=100_000, seed=4)
    for d in (2, 3, 4):
        res = mc_accessible_volume(maximally_entangled(d), cfg)
        assert res.estimate == pytest.approx(sorted_region_volume(d), abs=1e-12)


def test_rank_one_point_has_volume_one():
    # one convention for the single point (1,): its 0-volume is 1 on every route
    lam = canonicalize([1])
    res = mc_accessible_volume(lam, McConfig(samples=1_000, seed=0))
    assert res.estimate == accessible_volume(lam)[0] == 1.0
    assert mc_source_volume(lam, McConfig(samples=1_000, seed=0)).estimate == source_volume(lam) == 1.0


def test_accessible_matches_formula_and_engine():
    cfg = McConfig(samples=400_000, seed=5)
    lam = canonicalize([0.6, 0.27, 0.13])
    res = mc_accessible_volume(lam, cfg)
    assert abs(res.estimate - math.sqrt(3) * 0.27 * 0.13) <= 3 * res.stderr
    lam4 = canonicalize([0.4, 0.3, 0.2, 0.1])
    res4 = mc_accessible_volume(lam4, McConfig(samples=400_000, seed=6))
    assert abs(res4.estimate - accessible_volume(lam4)[0]) <= 3 * res4.stderr


def test_region_ball_in_cube():
    cfg = McConfig(samples=500_000, seed=8)
    res = mc_region_volume(lambda p: (p ** 2).sum(axis=1) < 0.25,
                           np.full(3, -0.5), np.full(3, 0.5), cfg)
    assert abs(res.estimate - math.pi / 6) <= 3 * res.stderr


def test_region_half_ball_quadrant():
    cfg = McConfig(samples=500_000, seed=9)
    res = mc_region_volume(lambda p: (p ** 2).sum(axis=1) < 0.25,
                           np.array([0.0, -0.5, -0.5]), np.full(3, 0.5), cfg)
    assert abs(res.estimate - math.pi / 12) <= 3 * res.stderr


def test_region_empty_predicate():
    cfg = McConfig(samples=10_000, seed=10)
    res = mc_region_volume(lambda p: np.zeros(len(p), dtype=bool),
                           np.zeros(2), np.ones(2), cfg)
    assert res.estimate == 0.0


def test_reproducible_for_fixed_seed():
    cfg = McConfig(samples=250_000, seed=11)
    lam = canonicalize([0.45, 0.35, 0.2])
    a = mc_source_volume(lam, cfg)
    b = mc_source_volume(lam, cfg)
    assert a.estimate == b.estimate and a.stderr == b.stderr


def test_stderr_scales_inverse_sqrt():
    lam = canonicalize([0.5, 0.3, 0.2])
    small = mc_source_volume(lam, McConfig(samples=10_000, seed=12))
    large = mc_source_volume(lam, McConfig(samples=1_000_000, seed=12))
    ratio = small.stderr / large.stderr
    assert ratio == pytest.approx(10.0, rel=0.15)


def test_result_records_audit_fields():
    cfg = McConfig(samples=10_000, seed=13)
    res = mc_source_volume(canonicalize([0.7, 0.3]), cfg)
    payload = res.to_json()
    assert payload["samples"] == 10_000
    assert payload["seed"] == 13
    assert payload["convention"] == "intrinsic"


#: Estimates and standard errors at 1,100,000 samples, seed 2024: two full
#: chunks and a ragged third.  They were taken from the single-threaded loop
#: that drew each chunk in one piece, so they pin the sampling plan, not the
#: way it is carried out; the ranks 1, 3 and 16 were taken from the row-wise
#: sort and cumsum that the comparator network replaced.
GUARD_LAMS = {1: [1.0], 2: [0.7, 0.3], 3: [0.55, 0.3, 0.15],
              5: [0.4, 0.25, 0.15, 0.12, 0.08],
              8: [0.3, 0.2, 0.15, 0.1, 0.1, 0.07, 0.05, 0.03],
              # the mean sorted Dirichlet(1) vector, sum_{k >= i} 1/k / 16, to 4 places
              16: [0.2113, 0.1488, 0.1175, 0.0967, 0.0811, 0.0686, 0.0582, 0.0492,
                   0.0414, 0.0345, 0.0282, 0.0226, 0.0173, 0.0125, 0.0081, 0.0039]}
GUARD = {
    "source-d1": (1.0, 0.0),
    "accessible-d1": (1.0, 0.0),
    "source-d2": (0.28263443738634225, 0.00033024853186107233),
    "accessible-d2": (0.42447234380020527, 0.00033024853186107233),
    "source-d3": (0.03392562668146349, 5.835467012947944e-05),
    "accessible-d3": (0.07800133352722115, 6.858514744626122e-05),
    "source-d5": (6.538593094433334e-05, 2.0558372245660917e-07),
    "accessible-d5": (0.0004495992993395884, 3.654822250612843e-07),
    "source-d8": (7.944580704715765e-10, 3.0787452012722907e-12),
    "accessible-d8": (7.279375332889883e-09, 6.628384571855322e-12),
    "source-d16": (1.9804350386513792e-26, 4.770305710732757e-29),
    "accessible-d16": (2.743786825757809e-26, 5.44269225739227e-29),
    "half-ball": (0.2615127272727273, 0.00023811276379584183),
    "caseiii": (0.14472363636363636, 0.00021620042733854017),
    "caseiii-zero": (0.1771181818181818, 0.00022801164359924573),
}


def _guard_call(name: str):
    cfg = McConfig(samples=1_100_000, seed=2024)
    if name.startswith(("source", "accessible")):
        kind, d = name.split("-d")
        lam = canonicalize(GUARD_LAMS[int(d)])
        return (mc_source_volume if kind == "source" else mc_accessible_volume)(lam, cfg)
    if name == "half-ball":
        return mc_region_volume(lambda p: (p ** 2).sum(axis=1) < 0.25,
                                np.array([0.0, -0.5, -0.5]), np.full(3, 0.5), cfg)
    gam = [0.05, 0.04, 0.03] if name == "caseiii" else [0.06, 0.0, 0.03]
    return caseiii_accessible_mc(np.array(gam), cfg)


@pytest.mark.parametrize("workers,block", [
    (None, None),           # as the machine allows
    (3, None),              # one thread per chunk, also on a single CPU
    (1, 1_000),             # inline, in small blocks with a ragged last one
    (1, oracle._CHUNK),     # inline, one block per chunk
], ids=["default", "three-workers", "inline-block-1000", "inline-block-chunk"])
@pytest.mark.parametrize("name", GUARD)
def test_estimates_do_not_depend_on_blocks_or_workers(monkeypatch, name, workers, block):
    if workers is not None:
        monkeypatch.setattr(oracle, "_workers", lambda: workers)
    if block is not None:
        monkeypatch.setattr(oracle, "_BLOCK", block)
    res = _guard_call(name)
    assert (res.estimate, res.stderr) == GUARD[name]
    assert (res.samples, res.seed) == (1_100_000, 2024)


class ChunkTwoFails(Exception):
    pass


@pytest.mark.parametrize("workers,ran", [
    (1, {0: 4, 1: 4, 2: 1}),
    (2, {0: 4, 1: 4, 2: 1, 3: 1}),
], ids=["inline", "two-workers"])
def test_predicate_error_stops_the_run(monkeypatch, workers, ran):
    # ten chunks of four blocks; the predicate raises on chunk 2's first block
    monkeypatch.setattr(oracle, "_workers", lambda: workers)
    monkeypatch.setattr(oracle, "_CHUNK", 4_000)
    monkeypatch.setattr(oracle, "_BLOCK", 1_000)
    local = threading.local()
    keyed = oracle._rng

    def rng(seed, chunk):
        local.chunk = chunk
        return keyed(seed, chunk)

    monkeypatch.setattr(oracle, "_rng", rng)
    started, raised = threading.Event(), threading.Event()
    blocks = Counter()

    def predicate(pts):
        blocks[local.chunk] += 1
        if local.chunk == 2:
            if workers > 1:
                started.wait(10)  # let the other worker start on chunk 3
            raised.set()
            raise ChunkTwoFails("chunk 2")
        if local.chunk == 3:
            started.set()
            raised.wait(10)
            time.sleep(0.05)  # until the failure is recorded
        return np.ones(len(pts), dtype=bool)

    with pytest.raises(ChunkTwoFails, match="chunk 2"):
        mc_region_volume(predicate, np.zeros(1), np.ones(1), McConfig(samples=40_000, seed=0))
    # the worker on chunk 3 stops after its block, and no later chunk starts
    assert dict(blocks) == ran


def test_many_workers_take_every_chunk_once(monkeypatch):
    # more workers than CPUs, switching threads as often as the interpreter can
    monkeypatch.setattr(oracle, "_workers", lambda: 8)
    monkeypatch.setattr(oracle, "_CHUNK", 1_000)
    monkeypatch.setattr(oracle, "_BLOCK", 250)
    drawn = []
    keyed = oracle._rng

    def rng(seed, chunk):
        drawn.append(chunk)
        return keyed(seed, chunk)

    monkeypatch.setattr(oracle, "_rng", rng)
    cfg = McConfig(samples=200_000, seed=15)
    half = lambda p: p[:, 0] < 0.5
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = mc_region_volume(half, np.zeros(1), np.ones(1), cfg)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(drawn) == list(range(200))
    monkeypatch.setattr(oracle, "_workers", lambda: 1)
    assert mc_region_volume(half, np.zeros(1), np.ones(1), cfg) == many


def test_predicate_may_return_a_list():
    cfg = McConfig(samples=1_100_000, seed=14)
    lo, hi = np.zeros(2), np.ones(2)
    as_array = mc_region_volume(lambda p: p[:, 0] < p[:, 1], lo, hi, cfg)
    as_list = mc_region_volume(lambda p: (p[:, 0] < p[:, 1]).tolist(), lo, hi, cfg)
    assert as_list == as_array
    assert as_array.estimate == pytest.approx(0.5, abs=5 * as_array.stderr)


@pytest.mark.parametrize("lo,hi", [
    ((-0.3, 0.1), (0.9, 2.2)),                 # ranges that are not powers of two
    ((0.0, -0.5, -0.5), (0.5, 0.5, 0.5)),      # the half box of the Case-III region
], ids=["ragged-box", "half-box"])
def test_region_points_are_the_affine_image_of_random(monkeypatch, lo, hi):
    # chunks of 5000 in blocks of 2000: ragged last blocks and a ragged last chunk
    monkeypatch.setattr(oracle, "_workers", lambda: 1)
    monkeypatch.setattr(oracle, "_CHUNK", 5_000)
    monkeypatch.setattr(oracle, "_BLOCK", 2_000)
    lo, hi = np.array(lo), np.array(hi)
    blocks = []

    def predicate(pts):
        blocks.append(pts.copy())
        return np.ones(len(pts), dtype=bool)

    cfg = McConfig(samples=12_000, seed=31)
    mc_region_volume(predicate, lo, hi, cfg)
    assert [len(b) for b in blocks] == [2_000, 2_000, 1_000] * 2 + [2_000]
    for idx, n in enumerate((5_000, 5_000, 2_000)):
        pts = np.concatenate(blocks[3 * idx: 3 * idx + 3])
        assert np.array_equal(pts, lo + (hi - lo) * oracle._rng(cfg.seed, idx).random((n, lo.size)))
        if lo.size == 3:
            assert np.array_equal(pts, oracle._rng(cfg.seed, idx).uniform(lo, hi, size=(n, 3)))


@pytest.mark.parametrize("lo,hi", [
    ((0.0, np.nan), (1.0, 1.0)), ((0.0, 0.0), (1.0, np.inf)), ((-1e308, 0.0), (1e308, 1.0)),
    ((0.0, 1.0), (1.0, 1.0)), ((0.0,), (1.0, 1.0)),
    ((-1e200, -1e200), (1e200, 1e200)), ((0.0, 0.0), (1e-200, 1e-200)),
], ids=["nan", "inf", "overflowing-range", "empty", "shapes", "overflowing-volume",
        "vanishing-volume"])
def test_region_rejects_invalid_boxes(lo, hi):
    with pytest.raises(errors.InconsistentInput, match="invalid bounding box"):
        mc_region_volume(lambda p: p[:, 0] < 1, np.array(lo), np.array(hi),
                         McConfig(samples=1_000, seed=0))
