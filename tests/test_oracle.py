from __future__ import annotations

import math

import numpy as np
import pytest

from entvol import errors
from entvol.bipartite import accessible_volume, source_volume
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
