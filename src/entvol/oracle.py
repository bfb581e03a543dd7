"""Monte-Carlo validators for the closed-form and geometric volumes.

Sorted Schmidt vectors are sampled uniformly by normalizing exponential
variates (uniform on the simplex) and sorting; hit fractions against the
majorization predicate are then scaled by the sorted-region volume.  Sampling
uses counter-based Philox streams keyed by (seed, chunk index) with a fixed
chunk length, so results are bit-reproducible however the chunks are mapped
to workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InconsistentInput
from .schmidt import EPS_NORM, SchmidtVector, sorted_region_volume

_CHUNK = 1 << 19


@dataclass(frozen=True)
class McConfig:
    samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.samples < 1_000:
            raise InconsistentInput("need at least 1000 samples")


@dataclass(frozen=True)
class McResult:
    estimate: float
    stderr: float
    samples: int
    seed: int

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "samples": self.samples,
            "seed": self.seed,
            "convention": "intrinsic",
        }


def _chunks(total: int):
    start = 0
    idx = 0
    while start < total:
        yield idx, min(_CHUNK, total - start)
        start += _CHUNK
        idx += 1


def _rng(seed: int, chunk: int) -> np.random.Generator:
    # a seed in [-2^63, 2^64) is one 64-bit key word, negative seeds wrapping
    # to their two's complement; a plain list would pass through float64
    key = np.array([seed % 2 ** 64, chunk], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_sorted_simplex(d: int, n: int, seed: int, chunk: int) -> np.ndarray:
    """n sorted probability vectors, uniform on the sorted region."""
    g = _rng(seed, chunk)
    x = g.exponential(size=(n, d))
    x /= x.sum(axis=1, keepdims=True)
    x.sort(axis=1)
    return x[:, ::-1]


def _hit_fraction(draw, predicate, scale: float, cfg: McConfig) -> McResult:
    """``scale`` times the fraction of ``cfg.samples`` points that ``predicate``
    accepts, with its standard error; ``draw(n, chunk)`` gives chunk ``chunk``'s
    n points."""
    hits = 0
    for idx, n in _chunks(cfg.samples):
        hits += int(np.asarray(predicate(draw(n, idx)), dtype=bool).sum())
    p = hits / cfg.samples
    se = scale * math.sqrt(max(p * (1.0 - p), 0.0) / cfg.samples)
    return McResult(p * scale, se, cfg.samples, cfg.seed)


def _mc_majorization(lam: SchmidtVector, cfg: McConfig, accessible: bool) -> McResult:
    d = lam.d
    E = np.cumsum(lam.as_array())[: d - 1]

    def predicate(pts: np.ndarray) -> np.ndarray:
        partial = np.cumsum(pts[:, : d - 1], axis=1)
        if accessible:
            return np.all(partial >= E - EPS_NORM, axis=1)
        return np.all(partial <= E + EPS_NORM, axis=1)

    return _hit_fraction(lambda n, idx: sample_sorted_simplex(d, n, cfg.seed, idx),
                         predicate, sorted_region_volume(d), cfg)


def mc_source_volume(lam: SchmidtVector, cfg: McConfig) -> McResult:
    """Volume of sorted vectors majorized by lam (states that reach lam)."""
    return _mc_majorization(lam, cfg, accessible=False)


def mc_accessible_volume(lam: SchmidtVector, cfg: McConfig) -> McResult:
    """Volume of sorted vectors that majorize lam (states lam reaches)."""
    return _mc_majorization(lam, cfg, accessible=True)


def mc_region_volume(
    predicate: Callable[[np.ndarray], np.ndarray],
    box_lo: np.ndarray,
    box_hi: np.ndarray,
    cfg: McConfig,
) -> McResult:
    """box volume times the hit fraction of a vectorized membership predicate.

    ``predicate`` receives an (n, dim) array and must return a boolean array
    of length n; it is assumed total on the box.
    """
    lo = np.asarray(box_lo, float)
    hi = np.asarray(box_hi, float)
    if lo.shape != hi.shape or np.any(hi <= lo):
        raise InconsistentInput("invalid bounding box")
    return _hit_fraction(lambda n, idx: _rng(cfg.seed, idx).uniform(lo, hi, size=(n, lo.size)),
                         predicate, float(np.prod(hi - lo)), cfg)
