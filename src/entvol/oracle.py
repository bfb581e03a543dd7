"""Monte-Carlo validators for the closed-form and geometric volumes.

Sorted Schmidt vectors are sampled uniformly by normalizing exponential
variates (uniform on the simplex) and sorting; hit fractions against the
majorization predicate are then scaled by the sorted-region volume.  Each
block of n draws, read row-major from ``Generator.standard_exponential`` (the
values of ``Generator.exponential``) a slab of rows at a time, is copied
into an (n, d) Fortran-ordered array, so that each coordinate column is
contiguous; each worker reuses one slab buffer and one such array for all
its blocks.  Its rows are sorted in descending order by Batcher's odd-even
merge network, built once per rank: a fixed sequence of in-place
``np.maximum``/``np.minimum`` calls on whole columns.  Each column is then
divided by the row sums, and the predicate forms the partial sums as running
column adds.  The estimates are those of normalizing, sorting and ``cumsum``
row by row, bit for bit: a min or max is exact; ``fl(a / s)`` is monotone in
a, so sorting before dividing gives the same values; ``cumsum`` adds in
sequence, as the running adds do; and the row sums are numpy's own
``x.sum(axis=1)`` (from d = 8 it sums a row pairwise, so a sequential column
sum would differ).

Regions in a box [lo, hi) are sampled as ``lo + (hi - lo) * U``, with U read
row-major from ``Generator.random``.  That is the arithmetic of
``Generator.uniform(lo, hi)``, whose C loop computes ``lower + range *
next_double``: the bits agree wherever the compiler does not contract that
to a fused multiply-add (x86-64 builds do not), and everywhere for ranges
that are powers of two, whose products are exact.

Sampling uses counter-based Philox streams keyed by (seed, chunk index) with
a fixed chunk length.  Each chunk is drawn and tested in blocks of ``_BLOCK``
rows, so that the temporaries stay in cache; successive draws continue the
chunk's stream, so the points do not depend on the block size.  The chunks
are spread over threads, one per CPU the process may run on (numpy's Philox
fill and ufuncs release the GIL), and their integer hit counts summed, so
estimates are bit-identical whatever the block size and the number of
workers.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InconsistentInput
from .schmidt import EPS_NORM, SchmidtVector, sorted_region_volume

_CHUNK = 1 << 19
_BLOCK = 1 << 15
_SLAB = 1 << 11
#: The most samples a run may take.  2^30 puts the relative standard error
#: near 3e-5 and takes seconds to minutes; the plan lists every chunk before
#: it draws, so a count like 10^15 would hold 1.9e9 entries and never end.
MAX_SAMPLES = 1 << 30
#: The seeds one 64-bit Philox key word holds, [-2^63, 2^64).
MIN_SEED = -(1 << 63)
MAX_SEED = (1 << 64) - 1


def _integer(name: str, value) -> int:
    """value as a Python int; a bool or a value of any other type is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InconsistentInput(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class McConfig:
    samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        samples, seed = _integer("samples", self.samples), _integer("seed", self.seed)
        if samples < 1_000:
            raise InconsistentInput("need at least 1000 samples")
        if samples > MAX_SAMPLES:
            raise InconsistentInput(f"at most 2^30 samples, got {samples}")
        if not MIN_SEED <= seed <= MAX_SEED:
            raise InconsistentInput(f"seed {seed} is outside [-2^63, 2^64)")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", seed)


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


def _rng(seed: int, chunk: int) -> np.random.Generator:
    # the seed is one 64-bit key word, a negative one its two's complement;
    # a plain list would pass through float64
    key = np.array([seed % 2 ** 64, chunk], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@functools.lru_cache(maxsize=None)
def _sorting_network(d: int) -> tuple[tuple[int, int], ...]:
    """Batcher's odd-even merge network on d wires: comparators (i, j), i < j,
    that leave the larger value on wire i.  It is the network of the next
    power of two with the comparators that touch a wire past d dropped; those
    wires would hold values below every other, which no comparator moves."""
    n = 1 << (d - 1).bit_length()
    net = []
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(j, j + min(k, n - j - k)):
                    if i // (2 * p) == (i + k) // (2 * p) and i + k < d:
                        net.append((i, i + k))
            k //= 2
        p *= 2
    return tuple(net)


def _sort_rows_descending(pts: np.ndarray) -> np.ndarray:
    """Sort each row of the Fortran-ordered (n, d) array pts in descending
    order, in place, one comparator of the network at a time; returns pts."""
    cols = list(pts.T)
    low = np.empty(len(pts))
    for i, j in _sorting_network(pts.shape[1]):
        np.minimum(cols[i], cols[j], out=low)
        np.maximum(cols[i], cols[j], out=cols[i])
        cols[j][:] = low
    return pts


def _simplex_buffers(d: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Work arrays for :func:`_sorted_simplex` calls of up to n rows: the
    result (flat), one slab of draws and the row sums."""
    return np.empty(n * d), np.empty((min(n, _SLAB), d)), np.empty(n)


def _sorted_simplex(g: np.random.Generator, d: int, n: int, bufs=None) -> np.ndarray:
    """The next n sorted probability vectors of g, uniform on the sorted
    region, as the rows of an (n, d) Fortran-ordered array.

    ``bufs``, from ``_simplex_buffers(d, m)`` with m >= n, are reused in
    place of fresh arrays; the result is then a view of the first of them.
    """
    flat, x, sums = _simplex_buffers(d, n) if bufs is None else bufs
    pts = flat[:n * d].reshape((n, d), order="F")
    # a slab of rows at a time, drawn into a buffer that stays in cache:
    # successive draws continue g's stream, and numpy's transposing copy of
    # the whole block in one piece runs 2-3x slower from d = 8
    for start in range(0, n, _SLAB):
        m = min(_SLAB, n - start)
        slab = g.standard_exponential(out=x[:m])
        slab.sum(axis=1, out=sums[start:start + m])
        pts[start:start + m] = slab
    _sort_rows_descending(pts)
    pts /= sums[:n, None]
    return pts


def _workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _chunk_hits(draw, predicate, seed: int, idx: int, n: int, stop: threading.Event) -> int:
    """Hits among chunk ``idx``'s n points, drawn and tested ``_BLOCK`` rows
    at a time; returns early once ``stop`` is set."""
    g = _rng(seed, idx)
    hits = 0
    for start in range(0, n, _BLOCK):
        if stop.is_set():
            break
        pts = draw(g, min(_BLOCK, n - start))
        hits += int(np.count_nonzero(np.asarray(predicate(pts), dtype=bool)))
    return hits


def _hit_fraction(sampler, predicate, scale: float, cfg: McConfig) -> McResult:
    """``scale`` times the fraction of ``cfg.samples`` points that ``predicate``
    accepts, with its standard error.  ``sampler()`` is called once by each
    worker and returns its ``draw``: ``draw(g, n)`` gives the next n <=
    ``_BLOCK`` points of generator g and may reuse its buffers from call to
    call, so one worker allocates them once, not once a block.

    One chunk runs inline; more are taken in turn by up to ``_workers()``
    threads, the calling one included.  The first exception a predicate
    raises stops the other workers at their next block and is re-raised.
    """
    todo = [(idx, min(_CHUNK, cfg.samples - start))
            for idx, start in enumerate(range(0, cfg.samples, _CHUNK))][::-1]
    stop = threading.Event()
    counts: list[int] = []
    errors: list[BaseException] = []
    lock = threading.Lock()

    def work() -> None:
        draw = sampler()
        while not stop.is_set():
            with lock:
                if not todo:
                    return
                idx, n = todo.pop()
            try:
                counts.append(_chunk_hits(draw, predicate, cfg.seed, idx, n, stop))
            except BaseException as exc:
                errors.append(exc)
                stop.set()

    threads = [threading.Thread(target=work) for _ in range(min(_workers(), len(todo)) - 1)]
    try:
        for t in threads:
            t.start()
        work()
        for t in threads:
            t.join()
    finally:
        stop.set()
    if errors:
        raise errors[0]
    hits = sum(counts)
    p = hits / cfg.samples
    se = scale * math.sqrt(max(p * (1.0 - p), 0.0) / cfg.samples)
    return McResult(p * scale, se, cfg.samples, cfg.seed)


def _mc_majorization(lam: SchmidtVector, cfg: McConfig, accessible: bool) -> McResult:
    d = lam.d
    E = np.cumsum(lam.as_array())[: d - 1]
    bounds, within = (E - EPS_NORM, np.greater_equal) if accessible else (E + EPS_NORM, np.less_equal)

    def predicate(pts: np.ndarray) -> np.ndarray:
        # 0 + x is x, so the running sum has the bits of cumsum's partial sums
        partial = np.zeros(len(pts))
        hit = np.ones(len(pts), dtype=bool)
        for j, bound in enumerate(bounds):
            partial += pts[:, j]
            hit &= within(partial, bound)
        return hit

    def sampler():
        bufs = _simplex_buffers(d, _BLOCK)
        return lambda g, n: _sorted_simplex(g, d, n, bufs)

    return _hit_fraction(sampler, predicate, sorted_region_volume(d), cfg)


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

    The points are ``lo + (hi - lo) * U``, U read row-major from
    ``Generator.random`` (the bits of ``Generator.uniform``; see the module
    docstring for where they agree).  The affine step runs column by column
    into a Fortran-ordered array, so each coordinate column is contiguous.

    ``predicate`` receives an (n, dim) array and must return a boolean array
    (or a list of booleans) of length n; it is assumed total on the box.  It
    may run in several threads at once, and numpy's ``errstate`` does not
    reach them: a predicate that divides must set ``np.errstate`` itself.
    A box with an empty side or a volume that is not finite and positive in
    floats raises ``InconsistentInput``.
    """
    lo = np.asarray(box_lo, float)
    hi = np.asarray(box_hi, float)
    if lo.shape != hi.shape:
        raise InconsistentInput("invalid bounding box")
    lo, hi = lo.reshape(-1), hi.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
        volume = float(np.prod(span))
    if not (np.all(span > 0) and 0.0 < volume < math.inf):
        raise InconsistentInput("invalid bounding box")

    def draw(g: np.random.Generator, n: int) -> np.ndarray:
        u = g.random((n, lo.size))
        pts = np.empty_like(u, order="F")
        for j in range(lo.size):
            np.multiply(u[:, j], span[j], out=pts[:, j])
            pts[:, j] += lo[j]
        return pts

    return _hit_fraction(lambda: draw, predicate, volume, cfg)
