"""Cross-checks of the benchmark's references against each other.

    python3 bench/selfcheck.py

Uses no entvol code.  Each line is one check; the exit code is 1 if any fails.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refs  # noqa: E402


def rel(x: float, y: float, scale: float) -> float:
    return abs(x - y) / max(abs(y), scale)


def vectors(rng, d: int, n: int):
    """Dirichlet vectors, half of them with a tie between two neighbours."""
    for i in range(n):
        lam = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        if i % 2:
            j = int(rng.integers(0, d - 1))
            lam[j] = lam[j + 1] = (lam[j] + lam[j + 1]) / 2
        yield tuple(lam / lam.sum())


def main() -> int:
    rng = np.random.default_rng(2026)
    results = []

    # exact d!-term sum against the source chamber's volume, d = 2..8
    worst = 0.0
    for d in range(2, 9):
        region = refs.chamber_region_volume(d)
        for lam in vectors(rng, d, 6 if d < 8 else 2):
            exact = float(1 - refs.source_entanglement_exact(lam)) * region
            worst = max(worst, rel(refs.chamber_volume(lam, "source"), exact, 1e-12 * region))
    results.append(("exact source sum = source chamber volume (d = 2..8)", worst, 1e-11))

    # two qubits: E_s = E_a = 2 (1 - lambda_1), against both chambers
    worst = 0.0
    region = refs.chamber_region_volume(2)
    for lam in vectors(rng, 2, 20):
        e = refs.two_qubit_entanglement(lam)
        worst = max(worst, abs(1 - refs.chamber_volume(lam, "source") / region - e),
                    abs(refs.chamber_volume(lam, "accessible") / region - e))
    results.append(("two-qubit closed form = chamber volumes", worst, 1e-12))

    # two qutrits: all four closed forms
    worst = 0.0
    for lam in vectors(rng, 3, 30):
        f = refs.two_qutrit_forms(lam)
        worst = max(
            worst,
            abs(f["E_s"] - float(refs.source_entanglement_exact(lam))),
            rel(f["V_a"], refs.chamber_volume(lam, "accessible"), 1e-12),
            abs(f["E_a_k2"] - refs.chamber_volume(lam, "accessible", 2) / refs.chamber_region_volume(2)),
            abs(f["E_s_k4"] - float(refs.source_entanglement_exact(lam + (0.0,))
                                    / refs.source_entanglement_exact((1 / 3,) * 3 + (0.0,)))),
        )
    results.append(("two-qutrit closed forms = exact sum and chambers", worst, 1e-11))

    # boundary states: separable and flat, d = 2..10
    worst = 0.0
    for d in range(2, 11):
        sep, flat = (1.0,) + (0.0,) * (d - 1), (1.0 / d,) * d
        region = refs.chamber_region_volume(d)
        worst = max(worst, rel(refs.chamber_volume(sep, "source"), region, 1e-300),
                    refs.chamber_volume(flat, "source"), refs.chamber_volume(sep, "accessible"),
                    rel(refs.chamber_volume(flat, "accessible"), region, 1e-300))
    results.append(("chambers of the separable and flat states (d = 2..10)", worst, 1e-12))

    # the Case-III region: its limit, and a 2-D region has no 3-D volume
    est, sig = refs.caseiii_volume(np.full(3, 1e-6), np.random.default_rng(1), 2_000_000)
    results.append(("Case-III region -> half ball as gamma -> 0 (sigmas)",
                     abs(est - math.pi / 12) / sig, 5.0))
    est, _ = refs.caseiii_volume(np.array([0.0, 0.3, 0.3]), np.random.default_rng(2), 500_000)
    results.append(("Case-III region with a 2-D reachable set is empty", est, 0.0))

    # Case-III replay of a Philox plan against an independent generator
    gam = np.array([0.12, -0.05, 0.2])
    replay = refs.caseiii_replay([gam], 77, 2_000_000)[0]
    est, sig = refs.caseiii_volume(gam, np.random.default_rng(3), 2_000_000)
    results.append(("Case-III replay vs own estimate (sigmas)", abs(replay - est) / (sig * math.sqrt(2)), 5.0))

    # the disc corner against a 2-D sample
    u, v = 0.2, 0.15
    pts = np.random.default_rng(4).uniform(0, 0.5, size=(2_000_000, 2))
    hits = (pts[:, 0] >= u) & (pts[:, 1] >= v) & ((pts ** 2).sum(axis=1) <= 0.25)
    p = hits.mean()
    results.append(("disc corner quadrature vs sample (sigmas)",
                    abs(refs.disc_corner(u, v) - 0.25 * p) / (0.25 * math.sqrt(p * (1 - p) / len(pts))), 5.0))

    # axis_only at value 0 reaches everything the seed's axis family can
    ax = refs.case_volumes("axis_only", {"value": 0.0})
    results.append(("axis_only accessible volume at 0 = its normalization", abs(ax["E_a"] - 1), 1e-15))

    # state vectors: the closed-form Gram root, and the sigma_k^(x4) seed symmetry
    worst = 0.0
    for _ in range(20):
        gam = rng.uniform(-0.25, 0.25, size=3)
        g = refs.gram_sqrt(gam)
        target = 0.5 * refs.PAULI[0] + sum(gam[k] * refs.PAULI[k + 1] for k in range(3))
        worst = max(worst, float(np.max(np.abs(g @ g - target))))
        seed = (0.6, 0.5 + 0.1j, 0.25 - 0.35j, math.sqrt(0.195))
        v = refs.seed_vector(*seed)
        for k in range(4):
            worst = max(worst, float(np.max(np.abs(refs.kron_all([refs.PAULI[k]] * 4) @ v - v))))
        gammas = rng.uniform(-0.2, 0.2, size=(4, 3))
        for k in range(1, 4):
            a = refs.state_vector(seed, gammas)
            b = refs.kron_all([refs.PAULI[k]] * 4) @ refs.state_vector(seed, gammas * refs.KLEIN[k])
            worst = max(worst, 1 - abs(np.vdot(a, b)))
    results.append(("Gram roots, seed symmetry and sign gauges of state vectors", worst, 1e-12))

    failed = 0
    for name, value, bound in results:
        ok = value <= bound
        failed += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {value:.2e} (bound {bound:.0e})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
