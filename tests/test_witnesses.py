from __future__ import annotations

import itertools

import numpy as np
import pytest

from entvol import errors
from entvol.fourqubit import (
    AXIS_TOL,
    CONVERT_TOL,
    PAULI,
    can_convert,
    eta_solve,
    povm_witness,
)

from _helpers import (
    PAIR_GENERATORS,
    Z3,
    fixed_seed_params,
    form,
    povm_witness_loop,
)

SEED = fixed_seed_params()


def F(rows):
    return form(SEED, rows)


def test_identity_witness_is_trivial():
    a = F([[0.15, 0.2, 0.1], [0.3, 0, 0], [0.1, 0, 0], Z3])
    wit = povm_witness(a, a)
    assert wit.row == "identity"
    assert len(wit.outcomes) == 1
    assert wit.probabilities[0] == pytest.approx(1.0, abs=1e-12)
    op = wit.outcomes[0][0]
    assert np.allclose(op, np.eye(2))
    # the caller's operators are its own, not the module's Pauli matrices
    assert not np.shares_memory(op, PAULI[0])


def test_not_convertible_raises():
    a = F([[0, 0, 0.2], Z3, Z3, Z3])
    b = F([[0, 0, 0.1], Z3, Z3, Z3])
    with pytest.raises(errors.NotConvertible):
        povm_witness(a, b)


def test_single_party_probabilities_follow_eta():
    gam = np.array([0.20, 0.10, -0.12])
    zet = np.array([0.25, 0.2, -0.3])
    a = F([gam, Z3, Z3, Z3])
    b = F([zet, Z3, Z3, Z3])
    wit = povm_witness(a, b)
    r = gam / zet
    p0 = 0.25 * (1 + r.sum())
    by_pattern = dict(zip(wit.pauli_patterns, wit.probabilities))
    assert by_pattern[0] == pytest.approx(p0, abs=1e-12)
    for k, (i, j) in enumerate([(1, 2), (0, 2), (0, 1)], start=1):
        expected = 0.25 * (1 + r[k - 1] - r[i] - r[j])
        assert by_pattern[k] == pytest.approx(expected, abs=1e-12)


def test_degenerate_rectangle_step_single_outcome():
    # one coordinate already in place: that step contributes no second outcome
    a = F([[0, 0.3, 0], [0.1, 0, 0], Z3, Z3])
    b = F([[0, 0.3, 0], [0.25, 0, 0], Z3, Z3])
    wit = povm_witness(a, b)
    assert wit.row == "axis_rectangle"
    assert len(wit.outcomes) == 2  # only the second party branches


def test_witness_battery_random_pairs():
    rng = np.random.default_rng(99)
    rows = ["transverse_scaling", "axis_rectangle", "single_party_general",
            "single_party_plane", "single_party_axis", "axis_to_general",
            "seed_to_general"]
    for name in rows:
        gen = PAIR_GENERATORS[name]
        for _ in range(4):
            a, b = gen(rng, SEED)
            assert can_convert(a, b), name
            wit = povm_witness(a, b)
            assert wit.completeness_residual <= 1e-12, name
            assert wit.eta_residual <= 1e-10, name
            assert wit.outcome_mismatch <= 1e-9, name
            assert sum(wit.probabilities) == pytest.approx(1.0, abs=1e-10)
            assert all(p >= -1e-12 for p in wit.probabilities)


def test_witness_axis_then_transverse_structure():
    a = F([[0.2, 0, 0], Z3, Z3, Z3])
    b = F([[0.3, 0, 0], [0, 0.1, 0.15], Z3, Z3])
    wit = povm_witness(a, b)
    assert wit.row == "axis_then_transverse"
    assert len(wit.outcomes) == 4  # two two-outcome steps composed


@pytest.mark.parametrize("final_tag", ["axis_plus_transverse", "two_axes"])
@pytest.mark.parametrize("start,n_outcomes", [("seed", 4), ("smaller", 4), ("equal", 2)])
def test_witness_axis_then_transverse_branches(start, n_outcomes, final_tag):
    # the axis party's twirl runs only when its value grows; an equal value
    # leaves the second party's twirl alone
    rng = np.random.default_rng(700)
    for _ in range(5):
        axis_party, other = (int(p) for p in rng.choice(4, size=2, replace=False))
        w = int(rng.integers(3))
        off = [u for u in range(3) if u != w]
        z = rng.uniform(0.1, 0.4)
        final = np.zeros((4, 3))
        final[axis_party, w] = z
        if final_tag == "axis_plus_transverse":
            final[other, off] = rng.uniform(0.05, 0.25, size=2) * rng.choice([-1, 1], size=2)
        else:
            final[other, rng.choice(off)] = rng.uniform(0.05, 0.35)
        initial = np.zeros((4, 3))
        if start != "seed":
            initial[axis_party, w] = z if start == "equal" else rng.uniform(0.02, z - 0.02)
        a, b = F(initial), F(final)
        wit = povm_witness(a, b)
        # an unchanged axis value makes an axis_plus_transverse target a scaling
        expected = ("transverse_scaling" if (start, final_tag) == ("equal", "axis_plus_transverse")
                    else "axis_then_transverse")
        assert can_convert(a, b).row == wit.row == expected
        assert len(wit.outcomes) == n_outcomes
        assert wit.completeness_residual <= 1e-12
        assert wit.eta_residual <= 1e-10
        assert wit.outcome_mismatch <= 1e-9
        assert sum(wit.probabilities) == pytest.approx(1.0, abs=1e-10)
        assert all(p >= -1e-12 for p in wit.probabilities)


def test_eta_completion_used_by_witness_is_feasible():
    gam = np.array([0.0, 0.1, 0.1])
    zet = np.array([0.0, 0.22, 0.19])
    eta = eta_solve(gam, zet)
    assert eta is not None
    # completion must give a valid probability vector
    from entvol.fourqubit import _eta_to_probs
    assert np.all(_eta_to_probs(eta) >= -1e-12)


def _stray_pairs():
    """One convertible pair per conversion row: the generator rows, the
    axis-then-transverse row and the identity."""
    rng = np.random.default_rng(800)
    pairs = {name: gen(rng, SEED) for name, gen in PAIR_GENERATORS.items()}
    pairs["axis_then_transverse"] = (F([[0.2, 0, 0], Z3, Z3, Z3]),
                                     F([[0.3, 0, 0], [0, 0.1, 0.15], Z3, Z3]))
    a = F([[0.15, 0.2, 0.1], [0.3, 0, 0], [0.1, 0, 0], Z3])
    pairs["identity"] = (a, a)
    return pairs


_STRAY_PAIRS = _stray_pairs()


@pytest.mark.parametrize("name", sorted(_STRAY_PAIRS))
def test_stray_components_decided_once(name):
    # A stray value on a zero component of the initial state, the final state
    # or both: the verdict and the witness must agree, and at most AXIS_TOL
    # the stray is zero everywhere, so nothing changes.
    a, b = _STRAY_PAIRS[name]
    clean = can_convert(a, b)
    assert clean.row == povm_witness(a, b).row
    mags = (1e-14, 1e-12, 5e-11, 1e-10, 5e-10, 1e-9)
    for where in itertools.product(mags, ((0,), (1,), (0, 1)), range(4), range(3)):
        mag, members, party, comp = where
        rows = [a.gammas.copy(), b.gammas.copy()]
        if any(rows[m][party, comp] != 0 for m in members):
            continue
        for m in members:
            rows[m][party, comp] = mag if (party + comp) % 2 == 0 else -mag
        x, y = F(rows[0]), F(rows[1])
        verdict = can_convert(x, y)
        if mag <= AXIS_TOL:
            assert verdict == clean, where
        try:
            wit = povm_witness(x, y)
        except errors.NotConvertible:
            assert not verdict, where
            continue
        assert verdict.row == wit.row, where
        assert wit.completeness_residual <= 1e-12, where
        assert wit.outcome_mismatch <= 1e-9, where
        # a stray above AXIS_TOL on one state only is a real difference of
        # the two states, which the 1e-9 agreement of frozen values lets
        # through and the eta residual reports
        one_sided = len(members) == 1 and mag > AXIS_TOL
        assert wit.eta_residual <= (mag if one_sided else 1e-10), where


@pytest.mark.parametrize("name", sorted(_STRAY_PAIRS))
def test_batched_witness_matches_outcome_loop(name):
    # the row's stray-test pair, and for a generator row six more seeded pairs
    rng = np.random.default_rng(900)
    pairs = [_STRAY_PAIRS[name]]
    if name in PAIR_GENERATORS:
        pairs += [PAIR_GENERATORS[name](rng, SEED) for _ in range(6)]
    for a, b in pairs:
        wit, ref = povm_witness(a, b), povm_witness_loop(a, b)
        assert wit.row == ref.row
        assert len(wit.outcomes) == len(ref.outcomes)
        assert wit.pauli_patterns == ref.pauli_patterns
        assert np.max(np.abs(np.subtract(wit.probabilities, ref.probabilities))) <= 1e-14
        for ops, ref_ops in zip(wit.outcomes, ref.outcomes):
            assert np.max(np.abs(np.subtract(ops, ref_ops))) <= 1e-14
        for field in ("completeness_residual", "eta_residual", "outcome_mismatch"):
            assert abs(getattr(wit, field) - getattr(ref, field)) <= 1e-14, field
        assert wit.outcome_mismatch >= 0.0


def _band_pairs():
    """One pair per row at the boundary of its comparisons, where two compared
    values coincide, plus the two pairs whose 5e-10 gap a row once accepted
    without a complete witness."""
    zeta = np.array([0.3, 0.25, -0.2])
    eta = np.array([0.6, 0.2, -0.2])  # on a face of the tetrahedron: p_z = 0
    return {
        "identity": ([[0, 0, 0.3], Z3, Z3, Z3], [[0, 0, 0.3], Z3, Z3, Z3]),
        "identity_gap": ([[0, 0, 0.3], Z3, Z3, Z3], [[0, 0, 0.3 - 5e-10], Z3, Z3, Z3]),
        "transverse_scaling": ([[0.2, 0.1, 0.05], [0.3, 0, 0], Z3, Z3],
                               [[0.2, 0.2, 0.1], [0.3, 0, 0], Z3, Z3]),
        "axis_rectangle": ([[0, 0.3, 0], [0.1, 0, 0], Z3, Z3],
                           [[0, 0.3, 0], [0.2, 0, 0], Z3, Z3]),
        "axis_rectangle_gap": ([[0, 0.3, 0], [0.1, 0, 0], Z3, Z3],
                               [[0, 0.3 - 5e-10, 0], [0.2, 0, 0], Z3, Z3]),
        "single_party_general": ([eta * zeta, Z3, Z3, Z3], [zeta, Z3, Z3, Z3]),
        "single_party_plane": ([[0, 0.3, 0.1], Z3, Z3, Z3], [[0, 0.3, 0.2], Z3, Z3, Z3]),
        "axis_then_transverse": ([[0.2, 0, 0], Z3, Z3, Z3],
                                 [[0.2, 0, 0], [0, 0.1, 0.15], Z3, Z3]),
    }


_BAND_PAIRS = _band_pairs()


@pytest.mark.parametrize("name", sorted(_BAND_PAIRS))
def test_band_verdict_has_witness(name):
    # Each nonzero component of either state, moved by up to twice
    # CONVERT_TOL: can_convert says yes exactly when povm_witness returns, and
    # every witness meets the bounds its acceptance promises.
    rows = [np.array(r, dtype=float) for r in _BAND_PAIRS[name]]
    outcomes = set()
    for member, party, comp in itertools.product(range(2), range(4), range(3)):
        if rows[member][party, comp] == 0:
            continue
        for move in (1e-12, 5e-10, 1e-9, 2e-9, -1e-12, -5e-10, -1e-9, -2e-9):
            moved = [r.copy() for r in rows]
            moved[member][party, comp] += move
            x, y = F(moved[0]), F(moved[1])
            case = (member, party, comp, move)
            verdict = can_convert(x, y)
            try:
                wit = povm_witness(x, y)
            except errors.NotConvertible:
                assert not verdict, case
                outcomes.add(False)
                continue
            assert verdict and verdict.row == wit.row, case
            assert wit.completeness_residual <= 1e-12, case
            assert wit.outcome_mismatch <= 1e-9, case
            assert wit.eta_residual <= CONVERT_TOL + 1e-12, case
            outcomes.add(True)
    # the moves cross the band: some verdicts are yes and some are no
    assert outcomes == {True, False}
