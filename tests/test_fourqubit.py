from __future__ import annotations

import copy
import itertools
import math
import pickle

import numpy as np
import pytest

from entvol import errors
from entvol.fourqubit import (
    AXIS_TOL,
    GAMMA_NORM_MAX,
    KLEIN_SIGNS,
    FourQubitForm,
    SeedParams,
    TAG_AXIS_ONLY,
    TAG_AXIS_TRANSVERSE,
    TAG_GENERAL_ONE,
    TAG_GENERAL_PLUS_AXES,
    TAG_ISOLATED,
    TAG_MES,
    TAG_SEED,
    TAG_TWO_AXES,
    _caseiii_predicate,
    _classify_at,
    _inv2,
    build_seed,
    can_convert,
    caseiii_3d_feasible,
    caseiii_accessible_mc,
    classify,
    disc_corner_area,
    entanglement_4q,
    eta_solve,
    gram_matrix,
    kron4,
    random_seed_params,
    sqrt_g,
    standard_form,
    PAULI,
)
from entvol.oracle import McConfig

from _helpers import (
    Z3,
    caseiii_predicate_reference,
    classify_at_reference,
    fixed_seed_params,
    form,
    kron_chain,
    random_iiia_pair,
    sqrt_g_eigh,
    standard_signs_reference,
)

SEED = fixed_seed_params()


def F(rows):
    return form(SEED, rows)


# -- seed states --------------------------------------------------------------

def test_seed_vector_plain_layout():
    v = build_seed(SeedParams(1.0, 0.0, 0.0, 0.0), validate=False)
    expected = np.zeros(16)
    for ket in ("0000", "0011", "1100", "1111"):
        expected[int(ket, 2)] = 0.5
    assert np.allclose(v, expected)


def test_seed_fourfold_pauli_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = build_seed(random_seed_params(rng))
        for k in range(4):
            U = kron4(PAULI[k], PAULI[k], PAULI[k], PAULI[k])
            assert np.max(np.abs(U @ v - v)) < 1e-12


def test_seed_params_validation():
    with pytest.raises(errors.InvalidSeedParams):
        SeedParams(1.0, 0.0, 0.0, 0.0).validate()       # coincident squares
    with pytest.raises(errors.InvalidSeedParams):
        SeedParams(0.9, 0.1, 0.2, 0.3).validate()       # not normalized
    for bad in (SeedParams(math.nan, 0.5, 0.5, 0.5),
                SeedParams(0.5, complex(0.5, math.inf), 0.5, 0.5)):
        with pytest.raises(errors.InvalidSeedParams, match="finite"):
            bad.validate()
    random_seed_params(np.random.default_rng(5)).validate()


def test_seed_validated_once_at_default_tolerance(monkeypatch):
    from entvol import fourqubit

    scans = []
    real = fourqubit._square_ratios
    monkeypatch.setattr(fourqubit, "_square_ratios", lambda sq, tol: scans.append(tol) or real(sq, tol))
    seed = SeedParams(0.6, 0.5 + 0.1j, 0.25 - 0.35j, complex(math.sqrt(0.195)))
    for _ in range(3):
        seed.validate()
        build_seed(seed)
        FourQubitForm(seed, np.zeros((4, 3))).state_vector()
    assert scans == [1e-9]
    seed.validate(tol=0.03)  # another tolerance scans again, every time
    seed.validate(tol=0.03)
    assert scans == [1e-9, 0.03, 0.03]
    twin = SeedParams(seed.a, seed.b, seed.c, seed.d)
    assert twin == seed and hash(twin) == hash(seed)
    assert pickle.loads(pickle.dumps(seed)) == seed

    bad = SeedParams(1.0, 0.0, 0.0, 0.0)  # coincident squares
    for _ in range(2):
        with pytest.raises(errors.InvalidSeedParams):
            bad.validate()
        with pytest.raises(errors.InvalidSeedParams):
            build_seed(bad)
    assert np.count_nonzero(build_seed(bad, validate=False)) == 4
    unnormalized = SeedParams(0.9, 0.1, 0.2, 0.3)
    with pytest.raises(errors.InvalidSeedParams, match="expected 1"):
        unnormalized.validate(tol=0.03)
    with pytest.raises(errors.InvalidSeedParams, match="expected 1"):
        unnormalized.validate()


def test_form_json_roundtrip():
    a = F([[0.1, 0.2, -0.3], [0.05, 0, 0], Z3, Z3])
    b = FourQubitForm.from_json(a.to_json())
    assert np.allclose(a.gammas, b.gammas)
    assert a.seed.b == b.seed.b
    payload = a.to_json()
    payload["seed"]["a"] = math.nan
    with pytest.raises(errors.InvalidSeedParams):
        FourQubitForm.from_json(payload)


def test_gamma_norm_guard():
    with pytest.raises(errors.UnclassifiedForm):
        F([[0.5, 0.1, 0.0], Z3, Z3, Z3])


# -- closed forms -------------------------------------------------------------

def _gamma_corpus() -> list[np.ndarray]:
    """Seeded gammas with |gamma| from 0 to GAMMA_NORM_MAX: zero, both signs
    of each axis at a ladder of norms, and random directions at random norms
    and at the bound."""
    rng = np.random.default_rng(41)
    out = [np.zeros(3)]
    for r in (1e-12, 1e-6, 0.1, 0.25, 0.4, 0.49, 0.4999, 0.5 - 1e-9, GAMMA_NORM_MAX):
        for ax, sign in itertools.product(range(3), (1.0, -1.0)):
            g = np.zeros(3)
            g[ax] = sign * r
            out.append(g)
    for _ in range(400):
        v = rng.normal(size=3)
        r = GAMMA_NORM_MAX if rng.random() < 0.1 else rng.uniform(0.0, GAMMA_NORM_MAX)
        out.append(r * v / np.linalg.norm(v))
    return out


_GAMMAS = _gamma_corpus()


def test_sqrt_g_squares_to_gram_matrix():
    for g in _GAMMAS:
        s = sqrt_g(g)
        assert np.max(np.abs(s @ s - gram_matrix(g))) <= 1e-15, g
        assert np.array_equal(s, s.conj().T), g
        assert np.min(np.linalg.eigvalsh(s)) >= 0.0, g


def test_sqrt_g_agrees_with_eigh_and_its_inverse():
    inner = [g for g in _GAMMAS if np.linalg.norm(g) <= 0.49]
    assert len(inner) > 300
    for g in inner:
        s = sqrt_g(g)
        assert np.max(np.abs(s - sqrt_g_eigh(g))) <= 1e-14, g
        assert np.max(np.abs(_inv2(s) @ s - np.eye(2))) <= 1e-12, g


def test_kron4_is_the_kron_chain():
    rng = np.random.default_rng(42)
    for _ in range(50):
        ops = [sqrt_g(_GAMMAS[i]) if rng.random() < 0.7 else PAULI[rng.integers(4)]
               for i in rng.integers(len(_GAMMAS), size=4)]
        assert np.max(np.abs(kron4(*ops) - kron_chain(*ops))) <= 1e-15
    # a stack of operators per party gives one product per stack index
    stack = np.array([[sqrt_g(_GAMMAS[i]) for i in rng.integers(len(_GAMMAS), size=4)]
                      for _ in range(6)])
    batched = kron4(*stack.transpose(1, 0, 2, 3))
    assert batched.shape == (6, 16, 16)
    for ops, m in zip(stack, batched):
        assert np.max(np.abs(m - kron_chain(*ops))) <= 1e-15


# -- standard form ------------------------------------------------------------

def test_standard_form_flips_two_signs():
    sf = standard_form(F([[-0.1, -0.2, 0.3], Z3, Z3, Z3]))
    assert np.allclose(sf.gammas[0], [0.1, 0.2, 0.3])


def test_standard_form_third_sign_free():
    sf = standard_form(F([[0.1, 0.2, -0.3], Z3, Z3, Z3]))
    assert np.allclose(sf.gammas[0], [0.1, 0.2, -0.3])


def test_standard_form_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = rng.uniform(-0.25, 0.25, size=(4, 3))
        once = standard_form(F(g))
        twice = standard_form(once)
        assert np.allclose(once.gammas, twice.gammas)


def test_standard_form_detects_lu_equivalence():
    g = np.array([[0.1, 0.2, -0.3], [0.15, 0, 0], Z3, Z3])
    flipped = g * np.array([1.0, -1.0, -1.0])  # one seed symmetry applied
    a = standard_form(F(g))
    b = standard_form(F(flipped))
    assert np.allclose(a.gammas, b.gammas)


def _sign_corpus() -> list[np.ndarray]:
    """Seeded gammas whose Klein variants tie after rounding to 14 decimals.
    Two variants tie when every column on which their signs differ rounds to
    zero, so each column draws either from values that round to zero (0,
    1e-15, 4.9e-15 and the half-way 5e-15) or from those, the values just
    past the rounding boundary, values one 15th decimal apart and random
    values."""
    rng = np.random.default_rng(43)
    vanishing = [0.0, 1e-15, 4.9e-15, 5e-15]
    mixed = vanishing + [5.1e-15, 1e-14, 1.5e-14, 0.1, 0.1 + 3e-15, 0.123456789012345]
    out = []
    for _ in range(3000):
        g = np.empty((4, 3))
        for c in range(3):
            if rng.random() < 0.5:
                g[:, c] = rng.choice(vanishing, size=4)
            else:
                g[:, c] = rng.choice(mixed, size=4)
                mask = rng.random(4) < 0.2
                g[mask, c] = rng.uniform(-0.25, 0.25, size=mask.sum())
        out.append(g * rng.choice([-1.0, 1.0], size=(4, 3)))
    return out


def test_standard_form_sign_is_the_four_call_rule():
    ties = 0
    for g in _sign_corpus():
        expected = g * standard_signs_reference(g)
        assert standard_form(F(g)).gammas.tobytes() == expected.tobytes(), g
        keys = [tuple(np.round(g * s, 14).ravel()) for s in KLEIN_SIGNS]
        ties += len(set(keys)) < 4
    assert ties > 1000  # the corpus does reach ties


def _typed(x):
    """x with every leaf paired with its type, so that equality compares types."""
    if isinstance(x, dict):
        return {k: _typed(v) for k, v in x.items()}
    if isinstance(x, tuple):
        return tuple(_typed(v) for v in x)
    return type(x), x


def test_classify_at_matches_numpy_supports_on_every_pattern():
    rng = np.random.default_rng(44)
    for pattern in range(1 << 12):
        support = np.array([(pattern >> b) & 1 for b in range(12)], dtype=bool).reshape(4, 3)
        g = np.where(support, rng.uniform(0.01, 0.28, size=(4, 3))
                     * rng.choice([-1.0, 1.0], size=(4, 3)), 0.0)
        assert _typed(_classify_at(g)) == _typed(classify_at_reference(g)), pattern


# -- classification -----------------------------------------------------------

def test_classify_examples():
    assert classify(F([Z3, Z3, Z3, Z3])).tag == TAG_SEED
    assert classify(F([[0.15, 0.2, 0.1], [0.3, 0, 0], [0.1, 0, 0], Z3])).tag == TAG_GENERAL_PLUS_AXES
    assert classify(F([[0, 0.25, 0], [0.1, 0, 0], Z3, Z3])).tag == TAG_TWO_AXES
    assert classify(F([[0.2, 0, 0], Z3, Z3, Z3])).tag == TAG_AXIS_ONLY
    assert classify(F([[0.23, 0.13, 0.15], Z3, Z3, Z3])).tag == TAG_GENERAL_ONE
    assert classify(F([[0.2, 0, 0], [0.1, 0, 0], Z3, Z3])).tag == TAG_MES
    assert classify(F([[0.2, 0, 0], [0, 0.1, 0.15], Z3, Z3])).tag == TAG_AXIS_TRANSVERSE
    assert classify(F([[0.2, 0.1, 0], [0, 0.1, 0.15], Z3, Z3])).tag == TAG_ISOLATED


def test_classify_transverse_general_party_with_two_axis_parties():
    # general party may have zero component along the common axis
    cls = classify(F([[0, 0.2, 0.1], [0.3, 0, 0], [0.1, 0, 0], Z3]))
    assert cls.tag == TAG_GENERAL_PLUS_AXES


def test_classify_near_miss_diagnostic():
    # two parties carry tiny off-axis residues: no single general party fits
    cls = classify(F([[0.2, 1e-8, 0], [0.1, 1e-8, 0], [0.05, 0, 0], Z3]))
    assert cls.tag == TAG_ISOLATED
    assert cls.diagnostic is not None
    # residues below the alignment tolerance classify cleanly
    ok = classify(F([[0.2, 1e-12, 0], [0.1, 1e-12, 0], [0.05, 0, 0], Z3]))
    assert ok.tag == TAG_MES


def test_tiny_supports_keep_their_tag_and_note_the_near_miss():
    # magnitude 1e-7 lies in (AXIS_TOL, 1e-6]: the exact support decides the tag,
    # and the near-miss pass zeroes it all, which is the seed, in the family
    assert AXIS_TOL < 1e-7 <= 1e-6
    for mask in range(1, 1 << 12):
        support = np.array([mask >> b & 1 for b in range(12)], float).reshape(4, 3)
        tiny, plain = classify(F(1e-7 * support)), classify(F(0.1 * support))
        assert tiny.tag == plain.tag, mask
        if tiny.tag == TAG_ISOLATED:
            assert tiny.diagnostic is not None and plain.diagnostic is None, mask


# -- eta predicate ------------------------------------------------------------

def test_eta_solve_basics():
    assert eta_solve(np.zeros(3), np.zeros(3)) is not None            # trivial
    assert eta_solve(np.array([0.1, 0, 0]), np.array([0.2, 0, 0])) is not None
    assert eta_solve(np.array([0.2, 0, 0]), np.array([0.1, 0, 0])) is None
    assert eta_solve(np.array([0.1, 0.05, 0]), np.zeros(3)) is None   # cannot erase
    # all-forced case: ratios must sit inside the tetrahedron
    gam = np.array([0.2, 0.1, -0.12])
    zet = np.array([0.25, 0.2, -0.3])
    eta = eta_solve(gam, zet)
    assert eta is not None and np.allclose(eta * zet, gam)


def test_eta_solve_respects_tetrahedron_facets():
    # ratios (0.9, 0.1, 0.1) violate 1 - r1 - r2 + r3 >= 0 when signs align badly
    gam = np.array([0.36, 0.02, -0.02])
    zet = np.array([0.4, 0.2, 0.2])
    eta = eta_solve(gam, zet)
    assert eta is None


# -- convertibility -----------------------------------------------------------

def test_convert_requires_same_class():
    other = random_seed_params(np.random.default_rng(77))
    with pytest.raises(errors.DifferentSLOCCClass):
        can_convert(F([Z3, Z3, Z3, Z3]), form(other, [Z3, Z3, Z3, Z3]))


def test_convert_reflexive():
    a = F([[0.15, 0.2, 0.1], [0.3, 0, 0], [0.1, 0, 0], Z3])
    v = can_convert(a, a)
    assert v and v.row == "identity"


def test_convert_scaling_row():
    a = F([[0.15, 0.2, 0.1], [0.3, 0, 0], [0.1, 0, 0], Z3])
    b = F([[0.15, 0.3, 0.15], [0.3, 0, 0], [0.1, 0, 0], Z3])
    v = can_convert(a, b)
    assert v and v.row == "transverse_scaling"
    assert not can_convert(b, a)
    # axis value must stay frozen
    c = F([[0.16, 0.3, 0.15], [0.3, 0, 0], [0.1, 0, 0], Z3])
    assert not can_convert(a, c)


def test_convert_rectangle_row():
    a = F([[0, 0.3, 0], [0.1, 0, 0], Z3, Z3])
    bad = F([[0, 0.2, 0], [0.2, 0, 0], Z3, Z3])
    assert not can_convert(a, bad)          # 0.3 > 0.2 shrinks a coordinate
    good = F([[0, 0.42, 0], [0.33, 0, 0], Z3, Z3])
    v = can_convert(a, good)
    assert v and v.row == "axis_rectangle"


def test_convert_single_party_rows():
    i1 = F([[0.20, 0.10, -0.12], Z3, Z3, Z3])
    f1 = F([[0.25, 0.2, -0.3], Z3, Z3, Z3])
    assert can_convert(i1, f1).row == "single_party_general"
    i2 = F([[0, 0.1, 0.1], Z3, Z3, Z3])
    f2 = F([[0, 0.2, 0.15], Z3, Z3, Z3])
    assert can_convert(i2, f2).row == "single_party_plane"
    i3 = F([[0, 0, 0.1], Z3, Z3, Z3])
    f3 = F([[0, 0, 0.2], Z3, Z3, Z3])
    assert can_convert(i3, f3).row == "single_party_axis"
    assert not can_convert(f3, i3)


def test_convert_axis_opens_to_general():
    i = F([[0.1, 0, 0], Z3, Z3, Z3])
    f = F([[0.2, 0.1, -0.05], Z3, Z3, Z3])
    v = can_convert(i, f)
    assert v and v.row == "single_party_general"
    smaller = F([[0.05, 0.1, 0.05], Z3, Z3, Z3])
    assert not can_convert(i, smaller)  # axis component would shrink


def test_convert_seed_reaches_reachable_classes():
    s = F([Z3, Z3, Z3, Z3])
    targets = [
        F([[0.23, 0.13, 0.15], Z3, Z3, Z3]),
        F([[0.2, 0, 0], Z3, Z3, Z3]),
        F([[0.3, 0, 0], [0, 0.1, 0.15], Z3, Z3]),
        F([[0, 0.25, 0], [0.1, 0, 0], Z3, Z3]),
    ]
    for t in targets:
        assert can_convert(s, t)
    # but nothing reaches the seed or an aligned multi-party state
    assert not can_convert(targets[0], s)
    mes = F([[0.2, 0, 0], [0.1, 0, 0], Z3, Z3])
    assert not can_convert(targets[1], mes)


def test_convert_mes_opens_one_disc():
    mes = F([[0.2, 0, 0], [0.1, 0, 0], Z3, Z3])
    f = F([[0.2, 0.1, -0.2], [0.1, 0, 0], Z3, Z3])
    v = can_convert(mes, f)
    assert v and v.row == "transverse_scaling"
    # axis values are pinned per party
    bad = F([[0.1, 0.1, -0.2], [0.2, 0, 0], Z3, Z3])
    assert not can_convert(mes, bad)


def test_convert_party_labels_are_rigid():
    # the local operator cannot migrate to a different party by LOCC:
    # the per-party twirl condition fails on both parties involved
    i = F([Z3, [0, 0, 0.1], Z3, Z3])
    f = F([[0, 0, 0.2], Z3, Z3, Z3])
    assert not can_convert(i, f)
    matched = F([Z3, [0, 0, 0.2], Z3, Z3])
    assert can_convert(i, matched)


@pytest.mark.parametrize("initial,final,row_without_stray", [
    # scaling: a second party off the target's axis z
    ([[0, 5e-10, 0.04], Z3, [0, 0, 0.23], Z3], [[0, 0, 0.04], Z3, [-0.08, 0, 0.23], Z3],
     "transverse_scaling"),
    # rectangle: the initial's axis parties are not the target's
    ([[0, 0, 5e-10], Z3, Z3, [-0.03, 0, 0]], [Z3, [0, 0, 0.23], Z3, [-0.07, 0, 0]],
     "axis_then_transverse"),
    # single party: the initial's party is not the target's
    ([Z3, Z3, Z3, [0, 0, 5e-10]], [[0, 0, 0.21], Z3, Z3, Z3], "single_party_axis"),
    # axis then transverse: the initial's axis party is not the target's
    ([Z3, Z3, Z3, [0, 0, 5e-10]], [[0.2, 0, 0], [0, 0.1, 0.15], Z3, Z3],
     "axis_then_transverse"),
], ids=["scaling", "rectangle", "single_party", "axis_then_transverse"])
def test_convert_rows_refuse_a_stray_band_component(initial, final, row_without_stray):
    # the stray 5e-10 lies in (AXIS_TOL, CONVERT_TOL]: classify keeps it, and
    # the twirls would reproduce it to CONVERT_TOL, so only the row's support
    # test refuses the pair
    v = can_convert(F(initial), F(final))
    assert (v.convertible, v.detail) == (False, "no transformation row applies")
    cleaned = np.where(np.abs(initial) == 5e-10, 0.0, initial)
    assert can_convert(F(cleaned), F(final)).row == row_without_stray


def test_convert_transitive_chains():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a, b = random_iiia_pair(rng, SEED)
        c, d = random_iiia_pair(rng, SEED)
        # build a chain a -> b and b -> (scaled copy): check a -> chain end
        if can_convert(a, b) and can_convert(b, d) and can_convert(a, d):
            pass  # transitivity can only be confirmed when the middle leg exists
        if can_convert(a, b) and can_convert(b, d):
            assert can_convert(a, d)


# -- volumes and measures -----------------------------------------------------

def test_volumes_scaling_family():
    cls = classify(F([[0.15, 0.2, 0.1], [0.3, 0, 0], [0.1, 0, 0], Z3]))
    s_rep, a_rep = entanglement_4q(cls)
    assert (s_rep.dimension, s_rep.volume) == (1, pytest.approx(math.sqrt(0.05), abs=1e-12))
    assert a_rep.dimension == 1 and a_rep.abs_err == 0.0
    assert a_rep.volume == pytest.approx(math.sqrt(0.2275) - math.sqrt(0.05), abs=1e-12)
    assert s_rep.entanglement == pytest.approx(1 - 2 * math.sqrt(0.05), abs=1e-12)
    assert a_rep.entanglement == pytest.approx(2 * (math.sqrt(0.2275) - math.sqrt(0.05)), abs=1e-12)


def test_volumes_mes():
    cls = classify(F([[0.2, 0, 0], [0.1, 0, 0], Z3, Z3]))
    s_rep, a_rep = entanglement_4q(cls)
    assert (s_rep.dimension, s_rep.volume) == (0, 0.0)
    expected = math.pi * (4 * 0.25 - 0.2 ** 2 - 0.1 ** 2)
    assert a_rep.dimension == 2 and a_rep.volume == pytest.approx(expected, abs=1e-12)
    assert s_rep.entanglement == 1.0
    assert a_rep.entanglement == pytest.approx(expected / math.pi, abs=1e-12)


def test_volumes_rectangle_family():
    cls = classify(F([[0, 0.3, 0], [0.1, 0, 0], Z3, Z3]))
    s_rep, a_rep = entanglement_4q(cls)
    assert (s_rep.dimension, s_rep.volume) == (2, pytest.approx(4 * 0.3 * 0.1, abs=1e-14))
    assert a_rep.dimension == 2 and a_rep.volume == pytest.approx(0.2 * 0.4, abs=1e-14)
    assert s_rep.entanglement == pytest.approx(1 - 0.12, abs=1e-12)
    assert a_rep.entanglement == pytest.approx(4 * 0.08, abs=1e-12)


def test_volumes_single_general_party():
    cls = classify(F([[0.23, 0.13, 0.15], Z3, Z3, Z3]))
    s_rep, _ = entanglement_4q(cls, McConfig(samples=2000, seed=1))
    assert s_rep.dimension == 3
    assert s_rep.volume == pytest.approx(2 / 3 * 0.23 * 0.13 * 0.15, abs=1e-15)
    assert s_rep.entanglement == pytest.approx(1 - 24 * math.sqrt(3) * 0.23 * 0.13 * 0.15, abs=1e-12)


def test_volumes_one_component_zero_branches():
    wide = classify(F([[0, 0.1, 0.1], Z3, Z3, Z3]))
    assert caseiii_3d_feasible(0.1, 0.1)
    s_rep, a_rep = entanglement_4q(wide, McConfig(samples=200_000, seed=4))
    assert a_rep.dimension == 3 and a_rep.abs_err > 0.0
    assert (s_rep.dimension, s_rep.volume) == (2, pytest.approx(0.01, abs=1e-15))

    narrow = classify(F([[0, 0.24, 0.24], Z3, Z3, Z3]))
    assert not caseiii_3d_feasible(0.24, 0.24)
    _, a_rep = entanglement_4q(narrow)
    assert a_rep.dimension == 2 and a_rep.abs_err == 0.0
    assert a_rep.volume == pytest.approx(disc_corner_area(0.24, 0.24), abs=1e-15)
    # the 3D region really is empty: no Monte-Carlo hits
    mc = caseiii_accessible_mc(np.array([0.24, 0.24, 0.0]), McConfig(samples=100_000, seed=5))
    assert mc.estimate == 0.0


def test_volumes_axis_only():
    cls = classify(F([[0.2, 0, 0], Z3, Z3, Z3]))
    s_rep, a_rep = entanglement_4q(cls)
    assert (s_rep.dimension, s_rep.volume) == (1, pytest.approx(0.2, abs=1e-15))
    assert a_rep.dimension == 3
    assert a_rep.volume == pytest.approx(math.pi / 48 * (11 + 1.6 * (0.04 - 3)), abs=1e-12)
    assert a_rep.entanglement == pytest.approx(1 + 8 / 11 * 0.2 * (0.04 - 3), abs=1e-12)


def test_volumes_axis_plus_transverse():
    cls = classify(F([[0.3, 0, 0], [0, 0.1, 0.15], Z3, Z3]))
    t = math.hypot(0.1, 0.15)
    s_rep, a_rep = entanglement_4q(cls)
    assert (s_rep.dimension, s_rep.volume) == (1, pytest.approx(0.3 + t, abs=1e-12))
    assert a_rep.dimension == 1 and a_rep.volume == pytest.approx(0.5 - t, abs=1e-12)
    assert s_rep.entanglement == pytest.approx(1 - (0.3 + t), abs=1e-12)


def test_volumes_seed():
    cls = classify(F([Z3, Z3, Z3, Z3]))
    s_rep, a_rep = entanglement_4q(cls)
    assert (s_rep.dimension, s_rep.volume) == (0, 0.0)
    assert a_rep.dimension == 3 and a_rep.volume == 29 * math.pi / 12
    assert s_rep.entanglement == 1.0 and a_rep.entanglement == 1.0
    # the closed form survives copies and pickles of the report
    for rep in (copy.deepcopy(a_rep), pickle.loads(pickle.dumps(a_rep))):
        assert rep == a_rep and rep.v_sup.text == "29*pi/12"


def test_measures_ignore_seed_parameters():
    rng = np.random.default_rng(9)
    g = [[0.15, 0.2, 0.1], [0.3, 0, 0], [0.1, 0, 0], Z3]
    reports = []
    for _ in range(2):
        sp = random_seed_params(rng)
        s_rep, a_rep = entanglement_4q(classify(form(sp, g)))
        reports.append((s_rep.entanglement, a_rep.entanglement, s_rep.volume, a_rep.volume))
    assert reports[0] == reports[1]


def test_caseiii_mc_toward_seed_quadrant():
    tiny = np.full(3, 1e-5)
    res = caseiii_accessible_mc(tiny, McConfig(samples=1_000_000, seed=12))
    assert abs(res.estimate - math.pi / 12) <= 4 * res.stderr


def _caseiii_edge_points(gam) -> np.ndarray:
    """Points the random draws never hit: exact and negative zeros, the sphere
    |zeta|^2 = 1/4, the tetrahedron's vertices and facets (gam/zeta exact),
    and their neighbours one ulp away; then points spread over the sphere and
    gam/r for r spread over each facet, where the order of a sum decides the
    rounded comparison."""
    g = np.asarray(gam, float)
    pts = [
        [0.0, 0.1, 0.2], [0.1, 0.0, -0.2], [0.1, -0.2, 0.0], [-0.0, 0.1, 0.2],
        [0.1, -0.0, 0.2], [0.0, 0.0, 0.0], [0.0, -0.0, 0.3], [0.5, 0.0, 0.0],
        [0.0, 0.5, 0.0], [0.0, 0.0, -0.5], [0.3, 0.4, 0.0], [0.25, 0.25, 0.25 * 2 ** 0.5],
    ]
    corners = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
    rng = np.random.default_rng(5)
    u = rng.normal(size=(300, 3))
    on_sphere = 0.5 * u / np.linalg.norm(u, axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        for r in [*corners, [-0.5, -0.25, -0.25], [-0.5, 0.25, 0.25],   # vertices, facets
                  [0.5, -0.25, 0.25], [0.5, 0.25, -0.25], [0.0, 0.5, -0.5]]:
            pts.append(g / np.array(r, float))
        on_facets = [g / (rng.dirichlet(np.ones(3), size=100) @ np.delete(corners, f, axis=0))
                     for f in range(4)]
    pts = np.array(pts)
    pts = pts[np.all(np.isfinite(pts), axis=1)]
    return np.concatenate([pts, np.nextafter(pts, np.inf), np.nextafter(pts, -np.inf),
                           on_sphere, *on_facets])


@pytest.mark.parametrize("gam", [
    (0.125, 0.0625, 0.0625), (0.05, 0.04, 0.03), (0.08, 0.0, 0.05), (0.0, 0.0, 0.0),
], ids=["dyadic", "generic", "zero-component", "zero"])
def test_caseiii_predicate_matches_row_wise_reference_on_edges(gam):
    gam = np.array(gam)
    pts = _caseiii_edge_points(gam)
    rng = np.random.Generator(np.random.Philox(key=[7, 0]))
    pts = np.concatenate([pts, rng.uniform([0.0, -0.5, -0.5], [0.5, 0.5, 0.5], size=(20_000, 3))])
    with np.errstate(invalid="ignore", over="ignore"):  # the reference's inf - inf, g/5e-324
        expected = caseiii_predicate_reference(gam)(pts)
    edges = expected[:-20_000]
    assert 0 < np.count_nonzero(edges) < len(edges)
    for layout in ("C", "F"):
        assert np.array_equal(_caseiii_predicate(gam)(np.asarray(pts, order=layout)), expected)
