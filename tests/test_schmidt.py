from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entvol import errors
from entvol.schmidt import (
    SchmidtVector,
    canonicalize,
    embed,
    lu_equivalent,
    majorizes,
    maximally_entangled,
    partial_sum,
    separable,
)
from entvol.source import MeasureReport


def svec(*xs):
    return canonicalize(xs)


def test_canonicalize_sorts():
    assert svec(0.4, 0.6).components == (0.6, 0.4)


def test_canonicalize_separable_fixed_point():
    assert svec(1, 0, 0).components == (1.0, 0.0, 0.0)


def test_canonicalize_renormalizes():
    assert svec(2, 1, 1).components == (0.5, 0.25, 0.25)


def test_canonicalize_overflowing_sum():
    # 1e308 + 1e308 overflows to inf; the components are rescaled first
    assert svec(1e308, 1e308).components == (0.5, 0.5)
    assert svec(1.5e308, 1e308, 0).components == pytest.approx((0.6, 0.4, 0.0), abs=1e-15)


def test_canonicalize_clamps_tiny_negatives():
    lam = canonicalize([0.7, 0.3, -1e-15])
    assert lam.components[2] == 0.0


def test_canonicalize_errors():
    with pytest.raises(errors.EmptyInput):
        canonicalize([])
    with pytest.raises(errors.NegativeComponent):
        canonicalize([0.5, -0.1])
    with pytest.raises(errors.ZeroSum):
        canonicalize([0.0, 0.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_direct_construction_rejects_non_finite(bad):
    with pytest.raises(errors.NonFinite):
        SchmidtVector((bad, 0.5))


def test_records_behave_as_frozen_dataclasses():
    lam = SchmidtVector((0.5, 0.5))
    rep = MeasureReport("source", 0.25, 1, 0.5, 0.5, 2)
    assert lam == SchmidtVector(components=(0.5, 0.5)) and lam != SchmidtVector((1.0, 0.0))
    assert rep == MeasureReport(quantity="source", volume=0.25, dimension=1, v_sup=0.5,
                                entanglement=0.5, k=2, abs_err=0.0)
    assert rep != MeasureReport("source", 0.25, 1, 0.5, 0.5, 2, 1e-3)
    assert lam != (0.5, 0.5) and len({lam, SchmidtVector((0.5, 0.5)), rep, copy.copy(rep)}) == 2
    assert repr(lam) == "SchmidtVector(components=(0.5, 0.5))"
    assert repr(rep) == ("MeasureReport(quantity='source', volume=0.25, dimension=1, v_sup=0.5, "
                         "entanglement=0.5, k=2, abs_err=0.0)")
    for record, name in ((lam, "components"), (rep, "abs_err"), (rep, "other")):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    for record in (lam, rep):
        for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert twin == record and type(twin) is type(record)
    with pytest.raises(errors.ZeroSum):
        SchmidtVector((0.3, 0.3))


def test_partial_sum_examples():
    assert partial_sum(svec(0.6, 0.4), 1) == pytest.approx(0.6)
    assert partial_sum(svec(0.5, 0.25, 0.25), 2) == pytest.approx(0.75)
    lam = svec(0.37, 0.21, 0.42)
    assert partial_sum(lam, lam.d) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(errors.IndexOutOfRange):
        partial_sum(lam, 0)
    with pytest.raises(errors.IndexOutOfRange):
        partial_sum(lam, 4)


def test_majorizes_examples():
    assert majorizes(svec(0.6, 0.4), svec(0.5, 0.5))
    assert not majorizes(svec(0.5, 0.5), svec(0.6, 0.4))
    # partial sums 0.45 <= 0.5 and 0.9 <= 0.9
    assert majorizes(svec(0.5, 0.4, 0.1), svec(0.45, 0.45, 0.1))


def test_majorizes_dimension_mismatch():
    with pytest.raises(errors.DimensionMismatch):
        majorizes(svec(0.6, 0.4), svec(0.5, 0.3, 0.2))


def test_lu_equivalent():
    assert lu_equivalent(svec(0.6, 0.4), svec(0.6, 0.4))
    assert not lu_equivalent(svec(0.6, 0.4), svec(0.7, 0.3))
    # the declared dimension is part of the class
    assert not lu_equivalent(SchmidtVector((0.5, 0.5, 0.0)), svec(0.5, 0.5))


def test_embed():
    assert embed(svec(0.6, 0.4), 3).components == (0.6, 0.4, 0.0)
    assert embed(svec(1), 2).components == (1.0, 0.0)
    assert embed(svec(0.5, 0.5), 2).components == (0.5, 0.5)
    with pytest.raises(errors.ShrinkNotAllowed):
        embed(svec(0.5, 0.5), 1)


@st.composite
def schmidt_vectors(draw, max_d=6):
    d = draw(st.integers(2, max_d))
    raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=d, max_size=d))
    return canonicalize(raw)


@settings(max_examples=200, derandomize=True)
@given(schmidt_vectors())
def test_majorizes_reflexive_and_extremes(lam):
    assert majorizes(lam, lam)
    assert majorizes(separable(lam.d), lam)
    assert majorizes(lam, maximally_entangled(lam.d))


@settings(max_examples=100, derandomize=True)
@given(schmidt_vectors(max_d=5), st.integers(0, 3))
def test_majorizes_invariant_under_joint_embedding(lam, extra):
    k = lam.d + extra
    me = maximally_entangled(lam.d)
    assert majorizes(embed(lam, k), embed(me, k))
    assert majorizes(embed(separable(lam.d), k), embed(lam, k))


@settings(max_examples=100, derandomize=True)
@given(schmidt_vectors())
def test_canonicalize_idempotent(lam):
    again = canonicalize(lam.components)
    assert lu_equivalent(lam, again)


def test_majorizes_transitive_and_antisymmetric():
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = rng.integers(2, 6)
        a, b, c = (canonicalize(rng.dirichlet(np.ones(d))) for _ in range(3))
        trip = sorted([a, b, c], key=lambda v: tuple(v.components))
        a, b, c = trip
        if majorizes(b, a) and majorizes(c, b):
            assert majorizes(c, a)
        if majorizes(a, b) and majorizes(b, a):
            assert lu_equivalent(a, b)
