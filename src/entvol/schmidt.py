"""Schmidt-vector arithmetic: canonical form, majorization, embedding.

A bipartite pure state is represented here only through its sorted Schmidt
vector (the eigenvalues of either reduced state).  Two states are related by
local unitaries exactly when their sorted Schmidt vectors agree, so a
``SchmidtVector`` stands for a whole local-unitary equivalence class.
Deterministic LOCC convertibility between classes is decided by majorization
of the partial sums.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, Iterable

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    EmptyInput,
    IndexOutOfRange,
    NegativeComponent,
    NonFinite,
    ShrinkNotAllowed,
    ZeroSum,
)

if TYPE_CHECKING:
    import numpy as np

#: Tolerance for normalization, sorting and majorization comparisons.  All
#: majorization inequalities are non-strict and evaluated with this slack.
EPS_NORM = 1e-12


class FrozenRecord:
    """Base of the immutable records on the numpy-free path: what a frozen
    dataclass over the fields ``__slots__`` would give (``==``, ``hash`` and
    ``repr`` over the fields, copies and pickles), without importing
    ``dataclasses`` and the ``inspect`` it pulls in.  A subclass's
    ``__init__`` takes the fields and stores them with :meth:`_set` (or
    with its slots' own descriptors); assigning or deleting a field raises
    ``AttributeError``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        get = operator.attrgetter(*cls.__slots__)
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda self: (get(self),))
        # the slots' own descriptors store a field past __setattr__
        cls._fields = tuple(cls.__dict__[name] for name in cls.__slots__)

    def _set(self, *values) -> None:
        for field, value in zip(self._fields, values):
            field.__set__(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


class SchmidtVector(FrozenRecord):
    """Sorted probability vector labelling an LU class of a bipartite state.

    Trailing zeros are significant: ``(0.5, 0.5)`` and ``(0.5, 0.5, 0)`` are
    distinct objects because the declared local dimension enters the
    generalized measure families.
    """

    __slots__ = ("components",)

    def __init__(self, components: tuple[float, ...]) -> None:
        _store_components(self, components)
        self.__post_init__()

    def __post_init__(self) -> None:
        c = self.components
        if len(c) == 0:
            raise EmptyInput("Schmidt vector needs at least one component")
        if not all(math.isfinite(x) for x in c):
            raise NonFinite("Schmidt components must be finite")
        if any(x < -EPS_NORM for x in c):
            raise NegativeComponent(f"negative component in {c}")
        if abs(sum(c) - 1.0) > EPS_NORM:
            raise ZeroSum(f"components of {c} do not sum to 1")
        if any(c[i] < c[i + 1] - EPS_NORM for i in range(len(c) - 1)):
            raise ValueError(f"components {c} not sorted non-increasingly")

    @property
    def d(self) -> int:
        return len(self.components)

    def as_array(self) -> np.ndarray:
        import numpy as np  # the module's one numpy use, loaded on the first call

        return np.array(self.components, dtype=float)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i: int) -> float:
        return self.components[i]


#: The slot's own store, past the raising ``__setattr__``: every vector is
#: built through it, and it costs a third of what ``FrozenRecord._set`` does.
_store_components = SchmidtVector.components.__set__


def canonicalize(raw: Iterable[float]) -> SchmidtVector:
    """Sort, clamp tiny negatives to zero and renormalize into canonical form.

    Raises
    ------
    EmptyInput, NonFinite, NegativeComponent, ZeroSum
    """
    values = [float(x) for x in raw]
    if not values:
        raise EmptyInput("empty Schmidt vector")
    if not all(math.isfinite(x) for x in values):
        raise NonFinite("Schmidt components must be finite")
    if any(x < -EPS_NORM for x in values):
        raise NegativeComponent(f"component below -{EPS_NORM} in {values}")
    values = [max(x, 0.0) for x in values]
    total = sum(values)
    if not math.isfinite(total):  # the sum overflowed: rescale by the largest first
        top = max(values)
        values = [x / top for x in values]
        total = sum(values)
    if total <= 0.0:
        raise ZeroSum("components sum to zero")
    values = sorted((x / total for x in values), reverse=True)
    return SchmidtVector(tuple(values))


def partial_sum(lam: SchmidtVector, k: int) -> float:
    """Partial sum of the k largest components, k in 1..d."""
    if not 1 <= k <= lam.d:
        raise IndexOutOfRange(f"k={k} outside 1..{lam.d}")
    return float(sum(lam.components[:k]))


def majorizes(a: SchmidtVector, b: SchmidtVector) -> bool:
    """True iff ``b`` is majorized by ``a``.

    Equivalently: the state with Schmidt vector ``b`` can be deterministically
    converted by LOCC into the state with Schmidt vector ``a``.  Both vectors
    must have the same declared dimension; embed first if they do not.
    """
    if a.d != b.d:
        raise DimensionMismatch(f"lengths differ: {a.d} vs {b.d}")
    run_a = 0.0
    run_b = 0.0
    for k in range(a.d - 1):
        run_a += a.components[k]
        run_b += b.components[k]
        if run_b > run_a + EPS_NORM:
            return False
    return True


def lu_equivalent(a: SchmidtVector, b: SchmidtVector) -> bool:
    """Same LU class: equal dimension and equal canonical components."""
    if a.d != b.d:
        return False
    return all(abs(x - y) <= EPS_NORM for x, y in zip(a.components, b.components))


def embed(lam: SchmidtVector, k: int) -> SchmidtVector:
    """Pad with ``k - d`` zeros, viewing the state in larger local dimension."""
    if k < lam.d:
        raise ShrinkNotAllowed(f"cannot embed d={lam.d} into k={k}")
    return SchmidtVector(lam.components + (0.0,) * (k - lam.d))


def separable(d: int) -> SchmidtVector:
    """The product state (1, 0, ..., 0) in dimension d."""
    return SchmidtVector((1.0,) + (0.0,) * (d - 1))


def maximally_entangled(d: int) -> SchmidtVector:
    """The flat vector (1/d, ..., 1/d)."""
    return SchmidtVector((1.0 / d,) * d)


def sorted_region_volume(d: int) -> float:
    """Intrinsic (d-1)-volume of the set of sorted normalized vectors.

    The full probability simplex has intrinsic volume sqrt(d)/(d-1)! and the
    sorted chamber is one of d! congruent pieces.  From d = 99 on, d!(d-1)!
    exceeds the largest float.
    """
    try:
        return math.sqrt(d) / (math.factorial(d) * math.factorial(d - 1))
    except OverflowError as exc:
        raise DimensionTooLarge(f"d={d}: d!(d-1)! exceeds the float range") from exc
