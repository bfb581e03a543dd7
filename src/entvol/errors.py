"""Exception hierarchy with machine-readable error codes.

Every domain error carries a ``code`` of the form ``module.Name`` so the CLI
can emit it verbatim and scripts can dispatch on it.
"""

from __future__ import annotations


class EntvolError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "entvol.Error"


# -- schmidt ----------------------------------------------------------------

class EmptyInput(EntvolError):
    code = "schmidt.EmptyInput"


class NegativeComponent(EntvolError):
    code = "schmidt.NegativeComponent"


class NonFinite(EntvolError):
    code = "schmidt.NonFinite"


class ZeroSum(EntvolError):
    code = "schmidt.ZeroSum"


class IndexOutOfRange(EntvolError):
    code = "schmidt.IndexOutOfRange"


class DimensionMismatch(EntvolError):
    code = "schmidt.DimensionMismatch"


class ShrinkNotAllowed(EntvolError):
    code = "schmidt.ShrinkNotAllowed"


# -- polytope ---------------------------------------------------------------

class Unbounded(EntvolError):
    code = "polytope.Unbounded"


class Infeasible(EntvolError):
    code = "polytope.Infeasible"


class InconsistentInput(EntvolError):
    code = "polytope.InconsistentInput"


class NotSimple(EntvolError):
    code = "polytope.NotSimple"


class XiDegenerate(EntvolError):
    code = "polytope.XiDegenerate"


# -- bipartite --------------------------------------------------------------

class DimensionTooLarge(EntvolError):
    code = "bipartite.DimensionTooLarge"


# -- fourqubit --------------------------------------------------------------

class InvalidSeedParams(EntvolError):
    code = "fourqubit.InvalidSeedParams"


class UnclassifiedForm(EntvolError):
    code = "fourqubit.UnclassifiedForm"


class NotConvertible(EntvolError):
    code = "fourqubit.NotConvertible"


class CompletenessViolation(EntvolError):
    code = "fourqubit.CompletenessViolation"


class DifferentSLOCCClass(EntvolError):
    code = "fourqubit.DifferentSLOCCClass"


# -- cli --------------------------------------------------------------------

class UsageError(EntvolError):
    code = "cli.UsageError"
