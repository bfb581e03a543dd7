"""Generic four-qubit pure states: classification, convertibility, volumes.

A generic four-qubit state is ``g1 (x) g2 (x) g3 (x) g4`` applied to a seed
vector whose amplitudes come in four complementary-pair groups built from the
parameters (a, b, c, d).  With every ``tr G^i = 1``, the positive operators
``G^i = (g^i)^dag g^i = 1/2 + sum_k gamma_k^i sigma_k`` are parameterized by a
Bloch-like vector ``gamma^i`` of norm below 1/2, and the state class is the
tuple of the four gamma vectors up to a global two-component sign flip (the
seed's sigma_k^(x4) symmetries), which is the gauge :func:`standard_form`
fixes.  A permutation of the parties is not such a gauge: besides permuting
the gamma vectors, a transposition exchanges two amplitude groups of the seed
and so changes the seed parameters (of the nontrivial permutations, only the
three double transpositions leave every seed invariant).

Deterministic LOCC transformations exist only inside a 12-parameter family
where at most one party carries a general operator and the rest are aligned
along a common Pauli axis.  The convertibility predicate reduces per party to
the existence of a probability vector (p_0..p_3) over the Pauli twirl whose
character vector eta satisfies ``eta (.) zeta = gamma`` componentwise; eta
ranges over the tetrahedron with vertices (1,1,1), (1,-1,-1), (-1,1,-1),
(-1,-1,1).  Each conversion row's protocol is a sequence of one-party Pauli
twirls, which the row's condition returns beside its verdict;
:func:`povm_witness` composes them into explicit local POVMs, enforces their
completeness and reports how closely they reach the target.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CompletenessViolation,
    DifferentSLOCCClass,
    InvalidSeedParams,
    NotConvertible,
    UnclassifiedForm,
)
from .oracle import McConfig, McResult, mc_region_volume, thread_scratch
from .source import MeasureReport

#: Strict norm bound keeping every G positive definite in double precision.
GAMMA_NORM_MAX = 0.5 - 1e-12
#: The one tolerance of the conversion rows.  :func:`classify` sets every
#: gamma component of at most this magnitude to exactly 0, once, and every
#: later support test reads those zeros.  Every row accepts by one rule: its
#: twirl probabilities, clamped into [0, 1], must reproduce the initial
#: gammas from the target's, max |gamma - eta(probs) (.) zeta| <= CONVERT_TOL
#: (no twirl for the identity row).  A component that survives classify
#: exceeds CONVERT_TOL, so where the target is zero the rule refuses it.  The
#: witness twirls start from eta(probs) (.) zeta, so they resolve the
#: identity to rounding, and its eta residual stays within CONVERT_TOL plus
#: rounding.  The same slack matches squared seed parameters, by default in
#: ``SeedParams.validate`` too, and bounds the tetrahedron in ``eta_solve``.
CONVERT_TOL = 1e-9
#: Least separation of the squared parameters that ``random_seed_params`` draws.
SEED_MIN_GAP = 0.03

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (_I, _X, _Y, _Z)
_PAULI_STACK = np.stack(PAULI)
AXIS_NAMES = "xyz"

#: Sign actions of the sigma_k^(x4) symmetries on the three gamma components.
KLEIN_SIGNS = (
    np.array([1.0, 1.0, 1.0]),
    np.array([1.0, -1.0, -1.0]),
    np.array([-1.0, 1.0, -1.0]),
    np.array([-1.0, -1.0, 1.0]),
)
_KLEIN_STACK = np.stack(KLEIN_SIGNS)[:, None, :]


# ---------------------------------------------------------------------------
# seed states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeedParams:
    """Amplitude parameters of a generic seed state."""

    a: float
    b: complex
    c: complex
    d: complex

    def squares(self) -> tuple[complex, complex, complex, complex]:
        return (complex(self.a) ** 2, self.b ** 2, self.c ** 2, self.d ** 2)

    def validate(self, tol: float = CONVERT_TOL) -> None:
        """Raise ``InvalidSeedParams`` unless the parameters label a generic
        class.  A pass at the default ``tol`` is recorded on the instance, so
        later default calls (every ``build_seed``) return at once."""
        if tol == CONVERT_TOL and self.__dict__.get("_valid"):
            return
        if not all(cmath.isfinite(x) for x in (self.a, self.b, self.c, self.d)):
            raise InvalidSeedParams("seed parameters must be finite")
        norm = abs(self.a) ** 2 + abs(self.b) ** 2 + abs(self.c) ** 2 + abs(self.d) ** 2
        if abs(norm - 1.0) > 1e-9:
            raise InvalidSeedParams(f"|a|^2+|b|^2+|c|^2+|d|^2 = {norm}, expected 1")
        sq = self.squares()
        for i, j in itertools.combinations(range(4), 2):
            if abs(sq[i] - sq[j]) <= tol:
                raise InvalidSeedParams(
                    f"squared parameters {i} and {j} coincide: degenerate class"
                )
        for q in _square_ratios(sq, tol):
            if _multisets_match(sq, tuple(q * s for s in sq), tol):
                raise InvalidSeedParams(f"parameter squares invariant under scaling by {q}")
        if tol == CONVERT_TOL:
            object.__setattr__(self, "_valid", True)


def _square_ratios(sq, tol):
    out = []
    for i in range(4):
        for j in range(4):
            if i == j or abs(sq[j]) <= tol:
                continue
            q = sq[i] / sq[j]
            if abs(q - 1.0) > tol:
                out.append(q)
    return out


def _multisets_match(xs, ys, tol) -> bool:
    ys = list(ys)
    for x in xs:
        for i, y in enumerate(ys):
            if abs(x - y) <= tol:
                ys.pop(i)
                break
        else:
            return False
    return True


def build_seed(params: SeedParams, validate: bool = True) -> np.ndarray:
    """The 16-component seed vector for the given parameters.

    ``validate=False`` skips the genericity checks; the amplitude layout is
    well defined for any parameters, but only validated ones label a class.
    """
    if validate:
        params.validate()
    a, b, c, d = params.a, params.b, params.c, params.d
    v = np.zeros(16, dtype=complex)
    groups = (
        ((a + d) / 2, ("0000", "1111")),
        ((a - d) / 2, ("0011", "1100")),
        ((b + c) / 2, ("0101", "1010")),
        ((b - c) / 2, ("0110", "1001")),
    )
    for amp, kets in groups:
        for ket in kets:
            v[int(ket, 2)] += amp
    return v


def random_seed_params(rng: np.random.Generator) -> SeedParams:
    """Rejection-sample valid seed parameters with comfortably separated squares."""
    while True:
        a = rng.normal()
        b, c, d = (rng.normal() + 1j * rng.normal() for _ in range(3))
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2)
        p = SeedParams(a / norm, b / norm, c / norm, d / norm)
        try:
            p.validate(tol=SEED_MIN_GAP)
        except InvalidSeedParams:
            continue
        return p


# ---------------------------------------------------------------------------
# forms and the standard form
# ---------------------------------------------------------------------------

def _as_gammas(gammas) -> np.ndarray:
    g = np.asarray(gammas, dtype=float)
    if g.shape != (4, 3):
        raise UnclassifiedForm(f"gammas must have shape (4, 3), got {g.shape}")
    if not np.all(np.isfinite(g)):
        raise UnclassifiedForm("gammas must be finite")
    norms = np.linalg.norm(g, axis=1)
    if np.any(norms > GAMMA_NORM_MAX):
        raise UnclassifiedForm(f"|gamma| must stay below {GAMMA_NORM_MAX}, got {norms.max()}")
    return g


@dataclass(frozen=True)
class FourQubitForm:
    """A generic four-qubit state: seed parameters plus four gamma vectors."""

    seed: SeedParams
    gammas: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "gammas", _as_gammas(self.gammas))

    @classmethod
    def _derived(cls, seed: SeedParams, gammas: np.ndarray) -> "FourQubitForm":
        """A form whose (4, 3) float gammas come from a validated form's by
        zeroing components or flipping signs, which never grow a norm; it
        skips the validation of ``__init__``."""
        form = object.__new__(cls)
        object.__setattr__(form, "seed", seed)
        object.__setattr__(form, "gammas", gammas)
        return form

    def state_vector(self) -> np.ndarray:
        """Apply g^i = sqrt(G^i) per party to the seed vector and normalize."""
        return _dressed(build_seed(self.seed), self.gammas)

    def to_json(self) -> dict:
        return {
            "seed": {
                "a": self.seed.a,
                "b": [self.seed.b.real, self.seed.b.imag],
                "c": [self.seed.c.real, self.seed.c.imag],
                "d": [self.seed.d.real, self.seed.d.imag],
            },
            "gammas": self.gammas.tolist(),
        }

    @staticmethod
    def from_json(payload: dict) -> "FourQubitForm":
        s = payload["seed"]

        def as_c(x):
            return complex(x[0], x[1]) if isinstance(x, (list, tuple)) else complex(x)

        seed = SeedParams(float(s["a"]), as_c(s["b"]), as_c(s["c"]), as_c(s["d"]))
        seed.validate()
        return FourQubitForm(seed, np.asarray(payload["gammas"], float))


def gram_matrix(gamma: np.ndarray) -> np.ndarray:
    """G = 1/2 identity + gamma . sigma."""
    return 0.5 * _I + gamma[0] * _X + gamma[1] * _Y + gamma[2] * _Z


def sqrt_g(gamma: np.ndarray) -> np.ndarray:
    """Positive square root of the Gram operator G = 1/2 + gamma . sigma.

    In closed form: tr G = 1 and det G = 1/4 - |gamma|^2 = s^2, so by
    Cayley-Hamilton (G + s)^2 = (1 + 2s) G and sqrt(G) = (G + s) / sqrt(1 + 2s).
    The square misses G by (s^2 - det G) / (1 + 2s) only, however s is
    rounded, so it holds to rounding up to |gamma| = ``GAMMA_NORM_MAX``.
    """
    x, y, z = map(float, gamma)
    s = math.sqrt(max(0.25 - (x * x + y * y + z * z), 0.0))
    r = math.sqrt(1.0 + 2.0 * s)
    a = 0.5 + s
    return np.array([[(a + z) / r, complex(x, -y) / r],
                     [complex(x, y) / r, (a - z) / r]])


def _inv2(m: np.ndarray) -> np.ndarray:
    """Inverse of a 2x2 matrix from its adjugate."""
    (a, b), (c, d) = m.tolist()
    return np.array([[d, -b], [-c, a]]) / (a * d - b * c)


def kron4(a, b, c, d) -> np.ndarray:
    """a (x) b (x) c (x) d of 2x2 operators as one 16x16 matrix.

    Stacks of operators with shape (..., 2, 2) give a stack (..., 16, 16),
    one product per leading index, all in one einsum.
    """
    out = np.einsum("...ai,...bj,...ck,...dl->...abcdijkl", a, b, c, d)
    return out.reshape(out.shape[:-8] + (16, 16))


def _dressed(seed_vec: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """The normalized state g1 (x) g2 (x) g3 (x) g4 applied to a seed vector."""
    v = kron4(*(sqrt_g(g) for g in gammas)) @ seed_vec
    return v / np.linalg.norm(v)


def standard_form(form: FourQubitForm) -> FourQubitForm:
    """Fix the global sign gauge: the lexicographically largest Klein variant.

    The seed symmetries flip two gamma components simultaneously on every
    party, so a class has four sign representatives; picking the largest
    flattened tuple (of the components rounded to 14 decimals) makes the
    first two sign-relevant components nonnegative and is idempotent.  Two
    forms denote the same LU class exactly when their canonical gammas
    coincide.
    """
    variants = form.gammas * _KLEIN_STACK
    keys = np.round(variants, 14).reshape(4, 12).tolist()
    # max keeps the first of equal keys, as over KLEIN_SIGNS
    return FourQubitForm._derived(form.seed, variants[max(range(4), key=keys.__getitem__)])


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

TAG_SEED = "seed"
TAG_MES = "mes_aligned"
TAG_AXIS_ONLY = "axis_only"
TAG_GENERAL_ONE = "general_one_party"
TAG_GENERAL_PLUS_AXES = "general_plus_axes"
TAG_TWO_AXES = "two_axes"
TAG_AXIS_TRANSVERSE = "axis_plus_transverse"
TAG_ISOLATED = "isolated"


@dataclass(frozen=True)
class Classified:
    """Structure tag of a standard-form state plus party roles."""

    form: FourQubitForm          # standard form
    tag: str
    w: int | None = None         # common axis (0=x, 1=y, 2=z) where defined
    roles: dict = field(default_factory=dict)
    diagnostic: str | None = None

    @property
    def gammas(self) -> np.ndarray:
        return self.form.gammas


def _classify_at(g: np.ndarray):
    """Decision tuple (tag, w, roles) read off the exact support ``g != 0``,
    or None when no family form fits.

    One active party is ``axis_only`` or ``general_one_party``.  With more,
    the first axis w (x, y, z in order) off which at most one party has a
    component decides; only a ``two_axes`` state fits two axes, and it takes
    the smaller.
    """
    rows = g.tolist()
    active = [j for j in range(4) if any(rows[j])]
    if not active:
        return TAG_SEED, None, {}
    if len(active) == 1:
        i = active[0]
        comps = [u for u in range(3) if rows[i][u]]
        if len(comps) > 1:
            return TAG_GENERAL_ONE, None, {"party": i}
        ax = comps[0]
        return TAG_AXIS_ONLY, ax, {"party": i, "value": abs(g[i, ax])}
    for w in range(3):
        off = [j for j in active if any(rows[j][u] for u in range(3) if u != w)]
        if not off:
            return TAG_MES, w, {"axis_values": tuple(g[j, w] for j in range(4))}
        if len(off) > 1:
            continue
        i = off[0]
        if sum(1 for r in rows if r[w]) >= 2:
            return TAG_GENERAL_PLUS_AXES, w, {"general_party": i}
        # one axis party j on w; i lies off w entirely
        j = next(j for j in active if j != i)
        trans = [u for u in range(3) if u != w and rows[i][u]]
        if len(trans) == 2:
            return TAG_AXIS_TRANSVERSE, w, {"axis_party": j, "transverse_party": i}
        return TAG_TWO_AXES, w, {"parties": ((i, trans[0]), (j, w))}
    return None


def classify(form: FourQubitForm) -> Classified:
    """Detect the structure of a state, conservatively, with a near-miss note.

    This is where support is decided: every gamma component of magnitude at
    most ``CONVERT_TOL`` is set to exactly 0 before the standard form is taken,
    and the classified gammas carry those zeros to the conversion rows, the
    witness and the case volumes.  States outside the convertible family are
    tagged isolated; if zeroing every component of magnitude at most 1e-6
    and running the same rule again places them inside (the seed included),
    the diagnostic records the near-miss instead of silently reclassifying.
    """
    zeroed = np.where(np.abs(form.gammas) <= CONVERT_TOL, 0.0, form.gammas)
    sf = standard_form(FourQubitForm._derived(form.seed, zeroed))
    g = sf.gammas
    decision = _classify_at(g)
    if decision is not None:
        return Classified(sf, *decision)
    diag = None
    if _classify_at(np.where(np.abs(g) <= 1e-6, 0.0, g)) is not None:
        diag = (
            "nearly axis-aligned: off-axis components are below 1e-6 but above "
            f"the alignment tolerance {CONVERT_TOL}; treating as isolated"
        )
    return Classified(sf, TAG_ISOLATED, diagnostic=diag)


# ---------------------------------------------------------------------------
# the per-party twirl predicate
# ---------------------------------------------------------------------------

def eta_solve(gam: np.ndarray, zet: np.ndarray) -> np.ndarray | None:
    """Solve eta (.) zet = gam with eta in the character tetrahedron.

    Components with zet == 0 force gam == 0 and leave the corresponding eta
    free; feasibility of a completion reduces to the forced components lying
    in the tetrahedron's projection (a box, or the full tetrahedron when all
    three are forced).  Returns a feasible eta, or None.  Zero means exactly
    0, as :func:`classify` leaves it; the tetrahedron bounds are met to
    CONVERT_TOL.
    """
    eta = np.zeros(3)
    free = []
    for l in range(3):
        if zet[l] != 0:
            eta[l] = gam[l] / zet[l]
        else:
            if gam[l] != 0:
                return None
            free.append(l)
    forced = [l for l in range(3) if l not in free]
    if len(free) == 0:
        probs = _eta_to_probs(eta)
        return eta if np.all(probs >= -CONVERT_TOL) else None
    if len(free) == 1:
        a, b = (eta[l] for l in forced)
        lo = -1.0 + abs(a + b)
        hi = 1.0 - abs(a - b)
        if lo > hi + CONVERT_TOL:
            return None
        eta[free[0]] = min(max((lo + hi) / 2.0, -1.0), 1.0)
        return eta
    if any(abs(eta[l]) > 1.0 + CONVERT_TOL for l in forced):
        return None
    return eta  # free components stay 0, always completable


def _eta_to_probs(eta: np.ndarray) -> np.ndarray:
    e1, e2, e3 = eta
    return np.array([
        (1 + e1 + e2 + e3) / 4.0,
        (1 + e1 - e2 - e3) / 4.0,
        (1 - e1 + e2 - e3) / 4.0,
        (1 - e1 - e2 + e3) / 4.0,
    ])


def _probs_to_eta(p: np.ndarray) -> np.ndarray:
    return np.array([
        p[0] + p[1] - p[2] - p[3],
        p[0] - p[1] + p[2] - p[3],
        p[0] - p[1] - p[2] + p[3],
    ])


# ---------------------------------------------------------------------------
# convertibility
# ---------------------------------------------------------------------------

ROW_IDENTITY = "identity"
ROW_SCALING = "transverse_scaling"       # one general party, axis values frozen
ROW_RECTANGLE = "axis_rectangle"         # two axis parties, both values grow
ROW_GENERAL = "single_party_general"     # one party, all three components active
ROW_PLANE = "single_party_plane"         # one party, one component pinned to zero
ROW_AXIS = "single_party_axis"           # one party, axis aligned
ROW_AXIS_THEN_T = "axis_then_transverse" # grow an axis, then switch on a second party


@dataclass(frozen=True)
class Verdict:
    convertible: bool
    row: str | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.convertible


# A row's protocol is a list of steps, each a Pauli twirl of one party:
# (party, gamma_new, probs), probs being the probabilities of the four Pauli
# patterns (identity, sigma_x, sigma_y, sigma_z).  The twirl starts from the
# gamma _probs_to_eta(probs) * gamma_new, so it is complete by construction,
# and _reproduces decides whether that start is the initial state.

def _scaled_step(p: int, g_old: np.ndarray, g_new: np.ndarray, c: int):
    """The twirl of party p between the identity and sigma_c (c = 0, 1, 2 for
    x, y, z): it keeps component c and scales the other two by the
    least-squares t of g_old onto g_new, clamped to [0, 1]."""
    off = [u for u in range(3) if u != c]
    t = float(g_old[off] @ g_new[off]) / float(g_new[off] @ g_new[off])
    probs = np.zeros(4)
    probs[0] = (1.0 + min(max(t, 0.0), 1.0)) / 2.0
    probs[c + 1] = 1.0 - probs[0]
    return p, g_new, probs


def _reproduces(gi: np.ndarray, zf: np.ndarray, steps) -> bool:
    """The one acceptance rule of every row: the twirl characters of the steps
    carry zf back onto gi, on every party, to CONVERT_TOL."""
    eta = 1.0
    for _, _, probs in steps:
        eta = eta * _probs_to_eta(probs)
    return float(np.abs(gi - eta * zf).max()) <= CONVERT_TOL


# Each condition yields candidate twirls from the target's classification, and
# _reproduces alone accepts or refuses them.

def _scaling_condition(ci, cf, zf):
    """Axis components all frozen; one party's transverse pair scales up."""
    p = cf.roles.get("general_party", cf.roles.get("transverse_party"))
    yield ROW_SCALING, [_scaled_step(p, ci.gammas[p], zf[p], cf.w)]


def _rectangle_condition(ci, cf, zf):
    """Two axis-aligned parties on different axes; both values may only grow."""
    (p1, u), (p2, v) = sorted(cf.roles["parties"])
    # each twirl's sigma lies along the other party's axis, leaving that party in place
    yield ROW_RECTANGLE, [_scaled_step(p1, ci.gammas[p1], zf[p1], v),
                          _scaled_step(p2, ci.gammas[p2], zf[p2], u)]


def _single_party_condition(ci, cf, zf):
    p = cf.roles["party"]
    eta = eta_solve(ci.gammas[p], zf[p])
    if eta is None:
        return
    probs = np.clip(_eta_to_probs(eta), 0.0, None)
    probs /= probs.sum()
    row = {3: ROW_GENERAL, 2: ROW_PLANE, 1: ROW_AXIS}[np.count_nonzero(zf[p])]
    yield row, [(p, zf[p], probs)]


def _axis_then_transverse_condition(ci, cf, zf):
    """From the seed or a single axis party into one party on an axis w and a
    second party transverse to w."""
    if cf.tag == TAG_AXIS_TRANSVERSE:
        candidates = [(cf.roles["axis_party"], cf.w, cf.roles["transverse_party"])]
    else:
        (p1, u), (p2, v) = sorted(cf.roles["parties"])
        candidates = [(p1, u, p2), (p2, v, p1)]
    gi = ci.gammas
    for axis_party, w, other in candidates:
        # from the seed every sign of the axis value reproduces; take the positive one
        if zf[axis_party, w] < 0:
            continue
        # from one axis party, only the candidate that grows that party's value
        if ci.tag == TAG_AXIS_ONLY and (ci.roles["party"], ci.w) != (axis_party, w):
            continue
        c = next(u for u in range(3) if u != w)
        yield ROW_AXIS_THEN_T, [_scaled_step(axis_party, gi[axis_party], zf[axis_party], c),
                                _scaled_step(other, gi[other], zf[other], w)]


#: The rows in the order they are tried: final tags, initial tags (None for
#: any) and the condition, which yields candidate (row, steps); the first
#: candidate that passes :func:`_reproduces` is the verdict.
_ROW_CONDITIONS = (
    ((TAG_GENERAL_PLUS_AXES, TAG_AXIS_TRANSVERSE), None, _scaling_condition),
    ((TAG_TWO_AXES,), (TAG_TWO_AXES,), _rectangle_condition),
    ((TAG_GENERAL_ONE, TAG_AXIS_ONLY), (TAG_GENERAL_ONE, TAG_AXIS_ONLY, TAG_SEED),
     _single_party_condition),
    ((TAG_AXIS_TRANSVERSE, TAG_TWO_AXES), (TAG_AXIS_ONLY, TAG_SEED),
     _axis_then_transverse_condition),
)


def _decide(initial: FourQubitForm, final: FourQubitForm):
    """``(verdict, basis)``, where a convertible verdict's basis is what its
    witness needs: the initial classified gammas, the final ones under the
    matched Klein sign and the row's protocol steps (none for the identity)."""
    if not _multisets_match(initial.seed.squares(), final.seed.squares(), CONVERT_TOL):
        raise DifferentSLOCCClass("seed parameter squares do not match")
    ci = classify(initial)
    cf = classify(final)
    gi = ci.gammas
    variants = cf.gammas * _KLEIN_STACK

    # the identity row's _reproduces under the four signs, in one call
    for zf, gap in zip(variants, np.abs(gi - variants).max(axis=(1, 2)).tolist()):
        if gap <= CONVERT_TOL:
            return Verdict(True, ROW_IDENTITY), (gi, zf, [])

    if ci.tag == TAG_ISOLATED or cf.tag == TAG_ISOLATED:
        return Verdict(False, detail="isolated state"), None
    if cf.tag in (TAG_SEED, TAG_MES):
        return Verdict(False, detail="target cannot be reached by any other class"), None

    for zf in variants:
        for finals, initials, condition in _ROW_CONDITIONS:
            if cf.tag in finals and (initials is None or ci.tag in initials):
                for row, steps in condition(ci, cf, zf):
                    if _reproduces(gi, zf, steps):
                        return Verdict(True, row), (gi, zf, steps)
    return Verdict(False, detail="no transformation row applies"), None


def can_convert(initial: FourQubitForm, final: FourQubitForm) -> Verdict:
    """Decide deterministic LOCC convertibility initial -> final.

    Both states must sit in the same generic class (equal multisets of squared
    seed parameters).  Party labels are rigid: the per-party twirl condition
    pins each local operator in place, so a structure living on mismatched
    parties (or axes) is never convertible.  Only the seed's sign gauge (the
    four simultaneous two-component flips) is quotiented out.
    """
    return _decide(initial, final)[0]


# ---------------------------------------------------------------------------
# volumes and measures
# ---------------------------------------------------------------------------

def _caseiii_predicate(gam: np.ndarray):
    """Membership of the rows of an (n, 3) array in {|zeta| < 1/2, gam/zeta in
    the character tetrahedron}, column by column, so that the columns of a
    Fortran-ordered array (as ``mc_region_volume`` draws them) are read
    contiguously.  A quotient gam_j/zeta_j that is not finite (0/0, or an
    overflow on a zero or tiny zeta_j) puts the point outside: r_j enters two
    facet sums with each sign, so one of them is -inf or NaN.

    The work arrays are the calling thread's and are reused from block to
    block; the result is a fresh array.  The tetrahedron test runs on every
    row and counts only inside the ball, so it is the same there as on the
    ball's rows alone.
    """
    g0, g1, g2 = gam
    scratch = thread_scratch(float, float, float, float, float, bool)

    def predicate(pts: np.ndarray) -> np.ndarray:
        plus, minus, r1, r2, t, ok = scratch(len(pts))
        x, y, z = pts.T
        # x * x + y * y + z * z, summed left to right
        np.multiply(x, x, out=plus)
        plus += np.multiply(y, y, out=minus)
        plus += np.multiply(z, z, out=minus)
        inside = plus < 0.25
        with np.errstate(all="ignore"):
            np.divide(g0, x, out=t)
            np.add(1, t, out=plus)
            np.subtract(1, t, out=minus)
            np.divide(g1, y, out=r1)
            np.divide(g2, z, out=r2)
            # the four facets, each summed left to right from 1 +- r0
            for start, first, second in ((plus, np.add, np.add), (plus, np.subtract, np.subtract),
                                         (minus, np.add, np.subtract), (minus, np.subtract, np.add)):
                second(first(start, r1, out=t), r2, out=t)
                inside &= np.greater_equal(t, 0, out=ok)
        return inside
    return predicate


def caseiii_accessible_mc(gam: np.ndarray, cfg: McConfig) -> McResult:
    """Volume of the reachable single-party region over the half ball.

    The region is {zeta : |zeta| < 1/2, gamma/zeta in the character
    tetrahedron}, sampled on the half ball with first component nonnegative
    (the sign gauge leaves exactly this freedom once one component's sign is
    fixed).
    """
    return mc_region_volume(
        _caseiii_predicate(np.abs(np.asarray(gam, float))),
        np.array([0.0, -0.5, -0.5]),
        np.array([0.5, 0.5, 0.5]),
        cfg,
    )


def caseiii_3d_feasible(g1: float, g2: float) -> bool:
    """With one component zero, a full 3D reachable region exists iff the
    minimum of g1/z1 + g2/z2 over the ball boundary stays below one."""
    return 2.0 * (g1 ** (2.0 / 3.0) + g2 ** (2.0 / 3.0)) ** 1.5 < 1.0


def disc_corner_area(u: float, v: float) -> float:
    """Area of {x >= u, y >= v, x^2 + y^2 <= 1/4} for u, v >= 0."""
    if u * u + v * v >= 0.25:
        return 0.0

    def F(x: float) -> float:
        return 0.5 * (x * math.sqrt(max(0.25 - x * x, 0.0)) + 0.25 * math.asin(min(2.0 * x, 1.0)))

    x_hi = math.sqrt(0.25 - v * v)
    return F(x_hi) - F(u) - v * (x_hi - u)


#: Default sampling plan for the one numeric region (no closed form exists).
DEFAULT_MC = McConfig(samples=10_000_000, seed=77)


class ClosedForm(float):
    """A constant that also carries its closed form, such as ``pi/12``."""

    def __new__(cls, value: float, text: str) -> "ClosedForm":
        self = super().__new__(cls, value)
        self.text = text
        return self

    def __getnewargs__(self):  # so that copies and pickles keep the text
        return float(self), self.text


def _source_case(cls: Classified) -> tuple[int, float, float]:
    """``(dimension, volume, V_sup)`` of the source set, V_sup being the
    largest volume of the case; a set of volume 0 is normalized by 1."""
    g, w, roles, tag = cls.gammas, cls.w, cls.roles, cls.tag
    if tag in (TAG_SEED, TAG_MES, TAG_ISOLATED):
        return 0, 0.0, 1.0
    if tag == TAG_GENERAL_PLUS_AXES:
        return 1, float(np.linalg.norm(np.delete(g[roles["general_party"]], w))), 0.5
    if tag == TAG_TWO_AXES:
        (p1, u), (p2, v) = roles["parties"]
        return 2, 4.0 * abs(g[p1, u]) * abs(g[p2, v]), 1.0
    if tag == TAG_AXIS_TRANSVERSE:
        t = np.delete(g[roles["transverse_party"]], w)
        return 1, abs(g[roles["axis_party"], w]) + float(np.linalg.norm(t)), 1.0
    if tag == TAG_AXIS_ONLY:
        return 1, roles["value"], 0.5
    if tag == TAG_GENERAL_ONE:
        comps = np.abs(g[roles["party"]])
        nz = comps[comps != 0]
        if len(nz) == 3:
            return 3, (2.0 / 3.0) * float(np.prod(nz)), ClosedForm(
                1.0 / (36.0 * math.sqrt(3.0)), "1/(36*sqrt(3))")
        return 2, float(np.prod(nz)), 0.25
    raise UnclassifiedForm(f"unknown tag {tag}")


def _accessible_case(cls: Classified, mc: McConfig) -> tuple[int, float, float | None, float]:
    """``(dimension, volume, stderr, V_sup)`` of the accessible set; stderr is
    None for the closed forms, and the isolated set is normalized by 1."""
    g, w, roles, tag = cls.gammas, cls.w, cls.roles, cls.tag
    if tag == TAG_SEED:
        ball = ClosedForm(29.0 * math.pi / 12.0, "29*pi/12")
        return 3, ball, None, ball
    if tag == TAG_ISOLATED:
        return 0, 0.0, None, 1.0
    if tag == TAG_MES:
        radii2 = [0.25 - g[i, w] ** 2 for i in range(4)]
        return 2, math.pi * float(sum(radii2)), None, ClosedForm(math.pi, "pi")
    if tag == TAG_GENERAL_PLUS_AXES:
        p = roles["general_party"]
        t = np.delete(g[p], w)
        return 1, math.sqrt(0.25 - g[p, w] ** 2) - float(np.linalg.norm(t)), None, 0.5
    if tag == TAG_TWO_AXES:
        (p1, u), (p2, v) = roles["parties"]
        return 2, (0.5 - abs(g[p1, u])) * (0.5 - abs(g[p2, v])), None, 0.25
    if tag == TAG_AXIS_TRANSVERSE:
        t = np.delete(g[roles["transverse_party"]], w)
        return 1, 0.5 - float(np.linalg.norm(t)), None, 0.5
    if tag == TAG_AXIS_ONLY:
        gv = roles["value"]
        return 3, math.pi / 48.0 * (11.0 + 8.0 * gv * (gv * gv - 3.0)), None, ClosedForm(
            11.0 * math.pi / 48.0, "11*pi/48")
    if tag == TAG_GENERAL_ONE:
        comps = np.abs(g[roles["party"]])
        zero = comps == 0
        if zero.any():
            nz = comps[~zero]
            if not caseiii_3d_feasible(nz[0], nz[1]):
                return 2, disc_corner_area(nz[0], nz[1]), None, ClosedForm(math.pi / 16.0, "pi/16")
        res = caseiii_accessible_mc(comps, mc)
        return 3, res.estimate, res.stderr, ClosedForm(math.pi / 12.0, "pi/12")
    raise UnclassifiedForm(f"unknown tag {tag}")


def entanglement_4q(
    cls: Classified, mc: McConfig = DEFAULT_MC
) -> tuple[MeasureReport, MeasureReport]:
    """Source and accessible entanglement with case-matched normalizations.

    Values are only comparable between states whose volumes share a
    dimension; the report carries both the dimension and the constant used,
    and an irrational constant is a :class:`ClosedForm`.  The accessible
    report's ``abs_err`` is the Monte-Carlo standard error of the numeric
    Case-III volume, and 0.0 for the closed forms.
    """
    s_dim, s_vol, s_sup = _source_case(cls)
    a_dim, a_vol, a_err, a_sup = _accessible_case(cls, mc)
    return (
        MeasureReport("source", s_vol, s_dim, s_sup, 1.0 - s_vol / s_sup, s_dim),
        MeasureReport("accessible", a_vol, a_dim, a_sup, a_vol / a_sup, a_dim, a_err or 0.0),
    )


# ---------------------------------------------------------------------------
# POVM witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PovmWitness:
    """Explicit local protocol whose outcomes all land on the target class."""

    outcomes: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    probabilities: tuple[float, ...]
    pauli_patterns: tuple[int, ...]   # common Pauli index applied per outcome
    row: str
    completeness_residual: float
    eta_residual: float
    outcome_mismatch: float


def _twirl(party: int, gamma_new: np.ndarray, probs):
    """Outcomes ``(ops, ks)`` of a Pauli twirl of one party, for each pattern
    k with p_k > 1e-14: ``ops`` stacks, per outcome, the four single-party
    operators, sqrt(p_k) h sigma_k g^-1 on ``party`` and sigma_k on the
    others, in an (m, 4, 2, 2) array, where h is the square root of the new G
    and g that of the G whose gamma is eta(probs) (.) gamma_new, so
    sum_k M_k^dag M_k = 1."""
    ks = [k for k in range(4) if probs[k] > 1e-14]
    h = sqrt_g(gamma_new)
    ginv = _inv2(sqrt_g(_probs_to_eta(probs) * gamma_new))
    paulis = _PAULI_STACK[ks]
    ops = np.repeat(paulis[:, None], 4, axis=1)
    ops[:, party] = np.sqrt(probs[ks])[:, None, None] * (h @ paulis @ ginv)
    return ops, ks


def povm_witness(initial: FourQubitForm, final: FourQubitForm) -> PovmWitness:
    """Construct the local POVM implementing initial -> final and measure it.

    The outcomes are composed as one (n, 4, 2, 2) stack of single-party
    operators, and their n 16x16 operators are built, checked and applied in
    batched calls.  One check is enforced: the outcome operators must resolve
    the identity to 1e-12, or :class:`CompletenessViolation` is raised.  Two
    are only reported: the eta residual, max |gamma - eta (.) zeta| over the
    parties with eta the twirl character of the outcome probabilities on the
    initial state vector, which the acceptance of :func:`can_convert` bounds
    by CONVERT_TOL plus rounding; and the outcome mismatch, the largest
    1 - |<target|outcome>| over the normalized outcomes of the initial state,
    floored at 0.
    """
    verdict, basis = _decide(initial, final)
    if not verdict:
        raise NotConvertible(verdict.detail or "states are not LOCC related")
    gi, zf, steps = basis
    ops, ks = _twirl(*steps[0]) if steps else (np.array([[_I] * 4]), [0])
    for step in steps[1:]:
        # later twirls act after earlier ones; Pauli labels multiply by XOR
        later, kl = _twirl(*step)
        ops = (later[None] @ ops[:, None]).reshape(-1, 4, 2, 2)
        ks = [ka ^ kb for ka in ks for kb in kl]

    mats = kron4(*ops.transpose(1, 0, 2, 3))
    # sum_n M_n^dag M_n as one product of the stacked rows of every M_n
    rows = mats.reshape(-1, 16)
    comp_res = float(np.max(np.abs(rows.conj().T @ rows - np.eye(16))))
    if comp_res > 1e-12:
        raise CompletenessViolation(f"sum M^dag M deviates from identity by {comp_res}")

    seed = build_seed(initial.seed)
    psi, phi = _dressed(seed, gi), _dressed(seed, zf)
    outs = mats @ psi
    norms = np.linalg.norm(outs, axis=1)
    probs = norms ** 2
    mismatch = max(0.0, float(np.max(1.0 - np.abs(outs @ phi.conj()) / norms)))

    eta_eff = _probs_to_eta(np.bincount(ks, weights=probs, minlength=4))
    eta_res = float(np.max(np.abs(eta_eff * zf - gi)))

    return PovmWitness(
        outcomes=tuple(tuple(op) for op in ops),
        probabilities=tuple(probs.tolist()),
        pauli_patterns=tuple(ks),
        row=verdict.row,
        completeness_residual=comp_res,
        eta_residual=eta_res,
        outcome_mismatch=mismatch,
    )
