"""The three in-process workloads: bipartite, fourqubit and montecarlo.

Each workload builds its inputs from the run seed, lists the operations of one
round (every round repeats the same operations on the same inputs), computes
its references with ``refs`` (never with entvol), and checks every output of a
round against them.  A check returns a list of problems per operation; an
operation with problems counts as failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import refs

#: E in [0, 1] is checked with this slack: a few hundred ulps of 1, the
#: rounding of a ratio of volumes, far below a sign error of the d!-term sum.
RANGE_SLACK = 1e-13
#: E = 0 on separable states, E = 1 on flat states and monotonicity hold to
#: this: the precision the d!-term sum keeps up to d = 10.
PROPERTY_TOL = 1e-10
#: Monte-Carlo estimates must lie within this many standard errors.
SIGMAS = 5.0

RANGE = "outside [0, 1]"
VOLUME = "volume off the reference"
SEED_INDEPENDENT = ("separable", "linear", "flat")


@dataclass
class Op:
    """One operation of a round: ``span`` names it, ``attrs`` describe it."""

    span: str
    fn: Callable[[], object]
    attrs: dict = field(default_factory=dict)
    #: a documented program fault: the op may fail with problems of this kind
    known_fault: str = ""


def close(x: float, ref: float, rel: float, floor: float) -> bool:
    return abs(x - ref) <= rel * abs(ref) + floor


def in_range(x: float) -> bool:
    return -RANGE_SLACK <= x <= 1.0 + RANGE_SLACK


# -- bipartite ------------------------------------------------------------------

#: Profiles that E_a runs on at ranks 6-8, the same for every seed.
#: accessible_volume is wrong on some Dirichlet vectors from rank 6 up (about
#: one rank-8 vector in fourteen), so a seeded vector there would fail on some
#: seeds only; these profiles were fixed before the program was run on them,
#: and it is right on all of them.  linear_tie carries the rank's tie.
FIXED_PROFILES = {
    "geom0.5": lambda d: 0.5 ** np.arange(d),
    "geom0.7": lambda d: 0.7 ** np.arange(d),
    "harmonic": lambda d: 1.0 / np.arange(1, d + 1),
    "harmonic2": lambda d: 1.0 / np.arange(1, d + 1) ** 2,
    "linear_tie": lambda d: np.array([d, d - 1, d - 1] + list(range(d - 3, 0, -1)), float),
    "step": lambda d: np.array([3.0] * (d // 2) + [1.0] * (d - d // 2)),
}
FIXED_RANKS = (6, 7, 8)
#: Vectors on which accessible_volume is wrong, one per rank 6-8 (Dirichlet
#: draws; README gives the size of each error), passed bit for bit: at rank 6
#: the error goes away when the components are renormalized once more.  Their
#: E_a calls fail with a VOLUME problem in every round, whatever the seed,
#: until the volume is mended.
WRONG_VOLUME = {
    6: (0.33004894739235696, 0.30174162548416417, 0.23270697412514393, 0.08783427038670483,
        0.024071270302984112, 0.02359691230864617),
    7: (0.2701698982763416, 0.24576524878497105, 0.17102141136390436, 0.149794463792334,
        0.06856945045703564, 0.055801218346592005, 0.03887830897882139),
    8: (0.3309479676441337, 0.28228119787477945, 0.13223616063931304, 0.08191312008317689,
        0.06926566226108737, 0.05352495549049311, 0.03753052865078434, 0.01230040735623214),
}
WRONG = "wrong_volume"
#: More Dirichlet vectors per rank.  A round is one closed loop of about
#: 20 s, so each latency quantile is an order statistic of a single round;
#: it is steady only inside a large group of calls that cost the same, spread
#: over the round.  The E_s calls at rank 6 (about 0.8 ms each) hold the
#: median, and those at rank 8 (about 50 ms, with E_a at rank 6 beside them)
#: the 90th percentile, under the 30 dearer calls of E_s at ranks 9-10 and
#: E_a at ranks 7-8.  Beyond rank 5 the extras go through E_s only.
EXTRAS = {2: 2, 3: 2, 4: 2, 5: 2, 6: 280, 7: 2, 8: 8}


class Bipartite:
    """E_s and E_a along majorization chains, ranks 2-10.

    Per rank d the seeded chain is separable > lam > tie > mix > flat under
    majorization: lam is Dirichlet(1), tie averages two adjacent components
    of lam, mix = (tie + flat) / 2; the linear profile d, d-1, .., 1 joins
    up to rank 9, the EXTRAS Dirichlet vectors join at ranks 2-8, rank 9
    drops mix and rank 10 keeps separable, tie and flat.  E_s runs on these
    vectors.  E_a runs on all of them up to rank 5; at ranks 6-8 on
    separable, linear, flat and the FIXED_PROFILES, plus the WRONG_VOLUME
    vector of the rank.
    """

    name = "bipartite"
    SOURCE_K = ((2, 3), (3, 4), (4, 5))
    ACCESS_K = ((3, 2, "lam"), (5, 3, "lam"), (6, 4, "lam"), (6, 5, "lam"), (7, 5, "lam"),
                (8, 4, "lam"), (8, 6, "harmonic"), (8, 7, "geom0.7"))

    def __init__(self, seed: int, entvol) -> None:
        self.ev = entvol
        rng = np.random.default_rng([seed, 1])
        self.vectors: dict[int, dict[str, tuple]] = {}
        for d in range(2, 11):
            lam = np.sort(rng.dirichlet(np.ones(d)))[::-1]
            tie = lam.copy()
            j = int(rng.integers(0, d - 1))
            tie[j] = tie[j + 1] = (lam[j] + lam[j + 1]) / 2
            vs = {"separable": np.eye(d)[0], "lam": lam}
            if d > 2:
                vs["tie"] = tie
            vs["mix"] = ((tie if d > 2 else lam) + 1.0 / d) / 2
            vs["flat"] = np.full(d, 1.0 / d)
            if d <= 9:
                vs["linear"] = np.arange(d, 0, -1.0)
            for i in range(EXTRAS.get(d, 0)):
                vs[f"extra{i}"] = np.sort(rng.dirichlet(np.ones(d)))[::-1]
            if d in FIXED_RANKS:
                vs.update((key, f(d)) for key, f in FIXED_PROFILES.items())
            if d == 9:
                del vs["mix"]
            if d == 10:
                del vs["lam"], vs["mix"]
            self.vectors[d] = {k: entvol.canonicalize(v) for k, v in vs.items()}
        self.wrong = {d: entvol.SchmidtVector(v) for d, v in WRONG_VOLUME.items()}
        self.ops = self._ops()

    def vector(self, attrs: dict):
        if attrs["vector"] == WRONG:
            return self.wrong[attrs["d"]]
        return self.vectors[attrs["d"]][attrs["vector"]]

    def _ops(self) -> list[Op]:
        bp = self.ev.bipartite
        ops = []
        for d, vs in self.vectors.items():
            for key, lam in vs.items():
                if key in FIXED_PROFILES:
                    continue
                ops.append(Op("bipartite.source_entanglement",
                              lambda lam=lam: bp.source_entanglement(lam),
                              {"d": d, "vector": key}, known_fault=RANGE if key == "separable" else ""))
            for key, lam in vs.items():
                if d <= 5 or (d <= 8 and (key in FIXED_PROFILES or key in SEED_INDEPENDENT)):
                    ops.append(Op("bipartite.accessible_entanglement",
                                  lambda lam=lam: bp.accessible_entanglement(lam),
                                  {"d": d, "vector": key}))
        for d, lam in self.wrong.items():
            ops.append(Op("bipartite.accessible_entanglement",
                          lambda lam=lam: bp.accessible_entanglement(lam),
                          {"d": d, "vector": WRONG}, known_fault=VOLUME))
        for d, k in self.SOURCE_K:
            lam = self.vectors[d]["lam"]
            ops.append(Op("bipartite.source_entanglement_k",
                          lambda lam=lam, k=k: bp.source_entanglement_k(lam, k),
                          {"d": d, "k": k, "vector": "lam"}))
        for d, k, key in self.ACCESS_K:
            lam = self.vectors[d][key]
            ops.append(Op("bipartite.accessible_entanglement_k",
                          lambda lam=lam, k=k: bp.accessible_entanglement_k(lam, k),
                          {"d": d, "k": k, "vector": key}))
        return ops

    def warm_up(self) -> None:
        bp = self.ev.bipartite
        lam = self.ev.canonicalize([0.5, 0.3, 0.2])
        bp.source_entanglement(lam)
        bp.accessible_entanglement(lam)
        # fills source_entanglement_sup's cache for the (d, k) pairs of a round
        for d, k in self.SOURCE_K:
            bp.source_entanglement_k(self.vectors[d]["lam"], k)

    def references(self) -> list[dict]:
        return [self._reference(op.span, self.vector(op.attrs).components, op.attrs)
                for op in self.ops]

    @staticmethod
    def _reference(span: str, lam: tuple, a: dict) -> dict:
        d = len(lam)
        region = refs.chamber_region_volume(d)
        if span == "bipartite.source_entanglement":
            if d == 2:
                return {"E": refs.two_qubit_entanglement(lam), "tol": 1e-12}
            if d == 3:
                return {"E": refs.two_qutrit_forms(lam)["E_s"], "tol": 1e-12}
            if d <= 7:
                return {"E": float(refs.source_entanglement_exact(lam)), "tol": 1e-12}
            return {"V": refs.chamber_volume(lam, "source"), "floor": 1e-12 * region}
        if span == "bipartite.accessible_entanglement":
            if d == 2:
                return {"E": refs.two_qubit_entanglement(lam), "tol": 1e-12}
            if d == 3:
                return {"V": refs.two_qutrit_forms(lam)["V_a"], "floor": 1e-13 * region}
            return {"V": refs.chamber_volume(lam, "accessible"), "floor": 1e-13 * region}
        k = a["k"]
        if span == "bipartite.source_entanglement_k":
            if (d, k) == (3, 4):
                return {"E": refs.two_qutrit_forms(lam)["E_s_k4"], "tol": 1e-12}
            big = tuple(lam) + (0.0,) * (k - d)
            flat = (1.0 / d,) * d + (0.0,) * (k - d)
            exact = refs.source_entanglement_exact(big) / refs.source_entanglement_exact(flat)
            return {"E": float(exact), "tol": 1e-12}
        if (d, k) == (3, 2):
            return {"E": refs.two_qutrit_forms(lam)["E_a_k2"], "tol": 1e-12}
        vol = refs.chamber_volume(lam, "accessible", k)
        return {"E": vol / refs.chamber_region_volume(k), "tol": 1e-12}

    def load_references(self, ref: list[dict]) -> None:
        self.ref = ref

    def check(self, results: list) -> list[list[str]]:
        problems = [[] for _ in results]
        values: dict[tuple, float] = {}
        for i, (op, rep, ref) in enumerate(zip(self.ops, results, self.ref)):
            a = op.attrs
            if isinstance(rep, Exception):
                problems[i].append(f"raised {rep!r}")
                continue
            e, v = rep.entanglement, rep.volume
            values[op.span, a["d"], a["vector"], a.get("k")] = e
            if not in_range(e):
                problems[i].append(f"{RANGE}: E = {e!r}")
            if "E" in ref and not close(e, ref["E"], 0.0, ref["tol"]):
                problems[i].append(f"E = {e!r}, reference {ref['E']!r}")
            if "V" in ref and not close(v, ref["V"], 1e-9, ref["floor"]):
                problems[i].append(f"{VOLUME}: V = {v!r}, reference {ref['V']!r}")
            if a["vector"] == "separable" and abs(e) > PROPERTY_TOL:
                problems[i].append(f"E = {e!r} on the separable state")
            if a["vector"] == "flat" and abs(e - 1.0) > PROPERTY_TOL:
                problems[i].append(f"E = {e!r} on the flat state")
        # monotone under majorization: E never drops toward the flat state
        for i, op in enumerate(self.ops):
            a = op.attrs
            if "k" in a or a["vector"] == WRONG:
                continue
            key, vs = (op.span, a["d"]), self.vectors[a["d"]]
            mine = values.get(key + (a["vector"], None))
            for other, lam in vs.items():
                theirs = values.get(key + (other, None))
                if (mine is not None and theirs is not None and other != a["vector"]
                        and refs.majorizes(lam.components, vs[a["vector"]].components)
                        and mine < theirs - PROPERTY_TOL):
                    problems[i].append(f"not monotone: E({a['vector']}) < E({other})")
        return problems


# -- four qubits ------------------------------------------------------------------

@dataclass(eq=False)
class State:
    """A four-qubit state with the tag and parameters it was built from."""

    gammas: np.ndarray
    tag: str
    params: dict


def _unit(rng) -> np.ndarray:
    ang = rng.uniform(0, 2 * math.pi)
    return np.array([math.cos(ang), math.sin(ang)])


def _sign(rng) -> float:
    return float(rng.choice([-1.0, 1.0]))


def _put(rows: np.ndarray, party: int, axes, values) -> None:
    for ax, val in zip(axes, values):
        rows[party, ax] = val


class StateFactory:
    """Seeded four-qubit states per structure tag, and convertible pairs.

    A pair (initial, final) is convertible by construction: final
    parameters grow along the axis rows, and for one party gamma = eta (.) zeta
    with eta inside the character tetrahedron.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def _parties(self, n):
        return [int(p) for p in self.rng.permutation(4)[:n]]

    def _axes(self, n):
        return [int(a) for a in self.rng.permutation(3)[:n]]

    def state(self, tag: str) -> State:
        rng, g = self.rng, np.zeros((4, 3))
        if tag == "seed":
            return State(g, tag, {})
        if tag == "mes_aligned":
            (w,), n = self._axes(1), int(rng.integers(2, 5))
            for p in self._parties(n):
                g[p, w] = _sign(rng) * rng.uniform(0.05, 0.45)
            return State(g, tag, {"axis_all": list(g[:, w])})
        if tag == "axis_only":
            (p,), (w,) = self._parties(1), self._axes(1)
            g[p, w] = _sign(rng) * rng.uniform(0.05, 0.45)
            return State(g, tag, {"value": g[p, w]})
        if tag == "general_one_party_2d":
            (p,), (u, v) = self._parties(1), self._axes(2)
            while True:
                g1, g2 = rng.uniform(0.05, 0.45, size=2)
                if math.hypot(g1, g2) < 0.45 and not refs.caseiii_3d(g1, g2):
                    break
            _put(g, p, (u, v), (_sign(rng) * g1, _sign(rng) * g2))
            return State(g, tag, {"g1": g1, "g2": g2})
        if tag == "general_plus_axes":
            (p, *others), (w, u, v) = self._parties(int(rng.integers(2, 4))), self._axes(3)
            gw = rng.uniform(0.05, 0.3)
            t = rng.uniform(0.05, 0.95 * math.sqrt(0.2025 - gw * gw)) * _unit(rng)
            _put(g, p, (w, u, v), (_sign(rng) * gw, *t))
            for q in others:
                g[q, w] = _sign(rng) * rng.uniform(0.05, 0.45)
            return State(g, tag, {"gw": gw, "t": t, "w": w})
        if tag == "two_axes":
            (p, q), (u, w) = self._parties(2), self._axes(2)
            g[p, u], g[q, w] = (_sign(rng) * x for x in rng.uniform(0.05, 0.45, size=2))
            return State(g, tag, {"g1": g[p, u], "g2": g[q, w]})
        if tag == "axis_plus_transverse":
            (q, p), (w, u, v) = self._parties(2), self._axes(3)
            g[q, w] = _sign(rng) * rng.uniform(0.05, 0.45)
            t = rng.uniform(0.05, 0.45) * _unit(rng)
            _put(g, p, (u, v), t)
            return State(g, tag, {"value": g[q, w], "t": t})
        if tag == "isolated":
            for p in self._parties(2):
                g[p] = rng.uniform(0.1, 0.25, size=3) * np.array([_sign(rng) for _ in range(3)])
            return State(g, tag, {})
        raise KeyError(tag)

    def caseiii(self, zero_component: bool = False) -> State:
        """A general_one_party state whose reachable region is 3-D."""
        rng, g = self.rng, np.zeros((4, 3))
        (p,) = self._parties(1)
        while True:
            gam = rng.uniform(0.03, 0.3, size=3) * np.array([_sign(rng) for _ in range(3)])
            if zero_component:
                gam[int(rng.integers(0, 3))] = 0.0
                nz = np.abs(gam[gam != 0])
                if not refs.caseiii_3d(*nz):
                    continue
            if np.linalg.norm(gam) < 0.45:
                break
        g[p] = gam
        return State(g, "general_one_party", {"gamma": gam})

    def pair(self, row: str) -> tuple[State, State]:
        rng = self.rng
        gi, gf = np.zeros((4, 3)), np.zeros((4, 3))
        if row == "transverse_scaling":
            (p, q), (w, u, v) = self._parties(2), self._axes(3)
            gw = rng.uniform(0.05, 0.3)
            t = rng.uniform(0.05, 0.95 * math.sqrt(0.2025 - gw * gw)) * _unit(rng)
            s = rng.uniform(0.05, 0.95)
            _put(gi, p, (w, u, v), (gw, *(s * t)))
            _put(gf, p, (w, u, v), (gw, *t))
            gi[q, w] = gf[q, w] = rng.uniform(0.05, 0.4)
            return (State(gi, "general_plus_axes", {"gw": gw, "t": s * t}),
                    State(gf, "general_plus_axes", {"gw": gw, "t": t}))
        if row == "axis_rectangle":
            (p, q), (u, w) = self._parties(2), self._axes(2)
            a, b = rng.uniform(0.02, 0.4, size=2)
            za, zb = rng.uniform(a, 0.45), rng.uniform(b, 0.45)
            gi[p, u], gi[q, w], gf[p, u], gf[q, w] = a, b, za, zb
            return (State(gi, "two_axes", {"g1": a, "g2": b}),
                    State(gf, "two_axes", {"g1": za, "g2": zb}))
        (p,) = self._parties(1)
        if row == "single_party_axis":
            (w,) = self._axes(1)
            a = rng.uniform(0.02, 0.4)
            gi[p, w], gf[p, w] = a, rng.uniform(a + 0.01, 0.45)
            return (State(gi, "axis_only", {"value": gi[p, w]}),
                    State(gf, "axis_only", {"value": gf[p, w]}))
        if row == "single_party_plane":
            (u, v) = self._axes(2)
            while True:
                a, b = rng.uniform(0.02, 0.35, size=2)
                za, zb = rng.uniform(a, 0.4), rng.uniform(b, 0.4)
                if math.hypot(za, zb) <= 0.45:
                    break
            _put(gi, p, (u, v), (a, b))
            _put(gf, p, (u, v), (za, zb))
            return self._one_party(gi, p), self._one_party(gf, p)
        if row == "single_party_general":
            while True:
                zeta = rng.uniform(0.05, 0.3, size=3) * np.array([_sign(rng) for _ in range(3)])
                eta = _random_eta(rng)
                if np.linalg.norm(zeta) <= 0.45:
                    break
            gi[p], gf[p] = eta * zeta, zeta
            return self._one_party(gi, p), self._one_party(gf, p)
        if row in ("axis_to_general", "seed_to_general"):
            a = rng.uniform(0.02, 0.3) if row == "axis_to_general" else 0.0
            while True:
                zeta = np.array([rng.uniform(a + 0.02, 0.42), _sign(rng) * rng.uniform(0.03, 0.25),
                                 _sign(rng) * rng.uniform(0.03, 0.25)])
                if np.linalg.norm(zeta) <= 0.45:
                    break
            gi[p, 0], gf[p] = a, zeta
            first = State(gi, "axis_only", {"value": a}) if a else State(gi, "seed", {})
            return first, self._one_party(gf, p)
        raise KeyError(row)

    @staticmethod
    def _one_party(g: np.ndarray, p: int) -> State:
        gam = g[p]
        nz = np.abs(gam[gam != 0])
        if len(nz) == 2 and not refs.caseiii_3d(*nz):
            return State(g, "general_one_party_2d", {"g1": nz[0], "g2": nz[1]})
        return State(g, "general_one_party", {"gamma": gam})


def _random_eta(rng) -> np.ndarray:
    """A character vector of a Pauli-twirl distribution, away from the planes."""
    while True:
        p = rng.dirichlet(np.ones(4))
        eta = np.array([p[0] + p[1] - p[2] - p[3], p[0] - p[1] + p[2] - p[3],
                        p[0] - p[1] - p[2] + p[3]])
        if np.min(np.abs(eta)) >= 0.05:
            return eta


def seed_params(rng: np.random.Generator) -> tuple:
    """(a, b, c, d) of a generic seed: unit norm, squares at least 0.05 apart."""
    while True:
        a = rng.normal()
        b, c, d = (complex(rng.normal(), rng.normal()) for _ in range(3))
        n = math.sqrt(a * a + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2)
        p = (a / n, b / n, c / n, d / n)
        sq = [x * x for x in p]
        if min(abs(x - y) for i, x in enumerate(sq) for y in sq[i + 1:]) >= 0.05:
            return p


TAGS = ("seed", "mes_aligned", "axis_only", "general_one_party_2d", "general_plus_axes",
        "two_axes", "axis_plus_transverse", "isolated")
ROWS = ("transverse_scaling", "axis_rectangle", "single_party_general", "single_party_plane",
        "single_party_axis", "axis_to_general", "seed_to_general")
CLOSED_FORM_ROWS = ("transverse_scaling", "axis_rectangle", "single_party_axis")
PROGRAM_TAG = {"general_one_party_2d": "general_one_party"}


def check_measures(tag: str, params: dict, s_rep, a_rep, va_ref=None) -> list[str]:
    """Program's (E_s, E_a) reports against the case formulas."""
    out = []
    ref = refs.case_volumes(tag, params)
    if va_ref is not None:
        ref["V_a"], ref["E_a"] = va_ref, va_ref / ref["a_sup"]
    for side, rep in (("s", s_rep), ("a", a_rep)):
        if rep.dimension != ref[f"{side}_dim"]:
            out.append(f"V_{side} dimension {rep.dimension}, expected {ref[side + '_dim']}")
        if not in_range(rep.entanglement):
            out.append(f"{RANGE}: E_{side} = {rep.entanglement!r}")
        # a replayed Monte-Carlo volume must match to rounding; formulas to 1e-9
        rel, floor = (1e-12, 0.0) if va_ref is not None and side == "a" else (1e-9, 1e-12)
        if not close(rep.volume, ref[f"V_{side}"], rel, floor):
            out.append(f"V_{side} = {rep.volume!r}, reference {ref['V_' + side]!r}")
        if not close(rep.v_sup, ref[f"{side}_sup"], 1e-12, 0.0):
            out.append(f"V_{side}_sup = {rep.v_sup!r}, reference {ref[side + '_sup']!r}")
        if not close(rep.entanglement, ref[f"E_{side}"], 1e-9, 1e-12):
            out.append(f"E_{side} = {rep.entanglement!r}, reference {ref['E_' + side]!r}")
    return out


class FourQubit:
    """classify, entanglement_4q, can_convert and povm_witness on seeded states.

    100 states for each of eight structure tags (every tag except the 3-D
    general_one_party region) and 60 convertible pairs for each of seven
    conversion rows.  Each pair is converted forward, its reverse must be
    refused, and its witness is rebuilt and checked.
    """

    name = "fourqubit"
    PER_TAG = 100
    PER_ROW = 60

    def __init__(self, seed: int, entvol) -> None:
        self.ev = entvol
        rng = np.random.default_rng([seed, 2])
        self.seed = seed_params(rng)
        make = StateFactory(rng)
        self.states = [make.state(t) for t in TAGS for _ in range(self.PER_TAG)]
        self.pairs = [(row, *make.pair(row)) for row in ROWS for _ in range(self.PER_ROW)]
        fq = entvol.fourqubit
        sp = fq.SeedParams(*self.seed)
        self.forms = {id(s): fq.FourQubitForm(sp, s.gammas)
                      for s in self.states + [x for _, a, b in self.pairs for x in (a, b)]}
        # states whose measures are closed forms: the tag states plus the members
        # of the pairs whose rows stay inside one closed-form tag
        self.measured = self.states + [x for row, a, b in self.pairs for x in (a, b)
                                       if row in CLOSED_FORM_ROWS]
        self.classified = {id(s): fq.classify(self.forms[id(s)]) for s in self.measured}
        self.ops = self._ops()

    def _ops(self) -> list[Op]:
        fq = self.ev.fourqubit
        ops = [Op("fourqubit.classify", lambda f=self.forms[id(s)]: fq.classify(f),
                  {"state": s}) for s in self.states]
        ops += [Op("fourqubit.entanglement_4q",
                   lambda c=self.classified[id(s)]: fq.entanglement_4q(c), {"state": s})
                for s in self.measured]
        for j, (row, a, b) in enumerate(self.pairs):
            fa, fb = self.forms[id(a)], self.forms[id(b)]
            ops.append(Op("fourqubit.can_convert", lambda fa=fa, fb=fb: fq.can_convert(fa, fb),
                          {"row": row, "pair": (a, b), "forward": True}))
            ops.append(Op("fourqubit.can_convert", lambda fa=fa, fb=fb: fq.can_convert(fb, fa),
                          {"row": row, "pair": (a, b), "forward": False}))
            ops.append(Op("fourqubit.povm_witness", lambda fa=fa, fb=fb: fq.povm_witness(fa, fb),
                          {"row": row, "pair_index": j}))
        return ops

    def warm_up(self) -> None:
        for op in self.ops[:: max(1, len(self.ops) // 50)]:
            op.fn()

    def references(self) -> list:
        """State vectors of each pair's two members in all four sign gauges,
        for the witness checks."""
        return [[[refs.state_vector(self.seed, s.gammas * k) for k in refs.KLEIN] for s in (a, b)]
                for _, a, b in self.pairs]

    def load_references(self, vectors: list) -> None:
        self.vectors = vectors

    def check(self, results: list) -> list[list[str]]:
        problems = [[] for _ in results]
        e_values = {}
        for i, (op, out) in enumerate(zip(self.ops, results)):
            if isinstance(out, Exception):
                problems[i].append(f"raised {out!r}")
                continue
            a = op.attrs
            if op.span == "fourqubit.classify":
                s = a["state"]
                if out.tag != PROGRAM_TAG.get(s.tag, s.tag):
                    problems[i].append(f"tag {out.tag}, built as {s.tag}")
            elif op.span == "fourqubit.entanglement_4q":
                s = a["state"]
                problems[i] += check_measures(s.tag, s.params, *out)
                e_values[id(s)] = out
            elif op.span == "fourqubit.can_convert":
                if a["forward"] and not out:
                    problems[i].append(f"{a['row']} pair refused: {out.detail}")
                if not a["forward"] and out:
                    problems[i].append(f"reverse of a {a['row']} pair accepted via {out.row}")
            else:
                problems[i] += self._check_witness(out, *self.vectors[a["pair_index"]])
        # source and accessible entanglement never grow along a conversion
        for i, op in enumerate(self.ops):
            if op.span == "fourqubit.can_convert" and op.attrs["forward"]:
                a, b = op.attrs["pair"]
                if id(a) in e_values and id(b) in e_values:
                    for side in (0, 1):
                        ra, rb = e_values[id(a)][side], e_values[id(b)][side]
                        if (ra.dimension == rb.dimension
                                and rb.entanglement > ra.entanglement + PROPERTY_TOL):
                            problems[i].append(f"{ra.quantity} entanglement grows along the pair")
        return problems

    def _check_witness(self, wit, initial: list, target: list) -> list[str]:
        """sum M^dag M = 1, and every outcome lands on the target's LU class."""
        mats = [refs.kron_all(ops) for ops in wit.outcomes]
        comp = float(np.max(np.abs(sum(m.conj().T @ m for m in mats) - np.eye(16))))
        out = [] if comp <= 1e-12 else [f"completeness residual {comp:.1e}"]
        # the program works in its sign gauge, so try the four gauges of each side
        best = min(max(1.0 - abs(np.vdot(phi, m @ psi)) / np.linalg.norm(m @ psi) for m in mats)
                   for psi in initial for phi in target)
        if best > 1e-9:
            out.append(f"an outcome leaves the target class (overlap defect {best:.1e})")
        return out


# -- Monte Carlo -------------------------------------------------------------------

class MonteCarlo:
    """The numeric Case-III region and the three Monte-Carlo oracles.

    Per round: entanglement_4q on four 3-D general_one_party states at the
    default sampling plan (three with all components nonzero, one with a zero
    component), mc_source_volume and mc_accessible_volume on one Dirichlet
    vector per rank 2-8 at 1M samples, and mc_region_volume on the half ball.
    """

    name = "montecarlo"
    SAMPLES = 1_000_000
    OWN_SAMPLES = 2_000_000

    def __init__(self, seed: int, entvol) -> None:
        self.ev = entvol
        rng = np.random.default_rng([seed, 3])
        self.seed = seed_params(rng)
        make = StateFactory(rng)
        self.cases = [make.caseiii() for _ in range(3)] + [make.caseiii(zero_component=True)]
        self.lams = {d: entvol.canonicalize(rng.dirichlet(np.ones(d))) for d in range(2, 9)}
        self.mc_seed = int(rng.integers(0, 2 ** 31))
        fq, orc = entvol.fourqubit, entvol.oracle
        sp = fq.SeedParams(*self.seed)
        self.classified = [fq.classify(fq.FourQubitForm(sp, s.gammas)) for s in self.cases]
        cfg = orc.McConfig(samples=self.SAMPLES, seed=self.mc_seed)
        lo, hi = refs.HALF_BOX
        ops = [Op("fourqubit.entanglement_4q.caseiii", lambda c=c: fq.entanglement_4q(c),
                  {"case": j}) for j, c in enumerate(self.classified)]
        for d, lam in self.lams.items():
            ops.append(Op("oracle.mc_source_volume", lambda lam=lam: orc.mc_source_volume(lam, cfg),
                          {"d": d, "samples": self.SAMPLES}))
            ops.append(Op("oracle.mc_accessible_volume",
                          lambda lam=lam: orc.mc_accessible_volume(lam, cfg),
                          {"d": d, "samples": self.SAMPLES}))
        ops.append(Op("oracle.mc_region_volume",
                      lambda: orc.mc_region_volume(_half_ball, lo, hi, cfg),
                      {"region": "half-ball", "samples": self.SAMPLES}))
        self.ops = ops

    def warm_up(self) -> None:
        orc, fq = self.ev.oracle, self.ev.fourqubit
        small = orc.McConfig(samples=20_000, seed=1)
        fq.entanglement_4q(self.classified[0], small)
        orc.mc_source_volume(self.lams[4], small)
        orc.mc_accessible_volume(self.lams[4], small)

    def references(self) -> dict:
        plan = self.ev.fourqubit.DEFAULT_MC
        own = np.random.default_rng([self.mc_seed, 4])
        return {
            "replay": refs.caseiii_replay([s.params["gamma"] for s in self.cases],
                                          plan.seed, plan.samples),
            "own": [refs.caseiii_volume(s.params["gamma"], own, self.OWN_SAMPLES) for s in self.cases],
            "volumes": {d: (refs.chamber_volume(lam.components, "source"),
                            refs.chamber_volume(lam.components, "accessible"))
                        for d, lam in self.lams.items()},
        }

    def load_references(self, ref: dict) -> None:
        self.replay, self.own, self.volumes = ref["replay"], ref["own"], ref["volumes"]

    def check(self, results: list) -> list[list[str]]:
        problems = [[] for _ in results]
        n = self.SAMPLES
        for i, (op, out) in enumerate(zip(self.ops, results)):
            if isinstance(out, Exception):
                problems[i].append(f"raised {out!r}")
                continue
            if op.span == "fourqubit.entanglement_4q.caseiii":
                j = op.attrs["case"]
                s, replay = self.cases[j], self.replay[j]
                problems[i] += check_measures(s.tag, s.params, *out, va_ref=replay)
                # the program's estimate against the own one, each with its standard error
                est, sig = self.own[j]
                p = replay / 0.5
                sig_prog = 0.5 * math.sqrt(p * (1 - p) / self.ev.fourqubit.DEFAULT_MC.samples)
                if abs(out[1].volume - est) > SIGMAS * math.hypot(sig, sig_prog):
                    problems[i].append(f"V_a = {out[1].volume!r}, own estimate {est!r} +- {sig:.1e}")
                continue
            if op.span == "oracle.mc_region_volume":
                ref, box = math.pi / 12, 0.5
            else:
                d = op.attrs["d"]
                ref = self.volumes[d][op.span == "oracle.mc_accessible_volume"]
                box = refs.chamber_region_volume(d)
            # Laplace-smoothed hit fraction keeps the error bar positive at 0 or n hits
            p = (out.estimate / box * n + 1.0) / (n + 2.0)
            sigma = box * math.sqrt(p * (1.0 - p) / n)
            if abs(out.estimate - ref) > SIGMAS * sigma:
                problems[i].append(f"estimate {out.estimate!r}, reference {ref!r} (sigma {sigma:.1e})")
        return problems


def _half_ball(pts: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", pts, pts) < 0.25


WORKLOADS = {w.name: w for w in (Bipartite, FourQubit, MonteCarlo)}
