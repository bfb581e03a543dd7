"""The cli workload: cold ``python -m entvol.cli`` processes, one at a time.

One round runs every command of the README once, with seeded inputs of the
README's shapes, plus ``bipartite source --k 6`` on a rank-4 vector and
``fourqubit measures`` on a Case-III state at the CLI's 1M samples.  Each
process is one operation; its output is parsed and checked against the
references of ``refs``.  Under ``--trace 1`` every process instead runs a
short script that times ``import entvol.cli`` and ``cli.main(argv)``
inside the process.
"""

from __future__ import annotations

import csv
import io
import json
import math
import resource
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import harness
import refs
from workloads import SIGMAS, Op, StateFactory, close

SAMPLES = 1_000_000
WARM_UP = ["bipartite", "convert", "--from", "0.6,0.4", "--to", "0.7,0.3"]

INSTRUMENTED = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
import entvol.cli
t1 = time.perf_counter()
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = entvol.cli.main(sys.argv[1:])
t2 = time.perf_counter()
sys.stdout.write(buf.getvalue())
sys.stderr.write("\\n__timing__ " + json.dumps({"import_s": t1 - t0, "main_s": t2 - t1}) + "\\n")
sys.exit(code)
"""


@dataclass
class Proc:
    returncode: int
    stdout: str
    stderr: str

    def timing(self) -> dict:
        for line in self.stderr.splitlines():
            if line.startswith("__timing__ "):
                return json.loads(line[len("__timing__ "):])
        return {}


def cli_process(argv: list[str], stdin: str | None, instrumented: bool) -> Proc:
    cmd = ([sys.executable, "-c", INSTRUMENTED] if instrumented
           else [sys.executable, "-m", "entvol.cli"]) + argv
    p = subprocess.run(cmd, cwd=harness.ROOT, env=harness.child_env(), input=stdin,
                       capture_output=True, text=True)
    return Proc(p.returncode, p.stdout, p.stderr)


def fmt(xs) -> str:
    return ",".join(repr(float(x)) for x in xs)


def fmt_gammas(g: np.ndarray) -> str:
    return ";".join(fmt(row) for row in g)


class Cli:
    def __init__(self, seed: int, instrumented: bool) -> None:
        rng = np.random.default_rng([seed, 5])
        make = StateFactory(rng)
        self.mc_seed = int(rng.integers(0, 2 ** 31))

        def sorted_dirichlet(d):
            return np.sort(rng.dirichlet(np.ones(d)))[::-1]

        self.lam4, self.lam4k, self.lam3 = sorted_dirichlet(4), sorted_dirichlet(4), sorted_dirichlet(3)
        self.conv = (sorted_dirichlet(2), sorted_dirichlet(2))
        self.sweep_from = sorted_dirichlet(2)
        self.gpa = make.state("general_plus_axes")
        self.rect = make.pair("axis_rectangle")
        self.axis_value = float(rng.uniform(0.05, 0.45))
        self.case3 = make.caseiii()
        w, h, ang = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0), rng.uniform(0, math.pi)
        rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        self.corners = np.array([[x, y] for x in (0, w) for y in (0, h)]) @ rot.T
        self.area = w * h
        # {x : A x + b >= 0}: the rectangle [0, w] x [0, h], rotated
        A = np.vstack([np.eye(2), -np.eye(2)]) @ rot.T
        box = json.dumps({"A": A.tolist(), "b": [0.0, 0.0, w, h]})
        zeros = np.zeros((4, 3))
        axis = zeros.copy()
        axis[0, 0] = self.axis_value
        mc = ["--samples", str(SAMPLES), "--seed", str(self.mc_seed)]
        self.commands = [
            ("bipartite.source", ["bipartite", "source", "--schmidt", fmt(self.lam4), "--json"], None),
            ("bipartite.accessible", ["bipartite", "accessible", "--schmidt", fmt(self.lam4), "--json"], None),
            ("bipartite.convert", ["bipartite", "convert", "--from", fmt(self.conv[0]),
                                   "--to", fmt(self.conv[1])], None),
            ("bipartite.sweep", ["bipartite", "sweep", "--from-schmidt", fmt(self.sweep_from),
                                 "--to-schmidt", "1,0", "--steps", "6"], None),
            ("fourqubit.classify", ["fourqubit", "classify", "--gammas=" + fmt_gammas(self.gpa.gammas)], None),
            ("fourqubit.measures", ["fourqubit", "measures", "--gammas=" + fmt_gammas(zeros), "--json"], None),
            ("fourqubit.convert", ["fourqubit", "convert", "--from-gammas=" + fmt_gammas(self.rect[0].gammas),
                                   "--to-gammas=" + fmt_gammas(self.rect[1].gammas)], None),
            ("fourqubit.witness", ["fourqubit", "witness", "--from-gammas=" + fmt_gammas(self.rect[0].gammas),
                                   "--to-gammas=" + fmt_gammas(self.rect[1].gammas), "--json"], None),
            ("fourqubit.sweep", ["fourqubit", "sweep", "--from-gammas=" + fmt_gammas(zeros),
                                 "--to-gammas=" + fmt_gammas(axis), "--steps", "5"], None),
            # the README reads polytopes from a file; here they come on stdin
            ("polytope.vertices", ["polytope", "vertices", "--input", "-"], box),
            ("polytope.volume", ["polytope", "volume", "--input", "-", "--json"], box),
            ("oracle.source", ["oracle", "source", "--schmidt", fmt(self.lam3)] + mc, None),
            ("oracle.accessible", ["oracle", "accessible", "--schmidt", fmt(self.lam3)] + mc, None),
            ("oracle.region", ["oracle", "region", "--region", "half-ball"] + mc, None),
            ("bipartite.source_k", ["bipartite", "source", "--schmidt", fmt(self.lam4k),
                                    "--k", "6", "--json"], None),
            ("fourqubit.measures_caseiii", ["fourqubit", "measures",
                                            "--gammas=" + fmt_gammas(self.case3.gammas), "--json",
                                            "--mc-seed", str(self.mc_seed)], None),
        ]
        self.ops = [Op(f"cli.{name}", lambda a=argv, s=stdin: cli_process(a, s, instrumented),
                       {"cmd": name}) for name, argv, stdin in self.commands]

    def references(self) -> None:
        """The values each command must print, computed from the inputs alone."""
        r = {}
        lam4 = tuple(self.lam4 / self.lam4.sum())
        r["E_s"] = float(refs.source_entanglement_exact(lam4))
        verts, _ = refs.chamber_vertices(lam4, "accessible")
        r["E_a"] = refs.chamber_volume(lam4, "accessible") / refs.chamber_region_volume(4)
        r["vertices"] = len(verts)
        lam4k = tuple(self.lam4k / self.lam4k.sum()) + (0.0, 0.0)
        flat = (0.25,) * 4 + (0.0, 0.0)
        r["E_s_k6"] = float(refs.source_entanglement_exact(lam4k) / refs.source_entanglement_exact(flat))
        lam3 = tuple(self.lam3 / self.lam3.sum())
        r["V_s3"] = refs.chamber_volume(lam3, "source")
        r["V_a3"] = refs.chamber_volume(lam3, "accessible")
        gam = self.case3.params["gamma"]
        r["caseiii_replay"] = refs.caseiii_replay([gam], self.mc_seed, SAMPLES)[0]
        own = np.random.default_rng([self.mc_seed, 6])
        r["caseiii_own"] = refs.caseiii_volume(gam, own, SAMPLES)
        self.ref = r

    def check(self, results: list) -> list[list[str]]:
        problems = []
        for (name, _, _), out in zip(self.commands, results):
            if isinstance(out, Exception):
                problems.append([f"raised {out!r}"])
            elif out.returncode != 0:
                problems.append([f"exit {out.returncode}: {out.stderr.strip()[-300:]}"])
            else:
                try:
                    problems.append(getattr(self, "_" + name.replace(".", "_"))(out.stdout))
                except (ValueError, KeyError, IndexError) as exc:
                    problems.append([f"unreadable output ({exc!r}): {out.stdout[:200]!r}"])
        return problems

    # -- one checker per command; each returns its problems ---------------------

    @staticmethod
    def _digits(name: str, x: float, ref: float, floor: float = 1e-15) -> list[str]:
        """The CLI prints 12 significant digits."""
        return [] if close(x, ref, 2e-11, floor) else [f"{name} = {x!r}, reference {ref!r}"]

    def _bipartite_source(self, text):
        p = json.loads(text)
        return (self._digits("E_s", p["E_s"], self.ref["E_s"])
                + self._digits("V_s", p["V_s"], (1 - self.ref["E_s"]) * refs.chamber_region_volume(4)))

    def _bipartite_accessible(self, text):
        p = json.loads(text)
        out = self._digits("E_a", p["E_a"], self.ref["E_a"])
        if p["vertices"] != self.ref["vertices"]:
            out.append(f"{p['vertices']} vertices, reference {self.ref['vertices']}")
        return out

    def _bipartite_convert(self, text):
        src, dst = self.conv
        want = "convertible" if refs.majorizes(dst / dst.sum(), src / src.sum()) else "not convertible"
        return [] if text.strip() == want else [f"printed {text.strip()!r}, expected {want!r}"]

    def _bipartite_sweep(self, text):
        rows = list(csv.DictReader(io.StringIO(text)))
        out = [] if len(rows) == 6 else [f"{len(rows)} sweep rows, expected 6"]
        a0 = self.sweep_from / self.sweep_from.sum()
        region = refs.chamber_region_volume(2)
        for i, row in enumerate(rows):
            t = i / 5
            lam = (1 - t) * a0 + t * np.array([1.0, 0.0])
            l1 = max(lam) / lam.sum()
            e = refs.two_qubit_entanglement((l1, 1 - l1))
            for key, ref in (("E_s", e), ("E_a", e), ("V_s", (1 - e) * region), ("V_a", e * region)):
                out += self._digits(f"step {i} {key}", float(row[key]), ref, 1e-12)
        return out

    def _fourqubit_classify(self, text):
        want = f"class: general_plus_axes (axis {'xyz'[self.gpa.params['w']]})"
        return [] if text.strip() == want else [f"printed {text.strip()!r}, expected {want!r}"]

    def _fourqubit_measures(self, text):
        p = json.loads(text)
        ref = refs.case_volumes("seed", {})
        out = [] if p["class"] == "seed" else [f"class {p['class']}"]
        for key in ("E_s", "V_s", "E_a", "V_a"):
            out += self._digits(key, p[key], ref[key])
        return out

    def _fourqubit_convert(self, text):
        want = "convertible via axis_rectangle"
        return [] if text.strip() == want else [f"printed {text.strip()!r}, expected {want!r}"]

    def _fourqubit_witness(self, text):
        p = json.loads(text)
        out = [] if p["row"] == "axis_rectangle" else [f"row {p['row']}"]
        if abs(sum(p["probabilities"]) - 1.0) > 1e-9:
            out.append(f"outcome probabilities sum to {sum(p['probabilities'])!r}")
        if p["completeness_residual"] > 1e-12 or p["outcome_mismatch"] > 1e-9 or p["eta_residual"] > 1e-10:
            out.append(f"witness residuals {p['completeness_residual']}, {p['eta_residual']}, "
                       f"{p['outcome_mismatch']}")
        return out

    def _fourqubit_sweep(self, text):
        rows = list(csv.DictReader(io.StringIO(text)))
        out = [] if len(rows) == 5 else [f"{len(rows)} sweep rows, expected 5"]
        for i, row in enumerate(rows):
            v = self.axis_value * i / 4
            tag = "seed" if i == 0 else "axis_only"
            ref = refs.case_volumes(tag, {"value": v})
            if row["class"] != tag:
                out.append(f"step {i} class {row['class']}, expected {tag}")
            for key in ("V_s", "V_a", "E_s", "E_a"):
                out += self._digits(f"step {i} {key}", float(row[key]), ref[key], 1e-12)
        return out

    def _polytope_vertices(self, text):
        got = np.array([[float(x) for x in line.split()] for line in text.strip().splitlines()])
        if got.shape != self.corners.shape:
            return [f"{len(got)} vertices, expected 4"]
        missing = [c for c in self.corners if np.min(np.abs(got - c).max(axis=1)) > 1e-9]
        return [f"corner {c} missing" for c in missing]

    def _polytope_volume(self, text):
        p = json.loads(text)
        out = self._digits("volume", p["volume"], self.area) + self._digits(
            "brion_volume", p.get("brion_volume", math.nan), self.area)
        if (p["dimension"], p["vertices"]) != (2, 4):
            out.append(f"dimension {p['dimension']}, {p['vertices']} vertices")
        return out

    def _estimate(self, p, ref, box) -> list[str]:
        n = p["samples"]
        q = (p["estimate"] / box * n + 1.0) / (n + 2.0)
        sigma = box * math.sqrt(q * (1 - q) / n)
        if abs(p["estimate"] - ref) > SIGMAS * sigma:
            return [f"estimate {p['estimate']!r}, reference {ref!r} (sigma {sigma:.1e})"]
        return []

    def _oracle_source(self, text):
        p = json.loads(text)
        return (self._estimate(p, self.ref["V_s3"], refs.chamber_region_volume(3))
                + self._digits("closed_form", p["closed_form"], self.ref["V_s3"]))

    def _oracle_accessible(self, text):
        p = json.loads(text)
        return (self._estimate(p, self.ref["V_a3"], refs.chamber_region_volume(3))
                + self._digits("polytope_value", p["polytope_value"], self.ref["V_a3"]))

    def _oracle_region(self, text):
        return self._estimate(json.loads(text), math.pi / 12, 0.5)

    def _bipartite_source_k(self, text):
        p = json.loads(text)
        out = self._digits("E_s", p["E_s"], self.ref["E_s_k6"])
        return out if p["k"] == 6 else out + [f"k = {p['k']}"]

    def _fourqubit_measures_caseiii(self, text):
        p = json.loads(text)
        ref = refs.case_volumes("general_one_party", self.case3.params)
        out = [] if p["class"] == "general_one_party" else [f"class {p['class']}"]
        out += self._digits("E_s", p["E_s"], ref["E_s"]) + self._digits("V_s", p["V_s"], ref["V_s"])
        replay = self.ref["caseiii_replay"]
        out += self._digits("V_a", p["V_a"], replay)
        est, sig = self.ref["caseiii_own"]
        q = replay / 0.5
        spread = math.hypot(sig, 0.5 * math.sqrt(q * (1 - q) / SAMPLES))
        if abs(p["V_a"] - est) > SIGMAS * spread:
            out.append(f"V_a = {p['V_a']!r}, own estimate {est!r} +- {sig:.1e}")
        return out


def run(args) -> dict:
    warm = [sys.executable, "-m", "entvol.cli"] + WARM_UP
    harness.require_src()
    setup = [harness.timed_setup(warm) for _ in range(harness.SETUP_BEFORE)]
    wl = Cli(args.seed, instrumented=bool(args.trace))
    # in this process: the peak below is that of the largest child
    wl.references()
    tracer = harness.Tracer() if args.trace else None
    m = harness.measure(wl.ops, wl.check, args.seconds, tracer)
    correct, attempted, failed = harness.verdict(len(wl.ops), m)
    setup += [harness.timed_setup(warm) for _ in range(harness.SETUP_REPEATS - harness.SETUP_BEFORE)]
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return harness.finish(args, tracer, m, correct, attempted, failed,
                          harness.end_to_end(setup, m, rss_mb))
