"""Command-line front end: parse states, dispatch computations, emit JSON/CSV.

Exit status: 0 on success, 2 on a domain error (a machine-readable error code
is printed as JSON), 64 on a usage error.  Floating point numbers are printed
with 12 significant digits; a few closed-form constants also carry a symbolic
rendering.  The environment variable ``ENTVOL_MC_SEED`` supplies the default
Monte-Carlo seed of the commands that sample.

The numpy-free modules (``errors``, ``schmidt``, ``source``) are imported
here; numpy and every other module are imported inside the handlers that use
them.  So ``bipartite source`` and ``convert`` run without numpy, and the
four-qubit commands load neither ``bipartite`` nor ``polytope``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import TYPE_CHECKING

from .errors import EntvolError, UsageError
from .schmidt import SchmidtVector, canonicalize, embed, majorizes
from .source import MeasureReport, source_entanglement, source_entanglement_k, source_volume

if TYPE_CHECKING:
    import numpy as np

    from . import fourqubit, oracle

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_USAGE = 64


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _num(x: float) -> float:
    return float(_fmt(x))


def _round_floats(obj):
    if isinstance(obj, float):
        return _num(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit_json(payload: dict) -> None:
    print(json.dumps(_round_floats(payload)))


def _emit(args, payload: dict, text: str) -> int:
    """Print ``payload`` as JSON under ``--json`` and ``text`` otherwise."""
    if args.json:
        _emit_json(payload)
    else:
        print(text)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 64
        raise UsageError(message)


def _parse_schmidt(text: str) -> SchmidtVector:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad Schmidt vector {text!r}: {exc}") from exc
    return canonicalize(values)


def _parse_gammas(text: str) -> np.ndarray:
    try:
        rows = [[float(t) for t in part.split(",")] for part in text.split(";")]
    except ValueError as exc:
        raise UsageError(f"bad gamma block {text!r}: {exc}") from exc
    if len({len(row) for row in rows}) > 1:
        raise UsageError(f"bad gamma block {text!r}: rows of unequal length")
    import numpy as np

    return np.asarray(rows)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _read_json(path: str, parse):
    """``parse`` of the JSON payload in ``path`` ('-' for stdin).

    A missing or unreadable file, malformed JSON and a payload without the
    expected keys are usage errors.
    """
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        return parse(json.loads(text))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot read {path!r}: {type(exc).__name__}: {exc}") from exc


def _default_seed_params() -> fourqubit.SeedParams:
    from . import fourqubit

    d = math.sqrt(0.195)
    p = fourqubit.SeedParams(0.6, 0.5 + 0.1j, 0.25 - 0.35j, complex(d))
    p.validate()
    return p


def _form(gammas_text: str) -> fourqubit.FourQubitForm:
    """The default seed under the gammas parsed from ``gammas_text``."""
    from . import fourqubit

    return fourqubit.FourQubitForm(_default_seed_params(), _parse_gammas(gammas_text))


def _load_form(args) -> fourqubit.FourQubitForm:
    from . import fourqubit

    if args.state:
        return _read_json(args.state, fourqubit.FourQubitForm.from_json)
    if args.gammas:
        return _form(args.gammas)
    raise UsageError("provide --state FILE or --gammas")


def _mc_config(samples: int, seed: str | None) -> oracle.McConfig:
    """The sampling plan; ``seed`` is the option's text, and without one
    ``ENTVOL_MC_SEED`` (default 0) is read.  A seed that is no integer, or
    that Philox's two 64-bit key words cannot hold, is a usage error."""
    from . import oracle

    text = seed if seed is not None else os.environ.get("ENTVOL_MC_SEED", "0")
    try:
        value = int(text)
    except ValueError as exc:
        raise UsageError(f"bad Monte-Carlo seed {text!r}: {exc}") from exc
    if not oracle.MIN_SEED <= value <= oracle.MAX_SEED:
        raise UsageError(f"Monte-Carlo seed {text!r} is outside [-2^63, 2^64)")
    return oracle.McConfig(samples=samples, seed=value)


def _sweep(header: list[str], start, stop, steps: int, row) -> int:
    """CSV of ``row(x)`` at ``steps`` evenly spaced points x from ``start``
    to ``stop``, each row led by its step number."""
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["step"] + header)
    for step in range(steps):
        t = step / (steps - 1) if steps > 1 else 0.0
        writer.writerow([step] + row((1 - t) * start + t * stop))
    return EXIT_OK


# -- bipartite ----------------------------------------------------------------

def _report_payload(rep: MeasureReport, label: str) -> dict:
    return {
        f"E_{label}": rep.entanglement,
        f"V_{label}": rep.volume,
        "dimension": rep.dimension,
        "v_sup": rep.v_sup,
        "k": rep.k,
    }


def _cmd_bipartite_source(args) -> int:
    lam = _parse_schmidt(args.schmidt)
    rep = source_entanglement(lam) if args.k is None else source_entanglement_k(lam, args.k)
    payload = _report_payload(rep, "s")
    payload["schmidt"] = list(lam.components)
    text = (f"E_s = {_fmt(rep.entanglement)}  (V_s = {_fmt(rep.volume)}, "
            f"dim {rep.dimension}, k = {rep.k})")
    return _emit(args, payload, text)


def _cmd_bipartite_accessible(args) -> int:
    from . import bipartite

    lam = _parse_schmidt(args.schmidt)
    if args.k is None:
        rep, V = bipartite.accessible_entanglement_and_vertices(lam)
        n_vertices = V.n
    else:
        rep, n_vertices = bipartite.accessible_entanglement_k(lam, args.k), None
    payload = _report_payload(rep, "a")
    payload["schmidt"] = list(lam.components)
    text = f"E_a = {_fmt(rep.entanglement)}  (V_a = {_fmt(rep.volume)}, dim {rep.dimension}"
    if n_vertices is not None:
        payload["vertices"] = n_vertices
        text += f", {n_vertices} vertices"
    return _emit(args, payload, text + ")")


def _cmd_bipartite_convert(args) -> int:
    src = _parse_schmidt(args.src)
    dst = _parse_schmidt(args.dst)
    d = max(src.d, dst.d)
    ok = majorizes(embed(dst, d), embed(src, d))
    payload = {"convertible": bool(ok), "from": list(src.components), "to": list(dst.components)}
    return _emit(args, payload, "convertible" if ok else "not convertible")


def _cmd_bipartite_sweep(args) -> int:
    from . import bipartite

    start = _parse_schmidt(args.start)
    stop = _parse_schmidt(args.stop)
    if start.d != stop.d:
        raise UsageError("sweep endpoints need equal dimension")

    def row(point) -> list:
        lam = canonicalize(point)
        s_rep = bipartite.source_entanglement(lam)
        a_rep, V = bipartite.accessible_entanglement_and_vertices(lam)
        return ([_fmt(x) for x in lam.components]
                + [_fmt(s_rep.volume), _fmt(a_rep.volume),
                   _fmt(s_rep.entanglement), _fmt(a_rep.entanglement),
                   V.n, a_rep.dimension])

    header = [f"lambda_{i+1}" for i in range(start.d)] + [
        "V_s", "V_a", "E_s", "E_a", "accessible_vertices", "V_a_dim"]
    return _sweep(header, start.as_array(), stop.as_array(), args.steps, row)


# -- fourqubit ----------------------------------------------------------------

def _cmd_fourqubit_classify(args) -> int:
    from . import fourqubit

    cls = fourqubit.classify(_load_form(args))
    axis = None if cls.w is None else fourqubit.AXIS_NAMES[cls.w]
    payload = {
        "tag": cls.tag,
        "axis": axis,
        "roles": {k: (list(v) if isinstance(v, tuple) else v) for k, v in cls.roles.items()},
        "standard_gammas": cls.gammas.tolist(),
    }
    text = f"class: {cls.tag}" + (f" (axis {axis})" if axis is not None else "")
    if cls.diagnostic:
        payload["diagnostic"] = cls.diagnostic
        text += f"\nnote: {cls.diagnostic}"
    return _emit(args, payload, text)


def _cmd_fourqubit_measures(args) -> int:
    from . import fourqubit

    cfg = _mc_config(args.mc_samples, args.mc_seed)
    cls = fourqubit.classify(_load_form(args))
    s_rep, a_rep = fourqubit.entanglement_4q(cls, cfg)
    payload = {
        "class": cls.tag,
        "E_s": s_rep.entanglement, "V_s": s_rep.volume,
        "V_s_dim": s_rep.dimension, "V_s_sup": s_rep.v_sup,
        "E_a": a_rep.entanglement, "V_a": a_rep.volume,
        "V_a_dim": a_rep.dimension, "V_a_sup": a_rep.v_sup,
        "V_a_abs_err": a_rep.abs_err,
    }
    payload.update({f"{key}_symbolic": x.text for key, x in payload.items()
                    if isinstance(x, fourqubit.ClosedForm)})
    text = (f"class {cls.tag}: E_s = {_fmt(s_rep.entanglement)} "
            f"(V_s = {_fmt(s_rep.volume)}, dim {s_rep.dimension}), "
            f"E_a = {_fmt(a_rep.entanglement)} "
            f"(V_a = {_fmt(a_rep.volume)}, dim {a_rep.dimension})")
    return _emit(args, payload, text)


def _load_pair(args) -> tuple[fourqubit.FourQubitForm, fourqubit.FourQubitForm]:
    from . import fourqubit

    if args.from_gammas and args.to_gammas:
        return _form(args.from_gammas), _form(args.to_gammas)
    if args.from_state and args.to_state:
        return (_read_json(args.from_state, fourqubit.FourQubitForm.from_json),
                _read_json(args.to_state, fourqubit.FourQubitForm.from_json))
    raise UsageError("provide --from-gammas/--to-gammas or --from-state/--to-state")


def _cmd_fourqubit_convert(args) -> int:
    from . import fourqubit

    initial, final = _load_pair(args)
    verdict = fourqubit.can_convert(initial, final)
    payload = {"convertible": bool(verdict), "row": verdict.row}
    if verdict.detail:
        payload["detail"] = verdict.detail
    text = ("convertible via " + verdict.row) if verdict else f"not convertible ({verdict.detail})"
    return _emit(args, payload, text)


def _cmd_fourqubit_witness(args) -> int:
    from . import fourqubit

    initial, final = _load_pair(args)
    wit = fourqubit.povm_witness(initial, final)
    payload = {
        "row": wit.row,
        "outcomes": len(wit.outcomes),
        "probabilities": list(wit.probabilities),
        "pauli_patterns": list(wit.pauli_patterns),
        "completeness_residual": wit.completeness_residual,
        "eta_residual": wit.eta_residual,
        "outcome_mismatch": wit.outcome_mismatch,
    }
    text = (f"row {wit.row}: {len(wit.outcomes)} outcomes, "
            f"p = {[_fmt(p) for p in wit.probabilities]}\n"
            f"completeness residual {wit.completeness_residual:.2e}, "
            f"eta residual {wit.eta_residual:.2e}, "
            f"outcome mismatch {wit.outcome_mismatch:.2e}")
    return _emit(args, payload, text)


def _cmd_fourqubit_sweep(args) -> int:
    from . import fourqubit

    cfg = _mc_config(args.mc_samples, args.mc_seed)
    initial, final = _form(args.from_gammas), _form(args.to_gammas)

    def row(g) -> list:
        cls = fourqubit.classify(fourqubit.FourQubitForm(initial.seed, g))
        s_rep, a_rep = fourqubit.entanglement_4q(cls, cfg)
        return ([cls.tag] + [_fmt(x) for x in g.ravel()]
                + [_fmt(s_rep.volume), s_rep.dimension,
                   _fmt(a_rep.volume), a_rep.dimension,
                   _fmt(s_rep.entanglement), _fmt(a_rep.entanglement)])

    header = (["class"]
              + [f"gamma_{p+1}{fourqubit.AXIS_NAMES[k]}" for p in range(4) for k in range(3)]
              + ["V_s", "V_s_dim", "V_a", "V_a_dim", "E_s", "E_a"])
    return _sweep(header, initial.gammas, final.gammas, args.steps, row)


# -- polytope -----------------------------------------------------------------

def _polytope_from_json(payload):
    from . import polytope

    if "A" in payload:
        return polytope.HalfspaceSystem.from_json(payload), None
    if "vertices" in payload:
        return None, polytope.VertexSet.from_json(payload)
    raise UsageError("polytope JSON needs either A/b or vertices")


def _cmd_polytope_vertices(args) -> int:
    from . import polytope

    H, V = _read_json(args.input, _polytope_from_json)
    if H is None:
        raise UsageError("vertex enumeration needs an H-representation")
    V = polytope.enumerate_vertices(H)
    payload = {"vertices": V.vertices.tolist(), "count": V.n}
    text = "\n".join(" ".join(_fmt(x) for x in v) for v in V.vertices)
    return _emit(args, payload, text)


def _cmd_polytope_volume(args) -> int:
    from . import polytope

    H, V = _read_json(args.input, _polytope_from_json)
    adjacency = None
    if V is None:
        V = polytope.enumerate_vertices(H)
        adjacency = polytope.vertex_adjacency(H, V)
    vol, dim = polytope.volume_triangulation(V)
    payload = {"volume": vol, "dimension": dim, "vertices": V.n}
    text = f"volume = {_fmt(vol)} (dimension {dim}, {V.n} vertices)"
    if adjacency is not None:
        simple = polytope.is_simple(V, adjacency)
        payload["simple"] = bool(simple)
        text += f", simple = {payload['simple']}"
        if simple and dim > 0:
            payload["brion_volume"] = polytope.brion_volume(V, adjacency)
    return _emit(args, payload, text)


# -- oracle -------------------------------------------------------------------

def _sampled_accessible_volume(lam) -> float:
    """The engine's accessible volume as a (d-1)-volume, the measure the
    oracle samples: 0 for a set of lower dimension (a zero-padded lam)."""
    from .bipartite import accessible_volume

    volume, dim = accessible_volume(lam)
    return volume if dim == lam.d - 1 else 0.0


#: Per majorization oracle: the name of its Monte-Carlo estimate in
#: ``oracle``, the engine value it is checked against and the payload key of
#: that value.
_MAJORIZATION_ORACLES = {
    "source": ("mc_source_volume", source_volume, "closed_form"),
    "accessible": ("mc_accessible_volume", _sampled_accessible_volume, "polytope_value"),
}


def _cmd_oracle_majorization(args) -> int:
    from . import oracle

    cfg = _mc_config(args.samples, args.seed)
    lam = _parse_schmidt(args.schmidt)
    name, engine, key = _MAJORIZATION_ORACLES[args.cmd]
    estimate = getattr(oracle, name)
    value = engine(lam)  # before sampling, so that a rank over the engine's cap fails at once
    payload = estimate(lam, cfg).to_json()
    payload[key] = value
    _emit_json(payload)
    return EXIT_OK


def _cmd_oracle_region(args) -> int:
    import numpy as np

    from . import fourqubit, oracle

    cfg = _mc_config(args.samples, args.seed)
    if args.region == "reachable":
        if not args.gammas:
            raise UsageError("--gammas required for the reachable region")
        cls = fourqubit.classify(_form(args.gammas))
        if cls.tag != fourqubit.TAG_GENERAL_ONE:
            raise UsageError("reachable-region sampling applies to single-general-party states")
        res = fourqubit.caseiii_accessible_mc(
            np.abs(cls.gammas[cls.roles["party"]]), cfg)
    else:  # the ball of radius 1/2 about 0, or its half x >= 0
        lo = np.full(3, -0.5)
        if args.region == "half-ball":
            lo[0] = 0.0
        res = oracle.mc_region_volume(lambda pts: (pts ** 2).sum(axis=1) < 0.25,
                                      lo, np.full(3, 0.5), cfg)
    _emit_json(res.to_json())
    return EXIT_OK


# -- wiring -------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="entvol", description=__doc__)
    sub = p.add_subparsers(dest="group", required=True)

    # options that several subcommands share, each declared once
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true")
    schmidt = argparse.ArgumentParser(add_help=False)
    schmidt.add_argument("--schmidt", required=True)
    state = argparse.ArgumentParser(add_help=False)
    state.add_argument("--state", help="JSON payload file ('-' for stdin)")
    state.add_argument("--gammas", help="four semicolon-separated gamma triples")
    pair = argparse.ArgumentParser(add_help=False)
    for flag in ("--from-gammas", "--to-gammas", "--from-state", "--to-state"):
        pair.add_argument(flag)
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--samples", type=int, default=1_000_000)
    sampling.add_argument("--seed")

    bp = sub.add_parser("bipartite", help="bipartite Schmidt-vector measures")
    bsub = bp.add_subparsers(dest="cmd", required=True)
    for name, func in (("source", _cmd_bipartite_source),
                       ("accessible", _cmd_bipartite_accessible)):
        b_msr = bsub.add_parser(name, parents=[schmidt, as_json])
        b_msr.add_argument("--k", type=int, default=None)
        b_msr.set_defaults(func=func)

    b_cnv = bsub.add_parser("convert", parents=[as_json])
    b_cnv.add_argument("--from", dest="src", required=True)
    b_cnv.add_argument("--to", dest="dst", required=True)
    b_cnv.set_defaults(func=_cmd_bipartite_convert)

    b_swp = bsub.add_parser("sweep")
    b_swp.add_argument("--from-schmidt", dest="start", required=True)
    b_swp.add_argument("--to-schmidt", dest="stop", required=True)
    b_swp.add_argument("--steps", type=_positive_int, required=True)
    b_swp.set_defaults(func=_cmd_bipartite_sweep)

    fq = sub.add_parser("fourqubit", help="generic four-qubit states")
    fsub = fq.add_subparsers(dest="cmd", required=True)

    f_cls = fsub.add_parser("classify", parents=[state, as_json])
    f_cls.set_defaults(func=_cmd_fourqubit_classify)

    f_mea = fsub.add_parser("measures", parents=[state, as_json])
    f_mea.add_argument("--mc-samples", type=int, default=1_000_000)
    f_mea.add_argument("--mc-seed")
    f_mea.set_defaults(func=_cmd_fourqubit_measures)

    for name, func in (("convert", _cmd_fourqubit_convert), ("witness", _cmd_fourqubit_witness)):
        f_pair = fsub.add_parser(name, parents=[pair, as_json])
        f_pair.set_defaults(func=func)

    f_swp = fsub.add_parser("sweep")
    f_swp.add_argument("--from-gammas", required=True)
    f_swp.add_argument("--to-gammas", required=True)
    f_swp.add_argument("--steps", type=_positive_int, required=True)
    f_swp.add_argument("--mc-samples", type=int, default=200_000)
    f_swp.add_argument("--mc-seed")
    f_swp.set_defaults(func=_cmd_fourqubit_sweep)

    pl = sub.add_parser("polytope", help="raw polytope operations")
    psub = pl.add_subparsers(dest="cmd", required=True)
    for name, func in (("vertices", _cmd_polytope_vertices), ("volume", _cmd_polytope_volume)):
        p_cmd = psub.add_parser(name, parents=[as_json])
        p_cmd.add_argument("--input", required=True, help="JSON file ('-' for stdin)")
        p_cmd.set_defaults(func=func)

    orc = sub.add_parser("oracle", help="Monte-Carlo validators")
    osub = orc.add_subparsers(dest="cmd", required=True)
    for name in _MAJORIZATION_ORACLES:
        o_maj = osub.add_parser(name, parents=[schmidt, sampling])
        o_maj.set_defaults(func=_cmd_oracle_majorization)
    o_reg = osub.add_parser("region", parents=[sampling])
    o_reg.add_argument("--region", choices=("ball", "half-ball", "reachable"), default="ball")
    o_reg.add_argument("--gammas")
    o_reg.set_defaults(func=_cmd_oracle_region)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EntvolError as exc:
        _emit_json({"error": exc.code, "message": str(exc)})
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
