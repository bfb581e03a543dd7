"""Fuzz the command line: argv drawn from a grammar of the documented commands.

Every draw must end in exit 0, 2 (domain error) or 64 (usage error), with no
exception escaping ``cli.main`` and no ``nan`` in what it prints.  Values stay
small (Schmidt rank <= 6, 1000-5000 Monte-Carlo samples, at most 3 sweep
steps) so that the whole run takes seconds.  Most draws are valid inputs;
the rest carry one fault: a nan, inf, negative or malformed token, a ragged
gamma block or a non-finite polytope payload.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from unittest import mock

from hypothesis import given, settings, strategies as st

from entvol import cli

BAD_NUMBER = st.sampled_from(["nan", "inf", "-inf", "-0.2", "-1", "", "x"])
SAMPLES = st.sampled_from(["1000", "1500", "2000", "3000", "4000", "5000", "0", "-5", "nan"])
SEED = st.sampled_from(["0", "1", "7", "9", "-1", "x"])
STEPS = st.sampled_from(["1", "2", "3", "3", "0", "-1", "x"])
JSON_FLAG = st.sampled_from([[], ["--json"]])
FAULT = st.sampled_from([False, False, True])

#: Gamma rows of norm below 1/2: zero, axis-aligned and general rows, and rows
#: inside (CONVERT_TOL, 1e-6], which reach the near-miss pass of ``classify``.
GAMMA_ROWS = st.sampled_from(["0,0,0", "0,0,0", "0,0,0", "0.2,0,0", "0,0.3,0", "0,0,0.1",
                              "0.4,0,0", "0.1,0.2,0.15", "0,0.2,0.1", "-0.15,0,0.05",
                              "1e-7,1e-7,0", "0,1e-7,1e-7", "1e-7,0,1e-7"])
#: Pairs that convert, one per row of the conversion table.
CONVERTIBLE = st.sampled_from([
    ("0,0,0;0,0,0;0,0,0;0,0,0", "0.1,0.2,0.15;0,0,0;0,0,0;0,0,0"),
    ("0,0,0.1;0,0,0;0,0,0;0,0,0", "0,0,0.3;0,0,0;0,0,0;0,0,0"),
    ("0,0.1,0.05;0,0,0;0,0,0;0,0,0", "0,0.2,0.1;0,0,0;0,0,0;0,0,0"),
    ("0.2,0,0;0,0,0;0,0,0;0,0,0", "0.3,0,0;0,0.1,0.15;0,0,0;0,0,0"),
    ("0,0.3,0;0.1,0,0;0,0,0;0,0,0", "0,0.42,0;0.33,0,0;0,0,0;0,0,0"),
    ("0.15,0.2,0.1;0.3,0,0;0.1,0,0;0,0,0", "0.15,0.3,0.15;0.3,0,0;0.1,0,0;0,0,0"),
])


def _corrupt(draw, tokens: list[str]) -> list[str]:
    """Replace one token with a bad number."""
    i = draw(st.integers(0, len(tokens) - 1))
    return tokens[:i] + [draw(BAD_NUMBER)] + tokens[i + 1:]


@st.composite
def schmidt(draw) -> str:
    tokens = [str(draw(st.integers(0, 9))) for _ in range(draw(st.integers(1, 6)))]
    return ",".join(_corrupt(draw, tokens) if draw(FAULT) else tokens)


@st.composite
def gammas(draw) -> str:
    rows = [draw(GAMMA_ROWS) for _ in range(4)]
    if draw(FAULT):
        i = draw(st.integers(0, 3))
        tokens = rows[i].split(",")
        fault = draw(st.sampled_from(["token", "short", "long", "count"]))
        if fault == "token":
            rows[i] = ",".join(_corrupt(draw, tokens))
        elif fault == "short":
            rows[i] = ",".join(tokens[:2])
        elif fault == "long":
            rows[i] = ",".join(tokens + ["0"])
        else:  # 0-3 rows or 5
            rows = rows[:i] if i else rows + ["0,0,0"]
    return ";".join(rows)


@st.composite
def gamma_pair(draw) -> tuple[str, str]:
    kind = draw(st.sampled_from(["convertible", "same", "any"]))
    if kind == "convertible":
        return draw(CONVERTIBLE)
    first = draw(gammas())
    return first, first if kind == "same" else draw(gammas())


@st.composite
def polytope_payload(draw) -> str:
    """A box, an arbitrary H-system or a vertex list in dimension 1-3, one entry
    sometimes made non-finite."""
    k = draw(st.integers(1, 3))
    small = st.integers(-2, 2).map(float)
    nonfinite = st.sampled_from([float("nan"), float("inf"), -float("inf")])
    kind = draw(st.sampled_from(["box", "rows", "vertices"]))
    if kind == "vertices":
        rows = [[draw(small) for _ in range(k)] for _ in range(draw(st.integers(0, 5)))]
    elif kind == "box":
        rows = [[0.0] * j + [s] + [0.0] * (k - j - 1) for j in range(k) for s in (1.0, -1.0)]
    else:
        rows = [[draw(small) for _ in range(k)] for _ in range(draw(st.integers(k, k + 3)))]
    b = [draw(st.integers(0, 2).map(float)) for _ in rows]
    if rows and draw(FAULT):
        target = rows[0] if kind == "vertices" else draw(st.sampled_from([rows[0], b]))
        target[0] = draw(nonfinite)
    payload = {"vertices": rows} if kind == "vertices" else {"A": rows, "b": b}
    return json.dumps(payload)


def _opt(name: str, value: str) -> str:
    return f"--{name}={value}"  # '=' keeps negative values out of option parsing


@st.composite
def argv(draw) -> tuple[list[str], str]:
    """(argv, stdin text) for one documented command."""
    group = draw(st.sampled_from(["bipartite", "fourqubit", "polytope", "oracle"]))
    if group == "bipartite":
        cmd = draw(st.sampled_from(["source", "accessible", "convert", "sweep"]))
        if cmd == "convert":
            args = [_opt("from", draw(schmidt())), _opt("to", draw(schmidt()))] + draw(JSON_FLAG)
        elif cmd == "sweep":
            args = [_opt("from-schmidt", draw(schmidt())), _opt("to-schmidt", draw(schmidt())),
                    _opt("steps", draw(STEPS))]
        else:
            args = [_opt("schmidt", draw(schmidt()))] + draw(JSON_FLAG)
            if draw(st.booleans()):
                args.append(_opt("k", str(draw(st.integers(-1, 8)))))
        return [group, cmd] + args, ""
    if group == "fourqubit":
        cmd = draw(st.sampled_from(["classify", "measures", "convert", "witness", "sweep"]))
        if cmd == "classify":
            args = [_opt("gammas", draw(gammas()))] + draw(JSON_FLAG)
        elif cmd == "measures":
            args = [_opt("gammas", draw(gammas())), _opt("mc-samples", draw(SAMPLES)),
                    _opt("mc-seed", draw(SEED))] + draw(JSON_FLAG)
        elif cmd == "sweep":
            start, stop = draw(gamma_pair())
            args = [_opt("from-gammas", start), _opt("to-gammas", stop),
                    _opt("steps", draw(STEPS)), _opt("mc-samples", draw(SAMPLES))]
        else:
            start, stop = draw(gamma_pair())
            args = [_opt("from-gammas", start), _opt("to-gammas", stop)] + draw(JSON_FLAG)
        return [group, cmd] + args, ""
    if group == "polytope":
        cmd = draw(st.sampled_from(["vertices", "volume"]))
        return [group, cmd, "--input", "-"] + draw(JSON_FLAG), draw(polytope_payload())
    cmd = draw(st.sampled_from(["source", "accessible", "region"]))
    args = [_opt("samples", draw(SAMPLES)), _opt("seed", draw(SEED))]
    if cmd == "region":
        region = draw(st.sampled_from(["ball", "half-ball", "reachable"]))
        args.append(_opt("region", region))
        if region == "reachable":
            args.append(_opt("gammas", draw(gammas())))
    else:
        args.append(_opt("schmidt", draw(schmidt())))
    return [group, cmd] + args, ""


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv())
def test_cli_exits_cleanly(case):
    args, stdin = case
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    assert code in (0, 2, 64), (args, stdin, code)
    assert not re.search(r"\bnan\b", out.getvalue(), re.IGNORECASE), (args, stdin, out.getvalue())
