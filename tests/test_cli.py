from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from entvol import oracle
from entvol.bipartite import MAX_ACCESSIBLE_DIM, MAX_EXACT_DIM
from entvol.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bipartite_source_json(capsys):
    code, out, _ = run(capsys, "bipartite", "source",
                       "--schmidt", "0.4,0.3,0.2,0.1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["E_s"] == pytest.approx(0.904, abs=5e-4)


def test_bipartite_accessible_json(capsys):
    code, out, _ = run(capsys, "bipartite", "accessible",
                       "--schmidt", "0.4,0.3,0.2,0.1", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["E_a"] == pytest.approx(87 / 125, abs=1e-9)
    assert payload["vertices"] == 8


def test_bipartite_convert(capsys):
    code, out, _ = run(capsys, "bipartite", "convert",
                       "--from", "0.6,0.4", "--to", "0.7,0.3", "--json")
    assert code == 0
    assert json.loads(out)["convertible"] is True
    code, out, _ = run(capsys, "bipartite", "convert",
                       "--from", "0.7,0.3", "--to", "0.6,0.4", "--json")
    assert json.loads(out)["convertible"] is False


def test_bipartite_sweep_matches_closed_form(capsys):
    code, out, _ = run(capsys, "bipartite", "sweep",
                       "--from-schmidt", "0.5,0.5", "--to-schmidt", "1,0",
                       "--steps", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "step"
    for line in lines[1:]:
        cells = line.split(",")
        lam1 = float(cells[1])
        e_s = float(cells[5])
        assert e_s == pytest.approx(2 * (1 - lam1), abs=1e-10)


def test_sweep_deterministic(capsys):
    args = ("bipartite", "sweep", "--from-schmidt", "0.6,0.25,0.15",
            "--to-schmidt", "0.4,0.35,0.25", "--steps", "5")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    # accessible volume stays continuous across the lambda_1 = 1/2 boundary
    vals = [float(line.split(",")[5]) for line in out1.strip().splitlines()[1:]]
    jumps = [abs(b - a) for a, b in zip(vals, vals[1:])]
    assert max(jumps) < 0.2


def test_fourqubit_measures_seed(capsys):
    code, out, _ = run(capsys, "fourqubit", "measures",
                       "--gammas", "0,0,0;0,0,0;0,0,0;0,0,0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["E_a"] == 1.0
    assert payload["V_a"] == pytest.approx(29 * math.pi / 12, rel=1e-11)
    assert payload["V_a_symbolic"] == "29*pi/12"


@pytest.mark.parametrize("gammas,tag,closed", [
    ("0,0,0;0,0,0;0,0,0;0,0,0", "seed", {"V_a", "V_a_sup"}),
    ("0.2,0,0;0.1,0,0;0,0,0;0,0,0", "mes_aligned", {"V_a_sup"}),
    ("0.2,0,0;0,0,0;0,0,0;0,0,0", "axis_only", {"V_a_sup"}),
    ("0.23,0.13,0.15;0,0,0;0,0,0;0,0,0", "general_one_party", {"V_s_sup", "V_a_sup"}),
    ("0.05,0.04,0;0,0,0;0,0,0;0,0,0", "general_one_party", {"V_a_sup"}),  # V_s 2-D, V_a 3-D
    ("0.3,0.2,0;0,0,0;0,0,0;0,0,0", "general_one_party", {"V_a_sup"}),    # both 2-D
    ("0.15,0.2,0.1;0.3,0,0;0.1,0,0;0,0,0", "general_plus_axes", set()),
    ("0,0.3,0;0.1,0,0;0,0,0;0,0,0", "two_axes", set()),
    ("0.3,0,0;0,0.1,0.15;0,0,0;0,0,0", "axis_plus_transverse", set()),
    ("0.1,0.1,0.1;0.1,0.1,0.1;0,0,0;0,0,0", "isolated", set()),
])
def test_fourqubit_measures_closed_forms(capsys, gammas, tag, closed):
    """Each printed closed form evaluates to the number printed beside it,
    to all 12 printed digits."""
    code, out, _ = run(capsys, "fourqubit", "measures", "--gammas", gammas,
                       "--mc-samples", "20000", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == tag
    # only the numeric Case-III volume carries a standard error
    numeric = tag == "general_one_party" and payload["V_a_dim"] == 3
    assert (payload["V_a_abs_err"] > 0.0) == numeric
    symbolic = {key[: -len("_symbolic")]: text for key, text in payload.items()
                if key.endswith("_symbolic")}
    assert set(symbolic) == closed
    for key, text in symbolic.items():
        value = eval(text, {"__builtins__": {}}, {"pi": math.pi, "sqrt": math.sqrt})
        assert float(format(value, ".12g")) == payload[key], key


def test_fourqubit_classify_and_convert(capsys):
    code, out, _ = run(capsys, "fourqubit", "classify",
                       "--gammas", "0.15,0.2,0.1;0.3,0,0;0.1,0,0;0,0,0", "--json")
    assert code == 0
    assert json.loads(out)["tag"] == "general_plus_axes"
    code, out, _ = run(capsys, "fourqubit", "convert",
                       "--from-gammas", "0.15,0.2,0.1;0.3,0,0;0.1,0,0;0,0,0",
                       "--to-gammas", "0.15,0.3,0.15;0.3,0,0;0.1,0,0;0,0,0",
                       "--json")
    payload = json.loads(out)
    assert payload["convertible"] is True and payload["row"] == "transverse_scaling"


@pytest.mark.parametrize("dst", [
    "0,0.42,0;0.33,0,0;0,0,0;0,0,0",
    # the first axis value 5e-10 below the initial one: within CONVERT_TOL
    "0,0.2999999995,0;0.2,0,0;0,0,0;0,0,0",
], ids=["readme", "rectangle_gap"])
def test_fourqubit_witness(capsys, dst):
    code, out, _ = run(capsys, "fourqubit", "witness",
                       "--from-gammas", "0,0.3,0;0.1,0,0;0,0,0;0,0,0",
                       "--to-gammas", dst, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["completeness_residual"] <= 1e-12
    assert payload["outcome_mismatch"] <= 1e-9
    assert sum(payload["probabilities"]) == pytest.approx(1.0, abs=1e-9)


def test_fourqubit_stray_component_is_zero(capsys):
    # a stray 1e-11 on the second party's z is zero to every command
    src, dst = "0,0.3,0;0.1,0,1e-11;0,0,0;0,0,0", "0,0.42,0;0.33,0,0;0,0,0;0,0,0"
    code, out, _ = run(capsys, "fourqubit", "classify", "--gammas", src, "--json")
    assert code == 0
    assert json.loads(out)["standard_gammas"][1] == [0.1, 0.0, 0.0]
    code, out, _ = run(capsys, "fourqubit", "convert", "--from-gammas", src,
                       "--to-gammas", dst)
    assert (code, out) == (0, "convertible via axis_rectangle\n")
    code, out, _ = run(capsys, "fourqubit", "witness", "--from-gammas", src,
                       "--to-gammas", dst, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["row"] == "axis_rectangle"
    assert payload["completeness_residual"] <= 1e-12
    assert payload["eta_residual"] <= 1e-10
    assert payload["outcome_mismatch"] <= 1e-9


def test_fourqubit_pair_from_state_files(tmp_path, capsys):
    # --from-state/--to-state give what --from-gammas/--to-gammas give
    from entvol.cli import _default_seed_params, _parse_gammas
    from entvol.fourqubit import FourQubitForm
    src, dst = "0,0.3,0;0.1,0,0;0,0,0;0,0,0", "0,0.42,0;0.33,0,0;0,0,0;0,0,0"
    paths = []
    for name, text in (("from.json", src), ("to.json", dst)):
        state = FourQubitForm(_default_seed_params(), _parse_gammas(text))
        path = tmp_path / name
        path.write_text(json.dumps(state.to_json()), encoding="utf-8")
        paths.append(str(path))
    for cmd in ("convert", "witness"):
        by_gammas = run(capsys, "fourqubit", cmd, "--from-gammas", src, "--to-gammas", dst)
        by_files = run(capsys, "fourqubit", cmd, "--from-state", paths[0],
                       "--to-state", paths[1])
        assert by_files == by_gammas and by_files[0] == 0, cmd
        assert "axis_rectangle" in by_files[1]


def test_fourqubit_classify_near_miss_note(capsys):
    gammas = "0.2,1e-8,0;0.1,1e-8,0;0.05,0,0;0,0,0"
    code, out, _ = run(capsys, "fourqubit", "classify", "--gammas", gammas, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tag"] == "isolated"
    assert payload["diagnostic"].startswith("nearly axis-aligned")
    code, out, _ = run(capsys, "fourqubit", "classify", "--gammas", gammas)
    assert code == 0
    assert out.splitlines() == ["class: isolated", f"note: {payload['diagnostic']}"]


def test_fourqubit_near_seed_state_exits_cleanly(capsys):
    # isolated on its exact support, the seed once components <= 1e-6 are zeroed
    gammas = "1e-7,1e-7,0;1e-7,0,1e-7;0,0,0;0,0,0"
    code, out, _ = run(capsys, "fourqubit", "classify", "--gammas", gammas, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tag"] == "isolated"
    assert payload["diagnostic"].startswith("nearly axis-aligned")
    code, out, _ = run(capsys, "fourqubit", "convert", "--from-gammas", gammas,
                       "--to-gammas", "0,0,0;0,0,0;0,0,0;0,0,0")
    assert (code, out) == (0, "not convertible (isolated state)\n")


def test_fourqubit_measures_text_line(capsys):
    gammas = "0.2,0,0;0,0,0;0,0,0;0,0,0"
    _, out, _ = run(capsys, "fourqubit", "measures", "--gammas", gammas, "--json")
    p = json.loads(out)
    code, out, _ = run(capsys, "fourqubit", "measures", "--gammas", gammas)
    assert code == 0
    assert out == (f"class axis_only: E_s = {p['E_s']:.12g} (V_s = {p['V_s']:.12g}, dim 1), "
                   f"E_a = {p['E_a']:.12g} (V_a = {p['V_a']:.12g}, dim 3)\n")
    assert (p["V_s_dim"], p["V_a_dim"]) == (1, 3)


def test_fourqubit_state_json_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "fourqubit", "measures",
                       "--gammas", "0.23,0.13,0.15;0,0,0;0,0,0;0,0,0",
                       "--mc-samples", "50000", "--json")
    first = json.loads(out)
    # the same state via a JSON payload file gives the identical report
    from entvol.cli import _default_seed_params
    from entvol.fourqubit import FourQubitForm
    import numpy as np
    payload = FourQubitForm(_default_seed_params(),
                            np.array([[0.23, 0.13, 0.15], [0, 0, 0], [0, 0, 0], [0, 0, 0]])).to_json()
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, _ = run(capsys, "fourqubit", "measures", "--state", str(path),
                       "--mc-samples", "50000", "--json")
    second = json.loads(out)
    assert first == second


@pytest.mark.parametrize("a,d2", [
    (math.nan, 0.195), (math.inf, 0.195), (0.6, 0.195 - 4e-8),  # the last: norm 0.99999996
], ids=["nan", "inf", "norm"])
@pytest.mark.parametrize("command", ["classify", "measures", "witness"])
def test_fourqubit_invalid_json_seed_is_domain_error(tmp_path, capsys, a, d2, command):
    seed = {"a": a, "b": [0.5, 0.1], "c": [0.25, -0.35], "d": [math.sqrt(d2), 0.0]}
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"seed": seed, "gammas": [[0, 0, 0]] * 4}), encoding="utf-8")
    argv = (["--state", str(path)] if command != "witness"
            else ["--from-state", str(path), "--to-state", str(path)])
    code, out, _ = run(capsys, "fourqubit", command, *argv, "--json")
    assert code == 2
    assert json.loads(out)["error"] == "fourqubit.InvalidSeedParams"


@pytest.mark.parametrize("initial,final,probabilities,patterns", [
    # two valid protocols exist; the initial's (party, axis) names the axis party
    ("0,0,0;0,0,0;0,0,0;0,-0.07,0", "0,0,0;0,0,0;0.19,0,0;0,-0.14,0",
     [0.375, 0.375, 0.125, 0.125], [0, 2, 1, 3]),
    ("0,0,0;0,0,0;0,0,0;0,0,0", "0,0,0;0,-0.24,-0.24;0,0,0;-0.25,0,0",
     [0.25, 0.25, 0.25, 0.25], [0, 1, 2, 3]),
], ids=["axis_only", "seed"])
def test_fourqubit_axis_then_transverse_witness(capsys, initial, final, probabilities, patterns):
    code, out, _ = run(capsys, "fourqubit", "witness", "--from-gammas", initial,
                       "--to-gammas", final, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["row"] == "axis_then_transverse"
    assert payload["pauli_patterns"] == patterns
    assert payload["probabilities"] == pytest.approx(probabilities, abs=1e-12)


def test_fourqubit_seed_opens_axis_party_at_positive_value():
    # from the seed every Klein sign of the target reproduces; the row takes
    # the one with a positive axis value, so the identity outcome leaves
    # party 3 with gamma (+0.25, 0, 0), as G = M^dag M shows
    from entvol.cli import _default_seed_params, _parse_gammas
    from entvol.fourqubit import FourQubitForm, povm_witness
    seed = _default_seed_params()
    wit = povm_witness(FourQubitForm(seed, _parse_gammas("0,0,0;0,0,0;0,0,0;0,0,0")),
                       FourQubitForm(seed, _parse_gammas("0,0,0;0,-0.24,-0.24;0,0,0;-0.25,0,0")))
    m = wit.outcomes[0][3]
    gram = m.conj().T @ m  # 1/2 + gamma . sigma
    gamma = [gram[0, 1].real, -gram[0, 1].imag, gram[0, 0].real - 0.5]
    assert gamma == pytest.approx([0.25, 0.0, 0.0], abs=1e-12)


def test_polytope_subcommands(tmp_path, capsys):
    hrep = {"A": [[1, 0], [0, 1], [-1, 0], [0, -1]], "b": [0, 0, 1, 1]}
    path = tmp_path / "square.json"
    path.write_text(json.dumps(hrep), encoding="utf-8")
    code, out, _ = run(capsys, "polytope", "vertices", "--input", str(path), "--json")
    assert code == 0 and json.loads(out)["count"] == 4
    code, out, _ = run(capsys, "polytope", "volume", "--input", str(path), "--json")
    payload = json.loads(out)
    assert payload["volume"] == pytest.approx(1.0)
    assert payload["simple"] is True
    assert payload["brion_volume"] == pytest.approx(1.0)


def test_oracle_subcommands(capsys):
    code, out, _ = run(capsys, "oracle", "source", "--schmidt", "0.5,0.3,0.2",
                       "--samples", "50000", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["estimate"] - payload["closed_form"]) <= 4 * payload["stderr"]
    code, out, _ = run(capsys, "oracle", "region", "--region", "half-ball",
                       "--samples", "50000", "--seed", "3")
    payload = json.loads(out)
    assert payload["estimate"] == pytest.approx(math.pi / 12, abs=5 * payload["stderr"])


@pytest.mark.parametrize("schmidt", ["0.5,0.5,0,0", "0.5,0.3,0.2,0"])
def test_oracle_accessible_zero_padded_reports_sampled_volume(capsys, schmidt):
    # the accessible set of a zero-padded lam has a lower dimension than the
    # sorted region sampled: its volume there, like the estimate, is 0
    code, out, _ = run(capsys, "oracle", "accessible", "--schmidt", schmidt, "--samples", "1000")
    payload = json.loads(out)
    assert (code, payload["estimate"], payload["polytope_value"]) == (0, 0.0, 0.0)


def test_oracle_region_reachable_matches_measures(capsys):
    # the reachable region's estimate is the accessible volume the measures print
    gammas = "0.05,0.04,0.03;0,0,0;0,0,0;0,0,0"
    code, out, _ = run(capsys, "oracle", "region", "--region", "reachable",
                       "--gammas", gammas, "--samples", "100000", "--seed", "3")
    assert code == 0
    region = json.loads(out)
    code, out, _ = run(capsys, "fourqubit", "measures", "--gammas", gammas,
                       "--mc-samples", "100000", "--mc-seed", "3", "--json")
    assert code == 0
    assert region["estimate"] == json.loads(out)["V_a"] == 0.144625
    assert (region["samples"], region["seed"]) == (100000, 3)


def test_mc_seed_env_default(capsys, monkeypatch):
    args = ("fourqubit", "measures", "--gammas",
            "0.23,0.13,0.15;0,0,0;0,0,0;0,0,0", "--mc-samples", "20000", "--json")
    monkeypatch.setenv("ENTVOL_MC_SEED", "5")
    _, out_a, _ = run(capsys, *args)
    _, out_b, _ = run(capsys, *args)
    assert out_a == out_b
    monkeypatch.setenv("ENTVOL_MC_SEED", "6")
    _, out_c, _ = run(capsys, *args)
    assert json.loads(out_a)["V_a"] != json.loads(out_c)["V_a"]


def test_mc_seed_read_only_by_sampling_commands(capsys, monkeypatch):
    monkeypatch.setenv("ENTVOL_MC_SEED", "abc")
    assert run(capsys, "bipartite", "source", "--schmidt", "0.5,0.5")[0] == 0
    assert run(capsys, "oracle", "region", "--samples", "2000")[0] == 64
    assert run(capsys, "oracle", "region", "--samples", "2000", "--seed", "3")[0] == 0


@pytest.mark.parametrize("seed,expected", [
    ("18446744073709551616", 64),  # 2^64
    ("-9223372036854775809", 64),  # -2^63 - 1
    ("1.5", 64),
    ("9223372036854775808", 0),    # 2^63
    ("-9223372036854775808", 0),   # -2^63
])
def test_mc_seed_range(capsys, seed, expected):
    code, out, _ = run(capsys, "oracle", "region", "--samples", "2000", f"--seed={seed}")
    assert code == expected
    if expected == 0:
        assert json.loads(out)["seed"] == int(seed)


def test_mc_seed_top_word_keeps_its_bits(capsys):
    # 2^64 - 1 is the key word of -1; through a float it would turn into 0
    def estimate(seed):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "oracle", "region", "--samples", "2000",
                                 f"--seed={seed}")
        assert code == 0
        assert err == "" and not caught, (err, [str(w.message) for w in caught])
        return json.loads(out)["estimate"]

    top = estimate(2 ** 64 - 1)
    assert top == estimate(-1)
    assert top != estimate(0)


def test_domain_error_exit_code(capsys):
    code, out, _ = run(capsys, "bipartite", "source", "--schmidt", "0,0", "--json")
    assert code == 2
    assert json.loads(out)["error"] == "schmidt.ZeroSum"
    code, out, _ = run(capsys, "bipartite", "source", "--schmidt", " -0.5,1.5")
    assert code == 2
    assert json.loads(out)["error"] == "schmidt.NegativeComponent"


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "bipartite", "source")  # missing --schmidt
    assert code == 64


@pytest.mark.parametrize("argv,error", [
    (["bipartite", "source", "--schmidt", "nan,0.5"], "schmidt.NonFinite"),
    (["bipartite", "accessible", "--schmidt", "inf,0.5"], "schmidt.NonFinite"),
    (["fourqubit", "classify", "--gammas=nan,0,0;0,0,0;0,0,0;0,0,0"], "fourqubit.UnclassifiedForm"),
])
def test_non_finite_input_is_domain_error(capsys, argv, error):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == error


@pytest.mark.parametrize("argv,expected", [
    (["bipartite", "accessible", "--schmidt", ",".join(["1"] * (MAX_ACCESSIBLE_DIM + 1))], 2),
    (["bipartite", "source", "--schmidt", ",".join(["1"] * MAX_EXACT_DIM)], 0),
    (["bipartite", "source", "--schmidt", ",".join(["1"] * (MAX_EXACT_DIM + 1))], 2),
    (["bipartite", "source", "--schmidt", ",".join(["1"] * 16), "--k", str(MAX_EXACT_DIM)], 0),
    # the flat rank-4 state's E_s at k = 98 is 7.5e-11, below the floor that
    # source_entanglement_k divides by
    (["bipartite", "source", "--schmidt", "0.4,0.3,0.2,0.1", "--k", str(MAX_EXACT_DIM)], 2),
    (["bipartite", "source", "--schmidt", "0.4,0.3,0.2,0.1", "--k", str(MAX_EXACT_DIM + 1)], 2),
])
def test_rank_caps(capsys, argv, expected):
    code, out, err = run(capsys, *argv, "--json")
    assert code == expected
    assert "Traceback" not in out + err
    if expected == 2:
        assert json.loads(out)["error"] == "bipartite.DimensionTooLarge"
    else:
        assert json.loads(out)["E_s"] == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("command,rank", [
    ("accessible", MAX_ACCESSIBLE_DIM + 1),
    ("source", MAX_EXACT_DIM + 1),
    ("accessible", 99),
])
def test_oracle_refuses_over_cap_rank_before_sampling(capsys, monkeypatch, command, rank):
    def no_sampling(*args):
        raise AssertionError("sampled before the engine's rank cap was checked")

    monkeypatch.setattr(oracle, "_hit_fraction", no_sampling)
    code, out, err = run(capsys, "oracle", command, "--schmidt", ",".join(["1"] * rank))
    assert (code, err) == (2, "")
    assert json.loads(out)["error"] == "bipartite.DimensionTooLarge"


@pytest.mark.parametrize("argv", [
    ["oracle", "region", "--samples", "1000000000000000"],
    ["oracle", "source", "--schmidt", "0.5,0.5", "--samples", str(2 ** 30 + 1)],
    ["fourqubit", "measures", "--gammas", "0,0,0;0,0,0;0,0,0;0,0,0",
     "--mc-samples", "1000000000000000"],
])
def test_sample_count_over_cap_is_domain_error(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == "polytope.InconsistentInput"


ZERO_GAMMAS = "0,0,0;0,0,0;0,0,0;0,0,0"
RAGGED_GAMMAS = "0,0;0,0,0;0,0,0;0,0,0"
#: Payloads that ``json.loads`` accepts but no polytope has.
BAD_PAYLOADS = {
    "nan_a": '{"A": [[NaN, 0], [0, 1], [-1, 0], [0, -1]], "b": [0, 0, 1, 1]}',
    "inf_b": '{"A": [[1, 0], [0, 1], [-1, 0], [0, -1]], "b": [0, 0, Infinity, 1]}',
    "nan_vertices": '{"vertices": [[0, 0], [1, NaN], [0, 1]]}',
    "inf_vertices": '{"vertices": [[0, 0], [1, 0], [-Infinity, 1]]}',
    "no_vertices": '{"vertices": []}',
}


@pytest.mark.parametrize("argv,expected", [
    (["fourqubit", "classify", "--state", "{missing}"], 64),
    (["fourqubit", "measures", "--state", "{malformed}"], 64),
    (["fourqubit", "classify", "--state", "{no_keys}"], 64),
    (["fourqubit", "convert", "--from-state", "{missing}", "--to-state", "{missing}"], 64),
    (["fourqubit", "witness", "--from-state", "{no_keys}", "--to-state", "{no_keys}"], 64),
    (["polytope", "volume", "--input", "{malformed}"], 64),
    (["polytope", "vertices", "--input", "{no_keys}"], 64),
    (["bipartite", "sweep", "--from-schmidt", "0.6,0.4", "--to-schmidt", "0.7,0.3",
      "--steps", "0"], 64),
    (["fourqubit", "sweep", f"--from-gammas={ZERO_GAMMAS}", f"--to-gammas={ZERO_GAMMAS}",
      "--steps", "0"], 64),
    (["bipartite", "accessible", "--schmidt", "1", "--json"], 0),
    (["fourqubit", "classify", f"--gammas={RAGGED_GAMMAS}"], 64),
    (["fourqubit", "measures", f"--gammas={RAGGED_GAMMAS}"], 64),
    (["fourqubit", "convert", f"--from-gammas={RAGGED_GAMMAS}", f"--to-gammas={ZERO_GAMMAS}"], 64),
    (["fourqubit", "witness", f"--from-gammas={ZERO_GAMMAS}", f"--to-gammas={RAGGED_GAMMAS}"], 64),
    (["oracle", "region", "--region", "reachable", f"--gammas={RAGGED_GAMMAS}"], 64),
    (["fourqubit", "sweep", "--from-gammas=0,0,0;0,0,0", f"--to-gammas={ZERO_GAMMAS}",
      "--steps", "2"], 2),
    (["polytope", "volume", "--input", "{nan_a}", "--json"], 2),
    (["polytope", "vertices", "--input", "{nan_a}"], 2),
    (["polytope", "volume", "--input", "{inf_b}", "--json"], 2),
    (["polytope", "vertices", "--input", "{inf_b}"], 2),
    (["polytope", "volume", "--input", "{nan_vertices}", "--json"], 2),
    (["polytope", "volume", "--input", "{inf_vertices}"], 2),
    (["polytope", "volume", "--input", "{no_vertices}", "--json"], 2),
])
def test_input_failures_exit_cleanly(tmp_path, argv, expected):
    # a cold process, so that an uncaught exception shows as it would to a user
    (tmp_path / "malformed.json").write_text('{"A": [[1, 0]', encoding="utf-8")
    # neither a four-qubit form (no "seed") nor an H-representation (no "b")
    (tmp_path / "no_keys.json").write_text('{"A": [[1.0]], "gammas": [[0, 0, 0]]}',
                                           encoding="utf-8")
    for name, text in BAD_PAYLOADS.items():
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
    paths = {name: str(tmp_path / f"{name}.json")
             for name in ("missing", "malformed", "no_keys", *BAD_PAYLOADS)}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "entvol.cli"] + [a.format(**paths) for a in argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    if expected == 2:
        assert json.loads(proc.stdout)["error"] in ("polytope.InconsistentInput",
                                                    "fourqubit.UnclassifiedForm")
    if expected == 0:
        payload = json.loads(proc.stdout)
        assert (payload["E_a"], payload["dimension"], payload["vertices"]) == (1.0, 0, 1)


def test_scipy_stays_unloaded():
    # scipy serves only qhull's hull volume; the package, the accessible
    # measures and H-input vertex enumeration run without it
    code = ("import sys\n"
            "import entvol\n"
            "from entvol.cli import main\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(loaded())\n"
            "main(['bipartite', 'accessible', '--schmidt', '0.4,0.3,0.2,0.1', '--json'])\n"
            "print(loaded())\n"
            "main(['polytope', 'vertices', '--input', '-', '--json'])\n"
            "print(loaded())\n")
    square = {"A": [[1, 0], [0, 1], [-1, 0], [0, -1]], "b": [0, 0, 1, 1]}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          input=json.dumps(square), env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    after_import, payload, after_call, vertices, after_vertices = proc.stdout.strip().splitlines()
    assert after_import == after_call == after_vertices == "[]"
    assert json.loads(payload)["vertices"] == 8
    assert json.loads(vertices)["count"] == 4


def test_measures_start_no_thread_pool():
    # the Monte-Carlo workers are plain threads: concurrent.futures would pull
    # in logging, about 10 ms of a cold start
    code = ("import sys\n"
            "import entvol\n"
            "from entvol.cli import main\n"
            "print('concurrent.futures' in sys.modules)\n"
            "main(['fourqubit', 'measures', '--gammas', '0.05,0.04,0.03;0,0,0;0,0,0;0,0,0',\n"
            "      '--mc-samples', '1100000', '--json'])\n"
            "print('concurrent.futures' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    after_import, payload, after_call = proc.stdout.strip().splitlines()
    assert after_import == after_call == "False"
    assert json.loads(payload)["V_a_abs_err"] > 0.0


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


def test_source_and_convert_run_without_numpy():
    # a None entry in sys.modules makes every import of numpy fail
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "import entvol\n"
            "from entvol.cli import main\n"
            "for argv in (['bipartite', 'source', '--schmidt', '0.4,0.3,0.2,0.1'],\n"
            "             ['bipartite', 'source', '--schmidt', '0.4,0.3,0.2,0.1', '--json'],\n"
            "             ['bipartite', 'source', '--schmidt', '0.4,0.3,0.2,0.1', '--k', '6'],\n"
            "             ['bipartite', 'convert', '--from', '0.6,0.4', '--to', '0.7,0.3']):\n"
            "    assert main(argv) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('entvol')))\n"
            "print('dataclasses' in sys.modules)\n")
    proc = _python(code)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        'E_s = 0.904  (V_s = 0.00133333333333, dim 3, k = 4)\n'
        '{"E_s": 0.904, "V_s": 0.00133333333333, "dimension": 3, "v_sup": 0.0138888888889, "k": 4, "schmidt": [0.4, 0.3, 0.2, 0.1]}\n'
        'E_s = 0.51308761523  (V_s = 1.41735868288e-05, dim 5, k = 6)\n'
        'convertible\n'
        "['entvol', 'entvol.cli', 'entvol.errors', 'entvol.schmidt', 'entvol.source']\n"
        "False\n")


def test_fourqubit_commands_load_no_bipartite_or_polytope():
    code = ("import sys\n"
            "from entvol.cli import main\n"
            f"pair = ['--from-gammas', {RECT_FROM!r}, '--to-gammas', {RECT_TO!r}]\n"
            f"for argv in (['fourqubit', 'classify', '--gammas', {CASE_III!r}],\n"
            "             ['fourqubit', 'convert'] + pair, ['fourqubit', 'witness'] + pair,\n"
            f"             ['fourqubit', 'measures', '--gammas', {ZERO_GAMMAS!r}]):\n"
            "    assert main(argv) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('entvol')))\n")
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "['entvol', 'entvol.cli', 'entvol.errors', 'entvol.fourqubit', 'entvol.oracle', "
        "'entvol.schmidt', 'entvol.source']")


#: Vertex sets whose hull rank once came from two SVDs that disagreed
#: (near_point, near_segment), one whose spread overflows qhull, and input
#: with no coordinates, which once ended in a lexsort traceback; the expected
#: exit codes and, on exit 0, the hull dimension.
EDGE_VERTEX_SETS = {
    "near_point": ({"vertices": [[0, 0], [1.3e-9, 0]]}, (0,), 0),
    "near_segment": ({"vertices": [[0, 0, 0], [1.3e-9, 0, 0], [0, 1, 0]]}, (0,), 1),
    "overflow": ({"vertices": [[1e308, 0], [-1e308, 0], [0, 1]]}, (0, 2), None),
    "zero_column_vertices": ({"vertices": [[]]}, (2,), None),
    "zero_column_halfspaces": ({"A": [[]], "b": [1]}, (2,), None),
}


@pytest.mark.parametrize("name", EDGE_VERTEX_SETS)
def test_edge_vertex_sets_exit_cleanly(name):
    payload, codes, dimension = EDGE_VERTEX_SETS[name]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "entvol.cli", "polytope", "volume",
                           "--input", "-", "--json"], input=json.dumps(payload),
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode in codes, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    if proc.returncode == 2:
        assert payload["error"] == "polytope.InconsistentInput"
    elif dimension is not None:
        assert payload["dimension"] == dimension


RECT_FROM = "0,0.3,0;0.1,0,0;0,0,0;0,0,0"
RECT_TO = "0,0.42,0;0.33,0,0;0,0,0;0,0,0"
CASE_III = "0.05,0.04,0.03;0,0,0;0,0,0;0,0,0"
SQUARE = '{"A": [[1, 0], [0, 1], [-1, 0], [0, -1]], "b": [0, 0, 1, 1]}'

#: One fixed input per command and output mode, with the exact stdout it
#: prints; the Monte-Carlo rows sample 20000 points at seed 3.  The polytope
#: rows read SQUARE from stdin.
RENDERINGS = [
    pytest.param(("bipartite", "source", "--schmidt", "0.4,0.3,0.2,0.1"),
                 'E_s = 0.904  (V_s = 0.00133333333333, dim 3, k = 4)\n',
                 id="source"),
    pytest.param(("bipartite", "source", "--schmidt", "0.4,0.3,0.2,0.1", "--json"),
                 '{"E_s": 0.904, "V_s": 0.00133333333333, "dimension": 3, "v_sup": 0.0138888888889, "k": 4, "schmidt": [0.4, 0.3, 0.2, 0.1]}\n',
                 id="source_json"),
    pytest.param(("bipartite", "source", "--schmidt", "0.5,0.3,0.2", "--k", "4"),
                 'E_s = 0.618923076923  (V_s = 0.00561111111111, dim 3, k = 4)\n',
                 id="source_k"),
    pytest.param(("bipartite", "source", "--schmidt", "0.5,0.3,0.2", "--k", "4", "--json"),
                 '{"E_s": 0.618923076923, "V_s": 0.00561111111111, "dimension": 3, "v_sup": 0.962962962963, "k": 4, "schmidt": [0.5, 0.3, 0.2]}\n',
                 id="source_k_json"),
    pytest.param(("bipartite", "accessible", "--schmidt", "0.4,0.3,0.2,0.1"),
                 'E_a = 0.696  (V_a = 0.00966666666667, dim 3, 8 vertices)\n',
                 id="accessible"),
    pytest.param(("bipartite", "accessible", "--schmidt", "0.4,0.3,0.2,0.1", "--json"),
                 '{"E_a": 0.696, "V_a": 0.00966666666667, "dimension": 3, "v_sup": 0.0138888888889, "k": 4, "schmidt": [0.4, 0.3, 0.2, 0.1], "vertices": 8}\n',
                 id="accessible_json"),
    pytest.param(("bipartite", "accessible", "--schmidt", "0.5,0.3,0.2", "--k", "2"),
                 'E_a = 1  (V_a = 0.707106781187, dim 1)\n',
                 id="accessible_k"),
    pytest.param(("bipartite", "accessible", "--schmidt", "0.5,0.3,0.2", "--k", "2", "--json"),
                 '{"E_a": 1.0, "V_a": 0.707106781187, "dimension": 1, "v_sup": 0.707106781187, "k": 2, "schmidt": [0.5, 0.3, 0.2]}\n',
                 id="accessible_k_json"),
    pytest.param(("bipartite", "convert", "--from", "0.6,0.4", "--to", "0.7,0.3"),
                 'convertible\n',
                 id="bipartite_convert"),
    pytest.param(("bipartite", "convert", "--from", "0.6,0.4", "--to", "0.7,0.3", "--json"),
                 '{"convertible": true, "from": [0.6, 0.4], "to": [0.7, 0.3]}\n',
                 id="bipartite_convert_json"),
    pytest.param(("fourqubit", "classify", "--gammas", "0.15,0.2,0.1;0.3,0,0;0.1,0,0;0,0,0"),
                 'class: general_plus_axes (axis x)\n',
                 id="classify"),
    pytest.param(("fourqubit", "classify", "--gammas", "0.15,0.2,0.1;0.3,0,0;0.1,0,0;0,0,0", "--json"),
                 '{"tag": "general_plus_axes", "axis": "x", "roles": {"general_party": 0}, "standard_gammas": [[0.15, 0.2, 0.1], [0.3, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.0, 0.0]]}\n',
                 id="classify_json"),
    pytest.param(("fourqubit", "classify", "--gammas", "1e-7,1e-7,0;1e-7,0,1e-7;0,0,0;0,0,0"),
                 'class: isolated\nnote: nearly axis-aligned: off-axis components are below 1e-6 but above the alignment tolerance 1e-09; treating as isolated\n',
                 id="classify_note"),
    pytest.param(("fourqubit", "classify", "--gammas", "1e-7,1e-7,0;1e-7,0,1e-7;0,0,0;0,0,0", "--json"),
                 '{"tag": "isolated", "axis": null, "roles": {}, "standard_gammas": [[1e-07, 1e-07, 0.0], [1e-07, 0.0, 1e-07], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], "diagnostic": "nearly axis-aligned: off-axis components are below 1e-6 but above the alignment tolerance 1e-09; treating as isolated"}\n',
                 id="classify_note_json"),
    pytest.param(("fourqubit", "measures", "--gammas", CASE_III, "--mc-samples", "20000", "--mc-seed", "3"),
                 'class general_one_party: E_s = 0.997505846837 (V_s = 4e-05, dim 3), E_a = 0.552426807472 (V_a = 0.144625, dim 3)\n',
                 id="measures"),
    pytest.param(("fourqubit", "measures", "--gammas", CASE_III, "--mc-samples", "20000", "--mc-seed", "3", "--json"),
                 '{"class": "general_one_party", "E_s": 0.997505846837, "V_s": 4e-05, "V_s_dim": 3, "V_s_sup": 0.0160375074775, "E_a": 0.552426807472, "V_a": 0.144625, "V_a_dim": 3, "V_a_sup": 0.261799387799, "V_a_abs_err": 0.00160306128041, "V_s_sup_symbolic": "1/(36*sqrt(3))", "V_a_sup_symbolic": "pi/12"}\n',
                 id="measures_json"),
    pytest.param(("fourqubit", "convert", "--from-gammas", RECT_FROM, "--to-gammas", RECT_TO),
                 'convertible via axis_rectangle\n',
                 id="convert"),
    pytest.param(("fourqubit", "convert", "--from-gammas", RECT_FROM, "--to-gammas", RECT_TO, "--json"),
                 '{"convertible": true, "row": "axis_rectangle"}\n',
                 id="convert_json"),
    pytest.param(("fourqubit", "convert", "--from-gammas", RECT_TO, "--to-gammas", RECT_FROM),
                 'not convertible (no transformation row applies)\n',
                 id="convert_refused"),
    pytest.param(("fourqubit", "convert", "--from-gammas", RECT_TO, "--to-gammas", RECT_FROM, "--json"),
                 '{"convertible": false, "row": null, "detail": "no transformation row applies"}\n',
                 id="convert_refused_json"),
    pytest.param(("fourqubit", "witness", "--from-gammas", ZERO_GAMMAS, "--to-gammas", ZERO_GAMMAS),
                 "row identity: 1 outcomes, p = ['1']\ncompleteness residual 0.00e+00, eta residual 0.00e+00, outcome mismatch 0.00e+00\n",
                 id="witness"),
    pytest.param(("fourqubit", "witness", "--from-gammas", ZERO_GAMMAS, "--to-gammas", ZERO_GAMMAS, "--json"),
                 '{"row": "identity", "outcomes": 1, "probabilities": [1.0], "pauli_patterns": [0], "completeness_residual": 0.0, "eta_residual": 0.0, "outcome_mismatch": 0.0}\n',
                 id="witness_json"),
    pytest.param(("polytope", "vertices", "--input", "-"),
                 '-0 0\n-0 1\n1 -0\n1 1\n',
                 id="vertices"),
    pytest.param(("polytope", "vertices", "--input", "-", "--json"),
                 '{"vertices": [[-0.0, 0.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 1.0]], "count": 4}\n',
                 id="vertices_json"),
    pytest.param(("polytope", "volume", "--input", "-"),
                 'volume = 1 (dimension 2, 4 vertices), simple = True\n',
                 id="volume"),
    pytest.param(("polytope", "volume", "--input", "-", "--json"),
                 '{"volume": 1.0, "dimension": 2, "vertices": 4, "simple": true, "brion_volume": 1.0}\n',
                 id="volume_json"),
    pytest.param(("bipartite", "sweep", "--from-schmidt", "0.5,0.5", "--to-schmidt", "1,0", "--steps", "3"),
                 'step,lambda_1,lambda_2,V_s,V_a,E_s,E_a,accessible_vertices,V_a_dim\n0,0.5,0.5,0,0.707106781187,1,1,2,1\n1,0.75,0.25,0.353553390593,0.353553390593,0.5,0.5,2,1\n2,1,0,0.707106781187,0,0,0,1,0\n',
                 id="bipartite_sweep"),
    pytest.param(("fourqubit", "sweep", "--from-gammas", ZERO_GAMMAS, "--to-gammas", "0.4,0,0;0,0,0;0,0,0;0,0,0", "--steps", "3"),
                 'step,class,gamma_1x,gamma_1y,gamma_1z,gamma_2x,gamma_2y,gamma_2z,gamma_3x,gamma_3y,gamma_3z,gamma_4x,gamma_4y,gamma_4z,V_s,V_s_dim,V_a,V_a_dim,E_s,E_a\n0,seed,0,0,0,0,0,0,0,0,0,0,0,0,0,0,7.59218224618,3,1,1\n1,axis_only,0.2,0,0,0,0,0,0,0,0,0,0,0,0.2,1,0.409977841293,3,0.6,0.569454545455\n2,axis_only,0.4,0,0,0,0,0,0,0,0,0,0,0,0.4,1,0.125140107368,3,0.2,0.173818181818\n',
                 id="fourqubit_sweep"),
    pytest.param(("oracle", "source", "--schmidt", "0.5,0.3,0.2", "--samples", "20000", "--seed", "3"),
                 '{"estimate": 0.0187999681405, "stderr": 0.000343518766924, "samples": 20000, "seed": 3, "convention": "intrinsic", "closed_form": 0.0187638837487}\n',
                 id="oracle_source"),
    pytest.param(("oracle", "accessible", "--schmidt", "0.5,0.3,0.2", "--samples", "20000", "--seed", "3"),
                 '{"estimate": 0.103858096549, "stderr": 0.000458482321429, "samples": 20000, "seed": 3, "convention": "intrinsic", "polytope_value": 0.103923048454}\n',
                 id="oracle_accessible"),
    pytest.param(("oracle", "region", "--samples", "20000", "--seed", "3"),
                 '{"estimate": 0.52205, "stderr": 0.00353209426191, "samples": 20000, "seed": 3, "convention": "intrinsic"}\n',
                 id="oracle_ball"),
    pytest.param(("oracle", "region", "--region", "half-ball", "--samples", "20000", "--seed", "3"),
                 '{"estimate": 0.262675, "stderr": 0.0017654934774, "samples": 20000, "seed": 3, "convention": "intrinsic"}\n',
                 id="oracle_half_ball"),
    pytest.param(("oracle", "region", "--region", "reachable", "--gammas", CASE_III, "--samples", "20000", "--seed", "3"),
                 '{"estimate": 0.144625, "stderr": 0.00160306128041, "samples": 20000, "seed": 3, "convention": "intrinsic"}\n',
                 id="oracle_reachable"),
]


@pytest.mark.parametrize("argv,expected", RENDERINGS)
def test_every_rendering_is_pinned(capsys, monkeypatch, argv, expected):
    monkeypatch.setattr(sys, "stdin", io.StringIO(SQUARE))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, expected, "")
