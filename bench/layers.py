"""Per-layer metrics from the spans of a traced run.

The names and units are those of ``per_layer`` in BENCHMARK.json.  Every
workload reports every per-layer metric; a layer that the workload does not
call reads 0.  Per-call times are medians over the run's calls; counts are
totals per round; throughputs are total samples over total time.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
RANKS = range(2, 11)
POLYTOPE_RANKS = range(2, 9)
CLI_COMMANDS = (
    "bipartite.source", "bipartite.accessible", "bipartite.convert", "bipartite.sweep",
    "bipartite.source_k",
    "fourqubit.classify", "fourqubit.measures", "fourqubit.measures_caseiii",
    "fourqubit.convert", "fourqubit.witness", "fourqubit.sweep",
    "polytope.vertices", "polytope.volume",
    "oracle.source", "oracle.accessible", "oracle.region",
)


def units() -> dict[str, str]:
    """Name -> unit of every per-layer metric that BENCHMARK.json lists."""
    with open(SPEC, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


class Values(dict):
    """The per-layer values, which refuse a name BENCHMARK.json does not list
    and remember the names that were computed."""

    def __init__(self, names) -> None:
        super().__init__(dict.fromkeys(names, 0.0))
        self.computed: set[str] = set()

    def __setitem__(self, name: str, value: float) -> None:
        if name not in self:
            raise KeyError(f"per-layer metric {name} is not in BENCHMARK.json")
        self.computed.add(name)
        super().__setitem__(name, value)


def _median(xs, scale: float) -> float:
    return statistics.median(xs) * scale if xs else 0.0


def per_layer(tracer, rounds: int) -> dict:
    spans = tracer.spans
    unit = units()
    values = Values(unit)

    def durations(name, **match):
        return [s["end"] - s["start"] for s in spans if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in match.items())]

    for d in RANKS:
        values[f"bipartite.source_entanglement.d{d}.ms"] = _median(
            durations("bipartite.source_entanglement", d=d), 1e3)
    for d in POLYTOPE_RANKS:
        values[f"bipartite.accessible_entanglement.d{d}.ms"] = _median(
            durations("bipartite.accessible_entanglement", d=d), 1e3)
        for f in ("enumerate_vertices", "volume_triangulation"):
            values[f"polytope.{f}.d{d}.ms"] = _median(durations(f"polytope.{f}", d=d), 1e3)
        values[f"polytope.vertices.d{d}"] = sum(
            s["attrs"]["vertices"] for s in spans
            if s["name"] == "polytope.enumerate_vertices" and s["attrs"]["d"] == d) / rounds
    for f in ("source_entanglement_k", "accessible_entanglement_k"):
        values[f"bipartite.{f}.ms"] = _median(durations(f"bipartite.{f}"), 1e3)
    for f in ("classify", "can_convert", "entanglement_4q", "povm_witness"):
        values[f"fourqubit.{f}.us"] = _median(durations(f"fourqubit.{f}"), 1e6)
    values["fourqubit.witness_outcomes"] = sum(
        s["attrs"].get("outcomes", 0) for s in spans if s["name"] == "fourqubit.povm_witness") / rounds
    values["fourqubit.entanglement_4q.caseiii.ms"] = _median(
        durations("fourqubit.entanglement_4q.caseiii"), 1e3)
    for f in ("mc_source_volume", "mc_accessible_volume", "mc_region_volume"):
        calls = [s for s in spans if s["name"] == f"oracle.{f}"]
        busy = sum(s["end"] - s["start"] for s in calls)
        samples = sum(s["attrs"]["samples"] for s in calls)
        values[f"oracle.{f}.msamples_per_s"] = samples / busy / 1e6 if busy else 0.0
    inside = [s["attrs"] for s in spans if "import_s" in s["attrs"]]
    values["cli.import_ms"] = _median([a["import_s"] for a in inside], 1e3)
    for cmd in CLI_COMMANDS:
        procs = [s for s in spans if s["name"] == f"cli.{cmd}"]
        values[f"cli.{cmd}.process_ms"] = _median([s["end"] - s["start"] for s in procs], 1e3)
        values[f"cli.{cmd}.main_ms"] = _median(
            [s["attrs"]["main_s"] for s in procs if "main_s" in s["attrs"]], 1e3)
    if values.computed != set(values):
        raise KeyError(f"BENCHMARK.json lists per-layer metrics no span gives: "
                       f"{sorted(set(values) - values.computed)}")
    return {k: {"value": v, "unit": unit[k]} for k, v in values.items()}
