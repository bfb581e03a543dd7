"""Shared machinery of the benchmark: paths, set-up timing, the round loop,
the verdict and the end-to-end metrics."""

from __future__ import annotations

import json
import os
import pickle
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from layers import per_layer
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
#: set-ups per run: SETUP_BEFORE before the rounds, the rest after them, so
#: that their median spans the run as the rounds do
SETUP_REPEATS = 5
SETUP_BEFORE = 2
WORKLOAD_NAMES = ("bipartite", "fourqubit", "montecarlo", "cli")


class SetupError(RuntimeError):
    """The program or the benchmark's own inputs could not be set up."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def require_src() -> None:
    if not (SRC / "entvol" / "__init__.py").is_file():
        raise SetupError(f"no entvol package under {SRC}")


def import_entvol():
    """Import the program from this checkout's src, and nowhere else."""
    require_src()
    sys.path.insert(0, str(SRC))
    import entvol
    import entvol.bipartite
    import entvol.fourqubit
    import entvol.oracle
    import entvol.polytope

    if Path(entvol.__file__).resolve().parent != (SRC / "entvol").resolve():
        raise SetupError(f"entvol imported from {entvol.__file__}, not from {SRC}")
    return entvol


def call(op):
    """Run one operation; an exception is its result, reported by the checks."""
    try:
        return op.fn()
    except Exception as exc:  # the run goes on and counts the operation as failed
        return exc


def child(argv: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True)
    if proc.returncode != 0:
        err = proc.stderr.decode(errors="replace").strip()[-2000:]
        raise SetupError(f"{' '.join(argv[1:4])} failed ({proc.returncode}): {err}")
    return proc


def timed_setup(argv: list[str]) -> float:
    """Wall time of one child process that sets up and exits."""
    t0 = perf_counter()
    child(argv)
    return perf_counter() - t0


def references_apart(args) -> object:
    """The workload's references, computed in a child process so that the
    memory they take stays out of this process's peak."""
    me = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
          "--seed", str(args.seed), "--references-only"]
    return pickle.loads(child(me).stdout)


def measure(ops, check, seconds: float, tracer=None) -> dict:
    """Whole rounds of ``ops`` while the next one still ends within ``seconds``
    (at least one round); each round is checked outside its timing.

    A round calls the operations in one fixed shuffled order, so that calls
    of one kind are spread over the round rather than bunched in one stretch
    of it: the machine's speed drifts over seconds, and each latency quantile
    then averages over the whole round.
    """
    order = list(range(len(ops)))
    random.Random(len(ops)).shuffle(order)
    walls, latencies, failures = [], [], []
    begin = perf_counter()
    while True:
        outs = [None] * len(ops)
        t_round = perf_counter()
        for i in order:
            op = ops[i]
            t0 = perf_counter()
            if tracer is None:
                outs[i] = call(op)
            else:
                attrs = {k: v for k, v in op.attrs.items() if isinstance(v, (int, float, str))}
                with tracer.span(op.span, **attrs) as span_attrs:
                    outs[i] = call(op)
                    span_attrs.update(describe_result(op.span, outs[i]))
            latencies.append(perf_counter() - t0)
        walls.append(perf_counter() - t_round)
        for op, problems in zip(ops, check(outs)):
            if problems:
                failures.append((op, problems))
        elapsed = perf_counter() - begin
        if elapsed * (len(walls) + 1) / len(walls) > seconds:
            break
    return {"walls": walls, "latencies": latencies, "failures": failures, "rounds": len(walls)}


def describe_result(span: str, out) -> dict:
    if isinstance(out, Exception):
        return {}
    if span == "fourqubit.povm_witness":
        return {"outcomes": len(out.outcomes)}
    if span.startswith("cli."):
        return out.timing()  # import_s and main_s, measured inside the process
    return {}


def verdict(ops_per_round: int, m: dict) -> tuple[bool, int, int]:
    """(correct, attempted, failed).  Only the documented faults keep correct true."""
    correct = all(op.known_fault and all(p.startswith(op.known_fault) for p in problems)
                  for op, problems in m["failures"])
    shown = set()
    for op, problems in m["failures"]:
        line = f"FAILED {op.span} {op.attrs.get('d', '')} {op.attrs.get('vector', '')}: {'; '.join(problems)}"
        if line not in shown and len(shown) < 20:
            shown.add(line)
            print(line, file=sys.stderr)
    return correct, ops_per_round * m["rounds"], len(m["failures"])


def end_to_end(setup: list[float], m: dict, rss_mb: float) -> dict:
    """Medians over the set-ups and rounds; latency quantiles over every call."""
    lat = m["latencies"]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(m["walls"]), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_inprocess(args) -> dict:
    require_src()
    me = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
          "--seed", str(args.seed), "--setup-only"]
    setup = [timed_setup(me) for _ in range(SETUP_BEFORE)]
    ref = references_apart(args)
    entvol = import_entvol()
    wl = workloads.WORKLOADS[args.workload](args.seed, entvol)
    wl.warm_up()
    wl.load_references(ref)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_layer_spans(tracer, entvol)
    m = measure(wl.ops, wl.check, args.seconds, tracer)
    correct, attempted, failed = verdict(len(wl.ops), m)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += [timed_setup(me) for _ in range(SETUP_REPEATS - SETUP_BEFORE)]
    return finish(args, tracer, m, correct, attempted, failed,
                  end_to_end(setup, m, rss_mb))


def install_layer_spans(tracer, entvol) -> None:
    """Spans around the calls one layer makes into the next, at the import site."""
    for name in ("enumerate_vertices", "volume_triangulation"):
        tracer.patch(entvol.bipartite, name, f"polytope.{name}", _polytope_attrs)
    tracer.patch(entvol.fourqubit, "mc_region_volume", "oracle.mc_region_volume",
                 lambda args, res: {"samples": res.samples})


def _polytope_attrs(args, res) -> dict:
    """d = polytope dimension + 1, the rank of the Schmidt vectors it holds."""
    if isinstance(res, tuple):  # volume_triangulation(VertexSet) -> (volume, dim)
        return {"d": args[0].k + 1}
    return {"d": res.k + 1, "vertices": res.n}


def finish(args, tracer, m, correct, attempted, failed, e2e: dict) -> dict:
    result = {"correct": correct, "attempted": attempted, "failed": failed}
    if tracer is None:
        result["metrics"] = e2e
        return result
    result["metrics"] = per_layer(tracer, m["rounds"])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "traced_wall_s": e2e["wall_s"],
                   "spans": tracer.spans}, fh)
    return result


def setup_only(args) -> None:
    """What setup_s times for an in-process workload: import, inputs, warm-up."""
    entvol = import_entvol()
    workloads.WORKLOADS[args.workload](args.seed, entvol).warm_up()


def references_only(args) -> None:
    """Write the workload's references to standard output, pickled."""
    wl = workloads.WORKLOADS[args.workload](args.seed, import_entvol())
    sys.stdout.buffer.write(pickle.dumps(wl.references()))


def run_all(args) -> dict:
    """Every workload in its own process, one table, one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SetupError(f"workload {name} failed: {proc.stderr.strip()[-2000:]}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for metric, v in res["metrics"].items():
            if args.trace and not v["value"]:
                continue
            print(f"  {metric:<48} {v['value']:>14.6g} {v['unit']}")
            summary["metrics"][f"{name}.{metric}"] = v
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
    return summary


