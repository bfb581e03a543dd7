"""Benchmark for entvol: one workload per run, timed, checked, one JSON line out.

    python3 bench/run.py --workload bipartite --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Run it from the repository root: the program is imported from ``src``.  A run
builds the workload's inputs from ``--seed``, sets up, then repeats whole
rounds of the same operations until ``--seconds`` have passed, checks every
output of every round against references computed apart from the program,
and prints one JSON object as its last line.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs with spans and reports the per-layer
metrics (and writes the spans to ``bench/out/``).  See bench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread, in this process and every child, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import cli_workload  # noqa: E402
import harness  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=harness.WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--references-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    try:
        if args.setup_only:
            harness.setup_only(args)
            return 0
        if args.references_only:
            harness.references_only(args)
            return 0
        if args.workload == "all":
            result = harness.run_all(args)
        elif args.workload == "cli":
            result = cli_workload.run(args)
        else:
            result = harness.run_inprocess(args)
    except harness.SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
