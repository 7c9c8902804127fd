"""Benchmark of the scenario-splitting solvers on seeded problem files.

    python3 perfbench/run.py --workload qbox-full --seed 1 --seconds 38 --trace 0

Run from the repository root.  The run writes the workload's problem file
from ``--seed`` (see ``workloads.py``), then acts as one caller in a closed
loop: each ``solve`` or ``solve_cvar`` starts when the previous one has
returned, for ``--seconds``, and every result goes through the gate in
``gate.py`` and is written the way ``scensplit solve`` writes it.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median time of
``cli.load_problem_file``), ``solve_ref`` and ``write_ref`` (solve and
write times in units of the reference loop of ``reference.py``, timed
alongside them), ``iterations``, ``iter_ref`` and ``peak_rss_mb``.
``--trace 1`` alternates an untraced and a traced pass (load, solve,
write) and prints per-layer calls, total and self time, measured by
``spans.py`` from outside the library, plus the tracing overhead.  The last line of standard output is the result as one JSON
object; the line before it holds machine facts and other informational
values.  Scratch files go to ``.perfbench/`` under the repository root.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# one BLAS/OpenMP thread, set before numpy is imported
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _parse(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = _parse(argv)
    if not (SRC / "scensplit" / "__init__.py").is_file():
        print(f"error: no scensplit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench import run_workload

    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
