"""Command-line front end and the on-disk problem/solution formats.

Problem files are JSON with keys ``stages``, ``scenarios``, then either
``operators`` (equilibrium form) or ``cvar`` (risk form), plus optional
``constraints`` and ``subspaces``.  Unknown keys are rejected everywhere.
Solutions are written as JSON, iteration traces as CSV with a fixed header;
runs are deterministic for fixed inputs, flags and seed.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import operators as ops
from .cvar import CvarProblem, CvarSolution, solve_cvar
from .errors import ParseError, ScensplitError, ValidationError
from .solver import (
    FullActivation,
    Problem,
    RoundRobin,
    SeededRandom,
    Solution,
    SolverConfig,
    SolveStatus,
    progressive_hedging_solve,
    solve,
    solve_reduced,
)
from .tree import ScenarioTree, build_tree, equivalence_classes

TRACE_HEADER = ["n", "residual", "kappa", "tau", "theta", "active_block_size", "wall_time_ms"]


@dataclass(frozen=True)
class ProblemBundle:
    """Parsed problem file: equilibrium form, risk form, or both views."""

    tree: ScenarioTree
    problem: Optional[Problem]
    cvar: Optional[CvarProblem]

    @property
    def kind(self) -> str:
        return "cvar" if self.cvar is not None else "equilibrium"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _record(obj, context: str, required, optional=()):
    if not isinstance(obj, dict):
        raise ValidationError(f"{context}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ValidationError(f"{context}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ValidationError(f"{context}: missing keys {sorted(missing)}")
    return obj


def _floats(value, context: str, allow_none: bool = False):
    if not isinstance(value, list):
        raise ValidationError(f"{context}: expected a list of numbers")
    out = []
    for v in value:
        if v is None and allow_none:
            out.append(None)
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            out.append(float(v))
        else:
            raise ValidationError(f"{context}: bad entry {v!r}")
    return out


def _scalar(value, context: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{context}: expected a number, got {value!r}")
    return float(value)


def _parse_cost(rec, context: str):
    _record(rec, context, ["type"], ["c", "r", "q"])
    kind = rec.get("type")
    if kind == "affine":
        _record(rec, context, ["type", "c"], ["r"])
        return ops.Affine(c=_floats(rec["c"], context), r=_scalar(rec.get("r", 0.0), context))
    if kind == "separable_quadratic":
        _record(rec, context, ["type", "q", "c"], ["r"])
        return ops.SeparableQuadratic(
            q=_floats(rec["q"], context),
            c=_floats(rec["c"], context),
            r=_scalar(rec.get("r", 0.0), context),
        )
    raise ValidationError(f"{context}: unknown cost type {kind!r}")


def _parse_operator(rec, context: str):
    if not isinstance(rec, dict) or "type" not in rec:
        raise ValidationError(f"{context}: expected an object with a 'type' key")
    kind = rec["type"]
    if kind == "diagonal_affine":
        _record(rec, context, ["type", "a", "b"])
        return ops.DiagonalAffine(a=_floats(rec["a"], context), b=_floats(rec["b"], context))
    if kind == "grad_separable_quadratic":
        _record(rec, context, ["type", "q", "c"])
        return ops.GradSeparableQuadratic(
            q=_floats(rec["q"], context), c=_floats(rec["c"], context)
        )
    raise ValidationError(f"{context}: unknown operator type {kind!r}")


def _parse_constraint(rec, context: str):
    if not isinstance(rec, dict) or "type" not in rec:
        raise ValidationError(f"{context}: expected an object with a 'type' key")
    kind = rec["type"]
    if kind == "whole_space":
        _record(rec, context, ["type"])
        return ops.WholeSpace()
    if kind == "box":
        _record(rec, context, ["type", "lo", "hi"])
        lo = [-np.inf if v is None else v for v in _floats(rec["lo"], context, allow_none=True)]
        hi = [np.inf if v is None else v for v in _floats(rec["hi"], context, allow_none=True)]
        return ops.Box(lo=lo, hi=hi)
    if kind == "ball":
        _record(rec, context, ["type", "center", "radius"])
        return ops.Ball(center=_floats(rec["center"], context), radius=_scalar(rec["radius"], context))
    if kind == "halfspace":
        _record(rec, context, ["type", "normal", "offset"])
        return ops.Halfspace(normal=_floats(rec["normal"], context), offset=_scalar(rec["offset"], context))
    if kind == "hyperplane":
        _record(rec, context, ["type", "normal", "offset"])
        return ops.Hyperplane(normal=_floats(rec["normal"], context), offset=_scalar(rec["offset"], context))
    raise ValidationError(f"{context}: unknown constraint type {kind!r}")


def _parse_subspace(rec, context: str):
    if not isinstance(rec, dict) or "type" not in rec:
        raise ValidationError(f"{context}: expected an object with a 'type' key")
    kind = rec["type"]
    if kind == "full":
        _record(rec, context, ["type"])
        return ops.Full()
    if kind == "zero":
        _record(rec, context, ["type"])
        return ops.Zero()
    if kind == "coordinates":
        _record(rec, context, ["type", "indices"])
        idx = rec["indices"]
        if not isinstance(idx, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in idx
        ):
            raise ValidationError(f"{context}: indices must be a list of integers")
        return ops.Coordinates(indices=tuple(idx))
    raise ValidationError(f"{context}: unknown subspace type {kind!r}")


def _parse_label(v, context: str):
    if isinstance(v, (str, int, float, bool)):
        return v
    raise ValidationError(f"{context}: labels must be strings or numbers, got {v!r}")


def load_problem_file(path: str) -> ProblemBundle:
    """Parse and fully validate a problem file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON: {e}") from e
    _record(doc, "problem file", ["stages", "scenarios"], ["operators", "constraints", "subspaces", "cvar"])

    stages = doc["stages"]
    if not isinstance(stages, list) or not all(
        isinstance(d, int) and not isinstance(d, bool) for d in stages
    ):
        raise ValidationError("stages: expected a list of integers")
    raw = doc["scenarios"]
    if not isinstance(raw, list):
        raise ValidationError("scenarios: expected a list")
    pairs = []
    for i, rec in enumerate(raw):
        _record(rec, f"scenario {i}", ["labels", "probability"])
        if not isinstance(rec["labels"], list):
            raise ValidationError(f"scenario {i}: labels must be a list")
        labels = tuple(_parse_label(v, f"scenario {i}") for v in rec["labels"])
        pairs.append((labels, _scalar(rec["probability"], f"scenario {i}")))
    tree = build_tree(pairs, stages)
    n = tree.num_scenarios

    def per_scenario(key, parser, default):
        if key not in doc:
            return tuple(default() for _ in range(n))
        seq = doc[key]
        if not isinstance(seq, list) or len(seq) != n:
            raise ValidationError(f"{key}: expected a list with {n} entries")
        return tuple(parser(rec, f"{key}[{i}]") for i, rec in enumerate(seq))

    constraints = per_scenario("constraints", _parse_constraint, ops.WholeSpace)
    subspaces = per_scenario("subspaces", _parse_subspace, ops.Full)

    has_ops = "operators" in doc
    has_cvar = "cvar" in doc
    if has_ops and has_cvar:
        raise ValidationError("provide either 'operators' or 'cvar', not both")
    if not has_ops and not has_cvar:
        raise ValidationError("provide one of 'operators' or 'cvar'")

    if has_ops:
        operators = per_scenario("operators", _parse_operator, None)
        problem = Problem(tree, operators, constraints, subspaces)
        return ProblemBundle(tree=tree, problem=problem, cvar=None)

    rec = _record(doc["cvar"], "cvar", ["alpha", "costs"])
    alpha = _scalar(rec["alpha"], "cvar.alpha")
    costs = rec["costs"]
    if not isinstance(costs, list) or len(costs) != n:
        raise ValidationError(f"cvar.costs: expected a list with {n} entries")
    parsed = tuple(_parse_cost(c, f"cvar.costs[{i}]") for i, c in enumerate(costs))
    cp = CvarProblem(tree=tree, alpha=alpha, costs=parsed, constraints=constraints)
    return ProblemBundle(tree=tree, problem=None, cvar=cp)


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------

def _jfloat(v) -> float:
    return float(v)


def write_trace_csv(path: str, trace):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_HEADER)
        for r in trace:
            w.writerow(
                [
                    r.n,
                    repr(_jfloat(r.residual)),
                    repr(_jfloat(r.kappa)),
                    repr(_jfloat(r.tau)),
                    repr(_jfloat(r.theta)),
                    r.active_block_size,
                    repr(_jfloat(r.wall_ms)),
                ]
            )


def write_solution_file(path: str, tree: ScenarioTree, sol: Solution):
    doc = {
        "status": sol.status.value,
        "iterations": sol.iterations,
        "residual": _jfloat(sol.residual),
        "scenarios": [
            {
                "labels": list(s.labels),
                "probability": _jfloat(s.probability),
                "x": [_jfloat(v) for v in sol.x_bar[s.index]],
                "v_star": [_jfloat(v) for v in sol.v_star_bar[s.index]],
            }
            for s in tree.scenarios
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_cvar_solution_file(path: str, cp: CvarProblem, csol: CvarSolution):
    sol = csol.inner
    doc = {
        "status": sol.status.value,
        "iterations": sol.iterations,
        "residual": _jfloat(sol.residual),
        "alpha": _jfloat(cp.alpha),
        "threshold": _jfloat(csol.y_bar),
        "objective": _jfloat(csol.objective),
        "scenarios": [
            {
                "labels": list(s.labels),
                "probability": _jfloat(s.probability),
                "x": [_jfloat(v) for v in csol.x_bar[s.index]],
            }
            for s in cp.tree.scenarios
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _make_schedule(name: str, block_size: int, seed: int, cover_window, num_scenarios: int):
    if name == "full":
        return FullActivation()
    if name == "round-robin":
        return RoundRobin(block_size=block_size)
    if name == "seeded-random":
        window = num_scenarios if cover_window is None else cover_window
        return SeededRandom(block_size=block_size, cover_window=window, seed=seed)
    raise ValidationError(f"unknown schedule {name!r}")


def _fail(e: Exception) -> int:
    print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
    return 1


# a non-finite residual means the run broke down, which is an error
EXIT_CODES = {SolveStatus.CONVERGED: 0, SolveStatus.NON_FINITE: 1, SolveStatus.MAX_ITER: 2}


def cmd_validate(path: str) -> int:
    """Parse, validate, and summarize a problem file."""
    try:
        bundle = load_problem_file(path)
    except (ScensplitError, OSError) as e:
        return _fail(e)
    tree = bundle.tree
    print(f"scenarios: {tree.num_scenarios}")
    print(f"stages: {tree.num_stages}")
    print(f"total dimension: {tree.total_dim}")
    print("stage dims: " + " ".join(str(d) for d in tree.stage_dims))
    counts = [len(equivalence_classes(tree, k)) for k in range(1, tree.num_stages + 1)]
    print("class counts: " + " ".join(str(c) for c in counts))
    if bundle.cvar is not None:
        print(f"cvar: alpha={bundle.cvar.alpha!r}")
        pairs = len(bundle.cvar.constraints)
    else:
        pairs = len(bundle.problem.constraints)
    print(f"range condition: ok ({pairs}/{pairs} pairs)")
    print("valid")
    return 0


def cmd_solve(
    path: str,
    *,
    method: str = "block",
    schedule: str = "full",
    block_size: int = 1,
    seed: int = 0,
    cover_window: Optional[int] = None,
    epsilon: float = 1e-3,
    gamma: float = 1.0,
    mu: float = 1.0,
    lambda_: float = 1.0,
    tol: float = 1e-8,
    max_iter: int = 100000,
    trace_out: Optional[str] = None,
    trace_every: int = 1,
    trace_timing: bool = False,
    solution_out: Optional[str] = None,
) -> int:
    """Solve an equilibrium problem file; exit 0/1/2 on converged/error/budget.

    A residual that turns NaN or infinite counts as an error.
    """
    try:
        bundle = load_problem_file(path)
        if bundle.problem is None:
            raise ValidationError("file declares a risk objective; use solve-cvar")
        problem = bundle.problem
        if method == "ph":
            sol = progressive_hedging_solve(
                problem,
                gamma=gamma,
                tol=tol,
                max_iter=max_iter,
                trace_every=trace_every,
                record_timing=trace_timing,
            )
        else:
            sched = _make_schedule(schedule, block_size, seed, cover_window, bundle.tree.num_scenarios)
            config = SolverConfig(
                epsilon=epsilon,
                gamma=gamma,
                mu=mu,
                lambda_rule=lambda_,
                schedule=sched,
                tol=tol,
                max_iter=max_iter,
                trace_every=trace_every,
                record_timing=trace_timing,
            )
            if method == "block":
                sol = solve(problem, config)
            elif method == "reduced":
                sol = solve_reduced(problem, config)
            else:
                raise ValidationError(f"unknown method {method!r}")
        if trace_out:
            write_trace_csv(trace_out, sol.trace)
        if solution_out:
            write_solution_file(solution_out, bundle.tree, sol)
    except (ScensplitError, OSError) as e:
        return _fail(e)
    print(f"status: {sol.status.value}")
    print(f"iterations: {sol.iterations}")
    print(f"residual: {sol.residual!r}")
    return EXIT_CODES[sol.status]


def cmd_solve_cvar(
    path: str,
    *,
    alpha: Optional[float] = None,
    schedule: str = "full",
    block_size: int = 1,
    seed: int = 0,
    cover_window: Optional[int] = None,
    epsilon: float = 1e-3,
    gamma: float = 1.0,
    mu: float = 1.0,
    lambda_: float = 1.0,
    tol: float = 1e-8,
    max_iter: int = 100000,
    trace_out: Optional[str] = None,
    trace_every: int = 1,
    trace_timing: bool = False,
    solution_out: Optional[str] = None,
) -> int:
    """Solve a risk problem file; exit codes as for :func:`cmd_solve`."""
    try:
        bundle = load_problem_file(path)
        if bundle.cvar is None:
            raise ValidationError("file has no 'cvar' section; use solve")
        cp = bundle.cvar
        if alpha is not None:
            cp = CvarProblem(
                tree=cp.tree, alpha=alpha, costs=cp.costs, constraints=cp.constraints
            )
        sched = _make_schedule(schedule, block_size, seed, cover_window, bundle.tree.num_scenarios)
        config = SolverConfig(
            epsilon=epsilon,
            gamma=gamma,
            mu=mu,
            lambda_rule=lambda_,
            schedule=sched,
            tol=tol,
            max_iter=max_iter,
            trace_every=trace_every,
            record_timing=trace_timing,
        )
        csol = solve_cvar(cp, config)
        if trace_out:
            write_trace_csv(trace_out, csol.inner.trace)
        if solution_out:
            write_cvar_solution_file(solution_out, cp, csol)
    except (ScensplitError, OSError) as e:
        return _fail(e)
    print(f"status: {csol.inner.status.value}")
    print(f"iterations: {csol.inner.iterations}")
    print(f"residual: {csol.inner.residual!r}")
    print(f"threshold: {csol.y_bar!r}")
    print(f"objective: {csol.objective!r}")
    return EXIT_CODES[csol.inner.status]


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_solver_flags(p: argparse.ArgumentParser, with_method: bool):
    p.add_argument("--schedule", choices=["full", "round-robin", "seeded-random"], default="full")
    p.add_argument("--block-size", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cover-window", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--lambda", dest="lambda_", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=100000)
    p.add_argument("--trace-out", default=None)
    p.add_argument("--trace-every", type=int, default=1)
    p.add_argument("--trace-timing", action="store_true")
    p.add_argument("--solution-out", default=None)
    if with_method:
        p.add_argument("--method", choices=["block", "ph", "reduced"], default="block")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scensplit",
        description="Scenario-decomposition solvers for stochastic equilibrium problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="parse and validate a problem file")
    p_val.add_argument("file")

    p_solve = sub.add_parser("solve", help="solve an equilibrium problem file")
    p_solve.add_argument("file")
    _add_solver_flags(p_solve, with_method=True)

    p_cvar = sub.add_parser("solve-cvar", help="solve a risk problem file")
    p_cvar.add_argument("file")
    p_cvar.add_argument("--alpha", type=float, default=None)
    _add_solver_flags(p_cvar, with_method=False)

    args = parser.parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args.file)
    if args.command == "solve":
        return cmd_solve(
            args.file,
            method=args.method,
            schedule=args.schedule,
            block_size=args.block_size,
            seed=args.seed,
            cover_window=args.cover_window,
            epsilon=args.epsilon,
            gamma=args.gamma,
            mu=args.mu,
            lambda_=args.lambda_,
            tol=args.tol,
            max_iter=args.max_iter,
            trace_out=args.trace_out,
            trace_every=args.trace_every,
            trace_timing=args.trace_timing,
            solution_out=args.solution_out,
        )
    return cmd_solve_cvar(
        args.file,
        alpha=args.alpha,
        schedule=args.schedule,
        block_size=args.block_size,
        seed=args.seed,
        cover_window=args.cover_window,
        epsilon=args.epsilon,
        gamma=args.gamma,
        mu=args.mu,
        lambda_=args.lambda_,
        tol=args.tol,
        max_iter=args.max_iter,
        trace_out=args.trace_out,
        trace_every=args.trace_every,
        trace_timing=args.trace_timing,
        solution_out=args.solution_out,
    )
