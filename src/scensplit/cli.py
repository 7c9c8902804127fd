"""Command-line front end and the on-disk problem/solution formats.

Problem files are JSON with keys ``stages``, ``scenarios``, then either
``operators`` (equilibrium form) or ``cvar`` (risk form), plus optional
``constraints`` and, in the equilibrium form only, ``subspaces``.  Unknown keys are rejected everywhere.
Solutions are written as JSON, iteration traces as CSV with a fixed header;
runs are deterministic for fixed inputs, flags and seed.
"""
from __future__ import annotations

import argparse
import bisect
import dataclasses
import itertools
import json
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import operators as ops
from .cvar import CvarProblem, CvarSolution, solve_cvar
from .errors import DimensionMismatch, ParseError, ScensplitError, ShapeMismatch, ValidationError
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
from .tree import _LABEL_TYPES, ScenarioTree, build_tree, check_stage_dims, equivalence_classes

TRACE_HEADER = [
    "n", "residual", "kappa", "tau", "theta", "active_block_size", "wall_time_ms", "tested"
]


@dataclass(frozen=True)
class ProblemBundle:
    """Parsed problem file: the tree and either ``problem`` or ``cvar``, never both."""

    tree: ScenarioTree
    problem: Optional[Problem]
    cvar: Optional[CvarProblem]


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


_SCENARIO_KEYS = frozenset(("labels", "probability"))


def _numbers(values: list, where, fill=None) -> np.ndarray:
    """The JSON numbers in ``values`` as one float array, read by :func:`ops.number_list`.

    A refused entry raises ValidationError named by ``where(j)``; ``null`` entries become ``fill``.
    """
    return ops.number_list(
        values, lambda j, got: ValidationError(f"{where(j)}: expected a number, {got}"), fill
    )


def _stacked(rows: list, where, width: int, mismatch, fill=None) -> np.ndarray:
    """``rows``, one JSON list of numbers each, as one (len(rows), width) float array.

    ``where(r)`` names row r.  A row that is not a list or holds a bad
    entry raises ValidationError, a row of another length ``mismatch``.
    """
    if set(map(type, rows)) != {list}:
        r = next(r for r, row in enumerate(rows) if type(row) is not list)
        raise ValidationError(f"{where(r)}: expected a list of numbers")
    lengths = list(map(len, rows))

    def entry(j: int) -> str:
        return where(bisect.bisect_right(list(itertools.accumulate(lengths)), j))

    values = _numbers(list(itertools.chain.from_iterable(rows)), entry, fill)
    if lengths.count(width) != len(rows):
        r = next(r for r, length in enumerate(lengths) if length != width)
        raise mismatch(f"{where(r)}: got {lengths[r]} entries, the tree needs {width}")
    return values.reshape(len(rows), width)


def _coordinates(value, context: str) -> ops.Coordinates:
    if not isinstance(value, list):
        raise ValidationError(f"{context}: indices must be a list of integers")
    try:
        return ops.Coordinates(indices=value)
    except ValidationError as e:
        raise ValidationError(f"{context}: {e}") from None


# record kind -> type string -> spec class.  A record holds "type" and the
# fields of its class; an absent field that has a default takes it.
CATALOG = {
    "operator": {
        "diagonal_affine": ops.DiagonalAffine,
        "grad_separable_quadratic": ops.GradSeparableQuadratic,
    },
    "constraint": {
        "whole_space": ops.WholeSpace,
        "box": ops.Box,
        "ball": ops.Ball,
        "halfspace": ops.Halfspace,
        "hyperplane": ops.Hyperplane,
    },
    "subspace": {"full": ops.Full, "zero": ops.Zero, "coordinates": ops.Coordinates},
    "cost": {"affine": ops.Affine, "separable_quadratic": ops.SeparableQuadratic},
}
# a null entry of these fields is an unbounded box side
_NULL_SIDES = {"lo": -np.inf, "hi": np.inf}


def _record_keys(cls) -> tuple:
    """(required, allowed) keys of a ``cls`` record."""
    fields = dataclasses.fields(cls)
    allowed = frozenset(["type", *(f.name for f in fields)])
    return allowed - {f.name for f in fields if f.default is not dataclasses.MISSING}, allowed


_RECORD_KEYS = {cls: _record_keys(cls) for kinds in CATALOG.values() for cls in kinds.values()}


def _parse_group(cls, recs: list, label, width: int, mismatch) -> dict:
    """The settled fields of the ``cls`` records ``recs``; ``label(r)`` names record r."""
    if cls is ops.Coordinates:
        indices = [_coordinates(rec["indices"], f"{label(r)}.indices").indices for r, rec in enumerate(recs)]
        return {"indices": indices}
    if cls not in ops.RULES:
        return {}
    vectors, scalars, _ = ops.RULES[cls]
    fields = {
        name: _stacked(
            [rec[name] for rec in recs],
            lambda r: f"{label(r)}.{name}",
            width,
            mismatch,
            _NULL_SIDES.get(name),
        )
        for name in vectors
    }
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    for name in scalars:
        values = [rec.get(name, defaults[name]) for rec in recs]
        fields[name] = _numbers(values, lambda r: f"{label(r)}.{name}").reshape(-1, 1)
    return ops.settle_rows(cls, fields, label)


def _parse_section(what: str, seq, section: str, n: int, width: int, mismatch) -> list:
    """The ``(cls, members, fields)`` groups of one per-scenario section, one per type.

    Each record's keys are checked on their own; each group's fields are
    checked and stacked field by field, and its catalog rules run once.
    The groups come in order of their first member, members ascending.
    """
    if not isinstance(seq, list) or len(seq) != n:
        raise ValidationError(f"{section}: expected a list with {n} entries")
    catalog = CATALOG[what]
    groups: dict = {}
    for i, rec in enumerate(seq):
        if type(rec) is not dict or "type" not in rec:
            raise ValidationError(f"{section}[{i}]: expected an object with a 'type' key")
        kind = rec["type"]
        # a list or object type is unhashable, so test for a string first
        if type(kind) is not str or kind not in catalog:
            raise ValidationError(f"{section}[{i}]: unknown {what} type {kind!r}")
        required, allowed = _RECORD_KEYS[catalog[kind]]
        if not required <= rec.keys() <= allowed:
            _record(rec, f"{section}[{i}]", required, allowed)
        groups.setdefault(kind, []).append(i)
    out = []
    for kind, members in groups.items():

        def label(r, members=members):
            return f"{section}[{members[r]}]"

        fields = _parse_group(catalog[kind], [seq[i] for i in members], label, width, mismatch)
        out.append((catalog[kind], np.array(members), fields))
    return out


def load_problem_file(path: str) -> ProblemBundle:
    """Parse and fully validate a problem file.

    Each section is parsed in bulk and checked against the scenario count
    and the record width sum(stages) before the tree is built.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        # ValueError: bad JSON or UTF-8, or an integer over the digit limit
        except (ValueError, RecursionError) as e:
            raise ParseError(f"{path}: invalid JSON: {e}") from e
    _record(doc, "problem file", ["stages", "scenarios"], ["operators", "constraints", "subspaces", "cvar"])

    stages = check_stage_dims(doc["stages"])
    width = sum(stages)
    raw = doc["scenarios"]
    if not isinstance(raw, list):
        raise ValidationError("scenarios: expected a list")
    for i, rec in enumerate(raw):
        if type(rec) is not dict or rec.keys() != _SCENARIO_KEYS:
            _record(rec, f"scenarios[{i}]", _SCENARIO_KEYS)
        labels = rec["labels"]
        if type(labels) is not list or not _LABEL_TYPES.issuperset(map(type, labels)):
            raise ValidationError(f"scenarios[{i}].labels: expected a list of strings, numbers, bools and nulls")
    probabilities = _numbers(
        [rec["probability"] for rec in raw], lambda i: f"scenarios[{i}].probability"
    )
    n = len(raw)

    has_ops = "operators" in doc
    has_cvar = "cvar" in doc
    if has_ops and has_cvar:
        raise ValidationError("provide either 'operators' or 'cvar', not both")
    if not has_ops and not has_cvar:
        raise ValidationError("provide one of 'operators' or 'cvar'")
    if has_cvar and "subspaces" in doc:
        # the risk form lifts every scenario with the full subspace
        raise ValidationError("subspaces: a 'cvar' file takes no subspaces")
    # the classes Problem and CvarProblem raise for a width other than the tree's
    mismatch = DimensionMismatch if has_ops else ShapeMismatch

    def per_scenario(key, what, default):
        if key not in doc:
            return [(default, np.arange(n), {})]
        return _parse_section(what, doc[key], key, n, width, mismatch)

    constraints = per_scenario("constraints", "constraint", ops.WholeSpace)
    subspaces = per_scenario("subspaces", "subspace", ops.Full)
    if has_ops:
        operators = _parse_section("operator", doc["operators"], "operators", n, width, mismatch)
    else:
        rec = _record(doc["cvar"], "cvar", ["alpha", "costs"])
        alpha = _numbers([rec["alpha"]], lambda j: "cvar.alpha").tolist()[0]
        costs = _parse_section("cost", rec["costs"], "cvar.costs", n, width, mismatch)
    tree = build_tree(zip((rec["labels"] for rec in raw), probabilities.tolist()), stages)
    if has_ops:
        stacks = map(ops.Stack.from_groups, (operators, constraints, subspaces))
        return ProblemBundle(tree, Problem.from_stacks(tree, *stacks), None)
    cp = CvarProblem(tree=tree, alpha=alpha, costs=ops.specs_of(costs), constraints=ops.specs_of(constraints))
    return ProblemBundle(tree=tree, problem=None, cvar=cp)


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------

def _trace_row(r) -> str:
    """One trace record as a CSV line, fields in ``TRACE_HEADER`` order."""
    return (
        f"{r.n},{float(r.residual)!r},{float(r.kappa)!r},{float(r.tau)!r},"
        f"{float(r.theta)!r},{r.active_block_size},{float(r.wall_ms)!r},{int(r.tested)}\r\n"
    )


def write_trace_csv(path: str, trace):
    """Write ``TRACE_HEADER`` and one row per record, in one write.

    Every field is an int or a float ``repr``, so none needs quoting, and
    lines end in CRLF: the bytes the default ``csv`` dialect writes.
    """
    text = ",".join(TRACE_HEADER) + "\r\n" + "".join(map(_trace_row, trace))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _json_block(items: list, indent: int, brackets: str = "[]") -> str:
    """Rendered ``items`` laid out as ``json.dumps(..., indent=2)`` lays out a list.

    The block sits ``indent`` levels deep; ``brackets="{}"`` lays out an
    object whose items are rendered ``"key": value`` fields.
    """
    if not items:
        return brackets
    inner = "\n" + "  " * (indent + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * indent + brackets[1]


def _float_renderer(values):
    """json's rendering of the floats in ``values``: ``repr`` when all are finite.

    Otherwise ``json.dumps``, which also writes the NaN, Infinity and
    -Infinity tokens.
    """
    return float.__repr__ if np.isfinite(values).all() else json.dumps


def _entry_texts(arrays: list) -> list:
    """json's text of every entry of each float array in ``arrays``, shaped as the array.

    Each distinct bit pattern among all the entries is rendered once, so
    ``-0.0`` and ``0.0``, and NaNs of other payloads, are looked up apart.
    """
    values = np.concatenate([a.ravel() for a in arrays], dtype=float)
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = keys.view(float)
    # json.dumps writes a finite float as its repr
    texts = np.array(list(map(_float_renderer(distinct), distinct.tolist())), dtype=object)[inverse]
    ends = itertools.accumulate(a.size for a in arrays)
    return [texts[end - a.size : end].reshape(a.shape) for a, end in zip(arrays, ends)]


def _label(v) -> str:
    """One label as json writes it inside a scenario's ``labels`` list."""
    if type(v) is int:
        return int.__repr__(v)
    # json.dumps keeps a str, float or bool on one line; the lines of a
    # nested (tuple) label, which a tree built in Python may hold, move to
    # the depth of the labels list
    return json.dumps(v, indent=2).replace("\n", "\n        ")


# scenario entries rendered, formatted and written per write call
_CHUNK = 128


def _write_solution(path: str, tree: ScenarioTree, sol: Solution, header: dict, arrays: dict):
    """Write the run's status, ``header``, then one entry per scenario.

    ``arrays`` maps a key to an (N, d) array; each scenario entry holds its
    labels, its probability and its row of every array.  The text is that
    of ``json.dump(doc, fh, indent=2)`` plus a newline.  It is made and
    written ``_CHUNK`` scenarios at a time, so the whole text is never held
    in memory: within a chunk each distinct value is rendered once, and
    each entry is filled into one template.
    """
    head = {
        "status": sol.status.value,
        "iterations": sol.iterations,
        "residual": float(sol.residual),
        **header,
    }
    fields = ['"labels": ' + _json_block(["%s"], 3), '"probability": %s']
    for key, arr in arrays.items():
        name = json.dumps(key).replace("%", "%%")
        fields.append(f"{name}: " + _json_block(["%s"] if arr.shape[1] else [], 3))
    entry = ("\n    " + _json_block(fields, 2, "{}")).__mod__
    floats = [tree.probabilities[:, None], *(arr for arr in arrays.values() if arr.shape[1])]
    # a list's items, as _json_block separates them at depth 3
    sep = ",\n        "
    # the head's values are scalars, so each field is one line at depth 1
    top = json.dumps(head, separators=(",\n  ", ": "))[1:-1]
    with open(path, "w", encoding="utf-8") as fh:
        # a tree has at least one scenario, so the list is never empty
        fh.write("{\n  " + top + ',\n  "scenarios": [')
        for lo in range(0, tree.num_scenarios, _CHUNK):
            part = slice(lo, lo + _CHUNK)
            columns = _entry_texts([a[part] for a in floats])
            labels = (sep.join(map(_label, path)) for path in tree.labels[part])
            rows = [labels, *(map(sep.join, col.tolist()) for col in columns)]
            fh.write(("," if lo else "") + ",".join(map(entry, zip(*rows))))
        fh.write("\n  ]\n}\n")


def write_solution_file(path: str, tree: ScenarioTree, sol: Solution):
    _write_solution(path, tree, sol, {}, {"x": sol.x_bar, "v_star": sol.v_star_bar})


def write_cvar_solution_file(path: str, cp: CvarProblem, csol: CvarSolution):
    header = {
        "alpha": float(cp.alpha),
        "threshold": float(csol.y_bar),
        "objective": float(csol.objective),
    }
    _write_solution(path, cp.tree, csol.inner, header, {"x": csol.x_bar})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _fail(e: Exception) -> int:
    print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
    return 1


# a non-finite residual means the run broke down, which is an error
EXIT_CODES = {SolveStatus.CONVERGED: 0, SolveStatus.NON_FINITE: 1, SolveStatus.MAX_ITER: 2}


def _config(args: argparse.Namespace) -> SolverConfig:
    """The solver settings that the parsed solver flags describe."""
    # built whatever the schedule, so a bad --block-size, --cover-window or --seed fails under each
    seeded = SeededRandom(block_size=args.block_size, cover_window=args.cover_window, seed=args.seed)
    if args.schedule == "round-robin":
        schedule = RoundRobin(block_size=args.block_size)
    elif args.schedule == "seeded-random":
        schedule = seeded
    else:
        schedule = FullActivation()
    return SolverConfig(
        gamma=args.gamma,
        mu=args.mu,
        schedule=schedule,
        tol=args.tol,
        max_iter=args.max_iter,
        trace_every=args.trace_every,
        record_timing=args.trace_timing,
    )


def _report(sol: Solution):
    print(f"status: {sol.status.value}")
    print(f"iterations: {sol.iterations}")
    print(f"residual: {sol.residual!r}")


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
    pairs = tree.num_scenarios
    print(f"range condition: ok ({pairs}/{pairs} pairs)")
    print("valid")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    """Solve an equilibrium problem file; exit 0/1/2 on converged/error/budget.

    A residual that turns NaN or infinite counts as an error.
    """
    try:
        bundle = load_problem_file(args.file)
        if bundle.problem is None:
            raise ValidationError("file declares a risk objective; use solve-cvar")
        config = _config(args)
        if args.method == "ph":
            sol = progressive_hedging_solve(
                bundle.problem, config.gamma, config.tol, config.max_iter, config.trace_every,
                config.record_timing,
            )
        else:
            sol = (solve if args.method == "block" else solve_reduced)(bundle.problem, config)
        if args.trace_out:
            write_trace_csv(args.trace_out, sol.trace)
        if args.solution_out:
            write_solution_file(args.solution_out, bundle.tree, sol)
    except (ScensplitError, OSError) as e:
        return _fail(e)
    _report(sol)
    return EXIT_CODES[sol.status]


def cmd_solve_cvar(args: argparse.Namespace) -> int:
    """Solve a risk problem file; exit codes as for :func:`cmd_solve`."""
    try:
        bundle = load_problem_file(args.file)
        if bundle.cvar is None:
            raise ValidationError("file has no 'cvar' section; use solve")
        cp = bundle.cvar
        if args.alpha is not None:
            cp = dataclasses.replace(cp, alpha=args.alpha)
        csol = solve_cvar(cp, _config(args))
        if args.trace_out:
            write_trace_csv(args.trace_out, csol.inner.trace)
        if args.solution_out:
            write_cvar_solution_file(args.solution_out, cp, csol)
    except (ScensplitError, OSError) as e:
        return _fail(e)
    _report(csol.inner)
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
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=1.0)
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
        return cmd_solve(args)
    return cmd_solve_cvar(args)
