"""Workload loops, metrics and the result line; imported by ``run.py``."""
from __future__ import annotations

import json
import os
import platform
import resource
import signal
import statistics
import time
from pathlib import Path

import numpy as np

import scensplit
# entry points are looked up on their modules at call time, so the tracer's
# wrappers see the calls this file makes
from scensplit import cli, cvar, solver
from scensplit.errors import ScensplitError
from scensplit.oracle import oracle_solve_quadratic_box
from scensplit.solver import FullActivation, SeededRandom, SolverConfig, SolveStatus

import gate
from reference import reference_loop
from spans import LAYERS, Tracer, summarize
from workloads import BASE_SEED, WORKLOADS, write_problem_file

REFERENCE_SUM = reference_loop()

# share of each solve's time spent after it on loads, writes and the
# reference loop; these are short, so they are repeated and spread over
# the run, and half of the share goes to the reference loop
SIDE_SHARE = 0.2
# seconds of loads and reference loops before the first solve
WARMUP_S = 1.0
# interval of the reference-loop samples taken during a solve
SAMPLE_EVERY_S = 0.1
# percentile levels tried for the solve-time tail, highest first
TAIL_LEVELS = (99.0, 95.0, 90.0, 75.0)
clock = time.perf_counter


class Case:
    """One workload's problem file, solver settings and correctness gate."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.wl = WORKLOADS[name]
        self.seed = seed
        # one set of files per workload, overwritten by the next run
        stem = workdir / name
        self.problem_path = f"{stem}.json"
        self.solution_path = f"{stem}.solution.json"
        self.trace_path = f"{stem}.trace.csv"
        self.spans_path = f"{stem}.spans.npz"
        write_problem_file(self.problem_path, name, seed)
        self.reference = None  # oracle policy, qbox-full only
        self.ph_x = None  # progressive-hedging policy, qbox-full only
        self.ph_solve_s = None

    def load(self):
        return cli.load_problem_file(self.problem_path)

    def solve(self, bundle):
        """Run the workload's entry point; returns (result, final x_star)."""
        if self.wl.block_size:
            schedule = SeededRandom(
                block_size=self.wl.block_size,
                cover_window=bundle.tree.num_scenarios,
                seed=BASE_SEED,
            )
        else:
            schedule = FullActivation()
        config = SolverConfig(schedule=schedule, tol=self.wl.tol)
        if self.wl.entry == "solve_cvar":
            return cvar.solve_cvar(bundle.cvar, config), None
        final = {}

        def keep(state):
            final["x_star"] = state.x_star

        sol = solver.solve(bundle.problem, config, callback=keep)
        return sol, final.get("x_star", np.zeros_like(sol.x_bar))

    def hedge(self, bundle):
        """Progressive hedging on the same file, to the same tol."""
        return solver.progressive_hedging_solve(bundle.problem, tol=self.wl.tol)

    def prepare_references(self, bundle) -> list:
        """Oracle and progressive-hedging policies for qbox-full; returns failures."""
        if not self.wl.with_ph:
            return []
        self.reference = oracle_solve_quadratic_box(bundle.problem)
        t0 = clock()
        ph = self.hedge(bundle)
        self.ph_solve_s = clock() - t0
        self.ph_x = ph.x_bar
        if ph.status is not SolveStatus.CONVERGED:
            return [f"progressive hedging status {ph.status.value}"]
        return []

    def check(self, bundle, result, x_star) -> list:
        if self.wl.entry == "solve_cvar":
            return gate.check_cvar(bundle.cvar, result, self.wl.tol)
        if self.wl.with_ph:
            return gate.check_qbox(result, self.reference, self.ph_x)
        return gate.check_mixed(bundle.problem, result, x_star, self.wl.tol)

    def write(self, bundle, result):
        if self.wl.entry == "solve_cvar":
            cli.write_cvar_solution_file(self.solution_path, bundle.cvar, result)
            cli.write_trace_csv(self.trace_path, result.inner.trace)
        else:
            cli.write_solution_file(self.solution_path, bundle.tree, result)
            cli.write_trace_csv(self.trace_path, result.trace)

    def iterations(self, result) -> int:
        return result.inner.iterations if self.wl.entry == "solve_cvar" else result.iterations

    def check_written(self, result) -> list:
        """The solution file reads back to the returned policy, bit for bit."""
        with open(self.solution_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        x = np.array([s["x"] for s in doc["scenarios"]])
        trace = result.inner.trace if self.wl.entry == "solve_cvar" else result.trace
        if doc["iterations"] != self.iterations(result) or not np.array_equal(x, result.x_bar):
            return ["written solution differs from the returned one"]
        with open(self.trace_path, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != len(trace):
            return [f"trace file has {rows} rows for {len(trace)} records"]
        return []


def _room_for_another(durations, deadline: float) -> bool:
    """Whether one more step of the median duration still ends by the deadline."""
    step = _median(durations) if durations else 0.0
    return clock() + step <= deadline


def _median(values) -> float:
    return float(statistics.median(values))


def _tail(values) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "p50": _median(values)}
    for level in TAIL_LEVELS:
        if len(values) * (1.0 - level / 100.0) >= 10.0:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[int(level * 10) - 1]
            out[f"p{level:g}"] = float(cut)
            break
    return out


def machine_facts(root: Path) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = root / "src" / "scensplit"
    loc = sum(
        1
        for path in sorted(src.rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_nonblank_lines": loc,
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _time_reference() -> float:
    """Run the reference loop once; returns its duration."""
    t0 = clock()
    checksum = reference_loop()
    took = clock() - t0
    if checksum != REFERENCE_SUM:
        raise ArithmeticError("the reference loop gave another checksum")
    return took


class Sampler:
    """Times the reference loop every ``period`` seconds while installed.

    A SIGALRM interval timer interrupts the code under it, and the handler
    runs and times one reference loop, so the samples follow the host's
    speed through the whole of a long solve.  ``spent`` is the handler's
    total time, to be taken off the interrupted code's wall time.
    """

    def __init__(self, period: float):
        self.period = period
        self.times: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        self.times.append(_time_reference())
        self.spent += self.times[-1]

    def __enter__(self):
        self.times, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.times:  # a solve shorter than one period
            self._tick(None, None)
            self.spent = 0.0
        return False


def _side_phase(case: Case, result, budget: float) -> tuple:
    """Loads, writes and reference loops in turn for ``budget`` seconds.

    Each round loads the file, writes ``result`` (when there is one) and
    then runs the reference loop for as long as the load and the write
    took, so the three sets of samples cover the same moments.  Returns
    (load times, write times, each write time over the mean reference-loop
    time of its round, reference times, last bundle).
    """
    loads, writes, write_refs, refs = [], [], [], []
    end = clock() + budget
    while not refs or clock() < end:
        t0 = clock()
        bundle = case.load()
        t1 = clock()
        loads.append(t1 - t0)
        if result is not None:
            case.write(bundle, result)
            writes.append(clock() - t1)
        t2 = clock()
        round_refs = []
        while not round_refs or sum(round_refs) < t2 - t0:
            round_refs.append(_time_reference())
        refs += round_refs
        if result is not None:
            write_refs.append(writes[-1] / statistics.fmean(round_refs))
    return loads, writes, write_refs, refs, bundle


def run_untraced(case: Case, seconds: float, info: dict) -> tuple:
    """The closed loop; returns (attempted, failed, metrics).

    A warm-up phase of loads and reference loops comes first.  Then every
    step solves once under a ``Sampler`` and spends ``SIDE_SHARE`` of that
    solve's time on a side phase (see ``_side_phase``), so the set-up and
    write samples are spread over the run like the solve samples.  Each
    solve's own time is divided by the mean reference-loop time sampled
    during it, and each write's time by the mean reference-loop time of
    its round; the metrics are the medians of these ratios over the run.
    """
    loads, _, _, ref_s, bundle = _side_phase(case, None, WARMUP_S)
    failures = case.prepare_references(bundle)
    if case.wl.with_ph:
        info["ph_solve_s"] = case.ph_solve_s
    sampler = Sampler(SAMPLE_EVERY_S)
    solve_s, write_s, iterations, steps, solve_ref, write_ref = [], [], [], [], [], []
    attempted = failed = 0
    deadline = clock() + seconds
    while True:
        attempted += 1
        t0 = clock()
        try:
            with sampler:
                result, x_star = case.solve(bundle)
            solve_s.append(clock() - t0 - sampler.spent)
            solve_ref.append(solve_s[-1] / statistics.fmean(sampler.times))
            lds, wrs, wrs_ref, refs, bundle = _side_phase(case, result, SIDE_SHARE * solve_s[-1])
            loads += lds
            write_s += wrs
            write_ref += wrs_ref
            ref_s += refs + sampler.times
            iterations.append(case.iterations(result))
            bad = case.check(bundle, result, x_star) + case.check_written(result)
        except (ScensplitError, ArithmeticError, ValueError) as e:
            bad = [f"{type(e).__name__}: {e}"]
        if len(set(iterations)) > 1:
            bad.append(f"iterations differ between repeats: {sorted(set(iterations))}")
        if bad:
            failed += 1
            failures += bad
        steps.append(clock() - t0)
        if not _room_for_another(steps, deadline):
            break
    info["setup_repeats"] = len(loads)
    info["write_repeats"] = len(write_s)
    info["failures"] = failures[:10]
    if not (solve_ref and iterations):
        return attempted, failed, {}
    # the times in seconds follow the host's speed; they are informational
    info["solve_s"] = _tail(solve_s)
    info["write_s"] = _median(write_s)
    info["reference_s"] = {"n": len(ref_s), "p50": _median(ref_s)}
    its = iterations[0]
    solve_med = _median(solve_ref)
    metrics = {
        "setup_s": _metric(_median(loads), "s"),
        "solve_ref": _metric(solve_med, "ref"),
        "write_ref": _metric(_median(write_ref), "ref"),
        "iterations": _metric(its, "count"),
        "iter_ref": _metric(solve_med / its, "ref"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return attempted, failed, metrics


def _pass(case: Case):
    """Load, solve (and hedge, on qbox-full), write; returns (bundle, result, x_star)."""
    bundle = case.load()
    result, x_star = case.solve(bundle)
    if case.wl.with_ph:
        case.hedge(bundle)
    case.write(bundle, result)
    return bundle, result, x_star


def run_traced(case: Case, seconds: float, info: dict) -> tuple:
    """Alternate untraced and traced passes; returns (attempted, failed, metrics)."""
    failures = case.prepare_references(case.load())
    tracer = Tracer()
    tables, overheads, passes = [], [], []
    attempted = failed = 0
    deadline = clock() + seconds
    while True:
        attempted += 1
        start = clock()
        try:
            _pass(case)
            plain = clock() - start
            with tracer:
                t0 = clock()
                bundle, result, x_star = _pass(case)
                traced = clock() - t0
            bad = case.check(bundle, result, x_star)
        except (ScensplitError, ArithmeticError, ValueError) as e:
            bad = [f"{type(e).__name__}: {e}"]
        else:
            overheads.append(traced / plain)
            table = summarize(tracer.spans())
            table["iterations"] = case.iterations(result)
            table["scenarios"] = bundle.tree.num_scenarios
            if tables and any(table[k]["calls"] != tables[0][k]["calls"] for k in LAYERS):
                bad.append("per-layer call counts differ between traced passes")
            tables.append(table)
        if bad:
            failed += 1
            failures += bad
        passes.append(clock() - start)
        if not _room_for_another(passes, deadline):
            break
    np.savez(case.spans_path, **tracer.spans())
    info["traced_passes"] = len(tables)
    info["absent"] = tracer.absent
    info["failures"] = failures[:10]
    if not tables:
        return attempted, failed, {}
    first = tables[0]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = _metric(first[layer]["calls"], "count")
        for key in ("total_s", "self_s"):
            metrics[f"{layer}.{key}"] = _metric(_median([t[layer][key] for t in tables]), "s")
    refresh = first["resolvent_in_refresh"]
    metrics["solver.residual_to_refresh_evals"] = _metric(
        first["resolvent_in_residual"] / refresh if refresh else 0.0, "ratio"
    )
    visits = first["iterations"] * first["scenarios"]
    metrics["solver.refresh_frac"] = _metric(
        first["solver.scenario_update"]["calls"] / visits if visits else 0.0, "ratio"
    )
    metrics["trace.overhead"] = _metric(_median(overheads), "ratio")
    metrics["trace.absent"] = _metric(len(tracer.absent), "count")
    return attempted, failed, metrics


def run_workload(name: str, seed: int, seconds: float, traced: bool, root: Path) -> int:
    workdir = root / ".perfbench"
    workdir.mkdir(exist_ok=True)
    case = Case(name, seed, workdir)
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced)}
    info.update(machine_facts(root))
    info["scensplit"] = str(Path(scensplit.__file__).parent)
    runner = run_traced if traced else run_untraced
    attempted, failed, metrics = runner(case, seconds, info)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0
