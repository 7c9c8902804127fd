"""Tests of the benchmark itself: generators, gate and tracer.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""
import ast
import dataclasses
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench  # noqa: E402
import gate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import scensplit  # noqa: E402
from scensplit import cli, cvar, solver  # noqa: E402
from scensplit.oracle import oracle_solve_quadratic_box  # noqa: E402
from spans import LAYERS, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, problem_document, write_problem_file  # noqa: E402


def _load(tmp_path, name, seed, scenarios):
    path = tmp_path / f"{name}-{seed}.json"
    write_problem_file(str(path), name, seed, scenarios)
    return cli.load_problem_file(str(path))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_and_exact(tmp_path, name):
    a, b, c = (tmp_path / f"{k}.json" for k in "abc")
    write_problem_file(str(a), name, 7, 32)
    write_problem_file(str(b), name, 7, 32)
    write_problem_file(str(c), name, 8, 32)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    assert json.loads(a.read_text()) == problem_document(name, 7, 32)
    bundle = cli.load_problem_file(str(a))
    assert bundle.tree.num_scenarios == 32
    assert [len(p) for p in bundle.tree.classes] == [1, 16, 32]


def test_seed_maps_the_instance_by_a_symmetry(tmp_path):
    config = solver.SolverConfig(tol=1e-6)
    sols = [solver.solve(_load(tmp_path, "qbox-full", s, 64).problem, config) for s in (1, 2)]
    assert sols[0].iterations == sols[1].iterations
    # the sorted absolute values of a policy survive permutations and sign flips
    a, b = (np.sort(np.abs(s.x_bar), axis=None) for s in sols)
    assert np.max(np.abs(a - b)) < 1e-8


def test_gate_rejects_perturbed_qbox(tmp_path):
    problem = _load(tmp_path, "qbox-full", 3, 64).problem
    sol = solver.solve(problem, solver.SolverConfig(tol=1e-6))
    ph = solver.progressive_hedging_solve(problem, tol=1e-6)
    ref = oracle_solve_quadratic_box(problem)
    assert gate.check_qbox(sol, ref, ph.x_bar) == []
    x = sol.x_bar.copy()
    x[5, 4] += 1e-3
    assert gate.check_qbox(dataclasses.replace(sol, x_bar=x), ref, ph.x_bar)


def test_gate_rejects_perturbed_mixed(tmp_path):
    problem = _load(tmp_path, "mixed-block", 3, 64).problem
    final = {}
    config = solver.SolverConfig(schedule=solver.SeededRandom(block_size=8, cover_window=64, seed=3), tol=1e-4)
    sol = solver.solve(problem, config, callback=lambda st: final.update(x_star=st.x_star))
    assert gate.check_mixed(problem, sol, final["x_star"], 1e-4) == []
    x = sol.x_bar.copy()
    x[0, 0] += 1e-3  # breaks the first-stage class and the residual
    failures = gate.check_mixed(problem, dataclasses.replace(sol, x_bar=x), final["x_star"], 1e-4)
    assert any("information class" in f for f in failures)
    assert any("residual" in f for f in failures)


def test_gate_rejects_perturbed_cvar(tmp_path):
    cp = _load(tmp_path, "cvar", 3, 16).cvar
    csol = cvar.solve_cvar(cp, solver.SolverConfig(tol=1e-4))
    assert gate.check_cvar(cp, csol, 1e-4) == []
    x = csol.x_bar.copy()
    x[:, 4:] += 0.05  # stays in the boxes and nonanticipative, moves the costs
    x = np.clip(x, -1.0, 1.0)
    moved = gate.check_cvar(cp, dataclasses.replace(csol, x_bar=x), 1e-4)
    assert any("objective" in f for f in moved)
    x = csol.x_bar.copy()
    x[:, 0] = 1.5
    assert any("box" in f for f in gate.check_cvar(cp, dataclasses.replace(csol, x_bar=x), 1e-4))


def test_tail_risk_matches_library():
    rng = np.random.default_rng(0)
    tree = scensplit.build_tree([((i,), p) for i, p in enumerate(np.full(10, 0.1))], [1])
    losses = rng.normal(size=10)
    assert gate.tail_risk(tree.probabilities, 0.75, losses) == pytest.approx(
        scensplit.cvar_value(tree, 0.75, losses), rel=1e-12
    )


def _package_bindings():
    out = {}
    for key, mod in list(sys.modules.items()):
        if key == "scensplit" or key.startswith("scensplit."):
            for attr, value in vars(mod).items():
                out[(key, attr)] = value
                if isinstance(value, type) and "select" in vars(value):
                    out[(key, attr, "select")] = vars(value)["select"]
    return out


def test_tracer_restores_every_original(tmp_path):
    bundle = _load(tmp_path, "mixed-block", 1, 32)
    before = _package_bindings()
    config = solver.SolverConfig(schedule=solver.SeededRandom(block_size=8, cover_window=32, seed=1), tol=1e-3)
    with Tracer() as tracer:
        assert solver.resolvent is not before[("scensplit.solver", "resolvent")]
        solver.solve(bundle.problem, config)
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    table = summarize(tracer.spans())
    assert tracer.absent == []
    assert table["solver.solve"]["calls"] == 1
    assert table["solver.select"]["calls"] > 0
    assert table["operators.prox_cvar_augmented"]["calls"] == 0
    assert table["resolvent_in_residual"] > 0 and table["resolvent_in_refresh"] > 0


def test_tracer_reports_absent_functions():
    layers = LAYERS + ("solver.no_such_function", "nomodule.thing")
    with Tracer(layers) as tracer:
        pass
    assert tracer.absent == ["solver.no_such_function", "nomodule.thing"]


def test_summarize_self_and_recursive_total():
    # span 0: a [0, 10]; span 1: b [1, 4] under 0; span 2: b [2, 3] under 1
    spans = {
        "layers": np.array(["m.a", "m.b", "solver.solve", "solver.kkt_residual",
                            "solver.scenario_update", "operators.resolvent"]),
        "name": np.array([0, 1, 1], dtype=np.int32),
        "parent": np.array([-1, 0, 1], dtype=np.int32),
        "start": np.array([0.0, 1.0, 2.0]),
        "end": np.array([10.0, 4.0, 3.0]),
    }
    table = summarize(spans)
    assert table["m.a"] == {"calls": 1, "total_s": 10.0, "self_s": 7.0}
    assert table["m.b"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}


def test_runner_refuses_a_tree_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "cvar", "--seed", "1", "--seconds", "1"]) == 2


def test_reference_loop_is_fixed_and_independent_of_the_library():
    assert reference.reference_loop() == reference.reference_loop() == bench.REFERENCE_SUM
    tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert imported and not any(m.startswith("scensplit") for m in imported)


def test_sampler_times_the_reference_loop_and_restores_the_handler():
    sampler = bench.Sampler(0.01)
    with sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(sampler.times) >= 5
    assert sampler.spent == pytest.approx(sum(sampler.times))
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_untraced_run_reports_the_declared_metrics(tmp_path):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    case = bench.Case("cvar", 1, tmp_path)
    info = {}
    attempted, failed, metrics = bench.run_untraced(case, 0.0, info)
    assert (attempted, failed) == (1, 0)
    assert sorted(metrics) == sorted(m["name"] for m in declared["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())
