"""Solve one recourse problem under every activation schedule.

Only the scenarios in the active block do work in a given iteration; the
coordination step keeps the running policy implementable regardless.  All
schedules land on the same solution, traded off against iteration count.
"""
import numpy as np

from scensplit import (
    Box,
    FullActivation,
    GradSeparableQuadratic,
    Problem,
    RoundRobin,
    SeededRandom,
    build_tree,
    solve,
    SolverConfig,
)
from scensplit.oracle import oracle_solve_quadratic_box

rng = np.random.default_rng(11)
n = 6
scenarios = [((i, 0), 1.0 / n) for i in range(n)]
tree = build_tree(scenarios, stage_dims=[1, 1])

operators = tuple(
    GradSeparableQuadratic(q=rng.uniform(0.5, 2.0, 2), c=rng.uniform(-0.3, 1.3, 2))
    for _ in range(n)
)
constraints = tuple(Box(lo=[0.0, 0.0], hi=[1.0, 1.0]) for _ in range(n))
problem = Problem(tree, operators, constraints)

reference = oracle_solve_quadratic_box(problem)

schedules = [
    ("full activation", FullActivation()),
    ("round robin, blocks of 1", RoundRobin(block_size=1)),
    ("round robin, blocks of 2", RoundRobin(block_size=2)),
    ("seeded random, blocks of 2", SeededRandom(block_size=2, cover_window=3, seed=0)),
]

print(f"{'schedule':28s} {'iters':>6s} {'residual':>10s} {'vs reference':>13s}")
for name, schedule in schedules:
    sol = solve(problem, SolverConfig(tol=1e-9, schedule=schedule))
    gap = float(np.max(np.abs(sol.x_bar - reference)))
    print(f"{name:28s} {sol.iterations:6d} {sol.residual:10.2e} {gap:13.2e}")

sol = solve(problem, SolverConfig(tol=1e-9, trace_every=25))
print("\nfull-activation residual trace:")
for rec in sol.trace:
    print(f"  n = {rec.n:3d}: residual {rec.residual:.3e}, step {rec.theta:.3f}")

print("\nfirst-stage decision (shared by construction):", sol.x_bar[0, 0])
print("second-stage decisions:", np.array2string(sol.x_bar[:, 1], precision=6))
