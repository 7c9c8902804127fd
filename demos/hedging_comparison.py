"""Cross-check the three solver entry points on one instance.

The block-activated method, the hedging baseline, and the reduced variant
for unconstrained problems must agree wherever they all apply.
"""
import numpy as np

from scensplit import (
    Box,
    GradSeparableQuadratic,
    Problem,
    build_tree,
    progressive_hedging_solve,
    solve,
    solve_reduced,
    SolverConfig,
)

rng = np.random.default_rng(23)
n = 4
tree = build_tree([((i, 0), 1.0 / n) for i in range(n)], stage_dims=[1, 1])
operators = tuple(
    GradSeparableQuadratic(q=rng.uniform(0.5, 2.0, 2), c=rng.uniform(-0.3, 1.3, 2))
    for _ in range(n)
)

boxed = Problem(tree, operators, tuple(Box(lo=[0.0, 0.0], hi=[1.0, 1.0]) for _ in range(n)))

block = solve(boxed, SolverConfig(tol=1e-9))
hedge = progressive_hedging_solve(boxed, gamma=1.0, tol=1e-9)
print("boxed instance")
print(f"  block-activated: {block.iterations} iterations")
print(f"  hedging baseline: {hedge.iterations} iterations")
print(f"  max policy gap: {np.max(np.abs(block.x_bar - hedge.x_bar)):.2e}")

# dropping the boxes opens up the reduced variant, which carries no
# multiplier for the (now trivial) constraints
free = Problem(tree, operators)
full = solve(free, SolverConfig(tol=1e-9))
reduced = solve_reduced(free, SolverConfig(tol=1e-9))
print("\nunconstrained instance")
print(f"  full iteration:    {full.iterations} iterations")
print(f"  reduced iteration: {reduced.iterations} iterations")
print(f"  max policy gap: {np.max(np.abs(full.x_bar - reduced.x_bar)):.2e}")
print("  shared first stage:", full.x_bar[0, 0])
