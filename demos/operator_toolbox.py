"""Tour of the operator catalog: resolvents, projectors, and the two
nonsmooth proximal maps, each checked against a brute-force grid search.
"""
import numpy as np

from scensplit import (
    Affine,
    Ball,
    Box,
    GradSeparableQuadratic,
    SeparableQuadratic,
    project_constraint,
    prox_cvar_augmented,
    prox_max_nonneg,
    resolvent,
)
from scensplit.oracle import GridSpec, oracle_prox_cvar_grid, oracle_prox_grid

# resolvent of a gradient operator is a damped step toward its minimizer
op = GradSeparableQuadratic(q=[1.0, 4.0], c=[1.0, -0.5])
z = np.array([3.0, 3.0])
print("resolvent J_{gamma A} z at gamma = 1:", resolvent(op, 1.0, z))

# projectors: a point outside the set lands on the boundary, an inside
# point is untouched
box = Box(lo=[0.0, 0.0], hi=[1.0, 1.0])
ball = Ball(center=[0.0, 0.0], radius=1.0)
print("box projection of (2, 0.5):", project_constraint(box, np.array([2.0, 0.5])))
print("ball projection of (3, 4):  ", project_constraint(ball, np.array([3.0, 4.0])))

# prox of gamma * max{f, 0}: three regimes depending on where the kink sits
f = SeparableQuadratic(q=[2.0], c=[0.0], r=-1.0)
grid = GridSpec(lower=[-3.0], upper=[3.0], points=2001, rounds=3)
print("\nprox of max{x^2 - 1, 0} at gamma = 0.5:")
for x in (0.3, 2.5, 1.05):
    p = float(prox_max_nonneg(f, 0.5, np.array([x]))[0])
    g = oracle_prox_grid(f, 0.5, x, grid)
    print(f"  x = {x:5.2f}: closed form {p:.8f}, grid {g:.8f}")

# the risk-augmented prox moves a (threshold, decision) pair jointly
f = Affine(c=[1.0], r=0.0)
square = GridSpec(lower=[-6.0, -6.0], upper=[6.0, 6.0], points=401, rounds=4)
print("\naugmented prox of y + 2 max{x - y, 0} at gamma = 1:")
for y, x in ((5.0, 1.0), (-3.0, 1.0), (0.0, 1.0)):
    thr, dec = prox_cvar_augmented(f, 0.5, 1.0, y, np.array([x]))
    gt, gd = oracle_prox_cvar_grid(f, 0.5, 1.0, y, x, square)
    print(
        f"  (y, x) = ({y:4.1f}, {x:3.1f}): "
        f"root ({thr:+.6f}, {float(dec[0]):+.6f}), grid ({gt:+.6f}, {gd:+.6f})"
    )
