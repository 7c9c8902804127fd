"""Risk-averse problems with a conditional value-at-risk objective.

The tail risk of a random loss is expressed through a scalar threshold:
``cvar = min_y  y + E[max{loss - y, 0}] / (1 - alpha)``.  Minimizing the
tail risk of per-scenario costs therefore fits the equilibrium solver after
one surgery: prepend a shared threshold coordinate to the first decision
stage, wrap each cost into the threshold-plus-excess operator and leave the
new coordinate unconstrained.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonConstantThreshold, ShapeMismatch
from .operators import (
    ConstraintSpec,
    CostSpec,
    CvarAugmented,
    Full,
    RealCross,
    _cost_rows,
    _pack_costs,
    check_alpha,
    check_specs,
)
from .solver import Problem, Solution, SolverConfig, solve
from .tree import ScenarioTree, build_tree

# thresholds recovered from a converged run may deviate across scenarios
# by roundoff only; anything beyond this is a hard failure
THRESHOLD_TOL = 1e-6


@dataclass(frozen=True)
class CvarProblem:
    """Minimize the tail risk of per-scenario costs over the tree."""

    tree: ScenarioTree
    alpha: float
    costs: tuple[CostSpec, ...]
    constraints: tuple[ConstraintSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        object.__setattr__(self, "costs", tuple(self.costs))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        n, d = self.tree.num_scenarios, self.tree.total_dim
        check_specs(self.costs, CostSpec, "cost", n, d, ShapeMismatch)
        check_specs(self.constraints, ConstraintSpec, "constraint", n, d, ShapeMismatch)


@dataclass(frozen=True)
class AugmentedProblem:
    """Equilibrium form of a CvarProblem.

    Column 0 of the augmented policies is the shared threshold; columns
    1.. map one-to-one onto the original coordinates.
    """

    base: Problem
    source: CvarProblem


@dataclass(frozen=True)
class CvarSolution:
    x_bar: np.ndarray
    y_bar: float
    objective: float
    inner: Solution


def cvar_value(tree: ScenarioTree, alpha: float, losses) -> float:
    """Exact tail risk of a per-scenario loss vector.

    The optimal threshold is the smallest loss at which the cumulative
    probability reaches ``alpha`` (ties resolved downward).  ``alpha`` is a
    number in (0, 1), as for :class:`CvarProblem`.
    """
    alpha = check_alpha(alpha)
    losses = np.asarray(losses, dtype=float)
    if losses.shape != (tree.num_scenarios,):
        raise ShapeMismatch(
            f"losses shape {losses.shape}, expected ({tree.num_scenarios},)"
        )
    order = np.argsort(losses, kind="stable")
    cum = np.cumsum(tree.probabilities[order])
    pos = int(np.searchsorted(cum, alpha, side="left"))
    pos = min(pos, losses.size - 1)
    threshold = float(losses[order[pos]])
    excess = np.maximum(losses - threshold, 0.0)
    return threshold + float(tree.probabilities @ excess) / (1.0 - alpha)


def augment(cp: CvarProblem) -> AugmentedProblem:
    """Lift a risk problem into the scenario-equilibrium form."""
    tree = cp.tree
    dims = (tree.stage_dims[0] + 1,) + tree.stage_dims[1:]
    lifted = build_tree(
        [(s.labels, s.probability) for s in tree.scenarios], dims
    )
    n = tree.num_scenarios
    base = Problem(
        tree=lifted,
        operators=tuple(CvarAugmented(f=f, alpha=cp.alpha) for f in cp.costs),
        constraints=tuple(RealCross(base=cs) for cs in cp.constraints),
        subspaces=(Full(),) * n,
    )
    return AugmentedProblem(base=base, source=cp)


def split_augmented(values) -> tuple[np.ndarray, np.ndarray]:
    """Split augmented policy values into (thresholds, original policy)."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] < 2:
        raise ShapeMismatch(f"augmented policy shape {values.shape} too small to split")
    return values[:, 0].copy(), values[:, 1:].copy()


def extract_solution(aug: AugmentedProblem, sol: Solution) -> CvarSolution:
    """Strip the threshold coordinate and recompute the objective."""
    source = aug.source
    tree = source.tree
    expected = (tree.num_scenarios, tree.total_dim + 1)
    if sol.x_bar.shape != expected:
        raise ShapeMismatch(f"solution shape {sol.x_bar.shape}, expected {expected}")
    thresholds, x = split_augmented(sol.x_bar)
    y_bar = float(tree.probabilities @ thresholds)
    spread = float(np.max(np.abs(thresholds - y_bar))) if thresholds.size else 0.0
    if spread > THRESHOLD_TOL:
        raise NonConstantThreshold(
            f"threshold varies across scenarios by {spread:.3e}"
        )
    losses = _cost_rows(_pack_costs(source.costs), x)[:, 0]
    objective = cvar_value(tree, source.alpha, losses)
    return CvarSolution(x_bar=x, y_bar=y_bar, objective=objective, inner=sol)


def solve_cvar(cp: CvarProblem, config: Optional[SolverConfig] = None) -> CvarSolution:
    """Lift, solve the equilibrium problem, and strip the threshold."""
    aug = augment(cp)
    sol = solve(aug.base, config)
    return extract_solution(aug, sol)
