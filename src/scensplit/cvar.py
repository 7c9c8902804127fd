"""Risk-averse problems with a conditional value-at-risk objective.

The tail risk of a random loss is expressed through a scalar threshold:
``cvar = min_y  y + E[max{loss - y, 0}] / (1 - alpha)``.  Minimizing the
tail risk of per-scenario costs therefore fits the equilibrium solver after
one surgery: prepend a shared threshold coordinate to the first decision
stage, wrap each cost into the threshold-plus-excess operator and leave the
new coordinate unconstrained.  The lift also rescales the decisions by a
power of two fixed from the number of scenarios (see :func:`decision_scale`).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonConstantThreshold, ShapeMismatch
from .operators import (
    Affine,
    Ball,
    Box,
    ConstraintSpec,
    CostSpec,
    CvarAugmented,
    Full,
    Halfspace,
    Hyperplane,
    RealCross,
    SeparableQuadratic,
    Stack,
    _cost_rows,
    _number,
    _pack_costs,
    _spec_groups,
    check_alpha,
    check_specs,
    settle_rows,
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
    losses = _number("losses", losses, np.inf, "an array of numbers")
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


# field -> the power of the decision scale s it is multiplied by when the
# decisions x become x / s: a cost f becomes f(s *), a set C becomes C / s
_LIFT = {
    Affine: {"c": 1},
    SeparableQuadratic: {"q": 2, "c": -1},
    Box: {"lo": -1, "hi": -1},
    Ball: {"center": -1, "radius": -1},
    Halfspace: {"offset": -1},
    Hyperplane: {"offset": -1},
}


def decision_scale(num_scenarios: int) -> float:
    """The scale s of the lifted decisions, 0.5 ** min(floor(log2(num_scenarios) / 4), 2).

    s = 1 below 16 scenarios, 1/2 below 256 and 1/4 from 256 on: the rule
    was measured up to N = 1024, so it stops halving there.  In the lifted
    coordinates (y, x / s) a unit step moves the threshold 1/s^2 times as
    far, relative to the decisions, as in (y, x).
    """
    return 0.5 ** min((num_scenarios.bit_length() - 1) // 4, 2)


def _lifted(wrapper, specs, name: str, s: float, **columns) -> Stack:
    """The stack of ``wrapper`` around ``specs`` in the decisions x / s, plus one-value ``columns``.

    The rescaled fields pass the rules again: dividing by s can overflow a
    finite entry, which raises ValidationError.  A box side past
    +-UNBOUNDED lands on it, so an unbounded side stays unbounded.
    """
    groups = []
    for key, members, fields in _spec_groups(specs):
        cls = key
        while isinstance(cls, tuple):  # a RealCross lifts what it wraps
            cls = cls[1]
        if cls in _LIFT:
            with np.errstate(over="ignore"):
                fields = fields | {f: fields[f] * s**p for f, p in _LIFT[cls].items()}
            fields = settle_rows(cls, fields, lambda row: f"lifted {name} {members[row]}")
        fields |= {f: np.full((len(members), 1), value) for f, value in columns.items()}
        groups.append(((wrapper, key), members, fields))
    return Stack.from_groups(groups)


def augment(cp: CvarProblem) -> Problem:
    """Lift a risk problem into the scenario-equilibrium form.

    Column 0 of the lifted policies is the shared threshold; columns 1..
    map one-to-one onto the original coordinates divided by
    ``decision_scale(N)``, the costs and sets rescaled to match.
    """
    tree = cp.tree
    s = decision_scale(tree.num_scenarios)
    dims = (tree.stage_dims[0] + 1,) + tree.stage_dims[1:]
    return Problem.from_stacks(
        build_tree(zip(tree.labels, tree.probabilities.tolist()), dims),
        _lifted(CvarAugmented, cp.costs, "cost", s, alpha=cp.alpha),
        _lifted(RealCross, cp.constraints, "constraint", s),
        Stack.from_groups([(Full, np.arange(tree.num_scenarios), {})]),
    )


def extract_solution(cp: CvarProblem, sol: Solution) -> CvarSolution:
    """Strip the threshold from a solve of ``augment(cp)``, rescale the decisions, recompute the objective."""
    tree = cp.tree
    expected = (tree.num_scenarios, tree.total_dim + 1)
    if sol.x_bar.shape != expected:
        raise ShapeMismatch(f"solution shape {sol.x_bar.shape}, expected {expected}")
    thresholds, x = sol.x_bar[:, 0].copy(), sol.x_bar[:, 1:] * decision_scale(tree.num_scenarios)
    y_bar = float(tree.probabilities @ thresholds)
    spread = float(np.max(np.abs(thresholds - y_bar)))
    if spread > THRESHOLD_TOL:
        raise NonConstantThreshold(
            f"threshold varies across scenarios by {spread:.3e}"
        )
    losses = _cost_rows(_pack_costs(cp.costs), x)[:, 0]
    objective = cvar_value(tree, cp.alpha, losses)
    return CvarSolution(x_bar=x, y_bar=y_bar, objective=objective, inner=sol)


def solve_cvar(cp: CvarProblem, config: Optional[SolverConfig] = None) -> CvarSolution:
    """Lift, solve the equilibrium problem, and strip the threshold."""
    return extract_solution(cp, solve(augment(cp), config))
