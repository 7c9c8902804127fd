"""Slow, independent reference solvers used to validate the fast paths.

Everything here is brute force on purpose: dense grids with refinement for
proximity operators, projected gradient descent on an explicit
class-representative parametrization for quadratic box instances, and grid
search over at most three free coordinates for tiny risk problems.  These
routines share problem data with the main solvers but none of their
computational code.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cvar import CvarProblem
from .errors import BadGrid, TooManyFreeCoordinates, UnsupportedInstance
from .operators import (
    Affine,
    Ball,
    Box,
    GradSeparableQuadratic,
    Halfspace,
    Hyperplane,
    RealCross,
    SeparableQuadratic,
    WholeSpace,
    _number,
    check_step,
    integers,
)
from .solver import Problem
from .tree import ScenarioTree


@dataclass(frozen=True)
class GridSpec:
    """Search box, points per axis, and number of 10x refinement rounds.

    The bounds are numbers or sequences of numbers (ConfigError otherwise).
    """

    lower: np.ndarray
    upper: np.ndarray
    points: int = 2001
    rounds: int = 3

    def __post_init__(self):
        lo = np.atleast_1d(_number("grid lower", self.lower, np.inf, "numbers"))
        hi = np.atleast_1d(_number("grid upper", self.upper, np.inf, "numbers"))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise BadGrid(f"bounds shapes {lo.shape} / {hi.shape} do not line up")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise BadGrid("grid bounds must be finite")
        if np.any(lo >= hi):
            raise BadGrid("grid needs lower < upper on every axis")
        integers("points", [self.points], 3, error=BadGrid, kinds="an integer")
        integers("rounds", [self.rounds], 0, error=BadGrid, kinds="an integer")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def final_pitch(self) -> np.ndarray:
        """Grid spacing per axis after the last refinement round."""
        return (self.upper - self.lower) / (self.points - 1) / 10.0 ** self.rounds


def _grid_search(fun, spec: GridSpec, extra=None):
    """Minimize an objective over the box by refined dense evaluation.

    ``fun`` maps the axes of a round (``dim`` 1-d coordinate arrays) to the
    objective on their mesh, in ``meshgrid(*axes, indexing="ij")`` ravel
    order.  Each round shrinks the box tenfold around the incumbent (clipped
    to the original bounds), so the incumbent value never increases across
    rounds.  ``extra``, when given, maps the current window (lo, hi) to
    ``(rows, values)``: more candidate points inside it and their objective
    values, ranked after the mesh; callers use it to sample kink curves
    that a rectangular mesh straddles.
    """
    lo = spec.lower.copy()
    hi = spec.upper.copy()
    shape = (spec.points,) * spec.dim
    mesh_size = spec.points**spec.dim
    best_point = None
    best_value = np.inf
    for _ in range(spec.rounds + 1):
        axes = [np.linspace(lo[j], hi[j], spec.points) for j in range(spec.dim)]
        vals = np.asarray(fun(axes), dtype=float).ravel()
        if extra is not None:
            more, more_vals = extra(lo, hi)
            vals = np.concatenate([vals, more_vals])
        at = int(np.argmin(vals))
        if vals[at] < best_value:
            best_value = float(vals[at])
            if at < mesh_size:
                best_point = np.array([a[i] for a, i in zip(axes, np.unravel_index(at, shape))])
            else:
                best_point = more[at - mesh_size].copy()
        if best_point is None:
            raise UnsupportedInstance("objective is infinite on the whole grid")
        width = (hi - lo) / 10.0
        lo = np.maximum(spec.lower, best_point - width / 2.0)
        hi = np.minimum(spec.upper, best_point + width / 2.0)
    return best_point, best_value


def _mesh_rows(axes) -> np.ndarray:
    """The points of the axes' mesh as rows, in ``_grid_search`` order."""
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


def _eval_cost_many(f, pts: np.ndarray) -> np.ndarray:
    # own evaluation of the catalog costs, vectorized over rows
    if isinstance(f, Affine):
        return pts @ f.c + f.r
    if isinstance(f, SeparableQuadratic):
        return 0.5 * ((pts - f.c) ** 2) @ f.q + f.r
    raise UnsupportedInstance(f"no oracle evaluation for cost {type(f).__name__}")


def oracle_prox_grid(f, gamma: float, x: float, grid: GridSpec, positive_part: bool = True) -> float:
    """Grid minimizer of gamma*max{f,0} + 0.5(.-x)^2 (or gamma*f + ...); ``x`` is a number."""
    gamma = check_step("gamma", gamma)
    x = float(_number("x", x))
    if not isinstance(f, (Affine, SeparableQuadratic)) or f.dim != 1 or grid.dim != 1:
        raise UnsupportedInstance("the prox oracle handles one-dimensional catalog costs")

    def objective(axes):
        pts = _mesh_rows(axes)
        fv = _eval_cost_many(f, pts)
        penal = np.maximum(fv, 0.0) if positive_part else fv
        return gamma * penal + 0.5 * (pts[:, 0] - x) ** 2

    point, _ = _grid_search(objective, grid)
    return float(point[0])


def oracle_prox_cvar_grid(f, alpha: float, gamma: float, y: float, x: float, grid: GridSpec):
    """Grid minimizer over (threshold, decision) of the augmented prox objective.

    ``alpha``, ``y`` and ``x`` are numbers (ConfigError otherwise).
    """
    gamma = check_step("gamma", gamma)
    alpha, y, x = (float(_number(name, v)) for name, v in (("alpha", alpha), ("y", y), ("x", x)))
    if not 0.0 < alpha < 1.0:
        raise UnsupportedInstance(f"alpha must lie in (0, 1), got {alpha}")
    if not isinstance(f, (Affine, SeparableQuadratic)) or f.dim != 1 or grid.dim != 2:
        raise UnsupportedInstance("the augmented prox oracle takes a 1-d catalog cost, a 2-d grid")
    scale = 1.0 / (1.0 - alpha)

    def objective(thr, dec, fv):
        # elementwise, so it serves the broadcast mesh and the kink rows alike
        risk = thr + scale * np.maximum(fv - thr, 0.0)
        return gamma * risk + 0.5 * ((thr - y) ** 2 + (dec - x) ** 2)

    def on_mesh(axes):
        # the cost depends on the decision axis only: one value per column
        thr, dec = axes
        fv = _eval_cost_many(f, dec[:, None])
        return objective(thr[:, None], dec[None, :], fv[None, :])

    def kink_candidates(lo, hi):
        # minimizers frequently sit on the curve f(dec) = thr, which the
        # rectangular mesh only straddles; sample the curve itself so the
        # search keeps full pitch resolution along it
        dec = np.linspace(lo[1], hi[1], grid.points)
        thr = _eval_cost_many(f, dec[:, None])
        keep = (thr >= lo[0]) & (thr <= hi[0])
        thr, dec = thr[keep], dec[keep]
        return np.stack([thr, dec], axis=-1), objective(thr, dec, thr)

    point, _ = _grid_search(on_mesh, grid, extra=kink_candidates)
    return float(point[0]), float(point[1])


# ---------------------------------------------------------------------------
# instance-level oracles on the class-representative parametrization
# ---------------------------------------------------------------------------

def _free_coordinates(tree: ScenarioTree):
    """One entry per (stage class, stage column): (member indices, column)."""
    out = []
    for k, block in enumerate(tree.stage_slices):
        for members in tree.classes[k]:
            for col in range(block.start, block.stop):
                out.append((np.asarray(members, dtype=int), col))
    return out


def _expand(tree: ScenarioTree, fcs, z: np.ndarray) -> np.ndarray:
    x = np.empty((tree.num_scenarios, tree.total_dim))
    for value, (members, col) in zip(z, fcs):
        x[members, col] = value
    return x


def oracle_solve_quadratic_box(problem: Problem) -> np.ndarray:
    """Projected gradient reference for quadratic costs over boxes.

    Works on the free coordinates directly, so nonanticipativity holds by
    construction; the box of a free coordinate is the intersection of its
    members' boxes.  Step 1/L with L the largest aggregated curvature.
    """
    tree = problem.tree
    for op in problem.operators:
        if not isinstance(op, GradSeparableQuadratic):
            raise UnsupportedInstance(f"operator {type(op).__name__} not quadratic")
    for cs in problem.constraints:
        if not isinstance(cs, Box):
            raise UnsupportedInstance(f"constraint {type(cs).__name__} not a box")
    probs = tree.probabilities
    fcs = _free_coordinates(tree)
    m = len(fcs)
    lam = np.zeros(m)
    lin = np.zeros(m)
    lo = np.empty(m)
    hi = np.empty(m)
    for j, (members, col) in enumerate(fcs):
        w = probs[members]
        q = np.array([problem.operators[i].q[col] for i in members])
        c = np.array([problem.operators[i].c[col] for i in members])
        lam[j] = float(w @ q)
        lin[j] = float(w @ (q * c))
        lo[j] = max(problem.constraints[i].lo[col] for i in members)
        hi[j] = min(problem.constraints[i].hi[col] for i in members)
    if np.any(lo > hi):
        raise UnsupportedInstance("a free coordinate has empty box intersection")

    big = float(lam.max(initial=0.0))
    z = np.clip(np.zeros(m), lo, hi)
    if big > 0.0:
        step = 1.0 / big
        for _ in range(1000000):
            grad = lam * z - lin
            z_new = np.clip(z - step * grad, lo, hi)
            moved = float(np.linalg.norm(z - z_new)) * big
            z = z_new
            if moved <= 1e-12:
                break
    return _expand(tree, fcs, z)


def _feasible_many(cs, pts: np.ndarray) -> np.ndarray:
    # own membership checks of the rows of pts, used only to mask grid points
    if isinstance(cs, WholeSpace):
        return np.ones(pts.shape[0], dtype=bool)
    if isinstance(cs, Box):
        return np.all((pts >= cs.lo) & (pts <= cs.hi), axis=1)
    if isinstance(cs, Ball):
        return np.sqrt(np.sum((pts - cs.center) ** 2, axis=1)) <= cs.radius + 1e-12
    if isinstance(cs, Halfspace):
        return pts @ cs.normal <= cs.offset + 1e-12
    if isinstance(cs, Hyperplane):
        return np.abs(pts @ cs.normal - cs.offset) <= 1e-9 * (1.0 + abs(cs.offset))
    if isinstance(cs, RealCross):
        return _feasible_many(cs.base, pts[:, 1:])
    raise UnsupportedInstance(f"no oracle feasibility test for {type(cs).__name__}")


def _tail_risk_many(probs: np.ndarray, alpha: float, losses: np.ndarray) -> np.ndarray:
    """Exact tail risk of each row of an (M, N) loss array.

    The optimal threshold of a row is its smallest loss at which the
    cumulative probability reaches ``alpha``.
    """
    order = np.argsort(losses, axis=1, kind="stable")
    cum = np.cumsum(probs[order], axis=1)
    pos = np.minimum(np.sum(cum < alpha, axis=1), losses.shape[1] - 1)
    rows = np.arange(losses.shape[0])
    threshold = losses[rows, order[rows, pos]]
    excess = np.maximum(losses - threshold[:, None], 0.0)
    return threshold + excess @ probs / (1.0 - alpha)


def oracle_cvar_small(cp: CvarProblem, grid: GridSpec):
    """Grid search over the free coordinates of a tiny risk problem.

    Returns ``(policy, value)``.  Limited to three free coordinates; the
    objective at each candidate is the exact tail risk of the induced
    per-scenario costs, infinity outside the constraints.
    """
    tree = cp.tree
    fcs = _free_coordinates(tree)
    if len(fcs) > 3:
        raise TooManyFreeCoordinates(
            f"{len(fcs)} free coordinates; the grid oracle handles at most 3"
        )
    if grid.dim != len(fcs):
        raise BadGrid(f"grid has {grid.dim} axes, instance has {len(fcs)} free coordinates")

    def objective(axes):
        pts = _mesh_rows(axes)
        # policies of all candidates at once: (rows, scenarios, total_dim)
        x = np.empty((pts.shape[0], tree.num_scenarios, tree.total_dim))
        for j, (members, col) in enumerate(fcs):
            x[:, members, col] = pts[:, j : j + 1]
        ok = np.ones(pts.shape[0], dtype=bool)
        for i, cs in enumerate(cp.constraints):
            ok &= _feasible_many(cs, x[:, i])
        losses = np.stack([_eval_cost_many(f, x[:, i]) for i, f in enumerate(cp.costs)], axis=1)
        return np.where(ok, _tail_risk_many(tree.probabilities, cp.alpha, losses), np.inf)

    point, value = _grid_search(objective, grid)
    return _expand(tree, fcs, point), float(value)
