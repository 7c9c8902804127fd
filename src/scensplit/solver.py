"""Block-activated splitting solver for scenario-form equilibrium problems.

The problem couples one monotone operator and one constraint set per
scenario through the nonanticipativity subspace.  Each iteration activates
a block of scenarios, refreshes their resolvent/projection intermediates
(keeping stale values elsewhere), builds a separating half-space from all
intermediates and projects the primal-dual iterate onto it.  A classical
averaging baseline and an unconstrained reduced variant are included.
"""
from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import policy
from .errors import (
    ConfigError,
    DimensionMismatch,
    NonPositiveGamma,
    NonTrivialConstraint,
    ValidationError,
)
from .operators import (
    ConstraintSpec,
    Full,
    OperatorSpec,
    Stack,
    SubspaceSpec,
    WholeSpace,
    Zero,
    forward_rows,
    project_constraint_rows,
    require_composite,
    resolvent_rows,
    step_column,
    subspace_mask,
    validate_range_condition,
)
from .tree import ScenarioTree


# ---------------------------------------------------------------------------
# problem container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Problem:
    """One operator, constraint set and activation subspace per scenario.

    Construction also groups the operators and the constraint sets by
    catalog type into stacks, and the subspaces into one (N, d) axis mask;
    every per-scenario computation of the solvers runs on these.
    """

    tree: ScenarioTree
    operators: tuple[OperatorSpec, ...]
    constraints: tuple[ConstraintSpec, ...]
    subspaces: tuple[SubspaceSpec, ...]
    operator_stack: Stack = field(init=False, repr=False, compare=False)
    constraint_stack: Stack = field(init=False, repr=False, compare=False)
    subspace_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.tree.num_scenarios
        d = self.tree.total_dim
        object.__setattr__(self, "operators", tuple(self.operators))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "subspaces", tuple(self.subspaces))
        for name, seq in (
            ("operators", self.operators),
            ("constraints", self.constraints),
            ("subspaces", self.subspaces),
        ):
            if len(seq) != n:
                raise ValidationError(f"{name}: got {len(seq)} entries for {n} scenarios")
        for i, op in enumerate(self.operators):
            if op.dim is not None and op.dim != d:
                raise DimensionMismatch(f"operator {i} has dim {op.dim}, tree needs {d}")
        for i, cs in enumerate(self.constraints):
            if cs.dim is not None and cs.dim != d:
                raise DimensionMismatch(f"constraint {i} has dim {cs.dim}, tree needs {d}")
        for i, us in enumerate(self.subspaces):
            idx = getattr(us, "indices", ())
            if idx and max(idx) >= d:
                raise DimensionMismatch(f"subspace {i} indexes axis {max(idx)}, dim is {d}")
        for i, (cs, us) in enumerate(zip(self.constraints, self.subspaces)):
            if not validate_range_condition(cs, us):
                raise ValidationError(f"range condition violated for scenario {i}")
        object.__setattr__(self, "operator_stack", Stack(self.operators))
        object.__setattr__(self, "constraint_stack", Stack(self.constraints))
        by_spec: dict = {}
        for i, us in enumerate(self.subspaces):
            by_spec.setdefault(us, []).append(i)
        mask = np.empty((n, d), dtype=bool)
        for us, rows in by_spec.items():
            mask[rows] = subspace_mask(us, d)
        mask.flags.writeable = False
        object.__setattr__(self, "subspace_mask", mask)


def make_problem(tree, operators, constraints=None, subspaces=None) -> Problem:
    """Convenience constructor; defaults to no constraints, full subspaces."""
    n = tree.num_scenarios
    if constraints is None:
        constraints = (WholeSpace(),) * n
    if subspaces is None:
        subspaces = (Full(),) * n
    return Problem(tree, tuple(operators), tuple(constraints), tuple(subspaces))


# ---------------------------------------------------------------------------
# activation schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FullActivation:
    """Every scenario, every iteration."""

    def cover_window(self, num_scenarios: int) -> int:
        return 0

    def select(self, n, num_scenarios, last_activated, rng) -> np.ndarray:
        return np.arange(num_scenarios)


@dataclass(frozen=True)
class RoundRobin:
    """Cyclic contiguous blocks of a fixed size."""

    block_size: int = 1

    def __post_init__(self):
        if self.block_size < 1:
            raise ConfigError(f"block_size must be >= 1, got {self.block_size}")

    def cover_window(self, num_scenarios: int) -> int:
        return math.ceil(num_scenarios / self.block_size) - 1

    def select(self, n, num_scenarios, last_activated, rng) -> np.ndarray:
        if n == 0:
            return np.arange(num_scenarios)
        period = math.ceil(num_scenarios / self.block_size)
        pos = (n - 1) % period
        start = pos * self.block_size
        return np.arange(start, min(start + self.block_size, num_scenarios))


@dataclass(frozen=True)
class SeededRandom:
    """Uniform random block, force-including scenarios that have waited.

    A scenario inactive for ``cover_window`` iterations is put into the
    block first; the remaining slots are filled uniformly without
    replacement.  Fully deterministic for a fixed seed.
    """

    block_size: int = 1
    cover_window: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.block_size < 1:
            raise ConfigError(f"block_size must be >= 1, got {self.block_size}")
        if self.cover_window < 0:
            raise ConfigError(f"cover_window must be >= 0, got {self.cover_window}")

    def select(self, n, num_scenarios, last_activated, rng) -> np.ndarray:
        if n == 0:
            return np.arange(num_scenarios)
        overdue = np.flatnonzero(last_activated <= n - self.cover_window - 1)
        rest = np.setdiff1d(np.arange(num_scenarios), overdue, assume_unique=True)
        slots = min(max(self.block_size - overdue.size, 0), rest.size)
        picked = rng.choice(rest, size=slots, replace=False) if slots else rest[:0]
        return np.sort(np.concatenate([overdue, picked]))


ActivationSchedule = Union[FullActivation, RoundRobin, SeededRandom]


# ---------------------------------------------------------------------------
# configuration, state, results
# ---------------------------------------------------------------------------

StepRule = Union[float, Sequence[float], Callable]


@dataclass(frozen=True)
class SolverConfig:
    """Step sizes, activation schedule and stopping rules.

    ``gamma`` and ``mu`` accept a constant, a per-scenario sequence, or a
    callable ``(scenario, iteration) -> float``; ``lambda_rule`` accepts a
    constant or a callable ``iteration -> float``.  Values outside the
    admissible intervals raise instead of being clamped.
    """

    epsilon: float = 1e-3
    gamma: StepRule = 1.0
    mu: StepRule = 1.0
    lambda_rule: Union[float, Callable] = 1.0
    schedule: ActivationSchedule = field(default_factory=FullActivation)
    tol: float = 1e-8
    max_iter: int = 100000
    trace_every: int = 1
    record_timing: bool = False

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        _check_stopping(self.tol, self.max_iter, self.trace_every)
        lo, hi = self.epsilon, 1.0 / self.epsilon
        for name, rule in (("gamma", self.gamma), ("mu", self.mu)):
            if not callable(rule):
                _check_range(name, rule, lo, hi)
        if isinstance(self.lambda_rule, (int, float)):
            _check_range("lambda", float(self.lambda_rule), lo, 2.0 - self.epsilon)
        elif not callable(self.lambda_rule):
            raise ConfigError("lambda_rule must be a number or a callable")


def _check_stopping(tol: float, max_iter: int, trace_every: int):
    """Raise unless the stopping and tracing settings every solver takes are usable."""
    if not tol >= 0:
        raise ConfigError(f"tol must be nonnegative, got {tol}")
    if max_iter < 0:
        raise ConfigError(f"max_iter must be nonnegative, got {max_iter}")
    if trace_every < 1:
        raise ConfigError(f"trace_every must be >= 1, got {trace_every}")


def _check_range(name: str, value, lo: float, hi: float):
    """Raise unless every entry of ``value`` (a number or an array) is in [lo, hi]."""
    v = np.asarray(value, dtype=float).ravel()
    bad = v[~((lo <= v) & (v <= hi))]
    if bad.size:
        raise ConfigError(f"{name} value {float(bad[0])} outside [{lo}, {hi}]")


def _step_values(rule: StepRule, active: np.ndarray, n: int):
    """The rule's step for each active scenario, or its constant."""
    if isinstance(rule, (int, float)):
        return float(rule)
    if callable(rule):
        return np.array([float(rule(int(i), n)) for i in active])
    return np.asarray(rule, dtype=float)[active]


def _lambda_value(config: SolverConfig, n: int) -> float:
    rule = config.lambda_rule
    if callable(rule):
        v = float(rule(n))
        _check_range("lambda", v, config.epsilon, 2.0 - config.epsilon)
        return v
    return float(rule)


@dataclass
class SolverState:
    """Mutable iterate plus per-scenario intermediates.

    ``op_point``/``op_dual`` come from the operator resolvent, ``set_point``
    /``set_dual`` from the constraint projection, ``gap`` is the activation
    subspace's view of their mismatch.  Rows of inactive scenarios are kept
    bitwise unchanged between activations.
    """

    iteration: int
    x: np.ndarray
    x_star: np.ndarray
    v_star: np.ndarray
    op_point: np.ndarray
    op_dual: np.ndarray
    set_point: np.ndarray
    set_dual: np.ndarray
    gap: np.ndarray
    last_activated: np.ndarray
    rng: Optional[np.random.Generator] = None
    active: np.ndarray = field(default_factory=lambda: np.arange(0))
    kappa: float = 0.0
    tau: float = 0.0
    theta: float = 0.0


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    NON_FINITE = "non_finite"  # the residual became NaN or infinite


@dataclass(frozen=True)
class TraceRecord:
    n: int
    residual: float
    kappa: float
    tau: float
    theta: float
    active: tuple[int, ...]
    wall_ms: float = 0.0

    @property
    def active_block_size(self) -> int:
        return len(self.active)


@dataclass(frozen=True)
class Solution:
    x_bar: np.ndarray
    v_star_bar: np.ndarray
    status: SolveStatus
    iterations: int
    residual: float
    trace: tuple[TraceRecord, ...]


# ---------------------------------------------------------------------------
# iteration pieces
# ---------------------------------------------------------------------------

def init_state(problem: Problem, config: SolverConfig, x0=None, x0_star=None, v0_star=None) -> SolverState:
    """Feasible starting state: x in the subspace, duals in their ranges."""
    tree = problem.tree
    n, d = tree.num_scenarios, tree.total_dim
    for name in ("gamma", "mu"):
        rule = getattr(config, name)
        if not (callable(rule) or isinstance(rule, (int, float)) or np.size(rule) == n):
            raise ConfigError(f"{name}: got {np.size(rule)} entries for {n} scenarios")
    x = policy.zeros(tree) if x0 is None else policy.check_policy(tree, x0).copy()
    xs = policy.zeros(tree) if x0_star is None else policy.check_policy(tree, x0_star).copy()
    vs = policy.zeros(tree) if v0_star is None else policy.check_policy(tree, v0_star).copy()
    x = policy.project_nonanticipative(tree, x)
    vs = policy.project_nonanticipative_complement(tree, vs)
    xs = np.where(problem.subspace_mask, xs, 0.0)
    rng = None
    if isinstance(config.schedule, SeededRandom):
        rng = np.random.default_rng(config.schedule.seed)
    return SolverState(
        iteration=0,
        x=x,
        x_star=xs,
        v_star=vs,
        op_point=np.zeros((n, d)),
        op_dual=np.zeros((n, d)),
        set_point=np.zeros((n, d)),
        set_dual=np.zeros((n, d)),
        gap=np.zeros((n, d)),
        last_activated=np.full(n, -1, dtype=int),
        rng=rng,
    )


def scenario_update(state: SolverState, problem: Problem, scenarios, gamma, mu):
    """Refresh the intermediates of a block of scenarios at the current iterate.

    ``scenarios`` is one index or an index array in any order; ``gamma``
    and ``mu`` are a number or one value per scenario.  Returns
    ``(op_point, op_dual, set_point, set_dual, gap)`` with one row per
    scenario (plain vectors for a single index); op_dual lies in the
    operator's graph at op_point, set_dual in the normal cone of the
    constraint at set_point, by construction.
    """
    rows = np.atleast_1d(np.asarray(scenarios, dtype=int))
    gamma = step_column(gamma, rows.size)
    mu = step_column(mu, rows.size)
    if not np.all(gamma > 0):
        raise NonPositiveGamma(f"gamma must be positive, got {float(gamma.min())}")
    if not np.all(mu > 0):
        raise ConfigError(f"mu must be positive, got {float(mu.min())}")
    x = state.x[rows]
    xs = state.x_star[rows]
    vs = state.v_star[rows]
    load = xs + vs
    op_point = resolvent_rows(problem.operator_stack, gamma, x - gamma * load, rows)
    op_dual = (x - op_point) / gamma - load
    set_point = project_constraint_rows(problem.constraint_stack, x + mu * xs, rows)
    set_dual = xs + (x - set_point) / mu
    gap = np.where(problem.subspace_mask[rows], set_point - op_point, 0.0)
    out = (op_point, op_dual, set_point, set_dual, gap)
    return tuple(a[0] for a in out) if np.ndim(scenarios) == 0 else out


def coordination_step(state: SolverState, problem: Problem, config: SolverConfig) -> SolverState:
    """Project the iterate onto the separating half-space and advance n."""
    tree = problem.tree
    probs = tree.probabilities
    dual_avg = policy.project_nonanticipative(tree, state.op_dual + state.set_dual)
    anti = -policy.project_nonanticipative_complement(tree, state.op_point)
    tau = sum(policy._inner(probs, u, u) for u in (dual_avg, state.gap, anti))
    if tau > 0.0:
        # x lies in the nonanticipative subspace throughout, so pairing it
        # with the averaged dual equals pairing it with the raw duals; the
        # grouped form below avoids cancellation between O(1) inner products
        # once the gaps are tiny
        kappa = (
            policy._inner(probs, state.x - state.op_point, state.op_dual)
            + policy._inner(probs, state.x - state.set_point, state.set_dual)
            + policy._inner(probs, state.gap, state.x_star)
            + policy._inner(probs, anti, state.v_star)
        )
        theta = _lambda_value(config, state.iteration) * max(kappa, 0.0) / tau
    else:
        kappa = 0.0
        theta = 0.0
    state.x -= theta * dual_avg
    state.x_star -= theta * state.gap
    state.v_star -= theta * anti
    state.kappa = kappa
    state.tau = tau
    state.theta = theta
    state.iteration += 1
    return state


def iterate(state: SolverState, problem: Problem, config: SolverConfig) -> SolverState:
    """One full iteration: block refresh, then the coordination step."""
    n = state.iteration
    num = problem.tree.num_scenarios
    if n == 0:
        active = np.arange(num)  # the first sweep must see every scenario
    else:
        active = np.asarray(
            config.schedule.select(n, num, state.last_activated, state.rng), dtype=int
        )
    lo, hi = config.epsilon, 1.0 / config.epsilon
    gamma = _step_values(config.gamma, active, n)
    mu = _step_values(config.mu, active, n)
    _check_range("gamma", gamma, lo, hi)
    _check_range("mu", mu, lo, hi)
    (
        state.op_point[active],
        state.op_dual[active],
        state.set_point[active],
        state.set_dual[active],
        state.gap[active],
    ) = scenario_update(state, problem, active, gamma, mu)

    coordination_step(state, problem, config)
    state.last_activated[active] = n
    state.active = active
    return state


def kkt_residual(problem: Problem, x, x_star, v_star) -> float:
    """Scalar optimality measure, zero exactly at equilibrium triples.

    Combines the per-scenario fixed-point gaps of the operator resolvent
    and the constraint projector with the subspace residuals of x and the
    coupling dual.
    """
    tree = problem.tree
    x = policy.check_policy(tree, x)
    xs = policy.check_policy(tree, x_star)
    vs = policy.check_policy(tree, v_star)
    op_gap = x - resolvent_rows(problem.operator_stack, 1.0, x - xs - vs)
    set_gap = x - project_constraint_rows(problem.constraint_stack, x + xs)
    anti = policy.project_nonanticipative_complement(tree, x)
    dual = policy.project_nonanticipative(tree, vs)
    total = sum(policy._inner(tree.probabilities, u, u) for u in (op_gap, set_gap, anti, dual))
    return float(np.sqrt(max(total, 0.0)))


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def solve(
    problem: Problem,
    config: Optional[SolverConfig] = None,
    x0=None,
    x0_star=None,
    v0_star=None,
    callback=None,
) -> Solution:
    """Run the block-activated iteration until the residual meets ``tol``."""
    if config is None:
        config = SolverConfig()
    state = init_state(problem, config, x0, x0_star, v0_star)
    trace = []
    start = time.perf_counter()
    while True:
        residual = kkt_residual(problem, state.x, state.x_star, state.v_star)
        if residual <= config.tol:
            status = SolveStatus.CONVERGED
            break
        if not math.isfinite(residual):
            status = SolveStatus.NON_FINITE
            break
        if state.iteration >= config.max_iter:
            status = SolveStatus.MAX_ITER
            break
        n = state.iteration
        iterate(state, problem, config)
        if n % config.trace_every == 0:
            wall = (time.perf_counter() - start) * 1e3 if config.record_timing else 0.0
            trace.append(
                TraceRecord(
                    n=n,
                    residual=residual,
                    kappa=state.kappa,
                    tau=state.tau,
                    theta=state.theta,
                    active=tuple(state.active.tolist()),
                    wall_ms=wall,
                )
            )
        if callback is not None:
            callback(state)
    return Solution(
        x_bar=state.x.copy(),
        v_star_bar=state.v_star.copy(),
        status=status,
        iterations=state.iteration,
        residual=residual,
        trace=tuple(trace),
    )


def progressive_hedging_solve(
    problem: Problem,
    gamma: float = 1.0,
    tol: float = 1e-8,
    max_iter: int = 100000,
    trace_every: int = 1,
    record_timing: bool = False,
) -> Solution:
    """Classical averaging baseline for composite-supported instances.

    The full operator-plus-constraint resolvent (the stacked resolvent,
    then the stacked box projection) is applied to every scenario at
    ``x - gamma * v_star``; the primal averages back to the subspace, the
    dual absorbs the residual part.  Stops on the same residual as the
    block-activated solver, with the constraint multiplier recovered from
    the resolvent identity.
    """
    if not gamma > 0:
        raise NonPositiveGamma(f"gamma must be positive, got {gamma}")
    _check_stopping(tol, max_iter, trace_every)
    tree = problem.tree
    ops, cons = problem.operator_stack, problem.constraint_stack
    require_composite([g[0] for g in ops.groups], [g[0] for g in cons.groups])
    x = policy.zeros(tree)
    vs = policy.zeros(tree)
    trace = []
    n = 0
    start = time.perf_counter()
    while True:
        sub = project_constraint_rows(cons, resolvent_rows(ops, gamma, x - gamma * vs))
        implied = (x - sub) / gamma - vs - forward_rows(ops, sub)
        x = policy.project_nonanticipative(tree, sub)
        vs = vs + policy.project_nonanticipative_complement(tree, sub) / gamma
        residual = kkt_residual(problem, x, implied, vs)
        if n % trace_every == 0:
            wall = (time.perf_counter() - start) * 1e3 if record_timing else 0.0
            trace.append(
                TraceRecord(
                    n=n,
                    residual=residual,
                    kappa=float("nan"),
                    tau=float("nan"),
                    theta=float("nan"),
                    active=tuple(range(tree.num_scenarios)),
                    wall_ms=wall,
                )
            )
        n += 1
        if residual <= tol:
            status = SolveStatus.CONVERGED
            break
        if not math.isfinite(residual):
            status = SolveStatus.NON_FINITE
            break
        if n >= max_iter:
            status = SolveStatus.MAX_ITER
            break
    return Solution(
        x_bar=x.copy(),
        v_star_bar=vs.copy(),
        status=status,
        iterations=n,
        residual=residual,
        trace=tuple(trace),
    )


def solve_reduced(
    problem: Problem, config: Optional[SolverConfig] = None, callback=None
) -> Solution:
    """Unconstrained specialization with trivial activation subspaces.

    Requires every constraint to be the whole space; then the constraint
    multiplier and the subspace gap stay exactly zero along the run, which
    is asserted, and the iteration reduces to its operator half.
    """
    for i, cs in enumerate(problem.constraints):
        if not isinstance(cs, WholeSpace):
            raise NonTrivialConstraint(
                f"scenario {i} has constraint {type(cs).__name__}; the reduced "
                "variant needs unconstrained instances"
            )
    if config is None:
        config = SolverConfig()
    reduced = Problem(
        tree=problem.tree,
        operators=problem.operators,
        constraints=problem.constraints,
        subspaces=(Zero(),) * problem.tree.num_scenarios,
    )
    config = replace(config, mu=1.0)

    def guard(state: SolverState):
        if np.any(state.x_star != 0.0) or np.any(state.gap != 0.0):
            raise AssertionError("reduced-variant invariant broken: nonzero multiplier")
        if callback is not None:
            callback(state)

    return solve(reduced, config, callback=guard)
