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
from typing import Callable, Optional, Sequence, Union, get_args

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
    _number,
    check_specs,
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

    Each spec must be one of its role's catalog types; a misfit raises
    ``ValidationError`` naming its index.  Construction also groups the
    operators and the constraint sets by catalog type into stacks, and the
    subspaces into one (N, d) axis mask; every per-scenario computation of
    the solvers runs on these.  ``full_mask`` is True when that mask is
    all True, so no subspace zeroes an entry.
    """

    tree: ScenarioTree
    operators: tuple[OperatorSpec, ...]
    constraints: tuple[ConstraintSpec, ...]
    subspaces: tuple[SubspaceSpec, ...]
    operator_stack: Stack = field(init=False, repr=False, compare=False)
    constraint_stack: Stack = field(init=False, repr=False, compare=False)
    subspace_mask: np.ndarray = field(init=False, repr=False, compare=False)
    full_mask: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.tree.num_scenarios
        d = self.tree.total_dim
        object.__setattr__(self, "operators", tuple(self.operators))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "subspaces", tuple(self.subspaces))
        check_specs(self.operators, OperatorSpec, "operator", n, d, DimensionMismatch)
        check_specs(self.constraints, ConstraintSpec, "constraint", n, d, DimensionMismatch)
        check_specs(self.subspaces, SubspaceSpec, "subspace", n, d, DimensionMismatch)
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
        object.__setattr__(self, "full_mask", bool(mask.all()))


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
    """Cyclic contiguous blocks of a fixed size, an integer >= 1."""

    block_size: int = 1

    def __post_init__(self):
        _check_count("block_size", self.block_size, 1)

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
    replacement.  Fully deterministic for a fixed seed.  All three settings
    are integers (numpy integers included, bools not).
    """

    block_size: int = 1
    cover_window: int = 1
    seed: int = 0

    def __post_init__(self):
        _check_count("block_size", self.block_size, 1)
        _check_count("cover_window", self.cover_window, 0)
        _check_count("seed", self.seed, 0)

    def select(self, n, num_scenarios, last_activated, rng) -> np.ndarray:
        if n == 0:
            return np.arange(num_scenarios)
        waited = last_activated <= n - self.cover_window - 1
        overdue = np.flatnonzero(waited)
        rest = np.flatnonzero(~waited)
        slots = min(max(self.block_size - overdue.size, 0), rest.size)
        picked = rng.choice(rest, size=slots, replace=False) if slots else rest[:0]
        if not overdue.size:
            return np.sort(picked)
        return np.sort(np.concatenate([overdue, picked]))


ActivationSchedule = Union[FullActivation, RoundRobin, SeededRandom]


# ---------------------------------------------------------------------------
# configuration, state, results
# ---------------------------------------------------------------------------

StepRule = Union[float, Sequence[float], Callable]


@dataclass(frozen=True)
class SolverConfig:
    """Step sizes, activation schedule and stopping rules.

    ``gamma`` and ``mu`` accept a number, a 1-d per-scenario sequence or a
    callable ``(scenario, iteration) -> float``; ``lambda_rule`` accepts a
    number or a callable ``iteration -> float``.  A number is a 0-d integer
    or float, numpy scalars and 0-d arrays included; anything else raises
    ``ConfigError``.  Values outside the admissible intervals raise instead
    of being clamped: numbers and sequences here, a callable's values each
    time it is called.  ``max_iter`` and ``trace_every`` must be integers,
    numpy integers included and bools not, ``epsilon`` and ``tol`` numbers
    as above (bools are not numbers), ``record_timing`` a bool
    (``np.bool_`` included), and ``schedule`` one of the three schedules.
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
    _steps: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < _number("epsilon", self.epsilon) < 1.0:
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not isinstance(self.schedule, get_args(ActivationSchedule)):
            raise ConfigError(
                "schedule must be a FullActivation, RoundRobin or SeededRandom, "
                f"got {self.schedule!r}"
            )
        _check_stopping(self.tol, self.max_iter, self.trace_every, self.record_timing)
        lo, hi = self.epsilon, 1.0 / self.epsilon
        steps = {
            "gamma": _settle_step("gamma", self.gamma, lo, hi, 1),
            "mu": _settle_step("mu", self.mu, lo, hi, 1),
            "lambda": _settle_step("lambda", self.lambda_rule, lo, 2.0 - lo, 0),
        }
        object.__setattr__(self, "_steps", steps)


def _check_count(name: str, value, least: int):
    """Raise unless ``value`` is an integer (numpy integers included, bools not) >= ``least``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_stopping(tol: float, max_iter: int, trace_every: int, record_timing: bool):
    """Raise unless the stopping and tracing settings every solver takes are usable."""
    if not _number("tol", tol) >= 0:
        raise ConfigError(f"tol must be nonnegative, got {tol}")
    _check_count("max_iter", max_iter, 0)
    _check_count("trace_every", trace_every, 1)
    if not isinstance(record_timing, (bool, np.bool_)):
        raise ConfigError(f"record_timing must be a bool, got {record_timing!r}")


def _check_range(name: str, value, lo: float, hi: float):
    """Raise unless every entry of ``value`` (a number or an array) is in [lo, hi]."""
    v = np.asarray(value, dtype=float).ravel()
    bad = v[~((lo <= v) & (v <= hi))]
    if bad.size:
        raise ConfigError(f"{name} value {float(bad[0])} outside [{lo}, {hi}]")


def _settle_step(name: str, rule, lo: float, hi: float, max_ndim: int) -> tuple:
    """``(rule, lo, hi)``: a callable as is, else a range-checked float or 1-d float array."""
    if callable(rule):
        return rule, lo, hi
    kinds = "a number, a 1-d sequence" if max_ndim else "a number"
    value = _number(name, rule, max_ndim, kinds + " or a callable")
    _check_range(name, value, lo, hi)
    return (float(value) if value.ndim == 0 else value.astype(float)), lo, hi


def _step(config: SolverConfig, name: str, n: int, rows=None):
    """Step ``name`` of iteration n, one per entry of ``rows`` (None for lambda).

    Only a callable's values are range-checked here; see ``SolverConfig``.
    """
    rule, lo, hi = config._steps[name]
    if not callable(rule):
        return rule if isinstance(rule, float) else rule[rows]
    v = float(rule(n)) if rows is None else np.array([float(rule(int(i), n)) for i in rows])
    _check_range(name, v, lo, hi)
    return v


@dataclass
class SolverState:
    """Mutable iterate plus per-scenario intermediates.

    ``stack`` is one (8, N, d) array holding ``x``, ``x_star``, ``v_star``,
    ``op_point``, ``op_dual``, ``set_point``, ``set_dual`` and ``gap`` in
    that order; the eight names are read-only properties that return views
    of its layers.  ``op_point``/``op_dual`` come from the operator
    resolvent, ``set_point``/``set_dual`` from the constraint projection,
    ``gap`` is the activation subspace's view of their mismatch.  Rows of
    inactive scenarios are kept bitwise unchanged between activations.
    ``root`` is an (N, 1) column holding each scenario's CVaR prox root
    from the last stopping test of ``solve``, where the next test's root
    search of a ``CvarAugmented`` scenario starts (other scenarios ignore
    theirs); every other root search starts at t = 0.
    """

    iteration: int
    stack: np.ndarray
    last_activated: np.ndarray
    root: np.ndarray
    rng: Optional[np.random.Generator] = None
    active: np.ndarray = field(default_factory=lambda: np.arange(0))
    kappa: float = 0.0
    tau: float = 0.0
    theta: float = 0.0

    x, x_star, v_star, op_point, op_dual, set_point, set_dual, gap = (
        property(lambda self, i=i: self.stack[i]) for i in range(8)
    )


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    # the residual, or kappa, tau or theta of a coordination step, became NaN or infinite
    NON_FINITE = "non_finite"


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
        rule = config._steps[name][0]
        if isinstance(rule, np.ndarray) and rule.size != n:
            raise ConfigError(f"{name}: got {rule.size} entries for {n} scenarios")
    x, xs, vs = (
        policy.zeros(tree) if v is None else policy.check_policy(tree, v)
        for v in (x0, x0_star, v0_star)
    )
    stack = np.zeros((8, n, d))
    stack[:3] = (
        policy.project_nonanticipative(tree, x),
        np.where(problem.subspace_mask, xs, 0.0),
        policy.project_nonanticipative_complement(tree, vs),
    )
    rng = None
    if isinstance(config.schedule, SeededRandom):
        rng = np.random.default_rng(config.schedule.seed)
    return SolverState(0, stack, np.full(n, -1, dtype=int), np.zeros((n, 1)), rng)


def scenario_update(state: SolverState, problem: Problem, scenarios, gamma, mu):
    """Refresh the intermediates of a block of scenarios at the current iterate.

    ``scenarios`` is one index or an index array in any order; ``gamma``
    and ``mu`` are a finite positive number or one such value per scenario.  Returns
    ``op_point``, ``op_dual``, ``set_point``, ``set_dual`` and ``gap`` as
    one (5, k, d) array, one row per scenario (a (5, d) array for a single
    index); op_dual lies in the operator's graph at op_point, set_dual in
    the normal cone of the constraint at set_point, by construction.
    """
    rows = np.atleast_1d(np.asarray(scenarios, dtype=int))
    gamma = step_column(gamma, rows.size)
    mu = step_column(mu, rows.size)
    for name, step, error in (("gamma", gamma, NonPositiveGamma), ("mu", mu, ConfigError)):
        if not np.all(step > 0):
            raise error(f"{name} must be positive, got {float(step.min())}")
        if not np.isfinite(step).all():
            raise ConfigError(f"{name} must be finite, got {float(step.max())}")
    block = state.stack[:3].take(rows, axis=1)
    op_point, set_point, _ = _points(problem, *block, gamma, mu, rows)
    out = _intermediates(block, problem, rows, gamma, mu, op_point, set_point)
    return out[:, 0] if np.ndim(scenarios) == 0 else out


def _points(
    problem: Problem, x, x_star, v_star, gamma=1.0, mu=1.0, rows=None, start=0.0
) -> tuple:
    """The refresh's resolvent and projection points of ``rows`` (None: all).

    ``J_A(x - gamma (x* + v*))`` and ``P_C(x + mu x*)``; at unit steps they
    give the two fixed-point terms of ``kkt_residual``.  The rows' CVaR prox
    root searches start at ``start``, a number or one root per row, and the
    roots found follow as a third entry.
    """
    z = x - gamma * (x_star + v_star)
    projected = project_constraint_rows(problem.constraint_stack, x + mu * x_star, rows)
    resolved, roots = resolvent_rows(problem.operator_stack, gamma, z, rows, start)
    return resolved, projected, roots


def _intermediates(block, problem, rows, gamma, mu, op_point, set_point, out=None):
    """The five refresh layers of ``rows`` (None: all) from their resolvent and projection points.

    ``block`` holds the rows' x, x* and v* as one (3, k, d) array.  The
    layers ``op_point``, ``op_dual = (x - op_point) / gamma - (x* + v*)``,
    ``set_point``, ``set_dual = x* + (x - set_point) / mu`` and ``gap``, the
    subspace's entries of ``set_point - op_point`` (0 elsewhere), are
    written into ``out``, a (5, k, d) array, new when None, which is
    returned.  A step that is the float 1.0 is not divided by, as
    ``v / 1.0 == v``.
    """
    x, xs, vs = block
    if out is None:
        out = np.empty((5,) + x.shape)
    a, a_star, b, b_star, u = out
    np.copyto(a, op_point)
    np.copyto(b, set_point)
    np.add(xs, vs, out=u)
    np.subtract(x, op_point, out=a_star)
    if not _is_one(gamma):
        a_star /= gamma
    a_star -= u
    np.subtract(x, set_point, out=b_star)
    if not _is_one(mu):
        b_star /= mu
    b_star += xs  # float addition commutes, so this is x* + (x - set_point) / mu
    np.subtract(set_point, op_point, out=u)
    if not problem.full_mask:
        mask = problem.subspace_mask if rows is None else problem.subspace_mask.take(rows, axis=0)
        np.copyto(u, 0.0, where=~mask)
    return out


def _is_one(step) -> bool:
    return isinstance(step, float) and step == 1.0


def _fixed_point_sq(probabilities, x, points) -> float:
    """Squared operator and constraint fixed-point gaps of x at ``points``."""
    return sum(policy._inner(probabilities, u, u) for u in (x - points[0], x - points[1]))


def coordination_step(state: SolverState, problem: Problem, config: SolverConfig) -> SolverState:
    """Project the iterate onto the separating half-space and advance n."""
    tree = problem.tree
    probs = tree.probabilities
    x, xs, vs, a, a_star, b, b_star, u = state.stack
    dual_avg = policy._average(tree, a_star + b_star)
    anti = -(a - policy._average(tree, a))
    tau = sum(policy._inner(probs, w, w) for w in (dual_avg, u, anti))
    if tau > 0.0:
        # x lies in the nonanticipative subspace throughout, so pairing it
        # with the averaged dual equals pairing it with the raw duals; the
        # grouped form below avoids cancellation between O(1) inner products
        # once the gaps are tiny
        kappa = (
            policy._inner(probs, x - a, a_star)
            + policy._inner(probs, x - b, b_star)
            + policy._inner(probs, u, xs)
            + policy._inner(probs, anti, vs)
        )
        theta = _step(config, "lambda", state.iteration) * max(kappa, 0.0) / tau
    else:
        kappa = 0.0
        theta = 0.0
    x -= theta * dual_avg
    xs -= theta * u
    vs -= theta * anti
    state.kappa = kappa
    state.tau = tau
    state.theta = theta
    state.iteration += 1
    return state


def iterate(state: SolverState, problem: Problem, config: SolverConfig, points=None) -> SolverState:
    """One full iteration: block refresh, then the coordination step.

    ``points``, every row's unit-step points at the current iterate as the
    stopping test of ``solve`` has them, stand in for the refresh's own
    evaluation when all of the iteration's steps are 1.0.  The refresh
    from them writes the five layers straight into ``state.stack[3:]`` at
    full activation; a block gathers its rows once and scatters them back
    once.
    """
    n = state.iteration
    num = problem.tree.num_scenarios
    if n == 0:
        active = np.arange(num)  # the first sweep must see every scenario
    else:
        active = np.asarray(
            config.schedule.select(n, num, state.last_activated, state.rng), dtype=int
        )
    gamma = _step(config, "gamma", n, active)
    mu = _step(config, "mu", n, active)
    full = active.size == num
    rows = slice(None) if full else active
    unit = gamma == mu == 1.0 if type(gamma) is type(mu) is float else (
        np.all(gamma == 1.0) and np.all(mu == 1.0)
    )
    if points is None or not unit:
        state.stack[3:, rows] = scenario_update(state, problem, active, gamma, mu)
    elif full:
        _intermediates(state.stack[:3], problem, None, 1.0, 1.0, *points[:2], out=state.stack[3:])
    else:
        # take keeps each layer C-ordered; stack[:3, rows] interleaves the layers' rows
        block = state.stack[:3].take(active, axis=1)
        op_point, set_point = (p.take(active, axis=0) for p in points[:2])
        new = _intermediates(block, problem, active, 1.0, 1.0, op_point, set_point)
        state.stack[3:, active] = new
    coordination_step(state, problem, config)
    state.last_activated[active] = n
    state.active = active
    return state


def kkt_residual(problem: Problem, x, x_star, v_star) -> float:
    """Scalar optimality measure, zero exactly at equilibrium triples.

    Combines the per-scenario fixed-point gaps of the operator resolvent
    and the constraint projector (at unit steps) with the subspace
    residuals of x and the coupling dual.  ``solve`` and the hedging loop
    stop on the first two terms alone, see ``_stop_residual``.
    """
    tree = problem.tree
    x = policy.check_policy(tree, x)
    xs = policy.check_policy(tree, x_star)
    vs = policy.check_policy(tree, v_star)
    probs = tree.probabilities
    anti = policy.project_nonanticipative_complement(tree, x)
    dual = policy.project_nonanticipative(tree, vs)
    total = (
        _fixed_point_sq(probs, x, _points(problem, x, xs, vs))
        + policy._inner(probs, anti, anti)
        + policy._inner(probs, dual, dual)
    )
    return float(np.sqrt(max(total, 0.0)))


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def _stop_residual(problem: Problem, x, x_star, v_star, start=0.0) -> tuple:
    """``kkt_residual`` without its two subspace terms, and the unit-step points.

    ``solve`` and the hedging loop keep x in the nonanticipative subspace
    and v* in its complement, so the dropped terms are roundoff.  The points
    are the three entries of ``_points``, CVaR roots started at ``start``.
    """
    points = _points(problem, x, x_star, v_star, start=start)
    total = _fixed_point_sq(problem.tree.probabilities, x, points)
    return float(np.sqrt(max(total, 0.0))), points


def _status(residual: float, tol: float, n: int, max_iter: int) -> Optional[SolveStatus]:
    """Why a run with this residual after n iterations stops, or None to go on."""
    if residual <= tol:
        return SolveStatus.CONVERGED
    if not math.isfinite(residual):
        return SolveStatus.NON_FINITE
    if n >= max_iter:
        return SolveStatus.MAX_ITER
    return None


class _Recorder:
    """Every ``trace_every``-th trace record of a run, then its Solution.

    Records of a repeated block share one ``active`` tuple.
    """

    def __init__(self, trace_every: int, record_timing: bool):
        self.every = trace_every
        self.start = time.perf_counter() if record_timing else None
        self.trace = []
        self.block, self.active = None, ()

    def record(self, n, residual, active, kappa=math.nan, tau=math.nan, theta=math.nan):
        if n % self.every:
            return
        wall = 0.0 if self.start is None else (time.perf_counter() - self.start) * 1e3
        if not np.array_equal(self.block, active):
            self.block, self.active = active, tuple(active.tolist())
        self.trace.append(TraceRecord(n, residual, kappa, tau, theta, self.active, wall))

    def solution(self, x, v_star, status, iterations, residual) -> Solution:
        return Solution(x.copy(), v_star.copy(), status, iterations, residual, tuple(self.trace))


def solve(
    problem: Problem,
    config: Optional[SolverConfig] = None,
    x0=None,
    x0_star=None,
    v0_star=None,
    callback=None,
) -> Solution:
    """Run the block-activated iteration until the residual meets ``tol``.

    The stopping test is ``kkt_residual`` without its two subspace terms
    (``init_state`` puts x and v* in their subspaces, every update keeps
    them there).  It runs before each step, so trace row n holds the
    residual tested before step n, and its unit-step points of every row
    are passed on to ``iterate``.  Its CVaR prox roots start from
    ``state.root`` and are kept there as the next starts.  A step whose
    kappa, tau or theta is not finite ends the run with ``NON_FINITE``,
    the residual being the one tested before that step.
    """
    if config is None:
        config = SolverConfig()
    state = init_state(problem, config, x0, x0_star, v0_star)
    recorder = _Recorder(config.trace_every, config.record_timing)
    while True:
        residual, points = _stop_residual(
            problem, state.x, state.x_star, state.v_star, state.root
        )
        state.root = points[2]
        status = _status(residual, config.tol, state.iteration, config.max_iter)
        if status is not None:
            return recorder.solution(state.x, state.v_star, status, state.iteration, residual)
        n = state.iteration
        iterate(state, problem, config, points)
        recorder.record(n, residual, state.active, state.kappa, state.tau, state.theta)
        if callback is not None:
            callback(state)
        if not all(map(math.isfinite, (state.kappa, state.tau, state.theta))):
            status = SolveStatus.NON_FINITE
            return recorder.solution(state.x, state.v_star, status, state.iteration, residual)


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
    dual absorbs the residual part.  Stops on the same residual as
    ``solve``, with the constraint multiplier recovered from the resolvent
    identity.  The test runs after each step, so trace row n holds the
    residual after step n; ``max_iter=0`` takes no step and tests the start,
    x = v* = 0 with x* = 0.  ``gamma`` must be a finite positive number, 0-d
    numpy values included and bools not; it has no ``epsilon`` range.  The
    other settings are checked as in ``SolverConfig``.
    """
    gamma = float(_number("gamma", gamma))
    if not gamma > 0:
        raise NonPositiveGamma(f"gamma must be positive, got {gamma}")
    if not math.isfinite(gamma):
        raise ConfigError(f"gamma must be finite, got {gamma}")
    _check_stopping(tol, max_iter, trace_every, record_timing)
    tree = problem.tree
    ops, cons = problem.operator_stack, problem.constraint_stack
    require_composite([g[0] for g in ops.groups], [g[0] for g in cons.groups])
    x = policy.zeros(tree)
    vs = policy.zeros(tree)
    everyone = np.arange(tree.num_scenarios)
    recorder = _Recorder(trace_every, record_timing)
    if max_iter == 0:
        residual, _ = _stop_residual(problem, x, policy.zeros(tree), vs)
        return recorder.solution(x, vs, _status(residual, tol, 0, 0), 0, residual)
    n = 0
    while True:
        sub = project_constraint_rows(cons, resolvent_rows(ops, gamma, x - gamma * vs))
        implied = (x - sub) / gamma - vs - forward_rows(ops, sub)
        x = policy.project_nonanticipative(tree, sub)
        vs = vs + policy.project_nonanticipative_complement(tree, sub) / gamma
        residual, _ = _stop_residual(problem, x, implied, vs)
        recorder.record(n, residual, everyone)
        n += 1
        status = _status(residual, tol, n, max_iter)
        if status is not None:
            return recorder.solution(x, vs, status, n, residual)


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
