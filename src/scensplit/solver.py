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
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Union, get_args

import numpy as np

from . import policy
from .errors import ConfigError, DimensionMismatch, NonTrivialConstraint, ValidationError
from .operators import (
    ConstraintSpec,
    Full,
    OperatorSpec,
    Stack,
    SubspaceSpec,
    WholeSpace,
    Zero,
    _kind_name,
    _number,
    _scaled,
    axis_mask,
    broken_range_conditions,
    check_specs,
    check_step,
    forward_rows,
    integers,
    project_constraint_rows,
    require_composite,
    resolvent_rows,
)
from .tree import ScenarioTree


# ---------------------------------------------------------------------------
# problem container
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False, eq=False)
class Problem:
    """One operator, constraint set and activation subspace per scenario.

    Each spec must be one of its role's catalog types; a misfit raises
    ``ValidationError`` naming its index.  ``constraints`` default to
    ``WholeSpace()`` and ``subspaces`` to ``Full()``.  The problem holds each
    role as a :class:`Stack` of per-type groups, on which every per-scenario
    computation of the solvers runs, and builds the ``operators``,
    ``constraints`` and ``subspaces`` tuples from them when first read.
    ``subspace_mask`` is the subspaces as one (N, d) axis mask, and
    ``full_mask`` is True when it is all True, so no subspace zeroes an entry.
    """

    tree: ScenarioTree
    operator_stack: Stack = field(repr=False)
    constraint_stack: Stack = field(repr=False)
    subspace_stack: Stack = field(repr=False)
    subspace_mask: np.ndarray = field(repr=False)
    full_mask: bool = field(repr=False)

    def __init__(self, tree, operators, constraints=None, subspaces=None):
        n = tree.num_scenarios
        constraints = (WholeSpace(),) * n if constraints is None else constraints
        subspaces = (Full(),) * n if subspaces is None else subspaces
        specs = tuple(map(tuple, (operators, constraints, subspaces)))
        roles = (OperatorSpec, ConstraintSpec, SubspaceSpec), ("operator", "constraint", "subspace")
        for given, role, name in zip(specs, *roles):
            check_specs(given, role, name, tree.num_scenarios, tree.total_dim, DimensionMismatch)
        self._settle(tree, *map(Stack, specs))

    @classmethod
    def from_stacks(cls, tree, operators: Stack, constraints: Stack, subspaces: Stack) -> "Problem":
        """The problem of stacks whose specs have their roles and the tree's width."""
        problem = object.__new__(cls)
        problem._settle(tree, operators, constraints, subspaces)
        return problem

    def _settle(self, tree, operators: Stack, constraints: Stack, subspaces: Stack):
        # before the range conditions: an index past d raises DimensionMismatch here
        mask = axis_mask(subspaces, tree.total_dim)
        broken = broken_range_conditions(constraints, subspaces, mask)
        if broken.any():
            raise ValidationError(f"range condition violated for scenario {int(broken.argmax())}")
        values = (tree, operators, constraints, subspaces, mask, bool(mask.all()))
        for f, value in zip(fields(self), values):
            object.__setattr__(self, f.name, value)

    # the spec tuples, built from the stacks when first read
    operators = property(lambda self: self.operator_stack.specs)
    constraints = property(lambda self: self.constraint_stack.specs)
    subspaces = property(lambda self: self.subspace_stack.specs)


# ---------------------------------------------------------------------------
# activation schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FullActivation:
    """Every scenario, every iteration, the first sweep (n = 0) included."""

    def select(self, n, num_scenarios, last_activated, rng) -> np.ndarray:
        return np.arange(num_scenarios)


@dataclass(frozen=True)
class RoundRobin:
    """Cyclic contiguous blocks of a fixed size, an integer >= 1.

    The first sweep (n = 0) takes every scenario: it must see them all.
    """

    block_size: int = 1

    def __post_init__(self):
        integers("block_size", [self.block_size], 1, kinds="an integer")

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
    replacement.  The first sweep (n = 0) must see every scenario: it
    takes them all and draws nothing from the rng.  Fully deterministic
    for a fixed seed.  All three settings are integers.
    """

    block_size: int = 1
    cover_window: int = 1
    seed: int = 0

    def __post_init__(self):
        integers("block_size", [self.block_size], 1, kinds="an integer")
        integers("cover_window", [self.cover_window], 0, kinds="an integer")
        integers("seed", [self.seed], 0, kinds="an integer")

    def select(self, n, num_scenarios, last_activated, rng) -> np.ndarray:
        if n == 0:
            return np.arange(num_scenarios)
        waited = last_activated <= n - self.cover_window - 1
        if not waited.any():
            # a choice from range(num_scenarios) draws what one from its index array draws
            size = min(self.block_size, num_scenarios)
            return np.sort(rng.choice(num_scenarios, size=size, replace=False))
        overdue = np.flatnonzero(waited)
        rest = np.flatnonzero(~waited)
        slots = min(max(self.block_size - overdue.size, 0), rest.size)
        picked = rng.choice(rest, size=slots, replace=False) if slots else rest[:0]
        return np.sort(np.concatenate([overdue, picked]))


ActivationSchedule = Union[FullActivation, RoundRobin, SeededRandom]


# ---------------------------------------------------------------------------
# configuration, state, results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    """Step sizes, activation schedule and stopping rules.

    ``gamma``, ``mu`` and ``lambda_rule`` are one number each, read by the
    step rule of :mod:`operators` as every solver's steps are, and stored as
    a Python float; ``lambda_rule`` must also be below 2 (``ConfigError``).
    The other settings follow the input rules; ``record_timing`` must be a
    bool (``np.bool_`` included) and ``schedule`` one of the three schedules.
    The checks run in the order schedule, stopping settings, steps.
    """

    gamma: float = 1.0
    mu: float = 1.0
    lambda_rule: float = 1.0
    schedule: ActivationSchedule = field(default_factory=FullActivation)
    tol: float = 1e-8
    max_iter: int = 100000
    trace_every: int = 1
    record_timing: bool = False

    def __post_init__(self):
        if not isinstance(self.schedule, get_args(ActivationSchedule)):
            raise ConfigError(
                "schedule must be a FullActivation, RoundRobin or SeededRandom, "
                f"got {self.schedule!r}"
            )
        if not _number("tol", self.tol) >= 0:
            raise ConfigError(f"tol must be nonnegative, got {self.tol}")
        integers("max_iter", [self.max_iter], 0, kinds="an integer")
        integers("trace_every", [self.trace_every], 1, kinds="an integer")
        if not isinstance(self.record_timing, (bool, np.bool_)):
            raise ConfigError(f"record_timing must be a bool, got {self.record_timing!r}")
        object.__setattr__(self, "gamma", check_step("gamma", self.gamma))
        object.__setattr__(self, "mu", check_step("mu", self.mu))
        lam = check_step("lambda", self.lambda_rule)  # named as the CLI's --lambda
        if lam >= 2.0:
            raise ConfigError(f"lambda must be below 2, got {lam}")
        object.__setattr__(self, "lambda_rule", lam)


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
    ``root`` is an (N, 1) column holding each scenario's last CVaR prox
    root at unit steps, from the stopping test of ``solve`` or a refresh at
    ``gamma = mu = 1``.  The root searches of a ``CvarAugmented`` scenario
    in that test and in ``iterate``'s own refresh start there (other
    scenarios ignore theirs); every other root search starts at t = 0.
    ``kappa``, ``tau`` and ``theta`` are the last coordination step's, and
    ``decrement`` is its bound on how far that step lowered the stopping
    test's residual.  ``work`` is this state's (3, N, d) workspace,
    into which each coordination step writes its direction (D, u, anti);
    nothing reads it between two steps.
    """

    iteration: int
    stack: np.ndarray
    last_activated: np.ndarray
    root: np.ndarray
    work: np.ndarray = field(repr=False)
    rng: Optional[np.random.Generator] = None
    active: np.ndarray = field(default_factory=lambda: np.arange(0))
    kappa: float = 0.0
    tau: float = 0.0
    theta: float = 0.0
    decrement: float = 0.0

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
    # whether ``residual`` is the stopping test's value, else a lower bound on it
    tested: bool = True

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
    last = np.full(n, -1, dtype=int)
    return SolverState(0, stack, last, np.zeros((n, 1)), np.empty((3, n, d)), rng)


def scenario_update(state: SolverState, problem: Problem, scenarios, gamma: float, mu: float):
    """Refresh the intermediates of a block of scenarios at the current iterate.

    ``scenarios`` is one index or an index array in any order; ``gamma``
    and ``mu`` are one finite positive number each, for every row.  Returns
    ``op_point``, ``op_dual``, ``set_point``, ``set_dual`` and ``gap`` as
    one (5, k, d) array, one row per scenario (a (5, d) array for a single
    index); op_dual lies in the operator's graph at op_point, set_dual in
    the normal cone of the constraint at set_point, by construction.
    """
    many = np.ndim(scenarios)
    n = problem.tree.num_scenarios
    rows = np.asarray(integers("scenarios", scenarios if many else [scenarios], 0, n), dtype=int)
    gamma, mu = check_step("gamma", gamma), check_step("mu", mu)
    block = state.stack[:3].take(rows, axis=1)
    op_point, set_point, _ = _points(problem, *block, gamma, mu, rows)
    out = _intermediates(block, problem, rows, gamma, mu, op_point, set_point)
    return out if many else out[:, 0]


def _points(
    problem: Problem, x, x_star, v_star, gamma=1.0, mu=1.0, rows=None, start=0.0
) -> tuple:
    """The refresh's resolvent and projection points of ``rows`` (None: all).

    ``J_A(x - gamma (x* + v*))`` and ``P_C(x + mu x*)``; at unit steps they
    give the two fixed-point terms of ``kkt_residual``.  The rows' CVaR prox
    root searches start at ``start``, a number or one root per row, and the
    roots found follow as a third entry.  A unit step is not multiplied by.
    """
    z = x - _scaled(gamma, x_star + v_star)
    projected = project_constraint_rows(problem.constraint_stack, x + _scaled(mu, x_star), rows)
    resolved, roots = resolvent_rows(problem.operator_stack, gamma, z, rows, start)
    return resolved, projected, roots


def _intermediates(block, problem, rows, gamma, mu, op_point, set_point, out=None):
    """The five refresh layers of ``rows`` (None: all) from their resolvent and projection points.

    ``block`` holds the rows' x, x* and v* as one (3, k, d) array.  The
    layers ``op_point``, ``op_dual = (x - op_point) / gamma - (x* + v*)``,
    ``set_point``, ``set_dual = x* + (x - set_point) / mu`` and ``gap``, the
    subspace's entries of ``set_point - op_point`` (0 elsewhere), are
    written into ``out``, a (5, k, d) array, new when None, which is
    returned.  ``gamma`` and ``mu`` are floats; one that is 1.0 is not
    divided by, as ``v / 1.0 == v``.
    """
    x, xs, vs = block
    if out is None:
        out = np.empty((5,) + x.shape)
    a, a_star, b, b_star, u = out
    np.copyto(a, op_point)
    np.copyto(b, set_point)
    np.add(xs, vs, out=u)
    np.subtract(x, op_point, out=a_star)
    if gamma != 1.0:
        a_star /= gamma
    a_star -= u
    np.subtract(x, set_point, out=b_star)
    if mu != 1.0:
        b_star /= mu
    b_star += xs  # float addition commutes, so this is x* + (x - set_point) / mu
    np.subtract(set_point, op_point, out=u)
    if not problem.full_mask:
        mask = problem.subspace_mask if rows is None else problem.subspace_mask.take(rows, axis=0)
        np.copyto(u, 0.0, where=~mask)
    return out


def _fixed_point_sq(tree, x, points) -> float:
    """Squared operator and constraint fixed-point gaps of x at ``points``."""
    gaps = np.empty((2,) + x.shape)
    np.subtract(x, points[0], out=gaps[0])
    np.subtract(x, points[1], out=gaps[1])
    return sum(policy._inners(tree, gaps, gaps))


def coordination_step(state: SolverState, problem: Problem, config: SolverConfig) -> SolverState:
    """Project the iterate onto the separating half-space and advance n.

    The direction (D, u, anti) is written into ``state.work`` and its
    three squared norms come from one batched inner product; the four
    terms of kappa from two more, against views of the stack.
    """
    tree = problem.tree
    stack, work = state.stack, state.work
    x, xs, vs, a, a_star, b, b_star, u = stack
    dual_avg, u_copy, anti = work
    np.add(a_star, b_star, out=dual_avg)
    policy._average(tree, dual_avg, out=dual_avg)
    policy._average(tree, a, out=anti)
    np.subtract(a, anti, out=anti)
    np.negative(anti, out=anti)
    np.copyto(u_copy, u)
    dd, uu, aa = policy._inners(tree, work, work)
    tau = dd + uu + aa
    if tau > 0.0:
        # x lies in the nonanticipative subspace throughout, so pairing it
        # with the averaged dual equals pairing it with the raw duals; the
        # grouped form below avoids cancellation between O(1) inner products
        # once the gaps are tiny: (x - a, a*), (x - b, b*), (u, x*), (anti, v*)
        terms = policy._inners(tree, x - stack[3:6:2], stack[4:7:2])
        terms += policy._inners(tree, work[1:], stack[1:3])
        kappa = terms[0] + terms[1] + terms[2] + terms[3]
        theta = config.lambda_rule * max(kappa, 0.0) / tau
    else:
        kappa = 0.0
        theta = 0.0
    # in place, with no (3, N, d) temporary
    work *= theta
    stack[:3] -= work
    state.kappa = kappa
    state.tau = tau
    state.theta = theta
    # the step moves x, x* and v* by -theta (D, u, anti), D = dual_avg being
    # orthogonal to anti; resolvents and projectors are nonexpansive, so the
    # operator gap moves by at most theta (|D| + |D - u - anti|) and the
    # constraint gap by at most theta (|D| + |D + u|): the stopping test's
    # residual falls by at most the hypot of the two
    d, u_norm = math.sqrt(dd), math.sqrt(uu)
    state.decrement = theta * math.hypot(d + math.sqrt(dd + aa) + u_norm, 2.0 * d + u_norm)
    state.iteration += 1
    return state


def iterate(state: SolverState, problem: Problem, config: SolverConfig, points=None) -> SolverState:
    """One full iteration: block refresh, then the coordination step.

    The refresh gathers the block's x, x* and v* (the view
    ``state.stack[:3]`` at full activation, else one ``take``), gets its
    points and writes its five layers: into ``state.stack[3:]`` at full
    activation, else scattered back once.  The points are ``points``, the
    stopping test's unit-step points of every row, when given and
    ``gamma`` and ``mu`` are 1.0, else ``_points`` of the block at those
    steps.  The block's CVaR root searches then start from its rows of
    ``state.root``, and at unit steps the roots found are kept there.
    """
    n = state.iteration
    num = problem.tree.num_scenarios
    active = np.asarray(
        config.schedule.select(n, num, state.last_activated, state.rng), dtype=int
    )
    gamma, mu = config.gamma, config.mu
    unit = gamma == 1.0 and mu == 1.0
    rows = None if active.size == num else active
    # take keeps each layer C-ordered; stack[:3, rows] interleaves the layers' rows
    block = state.stack[:3] if rows is None else state.stack[:3].take(rows, axis=1)
    if points is not None and unit:
        op_point, set_point = (p if rows is None else p.take(rows, axis=0) for p in points[:2])
    else:
        start = state.root if rows is None else state.root.take(rows, axis=0)
        op_point, set_point, roots = _points(problem, *block, gamma, mu, rows, start)
        if unit:
            state.root[slice(None) if rows is None else rows] = roots
    if rows is None:
        _intermediates(block, problem, None, gamma, mu, op_point, set_point, state.stack[3:])
    else:
        state.stack[3:, rows] = _intermediates(block, problem, rows, gamma, mu, op_point, set_point)
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
    anti = policy.project_nonanticipative_complement(tree, x)
    dual = policy.project_nonanticipative(tree, vs)
    total = (
        _fixed_point_sq(tree, x, _points(problem, x, xs, vs))
        + policy._inner(tree, anti, anti)
        + policy._inner(tree, dual, dual)
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
    total = _fixed_point_sq(problem.tree, x, points)
    return float(np.sqrt(max(total, 0.0))), points


# roundoff allowance of the residual bound of ``solve``, relative to the
# starting residual: the test runs once the bound is this close to tol.  A
# residual is computed to within roundoff of the iterates' scale, not of its
# own size (a CVaR root moves by an ulp with its start), so the allowance
# is scaled by the start's residual, not the last one
BOUND_MARGIN = 1e-9


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

    A block of all ``num_scenarios`` scenarios is ``range(num_scenarios)``
    under every schedule, so records of full blocks share one ``active``
    tuple; any other block gets its own.
    """

    def __init__(self, trace_every: int, record_timing: bool, num_scenarios: int):
        self.every = trace_every
        self.start = time.perf_counter() if record_timing else None
        self.trace = []
        self.full = tuple(range(num_scenarios))

    def record(self, n, residual, active, kappa=math.nan, tau=math.nan, theta=math.nan, tested=True):
        if n % self.every:
            return
        wall = 0.0 if self.start is None else (time.perf_counter() - self.start) * 1e3
        block = self.full if len(active) == len(self.full) else tuple(active.tolist())
        self.trace.append(TraceRecord(n, residual, kappa, tau, theta, block, wall, tested))

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
    them there).  Each coordination step lowers it by at most its
    ``decrement``, so the last tested residual less the decrements since
    is a lower bound on the residual before each step.  The test runs
    before step n only when that bound is at most ``tol`` plus
    ``BOUND_MARGIN`` times the starting residual, when it is not finite,
    or when n is ``max_iter``: a skipped test could not have stopped the
    run.  A test's unit-step points of every row are passed on
    to ``iterate``, and its CVaR prox roots start from ``state.root`` and
    are kept there as the next starts.  Trace row n holds the residual
    tested before step n (``tested``), else the bound, which is above
    ``tol``.  The solution's residual is always a tested one.  A step whose
    kappa, tau or theta is not finite ends the run with ``NON_FINITE``, the
    residual being the last one tested.
    """
    if config is None:
        config = SolverConfig()
    state = init_state(problem, config, x0, x0_star, v0_star)
    recorder = _Recorder(config.trace_every, config.record_timing, problem.tree.num_scenarios)
    tol, max_iter = config.tol, config.max_iter
    residual = bound = slack = math.nan
    while True:
        n = state.iteration
        points = None
        if not bound > tol + slack or n >= max_iter:
            residual, points = _stop_residual(
                problem, state.x, state.x_star, state.v_star, state.root
            )
            state.root = points[2]
            status = _status(residual, tol, n, max_iter)
            if status is not None:
                return recorder.solution(state.x, state.v_star, status, n, residual)
            bound = residual
            if n == 0:
                slack = BOUND_MARGIN * residual
        iterate(state, problem, config, points)
        tested = points is not None
        recorder.record(n, bound, state.active, state.kappa, state.tau, state.theta, tested)
        if callback is not None:
            callback(state)
        if not all(map(math.isfinite, (state.kappa, state.tau, state.theta))):
            status = SolveStatus.NON_FINITE
            return recorder.solution(state.x, state.v_star, status, state.iteration, residual)
        bound -= state.decrement


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
    x = v* = 0 with x* = 0.  ``SolverConfig`` checks the settings, by its
    rules and in its order (the stopping settings before ``gamma``).
    """
    gamma = SolverConfig(
        gamma=gamma, tol=tol, max_iter=max_iter, trace_every=trace_every, record_timing=record_timing
    ).gamma
    tree = problem.tree
    ops, cons = problem.operator_stack, problem.constraint_stack
    require_composite([g[0] for g in ops.groups], [g[0] for g in cons.groups])
    x = policy.zeros(tree)
    vs = policy.zeros(tree)
    everyone = np.arange(tree.num_scenarios)
    recorder = _Recorder(trace_every, record_timing, tree.num_scenarios)
    if max_iter == 0:
        residual, _ = _stop_residual(problem, x, policy.zeros(tree), vs)
        return recorder.solution(x, vs, _status(residual, tol, 0, 0), 0, residual)
    n = 0
    while True:
        sub = project_constraint_rows(cons, resolvent_rows(ops, gamma, x - gamma * vs)[0])
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
    for kind, members, _ in problem.constraint_stack.groups:
        # groups come in order of their first member, so this one names the lowest scenario
        if kind is not WholeSpace:
            raise NonTrivialConstraint(
                f"scenario {members[0]} has constraint {_kind_name(kind)}; the reduced "
                "variant needs unconstrained instances"
            )
    if config is None:
        config = SolverConfig()
    n = problem.tree.num_scenarios
    zero = Stack.from_groups([(Zero, np.arange(n), {})])
    reduced = Problem.from_stacks(problem.tree, problem.operator_stack, problem.constraint_stack, zero)
    config = replace(config, mu=1.0)

    def guard(state: SolverState):
        if np.any(state.x_star != 0.0) or np.any(state.gap != 0.0):
            raise AssertionError("reduced-variant invariant broken: nonzero multiplier")
        if callback is not None:
            callback(state)

    return solve(reduced, config, callback=guard)
