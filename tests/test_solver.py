import copy
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import (
    mixed_instance,
    quadratic_box_instance,
    random_tree,
    solve_testing_every_step,
    unconstrained_instance,
)

import scensplit.solver as solver_module
from scensplit import policy
from scensplit.errors import (
    ConfigError,
    DimensionMismatch,
    NonPositiveGamma,
    NonTrivialConstraint,
    UnsupportedComposite,
    ValidationError,
)
from scensplit.operators import (
    Ball,
    Box,
    Coordinates,
    DiagonalAffine,
    Full,
    GradSeparableQuadratic,
    WholeSpace,
    Zero,
)
from scensplit.solver import (
    BOUND_MARGIN,
    _points,
    FullActivation,
    Problem,
    RoundRobin,
    SeededRandom,
    SolveStatus,
    SolverConfig,
    Solution,
    coordination_step,
    init_state,
    iterate,
    kkt_residual,
    progressive_hedging_solve,
    scenario_update,
    solve,
    solve_reduced,
)
from scensplit.tree import build_tree


def single_tree():
    return build_tree([((0,), 1.0)], stage_dims=[1])


def pair_tree():
    # branches split after stage 1, so only the first coordinate is shared
    return build_tree([((0, 0), 0.5), ((1, 0), 0.5)], stage_dims=[1, 1])


def pair_problem():
    tree = pair_tree()
    ops = (
        GradSeparableQuadratic(q=[1.0, 1.0], c=[0.0, 0.2]),
        GradSeparableQuadratic(q=[1.0, 1.0], c=[1.0, 0.8]),
    )
    return Problem(tree, ops)


PAIR_X = np.array([[0.5, 0.2], [0.5, 0.8]])
PAIR_V = np.array([[-0.5, 0.0], [0.5, 0.0]])  # -(x - c), lies across scenarios


# --- problem validation ---

def test_problem_validation():
    tree = pair_tree()
    ops = (DiagonalAffine(a=[1.0, 1.0], b=[0.0, 0.0]),) * 2
    with pytest.raises(ValidationError):
        Problem(tree, ops[:1], (WholeSpace(),) * 2, (Full(),) * 2)
    with pytest.raises(DimensionMismatch):
        Problem(tree, (DiagonalAffine(a=[1.0], b=[0.0]),) * 2, (WholeSpace(),) * 2, (Full(),) * 2)
    with pytest.raises(DimensionMismatch):
        Problem(tree, ops, (WholeSpace(),) * 2, (Coordinates(indices=(5,)),) * 2)
    with pytest.raises(ValidationError, match="range condition violated for scenario 1"):
        Problem(
            tree,
            ops,
            (WholeSpace(), Ball(center=[0.0, 0.0], radius=1.0)),
            (Full(), Zero()),
        )


def test_problem_checks_each_spec_role():
    # a spec in the wrong role is refused when the problem is built
    tree = pair_tree()
    ops = (DiagonalAffine(a=[1.0, 1.0], b=[0.0, 0.0]),) * 2
    box = Box(lo=[0.0, 0.0], hi=[1.0, 1.0])
    with pytest.raises(ValidationError, match="operator 0 must be one of"):
        Problem(tree, (box,) * 2)
    with pytest.raises(ValidationError, match="constraint 1 must be one of"):
        Problem(tree, ops, constraints=(WholeSpace(), Full()))
    with pytest.raises(ValidationError, match="subspace 0 must be one of"):
        Problem(tree, ops, subspaces=(box, Full()))


def test_problem_defaults():
    # Problem(tree, ops) is Problem(tree, ops, whole spaces, full subspaces), group by group
    prob = pair_problem()
    assert all(isinstance(c, WholeSpace) for c in prob.constraints)
    assert all(isinstance(u, Full) for u in prob.subspaces)
    want = Problem(prob.tree, prob.operators, (WholeSpace(),) * 2, (Full(),) * 2)
    for role in ("operator_stack", "constraint_stack", "subspace_stack"):
        got, wanted = getattr(prob, role).groups, getattr(want, role).groups
        assert [kind for kind, _, _ in got] == [kind for kind, _, _ in wanted]
        for (_, members, coef), (_, want_members, want_coef) in zip(got, wanted):
            assert members.tolist() == want_members.tolist()
            assert [(c.dtype, c.tobytes()) for c in coef] == [(c.dtype, c.tobytes()) for c in want_coef]
    assert prob.subspace_mask.tolist() == want.subspace_mask.tolist()
    assert prob.full_mask is want.full_mask is True


# --- schedules ---

def test_full_activation_schedule():
    sched = FullActivation()
    assert_allclose(sched.select(13, 4, None, None), [0, 1, 2, 3])


def test_round_robin_pattern():
    sched = RoundRobin(block_size=1)
    got = [list(sched.select(n, 3, None, None)) for n in range(5)]
    assert got == [[0, 1, 2], [0], [1], [2], [0]]
    wide = RoundRobin(block_size=2)
    got = [list(wide.select(n, 3, None, None)) for n in range(4)]
    assert got == [[0, 1, 2], [0, 1], [2], [0, 1]]


def test_seeded_random_schedule():
    sched = SeededRandom(block_size=2, cover_window=3, seed=7)
    rng1 = np.random.default_rng(sched.seed)
    rng2 = np.random.default_rng(sched.seed)
    fresh = np.zeros(6, dtype=int)
    a = sched.select(1, 6, fresh, rng1)
    b = sched.select(1, 6, fresh, rng2)
    assert_allclose(a, b)
    assert a.size == 2 and np.all(np.diff(a) > 0)
    # a scenario that waited past the window is forced in
    stale = np.full(6, 9, dtype=int)
    stale[4] = 6
    picked = sched.select(10, 6, stale, np.random.default_rng(0))
    assert 4 in picked


def _old_seeded_select(sched, n, num_scenarios, last_activated, rng):
    # the set-difference formula that SeededRandom.select replaced
    if n == 0:
        return np.arange(num_scenarios)
    overdue = np.flatnonzero(last_activated <= n - sched.cover_window - 1)
    rest = np.setdiff1d(np.arange(num_scenarios), overdue, assume_unique=True)
    slots = min(max(sched.block_size - overdue.size, 0), rest.size)
    picked = rng.choice(rest, size=slots, replace=False) if slots else rest[:0]
    return np.sort(np.concatenate([overdue, picked]))


@pytest.mark.parametrize("block_size, cover_window", [(3, 0), (3, 4), (5, 9), (3, 400)])
def test_seeded_random_matches_set_difference_formula(block_size, cover_window):
    sched = SeededRandom(block_size=block_size, cover_window=cover_window, seed=13)
    rng_new = np.random.default_rng(sched.seed)
    rng_old = np.random.default_rng(sched.seed)
    last = np.full(40, -1, dtype=int)
    for n in range(2000):
        got = sched.select(n, 40, last, rng_new)
        want = _old_seeded_select(sched, n, 40, last, rng_old)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), n
        last[got] = n
    # both generators drew the same stream
    assert rng_new.integers(1 << 62) == rng_old.integers(1 << 62)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        RoundRobin(block_size=0)
    with pytest.raises(ConfigError):
        SeededRandom(block_size=1, cover_window=-1)


@pytest.mark.parametrize(
    "schedule, settings",
    [
        (RoundRobin, {"block_size": 1.5}),
        (RoundRobin, {"block_size": "2"}),
        (SeededRandom, {"block_size": 2.5}),
        (SeededRandom, {"block_size": 2, "cover_window": 1.5}),
        (SeededRandom, {"block_size": 2, "seed": 1.5}),
        (SeededRandom, {"block_size": 2, "seed": -1}),
        (RoundRobin, {"block_size": True}),
        (SeededRandom, {"block_size": np.True_}),
        (SeededRandom, {"block_size": 2, "cover_window": True}),
        (SeededRandom, {"block_size": 2, "seed": False}),
    ],
)
def test_schedule_settings_must_be_integers(schedule, settings):
    with pytest.raises(ConfigError):
        schedule(**settings)


def test_schedules_take_numpy_integers():
    rng = np.random.default_rng(39)
    prob = quadratic_box_instance(rng, random_tree(rng, 5, 2))
    for plain, numpy_ints in (
        (RoundRobin(block_size=2), RoundRobin(block_size=np.int64(2))),
        (
            SeededRandom(block_size=2, cover_window=3, seed=4),
            SeededRandom(block_size=np.int32(2), cover_window=np.int64(3), seed=np.uint8(4)),
        ),
    ):
        want = solve(prob, SolverConfig(schedule=plain, tol=1e-8))
        got = solve(prob, SolverConfig(schedule=numpy_ints, tol=1e-8))
        assert got.iterations == want.iterations
        assert np.array_equal(got.x_bar, want.x_bar)


# --- configuration ---

def test_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(gamma=[1.0, 5000.0])
    with pytest.raises(ConfigError):
        SolverConfig(mu=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(lambda_rule=2.0)
    with pytest.raises(ConfigError):
        SolverConfig(lambda_rule="fast")
    with pytest.raises(ConfigError):
        SolverConfig(lambda_rule=[1.0, 1.0])  # lambda has no per-scenario form
    with pytest.raises(ConfigError):
        SolverConfig(tol=-1.0)
    with pytest.raises(ConfigError):
        SolverConfig(max_iter=-1)
    with pytest.raises(ConfigError):
        SolverConfig(trace_every=0)
    with pytest.raises(ConfigError):
        SolverConfig(tol=float("nan"))
    SolverConfig(gamma=0.5, mu=2.0, lambda_rule=1.9)


@pytest.mark.parametrize("schedule", ["round-robin", None, RoundRobin, [FullActivation()]])
def test_config_rejects_unknown_schedules(schedule):
    # refused at construction, not at the first ``select`` of a solve
    with pytest.raises(ConfigError, match="schedule must be"):
        SolverConfig(schedule=schedule)


@pytest.mark.parametrize(
    "settings",
    [
        {"max_iter": 2.5},
        {"max_iter": "3"},
        {"trace_every": 1.5},
        {"trace_every": 2.0},
        {"max_iter": True},
        {"max_iter": np.True_},
        {"trace_every": True},
    ],
)
def test_integer_settings_must_be_integers(settings):
    with pytest.raises(ConfigError):
        SolverConfig(**settings)
    with pytest.raises(ConfigError):
        progressive_hedging_solve(pair_problem(), **settings)


def test_integer_settings_take_numpy_integers():
    prob = pair_problem()
    want = solve(prob, SolverConfig(tol=1e-16, max_iter=5, trace_every=2))
    got = solve(prob, SolverConfig(tol=1e-16, max_iter=np.int64(5), trace_every=np.int32(2)))
    assert (got.status, got.iterations) == (SolveStatus.MAX_ITER, 5)
    assert [r.n for r in got.trace] == [r.n for r in want.trace] == [0, 2, 4]
    ph = progressive_hedging_solve(prob, tol=0.0, max_iter=np.int64(4), trace_every=np.int32(3))
    assert (ph.status, ph.iterations) == (SolveStatus.MAX_ITER, 4)
    assert [r.n for r in ph.trace] == [0, 3]


@pytest.mark.parametrize("name", ["gamma", "mu", "lambda_rule"])
@pytest.mark.parametrize(
    "value, plain",
    [
        (np.float32(0.5), 0.5),
        (np.float64(0.8), 0.8),
        (np.int64(1), 1.0),
        (np.array(1.25), 1.25),
        (np.array([0.75])[0], 0.75),
    ],
)
def test_numpy_scalar_steps_match_plain_floats(name, value, plain):
    rng = np.random.default_rng(40)
    prob = quadratic_box_instance(rng, random_tree(rng, 4, 2))
    want = solve(prob, SolverConfig(tol=1e-8, **{name: plain}))
    got = solve(prob, SolverConfig(tol=1e-8, **{name: value}))
    assert got.status is SolveStatus.CONVERGED
    assert got.iterations == want.iterations
    assert np.array_equal(got.x_bar, want.x_bar)


@pytest.mark.parametrize("name", ["gamma", "mu", "lambda_rule"])
@pytest.mark.parametrize("value", ["fast", [[1.0]], np.ones((2, 2)), {"a": 1.0}, None])
def test_step_rules_reject_other_values(name, value):
    with pytest.raises(ConfigError):
        SolverConfig(**{name: value})


def test_steps_are_python_floats():
    # numpy numbers are stored as the floats they hold, so a config equals and
    # hashes like its plain-float twin, and replace checks the steps again
    cfg = SolverConfig(gamma=np.float32(0.5), mu=np.int64(1), lambda_rule=np.array(1.25))
    assert [type(v) for v in (cfg.gamma, cfg.mu, cfg.lambda_rule)] == [float] * 3
    twin = SolverConfig(gamma=0.5, mu=1.0, lambda_rule=1.25)
    assert cfg == twin and hash(cfg) == hash(twin)
    assert type(replace(cfg, mu=np.float64(2.0)).mu) is float
    with pytest.raises(ConfigError, match="mu must be positive, got 0.0"):
        replace(cfg, mu=0.0)
    with pytest.raises(ConfigError, match="lambda must be below 2, got 2.0"):
        replace(cfg, lambda_rule=2.0)


def test_config_takes_every_step_the_theorem_admits():
    # each step is one constant, so any gamma, mu > 0 and lambda in (0, 2)
    # lies in some window [eps, 1/eps], [eps, 2 - eps] of the convergence theorem
    cfg = SolverConfig(gamma=1e-6, mu=5e3, lambda_rule=1.9999)
    assert (cfg.gamma, cfg.mu, cfg.lambda_rule) == (1e-6, 5e3, 1.9999)


@pytest.mark.parametrize(
    "gamma, error",
    [
        (1e-6, None),
        (5e3, None),
        (np.float32(0.5), None),
        (0.0, NonPositiveGamma),
        (-1.0, NonPositiveGamma),
        (np.nan, NonPositiveGamma),
        (np.inf, ConfigError),
        (True, ConfigError),
        ("1", ConfigError),
        ([1.0], ConfigError),
    ],
)
def test_config_and_hedging_read_gamma_alike(gamma, error):
    calls = (
        lambda: SolverConfig(gamma=gamma),
        lambda: progressive_hedging_solve(pair_problem(), gamma=gamma, max_iter=1),
    )
    for call in calls:
        if error is None:
            call()
            continue
        with pytest.raises(error) as caught:
            call()
        assert type(caught.value) is error


def test_hedging_reports_faults_in_the_config_order():
    # the stopping settings are checked before the steps, as in SolverConfig
    with pytest.raises(ConfigError, match="tol must be nonnegative"):
        SolverConfig(gamma=0.0, tol=-1.0)
    with pytest.raises(ConfigError, match="tol must be nonnegative"):
        progressive_hedging_solve(pair_problem(), gamma=0.0, tol=-1.0)


@pytest.mark.parametrize("name", ["gamma", "mu"])
@pytest.mark.parametrize("step", [np.inf, np.array(np.inf)])
def test_scenario_update_refuses_infinite_steps(name, step):
    # an infinite step used to give NaN rows, with a RuntimeWarning
    rng = np.random.default_rng(38)
    prob = quadratic_box_instance(rng, random_tree(rng, 4, 2))
    state = init_state(prob, SolverConfig())
    steps = {"gamma": 1.0, "mu": 1.0, name: step}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            scenario_update(state, prob, np.arange(3), steps["gamma"], steps["mu"])


@pytest.mark.parametrize(
    "name, steps",
    [
        ("lambda", dict(lambda_rule=lambda n: "x")),
        ("gamma", dict(gamma=lambda i, n: None)),
        ("mu", dict(mu=lambda i, n: [1.0, 2.0])),
    ],
    ids=["lambda-string", "gamma-none", "mu-list"],
)
def test_callable_step_values_go_through_the_step_rule(name, steps):
    # a step is one number: a callable is read as a step is and refused at construction
    with pytest.raises(ConfigError, match=f"{name} must be a number, got <function"):
        SolverConfig(**steps)


# --- init_state ---

def test_init_state_projects_inputs():
    tree = pair_tree()
    part = Box(lo=[0.0, -np.inf], hi=[1.0, np.inf])
    prob = Problem(
        tree,
        (DiagonalAffine(a=[1.0, 1.0], b=[0.0, 0.0]),) * 2,
        (part,) * 2,
        (Coordinates(indices=(0,)),) * 2,
    )
    cfg = SolverConfig()
    state = init_state(
        prob,
        cfg,
        x0=[[1.0, 2.0], [3.0, 4.0]],
        x0_star=[[1.0, 1.0], [1.0, 1.0]],
        v0_star=[[1.0, 2.0], [3.0, 4.0]],
    )
    assert policy.is_nonanticipative(tree, state.x)
    assert_allclose(state.x[:, 0], [2.0, 2.0])
    assert_allclose(state.x_star, [[1.0, 0.0], [1.0, 0.0]])  # clipped to the subspace
    assert policy.norm(tree, policy.project_nonanticipative(tree, state.v_star)) < 1e-12
    assert state.iteration == 0
    assert np.all(state.last_activated == -1)


# --- one scenario refresh, by hand ---

def test_scenario_update_known_values():
    tree = single_tree()
    prob = Problem(tree, (DiagonalAffine(a=[1.0], b=[0.0]),))
    state = init_state(prob, SolverConfig())
    state.x[0, 0] = 2.0
    a, a_star, b, b_star, u = scenario_update(state, prob, 0, 1.0, 1.0)
    assert_allclose(a, [1.0])
    assert_allclose(a_star, [1.0])
    assert_allclose(b, [2.0])
    assert_allclose(b_star, [0.0])
    assert_allclose(u, [1.0])


def test_coordination_step_known_values():
    tree = single_tree()
    prob = Problem(tree, (DiagonalAffine(a=[1.0], b=[0.0]),))
    cfg = SolverConfig()
    state = init_state(prob, cfg)
    state.x[0, 0] = 2.0
    (
        state.op_point[0],
        state.op_dual[0],
        state.set_point[0],
        state.set_dual[0],
        state.gap[0],
    ) = scenario_update(state, prob, 0, 1.0, 1.0)
    coordination_step(state, prob, cfg)
    assert state.tau == pytest.approx(2.0)
    assert state.kappa == pytest.approx(1.0)
    assert state.theta == pytest.approx(0.5)
    assert_allclose(state.x, [[1.5]])
    assert_allclose(state.x_star, [[-0.5]])
    assert_allclose(state.v_star, [[0.0]])
    assert state.iteration == 1


def test_coordination_noop_when_tau_zero():
    tree = single_tree()
    prob = Problem(tree, (DiagonalAffine(a=[1.0], b=[0.0]),))
    cfg = SolverConfig()
    state = init_state(prob, cfg)  # all zeros is the exact solution here
    iterate(state, prob, cfg)
    assert state.tau == 0.0
    assert state.theta == 0.0
    assert_allclose(state.x, [[0.0]])


def test_coordination_noop_when_kappa_negative():
    tree = single_tree()
    prob = Problem(tree, (DiagonalAffine(a=[1.0], b=[0.0]),))
    cfg = SolverConfig()
    state = init_state(prob, cfg)
    state.op_point[0, 0] = 1.0
    state.op_dual[0, 0] = 1.0
    coordination_step(state, prob, cfg)
    assert state.kappa == pytest.approx(-1.0)
    assert state.theta == 0.0
    assert_allclose(state.x, [[0.0]])


def test_iterate_keeps_exact_solution_fixed():
    prob = pair_problem()
    cfg = SolverConfig(schedule=FullActivation())
    state = init_state(prob, cfg, x0=PAIR_X, v0_star=PAIR_V)
    iterate(state, prob, cfg)
    assert np.max(np.abs(state.x - PAIR_X)) <= 1e-10
    assert np.max(np.abs(state.v_star - PAIR_V)) <= 1e-10
    assert np.max(np.abs(state.x_star)) <= 1e-10


def test_stale_rows_kept_bitwise():
    rng = np.random.default_rng(31)
    tree = random_tree(rng, 5, 2)
    prob = quadratic_box_instance(rng, tree)
    cfg = SolverConfig(schedule=RoundRobin(block_size=2))
    state = init_state(prob, cfg)
    iterate(state, prob, cfg)  # n = 0 touches every row
    for _ in range(6):
        before = {
            name: getattr(state, name).copy()
            for name in ("op_point", "op_dual", "set_point", "set_dual", "gap")
        }
        iterate(state, prob, cfg)
        inactive = np.setdiff1d(np.arange(5), state.active)
        for name, old in before.items():
            new = getattr(state, name)
            assert np.array_equal(old[inactive], new[inactive])


# --- residual ---

def test_kkt_residual_known_value():
    two = build_tree([((0,), 1.0)], stage_dims=[2])
    prob = Problem(two, (GradSeparableQuadratic(q=[1.0, 1.0], c=[0.6, -0.8]),))
    z = np.zeros((1, 2))
    assert kkt_residual(prob, z, z, z) == pytest.approx(0.5)
    x = np.array([[0.6, -0.8]])
    assert kkt_residual(prob, x, z, z) == pytest.approx(0.0, abs=1e-15)


def test_kkt_residual_zero_at_pair_solution():
    prob = pair_problem()
    zero = np.zeros((2, 2))
    assert kkt_residual(prob, PAIR_X, zero, PAIR_V) == pytest.approx(0.0, abs=1e-15)


# --- solve ---

def test_solve_single_scenario_box():
    tree = build_tree([((0,), 1.0)], stage_dims=[2])
    prob = Problem(
        tree,
        (GradSeparableQuadratic(q=[1.0, 1.0], c=[0.3, 0.7]),),
        (Box(lo=[0.0, 0.0], hi=[1.0, 1.0]),),
        (Full(),),
    )
    sol = solve(prob, SolverConfig(tol=1e-10))
    assert sol.status is SolveStatus.CONVERGED
    assert_allclose(sol.x_bar, [[0.3, 0.7]], atol=1e-8)
    assert_allclose(sol.v_star_bar, [[0.0, 0.0]], atol=1e-8)


def test_solve_pair_recourse():
    sol = solve(pair_problem(), SolverConfig(tol=1e-10))
    assert sol.status is SolveStatus.CONVERGED
    assert_allclose(sol.x_bar, PAIR_X, atol=1e-7)
    assert_allclose(sol.v_star_bar, PAIR_V, atol=1e-7)


def test_solve_starts_at_solution():
    sol = solve(pair_problem(), SolverConfig(tol=1e-12), x0=PAIR_X, v0_star=PAIR_V)
    assert sol.status is SolveStatus.CONVERGED
    assert sol.iterations == 0
    assert sol.trace == ()


def test_solve_max_iter_status():
    sol = solve(pair_problem(), SolverConfig(tol=1e-16, max_iter=3))
    assert sol.status is SolveStatus.MAX_ITER
    assert sol.iterations == 3


def test_solve_trace_and_callback():
    seen = []
    cfg = SolverConfig(tol=1e-10, trace_every=2)
    sol = solve(pair_problem(), cfg, callback=lambda st: seen.append(st.iteration))
    assert len(seen) == sol.iterations
    assert [r.n for r in sol.trace] == list(range(0, sol.iterations, 2))
    for r in sol.trace:
        assert r.wall_ms == 0.0
        assert r.active_block_size == 2
        assert r.residual > 1e-10
    timed = solve(pair_problem(), SolverConfig(tol=1e-10, record_timing=True))
    walls = [r.wall_ms for r in timed.trace]
    assert all(w >= 0.0 for w in walls)
    assert walls == sorted(walls)


def test_solve_stops_on_non_finite_residual():
    nan_start = np.full((2, 2), np.nan)
    sol = solve(pair_problem(), SolverConfig(max_iter=50), x0=nan_start)
    assert sol.status is SolveStatus.NON_FINITE
    assert sol.iterations == 0
    assert not np.isfinite(sol.residual)


@pytest.mark.parametrize(
    "schedule, iterations",
    [
        (FullActivation(), 668),
        (RoundRobin(block_size=3), 2637),
        (SeededRandom(block_size=3, cover_window=10, seed=5), 2193),
    ],
)
def test_mixed_instance_iteration_counts(schedule, iterations):
    # exact counts: any change to the rounding of the refresh shows up here
    rng = np.random.default_rng(63)
    prob = mixed_instance(rng, random_tree(rng, 10, 3))
    sol = solve(prob, SolverConfig(schedule=schedule, tol=1e-6))
    assert sol.status is SolveStatus.CONVERGED
    assert sol.iterations == iterations


@pytest.mark.parametrize(
    "steps, iterations",
    [
        (dict(gamma=0.7, mu=1.3), 630),
    ],
)
def test_mixed_instance_iteration_counts_off_unit_steps(steps, iterations):
    # exact counts for refreshes that cannot reuse the unit-step stopping test
    rng = np.random.default_rng(63)
    prob = mixed_instance(rng, random_tree(rng, 10, 3))
    sol = solve(prob, SolverConfig(tol=1e-6, **steps))
    assert sol.status is SolveStatus.CONVERGED
    assert sol.iterations == iterations


@pytest.mark.parametrize(
    "schedule",
    [FullActivation(), RoundRobin(block_size=3), SeededRandom(block_size=3, cover_window=10, seed=5)],
)
def test_stopping_test_matches_kkt_residual(schedule):
    # the stopping test drops the two subspace terms of kkt_residual; they
    # stay at roundoff only while x and v* keep to their subspaces.  A row
    # whose test was skipped holds the bound, above tol and at most the
    # residual, within the roundoff margin of the starting residual
    rng = np.random.default_rng(63)
    prob = mixed_instance(rng, random_tree(rng, 10, 3))
    cfg = SolverConfig(schedule=schedule, tol=1e-6)
    start = init_state(prob, cfg)
    public = [kkt_residual(prob, start.x, start.x_star, start.v_star)]
    sol = solve(
        prob, cfg, callback=lambda st: public.append(kkt_residual(prob, st.x, st.x_star, st.v_star))
    )
    assert len(sol.trace) == sol.iterations
    assert sol.trace[0].tested
    margin = BOUND_MARGIN * sol.trace[0].residual
    for r in sol.trace:
        if r.tested:
            assert r.residual == pytest.approx(public[r.n], rel=1e-12, abs=0.0)
        else:
            assert cfg.tol < r.residual <= public[r.n] + margin
    assert sol.residual == pytest.approx(public[-1], rel=1e-12, abs=0.0)
    if not isinstance(schedule, FullActivation):
        assert not all(r.tested for r in sol.trace)


# step forms of the bitwise guards, as config settings: the default 1.0,
# numbers, gamma 1.0 alone, mu 1.0 alone, 1.0 as numpy numbers, and
# non-unit steps with over-relaxation
STEP_FORMS = [
    {},
    dict(gamma=0.7, mu=1.3),
    dict(gamma=1.0, mu=1.2),
    dict(gamma=0.8, mu=1.0),
    dict(gamma=np.float32(1.0), mu=np.int64(1)),
    dict(gamma=1.5, mu=0.6, lambda_rule=1.5),
]
SCHEDULES = [
    FullActivation(),
    RoundRobin(block_size=4),
    SeededRandom(block_size=3, cover_window=10, seed=5),
]
SCHEDULE_IDS = ["full", "round-robin", "seeded"]


@pytest.mark.parametrize("steps", STEP_FORMS, ids=[f"steps{i}" for i in range(len(STEP_FORMS))])
def test_iterate_with_unit_points_matches_plain_iterate(steps):
    # the refresh reuses the stopping test's points only when gamma and mu are 1.0
    for schedule in SCHEDULES:
        rng = np.random.default_rng(64)
        prob = mixed_instance(rng, random_tree(rng, 10, 3))
        cfg = SolverConfig(schedule=schedule, **steps)
        state = init_state(prob, cfg)
        for _ in range(5):
            iterate(state, prob, cfg)
        plain, reused = copy.deepcopy(state), copy.deepcopy(state)
        iterate(plain, prob, cfg)
        iterate(reused, prob, cfg, _points(prob, reused.x, reused.x_star, reused.v_star))
        assert np.array_equal(plain.stack.view(np.uint64), reused.stack.view(np.uint64)), schedule


@pytest.mark.parametrize("schedule", SCHEDULES, ids=SCHEDULE_IDS)
@pytest.mark.parametrize(
    "steps", [STEP_FORMS[i] for i in (1, 2, 3)], ids=["numbers", "unit-gamma", "unit-mu"]
)
def test_iterate_refresh_is_scenario_update_at_non_unit_steps(steps, schedule):
    # the active rows get the bits of the public refresh, the idle rows keep theirs
    rng = np.random.default_rng(68)
    prob = mixed_instance(rng, random_tree(rng, 10, 3))
    n = prob.tree.num_scenarios
    cfg = SolverConfig(schedule=schedule, **steps)
    x0, xs0, v0 = rng.standard_normal((3, n, prob.tree.total_dim))
    state = init_state(prob, cfg, x0, xs0, v0)
    for _ in range(8):
        before = copy.deepcopy(state)
        iterate(state, prob, cfg, _points(prob, state.x, state.x_star, state.v_star))
        rows = state.active
        want = scenario_update(before, prob, rows, cfg.gamma, cfg.mu)
        assert np.array_equal(state.stack[3:, rows].view(np.uint64), want.view(np.uint64))
        idle = np.setdiff1d(np.arange(n), rows)
        kept = before.stack[3:, idle].view(np.uint64)
        assert np.array_equal(state.stack[3:, idle].view(np.uint64), kept)


def test_state_names_are_views_of_one_stack():
    rng = np.random.default_rng(66)
    prob = mixed_instance(rng, random_tree(rng, 6, 3))
    cfg = SolverConfig(schedule=RoundRobin(block_size=4))
    state = init_state(prob, cfg)
    iterate(state, prob, cfg)
    twin = copy.deepcopy(state)
    names = ("x", "x_star", "v_star", "op_point", "op_dual", "set_point", "set_dual", "gap")
    for st in (state, twin):
        assert st.stack.shape == (8, 6, prob.tree.total_dim)
        for i, name in enumerate(names):
            assert getattr(st, name).base is st.stack
            assert np.array_equal(getattr(st, name), st.stack[i])
    assert not np.shares_memory(twin.stack, state.stack)
    state.x[0, 0] = 2.0
    assert state.stack[0, 0, 0] == 2.0 and twin.x[0, 0] != 2.0
    with pytest.raises(AttributeError):
        state.gap = np.zeros_like(state.gap)


def seven_inner_products_step(state, problem, config):
    """The coordination step with one single-pair ``einsum`` per inner product."""
    tree = problem.tree
    weights = tree.weights.reshape(state.x.shape)

    def inner(x, y):
        return float(np.einsum("si,si,si->", weights, x, y))

    x, xs, vs, a, a_star, b, b_star, u = state.stack
    dual_avg = policy._average(tree, a_star + b_star)
    anti = -(a - policy._average(tree, a))
    dd, uu, aa = (inner(w, w) for w in (dual_avg, u, anti))
    tau = dd + uu + aa
    if tau > 0.0:
        kappa = inner(x - a, a_star) + inner(x - b, b_star) + inner(u, xs) + inner(anti, vs)
        theta = config.lambda_rule * max(kappa, 0.0) / tau
    else:
        kappa = theta = 0.0
    x -= theta * dual_avg
    xs -= theta * u
    vs -= theta * anti
    state.kappa, state.tau, state.theta = kappa, tau, theta
    d, u_norm = math.sqrt(dd), math.sqrt(uu)
    state.decrement = theta * math.hypot(d + math.sqrt(dd + aa) + u_norm, 2.0 * d + u_norm)
    state.iteration += 1
    return state


SCHEDULES = [FullActivation(), RoundRobin(block_size=3), SeededRandom(block_size=2, cover_window=4, seed=5)]


@pytest.mark.parametrize("stages", [2, 3, 4, 5])
@pytest.mark.parametrize("schedule", SCHEDULES, ids=["full", "round-robin", "seeded"])
@pytest.mark.parametrize("steps", [(1.0, 1.0, 1.0), (0.7, 1.3, 1.5)], ids=["unit", "non-unit"])
@pytest.mark.parametrize("build", [quadratic_box_instance, mixed_instance], ids=["full-mask", "masked"])
def test_batched_coordination_matches_seven_inner_products(stages, schedule, steps, build, monkeypatch):
    rng = np.random.default_rng(10 * stages + len(steps))
    prob = build(rng, random_tree(rng, 7, stages))
    assert prob.full_mask == (build is quadratic_box_instance)
    gamma, mu, lam = steps
    cfg = SolverConfig(gamma=gamma, mu=mu, lambda_rule=lam, schedule=schedule)
    x0, xs0, v0 = rng.standard_normal((3, 7, prob.tree.total_dim))
    state = init_state(prob, cfg, x0, xs0, v0)
    twin = copy.deepcopy(state)
    thetas = []
    for _ in range(12):
        iterate(state, prob, cfg)
        thetas.append(state.theta)
        with monkeypatch.context() as m:
            m.setattr(solver_module, "coordination_step", seven_inner_products_step)
            iterate(twin, prob, cfg)
        got = (state.kappa, state.tau, state.theta, state.decrement)
        want = (twin.kappa, twin.tau, twin.theta, twin.decrement)
        assert all(type(v) is float for v in got)
        assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))
        assert np.array_equal(state.stack.view(np.uint64), twin.stack.view(np.uint64))
        assert state.iteration == twin.iteration
    assert max(thetas) > 0.0


def test_each_state_has_its_own_workspace():
    rng = np.random.default_rng(67)
    prob = mixed_instance(rng, random_tree(rng, 6, 3))
    cfg = SolverConfig(schedule=SeededRandom(block_size=2, cover_window=3, seed=4))
    n, d = 6, prob.tree.total_dim
    starts = [rng.standard_normal((3, n, d)) for _ in range(2)]
    first, second = (init_state(prob, cfg, *s) for s in starts)
    assert first.work.shape == (3, n, d) and first.stack.shape == (8, n, d)
    assert not np.shares_memory(first.work, second.work)
    assert not np.shares_memory(first.work, first.stack)
    twin = copy.deepcopy(first)
    assert not np.shares_memory(twin.work, first.work)
    # the two states iterated in turn, then each alone from its start
    for _ in range(10):
        iterate(first, prob, cfg)
        iterate(second, prob, cfg)
    for state, start in zip((first, second), starts):
        alone = init_state(prob, cfg, *start)
        for _ in range(10):
            iterate(alone, prob, cfg)
        assert np.array_equal(alone.stack.view(np.uint64), state.stack.view(np.uint64))
        assert (alone.kappa, alone.tau, alone.theta) == (state.kappa, state.tau, state.theta)
    # the copy, iterated after its original moved on, gives what the original gave
    for _ in range(10):
        iterate(twin, prob, cfg)
    assert np.array_equal(twin.stack.view(np.uint64), first.stack.view(np.uint64))


def test_full_blocks_share_one_active_tuple():
    rng = np.random.default_rng(65)
    prob = quadratic_box_instance(rng, random_tree(rng, 6, 3))
    for sol in (solve(prob, SolverConfig(tol=1e-10)), progressive_hedging_solve(prob, tol=1e-10)):
        assert len(sol.trace) >= 2
        assert sol.trace[0].active == tuple(range(6))
        assert all(r.active is sol.trace[0].active for r in sol.trace)
    # a block run records each block as its own tuple of ints, the first sweep as the full one
    blocks = []
    cfg = SolverConfig(tol=1e-10, schedule=SeededRandom(block_size=2, cover_window=6, seed=3))
    sol = solve(prob, cfg, callback=lambda st: blocks.append(st.active.tolist()))
    assert [list(r.active) for r in sol.trace] == blocks
    assert all(type(i) is int for r in sol.trace for i in r.active)
    assert sol.trace[0].active == tuple(range(6)) and len(sol.trace[1].active) == 2


def test_solve_outputs_live_in_subspaces():
    rng = np.random.default_rng(33)
    tree = random_tree(rng, 5, 3)
    prob = quadratic_box_instance(rng, tree)
    sol = solve(prob, SolverConfig(tol=1e-9))
    assert sol.status is SolveStatus.CONVERGED
    assert policy.is_nonanticipative(tree, sol.x_bar, tol=1e-8)
    assert policy.norm(tree, policy.project_nonanticipative(tree, sol.v_star_bar)) <= 1e-8


def test_seeded_random_runs_are_deterministic():
    rng = np.random.default_rng(34)
    tree = random_tree(rng, 6, 2)
    prob = quadratic_box_instance(rng, tree)
    cfg = SolverConfig(tol=1e-9, schedule=SeededRandom(block_size=2, cover_window=6, seed=11))
    a = solve(prob, cfg)
    b = solve(prob, cfg)
    assert a.iterations == b.iterations
    assert np.array_equal(a.x_bar, b.x_bar)
    assert [r.active for r in a.trace] == [r.active for r in b.trace]


# --- progressive hedging ---

def test_progressive_hedging_trivial_instance():
    tree = pair_tree()
    prob = Problem(tree, (DiagonalAffine(a=[0.0, 0.0], b=[0.0, 0.0]),) * 2)
    sol = progressive_hedging_solve(prob)
    assert sol.status is SolveStatus.CONVERGED
    assert sol.iterations == 1
    assert_allclose(sol.x_bar, np.zeros((2, 2)))


def test_progressive_hedging_matches_block_solver():
    rng = np.random.default_rng(35)
    tree = random_tree(rng, 4, 2)
    prob = quadratic_box_instance(rng, tree)
    ph = progressive_hedging_solve(prob, tol=1e-10)
    blk = solve(prob, SolverConfig(tol=1e-10))
    assert ph.status is SolveStatus.CONVERGED
    assert_allclose(ph.x_bar, blk.x_bar, atol=1e-6)


@pytest.mark.parametrize(
    "seed, scenarios, stages, gamma, iterations",
    [
        (35, 4, 2, 1.0, 54),
        (65, 6, 3, 1.0, 42),
        (66, 8, 3, 0.5, 42),
        (67, 8, 3, 2.0, 85),
        (68, 10, 3, 1.0, 45),
    ],
)
def test_progressive_hedging_iteration_counts(seed, scenarios, stages, gamma, iterations):
    # exact counts: any change to the hedging step or its stopping test shows up here
    rng = np.random.default_rng(seed)
    prob = quadratic_box_instance(rng, random_tree(rng, scenarios, stages))
    sol = progressive_hedging_solve(prob, gamma=gamma, tol=1e-9)
    assert sol.status is SolveStatus.CONVERGED
    assert sol.iterations == iterations


def test_progressive_hedging_max_iter_status():
    rng = np.random.default_rng(65)
    prob = quadratic_box_instance(rng, random_tree(rng, 6, 3))
    sol = progressive_hedging_solve(prob, tol=0.0, max_iter=3)
    assert sol.status is SolveStatus.MAX_ITER
    assert sol.iterations == 3
    assert [r.n for r in sol.trace] == [0, 1, 2]


def test_progressive_hedging_zero_budget_takes_no_step():
    rng = np.random.default_rng(65)
    prob = quadratic_box_instance(rng, random_tree(rng, 6, 3))
    sol = progressive_hedging_solve(prob, max_iter=0)
    zeros = np.zeros_like(sol.x_bar)
    assert (sol.status, sol.iterations, sol.trace) == (SolveStatus.MAX_ITER, 0, ())
    assert sol.residual == kkt_residual(prob, zeros, zeros, zeros) > 0.0
    assert np.array_equal(sol.x_bar, zeros) and np.array_equal(sol.v_star_bar, zeros)
    # the same answer as ``solve`` from the same start, also where it meets tol
    for tol in (1e-8, 1e9):
        ph = progressive_hedging_solve(prob, tol=tol, max_iter=0)
        sv = solve(prob, SolverConfig(tol=tol, max_iter=0))
        assert (ph.status, ph.iterations, ph.residual) == (sv.status, sv.iterations, sv.residual)
    assert ph.status is SolveStatus.CONVERGED


def test_progressive_hedging_trace_sampling_and_timing():
    rng = np.random.default_rng(65)
    prob = quadratic_box_instance(rng, random_tree(rng, 6, 3))
    full = progressive_hedging_solve(prob, tol=1e-9)
    assert [r.n for r in full.trace] == list(range(full.iterations))
    assert all(r.wall_ms == 0.0 for r in full.trace)
    halved = progressive_hedging_solve(prob, tol=1e-9, trace_every=2)
    assert halved.iterations == full.iterations
    assert [(r.n, r.residual) for r in halved.trace] == [(r.n, r.residual) for r in full.trace[::2]]
    timed = progressive_hedging_solve(prob, tol=1e-9, record_timing=True)
    walls = [r.wall_ms for r in timed.trace]
    assert all(w >= 0.0 for w in walls)
    assert walls == sorted(walls)


def test_progressive_hedging_stops_on_non_finite_residual():
    # finite data whose resolvent overflows: the first step turns x infinite
    prob = Problem(pair_tree(), (DiagonalAffine(a=[0.0, 0.0], b=[1e308, 1e308]),) * 2)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = progressive_hedging_solve(prob, gamma=2.0, max_iter=50)
    assert sol.status is SolveStatus.NON_FINITE
    assert sol.iterations == 1
    assert not np.isfinite(sol.residual)


def test_progressive_hedging_rejects_unsupported():
    tree = pair_tree()
    prob = Problem(
        tree,
        (DiagonalAffine(a=[1.0, 1.0], b=[0.0, 0.0]),) * 2,
        (Ball(center=[0.0, 0.0], radius=1.0),) * 2,
        (Full(),) * 2,
    )
    with pytest.raises(UnsupportedComposite):
        progressive_hedging_solve(prob)
    with pytest.raises(Exception):
        progressive_hedging_solve(pair_problem(), gamma=0.0)


@pytest.mark.parametrize(
    "settings",
    [
        {"tol": float("nan")},
        {"tol": -1.0},
        {"max_iter": -3},
        {"trace_every": 0},
        {"tol": True},
        {"tol": np.False_},
        {"tol": "1e-6"},
        {"tol": None},
        {"tol": np.array([1e-6, 1e-6])},
    ],
)
def test_progressive_hedging_checks_settings_like_config(settings):
    with pytest.raises(ConfigError):
        SolverConfig(**settings)
    with pytest.raises(ConfigError):
        progressive_hedging_solve(pair_problem(), **settings)


@pytest.mark.parametrize("gamma", [True, np.True_, "1", None, [1.0], np.array([1.0]), np.inf])
def test_progressive_hedging_rejects_non_numbers_and_infinite_gamma(gamma):
    with pytest.raises(ConfigError, match="gamma"):
        progressive_hedging_solve(pair_problem(), gamma=gamma)


def test_progressive_hedging_takes_numpy_gamma():
    want = progressive_hedging_solve(pair_problem(), gamma=0.5, tol=1e-10)
    for gamma in (np.float64(0.5), np.float32(0.5), np.array(0.5)):
        got = progressive_hedging_solve(pair_problem(), gamma=gamma, tol=1e-10)
        assert got.iterations == want.iterations
        assert np.array_equal(got.x_bar, want.x_bar)
    with pytest.raises(NonPositiveGamma):
        progressive_hedging_solve(pair_problem(), gamma=-np.inf)


@pytest.mark.parametrize("flag", ["no", 1, 0.0, None, np.float64(1.0)])
def test_record_timing_must_be_a_bool(flag):
    with pytest.raises(ConfigError, match="record_timing"):
        SolverConfig(record_timing=flag)
    with pytest.raises(ConfigError, match="record_timing"):
        progressive_hedging_solve(pair_problem(), record_timing=flag)


def test_record_timing_takes_numpy_bools():
    assert SolverConfig(record_timing=np.True_).record_timing
    sol = progressive_hedging_solve(pair_problem(), tol=1e-10, record_timing=np.False_)
    assert all(r.wall_ms == 0.0 for r in sol.trace)


def test_progressive_hedging_rejects_nan_gamma():
    with pytest.raises(NonPositiveGamma):
        progressive_hedging_solve(pair_problem(), gamma=float("nan"))


# --- reduced variant ---

def test_solve_reduced_matches_full():
    rng = np.random.default_rng(36)
    tree = random_tree(rng, 4, 2)
    prob = unconstrained_instance(quadratic_box_instance(rng, tree))
    red = solve_reduced(prob, SolverConfig(tol=1e-10))
    full = solve(prob, SolverConfig(tol=1e-10))
    assert red.status is SolveStatus.CONVERGED
    assert_allclose(red.x_bar, full.x_bar, atol=1e-6)


def test_solve_reduced_defaults_to_the_default_config():
    rng = np.random.default_rng(37)
    prob = unconstrained_instance(quadratic_box_instance(rng, random_tree(rng, 3, 2)))
    got, want = solve_reduced(prob), solve_reduced(prob, SolverConfig())
    assert got.status is SolveStatus.CONVERGED
    assert got.iterations == want.iterations
    assert np.array_equal(got.x_bar, want.x_bar) and np.array_equal(got.v_star_bar, want.v_star_bar)


def test_solve_reduced_rejects_constraints():
    rng = np.random.default_rng(37)
    tree = random_tree(rng, 3, 2)
    prob = quadratic_box_instance(rng, tree)
    with pytest.raises(NonTrivialConstraint):
        solve_reduced(prob)


def test_solve_reduced_names_the_first_constrained_scenario():
    # the WholeSpace group comes first; the lowest constrained scenario is a Ball
    tree = build_tree([((i,), 0.25) for i in range(4)], [2])
    ops = (DiagonalAffine(a=[1.0, 1.0], b=[0.0, 0.0]),) * 4
    box = Box(lo=[0.0, 0.0], hi=[1.0, 1.0])
    cons = (WholeSpace(), Ball(center=[0.0, 0.0], radius=1.0), box, box)
    with pytest.raises(NonTrivialConstraint, match="^scenario 1 has constraint Ball;"):
        solve_reduced(Problem(tree, ops, cons, (Full(),) * 4))


def test_solution_is_frozen():
    sol = solve(pair_problem(), SolverConfig(tol=1e-8))
    assert isinstance(sol, Solution)
    with pytest.raises(AttributeError):
        sol.iterations = 0


@pytest.mark.parametrize(
    "instance", [mixed_instance, quadratic_box_instance], ids=["mixed", "qbox"]
)
@pytest.mark.parametrize("schedule", SCHEDULES, ids=SCHEDULE_IDS)
def test_iterate_from_stopping_points_is_bitwise_on_every_layer(instance, schedule):
    # the refresh from the stopping test's points writes the bits the
    # refresh's own evaluation writes, on all eight stack layers, at every
    # step form (points are taken only when gamma and mu are 1.0)
    for steps in STEP_FORMS:
        rng = np.random.default_rng(67)
        prob = instance(rng, random_tree(rng, 10, 3))
        cfg = SolverConfig(schedule=schedule, **steps)
        x0, xs0, v0 = rng.standard_normal((3, prob.tree.num_scenarios, prob.tree.total_dim))
        state = init_state(prob, cfg, x0, xs0, v0)
        for _ in range(12):
            plain = copy.deepcopy(state)
            iterate(plain, prob, cfg)
            iterate(state, prob, cfg, _points(prob, state.x, state.x_star, state.v_star))
            assert np.array_equal(state.active, plain.active)
            assert (state.kappa, state.tau, state.theta) == (plain.kappa, plain.tau, plain.theta)
            assert np.array_equal(state.stack.view(np.uint64), plain.stack.view(np.uint64))


def test_solve_stops_when_a_coordination_step_overflows():
    # tau overflows to inf, so theta = 0 and the iterate would never move
    prob = Problem(build_tree([(("a",), 1.0)], (1,)), [DiagonalAffine(a=[0.0], b=[0.0])])
    sol = solve(prob, SolverConfig(max_iter=2000), x0_star=[[8e153]])
    assert sol.status is SolveStatus.NON_FINITE
    assert sol.iterations == 1
    assert len(sol.trace) == 1 and sol.trace[0].tau == np.inf
    assert np.isfinite(sol.residual)
    # a start that keeps tau finite converges in one step
    sol = solve(prob, SolverConfig(max_iter=2000), x0_star=[[1e100]])
    assert sol.status is SolveStatus.CONVERGED
    assert sol.iterations == 1


def _as_tested_every_step(prob, cfg, callback=None):
    """``solve``, once its status, iterations, residual, x and v* are checked
    against the loop that tests before every step, bit for bit."""
    sol = solve(prob, cfg, callback=callback)
    status, iterations, residual, x, v_star = solve_testing_every_step(prob, cfg)
    assert (sol.status, sol.iterations) == (status, iterations)
    assert np.array_equal(np.float64(sol.residual).view(np.uint64), np.float64(residual).view(np.uint64))
    assert np.array_equal(sol.x_bar.view(np.uint64), x.view(np.uint64))
    assert np.array_equal(sol.v_star_bar.view(np.uint64), v_star.view(np.uint64))
    return sol


@pytest.mark.parametrize("steps", [{}, dict(gamma=0.7, mu=1.3)], ids=["unit", "non-unit"])
@pytest.mark.parametrize("schedule", SCHEDULES, ids=SCHEDULE_IDS)
@pytest.mark.parametrize(
    "instance", [mixed_instance, quadratic_box_instance], ids=["mixed", "qbox"]
)
def test_skipped_tests_keep_the_run_that_tests_every_step(instance, schedule, steps):
    # a test is skipped only while a lower bound on its residual is above
    # tol, and the refresh of a skipped test computes the points the test
    # would have passed on
    skipped = 0
    for stages in range(2, 7):
        rng = np.random.default_rng(90 + stages)
        prob = instance(rng, random_tree(rng, 8, stages))
        sol = _as_tested_every_step(prob, SolverConfig(schedule=schedule, tol=1e-7, max_iter=600, **steps))
        skipped += sum(not r.tested for r in sol.trace)
    if not isinstance(schedule, FullActivation):
        assert skipped > 0


def _block_run():
    rng = np.random.default_rng(63)
    prob = mixed_instance(rng, random_tree(rng, 10, 3))
    cfg = SolverConfig(schedule=RoundRobin(block_size=3), tol=1e-6)
    # the first step whose test is skipped
    return prob, cfg, next(r.n for r in solve(prob, cfg).trace if not r.tested)


def test_max_iter_ends_on_a_tested_residual():
    # the budget ends where the unbounded run skips its test
    prob, cfg, n = _block_run()
    final = []
    sol = _as_tested_every_step(prob, replace(cfg, max_iter=n), callback=final.append)
    assert sol.status is SolveStatus.MAX_ITER and sol.iterations == n
    last = final[-1]
    assert sol.residual == pytest.approx(
        kkt_residual(prob, last.x, last.x_star, last.v_star), rel=1e-12, abs=0.0
    )


def test_zero_tol_runs_to_max_iter():
    prob, cfg, _ = _block_run()
    sol = _as_tested_every_step(prob, replace(cfg, tol=0.0, max_iter=400))
    assert sol.status is SolveStatus.MAX_ITER and sol.iterations == 400
    assert any(not r.tested for r in sol.trace)


def test_block_run_that_turns_non_finite_stops():
    # x turns NaN right before a step whose test is skipped: that step's
    # kappa and tau are NaN, which ends the run, with the last tested residual
    prob, cfg, n = _block_run()

    def poison(state):
        if state.iteration == n:
            state.x[:] = np.nan

    sol = solve(prob, cfg, callback=poison)
    assert sol.status is SolveStatus.NON_FINITE and sol.iterations == n + 1
    assert not sol.trace[n].tested and np.isnan(sol.trace[n].tau)
    tested = [r.residual for r in sol.trace if r.tested]
    assert np.isfinite(sol.residual) and sol.residual == tested[-1]
    status, iterations, *_ = solve_testing_every_step(prob, cfg, poison)
    assert status is SolveStatus.NON_FINITE and iterations == n
