import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import mixed_instance, quadratic_box_instance, random_tree, unconstrained_instance

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
    resolvent_rows,
)
from scensplit.solver import (
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
    make_problem,
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
    return make_problem(tree, ops)


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


def test_make_problem_defaults():
    prob = pair_problem()
    assert all(isinstance(c, WholeSpace) for c in prob.constraints)
    assert all(isinstance(u, Full) for u in prob.subspaces)


# --- schedules ---

def test_full_activation_schedule():
    sched = FullActivation()
    assert sched.cover_window(7) == 0
    assert_allclose(sched.select(13, 4, None, None), [0, 1, 2, 3])


def test_round_robin_pattern():
    sched = RoundRobin(block_size=1)
    assert sched.cover_window(3) == 2
    got = [list(sched.select(n, 3, None, None)) for n in range(5)]
    assert got == [[0, 1, 2], [0], [1], [2], [0]]
    wide = RoundRobin(block_size=2)
    assert wide.cover_window(3) == 1
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


def test_schedule_validation():
    with pytest.raises(ConfigError):
        RoundRobin(block_size=0)
    with pytest.raises(ConfigError):
        SeededRandom(block_size=1, cover_window=-1)


# --- configuration ---

def test_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(epsilon=1.5)
    with pytest.raises(ConfigError):
        SolverConfig(gamma=1e-6)  # below epsilon
    with pytest.raises(ConfigError):
        SolverConfig(gamma=[1.0, 5000.0])
    with pytest.raises(ConfigError):
        SolverConfig(mu=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(lambda_rule=2.0)  # above 2 - epsilon
    with pytest.raises(ConfigError):
        SolverConfig(lambda_rule="fast")
    with pytest.raises(ConfigError):
        SolverConfig(tol=-1.0)
    with pytest.raises(ConfigError):
        SolverConfig(max_iter=-1)
    with pytest.raises(ConfigError):
        SolverConfig(trace_every=0)
    with pytest.raises(ConfigError):
        SolverConfig(tol=float("nan"))
    with pytest.raises(ConfigError):
        SolverConfig(epsilon=float("nan"))
    SolverConfig(gamma=0.5, mu=2.0, lambda_rule=1.9, epsilon=0.05)


@pytest.mark.parametrize("name", ["gamma", "mu"])
@pytest.mark.parametrize("entries", [2, 6])
def test_step_sequence_needs_one_entry_per_scenario(name, entries):
    rng = np.random.default_rng(38)
    prob = quadratic_box_instance(rng, random_tree(rng, 4, 2))
    config = SolverConfig(**{name: [1.0] * entries})
    with pytest.raises(ConfigError, match=f"{name}: got {entries} entries for 4 scenarios"):
        init_state(prob, config)
    with pytest.raises(ConfigError):
        solve(prob, config)
    solve(prob, SolverConfig(**{name: [1.0] * 4}, max_iter=2))


@pytest.mark.parametrize("name", ["gamma", "mu"])
@pytest.mark.parametrize("entries", [2, 5])
def test_scenario_update_needs_one_step_per_row(name, entries):
    rng = np.random.default_rng(38)
    prob = quadratic_box_instance(rng, random_tree(rng, 4, 2))
    state = init_state(prob, SolverConfig())
    steps = {"gamma": 1.0, "mu": 1.0, name: [1.0] * entries}
    message = f"got {entries} step values for 3 rows"
    with pytest.raises(ConfigError, match=message):
        scenario_update(state, prob, np.arange(3), steps["gamma"], steps["mu"])
    with pytest.raises(ConfigError, match=message):
        resolvent_rows(prob.operator_stack, [1.0] * entries, state.x[:3], np.arange(3))


def test_callable_steps_checked_per_iteration():
    prob = pair_problem()
    bad = SolverConfig(gamma=lambda i, n: 5000.0, max_iter=5)
    with pytest.raises(ConfigError):
        solve(prob, bad)
    bad_lambda = SolverConfig(lambda_rule=lambda n: 3.0, max_iter=5)
    with pytest.raises(ConfigError):
        solve(prob, bad_lambda)
    ok = SolverConfig(gamma=lambda i, n: 1.0, lambda_rule=lambda n: 1.0, tol=1e-8)
    sol = solve(prob, ok)
    assert sol.status is SolveStatus.CONVERGED


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
    prob = make_problem(tree, (DiagonalAffine(a=[1.0], b=[0.0]),))
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
    prob = make_problem(tree, (DiagonalAffine(a=[1.0], b=[0.0]),))
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
    prob = make_problem(tree, (DiagonalAffine(a=[1.0], b=[0.0]),))
    cfg = SolverConfig()
    state = init_state(prob, cfg)  # all zeros is the exact solution here
    iterate(state, prob, cfg)
    assert state.tau == 0.0
    assert state.theta == 0.0
    assert_allclose(state.x, [[0.0]])


def test_coordination_noop_when_kappa_negative():
    tree = single_tree()
    prob = make_problem(tree, (DiagonalAffine(a=[1.0], b=[0.0]),))
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
    prob = make_problem(two, (GradSeparableQuadratic(q=[1.0, 1.0], c=[0.6, -0.8]),))
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
    prob = make_problem(tree, (DiagonalAffine(a=[0.0, 0.0], b=[0.0, 0.0]),) * 2)
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
    ],
)
def test_progressive_hedging_checks_settings_like_config(settings):
    with pytest.raises(ConfigError):
        SolverConfig(**settings)
    with pytest.raises(ConfigError):
        progressive_hedging_solve(pair_problem(), **settings)


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


def test_solve_reduced_rejects_constraints():
    rng = np.random.default_rng(37)
    tree = random_tree(rng, 3, 2)
    prob = quadratic_box_instance(rng, tree)
    with pytest.raises(NonTrivialConstraint):
        solve_reduced(prob)


def test_solution_is_frozen():
    sol = solve(pair_problem(), SolverConfig(tol=1e-8))
    assert isinstance(sol, Solution)
    with pytest.raises(AttributeError):
        sol.iterations = 0
