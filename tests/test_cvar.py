import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from helpers import solve_testing_every_step
from scensplit import operators, policy
from scensplit.cvar import (
    CvarProblem,
    CvarSolution,
    augment,
    cvar_value,
    decision_scale,
    extract_solution,
    solve_cvar,
)
from scensplit.errors import (
    BadAlpha,
    ConfigError,
    NonConstantThreshold,
    ShapeMismatch,
    ValidationError,
)
from scensplit.operators import (
    UNBOUNDED,
    Affine,
    Ball,
    Box,
    CvarAugmented,
    DiagonalAffine,
    Full,
    Halfspace,
    Hyperplane,
    RealCross,
    SeparableQuadratic,
    WholeSpace,
    cost_prox,
    cost_value,
    project_constraint,
    project_constraint_rows,
    prox_cvar_augmented,
    resolvent_rows,
)
from scensplit.solver import (
    Problem,
    RoundRobin,
    SeededRandom,
    SolveStatus,
    Solution,
    SolverConfig,
    solve,
)
from scensplit.tree import build_tree


def quarter_tree():
    return build_tree([((i,), 0.25) for i in range(4)], stage_dims=[1])


def skew_tree():
    return build_tree([((0,), 0.7), ((1,), 0.3)], stage_dims=[1])


# --- problem validation ---

def test_cvar_problem_checks_each_spec_role():
    tree = skew_tree()
    box = Box(lo=[0.0], hi=[1.0])
    with pytest.raises(ValidationError, match="constraint 0 must be one of"):
        CvarProblem(tree, 0.9, (Affine(c=[1.0]),) * 2, (Full(), box))
    with pytest.raises(ValidationError, match="cost 1 must be one of"):
        CvarProblem(tree, 0.9, (Affine(c=[1.0]), DiagonalAffine(a=[1.0], b=[0.0])), (box,) * 2)


# --- tail risk of a fixed loss vector ---

def test_cvar_value_known():
    tree = quarter_tree()
    assert cvar_value(tree, 0.5, [1.0, 2.0, 3.0, 4.0]) == pytest.approx(3.5)
    assert cvar_value(tree, 0.9, [1.0, 2.0, 3.0, 4.0]) == pytest.approx(4.0)
    skew = skew_tree()
    assert cvar_value(skew, 0.5, [0.0, 10.0]) == pytest.approx(6.0)
    # ties in the losses resolve to the same threshold
    ties = build_tree([((0,), 0.4), ((1,), 0.4), ((2,), 0.2)], stage_dims=[1])
    assert cvar_value(ties, 0.5, [1.0, 1.0, 5.0]) == pytest.approx(2.6)
    # alpha beyond the last interior jump clamps to the largest loss
    assert cvar_value(ties, 0.999, [1.0, 1.0, 5.0]) == pytest.approx(5.0)


def test_cvar_value_constant_losses():
    tree = quarter_tree()
    for alpha in (0.05, 0.5, 0.95):
        assert cvar_value(tree, alpha, [2.0] * 4) == pytest.approx(2.0)


def test_cvar_value_bounds_and_monotonicity():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        probs = rng.uniform(0.2, 1.0, n)
        probs /= probs.sum()
        tree = build_tree([((i,), float(p)) for i, p in enumerate(probs)], stage_dims=[1])
        losses = rng.uniform(-5, 5, n)
        mean = float(probs @ losses)
        values = [cvar_value(tree, a, losses) for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
        for v in values:
            assert mean - 1e-12 <= v <= losses.max() + 1e-12
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert cvar_value(tree, 1e-9, losses) == pytest.approx(mean, abs=1e-7)
        assert cvar_value(tree, 1.0 - 1e-9, losses) == pytest.approx(losses.max())


def test_cvar_value_matches_threshold_minimization():
    # the objective y + E[max(loss - y, 0)]/(1 - alpha) is piecewise linear
    # with kinks only at loss values, so scanning those is exact
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        probs = rng.uniform(0.2, 1.0, n)
        probs /= probs.sum()
        tree = build_tree([((i,), float(p)) for i, p in enumerate(probs)], stage_dims=[1])
        losses = rng.uniform(-5, 5, n)
        alpha = float(rng.uniform(0.05, 0.95))
        best = min(
            y + float(probs @ np.maximum(losses - y, 0.0)) / (1.0 - alpha)
            for y in losses
        )
        assert cvar_value(tree, alpha, losses) == pytest.approx(best, abs=1e-12)


def test_cvar_value_errors():
    tree = quarter_tree()
    with pytest.raises(BadAlpha):
        cvar_value(tree, 0.0, [1.0] * 4)
    with pytest.raises(BadAlpha):
        cvar_value(tree, 1.0, [1.0] * 4)
    with pytest.raises(ShapeMismatch):
        cvar_value(tree, 0.5, [1.0, 2.0])


# --- problem container ---

def test_cvar_problem_validation():
    tree = skew_tree()
    costs = (Affine(c=[1.0]), Affine(c=[2.0]))
    cons = (WholeSpace(), WholeSpace())
    with pytest.raises(BadAlpha):
        CvarProblem(tree, 1.0, costs, cons)
    with pytest.raises(ValidationError):
        CvarProblem(tree, 0.5, costs[:1], cons)
    with pytest.raises(ValidationError):
        CvarProblem(tree, 0.5, costs, cons[:1])
    with pytest.raises(ShapeMismatch):
        CvarProblem(tree, 0.5, (Affine(c=[1.0, 1.0]),) * 2, cons)
    with pytest.raises(ShapeMismatch):
        CvarProblem(tree, 0.5, costs, (Box(lo=[0.0, 0.0], hi=[1.0, 1.0]),) * 2)


_RISK_COSTS = (Affine(c=[1.0]), Affine(c=[2.0]))


@pytest.mark.parametrize(
    "name, call",
    [
        ("y", lambda v: prox_cvar_augmented(_RISK_COSTS[0], 0.9, 1.0, v, [1.0])),
        ("alpha", lambda v: prox_cvar_augmented(_RISK_COSTS[0], v, 1.0, 0.0, [1.0])),
        ("alpha", lambda v: CvarAugmented(f=_RISK_COSTS[0], alpha=v)),
        ("alpha", lambda v: CvarProblem(skew_tree(), v, _RISK_COSTS, (WholeSpace(),) * 2)),
    ],
    ids=["prox_cvar_augmented y", "prox_cvar_augmented alpha", "CvarAugmented", "CvarProblem"],
)
def test_risk_numbers_that_are_not_numbers_are_refused(name, call):
    for bad in ("1", "0.5", "abc", None, True, np.True_, [0.5], np.array([0.5]), {name: 0.5}):
        with pytest.raises(ConfigError, match=f"{name} must be a number"):
            call(bad)
    if name == "alpha":
        for bad in (np.nan, 0.0, 1, 1.5, -np.inf):
            with pytest.raises(BadAlpha):
                call(bad)
    # numpy numbers and 0-d arrays stand for their value
    for good in (0.5, np.float32(0.5), np.float64(0.5), np.array(0.5)):
        call(good)


# --- lifting ---

def test_augment_structure():
    tree = build_tree([((0, 0), 0.5), ((1, 0), 0.5)], stage_dims=[1, 1])
    costs = (
        SeparableQuadratic(q=[1.0, 1.0], c=[0.0, 0.0]),
        SeparableQuadratic(q=[1.0, 1.0], c=[1.0, 1.0]),
    )
    cp = CvarProblem(tree, 0.5, costs, (Box(lo=[0.0, 0.0], hi=[1.0, 1.0]),) * 2)
    aug = augment(cp)
    assert isinstance(aug, Problem)
    lifted = aug.tree
    assert lifted.stage_dims == (2, 1)
    assert lifted.total_dim == 3
    assert lifted.classes == tree.classes  # information structure untouched
    assert_allclose(lifted.probabilities, tree.probabilities)
    for op, cs, us in zip(aug.operators, aug.constraints, aug.subspaces):
        assert isinstance(op, CvarAugmented) and op.dim == 3
        assert isinstance(cs, RealCross) and cs.dim == 3  # threshold axis is free
        assert isinstance(us, Full)


def test_augmented_projection_factorizes():
    tree = build_tree([((0, 0), 0.3), ((1, 0), 0.7)], stage_dims=[1, 1])
    costs = (SeparableQuadratic(q=[1.0, 1.0], c=[0.0, 0.0]),) * 2
    aug = augment(CvarProblem(tree, 0.5, costs, (WholeSpace(),) * 2))
    rng = np.random.default_rng(43)
    z = rng.standard_normal((2, 3))
    proj = policy.project_nonanticipative(aug.tree, z)
    # threshold column averages over the shared first-stage class
    shared = float(tree.probabilities @ z[:, 0])
    assert_allclose(proj[:, 0], [shared, shared])
    assert_allclose(proj[:, 1:], policy.project_nonanticipative(tree, z[:, 1:]))


# --- the full pipeline ---

def test_solve_cvar_quadratic_common_minimum():
    tree = skew_tree()
    costs = (SeparableQuadratic(q=[1.0], c=[0.3]),) * 2
    cp = CvarProblem(tree, 0.5, costs, (WholeSpace(),) * 2)
    sol = solve_cvar(cp, SolverConfig(tol=1e-10))
    assert sol.inner.status is SolveStatus.CONVERGED
    assert_allclose(sol.x_bar, [[0.3], [0.3]], atol=1e-5)
    assert sol.y_bar == pytest.approx(0.0, abs=1e-5)
    assert sol.objective == pytest.approx(0.0, abs=1e-8)


def test_solve_cvar_affine_boundary_solution():
    # losses (-x, 0.5 x) with weights (0.7, 0.3): tail risk at alpha = 0.5
    # is -0.1 x on [0, 1], so the box edge x = 1 wins and the threshold
    # sits at the low loss -1
    tree = skew_tree()
    costs = (Affine(c=[-1.0]), Affine(c=[0.5]))
    cons = (Box(lo=[0.0], hi=[1.0]),) * 2
    cp = CvarProblem(tree, 0.5, costs, cons)
    sol = solve_cvar(cp, SolverConfig(tol=1e-9, max_iter=200000))
    assert sol.inner.status is SolveStatus.CONVERGED
    assert_allclose(sol.x_bar, [[1.0], [1.0]], atol=1e-4)
    assert sol.y_bar == pytest.approx(-1.0, abs=1e-4)
    assert sol.objective == pytest.approx(-0.1, abs=1e-4)


def _risk_problem(seed, n=8, d=2, alpha=0.8):
    # two stages of d decisions, one shared first-stage class, every 4th cost affine
    rng = np.random.default_rng(seed)
    probs = rng.uniform(0.5, 1.5, n)
    probs /= probs.sum()
    tree = build_tree([((0, i), float(p)) for i, p in enumerate(probs)], stage_dims=[d, d])
    costs = [
        Affine(c=rng.uniform(-1, 1, 2 * d), r=float(rng.uniform(-1, 1)))
        if i % 4 == 3
        else SeparableQuadratic(
            q=rng.uniform(0.5, 2, 2 * d),
            c=rng.uniform(-1.5, 1.5, 2 * d),
            r=float(rng.uniform(-1, 1)),
        )
        for i in range(n)
    ]
    return CvarProblem(tree, alpha, costs, (Box(lo=[-1.0] * 2 * d, hi=[1.0] * 2 * d),) * n)


@pytest.mark.parametrize(
    "config, iterations, saved",
    [
        (SolverConfig(tol=1e-6), 117, 0.5),
        # at steps of 0.7 the refresh starts from the stopping test's roots
        (SolverConfig(tol=1e-6, gamma=0.7, schedule=RoundRobin(block_size=3)), 291, 0.6),
    ],
)
def test_solve_cvar_warm_root_keeps_the_cold_solve(monkeypatch, config, iterations, saved):
    cp = _risk_problem(1)
    calls = []
    cost_rows = operators._cost_rows
    monkeypatch.setattr(operators, "_cost_rows", lambda *a: calls.append(1) or cost_rows(*a))
    warm = solve_cvar(cp, config)
    warm_calls = len(calls)
    again = solve_cvar(cp, config)
    assert np.array_equal(again.x_bar, warm.x_bar)
    assert again.inner.trace == warm.inner.trace
    # without its start column the root search is the cold one, bit for bit
    prox_root = operators._prox_root
    monkeypatch.setattr(operators, "_prox_root", lambda *a: prox_root(*a[:6]))
    calls.clear()
    cold = solve_cvar(cp, config)
    assert warm.inner.status is cold.inner.status is SolveStatus.CONVERGED
    assert warm.inner.iterations == cold.inner.iterations == iterations
    assert_allclose(warm.x_bar, cold.x_bar, rtol=0, atol=1e-12)
    assert warm_calls <= saved * len(calls)


@pytest.mark.parametrize("block_size", [2, 3, 4])
def test_skipped_tests_keep_the_risk_run_that_tests_every_step(block_size):
    # a skipped test leaves the idle rows' warm roots older, so the bits may
    # move, but the iterations and the status stay
    lifted = augment(_risk_problem(1))
    cfg = SolverConfig(tol=1e-6, schedule=RoundRobin(block_size=block_size))
    sol = solve(lifted, cfg)
    status, iterations, _, x, _ = solve_testing_every_step(lifted, cfg)
    assert (sol.status, sol.iterations) == (status, iterations)
    assert status is SolveStatus.CONVERGED
    assert not all(r.tested for r in sol.trace)
    assert_allclose(sol.x_bar, x, rtol=0, atol=1e-12)


def test_solve_cvar_objective_is_recomputed():
    tree = skew_tree()
    costs = (SeparableQuadratic(q=[2.0], c=[0.0]), SeparableQuadratic(q=[1.0], c=[1.0]))
    cp = CvarProblem(tree, 0.7, costs, (WholeSpace(),) * 2)
    sol = solve_cvar(cp, SolverConfig(tol=1e-10))
    losses = np.array([
        0.5 * 2.0 * sol.x_bar[0, 0] ** 2,
        0.5 * (sol.x_bar[1, 0] - 1.0) ** 2,
    ])
    assert sol.objective == pytest.approx(cvar_value(tree, 0.7, losses), abs=1e-12)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def trace_bits(trace):
    return bits([[r.residual, r.kappa, r.tau, r.theta, r.wall_ms] for r in trace])


@pytest.mark.parametrize(
    "config",
    [SolverConfig(tol=1e-6), SolverConfig(tol=1e-6, schedule=SeededRandom(3, 2, seed=4))],
    ids=["full", "seeded"],
)
def test_lift_solve_strip_is_solve_cvar_bitwise(config):
    cp = _risk_problem(2)
    got = extract_solution(cp, solve(augment(cp), config))
    want = solve_cvar(cp, config)
    assert_array_equal(bits(got.x_bar), bits(want.x_bar))
    assert_array_equal(bits([got.y_bar, got.objective]), bits([want.y_bar, want.objective]))
    assert got.inner.iterations == want.inner.iterations > 0
    assert [(r.n, r.active) for r in got.inner.trace] == [(r.n, r.active) for r in want.inner.trace]
    assert_array_equal(trace_bits(got.inner.trace), trace_bits(want.inner.trace))


def made_solution(x_bar):
    x_bar = np.asarray(x_bar, dtype=float)
    return Solution(
        x_bar=x_bar,
        v_star_bar=np.zeros_like(x_bar),
        status=SolveStatus.CONVERGED,
        iterations=0,
        residual=0.0,
        trace=(),
    )


# --- the decision scale of the lift ---

@pytest.mark.parametrize(
    "n, s",
    [(1, 1.0), (8, 1.0), (15, 1.0), (16, 0.5), (255, 0.5), (256, 0.25), (4095, 0.25), (4096, 0.25), (2**40, 0.25)],
)
def test_decision_scale_halves_at_every_fourth_power_of_two_up_to_a_quarter(n, s):
    assert decision_scale(n) == s


def _lifted_spec(spec, s):
    """The spec of the lift in (y, x / s), built and checked on its own: f(s *) or C / s."""
    if isinstance(spec, Affine):
        return Affine(c=spec.c * s, r=spec.r)
    if isinstance(spec, SeparableQuadratic):
        return SeparableQuadratic(q=spec.q * s * s, c=spec.c / s, r=spec.r)
    if isinstance(spec, Box):
        with np.errstate(over="ignore"):  # UNBOUNDED / s is inf, which Box stores as UNBOUNDED
            return Box(lo=spec.lo / s, hi=spec.hi / s)
    if isinstance(spec, Ball):
        return Ball(center=spec.center / s, radius=spec.radius / s)
    if isinstance(spec, (Halfspace, Hyperplane)):
        return type(spec)(normal=spec.normal, offset=spec.offset / s)
    if isinstance(spec, RealCross):
        return RealCross(base=_lifted_spec(spec.base, s))
    return spec


def hand_lift(cp, s):
    """The lifted problem at the decision scale ``s``, built spec by spec."""
    t, n = cp.tree, cp.tree.num_scenarios
    tree = build_tree([(sc.labels, sc.probability) for sc in t.scenarios], (t.stage_dims[0] + 1,) + t.stage_dims[1:])
    operators = [CvarAugmented(f=_lifted_spec(f, s), alpha=cp.alpha) for f in cp.costs]
    constraints = [RealCross(base=_lifted_spec(c, s)) for c in cp.constraints]
    return Problem(tree, operators, constraints, (Full(),) * n)


def assert_same_problem(got, want):
    assert got.tree.classes == want.tree.classes and got.tree.stage_dims == want.tree.stage_dims
    for role in ("operator_stack", "constraint_stack", "subspace_stack"):
        g, w = getattr(got, role), getattr(want, role)
        assert [k for k, _, _ in g.groups] == [k for k, _, _ in w.groups]
        for (_, gm, gc), (_, wm, wc) in zip(g.groups, w.groups):
            assert_array_equal(gm, wm)
            assert [c.shape for c in gc] == [c.shape for c in wc]
            for a, b in zip(gc, wc):
                assert_array_equal(bits(a), bits(b))
    for g, w in zip(got.operators + got.constraints, want.operators + want.constraints):
        g, w = (g.f, w.f) if isinstance(g, CvarAugmented) else (g.base, w.base)
        while isinstance(w, RealCross):
            assert type(g) is RealCross
            g, w = g.base, w.base
        assert type(g) is type(w)
        for name in vars(w):
            assert_array_equal(bits(getattr(g, name)), bits(getattr(w, name)))


def every_type_risk_problem(seed, n, alpha=0.9):
    """Both cost types and all six constraint types, on decisions of two stages (1 + 2)."""
    rng = np.random.default_rng(seed)
    probs = rng.uniform(0.5, 1.5, n)
    tree = build_tree([((0, i), float(p)) for i, p in enumerate(probs / probs.sum())], stage_dims=[1, 2])
    costs = [
        Affine(c=rng.normal(size=3), r=rng.normal())
        if i % 2
        else SeparableQuadratic(q=rng.uniform(0.5, 2, 3), c=rng.normal(size=3), r=rng.normal())
        for i in range(n)
    ]
    sets = [
        lambda: WholeSpace(),
        lambda: Box(lo=[-np.inf, -1.0, -0.5], hi=[1.0, np.inf, 0.5]),
        lambda: Ball(center=rng.normal(size=3), radius=rng.uniform(0.5, 2)),
        lambda: Halfspace(normal=rng.normal(size=3), offset=rng.normal()),
        lambda: Hyperplane(normal=rng.normal(size=3), offset=rng.normal()),
        lambda: RealCross(Box(lo=[-1.0, -np.inf], hi=[0.5, 2.0])),
    ]
    return CvarProblem(tree, alpha, costs, [sets[i % 6]() for i in range(n)])


@pytest.mark.parametrize("n", [16, 256], ids=["s=1/2", "s=1/4"])
def test_lift_is_exact(n):
    cp = every_type_risk_problem(60 + n, n)
    s = decision_scale(n)
    aug = augment(cp)
    # the lift built from the grouped fields is the one built spec by spec
    assert_same_problem(aug, hand_lift(cp, s))
    # an unbounded box side stays unbounded
    (lo, hi), = (coef for kind, _, coef in aug.constraint_stack.groups if kind == (RealCross, Box))
    assert (lo[:, 0] == -UNBOUNDED).all() and (hi[:, 1] == UNBOUNDED).all()
    assert np.isfinite(lo).all() and np.isfinite(hi).all()
    rng = np.random.default_rng(n)
    z = rng.uniform(-3, 3, (n, 4))
    # sets: P_{C/s}(z) = P_C(s z) / s, the threshold untouched
    got = project_constraint_rows(aug.constraint_stack, z)
    assert_array_equal(bits(got[:, 0]), bits(z[:, 0]))
    for i, cs in enumerate(cp.constraints):
        assert_array_equal(bits(got[i, 1:]), bits(project_constraint(cs, s * z[i, 1:]) / s))
    # costs: f(s *) has value f(s z) and prox prox_{gamma s^2 f}(s z) / s
    gamma = 0.7
    for f, op, zi in zip(cp.costs, aug.operators, z[:, 1:]):
        assert cost_value(op.f, zi) == cost_value(f, s * zi)
        assert_array_equal(bits(cost_prox(op.f, gamma, zi)), bits(cost_prox(f, gamma * s * s, s * zi) / s))
    # the risk prox is the root search of the unscaled cost in that metric
    got, roots = resolvent_rows(aug.operator_stack, gamma, z)
    tau = gamma / (1.0 - cp.alpha)
    for i, f in enumerate(cp.costs):
        pack = operators._pack_costs([f])
        t, p = operators._prox_root(pack, s * z[None, i, 1:], tau * s * s, z[i, 0] - gamma, tau)
        assert_array_equal(bits(got[i]), bits(np.concatenate([z[i, 0] - gamma + t[0] * tau, p[0] / s])))
        assert roots[i, 0] == t[0, 0]
    # the strip returns exactly s x'
    x = rng.uniform(-3, 3, (n, 3))
    csol = extract_solution(cp, made_solution(np.hstack([np.full((n, 1), 0.25), x])))
    assert_array_equal(bits(csol.x_bar), bits(s * x))
    losses = [cost_value(f, xi) for f, xi in zip(cp.costs, s * x)]
    assert csol.objective == cvar_value(cp.tree, cp.alpha, losses)


@pytest.mark.parametrize("n", [2, 8, 15])
def test_lift_below_16_scenarios_is_unscaled(n):
    cp = every_type_risk_problem(70 + n, n)
    aug = augment(cp)
    # the unscaled lift wraps the source specs themselves
    want = Problem(aug.tree, [CvarAugmented(f, cp.alpha) for f in cp.costs], map(RealCross, cp.constraints), (Full(),) * n)
    assert_same_problem(aug, want)
    x = np.random.default_rng(n).uniform(-3, 3, (n, 3))
    assert_array_equal(bits(extract_solution(cp, made_solution(np.hstack([np.zeros((n, 1)), x]))).x_bar), bits(x))


@pytest.mark.parametrize(
    "cost, constraint, field",
    [
        (SeparableQuadratic(q=[1e-300] * 3, c=[1.5e308] * 3), WholeSpace(), "cost 5.c"),
        (Affine(c=[1.0] * 3), Ball(center=[0.0] * 3, radius=1.5e308), "constraint 5.radius"),
        (Affine(c=[1.0] * 3), Halfspace(normal=[1.0, 0.0, 0.0], offset=-1.5e308), "constraint 5.offset"),
        (Affine(c=[1.0] * 3), RealCross(Hyperplane(normal=[1.0, 1.0], offset=1.5e308)), "constraint 5.offset"),
    ],
)
def test_lift_refuses_a_coefficient_that_overflows(cost, constraint, field):
    # finite in the source, past the largest float once divided by s = 1/2
    cp = every_type_risk_problem(80, 16)
    costs, constraints = list(cp.costs), list(cp.constraints)
    costs[5], constraints[5] = cost, constraint
    with pytest.raises(ValidationError, match=f"lifted {field}: expected finite entries"):
        augment(CvarProblem(cp.tree, cp.alpha, costs, constraints))


def test_lift_moves_a_box_side_past_the_largest_float_onto_unbounded():
    cp = every_type_risk_problem(81, 16)
    constraints = list(cp.constraints)
    constraints[1] = Box(lo=[-1.5e308, -1.0, -1.0], hi=[1.0, 1.5e308, 1.0])
    aug = augment(CvarProblem(cp.tree, cp.alpha, cp.costs, constraints))
    (lo, hi), = (coef for kind, _, coef in aug.constraint_stack.groups if kind == (RealCross, Box))
    assert lo[0, 0] == -UNBOUNDED and hi[0, 1] == UNBOUNDED


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99])
def test_scaled_lift_converges_no_slower_and_to_the_optimum(n, alpha):
    tol = 1e-4
    cp = _risk_problem(3, n, alpha=alpha)
    got = solve_cvar(cp, SolverConfig(tol=tol))
    unscaled = solve(hand_lift(cp, 1.0), SolverConfig(tol=tol))
    assert got.inner.status is unscaled.status is SolveStatus.CONVERGED
    assert got.inner.iterations <= unscaled.iterations
    # the averaged policy meets the boxes up to tol
    assert (np.abs(got.x_bar) <= 1.0 + tol).all()
    assert policy.is_nonanticipative(cp.tree, got.x_bar, 1e-9)
    reference = solve_cvar(cp, SolverConfig(tol=1e-10, max_iter=100000))
    assert reference.inner.status is SolveStatus.CONVERGED
    assert abs(got.objective - reference.objective) <= 10 * tol


def test_extract_solution_rejects_split_threshold():
    tree = skew_tree()
    costs = (Affine(c=[1.0]),) * 2
    cp = CvarProblem(tree, 0.5, costs, (WholeSpace(),) * 2)
    with pytest.raises(NonConstantThreshold):
        extract_solution(cp, made_solution([[1.0, 0.5], [0.0, 0.5]]))
    # a solution that does not have the lifted (N, d + 1) shape: one column
    # too many, the threshold column alone, or a 1-d array
    for x_bar in (np.zeros((2, 3)), [[1.0], [1.0]], [1.0, 1.0]):
        with pytest.raises(ShapeMismatch):
            extract_solution(cp, made_solution(x_bar))


def test_split_augmented():
    # extract_solution copies the split out of the lifted solution:
    # column 0 is the shared threshold, columns 1.. the decisions
    tree = build_tree([((0,), 0.7), ((1,), 0.3)], stage_dims=[2])
    cp = CvarProblem(tree, 0.5, (Affine(c=[1.0, 1.0]),) * 2, (WholeSpace(),) * 2)
    sol = made_solution([[1.0, 2.0, 3.0], [1.0, 5.0, 6.0]])
    csol = extract_solution(cp, sol)
    assert csol.y_bar == 1.0
    assert_array_equal(csol.x_bar, [[2.0, 3.0], [5.0, 6.0]])
    assert not np.shares_memory(csol.x_bar, sol.x_bar)


@pytest.mark.parametrize("d", [1, 3, 17])
def test_extract_solution_objective_matches_per_cost_values(d):
    rng = np.random.default_rng(41 + d)
    tree = build_tree([((i,), 1.0 / 9) for i in range(9)], stage_dims=[d])
    costs = tuple(
        SeparableQuadratic(q=rng.uniform(0.0, 2.0, d), c=rng.normal(size=d), r=rng.normal())
        if i % 2
        else Affine(c=rng.normal(size=d), r=rng.normal())
        for i in range(9)
    )
    cp = CvarProblem(tree, 0.8, costs, (WholeSpace(),) * 9)
    x = rng.normal(size=(9, d))
    sol = made_solution(np.hstack([np.full((9, 1), 0.25), x]))
    losses = [cost_value(f, xi) for f, xi in zip(costs, x)]
    assert extract_solution(cp, sol).objective == cvar_value(tree, 0.8, losses)


def test_cvar_solution_container():
    tree = skew_tree()
    costs = (SeparableQuadratic(q=[1.0], c=[0.0]),) * 2
    sol = solve_cvar(CvarProblem(tree, 0.5, costs, (WholeSpace(),) * 2))
    assert isinstance(sol, CvarSolution)
    assert isinstance(sol.inner, Solution)
    assert sol.x_bar.shape == (2, 1)


@pytest.mark.parametrize(
    "alpha, error",
    [
        ("0.9", ConfigError),
        (None, ConfigError),
        (True, ConfigError),
        ([0.5], ConfigError),
        (np.array([0.5, 0.6]), ConfigError),
        (np.nan, BadAlpha),
        (-0.5, BadAlpha),
        (1.5, BadAlpha),
    ],
)
def test_cvar_value_refuses_alpha_that_is_not_a_number_in_range(alpha, error):
    with pytest.raises(error):
        cvar_value(quarter_tree(), alpha, [1.0, 2.0, 3.0, 4.0])
