"""The stacked kernels agree with one-row evaluation for every catalog type.

Scenarios of different types share one problem, so every call runs over
several groups; blocks come in unsorted order and leave whole groups out.
"""
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from scensplit.operators import (
    Affine,
    Ball,
    Box,
    Coordinates,
    CvarAugmented,
    DiagonalAffine,
    Full,
    GradSeparableQuadratic,
    Halfspace,
    Hyperplane,
    RULES,
    RealCross,
    SeparableQuadratic,
    Stack,
    UNBOUNDED,
    WholeSpace,
    Zero,
    _cost_rows,
    _pack_costs,
    apply_operator,
    cost_value,
    forward_rows,
    project_constraint,
    project_constraint_rows,
    project_subspace,
    prox_cvar_augmented,
    resolvent,
    resolvent_rows,
)
from scensplit.solver import (
    Problem,
    RoundRobin,
    SolverConfig,
    init_state,
    iterate,
    scenario_update,
    solve,
)
from scensplit.tree import build_tree

D = 3
N = 12


def mixed_problem(rng) -> Problem:
    tree = build_tree([((i,), 1.0 / N) for i in range(N)], [D])
    ops = []
    for i in range(N):
        kind = i % 4
        if kind == 0:
            ops.append(DiagonalAffine(a=rng.uniform(0.0, 2.0, D), b=rng.uniform(-1, 1, D)))
        elif kind == 1:
            ops.append(GradSeparableQuadratic(q=rng.uniform(0.0, 2.0, D), c=rng.uniform(-1, 1, D)))
        elif kind == 2:
            ops.append(CvarAugmented(f=Affine(c=rng.uniform(-1, 1, D - 1), r=0.3), alpha=0.7))
        else:
            cost = SeparableQuadratic(q=rng.uniform(0.5, 2.0, D - 1), c=rng.uniform(-1, 1, D - 1))
            ops.append(CvarAugmented(f=cost, alpha=0.4))
    half = Box(lo=[0.0, -np.inf, -np.inf], hi=[1.0, np.inf, np.inf])
    cons = [
        WholeSpace(),
        half,
        Box(lo=[-0.5, -np.inf, 0.0], hi=[0.5, 0.2, np.inf]),
        Ball(center=[0.1, -0.2, 0.3], radius=0.8),
        Halfspace(normal=[0.0, 1.0, -1.0], offset=0.2),
        Hyperplane(normal=[1.0, 2.0, -0.5], offset=0.4),
        RealCross(base=Box(lo=[0.0, -1.0], hi=[1.0, np.inf])),
        RealCross(base=Ball(center=[0.0, 0.5], radius=0.6)),
        RealCross(base=WholeSpace()),
        Ball(center=[-0.3, 0.0, 0.2], radius=1.5),
        Halfspace(normal=[1.0, -1.0, 0.5], offset=-0.1),
        Hyperplane(normal=[0.0, 0.0, 3.0], offset=1.0),
    ]
    subs = [Zero(), Coordinates(indices=(0,)), Full(), Full(), Coordinates(indices=(1, 2))]
    subs += [Full()] * (N - len(subs))
    return Problem(tree, tuple(ops), tuple(cons), tuple(subs))


# blocks in unsorted order; the first two leave whole groups out
BLOCKS = (
    np.array([9, 1, 5]),
    np.array([4, 8, 0]),
    np.array([11, 2, 7, 3, 6, 10]),
    np.arange(N)[::-1],
)


@pytest.fixture(scope="module")
def problem():
    return mixed_problem(np.random.default_rng(71))


def test_groups_follow_catalog_types(problem):
    ops, cons = problem.operator_stack, problem.constraint_stack
    assert [g[0] for g in ops.groups] == [DiagonalAffine, CvarAugmented]
    assert len(cons.groups) == 8  # RealCross groups by its base
    for kind, members, _ in cons.groups:
        assert np.all(np.diff(members) > 0)


@pytest.mark.parametrize("rows", BLOCKS)
def test_resolvent_rows_match_single_rows(problem, rows):
    rng = np.random.default_rng(72)
    z = 2.0 * rng.standard_normal((rows.size, D))
    gamma = rng.uniform(0.2, 3.0, rows.size)
    got = resolvent_rows(problem.operator_stack, gamma, z, rows)
    want = [resolvent(problem.operators[i], g, zi) for i, g, zi in zip(rows, gamma, z)]
    assert_array_equal(got, want)
    # a number stands for one step on every row
    got = resolvent_rows(problem.operator_stack, 0.7, z, rows)
    assert_array_equal(got, [resolvent(problem.operators[i], 0.7, zi) for i, zi in zip(rows, z)])


@pytest.mark.parametrize("rows", [None, BLOCKS[2]])
def test_resolvent_rows_hand_back_the_roots(problem, rows):
    # a start column warm-starts the CvarAugmented rows and passes the others' through
    rng = np.random.default_rng(80)
    ids = np.arange(N) if rows is None else rows
    k = ids.size
    z = 2.0 * rng.standard_normal((k, D))
    gamma = rng.uniform(0.2, 3.0, k)
    start = rng.uniform(0.0, 1.0, (k, 1))
    got, roots = resolvent_rows(problem.operator_stack, gamma, z, rows, start)
    assert_allclose(got, resolvent_rows(problem.operator_stack, gamma, z, rows), rtol=0, atol=1e-12)
    risk = ids % 4 >= 2  # mixed_problem's CvarAugmented rows
    assert_array_equal(roots[~risk], start[~risk])
    assert np.all(roots[risk] != start[risk]) and np.all((0.0 <= roots) & (roots <= 1.0))
    # started at its own roots, the search stays there
    again, same = resolvent_rows(problem.operator_stack, gamma, z, rows, roots)
    assert_allclose(same, roots, rtol=0, atol=1e-12)
    assert_allclose(again, got, rtol=0, atol=1e-12)


def _risk_only(problem):
    return Problem(
        problem.tree,
        tuple(problem.operators[i] if i % 4 >= 2 else problem.operators[2] for i in range(N)),
        (WholeSpace(),) * N,
        (Full(),) * N,
    )


def _no_risk(problem):
    # mixed_problem's DiagonalAffine and GradSeparableQuadratic rows only
    ops = tuple(problem.operators[i % 2] for i in range(N))
    return Problem(problem.tree, ops, problem.constraints, problem.subspaces)


@pytest.mark.parametrize("variant", [lambda p: p, _risk_only, _no_risk], ids=["mixed", "risk", "none"])
def test_solve_keeps_root_an_n_by_1_float_column(problem, variant):
    problem = variant(problem)
    roots = []
    solve(problem, SolverConfig(max_iter=6), callback=lambda state: roots.append(state.root))
    risk = np.array([isinstance(op, CvarAugmented) for op in problem.operators])
    assert len(roots) == 6
    for root in roots:
        assert root.shape == (N, 1) and root.dtype == np.float64
        assert np.all((0.0 <= root) & (root <= 1.0))
        # rows without a root search keep their start, t = 0
        assert_array_equal(root[~risk], 0.0)


def _random_costs(rng, k, d):
    return [
        Affine(c=rng.uniform(-2, 2, d), r=rng.uniform(-1, 1))
        if i % 2
        else SeparableQuadratic(q=rng.uniform(0, 3, d), c=rng.uniform(-2, 2, d), r=rng.uniform(-1, 1))
        for i in range(k)
    ]


def test_cvar_rows_match_one_row_prox():
    # CvarAugmented rows over both cost types, next to DiagonalAffine rows
    rng = np.random.default_rng(79)
    k, d = 60, D - 1
    costs = _random_costs(rng, k, d)
    alphas = rng.uniform(0.1, 0.9, k)
    ops = [CvarAugmented(f=f, alpha=a) for f, a in zip(costs, alphas)]
    ops += [DiagonalAffine(a=rng.uniform(0, 2, D), b=rng.uniform(-1, 1, D)) for _ in range(4)]
    stack = Stack(ops)
    rows = rng.permutation(len(ops))[: k - 4]
    z = 2.0 * rng.standard_normal((rows.size, D))
    gamma = rng.uniform(0.2, 3.0, rows.size)
    got = resolvent_rows(stack, gamma, z, rows)
    regimes = set()
    for i, g, zi, out in zip(rows, gamma, z, got):
        if i >= k:
            assert_array_equal(out, resolvent(ops[i], g, zi))
            continue
        y, x = prox_cvar_augmented(costs[i], alphas[i], g, zi[0], zi[1:])
        assert_array_equal(out, np.concatenate([[y], x]))
        tau = g / (1.0 - alphas[i])
        if y == zi[0] - g:
            regimes.add("below")
        elif y == zi[0] - g + tau:
            regimes.add("full")
        else:
            regimes.add("root")
    assert regimes == {"below", "full", "root"}


@pytest.mark.parametrize("d", [1, 2, 5, 12])
def test_packed_cost_values_match_per_type_formulas(d):
    rng = np.random.default_rng(80 + d)
    costs = _random_costs(rng, 20, d)
    x = 3.0 * rng.standard_normal((20, d))
    got = _cost_rows(_pack_costs(costs), x)[:, 0]
    want = [
        float(f.c @ xi + f.r)
        if isinstance(f, Affine)
        else float(0.5 * np.sum(f.q * (xi - f.c) ** 2) + f.r)
        for f, xi in zip(costs, x)
    ]
    assert_array_equal(got, want)
    assert_array_equal([cost_value(f, xi) for f, xi in zip(costs, x)], want)


def test_forward_rows_match_single_rows(problem):
    rng = np.random.default_rng(73)
    rows = np.array([5, 0, 4, 1, 9])  # the single-valued groups only
    x = rng.standard_normal((rows.size, D))
    got = forward_rows(problem.operator_stack, x, rows)
    assert_array_equal(got, [apply_operator(problem.operators[i], xi) for i, xi in zip(rows, x)])
    with pytest.raises(TypeError):
        forward_rows(problem.operator_stack, x[:1], np.array([2]))


@pytest.mark.parametrize("rows", BLOCKS)
def test_project_constraint_rows_match_single_rows(problem, rows):
    rng = np.random.default_rng(74)
    z = 1.5 * rng.standard_normal((rows.size, D))
    got = project_constraint_rows(problem.constraint_stack, z, rows)
    want = [project_constraint(problem.constraints[i], zi) for i, zi in zip(rows, z)]
    assert_array_equal(got, want)


def test_projection_cases_inside_and_outside(problem):
    # every ball and halfspace row is seen both where it moves the point
    # and where it leaves the point alone
    rng = np.random.default_rng(75)
    rows = np.repeat([3, 9, 4, 10, 7], 40)
    z = 1.2 * rng.standard_normal((rows.size, D))
    got = project_constraint_rows(problem.constraint_stack, z, rows)
    moved = np.any(got != z, axis=1)
    for i in (3, 9, 4, 10, 7):
        assert moved[rows == i].any() and not moved[rows == i].all()
    want = [project_constraint(problem.constraints[i], zi) for i, zi in zip(rows, z)]
    assert_array_equal(got, want)


def test_subspace_mask_matches_single_rows(problem):
    z = np.random.default_rng(76).standard_normal((N, D))
    got = np.where(problem.subspace_mask, z, 0.0)
    assert_array_equal(got, [project_subspace(us, zi) for us, zi in zip(problem.subspaces, z)])


def _refresh_by_rows(problem, state, rows, gamma, mu):
    """The block refresh written out with the one-row functions."""
    out = []
    for i, g, m in zip(rows, gamma, mu):
        x, xs, vs = state.x[i], state.x_star[i], state.v_star[i]
        a = resolvent(problem.operators[i], g, x - g * (xs + vs))
        b = project_constraint(problem.constraints[i], x + m * xs)
        gap = project_subspace(problem.subspaces[i], b - a)
        out.append((a, (x - a) / g - (xs + vs), b, xs + (x - b) / m, gap))
    return [np.array(col) for col in zip(*out)]


@pytest.mark.parametrize("rule", ["sequence", "callable"])
def test_block_refresh_matches_single_rows(problem, rule):
    gammas = np.linspace(0.5, 2.0, N)
    mus = np.linspace(1.5, 0.8, N)
    if rule == "sequence":
        config = SolverConfig(gamma=tuple(gammas), mu=list(mus), schedule=RoundRobin(block_size=5))
    else:
        config = SolverConfig(
            gamma=lambda i, n: gammas[i] * (1.0 + 0.01 * n),
            mu=lambda i, n: mus[i],
            schedule=RoundRobin(block_size=5),
        )
    rng = np.random.default_rng(77)
    x0, v0 = rng.standard_normal((2, N, D))
    state = init_state(problem, config, x0=x0, v0_star=v0)
    for _ in range(5):
        n = state.iteration
        rows = np.arange(N) if n == 0 else config.schedule.select(n, N, state.last_activated, None)
        step = 1.0 + 0.01 * n if rule == "callable" else 1.0
        want = _refresh_by_rows(problem, state, rows, gammas[rows] * step, mus[rows])
        iterate(state, problem, config)
        for name, col in zip(("op_point", "op_dual", "set_point", "set_dual", "gap"), want):
            assert_array_equal(getattr(state, name)[rows], col)


def test_scenario_update_unsorted_block(problem):
    rng = np.random.default_rng(78)
    config = SolverConfig()
    x0, xs0, v0 = rng.standard_normal((3, N, D))
    state = init_state(problem, config, x0=x0, x0_star=xs0, v0_star=v0)
    rows = np.array([10, 3, 7, 0])
    gamma, mu = rng.uniform(0.5, 2.0, (2, rows.size))
    got = scenario_update(state, problem, rows, gamma, mu)
    for col, want in zip(got, _refresh_by_rows(problem, state, rows, gamma, mu)):
        assert_array_equal(col, want)
    empty = scenario_update(state, problem, np.array([], dtype=int), 1.0, 1.0)
    assert all(col.shape == (0, D) for col in empty)


def _bits(a) -> np.ndarray:
    # the raw float64 bit patterns: -0.0 and 0.0 differ here
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("rows", [None, BLOCKS[2]], ids=["all", "unsorted"])
@pytest.mark.parametrize("gamma", [1.0, 0.7, 1.3])
def test_float_step_matches_a_column_of_it_bitwise(problem, rows, gamma):
    # a float step and a (k, 1) column holding it give the same points and roots
    rng = np.random.default_rng(81)
    k = N if rows is None else rows.size
    z = 2.0 * rng.standard_normal((k, D))
    column = np.full((k, 1), gamma)
    ops = problem.operator_stack
    assert_array_equal(
        _bits(resolvent_rows(ops, gamma, z, rows)), _bits(resolvent_rows(ops, column, z, rows))
    )
    start = rng.uniform(0.0, 1.0, (k, 1))
    got = resolvent_rows(ops, gamma, z, rows, start)
    want = resolvent_rows(ops, column, z, rows, start)
    for a, b in zip(got, want):
        assert_array_equal(_bits(a), _bits(b))


def test_box_kernel_matches_np_clip_bitwise():
    # signed zeros, infinities and the UNBOUNDED sentinel come out as np.clip gives them
    big = UNBOUNDED
    boxes = [
        Box(lo=[-0.0, 0.0, -np.inf, -1.0, 0.0, -big], hi=[0.0, 1.0, np.inf, -0.0, np.inf, big]),
        Box(lo=[0.0, -0.0, -2.0, -np.inf, -0.0, 1.0], hi=[0.0, 0.0, np.inf, 0.5, 2.0, 1.0]),
    ]
    values = [-0.0, 0.0, np.inf, -np.inf, big, -big, 0.5, -3.0, 3.0]
    z = np.array([np.roll(values, s)[:6] for s in range(len(values))])
    z = np.concatenate([z, -z])
    # two Box groups' rows interleaved with WholeSpace rows
    specs = [(boxes[0], WholeSpace(), boxes[1])[i % 3] for i in range(len(z))]
    want = np.array(
        [zi if isinstance(s, WholeSpace) else np.clip(zi, s.lo, s.hi) for s, zi in zip(specs, z)]
    )
    stack = Stack(specs)
    assert_array_equal(_bits(project_constraint_rows(stack, z)), _bits(want))
    rows = np.arange(len(z))[::-3]  # an unsorted block
    assert_array_equal(_bits(project_constraint_rows(stack, z[rows], rows)), _bits(want[rows]))
    boxes_only = Stack([boxes[i % 2] for i in range(len(z))])
    want = np.array([np.clip(zi, boxes[i % 2].lo, boxes[i % 2].hi) for i, zi in enumerate(z)])
    assert_array_equal(_bits(project_constraint_rows(boxes_only, z)), _bits(want))
    for box in boxes:
        for row in z:
            got = project_constraint(box, row)
            assert_array_equal(_bits(got), _bits(np.clip(row, box.lo, box.hi)))


# the coefficient arrays each kernel unpacks: RULES vector fields, then its
# scalar fields as (k, 1) columns, then a half-space's or hyperplane's
# squared normal norm
_PACKED_FIELDS = {
    Affine: ("c", "r"),
    SeparableQuadratic: ("q", "c", "r"),
    DiagonalAffine: ("a", "b"),
    Box: ("lo", "hi"),
    Ball: ("center", "radius"),
    Halfspace: ("normal", "offset", "sq"),
    Hyperplane: ("normal", "offset", "sq"),
}


def _two_specs(cls, rng):
    vectors, scalars, _ = RULES[cls]
    specs = []
    for _ in range(2):
        fields = {name: rng.uniform(0.5, 2.0, D) for name in vectors}
        fields.update({name: float(rng.uniform(0.5, 2.0)) for name in scalars})
        if cls is Box:
            fields["hi"] = fields["lo"] + 1.0
        specs.append(cls(**fields))
    return specs


@pytest.mark.parametrize("cls", list(RULES), ids=lambda c: c.__name__)
def test_stack_packs_each_rules_kind_in_rules_order(cls):
    specs = _two_specs(cls, np.random.default_rng(5))
    [(kind, members, coef)] = Stack(specs).groups
    assert_array_equal(members, [0, 1])
    if cls is GradSeparableQuadratic:
        # q * (x - c) packs as the diagonal-affine (a, b) = (q, -q * c)
        assert kind is DiagonalAffine
        q, c = (np.array([getattr(s, name) for s in specs]) for name in ("q", "c"))
        assert len(coef) == 2
        assert_array_equal(coef[0], q)
        assert_array_equal(coef[1], -q * c)
        return
    vectors, scalars, _ = RULES[cls]
    names = _PACKED_FIELDS[cls]
    assert kind is cls and names[: len(vectors + scalars)] == vectors + scalars
    assert len(coef) == len(names)
    for name, array in zip(names, coef):
        if name == "sq":
            want = [[float(s.normal @ s.normal)] for s in specs]
        elif name in scalars:
            want = [[getattr(s, name)] for s in specs]
        else:
            want = [getattr(s, name) for s in specs]
        assert_array_equal(array, want, strict=True)
