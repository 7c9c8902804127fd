import numpy as np
import pytest
from numpy.testing import assert_allclose

from scensplit.cvar import CvarProblem, cvar_value, solve_cvar
from scensplit.errors import (
    BadGrid,
    ConfigError,
    NonPositiveGamma,
    TooManyFreeCoordinates,
    UnsupportedInstance,
)
from scensplit.operators import (
    Affine,
    Ball,
    Box,
    DiagonalAffine,
    Full,
    GradSeparableQuadratic,
    Halfspace,
    Hyperplane,
    RealCross,
    SeparableQuadratic,
    WholeSpace,
    cost_prox,
    cost_value,
)
from scensplit.oracle import (
    GridSpec,
    _eval_cost_many,
    _feasible_many,
    oracle_cvar_small,
    oracle_prox_cvar_grid,
    oracle_prox_grid,
    oracle_solve_quadratic_box,
)
from scensplit.solver import Problem, SolverConfig, SolveStatus
from scensplit.tree import build_tree


def line_grid(width=5.0, points=2001, rounds=3):
    return GridSpec(lower=[-width], upper=[width], points=points, rounds=rounds)


# --- grid specification ---

def test_grid_spec_validation():
    spec = GridSpec(lower=[-1.0], upper=[1.0], points=3, rounds=2)
    assert spec.dim == 1
    assert_allclose(spec.final_pitch, [0.01])
    with pytest.raises(BadGrid):
        GridSpec(lower=[1.0], upper=[1.0])
    with pytest.raises(BadGrid):
        GridSpec(lower=[0.0, 0.0], upper=[1.0])
    with pytest.raises(BadGrid):
        GridSpec(lower=[-np.inf], upper=[1.0])
    with pytest.raises(BadGrid):
        GridSpec(lower=[0.0], upper=[1.0], points=2)
    with pytest.raises(BadGrid):
        GridSpec(lower=[0.0], upper=[1.0], rounds=-1)


_LINE = GridSpec(lower=[-1.0], upper=[1.0], points=11, rounds=0)
_PLANE = GridSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0], points=11, rounds=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: GridSpec(lower="0", upper="1"),
        lambda: GridSpec([0.0], ["1"]),
        lambda: GridSpec([True], [2.0]),
        lambda: GridSpec(None, [1.0]),
        lambda: oracle_prox_grid(Affine(c=[1.0]), 1.0, "0.5", _LINE),
        lambda: oracle_prox_grid(Affine(c=[1.0]), 1.0, True, _LINE),
        lambda: oracle_prox_grid(Affine(c=[1.0]), 1.0, [0.5], _LINE),
        lambda: oracle_prox_cvar_grid(Affine(c=[1.0]), 0.5, 1.0, "1", 0.0, _PLANE),
        lambda: oracle_prox_cvar_grid(Affine(c=[1.0]), 0.5, 1.0, 0.0, None, _PLANE),
        lambda: oracle_prox_cvar_grid(Affine(c=[1.0]), "0.5", 1.0, 0.0, 0.0, _PLANE),
        lambda: oracle_prox_cvar_grid(Affine(c=[1.0]), True, 1.0, 0.0, 0.0, _PLANE),
    ],
    ids=[
        "grid-str", "grid-str-entry", "grid-bool", "grid-none", "prox-x-str", "prox-x-bool",
        "prox-x-list", "cvar-y-str", "cvar-x-none", "cvar-alpha-str", "cvar-alpha-bool",
    ],
)
def test_oracle_numbers_that_are_not_numbers_are_refused(call):
    with pytest.raises(ConfigError, match="must be"):
        call()


def test_oracle_numbers_take_numpy_numbers():
    grid = GridSpec(np.float32(-1.0), np.array([1.0]), points=11, rounds=0)
    assert_allclose(grid.lower, [-1.0])
    f = Affine(c=[1.0])
    assert oracle_prox_grid(f, 1.0, np.float64(0.5), _LINE) == oracle_prox_grid(f, 1.0, 0.5, _LINE)
    want = oracle_prox_cvar_grid(f, 0.5, 1.0, 0.0, 0.0, _PLANE)
    assert oracle_prox_cvar_grid(f, np.float64(0.5), 1.0, np.int64(0), np.array(0.0), _PLANE) == want


# --- scalar prox oracle ---

def test_oracle_prox_plain_matches_closed_form():
    rng = np.random.default_rng(51)
    grid = line_grid()
    tol = 2.0 * float(grid.final_pitch[0])
    for _ in range(10):
        f = SeparableQuadratic(
            q=[float(rng.uniform(0.2, 2.0))], c=[float(rng.uniform(-1, 1))]
        )
        gamma = float(rng.uniform(0.2, 2.0))
        x = float(rng.uniform(-2, 2))
        got = oracle_prox_grid(f, gamma, x, grid, positive_part=False)
        want = float(cost_prox(f, gamma, np.array([x]))[0])
        assert got == pytest.approx(want, abs=tol)


def test_oracle_prox_positive_part_known_values():
    grid = line_grid()
    tol = 2.0 * float(grid.final_pitch[0])
    f = Affine(c=[1.0], r=-1.0)
    assert oracle_prox_grid(f, 1.0, 0.5, grid) == pytest.approx(0.5, abs=tol)
    assert oracle_prox_grid(f, 1.0, 3.0, grid) == pytest.approx(2.0, abs=tol)
    assert oracle_prox_grid(f, 1.0, 1.5, grid) == pytest.approx(1.0, abs=tol)
    bowl = SeparableQuadratic(q=[2.0], c=[0.0], r=-1.0)
    assert oracle_prox_grid(bowl, 10.0, 1.5, grid) == pytest.approx(1.0, abs=tol)


def test_oracle_prox_refinement_never_hurts():
    f = SeparableQuadratic(q=[1.0], c=[0.7], r=-0.2)

    def objective(p):
        return max(cost_value(f, [p]), 0.0) + 0.5 * (p - 2.3) ** 2

    coarse = oracle_prox_grid(f, 1.0, 2.3, line_grid(points=101, rounds=0))
    fine = oracle_prox_grid(f, 1.0, 2.3, line_grid(points=101, rounds=3))
    assert objective(fine) <= objective(coarse) + 1e-15


def test_oracle_prox_errors():
    grid = line_grid(points=101, rounds=0)
    f = Affine(c=[1.0])
    with pytest.raises(NonPositiveGamma):
        oracle_prox_grid(f, 0.0, 1.0, grid)
    with pytest.raises(UnsupportedInstance):
        oracle_prox_grid(Affine(c=[1.0, 1.0]), 1.0, 1.0, grid)
    with pytest.raises(UnsupportedInstance):
        oracle_prox_grid(f, 1.0, 1.0, GridSpec(lower=[0.0, 0.0], upper=[1.0, 1.0]))


# --- augmented prox oracle ---

def test_oracle_prox_cvar_known_values():
    grid = GridSpec(lower=[-6.0, -6.0], upper=[6.0, 6.0], points=401, rounds=3)
    tol = 2.0 * float(grid.final_pitch.max())
    f = Affine(c=[1.0], r=0.0)
    thr, dec = oracle_prox_cvar_grid(f, 0.5, 1.0, -3.0, 1.0, grid)
    assert thr == pytest.approx(-2.0, abs=tol)
    assert dec == pytest.approx(-1.0, abs=tol)
    thr, dec = oracle_prox_cvar_grid(f, 0.5, 1.0, 0.0, 1.0, grid)
    assert thr == pytest.approx(0.0, abs=tol)
    assert dec == pytest.approx(0.0, abs=tol)
    thr, dec = oracle_prox_cvar_grid(f, 0.5, 1.0, 5.0, 1.0, grid)
    assert thr == pytest.approx(4.0, abs=tol)
    assert dec == pytest.approx(1.0, abs=tol)


def _stacked_prox_cvar_grid(f, alpha, gamma, y, x, grid):
    # the evaluation oracle_prox_cvar_grid replaced: every round stacks the
    # mesh as rows, appends the kink rows and evaluates the cost on each row
    scale = 1.0 / (1.0 - alpha)

    def objective(pts):
        thr = pts[:, 0]
        dec = pts[:, 1:2]
        fv = _eval_cost_many(f, dec)
        risk = thr + scale * np.maximum(fv - thr, 0.0)
        return gamma * risk + 0.5 * ((thr - y) ** 2 + (dec[:, 0] - x) ** 2)

    lo, hi = grid.lower.copy(), grid.upper.copy()
    best_point, best_value = None, np.inf
    for _ in range(grid.rounds + 1):
        axes = [np.linspace(lo[j], hi[j], grid.points) for j in range(2)]
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
        dec = np.linspace(lo[1], hi[1], grid.points)
        thr = _eval_cost_many(f, dec[:, None])
        keep = (thr >= lo[0]) & (thr <= hi[0])
        more = np.stack([thr[keep], dec[keep]], axis=-1)
        if more.size:
            pts = np.concatenate([pts, more], axis=0)
        vals = objective(pts)
        at = int(np.argmin(vals))
        if vals[at] < best_value:
            best_value, best_point = float(vals[at]), pts[at].copy()
        width = (hi - lo) / 10.0
        lo = np.maximum(grid.lower, best_point - width / 2.0)
        hi = np.minimum(grid.upper, best_point + width / 2.0)
    return float(best_point[0]), float(best_point[1])


def test_oracle_prox_cvar_matches_stacked_rows_bitwise():
    rng = np.random.default_rng(77)
    for _ in range(50):
        if rng.random() < 0.5:
            f = Affine(c=[float(rng.uniform(-2, 2))], r=float(rng.uniform(-1, 1)))
        else:
            f = SeparableQuadratic(
                q=[float(rng.uniform(0.3, 3.0))],
                c=[float(rng.uniform(-2, 2))],
                r=float(rng.uniform(-1, 1)),
            )
        alpha, gamma = float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 2.0))
        y, x = rng.uniform(-3, 3, size=2)
        lower = rng.uniform(-5, -0.5, size=2)
        grid = GridSpec(
            lower=lower,
            upper=lower + rng.uniform(1.0, 8.0, size=2),
            points=int(rng.choice([51, 101, 201])),
            rounds=int(rng.integers(0, 5)),
        )
        got = oracle_prox_cvar_grid(f, alpha, gamma, y, x, grid)
        want = _stacked_prox_cvar_grid(f, alpha, gamma, y, x, grid)
        assert np.array_equal(got, want), (f, alpha, gamma, y, x, grid)


def test_oracle_prox_cvar_errors():
    grid = GridSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0], points=11, rounds=0)
    f = Affine(c=[1.0])
    with pytest.raises(NonPositiveGamma):
        oracle_prox_cvar_grid(f, 0.5, -1.0, 0.0, 0.0, grid)
    with pytest.raises(UnsupportedInstance):
        oracle_prox_cvar_grid(f, 1.5, 1.0, 0.0, 0.0, grid)
    with pytest.raises(UnsupportedInstance):
        oracle_prox_cvar_grid(f, 0.5, 1.0, 0.0, 0.0, line_grid(points=11, rounds=0))


# --- quadratic box oracle ---

def test_oracle_quadratic_box_pair():
    tree = build_tree([((0, 0), 0.5), ((1, 0), 0.5)], stage_dims=[1, 1])
    ops = (
        GradSeparableQuadratic(q=[1.0, 1.0], c=[0.0, 0.2]),
        GradSeparableQuadratic(q=[1.0, 1.0], c=[1.0, 0.8]),
    )
    cons = (Box(lo=[0.0, 0.0], hi=[1.0, 1.0]),) * 2
    prob = Problem(tree, ops, cons, (Full(),) * 2)
    got = oracle_solve_quadratic_box(prob)
    assert_allclose(got, [[0.5, 0.2], [0.5, 0.8]], atol=1e-9)


def test_oracle_quadratic_box_active_bounds():
    tree = build_tree([((0,), 1.0)], stage_dims=[2])
    prob = Problem(
        tree,
        (GradSeparableQuadratic(q=[1.0, 1.0], c=[1.5, -0.3]),),
        (Box(lo=[0.0, 0.0], hi=[1.0, 1.0]),),
        (Full(),),
    )
    assert_allclose(oracle_solve_quadratic_box(prob), [[1.0, 0.0]], atol=1e-10)


def test_oracle_quadratic_box_weighted_average():
    # zero-curvature coordinates stay at the clipped origin
    tree = build_tree([((0, 0), 0.8), ((1, 0), 0.2)], stage_dims=[1, 1])
    ops = (
        GradSeparableQuadratic(q=[2.0, 0.0], c=[1.0, 0.0]),
        GradSeparableQuadratic(q=[1.0, 1.0], c=[0.1, 0.9]),
    )
    cons = (Box(lo=[0.0, 0.0], hi=[1.0, 1.0]),) * 2
    got = oracle_solve_quadratic_box(Problem(tree, ops, cons, (Full(),) * 2))
    # shared coordinate solves (0.8*2 + 0.2*1) z = 0.8*2*1 + 0.2*1*0.1
    assert got[0, 0] == pytest.approx(1.62 / 1.8, abs=1e-9)
    assert got[0, 0] == got[1, 0]
    assert got[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert got[1, 1] == pytest.approx(0.9, abs=1e-9)


def test_oracle_quadratic_box_rejections():
    tree = build_tree([((0,), 1.0)], stage_dims=[1])
    box = (Box(lo=[0.0], hi=[1.0]),)
    with pytest.raises(UnsupportedInstance):
        oracle_solve_quadratic_box(
            Problem(tree, (DiagonalAffine(a=[1.0], b=[0.0]),), box, (Full(),))
        )
    with pytest.raises(UnsupportedInstance):
        oracle_solve_quadratic_box(
            Problem(
                tree,
                (GradSeparableQuadratic(q=[1.0], c=[0.0]),),
                (WholeSpace(),),
                (Full(),),
            )
        )
    pair = build_tree([((0, 0), 0.5), ((1, 0), 0.5)], stage_dims=[1, 1])
    ops = (GradSeparableQuadratic(q=[1.0, 1.0], c=[0.5, 0.5]),) * 2
    disjoint = (
        Box(lo=[0.6, 0.0], hi=[1.0, 1.0]),
        Box(lo=[0.0, 0.0], hi=[0.4, 1.0]),
    )
    with pytest.raises(UnsupportedInstance):
        oracle_solve_quadratic_box(Problem(pair, ops, disjoint, (Full(),) * 2))


# --- tiny risk oracle ---

def test_oracle_cvar_small_affine_boundary():
    # single-stage tree: the lone decision is shared by both scenarios
    tree = build_tree([((0,), 0.7), ((1,), 0.3)], stage_dims=[1])
    cp = CvarProblem(
        tree,
        0.5,
        (Affine(c=[-1.0]), Affine(c=[0.5])),
        (Box(lo=[0.0], hi=[1.0]),) * 2,
    )
    grid = GridSpec(lower=[-0.5], upper=[1.5], points=201, rounds=2)
    point, value = oracle_cvar_small(cp, grid)
    tol = 2.0 * float(grid.final_pitch.max())
    assert_allclose(point, [[1.0], [1.0]], atol=tol)
    assert value == pytest.approx(-0.1, abs=tol)


def test_oracle_cvar_small_quadratic_common_minimum():
    tree = build_tree([((0,), 0.7), ((1,), 0.3)], stage_dims=[1])
    cp = CvarProblem(
        tree,
        0.3,
        (SeparableQuadratic(q=[1.0], c=[0.3]),) * 2,
        (WholeSpace(),) * 2,
    )
    grid = GridSpec(lower=[-1.0], upper=[1.0], points=201, rounds=2)
    point, value = oracle_cvar_small(cp, grid)
    tol = 2.0 * float(grid.final_pitch.max())
    assert_allclose(point, [[0.3], [0.3]], atol=tol)
    assert value == pytest.approx(0.0, abs=tol)


@pytest.mark.parametrize(
    "constraint",
    [
        Ball(center=[0.0, 0.0], radius=1.0),
        Halfspace(normal=[1.0, 1.0], offset=1.0),
        # through the grid's y = 0.5 line, so grid points lie on it
        Hyperplane(normal=[0.0, 1.0], offset=0.5),
    ],
    ids=["ball", "halfspace", "hyperplane"],
)
def test_oracle_cvar_small_matches_solve_cvar_on_curved_and_flat_sets(constraint):
    # both costs pull the shared decision out of the set, onto its boundary
    tree = build_tree([((0,), 0.6), ((1,), 0.4)], stage_dims=[2])
    costs = (
        SeparableQuadratic(q=[1.0, 2.0], c=[1.5, 1.0]),
        SeparableQuadratic(q=[2.0, 1.0], c=[1.0, 2.0]),
    )
    cp = CvarProblem(tree, 0.5, costs, (constraint,) * 2)
    grid = GridSpec(lower=[-1.0, -1.0], upper=[2.0, 2.0], points=301, rounds=2)
    point, value = oracle_cvar_small(cp, grid)
    sol = solve_cvar(cp, SolverConfig(tol=1e-10))
    assert sol.inner.status is SolveStatus.CONVERGED
    assert np.max(np.abs(sol.x_bar - point)) <= 2.0 * float(grid.final_pitch.max())
    assert sol.objective == pytest.approx(value, abs=1e-5)


def test_feasibility_mask_of_a_real_cross_reads_its_base():
    pts = np.array([[5.0, 0.5, 0.5], [-5.0, 2.0, 0.0]])
    base = Ball(center=[0.0, 0.0], radius=1.0)
    assert _feasible_many(RealCross(base), pts).tolist() == [True, False]
    with pytest.raises(UnsupportedInstance):
        _feasible_many(Full(), pts)


def test_oracle_cvar_small_beats_random_candidates():
    rng = np.random.default_rng(52)
    tree = build_tree([((0, 0), 0.5), ((1, 0), 0.5)], stage_dims=[1, 1])
    costs = (
        SeparableQuadratic(q=[1.0, 1.0], c=[0.0, 0.2]),
        SeparableQuadratic(q=[1.0, 1.0], c=[1.0, 0.8]),
    )
    cp = CvarProblem(tree, 0.6, costs, (WholeSpace(),) * 2)
    grid = GridSpec(lower=[-2.0] * 3, upper=[2.0] * 3, points=101, rounds=2)
    _, value = oracle_cvar_small(cp, grid)
    for _ in range(20):
        shared = rng.uniform(-2, 2)
        x = np.array([[shared, rng.uniform(-2, 2)], [shared, rng.uniform(-2, 2)]])
        losses = np.array([cost_value(f, x[i]) for i, f in enumerate(costs)])
        assert value <= cvar_value(tree, 0.6, losses) + 1e-9


def test_oracle_cvar_small_rejections():
    # four branches plus a shared root: 5 free coordinates
    wide = build_tree([((i, 0), 0.25) for i in range(4)], stage_dims=[1, 1])
    cp = CvarProblem(wide, 0.5, (Affine(c=[1.0, 1.0]),) * 4, (WholeSpace(),) * 4)
    grid4 = GridSpec(lower=[-1.0] * 4, upper=[1.0] * 4, points=11, rounds=0)
    with pytest.raises(TooManyFreeCoordinates):
        oracle_cvar_small(cp, grid4)

    pair = build_tree([((0,), 0.5), ((1,), 0.5)], stage_dims=[1])
    cp2 = CvarProblem(pair, 0.5, (Affine(c=[1.0]),) * 2, (WholeSpace(),) * 2)
    two_axes = GridSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0], points=11, rounds=0)
    with pytest.raises(BadGrid):
        oracle_cvar_small(cp2, two_axes)

    # a grid that misses the feasible set entirely has no finite value
    off = CvarProblem(pair, 0.5, (Affine(c=[1.0]),) * 2, (Box(lo=[5.0], hi=[6.0]),) * 2)
    narrow = GridSpec(lower=[0.0], upper=[1.0], points=11, rounds=0)
    with pytest.raises(UnsupportedInstance):
        oracle_cvar_small(off, narrow)
