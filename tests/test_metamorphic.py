"""Metamorphic checks on trees of 2-6 stages.

An exact symmetry of an instance (new label values at each stage, or a sign
flip of some decision coordinates) maps every iterate of every solver to
the mirrored iterate, bit for bit up to the sign of a zero.  A permutation
of the coordinates within a stage reorders the solver's sums, so it keeps
the solution only to within the stopping tolerance.  Balanced branching
trees, with a class of several scenarios at every stage above the leaves,
are checked against the reference solver and the hedging baseline.
"""
import dataclasses

import numpy as np
import pytest

from helpers import branching_tree, combined_norm, mixed_instance, quadratic_box_instance, random_tree
from scensplit import (
    Affine,
    Ball,
    Box,
    Coordinates,
    CvarProblem,
    DiagonalAffine,
    FullActivation,
    GradSeparableQuadratic,
    Halfspace,
    Hyperplane,
    Problem,
    RealCross,
    RoundRobin,
    SeededRandom,
    SeparableQuadratic,
    SolverConfig,
    SolveStatus,
    WholeSpace,
    build_tree,
    policy,
    progressive_hedging_solve,
    solve,
    solve_cvar,
)
from scensplit.operators import RULES
from scensplit.oracle import oracle_solve_quadratic_box
from scensplit.solver import init_state, iterate

STAGES = [2, 3, 4, 5, 6]
# unit steps, and steps that take the non-unit refresh path
STEPS = [{}, {"gamma": 0.7, "mu": 1.3}]
# a cap most quadratic-box runs stop under; a capped run must mirror as well
MAX_ITER = 150

# the fields a sign flip negates; every other field stays
FLIPPED = {
    DiagonalAffine: ("b",),
    GradSeparableQuadratic: ("c",),
    SeparableQuadratic: ("c",),
    Affine: ("c",),
    Ball: ("center",),
    Halfspace: ("normal",),
    Hyperplane: ("normal",),
}


def schedules(n, seed):
    block = max(1, n // 3)
    return {
        "full": FullActivation(),
        "round-robin": RoundRobin(block_size=block),
        "seeded": SeededRandom(block_size=block, cover_window=n, seed=seed),
    }


def flip(spec, sign):
    """``spec`` in the coordinates ``sign * x``."""
    if isinstance(spec, Box):
        return Box(lo=np.where(sign < 0, -spec.hi, spec.lo), hi=np.where(sign < 0, -spec.lo, spec.hi))
    if isinstance(spec, RealCross):
        return RealCross(flip(spec.base, sign[1:]))
    names = FLIPPED.get(type(spec), ())
    return dataclasses.replace(spec, **{name: sign * getattr(spec, name) for name in names})


def permute(spec, perm):
    """``spec`` in the coordinates ``x[perm]``."""
    if isinstance(spec, Coordinates):
        return Coordinates(indices=tuple(np.argsort(perm)[list(spec.indices)].tolist()))
    vectors = RULES.get(type(spec), ((),))[0]
    return dataclasses.replace(spec, **{name: getattr(spec, name)[perm] for name in vectors})


def relabel(rng, tree):
    """The tree with each stage's label values mapped one to one onto new ones."""
    columns = list(zip(*tree.labels))
    maps = []
    for k, column in enumerate(columns):
        values = list(dict.fromkeys(column))
        new = rng.permutation(len(values)).tolist()
        maps.append(dict(zip(values, [f"k{k}-{v}" if k % 2 else 100 + v for v in new])))
    labels = [tuple(m[v] for m, v in zip(maps, path)) for path in tree.labels]
    return build_tree(zip(labels, tree.probabilities.tolist()), tree.stage_dims)


def problem_on(tree, problem, spec_map=lambda spec: spec):
    return Problem(
        tree,
        [spec_map(s) for s in problem.operators],
        [spec_map(s) for s in problem.constraints],
        [spec_map(s) for s in problem.subspaces],
    )


def risk_instance(rng, tree, alpha=0.8):
    """Both cost types over all six constraint types; every set holds 0.5 * ones, every cost is bounded."""
    d = tree.total_dim
    centre = np.full(d, 0.5)

    def plane(cls, shift):
        normal = rng.standard_normal(d)
        return cls(normal=normal, offset=float(normal @ centre) + shift)

    sets = [
        lambda: Box(lo=np.zeros(d), hi=np.ones(d)),
        lambda: Ball(center=centre, radius=1.0),
        lambda: WholeSpace(),
        lambda: plane(Halfspace, 0.3),
        lambda: plane(Hyperplane, 0.0),
        lambda: RealCross(Box(lo=np.zeros(d - 1), hi=np.ones(d - 1))),
    ]
    constraints, costs = [], []
    for i in range(tree.num_scenarios):
        cs = sets[i % 6]()
        constraints.append(cs)
        if isinstance(cs, (Box, Ball)):  # compact: a linear cost is bounded
            costs.append(Affine(c=rng.uniform(-1.0, 1.0, d), r=float(rng.uniform(-1.0, 1.0))))
        else:
            costs.append(SeparableQuadratic(q=rng.uniform(0.5, 2.0, d), c=rng.uniform(-1.0, 1.5, d)))
    return CvarProblem(tree, alpha, costs, constraints)


def mapped_problem(rng, symmetry, problem):
    """``problem`` under a random symmetry, and the map of its solutions back."""
    tree = problem.tree
    if symmetry == "relabel":
        return problem_on(relabel(rng, tree), problem), lambda a: a
    sign = np.where(rng.random(tree.total_dim) < 0.5, -1.0, 1.0)
    return problem_on(tree, problem, lambda spec: flip(spec, sign)), lambda a: sign * a


def random_deep_tree(rng, stages):
    return random_tree(rng, int(rng.integers(stages, 3 * stages)), stages, max_dim=3)


def assert_mirrored(got, want, back):
    assert got.status is want.status
    assert got.iterations == want.iterations
    # ==, not bits: a mirrored zero may carry the other sign
    assert (back(got.x_bar) == want.x_bar).all()
    assert (back(got.v_star_bar) == want.v_star_bar).all()


# --- exact symmetries ---

@pytest.mark.parametrize("symmetry", ["relabel", "flip"])
@pytest.mark.parametrize("stages", STAGES)
def test_exact_symmetries_mirror_every_solver(symmetry, stages):
    rng = np.random.default_rng(1000 * stages + len(symmetry))
    for make in (quadratic_box_instance, mixed_instance):
        tree = random_deep_tree(rng, stages)
        problem = make(rng, tree)
        mapped, back = mapped_problem(rng, symmetry, problem)
        # every schedule, at both step forms across the stage counts
        for j, schedule in enumerate(schedules(tree.num_scenarios, stages).values()):
            steps = STEPS[(stages + j) % 2]
            cfg = SolverConfig(tol=1e-7, max_iter=MAX_ITER, schedule=schedule, **steps)
            assert_mirrored(solve(mapped, cfg), solve(problem, cfg), back)
        if make is quadratic_box_instance:  # hedging takes boxes, not the other sets
            gamma = (1.0, 0.7)[stages % 2]
            want = progressive_hedging_solve(problem, gamma=gamma, tol=1e-7, max_iter=MAX_ITER)
            got = progressive_hedging_solve(mapped, gamma=gamma, tol=1e-7, max_iter=MAX_ITER)
            assert_mirrored(got, want, back)


@pytest.mark.parametrize("symmetry", ["relabel", "flip"])
@pytest.mark.parametrize("stages", STAGES)
def test_exact_symmetries_mirror_the_risk_pipeline(symmetry, stages):
    rng = np.random.default_rng(2000 * stages + len(symmetry))
    cp = risk_instance(rng, random_deep_tree(rng, stages))
    tree = cp.tree
    sign = np.ones(tree.total_dim)
    if symmetry == "relabel":
        mapped = CvarProblem(relabel(rng, tree), cp.alpha, cp.costs, cp.constraints)
    else:
        sign[rng.random(tree.total_dim) < 0.5] = -1.0
        mapped = CvarProblem(
            tree, cp.alpha, [flip(f, sign) for f in cp.costs], [flip(c, sign) for c in cp.constraints]
        )
    # the lifted threshold, column 0 of the inner solution, keeps its sign
    lifted = np.concatenate(([1.0], sign))
    # each schedule and step form at some stage counts
    schedule = list(schedules(tree.num_scenarios, stages).values())[stages % 3]
    cfg = SolverConfig(tol=1e-4, max_iter=MAX_ITER, schedule=schedule, **STEPS[stages % 2])
    got, want = solve_cvar(mapped, cfg), solve_cvar(cp, cfg)
    assert_mirrored(got.inner, want.inner, lambda a: lifted * a)
    assert (sign * got.x_bar == want.x_bar).all()
    assert got.y_bar == want.y_bar and got.objective == want.objective


# --- permutations within a stage ---

def stage_permutation(rng, tree):
    """A random permutation of the decision coordinates that keeps each within its stage."""
    return np.concatenate([sl.start + rng.permutation(sl.stop - sl.start) for sl in tree.stage_slices])


@pytest.mark.parametrize("stages", STAGES)
def test_stage_permutations_keep_the_solution(stages):
    # a permutation reorders the sums of the inner products and the averages,
    # so the iterates agree only up to roundoff, not bit for bit
    rng = np.random.default_rng(3000 * stages)
    for make, tol in ((quadratic_box_instance, 1e-9), (mixed_instance, 1e-7)):
        tree = random_deep_tree(rng, stages)
        problem = make(rng, tree)
        perm = stage_permutation(rng, tree)
        mapped = problem_on(tree, problem, lambda spec: permute(spec, perm))
        runs = schedules(tree.num_scenarios, stages)
        if make is mixed_instance:  # round-robin runs are slow here, and kept their counts in trials
            del runs["round-robin"]
        for schedule in runs.values():
            cfg = SolverConfig(tol=tol, max_iter=20000, schedule=schedule)
            got, want = solve(mapped, cfg), solve(problem, cfg)
            assert got.status is want.status is SolveStatus.CONVERGED
            error = np.abs(got.x_bar[:, np.argsort(perm)] - want.x_bar).max()
            if make is quadratic_box_instance:
                assert got.iterations == want.iterations
                assert error <= tol
            else:
                # near tol the residual falls slowly, so the reordered roundoff
                # can move the stopping iteration; both runs stop within tol
                assert error <= 10 * tol


# --- deep balanced trees ---

@pytest.mark.parametrize("branching", [(3, 3, 3, 3, 3), (2, 2, 2, 2, 2, 2, 2)], ids=["3^5", "2^7"])
def test_branching_trees_match_the_oracle_and_hedging(branching):
    rng = np.random.default_rng(len(branching))
    tree = branching_tree(rng, branching)
    # a class of several scenarios at every stage above the leaves
    assert [len(c) for c in tree.classes] == np.cumprod((1,) + branching).tolist()
    problem = quadratic_box_instance(rng, tree)
    tol = 1e-9
    want = oracle_solve_quadratic_box(problem)
    hedge = progressive_hedging_solve(problem, tol=tol)
    assert hedge.status is SolveStatus.CONVERGED
    assert policy.norm(tree, hedge.x_bar - want) <= 10 * tol
    for schedule in schedules(tree.num_scenarios, 0).values():
        sol = solve(problem, SolverConfig(tol=tol, schedule=schedule))
        assert sol.status is SolveStatus.CONVERGED
        assert policy.norm(tree, sol.x_bar - want) <= 10 * tol
        assert policy.norm(tree, sol.x_bar - hedge.x_bar) <= 10 * tol


def test_distance_to_the_solution_never_grows_on_a_branching_tree():
    # acceptance criterion 5 on a tree with interior classes at every stage
    rng = np.random.default_rng(5)
    tree = branching_tree(rng, (2, 3, 2, 2))
    problem = quadratic_box_instance(rng, tree)
    # the solver's state is updated in place, so the one kept is the last
    kept = {}
    ref = solve(problem, SolverConfig(tol=1e-13, max_iter=10**6), callback=lambda st: kept.setdefault("state", st))
    assert ref.status is SolveStatus.CONVERGED
    end = kept["state"]
    for schedule in schedules(tree.num_scenarios, 0).values():
        cfg = SolverConfig(tol=0.0, max_iter=250, schedule=schedule)
        state = init_state(problem, cfg)
        prev = combined_norm(tree, state.x - end.x, state.x_star - end.x_star, state.v_star - end.v_star)
        for _ in range(250):
            iterate(state, problem, cfg)
            dist = combined_norm(tree, state.x - end.x, state.x_star - end.x_star, state.v_star - end.v_star)
            assert dist <= prev + 1e-10
            prev = dist
