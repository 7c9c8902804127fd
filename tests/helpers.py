"""Shared random-instance builders and independent check utilities."""
import itertools
import math

import numpy as np

from scensplit import (
    Ball,
    Box,
    Coordinates,
    DiagonalAffine,
    Full,
    GradSeparableQuadratic,
    Halfspace,
    Hyperplane,
    Problem,
    WholeSpace,
    Zero,
    build_tree,
)
from scensplit import policy
from scensplit.operators import apply_operator, project_constraint, project_subspace, resolvent
from scensplit.solver import SolveStatus, _status, _stop_residual, init_state, iterate


def random_tree(rng, num_scenarios, num_stages, max_dim=3):
    """Random information structure: a chain of refining partitions."""
    blocks = [list(range(num_scenarios))]
    partitions = []
    for _ in range(num_stages - 1):
        new_blocks = []
        for blk in blocks:
            if len(blk) >= 2 and rng.random() < 0.6:
                cut = int(rng.integers(1, len(blk)))
                picks = list(rng.permutation(blk))
                new_blocks.append(sorted(picks[:cut]))
                new_blocks.append(sorted(picks[cut:]))
            else:
                new_blocks.append(blk)
        blocks = new_blocks
        partitions.append(blocks)

    def block_of(s, part):
        for j, blk in enumerate(part):
            if s in blk:
                return j
        raise AssertionError("partition does not cover scenario")

    labels = []
    for s in range(num_scenarios):
        seq = [block_of(s, part) for part in partitions] + [s]
        labels.append(tuple(seq))
    probs = rng.uniform(0.2, 1.0, num_scenarios)
    probs = probs / probs.sum()
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(num_stages)]
    return build_tree(list(zip(labels, probs)), dims)


def branching_tree(rng, branching, max_dim=3):
    """Balanced tree: each class of stage k splits into ``branching[k-1]`` classes at stage k+1.

    ``len(branching) + 1`` stages and ``prod(branching)`` scenarios.  Stage k
    has ``prod(branching[:k-1])`` classes, so with every branching >= 2 each
    stage above the leaves has a class of several scenarios.
    """
    paths = itertools.product(*map(range, branching))
    n = math.prod(branching)
    probs = rng.uniform(0.2, 1.0, n)
    probs = probs / probs.sum()
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(len(branching) + 1)]
    return build_tree([(path + (0,), p) for path, p in zip(paths, probs.tolist())], dims)


def random_policy(rng, tree, scale=1.0):
    return scale * rng.standard_normal((tree.num_scenarios, tree.total_dim))


def quadratic_box_instance(rng, tree):
    """Strongly monotone quadratic operators over unit boxes."""
    d = tree.total_dim
    ops = tuple(
        GradSeparableQuadratic(q=rng.uniform(0.5, 2.0, d), c=rng.uniform(-0.3, 1.3, d))
        for _ in range(tree.num_scenarios)
    )
    cons = (Box(lo=np.zeros(d), hi=np.ones(d)),) * tree.num_scenarios
    return Problem(tree, ops, cons, (Full(),) * tree.num_scenarios)


def unconstrained_instance(problem):
    """The same operators with every constraint dropped."""
    n = problem.tree.num_scenarios
    return Problem(problem.tree, problem.operators, (WholeSpace(),) * n, (Full(),) * n)


def mixed_instance(rng, tree):
    """Instance cycling through the operator and constraint catalog."""
    d = tree.total_dim
    n = tree.num_scenarios
    ops = []
    cons = []
    subs = []
    for i in range(n):
        if i % 2 == 0:
            ops.append(DiagonalAffine(a=rng.uniform(0.2, 2.0, d), b=rng.uniform(-1.0, 1.0, d)))
        else:
            ops.append(
                GradSeparableQuadratic(q=rng.uniform(0.2, 2.0, d), c=rng.uniform(-1.0, 1.5, d))
            )
        pick = i % 5
        if pick == 0:
            cons.append(WholeSpace())
            subs.append(Zero() if i == 0 else Full())
        elif pick == 1:
            cons.append(Box(lo=np.zeros(d), hi=np.ones(d)))
            subs.append(Full())
        elif pick == 2:
            cons.append(Ball(center=0.5 * np.ones(d), radius=1.0))
            subs.append(Full())
        elif pick == 3:
            normal = rng.standard_normal(d)
            while not np.any(normal != 0.0):
                normal = rng.standard_normal(d)
            cons.append(Halfspace(normal=normal, offset=float(normal @ (0.5 * np.ones(d))) + 0.3))
            subs.append(Full())
        else:
            normal = rng.standard_normal(d)
            while not np.any(normal != 0.0):
                normal = rng.standard_normal(d)
            cons.append(Hyperplane(normal=normal, offset=float(normal @ (0.5 * np.ones(d)))))
            subs.append(Full())
    if n >= 4 and d >= 2:
        # exercise the coordinate-subspace pairing too
        sel = (0,)
        lo = np.full(d, -np.inf)
        hi = np.full(d, np.inf)
        lo[0], hi[0] = 0.0, 1.0
        cons[3] = Box(lo=lo, hi=hi)
        subs[3] = Coordinates(indices=sel)
    return Problem(tree, tuple(ops), tuple(cons), tuple(subs))


def lsq_project_nonanticipative(tree, x):
    """Independent projection via explicit basis + weighted least squares."""
    S, d = tree.num_scenarios, tree.total_dim
    cols = []
    for k, block in enumerate(tree.stage_slices):
        for members in tree.classes[k]:
            for col in range(block.start, block.stop):
                B = np.zeros((S, d))
                B[list(members), col] = 1.0
                cols.append(B.ravel())
    A = np.array(cols).T
    w = np.sqrt(np.repeat(tree.probabilities, d))
    z, *_ = np.linalg.lstsq(A * w[:, None], x.ravel() * w, rcond=None)
    return (A @ z).reshape(S, d)


def refresh_by_rows(problem, state, rows, gamma, mu):
    """The refresh of ``rows`` written out with the one-row functions.

    Returns the five layers op_point, op_dual, set_point, set_dual and gap,
    one (k, d) array each.  An independent reference for the stacked refresh.
    """
    out = []
    for i in rows:
        x, xs, vs = state.x[i], state.x_star[i], state.v_star[i]
        a = resolvent(problem.operators[i], gamma, x - gamma * (xs + vs))
        b = project_constraint(problem.constraints[i], x + mu * xs)
        gap = project_subspace(problem.subspaces[i], b - a)
        out.append((a, (x - a) / gamma - (xs + vs), b, xs + (x - b) / mu, gap))
    return [np.array(col) for col in zip(*out)]


def combined_norm(tree, x, x_star, v_star):
    return float(
        np.sqrt(
            policy.norm(tree, x) ** 2
            + policy.norm(tree, x_star) ** 2
            + policy.norm(tree, v_star) ** 2
        )
    )


def implementability_violation(problem, state):
    """Largest relative violation of the per-iteration membership facts."""
    tree = problem.tree
    worst = 0.0

    def rel(gap, size):
        return gap / (1.0 + size)

    for i in range(tree.num_scenarios):
        op = problem.operators[i]
        cs = problem.constraints[i]
        us = problem.subspaces[i]
        a, a_star = state.op_point[i], state.op_dual[i]
        b, b_star = state.set_point[i], state.set_dual[i]
        gap = state.gap[i]
        worst = max(
            worst,
            rel(
                float(np.linalg.norm(apply_operator(op, a) - a_star)),
                float(np.linalg.norm(a_star)),
            ),
        )
        worst = max(
            worst,
            rel(
                float(np.linalg.norm(project_constraint(cs, b + b_star) - b)),
                float(np.linalg.norm(b) + np.linalg.norm(b_star)),
            ),
        )
        worst = max(
            worst,
            rel(float(np.linalg.norm(project_subspace(us, gap) - gap)), float(np.linalg.norm(gap))),
        )
        worst = max(
            worst,
            rel(
                float(
                    np.linalg.norm(project_subspace(us, state.x_star[i]) - state.x_star[i])
                ),
                float(np.linalg.norm(state.x_star[i])),
            ),
        )
    worst = max(
        worst,
        rel(
            policy.norm(tree, state.x - policy.project_nonanticipative(tree, state.x)),
            policy.norm(tree, state.x),
        ),
    )
    worst = max(
        worst,
        rel(
            policy.norm(tree, policy.project_nonanticipative(tree, state.v_star)),
            policy.norm(tree, state.v_star),
        ),
    )
    return worst


def solve_testing_every_step(problem, config, callback=None):
    """``solve`` with its stopping test run before every step, never skipped.

    Returns the status, the iterations, the last residual, x and v*.
    """
    state = init_state(problem, config)
    while True:
        residual, points = _stop_residual(problem, state.x, state.x_star, state.v_star, state.root)
        state.root = points[2]
        status = _status(residual, config.tol, state.iteration, config.max_iter)
        if status is not None:
            return status, state.iteration, residual, state.x.copy(), state.v_star.copy()
        iterate(state, problem, config, points)
        if callback is not None:
            callback(state)
        if not all(map(math.isfinite, (state.kappa, state.tau, state.theta))):
            status = SolveStatus.NON_FINITE
            return status, state.iteration, residual, state.x.copy(), state.v_star.copy()
