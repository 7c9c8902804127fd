import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scensplit import build_tree, policy
from scensplit.cvar import CvarProblem, augment
from scensplit.errors import ShapeMismatch
from scensplit.operators import SeparableQuadratic, WholeSpace

from helpers import lsq_project_nonanticipative, random_policy, random_tree


@pytest.fixture
def pair_tree():
    return build_tree([(("a", "u"), 0.5), (("b", "w"), 0.5)], [1, 1])


def test_inner_weights_by_probability():
    tree = build_tree([(("a",), 0.25), (("b",), 0.75)], [2])
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    y = np.array([[1.0, 1.0], [1.0, 1.0]])
    # 0.25*(1+2) + 0.75*(3+4)
    assert policy.inner(tree, x, y) == pytest.approx(6.0)
    assert policy.norm(tree, y) == pytest.approx(np.sqrt(2.0))


def shaped_tree(rng, num_scenarios, dim):
    """One stage of ``dim`` coordinates over distinct scenarios with random probabilities."""
    probs = rng.uniform(0.1, 1.0, num_scenarios)
    return build_tree([((s,), p) for s, p in enumerate(probs / probs.sum())], (dim,))


def spread_policy(rng, tree):
    """Random signs and magnitudes from 1e-8 to 1e8, about one entry in ten zero."""
    shape = (tree.num_scenarios, tree.total_dim)
    x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    x[rng.random(shape) < 0.1] = 0.0
    return x


# N*d on both sides of 8192, the size of numpy's einsum buffer
@pytest.mark.parametrize("num_scenarios, dim", [(16, 7), (1024, 6), (1366, 6), (2048, 6)])
def test_inner_matches_exact_sum(num_scenarios, dim):
    rng = np.random.default_rng(num_scenarios + dim)
    tree = shaped_tree(rng, num_scenarios, dim)
    probs = tree.probabilities.tolist()
    # a sum of n rounded terms is within 4 sqrt(n) eps * sum|t| of exact here: the
    # probabilistic bound of Higham & Mary (SIAM J. Sci. Comput. 41, 2019); the
    # worst of these cases sits near 12 eps * sum|t|, for x = y
    slack = 4.0 * math.sqrt(num_scenarios * dim) * np.finfo(float).eps
    for x, y in (
        (spread_policy(rng, tree), spread_policy(rng, tree)),
        (random_policy(rng, tree), random_policy(rng, tree)),
    ):
        for u, v in ((x, y), (x, x), (np.ascontiguousarray(x.T).T, np.ascontiguousarray(y.T).T)):
            terms = [
                p * a * b for p, row, col in zip(probs, u.tolist(), v.tolist()) for a, b in zip(row, col)
            ]
            exact = math.fsum(terms)
            assert abs(policy.inner(tree, u, v) - exact) <= slack * math.fsum(map(abs, terms))


@pytest.mark.parametrize("num_scenarios, dim", [(16, 7), (256, 6), (1024, 6)])
def test_inner_bitwise_equals_broadcast_probabilities(num_scenarios, dim):
    # the benchmark workloads' shapes, where per-entry weights round as the
    # (N,) probabilities broadcast over the columns did
    rng = np.random.default_rng(3 * num_scenarios + dim)
    tree = shaped_tree(rng, num_scenarios, dim)
    for _ in range(5):
        for x, y in (
            (spread_policy(rng, tree), spread_policy(rng, tree)),
            (random_policy(rng, tree), random_policy(rng, tree)),
        ):
            for u, v in ((x, y), (x, x)):
                old = float(np.einsum("s,si,si->", tree.probabilities, u, v))
                assert policy._inner(tree, u, v) == old


# N*d below and above 8192, the size of numpy's einsum buffer
@pytest.mark.parametrize(
    "num_scenarios, dim", [(16, 7), (256, 6), (1024, 6), (1365, 6), (2048, 6), (4096, 6)]
)
def test_batched_inners_equal_one_pair_sums_bitwise(num_scenarios, dim):
    rng = np.random.default_rng(7 * num_scenarios + dim)
    tree = shaped_tree(rng, num_scenarios, dim)
    weights = tree.weights.reshape(num_scenarios, dim)

    def one_pair(x, y):
        return float(np.einsum("si,si,si->", weights, x, y))

    for _ in range(3):
        stack = np.stack([spread_policy(rng, tree) for _ in range(4)] + [random_policy(rng, tree) for _ in range(4)])
        # the coordination step's pairings: contiguous layers, layers two
        # apart and a pair of a layer with itself
        for left, right in (
            (stack[:3], stack[:3]),
            (stack[3:5], stack[4:7:2]),
            (stack[1:3], stack[1:3]),
            (stack[5:7], stack[1:3]),
            (stack[:1], stack[7:]),
        ):
            got = policy._inners(tree, left, right)
            assert all(type(v) is float for v in got)
            want = [one_pair(x, y) for x, y in zip(left, right)]
            assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))
            for x, y, value in zip(left, right, got):
                assert policy._inner(tree, x, y) == value


def test_projection_averages_shared_block(pair_tree):
    x = np.array([[1.0, 3.0], [3.0, 5.0]])
    p = policy.project_nonanticipative(pair_tree, x)
    assert_allclose(p, [[2.0, 3.0], [2.0, 5.0]])
    c = policy.project_nonanticipative_complement(pair_tree, x)
    assert_allclose(c, [[-1.0, 0.0], [1.0, 0.0]])


def test_projection_uses_probability_weights():
    tree = build_tree([(("a", "u"), 0.2), (("b", "w"), 0.8)], [1, 1])
    x = np.array([[5.0, 1.0], [0.0, 2.0]])
    p = policy.project_nonanticipative(tree, x)
    assert p[0, 0] == pytest.approx(1.0)  # 0.2*5 + 0.8*0
    assert p[1, 0] == pytest.approx(1.0)
    assert_allclose(p[:, 1], x[:, 1])  # singleton classes untouched


def test_projection_matches_least_squares_oracle():
    rng = np.random.default_rng(11)
    for _ in range(12):
        tree = random_tree(rng, int(rng.integers(2, 8)), int(rng.integers(1, 4)))
        x = random_policy(rng, tree, scale=2.0)
        assert_allclose(
            policy.project_nonanticipative(tree, x),
            lsq_project_nonanticipative(tree, x),
            atol=1e-10,
        )


def test_projector_algebra():
    rng = np.random.default_rng(12)
    for _ in range(8):
        tree = random_tree(rng, int(rng.integers(2, 8)), int(rng.integers(1, 4)))
        x = random_policy(rng, tree)
        y = random_policy(rng, tree)
        px = policy.project_nonanticipative(tree, x)
        cx = policy.project_nonanticipative_complement(tree, x)
        # idempotent, complementary, orthogonal, self-adjoint
        assert_allclose(policy.project_nonanticipative(tree, px), px, atol=1e-13)
        assert_allclose(px + cx, x, atol=1e-13)
        assert abs(policy.inner(tree, px, cx)) <= 1e-12
        assert policy.inner(tree, px, y) == pytest.approx(
            policy.inner(tree, x, policy.project_nonanticipative(tree, y)), abs=1e-12
        )
        # Pythagoras
        assert policy.norm(tree, x) ** 2 == pytest.approx(
            policy.norm(tree, px) ** 2 + policy.norm(tree, cx) ** 2, rel=1e-12, abs=1e-12
        )


def test_is_nonanticipative(pair_tree):
    x = np.array([[1.0, 3.0], [3.0, 5.0]])
    p = policy.project_nonanticipative(pair_tree, x)
    assert not policy.is_nonanticipative(pair_tree, x)
    assert policy.is_nonanticipative(pair_tree, p)
    assert policy.is_nonanticipative(pair_tree, np.zeros((2, 2)))
    # scale-aware tolerance: a large policy with a tiny relative defect passes
    big = 1e9 * p
    big[0, 0] += 1e-4
    assert policy.is_nonanticipative(pair_tree, big, tol=1e-10)


def test_shape_mismatch(pair_tree):
    with pytest.raises(ShapeMismatch):
        policy.inner(pair_tree, np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(ShapeMismatch):
        policy.project_nonanticipative(pair_tree, np.zeros((3, 2)))
    with pytest.raises(ShapeMismatch):
        policy.norm(pair_tree, np.zeros(4))


def add_at_projection(tree, x):
    """Per-stage ``np.add.at`` averaging over the tree's classes."""
    probs = tree.probabilities
    out = np.empty_like(x)
    for block, parts in zip(tree.stage_slices, tree.classes):
        idx = np.empty(tree.num_scenarios, dtype=int)
        for j, members in enumerate(parts):
            idx[list(members)] = j
        mass = np.array([probs[list(m)].sum() for m in parts])
        sums = np.zeros((len(parts), block.stop - block.start))
        np.add.at(sums, idx, probs[:, None] * x[:, block])
        out[:, block] = sums[idx] / mass[idx, None]
    return out


def labelled_scenarios(rng, num_scenarios, alphabets):
    """Distinct random label sequences with random probabilities.

    Small per-stage alphabets give classes of unequal sizes.
    """
    labels = set()
    while len(labels) < num_scenarios:
        labels.add(tuple(int(rng.integers(0, a)) for a in alphabets))
    probs = rng.uniform(0.1, 1.0, num_scenarios)
    labels = sorted(labels)
    rng.shuffle(labels)
    return list(zip(labels, probs / probs.sum()))


@pytest.mark.parametrize("stage_dims", [(1, 3, 2), (2,), (3, 1), (1, 1, 1, 2)])
def test_projection_bitwise_equals_add_at_reference(stage_dims):
    rng = np.random.default_rng(sum(stage_dims) + len(stage_dims))
    alphabets = (2, 3, 4, 5)[: len(stage_dims) - 1] + (50,)
    for n in (1, 7, 40):
        tree = build_tree(labelled_scenarios(rng, n, alphabets), stage_dims)
        x = random_policy(rng, tree, scale=3.0)
        assert np.array_equal(
            policy.project_nonanticipative(tree, x), add_at_projection(tree, x)
        )


def test_projection_bitwise_on_lifted_cvar_tree():
    rng = np.random.default_rng(14)
    tree = build_tree(labelled_scenarios(rng, 24, (3, 4, 50)), (2, 1, 2))
    d = tree.total_dim
    costs = tuple(SeparableQuadratic(q=rng.uniform(0.5, 1.5, d), c=rng.standard_normal(d))
                  for _ in range(tree.num_scenarios))
    lifted = augment(CvarProblem(tree, 0.8, costs, (WholeSpace(),) * tree.num_scenarios)).tree
    x = random_policy(rng, lifted)
    assert np.array_equal(policy.project_nonanticipative(lifted, x), add_at_projection(lifted, x))


def test_rebuilt_tree_projects_identically():
    rng = np.random.default_rng(15)
    scenarios = labelled_scenarios(rng, 30, (3, 50))
    a = build_tree(scenarios, (1, 3))
    b = build_tree(scenarios, (1, 3))
    x = random_policy(rng, a)
    assert np.array_equal(policy.project_nonanticipative(a, x), policy.project_nonanticipative(b, x))
    assert np.array_equal(
        policy.project_nonanticipative_complement(a, x),
        policy.project_nonanticipative_complement(b, x),
    )


def test_bin_arrays_read_only():
    rng = np.random.default_rng(16)
    tree = build_tree(labelled_scenarios(rng, 9, (2, 50)), (1, 3))
    for arr in (tree.bins, tree.bin_mass):
        assert arr.shape == (tree.num_scenarios * tree.total_dim,)
        with pytest.raises(ValueError):
            arr[0] = 0
