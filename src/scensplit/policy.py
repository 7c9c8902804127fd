"""Scenario-indexed decision vectors and the nonanticipativity geometry.

A policy is an array of shape ``(num_scenarios, total_dim)`` holding one
stacked decision vector per scenario.  The scalar product weights scenarios
by probability.  Projecting onto the nonanticipative subspace replaces each
stage block by its probability-weighted average over the stage's
information classes.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeMismatch
from .operators import _number
from .tree import ScenarioTree


def check_policy(tree: ScenarioTree, x) -> np.ndarray:
    """``x`` as a float array of numbers (else ConfigError), shaped (num_scenarios, total_dim)."""
    arr = _number("policy", x, np.inf, "an array of numbers")
    expected = (tree.num_scenarios, tree.total_dim)
    if arr.shape != expected:
        raise ShapeMismatch(f"policy shape {arr.shape}, expected {expected}")
    return arr


def zeros(tree: ScenarioTree) -> np.ndarray:
    return np.zeros((tree.num_scenarios, tree.total_dim))


def inner(tree: ScenarioTree, x, y) -> float:
    """Expectation scalar product: sum over scenarios of pi * <x, y>."""
    return _inner(tree, check_policy(tree, x), check_policy(tree, y))


def _inner(tree: ScenarioTree, x, y) -> float:
    """``inner`` without the shape checks, for arrays the solvers built."""
    return _inners(tree, x[None], y[None])[0]


def _inners(tree: ScenarioTree, left, right) -> list:
    """The K inner products of the layers of two (K, N, d) arrays, as floats.

    One ``einsum`` over the tree's per-entry weights: broadcast (N,)
    probabilities would split it into one short loop per scenario.  Each
    layer's sum is reduced on its own, so it rounds as a call for that
    one pair would, bit for bit, on strided views of layers too.
    """
    return np.einsum("si,ksi,ksi->k", tree.weights.reshape(left.shape[1:]), left, right).tolist()


def norm(tree: ScenarioTree, x) -> float:
    return float(np.sqrt(max(inner(tree, x, x), 0.0)))


def project_nonanticipative(tree: ScenarioTree, x) -> np.ndarray:
    """Orthogonal projection onto the nonanticipative subspace.

    Stage block k of the output is constant on each stage-k information
    class and equals the probability-weighted average of the inputs there.
    """
    return _average(tree, check_policy(tree, x))


def _average(tree: ScenarioTree, x: np.ndarray, out=None) -> np.ndarray:
    """``project_nonanticipative`` without the shape check.

    One weighted ``bincount`` over the tree's bins sums every class block
    in scenario order, then one gather and one divide spread the averages,
    into ``out`` when given (a C-ordered array of x's shape, x itself
    allowed).
    """
    sums = np.bincount(tree.bins, tree.weights * x.ravel())
    flat = None if out is None else out.reshape(-1)
    return np.divide(sums[tree.bins], tree.bin_mass, out=flat).reshape(x.shape)


def project_nonanticipative_complement(tree: ScenarioTree, x) -> np.ndarray:
    """Projection onto the orthogonal complement (the residual part)."""
    x = check_policy(tree, x)
    return x - _average(tree, x)


def is_nonanticipative(tree: ScenarioTree, x, tol: float = 1e-12) -> bool:
    """True when x is within ``tol * (1 + ||x||)`` of its projection; ``tol`` >= 0 (ConfigError)."""
    tol = float(_number("tol", tol))
    if not tol >= 0:
        raise ConfigError(f"tol must be nonnegative, got {tol}")
    x = check_policy(tree, x)
    gap = norm(tree, x - project_nonanticipative(tree, x))
    return gap <= tol * (1.0 + norm(tree, x))
