"""Scenario-indexed decision vectors and the nonanticipativity geometry.

A policy is an array of shape ``(num_scenarios, total_dim)`` holding one
stacked decision vector per scenario.  The scalar product weights scenarios
by probability.  Projecting onto the nonanticipative subspace replaces each
stage block by its probability-weighted average over the stage's
information classes.
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .tree import ScenarioTree


def check_policy(tree: ScenarioTree, x) -> np.ndarray:
    """Coerce ``x`` to a float array of shape (num_scenarios, total_dim)."""
    arr = np.asarray(x, dtype=float)
    expected = (tree.num_scenarios, tree.total_dim)
    if arr.shape != expected:
        raise ShapeMismatch(f"policy shape {arr.shape}, expected {expected}")
    return arr


def zeros(tree: ScenarioTree) -> np.ndarray:
    return np.zeros((tree.num_scenarios, tree.total_dim))


def inner(tree: ScenarioTree, x, y) -> float:
    """Expectation scalar product: sum over scenarios of pi * <x, y>."""
    return _inner(tree.probabilities, check_policy(tree, x), check_policy(tree, y))


def _inner(probabilities, x, y) -> float:
    """``inner`` without the shape checks, for arrays the solvers built."""
    return float(np.einsum("s,si,si->", probabilities, x, y))


def norm(tree: ScenarioTree, x) -> float:
    return float(np.sqrt(max(inner(tree, x, x), 0.0)))


def project_nonanticipative(tree: ScenarioTree, x) -> np.ndarray:
    """Orthogonal projection onto the nonanticipative subspace.

    Stage block k of the output is constant on each stage-k information
    class and equals the probability-weighted average of the inputs there.
    """
    x = check_policy(tree, x)
    out = np.empty_like(x)
    probs = tree.probabilities
    for k, block in enumerate(tree.stage_slices):
        idx = tree.class_index[k]
        mass = tree.class_mass[k]
        sums = np.zeros((mass.size, block.stop - block.start))
        np.add.at(sums, idx, probs[:, None] * x[:, block])
        out[:, block] = sums[idx] / mass[idx, None]
    return out


def project_nonanticipative_complement(tree: ScenarioTree, x) -> np.ndarray:
    """Projection onto the orthogonal complement (the residual part)."""
    x = check_policy(tree, x)
    return x - project_nonanticipative(tree, x)


def is_nonanticipative(tree: ScenarioTree, x, tol: float = 1e-12) -> bool:
    """True when x is within ``tol * (1 + ||x||)`` of its projection."""
    x = check_policy(tree, x)
    gap = norm(tree, x - project_nonanticipative(tree, x))
    return gap <= tol * (1.0 + norm(tree, x))
