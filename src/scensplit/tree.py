"""Finite scenario trees and their information structure.

A scenario is a full sequence of per-stage observation labels together with
a probability.  Two scenarios are indistinguishable at decision stage k when
their labels agree through stage k-1, so the stage-k decision must be shared
across each group of indistinguishable scenarios.  The resulting per-stage
partitions refine each other as k grows and drive every nonanticipativity
computation in this package.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadProbabilityMass,
    DuplicateScenario,
    EmptyTree,
    NonPositiveProbability,
    StageOutOfRange,
    ValidationError,
)
from .operators import _frozen, _number

# total probability mass must match 1 within this tolerance
MASS_TOL = 1e-12


@dataclass(frozen=True)
class Scenario:
    """One realization of the stage-wise observation process."""

    index: int
    labels: tuple
    probability: float


@dataclass(frozen=True)
class ScenarioTree:
    """Immutable scenario tree over a fixed set of decision stages.

    ``classes[k-1]`` holds the stage-k information partition as a tuple of
    index tuples, ordered by smallest member, members ascending.  ``bins``
    and ``bin_mass`` are the same partitions flattened for one-pass
    averaging: entry ``(s, j)`` of a row-major (num_scenarios, total_dim)
    policy, with j in stage k, falls in bin offset + class * d_k + column:
    the offset counts the bins of the earlier stages, the class is the
    stage-k class of scenario s and the column is j's place within the
    stage.  ``bin_mass`` holds that class's probability for each entry and
    ``weights`` the probability of the entry's scenario, so
    ``weights * x.ravel()`` weights a policy x in one contiguous pass.  All
    three are read-only.
    """

    scenarios: tuple[Scenario, ...]
    stage_dims: tuple[int, ...]
    classes: tuple[tuple[tuple[int, ...], ...], ...] = field(repr=False)
    probabilities: np.ndarray = field(repr=False)
    stage_slices: tuple[slice, ...] = field(repr=False)
    bins: np.ndarray = field(repr=False)
    bin_mass: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def num_scenarios(self) -> int:
        return len(self.scenarios)

    @property
    def num_stages(self) -> int:
        return len(self.stage_dims)

    @property
    def total_dim(self) -> int:
        return sum(self.stage_dims)


def check_stage_dims(stage_dims) -> tuple[int, ...]:
    """``stage_dims`` as a tuple of ints, once it is a nonempty sequence of integers >= 1.

    Numpy integers count as integers, bools do not.
    """
    stage_dims = tuple(stage_dims)
    for d in stage_dims:
        if not isinstance(d, (int, np.integer)) or isinstance(d, bool):
            raise ValidationError(f"stage dims must be integers, got {d!r}")
    stage_dims = tuple(int(d) for d in stage_dims)
    if not stage_dims or any(d < 1 for d in stage_dims):
        raise ValidationError("stage_dims must be a nonempty sequence of dims >= 1")
    return stage_dims


def build_tree(scenarios, stage_dims) -> ScenarioTree:
    """Build an immutable tree from ``(labels, probability)`` pairs.

    ``stage_dims`` fixes the per-stage decision dimensions, as
    :func:`check_stage_dims` takes them.  Label sequences
    must be pairwise distinct.  Probabilities must be integers or floats
    (anything else, bools included, raises ConfigError), positive and sum
    to 1 within ``MASS_TOL``.
    """
    stage_dims = check_stage_dims(stage_dims)
    n_stages = len(stage_dims)

    items = list(scenarios)
    if not items:
        raise EmptyTree("a scenario tree needs at least one scenario")

    probs = _number("probabilities", [prob for _, prob in items], 1, "numbers").astype(float)
    built = []
    for i, ((labels, _), prob) in enumerate(zip(items, probs.tolist())):
        labels = tuple(labels)
        if len(labels) != n_stages:
            raise ValidationError(
                f"scenario {i} has {len(labels)} labels, expected {n_stages}"
            )
        if not prob > 0.0:  # NaN included
            raise NonPositiveProbability(f"scenario {i} has probability {prob}")
        built.append(Scenario(index=i, labels=labels, probability=prob))

    seen = {}
    for s in built:
        if s.labels in seen:
            raise DuplicateScenario(
                f"scenarios {seen[s.labels]} and {s.index} share labels {s.labels}"
            )
        seen[s.labels] = s.index

    mass = float(probs.sum())
    if abs(mass - 1.0) > MASS_TOL:
        raise BadProbabilityMass(f"probabilities sum to {mass!r}, expected 1")

    # the classes of stage k+1 group scenarios by their label prefix of
    # length k; first-seen order equals order by smallest member
    classes = []
    bins = []
    bin_mass = []
    offset = 0
    for k, dim in enumerate(stage_dims):
        groups: dict[tuple, list[int]] = {}
        for s in built:
            groups.setdefault(s.labels[:k], []).append(s.index)
        parts = tuple(tuple(g) for g in groups.values())
        classes.append(parts)
        idx = [0] * len(built)
        for j, members in enumerate(parts):
            for m in members:
                idx[m] = j
        idx = np.array(idx)
        # a singleton's mass is its probability; skip the numpy sum for it
        mass = np.array([probs[m[0]] if len(m) == 1 else probs[list(m)].sum() for m in parts])
        bins.append(offset + idx[:, None] * dim + np.arange(dim))
        bin_mass.append(np.repeat(mass[idx, None], dim, axis=1))
        offset += len(parts) * dim

    offsets = np.concatenate(([0], np.cumsum(stage_dims)))
    slices = tuple(slice(int(offsets[k]), int(offsets[k + 1])) for k in range(n_stages))

    return ScenarioTree(
        scenarios=tuple(built),
        stage_dims=stage_dims,
        classes=tuple(classes),
        probabilities=_frozen(probs),
        stage_slices=slices,
        bins=_frozen(np.hstack(bins).ravel()),
        bin_mass=_frozen(np.hstack(bin_mass).ravel()),
        weights=_frozen(np.repeat(probs, sum(stage_dims))),
    )


def equivalence_classes(tree: ScenarioTree, stage: int):
    """Return the information partition at a 1-based decision stage."""
    if not 1 <= stage <= tree.num_stages:
        raise StageOutOfRange(f"stage {stage} outside 1..{tree.num_stages}")
    return tree.classes[stage - 1]
