"""Finite scenario trees and their information structure.

A scenario is a full sequence of per-stage observation labels together with
a probability.  Two scenarios are indistinguishable at decision stage k when
their labels agree through stage k-1, so the stage-k decision must be shared
across each group of indistinguishable scenarios.  The resulting per-stage
partitions refine each other as k grows and drive every nonanticipativity
computation in this package.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadProbabilityMass,
    ConfigError,
    DuplicateScenario,
    EmptyTree,
    NonPositiveProbability,
    StageOutOfRange,
    ValidationError,
)
from .operators import _frozen, _is_integer, integers, number_list

# total probability mass must match 1 within this tolerance
MASS_TOL = 1e-12

# the label types json writes as they are
_LABEL_TYPES = frozenset((str, int, float, bool, type(None)))


@dataclass(frozen=True)
class ScenarioTree:
    """Immutable scenario tree over a fixed set of decision stages.

    ``labels[s]`` and ``probabilities[s]`` are scenario s's labels and
    probability.  ``classes[k-1]`` holds the stage-k information partition as
    a tuple of index tuples, ordered by smallest member, members ascending.
    ``bins`` and ``bin_mass`` are the same partitions flattened for one-pass
    averaging: entry ``(s, j)`` of a row-major (num_scenarios, total_dim)
    policy, with j in stage k, falls in bin offset + class * d_k + column: the
    offset counts the bins of the earlier stages, the class is the stage-k
    class of scenario s and the column is j's place within the stage.
    ``bin_mass`` holds that class's probability for each entry and ``weights``
    the probability of the entry's scenario, so ``weights * x.ravel()``
    weights a policy x in one contiguous pass.  All four arrays are read-only.
    """

    labels: tuple[tuple, ...]
    stage_dims: tuple[int, ...]
    classes: tuple[tuple[tuple[int, ...], ...], ...] = field(repr=False)
    probabilities: np.ndarray = field(repr=False)
    stage_slices: tuple[slice, ...] = field(repr=False)
    bins: np.ndarray = field(repr=False)
    bin_mass: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def num_scenarios(self) -> int:
        return len(self.labels)

    @property
    def num_stages(self) -> int:
        return len(self.stage_dims)

    @property
    def total_dim(self) -> int:
        return sum(self.stage_dims)


def check_stage_dims(stage_dims) -> tuple[int, ...]:
    """``stage_dims`` as a tuple of ints, once it is a nonempty sequence of integers >= 1."""
    stage_dims = tuple(map(int, integers("stage dims", stage_dims, 1, error=ValidationError)))
    if not stage_dims:
        raise ValidationError("stage_dims must be a nonempty sequence of dims >= 1")
    return stage_dims


def _json_label(i: int, label):
    """``label`` as json writes it: a numpy bool, integer or float reads as its Python value."""
    if isinstance(label, tuple):
        return tuple(_json_label(i, v) for v in label)
    for kind, python in ((np.bool_, bool), (np.integer, int), (np.floating, float)):
        if isinstance(label, kind):
            return python(label)
    if not (isinstance(label, (str, int, float)) or label is None):
        raise ValidationError(
            f"scenario {i} has label {label!r}; a label is a string, number, bool, None "
            "or a tuple of them"
        )
    return label


def build_tree(scenarios, stage_dims) -> ScenarioTree:
    """Build an immutable tree from ``(labels, probability)`` pairs.

    ``stage_dims`` fixes the per-stage decision dimensions, as
    :func:`check_stage_dims` takes them.  Label sequences
    must be pairwise distinct.  A label is a string, number, bool, None or
    a tuple of them, numpy's read as their Python values; any other label
    raises ValidationError.  Labels that Python holds equal, such as 0,
    0.0 and False, are one label.  Probabilities must be numbers
    (ConfigError otherwise), positive and sum to 1 within ``MASS_TOL``.
    """
    stage_dims = check_stage_dims(stage_dims)
    n_stages = len(stage_dims)

    items = list(scenarios)
    if not items:
        raise EmptyTree("a scenario tree needs at least one scenario")
    n = len(items)

    probs = [prob for _, prob in items]
    probs = number_list(probs, lambda j, got: ConfigError(f"probabilities must be numbers, {got}"))
    paths = [tuple(labels) for labels, _ in items]
    if not _LABEL_TYPES.issuperset(map(type, itertools.chain.from_iterable(paths))):
        paths = [_json_label(i, labels) for i, labels in enumerate(paths)]
    if set(map(len, paths)) != {n_stages} or not (probs > 0.0).all():  # NaN included
        # the first scenario with a wrong label count or a probability that is not positive
        wrong = np.fromiter(map(len, paths), int, n) != n_stages
        i = int((wrong | ~(probs > 0.0)).argmax())
        if wrong[i]:
            raise ValidationError(f"scenario {i} has {len(paths[i])} labels, expected {n_stages}")
        raise NonPositiveProbability(f"scenario {i} has probability {probs[i].item()}")

    # ids[k] numbers each scenario's label prefix of length k by first
    # appearance, from one code per distinct label of each stage; labels
    # equal as dict keys, such as 0, 0.0 and False, share one
    ids = [np.zeros(n, dtype=np.int64)]
    for column in zip(*paths):
        codes = dict(zip(dict.fromkeys(column), itertools.count()))
        keys = ids[-1] * len(codes) + np.fromiter(map(codes.__getitem__, column), np.int64, n)
        if len(codes) > 1 and ids[-1].any():  # else numbered by first appearance already
            numbers = dict(zip(dict.fromkeys(keys.tolist()), itertools.count()))
            keys = np.fromiter(map(numbers.__getitem__, keys.tolist()), np.int64, n)
        ids.append(keys)
    path_ids = ids.pop()
    if path_ids.max() < n - 1:
        first = np.unique(path_ids, return_index=True)[1]
        j = int((first[path_ids] != np.arange(n)).argmax())
        raise DuplicateScenario(f"scenarios {first[path_ids[j]]} and {j} share labels {paths[j]}")

    with np.errstate(over="ignore"):  # an overflowing sum is a bad mass, not a warning
        mass = float(probs.sum())
    if abs(mass - 1.0) > MASS_TOL:
        raise BadProbabilityMass(f"probabilities sum to {mass!r}, expected 1")

    # the classes of stage k+1 are the prefixes of length k, ordered by
    # smallest member and numbered over all stages, stage by stage
    ids = np.array(ids)
    sizes = ids.max(axis=1) + 1
    firsts = sizes.cumsum() - sizes
    owner = (ids + firsts[:, None]).ravel()
    counts = np.bincount(owner)
    order = owner.argsort(kind="stable") % n
    ends = counts.cumsum()
    members = order.tolist()
    # each class's members sliced out of the list, without a Python-level loop
    flat = tuple(map(tuple, map(members.__getitem__, map(slice, (ends - counts).tolist(), ends.tolist()))))
    classes = tuple(flat[first : first + size] for first, size in zip(firsts.tolist(), sizes.tolist()))
    # bincount adds in scenario order, as numpy sums fewer than 8 values;
    # larger classes take numpy's pairwise sum
    mass = np.bincount(owner, weights=np.broadcast_to(probs, ids.shape).ravel())
    for j in (counts >= 8).nonzero()[0]:
        mass[j] = probs[order[ends[j] - counts[j] : ends[j]]].sum()
    # entry (s, j), j the i-th column of stage k, falls in bin i of the d_k
    # bins of the stage-k class of s
    dims = np.array(stage_dims)
    starts = dims.cumsum() - dims
    stage = np.arange(n_stages).repeat(dims)
    entry = owner.reshape(ids.shape)[stage].T
    width = dims.repeat(sizes)
    bins = (width.cumsum() - width)[entry] + (np.arange(stage.size) - starts[stage])

    return ScenarioTree(
        labels=tuple(paths),
        stage_dims=stage_dims,
        classes=classes,
        probabilities=_frozen(probs),
        stage_slices=tuple(map(slice, starts.tolist(), (starts + dims).tolist())),
        bins=_frozen(bins.ravel()),
        bin_mass=_frozen(mass[entry].ravel()),
        weights=_frozen(np.repeat(probs, sum(stage_dims))),
    )


def equivalence_classes(tree: ScenarioTree, stage: int):
    """Return the information partition at a 1-based decision stage, an integer (ConfigError)."""
    if not _is_integer(stage):
        raise ConfigError(f"stage must be an integer, got {stage!r}")
    if not 1 <= stage <= tree.num_stages:
        raise StageOutOfRange(f"stage {stage} outside 1..{tree.num_stages}")
    return tree.classes[stage - 1]
