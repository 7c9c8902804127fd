import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from scensplit import build_tree, equivalence_classes
from scensplit.operators import _frozen, number_list
from scensplit.tree import ScenarioTree, _json_label, check_stage_dims
from scensplit.errors import (
    BadProbabilityMass,
    ConfigError,
    DuplicateScenario,
    EmptyTree,
    NonPositiveProbability,
    StageOutOfRange,
    ValidationError,
)

from helpers import random_tree


def test_two_scenarios_shared_root():
    tree = build_tree([(("a", "u"), 0.5), (("a", "w"), 0.5)], [1, 1])
    assert tree.num_scenarios == 2
    assert tree.num_stages == 2
    assert tree.total_dim == 2
    # same stage-1 label: still one class at stage 2
    assert equivalence_classes(tree, 1) == ((0, 1),)
    assert equivalence_classes(tree, 2) == ((0, 1),)


def test_two_scenarios_distinct_roots():
    tree = build_tree([(("a", "u"), 0.5), (("b", "w"), 0.5)], [1, 1])
    assert equivalence_classes(tree, 1) == ((0, 1),)
    assert equivalence_classes(tree, 2) == ((0,), (1,))


def test_single_scenario_all_classes_trivial():
    tree = build_tree([(("r", "m", "t"), 1.0)], [2, 1, 2])
    for k in (1, 2, 3):
        assert equivalence_classes(tree, k) == ((0,),)
    assert tree.total_dim == 5
    assert tree.stage_slices == (slice(0, 2), slice(2, 3), slice(3, 5))


def test_class_ordering_by_smallest_member():
    labels = [("b", 1), ("a", 2), ("b", 3), ("a", 4)]
    tree = build_tree([(l, 0.25) for l in labels], [1, 1])
    # scenario 0 has root "b", so its class comes first
    assert equivalence_classes(tree, 2) == ((0, 2), (1, 3))


def test_first_stage_always_one_class():
    rng = np.random.default_rng(5)
    for _ in range(10):
        tree = random_tree(rng, int(rng.integers(1, 9)), int(rng.integers(1, 4)))
        assert equivalence_classes(tree, 1) == (tuple(range(tree.num_scenarios)),)


def test_partitions_refine_with_stage():
    rng = np.random.default_rng(6)
    for _ in range(20):
        tree = random_tree(rng, int(rng.integers(2, 9)), int(rng.integers(2, 5)))
        for k in range(1, tree.num_stages):
            coarse = [set(c) for c in equivalence_classes(tree, k)]
            fine = [set(c) for c in equivalence_classes(tree, k + 1)]
            for cls in fine:
                assert any(cls <= sup for sup in coarse)
        for k in range(1, tree.num_stages + 1):
            union = sorted(i for c in equivalence_classes(tree, k) for i in c)
            assert union == list(range(tree.num_scenarios))


def test_probabilities_frozen_and_normalized():
    tree = build_tree([(("a",), 0.25), (("b",), 0.75)], [2])
    assert tree.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        tree.probabilities[0] = 0.5


def test_rebuild_is_deterministic():
    pairs = [(("a", "x"), 0.3), (("b", "y"), 0.2), (("a", "z"), 0.5)]
    t1 = build_tree(pairs, [2, 1])
    t2 = build_tree(pairs, [2, 1])
    assert t1.classes == t2.classes
    assert t1.labels == t2.labels
    assert_array_equal(t1.probabilities, t2.probabilities)


def test_empty_tree():
    with pytest.raises(EmptyTree):
        build_tree([], [1])


def test_duplicate_scenario():
    with pytest.raises(DuplicateScenario):
        build_tree([(("a",), 0.5), (("a",), 0.5)], [1])


def test_nonpositive_probability():
    with pytest.raises(NonPositiveProbability):
        build_tree([(("a",), 0.0), (("b",), 1.0)], [1])
    with pytest.raises(NonPositiveProbability):
        build_tree([(("a",), -0.2), (("b",), 1.2)], [1])
    with pytest.raises(NonPositiveProbability):
        build_tree([(("a",), float("nan")), (("b",), 1.0)], [1])


@pytest.mark.parametrize("prob", [True, np.True_, "1.0", None, [1.0], 1 + 0j])
def test_probability_that_is_not_a_number_is_refused(prob):
    with pytest.raises(ConfigError, match="probabilities must be numbers"):
        build_tree([(("a",), prob)], [1])


def test_probabilities_take_integers_and_numpy_floats():
    tree = build_tree([(("a",), 1)], [1])
    assert tree.probabilities.tolist() == [1.0]
    tree = build_tree([(("a",), np.float32(0.25)), (("b",), np.float64(0.75))], [1])
    assert tree.probabilities.dtype == np.float64
    assert_array_equal(tree.probabilities, [0.25, 0.75])


def test_bad_probability_mass():
    with pytest.raises(BadProbabilityMass):
        build_tree([(("a",), 0.6), (("b",), 0.6)], [1])
    # within tolerance is fine
    build_tree([(("a",), 0.5 + 4e-13), (("b",), 0.5)], [1])


def test_probabilities_whose_sum_overflows_are_a_bad_mass():
    # the sum overflows to inf; that is a mass far from 1, not a RuntimeWarning
    with pytest.raises(BadProbabilityMass, match="sum to inf"):
        build_tree([(("a",), 1e308), (("b",), 1e308)], [1])


def test_label_length_mismatch():
    with pytest.raises(ValidationError):
        build_tree([(("a",), 1.0)], [1, 1])


def test_numpy_labels_read_as_their_python_values():
    paths = [(np.int64(0), (np.bool_(True), np.float32(0.5))), (np.uint8(1), np.float64(-0.0))]
    tree = build_tree([(p, 0.5) for p in paths], [1, 1])
    labels = list(tree.labels)
    assert labels == [(0, (True, 0.5)), (1, -0.0)]
    flat = [labels[0][0], *labels[0][1], *labels[1]]
    assert list(map(type, flat)) == [int, bool, float, int, float]
    assert np.signbit(labels[1][1])


@pytest.mark.parametrize("label", [frozenset({1}), [1], np.array(1), 1j, b"1", (0, {1})])
def test_a_label_json_cannot_write_is_refused(label):
    with pytest.raises(ValidationError, match=r"scenario 1 has label .*a label is a string"):
        build_tree([(("a",), 0.5), ((label,), 0.5)], [1])


def test_bad_stage_dims():
    with pytest.raises(ValidationError):
        build_tree([(("a",), 1.0)], [])
    with pytest.raises(ValidationError):
        build_tree([(("a",), 1.0)], [0])


@pytest.mark.parametrize("dims", [[1.7], [True], [np.True_], [1, 2.0], ["1"]])
def test_stage_dims_must_be_integers(dims):
    labels = [("a",) * len(dims)]
    with pytest.raises(ValidationError, match="integers"):
        build_tree([(labels[0], 1.0)], dims)


def test_stage_dims_take_numpy_integers():
    tree = build_tree([(("a", "b"), 1.0)], np.array([2, 1]))
    assert tree.stage_dims == (2, 1)
    assert all(type(d) is int for d in tree.stage_dims)


def test_stage_out_of_range():
    tree = build_tree([(("a",), 1.0)], [1])
    with pytest.raises(StageOutOfRange):
        equivalence_classes(tree, 0)
    with pytest.raises(StageOutOfRange):
        equivalence_classes(tree, 2)


@pytest.mark.parametrize("stage", [True, 1.0, np.float64(1.0), "1", None])
def test_stage_that_is_not_an_integer_is_refused(stage):
    # True used to be read as stage 1, the others to raise a raw TypeError
    tree = build_tree([(("a",), 1.0)], [1])
    with pytest.raises(ConfigError, match="stage must be an integer"):
        equivalence_classes(tree, stage)
    assert equivalence_classes(tree, np.int64(1)) == ((0,),)


# --- bulk classes against the per-scenario reference ---

def per_scenario_tree(scenarios, stage_dims):
    """The tree of valid ``(labels, probability)`` pairs as build_tree made it scenario by scenario.

    Each stage's classes come from a dict keyed by label prefix, the
    reference for the bulk label codes of :func:`build_tree`.
    """
    stage_dims = check_stage_dims(stage_dims)
    items = list(scenarios)
    probs = number_list([p for _, p in items], lambda j, got: AssertionError(got))
    built = [_json_label(i, tuple(labels)) for i, (labels, _) in enumerate(items)]
    classes, bins, bin_mass, offset = [], [], [], 0
    for k, dim in enumerate(stage_dims):
        groups = {}
        for i, labels in enumerate(built):
            groups.setdefault(labels[:k], []).append(i)
        parts = tuple(tuple(g) for g in groups.values())
        classes.append(parts)
        idx = [0] * len(built)
        for j, members in enumerate(parts):
            for m in members:
                idx[m] = j
        idx = np.array(idx)
        mass = np.array([probs[m[0]] if len(m) == 1 else probs[list(m)].sum() for m in parts])
        bins.append(offset + idx[:, None] * dim + np.arange(dim))
        bin_mass.append(np.repeat(mass[idx, None], dim, axis=1))
        offset += len(parts) * dim
    offsets = np.concatenate(([0], np.cumsum(stage_dims)))
    return ScenarioTree(
        labels=tuple(built),
        stage_dims=stage_dims,
        classes=tuple(classes),
        probabilities=_frozen(probs),
        stage_slices=tuple(slice(int(offsets[k]), int(offsets[k + 1])) for k in range(len(stage_dims))),
        bins=_frozen(np.hstack(bins).ravel()),
        bin_mass=_frozen(np.hstack(bin_mass).ravel()),
        weights=_frozen(np.repeat(probs, sum(stage_dims))),
    )


NAN = json.loads("NaN")  # json reads every NaN as this one object
LABELS = {
    "strings": ["a", "b", "c", "0", "x y", ""],
    "tuples": [(0, "a"), (1,), ("b", (2, 3)), (), (0.5, None), ("a", 0)],
    # 0, 0.0, False and -0.0 are one label, as are 1, 1.0 and True
    "mixed": [0, 0.0, False, -0.0, 1, 1.0, True, "a", None, NAN, (1, "x"), 2.5, -7],
}


def seeded_pairs(rng, labels, stages):
    """Distinct label paths over a few labels per stage, so classes have unequal sizes."""
    n = int(rng.integers(1, 60))
    per_stage = [rng.choice(len(labels), size=int(rng.integers(1, len(labels) + 1)), replace=False)
                 for _ in range(stages)]
    paths = []
    for _ in range(4 * n):
        path = tuple(labels[int(rng.choice(pick))] for pick in per_stage)
        if path not in paths:  # tuple equality: 0 and False are one label, NAN equals itself
            paths.append(path)
        if len(paths) == n:
            break
    probs = rng.uniform(0.1, 1.0, len(paths))
    return list(zip(paths, (probs / probs.sum()).tolist()))


@pytest.mark.parametrize("kind", sorted(LABELS))
@pytest.mark.parametrize("stages", [1, 2, 3, 4, 5])
def test_bulk_classes_match_the_per_scenario_reference(kind, stages):
    rng = np.random.default_rng(100 * stages + len(kind))
    for _ in range(12):
        pairs = seeded_pairs(rng, LABELS[kind], stages)
        dims = rng.integers(1, 4, stages).tolist()
        got, want = build_tree(pairs, dims), per_scenario_tree(pairs, dims)
        for f in dataclasses.fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape, f.name
                assert a.flags.c_contiguous and not a.flags.writeable, f.name
                assert a.tobytes() == b.tobytes(), f.name
            elif f.name == "labels":
                # each scenario keeps its own labels, 0.0 and False included
                assert list(map(repr, a)) == list(map(repr, b))
            else:
                assert a == b, f.name
        assert all(type(m) is int for parts in got.classes for c in parts for m in c)


def test_equal_labels_share_a_class():
    pairs = [((0, "u"), 0.25), ((0.0, "v"), 0.25), ((False, "w"), 0.25), ((NAN, "x"), 0.25)]
    tree = build_tree(pairs, [1, 1])
    assert equivalence_classes(tree, 2) == ((0, 1, 2), (3,))
    assert [labels[0] for labels in tree.labels][:3] == [0, 0.0, False]
    with pytest.raises(DuplicateScenario, match="scenarios 0 and 2 share labels"):
        build_tree([((0, "u"), 0.25), ((1, "u"), 0.5), ((False, "u"), 0.25)], [1, 1])
