import numpy as np
import pytest
from numpy.testing import assert_array_equal

from scensplit import build_tree, equivalence_classes
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
    assert t1.scenarios == t2.scenarios


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
    assert tree.scenarios[0].probability == 1.0
    tree = build_tree([(("a",), np.float32(0.25)), (("b",), np.float64(0.75))], [1])
    assert [type(s.probability) for s in tree.scenarios] == [float, float]
    assert_array_equal(tree.probabilities, [0.25, 0.75])


def test_bad_probability_mass():
    with pytest.raises(BadProbabilityMass):
        build_tree([(("a",), 0.6), (("b",), 0.6)], [1])
    # within tolerance is fine
    build_tree([(("a",), 0.5 + 4e-13), (("b",), 0.5)], [1])


def test_label_length_mismatch():
    with pytest.raises(ValidationError):
        build_tree([(("a",), 1.0)], [1, 1])


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
