"""The input contract: which error class each kind of bad number raises.

| fault                                                    | class             |
|----------------------------------------------------------|-------------------|
| not a number (str, None, bool, complex, ragged, sequence | ConfigError       |
| where one number is wanted), integer beyond float range  | (problem files:   |
|                                                          | ValidationError)  |
| not an integer where one is wanted (a stage)             | ConfigError       |
| gamma <= 0 or NaN (cost_prox accepts gamma = 0)          | NonPositiveGamma  |
| mu <= 0 or NaN, any step of +inf                         | ConfigError       |
| SolverConfig lambda_rule >= 2                            | ConfigError       |
| alpha outside (0, 1)                                     | BadAlpha          |
| a spec of another role at a one-row function            | ValidationError   |
"""
import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from scensplit import policy
from scensplit.cli import load_problem_file, main
from scensplit.errors import BadAlpha, ConfigError, DimensionMismatch, NonPositiveGamma, ValidationError
from scensplit.operators import (
    Affine,
    Box,
    Coordinates,
    CvarAugmented,
    DiagonalAffine,
    Full,
    GradSeparableQuadratic,
    Halfspace,
    Hyperplane,
    RealCross,
    SeparableQuadratic,
    WholeSpace,
    apply_operator,
    composite_resolvent,
    cost_prox,
    cost_value,
    project_constraint,
    project_subspace,
    prox_cvar_augmented,
    prox_max_nonneg,
    resolvent,
)
from scensplit.solver import (
    Problem,
    SolverConfig,
    init_state,
    kkt_residual,
    progressive_hedging_solve,
    scenario_update,
    solve,
)
from scensplit.tree import build_tree

_OP, _COST, _BOX = DiagonalAffine(a=[1.0], b=[0.0]), Affine(c=[1.0]), Box(lo=[0.0], hi=[1.0])


def _pair_problem():
    tree = build_tree([((0, 0), 0.5), ((1, 0), 0.5)], stage_dims=[1, 1])
    ops = (
        GradSeparableQuadratic(q=[1.0, 1.0], c=[0.0, 0.2]),
        GradSeparableQuadratic(q=[1.0, 1.0], c=[1.0, 0.8]),
    )
    return Problem(tree, ops)


def _update(gamma=1.0, mu=1.0, scenarios=(0, 1)):
    prob = _pair_problem()
    return scenario_update(init_state(prob, SolverConfig()), prob, scenarios, gamma, mu)


def _solve(**steps):
    return solve(_pair_problem(), SolverConfig(max_iter=1, **steps))


# entry point -> (call with a step, kind): "one" takes one number, by the one
# step rule, and "refused" is a form that is not a number (a list or a
# callable of the probe), refused whatever it holds
STEP_ENTRIES = {
    "resolvent": (lambda g: resolvent(_OP, g, [1.0]), "one"),
    "cost_prox": (lambda g: cost_prox(_COST, g, [1.0]), "one"),
    "prox_max_nonneg": (lambda g: prox_max_nonneg(_COST, g, [1.0]), "one"),
    "prox_cvar_augmented": (lambda g: prox_cvar_augmented(_COST, 0.5, g, 0.0, [1.0]), "one"),
    "composite_resolvent": (lambda g: composite_resolvent(_OP, _BOX, g, [1.0]), "one"),
    "progressive_hedging_solve": (
        lambda g: progressive_hedging_solve(_pair_problem(), gamma=g, max_iter=1), "one"
    ),
    "scenario_update gamma": (lambda g: _update(gamma=g), "one"),
    "scenario_update mu": (lambda g: _update(mu=g), "one"),
    "SolverConfig gamma": (lambda g: _solve(gamma=g), "one"),
    "SolverConfig mu": (lambda g: _solve(mu=g), "one"),
    # the pair problem's nonzero targets give tau > 0, so the first iteration reads lambda
    "SolverConfig lambda": (lambda g: _solve(lambda_rule=g), "one"),
    "SolverConfig gamma list": (lambda g: _solve(gamma=[g, g]), "refused"),
    "SolverConfig mu list": (lambda g: _solve(mu=[g, g]), "refused"),
    "SolverConfig gamma callable": (lambda g: _solve(gamma=lambda i, n: g), "refused"),
    "SolverConfig mu callable": (lambda g: _solve(mu=lambda i, n: g), "refused"),
    "SolverConfig lambda callable": (lambda g: _solve(lambda_rule=lambda n: g), "refused"),
}
NOT_NUMBERS = {"True": True, "np.True_": np.True_, "'1'": "1", "None": None, "2**1100": 2**1100}
# sequences and one-entry arrays: every step is one number
NOT_ONE_NUMBER = {
    "[1.0]": [1.0],
    "np.array([1.0])": np.array([1.0]),
    "2 entries": [1.0, 1.0],
    "3 entries": [1.0, 1.0, 1.0],
}
OUT_OF_RANGE = {"nan": np.nan, "-inf": -np.inf, "0.0": 0.0}
# numbers in every form: a numpy float and a 0-d array, also inside a list
NUMBERS = {"np.float64(0.5)": np.float64(0.5), "np.array(0.5)": np.array(0.5)}


def _expected(entry: str, kind: str, probe: str):
    """The contract's class for a probe, None where the step is accepted."""
    if kind == "refused" or probe in NOT_NUMBERS or probe in NOT_ONE_NUMBER or probe == "+inf":
        return ConfigError
    if probe in NUMBERS or (entry == "cost_prox" and probe == "0.0"):
        return None
    return ConfigError if entry.endswith(("mu", "lambda")) else NonPositiveGamma


def _cases():
    probes = {**NOT_NUMBERS, **NOT_ONE_NUMBER, **OUT_OF_RANGE, "+inf": np.inf, **NUMBERS}
    for entry, (call, kind) in STEP_ENTRIES.items():
        for probe, value in probes.items():
            yield pytest.param(call, value, _expected(entry, kind, probe), id=f"{entry}-{probe}")


@pytest.mark.parametrize("call, value, error", list(_cases()))
def test_every_step_entry_point_keeps_the_contract(call, value, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            call(value)
            return
        with pytest.raises(error) as caught:
            call(value)
    assert type(caught.value) is error


# --- the number rule ---


def test_integers_within_float_range_are_numbers():
    box = Box(lo=[-(2**70)], hi=[2**70])
    assert_array_equal(box.lo, [-(2.0**70)])
    assert_array_equal(box.hi, [2.0**70])
    assert_array_equal(resolvent(_OP, 2**70, [0.0]), [0.0])
    for build in (lambda: Box(lo=[-(2**1100)], hi=[0.0]), lambda: Affine(c=[1.0], r=2**1100)):
        with pytest.raises(ConfigError, match="integer beyond float range"):
            build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: Box(lo=[0.0, True], hi=[1.0, 2.0]),
        lambda: Box(lo=[0.0, 1.0], hi=[np.True_, 2.0]),
        lambda: SeparableQuadratic(q=[1.0, False], c=[0.0, 0.0]),
        lambda: Halfspace(normal=[[1.0, True]], offset=0.0),
    ],
    ids=["list", "numpy bool", "false", "nested"],
)
def test_bools_inside_a_list_are_not_numbers(build):
    with pytest.raises(ConfigError, match=r"must be an array of numbers, got (np\.)?(True|False)"):
        build()


def test_a_bool_probability_is_not_a_number():
    # it used to be read as 1.0 and fail the mass test
    with pytest.raises(ConfigError, match="probabilities must be numbers, got True"):
        build_tree([(("a",), 0.5), (("b",), True)], [1])


# --- the integer rule ---


def test_coordinates_read_a_one_shot_iterable_once():
    # a generator used to be read twice and come out empty
    assert Coordinates(indices=(i for i in [0, 2])).indices == (0, 2)
    assert Coordinates(indices=np.array([1, 0])).indices == (1, 0)
    message = r"coordinate indices must be integers in \[0, inf\), got -1"
    with pytest.raises(ValidationError, match=message):
        Coordinates(indices=(i for i in [0, -1]))


@pytest.mark.parametrize("scenarios", [0.7, -1, 5, True, [0, 2], np.array([1.0]), "0"])
def test_scenario_update_indices_are_integers_below_the_scenario_count(scenarios):
    # 0.7 used to run as scenario 0, -1 as the last one and 5 as an IndexError
    with pytest.raises(ConfigError, match="scenarios must be integers"):
        _update(scenarios=scenarios)


def test_scenario_update_takes_one_index_or_many():
    both = _update(scenarios=np.array([1, 0]))
    assert_array_equal(_update(scenarios=np.int64(1)), both[:, 0])
    assert_array_equal(_update(scenarios=[0]), both[:, 1:])
    assert _update(scenarios=[]).shape == (5, 0, 2)


# --- other entry points ---


@pytest.mark.parametrize(
    "call",
    [
        lambda: kkt_residual(_pair_problem(), "x", 0, 0),
        lambda: resolvent(_OP, 1.0, "ab"),
        lambda: project_constraint(WholeSpace(), ["a"]),
        lambda: cost_prox(_COST, 1.0, [None]),
    ],
    ids=["kkt_residual", "resolvent", "project_constraint", "cost_prox"],
)
def test_points_that_are_not_numbers_are_refused(call):
    # these used to raise a raw ValueError or TypeError from numpy
    with pytest.raises(ConfigError, match="must be an array of numbers"):
        call()


@pytest.mark.parametrize("tol", [True, np.True_, "1", None, [1e-3], -1.0, np.nan])
def test_nonanticipativity_tolerance_is_a_number(tol):
    # True used to be read as 1, the others but the floats to raise a raw
    # TypeError, and a negative or NaN tol to answer False for every policy
    tree = _pair_problem().tree
    fault = "nonnegative" if type(tol) is float else "a number"
    with pytest.raises(ConfigError, match=f"tol must be {fault}"):
        policy.is_nonanticipative(tree, np.zeros((2, 2)), tol)
    assert policy.is_nonanticipative(tree, np.zeros((2, 2)), np.float32(1e-3))
    assert policy.is_nonanticipative(tree, np.arange(4.0).reshape(2, 2), np.inf)


def test_zero_dimensional_arrays_inside_a_list_are_numbers():
    box = Box(lo=[np.array(0.0), np.array(-1)], hi=[1.0, np.array(2**40)])
    assert_array_equal(box.lo, [0.0, -1.0])
    assert_array_equal(box.hi, [1.0, 2.0**40])
    assert box.lo.dtype == box.hi.dtype == float


@pytest.mark.parametrize("entry", [np.array(True), np.array(1 + 0j), np.array("1")])
def test_zero_dimensional_arrays_of_other_kinds_inside_a_list_are_refused(entry):
    with pytest.raises(ConfigError, match="Box.lo must be an array of numbers"):
        Box(lo=[0.0, entry], hi=[1.0, 2.0])


def test_real_cross_needs_a_coordinate():
    with pytest.raises(DimensionMismatch, match="RealCross needs at least one coordinate"):
        project_constraint(RealCross(WholeSpace()), [])


# --- specs of another role at the one-row functions ---


@pytest.mark.parametrize(
    "call",
    [
        lambda: resolvent(_BOX, 1.0, [1.0]),
        lambda: resolvent("x", 1.0, [1.0]),
        lambda: apply_operator(CvarAugmented(f=_COST, alpha=0.5), [0.0, 1.0]),
        lambda: apply_operator(_BOX, [1.0]),
        lambda: cost_value(_BOX, [1.0]),
        lambda: cost_prox(_OP, 1.0, [1.0]),
        lambda: prox_max_nonneg(_BOX, 1.0, [1.0]),
        lambda: prox_cvar_augmented(_BOX, 0.5, 1.0, 0.0, [1.0]),
        lambda: project_constraint(Full(), [1.0]),
        lambda: project_constraint(None, [1.0]),
        lambda: project_subspace(_BOX, [1.0]),
    ],
    ids=[
        "resolvent-Box", "resolvent-str", "apply_operator-CvarAugmented", "apply_operator-Box",
        "cost_value", "cost_prox", "prox_max_nonneg", "prox_cvar_augmented",
        "project_constraint-Full", "project_constraint-None", "project_subspace",
    ],
)
def test_a_spec_of_another_role_is_refused(call):
    # these used to raise a raw TypeError or AttributeError
    with pytest.raises(ValidationError, match="must be one of"):
        call()


def test_role_checks_come_after_the_step_checks():
    with pytest.raises(NonPositiveGamma):
        resolvent(_BOX, 0.0, [1.0])
    with pytest.raises(ConfigError, match="gamma must be a number"):
        prox_max_nonneg(_BOX, "1", [1.0])
    with pytest.raises(BadAlpha):
        prox_cvar_augmented(_COST, 1.5, 1.0, 0.0, [1.0])


# --- a normal whose squared norm overflows ---


@pytest.mark.parametrize("cls", [Halfspace, Hyperplane])
def test_normals_with_an_overflowing_squared_norm_are_refused(cls):
    # the projection used to come back unmoved, with an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = rf"^{cls.__name__}.normal: squared norm must be finite"
        with pytest.raises(ValidationError, match=message):
            cls(normal=[1e308], offset=0.0)
        cls(normal=[1e154, 1e-300], offset=0.0)


def test_problem_files_refuse_overflowing_packed_coefficients(tmp_path, capsys):
    doc = {
        "stages": [1],
        "scenarios": [{"labels": ["a"], "probability": 1.0}],
        "operators": [{"type": "grad_separable_quadratic", "q": [2.0], "c": [1.0]}],
        "constraints": [{"type": "halfspace", "normal": [1e308], "offset": 0.0}],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValidationError: constraints[0].normal: ")
    doc["constraints"][0]["normal"] = [1.0]
    doc["operators"][0]["c"] = [-1e308]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"^operators\[0\]\.c: q \* c must be finite"):
            load_problem_file(str(path))
