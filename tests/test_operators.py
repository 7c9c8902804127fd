from typing import get_args

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from scensplit import operators
from scensplit.errors import (
    BadAlpha,
    ConfigError,
    DimensionMismatch,
    NonPositiveGamma,
    UnsupportedComposite,
    ValidationError,
)
from scensplit.operators import (
    Affine,
    Ball,
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
    Zero,
    _pack_costs,
    _prox_root,
    apply_operator,
    composite_resolvent,
    cost_prox,
    cost_value,
    project_constraint,
    project_subspace,
    prox_cvar_augmented,
    prox_max_nonneg,
    resolvent,
    validate_range_condition,
)

# test-local cost evaluation/prox, kept separate from the package formulas
def _val(f, x):
    x = np.asarray(x, float)
    if isinstance(f, Affine):
        return float(np.dot(f.c, x)) + f.r
    return 0.5 * float(np.sum(f.q * (x - f.c) ** 2)) + f.r


def _prox(f, t, x):
    x = np.asarray(x, float)
    if isinstance(f, Affine):
        return x - t * f.c
    return (x + t * f.q * f.c) / (1.0 + t * f.q)


def _random_cost(rng):
    if rng.random() < 0.5:
        return Affine(c=[float(rng.uniform(-2, 2))], r=float(rng.uniform(-1, 1)))
    return SeparableQuadratic(
        q=[float(rng.uniform(0.0, 3.0))],
        c=[float(rng.uniform(-2, 2))],
        r=float(rng.uniform(-1, 1)),
    )


# --- costs ---

def test_cost_value_and_prox():
    f = Affine(c=[2.0, -1.0], r=0.5)
    assert cost_value(f, [1.0, 1.0]) == pytest.approx(1.5)
    assert_allclose(cost_prox(f, 0.25, [1.0, 1.0]), [0.5, 1.25])
    g = SeparableQuadratic(q=[2.0, 0.0], c=[1.0, 5.0], r=-1.0)
    assert cost_value(g, [2.0, 7.0]) == pytest.approx(0.0)
    assert_allclose(cost_prox(g, 0.5, [3.0, 7.0]), [2.0, 7.0])
    assert_allclose(cost_prox(g, 0.0, [3.0, 7.0]), [3.0, 7.0])  # zero scale: identity


def test_cost_validation():
    with pytest.raises(ValidationError):
        SeparableQuadratic(q=[-1.0], c=[0.0])
    with pytest.raises(DimensionMismatch):
        SeparableQuadratic(q=[1.0, 1.0], c=[0.0])
    with pytest.raises(DimensionMismatch):
        cost_value(Affine(c=[1.0]), [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        cost_prox(SeparableQuadratic(q=[1.0, 1.0], c=[0.0, 0.0]), 1.0, [1.0])
    with pytest.raises(NonPositiveGamma):
        cost_prox(Affine(c=[1.0]), float("nan"), [1.0])


# --- resolvents ---

def test_resolvent_diagonal_affine():
    op = DiagonalAffine(a=[1.0, 3.0], b=[0.0, -4.0])
    # p + g*(a p + b) = z solved componentwise
    assert_allclose(resolvent(op, 1.0, [2.0, 0.0]), [1.0, 1.0])
    assert_allclose(resolvent(op, 0.5, [3.0, 1.0]), [2.0, 1.2])


def test_resolvent_grad_quadratic():
    op = GradSeparableQuadratic(q=[1.0, 0.0], c=[0.3, 0.9])
    assert_allclose(resolvent(op, 1.0, [2.0, 2.0]), [1.15, 2.0])


def test_resolvent_identity_and_firm_nonexpansiveness():
    rng = np.random.default_rng(21)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            op = DiagonalAffine(a=rng.uniform(0, 2, d), b=rng.uniform(-1, 1, d))
        else:
            op = GradSeparableQuadratic(q=rng.uniform(0, 2, d), c=rng.uniform(-1, 1, d))
        gamma = float(rng.uniform(0.05, 3.0))
        z1 = rng.standard_normal(d)
        z2 = rng.standard_normal(d)
        p1 = resolvent(op, gamma, z1)
        p2 = resolvent(op, gamma, z2)
        assert_allclose(p1 + gamma * apply_operator(op, p1), z1, atol=1e-12)
        # firm nonexpansiveness: ||p1-p2||^2 <= <p1-p2, z1-z2>
        lhs = float(np.sum((p1 - p2) ** 2))
        rhs = float(np.dot(p1 - p2, z1 - z2))
        assert lhs <= rhs + 1e-12


def test_resolvent_errors():
    op = DiagonalAffine(a=[1.0], b=[0.0])
    with pytest.raises(NonPositiveGamma):
        resolvent(op, 0.0, [1.0])
    with pytest.raises(DimensionMismatch):
        resolvent(op, 1.0, [1.0, 2.0])
    with pytest.raises(ValidationError):
        DiagonalAffine(a=[-0.1], b=[0.0])
    with pytest.raises(NonPositiveGamma):
        resolvent(op, float("nan"), [1.0])
    with pytest.raises(NonPositiveGamma):
        composite_resolvent(op, Box(lo=[0.0], hi=[1.0]), float("nan"), [1.0])
    with pytest.raises(DimensionMismatch):
        apply_operator(op, [1.0, 2.0])


# --- constraint projectors ---

def test_project_box_and_sentinels():
    box = Box(lo=[0.0, -np.inf], hi=[1.0, np.inf])
    assert_allclose(project_constraint(box, [2.0, -7.0]), [1.0, -7.0])
    assert_allclose(project_constraint(box, [-1.0, 3.0]), [0.0, 3.0])
    assert np.isfinite(box.lo).all() and np.isfinite(box.hi).all()


def test_project_ball():
    ball = Ball(center=[1.0, 1.0], radius=2.0)
    assert_allclose(project_constraint(ball, [1.0, 2.0]), [1.0, 2.0])
    assert_allclose(project_constraint(ball, [1.0, 5.0]), [1.0, 3.0])


def test_project_halfspace_hyperplane():
    hs = Halfspace(normal=[1.0, 1.0], offset=2.0)
    assert_allclose(project_constraint(hs, [0.0, 0.0]), [0.0, 0.0])
    assert_allclose(project_constraint(hs, [2.0, 2.0]), [1.0, 1.0])
    hp = Hyperplane(normal=[0.0, 2.0], offset=2.0)
    assert_allclose(project_constraint(hp, [5.0, 3.0]), [5.0, 1.0])
    assert_allclose(project_constraint(hp, [5.0, 1.0]), [5.0, 1.0])


def test_project_real_cross():
    rc = RealCross(base=Ball(center=[0.0], radius=1.0))
    assert_allclose(project_constraint(rc, [7.0, 3.0]), [7.0, 1.0])
    assert rc.dim == 2


def test_projection_variational_characterization():
    # <z - Pz, c - Pz> <= 0 for feasible c
    rng = np.random.default_rng(22)
    sets = [
        Box(lo=[-1.0, 0.0], hi=[1.0, 2.0]),
        Ball(center=[0.5, -0.5], radius=1.5),
        Halfspace(normal=[1.0, -2.0], offset=0.7),
        Hyperplane(normal=[1.0, 1.0], offset=1.0),
    ]
    for cs in sets:
        for _ in range(40):
            z = 3.0 * rng.standard_normal(2)
            p = project_constraint(cs, z)
            assert_allclose(project_constraint(cs, p), p, atol=1e-10)
            c = project_constraint(cs, 3.0 * rng.standard_normal(2))
            assert float(np.dot(z - p, c - p)) <= 1e-10


def test_constraint_validation():
    with pytest.raises(ValidationError):
        Box(lo=[1.0], hi=[0.0])
    with pytest.raises(ValidationError):
        Ball(center=[0.0], radius=0.0)
    with pytest.raises(ValidationError):
        Halfspace(normal=[0.0, 0.0], offset=1.0)
    with pytest.raises(DimensionMismatch):
        project_constraint(Box(lo=[0.0], hi=[1.0]), [1.0, 2.0])


# --- subspaces ---

def test_project_subspace():
    assert_allclose(project_subspace(Full(), [1.0, 2.0]), [1.0, 2.0])
    assert_allclose(project_subspace(Zero(), [1.0, 2.0]), [0.0, 0.0])
    assert_allclose(project_subspace(Coordinates(indices=(0,)), [1.0, 2.0]), [1.0, 0.0])
    with pytest.raises(DimensionMismatch):
        project_subspace(Coordinates(indices=(3,)), [1.0, 2.0])
    with pytest.raises(ValidationError):
        Coordinates(indices=(0, 0))
    # no indices in no dimensions: an empty point, not a StopIteration
    assert project_subspace(Coordinates(indices=()), []).shape == (0,)


# --- range condition catalog ---

@pytest.mark.parametrize("indices", [(1.5, 0.2), (0.0,), (True,), (np.True_,), ("0",), (None,)])
def test_coordinates_reject_non_integer_indices(indices):
    with pytest.raises(ValidationError, match="integers"):
        Coordinates(indices=indices)


def test_coordinates_take_numpy_integers():
    us = Coordinates(indices=(np.int64(2), np.int32(0)))
    assert us.indices == (2, 0)
    assert all(type(i) is int for i in us.indices)


def test_range_condition_catalog():
    d2_box = Box(lo=[0.0, 0.0], hi=[1.0, 1.0])
    assert validate_range_condition(d2_box, Full())
    assert validate_range_condition(WholeSpace(), Zero())
    assert validate_range_condition(WholeSpace(), Coordinates(indices=(0,)))
    assert not validate_range_condition(d2_box, Zero())
    # constrained axes must be exactly the selected ones
    part = Box(lo=[0.0, -np.inf], hi=[1.0, np.inf])
    assert validate_range_condition(part, Coordinates(indices=(0,)))
    assert not validate_range_condition(part, Coordinates(indices=(1,)))
    assert not validate_range_condition(d2_box, Coordinates(indices=(0,)))
    assert not validate_range_condition(part, Coordinates(indices=(0, 1)))
    # halfspace and hyperplane follow the support of the normal
    assert validate_range_condition(Halfspace(normal=[1.0, 0.0], offset=0.0), Coordinates(indices=(0,)))
    assert not validate_range_condition(Halfspace(normal=[1.0, 1.0], offset=0.0), Coordinates(indices=(0,)))
    assert validate_range_condition(Hyperplane(normal=[0.0, 2.0], offset=1.0), Coordinates(indices=(1,)))
    assert not validate_range_condition(Ball(center=[0.0], radius=1.0), Coordinates(indices=(0,)))
    assert not validate_range_condition(Ball(center=[0.0], radius=1.0), Zero())
    assert validate_range_condition(RealCross(base=WholeSpace()), Zero())
    assert not validate_range_condition(RealCross(base=Box(lo=[0.0], hi=[1.0])), Zero())
    # an axis past the set's dimension, a set of no width, and specs of other roles
    assert not validate_range_condition(part, Coordinates(indices=(0, 5)))
    assert validate_range_condition(WholeSpace(), Coordinates(indices=(5,)))
    assert validate_range_condition(Box(lo=[], hi=[]), Coordinates(indices=()))
    assert not validate_range_condition(Full(), Zero())
    assert not validate_range_condition(d2_box, WholeSpace())
    assert validate_range_condition(WholeSpace(), d2_box)


# --- prox of the positive part ---

def test_prox_max_nonneg_cases():
    f = Affine(c=[1.0], r=-1.0)  # f(x) = x - 1
    # already negative: untouched
    assert_allclose(prox_max_nonneg(f, 1.0, [0.5]), [0.5])
    # full step stays positive
    assert_allclose(prox_max_nonneg(f, 1.0, [3.0]), [2.0])
    # boundary case solved by the root search: theta = 0.5
    assert_allclose(prox_max_nonneg(f, 1.0, [1.5]), [1.0], atol=1e-10)


def test_prox_max_nonneg_quadratic_cases():
    f = SeparableQuadratic(q=[2.0], c=[0.0], r=-1.0)  # x^2 - 1
    assert_allclose(prox_max_nonneg(f, 1.0, [0.5]), [0.5])
    p = prox_max_nonneg(f, 0.1, [5.0])
    assert_allclose(p, cost_prox(f, 0.1, np.array([5.0])))
    assert cost_value(f, p) > 0
    # boundary regime ends on the zero level set
    p = prox_max_nonneg(f, 10.0, [1.5])
    assert cost_value(f, p) == pytest.approx(0.0, abs=1e-9)


def test_prox_max_nonneg_case_exclusivity():
    rng = np.random.default_rng(23)
    for _ in range(200):
        f = _random_cost(rng)
        x = np.array([rng.uniform(-3, 3)])
        gamma = float(rng.uniform(0.05, 3.0))
        in_neg = _val(f, x) < 0
        full_pos = _val(f, _prox(f, gamma, x)) > 0
        assert not (in_neg and full_pos)
        p = prox_max_nonneg(f, gamma, x)
        if in_neg:
            assert_allclose(p, x)
        elif full_pos:
            assert_allclose(p, _prox(f, gamma, x), atol=1e-12)
        else:
            assert cost_value(f, p) == pytest.approx(0.0, abs=1e-8)


def test_prox_max_nonneg_boundary_tie():
    f = Affine(c=[1.0], r=0.0)
    # f(x) = 0 exactly: the root regime applies and returns x
    assert_allclose(prox_max_nonneg(f, 1.0, [0.0]), [0.0], atol=1e-10)


def test_infinite_gamma_is_refused():
    # an infinite step used to give NaN points with RuntimeWarnings
    op, f, box = DiagonalAffine(a=[1.0], b=[0.0]), Affine(c=[1.0]), Box(lo=[0.0], hi=[1.0])
    calls = [
        lambda g: resolvent(op, g, [1.0]),
        lambda g: cost_prox(f, g, [1.0]),
        lambda g: prox_max_nonneg(f, g, [1.0]),
        lambda g: prox_cvar_augmented(f, 0.5, g, 0.0, [1.0]),
        lambda g: composite_resolvent(op, box, g, [1.0]),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match="gamma must be finite"):
            call(np.inf)
        for bad in (-np.inf, -1.0, float("nan")):
            with pytest.raises(NonPositiveGamma):
                call(bad)
    assert_array_equal(cost_prox(f, 0.0, [1.0]), [1.0])


_OP, _COST, _BOX = DiagonalAffine(a=[1.0], b=[0.0]), Affine(c=[1.0]), Box(lo=[0.0], hi=[1.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda g: resolvent(_OP, g, [1.0]),
        lambda g: cost_prox(_COST, g, [1.0]),
        lambda g: prox_max_nonneg(_COST, g, [1.0]),
        lambda g: prox_cvar_augmented(_COST, 0.5, g, 0.0, [1.0]),
        lambda g: composite_resolvent(_OP, _BOX, g, [1.0]),
    ],
    ids=["resolvent", "cost_prox", "prox_max_nonneg", "prox_cvar_augmented", "composite_resolvent"],
)
def test_gamma_that_is_not_a_number_is_refused(call):
    # these used to reach a raw comparison and raise TypeError
    for bad in ("1", None, True, np.True_, [1.0, 2.0], np.ones(2), np.array([1.0]), {"gamma": 1.0}):
        with pytest.raises(ConfigError, match="gamma must be a number"):
            call(bad)
    # prox_cvar_augmented returns a (threshold, decisions) pair
    want = np.hstack(call(1.0))
    for same in (1, np.float32(1.0), np.array(1.0)):
        assert_array_equal(np.hstack(call(same)), want)


def test_specs_check_the_roles_of_their_parts():
    with pytest.raises(ValidationError, match="CvarAugmented.f must be one of Affine"):
        CvarAugmented(f=DiagonalAffine(a=[1.0], b=[0.0]), alpha=0.5)
    with pytest.raises(ValidationError, match="RealCross.base must be one of"):
        RealCross(base=Full())


def test_prox_max_nonneg_errors():
    f = Affine(c=[1.0])
    with pytest.raises(NonPositiveGamma):
        prox_max_nonneg(f, 0.0, [1.0])
    with pytest.raises(NonPositiveGamma):
        prox_max_nonneg(f, float("nan"), [1.0])
    with pytest.raises(DimensionMismatch):
        prox_max_nonneg(f, 1.0, [1.0, 2.0])


# --- augmented prox ---

def test_prox_cvar_augmented_known_points():
    f = Affine(c=[1.0], r=0.0)  # f(x) = x
    # below threshold after the shift
    q, p = prox_cvar_augmented(f, 0.5, 1.0, 5.0, [1.0])
    assert q == pytest.approx(4.0)
    assert_allclose(p, [1.0])
    # full tail step
    q, p = prox_cvar_augmented(f, 0.5, 1.0, -3.0, [1.0])
    assert q == pytest.approx(-2.0)
    assert_allclose(p, [-1.0])
    # boundary regime
    q, p = prox_cvar_augmented(f, 0.5, 1.0, 0.0, [1.0])
    assert q == pytest.approx(0.0, abs=1e-10)
    assert_allclose(p, [0.0], atol=1e-10)


def test_prox_cvar_matches_shifted_composition():
    rng = np.random.default_rng(24)
    for _ in range(200):
        f = _random_cost(rng)
        alpha = float(rng.uniform(0.1, 0.9))
        gamma = float(rng.uniform(0.1, 2.0))
        y = float(rng.uniform(-3, 3))
        x = np.array([rng.uniform(-3, 3)])
        tau = gamma / (1.0 - alpha)

        # independent route: prox of tau*max{f(x') - y', 0} at the shifted point
        y0 = y - gamma
        if _val(f, x) - y0 < 0:
            want = (y0, x.copy())
        else:
            full = (y0 + tau, _prox(f, tau, x))
            if _val(f, full[1]) - full[0] > 0:
                want = full
            else:
                lo, hi = 0.0, 1.0
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    pt = (y0 + mid * tau, _prox(f, mid * tau, x))
                    if _val(f, pt[1]) - pt[0] > 0:
                        lo = mid
                    else:
                        hi = mid
                t = 0.5 * (lo + hi)
                want = (y0 + t * tau, _prox(f, t * tau, x))

        got_q, got_p = prox_cvar_augmented(f, alpha, gamma, y, x)
        assert got_q == pytest.approx(want[0], abs=1e-8)
        assert_allclose(got_p, want[1], atol=1e-8)


def test_prox_cvar_case_exclusivity():
    rng = np.random.default_rng(25)
    for _ in range(200):
        f = _random_cost(rng)
        alpha = float(rng.uniform(0.1, 0.9))
        gamma = float(rng.uniform(0.1, 2.0))
        y = float(rng.uniform(-3, 3))
        x = np.array([rng.uniform(-3, 3)])
        tau = gamma / (1.0 - alpha)
        first = _val(f, x) - y + gamma < 0
        second = _val(f, _prox(f, tau, x)) - y > tau - gamma
        assert not (first and second)


def test_prox_cvar_errors():
    f = Affine(c=[1.0])
    with pytest.raises(BadAlpha):
        prox_cvar_augmented(f, 1.0, 1.0, 0.0, [0.0])
    with pytest.raises(NonPositiveGamma):
        prox_cvar_augmented(f, 0.5, -1.0, 0.0, [0.0])
    with pytest.raises(NonPositiveGamma):
        prox_cvar_augmented(f, 0.5, float("nan"), 0.0, [0.0])
    with pytest.raises(BadAlpha):
        prox_cvar_augmented(f, float("nan"), 1.0, 0.0, [0.0])
    with pytest.raises(DimensionMismatch):
        prox_cvar_augmented(f, 0.5, 1.0, 0.0, [0.0, 1.0])


def test_cvar_augmented_operator_resolvent():
    f = Affine(c=[1.0], r=0.0)
    op = CvarAugmented(f=f, alpha=0.5)
    assert op.dim == 2
    got = resolvent(op, 1.0, [0.0, 1.0])
    assert_allclose(got, [0.0, 0.0], atol=1e-10)
    with pytest.raises(BadAlpha):
        CvarAugmented(f=f, alpha=0.0)


# --- composite resolvent ---

def test_composite_resolvent_fixed_point():
    rng = np.random.default_rng(26)
    for _ in range(60):
        d = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            op = DiagonalAffine(a=rng.uniform(0, 2, d), b=rng.uniform(-1, 1, d))
        else:
            op = GradSeparableQuadratic(q=rng.uniform(0, 2, d), c=rng.uniform(-1, 1, d))
        box = Box(lo=rng.uniform(-1, 0, d), hi=rng.uniform(0.5, 2, d))
        gamma = float(rng.uniform(0.1, 3.0))
        z = 3.0 * rng.standard_normal(d)
        p = composite_resolvent(op, box, gamma, z)
        # inclusion check: z - p - gamma*A(p) lies in the normal cone at p
        residue = z - p - gamma * apply_operator(op, p)
        assert_allclose(project_constraint(box, p + residue), p, atol=1e-10)


def test_composite_resolvent_whole_space():
    op = DiagonalAffine(a=[1.0], b=[0.0])
    assert_allclose(composite_resolvent(op, WholeSpace(), 1.0, [2.0]), [1.0])


def test_composite_resolvent_unsupported():
    op = DiagonalAffine(a=[1.0], b=[0.0])
    with pytest.raises(UnsupportedComposite):
        composite_resolvent(op, Ball(center=[0.0], radius=1.0), 1.0, [2.0])
    with pytest.raises(UnsupportedComposite):
        composite_resolvent(
            CvarAugmented(f=Affine(c=[1.0]), alpha=0.5),
            Box(lo=[0.0, 0.0], hi=[1.0, 1.0]),
            1.0,
            [0.0, 0.0],
        )
    # a spec of another role is an unsupported pair too
    box = Box(lo=[0.0], hi=[1.0])
    with pytest.raises(UnsupportedComposite):
        composite_resolvent(box, box, 1.0, [2.0])
    with pytest.raises(UnsupportedComposite):
        composite_resolvent(op, Full(), 1.0, [2.0])


# --- non-finite data ---

def test_catalog_rejects_non_finite_data():
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ValidationError):
        DiagonalAffine(a=[nan, 1.0], b=[0.0, 0.0])
    with pytest.raises(ValidationError):
        Ball(center=[nan, 0.0], radius=1.0)
    with pytest.raises(ValidationError):
        GradSeparableQuadratic(q=[1.0], c=[inf])
    with pytest.raises(ValidationError):
        Halfspace(normal=[1.0], offset=nan)
    with pytest.raises(ValidationError):
        Hyperplane(normal=[inf], offset=0.0)
    with pytest.raises(ValidationError):
        Affine(c=[1.0], r=inf)
    with pytest.raises(ValidationError):
        SeparableQuadratic(q=[1.0], c=[0.0], r=nan)
    # boxes keep their infinite sides and still refuse NaN
    box = Box(lo=[-inf, 0.0], hi=[inf, 1.0])
    assert_allclose(project_constraint(box, [5.0, 2.0]), [5.0, 1.0])
    with pytest.raises(ValidationError):
        Box(lo=[nan], hi=[1.0])


# --- the shared root of both risk proxes ---

def _root_args(rng, k, prox):
    """(scale, shift, slope) columns as prox_max_nonneg or prox_cvar_augmented pass them."""
    scale = rng.uniform(0.05, 3.0, (k, 1))
    if prox == "max_nonneg":
        return scale, np.zeros((k, 1)), np.zeros((k, 1))
    return scale, rng.uniform(-2.0, 2.0, (k, 1)), scale


def _root(costs, x, args, tol=1e-12):
    return _prox_root(_pack_costs(costs), np.asarray(x, float), *args, tol)[0][:, 0]


def _bisected_root(f, x, scale, shift, slope):
    # 200 halvings of [0, 1] on the decreasing h(t) = f(prox_{t*scale*f} x) - shift - t*slope
    def h(t):
        return _val(f, _prox(f, t * scale, x)) - shift - t * slope

    if h(0.0) < 0:
        return 0.0
    if h(1.0) > 0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if h(mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


def _random_quadratics(rng, k, d):
    return [
        SeparableQuadratic(
            q=rng.uniform(0, 3, d), c=rng.uniform(-2, 2, d), r=float(rng.uniform(-3, 1) * d)
        )
        for _ in range(k)
    ]


@pytest.mark.parametrize("prox", ["max_nonneg", "cvar"])
def test_root_on_affine_rows_is_closed_form(prox):
    rng = np.random.default_rng(41)
    k = 200
    costs = [Affine(c=rng.uniform(-2, 2, 3), r=float(rng.uniform(-2, 2))) for _ in range(k)]
    x = rng.uniform(-3, 3, (k, 3))
    args = _root_args(rng, k, prox)
    t = _root(costs, x, args)
    scale, shift, slope = (v[:, 0] for v in args)
    # h is linear: h(t) = f(x) - shift - t * (scale * ||c||^2 + slope)
    closed = np.array(
        [(f.c @ xi + f.r - sh) / (s * (f.c @ f.c) + sl)
         for f, xi, s, sh, sl in zip(costs, x, scale, shift, slope)]
    )
    inside = (0 < closed) & (closed < 1)
    assert 20 < inside.sum() < k
    assert np.all(np.abs(t - closed)[inside] <= 4 * np.spacing(closed[inside]))
    assert_array_equal(t[~inside], np.clip(closed[~inside], 0.0, 1.0))


@pytest.mark.parametrize("prox", ["max_nonneg", "cvar"])
@pytest.mark.parametrize("d", [1, 2, 5, 12])
def test_root_on_quadratic_rows_matches_bisection(prox, d):
    rng = np.random.default_rng(43 + d)
    k = 40
    costs = _random_quadratics(rng, k, d)
    x = rng.uniform(-3, 3, (k, d))
    args = _root_args(rng, k, prox)
    t = _root(costs, x, args)
    want = np.array(
        [_bisected_root(f, xi, *(float(v[i, 0]) for v in args))
         for i, (f, xi) in enumerate(zip(costs, x))]
    )
    assert ((0 < want) & (want < 1)).sum() >= 10
    assert_allclose(t, want, rtol=0, atol=1e-12)


def test_root_tolerance_below_one_ulp_stops(monkeypatch):
    rng = np.random.default_rng(47)
    k = 40
    costs = _random_quadratics(rng, k, 5)
    x = rng.uniform(-3, 3, (k, 5))
    args = _root_args(rng, k, "cvar")
    coarse = _root(costs, x, args)
    calls = []
    cost_rows = operators._cost_rows
    monkeypatch.setattr(operators, "_cost_rows", lambda *a: calls.append(1) or cost_rows(*a))
    fine = _root(costs, x, args, tol=1e-300)
    assert len(calls) <= 60
    # both stop where h's rounding error outweighs the step: at most a few
    # 1e-16 apart (1e-15 is exceeded on about 2 random row sets in 100)
    assert_allclose(fine, coarse, rtol=0, atol=4e-15)


def _warm_root(costs, x, args, start, tol=1e-12):
    return _prox_root(_pack_costs(costs), np.asarray(x, float), *args, tol, start)[0][:, 0]


@pytest.mark.parametrize("prox", ["max_nonneg", "cvar"])
@pytest.mark.parametrize("d", [1, 2, 5, 12])
def test_warm_root_matches_cold_root(prox, d):
    # the row sets of test_root_on_quadratic_rows_matches_bisection
    rng = np.random.default_rng(43 + d)
    k = 40
    costs = _random_quadratics(rng, k, d)
    x = rng.uniform(-3, 3, (k, d))
    args = _root_args(rng, k, prox)
    cold = _root(costs, x, args)
    clamped = (cold == 0.0) | (cold == 1.0)
    assert (cold == 0.0).any() and (cold == 1.0).any() and not clamped.all()
    for start in (np.zeros((k, 1)), np.ones((k, 1)), *rng.uniform(0, 1, (3, k, 1))):
        warm = _warm_root(costs, x, args, start)
        assert_allclose(warm, cold, rtol=0, atol=1e-12)
        # the clip lands clamped rows on the bracket's end exactly
        assert_array_equal(warm[clamped], cold[clamped])


@pytest.mark.parametrize("prox", ["max_nonneg", "cvar"])
@pytest.mark.parametrize("d", [1, 2, 5, 12])
def test_root_without_start_climbs_from_zero(prox, d):
    # the row sets of test_root_on_quadratic_rows_matches_bisection
    rng = np.random.default_rng(43 + d)
    k = 40
    costs = _random_quadratics(rng, k, d)
    x = rng.uniform(-3, 3, (k, d))
    args = _root_args(rng, k, prox)
    t = _root(costs, x, args)
    assert_array_equal(t, _warm_root(costs, x, args, np.zeros((k, 1))))
    want = np.array(
        [_bisected_root(f, xi, *(float(v[i, 0]) for v in args))
         for i, (f, xi) in enumerate(zip(costs, x))]
    )
    clamped = (want == 0.0) | (want == 1.0)
    assert clamped.any() and not clamped.all()
    assert_array_equal(t[clamped], want[clamped])


def test_warm_root_tolerance_below_one_ulp_stops(monkeypatch):
    rng = np.random.default_rng(47)
    k = 40
    costs = _random_quadratics(rng, k, 5)
    x = rng.uniform(-3, 3, (k, 5))
    args = _root_args(rng, k, "cvar")
    coarse = _root(costs, x, args)
    assert (coarse < 1.0).sum() >= 20
    calls = []
    cost_rows = operators._cost_rows
    monkeypatch.setattr(operators, "_cost_rows", lambda *a: calls.append(1) or cost_rows(*a))
    # t = 1 is right of every root below it: the first step crosses the
    # root, and roundoff around it must not keep the rows live
    fine = _warm_root(costs, x, args, np.ones((k, 1)), tol=1e-300)
    assert len(calls) <= 60
    assert_allclose(fine, coarse, rtol=0, atol=4e-15)


def test_warm_root_on_constant_rows():
    # g = 0 at every t, so h is constant and its sign picks the end of [0, 1]
    costs = [Affine(c=[0.0, 0.0], r=0.5), Affine(c=[0.0, 0.0], r=-0.5),
             SeparableQuadratic(q=[1.0, 2.0], c=[0.3, -0.1], r=2.0),
             SeparableQuadratic(q=[1.0, 2.0], c=[0.3, -0.1], r=-2.0)]
    x = np.array([[1.0, -1.0], [1.0, -1.0], [0.3, -0.1], [0.3, -0.1]])
    args = (np.ones((4, 1)), np.zeros((4, 1)), np.zeros((4, 1)))
    cold = _root(costs, x, args)
    assert_array_equal(cold, [1.0, 0.0, 1.0, 0.0])
    for start in (0.0, 0.4, 1.0):
        with np.errstate(all="raise"):
            assert_array_equal(_warm_root(costs, x, args, np.full((4, 1), start)), cold)


@pytest.mark.parametrize("f", [Affine(c=[0.0, 0.0], r=0.0), SeparableQuadratic(q=[0.0], c=[1.0])])
def test_constant_cost_root_leaves_x(f):
    x = np.full(f.dim, 0.7)
    with np.errstate(all="raise"):
        assert_array_equal(prox_max_nonneg(f, 1.0, x), x)
        _, p = prox_cvar_augmented(f, 0.5, 1.0, 0.3, x)
    assert_array_equal(p, x)


def _packed_by_hand(costs):
    """(q, c, l, r) of f = 0.5*sum q (x - c)^2 + <l, x> + r, one row per cost."""
    quad = [isinstance(f, SeparableQuadratic) for f in costs]
    zero = [np.zeros(f.dim) for f in costs]
    q = np.array([f.q if g else z for f, g, z in zip(costs, quad, zero)])
    c = np.array([f.c if g else z for f, g, z in zip(costs, quad, zero)])
    l = np.array([z if g else f.c for f, g, z in zip(costs, quad, zero)])
    return q, c, l, np.array([[f.r] for f in costs])


def _reference_root(costs, x, scale, shift, slope, tol, start):
    # the Newton climb as first written, kept here to pin the kernel's bits
    q, c, l, r = _packed_by_hand(costs)
    b = l - q * c
    scale, shift, slope, t = (
        np.broadcast_to(np.reshape(np.asarray(v, dtype=float), (-1, 1)), (len(x), 1))
        for v in (scale, shift, slope, start)
    )
    live, curved = np.ones_like(t, dtype=bool), q.any(axis=1, keepdims=True)
    for i in range(200):
        den = 1.0 + (t * scale) * q
        p = (x - (t * scale) * b) / den
        dot = np.matmul(l[:, None, :], p[:, :, None])[:, 0]
        value = ((0.5 * (q * (p - c) ** 2).sum(axis=1, keepdims=True) + dot) + r) - shift - t * slope
        g = (q * x + b) / den
        drop = scale * (g * g / den).sum(axis=1, keepdims=True) + slope
        step = np.divide(value, drop, out=np.sign(value), where=drop > 0.0)
        t, last = np.where(live, np.clip(t + step, 0.0, 1.0), t), t
        live &= ((np.abs(step) if i == 0 else step) > tol) & (t != last) & curved
        if not live.any():
            break
    return t, (x - (t * scale) * b) / (1.0 + (t * scale) * q)


def _mixed_costs(rng, k, d):
    """Quadratic, partly flat, affine and constant costs, in random order."""
    costs = []
    for kind in rng.integers(0, 4, k):
        r = float(rng.uniform(-3, 2) * d)
        if kind == 0:
            costs.append(SeparableQuadratic(q=rng.uniform(0.1, 3, d), c=rng.uniform(-2, 2, d), r=r))
        elif kind == 1:
            q = rng.uniform(0.1, 3, d) * (rng.random(d) < 0.5)
            costs.append(SeparableQuadratic(q=q, c=rng.uniform(-2, 2, d), r=r))
        elif kind == 2:
            costs.append(Affine(c=rng.uniform(-2, 2, d), r=r))
        elif rng.random() < 0.5:
            costs.append(Affine(c=np.zeros(d), r=r))
        else:
            costs.append(SeparableQuadratic(q=np.zeros(d), c=rng.uniform(-2, 2, d), r=r))
    return costs


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("start", ["zero", "one", "uniform"])
def test_root_keeps_the_reference_bits(start):
    # 100 seeded row sets per start, 300 in all, each tol on a third of them
    for s in range(100):
        rng = np.random.default_rng([59, ["zero", "one", "uniform"].index(start), s])
        k, d = int(rng.integers(1, 17)), int(rng.integers(1, 7))
        costs = _mixed_costs(rng, k, d)
        x = rng.uniform(-3, 3, (k, d))
        args = _root_args(rng, k, "max_nonneg" if s % 2 else "cvar")
        begin = {"zero": 0.0, "one": np.ones((k, 1)), "uniform": rng.uniform(0, 1, (k, 1))}[start]
        tol = (1e-12, 1e-6, 1e-300)[s % 3]
        t, p = _prox_root(_pack_costs(costs), x, *args, tol, begin)
        want_t, want_p = _reference_root(costs, x, *args, tol, begin)
        assert t.shape == want_t.shape == (k, 1) and p.shape == want_p.shape == (k, d)
        assert_array_equal(_bits(t), _bits(want_t))
        assert_array_equal(_bits(p), _bits(want_p))


# --- catalog guards ---

_NOT_NUMBERS = [
    (lambda: Box(lo=["0"], hi=["1"]), "Box.lo"),
    (lambda: Box(lo=[0.0], hi=[None]), "Box.hi"),
    (lambda: Ball(center=[0.0], radius="2"), "Ball.radius"),
    (lambda: Ball(center=[True], radius=1.0), "Ball.center"),
    (lambda: Ball(center=[0.0], radius=True), "Ball.radius"),
    (lambda: Ball(center=[0.0], radius=np.True_), "Ball.radius"),
    (lambda: Halfspace(normal=[1.0], offset=None), "Halfspace.offset"),
    (lambda: Hyperplane(normal=[1.0], offset=[0.5]), "Hyperplane.offset"),
    (lambda: DiagonalAffine(a=[1 + 0j], b=[0]), "DiagonalAffine.a"),
    (lambda: GradSeparableQuadratic(q=[1.0], c=[[0.0], [1.0, 2.0]]), "GradSeparableQuadratic.c"),
    (lambda: Affine(c=[1.0], r=[2.0]), "Affine.r"),
    (lambda: SeparableQuadratic(q=np.array([True]), c=[0.0]), "SeparableQuadratic.q"),
]


@pytest.mark.parametrize("build, field", _NOT_NUMBERS, ids=[f for _, f in _NOT_NUMBERS])
def test_spec_fields_that_are_not_numbers_are_refused(build, field):
    with pytest.raises(ConfigError, match=rf"^{field} must be"):
        build()


def test_spec_fields_keep_their_shape_errors_and_take_numpy_numbers():
    for bad in (0.0, [[0.0, 1.0]]):
        with pytest.raises(ValidationError, match="Box.lo: expected a 1-d array"):
            Box(lo=bad, hi=[1.0, 2.0])
    with pytest.raises(ValidationError, match="coordinate indices must be integers, got 5"):
        Coordinates(indices=5)
    ball = Ball(center=np.array([1, 2], dtype=np.int32), radius=np.float32(0.5))
    assert ball.center.dtype == float and type(ball.radius) is float
    assert_array_equal(ball.center, [1.0, 2.0])
    assert ball.radius == 0.5
    assert Halfspace(normal=[3], offset=np.int64(-2)).offset == -2.0


# one instance of every spec class, each numeric one of width 3
_SPEC_EXAMPLES = [
    Affine(c=[1.0, 2.0, 3.0], r=0.5),
    SeparableQuadratic(q=[1.0, 0.0, 2.0], c=[0.0, 1.0, 2.0]),
    DiagonalAffine(a=[1.0, 2.0, 0.0], b=[0.5, 0.0, -1.0]),
    GradSeparableQuadratic(q=[1.0, 0.5, 2.0], c=[0.0, 1.0, -1.0]),
    Box(lo=[0.0, -np.inf, 1.0], hi=[1.0, 2.0, np.inf]),
    Ball(center=[0.0, 1.0, 2.0], radius=1.5),
    Halfspace(normal=[1.0, 0.0, -1.0], offset=0.5),
    Hyperplane(normal=[0.0, 2.0, 1.0], offset=-1.0),
    WholeSpace(),
    Full(),
    Zero(),
    Coordinates(indices=(0, 2)),
]


@pytest.mark.parametrize("spec", _SPEC_EXAMPLES, ids=lambda s: type(s).__name__)
def test_dim_of_every_spec_class(spec):
    assert spec.dim == (3 if type(spec) in operators.RULES else None)


def test_dim_examples_cover_every_spec_class_but_the_composites():
    roles = (operators.CostSpec, operators.OperatorSpec, operators.ConstraintSpec, operators.SubspaceSpec)
    classes = {cls for role in roles for cls in get_args(role)} - {CvarAugmented, RealCross}
    assert {type(s) for s in _SPEC_EXAMPLES} == classes
