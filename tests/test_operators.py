import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from scensplit import operators
from scensplit.errors import (
    BadAlpha,
    DimensionMismatch,
    NonPositiveGamma,
    ToleranceError,
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


# --- range condition catalog ---

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


def test_prox_max_nonneg_errors():
    f = Affine(c=[1.0])
    with pytest.raises(NonPositiveGamma):
        prox_max_nonneg(f, 0.0, [1.0])
    with pytest.raises(ToleranceError):
        prox_max_nonneg(f, 1.0, [1.0], tol=0.0)
    with pytest.raises(NonPositiveGamma):
        prox_max_nonneg(f, float("nan"), [1.0])
    with pytest.raises(ToleranceError):
        prox_max_nonneg(f, 1.0, [1.0], tol=float("nan"))
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
    with pytest.raises(ToleranceError):
        prox_cvar_augmented(f, 0.5, 1.0, 0.0, [0.0], tol=-1.0)
    with pytest.raises(NonPositiveGamma):
        prox_cvar_augmented(f, 0.5, float("nan"), 0.0, [0.0])
    with pytest.raises(ToleranceError):
        prox_cvar_augmented(f, 0.5, 1.0, 0.0, [0.0], tol=float("nan"))
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


@pytest.mark.parametrize("f", [Affine(c=[0.0, 0.0], r=0.0), SeparableQuadratic(q=[0.0], c=[1.0])])
def test_constant_cost_root_leaves_x(f):
    x = np.full(f.dim, 0.7)
    with np.errstate(all="raise"):
        assert_array_equal(prox_max_nonneg(f, 1.0, x), x)
        _, p = prox_cvar_augmented(f, 0.5, 1.0, 0.3, x)
    assert_array_equal(p, x)
