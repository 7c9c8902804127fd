"""Per-scenario operator catalog.

Closed-form resolvents and projectors for a small family of monotone
operators, convex costs, constraint sets and activation subspaces, plus the
two proximity operators used by the risk-averse pipeline: the prox of
``gamma * max{f(.), 0}`` and the prox of the augmented threshold-plus-excess
cost built from a base cost ``f`` and a tail level ``alpha``.

The per-scenario math is written once, as stacked kernels over groups of
scenarios that share a catalog type (see :class:`Stack`); ``resolvent``,
``apply_operator``, ``project_constraint``, ``project_subspace`` and the
cost and prox functions are the same kernels on a group of one row.  Every
cost packs into ``0.5 * sum q (x - c)^2 + <l, x> + r``, whose prox is the
diagonal-affine resolvent, and both risk proxes are the root of one convex
decreasing univariate function, found by Newton's method for all rows at
once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    BadAlpha,
    ConfigError,
    DimensionMismatch,
    NonPositiveGamma,
    ToleranceError,
    UnsupportedComposite,
    ValidationError,
)

# sentinel for an unbounded box side; clamping against it is a no-op
UNBOUNDED = float(np.finfo(np.float64).max)


def _vec(x, finite: bool = True) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"expected a 1-d array, got shape {arr.shape}")
    if finite and not np.isfinite(arr).all():
        raise ValidationError(f"expected finite entries, got {arr[~np.isfinite(arr)][0]}")
    return arr


def _scalar(x) -> float:
    value = float(x)
    if not np.isfinite(value):
        raise ValidationError(f"expected a finite number, got {value}")
    return value


def _setfield(obj, name, value):
    object.__setattr__(obj, name, value)


# ---------------------------------------------------------------------------
# convex costs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Affine:
    """f(x) = <c, x> + r."""

    c: np.ndarray
    r: float = 0.0

    def __post_init__(self):
        _setfield(self, "c", _vec(self.c))
        _setfield(self, "r", _scalar(self.r))

    @property
    def dim(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class SeparableQuadratic:
    """f(x) = 0.5 * sum_i q_i (x_i - c_i)^2 + r with q >= 0."""

    q: np.ndarray
    c: np.ndarray
    r: float = 0.0

    def __post_init__(self):
        _setfield(self, "q", _vec(self.q))
        _setfield(self, "c", _vec(self.c))
        _setfield(self, "r", _scalar(self.r))
        if self.q.size != self.c.size:
            raise DimensionMismatch("q and c must have equal length")
        if (self.q < 0).any():
            raise ValidationError("quadratic weights must be nonnegative")

    @property
    def dim(self) -> int:
        return self.q.size


CostSpec = Union[Affine, SeparableQuadratic]


def _pack_costs(costs) -> tuple:
    """(q, c, l, r), one row per cost, of f(x) = 0.5*sum q (x - c)^2 + <l, x> + r.

    Affine has q = 0, c = 0 and l = c; SeparableQuadratic has l = 0.  The
    prox of s*f is the diagonal-affine resolvent with a = q, b = l - q*c.
    """
    rows = []
    for f in costs:
        if isinstance(f, Affine):
            zero = np.zeros_like(f.c)
            rows.append((zero, zero, f.c, f.r))
        elif isinstance(f, SeparableQuadratic):
            rows.append((f.q, f.c, np.zeros_like(f.c), f.r))
        else:
            raise TypeError(f"unknown cost spec {type(f).__name__}")
    q, c, l, r = (np.array(col, dtype=float) for col in zip(*rows))
    return q, c, l, r.reshape(-1, 1)


def _cost_rows(cost, x) -> np.ndarray:
    """Values of the packed costs at the rows of x, as a (k, 1) column."""
    q, c, l, r = cost
    return (0.5 * (q * (x - c) ** 2).sum(axis=1, keepdims=True) + _row_dot(l, x)) + r


def cost_value(f: CostSpec, x) -> float:
    return float(_cost_rows(_pack_costs([f]), _checked(f, x)[None])[0, 0])


def cost_prox(f: CostSpec, gamma: float, x) -> np.ndarray:
    """argmin_p gamma*f(p) + 0.5*||p - x||^2; gamma = 0 gives x back."""
    if not gamma >= 0:
        raise NonPositiveGamma(f"prox parameter {gamma} must be nonnegative")
    q, c, l, _ = _pack_costs([f])
    return _resolvent_kernel(DiagonalAffine, (q, l - q * c), _checked(f, x)[None], gamma)[0]


# ---------------------------------------------------------------------------
# monotone operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalAffine:
    """A(x) = a * x + b componentwise, with a >= 0 so A is monotone."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        _setfield(self, "a", _vec(self.a))
        _setfield(self, "b", _vec(self.b))
        if self.a.size != self.b.size:
            raise DimensionMismatch("a and b must have equal length")
        if (self.a < 0).any():
            raise ValidationError("diagonal coefficients must be nonnegative")

    @property
    def dim(self) -> int:
        return self.a.size


@dataclass(frozen=True)
class GradSeparableQuadratic:
    """A(x) = q * (x - c): gradient of x -> 0.5 * sum_i q_i (x_i - c_i)^2."""

    q: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        _setfield(self, "q", _vec(self.q))
        _setfield(self, "c", _vec(self.c))
        if self.q.size != self.c.size:
            raise DimensionMismatch("q and c must have equal length")
        if (self.q < 0).any():
            raise ValidationError("quadratic weights must be nonnegative")

    @property
    def dim(self) -> int:
        return self.q.size


@dataclass(frozen=True)
class CvarAugmented:
    """Subdifferential of (y, x) -> y + max{f(x) - y, 0} / (1 - alpha).

    Acts on R x R^d where d is the dimension of the wrapped cost; the
    threshold coordinate comes first.
    """

    f: CostSpec
    alpha: float

    def __post_init__(self):
        _setfield(self, "alpha", float(self.alpha))
        if not 0.0 < self.alpha < 1.0:
            raise BadAlpha(f"alpha must lie in (0, 1), got {self.alpha}")

    @property
    def dim(self) -> int:
        return 1 + self.f.dim


OperatorSpec = Union[DiagonalAffine, GradSeparableQuadratic, CvarAugmented]


# ---------------------------------------------------------------------------
# constraint sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WholeSpace:
    """No constraint; the projector is the identity in any dimension."""

    @property
    def dim(self):
        return None


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; infinite bounds are stored as +-UNBOUNDED."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        # -inf / +inf sides map to the sentinels; NaN and the other
        # infinities fail the finiteness check
        lo = np.maximum(_vec(self.lo, finite=False), -UNBOUNDED)
        hi = np.minimum(_vec(self.hi, finite=False), UNBOUNDED)
        if lo.size != hi.size:
            raise DimensionMismatch("lo and hi must have equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValidationError("box bounds must be finite or +-inf")
        if (lo > hi).any():
            raise ValidationError("box needs lo <= hi componentwise")
        _setfield(self, "lo", _frozen(lo))
        _setfield(self, "hi", _frozen(hi))

    @property
    def dim(self) -> int:
        return self.lo.size


@dataclass(frozen=True)
class Ball:
    """Euclidean ball of positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        _setfield(self, "center", _vec(self.center))
        _setfield(self, "radius", float(self.radius))
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValidationError(f"ball radius must be positive, got {self.radius}")

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(frozen=True)
class Halfspace:
    """{x : <normal, x> <= offset} with a nonzero normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        _setfield(self, "normal", _vec(self.normal))
        _setfield(self, "offset", _scalar(self.offset))
        if not (self.normal != 0).any():
            raise ValidationError("halfspace normal must be nonzero")

    @property
    def dim(self) -> int:
        return self.normal.size


@dataclass(frozen=True)
class Hyperplane:
    """{x : <normal, x> = offset} with a nonzero normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        _setfield(self, "normal", _vec(self.normal))
        _setfield(self, "offset", _scalar(self.offset))
        if not (self.normal != 0).any():
            raise ValidationError("hyperplane normal must be nonzero")

    @property
    def dim(self) -> int:
        return self.normal.size


@dataclass(frozen=True)
class RealCross:
    """R x base: first coordinate free, the base set on the rest.

    Used by the risk-averse pipeline, where the threshold coordinate is
    unconstrained and the original constraint applies to the decisions.
    """

    base: "ConstraintSpec"

    @property
    def dim(self):
        inner = self.base.dim
        return None if inner is None else inner + 1


ConstraintSpec = Union[WholeSpace, Box, Ball, Halfspace, Hyperplane, RealCross]


# ---------------------------------------------------------------------------
# activation subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Full:
    """The whole space; projection is the identity."""

    @property
    def dim(self):
        return None


@dataclass(frozen=True)
class Zero:
    """The trivial subspace {0}."""

    @property
    def dim(self):
        return None


@dataclass(frozen=True)
class Coordinates:
    """Span of the listed coordinate axes (0-based indices)."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(set(idx)) != len(idx):
            raise ValidationError("coordinate indices must be distinct")
        if any(i < 0 for i in idx):
            raise ValidationError("coordinate indices must be nonnegative")
        _setfield(self, "indices", idx)

    @property
    def dim(self):
        return None


SubspaceSpec = Union[Full, Zero, Coordinates]


def validate_range_condition(cs: ConstraintSpec, us: SubspaceSpec) -> bool:
    """Check that every point moved by the projector moves inside ``us``.

    Conservative catalog test: it returns True only when the geometry
    guarantees ran(Id - proj) is contained in the subspace, False otherwise.
    """
    if isinstance(us, Full):
        return True
    if isinstance(cs, WholeSpace):
        # the projector is the identity, its displacement range is {0}
        return True
    if isinstance(cs, RealCross) and isinstance(cs.base, WholeSpace):
        return True
    if isinstance(us, Zero):
        return False
    if isinstance(us, Coordinates):
        sel = set(us.indices)
        if isinstance(cs, Box):
            free = {
                i
                for i in range(cs.dim)
                if cs.lo[i] <= -UNBOUNDED and cs.hi[i] >= UNBOUNDED
            }
            return sel <= set(range(cs.dim)) and free == set(range(cs.dim)) - sel
        if isinstance(cs, (Halfspace, Hyperplane)):
            # displacements are multiples of the normal
            support = {i for i in range(cs.dim) if cs.normal[i] != 0}
            return support <= sel and sel <= set(range(cs.dim))
    return False


# ---------------------------------------------------------------------------
# stacked kernels
# ---------------------------------------------------------------------------
#
# Each kernel takes a group kind, the stacked coefficients of the group's
# rows and a (k, d) block of points, one row per member.  Vectors stack
# into (k, d) arrays, scalars and step sizes into (k, 1) columns.

def _kind(spec):
    """Group key of a spec: its type, or (RealCross, key of the base).

    GradSeparableQuadratic is the diagonal-affine map with a = q and
    b = -q * c, so it groups with DiagonalAffine.
    """
    if isinstance(spec, RealCross):
        return (RealCross, _kind(spec.base))
    if isinstance(spec, GradSeparableQuadratic):
        return DiagonalAffine
    return type(spec)


def _kind_name(kind) -> str:
    return kind[0].__name__ if isinstance(kind, tuple) else kind.__name__


def _rows(specs, name: str) -> np.ndarray:
    return np.array([getattr(s, name) for s in specs], dtype=float)


def _scalars(specs, name: str) -> np.ndarray:
    return _rows(specs, name).reshape(-1, 1)


def step_column(value, rows: int) -> np.ndarray:
    """A number or one value per row, as a read-only (rows, 1) column."""
    column = np.reshape(np.asarray(value, dtype=float), (-1, 1))
    if len(column) not in (1, rows):
        raise ConfigError(f"got {len(column)} step values for {rows} rows")
    return np.broadcast_to(column, (rows, 1))


def _pack(kind, specs) -> tuple:
    """Stacked coefficient arrays of specs that share one kind."""
    if isinstance(kind, tuple):
        return _pack(kind[1], [s.base for s in specs])
    if kind is DiagonalAffine:
        quad = np.array([isinstance(s, GradSeparableQuadratic) for s in specs])
        a = np.array([s.q if g else s.a for s, g in zip(specs, quad)])
        b = np.array([s.c if g else s.b for s, g in zip(specs, quad)])
        b[quad] *= -a[quad]  # q * (x - c) has b = -q * c
        return a, b
    if kind is CvarAugmented:
        return (_scalars(specs, "alpha"),) + _pack_costs([s.f for s in specs])
    if kind is Box:
        return _rows(specs, "lo"), _rows(specs, "hi")
    if kind is Ball:
        return _rows(specs, "center"), _scalars(specs, "radius")
    if kind in (Halfspace, Hyperplane):
        sq = np.array([[float(s.normal @ s.normal)] for s in specs])
        return _rows(specs, "normal"), _scalars(specs, "offset"), sq
    return ()


def _resolvent_kernel(kind, coef, z, gamma, tol=1e-12):
    if kind is DiagonalAffine:
        a, b = coef
        return (z - gamma * b) / (1.0 + gamma * a)
    if kind is CvarAugmented:
        # with tau = gamma/(1 - alpha), the prox at (y, x) is (y - gamma + t*tau,
        # prox_{t*tau*f} x) for the root t of f(prox_{t*tau*f} x) - (y - gamma) - t*tau
        alpha, *cost = coef
        tau = gamma / (1.0 - alpha)
        shift = z[:, :1] - gamma
        t, p = _prox_root(cost, z[:, 1:], tau, shift, tau, tol)
        return np.hstack([shift + t * tau, p])
    raise TypeError(f"unknown operator spec {_kind_name(kind)}")


def _forward_kernel(kind, coef, x):
    if kind is DiagonalAffine:
        a, b = coef
        return a * x + b
    raise TypeError(f"{_kind_name(kind)} has no single-valued forward map")


def _row_dot(a, b) -> np.ndarray:
    # one dot product per row, as a (k, 1) column; matmul takes the same
    # path as a 1-d ``a @ b``, so each row rounds the way a single row does
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0]


def _project_kernel(kind, coef, z):
    if isinstance(kind, tuple):
        out = z.copy()
        out[:, 1:] = _project_kernel(kind[1], coef, z[:, 1:])
        return out
    if kind is WholeSpace:
        return z.copy()
    if kind is Box:
        lo, hi = coef
        return np.clip(z, lo, hi)
    if kind is Ball:
        center, radius = coef
        shift = z - center
        dist = np.sqrt(_row_dot(shift, shift))
        return np.where(dist <= radius, z, center + (radius / np.maximum(dist, radius)) * shift)
    if kind in (Halfspace, Hyperplane):
        normal, offset, sq = coef
        slack = _row_dot(normal, z) - offset
        if kind is Halfspace:
            slack = np.maximum(slack, 0.0)
        return z - (slack / sq) * normal
    raise TypeError(f"unknown constraint spec {_kind_name(kind)}")


def _take(coef: tuple, slots) -> tuple:
    return coef if slots is None else tuple(c[slots] for c in coef)


class Stack:
    """Per-scenario specs grouped by catalog type, coefficients stacked.

    Built once per problem.  ``groups`` lists ``(kind, members, coef)`` in
    order of first appearance: the kind (the spec type; RealCross groups by
    its base too), the member scenarios ascending, and the coefficient
    arrays with one row per member.
    """

    def __init__(self, specs):
        by_kind: dict = {}
        for i, spec in enumerate(specs):
            by_kind.setdefault(_kind(spec), []).append(i)
        self.group_of = np.empty(len(specs), dtype=int)
        self.slot_of = np.empty(len(specs), dtype=int)
        self.groups = []
        for g, (kind, members) in enumerate(by_kind.items()):
            members = np.array(members)
            self.group_of[members] = g
            self.slot_of[members] = np.arange(members.size)
            self.groups.append((kind, members, _pack(kind, [specs[i] for i in members])))

    def parts(self, rows=None):
        """Yield ``(kind, pos, coef)`` for each group that ``rows`` touches.

        ``rows`` holds scenario indices in any order, None meaning all of
        them in order; ``pos`` picks the group's entries out of it and
        ``coef`` has one coefficient row per picked entry.
        """
        if len(self.groups) == 1:
            kind, _, coef = self.groups[0]
            yield kind, slice(None), _take(coef, rows)
        elif rows is None:
            yield from self.groups
        else:
            group = self.group_of[rows]
            for g, (kind, _, coef) in enumerate(self.groups):
                pos = np.flatnonzero(group == g)
                if pos.size:
                    yield kind, pos, _take(coef, self.slot_of[rows[pos]])


def _by_group(kernel, stack: Stack, rows, z, *columns) -> np.ndarray:
    """Run ``kernel`` on each group's rows of z and of the per-row columns."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    for kind, pos, coef in stack.parts(rows):
        part = kernel(kind, coef, z[pos], *(c[pos] for c in columns))
        if isinstance(pos, slice):
            return part
        out[pos] = part
    return out


def resolvent_rows(stack: Stack, gamma, z, rows=None) -> np.ndarray:
    """Resolvents of the scenarios ``rows`` at the rows of z.

    ``gamma`` is a number or one positive step per row.
    """
    return _by_group(_resolvent_kernel, stack, rows, z, step_column(gamma, len(z)))


def forward_rows(stack: Stack, x, rows=None) -> np.ndarray:
    """Forward maps of the scenarios ``rows`` at the rows of x."""
    return _by_group(_forward_kernel, stack, rows, x)


def project_constraint_rows(stack: Stack, z, rows=None) -> np.ndarray:
    """Projections of the rows of z onto the constraint sets of ``rows``."""
    return _by_group(_project_kernel, stack, rows, z)


def subspace_mask(us: SubspaceSpec, dim: int) -> np.ndarray:
    """Boolean mask of the coordinate axes that span ``us`` in R^dim.

    Every catalog subspace is spanned by axes, so its projector keeps the
    masked entries of a row and zeroes the rest.
    """
    if isinstance(us, Full):
        return np.ones(dim, dtype=bool)
    if isinstance(us, Zero):
        return np.zeros(dim, dtype=bool)
    if isinstance(us, Coordinates):
        if us.indices and max(us.indices) >= dim:
            raise DimensionMismatch(
                f"coordinate index {max(us.indices)} out of range for dim {dim}"
            )
        mask = np.zeros(dim, dtype=bool)
        mask[list(us.indices)] = True
        return mask
    raise TypeError(f"unknown subspace spec {type(us).__name__}")


def _one_row(kernel, spec, z, *args) -> np.ndarray:
    kind = _kind(spec)
    return kernel(kind, _pack(kind, [spec]), z[None], *args)[0]


def apply_operator(op: OperatorSpec, x) -> np.ndarray:
    """Forward evaluation, defined for the single-valued catalog entries."""
    return _one_row(_forward_kernel, op, _checked(op, x))


def resolvent(op: OperatorSpec, gamma: float, z) -> np.ndarray:
    """Solve p + gamma*A(p) = z for the catalog operator A."""
    if not gamma > 0:
        raise NonPositiveGamma(f"resolvent parameter {gamma} must be positive")
    return _one_row(_resolvent_kernel, op, _checked(op, z), float(gamma))


def _checked(spec, z) -> np.ndarray:
    """z as a float array, once its size fits the spec."""
    z = np.asarray(z, dtype=float)
    if spec.dim is not None and z.size != spec.dim:
        raise DimensionMismatch(f"{type(spec).__name__} expects dim {spec.dim}, got {z.size}")
    if isinstance(spec, RealCross) and z.size < 1:
        raise DimensionMismatch("RealCross needs at least one coordinate")
    return z


def project_constraint(cs: ConstraintSpec, z) -> np.ndarray:
    """Euclidean projection onto the constraint set."""
    return _one_row(_project_kernel, cs, _checked(cs, z))


def project_subspace(us: SubspaceSpec, z) -> np.ndarray:
    """Orthogonal projection onto the activation subspace."""
    z = np.asarray(z, dtype=float)
    return np.where(subspace_mask(us, z.size), z, 0.0)


# ---------------------------------------------------------------------------
# proximity operators for the risk-averse pipeline
# ---------------------------------------------------------------------------

def _prox_root(cost, x, scale, shift, slope, tol):
    """Root t in [0, 1] of h(t) = f(prox_{t*scale*f} x) - shift - t*slope, per row.

    A row with h(0) < 0 takes t = 0, else a row with h(1) > 0 takes t = 1;
    the others run Newton's method together from t = 0.  With a = q,
    b = l - q*c and den = 1 + t*scale*a, the prox point p has
    g = a*p + b = (a*x + b) / den and h'(t) = -scale * sum(g^2 / den) - slope,
    so h is convex and nonincreasing and no step passes the root.  A row
    stops on its own after a step of at most ``tol`` or one that left t
    unchanged (200 steps at most), a linear row (a = 0) after its first,
    exact step; a zero derivative gives a zero step.  ``scale``, ``shift``
    and ``slope`` are numbers or (k, 1) columns.  Returns t and the prox
    points at t.
    """
    q, c, l, r = cost
    b = l - q * c
    scale, shift, slope = (step_column(v, len(x)) for v in (scale, shift, slope))
    args = (q, b, c, l, r, x, scale, shift, slope)

    def h(t, a, b, c, l, r, x, scale, shift, slope):
        p = _resolvent_kernel(DiagonalAffine, (a, b), x, t * scale)
        return _cost_rows((a, c, l, r), p) - shift - t * slope

    value = h(0.0, *args)
    t = np.where(value < 0.0, 0.0, 1.0)
    todo = np.flatnonzero((t > 0.0) & ~(h(1.0, *args) > 0.0))
    if todo.size:
        sub = tuple(v[todo] for v in args)
        a, b_sub, _, _, _, x_sub, s, _, m = sub
        root, value = np.zeros((todo.size, 1)), value[todo]
        live, curved = np.ones_like(root, dtype=bool), a.any(axis=1, keepdims=True)
        for _ in range(200):
            den = 1.0 + (root * s) * a
            g = (a * x_sub + b_sub) / den
            drop = s * (g * g / den).sum(axis=1, keepdims=True) + m  # -h'(root)
            step = np.divide(value, drop, out=np.zeros_like(value), where=drop > 0.0)
            root, last = np.where(live, root + step, root), root
            live &= (step > tol) & (root != last) & curved
            if not live.any():
                break
            value = h(root, *sub)
        t[todo] = root
    return t, _resolvent_kernel(DiagonalAffine, (q, b), x, t * scale)


def prox_max_nonneg(f: CostSpec, gamma: float, x, tol: float = 1e-12) -> np.ndarray:
    """Prox of ``gamma * max{f(.), 0}`` for a catalog cost f.

    x itself where f(x) < 0, else the prox of gamma*f where f stays positive
    there, else the prox of theta*gamma*f for the theta at which f vanishes.
    """
    if not gamma > 0:
        raise NonPositiveGamma(f"prox parameter {gamma} must be positive")
    if not tol > 0:
        raise ToleranceError(f"root tolerance {tol} must be positive")
    return _prox_root(_pack_costs([f]), _checked(f, x)[None], gamma, 0.0, 0.0, tol)[1][0]


def prox_cvar_augmented(
    f: CostSpec, alpha: float, gamma: float, y: float, x, tol: float = 1e-12
):
    """Prox of gamma * [y + max{f(x) - y, 0} / (1 - alpha)] at (y, x).

    Returns the pair (threshold, decisions): with tau = gamma/(1 - alpha),
    (y - gamma + theta*tau, prox_{theta*tau*f} x) for the theta in [0, 1]
    found by the same root search as :func:`prox_max_nonneg`.
    """
    op = CvarAugmented(f=f, alpha=alpha)
    if not gamma > 0:
        raise NonPositiveGamma(f"prox parameter {gamma} must be positive")
    if not tol > 0:
        raise ToleranceError(f"root tolerance {tol} must be positive")
    z = np.concatenate(([float(y)], _checked(f, x)))
    out = _one_row(_resolvent_kernel, op, z, gamma, tol)
    return float(out[0]), out[1:]


def require_composite(op_kinds, cs_kinds):
    """Raise UnsupportedComposite unless every pair has a joint resolvent.

    Supported: DiagonalAffine (GradSeparableQuadratic groups with it) with
    Box or no constraint.  Each scalar equation is monotone, so the joint
    resolvent is the box projection of the operator resolvent.
    """
    for kind in op_kinds:
        if kind is not DiagonalAffine:
            raise UnsupportedComposite(
                f"no composite resolvent for operator {_kind_name(kind)}"
            )
    for kind in cs_kinds:
        if kind not in (WholeSpace, Box):
            raise UnsupportedComposite(
                f"no composite resolvent for constraint {_kind_name(kind)}"
            )


def composite_resolvent(op: OperatorSpec, cs: ConstraintSpec, gamma: float, z) -> np.ndarray:
    """Resolvent of gamma*(A + normal cone of C) for separable pairs."""
    if not gamma > 0:
        raise NonPositiveGamma(f"resolvent parameter {gamma} must be positive")
    require_composite([_kind(op)], [_kind(cs)])
    return project_constraint(cs, resolvent(op, gamma, z))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr
