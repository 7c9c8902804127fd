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
from operator import attrgetter
from typing import Union, get_args

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


def _setfield(obj, name, value):
    object.__setattr__(obj, name, value)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def check_roles(specs, role, label: str):
    """Raise ValidationError, naming spec i by ``label.format(i)``, unless each is a ``role``."""
    kinds = get_args(role)
    for i, spec in enumerate(specs):
        if not isinstance(spec, kinds):
            names = ", ".join(k.__name__ for k in kinds)
            got = type(spec).__name__
            raise ValidationError(f"{label.format(i)} must be one of {names}, got {got}")


def check_specs(specs, role, name: str, n: int, width: int, mismatch):
    """Check a problem's ``n`` per-scenario ``role`` specs, spec i named ``name i``.

    A count other than n raises ValidationError, as does a spec of another
    role; a spec whose dim is neither None nor ``width`` raises ``mismatch``.
    """
    if len(specs) != n:
        raise ValidationError(f"{name}s: got {len(specs)} entries for {n} scenarios")
    check_roles(specs, role, name + " {}")
    for i, spec in enumerate(specs):
        if spec.dim not in (None, width):
            raise mismatch(f"{name} {i} has dim {spec.dim}, tree needs {width}")


def _as_array(value) -> np.ndarray:
    """``value`` as a numpy array; ragged nesting gives a 0-d object array."""
    try:
        return np.asarray(value)
    except ValueError:
        return np.asarray(None)


def _number(name: str, value, max_ndim: int = 0, kinds: str = "a number") -> np.ndarray:
    """``value`` as an integer or float array of at most ``max_ndim`` dimensions.

    Anything else, bools and numpy bools included, raises ``ConfigError``
    saying that ``name`` must be ``kinds``.
    """
    array = _as_array(value)
    if array.ndim > max_ndim or array.dtype.kind not in "iuf":
        raise ConfigError(f"{name} must be {kinds}, got {value!r}")
    return array


def _check_gamma(gamma, zero: bool = False) -> float:
    """gamma as a float, once it is a number > 0 (>= 0 with ``zero``) and finite.

    A number is an integer or float, numpy scalars and one-entry arrays
    included; anything else (a string, None, a bool, a longer array) raises
    ConfigError.  A value out of range raises NonPositiveGamma, +inf
    ValidationError.
    """
    array = _number("gamma", gamma, max_ndim=1)
    if array.size != 1:
        raise ConfigError(f"gamma must be a number, got {gamma!r}")
    gamma = float(array.reshape(()))
    if not (gamma >= 0 if zero else gamma > 0):
        least = "nonnegative" if zero else "positive"
        raise NonPositiveGamma(f"gamma must be {least}, got {gamma}")
    if gamma == np.inf:
        raise ValidationError(f"gamma must be finite, got {gamma}")
    return gamma


def check_alpha(alpha) -> float:
    """alpha as a float, once it is a number in (0, 1).

    A non-number (a string, bool, None or sequence) raises ConfigError, a
    number outside the interval BadAlpha.
    """
    alpha = float(_number("alpha", alpha))
    if not 0.0 < alpha < 1.0:
        raise BadAlpha(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def _vec(x, name: str) -> np.ndarray:
    arr = np.asarray(_number(name, x, np.inf, "an array of numbers"), dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name}: expected a 1-d array, got shape {arr.shape}")
    return arr


class _Numeric:
    """Base of the catalog specs whose fields :data:`RULES` lists.

    Construction checks a spec as a group of one row, then stores its
    vector fields as 1-d float arrays and its scalar fields as floats.  A
    field that is not made of integers or floats raises ConfigError naming
    ``Class.field``.  ``dim``, set below :data:`RULES`, is the width of the
    first vector field.
    """

    def __post_init__(self):
        cls = type(self)
        vectors, scalars, _ = RULES[cls]
        name = cls.__name__
        fields = {f: _vec(getattr(self, f), f"{name}.{f}")[None] for f in vectors}
        for f in scalars:
            fields[f] = np.array([[float(_number(f"{name}.{f}", getattr(self, f)))]])
        fields = _settle_rows(cls, fields, lambda row: name)
        for f in vectors:
            _setfield(self, f, fields[f][0])
        for f in scalars:
            _setfield(self, f, float(fields[f][0, 0]))


# ---------------------------------------------------------------------------
# convex costs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Affine(_Numeric):
    """f(x) = <c, x> + r."""

    c: np.ndarray
    r: float = 0.0


@dataclass(frozen=True)
class SeparableQuadratic(_Numeric):
    """f(x) = 0.5 * sum_i q_i (x_i - c_i)^2 + r with q >= 0."""

    q: np.ndarray
    c: np.ndarray
    r: float = 0.0


CostSpec = Union[Affine, SeparableQuadratic]


def _pack_costs(costs) -> tuple:
    """(q, c, l, r, b, curved), one row per cost, of f(x) = 0.5*sum q (x - c)^2 + <l, x> + r.

    q, c, l and b are (k, d) arrays, r a (k, 1) column and curved a (k, 1)
    bool column.  Affine has q = 0, c = 0 and l = c; SeparableQuadratic has
    l = 0.  The prox of s*f is the diagonal-affine resolvent with a = q and
    b = l - q*c; curved marks the rows with some q > 0, the only ones whose
    prox root search takes more than one step.
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
    return q, c, l, r.reshape(-1, 1), l - q * c, q.any(axis=1, keepdims=True)


def _cost_rows(cost, x) -> np.ndarray:
    """Values of the packed costs at the rows of x, as a (k, 1) column."""
    q, c, l, r, *_ = cost
    return (0.5 * (q * (x - c) ** 2).sum(axis=1, keepdims=True) + _row_dot(l, x)) + r


def cost_value(f: CostSpec, x) -> float:
    return float(_cost_rows(_pack_costs([f]), _checked(f, x)[None])[0, 0])


def cost_prox(f: CostSpec, gamma: float, x) -> np.ndarray:
    """argmin_p gamma*f(p) + 0.5*||p - x||^2; gamma = 0 gives x back."""
    gamma = _check_gamma(gamma, zero=True)
    q, *_, b, _ = _pack_costs([f])
    return _resolvent_kernel(DiagonalAffine, (q, b), _checked(f, x)[None], gamma)[0][0]


# ---------------------------------------------------------------------------
# monotone operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalAffine(_Numeric):
    """A(x) = a * x + b componentwise, with a >= 0 so A is monotone."""

    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class GradSeparableQuadratic(_Numeric):
    """A(x) = q * (x - c): gradient of x -> 0.5 * sum_i q_i (x_i - c_i)^2."""

    q: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class CvarAugmented:
    """Subdifferential of (y, x) -> y + max{f(x) - y, 0} / (1 - alpha).

    Acts on R x R^d where d is the dimension of the wrapped cost; the
    threshold coordinate comes first.  ``alpha`` goes through
    :func:`check_alpha`.
    """

    f: CostSpec
    alpha: float

    def __post_init__(self):
        check_roles((self.f,), CostSpec, "CvarAugmented.f")
        _setfield(self, "alpha", check_alpha(self.alpha))

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

    dim = None


@dataclass(frozen=True)
class Box(_Numeric):
    """Axis-aligned box; infinite bounds are stored as +-UNBOUNDED."""

    lo: np.ndarray
    hi: np.ndarray


@dataclass(frozen=True)
class Ball(_Numeric):
    """Euclidean ball of positive radius."""

    center: np.ndarray
    radius: float


@dataclass(frozen=True)
class Halfspace(_Numeric):
    """{x : <normal, x> <= offset} with a nonzero normal."""

    normal: np.ndarray
    offset: float


@dataclass(frozen=True)
class Hyperplane(_Numeric):
    """{x : <normal, x> = offset} with a nonzero normal."""

    normal: np.ndarray
    offset: float


@dataclass(frozen=True)
class RealCross:
    """R x base: first coordinate free, the base set on the rest.

    Used by the risk-averse pipeline, where the threshold coordinate is
    unconstrained and the original constraint applies to the decisions.
    """

    base: "ConstraintSpec"

    def __post_init__(self):
        check_roles((self.base,), ConstraintSpec, "RealCross.base")

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

    dim = None


@dataclass(frozen=True)
class Zero:
    """The trivial subspace {0}."""

    dim = None


@dataclass(frozen=True)
class Coordinates:
    """Span of the listed coordinate axes (0-based integer indices, not bools)."""

    indices: tuple[int, ...]
    dim = None

    def __post_init__(self):
        if not np.iterable(self.indices):
            raise ValidationError(f"coordinate indices must be integers, got {self.indices!r}")
        for i in self.indices:
            if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
                raise ValidationError(f"coordinate indices must be integers, got {i!r}")
        idx = tuple(int(i) for i in self.indices)
        if len(set(idx)) != len(idx):
            raise ValidationError("coordinate indices must be distinct")
        if any(i < 0 for i in idx):
            raise ValidationError("coordinate indices must be nonnegative")
        _setfield(self, "indices", idx)


SubspaceSpec = Union[Full, Zero, Coordinates]


# ---------------------------------------------------------------------------
# catalog rules
# ---------------------------------------------------------------------------
#
# The rules of a spec class with numeric fields are checked on a group of
# rows at once: each vector field stacked into a (k, d) array, each scalar
# field into a (k, 1) column.  A spec checks itself as a group of one row.

def _finite(name: str) -> tuple:
    return name, "expected finite entries", lambda f: ~np.isfinite(f[name]).all(axis=1)


def _nonnegative(name: str, message: str) -> tuple:
    return name, message, lambda f: (f[name] < 0).any(axis=1)


def _nonzero_normal(kind: str) -> tuple:
    return "normal", f"{kind} normal must be nonzero", lambda f: ~(f["normal"] != 0).any(axis=1)


_QUADRATIC = _nonnegative("q", "quadratic weights must be nonnegative")

# spec class -> (vector fields, scalar fields, rules).  Every entry must be
# finite, once a Box's infinite sides are clamped; each further rule is
# (field, message, test), where test maps the stacked fields to a (k,) mask,
# True at the rows that break the rule.
RULES = {
    Affine: (("c",), ("r",), ()),
    SeparableQuadratic: (("q", "c"), ("r",), (_QUADRATIC,)),
    DiagonalAffine: (("a", "b"), (), (_nonnegative("a", "diagonal coefficients must be nonnegative"),)),
    GradSeparableQuadratic: (("q", "c"), (), (_QUADRATIC,)),
    Box: (
        ("lo", "hi"),
        (),
        (("hi", "box needs lo <= hi componentwise", lambda f: (f["lo"] > f["hi"]).any(axis=1)),),
    ),
    Ball: (
        ("center",),
        ("radius",),
        (("radius", "ball radius must be positive", lambda f: f["radius"][:, 0] <= 0),),
    ),
    Halfspace: (("normal",), ("offset",), (_nonzero_normal("halfspace"),)),
    Hyperplane: (("normal",), ("offset",), (_nonzero_normal("hyperplane"),)),
}

# attrgetter reads the width in C: Problem checks every spec's dim
for _cls, (_vectors, _, _) in RULES.items():
    _cls.dim = property(attrgetter(_vectors[0] + ".size"))


def _settle_rows(cls, fields: dict, label) -> dict:
    """The stacked ``fields`` of a group of ``cls`` specs, once every row passes the rules.

    ``fields`` maps each field of ``cls`` in :data:`RULES` to its stacked
    array.  Vector fields of unequal widths raise DimensionMismatch;
    otherwise the first row that breaks a rule raises ValidationError for
    the first rule it breaks, led by ``label(row)`` and the field.  Box sides
    come back read-only, -inf and +inf moved to -+UNBOUNDED.
    """
    vectors, scalars, rules = RULES[cls]
    if len({fields[name].shape[1] for name in vectors}) > 1:
        raise DimensionMismatch(f"{label(0)}: {' and '.join(vectors)} must have equal length")
    if cls is Box:
        # NaN and the other infinities stay, to fail the finiteness rule
        fields = {
            "lo": _frozen(np.maximum(fields["lo"], -UNBOUNDED)),
            "hi": _frozen(np.minimum(fields["hi"], UNBOUNDED)),
        }
    rules = [_finite(name) for name in vectors + scalars] + list(rules)
    broken = np.array([test(fields) for *_, test in rules])
    rows = broken.any(axis=0)
    if rows.any():
        row = int(rows.argmax())
        name, message, _ = rules[int(broken[:, row].argmax())]
        raise ValidationError(f"{label(row)}.{name}: {message}")
    return fields


def specs_from_rows(cls, fields: dict, label) -> list:
    """One ``cls`` spec per row of the stacked ``fields``, the rows checked once as a group.

    ``fields`` and ``label`` are as for :func:`_settle_rows`.  The arrays are
    frozen: each spec holds read-only row views for its vectors and floats
    for its scalars, and is not checked again on its own.
    """
    fields = _settle_rows(cls, fields, label)
    vectors, scalars, _ = RULES[cls]
    columns = [_frozen(fields[name]) for name in vectors]
    columns += [fields[name][:, 0].tolist() for name in scalars]
    names = vectors + scalars
    specs = []
    for values in zip(*columns):
        spec = object.__new__(cls)
        for name, value in zip(names, values):
            _setfield(spec, name, value)
        specs.append(spec)
    return specs


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
# into (k, d) arrays, scalars into (k, 1) columns; a step size is a float
# or such a column.

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
    """A number or one value per row, as a (rows, 1) float column.

    One value per row comes back as a (rows, 1) view of ``value`` when it
    is a float array already, a single value as a new column filled with it.
    Callers read the column and never write to it.
    """
    column = np.asarray(value, dtype=float).reshape(-1, 1)
    if len(column) == rows:
        return column
    if len(column) != 1:
        raise ConfigError(f"got {len(column)} step values for {rows} rows")
    return np.full((rows, 1), column[0, 0])


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
    if kind not in RULES:
        return ()
    vectors, scalars, _ = RULES[kind]
    coef = tuple(_rows(specs, name) for name in vectors)
    coef += tuple(_scalars(specs, name) for name in scalars)
    if kind in (Halfspace, Hyperplane):
        coef += (np.array([[float(s.normal @ s.normal)] for s in specs]),)
    return coef


def _resolvent_kernel(kind, coef, z, gamma, start=0.0, tol=1e-12):
    """Resolvent points of the rows and their CVaR prox roots, as a pair.

    Each CvarAugmented row's root search starts at ``start``, a number or a
    (k, 1) column in [0, 1]; the other rows hand their start back as root.
    """
    if kind is DiagonalAffine:
        a, b = coef
        return (z - gamma * b) / (1.0 + gamma * a), start
    if kind is CvarAugmented:
        # with tau = gamma/(1 - alpha), the prox at (y, x) is (y - gamma + t*tau,
        # prox_{t*tau*f} x) for the root t of f(prox_{t*tau*f} x) - (y - gamma) - t*tau
        alpha, *cost = coef
        tau = gamma / (1.0 - alpha)
        shift = z[:, :1] - gamma
        t, p = _prox_root(cost, z[:, 1:], tau, shift, tau, tol, start)
        return np.concatenate([shift + t * tau, p], axis=1), t
    raise TypeError(f"unknown operator spec {_kind_name(kind)}")


def _forward_kernel(kind, coef, x):
    if kind is DiagonalAffine:
        a, b = coef
        return a * x + b
    raise TypeError(f"{_kind_name(kind)} has no single-valued forward map")


def _row_dot(a, b) -> np.ndarray:
    # one dot product per row, as a (k, 1) column; vecdot rounds each row
    # the way a 1-d ``a @ b`` does
    return np.vecdot(a, b)[:, None]


def _project_kernel(kind, coef, z):
    if isinstance(kind, tuple):
        out = z.copy()
        out[:, 1:] = _project_kernel(kind[1], coef, z[:, 1:])
        return out
    if kind is WholeSpace:
        return z.copy()
    if kind is Box:
        lo, hi = coef
        return z.clip(lo, hi)
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
    return coef if slots is None else tuple(c.take(slots, axis=0) for c in coef)


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
        if rows is None:
            yield from self.groups
        else:
            group = self.group_of[rows]
            for g, (kind, _, coef) in enumerate(self.groups):
                pos = np.flatnonzero(group == g)
                if pos.size:
                    yield kind, pos, _take(coef, self.slot_of[rows[pos]])


def _by_group(kernel, stack: Stack, rows, z, *columns):
    """Run ``kernel`` on each group's rows of z and of the per-row columns.

    A kernel may return a pair, its rows and one more per-row block; both
    are then assembled in the order of z's rows.  A stack of one group
    hands z and the columns to its kernel whole; a float column (one value
    for every row) goes whole to every group.
    """
    z = np.asarray(z, dtype=float)
    if len(stack.groups) == 1:
        kind, _, coef = stack.groups[0]
        return kernel(kind, _take(coef, rows), z, *columns)
    out, more = np.empty_like(z), None
    for kind, pos, coef in stack.parts(rows):
        picked = (c if isinstance(c, float) else c.take(pos, axis=0) for c in columns)
        part = kernel(kind, coef, z.take(pos, axis=0), *picked)
        if isinstance(part, tuple):
            part, extra = part
            if more is None:
                more = np.empty((len(z),) + extra.shape[1:])
            more[pos] = extra
        out[pos] = part
    return out if more is None else (out, more)


def resolvent_rows(stack: Stack, gamma, z, rows=None, start=None):
    """Resolvents of the scenarios ``rows`` at the rows of z.

    ``gamma`` is a number or one positive step per row.  The prox root
    search of a CvarAugmented row starts at t = 0, or at its entry of
    ``start``, a number or a (k, 1) column in [0, 1].  Given a ``start``,
    the return value is (points, roots), the roots of the other rows being
    their starts.
    """
    starts = step_column(0.0 if start is None else start, len(z))
    # a float step multiplies as a column holding it does, without the broadcast
    step = gamma if isinstance(gamma, float) else step_column(gamma, len(z))
    out = _by_group(_resolvent_kernel, stack, rows, z, step, starts)
    # an empty block of a mixed stack runs no kernel, so no pair comes back
    points, roots = out if isinstance(out, tuple) else (out, starts)
    return points if start is None else (points, roots)


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
    out = kernel(kind, _pack(kind, [spec]), z[None], *args)
    return (out[0] if isinstance(out, tuple) else out)[0]


def apply_operator(op: OperatorSpec, x) -> np.ndarray:
    """Forward evaluation, defined for the single-valued catalog entries."""
    return _one_row(_forward_kernel, op, _checked(op, x))


def resolvent(op: OperatorSpec, gamma: float, z) -> np.ndarray:
    """Solve p + gamma*A(p) = z for the catalog operator A."""
    gamma = _check_gamma(gamma)
    return _one_row(_resolvent_kernel, op, _checked(op, z), gamma)


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

def _prox_root(cost, x, scale, shift, slope, tol, start=0.0):
    """Root t in [0, 1] of h(t) = f(prox_{t*scale*f} x) - shift - t*slope, per row.

    ``cost`` is a :func:`_pack_costs` pack.  With a = q, b = l - q*c and
    den = 1 + t*scale*a, the prox point p has
    g = a*p + b = (a*x + b) / den and h'(t) = -scale * sum(g^2 / den) - slope,
    so h is convex and nonincreasing, and Newton's method climbs for all rows
    together from ``start``, each iterate clipped into [0, 1]: a row whose h
    keeps one sign on [0, 1] lands on the end it points to, and from a start
    right of the root the first step lands left of it, the climb being
    monotone from there.  A zero derivative needs slope = 0 and g = 0, and
    g = 0 then holds for every t, so h is constant and the row steps to the
    end of [0, 1] that h's sign points to.  A row stays live after its first
    step while |step| > ``tol``, after a later one while step > ``tol`` (from
    the left, a step back is roundoff around the root, where |step| could
    oscillate), and only while its t moved, 200 steps at most; a linear row
    (a = 0) stops after its first, exact step.  ``scale``, ``shift``,
    ``slope`` and ``start`` are numbers or (k, 1) columns.  Returns t and the
    prox points at t.
    """
    q, *_, b, curved = cost
    scale, shift, slope, t = (step_column(v, len(x)) for v in (scale, shift, slope, start))
    live, gx = np.ones_like(t, dtype=bool), q * x + b
    for i in range(200):
        ts = t * scale
        den = 1.0 + ts * q
        value = _cost_rows(cost, (x - ts * b) / den) - shift - t * slope
        g = gx / den
        drop = scale * (g * g / den).sum(axis=1, keepdims=True) + slope  # -h'(t)
        step = np.divide(value, drop, out=np.sign(value), where=drop > 0.0)
        t, last = np.where(live, (t + step).clip(0.0, 1.0), t), t
        live &= ((np.abs(step) if i == 0 else step) > tol) & (t != last) & curved
        if not live.any():
            break
    return t, _resolvent_kernel(DiagonalAffine, (q, b), x, t * scale)[0]


def prox_max_nonneg(f: CostSpec, gamma: float, x, tol: float = 1e-12) -> np.ndarray:
    """Prox of ``gamma * max{f(.), 0}`` for a catalog cost f.

    x itself where f(x) < 0, else the prox of gamma*f where f stays positive
    there, else the prox of theta*gamma*f for the theta at which f vanishes.
    """
    gamma = _check_gamma(gamma)
    if not tol > 0:
        raise ToleranceError(f"root tolerance {tol} must be positive")
    return _prox_root(_pack_costs([f]), _checked(f, x)[None], gamma, 0.0, 0.0, tol)[1][0]


def prox_cvar_augmented(
    f: CostSpec, alpha: float, gamma: float, y: float, x, tol: float = 1e-12
):
    """Prox of gamma * [y + max{f(x) - y, 0} / (1 - alpha)] at (y, x).

    Returns the pair (threshold, decisions): with tau = gamma/(1 - alpha),
    (y - gamma + theta*tau, prox_{theta*tau*f} x) for the theta in [0, 1]
    found by the same root search as :func:`prox_max_nonneg`.  ``alpha``,
    ``gamma`` and ``y`` must be numbers, as for :class:`CvarAugmented`.
    """
    op = CvarAugmented(f=f, alpha=alpha)
    gamma = _check_gamma(gamma)
    if not tol > 0:
        raise ToleranceError(f"root tolerance {tol} must be positive")
    z = np.concatenate(([float(_number("y", y))], _checked(f, x)))
    out = _one_row(_resolvent_kernel, op, z, gamma, 0.0, tol)
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
    _check_gamma(gamma)
    require_composite([_kind(op)], [_kind(cs)])
    return project_constraint(cs, resolvent(op, gamma, z))
