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

import functools
import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import Union, get_args

import numpy as np

from .errors import (
    BadAlpha,
    ConfigError,
    DimensionMismatch,
    NonPositiveGamma,
    UnsupportedComposite,
    ValidationError,
)

# sentinel for an unbounded box side; clamping against it is a no-op
UNBOUNDED = float(np.finfo(np.float64).max)
# the prox root search stops once a Newton step is no larger than this
ROOT_TOL = 1e-12


_setfield = object.__setattr__


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


# ---------------------------------------------------------------------------
# input rules: every number, integer and step the package takes is read by
# number_list (or _number), integers or check_step
# ---------------------------------------------------------------------------

_FLOAT_LIMIT = 2**1024 - 2**970  # the least integer that float() rounds past the largest float


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def number_list(values: list, refuse, fill=None) -> np.ndarray:
    """The flat list ``values`` as one float array, once each entry is a number.

    A number is an :func:`_is_integer` integer or a float, numpy's included,
    or a 0-d array of one.  The first other entry j, or an integer beyond
    float range, raises ``refuse(j, got)``.  ``None`` entries become
    ``fill`` when it is given.
    """
    plain = {int, float} if fill is None else {int, float, type(None)}  # json's number types
    kinds = set(map(type, values))
    if not kinds <= plain:
        for j, v in enumerate(values):
            if isinstance(v, np.ndarray) and v.ndim == 0 and v.dtype.kind in "iuf":
                continue
            if type(v) not in plain and not (_is_integer(v) or isinstance(v, np.floating)):
                raise refuse(j, f"got {v!r}")
    if type(None) in kinds:
        values = [fill if v is None else v for v in values]
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        j = next(j for j, v in enumerate(values) if abs(v) >= _FLOAT_LIMIT)
        raise refuse(j, "got an integer beyond float range") from None


def _number(name: str, value, max_ndim: int = 0, kinds: str = "a number") -> np.ndarray:
    """``value`` as a float array of at most ``max_ndim`` dimensions, its entries numbers.

    Anything else (a string, None, a bool also inside a list, a complex or ragged
    value, an integer beyond float range) raises ConfigError: ``name`` must be ``kinds``.
    """
    def refuse(j, got):
        return ConfigError(f"{name} must be {kinds}, {got}")

    try:
        array = np.asarray(value)
    except ValueError:  # ragged nesting
        raise refuse(0, f"got {value!r}") from None
    if array.ndim > max_ndim or array.dtype.kind not in "iufO":
        raise refuse(0, f"got {value!r}")
    if array.dtype.kind == "O" or (array.ndim and not isinstance(value, np.ndarray)):
        # numpy reads a list's bools as numbers and an integer beyond int64 as an object
        raw = array if array.dtype.kind == "O" else np.array(value, dtype=object)
        array = number_list(raw.ravel().tolist(), refuse).reshape(array.shape)
    return np.asarray(array, dtype=float)


def integers(name: str, values, least: int, below=np.inf, error=ConfigError, kinds="integers"):
    """``values``, read once, once each entry is an :func:`_is_integer` integer in [least, below).

    A 1-d integer array comes back as is, anything else as a list of Python
    ints.  Any other value or entry raises ``error``: ``name`` must be ``kinds``.
    """
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu":
        low, high = values.min(initial=least), values.max(initial=least)
    elif np.iterable(values):
        # tolist gives an array's entries as Python numbers, or as lists past 1-d
        values = values.tolist() if isinstance(values, np.ndarray) else list(values)
        if set(map(type, values)) - {int}:
            for v in values:
                if not _is_integer(v):
                    raise error(f"{name} must be {kinds}, got {v!r}")
            values = list(map(int, values))
        low, high = min(values, default=least), max(values, default=least)
    else:
        raise error(f"{name} must be {kinds}, got {values!r}")
    if len(values) and not least <= low <= high < below:
        v = next(v for v in values if not least <= v < below)
        raise error(f"{name} must be {kinds} in [{least}, {below}), got {v}")
    return values


def check_step(name: str, value, zero: bool = False) -> float:
    """``value`` as a step: one number, read by :func:`_number`, as a float.

    A step that is not > 0 (>= 0 with ``zero``), NaN included, raises
    NonPositiveGamma for ``gamma`` and ConfigError for other steps, and
    +inf raises ConfigError.
    """
    step = float(_number(name, value))
    if not (step >= 0 if zero else step > 0):
        error = NonPositiveGamma if name == "gamma" else ConfigError
        raise error(f"{name} must be {'nonnegative' if zero else 'positive'}, got {step}")
    elif step == np.inf:
        raise ConfigError(f"{name} must be finite, got inf")
    return step


def check_alpha(alpha) -> float:
    """alpha as a float, once it is a number (ConfigError) in (0, 1) (BadAlpha)."""
    alpha = float(_number("alpha", alpha))
    if not 0.0 < alpha < 1.0:
        raise BadAlpha(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def _vec(x, name: str) -> np.ndarray:
    arr = _number(name, x, np.inf, "an array of numbers")
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
        fields = settle_rows(cls, fields, lambda row: name)
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


def _cost_pack(cls, fields: dict) -> tuple:
    """(q, c, l, r, b, curved) rows of ``cls`` costs, f(x) = 0.5*sum q (x - c)^2 + <l, x> + r.

    Affine has q = 0, c = 0 and l = c; SeparableQuadratic has l = 0.  The
    prox of s*f is the diagonal-affine resolvent with a = q and b = l - q*c;
    curved marks the rows with some q > 0, whose prox root search takes
    more than one step.
    """
    if cls not in (Affine, SeparableQuadratic):
        raise TypeError(f"unknown cost spec {_kind_name(cls)}")
    zero = np.zeros_like(fields["c"])
    q, c, l = (zero, zero, fields["c"]) if cls is Affine else (fields["q"], fields["c"], zero)
    return q, c, l, fields["r"], l - q * c, q.any(axis=1, keepdims=True)


def _pack_costs(costs) -> tuple:
    """The :func:`_cost_pack` of ``costs``, one row each."""
    parts = [(members, _cost_pack(cls, fields)) for cls, members, fields in _spec_groups(costs)]
    return _merge(parts)[1]


def _cost_rows(cost, x) -> np.ndarray:
    """Values of the packed costs at the rows of x, as a (k, 1) column."""
    q, c, l, r, *_ = cost
    return (0.5 * (q * (x - c) ** 2).sum(axis=1, keepdims=True) + _row_dot(l, x)) + r


def cost_value(f: CostSpec, x) -> float:
    x = _checked(f, x, CostSpec, "f")
    return float(_cost_rows(_pack_costs([f]), x[None])[0, 0])


def cost_prox(f: CostSpec, gamma: float, x) -> np.ndarray:
    """argmin_p gamma*f(p) + 0.5*||p - x||^2; gamma = 0 gives x back."""
    gamma = check_step("gamma", gamma, zero=True)
    x = _checked(f, x, CostSpec, "f")
    q, *_, b, _ = _pack_costs([f])
    return _resolvent_kernel(DiagonalAffine, (q, b), x[None], gamma)[0][0]


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
        idx = integers("coordinate indices", self.indices, 0, error=ValidationError)
        idx = tuple(map(int, idx))
        if len(set(idx)) != len(idx):
            raise ValidationError("coordinate indices must be distinct")
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


def _packs_finite(name: str, message: str, packed) -> tuple:
    """A rule on the rows whose ``packed(fields)``, computed as the stack computes it, is not finite."""
    def test(f):
        with np.errstate(over="ignore", invalid="ignore"):
            return ~np.isfinite(packed(f)).all(axis=1)

    return name, message, test


def _nonzero_normal(kind: str) -> tuple:
    return "normal", f"{kind} normal must be nonzero", lambda f: ~(f["normal"] != 0).any(axis=1)


_QUADRATIC = (
    _nonnegative("q", "quadratic weights must be nonnegative"),
    _packs_finite("c", "q * c must be finite", lambda f: f["q"] * f["c"]),
)
_NORMAL_SQUARE = _packs_finite(
    "normal", "squared norm must be finite", lambda f: _row_dot(f["normal"], f["normal"])
)

# spec class -> (vector fields, scalar fields, rules).  Every entry must be
# finite, once a Box's infinite sides are clamped; each further rule is
# (field, message, test), where test maps the stacked fields to a (k,) mask,
# True at the rows that break the rule.
RULES = {
    Affine: (("c",), ("r",), ()),
    SeparableQuadratic: (("q", "c"), ("r",), _QUADRATIC),
    DiagonalAffine: (("a", "b"), (), (_nonnegative("a", "diagonal coefficients must be nonnegative"),)),
    GradSeparableQuadratic: (("q", "c"), (), _QUADRATIC),
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
    Halfspace: (("normal",), ("offset",), (_nonzero_normal("halfspace"), _NORMAL_SQUARE)),
    Hyperplane: (("normal",), ("offset",), (_nonzero_normal("hyperplane"), _NORMAL_SQUARE)),
}

# attrgetter reads the width in C: Problem checks every spec's dim
for _cls, (_vectors, _, _) in RULES.items():
    _cls.dim = property(attrgetter(_vectors[0] + ".size"))


def settle_rows(cls, fields: dict, label) -> dict:
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


def specs_of(groups) -> tuple:
    """One spec per scenario from settled ``(cls, members, fields)`` groups, not checked again.

    A spec holds read-only row views for its vectors, floats for its scalars.
    """
    specs = [None] * sum(len(members) for _, members, _ in groups)
    for cls, members, fields in groups:
        vectors, scalars, _ = RULES.get(cls, ((), (), ()))
        columns = {name: _frozen(fields[name]) for name in vectors}
        columns.update({name: fields[name][:, 0].tolist() for name in scalars})
        made = list(map(object.__new__, itertools.repeat(cls, len(members))))
        for name, column in (columns or fields).items():  # Coordinates: their index tuples
            list(map(_setfield, made, itertools.repeat(name), column))
        for i, spec in zip(members.tolist(), made):
            specs[i] = spec
    return tuple(specs)


# ---------------------------------------------------------------------------
# stacked kernels
# ---------------------------------------------------------------------------
#
# Each kernel takes a group kind, the stacked coefficients of the group's
# rows and a (k, d) block of points, one row per member.  Vectors stack
# into (k, d) arrays, scalars into (k, 1) columns.  A step size is a
# float; inside the CVaR root search it is such a column, which numpy
# broadcasts the same way.

def _key(spec):
    """A spec's class; for a RealCross or CvarAugmented, (that class, key of what it wraps)."""
    if isinstance(spec, RealCross):
        return (RealCross, _key(spec.base))
    return (CvarAugmented, type(spec.f)) if isinstance(spec, CvarAugmented) else type(spec)


def _kind(key):
    """The group of a class key.

    GradSeparableQuadratic groups with DiagonalAffine (a = q, b = -q * c), a
    RealCross by its base, and a CvarAugmented whatever its cost.
    """
    if isinstance(key, tuple):
        return (RealCross, _kind(key[1])) if key[0] is RealCross else CvarAugmented
    return DiagonalAffine if key is GradSeparableQuadratic else key


def _kind_name(kind) -> str:
    return kind[0].__name__ if isinstance(kind, tuple) else kind.__name__


def _rows(specs, name: str) -> np.ndarray:
    return np.array([getattr(s, name) for s in specs], dtype=float)


def _fields(key, specs) -> dict:
    """The stacked fields of specs of one class key, a wrapper's those of what it wraps."""
    if isinstance(key, tuple):
        wrapper, inner = key
        fields = _fields(inner, [s.base if wrapper is RealCross else s.f for s in specs])
        if wrapper is CvarAugmented:
            fields["alpha"] = _rows(specs, "alpha")[:, None]
        return fields
    if key is Coordinates:
        return {"indices": [s.indices for s in specs]}
    vectors, scalars, _ = RULES.get(key, ((), (), ()))
    return {**{f: _rows(specs, f) for f in vectors}, **{f: _rows(specs, f)[:, None] for f in scalars}}


def _spec_groups(specs) -> list:
    """``(key, members, fields)`` per class key of ``specs``, in order of first appearance."""
    by_key: dict = {}
    for i, spec in enumerate(specs):
        by_key.setdefault(_key(spec), []).append(i)
    return [(key, np.array(m), _fields(key, [specs[i] for i in m])) for key, m in by_key.items()]


def _coef(key, fields) -> tuple:
    """The coefficient rows of a class group, as the kernel of its group reads them."""
    if isinstance(key, tuple):
        wrapper, inner = key
        if wrapper is RealCross:
            return _coef(inner, fields)
        return (fields["alpha"],) + _cost_pack(inner, fields)
    if key is GradSeparableQuadratic:
        return fields["q"], fields["c"] * -fields["q"]  # q * (x - c) has b = -q * c
    vectors, scalars, _ = RULES.get(key, ((), (), ()))
    coef = tuple(fields[name] for name in vectors + scalars)
    if key in (Halfspace, Hyperplane):
        coef += (_row_dot(coef[0], coef[0]),)  # the squared normals, as _NORMAL_SQUARE reads them
    return coef


def _merge(parts) -> tuple:
    """``(members, coef)`` parts as one, rows by ascending member."""
    if len(parts) == 1:
        return parts[0]
    members = np.concatenate([m for m, _ in parts])
    order = members.argsort(kind="stable")
    columns = zip(*(coef for _, coef in parts))
    return members[order], tuple(np.concatenate(c)[order] for c in columns)


def _scaled(step, v):
    """``step * v``, or v itself at a unit float step, where the product is v bit for bit."""
    return v if isinstance(step, float) and step == 1.0 else step * v


def _resolvent_kernel(kind, coef, z, gamma, start=0.0):
    """Resolvent points of the rows and their CVaR prox roots, as a pair.

    Each CvarAugmented row's root search starts at its entry of ``start``, a
    (k, 1) column in [0, 1]; the other rows hand their start back as root.
    """
    if kind is DiagonalAffine:
        a, b = coef
        return (z - _scaled(gamma, b)) / (1.0 + _scaled(gamma, a)), start
    if kind is CvarAugmented:
        # with tau = gamma/(1 - alpha), the prox at (y, x) is (y - gamma + t*tau,
        # prox_{t*tau*f} x) for the root t of f(prox_{t*tau*f} x) - (y - gamma) - t*tau
        alpha, *cost = coef
        tau = gamma / (1.0 - alpha)
        shift = z[:, :1] - gamma
        t, p = _prox_root(cost, z[:, 1:], tau, shift, tau, ROOT_TOL, start)
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

    Built once per problem from one spec per scenario, or from the class
    groups of :meth:`from_groups`, which ``sources`` keeps.  ``groups`` lists
    ``(kind, members, coef)`` in order of first appearance: the kind (the
    spec type; RealCross groups by its base too), the member scenarios
    ascending, and the coefficient arrays with one row per member.
    """

    def __init__(self, specs):
        self.specs = tuple(specs)
        self._settle(_spec_groups(self.specs))

    @classmethod
    def from_groups(cls, groups) -> "Stack":
        """The stack of settled ``(cls, members, fields)`` groups that hold each scenario once."""
        stack = cls.__new__(cls)
        stack._settle(groups)
        return stack

    def _settle(self, groups):
        self.sources = groups
        by_kind: dict = {}
        for key, members, fields in groups:
            by_kind.setdefault(_kind(key), []).append((members, _coef(key, fields)))
        n = sum(len(members) for _, members, _ in groups)
        self.group_of = np.empty(n, dtype=int)
        self.slot_of = np.empty(n, dtype=int)
        self.groups = []
        for g, (kind, parts) in enumerate(by_kind.items()):
            members, coef = _merge(parts)
            self.group_of[members] = g
            self.slot_of[members] = np.arange(members.size)
            self.groups.append((kind, members, coef))

    @functools.cached_property
    def specs(self) -> tuple:
        """The spec tuple, built from ``sources`` when first read."""
        return specs_of(self.sources)


def _by_group(kernel, stack: Stack, rows, z, *columns):
    """Run ``kernel`` on each group's rows of z and of the per-row columns.

    ``rows`` holds the scenarios of z's rows in any order, None meaning all
    of them in order.  A kernel may return a pair, its rows and one more
    per-row block; both are then assembled in the order of z's rows.  A
    stack of one group hands z and the columns to its kernel whole; a float
    goes whole to every group.
    """
    z = np.asarray(z, dtype=float)
    if len(stack.groups) == 1:
        kind, _, coef = stack.groups[0]
        return kernel(kind, _take(coef, rows), z, *columns)
    out, more = np.empty_like(z), None
    group = None if rows is None else stack.group_of[rows]
    for g, (kind, pos, coef) in enumerate(stack.groups):
        if rows is not None:
            pos = np.flatnonzero(group == g)
            if not pos.size:
                continue
            coef = _take(coef, stack.slot_of[rows[pos]])
        picked = (c if isinstance(c, float) else c.take(pos, axis=0) for c in columns)
        part = kernel(kind, coef, z.take(pos, axis=0), *picked)
        if isinstance(part, tuple):
            part, extra = part
            if more is None:
                more = np.empty((len(z),) + extra.shape[1:])
            more[pos] = extra
        out[pos] = part
    return out if more is None else (out, more)


def resolvent_rows(stack: Stack, gamma: float, z, rows=None, start=0.0) -> tuple:
    """Resolvents of the scenarios ``rows`` at the rows of z, all at the step ``gamma``.

    Returns (points, roots).  The prox root search of a CvarAugmented row
    starts at its entry of ``start``, a number or a (k, 1) column in
    [0, 1]; the roots of the other rows are their starts.
    """
    starts = start if isinstance(start, np.ndarray) else np.full((len(z), 1), float(start))
    out = _by_group(_resolvent_kernel, stack, rows, z, gamma, starts)
    # an empty block of a mixed stack runs no kernel, so no pair comes back
    return out if isinstance(out, tuple) else (out, starts)


def forward_rows(stack: Stack, x, rows=None) -> np.ndarray:
    """Forward maps of the scenarios ``rows`` at the rows of x."""
    return _by_group(_forward_kernel, stack, rows, x)


def project_constraint_rows(stack: Stack, z, rows=None) -> np.ndarray:
    """Projections of the rows of z onto the constraint sets of ``rows``."""
    return _by_group(_project_kernel, stack, rows, z)


def axis_mask(subspaces: Stack, dim: int) -> np.ndarray:
    """(N, dim) mask of the axes that span each subspace, which its projector keeps.

    The lowest scenario with an index past ``dim`` raises DimensionMismatch.
    """
    mask = np.empty((len(subspaces.group_of), dim), dtype=bool)
    for key, members, fields in subspaces.sources:
        if key not in (Full, Zero, Coordinates):
            raise TypeError(f"unknown subspace spec {_kind_name(key)}")
        mask[members] = key is Full
        if key is Coordinates:
            indices = fields["indices"]
            # Python ints: an index past int64 is refused, not overflowed
            flat = list(itertools.chain.from_iterable(indices))
            integers("coordinate indices", flat, 0, dim, DimensionMismatch)
            mask[np.repeat(members, list(map(len, indices))), flat] = True
    return _frozen(mask)


def broken_range_conditions(constraints: Stack, subspaces: Stack, mask) -> np.ndarray:
    """(N,) bool: the scenarios whose projector may move a point out of their subspace.

    A conservative test per group: ran(Id - proj) lies in the subspace when
    it is Full, the set the whole space (also as RealCross's base), a Box's
    unbounded axes those the Coordinates leave out, or a Halfspace's or
    Hyperplane's normal in their span.
    """
    shapes = np.array([(kind is Full, kind is Coordinates) for kind, _, _ in subspaces.groups])
    full, coordinates = shapes[subspaces.group_of].T
    broken = np.zeros(len(full), dtype=bool)
    for kind, members, coef in constraints.groups:
        slots = np.flatnonzero(~full[members])
        if kind in (WholeSpace, (RealCross, WholeSpace)) or not slots.size:
            continue
        rows = members[slots]
        ok = coordinates[rows]
        if kind is Box:
            lo, hi = (c[slots] for c in coef)
            ok &= (((lo <= -UNBOUNDED) & (hi >= UNBOUNDED)) != mask[rows]).all(axis=1)
        elif kind in (Halfspace, Hyperplane):
            ok &= ~((coef[0][slots] != 0) & ~mask[rows]).any(axis=1)
        else:
            ok[:] = False
        broken[rows] = ~ok
    return broken


def validate_range_condition(cs: ConstraintSpec, us: SubspaceSpec) -> bool:
    """Whether the geometry guarantees that the projector moves points inside ``us``.

    The test of :func:`broken_range_conditions` on one pair.  A pair of
    other roles, or an axis past the set's dimension, fails it unless the
    subspace is Full or the set the whole space.
    """
    if _kind(_key(cs)) in (WholeSpace, (RealCross, WholeSpace)) or isinstance(us, Full):
        return True
    indices = getattr(us, "indices", ())
    if cs.dim is None or not isinstance(us, (Zero, Coordinates)) or max(indices, default=-1) >= cs.dim:
        return False
    subspaces = Stack([us])
    return not broken_range_conditions(Stack([cs]), subspaces, axis_mask(subspaces, cs.dim))[0]


def apply_operator(op: OperatorSpec, x) -> np.ndarray:
    """Forward evaluation, defined for the single-valued catalog entries."""
    x = _checked(op, x, Union[DiagonalAffine, GradSeparableQuadratic], "op")
    return forward_rows(Stack([op]), x[None])[0]


def resolvent(op: OperatorSpec, gamma: float, z) -> np.ndarray:
    """Solve p + gamma*A(p) = z for the catalog operator A."""
    gamma = check_step("gamma", gamma)
    z = _checked(op, z, OperatorSpec, "op")
    return resolvent_rows(Stack([op]), gamma, z[None])[0][0]


def _checked(spec, z, role, name: str) -> np.ndarray:
    """z as a float array, once ``spec`` (named ``name``) is a ``role`` and z holds numbers that fit it."""
    check_roles((spec,), role, name)
    z = _number("point", z, np.inf, "an array of numbers")
    if spec.dim is not None and z.size != spec.dim:
        raise DimensionMismatch(f"{type(spec).__name__} expects dim {spec.dim}, got {z.size}")
    if isinstance(spec, RealCross) and z.size < 1:
        raise DimensionMismatch("RealCross needs at least one coordinate")
    return z


def project_constraint(cs: ConstraintSpec, z) -> np.ndarray:
    """Euclidean projection onto the constraint set."""
    return project_constraint_rows(Stack([cs]), _checked(cs, z, ConstraintSpec, "cs")[None])[0]


def project_subspace(us: SubspaceSpec, z) -> np.ndarray:
    """Orthogonal projection onto the activation subspace."""
    z = _checked(us, z, SubspaceSpec, "us")
    return np.where(axis_mask(Stack([us]), z.size)[0], z, 0.0)


# ---------------------------------------------------------------------------
# proximity operators for the risk-averse pipeline
# ---------------------------------------------------------------------------

def _prox_root(cost, x, scale, shift, slope, tol=ROOT_TOL, start=0.0):
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
    (a = 0) stops after its first, exact step.  ``scale``, ``shift`` and
    ``slope`` are numbers or (k, 1) columns, which numpy broadcasts;
    ``start``, a number or a (k, 1) column, becomes the column t.  Returns
    t and the prox points at t.
    """
    q, *_, b, curved = cost
    t = start if isinstance(start, np.ndarray) else np.full((len(x), 1), float(start))
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


def prox_max_nonneg(f: CostSpec, gamma: float, x) -> np.ndarray:
    """Prox of ``gamma * max{f(.), 0}`` for a catalog cost f.

    x itself where f(x) < 0, else the prox of gamma*f where f stays positive
    there, else the prox of theta*gamma*f for the theta at which f vanishes.
    """
    gamma = check_step("gamma", gamma)
    x = _checked(f, x, CostSpec, "f")
    return _prox_root(_pack_costs([f]), x[None], gamma, 0.0, 0.0)[1][0]


def prox_cvar_augmented(f: CostSpec, alpha: float, gamma: float, y: float, x):
    """Prox of gamma * [y + max{f(x) - y, 0} / (1 - alpha)] at (y, x).

    Returns the pair (threshold, decisions): with tau = gamma/(1 - alpha),
    (y - gamma + theta*tau, prox_{theta*tau*f} x) for the theta in [0, 1]
    found by the same root search as :func:`prox_max_nonneg`.  ``alpha``,
    ``gamma`` and ``y`` must be numbers, as for :class:`CvarAugmented`.
    """
    op = CvarAugmented(f=f, alpha=alpha)
    gamma = check_step("gamma", gamma)
    z = np.concatenate(([float(_number("y", y))], _checked(f, x, CostSpec, "f")))
    out = resolvent_rows(Stack([op]), gamma, z[None])[0][0]
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
    gamma = check_step("gamma", gamma)
    require_composite([_kind(_key(op))], [_kind(_key(cs))])
    return project_constraint(cs, resolvent(op, gamma, z))
