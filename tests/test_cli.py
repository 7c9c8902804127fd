import csv
import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from scensplit import cli
from scensplit import operators as ops
from scensplit.cli import (
    TRACE_HEADER,
    load_problem_file,
    main,
    write_cvar_solution_file,
    write_solution_file,
    write_trace_csv,
)
from scensplit.cvar import CvarProblem, augment, solve_cvar
from scensplit.errors import DimensionMismatch, ScensplitError, ShapeMismatch, ValidationError
from scensplit.solver import (
    Problem,
    SeededRandom,
    Solution,
    SolverConfig,
    SolveStatus,
    kkt_residual,
    progressive_hedging_solve,
    solve,
    solve_reduced,
)
from scensplit.tree import build_tree


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def quad_box_doc():
    return {
        "stages": [1, 1],
        "scenarios": [
            {"labels": [0, 0], "probability": 0.5},
            {"labels": [1, 0], "probability": 0.5},
        ],
        "operators": [
            {"type": "grad_separable_quadratic", "q": [1.0, 1.0], "c": [0.0, 0.2]},
            {"type": "grad_separable_quadratic", "q": [1.0, 1.0], "c": [1.0, 0.8]},
        ],
        "constraints": [
            {"type": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            {"type": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        ],
    }


def unconstrained_doc():
    doc = quad_box_doc()
    del doc["constraints"]
    return doc


def ball_doc():
    doc = quad_box_doc()
    doc["constraints"] = [
        {"type": "ball", "center": [0.0, 0.0], "radius": 2.0},
        {"type": "ball", "center": [0.0, 0.0], "radius": 2.0},
    ]
    return doc


def cvar_doc():
    return {
        "stages": [1],
        "scenarios": [
            {"labels": [0], "probability": 0.7},
            {"labels": [1], "probability": 0.3},
        ],
        "cvar": {
            "alpha": 0.5,
            "costs": [
                {"type": "separable_quadratic", "q": [1.0], "c": [0.3]},
                {"type": "separable_quadratic", "q": [1.0], "c": [0.3]},
            ],
        },
    }


# --- validate ---

def test_validate_summary(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", quad_box_doc())
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "scenarios: 2" in out
    assert "stages: 2" in out
    assert "total dimension: 2" in out
    assert "stage dims: 1 1" in out
    assert "class counts: 1 2" in out
    assert "range condition: ok (2/2 pairs)" in out
    assert out.rstrip().endswith("valid")


def test_validate_cvar_summary(tmp_path, capsys):
    path = write_json(tmp_path / "c.json", cvar_doc())
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "cvar: alpha=0.5" in out
    assert "valid" in out


def test_validate_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [b"[" + b"1" * 5000 + b"]", b'{"stages": [1], "scenarios": "\xff"}', b"[" * 100000 + b"]" * 100000],
    ids=["integer over the digit limit", "bad utf-8", "deep nesting"],
)
def test_validate_unreadable_json(tmp_path, capsys, text):
    # these used to escape as ValueError and RecursionError tracebacks
    path = tmp_path / "p.json"
    path.write_bytes(text)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError:")
    assert "Traceback" not in err


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_bad_mass(tmp_path, capsys):
    doc = quad_box_doc()
    doc["scenarios"][0]["probability"] = 0.9
    path = write_json(tmp_path / "p.json", doc)
    assert main(["validate", path]) == 1
    assert "BadProbabilityMass" in capsys.readouterr().err


def test_validate_unknown_keys(tmp_path, capsys):
    doc = quad_box_doc()
    doc["solver_hint"] = "fast"
    path = write_json(tmp_path / "p.json", doc)
    assert main(["validate", path]) == 1
    assert "solver_hint" in capsys.readouterr().err

    doc = quad_box_doc()
    doc["operators"][0]["warm_start"] = True
    path = write_json(tmp_path / "p2.json", doc)
    assert main(["validate", path]) == 1
    assert "warm_start" in capsys.readouterr().err


def test_validate_operator_cvar_exclusive(tmp_path, capsys):
    doc = quad_box_doc()
    doc["cvar"] = cvar_doc()["cvar"]
    path = write_json(tmp_path / "both.json", doc)
    assert main(["validate", path]) == 1
    assert "not both" in capsys.readouterr().err

    doc = quad_box_doc()
    del doc["operators"]
    path = write_json(tmp_path / "neither.json", doc)
    assert main(["validate", path]) == 1
    assert "one of" in capsys.readouterr().err


def test_validate_cvar_with_subspaces(tmp_path, capsys):
    # zero subspaces next to boxes, which an equilibrium file refuses for
    # the range condition; a risk file refuses the section itself
    doc = cvar_doc()
    doc["constraints"] = [{"type": "box", "lo": [0.0], "hi": [1.0]}] * 2
    doc["subspaces"] = [{"type": "zero"}, {"type": "zero"}]
    path = write_json(tmp_path / "c.json", doc)
    assert main(["validate", path]) == 1
    assert "ValidationError: subspaces: a 'cvar' file takes no subspaces" in capsys.readouterr().err
    # refused before the section is parsed
    doc["subspaces"] = "not a list"
    path = write_json(tmp_path / "c2.json", doc)
    assert main(["validate", path]) == 1
    assert "takes no subspaces" in capsys.readouterr().err


def test_validate_range_condition_violation(tmp_path, capsys):
    doc = ball_doc()
    doc["subspaces"] = [{"type": "zero"}, {"type": "zero"}]
    path = write_json(tmp_path / "p.json", doc)
    assert main(["validate", path]) == 1
    assert "range condition violated" in capsys.readouterr().err


def test_validate_wrong_entry_count(tmp_path, capsys):
    doc = quad_box_doc()
    doc["operators"] = doc["operators"][:1]
    path = write_json(tmp_path / "p.json", doc)
    assert main(["validate", path]) == 1
    assert "expected a list with 2 entries" in capsys.readouterr().err


def test_validate_string_labels(tmp_path, capsys):
    doc = cvar_doc()
    doc["scenarios"][0]["labels"] = ["low"]
    doc["scenarios"][1]["labels"] = ["high"]
    path = write_json(tmp_path / "c.json", doc)
    assert main(["validate", path]) == 0
    assert "valid" in capsys.readouterr().out


def test_box_null_bounds_parse(tmp_path):
    doc = quad_box_doc()
    doc["constraints"][0] = {"type": "box", "lo": [None, 0.0], "hi": [None, 1.0]}
    path = write_json(tmp_path / "p.json", doc)
    bundle = load_problem_file(path)
    box = bundle.problem.constraints[0]
    assert box.lo[1] == 0.0 and box.hi[1] == 1.0
    assert box.lo[0] < -1e30 and box.hi[0] > 1e30


def every_type_doc():
    # one record of every operator, constraint and subspace type; the
    # halfspace's normal lies in its coordinate subspace, as the range
    # condition asks
    return {
        "stages": [1, 1],
        "scenarios": [
            {"labels": [0, 0], "probability": 0.25},
            {"labels": [0, 1], "probability": 0.25},
            {"labels": [1, 0], "probability": 0.25},
            {"labels": [1, 1], "probability": 0.125},
            {"labels": [1, 2], "probability": 0.125},
        ],
        "operators": [
            {"type": "diagonal_affine", "a": [1.0, 0.5], "b": [-0.2, 3]},
            {"type": "grad_separable_quadratic", "q": [2, 1.0], "c": [0.5, -1.0]},
            {"type": "diagonal_affine", "a": [0.0, 0.0], "b": [0.0, 0.0]},
            {"type": "grad_separable_quadratic", "q": [1.0, 1.0], "c": [0.0, 0.0]},
            {"type": "diagonal_affine", "a": [4.0, 1.0], "b": [1.0, 1.0]},
        ],
        "constraints": [
            {"type": "whole_space"},
            {"type": "box", "lo": [None, 0.0], "hi": [1.5, None]},
            {"type": "ball", "center": [0.5, -0.5], "radius": 2},
            {"type": "halfspace", "normal": [1.0, 0.0], "offset": 0.25},
            {"type": "hyperplane", "normal": [1.0, -2.0], "offset": -1},
        ],
        "subspaces": [
            {"type": "zero"},
            {"type": "full"},
            {"type": "full"},
            {"type": "coordinates", "indices": [0]},
            {"type": "full"},
        ],
    }


def risk_every_type_doc():
    return {
        "stages": [1],
        "scenarios": [{"labels": [i], "probability": 0.25} for i in range(4)],
        "cvar": {
            "alpha": 0.75,
            "costs": [
                {"type": "affine", "c": [1.0]},
                {"type": "affine", "c": [-2], "r": 0.5},
                {"type": "separable_quadratic", "q": [1.0], "c": [0.3]},
                {"type": "separable_quadratic", "q": [3], "c": [-1.0], "r": -2},
            ],
        },
        "constraints": [
            {"type": "box", "lo": [0.0], "hi": [1.0]},
            {"type": "whole_space"},
            {"type": "whole_space"},
            {"type": "halfspace", "normal": [1.0], "offset": 2.0},
        ],
    }


def assert_same_spec(got, want):
    assert type(got) is type(want)
    for f in dataclasses.fields(want):
        g, w = getattr(got, f.name), getattr(want, f.name)
        assert type(g) is type(w), f.name
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and g.shape == w.shape, f.name
            assert_array_equal(_bits(g), _bits(w), err_msg=f.name)
        else:
            assert repr(g) == repr(w), f.name


def test_parse_every_catalog_type(tmp_path):
    inf = float("inf")
    bundle = load_problem_file(write_json(tmp_path / "p.json", every_type_doc()))
    p = bundle.problem
    want_ops = [
        ops.DiagonalAffine(a=[1.0, 0.5], b=[-0.2, 3.0]),
        ops.GradSeparableQuadratic(q=[2.0, 1.0], c=[0.5, -1.0]),
        ops.DiagonalAffine(a=[0.0, 0.0], b=[0.0, 0.0]),
        ops.GradSeparableQuadratic(q=[1.0, 1.0], c=[0.0, 0.0]),
        ops.DiagonalAffine(a=[4.0, 1.0], b=[1.0, 1.0]),
    ]
    want_cons = [
        ops.WholeSpace(),
        ops.Box(lo=[-inf, 0.0], hi=[1.5, inf]),
        ops.Ball(center=[0.5, -0.5], radius=2.0),
        ops.Halfspace(normal=[1.0, 0.0], offset=0.25),
        ops.Hyperplane(normal=[1.0, -2.0], offset=-1.0),
    ]
    want_subs = [ops.Zero(), ops.Full(), ops.Full(), ops.Coordinates(indices=(0,)), ops.Full()]
    for got, want in zip(p.operators + p.constraints + p.subspaces, want_ops + want_cons + want_subs):
        assert_same_spec(got, want)
    assert bundle.cvar is None

    bundle = load_problem_file(write_json(tmp_path / "r.json", risk_every_type_doc()))
    cp = bundle.cvar
    assert bundle.problem is None
    assert cp.alpha == 0.75
    want_costs = [
        ops.Affine(c=[1.0], r=0.0),
        ops.Affine(c=[-2.0], r=0.5),
        ops.SeparableQuadratic(q=[1.0], c=[0.3], r=0.0),
        ops.SeparableQuadratic(q=[3.0], c=[-1.0], r=-2.0),
    ]
    want_cons = [
        ops.Box(lo=[0.0], hi=[1.0]),
        ops.WholeSpace(),
        ops.WholeSpace(),
        ops.Halfspace(normal=[1.0], offset=2.0),
    ]
    for got, want in zip(cp.costs + cp.constraints, want_costs + want_cons):
        assert_same_spec(got, want)


def _edit(doc, section, i, record):
    seq = doc["cvar"]["costs"] if section == "costs" else doc[section]
    seq[i] = record


BAD_RECORDS = [
    ("missing field", "operators", 0, {"type": "diagonal_affine", "a": [1.0, 0.5]}),
    ("missing field", "constraints", 2, {"type": "ball", "center": [0.0, 0.0]}),
    ("missing field", "costs", 0, {"type": "affine", "r": 1.0}),
    ("bool in list", "operators", 1, {"type": "grad_separable_quadratic", "q": [True, 1.0], "c": [0.0, 0.0]}),
    ("bool in list", "constraints", 1, {"type": "box", "lo": [0.0, False], "hi": [1.0, 1.0]}),
    ("bool scalar", "constraints", 3, {"type": "halfspace", "normal": [1.0, 0.0], "offset": True}),
    ("bool in list", "costs", 2, {"type": "separable_quadratic", "q": [1.0], "c": [True]}),
    ("float indices", "subspaces", 3, {"type": "coordinates", "indices": [0.0]}),
    ("bool indices", "subspaces", 3, {"type": "coordinates", "indices": [True]}),
    ("unknown type", "operators", 0, {"type": "cone", "a": [1.0, 0.5]}),
    ("unknown type", "constraints", 0, {"type": "cone"}),
    ("unknown type", "subspaces", 0, {"type": "half"}),
    ("unknown type", "costs", 0, {"type": "quadratic", "c": [1.0]}),
    ("list type", "operators", 0, {"type": ["diagonal_affine"], "a": [1.0, 0.5], "b": [0.0, 0.0]}),
    ("list type", "constraints", 0, {"type": ["box"]}),
    ("list type", "subspaces", 0, {"type": ["zero"]}),
    ("list type", "costs", 0, {"type": ["affine"], "c": [1.0]}),
    ("no type", "constraints", 0, {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}),
    ("not an object", "operators", 0, ["diagonal_affine"]),
    ("not an object", "costs", 0, "affine"),
]


@pytest.mark.parametrize(
    "section, i, record", [case[1:] for case in BAD_RECORDS], ids=[case[0] for case in BAD_RECORDS]
)
def test_validate_rejects_bad_records(tmp_path, capsys, section, i, record):
    doc = risk_every_type_doc() if section == "costs" else every_type_doc()
    _edit(doc, section, i, record)
    assert main(["validate", write_json(tmp_path / "p.json", doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValidationError:")
    assert "Traceback" not in err


# --- bulk parse against specs built one record at a time ---

SPEC_TYPES = {
    "diagonal_affine": ops.DiagonalAffine,
    "grad_separable_quadratic": ops.GradSeparableQuadratic,
    "whole_space": ops.WholeSpace,
    "box": ops.Box,
    "ball": ops.Ball,
    "halfspace": ops.Halfspace,
    "hyperplane": ops.Hyperplane,
    "full": ops.Full,
    "zero": ops.Zero,
    "coordinates": ops.Coordinates,
    "affine": ops.Affine,
    "separable_quadratic": ops.SeparableQuadratic,
}


def spec_of(rec):
    """The spec of one record, built and checked by its class on its own."""
    fields = {k: v for k, v in rec.items() if k != "type"}
    for side, fill in (("lo", -np.inf), ("hi", np.inf)):
        if side in fields:
            fields[side] = [fill if v is None else v for v in fields[side]]
    if "indices" in fields:
        fields["indices"] = tuple(fields["indices"])
    return SPEC_TYPES[rec["type"]](**fields)


def interleaved_doc(seed, risk=False, n=300):
    # records of every numeric type in a seeded order, some entries ints,
    # some box sides null; the subspaces are full, so any constraint passes
    rng = np.random.default_rng(seed)
    d = 3

    def vec(lo=-2.0, hi=2.0):
        return [int(v) if rng.random() < 0.2 else float(v) for v in rng.uniform(lo, hi, d)]

    def record(kind):
        if kind in ("diagonal_affine", "grad_separable_quadratic", "separable_quadratic"):
            first = "a" if kind == "diagonal_affine" else "q"
            rec = {first: vec(0.0, 3.0), ("b" if first == "a" else "c"): vec()}
        elif kind == "affine":
            rec = {"c": vec()}
        elif kind == "box":
            lo = [None if rng.random() < 0.3 else v for v in vec(-2.0, 0.0)]
            rec = {"lo": lo, "hi": [None if rng.random() < 0.3 else v for v in vec(0.0, 2.0)]}
        elif kind == "ball":
            rec = {"center": vec(), "radius": float(rng.uniform(0.5, 2.0))}
        elif kind in ("halfspace", "hyperplane"):
            rec = {"normal": vec(0.5, 2.0), "offset": float(rng.uniform(-1.0, 1.0))}
        else:
            rec = {}
        if kind in ("affine", "separable_quadratic") and rng.random() < 0.5:
            rec["r"] = float(rng.uniform(-1.0, 1.0))
        return {"type": kind, **rec}

    def section(kinds):
        return [record(kinds[int(rng.integers(len(kinds)))]) for _ in range(n)]

    doc = {
        "stages": [2, 1],
        "scenarios": [{"labels": [i // 10, i], "probability": 1.0 / n} for i in range(n)],
        "constraints": section(["whole_space", "box", "ball", "halfspace", "hyperplane"]),
    }
    if risk:
        doc["cvar"] = {"alpha": 0.8, "costs": section(["affine", "separable_quadratic"])}
    else:
        doc["operators"] = section(["diagonal_affine", "grad_separable_quadratic"])
        doc["subspaces"] = section(["full"])
    return doc


def every_shape_doc(seed, n=60):
    """A seeded equilibrium file whose groups hold every shape the loader settles.

    Grad-separable-quadratic and diagonal-affine rows share one operator
    group; boxes have null sides; every subspace type appears, each with a
    constraint that meets the range condition: whole-space for Zero, and
    for Coordinates a box unbounded off them or a normal inside them.
    """
    rng = np.random.default_rng(seed)
    d = 3

    def vec(lo, hi, where=range(d)):
        return [float(rng.uniform(lo, hi)) if j in where else 0 for j in range(d)]

    operators, constraints, subspaces = [], [], []
    for _ in range(n):
        first = "a" if rng.random() < 0.5 else "q"
        kind = "diagonal_affine" if first == "a" else "grad_separable_quadratic"
        operators.append({"type": kind, first: vec(0.0, 2.0), "b" if first == "a" else "c": vec(-1.0, 1.0)})
        shape = ("full", "zero", "coordinates")[int(rng.choice(3, p=[0.5, 0.15, 0.35]))]
        if shape == "zero":
            subspaces.append({"type": "zero"})
            constraints.append({"type": "whole_space"})
            continue
        picks = ["whole_space", "box", "halfspace", "hyperplane"] + (["ball"] if shape == "full" else [])
        kind = picks[int(rng.integers(len(picks)))]
        sel = sorted(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False).tolist())
        if shape == "full":
            subspaces.append({"type": "full"})
            sel = range(d)
        else:
            subspaces.append({"type": "coordinates", "indices": rng.permutation(sel).tolist()})
        if kind == "box":
            lo = [float(rng.uniform(-2.0, -1.0)) if j in sel else None for j in range(d)]
            hi = [float(rng.uniform(1.0, 2.0)) if j in sel else None for j in range(d)]
            if shape == "full":  # some null sides on a full subspace too
                lo = [None if rng.random() < 0.3 else v for v in lo]
            constraints.append({"type": "box", "lo": lo, "hi": hi})
        elif kind in ("halfspace", "hyperplane"):
            normal = vec(0.5, 2.0, sel)
            constraints.append({"type": kind, "normal": normal, "offset": float(rng.uniform(-1.0, 1.0))})
        elif kind == "ball":
            radius = float(rng.uniform(0.5, 2.0))
            constraints.append({"type": "ball", "center": vec(-1.0, 1.0), "radius": radius})
        else:
            constraints.append({"type": "whole_space"})
    return {
        "stages": [2, 1],
        "scenarios": [{"labels": [i // 6, i], "probability": 1.0 / n} for i in range(n)],
        "operators": operators,
        "constraints": constraints,
        "subspaces": subspaces,
    }


def _bits(array):
    """The entries as unsigned integers of their width: float64 as uint64, bool as uint8."""
    return np.ascontiguousarray(array).view(f"u{array.itemsize}")


def assert_same_stack(got, want):
    assert [g[0] for g in got.groups] == [g[0] for g in want.groups]
    assert_array_equal(got.group_of, want.group_of, strict=True)
    assert_array_equal(got.slot_of, want.slot_of, strict=True)
    for (_, gm, gc), (_, wm, wc) in zip(got.groups, want.groups):
        assert_array_equal(gm, wm, strict=True)
        assert len(gc) == len(wc)
        for g, w in zip(gc, wc):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.flags.c_contiguous and w.flags.c_contiguous
            assert_array_equal(_bits(g), _bits(w))


@pytest.mark.parametrize(
    "make",
    [
        every_type_doc,
        risk_every_type_doc,
        lambda: interleaved_doc(7),
        lambda: interleaved_doc(8, risk=True),
        lambda: every_shape_doc(31),
    ],
    ids=["every_type", "risk_every_type", "interleaved", "risk_interleaved", "every_shape"],
)
def test_bulk_parse_matches_specs_built_one_at_a_time(tmp_path, make):
    doc = make()
    bundle = load_problem_file(write_json(tmp_path / "p.json", doc))
    constraints = tuple(map(spec_of, doc["constraints"]))
    if bundle.problem is not None:
        got = bundle.problem
        stacks = (got.operator_stack, got.constraint_stack, got.subspace_stack)
        # loading builds no spec tuple; reading one builds it from the groups
        assert not any("specs" in vars(stack) for stack in stacks)
        ops_, subs = (tuple(map(spec_of, doc[k])) for k in ("operators", "subspaces"))
        want = Problem(got.tree, ops_, constraints, subs)
        assert_same_stack(got.subspace_stack, want.subspace_stack)
        assert_array_equal(got.subspace_mask, want.subspace_mask, strict=True)
        assert got.full_mask == want.full_mask
        pairs = zip(got.operators + got.constraints + got.subspaces, ops_ + constraints + subs)
    else:
        cp = bundle.cvar
        costs = tuple(map(spec_of, doc["cvar"]["costs"]))
        pairs = zip(cp.costs + cp.constraints, costs + constraints)
        got = augment(cp)
        want = augment(CvarProblem(cp.tree, cp.alpha, costs, constraints))
    for g, w in pairs:
        assert_same_spec(g, w)
        for f in dataclasses.fields(g):
            value = getattr(g, f.name)
            assert not isinstance(value, np.ndarray) or not value.flags.writeable
    assert_same_stack(got.operator_stack, want.operator_stack)
    assert_same_stack(got.constraint_stack, want.constraint_stack)


def _two_bad_entries(doc):
    # one in the second type group (grad_separable_quadratic), one later in the first
    doc["operators"][1]["q"] = [2, "x"]
    doc["operators"][4]["a"] = [4.0, "y"]


def _range_broken_outside_the_first_group(doc):
    # the box group {0, 3} comes first and breaks at 3; the ball group breaks at 2
    box = {"type": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}
    ball = {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}
    doc["constraints"] = [box, ball, ball, box, {"type": "whole_space"}]
    doc["subspaces"] = [{"type": t} for t in ("full", "full", "zero", "zero", "full")]


@pytest.mark.parametrize(
    "edit, error, message",
    [
        (_two_bad_entries, ValidationError, "operators[4].a: expected a number, got 'y'"),
        (
            lambda doc: doc["operators"][3].__setitem__("c", [0.0, None]),
            ValidationError,
            "operators[3].c: expected a number, got None",
        ),
        (
            lambda doc: doc["constraints"][2].__setitem__("center", [0.5, -0.5, 1.0]),
            DimensionMismatch,
            "constraints[2].center: got 3 entries, the tree needs 2",
        ),
        (
            lambda doc: doc["operators"][3].__setitem__("q", [1.0, -1.0]),
            ValidationError,
            "operators[3].q: quadratic weights must be nonnegative",
        ),
        (_range_broken_outside_the_first_group, ValidationError, "range condition violated for scenario 2"),
    ],
    ids=["second_group_and_first", "second_group", "width", "rule", "range"],
)
def test_load_errors_keep_their_order_across_groups(tmp_path, edit, error, message):
    doc = every_type_doc()
    edit(doc)
    with pytest.raises(ScensplitError) as info:
        load_problem_file(write_json(tmp_path / "p.json", doc))
    assert type(info.value) is error
    assert str(info.value) == message


def test_coordinate_index_beyond_int64_is_a_dimension_mismatch(tmp_path):
    # the per-group mask must read the index as a Python int, not overflow a C long
    doc = every_type_doc()
    doc["subspaces"][3]["indices"] = [2**70]
    with pytest.raises(DimensionMismatch, match=rf"^coordinate indices must be integers in \[0, 2\), got {2**70}$"):
        load_problem_file(write_json(tmp_path / "p.json", doc))


def test_solves_and_writers_build_no_spec_tuples(tmp_path):
    bundle = load_problem_file(write_json(tmp_path / "p.json", uniform_doc(16)))
    problem = bundle.problem
    config = SolverConfig(schedule=SeededRandom(block_size=4, cover_window=16, seed=3), tol=1e-6)
    sol = solve(problem, config)
    progressive_hedging_solve(problem, tol=1e-6)
    kkt_residual(problem, sol.x_bar, np.zeros_like(sol.x_bar), sol.v_star_bar)
    write_solution_file(str(tmp_path / "s.json"), bundle.tree, sol)
    write_trace_csv(str(tmp_path / "t.csv"), sol.trace)
    unconstrained = load_problem_file(write_json(tmp_path / "u.json", unconstrained_doc())).problem
    solve_reduced(unconstrained, SolverConfig(tol=1e-6))
    for p in (problem, unconstrained):
        stacks = (p.operator_stack, p.constraint_stack, p.subspace_stack)
        assert not any("specs" in vars(stack) for stack in stacks)


def uniform_doc(n):
    # n scenarios over one stage of width 2, each with the same records
    return {
        "stages": [2],
        "scenarios": [{"labels": [i], "probability": 1.0 / n} for i in range(n)],
        "operators": [
            {"type": "grad_separable_quadratic", "q": [1.0, 2.0], "c": [0.5, 0.5]} for _ in range(n)
        ],
        "constraints": [{"type": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]} for _ in range(n)],
    }


@pytest.mark.parametrize(
    "section, i, field, value, rule",
    [
        ("operators", 700, "q", [1.0, -0.5], "quadratic weights must be nonnegative"),
        ("operators", 1023, "c", [0.5, float("nan")], "expected finite entries"),
        ("constraints", 513, "lo", [0.0, 2.0], "box needs lo <= hi"),
        ("constraints", 900, "hi", [1.0, float("-inf")], "expected finite entries"),
    ],
)
def test_broken_rule_deep_in_a_section_names_its_record(tmp_path, capsys, section, i, field, value, rule):
    doc = uniform_doc(1024)
    doc[section][i][field] = value
    assert main(["validate", write_json(tmp_path / "p.json", doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValidationError: {section}[{i}].")
    assert rule in err


@pytest.mark.parametrize(
    "where, edit",
    [
        ("operators[0].a", lambda doc: doc["operators"][0]["a"].__setitem__(0, 10**400)),
        ("constraints[1].hi", lambda doc: doc["constraints"][1]["hi"].__setitem__(0, -(10**400))),
        ("constraints[2].radius", lambda doc: doc["constraints"][2].__setitem__("radius", 10**309)),
        ("scenarios[3].probability", lambda doc: doc["scenarios"][3].__setitem__("probability", 10**400)),
        ("cvar.alpha", lambda doc: doc["cvar"].__setitem__("alpha", 10**400)),
    ],
)
def test_integers_beyond_float_range_are_refused(tmp_path, capsys, where, edit):
    # these used to escape as OverflowError tracebacks
    doc = risk_every_type_doc() if where == "cvar.alpha" else every_type_doc()
    edit(doc)
    assert main(["validate", write_json(tmp_path / "p.json", doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValidationError: {where}: ")
    assert "Traceback" not in err


def test_large_integers_read_back_as_their_floats(tmp_path):
    doc = every_type_doc()
    doc["operators"][0]["b"] = [2**53 + 1, -(2**70 + 1)]
    doc["constraints"][2]["radius"] = 2**70 + 1
    doc["constraints"][3]["offset"] = 2**53 + 1
    p = load_problem_file(write_json(tmp_path / "p.json", doc)).problem
    assert p.operators[0].b.tobytes() == np.array([float(2**53 + 1), float(-(2**70 + 1))]).tobytes()
    assert type(p.constraints[2].radius) is float and p.constraints[2].radius == float(2**70 + 1)
    assert type(p.constraints[3].offset) is float and p.constraints[3].offset == float(2**53 + 1)


@pytest.mark.parametrize("risk", [False, True], ids=["operators", "cvar"])
def test_record_widths_are_checked_before_the_tree_is_built(tmp_path, monkeypatch, risk):
    # a typo in stages must not allocate the tree's (N, sum(stages)) arrays
    def refuse(*args, **kwargs):
        raise AssertionError("build_tree called before the record widths were checked")

    monkeypatch.setattr(cli, "build_tree", refuse)
    doc = cvar_doc() if risk else quad_box_doc()
    doc["stages"] = [1000]
    for rec in doc["scenarios"]:
        rec["labels"] = rec["labels"][:1]
    if risk:
        doc["cvar"]["costs"] = [{"type": "affine", "c": [1.0, 2.0]}] * 2
    path = write_json(tmp_path / "p.json", doc)
    with pytest.raises(ShapeMismatch if risk else DimensionMismatch, match="the tree needs 1000"):
        load_problem_file(path)


# --- solve ---

def test_solve_writes_solution_and_trace(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", quad_box_doc())
    sol_path = tmp_path / "sol.json"
    trace_path = tmp_path / "trace.csv"
    code = main([
        "solve", path,
        "--tol", "1e-9",
        "--solution-out", str(sol_path),
        "--trace-out", str(trace_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "status: converged" in out

    doc = json.loads(sol_path.read_text(encoding="utf-8"))
    assert doc["status"] == "converged"
    assert doc["iterations"] > 0
    assert doc["residual"] <= 1e-9
    xs = [rec["x"] for rec in doc["scenarios"]]
    vs = [rec["v_star"] for rec in doc["scenarios"]]
    assert_allclose(xs, [[0.5, 0.2], [0.5, 0.8]], atol=1e-5)
    assert_allclose(vs, [[-0.5, 0.0], [0.5, 0.0]], atol=1e-5)
    assert [rec["labels"] for rec in doc["scenarios"]] == [[0, 0], [1, 0]]

    with open(trace_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == TRACE_HEADER
    body = rows[1:]
    assert [int(r[0]) for r in body] == list(range(len(body)))
    assert all(r[5] == "2" for r in body)
    assert all(r[6] == "0.0" for r in body)  # timing off by default
    assert float(body[1][1]) <= float(body[0][1]) * 10  # residual column parses


def test_solve_trace_every(tmp_path):
    path = write_json(tmp_path / "p.json", quad_box_doc())
    trace_path = tmp_path / "trace.csv"
    assert main(["solve", path, "--trace-out", str(trace_path), "--trace-every", "5"]) == 0
    with open(trace_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [int(r[0]) for r in rows] == list(range(0, 5 * len(rows), 5))


def test_solve_deterministic_outputs(tmp_path):
    path = write_json(tmp_path / "p.json", quad_box_doc())
    outs = []
    for tag in ("a", "b"):
        sol = tmp_path / f"sol_{tag}.json"
        trc = tmp_path / f"trc_{tag}.csv"
        code = main([
            "solve", path,
            "--schedule", "seeded-random",
            "--block-size", "1",
            "--seed", "3",
            "--solution-out", str(sol),
            "--trace-out", str(trc),
        ])
        assert code == 0
        outs.append((sol.read_bytes(), trc.read_bytes()))
    assert outs[0] == outs[1]


def test_solve_budget_exit_code(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", quad_box_doc())
    assert main(["solve", path, "--tol", "1e-15", "--max-iter", "2"]) == 2
    assert "status: max_iter" in capsys.readouterr().out


def test_solve_non_finite_exit_code(tmp_path, capsys):
    # valid data whose residual overflows on the first evaluation
    doc = quad_box_doc()
    doc["operators"][0] = {"type": "diagonal_affine", "a": [0.0, 0.0], "b": [1e308, 0.0]}
    del doc["constraints"]
    path = write_json(tmp_path / "p.json", doc)
    assert main(["solve", path]) == 1
    assert "status: non_finite" in capsys.readouterr().out


def test_solve_rejects_non_finite_data(tmp_path, capsys):
    doc = quad_box_doc()
    doc["operators"][0]["q"][0] = float("nan")  # json writes it as NaN
    path = write_json(tmp_path / "p.json", doc)
    assert main(["solve", path]) == 1
    assert "ValidationError" in capsys.readouterr().err
    assert main(["solve", write_json(tmp_path / "q.json", quad_box_doc()), "--tol", "nan"]) == 1
    assert "ConfigError" in capsys.readouterr().err


def test_solve_ph_method(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", quad_box_doc())
    assert main(["solve", path, "--method", "ph", "--tol", "1e-9"]) == 0
    assert "status: converged" in capsys.readouterr().out

    ball = write_json(tmp_path / "ball.json", ball_doc())
    assert main(["solve", ball, "--method", "ph"]) == 1
    assert "UnsupportedComposite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--trace-every", "0"],
        ["--tol", "nan"],
        ["--max-iter", "-3"],
        ["--tol", "-1"],
        ["--lambda", "0"],
        ["--schedule", "round-robin", "--block-size", "0"],
        ["--gamma", "inf"],
        ["--mu", "0"],
        ["--lambda", "2"],
        ["--cover-window", "-1"],
    ],
)
def test_solve_ph_rejects_bad_settings(tmp_path, capsys, flags):
    path = write_json(tmp_path / "p.json", quad_box_doc())
    assert main(["solve", path, "--method", "ph", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:")


@pytest.mark.parametrize(
    "flags",
    [
        ["--block-size", "0"],
        ["--cover-window", "-1", "--seed", "-5"],
        ["--seed", "-1"],
        ["--schedule", "round-robin", "--cover-window", "-1"],
        ["--schedule", "round-robin", "--seed", "-2"],
        ["--schedule", "seeded-random", "--cover-window", "-1"],
    ],
)
def test_schedule_flags_checked_whatever_the_schedule(tmp_path, capsys, flags):
    path = write_json(tmp_path / "p.json", quad_box_doc())
    assert main(["solve", path, *flags]) == 1
    assert capsys.readouterr().err.startswith("error: ConfigError:")
    cvar = write_json(tmp_path / "c.json", cvar_doc())
    assert main(["solve-cvar", cvar, *flags]) == 1
    assert capsys.readouterr().err.startswith("error: ConfigError:")


def test_solve_ph_reads_its_settings(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", quad_box_doc())
    sol = progressive_hedging_solve(load_problem_file(path).problem, gamma=0.7, tol=1e-9)
    trace = tmp_path / "t.csv"
    flags = ["--gamma", "0.7", "--tol", "1e-9", "--trace-every", "3", "--trace-out", str(trace)]
    assert main(["solve", path, "--method", "ph", *flags]) == 0
    assert f"iterations: {sol.iterations}" in capsys.readouterr().out
    with open(trace, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["n"]) for r in rows] == list(range(0, sol.iterations, 3))


def test_solve_reduced_method(tmp_path, capsys):
    free = write_json(tmp_path / "free.json", unconstrained_doc())
    assert main(["solve", free, "--method", "reduced", "--tol", "1e-9"]) == 0
    capsys.readouterr()
    boxed = write_json(tmp_path / "boxed.json", quad_box_doc())
    assert main(["solve", boxed, "--method", "reduced"]) == 1
    assert "NonTrivialConstraint" in capsys.readouterr().err


def test_solve_rejects_cvar_file(tmp_path, capsys):
    path = write_json(tmp_path / "c.json", cvar_doc())
    assert main(["solve", path]) == 1
    assert "solve-cvar" in capsys.readouterr().err


def test_solve_bad_config_exit(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", quad_box_doc())
    assert main(["solve", path, "--mu", "0"]) == 1
    assert "error: ConfigError: mu must be positive" in capsys.readouterr().err
    assert main(["solve", path, "--gamma", "0"]) == 1
    assert "error: NonPositiveGamma: gamma must be positive" in capsys.readouterr().err


def test_the_steps_have_no_window_flag(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", quad_box_doc())
    with pytest.raises(SystemExit) as caught:
        main(["solve", path, "--epsilon", "0.1"])
    assert caught.value.code == 2
    assert "unrecognized arguments: --epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("indices", [0, "0", None, {"0": 0}])
def test_coordinates_indices_must_be_a_list(tmp_path, indices):
    doc = every_type_doc()
    doc["subspaces"][3] = {"type": "coordinates", "indices": indices}
    with pytest.raises(ValidationError, match=r"subspaces\[3\]\.indices: indices must be a list"):
        load_problem_file(write_json(tmp_path / "p.json", doc))


def test_module_entry_point_runs_the_cli(tmp_path):
    path = write_json(tmp_path / "p.json", quad_box_doc())
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-m", "scensplit", "validate", path],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.rstrip().endswith("valid")


# --- solve-cvar ---

def test_solve_cvar_writes_solution(tmp_path, capsys):
    path = write_json(tmp_path / "c.json", cvar_doc())
    sol_path = tmp_path / "sol.json"
    code = main(["solve-cvar", path, "--tol", "1e-9", "--solution-out", str(sol_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "status: converged" in out
    assert "threshold:" in out and "objective:" in out

    doc = json.loads(sol_path.read_text(encoding="utf-8"))
    assert doc["alpha"] == 0.5
    assert doc["threshold"] == pytest.approx(0.0, abs=1e-4)
    assert doc["objective"] == pytest.approx(0.0, abs=1e-6)
    assert_allclose([rec["x"] for rec in doc["scenarios"]], [[0.3], [0.3]], atol=1e-4)


def test_solve_cvar_writes_trace(tmp_path):
    path = write_json(tmp_path / "c.json", cvar_doc())
    sol_path = tmp_path / "sol.json"
    trace_path = tmp_path / "trace.csv"
    flags = ["--tol", "1e-9", "--solution-out", str(sol_path), "--trace-out", str(trace_path)]
    assert main(["solve-cvar", path, *flags]) == 0
    iterations = json.loads(sol_path.read_text(encoding="utf-8"))["iterations"]
    with open(trace_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert iterations > 0
    assert rows[0] == TRACE_HEADER
    assert [int(r[0]) for r in rows[1:]] == list(range(iterations))


def test_solve_cvar_alpha_override(tmp_path, capsys):
    path = write_json(tmp_path / "c.json", cvar_doc())
    sol_path = tmp_path / "sol.json"
    assert main(["solve-cvar", path, "--alpha", "0.9", "--solution-out", str(sol_path)]) == 0
    doc = json.loads(sol_path.read_text(encoding="utf-8"))
    assert doc["alpha"] == 0.9
    # the override goes through the problem's own alpha check
    capsys.readouterr()
    assert main(["solve-cvar", path, "--alpha", "1.5"]) == 1
    assert "BadAlpha: alpha must lie in (0, 1), got 1.5" in capsys.readouterr().err


def test_solve_cvar_rejects_equilibrium_file(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", quad_box_doc())
    assert main(["solve-cvar", path]) == 1
    assert "no 'cvar' section" in capsys.readouterr().err


# --- written bytes against the json and csv encoders ---

def encoder_solution_text(tree, sol, header, arrays):
    # the document the writers encode, through json.dumps with indent=2
    rows = {key: arr.tolist() for key, arr in arrays.items()}
    doc = {
        "status": sol.status.value,
        "iterations": sol.iterations,
        "residual": float(sol.residual),
        **header,
        "scenarios": [
            {
                "labels": list(s.labels),
                "probability": float(s.probability),
                **{key: values[s.index] for key, values in rows.items()},
            }
            for s in tree.scenarios
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def encoder_trace_text(trace):
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(TRACE_HEADER)
    for r in trace:
        w.writerow(
            [
                r.n,
                repr(float(r.residual)),
                repr(float(r.kappa)),
                repr(float(r.tau)),
                repr(float(r.theta)),
                r.active_block_size,
                repr(float(r.wall_ms)),
            ]
        )
    return buf.getvalue()


def assert_solution_bytes(tmp_path, tree, sol):
    path = tmp_path / "sol.json"
    write_solution_file(str(path), tree, sol)
    arrays = {"x": sol.x_bar, "v_star": sol.v_star_bar}
    assert path.read_bytes() == encoder_solution_text(tree, sol, {}, arrays).encode("utf-8")


def assert_trace_bytes(tmp_path, trace):
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), trace)
    assert path.read_bytes() == encoder_trace_text(trace).encode("utf-8")


def test_written_files_match_encoders(tmp_path):
    path = write_json(tmp_path / "p.json", quad_box_doc())
    flags = ["--schedule", "seeded-random", "--block-size", "1", "--cover-window", "2"]
    flags += ["--seed", "3", "--tol", "1e-9", "--trace-every", "5"]
    sol_path, trace_path = tmp_path / "cli.json", tmp_path / "cli.csv"
    out = ["--solution-out", str(sol_path), "--trace-out", str(trace_path)]
    assert main(["solve", path, *flags, *out]) == 0
    bundle = load_problem_file(path)
    schedule = SeededRandom(block_size=1, cover_window=2, seed=3)
    sol = solve(bundle.problem, SolverConfig(schedule=schedule, tol=1e-9, trace_every=5))
    assert sol.status is SolveStatus.CONVERGED
    arrays = {"x": sol.x_bar, "v_star": sol.v_star_bar}
    want = encoder_solution_text(bundle.tree, sol, {}, arrays)
    assert sol_path.read_bytes() == want.encode("utf-8")
    assert trace_path.read_bytes() == encoder_trace_text(sol.trace).encode("utf-8")


def test_written_non_finite_values_match_encoders(tmp_path):
    doc = quad_box_doc()
    doc["operators"][0] = {"type": "diagonal_affine", "a": [0.0, 0.0], "b": [1e308, 0.0]}
    del doc["constraints"]
    bundle = load_problem_file(write_json(tmp_path / "p.json", doc))
    sol = solve(bundle.problem, SolverConfig())
    assert sol.status is SolveStatus.NON_FINITE
    assert not np.isfinite(sol.residual)
    assert_solution_bytes(tmp_path, bundle.tree, sol)
    # every json token for a non-finite float, in either array
    odd = np.array([[np.nan, np.inf], [-np.inf, 0.25]])
    for x, v in ((odd, np.zeros((2, 2))), (np.zeros((2, 2)), odd)):
        assert_solution_bytes(tmp_path, bundle.tree, dataclasses.replace(sol, x_bar=x, v_star_bar=v))
    text = (tmp_path / "sol.json").read_text()
    assert all(token in text for token in ("NaN", "Infinity", "-Infinity"))
    # rows with no entries are written as []
    assert_solution_bytes(tmp_path, bundle.tree, dataclasses.replace(sol, x_bar=np.zeros((2, 0))))
    assert '"x": []' in (tmp_path / "sol.json").read_text()
    # trace rows with non-finite fields
    finite = load_problem_file(write_json(tmp_path / "q.json", quad_box_doc()))
    record = solve(finite.problem, SolverConfig(max_iter=1)).trace[0]
    rows = [
        dataclasses.replace(record, residual=float("nan")),
        dataclasses.replace(record, n=1, residual=float("inf"), kappa=-float("inf"), tau=np.nan),
    ]
    assert_trace_bytes(tmp_path, rows)
    assert "nan" in (tmp_path / "trace.csv").read_text()


def test_written_labels_match_encoders(tmp_path):
    labels = [
        ("caf\u00e9 \"q\" \\", -3),
        ("caf\u00e9 \"q\" \\", 2.5),
        (True, -3),
        (False, (1, ("a", 0.5), ())),
    ]
    tree = build_tree([(lab, 0.25) for lab in labels], stage_dims=[1, 2])
    rng = np.random.default_rng(5)
    sol = Solution(
        x_bar=rng.standard_normal((4, 3)) * 1e-20,
        v_star_bar=rng.standard_normal((4, 3)) * 1e20,
        status=SolveStatus.MAX_ITER,
        iterations=7,
        residual=0.125,
        trace=(),
    )
    assert_solution_bytes(tmp_path, tree, sol)
    assert "caf\\u00e9 \\\"q\\\" \\\\" in (tmp_path / "sol.json").read_text()


def test_written_cvar_solution_matches_encoder(tmp_path):
    cp = load_problem_file(write_json(tmp_path / "c.json", cvar_doc())).cvar
    csol = solve_cvar(cp, SolverConfig(tol=1e-9))
    path = tmp_path / "sol.json"
    write_cvar_solution_file(str(path), cp, csol)
    header = {
        "alpha": float(cp.alpha),
        "threshold": float(csol.y_bar),
        "objective": float(csol.objective),
    }
    want = encoder_solution_text(cp.tree, csol.inner, header, {"x": csol.x_bar})
    assert path.read_bytes() == want.encode("utf-8")
    assert_trace_bytes(tmp_path, csol.inner.trace)


# --- the solution writer renders each distinct value once ---

def made_solution(x, v):
    return Solution(
        x_bar=np.asarray(x, dtype=float),
        v_star_bar=np.asarray(v, dtype=float),
        status=SolveStatus.MAX_ITER,
        iterations=3,
        residual=0.5,
        trace=(),
    )


def two_scenario_tree():
    return build_tree([((0, 0), 0.25), ((1, 0), 0.75)], stage_dims=[1, 2])


def test_written_signed_zeros_stay_apart(tmp_path):
    # -0.0 and 0.0 are equal floats with other bits; each keeps its own text
    x = [[0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]]
    assert_solution_bytes(tmp_path, two_scenario_tree(), made_solution(x, np.negative(x)))
    assert "-0.0" in (tmp_path / "sol.json").read_text()


def test_written_nan_payloads_and_infinities_match_encoder(tmp_path):
    quiet, payload = np.array([0x7FF8000000000000, 0x7FF8000000000001]).view(float)
    assert np.isnan([quiet, payload]).all()
    x = [[quiet, payload, np.inf], [payload, -np.inf, -payload]]
    assert len(set(np.asarray(x).view(np.int64).ravel().tolist())) == 5
    assert_solution_bytes(tmp_path, two_scenario_tree(), made_solution(x, [[0.5] * 3] * 2))


def test_written_values_repeated_across_rows_and_arrays_match_encoder(tmp_path):
    x = [[0.1, 0.2, 0.1], [0.1, 0.25, 1e300]]
    v = [[0.25, 0.1, 0.1], [1e300, 0.2, 0.75]]  # 0.75 and 0.25 are probabilities too
    assert_solution_bytes(tmp_path, two_scenario_tree(), made_solution(x, v))


@pytest.mark.parametrize(
    "labels",
    [
        [1, 1.0, True, 0.0, -0.0, np.float64(0.0), np.float64(-0.0), (1,), (True,), (1.0, "a")],
        [1, True, "1", 0, False],
    ],
    ids=["with floats and tuples", "ints, bools and strings"],
)
def test_written_labels_of_equal_value_and_other_type_stay_apart(tmp_path, labels):
    # 1 == 1.0 == True, 0.0 == -0.0 (also as np.float64) and (1,) == (True,),
    # but json writes each its own way
    n = len(labels)
    x = np.arange(2.0 * n).reshape(n, 2)
    for stage in (0, 1):
        paths = [(lab, k) if stage == 0 else (k, lab) for k, lab in enumerate(labels)]
        tree = build_tree([(p, 1 / n) for p in paths], stage_dims=[1, 1])
        assert_solution_bytes(tmp_path, tree, made_solution(x, -x))
        assert "true" in (tmp_path / "sol.json").read_text()


@pytest.mark.parametrize(
    "labels, plain",
    [
        ([np.int64(0), np.int64(1)], [0, 1]),
        ([np.bool_(False), (np.bool_(True), np.int32(2))], [False, (True, 2)]),
    ],
    ids=["int64", "bool_"],
)
def test_written_numpy_labels_are_their_python_values(tmp_path, labels, plain):
    # numpy scalars are read as Python values when the tree is built, so the
    # file is whole and equal to the one of the plain labels
    x = np.arange(4.0).reshape(2, 2)
    sol = made_solution(x, -x)
    assert_solution_bytes(tmp_path, build_tree([((lab,), 0.5) for lab in plain], [2]), sol)
    want = (tmp_path / "sol.json").read_bytes()
    assert_solution_bytes(tmp_path, build_tree([((lab,), 0.5) for lab in labels], [2]), sol)
    assert (tmp_path / "sol.json").read_bytes() == want


def test_written_non_contiguous_arrays_match_encoder(tmp_path):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 2)).T  # transposed: Fortran order
    v = rng.standard_normal((2, 7))[:, ::2]  # strided columns
    assert not x.flags.c_contiguous and not v.flags.c_contiguous
    assert_solution_bytes(tmp_path, two_scenario_tree(), made_solution(x, v))


def test_written_one_scenario_tree_matches_encoder(tmp_path):
    tree = build_tree([(("only",), 1.0)], stage_dims=[2])
    assert_solution_bytes(tmp_path, tree, made_solution([[0.5, -1.5]], [[0.0, 0.0]]))


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 6])
def test_written_entries_match_encoder_at_any_chunk_size(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    tree = build_tree([((k % 2, k), 0.2) for k in range(5)], stage_dims=[1, 1])
    x = np.repeat([[0.5, 1.5], [2.5, 3.5]], [3, 2], axis=0)
    assert_solution_bytes(tmp_path, tree, made_solution(x, x[::-1] * 3))


def grouped_doc(n: int, groups: int, seed: int) -> dict:
    # a 3-stage tree: stage 1 shared, stage 2 shared within a group, stage 3 per scenario
    rng = np.random.default_rng(seed)
    stages = [1, 2, 1]
    d = sum(stages)
    return {
        "stages": stages,
        "scenarios": [{"labels": [0, i % groups, i], "probability": 1 / n} for i in range(n)],
        "operators": [
            {
                "type": "grad_separable_quadratic",
                "q": rng.uniform(0.5, 2.0, d).tolist(),
                "c": rng.uniform(-1.5, 1.5, d).tolist(),
            }
            for _ in range(n)
        ],
        "constraints": [{"type": "box", "lo": [-1.0] * d, "hi": [1.0] * d}] * n,
    }


def test_written_solution_of_many_chunks_reads_back_bit_for_bit(tmp_path):
    n = 8 * cli._CHUNK + 1
    path = tmp_path / "p.json"
    path.write_text(json.dumps(grouped_doc(n, 16, seed=4)), encoding="utf-8")
    out = tmp_path / "sol.json"
    assert main(["solve", str(path), "--tol", "1e-3", "--solution-out", str(out)]) == 0
    bundle = load_problem_file(path)
    sol = solve(bundle.problem, SolverConfig(tol=1e-3))
    arrays = {"x": sol.x_bar, "v_star": sol.v_star_bar}
    assert out.read_bytes() == encoder_solution_text(bundle.tree, sol, {}, arrays).encode("utf-8")
    with open(out, encoding="utf-8") as fh:
        scenarios = json.load(fh)["scenarios"]
    for key, arr in arrays.items():
        back = np.array([s[key] for s in scenarios])
        assert_array_equal(back.view(np.int64), arr.view(np.int64))


@pytest.mark.parametrize(
    "settings",
    [{"trace_every": 5}, {"record_timing": True}, {"max_iter": 0}],
)
def test_written_traces_match_encoder(tmp_path, settings):
    bundle = load_problem_file(write_json(tmp_path / "p.json", quad_box_doc()))
    sol = solve(bundle.problem, SolverConfig(tol=1e-12, **settings))
    assert_trace_bytes(tmp_path, sol.trace)
    if settings.get("record_timing"):
        assert any(r.wall_ms > 0.0 for r in sol.trace)
    if settings.get("max_iter") == 0:
        assert sol.trace == ()
        assert (tmp_path / "trace.csv").read_bytes() == (",".join(TRACE_HEADER) + "\r\n").encode()


def test_every_catalog_class_is_in_rules_or_has_no_fields():
    # the bulk parser stacks exactly the RULES fields of a class; Coordinates
    # is the one class with a field outside RULES, parsed by its own branch
    for kinds in cli.CATALOG.values():
        for cls in kinds.values():
            fields = {f.name for f in dataclasses.fields(cls)}
            if cls in ops.RULES:
                vectors, scalars, _ = ops.RULES[cls]
                assert fields == set(vectors + scalars), cls.__name__
            elif cls is not ops.Coordinates:
                assert fields == set(), cls.__name__
