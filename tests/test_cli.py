import csv
import json

import pytest
from numpy.testing import assert_allclose

from scensplit.cli import TRACE_HEADER, load_problem_file, main


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
    assert main(["solve", path, "--gamma", "1e9"]) == 1
    assert "ConfigError" in capsys.readouterr().err


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


def test_solve_cvar_alpha_override(tmp_path):
    path = write_json(tmp_path / "c.json", cvar_doc())
    sol_path = tmp_path / "sol.json"
    assert main(["solve-cvar", path, "--alpha", "0.9", "--solution-out", str(sol_path)]) == 0
    doc = json.loads(sol_path.read_text(encoding="utf-8"))
    assert doc["alpha"] == 0.9


def test_solve_cvar_rejects_equilibrium_file(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", quad_box_doc())
    assert main(["solve-cvar", path]) == 1
    assert "no 'cvar' section" in capsys.readouterr().err
