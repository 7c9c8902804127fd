"""Seeded problem-file generators for the benchmark workloads.

Every workload uses one information structure: a 3-stage tree with stage
dims (2, 2, 2) whose first stage is shared by all scenarios, whose second
stage is shared within 16 groups and whose third stage is per scenario.

Each workload has one base instance, drawn from a fixed generator seed.
The ``--seed`` of a run picks an exact symmetry of it: a relabelling of the
16 groups, a permutation of the coordinates inside each stage and a sign
flip per coordinate, with every target, weight and set mapped along.  The
solution maps the same way, so the iterations to ``tol`` do not depend on
the seed, while the bytes the program reads and the memory layout of every
coefficient do.  The scenario order is kept, because a seeded-random block
schedule picks scenarios by position.  On freshly drawn data the iteration
count of these solvers varies 2-10x from one instance to the next at these
sizes, which would make ``solve_s`` measure the draw instead of the code.

The program receives only the generated JSON file.  The same seed writes
byte-identical files, and ``json`` writes floats with ``repr``, so they
read back exactly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

STAGES = (2, 2, 2)
GROUPS = 16
DIM = sum(STAGES)
ALPHA = 0.9
# generator seed of the base instances and of the block schedule; a run's
# seed never redraws them
BASE_SEED = 20250930


@dataclass(frozen=True)
class Workload:
    """One closed-loop caller: an entry point, its file and its settings.

    Why each workload is in the benchmark is recorded in BENCHMARK.json.
    """

    name: str
    entry: str  # "solve" or "solve_cvar"
    scenarios: int
    tol: float
    block_size: int = 0  # 0: full activation, else a seeded-random block
    with_ph: bool = False  # also run progressive hedging on the same file


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("qbox-full", "solve", scenarios=1024, tol=1e-6, with_ph=True),
        Workload("mixed-block", "solve", scenarios=256, tol=1e-4, block_size=32),
        Workload("cvar", "solve_cvar", scenarios=16, tol=1e-4),
    )
}


def _floats(arr) -> list:
    return [float(v) for v in arr]


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> list:
    return _floats(rng.uniform(lo, hi, DIM))


def _unit_box() -> dict:
    return {"type": "box", "lo": [-1.0] * DIM, "hi": [1.0] * DIM}


def _quadratic(rng, spread: float) -> dict:
    return {
        "type": "grad_separable_quadratic",
        "q": _uniform(rng, 0.5, 2.0),
        "c": _uniform(rng, -spread, spread),
    }


def _affine(rng) -> dict:
    return {"type": "diagonal_affine", "a": _uniform(rng, 0.5, 2.0), "b": _uniform(rng, -1.0, 1.0)}


def _mixed_constraint(rng, i: int) -> dict:
    # every set contains the origin, so the scenarios share a feasible point
    kind = i % 4
    if kind == 0:
        return _unit_box()
    if kind == 1:
        return {"type": "ball", "center": _uniform(rng, -0.3, 0.3), "radius": float(rng.uniform(1.0, 2.0))}
    if kind == 2:
        return {"type": "halfspace", "normal": _uniform(rng, -1.0, 1.0), "offset": float(rng.uniform(0.2, 1.0))}
    return {"type": "whole_space"}


def _cost(rng, i: int) -> dict:
    if i % 4 == 3:
        return {"type": "affine", "c": _uniform(rng, -1.0, 1.0), "r": float(rng.uniform(-1.0, 1.0))}
    return {
        "type": "separable_quadratic",
        "q": _uniform(rng, 0.5, 2.0),
        "c": _uniform(rng, -2.0, 2.0),
        "r": float(rng.uniform(-1.0, 1.0)),
    }


def base_document(name: str, scenarios: Optional[int] = None) -> dict:
    """The base instance of workload ``name``; it does not depend on a seed."""
    wl = WORKLOADS[name]
    n = wl.scenarios if scenarios is None else scenarios
    rng = np.random.default_rng([BASE_SEED, list(WORKLOADS).index(name), n])
    probs = rng.uniform(0.5, 1.5, n)
    probs = probs / probs.sum()
    # labels (group, member, 0): the stage-2 class is the group, the stage-3
    # class the scenario itself
    doc = {
        "stages": list(STAGES),
        "scenarios": [
            {"labels": [i % GROUPS, i // GROUPS, 0], "probability": float(p)}
            for i, p in enumerate(probs)
        ],
    }
    if name == "qbox-full":
        doc["operators"] = [_quadratic(rng, 2.0) for _ in range(n)]
        doc["constraints"] = [_unit_box() for _ in range(n)]
    elif name == "mixed-block":
        doc["operators"] = [_quadratic(rng, 1.0) if i % 2 == 0 else _affine(rng) for i in range(n)]
        doc["constraints"] = [_mixed_constraint(rng, i) for i in range(n)]
    else:
        doc["cvar"] = {"alpha": ALPHA, "costs": [_cost(rng, i) for i in range(n)]}
        doc["constraints"] = [_unit_box() for _ in range(n)]
    return doc


# fields that move with x under x = S P x' (S signs, P a permutation); the
# weights q and a only permute
_SIGNED = ("c", "b", "center", "normal")
_UNSIGNED = ("q", "a")


def _map_record(rec: dict, perm: np.ndarray, signs: np.ndarray) -> dict:
    out = dict(rec)
    for key in _SIGNED:
        if key in rec:
            out[key] = _floats(np.asarray(rec[key])[perm] * signs)
    for key in _UNSIGNED:
        if key in rec:
            out[key] = _floats(np.asarray(rec[key])[perm])
    if rec.get("type") == "box":
        lo = np.asarray(rec["lo"])[perm]
        hi = np.asarray(rec["hi"])[perm]
        out["lo"] = _floats(np.where(signs > 0, lo, -hi))
        out["hi"] = _floats(np.where(signs > 0, hi, -lo))
    return out


def problem_document(name: str, seed: int, scenarios: Optional[int] = None) -> dict:
    """The problem file of workload ``name`` for ``seed`` as a JSON-ready dict."""
    base = base_document(name, scenarios)
    rng = np.random.default_rng([seed % 2**64, list(WORKLOADS).index(name)])
    groups = rng.permutation(GROUPS)
    offsets = np.cumsum((0,) + STAGES)
    perm = np.concatenate([offsets[k] + rng.permutation(d) for k, d in enumerate(STAGES)])
    signs = rng.choice([-1.0, 1.0], size=DIM)

    def mapped(seq):
        return [_map_record(rec, perm, signs) for rec in seq]

    doc = {"stages": list(STAGES), "scenarios": []}
    for rec in base["scenarios"]:
        g, m, last = rec["labels"]
        doc["scenarios"].append({"labels": [int(groups[g]), m, last], "probability": rec["probability"]})
    if "operators" in base:
        doc["operators"] = mapped(base["operators"])
    else:
        doc["cvar"] = {"alpha": base["cvar"]["alpha"], "costs": mapped(base["cvar"]["costs"])}
    doc["constraints"] = mapped(base["constraints"])
    return doc


def write_problem_file(path: str, name: str, seed: int, scenarios: Optional[int] = None) -> None:
    """Write the workload's problem file; the same arguments give the same bytes."""
    text = json.dumps(problem_document(name, seed, scenarios), separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
