"""Seeded fuzz of the problem-file boundary.

Each case takes one known-good problem document, applies one random
mutation to it (drop, duplicate or rename a key, duplicate or truncate a
list, or swap any value for an ill-typed or extreme one), writes it and
loads it.  A mutant must load or raise a ``ScensplitError``; any other
exception, or a RuntimeWarning (an error here), fails the case.  On a
subset, ``scensplit validate`` must exit 0 or 1 without a traceback.
"""
import copy
import importlib.util
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from scensplit.cli import load_problem_file, main
from scensplit.errors import ScensplitError
from test_cli import (
    ball_doc,
    cvar_doc,
    every_type_doc,
    interleaved_doc,
    quad_box_doc,
    risk_every_type_doc,
    unconstrained_doc,
    uniform_doc,
)

SEED = 20251019
CASES = 1500
VALIDATE_EVERY = 10  # every tenth case also runs through the command line

# ill-typed and extreme JSON values; json writes the floats as NaN,
# Infinity and -Infinity, and the large integer as its digits
SWAPS = ["1", "", True, False, None, [], {}, 2**1100, -(2**1100), float("nan"),
         float("inf"), float("-inf"), 1e308, -1e308, 0, -1, 0.5]
# key names a rename picks from: the format's own keys and one it lacks
KEYS = ["type", "labels", "probability", "stages", "scenarios", "operators", "constraints",
        "subspaces", "cvar", "alpha", "costs", "a", "b", "q", "c", "r", "lo", "hi", "center",
        "radius", "normal", "offset", "indices", "other"]


def _workload_documents():
    """The benchmark's base documents at 8 scenarios, its module loaded read-only."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("fuzz_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [workloads.base_document(name, 8) for name in workloads.WORKLOADS]


DOCUMENTS = [
    quad_box_doc(), unconstrained_doc(), ball_doc(), cvar_doc(), every_type_doc(),
    risk_every_type_doc(), interleaved_doc(3, n=8), interleaved_doc(4, risk=True, n=8),
    uniform_doc(4), *_workload_documents(),
]


def _nodes(doc, path=()):
    """Every (path, node) of a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _nodes(value, path + (key,))


def _mutant(rng):
    """A mutated copy of one document and a description of the mutation."""
    doc = copy.deepcopy(DOCUMENTS[rng.integers(len(DOCUMENTS))])
    nodes = list(_nodes(doc))
    path, node = nodes[rng.integers(len(nodes))]
    kinds = ["swap"]
    if node:
        kinds += {dict: ["drop", "duplicate", "rename"], list: ["duplicate", "truncate"]}.get(
            type(node), []
        )
    kind = kinds[rng.integers(len(kinds))]
    if kind == "swap":
        new = SWAPS[rng.integers(len(SWAPS))]
        if not path:
            return new, f"root -> {new!r}"
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = new
        return doc, f"{list(path)} -> {new!r}"[:200]
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    key = keys[rng.integers(len(keys))]
    if kind == "drop":
        del node[key]
    elif kind == "rename":
        node[KEYS[rng.integers(len(KEYS))]] = node.pop(key)
    elif kind == "truncate":
        del node[rng.integers(len(node)):]
    elif isinstance(node, list):
        node.insert(key, copy.deepcopy(node[key]))
    else:
        # the value of one key written again over another (or a new) key
        node[keys[rng.integers(len(keys))] if len(keys) > 1 else key + "_copy"] = node[key]
    return doc, f"{kind} {key!r} of {list(path)}"


def test_mutated_problem_files_load_or_raise_package_errors(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    path = tmp_path / "mutant.json"
    for case in range(CASES):
        doc, how = _mutant(rng)
        path.write_text(json.dumps(doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                load_problem_file(str(path))
            except ScensplitError:
                pass
            except Exception as e:  # noqa: BLE001 - any other exception is the finding
                pytest.fail(f"case {case} ({how}): {type(e).__name__}: {e}")
            if case % VALIDATE_EVERY == 0:
                capsys.readouterr()
                code = main(["validate", str(path)])
                err = capsys.readouterr().err
                assert code in (0, 1), f"case {case} ({how}) exited {code}"
                assert "Traceback" not in err, f"case {case} ({how})"
