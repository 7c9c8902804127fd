"""Span tracing of the library's public functions, installed from outside.

A function is wrapped at every module attribute of the package that holds
it, because callers look it up through their own namespace (``solver``
imports ``resolvent`` into its globals, so ``scensplit.solver.resolvent``
is replaced as well as ``scensplit.operators.resolvent``).  Schedule
``select`` methods are wrapped on their classes.  Each call records a span
(name, parent span, start, end) in flat arrays kept in memory; the
per-function table is computed from them once tracing has stopped, and
:meth:`Tracer.restore` puts every original object back.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# "module.function" for module-level functions, "module.select" for the
# activation-schedule method
LAYERS = (
    "cli.load_problem_file",
    "cli.write_solution_file",
    "cli.write_cvar_solution_file",
    "cli.write_trace_csv",
    "tree.build_tree",
    "solver.solve",
    "solver.iterate",
    "solver.select",
    "solver.scenario_update",
    "solver.coordination_step",
    "solver.kkt_residual",
    "solver.progressive_hedging_solve",
    "operators.resolvent",
    "operators.project_constraint",
    "operators.project_subspace",
    "operators.prox_cvar_augmented",
    "operators.composite_resolvent",
    "operators.apply_operator",
    "policy.project_nonanticipative",
    "policy.inner",
    "cvar.augment",
    "cvar.extract_solution",
    "cvar.solve_cvar",
)
PACKAGE = "scensplit"


class Tracer:
    """Wraps the LAYERS functions while installed and records their spans."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _wrap(self, fn, nid: int):
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        """Replace each traced function everywhere the package refers to it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.clear()
        self.absent = []
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for nid, layer in enumerate(self.layers):
            mod_name, fn_name = layer.split(".")
            owner = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if fn_name == "select":
                classes = [
                    c for c in vars(owner).values()
                    if isinstance(c, type) and "select" in vars(c)
                ] if owner else []
                if not classes:
                    self.absent.append(layer)
                for cls in classes:
                    self._replace(cls, "select", self._wrap(vars(cls)["select"], nid))
                continue
            fn = getattr(owner, fn_name, None) if owner else None
            if not callable(fn):
                self.absent.append(layer)
                continue
            wrapped = self._wrap(fn, nid)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, attr, wrapped)

    def _replace(self, holder, attr: str, wrapped):
        self._saved.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, wrapped)

    def restore(self):
        """Put every original object back, newest replacement first."""
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def spans(self) -> dict:
        """The recorded spans as arrays, with the name table."""
        return {
            "layers": np.array(self.layers),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def _under(name: np.ndarray, parent: np.ndarray, nid: int) -> np.ndarray:
    """Mask of spans that have an ancestor span of layer ``nid``."""
    hit = np.zeros(name.size, dtype=bool)
    node = parent.copy()
    while True:
        live = node >= 0
        if not live.any():
            return hit
        hit[live] |= name[node[live]] == nid
        node[live] = parent[node[live]]


def summarize(spans: dict) -> dict:
    """Per-layer calls, total and self time, and resolvent counts by caller.

    ``total_s`` counts only the outermost span of a layer, so a recursive
    call is not counted twice; ``self_s`` is the span's duration minus the
    durations of its direct child spans.
    """
    layers = list(spans["layers"])
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=name.size)
    own = dur - child
    out = {}
    for nid, layer in enumerate(layers):
        mine = name == nid
        outer = mine & ~_under(name, parent, nid)
        out[layer] = {
            "calls": int(mine.sum()),
            "total_s": float(dur[outer].sum()),
            "self_s": float(own[mine].sum()),
        }
    # resolvent evaluations of the block-activated solve only, so that a
    # progressive-hedging run in the same trace does not count
    res = (name == layers.index("operators.resolvent")) & _under(
        name, parent, layers.index("solver.solve")
    )
    for key, layer in (("residual", "solver.kkt_residual"), ("refresh", "solver.scenario_update")):
        out[f"resolvent_in_{key}"] = int((res & _under(name, parent, layers.index(layer))).sum())
    return out
