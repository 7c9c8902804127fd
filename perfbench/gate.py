"""Per-solve correctness gate.

Each check returns a list of failure messages; an empty list passes.  The
references are the brute-force oracle, progressive hedging and formulas
written out here, never the code path being timed, except that the
block-activated residual is recomputed with ``kkt_residual`` as the
solver's own stopping test.
"""
from __future__ import annotations

import numpy as np

from scensplit.operators import Affine, Box
from scensplit.solver import SolveStatus, kkt_residual

# max-abs distance to the oracle, and between the two solvers, for a run
# stopped at residual 1e-6 on operators with curvature >= 0.5
QBOX_ERR = 1e-5
# rows of one information class are computed from the same averages
CLASS_RTOL = 1e-12
OBJECTIVE_RTOL = 1e-9


def class_spread(tree, x) -> float:
    """Largest difference between rows of one information class, per stage."""
    x = np.asarray(x, dtype=float)
    worst = 0.0
    for block, parts in zip(tree.stage_slices, tree.classes):
        first = np.empty(tree.num_scenarios, dtype=int)
        for members in parts:
            first[list(members)] = members[0]
        worst = max(worst, float(np.max(np.abs(x[:, block] - x[first, block]), initial=0.0)))
    return worst


def _nonanticipative(tree, x) -> list:
    spread = class_spread(tree, x)
    if spread > CLASS_RTOL * (1.0 + float(np.max(np.abs(x), initial=0.0))):
        return [f"x_bar rows differ within an information class by {spread:.3e}"]
    return []


def _converged(status) -> list:
    return [] if status is SolveStatus.CONVERGED else [f"status {status.value}"]


def check_qbox(sol, reference, ph_x) -> list:
    """Oracle distance and agreement with progressive hedging."""
    out = _converged(sol.status)
    err = float(np.max(np.abs(sol.x_bar - reference)))
    if not err <= QBOX_ERR:
        out.append(f"max-abs error {err:.3e} against the oracle")
    gap = float(np.max(np.abs(sol.x_bar - ph_x)))
    if not gap <= QBOX_ERR:
        out.append(f"max-abs gap {gap:.3e} to progressive hedging")
    return out


def check_mixed(problem, sol, x_star, tol: float) -> list:
    """Converged, residual recomputed within tol, nonanticipative rows."""
    out = _converged(sol.status)
    res = kkt_residual(problem, sol.x_bar, x_star, sol.v_star_bar)
    if not res <= tol:
        out.append(f"recomputed residual {res:.3e} above tol {tol:.1e}")
    return out + _nonanticipative(problem.tree, sol.x_bar)


def _cost(f, x) -> float:
    if isinstance(f, Affine):
        return float(np.dot(f.c, x) + f.r)
    return float(0.5 * np.dot(f.q, (x - f.c) ** 2) + f.r)


def tail_risk(probabilities, alpha: float, losses) -> float:
    """min over y of y + E[max(loss - y, 0)] / (1 - alpha).

    The function of y is convex and piecewise linear with kinks at the
    losses, so its minimum is attained at one of them.
    """
    losses = np.asarray(losses, dtype=float)
    excess = np.maximum(losses[None, :] - losses[:, None], 0.0)
    return float(np.min(losses + excess @ probabilities / (1.0 - alpha)))


def check_cvar(cp, csol, tol: float) -> list:
    """Converged, in the boxes up to tol, nonanticipative, objective recomputed.

    The averaged policy of a run stopped at residual ``tol`` meets the
    constraints only up to a multiple of ``tol``; 0.1 * tol is typical.
    """
    out = _converged(csol.inner.status)
    x = csol.x_bar
    for i, cs in enumerate(cp.constraints):
        if isinstance(cs, Box) and not (np.all(x[i] >= cs.lo - tol) and np.all(x[i] <= cs.hi + tol)):
            out.append(f"scenario {i} leaves its box")
            break
    out += _nonanticipative(cp.tree, x)
    ref = tail_risk(cp.tree.probabilities, cp.alpha, [_cost(f, x[i]) for i, f in enumerate(cp.costs)])
    if not abs(csol.objective - ref) <= OBJECTIVE_RTOL * (1.0 + abs(ref)):
        out.append(f"objective {csol.objective!r} differs from the tail risk {ref!r} at x_bar")
    return out
