"""A fixed computation that times the machine rather than the program.

The benchmark runs on a few cores of a shared host whose speed swings by
up to 1.8x within minutes, and process CPU time swings with wall time.
Solve and write times are therefore reported in units of this loop, timed
in the same run right next to the work they scale: its duration follows
the host's speed but not the program's code, so the ratio follows the
program (about a fifth of the host's swing still shows in it).

The loop mixes what the solvers and the file path spend their time on:
small numpy operations dominated by call overhead, Python float handling
and JSON encoding and decoding.  It never calls ``scensplit``.
"""
from __future__ import annotations

import json

import numpy as np

ROWS, COLS = 64, 6
STEPS = 40
_X0 = np.linspace(-1.5, 1.5, ROWS * COLS).reshape(ROWS, COLS)
_WEIGHTS = np.linspace(0.5, 2.0, ROWS)


def reference_loop() -> float:
    """One unit of fixed work; returns a checksum that never changes."""
    x = _X0
    acc = 0.0
    for k in range(STEPS):
        y = np.clip(x * 1.01 - 0.01 * k, -1.0, 1.0)
        mean = _WEIGHTS @ y / _WEIGHTS.sum()
        x = y - 0.5 * (y - mean)
        acc += float(np.dot(mean, mean))
    text = json.dumps([float(v) for v in x.ravel()])
    return acc + sum(json.loads(text))
