"""The settings and errors of an FV solve, importable without numpy.

`fv` re-exports every name here. They live apart so that `cli` and
`studies` can read a config's `solver` section and catch a failed solve
without importing `fv`, which loads numpy, and scipy at its first solve:
actions that solve no FV load neither.
"""

from __future__ import annotations

from dataclasses import dataclass


class GridResolutionError(ValueError):
    """Resolution cannot resolve the cover between channels and surface."""


class ConvergenceError(RuntimeError):
    """A linear solve or the coolant march did not converge."""


@dataclass(frozen=True)
class SolverSettings:
    """Settings of every FV solve of a run: the config's `solver` section."""
    resolution: float = 2e-3   # m, target cell size
    tol: float = 1e-8          # relative residual of the returned field's CG
    max_iters: int = 20000     # iterations of that CG call
