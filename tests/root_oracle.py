"""Grid bracketing and bisection of the game's entropy gain: the tests' root oracle.

The package gives the default strategy's sign changes in closed form,
``threshold_roots``. This module finds them the other way, numerically: it
brackets the sign changes of ``entropy_gain`` on a grid and bisects each one,
so the tests check the closed form against the gain itself.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

import qentropy as q
from qentropy.errors import NumericalError, ValidationError
from qentropy.linalg import check_grid_size


class NoRootFound(NumericalError):
    """Root bracketing found no sign change on the search grid."""


class TooManyRoots(NumericalError):
    """Root bracketing found more sign changes than the problem admits."""

    def __init__(self, message: str, roots: tuple[float, ...]) -> None:
        super().__init__(message)
        self.roots = roots


def _bisect(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    f_lo = f(lo)
    while hi - lo >= tol:
        mid = 0.5 * (lo + hi)
        # Adjacent doubles: the bracket cannot shrink, whatever `tol` asks.
        if mid == lo or mid == hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo = mid
            f_lo = f_mid
    return 0.5 * (lo + hi)


def _bracket_roots(f: Callable, tol: float, grid_step: float, expected: int) -> list[float]:
    """Find sign changes of f on (0, 1) and refine each by bisection.

    `f` takes the grid as one array and each bisection point as a float.
    Raises NoRootFound when fewer than `expected` roots appear and
    TooManyRoots when more do.
    """
    stop = 1.0 - 0.5 * grid_step
    check_grid_size(np.ceil((stop - grid_step) / grid_step), f"grid_step {grid_step!r}")
    xs = np.arange(grid_step, stop, grid_step)
    if xs.size < 2:
        raise ValidationError(f"grid_step {grid_step!r} leaves no interior grid")
    values = f(xs)
    zero = values == 0.0
    # A root at each grid zero, and one bisected inside each strict sign change.
    crossing = ~zero[:-1] & ~zero[1:] & ((values[:-1] < 0.0) != (values[1:] < 0.0))
    roots = [
        float(xs[i]) if zero[i] else _bisect(f, float(xs[i]), float(xs[i + 1]), tol)
        for i in np.flatnonzero(zero | np.append(crossing, False))
    ]
    if len(roots) > expected:
        raise TooManyRoots(
            f"found {len(roots)} sign changes, expected {expected}", roots=tuple(roots)
        )
    if len(roots) < expected:
        raise NoRootFound(f"found {len(roots)} sign changes on the grid, expected {expected}")
    return roots


def threshold_roots(tol: float = 1e-9, grid_step: float = 1e-3) -> q.ThresholdSolution:
    """Both zero crossings of the default strategy's gain, bracketed and bisected."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"tol must be positive, got {tol!r}")
    if not (math.isfinite(grid_step) and 0.0 < grid_step < 0.5):
        raise ValidationError(f"grid_step must lie in (0, 0.5), got {grid_step!r}")

    def gain(lam):
        # The grid as sweep_game's columns, each bisection point as one entropy_gain call.
        return q.sweep_game(lam)[2] if np.ndim(lam) else q.entropy_gain(q.GameConfig(lam))

    return q.ThresholdSolution(*_bracket_roots(gain, tol, grid_step, expected=2))
