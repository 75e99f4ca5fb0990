"""Entropy transformation game on qubit states.

A sender prepares the diagonal state diag(lam, 1-lam); the receiver mixes
in a pure state with some weight. The default strategy injects
(sqrt(1-lam), sqrt(lam)) at weight 1/2, which swaps the diagonal and adds
the off-diagonal sqrt(lam(1-lam))/2. entropy_gain measures how much von
Neumann entropy the injection adds; threshold_roots finds where the gain
changes sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoRootFound, TooManyRoots, ValidationError
from .linalg import DensityOperator, PureState, check_grid_size, mix, outer_product
from .entropy import _entropy_bits, von_neumann


def _check_unit_interval(name: str, value: float) -> float:
    v = float(value)
    if not math.isfinite(v) or v < 0.0 or v > 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
    return v


@dataclass(frozen=True, eq=False)
class GameConfig:
    """One round of the game: sender parameter plus injection strategy.

    `injected` of None selects the default pure state
    (sqrt(1-lam), sqrt(lam)).
    """

    lam: float
    injection_weight: float = 0.5
    injected: PureState | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", _check_unit_interval("lam", self.lam))
        object.__setattr__(
            self, "injection_weight", _check_unit_interval("injection_weight", self.injection_weight)
        )
        if self.injected is not None:
            if not isinstance(self.injected, PureState):
                raise ValidationError(f"injected must be a PureState, got {type(self.injected).__name__}")
            if self.injected.dim != 2:
                raise ValidationError(f"injected state must be a qubit, got dim {self.injected.dim}")

    def injected_state(self) -> PureState:
        if self.injected is not None:
            return self.injected
        return PureState(np.array([math.sqrt(1.0 - self.lam), math.sqrt(self.lam)]))


def sender_state(lam: float) -> DensityOperator:
    """The prepared diagonal state diag(lam, 1-lam)."""
    v = _check_unit_interval("lam", lam)
    return DensityOperator(np.diag([v, 1.0 - v]).astype(np.complex128))


def receiver_state(config: GameConfig) -> DensityOperator:
    """Sender state after the injection: (1-q) rho_A + q |inj><inj|."""
    q = config.injection_weight
    return mix(
        (
            (1.0 - q, sender_state(config.lam)),
            (q, outer_product(config.injected_state())),
        )
    )


def _default_game(lam):
    """(sender entropy, receiver entropy, gain) in bits of the default strategy, per checked lam."""
    # The receiver spectrum is 1/2 +- sqrt(lam(1-lam))/2. A float gives floats; an array, columns.
    half_root = 0.5 * np.sqrt(lam * (1.0 - lam))
    sender_entropy = _entropy_bits(np.stack((lam, 1.0 - lam), axis=-1))
    receiver_entropy = _entropy_bits(np.stack((0.5 + half_root, 0.5 - half_root), axis=-1))
    return sender_entropy, receiver_entropy, receiver_entropy - sender_entropy


def entropy_gain(config: GameConfig) -> float:
    """Receiver entropy minus sender entropy, in bits.

    The default strategy reads sweep_game's kernel; other strategies
    diagonalize the mixed state. A zero injection weight returns exactly 0.
    """
    if config.injected is None and config.injection_weight == 0.5:
        return _default_game(config.lam)[2]
    sender_entropy = _entropy_bits(np.array([config.lam, 1.0 - config.lam]))
    return von_neumann(receiver_state(config)) - sender_entropy


@dataclass(frozen=True)
class ThresholdSolution:
    """Both sign-change points of the default strategy's gain."""

    lower_root: float
    upper_root: float
    tolerance: float
    grid_step: float


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


def threshold_roots(tol: float = 1e-9, grid_step: float = 1e-3) -> ThresholdSolution:
    """Locate both zero crossings of the default strategy's entropy gain.

    The gain is positive near the ends of (0, 1) and negative in the
    middle, so exactly two roots exist; they are symmetric about 1/2.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"tol must be positive, got {tol!r}")
    if not (math.isfinite(grid_step) and 0.0 < grid_step < 0.5):
        raise ValidationError(f"grid_step must lie in (0, 0.5), got {grid_step!r}")

    def gain(lam):
        # Bisection steps go through entropy_gain so that traces count them.
        return _default_game(lam)[2] if np.ndim(lam) else entropy_gain(GameConfig(lam))

    lower, upper = _bracket_roots(gain, tol, grid_step, expected=2)
    return ThresholdSolution(lower_root=lower, upper_root=upper, tolerance=tol, grid_step=grid_step)


def sweep_game(lambdas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (sender entropy, receiver entropy, gain) of the default strategy.

    One entry per lambda, in input order, each in [0, 1]; the gains equal
    entropy_gain's. Builds no GameConfig.
    """
    lam = np.array([_check_unit_interval("lam", v) for v in lambdas], dtype=np.float64)
    if lam.size == 0:
        raise ValidationError("sweep needs at least one lambda")
    return _default_game(lam)
