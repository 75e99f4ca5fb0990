"""Entropy transformation game on qubit states.

A sender prepares the diagonal state diag(lam, 1-lam); the receiver mixes
in a pure state with some weight. The default strategy injects
(sqrt(1-lam), sqrt(lam)) at weight 1/2, which swaps the diagonal and adds
the off-diagonal sqrt(lam(1-lam))/2. entropy_gain measures how much von
Neumann entropy the injection adds; threshold_roots gives, in closed form,
the two lambdas where the gain changes sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import DensityOperator, PureState, _mix
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
    """Sender state after the injection: (1-q) rho_A + q |inj><inj|, summed unchecked."""
    q, lam = config.injection_weight, config.lam
    sender = np.diag([lam, 1.0 - lam])
    return DensityOperator(_mix(((1.0 - q, sender), (q, config.injected_state().projector()))))


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


def threshold_roots() -> ThresholdSolution:
    """Both zero crossings of the default strategy's entropy gain, in closed form.

    The receiver's eigenvalues sit sqrt(lam(1-lam))/2 from 1/2 and the
    sender's |1-2lam|/2, so the gain is zero exactly where the two distances
    match: 5lam^2 - 5lam + 1 = 0, at lam = 1/2 -+ sqrt(5)/10. The gain is
    positive outside the roots and negative between them.
    """
    return ThresholdSolution(0.5 - math.sqrt(5.0) / 10.0, 0.5 + math.sqrt(5.0) / 10.0)


def sweep_game(lambdas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (sender entropy, receiver entropy, gain) of the default strategy.

    One entry per lambda, in input order, each in [0, 1]; the gains equal
    entropy_gain's. Builds no GameConfig.
    """
    lam = np.array([_check_unit_interval("lam", v) for v in lambdas], dtype=np.float64)
    if lam.size == 0:
        raise ValidationError("sweep needs at least one lambda")
    return _default_game(lam)
