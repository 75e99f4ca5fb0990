"""Ensembles of quantum states and mixed+pure decompositions of qubits.

An ensemble is a weighted list of preparations (pure or already-mixed). The
decomposition side goes the other way: given a qubit density operator, write
it as a diagonal mixed part plus pure components. Unchecked column kernels
hold the qubit formulas: ``_three_preparations`` the three-preparation
ensemble's operator and natural split, for ``assemble``, ``natural_split``
and ``entropy.ordering_scan``; ``_family`` the one-pure family by pure
weight p2, with the off-diagonal's phase on the pure amplitudes. One rule
names the member at each weight: heavy on |0> where that is valid, else
heavy on |1>. Its rows give ``split_family``, ``symmetric_split`` and
``enumerate_splits``, its columns ``decompose`` and the balanced family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NoValidSplit, ValidationError
from .linalg import (
    CONTRACT_TOL,
    NEGLIGIBLE_OFFDIAG,
    ROUNDING_SLACK,
    DensityOperator,
    PureState,
    _int_repr,
    _mix,
    _projector,
    _require_unit,
    check_grid_size,
    check_weights,
)


@dataclass(frozen=True, eq=False)
class EnsembleComponent:
    """One preparation in an ensemble: a weight with a pure or mixed state.

    Only the state's type is checked here; the weight is checked, with the
    others, in an ``Ensemble``. ``operator()`` is the raw matrix it sums.
    """

    weight: float
    state: PureState | DensityOperator

    def __post_init__(self) -> None:
        if not isinstance(self.state, (PureState, DensityOperator)):
            raise ValidationError(f"state must be PureState or DensityOperator, got {type(self.state).__name__}")

    @property
    def dim(self) -> int:
        return self.state.dim

    @property
    def is_pure(self) -> bool:
        return isinstance(self.state, PureState)

    def operator(self) -> np.ndarray:
        """The component's raw matrix: a pure state's projector, or the operator's matrix."""
        return self.state.projector() if self.is_pure else self.state.matrix


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Nonempty weighted collection of same-dimension states, weights summing to 1.

    The components' weights pass ``check_weights``; the ensemble keeps
    components carrying the clamped weights it returns.
    """

    components: tuple[EnsembleComponent, ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        weights = check_weights([c.weight for c in comps], "ensemble weights")
        comps = tuple(EnsembleComponent(float(w), c.state) for w, c in zip(weights, comps))
        dim = comps[0].dim
        for c in comps:
            if c.dim != dim:
                raise DimensionMismatch(f"component dims differ: {c.dim} vs {dim}")
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class QubitEnsembleSpec:
    """Three-preparation qubit ensemble: |0> and |1> plus one superposition.

    Weights p0, p1, p2 sum to 1; the superposed state has real amplitudes
    (u, v) with u^2 + v^2 = 1.
    """

    p0: float
    p1: float
    p2: float
    u: float
    v: float

    def __post_init__(self) -> None:
        weights = check_weights([self.p0, self.p1, self.p2], "p0, p1, p2")
        for name, w in zip(("p0", "p1", "p2"), weights):
            object.__setattr__(self, name, float(w))
        u = float(self.u)
        v = float(self.v)
        if not (math.isfinite(u) and math.isfinite(v)):
            raise ValidationError("amplitudes must be finite")
        _require_unit(u * u + v * v, "u^2 + v^2 =", ValidationError)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def from_u_squared(cls, p0: float, p1: float, p2: float, u_squared: float) -> QubitEnsembleSpec:
        """Build from u^2, taking both amplitudes nonnegative."""
        u2 = float(u_squared)
        if not math.isfinite(u2) or u2 < -ROUNDING_SLACK or u2 > 1.0 + ROUNDING_SLACK:
            raise ValidationError(f"u_squared = {u_squared!r} outside [0, 1]")
        u2 = min(max(u2, 0.0), 1.0)
        return cls(p0, p1, p2, math.sqrt(u2), math.sqrt(1.0 - u2))

    def superposed(self) -> PureState:
        return PureState(np.array([self.u, self.v], dtype=np.complex128))

    def natural_split(self) -> MixedPureSplit:
        """The split the ensemble itself dictates: basis weights mixed, rest pure.

        Built directly from (p0, p1, p2, u, v) with no absorption, so ordering
        violations show up as computed.
        """
        *_, mixed_weight, diagonal = _three_preparations(self.p0, self.p1, self.p2, self.u, self.v)
        pures = ((self.p2, self.superposed()),) if self.p2 > 0.0 else ()
        return MixedPureSplit(mixed_weight[0], diagonal[0], pures)


def _three_preparations(p0, p1, p2, u, v) -> tuple[np.ndarray, ...]:
    """Three-preparation ensembles over broadcast columns, unchecked: x, y, a and the natural split.

    x = p0 + p2 u^2, y = p1 + p2 v^2, a = p2 u v; mixed weight p0 + p1 on (p0, p1) / (p0 + p1), or (1/2, 1/2).
    """
    p0, p1, p2, u, v = np.broadcast_arrays(*np.atleast_1d(p0, p1, p2, u, v))
    mixed = p0 + p1
    diagonal = np.divide(
        np.stack((p0, p1), axis=-1), mixed[:, None], out=np.full((mixed.size, 2), 0.5), where=mixed[:, None] > 0.0
    )
    return p0 + p2 * u * u, p1 + p2 * v * v, p2 * u * v, mixed, diagonal


def assemble(spec: QubitEnsembleSpec) -> DensityOperator:
    """Density operator of the three-preparation ensemble: [[x, a], [a, y]] of ``_three_preparations``."""
    x, y, a = (c[0] for c in _three_preparations(spec.p0, spec.p1, spec.p2, spec.u, spec.v)[:3])
    return DensityOperator(np.array([[x, a], [a, y]], dtype=np.complex128))


def assemble_general(ensemble: Ensemble) -> DensityOperator:
    """Weighted average of an ensemble's operators, summed unchecked: the ensemble checked its parts."""
    return DensityOperator(_mix((c.weight, c.operator()) for c in ensemble.components))


@dataclass(frozen=True, eq=False)
class MixedPureSplit:
    """A density operator written as a diagonal mixture plus pure components.

    mixed_weight scales diag(mixed_diagonal); each (weight, state) pair in
    `pures` scales a projector. The weights, and separately the mixed
    diagonal, pass ``check_weights``: nonnegative after clamping, totalling 1
    within 1e-9. The mixed diagonal is a probability vector even when its
    weight is 0 (a uniform placeholder keeps it meaningful).
    """

    mixed_weight: float
    mixed_diagonal: np.ndarray
    pures: tuple[tuple[float, PureState], ...]

    def __post_init__(self) -> None:
        pures = tuple(self.pures)
        states = tuple(ps for _, ps in pures)
        weights = check_weights([self.mixed_weight, *(pw for pw, _ in pures)], "split weights")
        diag = check_weights(self.mixed_diagonal, "mixed_diagonal")
        for ps in states:
            if ps.dim != diag.size:
                raise DimensionMismatch(f"pure component dim {ps.dim} vs diagonal size {diag.size}")
        diag.setflags(write=False)
        object.__setattr__(self, "mixed_weight", float(weights[0]))
        object.__setattr__(self, "mixed_diagonal", diag)
        object.__setattr__(self, "pures", tuple(zip(map(float, weights[1:]), states)))

    @property
    def dim(self) -> int:
        return self.mixed_diagonal.shape[0]

    @property
    def pure_weight(self) -> float:
        """Total weight carried by the pure components."""
        return float(sum(pw for pw, _ in self.pures))

    def _matrix(self) -> np.ndarray:
        pures = ((pw, ps.projector()) for pw, ps in self.pures)
        return _mix(((self.mixed_weight, np.diag(self.mixed_diagonal)), *pures))

    def reconstruct(self) -> DensityOperator:
        """The operator the split sums to, as a validated DensityOperator."""
        return DensityOperator(self._matrix())

    def residual(self, op: DensityOperator) -> float:
        """Largest entrywise gap between the split's sum and `op`, of the same dimension."""
        if op.dim != self.dim:
            raise DimensionMismatch(f"dim-{self.dim} split against a dim-{op.dim} operator")
        return float(np.max(np.abs(self._matrix() - op.matrix)))


def _offdiag_polar(op: DensityOperator) -> tuple[float, complex]:
    """Magnitude of a qubit's upper off-diagonal and its unit phase factor."""
    if op.dim != 2:
        raise DimensionMismatch(f"splits are defined for qubits, got dim {op.dim}")
    r = abs(op.a)
    return r, op.a / r if r > 0.0 else complex(1.0)


class _Family(NamedTuple):
    """One-pure family members as columns, one row each; ``_family`` builds them.

    Rows ``too_light`` (p2 below 2|a|) or ``negative`` (a mixed diagonal
    ``nums`` below 0 before clamping) admit no split. Pure weight 0: no pure
    part. ``entropy._composite_rows`` gives the rows' composite entropies.
    """

    too_light: np.ndarray
    negative: np.ndarray
    nums: np.ndarray
    mixed_weight: np.ndarray
    diag: np.ndarray
    pure_weight: np.ndarray
    amps: np.ndarray

    def split(self, k: int) -> MixedPureSplit:
        """Row k as a validated split."""
        pures = ((self.pure_weight[k], PureState(self.amps[k])),) if self.pure_weight[k] > 0.0 else ()
        return MixedPureSplit(self.mixed_weight[k], self.diag[k], pures)

    def residual(self, target: np.ndarray) -> np.ndarray:
        """Each row's ``MixedPureSplit.residual`` against `target`: the same ``_mix``, over stacks."""
        diag = np.zeros((self.diag.shape[0], 2, 2))
        diag[:, (0, 1), (0, 1)] = self.diag
        parts = ((self.mixed_weight[:, None, None], diag), (self.pure_weight[:, None, None], _projector(self.amps)))
        return np.max(np.abs(_mix(parts) - target), axis=(1, 2))


def _family(x, y, r, phase: complex, p2) -> _Family:
    """Members of the family of [[x, r phase], [r phase*, y]] at pure weights p2, unchecked.

    x, y, r and p2 broadcast to one column. Each row solves p2 u v = r with
    u^2 + v^2 = 1, the larger u^2 on |0>, or on |1> (and in ``nums``) where
    |0> leaves a negative mixed diagonal. Rows with r <= NEGLIGIBLE_OFFDIAG
    are all mixed; a mixed weight under ROUNDING_SLACK, or none left, pure.
    """
    x, y, r, p2 = np.broadcast_arrays(*np.atleast_1d(x, y, r, p2))
    negligible = r <= NEGLIGIBLE_OFFDIAG
    with np.errstate(over="ignore"):  # a p2 far below 2|a| gives an inf ratio: too light, as it should
        ratio = 2.0 * r / np.where(negligible, 1.0, p2)
        disc = np.sqrt(np.maximum(1.0 - ratio * ratio, 0.0))
    p2 = np.where(negligible, 0.0, p2)[:, None]  # pure weight 0 leaves the mixed diagonal (x, y)
    squares = np.stack((0.5 * (1.0 + disc), 0.5 * (1.0 - disc)), axis=-1)
    diagonal = np.stack((x, y), axis=-1)
    swap = np.any(diagonal - p2 * squares < -CONTRACT_TOL, axis=-1)
    squares = np.where(swap[:, None], squares[:, ::-1], squares)
    nums = diagonal - p2 * squares
    too_light, negative = ratio > 1.0 + ROUNDING_SLACK, np.any(nums < -CONTRACT_TOL, axis=-1) & ~negligible
    # np.maximum, as check_weights clamps: a -0.0 numerator gives a 0.0 entry, never -0.0.
    mixed = np.maximum(nums, 0.0)
    full = (1.0 - p2[:, 0] < ROUNDING_SLACK) | (mixed.sum(axis=-1) <= 0.0)
    mixed[full] = 0.5
    diag = mixed / mixed.sum(axis=-1, keepdims=True)
    mixed_weight, pure_weight = np.where(full, 0.0, 1.0 - p2[:, 0]), np.where(full, 1.0, p2[:, 0])
    # (s + 0j)(c + d j): CPython's float times complex, (s c - 0.0 d, s d + 0.0 c)
    amps = np.sqrt(squares) * np.array([1.0, complex(phase).conjugate()])
    return _Family(too_light, negative, nums, mixed_weight, diag, pure_weight, amps)


def _one_split(op: DensityOperator, r: float, phase: complex, p2: float) -> MixedPureSplit:
    """The family member with pure weight p2, or NoValidSplit saying why neither branch has one."""
    family = _family(op.x, op.y, r, phase, p2)
    if family.too_light[0]:
        raise NoValidSplit(f"pure weight {p2:.6g} is below twice the off-diagonal magnitude {2.0 * r:.6g}")
    if family.negative[0]:
        num0, num1 = family.nums[0]
        raise NoValidSplit(f"mixed diagonal would be negative: ({num0:.6g}, {num1:.6g}) at p2 = {p2:.6g}")
    return family.split(0)


def split_family(op: DensityOperator, p2: float) -> MixedPureSplit:
    """The one-pure-component decomposition with pure weight p2.

    The larger squared amplitude is on |0> where that leaves a nonnegative
    mixed diagonal, and on |1> otherwise: the member ``enumerate_splits``
    samples at p2. NoValidSplit is raised only where neither branch has a
    split. When the off-diagonal vanishes the pure component degenerates to
    a basis state and is folded into the mixed part, regardless of p2.
    """
    r, phase = _offdiag_polar(op)
    p2f = float(p2)
    if not math.isfinite(p2f) or p2f <= 0.0 or p2f > 1.0 + ROUNDING_SLACK:
        raise ValidationError(f"p2 must lie in (0, 1], got {p2!r}")
    return _one_split(op, r, phase, min(p2f, 1.0))


def symmetric_split(op: DensityOperator) -> MixedPureSplit:
    """The balanced family member: pure weight 2|a| on an equal superposition.

    Mixed part is diag((x-|a|)/(1-2|a|), (y-|a|)/(1-2|a|)). Requires both
    diagonal entries to exceed |a|; a vanishing off-diagonal yields the
    all-mixed split.
    """
    r, phase = _offdiag_polar(op)
    x, y = op.x, op.y
    if r > NEGLIGIBLE_OFFDIAG and (x <= r or y <= r):
        raise NoValidSplit(
            f"balanced split needs both diagonal entries above |a| = {r:.6g}, got ({x:.6g}, {y:.6g})"
        )
    return _one_split(op, r, phase, 2.0 * r)


def pure_weight_bounds(op: DensityOperator) -> tuple[float, float]:
    """Bracketing [p2_min, p2_max] interval for one-pure splits.

    p2_min = 2|a| saturates the off-diagonal constraint; p2_max =
    min(1, d + |a|^2/d) with d the larger diagonal entry is where that
    entry's mixed weight hits zero, the largest weight either branch can
    carry. Positivity of the operator guarantees p2_min <= p2_max. The
    bracket is not always tight from below: when |a| exceeds the smaller
    diagonal entry d', weights under d' + |a|^2/d' admit no split on either
    branch, and enumerate_splits skips them.
    """
    r, _ = _offdiag_polar(op)
    if r <= NEGLIGIBLE_OFFDIAG:
        return 0.0, 0.0
    lo = 2.0 * r
    d = max(op.x, op.y)
    hi = min(1.0, d + r * r / d)
    return lo, max(hi, lo)


def _sampled_family(op: DensityOperator, count: int) -> _Family:
    """The valid rows among `count` pure weights spread over ``pure_weight_bounds(op)``."""
    r, phase = _offdiag_polar(op)
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
        raise ValidationError(f"count must be an integer of at least 1, got {_int_repr(count)}")
    check_grid_size(count, f"count {_int_repr(count)}")
    lo, hi = pure_weight_bounds(op)
    # A vanishing off-diagonal repeats the all-mixed split per sample; a point interval is sampled once.
    points = count if r <= NEGLIGIBLE_OFFDIAG or hi - lo >= ROUNDING_SLACK else 1
    family = _family(op.x, op.y, r, phase, np.linspace(lo, hi, points))
    keep = ~(family.too_light | family.negative)
    return family._make(c[keep] for c in family)


def enumerate_splits(op: DensityOperator, count: int) -> list[MixedPureSplit]:
    """Sample `count` family members across the valid pure-weight interval.

    The grid is linear over [p2_min, p2_max] with both endpoints included.
    Each sample is ``split_family``'s member at its weight; samples
    admitting no split are dropped. Vanishing off-diagonals collapse
    the whole family to the all-mixed split, repeated per sample. A count
    that is not an integer (bools included) or below 1, or above
    MAX_GRID_POINTS, raises ValidationError.
    """
    family = _sampled_family(op, count)
    return [family.split(k) for k in range(family.pure_weight.size)]
