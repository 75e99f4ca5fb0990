"""Ensembles of quantum states and mixed+pure decompositions of qubits.

An ensemble is a weighted list of preparations (pure or already-mixed). The
decomposition side goes the other way: given a qubit density operator, write
it as a diagonal mixed part plus pure components. For a real nonnegative
off-diagonal the one-parameter family is indexed by the pure weight p2;
complex or negative off-diagonals are handled by peeling the phase off,
splitting in the canonical frame, and rotating the pure components back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoValidSplit,
    ValidationError,
)
from .linalg import (
    NORM_TOL,
    WEIGHT_TOL,
    DensityOperator,
    PureState,
    check_grid_size,
    check_weights,
    mix,
    outer_product,
)

# Off-diagonal magnitudes below this are treated as zero: the family's pure
# component degenerates to a basis state and is folded into the mixed part.
NEGLIGIBLE_OFFDIAG = 1e-12
# Rounding overshoot past an exact bound (0 <= u^2 <= 1, p2 <= 1, 2|a| <= p2): clamped, not rejected.
BOUND_SLACK = 1e-12
# A pure-weight interval narrower than this is one point, sampled once.
POINT_INTERVAL = 1e-12


@dataclass(frozen=True, eq=False)
class EnsembleComponent:
    """One preparation in an ensemble: a weight with a pure or mixed state.

    Only the state's type is checked here; the weight is checked, with the
    others, when the component enters an ``Ensemble``.
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

    def operator(self) -> DensityOperator:
        """The component as a density operator, projecting pure states."""
        if isinstance(self.state, PureState):
            return outer_product(self.state)
        return self.state


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

    @property
    def dim(self) -> int:
        return self.components[0].dim


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
        norm_sq = u * u + v * v
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValidationError(f"u^2 + v^2 = {norm_sq!r}, off unity by {abs(norm_sq - 1.0):.3e}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def from_u_squared(cls, p0: float, p1: float, p2: float, u_squared: float) -> QubitEnsembleSpec:
        """Build from u^2, taking both amplitudes nonnegative."""
        u2 = float(u_squared)
        if not math.isfinite(u2) or u2 < -BOUND_SLACK or u2 > 1.0 + BOUND_SLACK:
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
        mixed_weight = self.p0 + self.p1
        if mixed_weight > 0.0:
            diagonal = np.array([self.p0, self.p1]) / mixed_weight
        else:
            diagonal = np.array([0.5, 0.5])
        pures = ((self.p2, self.superposed()),) if self.p2 > 0.0 else ()
        return MixedPureSplit(mixed_weight, diagonal, pures)

    def to_ensemble(self) -> Ensemble:
        return Ensemble(
            (
                EnsembleComponent(self.p0, PureState(np.array([1.0, 0.0]))),
                EnsembleComponent(self.p1, PureState(np.array([0.0, 1.0]))),
                EnsembleComponent(self.p2, self.superposed()),
            )
        )


def assemble(spec: QubitEnsembleSpec) -> DensityOperator:
    """Density operator of the three-preparation ensemble.

    Closed form: diagonal (p0 + p2 u^2, p1 + p2 v^2), off-diagonal p2 u v.
    """
    x = spec.p0 + spec.p2 * spec.u * spec.u
    y = spec.p1 + spec.p2 * spec.v * spec.v
    a = spec.p2 * spec.u * spec.v
    return DensityOperator(np.array([[x, a], [a, y]], dtype=np.complex128))


def assemble_general(ensemble: Ensemble) -> DensityOperator:
    """Weighted average of an arbitrary ensemble's operators."""
    return mix((c.weight, c.operator()) for c in ensemble.components)


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

    def reconstruct(self) -> DensityOperator:
        """Reassemble the split through the generic mixing path."""
        parts: list[tuple[float, DensityOperator]] = [
            (self.mixed_weight, DensityOperator(np.diag(self.mixed_diagonal).astype(np.complex128)))
        ]
        parts.extend((pw, outer_product(ps)) for pw, ps in self.pures)
        return mix(parts)

    def residual(self, op: DensityOperator) -> float:
        """Largest entrywise gap between the reassembled split and `op`."""
        return float(np.max(np.abs(self.reconstruct().matrix - op.matrix)))


def _require_qubit(op: DensityOperator) -> None:
    if op.dim != 2:
        raise DimensionMismatch(f"splits are defined for qubits, got dim {op.dim}")


def _offdiag_polar(op: DensityOperator) -> tuple[float, complex]:
    """Magnitude of the upper off-diagonal and its unit phase factor."""
    a = op.a
    r = abs(a)
    phase = a / r if r > 0.0 else complex(1.0)
    return r, phase


def _all_mixed(op: DensityOperator) -> MixedPureSplit:
    diag = np.maximum(op.diagonal(), 0.0)
    return MixedPureSplit(1.0, diag / diag.sum(), ())


def _one_pure_split(
    x: float, y: float, r: float, phase: complex, p2: float, heavy_index: int
) -> MixedPureSplit:
    """Family member with pure weight p2 and one superposed component.

    Solves p2 u v = r with u^2 + v^2 = 1; `heavy_index` picks which basis
    state carries the larger squared amplitude. Raises NoValidSplit when the
    off-diagonal constraint has no real solution or the implied mixed
    diagonal would go negative.
    """
    ratio = 2.0 * r / p2
    if ratio > 1.0 + BOUND_SLACK:
        raise NoValidSplit(
            f"pure weight {p2:.6g} is below twice the off-diagonal magnitude {2.0 * r:.6g}"
        )
    disc = math.sqrt(max(0.0, 1.0 - ratio * ratio))
    big = 0.5 * (1.0 + disc)
    small = 0.5 * (1.0 - disc)
    u2, v2 = (big, small) if heavy_index == 0 else (small, big)
    num0 = x - p2 * u2
    num1 = y - p2 * v2
    if num0 < -WEIGHT_TOL or num1 < -WEIGHT_TOL:
        raise NoValidSplit(
            f"mixed diagonal would be negative: ({num0:.6g}, {num1:.6g}) at p2 = {p2:.6g}"
        )
    pure = PureState(np.array([math.sqrt(u2), math.sqrt(v2) * phase.conjugate()]))
    mixed_weight = 1.0 - p2
    clamped0 = max(num0, 0.0)
    clamped1 = max(num1, 0.0)
    total = clamped0 + clamped1
    if mixed_weight < NEGLIGIBLE_OFFDIAG or total <= 0.0:
        return MixedPureSplit(0.0, np.array([0.5, 0.5]), ((1.0, pure),))
    diagonal = np.array([clamped0, clamped1]) / total
    return MixedPureSplit(mixed_weight, diagonal, ((p2, pure),))


def split_family(op: DensityOperator, p2: float) -> MixedPureSplit:
    """The one-pure-component decomposition with pure weight p2.

    Valid p2 ranges over [2|a|, p2_max] where p2_max keeps the mixed
    diagonal nonnegative. When the off-diagonal vanishes the pure component
    degenerates to a basis state and is folded into the mixed part,
    regardless of p2.
    """
    _require_qubit(op)
    p2f = float(p2)
    if not math.isfinite(p2f) or p2f <= 0.0 or p2f > 1.0 + BOUND_SLACK:
        raise ValidationError(f"p2 must lie in (0, 1], got {p2!r}")
    p2f = min(p2f, 1.0)
    r, phase = _offdiag_polar(op)
    if r <= NEGLIGIBLE_OFFDIAG:
        return _all_mixed(op)
    return _one_pure_split(op.x, op.y, r, phase, p2f, heavy_index=0)


def symmetric_split(op: DensityOperator) -> MixedPureSplit:
    """The balanced family member: pure weight 2|a| on an equal superposition.

    Mixed part is diag((x-|a|)/(1-2|a|), (y-|a|)/(1-2|a|)). Requires both
    diagonal entries to exceed |a|; a vanishing off-diagonal yields the
    all-mixed split.
    """
    _require_qubit(op)
    r, phase = _offdiag_polar(op)
    if r <= NEGLIGIBLE_OFFDIAG:
        return _all_mixed(op)
    x, y = op.x, op.y
    if x <= r or y <= r:
        raise NoValidSplit(
            f"balanced split needs both diagonal entries above |a| = {r:.6g}, got ({x:.6g}, {y:.6g})"
        )
    return _one_pure_split(x, y, r, phase, 2.0 * r, heavy_index=0)


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
    _require_qubit(op)
    r, _ = _offdiag_polar(op)
    if r <= NEGLIGIBLE_OFFDIAG:
        return 0.0, 0.0
    lo = 2.0 * r
    d = max(op.x, op.y)
    hi = min(1.0, d + r * r / d)
    return lo, max(hi, lo)


def enumerate_splits(op: DensityOperator, count: int) -> list[MixedPureSplit]:
    """Sample `count` family members across the valid pure-weight interval.

    The grid is linear over [p2_min, p2_max] with both endpoints included.
    Each sample first tries the heavy-on-|0> branch, then the mirrored one;
    samples admitting neither are dropped. Vanishing off-diagonals collapse
    the whole family to the all-mixed split, repeated per sample. A count
    above MAX_GRID_POINTS raises ValidationError.
    """
    _require_qubit(op)
    n = int(count)
    if n < 1:
        raise ValidationError(f"count must be at least 1, got {count!r}")
    check_grid_size(n, f"count {count!r}")
    r, phase = _offdiag_polar(op)
    if r <= NEGLIGIBLE_OFFDIAG:
        return [_all_mixed(op) for _ in range(n)]
    lo, hi = pure_weight_bounds(op)
    if hi - lo < POINT_INTERVAL or n == 1:
        grid = np.array([lo])
    else:
        grid = np.linspace(lo, hi, n)
    x, y = op.x, op.y
    splits: list[MixedPureSplit] = []
    for p2 in grid:
        for heavy_index in (0, 1):
            try:
                splits.append(_one_pure_split(x, y, r, phase, float(p2), heavy_index))
            except NoValidSplit:
                continue
            break
    return splits
