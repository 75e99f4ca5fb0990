"""Entropy measures for density operators, ensembles, and splits.

Everything is in bits (base-2 logarithms). Three measures of one operator:
von Neumann entropy of the spectrum, informational entropy of the diagonal,
and the composite entropy of a mixed+pure split, which charges the mixed
part its distribution entropy and each pure component its superposition
entropy. The Holevo quantity and an ordering scan over the
three-preparation qubit family round out the module.

``shannon`` is the one entry that validates a raw vector. The measures of
validated types (DensityOperator, PureState, MixedPureSplit) trust the checks
those types made when they were built and go straight to the entropy kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainViolation,
    NotAProbabilityVector,
    SplitMismatch,
    ValidationError,
)
# MAX_GRID_POINTS is re-exported: the grid cap lives in linalg so ensembles can use it.
from .linalg import MAX_GRID_POINTS, TRACE_TOL, WEIGHT_TOL, DensityOperator, PureState, check_grid_size
from .ensembles import (
    Ensemble,
    MixedPureSplit,
    QubitEnsembleSpec,
    assemble,
    assemble_general,
)

PROB_NEG_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-8
ORDERING_SLACK = 1e-12


def _entropy_bits(p: np.ndarray) -> float:
    # Unchecked: callers pass a vector whose maker bounded its entries below
    # at -1e-9 and its sum at 1 within 1e-9.
    p = np.maximum(p, 0.0)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz))) + 0.0


def shannon(probabilities) -> float:
    """Shannon entropy of a probability vector, in bits.

    Entries may dip to -1e-12 (clamped to zero); the sum must be 1 within
    1e-9. Zero entries contribute nothing.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise NotAProbabilityVector(f"expected a 1-d vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise NotAProbabilityVector("vector contains non-finite entries")
    smallest = float(p.min())
    if smallest < -PROB_NEG_TOL:
        raise NotAProbabilityVector(f"entry {smallest!r} is negative")
    total = float(np.maximum(p, 0.0).sum())
    if abs(total - 1.0) > WEIGHT_TOL:
        raise NotAProbabilityVector(f"entries sum to {total!r}, off unity by {abs(total - 1.0):.3e}")
    return _entropy_bits(p)


def von_neumann(op: DensityOperator) -> float:
    """Entropy of the operator's spectrum."""
    return _entropy_bits(op.spectrum)


def informational(op: DensityOperator) -> float:
    """Entropy of the operator's diagonal in the reference basis."""
    return _entropy_bits(op.diagonal())


def pure_entropy(state: PureState) -> float:
    """Superposition entropy: Shannon entropy of the squared amplitudes."""
    return _entropy_bits(state.probabilities())


def _pure_share(split: MixedPureSplit) -> float:
    # The pure components' part of the composite entropy: sum of w_i S_p(psi_i).
    return sum(weight * pure_entropy(state) for weight, state in split.pures) + 0.0


def composite(split: MixedPureSplit) -> float:
    """Composite entropy of a mixed+pure split.

    The mixed part contributes its weight times the entropy of its
    diagonal; each pure component its weight times its superposition
    entropy.
    """
    return split.mixed_weight * _entropy_bits(split.mixed_diagonal) + _pure_share(split)


def composite_closed_form(x: float, y: float, a: float) -> float:
    """Composite entropy of the balanced split of [[x, a], [a, y]].

    Expanded form: -(x-a)log2(x-a) - (y-a)log2(y-a) + (1-2a)log2(1-2a) + 2a.
    Requires x + y = 1, a >= 0, and both diagonal entries strictly above a.
    """
    xf, yf, af = float(x), float(y), float(a)
    if not (math.isfinite(xf) and math.isfinite(yf) and math.isfinite(af)):
        raise DomainViolation("arguments must be finite")
    if abs(xf + yf - 1.0) > TRACE_TOL:
        raise DomainViolation(f"x + y = {xf + yf!r}, off unity by {abs(xf + yf - 1.0):.3e}")
    if af < 0.0:
        raise DomainViolation(f"a = {af!r} must be nonnegative")
    if xf <= af or yf <= af:
        raise DomainViolation(
            f"closed form needs x > a and y > a, got x = {xf!r}, y = {yf!r}, a = {af!r}"
        )

    def plog2p(t: float) -> float:
        return t * math.log2(t) if t > 0.0 else 0.0

    return -plog2p(xf - af) - plog2p(yf - af) + plog2p(1.0 - 2.0 * af) + 2.0 * af


@dataclass(frozen=True)
class EntropyReport:
    """Entropy measures of one operator, optionally with a split's composite.

    pure_share is the pure components' contribution to s_ci; both are None
    when no split was supplied.
    """

    s_n: float
    s_i: float
    s_ci: float | None = None
    pure_share: float | None = None

    def __post_init__(self) -> None:
        for name in ("s_n", "s_i", "s_ci", "pure_share"):
            value = getattr(self, name)
            if value is None:
                continue
            if not math.isfinite(value) or value < -1e-9:
                raise ValidationError(f"{name} = {value!r} is negative or non-finite")


def report(op: DensityOperator, split: MixedPureSplit | None = None) -> EntropyReport:
    """All measures for one operator, with composite when a split is given.

    The split must reconstruct the operator entrywise within 1e-8.
    """
    s_ci = None
    pure_share = None
    if split is not None:
        residual = split.residual(op)
        if residual > RECONSTRUCTION_TOL:
            raise SplitMismatch(
                f"split reconstructs a different operator, max residual {residual:.3e}"
            )
        s_ci = composite(split)
        pure_share = _pure_share(split)
    return EntropyReport(
        s_n=von_neumann(op), s_i=informational(op), s_ci=s_ci, pure_share=pure_share
    )


@dataclass(frozen=True)
class HolevoReport:
    """Holevo quantity with the two terms it is built from."""

    chi: float
    s_mix: float
    avg_component_entropy: float

    def __post_init__(self) -> None:
        if self.chi < -1e-9:
            raise ValidationError(f"chi = {self.chi!r} is negative beyond tolerance")
        gap = abs(self.chi - (self.s_mix - self.avg_component_entropy))
        if gap > 1e-12:
            raise ValidationError(f"chi does not equal s_mix - avg_component_entropy (gap {gap:.3e})")


def holevo_quantity(ensemble: Ensemble) -> HolevoReport:
    """Holevo quantity of an ensemble.

    chi = S_n(average state) - sum of weighted component entropies. Pure
    components contribute exactly zero to the sum.
    """
    s_mix = von_neumann(assemble_general(ensemble))
    avg = 0.0
    for comp in ensemble.components:
        if comp.is_pure:
            continue
        avg += comp.weight * von_neumann(comp.state)
    return HolevoReport(chi=s_mix - avg, s_mix=s_mix, avg_component_entropy=avg)


@dataclass(frozen=True)
class ScanRecord:
    """One grid point of the ordering scan."""

    p0: float
    p1: float
    p2: float
    u_squared: float
    s_n: float
    s_ci: float
    s_i: float
    holds_left: bool
    holds_right: bool


@dataclass(frozen=True, eq=False)
class OrderingScanResult:
    """Grid scan of S_n <= S_ci <= S_i over the three-preparation family."""

    p_step: float
    u2_step: float
    records: tuple[ScanRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def left_violations(self) -> tuple[ScanRecord, ...]:
        """Points where S_n > S_ci beyond slack (the non-universal side)."""
        return tuple(r for r in self.records if not r.holds_left)

    @property
    def right_violations(self) -> tuple[ScanRecord, ...]:
        """Points where S_ci > S_i beyond slack."""
        return tuple(r for r in self.records if not r.holds_right)


def grid(limit: float, step: float, name: str = "step") -> list[float]:
    """Points 0, step, 2 step, ... up to `limit`, for a step in (0, limit]."""
    if not (math.isfinite(step) and 0.0 < step <= limit):
        raise ValidationError(f"{name} must lie in (0, {limit:g}], got {step!r}")
    points = np.floor(limit / step + 1e-9) + 1.0
    check_grid_size(points, f"{name} {step!r}")
    return [min(k * step, limit) for k in range(int(points))]


def ordering_scan(p_step: float = 0.05, u2_step: float = 0.1) -> OrderingScanResult:
    """Evaluate the entropy ordering on a grid of qubit ensembles.

    Grids p0 and p1 by p_step with p2 = 1 - p0 - p1, and u^2 by u2_step.
    Each point records S_n, S_ci of the ensemble's own split, S_i, and both
    ordering flags with 1e-12 slack. The left inequality is reported as
    found; it is not universal over this family.
    """
    p_grid, u2_grid = grid(1.0, p_step, "p_step"), grid(1.0, u2_step, "u2_step")
    pairs = len(p_grid) * (len(p_grid) + 1) // 2
    check_grid_size(pairs * len(u2_grid), f"p_step {p_step!r} with u2_step {u2_step!r}")
    records: list[ScanRecord] = []
    for p0 in p_grid:
        for p1 in p_grid:
            p2 = 1.0 - p0 - p1
            if p2 < -WEIGHT_TOL:
                continue
            p2 = max(p2, 0.0)
            for u2 in u2_grid:
                spec = QubitEnsembleSpec.from_u_squared(p0, p1, p2, u2)
                op = assemble(spec)
                s_n = von_neumann(op)
                s_i = informational(op)
                s_ci = composite(spec.natural_split())
                records.append(
                    ScanRecord(
                        p0=p0,
                        p1=p1,
                        p2=p2,
                        u_squared=u2,
                        s_n=s_n,
                        s_ci=s_ci,
                        s_i=s_i,
                        holds_left=s_n <= s_ci + ORDERING_SLACK,
                        holds_right=s_ci <= s_i + ORDERING_SLACK,
                    )
                )
    return OrderingScanResult(p_step=p_step, u2_step=u2_step, records=tuple(records))
