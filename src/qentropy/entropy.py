"""Entropy measures for density operators, ensembles, and splits.

Everything is in bits (base-2 logarithms). Three measures of one operator:
von Neumann entropy of the spectrum, informational entropy of the diagonal,
and the composite entropy of a mixed+pure split, which charges the mixed
part its distribution entropy and each pure component its superposition
entropy. The Holevo quantity and an ordering scan over the
three-preparation qubit family round out the module. The scan is one array
pass: it returns an ``OrderingScan`` of columns, one entry per grid point.

``shannon`` is the one entry that validates a raw vector. The measures of
validated types (DensityOperator, PureState, MixedPureSplit) trust the checks
those types made when they were built and go straight to the entropy kernel,
``_entropy_bits``, which also takes stacked rows for the scan and the sweeps.
``_composite_rows`` is the one home of the composite sum: ``composite`` and
``report`` pass it one split's pure parts, and the scan's natural splits and
the family rows of ``decompose`` and ``_balanced_rows`` pass their one pure
part as columns. ``_balanced_rows`` is the balanced split's one home: table1,
sweep figures 2 and 3 and ``composite_closed_form`` read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, SplitMismatch, ValidationError
from .linalg import (
    CONTRACT_TOL,
    GRID_SLACK,
    RECONSTRUCTION_TOL,
    ROUNDING_SLACK,
    SNAP_ULPS,
    DensityOperator,
    PureState,
    _lapack,
    _require_unit,
    check_grid_size,
    check_weights,
)
from .ensembles import Ensemble, MixedPureSplit, _family, _three_preparations, assemble_general

_EPS = float(np.finfo(np.float64).eps)


def _entropy_bits(p: np.ndarray) -> float | np.ndarray:
    """Entropy in bits of a vector, or of each row along the last axis.

    Unchecked: the maker of `p` validated it. Entries within SNAP_ULPS n eps
    of 0 or 1 (n the length), or above 1, are rounding: their terms are
    exactly 0, so a pure state's spectrum gives 0 and every sum is >= 0. A
    vector drops them and gives a float; rows map them to 1 and give an
    array. Dropping keeps numpy's pairwise-sum order of the other terms,
    which padding would change at eight or more entries.
    """
    snap = SNAP_ULPS * p.shape[-1] * _EPS
    kept = (p > snap) & (p < 1.0 - snap)
    if p.ndim == 1:
        nz = p[kept]
        return float(-np.sum(nz * np.log2(nz))) + 0.0
    nz = np.where(kept, p, 1.0)
    return -np.sum(nz * np.log2(nz), axis=-1) + 0.0


def _qubit_von_neumann(x: np.ndarray, y: np.ndarray, a: np.ndarray) -> np.ndarray:
    """S_n of each real qubit operator [[x, a], [a, y]], unchecked: one stacked LAPACK call."""
    ops = np.empty((a.size, 2, 2), dtype=np.complex128)
    ops[:, 0, 0], ops[:, 1, 1] = x, y
    ops[:, 0, 1] = ops[:, 1, 0] = a
    return _entropy_bits(_lapack(np.linalg.eigvalsh, ops))


def shannon(probabilities) -> float:
    """Shannon entropy of a probability vector, in bits.

    The vector goes through ``check_weights``: entries may dip to -1e-9
    (clamped to zero), and the sum must be 1 within 1e-9; anything else
    raises WeightSumInvalid, a NotAProbabilityVector. Zero entries
    contribute nothing.
    """
    return _entropy_bits(check_weights(probabilities, "probabilities"))


def von_neumann(op: DensityOperator) -> float:
    """Entropy of the operator's spectrum."""
    return _entropy_bits(op.spectrum)


def informational(op: DensityOperator) -> float:
    """Entropy of the operator's diagonal in the reference basis."""
    return _entropy_bits(op.diagonal())


def pure_entropy(state: PureState) -> float:
    """Superposition entropy: Shannon entropy of the squared amplitudes."""
    return _entropy_bits(state.probabilities())


def _composite_rows(mixed_weight, diag, pures) -> tuple:
    """Each row's ``composite`` and pure share, unchecked.

    ``mixed_weight`` weighs the entropy of ``diag``, and each (weight,
    amplitudes) pair of ``pures`` its superposition entropy. Scalars give floats.
    """
    pure_share = sum(weight * _entropy_bits(np.abs(amps) ** 2) for weight, amps in pures) + 0.0
    return mixed_weight * _entropy_bits(diag) + pure_share, pure_share


def composite(split: MixedPureSplit) -> float:
    """Composite entropy of a mixed+pure split.

    The mixed part contributes its weight times the entropy of its
    diagonal; each pure component its weight times its superposition
    entropy.
    """
    pures = ((weight, state.amplitudes) for weight, state in split.pures)
    return _composite_rows(split.mixed_weight, split.mixed_diagonal, pures)[0]


def composite_closed_form(x: float, y: float, a: float) -> float:
    """Composite entropy of the balanced split of [[x, a], [a, y]].

    Expanded form: -(x-a)log2(x-a) - (y-a)log2(y-a) + (1-2a)log2(1-2a) + 2a.
    Requires x + y = 1, a >= 0, and both diagonal entries strictly above a.
    One row of ``_balanced_rows``, the kernel figure 3 sweeps.
    """
    xf, yf, af = float(x), float(y), float(a)
    if not (math.isfinite(xf) and math.isfinite(yf) and math.isfinite(af)):
        raise DomainViolation("arguments must be finite")
    _require_unit(xf + yf, "x + y =", DomainViolation)
    if af < 0.0:
        raise DomainViolation(f"a = {af!r} must be nonnegative")
    if xf <= af or yf <= af:
        raise DomainViolation(
            f"closed form needs x > a and y > a, got x = {xf!r}, y = {yf!r}, a = {af!r}"
        )
    return float(_balanced_rows(xf, yf, af)[0][0])


def _balanced_rows(x, y, a) -> tuple:
    """``_composite_rows`` of the balanced split of each [[x, a], [a, y]], a >= 0, unchecked.

    The balanced split is the one-pure family's member at p2 = 2a.
    """
    family = _family(x, y, a, 1.0, 2.0 * a)
    return _composite_rows(family.mixed_weight, family.diag, ((family.pure_weight, family.amps),))


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
        pures = ((weight, state.amplitudes) for weight, state in split.pures)
        s_ci, pure_share = _composite_rows(split.mixed_weight, split.mixed_diagonal, pures)
    return EntropyReport(
        s_n=von_neumann(op), s_i=informational(op), s_ci=s_ci, pure_share=pure_share
    )


@dataclass(frozen=True)
class HolevoReport:
    """Holevo quantity with the two terms it is built from."""

    chi: float
    s_mix: float
    avg_component_entropy: float


def holevo_quantity(ensemble: Ensemble) -> HolevoReport:
    """Holevo quantity of an ensemble.

    chi = S_n(average state) - sum of weighted component entropies. Pure
    components contribute exactly zero to the sum. chi >= 0 (Holevo 1973),
    so a difference that rounding takes below 0 is 0.
    """
    s_mix = von_neumann(assemble_general(ensemble))
    avg = 0.0
    for comp in ensemble.components:
        if comp.is_pure:
            continue
        avg += comp.weight * von_neumann(comp.state)
    return HolevoReport(chi=max(s_mix - avg, 0.0), s_mix=s_mix, avg_component_entropy=avg)


@dataclass(frozen=True, eq=False)
class OrderingScan:
    """Grid scan of S_n <= S_ci <= S_i over the three-preparation family.

    Every field is an array with one entry per grid point, in the scan's
    order: p0 outermost, then p1, then u^2. The two flags hold each side of
    the ordering with ROUNDING_SLACK.
    """

    p0: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    u_squared: np.ndarray
    s_n: np.ndarray
    s_ci: np.ndarray
    s_i: np.ndarray
    holds_left: np.ndarray
    holds_right: np.ndarray


def grid(limit: float, step: float, name: str = "step") -> np.ndarray:
    """The column 0, step, 2 step, ... up to `limit`, for a step in (0, limit]."""
    if not (math.isfinite(step) and 0.0 < step <= limit):
        raise ValidationError(f"{name} must lie in (0, {limit:g}], got {step!r}")
    points = np.floor(limit / step + GRID_SLACK) + 1.0
    check_grid_size(points, f"{name} {step!r}")
    return np.minimum(np.arange(int(points)) * step, limit)


def ordering_scan(p_step: float = 0.05, u2_step: float = 0.1) -> OrderingScan:
    """Evaluate the entropy ordering on a grid of qubit ensembles.

    Grids p0 and p1 by p_step with p2 = 1 - p0 - p1, and u^2 by u2_step.
    Each point gets S_n, S_ci of the ensemble's own split, S_i, and both
    ordering flags with 1e-12 slack. The left inequality is reported as
    found; it is not universal over this family.

    One array pass, with u = sqrt(u^2) and v = sqrt(1 - u^2): the
    operators and natural splits come from ``_three_preparations``, the
    kernel that assemble and natural_split read at one point, and all
    spectra from one stacked LAPACK call.
    """
    p_grid = grid(1.0, p_step, "p_step")
    u2_grid = grid(1.0, u2_step, "u2_step")
    pairs = p_grid.size * (p_grid.size + 1) // 2
    check_grid_size(pairs * u2_grid.size, f"p_step {p_step!r} with u2_step {u2_step!r}")
    p0, p1 = (c.ravel() for c in np.meshgrid(p_grid, p_grid, indexing="ij"))
    p2 = 1.0 - p0 - p1
    feasible = p2 >= -CONTRACT_TOL
    p0, p1, p2 = (np.repeat(c[feasible], u2_grid.size) for c in (p0, p1, np.maximum(p2, 0.0)))
    u2 = np.tile(u2_grid, np.count_nonzero(feasible))
    amps = np.column_stack((np.sqrt(u2), np.sqrt(1.0 - u2)))
    x, y, a, mixed, diagonal = _three_preparations(p0, p1, p2, amps[:, 0], amps[:, 1])
    s_n = _qubit_von_neumann(x, y, a)
    s_i = _entropy_bits(np.column_stack((x, y)))
    s_ci, _ = _composite_rows(mixed, diagonal, ((p2, amps),))
    return OrderingScan(
        p0=p0, p1=p1, p2=p2, u_squared=u2, s_n=s_n, s_ci=s_ci, s_i=s_i,
        holds_left=s_n <= s_ci + ROUNDING_SLACK,
        holds_right=s_ci <= s_i + ROUNDING_SLACK,
    )
