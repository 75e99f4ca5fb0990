"""Validated state containers and Hermitian linear algebra.

Density operators and pure states are frozen dataclasses that validate on
construction and expose read-only arrays. Each invariant is checked once,
where the value is built, and code downstream trusts it: ``check_weights``
is the one check for mixture weights, and ``mix`` the checked route to
``_mix``, which sums parts already validated: one matrix, or an (N, d, d)
stack. It and ``_projector`` end in ``_hermitian_part``, the one (M + M^H) / 2.
LAPACK is the one eigensolver: ``numpy.linalg.eigvalsh`` gives each operator's
spectrum when it is built, ``numpy.linalg.eigh`` the eigenvectors of
``eig_hermitian``. The tests check both against a cyclic Jacobi routine of
their own.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NotHermitian,
    NotPositiveSemidefinite,
    TraceNotOne,
    ValidationError,
    WeightSumInvalid,
)

# The tolerance table: every tolerance in the package, each with its reason.
# How far a validated value may miss its contract: M = M^H, a unit trace, norm or sum, entries >= 0.
CONTRACT_TOL = 1e-9
# Rounding past an exact bound or ordering (p2 <= 1, 2|a| <= p2, S_n <= S_ci), or a one-point width.
ROUNDING_SLACK = 1e-12
# Off-diagonal magnitudes at or below this are zero: a split's pure part folds into its mixed part.
NEGLIGIBLE_OFFDIAG = 1e-12
# Largest entrywise gap between a split's sum and the operator it claims to split.
RECONSTRUCTION_TOL = 1e-8
# Lets limit / step reach a whole number through rounding (0.3 / 0.1 = 2.9999999999999996).
GRID_SLACK = 1e-9
# Entropy entries within SNAP_ULPS * n * eps of 0 or 1 are eigensolver rounding (Higham 2002): 0 or 1.
SNAP_ULPS = 4

# Most points one command's grid, or split sample, may have: ~40x the largest
# default or benchmark grid (2.7k), so no run takes much over 30 s; the largest
# `decompose --count` peaks near 76 MB of RSS (ROADMAP item 3 would bound it).
MAX_GRID_POINTS = 100_000


def _int_repr(n) -> str:
    """repr(n), or, past the interpreter's limit on integer-to-decimal conversion, its size."""
    try:
        return repr(n)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows (4300 by default)
        return f"{'-' if n < 0 else ''}<integer of more than {sys.get_int_max_str_digits()} digits>"


def check_grid_size(points: float, what: str) -> None:
    """Raise ValidationError for more than MAX_GRID_POINTS points; an integer count prints exactly."""
    if points > MAX_GRID_POINTS:
        shown = _int_repr(int(points)) if isinstance(points, (int, np.integer)) else f"{points:.12g}"
        raise ValidationError(f"{what} gives {shown} grid points, above the cap of {MAX_GRID_POINTS}")


def check_weights(weights, what: str) -> np.ndarray:
    """Validate mixture weights; return them as a fresh float vector.

    The vector must be 1-d, non-empty and finite. Entries down to
    -CONTRACT_TOL are clamped to zero, and the sum must be 1 within
    CONTRACT_TOL; anything else raises WeightSumInvalid naming `what`.
    """
    w = np.array(weights, dtype=np.float64)
    if w.ndim != 1 or w.size < 1:
        raise WeightSumInvalid(f"{what} must be a non-empty 1-d vector, got shape {w.shape}")
    for v in w.tolist():
        if not math.isfinite(v) or v < -CONTRACT_TOL:
            raise WeightSumInvalid(f"{what} contain the entry {v!r}, negative or non-finite")
    w = np.maximum(w, 0.0)
    with np.errstate(over="ignore"):  # a sum past float64's range is inf and fails below
        total = float(w.sum())
    _require_unit(total, f"{what} sum to", WeightSumInvalid)
    return w


def _require_unit(value: float, label: str, error: type[ValidationError]) -> None:
    """Raise `error`, naming `label`, `value` and its gap from 1, unless `value` is 1 within CONTRACT_TOL."""
    if abs(value - 1.0) > CONTRACT_TOL:
        raise error(f"{label} {value!r}, off unity by {abs(value - 1.0):.3e}")


def _as_square_complex(matrix) -> np.ndarray:
    m = np.array(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("matrix contains non-finite entries")
    return m


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector over a reference basis."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size < 1:
            raise DimensionMismatch(f"amplitudes must be a 1-d vector, got shape {amps.shape}")
        if not np.isfinite(amps).all():
            raise ValidationError("amplitudes contain non-finite entries")
        with np.errstate(over="ignore"):  # an inf norm fails below
            norm_sq = float(np.sum(np.abs(amps) ** 2))
        _require_unit(norm_sq, "squared norm is", ValidationError)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def probabilities(self) -> np.ndarray:
        """Squared amplitude magnitudes in the reference basis."""
        return np.abs(self.amplitudes) ** 2

    def projector(self) -> np.ndarray:
        """Raw |state><state|, Hermitian part taken as a DensityOperator stores it."""
        return _projector(self.amplitudes)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M^H) / 2 of a matrix, or of each matrix in an (N, d, d) stack."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _projector(amplitudes: np.ndarray) -> np.ndarray:
    """``PureState.projector`` of an amplitude vector, or of each row of an (N, d) stack."""
    return _hermitian_part(amplitudes[..., :, None] * amplitudes.conj()[..., None, :])


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix.

    Construction validates all three properties within CONTRACT_TOL and
    stores an exactly hermitized, read-only copy with its eigenvalues,
    descending and read-only, as ``spectrum``. No eigenvalue, and so no
    diagonal entry, is below -CONTRACT_TOL; the entropy functions rely on
    that and do not check it again. Qubit entries are reachable as ``x``
    (top-left), ``y`` (bottom-right) and ``a`` (upper off-diagonal).
    """

    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = _as_square_complex(self.matrix)
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN fails its check below
            herm_dev = float(np.max(np.abs(m - m.conj().T)))
            m = _hermitian_part(m)
            trace = float(np.trace(m).real)
        if herm_dev > CONTRACT_TOL:
            raise NotHermitian(
                f"max |M - M^H| entry is {herm_dev:.3e}, above tolerance {CONTRACT_TOL:.0e}"
            )
        _require_unit(trace, "trace is", TraceNotOne)
        if not np.isfinite(m).all():  # LAPACK would give NaN eigenvalues, which pass the check below
            raise NotPositiveSemidefinite("Hermitian part overflows: an entry is past float64's range")
        spectrum = _eigvalsh_descending(m)
        if spectrum[-1] < -CONTRACT_TOL:
            raise NotPositiveSemidefinite(
                f"smallest eigenvalue is {spectrum[-1]:.3e}, below -{CONTRACT_TOL:.0e}"
            )
        m.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def _require_qubit(self) -> None:
        if self.dim != 2:
            raise DimensionMismatch(f"qubit accessor used on a dim-{self.dim} operator")

    @property
    def x(self) -> float:
        """Top-left diagonal entry (qubit operators only)."""
        self._require_qubit()
        return float(self.matrix[0, 0].real)

    @property
    def y(self) -> float:
        """Bottom-right diagonal entry (qubit operators only)."""
        self._require_qubit()
        return float(self.matrix[1, 1].real)

    @property
    def a(self) -> complex:
        """Upper off-diagonal entry (qubit operators only)."""
        self._require_qubit()
        return complex(self.matrix[0, 1])

    def diagonal(self) -> np.ndarray:
        """Real parts of the diagonal, as a fresh writable array."""
        return np.real(np.diag(self.matrix)).copy()


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues in descending order and a unitary whose columns are their eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Sum of eigenvalue-weighted projectors, as a raw matrix."""
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


def make_density(matrix) -> DensityOperator:
    """Validate a raw matrix into a DensityOperator.

    Asymmetry up to CONTRACT_TOL is averaged away with the conjugate transpose;
    anything larger raises NotHermitian. Trace and positivity hold within it too.
    """
    return DensityOperator(matrix)


def outer_product(state: PureState) -> DensityOperator:
    """Rank-one projector |state><state|."""
    return DensityOperator(state.projector())


def _mix(pairs) -> np.ndarray:
    """Unchecked sum, Hermitian part taken, of validated (weight, matrix) pairs; (N, 1, 1) weights sum stacks."""
    return _hermitian_part(sum(w * m for w, m in pairs))


def mix(components) -> DensityOperator:
    """Convex combination of density operators: the checked route to ``_mix``.

    `components` is an iterable of (weight, DensityOperator) pairs. The
    weights go through ``check_weights``: entries down to -1e-9 count as 0,
    and the sum must be 1 within 1e-9. Operators must share one dimension.
    """
    pairs = list(components)
    weights = check_weights([w for w, _ in pairs], "mixture weights")
    dim = pairs[0][1].dim
    for _, op in pairs:
        if op.dim != dim:
            raise DimensionMismatch(f"component dims differ: {op.dim} vs {dim}")
    return DensityOperator(_mix(zip(weights, (op.matrix for _, op in pairs))))


def _offdiag_norm(a: np.ndarray) -> float:
    # Frobenius norm of the off-diagonal entries of a matrix, or of a whole stack of them.
    off = a.copy()
    diagonal = np.arange(a.shape[-1])
    off[..., diagonal, diagonal] = 0.0
    return float(np.linalg.norm(off))


def _lapack(solver, m: np.ndarray):
    """Run a LAPACK Hermitian eigensolver (``numpy.linalg.eigvalsh`` or ``eigh``).

    A LAPACK failure to converge raises ConvergenceFailure carrying the
    input's off-diagonal norm as its residual.
    """
    try:
        return solver(m)
    except np.linalg.LinAlgError as exc:
        residual = _offdiag_norm(m)
        raise ConvergenceFailure(
            f"{solver.__name__} failed ({exc}); off-diagonal norm {residual:.3e}", residual=residual
        ) from exc


def _eigvalsh_descending(m: np.ndarray) -> np.ndarray:
    """LAPACK eigenvalues of a Hermitian matrix, stably sorted descending."""
    values = _lapack(np.linalg.eigvalsh, m)
    return values[np.argsort(-values, kind="stable")]


def eig_hermitian(op: DensityOperator) -> SpectralDecomposition:
    """Full spectral decomposition from LAPACK (``numpy.linalg.eigh``).

    Eigenvalues are sorted descending by the same stable sort as
    ``op.spectrum``, and the columns of LAPACK's unitary with them; both are
    handed over read-only. The eigenvalues agree with the spectrum to about
    1e-15 but need not be bit-identical. Each eigenvector's phase, and the
    basis and order chosen inside a degenerate eigenspace, are LAPACK's. A
    diagonal input gives exact unit vectors; where diagonal entries tie,
    LAPACK may list them out of their original order (diag(0.4, 0.4, 0.2)
    lists e1 before e0).
    """
    values, basis = _lapack(np.linalg.eigh, op.matrix)
    order = np.argsort(-values, kind="stable")
    values, basis = values[order], basis[:, order]
    values.setflags(write=False)
    basis.setflags(write=False)
    return SpectralDecomposition(values, basis)


def kron(left: DensityOperator, right: DensityOperator) -> DensityOperator:
    """Tensor product of two density operators."""
    return DensityOperator(np.kron(left.matrix, right.matrix))


def partial_trace(ab: DensityOperator, dim_a: int, dim_b: int, keep: str) -> DensityOperator:
    """Reduced state of one factor of a bipartite operator.

    `keep` selects the surviving factor, "A" or "B"; dim_a and dim_b must
    be integers, not bools, whose product is the operator's dimension.
    """
    if any(isinstance(d, bool) or not isinstance(d, (int, np.integer)) for d in (dim_a, dim_b)):
        raise DimensionMismatch(f"dim_a and dim_b must be integers, got {dim_a!r} and {dim_b!r}")
    if dim_a < 1 or dim_b < 1 or dim_a * dim_b != ab.dim:
        raise DimensionMismatch(
            f"dim_a * dim_b = {dim_a} * {dim_b} does not factor a dim-{ab.dim} operator"
        )
    side = str(keep).upper()
    if side not in ("A", "B"):
        raise ValidationError(f"keep must be 'A' or 'B', got {keep!r}")
    t = ab.matrix.reshape(dim_a, dim_b, dim_a, dim_b)
    if side == "A":
        reduced = np.einsum("ikjk->ij", t)
    else:
        reduced = np.einsum("kikj->ij", t)
    return DensityOperator(reduced)
