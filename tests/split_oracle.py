"""Splits built one validated object per point: the tests' reference for the family kernel.

The package computes the one-pure family as columns (``ensembles._family``)
and ``decompose`` prints straight from them. This module keeps the scalar
route the kernel replaced: each sample is solved in Python floats, the
heavy-on-|0> branch tried before the mirrored one, and built as a
``MixedPureSplit``. The tests check the kernel's columns against it with
``==`` and ``decompose``'s stdout against ``decompose_stdout`` byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from qentropy.ensembles import MixedPureSplit, _offdiag_polar, pure_weight_bounds
from qentropy.entropy import composite
from qentropy.errors import NoValidSplit
from qentropy.linalg import CONTRACT_TOL, NEGLIGIBLE_OFFDIAG, ROUNDING_SLACK, DensityOperator, PureState


def all_mixed(op: DensityOperator) -> MixedPureSplit:
    diag = np.maximum(op.diagonal(), 0.0)
    return MixedPureSplit(1.0, diag / diag.sum(), ())


def one_pure_split(
    x: float, y: float, r: float, phase: complex, p2: float, heavy_index: int
) -> MixedPureSplit:
    """Family member with pure weight p2 and one superposed component.

    Solves p2 u v = r with u^2 + v^2 = 1; `heavy_index` picks which basis
    state carries the larger squared amplitude. Raises NoValidSplit when the
    off-diagonal constraint has no real solution or the implied mixed
    diagonal would go negative.
    """
    ratio = 2.0 * r / p2
    if ratio > 1.0 + ROUNDING_SLACK:
        raise NoValidSplit(
            f"pure weight {p2:.6g} is below twice the off-diagonal magnitude {2.0 * r:.6g}"
        )
    disc = math.sqrt(max(0.0, 1.0 - ratio * ratio))
    big = 0.5 * (1.0 + disc)
    small = 0.5 * (1.0 - disc)
    u2, v2 = (big, small) if heavy_index == 0 else (small, big)
    num0 = x - p2 * u2
    num1 = y - p2 * v2
    if num0 < -CONTRACT_TOL or num1 < -CONTRACT_TOL:
        raise NoValidSplit(
            f"mixed diagonal would be negative: ({num0:.6g}, {num1:.6g}) at p2 = {p2:.6g}"
        )
    pure = PureState(np.array([math.sqrt(u2), math.sqrt(v2) * phase.conjugate()]))
    mixed_weight = 1.0 - p2
    clamped0 = max(num0, 0.0)
    clamped1 = max(num1, 0.0)
    total = clamped0 + clamped1
    if mixed_weight < ROUNDING_SLACK or total <= 0.0:
        return MixedPureSplit(0.0, np.array([0.5, 0.5]), ((1.0, pure),))
    diagonal = np.array([clamped0, clamped1]) / total
    return MixedPureSplit(mixed_weight, diagonal, ((p2, pure),))


def split_at(op: DensityOperator, p2: float) -> MixedPureSplit:
    """``split_family``/``symmetric_split`` after their argument checks: heavy on |0> only."""
    r, phase = _offdiag_polar(op)
    if r <= NEGLIGIBLE_OFFDIAG:
        return all_mixed(op)
    return one_pure_split(op.x, op.y, r, phase, p2, heavy_index=0)


def enumerate_splits(op: DensityOperator, count: int) -> list[MixedPureSplit]:
    """The samples of ``ensembles.enumerate_splits``, tried one point and branch at a time."""
    r, phase = _offdiag_polar(op)
    if r <= NEGLIGIBLE_OFFDIAG:
        return [all_mixed(op) for _ in range(count)]
    lo, hi = pure_weight_bounds(op)
    if hi - lo < ROUNDING_SLACK or count == 1:
        grid = np.array([lo])
    else:
        grid = np.linspace(lo, hi, count)
    splits = []
    for p2 in grid:
        for heavy_index in (0, 1):
            try:
                splits.append(one_pure_split(op.x, op.y, r, phase, float(p2), heavy_index))
            except NoValidSplit:
                continue
            break
    return splits


def _fmt(value: float) -> str:
    return f"{float(value):.6g}"


def _fmt_complex(value: complex) -> str:
    z = complex(value)
    if z.imag == 0.0:
        return _fmt(z.real)
    sign = "+" if z.imag >= 0.0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}j"


def decompose_stdout(op: DensityOperator, count: int, csv: bool) -> str:
    """What ``qentropy decompose`` prints for `op`, formatted one cell at a time."""
    splits = enumerate_splits(op, count)
    if not splits:
        return ""
    lines = []
    if csv:
        lines.append("index,pure_weight,mixed_weight,mixed_d0,mixed_d1,amp0,amp1,residual,s_ci")
        for idx, split in enumerate(splits, start=1):
            if split.pures:
                amps = split.pures[0][1].amplitudes
                amp0, amp1 = _fmt_complex(amps[0]), _fmt_complex(amps[1])
            else:
                amp0 = amp1 = ""
            lines.append(",".join([
                str(idx), _fmt(split.pure_weight), _fmt(split.mixed_weight),
                _fmt(split.mixed_diagonal[0]), _fmt(split.mixed_diagonal[1]), amp0, amp1,
                _fmt(split.residual(op)), _fmt(composite(split)),
            ]))
        return "\n".join(lines) + "\n"
    rows = ["[" + ", ".join(_fmt_complex(v) for v in row) + "]" for row in op.matrix]
    lines.append("matrix = [" + ", ".join(rows) + "]")
    for idx, split in enumerate(splits, start=1):
        lines.append(f"split {idx}:")
        lines.append(f"  mixed_weight = {_fmt(split.mixed_weight)}")
        d0, d1 = split.mixed_diagonal
        lines.append(f"  mixed_diagonal = ({_fmt(d0)}, {_fmt(d1)})")
        for weight, state in split.pures:
            a0, a1 = (_fmt_complex(v) for v in state.amplitudes)
            lines.append(f"  pure: weight = {_fmt(weight)}, amplitudes = ({a0}, {a1})")
        if not split.pures:
            lines.append("  pure: none")
        lines.append(f"  residual = {_fmt(split.residual(op))}")
        lines.append(f"  s_ci = {_fmt(composite(split))}")
    return "\n".join(lines) + "\n"
