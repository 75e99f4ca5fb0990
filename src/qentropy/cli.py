"""Command-line interface.

Reports go to stdout, diagnostics to stderr. Real numbers are printed with
six significant digits, so equal inputs always produce byte-identical
output. Exit codes: 0 success, 2 validation failure, 3 numerical or output
failure; a reader that closes stdout early (``| head``) ends the run with 0 as
well.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .errors import NoValidSplit, NumericalError, ValidationError
from .linalg import DensityOperator, check_grid_size, outer_product
from .ensembles import _sampled_family, assemble, assemble_general, split_family, symmetric_split
from .entropy import (
    _balanced_rows,
    _composite_rows,
    _entropy_bits,
    _qubit_von_neumann,
    grid,
    holevo_quantity,
    ordering_scan,
    pure_entropy,
    report,
)
from .game import sweep_game, threshold_roots
from .inputs import InputDocument, load_document


# Every real cell's format, for one value (_fmt) and for a block's distinct values (_column_cells).
_CELL_FORMAT = "%.6g"


def _fmt(value: float) -> str:
    return _CELL_FORMAT % float(value)


def _fmt_many(values: list[float]) -> list[str]:
    # One %-format call for all the values: the NUL separator never occurs in a formatted float.
    return ((_CELL_FORMAT + "\0") * len(values) % tuple(values)).split("\0")[:-1]


def _fmt_matrix(matrix: np.ndarray) -> str:
    cells, d = _column_cells(matrix.ravel()), matrix.shape[1]
    return "[" + ", ".join("[" + ", ".join(cells[k:k + d]) + "]" for k in range(0, len(cells), d)) + "]"


# Boolean cells, indexed by the flag: shared strings, where np.where builds one per cell.
_BOOL_CELLS = np.array(["false", "true"], dtype=object)


def _column_cells(column: np.ndarray) -> list[str]:
    # The column's cells. Each distinct float64 bit pattern within a block is formatted once, not
    # each distinct value: -0.0 == 0.0 but they print as "-0" and "0", and NaN is unequal to itself.
    if column.dtype == bool:
        return _BOOL_CELLS[column.view(np.uint8)].tolist()
    if column.dtype.kind in "iu":  # str(k) at any size, where _fmt would print 1e+06
        return column.astype(str).tolist()
    if np.iscomplexobj(column):  # the real part alone where the imaginary part is zero
        imag = column.imag
        signs, is_real = np.where(imag > 0.0, "+", "-").tolist(), (imag == 0.0).tolist()
        parts = zip(_column_cells(column.real), is_real, signs, _column_cells(abs(imag)))
        return [re if real else f"{re}{sign}{im}j" for re, real, sign, im in parts]
    patterns, inverse = np.unique(
        np.ascontiguousarray(column, dtype=np.float64).view(np.int64), return_inverse=True
    )
    texts = np.array(_fmt_many(patterns.view(np.float64).tolist()), dtype=object)
    return texts[inverse].tolist()


# Rows formatted and written per write: past the largest default or benchmark table (2.7k rows),
# so those are one block, while a capped table's text is never held whole.
_BLOCK_ROWS = 8192


def _print_columns(header: list[str], columns, row=",".join) -> None:
    # The header line, then one line (or record) per entry of the array columns, made by `row`
    # from that entry's cells. Each block of _BLOCK_ROWS entries is one write to the sys.stdout of
    # the moment, so redirect_stdout captures it.
    sys.stdout.write(",".join(header) + "\n")
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        cells = (_column_cells(c[start:start + _BLOCK_ROWS]) for c in columns)
        sys.stdout.write("\n".join(map(row, zip(*cells))) + "\n")


def _document_operator(doc: InputDocument) -> DensityOperator:
    if doc.kind == "density":
        return doc.payload
    if doc.kind == "pure":
        return outer_product(doc.payload)
    if doc.kind == "ensemble":
        return assemble_general(doc.payload)
    if doc.kind == "qubit-spec":
        return assemble(doc.payload)
    raise ValidationError(f"entropy does not accept {doc.kind} documents")


def cmd_entropy(args) -> int:
    doc = load_document(args.input)
    op = _document_operator(doc)

    split = None
    s_p = pure_entropy(doc.payload) if doc.kind == "pure" else None
    if args.p2 is not None:
        split = split_family(op, args.p2)
    elif doc.kind == "qubit-spec":
        split = doc.payload.natural_split()
    elif doc.kind != "pure" and op.dim == 2:
        try:
            split = symmetric_split(op)
        except NoValidSplit:
            split = None
    rep = report(op, split)

    values = {"s_n": rep.s_n, "s_i": rep.s_i, "s_p": s_p, "s_ci": rep.s_ci, "pure_share": rep.pure_share}
    cells = {name: _fmt(value) for name, value in values.items() if value is not None}
    if args.csv:
        names = ["s_n", "s_i", "s_ci", "pure_share", "s_p"]
        print(",".join(names))
        print(",".join(cells.get(name, "") for name in names))
        return 0
    print(f"matrix = {_fmt_matrix(op.matrix)}")
    for name, cell in cells.items():
        print(f"{name} = {cell}")
    return 0


def cmd_decompose(args) -> int:
    doc = load_document(args.input)
    if doc.kind != "density":
        raise ValidationError(f"decompose needs a density document, got {doc.kind!r}")
    op = doc.payload
    family = _sampled_family(op, args.count)
    if not family.pure_weight.size:
        print("no valid splits in the sampled range", file=sys.stderr)
        return 0
    s_ci, _ = _composite_rows(family.mixed_weight, family.diag, ((family.pure_weight, family.amps),))
    columns = (np.arange(1, s_ci.size + 1), family.pure_weight, family.mixed_weight, family.diag[:, 0],
               family.diag[:, 1], family.amps[:, 0], family.amps[:, 1], family.residual(op.matrix), s_ci)
    # A family's rows all have a pure part or none do (_family drops it only for a negligible
    # off-diagonal), so one row form serves the whole run.
    pure = family.pure_weight[0] > 0.0
    if args.csv:
        header = ["index,pure_weight,mixed_weight,mixed_d0,mixed_d1,amp0,amp1,residual,s_ci"]
        template = "{0},{1},{2},{3},{4}," + ("{5},{6}" if pure else ",") + ",{7},{8}"
    else:
        header = [f"matrix = {_fmt_matrix(op.matrix)}"]
        template = (
            "split {0}:\n  mixed_weight = {2}\n  mixed_diagonal = ({3}, {4})\n  "
            + ("pure: weight = {1}, amplitudes = ({5}, {6})" if pure else "pure: none")
            + "\n  residual = {7}\n  s_ci = {8}"
        )
    _print_columns(header, columns, lambda cells: template.format(*cells))
    return 0


def _balanced_family(step: float) -> tuple[np.ndarray, ...]:
    # Columns of [[1/2, a], [a, 1/2]] and its split 2a |+><+| + (1 - 2a) I/2: the family at
    # p2 = 2a, which unlike symmetric_split is valid at a = 1/2.
    a = grid(0.5, step)
    s_n = _qubit_von_neumann(0.5, 0.5, a)
    s_i = _entropy_bits(np.full((a.size, 2), 0.5))
    return a, s_n, s_i, *_balanced_rows(0.5, 0.5, a)


def cmd_table1(args) -> int:
    a, s_n, s_i, _, pure_share = _balanced_family(0.05)
    _print_columns(["a", "s_i", "pure_share", "s_n"], (a, s_i, pure_share, s_n))
    return 0


def cmd_sweep(args) -> int:
    # Each grid is validated before its CSV header, so a rejected step prints nothing.
    step = args.step if args.step is not None else {2: 0.05, 3: 0.05, 5: 0.01}[args.figure]
    if args.figure == 2:
        _print_columns(["a", "s_n", "s_i", "s_ci"], _balanced_family(step)[:4])
        return 0
    if args.figure == 3:
        xs, a_values = grid(1.0, step), grid(0.5, step)
        check_grid_size(xs.size * a_values.size, f"step {step!r}")
        x, a = (c.ravel() for c in np.meshgrid(xs, a_values, indexing="ij"))
        # The closed form's domain with y = 1 - x: both diagonal entries above a.
        inside = (x > a) & (1.0 - x > a)
        x, a = x[inside], a[inside]
        _print_columns(["x", "a", "s_ci"], (x, a, _balanced_rows(x, 1.0 - x, a)[0]))
        if x.size < inside.size:
            print(f"omitted {inside.size - x.size} points outside the closed-form domain", file=sys.stderr)
        return 0
    lambdas = grid(1.0, step)
    _print_columns(["lambda", "s_sender", "s_receiver", "gain"], (lambdas, *sweep_game(lambdas)))
    return 0


def cmd_threshold(args) -> int:
    solution = threshold_roots()
    lower, upper = solution.lower_root, solution.upper_root
    print(f"lower_root = {_fmt(lower)}")
    print(f"upper_root = {_fmt(upper)}")
    intervals = ((0.0, lower), (lower, upper), (upper, 1.0))
    _, _, gains = sweep_game([0.5 * (left + right) for left, right in intervals])
    for (left, right), gain in zip(intervals, gains.tolist()):
        sign = "+" if gain > 0.0 else ("-" if gain < 0.0 else "0")
        print(f"gain sign on ({_fmt(left)}, {_fmt(right)}): {sign}")
    return 0


def cmd_holevo(args) -> int:
    doc = load_document(args.input)
    if doc.kind != "ensemble":
        raise ValidationError(f"holevo needs an ensemble document, got {doc.kind!r}")
    rep = holevo_quantity(doc.payload)
    print(f"chi = {_fmt(rep.chi)}")
    print(f"s_mix = {_fmt(rep.s_mix)}")
    print(f"avg_component_entropy = {_fmt(rep.avg_component_entropy)}")
    return 0


def cmd_theorem_scan(args) -> int:
    scan = ordering_scan(p_step=args.step, u2_step=args.u2_step)
    _print_columns(
        ["p0", "p1", "p2", "u2", "s_n", "s_ci", "s_i", "holds_left", "holds_right"],
        (scan.p0, scan.p1, scan.p2, scan.u_squared, scan.s_n, scan.s_ci, scan.s_i,
         scan.holds_left, scan.holds_right),
    )
    print(
        f"points={scan.p0.size} left_violations={np.count_nonzero(~scan.holds_left)} "
        f"right_violations={np.count_nonzero(~scan.holds_right)}",
        file=sys.stderr,
    )
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one diagnostic line, as for every other error: no usage banner
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qentropy",
        description="Entropy measures, decompositions, and the injection game for qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="entropy measures of one input state")
    p.add_argument("--input", required=True, help="path to a JSON document")
    p.add_argument("--p2", type=float, default=None, help="pure weight selecting a family split")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of text")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("decompose", help="sample mixed+pure splits of a density matrix")
    p.add_argument("--input", required=True, help="path to a density JSON document")
    p.add_argument("--count", type=int, default=5, help="number of pure-weight samples")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of text")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("table1", help="entropy measures of [[1/2, a], [a, 1/2]] on the 0.05 grid")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("sweep", help="CSV sweeps of the entropy measures")
    p.add_argument("--figure", type=int, choices=(2, 3, 5), required=True,
                   help="2: balanced family, 3: closed form over (x, a), 5: game gain")
    p.add_argument("--step", type=float, default=None, help="grid step (defaults per figure)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("threshold", help="zero crossings of the default game strategy")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("holevo", help="Holevo quantity of an ensemble document")
    p.add_argument("--input", required=True, help="path to an ensemble JSON document")
    p.set_defaults(func=cmd_holevo)

    p = sub.add_parser("theorem-scan", help="ordering scan over three-preparation ensembles")
    p.add_argument("--step", type=float, default=0.05, help="grid step for p0 and p1")
    p.add_argument("--u2-step", type=float, default=0.1, dest="u2_step", help="grid step for u^2")
    p.set_defaults(func=cmd_theorem_scan)

    return parser


# The parser main reads, built on first use, so importing the module builds none. Reuse is safe:
# parse_args returns a fresh Namespace per call, and nothing else in the parser changes.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a write that fails fails here, not in the interpreter's final flush
        return code
    except (ValidationError, NumericalError, OSError) as exc:
        if isinstance(exc, OSError):
            # A failed write to stdout (load_document maps read errors to ValidationError). Point
            # stdout at devnull so the interpreter's final flush of what is buffered cannot raise again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                return 0  # the reader left early (`| head`): that is success
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 3


if __name__ == "__main__":
    sys.exit(main())
