"""Command-line interface.

Reports go to stdout, diagnostics to stderr. Real numbers are printed with
six significant digits, so equal inputs always produce byte-identical
output. Exit codes: 0 success, 2 validation failure, 3 numerical or output
failure; a reader that closes stdout early (``| head``) ends the run with 0 as
well.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import NoValidSplit, NumericalError, ValidationError
from .linalg import DensityOperator, check_grid_size, outer_product
from .ensembles import (
    _family,
    _sampled_family,
    assemble,
    assemble_general,
    split_family,
    symmetric_split,
)
from .entropy import (
    _closed_form_bits,
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


def _fmt(value: float) -> str:
    return f"{float(value):.6g}"


def _fmt_matrix(matrix: np.ndarray) -> str:
    cells, d = _column_cells(matrix.ravel()), matrix.shape[1]
    return "[" + ", ".join("[" + ", ".join(cells[k:k + d]) + "]" for k in range(0, len(cells), d)) + "]"


def _column_cells(column: np.ndarray) -> list[str]:
    # The column's cells. _fmt runs once per distinct float64 bit pattern, not value:
    # -0.0 == 0.0 but they print as "-0" and "0", and NaN is unequal to itself.
    if column.dtype == bool:
        return np.where(column, "true", "false").tolist()
    if np.iscomplexobj(column):  # the real part alone where the imaginary part is zero
        imag = column.imag
        signs, is_real = np.where(imag > 0.0, "+", "-").tolist(), (imag == 0.0).tolist()
        parts = zip(_column_cells(column.real), is_real, signs, _column_cells(abs(imag)))
        return [re if real else f"{re}{sign}{im}j" for re, real, sign, im in parts]
    patterns, inverse = np.unique(
        np.ascontiguousarray(column, dtype=np.float64).view(np.int64), return_inverse=True
    )
    texts = np.array([_fmt(v) for v in patterns.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


def _print_columns(header: list[str], columns) -> None:
    # One CSV line per entry of the array columns, each float formatted once per distinct bit
    # pattern; header and rows go out in one write to the sys.stdout of the moment, so
    # redirect_stdout captures them.
    rows = map(",".join, zip(*map(_column_cells, columns)))
    sys.stdout.write("\n".join([",".join(header), *rows]) + "\n")


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
    s_p = None
    if doc.kind == "pure":
        s_p = pure_entropy(doc.payload)
    elif args.p2 is not None:
        split = split_family(op, args.p2)
    elif doc.kind == "qubit-spec":
        split = doc.payload.natural_split()
    elif op.dim == 2:
        try:
            split = symmetric_split(op)
        except NoValidSplit:
            split = None
    rep = report(op, split)

    if args.csv:
        print(",".join(["s_n", "s_i", "s_ci", "pure_share", "s_p"]))
        cells = [
            _fmt(rep.s_n),
            _fmt(rep.s_i),
            _fmt(rep.s_ci) if rep.s_ci is not None else "",
            _fmt(rep.pure_share) if rep.pure_share is not None else "",
            _fmt(s_p) if s_p is not None else "",
        ]
        print(",".join(cells))
        return 0
    print(f"matrix = {_fmt_matrix(op.matrix)}")
    print(f"s_n = {_fmt(rep.s_n)}")
    print(f"s_i = {_fmt(rep.s_i)}")
    if s_p is not None:
        print(f"s_p = {_fmt(s_p)}")
    if rep.s_ci is not None:
        print(f"s_ci = {_fmt(rep.s_ci)}")
        print(f"pure_share = {_fmt(rep.pure_share)}")
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
    columns = (family.pure_weight, family.mixed_weight, family.diag[:, 0], family.diag[:, 1], family.amps[:, 0],
               family.amps[:, 1], family.residual(op.matrix), s_ci)
    rows = zip(range(1, s_ci.size + 1), (family.pure_weight > 0.0).tolist(), *map(_column_cells, columns))
    if args.csv:
        lines = (
            f"{k},{w},{m},{d0},{d1},{a0 if pure else ''},{a1 if pure else ''},{r},{s}\n"
            for k, pure, w, m, d0, d1, a0, a1, r, s in rows
        )
        header = "index,pure_weight,mixed_weight,mixed_d0,mixed_d1,amp0,amp1,residual,s_ci"
    else:
        lines = (
            f"split {k}:\n  mixed_weight = {m}\n  mixed_diagonal = ({d0}, {d1})\n  "
            + (f"pure: weight = {w}, amplitudes = ({a0}, {a1})" if pure else "pure: none")
            + f"\n  residual = {r}\n  s_ci = {s}\n"
            for k, pure, w, m, d0, d1, a0, a1, r, s in rows
        )
        header = f"matrix = {_fmt_matrix(op.matrix)}"
    sys.stdout.write(header + "\n")
    sys.stdout.writelines(lines)  # row by row, so the whole report is never one string in memory
    return 0


def _balanced_family(step: float) -> tuple[np.ndarray, ...]:
    # Columns of [[1/2, a], [a, 1/2]] and its split 2a |+><+| + (1 - 2a) I/2: the family at
    # p2 = 2a, which unlike symmetric_split is valid at a = 1/2.
    a = grid(0.5, step)
    s_n = _qubit_von_neumann(0.5, 0.5, a)
    s_i = _entropy_bits(np.full((a.size, 2), 0.5))
    family = _family(0.5, 0.5, a, 1.0, 2.0 * a, mirror=False)
    return a, s_n, s_i, *_composite_rows(family.mixed_weight, family.diag, ((family.pure_weight, family.amps),))


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
        _print_columns(["x", "a", "s_ci"], (x, a, _closed_form_bits(x, 1.0 - x, a)))
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
