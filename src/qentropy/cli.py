"""Command-line interface.

Reports go to stdout, diagnostics to stderr. Real numbers are printed with
six significant digits, so equal inputs always produce byte-identical
output. Exit codes: 0 success, 2 validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import DomainViolation, NoValidSplit, NumericalError, ValidationError
from .linalg import DensityOperator, PureState, make_density, outer_product
from .ensembles import (
    MixedPureSplit,
    assemble,
    assemble_general,
    enumerate_splits,
    split_family,
    symmetric_split,
)
from .entropy import (
    check_grid_size,
    composite,
    composite_closed_form,
    grid,
    holevo_quantity,
    informational,
    ordering_scan,
    pure_entropy,
    report,
    von_neumann,
)
from .game import GameConfig, entropy_gain, sweep_game, threshold_roots
from .inputs import InputDocument, load_document


def _fmt(value: float) -> str:
    return f"{float(value):.6g}"


def _fmt_complex(value: complex) -> str:
    z = complex(value)
    if z.imag == 0.0:
        return _fmt(z.real)
    sign = "+" if z.imag >= 0.0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}j"


def _fmt_matrix(matrix: np.ndarray) -> str:
    rows = ["[" + ", ".join(_fmt_complex(v) for v in row) + "]" for row in matrix]
    return "[" + ", ".join(rows) + "]"


def _csv_row(cells) -> str:
    return ",".join(cells)


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
        print(_csv_row(["s_n", "s_i", "s_ci", "pure_share", "s_p"]))
        cells = [
            _fmt(rep.s_n),
            _fmt(rep.s_i),
            _fmt(rep.s_ci) if rep.s_ci is not None else "",
            _fmt(rep.pure_share) if rep.pure_share is not None else "",
            _fmt(s_p) if s_p is not None else "",
        ]
        print(_csv_row(cells))
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
    splits = enumerate_splits(op, args.count)
    if not splits:
        print("no valid splits in the sampled range", file=sys.stderr)
        return 0

    if args.csv:
        print(_csv_row(
            ["index", "pure_weight", "mixed_weight", "mixed_d0", "mixed_d1",
             "amp0", "amp1", "residual", "s_ci"]
        ))
        for idx, split in enumerate(splits, start=1):
            if split.pures:
                weight, state = split.pures[0]
                amp0 = _fmt_complex(state.amplitudes[0])
                amp1 = _fmt_complex(state.amplitudes[1])
            else:
                amp0 = amp1 = ""
            print(_csv_row([
                str(idx),
                _fmt(split.pure_weight),
                _fmt(split.mixed_weight),
                _fmt(split.mixed_diagonal[0]),
                _fmt(split.mixed_diagonal[1]),
                amp0,
                amp1,
                _fmt(split.residual(op)),
                _fmt(composite(split)),
            ]))
        return 0
    print(f"matrix = {_fmt_matrix(op.matrix)}")
    for idx, split in enumerate(splits, start=1):
        print(f"split {idx}:")
        print(f"  mixed_weight = {_fmt(split.mixed_weight)}")
        d0, d1 = split.mixed_diagonal
        print(f"  mixed_diagonal = ({_fmt(d0)}, {_fmt(d1)})")
        if split.pures:
            for weight, state in split.pures:
                a0 = _fmt_complex(state.amplitudes[0])
                a1 = _fmt_complex(state.amplitudes[1])
                print(f"  pure: weight = {_fmt(weight)}, amplitudes = ({a0}, {a1})")
        else:
            print("  pure: none")
        print(f"  residual = {_fmt(split.residual(op))}")
        print(f"  s_ci = {_fmt(composite(split))}")
    return 0


def _balanced_family(a_values: list[float]):
    # (a, [[1/2, a], [a, 1/2]], 2a |+><+| + (1 - 2a) I/2); unlike symmetric_split, valid at a = 1/2.
    plus = PureState(np.array([math.sqrt(0.5), math.sqrt(0.5)]))
    for a in a_values:
        op = make_density(np.array([[0.5, a], [a, 0.5]]))
        pures = ((2.0 * a, plus),) if a > 0.0 else ()
        yield a, op, MixedPureSplit(1.0 - 2.0 * a, np.array([0.5, 0.5]), pures)


def cmd_table1(args) -> int:
    print(_csv_row(["a", "s_i", "pure_share", "s_n"]))
    for a, op, split in _balanced_family(grid(0.5, 0.05)):
        rep = report(op, split)
        print(_csv_row([_fmt(a), _fmt(rep.s_i), _fmt(rep.pure_share), _fmt(rep.s_n)]))
    return 0


def cmd_sweep(args) -> int:
    # Each grid is validated before its CSV header, so a rejected step prints nothing.
    step = args.step if args.step is not None else {2: 0.05, 3: 0.05, 5: 0.01}[args.figure]
    if args.figure == 2:
        a_values = grid(0.5, step)
        print(_csv_row(["a", "s_n", "s_i", "s_ci"]))
        for a, op, split in _balanced_family(a_values):
            print(_csv_row([
                _fmt(a),
                _fmt(von_neumann(op)),
                _fmt(informational(op)),
                _fmt(composite(split)),
            ]))
        return 0
    if args.figure == 3:
        xs, a_values = grid(1.0, step), grid(0.5, step)
        check_grid_size(len(xs) * len(a_values), f"step {step!r}")
        print(_csv_row(["x", "a", "s_ci"]))
        omitted = 0
        for x in xs:
            for a in a_values:
                try:
                    value = composite_closed_form(x, 1.0 - x, a)
                except DomainViolation:
                    omitted += 1
                    continue
                print(_csv_row([_fmt(x), _fmt(a), _fmt(value)]))
        if omitted:
            print(f"omitted {omitted} points outside the closed-form domain", file=sys.stderr)
        return 0
    lambdas = grid(1.0, step)
    print(_csv_row(["lambda", "s_sender", "s_receiver", "gain"]))
    for lam, s_sender, s_receiver, gain in sweep_game(lambdas):
        print(_csv_row([_fmt(lam), _fmt(s_sender), _fmt(s_receiver), _fmt(gain)]))
    return 0


def cmd_threshold(args) -> int:
    solution = threshold_roots(tol=args.tol, grid_step=args.step)
    lower, upper = solution.lower_root, solution.upper_root
    print(f"lower_root = {_fmt(lower)}")
    print(f"upper_root = {_fmt(upper)}")
    for left, right in ((0.0, lower), (lower, upper), (upper, 1.0)):
        mid = 0.5 * (left + right)
        gain = entropy_gain(GameConfig(mid))
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
    result = ordering_scan(p_step=args.step, u2_step=args.u2_step)
    print(_csv_row(["p0", "p1", "p2", "u2", "s_n", "s_ci", "s_i", "holds_left", "holds_right"]))
    for rec in result.records:
        print(_csv_row([
            _fmt(rec.p0), _fmt(rec.p1), _fmt(rec.p2), _fmt(rec.u_squared),
            _fmt(rec.s_n), _fmt(rec.s_ci), _fmt(rec.s_i),
            "true" if rec.holds_left else "false",
            "true" if rec.holds_right else "false",
        ]))
    print(
        f"points={result.total} left_violations={len(result.left_violations)} "
        f"right_violations={len(result.right_violations)}",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--tol", type=float, default=1e-9, help="bisection tolerance")
    p.add_argument("--step", type=float, default=1e-3, help="bracketing grid step")
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
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
