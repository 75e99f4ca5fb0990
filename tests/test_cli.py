"""Command-line behavior: output shape, values, determinism, exit codes."""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qentropy as q
from qentropy import cli, ensembles, entropy, game, inputs, linalg
from qentropy.inputs import KINDS, load_document
from qentropy.linalg import MAX_GRID_POINTS, RECONSTRUCTION_TOL

import split_oracle
from conftest import MALFORMED_FILES, QUBIT_EDGE_CASES, qubit_density_matrices

INPUTS = Path(__file__).resolve().parent.parent / "inputs"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parsed_value(out: str, name: str) -> float:
    for line in out.splitlines():
        if line.startswith(f"{name} = "):
            return float(line.split(" = ", 1)[1])
    raise AssertionError(f"no line for {name!r} in output:\n{out}")


def csv_rows(out: str) -> list[list[str]]:
    lines = [line for line in out.splitlines() if line]
    return [line.split(",") for line in lines]


class TestEntropyCommand:
    def test_mixed_qubit_report(self, capsys):
        code, out, _ = run(capsys, "entropy", "--input", str(INPUTS / "mixed_qubit.json"))
        assert code == 0
        assert "matrix = [[0.7, 0.2], [0.2, 0.3]]" in out
        assert parsed_value(out, "s_n") == pytest.approx(0.755, abs=1e-3)
        assert parsed_value(out, "s_i") == pytest.approx(0.881, abs=1e-3)
        assert parsed_value(out, "s_ci") == pytest.approx(0.790, abs=1e-3)
        assert parsed_value(out, "pure_share") == pytest.approx(0.4, abs=1e-6)

    def test_csv_mode(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "--input", str(INPUTS / "mixed_qubit.json"), "--csv"
        )
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["s_n", "s_i", "s_ci", "pure_share", "s_p"]
        assert float(rows[1][0]) == pytest.approx(0.754943, abs=1e-6)
        assert rows[1][4] == ""

    def test_pure_document(self, capsys):
        code, out, _ = run(capsys, "entropy", "--input", str(INPUTS / "basis_state.json"))
        assert code == 0
        assert parsed_value(out, "s_n") == 0.0
        assert parsed_value(out, "s_p") == 0.0
        assert "s_ci" not in out

    def test_qubit_without_balanced_split_prints_no_composite(self, capsys, tmp_path):
        # |a| = 0.29 is above x = 0.1, so no balanced split exists: s_n and s_i only.
        doc = tmp_path / "no_split.json"
        doc.write_text(json.dumps({"kind": "density", "re": [[0.1, 0.29], [0.29, 0.9]]}))
        code, out, _ = run(capsys, "entropy", "--input", str(doc))
        assert code == 0
        assert [line.split(" = ")[0] for line in out.splitlines()] == ["matrix", "s_n", "s_i"]

    def test_qubit_spec_echoes_assembled_matrix(self, capsys):
        code, out, _ = run(capsys, "entropy", "--input", str(INPUTS / "three_preparation.json"))
        assert code == 0
        assert "0.592" in out
        expected = q.composite(
            q.MixedPureSplit(
                0.7,
                np.array([4.0 / 7.0, 3.0 / 7.0]),
                ((0.3, q.PureState(np.array([0.8, 0.6]))),),
            )
        )
        assert parsed_value(out, "s_ci") == pytest.approx(expected, abs=1e-6)

    def test_explicit_p2_selects_family_member(self, capsys):
        code, out, _ = run(
            capsys,
            "entropy", "--input", str(INPUTS / "asymmetric_qubit.json"), "--p2", "0.4",
        )
        assert code == 0
        op = q.make_density([[0.592, 0.144], [0.144, 0.408]])
        expected = q.composite(q.split_family(op, 0.4))
        assert parsed_value(out, "s_ci") == pytest.approx(expected, abs=1e-6)

    def test_ensemble_document(self, capsys):
        code, out, _ = run(capsys, "entropy", "--input", str(INPUTS / "mixed_pure_ensemble.json"))
        assert code == 0
        assert parsed_value(out, "s_n") == pytest.approx(
            -0.75 * math.log2(0.75) - 0.25 * math.log2(0.25), abs=1e-6
        )

    def test_game_document_rejected(self, capsys):
        code, _, err = run(capsys, "entropy", "--input", str(INPUTS / "game_default.json"))
        assert code == 2
        assert "game" in err

    def test_invalid_p2_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "entropy", "--input", str(INPUTS / "asymmetric_qubit.json"), "--p2", "0.1",
        )
        assert code == 2
        assert "NoValidSplit" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "entropy", "--input", "no-such-file.json")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "content", [b"{", *MALFORMED_FILES.values()], ids=["truncated", *MALFORMED_FILES]
    )
    def test_malformed_json_exits_2(self, capsys, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, _, err = run(capsys, "entropy", "--input", str(bad))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["nan-entry", "infinity-entry"])
    def test_non_finite_density_exits_2(self, capsys, tmp_path, name):
        bad = tmp_path / "bad.json"
        bad.write_bytes(MALFORMED_FILES[name])
        code, out, err = run(capsys, "entropy", "--input", str(bad))
        assert (code, out, err) == (2, "", "error: ValidationError: matrix contains non-finite entries\n")

    def test_invalid_density_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "indefinite.json"
        bad.write_text(json.dumps({"kind": "density", "re": [[0.7, 0.6], [0.6, 0.3]]}))
        code, _, err = run(capsys, "entropy", "--input", str(bad))
        assert code == 2
        assert "NotPositiveSemidefinite" in err


class TestDecomposeCommand:
    def test_lists_requested_count(self, capsys):
        code, out, _ = run(
            capsys,
            "decompose", "--input", str(INPUTS / "asymmetric_qubit.json"), "--count", "4",
        )
        assert code == 0
        assert out.count("split ") == 4
        residuals = [
            float(line.split(" = ", 1)[1])
            for line in out.splitlines()
            if line.strip().startswith("residual")
        ]
        assert residuals and all(r < 1e-10 for r in residuals)

    def test_csv_shape(self, capsys):
        code, out, _ = run(
            capsys,
            "decompose", "--input", str(INPUTS / "asymmetric_qubit.json"),
            "--count", "3", "--csv",
        )
        assert code == 0
        rows = csv_rows(out)
        assert rows[0][0] == "index"
        assert len(rows) == 4
        pure_weights = [float(r[1]) for r in rows[1:]]
        assert pure_weights[0] == pytest.approx(0.288, abs=1e-6)
        assert pure_weights == sorted(pure_weights)

    def test_maximally_mixed_repeats_trivial_split(self, capsys):
        code, out, _ = run(capsys, "decompose", "--input", str(INPUTS / "maximally_mixed.json"))
        assert code == 0
        assert out.count("split ") == 5
        assert out.count("pure: none") == 5

    def test_complex_off_diagonal_reconstructs(self, capsys):
        code, out, _ = run(
            capsys,
            "decompose", "--input", str(INPUTS / "complex_offdiag_qubit.json"), "--count", "3",
        )
        assert code == 0
        residuals = [
            float(line.split(" = ", 1)[1])
            for line in out.splitlines()
            if line.strip().startswith("residual")
        ]
        assert residuals and all(r < 1e-10 for r in residuals)

    @staticmethod
    def assert_stdout_equals_the_per_point_route(path):
        op = load_document(str(path)).payload
        for count in (1, 2, 5, 257):
            for csv in ((), ("--csv",)):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(["decompose", "--input", str(path), "--count", str(count), *csv])
                expected = split_oracle.decompose_stdout(op, count, bool(csv))
                assert (code, out.getvalue()) == (0, expected), (count, csv)
                assert err.getvalue() == ("" if expected else "no valid splits in the sampled range\n")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(matrix=qubit_density_matrices())
    def test_stdout_equals_the_per_point_route(self, tmp_path_factory, matrix):
        path = tmp_path_factory.mktemp("decompose") / "doc.json"
        path.write_text(json.dumps({"kind": "density", "re": matrix.real.tolist(), "im": matrix.imag.tolist()}))
        self.assert_stdout_equals_the_per_point_route(path)

    @pytest.mark.parametrize("name", sorted(QUBIT_EDGE_CASES))
    def test_edge_case_stdout_equals_the_per_point_route(self, tmp_path, name):
        matrix = np.array(QUBIT_EDGE_CASES[name], dtype=np.complex128)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"kind": "density", "re": matrix.real.tolist(), "im": matrix.imag.tolist()}))
        self.assert_stdout_equals_the_per_point_route(path)

    def test_rejects_non_density(self, capsys):
        code, _, _ = run(capsys, "decompose", "--input", str(INPUTS / "plus_state.json"))
        assert code == 2

    def test_rejects_bad_count(self, capsys):
        code, _, _ = run(
            capsys,
            "decompose", "--input", str(INPUTS / "mixed_qubit.json"), "--count", "0",
        )
        assert code == 2


class TestTable1Command:
    def test_shape_and_anchor_rows(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["a", "s_i", "pure_share", "s_n"]
        assert len(rows) == 12
        first = [float(v) for v in rows[1]]
        assert first == [0.0, 1.0, 0.0, 1.0]
        mid = [float(v) for v in rows[6]]
        assert mid[0] == 0.25
        assert mid[1] == 1.0
        assert mid[2] == pytest.approx(0.5, abs=1e-9)
        assert mid[3] == pytest.approx(0.811278, abs=1e-6)
        last = [float(v) for v in rows[11]]
        assert last[0] == 0.5
        assert last[3] == pytest.approx(0.0, abs=1e-9)

    def test_byte_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, "table1")
        _, second, _ = run(capsys, "table1")
        assert first == second

    @pytest.mark.parametrize("step", [0.05, 0.03, 0.001])
    def test_balanced_columns_equal_the_scalar_route(self, step):
        # The column pass behind table1 and figure 2 against validated objects, bit for bit
        # at every point, where the split must also reconstruct its operator.
        plus = q.PureState(np.full(2, math.sqrt(0.5)))
        columns = cli._balanced_family(step)
        assert columns[0].tolist() == [min(k * step, 0.5) for k in range(columns[0].size)]
        for a, s_n, s_i, s_ci, pure_share in zip(*(c.tolist() for c in columns)):
            op = q.make_density([[0.5, a], [a, 0.5]])
            pures = ((2.0 * a, plus),) if a > 0.0 else ()
            split = q.MixedPureSplit(1.0 - 2.0 * a, np.array([0.5, 0.5]), pures)
            assert split.residual(op) <= RECONSTRUCTION_TOL
            assert s_n == q.von_neumann(op)
            assert s_i == q.informational(op)
            assert s_ci == q.composite(split)
            assert pure_share == q.report(op, split).pure_share


class TestSweepCommand:
    def test_figure_2_default_grid(self, capsys):
        code, out, _ = run(capsys, "sweep", "--figure", "2")
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["a", "s_n", "s_i", "s_ci"]
        assert len(rows) == 12
        for row in rows[1:]:
            assert float(row[2]) == 1.0
            assert float(row[3]) == pytest.approx(1.0, abs=1e-9)
        endpoint = [float(v) for v in rows[11]]
        assert endpoint[1] == pytest.approx(0.0, abs=1e-9)

    def test_figure_3_respects_domain(self, capsys):
        code, out, err = run(capsys, "sweep", "--figure", "3", "--step", "0.25")
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["x", "a", "s_ci"]
        for row in rows[1:]:
            x, a, s_ci = (float(v) for v in row)
            assert x > a and 1.0 - x > a
            assert -1e-12 <= s_ci <= 1.0 + 1e-12
        assert "omitted" in err

    def test_figure_3_balanced_point(self, capsys):
        code, out, _ = run(capsys, "sweep", "--figure", "3", "--step", "0.25")
        assert code == 0
        target = [r for r in csv_rows(out)[1:] if r[0] == "0.5" and r[1] == "0.25"]
        assert len(target) == 1
        assert float(target[0][2]) == pytest.approx(1.0, abs=1e-9)

    def test_figure_5_gain_column(self, capsys):
        code, out, _ = run(capsys, "sweep", "--figure", "5")
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["lambda", "s_sender", "s_receiver", "gain"]
        assert len(rows) == 102
        by_lambda = {row[0]: row for row in rows[1:]}
        center = by_lambda["0.5"]
        assert float(center[3]) == pytest.approx(-0.188722, abs=1e-6)
        edge = by_lambda["0"]
        assert float(edge[3]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "coarse, fine",
        [
            # table1 is the balanced family on the 0.05 grid; figure 2 at step 0.5 has two points.
            (("sweep", "--figure", "2", "--step", "0.5"), ("table1",)),
            (("sweep", "--figure", "2", "--step", "0.05"), ("sweep", "--figure", "2", "--step", "0.001")),
            (("sweep", "--figure", "3", "--step", "0.1"), ("sweep", "--figure", "3", "--step", "0.01")),
            (("sweep", "--figure", "5", "--step", "0.1"), ("sweep", "--figure", "5", "--step", "0.001")),
            (
                ("decompose", "--input", str(INPUTS / "mixed_qubit.json"), "--count", "5"),
                ("decompose", "--input", str(INPUTS / "mixed_qubit.json"), "--count", "50"),
            ),
        ],
        ids=["table1", "figure-2", "figure-3", "figure-5", "decompose"],
    )
    def test_validated_objects_do_not_grow_with_the_grid(self, capsys, monkeypatch, coarse, fine):
        counts = {}
        classes = (q.DensityOperator, q.GameConfig, q.MixedPureSplit, q.PureState)
        for cls in classes:
            original = cls.__post_init__

            def counting(self, name=cls.__name__, original=original):
                counts[name] = counts.get(name, 0) + 1
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        built = []
        for argv in (coarse, fine):
            counts.clear()
            assert run(capsys, *argv)[0] == 0
            built.append([counts.get(cls.__name__, 0) for cls in classes])
        coarse_counts, fine_counts = built
        assert all(f <= c for f, c in zip(fine_counts, coarse_counts)), built

    def test_bad_step_exits_2(self, capsys):
        # Rejected before any CSV header is printed, for every figure.
        for figure in ("2", "3", "5"):
            for step in ("-0.1", "nan", "inf"):
                code, out, err = run(capsys, "sweep", "--figure", figure, "--step", step)
                assert (code, out) == (2, ""), (figure, step)
                assert err.startswith("error: ValidationError: ")


class TestThresholdCommand:
    def test_reports_roots_to_six_figures(self, capsys):
        code, out, _ = run(capsys, "threshold")
        assert code == 0
        assert "lower_root = 0.276393" in out
        assert "upper_root = 0.723607" in out

    def test_sign_pattern(self, capsys):
        _, out, _ = run(capsys, "threshold")
        signs = [line.rsplit(" ", 1)[1] for line in out.splitlines() if line.startswith("gain sign")]
        assert signs == ["+", "-", "+"]

    def test_solver_flags_are_rejected(self, capsys):
        # threshold takes no options: its roots are closed-form.
        code, out, err = run(capsys, "threshold", "--tol", "1e-6", "--step", "0.01")
        assert (code, out) == (2, "")
        assert err.startswith("error: qentropy: unrecognized arguments: ") and err.count("\n") == 1

    def test_numerical_failure_maps_to_3(self, capsys, monkeypatch):
        def boom():
            raise q.ConvergenceFailure("no convergence", residual=0.0)

        monkeypatch.setattr(cli, "threshold_roots", boom)
        code, _, err = run(capsys, "threshold")
        assert code == 3
        assert "ConvergenceFailure" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("entropy", "--input", str(INPUTS / "mixed_qubit.json")),
            # the stacked qubit solve
            ("theorem-scan",),
            ("table1",),
            ("sweep", "--figure", "2"),
        ],
        ids=["entropy", "theorem-scan", "table1", "sweep-figure-2"],
    )
    def test_eigensolver_failure_maps_to_3(self, capsys, monkeypatch, argv):
        def boom(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", boom)
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ConvergenceFailure: ")
        assert "Traceback" not in err


def test_report_computes_the_pure_share_once(capsys, monkeypatch):
    calls = []
    original = entropy._composite_rows

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(entropy, "_composite_rows", counting)
    code, out, _ = run(capsys, "entropy", "--input", str(INPUTS / "mixed_qubit.json"))
    assert code == 0 and "pure_share = " in out
    assert len(calls) == 1


def test_input_is_validated_once(capsys, monkeypatch):
    # A one-state entropy request builds only the operator it reads; holevo checks the ensemble's weights once.
    built = []
    original_post_init = q.DensityOperator.__post_init__

    def counting_post_init(self):
        built.append(self)
        original_post_init(self)

    monkeypatch.setattr(q.DensityOperator, "__post_init__", counting_post_init)
    for name in ("asymmetric_qubit", "mixed_qubit", "three_preparation"):
        built.clear()
        assert run(capsys, "entropy", "--input", str(INPUTS / f"{name}.json"))[0] == 0
        assert len(built) == 1, name

    checks = []
    original_check = linalg.check_weights

    def counting_check(*args, **kwargs):
        checks.append(args)
        return original_check(*args, **kwargs)

    for module in (linalg, ensembles, entropy, game, inputs, cli):
        if getattr(module, "check_weights", None) is original_check:
            monkeypatch.setattr(module, "check_weights", counting_check)
    for name in ("mixed_pure_ensemble", "orthogonal_ensemble"):
        checks.clear()
        assert run(capsys, "holevo", "--input", str(INPUTS / f"{name}.json"))[0] == 0
        assert len(checks) == 1, name


class TestHolevoCommand:
    def test_orthogonal_ensemble(self, capsys):
        code, out, _ = run(capsys, "holevo", "--input", str(INPUTS / "orthogonal_ensemble.json"))
        assert code == 0
        assert parsed_value(out, "chi") == pytest.approx(1.0, abs=1e-9)
        assert parsed_value(out, "avg_component_entropy") == 0.0

    def test_mixed_components(self, capsys):
        code, out, _ = run(capsys, "holevo", "--input", str(INPUTS / "mixed_pure_ensemble.json"))
        assert code == 0
        expected = (-0.75 * math.log2(0.75) - 0.25 * math.log2(0.25)) - 0.5
        assert parsed_value(out, "chi") == pytest.approx(expected, abs=1e-6)

    def test_rejects_non_ensemble(self, capsys):
        code, _, _ = run(capsys, "holevo", "--input", str(INPUTS / "mixed_qubit.json"))
        assert code == 2


class TestTheoremScanCommand:
    def test_csv_and_summary(self, capsys):
        code, out, err = run(capsys, "theorem-scan", "--step", "0.25", "--u2-step", "0.5")
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == [
            "p0", "p1", "p2", "u2", "s_n", "s_ci", "s_i", "holds_left", "holds_right",
        ]
        # 15 feasible (p0, p1) pairs on the 0.25 grid, 3 u^2 values each
        assert len(rows) == 1 + 15 * 3
        assert "right_violations=0" in err
        for row in rows[1:]:
            assert row[8] == "true"

    def test_flags_are_lowercase_booleans(self, capsys):
        _, out, _ = run(capsys, "theorem-scan", "--step", "0.5", "--u2-step", "1")
        flags = {cell for row in csv_rows(out)[1:] for cell in row[7:]}
        assert flags <= {"true", "false"}


def _print_columns_reference(header, columns) -> str:
    # The cell-by-cell route: _fmt on every float, one print per line.
    out = io.StringIO()
    cells = [
        [("true" if v else "false") if c.dtype == bool else cli._fmt(v) for v in c.tolist()]
        for c in columns
    ]
    with redirect_stdout(out):
        print(",".join(header))
        for row in zip(*cells):
            print(",".join(row))
    return out.getvalue()


# Few distinct values, so columns repeat them, with both zeros, NaN, the infinities and subnormals.
_CELL_POOLS = st.lists(
    st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324]),
    min_size=1, max_size=5,
)


@st.composite
def _tables(draw):
    rows = draw(st.integers(0, 40))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            columns.append(np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=bool))
        else:
            pool = draw(_CELL_POOLS)
            picks = draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows))
            columns.append(np.array(picks, dtype=np.float64))
    return [f"c{k}" for k in range(len(columns))], columns


class TestPrintColumns:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(table=_tables())
    @example(table=(["x", "flag"], [np.array([0.0, -0.0, math.nan, -math.nan, 0.0]), np.zeros(5, dtype=bool)]))
    @example(table=(["x", "flag"], [np.array([]), np.array([], dtype=bool)]))
    def test_equals_the_per_cell_route(self, table):
        header, columns = table
        out = io.StringIO()
        with redirect_stdout(out):
            cli._print_columns(header, columns)
        assert out.getvalue() == _print_columns_reference(header, columns)

    def test_theorem_scan_formats_each_distinct_float_once(self, capsys, monkeypatch):
        calls = []
        original = cli._fmt

        def counting(value):
            calls.append(value)
            return original(value)

        monkeypatch.setattr(cli, "_fmt", counting)
        assert run(capsys, "theorem-scan")[0] == 0
        scan = q.ordering_scan()
        floats = (scan.p0, scan.p1, scan.p2, scan.u_squared, scan.s_n, scan.s_ci, scan.s_i)
        assert len(calls) == sum(np.unique(c.view(np.int64)).size for c in floats) == 1989


@pytest.mark.parametrize(
    "argv",
    [
        # one write of ~3.8 MB, far past the pipe buffer
        ("theorem-scan", "--step", "0.02", "--u2-step", "0.02"),
        # ~180 kB written line by line, so a later write meets the closed pipe
        ("decompose", "--input", str(INPUTS / "mixed_qubit.json"), "--count", "1000"),
    ],
    ids=["theorem-scan", "decompose"],
)
def test_closed_pipe_exits_0_without_traceback(argv):
    # As in `qentropy theorem-scan | head -1`: the reader takes one line and closes the pipe.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qentropy.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert first
    assert "Traceback" not in err and "BrokenPipeError" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [("table1",), ("theorem-scan",), ("decompose", "--input", str(INPUTS / "mixed_qubit.json"))],
    ids=["table1", "theorem-scan", "decompose"],
)
def test_full_disk_exits_3_without_traceback(argv):
    # As in `qentropy table1 > /dev/full`: every write to stdout fails with ENOSPC.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "qentropy.cli", *argv], stdout=full, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    err = proc.stderr.decode()
    assert proc.returncode == 3, err
    assert err.startswith("error: OSError: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


class TestArgumentErrors:
    def test_unknown_command_exits_2(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert (code, out) == (2, "")
        assert err.startswith("error: qentropy: ") and err.count("\n") == 1

    def test_missing_required_input_exits_2(self, capsys):
        code, out, err = run(capsys, "entropy")
        assert (code, out) == (2, "")
        assert err.startswith("error: qentropy entropy: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--figure", "2", "--step", "1e-9"),
            ("theorem-scan", "--step", "1e-9"),
            # Each axis is under the cap; their product is not.
            ("sweep", "--figure", "3", "--step", "1e-3"),
            ("theorem-scan", "--step", "1e-3"),
            ("decompose", "--input", str(INPUTS / "mixed_qubit.json"), "--count", "100001"),
        ],
    )
    def test_oversized_grid_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ValidationError: ")
        assert "above the cap of" in err
        assert "Traceback" not in err
        if argv[0] == "decompose":
            assert "100001 grid points" in err


# Arbitrary JSON, with NaN, the infinities and an integer too large for a float among the scalars.
_NUMBER = st.floats() | st.integers(-2, 2) | st.just(10**400)
_SCALARS = st.none() | st.booleans() | st.integers() | _NUMBER | st.text(max_size=6)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_ROW = st.lists(_NUMBER, min_size=1, max_size=3)
_ARRAY = _ROW | st.lists(_ROW, min_size=1, max_size=3)
_NUMBERS = {key: _NUMBER for key in ("p0", "p1", "p2", "u2", "lambda", "injection_weight")}
_KIND_DOCUMENTS = st.fixed_dictionaries(
    {"kind": st.sampled_from(KINDS), "re": _ARRAY},
    optional={"im": _ARRAY, "dim": st.integers(-1, 4), "components": _JSON, **_NUMBERS},
)


# Every float (NaN, the infinities, negatives and subnormals among them) and 0.5.
_FLAG_VALUES = st.floats() | st.sampled_from([0.5, -0.5, 5e-324, -5e-324, 2.2250738585072014e-308])
_FLAGS = [
    ("sweep", "--figure", "2", "--step"),
    ("sweep", "--figure", "3", "--step"),
    ("sweep", "--figure", "5", "--step"),
    ("theorem-scan", "--step"),
    ("theorem-scan", "--u2-step"),
    ("entropy", "--input", str(INPUTS / "mixed_qubit.json"), "--p2"),
]

# Documents whose checks overflow float64: each must exit 2 with one stderr line and no numpy warning.
_OVERFLOWING_DOCUMENTS = [
    {"kind": "density", "re": [[1, 1e308], [1e308, 0]]},
    {"kind": "density", "re": [[0.5, 0.5], [0.5, 0.5]], "im": [[0, 1e308], [-1e308, 0]]},
    {"kind": "density", "re": [[0, 1e308], [-1e308, 1]]},
    {"kind": "density", "re": [[1e308, 0], [0, 1e308]]},
    {"kind": "density", "re": [[1e308, 0], [0, -1e308]]},  # a NaN trace, which passes the trace check
    {"kind": "pure", "re": [1e155, 1e155]},
    {"kind": "ensemble", "components": [{"weight": 1e308, "pure": {"re": [1, 0]}},
                                        {"weight": 1e308, "pure": {"re": [0, 1]}}]},
    {"kind": "qubit-spec", "p0": 1e308, "p1": 1e308, "p2": 0, "u2": 0.5},
]


class TestFuzzedDocuments:
    """Any input file ends in exit code 0, 2 or 3 with at most one stderr line."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(document=_JSON | _KIND_DOCUMENTS)
    @example(document=_OVERFLOWING_DOCUMENTS[0])
    @example(document=_OVERFLOWING_DOCUMENTS[1])
    @example(document=_OVERFLOWING_DOCUMENTS[2])
    @example(document=_OVERFLOWING_DOCUMENTS[3])
    @example(document=_OVERFLOWING_DOCUMENTS[4])
    @example(document=_OVERFLOWING_DOCUMENTS[5])
    @example(document=_OVERFLOWING_DOCUMENTS[6])
    @example(document=_OVERFLOWING_DOCUMENTS[7])
    def test_commands_keep_the_cli_contract(self, tmp_path_factory, document):
        path = tmp_path_factory.mktemp("fuzz") / "doc.json"
        path.write_text(json.dumps(document))
        for command in (["entropy"], ["entropy", "--csv"], ["decompose"], ["holevo"]):
            out, err = io.StringIO(), io.StringIO()
            # A warning would print a second stderr line, so it fails here as an exception.
            with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main([*command, "--input", str(path)])
            assert code in (0, 2, 3)
            assert err.getvalue().count("\n") <= 1

    @pytest.mark.parametrize("document", _OVERFLOWING_DOCUMENTS)
    def test_overflowing_documents_exit_2(self, tmp_path, capsys, document):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "entropy", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(flag=st.sampled_from(_FLAGS), value=_FLAG_VALUES)
    # Steps just under each grid's cap: the most points a run may still take.
    @example(flag=_FLAGS[0], value=0.5 / (MAX_GRID_POINTS - 1))
    @example(flag=_FLAGS[1], value=math.nextafter(1.0 / 446, 1.0))
    @example(flag=_FLAGS[2], value=1.0 / (MAX_GRID_POINTS - 1))
    @example(flag=_FLAGS[3], value=0.0075)
    @example(flag=_FLAGS[4], value=1.0 / 431.5)
    # A pure weight so small that 2|a| / p2 overflows: too light, so exit 2.
    @example(flag=_FLAGS[5], value=1e-300)
    def test_numeric_flags_keep_the_cli_contract(self, flag, value):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([*flag, repr(value)])
        assert code in (0, 2, 3)
        assert err.getvalue().count("\n") <= 1
