"""Release acceptance suite.

Each test covers one numbered release criterion and prints a single
`criterion NN PASS/FAIL` line (run with `pytest -s` to see them). Criteria
1-7 are spot checks against fixed reference numbers and must each finish
inside a one-second budget; criteria 8-12 are randomized invariant sweeps
with fixed seeds.
"""

from __future__ import annotations

import io
import math
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np

import qentropy as q
from qentropy import cli
import split_oracle
from conftest import random_density_matrix

DESK_BUDGET_SECONDS = 1.0


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL: {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"criterion {number:02d} FAIL: {label} (took {elapsed:.3f}s)")
        raise AssertionError(f"criterion {number} ran {elapsed:.3f}s, budget {budget}s")
    print(f"criterion {number:02d} PASS: {label}")


def max_abs(values) -> float:
    return float(np.max(np.abs(values)))


def test_criterion_01_reference_spectrum_and_entropy():
    with criterion(1, "reference qubit spectrum and von Neumann entropy", DESK_BUDGET_SECONDS):
        op = q.make_density([[0.7, 0.2], [0.2, 0.3]])
        decomp = q.eig_hermitian(op)
        assert abs(decomp.eigenvalues[0] - 0.783) <= 1e-3
        assert abs(decomp.eigenvalues[1] - 0.217) <= 1e-3
        assert abs(q.von_neumann(op) - 0.755) <= 1e-3


def test_criterion_02_diagonal_entropy_and_reassembly():
    with criterion(2, "diagonal-part entropy, reassembly, non-additivity gap", DESK_BUDGET_SECONDS):
        target = q.make_density([[0.7, 0.2], [0.2, 0.3]])
        diagonal_part = q.make_density(np.diag([5.0 / 6.0, 1.0 / 6.0]))
        assert abs(q.von_neumann(diagonal_part) - 0.650) <= 1e-3
        plus = q.PureState(np.array([math.sqrt(0.5), math.sqrt(0.5)]))
        rebuilt = q.mix(((0.6, diagonal_part), (0.4, q.outer_product(plus))))
        assert max_abs(rebuilt.matrix - target.matrix) <= 5e-4
        gap = q.von_neumann(target) - q.von_neumann(diagonal_part)
        assert abs(gap - (0.755 - 0.650)) <= 2e-3


BALANCED_GRID = tuple(round(0.05 * k, 2) for k in range(11))
REFERENCE_S_N_ROW = (1.0, 0.993, 0.971, 0.934, 0.881, 0.811, 0.722, 0.610, 0.469, 0.286, 0.0)


def balanced_operator(a: float) -> q.DensityOperator:
    return q.make_density(np.array([[0.5, a], [a, 0.5]]))


def balanced_split(op: q.DensityOperator) -> q.MixedPureSplit:
    try:
        return q.symmetric_split(op)
    except q.NoValidSplit:
        return q.split_family(op, 1.0)


def test_criterion_03_balanced_family_table():
    with criterion(3, "balanced family: s_i, pure share, s_n across the grid", DESK_BUDGET_SECONDS):
        for a, expected_s_n in zip(BALANCED_GRID, REFERENCE_S_N_ROW):
            op = balanced_operator(a)
            rep = q.report(op, balanced_split(op))
            assert abs(rep.s_i - 1.0) <= 1e-12
            assert abs(rep.pure_share - 2.0 * a) <= 1e-12
            assert abs(rep.s_n - expected_s_n) <= 1e-3


def test_criterion_04_excess_peak_location():
    with criterion(4, "pure share plus s_n exceeds s_i the most at a = 0.30", DESK_BUDGET_SECONDS):
        def excess(a: float) -> float:
            op = balanced_operator(a)
            rep = q.report(op, balanced_split(op))
            return rep.pure_share + rep.s_n - rep.s_i

        values = {a: excess(a) for a in BALANCED_GRID}
        assert all(v >= -1e-12 for v in values.values())
        assert max(BALANCED_GRID, key=values.__getitem__) == 0.30


def test_criterion_05_asymmetric_double_split():
    with criterion(5, "two family members of the asymmetric reference qubit", DESK_BUDGET_SECONDS):
        op = q.make_density([[0.592, 0.144], [0.144, 0.408]])

        first = q.split_family(op, 0.3)
        first_products = first.mixed_weight * first.mixed_diagonal
        assert abs(first_products[0] - 0.4) <= 1e-3
        assert abs(first_products[1] - 0.3) <= 1e-3
        first_amps = np.abs(first.pures[0][1].amplitudes)
        assert abs(first_amps[0] - 0.8) <= 1e-3
        assert abs(first_amps[1] - 0.6) <= 1e-3

        second = q.split_family(op, 0.4)
        second_products = second.mixed_weight * second.mixed_diagonal
        assert abs(second_products[0] - 0.2512) <= 5e-3
        assert abs(second_products[1] - 0.3488) <= 5e-3
        projector = q.outer_product(second.pures[0][1]).matrix.real
        reference = np.array([[0.847, 0.36], [0.36, 0.153]])
        assert max_abs(projector - reference) <= 5e-3


def test_criterion_06_gain_sign_thresholds():
    with criterion(6, "gain thresholds near (0.2805, 0.7195), six-decimal report", DESK_BUDGET_SECONDS):
        solution = q.threshold_roots()
        assert abs(solution.lower_root - 0.2805) <= 0.01
        assert abs(solution.upper_root - 0.7195) <= 0.01
        assert abs(solution.lower_root + solution.upper_root - 1.0) <= 1e-6
        midpoints = (
            0.5 * solution.lower_root,
            0.5 * (solution.lower_root + solution.upper_root),
            0.5 * (solution.upper_root + 1.0),
        )
        gains = [q.entropy_gain(q.GameConfig(lam)) for lam in midpoints]
        assert gains[0] > 0.0 and gains[1] < 0.0 and gains[2] > 0.0

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert cli.main(["threshold"]) == 0
        printed = buffer.getvalue()
        assert "lower_root = 0.276393" in printed
        assert "upper_root = 0.723607" in printed


def test_criterion_07_holevo_extremes():
    with criterion(7, "holevo: orthogonal pair saturates, lone component vanishes", DESK_BUDGET_SECONDS):
        basis0 = q.PureState(np.array([1.0, 0.0]))
        basis1 = q.PureState(np.array([0.0, 1.0]))
        pair = q.Ensemble((q.EnsembleComponent(0.5, basis0), q.EnsembleComponent(0.5, basis1)))
        assert abs(q.holevo_quantity(pair).chi - 1.0) <= 1e-12
        lone = q.Ensemble((q.EnsembleComponent(1.0, q.make_density([[0.7, 0.2], [0.2, 0.3]])),))
        assert abs(q.holevo_quantity(lone).chi) <= 1e-12


def test_criterion_08_random_operator_invariants():
    with criterion(8, "1000 random operators: majorization, unit spectra, reconstruction"):
        rng = np.random.default_rng(108)
        for i in range(1000):
            dim = 2 + i % 3
            op = q.make_density(random_density_matrix(rng, dim))
            decomp = q.eig_hermitian(op)
            assert abs(float(decomp.eigenvalues.sum()) - 1.0) <= 1e-8
            assert max_abs(decomp.reconstruct() - op.matrix) < 1e-8
            assert q.informational(op) >= q.von_neumann(op) - 1e-9


def random_offdiagonal_qubit(rng: np.random.Generator) -> q.DensityOperator:
    x = float(rng.uniform(0.05, 0.95))
    y = 1.0 - x
    magnitude = float(rng.uniform(0.0, 0.98)) * math.sqrt(x * y)
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    a = magnitude * complex(math.cos(phi), math.sin(phi))
    return q.make_density(np.array([[x, a], [a.conjugate(), y]]))


def test_criterion_09_random_split_invariants():
    with criterion(9, "1000 random splits: bounded by s_i, reconstruct, closed form"):
        rng = np.random.default_rng(109)
        collected = 0
        attempts = 0
        while collected < 1000:
            attempts += 1
            assert attempts <= 3000, "random split generation stalled"
            op = random_offdiagonal_qubit(rng)
            s_i = q.informational(op)
            for split in q.enumerate_splits(op, 3):
                if collected == 1000:
                    break
                collected += 1
                assert q.composite(split) <= s_i + 1e-9
                assert max_abs(split.reconstruct().matrix - op.matrix) < 1e-10
        for _ in range(100):
            x = float(rng.uniform(0.1, 0.9))
            y = 1.0 - x
            a = float(rng.uniform(0.0, 0.98)) * min(x, y)
            op = q.make_density(np.array([[x, a], [a, y]]))
            expected = split_oracle.balanced_composite(x, y, a)
            assert abs(q.composite(q.symmetric_split(op)) - expected) <= 1e-12
            assert abs(q.composite_closed_form(x, y, a) - expected) <= 1e-12


def test_criterion_10_subadditivity():
    with criterion(10, "joint entropy: subadditive on mixtures, additive on products"):
        rng = np.random.default_rng(110)
        shapes = ((2, 2), (2, 3), (3, 2), (3, 3))
        for i in range(200):
            dim_a, dim_b = shapes[i % 4]
            joint = q.make_density(random_density_matrix(rng, dim_a * dim_b))
            s_ab = q.von_neumann(joint)
            s_a = q.von_neumann(q.partial_trace(joint, dim_a, dim_b, "A"))
            s_b = q.von_neumann(q.partial_trace(joint, dim_a, dim_b, "B"))
            assert s_ab <= s_a + s_b + 1e-9
        for i in range(200):
            dim_a, dim_b = shapes[i % 4]
            left = q.make_density(random_density_matrix(rng, dim_a))
            right = q.make_density(random_density_matrix(rng, dim_b))
            total = q.von_neumann(q.kron(left, right))
            assert abs(total - (q.von_neumann(left) + q.von_neumann(right))) <= 1e-9


def test_criterion_11_ordering_scan():
    with criterion(11, "ordering scan: upper bound clean, lower-bound breaks reported"):
        scan = q.ordering_scan(p_step=0.05, u2_step=0.1)
        assert scan.holds_right.all()
        broken = np.flatnonzero(~scan.holds_left)
        print(
            f"criterion 11 note: {broken.size} of {scan.p0.size} grid points "
            "sit below the spectrum entropy"
        )
        for k in broken[:3]:
            print(
                f"  p0={scan.p0[k]:.2f} p1={scan.p1[k]:.2f} p2={scan.p2[k]:.2f} "
                f"u2={scan.u_squared[k]:.2f} s_n={scan.s_n[k]:.4f} s_ci={scan.s_ci[k]:.4f}"
            )
        assert not scan.holds_left[broken].any()
        assert np.all(scan.s_ci[broken] < scan.s_n[broken] - 1e-12)
        balanced = (abs(scan.p0 - scan.p1) < 1e-12) & (abs(scan.u_squared - 0.5) < 1e-12)
        assert balanced.any()
        assert np.all(scan.holds_left[balanced] & scan.holds_right[balanced])


def test_criterion_12_game_identities():
    with criterion(12, "game identities: symmetry, closed-form receiver, inert zero weight"):
        rng = np.random.default_rng(112)
        for lam in rng.uniform(0.0, 1.0, size=100):
            lam = float(lam)
            forward = q.entropy_gain(q.GameConfig(lam))
            backward = q.entropy_gain(q.GameConfig(1.0 - lam))
            assert abs(forward - backward) <= 1e-12
            h = 0.5 * math.sqrt(lam * (1.0 - lam))
            reference = np.array([[0.5, h], [h, 0.5]])
            receiver = q.receiver_state(q.GameConfig(lam))
            assert max_abs(receiver.matrix - reference) <= 1e-12
            assert q.entropy_gain(q.GameConfig(lam, injection_weight=0.0)) == 0.0
