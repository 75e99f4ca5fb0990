"""The entropy injection game and its threshold solver."""

from __future__ import annotations

import math

import numpy as np
import pytest

import qentropy as q
from qentropy.game import _bisect, _bracket_roots

# Zero crossings of the default strategy's gain solve 5t^2 - 5t + 1 = 0;
# derived by comparing the receiver and sender eigenvalue distances from
# 1/2: sqrt(lam(1-lam)) < 1-2*lam on (0, 1/2) iff 5*lam^2 - 5*lam + 1 > 0.
EXACT_LOWER = (5.0 - math.sqrt(5.0)) / 10.0
EXACT_UPPER = (5.0 + math.sqrt(5.0)) / 10.0


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


class TestSenderState:
    def test_diagonal(self):
        op = q.sender_state(0.25)
        assert np.array_equal(op.matrix, np.diag([0.25, 0.75]).astype(complex))

    def test_entropy_endpoints(self):
        assert q.von_neumann(q.sender_state(0.0)) == 0.0
        assert q.von_neumann(q.sender_state(0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(q.ValidationError):
            q.sender_state(1.2)


class TestReceiverState:
    def test_default_strategy_closed_form(self):
        op = q.receiver_state(q.GameConfig(0.5))
        expected = np.array([[0.5, 0.25], [0.25, 0.5]])
        assert np.max(np.abs(op.matrix - expected)) < 1e-15

    def test_default_strategy_random_lambdas(self, rng):
        for _ in range(100):
            lam = float(rng.uniform(0.0, 1.0))
            op = q.receiver_state(q.GameConfig(lam))
            root = math.sqrt(lam * (1.0 - lam))
            expected = np.array([[0.5, 0.5 * root], [0.5 * root, 0.5]])
            assert np.max(np.abs(op.matrix - expected)) < 1e-12

    def test_zero_injection_returns_sender(self):
        config = q.GameConfig(0.3, injection_weight=0.0)
        assert np.array_equal(q.receiver_state(config).matrix, q.sender_state(0.3).matrix)

    def test_custom_injection(self):
        config = q.GameConfig(0.0, injection_weight=1.0, injected=q.PureState(np.array([0.6, 0.8])))
        op = q.receiver_state(config)
        assert op.x == pytest.approx(0.36, abs=1e-12)

    def test_config_rejects_bad_injected(self):
        with pytest.raises(q.ValidationError):
            q.GameConfig(0.5, injected=q.PureState(np.array([1.0, 0.0, 0.0])))


class TestEntropyGain:
    def test_half_is_frozen_value(self):
        gain = q.entropy_gain(q.GameConfig(0.5))
        assert gain == pytest.approx(binary_entropy(0.75) - 1.0, abs=1e-12)
        assert gain == pytest.approx(-0.188722, abs=1e-6)

    def test_degenerate_sender_gains_a_lot(self):
        assert q.entropy_gain(q.GameConfig(0.0)) == pytest.approx(1.0, abs=1e-12)
        assert q.entropy_gain(q.GameConfig(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_positive_below_threshold(self):
        assert q.entropy_gain(q.GameConfig(0.1)) > 0.0
        assert q.entropy_gain(q.GameConfig(0.26)) > 0.0

    def test_negative_between_thresholds(self):
        assert q.entropy_gain(q.GameConfig(0.3)) < 0.0
        assert q.entropy_gain(q.GameConfig(0.7)) < 0.0

    def test_closed_form_equals_generic_route(self, rng):
        for _ in range(100):
            lam = float(rng.uniform(0.002, 0.998))
            fast = q.entropy_gain(q.GameConfig(lam))
            slow = q.von_neumann(q.receiver_state(q.GameConfig(lam))) - q.von_neumann(
                q.sender_state(lam)
            )
            assert fast == pytest.approx(slow, abs=1e-9)

    def test_symmetric_in_lambda(self, rng):
        for _ in range(100):
            lam = float(rng.uniform(0.005, 0.995))
            assert abs(
                q.entropy_gain(q.GameConfig(lam)) - q.entropy_gain(q.GameConfig(1.0 - lam))
            ) < 1e-12

    def test_zero_injection_weight_is_exactly_zero(self, rng):
        for lam in (0.0, 0.3, 0.5, float(rng.uniform()), 1.0):
            assert q.entropy_gain(q.GameConfig(lam, injection_weight=0.0)) == 0.0

    def test_custom_strategy_goes_through_solver(self):
        config = q.GameConfig(0.5, injection_weight=0.4, injected=q.PureState(np.array([1.0, 0.0])))
        # 0.6 * I/2 + 0.4 * |0><0| = diag(0.7, 0.3)
        assert q.entropy_gain(config) == pytest.approx(binary_entropy(0.7) - 1.0, abs=1e-9)


class TestThresholdRoots:
    def test_default_solution_matches_algebraic_roots(self):
        sol = q.threshold_roots()
        assert sol.lower_root == pytest.approx(EXACT_LOWER, abs=1e-8)
        assert sol.upper_root == pytest.approx(EXACT_UPPER, abs=1e-8)

    def test_roots_are_symmetric(self):
        sol = q.threshold_roots()
        assert sol.lower_root + sol.upper_root == pytest.approx(1.0, abs=1e-6)

    def test_sign_flips_across_each_root(self):
        sol = q.threshold_roots()
        assert q.entropy_gain(q.GameConfig(sol.lower_root - 0.01)) > 0.0
        assert q.entropy_gain(q.GameConfig(sol.lower_root + 0.01)) < 0.0
        assert q.entropy_gain(q.GameConfig(sol.upper_root - 0.01)) < 0.0
        assert q.entropy_gain(q.GameConfig(sol.upper_root + 0.01)) > 0.0

    def test_loose_tolerance_still_brackets(self):
        rough = q.threshold_roots(tol=1e-3, grid_step=0.01)
        fine = q.threshold_roots()
        assert rough.lower_root == pytest.approx(fine.lower_root, abs=2e-3)
        assert rough.upper_root == pytest.approx(fine.upper_root, abs=2e-3)

    def test_parameter_validation(self):
        with pytest.raises(q.ValidationError):
            q.threshold_roots(tol=0.0)
        with pytest.raises(q.ValidationError):
            q.threshold_roots(grid_step=0.7)

    def test_solution_validates_ordering(self):
        with pytest.raises(q.ValidationError):
            q.ThresholdSolution(0.7, 0.3, 1e-9, 1e-3)
        with pytest.raises(q.ValidationError):
            q.ThresholdSolution(0.2, 0.7, 1e-9, 1e-3)


class TestBracketHelper:
    def test_no_sign_change(self):
        with pytest.raises(q.NoRootFound):
            _bracket_roots(lambda x: 1.0 + x, 1e-9, 0.01, expected=2)

    def test_too_many_crossings(self):
        with pytest.raises(q.TooManyRoots) as err:
            _bracket_roots(lambda x: math.sin(8.0 * math.pi * x), 1e-9, 0.01, expected=2)
        assert len(err.value.roots) > 2

    def test_refines_known_root(self):
        roots = _bracket_roots(lambda x: (x - 0.25) * (x - 0.75), 1e-10, 0.01, expected=2)
        assert roots[0] == pytest.approx(0.25, abs=1e-9)
        assert roots[1] == pytest.approx(0.75, abs=1e-9)

    def test_exact_grid_zero_counted_once(self):
        roots = _bracket_roots(lambda x: (x - 0.5) * (x - 0.25), 1e-10, 0.25, expected=2)
        assert sorted(roots) == pytest.approx([0.25, 0.5], abs=1e-9)

    def test_bisect_stops_at_adjacent_doubles(self):
        lo, hi = 0.7, math.nextafter(0.7, 1.0)
        calls = 0

        def step(x):
            nonlocal calls
            calls += 1
            if calls > 100:
                raise AssertionError("bisection stopped making progress")
            return -1.0 if x <= lo else 1.0

        root = _bisect(step, lo, hi, tol=1e-300)
        assert lo <= root <= hi


class TestSweepGame:
    def test_rows_carry_consistent_columns(self):
        rows = q.sweep_game([0.0, 0.25, 0.5])
        assert len(rows) == 3
        lam, s_a, s_b, gain = rows[2]
        assert lam == 0.5
        assert s_a == pytest.approx(1.0, abs=1e-12)
        assert s_b == pytest.approx(binary_entropy(0.75), abs=1e-12)
        assert gain == pytest.approx(s_b - s_a, abs=1e-15)

    def test_degenerate_endpoint_row(self):
        (row,) = q.sweep_game([0.0])
        assert row == (0.0, 0.0, 1.0, 1.0)

    def test_preserves_input_order(self):
        rows = q.sweep_game([0.9, 0.1])
        assert rows[0][0] == 0.9
        assert rows[1][0] == 0.1

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(q.ValidationError):
            q.sweep_game([])
        with pytest.raises(q.ValidationError):
            q.sweep_game([1.5])
