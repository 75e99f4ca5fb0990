"""The entropy injection game and its closed-form thresholds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qentropy as q
from qentropy.entropy import _entropy_bits
from qentropy.linalg import ROUNDING_SLACK

import root_oracle
from conftest import random_pure_amplitudes
from root_oracle import _bisect, _bracket_roots

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

    def test_equals_the_mix_route_bit_for_bit(self, rng):
        for k in range(3000):
            lam, weight = (float(v) for v in rng.uniform(size=2))
            # Every third injection keeps real amplitudes; the rest carry a phase.
            amps = random_pure_amplitudes(rng, 2)
            injected = q.PureState(np.abs(amps) if k % 3 == 0 else amps)
            config = q.GameConfig(lam, weight, injected)
            oracle = q.mix(((1.0 - weight, q.sender_state(lam)), (weight, q.outer_product(injected))))
            assert np.array_equal(q.receiver_state(config).matrix, oracle.matrix)

    def test_config_rejects_injected_that_is_no_state(self):
        with pytest.raises(q.ValidationError, match="^injected must be a PureState, got ndarray$"):
            q.GameConfig(0.5, injected=np.array([1.0, 0.0]))

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

    def test_gain_lies_within_the_mixing_bounds(self, rng):
        # Concavity gives S(rho_B) >= (1-q) S(rho_A), and S(sum p_k rho_k) <= sum p_k S(rho_k) + H(p)
        # (Nielsen & Chuang Thm 11.10) gives S(rho_B) <= (1-q) S(rho_A) + h(q), since the injection
        # is pure: the gain lies in [-q S(rho_A), h(q) - q S(rho_A)].
        for k in range(3000):
            lam, weight = (float(v) for v in rng.uniform(size=2))
            if k % 10 == 0:
                weight = float(k % 20 == 0)  # the ends, q = 1 and q = 0
            injected = None if k % 4 == 0 else q.PureState(random_pure_amplitudes(rng, 2))
            gain = q.entropy_gain(q.GameConfig(lam, weight, injected))
            sender = binary_entropy(lam)
            assert -weight * sender - ROUNDING_SLACK <= gain
            assert gain <= binary_entropy(weight) - weight * sender + ROUNDING_SLACK

    def test_custom_strategy_goes_through_solver(self):
        config = q.GameConfig(0.5, injection_weight=0.4, injected=q.PureState(np.array([1.0, 0.0])))
        # 0.6 * I/2 + 0.4 * |0><0| = diag(0.7, 0.3)
        assert q.entropy_gain(config) == pytest.approx(binary_entropy(0.7) - 1.0, abs=1e-9)


class TestThresholdRoots:
    def test_default_solution_matches_algebraic_roots(self):
        sol = q.threshold_roots()
        assert (sol.lower_root, sol.upper_root) == (EXACT_LOWER, EXACT_UPPER)

    def test_roots_are_symmetric(self):
        sol = q.threshold_roots()
        assert sol.lower_root + sol.upper_root == 1.0

    def test_gain_is_zero_at_each_root(self):
        sol = q.threshold_roots()
        assert q.entropy_gain(q.GameConfig(sol.lower_root)) == 0.0
        assert q.entropy_gain(q.GameConfig(sol.upper_root)) == 0.0

    def test_sign_flips_across_each_root(self):
        sol = q.threshold_roots()
        assert q.entropy_gain(q.GameConfig(sol.lower_root - 0.01)) > 0.0
        assert q.entropy_gain(q.GameConfig(sol.lower_root + 0.01)) < 0.0
        assert q.entropy_gain(q.GameConfig(sol.upper_root - 0.01)) < 0.0
        assert q.entropy_gain(q.GameConfig(sol.upper_root + 0.01)) > 0.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(lam=st.floats(0.0, 1.0))
    def test_gain_sign_matches_the_roots(self, lam):
        # Positive outside the roots, negative between them, away from the roots themselves.
        sol = q.threshold_roots()
        assume(min(abs(lam - sol.lower_root), abs(lam - sol.upper_root)) > 1e-9)
        gain = q.entropy_gain(q.GameConfig(lam))
        if sol.lower_root < lam < sol.upper_root:
            assert gain < 0.0
        else:
            assert gain > 0.0

    def test_loose_tolerance_still_brackets(self):
        rough = root_oracle.threshold_roots(tol=1e-3, grid_step=0.01)
        exact = q.threshold_roots()
        assert rough.lower_root == pytest.approx(exact.lower_root, abs=2e-3)
        assert rough.upper_root == pytest.approx(exact.upper_root, abs=2e-3)

    def test_parameter_validation(self):
        with pytest.raises(q.ValidationError):
            root_oracle.threshold_roots(tol=0.0)
        with pytest.raises(q.ValidationError):
            root_oracle.threshold_roots(grid_step=0.7)

    @pytest.mark.parametrize("tol", [1e-300, 1e-9, 1e-5, 1e-4, 1e-3, 0.2])
    @pytest.mark.parametrize("step", [1e-3, 0.007, 0.013, 0.15])
    def test_roots_within_half_tolerance(self, tol, step):
        # The oracle bisects entropy_gain until the bracket is narrower than tol and returns
        # its midpoint; a tol below one ulp stops at adjacent doubles instead.
        sol = root_oracle.threshold_roots(tol=tol, grid_step=step)
        exact = q.threshold_roots()
        for root, closed in ((sol.lower_root, exact.lower_root), (sol.upper_root, exact.upper_root)):
            assert abs(root - closed) <= max(tol / 2.0, math.ulp(closed))


class TestBracketHelper:
    """The oracle's bracketing on functions with known roots."""

    def test_no_sign_change(self):
        with pytest.raises(root_oracle.NoRootFound):
            _bracket_roots(lambda x: 1.0 + x, 1e-9, 0.01, expected=2)

    def test_too_many_crossings(self):
        with pytest.raises(root_oracle.TooManyRoots) as err:
            _bracket_roots(lambda x: np.sin(8.0 * np.pi * x), 1e-9, 0.01, expected=2)
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


def scalar_gain(lam: float) -> float:
    """The default strategy's gain for one lambda, from two vectors and math.sqrt."""
    half_root = 0.5 * math.sqrt(lam * (1.0 - lam))
    receiver = _entropy_bits(np.array([0.5 + half_root, 0.5 - half_root]))
    return receiver - _entropy_bits(np.array([lam, 1.0 - lam]))


class TestSweepGame:
    def test_rows_carry_consistent_columns(self):
        sender, receiver, gain = q.sweep_game([0.0, 0.25, 0.5])
        assert sender.shape == receiver.shape == gain.shape == (3,)
        assert sender[2] == pytest.approx(1.0, abs=1e-12)
        assert receiver[2] == pytest.approx(binary_entropy(0.75), abs=1e-12)
        assert gain[2] == receiver[2] - sender[2]

    def test_degenerate_endpoint_row(self):
        assert [c.tolist() for c in q.sweep_game([0.0])] == [[0.0], [1.0], [1.0]]

    def test_preserves_input_order(self):
        sender, _, gain = q.sweep_game([0.5, 0.1])
        assert sender[0] == pytest.approx(1.0, abs=1e-12)
        assert sender[1] == pytest.approx(binary_entropy(0.1), abs=1e-12)
        assert gain[0] < 0.0 < gain[1]

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(q.ValidationError):
            q.sweep_game([])
        for bad in (1.5, -0.1, math.nan, math.inf):
            for lambdas in ([bad], [0.5, bad]):
                with pytest.raises(q.ValidationError):
                    q.sweep_game(lambdas)

    @pytest.mark.parametrize("step", [1e-3, 0.01, 5e-4])
    def test_columns_equal_the_scalar_route(self, step):
        # The root oracle's bracketing grid: every gain bit for bit against one lambda at a time.
        lambdas = np.arange(step, 1.0 - 0.5 * step, step)
        sender, receiver, gain = q.sweep_game(lambdas)
        for k, lam in enumerate(lambdas.tolist()):
            assert gain[k] == scalar_gain(lam) == q.entropy_gain(q.GameConfig(lam))
            assert sender[k] == _entropy_bits(np.array([lam, 1.0 - lam]))
            # The receiver's closed-form spectrum against a LAPACK solve of its operator.
            assert receiver[k] == pytest.approx(q.von_neumann(q.receiver_state(q.GameConfig(lam))), abs=1e-12)
