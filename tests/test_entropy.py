"""Entropy measures, the Holevo quantity, and the ordering scan."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qentropy as q
from qentropy.entropy import _closed_form_bits, _entropy_bits, grid
from qentropy.inputs import load_document
from qentropy.linalg import ROUNDING_SLACK, SNAP_ULPS

from conftest import random_density_matrix, random_pure_amplitudes

EXAMPLE = np.array([[0.7, 0.2], [0.2, 0.3]])
INPUTS = Path(__file__).resolve().parent.parent / "inputs"


def binary_entropy(p: float) -> float:
    """Independent reference used to freeze expected values."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def plus_state() -> q.PureState:
    amp = math.sqrt(0.5)
    return q.PureState(np.array([amp, amp]))


class TestShannon:
    def test_uniform_pair_is_exactly_one(self):
        assert q.shannon(np.array([0.5, 0.5])) == 1.0

    def test_deterministic_is_exactly_zero(self):
        assert q.shannon(np.array([1.0, 0.0])) == 0.0

    def test_quarter_split(self):
        assert q.shannon(np.array([0.75, 0.25])) == pytest.approx(
            binary_entropy(0.75), abs=1e-15
        )

    def test_uniform_four(self):
        assert q.shannon(np.full(4, 0.25)) == pytest.approx(2.0, abs=1e-12)

    def test_tiny_negative_clamped(self):
        assert q.shannon(np.array([1.0, -1e-13])) == 0.0
        # The floor is CONTRACT_TOL, as for mixture weights.
        assert q.shannon(np.array([1.0, -5e-10])) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(q.NotAProbabilityVector):
            q.shannon(np.array([1.0, -2e-9]))

    def test_rejects_bad_sum(self):
        with pytest.raises(q.NotAProbabilityVector):
            q.shannon(np.array([0.6, 0.5]))

    def test_sum_tolerance_is_weight_tolerance(self):
        with pytest.raises(q.NotAProbabilityVector):
            q.shannon(np.array([0.5, 0.5 + 1e-7]))

    def test_rejects_matrix(self):
        with pytest.raises(q.NotAProbabilityVector):
            q.shannon(np.eye(2) / 2.0)

    def test_rejects_non_finite(self):
        with pytest.raises(q.NotAProbabilityVector):
            q.shannon(np.array([np.inf, 0.0]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.001, 1.0), min_size=2, max_size=6))
def test_shannon_is_permutation_invariant(raw):
    p = np.array(raw) / sum(raw)
    assert q.shannon(p) == pytest.approx(q.shannon(p[::-1]), abs=1e-12)
    assert 0.0 <= q.shannon(p) <= math.log2(p.size) + 1e-12


class TestVonNeumann:
    def test_example_matches_spectrum_entropy(self):
        # frozen oracle: binary entropy of the closed-form top eigenvalue
        expected = binary_entropy(0.5 + math.sqrt(0.08))
        assert q.von_neumann(q.make_density(EXAMPLE)) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.755, abs=1e-3)

    def test_mixed_part_of_example_decomposition(self):
        value = q.von_neumann(q.make_density(np.diag([5.0 / 6.0, 1.0 / 6.0])))
        assert value == pytest.approx(binary_entropy(5.0 / 6.0), abs=1e-12)
        assert value == pytest.approx(0.650, abs=1e-3)

    def test_pure_states_have_zero_entropy(self, rng):
        # A rank-1 spectrum lands a few ulp from (1, 0, ..., 0); the snap rule makes it exactly 0.
        for dim in range(2, 33):
            for _ in range(5):
                state = q.PureState(random_pure_amplitudes(rng, dim))
                assert q.von_neumann(q.outer_product(state)) == 0.0

    def test_pure_documents_have_zero_entropy(self):
        docs = [load_document(path) for path in sorted(INPUTS.glob("*.json"))]
        states = [doc.payload for doc in docs if doc.kind == "pure"]
        assert len(states) == 3
        for state in states:
            assert q.report(q.outer_product(state)).s_n == 0.0

    def test_snap_width_grows_with_length(self):
        # Entries within SNAP_ULPS * n * eps of 0 or 1 give a zero term, entries past it their own.
        eps = np.finfo(np.float64).eps
        for n in (2, 32):
            width = SNAP_ULPS * n * eps
            assert _entropy_bits(np.array([1.0 - width, width, *[0.0] * (n - 2)])) == 0.0
            outside = np.array([1.0 - 2.0 * width, 2.0 * width, *[0.0] * (n - 2)])
            assert _entropy_bits(outside) > 0.0
            assert _entropy_bits(outside[None, :])[0] == _entropy_bits(outside)
        assert _entropy_bits(np.array([1.0 + 1e-10, 0.0])) == 0.0

    def test_maximally_mixed_hits_log_dim(self):
        for dim in (2, 3, 4):
            value = q.von_neumann(q.make_density(np.eye(dim) / dim))
            assert value == pytest.approx(math.log2(dim), abs=1e-12)

    def test_basis_invariance_of_spectrum(self):
        # same spectrum with and without off-diagonal coherence
        op = q.make_density([[0.5, 0.3], [0.3, 0.5]])
        assert q.von_neumann(op) == pytest.approx(
            q.von_neumann(q.make_density(np.diag([0.8, 0.2]))), abs=1e-9
        )


@pytest.mark.parametrize(
    "matrix",
    [
        np.diag([0.6 + 5e-10, 0.4, -5e-10]),
        np.array([[0.5, 0.5 + 4e-10], [0.5 + 4e-10, 0.5]]),
    ],
)
def test_measures_clamp_tolerated_negatives(matrix):
    # Smallest eigenvalue in (-CONTRACT_TOL, 0): the operator is accepted, and its
    # measures trust it, equalling shannon of the clamped vectors.
    op = q.make_density(matrix)
    assert -1e-9 < op.spectrum[-1] < 0.0
    assert q.von_neumann(op) == q.shannon(np.maximum(op.spectrum, 0.0))
    assert q.informational(op) == q.shannon(np.maximum(op.diagonal(), 0.0))


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_entropies_are_nonnegative_exactly(dim, seed):
    # Rank-1 projectors have LAPACK eigenvalues a few ulp from 0 and 1; the
    # kernel's snap to 0 and 1 keeps every measure at or above 0.0 anyway.
    rng = np.random.default_rng(seed)
    for _ in range(5):
        state = q.PureState(random_pure_amplitudes(rng, dim))
        for op in (q.outer_product(state), q.make_density(random_density_matrix(rng, dim))):
            assert q.von_neumann(op) >= 0.0
            assert q.informational(op) >= 0.0
        assert q.pure_entropy(state) >= 0.0


class TestInformational:
    def test_example(self):
        assert q.informational(q.make_density(EXAMPLE)) == pytest.approx(
            binary_entropy(0.7), abs=1e-12
        )

    def test_ignores_coherences(self):
        for a in (0.0, 0.2, 0.5):
            op = q.make_density([[0.5, a], [a, 0.5]])
            assert q.informational(op) == 1.0

    def test_diagonal_pure_state(self):
        assert q.informational(q.make_density(np.diag([1.0, 0.0]))) == 0.0


class TestPureEntropy:
    def test_balanced_superposition(self):
        assert q.pure_entropy(plus_state()) == pytest.approx(1.0, abs=1e-12)

    def test_basis_state(self):
        assert q.pure_entropy(q.PureState(np.array([0.0, 1.0]))) == 0.0

    def test_asymmetric_superposition(self):
        state = q.PureState(np.array([0.8, 0.6]))
        assert q.pure_entropy(state) == pytest.approx(binary_entropy(0.64), abs=1e-12)

    def test_phase_blind(self):
        a = q.PureState(np.array([0.8, 0.6]))
        b = q.PureState(np.array([0.8, -0.6j]))
        assert q.pure_entropy(a) == pytest.approx(q.pure_entropy(b), abs=1e-12)


class TestComposite:
    def test_example_split_value(self):
        split = q.symmetric_split(q.make_density(EXAMPLE))
        expected = 0.6 * binary_entropy(5.0 / 6.0) + 0.4 * 1.0
        assert q.composite(split) == pytest.approx(expected, abs=1e-9)
        # weighting the rounded published components lands near 0.790
        assert q.composite(split) == pytest.approx(0.6 * 0.650 + 0.4, abs=2e-3)

    def test_balanced_family_is_flat_at_one(self):
        for a in np.arange(0.0, 0.501, 0.05):
            pures = ((2.0 * a, plus_state()),) if a > 0.0 else ()
            split = q.MixedPureSplit(1.0 - 2.0 * a, np.array([0.5, 0.5]), pures)
            assert q.composite(split) == pytest.approx(1.0, abs=1e-12)

    def test_all_mixed_split_reduces_to_shannon(self):
        split = q.MixedPureSplit(1.0, np.array([0.7, 0.3]), ())
        assert q.composite(split) == pytest.approx(binary_entropy(0.7), abs=1e-15)

    def test_all_pure_split(self):
        split = q.MixedPureSplit(0.0, np.array([0.5, 0.5]), ((1.0, q.PureState(np.array([0.8, 0.6]))),))
        assert q.composite(split) == pytest.approx(binary_entropy(0.64), abs=1e-15)


class TestCompositeClosedForm:
    def test_balanced_quarter(self):
        assert q.composite_closed_form(0.5, 0.5, 0.25) == pytest.approx(1.0, abs=1e-15)

    def test_no_off_diagonal(self):
        assert q.composite_closed_form(0.7, 0.3, 0.0) == pytest.approx(
            binary_entropy(0.7), abs=1e-15
        )

    def test_matches_split_route(self):
        for x, a in ((0.7, 0.2), (0.55, 0.1), (0.9, 0.05), (0.5, 0.49)):
            op = q.make_density([[x, a], [a, 1.0 - x]])
            via_split = q.composite(q.symmetric_split(op))
            assert abs(q.composite_closed_form(x, 1.0 - x, a) - via_split) < 1e-12

    @pytest.mark.parametrize("step", [0.05, 0.01])
    def test_column_kernel_on_the_figure_3_grid(self, step):
        # The kernel sweep --figure 3 runs, on its masked grid: bit for bit against the
        # checked scalar entry, and within 1e-12 of the split route's composite entropy.
        x, a = (c.ravel() for c in np.meshgrid(grid(1.0, step), grid(0.5, step), indexing="ij"))
        inside = (x > a) & (1.0 - x > a)
        x, a = x[inside], a[inside]
        values = _closed_form_bits(x, 1.0 - x, a)
        for xk, ak, value in zip(x.tolist(), a.tolist(), values.tolist()):
            assert value == q.composite_closed_form(xk, 1.0 - xk, ak)
            op = q.make_density([[xk, ak], [ak, 1.0 - xk]])
            assert abs(value - q.composite(q.symmetric_split(op))) <= 1e-12

    def test_rejects_bad_trace(self):
        with pytest.raises(q.DomainViolation):
            q.composite_closed_form(0.7, 0.4, 0.1)

    def test_rejects_negative_a(self):
        with pytest.raises(q.DomainViolation):
            q.composite_closed_form(0.7, 0.3, -0.1)

    @pytest.mark.parametrize("x, y, a", [(math.nan, 0.5, 0.1), (0.5, 0.5, math.inf)])
    def test_rejects_non_finite(self, x, y, a):
        with pytest.raises(q.DomainViolation, match="^arguments must be finite$"):
            q.composite_closed_form(x, y, a)

    def test_rejects_domain_edge(self):
        with pytest.raises(q.DomainViolation):
            q.composite_closed_form(0.3, 0.7, 0.3)


class TestReport:
    def test_without_split(self):
        rep = q.report(q.make_density(np.eye(2) / 2.0))
        assert rep.s_n == pytest.approx(1.0, abs=1e-12)
        assert rep.s_i == pytest.approx(1.0, abs=1e-12)
        assert rep.s_ci is None
        assert rep.pure_share is None

    def test_example_with_split(self):
        op = q.make_density(EXAMPLE)
        rep = q.report(op, q.symmetric_split(op))
        assert rep.s_n == pytest.approx(binary_entropy(0.5 + math.sqrt(0.08)), abs=1e-9)
        assert rep.s_i == pytest.approx(binary_entropy(0.7), abs=1e-12)
        assert rep.s_ci == pytest.approx(0.6 * binary_entropy(5.0 / 6.0) + 0.4, abs=1e-9)
        assert rep.pure_share == pytest.approx(0.4, abs=1e-12)

    def test_rejects_foreign_split(self):
        split = q.symmetric_split(q.make_density([[0.592, 0.144], [0.144, 0.408]]))
        with pytest.raises(q.SplitMismatch):
            q.report(q.make_density(EXAMPLE), split)


class TestHolevo:
    def test_orthogonal_pair_hits_one_bit(self):
        ensemble = q.Ensemble(
            (
                q.EnsembleComponent(0.5, q.PureState(np.array([1.0, 0.0]))),
                q.EnsembleComponent(0.5, q.PureState(np.array([0.0, 1.0]))),
            )
        )
        rep = q.holevo_quantity(ensemble)
        assert rep.chi == pytest.approx(1.0, abs=1e-12)
        assert rep.avg_component_entropy == 0.0

    def test_single_component_is_zero(self):
        op = q.make_density(EXAMPLE)
        rep = q.holevo_quantity(q.Ensemble((q.EnsembleComponent(1.0, op),)))
        assert rep.chi == pytest.approx(0.0, abs=1e-12)

    def test_identical_mixed_components_are_zero(self):
        half = q.make_density(np.eye(2) / 2.0)
        ensemble = q.Ensemble(
            (q.EnsembleComponent(0.5, half), q.EnsembleComponent(0.5, half))
        )
        assert q.holevo_quantity(ensemble).chi == pytest.approx(0.0, abs=1e-12)

    def test_all_pure_ensemble_equals_average_entropy(self):
        spec = q.QubitEnsembleSpec.from_u_squared(0.5, 0.1, 0.4, 0.5)
        rep = q.holevo_quantity(spec.to_ensemble())
        assert rep.chi == pytest.approx(q.von_neumann(q.assemble(spec)), abs=1e-12)
        assert rep.avg_component_entropy == 0.0

    def test_mixed_components_subtract(self):
        half = q.make_density(np.eye(2) / 2.0)
        ensemble = q.Ensemble(
            (
                q.EnsembleComponent(0.5, half),
                q.EnsembleComponent(0.5, q.PureState(np.array([1.0, 0.0]))),
            )
        )
        rep = q.holevo_quantity(ensemble)
        # average state is diag(0.75, 0.25); only the mixed half contributes
        assert rep.s_mix == pytest.approx(binary_entropy(0.75), abs=1e-9)
        assert rep.avg_component_entropy == pytest.approx(0.5, abs=1e-12)
        assert rep.chi == pytest.approx(binary_entropy(0.75) - 0.5, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 4), count=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_holevo_is_its_two_terms_and_nonnegative(dim, count, seed):
    # chi >= 0 (Holevo 1973); over 3000 such ensembles the smallest chi was -1.2e-15.
    rng = np.random.default_rng(seed)
    states = [
        q.PureState(random_pure_amplitudes(rng, dim))
        if rng.uniform() < 0.5
        else q.make_density(random_density_matrix(rng, dim))
        for _ in range(count)
    ]
    weights = rng.dirichlet(np.ones(count))
    rep = q.holevo_quantity(q.Ensemble(tuple(map(q.EnsembleComponent, weights, states))))
    assert rep.chi == rep.s_mix - rep.avg_component_entropy
    assert rep.chi >= -1e-12


def _point(scan: q.OrderingScan, mask: np.ndarray) -> int:
    """Index of the one grid point the mask selects."""
    match = np.flatnonzero(mask)
    assert match.size == 1
    return int(match[0])


def _counting(counts: dict, name: str, original):
    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    return wrapper


class TestOrderingScan:
    def test_rejects_bad_steps(self):
        with pytest.raises(q.ValidationError):
            q.ordering_scan(p_step=0.0)
        with pytest.raises(q.ValidationError):
            q.ordering_scan(u2_step=-0.1)

    def test_right_inequality_holds_on_default_grid(self):
        scan = q.ordering_scan()
        # 231 feasible (p0, p1) pairs on the 0.05 grid, 11 u^2 values each
        assert scan.p0.size == 231 * 11
        assert scan.holds_right.all()

    def test_concavity_bound_on_default_grid(self):
        # S(sum w_i rho_i) <= H(w) + sum w_i S(rho_i) (Nielsen & Chuang, Thm 11.10); every
        # preparation of this family is pure, so the bound is the Shannon entropy of the
        # weights. A solver defect breaks this; the family's real left violations do not.
        scan = q.ordering_scan()
        for p0, p1, p2, s_n in zip(*(c.tolist() for c in (scan.p0, scan.p1, scan.p2, scan.s_n))):
            assert s_n <= q.shannon([p0, p1, p2]) + ROUNDING_SLACK

    def test_example_point_holds_both(self):
        scan = q.ordering_scan(p_step=0.05, u2_step=0.1)
        k = _point(
            scan,
            (abs(scan.p0 - 0.5) < 1e-12)
            & (abs(scan.p1 - 0.1) < 1e-12)
            & (abs(scan.u_squared - 0.5) < 1e-12),
        )
        assert scan.s_n[k] == pytest.approx(0.755, abs=1e-3)
        assert scan.s_ci[k] == pytest.approx(0.790, abs=1e-3)
        assert scan.s_i[k] == pytest.approx(0.881, abs=1e-3)
        assert scan.holds_left[k] and scan.holds_right[k]

    def test_left_violation_is_reported_faithfully(self):
        # near-basis pure component with a thin mixed part
        scan = q.ordering_scan(p_step=0.5, u2_step=0.01)
        k = _point(
            scan,
            (abs(scan.p0 - 0.5) < 1e-12) & (scan.p1 == 0.0) & (abs(scan.u_squared - 0.01) < 1e-12),
        )
        assert scan.s_n[k] > scan.s_ci[k]
        assert not scan.holds_left[k]
        assert scan.holds_right[k]
        assert k in np.flatnonzero(~scan.holds_left)

    def test_pure_rows_have_zero_entropy(self):
        scan = q.ordering_scan()
        pure = scan.p2 == 1.0
        assert np.count_nonzero(pure) == 11
        assert np.all(scan.s_n[pure] == 0.0)

    def test_majorization_inside_records(self):
        scan = q.ordering_scan(p_step=0.2, u2_step=0.25)
        assert np.all(scan.s_i >= scan.s_n - 1e-9)

    @pytest.mark.parametrize("p_step, u2_step", [(0.05, 0.1), (0.045, 0.125), (0.5, 0.01)])
    def test_columns_equal_the_scalar_route(self, p_step, u2_step):
        # The array pass against the validated objects, bit for bit at every point.
        scan = q.ordering_scan(p_step, u2_step)
        columns = (scan.p0, scan.p1, scan.p2, scan.u_squared, scan.s_n, scan.s_i, scan.s_ci)
        for p0, p1, p2, u2, s_n, s_i, s_ci in zip(*(c.tolist() for c in columns)):
            spec = q.QubitEnsembleSpec.from_u_squared(p0, p1, p2, u2)
            op = q.assemble(spec)
            assert s_n == q.von_neumann(op)
            assert s_i == q.informational(op)
            assert s_ci == q.composite(spec.natural_split())

    def test_row_kernel_equals_vector_kernel(self, rng):
        rows = rng.dirichlet(np.ones(2), size=500)
        rows[:50, 0], rows[:50, 1] = 0.0, 1.0
        rows[50:100, 0], rows[50:100, 1] = 1.0, 0.0
        rows[100:150] = 0.5
        stacked = _entropy_bits(rows)
        assert stacked.shape == (500,)
        assert stacked.tolist() == [_entropy_bits(row) for row in rows]

    def test_one_stacked_solve_and_no_objects(self, monkeypatch):
        counts: dict = {}
        for cls in (q.DensityOperator, q.QubitEnsembleSpec, q.MixedPureSplit):
            monkeypatch.setattr(cls, "__post_init__", _counting(counts, cls.__name__, cls.__post_init__))
        monkeypatch.setattr(np.linalg, "eigvalsh", _counting(counts, "eigvalsh", np.linalg.eigvalsh))
        q.ordering_scan()
        assert counts == {"eigvalsh": 1}
        # the counters see the scalar route's objects
        q.assemble(q.QubitEnsembleSpec.from_u_squared(0.5, 0.5, 0.0, 0.5))
        assert counts == {"eigvalsh": 2, "DensityOperator": 1, "QubitEnsembleSpec": 1}


class TestOrderingProperties:
    def test_majorization_on_random_operators(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            op = q.make_density(random_density_matrix(rng, dim))
            assert q.informational(op) >= q.von_neumann(op) - 1e-9

    def test_composite_below_informational_on_random_splits(self, rng):
        checked = 0
        for _ in range(200):
            op = q.make_density(random_density_matrix(rng, 2))
            s_i = q.informational(op)
            for split in q.enumerate_splits(op, 3):
                checked += 1
                assert q.composite(split) <= s_i + 1e-9
        assert checked >= 200

    def test_subadditivity_on_random_mixtures(self, rng):
        for _ in range(50):
            parts = []
            weights = rng.dirichlet(np.ones(3))
            for w in weights:
                a = q.outer_product(q.PureState(random_pure_amplitudes(rng, 2)))
                b = q.outer_product(q.PureState(random_pure_amplitudes(rng, 2)))
                parts.append((float(w), q.kron(a, b)))
            joint = q.mix(parts)
            s_ab = q.von_neumann(joint)
            s_a = q.von_neumann(q.partial_trace(joint, 2, 2, "A"))
            s_b = q.von_neumann(q.partial_trace(joint, 2, 2, "B"))
            assert s_ab <= s_a + s_b + 1e-9

    def test_product_states_saturate_subadditivity(self, rng):
        for _ in range(50):
            a = q.make_density(random_density_matrix(rng, 2))
            b = q.make_density(random_density_matrix(rng, 3))
            joint = q.kron(a, b)
            total = q.von_neumann(a) + q.von_neumann(b)
            assert q.von_neumann(joint) == pytest.approx(total, abs=1e-9)


def test_excess_over_informational_peaks_at_03():
    # pure share + S_n - S_i on the balanced family, 0.05 grid
    grid = [round(0.05 * k, 2) for k in range(11)]
    excess = {}
    for a in grid:
        op = q.make_density([[0.5, a], [a, 0.5]])
        share = 2.0 * a * q.pure_entropy(plus_state())
        excess[a] = share + q.von_neumann(op) - q.informational(op)
    assert max(excess, key=excess.get) == 0.30
    assert all(value >= -1e-12 for value in excess.values())


def test_non_additivity_gap_of_example():
    whole = q.von_neumann(q.make_density(EXAMPLE))
    mixed_part = q.von_neumann(q.make_density(np.diag([5.0 / 6.0, 1.0 / 6.0])))
    assert whole - mixed_part == pytest.approx(0.105, abs=1e-3)
