"""Container validation and the LAPACK eigensolver routes.

``op.spectrum`` and ``eig_hermitian`` are checked against the independent
Jacobi routine in ``jacobi_oracle``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qentropy as q
from qentropy.linalg import check_weights

from conftest import random_density_matrix, random_pure_amplitudes
from jacobi_oracle import jacobi_eigh, jacobi_spectrum

# Recurring mixed qubit whose spectrum is known in closed form:
# 1/2 +- sqrt(0.04 + 0.04).
EXAMPLE = np.array([[0.7, 0.2], [0.2, 0.3]])
EXAMPLE_EIGS = (0.5 + math.sqrt(0.08), 0.5 - math.sqrt(0.08))


class TestPureState:
    def test_accepts_unit_vector(self):
        s = q.PureState(np.array([0.6, 0.8]))
        assert s.dim == 2
        assert np.allclose(s.probabilities(), [0.36, 0.64], atol=1e-12)

    def test_accepts_complex_amplitudes(self):
        s = q.PureState(np.array([0.6, 0.8j]))
        assert np.allclose(s.probabilities(), [0.36, 0.64], atol=1e-12)

    def test_rejects_bad_norm(self):
        with pytest.raises(q.ValidationError):
            q.PureState(np.array([0.6, 0.9]))

    def test_rejects_matrix_shape(self):
        with pytest.raises(q.DimensionMismatch):
            q.PureState(np.eye(2))

    def test_rejects_non_finite(self):
        with pytest.raises(q.ValidationError):
            q.PureState(np.array([np.nan, 1.0]))

    def test_amplitudes_are_read_only(self):
        s = q.PureState(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.5


class TestDensityOperator:
    def test_accepts_example(self):
        op = q.make_density(EXAMPLE)
        assert op.dim == 2
        assert op.x == pytest.approx(0.7)
        assert op.y == pytest.approx(0.3)
        assert op.a == pytest.approx(0.2)

    def test_rejects_asymmetric(self):
        with pytest.raises(q.NotHermitian):
            q.make_density([[0.7, 0.3], [0.2, 0.3]])

    def test_symmetrizes_within_tolerance(self):
        # |M - M^H| = 8e-10, inside the 1e-9 Hermitian tolerance: averaged, not rejected
        op = q.make_density([[0.7, 0.2 + 4e-10], [0.2 - 4e-10, 0.3]])
        assert op.a == pytest.approx(0.2, abs=1e-15)
        assert np.array_equal(op.matrix, op.matrix.conj().T)

    def test_rejects_bad_trace(self):
        with pytest.raises(q.TraceNotOne):
            q.make_density(np.diag([0.6, 0.3]))

    def test_rejects_indefinite(self):
        # closed-form spectrum of the candidate dips below zero
        low = 0.5 - math.hypot(0.2, 0.6)
        assert low < -1e-9
        with pytest.raises(q.NotPositiveSemidefinite):
            q.make_density([[0.7, 0.6], [0.6, 0.3]])

    def test_smallest_eigenvalue_may_reach_the_tolerance(self):
        # LAPACK returns a diagonal matrix's entries exactly, so the bound itself is on the grid.
        assert q.make_density(np.diag([1.0 + 1e-9, -1e-9])).spectrum[-1] == -1e-9
        with pytest.raises(q.NotPositiveSemidefinite):
            q.make_density(np.diag([1.0 + 1.0000001e-9, -1.0000001e-9]))

    def test_rejects_an_overflowing_hermitian_part(self):
        # (M + M^H) / 2 overflows to inf, and LAPACK's NaN eigenvalues would pass the PSD check.
        with pytest.raises(q.ValidationError, match="Hermitian part overflows"):
            q.make_density([[1.0, 1e308], [1e308, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(q.DimensionMismatch):
            q.make_density(np.ones((2, 3)) / 3.0)

    def test_qubit_accessors_need_dim_two(self):
        op = q.make_density(np.eye(3) / 3.0)
        with pytest.raises(q.DimensionMismatch):
            op.x

    def test_matrix_is_read_only(self):
        op = q.make_density(EXAMPLE)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 1.0

    def test_diagonal_is_a_fresh_copy(self):
        op = q.make_density(EXAMPLE)
        d = op.diagonal()
        d[0] = 9.0
        assert op.x == pytest.approx(0.7)

    def test_complex_hermitian_accepted(self):
        op = q.make_density([[0.5, 0.1 - 0.2j], [0.1 + 0.2j, 0.5]])
        assert abs(op.a - (0.1 - 0.2j)) < 1e-15


class TestOuterProduct:
    def test_basis_state(self):
        p = q.outer_product(q.PureState(np.array([1.0, 0.0])))
        assert np.array_equal(p.matrix, np.array([[1, 0], [0, 0]], dtype=complex))

    def test_real_superposition(self):
        p = q.outer_product(q.PureState(np.array([0.8, 0.6])))
        expected = np.array([[0.64, 0.48], [0.48, 0.36]])
        assert np.max(np.abs(p.matrix - expected)) < 1e-15

    def test_projector_is_idempotent(self, rng):
        for dim in (2, 3, 4):
            p = q.outer_product(q.PureState(random_pure_amplitudes(rng, dim)))
            assert np.max(np.abs(p.matrix @ p.matrix - p.matrix)) < 1e-12


class TestMix:
    def test_reconstructs_example_from_parts(self):
        mixed = q.make_density(np.diag([5.0 / 6.0, 1.0 / 6.0]))
        plus = q.outer_product(q.PureState(np.array([math.sqrt(0.5), math.sqrt(0.5)])))
        combined = q.mix([(0.6, mixed), (0.4, plus)])
        assert np.max(np.abs(combined.matrix - EXAMPLE)) < 1e-12

    def test_zero_weights_allowed(self):
        op = q.make_density(EXAMPLE)
        other = q.make_density(np.eye(2) / 2.0)
        combined = q.mix([(1.0, op), (0.0, other)])
        assert np.array_equal(combined.matrix, op.matrix)

    def test_rejects_weight_sum(self):
        op = q.make_density(np.eye(2) / 2.0)
        with pytest.raises(q.WeightSumInvalid):
            q.mix([(0.5, op), (0.4, op)])

    def test_rejects_negative_weight(self):
        op = q.make_density(np.eye(2) / 2.0)
        with pytest.raises(q.WeightSumInvalid):
            q.mix([(1.5, op), (-0.5, op)])

    def test_clamps_weight_within_tolerance(self):
        # -5e-10 lies inside CONTRACT_TOL: it counts as 0, as in every other weight check
        op = q.make_density(EXAMPLE)
        other = q.make_density(np.eye(2) / 2.0)
        combined = q.mix([(1.0 + 5e-10, op), (-5e-10, other)])
        assert np.array_equal(combined.matrix, (1.0 + 5e-10) * op.matrix)

    def test_rejects_dim_mismatch(self):
        a = q.make_density(np.eye(2) / 2.0)
        b = q.make_density(np.eye(3) / 3.0)
        with pytest.raises(q.DimensionMismatch):
            q.mix([(0.5, a), (0.5, b)])

    def test_rejects_empty(self):
        with pytest.raises(q.WeightSumInvalid):
            q.mix([])


class TestCheckWeights:
    def test_clamps_and_returns_fresh_vector(self):
        raw = [0.5 + 5e-10, 0.5, -5e-10]
        w = check_weights(raw, "weights")
        assert w.tolist() == [0.5 + 5e-10, 0.5, 0.0]
        assert raw[2] == -5e-10

    @pytest.mark.parametrize(
        "weights", [[], [[0.5, 0.5]], [np.nan, 1.0], [1.0 + 2e-9], [1.5, -0.5]]
    )
    def test_rejects_and_names_the_vector(self, weights):
        with pytest.raises(q.WeightSumInvalid, match="^split weights "):
            check_weights(weights, "split weights")


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: check_weights([0.5, 0.6], "w"), q.WeightSumInvalid, "w sum to 1.1, off unity by 1.000e-01"),
        (lambda: q.PureState(np.array([1.0, 0.5])), q.ValidationError, "squared norm is 1.25, off unity by 2.500e-01"),
        (lambda: q.make_density(np.diag([0.6, 0.5])), q.TraceNotOne, "trace is 1.1, off unity by 1.000e-01"),
        (
            lambda: q.QubitEnsembleSpec(0.5, 0.5, 0.0, 1.0, 0.5),
            q.ValidationError,
            "u^2 + v^2 = 1.25, off unity by 2.500e-01",
        ),
        (lambda: q.composite_closed_form(0.6, 0.5, 0.1), q.DomainViolation, "x + y = 1.1, off unity by 1.000e-01"),
    ],
    ids=["weights", "norm", "trace", "amplitudes", "closed-form"],
)
def test_off_unity_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


class TestEigHermitian:
    def test_diagonal_matrix_is_sorted_without_rotation(self):
        dec = q.eig_hermitian(q.make_density(np.diag([0.2, 0.5, 0.3])))
        assert np.array_equal(dec.eigenvalues, [0.5, 0.3, 0.2])
        assert np.array_equal(dec.eigenvectors, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])

    def test_degenerate_spectrum_keeps_basis_order(self):
        dec = q.eig_hermitian(q.make_density(np.eye(4) / 4.0))
        assert np.array_equal(dec.eigenvalues, [0.25] * 4)
        assert np.array_equal(dec.eigenvectors, np.eye(4))

    def test_example_matches_closed_form(self):
        op = q.make_density(EXAMPLE)
        vals = jacobi_spectrum(op.matrix)
        for k in range(2):
            assert abs(vals[k] - EXAMPLE_EIGS[k]) < 1e-12
            assert abs(op.spectrum[k] - vals[k]) < 1e-12

    def test_closed_form_agreement_on_random_qubits(self, rng):
        for _ in range(1000):
            op = q.make_density(random_density_matrix(rng, 2))
            vals = jacobi_spectrum(op.matrix)
            assert abs(vals[0] - op.spectrum[0]) < 1e-9
            assert abs(vals[1] - op.spectrum[1]) < 1e-9

    def test_reconstruction_and_orthonormality(self, rng):
        for dim in (2, 3, 4, 5, 6):
            for _ in range(20):
                op = q.make_density(random_density_matrix(rng, dim))
                dec = q.eig_hermitian(op)
                assert np.max(np.abs(dec.reconstruct() - op.matrix)) < 1e-8
                u = dec.eigenvectors
                assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-8

    def test_matches_numpy_spectra(self, rng):
        # eig_hermitian (LAPACK eigh) against the independent Jacobi route.
        for dim in (2, 3, 4, 5):
            for _ in range(25):
                op = q.make_density(random_density_matrix(rng, dim))
                mine = q.eig_hermitian(op).eigenvalues
                assert np.max(np.abs(mine - jacobi_spectrum(op.matrix))) < 1e-9
        # The spectrum kept at construction, including by derived operators.
        for dim in (1, 2, 4, 8, 16, 32):
            a, b = (q.make_density(random_density_matrix(rng, dim)) for _ in range(2))
            half = max(dim // 2, 1)
            small = q.make_density(random_density_matrix(rng, half))
            pair = q.make_density(random_density_matrix(rng, dim // half))
            for each in (
                a,
                q.mix([(0.3, a), (0.7, b)]),
                q.kron(small, pair),
                q.partial_trace(b, half, dim // half, "A"),
            ):
                spectrum = each.spectrum
                dec = q.eig_hermitian(each)
                # Both LAPACK routes against the independent Jacobi route.
                oracle = jacobi_spectrum(each.matrix)
                assert np.max(np.abs(spectrum - oracle)) < 1e-12
                assert np.max(np.abs(dec.eigenvalues - oracle)) < 1e-12
                # eig_hermitian's record: descending values and a (d, d) matrix of eigenvectors, both read-only.
                assert np.all(dec.eigenvalues[:-1] >= dec.eigenvalues[1:])
                assert not dec.eigenvalues.flags.writeable
                assert not dec.eigenvectors.flags.writeable
                assert dec.eigenvalues.shape == (each.dim,)
                assert dec.eigenvectors.shape == (each.dim, each.dim)
                ref = np.sort(np.linalg.eigvalsh(each.matrix))[::-1]
                assert np.max(np.abs(spectrum - ref)) < 1e-12
                assert np.all(spectrum[:-1] >= spectrum[1:])
                assert not spectrum.flags.writeable

    def test_sweep_cap_raises_with_residual(self):
        m = np.array(EXAMPLE, dtype=complex)
        with pytest.raises(q.ConvergenceFailure) as err:
            jacobi_eigh(m, max_sweeps=0)
        assert err.value.residual > 0.0

    def test_lapack_failure_raises_convergence_failure(self, monkeypatch):
        def boom(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", boom)
        m = np.array(EXAMPLE, dtype=complex)
        with pytest.raises(q.ConvergenceFailure) as err:
            q.make_density(m)
        off_diagonal = m - np.diag(np.diag(m))
        assert err.value.residual == pytest.approx(np.linalg.norm(off_diagonal))

    def test_eigh_failure_raises_convergence_failure(self, monkeypatch):
        def boom(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        op = q.make_density(EXAMPLE)
        monkeypatch.setattr(np.linalg, "eigh", boom)
        with pytest.raises(q.ConvergenceFailure) as err:
            q.eig_hermitian(op)
        off_diagonal = op.matrix - np.diag(np.diag(op.matrix))
        assert err.value.residual == pytest.approx(np.linalg.norm(off_diagonal))


class TestKron:
    def test_diagonal_products(self):
        a = q.make_density(np.diag([0.7, 0.3]))
        b = q.make_density(np.diag([0.6, 0.4]))
        joint = q.kron(a, b)
        assert joint.dim == 4
        expected = np.diag([0.42, 0.28, 0.18, 0.12])
        assert np.max(np.abs(joint.matrix - expected)) < 1e-15

    def test_spectrum_is_product_of_spectra(self, rng):
        a = q.make_density(random_density_matrix(rng, 2))
        b = q.make_density(random_density_matrix(rng, 3))
        joint_vals = q.eig_hermitian(q.kron(a, b)).eigenvalues
        pairwise = np.outer(q.eig_hermitian(a).eigenvalues, q.eig_hermitian(b).eigenvalues)
        expected = np.sort(pairwise.ravel())[::-1]
        assert np.max(np.abs(joint_vals - expected)) < 1e-9


class TestPartialTrace:
    def test_recovers_product_factors(self, rng):
        a = q.make_density(random_density_matrix(rng, 2))
        b = q.make_density(random_density_matrix(rng, 3))
        joint = q.kron(a, b)
        assert np.max(np.abs(q.partial_trace(joint, 2, 3, "A").matrix - a.matrix)) < 1e-10
        assert np.max(np.abs(q.partial_trace(joint, 2, 3, "B").matrix - b.matrix)) < 1e-10

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = q.outer_product(q.PureState(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)))
        reduced = q.partial_trace(bell, 2, 2, "A")
        assert np.max(np.abs(reduced.matrix - np.eye(2) / 2.0)) < 1e-12

    def test_classical_correlations(self):
        joint = q.make_density(np.diag([0.4, 0.1, 0.2, 0.3]))
        keep_a = q.partial_trace(joint, 2, 2, "A")
        keep_b = q.partial_trace(joint, 2, 2, "B")
        assert np.allclose(keep_a.diagonal(), [0.5, 0.5], atol=1e-12)
        assert np.allclose(keep_b.diagonal(), [0.6, 0.4], atol=1e-12)

    def test_rejects_bad_factorization(self):
        op = q.make_density(np.eye(4) / 4.0)
        with pytest.raises(q.DimensionMismatch):
            q.partial_trace(op, 3, 2, "A")

    @pytest.mark.parametrize(
        "dim_a, dim_b, keep", [(2.0, 2, "A"), (2.5, 1.6, "A"), (True, 4, "B"), (4, np.True_, "A"), ("2", 2, "A")]
    )
    def test_rejects_dimensions_that_are_not_integers(self, dim_a, dim_b, keep):
        # 2.0 * 2 and 2.5 * 1.6 equal 4, so only the type check stops them before numpy's reshape.
        op = q.make_density(np.eye(4) / 4.0)
        with pytest.raises(q.DimensionMismatch, match="^dim_a and dim_b must be integers"):
            q.partial_trace(op, dim_a, dim_b, keep)

    def test_accepts_numpy_integer_dimensions(self):
        op = q.make_density(np.diag([0.4, 0.1, 0.2, 0.3]))
        reduced = q.partial_trace(op, np.int64(2), np.int32(2), "B")
        assert np.array_equal(reduced.matrix, q.partial_trace(op, 2, 2, "B").matrix)

    def test_rejects_unknown_side(self):
        op = q.make_density(np.eye(4) / 4.0)
        with pytest.raises(q.ValidationError):
            q.partial_trace(op, 2, 2, "C")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
        ),
        min_size=2,
        max_size=4,
    ).filter(lambda parts: any(abs(re) + abs(im) > 1e-3 for re, im in parts))
)
def test_projectors_of_arbitrary_states_are_valid(parts):
    raw = np.array([complex(re, im) for re, im in parts])
    state = q.PureState(raw / np.sqrt(np.sum(np.abs(raw) ** 2)))
    projector = q.outer_product(state)
    vals = q.eig_hermitian(projector).eigenvalues
    assert vals[0] == pytest.approx(1.0, abs=1e-9)
    assert np.all(vals[1:] < 1e-9)
