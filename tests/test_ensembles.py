"""Ensemble assembly and mixed+pure decompositions."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qentropy as q
from qentropy import ensembles, entropy, game, linalg

import split_oracle
from conftest import QUBIT_EDGE_CASES, qubit_density_matrices, random_density_matrix, random_pure_amplitudes

INPUTS = Path(__file__).resolve().parent.parent / "inputs"

# Off-diagonal qubit admitting two well-known decompositions at p2 = 0.3
# and p2 = 0.4.
DOUBLE = np.array([[0.592, 0.144], [0.144, 0.408]])


def plus_state() -> q.PureState:
    amp = math.sqrt(0.5)
    return q.PureState(np.array([amp, amp]))


def checked_projector(state: q.PureState) -> q.DensityOperator:
    """|state><state| the checked way: a raw np.outer validated into a DensityOperator."""
    return q.make_density(np.outer(state.amplitudes, state.amplitudes.conj()))


def mix_route(split: q.MixedPureSplit) -> np.ndarray:
    """The split summed through ``mix`` over DensityOperators: the oracle for its kernel sum."""
    parts = [(split.mixed_weight, q.make_density(np.diag(split.mixed_diagonal)))]
    parts.extend((pw, checked_projector(ps)) for pw, ps in split.pures)
    return q.mix(parts).matrix


@st.composite
def three_preparation_specs(draw) -> q.QubitEnsembleSpec:
    """Specs with amplitudes of either sign, all three weights, or p0 = p1 = 0, or p2 = 0."""
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    shape = draw(st.sampled_from(["three", "pure only", "no pure"]))
    if shape == "pure only":
        p0 = p1 = 0.0
    else:
        p0 = draw(st.floats(0.0, 1.0))
        p1 = 1.0 - p0 if shape == "no pure" else draw(st.floats(0.0, 1.0 - p0))
    p2 = 0.0 if shape == "no pure" else max(1.0 - p0 - p1, 0.0)
    return q.QubitEnsembleSpec(p0, p1, p2, math.cos(theta), math.sin(theta))


class TestQubitEnsembleSpec:
    def test_assembles_double_example_exactly(self):
        spec = q.QubitEnsembleSpec(0.4, 0.3, 0.3, 0.8, 0.6)
        op = q.assemble(spec)
        assert np.max(np.abs(op.matrix - DOUBLE)) < 1e-12

    def test_from_u_squared(self):
        spec = q.QubitEnsembleSpec.from_u_squared(0.4, 0.3, 0.3, 0.64)
        assert spec.u == pytest.approx(0.8, abs=1e-15)
        assert spec.v == pytest.approx(0.6, abs=1e-15)

    def test_rejects_weight_sum(self):
        with pytest.raises(q.WeightSumInvalid):
            q.QubitEnsembleSpec(0.5, 0.5, 0.5, 1.0, 0.0)

    def test_rejects_amplitude_norm(self):
        with pytest.raises(q.ValidationError):
            q.QubitEnsembleSpec(0.5, 0.5, 0.0, 0.9, 0.6)

    @pytest.mark.parametrize("u, v", [(math.nan, 0.0), (1.0, math.inf)])
    def test_rejects_non_finite_amplitude(self, u, v):
        with pytest.raises(q.ValidationError, match="^amplitudes must be finite$"):
            q.QubitEnsembleSpec(0.5, 0.5, 0.0, u, v)

    def test_from_u_squared_rejects_out_of_range(self):
        with pytest.raises(q.ValidationError):
            q.QubitEnsembleSpec.from_u_squared(0.5, 0.5, 0.0, 1.5)

    def test_pure_only_gives_projector(self):
        spec = q.QubitEnsembleSpec.from_u_squared(0.0, 0.0, 1.0, 0.5)
        op = q.assemble(spec)
        assert np.max(np.abs(op.matrix - 0.5 * np.ones((2, 2)))) < 1e-12

    def test_matches_general_assembly(self, rng):
        for _ in range(100):
            w = rng.dirichlet([1.0, 1.0, 1.0])
            spec = q.QubitEnsembleSpec.from_u_squared(w[0], w[1], w[2], rng.uniform())
            direct = q.assemble(spec)
            generic = q.assemble_general(spec.to_ensemble())
            assert np.max(np.abs(direct.matrix - generic.matrix)) < 1e-12

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(spec=three_preparation_specs())
    def test_views_equal_the_scalar_formulas(self, spec):
        # The formulas assemble and natural_split held before they read ensembles._three_preparations.
        x = spec.p0 + spec.p2 * spec.u * spec.u
        y = spec.p1 + spec.p2 * spec.v * spec.v
        a = spec.p2 * spec.u * spec.v
        expected = q.make_density(np.array([[x, a], [a, y]], dtype=np.complex128)).matrix
        mixed_weight = spec.p0 + spec.p1
        diagonal = np.array([spec.p0, spec.p1]) / mixed_weight if mixed_weight > 0.0 else np.array([0.5, 0.5])
        pures = ((spec.p2, spec.superposed()),) if spec.p2 > 0.0 else ()
        reference = split_fields(q.MixedPureSplit(mixed_weight, diagonal, pures))
        matrix, split = q.assemble(spec).matrix, split_fields(spec.natural_split())
        assert (matrix == expected).all() and bits(matrix) == bits(expected)
        assert split == reference and bits(split[:4]) == bits(reference[:4])

    def test_determinant_identity(self, rng):
        # det rho = p0 p1 + p2 (p0 v^2 + p1 u^2) for this family
        for _ in range(100):
            w = rng.dirichlet([1.0, 1.0, 1.0])
            spec = q.QubitEnsembleSpec.from_u_squared(w[0], w[1], w[2], rng.uniform())
            hi, lo = q.eig2_closed_form(q.assemble(spec))
            expected = w[0] * w[1] + w[2] * (w[0] * spec.v**2 + w[1] * spec.u**2)
            assert hi * lo == pytest.approx(expected, abs=1e-10)


class TestEnsemble:
    def test_component_operator_projects_pure(self):
        comp = q.EnsembleComponent(1.0, q.PureState(np.array([0.8, 0.6])))
        assert comp.is_pure
        assert comp.operator()[0, 0].real == pytest.approx(0.64)

    def test_component_keeps_density(self):
        op = q.make_density(np.eye(2) / 2.0)
        comp = q.EnsembleComponent(1.0, op)
        assert not comp.is_pure
        assert comp.operator() is op.matrix

    def test_component_rejects_weight(self):
        # A component alone accepts any weight; the Ensemble's one weight check rejects it.
        heavy = q.EnsembleComponent(1.2, q.PureState(np.array([1.0, 0.0])))
        light = q.EnsembleComponent(-0.2, q.PureState(np.array([0.0, 1.0])))
        assert heavy.weight == 1.2
        for components in ((heavy,), (heavy, light)):
            with pytest.raises(q.WeightSumInvalid):
                q.Ensemble(components)

    def test_stores_clamped_weights(self):
        ensemble = q.Ensemble(
            (
                q.EnsembleComponent(1.0 + 5e-10, q.PureState(np.array([1.0, 0.0]))),
                q.EnsembleComponent(-5e-10, q.PureState(np.array([0.0, 1.0]))),
            )
        )
        assert [c.weight for c in ensemble.components] == [1.0 + 5e-10, 0.0]

    def test_component_rejects_raw_array(self):
        with pytest.raises(q.ValidationError):
            q.EnsembleComponent(1.0, np.eye(2) / 2.0)

    def test_rejects_empty(self):
        with pytest.raises(q.WeightSumInvalid):
            q.Ensemble(())

    def test_rejects_mixed_dims(self):
        with pytest.raises(q.DimensionMismatch):
            q.Ensemble(
                (
                    q.EnsembleComponent(0.5, q.PureState(np.array([1.0, 0.0]))),
                    q.EnsembleComponent(0.5, q.PureState(np.array([1.0, 0.0, 0.0]))),
                )
            )

    def test_rejects_weight_sum(self):
        with pytest.raises(q.WeightSumInvalid):
            q.Ensemble(
                (
                    q.EnsembleComponent(0.5, q.PureState(np.array([1.0, 0.0]))),
                    q.EnsembleComponent(0.4, q.PureState(np.array([0.0, 1.0]))),
                )
            )

    def test_average_of_section3_parts(self):
        ensemble = q.Ensemble(
            (
                q.EnsembleComponent(0.6, q.make_density(np.diag([5.0 / 6.0, 1.0 / 6.0]))),
                q.EnsembleComponent(0.4, plus_state()),
            )
        )
        avg = q.assemble_general(ensemble)
        assert np.max(np.abs(avg.matrix - np.array([[0.7, 0.2], [0.2, 0.3]]))) < 1e-12

    def test_assemble_general_equals_the_mix_route_bit_for_bit(self, rng):
        for _ in range(300):
            dim = int(rng.integers(1, 9))
            states = [
                q.PureState(random_pure_amplitudes(rng, dim)) if rng.uniform() < 0.5
                else q.make_density(random_density_matrix(rng, dim))
                for _ in range(int(rng.integers(1, 5)))
            ]
            weights = rng.dirichlet(np.ones(len(states)))
            ensemble = q.Ensemble(tuple(q.EnsembleComponent(float(w), s) for w, s in zip(weights, states)))
            oracle = q.mix(
                (c.weight, checked_projector(c.state) if c.is_pure else c.state) for c in ensemble.components
            )
            assert np.array_equal(q.assemble_general(ensemble).matrix, oracle.matrix)


class TestMixedPureSplit:
    def test_reconstruct_sums_the_parts(self):
        split = q.MixedPureSplit(0.6, np.array([5.0 / 6.0, 1.0 / 6.0]), ((0.4, plus_state()),))
        recon = split.reconstruct()
        assert np.max(np.abs(recon.matrix - np.array([[0.7, 0.2], [0.2, 0.3]]))) < 1e-12
        assert split.pure_weight == pytest.approx(0.4)

    def test_rejects_negative_mixed_weight(self):
        with pytest.raises(q.WeightSumInvalid):
            q.MixedPureSplit(-0.1, np.array([0.5, 0.5]), ((1.1, plus_state()),))

    def test_rejects_diagonal_sum(self):
        with pytest.raises(q.ValidationError):
            q.MixedPureSplit(1.0, np.array([0.6, 0.6]), ())

    def test_rejects_weight_total(self):
        with pytest.raises(q.WeightSumInvalid):
            q.MixedPureSplit(0.5, np.array([0.5, 0.5]), ((0.4, plus_state()),))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(q.DimensionMismatch):
            q.MixedPureSplit(0.5, np.array([0.5, 0.5]), ((0.5, q.PureState(np.array([1.0, 0, 0]))),))

    def test_zero_mixed_weight_allows_placeholder(self):
        split = q.MixedPureSplit(0.0, np.array([0.5, 0.5]), ((1.0, plus_state()),))
        assert split.mixed_weight == 0.0
        assert np.max(np.abs(split.reconstruct().matrix - 0.5 * np.ones((2, 2)))) < 1e-12

    def test_residual_rejects_another_dimension(self):
        qubit = q.make_density(DOUBLE)
        # Numpy would fail to broadcast 2x2 against 4x4, and broadcast 1x1 against 2x2 silently.
        with pytest.raises(q.DimensionMismatch, match="dim-2 split against a dim-4 operator"):
            q.split_family(qubit, 0.3).residual(q.make_density(np.eye(4) / 4.0))
        with pytest.raises(q.DimensionMismatch, match="dim-1 split against a dim-2 operator"):
            q.report(qubit, q.MixedPureSplit(1.0, np.array([1.0]), ()))

    def test_residual_and_reconstruct_equal_the_mix_route_bit_for_bit(self, rng):
        committed = [q.load_document(str(path)).payload for path in sorted(INPUTS.glob("*.json"))]
        ops = [op for op in committed if isinstance(op, q.DensityOperator) and op.dim == 2]
        ops += [q.make_density(random_density_matrix(rng, 2)) for _ in range(60)]
        ops += [q.make_density(np.real(random_density_matrix(rng, 2))) for _ in range(20)]
        assert len(ops) > 80
        for op in ops:
            for split in q.enumerate_splits(op, 40):
                oracle = mix_route(split)
                assert split.residual(op) == float(np.max(np.abs(oracle - op.matrix)))
                assert np.array_equal(split.reconstruct().matrix, oracle)


def test_validated_parts_skip_the_checked_route(monkeypatch):
    # report, residual, assemble_general and receiver_state sum parts their types
    # already checked, so none of them may call mix, outer_product or reconstruct.
    def forbidden(*args, **kwargs):
        raise AssertionError("checked mixing route used on validated parts")

    for module in (linalg, ensembles, entropy, game):
        for name in ("mix", "outer_product"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(q.MixedPureSplit, "reconstruct", forbidden)
    op = q.make_density(DOUBLE)
    split = q.split_family(op, 0.3)
    assert split.residual(op) < 1e-12
    assert q.report(op, split).s_ci is not None
    mixed = q.Ensemble((q.EnsembleComponent(0.6, op), q.EnsembleComponent(0.4, plus_state())))
    assert q.assemble_general(mixed).dim == 2
    assert q.receiver_state(q.GameConfig(0.3, 0.4, plus_state())).dim == 2


class TestSplitFamily:
    def test_double_example_at_p2_03(self):
        op = q.make_density(DOUBLE)
        split = q.split_family(op, 0.3)
        # discriminant works out exactly: u = 0.8, v = 0.6
        assert split.mixed_weight == pytest.approx(0.7, abs=1e-12)
        products = split.mixed_weight * split.mixed_diagonal
        assert products[0] == pytest.approx(0.4, abs=1e-12)
        assert products[1] == pytest.approx(0.3, abs=1e-12)
        weight, state = split.pures[0]
        assert weight == pytest.approx(0.3, abs=1e-12)
        assert abs(state.amplitudes[0] - 0.8) < 1e-12
        assert abs(state.amplitudes[1] - 0.6) < 1e-12

    def test_double_example_at_p2_04(self):
        op = q.make_density(DOUBLE)
        split = q.split_family(op, 0.4)
        u2 = 0.5 * (1.0 + math.sqrt(1.0 - (0.288 / 0.4) ** 2))
        products = split.mixed_weight * split.mixed_diagonal
        assert products[0] == pytest.approx(0.592 - 0.4 * u2, abs=1e-12)
        assert products[1] == pytest.approx(0.408 - 0.4 * (1.0 - u2), abs=1e-12)
        assert abs(split.pures[0][1].amplitudes[0] ** 2 - u2) < 1e-12

    def test_rejects_p2_below_off_diagonal_bound(self):
        with pytest.raises(q.NoValidSplit):
            q.split_family(q.make_density(DOUBLE), 0.2)

    def test_rejects_p2_past_diagonal_bound(self):
        with pytest.raises(q.NoValidSplit):
            q.split_family(q.make_density(DOUBLE), 0.7)

    def test_rejects_p2_out_of_range(self):
        with pytest.raises(q.ValidationError):
            q.split_family(q.make_density(DOUBLE), 0.0)

    def test_needs_qubit(self):
        with pytest.raises(q.DimensionMismatch):
            q.split_family(q.make_density(np.eye(3) / 3.0), 0.5)

    def test_vanishing_off_diagonal_absorbs_pure_part(self):
        split = q.split_family(q.make_density(np.eye(2) / 2.0), 1e-3)
        assert split.mixed_weight == 1.0
        assert np.allclose(split.mixed_diagonal, [0.5, 0.5], atol=1e-12)
        assert split.pures == ()

    def test_full_pure_weight_on_pure_state(self):
        op = q.outer_product(q.PureState(np.array([0.8, 0.6])))
        split = q.split_family(op, 1.0)
        assert split.mixed_weight == 0.0
        assert abs(split.pures[0][1].amplitudes[0] - 0.8) < 1e-12

    def test_primary_branch_fails_on_heavy_lower_pure(self):
        # the family's own branch puts the big amplitude on |0>, which a
        # |1>-heavy pure state cannot satisfy
        op = q.outer_product(q.PureState(np.array([0.6, 0.8])))
        with pytest.raises(q.NoValidSplit):
            q.split_family(op, 1.0)

    def test_complex_off_diagonal_reconstructs(self):
        op = q.make_density([[0.5, 0.1 - 0.2j], [0.1 + 0.2j, 0.5]])
        split = q.split_family(op, 0.6)
        assert np.max(np.abs(split.reconstruct().matrix - op.matrix)) < 1e-10
        assert split.pures[0][1].amplitudes[0].imag == 0.0

    def test_negative_off_diagonal_reconstructs(self):
        op = q.make_density([[0.5, -0.3], [-0.3, 0.5]])
        split = q.split_family(op, 0.65)
        assert np.max(np.abs(split.reconstruct().matrix - op.matrix)) < 1e-10

    def test_random_members_reconstruct(self, rng):
        for _ in range(200):
            op = q.make_density(random_density_matrix(rng, 2))
            r = abs(op.a)
            if r <= 1e-12:
                continue
            if r > op.x:
                # The heavy-on-|0> branch needs at least r of weight on the
                # first diagonal entry, so such operators never split here.
                with pytest.raises(q.NoValidSplit):
                    q.split_family(op, min(1.0, 2.0 * r))
                continue
            lo = 2.0 * r if r <= op.y else op.y + r * r / op.y
            hi = op.x + r * r / op.x
            p2 = lo + rng.uniform() * (hi - lo)
            split = q.split_family(op, p2)
            assert np.max(np.abs(split.reconstruct().matrix - op.matrix)) < 1e-10


class TestSymmetricSplit:
    def test_example_split(self):
        split = q.symmetric_split(q.make_density([[0.7, 0.2], [0.2, 0.3]]))
        assert split.mixed_weight == pytest.approx(0.6, abs=1e-12)
        assert split.mixed_diagonal[0] == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert split.mixed_diagonal[1] == pytest.approx(1.0 / 6.0, abs=1e-12)
        weight, state = split.pures[0]
        assert weight == pytest.approx(0.4, abs=1e-12)
        assert np.max(np.abs(state.amplitudes - math.sqrt(0.5))) < 1e-12

    def test_balanced_matrix(self):
        split = q.symmetric_split(q.make_density([[0.5, 0.2], [0.2, 0.5]]))
        assert split.mixed_weight == pytest.approx(0.6, abs=1e-12)
        assert np.allclose(split.mixed_diagonal, [0.5, 0.5], atol=1e-12)

    def test_diagonal_operator_is_all_mixed(self):
        split = q.symmetric_split(q.make_density(np.diag([0.7, 0.3])))
        assert split.mixed_weight == 1.0
        assert split.pures == ()

    def test_rejects_dominant_off_diagonal(self):
        with pytest.raises(q.NoValidSplit):
            q.symmetric_split(q.make_density([[0.2, 0.3], [0.3, 0.8]]))

    def test_agrees_with_family_at_lower_bound(self, rng):
        for _ in range(100):
            op = q.make_density(random_density_matrix(rng, 2))
            r = abs(op.a)
            if r < 1e-6 or op.x <= r or op.y <= r:
                continue
            sym = q.symmetric_split(op)
            fam = q.split_family(op, 2.0 * r)
            assert abs(sym.mixed_weight - fam.mixed_weight) < 1e-12
            assert np.max(np.abs(sym.mixed_diagonal - fam.mixed_diagonal)) < 1e-9
            assert np.max(np.abs(sym.pures[0][1].amplitudes - fam.pures[0][1].amplitudes)) < 1e-6


class TestPureWeightBounds:
    def test_double_example(self):
        lo, hi = q.pure_weight_bounds(q.make_density(DOUBLE))
        assert lo == pytest.approx(0.288, abs=1e-12)
        assert hi == pytest.approx((0.592**2 + 0.144**2) / 0.592, abs=1e-12)

    def test_diagonal_operator(self):
        assert q.pure_weight_bounds(q.make_density(np.diag([0.7, 0.3]))) == (0.0, 0.0)

    def test_pure_state_reaches_one(self):
        op = q.outer_product(q.PureState(np.array([0.8, 0.6])))
        lo, hi = q.pure_weight_bounds(op)
        assert lo == pytest.approx(0.96, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_upper_end_follows_the_larger_diagonal_entry(self):
        op = q.make_density([[0.1, 0.25], [0.25, 0.9]])
        lo, hi = q.pure_weight_bounds(op)
        assert lo == pytest.approx(0.5, abs=1e-12)
        assert hi == pytest.approx(0.9 + 0.0625 / 0.9, abs=1e-12)


class TestEnumerateSplits:
    def test_rejects_bad_count(self):
        with pytest.raises(q.ValidationError):
            q.enumerate_splits(q.make_density(DOUBLE), 0)

    def test_maximally_mixed_repeats_the_trivial_split(self):
        splits = q.enumerate_splits(q.make_density(np.eye(2) / 2.0), 5)
        assert len(splits) == 5
        for split in splits:
            assert split.mixed_weight == 1.0
            assert split.pures == ()

    def test_grid_spans_bounds_and_reconstructs(self):
        op = q.make_density(DOUBLE)
        splits = q.enumerate_splits(op, 4)
        assert len(splits) == 4
        lo, hi = q.pure_weight_bounds(op)
        assert splits[0].pure_weight == pytest.approx(lo, abs=1e-12)
        assert splits[-1].pure_weight == pytest.approx(hi, abs=1e-12)
        for split in splits:
            assert np.max(np.abs(split.reconstruct().matrix - op.matrix)) < 1e-10
        # the top of the range empties one mixed diagonal entry
        assert splits[-1].mixed_diagonal[0] == pytest.approx(0.0, abs=1e-9)

    def test_pure_state_yields_only_itself(self):
        op = q.outer_product(q.PureState(np.array([0.8, 0.6])))
        splits = q.enumerate_splits(op, 5)
        assert len(splits) == 1
        assert splits[0].mixed_weight == 0.0
        assert abs(splits[0].pures[0][1].amplitudes[0] - 0.8) < 1e-9

    def test_heavy_lower_pure_appears_via_mirror_branch(self):
        op = q.outer_product(q.PureState(np.array([0.6, 0.8])))
        splits = q.enumerate_splits(op, 5)
        assert len(splits) == 1
        state = splits[0].pures[0][1]
        assert abs(state.amplitudes[0] - 0.6) < 1e-9
        assert abs(state.amplitudes[1] - 0.8) < 1e-9

    def test_mirror_branch_on_mixed_heavy_lower_operator(self):
        op = q.make_density([[0.1, 0.25], [0.25, 0.9]])
        splits = q.enumerate_splits(op, 6)
        assert splits
        for split in splits:
            assert np.max(np.abs(split.reconstruct().matrix - op.matrix)) < 1e-10
            # mirrored members put the larger amplitude on |1>
            probs = split.pures[0][1].probabilities()
            assert probs[1] >= probs[0] - 1e-12


def bits(values) -> list[int]:
    """Float64 (or complex128) values as bit patterns, so -0.0 and 0.0 differ."""
    return np.asarray(values).view(np.int64).tolist()


def split_fields(split: q.MixedPureSplit) -> tuple:
    amps = split.pures[0][1].amplitudes.tolist() if split.pures else []
    return (split.mixed_weight, *split.mixed_diagonal.tolist(), split.pure_weight, amps)


def outcome(build, *args):
    """A split's fields, or the NoValidSplit message raised instead."""
    try:
        return split_fields(build(*args))
    except q.NoValidSplit as exc:
        return str(exc)


class TestSplitKernel:
    """The family's column kernel against the per-point route of tests/split_oracle.py, with ==."""

    @staticmethod
    def assert_sampled_columns_equal(op, count):
        family = ensembles._sampled_family(op, count)
        reference = split_oracle.enumerate_splits(op, count)
        assert family.pure_weight.size == len(reference)
        if not reference:
            return
        s_ci, pure_share = entropy._composite_rows(family.mixed_weight, family.diag, ((family.pure_weight, family.amps),))
        residual = family.residual(op.matrix)
        for k, split in enumerate(reference):
            columns = [family.mixed_weight[k], *family.diag[k], family.pure_weight[k], residual[k], s_ci[k],
                       pure_share[k]]
            expected = [split.mixed_weight, *split.mixed_diagonal, split.pure_weight, split.residual(op),
                        q.composite(split), sum(w * q.pure_entropy(ps) for w, ps in split.pures) + 0.0]
            assert columns == expected and bits(columns) == bits(expected), k
            if split.pures:
                assert bits(family.amps[k]) == bits(split.pures[0][1].amplitudes), k
        assert list(map(split_fields, q.enumerate_splits(op, count))) == list(map(split_fields, reference))

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(matrix=qubit_density_matrices(), count=st.sampled_from([1, 2, 5, 257]) | st.integers(1, 40))
    def test_sampled_columns_equal_the_per_point_route(self, matrix, count):
        self.assert_sampled_columns_equal(q.make_density(matrix), count)

    @pytest.mark.parametrize("count", [1, 2, 5, 257])
    @pytest.mark.parametrize("name", sorted(QUBIT_EDGE_CASES))
    def test_edge_cases_equal_the_per_point_route(self, name, count):
        self.assert_sampled_columns_equal(q.make_density(QUBIT_EDGE_CASES[name]), count)

    @pytest.mark.parametrize("count", [1, 2, 5, 257])
    def test_committed_densities_equal_the_per_point_route(self, count):
        documents = [q.load_document(str(path)) for path in sorted(INPUTS.glob("*.json"))]
        densities = [doc.payload for doc in documents if doc.kind == "density" and doc.payload.dim == 2]
        assert len(densities) >= 5
        for op in densities:
            self.assert_sampled_columns_equal(op, count)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(matrix=qubit_density_matrices(), fraction=st.floats(0.0, 1.0))
    @example(matrix=np.array(QUBIT_EDGE_CASES["no-split-at-lowest-weight"]), fraction=0.0)
    @example(matrix=np.array(QUBIT_EDGE_CASES["real-projector"]), fraction=1.0)
    @example(matrix=np.array(QUBIT_EDGE_CASES["real-projector"]), fraction=1e-300)  # 2|a| / p2 overflows
    def test_scalar_views_equal_the_per_point_route(self, matrix, fraction):
        # Any p2 in (0, 1], inside the valid range or not; NoValidSplit must carry the same message.
        op = q.make_density(matrix)
        p2 = max(fraction, 5e-324)
        assert outcome(q.split_family, op, p2) == outcome(split_oracle.split_at, op, p2)
        r = abs(op.a)
        if r > linalg.NEGLIGIBLE_OFFDIAG and min(op.x, op.y) <= r:
            with pytest.raises(q.NoValidSplit, match="balanced split needs"):
                q.symmetric_split(op)
        else:
            assert outcome(q.symmetric_split, op) == outcome(split_oracle.split_at, op, 2.0 * r)


@settings(max_examples=80, deadline=None)
@given(
    x=st.floats(0.05, 0.95),
    off_scale=st.floats(0.01, 0.99),
    p2_scale=st.floats(0.0, 1.0),
)
def test_family_members_reconstruct_everywhere(x, off_scale, p2_scale):
    y = 1.0 - x
    a = off_scale * math.sqrt(x * y)
    op = q.make_density(np.array([[x, a], [a, y]]))
    if a > x:
        with pytest.raises(q.NoValidSplit):
            q.split_family(op, min(1.0, x + a * a / x))
        return
    lo = 2.0 * a if a <= y else y + a * a / y
    hi = x + a * a / x
    p2 = lo + p2_scale * (hi - lo)
    split = q.split_family(op, p2)
    assert np.max(np.abs(split.reconstruct().matrix - op.matrix)) < 1e-10
    total = split.mixed_weight + split.pure_weight
    assert total == pytest.approx(1.0, abs=1e-9)
