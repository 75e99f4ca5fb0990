"""JSON document parsing."""

from __future__ import annotations

import json

import numpy as np
import pytest

import qentropy as q
from qentropy.inputs import parse_document

from conftest import MALFORMED_FILES


class TestDensityDocuments:
    def test_real_matrix(self):
        doc = parse_document({"kind": "density", "dim": 2, "re": [[0.7, 0.2], [0.2, 0.3]]})
        assert doc.kind == "density"
        assert doc.payload.x == pytest.approx(0.7)

    def test_imaginary_part_defaults_to_zero(self):
        doc = parse_document({"kind": "density", "re": [[0.5, 0.0], [0.0, 0.5]]})
        assert np.all(doc.payload.matrix.imag == 0.0)

    def test_complex_matrix(self):
        doc = parse_document(
            {
                "kind": "density",
                "re": [[0.5, 0.1], [0.1, 0.5]],
                "im": [[0.0, -0.2], [0.2, 0.0]],
            }
        )
        assert doc.payload.a == pytest.approx(0.1 - 0.2j)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(q.ValidationError):
            parse_document({"kind": "density", "dim": 3, "re": [[1.0, 0.0], [0.0, 0.0]]})

    def test_shape_mismatch_between_parts(self):
        with pytest.raises(q.ValidationError):
            parse_document({"kind": "density", "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0]]})

    def test_invalid_matrix_propagates_validation(self):
        with pytest.raises(q.TraceNotOne):
            parse_document({"kind": "density", "re": [[0.9, 0.0], [0.0, 0.3]]})

    def test_ragged_rows_rejected(self):
        with pytest.raises(q.ValidationError):
            parse_document({"kind": "density", "re": [[1.0, 0.0], [0.0]]})

    def test_non_numeric_rejected(self):
        with pytest.raises(q.ValidationError):
            parse_document({"kind": "density", "re": [["x", 0.0], [0.0, 1.0]]})


class TestPureDocuments:
    def test_real_vector(self):
        doc = parse_document({"kind": "pure", "re": [0.6, 0.8]})
        assert doc.payload.probabilities()[1] == pytest.approx(0.64)

    def test_complex_vector(self):
        doc = parse_document({"kind": "pure", "re": [0.6, 0.0], "im": [0.0, 0.8]})
        assert doc.payload.probabilities()[1] == pytest.approx(0.64)

    def test_missing_re_rejected(self):
        with pytest.raises(q.ValidationError):
            parse_document({"kind": "pure", "im": [1.0, 0.0]})


class TestEnsembleDocuments:
    def test_mixed_component_kinds(self):
        doc = parse_document(
            {
                "kind": "ensemble",
                "components": [
                    {"weight": 0.6, "density": {"re": [[0.8333333333, 0], [0, 0.1666666667]]}},
                    {"weight": 0.4, "pure": {"re": [0.7071067811865476, 0.7071067811865476]}},
                ],
            }
        )
        avg = q.assemble_general(doc.payload)
        assert avg.x == pytest.approx(0.7, abs=1e-9)

    def test_component_needs_exactly_one_state(self):
        with pytest.raises(q.ValidationError):
            parse_document(
                {
                    "kind": "ensemble",
                    "components": [
                        {"weight": 1.0, "pure": {"re": [1, 0]}, "density": {"re": [[1, 0], [0, 0]]}}
                    ],
                }
            )

    def test_empty_components_rejected(self):
        with pytest.raises(q.ValidationError):
            parse_document({"kind": "ensemble", "components": []})

    def test_missing_weight_rejected(self):
        with pytest.raises(q.ValidationError):
            parse_document({"kind": "ensemble", "components": [{"pure": {"re": [1, 0]}}]})


class TestQubitSpecDocuments:
    def test_round_trip(self):
        doc = parse_document({"kind": "qubit-spec", "p0": 0.4, "p1": 0.3, "p2": 0.3, "u2": 0.64})
        op = q.assemble(doc.payload)
        assert op.x == pytest.approx(0.592, abs=1e-12)

    def test_missing_key_rejected(self):
        with pytest.raises(q.ValidationError):
            parse_document({"kind": "qubit-spec", "p0": 0.4, "p1": 0.3, "p2": 0.3})


class TestGameDocuments:
    def test_defaults(self):
        doc = parse_document({"kind": "game", "lambda": 0.25})
        assert doc.payload.lam == 0.25
        assert doc.payload.injection_weight == 0.5
        assert doc.payload.injected is None

    def test_custom_strategy(self):
        doc = parse_document(
            {
                "kind": "game",
                "lambda": 0.25,
                "injection_weight": 0.3,
                "injected": {"re": [0.6, 0.8]},
            }
        )
        assert doc.payload.injection_weight == 0.3
        assert doc.payload.injected.dim == 2

    def test_boolean_lambda_rejected(self):
        with pytest.raises(q.ValidationError):
            parse_document({"kind": "game", "lambda": True})


class TestDocumentEnvelope:
    @pytest.mark.parametrize("kind", ["unitary", [], {}])
    def test_unknown_kind_rejected(self, kind):
        # An array or object kind is unhashable: it must fail the check, not raise TypeError.
        expected = f"document kind must be one of ['density', 'pure', 'ensemble', 'qubit-spec', 'game'], got {kind!r}"
        with pytest.raises(q.ValidationError) as info:
            parse_document({"kind": kind, "re": [[1]]})
        assert str(info.value) == expected

    def test_missing_kind_rejected(self):
        with pytest.raises(q.ValidationError):
            parse_document({"re": [[1]]})

    def test_non_object_rejected(self):
        with pytest.raises(q.ValidationError):
            parse_document([1, 2, 3])


class TestLoadDocument:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"kind": "pure", "re": [1.0, 0.0]}))
        doc = q.load_document(str(path))
        assert doc.kind == "pure"

    def test_missing_file(self, tmp_path):
        with pytest.raises(q.ValidationError):
            q.load_document(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize(
        "content", [b"{not json", *MALFORMED_FILES.values()], ids=["not-json", *MALFORMED_FILES]
    )
    def test_malformed_json(self, tmp_path, content):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        with pytest.raises(q.ValidationError):
            q.load_document(str(path))
