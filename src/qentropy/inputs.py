"""JSON input documents for the command line.

A document is one JSON object with a `kind` discriminator. Numeric arrays
are split into `re` and an optional `im` of the same shape (defaulting to
zeros), which keeps the files plain JSON while allowing complex entries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import DensityOperator, PureState, make_density
from .ensembles import Ensemble, EnsembleComponent, QubitEnsembleSpec
from .game import GameConfig

Payload = DensityOperator | PureState | Ensemble | QubitEnsembleSpec | GameConfig


@dataclass(frozen=True, eq=False)
class InputDocument:
    """A parsed document: its kind string plus the validated payload."""

    kind: str
    payload: Payload


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a JSON object, got {type(obj).__name__}")
    return obj


def _number(obj: dict, key: str, where: str, default=None) -> float:
    if key not in obj:
        if default is not None:
            return default
        raise ValidationError(f"{where} is missing required key {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}[{key!r}] must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{where}[{key!r}] is an integer too large for a float") from None


def _numeric_array(obj: dict, key: str, where: str, shape: tuple[int, ...] | None):
    if key not in obj:
        return None
    try:
        arr = np.array(obj[key], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}[{key!r}] is not a numeric array: {exc}") from None
    if shape is not None and arr.shape != shape:
        raise ValidationError(f"{where}[{key!r}] has shape {arr.shape}, expected {shape}")
    return arr


def _complex_parts(obj: dict, where: str, ndim: int) -> np.ndarray:
    re = _numeric_array(obj, "re", where, None)
    if re is None:
        raise ValidationError(f"{where} is missing required key 're'")
    if re.ndim != ndim:
        raise ValidationError(f"{where}['re'] must be {ndim}-dimensional, got shape {re.shape}")
    im = _numeric_array(obj, "im", where, re.shape)
    if im is None:
        im = np.zeros_like(re)
    return re + 1j * im


def _parse_pure(obj: dict, where: str) -> PureState:
    return PureState(_complex_parts(_require_mapping(obj, where), where, ndim=1))


def _parse_density(obj: dict, where: str) -> DensityOperator:
    mapping = _require_mapping(obj, where)
    matrix = _complex_parts(mapping, where, ndim=2)
    if "dim" in mapping:
        dim = mapping["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int) or dim != matrix.shape[0]:
            raise ValidationError(
                f"{where}['dim'] = {dim!r} does not match matrix shape {matrix.shape}"
            )
    return make_density(matrix)


def _parse_ensemble(obj: dict, where: str) -> Ensemble:
    raw = obj.get("components")
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{where}['components'] must be a nonempty array")
    components = []
    for idx, entry in enumerate(raw):
        spot = f"{where}['components'][{idx}]"
        mapping = _require_mapping(entry, spot)
        weight = _number(mapping, "weight", spot)
        has_pure = "pure" in mapping
        has_density = "density" in mapping
        if has_pure == has_density:
            raise ValidationError(f"{spot} must carry exactly one of 'pure' or 'density'")
        if has_pure:
            state: PureState | DensityOperator = _parse_pure(mapping["pure"], f"{spot}['pure']")
        else:
            state = _parse_density(mapping["density"], f"{spot}['density']")
        components.append(EnsembleComponent(weight, state))
    return Ensemble(tuple(components))


def _parse_qubit_spec(obj: dict, where: str) -> QubitEnsembleSpec:
    return QubitEnsembleSpec.from_u_squared(
        _number(obj, "p0", where),
        _number(obj, "p1", where),
        _number(obj, "p2", where),
        _number(obj, "u2", where),
    )


def _parse_game(obj: dict, where: str) -> GameConfig:
    lam = _number(obj, "lambda", where)
    weight = _number(obj, "injection_weight", where, default=0.5)
    injected = None
    if "injected" in obj:
        injected = _parse_pure(obj["injected"], f"{where}['injected']")
    return GameConfig(lam=lam, injection_weight=weight, injected=injected)


_PARSERS = {"density": _parse_density, "pure": _parse_pure, "ensemble": _parse_ensemble,
            "qubit-spec": _parse_qubit_spec, "game": _parse_game}
KINDS = tuple(_PARSERS)


def parse_document(obj) -> InputDocument:
    """Validate a decoded JSON object into an InputDocument."""
    mapping = _require_mapping(obj, "document")
    kind = mapping.get("kind")
    if kind not in KINDS:  # the tuple, not the dict: a JSON array or object is unhashable
        raise ValidationError(f"document kind must be one of {list(KINDS)}, got {kind!r}")
    return InputDocument(kind=kind, payload=_PARSERS[kind](mapping, "document"))


def load_document(path: str) -> InputDocument:
    """Read and parse one JSON document from a file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad syntax, bytes that are not UTF-8 and integers
        # past Python's digit limit; RecursionError, arrays nested too deep.
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    return parse_document(obj)
