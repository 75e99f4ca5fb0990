"""Independent references for every output the benchmark checks.

Nothing here imports qentropy. Each reference is computed from the input
document with numpy (``eigvalsh`` for spectra) or from a closed form, so a
defect in the program cannot pass by agreeing with itself. Every check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

# The CLI prints six significant digits, so a correct value can be off by
# half a unit in the sixth digit: 5e-6 relative. REL_TOL allows twice that.
# ABS_TOL covers values that are zero up to rounding, such as the entropy of
# a pure state, which may print as 1e-15.
REL_TOL = 1e-5
ABS_TOL = 1e-8
# Values rebuilt from several printed fields (a split's reconstruction and
# its s_ci) carry the rounding of every field they use.
DERIVED_TOL = 5e-5
# A split's printed residual is the program's own reconstruction error; it
# is far below this for any correct split.
RESIDUAL_LIMIT = 1e-8
# Scan flags are compared only where S_n and S_ci (or S_ci and S_i) differ
# by more than this; closer calls depend on the last bits of the arithmetic.
FLAG_MARGIN = 1e-9

# Documented program constants that define which rows and splits exist.
ORDERING_SLACK = 1e-12
NEGLIGIBLE_OFFDIAG = 1e-12
WEIGHT_SLACK = 1e-9
# Reference counts of the default theorem scan (p_step 0.05, u2_step 0.1).
DEFAULT_SCAN = {"points": 2541, "left": 1326, "right": 0}


def plogp(p):
    p = np.clip(np.asarray(p, dtype=np.float64), 0.0, None)
    safe = np.where(p > 0.0, p, 1.0)
    return p * np.log2(safe)


def bits(p) -> float:
    """Shannon entropy in bits of a nonnegative vector summing to 1."""
    return float(-np.sum(plogp(p)))


def spectrum_bits(matrix) -> float:
    return bits(np.linalg.eigvalsh(np.asarray(matrix)))


def close(got: float, ref: float, tol: float | None = None) -> bool:
    if tol is None:
        tol = REL_TOL * abs(ref) + ABS_TOL
    return math.isfinite(got) and abs(got - ref) <= tol


def compare(problems: list[str], name: str, got, ref, tol: float | None = None) -> None:
    if ref is None or got is None:
        if (ref is None) != (got is None):
            problems.append(f"{name}: got {got!r}, expected {ref!r}")
        return
    if not close(float(got), float(ref), tol):
        problems.append(f"{name}: got {got!r}, expected {ref!r}")


def grid(limit: float, step: float) -> list[float]:
    """The CLI's documented grid: k * step for k = 0..floor(limit/step)."""
    n = int(math.floor(limit / step + 1e-9))
    return [min(k * step, limit) for k in range(n + 1)]


# ---------------------------------------------------------------- documents

def _complex(obj) -> np.ndarray:
    re = np.asarray(obj["re"], dtype=np.float64)
    im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=np.float64)
    return re + 1j * im


def _spec_entries(doc) -> tuple[float, float, complex]:
    p0, p1, p2, u2 = doc["p0"], doc["p1"], doc["p2"], doc["u2"]
    u, v = math.sqrt(u2), math.sqrt(1.0 - u2)
    return p0 + p2 * u * u, p1 + p2 * v * v, complex(p2 * u * v)


def document_operator(doc) -> np.ndarray:
    """The density matrix a document describes."""
    kind = doc["kind"]
    if kind == "density":
        m = _complex(doc)
        return 0.5 * (m + m.conj().T)
    if kind == "pure":
        v = _complex(doc)
        return np.outer(v, v.conj())
    if kind == "ensemble":
        return sum(c["weight"] * _component_operator(c) for c in doc["components"])
    if kind == "qubit-spec":
        x, y, a = _spec_entries(doc)
        return np.array([[x, a], [a.conjugate(), y]])
    raise ValueError(f"no operator for {kind!r} documents")


def _component_operator(component) -> np.ndarray:
    if "pure" in component:
        return document_operator({"kind": "pure", **component["pure"]})
    return document_operator({"kind": "density", **component["density"]})


# ------------------------------------------------------------------- splits

def _qubit_entries(m) -> tuple[float, float, float]:
    return float(m[0, 0].real), float(m[1, 1].real), float(abs(m[0, 1]))


def balanced_split(m):
    """(s_ci, pure_share) of the balanced split, or None where none exists."""
    x, y, r = _qubit_entries(m)
    if r <= NEGLIGIBLE_OFFDIAG:
        return bits(np.array([x, y]) / (x + y)), 0.0
    if x <= r or y <= r:
        return None
    w = 1.0 - 2.0 * r
    # The pure part is an equal superposition: exactly one bit.
    return w * bits([(x - r) / w, (y - r) / w]) + 2.0 * r, 2.0 * r


def family_member(x: float, y: float, r: float, p2: float, heavy: int):
    """The split with pure weight p2 solving p2*u*v = r, or None if invalid.

    `heavy` is the basis index that carries the larger squared amplitude.
    Returns (mixed_weight, mixed_diagonal, u2, v2).
    """
    ratio = 2.0 * r / p2
    if ratio > 1.0 + 1e-12:
        return None
    disc = math.sqrt(max(0.0, 1.0 - ratio * ratio))
    big, small = 0.5 * (1.0 + disc), 0.5 * (1.0 - disc)
    u2, v2 = (big, small) if heavy == 0 else (small, big)
    n0, n1 = x - p2 * u2, y - p2 * v2
    if n0 < -WEIGHT_SLACK or n1 < -WEIGHT_SLACK:
        return None
    n = np.maximum([n0, n1], 0.0)
    if 1.0 - p2 < NEGLIGIBLE_OFFDIAG or n.sum() <= 0.0:
        return 0.0, np.array([0.5, 0.5]), u2, v2
    return 1.0 - p2, n / n.sum(), u2, v2


def family_split(m, p2: float):
    """(s_ci, pure_share) of the heavy-on-|0> split with pure weight p2."""
    x, y, r = _qubit_entries(m)
    if r <= NEGLIGIBLE_OFFDIAG:
        return bits(np.array([x, y]) / (x + y)), 0.0
    member = family_member(x, y, r, p2, heavy=0)
    if member is None:
        return None
    mixed, diag, u2, v2 = member
    pure_share = (1.0 - mixed) * bits([u2, v2])
    return mixed * bits(diag) + pure_share, pure_share


def natural_split(doc):
    """(s_ci, pure_share) of a qubit-spec document's own split."""
    p0, p1, p2, u2 = doc["p0"], doc["p1"], doc["p2"], doc["u2"]
    mixed = p0 + p1
    diag = [p0 / mixed, p1 / mixed] if mixed > 0.0 else [0.5, 0.5]
    pure_share = p2 * bits([u2, 1.0 - u2]) if p2 > 0.0 else 0.0
    return mixed * bits(diag) + pure_share, pure_share


def valid_split_count(m, count: int) -> int:
    """How many of `count` samples over [2|a|, p2_max] admit a split."""
    x, y, r = _qubit_entries(m)
    if r <= NEGLIGIBLE_OFFDIAG:
        return count
    d = max(x, y)
    lo, hi = 2.0 * r, max(min(1.0, d + r * r / d), 2.0 * r)
    samples = [lo] if hi - lo < 1e-12 or count == 1 else np.linspace(lo, hi, count)
    return sum(
        1 for p2 in samples
        if any(family_member(x, y, r, float(p2), h) is not None for h in (0, 1))
    )


def check_split_rows(m, rows, count: int) -> list[str]:
    """Check decompose rows against the source matrix and each other.

    Each row is a dict of pure_weight, mixed_weight, d0, d1, amp0, amp1
    (None when the split has no pure part), residual and s_ci.
    """
    problems = []
    expected = valid_split_count(m, count)
    if len(rows) != expected:
        problems.append(f"{len(rows)} splits printed, expected {expected}")
    for k, row in enumerate(rows, start=1):
        mixed, pure = row["mixed_weight"], row["pure_weight"]
        compare(problems, f"split {k} weight sum", mixed + pure, 1.0, DERIVED_TOL)
        rebuilt = mixed * np.diag([row["d0"], row["d1"]]).astype(complex)
        pure_bits = 0.0
        if row["amp0"] is not None:
            amps = np.array([row["amp0"], row["amp1"]])
            rebuilt = rebuilt + pure * np.outer(amps, amps.conj())
            pure_bits = bits(np.abs(amps) ** 2 / np.sum(np.abs(amps) ** 2))
        gap = float(np.max(np.abs(rebuilt - m)))
        if gap > DERIVED_TOL:
            problems.append(f"split {k} rebuilds the source matrix only to {gap:.3e}")
        if not row["residual"] <= RESIDUAL_LIMIT:
            problems.append(f"split {k} reports residual {row['residual']!r}")
        s_ci = mixed * bits([row["d0"], row["d1"]]) + pure * pure_bits
        compare(problems, f"split {k} s_ci", row["s_ci"], s_ci, DERIVED_TOL)
    return problems


# ------------------------------------------------------------- CLI parsing

def _key_values(out: str) -> dict[str, str]:
    pairs = {}
    for line in out.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            pairs[key.strip()] = value
    return pairs


def _parse_matrix(text: str) -> np.ndarray:
    rows = text.strip()[2:-2].split("], [")
    return np.array([[complex(v) for v in row.split(", ")] for row in rows])


def _csv(out: str) -> tuple[list[str], list[list[str]]]:
    lines = out.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ------------------------------------------------------------ CLI commands

def check_entropy(doc, response, *, csv: bool = False, p2: float | None = None) -> list[str]:
    """`entropy` on one document, text or CSV, optionally with --p2."""
    m = document_operator(doc)
    ref = {"s_n": spectrum_bits(m), "s_i": bits(np.real(np.diag(m))),
           "s_ci": None, "pure_share": None, "s_p": None}
    split = None
    if doc["kind"] == "pure":
        ref["s_p"] = ref["s_i"]
    elif p2 is not None:
        split = family_split(m, p2)
    elif doc["kind"] == "qubit-spec":
        split = natural_split(doc)
    elif m.shape[0] == 2:
        split = balanced_split(m)
    if split is not None:
        ref["s_ci"], ref["pure_share"] = split

    problems: list[str] = []
    out = response["out"]
    if csv:
        header, rows = _csv(out)
        if header != ["s_n", "s_i", "s_ci", "pure_share", "s_p"] or len(rows) != 1:
            return [f"unexpected CSV layout: {out[:200]!r}"]
        got = {k: (float(v) if v else None) for k, v in zip(header, rows[0])}
    else:
        pairs = _key_values(out)
        got = {k: (float(pairs[k]) if k in pairs else None) for k in ref}
        if "matrix" not in pairs:
            return ["no matrix line"]
        printed = _parse_matrix(pairs["matrix"])
        if printed.shape != m.shape or not np.allclose(printed, m, rtol=REL_TOL, atol=ABS_TOL):
            problems.append(f"matrix differs: {pairs['matrix']}")
    for key, value in ref.items():
        compare(problems, key, got.get(key), value)
    return problems


def check_decompose(doc, response, *, count: int) -> list[str]:
    """`decompose` on a density document."""
    m = document_operator(doc)
    rows = []
    for block in response["out"].split("split ")[1:]:
        fields = _key_values(block)
        d0, d1 = fields["mixed_diagonal"].strip("()").split(", ")
        row = {"mixed_weight": float(fields["mixed_weight"]),
               "d0": float(d0), "d1": float(d1), "amp0": None, "amp1": None,
               "pure_weight": 0.0, "residual": float(fields["residual"]),
               "s_ci": float(fields["s_ci"])}
        for line in block.splitlines():
            if line.strip().startswith("pure: weight = "):
                weight, amps = line.split("pure: weight = ")[1].split(", amplitudes = ")
                a0, a1 = amps.strip("()").split(", ")
                row.update(pure_weight=float(weight), amp0=complex(a0), amp1=complex(a1))
        rows.append(row)
    return check_split_rows(m, rows, count)


def check_holevo(doc, response) -> list[str]:
    avg = sum(
        c["weight"] * spectrum_bits(_component_operator(c))
        for c in doc["components"] if "density" in c
    )
    s_mix = spectrum_bits(document_operator(doc))
    pairs = _key_values(response["out"])
    problems: list[str] = []
    for key, value in (("chi", s_mix - avg), ("s_mix", s_mix), ("avg_component_entropy", avg)):
        compare(problems, key, float(pairs[key]) if key in pairs else None, value)
    return problems


def _balanced_bits(a: float) -> float:
    return bits([0.5 + a, 0.5 - a])


def check_table1(response) -> list[str]:
    header, rows = _csv(response["out"])
    expected = grid(0.5, 0.05)
    if header != ["a", "s_i", "pure_share", "s_n"] or len(rows) != len(expected):
        return [f"unexpected table1 layout ({len(rows)} rows)"]
    problems: list[str] = []
    for a, row in zip(expected, rows):
        got = [float(v) for v in row]
        for name, g, r in zip(header, got, (a, 1.0, 2.0 * a, _balanced_bits(a))):
            compare(problems, f"table1 a={a:.2f} {name}", g, r)
    return problems


def check_sweep(figure: int, step: float, response) -> list[str]:
    header, rows = _csv(response["out"])
    problems: list[str] = []
    if figure == 2:
        expected = [(a, _balanced_bits(a), 1.0, 1.0) for a in grid(0.5, step)]
    elif figure == 3:
        expected = []
        for x in grid(1.0, step):
            y = 1.0 - x
            for a in grid(0.5, step):
                if x > a and y > a:
                    s_ci = -plogp(x - a) - plogp(y - a) + plogp(1.0 - 2.0 * a) + 2.0 * a
                    expected.append((x, a, float(s_ci)))
    else:
        expected = []
        for lam in grid(1.0, step):
            sender = bits([lam, 1.0 - lam])
            receiver = _balanced_bits(0.5 * math.sqrt(lam * (1.0 - lam)))
            expected.append((lam, sender, receiver, receiver - sender))
    if len(rows) != len(expected):
        return [f"figure {figure}: {len(rows)} rows, expected {len(expected)}"]
    for ref, row in zip(expected, rows):
        for name, g, r in zip(header, row, ref):
            compare(problems, f"figure {figure} {name} at {ref[0]:.4g}", float(g), r)
    return problems


def threshold_roots() -> tuple[float, float]:
    """Zeros of the default game gain: roots of 5*lam^2 - 5*lam + 1."""
    root5 = math.sqrt(5.0)
    return (5.0 - root5) / 10.0, (5.0 + root5) / 10.0


def check_threshold(tol: float, response) -> list[str]:
    pairs = _key_values(response["out"])
    problems: list[str] = []
    lower, upper = threshold_roots()
    # Bisection stops within `tol` of the root; printing adds its rounding.
    allowed = tol + REL_TOL * upper
    got_lower = float(pairs["lower_root"]) if "lower_root" in pairs else None
    got_upper = float(pairs["upper_root"]) if "upper_root" in pairs else None
    compare(problems, "lower_root", got_lower, lower, allowed)
    compare(problems, "upper_root", got_upper, upper, allowed)
    signs = [line.rsplit(": ", 1)[-1] for line in response["out"].splitlines()
             if line.startswith("gain sign on")]
    if signs != ["+", "-", "+"]:
        problems.append(f"gain signs {signs}, expected ['+', '-', '+']")
    return problems


def check_scan(p_step: float, u2_step: float, response) -> list[str]:
    """`theorem-scan`: every row, both flags and the summary counts."""
    header, rows = _csv(response["out"])
    if header != ["p0", "p1", "p2", "u2", "s_n", "s_ci", "s_i", "holds_left", "holds_right"]:
        return [f"unexpected scan header {header}"]
    points = [
        (p0, p1, max(1.0 - p0 - p1, 0.0), u2)
        for p0 in grid(1.0, p_step) for p1 in grid(1.0, p_step)
        if 1.0 - p0 - p1 >= -1e-9
        for u2 in grid(1.0, u2_step)
    ]
    if len(rows) != len(points):
        return [f"{len(rows)} scan rows, expected {len(points)}"]
    ref = np.array(points)
    got = np.array([[float(v) for v in row[:7]] for row in rows])
    left = np.array([row[7] == "true" for row in rows])
    right = np.array([row[8] == "true" for row in rows])

    p0, p1, p2, u2 = ref.T
    x = p0 + p2 * u2
    y = p1 + p2 * (1.0 - u2)
    r = p2 * np.sqrt(u2 * (1.0 - u2))
    half_gap = np.hypot(0.5 * (x - y), r)
    s_n = -(plogp(0.5 + half_gap) + plogp(0.5 - half_gap))
    s_i = -(plogp(x) + plogp(y))
    mixed = p0 + p1
    safe = np.where(mixed > 0.0, mixed, 1.0)
    mixed_bits = np.where(mixed > 0.0, -(plogp(p0 / safe) + plogp(p1 / safe)), 1.0)
    pure_bits = np.where(p2 > 0.0, -(plogp(u2) + plogp(1.0 - u2)), 0.0)
    s_ci = mixed * mixed_bits + p2 * pure_bits
    expected = np.column_stack([p0, p1, p2, u2, s_n, s_ci, s_i])

    problems: list[str] = []
    bad = np.abs(got - expected) > REL_TOL * np.abs(expected) + ABS_TOL
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        problems.append(
            f"{int(bad.sum())} scan values differ; row {i + 1} {header[j]}: "
            f"got {got[i, j]!r}, expected {expected[i, j]!r}"
        )
    counts = {}
    for name, flags, lhs, rhs in (("left", left, s_n, s_ci), ("right", right, s_ci, s_i)):
        clear = np.abs(lhs - rhs) > FLAG_MARGIN
        holds = lhs <= rhs + ORDERING_SLACK
        if np.any(flags[clear] != holds[clear]):
            problems.append(f"{int(np.sum(flags[clear] != holds[clear]))} {name} flags differ")
        counts[name] = int(np.sum(~flags))
    summary = f"points={len(points)} left_violations={counts['left']} right_violations={counts['right']}"
    if summary not in response["err"]:
        problems.append(f"summary {response['err'].strip()!r}, expected {summary!r}")
    if (p_step, u2_step) == (0.05, 0.1):
        reference = (DEFAULT_SCAN["points"], DEFAULT_SCAN["left"], DEFAULT_SCAN["right"])
        if (len(points), counts["left"], counts["right"]) != reference:
            problems.append(f"default scan counts {len(points), counts['left'], counts['right']}, expected {reference}")
    return problems


# ------------------------------------------------------------ library calls

def check_bundle(bundle, response) -> list[str]:
    """The qudit-spectra bundle: spectra, partial traces, kron, Holevo."""
    result = response["result"]
    problems: list[str] = []
    spectra = [_complex(m) for m in bundle["spectra"]]
    s_n = [spectrum_bits(m) for m in spectra]
    for k, m in enumerate(spectra):
        compare(problems, f"d={m.shape[0]} s_n", result["s_n"][k], s_n[k])
        compare(problems, f"d={m.shape[0]} s_i", result["s_i"][k], bits(np.real(np.diag(m))))

    joint = _complex(bundle["joint"])
    da, db = bundle["joint_dims"]
    t = joint.reshape(da, db, da, db)
    s_ab = spectrum_bits(joint)
    s_a = spectrum_bits(np.trace(t, axis1=1, axis2=3))
    s_b = spectrum_bits(np.trace(t, axis1=0, axis2=2))
    compare(problems, "S(AB)", result["s_ab"], s_ab)
    compare(problems, "S(A)", result["s_a"], s_a)
    compare(problems, "S(B)", result["s_b"], s_b)
    if not result["s_ab"] <= result["s_a"] + result["s_b"] + ABS_TOL:
        problems.append("subadditivity S(AB) <= S(A) + S(B) fails")

    i, j = bundle["kron_factors"]
    additive = s_n[i] + s_n[j]
    compare(problems, "S(kron)", result["s_product"], spectrum_bits(np.kron(spectra[i], spectra[j])))
    compare(problems, "product additivity", result["s_product"], additive)

    components = [_complex(m) for m in bundle["components"]]
    weights = bundle["weights"]
    s_mix = spectrum_bits(sum(w * m for w, m in zip(weights, components)))
    avg = sum(w * spectrum_bits(m) for w, m in zip(weights, components))
    compare(problems, "chi", result["chi"], s_mix - avg)
    compare(problems, "s_mix", result["s_mix"], s_mix)
    compare(problems, "avg_component_entropy", result["avg"], avg)
    return problems
