"""JSON codecs for matrices, states and measurements, plus the CSV writer.

Matrix payloads are {"rows", "cols", "entries"} with entries as [re, im]
pairs in row-major order; density operators add "dims", measurement families
add "outcomes" parallel to "operators".  Decompositions carry both marginal
families and the integration channel keyed "(u,v)".  All floats round-trip
exactly (repr-shortest), CSV rows use plain '\\n' terminators so identical
runs produce identical bytes.
"""
from __future__ import annotations

import csv
import io
import json

import numpy as np

from .errors import InvariantError
from .measurement import SeparableDecomposition
from .operators import DensityOperator, Ensemble, Povm, SubPovm, close


# ---------------------------------------------------------------------------
# matrices and states
# ---------------------------------------------------------------------------

def matrix_to_json(mat) -> dict:
    a = np.asarray(mat, dtype=np.complex128)
    if a.ndim != 2:
        raise InvariantError("matrix payload must be two-dimensional")
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
            "entries": [[float(x.real), float(x.imag)] for x in a.ravel()]}


def json_number(what: str, value, integer: bool = False):
    """A payload value that must be a number: a JSON int or float, never a
    boolean or a numeric string.  Returns it as a float, or with ``integer``
    an integral value as an int."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if not integer:
                return float(value)
            if value == int(value):
                return int(value)
    except (OverflowError, ValueError):
        pass
    raise InvariantError(f"{what} must be {'an integer' if integer else 'a number'}, "
                         f"got {value!r}")


def json_numbers(what: str, value) -> list:
    """A JSON list of numbers as a list of floats."""
    if not isinstance(value, list):
        raise InvariantError(f"{what} must be a list of numbers, got {value!r}")
    return [json_number(what, x) for x in value]


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise InvariantError("matrix payload must be an object")
    try:
        rows = json_number("matrix rows", obj["rows"], integer=True)
        cols = json_number("matrix cols", obj["cols"], integer=True)
        entries = obj["entries"]
    except KeyError as exc:
        raise InvariantError(f"malformed matrix payload: missing {exc}")
    if not isinstance(entries, list):
        raise InvariantError(f"matrix entries must be a list, got {entries!r}")
    if rows < 0 or cols < 0 or rows * cols != len(entries):
        raise InvariantError("rows*cols must equal the entry count")
    flat = []
    for e in entries:
        if not isinstance(e, list) or len(e) != 2:
            raise InvariantError("matrix entries must be [re, im] pairs")
        flat.append(complex(*json_numbers("matrix entries", e)))
    return np.array(flat, dtype=np.complex128).reshape(rows, cols)


def density_to_json(rho: DensityOperator) -> dict:
    out = matrix_to_json(rho.mat)
    out["dims"] = [int(d) for d in rho.dims]
    return out


def density_from_json(obj) -> DensityOperator:
    mat = matrix_from_json(obj)
    dims = obj.get("dims")
    if dims is None:
        raise InvariantError("density payload needs a dims field")
    if not isinstance(dims, list):
        raise InvariantError(f"density dims must be a list of integers, got {dims!r}")
    return DensityOperator(mat, tuple(json_number("density dims", d, integer=True)
                                      for d in dims))


# ---------------------------------------------------------------------------
# measurement families
# ---------------------------------------------------------------------------

LABEL_DEPTH = 32  # lists an outcome label may nest


def _freeze_label(what: str, label, depth: int):
    """An outcome label: a JSON string or number, or a list of labels nested
    at most ``depth`` lists deep, read as a tuple."""
    if isinstance(label, list):
        if depth == 0:
            raise InvariantError(f"{what} must nest at most {LABEL_DEPTH} lists deep")
        return tuple(_freeze_label(what, x, depth - 1) for x in label)
    if isinstance(label, (str, int, float)) and not isinstance(label, bool):
        return label
    raise InvariantError(f"{what} must be strings, numbers or lists of them, got {label!r}")


def _labels(what: str, value) -> tuple:
    """A JSON list of outcome labels as a tuple."""
    if not isinstance(value, list):
        raise InvariantError(f"{what} must be a list of labels, got {value!r}")
    return tuple(_freeze_label(what, x, LABEL_DEPTH) for x in value)


def povm_to_json(m: SubPovm) -> dict:
    return {"outcomes": [list(o) if isinstance(o, tuple) else o for o in m.outcomes],
            "operators": [matrix_to_json(op) for op in m.operators]}


def povm_from_json(obj) -> SubPovm:
    if not isinstance(obj, dict) or "outcomes" not in obj or "operators" not in obj:
        raise InvariantError("measurement payload needs outcomes and operators")
    outcomes = _labels("measurement outcomes", obj["outcomes"])
    operators = tuple(matrix_from_json(o) for o in obj["operators"])
    if len(outcomes) != len(operators):
        raise InvariantError("outcomes and operators must be parallel")
    if not operators:
        raise InvariantError("measurement payload has no operators")
    # validated before the sum, which needs square, finite, equal-sized elements
    sub = SubPovm(outcomes, operators)
    if close(sub.total(), np.eye(sub.dim), 1e-8):
        return Povm(outcomes, operators)
    return sub


def pair_key(u, v) -> str:
    """String key "(u,v)" for an outcome pair; labels must stay comma-free."""
    su, sv = str(u), str(v)
    for s in (su, sv):
        if "," in s or "(" in s or ")" in s:
            raise InvariantError(f"outcome label {s!r} cannot be serialized in a pair key")
    return f"({su},{sv})"


def parse_pair_key(key: str, outcomes_a, outcomes_b):
    """Invert pair_key against two known outcome alphabets."""
    body = key.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise InvariantError(f"pair key {key!r} is not of the form (u,v)")
    parts = body[1:-1].split(",")
    if len(parts) != 2:
        raise InvariantError(f"pair key {key!r} is not of the form (u,v)")
    su, sv = parts[0].strip(), parts[1].strip()
    by_a = {str(o): o for o in outcomes_a}
    by_b = {str(o): o for o in outcomes_b}
    if su not in by_a or sv not in by_b:
        raise InvariantError(f"pair key {key!r} names unknown outcomes")
    return by_a[su], by_b[sv]


def decomposition_to_json(d: SeparableDecomposition) -> dict:
    rows = {}
    for u in d.povm_A.outcomes:
        for v in d.povm_B.outcomes:
            rows[pair_key(u, v)] = [float(p) for p in d.row(u, v)]
    return {
        "povm_A": povm_to_json(d.povm_A),
        "povm_B": povm_to_json(d.povm_B),
        "channel": {
            "z_alphabet": [list(z) if isinstance(z, tuple) else z
                           for z in d.z_alphabet],
            "rows": rows,
        },
        "deterministic": bool(d.deterministic),
    }


def decomposition_from_json(obj) -> SeparableDecomposition:
    if not isinstance(obj, dict):
        raise InvariantError("decomposition payload must be an object")
    try:
        povm_a = povm_from_json(obj["povm_A"])
        povm_b = povm_from_json(obj["povm_B"])
        channel = obj["channel"]
        z_alphabet = _labels("channel z_alphabet", channel["z_alphabet"])
        raw_rows = channel["rows"]
    except (KeyError, TypeError) as exc:
        raise InvariantError(f"malformed decomposition payload: {exc}")
    if not isinstance(raw_rows, dict):
        raise InvariantError(f"channel rows must be an object, got {raw_rows!r}")
    rows = {}
    for key, row in raw_rows.items():
        u, v = parse_pair_key(key, povm_a.outcomes, povm_b.outcomes)
        rows[(u, v)] = np.asarray(json_numbers("channel rows", row))
    d = SeparableDecomposition(povm_a, povm_b, z_alphabet, rows)
    stored = obj.get("deterministic", d.deterministic)
    if not isinstance(stored, bool):
        raise InvariantError(f"deterministic flag must be a boolean, got {stored!r}")
    if stored != d.deterministic:
        raise InvariantError("stored deterministic flag disagrees with the channel rows")
    return d


def ensemble_to_json(ens: Ensemble) -> dict:
    if ens.outcomes is None:
        raise InvariantError("only labeled ensembles serialize")
    return {
        "weights": [float(w) for w in ens.weights],
        "outcomes": [list(o) if isinstance(o, tuple) else o for o in ens.outcomes],
        "states": [density_to_json(s) for s in ens.states],
    }


def ensemble_from_json(obj) -> Ensemble:
    try:
        weights = json_numbers("ensemble weights", obj["weights"])
        outcomes = _labels("ensemble outcomes", obj["outcomes"])
        states = tuple(density_from_json(s) for s in obj["states"])
    except (KeyError, TypeError) as exc:
        raise InvariantError(f"malformed ensemble payload: {exc}")
    return Ensemble(np.asarray(weights), states, outcomes)


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# CSV rows
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("n", "Rt1", "Rt2", "R1", "R2", "N1", "N2", "eta", "delta",
               "seed", "subpovm_valid", "G", "collision_rate", "packing_norm",
               "runtime_ms")


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def trial_row(report) -> dict:
    """CSV row for one TrialReport; packing_norm and runtime_ms stay empty."""
    p = report.params
    return {
        "n": p.n, "Rt1": p.Rt1, "Rt2": p.Rt2, "R1": p.R1, "R2": p.R2,
        "N1": p.N1, "N2": p.N2, "eta": p.eta, "delta": p.delta, "seed": p.seed,
        "subpovm_valid": report.sub_povm_valid,
        "G": report.faithfulness_G,
        "collision_rate": report.collision_rate,
    }


def csv_text(rows) -> str:
    """Render dict rows under the CSV_COLUMNS header with stable '\\n'
    terminators; a column a row lacks stays empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([format_cell(row.get(c)) for c in CSV_COLUMNS])
    return buf.getvalue()
