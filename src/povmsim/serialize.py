"""JSON codecs for matrices, states and measurements, plus the CSV writer.

Matrix payloads are {"rows", "cols", "entries"} with entries as [re, im]
pairs in row-major order; density operators add "dims", measurement families
add "outcomes" parallel to "operators".  Decompositions carry both marginal
families and the integration channel keyed "(u,v)".  Each reader takes the
key path of the payload it reads first and refuses a value of the wrong JSON
kind, or an object without a key it needs, by that path.  All floats round-trip
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
from .operators import DensityOperator, Ensemble, Povm, SubPovm


# ---------------------------------------------------------------------------
# matrices and states
# ---------------------------------------------------------------------------

def matrix_to_json(mat) -> dict:
    a = np.asarray(mat, dtype=np.complex128)
    if a.ndim != 2:
        raise InvariantError("matrix payload must be two-dimensional")
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
            "entries": [[float(x.real), float(x.imag)] for x in a.ravel()]}


_KINDS = {str: "a string", list: "a list", dict: "an object", bool: "a boolean"}


def json_kind(what: str, value, kind: type):
    """A payload value of JSON kind str, list, dict or bool, refused by its
    key path ``what`` otherwise."""
    if not isinstance(value, kind):
        raise InvariantError(f"{what} must be {_KINDS[kind]}, got {value!r}")
    return value


def json_field(what: str, obj, key: str):
    """The value at ``key`` of the payload object at key path ``what``."""
    if key not in json_kind(what, obj, dict):
        raise InvariantError(f"{what} needs {key!r}")
    return obj[key]


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
    return [json_number(what, x) for x in json_kind(what, value, list)]


def matrix_from_json(what: str, obj) -> np.ndarray:
    rows = json_number(f"{what} rows", json_field(what, obj, "rows"), integer=True)
    cols = json_number(f"{what} cols", json_field(what, obj, "cols"), integer=True)
    entries = json_kind(f"{what} entries", json_field(what, obj, "entries"), list)
    if rows < 0 or cols < 0 or rows * cols != len(entries):
        raise InvariantError(f"{what} rows*cols must equal the entry count")
    flat = [json_numbers(f"{what} entries", e) for e in entries]
    if any(len(e) != 2 for e in flat):
        raise InvariantError(f"{what} entries must be [re, im] pairs")
    return np.array([complex(*e) for e in flat], dtype=np.complex128).reshape(rows, cols)


def density_to_json(rho: DensityOperator) -> dict:
    out = matrix_to_json(rho.mat)
    out["dims"] = [int(d) for d in rho.dims]
    return out


def density_from_json(what: str, obj) -> DensityOperator:
    mat = matrix_from_json(what, obj)
    dims = json_kind(f"{what} dims", json_field(what, obj, "dims"), list)
    return DensityOperator(mat, tuple(json_number(f"{what} dims", d, integer=True)
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
    return tuple(_freeze_label(what, x, LABEL_DEPTH) for x in json_kind(what, value, list))


def povm_to_json(m: SubPovm) -> dict:
    return {"outcomes": [list(o) if isinstance(o, tuple) else o for o in m.outcomes],
            "operators": [matrix_to_json(op) for op in m.operators]}


def povm_from_json(what: str, obj) -> SubPovm:
    """A measurement family, read as a Povm exactly when it is complete."""
    outcomes = _labels(f"{what} outcomes", json_field(what, obj, "outcomes"))
    operators = json_kind(f"{what} operators", json_field(what, obj, "operators"), list)
    sub = SubPovm(outcomes, tuple(matrix_from_json(f"{what} operators", o) for o in operators))
    return Povm(sub.outcomes, sub.operators) if sub.complete else sub


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
    rows = {pair_key(u, v): row.tolist() for (u, v), row in d.rows.items()}
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


def decomposition_from_json(what: str, obj) -> SeparableDecomposition:
    povm_a = povm_from_json(f"{what} povm_A", json_field(what, obj, "povm_A"))
    povm_b = povm_from_json(f"{what} povm_B", json_field(what, obj, "povm_B"))
    channel = json_field(what, obj, "channel")
    z_alphabet = _labels("channel z_alphabet",
                         json_field(f"{what} channel", channel, "z_alphabet"))
    raw_rows = json_kind(f"{what} channel rows",
                         json_field(f"{what} channel", channel, "rows"), dict)
    rows = {}
    for key, row in raw_rows.items():
        u, v = parse_pair_key(key, povm_a.outcomes, povm_b.outcomes)
        rows[(u, v)] = np.asarray(json_numbers(f"{what} channel rows", row))
    d = SeparableDecomposition(povm_a, povm_b, z_alphabet, rows)
    stored = json_kind(f"{what} deterministic", obj.get("deterministic", d.deterministic), bool)
    if stored != d.deterministic:
        raise InvariantError("stored deterministic flag disagrees with the channel rows")
    return d


def ensemble_from_json(what: str, obj) -> Ensemble:
    weights = json_numbers(f"{what} weights", json_field(what, obj, "weights"))
    outcomes = _labels(f"{what} outcomes", json_field(what, obj, "outcomes"))
    states = json_kind(f"{what} states", json_field(what, obj, "states"), list)
    return Ensemble(np.asarray(weights), tuple(density_from_json(f"{what} states", s)
                                               for s in states), outcomes)


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
