"""JSON round-trips and delimited-output formatting."""

import json

import numpy as np
import pytest

from conftest import random_density, random_povm, random_sub_povm
from oracles import ensemble_payload, ensemble_state
from povmsim import fixtures
from povmsim.errors import InvariantError
from povmsim.measurement import deterministic_decomposition
from povmsim.operators import Ensemble, Povm, SubPovm
from povmsim.serialize import (
    CSV_COLUMNS,
    csv_text,
    decomposition_from_json,
    decomposition_to_json,
    density_from_json,
    density_to_json,
    dumps,
    ensemble_from_json,
    format_cell,
    matrix_from_json,
    matrix_to_json,
    pair_key,
    parse_pair_key,
    povm_from_json,
    povm_to_json,
)


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    back = matrix_from_json("m", matrix_to_json(m))
    assert back.shape == (2, 3)
    assert np.allclose(back, m, atol=1e-15)


def test_matrix_entry_count_mismatch_raises():
    obj = matrix_to_json(np.eye(2))
    obj["entries"] = obj["entries"][:-1]
    with pytest.raises(InvariantError):
        matrix_from_json("m", obj)


def test_density_round_trip_keeps_dims():
    rng = np.random.default_rng(1)
    rho = random_density(rng, (2, 3))
    back = density_from_json("rho", density_to_json(rho))
    assert back.dims == (2, 3)
    assert np.allclose(back.mat, rho.mat, atol=1e-12)


def test_povm_round_trip_detects_completeness():
    rng = np.random.default_rng(2)
    p = random_povm(rng, 2, 3)
    back = povm_from_json("p", povm_to_json(p))
    assert isinstance(back, Povm)
    assert back.outcomes == p.outcomes
    sub = random_sub_povm(rng, p, floor=0.4)
    back = povm_from_json("sub", povm_to_json(sub))
    assert isinstance(back, SubPovm) and not isinstance(back, Povm)
    for u in sub.outcomes:
        assert np.allclose(back.op(u), sub.op(u), atol=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1.0 - 5e-10, 1.0 - 5e-9, 0.5])
def test_povm_from_json_reads_a_povm_exactly_when_povm_accepts(scale):
    # one completeness rule: every gap entry within the family's tol, 1e-9
    p = fixtures.load_fixture("example1").decomposition.povm_A
    ops = tuple(scale * op for op in p.operators)
    back = povm_from_json("p", povm_to_json(SubPovm(p.outcomes, ops)))
    try:
        Povm(p.outcomes, ops)
    except InvariantError as exc:
        assert str(exc) == "operators do not resolve the identity within tol"
        assert type(back) is SubPovm
    else:
        assert type(back) is Povm
    assert isinstance(back, Povm) == (scale > 1.0 - 1e-9)


def test_decomposition_round_trip():
    inst = fixtures.load_fixture("example1")
    d = inst.decomposition
    back = decomposition_from_json("d", decomposition_to_json(d))
    assert back.z_alphabet == d.z_alphabet
    assert back.deterministic == d.deterministic
    for key, row in d.rows.items():
        assert np.allclose(back.rows[key], row, atol=1e-12)


def test_decomposition_tampered_flag_raises():
    rng = np.random.default_rng(3)
    d = deterministic_decomposition(random_povm(rng, 2, 2), random_povm(rng, 2, 2))
    obj = decomposition_to_json(d)
    obj["deterministic"] = False
    with pytest.raises(InvariantError):
        decomposition_from_json("d", obj)


def test_ensemble_round_trip():
    ens = fixtures.soft_covering_ensemble()
    back = ensemble_from_json("ens", ensemble_payload(ens))
    assert back.outcomes == ens.outcomes
    assert np.allclose(back.weights, ens.weights, atol=1e-15)
    for u in ens.outcomes:
        assert np.allclose(ensemble_state(back, u).mat, ensemble_state(ens, u).mat, atol=1e-12)


def test_dumps_is_stable_text():
    s = dumps({"b": 1, "a": [1, 2]})
    assert s.endswith("\n")
    assert s.index('"a"') < s.index('"b"')
    assert json.loads(s) == {"b": 1, "a": [1, 2]}


# ---------------------------------------------------------------------------
# pair keys
# ---------------------------------------------------------------------------

def test_pair_key_round_trip():
    key = pair_key("0", "+")
    assert key == "(0,+)"
    assert parse_pair_key(key, ("0", "1"), ("+", "-")) == ("0", "+")
    assert parse_pair_key(pair_key(0, 1), (0, 1), (0, 1)) == (0, 1)


def test_pair_key_rejects_ambiguous_labels():
    with pytest.raises(InvariantError):
        pair_key("a,b", "c")
    with pytest.raises(InvariantError):
        pair_key("(a", "c")


def test_parse_pair_key_unknown_outcome():
    with pytest.raises(InvariantError):
        parse_pair_key("(2,0)", ("0", "1"), ("0", "1"))


# ---------------------------------------------------------------------------
# delimited output
# ---------------------------------------------------------------------------

def test_format_cell_values():
    assert format_cell(None) == ""
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(7) == "7"
    x = 0.1 + 0.2
    assert float(format_cell(x)) == x


def test_csv_text_golden():
    rows = [{"n": 1, "subpovm_valid": True}, {"n": None, "G": 2.5}]
    assert csv_text(rows) == (
        "n,Rt1,Rt2,R1,R2,N1,N2,eta,delta,seed,subpovm_valid,G,collision_rate,"
        "packing_norm,runtime_ms\n"
        "1,,,,,,,,,,true,,,,\n"
        ",,,,,,,,,,,2.5,,,\n")


def test_csv_columns_contract():
    assert CSV_COLUMNS == ("n", "Rt1", "Rt2", "R1", "R2", "N1", "N2", "eta",
                           "delta", "seed", "subpovm_valid", "G",
                           "collision_rate", "packing_norm", "runtime_ms")
