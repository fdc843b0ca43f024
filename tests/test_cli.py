"""End-to-end command-line behavior: outputs, ordering, exit codes."""

import json
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from povmsim import cli, fixtures, protocol, serialize


def _run(capsys, *argv):
    rc = cli.main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# region and fm-check
# ---------------------------------------------------------------------------

def test_region_builtin_fixture(capsys):
    rc, out, err = _run(capsys, "--command", "region", "--input", "example1")
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["variables"] == ["R1", "R2", "C"]
    got = {c["label"]: c["rhs"] for c in payload["constraints"]}
    want = {"rate1": 0.5, "rate2": 0.5, "rate3": 1.5,
            "rate1c": 1.5, "rate2c": 1.5, "rate4": 3.5}
    for label, rhs in want.items():
        assert abs(got[label] - rhs) < 1e-6


def test_region_from_instance_file_matches_builtin(tmp_path, capsys):
    inst = fixtures.load_fixture("example1")
    payload = {
        "state": serialize.density_to_json(inst.state),
        "decomposition": serialize.decomposition_to_json(inst.decomposition),
    }
    path = _write_config(tmp_path, payload, "instance.json")
    rc, from_file, _ = _run(capsys, "--command", "region", "--input", path)
    assert rc == 0
    rc, builtin, _ = _run(capsys, "--command", "region", "--input", "example1")
    assert rc == 0
    assert from_file == builtin


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_fm_check_projects_onto_single_letter_region(name, capsys):
    rc, out, err = _run(capsys, "--command", "fm-check", "--input", name)
    assert rc == 0 and err == ""
    assert out == "EQUAL\n"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_rows_and_byte_identical_reruns(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"input": "binary-correlated",
                                   "seeds": [0, 1], "ns": [2]})
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    rc1 = cli.main(["--command", "simulate", "--input", cfg, "--output", str(out1)])
    rc2 = cli.main(["--command", "simulate", "--input", cfg, "--output", str(out2)])
    capsys.readouterr()
    assert rc1 == 0 and rc2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == ",".join(serialize.CSV_COLUMNS)
    assert len(lines) == 3
    rows = [dict(zip(serialize.CSV_COLUMNS, ln.split(","))) for ln in lines[1:]]
    assert [r["seed"] for r in rows] == ["0", "1"]
    for r in rows:
        assert r["n"] == "2"
        assert r["subpovm_valid"] in ("true", "false")
        assert float(r["G"]) >= 0.0
        assert r["packing_norm"] == "" and r["runtime_ms"] == ""


def test_simulate_seed_n_grid_builds_one_setup_per_n(tmp_path, capsys, monkeypatch):
    # rows come seed by seed, each equal to its (seed, n) trial run alone,
    # while the trials run n by n and so build one setup per n
    builds = []
    build = protocol._build_setup
    monkeypatch.setattr(protocol, "_last_setup", (None, None))
    monkeypatch.setattr(protocol, "_build_setup", lambda *a: builds.append(a[2]) or build(*a))
    cfg = _write_config(tmp_path, {"input": "binary-correlated", "command": "simulate",
                                   "seeds": [0, 1, 2], "ns": [2, 3]})
    rc, out, _ = _run(capsys, "--input", cfg)
    assert rc == 0 and builds == [2, 3]
    rows = out.splitlines()[1:]
    for k, (seed, n) in enumerate((s, n) for s in (0, 1, 2) for n in (2, 3)):
        rc, one, _ = _run(capsys, "--input", "binary-correlated", "--command", "simulate",
                          "--seed", str(seed), "--n", str(n))
        assert rc == 0 and one.splitlines()[1:] == [rows[k]]


def test_simulate_flags_only_single_row(capsys):
    rc, out, err = _run(capsys, "--command", "simulate",
                        "--input", "binary-correlated", "--seed", "3")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2
    row = dict(zip(serialize.CSV_COLUMNS, lines[1].split(",")))
    assert row["seed"] == "3"
    assert float(row["collision_rate"]) >= 0.0


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_packing_sweep_maps_rate_pairs(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "input": "binary-correlated", "kind": "packing",
        "rate_pairs": [[0.25, 0.25], [0.75, 0.75]], "seeds": [0],
    })
    rc, out, err = _run(capsys, "--command", "sweep", "--input", cfg)
    assert rc == 0
    lines = out.splitlines()
    rows = [dict(zip(serialize.CSV_COLUMNS, ln.split(","))) for ln in lines[1:]]
    assert [r["Rt1"] for r in rows] == ["0.25", "0.75"]
    for r in rows:
        assert float(r["packing_norm"]) >= 0.0
        assert float(r["runtime_ms"]) >= 0.0
        assert r["G"] == ""
    rc, alias_out, _ = _run(capsys, "--command", "packing-sweep", "--input", cfg)
    assert rc == 0
    # alias runs the same sweep; runtimes differ, the data columns do not
    strip = lambda text: [ln.rsplit(",", 1)[0] for ln in text.splitlines()]
    assert strip(alias_out) == strip(out)


def test_collision_sweep(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "input": "binary-correlated", "kind": "collision",
        "bin_rates": [[0.25, 0.25]], "seeds": [0],
        "n": 4, "Rt1": 1.0, "Rt2": 1.0,
    })
    rc, out, err = _run(capsys, "--command", "sweep", "--input", cfg)
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2
    row = dict(zip(serialize.CSV_COLUMNS, lines[1].split(",")))
    assert row["R1"] == "0.25"
    assert 0.0 <= float(row["collision_rate"]) <= 1.0


def test_soft_covering_sweep(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "input": "binary-correlated", "kind": "soft-covering",
        "rate_sums": [1.2], "seeds": [0], "n": 4,
    })
    rc, out, err = _run(capsys, "--command", "sweep", "--input", cfg)
    assert rc == 0
    lines = out.splitlines()
    row = dict(zip(serialize.CSV_COLUMNS, lines[1].split(",")))
    assert row["Rt1"] == "1.2"
    assert float(row["G"]) >= 0.0


def test_unknown_sweep_kind_is_invariant_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"input": "binary-correlated", "kind": "bogus"})
    rc, out, err = _run(capsys, "--command", "sweep", "--input", cfg)
    assert rc == 3
    assert "invariant violation" in err


# ---------------------------------------------------------------------------
# covering-check and rd-eval
# ---------------------------------------------------------------------------

def test_covering_check_default_shrink(capsys):
    rc, out, err = _run(capsys, "--command", "covering-check",
                        "--input", "binary-correlated")
    assert rc == 0
    payload = json.loads(out)
    # a (1 - 0.1) scaling of a complete POVM scores exactly 2 * 0.1 per side
    assert abs(payload["F_A"] - 0.2) < 1e-9
    assert abs(payload["F_B"] - 0.2) < 1e-9
    assert abs(payload["F_joint"] - 0.38) < 1e-9
    assert payload["subadditive"] is True


def test_rd_eval_fixture(capsys):
    rc, out, err = _run(capsys, "--command", "rd-eval",
                        "--input", "binary-correlated")
    assert rc == 0
    payload = json.loads(out)
    got = {c["label"]: c["rhs"] for c in payload["constraints"]}
    assert abs(got["rddist"] - 0.5) < 1e-9
    assert abs(got["rdrate3"] - 1.0) < 1e-9


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("command", ["covering-check", "rd-eval"])
def test_non_finite_or_negative_tol_exits_3(command, tol, capsys):
    # a NaN tolerance made covering-check report F_joint 0.38 <= 0.40 as not
    # subadditive, and NaN or inf switched off rd-eval's PSD and sum checks
    rc, out, err = _run(capsys, "--command", command, "--input", "binary-correlated",
                        f"--tol={tol}")
    assert rc == 3, err
    assert err.startswith("invariant violation: --tol must be a finite non-negative number")
    assert out == ""


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config", [
    {"command": "simulate"},
    {"command": "sweep", "kind": "soft-covering", "rate_sums": [1.2], "n": 2},
], ids=["simulate", "soft-covering"])
def test_infinite_delta_exits_3(config, tmp_path, capsys):
    # an infinite window made 0 * inf = NaN typicality bounds, so every
    # sequence with a zero-probability letter was atypical and G read 2.0
    cfg = _write_config(tmp_path, {"input": "binary-correlated", **config})
    rc, out, err = _run(capsys, "--input", cfg, "--delta=inf")
    assert rc == 3, err
    assert err.startswith("invariant violation: delta must be a finite positive number")
    assert out == ""


@pytest.mark.parametrize("flag", ["--n=0.5", "--seed=nan"])
def test_unparseable_flag_returns_2(flag, capsys):
    # main returns argparse's exit code, so an in-process caller sees no
    # SystemExit
    rc, out, err = _run(capsys, "--input", "binary-correlated", flag)
    assert rc == 2
    assert "invalid int value" in err
    assert out == ""


def test_malformed_json_exits_2_with_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"input": "example1",,}', encoding="utf-8")
    rc, out, err = _run(capsys, "--command", "region", "--input", str(path))
    assert rc == 2
    assert "parse error" in err and "line" in err and "column" in err


def test_missing_input_file_exits_2(tmp_path, capsys):
    rc, out, err = _run(capsys, "--command", "region",
                        "--input", str(tmp_path / "nope.json"))
    assert rc == 2
    assert "input error" in err


def test_invalid_parameter_exits_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"input": "binary-correlated", "eta": 2.0})
    rc, out, err = _run(capsys, "--command", "simulate", "--input", cfg)
    assert rc == 3
    assert "invariant violation" in err


def test_cap_exceeded_exits_4(capsys):
    rc, out, err = _run(capsys, "--command", "simulate",
                        "--input", "binary-correlated", "--n", "25")
    assert rc == 4
    assert "cap exceeded" in err


@pytest.mark.parametrize("extra", [{"Rt1": 1e9}, {"Rt1": 40, "n": 2}],
                         ids=["float-overflow", "huge-count"])
def test_overflowing_rate_count_exits_4(extra, tmp_path, capsys):
    # 2^{n Rt1} codewords are refused before the power is taken
    cfg = _write_config(tmp_path, {"input": "binary-correlated",
                                   "command": "simulate", **extra})
    rc, out, err = _run(capsys, "--input", cfg)
    assert rc == 4
    assert err.startswith("cap exceeded:")
    assert out == ""


@pytest.mark.parametrize("extra,word", [
    ({"command": "packing-sweep", "rate_pairs": [[float("nan"), 0.5]]}, "rate"),
    ({"command": "simulate", "n": 2.7}, "n must be an integer"),
    ({"command": "simulate", "delta": float("nan")}, "delta"),
], ids=["nan-rate-pair", "fractional-n", "nan-delta"])
def test_non_finite_or_fractional_config_exits_3(extra, word, tmp_path, capsys):
    cfg = _write_config(tmp_path, {"input": "binary-correlated", **extra})
    rc, out, err = _run(capsys, "--input", cfg)
    assert rc == 3
    assert err.startswith("invariant violation:") and word in err
    assert out == ""


@pytest.mark.parametrize("extra", [
    {"command": "simulate", "delta": None},
    {"command": "simulate", "delta": "abc"},
    {"command": "simulate", "seeds": 3},
    {"command": "simulate", "ns": 2},
    {"command": "packing-sweep", "rate_pairs": [[None, 0.5]]},
    {"command": "packing-sweep", "rate_pairs": [[0.5]]},
    {"command": "packing-sweep", "r1": [None]},
    {"command": "sweep", "kind": "collision", "bin_rates": [[0.25, "x"]]},
    {"command": "sweep", "kind": "soft-covering", "rate_sums": [None]},
    {"command": "sweep", "kind": "soft-covering", "eta": [0.1]},
    {"command": "covering-check", "shrink": None},
], ids=["null-delta", "text-delta", "int-seeds", "int-ns", "null-rate-pair",
        "short-rate-pair", "null-r1", "text-bin-rate", "null-rate-sum",
        "list-eta", "null-shrink"])
def test_malformed_config_number_exits_3(extra, tmp_path, capsys):
    cfg = _write_config(tmp_path, {"input": "binary-correlated", **extra})
    rc, out, err = _run(capsys, "--input", cfg)
    assert rc == 3, err
    assert err.startswith("invariant violation:")
    assert out == ""


@pytest.mark.parametrize("extra,word", [
    ({"command": "simulate", "seed": True}, "seed must be an integer"),
    ({"command": "simulate", "n": True}, "n must be an integer"),
    ({"command": "simulate", "N1": False}, "N1 must be an integer"),
    ({"command": "simulate", "seeds": [0, True]}, "seeds must be an integer"),
    ({"command": "simulate", "ns": [True]}, "ns must be an integer"),
    ({"command": "simulate", "eta": False}, "eta must be a number"),
    ({"command": "packing-sweep", "rate_pairs": [[True, False]]}, "rate_pairs must be a number"),
    ({"command": "packing-sweep", "r1": [True]}, "r1 must be a number"),
    ({"command": "sweep", "kind": "collision", "bin_rates": [[0.5, True]]},
     "bin_rates must be a number"),
    ({"command": "sweep", "kind": "soft-covering", "rate_sums": [False]},
     "rate_sums must be a number"),
    ({"command": "covering-check", "shrink": False}, "shrink must be a number"),
], ids=["seed", "n", "N1", "seeds", "ns", "eta", "rate-pair", "r1", "bin-rate", "rate-sum",
        "shrink"])
def test_boolean_config_number_exits_3(extra, word, tmp_path, capsys):
    # JSON true and false are no numbers, though Python's int(True) is 1
    cfg = _write_config(tmp_path, {"input": "binary-correlated", **extra})
    rc, out, err = _run(capsys, "--input", cfg)
    assert rc == 3, err
    assert err.startswith("invariant violation:") and word in err
    assert out == ""


@pytest.mark.parametrize("extra", [{"command": "simulate"},
                                   {"command": "sweep", "kind": "collision"}],
                         ids=["simulate", "collision"])
def test_decoder_cell_cap_exits_4(extra, tmp_path, capsys):
    # 10^6 x 1 x 3 x 3 decoder cells, refused before any codebook is drawn
    cfg = _write_config(tmp_path, {"input": "binary-correlated", "N1": 1e6, **extra})
    rc, out, err = _run(capsys, "--input", cfg)
    assert rc == 4
    assert err.startswith("cap exceeded:") and "decoder cells" in err
    assert out == ""


def test_collision_sweep_past_pair_alphabet_cap(tmp_path, capsys):
    # 4^11 pair strings exceed the enumeration cap; the codeword pairs do not
    cfg = _write_config(tmp_path, {
        "input": "binary-correlated", "command": "sweep", "kind": "collision",
        "n": 11, "Rt1": 0.5, "Rt2": 0.5, "R1": 0.3, "R2": 0.3, "seeds": [0]})
    rc, out, err = _run(capsys, "--input", cfg)
    assert rc == 0, err
    header, row = out.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["n"] == "11"


def test_missing_command_exits_3(capsys):
    rc, out, err = _run(capsys, "--input", "example1")
    assert rc == 3
    assert "invariant violation" in err


def _example1_instance(**extra):
    inst = fixtures.load_fixture("example1")
    return {"state": serialize.density_to_json(inst.state),
            "decomposition": serialize.decomposition_to_json(inst.decomposition),
            **extra}


@pytest.mark.parametrize("command", ["simulate", "region", "rd-eval", "packing-sweep"])
@pytest.mark.parametrize("payload, field", [
    (_example1_instance(p_uv="x"), "p_uv"),
    (_example1_instance(p_uv=[[0.5], [0.25, 0.25]]), "p_uv"),
    (_example1_instance(p_uv=[[float("nan")] * 4] * 4), "p_uv"),
    (_example1_instance(config=[1]), "config"),
    ({"input": "example1", "config": [1]}, "config"),
    (_example1_instance(recon=[1]), "recon"),
], ids=["text-p_uv", "ragged-p_uv", "nan-p_uv", "list-config", "list-config-bare",
        "list-recon"])
def test_malformed_instance_field_exits_3(payload, field, command, tmp_path, capsys):
    path = _write_config(tmp_path, payload, "input.json")
    rc, out, err = _run(capsys, "--command", command, "--input", path)
    assert rc == 3, err
    assert err.startswith(f"invariant violation: {field} must be")
    assert out == ""


def _full_example1_instance():
    """_example1_instance with every optional numeric field present, as JSON."""
    inst = fixtures.load_fixture("example1")
    return json.loads(json.dumps(_example1_instance(
        p_uv=inst.p_uv.tolist(), delta_obs=serialize.matrix_to_json(inst.delta_obs),
        ensemble=serialize.ensemble_to_json(fixtures.soft_covering_ensemble()))))


def _set(*path, value):
    """A mutation setting the entry at path (keys and indices) to value."""
    def mutate(payload):
        *head, last = path
        for key in head:
            payload = payload[key]
        payload[last] = value
    return mutate


@pytest.mark.parametrize("mutate", [
    _set("state", "entries", 1, value=[False, False]),
    _set("state", "entries", 0, value=["0.5", 0]),
    _set("state", "rows", value=[1]),
    _set("state", "rows", value=True),
    _set("state", "cols", value="4"),
    _set("state", "dims", value=[True, 2]),
    _set("state", "dims", value=["2", "2"]),
    _set("decomposition", "povm_A", "operators", 0, "entries", 1, value=[False, 0]),
    _set("decomposition", "channel", "rows", "(0,0)", value=["x"] + [0] * 15),
    _set("decomposition", "channel", "rows", "(0,0)", value=[True] + [False] * 15),
    _set("decomposition", "channel", "rows", value=[1]),
    _set("ensemble", "weights", value=[True, False]),
    _set("ensemble", "weights", value=["0.5", "0.5"]),
    _set("ensemble", "states", 0, "dims", value=[True]),
    _set("p_uv", value=[[True] + [False] * 3] + [[False] * 4] * 3),
    _set("p_uv", 0, value=["0.25"] * 4),
    _set("delta_obs", "rows", value=8.5),
], ids=["bool-entry", "text-entry", "list-rows", "bool-rows", "text-cols", "bool-dims",
        "text-dims", "bool-povm-entry", "text-channel-row", "bool-channel-row",
        "list-channel-rows", "bool-weights", "text-weights", "bool-ensemble-dims",
        "bool-p_uv", "text-p_uv-row", "fractional-rows"])
def test_non_number_instance_field_exits_3(mutate, tmp_path, capsys):
    # where an instance file holds a number only a JSON int or float passes:
    # booleans and numeric strings are refused, not read as 1, 0 or 0.5
    payload = _full_example1_instance()
    rc, out, err = _run(capsys, "--command", "region", "--input",
                        _write_config(tmp_path, payload, "input.json"))
    assert rc == 0, err
    mutate(payload)
    rc, out, err = _run(capsys, "--command", "region", "--input",
                        _write_config(tmp_path, payload, "input.json"))
    assert rc == 3, err
    assert err.startswith("invariant violation:") and "must be" in err
    assert out == ""


@pytest.mark.parametrize("extra", [
    {"command": "simulate", "seeds": [0, 1], "ns": [2, 3]},
    {"command": "packing-sweep", "seeds": [0, 1], "rate_pairs": [[0.25, 0.25], [0.5, 0.5]]},
    {"command": "sweep", "kind": "collision", "seeds": [0, 1],
     "bin_rates": [[0.25, 0.25], [0.5, 0.5]]},
    {"command": "sweep", "kind": "soft-covering", "seeds": [0, 1], "rate_sums": [0.5, 1.0]},
], ids=["simulate", "packing", "collision", "soft-covering"])
def test_row_count_cap_exits_4(extra, monkeypatch, tmp_path, capsys):
    # four rows against a cap of three: refused before the first row runs
    monkeypatch.setattr(cli, "SEQ_CAP", 3)
    calls = []
    for name in ("faithfulness_trial", "packing_norm_trial", "binning_collision_rate",
                 "soft_covering_trial"):
        monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(a))
    cfg = _write_config(tmp_path, {"input": "binary-correlated", **extra})
    rc, out, err = _run(capsys, "--input", cfg)
    assert rc == 4
    assert err.startswith("cap exceeded:") and "rows" in err
    assert out == "" and calls == []


@pytest.mark.parametrize("command", ["simulate", "region", "packing-sweep", "sweep", "rd-eval"])
@pytest.mark.parametrize("payload", [
    {"input": "example1", "nz": 3},
    {"input": "example1", "config": {"nz": 3}},
    _example1_instance(config={"nz": 3}),
], ids=["bare-config", "bare-config-object", "instance-config"])
def test_unknown_config_key_exits_3(payload, command, tmp_path, capsys):
    path = _write_config(tmp_path, payload, "input.json")
    rc, out, err = _run(capsys, "--command", command, "--input", path)
    assert rc == 3, err
    assert err.startswith("invariant violation: unknown config key 'nz'")
    assert out == ""


@pytest.mark.parametrize("command", ["simulate", "region", "rd-eval", "packing-sweep"])
def test_non_string_instance_name_exits_3(command, tmp_path, capsys):
    path = _write_config(tmp_path, _example1_instance(name={"a": 1}), "input.json")
    rc, out, err = _run(capsys, "--command", command, "--input", path)
    assert rc == 3, err
    assert err.startswith("invariant violation: name must be a string")
    assert out == ""


_ENSEMBLE = serialize.ensemble_to_json(fixtures.soft_covering_ensemble())
_STATE = _example1_instance()["state"]
_BAD_ENTRIES = [["q", 0]] + _STATE["entries"][1:]


@pytest.mark.parametrize("extra", [
    {"ensemble": dict(_ENSEMBLE, weights=["x", 0.5])},
    {"ensemble": dict(_ENSEMBLE, states=[dict(_ENSEMBLE["states"][0], entries=[["q", 0]] * 4),
                                         _ENSEMBLE["states"][1]])},
    {"delta_obs": {"rows": 1, "cols": 1, "entries": [["q", 0]]}},
    {"state": dict(_STATE, entries=_BAD_ENTRIES)},
    {"delta_obs": {"rows": 1, "cols": 1, "entries": 7}},
    {"state": dict(_STATE, dims=["x"])},
], ids=["text-weight", "text-ensemble-entry", "text-delta_obs-entry", "text-state-entry",
        "int-entries", "text-dims"])
def test_malformed_matrix_or_ensemble_payload_exits_3(extra, tmp_path, capsys):
    payload = _example1_instance(config={"kind": "soft-covering", "n": 2}, **extra)
    path = _write_config(tmp_path, payload, "input.json")
    rc, out, err = _run(capsys, "--command", "sweep", "--input", path)
    assert rc == 3, err
    assert err.startswith("invariant violation:")
    assert out == ""


def test_non_finite_ensemble_weight_exits_3(tmp_path, capsys):
    # NaN passes both the sign and the sum test, so it must be refused by
    # name before the sweep prunes a typical set of the weights
    payload = _example1_instance(config={"kind": "soft-covering", "n": 2},
                                 ensemble=dict(_ENSEMBLE, weights=[float("nan"), 0.5]))
    path = _write_config(tmp_path, payload, "input.json")
    rc, out, err = _run(capsys, "--command", "sweep", "--input", path)
    assert rc == 3, err
    assert err.startswith("invariant violation: ensemble weights must be finite")
    assert out == ""


@pytest.mark.parametrize("command", ["simulate", "region", "fm-check"])
def test_non_finite_channel_row_exits_3(command, tmp_path, capsys):
    # a NaN entry passes both the sign and the sum test of a channel row, and
    # the trial would drop its letter from the images without a word
    inst = fixtures.load_fixture("binary-correlated")
    decomposition = serialize.decomposition_to_json(inst.decomposition)
    rows = decomposition["channel"]["rows"]
    first = next(iter(rows))
    rows[first] = [float("nan")] + rows[first][1:]
    payload = {"state": serialize.density_to_json(inst.state),
               "decomposition": decomposition,
               "config": {"n": 3, "delta": 0.6}}
    path = _write_config(tmp_path, payload, "input.json")
    rc, out, err = _run(capsys, "--command", command, "--input", path)
    assert rc == 3, err
    assert err.startswith("invariant violation: non-finite channel probability at ('0', '0')")
    assert out == ""


@pytest.mark.parametrize("extra", [
    {"command": "simulate"},
    {"command": "sweep", "kind": "soft-covering"},
    {"command": "packing-sweep", "rate_pairs": [[0.0, 0.0]]},
], ids=["simulate", "soft-covering", "packing-rate-0"])
def test_huge_blocklength_exits_4(extra, tmp_path, capsys):
    # the d^n caps are decided without forming the power, and packing checks
    # its dimension before drawing (L, n) codeword arrays
    cfg = _write_config(tmp_path, {"input": "binary-correlated", "n": 1e12, **extra})
    t0 = time.perf_counter()
    rc, out, err = _run(capsys, "--input", cfg)
    assert rc == 4, err
    assert err.startswith("cap exceeded:")
    assert out == ""
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize("payload", [
    {"input": "binary-correlated", "command": ["x"]},
    {"input": "binary-correlated", "command": {"a": 1}},
    {"input": "binary-correlated", "command": "region", "output": 1.5},
    {"input": "binary-correlated", "command": "region", "output": ["a"]},
    {"input": "binary-correlated", "command": "region", "output": True},
    {"input": ["x"], "command": "region"},
    {"input": "binary-correlated", "command": "packing-sweep", "seeds": [-1]},
    {"input": "binary-correlated", "command": "sweep", "kind": "soft-covering",
     "seeds": [-1]},
], ids=["list-command", "object-command", "float-output", "list-output", "true-output",
        "list-input", "negative-seed-packing", "negative-seed-soft-covering"])
def test_non_string_or_negative_config_value_exits_3(payload, tmp_path, capsys):
    cfg = _write_config(tmp_path, payload)
    rc, out, err = _run(capsys, "--input", cfg)
    assert rc == 3, err
    assert err.startswith("invariant violation:")
    assert out == ""


_NUMBERS = st.sampled_from([0, 1, 2, 3, 0.5, -1, float("nan"), float("inf"), float("-inf"),
                            1e12])
_SCALARS = st.one_of(st.none(), st.booleans(), _NUMBERS, st.text(max_size=3))
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                    st.lists(st.lists(_SCALARS, max_size=2), max_size=2),
                    st.dictionaries(st.text(max_size=2), _SCALARS, max_size=2))
_MALFORMED_INSTANCES = {
    "text-p_uv": _example1_instance(p_uv="x"),
    "list-recon": _example1_instance(recon=[1]),
    "object-name": _example1_instance(name={"a": 1}),
    "text-weight": _example1_instance(ensemble=dict(_ENSEMBLE, weights=["x", 0.5])),
    "list-config": _example1_instance(config=[1]),
    "null-state": _example1_instance(state=None),
}


def _config_values(output):
    """A strategy per config key: well-formed values three times in four,
    then anything."""
    number_lists = st.lists(_NUMBERS, min_size=1, max_size=3)
    pair_lists = st.lists(st.lists(_NUMBERS, min_size=2, max_size=2), min_size=1, max_size=2)
    povm = serialize.povm_to_json(fixtures.computational_povm())
    typed = {
        "command": st.sampled_from(cli.COMMANDS + ("packing-sweep",)),
        "kind": st.sampled_from(["packing", "collision", "soft-covering"]),
        "output": st.just(output),
        "seeds": number_lists, "ns": number_lists, "r1": number_lists, "r2": number_lists,
        "rate_sums": number_lists, "rate_pairs": pair_lists, "bin_rates": pair_lists,
        "approx_A": st.just(povm), "approx_B": st.just(povm),
    }
    junk = {"output": _VALUES.filter(lambda v: not isinstance(v, str))}
    return {key: st.sampled_from([True] * 3 + [False]).flatmap(
        lambda good, key=key: typed.get(key, _NUMBERS) if good else junk.get(key, _VALUES))
        for key in cli.CONFIG_KEYS}


@settings(max_examples=600, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_contract_on_generated_configs(data, tmp_path, capsys):
    # any config over the known keys and any numeric flags, on a fixture or
    # on an instance file with one malformed field, exits 0, 2, 3 or 4
    # without a traceback and prints nothing to stdout unless it succeeds
    values = _config_values(str(tmp_path / "out.txt"))
    keys = data.draw(st.lists(st.sampled_from(sorted(cli.CONFIG_KEYS - {"command"})),
                              max_size=4, unique=True))
    config = {key: data.draw(values[key]) for key in ["command"] + keys}
    malformed = [_write_config(tmp_path, payload, f"{name}.json")
                 for name, payload in _MALFORMED_INSTANCES.items()]
    config["input"] = data.draw(st.sampled_from(list(fixtures.FIXTURE_NAMES) * 3 + malformed))
    flags = data.draw(st.lists(st.sampled_from(["tol", "eta", "delta", "n", "seed"]),
                               max_size=3, unique=True))
    # "--flag=value" keeps a value such as -inf from reading as an option
    argv = [f"--{flag}={data.draw(_NUMBERS)}" for flag in flags]
    rc, out, err = _run(capsys, "--input", _write_config(tmp_path, config), *argv)
    assert rc in (0, 2, 3, 4), err
    assert rc == 0 or out == ""
