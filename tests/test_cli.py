"""End-to-end command-line behavior: outputs, ordering, exit codes."""

import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import commuting_instance, stochastic_binary, unequal_dims
from oracles import blockwise_auxiliary_states, ensemble_payload
from povmsim import cli, fixtures, measurement, protocol, serialize
from povmsim.measurement import SeparableDecomposition
from povmsim.operators import DensityOperator, SubPovm
from povmsim.regions import dist_deterministic_region, rd_inner_bound, region_for

BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


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


def test_region_and_fm_check_on_stochastic_decomposition(tmp_path, capsys):
    # binary-correlated's POVMs with a 3-letter stochastic integration:
    # region picks the Z-register bounds, fm-check still eliminates over the
    # deterministic-integration sources
    inst = fixtures.load_fixture("binary-correlated")
    m = inst.decomposition.povm_A
    rows = {("0", "0"): (0.3, 0.6, 0.1), ("0", "1"): (1.0, 0.0, 0.0),
            ("1", "0"): (0.0, 0.0, 1.0), ("1", "1"): (0.1, 0.3, 0.6)}
    d = SeparableDecomposition(m, m, ("a", "b", "c"), rows)
    path = _write_config(tmp_path, {
        "state": serialize.density_to_json(inst.state),
        "decomposition": serialize.decomposition_to_json(d)}, "instance.json")
    rc, out, err = _run(capsys, "--command", "region", "--input", path)
    assert rc == 0, err
    labels = {c["label"] for c in json.loads(out)["constraints"]}
    assert {"nfrate1", "nfrate2", "nfrate3", "nfrate4"} <= labels
    rc, out, err = _run(capsys, "--command", "fm-check", "--input", path)
    assert rc == 0 and err == ""
    assert out == "EQUAL\n"


@pytest.mark.parametrize("label", ["region", "fm-check", "covering-check", "rd-eval"])
@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_analysis_stdout_matches_bench_reference(name, label, capsys):
    # the bench compares every field but F_A, F_B and F_joint exactly, so a
    # last-bit drift in an entropy must fail here before it fails there
    want = json.loads(BENCH_REFERENCE.read_text(encoding="utf-8"))["workloads"]["analysis"]
    rc, out, err = _run(capsys, "--command", label, "--input", name)
    assert rc == 0 and err == ""
    assert out == want[f"{label}/{name}"]


def test_analysis_validates_no_derived_block(monkeypatch, capsys):
    # the analysis states are built from validated states, POVMs and laws,
    # so no block of theirs goes through psd_stack again: not in the eight
    # analysis commands, a stochastic region or a two-symbol rd bound
    calls = []
    check = measurement.psd_stack

    def counted(what, *args, **kwargs):
        calls.append(what)
        return check(what, *args, **kwargs)

    monkeypatch.setattr(measurement, "psd_stack", counted)
    for name in fixtures.FIXTURE_NAMES:
        for label in ("region", "fm-check", "covering-check", "rd-eval"):
            assert _run(capsys, "--command", label, "--input", name)[0] == 0
    inst = fixtures.load_fixture("binary-correlated")
    region_for(inst.state, stochastic_binary())
    pairs, _, recon, dobs = inst.rd_arguments()
    recon = {**recon, **{(u, v, 1): st for (u, v, _), st in recon.items()}}
    rd_inner_bound(inst.state, {0: pairs[0], 1: pairs[0]}, {0: 0.25, 1: 0.75}, recon, dobs)
    assert calls.count("block") == 0
    # the public constructor still checks its blocks through the same name
    measurement.CqState(("U",), ("R",), {"R": 1}, {("0",): [[1.0]]})
    assert calls.count("block") == 1


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 6, 7])
def test_fm_check_on_commuting_instances(seed, tmp_path, capsys):
    # rank-deficient, stochastic and locally rotated commuting instances,
    # read from an instance file
    _, state, d = commuting_instance(seed)
    path = _write_config(tmp_path, {"state": serialize.density_to_json(state),
                                    "decomposition": serialize.decomposition_to_json(d)},
                         "instance.json")
    assert _run(capsys, "--command", "fm-check", "--input", path) == (0, "EQUAL\n", "")


def _blockwise_region(state, d):
    """dist_deterministic_region over per-pair blocks and per-block entropies."""
    return dist_deterministic_region(*blockwise_auxiliary_states(state, d.povm_A, d.povm_B))


@pytest.mark.parametrize("dims,seed", [((2, 3), 21), ((3, 2), 22)],
                         ids=["qubit-qutrit", "qutrit-qubit"])
def test_unequal_dimension_instance_file(dims, seed, tmp_path, capsys):
    # dA != dB moves the partial trace's axis offsets on the stack; the
    # region's constants must be the per-block route's, and the elimination
    # must land on the single-letter region
    inst, d = unequal_dims(dims, seed)
    path = _write_config(tmp_path, {"state": serialize.density_to_json(inst.state),
                                    "decomposition": serialize.decomposition_to_json(d)},
                         "instance.json")
    rc, out, err = _run(capsys, "--command", "fm-check", "--input", path)
    assert (rc, out, err) == (0, "EQUAL\n", "")
    rc, out, err = _run(capsys, "--command", "region", "--input", path)
    assert rc == 0 and err == ""
    assert out == serialize.dumps(_blockwise_region(inst.state, d).to_json_dict())


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
    monkeypatch.setattr(protocol, "_slots", {})
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


def test_sweeps_build_their_typical_sets_once(tmp_path, capsys, monkeypatch):
    # each sweep keeps its seed-independent objects in its own slot: a seed
    # sweep builds its typical sets once, and a trial, a collision row and a
    # soft-covering row run in turn rebuild none of them
    typical, setups = [], []
    spied_set, spied_setup = protocol.typical_set, protocol._build_setup
    monkeypatch.setattr(protocol, "_slots", {})
    monkeypatch.setattr(protocol, "typical_set",
                        lambda *a, **k: typical.append(a[1:]) or spied_set(*a, **k))
    monkeypatch.setattr(protocol, "_build_setup",
                        lambda *a: setups.append(a[2:]) or spied_setup(*a))
    collision = {"input": "binary-correlated", "command": "sweep", "kind": "collision", "n": 4}
    soft = dict(collision, kind="soft-covering")
    trial = {"input": "binary-correlated", "command": "simulate", "n": 4}
    rc, out, _ = _run(capsys, "--input", _write_config(tmp_path, dict(collision, seeds=[0, 1, 2])))
    assert rc == 0 and len(out.splitlines()) == 4 and len(typical) == 2
    rc, out, _ = _run(capsys, "--input", _write_config(
        tmp_path, dict(soft, seeds=[0, 1, 2], rate_sums=[0.5, 1.5])))
    assert rc == 0 and len(out.splitlines()) == 7 and len(typical) == 3
    for config in (trial, collision, soft) * 2:
        rc, out, _ = _run(capsys, "--input", _write_config(tmp_path, dict(config, seeds=[5])))
        assert rc == 0 and len(out.splitlines()) == 2
    assert len(typical) == 3 and len(setups) == 1


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


@pytest.mark.parametrize("n", [40, 100])
def test_one_letter_law_long_blocklength_exits_4(n, tmp_path, capsys):
    # one letter has one string of each length, but its index arrays keep
    # one axis per position: the length is refused before any is built
    inst = fixtures.load_fixture("binary-correlated")
    path = _write_config(tmp_path, {
        "state": serialize.density_to_json(inst.state),
        "decomposition": serialize.decomposition_to_json(inst.decomposition),
        "p_uv": [[1.0]],
        "config": {"command": "sweep", "kind": "collision", "n": n,
                   "Rt1": 0.1, "Rt2": 0.1, "R1": 0.05, "R2": 0.05}}, "instance.json")
    rc, out, err = _run(capsys, "--input", path)
    assert rc == 4, err
    assert "cap exceeded" in err
    assert out == ""


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
    {"command": "simulate", "delta": "0.6"},
    {"command": "sweep", "kind": "soft-covering", "rate_sums": ["1.5"]},
], ids=["null-delta", "text-delta", "int-seeds", "int-ns", "null-rate-pair",
        "short-rate-pair", "null-r1", "text-bin-rate", "null-rate-sum",
        "list-eta", "null-shrink", "numeric-text-delta", "numeric-text-rate-sum"])
def test_malformed_config_number_exits_3(extra, tmp_path, capsys):
    # a numeric string is no JSON number, in a config as in an instance file
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


@pytest.mark.parametrize("extra", [{"command": "simulate"},
                                   {"command": "sweep", "kind": "collision"}],
                         ids=["simulate", "collision"])
def test_codeword_draw_cap_exits_4(extra, tmp_path, capsys):
    # L1 = round(2^(6 x 3.3)) = 912838 codewords per mu, under the cap, but
    # two mu draw 1825676 member ids, refused before any is drawn; with one
    # bin on side A there are only 2 x 1 x 1 x 28 decoder cells
    cfg = _write_config(tmp_path, {"input": "binary-correlated", "n": 6, "Rt1": 3.3,
                                   "R1": 0, "N1": 2, **extra})
    rc, out, err = _run(capsys, "--input", cfg)
    assert rc == 4, err
    assert err.startswith("cap exceeded:") and "side A draws 2 x 912838 = 1825676" in err
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


def _binary_correlated_rd_instance(drop=None, resize=None):
    """binary-correlated as an rd-eval instance file: its reconstruction
    states and distortion observable, less the pair ``drop`` and with the
    pair ``resize`` reconstructed on a qutrit."""
    inst = fixtures.load_fixture("binary-correlated")
    recon = {}
    for (u, v, _), state in inst.recon.items():
        if (u, v) == resize:
            state = DensityOperator(np.eye(3) / 3, (3,))
        if (u, v) != drop:
            recon[serialize.pair_key(u, v)] = serialize.density_to_json(state)
    return {"state": serialize.density_to_json(inst.state),
            "decomposition": serialize.decomposition_to_json(inst.decomposition),
            "recon": recon, "delta_obs": serialize.matrix_to_json(inst.delta_obs)}


@pytest.mark.parametrize("payload, word", [
    (_binary_correlated_rd_instance(drop=("0", "1")), "no reconstruction"),
    (_binary_correlated_rd_instance(resize=("1", "0")), "share one dimension"),
], ids=["missing-recon-pair", "mixed-recon-dims"])
def test_bad_recon_exits_3(payload, word, tmp_path, capsys):
    # a reconstruction map that misses an outcome pair or mixes dimensions
    # is refused before any product, not left to a KeyError or a matmul error
    good = _binary_correlated_rd_instance()
    rc, out, err = _run(capsys, "--command", "rd-eval", "--input",
                        _write_config(tmp_path, good, "input.json"))
    assert rc == 0, err
    rc, out, err = _run(capsys, "--command", "rd-eval", "--input",
                        _write_config(tmp_path, payload, "input.json"))
    assert rc == 3, err
    assert err.startswith("invariant violation:") and word in err
    assert out == ""


def test_empty_typical_set_names_n_delta_and_law(tmp_path, capsys):
    # an instance file without a config runs at delta 0.3, where no length-3
    # sequence of binary-correlated's uniform letters is typical
    path = _write_config(tmp_path, _binary_correlated_rd_instance(), "input.json")
    rc, out, err = _run(capsys, "--command", "simulate", "--n", "3", "--input", path)
    assert rc == 3, err
    assert err == ("invariant violation: cannot prune onto an empty typical set "
                   "(n = 3, delta = 0.3, letter law [0.5, 0.5])\n")
    assert out == ""


@pytest.mark.parametrize("command", ["simulate", "region", "rd-eval", "packing-sweep"])
@pytest.mark.parametrize("payload, field", [
    (_example1_instance(p_uv="x"), "p_uv"),
    (_example1_instance(p_uv=[[0.5], [0.25, 0.25]]), "p_uv"),
    (_example1_instance(p_uv=[[float("nan")] * 4] * 4), "p_uv"),
    (_example1_instance(config=[1]), "config"),
    ({"input": "example1", "config": [1]}, "config"),
    (_example1_instance(recon=[1]), "recon"),
    (_example1_instance(p_uv=[[1.5, -0.5], [0.0, 0.0]]), "p_uv"),
], ids=["text-p_uv", "ragged-p_uv", "nan-p_uv", "list-config", "list-config-bare",
        "list-recon", "negative-p_uv"])
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
        ensemble=ensemble_payload(fixtures.soft_covering_ensemble()))))


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
    _set("decomposition", "deterministic", value="no"),
    _set("decomposition", "deterministic", value=1),
    _set("decomposition", "channel", "z_alphabet", 0, value={"a": 1}),
    _set("ensemble", "outcomes", 0, value={"a": 1}),
    _set("decomposition", "povm_A", "outcomes", value="01+-"),
], ids=["bool-entry", "text-entry", "list-rows", "bool-rows", "text-cols", "bool-dims",
        "text-dims", "bool-povm-entry", "text-channel-row", "bool-channel-row",
        "list-channel-rows", "bool-weights", "text-weights", "bool-ensemble-dims",
        "bool-p_uv", "text-p_uv-row", "fractional-rows", "text-deterministic",
        "number-deterministic", "object-z-label", "object-ensemble-outcome",
        "string-outcomes"])
def test_non_number_instance_field_exits_3(mutate, tmp_path, capsys):
    # where an instance file holds a number only a JSON int or float passes:
    # booleans and numeric strings are refused, not read as 1, 0 or 0.5; the
    # deterministic flag takes a JSON boolean only; an outcome label is a
    # string, a number or a list of labels, and outcome lists are JSON lists,
    # so a string of one-letter labels is not split into them
    payload = _full_example1_instance()
    rc, out, err = _run(capsys, "--command", "region", "--input",
                        _write_config(tmp_path, payload, "input.json"))
    assert rc == 0, err
    mutate(payload)
    rc, out, err = _run(capsys, "--command", "region", "--input",
                        _write_config(tmp_path, payload, "input.json"))
    assert rc == 3, err
    assert err.startswith("invariant violation:") and "must be" in err
    assert "malformed ensemble payload" not in err
    assert out == ""


def _covering_instance(scale=0.9):
    """_full_example1_instance with example1's reconstructions and a config
    whose approx_A is povm_A scaled by scale and approx_B is povm_B."""
    inst = fixtures.load_fixture("example1")
    d = inst.decomposition
    payload = _full_example1_instance()
    payload["recon"] = {serialize.pair_key(u, v): serialize.density_to_json(state)
                        for (u, v, _), state in inst.recon.items()}
    approx_a = SubPovm(d.povm_A.outcomes, tuple(scale * op for op in d.povm_A.operators))
    payload["config"] = {"approx_A": serialize.povm_to_json(approx_a),
                         "approx_B": serialize.povm_to_json(d.povm_B)}
    return json.loads(json.dumps(payload))


def _payload_paths(node, path=()):
    """The key path of every node below a JSON payload, taking the first two
    items of each list."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node[:2]) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _payload_paths(child, path + (key,))


def test_every_payload_node_of_a_wrong_kind_is_refused_by_its_key_path(tmp_path, capsys):
    # each node of an instance file, its config's measurement families
    # included, set to a number, a string and null: the CLI exits by its
    # contract, and a kind refusal names a key on the mutated path
    base = _covering_instance()
    path = _write_config(tmp_path, base, "input.json")
    assert _run(capsys, "--command", "covering-check", "--input", path)[0] == 0
    broken = []
    for keys in _payload_paths(base):
        for value in (5, "x", None):
            payload = json.loads(json.dumps(base))
            _set(*keys, value=value)(payload)
            _write_config(tmp_path, payload, "input.json")
            rc, out, err = _run(capsys, "--command", "covering-check", "--input", path)
            named = any(isinstance(k, str) and k in err for k in keys)
            if (rc not in (0, 2, 3, 4) or (rc and out)
                    or (("must be " in err or "needs " in err) and not named)):
                broken.append((keys, value, rc, err))
    assert broken == []


def test_covering_check_reads_a_nearly_complete_approximation_as_a_sub_povm(tmp_path, capsys):
    # elements summing to (1 - 5e-9) I are no Povm at tol 1e-9, so the
    # family is read as the sub-POVM it is
    path = _write_config(tmp_path, _covering_instance(scale=1.0 - 5e-9), "input.json")
    rc, out, err = _run(capsys, "--command", "covering-check", "--input", path)
    assert rc == 0, err
    assert json.loads(out)["subadditive"] is True


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


_ENSEMBLE = ensemble_payload(fixtures.soft_covering_ensemble())
_STATE = _example1_instance()["state"]
_BAD_ENTRIES = [["q", 0]] + _STATE["entries"][1:]
_EMPTY_STATE = {"rows": 0, "cols": 0, "entries": [], "dims": [0]}


@pytest.mark.parametrize("extra", [
    {"ensemble": dict(_ENSEMBLE, weights=["x", 0.5])},
    {"ensemble": dict(_ENSEMBLE, states=[dict(_ENSEMBLE["states"][0], entries=[["q", 0]] * 4),
                                         _ENSEMBLE["states"][1]])},
    {"delta_obs": {"rows": 1, "cols": 1, "entries": [["q", 0]]}},
    {"state": dict(_STATE, entries=_BAD_ENTRIES)},
    {"delta_obs": {"rows": 1, "cols": 1, "entries": 7}},
    {"state": dict(_STATE, dims=["x"])},
    {"state": _EMPTY_STATE},
    {"ensemble": dict(_ENSEMBLE, states=[_EMPTY_STATE, _ENSEMBLE["states"][1]])},
], ids=["text-weight", "text-ensemble-entry", "text-delta_obs-entry", "text-state-entry",
        "int-entries", "text-dims", "empty-state", "empty-ensemble-state"])
def test_malformed_matrix_or_ensemble_payload_exits_3(extra, tmp_path, capsys):
    # an empty matrix with dims [0] factors its side but has no spectrum; a
    # field's own refusal is not rewrapped as a malformed ensemble payload
    payload = _example1_instance(config={"kind": "soft-covering", "n": 2}, **extra)
    path = _write_config(tmp_path, payload, "input.json")
    rc, out, err = _run(capsys, "--command", "sweep", "--input", path)
    assert rc == 3, err
    assert err.startswith("invariant violation:")
    assert "malformed ensemble payload" not in err
    assert out == ""


def _each(*mutations):
    """A mutation applying each of ``mutations`` in turn."""
    def mutate(payload):
        for m in mutations:
            m(payload)
    return mutate


def _diag(*values):
    """A matrix payload of a real diagonal matrix."""
    d = len(values)
    return {"rows": d, "cols": d,
            "entries": [[values[i // d], 0.0] if i % (d + 1) == 0 else [0.0, 0.0]
                        for i in range(d * d)]}


_HUGE = [1e308, 0.0]
_QUTRIT_ELEMENT = {"rows": 3, "cols": 3,
                   "entries": [[0.5, 0.0] if i % 4 == 0 else [0.0, 0.0] for i in range(9)]}
_WIDE_DELTA = {"rows": 2, "cols": 32, "entries": [[0.0, 0.0]] * 64}


@pytest.mark.parametrize("mutate,word", [
    (_set("state", "entries", 0, value=[float("inf"), 0.0]), "non-finite entry"),
    (_set("decomposition", "povm_A", "operators", 0, "entries", 1, value=[float("nan"), 0.0]),
     "non-finite entry"),
    (_set("delta_obs", "entries", 0, value=[float("-inf"), 0.0]), "non-finite entry"),
    (_set("decomposition", "povm_A", "operators", 1, value=_QUTRIT_ELEMENT),
     "inconsistent dimensions"),
    (_set("decomposition", "povm_A", "operators", value=[{"rows": 0, "cols": 0, "entries": []}]
          * 2), "positive dimension"),
    (_set("delta_obs", value=_WIDE_DELTA), "square matrix"),
    (_each(_set("delta_obs", "entries", 1, value=[0.4, 0.0]),
           _set("delta_obs", "entries", 8, value=[-0.4, 0.0])),
     "distortion observable is not Hermitian"),
    (_each(_set("state", "entries", 1, value=_HUGE), _set("state", "entries", 4, value=_HUGE)),
     "density operator is not PSD within 1e-09: min eigenvalue -1.000e+308"),
    (_set("decomposition", "povm_A", "operators", 0,
          value={"rows": 2, "cols": 2, "entries": [[1.0, 0.0], _HUGE, _HUGE, [0.0, 0.0]]}),
     "operator at '0' is not PSD"),
    (_set("decomposition", "povm_A", "operators", value=[_diag(1e308, 0.0), _diag(0.0, 1.0)]),
     "operator sum exceeds identity by 1.000e+308"),
    (_each(_set("state", "entries", 0, value=_HUGE), _set("state", "entries", 15, value=_HUGE)),
     "density operator trace inf"),
    (_set("decomposition", "channel", "rows", "(0,0)", value=[1e308, 1e308, 0.0, 0.0]),
     "channel row at ('0', '0') must sum to 1"),
], ids=["inf-state-entry", "nan-povm-entry", "inf-delta_obs-entry", "mixed-povm-dims",
        "empty-povm-elements", "wide-delta_obs", "skew-delta_obs", "huge-state-entry",
        "huge-povm-entry", "huge-povm-sum", "huge-state-trace", "huge-channel-row"])
def test_non_finite_or_misshapen_matrix_exits_3(mutate, word, tmp_path, capsys, recwarn):
    # an infinite or NaN entry is refused by name before any arithmetic can
    # warn (or print a NaN distortion), a measurement is validated before
    # its elements are summed, and the distortion observable must be square
    payload = _binary_correlated_rd_instance()
    mutate(payload)
    rc, out, err = _run(capsys, "--command", "rd-eval", "--input",
                        _write_config(tmp_path, payload, "input.json"))
    assert rc == 3, err
    assert err.startswith("invariant violation:") and word in err
    assert out == ""
    assert "Warning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


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


def test_ensemble_weight_within_tol_below_zero_runs(tmp_path, capsys):
    # the ensemble accepts -5e-10 within its tol and stores it as 0, so the
    # typical set of its weights is not refused by a tighter floor
    payload = _example1_instance(config={"kind": "soft-covering", "n": 2},
                                 ensemble=dict(_ENSEMBLE, weights=[1.0 + 5e-10, -5e-10]))
    path = _write_config(tmp_path, payload, "input.json")
    rc, out, err = _run(capsys, "--command", "sweep", "--input", path)
    assert rc == 0, err
    assert out.startswith("n,Rt1,") and err == ""


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
    assert err.startswith(
        "invariant violation: channel row at ('0', '0') must be finite, got [nan, ")
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


def test_dense_packing_over_the_dimension_cap_draws_nothing(tmp_path, capsys, monkeypatch):
    # example1's POVMs are not diagonal, so its slab is dense, and 4^7 is over
    # DIM_CAP: the sweep refuses n = 7 before it draws a codebook, while an
    # invalid rate is still refused first
    def no_draw(*args):
        raise AssertionError("a codebook was drawn")

    monkeypatch.setattr(protocol, "substream", no_draw)
    rc, out, err = _run(capsys, "--input", "example1", "--command", "packing-sweep", "--n", "7")
    assert rc == 4, err
    assert err.startswith("cap exceeded: operator dimension 4^7 exceeds the cap")
    assert out == ""
    cfg = _write_config(tmp_path, {"input": "example1", "command": "packing-sweep", "n": 7,
                                   "rate_pairs": [[-1, 0.5]]})
    rc, out, err = _run(capsys, "--input", cfg)
    assert rc == 3, err
    assert out == ""


@pytest.mark.parametrize("command, n", [("simulate", 3), ("packing-sweep", 4), ("sweep", 4)])
def test_huge_finite_delta_warns_nothing(command, n, capsys):
    # the typicality bounds overflow to their limit +-inf without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = _run(capsys, "--input", "binary-correlated", "--command", command,
                            "--n", str(n), "--delta", "1e308")
    assert rc == 0 and err == "", err
    assert out.startswith("n,Rt1,")


_POVM = serialize.povm_to_json(fixtures.computational_povm())
_OBJECT_OUTCOME_POVM = dict(_POVM, outcomes=[{"a": 1}] + _POVM["outcomes"][1:])


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
    {"input": "binary-correlated", "command": "packing-sweep", "rate_pairs": [[-1, 0.5]]},
    {"input": "binary-correlated", "command": "sweep", "kind": "soft-covering",
     "rate_sums": [-3]},
    {"input": "binary-correlated", "command": "packing-sweep", "r1": [-0.5]},
    {"input": "binary-correlated", "command": "covering-check", "approx_A": _OBJECT_OUTCOME_POVM,
     "approx_B": _POVM},
], ids=["list-command", "object-command", "float-output", "list-output", "true-output",
        "list-input", "negative-seed-packing", "negative-seed-soft-covering",
        "negative-rate-pair", "negative-rate-sum", "negative-r1", "object-approx-outcome"])
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


# one value of the wrong JSON kind per config key
_MALFORMED_CONFIG_VALUES = {
    "n": 2.5, "N1": True, "N2": "2", "seed": None, "Rt1": "1.0", "Rt2": [1.0], "R1": None,
    "R2": False, "eta": "x", "delta": {}, "shrink": "abc", "seeds": "x", "ns": [-1],
    "r1": 0.25, "r2": [None], "rate_sums": ["1"], "rate_pairs": 7, "bin_rates": [[0.5]],
    "command": ["region"], "output": 1.5, "kind": 3, "approx_A": {"outcomes": ["0"]},
    "approx_B": _OBJECT_OUTCOME_POVM,
}


@pytest.mark.parametrize("key", sorted(cli.CONFIG_KEYS))
def test_malformed_config_value_exits_3_whichever_command_runs(key, tmp_path, capsys):
    # region reads no config value, yet each is checked by its kind
    cfg = _write_config(tmp_path, {"input": "example1", key: _MALFORMED_CONFIG_VALUES[key]})
    rc, out, err = _run(capsys, "--command", "region", "--input", cfg)
    assert rc == 3, err
    assert err.startswith(f"invariant violation: {key} ")
    assert out == ""


def test_deeply_nested_config_value_exits_2(tmp_path, capsys):
    # the JSON decoder recurses once per nested list
    path = tmp_path / "deep.json"
    path.write_text('{"input": "example1", "seeds": ' + "[" * 990 + "]" * 990 + "}",
                    encoding="utf-8")
    rc, out, err = _run(capsys, "--command", "region", "--input", str(path))
    assert rc == 2, err
    assert err.startswith("parse error:") and "nest too deeply" in err
    assert out == ""


def _nested(depth, leaf):
    """leaf inside depth nested lists."""
    for _ in range(depth):
        leaf = [leaf]
    return leaf


def _z_label_decomposition(label):
    """example1's decomposition with label as its first z letter."""
    payload = serialize.decomposition_to_json(fixtures.load_fixture("example1").decomposition)
    payload["channel"]["z_alphabet"][0] = label
    return payload


@pytest.mark.parametrize("depth,rc", [(serialize.LABEL_DEPTH, 0),
                                      (serialize.LABEL_DEPTH + 1, 3), (700, 3)])
def test_outcome_label_depth(depth, rc, tmp_path, capsys):
    # freezing a label recursed once per nested list, so 700 lists overflowed
    payload = _example1_instance(decomposition=_z_label_decomposition(_nested(depth, "a")))
    got, out, err = _run(capsys, "--command", "region", "--input",
                         _write_config(tmp_path, payload, "input.json"))
    assert got == rc, err
    if rc:
        assert err == (f"invariant violation: channel z_alphabet must nest at most "
                       f"{serialize.LABEL_DEPTH} lists deep\n")
        assert out == ""


# 4611686018427387905 * 4 wraps round to 4 in int64
_BAD_DIMS = {"wrapped-dims": [2 ** 62 + 1, 4], "negative-dims": [-2, -2]}


@pytest.mark.parametrize("command", cli.COMMANDS)
@pytest.mark.parametrize("dims", list(_BAD_DIMS.values()), ids=list(_BAD_DIMS))
def test_state_dims_not_positive_factors_exit_3(dims, command, tmp_path, capsys):
    payload = _example1_instance(state=dict(_STATE, dims=dims))
    rc, out, err = _run(capsys, "--command", command, "--input",
                        _write_config(tmp_path, payload, "input.json"))
    assert rc == 3, err
    assert err.startswith(f"invariant violation: dims {tuple(dims)} must be positive integers")
    assert out == ""


_MALFORMED_INSTANCES = {
    "text-p_uv": _example1_instance(p_uv="x"),
    "list-recon": _example1_instance(recon=[1]),
    "missing-recon-pair": _binary_correlated_rd_instance(drop=("0", "1")),
    "mixed-recon-dims": _binary_correlated_rd_instance(resize=("1", "0")),
    "object-name": _example1_instance(name={"a": 1}),
    "text-weight": _example1_instance(ensemble=dict(_ENSEMBLE, weights=["x", 0.5])),
    "list-config": _example1_instance(config=[1]),
    "null-state": _example1_instance(state=None),
    "object-label": _example1_instance(decomposition=_z_label_decomposition({"a": 1})),
    "deep-label": _example1_instance(decomposition=_z_label_decomposition(_nested(700, "a"))),
    **{name: _example1_instance(state=dict(_STATE, dims=dims)) for name, dims in _BAD_DIMS.items()},
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
