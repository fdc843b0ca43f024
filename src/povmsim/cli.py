"""Command line front door: regions, trials, sweeps and identity checks.

``--input`` names a builtin fixture ("example1", "binary-correlated") or a
JSON file.  An input file either holds an instance ({"state", "decomposition",
...}) with an optional embedded "config" object, or is a bare config object
whose "input" key names the real instance; config keys stand in for flags,
and explicit flags win over config values.  Every config value is read by
its key's JSON kind before any command runs, whichever command that is.

stdout carries only data (JSON or CSV), stderr only diagnostics.  Exit codes:
0 success, 2 unreadable or unparseable input, 3 invariant violation, 4
enumeration cap exceeded.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from functools import partial

import numpy as np

from . import fixtures, serialize
from .errors import CapExceededError, InvariantError
from .measurement import auxiliary_states, outcome_distribution
from .operators import DEFAULT_TOL, SubPovm, probability_rows
from .protocol import (ProtocolParams, binning_collision_rate,
                       faithfulness_trial, mutual_covering_check,
                       packing_norm_trial, soft_covering_trial)
from .regions import (dist_deterministic_region, fourier_motzkin,
                      intermediate_system, rd_inner_bound, region_for,
                      single_letter_system)
from .typicality import SEQ_CAP

PARAM_KEYS = ("n", "Rt1", "Rt2", "R1", "R2", "N1", "N2", "eta", "delta", "seed")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="povmsim",
        description="Distributed measurement simulation: rate regions, "
                    "protocol trials, packing and covering sweeps.")
    p.add_argument("--input", help="builtin fixture name or JSON file")
    p.add_argument("--output", help="write results here instead of stdout")
    p.add_argument("--command", choices=COMMANDS)
    p.add_argument("--seed", type=int, help="trial seed (overrides config)")
    p.add_argument("--n", type=int, help="block length (overrides config)")
    p.add_argument("--eta", type=float, help="gamma slack parameter")
    p.add_argument("--delta", type=float, help="typicality window")
    p.add_argument("--tol", type=float, help="numerical tolerance override")
    return p


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:  # the decoder recurses once per nested array or object
        raise json.JSONDecodeError("arrays or objects nest too deeply", text, 0) from None


def _instance_from_json(payload: dict) -> fixtures.Instance:
    rho = serialize.density_from_json("state", payload["state"])
    d = serialize.decomposition_from_json(
        "decomposition", serialize.json_field("instance", payload, "decomposition"))
    if "p_uv" in payload:
        rows = [serialize.json_numbers("p_uv", row)
                for row in serialize.json_kind("p_uv", payload["p_uv"], list)]
        if len({len(row) for row in rows}) != 1:
            raise InvariantError(f"p_uv must be a matrix of numbers, got {payload['p_uv']!r}")
        p_uv = probability_rows("p_uv", np.ravel(rows)).reshape(len(rows), -1)
    else:
        p_uv = outcome_distribution(rho, d.povm_A, d.povm_B)
    if "ensemble" in payload:
        ens = serialize.ensemble_from_json("ensemble", payload["ensemble"])
    else:
        ens = fixtures.soft_covering_ensemble()
    recon = {}
    for key, obj in serialize.json_kind("recon", payload.get("recon", {}), dict).items():
        u, v = serialize.parse_pair_key(key, d.povm_A.outcomes, d.povm_B.outcomes)
        recon[(u, v, 0)] = serialize.density_from_json(f"recon {key}", obj)
    if "delta_obs" in payload:
        delta_obs = serialize.matrix_from_json("delta_obs", payload["delta_obs"])
    else:
        delta_obs = np.zeros((0, 0), dtype=np.complex128)
    name = serialize.json_kind("name", payload.get("name", "instance"), str)
    params = ProtocolParams(n=2, Rt1=1.0, Rt2=1.0, R1=1.0, R2=1.0)
    return fixtures.Instance(
        name=name, state=rho, decomposition=d,
        params=params, p_uv=p_uv, ensemble=ens, recon=recon,
        delta_obs=delta_obs)


def _resolve(args):
    """(instance, config) from --input, following one config indirection."""
    if args.input is None:
        raise InvariantError("an --input fixture name or file is required")
    if args.input in fixtures.FIXTURE_NAMES:
        return fixtures.load_fixture(args.input), {}
    payload = _load_json(args.input)
    if not isinstance(payload, dict):
        raise InvariantError("input JSON must be an object")
    own = serialize.json_kind("config", payload.get("config", {}), dict)
    if "state" in payload:
        return _instance_from_json(payload), dict(own)
    config = {k: v for k, v in payload.items() if k not in ("input", "config")}
    config.update(own)
    if "input" not in payload:
        raise InvariantError("config file must name its input fixture or file")
    inner = serialize.json_kind("input", payload["input"], str)
    if inner in fixtures.FIXTURE_NAMES:
        return fixtures.load_fixture(inner), config
    inner_payload = _load_json(inner)
    if not isinstance(inner_payload, dict) or "state" not in inner_payload:
        raise InvariantError("nested input file must hold a state and decomposition")
    merged = dict(serialize.json_kind("config", inner_payload.get("config", {}), dict))
    merged.update(config)
    return _instance_from_json(inner_payload), merged


def _integers(key: str, value) -> list:
    """A list of non-negative integers: seeds or block lengths."""
    ints = [serialize.json_number(key, x, integer=True)
            for x in serialize.json_kind(key, value, list)]
    if any(i < 0 for i in ints):
        raise InvariantError(f"{key} must be non-negative, got {value!r}")
    return ints


def _number_pairs(key: str, value) -> list:
    pairs = serialize.json_kind(key, value, list)
    if not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise InvariantError(f"{key} must be a list of number pairs, got {value!r}")
    return [tuple(serialize.json_numbers(key, p)) for p in pairs]


# every config key a command reads, by the reader of its JSON kind; "input"
# and "config" are read only at the top of a bare config file and never
# reach the merged config
_READERS = {
    **dict.fromkeys(("n", "N1", "N2", "seed"), partial(serialize.json_number, integer=True)),
    **dict.fromkeys(("Rt1", "Rt2", "R1", "R2", "eta", "delta", "shrink"), serialize.json_number),
    **dict.fromkeys(("seeds", "ns"), _integers),
    **dict.fromkeys(("r1", "r2", "rate_sums"), serialize.json_numbers),
    **dict.fromkeys(("rate_pairs", "bin_rates"), _number_pairs),
    **dict.fromkeys(("command", "output", "kind"), partial(serialize.json_kind, kind=str)),
    **dict.fromkeys(("approx_A", "approx_B"), serialize.povm_from_json),
}
CONFIG_KEYS = frozenset(_READERS)


def _params_for(instance: fixtures.Instance, config: dict) -> ProtocolParams:
    return replace(instance.params, **{key: config[key] for key in PARAM_KEYS if key in config})


def _row_seeds(config: dict, params: ProtocolParams, inner: list) -> list:
    """The seed list of a command that loops over seeds x inner, refused
    before any row is computed when those rows exceed the enumeration cap."""
    seeds = config.get("seeds", [params.seed])
    if len(seeds) * len(inner) > SEQ_CAP:
        raise CapExceededError(
            f"{len(seeds)} x {len(inner)} result rows exceed the cap {SEQ_CAP}")
    return seeds


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_region(instance, config, args) -> str:
    report = region_for(instance.state, instance.decomposition)
    return serialize.dumps(report.to_json_dict())


def cmd_simulate(instance, config, args) -> str:
    params = _params_for(instance, config)
    ns = config.get("ns", [params.n])
    seeds = _row_seeds(config, params, ns)
    # rows go seed by seed, trials n by n: the trials of one n share the
    # protocol's seed-independent setup
    rows = [[serialize.trial_row(faithfulness_trial(
        replace(params, n=n, seed=seed), instance.state, instance.decomposition))
        for seed in seeds] for n in ns]
    return serialize.csv_text([row for seed_rows in zip(*rows) for row in seed_rows])


def _packing(instance, config, params):
    d = instance.decomposition
    if "rate_pairs" in config:
        pairs = config["rate_pairs"]
    elif "r1" in config or "r2" in config:
        pairs = [(a, b) for a in config.get("r1", [0.25]) for b in config.get("r2", [0.25])]
    else:
        pairs = [(0.25, 0.25), (0.75, 0.75)]
    return pairs, lambda seed, rates: {
        "n": params.n, "Rt1": rates[0], "Rt2": rates[1], "delta": params.delta,
        "seed": seed, "packing_norm": packing_norm_trial(
            d.povm_A, d.povm_B, instance.p_uv, params.n, *rates, params.delta, seed)}


def _collision(instance, config, params):
    def row(seed, rates):
        trial = replace(params, R1=rates[0], R2=rates[1], seed=seed)
        return {"n": trial.n, "Rt1": trial.Rt1, "Rt2": trial.Rt2, "R1": trial.R1,
                "R2": trial.R2, "N1": trial.N1, "N2": trial.N2, "eta": trial.eta,
                "delta": trial.delta, "seed": seed,
                "collision_rate": binning_collision_rate(trial, instance.p_uv)}
    return config.get("bin_rates", [(params.R1, params.R2)]), row


def _soft_covering(instance, config, params):
    delta, eta = config.get("delta", 0.2), config.get("eta", 0.1)
    return config.get("rate_sums", [1.0]), lambda seed, rate_sum: {
        "n": params.n, "Rt1": rate_sum, "eta": eta, "delta": delta, "seed": seed,
        "G": soft_covering_trial(instance.ensemble, params.n, rate_sum, seed,
                                 delta=delta, eta=eta)}


# each sweep kind gives its points and a CSV row function of (seed, point)
_SWEEPS = {"packing": _packing, "collision": _collision, "soft-covering": _soft_covering}


def cmd_sweep(instance, config, args, kind=None) -> str:
    kind = kind or config.get("kind", "packing")
    if kind not in _SWEEPS:
        raise InvariantError(f"unknown sweep kind {kind!r}")
    params = _params_for(instance, config)
    points, row = _SWEEPS[kind](instance, config, params)
    rows = []
    for seed in _row_seeds(config, params, points):
        for point in points:
            t0 = time.perf_counter()
            rows.append(row(seed, point))
            rows[-1]["runtime_ms"] = (time.perf_counter() - t0) * 1000.0
    return serialize.csv_text(rows)


def cmd_fm_check(instance, config, args) -> str:
    # the elimination is stated over the deterministic-integration sources,
    # for a stochastic decomposition too
    d = instance.decomposition
    s = dist_deterministic_region(*auxiliary_states(instance.state, d.povm_A, d.povm_B)).sources
    pre = intermediate_system(s["I(U;RB)"], s["I(V;RA)"], s["I(U;V)"],
                              s["S(U)"], s["S(V)"])
    projected = fourier_motzkin(pre, ("Rt1", "Rt2", "C1", "C2"))
    target = single_letter_system(s["I(U;RB)"], s["I(V;RA)"], s["I(U;V)"],
                            s["S(U)"], s["S(V)"])
    return ("EQUAL" if projected.same_region(target) else "DIFFERENT") + "\n"


def cmd_covering_check(instance, config, args) -> str:
    d = instance.decomposition
    tol = args.tol if args.tol is not None else 1e-9
    if "approx_A" in config or "approx_B" in config:
        if not ("approx_A" in config and "approx_B" in config):
            raise InvariantError("covering-check needs both approx_A and approx_B")
        sub_a, sub_b = config["approx_A"], config["approx_B"]
    else:
        shrink = config.get("shrink", 0.1)
        if not 0.0 <= shrink < 1.0:
            raise InvariantError(f"shrink must sit in [0, 1), got {shrink}")
        sub_a = SubPovm(d.povm_A.outcomes,
                        tuple((1.0 - shrink) * op for op in d.povm_A.operators))
        sub_b = SubPovm(d.povm_B.outcomes,
                        tuple((1.0 - shrink) * op for op in d.povm_B.operators))
    fa, fb, fj = mutual_covering_check(instance.state, sub_a, sub_b,
                                       d.povm_A, d.povm_B)
    return serialize.dumps({"F_A": fa, "F_B": fb, "F_joint": fj,
                            "subadditive": bool(fj <= fa + fb + tol)})


def cmd_rd_eval(instance, config, args) -> str:
    pairs, p_q, recon, delta_obs = instance.rd_arguments()
    if not recon:
        raise InvariantError("instance provides no reconstruction data")
    tol = args.tol if args.tol is not None else DEFAULT_TOL
    report = rd_inner_bound(instance.state, pairs, p_q, recon, delta_obs, tol=tol)
    return serialize.dumps(report.to_json_dict())


_DISPATCH = {
    "region": cmd_region,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "fm-check": cmd_fm_check,
    "covering-check": cmd_covering_check,
    "packing-sweep": partial(cmd_sweep, kind="packing"),
    "rd-eval": cmd_rd_eval,
}
COMMANDS = tuple(_DISPATCH)


def _run(args) -> int:
    # NaN fails both comparisons, so it is refused with the infinities
    if args.tol is not None and not 0.0 <= args.tol < math.inf:
        raise InvariantError(f"--tol must be a finite non-negative number, got {args.tol!r}")
    instance, config = _resolve(args)
    unknown = sorted(set(config) - CONFIG_KEYS)
    if unknown:
        raise InvariantError(f"unknown config key {unknown[0]!r}")
    config = {key: _READERS[key](key, value) for key, value in config.items()}
    config.update({key: getattr(args, key) for key in ("seed", "n", "eta", "delta")
                   if getattr(args, key) is not None})
    command = args.command or config.get("command")
    if command is None:
        raise InvariantError("no command given by flag or config")
    if command not in _DISPATCH:
        raise InvariantError(f"unknown command {command!r}")
    text = _DISPATCH[command](instance, config, args)
    output = args.output or config.get("output")
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage or help
        return exc.code
    try:
        return _run(args)
    except json.JSONDecodeError as exc:
        print(f"parse error: line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
