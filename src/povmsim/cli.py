"""Command line front door: regions, trials, sweeps and identity checks.

``--input`` names a builtin fixture ("example1", "binary-correlated") or a
JSON file.  An input file either holds an instance ({"state", "decomposition",
...}) with an optional embedded "config" object, or is a bare config object
whose "input" key names the real instance; config keys stand in for flags,
and explicit flags win over config values.

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
from .operators import DEFAULT_TOL, SubPovm
from .protocol import (ProtocolParams, binning_collision_rate,
                       faithfulness_trial, mutual_covering_check,
                       packing_norm_trial, soft_covering_trial)
from .regions import (dist_deterministic_region, fourier_motzkin,
                      intermediate_system, rd_inner_bound, region_for,
                      single_letter_system)
from .typicality import SEQ_CAP

PARAM_KEYS = ("n", "Rt1", "Rt2", "R1", "R2", "N1", "N2", "eta", "delta", "seed")
_INT_KEYS = frozenset({"n", "N1", "N2", "seed"})
# every config key a command reads; "input" and "config" are read only at the
# top of a bare config file and never reach the merged config
CONFIG_KEYS = frozenset(PARAM_KEYS) | {
    "command", "output", "kind", "seeds", "ns", "rate_pairs", "r1", "r2",
    "bin_rates", "rate_sums", "approx_A", "approx_B", "shrink"}


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
        return json.load(fh)


def _instance_from_json(payload: dict) -> fixtures.Instance:
    if "decomposition" not in payload:
        raise InvariantError("instance file needs a decomposition")
    rho = serialize.density_from_json(payload["state"])
    d = serialize.decomposition_from_json(payload["decomposition"])
    if "p_uv" in payload:
        rows = [serialize.json_numbers("p_uv", row)
                for row in _typed("p_uv", payload["p_uv"], list)]
        p_uv = np.array(rows) if len({len(row) for row in rows}) == 1 else None
        if p_uv is None or not np.all(np.isfinite(p_uv)):
            raise InvariantError(
                f"p_uv must be a matrix of finite numbers, got {payload['p_uv']!r}")
    else:
        p_uv = outcome_distribution(rho, d.povm_A, d.povm_B)
    if "ensemble" in payload:
        ens = serialize.ensemble_from_json(payload["ensemble"])
    else:
        ens = fixtures.soft_covering_ensemble()
    recon = {}
    for key, obj in _typed("recon", payload.get("recon", {}), dict).items():
        u, v = serialize.parse_pair_key(key, d.povm_A.outcomes, d.povm_B.outcomes)
        recon[(u, v, 0)] = serialize.density_from_json(obj)
    if "delta_obs" in payload:
        delta_obs = serialize.matrix_from_json(payload["delta_obs"])
    else:
        delta_obs = np.zeros((0, 0), dtype=np.complex128)
    name = payload.get("name", "instance")
    if not isinstance(name, str):
        raise InvariantError(f"name must be a string, got {name!r}")
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
    own = _typed("config", payload.get("config", {}), dict)
    if "state" in payload:
        return _instance_from_json(payload), dict(own)
    config = {k: v for k, v in payload.items() if k not in ("input", "config")}
    config.update(own)
    if "input" not in payload:
        raise InvariantError("config file must name its input fixture or file")
    inner = _typed("input", payload["input"], str)
    if inner in fixtures.FIXTURE_NAMES:
        return fixtures.load_fixture(inner), config
    inner_payload = _load_json(inner)
    if not isinstance(inner_payload, dict) or "state" not in inner_payload:
        raise InvariantError("nested input file must hold a state and decomposition")
    merged = dict(_typed("config", inner_payload.get("config", {}), dict))
    merged.update(config)
    return _instance_from_json(inner_payload), merged


_KINDS = {str: "a string", list: "a list", dict: "an object"}


def _typed(key: str, value, kind: type):
    """A config or instance value of JSON kind str, list or dict."""
    if not isinstance(value, kind):
        raise InvariantError(f"{key} must be {_KINDS[kind]}, got {value!r}")
    return value


def _float_pairs(key: str, value) -> list:
    pairs = _typed(key, value, list)
    if not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise InvariantError(f"{key} must be a list of number pairs, got {value!r}")
    return [tuple(serialize.json_numbers(key, p)) for p in pairs]


def _float_list(config: dict, key: str, default) -> list:
    if key not in config:
        return list(default)
    return serialize.json_numbers(key, config[key])


def _params_for(instance: fixtures.Instance, config: dict,
                args) -> ProtocolParams:
    merged = {}
    for key in PARAM_KEYS:
        if key in config:
            merged[key] = config[key]
    for key in ("seed", "n", "eta", "delta"):
        val = getattr(args, key)
        if val is not None:
            merged[key] = val
    for key in list(merged):
        merged[key] = serialize.json_number(key, merged[key], integer=key in _INT_KEYS)
    return replace(instance.params, **merged) if merged else instance.params


def _seed_list(config: dict, params: ProtocolParams) -> list:
    if "seeds" in config:
        seeds = [serialize.json_number("seeds", s, integer=True)
                 for s in _typed("seeds", config["seeds"], list)]
        if any(s < 0 for s in seeds):
            raise InvariantError(f"seeds must be non-negative, got {config['seeds']!r}")
        return seeds
    return [params.seed]


def _n_list(config: dict, params: ProtocolParams) -> list:
    if "ns" in config:
        return [serialize.json_number("ns", n, integer=True)
                for n in _typed("ns", config["ns"], list)]
    return [params.n]


def _row_seeds(config: dict, params: ProtocolParams, inner: list) -> list:
    """The seed list of a command that loops over seeds x inner, refused
    before any row is computed when those rows exceed the enumeration cap."""
    seeds = _seed_list(config, params)
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
    params = _params_for(instance, config, args)
    ns = _n_list(config, params)
    seeds = _row_seeds(config, params, ns)
    # rows go seed by seed, trials n by n: the trials of one n share the
    # protocol's seed-independent setup
    rows = [[serialize.trial_row(faithfulness_trial(
        replace(params, n=n, seed=seed), instance.state, instance.decomposition))
        for seed in seeds] for n in ns]
    return serialize.csv_text([row for seed_rows in zip(*rows) for row in seed_rows])


def _packing_pairs(config: dict):
    if "rate_pairs" in config:
        return _float_pairs("rate_pairs", config["rate_pairs"])
    if "r1" in config or "r2" in config:
        r1s = _float_list(config, "r1", (0.25,))
        r2s = _float_list(config, "r2", (0.25,))
        return [(a, b) for a in r1s for b in r2s]
    return [(0.25, 0.25), (0.75, 0.75)]


def _sweep_packing(instance, config, params) -> list:
    d = instance.decomposition
    pairs = _packing_pairs(config)
    rows = []
    for seed in _row_seeds(config, params, pairs):
        for r1, r2 in pairs:
            t0 = time.perf_counter()
            norm = packing_norm_trial(d.povm_A, d.povm_B, instance.p_uv,
                                      params.n, r1, r2, params.delta, seed)
            ms = (time.perf_counter() - t0) * 1000.0
            rows.append({"n": params.n, "Rt1": r1, "Rt2": r2,
                         "delta": params.delta, "seed": seed,
                         "packing_norm": norm, "runtime_ms": ms})
    return rows


def _sweep_collision(instance, config, params) -> list:
    bin_rates = _float_pairs("bin_rates", config.get("bin_rates", [[params.R1, params.R2]]))
    rows = []
    for seed in _row_seeds(config, params, bin_rates):
        for r1, r2 in bin_rates:
            trial = replace(params, R1=r1, R2=r2, seed=seed)
            t0 = time.perf_counter()
            rate = binning_collision_rate(trial, instance.p_uv)
            ms = (time.perf_counter() - t0) * 1000.0
            rows.append({"n": trial.n, "Rt1": trial.Rt1, "Rt2": trial.Rt2,
                         "R1": trial.R1, "R2": trial.R2, "N1": trial.N1,
                         "N2": trial.N2, "eta": trial.eta,
                         "delta": trial.delta, "seed": seed,
                         "collision_rate": rate, "runtime_ms": ms})
    return rows


def _sweep_soft_covering(instance, config, params, args) -> list:
    rate_sums = _float_list(config, "rate_sums", (1.0,))
    delta = args.delta if args.delta is not None else serialize.json_number(
        "delta", config.get("delta", 0.2))
    eta = args.eta if args.eta is not None else serialize.json_number(
        "eta", config.get("eta", 0.1))
    rows = []
    for seed in _row_seeds(config, params, rate_sums):
        for rate_sum in rate_sums:
            t0 = time.perf_counter()
            err = soft_covering_trial(instance.ensemble, params.n, rate_sum,
                                      seed, delta=delta, eta=eta)
            ms = (time.perf_counter() - t0) * 1000.0
            rows.append({"n": params.n, "Rt1": rate_sum, "eta": eta,
                         "delta": delta, "seed": seed, "G": err,
                         "runtime_ms": ms})
    return rows


def cmd_sweep(instance, config, args, kind=None) -> str:
    kind = kind or config.get("kind", "packing")
    params = _params_for(instance, config, args)
    if kind == "packing":
        rows = _sweep_packing(instance, config, params)
    elif kind == "collision":
        rows = _sweep_collision(instance, config, params)
    elif kind == "soft-covering":
        rows = _sweep_soft_covering(instance, config, params, args)
    else:
        raise InvariantError(f"unknown sweep kind {kind!r}")
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
        sub_a = serialize.povm_from_json(config["approx_A"])
        sub_b = serialize.povm_from_json(config["approx_B"])
    else:
        shrink = serialize.json_number("shrink", config.get("shrink", 0.1))
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
    for key in ("command", "output"):
        if key in config:
            _typed(key, config[key], str)
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
