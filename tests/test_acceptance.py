"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines even when
everything passes; each criterion also enforces its wall-clock budget.
"""

import dataclasses
import json
import time
from fractions import Fraction

import numpy as np

from conftest import random_density, random_povm, random_sub_povm
from oracles import (
    bounds_of,
    packing_union_proxy,
    separate_check,
    verify_purification_identity,
)
from povmsim import cli, fixtures
from povmsim.operators import DensityOperator, holevo_information
from povmsim.protocol import (
    faithfulness_trial,
    mutual_covering_check,
    packing_norm_trial,
    soft_covering_trial,
)
from povmsim.regions import (
    fourier_motzkin,
    intermediate_system,
    region_for,
    single_letter_system,
)

PUV_DIAG = np.array([[0.5, 0.0], [0.0, 0.5]])


def _report(num, ok, detail, t0, budget):
    elapsed = time.monotonic() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num}] {status} ({elapsed:.2f}s / {budget:.0f}s) {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_four_outcome_region_values():
    t0 = time.monotonic()
    inst = fixtures.load_fixture("example1")
    rep = region_for(inst.state, inst.decomposition)
    s = rep.sources
    checks = [
        abs(s["I(U;RB)"] - 1.0) < 1e-6,
        abs(s["I(V;RA)"] - 1.0) < 1e-6,
        abs(s["S(U,V)"] - 3.5) < 1e-6,
        abs(s["I(U;V)"] - 0.5) < 1e-6,
    ]
    want = {"rate1": 0.5, "rate2": 0.5, "rate3": 1.5,
            "rate1c": 1.5, "rate2c": 1.5, "rate4": 3.5}
    bounds = bounds_of(rep)
    checks += [abs(bounds[label] - rhs) < 1e-6 for label, rhs in want.items()]
    _report(1, all(checks), "entropic sources and six region bounds", t0, 1.0)


def test_criterion_2_purification_identity_bulk():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, (2,))
        m = random_povm(rng, 2, 3)
        mt = random_sub_povm(rng, m)
        lhs, rhs = verify_purification_identity(rho, m, mt)
        worst = max(worst, abs(lhs - rhs))
    _report(2, worst < 1e-9, f"200 random qubit identities, worst gap {worst:.2e}",
            t0, 10.0)


def test_criterion_3_exact_elimination():
    t0 = time.monotonic()
    tup = (1, 1, Fraction(1, 2), 2, 2)
    projected = fourier_motzkin(intermediate_system(*tup),
                                ("Rt1", "Rt2", "C1", "C2"))
    target = single_letter_system(*tup)
    exact = all(type(c) is int for ints, _, _ in projected.rows for c in ints)
    ok = projected.same_region(target) and exact
    _report(3, ok, "projected system equals the single-letter region exactly",
            t0, 1.0)


def test_criterion_4_mutual_covering_subadditivity_bulk():
    t0 = time.monotonic()
    worst = -1.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, (2, 2))
        ta = random_povm(rng, 2, 3)
        tb = random_povm(rng, 2, 2)
        f_a, f_b, f_joint = mutual_covering_check(
            rho, random_sub_povm(rng, ta), random_sub_povm(rng, tb), ta, tb)
        worst = max(worst, f_joint - (f_a + f_b))
    _report(4, worst <= 1e-9, f"100 instances, worst subadditivity slack {worst:.2e}",
            t0, 30.0)


def test_criterion_5_separate_reduction_bulk():
    # equality under a complete side-B POVM holds on product states, where
    # every term factorizes; correlated states can sit strictly below
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        rho_a = random_density(rng, (2,))
        rho_b = random_density(rng, (2,))
        rho = DensityOperator(np.kron(rho_a.mat, rho_b.mat), (2, 2))
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs, rhs = separate_check(rho, a + a.conj().T, random_povm(rng, 2, 3))
        worst = max(worst, abs(lhs - rhs))
    _report(5, worst < 1e-9, f"100 complete-side reductions, worst gap {worst:.2e}",
            t0, 30.0)


def test_criterion_6_packing_threshold():
    t0 = time.monotonic()
    comp = fixtures.computational_povm()
    low, high = [], []
    for seed in range(50):
        low.append(packing_norm_trial(comp, comp, PUV_DIAG, 8, 0.25, 0.25, 0.3, seed))
        high.append(packing_norm_trial(comp, comp, PUV_DIAG, 8, 0.75, 0.75, 0.3, seed))
    med_lo, med_hi = float(np.median(low)), float(np.median(high))
    proxy = packing_union_proxy(PUV_DIAG, 8, 0.25, 0.25, 0.3)
    ok = med_lo < med_hi and med_lo < proxy
    _report(6, ok, f"medians {med_lo:.4f} < {med_hi:.4f}, proxy {proxy:.4f}",
            t0, 120.0)


def test_criterion_7_soft_covering_threshold():
    t0 = time.monotonic()
    ens = fixtures.soft_covering_ensemble()
    chi = holevo_information(ens)
    lo = [soft_covering_trial(ens, 6, chi - 0.4, s, delta=0.8, eta=0.05)
          for s in range(30)]
    hi = [soft_covering_trial(ens, 6, chi + 0.6, s, delta=0.8, eta=0.05)
          for s in range(30)]
    med_lo, med_hi = float(np.median(lo)), float(np.median(hi))
    ok = 2.0 * med_hi <= med_lo
    _report(7, ok, f"chi {chi:.4f}: medians below {med_lo:.4f}, above {med_hi:.4f}",
            t0, 120.0)


def test_criterion_8_faithfulness_trend_and_resummation():
    t0 = time.monotonic()
    inst = fixtures.load_fixture("binary-correlated")
    medians = []
    worst_resum = 0.0
    for n in (2, 3, 4, 5):
        gs = []
        for seed in range(20):
            p = dataclasses.replace(inst.params, n=n, seed=seed)
            r = faithfulness_trial(p, inst.state, inst.decomposition)
            gs.append(r.faithfulness_G)
            worst_resum = max(worst_resum, r.resummation_error)
        medians.append(float(np.median(gs)))
    trend = all(b <= a + 1e-12 for a, b in zip(medians, medians[1:]))
    ok = trend and worst_resum <= 1e-10
    _report(8, ok, f"median G {['%.4f' % m for m in medians]}, "
                   f"worst resummation {worst_resum:.2e}", t0, 300.0)


def test_criterion_9_simulate_reruns_byte_identical(tmp_path, capsys):
    t0 = time.monotonic()
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"input": "binary-correlated",
                               "seeds": [0, 1, 2], "ns": [2, 3]}),
                   encoding="utf-8")
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    rc1 = cli.main(["--command", "simulate", "--input", str(cfg),
                    "--output", str(out1)])
    rc2 = cli.main(["--command", "simulate", "--input", str(cfg),
                    "--output", str(out2)])
    capsys.readouterr()
    ok = rc1 == 0 and rc2 == 0 and out1.read_bytes() == out2.read_bytes()
    _report(9, ok, "six-row delimited output reruns byte-identical", t0, 120.0)
