"""Exact rate-region algebra and entropic region builders."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    bounds_of,
    fourier_motzkin_fractions,
    p2p_stochastic_region,
    satisfies,
    winter_region,
)
from povmsim import fixtures
from povmsim.errors import InvariantError
from povmsim.measurement import auxiliary_states, stochastic_sigma3
from povmsim.operators import DensityOperator, Povm
from povmsim.regions import (
    GE,
    GT,
    QUANT_STEP,
    InequalitySystem,
    RateTriple,
    dist_stochastic_region,
    fourier_motzkin,
    intermediate_system,
    membership,
    rd_inner_bound,
    region_for,
    single_letter_system,
)


# ---------------------------------------------------------------------------
# fourier-motzkin elimination
# ---------------------------------------------------------------------------

def test_fm_known_projection():
    # x >= 1, y >= 2, x + y >= 5, y <= 4  --(drop y)-->  x >= 1
    sys = InequalitySystem.from_rows(("x", "y"), [
        ((1, 0), GE, 1),
        ((0, 1), GE, 2),
        ((1, 1), GE, 5),
        ((0, -1), GE, -4),
    ])
    got = fourier_motzkin(sys, ("y",))
    want = InequalitySystem.from_rows(("x",), [((1,), GE, 1)])
    assert got.same_region(want)


def test_fm_propagates_strictness():
    # x - y >= 0 combined with y > 2 forces x > 2
    sys = InequalitySystem.from_rows(("x", "y"), [
        ((1, -1), GE, 0),
        ((0, 1), GT, 2),
    ])
    got = fourier_motzkin(sys, ("y",))
    rows = {(r.coeffs, r.relation, r.rhs) for r in got.inequalities if not r.vacuous()}
    assert ((Fraction(1),), GT, Fraction(2)) in rows


def test_fm_unknown_variable_raises():
    sys = InequalitySystem.from_rows(("x",), [((1,), GE, 0)])
    with pytest.raises(InvariantError):
        fourier_motzkin(sys, ("z",))


def _random_system(rng):
    """3-5 variables, small integer coefficients, rhs on the QUANT_STEP grid,
    mixed relations, and sometimes an opposing pair of rows and vacuous or
    infeasible zero rows."""
    nvars = int(rng.integers(3, 6))
    rows = []
    for _ in range(int(rng.integers(2, 10))):
        coeffs = tuple(int(c) for c in rng.integers(-3, 4, nvars))
        rhs = int(rng.integers(-6, 7)) * int(rng.integers(1, 10 ** 6)) * QUANT_STEP
        rows.append((coeffs, GT if rng.random() < 0.3 else GE, rhs))
    if rng.random() < 0.3:  # an opposing row, so combinations can give 0 >= 0 or 0 > 0
        coeffs, _, rhs = rows[int(rng.integers(0, len(rows)))]
        rows.append((tuple(-c for c in coeffs), GE, -rhs))
    zero = (0,) * nvars
    for row, chance in (((zero, GE, 0), 0.3), ((zero, GE, -1), 0.2),
                        ((zero, GT, -1), 0.2), ((zero, GE, 1), 0.15)):
        if rng.random() < chance:
            rows.insert(int(rng.integers(0, len(rows) + 1)), row)
    return InequalitySystem.from_rows(tuple(f"x{i}" for i in range(nvars)), rows)


def test_fm_matches_fraction_oracle_on_random_systems():
    # integer rows with bit-mask ancestors against the Fraction elimination:
    # Inequality equality covers rows, relations, rhs and ancestor sets, and
    # system equality their order
    rng = np.random.default_rng(17)
    for _ in range(200):
        sys = _random_system(rng)
        k = int(rng.integers(1, len(sys.variables) + 1))
        elim = tuple(str(v) for v in rng.permutation(sys.variables)[:k])
        got = fourier_motzkin(sys, elim)
        want = fourier_motzkin_fractions(sys, elim)
        assert got == want, (sys, elim)


def test_satisfies_exact():
    sys = InequalitySystem.from_rows(("x", "y"), [((1, 1), GE, 1), ((1, 0), GT, 0)])
    assert satisfies(sys, {"x": Fraction(1, 2), "y": Fraction(1, 2)})
    assert not satisfies(sys, {"x": 0, "y": 1})


@pytest.mark.parametrize("tup", [
    (1, 1, Fraction(1, 2), 2, 2),   # four-outcome fixture quantities
    (1, 1, 1, 1, 1),                # binary-correlated fixture quantities
])
def test_fm_elimination_reaches_single_letter_region(tup):
    inter = intermediate_system(*tup)
    got = fourier_motzkin(inter, ("Rt1", "Rt2", "C1", "C2"))
    assert got.variables == ("R1", "R2", "C")
    assert got.same_region(single_letter_system(*tup))


# ---------------------------------------------------------------------------
# region reports
# ---------------------------------------------------------------------------

def test_winter_region_uniform_qubit():
    rho = DensityOperator(np.eye(2) / 2, (2,))
    m = Povm(("0", "1"), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    b = bounds_of(winter_region(rho, m))
    assert abs(b["winter1"] - 1.0) < 1e-9
    assert abs(b["winter2"] - 1.0) < 1e-9


def test_p2p_stochastic_identity_relabel():
    rho = DensityOperator(np.eye(2) / 2, (2,))
    m = Povm(("0", "1"), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    rows = {"0": (1.0, 0.0), "1": (0.0, 1.0)}
    rep = p2p_stochastic_region(rho, m, ("0", "1"), rows, target=m)
    assert rep.variables == ("R", "C")
    b = bounds_of(rep)
    assert abs(b["p2p1"] - 1.0) < 1e-9
    assert abs(b["p2p2"] - 1.0) < 1e-9


def test_p2p_stochastic_bad_relabel_raises():
    rho = DensityOperator(np.eye(2) / 2, (2,))
    m = Povm(("0", "1"), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    rows = {"0": (0.5, 0.5), "1": (0.5, 0.5)}
    with pytest.raises(InvariantError):
        p2p_stochastic_region(rho, m, ("0", "1"), rows, target=m)


def test_example1_deterministic_region_values():
    inst = fixtures.load_fixture("example1")
    rep = region_for(inst.state, inst.decomposition)
    want = {"rate1": 0.5, "rate2": 0.5, "rate3": 1.5,
            "rate1c": 1.5, "rate2c": 1.5, "rate4": 3.5}
    bounds = bounds_of(rep)
    assert set(bounds) == set(want)
    for label, rhs in want.items():
        assert abs(bounds[label] - rhs) < 1e-6


def test_stochastic_region_labels():
    # example1's deterministic decomposition in the Z-register form
    inst = fixtures.load_fixture("example1")
    d = inst.decomposition
    sigma1, sigma2, sigma3 = auxiliary_states(inst.state, d)
    rep = dist_stochastic_region(sigma1, sigma2, stochastic_sigma3(sigma3, d))
    labels = set(bounds_of(rep))
    assert {"nfrate1", "nfrate2", "nfrate3", "nfrate4"} <= labels
    assert "I(U;RZV)" in rep.sources


def test_membership_slacks():
    inst = fixtures.load_fixture("example1")
    rep = region_for(inst.state, inst.decomposition)
    ok, slacks = membership(RateTriple(1.5, 1.5, 2.0), rep)
    assert ok
    assert all(s >= -1e-9 for s in slacks.values())
    ok, slacks = membership({"R1": 0.4, "R2": 1.5, "C": 2.0}, rep)
    assert not ok
    assert slacks["rate1"] < 0


def test_membership_missing_variable_raises():
    inst = fixtures.load_fixture("example1")
    rep = region_for(inst.state, inst.decomposition)
    with pytest.raises(InvariantError):
        membership({"R1": 1.0, "R2": 1.0}, rep)


# ---------------------------------------------------------------------------
# rate-distortion surface
# ---------------------------------------------------------------------------

def test_rd_inner_bound_fixture_values():
    inst = fixtures.load_fixture("binary-correlated")
    pairs, p_q, recon, dobs = inst.rd_arguments()
    rep = rd_inner_bound(inst.state, pairs, p_q, recon, dobs)
    b = bounds_of(rep)
    assert abs(b["rdrate1"] - 0.0) < 1e-9
    assert abs(b["rdrate2"] - 0.0) < 1e-9
    assert abs(b["rdrate3"] - 1.0) < 1e-9
    assert abs(b["rddist"] - 0.5) < 1e-9


def test_rd_inner_bound_validates_weights():
    inst = fixtures.load_fixture("binary-correlated")
    pairs, _, recon, dobs = inst.rd_arguments()
    with pytest.raises(InvariantError):
        rd_inner_bound(inst.state, pairs, {0: 0.7}, recon, dobs)
    # a time-sharing symbol without a weight is refused, not left to a KeyError
    with pytest.raises(InvariantError, match="no time-sharing weight"):
        rd_inner_bound(inst.state, pairs, {1: 1.0}, recon, dobs)
