"""Exact rate-region algebra and entropic region builders."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import commuting_instance, random_density, random_povm
from oracles import (
    blockwise_auxiliary_states,
    bounds_of,
    classical_region_sources,
    fourier_motzkin_fractions,
    fraction_rows,
    p2p_stochastic_region,
    rd_distortion_by_blocks,
    satisfies,
    winter_region,
)
from povmsim import fixtures
from povmsim.errors import InvariantError
from povmsim.measurement import CqState, auxiliary_states, stochastic_sigma3
from povmsim.operators import DensityOperator, Povm
from povmsim.regions import (
    GE,
    GT,
    QUANT_STEP,
    InequalitySystem,
    RateTriple,
    _merge_with_q,
    dist_deterministic_region,
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
    assert ((1, 2), True) in {(ints, strict) for ints, strict, _ in got.rows}


def test_fm_unknown_variable_raises():
    sys = InequalitySystem.from_rows(("x",), [((1,), GE, 0)])
    with pytest.raises(InvariantError):
        fourier_motzkin(sys, ("z",))


def test_from_rows_refuses_bad_relation_and_arity():
    with pytest.raises(InvariantError, match="relation must be"):
        InequalitySystem.from_rows(("x",), [((1,), "<=", 0)])
    with pytest.raises(InvariantError, match="coefficient vector length mismatch"):
        InequalitySystem.from_rows(("x",), [((1, 0), GE, 0)])


def _random_system(rng):
    """Variables and (coeffs, relation, rhs) rows of a random system: 3-5
    variables, small integer coefficients, rhs on the QUANT_STEP grid, mixed
    relations, and sometimes an opposing pair of rows and vacuous or
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
    return tuple(f"x{i}" for i in range(nvars)), rows


def test_fm_matches_fraction_oracle_on_random_systems():
    # integer rows with bit-mask ancestors against the Fraction elimination:
    # FractionRow equality covers rows, relations, rhs and ancestor sets, and
    # list equality their order
    rng = np.random.default_rng(17)
    for _ in range(200):
        variables, rows = _random_system(rng)
        k = int(rng.integers(1, len(variables) + 1))
        elim = tuple(str(v) for v in rng.permutation(variables)[:k])
        got = fourier_motzkin(InequalitySystem.from_rows(variables, rows), elim)
        want = fourier_motzkin_fractions(variables, rows, elim)
        assert (got.variables, fraction_rows(got)) == want, (variables, rows, elim)


def test_fm_chained_calls_keep_rows_a_stale_cutoff_would_drop():
    # x - z >= 0, -x + y >= 0, -y >= -1: dropping x, then y in a second call,
    # must still give z <= 1, which takes all three rows
    sys = InequalitySystem.from_rows(("x", "y", "z"), [
        ((1, 0, -1), GE, 0),
        ((-1, 1, 0), GE, 0),
        ((0, -1, 0), GE, -1),
    ])
    want = InequalitySystem.from_rows(("z",), [((-1,), GE, -1)])
    assert fourier_motzkin(fourier_motzkin(sys, ("x",)), ("y",)).same_region(want)
    assert fourier_motzkin(sys, ("x", "y")).same_region(want)


def _implied(system, ints, strict) -> bool:
    """Whether every point of the system satisfies the row (ints, strict):
    the system with the row's negation added is infeasible, so eliminating
    every variable leaves a contradiction."""
    rows = [(r[:-1], GT if s else GE, r[-1]) for r, s, _ in system.rows]
    rows.append((tuple(-c for c in ints[:-1]), GE if strict else GT, -ints[-1]))
    negated = InequalitySystem.from_rows(system.variables, rows)
    return bool(fourier_motzkin(negated, system.variables).rows)


def test_fm_chained_calls_match_one_call_on_random_systems():
    # the second call numbers ancestors from the first projection's rows, as
    # the Fraction oracle run on those rows does; its rows can differ from
    # one call's by redundant ones, so the sets are compared by implication
    rng = np.random.default_rng(23)
    for _ in range(40):
        variables, rows = _random_system(rng)
        k = int(rng.integers(2, len(variables) + 1))
        elim = tuple(str(v) for v in rng.permutation(variables)[:k])
        sys = InequalitySystem.from_rows(variables, rows)
        first = fourier_motzkin(sys, elim[:1])
        chained = fourier_motzkin(first, elim[1:])
        want = fourier_motzkin_fractions(
            first.variables, [(r.coeffs, r.relation, r.rhs) for r in fraction_rows(first)],
            elim[1:])
        assert (chained.variables, fraction_rows(chained)) == want, (variables, rows, elim)
        once = fourier_motzkin(sys, elim)
        assert all(_implied(once, *row[:2]) for row in chained.rows), (variables, rows, elim)
        assert all(_implied(chained, *row[:2]) for row in once.rows), (variables, rows, elim)


def _direction(coeffs):
    g = math.gcd(*coeffs)
    return tuple(c // g for c in coeffs), g


def test_same_region_against_exact_comparison():
    # the second system of a pair holds the first one's rows, each scaled by a
    # positive rational, with weaker parallel copies and vacuous rows added,
    # shuffled; raising a strongest row of a direction by one QUANT_STEP, or
    # making it strict, gives a different region
    rng = np.random.default_rng(29)
    for _ in range(100):
        nvars = int(rng.integers(2, 5))
        variables = tuple(f"x{i}" for i in range(nvars))
        rows = []
        while len(rows) < int(rng.integers(2, 9)):
            coeffs = tuple(int(c) for c in rng.integers(-3, 4, nvars))
            if any(coeffs):
                rhs = int(rng.integers(-6, 7)) * int(rng.integers(1, 10 ** 6)) * QUANT_STEP
                rows.append((coeffs, GT if rng.random() < 0.3 else GE, rhs))
        other = []
        for coeffs, rel, rhs in rows:
            k = Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 20)))
            other.append((tuple(k * c for c in coeffs), rel, k * rhs))
            if rng.random() < 0.5:
                lower = int(rng.integers(0, 4))
                weak_rel = GE if lower == 0 else (GT if rng.random() < 0.5 else GE)
                other.append((tuple(2 * k * c for c in coeffs), weak_rel,
                              2 * k * (rhs - lower * QUANT_STEP)))
        zero = (0,) * nvars
        other += [(zero, GE, 0), (zero, GE, -QUANT_STEP), (zero, GT, -1)]
        other = [other[i] for i in rng.permutation(len(other))]
        base = InequalitySystem.from_rows(variables, rows)
        copy = InequalitySystem.from_rows(variables, other)
        assert base.same_region(copy) and copy.same_region(base)

        def rank(i):
            coeffs, rel, rhs = rows[i]
            return rhs / _direction(coeffs)[1], rel == GT
        pick = _direction(rows[int(rng.integers(0, len(rows)))][0])[0]
        top = max((i for i in range(len(rows)) if _direction(rows[i][0])[0] == pick), key=rank)
        coeffs, rel, rhs = rows[top]
        raised = rows[:top] + [(coeffs, rel, rhs + QUANT_STEP)] + rows[top + 1:]
        assert not InequalitySystem.from_rows(variables, raised).same_region(copy)
        if rel == GE:
            strict = rows[:top] + [(coeffs, GT, rhs)] + rows[top + 1:]
            assert not InequalitySystem.from_rows(variables, strict).same_region(copy)


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


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_fm_check_on_generated_instances(dims):
    # fm-check's projection on random states read by random 2-3 outcome
    # POVMs under the identity pairing: equal to the single-letter region,
    # and to the Fraction elimination row for row
    elim = ("Rt1", "Rt2", "C1", "C2")
    for seed in range(10):
        rng = np.random.default_rng([seed, *dims])
        state = random_density(rng, dims)
        povm_A = random_povm(rng, dims[0], int(rng.integers(2, 4)))
        povm_B = random_povm(rng, dims[1], int(rng.integers(2, 4)))
        s = dist_deterministic_region(*auxiliary_states(state, povm_A, povm_B)).sources
        tup = (s["I(U;RB)"], s["I(V;RA)"], s["I(U;V)"], s["S(U)"], s["S(V)"])
        inter = intermediate_system(*tup)
        got = fourier_motzkin(inter, elim)
        assert got.same_region(single_letter_system(*tup)), (dims, seed)
        want = fourier_motzkin_fractions(
            inter.variables, [(r.coeffs, r.relation, r.rhs) for r in fraction_rows(inter)], elim)
        assert (got.variables, fraction_rows(got)) == want, (dims, seed)


def test_fm_elimination_of_classical_constants_reaches_single_letter_region():
    # fm-check's deterministic-integration constants of commuting instances,
    # computed without the package's states, project onto the single-letter
    # region they define
    for seed in range(8):
        p, lam, mu, _ = commuting_instance(seed)[0]
        s = classical_region_sources(p, lam, mu)
        tup = (s["I(U;RB)"], s["I(V;RA)"], s["I(U;V)"], s["S(U)"], s["S(V)"])
        got = fourier_motzkin(intermediate_system(*tup), ("Rt1", "Rt2", "C1", "C2"))
        assert got.same_region(single_letter_system(*tup)), seed


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
    sigma1, sigma2, sigma3 = auxiliary_states(inst.state, d.povm_A, d.povm_B)
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


def test_region_sources_match_classical_reduction():
    # commuting instances (rank-deficient, stochastic and locally rotated
    # ones among them) reduce every source to a Shannon quantity of one
    # classical law; the oracle reads only that law
    for seed in range(200):
        arrays, state, d = commuting_instance(seed)
        got = region_for(state, d).sources
        want = classical_region_sources(*arrays)
        assert got.keys() == want.keys(), seed
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-12, (seed, key, got[key], value)


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
    # the one contraction is bit-equal to the per-block route here
    assert b["rddist"] == rd_distortion_by_blocks(inst.state, pairs, p_q, recon, dobs)


def test_rd_distortion_matches_block_oracle_on_random_instances():
    # qubit-qubit states, two time-sharing symbols, random reconstruction
    # states and a random PSD observable on reference x reconstruction
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, (2, 2))
        pairs = {q: (random_povm(rng, 2, 2), random_povm(rng, 2, 2)) for q in (0, 1)}
        p_q = {0: 0.25, 1: 0.75}
        recon = {(u, v, q): random_density(rng, (2,)) for q, (ma, mb) in pairs.items()
                 for u in ma.outcomes for v in mb.outcomes}
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        delta = g @ g.conj().T
        got = bounds_of(rd_inner_bound(rho, pairs, p_q, recon, delta))["rddist"]
        want = rd_distortion_by_blocks(rho, pairs, p_q, recon, delta)
        assert abs(got - want) <= 1e-14 * abs(want), seed


def test_rd_rate_rows_are_time_sharing_averages():
    # Q is classical, so I(U;RB|Q) = sum_q p(q) I(U;RB)_q, and likewise for
    # I(V;RA|Q) and I(U;V|Q); the per-symbol terms come block by block
    for seed in range(20):
        dims = ((2, 2), (2, 3), (3, 2))[seed % 3]
        rng = np.random.default_rng(seed)
        rho = random_density(rng, dims)
        pairs = {q: (random_povm(rng, dims[0], int(rng.integers(2, 4))),
                     random_povm(rng, dims[1], int(rng.integers(2, 4)))) for q in (0, 1)}
        w = float(rng.uniform(0.1, 0.9))
        p_q = {0: w, 1: 1.0 - w}
        recon = {(u, v, q): random_density(rng, (2,)) for q, (ma, mb) in pairs.items()
                 for u in ma.outcomes for v in mb.outcomes}
        got = bounds_of(rd_inner_bound(rho, pairs, p_q, recon, np.eye(2 * rho.dim)))
        i1 = i2 = iuv = 0.0
        for q, (ma, mb) in pairs.items():
            s1, s2, s3 = blockwise_auxiliary_states(rho, ma, mb)
            i1 += p_q[q] * s1.mutual_information(("U",), ("R", "B"))
            i2 += p_q[q] * s2.mutual_information(("V",), ("R", "A"))
            iuv += p_q[q] * s3.mutual_information(("U",), ("V",))
        assert abs(got["rdrate1"] - (i1 - iuv)) <= 1e-12, seed
        assert abs(got["rdrate2"] - (i2 - iuv)) <= 1e-12, seed
        assert abs(got["rdrate3"] - (i1 + i2 - iuv)) <= 1e-12, seed


def test_merged_states_pass_the_public_checks():
    # the time-sharing merge builds its states unchecked; the public
    # constructor, with every check, accepts each of them at its own tol and
    # stacks the same blocks bit for bit
    rng = np.random.default_rng(41)
    rho = random_density(rng, (2, 3))
    pairs = {q: (random_povm(rng, 2, int(rng.integers(2, 4))),
                 random_povm(rng, 3, int(rng.integers(2, 4)))) for q in (0, 1)}
    sigmas = {q: auxiliary_states(rho, ma, mb) for q, (ma, mb) in pairs.items()}
    for slot in range(3):
        merged = _merge_with_q({q: s[slot] for q, s in sigmas.items()}, {0: 0.375, 1: 0.625})
        checked = CqState(merged.cregisters, merged.qregisters, merged.qdims, merged.blocks,
                          merged.tol)
        assert list(checked.blocks) == list(merged.blocks)
        assert len(merged.blocks) == sum(len(s[slot].blocks) for s in sigmas.values())
        assert checked.stack.tobytes() == merged.stack.tobytes()


@pytest.mark.parametrize("weights,message", [
    ((1.0, math.nan), r"time-sharing weights must be finite, got \[1\.0, nan\]"),
    ((1.0, math.inf), r"time-sharing weights must be finite, got \[1\.0, inf\]"),
    ((1.0, -math.inf), r"time-sharing weights must be finite, got \[1\.0, -inf\]"),
    ((1.5, -0.5), r"time-sharing weights must be at least -1e-09, got \[1\.5, -0\.5\]"),
], ids=["nan", "inf", "-inf", "negative"])
def test_rd_inner_bound_refuses_bad_weight(weights, message):
    # binary-correlated's pair as symbols 0 and 1; a NaN weight passes the
    # sum check (it compares false), so each bad weight is refused by name
    inst = fixtures.load_fixture("binary-correlated")
    pairs, _, recon, dobs = inst.rd_arguments()
    pairs = {0: pairs[0], 1: pairs[0]}
    recon = {**recon, **{(u, v, 1): st for (u, v, _), st in recon.items()}}
    with pytest.raises(InvariantError, match=message):
        rd_inner_bound(inst.state, pairs, dict(enumerate(weights)), recon, dobs)


def test_rd_inner_bound_validates_weights():
    inst = fixtures.load_fixture("binary-correlated")
    pairs, _, recon, dobs = inst.rd_arguments()
    with pytest.raises(InvariantError):
        rd_inner_bound(inst.state, pairs, {0: 0.7}, recon, dobs)
    # a time-sharing symbol without a weight is refused, not left to a KeyError
    with pytest.raises(InvariantError, match="no time-sharing weight"):
        rd_inner_bound(inst.state, pairs, {1: 1.0}, recon, dobs)


def test_rd_inner_bound_refuses_weight_without_pair():
    # a weight on a symbol with no POVM pair was left out of the sum unread,
    # and the one-symbol bound came back
    inst = fixtures.load_fixture("binary-correlated")
    pairs, _, recon, dobs = inst.rd_arguments()
    with pytest.raises(InvariantError, match=r"time-sharing weight for \[7\] has no POVM pair"):
        rd_inner_bound(inst.state, pairs, {0: 1.0, 7: 0.4}, recon, dobs)
