"""Classical-quantum states, decompositions, and faithfulness distances."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (invariant_message, random_density, random_povm, random_sub_povm,
                      stochastic_binary, unequal_dims)
from oracles import (
    BlockwiseEntropies,
    apply_measurement,
    check_blocks_by_loop,
    ensemble_weight,
    measured_blocks_by_loop,
    prob,
    reduce_cq,
    shannon_entropy,
    verify_purification_identity,
)
from povmsim import fixtures
from povmsim.errors import InvariantError
from povmsim.measurement import (
    CqState,
    SeparableDecomposition,
    attach_classical,
    auxiliary_states,
    canonical_ensemble,
    compose_decomposition,
    deterministic_decomposition,
    faithfulness_distance,
    stochastic_sigma3,
)
from povmsim.operators import (
    DensityOperator,
    Povm,
    SubPovm,
    purify,
    von_neumann_entropy,
)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])


def _proj(v):
    return np.outer(v, v.conj())


def _cq_from_ensemble(probs, states):
    """One classical register X against one qubit register R."""
    blocks = {(i,): p * s for i, (p, s) in enumerate(zip(probs, states))}
    return CqState(("X",), ("R",), {"R": 2}, blocks)


# ---------------------------------------------------------------------------
# cq states
# ---------------------------------------------------------------------------

def test_cq_entropy_matches_mixing_formula():
    rng = np.random.default_rng(0)
    probs = (0.2, 0.5, 0.3)
    states = tuple(random_density(rng, (2,)).mat for _ in probs)
    cq = _cq_from_ensemble(probs, states)
    want = shannon_entropy(probs) + sum(
        p * von_neumann_entropy(s) for p, s in zip(probs, states))
    assert abs(cq.entropy(("X", "R")) - want) < 1e-10
    assert abs(cq.entropy(("X",)) - shannon_entropy(probs)) < 1e-10


def test_cq_reduce_to_quantum_is_average():
    rng = np.random.default_rng(1)
    probs = (0.4, 0.6)
    states = tuple(random_density(rng, (2,)).mat for _ in probs)
    cq = _cq_from_ensemble(probs, states)
    avg = sum(p * s for p, s in zip(probs, states))
    red = reduce_cq(cq, ("R",))
    assert np.allclose(red.blocks[()], avg, atol=1e-12)


def test_cq_rejects_bad_total_mass():
    blocks = {(0,): 0.5 * np.eye(2) / 2, (1,): 0.4 * np.eye(2) / 2}
    with pytest.raises(InvariantError):
        CqState(("X",), ("R",), {"R": 2}, blocks)


def test_cq_rejects_two_blocks_with_one_key():
    # a bare outcome and its 1-tuple name one block; the stack would hold
    # both while the dict kept one, so the pair is refused
    blocks = {0: 0.25 * np.eye(2), (0,): 0.25 * np.eye(2)}
    with pytest.raises(InvariantError, match="same tuple of outcomes"):
        CqState(("X",), ("R",), {"R": 2}, blocks)


def test_attach_classical_chain_rule():
    rng = np.random.default_rng(2)
    probs = (0.3, 0.7)
    states = tuple(random_density(rng, (2,)).mat for _ in probs)
    cq = _cq_from_ensemble(probs, states)
    # y copies x, so S(X, Y) = S(X) and I(X;Y) = S(X)
    cq2 = attach_classical(cq, "Y", (0, 1),
                           lambda key: np.eye(2)[key[0]])
    assert abs(cq2.mutual_information(("X",), ("Y",)) - shannon_entropy(probs)) < 1e-10


@pytest.mark.parametrize("row", [[1.0, 0.0], [0.5, 0.5]], ids=["unit", "split"])
def test_attach_classical_refuses_repeated_label(row):
    # ("a", "a") gave a 16-block state for the unit row, and the split row
    # was refused only as "block traces sum to 0.49999999999999983"; the
    # alphabet is refused by name before any kernel row is read
    inst = fixtures.load_fixture("example1")
    sigma3 = auxiliary_states(inst.state, inst.decomposition.povm_A,
                              inst.decomposition.povm_B)[2]
    read = []
    with pytest.raises(InvariantError,
                       match=re.escape("register 'Z' repeats an outcome label: ('a', 'a')")):
        attach_classical(sigma3, "Z", ("a", "a"), lambda key: read.append(key) or row)
    assert read == []


# ---------------------------------------------------------------------------
# measuring one half of a purification
# ---------------------------------------------------------------------------

def test_apply_measurement_outcome_probs():
    rng = np.random.default_rng(3)
    rho = random_density(rng, (2,))
    m = random_povm(rng, 2, 3)
    psi = purify(rho)
    cq = apply_measurement(psi, m, measured=1, clabel="U", qlabel="R")
    for u in m.outcomes:
        want = np.trace(m.op(u) @ rho.mat).real
        assert abs(prob(cq, (u,)) - want) < 1e-10


def test_apply_measurement_bell_gives_one_bit():
    rho = DensityOperator(np.eye(2) / 2, (2,))
    m = Povm(("0", "1"), (_proj(KET0), _proj(KET1)))
    cq = apply_measurement(purify(rho), m, measured=1, clabel="U", qlabel="R")
    assert abs(cq.mutual_information(("U",), ("R",)) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# separable decompositions
# ---------------------------------------------------------------------------

def test_deterministic_decomposition_composes_to_product():
    rng = np.random.default_rng(4)
    pa = random_povm(rng, 2, 2)
    pb = random_povm(rng, 2, 3)
    d = deterministic_decomposition(pa, pb)
    assert d.deterministic
    joint = compose_decomposition(d)
    for (u, v) in joint.outcomes:
        assert np.allclose(joint.op((u, v)), np.kron(pa.op(u), pb.op(v)), atol=1e-10)
    total = sum(joint.op(x) for x in joint.outcomes)
    assert np.allclose(total, np.eye(4), atol=1e-8)


def test_decomposition_row_validation():
    rng = np.random.default_rng(5)
    pa = random_povm(rng, 2, 2)
    pb = random_povm(rng, 2, 2)
    good = deterministic_decomposition(pa, pb)
    rows = dict(good.rows)
    rows.pop(next(iter(rows)))
    with pytest.raises(InvariantError):
        SeparableDecomposition(pa, pb, good.z_alphabet, rows)
    rows = {k: tuple(2 * x for x in v) for k, v in good.rows.items()}
    with pytest.raises(InvariantError):
        SeparableDecomposition(pa, pb, good.z_alphabet, rows)


def test_non_finite_kernel_row_refused():
    # a NaN entry passes a sign and a sum test; taken as a law it built a
    # four-block state whose Z entropy was about -3e-16
    inst = fixtures.load_fixture("binary-correlated")
    sigma3 = auxiliary_states(inst.state, inst.decomposition.povm_A,
                              inst.decomposition.povm_B)[2]
    with pytest.raises(InvariantError, match=r"^kernel row at \('0', '0'\) must be finite, "
                                             r"got \[nan, 1\.0\]"):
        attach_classical(sigma3, "Z", ("a", "b"), lambda key: [float("nan"), 1.0])


def test_stochastic_rows_flip_deterministic_flag():
    rng = np.random.default_rng(6)
    pa = random_povm(rng, 2, 2)
    pb = random_povm(rng, 2, 2)
    good = deterministic_decomposition(pa, pb)
    k = len(good.z_alphabet)
    rows = {key: tuple(1.0 / k for _ in range(k)) for key in good.rows}
    d = SeparableDecomposition(pa, pb, good.z_alphabet, rows)
    assert not d.deterministic


# ---------------------------------------------------------------------------
# canonical ensembles
# ---------------------------------------------------------------------------

def test_canonical_ensemble_weights_and_average():
    rng = np.random.default_rng(7)
    rho = random_density(rng, (2,))
    m = random_povm(rng, 2, 3)
    ens = canonical_ensemble(rho, m)
    for u in m.outcomes:
        want = np.trace(m.op(u) @ rho.mat).real
        assert abs(ensemble_weight(ens, u) - want) < 1e-10
    assert np.allclose(ens.average(), rho.mat, atol=1e-10)


def test_canonical_ensemble_drops_zero_probability_outcomes():
    rho = DensityOperator(_proj(KET0), (2,))
    m = Povm(("0", "1"), (_proj(KET0), _proj(KET1)))
    ens = canonical_ensemble(rho, m)
    assert "1" in ens.dropped
    assert ens.outcomes == ("0",)


# ---------------------------------------------------------------------------
# faithfulness distance
# ---------------------------------------------------------------------------

def test_faithfulness_distance_extremes():
    rng = np.random.default_rng(8)
    rho = random_density(rng, (2,))
    m = random_povm(rng, 2, 3)
    assert abs(faithfulness_distance(rho, m, m)) < 1e-10
    eps = 0.2
    scaled = SubPovm(m.outcomes, tuple((1 - eps) * op for op in m.operators))
    assert abs(faithfulness_distance(rho, m, scaled) - 2 * eps) < 1e-10
    zero = SubPovm(m.outcomes, tuple(0.0 * op for op in m.operators))
    assert abs(faithfulness_distance(rho, m, zero) - 2.0) < 1e-10


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_purification_identity_random_qubit(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, (2,))
    m = random_povm(rng, 2, 3)
    mt = random_sub_povm(rng, m)
    lhs, rhs = verify_purification_identity(rho, m, mt)
    assert abs(lhs - rhs) < 1e-10


def test_purification_identity_qutrit():
    rng = np.random.default_rng(9)
    rho = random_density(rng, (3,))
    m = random_povm(rng, 3, 4)
    mt = random_sub_povm(rng, m, floor=0.3)
    lhs, rhs = verify_purification_identity(rho, m, mt)
    assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------------------
# auxiliary states for the distributed setting
# ---------------------------------------------------------------------------

def test_auxiliary_states_example1_entropies():
    inst = fixtures.load_fixture("example1")
    d = inst.decomposition
    sigma1, sigma2, sigma3 = auxiliary_states(inst.state, d.povm_A, d.povm_B)
    assert abs(sigma1.mutual_information(("U",), ("R", "B")) - 1.0) < 1e-9
    assert abs(sigma2.mutual_information(("V",), ("R", "A")) - 1.0) < 1e-9
    assert abs(sigma3.entropy(("U", "V")) - 3.5) < 1e-9


def test_stochastic_sigma3_consistent_with_deterministic():
    inst = fixtures.load_fixture("example1")
    d = inst.decomposition
    _, _, sigma3 = auxiliary_states(inst.state, d.povm_A, d.povm_B)
    sigma3z = stochastic_sigma3(sigma3, inst.decomposition)
    red = reduce_cq(sigma3z, ("U", "V", "R"))
    for key in red.blocks:
        assert np.allclose(red.blocks[key], sigma3.blocks[key], atol=1e-10)


ANALYSIS_INSTANCES = (*fixtures.FIXTURE_NAMES, "stochastic", "qubit-qutrit", "qutrit-qubit",
                      "rank-one")


def _analysis_instance(name):
    """(state, decomposition): a fixture; binary-correlated with the
    stochastic rows of conftest.stochastic_binary; a conftest.unequal_dims
    instance; or example1's measurements on a random pure state."""
    if name == "stochastic":
        return fixtures.load_fixture("binary-correlated").state, stochastic_binary()
    if name in ("qubit-qutrit", "qutrit-qubit"):
        inst, d = unequal_dims((2, 3), 21) if name == "qubit-qutrit" else unequal_dims((3, 2), 22)
        return inst.state, d
    if name == "rank-one":
        rng = np.random.default_rng(31)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        return (DensityOperator(np.outer(v, v.conj()), (2, 2)),
                fixtures.load_fixture("example1").decomposition)
    inst = fixtures.load_fixture(name)
    return inst.state, inst.decomposition


@pytest.mark.parametrize("name", ANALYSIS_INSTANCES)
def test_stacked_blocks_match_per_pair_oracle(name):
    # the stacked pass builds every block bit for bit as the per-pair
    # tensor and partial trace did, in the same key order
    rho, d = _analysis_instance(name)
    sigmas = auxiliary_states(rho, d.povm_A, d.povm_B)
    for cq, povms in zip(sigmas, ((d.povm_A, None), (None, d.povm_B), (d.povm_A, d.povm_B))):
        want = measured_blocks_by_loop(rho, povms)
        assert list(cq.blocks) == list(want)
        assert all(np.array_equal(cq.blocks[key], blk) for key, blk in want.items())


@pytest.mark.parametrize("name", ANALYSIS_INSTANCES)
def test_entropy_matches_validated_marginal_oracle(name):
    # entropy reduces the block stack in one pass and takes one eigvalsh
    # over the reduced stack; the validated oracle marginal, reduced and
    # diagonalized block by block, gives bit-equal values on every register
    # subset
    rho, d = _analysis_instance(name)
    sigma1, sigma2, sigma3 = auxiliary_states(rho, d.povm_A, d.povm_B)
    for cq in (sigma1, sigma2, sigma3, stochastic_sigma3(sigma3, d)):
        oracle = BlockwiseEntropies(cq)
        regs = cq.registers()
        assert cq.entropy() == oracle.entropy()
        for k in range(len(regs) + 1):
            for subset in itertools.combinations(regs, k):
                assert cq.entropy(subset) == oracle.entropy(subset), (regs, subset)


@pytest.mark.parametrize("name", ANALYSIS_INSTANCES)
def test_derived_states_pass_the_public_checks(name):
    # auxiliary_states and attach_classical build their states unchecked;
    # the public constructor, with every check, accepts each of them at its
    # own tol and stacks the same blocks bit for bit
    rho, d = _analysis_instance(name)
    sigma1, sigma2, sigma3 = auxiliary_states(rho, d.povm_A, d.povm_B)
    for cq in (sigma1, sigma2, sigma3, stochastic_sigma3(sigma3, d)):
        checked = CqState(cq.cregisters, cq.qregisters, cq.qdims, cq.blocks, cq.tol)
        assert list(checked.blocks) == list(cq.blocks)
        assert checked.stack.dtype == cq.stack.dtype
        assert checked.stack.tobytes() == cq.stack.tobytes()


_PSD = np.diag([0.5, 0.0])
_BENT = np.diag([0.5, -0.1])
_NAN = np.array([[np.nan, 0.0], [0.0, 0.5]])
_TILT = np.array([[0.5, 0.3], [-0.3, 0.5]])
_HUGE = np.array([[0.5, 1e308], [1e308, 0.5]])


@pytest.mark.parametrize("block,check", [
    (_NAN, "has a non-finite entry"),
    (_TILT, "is not Hermitian within 1e-09"),
    (np.diag([0.5 + 0.4j, 0.5]), "is not Hermitian within 1e-09"),
], ids=["nan", "skew", "complex-diagonal"])
def test_cq_state_refuses_non_finite_or_skew_block(block, check):
    # the eigenvalue floor alone passed a NaN block (entropy 0.0) and read a
    # skew one by its Hermitian part (entropy 1.0)
    with pytest.raises(InvariantError, match=re.escape(f"block at ('0',) {check}")):
        CqState(("U",), ("R",), {"R": 2}, {("0",): block})


@pytest.mark.parametrize("blocks", [
    {("a",): _PSD, ("b",): _PSD},
    {("a",): _PSD, ("b",): _BENT, ("c",): _BENT},
    {("a",): _BENT, ("b",): np.eye(3)},
    {("a",): _PSD, ("b",): np.eye(3) / 3, ("c",): _BENT},
    {("a",): _BENT, ("b", "c"): _PSD},
    {("a", "b"): _PSD, ("b",): _BENT},
    {"a": _PSD, ("b",): 0.4 * np.eye(2)},
    {("a",): _PSD},
    {},
    {("a",): _PSD, ("b",): _NAN, ("c",): _BENT},
    {("a",): _BENT, ("b",): _NAN},
    {("a",): _PSD, ("b",): _TILT, ("c",): _BENT},
    {("a",): _HUGE, ("b",): _TILT},
], ids=["valid", "second-not-psd", "psd-before-shape", "shape-before-psd",
        "psd-before-key", "key-before-psd", "bare-key-trace", "short-trace", "empty",
        "nan-before-psd", "psd-before-nan", "skew-before-psd", "huge-not-psd"])
def test_stacked_block_checks_match_blockwise_oracle(blocks):
    # one eigvalsh over the stack reports the first failing block in key
    # order, and a malformed block stops the checks where the loop stopped
    args = (("X",), ("R",), {"R": 2}, blocks)
    want = invariant_message(check_blocks_by_loop, ("X",), ("R",), {"R": 2}, blocks)
    assert invariant_message(CqState, *args) == want
