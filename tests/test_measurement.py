"""Classical-quantum states, decompositions, and faithfulness distances."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_density, random_povm, random_sub_povm
from oracles import (
    apply_measurement,
    ensemble_weight,
    prob,
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
    return CqState(("X",), {"X": tuple(range(len(probs)))}, ("R",), {"R": 2}, blocks)


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
    red = cq.reduce(("R",))
    assert np.allclose(red.blocks[()], avg, atol=1e-12)


def test_cq_rejects_bad_total_mass():
    blocks = {(0,): 0.5 * np.eye(2) / 2, (1,): 0.4 * np.eye(2) / 2}
    with pytest.raises(InvariantError):
        CqState(("X",), {"X": (0, 1)}, ("R",), {"R": 2}, blocks)


def test_attach_classical_chain_rule():
    rng = np.random.default_rng(2)
    probs = (0.3, 0.7)
    states = tuple(random_density(rng, (2,)).mat for _ in probs)
    cq = _cq_from_ensemble(probs, states)
    # y copies x, so S(X, Y) = S(X) and I(X;Y) = S(X)
    cq2 = attach_classical(cq, "Y", (0, 1),
                           lambda key: np.eye(2)[key[0]])
    assert abs(cq2.mutual_information(("X",), ("Y",)) - shannon_entropy(probs)) < 1e-10


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
    sigma1, sigma2, sigma3 = auxiliary_states(inst.state, inst.decomposition)
    assert abs(sigma1.mutual_information(("U",), ("R", "B")) - 1.0) < 1e-9
    assert abs(sigma2.mutual_information(("V",), ("R", "A")) - 1.0) < 1e-9
    assert abs(sigma3.entropy(("U", "V")) - 3.5) < 1e-9


def test_stochastic_sigma3_consistent_with_deterministic():
    inst = fixtures.load_fixture("example1")
    _, _, sigma3 = auxiliary_states(inst.state, inst.decomposition)
    sigma3z = stochastic_sigma3(sigma3, inst.decomposition)
    red = sigma3z.reduce(("U", "V", "R"))
    for key in red.blocks:
        assert np.allclose(red.blocks[key], sigma3.blocks[key], atol=1e-10)
