"""Linear-algebra layer: traces, norms, purification, POVM containers; the
one rule for probability laws at every site that holds one; the package's
export list."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import povmsim

from conftest import invariant_message, random_density, random_povm
from oracles import (
    COMPLETION_OUTCOME,
    check_povm_by_loop,
    complete_sub_povm,
    entropy_of_block,
    power,
    quantum_mutual_information,
    shannon_entropy,
)
from povmsim import fixtures
from povmsim.errors import InvariantError
from povmsim.measurement import (SeparableDecomposition, attach_classical, auxiliary_states,
                                 outcome_distribution)
from povmsim.operators import (
    DEFAULT_TOL,
    DensityOperator,
    Ensemble,
    Povm,
    SubPovm,
    eigh_desc,
    hermitize,
    holevo_information,
    kron_pairs,
    kron_rows,
    matrix_sqrt_and_pinv_sqrt,
    operator_norm,
    partial_trace,
    probability_rows,
    purify,
    tensor,
    tensor_povm,
    trace_norm,
    von_neumann_entropy,
)
from povmsim.protocol import ProtocolParams, binning_collision_rate, packing_norm_trial
from povmsim.regions import rd_inner_bound
from povmsim.typicality import typical_pairs, typical_set

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
BELL = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2)


def _proj(v):
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# partial trace and permutation
# ---------------------------------------------------------------------------

def _einsum_keep_0_2(mat, dims):
    t = mat.reshape(dims + dims)
    return np.einsum("ijkljo->iklo", t).reshape(dims[0] * dims[2], dims[0] * dims[2])


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_partial_trace_matches_einsum(seed):
    rng = np.random.default_rng(seed)
    dims = (2, 3, 2)
    d = int(np.prod(dims))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    got = partial_trace(a, dims, keep=(0, 2))
    assert np.allclose(got, _einsum_keep_0_2(a, dims), atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(3)
    rho = random_density(rng, (2, 3))
    red = partial_trace(rho.mat, (2, 3), keep=(1,))
    assert abs(np.trace(red) - 1.0) < 1e-12


def test_partial_trace_of_product():
    rng = np.random.default_rng(4)
    a = random_density(rng, (2,)).mat
    b = random_density(rng, (3,)).mat
    red = partial_trace(np.kron(a, b), (2, 3), keep=(0,))
    assert np.allclose(red, a, atol=1e-12)


def test_partial_trace_keep_out_of_order_raises():
    # the kept subsystems stay in tensor order, so keep must ascend strictly
    rng = np.random.default_rng(5)
    a = random_density(rng, (2,)).mat
    b = random_density(rng, (3,)).mat
    for keep in ((1, 0), (0, 0)):
        with pytest.raises(InvariantError, match="strictly ascending"):
            partial_trace(np.kron(a, b), (2, 3), keep=keep)


@pytest.mark.parametrize("dims", [(2, 3, 2), (6, 2, 3), (6, 3, 2), (4, 2, 2)])
def test_partial_trace_of_stack_matches_each_block(dims):
    # the stack axis shifts every contraction's axes; each block must still
    # get the contractions it gets alone, bit for bit, on unequal dims too
    rng = np.random.default_rng(sum(dims))
    d = int(np.prod(dims))
    stack = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
    for keep in ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)):
        got = partial_trace(stack, dims, keep)
        assert got.shape[0] == 5
        for blk, red in zip(stack, got):
            assert np.array_equal(red, partial_trace(blk, dims, keep)), keep


def test_kron_pairs_equals_kron_of_each_pair():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    y = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    got = kron_pairs(x, y)
    want = [np.kron(a, b) for a in x for b in y]
    assert got.shape == (6, 6, 6)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_entropy_and_trace_norm_of_stack_match_each_block():
    # one eigvalsh (svd) call over the stack, one cutoff and one sum per
    # block: pure, rank-deficient, unnormalized and full-rank blocks
    rng = np.random.default_rng(8)
    blocks = [0.3 * _proj(BELL), 0.2 * np.diag([1.0, 0.0, 0.0, 0.0]), np.zeros((4, 4)),
              0.5 * random_density(rng, (2, 2)).mat, np.diag([1.0, 0.0, 0.0, 0.0])]
    stack = np.array(blocks, dtype=np.complex128)
    assert von_neumann_entropy(stack) == float(sum(entropy_of_block(b) for b in blocks))
    for blk in blocks:
        assert von_neumann_entropy(blk) == entropy_of_block(blk)
    norms = trace_norm(stack)
    assert [float(v) for v in norms] == [trace_norm(b) for b in blocks]


_HALF = 0.5 * np.eye(2)
_SKEW = np.array([[0.5, 0.2], [0.0, 0.5]])
_BENT = np.diag([0.5, -0.1])
_NAN = np.array([[np.nan, 0.0], [0.0, 0.5]])
_HUGE_SKEW = np.array([[0.0, 1e308], [-1e308, 0.0]])
_HUGE = np.array([[1.0, 1e308], [1e308, 0.0]])


@pytest.mark.parametrize("ops,complete", [
    ((_HALF, _HALF), True),
    ((_HALF, 0.25 * np.eye(2)), False),
    ((_HALF, _HALF), False),
    ((_HALF, _SKEW, _BENT), False),
    ((_BENT, _SKEW), False),
    ((_HALF, _BENT, np.eye(3)), False),
    ((_HALF, np.eye(3), _BENT), False),
    ((_HALF, 0.8 * np.eye(2)), False),
    ((_HALF, 0.25 * np.eye(2)), True),
    ((_HALF, _NAN, _BENT), False),
    ((_BENT, _NAN), False),
    ((_HALF, _HUGE_SKEW), False),
    ((_HALF, _HUGE), False),
    ((np.diag([1e308, 0.0]), np.diag([0.0, 1.0])), False),
], ids=["povm", "sub-povm", "sub-povm-full", "first-skew", "psd-before-skew",
        "psd-before-dims", "dims-before-psd", "oversum", "incomplete", "nan-before-psd",
        "psd-before-nan", "huge-skew", "huge-not-psd", "huge-oversum"])
def test_stacked_povm_checks_match_per_outcome_oracle(ops, complete):
    # one Hermiticity gap and one eigvalsh over the stack name the first
    # failing outcome, with its first failing check, as the per-outcome loop
    outcomes = tuple("abc"[:len(ops)])
    build = Povm if complete else SubPovm
    want = invariant_message(check_povm_by_loop, outcomes, ops, 1e-9, complete)
    assert invariant_message(build, outcomes, ops) == want


# ---------------------------------------------------------------------------
# norms and matrix functions
# ---------------------------------------------------------------------------

@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_trace_norm_hermitian_eigen_oracle(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = hermitize(a + a.conj().T)
    assert abs(trace_norm(h) - np.abs(np.linalg.eigvalsh(h)).sum()) < 1e-10


def test_trace_norm_triangle():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(5, 5))
    b = rng.normal(size=(5, 5))
    assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10


def test_operator_norm_hermitian():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4))
    h = a + a.T
    assert abs(operator_norm(h) - np.abs(np.linalg.eigvalsh(h)).max()) < 1e-10


def test_sqrt_and_pinv_sqrt_full_rank():
    rng = np.random.default_rng(10)
    rho = random_density(rng, (3,)).mat
    s, p = matrix_sqrt_and_pinv_sqrt(rho)
    assert np.allclose(s @ s, rho, atol=1e-10)
    assert np.allclose(s @ p, np.eye(3), atol=1e-8)


def test_pinv_sqrt_rank_deficient_gives_support_projector():
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    rho = 0.7 * _proj(v)
    s, p = matrix_sqrt_and_pinv_sqrt(rho)
    assert np.allclose(s @ p, _proj(v), atol=1e-10)


@pytest.mark.parametrize("rows, cols", [(2, 3), (3, 1), (1, 2)])
def test_kron_rows_equals_kron_chain(rows, cols):
    rng = np.random.default_rng(rows * 10 + cols)
    table = rng.normal(size=(4, rows, cols)) + 1j * rng.normal(size=(4, rows, cols))
    idx = rng.integers(0, 4, size=(5, 3))
    got = kron_rows(table, idx)
    assert got.shape == (5, rows ** 3, cols ** 3)
    for row, out in zip(idx, got):
        assert np.array_equal(out, np.kron(np.kron(table[row[0]], table[row[1]]), table[row[2]]))
    # no index rows give an empty stack of the same block shape
    assert kron_rows(table, idx[:0]).shape == (0, rows ** 3, cols ** 3)


def test_eigh_desc_order():
    vals, vecs = eigh_desc(np.diag([0.1, 0.9]))
    assert vals[0] >= vals[1]
    assert np.allclose(vecs[:, 0], [0, 1]) or np.allclose(vecs[:, 0], [0, -1])


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def test_entropy_known_values():
    assert abs(von_neumann_entropy(np.eye(4) / 4) - 2.0) < 1e-12
    assert abs(von_neumann_entropy(_proj(KET0))) < 1e-12
    p = 0.3
    h = -p * np.log2(p) - (1 - p) * np.log2(1 - p)
    assert abs(von_neumann_entropy(np.diag([p, 1 - p])) - h) < 1e-12
    assert abs(shannon_entropy([p, 1 - p]) - h) < 1e-12


def test_entropy_basis_invariant():
    rng = np.random.default_rng(11)
    rho = random_density(rng, (3,)).mat
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    assert abs(von_neumann_entropy(q @ rho @ q.conj().T) - von_neumann_entropy(rho)) < 1e-10


def test_quantum_mutual_information_product_and_bell():
    rng = np.random.default_rng(12)
    a = random_density(rng, (2,)).mat
    b = random_density(rng, (2,)).mat
    prod = DensityOperator(np.kron(a, b), (2, 2))
    assert abs(quantum_mutual_information(prod, (0,))) < 1e-10
    bell = DensityOperator(_proj(BELL), (2, 2))
    assert abs(quantum_mutual_information(bell, (0,)) - 2.0) < 1e-10


# ---------------------------------------------------------------------------
# density operators and purification
# ---------------------------------------------------------------------------

def test_density_validation():
    with pytest.raises(InvariantError):
        DensityOperator(np.diag([0.5, 0.6]), (2,))
    with pytest.raises(InvariantError):
        DensityOperator(np.diag([1.5, -0.5]), (2,))
    with pytest.raises(InvariantError):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]), (2,))


def test_density_marginal_and_power():
    rng = np.random.default_rng(13)
    rho = random_density(rng, (2, 2))
    marg = rho.marginal((0,))
    assert marg.dims == (2,)
    sq = power(rho, 2)
    assert np.allclose(sq.mat, np.kron(rho.mat, rho.mat), atol=1e-12)
    assert sq.dims == rho.dims * 2


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_purify_reduces_to_target_and_reference(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, (3,))
    psi = purify(rho)
    # a unit vector; the reference subsystem comes first and has the system
    # dimension
    assert psi.shape == (9,)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    full = np.outer(psi, psi.conj())
    sys_marg = partial_trace(full, (3, 3), keep=(1,))
    assert np.allclose(sys_marg, rho.mat, atol=1e-10)
    ref_marg = partial_trace(full, (3, 3), keep=(0,))
    vals, _ = eigh_desc(rho.mat)
    assert np.allclose(ref_marg, np.diag(vals), atol=1e-10)


def test_every_exported_name_resolves():
    # a name dropped from the package but left in __all__ breaks
    # ``from povmsim import *``
    assert [name for name in povmsim.__all__ if not hasattr(povmsim, name)] == []
    assert len(set(povmsim.__all__)) == len(povmsim.__all__)


# ---------------------------------------------------------------------------
# POVM containers
# ---------------------------------------------------------------------------

def test_sub_povm_accepts_deficit_povm_rejects():
    half = (0.5 * np.eye(2),)
    SubPovm(("a",), half)
    with pytest.raises(InvariantError):
        Povm(("a",), half)


def test_povm_rejects_oversum_and_negative():
    with pytest.raises(InvariantError):
        SubPovm(("a", "b"), (np.eye(2), 0.1 * np.eye(2)))
    with pytest.raises(InvariantError):
        SubPovm(("a",), (np.diag([0.5, -0.1]),))
    with pytest.raises(InvariantError):
        SubPovm(("a", "a"), (0.3 * np.eye(2), 0.3 * np.eye(2)))


def test_complete_sub_povm_adds_rest():
    sub = SubPovm(("x",), (0.25 * np.eye(2),))
    full = complete_sub_povm(sub)
    assert isinstance(full, Povm)
    assert full.outcomes[-1] == COMPLETION_OUTCOME
    assert np.allclose(full.op(COMPLETION_OUTCOME), 0.75 * np.eye(2), atol=1e-12)


def test_complete_sub_povm_label_collision():
    sub = SubPovm((COMPLETION_OUTCOME,), (0.25 * np.eye(2),))
    with pytest.raises(InvariantError):
        complete_sub_povm(sub)


def test_tensor_povm_pairs_and_completeness():
    rng = np.random.default_rng(14)
    pa = random_povm(rng, 2, 3)
    pb = random_povm(rng, 2, 2)
    joint = tensor_povm(pa, pb)
    assert isinstance(joint, Povm)
    assert joint.outcomes[0] == (0, 0)
    assert np.allclose(joint.op((1, 0)), np.kron(pa.op(1), pb.op(0)), atol=1e-12)
    assert len(joint.outcomes) == 6


def test_random_povm_sums_to_identity():
    rng = np.random.default_rng(15)
    p = random_povm(rng, 3, 4)
    assert np.max(np.abs(p.total() - np.eye(3))) <= 1e-7


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def test_ensemble_validation_and_average():
    states = (DensityOperator(_proj(KET0), (2,)), DensityOperator(_proj(KET1), (2,)))
    ens = Ensemble((0.25, 0.75), states)
    assert np.allclose(ens.average(), np.diag([0.25, 0.75]), atol=1e-12)
    with pytest.raises(InvariantError):
        Ensemble((0.5, 0.6), states)
    with pytest.raises(InvariantError):
        Ensemble((0.5,), states)


def test_holevo_orthogonal_pure_equals_shannon():
    states = (DensityOperator(_proj(KET0), (2,)), DensityOperator(_proj(KET1), (2,)))
    ens = Ensemble((0.3, 0.7), states)
    assert abs(holevo_information(ens) - shannon_entropy([0.3, 0.7])) < 1e-12


def test_holevo_nonnegative():
    rng = np.random.default_rng(16)
    states = tuple(random_density(rng, (2,)) for _ in range(3))
    ens = Ensemble((0.2, 0.3, 0.5), states)
    assert holevo_information(ens) >= -1e-12


# ---------------------------------------------------------------------------
# probability laws: one rule at every site
# ---------------------------------------------------------------------------

def _channel_row(row):
    # the failing row is the third pair, so a refusal must name it
    comp = fixtures.computational_povm()
    rows = {(u, v): (0.5, 0.5) for u in comp.outcomes for v in comp.outcomes}
    d = SeparableDecomposition(comp, comp, ("a", "b"), {**rows, ("1", "0"): row})
    assert np.shares_memory(d.row("1", "0"), d.table[1, 0])  # a view, not a copy
    return d.row("1", "0")


def _kernel_row(row):
    # sigma3's blocks are keyed (u, v); the failing row is the last block's
    inst = fixtures.load_fixture("binary-correlated")
    sigma3 = auxiliary_states(inst.state, inst.decomposition.povm_A,
                              inst.decomposition.povm_B)[2]
    out = attach_classical(sigma3, "Z", ("a", "b"),
                           lambda key: row if key == ("1", "1") else (0.5, 0.5))
    return sorted(out.blocks)


def _time_sharing(row):
    inst = fixtures.load_fixture("binary-correlated")
    pairs, _, recon, dobs = inst.rd_arguments()
    recon = {**recon, **{(u, v, 1): st for (u, v, _), st in recon.items()}}
    return rd_inner_bound(inst.state, {0: pairs[0], 1: pairs[0]}, dict(enumerate(row)),
                          recon, dobs).sources


_SEQS = np.array([[0, 0], [1, 1], [0, 1]])
_QUBITS = (DensityOperator(np.diag([1.0, 0.0]), (2,)), DensityOperator(np.diag([0.0, 1.0]), (2,)))

# site: (call on one two-entry row, law name, failing row's name, tol, whether
# the call returns the stored row).  The joint-law sites hold the row on the
# diagonal of p(u, v), one law of four entries.
LAW_SITES = {
    "typical_set": (lambda row: typical_set(row, 2, 0.5).probs, "probs", None, DEFAULT_TOL, True),
    "typical_pairs": (lambda row: typical_pairs(_SEQS, _SEQS, np.diag(row), 0.5),
                      "probs", None, DEFAULT_TOL, False),
    "packing": (lambda row: packing_norm_trial(
        fixtures.computational_povm(), fixtures.computational_povm(), np.diag(row),
        2, 0.5, 0.5, 0.3, seed=0), "p_uv", None, DEFAULT_TOL, False),
    "collision": (lambda row: binning_collision_rate(
        ProtocolParams(n=2, Rt1=1.0, Rt2=1.0, R1=0.5, R2=0.5, delta=0.6), np.diag(row)),
        "p_uv", None, DEFAULT_TOL, False),
    "channel": (_channel_row, "channel row", ("1", "0"), DEFAULT_TOL, True),
    "kernel": (_kernel_row, "kernel row", ("1", "1"), 1e-8, False),
    "ensemble": (lambda row: Ensemble(row, _QUBITS).weights, "ensemble weights", None,
                 DEFAULT_TOL, True),
    "time-sharing": (_time_sharing, "time-sharing weights", None, DEFAULT_TOL, False),
}


@pytest.mark.parametrize("site", LAW_SITES)
@pytest.mark.parametrize("bad,check", [
    (lambda tol: (math.nan, 1.0), "must be finite"),
    (lambda tol: (math.inf, 0.0), "must be finite"),
    (lambda tol: (1.0, -math.inf), "must be finite"),
    (lambda tol: (1.0 + 2 * tol, -2 * tol), "must be at least -{tol:g}"),
    (lambda tol: (0.5, 0.5 + 2 * tol), "must sum to 1 within {tol:g}"),
], ids=["nan", "inf", "-inf", "below-floor", "sum-off"])
def test_every_law_site_refuses_by_the_rule(site, bad, check):
    # each refusal names the law and, in a stack, the failing row, then
    # shows that row's values
    call, what, name, tol, _ = LAW_SITES[site]
    law = what if name is None else f"{what} at {name!r}"
    with pytest.raises(InvariantError, match="^" + re.escape(law + " " + check.format(tol=tol))
                       + r".*, got \["):
        call(bad(tol))


@pytest.mark.parametrize("site", LAW_SITES)
def test_every_law_site_clips_an_entry_within_tol(site):
    # an entry in [-tol, 0) is accepted and read as 0.0: the call gives what
    # it gives on the clipped row, and a stored row holds 0.0
    call, _, _, tol, stores = LAW_SITES[site]
    got = call((1.0 + tol / 2, -tol / 2))
    want = call((1.0 + tol / 2, 0.0))
    if stores:
        assert got.tolist() == want.tolist() and got[1] == 0.0 and not math.copysign(1, got[1]) < 0
    else:
        assert got == want if not isinstance(got, np.ndarray) else np.array_equal(got, want)


def test_outcome_distribution_takes_the_rule():
    # the law is formed from validated finite operators, so only the floor,
    # the sum and the clipping are reachable: |00> read by {diag(-e, 1),
    # diag(1 + e, 0)} on A puts -e on p(0, 0)
    rho = DensityOperator(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))
    comp = fixtures.computational_povm()

    def povm_A(e, tol=DEFAULT_TOL):
        return Povm(("0", "1"), (np.diag([-e, 1.0]), np.diag([1.0 + e, 0.0])), tol=tol)

    p = outcome_distribution(rho, povm_A(5e-10), comp)
    assert p[0, 0] == 0.0 and p.tolist() == [[0.0, 0.0], [1.0 + 5e-10, 0.0]]
    with pytest.raises(InvariantError, match=r"^outcome distribution must be at least -1e-09"):
        outcome_distribution(rho, povm_A(2e-9, tol=1e-8), comp)
    shrunk = SubPovm(comp.outcomes, tuple((1.0 - 2e-9) * op for op in comp.operators))
    with pytest.raises(InvariantError, match=r"^outcome distribution must sum to 1 within 1e-09"):
        outcome_distribution(rho, shrunk, comp)


def test_probability_rows_names_the_first_failing_row_of_a_stack():
    rows = np.array([[[0.5, 0.5], [1.0, 0.0]], [[0.2, 0.7], [math.nan, 1.0]]])
    with pytest.raises(InvariantError,
                       match=re.escape("law at 'c' must sum to 1 within 1e-09, got [0.2, 0.7]")):
        probability_rows("law", rows, names="abcd")
    got = probability_rows("law", [[1.0 + 5e-10, -5e-10]] * 3)
    assert got.shape == (3, 2) and got[:, 1].tolist() == [0.0] * 3
