"""Finite-blocklength protocol pieces and their statistical checks."""

import dataclasses
import itertools
import json
import math
import tracemalloc
from collections import Counter
from functools import partial, reduce

import numpy as np
import pytest

from conftest import (low_rank_two_qubit, random_density, random_povm, random_sub_povm,
                      stochastic_binary, unequal_dims)
from oracles import (
    distortion_of_protocol,
    ensemble_payload,
    ensemble_state,
    letter_rows,
    lookup,
    packing_norm_dense,
    packing_union_proxy,
    separate_check,
)
from povmsim import fixtures, protocol, serialize
from povmsim.errors import InvariantError
from povmsim.measurement import (
    SeparableDecomposition,
    canonical_ensemble,
    compose_decomposition,
    outcome_distribution,
)
from povmsim.operators import (
    DensityOperator,
    Ensemble,
    Povm,
    hermitize,
    holevo_information,
    kron_rows,
    matrix_sqrt_and_pinv_sqrt,
    partial_trace,
    tensor,
    trace_norm,
    weighted_gram,
)
from povmsim.protocol import (
    BinMap,
    Codebook,
    ProtocolParams,
    TrialReport,
    STREAM_PACKING_A,
    STREAM_PACKING_B,
    STREAM_SOFT,
    _letter_map,
    _sandwich_factors,
    _sandwich_frame,
    _trace_norm_sum,
    bin_povm,
    binning_collision_rate,
    build_approx_operators,
    build_decoder,
    check_sub_povm,
    error_split,
    faithfulness_trial,
    generate_bin_maps,
    generate_codebooks,
    mutual_covering_check,
    packing_norm_trial,
    sentinel_sequence,
    soft_covering_trial,
    substream,
)
from povmsim.regions import region_for
from povmsim.typicality import (
    build_projector_bundle,
    lambda_operators,
    pruned_distribution,
    typical_pairs,
    typical_set,
)
from typical_oracle import (
    VOID,
    _letter_indices,
    bin_maps_by_label,
    decoded_labels,
    decoder_by_label,
    label_rows,
    sentinel_by_enumeration,
    typical_pairs_by_row,
)

PUV_DIAG = np.array([[0.5, 0.0], [0.0, 0.5]])


def _pieces(inst=None, seed=0, n=None, d=None):
    """The protocol objects of one trial, built stepwise as the trial does;
    the approximating families as matrices, and last the two typical sets.
    ``inst`` defaults to the binary-correlated fixture.  Codewords and
    family keys are returned as label tuples."""
    inst = inst or fixtures.load_fixture("binary-correlated")
    params = dataclasses.replace(inst.params, seed=seed, n=n or inst.params.n)
    d = d or inst.decomposition
    rho_A = inst.state.marginal((0,))
    rho_B = inst.state.marginal((1,))
    ens_A = canonical_ensemble(rho_A, d.povm_A)
    ens_B = canonical_ensemble(rho_B, d.povm_B)
    bundle_A = build_projector_bundle(rho_A, ens_A, params.n, params.delta)
    bundle_B = build_projector_bundle(rho_B, ens_B, params.n, params.delta)
    codebook = generate_codebooks(params, bundle_A.pruned, bundle_B.pruned)

    def columns(rho, bundle):
        # every member's lambda_operators factor, side by side, times pinv_sqrt(rho^{(x)n})
        forms = [lambda_operators(s, bundle) for s in range(len(bundle.typical))]
        pinv_n = tensor(*[matrix_sqrt_and_pinv_sqrt(rho.mat)[1]] * params.n)
        return (pinv_n @ np.concatenate([z for z, _ in forms], axis=1),
                np.concatenate([v for _, v in forms]), np.cumsum([0] + [v.size for _, v in forms]))

    def dense(cols, count):
        # one matrix per (mu, member id), from the columns the pair owns
        mu, ids, z, w, _ = cols
        fams = [{} for _ in range(count)]
        for m, s in dict.fromkeys(zip(mu.tolist(), ids.tolist())):
            own = (mu == m) & (ids == s)
            fams[m][s] = weighted_gram(z[:, own], w[own])
        return fams

    fams_A = dense(build_approx_operators(codebook.u_lists, columns(rho_A, bundle_A),
                                          bundle_A.eps, params.eta), params.N1)
    fams_B = dense(build_approx_operators(codebook.v_lists, columns(rho_B, bundle_B),
                                          bundle_B.eps, params.eta), params.N2)
    binmaps = generate_bin_maps(params, bundle_A.typical, bundle_B.typical)
    binned_A = [bin_povm(f, binmaps[0].assignments[mu], params.bins1)
                for mu, f in enumerate(fams_A)]
    binned_B = [bin_povm(f, binmaps[1].assignments[mu], params.bins2)
                for mu, f in enumerate(fams_B)]
    p_uv = outcome_distribution(inst.state, d.povm_A, d.povm_B)
    to_A = _letter_map(ens_A.outcomes, d.povm_A.outcomes)
    to_B = _letter_map(ens_B.outcomes, d.povm_B.outcomes)
    decoder = build_decoder(codebook, binmaps, lambda us, vs: typical_pairs(
        to_A[us], to_B[vs], p_uv, params.delta))
    t_A, t_B = bundle_A.typical, bundle_B.typical
    labels = Codebook(tuple(label_rows(t_A.alphabet, t_A.seqs[lst]) for lst in codebook.u_lists),
                      tuple(label_rows(t_B.alphabet, t_B.seqs[lst]) for lst in codebook.v_lists))
    members_A, members_B = t_A.members, t_B.members
    fams_A = [{members_A[s]: op for s, op in fam.items()} for fam in fams_A]
    fams_B = [{members_B[s]: op for s, op in fam.items()} for fam in fams_B]
    return inst, params, labels, fams_A, fams_B, binned_A, binned_B, decoder, (t_A, t_B)


def _off_by_tol_binary():
    """stochastic_binary with rows (0, 0) and (1, 1) that miss a sum of 1
    by -5e-10 and +4e-10, inside the decomposition's 1e-9 tolerance."""
    d = stochastic_binary()
    rows = {**d.rows, ("0", "0"): (0.3, 0.6, 0.1 - 5e-10),
            ("1", "1"): (0.1, 0.3, 0.6 + 4e-10)}
    return SeparableDecomposition(d.povm_A, d.povm_B, d.z_alphabet, rows)


def _equality_decomposition(m):
    """m on both sides, integrated to whether the two outcomes are equal."""
    rows = {(u, v): (1.0, 0.0) if u == v else (0.0, 1.0)
            for u in m.outcomes for v in m.outcomes}
    return SeparableDecomposition(m, m, ("equal", "differ"), rows)


def _noisy_binary():
    """binary-correlated's state read by the noisy diagonal POVM
    {diag(0.8, 0.3), diag(0.2, 0.7)} on both sides, integrated to whether
    the two outcomes are equal, at delta = 1.0.

    The canonical ensemble states are mixed, so the approximating operators
    have ranks 1 to 4 at n = 2, 3 and the sandwich pads ragged factors.
    """
    inst = fixtures.load_fixture("binary-correlated")
    m = Povm(("0", "1"), (np.diag([0.8, 0.3]), np.diag([0.2, 0.7])))
    d = _equality_decomposition(m)
    return dataclasses.replace(inst, params=dataclasses.replace(inst.params, delta=1.0)), d


def _zero_outcome_binary():
    """binary-correlated's POVM with a zero element "z" between its two
    outcomes, on both sides, integrated to whether the outcomes are equal.

    The canonical ensembles drop "z", so typical letters index a strict
    subset of the POVM outcomes.
    """
    m = fixtures.load_fixture("binary-correlated").decomposition.povm_A
    z = Povm(("0", "z", "1"), (m.op("0"), np.zeros((2, 2)), m.op("1")))
    return _equality_decomposition(z)


def _instance(name):
    """A fixture and its decomposition; "stochastic" is stochastic_binary,
    "off-by-tol" is _off_by_tol_binary, "noisy" is _noisy_binary,
    "zero-outcome" is _zero_outcome_binary, and "qubit-qutrit" and
    "qutrit-qubit" are unequal_dims instances."""
    if name == "qubit-qutrit":
        return unequal_dims((2, 3), 21)
    if name == "qutrit-qubit":
        return unequal_dims((3, 2), 22)
    if name == "stochastic":
        return fixtures.load_fixture("binary-correlated"), stochastic_binary()
    if name == "off-by-tol":
        return fixtures.load_fixture("binary-correlated"), _off_by_tol_binary()
    if name == "noisy":
        return _noisy_binary()
    if name == "zero-outcome":
        return fixtures.load_fixture("binary-correlated"), _zero_outcome_binary()
    inst = fixtures.load_fixture(name)
    return inst, inst.decomposition


# ---------------------------------------------------------------------------
# full-matrix oracles for the rank-reduced trial
# ---------------------------------------------------------------------------

def permute_subsystems(op, dims, order):
    """Reorder the tensor factors of a square operator: new factor i is old
    factor order[i]."""
    a = np.asarray(op, dtype=np.complex128)
    t = a.reshape(tuple(dims) * 2)
    t = np.transpose(t, tuple(order) + tuple(len(dims) + i for i in order))
    return t.reshape(a.shape)


def test_permute_subsystems_on_kron():
    rng = np.random.default_rng(6)
    a = random_density(rng, (2,)).mat
    b = random_density(rng, (3,)).mat
    c = random_density(rng, (2,)).mat
    full = tensor(a, b, c)
    got = permute_subsystems(full, (2, 3, 2), (2, 0, 1))
    assert np.allclose(got, tensor(c, a, b), atol=1e-12)


def decoded_family(binned_A, binned_B, decoder, typicals):
    """The simulated family before the integration, keyed by decoded pair.

    Every cell (i, j >= 1) adds w_mu Gamma_i x Gamma_j to its decoded pair.
    """
    N1, N2 = decoder.n_mu
    w_mu = 1.0 / (N1 * N2)
    acc = {}
    for mu1 in range(N1):
        for mu2 in range(N2):
            for i in range(1, decoder.bins1 + 1):
                for j in range(1, decoder.bins2 + 1):
                    pair = decoded_labels(decoder, typicals, mu1, mu2, i, j)
                    cell = w_mu * np.kron(binned_A[mu1][i], binned_B[mu2][j])
                    acc[pair] = acc.get(pair, 0.0) + cell
    return acc


def overall_povm(binned_A, binned_B, decoder, typicals, integration):
    """The simulated joint family as full matrices, one per output string:
    each decoded pair's operator, times each image weight, goes to the
    strings the integration assigns to that pair."""
    acc = {}
    for (u, v), op in decoded_family(binned_A, binned_B, decoder, typicals).items():
        for z, w in _images(u, v, integration):
            acc[z] = acc.get(z, 0.0) + w * op
    return acc


def unbinned_family(fams_A, fams_B):
    """w_mu sum_mu Gamma_u x Gamma_v keyed by codeword pair (u, v)."""
    w_mu = 1.0 / (len(fams_A) * len(fams_B))
    acc = {}
    for fam_a in fams_A:
        for fam_b in fams_B:
            for u, op_u in fam_a.items():
                for v, op_v in fam_b.items():
                    acc[(u, v)] = acc.get((u, v), 0.0) + w_mu * np.kron(op_u, op_v)
    return acc


def _typical_sets(state, d, params):
    """The per-sender typical sets of a trial's canonical ensembles."""
    sets = []
    for side, povm in enumerate((d.povm_A, d.povm_B)):
        ens = canonical_ensemble(state.marginal((side,)), povm)
        sets.append(typical_set(ens.weights, params.n, params.delta,
                                alphabet=ens.outcomes))
    return sets


def _images(u, v, integration):
    """(z-string, weight) pairs of a decoded pair; void pairs map to void."""
    if VOID in u or VOID in v:
        return [((VOID,) * len(u), 1.0)]
    supports = [[(z, p) for z, p in zip(integration.z_alphabet, integration.row(a, b))
                 if p > 0.0] for a, b in zip(u, v)]
    return [(tuple(z for z, _ in combo), float(np.prod([p for _, p in combo])))
            for combo in itertools.product(*supports)]


class _Oracle:
    """Full-matrix faithfulness distance on side-major rho^{(x)n}.

    Each target string's norm is taken once, so the oracle can score several
    families at the same (state, d, n): its sandwich is PSD, so the norm is
    its trace Tr(T_z rho^{(x)n}) = prod_k Tr(T_{z_k} rho).
    """

    def __init__(self, state, d, n):
        dA, dB = d.dims
        self.d = d
        self.order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
        self.dims = [dA, dB] * n
        self.rho_n = self._side_major(tensor(*[state.mat] * n))
        self.sq, _ = matrix_sqrt_and_pinv_sqrt(self.rho_n)
        self.target = compose_decomposition(d)
        letter = {z: float(np.real(np.trace(op @ state.mat))) for z, op in self.target.items()}
        self.norms = {z: math.prod(letter[s] for s in z)
                      for z in itertools.product(self.target.outcomes, repeat=n)}

    def _side_major(self, op):
        return permute_subsystems(op, self.dims, self.order)

    def target_op(self, z):
        return self._side_major(tensor(*(self.target.op(s) for s in z)))

    def norm(self, op):
        # every scored op is a Hermitian difference, and so is its sandwich
        return float(np.abs(np.linalg.eigvalsh(hermitize(self.sq @ op @ self.sq))).sum())

    def mass(self, op):
        return float(np.real(np.trace(op @ self.rho_n)))

    def G(self, family):
        total = sum(norm for z, norm in self.norms.items() if z not in family)
        for z, op in family.items():
            t_op = self.target_op(z) if z in self.norms else 0.0
            total += self.norm(t_op - op)
        rest = np.eye(self.rho_n.shape[0]) - sum(family.values())
        return total + max(self.mass(rest), 0.0)

    def split(self, typical_A, typical_B, unbinned, decoded):
        """(s1, s2): the unbinned family scored against the product targets
        (x)A_u (x) (x)B_v on all typical pairs, and its norm-sum gap to the
        decoded family."""
        s1 = joint = 0.0
        for u in typical_A.members:
            for v in typical_B.members:
                t_op = tensor(*(self.d.povm_A.op(a) for a in u),
                              *(self.d.povm_B.op(b) for b in v))
                # an uncovered pair's sandwich is PSD: its norm is its mass
                mass = self.mass(t_op)
                s1 += self.norm(t_op - unbinned[(u, v)]) if (u, v) in unbinned else mass
                joint += mass
        covered = self.mass(sum(unbinned.values()))
        s1 += max(0.0, 1.0 - joint) + max(0.0, 1.0 - covered)
        s2 = sum(self.norm(unbinned.get(p, 0.0) - decoded.get(p, 0.0))
                 for p in set(unbinned) | set(decoded))
        return s1, s2


def _dense_distortion(binned_A, binned_B, decoder, typicals, recon, obs, state):
    """Average per-letter distortion with every cell block, completion bins
    included, formed as the dense w_mu c^dag (Gamma_i x Gamma_j) c on the
    side-major rho^{(x)n} = c c^dag."""
    n = typicals[0].n
    c1, frame = _sandwich_frame(state, n)
    c = frame.conj().T.reshape(state.dim ** n, -1)
    r = c1.shape[1]
    xdim = next(iter(recon.values())).dim
    N1, N2 = decoder.n_mu

    def completed(fam):
        side = next(iter(fam.values())).shape[0]
        return [(0, np.eye(side) - sum(fam.values()))] + list(fam.items())

    total = 0.0
    for mu1, fam_a in enumerate(binned_A):
        for mu2, fam_b in enumerate(binned_B):
            for i, op_a in completed(fam_a):
                for j, op_b in completed(fam_b):
                    block = c.conj().T @ np.kron(op_a, op_b) @ c / (N1 * N2)
                    u, v = decoded_labels(decoder, typicals, mu1, mu2, i, j)
                    for pos in range(n):
                        ref = np.zeros((state.dim, state.dim), dtype=np.complex128)
                        ref[:r, :r] = partial_trace(block.T, [r] * n, (pos,))
                        letter = (np.eye(xdim) / xdim if VOID in (u[pos], v[pos])
                                  else recon[(u[pos], v[pos])].mat)
                        total += np.trace(obs @ np.kron(ref, letter)).real
    return total / n


def _dense_resummation_error(binned_A, binned_B, decoder, typicals, integration):
    """Simulated total minus the product of averaged totals, cell by cell."""
    N1, N2 = decoder.n_mu
    w_mu = 1.0 / (N1 * N2)
    sum_A = sum(sum(fam[b] for b in sorted(fam)) for fam in binned_A) / N1
    sum_B = sum(sum(fam[b] for b in sorted(fam)) for fam in binned_B) / N2
    acc = 0.0
    for mu1 in range(N1):
        for mu2 in range(N2):
            for i in range(1, decoder.bins1 + 1):
                for j in range(1, decoder.bins2 + 1):
                    u, v = decoded_labels(decoder, typicals, mu1, mu2, i, j)
                    w = sum(wz for _, wz in _images(u, v, integration))
                    acc = acc + (w_mu * w) * np.kron(binned_A[mu1][i], binned_B[mu2][j])
    return float(np.max(np.abs(acc - np.kron(sum_A, sum_B))))


# ---------------------------------------------------------------------------
# random streams and parameters
# ---------------------------------------------------------------------------

def test_substream_deterministic_and_separated():
    a = substream(7, 2, 0).integers(0, 1 << 30, size=8)
    b = substream(7, 2, 0).integers(0, 1 << 30, size=8)
    c = substream(7, 2, 1).integers(0, 1 << 30, size=8)
    d = substream(8, 2, 0).integers(0, 1 << 30, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_params_counts_round_rates():
    p = ProtocolParams(n=2, Rt1=1.25, Rt2=1.15, R1=0.8, R2=0.5)
    assert p.L1 == round(2 ** 2.5) == 6
    assert p.L2 == round(2 ** 2.3) == 5
    assert p.bins1 == round(2 ** 1.6) == 3
    assert p.bins2 == 2


def test_params_validation():
    with pytest.raises(InvariantError):
        ProtocolParams(n=0, Rt1=1.0, Rt2=1.0, R1=0.5, R2=0.5)
    with pytest.raises(InvariantError):
        ProtocolParams(n=2, Rt1=0.4, Rt2=1.0, R1=0.5, R2=0.5)
    with pytest.raises(InvariantError):
        ProtocolParams(n=2, Rt1=1.0, Rt2=1.0, R1=0.5, R2=0.5, eta=2.0)
    with pytest.raises(InvariantError):
        ProtocolParams(n=2, Rt1=1.0, Rt2=1.0, R1=0.5, R2=0.5, delta=0.0)
    with pytest.raises(InvariantError):
        ProtocolParams(n=2, Rt1=1.0, Rt2=1.0, R1=0.5, R2=0.5, delta=float("inf"))
    with pytest.raises(InvariantError):
        ProtocolParams(n=2, Rt1=1.0, Rt2=1.0, R1=0.5, R2=0.5, seed=-1)


def _same_lists(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def test_codebooks_typical_and_seeded():
    t = typical_set((0.5, 0.5), 6, 0.6, alphabet=("0", "1"))
    pruned = pruned_distribution(t)
    p0 = ProtocolParams(n=6, Rt1=1.0, Rt2=1.0, R1=0.5, R2=0.5, delta=0.6, seed=0)
    c0 = generate_codebooks(p0, pruned, pruned)
    assert len(c0.u_lists) == p0.N1 and len(c0.u_lists[0]) == p0.L1
    for seq in c0.u_lists[0]:
        assert 0 <= seq < len(t)  # a member id
    again = generate_codebooks(p0, pruned, pruned)
    assert _same_lists(c0.u_lists, again.u_lists) and _same_lists(c0.v_lists, again.v_lists)
    c1 = generate_codebooks(dataclasses.replace(p0, seed=1), pruned, pruned)
    assert not _same_lists(c0.u_lists, c1.u_lists)


# ---------------------------------------------------------------------------
# bin maps and binned families
# ---------------------------------------------------------------------------

def test_bin_maps_cover_typical_set():
    t = typical_set((0.5, 0.5), 4, 0.6, alphabet=("0", "1"))
    p = ProtocolParams(n=4, Rt1=1.0, Rt2=1.0, R1=0.5, R2=0.5, delta=0.6, seed=3)
    bm1, bm2 = generate_bin_maps(p, t, t)
    assert bm1.assignments.shape == (p.N1, len(t))
    for b in bm1.assignments[0]:
        assert 1 <= b <= p.bins1
    assert bm1.spread() >= 0
    again, _ = generate_bin_maps(p, t, t)
    assert np.array_equal(bm1.assignments, again.assignments)


def test_bin_map_validation():
    t = typical_set((0.5, 0.5), 2, 0.6, alphabet=("0", "1"))
    with pytest.raises(InvariantError):
        BinMap(t, np.array([[1]]), 2)  # misses a typical member
    full = np.array([[1, 5]])
    with pytest.raises(InvariantError):
        BinMap(t, full, 2)  # bin index out of range


def test_bin_povm_merges_and_pads():
    a = np.diag([0.3, 0.0])
    b = np.diag([0.0, 0.4])
    binned = bin_povm({0: a, 1: b}, np.array([1, 1]), 2)
    assert set(binned) == {1, 2}
    assert np.allclose(binned[1], a + b, atol=1e-15)
    assert np.allclose(binned[2], 0.0, atol=1e-15)
    with pytest.raises(InvariantError):
        bin_povm({0: a}, np.array([], dtype=int), 2)
    with pytest.raises(InvariantError):
        bin_povm({0: a}, np.array([3]), 2)


# ---------------------------------------------------------------------------
# approximating operators
# ---------------------------------------------------------------------------

def test_approx_operators_closed_form_binary():
    # with rho_A = I/2 everything is diagonal: the sandwich inflates each
    # drawn codeword projector by 2^n and gamma = count (1 - eps) / ((1+eta) L)
    inst, params, codebook, fams_A, _, _, _, _, _ = _pieces()
    eps = 0.5
    scale = (1.0 - eps) / ((1.0 + params.eta) * params.L1)
    fam = fams_A[0]
    counts = Counter(codebook.u_lists[0])
    assert set(fam) == set(counts)
    for seq, c in counts.items():
        idx = int("".join(seq), 2)
        want = np.zeros((4, 4))
        want[idx, idx] = c * scale * 4.0
        assert np.allclose(fam[seq], want, atol=1e-12)
    # the trial's gamma statistics come from the same per-codeword gammas
    gammas = np.array([c * scale for c in counts.values()])
    got = faithfulness_trial(params, inst.state, inst.decomposition).diagnostics
    for stat in ("mean", "min", "max"):
        assert abs(got[f"gamma_{stat}"] - getattr(gammas, stat)()) < 1e-15


def test_check_sub_povm():
    ok, excess = check_sub_povm(0.6 * np.eye(2))
    assert ok and excess == 0.0
    ok, excess = check_sub_povm(0.6 * np.eye(2) + 0.6 * np.eye(2))
    assert not ok and abs(excess - 0.2) < 1e-12


@pytest.mark.parametrize("name", ["binary-correlated", "example1", "stochastic", "noisy",
                                  "zero-outcome"])
def test_trial_validity_matches_dense_families(name):
    # the trial sums each family in one Gram matrix of its factors; the
    # oracle sums the family's per-codeword matrices
    inst, d = _instance(name)
    for N1, N2 in ((1, 1), (2, 3)):
        inst_mu = dataclasses.replace(inst, params=dataclasses.replace(inst.params, N1=N1, N2=N2))
        for n in (2, 3):
            _, params, _, fams_A, fams_B, _, _, _, _ = _pieces(inst_mu, n=n, d=d)
            r = faithfulness_trial(params, inst.state, d)
            for fams, flags, excesses in ((fams_A, r.sub_povm_valid_A, r.excess_A),
                                          (fams_B, r.sub_povm_valid_B, r.excess_B)):
                assert len(fams) == len(flags) == len(excesses)
                for fam, ok, excess in zip(fams, flags, excesses):
                    want_ok, want = check_sub_povm(sum(fam.values()))
                    assert ok == want_ok
                    assert abs(excess - want) < 1e-12


def test_trial_family_validity_matches_closed_form():
    # at tiny blocklengths the draw can pile many repeats onto one codeword,
    # pushing the diagonal family sum past the identity; the validity check
    # must report exactly the closed-form excess rather than pretend success
    inst, params, codebook, fams_A, _, _, _, _, _ = _pieces()
    eps = 0.5
    scale = (1.0 - eps) / ((1.0 + params.eta) * params.L1)
    for mu, fam in enumerate(fams_A):
        top = max(c * scale * 4.0 for c in Counter(codebook.u_lists[mu]).values())
        ok, excess = check_sub_povm(sum(fam.values()))
        assert abs(excess - max(0.0, top - 1.0)) < 1e-9
        assert ok == (max(0.0, top - 1.0) <= 1e-9)


# ---------------------------------------------------------------------------
# sentinel and decoder
# ---------------------------------------------------------------------------

def test_sentinel_smallest_atypical():
    t = typical_set((0.5, 0.5), 2, 0.6, alphabet=("0", "1"))
    assert label_rows(t.alphabet, [sentinel_sequence(t)]) == [("0", "0")]
    t_all = typical_set((0.5, 0.5), 1, 1.0, alphabet=("0", "1"))
    assert label_rows(t_all.alphabet, [sentinel_sequence(t_all)]) == [(VOID,)]


def _decoder_fixture(v_list, nbins):
    """(decoder, typical set): both senders draw from one typical set."""
    t = typical_set((0.5, 0.5), 2, 0.6, alphabet=("0", "1"))
    joint = partial(typical_pairs, p_uv=PUV_DIAG, delta=0.6)
    ids = {m: k for k, m in enumerate(t.members)}
    assign = np.array([[1, nbins]])  # ("0", "1") and ("1", "0")
    bm = BinMap(t, assign, nbins)
    codebook = Codebook(np.array([[ids[("0", "1")], ids[("1", "0")]]]),
                        np.array([[ids[v] for v in v_list]]))
    return build_decoder(codebook, (bm, bm), joint), t


def test_decoder_unique_cell_and_sentinel():
    dec, t = _decoder_fixture(v_list=(("0", "1"),), nbins=2)
    assert decoded_labels(dec, (t, t), 0, 0, 1, 1) == (("0", "1"), ("0", "1"))
    assert dec.collisions == 0 and dec.occupied == 1
    sent = (("0", "0"), ("0", "0"))
    assert (label_rows(t.alphabet, letter_rows(t)[[dec.sentinel[0]]])[0],
            label_rows(t.alphabet, letter_rows(t)[[dec.sentinel[1]]])[0]) == sent
    assert decoded_labels(dec, (t, t), 0, 0, 2, 1) == sent   # cell never populated
    assert decoded_labels(dec, (t, t), 0, 0, 0, 1) == sent   # completion bin index


def test_decoder_collision_goes_to_sentinel():
    dec, _ = _decoder_fixture(v_list=(("0", "1"), ("1", "0")), nbins=1)
    assert dec.collisions == 1 and dec.occupied == 1
    assert lookup(dec, 0, 0, 1, 1) == dec.sentinel


def _decoders_and_label_oracle(name):
    """Per (N1, N2), n in 2..4 and seed: (decoder, typical sets, the label
    oracle's (cells, collisions, occupied))."""
    inst, d = _instance(name)
    p_uv = outcome_distribution(inst.state, d.povm_A, d.povm_B)
    for N1, N2 in ((1, 1), (2, 3)):
        for n in (2, 3, 4):
            for seed in (0, 1, 2):
                params = dataclasses.replace(inst.params, n=n, seed=seed, N1=N1, N2=N2)
                t_A, t_B = _typical_sets(inst.state, d, params)
                to_A = _letter_map(t_A.alphabet, d.povm_A.outcomes)
                to_B = _letter_map(t_B.alphabet, d.povm_B.outcomes)
                codebook = generate_codebooks(params, pruned_distribution(t_A),
                                              pruned_distribution(t_B))
                dec = build_decoder(codebook, generate_bin_maps(params, t_A, t_B),
                                    lambda us, vs: typical_pairs(to_A[us], to_B[vs], p_uv,
                                                                 params.delta))
                yield dec, (t_A, t_B), decoder_by_label(
                    [label_rows(t_A.alphabet, t_A.seqs[lst]) for lst in codebook.u_lists],
                    [label_rows(t_B.alphabet, t_B.seqs[lst]) for lst in codebook.v_lists],
                    bin_maps_by_label(params, t_A, t_B),
                    lambda us, vs: typical_pairs_by_row(
                        _letter_indices(us, d.povm_A.outcomes),
                        _letter_indices(vs, d.povm_B.outcomes), p_uv, params.delta))


@pytest.mark.parametrize("name", ["binary-correlated", "example1", "zero-outcome"])
def test_decoder_matches_label_oracle(name):
    # the member-id decoder, read back as labels, against bin-pair decoding
    # over label tuples with tuple-keyed bin maps and an enumerated sentinel
    for dec, typicals, (cells, collisions, occupied) in _decoders_and_label_oracle(name):
        assert {tuple(key): decoded_labels(dec, typicals, *key)
                for key in dec.cells[:, :4].tolist()} == cells
        assert (dec.collisions, dec.occupied) == (collisions, occupied)
        assert decoded_labels(dec, typicals, 0, 0, 0, 0) == tuple(
            sentinel_by_enumeration(t) for t in typicals)


@pytest.mark.parametrize("name", ["binary-correlated", "zero-outcome"])
def test_decoder_cells_are_label_oracle_cells_in_order(name):
    # one (mu1, mu2, i, j, u, v) row per decoded cell, in lexicographic cell
    # order, the label oracle's pairs read back as member ids
    decoded = 0
    for dec, (t_A, t_B), (cells, _, _) in _decoders_and_label_oracle(name):
        ids_A, ids_B = ({m: k for k, m in enumerate(t.members)} for t in (t_A, t_B))
        want = [list(key) + [ids_A[u], ids_B[v]] for key, (u, v) in sorted(cells.items())]
        assert dec.cells.shape == (len(want), 6)
        assert dec.cells.tolist() == want
        decoded += len(want)
    assert decoded > 0


# ---------------------------------------------------------------------------
# the simulated joint family
# ---------------------------------------------------------------------------

def test_overall_povm_resums_to_product_of_totals():
    inst, params, _, _, _, binned_A, binned_B, decoder, typicals = _pieces()
    acc = overall_povm(binned_A, binned_B, decoder, typicals, inst.decomposition)
    got = sum(acc.values())
    sum_A = sum(op for fam in binned_A for op in fam.values()) / params.N1
    sum_B = sum(op for fam in binned_B for op in fam.values()) / params.N2
    assert np.max(np.abs(got - np.kron(sum_A, sum_B))) < 1e-12
    for op in acc.values():
        assert np.min(np.linalg.eigvalsh(op)) > -1e-10


def test_faithfulness_trial_deterministic_and_seed_sensitive():
    inst = fixtures.load_fixture("binary-correlated")
    r0 = faithfulness_trial(inst.params, inst.state, inst.decomposition)
    r0b = faithfulness_trial(inst.params, inst.state, inst.decomposition)
    assert r0.faithfulness_G == r0b.faithfulness_G
    assert r0.resummation_error < 1e-10
    assert len(r0.sub_povm_valid_A) == inst.params.N1
    assert len(r0.sub_povm_valid_B) == inst.params.N2
    for flags, excesses in ((r0.sub_povm_valid_A, r0.excess_A),
                            (r0.sub_povm_valid_B, r0.excess_B)):
        for ok, excess in zip(flags, excesses):
            assert excess >= 0.0
            assert ok == (excess <= 1e-9)
    assert 0.0 <= r0.collision_rate <= 1.0
    p2 = dataclasses.replace(inst.params, seed=2)
    r2 = faithfulness_trial(p2, inst.state, inst.decomposition)
    assert r2.faithfulness_G != r0.faithfulness_G
    for key in ("eps_A", "eps_B", "leakage", "missed_mass", "gamma_mean", "zeta_mean"):
        assert key in r0.diagnostics
    s1, s2 = error_split(inst.params, inst.state, inst.decomposition)
    assert s1 >= 0.0 and s2 >= 0.0


def test_sandwich_blocks_match_full_conjugation():
    # unequal side dimensions and a rank-deficient state pin the side-major
    # layout: block (a, b) is C^dag (X_a x Y_b) C with rho^{(x)n} = C C^dag,
    # X_a = Z_a diag(w_a) Z_a^dag given by its factor; ragged ranks, an empty
    # factor and negative weights all go through the one product of the
    # factors side by side, and each block is closed here from its rows
    rng = np.random.default_rng(4)
    n, dA, dB = 2, 2, 3
    full = random_density(rng, (dA, dB)).mat
    vals, vecs = np.linalg.eigh(full)
    vals[:2] = 0.0
    rho = DensityOperator(vecs @ np.diag(vals / vals.sum()) @ vecs.conj().T, (dA, dB))
    c1, frame = _sandwich_frame(rho, n)
    assert c1.shape == (dA * dB, 4)
    # the frame is conj(C), stored as the (dB^n r^n, dA^n) matrix its product reads
    assert frame.shape == (dB ** n * 16, dA ** n) and frame.flags.c_contiguous
    c = frame.conj().T.reshape((dA * dB) ** n, -1)
    order = [0, 2, 1, 3]
    rho_n = permute_subsystems(np.kron(rho.mat, rho.mat), [dA, dB] * n, order)
    assert np.allclose(c @ c.conj().T, rho_n, atol=1e-12)

    def factor(side, k):
        z = rng.normal(size=(side, k)) + 1j * rng.normal(size=(side, k))
        return z, rng.normal(size=k)  # weights of either sign

    xs = [factor(dA ** n, k) for k in (0, 1, 2, dA ** n)]
    ys = [factor(dB ** n, k) for k in (2, 0, dB ** n, 1)]
    zx, zy = (np.concatenate([z for z, _ in fs], axis=1) for fs in (xs, ys))
    h = _sandwich_factors(zx, zy, frame)
    assert h.shape == (zx.shape[1] * zy.shape[1], 16)
    rows = h.reshape(zx.shape[1], zy.shape[1], 16)
    ax, ay = (np.cumsum([0] + [w.size for _, w in fs]) for fs in (xs, ys))
    for a, (za, wa) in enumerate(xs):
        for b, (zb, wb) in enumerate(ys):
            f = rows[ax[a]:ax[a + 1], ay[b]:ay[b + 1]].reshape(-1, 16).T
            block = (f * np.outer(wa, wb).ravel()) @ f.conj().T
            x = za @ np.diag(wa) @ za.conj().T
            y = zb @ np.diag(wb) @ zb.conj().T
            want = c.conj().T @ np.kron(x, y) @ c
            assert np.max(np.abs(block - want)) < 1e-12
            assert block.any() == bool(wa.size and wb.size)


def test_trace_norm_sum_matches_dense():
    # factor pieces of widths below, equal to and above the row count, signed
    # weights, a block of several pieces and width-0 pieces, all in one call;
    # the pieces' columns go into one pool, the entries of all blocks are
    # shuffled together, and block 7 has no entries.  Each block x also takes,
    # in front, the ``width`` columns of table[idx[x]] at weight 1 (no
    # column at width 0), whose squared magnitudes sum to the target trace
    rng = np.random.default_rng(9)
    side = 6

    def piece(m):
        f = rng.normal(size=(side, m)) + 1j * rng.normal(size=(side, m))
        return f, rng.normal(size=m)

    blocks = [[piece(2)], [piece(side)], [piece(side + 5)], [piece(3), piece(0), piece(4)],
              [piece(0)], [piece(2)], [piece(1), piece(1)], [], [piece(3)]]
    pieces = [(x, f, s) for x, p in enumerate(blocks) for f, s in p]
    pool = np.concatenate([f.T for _, f, _ in pieces])
    block = np.concatenate([np.full(f.shape[1], x) for x, f, _ in pieces])
    weight = np.concatenate([s for _, _, s in pieces])
    shuffle = rng.permutation(len(pool))
    assert (np.diff(block[shuffle]) < 0).any()
    for width in (0, 2):
        table = rng.normal(size=(3, side, width)) + 1j * rng.normal(size=(3, side, width))
        idx = rng.integers(0, 3, size=(len(blocks), 1))
        got, mass = _trace_norm_sum(pool, block[shuffle], shuffle, weight[shuffle], table, idx)
        want = sum(trace_norm(sum(((f * s) @ f.conj().T for f, s in p), t @ t.conj().T))
                   for t, p in zip(table[idx[:, 0]], blocks))
        assert abs(got - want) < 1e-12
        assert abs(mass - np.sum(np.abs(table[idx[:, 0]]) ** 2)) < 1e-12


# dA != dB: scored at n = 2 only, where each oracle takes a tenth of a second
UNEQUAL_DIMS = ("qubit-qutrit", "qutrit-qubit")


def _oracle_lengths(name):
    return (2,) if name in UNEQUAL_DIMS else (2, 3)


@pytest.mark.parametrize("name", ["binary-correlated", "example1", "stochastic", "noisy",
                                  "zero-outcome", *UNEQUAL_DIMS])
def test_trial_G_matches_full_matrix_oracle(name):
    inst, d = _instance(name)
    decoded = 0
    for n in _oracle_lengths(name):
        oracle = _Oracle(inst.state, d, n)
        for seed in (0, 1, 2):
            _, params, _, _, _, binned_A, binned_B, decoder, typicals = _pieces(
                inst, seed=seed, n=n, d=d)
            r = faithfulness_trial(params, inst.state, d)
            assert (r.collisions, r.occupied) == (decoder.collisions, decoder.occupied)
            family = overall_povm(binned_A, binned_B, decoder, typicals, d)
            assert abs(r.faithfulness_G - oracle.G(family)) < 1e-12
            decoded += len(decoder.cells)
    if name in UNEQUAL_DIMS:
        assert decoded > 0


@pytest.mark.parametrize("name", ["binary-correlated", "stochastic"])
def test_trial_gather_cap_matches_uncapped(name, monkeypatch):
    # under a cap of a few entries every block is gathered and scored on its
    # own, and G, s1 and s2 match the scores taken one gather per width
    inst, d = _instance(name)
    batches = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        if a.ndim == 3:  # a batch of R diag(s) R^dag blocks
            batches.append(a.shape[0])
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    for n, seed in ((4, 0), (4, 1), (5, 0)):
        params = dataclasses.replace(inst.params, n=n, seed=seed)
        want = faithfulness_trial(params, inst.state, d)
        want_split = error_split(params, inst.state, d)
        assert max(batches) > 1
        batches.clear()
        with monkeypatch.context() as m:
            m.setattr(protocol, "GATHER_CAP", 4)
            got = faithfulness_trial(params, inst.state, d)
            got_split = error_split(params, inst.state, d)
        assert set(batches) == {1}
        batches.clear()
        assert abs(got.faithfulness_G - want.faithfulness_G) < 1e-12
        for got_s, want_s in zip(got_split, want_split):
            assert abs(got_s - want_s) < 1e-12


def _scoring_calls(monkeypatch):
    """The _trace_norm_sum inputs of a trial and its split on binary-correlated
    at n = 5, stochastic_binary at n = 4 and the qubit-qutrit instance
    unequal_dims((2, 3), 0) at n = 3."""
    score, calls = protocol._trace_norm_sum, []

    def spy(*args):
        calls.append(args)
        return score(*args)

    cases = ((_instance("binary-correlated"), 5), (_instance("stochastic"), 4),
             (unequal_dims((2, 3), 0), 3))
    with monkeypatch.context() as m:
        m.setattr(protocol, "_trace_norm_sum", spy)
        for (inst, d), n in cases:
            params = dataclasses.replace(inst.params, n=n)
            faithfulness_trial(params, inst.state, d)
            error_split(params, inst.state, d)
    return calls


def test_trace_norm_sum_agrees_across_chunkings(monkeypatch):
    # under a cap of one entry every target row is its own row chunk and
    # every block its own batch; the scores and the target masses agree with
    # the default cap's, where a row chunk holds blocks of several widths
    calls = _scoring_calls(monkeypatch)
    want = [_trace_norm_sum(*c) for c in calls]
    monkeypatch.setattr(protocol, "GATHER_CAP", 1)
    for c, w in zip(calls, want):
        for got, value in zip(_trace_norm_sum(*c), w):
            assert abs(got - value) <= 1e-13 * value


def test_trace_norm_sum_builds_each_row_chunk_once(monkeypatch):
    # one kron_rows call gives a row chunk's target columns to every width
    # scored in it and to its target mass, under caps that put every row,
    # several rows or every row of a call in one chunk
    calls = _scoring_calls(monkeypatch)
    kron, built = protocol.kron_rows, []

    def spy(table, idx):
        built.append(len(idx))
        return kron(table, idx)

    monkeypatch.setattr(protocol, "kron_rows", spy)
    for cap in (1, 2 ** 9, protocol.GATHER_CAP):
        monkeypatch.setattr(protocol, "GATHER_CAP", cap)
        for pool, block, col, weight, table, idx in calls:
            rows = max(1, cap // max(1, table.shape[2] ** idx.shape[1] * pool.shape[1]))
            built.clear()
            _trace_norm_sum(pool, block, col, weight, table, idx)
            assert built == [min(rows, len(idx) - a) for a in range(0, len(idx), rows)]


_MEMORY_INSTANCES = {
    "binary-correlated": lambda: _instance("binary-correlated"),
    "stochastic": lambda: _instance("stochastic"),
    "qubit-qutrit": lambda: unequal_dims((2, 3), 0),
    "rank-2": lambda: low_rank_two_qubit(2, 1),
}


@pytest.mark.parametrize("name,n", [("binary-correlated", 5), ("stochastic", 5),
                                    ("qubit-qutrit", 3), ("rank-2", 5)])
def test_trial_memory_is_bounded_by_its_pool(name, n, monkeypatch):
    # With a warm setup, a trial or split holds at once, at most:
    # - the pool, K rows of r^n complex entries, the one product the sandwich
    #   pass forms (its half product, held only while the pool forms, is
    #   smaller than the block terms below on these instances);
    # - the widest block's factor F (m columns of r^n entries, target columns
    #   included) and its weighted copy, as a block alone wider than
    #   GATHER_CAP is written into a factor alone;
    # - that block's Gram matrix, min(m, r^n) on a side, and eigvalsh's
    #   copy of it, the Gram being no larger than F;
    # - the entry arrays: ids, columns, weights and the scoring's sorted
    #   copies, at most 10 arrays of 8 bytes for each of the K columns and
    #   the E entries of the scoring call with the most entries;
    # - 16 chunks of GATHER_CAP complex entries: one row chunk's target
    #   columns, held next to each batch's factor until the chunk's last
    #   batch has copied them, their squared magnitudes for the target mass,
    #   and the factors, pool gathers and weight rows of other batches, with
    #   their temporaries.
    inst, d = _MEMORY_INSTANCES[name]()
    params = dataclasses.replace(inst.params, n=n)
    monkeypatch.setattr(protocol, "GATHER_CAP", 2 ** 12)
    score = protocol._trace_norm_sum
    calls = []

    def spy(pool, block, col, weight, table, idx):
        m = np.bincount(block, minlength=len(idx)).max() + table.shape[2] ** idx.shape[1]
        calls.append((pool.nbytes, pool.shape[1], m, len(block)))
        return score(pool, block, col, weight, table, idx)

    faithfulness_trial(params, inst.state, d)  # builds the setup
    monkeypatch.setattr(protocol, "_trace_norm_sum", spy)
    for run in (faithfulness_trial, error_split):
        tracemalloc.start()
        try:
            run(params, inst.state, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pool_bytes, side, _, _ = calls[0]
        m = max(c[2] for c in calls)
        entries = max(c[3] for c in calls) + pool_bytes // (16 * side)
        bound = (pool_bytes + 2 * 16 * m * side + 2 * 16 * min(m, side) ** 2
                 + 10 * 8 * entries + 16 * 16 * protocol.GATHER_CAP)
        calls.clear()
        assert peak <= bound, (run.__name__, peak, bound, pool_bytes)


def _haar_unitary(rng, d):
    """A Haar-random d x d unitary: the Q of a complex Gaussian matrix, its
    columns rephased so that R has a positive diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _locally_rotated(inst, d, seed):
    """(state, decomposition) with U_A x U_B applied to the state and U_A, U_B
    to each side's POVM elements, both unitaries Haar-drawn at seed."""
    rng = np.random.default_rng(seed)
    ua, ub = (_haar_unitary(rng, k) for k in d.dims)
    u = np.kron(ua, ub)
    state = DensityOperator(u @ inst.state.mat @ u.conj().T, inst.state.dims)

    def rotate(m, v):
        return type(m)(m.outcomes, tuple(v @ op @ v.conj().T for op in m.operators), tol=m.tol)

    return state, SeparableDecomposition(rotate(d.povm_A, ua), rotate(d.povm_B, ub),
                                         d.z_alphabet, d.rows)


@pytest.mark.parametrize("name", ["binary-correlated", "rank-1-0", "rank-1-1", "rank-1-2"])
def test_local_unitary_leaves_trial_unchanged(name):
    # The protocol sees a state and its measurements only through local
    # eigenspaces and traces, so rotating side A by U_A and side B by U_B
    # changes no probability the draws read: at the same seed, G, its
    # leakage and missed mass, and s1 and s2 agree up to rounding.  This
    # checks the scoring past the full-matrix oracles' n = 3, where the
    # rank-1 states, which do not commute with their POVMs, decode hundreds
    # of cells.  s1 and s2 sum one trace norm per scored block, each off by
    # a few ulps, so their tolerance is 1e-15 per block of the split (1e-14
    # at least); at n = 6 they moved by up to 1.2e-16 per block
    if name == "binary-correlated":
        inst = fixtures.load_fixture(name)
        d = inst.decomposition
    else:
        inst, d = low_rank_two_qubit(1, int(name[-1]))
    state, rotated = _locally_rotated(inst, d, 7)
    for n in range(2, 7):
        params = dataclasses.replace(inst.params, n=n)
        want = faithfulness_trial(params, inst.state, d)
        want_split = error_split(params, inst.state, d)
        real = protocol._realize(params, inst.state, d)
        blocks = len(np.unique(np.concatenate([real.pair_code, real.decoded_code])))
        got = faithfulness_trial(params, state, rotated)
        got_split = error_split(params, state, rotated)
        assert abs(got.faithfulness_G - want.faithfulness_G) < 1e-12
        for key in ("leakage", "missed_mass"):
            assert abs(got.diagnostics[key] - want.diagnostics[key]) < 1e-12
        for got_s, want_s in zip(got_split, want_split):
            assert abs(got_s - want_s) < max(1e-14, 1e-15 * blocks), (n, blocks)


def _padded_on_a(state, d, c):
    """(state, decomposition) with side A padded by one dimension the state
    never reaches, each A element u extended by c[u] there (sum c = 1)."""
    dA, dB = state.dims
    iso = np.kron(np.eye(dA + 1, dA), np.eye(dB))

    def pad(op, cu):
        out = np.pad(op, (0, 1))
        out[dA, dA] = cu
        return out

    m = d.povm_A
    povm = type(m)(m.outcomes, tuple(map(pad, m.operators, c)), tol=m.tol)
    return (DensityOperator(iso @ state.mat @ iso.T, (dA + 1, dB)),
            SeparableDecomposition(povm, d.povm_B, d.z_alphabet, d.rows))


def _trial_outputs(params, state, d):
    r = faithfulness_trial(params, state, d)
    return (r.faithfulness_G, r.diagnostics["leakage"], r.diagnostics["missed_mass"],
            *error_split(params, state, d))


@pytest.mark.parametrize("name", ["binary-correlated", "example1", "stochastic"])
def test_zero_weight_embedding_leaves_trial_and_region_unchanged(name):
    # A dimension of side A that the state never reaches adds nothing any
    # draw or score reads: the state's support, its local spectra and every
    # sandwich stay the same whatever the POVM elements do there, so G, its
    # leakage and missed mass, s1, s2 and every region source agree up to
    # rounding.  This runs the support factor and the pseudo-inverses on a
    # rank-deficient side, with c one-hot and uniform
    inst, d = _instance(name)
    k = len(d.povm_A.outcomes)
    want_sources = region_for(inst.state, d).sources
    runs = [dataclasses.replace(inst.params, n=n, seed=0) for n in (2, 3, 4)]
    want = [_trial_outputs(params, inst.state, d) for params in runs]
    for c in (np.eye(k)[0], np.full(k, 1.0 / k)):
        state, padded = _padded_on_a(inst.state, d, c)
        sources = region_for(state, padded).sources
        assert sources.keys() == want_sources.keys()
        for key, value in want_sources.items():
            assert abs(sources[key] - value) < 1e-12, (c, key)
        for params, w in zip(runs, want):
            got = _trial_outputs(params, state, padded)
            assert np.max(np.abs(np.subtract(got, w))) < 1e-12, (c, params.n, got, w)


@pytest.mark.parametrize("name", ["binary-correlated", "example1", "stochastic",
                                  "off-by-tol"])
def test_factored_resummation_matches_dense(name):
    # the trial reports a bound on the dense residual: exactly 0 when every
    # image weight is exactly 1, rounding-sized on float row sums, and above
    # the acceptance limit on rows that miss 1 by up to the tolerance
    inst, d = _instance(name)
    for N1, N2 in ((1, 1), (2, 3)):
        inst_mu = dataclasses.replace(inst, params=dataclasses.replace(inst.params, N1=N1, N2=N2))
        for n in (2, 3, 4):
            _, params, _, _, _, binned_A, binned_B, decoder, typicals = _pieces(
                inst_mu, n=n, d=d)
            r = faithfulness_trial(params, inst.state, d)
            dense = _dense_resummation_error(binned_A, binned_B, decoder, typicals, d)
            assert dense <= r.resummation_error + 1e-14
            if name == "off-by-tol":
                assert r.resummation_error > 1e-10
                continue
            assert r.resummation_error <= 1e-10
            if name == "stochastic":
                assert r.resummation_error > 0.0  # the float row sums miss 1
            else:
                assert r.resummation_error == 0.0


@pytest.mark.parametrize("name", ["binary-correlated", "example1", "stochastic", "noisy",
                                  "zero-outcome", *UNEQUAL_DIMS])
def test_error_split_matches_full_matrix_oracle(name):
    inst, d = _instance(name)
    decoded = 0
    for n in _oracle_lengths(name):
        oracle = _Oracle(inst.state, d, n)
        for seed in (0, 1, 2):
            _, params, _, fams_A, fams_B, binned_A, binned_B, decoder, typicals = _pieces(
                inst, seed=seed, n=n, d=d)
            got_s1, got_s2 = error_split(params, inst.state, d)
            s1, s2 = oracle.split(*_typical_sets(inst.state, d, params),
                                  unbinned_family(fams_A, fams_B),
                                  decoded_family(binned_A, binned_B, decoder, typicals))
            assert abs(got_s1 - s1) < 1e-12
            assert abs(got_s2 - s2) < 1e-12
            decoded += len(decoder.cells)
    if name in UNEQUAL_DIMS:
        assert decoded > 0


@pytest.mark.parametrize("name", ["binary-correlated", "example1", "stochastic", "noisy",
                                  "zero-outcome"])
def test_multi_mu_trial_matches_full_matrix_oracle(name):
    # several common-randomness indices per side: codeword pairs recur across
    # (mu1, mu2), each (mu1, mu2) has its own bins and decoder cells, and the
    # sandwich pads each (mu1, mu2) to its own factor width
    inst, d = _instance(name)
    for N1, N2 in ((2, 3), (3, 2)):
        inst_mu = dataclasses.replace(inst, params=dataclasses.replace(inst.params, N1=N1, N2=N2))
        for n in (2, 3):
            oracle = _Oracle(inst.state, d, n)
            for seed in (0, 1):
                _, params, _, fams_A, fams_B, binned_A, binned_B, decoder, typicals = _pieces(
                    inst_mu, seed=seed, n=n, d=d)
                assert decoder.n_mu == (N1, N2)
                r = faithfulness_trial(params, inst.state, d)
                family = overall_povm(binned_A, binned_B, decoder, typicals, d)
                assert abs(r.faithfulness_G - oracle.G(family)) < 1e-12
                got_s1, got_s2 = error_split(params, inst.state, d)
                s1, s2 = oracle.split(*_typical_sets(inst.state, d, params),
                                      unbinned_family(fams_A, fams_B),
                                      decoded_family(binned_A, binned_B, decoder, typicals))
                assert abs(got_s1 - s1) < 1e-12
                assert abs(got_s2 - s2) < 1e-12


def test_error_split_bounds_total():
    # example1 at n = 4 has |T_A| |T_B| > 4096 typical pairs; the split is
    # scored over codeword pairs only, so it is reported there too
    cases = [("binary-correlated", 2, 1, 1), ("binary-correlated", 3, 1, 1), ("example1", 4, 1, 1),
             ("stochastic", 2, 1, 1), ("stochastic", 3, 1, 1)]
    cases += [(name, n, 2, 3) for name in ("binary-correlated", "example1", "stochastic")
              for n in (2, 3)]
    for name, n, N1, N2 in cases:
        inst, d = _instance(name)
        for seed in (0, 1, 2):
            p = dataclasses.replace(inst.params, n=n, seed=seed, N1=N1, N2=N2)
            r = faithfulness_trial(p, inst.state, d)
            s1, s2 = error_split(p, inst.state, d)
            assert r.faithfulness_G <= s1 + s2 + 1e-9


@pytest.mark.parametrize("name,n,seed,G,s1,s2", [
    ("binary-correlated", 5, 0,
     "0x1.9ee580535c3abp-1", "0x1.9ee580535c3abp-1", "0x1.0894262bf8313p-55"),
    ("binary-correlated", 5, 1,
     "0x1.e20d2b75d199bp-1", "0x1.a20d2b75d1999p-1", "0x1.c4422acf19242p-3"),
    ("binary-correlated", 6, 0,
     "0x1.ea256281cf11bp-1", "0x1.d49bd931b498fp-1", "0x1.bafae90845b68p-5"),
    ("example1", 3, 0,
     "0x1.ff00000000000p+0", "0x1.fae0000000000p+0", "0x1.88ea8a6d697aap-3"),
    ("example1", 3, 1,
     "0x1.ff00000000000p+0", "0x1.f340000000000p+0", "0x1.596bba65d011cp-2"),
])
def test_trial_and_split_pinned(name, n, seed, G, s1, s2):
    # bit patterns recorded when G and the split were still scored in one
    # call; scoring them apart must not move a bit
    inst = fixtures.load_fixture(name)
    p = dataclasses.replace(inst.params, n=n, seed=seed)
    assert faithfulness_trial(p, inst.state, inst.decomposition).faithfulness_G.hex() == G
    assert [x.hex() for x in error_split(p, inst.state, inst.decomposition)] == [s1, s2]


# ---------------------------------------------------------------------------
# the seed-independent setup, built once per (state, decomposition, n, delta)
# ---------------------------------------------------------------------------

def _report_bits(r):
    """Every field of a TrialReport, floats as float.hex."""
    def bits(x):
        return x.hex() if isinstance(x, float) else x

    return (bits(r.faithfulness_G), bits(r.resummation_error), r.sub_povm_valid_A,
            r.sub_povm_valid_B, [bits(x) for x in r.excess_A + r.excess_B],
            r.collisions, r.occupied, {k: bits(v) for k, v in r.diagnostics.items()})


def _entry(name):
    """The (key, value) entry protocol._kept holds under name, or None."""
    return protocol._slots.get(name)


def _cold(monkeypatch, fn, *args, **kwargs):
    """fn(*args, **kwargs) with every slot emptied first."""
    monkeypatch.setattr(protocol, "_slots", {})
    return fn(*args, **kwargs)


@pytest.mark.parametrize("name", ["binary-correlated", "example1", "stochastic"])
def test_warm_setup_scores_bit_equal_to_cold(name, monkeypatch):
    inst, d = _instance(name)
    for n, seed in ((2, 0), (3, 1), (3, 2)):
        params = dataclasses.replace(inst.params, n=n, seed=seed)
        cold_trial = _report_bits(_cold(monkeypatch, faithfulness_trial, params, inst.state, d))
        cold_split = [x.hex() for x in _cold(monkeypatch, error_split, params, inst.state, d)]
        slot = _entry("trial")
        assert _report_bits(faithfulness_trial(params, inst.state, d)) == cold_trial
        assert [x.hex() for x in error_split(params, inst.state, d)] == cold_split
        assert _entry("trial") is slot


def test_equal_inputs_as_new_objects_hit_the_setup():
    # an instance file re-read on every call carries equal values in new
    # objects: a JSON round trip of the fixture's state and decomposition
    inst = fixtures.load_fixture("example1")
    params = dataclasses.replace(inst.params, n=3)
    want = _report_bits(faithfulness_trial(params, inst.state, inst.decomposition))
    slot = _entry("trial")
    state = serialize.density_from_json("state", json.loads(json.dumps(
        serialize.density_to_json(inst.state))))
    d = serialize.decomposition_from_json("decomposition", json.loads(json.dumps(
        serialize.decomposition_to_json(inst.decomposition))))
    assert state.mat is not inst.state.mat and d is not inst.decomposition
    assert _report_bits(faithfulness_trial(params, state, d)) == want
    assert _entry("trial") is slot


def test_changed_state_n_or_delta_misses_the_setup(monkeypatch):
    inst, d = _instance("binary-correlated")
    params = dataclasses.replace(inst.params, n=3)
    mat = np.array(inst.state.mat)
    mat[0, 0] += 1e-12  # one entry, inside the trace tolerance
    changed = DensityOperator(mat, inst.state.dims)
    for p, state in ((params, changed), (dataclasses.replace(params, n=4), inst.state),
                     (dataclasses.replace(params, delta=0.7), inst.state)):
        faithfulness_trial(params, inst.state, d)
        slot = _entry("trial")
        got = _report_bits(faithfulness_trial(p, state, d))
        assert _entry("trial")[0] != slot[0]
        assert _report_bits(_cold(monkeypatch, faithfulness_trial, p, state, d)) == got


def test_setup_and_fixture_arrays_are_read_only():
    inst = fixtures.load_fixture("example1")
    assert fixtures.load_fixture("example1") is inst
    faithfulness_trial(inst.params, inst.state, inst.decomposition)
    setup = _entry("trial")[1]
    bundle = setup.bundles[0]
    arrays = [setup.p_uv, setup.c1, setup.frame, setup.law, *setup.columns[0], *setup.columns[1],
              setup.target_factors, *setup.rows, *setup.letter_maps, bundle.pi_rho,
              bundle.pi_hat, bundle.factors, bundle.vals, bundle.offsets, bundle.typical.seqs,
              bundle.typical.probs, bundle.pruned.probs,
              inst.state.mat, inst.decomposition.povm_A.operators[0],
              inst.decomposition.row("0", "0"), inst.p_uv, inst.delta_obs,
              inst.ensemble.weights, inst.ensemble.states[0].mat,
              next(iter(inst.recon.values())).mat]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a += 0


def test_failing_setup_is_not_kept():
    # four uniform letters leave no delta = 0.1 typical sequence at n = 2,
    # so the setup's bundle build raises, on every call
    inst = fixtures.load_fixture("example1")
    faithfulness_trial(inst.params, inst.state, inst.decomposition)
    slot = _entry("trial")
    bad = dataclasses.replace(inst.params, delta=0.1)
    for score in (faithfulness_trial, faithfulness_trial, error_split):
        with pytest.raises(InvariantError, match="empty typical set"):
            score(bad, inst.state, inst.decomposition)
        assert _entry("trial") is slot


def test_trial_report_validation():
    p = ProtocolParams(n=2, Rt1=1.0, Rt2=1.0, R1=0.5, R2=0.5)
    with pytest.raises(InvariantError):
        TrialReport(p, -0.1, (), (), (), (), 0, 0, 0.0)
    empty = TrialReport(p, 0.0, (), (), (), (), 0, 0, 0.0)
    assert empty.collision_rate == 0.0
    assert empty.sub_povm_valid


# ---------------------------------------------------------------------------
# covering and reduction identities
# ---------------------------------------------------------------------------

def test_mutual_covering_subadditive():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, (2, 2))
        ta = random_povm(rng, 2, 3)
        tb = random_povm(rng, 2, 2)
        sa = random_sub_povm(rng, ta)
        sb = random_sub_povm(rng, tb)
        f_a, f_b, f_joint = mutual_covering_check(rho, sa, sb, ta, tb)
        assert f_joint <= f_a + f_b + 1e-9
        assert f_a >= 0 and f_b >= 0


def test_separate_check_equality_product_state_complete_side():
    # with a complete side-B POVM the two sides coincide exactly on product
    # states: each term factorizes and the side-B traces sum to one
    for seed in range(10):
        rng = np.random.default_rng(seed)
        rho_a = random_density(rng, (2,))
        rho_b = random_density(rng, (2,))
        rho = DensityOperator(np.kron(rho_a.mat, rho_b.mat), (2, 2))
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        gamma = a + a.conj().T
        lhs, rhs = separate_check(rho, gamma, random_povm(rng, 2, 3))
        assert abs(lhs - rhs) < 1e-9


def test_separate_check_strict_gap_for_correlated_state():
    # completeness alone does not force equality: a maximally entangled
    # state with a traceless observable sends every term to zero
    bell = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    rho = DensityOperator(bell, (2, 2))
    gamma = np.array([[0.0, 1.0], [1.0, 0.0]])
    lhs, rhs = separate_check(rho, gamma, fixtures.computational_povm())
    assert lhs < 1e-12
    assert abs(rhs - 1.0) < 1e-12


def test_separate_check_inequality_holds_generally():
    # the bound needs neither completeness nor product structure
    for seed in range(10):
        rng = np.random.default_rng(seed + 11)
        rho = random_density(rng, (2, 2))
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        gamma = a + a.conj().T
        full = random_povm(rng, 2, 3)
        sub = random_sub_povm(rng, full)
        for side in (full, sub):
            lhs, rhs = separate_check(rho, gamma, side)
            assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# packing, binning, soft covering
# ---------------------------------------------------------------------------

def test_packing_paths_agree_under_local_rotation():
    # the diagonal fast path and the dense operator path must score the same
    # instance: rotating both POVMs by local unitaries preserves the norm
    comp = fixtures.computational_povm()
    theta = 0.6
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rot = Povm(comp.outcomes, tuple(u @ op @ u.T for op in comp.operators))
    fast = packing_norm_trial(comp, comp, PUV_DIAG, 4, 0.5, 0.5, 0.3, seed=7)
    dense = packing_norm_trial(rot, rot, PUV_DIAG, 4, 0.5, 0.5, 0.3, seed=7)
    assert abs(fast - dense) < 1e-9


def _packing_povm_pairs():
    """Seeded random POVM pairs of equal and unequal dimensions, a
    diagonal/non-diagonal mix and the rotated computational POVM."""
    rng = np.random.default_rng(5)
    pairs = [(random_povm(rng, dA, 2), random_povm(rng, dB, 2))
             for dA, dB in ((2, 2), (2, 3), (3, 2))]
    comp = fixtures.computational_povm()
    c, s = np.cos(0.6), np.sin(0.6)
    u = np.array([[c, -s], [s, c]])
    rot = Povm(comp.outcomes, tuple(u @ op @ u.T for op in comp.operators))
    return pairs + [(comp, rot), (rot, rot)]


def test_packing_norm_matches_pairwise_kron_oracle():
    # the one-contraction slab against the pair-by-pair Kronecker sum, on
    # dense, unequal-dimension and mixed POVM pairs
    p_uv = np.array([[0.4, 0.1], [0.1, 0.4]])
    norms = []
    for povm_A, povm_B in _packing_povm_pairs():
        for n in (1, 2, 3):
            for seed in range(3):
                args = (povm_A, povm_B, p_uv, n, 0.75, 0.75, 1.5, seed)
                got, want = packing_norm_trial(*args), packing_norm_dense(*args)
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (n, seed)
                norms.append(want)
    assert sum(norm > 0.0 for norm in norms) > len(norms) // 2


def test_packing_diagonal_rows_equal_kron_chains(monkeypatch):
    # du and dv hold the diagonal of each distinct drawn codeword's
    # tensor-power element, in first-draw order, bit for bit
    povm = Povm(("0", "1"), (np.diag([0.3, 0.8]), np.diag([0.7, 0.2])))
    n, rate, seed = 6, 0.75, 2
    calls = []

    def spy(table, idx):
        calls.append((idx, kron_rows(table, idx)))
        return calls[-1][1]

    monkeypatch.setattr(protocol, "kron_rows", spy)
    packing_norm_trial(povm, povm, PUV_DIAG, n, rate, rate, 0.3, seed)
    assert len(calls) == 2
    for tag, (idx, rows) in zip((STREAM_PACKING_A, STREAM_PACKING_B), calls):
        size = (protocol._count_for_rate(n, rate), n)
        draws = substream(seed, tag).choice(2, size=size, p=[0.5, 0.5])
        assert idx.tolist() == [list(u) for u in dict.fromkeys(map(tuple, draws))]
        for u, row in zip(idx, rows):
            want = reduce(np.kron, [np.real(np.diagonal(povm.op(povm.outcomes[k]))) for k in u])
            assert np.array_equal(row[:, 0], want)


def test_packing_norm_grows_with_rate():
    comp = fixtures.computational_povm()
    lo = packing_norm_trial(comp, comp, PUV_DIAG, 8, 0.25, 0.25, 0.3, seed=1)
    hi = packing_norm_trial(comp, comp, PUV_DIAG, 8, 0.75, 0.75, 0.3, seed=1)
    assert lo <= hi


def test_packing_rejects_bad_distribution():
    comp = fixtures.computational_povm()
    with pytest.raises(InvariantError):
        packing_norm_trial(comp, comp, np.array([[0.7, 0.0], [0.0, 0.5]]),
                           2, 0.5, 0.5, 0.3, seed=0)


@pytest.mark.parametrize("fill", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", [
    lambda p: packing_norm_trial(fixtures.computational_povm(), fixtures.computational_povm(),
                                 p, 2, 0.5, 0.5, 0.3, seed=0),
    lambda p: binning_collision_rate(
        ProtocolParams(n=2, Rt1=1.0, Rt2=1.0, R1=0.5, R2=0.5, delta=0.6), p),
], ids=["packing", "collision"])
def test_non_finite_joint_law_rejected(call, fill):
    with pytest.raises(InvariantError, match=rf"p_uv must be finite, got \[{fill}, {fill}, "):
        call(np.full((2, 2), fill))


def test_packing_union_proxy_hand_count():
    # L1 = L2 = 2; jointly typical members 0011 and 1100 each carry
    # product-marginal mass (1/4)^2, so the proxy is 4 * 2 / 16 = 1/2
    assert abs(packing_union_proxy(PUV_DIAG, 2, 0.5, 0.5, 0.6) - 0.5) < 1e-12


def test_binning_collision_rate_scores_one_decoder():
    # the rate is the collision share of the one decoder drawn at params.seed
    rates = []
    for seed in (0, 1, 2):
        p = ProtocolParams(n=6, Rt1=1.0, Rt2=1.0, R1=0.25, R2=0.25, delta=0.6, seed=seed)
        t = typical_set(PUV_DIAG.sum(axis=1), p.n, p.delta)
        codebook = generate_codebooks(p, pruned_distribution(t), pruned_distribution(t))
        dec = build_decoder(codebook, generate_bin_maps(p, t, t),
                            partial(typical_pairs, p_uv=PUV_DIAG, delta=p.delta))
        rates.append(binning_collision_rate(p, PUV_DIAG))
        assert dec.occupied > 0
        assert rates[-1] == dec.collisions / dec.occupied
    assert max(rates) > 0.0


def test_soft_covering_exact_floor_for_constant_ensemble():
    # identical states make the empirical average exact, leaving only the
    # deliberate (1+eta) deflation: error = eta / (1 + eta)
    rng = np.random.default_rng(5)
    rho = random_density(rng, (2,))
    ens = Ensemble((0.5, 0.5), (rho, rho), outcomes=("a", "b"))
    eta = 0.1
    err = soft_covering_trial(ens, 4, 0.5, seed=0, delta=1.0, eta=eta)
    assert abs(err - eta / (1.0 + eta)) < 1e-12


def test_soft_covering_reads_no_labels():
    # the draws are member ids and letter-index rows, so an ensemble without
    # outcome labels scores the same as its labelled copy
    rng = np.random.default_rng(12)
    states = tuple(random_density(rng, (2,)) for _ in range(3))
    labelled = Ensemble((0.2, 0.3, 0.5), states, outcomes=("a", "b", "c"))
    plain = Ensemble((0.2, 0.3, 0.5), states)
    assert (soft_covering_trial(plain, 4, 1.0, 3, delta=1.0, eta=0.1)
            == soft_covering_trial(labelled, 4, 1.0, 3, delta=1.0, eta=0.1))


def _soft_covering_cases() -> dict:
    # (ensemble, n, rate_sum, seed, delta, eta) per case
    rng = np.random.default_rng(11)
    qubits = tuple(random_density(rng, (2,)) for _ in range(3))
    qutrits = tuple(random_density(rng, (3,)) for _ in range(2))
    bench = fixtures.soft_covering_ensemble()
    return {
        "three-letters-zero-weight": (
            Ensemble((0.3, 0.0, 0.7), qubits, outcomes=("a", "b", "c")), 4, 1.5, 4, 1.0, 0.05),
        "qutrit-two-letters": (
            Ensemble((0.4, 0.6), qutrits, outcomes=("a", "b")), 3, 1.0, 2, 1.0, 0.1),
        "n-1": (Ensemble((0.2, 0.3, 0.5), qubits, outcomes=("a", "b", "c")), 1, 1.5, 0, 1.0, 0.05),
        "bench-template": (bench, 6, holevo_information(bench) + 0.6, 0, 0.8, 0.05),
    }


SOFT_COVERING_CASES = _soft_covering_cases()


def _soft_covering_oracle(ens, n, rate_sum, seed, delta, eta) -> np.ndarray:
    # target - scale * acc from a dense tensor() per distinct draw, added in
    # first-draw order
    tset = typical_set(ens.weights, n, delta, alphabet=ens.outcomes)
    M = protocol._count_for_rate(n, rate_sum)
    draws = pruned_distribution(tset).sample(substream(seed, STREAM_SOFT), M)
    members = tset.members
    counts = Counter(members[i] for i in draws.tolist())
    target = tensor(*[ens.average()] * n)
    acc = np.zeros_like(target)
    for seq, c in counts.items():
        acc += c * tensor(*(ensemble_state(ens, s).mat for s in seq))
    scale = (1.0 - max(0.0, 1.0 - tset.mass)) / ((1.0 + eta) * M)
    return target - scale * acc


@pytest.mark.parametrize("case", list(SOFT_COVERING_CASES))
def test_soft_covering_accumulator_matches_tensor_loop(case, monkeypatch):
    # the scored matrix equals the per-draw tensor() one up to rounding: the
    # contraction sums in another order, so no bit equality is asked
    args = SOFT_COVERING_CASES[case]
    scored = []
    monkeypatch.setattr(protocol, "trace_norm", lambda m: scored.append(m) or 0.0)
    soft_covering_trial(*args[:4], delta=args[4], eta=args[5])
    assert np.max(np.abs(scored[0] - _soft_covering_oracle(*args))) <= 1e-13


@pytest.mark.parametrize("case", list(SOFT_COVERING_CASES))
def test_soft_covering_error_matches_tensor_loop(case):
    args = SOFT_COVERING_CASES[case]
    got = soft_covering_trial(*args[:4], delta=args[4], eta=args[5])
    assert abs(got - trace_norm(_soft_covering_oracle(*args))) <= 1e-12


@pytest.mark.parametrize("n", [8, 9])
def test_soft_covering_peak_memory_is_two_matrices(n):
    # The fixture ensemble has d = 2 and two letters; one d^n-square complex
    # matrix takes S = 16 4^n bytes.  Contraction step k holds
    # 4^k 2^{n-k} entries, so only the last steps count: the last step's
    # input (S / 2) is freed when its tensordot product (S) is bound, and
    # the product's reordered copy (S) is then the scored matrix.  That is
    # 2 S at most; the coefficients, ranks and typical set take 2^n-entry
    # arrays, and the svd's LAPACK work space is not traced.  Building one
    # Kronecker state per draw held the target, the accumulator, a chunk of
    # states and the difference, about 5 S.
    ens = fixtures.soft_covering_ensemble()
    soft_covering_trial(ens, n, 1.0, 0, delta=0.8, eta=0.05)
    tracemalloc.start()
    try:
        soft_covering_trial(ens, n, 1.0, 0, delta=0.8, eta=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * 4 ** n


def test_soft_covering_error_drops_above_holevo_rate():
    ens = fixtures.soft_covering_ensemble()
    chi = 0.600876
    lo = np.median([soft_covering_trial(ens, 6, chi - 0.4, s, delta=0.8, eta=0.05)
                    for s in range(5)])
    hi = np.median([soft_covering_trial(ens, 6, chi + 0.6, s, delta=0.8, eta=0.05)
                    for s in range(5)])
    assert hi < lo


# ---------------------------------------------------------------------------
# the sweeps' seed-independent slots, one per sweep kind
# ---------------------------------------------------------------------------

def _collision(p_uv, n, delta, seed):
    return binning_collision_rate(
        ProtocolParams(n=n, Rt1=1.25, Rt2=1.25, R1=0.8, R2=0.8, delta=delta, seed=seed), p_uv)


def _soft_covering(ens, n, delta, seed):
    return soft_covering_trial(ens, n, 1.0, seed, delta=delta, eta=0.05)


def _packing(source, n, delta, seed):
    povm_A, povm_B, p_uv = source
    return packing_norm_trial(povm_A, povm_B, p_uv, n, 0.75, 0.75, delta, seed)


def _json_law(p):
    return np.array(json.loads(json.dumps(np.asarray(p).tolist())))


def _json_povm(m):
    return serialize.povm_from_json("povm", json.loads(json.dumps(serialize.povm_to_json(m))))


def _nudged(mat, by=1e-12):
    """A copy of mat with its [0, 0] entry moved by ``by``, inside every tol."""
    out = np.array(mat)
    out[0, 0] += by
    return out


def _sweep_slot_cases() -> dict:
    # name: (run(source, n, delta, seed), source, (n, delta), its JSON round
    # trip, (source, n, delta) calls that differ from it in one value and
    # miss the slot, and such calls that hit it, the slot not depending on
    # the changed value)
    inst = fixtures.load_fixture("binary-correlated")
    p, ens = inst.p_uv, inst.ensemble
    povm = inst.decomposition.povm_A
    law = _nudged(p) - np.diag([0.0, 1e-12])  # 1e-12 moved from p[1, 1] to p[0, 0]
    nudged_povm = Povm(povm.outcomes, (_nudged(povm.operators[0]), povm.operators[1]))
    packing = (povm, povm, p)
    return {
        "collision": (_collision, p, (4, 0.6), _json_law,
                      [(law, 4, 0.6), (p, 5, 0.6), (p, 4, 0.7)], []),
        "soft-covering": (
            _soft_covering, ens, (4, 0.8),
            lambda e: serialize.ensemble_from_json("ensemble", json.loads(json.dumps(
                ensemble_payload(e)))),
            [(Ensemble(ens.weights + [1e-12, -1e-12], ens.states, ens.outcomes), 4, 0.8),
             (ens, 5, 0.8), (ens, 4, 0.9)],
            [(Ensemble(ens.weights, (DensityOperator(_nudged(ens.states[0].mat), (2,)),
                                     ens.states[1]), ens.outcomes), 4, 0.8)]),
        "packing": (
            _packing, packing, (4, 0.6),
            lambda s: (_json_povm(s[0]), _json_povm(s[1]), _json_law(s[2])),
            [((povm, povm, law), 4, 0.6), ((nudged_povm, povm, p), 4, 0.6),
             ((povm, nudged_povm, p), 4, 0.6)],
            [(packing, 5, 0.6), (packing, 4, 0.7)]),
    }


SWEEP_SLOTS = _sweep_slot_cases()


@pytest.mark.parametrize("name", list(SWEEP_SLOTS))
def test_warm_sweep_rows_bit_equal_to_cold(name, monkeypatch):
    run, source, (_, delta), *_ = SWEEP_SLOTS[name]
    for n, seed in ((2, 0), (3, 1), (4, 2), (4, 3)):
        cold = _cold(monkeypatch, run, source, n, delta, seed).hex()
        slot = _entry(name)
        assert run(source, n, delta, seed).hex() == cold
        assert _entry(name) is slot


@pytest.mark.parametrize("name", list(SWEEP_SLOTS))
def test_equal_sweep_inputs_as_new_objects_hit_the_slot(name):
    # an instance file re-read on every row carries equal values in new objects
    run, source, (n, delta), round_trip, *_ = SWEEP_SLOTS[name]
    want = run(source, n, delta, 0).hex()
    slot = _entry(name)
    copy = round_trip(source)
    assert copy is not source
    assert run(copy, n, delta, 0).hex() == want
    assert _entry(name) is slot


@pytest.mark.parametrize("name", list(SWEEP_SLOTS))
def test_changed_sweep_input_n_or_delta_misses_the_slot(name, monkeypatch):
    run, source, (n, delta), _, misses, hits = SWEEP_SLOTS[name]
    for args, hit in [(a, False) for a in misses] + [(a, True) for a in hits]:
        run(source, n, delta, 0)
        slot = _entry(name)
        got = run(*args, 1).hex()
        assert (_entry(name) is slot) == hit
        assert _cold(monkeypatch, run, *args, 1).hex() == got


@pytest.mark.parametrize("name", list(SWEEP_SLOTS))
def test_sweep_slot_arrays_are_read_only(name):
    def arrays(obj):
        if isinstance(obj, np.ndarray):
            return [obj]
        if dataclasses.is_dataclass(obj):
            obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
        return [a for x in obj for a in arrays(x)] if isinstance(obj, (tuple, list)) else []

    run, source, (n, delta), *_ = SWEEP_SLOTS[name]
    run(source, n, delta, 0)
    kept = arrays(_entry(name)[1])
    assert kept
    for a in kept:
        with pytest.raises(ValueError, match="read-only"):
            a += 0


@pytest.mark.parametrize("name", list(SWEEP_SLOTS))
def test_failing_sweep_build_is_not_kept(name, monkeypatch):
    # at n = 3 and delta = 0.01 no binary string is typical for the uniform
    # marginals, so the pruning raises; the packing build reads no typical
    # set, so its letter tables are made to raise for a changed law
    run, source, (n, delta), _, misses, _ = SWEEP_SLOTS[name]
    run(source, n, delta, 0)
    slot = _entry(name)
    bad, match = (source, 3, 0.01), "empty typical set"
    if name == "packing":
        def refuse(povm):
            raise InvariantError("letter table refused")

        monkeypatch.setattr(protocol, "_diagonal_vectors", refuse)
        bad, match = misses[0], "letter table refused"
    for _ in range(2):
        with pytest.raises(InvariantError, match=match):
            run(*bad, 0)
        assert _entry(name) is slot
    run(source, n, delta, 1)
    assert _entry(name) is slot


# ---------------------------------------------------------------------------
# distortion of the decoded protocol
# ---------------------------------------------------------------------------

def test_distortion_identity_observable_is_one():
    inst, _, _, _, _, binned_A, binned_B, decoder, typicals = _pieces()
    recon = {(u, v): st for (u, v, _), st in inst.recon.items()}
    got = distortion_of_protocol(binned_A, binned_B, decoder, typicals, recon,
                                 np.eye(8), inst.state)
    assert abs(got - 1.0) < 1e-9


@pytest.mark.parametrize("name", ["binary-correlated", "example1"])
def test_distortion_matches_full_matrix_oracle(name):
    inst = fixtures.load_fixture(name)
    recon = {(u, v): st for (u, v, _), st in inst.recon.items()}
    rng = np.random.default_rng(8)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    for n in (2, 3):
        for seed in (0, 1):
            _, _, _, _, _, binned_A, binned_B, decoder, typicals = _pieces(inst, seed=seed, n=n)
            for obs in (inst.delta_obs, a + a.conj().T):
                got = distortion_of_protocol(binned_A, binned_B, decoder, typicals, recon,
                                             obs, inst.state)
                want = _dense_distortion(binned_A, binned_B, decoder, typicals, recon,
                                         obs, inst.state)
                assert abs(got - want) < 1e-12


def test_distortion_complementary_observables_sum_to_one():
    inst, _, _, _, _, binned_A, binned_B, decoder, typicals = _pieces()
    recon = {(u, v): st for (u, v, _), st in inst.recon.items()}
    p1 = np.kron(np.eye(4), np.diag([0.0, 1.0]))
    p0 = np.kron(np.eye(4), np.diag([1.0, 0.0]))
    d1 = distortion_of_protocol(binned_A, binned_B, decoder, typicals, recon, p1, inst.state)
    d0 = distortion_of_protocol(binned_A, binned_B, decoder, typicals, recon, p0, inst.state)
    assert abs((d0 + d1) - 1.0) < 1e-9
    assert d0 >= -1e-12 and d1 >= -1e-12
