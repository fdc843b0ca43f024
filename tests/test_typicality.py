"""Typical sets, pruned distributions, and the projector bundle."""

import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from oracles import ensemble_state, power
from povmsim import fixtures, typicality
from povmsim.errors import CapExceededError, InvariantError
from povmsim.measurement import canonical_ensemble
from povmsim.operators import DensityOperator, Ensemble, weighted_gram
from povmsim.typicality import (
    all_sequences,
    build_projector_bundle,
    pruned_distribution,
    typical_pairs,
    typical_set,
)
from typical_oracle import (
    _letter_indices,
    conditional_typical_projector,
    groups_by_loop,
    sequence_prob,
    typical_pairs_by_row,
    typical_projector,
)

KET0 = np.array([1.0, 0.0])
KETP = np.array([1.0, 1.0]) / np.sqrt(2)


def _proj(v):
    return np.outer(v, v.conj())


def _brute_typical(probs, n, delta):
    """Set of typical index strings and their total mass, by full enumeration."""
    k = len(probs)
    members = set()
    mass = 0.0
    for seq in itertools.product(range(k), repeat=n):
        ok = True
        for i, p in enumerate(probs):
            if abs(seq.count(i) / n - p) > delta * p + 1e-9:
                ok = False
                break
        if ok:
            members.add(seq)
            mass += float(np.prod([probs[s] for s in seq]))
    return members, mass


# ---------------------------------------------------------------------------
# classical typical sets
# ---------------------------------------------------------------------------

def test_typical_set_matches_bruteforce():
    probs = (0.3, 0.7)
    want_members, want_mass = _brute_typical(probs, 6, 0.5)
    t = typical_set(probs, 6, 0.5)
    assert set(t.members) == want_members
    assert abs(t.mass - want_mass) < 1e-12
    # member ids follow the lexicographic order of the rows
    assert t.members == tuple(sorted(want_members))
    assert (0, 0, 0, 0, 0, 0) not in t.members


def test_typical_mass_grows_with_blocklength():
    early = typical_set((0.3, 0.7), 4, 0.4).mass
    late = typical_set((0.3, 0.7), 14, 0.4).mass
    assert early < late


def test_typical_set_carries_alphabet_labels():
    t = typical_set((0.5, 0.5), 2, 0.6, alphabet=("a", "b"))
    assert set(t.members) == {("a", "b"), ("b", "a")}


def test_typical_set_validation():
    with pytest.raises(InvariantError):
        typical_set((0.3, 0.7), 4, 0.0)
    with pytest.raises(InvariantError):
        typical_set((0.3, 0.7), 4, float("inf"))
    with pytest.raises(InvariantError):
        typical_set((0.3, 0.8), 4, 0.5)
    with pytest.raises(InvariantError):
        typical_set((0.3, 0.7), 0, 0.5)


@pytest.mark.parametrize("probs", [(np.nan, np.nan), (0.5, np.nan), (np.inf, 0.5)])
def test_non_finite_probs_refused(probs):
    # NaN fails every comparison, so it would pass as a law with no typical sequence
    with pytest.raises(InvariantError, match="finite"):
        typical_set(probs, 3, 0.5)
    rows = np.zeros((2, 3), dtype=np.intp)
    with pytest.raises(InvariantError, match="finite"):
        typical_pairs(rows, rows, np.array([probs, (0.0, 0.0)]), 0.5)


def test_pruned_distribution_is_conditioned_product():
    t = typical_set((0.3, 0.7), 6, 0.5)
    pruned = pruned_distribution(t)
    assert abs(float(np.sum(pruned.probs)) - 1.0) < 1e-12
    for seq, q in zip(t.members, pruned.probs):
        assert abs(q - sequence_prob(t, seq) / t.mass) < 1e-12
    assert pruned.probs.size == len(t)


@pytest.mark.parametrize("probs, n, delta, alphabet", [
    ((0.3, 0.7), 6, 0.5, None),
    ((0.1, 0.2, 0.3, 0.4), 7, 0.9, None),
    ((0.5, 0.25, 0.25), 8, 0.4, ("a", "b", "c")),
])
def test_pruned_probs_bit_equal_to_member_products(probs, n, delta, alphabet):
    t = typical_set(probs, n, delta, alphabet=alphabet)
    masses = np.array([sequence_prob(t, m) for m in t.members])
    assert np.array_equal(pruned_distribution(t).probs, masses / np.sum(masses))


def test_pruned_sampling_deterministic():
    t = typical_set((0.3, 0.7), 6, 0.5)
    pruned = pruned_distribution(t)
    a = pruned.sample(np.random.default_rng(42), 20)
    b = pruned.sample(np.random.default_rng(42), 20)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("name", ["binary-correlated", "example1"])
def test_typical_pairs_match_enumerated_joint_set(name):
    # the enumerated pair-string set is the oracle: every |X|^n x |Y|^n pair
    inst = fixtures.load_fixture(name)
    outA = inst.decomposition.povm_A.outcomes
    outB = inst.decomposition.povm_B.outcomes
    pairs = tuple((a, b) for a in outA for b in outB)
    for n in range(1, 5):
        us = list(itertools.product(outA, repeat=n))
        vs = list(itertools.product(outB, repeat=n))
        for delta in (0.3, 0.6, 1.0):
            joint = set(typical_set(inst.p_uv.ravel(), n, delta, alphabet=pairs).members)
            want = np.array([[tuple(zip(u, v)) in joint for v in vs] for u in us])
            got = typical_pairs(_letter_indices(us, outA), _letter_indices(vs, outB),
                                inst.p_uv, delta)
            assert np.array_equal(got, want)
    # the pair cap is checked before any pair is counted
    with pytest.raises(CapExceededError):
        typical_pairs(np.zeros((1025, 1), dtype=np.intp), np.zeros((1024, 1), dtype=np.intp),
                      inst.p_uv, 0.5)


@pytest.mark.parametrize("name", ["binary-correlated", "example1"])
def test_typical_pairs_chunks_match_row_oracle(name, monkeypatch):
    # blocks of pairs cross row and column boundaries; each count array
    # stays under the cap, and the mask equals the per-row loop's
    inst = fixtures.load_fixture(name)
    outA = inst.decomposition.povm_A.outcomes
    outB = inst.decomposition.povm_B.outcomes
    pairs = len(outA) * len(outB)
    rng = np.random.default_rng(3)
    n = 5
    us = rng.integers(len(outA), size=(10, n))
    vs = rng.integers(len(outB), size=(3, n))
    # some typical pairs: v repeats u's labels
    vs = np.vstack([vs, [[outB.index(outA[k]) for k in u] for u in us[:4]]])
    sizes = []
    within = typicality._within

    def spy(counts, *rest):  # one block's (letters, letters, rows, cols) counts
        sizes.append(counts.size)
        return within(counts, *rest)

    monkeypatch.setattr(typicality, "_within", spy)
    for cap in (typicality.CHUNK_CAP, 1, 5 * pairs, 3 * len(vs) * pairs):
        monkeypatch.setattr(typicality, "CHUNK_CAP", cap)
        for delta in (0.3, 0.6, 1.0):
            sizes.clear()
            got = typical_pairs(us, vs, inst.p_uv, delta)
            assert max(sizes) <= max(cap, pairs)
            assert np.array_equal(got, typical_pairs_by_row(us, vs, inst.p_uv, delta))


def test_typical_pairs_random_laws_match_row_oracle(monkeypatch):
    # laws with zero cells, blocks crossing chunk boundaries, and bounds that
    # land on integers: p = 1/4, n = 8, delta = 0.5 admits counts 1 to 3
    rng = np.random.default_rng(11)
    cases = [(np.full((2, 2), 0.25), 8, 0.5)]
    for _ in range(60):
        p = rng.random(rng.integers(1, 5, size=2))
        p[rng.random(p.shape) < 0.25] = 0.0
        p.flat[rng.integers(p.size)] += 0.5
        cases.append((p / p.sum(), int(rng.integers(1, 12)),
                      float(rng.choice([0.1, 0.25, 0.3, 0.5, 1.0, 2.0]))))
    typical = 0
    for case, (p, n, delta) in enumerate(cases):
        us = rng.integers(p.shape[0], size=(int(rng.integers(1, 30)), n))
        vs = rng.integers(p.shape[1], size=(int(rng.integers(1, 30)), n))
        want = typical_pairs_by_row(us, vs, p, delta)
        typical += int(want.sum())
        for cap in (1, 7 * p.size, typicality.CHUNK_CAP):
            monkeypatch.setattr(typicality, "CHUNK_CAP", cap)
            assert np.array_equal(typical_pairs(us, vs, p, delta), want), (case, cap)
    assert typical > 0
    # on the integer bounds: pair-letter counts (1, 3, 3, 1) pass, while
    # (4, 1, 1, 2) and (0, 3, 3, 2) fail by one count each
    us = all_sequences(2, 8)
    got = typical_pairs(us, us, cases[0][0], 0.5)
    assert np.array_equal(got, typical_pairs_by_row(us, us, cases[0][0], 0.5))
    assert got[0b00001111, 0b01110001]
    assert not got[0b00000111, 0b00001011] and not got[0b00011111, 0b11100011]


def test_typical_pairs_peak_memory_is_one_chunk(monkeypatch):
    # a collision sweep's call at n = 8: 235 distinct codewords a side from
    # binary-correlated's marginal typical set.  Held at once, at most: one
    # block's float counts (CHUNK_CAP x 8 B), its two comparison masks
    # (CHUNK_CAP x 1 B each), both one-hot tables (8 B per entry, with the
    # 1 B comparison each came from), the (rows, cols) result and 64 KB of
    # small objects.  Counting all pairs in one block breaks the bound.
    inst = fixtures.load_fixture("binary-correlated")
    p, n, delta = inst.p_uv, 8, inst.params.delta
    us = typical_set(p.sum(axis=1), n, delta).seqs[:235]
    assert len(us) == 235
    hot = 9 * n * (p.shape[0] * len(us) + p.shape[1] * len(us))
    bound = typicality.CHUNK_CAP * (8 + 2) + hot + len(us) ** 2 + 2 ** 16

    def peak():
        typical_pairs(us, us, p, delta)
        tracemalloc.start()
        try:
            typical_pairs(us, us, p, delta)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() <= bound
    monkeypatch.setattr(typicality, "CHUNK_CAP", 2 ** 20)
    assert peak() > bound


def test_typical_pairs_empty_sides():
    p = np.full((2, 2), 0.25)
    rows = np.zeros((3, 4), dtype=np.intp)
    assert typical_pairs(rows, rows[:0], p, 0.5).shape == (3, 0)
    assert typical_pairs(rows[:0], rows, p, 0.5).shape == (0, 3)


def test_pruning_empty_set_raises():
    # four-letter uniform marginals admit no typical strings at n=2, delta=0.5
    t = typical_set((0.25,) * 4, 2, 0.5)
    assert len(t.members) == 0
    with pytest.raises(InvariantError):
        pruned_distribution(t)


# ---------------------------------------------------------------------------
# quantum projectors
# ---------------------------------------------------------------------------

def test_grouped_spectrum_matches_loop_oracle():
    # random, exactly degenerate and nearly degenerate spectra, some with
    # eigenvalues just below zero; ids and masses must equal the loop's
    rng = np.random.default_rng(3)
    merged = split = 0
    for t in range(60):
        d = int(rng.integers(1, 9))
        spectrum = [rng.uniform(size=d),
                    rng.choice([0.0, 0.25, 0.5, 1e-17, -1e-17], size=d),
                    np.repeat(rng.uniform(size=d), 2)[:d]
                    + rng.choice([0.0, 1e-16, 1e-9], size=d)][t % 3]
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        vals, _, ids, probs = typicality._grouped_spectrum((q * spectrum) @ q.conj().T)
        want_ids, want_probs = groups_by_loop(vals)
        assert ids.dtype == want_ids.dtype and np.array_equal(ids, want_ids)
        assert np.array_equal(probs, want_probs)
        merged += probs.size < vals.size
        split += probs.size > 1
    assert merged and split


def test_typical_projector_diagonal_indicator():
    probs = (0.6, 0.4)
    rho = DensityOperator(np.diag(probs), (2,))
    n, delta = 6, 0.5
    proj = typical_projector(rho, n, delta)
    members, mass = _brute_typical(probs, n, delta)
    want = np.zeros((2 ** n, 2 ** n))
    for seq in members:
        idx = int("".join(map(str, seq)), 2)
        want[idx, idx] = 1.0
    assert np.allclose(proj, want, atol=1e-10)
    assert np.allclose(proj @ proj, proj, atol=1e-10)
    rho_n = power(rho, n).mat
    assert np.allclose(proj @ rho_n, rho_n @ proj, atol=1e-12)
    assert abs(np.trace(proj @ rho_n).real - mass) < 1e-10


def test_typical_projector_mass_basis_invariant():
    theta = 0.7
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rho = DensityOperator(u @ np.diag([0.6, 0.4]) @ u.T, (2,))
    proj = typical_projector(rho, 6, 0.5)
    _, mass = _brute_typical((0.6, 0.4), 6, 0.5)
    assert abs(np.trace(proj @ power(rho, 6).mat).real - mass) < 1e-10


def test_conditional_projector_pure_states():
    ens = Ensemble((0.5, 0.5),
                   (DensityOperator(_proj(KET0), (2,)),
                    DensityOperator(_proj(KETP), (2,))),
                   outcomes=("0", "+"))
    proj = conditional_typical_projector(ens, ("0", "+"), 0.4)
    assert np.allclose(proj, _proj(np.kron(KET0, KETP)), atol=1e-10)


@pytest.mark.parametrize("name, n", [
    ("binary-correlated", 2), ("binary-correlated", 3), ("binary-correlated", 5),
    ("example1", 2), ("example1", 3), ("example1", 4)])
def test_bundle_lam_seq_matches_projector_sandwich(name, n):
    # member s's factor columns offsets[s]:offsets[s + 1] against
    # pi_rho Pi_s (rho_s1 x ... x rho_sn) Pi_s pi_rho
    inst = fixtures.load_fixture(name)
    delta = inst.params.delta
    d = inst.decomposition
    for side, povm in ((0, d.povm_A), (1, d.povm_B)):
        rho = inst.state.marginal((side,))
        ens = canonical_ensemble(rho, povm)
        bundle = build_projector_bundle(rho, ens, n, delta)
        pi_rho = typical_projector(rho, n, delta)
        assert len(bundle.offsets) == len(bundle.typical) + 1
        assert bundle.offsets[-1] == bundle.factors.shape[1] == bundle.vals.size
        for s, seq in enumerate(bundle.typical.members):
            got = weighted_gram(*_member(bundle, s))
            pc = conditional_typical_projector(ens, seq, delta)
            rho_s = reduce(np.kron, [ensemble_state(ens, s).mat for s in seq])
            want = pi_rho @ pc @ rho_s @ pc @ pi_rho
            assert np.max(np.abs(got - want)) < 1e-12


def _member(bundle, s):
    """Member s's factor columns and their eigenvalues."""
    lo, hi = bundle.offsets[s], bundle.offsets[s + 1]
    return bundle.factors[:, lo:hi], bundle.vals[lo:hi]


def _bundle_arrays(bundle):
    return [bundle.pi_rho, bundle.pi_hat, bundle.factors, bundle.vals, bundle.offsets]


@pytest.mark.parametrize("name, n", [("binary-correlated", 5), ("example1", 3)])
def test_bundle_chunks_leave_every_array_bit_equal(name, n, monkeypatch):
    # the typicality mask is decided chunk by chunk over the typical sequences
    inst = fixtures.load_fixture(name)
    rho = inst.state.marginal((0,))
    ens = canonical_ensemble(rho, inst.decomposition.povm_A)
    want = build_projector_bundle(rho, ens, n, inst.params.delta)
    chunk_rows = []
    mask = typicality._typical_mask

    def spy(counts, *rest):
        if counts.ndim == 3:  # (sequences, eigen-strings, groups) of one chunk
            chunk_rows.append(counts.shape[0])
        return mask(counts, *rest)

    monkeypatch.setattr(typicality, "_typical_mask", spy)
    groups = max(typicality._grouped_spectrum(ensemble_state(ens, u).mat)[3].size for u in ens.outcomes)
    # one sequence per chunk, then seven per chunk with a shorter last chunk
    assert len(want.typical.members) % 7
    for cap, rows in ((1, 1), (7 * rho.dim ** n * groups, 7)):
        monkeypatch.setattr(typicality, "CHUNK_CAP", cap)
        chunk_rows.clear()
        got = build_projector_bundle(rho, ens, n, inst.params.delta)
        assert max(chunk_rows) == rows
        assert len(got.offsets) == len(want.offsets)
        for a, b in zip(_bundle_arrays(got), _bundle_arrays(want), strict=True):
            assert np.array_equal(a, b)


def test_projector_bundle_binary_fixture_diagonal_oracle():
    inst = fixtures.load_fixture("binary-correlated")
    rho_a = inst.state.marginal((0,))
    ens = canonical_ensemble(rho_a, inst.decomposition.povm_A)
    bundle = build_projector_bundle(rho_a, ens, 2, 0.6)
    # degenerate spectrum of I/2 makes every eigen-string typical
    assert np.allclose(bundle.pi_rho, np.eye(4), atol=1e-12)
    assert set(bundle.typical.members) == {("0", "1"), ("1", "0")}
    assert abs(bundle.eps - 0.5) < 1e-12
    assert np.allclose(weighted_gram(*_member(bundle, bundle.typical.members.index(("0", "1")))),
                       np.diag([0, 1, 0, 0]),
                       atol=1e-12)
    # pruned average is diag(0, 1/2, 1/2, 0); both nonzero modes clear the cutoff
    assert np.allclose(bundle.pi_hat, np.diag([0.0, 1.0, 1.0, 0.0]), atol=1e-10)


def test_sequence_and_dimension_caps():
    with pytest.raises(CapExceededError):
        all_sequences(2, 25)
    rho = DensityOperator(np.eye(2) / 2, (2,))
    ens = Ensemble((0.5, 0.5), (DensityOperator(_proj(KET0), (2,)),
                                DensityOperator(_proj(np.array([0.0, 1.0])), (2,))),
                   outcomes=("0", "1"))
    with pytest.raises(CapExceededError):
        build_projector_bundle(rho, ens, 13, 0.5)


def test_all_sequences_index_dtype_holds_large_alphabets():
    # 144 letters (a 12 x 12 outcome-pair alphabet) overflow an int8 index
    seqs = all_sequences(144, 1)
    assert np.array_equal(seqs.ravel(), np.arange(144))
    uniform = np.full(144, 1.0 / 144)
    assert typical_set(uniform, 2, 1.0).mass <= 1.0
    # a window wide enough to admit every string keeps all 144^2 of them
    wide = typical_set(uniform, 2, 143.0)
    assert len(wide.members) == 144 ** 2
    assert abs(wide.mass - 1.0) < 1e-12


@pytest.mark.parametrize("size,n", [(1, 20), (2, 8), (3, 5), (144, 1)])
def test_all_sequences_in_product_order(size, n):
    seqs = all_sequences(size, n)
    want = np.array(list(itertools.product(range(size), repeat=n)),
                    dtype=np.min_scalar_type(size - 1))
    assert seqs.dtype == want.dtype
    assert np.array_equal(seqs, want)
    assert seqs.flags.c_contiguous


def test_seq_cap_bounds_the_length_of_one_letter_strings():
    # 1^n never exceeds the count cap, but an n-position index array is
    # refused at the length where two letters already reach it
    typicality._check_seq_cap(1, 20)
    for n in (21, 10 ** 12):
        with pytest.raises(CapExceededError):
            typicality._check_seq_cap(1, n)


def test_caps_exact_at_boundary_and_bounded_in_n():
    # 4^6 = 4096 and 2^20 sit on the caps; an n of 10^12 is refused without
    # forming the power, and a one-letter alphabet never exceeds a cap
    typicality._check_dim_cap(4, 6)
    typicality._check_seq_cap(2, 20)
    typicality._check_dim_cap(1, 10 ** 12)
    for check, size, n in ((typicality._check_dim_cap, 4, 7),
                           (typicality._check_dim_cap, 2, 13),
                           (typicality._check_seq_cap, 2, 21),
                           (typicality._check_seq_cap, 1025, 2),
                           (typicality._check_dim_cap, 2, 10 ** 12),
                           (typicality._check_seq_cap, 3, 10 ** 12)):
        with pytest.raises(CapExceededError):
            check(size, n)
