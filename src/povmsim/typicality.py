"""Typical sets, pruned distributions, and the projector bundle.

Classical typicality here is the strong (letter-frequency) kind: a sequence
is delta-typical when every letter's empirical frequency is within delta
times its probability, which in particular forbids letters of probability
zero.  Quantum typical subspaces apply the same criterion to eigenvalue
strings; eigenvalues are grouped up to a relative tolerance first, so flat
spectra are typical at any delta and the subspaces are basis-independent
under degeneracy.

A sequence is a row of letter indices into its alphabet, and a typical
sequence is named by its member id, its row in TypicalSet.seqs; labels are
only read where a labelled object is looked up.

Typical sets of one source and eigen-index strings are enumerated under
the |alphabet|^n cap, and the bundle's operators are held under the d^n
cap.  The bundle decides the conditional typical subspace of every typical
sequence in one pass, from eigen-group counts, and forms only the typical
product eigenvectors; no projector is a public result.  Joint typicality of
codeword pairs is decided from the pair-letter counts of the pairs in use,
at most SEQ_CAP pairs per call, taken from one one-hot product per block of
pairs, so no pair string is enumerated.  Every batched pass holds its
transient count arrays in chunks of at most CHUNK_CAP entries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, InvariantError
from .operators import (
    EIG_CUTOFF,
    DensityOperator,
    Ensemble,
    eigh_desc,
    hermitize,
    kron_rows,
    von_neumann_entropy,
    weighted_gram,
)

SEQ_CAP = 2 ** 20     # max number of sequences ever enumerated
DIM_CAP = 4096        # max operator side length
CHUNK_CAP = 2 ** 14   # max entries of any transient array a batched pass holds at once
GROUP_RTOL = 1e-9     # eigenvalues closer than this (relative) share a group


def _exceeds(base: int, n: int, cap: int) -> bool:
    """Whether base^n > cap.  For base >= 2 an n of cap.bit_length() or more
    already exceeds it, so the power is only formed below that length."""
    return base > 1 and (n >= cap.bit_length() or base ** n > cap)


def _check_seq_cap(alphabet_size: int, n: int):
    if _exceeds(alphabet_size, n, SEQ_CAP):
        raise CapExceededError(
            f"{alphabet_size}^{n} sequences exceed the enumeration cap {SEQ_CAP}")


def _check_dim_cap(dim: int, n: int):
    if _exceeds(dim, n, DIM_CAP):
        raise CapExceededError(
            f"operator dimension {dim}^{n} exceeds the cap {DIM_CAP}")


def all_sequences(alphabet_size: int, n: int) -> np.ndarray:
    """All length-n index strings as an (size^n, n) array, lexicographic.

    The index dtype is the smallest unsigned type holding size - 1.
    """
    _check_seq_cap(alphabet_size, n)
    dtype = np.min_scalar_type(max(alphabet_size - 1, 0))
    grids = np.meshgrid(*([np.arange(alphabet_size, dtype=dtype)] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1) if n > 0 else np.zeros((1, 0), dtype)


def _letter_counts(seqs: np.ndarray, alphabet_size: int) -> np.ndarray:
    return np.stack([(seqs == a).sum(axis=1) for a in range(alphabet_size)], axis=1)


def _typical_mask(counts: np.ndarray, probs: np.ndarray, n, delta: float) -> np.ndarray:
    # |c/n - p| <= delta * p per letter (last axis); p = 0 forces c = 0; n is
    # the length, or an array of block lengths broadcasting against counts
    lo = n * probs * (1.0 - delta)
    hi = n * probs * (1.0 + delta)
    slack = 1e-9  # integer counts against real thresholds
    return np.all((counts >= lo - slack) & (counts <= hi + slack), axis=-1)


# ---------------------------------------------------------------------------
# classical typical sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypicalSet:
    """delta-typical sequences of a memoryless source, with their total mass.

    ``seqs`` holds one row of letter indices into ``alphabet`` per member, in
    lexicographic order; a member's id is its row.
    """
    alphabet: tuple
    probs: np.ndarray
    n: int
    delta: float
    seqs: np.ndarray
    mass: float

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))

    @property
    def members(self) -> tuple:
        """The members as tuples of alphabet labels, in id order."""
        return tuple(tuple(self.alphabet[i] for i in row) for row in self.seqs.tolist())

    def __len__(self) -> int:
        return len(self.seqs)


def _validated_probs(probs, n: int, delta: float) -> np.ndarray:
    p = np.asarray(probs, dtype=float).ravel()
    if n < 1:
        raise InvariantError("blocklength must be at least 1")
    if not (math.isfinite(delta) and delta > 0):
        raise InvariantError("delta must be a finite positive number")
    if float(np.min(p)) < -1e-12 or abs(float(np.sum(p)) - 1.0) > 1e-9:
        raise InvariantError("probs is not a probability distribution")
    return np.clip(p, 0.0, None)


def typical_set(probs, n: int, delta: float, alphabet=None) -> TypicalSet:
    """Enumerate the strongly delta-typical sequences of a product source.

    ``probs`` is the single-letter distribution; ``alphabet`` defaults to
    integer letters 0..k-1.  Mass is the exact sum of member probabilities.
    """
    size = np.asarray(probs).size
    alphabet = tuple(range(size) if alphabet is None else alphabet)
    if len(alphabet) != size:
        raise InvariantError("alphabet and probability table must be parallel")
    p = _validated_probs(probs, n, delta)
    seqs = all_sequences(p.size, n)
    counts = _letter_counts(seqs, p.size)
    mask = _typical_mask(counts, p, n, delta)
    logs = np.log(np.where(p > 0, p, 1.0))
    masses = np.exp(counts[mask].astype(float) @ logs)
    return TypicalSet(alphabet, p, n, float(delta), seqs[mask].astype(np.intp),
                      float(np.sum(masses)))


def typical_pairs(us: np.ndarray, vs: np.ndarray, p_uv, delta: float) -> np.ndarray:
    """Joint delta-typicality of every zipped pair (u, v), a (len(us), len(vs)) mask.

    ``us`` and ``vs`` hold one sequence per row as letter indices into the
    rows and columns of the joint letter law ``p_uv``.  typical_set's
    criterion is applied to the pair-letter counts of zip(u, v).  With
    one-hot letter tables hot_u[a, x, k] = [u_a[k] = x] and
    hot_v[k, b, y] = [v_b[k] = y], the counts of a block of pairs are one
    matrix product hot_u @ hot_v, exact in floating point; blocks of pairs
    are sized so that no count array holds more than CHUNK_CAP entries (a
    block has at least one pair).
    """
    if len(us) * len(vs) > SEQ_CAP:
        raise CapExceededError(
            f"{len(us)} x {len(vs)} sequence pairs exceed the cap {SEQ_CAP}")
    size_A, size_B = np.shape(p_uv)
    n = us.shape[1]
    p = _validated_probs(p_uv, n, delta)
    hot_u = (us[:, None, :] == np.arange(size_A)[:, None]) * 1.0
    hot_v = (vs.T[:, :, None] == np.arange(size_B)) * 1.0
    step_v = max(1, CHUNK_CAP // p.size)
    step_u = max(1, CHUNK_CAP // (p.size * min(len(vs), step_v)))
    mask = np.empty((len(us), len(vs)), dtype=bool)
    for i in range(0, len(us), step_u):
        rows = hot_u[i:i + step_u]
        for j in range(0, len(vs), step_v):
            cols = hot_v[:, j:j + step_v]
            counts = (rows.reshape(-1, n) @ cols.reshape(n, -1)).reshape(
                len(rows), size_A, cols.shape[1], size_B).transpose(0, 2, 1, 3)
            mask[i:i + step_u, j:j + step_v] = _typical_mask(
                counts.reshape(len(rows), cols.shape[1], p.size), p, n, delta)
    return mask


@dataclass(frozen=True)
class PrunedDistribution:
    """The product distribution conditioned on landing in the typical set,
    one probability per member id."""
    base: TypicalSet
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.probs.size != len(self.base):
            raise InvariantError("pruned table must be parallel to the member list")
        if abs(float(np.sum(self.probs)) - 1.0) > 1e-12:
            raise InvariantError("pruned distribution must sum to 1")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` independent member ids."""
        return rng.choice(len(self.probs), size=size, p=self.probs)


def pruned_distribution(t: TypicalSet) -> PrunedDistribution:
    """Each member's product probability, left to right over its letters,
    divided by their sum."""
    if len(t) == 0 or t.mass <= 0.0:
        raise InvariantError("cannot prune onto an empty typical set")
    masses = kron_rows(t.probs.reshape(-1, 1, 1), t.seqs).ravel()
    return PrunedDistribution(t, masses / np.sum(masses))


# ---------------------------------------------------------------------------
# conditional typical subspaces
# ---------------------------------------------------------------------------

def _grouped_spectrum(mat: np.ndarray):
    """Eigendecomposition with near-degenerate eigenvalues grouped.

    Returns (vals, vecs, group_ids, group_probs): descending eigenvalues and
    their eigenvectors, ``group_ids[i]`` the group of the i-th eigenvector
    and ``group_probs[g]`` the total eigenvalue mass of group g.
    """
    vals, vecs = eigh_desc(mat)
    top = max(float(vals[0]), 0.0) if vals.size else 0.0
    gap = GROUP_RTOL * max(top, 1e-300)
    ids = np.zeros(vals.size, dtype=int)
    g = 0
    for i in range(1, vals.size):
        if vals[i - 1] - vals[i] > gap:
            g += 1
        ids[i] = g
    probs = np.zeros(g + 1)
    for i, gi in enumerate(ids):
        probs[gi] += max(float(vals[i]), 0.0)
    return vals, vecs, ids, probs


def _typical_columns(spectra, seqs: np.ndarray, strings: np.ndarray, delta: float):
    """(columns, vals, widths): the conditionally typical subspaces of the
    product states along every row of ``seqs``, side by side.

    ``spectra[u]`` is the grouped spectrum of letter u's state, ``seqs`` a
    (count, n) array of letter indices and ``strings`` every eigen-index
    string of length n.  String t is typical for sequence s when, for each
    letter u, the eigen-group counts of t at the positions carrying u pass
    _typical_mask at that block's length; a letter absent from s passes.
    columns holds the typical product eigenvectors (x)_k V_{s_k}[:, t_k],
    sequence after sequence and each in string order, vals their product
    eigenvalues and widths the column count of each sequence, so the state
    along s compressed by its subspace's projector is
    columns_s diag(vals_s) columns_s^dag.
    """
    count, n = seqs.shape
    size = strings.shape[0]
    groups = max(gp.size for *_, gp in spectra)
    # hits[u, k, (t, g)] = 1 when string t puts position k in group g of
    # letter u's spectrum; padded groups have probability 0 and no hits
    gprobs = np.zeros((len(spectra), groups))
    hits = np.zeros((len(spectra), n, size * groups))
    for u, (_, _, ids, gp) in enumerate(spectra):
        gprobs[u, :gp.size] = gp
        hits[u] = (ids[strings.T][..., None] == np.arange(groups)).reshape(n, -1)
    # the (sequences, strings) mask is only ever held one chunk at a time
    chunk = max(1, CHUNK_CAP // (size * groups))
    rows, picks, widths = [], [], []
    for start in range(0, count, chunk):
        part = seqs[start:start + chunk]
        mask = np.ones((len(part), size), dtype=bool)
        for u in range(len(spectra)):
            at = (part == u).astype(float)
            counts = (at @ hits[u]).reshape(len(part), size, groups)
            mask &= _typical_mask(counts, gprobs[u], at.sum(axis=1)[:, None, None], delta)
        r, t = np.nonzero(mask)
        rows.append(r + start)
        picks.append(t)
        widths.append(mask.sum(axis=1))
    # Khatri-Rao rows over tables indexed u d + t: column V_u[:, t], value lambda_u[t]
    d = spectra[0][1].shape[0]
    idx = seqs[np.concatenate(rows)] * d + strings[np.concatenate(picks)]
    vecs = np.stack([v for _, v, _, _ in spectra]).transpose(0, 2, 1)
    vals = np.stack([v for v, _, _, _ in spectra])
    columns = kron_rows(vecs.reshape(-1, d, 1), idx)[:, :, 0].T
    return (np.ascontiguousarray(columns), kron_rows(vals.reshape(-1, 1, 1), idx).ravel(),
            np.concatenate(widths))


# ---------------------------------------------------------------------------
# the projector bundle feeding the protocol operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectorBundle:
    """All projectors needed to build approximating operators at one (n, delta).

    pi_rho is the typical projector of the average state.  lam_seq[s] is
    the eigen-form (pi_rho B_s, lambda_s), s a member id, of
    Lambda'_s = pi_rho Pi_s rho_s Pi_s pi_rho = (pi_rho B_s) diag(lambda_s)
    (pi_rho B_s)^dag: rho_s is the product of the ensemble states along s,
    B_s the product eigenvectors spanning its conditional typical subspace
    and lambda_s their product eigenvalues, so the factor has one column per
    dimension of that subspace.  Every factor is a column slice (a view) of
    one d^n x sum_s k_s array, and lambda_s a slice of one eigenvalue array,
    both in member order.  pi_hat cuts off the small eigenvalues of
    the pruned average of the Lambda'_s; its range lies inside pi_rho's by
    construction, so the two commute.
    """
    pi_rho: np.ndarray
    lam_seq: tuple
    pi_hat: np.ndarray
    typical: TypicalSet
    pruned: PrunedDistribution
    params: dict = field(default_factory=dict)


def build_projector_bundle(rho: DensityOperator, ens: Ensemble, n: int,
                           delta: float) -> ProjectorBundle:
    """Assemble the typical projector, the compressed conditional states and
    the cutoff projector of one source block.

    The conditional typical subspaces of all typical sequences come from one
    batched pass over the per-letter spectra of the ensemble states, and
    pi_rho is applied to all their product eigenvectors in one product.
    The cutoff threshold is
    (1 - mass) * 2^{-n(S(rho) + delta)}; at mass 1 the threshold degenerates
    to 0 and pi_hat becomes the support projector of the pruned average
    operator.
    """
    d = rho.dim
    _check_dim_cap(d, n)
    tset = typical_set(ens.weights, n, delta, alphabet=ens.outcomes)
    pruned = pruned_distribution(tset)
    strings = all_sequences(d, n)
    # pi_rho's range: the one sequence 0^n over rho's own grouped spectrum
    range_basis, _, _ = _typical_columns([_grouped_spectrum(rho.mat)],
                                         np.zeros((1, n), dtype=np.intp), strings, delta)
    pi_rho = range_basis @ range_basis.conj().T

    spectra = [_grouped_spectrum(state.mat) for state in ens.states]
    columns, lam_vals, widths = _typical_columns(spectra, tset.seqs, strings, delta)
    factors = pi_rho @ columns
    # sigma' = sum_s p(s) Lambda'_s as one weighted Gram product
    sigma_prime = weighted_gram(factors, np.repeat(pruned.probs, widths) * lam_vals)
    lam_seq = tuple((factors[:, end - w:end], lam_vals[end - w:end])
                    for w, end in zip(widths.tolist(), np.cumsum(widths).tolist()))

    eps = max(0.0, 1.0 - tset.mass)
    entropy = von_neumann_entropy(rho)
    threshold = eps * 2.0 ** (-n * (entropy + delta))

    # diagonalize inside range(pi_rho) so pi_hat commutes with it exactly
    sub = range_basis.conj().T @ sigma_prime @ range_basis
    vals, vecs = eigh_desc(hermitize(sub))
    top = max(float(vals[0]), 0.0) if vals.size else 0.0
    floor = max(threshold, EIG_CUTOFF * top)
    keep = vecs[:, vals > floor]
    lifted = range_basis @ keep
    pi_hat = lifted @ lifted.conj().T

    params = {"n": n, "delta": float(delta), "eps": eps, "threshold": threshold,
              "entropy": entropy}
    return ProjectorBundle(pi_rho, lam_seq, pi_hat, tset, pruned, params)


# no trial calls this; it stays public as a name the benchmark's traced run wraps
def lambda_operators(seq: int, bundle: ProjectorBundle):
    """The two-stage compressed operator of one typical sequence in eigen-form.

    ``seq`` is the sequence's member id.  Returns (z, vals) with
    pi_hat Lambda'_s pi_hat = z diag(vals) z^dag: the bundle's factor of the
    compressed conditional state, cut off by pi_hat.
    """
    lifted, vals = bundle.lam_seq[seq]
    return bundle.pi_hat @ lifted, vals
