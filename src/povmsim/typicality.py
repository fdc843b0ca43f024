"""Typical sets, pruned distributions, and typicality projectors.

Classical typicality here is the strong (letter-frequency) kind: a sequence
is delta-typical when every letter's empirical frequency is within delta
times its probability, which in particular forbids letters of probability
zero.  Quantum typical projectors apply the same criterion to eigenvalue
strings; eigenvalues are grouped up to a relative tolerance first, so flat
spectra are typical at any delta and the projectors are basis-independent
under degeneracy.

Everything enumerates explicitly, guarded by two caps: |alphabet|^n for
sequence enumeration and d^n for operator dimensions.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Mapping, Sequence

import numpy as np

from .errors import CapExceededError, InvariantError
from .operators import (
    DEFAULT_TOL,
    EIG_CUTOFF,
    DensityOperator,
    Ensemble,
    eigh_desc,
    hermitize,
    tensor,
    von_neumann_entropy,
)

SEQ_CAP = 2 ** 20     # max number of sequences ever enumerated
DIM_CAP = 4096        # max operator side length
GROUP_RTOL = 1e-9     # eigenvalues closer than this (relative) share a group


def _check_seq_cap(alphabet_size: int, n: int):
    if alphabet_size ** n > SEQ_CAP:
        raise CapExceededError(
            f"{alphabet_size}^{n} sequences exceed the enumeration cap {SEQ_CAP}")


def _check_dim_cap(dim: int, n: int):
    if dim ** n > DIM_CAP:
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


def _typical_mask(counts: np.ndarray, probs: np.ndarray, n: int, delta: float) -> np.ndarray:
    # |c/n - p| <= delta * p per letter; p = 0 forces c = 0
    lo = n * probs * (1.0 - delta)
    hi = n * probs * (1.0 + delta)
    slack = 1e-9  # integer counts against real thresholds
    return np.all((counts >= lo - slack) & (counts <= hi + slack), axis=1)


# ---------------------------------------------------------------------------
# classical typical sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypicalSet:
    """delta-typical sequences of a memoryless source, with their total mass."""
    alphabet: tuple
    probs: np.ndarray
    n: int
    delta: float
    members: tuple
    mass: float

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        object.__setattr__(self, "members", tuple(tuple(m) for m in self.members))
        object.__setattr__(self, "_member_set", frozenset(self.members))

    def __contains__(self, seq) -> bool:
        return tuple(seq) in self._member_set

    def __len__(self) -> int:
        return len(self.members)

    def prob(self, seq) -> float:
        """Product probability of a sequence under the base distribution."""
        idx = {a: i for i, a in enumerate(self.alphabet)}
        return float(np.prod([self.probs[idx[s]] for s in seq])) if len(seq) else 1.0


def typical_set(probs, n: int, delta: float, alphabet=None) -> TypicalSet:
    """Enumerate the strongly delta-typical sequences of a product source.

    ``probs`` is the single-letter distribution; ``alphabet`` defaults to
    integer letters 0..k-1.  Mass is the exact sum of member probabilities.
    """
    p = np.asarray(probs, dtype=float).ravel()
    if alphabet is None:
        alphabet = tuple(range(p.size))
    alphabet = tuple(alphabet)
    if len(alphabet) != p.size:
        raise InvariantError("alphabet and probability table must be parallel")
    if n < 1:
        raise InvariantError("blocklength must be at least 1")
    if delta <= 0:
        raise InvariantError("delta must be positive")
    if float(np.min(p)) < -1e-12 or abs(float(np.sum(p)) - 1.0) > 1e-9:
        raise InvariantError("probs is not a probability distribution")
    p = np.clip(p, 0.0, None)
    seqs = all_sequences(p.size, n)
    counts = _letter_counts(seqs, p.size)
    mask = _typical_mask(counts, p, n, delta)
    kept = seqs[mask]
    logs = np.log(np.where(p > 0, p, 1.0))
    masses = np.exp(counts[mask].astype(float) @ logs)
    members = tuple(tuple(alphabet[i] for i in row) for row in kept)
    return TypicalSet(alphabet, p, n, float(delta), members, float(np.sum(masses)))


@dataclass(frozen=True)
class PrunedDistribution:
    """The product distribution conditioned on landing in the typical set."""
    base: TypicalSet
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.probs.size != len(self.base.members):
            raise InvariantError("pruned table must be parallel to the member list")
        if abs(float(np.sum(self.probs)) - 1.0) > 1e-12:
            raise InvariantError("pruned distribution must sum to 1")
        object.__setattr__(self, "_index",
                           {m: i for i, m in enumerate(self.base.members)})

    def prob(self, seq) -> float:
        i = self._index.get(tuple(seq))
        return 0.0 if i is None else float(self.probs[i])

    def sample(self, rng: np.random.Generator, size: int) -> list:
        idx = rng.choice(len(self.base.members), size=size, p=self.probs)
        return [self.base.members[i] for i in idx]


def pruned_distribution(t: TypicalSet) -> PrunedDistribution:
    if len(t.members) == 0 or t.mass <= 0.0:
        raise InvariantError("cannot prune onto an empty typical set")
    masses = np.array([t.prob(m) for m in t.members], dtype=float)
    return PrunedDistribution(t, masses / np.sum(masses))


# ---------------------------------------------------------------------------
# quantum typicality projectors
# ---------------------------------------------------------------------------

def _grouped_spectrum(mat: np.ndarray):
    """Eigendecomposition with near-degenerate eigenvalues grouped.

    Returns (vecs, group_ids, group_probs): ``group_ids[i]`` is the group of
    the i-th eigenvector (descending eigenvalues) and ``group_probs[g]`` is
    the total eigenvalue mass of group g.
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
    return vecs, ids, probs


def _typical_projector_parts(rho: DensityOperator, n: int, delta: float):
    """(projector, orthonormal basis of its range) for rho^{(x)n}."""
    d = rho.dim
    _check_dim_cap(d, n)
    vecs, ids, gprobs = _grouped_spectrum(rho.mat)
    seqs = all_sequences(d, n)
    gseqs = ids[seqs]  # map eigen-index strings to group strings
    counts = _letter_counts(gseqs, gprobs.size)
    mask = _typical_mask(counts, gprobs, n, delta)
    basis_full = reduce(np.kron, [vecs] * n) if n > 1 else vecs
    basis = basis_full[:, mask]
    return basis @ basis.conj().T, basis


def typical_projector(rho: DensityOperator, n: int, delta: float) -> np.ndarray:
    """Projector onto the delta-typical eigenvalue strings of rho^{(x)n}."""
    proj, _ = _typical_projector_parts(rho, n, delta)
    return proj


def conditional_typical_projector(ens: Ensemble, seq: Sequence, delta: float) -> np.ndarray:
    """Projector onto conditionally typical eigen-strings of a state sequence.

    The criterion is block-local: for each distinct outcome u in ``seq``, the
    eigen-group frequencies at the positions carrying u must be delta-typical
    for the spectrum of that outcome's state, at the block's own length.
    """
    if ens.outcomes is None:
        raise InvariantError("ensemble needs outcome labels for conditioning")
    seq = tuple(seq)
    n = len(seq)
    d = ens.dim
    _check_dim_cap(d, n)
    spectra = {}
    for u in set(seq):
        spectra[u] = _grouped_spectrum(ens.state(u).mat)
    strings = all_sequences(d, n)
    mask = np.ones(strings.shape[0], dtype=bool)
    for u in set(seq):
        pos = [i for i, s in enumerate(seq) if s == u]
        _, ids, gprobs = spectra[u]
        sub = ids[strings[:, pos]]
        counts = _letter_counts(sub, gprobs.size)
        mask &= _typical_mask(counts, gprobs, len(pos), delta)
    factors = [spectra[s][0] for s in seq]
    basis_full = reduce(np.kron, factors) if n > 1 else factors[0]
    basis = basis_full[:, mask]
    return basis @ basis.conj().T


# ---------------------------------------------------------------------------
# the projector bundle feeding the protocol operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectorBundle:
    """All projectors needed to build approximating operators at one (n, delta).

    pi_rho is the typical projector of the average state, pi_seq maps each
    typical sequence to its conditional typical projector, and pi_hat cuts
    off the small eigenvalues of the pruned average operator.  pi_hat's range
    lies inside pi_rho's by construction, so the two commute.
    """
    pi_rho: np.ndarray
    pi_seq: Mapping
    pi_hat: np.ndarray
    typical: TypicalSet
    pruned: PrunedDistribution
    params: dict = field(default_factory=dict)


def rho_hat_seq(ens: Ensemble, seq: Sequence) -> np.ndarray:
    """Tensor product of canonical-ensemble states along a sequence."""
    mats = [ens.state(s).mat for s in seq]
    return reduce(np.kron, mats) if len(mats) > 1 else mats[0]


def build_projector_bundle(rho: DensityOperator, ens: Ensemble, n: int,
                           delta: float, delta1: float | None = None) -> ProjectorBundle:
    """Assemble typical/conditional/cutoff projectors for one source block.

    The cutoff threshold is (1 - mass) * 2^{-n(S(rho) + delta1)} with delta1
    defaulting to delta; at mass 1 the threshold degenerates to 0 and pi_hat
    becomes the support projector of the pruned average operator.
    """
    if delta1 is None:
        delta1 = delta
    d = rho.dim
    _check_dim_cap(d, n)
    tset = typical_set(ens.weights, n, delta, alphabet=ens.outcomes)
    pruned = pruned_distribution(tset)
    pi_rho, range_basis = _typical_projector_parts(rho, n, delta)

    pi_seq = {}
    dim = d ** n
    sigma_prime = np.zeros((dim, dim), dtype=np.complex128)
    for seq, w in zip(tset.members, pruned.probs):
        pc = conditional_typical_projector(ens, seq, delta)
        pi_seq[seq] = pc
        inner = pc @ rho_hat_seq(ens, seq) @ pc
        lam_prime = pi_rho @ inner @ pi_rho
        sigma_prime += float(w) * lam_prime
    sigma_prime = hermitize(sigma_prime)

    eps = max(0.0, 1.0 - tset.mass)
    entropy = von_neumann_entropy(rho)
    threshold = eps * 2.0 ** (-n * (entropy + delta1))

    # diagonalize inside range(pi_rho) so pi_hat commutes with it exactly
    sub = range_basis.conj().T @ sigma_prime @ range_basis
    vals, vecs = eigh_desc(hermitize(sub))
    top = max(float(vals[0]), 0.0) if vals.size else 0.0
    floor = max(threshold, EIG_CUTOFF * top)
    keep = vecs[:, vals > floor]
    lifted = range_basis @ keep
    pi_hat = lifted @ lifted.conj().T

    params = {"n": n, "delta": float(delta), "delta1": float(delta1),
              "eps": eps, "threshold": threshold, "entropy": entropy}
    return ProjectorBundle(pi_rho, pi_seq, pi_hat, tset, pruned, params)


def lambda_operators(rho: DensityOperator, ens: Ensemble, seq: Sequence,
                     bundle: ProjectorBundle):
    """The two-stage compressed operators for one sequence.

    Returns (lam_prime, lam): the conditional state sandwiched between its
    conditional typical projector and the average-state typical projector,
    then additionally between the cutoff projector.
    """
    seq = tuple(seq)
    pc = bundle.pi_seq.get(seq)
    if pc is None:
        pc = conditional_typical_projector(ens, seq, bundle.params["delta"])
    lam_prime = bundle.pi_rho @ (pc @ rho_hat_seq(ens, seq) @ pc) @ bundle.pi_rho
    lam_prime = hermitize(lam_prime)
    lam = hermitize(bundle.pi_hat @ lam_prime @ bundle.pi_hat)
    return lam_prime, lam
