"""Per-sequence typicality: the slow reference for the batched passes.

Each projector is built from the full d^n-sided np.kron chain of eigenbases,
one sequence at a time, and its eigen-strings are masked by a Python loop over
the distinct letters.  The bundle decides the same masks for all typical
sequences at once and builds only the typical columns; tests compare the two.
Joint typicality of codeword pairs is decided one row of ``us`` at a time, and
a sequence's probability is one product per sequence.
"""
from functools import reduce

import numpy as np

from povmsim.errors import InvariantError
from povmsim.typicality import (
    _check_dim_cap,
    _grouped_spectrum,
    _letter_counts,
    _letter_indices,
    _typical_mask,
    _validated_probs,
    all_sequences,
)


def sequence_prob(t, seq):
    """Product probability of a sequence under a typical set's base law."""
    idx = {a: i for i, a in enumerate(t.alphabet)}
    return float(np.prod([t.probs[idx[s]] for s in seq])) if len(seq) else 1.0


def typical_pairs_by_row(us, vs, p_uv, outcomes_A, outcomes_B, delta):
    """typical_pairs' mask from the pair-letter counts of one row of us at a time."""
    n = len(us[0])
    p = _validated_probs(p_uv, n, delta)
    rows = _letter_indices(us, outcomes_A) * len(outcomes_B)
    cols = _letter_indices(vs, outcomes_B)
    mask = np.empty((len(us), len(vs)), dtype=bool)
    for out, row in zip(mask, rows):
        out[:] = _typical_mask(_letter_counts(row + cols, p.size), p, n, delta)
    return mask


def typical_subspace(spectra, seq, strings, delta):
    """(basis, vals): the product eigenvectors spanning the conditionally
    typical subspace of the product state along ``seq``, and their product
    eigenvalues.

    ``spectra`` maps each letter to its state's grouped spectrum; ``strings``
    holds every eigen-index string of length len(seq).
    """
    mask = np.ones(strings.shape[0], dtype=bool)
    for u in set(seq):
        pos = [i for i, s in enumerate(seq) if s == u]
        _, _, ids, gprobs = spectra[u]
        counts = _letter_counts(ids[strings[:, pos]], gprobs.size)
        mask &= _typical_mask(counts, gprobs, len(pos), delta)
    vals = reduce(np.kron, [spectra[s][0] for s in seq])
    vecs = reduce(np.kron, [spectra[s][1] for s in seq])
    return vecs[:, mask], vals[mask]


def typical_projector(rho, n, delta):
    """Projector onto the delta-typical eigenvalue strings of rho^{(x)n}: the
    conditional criterion on a one-letter sequence."""
    _check_dim_cap(rho.dim, n)
    basis, _ = typical_subspace({0: _grouped_spectrum(rho.mat)}, (0,) * n,
                                all_sequences(rho.dim, n), delta)
    return basis @ basis.conj().T


def conditional_typical_projector(ens, seq, delta):
    """Projector onto conditionally typical eigen-strings of a state sequence.

    For each distinct outcome u in ``seq``, the eigen-group frequencies at the
    positions carrying u must be delta-typical for the spectrum of that
    outcome's state, at the block's own length.
    """
    if ens.outcomes is None:
        raise InvariantError("ensemble needs outcome labels for conditioning")
    _check_dim_cap(ens.dim, len(seq))
    spectra = {u: _grouped_spectrum(ens.state(u).mat) for u in set(seq)}
    basis, _ = typical_subspace(spectra, seq, all_sequences(ens.dim, len(seq)), delta)
    return basis @ basis.conj().T
