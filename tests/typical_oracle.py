"""Per-sequence typicality: the slow reference for the batched passes.

Each projector is built from the full d^n-sided np.kron chain of eigenbases,
one sequence at a time, and its eigen-strings are masked by a Python loop over
the distinct letters.  The bundle decides the same masks for all typical
sequences at once and builds only the typical columns; tests compare the two.
Joint typicality of codeword pairs is decided one row of ``us`` at a time, and
a sequence's probability is one product per sequence.

The classical half of the protocol is also kept in label form: codewords as
tuples of outcome labels, bin maps as dicts keyed by them, the decoder as a
dict of label pairs and the sentinel found by enumerating every sequence.
"""
from functools import reduce

import numpy as np

from oracles import ensemble_state, letter_rows, lookup
from povmsim.errors import InvariantError
from povmsim.protocol import STREAM_BINS_A, STREAM_BINS_B, substream
from povmsim.typicality import (
    GROUP_RTOL,
    _check_dim_cap,
    _grouped_spectrum,
    _letter_counts,
    _typical_mask,
    _validated_probs,
    all_sequences,
)

# label of the void letter, index len(alphabet) of a letter row
VOID = "__void__"


def _letter_indices(strings, alphabet) -> np.ndarray:
    pos = {a: i for i, a in enumerate(alphabet)}
    return np.array([[pos[a] for a in x] for x in strings], dtype=np.intp)


def groups_by_loop(vals) -> tuple:
    """(ids, probs) of descending eigenvalues grouped one value at a time: a
    new group wherever the drop from the previous value exceeds GROUP_RTOL
    times the top value, and each group's mass its clipped values added in
    order."""
    gap = GROUP_RTOL * max(float(vals[0]), 1e-300)
    ids = np.zeros(vals.size, dtype=int)
    g = 0
    for i in range(1, vals.size):
        if vals[i - 1] - vals[i] > gap:
            g += 1
        ids[i] = g
    probs = np.zeros(g + 1)
    for i, gi in enumerate(ids):
        probs[gi] += max(float(vals[i]), 0.0)
    return ids, probs


def label_rows(alphabet, rows) -> list:
    """Label tuples of letter-index rows; index len(alphabet) reads as VOID."""
    letters = tuple(alphabet) + (VOID,)
    return [tuple(letters[x] for x in row) for row in np.asarray(rows).tolist()]


def decoded_labels(decoder, typicals, mu1, mu2, i, j) -> tuple:
    """The label tuples of the pair decoded in one cell, the sentinel's too;
    ``typicals`` holds the two senders' typical sets."""
    return tuple(label_rows(t.alphabet, letter_rows(t)[[x]])[0]
                 for t, x in zip(typicals, lookup(decoder, mu1, mu2, i, j)))


def sequence_prob(t, seq):
    """Product probability of a sequence under a typical set's base law."""
    idx = {a: i for i, a in enumerate(t.alphabet)}
    return float(np.prod([t.probs[idx[s]] for s in seq])) if len(seq) else 1.0


def typical_pairs_by_row(us, vs, p_uv, delta):
    """typical_pairs' mask from the pair-letter counts of one row of us at a time."""
    n = np.shape(us)[1]
    p = _validated_probs(p_uv, n, delta)
    rows = np.asarray(us) * np.shape(p_uv)[1]
    cols = np.asarray(vs)
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
    spectra = {u: _grouped_spectrum(ensemble_state(ens, u).mat) for u in set(seq)}
    basis, _ = typical_subspace(spectra, seq, all_sequences(ens.dim, len(seq)), delta)
    return basis @ basis.conj().T


def sentinel_by_enumeration(tset):
    """The first sequence, in lexicographic order, that is not a member, as
    labels; all VOID when every sequence is typical."""
    members = set(tset.members)
    for row in all_sequences(len(tset.alphabet), tset.n):
        seq = tuple(tset.alphabet[i] for i in row)
        if seq not in members:
            return seq
    return (VOID,) * tset.n


def bin_maps_by_label(params, typical_A, typical_B):
    """Per side, one dict per mu from member labels to bin, drawn from the
    same substreams as generate_bin_maps."""
    def draw(tag, tset, n_mu, nbins):
        return [dict(zip(tset.members, substream(params.seed, tag, mu).integers(
            1, nbins + 1, size=len(tset.members)).tolist())) for mu in range(n_mu)]

    return (draw(STREAM_BINS_A, typical_A, params.N1, params.bins1),
            draw(STREAM_BINS_B, typical_B, params.N2, params.bins2))


def decoder_by_label(u_lists, v_lists, bin_maps, joint_typical):
    """(cells, collisions, occupied) of bin-pair decoding over label tuples.

    ``u_lists``/``v_lists`` hold per mu the codewords in draw order and
    ``joint_typical`` maps distinct codewords (us, vs) to their mask.
    """
    bm1, bm2 = bin_maps
    cell_pairs = {}
    for mu1, lst_u in enumerate(u_lists):
        us = list(dict.fromkeys(lst_u))
        for mu2, lst_v in enumerate(v_lists):
            vs = list(dict.fromkeys(lst_v))
            for a, b in zip(*np.nonzero(joint_typical(us, vs))):
                key = (mu1, mu2, bm1[mu1][us[a]], bm2[mu2][vs[b]])
                cell_pairs.setdefault(key, []).append((us[a], vs[b]))
    cells = {key: pairs[0] for key, pairs in cell_pairs.items() if len(pairs) == 1}
    collisions = sum(len(pairs) > 1 for pairs in cell_pairs.values())
    return cells, collisions, len(cell_pairs)
