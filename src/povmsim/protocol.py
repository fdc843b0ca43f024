"""Finite-blocklength random-coding simulation of distributed measurements.

The pipeline mirrors the achievability construction: draw codebooks from the
pruned typical distributions, rescale the compressed sequence operators into
per-sender approximating sub-POVMs, bin their outcomes uniformly, decode bin
pairs back to the unique jointly typical codeword pair, and push the decoded
pairs through the integration channel.  The resulting joint family is scored
against the tensor-power target measurement.

Codewords, bin assignments and decoded pairs are member ids of the typical
sets (rows of TypicalSet.seqs), held in arrays from bundle to decoder: one
(N, L) codebook and one column array per side, one row per decoded cell.
Decoded ids index the setup's letter rows, the sentinel's included, whose
letters are POVM outcomes.

Scoring never materializes the simulated operators in full: every trace norm
is evaluated inside the support of the input state, where a codeword-pair
operator Gamma_u x Gamma_v turns into an r^n x r^n sandwich (r the state's
rank).  Each Gamma is carried in eigen-form Z diag(w) Z^dag, Z with one
column per dimension of its compressed conditional typical subspace, so a
sandwich is H diag(w_u x w_v) H^dag with the thin factor H = C^dag (Z_u x Z_v).
Each sender's draws over all mu are one column array cut from the setup's,
and one pass over the two arrays puts the factor column of every column
pair, unpadded, into one pool.  Blocks stay in that form through scoring:
a pair, decoded or emitted block is a set of (column, weight) entries
tagged with its integer block id, a target block comes from its letters'
factors where it is scored, and a trace norm from the R of one QR of a
block's columns side by side.  The pool gives G, and error_split scores
the covering/binning error split (s1, s2) from the same pool on demand;
binned cells are never sandwiched, as a cell's block is the sum of its
codeword pairs' columns.
Everything is deterministic given (params, seed); randomness flows through
counter-based substreams, one per random object.  Only the codebooks, the
bins and the decoder are random; what they are built on (the bundles, the
letter maps, letter rows and p(u, v), the frame C held conjugated in the
layout its one product reads, so no trial copies it, each side's column
array pinv_sqrt(rho^{(x)n}) pi_hat [the bundle's factors] and the target
letters' support factors) depends on (rho_AB, d, n, delta) alone.
It is built once and kept by _kept under the name "trial", keyed by those
values' content, so a sweep over seeds builds it once; its arrays are
read-only.  The packing, collision and soft-covering sweeps keep their own
seed-independent objects the same way, one entry per sweep kind.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Mapping

import numpy as np

from .errors import CapExceededError, InvariantError
from .measurement import (
    SeparableDecomposition,
    canonical_ensemble,
    compose_decomposition,
    faithfulness_distance,
    outcome_distribution,
)
from .operators import (
    DEFAULT_TOL,
    EIG_CUTOFF,
    DensityOperator,
    SubPovm,
    hermitize,
    kron_rows,
    matrix_sqrt_and_pinv_sqrt,
    operator_norm,
    probability_rows,
    read_only,
    tensor,
    tensor_povm,
    trace_norm,
    weighted_gram,
)
from .typicality import (
    SEQ_CAP,
    PrunedDistribution,
    TypicalSet,
    _check_dim_cap,
    _exceeds,
    build_projector_bundle,
    pruned_distribution,
    typical_pairs,
    typical_set,
)

# substream tags: every random object owns one counter-based stream
STREAM_CODEBOOK_A = 0
STREAM_CODEBOOK_B = 1
STREAM_BINS_A = 2
STREAM_BINS_B = 3
STREAM_PACKING_A = 4
STREAM_PACKING_B = 5
STREAM_SOFT = 6

GATHER_CAP = 2 ** 20  # max entries of one scoring gather, unless one block is wider


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for one random object of one trial."""
    entropy = (int(seed),) + tuple(int(p) for p in path)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _count_for_rate(n: int, rate: float) -> int:
    if not (math.isfinite(rate) and rate >= 0.0):
        raise InvariantError(f"rate must be a finite nonnegative number, got {rate}")
    if n * rate > math.log2(SEQ_CAP):
        raise CapExceededError(
            f"2^({n} x {rate}) codewords exceed the enumeration cap {SEQ_CAP}")
    return max(1, round(2.0 ** (n * rate)))


def _check_draw_caps(params: ProtocolParams):
    """Refuse more than SEQ_CAP decoder cells, or codeword draws on a side."""
    cells = params.N1 * params.N2 * params.bins1 * params.bins2
    if cells > SEQ_CAP:
        raise CapExceededError(f"{cells} decoder cells exceed the cap {SEQ_CAP}")
    for side, N, L in (("A", params.N1, params.L1), ("B", params.N2, params.L2)):
        if N * L > SEQ_CAP:
            raise CapExceededError(
                f"side {side} draws {N} x {L} = {N * L} codewords, over the cap {SEQ_CAP}")


# ---------------------------------------------------------------------------
# parameters and random protocol objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProtocolParams:
    """Knobs of one finite-blocklength protocol.

    Rt1/Rt2 are the codebook (covering) rates, R1/R2 the bin (transmission)
    rates, N1/N2 the common-randomness sizes per sender.  Counts are
    2^{n rate} rounded to the nearest integer and floored at 1.
    """
    n: int
    Rt1: float
    Rt2: float
    R1: float
    R2: float
    N1: int = 1
    N2: int = 1
    eta: float = 0.1
    delta: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise InvariantError("blocklength must be at least 1")
        if not (self.Rt1 >= self.R1 >= 0.0):
            raise InvariantError("need Rt1 >= R1 >= 0")
        if not (self.Rt2 >= self.R2 >= 0.0):
            raise InvariantError("need Rt2 >= R2 >= 0")
        if self.N1 < 1 or self.N2 < 1:
            raise InvariantError("common-randomness sizes must be at least 1")
        if not 0.0 < self.eta < 1.0:
            raise InvariantError("eta must lie in (0, 1)")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise InvariantError("delta must be a finite positive number")
        if int(self.seed) != self.seed or self.seed < 0:
            raise InvariantError("seed must be a nonnegative integer")

    @property
    def L1(self) -> int:
        return _count_for_rate(self.n, self.Rt1)

    @property
    def L2(self) -> int:
        return _count_for_rate(self.n, self.Rt2)

    @property
    def bins1(self) -> int:
        return _count_for_rate(self.n, self.R1)

    @property
    def bins2(self) -> int:
        return _count_for_rate(self.n, self.R2)


@dataclass(frozen=True)
class Codebook:
    """Codewords of both senders as member ids, one (N, L) array per side:
    row mu holds that mu's draws in draw order, duplicates kept."""
    u_lists: np.ndarray
    v_lists: np.ndarray


def generate_codebooks(params: ProtocolParams, pruned_U: PrunedDistribution,
                       pruned_V: PrunedDistribution) -> Codebook:
    """Draw the per-mu codeword lists from the pruned typical distributions."""
    u_lists = [pruned_U.sample(substream(params.seed, STREAM_CODEBOOK_A, mu), params.L1)
               for mu in range(params.N1)]
    v_lists = [pruned_V.sample(substream(params.seed, STREAM_CODEBOOK_B, mu), params.L2)
               for mu in range(params.N2)]
    return Codebook(np.stack(u_lists), np.stack(v_lists))


def _first_appearance(codes: np.ndarray) -> tuple:
    """(ids, keys): the entries (rows, for a 2-D array) of codes renumbered
    0, 1, ... in order of first appearance, and the distinct ones in that
    order."""
    keys, first, inverse = np.unique(codes, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order)[inverse], keys[order]


def _distinct(draws: np.ndarray) -> tuple:
    """(values, counts): the distinct entries (rows) of draws in order of
    first draw, with their draw counts."""
    ids, keys = _first_appearance(draws)
    return keys, np.bincount(ids)


@dataclass(frozen=True)
class BinMap:
    """Uniform random bin assignment over the full typical set: row mu of
    ``assignments`` holds the bin of every member id for that mu."""
    typical: TypicalSet
    assignments: np.ndarray
    nbins: int

    def __post_init__(self):
        a = np.asarray(self.assignments)
        if a.ndim != 2 or a.shape[1] != len(self.typical):
            raise InvariantError("bin assignment must cover the typical set exactly")
        if a.size and not (1 <= a.min() and a.max() <= self.nbins):
            raise InvariantError(f"bin indices outside [1, {self.nbins}]")
        object.__setattr__(self, "assignments", a)

    def spread(self) -> int:
        """Largest minus smallest bin occupancy across all mu, empties included."""
        return max((int(np.ptp(np.bincount(a - 1, minlength=self.nbins)))
                    for a in self.assignments), default=0)


def generate_bin_maps(params: ProtocolParams, typical_A: TypicalSet,
                      typical_B: TypicalSet):
    """Independent uniform bin indices for every typical sequence, per mu."""
    def draw(tag, tset, n_mu, nbins):
        return BinMap(tset, np.stack([
            substream(params.seed, tag, mu).integers(1, nbins + 1, size=len(tset))
            for mu in range(n_mu)]), nbins)

    return (draw(STREAM_BINS_A, typical_A, params.N1, params.bins1),
            draw(STREAM_BINS_B, typical_B, params.N2, params.bins2))


# ---------------------------------------------------------------------------
# approximating operators, binning, decoding
# ---------------------------------------------------------------------------

def _approx_columns(rho: DensityOperator, bundle, n: int) -> tuple:
    """(z, vals, offsets): pinv_sqrt(rho^{(x)n}) pi_hat times the bundle's
    factors, with the bundle's vals and offsets."""
    _, pinv1 = matrix_sqrt_and_pinv_sqrt(rho.mat)
    return (tensor(*[pinv1] * n) @ (bundle.pi_hat @ bundle.factors), bundle.vals,
            bundle.offsets)


def build_approx_operators(draws: np.ndarray, columns: tuple, eps: float,
                           eta: float) -> tuple:
    """Approximating sub-POVM candidates of one sender, for every
    common-randomness index at once.

    ``draws`` is one side's (N, L) codeword array.  Each drawn codeword
    value s receives
        gamma * pinv_sqrt(rho^{(x)n}) pi_hat Lambda'_s pi_hat pinv_sqrt(rho^{(x)n})
    with gamma = count * (1 - eps) / ((1 + eta) * L), in eigen-form: its
    columns of _approx_columns' (z, vals, offsets), given as ``columns``,
    weighted gamma * vals.  Returns (mu, ids, z, w, gamma): per column its
    common-randomness index and member id, the column and its weight, so
    the operator of (mu, s) is the weighted_gram of its columns, and the
    gamma of each drawn (mu, s).  Columns and gammas go mu by mu, codewords
    in order of first draw; values never drawn get the zero operator and
    have no columns.
    """
    z, vals, offsets = columns
    members = len(offsets) - 1
    scale = (1.0 - eps) / ((1.0 + eta) * draws.shape[1])
    keys, counts = _distinct((draws + members * np.arange(len(draws))[:, None]).ravel())
    mu, ids = np.divmod(keys, members)
    gamma = counts * scale
    widths = offsets[ids + 1] - offsets[ids]
    take = (np.repeat(offsets[ids] - (np.cumsum(widths) - widths), widths)
            + np.arange(widths.sum()))
    return (np.repeat(mu, widths), np.repeat(ids, widths), z[:, take],
            np.repeat(gamma, widths) * vals[take], gamma)


def check_sub_povm(op):
    """Whether the summed operator of a PSD family lies below the identity.

    Returns (valid, excess) with excess = max(0, lambda_max(op) - 1) and
    valid = excess <= DEFAULT_TOL.
    """
    excess = max(0.0, float(np.linalg.eigvalsh(hermitize(op))[-1]) - 1.0)
    return excess <= DEFAULT_TOL, excess


def bin_povm(ops: Mapping, assignment: np.ndarray, nbins: int) -> dict:
    """Merge operators whose outcomes share a bin; the total sum is unchanged.

    ``ops`` is keyed by member id and ``assignment`` holds the bin of every
    member id, each in [1, nbins].  Empty bins get explicit zero operators
    so decoder cells stay addressable.
    """
    dim = None
    binned = {}
    for s, op in ops.items():
        if not 0 <= s < len(assignment):
            raise InvariantError(f"operator at member {s} has no bin assignment")
        b = int(assignment[s])
        if not 1 <= b <= nbins:
            raise InvariantError(f"bin index {b} outside [1, {nbins}]")
        dim = op.shape[0]
        if b in binned:
            binned[b] = binned[b] + op
        else:
            binned[b] = op.astype(np.complex128, copy=True)
    if dim is not None:
        zero = np.zeros((dim, dim), dtype=np.complex128)
        for b in range(1, nbins + 1):
            binned.setdefault(b, zero)
    return {b: binned[b] for b in sorted(binned)}


def sentinel_sequence(tset: TypicalSet) -> np.ndarray:
    """Lexicographically smallest atypical sequence, as letter indices.

    Member rows are in lexicographic order, so it sits at the first rank
    the members skip.  When every sequence is typical it is the all-void
    row, the void letter being index len(alphabet), which keeps the choice
    deterministic.
    """
    size, n = len(tset.alphabet), tset.n
    place = size ** np.arange(n - 1, -1, -1)
    ranks = tset.seqs @ place
    skipped = np.flatnonzero(ranks != np.arange(len(ranks)))
    first = int(skipped[0]) if skipped.size else len(ranks)
    if first == size ** n:
        return np.full(n, size, dtype=np.intp)
    return first // place % size


@dataclass(frozen=True)
class DecoderTable:
    """Bin-pair decoding tables, one per (mu1, mu2).

    ``cells`` holds one row (mu1, mu2, i, j, u, v) per uniquely decodable
    cell, in lexicographic cell order: the cell's indices and its pair of
    member ids.  Every other cell, and any cell with a zero bin index,
    decodes to ``sentinel``, the id pair (|T_A|, |T_B|) one past each
    side's members.
    """
    cells: np.ndarray
    sentinel: tuple
    bins1: int
    bins2: int
    n_mu: tuple
    collisions: int
    occupied: int


def build_decoder(codebook: Codebook, binmaps, joint_typical) -> DecoderTable:
    """Populate each cell with its unique jointly typical codeword pair.

    Candidate pairs are the distinct codewords of the two mu-indexed books
    that ``joint_typical`` marks: it maps the letter rows of distinct
    codewords (us, vs) to their (len(us), len(vs)) joint-typicality mask,
    as a partial of typical_pairs does.  A cell whose candidate set is empty
    or holds several pairs decodes to the sentinel.
    """
    bm1, bm2 = binmaps
    t1, t2 = bm1.typical, bm2.typical
    v_books = [_distinct(lst)[0] for lst in codebook.v_lists]  # draw order kept
    found = []  # (mu1, mu2, i, j, u, v) per jointly typical pair
    for mu1, lst_u in enumerate(codebook.u_lists):
        us = _distinct(lst_u)[0]
        for mu2, vs in enumerate(v_books):
            a, b = np.nonzero(joint_typical(t1.seqs[us], t2.seqs[vs]))
            found.append(np.stack([np.full(a.size, mu1), np.full(a.size, mu2),
                                   bm1.assignments[mu1, us[a]], bm2.assignments[mu2, vs[b]],
                                   us[a], vs[b]], axis=1))
    # one (mu1, mu2) tests each distinct pair once, so a cell's pairs are distinct
    found = np.concatenate(found)
    # one integer per cell (mu1, mu2, i, j), ordered as the cells are
    # lexicographically; bins run from 1, so each bin axis has nbins + 1 slots
    keys = np.ravel_multi_index(found[:, :4].T, (len(codebook.u_lists), len(codebook.v_lists),
                                                 bm1.nbins + 1, bm2.nbins + 1))
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    return DecoderTable(found[first[counts == 1]], (len(t1), len(t2)),
                        bm1.nbins, bm2.nbins, (len(codebook.u_lists), len(codebook.v_lists)),
                        int(np.sum(counts > 1)), len(counts))


# ---------------------------------------------------------------------------
# the simulated joint measurement
# ---------------------------------------------------------------------------

def _letter_map(alphabet, labels) -> np.ndarray:
    """Index in ``labels`` of each letter of ``alphabet``, then len(labels)
    for the void letter len(alphabet)."""
    return np.array([labels.index(a) for a in alphabet] + [len(labels)], dtype=np.intp)


def _integration_laws(d: SeparableDecomposition) -> np.ndarray:
    """law[x, y]: the integration's output law of POVM outcome pair (x, y)
    over z_alphabet and then the void output letter, the void letter being
    index |outcomes| on each side; a pair with a void letter emits the void
    letter."""
    nx, ny, nz = d.table.shape
    law = np.zeros((nx + 1, ny + 1, nz + 1))
    law[:nx, :ny, :nz] = d.table
    law[nx, :, nz] = law[:, ny, nz] = 1.0
    return law


def _z_images(u: np.ndarray, v: np.ndarray, law: np.ndarray) -> tuple:
    """(source, zs, weights): every output string the integration assigns
    to the decoded pairs with letter rows (u[p], v[p]).

    Strings come pair by pair and, per pair, in lexicographic order, each
    tagged with its pair p and weighted by the product of its letters'
    output probabilities, left to right; ``law`` is _integration_laws'
    table, so a pair carrying the void letter maps to the all-void string.
    """
    source = np.arange(len(u))
    zs = np.zeros((len(u), 0), dtype=np.intp)
    weights = np.ones(len(u))
    for k in range(u.shape[1]):
        p = law[u[source, k], v[source, k]]
        hit, z = np.nonzero(p > 0.0)
        source, zs, weights = source[hit], np.column_stack([zs[hit], z]), weights[hit] * p[hit, z]
    return source, zs, weights


# ---------------------------------------------------------------------------
# rank-reduced sandwich frame
# ---------------------------------------------------------------------------

def _support_factor(mats: np.ndarray) -> np.ndarray:
    """d x r factor C with mat = C C^dag of a PSD matrix, or of each matrix in
    a stack: eigenvectors by descending eigenvalue, scaled by their roots and
    cut below the relative cutoff, in a stack zero-padded to the widest."""
    vals, vecs = np.linalg.eigh(hermitize(mats))
    vals, vecs = vals[..., ::-1], vecs[..., ::-1]
    keep = vals > EIG_CUTOFF * np.maximum(vals[..., :1], 1e-300)
    scaled = vecs * np.sqrt(np.where(keep, vals, 0.0))[..., None, :]
    return scaled[..., :keep.sum(axis=-1).max()]


def _sandwich_frame(rho_AB: DensityOperator, n: int):
    """(c1, frame): the support factor c1 of rho_AB, and C = c1^{(x)n} with
    side-major rows held conjugated in the layout _sandwich_factors reads,
    the contiguous (dB^n r^n, dA^n) frame[(y, p), x] = conj(C[(x, y), p])."""
    dA, dB = rho_AB.dims
    c1 = _support_factor(rho_AB.mat)
    # the Kronecker power's rows run copy-major, A1 B1 A2 B2 ...
    c_copy = tensor(*[c1] * n).reshape([dA, dB] * n + [-1])
    order = list(range(1, 2 * n, 2)) + [2 * n] + list(range(0, 2 * n, 2))
    return c1, np.conjugate(c_copy.transpose(order), order="C").reshape(-1, dA ** n)


def _sandwich_factors(zx: np.ndarray, zy: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """C^dag (x_i x y_j) for every column x_i of zx and y_j of zy, C given by
    _sandwich_frame's frame: row i K_y + j of a (K_x K_y, r^n) transposed
    view of the one product array, so the rows are not copied.

    For X = zx diag(s) zx^dag and Y = zy diag(t) zy^dag with real weights,
    C^dag (X x Y) C = H diag(s x t) H^dag with these rows as H's columns, so
    no operator on the full space is formed; a factor with no columns gives
    no rows.
    """
    # half[y, p, i] = sum_x conj(C[x, y, p]) zx[x, i]
    half = frame @ zx
    # h[p, i, j] = sum_y half[y, p, i] zy[y, j]
    h = half.reshape(len(zy), -1).T @ zy
    return h.reshape(len(frame) // len(zy), -1).T


def _trace_norm_sum(pool: np.ndarray, block: np.ndarray, col: np.ndarray,
                    weight: np.ndarray, table: np.ndarray, idx: np.ndarray) -> tuple:
    """(sum_x ||T_x + P_x||_1, sum_x tr T_x) over Hermitian blocks in factor
    form, one per row of idx.

    T_x = G G^dag with G = kron_rows(table, idx[x]), ``table`` a stack of
    r x c factors (c = 0 gives T_x = 0): with _letter_factors per letter
    index, T_x is the product target block (x)_k c1^dag op(idx[x, k]) c1.
    P_x sums weight[e] p p^dag, p = pool[col[e]], over the entries e with
    block[e] = x, so block x is F diag(s) F^dag, F holding G's c^n columns
    at weight 1 and then its entries' columns in entry order.
    With F = QR a block shares its nonzero eigenvalues with R diag(s) R^dag,
    so blocks of one width m go through one batched reduced QR and one
    eigvalsh; when m is at least F's row count QR cannot shrink F, and F
    itself serves as R.
    The rows of idx go in row chunks, consecutive rows whose G hold at most
    GATHER_CAP entries, each chunk's G built by one kron_rows call that
    also gives its sum of tr T_x, G's squared magnitude.  Within a chunk
    the widths go in order of first appearance in idx, and each width's
    blocks are written into one factor and one weight row a batch at a
    time, so that no factor holds more than GATHER_CAP entries unless a
    single block does: scoring holds one chunk's G next to one batch's
    factor.  The entries are laid out once, by chunk, width and block, so
    a batch's columns and weights are one slice of each.
    """
    side, t = pool.shape[1], table.shape[2] ** idx.shape[1]
    entries = np.bincount(block, minlength=len(idx))
    widths, rows = entries + t, max(1, GATHER_CAP // max(1, t * side))
    known, first = np.unique(widths, return_index=True)
    key = np.arange(len(idx)) // rows * len(idx) + first[np.searchsorted(known, widths)]
    ids = np.argsort(key, kind="stable")  # the blocks in layout order
    order = np.argsort(np.argsort(ids)[block], kind="stable")
    cols, weights = col[order], weight[order]
    start = [0, *np.cumsum(entries[ids]).tolist()]
    # the groups of one width in one chunk; each row chunk starts a group
    cuts = [0, *(1 + np.flatnonzero(np.diff(key[ids]))).tolist(), len(idx)] if len(idx) else [0]
    dtype = np.result_type(pool, table)
    total = mass = 0.0
    for p, q in zip(cuts, cuts[1:]):
        if p % rows == 0:
            g = kron_rows(table, idx[p:p + rows])
            mass += float(np.sum(np.abs(g) ** 2))
            g, a, b = g.transpose(0, 2, 1), p, p + len(g)
        m = int(widths[ids[p]])
        step = max(1, GATHER_CAP // max(1, m * side))
        for i in range(p, q, step):
            j = min(i + step, q)
            x = ids[i:j] - a
            f = np.empty((len(x), m, side), dtype)
            # consecutive rows are a view, so a wide block's G is not copied twice
            f[:, :t] = g[x[0]:x[-1] + 1] if x[-1] - x[0] < len(x) else g[x]
            f[:, t:] = pool[cols[start[i]:start[j]]].reshape(len(x), m - t, side)
            s = np.ones((len(x), m))
            s[:, t:] = weights[start[i]:start[j]].reshape(len(x), m - t)
            g = g if j < b else None  # the chunk's last batch has copied it
            r = f.transpose(0, 2, 1)
            r = r if m >= side else np.linalg.qr(r, mode="r")
            rs = r * s[:, None, :]
            r = np.conj(r, out=r).transpose(0, 2, 1)  # r is this batch's own array
            total += np.abs(np.linalg.eigvalsh(rs @ r)).sum()
    return float(total), mass


def _letter_factors(c1: np.ndarray, letter_ops) -> np.ndarray:
    """The support factor of c1^dag op c1 for each letter's PSD operator,
    stacked and zero-padded to one width; a zero letter has no columns."""
    return _support_factor(c1.conj().T @ np.stack(letter_ops) @ c1)


# ---------------------------------------------------------------------------
# the faithfulness trial
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialReport:
    """Everything one protocol realization produced.

    Validity tuples carry one entry per common-randomness index and side;
    each family's excess comes from the one matrix its operators sum to.
    resummation_error bounds the largest entry of the simulated family's
    total minus the product of the averaged per-sender binned totals,
    sum_mu w_mu sum_ij (w_ij - 1) Gamma_i x Gamma_j with w_ij the total
    image weight of the pair cell (i, j) decodes to.  As
    |Gamma[x, x']| <= sqrt(Gamma[x, x] Gamma[x', x']) for PSD Gamma and
    sum_i Gamma_i <= (1 + excess) I, averaging over mu gives the bound
        max |w - 1| (1 + mean excess_A) (1 + mean excess_B)
    over the decoded pairs of cells holding codewords.  It is exactly 0.0
    for deterministic integrations, whose every image weight is exactly 1.
    Diagnostics hold gamma/zeta statistics, eps per side, bin spreads, and
    the leakage, missed mass and support mass that enter G; the
    covering/binning error split (s1, s2) comes from error_split.
    """
    params: ProtocolParams
    faithfulness_G: float
    sub_povm_valid_A: tuple
    sub_povm_valid_B: tuple
    excess_A: tuple
    excess_B: tuple
    collisions: int
    occupied: int
    resummation_error: float
    diagnostics: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.faithfulness_G < 0.0:
            raise InvariantError("faithfulness distance cannot be negative")
        object.__setattr__(self, "diagnostics", dict(self.diagnostics))

    @property
    def sub_povm_valid(self) -> bool:
        return all(self.sub_povm_valid_A) and all(self.sub_povm_valid_B)

    @property
    def collision_rate(self) -> float:
        return self.collisions / self.occupied if self.occupied else 0.0


def _stats(prefix: str, vals: np.ndarray) -> dict:
    return {f"{prefix}_mean": float(vals.mean()),
            f"{prefix}_min": float(vals.min()),
            f"{prefix}_max": float(vals.max())}


@dataclass(frozen=True)
class _Setup:
    """The objects of a trial that depend on (rho_AB, d, n, delta) only.

    ``bundles`` holds each side's projector bundle, ``letter_maps`` each
    side's _letter_map from ensemble letters to POVM outcomes, ``rows`` per
    side the members' letter rows and then the sentinel_sequence, mapped to
    POVM outcomes (the void letter one past them) and indexed by decoded
    id, ``p_uv`` the joint outcome law, (``c1``, ``frame``) _sandwich_frame,
    C conjugated once in the layout its product reads, ``columns`` each
    side's _approx_columns (z, vals, offsets), the one array every
    codeword's approximating operator is cut from, ``target_factors`` the
    _letter_factors of the composed target's letters and then of the void
    letter's zero block, and ``law`` _integration_laws' table.  Every array
    is read-only.
    """
    bundles: tuple
    letter_maps: tuple
    rows: tuple
    p_uv: np.ndarray
    c1: np.ndarray
    frame: np.ndarray
    columns: tuple
    target_factors: np.ndarray
    law: np.ndarray


def _setup_key(rho_AB: DensityOperator, d: SeparableDecomposition, n: int,
               delta: float) -> tuple:
    """Everything a _Setup is built from, by content: equal keys give
    bit-equal setups, whichever objects carry the values."""
    def povm(m):
        return m.outcomes, tuple(op.tobytes() for op in m.operators), m.tol

    return (rho_AB.mat.tobytes(), rho_AB.dims, rho_AB.tol, povm(d.povm_A), povm(d.povm_B),
            d.z_alphabet, d.table.tobytes(), n, delta)


def _build_setup(rho_AB: DensityOperator, d: SeparableDecomposition, n: int,
                 delta: float) -> _Setup:
    rho_A = rho_AB.marginal((0,))
    rho_B = rho_AB.marginal((1,))
    ens_A = canonical_ensemble(rho_A, d.povm_A)
    ens_B = canonical_ensemble(rho_B, d.povm_B)
    bundles = (build_projector_bundle(rho_A, ens_A, n, delta),
               build_projector_bundle(rho_B, ens_B, n, delta))
    # typical letters index the canonical ensembles' outcomes, which drop
    # zero-probability POVM outcomes; p_uv, the POVM elements and the
    # integration are indexed by POVM outcome
    letter_maps = (_letter_map(ens_A.outcomes, d.povm_A.outcomes),
                   _letter_map(ens_B.outcomes, d.povm_B.outcomes))
    rows = tuple(to[np.vstack([b.typical.seqs, sentinel_sequence(b.typical)])]
                 for to, b in zip(letter_maps, bundles))
    c1, frame = _sandwich_frame(rho_AB, n)
    ops = compose_decomposition(d).operators
    return _Setup(
        bundles, letter_maps, rows, outcome_distribution(rho_AB, d.povm_A, d.povm_B), c1,
        frame, (_approx_columns(rho_A, bundles[0], n), _approx_columns(rho_B, bundles[1], n)),
        _letter_factors(c1, ops + (np.zeros_like(ops[0]),)), _integration_laws(d))


_slots = {}  # builder name -> (key, value) of its most recent build


def _kept(name: str, key, build):
    """The value kept under ``name`` if its key equals ``key``, else
    build(), made read-only and kept with ``key`` in place of the last.

    One value is kept per name; a build that raises leaves the entry as it
    was.  Keys hold content (bytes, shapes, numbers), so equal values in
    new objects hit the entry.
    """
    slot = _slots.get(name)
    if slot is None or slot[0] != key:
        slot = _slots[name] = (key, read_only(build()))
    return slot[1]


@dataclass(frozen=True)
class _Realization:
    """One protocol realization up to its pooled factor columns.

    ``pool`` holds every codeword pair's sandwich factor columns, one row
    each, at the weights ``weight``; ``pair_code`` and ``decoded_code`` tag
    each column with the code u (|T_B| + 1) + v of its member-id pair and of
    the pair its cell decodes to.  ``gammas`` holds each side's gamma per
    drawn (mu, codeword), and ``leakage`` the trace the unbinned blocks
    leave short of 1.
    """
    setup: _Setup
    gammas: tuple
    checks: tuple
    binmaps: tuple
    decoder: DecoderTable
    pool: np.ndarray
    weight: np.ndarray
    pair_code: np.ndarray
    decoded_code: np.ndarray
    leakage: float


def _realize(params: ProtocolParams, rho_AB: DensityOperator,
             d: SeparableDecomposition) -> _Realization:
    """Draw one protocol realization and pool its codeword-pair factors."""
    dA, dB = d.dims
    n = params.n
    _check_dim_cap(dA * dB, n)
    _check_draw_caps(params)
    if rho_AB.dims != (dA, dB):
        raise InvariantError("state and decomposition dimensions disagree")
    setup = _kept("trial", _setup_key(rho_AB, d, n, params.delta),
                  partial(_build_setup, rho_AB, d, n, params.delta))
    bundle_A, bundle_B = setup.bundles

    codebook = generate_codebooks(params, bundle_A.pruned, bundle_B.pruned)
    mu_A, id_A, z_A, w_A, gamma_A = build_approx_operators(
        codebook.u_lists, setup.columns[0], bundle_A.eps, params.eta)
    mu_B, id_B, z_B, w_B, gamma_B = build_approx_operators(
        codebook.v_lists, setup.columns[1], bundle_B.eps, params.eta)
    checks = tuple([check_sub_povm(weighted_gram(z[:, mu == m], w[mu == m]))
                    for m in range(count)]
                   for mu, z, w, count in ((mu_A, z_A, w_A, params.N1),
                                           (mu_B, z_B, w_B, params.N2)))

    binmaps = generate_bin_maps(params, bundle_A.typical, bundle_B.typical)
    to_A, to_B = setup.letter_maps
    decoder = build_decoder(codebook, binmaps, lambda us, vs: typical_pairs(
        to_A[us], to_B[vs], setup.p_uv, params.delta))

    # one sandwich pass over the two column arrays pools the factor column
    # of every column pair, each tagged with the code u (|T_B| + 1) + v of
    # its member-id pair and of the pair its cell decodes to, the sentinel
    # included, read from one decoded-code table indexed by (mu1, mu2) and
    # bins.  By linearity a decoded block is the sum of its pairs' columns;
    # cells without codewords hold zero blocks and are never visited
    cells = decoder.cells
    nv = len(setup.rows[1])
    tables = np.full((params.N1, params.N2, params.bins1 + 1, params.bins2 + 1),
                     decoder.sentinel[0] * nv + decoder.sentinel[1])
    tables[tuple(cells[:, :4].T)] = cells[:, 4] * nv + cells[:, 5]
    bin_A = binmaps[0].assignments[mu_A, id_A]
    bin_B = binmaps[1].assignments[mu_B, id_B]
    pool = _sandwich_factors(z_A, z_B, setup.frame)
    weight = (w_A[:, None] * w_B).ravel() * (1.0 / (params.N1 * params.N2))
    mass, step = np.empty(len(pool)), max(1, GATHER_CAP // max(1, pool.shape[1]))
    for i in range(0, len(pool), step):  # the covered mass, a row chunk at a time
        rows = np.abs(pool[i:i + step], order="C")
        mass[i:i + step] = np.sum(np.square(rows, out=rows), axis=1)
    covered = float(np.sum(mass * weight))
    return _Realization(setup, (gamma_A, gamma_B), checks, binmaps, decoder, pool, weight,
                        (id_A[:, None] * nv + id_B).ravel(),
                        tables[mu_A[:, None], mu_B, bin_A[:, None], bin_B].ravel(),
                        max(0.0, 1.0 - covered))


def faithfulness_trial(params: ProtocolParams, rho_AB: DensityOperator,
                       d: SeparableDecomposition) -> TrialReport:
    """Run one random protocol realization and score it against the target.

    The score is the faithfulness distance between the tensor-power composed
    measurement and the simulated joint family on the tensor-power state: a
    sum of per-string sandwich trace norms, plus the target mass sitting on
    strings the simulation never emits, plus the simulated family's leakage.
    The covering/binning split of that error is not scored here; error_split
    redraws the same realization to score it.  Only the seed-dependent
    draws are made per call: the bundles, the sandwich frame and the other
    objects that depend on (rho_AB, d, n, delta) alone come from the
    "trial" entry of _kept, rebuilt only when those values change.

    Memory scales with the factors, r = rank(rho_AB).  The pool holds
    (sum k_A)(sum k_B) unpadded columns of r^n entries, the sums running
    over each side's distinct codewords of every mu and k being their
    widths, with a few integer ids per column.  Scoring holds no second
    array of its size: at once it holds one row chunk's target columns and
    one batch of one width's blocks written into a factor and a weight row,
    each of at most GATHER_CAP entries; a batch of width m gives
    min(r^n, m)^2 entries a block to diagonalize.  Held under no cap are
    the pool, the entry index arrays (a stochastic integration fans each
    decoded pair into many image blocks, each taking all its pairs'
    columns) and a block wider than GATHER_CAP, gathered alone, such as an
    undecoded cell's that takes most of the pool.  No Python object is kept
    per codeword, codeword pair or decoded cell, no matrix per codeword is
    formed, and no (dA dB)^n-sided operator; sub-POVM validity takes one
    d^n-sided matrix per family.  Between calls the process retains one
    _Setup, the most recent: both d^n-sided bundles, each side's d^n-row
    column array and (|T| + 1, n) letter rows, the (dB^n r^n, dA^n) frame
    conj(C), read without a copy, and the target letters' (r, r) support
    factors.  Beside it the process retains the most recent build of each
    sweep kind, whose sizes packing_norm_trial, binning_collision_rate and
    soft_covering_trial state; a trial and a sweep never evict each other.
    """
    real = _realize(params, rho_AB, d)
    setup = real.setup
    rows_A, rows_B = setup.rows
    nv = len(rows_B)
    w = real.weight
    decoded_id, decoded_keys = _first_appearance(real.decoded_code)

    # push decoded pairs through the integration: an emitted string's block
    # takes each of its decoded pairs' columns, pair by pair, at the image
    # weight, and is scored against its letterwise target; the void
    # letter's target is zero, so a void string is scored against nothing
    source, zs, image_w = _z_images(rows_A[decoded_keys // nv], rows_B[decoded_keys % nv],
                                    setup.law)
    image, image_rows = _first_appearance(zs)
    # hit h takes the columns of decoded pair source[h], in column order
    counts = np.bincount(decoded_id)
    lengths = counts[source]
    offsets = (np.cumsum(counts) - counts)[source] - (np.cumsum(lengths) - lengths)
    image_col = np.argsort(decoded_id, kind="stable")[
        np.repeat(offsets, lengths) + np.arange(lengths.sum())]
    g_gaps, support_mass = _trace_norm_sum(
        real.pool, np.repeat(image, lengths), image_col,
        -np.repeat(image_w, lengths) * w[image_col], setup.target_factors, image_rows)
    leakage = real.leakage
    missed = max(0.0, 1.0 - support_mass)
    g_val = g_gaps + missed + leakage

    bundle_A, bundle_B = setup.bundles
    binmaps = real.binmaps
    diagnostics = {
        "eps_A": bundle_A.eps,
        "eps_B": bundle_B.eps,
        "bin_spread_A": binmaps[0].spread(),
        "bin_spread_B": binmaps[1].spread(),
        "leakage": leakage,
        "missed_mass": missed,
        "support_mass": support_mass,
    }
    diagnostics.update(_stats("gamma", real.gammas[0]))
    diagnostics.update(_stats("zeta", real.gammas[1]))

    # only cells whose bins both hold codewords have nonzero blocks, and they
    # decode to decoded_keys; TrialReport states the residual bound
    checks_A, checks_B = real.checks
    excess_A = tuple(e for _, e in checks_A)
    excess_B = tuple(e for _, e in checks_B)
    pair_w = np.bincount(source, image_w, minlength=len(decoded_keys))
    resum = (float(np.max(np.abs(pair_w - 1.0)))
             * (1.0 + float(np.mean(excess_A))) * (1.0 + float(np.mean(excess_B))))
    return TrialReport(params, g_val,
                       tuple(v for v, _ in checks_A),
                       tuple(v for v, _ in checks_B),
                       excess_A, excess_B,
                       real.decoder.collisions, real.decoder.occupied, resum, diagnostics)


def error_split(params: ProtocolParams, rho_AB: DensityOperator,
                d: SeparableDecomposition) -> tuple:
    """(s1, s2): the covering and binning terms of one realization's error.

    The realization is the one faithfulness_trial scores for the same
    (params, seed), drawn again from the same setup, so the split costs a
    second draw of the codebooks, bins and decoder with their sandwich pass
    (the setup is rebuilt only if the last trial used other inputs), and
    only callers that ask for it pay.  s1 scores the unbinned
    codeword-pair blocks against the product targets on T_A x T_B, plus
    the target mass outside the codeword pairs and the leakage; s2 is the
    norm-sum gap between the unbinned and the decoded blocks, one block per
    pair code.  The achievability proof bounds G by s1 + s2.
    """
    real = _realize(params, rho_AB, d)
    rows_A, rows_B = real.setup.rows
    nv = len(rows_B)
    pool, w = real.pool, real.weight
    cols = np.arange(w.size)
    pair_id, pair_keys = _first_appearance(real.pair_code)
    # a pair without codewords contributes its target's trace p^n(u, v), and
    # those masses sum to at most 1, so only codeword pairs (all typical) are
    # scored.  The sentinel is the one decoded pair that is no codeword pair
    n_B = len(d.povm_B.outcomes)
    table = _letter_factors(real.setup.c1, [tensor(a, b) for a in d.povm_A.operators
                                            for b in d.povm_B.operators])
    s1_gaps, hit_mass = _trace_norm_sum(pool, pair_id, cols, -w, table,
                                        rows_A[pair_keys // nv] * n_B + rows_B[pair_keys % nv])
    s2_id, s2_keys = _first_appearance(np.concatenate([real.pair_code, real.decoded_code]))
    s2, _ = _trace_norm_sum(pool, s2_id, np.concatenate([cols, cols]), np.concatenate([w, -w]),
                            table[:, :, :0], np.zeros((len(s2_keys), params.n), dtype=np.intp))
    return 1.0 + s1_gaps - hit_mass + real.leakage, s2


# ---------------------------------------------------------------------------
# standalone checks
# ---------------------------------------------------------------------------

def mutual_covering_check(rho_AB: DensityOperator, sub_A: SubPovm, sub_B: SubPovm,
                          target_A: SubPovm, target_B: SubPovm):
    """Faithfulness of two marginal approximations and of their product.

    Returns (F_A, F_B, F_joint); the joint error never exceeds the sum of
    the marginal errors.
    """
    rho_A = rho_AB.marginal((0,))
    rho_B = rho_AB.marginal((1,))
    f_a = faithfulness_distance(rho_A, target_A, sub_A)
    f_b = faithfulness_distance(rho_B, target_B, sub_B)
    f_joint = faithfulness_distance(rho_AB, tensor_povm(target_A, target_B),
                                    tensor_povm(sub_A, sub_B))
    return f_a, f_b, f_joint


# ---------------------------------------------------------------------------
# packing, binning and covering statistics
# ---------------------------------------------------------------------------

def _diagonal_vectors(povm: SubPovm):
    """Real diagonals of an all-diagonal POVM, one row per outcome, or None
    if any element has an off-diagonal entry."""
    vecs = []
    for op in povm.operators:
        scale = max(1.0, float(np.max(np.abs(op))))
        off = op - np.diag(np.diagonal(op))
        if np.max(np.abs(off)) > 1e-12 * scale:
            return None
        vecs.append(np.real(np.diagonal(op)))
    return np.stack(vecs)


def _joint_law(p_uv) -> np.ndarray:
    """p_uv as a float matrix holding one law, by probability_rows."""
    p = np.asarray(p_uv, dtype=float)
    if p.ndim != 2:
        raise InvariantError(f"p_uv must be a matrix, got shape {p.shape}")
    return probability_rows("p_uv", p.ravel()).reshape(p.shape)


def packing_norm_trial(povm_A: SubPovm, povm_B: SubPovm, p_uv, n: int,
                       r1: float, r2: float, delta: float, seed: int) -> float:
    """Operator norm of the jointly typical slab of a random product codebook.

    Codewords are drawn i.i.d. from the unpruned marginals of p_uv; each
    distinct sequence contributes its draw count times the tensor-power POVM
    element, and only jointly typical pairs enter the sum.  The slab is one
    contraction: the elements of all distinct codewords come from one
    Kronecker-row pass per side, U (a, DA, cA) and V (b, DB, cB), and
    sum_{u,v} W[u,v] U_u x V_v is U^T (W V) with the block axes interleaved.
    The letter tables are the (k, d, d) elements, or, when both POVMs are
    diagonal, their diagonals as (k, d, 1) columns; the slab is then the
    column of its diagonal, so larger blocklengths stay inside the caps.
    The marginal laws and the letter tables depend on p_uv and the POVMs
    alone: the most recent build is kept under "packing", keyed by p_uv's
    bytes and shape and every element's bytes, so a sweep over seeds, rates
    or n builds them once.  Between calls that keeps two marginals and the
    two tables, k d^2 entries a side at most.
    """
    p = _joint_law(p_uv)
    if p.shape != (len(povm_A.outcomes), len(povm_B.outcomes)):
        raise InvariantError("p_uv shape must match the POVM outcome counts")
    dA = povm_A.dim
    dB = povm_B.dim
    # the diagonal slab holds (dA dB)^n entries, the dense one is held under
    # the smaller dimension cap, so neither runs above 2^20
    if _exceeds(dA * dB, n, 2 ** 20):
        raise CapExceededError(f"packing dimension {dA * dB}^{n} exceeds the cap {2 ** 20}")

    def build():
        pU = np.clip(p.sum(axis=1), 0.0, None)
        pV = np.clip(p.sum(axis=0), 0.0, None)
        vecs = _diagonal_vectors(povm_A), _diagonal_vectors(povm_B)
        diagonal = vecs[0] is not None and vecs[1] is not None
        tables = ([v[:, :, None] for v in vecs] if diagonal
                  else [np.stack(m.operators) for m in (povm_A, povm_B)])
        return pU / pU.sum(), pV / pV.sum(), *tables, diagonal

    lawU, lawV, tA, tB, diagonal = _kept("packing", (
        p.tobytes(), p.shape, tuple(op.tobytes() for op in povm_A.operators),
        tuple(op.tobytes() for op in povm_B.operators)), build)
    L1 = _count_for_rate(n, r1)
    L2 = _count_for_rate(n, r2)
    if not diagonal:  # refused before any draw, the rates checked first
        _check_dim_cap(dA * dB, n)
    us, countsU = _distinct(substream(seed, STREAM_PACKING_A).choice(
        p.shape[0], size=(L1, n), p=lawU))
    vs, countsV = _distinct(substream(seed, STREAM_PACKING_B).choice(
        p.shape[1], size=(L2, n), p=lawV))
    joint = typical_pairs(us, vs, p, delta)
    U = kron_rows(tA, us)
    V = kron_rows(tB, vs)
    (a, DA, cA), (b, DB, cB) = U.shape, V.shape
    w = np.where(joint, np.outer(countsU, countsV), 0.0)
    slab = (U.reshape(a, -1).T @ (w @ V.reshape(b, -1))).reshape(
        DA, cA, DB, cB).transpose(0, 2, 1, 3).reshape(DA * DB, cA * cB)
    if diagonal:
        return max(0.0, float(slab.max()))
    return operator_norm(slab) if joint.any() else 0.0


def binning_collision_rate(params: ProtocolParams, p_uv) -> float:
    """Fraction of occupied decoder cells holding several typical pairs.

    Runs the classical half of the protocol only, for the one realization
    drawn at ``params.seed``: codebooks from the pruned marginals of p_uv,
    uniform bins, joint-typicality decoding.  Both marginal typical sets and
    their pruned laws depend on (p_uv, n, delta) alone: the most recent
    build is kept under "collision", keyed by p_uv's bytes and shape, n and
    delta, so a sweep over seeds or bin rates builds them once.  Between
    calls that keeps each side's (|T|, n) member rows and |T| probabilities.
    """
    _check_draw_caps(params)
    p = _joint_law(p_uv)
    n, delta = params.n, params.delta

    def build():
        t_u = typical_set(np.clip(p.sum(axis=1), 0.0, None), n, delta)
        t_v = typical_set(np.clip(p.sum(axis=0), 0.0, None), n, delta)
        return t_u, t_v, pruned_distribution(t_u), pruned_distribution(t_v)

    t_u, t_v, pruned_u, pruned_v = _kept("collision", (p.tobytes(), p.shape, n, delta), build)
    joint = partial(typical_pairs, p_uv=p, delta=delta)
    codebook = generate_codebooks(params, pruned_u, pruned_v)
    decoder = build_decoder(codebook, generate_bin_maps(params, t_u, t_v), joint)
    return decoder.collisions / decoder.occupied if decoder.occupied else 0.0


def soft_covering_trial(ens, n: int, rate_sum: float, seed: int,
                        delta: float, eta: float) -> float:
    """Trace-norm obfuscation error of one random pruned codebook.

    Compares the tensor power of the ensemble average against the scaled
    empirical average of roughly 2^{n rate_sum} codeword states drawn from
    the pruned typical distribution of the weights, at typicality window
    ``delta`` and deflated by 1 / (1 + ``eta``).  Both sides are sums of
    product states over letter strings s, so the scored matrix is
    sum_s C[s] rho_{s_1} x ... x rho_{s_n} with C[s] = p^n(s) - scale
    count(s): count is one bincount of the draws' lexicographic ranks over
    all |X|^n strings.  C is contracted with the (|X|, d, d) letter-state
    table one position at a time, (d^k, d^k, |X|^{n-k}) to
    (d^{k+1}, d^{k+1}, |X|^{n-k-1}).  Those sizes are monotone in k, so no
    array is larger than max(|X|^n, d^{2n}) entries, both held under the
    caps, and a step holds at most three of them at once: its input (with
    tensordot's reordered copy of it) and product, then the product and its
    reordered copy.  The pruned law, eps, the members' ranks and the p^n
    coefficients depend on (weights, n, delta) alone: the most recent build
    is kept under "soft-covering", keyed by the weights' bytes, n and delta,
    so a sweep over seeds or rate sums builds them once.  Between calls that
    keeps |X|^n coefficients, at most 8 MB under SEQ_CAP, and two |T|-entry
    arrays.
    """
    _check_dim_cap(ens.dim, n)
    weights = np.asarray(ens.weights, dtype=float)
    size = weights.size

    def build():
        tset = typical_set(weights, n, delta)
        return (pruned_distribution(tset), max(0.0, 1.0 - tset.mass),
                tset.seqs @ size ** np.arange(n - 1, -1, -1),
                reduce(np.multiply.outer, [weights] * n).ravel())

    pruned, eps, ranks, power = _kept("soft-covering", (weights.tobytes(), n, delta), build)
    M = _count_for_rate(n, rate_sum)
    draws = pruned.sample(substream(seed, STREAM_SOFT), M)
    scale = (1.0 - eps) / ((1.0 + eta) * M)
    coef = power - scale * np.bincount(ranks[draws], minlength=size ** n)
    table = np.stack([np.asarray(state.mat, dtype=np.complex128) for state in ens.states])
    d = ens.dim
    out = coef.reshape(1, 1, -1)
    for _ in range(n):
        rows, cols, rest = out.shape
        # rebinding out first frees the step's input before the reordering copy
        out = np.tensordot(out.reshape(rows, cols, size, rest // size), table, axes=(2, 0))
        out = out.transpose(0, 3, 1, 4, 2).reshape(rows * d, cols * d, rest // size)
    return trace_norm(out[:, :, 0])
