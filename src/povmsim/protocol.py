"""Finite-blocklength random-coding simulation of distributed measurements.

The pipeline mirrors the achievability construction: draw codebooks from the
pruned typical distributions, rescale the compressed sequence operators into
per-sender approximating sub-POVMs, bin their outcomes uniformly, decode bin
pairs back to the unique jointly typical codeword pair, and push the decoded
pairs through the integration channel.  The resulting joint family is scored
against the tensor-power target measurement.

Codewords, bin assignments and decoded pairs are member ids of the typical
sets (rows of TypicalSet.seqs); the decoder turns decoded ids back into
letter rows, the sentinel's included, and the letters index the canonical
ensembles' outcomes, which one index array per side maps to POVM outcomes.

Scoring never materializes the simulated operators in full: every trace norm
is evaluated inside the support of the input state, where a codeword-pair
operator Gamma_u x Gamma_v turns into an r^n x r^n sandwich (r the state's
rank).  Each Gamma is carried in eigen-form Z diag(w) Z^dag, Z with one
column per dimension of its compressed conditional typical subspace, so a
sandwich is H diag(w_u x w_v) H^dag with the thin factor H = C^dag (Z_u x Z_v).
Each sender's draws over all mu are one column array cut from the setup's,
and one pass over the two arrays puts the factor column of every column
pair, unpadded, into one pool.  Blocks stay in that form through scoring:
a pair, decoded, emitted or target block is a set of (column, weight)
entries tagged with its integer block id, whose trace norm comes from the
R of one QR of its columns side by side.  The pool gives G, and error_split
scores the covering/binning error split (s1, s2) from the same pool on
demand; binned cells are never sandwiched, as a cell's block is the sum of
its codeword pairs' columns.
Everything is deterministic given (params, seed); randomness flows through
counter-based substreams, one per random object.  Only the codebooks, the
bins and the decoder are random; what they are built on (the bundles, the
letter maps and p(u, v), the sandwich frame, each side's column array
pinv_sqrt(rho^{(x)n}) pi_hat [every bundle factor] and the target's
letters) depends on (rho_AB, d, n, delta) alone.
It is built once and kept in one slot, keyed by those values' content, so
a sweep over seeds builds it once; its arrays are read-only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
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
    eigh_desc,
    hermitize,
    kron_rows,
    matrix_sqrt_and_pinv_sqrt,
    operator_norm,
    read_only,
    tensor,
    tensor_povm,
    trace_norm,
    weighted_gram,
)
from .typicality import (
    CHUNK_CAP,
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
    if not math.isfinite(rate):
        raise InvariantError(f"rate {rate} is not finite")
    if n * rate > math.log2(SEQ_CAP):
        raise CapExceededError(
            f"2^({n} x {rate}) codewords exceed the enumeration cap {SEQ_CAP}")
    return max(1, round(2.0 ** (n * rate)))


def _check_cell_cap(params: ProtocolParams):
    cells = params.N1 * params.N2 * params.bins1 * params.bins2
    if cells > SEQ_CAP:
        raise CapExceededError(f"{cells} decoder cells exceed the cap {SEQ_CAP}")


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
    """Per-mu codewords for both senders: one array of member ids per mu,
    in draw order, duplicates kept."""
    u_lists: tuple
    v_lists: tuple


def generate_codebooks(params: ProtocolParams, pruned_U: PrunedDistribution,
                       pruned_V: PrunedDistribution) -> Codebook:
    """Draw the per-mu codeword lists from the pruned typical distributions."""
    u_lists = tuple(pruned_U.sample(substream(params.seed, STREAM_CODEBOOK_A, mu), params.L1)
                    for mu in range(params.N1))
    v_lists = tuple(pruned_V.sample(substream(params.seed, STREAM_CODEBOOK_B, mu), params.L2)
                    for mu in range(params.N2))
    return Codebook(u_lists, v_lists)


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
    """(z, vals, offsets): pinv_sqrt(rho^{(x)n}) pi_hat times the factors of
    the bundle's lam_seq side by side, and their eigenvalues; member s owns
    columns offsets[s]:offsets[s + 1]."""
    _, pinv1 = matrix_sqrt_and_pinv_sqrt(rho.mat)
    factors, vals = zip(*bundle.lam_seq)
    return (tensor(*[pinv1] * n) @ (bundle.pi_hat @ np.concatenate(factors, axis=1)),
            np.concatenate(vals), np.cumsum([0] + [v.size for v in vals]))


def build_approx_operators(codebook: Codebook, columns: tuple, bundle,
                           params: ProtocolParams, side: str = "A") -> tuple:
    """Approximating sub-POVM candidates of one sender, for every
    common-randomness index at once.

    Each drawn codeword value s receives
        gamma * pinv_sqrt(rho^{(x)n}) pi_hat Lambda'_s pi_hat pinv_sqrt(rho^{(x)n})
    with gamma = count * (1 - eps) / ((1 + eta) * L), in eigen-form: its
    columns of _approx_columns' (z, vals, offsets), given as ``columns``,
    weighted gamma * vals.  Returns (mu, ids, z, w), one entry per column:
    its common-randomness index and member id, the column and its weight,
    so the operator of (mu, s) is the weighted_gram of its columns.  Columns
    go mu by mu, codewords in order of first draw; values never drawn get
    the zero operator and have no columns.
    """
    if side not in ("A", "B"):
        raise InvariantError("side must be 'A' or 'B'")
    draws = np.stack(codebook.u_lists if side == "A" else codebook.v_lists)  # (mu, L)
    z, vals, offsets = columns
    members = len(offsets) - 1
    scale = (1.0 - bundle.params["eps"]) / ((1.0 + params.eta) * draws.shape[1])
    keys, counts = _distinct((draws + members * np.arange(len(draws))[:, None]).ravel())
    mu, ids = np.divmod(keys, members)
    widths = offsets[ids + 1] - offsets[ids]
    take = (np.repeat(offsets[ids] - (np.cumsum(widths) - widths), widths)
            + np.arange(widths.sum()))
    return (np.repeat(mu, widths), np.repeat(ids, widths), z[:, take],
            np.repeat(counts * scale, widths) * vals[take])


def check_sub_povm(ops, tol: float = DEFAULT_TOL):
    """Whether a family of PSD operators sums below the identity.

    Returns (valid, excess) with excess = max(0, lambda_max(sum) - 1); the
    empty family is vacuously valid.
    """
    ops = list(ops)
    if not ops:
        return True, 0.0
    total = ops[0].astype(np.complex128, copy=True)
    for op in ops[1:]:
        total += op
    lmax = float(eigh_desc(hermitize(total))[0][0])
    excess = max(0.0, lmax - 1.0)
    return excess <= tol, excess


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

    ``cells`` maps only the uniquely decodable cells, keyed
    (mu1, mu2, i, j), to their pair of member ids; every other cell, and
    any cell with a zero bin index, decodes to the sentinel pair, id |T_A|
    and |T_B|.  ``rows`` holds per side the letter rows of the typical
    members followed by the sentinel's, so rows[0][u] and rows[1][v] are the
    letters of a decoded id pair (u, v), as indices into ``alphabets``, the
    void letter being the index one past the end.
    """
    cells: Mapping
    rows: tuple
    alphabets: tuple
    bins1: int
    bins2: int
    n_mu: tuple
    collisions: int
    occupied: int

    @property
    def sentinel(self) -> tuple:
        return (len(self.rows[0]) - 1, len(self.rows[1]) - 1)


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
    _, first, counts = np.unique(found[:, :4], axis=0, return_index=True, return_counts=True)
    cells = {(m1, m2, i, j): (u, v)
             for m1, m2, i, j, u, v in found[np.sort(first[counts == 1])].tolist()}
    rows = tuple(np.vstack([t.seqs, sentinel_sequence(t)]) for t in (t1, t2))
    return DecoderTable(cells, rows, (t1.alphabet, t2.alphabet), bm1.nbins, bm2.nbins,
                        (len(codebook.u_lists), len(codebook.v_lists)),
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
    outs_A, outs_B = d.povm_A.outcomes, d.povm_B.outcomes
    nx, ny, nz = len(outs_A), len(outs_B), len(d.z_alphabet)
    law = np.zeros((nx + 1, ny + 1, nz + 1))
    law[:nx, :ny, :nz] = [[d.row(u, v) for v in outs_B] for u in outs_A]
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


def _side_major_rows(c_copy: np.ndarray, dA: int, dB: int, n: int) -> np.ndarray:
    """Reorder kron-power rows from copy-major (A1 B1 A2 B2 ...) to side-major."""
    rn = c_copy.shape[1]
    t = c_copy.reshape([dA, dB] * n + [rn])
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)) + [2 * n]
    return np.ascontiguousarray(np.transpose(t, order)).reshape(
        (dA ** n) * (dB ** n), rn)


def _sandwich_frame(rho_AB: DensityOperator, n: int):
    """(c1, cperm3): the support factor of rho_AB and its n-th Kronecker power
    with side-major rows, shaped (dA^n, dB^n, r^n)."""
    dA, dB = rho_AB.dims
    c1 = _support_factor(rho_AB.mat)
    c_perm = _side_major_rows(tensor(*[c1] * n), dA, dB, n)
    return c1, c_perm.reshape(dA ** n, dB ** n, c_perm.shape[1])


def _sandwich_factors(zx: np.ndarray, zy: np.ndarray, cperm3: np.ndarray) -> np.ndarray:
    """C^dag (x_i x y_j) for every column x_i of zx and y_j of zy: the rows
    of a (K_x K_y, r^n) array, row i K_y + j.

    For X = zx diag(s) zx^dag and Y = zy diag(t) zy^dag with real weights,
    C^dag (X x Y) C = H diag(s x t) H^dag with these rows as H's columns, so
    no operator on the full space is formed; a factor with no columns gives
    no rows.
    """
    dA, dB, rn = cperm3.shape
    # half[y, p, i] = sum_x conj(C[x, y, p]) zx[x, i]
    half = cperm3.reshape(dA, dB * rn).conj().T @ zx
    # h[p, i, j] = sum_y half[y, p, i] zy[y, j]
    h = half.reshape(dB, -1).T @ zy
    return np.ascontiguousarray(h.reshape(rn, -1).T)


def _trace_norm_sum(pool: np.ndarray, block: np.ndarray, col: np.ndarray,
                    weight: np.ndarray) -> float:
    """Sum of the trace norms of Hermitian blocks in factor form.

    Entry e puts the column pool[col[e]] with the real weight weight[e] into
    block block[e], which stands for F diag(s) F^dag over its entries in
    entry order, F holding its m columns side by side, each a row of pool.
    With F = QR a block shares its nonzero eigenvalues with R diag(s) R^dag,
    so blocks of one width m go through one batched reduced QR and one
    eigvalsh; when m is at least F's row count QR cannot shrink F, and F
    itself serves as R.
    Widths go in order of first appearance, each width's blocks gathered a
    chunk at a time, so that no gathered factor holds more than GATHER_CAP
    entries unless a single block does; a block id without entries is a
    zero block.
    """
    side = pool.shape[1]
    order = np.argsort(block, kind="stable")
    cols, weights = col[order], weight[order]
    widths = np.bincount(block)
    starts = np.cumsum(widths) - widths
    _, first = np.unique(widths, return_index=True)
    total = 0.0
    for m in widths[np.sort(first)]:
        heads = starts[widths == m]
        step = max(1, GATHER_CAP // max(1, m * side))
        for i in range(0, len(heads), step):
            take = heads[i:i + step, None] + np.arange(m)
            f = pool[cols[take]].transpose(0, 2, 1)
            r = f if m >= side else np.linalg.qr(f, mode="r")
            rs = r * weights[take][:, None, :]
            total += np.abs(np.linalg.eigvalsh(rs @ r.conj().transpose(0, 2, 1))).sum()
    return float(total)


def _gap_norms(c1: np.ndarray, letter_ops, idx: np.ndarray, pool: np.ndarray,
               block: np.ndarray, col: np.ndarray, weight: np.ndarray) -> tuple:
    """(sum_x ||T_x - P_x||_1, sum_x tr T_x) over the blocks x = 0, 1, ...
    of idx's rows, P_x being block x of the entries (block, col, weight).

    T_x is the product target block (x)_k c1^dag op(idx[x, k]) c1, letter_ops
    giving op per letter index.  Letter blocks are PSD, so T_x is the Gram
    matrix of the Kronecker row of its letters' support factors, padded with
    zero columns to one width; a zero letter has no columns.  The target
    columns join the pool, and their entries go in front of P_x's, whose
    weights are negated.
    """
    table = _support_factor(c1.conj().T @ np.stack(letter_ops) @ c1)
    targets = kron_rows(table, idx)
    count, side, width = targets.shape
    pool = np.concatenate([pool, targets.transpose(0, 2, 1).reshape(-1, side)])
    t_cols = np.arange(len(pool) - count * width, len(pool))
    gaps = _trace_norm_sum(pool, np.concatenate([np.repeat(np.arange(count), width), block]),
                           np.concatenate([t_cols, col]),
                           np.concatenate([np.ones(count * width), -weight]))
    return gaps, float(np.sum(np.abs(targets) ** 2))


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


def _gamma_values(lists, eps: float, eta: float, L: int):
    scale = (1.0 - eps) / ((1.0 + eta) * L)
    return [c * scale for lst in lists for c in _distinct(lst)[1].tolist()]


def _stats(prefix: str, vals) -> dict:
    arr = np.asarray(vals, dtype=float)
    return {f"{prefix}_mean": float(arr.mean()),
            f"{prefix}_min": float(arr.min()),
            f"{prefix}_max": float(arr.max())}


@dataclass(frozen=True)
class _Setup:
    """The objects of a trial that depend on (rho_AB, d, n, delta) only.

    ``bundles`` holds each side's projector bundle, ``letter_maps`` each
    side's _letter_map from ensemble letters to POVM outcomes, ``p_uv`` the
    joint outcome law, (``c1``, ``cperm3``) the sandwich frame, ``columns``
    each side's _approx_columns (z, vals, offsets), the one array every
    codeword's approximating operator is cut from, ``target_ops`` the
    composed target's letter operators followed by the void letter's zero
    block, and ``law`` _integration_laws' table.  Every array is read-only.
    """
    bundles: tuple
    letter_maps: tuple
    p_uv: np.ndarray
    c1: np.ndarray
    cperm3: np.ndarray
    columns: tuple
    target_ops: tuple
    law: np.ndarray


def _setup_key(rho_AB: DensityOperator, d: SeparableDecomposition, n: int,
               delta: float) -> tuple:
    """Everything a _Setup is built from, by content: equal keys give
    bit-equal setups, whichever objects carry the values."""
    def povm(m):
        return m.outcomes, tuple(op.tobytes() for op in m.operators), m.tol

    rows = tuple(d.row(u, v).tobytes() for u in d.povm_A.outcomes for v in d.povm_B.outcomes)
    return (rho_AB.mat.tobytes(), rho_AB.dims, rho_AB.tol, povm(d.povm_A), povm(d.povm_B),
            d.z_alphabet, rows, d.tol, n, delta)


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
    c1, cperm3 = _sandwich_frame(rho_AB, n)
    ops = compose_decomposition(d).operators
    return read_only(_Setup(
        bundles, letter_maps, outcome_distribution(rho_AB, d.povm_A, d.povm_B), c1, cperm3,
        (_approx_columns(rho_A, bundles[0], n), _approx_columns(rho_B, bundles[1], n)),
        ops + (np.zeros_like(ops[0]),), _integration_laws(d)))


_last_setup = (None, None)  # (key, setup) of the most recent build


def _setup(rho_AB: DensityOperator, d: SeparableDecomposition, n: int,
           delta: float) -> _Setup:
    """The trial's seed-independent objects, built again only when their
    key differs from the last build's; one setup is retained, and a build
    that raises leaves the slot as it was."""
    global _last_setup
    key = _setup_key(rho_AB, d, n, delta)
    if _last_setup[0] != key:
        _last_setup = (key, _build_setup(rho_AB, d, n, delta))
    return _last_setup[1]


@dataclass(frozen=True)
class _Realization:
    """One protocol realization up to its pooled factor columns.

    ``pool`` holds every codeword pair's sandwich factor columns, one row
    each, at the weights ``weight``; ``pair_code`` and ``decoded_code`` tag
    each column with the code u (|T_B| + 1) + v of its member-id pair and of
    the pair its cell decodes to.  ``rows`` holds per side the POVM-outcome
    letter rows of the decoded ids, and ``leakage`` the trace the unbinned
    blocks leave short of 1.
    """
    setup: _Setup
    codebook: Codebook
    checks: tuple
    binmaps: tuple
    decoder: DecoderTable
    rows: tuple
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
    _check_cell_cap(params)
    if rho_AB.dims != (dA, dB):
        raise InvariantError("state and decomposition dimensions disagree")
    setup = _setup(rho_AB, d, n, params.delta)
    bundle_A, bundle_B = setup.bundles

    codebook = generate_codebooks(params, bundle_A.pruned, bundle_B.pruned)
    mu_A, id_A, z_A, w_A = build_approx_operators(codebook, setup.columns[0], bundle_A,
                                                  params, side="A")
    mu_B, id_B, z_B, w_B = build_approx_operators(codebook, setup.columns[1], bundle_B,
                                                  params, side="B")
    checks = tuple([check_sub_povm([weighted_gram(z[:, mu == m], w[mu == m])])
                    for m in range(count)]
                   for mu, z, w, count in ((mu_A, z_A, w_A, params.N1),
                                           (mu_B, z_B, w_B, params.N2)))

    binmaps = generate_bin_maps(params, bundle_A.typical, bundle_B.typical)
    to_A, to_B = setup.letter_maps
    decoder = build_decoder(codebook, binmaps, lambda us, vs: typical_pairs(
        to_A[us], to_B[vs], setup.p_uv, params.delta))
    rows_A, rows_B = to_A[decoder.rows[0]], to_B[decoder.rows[1]]

    # one sandwich pass over the two column arrays pools the factor column
    # of every column pair, each tagged with the code u (|T_B| + 1) + v of
    # its member-id pair and of the pair its cell decodes to, the sentinel
    # included, read from one decoded-code table indexed by (mu1, mu2) and
    # bins.  By linearity a decoded block is the sum of its pairs' columns;
    # cells without codewords hold zero blocks and are never visited
    nv = len(rows_B)
    tables = np.full((params.N1, params.N2, params.bins1 + 1, params.bins2 + 1),
                     decoder.sentinel[0] * nv + decoder.sentinel[1])
    tables[tuple(np.array(list(decoder.cells), dtype=np.intp).reshape(-1, 4).T)] = [
        u * nv + v for u, v in decoder.cells.values()]
    bin_A = binmaps[0].assignments[mu_A, id_A]
    bin_B = binmaps[1].assignments[mu_B, id_B]
    pool = _sandwich_factors(z_A, z_B, setup.cperm3)
    weight = (w_A[:, None] * w_B).ravel() * (1.0 / (params.N1 * params.N2))
    covered = float(np.sum(np.sum(np.abs(pool) ** 2, axis=1) * weight))
    return _Realization(setup, codebook, checks, binmaps, decoder, (rows_A, rows_B),
                        pool, weight, (id_A[:, None] * nv + id_B).ravel(),
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
    objects that depend on (rho_AB, d, n, delta) alone come from _setup,
    which rebuilds them only when those values change.

    Memory scales with the factors, r = rank(rho_AB): the pool holds
    (sum k_A)(sum k_B) unpadded columns of r^n entries, formed in one pass,
    the sums running over each side's distinct codewords of every mu and k
    being their widths, with a few integer ids per column; scoring adds the
    target columns and gathers the blocks of each width m a chunk at a
    time, the r^n x m factors of a chunk holding at most GATHER_CAP entries
    in all (one block, if that alone is wider) and giving min(r^n, m)^2
    blocks to diagonalize.  No Python object is kept per codeword or
    codeword pair, no matrix per codeword is formed, and no
    (dA dB)^n-sided operator; sub-POVM validity takes one d^n-sided matrix
    per family.  The pool and the entry index arrays are held under no cap:
    a stochastic integration fans each decoded pair into many image blocks,
    each taking all its pairs' columns, so image entries can far outnumber
    the pool's columns.  Between calls the process retains one _Setup, the
    most recent: both d^n-sided bundles, each side's d^n-row column array,
    the (dA^n, dB^n, r^n) frame and the target's (dA dB)-sided letters.
    """
    real = _realize(params, rho_AB, d)
    rows_A, rows_B = real.rows
    nv = len(rows_B)
    w = real.weight
    decoded_id, decoded_keys = _first_appearance(real.decoded_code)

    # push decoded pairs through the integration: an emitted string's block
    # takes each of its decoded pairs' columns, pair by pair, at the image
    # weight, and is scored against its letterwise target; the void
    # letter's target is zero, so a void string is scored against nothing
    setup = real.setup
    source, zs, image_w = _z_images(rows_A[decoded_keys // nv], rows_B[decoded_keys % nv],
                                    setup.law)
    image, image_rows = _first_appearance(zs)
    # hit h takes the columns of decoded pair source[h], in column order
    counts = np.bincount(decoded_id)
    lengths = counts[source]
    offsets = (np.cumsum(counts) - counts)[source] - (np.cumsum(lengths) - lengths)
    image_col = np.argsort(decoded_id, kind="stable")[
        np.repeat(offsets, lengths) + np.arange(lengths.sum())]
    g_gaps, support_mass = _gap_norms(
        setup.c1, setup.target_ops, image_rows,
        real.pool, np.repeat(image, lengths), image_col, np.repeat(image_w, lengths) * w[image_col])
    leakage = real.leakage
    missed = max(0.0, 1.0 - support_mass)
    g_val = g_gaps + missed + leakage

    bundle_A, bundle_B = setup.bundles
    binmaps = real.binmaps
    diagnostics = {
        "eps_A": float(bundle_A.params["eps"]),
        "eps_B": float(bundle_B.params["eps"]),
        "bin_spread_A": binmaps[0].spread(),
        "bin_spread_B": binmaps[1].spread(),
        "leakage": leakage,
        "missed_mass": missed,
        "support_mass": support_mass,
    }
    diagnostics.update(_stats("gamma", _gamma_values(
        real.codebook.u_lists, bundle_A.params["eps"], params.eta, params.L1)))
    diagnostics.update(_stats("zeta", _gamma_values(
        real.codebook.v_lists, bundle_B.params["eps"], params.eta, params.L2)))

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
    rows_A, rows_B = real.rows
    nv = len(rows_B)
    pool, w = real.pool, real.weight
    cols = np.arange(w.size)
    pair_id, pair_keys = _first_appearance(real.pair_code)
    # a pair without codewords contributes its target's trace p^n(u, v), and
    # those masses sum to at most 1, so only codeword pairs (all typical) are
    # scored.  The sentinel is the one decoded pair that is no codeword pair
    n_B = len(d.povm_B.outcomes)
    s1_gaps, hit_mass = _gap_norms(
        real.setup.c1, [tensor(a, b) for a in d.povm_A.operators for b in d.povm_B.operators],
        rows_A[pair_keys // nv] * n_B + rows_B[pair_keys % nv],
        pool, pair_id, cols, w)
    s2_id, _ = _first_appearance(np.concatenate([real.pair_code, real.decoded_code]))
    s2 = _trace_norm_sum(pool, s2_id, np.concatenate([cols, cols]), np.concatenate([w, -w]))
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
    """p_uv as a float matrix of finite, nonnegative entries summing to 1."""
    p = np.asarray(p_uv, dtype=float)
    if (p.ndim != 2 or not np.all(np.isfinite(p)) or np.any(p < -1e-12)
            or abs(p.sum() - 1.0) > 1e-9):
        raise InvariantError("p_uv must be a joint distribution matrix")
    return p


def packing_norm_trial(povm_A: SubPovm, povm_B: SubPovm, p_uv, n: int,
                       r1: float, r2: float, delta: float, seed: int) -> float:
    """Operator norm of the jointly typical slab of a random product codebook.

    Codewords are drawn i.i.d. from the unpruned marginals of p_uv; each
    distinct sequence contributes its draw count times the tensor-power POVM
    element, and only jointly typical pairs enter the sum.  All-diagonal
    POVM pairs take a vector fast path, so larger blocklengths stay inside
    the caps: the diagonals of all distinct codewords' elements come from
    one Kronecker-row pass over the letters' diagonals, and the slab's
    diagonal is one weighted product of them.
    """
    p = _joint_law(p_uv)
    if p.shape != (len(povm_A.outcomes), len(povm_B.outcomes)):
        raise InvariantError("p_uv shape must match the POVM outcome counts")
    dA = povm_A.dim
    dB = povm_B.dim
    # the diagonal path holds vectors of (dA dB)^n entries, the dense path
    # is held under the smaller dimension cap, so neither runs above 2^20
    if _exceeds(dA * dB, n, 2 ** 20):
        raise CapExceededError(f"packing dimension {dA * dB}^{n} exceeds the cap {2 ** 20}")
    pU = np.clip(p.sum(axis=1), 0.0, None)
    pV = np.clip(p.sum(axis=0), 0.0, None)
    L1 = _count_for_rate(n, r1)
    L2 = _count_for_rate(n, r2)
    us, countsU = _distinct(substream(seed, STREAM_PACKING_A).choice(
        p.shape[0], size=(L1, n), p=pU / pU.sum()))
    vs, countsV = _distinct(substream(seed, STREAM_PACKING_B).choice(
        p.shape[1], size=(L2, n), p=pV / pV.sum()))
    joint = typical_pairs(us, vs, p, delta)

    vecsA = _diagonal_vectors(povm_A)
    vecsB = _diagonal_vectors(povm_B)
    if vecsA is not None and vecsB is not None:
        du = kron_rows(vecsA[:, :, None], us)[:, :, 0]
        dv = kron_rows(vecsB[:, :, None], vs)[:, :, 0]
        w = np.where(joint, np.outer(countsU, countsV), 0.0)
        acc = du.T @ w @ dv
        return max(0.0, float(acc.max()))

    _check_dim_cap(dA * dB, n)
    acc = np.zeros(((dA * dB) ** n,) * 2, dtype=np.complex128)
    opsU = [tensor(*(povm_A.operators[k] for k in u)) for u in us.tolist()]
    opsV = [tensor(*(povm_B.operators[k] for k in v)) for v in vs.tolist()]
    for a, b in zip(*np.nonzero(joint)):
        acc += (countsU[a] * countsV[b]) * np.kron(opsU[a], opsV[b])
    return operator_norm(acc) if joint.any() else 0.0


def binning_collision_rate(params: ProtocolParams, p_uv, seeds) -> float:
    """Fraction of occupied decoder cells holding several typical pairs.

    Runs the classical half of the protocol only: codebooks from the pruned
    marginals of p_uv, uniform bins, joint-typicality decoding.  Pools the
    counts over all seeds.
    """
    _check_cell_cap(params)
    p = _joint_law(p_uv)
    pU = np.clip(p.sum(axis=1), 0.0, None)
    pV = np.clip(p.sum(axis=0), 0.0, None)
    t_u = typical_set(pU, params.n, params.delta)
    t_v = typical_set(pV, params.n, params.delta)
    joint = partial(typical_pairs, p_uv=p, delta=params.delta)
    pruned_u = pruned_distribution(t_u)
    pruned_v = pruned_distribution(t_v)
    collisions = 0
    occupied = 0
    for s in seeds:
        pp = replace(params, seed=int(s))
        codebook = generate_codebooks(pp, pruned_u, pruned_v)
        binmaps = generate_bin_maps(pp, t_u, t_v)
        decoder = build_decoder(codebook, binmaps, joint)
        collisions += decoder.collisions
        occupied += decoder.occupied
    return collisions / occupied if occupied else 0.0


def soft_covering_trial(ens, n: int, rate_sum: float, seed: int,
                        delta: float = 0.2, eta: float = 0.1) -> float:
    """Trace-norm obfuscation error of one random pruned codebook.

    Compares the tensor power of the ensemble average against the scaled
    empirical average of roughly 2^{n rate_sum} codeword states drawn from
    the pruned typical distribution of the weights.  The states of the
    distinct draws are built by Kronecker-row passes over the letter states,
    a few at a time so that no chunk holds more than CHUNK_CAP entries, and
    added with their draw counts in first-draw order.
    """
    _check_dim_cap(ens.dim, n)
    weights = np.asarray(ens.weights, dtype=float)
    tset = typical_set(weights, n, delta, alphabet=ens.outcomes)
    pruned = pruned_distribution(tset)
    eps = max(0.0, 1.0 - tset.mass)
    M = _count_for_rate(n, rate_sum)
    draws = pruned.sample(substream(seed, STREAM_SOFT), M)
    target = tensor(*[ens.average()] * n)
    acc = np.zeros_like(target)
    ids, counts = _distinct(draws)
    idx = tset.seqs[ids]
    table = np.stack([np.asarray(state.mat, dtype=np.complex128) for state in ens.states])
    draw_counts = counts.tolist()
    step = max(1, CHUNK_CAP // target.size)
    for start in range(0, len(idx), step):
        states = kron_rows(table, idx[start:start + step])
        for c, state in zip(draw_counts[start:start + step], states):
            acc += c * state
    scale = (1.0 - eps) / ((1.0 + eta) * M)
    return trace_norm(target - scale * acc)
