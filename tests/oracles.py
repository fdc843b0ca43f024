"""Reference computations that only the tests call.

Dense identities, the baseline rate regions of point-to-point measurement
compression, the distortion of the decoded protocol and of the
rate-distortion inner bound block by block, Fourier-Motzkin elimination over
Fraction rows, validated CqState marginals, the
block-by-block measured states, validations and entropies that the library
now takes over whole stacks, and small readers of library objects.  Each builds full matrices where the library works in
factor form or never needs the quantity at all; tests compare the two, or
check a paper identity with them.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from fractions import Fraction

import numpy as np

from povmsim.errors import InvariantError
from povmsim.measurement import (
    CqState,
    _op_or_zero,
    _union_alphabet,
    attach_classical,
    auxiliary_states,
    faithfulness_distance,
)
from povmsim.operators import (
    DEFAULT_TOL,
    EIG_CUTOFF,
    DensityOperator,
    Povm,
    SubPovm,
    eigh_desc,
    hermitize,
    kron_rows,
    matrix_sqrt_and_pinv_sqrt,
    operator_norm,
    partial_trace,
    purify,
    tensor,
    trace_norm,
    von_neumann_entropy,
)
from povmsim.protocol import (STREAM_PACKING_A, STREAM_PACKING_B, _count_for_rate,
                               _distinct, _sandwich_factors, _sandwich_frame,
                               sentinel_sequence, substream)
from povmsim.regions import GE, GT, RegionReport
from povmsim.serialize import density_to_json
from povmsim.typicality import _check_dim_cap, typical_pairs, typical_set

#: outcome label appended by complete_sub_povm for the deficit operator
COMPLETION_OUTCOME = "__rest__"


# ---------------------------------------------------------------------------
# readers of library objects
# ---------------------------------------------------------------------------

def power(rho: DensityOperator, n: int) -> DensityOperator:
    """n-fold tensor power, dims repeated copy by copy."""
    m = tensor(*([rho.mat] * n)) if n > 1 else rho.mat
    return DensityOperator(m, rho.dims * n, tol=max(rho.tol, 1e-8))


def prob(cq: CqState, key) -> float:
    """Probability of one tuple of classical outcomes, 0 for a missing block."""
    key = tuple(key) if isinstance(key, (tuple, list)) else (key,)
    blk = cq.blocks.get(key)
    return 0.0 if blk is None else float(np.real(np.trace(blk)))


def reduce_cq(cq: CqState, keep) -> CqState:
    """The validated marginal CqState on the named registers (classical and/or
    quantum), kept registers in their original order: dropped classical
    registers are summed out, dropped quantum registers partial-traced."""
    keep = set(keep)
    unknown = keep - set(cq.registers())
    if unknown:
        raise InvariantError(f"unknown registers {sorted(unknown)}")
    ckeep = tuple(c for c in cq.cregisters if c in keep)
    qkeep = tuple(q for q in cq.qregisters if q in keep)
    cidx = [cq.cregisters.index(c) for c in ckeep]
    qdims_all = [cq.qdims[q] for q in cq.qregisters]
    qidx = [cq.qregisters.index(q) for q in qkeep]
    out: dict = {}
    for key, blk in cq.blocks.items():
        newkey = tuple(key[i] for i in cidx)
        red = partial_trace(blk, qdims_all, qidx) if cq.qregisters else blk
        if newkey in out:
            out[newkey] = out[newkey] + red
        else:
            out[newkey] = red
    return CqState(
        cregisters=ckeep,
        qregisters=qkeep,
        qdims={q: cq.qdims[q] for q in qkeep},
        blocks=out,
        tol=max(cq.tol, 1e-8),
    )


def ensemble_state(ens, outcome) -> DensityOperator:
    """The state of one labelled ensemble member."""
    if ens.outcomes is None:
        raise InvariantError("ensemble has no outcome labels")
    return ens.states[ens.outcomes.index(outcome)]


def ensemble_payload(ens) -> dict:
    """A labelled ensemble as the JSON payload ``ensemble_from_json`` reads."""
    return {"weights": [float(w) for w in ens.weights], "outcomes": list(ens.outcomes),
            "states": [density_to_json(s) for s in ens.states]}


def ensemble_weight(ens, outcome) -> float:
    """The weight of one labelled ensemble member."""
    if ens.outcomes is None:
        raise InvariantError("ensemble has no outcome labels")
    return float(ens.weights[ens.outcomes.index(outcome)])


def bounds_of(report: RegionReport) -> dict:
    """Each constraint's right-hand side by label."""
    return {label: rhs for label, _, rhs in report.constraints}


def satisfies(system, point) -> bool:
    """Exact membership of a rational point in an InequalitySystem."""
    vec = [Fraction(point[v]) for v in system.variables]
    for ints, strict, _ in system.rows:
        lhs = sum(c * x for c, x in zip(ints, vec))
        if not (lhs > ints[-1] if strict else lhs >= ints[-1]):
            return False
    return True


def lookup(decoder, mu1: int, mu2: int, i: int, j: int) -> tuple:
    """The member-id pair one decoder cell decodes to; bin index 0 and
    cells without a unique pair give the sentinel."""
    if i == 0 or j == 0:
        return decoder.sentinel
    hit = np.flatnonzero((decoder.cells[:, :4] == (mu1, mu2, i, j)).all(axis=1))
    return tuple(decoder.cells[hit[0], 4:].tolist()) if hit.size else decoder.sentinel


def letter_rows(tset) -> np.ndarray:
    """The letter rows of a typical set's member ids, then the sentinel's,
    so a decoded id indexes them."""
    return np.vstack([tset.seqs, sentinel_sequence(tset)])


# ---------------------------------------------------------------------------
# exact elimination over fractions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FractionRow:
    """coeffs . vars  (>= or >)  rhs over Fractions, with the originating row ids."""
    coeffs: tuple
    relation: str
    rhs: Fraction
    ancestors: frozenset = frozenset()

    def vacuous(self) -> bool:
        if any(c != 0 for c in self.coeffs):
            return False
        return self.rhs <= 0 if self.relation == GE else self.rhs < 0


def fraction_rows(system) -> list:
    """An InequalitySystem's (ints, strict, mask) rows as FractionRows."""
    return [FractionRow(tuple(Fraction(c) for c in ints[:-1]), GT if strict else GE,
                        Fraction(ints[-1]),
                        frozenset(i for i in range(mask.bit_length()) if mask >> i & 1))
            for ints, strict, mask in system.rows]


def _canonical(ineq: FractionRow) -> FractionRow:
    """Scale by a positive rational so entries are coprime integers."""
    entries = list(ineq.coeffs) + [ineq.rhs]
    nonzero = [e for e in entries if e != 0]
    if not nonzero:
        return FractionRow(ineq.coeffs, ineq.relation, Fraction(0), ineq.ancestors)
    lcm = 1
    for e in entries:
        lcm = math.lcm(lcm, e.denominator)
    ints = [int(e * lcm) for e in entries]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    scale = Fraction(lcm, g)
    return FractionRow(
        tuple(c * scale for c in ineq.coeffs),
        ineq.relation,
        ineq.rhs * scale,
        ineq.ancestors,
    )


def _dominated_filter(rows) -> list:
    """Keep, per coprime (coeffs ‖ rhs) vector, only the strongest (rhs,
    strictness) row.

    Ties between identical rows keep the one with the smallest ancestor set.
    """
    best: dict = {}
    for r in rows:
        c = _canonical(r)
        key = c.coeffs
        cur = best.get(key)
        if cur is None:
            best[key] = c
            continue
        rank_new = (c.rhs, c.relation == GT, -len(c.ancestors))
        rank_old = (cur.rhs, cur.relation == GT, -len(cur.ancestors))
        if rank_new > rank_old:
            best[key] = c
    return list(best.values())


def fourier_motzkin_fractions(variables, rows, eliminate) -> tuple:
    """fourier_motzkin on Fraction rows with frozenset ancestors, from exact
    (coeffs, relation, rhs) rows, row i the ancestor {i}: every combined row
    is a new FractionRow, canonicalized by _canonical, and the ancestor
    cutoff drops rows after they are formed.  Returns the kept variables and
    the projected rows."""
    variables = tuple(variables)
    eliminate = list(eliminate)
    unknown = [v for v in eliminate if v not in variables]
    if unknown:
        raise InvariantError(f"cannot eliminate unknown variables {unknown}")
    rows = [FractionRow(tuple(Fraction(c) for c in coeffs), rel, Fraction(rhs), frozenset({i}))
            for i, (coeffs, rel, rhs) in enumerate(rows)]
    rows = _dominated_filter(r for r in rows if not r.vacuous())
    steps = 0
    for var in eliminate:
        j = variables.index(var)
        pos = [r for r in rows if r.coeffs[j] > 0]
        neg = [r for r in rows if r.coeffs[j] < 0]
        zer = [r for r in rows if r.coeffs[j] == 0]
        combos = []
        for p in pos:
            a = p.coeffs[j]
            for m in neg:
                b = -m.coeffs[j]
                coeffs = tuple(b * cp + a * cm for cp, cm in zip(p.coeffs, m.coeffs))
                rel = GT if GT in (p.relation, m.relation) else GE
                combos.append(FractionRow(coeffs, rel, b * p.rhs + a * m.rhs,
                                          p.ancestors | m.ancestors))
        steps += 1
        merged = zer + [c for c in combos if not c.vacuous()]
        merged = [r for r in merged if len(r.ancestors) <= steps + 1]
        rows = _dominated_filter(merged)
    keep_idx = [i for i, v in enumerate(variables) if v not in eliminate]
    out = []
    for r in rows:
        dropped = [r.coeffs[i] for i, v in enumerate(variables) if v in eliminate]
        if any(c != 0 for c in dropped):
            raise InvariantError("eliminated variable survived projection")
        out.append(FractionRow(tuple(r.coeffs[i] for i in keep_idx),
                               r.relation, r.rhs, r.ancestors))
    return tuple(variables[i] for i in keep_idx), _dominated_filter(out)


# ---------------------------------------------------------------------------
# entropies and measurements
# ---------------------------------------------------------------------------

def shannon_entropy(p) -> float:
    """Classical -sum p log2 p with von_neumann_entropy's cutoff convention."""
    v = np.asarray(p, dtype=float).ravel()
    top = float(np.max(v)) if v.size else 0.0
    pos = v[v > EIG_CUTOFF * max(top, 0.0)]
    if pos.size == 0:
        return 0.0
    return float(-np.sum(pos * np.log2(pos)))


def classical_region_sources(p, lam, mu, w=None) -> dict:
    """region_for's sources for a commuting instance, as Shannon quantities.

    rho_AB = sum p(a, b)|ab><ab| read by diagonal POVMs lam(u|a), mu(v|b)
    (and the rows w(z|u, v), if given) makes the purification's R a coherent
    copy of AB, so every source is a Shannon quantity of the law
    p(a, b) lam(u|a) mu(v|b) w(z|u, v): I(U;RB) = I(U;A), I(V;RA) = I(V;B),
    I(U;RZV) = I(U;ABZV), I(V;RZ) = I(V;ABZ) and I(UV;RZ) = I(UV;ABZ).
    Only numpy is used: no entropy, state or measurement of the package.
    """
    law = np.einsum("ab,au,bv->abuv", p, lam, mu)
    if w is not None:
        law = np.einsum("abuv,uvz->abuvz", law, w)

    def h(*axes):  # axes among a, b, u, v, z = 0..4
        q = law.sum(axis=tuple(i for i in range(law.ndim) if i not in axes)).ravel()
        q = q[q > 0.0]
        return float(-np.sum(q * np.log2(q)))

    a, b, u, v, z = range(5)
    i1, i2, iuv = h(u) + h(a) - h(a, u), h(v) + h(b) - h(b, v), h(u) + h(v) - h(u, v)
    if w is None:
        return {"I(U;RB)": i1, "I(V;RA)": i2, "I(U;V)": iuv, "S(U)": h(u), "S(V)": h(v),
                "S(U,V)": h(u, v), "S(U|V)": h(u, v) - h(v), "S(V|U)": h(u, v) - h(u)}
    return {"I(U;RB)": i1, "I(V;RA)": i2, "I(U;V)": iuv,
            "I(U;RZV)": h(u) + h(a, b, v, z) - h(a, b, u, v, z),
            "I(V;RZ)": h(v) + h(a, b, z) - h(a, b, v, z),
            "I(UV;RZ)": h(u, v) + h(a, b, z) - h(a, b, u, v, z)}


def quantum_mutual_information(rho: DensityOperator, cut) -> float:
    """I(A;B) = S(A) + S(B) - S(AB) for the bipartition selected by ``cut``.

    ``cut`` lists the subsystem indices forming the first side; the rest form
    the second.
    """
    cut = tuple(sorted(set(int(i) for i in cut)))
    rest = tuple(i for i in range(len(rho.dims)) if i not in cut)
    if not cut or not rest:
        raise InvariantError("cut must be a proper nonempty bipartition")
    sa = von_neumann_entropy(partial_trace(rho.mat, rho.dims, cut))
    sb = von_neumann_entropy(partial_trace(rho.mat, rho.dims, rest))
    return sa + sb - von_neumann_entropy(rho.mat)


def complete_sub_povm(m: SubPovm, label=COMPLETION_OUTCOME) -> Povm:
    """Complete a sub-POVM by appending the deficit operator I - sum.

    The deficit must be PSD within tolerance (it is, for any valid SubPovm);
    tiny negative eigenvalues from rounding are clipped.
    """
    gap = hermitize(np.eye(m.dim) - m.total())
    lo = float(np.min(np.linalg.eigvalsh(gap)))
    if lo < -m.tol:
        raise InvariantError(f"completion operator not PSD: min eigenvalue {lo:.3e}")
    if lo < 0.0:
        vals, vecs = eigh_desc(gap)
        gap = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
    if label in m.outcomes:
        raise InvariantError(f"completion label {label!r} collides with an outcome")
    return Povm(m.outcomes + (label,), m.operators + (gap,), tol=max(m.tol, 1e-8))


def apply_measurement(psi, m: SubPovm, measured: int = 1,
                      clabel: str = "X", qlabel: str = "R") -> CqState:
    """Measure one side of a pure bipartite state, keep the other as quantum.

    ``psi`` is a unit vector on two sides of equal dimension, as ``purify``
    returns it (reference first).  Returns the classical-quantum state with blocks
    Tr_measured{(I (x) Lambda_x) |psi><psi|}; block traces are the outcome
    probabilities.  For a sub-POVM the traces sum to at most 1, which is
    rejected by CqState, so pass complete POVMs here.
    """
    if measured not in (0, 1):
        raise InvariantError("measured must select one of the two subsystems")
    side = math.isqrt(psi.size)
    dims = (side, side)
    if m.dim != dims[measured]:
        raise InvariantError(f"POVM dim {m.dim} does not match subsystem dim {dims[measured]}")
    keep = 1 - measured
    proj = np.outer(psi, psi.conj())
    blocks = {}
    eye_keep = np.eye(dims[keep])
    for x, op in m.items():
        full = tensor(op, eye_keep) if measured == 0 else tensor(eye_keep, op)
        blocks[(x,)] = hermitize(partial_trace(full @ proj, dims, (keep,)))
    return CqState(
        cregisters=(clabel,),
        qregisters=(qlabel,),
        qdims={qlabel: dims[keep]},
        blocks=blocks,
        tol=max(m.tol, 1e-8),
    )


# ---------------------------------------------------------------------------
# block-by-block routes of the stacked analysis states
# ---------------------------------------------------------------------------

def measured_blocks_by_loop(rho: DensityOperator, povms) -> dict:
    """The blocks of measurement._measured_state on rho's purification, one
    outcome pair at a time: Tr_measured((1_R x a x b) proj) through a
    ``tensor`` chain and one partial trace per block, the identity standing
    in for the element of a side whose POVM is None."""
    psi = purify(rho)
    proj = np.outer(psi, psi.conj())
    dA, dB = rho.dims
    dims, keep, branches = (dA * dB, dA, dB), [0], []
    for pos, povm in zip((1, 2), povms):
        if povm is None:
            keep.append(pos)
            branches.append([((), np.eye(dims[pos]))])
        else:
            branches.append([((x,), op) for x, op in povm.items()])
    eye_r = np.eye(dims[0])
    return {ka + kb: hermitize(partial_trace(tensor(eye_r, a, b) @ proj, dims, keep))
            for (ka, a), (kb, b) in itertools.product(*branches)}


def _hermitian_part(a):
    """0.5 A + 0.5 A^dag, which hermitize's (A + A^dag)/2 equals on entries
    that are not subnormal, but without its overflow on entries near 1e308."""
    return 0.5 * a + 0.5 * a.conj().T


def _hermitian_gap(a) -> float:
    """max |A - A^dag|, inf where the difference overflows."""
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(a - a.conj().T)))


def check_blocks_by_loop(cregisters, qregisters, qdims, blocks, tol=DEFAULT_TOL):
    """CqState's block checks one block at a time, in key order: key
    length, shape, finite entries, Hermitian, then one eigvalsh per block;
    then the trace sum.  Raises the InvariantError the state must raise, or
    returns None."""
    qdim = int(np.prod([qdims[q] for q in qregisters])) if qregisters else 1
    total = 0.0
    for key, blk in blocks.items():
        key = tuple(key) if isinstance(key, (tuple, list)) else (key,)
        if len(key) != len(cregisters):
            raise InvariantError(f"block key {key} does not match registers {tuple(cregisters)}")
        b = np.asarray(blk, dtype=np.complex128)
        if b.shape != (qdim, qdim):
            raise InvariantError(f"block {key} has shape {b.shape}, expected {(qdim, qdim)}")
        if not np.isfinite(b).all():
            raise InvariantError(f"block at {key!r} has a non-finite entry")
        if not _hermitian_gap(b) <= tol:
            raise InvariantError(f"block at {key!r} is not Hermitian within {tol:g}")
        lo = float(np.min(np.linalg.eigvalsh(_hermitian_part(b)))) if qdim else 0.0
        if lo < -tol:
            raise InvariantError(f"block at {key!r} is not PSD within {tol:g}: "
                                 f"min eigenvalue {lo:.3e}")
        total += float(np.real(np.trace(b)))
    if abs(total - 1.0) > max(tol, 1e-8):
        raise InvariantError(f"block traces sum to {total}, expected 1")


def check_povm_by_loop(outcomes, operators, tol=DEFAULT_TOL, complete=False):
    """SubPovm's element checks one outcome at a time: common dimension,
    finite entries, Hermitian, PSD by its own eigvalsh; then the sum against
    the identity.  Raises the InvariantError the measurement must raise, or
    returns None."""
    ops = [np.asarray(o, dtype=np.complex128) for o in operators]
    d = ops[0].shape[0]
    for x, op in zip(outcomes, ops):
        if op.shape[0] != d:
            raise InvariantError("operators act on inconsistent dimensions")
        if not np.isfinite(op).all():
            raise InvariantError(f"operator at {x!r} has a non-finite entry")
        if not _hermitian_gap(op) <= tol:
            raise InvariantError(f"operator at {x!r} is not Hermitian within {tol:g}")
        lo = float(np.min(np.linalg.eigvalsh(_hermitian_part(op))))
        if lo < -tol:
            raise InvariantError(f"operator at {x!r} is not PSD within {tol:g}: "
                                 f"min eigenvalue {lo:.3e}")
    gap = np.eye(d) - np.sum(ops, axis=0)
    lo = float(np.min(np.linalg.eigvalsh(_hermitian_part(gap))))
    if lo < -tol:
        raise InvariantError(f"operator sum exceeds identity by {-lo:.3e}")
    if complete and float(np.max(np.abs(gap))) > tol:
        raise InvariantError("operators do not resolve the identity within tol")


def entropy_of_block(blk) -> float:
    """One block's -sum e log2 e over eigenvalues above the cutoff, by its
    own eigvalsh call."""
    vals = np.linalg.eigvalsh(hermitize(np.asarray(blk, dtype=np.complex128)))
    top = float(np.max(vals)) if vals.size else 0.0
    pos = vals[vals > EIG_CUTOFF * max(top, 0.0)]
    if pos.size == 0:
        return 0.0
    return float(-np.sum(pos * np.log2(pos)))


class BlockwiseEntropies:
    """A CqState read block by block: each entropy partial-traces and sums
    the blocks one at a time (reduce_cq) and takes one eigvalsh per reduced
    block.  It offers the entropic methods the region builders call."""

    mutual_information = CqState.mutual_information
    conditional_mutual_information = CqState.conditional_mutual_information

    def __init__(self, cq: CqState):
        self.cq = cq

    def entropy(self, regs=None) -> float:
        cq = self.cq if regs is None else reduce_cq(self.cq, regs)
        return float(sum(entropy_of_block(blk) for blk in cq.blocks.values()))


def blockwise_auxiliary_states(rho: DensityOperator, povm_A: Povm, povm_B: Povm) -> tuple:
    """auxiliary_states' sigma1, sigma2, sigma3 built by measured_blocks_by_loop
    and read by BlockwiseEntropies."""
    dA, dB = rho.dims
    qdims = {"R": dA * dB, "A": dA, "B": dB}
    sigmas = []
    for povms, regs in (((povm_A, None), ("B",)), ((None, povm_B), ("A",)),
                        ((povm_A, povm_B), ())):
        classical = tuple(c for c, m in zip("UV", povms) if m is not None)
        quantum = {q: qdims[q] for q in ("R",) + regs}
        sigmas.append(BlockwiseEntropies(CqState(
            classical, tuple(quantum), quantum, measured_blocks_by_loop(rho, povms), tol=1e-8)))
    return tuple(sigmas)


# ---------------------------------------------------------------------------
# identities of the paper
# ---------------------------------------------------------------------------

def verify_purification_identity(rho: DensityOperator, m: SubPovm, mtilde: SubPovm):
    """Both sides of the purified-distance identity, computed independently.

    lhs sandwiches operator differences between sqrt(rho) factors;
    rhs measures the canonical purification and takes one block-diagonal
    trace norm on the classical-quantum output states.  The two must agree
    for any (rho, m, mtilde) on matching alphabets.
    """
    lhs = faithfulness_distance(rho, m, mtilde)

    psi = purify(rho)
    proj = np.outer(psi, psi.conj())
    dims = (rho.dim, rho.dim)
    eye_ref = np.eye(dims[0])
    union = _union_alphabet(m, mtilde)
    dR = dims[0]
    big = len(union) * dR
    d1 = np.zeros((big, big), dtype=np.complex128)
    d2 = np.zeros((big, big), dtype=np.complex128)
    for k, x in enumerate(union):
        sl = slice(k * dR, (k + 1) * dR)
        op1 = tensor(eye_ref, _op_or_zero(m, x, m.dim))
        op2 = tensor(eye_ref, _op_or_zero(mtilde, x, m.dim))
        d1[sl, sl] = partial_trace(op1 @ proj, dims, (0,))
        d2[sl, sl] = partial_trace(op2 @ proj, dims, (0,))
    leak = float(np.real(np.trace((np.eye(m.dim) - mtilde.total()) @ rho.mat)))
    rhs = trace_norm(d1 - d2) + max(leak, 0.0)
    return lhs, rhs


def separate_check(rho_AB: DensityOperator, gamma_A: np.ndarray, povm_B: SubPovm):
    """Both sides of the product-sandwich reduction identity.

    Returns (lhs, rhs) where lhs sums the joint sandwich norms of
    gamma_A x Lambda_y and rhs is the single-sided sandwich norm of gamma_A
    on the A marginal; they agree whenever povm_B resolves the identity.
    """
    sq_ab, _ = matrix_sqrt_and_pinv_sqrt(rho_AB.mat)
    lhs = 0.0
    for _, op in povm_B.items():
        lhs += trace_norm(sq_ab @ tensor(gamma_A, op) @ sq_ab)
    rho_A = rho_AB.marginal((0,))
    sq_a, _ = matrix_sqrt_and_pinv_sqrt(rho_A.mat)
    rhs = trace_norm(sq_a @ np.asarray(gamma_A, dtype=np.complex128) @ sq_a)
    return lhs, rhs


def packing_union_proxy(p_uv, n: int, r1: float, r2: float, delta: float) -> float:
    """Union-bound proxy: L1 L2 times the product-marginal mass of the
    jointly typical set."""
    p = np.asarray(p_uv, dtype=float)
    pU = p.sum(axis=1)
    pV = p.sum(axis=0)
    # the one enumerated pair set: its product-marginal mass is the proxy,
    # member masses added in member order
    q_pair = np.outer(pU, pV).reshape(-1, 1, 1)
    masses = kron_rows(q_pair, typical_set(p.ravel(), n, delta).seqs).ravel()
    mass = np.cumsum(masses)[-1] if masses.size else 0.0
    return _count_for_rate(n, r1) * _count_for_rate(n, r2) * mass


def packing_norm_dense(povm_A: SubPovm, povm_B: SubPovm, p_uv, n: int,
                       r1: float, r2: float, delta: float, seed: int) -> float:
    """packing_norm_trial's slab summed pair by pair: the same codeword
    draws, one tensor-power element per distinct codeword and one np.kron
    per jointly typical pair, whatever the POVMs' form."""
    p = np.asarray(p_uv, dtype=float)
    pU = np.clip(p.sum(axis=1), 0.0, None)
    pV = np.clip(p.sum(axis=0), 0.0, None)
    us, countsU = _distinct(substream(seed, STREAM_PACKING_A).choice(
        p.shape[0], size=(_count_for_rate(n, r1), n), p=pU / pU.sum()))
    vs, countsV = _distinct(substream(seed, STREAM_PACKING_B).choice(
        p.shape[1], size=(_count_for_rate(n, r2), n), p=pV / pV.sum()))
    joint = typical_pairs(us, vs, p, delta)
    dA, dB = povm_A.dim, povm_B.dim
    _check_dim_cap(dA * dB, n)
    acc = np.zeros(((dA * dB) ** n,) * 2, dtype=np.complex128)
    opsU = [tensor(*(povm_A.operators[k] for k in u)) for u in us.tolist()]
    opsV = [tensor(*(povm_B.operators[k] for k in v)) for v in vs.tolist()]
    for a, b in zip(*np.nonzero(joint)):
        acc += (countsU[a] * countsV[b]) * np.kron(opsU[a], opsV[b])
    return operator_norm(acc) if joint.any() else 0.0


# ---------------------------------------------------------------------------
# point-to-point measurement compression baselines
# ---------------------------------------------------------------------------

def winter_region(rho: DensityOperator, m: Povm) -> RegionReport:
    """Measurement-compression bounds for one POVM: rate and rate-plus-randomness."""
    sigma = apply_measurement(purify(rho), m, measured=1, clabel="U", qlabel="R")
    iur = sigma.mutual_information(("U",), ("R",))
    su = sigma.entropy(("U",))
    return RegionReport(
        variables=("R", "C"),
        constraints=(
            ("winter1", (1, 0), iur),
            ("winter2", (1, 1), su),
        ),
        sources={"I(U;R)": iur, "S(U)": su},
    )


def p2p_stochastic_region(rho: DensityOperator, mbar: Povm, x_alphabet,
                          rows, target: Povm | None = None,
                          tol: float = DEFAULT_TOL) -> RegionReport:
    """Point-to-point simulation with stochastic post-processing of outcomes.

    ``rows`` maps each intermediate outcome w to a distribution over
    ``x_alphabet``.  When ``target`` is given, the relabeled POVM
    sum_w P(x|w) L_w must reproduce it within tol.
    """
    x_alphabet = tuple(x_alphabet)
    if target is not None:
        for k, x in enumerate(x_alphabet):
            built = np.sum([np.asarray(rows[w], dtype=float)[k] * mbar.op(w)
                            for w in mbar.outcomes], axis=0)
            want = target.op(x)
            if built.shape != want.shape or not np.max(np.abs(built - want)) <= max(tol, 1e-8):
                raise InvariantError(f"relabeled operators do not reproduce outcome {x!r}")
    sigma = apply_measurement(purify(rho), mbar, measured=1, clabel="W", qlabel="R")
    sigma = attach_classical(sigma, "X", x_alphabet,
                             lambda key: np.asarray(rows[key[0]], dtype=float))
    irw = sigma.mutual_information(("W",), ("R",))
    irxw = sigma.mutual_information(("W",), ("R", "X"))
    return RegionReport(
        variables=("R", "C"),
        constraints=(
            ("p2p1", (1, 0), irw),
            ("p2p2", (1, 1), irxw),
        ),
        sources={"I(R;W)": irw, "I(RX;W)": irxw},
    )


# ---------------------------------------------------------------------------
# distortion of the decoded protocol
# ---------------------------------------------------------------------------

def rd_distortion_by_blocks(rho_AB: DensityOperator, povm_pairs, p_q, recon,
                            delta) -> float:
    """rd_inner_bound's average distortion block by block: sum over (u, v, q)
    of Tr(delta (p(q) sigma3_q[u, v] x recon[u, v, q])), each product dense."""
    delta = np.asarray(delta, dtype=np.complex128)
    dval = 0.0
    for q, (ma, mb) in povm_pairs.items():
        w = float(p_q[q])
        if w == 0.0:
            continue
        sigma3 = auxiliary_states(rho_AB, ma, mb)[2]
        for (u, v), blk in sigma3.blocks.items():
            joint = tensor(w * blk, recon[(u, v, q)].mat)
            dval += float(np.real(np.trace(delta @ joint)))
    return dval


def distortion_of_protocol(binned_A, binned_B, decoder, typicals, recon,
                           delta_obs, rho_AB: DensityOperator) -> float:
    """Average per-letter distortion of the measure-and-reconstruct channel.

    Every decoder cell, completion bins included, contributes its reference
    block together with the letterwise reconstruction of its decoded pair;
    the observable delta_obs acts on reference x reconstruction (reference
    first, matching the canonical purification) and is averaged over the n
    letter positions.  The reference block of a cell is the transpose of
    the cell sandwich in the eigenbasis of the input state, padded back to
    the full reference dimension.  Letters carrying the void letter of the
    sentinel reconstruct to the maximally mixed state.  ``typicals`` holds
    the two senders' typical sets, whose letter_rows the decoded ids index.
    """
    dA, dB = rho_AB.dims
    dim_ref = dA * dB
    rows_A, rows_B = (letter_rows(t) for t in typicals)
    n = rows_A.shape[1]
    _check_dim_cap(dA * dB, n)
    states = {}
    for key, value in recon.items():
        mat = value.mat if isinstance(value, DensityOperator) else np.asarray(
            value, dtype=np.complex128)
        states[key] = mat
    if not states:
        raise InvariantError("need at least one reconstruction state")
    xdim = next(iter(states.values())).shape[0]
    for mat in states.values():
        if mat.shape != (xdim, xdim):
            raise InvariantError("reconstruction states must share a dimension")
    obs = np.asarray(delta_obs, dtype=np.complex128)
    if obs.shape != (dim_ref * xdim, dim_ref * xdim):
        raise InvariantError("observable must act on reference x reconstruction")
    mixed = np.eye(xdim, dtype=np.complex128) / xdim

    # the state of each letter pair, void letters last; a pair without one
    # is refused only when a decoded pair carries it
    alpha_A, alpha_B = (t.alphabet for t in typicals)
    table = [[states.get((a, b)) for b in alpha_B] + [mixed] for a in alpha_A]
    table.append([mixed] * (len(alpha_B) + 1))

    def letter_state(x, y):
        if table[x][y] is None:
            raise InvariantError(
                f"no reconstruction state for pair {(alpha_A[x], alpha_B[y])}")
        return table[x][y]

    c1, frame = _sandwich_frame(rho_AB, n)
    r = c1.shape[1]

    def completed(fams, dim):
        # completion bin 0 holds I minus the sum of the binned operators; each
        # operator, indefinite in general, enters the sandwich as (vecs, vals)
        eye = np.eye(dim, dtype=np.complex128)
        full = [{0: reduce(np.subtract, [fam[b] for b in sorted(fam)], eye), **fam}
                for fam in fams]
        return [{b: eigh_desc(op)[::-1] for b, op in fam.items()} for fam in full]

    def side_by_side(fam):
        # every operator's eigenvectors as one column array, with its eigenvalues
        vecs, vals = zip(*fam.values())
        return np.concatenate(vecs, axis=1), np.stack(vals)

    N1, N2 = decoder.n_mu
    w_mu = 1.0 / (N1 * N2)
    full_B = completed(binned_B, dB ** n)
    total = 0.0
    for mu1, fam_a in enumerate(completed(binned_A, dA ** n)):
        for mu2, fam_b in enumerate(full_B):
            (za, wa), (zb, wb) = side_by_side(fam_a), side_by_side(fam_b)
            a, b = len(wa), len(wb)
            # rows (a, i, b, j) of the sandwich, regrouped as H[a, b] with
            # columns (i, j), so cell (a, b) is H[a, b] diag(w[a, b]) H[a, b]^dag
            h = _sandwich_factors(za, zb, frame).reshape(a, dA ** n, b, dB ** n, -1)
            h = h.transpose(0, 2, 4, 1, 3).reshape(a, b, h.shape[-1], -1)
            w = (wa[:, None, :, None] * wb[None, :, None, :]).reshape(a, b, -1)
            cells = (h * (w_mu * w)[:, :, None, :]) @ h.conj().swapaxes(2, 3)
            for a, i in enumerate(fam_a):
                for b, j in enumerate(fam_b):
                    rblock = cells[a, b].T
                    u, v = lookup(decoder, mu1, mu2, i, j)
                    useq, vseq = rows_A[u].tolist(), rows_B[v].tolist()
                    for pos in range(n):
                        f = partial_trace(rblock, [r] * n, (pos,)) if n > 1 else rblock
                        ref = np.zeros((dim_ref, dim_ref), dtype=np.complex128)
                        ref[:r, :r] = f
                        joint_op = np.kron(ref, letter_state(useq[pos], vseq[pos]))
                        total += float(np.real(np.trace(obs @ joint_op)))
    return total / n
