"""Reference computations that only the tests call.

Dense identities, the baseline rate regions of point-to-point measurement
compression, the distortion of the decoded protocol, and small readers of
library objects.  Each builds full matrices where the library works in
factor form or never needs the quantity at all; tests compare the two, or
check a paper identity with them.
"""
from __future__ import annotations

from functools import reduce
from fractions import Fraction

import numpy as np

from povmsim.errors import InvariantError
from povmsim.measurement import (
    CqState,
    _op_or_zero,
    _union_alphabet,
    attach_classical,
    faithfulness_distance,
)
from povmsim.operators import (
    DEFAULT_TOL,
    EIG_CUTOFF,
    DensityOperator,
    Povm,
    SubPovm,
    close,
    eigh_desc,
    hermitize,
    kron_rows,
    matrix_sqrt_and_pinv_sqrt,
    partial_trace,
    purify,
    tensor,
    trace_norm,
    von_neumann_entropy,
)
from povmsim.protocol import _count_for_rate, _sandwich_factors, _sandwich_frame
from povmsim.regions import GE, GT, RegionReport
from povmsim.typicality import _check_dim_cap, typical_set

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


def ensemble_state(ens, outcome) -> DensityOperator:
    """The state of one labelled ensemble member."""
    if ens.outcomes is None:
        raise InvariantError("ensemble has no outcome labels")
    return ens.states[ens.outcomes.index(outcome)]


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
    for r in system.inequalities:
        lhs = sum(c * x for c, x in zip(r.coeffs, vec))
        if r.relation == GE and not lhs >= r.rhs:
            return False
        if r.relation == GT and not lhs > r.rhs:
            return False
    return True


def lookup(decoder, mu1: int, mu2: int, i: int, j: int) -> tuple:
    """The member-id pair one decoder cell decodes to; bin index 0 and
    cells without a unique pair give the sentinel."""
    if i == 0 or j == 0:
        return decoder.sentinel
    return decoder.cells.get((mu1, mu2, i, j), decoder.sentinel)


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

    Returns the classical-quantum state with blocks
    Tr_measured{(I (x) Lambda_x) |psi><psi|}; block traces are the outcome
    probabilities.  For a sub-POVM the traces sum to at most 1, which is
    rejected by CqState, so pass complete POVMs here.
    """
    if measured not in (0, 1):
        raise InvariantError("measured must select one of the two subsystems")
    dims = psi.dims
    if m.dim != dims[measured]:
        raise InvariantError(f"POVM dim {m.dim} does not match subsystem dim {dims[measured]}")
    keep = 1 - measured
    proj = psi.projector()
    blocks = {}
    eye_keep = np.eye(dims[keep])
    for x, op in m.items():
        full = tensor(op, eye_keep) if measured == 0 else tensor(eye_keep, op)
        blocks[(x,)] = hermitize(partial_trace(full @ proj, dims, (keep,)))
    return CqState(
        cregisters=(clabel,),
        alphabets={clabel: m.outcomes},
        qregisters=(qlabel,),
        qdims={qlabel: dims[keep]},
        blocks=blocks,
        tol=max(m.tol, 1e-8),
    )


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
    proj = psi.projector()
    dims = psi.dims
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
            if not close(built, target.op(x), max(tol, 1e-8)):
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

def distortion_of_protocol(binned_A, binned_B, decoder, recon,
                           delta_obs, rho_AB: DensityOperator) -> float:
    """Average per-letter distortion of the measure-and-reconstruct channel.

    Every decoder cell, completion bins included, contributes its reference
    block together with the letterwise reconstruction of its decoded pair;
    the observable delta_obs acts on reference x reconstruction (reference
    first, matching the canonical purification) and is averaged over the n
    letter positions.  The reference block of a cell is the transpose of
    the cell sandwich in the eigenbasis of the input state, padded back to
    the full reference dimension.  Letters carrying the void letter of the
    sentinel reconstruct to the maximally mixed state.
    """
    dA, dB = rho_AB.dims
    dim_ref = dA * dB
    n = decoder.rows[0].shape[1]
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
    alpha_A, alpha_B = decoder.alphabets
    table = [[states.get((a, b)) for b in alpha_B] + [mixed] for a in alpha_A]
    table.append([mixed] * (len(alpha_B) + 1))

    def letter_state(x, y):
        if table[x][y] is None:
            raise InvariantError(
                f"no reconstruction state for pair {(alpha_A[x], alpha_B[y])}")
        return table[x][y]

    c1, cperm3 = _sandwich_frame(rho_AB, n)
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
            h = _sandwich_factors(za, zb, cperm3).reshape(a, dA ** n, b, dB ** n, -1)
            h = h.transpose(0, 2, 4, 1, 3).reshape(a, b, h.shape[-1], -1)
            w = (wa[:, None, :, None] * wb[None, :, None, :]).reshape(a, b, -1)
            cells = (h * (w_mu * w)[:, :, None, :]) @ h.conj().swapaxes(2, 3)
            for a, i in enumerate(fam_a):
                for b, j in enumerate(fam_b):
                    rblock = cells[a, b].T
                    u, v = lookup(decoder, mu1, mu2, i, j)
                    useq, vseq = decoder.rows[0][u].tolist(), decoder.rows[1][v].tolist()
                    for pos in range(n):
                        f = partial_trace(rblock, [r] * n, (pos,)) if n > 1 else rblock
                        ref = np.zeros((dim_ref, dim_ref), dtype=np.complex128)
                        ref[:r, :r] = f
                        joint_op = np.kron(ref, letter_state(useq[pos], vseq[pos]))
                        total += float(np.real(np.trace(obs @ joint_op)))
    return total / n
