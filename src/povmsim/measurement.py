"""Measurement semantics on top of the operator substrate.

This module turns measurements into states: classical-quantum states,
separable decompositions of joint measurements, canonical ensembles, the
joint outcome law of local measurements, the auxiliary states
sigma1/sigma2/sigma3 (the canonical purification measured on one or both
sides) that feed the rate-region bounds, and the faithfulness metric between
a target measurement and an approximating sub-POVM.

A classical-quantum state is stored blockwise: one PSD operator per tuple of
classical outcomes, on the tensor product of the surviving quantum registers.
All entropic quantities reduce to block spectra, so nothing here ever forms
the (much larger) fully embedded density matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import InvariantError
from .operators import (
    DEFAULT_TOL,
    EIG_CUTOFF,
    DensityOperator,
    Ensemble,
    Povm,
    SubPovm,
    hermitize,
    kron_pairs,
    matrix_sqrt_and_pinv_sqrt,
    partial_trace,
    probability_rows,
    psd_stack,
    purify,
    trace_norm,
    von_neumann_entropy,
)

# ---------------------------------------------------------------------------
# classical-quantum states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CqState:
    """Block-diagonal state over named classical and quantum registers.

    ``blocks`` maps a tuple of classical outcomes (one per register, in
    ``cregisters`` order) to an unnormalized PSD operator on the tensor
    product of the quantum registers (in ``qregisters`` order, each of
    dimension ``qdims[name]``).  A classical register's outcomes are the ones
    its block keys hold.  Block traces are the outcome probabilities and must
    sum to 1.  The blocks are held as one (k, q, q) array ``stack`` in key
    order, which ``blocks`` views.  This constructor holds the blocks to
    ``psd_stack`` at ``tol``, named by key, up to the first whose key or shape
    is malformed; then that one is refused, and the keys must be distinct.
    ``_derived`` states skip these checks: their blocks are valid by construction.
    """
    cregisters: tuple
    qregisters: tuple
    qdims: dict
    blocks: dict
    tol: float = DEFAULT_TOL
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.__dict__.update(cregisters=tuple(self.cregisters), qregisters=tuple(self.qregisters))
        for name in self.qregisters:
            if int(self.qdims.get(name, 0)) < 1:
                raise InvariantError(f"quantum register {name!r} has no positive dimension")
        qdim = math.prod(int(self.qdims[q]) for q in self.qregisters)
        keys, mats, malformed = [], [], None
        for key, blk in self.blocks.items():
            key = tuple(key) if isinstance(key, (tuple, list)) else (key,)
            if len(key) != len(self.cregisters):
                malformed = f"block key {key} does not match registers {self.cregisters}"
                break
            b = np.asarray(blk, dtype=np.complex128)
            if b.shape != (qdim, qdim):
                malformed = f"block {key} has shape {b.shape}, expected {(qdim, qdim)}"
                break
            keys.append(key)
            mats.append(b)
        stack = np.array(mats, dtype=np.complex128).reshape(len(mats), qdim, qdim)
        # the blocks before a malformed one are checked first, as in key order
        psd_stack("block", stack, self.tol, names=keys)
        if malformed is not None:
            raise InvariantError(malformed)
        if len(set(keys)) < len(keys):
            raise InvariantError("two blocks name the same tuple of outcomes")
        total = 0.0
        with np.errstate(over="ignore"):  # a trace that overflows to inf fails the test
            for t in np.real(np.trace(stack, axis1=1, axis2=2)).tolist():
                total += t
        if abs(total - 1.0) > max(self.tol, 1e-8):
            raise InvariantError(f"block traces sum to {total}, expected 1")
        self.__dict__.update(blocks=dict(zip(keys, stack)), stack=stack)

    @classmethod
    def _derived(cls, cregisters, qregisters, qdims, keys, stack, tol):
        """The state of a PSD (k, q, q) ``stack`` of trace 1 and distinct ``keys``, unchecked."""
        state = object.__new__(cls)
        state.__dict__.update(cregisters=cregisters, qregisters=qregisters, qdims=qdims,
                              blocks=dict(zip(keys, stack)), tol=tol, stack=stack)
        return state

    # -- register bookkeeping ------------------------------------------------

    def registers(self) -> tuple:
        return self.cregisters + self.qregisters

    def _marginal_blocks(self, keep: Sequence[str]) -> np.ndarray:
        """Stack of the marginal's blocks on the named registers, in
        first-seen key order.

        Dropped quantum registers are partial-traced over the whole stack,
        then dropped classical registers summed out in block order.  The
        blocks are not validated again: partial traces and sums of this
        state's validated PSD blocks stay PSD with the same total trace.
        """
        keep = set(keep)
        unknown = keep - set(self.registers())
        if unknown:
            raise InvariantError(f"unknown registers {sorted(unknown)}")
        cidx = [i for i, c in enumerate(self.cregisters) if c in keep]
        qidx = [i for i, q in enumerate(self.qregisters) if q in keep]
        red = partial_trace(self.stack, [self.qdims[q] for q in self.qregisters], qidx)
        if len(cidx) == len(self.cregisters):
            return red
        out: dict = {}
        for key, blk in zip(self.blocks, red):
            newkey = tuple(key[i] for i in cidx)
            out[newkey] = out[newkey] + blk if newkey in out else blk
        return np.array(list(out.values()))

    # -- entropic functionals -------------------------------------------------

    def entropy(self, regs: Sequence[str] | None = None) -> float:
        """Von Neumann entropy of the reduced state on ``regs`` (default: all).

        Classical registers enter through the block structure: the state is
        block diagonal in them, so S is the sum of blockwise contributions
        -sum e_i log2 e_i over each unnormalized block's eigenvalues, one
        ``von_neumann_entropy`` call on the reduced stack, which is read
        without building or re-validating a reduced CqState.
        """
        return von_neumann_entropy(self.stack if regs is None else self._marginal_blocks(regs))

    def mutual_information(self, regs1: Sequence[str], regs2: Sequence[str]) -> float:
        r1, r2 = set(regs1), set(regs2)
        if r1 & r2:
            raise InvariantError("mutual information needs disjoint register sets")
        return (self.entropy(tuple(r1)) + self.entropy(tuple(r2))
                - self.entropy(tuple(r1 | r2)))

    def conditional_mutual_information(self, regs1, regs2, given) -> float:
        """I(regs1; regs2 | given) = S(1g) + S(2g) - S(12g) - S(g)."""
        r1, r2, g = set(regs1), set(regs2), set(given)
        if (r1 & r2) or (r1 & g) or (r2 & g):
            raise InvariantError("conditional MI needs pairwise disjoint register sets")
        return (self.entropy(tuple(r1 | g)) + self.entropy(tuple(r2 | g))
                - self.entropy(tuple(r1 | r2 | g)) - self.entropy(tuple(g)))


def attach_classical(cq: CqState, name: str, alphabet, kernel: Callable) -> CqState:
    """Adjoin a classical register distributed as kernel(existing outcomes).

    ``kernel`` maps a block key (tuple of classical outcomes) to a probability
    vector over the distinct labels of ``alphabet``; the rows are held to
    probability_rows at max(cq.tol, 1e-9), a refusal naming the block key.
    Zero-probability branches are not materialized.  The blocks go unchecked:
    p(z|key) times a valid block is PSD, and each row sums to 1.
    """
    if name in cq.registers():
        raise InvariantError(f"register {name!r} already present")
    alphabet = tuple(alphabet)
    if len(set(alphabet)) < len(alphabet):
        raise InvariantError(f"register {name!r} repeats an outcome label: {alphabet}")
    keys = list(cq.blocks)
    rows = [np.asarray(kernel(key), dtype=float).ravel() for key in keys]
    for key, p in zip(keys, rows):
        if p.size != len(alphabet):
            raise InvariantError(f"kernel row for {key} has wrong length")
    table = probability_rows("kernel row", np.reshape(rows, (len(keys), len(alphabet))),
                             max(cq.tol, 1e-9), names=keys)
    i, z = np.nonzero(table > 0.0)
    return CqState._derived(cq.cregisters + (name,), cq.qregisters, dict(cq.qdims),
                            [keys[a] + (alphabet[b],) for a, b in zip(i.tolist(), z.tolist())],
                            table[i, z, None, None] * cq.stack[i], cq.tol)


# ---------------------------------------------------------------------------
# separable decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparableDecomposition:
    """Joint measurement expressed as marginal POVMs plus a classical channel.

    ``rows`` maps every outcome pair (u, v) to a probability vector over
    ``z_alphabet``.  The rows are validated once, as one stack, by
    probability_rows at DEFAULT_TOL (a refusal names the pair), and kept as
    the (|U|, |V|, |Z|) array ``table`` with the entries in [-tol, 0) set to
    0; ``rows`` then maps each pair to its row of ``table``.  The
    decomposition is deterministic exactly when every row is a 0/1 unit
    vector; the flag is read from ``table``, never trusted from input.
    """
    povm_A: Povm
    povm_B: Povm
    z_alphabet: tuple
    rows: Mapping
    deterministic: bool = field(init=False)
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "z_alphabet", tuple(self.z_alphabet))
        if len(set(self.z_alphabet)) != len(self.z_alphabet):
            raise InvariantError("duplicate labels in z alphabet")
        outs_A, outs_B, nz = self.povm_A.outcomes, self.povm_B.outcomes, len(self.z_alphabet)
        pairs = [(u, v) for u in outs_A for v in outs_B]
        for pair in pairs:
            if pair not in self.rows:
                raise InvariantError(f"channel row missing for pair {pair}")
            if np.size(self.rows[pair]) != nz:
                raise InvariantError(f"row for {pair} has length {np.size(self.rows[pair])}")
        table = probability_rows("channel row", [np.ravel(self.rows[pair]) for pair in pairs],
                                 names=pairs).reshape(len(outs_A), len(outs_B), nz)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "rows", dict(zip(pairs, table.reshape(len(pairs), nz))))
        object.__setattr__(self, "deterministic", bool(table.max(-1).min() > 1.0 - DEFAULT_TOL))

    def row(self, u, v) -> np.ndarray:
        return self.rows[(u, v)]

    @property
    def dims(self) -> tuple:
        return (self.povm_A.dim, self.povm_B.dim)


def deterministic_decomposition(povm_A: Povm, povm_B: Povm) -> SeparableDecomposition:
    """Decomposition with the identity pairing as integration function.

    The integration alphabet is the outcome pairs z = (u, v) in pair order
    (u outer, v inner), and each pair's row is the unit vector on its own z.
    """
    pairs = [(u, v) for u in povm_A.outcomes for v in povm_B.outcomes]
    eye = np.eye(len(pairs))
    return SeparableDecomposition(povm_A, povm_B, tuple(pairs),
                                  {pair: eye[k] for k, pair in enumerate(pairs)})


def compose_decomposition(d: SeparableDecomposition) -> Povm:
    """Joint POVM realized by the decomposition: Lambda_z = sum P(z|u,v) L_u x L_v."""
    joint = kron_pairs(np.array(d.povm_A.operators), np.array(d.povm_B.operators))
    ops = np.zeros((len(d.z_alphabet),) + joint.shape[1:], dtype=np.complex128)
    # pair by pair, so that every entry sums its terms in pair order
    for p, pair_op in zip(d.table.reshape(len(joint), -1), joint):
        ops += p[:, None, None] * pair_op
    return Povm(d.z_alphabet, tuple(ops), tol=1e-8)


# ---------------------------------------------------------------------------
# measuring a purification
# ---------------------------------------------------------------------------

def canonical_ensemble(rho: DensityOperator, m: Povm) -> Ensemble:
    """Ensemble {lambda_x, sqrt(rho) Lambda_x sqrt(rho) / lambda_x} induced by a POVM.

    Outcomes with probability below ``EIG_CUTOFF`` are dropped from the ensemble
    and recorded on the ``dropped`` field (their states are undefined and they
    contribute nothing to entropic quantities).
    """
    sq, _ = matrix_sqrt_and_pinv_sqrt(rho.mat)
    weights, states, outs, dropped = [], [], [], []
    for x, op in m.items():
        lam = float(np.real(np.trace(op @ rho.mat)))
        if lam < EIG_CUTOFF:
            dropped.append(x)
            continue
        s = hermitize(sq @ op @ sq) / lam
        states.append(DensityOperator(s, rho.dims, tol=max(rho.tol, 1e-8)))
        weights.append(lam)
        outs.append(x)
    if not outs:
        raise InvariantError("every outcome of the POVM has zero probability")
    return Ensemble(np.asarray(weights), tuple(states), outcomes=tuple(outs),
                    dropped=tuple(dropped), tol=max(rho.tol, 1e-8))


def outcome_distribution(rho_AB: DensityOperator, povm_A: SubPovm,
                         povm_B: SubPovm) -> np.ndarray:
    """Joint outcome law p(u, v) of independent local measurements."""
    mat = rho_AB.mat
    p = np.zeros((len(povm_A.outcomes), len(povm_B.outcomes)))
    for i, u in enumerate(povm_A.outcomes):
        for j, v in enumerate(povm_B.outcomes):
            p[i, j] = float(np.real(np.trace(
                np.kron(povm_A.op(u), povm_B.op(v)) @ mat)))
    return probability_rows("outcome distribution", p.ravel()).reshape(p.shape)


def _measured_state(proj: np.ndarray, dims: tuple, povms: tuple, tol: float) -> CqState:
    """The purification's projector with each side whose POVM is given
    measured (None leaves that side quantum): classical registers U, V for
    the measured sides, quantum R and the unmeasured sides.  dims are
    (dR, dA, dB), and each block is Tr_measured((1_R x a x b) proj) with the
    identity standing in for an unmeasured side's element.  The (1_R x a x
    b) stack, with ``np.kron``'s products, is multiplied by proj,
    partial-traced and symmetrized as one array."""
    classical, quantum, keep = (), {"R": dims[0]}, [0]
    keys, ops = [()], np.eye(dims[0], dtype=np.complex128)[None]
    for pos, (c, q), povm in zip((1, 2), (("U", "A"), ("V", "B")), povms):
        if povm is None:
            quantum[q] = dims[pos]
            keep.append(pos)
            ops = kron_pairs(ops, np.eye(dims[pos], dtype=np.complex128)[None])
        else:
            classical += (c,)
            keys = [k + (x,) for k in keys for x in povm.outcomes]
            ops = kron_pairs(ops, np.array(povm.operators))
    blocks = hermitize(partial_trace(ops @ proj, dims, keep))
    return CqState._derived(classical, tuple(quantum), quantum, keys, blocks, tol)


def auxiliary_states(rho_AB: DensityOperator, povm_A: Povm, povm_B: Povm):
    """The three post-measurement states behind the distributed rate bounds,
    unchecked at the inputs' loosest tol (at least 1e-8): their blocks are
    partial traces of PSD products of inputs that passed ``psd_stack``.

    With Psi the canonical purification of rho_AB (reference R first, of
    dimension dA·dB), measured by povm_A on side A and povm_B on side B:

    * sigma1: measure side A only, registers (U; R, B),
    * sigma2: measure side B only, registers (V; R, A),
    * sigma3: measure both sides, registers (U, V; R).
    """
    dims = (povm_A.dim, povm_B.dim)
    if tuple(rho_AB.dims) != dims:
        raise InvariantError(f"state dims {rho_AB.dims} do not match the POVM pair's {dims}")
    psi = purify(rho_AB)
    proj = np.outer(psi, psi.conj())
    tol = max(rho_AB.tol, povm_A.tol, povm_B.tol, 1e-8)
    return tuple(_measured_state(proj, (rho_AB.dim,) + dims, povms, tol)
                 for povms in ((povm_A, None), (None, povm_B), (povm_A, povm_B)))


def stochastic_sigma3(sigma3: CqState, d: SeparableDecomposition) -> CqState:
    """auxiliary_states' sigma3 extended by the integration output of d:
    registers (U, V, Z; R).

    Marginalizing Z recovers sigma3 exactly (the Z branch weights P(z|u,v)
    sum to one per block).
    """
    return attach_classical(sigma3, "Z", d.z_alphabet, lambda key: d.row(*key))


# ---------------------------------------------------------------------------
# faithfulness
# ---------------------------------------------------------------------------

def _union_alphabet(m: SubPovm, mtilde: SubPovm) -> tuple:
    extra = [x for x in mtilde.outcomes if x not in m.outcomes]
    return m.outcomes + tuple(extra)


def _op_or_zero(m: SubPovm, x, dim: int) -> np.ndarray:
    if x in m.outcomes:
        return m.op(x)
    return np.zeros((dim, dim), dtype=np.complex128)


def faithfulness_distance(rho: DensityOperator, m: SubPovm, mtilde: SubPovm) -> float:
    """Per-outcome weighted deviation plus leakage of the approximation.

    sum_x || sqrt(rho) (Lambda_x - LambdaTilde_x) sqrt(rho) ||_1
        + Tr{ (I - sum_x LambdaTilde_x) rho }

    Outcomes present on only one side are compared against the zero operator.
    Zero iff the measurements agree on the support of rho and mtilde keeps
    all the mass there.
    """
    if m.dim != mtilde.dim or m.dim != rho.dim:
        raise InvariantError("faithfulness comparison needs a common dimension")
    sq, _ = matrix_sqrt_and_pinv_sqrt(rho.mat)
    diffs = np.array([_op_or_zero(m, x, m.dim) - _op_or_zero(mtilde, x, m.dim)
                      for x in _union_alphabet(m, mtilde)])
    total = 0.0
    for norm in trace_norm(sq @ diffs @ sq).tolist():
        total += norm
    leak = float(np.real(np.trace((np.eye(m.dim) - mtilde.total()) @ rho.mat)))
    return total + max(leak, 0.0)
