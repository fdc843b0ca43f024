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
    matrix_sqrt_and_pinv_sqrt,
    partial_trace,
    purify,
    tensor,
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
    product of the quantum registers (in ``qregisters`` order).  Block traces
    are the outcome probabilities and must sum to 1.
    """
    cregisters: tuple
    alphabets: dict
    qregisters: tuple
    qdims: dict
    blocks: dict
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "cregisters", tuple(self.cregisters))
        object.__setattr__(self, "qregisters", tuple(self.qregisters))
        for name in self.cregisters:
            if name not in self.alphabets:
                raise InvariantError(f"classical register {name!r} has no alphabet")
        for name in self.qregisters:
            if name not in self.qdims:
                raise InvariantError(f"quantum register {name!r} has no dimension")
        qdim = int(np.prod([self.qdims[q] for q in self.qregisters])) if self.qregisters else 1
        total = 0.0
        fixed = {}
        for key, blk in self.blocks.items():
            key = tuple(key) if isinstance(key, (tuple, list)) else (key,)
            if len(key) != len(self.cregisters):
                raise InvariantError(f"block key {key} does not match registers {self.cregisters}")
            b = np.asarray(blk, dtype=np.complex128)
            if b.shape != (qdim, qdim):
                raise InvariantError(f"block {key} has shape {b.shape}, expected {(qdim, qdim)}")
            lo = float(np.min(np.linalg.eigvalsh(hermitize(b)))) if qdim else 0.0
            if lo < -self.tol:
                raise InvariantError(f"block {key} not PSD: min eigenvalue {lo:.3e}")
            total += float(np.real(np.trace(b)))
            fixed[key] = b
        if abs(total - 1.0) > max(self.tol, 1e-8):
            raise InvariantError(f"block traces sum to {total}, expected 1")
        object.__setattr__(self, "blocks", fixed)

    # -- register bookkeeping ------------------------------------------------

    def registers(self) -> tuple:
        return self.cregisters + self.qregisters

    def reduce(self, keep: Sequence[str]) -> "CqState":
        """Marginalize down to the named registers (classical and/or quantum).

        Dropped classical registers are summed out; dropped quantum registers
        are partial-traced.  Kept registers stay in their original order.
        """
        keep = set(keep)
        unknown = keep - set(self.registers())
        if unknown:
            raise InvariantError(f"unknown registers {sorted(unknown)}")
        ckeep = tuple(c for c in self.cregisters if c in keep)
        qkeep = tuple(q for q in self.qregisters if q in keep)
        cidx = [self.cregisters.index(c) for c in ckeep]
        qdims_all = [self.qdims[q] for q in self.qregisters]
        qidx = [self.qregisters.index(q) for q in qkeep]
        out: dict = {}
        for key, blk in self.blocks.items():
            newkey = tuple(key[i] for i in cidx)
            red = partial_trace(blk, qdims_all, qidx) if self.qregisters else blk
            if newkey in out:
                out[newkey] = out[newkey] + red
            else:
                out[newkey] = red
        return CqState(
            cregisters=ckeep,
            alphabets={c: self.alphabets[c] for c in ckeep},
            qregisters=qkeep,
            qdims={q: self.qdims[q] for q in qkeep},
            blocks=out,
            tol=max(self.tol, 1e-8),
        )

    # -- entropic functionals -------------------------------------------------

    def entropy(self, regs: Sequence[str] | None = None) -> float:
        """Von Neumann entropy of the reduced state on ``regs`` (default: all).

        Classical registers enter through the block structure: the state is
        block diagonal in them, so S is the sum of blockwise contributions
        -sum e_i log2 e_i over each unnormalized block's eigenvalues.
        """
        st = self if regs is None else self.reduce(regs)
        return float(sum(von_neumann_entropy(blk) for blk in st.blocks.values()))

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
    vector over ``alphabet``.  Zero-probability branches are not materialized.
    """
    if name in cq.registers():
        raise InvariantError(f"register {name!r} already present")
    alphabet = tuple(alphabet)
    blocks = {}
    for key, blk in cq.blocks.items():
        p = np.asarray(kernel(key), dtype=float).ravel()
        if p.size != len(alphabet):
            raise InvariantError(f"kernel row for {key} has wrong length")
        if float(np.min(p)) < -cq.tol or abs(float(np.sum(p)) - 1.0) > max(cq.tol, 1e-9):
            raise InvariantError(f"kernel row for {key} is not a distribution")
        for z, pz in zip(alphabet, p):
            if pz > 0.0:
                blocks[key + (z,)] = pz * blk
    alphabets = dict(cq.alphabets)
    alphabets[name] = alphabet
    return CqState(
        cregisters=cq.cregisters + (name,),
        alphabets=alphabets,
        qregisters=cq.qregisters,
        qdims=dict(cq.qdims),
        blocks=blocks,
        tol=cq.tol,
    )


# ---------------------------------------------------------------------------
# separable decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparableDecomposition:
    """Joint measurement expressed as marginal POVMs plus a classical channel.

    ``rows`` maps every outcome pair (u, v) to a probability vector over
    ``z_alphabet``.  The decomposition is deterministic exactly when every
    row is a 0/1 unit vector; the flag is derived, never trusted from input.
    """
    povm_A: Povm
    povm_B: Povm
    z_alphabet: tuple
    rows: Mapping
    tol: float = DEFAULT_TOL
    deterministic: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "z_alphabet", tuple(self.z_alphabet))
        if len(set(self.z_alphabet)) != len(self.z_alphabet):
            raise InvariantError("duplicate labels in z alphabet")
        fixed = {}
        det = True
        for u in self.povm_A.outcomes:
            for v in self.povm_B.outcomes:
                if (u, v) not in self.rows:
                    raise InvariantError(f"channel row missing for pair {(u, v)}")
                p = np.asarray(self.rows[(u, v)], dtype=float).ravel()
                if p.size != len(self.z_alphabet):
                    raise InvariantError(f"row for {(u, v)} has length {p.size}")
                # NaN passes both tests below
                if not np.all(np.isfinite(p)):
                    raise InvariantError(f"non-finite channel probability at {(u, v)}")
                if float(np.min(p)) < -self.tol:
                    raise InvariantError(f"negative channel probability at {(u, v)}")
                if abs(float(np.sum(p)) - 1.0) > self.tol:
                    raise InvariantError(f"row for {(u, v)} sums to {np.sum(p)}")
                det = det and bool(np.max(p) > 1.0 - self.tol)
                fixed[(u, v)] = p
        object.__setattr__(self, "rows", fixed)
        object.__setattr__(self, "deterministic", det)

    def row(self, u, v) -> np.ndarray:
        return self.rows[(u, v)]

    @property
    def dims(self) -> tuple:
        return (self.povm_A.dim, self.povm_B.dim)


def deterministic_decomposition(povm_A: Povm, povm_B: Povm, g: Callable | None = None,
                                z_alphabet=None) -> SeparableDecomposition:
    """Decomposition with a deterministic integration function g(u, v).

    Default g is the identity pairing, z = (u, v).
    """
    if g is None:
        g = lambda u, v: (u, v)
    pairs = [(u, v) for u in povm_A.outcomes for v in povm_B.outcomes]
    if z_alphabet is None:
        seen = []
        for u, v in pairs:
            z = g(u, v)
            if z not in seen:
                seen.append(z)
        z_alphabet = tuple(seen)
    z_alphabet = tuple(z_alphabet)
    zindex = {z: i for i, z in enumerate(z_alphabet)}
    rows = {}
    for u, v in pairs:
        p = np.zeros(len(z_alphabet))
        p[zindex[g(u, v)]] = 1.0
        rows[(u, v)] = p
    return SeparableDecomposition(povm_A, povm_B, z_alphabet, rows)


def compose_decomposition(d: SeparableDecomposition) -> Povm:
    """Joint POVM realized by the decomposition: Lambda_z = sum P(z|u,v) L_u x L_v."""
    dA, dB = d.dims
    ops = [np.zeros((dA * dB, dA * dB), dtype=np.complex128) for _ in d.z_alphabet]
    for u, lu in d.povm_A.items():
        for v, lv in d.povm_B.items():
            joint = tensor(lu, lv)
            p = d.row(u, v)
            for k, pz in enumerate(p):
                if pz > 0.0:
                    ops[k] += pz * joint
    return Povm(d.z_alphabet, tuple(ops), tol=max(d.tol, 1e-8))


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
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise InvariantError(f"outcome distribution sums to {total}")
    return np.clip(p, 0.0, None)


def auxiliary_states(rho_AB: DensityOperator, d: SeparableDecomposition):
    """The three post-measurement states behind the distributed rate bounds.

    With Psi the canonical purification of rho_AB (reference R first):

    * sigma1: measure side A only, registers (U; R, B),
    * sigma2: measure side B only, registers (V; R, A),
    * sigma3: measure both sides, registers (U, V; R).
    """
    if tuple(rho_AB.dims) != d.dims:
        raise InvariantError(f"state dims {rho_AB.dims} do not match decomposition {d.dims}")
    dA, dB = d.dims
    dR = dA * dB
    psi = purify(rho_AB)
    proj = psi.projector()
    dims3 = (dR, dA, dB)
    eyeA, eyeB, eyeR = np.eye(dA), np.eye(dB), np.eye(dR)

    blocks1 = {}
    for u, lu in d.povm_A.items():
        blk = partial_trace(tensor(eyeR, lu, eyeB) @ proj, dims3, (0, 2))
        blocks1[(u,)] = hermitize(blk)
    sigma1 = CqState(("U",), {"U": d.povm_A.outcomes}, ("R", "B"),
                     {"R": dR, "B": dB}, blocks1, tol=1e-8)

    blocks2 = {}
    for v, lv in d.povm_B.items():
        blk = partial_trace(tensor(eyeR, eyeA, lv) @ proj, dims3, (0, 1))
        blocks2[(v,)] = hermitize(blk)
    sigma2 = CqState(("V",), {"V": d.povm_B.outcomes}, ("R", "A"),
                     {"R": dR, "A": dA}, blocks2, tol=1e-8)

    blocks3 = {}
    for u, lu in d.povm_A.items():
        for v, lv in d.povm_B.items():
            blk = partial_trace(tensor(eyeR, lu, lv) @ proj, dims3, (0,))
            blocks3[(u, v)] = hermitize(blk)
    sigma3 = CqState(("U", "V"), {"U": d.povm_A.outcomes, "V": d.povm_B.outcomes},
                     ("R",), {"R": dR}, blocks3, tol=1e-8)
    return sigma1, sigma2, sigma3


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
    total = 0.0
    for x in _union_alphabet(m, mtilde):
        diff = _op_or_zero(m, x, m.dim) - _op_or_zero(mtilde, x, m.dim)
        total += trace_norm(sq @ diff @ sq)
    leak = float(np.real(np.trace((np.eye(m.dim) - mtilde.total()) @ rho.mat)))
    return total + max(leak, 0.0)
