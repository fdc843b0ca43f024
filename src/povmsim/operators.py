"""Dense complex-operator substrate.

Matrix helpers (Hermitian parts, Kronecker products and Kronecker rows,
partial traces), spectra and norms (descending eigendecompositions, trace and
operator norms, square roots and pseudo-inverse square roots, von Neumann
entropy), density operators and their canonical purifications, POVMs,
sub-POVMs and their products, and ensembles with their Holevo information.

Operators are plain ``numpy`` arrays of ``complex128``; the classes in this
module only add the bookkeeping that the rest of the package relies on
(subsystem dimension labels, outcome alphabets, ensemble weights) together
with validation of the defining invariants.  Every function is pure and every
value is immutable after construction, so everything here is safe to call
concurrently.

Conventions
-----------
* logarithms are base 2 throughout; entropies are in bits,
* eigenvalues below ``EIG_CUTOFF`` relative to the largest one are treated as
  zero (support convention for pseudo-inverses and entropies),
* operators are Hermitian-symmetrized, ``(A + A^dag)/2``, before any
  eigendecomposition to suppress accumulated asymmetric rounding,
* dimension labels travel with every state; there is no implicit reshaping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from functools import reduce
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvariantError

DEFAULT_TOL = 1e-9
EIG_CUTOFF = 1e-12  # relative to the largest eigenvalue


# ---------------------------------------------------------------------------
# basic matrix helpers
# ---------------------------------------------------------------------------

def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dag)/2, of each matrix in a stack."""
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def weighted_gram(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Hermitian operator z diag(w) z^dag of an eigen-form (z, w), w real."""
    return hermitize((z * w) @ z.conj().T)


def read_only(obj):
    """obj, with every array it holds marked read-only, through dataclass
    fields, tuples, lists and mapping values, so that an in-place write into
    a shared value raises instead of changing it for every later reader."""
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif is_dataclass(obj):
        for f in fields(obj):
            read_only(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            read_only(x)
    elif isinstance(obj, Mapping):
        for x in obj.values():
            read_only(x)
    return obj


def probability_rows(what: str, rows, tol: float = DEFAULT_TOL, names=None) -> np.ndarray:
    """``rows`` as probability laws along its last axis, by the one rule
    every law of the package is held to.

    Every entry must be finite and at least -tol, and every row must sum to
    1 within tol.  A refusal names the law ``what`` and, for a stack, the
    failing row ``names[i]`` (rows counted in C order over the leading
    axes), and shows that row's values.  Returns a new float array of the
    same shape, its entries in [-tol, 0) set to 0.
    """
    p = np.array(rows, dtype=float, ndmin=1)
    flat = p.reshape(math.prod(p.shape[:-1]), p.shape[-1])
    # NaN and -inf fail the floor, so only rows that pass it are summed
    ok = (flat >= -tol).all(axis=1)
    with np.errstate(over="ignore"):  # a sum that overflows to inf fails the test
        ok &= np.abs(flat.sum(axis=1, where=ok[:, None]) - 1.0) <= tol
    if not ok.all():
        i = int(np.argmin(ok))
        row, law = flat[i], what if names is None else f"{what} at {names[i]!r}"
        if not np.isfinite(row).all():
            raise InvariantError(f"{law} must be finite, got {row.tolist()}")
        if (row < -tol).any():
            raise InvariantError(f"{law} must be at least -{tol:g}, got {row.tolist()}")
        raise InvariantError(f"{law} must sum to 1 within {tol:g}, got {row.tolist()}")
    return np.maximum(p, 0.0, out=p)


def psd_stack(what: str, mats, tol: float = DEFAULT_TOL, names=None) -> np.ndarray:
    """``mats``, one matrix or with ``names`` a stack of them, as a complex128
    (k, d, d) stack with its values unchanged, by the one rule every operator
    of the package is held to: each matrix is square, has finite entries,
    has max |A - A^dag| <= tol, and has no eigenvalue of its Hermitian part
    below -tol.  A refusal names ``what`` and, in a stack, the first failing
    matrix ``names[i]``, with that matrix's first failing check."""
    a = np.asarray(mats, dtype=np.complex128)
    stack = a[None] if names is None else a
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise InvariantError(f"{what} must be a square matrix, got shape {stack.shape[1:]}")
    finite = np.isfinite(stack).all(axis=(1, 2))
    # halved first, the gap and the Hermitian part cannot overflow, and on
    # normal entries they are half of A - A^dag and hermitize's value exactly
    half = 0.5 * (stack if finite.all() else np.where(finite[:, None, None], stack, 0.0))
    adj = np.swapaxes(half.conj(), 1, 2)
    gap = np.abs(half - adj).max(axis=(1, 2), initial=0.0)
    low = np.linalg.eigvalsh(half + adj).min(axis=1, initial=0.0)
    ok = finite & (gap <= 0.5 * tol) & (low >= -tol)
    if not ok.all():
        i = int(np.argmin(ok))
        label = what if names is None else f"{what} at {names[i]!r}"
        if not finite[i]:
            raise InvariantError(f"{label} has a non-finite entry")
        if not gap[i] <= 0.5 * tol:
            raise InvariantError(f"{label} is not Hermitian within {tol:g}")
        raise InvariantError(f"{label} is not PSD within {tol:g}: min eigenvalue {low[i]:.3e}")
    return stack


def tensor(*ops) -> np.ndarray:
    """Kronecker product of one or more operators.

    Dimension labels concatenate: an operator on dims ``(a,)`` tensored with
    one on dims ``(b,)`` lives on dims ``(a, b)``.
    """
    mats = [np.asarray(o, dtype=np.complex128) for o in ops]
    return reduce(np.kron, mats)


def kron_pairs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_i x y_j for every pair of blocks of two stacks, i outer, j inner.

    (k, p, q) and (m, r, s) stacks give a new (k m, p r, q s) stack whose
    entries are ``np.kron(x[i], y[j])``'s products, bit for bit.
    """
    out = x[:, None, :, None, :, None] * y[None, :, None, :, None, :]
    return out.reshape(len(x) * len(y), x.shape[1] * y.shape[1], x.shape[2] * y.shape[2])


def kron_rows(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """table[i_1] x ... x table[i_n] for each row of a (k, n) index array.

    ``table`` is a stack of r x c blocks and the result a new (k, r^n, c^n)
    stack.  The products run left to right, so every entry equals the
    ``np.kron`` chain's bit for bit; with c = 1 the blocks are columns and
    each result is one Khatri-Rao column, with r = c = 1 one product scalar.
    """
    out = table[idx[:, 0]]
    for col in idx.T[1:]:
        out = (out[:, :, None, :, None] * table[col][:, None, :, None, :]).reshape(
            len(idx), out.shape[1] * table.shape[1], out.shape[2] * table.shape[2])
    return out


def partial_trace(op, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Reduced operator over the kept subsystems, of one operator or a stack.

    Parameters
    ----------
    op : array, square, side length ``prod(dims)``, or a stack of such
        operators along leading axes
    dims : subsystem dimensions, in tensor order
    keep : indices (into ``dims``) of the subsystems to retain, strictly
        ascending

    Returns
    -------
    The reduced operator on ``prod(dims[k] for k in keep)`` dimensions, its
    subsystems in tensor order (a scalar-valued 1x1 matrix when ``keep`` is
    empty), with any stack axes kept.  Trace is preserved, and each block
    gets the ``np.trace`` contractions it would get alone.
    """
    a = np.asarray(op, dtype=np.complex128)
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    total = math.prod(dims)
    lead = a.shape[:-2]
    if a.ndim < 2 or a.shape[-2:] != (total, total) or any(d < 1 for d in dims):
        raise InvariantError(
            f"operator side {a.shape} needs positive dims of that product, got {dims}")
    keep = tuple(int(k) for k in keep)
    if any(k < 0 or k >= n for k in keep):
        raise InvariantError(f"keep indices {keep} out of range for {n} dims")
    if any(i >= j for i, j in zip(keep, keep[1:])):
        raise InvariantError(f"keep indices {keep} must be strictly ascending")
    traced = [i for i in range(n) if i not in keep]
    t = a.reshape(lead + dims + dims)
    # contract each traced subsystem pairwise (row index against column index)
    for i in sorted(traced, reverse=True):
        i += len(lead)
        t = np.trace(t, axis1=i, axis2=i + (t.ndim - len(lead)) // 2)
    kept_dim = math.prod(dims[k] for k in keep)
    return t.reshape(lead + (kept_dim, kept_dim))


# ---------------------------------------------------------------------------
# spectra, norms, functional calculus
# ---------------------------------------------------------------------------

def eigh_desc(op: np.ndarray):
    """Eigendecomposition of a Hermitian operator, eigenvalues descending."""
    vals, vecs = np.linalg.eigh(hermitize(np.asarray(op, dtype=np.complex128)))
    idx = np.argsort(vals)[::-1]
    return vals[idx], vecs[:, idx]


def trace_norm(op):
    """Sum of singular values, ||A||_1 = Tr |A|: a float for one square
    matrix, an array of norms for a stack of them along leading axes."""
    a = np.asarray(op, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise InvariantError("trace_norm expects a square matrix")
    norms = np.sum(np.linalg.svd(a, compute_uv=False), axis=-1)
    return float(norms) if a.ndim == 2 else norms


def operator_norm(op) -> float:
    """Largest singular value, ||A||_inf."""
    a = np.asarray(op, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvariantError("operator_norm expects a square matrix")
    if a.shape[0] == 0:
        return 0.0
    return float(np.max(np.linalg.svd(a, compute_uv=False)))


def matrix_sqrt_and_pinv_sqrt(op):
    """Square root and pseudo-inverse square root of a PSD operator.

    Eigenvalues at or below ``EIG_CUTOFF`` times the largest eigenvalue are
    treated as zero: they are dropped from the pseudo-inverse, so that
    ``sqrt(A) @ pinv_sqrt(A)`` is the projector onto the support of ``A``.

    Returns
    -------
    (sqrt, pinv_sqrt) : pair of arrays
    """
    a = np.asarray(op, dtype=np.complex128)
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    if not np.max(np.abs(a - a.conj().T)) <= 1e-6 * scale:
        raise InvariantError("matrix square root expects a Hermitian operator")
    vals, vecs = eigh_desc(a)
    top = float(vals[0]) if vals.size else 0.0
    floor = EIG_CUTOFF * max(top, 0.0)
    if np.any(vals < -max(floor, DEFAULT_TOL)):
        raise InvariantError("matrix square root expects a PSD operator")
    vals = np.clip(vals, 0.0, None)
    root = np.sqrt(vals)
    inv_root = np.where(vals > floor, 1.0 / np.where(vals > floor, root, 1.0), 0.0)
    sqrt = (vecs * root) @ vecs.conj().T
    pinv = (vecs * inv_root) @ vecs.conj().T
    return sqrt, pinv


def von_neumann_entropy(rho) -> float:
    """Entropy -sum lambda_i log2 lambda_i over eigenvalues above the cutoff.

    Accepts a raw PSD array, a (k, d, d) stack of them, or a
    :class:`DensityOperator`.  A stack's value is the sum of its blocks'
    entropies in stack order, from one ``eigvalsh`` call; each block keeps
    its own cutoff and its own ``np.sum``.  Unnormalized inputs are allowed
    (the formula is applied to the eigenvalues as given); callers that need
    S of a conditional block normalize first.
    """
    a = rho.mat if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=np.complex128)
    vals = np.atleast_2d(np.linalg.eigvalsh(hermitize(a)))
    pos = vals > EIG_CUTOFF * np.max(vals, axis=-1, initial=0.0)[:, None]
    terms = vals * np.log2(np.where(pos, vals, 1.0))
    return float(sum(float(-np.sum(t[p])) for t, p in zip(terms, pos)))


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityOperator:
    """PSD unit-trace operator with subsystem dimension labels.

    Parameters
    ----------
    mat : square complex matrix, held to ``psd_stack`` at ``tol`` first
    dims : ordered subsystem dimensions; their product must equal the side
    tol : validation tolerance (``psd_stack``, then the trace to 1)
    """
    mat: np.ndarray
    dims: tuple
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        m = psd_stack("density operator", self.mat, self.tol)[0]
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dims", dims)
        # a product of Python ints: a huge label cannot wrap round to the side
        if any(d < 1 for d in dims) or math.prod(dims) != m.shape[0]:
            raise InvariantError(f"dims {dims} must be positive integers with product {m.shape[0]}")
        with np.errstate(over="ignore"):  # a trace that overflows to inf fails the test
            trace = np.trace(m)
        if abs(float(np.real(trace)) - 1.0) > self.tol:
            raise InvariantError(f"density operator trace {trace:.12f} != 1 within tol")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def marginal(self, keep: Iterable[int]) -> "DensityOperator":
        keep = tuple(keep)
        red = partial_trace(self.mat, self.dims, keep)
        return DensityOperator(hermitize(red), tuple(self.dims[k] for k in keep), tol=self.tol)


def purify(rho: DensityOperator) -> np.ndarray:
    """Canonical eigen-purification, as a unit vector on reference x system.

    Writes rho = sum_i lambda_i |v_i><v_i| (eigenvalues descending) and returns
    |Psi> = sum_i sqrt(lambda_i) |i>_R |v_i>, with the reference first.  The
    reference dimension is the rank padded up to the system dimension, so the
    vector has rho.dim ** 2 entries.
    """
    vals, vecs = eigh_desc(rho.mat)
    vals = np.clip(vals, 0.0, None)
    d = rho.dim
    vec = np.zeros(d * d, dtype=np.complex128)
    for i in range(d):
        if vals[i] <= 0.0:
            continue
        vec[i * d:(i + 1) * d] = math.sqrt(float(vals[i])) * vecs[:, i]
    return vec / np.linalg.norm(vec)


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubPovm:
    """Indexed family of PSD operators summing to at most the identity.

    The elements of the first one's shape are held to ``psd_stack`` at
    ``tol``, named by outcome; then every element must share that positive
    dimension, and I - sum must have no eigenvalue below -tol.
    """
    outcomes: tuple
    operators: tuple
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        outs = tuple(self.outcomes)
        ops = tuple(np.asarray(o, dtype=np.complex128) for o in self.operators)
        object.__setattr__(self, "outcomes", outs)
        object.__setattr__(self, "operators", ops)
        if len(outs) != len(ops):
            raise InvariantError("outcomes and operators must be parallel")
        if len(set(outs)) != len(outs):
            raise InvariantError("duplicate outcome labels")
        if not ops:
            raise InvariantError("a measurement needs at least one outcome")
        k = next((i for i, op in enumerate(ops) if op.shape != ops[0].shape), len(ops))
        stack = psd_stack("operator", ops[:k], self.tol, names=outs)
        d = stack.shape[1]
        if not d:
            raise InvariantError("a measurement needs positive dimension")
        if k < len(ops):
            raise InvariantError("operators act on inconsistent dimensions")
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN sum fails the test
            gap = np.eye(d) - stack.sum(axis=0)
        lo = float(np.linalg.eigvalsh(0.5 * gap + 0.5 * gap.conj().T)[0]) \
            if np.isfinite(gap).all() else -math.inf
        if not lo >= -self.tol:
            raise InvariantError(f"operator sum exceeds identity by {-lo:.3e}")

    @property
    def complete(self) -> bool:
        """Whether the elements resolve the identity: every entry of the gap
        within ``tol``."""
        return float(np.max(np.abs(np.eye(self.dim) - self.total()))) <= self.tol

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def op(self, outcome) -> np.ndarray:
        return self.operators[self.outcomes.index(outcome)]

    def total(self) -> np.ndarray:
        return np.sum(self.operators, axis=0)

    def items(self):
        return zip(self.outcomes, self.operators)


class Povm(SubPovm):
    """SubPovm whose operators resolve the identity."""

    def __post_init__(self):
        super().__post_init__()
        if not self.complete:
            raise InvariantError("operators do not resolve the identity within tol")


def tensor_povm(a: SubPovm, b: SubPovm) -> SubPovm:
    """Product measurement with paired outcome labels (x, y)."""
    outs = tuple((x, y) for x in a.outcomes for y in b.outcomes)
    ops = tuple(kron_pairs(np.array(a.operators), np.array(b.operators)))
    cls = Povm if (isinstance(a, Povm) and isinstance(b, Povm)) else SubPovm
    return cls(outs, ops, tol=max(a.tol, b.tol, 1e-8))


# ---------------------------------------------------------------------------
# ensembles and entropic functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ensemble:
    """Weighted family of density operators on a common dimension.

    The weights are a probability law within ``tol`` (probability_rows),
    stored with the entries in [-tol, 0) set to 0.  ``outcomes`` optionally
    labels the members (canonical ensembles keep the POVM outcome labels);
    ``dropped`` records labels removed for having weight below the cutoff.
    """
    weights: np.ndarray
    states: tuple
    outcomes: tuple | None = None
    dropped: tuple = ()
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        sts = tuple(self.states)
        object.__setattr__(self, "states", sts)
        if len(sts) != w.size:
            raise InvariantError("weights and states must be parallel")
        if self.outcomes is not None:
            object.__setattr__(self, "outcomes", tuple(self.outcomes))
            if len(self.outcomes) != w.size:
                raise InvariantError("outcomes and weights must be parallel")
        object.__setattr__(self, "weights", probability_rows("ensemble weights", w, self.tol))
        d = sts[0].dim
        for s in sts:
            if not isinstance(s, DensityOperator) or s.dim != d:
                raise InvariantError("ensemble states must be DensityOperators of common dim")

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def average(self) -> np.ndarray:
        return np.sum([w * s.mat for w, s in zip(self.weights, self.states)], axis=0)


def holevo_information(ens: Ensemble) -> float:
    """chi = S(sum_i p_i rho_i) - sum_i p_i S(rho_i), nonnegative."""
    avg = von_neumann_entropy(ens.average())
    cond = float(np.sum([w * von_neumann_entropy(s.mat)
                         for w, s in zip(ens.weights, ens.states)]))
    return avg - cond
