"""Shared instance builders and helpers for the test suite."""

import dataclasses

import numpy as np

from povmsim import fixtures
from povmsim.errors import InvariantError
from povmsim.measurement import (SeparableDecomposition, deterministic_decomposition,
                                 outcome_distribution)
from povmsim.operators import DensityOperator, Povm, SubPovm, matrix_sqrt_and_pinv_sqrt


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------

def random_density(rng, dims):
    """Full-rank-ish random density operator with the given subsystem dims."""
    d = int(np.prod(dims))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityOperator(m / np.trace(m).real, dims)


def random_povm(rng, dim, k):
    """Random complete POVM with k outcomes labeled 0..k-1.

    Draws k random PSD parts and conjugates by the inverse square root of
    their sum, so the family sums to the support projector (identity almost
    surely for random draws).
    """
    parts = []
    for _ in range(k):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        parts.append(a @ a.conj().T)
    total = sum(parts)
    _, pinv = matrix_sqrt_and_pinv_sqrt(total)
    ops = [pinv @ p @ pinv for p in parts]
    return Povm(tuple(range(k)), tuple(ops), tol=1e-7)


def random_sub_povm(rng, povm, floor=0.5):
    """Shrink each operator of a complete POVM by an independent factor."""
    scales = rng.uniform(floor, 1.0, size=len(povm.outcomes))
    ops = tuple(s * op for s, op in zip(scales, povm.operators))
    return SubPovm(povm.outcomes, ops, tol=povm.tol)


# ---------------------------------------------------------------------------
# instances beside the fixtures
# ---------------------------------------------------------------------------

def stochastic_binary():
    """binary-correlated's POVMs with a 3-letter stochastic integration.

    The float sum of (0.3, 0.6, 0.1) is 0.9999999999999999, so decoded
    pairs carry total image weights that are not exactly 1.
    """
    m = fixtures.load_fixture("binary-correlated").decomposition.povm_A
    rows = {("0", "0"): (0.3, 0.6, 0.1), ("0", "1"): (1.0, 0.0, 0.0),
            ("1", "0"): (0.0, 0.0, 1.0), ("1", "1"): (0.1, 0.3, 0.6)}
    return SeparableDecomposition(m, m, ("a", "b", "c"), rows)


def unequal_dims(dims, seed):
    """A random state on ``dims`` read by a random two-outcome POVM on each
    side, integrated by the identity pairing, with binary-correlated's rates
    at delta = 1.5."""
    rng = np.random.default_rng(seed)
    state = random_density(rng, dims)
    return _at_binary_rates(state, rng)


def low_rank_two_qubit(rank, seed):
    """unequal_dims((2, 2), seed) with the state's 4 - rank smallest
    eigenvalues zeroed and the rest renormalized: a rank-deficient state
    that its random POVMs do not commute with."""
    rng = np.random.default_rng(seed)
    vals, vecs = np.linalg.eigh(random_density(rng, (2, 2)).mat)
    vals[:4 - rank] = 0.0
    state = DensityOperator(vecs @ np.diag(vals / vals.sum()) @ vecs.conj().T, (2, 2))
    return _at_binary_rates(state, rng)


def _at_binary_rates(state, rng):
    """(instance, decomposition): state read by a random two-outcome POVM
    on each side from rng, integrated by the identity pairing, with
    binary-correlated's rates at delta = 1.5."""
    dims = state.dims
    d = deterministic_decomposition(random_povm(rng, dims[0], 2), random_povm(rng, dims[1], 2))
    inst = fixtures.load_fixture("binary-correlated")
    return dataclasses.replace(inst, state=state, decomposition=d,
                               p_uv=outcome_distribution(state, d.povm_A, d.povm_B),
                               params=dataclasses.replace(inst.params, delta=1.5)), d


def commuting_instance(seed):
    """A state and decomposition that reduce to a classical law, with its arrays.

    rho_AB = sum p(a, b)|ab><ab| is read by diagonal POVMs lam(u|a) and
    mu(v|b), with dA, dB in {2, 3} and 2-3 outcomes a side.  Every third seed
    is rank-deficient (zeros in p, and in lam's first row), every odd seed
    has stochastic rows w(z|u, v) over 2-3 letters (w is None for the
    identity pairing), and seeds 2, 3 mod 4 rotate both sides by random
    local unitaries, which keep every commutator, so the operators are
    complex and not diagonal.  Returns ((p, lam, mu, w), state, decomposition).
    """
    rng = np.random.default_rng([seed, 1901])
    dA, dB = (int(x) for x in rng.integers(2, 4, size=2))
    nu, nv = (int(x) for x in rng.integers(2, 4, size=2))
    p = rng.dirichlet(np.ones(dA * dB))
    lam = rng.dirichlet(np.ones(nu), size=dA)
    mu = rng.dirichlet(np.ones(nv), size=dB)
    if seed % 3 == 0:
        p[rng.permutation(dA * dB)[:int(rng.integers(1, dA * dB - 1))]] = 0.0
        p /= p.sum()
        lam[0] = np.eye(nu)[int(rng.integers(nu))]
    p = p.reshape(dA, dB)
    ua, ub = np.eye(dA), np.eye(dB)
    if seed % 4 >= 2:
        ua, ub = (np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
                  for d in (dA, dB))
    u = np.kron(ua, ub)
    state = DensityOperator(u @ np.diag(p.ravel()) @ u.conj().T, (dA, dB))
    povm_A = Povm(tuple(range(nu)), tuple(ua @ np.diag(col) @ ua.conj().T for col in lam.T))
    povm_B = Povm(tuple(range(nv)), tuple(ub @ np.diag(col) @ ub.conj().T for col in mu.T))
    if seed % 2 == 0:
        return (p, lam, mu, None), state, deterministic_decomposition(povm_A, povm_B)
    w = rng.dirichlet(np.ones(int(rng.integers(2, 4))), size=(nu, nv))
    d = SeparableDecomposition(povm_A, povm_B, tuple("abc"[:w.shape[-1]]),
                               {(a, b): w[a, b] for a in range(nu) for b in range(nv)})
    return (p, lam, mu, w), state, d


def invariant_message(build, *args):
    """The message of the InvariantError that build(*args) raises, or None."""
    try:
        build(*args)
    except InvariantError as exc:
        return str(exc)
    return None
