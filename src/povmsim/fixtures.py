"""Built-in problem instances for the command line tool and the tests.

Two named fixtures ship with the package:

* ``example1``: the maximally entangled qubit pair, both sides measured by
  the four-operator family ½{|0><0|, |1><1|, |+><+|, |-><-|}; its region
  bounds have the closed form (0.5, 0.5, 1.5, 1.5, 1.5, 3.5).
* ``binary-correlated``: two perfectly correlated classical bits read out in
  the computational basis; the smallest instance on which protocol trials,
  packing sweeps and collision sweeps all run in milliseconds.

Each fixture bundles a state, a decomposition, default trial parameters,
the induced outcome distribution, a soft-covering ensemble and the
reconstruction data used by the rate-distortion evaluator.  load_fixture
builds each fixture once per process and hands out that one instance, its
arrays read-only.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import InvariantError
from .measurement import (SeparableDecomposition, deterministic_decomposition,
                          outcome_distribution)
from .operators import DensityOperator, Ensemble, Povm, read_only
from .protocol import ProtocolParams

_KET0 = np.array([1.0, 0.0], dtype=np.complex128)
_KET1 = np.array([0.0, 1.0], dtype=np.complex128)
_KETP = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)
_KETM = np.array([1.0, -1.0], dtype=np.complex128) / np.sqrt(2.0)


def _proj(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=np.complex128)
    return np.outer(v, v.conj())


def bell_state() -> DensityOperator:
    """Maximally entangled qubit pair (|00> + |11>)/sqrt(2)."""
    psi = (np.kron(_KET0, _KET0) + np.kron(_KET1, _KET1)) / np.sqrt(2.0)
    return DensityOperator(_proj(psi), (2, 2))


def four_outcome_povm() -> Povm:
    """Computational and Hadamard projectors, each scaled by one half."""
    ops = tuple(0.5 * _proj(v) for v in (_KET0, _KET1, _KETP, _KETM))
    return Povm(("0", "1", "+", "-"), ops)


def computational_povm() -> Povm:
    return Povm(("0", "1"), (_proj(_KET0), _proj(_KET1)))


def classical_correlated_state() -> DensityOperator:
    """Two perfectly correlated uniform bits as a diagonal two-qubit state."""
    return DensityOperator(np.diag([0.5, 0.0, 0.0, 0.5]).astype(np.complex128), (2, 2))


def soft_covering_ensemble() -> Ensemble:
    """Two pure qubit states at 45 degrees; Holevo quantity about 0.601."""
    states = (DensityOperator(_proj(_KET0), (2,)),
              DensityOperator(_proj(_KETP), (2,)))
    return Ensemble(np.array([0.5, 0.5]), states, ("0", "+"))


# ---------------------------------------------------------------------------
# bundled instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    """One ready-to-run problem with defaults for every command."""
    name: str
    state: DensityOperator
    decomposition: SeparableDecomposition
    params: ProtocolParams
    p_uv: np.ndarray
    ensemble: Ensemble
    recon: Mapping
    delta_obs: np.ndarray

    def rd_arguments(self):
        """(povm_pairs, p_q, recon, delta_obs) for the rate-distortion bound."""
        pairs = {0: (self.decomposition.povm_A, self.decomposition.povm_B)}
        return pairs, {0: 1.0}, dict(self.recon), self.delta_obs


def _recon_from_u(povm_A: Povm, povm_B: Povm, kets: Mapping) -> Mapping:
    recon = {}
    for u in povm_A.outcomes:
        state = DensityOperator(_proj(kets[u]), (2,))
        for v in povm_B.outcomes:
            recon[(u, v, 0)] = state
    return MappingProxyType(recon)


def _example1() -> Instance:
    rho = bell_state()
    m = four_outcome_povm()
    d = deterministic_decomposition(m, m)
    kets = {"0": _KET0, "1": _KET1, "+": _KETP, "-": _KETM}
    # delta = 1.0: four uniform letters leave no typical sequences at small n
    # under any tighter window
    params = ProtocolParams(n=2, Rt1=1.15, Rt2=1.15, R1=1.0, R2=1.0,
                            N1=1, N2=1, eta=0.05, delta=1.0, seed=0)
    return Instance(
        name="example1", state=rho, decomposition=d, params=params,
        p_uv=outcome_distribution(rho, m, m),
        ensemble=soft_covering_ensemble(),
        recon=_recon_from_u(m, m, kets),
        delta_obs=np.kron(np.eye(rho.dim), _proj(_KET1)),
    )


def _binary_correlated() -> Instance:
    rho = classical_correlated_state()
    m = computational_povm()
    d = deterministic_decomposition(m, m)
    kets = {"0": _KET0, "1": _KET1}
    params = ProtocolParams(n=2, Rt1=1.25, Rt2=1.25, R1=0.8, R2=0.8,
                            N1=1, N2=1, eta=0.05, delta=0.6, seed=0)
    return Instance(
        name="binary-correlated", state=rho, decomposition=d, params=params,
        p_uv=outcome_distribution(rho, m, m),
        ensemble=soft_covering_ensemble(),
        recon=_recon_from_u(m, m, kets),
        delta_obs=np.kron(np.eye(rho.dim), _proj(_KET1)),
    )


_BUILDERS = {"example1": _example1, "binary-correlated": _binary_correlated}

FIXTURE_NAMES = tuple(sorted(_BUILDERS))


_LOADED: dict = {}


def load_fixture(name: str) -> Instance:
    """The named fixture, built on the first call and shared by every later
    one; every array it holds is read-only."""
    if name not in _BUILDERS:
        raise InvariantError(f"unknown fixture {name!r}; have {FIXTURE_NAMES}")
    if name not in _LOADED:
        _LOADED[name] = read_only(_BUILDERS[name]())
    return _LOADED[name]
