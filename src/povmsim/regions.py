"""Rate regions as exact-rational inequality systems.

Two layers live here.  The numeric layer computes named information bounds
(dist_deterministic_region, dist_stochastic_region, rd_inner_bound, picked
for a decomposition by region_for) and packages them as RegionReport values,
which membership checks rate points against.  The exact layer
(InequalitySystem, fourier_motzkin, intermediate_system,
single_letter_system) is exact: entropic values are quantized to rationals
at QUANT_STEP, then each row coeffs ‖ rhs is scaled once to a coprime
integer vector.  That one row form, with the row's strictness and its
originating rows as an int bit mask, is what a system holds, what the
elimination combines over Python ints and returns, and what same_region
compares.

The elimination keeps two redundancy filters: per coprime (coeffs ‖ rhs)
vector only the strongest (rhs, strictness) row, and the ancestor-count
cutoff (a row combined from more than k+1 original rows after k eliminations
is implied by the others and is never formed).  Neither makes a projection
irredundant: a weaker row parallel to a stronger one survives whenever the
two rows' rhs scale differently, and same_region, which keeps only the
strongest row per coefficient direction, is what discounts it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvariantError
from .measurement import (
    CqState,
    SeparableDecomposition,
    auxiliary_states,
    stochastic_sigma3,
)
from .operators import DEFAULT_TOL, DensityOperator, probability_rows, psd_stack

QUANT_STEP = Fraction(1, 10 ** 9)

GE = ">="
GT = ">"


def rationalize(x) -> Fraction:
    """Snap a real number to the nearest multiple of QUANT_STEP."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(round(float(x) / float(QUANT_STEP))) * QUANT_STEP


# ---------------------------------------------------------------------------
# exact inequality systems
# ---------------------------------------------------------------------------

def _coprime(ints) -> tuple:
    """Integer entries divided by their gcd (a zero vector stays as it is)."""
    g = math.gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def _int_row(entries: Sequence[Fraction]) -> tuple:
    """Rational entries scaled by a positive rational to coprime integers."""
    lcm = math.lcm(*(e.denominator for e in entries))
    return _coprime([e.numerator * (lcm // e.denominator) for e in entries])


def _vacuous(ints, strict) -> bool:
    """Whether the row has zero coefficients and every point satisfies it."""
    return not any(ints[:-1]) and (ints[-1] < 0 if strict else ints[-1] <= 0)


def _strongest(rows: Iterable[tuple]) -> list:
    """Keep, per coefficient part, only the strongest (rhs, strictness) row.

    Rows are (coprime ints, strict, ancestor mask).  Ties between identical
    rows keep the one with the fewest ancestors so later ancestor-count
    pruning stays as permissive as possible; the kept rows come in the order
    their coefficient parts were first seen.
    """
    best: dict = {}
    for row in rows:
        ints, strict, mask = row
        key = ints[:-1]
        cur = best.get(key)
        if cur is None or ((ints[-1], strict, -mask.bit_count())
                           > (cur[0][-1], cur[1], -cur[2].bit_count())):
            best[key] = row
    return list(best.values())


@dataclass(frozen=True)
class InequalitySystem:
    """Rows ``coeffs . variables (> if strict else >=) rhs``, each held as
    (ints, strict, mask): ints the coprime integer vector coeffs ‖ rhs, and
    mask the row's ancestors, bit i for row i of the system fourier_motzkin
    was given (it numbers them afresh, so a projection can be projected again)."""
    variables: tuple
    rows: tuple

    @classmethod
    def from_rows(cls, variables: Sequence[str], rows):
        """rows: iterables of (coeffs, relation, rhs); reals are quantized."""
        variables = tuple(variables)
        out = []
        for i, (coeffs, rel, rhs) in enumerate(rows):
            if rel not in (GE, GT):
                raise InvariantError(f"relation must be {GE!r} or {GT!r}")
            if len(coeffs) != len(variables):
                raise InvariantError("coefficient vector length mismatch")
            ints = _int_row([rationalize(c) for c in coeffs] + [rationalize(rhs)])
            out.append((ints, rel == GT, 1 << i))
        return cls(variables, tuple(out))

    def same_region(self, other: "InequalitySystem") -> bool:
        """Whether both systems hold the same rows once each row is scaled so
        that its coefficients alone are coprime and only the strongest (rhs,
        strictness) row is kept per direction, so a row implied by a
        stronger parallel one does not count."""
        def by_direction(system):
            rows = []
            for ints, strict, _ in system.rows:
                if _vacuous(ints, strict):
                    continue
                g = math.gcd(*ints[:-1]) or 1
                rows.append((tuple(c // g for c in ints[:-1]) + (Fraction(ints[-1], g),),
                             strict, 0))
            return frozenset((ints, strict) for ints, strict, _ in _strongest(rows))
        return self.variables == other.variables and by_direction(self) == by_direction(other)


def fourier_motzkin(sys: InequalitySystem, eliminate: Sequence[str]) -> InequalitySystem:
    """Project the feasible set onto the variables not in ``eliminate``.

    Exact over integers.  Strictness propagates: a combination is strict when
    either parent is.  Redundancy control per module docstring.
    """
    eliminate = list(eliminate)
    unknown = [v for v in eliminate if v not in sys.variables]
    if unknown:
        raise InvariantError(f"cannot eliminate unknown variables {unknown}")
    rows = _strongest((ints, strict, 1 << i) for i, (ints, strict, _) in enumerate(sys.rows)
                      if not _vacuous(ints, strict))
    for steps, var in enumerate(eliminate, start=1):
        j = sys.variables.index(var)
        merged = [r for r in rows if r[0][j] == 0]
        neg = [r for r in rows if r[0][j] < 0]
        for p, p_strict, p_mask in (r for r in rows if r[0][j] > 0):
            a = p[j]
            for m, m_strict, m_mask in neg:
                mask = p_mask | m_mask
                if mask.bit_count() > steps + 1:
                    continue
                b = -m[j]
                ints = [b * cp + a * cm for cp, cm in zip(p, m)]
                strict = p_strict or m_strict
                if not _vacuous(ints, strict):
                    merged.append((_coprime(ints), strict, mask))
        rows = _strongest(merged)
    dropped = [i for i, v in enumerate(sys.variables) if v in eliminate]
    if any(ints[i] for ints, _, _ in rows for i in dropped):
        raise InvariantError("eliminated variable survived projection")
    # the dropped entries are zero, so each kept vector stays coprime
    keep = [i for i, v in enumerate(sys.variables) if v not in eliminate]
    return InequalitySystem(tuple(sys.variables[i] for i in keep),
                            tuple((tuple(ints[i] for i in keep) + (ints[-1],), strict, mask)
                                  for ints, strict, mask in rows))


# ---------------------------------------------------------------------------
# the intermediate distributed-rate system and its single-letter target
# ---------------------------------------------------------------------------

def intermediate_system(i1, i2, iuv, su, sv) -> InequalitySystem:
    """Pre-elimination constraint set of the distributed protocol.

    Variables (R1, R2, C, Rt1, Rt2, C1, C2): bin rates, total common
    randomness, codebook rates, per-side randomness splits.  The packing
    constraint is strict in the underlying argument; the system holds its
    closure, whose projection matches the closed single-letter region.
    """
    i1, i2, iuv = rationalize(i1), rationalize(i2), rationalize(iuv)
    su, sv = rationalize(su), rationalize(sv)
    rows = [
        ((0, 0, 0, 1, 0, 0, 0), GE, i1),            # codebook covers side A
        ((0, 0, 0, 0, 1, 0, 0), GE, i2),            # codebook covers side B
        ((0, 0, 0, 1, 0, 1, 0), GE, su),            # randomness + rate cover S(U)
        ((0, 0, 0, 0, 1, 0, 1), GE, sv),            # randomness + rate cover S(V)
        ((1, 1, 0, -1, -1, 0, 0), GE, -iuv),        # packing: bin excess <= I(U;V)
        ((-1, 0, 0, 1, 0, 0, 0), GE, 0),            # Rt1 >= R1
        ((0, -1, 0, 0, 1, 0, 0), GE, 0),            # Rt2 >= R2
        ((1, 0, 0, 0, 0, 0, 0), GE, 0),
        ((0, 1, 0, 0, 0, 0, 0), GE, 0),
        ((0, 0, 1, 0, 0, -1, -1), GE, 0),           # C1 + C2 <= C
        ((0, 0, 0, 0, 0, 1, 0), GE, 0),
        ((0, 0, 0, 0, 0, 0, 1), GE, 0),
    ]
    return InequalitySystem.from_rows(("R1", "R2", "C", "Rt1", "Rt2", "C1", "C2"), rows)


def single_letter_system(i1, i2, iuv, su, sv) -> InequalitySystem:
    """Single-letter (R1, R2, C) region the intermediate system projects onto."""
    i1, i2, iuv = rationalize(i1), rationalize(i2), rationalize(iuv)
    su, sv = rationalize(su), rationalize(sv)
    rows = [
        ((1, 0, 0), GE, i1 - iuv),
        ((0, 1, 0), GE, i2 - iuv),
        ((1, 1, 0), GE, i1 + i2 - iuv),
        ((1, 0, 1), GE, su - iuv),
        ((0, 1, 1), GE, sv - iuv),
        ((1, 1, 1), GE, su + sv - iuv),
        ((1, 0, 0), GE, 0),
        ((0, 1, 0), GE, 0),
        ((0, 0, 1), GE, 0),
    ]
    return InequalitySystem.from_rows(("R1", "R2", "C"), rows)


# ---------------------------------------------------------------------------
# region reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateTriple:
    R1: float
    R2: float
    C: float

    def __post_init__(self):
        for name in ("R1", "R2", "C"):
            if getattr(self, name) < 0:
                raise InvariantError(f"{name} must be nonnegative")

    def as_dict(self) -> dict:
        return {"R1": self.R1, "R2": self.R2, "C": self.C}


@dataclass(frozen=True)
class RegionReport:
    """Named affine lower bounds over rate variables, plus their ingredients.

    constraints: tuple of (label, coefficient tuple, rhs); every row reads
    coeffs . variables >= rhs.  sources holds the entropic quantities the
    right-hand sides were assembled from.
    """
    variables: tuple
    constraints: tuple
    sources: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        rows = []
        seen = set()
        for label, coeffs, rhs in self.constraints:
            if label in seen:
                raise InvariantError(f"duplicate constraint label {label!r}")
            seen.add(label)
            if len(coeffs) != len(self.variables):
                raise InvariantError(f"constraint {label!r} has wrong arity")
            rows.append((str(label), tuple(float(c) for c in coeffs), float(rhs)))
        object.__setattr__(self, "constraints", tuple(rows))

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.variables),
            "constraints": [
                {"label": label, "coeffs": list(coeffs), "rhs": rhs}
                for label, coeffs, rhs in self.constraints
            ],
            "sources": dict(self.sources),
        }


def membership(point, report: RegionReport, tol: float = DEFAULT_TOL):
    """Check a rate point against a report; returns (inside, per-label slack)."""
    vals = point.as_dict() if isinstance(point, RateTriple) else dict(point)
    missing = [v for v in report.variables if v not in vals]
    if missing:
        raise InvariantError(f"point is missing variables {missing}")
    slacks = {}
    ok = True
    for label, coeffs, rhs in report.constraints:
        lhs = sum(c * float(vals[v]) for c, v in zip(coeffs, report.variables))
        slacks[label] = lhs - rhs
        ok = ok and (lhs >= rhs - tol)
    return ok, slacks


# ---------------------------------------------------------------------------
# region builders
# ---------------------------------------------------------------------------

def dist_deterministic_region(sigma1: CqState, sigma2: CqState,
                              sigma3: CqState) -> RegionReport:
    """Distributed simulation bounds with deterministic integration."""
    i1 = sigma1.mutual_information(("U",), ("R", "B"))
    i2 = sigma2.mutual_information(("V",), ("R", "A"))
    su = sigma3.entropy(("U",))
    sv = sigma3.entropy(("V",))
    suv = sigma3.entropy(("U", "V"))
    iuv = su + sv - suv
    return RegionReport(
        variables=("R1", "R2", "C"),
        constraints=(
            ("rate1", (1, 0, 0), i1 - iuv),
            ("rate2", (0, 1, 0), i2 - iuv),
            ("rate3", (1, 1, 0), i1 + i2 - iuv),
            ("rate1c", (1, 0, 1), suv - sv),
            ("rate2c", (0, 1, 1), suv - su),
            ("rate4", (1, 1, 1), suv),
        ),
        sources={
            "I(U;RB)": i1, "I(V;RA)": i2, "I(U;V)": iuv,
            "S(U)": su, "S(V)": sv, "S(U,V)": suv,
            "S(U|V)": suv - sv, "S(V|U)": suv - su,
        },
    )


def dist_stochastic_region(sigma1: CqState, sigma2: CqState,
                           sigma3z: CqState) -> RegionReport:
    """Distributed simulation bounds with stochastic integration.

    sigma3z carries registers (U, V, Z; R).  With Z a lossless copy of (U, V)
    the bounds coincide with the deterministic ones; with Z constant the
    common-randomness rows lose their Z dependence.
    """
    i1 = sigma1.mutual_information(("U",), ("R", "B"))
    i2 = sigma2.mutual_information(("V",), ("R", "A"))
    iuv = sigma3z.mutual_information(("U",), ("V",))
    i_urzv = sigma3z.mutual_information(("U",), ("R", "Z", "V"))
    i_vrz = sigma3z.mutual_information(("V",), ("R", "Z"))
    i_uvrz = sigma3z.mutual_information(("U", "V"), ("R", "Z"))
    return RegionReport(
        variables=("R1", "R2", "C"),
        constraints=(
            ("nfrate1", (1, 0, 0), i1 - iuv),
            ("nfrate2", (0, 1, 0), i2 - iuv),
            ("nfrate3", (1, 1, 0), i1 + i2 - iuv),
            ("nfrate1c", (1, 0, 1), i_urzv - iuv),
            ("nfrate2c", (0, 1, 1), i_vrz - iuv),
            ("nfrate4", (1, 1, 1), i_uvrz),
        ),
        sources={
            "I(U;RB)": i1, "I(V;RA)": i2, "I(U;V)": iuv,
            "I(U;RZV)": i_urzv, "I(V;RZ)": i_vrz, "I(UV;RZ)": i_uvrz,
        },
    )


def _merge_with_q(per_q: Mapping, p_q: Mapping) -> CqState:
    """Attach a time-sharing register Q, weighted by p_q, to states of one
    auxiliary_states slot, unchecked: p_q is a validated law, and they are valid."""
    first = next(iter(per_q.values()))
    live = [(q, st) for q, st in per_q.items() if p_q[q] > 0.0]
    return CqState._derived(first.cregisters + ("Q",), first.qregisters, dict(first.qdims),
                            [key + (q,) for q, st in live for key in st.blocks],
                            np.concatenate([p_q[q] * st.stack for q, st in live]), first.tol)


def rd_inner_bound(rho_AB: DensityOperator, povm_pairs: Mapping, p_q: Mapping,
                   recon: Mapping, delta: np.ndarray,
                   tol: float = DEFAULT_TOL) -> RegionReport:
    """Rate-distortion bounds for measure-and-reconstruct compression.

    ``povm_pairs`` maps each time-sharing symbol q to a pair (povm_A, povm_B)
    and ``p_q`` each of those q to its weight (probability_rows at
    t = max(tol, 1e-9), before any state is built; a weight in [-t, 0) is
    read as 0); ``recon`` maps every (u, v, q) to a reconstruction
    DensityOperator, all of one dimension (both checked before any product);
    ``delta`` is a distortion observable on reference x reconstruction, held
    to ``psd_stack`` at max(tol, 1e-9) before the reconstructions are read.
    Bounds are the three Q-conditioned rate rows and the average distortion.
    """
    unweighted = [q for q in povm_pairs if q not in p_q]
    if unweighted:
        raise InvariantError(f"no time-sharing weight for {unweighted}")
    unpaired = [q for q in p_q if q not in povm_pairs]
    if unpaired:
        raise InvariantError(f"time-sharing weight for {unpaired} has no POVM pair")
    p_q = dict(zip(povm_pairs, probability_rows(
        "time-sharing weights", [p_q[q] for q in povm_pairs], max(tol, 1e-9)).tolist()))
    delta = psd_stack("distortion observable", delta, max(tol, 1e-9))[0]

    missing = [(u, v, q) for q, (ma, mb) in povm_pairs.items()
               for u in ma.outcomes for v in mb.outcomes if (u, v, q) not in recon]
    if missing:
        raise InvariantError(f"no reconstruction state for {missing}")
    dims = sorted({s.dim for s in recon.values()})
    if len(dims) != 1:
        raise InvariantError(f"reconstruction states must share one dimension, got {dims}")
    dR, dXhat = rho_AB.dim, dims[0]
    if delta.shape != (dR * dXhat, dR * dXhat):
        raise InvariantError("distortion observable dimension mismatch")

    s1q, s2q, s3q = {}, {}, {}
    for q, (ma, mb) in povm_pairs.items():
        s1q[q], s2q[q], s3q[q] = auxiliary_states(rho_AB, ma, mb)
    sigma1 = _merge_with_q(s1q, p_q)
    sigma2 = _merge_with_q(s2q, p_q)
    sigma3 = _merge_with_q(s3q, p_q)

    i1 = sigma1.conditional_mutual_information(("U",), ("R", "B"), ("Q",))
    i2 = sigma2.conditional_mutual_information(("V",), ("R", "A"), ("Q",))
    iuv = sigma3.conditional_mutual_information(("U",), ("V",), ("Q",))

    # average distortion Tr(Delta sum_uvq blk_uvq x recon_uvq): the blocks of
    # sigma3 are p(q) Tr_AB{(I x L_u x L_v) Psi}
    recon_stack = np.array([recon[key].mat for key in sigma3.blocks])
    dval = float(np.real(np.einsum("aibj,kba,kji->", delta.reshape(dR, dXhat, dR, dXhat),
                                   sigma3.stack, recon_stack)))

    return RegionReport(
        variables=("R1", "R2", "D"),
        constraints=(
            ("rdrate1", (1, 0, 0), i1 - iuv),
            ("rdrate2", (0, 1, 0), i2 - iuv),
            ("rdrate3", (1, 1, 0), i1 + i2 - iuv),
            ("rddist", (0, 0, 1), dval),
        ),
        sources={
            "I(U;RB|Q)": i1, "I(V;RA|Q)": i2, "I(U;V|Q)": iuv,
            "distortion": dval,
        },
    )


def region_for(rho_AB: DensityOperator, d: SeparableDecomposition) -> RegionReport:
    """Build the distributed region for a decomposition, picking the bound family.

    A deterministic decomposition (``d.deterministic``) gets the
    deterministic-integration bounds, any other the Z-register form.
    """
    sigma1, sigma2, sigma3 = auxiliary_states(rho_AB, d.povm_A, d.povm_B)
    if d.deterministic:
        return dist_deterministic_region(sigma1, sigma2, sigma3)
    return dist_stochastic_region(sigma1, sigma2, stochastic_sigma3(sigma3, d))
