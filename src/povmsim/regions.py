"""Rate regions as exact-rational inequality systems.

Two layers live here.  The numeric layer computes named information bounds
(dist_deterministic_region, dist_stochastic_region, rd_inner_bound, picked
for a decomposition by region_for) and packages them as RegionReport values,
which membership checks rate points against.  The exact layer
(InequalitySystem, fourier_motzkin, intermediate_system,
single_letter_system) works over fractions: entropic values are quantized to
rationals at QUANT_STEP, after which projection and set comparison are exact.

The elimination keeps two redundancy filters: pairwise domination between
proportional rows, and the ancestor-count cutoff (a row combined from more
than k+1 original rows after k eliminations is implied by the others and can
be dropped).  The second filter is what makes projections of the intermediate
rate system come out irredundant rather than merely correct.
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
    deterministic_decomposition,
    stochastic_sigma3,
)
from .operators import DEFAULT_TOL, DensityOperator, hermitize, tensor

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

@dataclass(frozen=True)
class Inequality:
    """coeffs . vars  (>= or >)  rhs, with the originating row ids attached."""
    coeffs: tuple
    relation: str
    rhs: Fraction
    ancestors: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        object.__setattr__(self, "rhs", Fraction(self.rhs))
        if self.relation not in (GE, GT):
            raise InvariantError(f"relation must be {GE!r} or {GT!r}")

    def is_zero_row(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def vacuous(self) -> bool:
        if not self.is_zero_row():
            return False
        return self.rhs <= 0 if self.relation == GE else self.rhs < 0


def _canonical(ineq: Inequality) -> Inequality:
    """Scale by a positive rational so entries are coprime integers."""
    entries = list(ineq.coeffs) + [ineq.rhs]
    nonzero = [e for e in entries if e != 0]
    if not nonzero:
        return Inequality(ineq.coeffs, ineq.relation, Fraction(0), ineq.ancestors)
    lcm = 1
    for e in entries:
        lcm = math.lcm(lcm, e.denominator)
    ints = [int(e * lcm) for e in entries]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    scale = Fraction(lcm, g)
    return Inequality(
        tuple(c * scale for c in ineq.coeffs),
        ineq.relation,
        ineq.rhs * scale,
        ineq.ancestors,
    )


def _dominated_filter(rows: Iterable[Inequality]) -> list:
    """Keep, per coefficient direction, only the strongest (rhs, strictness) row.

    Ties between identical rows keep the one with the smallest ancestor set so
    later ancestor-count pruning stays as permissive as possible.
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


@dataclass(frozen=True)
class InequalitySystem:
    variables: tuple
    inequalities: tuple

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        n = len(self.variables)
        rows = tuple(self.inequalities)
        for r in rows:
            if len(r.coeffs) != n:
                raise InvariantError("coefficient vector length mismatch")
        object.__setattr__(self, "inequalities", rows)

    @classmethod
    def from_rows(cls, variables: Sequence[str], rows):
        """rows: iterables of (coeffs, relation, rhs); reals are quantized."""
        ineqs = []
        for i, (coeffs, rel, rhs) in enumerate(rows):
            ineqs.append(Inequality(
                tuple(rationalize(c) for c in coeffs),
                rel,
                rationalize(rhs),
                frozenset({i}),
            ))
        return cls(tuple(variables), tuple(ineqs))

    def canonical_rows(self) -> frozenset:
        """Irredundant canonical rows as hashable triples, for set comparison."""
        kept = _dominated_filter(r for r in self.inequalities if not r.vacuous())
        return frozenset((r.coeffs, r.relation, r.rhs) for r in kept)

    def same_region(self, other: "InequalitySystem") -> bool:
        return (self.variables == other.variables
                and self.canonical_rows() == other.canonical_rows())

def fourier_motzkin(sys: InequalitySystem, eliminate: Sequence[str]) -> InequalitySystem:
    """Project the feasible set onto the variables not in ``eliminate``.

    Exact over fractions.  Strictness propagates: a combination is strict when
    either parent is.  Redundancy control per module docstring.
    """
    eliminate = list(eliminate)
    unknown = [v for v in eliminate if v not in sys.variables]
    if unknown:
        raise InvariantError(f"cannot eliminate unknown variables {unknown}")
    rows = [Inequality(r.coeffs, r.relation, r.rhs, frozenset({i}))
            for i, r in enumerate(sys.inequalities)]
    rows = _dominated_filter(r for r in rows if not r.vacuous())
    steps = 0
    for var in eliminate:
        j = sys.variables.index(var)
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
                combos.append(Inequality(coeffs, rel, b * p.rhs + a * m.rhs,
                                         p.ancestors | m.ancestors))
        steps += 1
        merged = zer + [c for c in combos if not c.vacuous()]
        merged = [r for r in merged if len(r.ancestors) <= steps + 1]
        rows = _dominated_filter(merged)
    keep_idx = [i for i, v in enumerate(sys.variables) if v not in eliminate]
    out = []
    for r in rows:
        dropped = [r.coeffs[i] for i, v in enumerate(sys.variables) if v in eliminate]
        if any(c != 0 for c in dropped):
            raise InvariantError("eliminated variable survived projection")
        out.append(Inequality(tuple(r.coeffs[i] for i in keep_idx),
                              r.relation, r.rhs, r.ancestors))
    return InequalitySystem(tuple(sys.variables[i] for i in keep_idx),
                            tuple(_dominated_filter(out)))


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
    """Attach a time-sharing register Q to a family of identically shaped states."""
    qs = list(per_q)
    first = per_q[qs[0]]
    blocks = {}
    for q in qs:
        st = per_q[q]
        if st.cregisters != first.cregisters or st.qregisters != first.qregisters:
            raise InvariantError("per-q states disagree on register layout")
        w = float(p_q[q])
        if w < 0:
            raise InvariantError("negative time-sharing probability")
        for key, blk in st.blocks.items():
            if w > 0.0:
                blocks[key + (q,)] = w * blk
    alphabets = dict(first.alphabets)
    alphabets["Q"] = tuple(qs)
    return CqState(
        cregisters=first.cregisters + ("Q",),
        alphabets=alphabets,
        qregisters=first.qregisters,
        qdims=dict(first.qdims),
        blocks=blocks,
        tol=max(first.tol, 1e-8),
    )


def rd_inner_bound(rho_AB: DensityOperator, povm_pairs: Mapping, p_q: Mapping,
                   recon: Mapping, delta: np.ndarray,
                   tol: float = DEFAULT_TOL) -> RegionReport:
    """Rate-distortion bounds for measure-and-reconstruct compression.

    ``povm_pairs`` maps each time-sharing symbol q to a pair (povm_A, povm_B);
    ``recon`` maps (u, v, q) to a reconstruction DensityOperator; ``delta`` is
    a PSD distortion observable on reference x reconstruction.  Bounds are the
    three Q-conditioned rate rows plus the achieved average distortion.
    """
    total = float(sum(p_q[q] for q in povm_pairs))
    if abs(total - 1.0) > max(tol, 1e-9):
        raise InvariantError(f"time-sharing weights sum to {total}")
    delta = np.asarray(delta, dtype=np.complex128)
    lo = float(np.min(np.linalg.eigvalsh(hermitize(delta)))) if delta.size else 0.0
    if lo < -max(tol, 1e-9):
        raise InvariantError("distortion observable must be PSD")

    dR = rho_AB.dim
    dXhat = next(iter(recon.values())).dim
    if delta.shape != (dR * dXhat, dR * dXhat):
        raise InvariantError("distortion observable dimension mismatch")

    s1q, s2q, s3q = {}, {}, {}
    for q, (ma, mb) in povm_pairs.items():
        d = deterministic_decomposition(ma, mb)
        s1q[q], s2q[q], s3q[q] = auxiliary_states(rho_AB, d)
    sigma1 = _merge_with_q(s1q, p_q)
    sigma2 = _merge_with_q(s2q, p_q)
    sigma3 = _merge_with_q(s3q, p_q)

    i1 = sigma1.conditional_mutual_information(("U",), ("R", "B"), ("Q",))
    i2 = sigma2.conditional_mutual_information(("V",), ("R", "A"), ("Q",))
    iuv = sigma3.conditional_mutual_information(("U",), ("V",), ("Q",))

    # average distortion: blocks of sigma3 are p(q) Tr_AB{(I x L_u x L_v) Psi}
    dval = 0.0
    for (u, v, q), blk in sigma3.blocks.items():
        s = recon[(u, v, q)]
        joint = tensor(blk, s.mat)
        dval += float(np.real(np.trace(delta @ joint)))

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


def region_for(rho_AB: DensityOperator, d: SeparableDecomposition,
               stochastic: bool | None = None) -> RegionReport:
    """Build the distributed region for a decomposition, picking the bound family.

    Deterministic decompositions use the deterministic-integration bounds
    unless ``stochastic=True`` forces the Z-register form.
    """
    use_stochastic = (not d.deterministic) if stochastic is None else stochastic
    sigma1, sigma2, sigma3 = auxiliary_states(rho_AB, d)
    if not use_stochastic:
        return dist_deterministic_region(sigma1, sigma2, sigma3)
    return dist_stochastic_region(sigma1, sigma2, stochastic_sigma3(sigma3, d))
