"""Faithful simulation of distributed quantum measurements.

Rate regions for separable measurement decompositions, exact
Fourier-Motzkin projection of the pre-elimination constraint set,
finite-blocklength random-coding protocol trials with faithfulness and
resummation checks, and Monte-Carlo packing / soft-covering experiments.
"""
from .errors import CapExceededError, InvariantError
from .measurement import (CqState, SeparableDecomposition,
                          compose_decomposition, deterministic_decomposition,
                          faithfulness_distance)
from .operators import (DensityOperator, Ensemble, Povm, SubPovm, partial_trace,
                        purify)
from .protocol import (ProtocolParams, TrialReport, binning_collision_rate,
                       error_split, faithfulness_trial, mutual_covering_check,
                       packing_norm_trial, soft_covering_trial)
from .regions import (RateTriple, RegionReport, fourier_motzkin,
                      intermediate_system, membership, rd_inner_bound,
                      region_for, single_letter_system)
from .typicality import (ProjectorBundle, TypicalSet, build_projector_bundle,
                         pruned_distribution, typical_set)

__all__ = [
    "CapExceededError", "InvariantError",
    "CqState", "SeparableDecomposition", "compose_decomposition",
    "deterministic_decomposition", "faithfulness_distance",
    "DensityOperator", "Ensemble", "Povm", "SubPovm", "partial_trace", "purify",
    "ProtocolParams", "TrialReport", "binning_collision_rate", "error_split",
    "faithfulness_trial", "mutual_covering_check", "packing_norm_trial",
    "soft_covering_trial",
    "RateTriple", "RegionReport", "fourier_motzkin", "intermediate_system",
    "membership", "rd_inner_bound", "region_for", "single_letter_system",
    "ProjectorBundle", "TypicalSet", "build_projector_bundle",
    "pruned_distribution", "typical_set",
]
