"""Spans and counters for the traced benchmark run.

Wrappers from this file go around public povmsim functions under every name
a povmsim module resolves them by (``povmsim.cli.faithfulness_trial``,
``povmsim.protocol.build_projector_bundle``, ...), so calls between modules
and inside one module are both seen.  A span records its name, start, end,
parent span and op id; spans and counters stay in memory until the run ends,
when they are summarised and the spans written out.  Nothing here changes
what a wrapped function computes or returns.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys

import numpy as np

# (module, function) pairs that get a span; the metric name is "module.function"
WRAPPED = (
    ("protocol", "faithfulness_trial"),
    ("protocol", "generate_codebooks"),
    ("protocol", "build_approx_operators"),
    ("protocol", "check_sub_povm"),
    ("protocol", "generate_bin_maps"),
    ("protocol", "bin_povm"),
    ("protocol", "build_decoder"),
    ("protocol", "packing_norm_trial"),
    ("protocol", "binning_collision_rate"),
    ("protocol", "soft_covering_trial"),
    ("protocol", "mutual_covering_check"),
    ("typicality", "build_projector_bundle"),
    ("typicality", "lambda_operators"),
    ("typicality", "typical_set"),
    ("typicality", "pruned_distribution"),
    ("operators", "tensor"),
    ("operators", "trace_norm"),
    ("operators", "eigh_desc"),
    ("measurement", "compose_decomposition"),
    ("measurement", "canonical_ensemble"),
    ("measurement", "faithfulness_distance"),
    ("regions", "region_for"),
    ("regions", "fourier_motzkin"),
    ("regions", "rd_inner_bound"),
    ("serialize", "csv_text"),
    ("serialize", "dumps"),
    ("fixtures", "load_fixture"),
    ("cli", "main"),
)

LAYERS = ("protocol", "typicality", "operators", "measurement", "regions",
          "serialize", "fixtures", "cli")

# criterion 8 of the acceptance suite: the resummation residual of every trial
RESUM_LIMIT = 1e-10
BYTES_PER_ENTRY = 16  # complex128


class Tracer:
    """In-memory spans and counters of one traced run."""

    def __init__(self, clock):
        self.clock = clock
        self.names = []
        self.spans = []     # [name id, start, end, parent span, op id, failed]
        self.stack = []
        self.op = -1
        self.counts = []    # (op id, counter name, value)
        self.typical_keys = []  # (op id, key of one typical_set call)
        self.violations = []    # (op id, message)

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def begin(self, nid: int) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([nid, self.clock(), 0.0, parent, self.op, False])
        self.stack.append(idx)
        return idx

    def end(self, idx: int, failed: bool):
        span = self.spans[idx]
        span[2] = self.clock()
        span[5] = failed
        self.stack.pop()

    def count(self, name: str, value):
        self.counts.append((self.op, name, value))

    # -- summaries ---------------------------------------------------------

    def span_totals(self, ops) -> dict:
        """name -> [calls, seconds, self seconds, failures] over the given ops."""
        child = [0.0] * len(self.spans)
        for nid, t0, t1, parent, op, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        totals = {}
        for k, (nid, t0, t1, parent, op, failed) in enumerate(self.spans):
            if op not in ops:
                continue
            row = totals.setdefault(self.names[nid], [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += (t1 - t0) - child[k]
            row[3] += int(failed)
        return totals

    def count_totals(self, ops) -> dict:
        totals = {}
        for op, name, value in self.counts:
            if op in ops:
                totals[name] = totals.get(name, 0) + value
        return totals

    def typical_repeats(self, ops):
        """(calls, calls whose arguments already occurred earlier)."""
        seen = set()
        calls = repeats = 0
        for op, key in self.typical_keys:
            if op not in ops:
                continue
            calls += 1
            repeats += key in seen
            seen.add(key)
        return calls, repeats

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for nid, t0, t1, parent, op, failed in self.spans:
                fh.write(json.dumps([self.names[nid], t0, t1, parent, op,
                                     failed]) + "\n")


# -- counters taken at the layer boundaries ----------------------------------

def _count_typical_set(tracer, a, result):
    probs = np.asarray(a["probs"], dtype=float).ravel()
    alphabet = a["alphabet"]
    key = (probs.tobytes(), int(a["n"]), float(a["delta"]),
           None if alphabet is None else tuple(alphabet))
    tracer.typical_keys.append((tracer.op, key))
    tracer.count("typicality.typical_set.calls", 1)
    tracer.count("typicality.sequences_enumerated", probs.size ** int(a["n"]))


def _count_decoder(tracer, a, result):
    codebook, (bm1, bm2) = a["codebook"], a["binmaps"]
    n1, n2 = result.n_mu
    distinct_u = sum(len(set(lst)) for lst in codebook.u_lists)
    distinct_v = sum(len(set(lst)) for lst in codebook.v_lists)
    tracer.count("protocol.build_decoder.pair_tests", distinct_u * distinct_v)
    tracer.count("protocol.cells", n1 * n2 * result.bins1 * result.bins2)
    tracer.count("protocol.decoded_cells", len(result.cells))
    tracer.count("protocol.occupied", result.occupied)
    tracer.count("protocol.collisions", result.collisions)
    tracer.count("protocol.typical_A", len(bm1.typical.members))
    tracer.count("protocol.typical_B", len(bm2.typical.members))
    tracer.count("protocol.L1", len(codebook.u_lists[0]))
    tracer.count("protocol.L2", len(codebook.v_lists[0]))
    tracer.count("protocol.bins1", bm1.nbins)
    tracer.count("protocol.bins2", bm2.nbins)


def _count_trial(tracer, a, result):
    params, rho, d = a["params"], a["rho_AB"], a["d"]
    dA, dB = d.dims
    side = (dA * dB) ** params.n
    vals = np.linalg.eigvalsh(rho.mat)
    rank = int(np.sum(vals > 1e-12 * max(float(vals[-1]), 1e-300)))
    cells = params.N1 * params.N2 * params.bins1 * params.bins2
    tracer.count("protocol.matrix_side", side)
    tracer.count("protocol.support_dim", rank ** params.n)
    tracer.count("protocol.resum_bytes_computed",
                 cells * side * side * BYTES_PER_ENTRY)
    if not result.resummation_error <= RESUM_LIMIT:
        tracer.violations.append(
            (tracer.op, f"resummation_error {result.resummation_error!r} "
                        f"exceeds {RESUM_LIMIT}"))


def _count_eigh(tracer, a, result):
    tracer.count("operators.eigh_desc.calls", 1)


COUNTERS = {
    "typicality.typical_set": _count_typical_set,
    "protocol.build_decoder": _count_decoder,
    "protocol.faithfulness_trial": _count_trial,
    "operators.eigh_desc": _count_eigh,
}


def _wrap(tracer, name, fn):
    nid = tracer.name_id(name)
    counter = COUNTERS.get(name)
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(nid)
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            tracer.end(idx, failed)
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counter(tracer, bound.arguments, result)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap every WRAPPED function under each povmsim name bound to it."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "povmsim" or name.startswith("povmsim.")]
    for mod_name, fn_name in WRAPPED:
        original = getattr(sys.modules[f"povmsim.{mod_name}"], fn_name)
        traced = _wrap(tracer, f"{mod_name}.{fn_name}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
