"""povmsim benchmark: closed-loop, in-process calls of ``povmsim.cli.main``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload as a single closed-loop client: each op is one
``cli.main`` call producing one result (one CSV row, or one JSON or text
document), and the next op starts when the previous one returns.  No thread
or process is started to generate load.  Set-up imports numpy and povmsim
from ``src/`` next to this directory, loads the fixtures, writes one config
file per op template and runs one untimed warm-up op of each template.
Between blocks of ops the timed pass runs a fixed calibration computation
that uses no povmsim code, for a tenth of the op time, and the gated op time
is relative to it: a shared host's speed can change by 60% for minutes at a
time, and the ratio cancels most of that (``NOTES.md``).

The workload seed fixes the per-op trial seeds and the op order inside each
block of templates; every output is checked (against the recorded reference
at the default seed, against seed-independent invariants otherwise).  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from stored spans with ``--trace 1``.  The line before it,
prefixed ``# record``, holds the run record (revision, versions, nproc, BLAS
threads) and figures that are not metrics, such as the throughput and the
median and tail latency in wall time.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 5
FIXTURES = ("example1", "binary-correlated")
ANALYSIS_COMMANDS = ("region", "fm-check", "covering-check", "rd-eval")

# blocks of op templates the seed schedule cycles through; the reference
# holds every op of one period at the default seed
PERIOD = {"trial-dense": 12, "trial-small": 64, "sweeps": 32, "analysis": 16}
# blocks every run completes, so the traced counters cover a fixed op list
MIN_BLOCKS = {"trial-dense": 2, "trial-small": 8, "sweeps": 4, "analysis": 4}
WORKLOADS = tuple(PERIOD)

CSV_HEADER = ("n,Rt1,Rt2,R1,R2,N1,N2,eta,delta,seed,subpovm_valid,G,"
              "collision_rate,packing_norm,runtime_ms")
CSV_FLOAT_FIELDS = frozenset({"G", "collision_rate", "packing_norm"})
JSON_FLOAT_FIELDS = frozenset({"F_A", "F_B", "F_joint"})
SKIPPED_FIELDS = frozenset({"runtime_ms"})
FLOAT_TOL = 1e-9
# acceptance criterion 1: example1's region bounds
EXAMPLE1_BOUNDS = {"rate1": 0.5, "rate2": 0.5, "rate3": 1.5,
                   "rate1c": 1.5, "rate2c": 1.5, "rate4": 3.5}
TAIL_BEYOND = 10
# share of op time the timed pass spends on the calibration computation
CALIBRATION_SHARE = 0.1


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def block_templates(workload: str, chi: float) -> list:
    """(label, config, takes_seed) for each op of one block of the workload."""
    if workload == "trial-dense":
        return [("simulate", {"input": "binary-correlated",
                              "command": "simulate", "n": 5}, True)]
    if workload == "trial-small":
        return [("simulate", {"input": "example1", "command": "simulate",
                              "n": 3}, True)]
    if workload == "sweeps":
        pack = {"input": "binary-correlated", "command": "packing-sweep",
                "n": 8, "delta": 0.3}
        coll = {"input": "binary-correlated", "command": "sweep",
                "kind": "collision", "n": 8}
        soft = {"input": "binary-correlated", "command": "sweep",
                "kind": "soft-covering", "n": 6, "delta": 0.8, "eta": 0.05}
        return [("packing-0.25", dict(pack, rate_pairs=[[0.25, 0.25]]), True),
                ("packing-0.75", dict(pack, rate_pairs=[[0.75, 0.75]]), True),
                ("collision", coll, True),
                ("collision", coll, True),
                ("soft-covering-lo", dict(soft, rate_sums=[chi - 0.4]), True),
                ("soft-covering-hi", dict(soft, rate_sums=[chi + 0.6]), True)]
    if workload == "analysis":
        return [(f"{command}/{fixture}", {"input": fixture, "command": command},
                 False)
                for fixture in FIXTURES for command in ANALYSIS_COMMANDS]
    raise ValueError(f"unknown workload {workload!r}")


def schedule(workload: str, seed: int, templates: list) -> list:
    """PERIOD[workload] blocks of (template index, op seed or None).

    The workload seed alone fixes every trial seed and the op order inside
    each block; each block holds every template once.
    """
    rng = random.Random(f"povmsim-bench:{workload}:{seed}")
    blocks = []
    for _ in range(PERIOD[workload]):
        order = list(range(len(templates)))
        rng.shuffle(order)
        blocks.append([(k, rng.randrange(2 ** 31) if templates[k][2] else None)
                       for k in order])
    return blocks


def op_key(label: str, op_seed) -> str:
    return label if op_seed is None else f"{label}|{op_seed}"


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _csv_row(text: str) -> dict:
    lines = text.splitlines()
    if len(lines) != 2 or lines[0] != CSV_HEADER:
        raise ValueError(f"expected the CSV header and one row, got {text!r}")
    cells = lines[1].split(",")
    columns = CSV_HEADER.split(",")
    if len(cells) != len(columns):
        raise ValueError(f"row has {len(cells)} cells, header {len(columns)}")
    return dict(zip(columns, cells))


def normalized(text: str) -> str:
    """The output with skipped columns blanked, as stored in the reference."""
    if not text.startswith(CSV_HEADER):
        return text
    row = _csv_row(text)
    for name in SKIPPED_FIELDS:
        row[name] = ""
    return CSV_HEADER + "\n" + ",".join(row.values()) + "\n"


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)


def _compare_json(got, want, path="") -> list:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got} "
                    f"!= {sorted(want)}"]
        errs = []
        for k in want:
            if k in JSON_FLOAT_FIELDS:
                if not (isinstance(got[k], float) and _close(got[k], want[k])):
                    errs.append(f"{path}/{k}: {got[k]!r} != {want[k]!r}")
            else:
                errs += _compare_json(got[k], want[k], f"{path}/{k}")
        return errs
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [e for i, (g, w) in enumerate(zip(got, want))
                for e in _compare_json(g, w, f"{path}[{i}]")]
    return [] if got == want and type(got) is type(want) else [
        f"{path}: {got!r} != {want!r}"]


def compare_to_reference(text: str, want: str) -> list:
    """Float result fields to FLOAT_TOL, every other field exactly."""
    if want.startswith(CSV_HEADER):
        got_row, want_row = _csv_row(text), _csv_row(want)
        errs = []
        for name, w in want_row.items():
            g = got_row[name]
            if name in SKIPPED_FIELDS:
                continue
            if name in CSV_FLOAT_FIELDS and w and g:
                if not _close(float(g), float(w)):
                    errs.append(f"{name}: {g} != {w}")
            elif g != w:
                errs.append(f"{name}: {g!r} != {w!r}")
        return errs
    if want.startswith("{"):
        return _compare_json(json.loads(text), json.loads(want))
    return [] if text == want else [f"{text!r} != {want!r}"]


def _nonneg_finite(row: dict, name: str) -> list:
    value = float(row[name])
    return [] if math.isfinite(value) and value >= 0.0 else [
        f"{name} = {row[name]} is not finite and >= 0"]


def check_invariants(label: str, config: dict, op_seed, text: str) -> list:
    """Seed-independent properties every output of a template must have."""
    command = config["command"]
    if command in ("simulate", "sweep", "packing-sweep"):
        row = _csv_row(text)
        errs = []
        if row["n"] != str(config["n"]) or row["seed"] != str(op_seed):
            errs.append(f"row echoes n={row['n']} seed={row['seed']}")
        if command == "simulate":
            errs += _nonneg_finite(row, "G")
            if row["subpovm_valid"] not in ("true", "false"):
                errs.append(f"subpovm_valid = {row['subpovm_valid']!r}")
        elif command == "packing-sweep":
            errs += _nonneg_finite(row, "packing_norm")
        elif config["kind"] == "collision":
            rate = float(row["collision_rate"])
            if not 0.0 <= rate <= 1.0:
                errs.append(f"collision_rate {rate} outside [0, 1]")
        else:
            errs += _nonneg_finite(row, "G")
        return errs
    if command == "fm-check":
        return [] if text == "EQUAL\n" else [f"fm-check printed {text!r}"]
    doc = json.loads(text)
    if command == "covering-check":
        errs = [] if doc["subadditive"] is True else ["not subadditive"]
        return errs + [f"{k} = {doc[k]!r}" for k in JSON_FLOAT_FIELDS
                       if not (math.isfinite(doc[k]) and doc[k] >= 0.0)]
    if command == "region" and config["input"] == "example1":
        bounds = {c["label"]: c["rhs"] for c in doc["constraints"]}
        return [f"{k} = {bounds.get(k)!r}, want {v}"
                for k, v in EXAMPLE1_BOUNDS.items()
                if not abs(bounds.get(k, math.inf) - v) < 1e-6]
    return [] if doc.get("constraints") else [f"{label}: no constraints"]


# ---------------------------------------------------------------------------
# set-up and the run record
# ---------------------------------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_revision() -> str:
    """HEAD's commit from .git, read as files; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_povmsim():
    """(Re)import povmsim from src/ and return its cli module."""
    for name in [m for m in sys.modules
                 if m == "povmsim" or m.startswith("povmsim.")]:
        del sys.modules[name]
    cli = importlib.import_module("povmsim.cli")
    origin = Path(sys.modules["povmsim"].__file__).resolve()
    if origin.parent.parent != SRC:
        raise RuntimeError(f"povmsim imported from {origin}, not from {SRC}")
    return cli


def prepare(workload: str, workdir: Path):
    """Import povmsim, load the fixtures and write one config per template."""
    cli = import_povmsim()
    from povmsim import fixtures, operators
    for name in FIXTURES:
        fixtures.load_fixture(name)
    chi = operators.holevo_information(fixtures.soft_covering_ensemble())
    templates = block_templates(workload, chi)
    paths = []
    for k, (label, config, _) in enumerate(templates):
        path = workdir / f"op{k}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        paths.append(str(path))
    return cli, templates, paths


def call_op(cli, argv):
    """(exit code or None on an exception, stdout text, seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:
        traceback.print_exc()
        rc = None
    return rc, buf.getvalue(), time.perf_counter() - t0


def argv_for(path: str, op_seed) -> list:
    argv = ["--input", path]
    return argv if op_seed is None else argv + ["--seed", str(op_seed)]


def make_calibration(numpy):
    """A callable that runs one pass of a fixed computation and returns its
    seconds.

    The pass uses no povmsim code: a pure-Python loop with exact fractions
    and small complex numpy linear algebra, the two kinds of work povmsim's
    ops are made of.  Timed between blocks, it measures the host's speed at
    that moment, so that op time can be given relative to it.
    """
    rng = numpy.random.default_rng(0)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    h = m + m.conj().T

    def one_pass() -> float:
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(20000):
            acc += i * i
            table[i & 255] = acc & 1023
        total = Fraction(0)
        for i in range(1, 300):
            total += Fraction(1, i)
        for _ in range(25):
            numpy.linalg.eigh(h)
            numpy.kron(h, h[:4, :4])
            h @ h
        return time.perf_counter() - t0

    return one_pass


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def typical_op_ms(times_by_label: dict) -> float:
    """Median op time; on a mixed workload the count-weighted mean of each
    template's median, because the pooled median would fall in the gap
    between two templates' times and read one template's extreme."""
    total = sum(len(v) for v in times_by_label.values())
    return 1000.0 * sum(len(v) * statistics.median(v)
                        for v in times_by_label.values()) / total


def tail(times: list):
    """(percentile, ms, op count) at the highest percentile that leaves
    TAIL_BEYOND ops beyond it, or None when there are too few ops."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, 1000.0 * sorted(times)[rank - 1], n


def layer_metrics(tracer, ops, window: set, ops_per_s: float,
                  op_time_ratio: float) -> dict:
    from spans import LAYERS, WRAPPED
    n_ops = len(ops)
    totals = tracer.span_totals(set(ops))
    counts = tracer.count_totals(window)
    n_window = len(window)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for mod, fn in WRAPPED:
        name = f"{mod}.{fn}"
        _, secs, self_s, _ = totals.get(name, (0, 0.0, 0.0, 0))
        put(f"{name}.s", secs / n_ops, "s")
        if name in ("protocol.faithfulness_trial", "cli.main"):
            put(f"{name}.self_s", self_s / n_ops, "s")
    for layer in LAYERS:
        put(f"{layer}.errors", sum(row[3] for name, row in totals.items()
                                   if name.startswith(layer + ".")), "count")
    for name in ("protocol.build_decoder.pair_tests", "protocol.cells",
                 "protocol.occupied", "protocol.collisions",
                 "protocol.matrix_side", "protocol.support_dim",
                 "protocol.typical_A", "protocol.typical_B", "protocol.L1",
                 "protocol.L2", "protocol.bins1", "protocol.bins2",
                 "typicality.typical_set.calls",
                 "typicality.sequences_enumerated",
                 "operators.eigh_desc.calls"):
        put(name, counts.get(name, 0) / n_window, "count")
    put("protocol.resum_bytes_computed",
        counts.get("protocol.resum_bytes_computed", 0) / n_window, "B")
    cells = counts.get("protocol.cells", 0)
    put("protocol.decode_useful_ratio",
        counts.get("protocol.decoded_cells", 0) / cells if cells else 0.0,
        "ratio")
    calls, repeats = tracer.typical_repeats(window)
    put("typicality.typical_set.repeat_ratio",
        repeats / calls if calls else 0.0, "ratio")
    put("trace.ops_per_s", ops_per_s, "1/s")
    put("trace.op_time_ratio", op_time_ratio, "ratio")
    put("trace.spans_per_op", sum(row[0] for row in totals.values()) / n_ops,
        "count")
    return out


def kind_breakdown(tracer, labels: dict) -> dict:
    """Per template label: ops, op seconds and each span's seconds."""
    out = {}
    for label, ops in labels.items():
        totals = tracer.span_totals(set(ops))
        out[label] = {"ops": len(ops),
                      "op_s": totals.pop("op", [0, 0.0])[1],
                      "spans": {k: [round(v[1], 6), round(v[2], 6)]
                                for k, v in sorted(totals.items())}}
    return out


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 600 or args.seed < 0:
        p.error("need 1 <= --seconds <= 600 and --seed >= 0")
    return args


def run(args) -> int:
    if not (SRC / "povmsim" / "__init__.py").is_file():
        print(f"error: no povmsim sources under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, reference["workloads"][args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, reference: dict, workdir: Path) -> int:
    # cap BLAS at the cores this process may use (OpenBLAS reads this on load)
    cores = nproc()
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(cores))
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy
    numpy_s = time.perf_counter() - t0
    repeats = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        cli, templates, paths = prepare(args.workload, workdir)
        repeats.append(time.perf_counter() - t)
    threads = blas_threads()
    if threads is not None and threads > cores:
        print(f"error: BLAS uses {threads} threads on {cores} cores",
              file=sys.stderr)
        return 2
    blocks = schedule(args.workload, args.seed, templates)
    check_reference = args.seed == DEFAULT_SEED

    attempted = failed = 0
    errors = []

    def check(k, op_seed, rc, text):
        label, config, _ = templates[k]
        errs = [f"exit code {rc}"] if rc != 0 else []
        if not errs:
            try:
                errs = check_invariants(label, config, op_seed, text)
                if check_reference:
                    errs += compare_to_reference(
                        text, reference[op_key(label, op_seed)])
                elif label in reference:
                    errs += compare_to_reference(text, reference[label])
            except (ValueError, KeyError, TypeError) as exc:
                errs = [f"unreadable output: {exc!r}"]
        return [f"{op_key(label, op_seed)}: {e}" for e in errs]

    # warm-up: the first block, untimed; the first timed block reruns it
    t = time.perf_counter()
    warm = {}
    for k, op_seed in blocks[0]:
        rc, text, _ = call_op(cli, argv_for(paths[k], op_seed))
        errs = check(k, op_seed, rc, text)
        warm[(k, op_seed)] = None if errs else normalized(text)
        errors += errs
    setup_s = numpy_s + statistics.median(repeats) + (time.perf_counter() - t)

    calibration_pass = make_calibration(numpy)
    for _ in range(3):
        calibration_pass()

    tracer = None
    clock = time.perf_counter
    if args.trace:
        import spans
        tracer = spans.Tracer(clock)
        spans.install(tracer)
        op_nid = tracer.name_id("op")

    times, labels, label_ops, cal_times = [], {}, {}, []
    op_total = cal_total = 0.0
    window = set()
    t_start = clock()
    n_blocks = 0
    while True:
        for k, op_seed in blocks[n_blocks % len(blocks)]:
            op = len(times)
            if tracer is not None:
                tracer.op = op
                span = tracer.begin(op_nid)
            rc, text, secs = call_op(cli, argv_for(paths[k], op_seed))
            if tracer is not None:
                tracer.end(span, rc != 0)
            attempted += 1
            errs = check(k, op_seed, rc, text)
            if (n_blocks == 0 and not errs
                    and normalized(text) != warm[(k, op_seed)]):
                errs.append(f"{op_key(templates[k][0], op_seed)}: "
                            "rerun of the warm-up op differs")
            if tracer is not None:
                errs += [f"op {op}: {msg}" for o, msg in tracer.violations
                         if o == op]
            if errs:
                failed += 1
                errors += errs
            times.append(secs)
            op_total += secs
            labels.setdefault(templates[k][0], []).append(secs)
            label_ops.setdefault(templates[k][0], []).append(op)
            if n_blocks < MIN_BLOCKS[args.workload]:
                window.add(op)
        n_blocks += 1
        # sample the host's speed between blocks, in proportion to op time
        while cal_total < CALIBRATION_SHARE * op_total:
            cal_times.append(calibration_pass())
            cal_total += cal_times[-1]
        if (clock() - t_start >= args.seconds
                and n_blocks >= MIN_BLOCKS[args.workload]):
            break
    elapsed = clock() - t_start
    ops_per_s = (attempted - failed) / (elapsed - cal_total)
    op_s_mean = op_total / attempted
    cal_s_mean = cal_total / len(cal_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    correct = not errors
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "revision": git_revision(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": cores, "blas_threads": threads,
        "client": "closed loop, 1 client, in-process",
        "ops": attempted, "blocks": n_blocks, "elapsed_s": elapsed,
        "fail_ratio": failed / attempted,
        "reference_checked": check_reference,
        "ops_per_s": ops_per_s,
        "op_ms_mean": 1000.0 * op_s_mean,
        "op_ms_p50": typical_op_ms(labels),
        "calibration_ms_mean": 1000.0 * cal_s_mean,
        "calibration_passes": len(cal_times),
        "op_ms_p50_by_template": {k: 1000.0 * statistics.median(v)
                                  for k, v in sorted(labels.items())},
    }
    t = tail(times)
    record["op_ms_tail"] = None if t is None else {
        "percentile": t[0], "ms": t[1], "ops": t[2]}
    if tracer is not None:
        metrics = layer_metrics(tracer, range(attempted), window, ops_per_s,
                                op_s_mean / cal_s_mean)
        record["by_template"] = kind_breakdown(tracer, label_ops)
        record["window_ops"] = len(window)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "op_time_ratio": {"value": op_s_mean / cal_s_mean,
                              "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print("# record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
