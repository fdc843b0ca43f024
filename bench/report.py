"""Run every workload and print all its metrics, checks and trace figures.

    python3 bench/report.py [--seed N] [--seconds S] [WORKLOAD ...]

Each workload runs in fresh processes of bench/run.py, one after another:
once without tracing, then twice traced.  The report prints every
end-to-end metric by name and unit, the wall-time throughput, mean, median
and tail latency, the fail ratio, the tracing overhead (traced against
untraced ops/s and op_time_ratio), the per-layer counters, and the
attribution of op time to the layers the notes name.  It exits nonzero if
any output check fails, any run fails, or a counter of the traced run
differs between the two traced runs.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
WORKLOADS = ("trial-dense", "trial-small", "sweeps", "analysis")


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """(exit code, record dict, result dict) of one fresh run.py process."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if len(lines) < 2 or not lines[-2].startswith("# record "):
        return proc.returncode, {}, {}
    return (proc.returncode, json.loads(lines[-2][len("# record "):]),
            json.loads(lines[-1]))


def is_counter(name: str, unit: str) -> bool:
    return unit != "s" and not name.startswith("trace.")


def report(workload: str, seed: int, seconds: int, end_to_end) -> bool:
    ok = True
    rc, record, result = run_once(workload, seed, seconds, 0)
    print(f"== {workload} (seed {seed}, {seconds} s, "
          f"revision {record.get('revision')}, python {record.get('python')}, "
          f"numpy {record.get('numpy')}, nproc {record.get('nproc')}, "
          f"BLAS threads {record.get('blas_threads')})")
    if rc != 0 or not result.get("correct"):
        print(f"  FAIL untraced run: exit {rc}, correct {result.get('correct')}")
        ok = False
    metrics = result.get("metrics", {})
    for spec in end_to_end:
        m = metrics.get(spec["name"])
        value = "missing" if m is None else f"{m['value']:.6g} {m['unit']}"
        print(f"  {spec['name']:<14} {value}")
        ok &= m is not None
    for name, unit in (("ops_per_s", "1/s"), ("op_ms_mean", "ms"),
                       ("op_ms_p50", "ms"), ("calibration_ms_mean", "ms")):
        value = record.get(name)
        print(f"  {name:<14} "
              + ("missing" if value is None else f"{value:.6g} {unit}"))
    print(f"  {'fail_ratio':<14} {record.get('fail_ratio')} "
          f"({result.get('failed')} of {result.get('attempted')} ops)")
    t = record.get("op_ms_tail")
    print(f"  {'op_ms_tail':<14} " + (
        "omitted: too few ops" if t is None else
        f"{t['ms']:.6g} ms at p{t['percentile']} of {t['ops']} ops"))

    traced = [run_once(workload, seed, seconds, 1) for _ in range(2)]
    for k, (trc, _, tres) in enumerate(traced):
        if trc != 0 or not tres.get("correct"):
            print(f"  FAIL traced run {k + 1}: exit {trc}, "
                  f"correct {tres.get('correct')}")
            ok = False
    (_, rec1, res1), (_, _, res2) = traced
    layer1, layer2 = res1.get("metrics", {}), res2.get("metrics", {})
    if "ops_per_s" in record and "trace.ops_per_s" in layer1:
        ratio = layer1["trace.ops_per_s"]["value"] / record["ops_per_s"]
        print(f"  tracing overhead: traced {layer1['trace.ops_per_s']['value']:.4g}"
              f" ops/s against untraced {record['ops_per_s']:.4g}"
              f" ops/s (ratio {ratio:.3f})")
    if "op_time_ratio" in metrics and "trace.op_time_ratio" in layer1:
        traced_r = layer1["trace.op_time_ratio"]["value"]
        plain_r = metrics["op_time_ratio"]["value"]
        print(f"  tracing overhead: traced op_time_ratio {traced_r:.4g}"
              f" against untraced {plain_r:.4g}"
              f" (ratio {traced_r / plain_r:.3f})")
    differing = [name for name, m in layer1.items()
                 if is_counter(name, m["unit"])
                 and layer2.get(name, {}).get("value") != m["value"]]
    print(f"  counters over the first {rec1.get('window_ops')} ops: "
          + ("repeat exactly in both traced runs" if not differing else
             f"DIFFER between traced runs: {', '.join(differing)}"))
    ok &= not differing
    for name, m in layer1.items():
        if m["value"] and not name.endswith(".errors"):
            print(f"    {name:<42} {m['value']:.6g} {m['unit']}")
    for label, kind in sorted(rec1.get("by_template", {}).items()):
        op_s = kind["op_s"]
        top = sorted(((v[1], name) for name, v in kind["spans"].items()),
                     reverse=True)[:3]
        shares = ", ".join(f"{name} {100.0 * s / op_s:.0f}%" for s, name in top)
        print(f"  {label}: {kind['ops']} ops, largest self times {shares}")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for workload in args.workloads:
        ok &= report(workload, args.seed, seconds, spec["end_to_end"])
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
