"""Record the reference outputs the benchmark checks at its default seed.

    python3 bench/record_reference.py [WORKLOAD ...]

Runs every op of one schedule period of each named workload (all four by
default) at run.DEFAULT_SEED and writes their outputs, with skipped columns
blanked, to bench/reference.json; workloads not named keep their entries.
Run it only on a commit whose outputs are known to be right: the benchmark
treats any later difference beyond its tolerance as a failed op.
"""
from __future__ import annotations

import json
import shutil
import sys

import run


def record(workload: str) -> dict:
    workdir = run.OUT / f"record-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli, templates, paths = run.prepare(workload, workdir)
        outputs = {}
        for block in run.schedule(workload, run.DEFAULT_SEED, templates):
            for k, op_seed in block:
                rc, text, _ = run.call_op(cli, run.argv_for(paths[k], op_seed))
                if rc != 0:
                    raise SystemExit(f"{workload}: op {k} exited {rc}")
                outputs[run.op_key(templates[k][0], op_seed)] = run.normalized(text)
        return outputs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv) -> int:
    names = argv or list(run.WORKLOADS)
    sys.path.insert(0, str(run.SRC))
    if run.REFERENCE.is_file():
        doc = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    else:
        doc = {"default_seed": run.DEFAULT_SEED, "workloads": {}}
    for name in names:
        doc["workloads"][name] = record(name)
        print(f"{name}: {len(doc['workloads'][name])} outputs", file=sys.stderr)
    doc["revision"] = run.git_revision()
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
