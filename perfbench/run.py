"""Benchmark of causalspace: three workloads, checked outputs, one JSON result.

    python3 perfbench/run.py --workload {search4,catalogue3,query3} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The last line of stdout is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json when ``--trace 0``, its per-layer
metrics when ``--trace 1``. Lines before it repeat the metrics for
reading, with ``failed_frac``. Temporary files live in ``.perfbench_out/``;
a traced run leaves its spans there as ``trace-<workload>-<seed>.json.gz``.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("search4", "catalogue3", "query3")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "causalspace" / "__init__.py").is_file():
        print("run.py: no src/causalspace next to the benchmark; run it from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from common import Run

    out_dir = ROOT / ".perfbench_out"
    tmp = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    try:
        importlib.import_module(args.workload).run(run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if run.trace:
        with gzip.open(out_dir / f"trace-{args.workload}-{args.seed}.json.gz", "wt") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "units": run.spans_out}, f)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if run.trace:
        # a layer the workload does not exercise did no work in it
        metrics = {
            m["name"]: {"value": run.metrics.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": run.metrics[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':40s} {run.failed / max(run.attempted, 1):.6g} share"
          f" ({run.failed} of {run.attempted} operations)")
    for note in run.notes:
        print(note)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
