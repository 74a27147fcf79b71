"""Regenerates ``digests.json``, the expected outputs of the n=3 catalogue.

    PYTHONPATH=src python3 perfbench/make_digests.py

Run it only at a commit whose outputs are known to be right: the benchmark
treats any output that differs from these digests as a failed operation.
Each CLI output is produced by ``causalspace.cli.main`` with the hierarchy
built once and shared, then a sample is confirmed against real CLI
processes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys

from common import BENCH_DIR, ROOT, child_env, digest

from causalspace import analysis, build_hierarchy, cli, enumerate_classes, format_hset

KINDS = {
    "classify_json": ["classify", "--format", "json"],
    "classify_text": ["classify", "--format", "text"],
    "causaltope_csv": ["causaltope", "--format", "csv"],
    "causaltope_pgm": ["causaltope", "--format", "pgm"],
}



def cli_stdout(argv: list[str]) -> bytes:
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf)
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
        out.flush()
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}")
    return buf.getvalue()


def main() -> None:
    reps, _ = enumerate_classes(3)
    hierarchy = build_hierarchy(reps, 3)
    cli._build_hierarchy = lambda num_events: hierarchy
    classes = {}
    for cid in sorted(hierarchy.nodes):
        entry = {"representative": hierarchy.nodes[cid].representative}
        for kind, (cmd, *fmt) in KINDS.items():
            entry[kind] = digest(
                cli_stdout([cmd, "--events", "3", "--class-id", str(cid), *fmt])
            )
        classes[str(cid)] = entry
    payload = {
        "hierarchy_json": digest(analysis.hierarchy_json(hierarchy).encode()),
        "hierarchy_dot": digest(analysis.hierarchy_dot(hierarchy).encode()),
        "classes": classes,
    }
    rng = random.Random(0)
    for cid in rng.sample(sorted(classes), 2):
        literal = format_hset(classes[cid]["representative"])
        checks = [
            (["classify", "--class-id", cid], "classify_json"),
            (["classify", "--class-id", cid, "--format", "text"], "classify_text"),
            (["causaltope", "--class-id", cid, "--format", "pgm"], "causaltope_pgm"),
            (["classify", "--space", literal], "classify_json"),
            (["causaltope", "--space", literal], "causaltope_csv"),
        ]
        for args, kind in checks:
            proc = subprocess.run(
                [sys.executable, "-m", "causalspace.cli", args[0], "--events", "3", *args[1:]],
                cwd=ROOT, env=child_env(ROOT), capture_output=True, check=True,
            )
            if digest(proc.stdout) != classes[cid][kind]:
                raise RuntimeError(f"CLI process output differs for {args}")
    path = BENCH_DIR / "digests.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
