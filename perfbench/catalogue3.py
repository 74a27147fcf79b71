"""catalogue3: the full n=3 pipeline, one fresh process per unit.

One unit: ``enumerate_classes(3)``; read the saved class list back
(``read_hsets``, the restart point); ``build_hierarchy`` on it; then per
class, in seed-shuffled order, ``report`` plus the CSV and PGM
``dump_system`` output; last ``hierarchy_json`` and ``hierarchy_dot``.
The saved class list holds a seed-chosen orbit member of each class in
seed-shuffled order; the outputs do not depend on that choice.

Every unit runs in a fresh process, as a user's pipeline would: the
program keeps process-wide caches (``ext_hset``, ``perm_table``) that
would otherwise make every unit after the first one warm. The child is
this file run as a script; it times the unit from inside and writes the
timings, the outputs' digests and, when traced, its spans as JSON.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import oracle
import spans
from common import (
    BENCH_DIR, ROOT, Run, child_env, digest, max_child_rss_mb, run_child, span_metrics,
)

import causalspace as cs



def _unit(saved: str, order: list[int]) -> dict:
    """Runs the pipeline once; digests are taken after the timed part."""
    t0 = perf_counter()
    reps, num_spaces = cs.enumerate_classes(3)
    t_resume = perf_counter()
    with open(saved, "rb") as f:
        inputs = cs.read_hsets(f)
    hierarchy = cs.build_hierarchy(inputs, 3)
    per_class = []
    stamps = []
    for cid in order:
        record = cs.report(cid, hierarchy)
        system = cs.build_equations(cs.Space(record["representative"]))
        csv, pgm = cs.dump_system(system, "csv"), cs.dump_system(system, "pgm")
        per_class.append((cid, record, csv, pgm))
        stamps.append(perf_counter())
    json_out = cs.hierarchy_json(hierarchy)
    dot_out = cs.hierarchy_dot(hierarchy)
    t_end = perf_counter()
    return {
        "wall": t_end - t0,
        "first": stamps[0] - t0,
        "resume": stamps[0] - t_resume,
        "per_class_s": stamps[-1] - stamps[0],
        "gaps": [b - a for a, b in zip(stamps, stamps[1:])],
        "reps": list(reps),
        "num_spaces": num_spaces,
        "classes": [
            {"id": cid, "record": record, "csv": digest(csv), "pgm": digest(pgm)}
            for cid, record, csv, pgm in per_class
        ],
        "json": digest(json_out.encode()),
        "dot": digest(dot_out.encode()),
    }


def _check(
    run: Run, out: dict, digests: dict, reference: dict, canon3: set, tables
) -> int:
    """Checks one unit's outputs; returns the criterion-6b mismatch count."""
    run.check(
        out["num_spaces"] == 2644
        and len(out["reps"]) == 102
        and {oracle.canonical(r, tables) for r in out["reps"]} == canon3,
        "enumerate_classes(3) does not give the 102 pinned classes and 2644 spaces",
    )
    novel_mismatches = 0
    for entry in out["classes"]:
        cid, record = entry["id"], entry["record"]
        gold = reference[cid]
        want = digests["classes"][str(cid)]
        ct = record["causaltope"]
        idents = sorted(sorted(g) for g in record["identifications"])
        run.check(
            ct["equations"] == gold["total_equations"]
            and ct["independent_equations"] == gold["independent_equations"]
            and ct["dimension"] == gold["dim"]
            and record["causal_functions"] == gold["causal_functions"]
            and record["is_tight"] == gold["tight"]
            and idents == sorted(sorted(g) for g in gold["identifications"])
            and record["closest_refinements"] == sorted(gold["closest_refinements"])
            and record["closest_coarsenings"] == sorted(gold["closest_coarsenings"])
            and entry["csv"] == want["causaltope_csv"]
            and entry["pgm"] == want["causaltope_pgm"],
            f"class {cid} record or equation dumps differ from the reference",
        )
        novel = gold["novel_causal_functions"]
        if novel is not None:
            novel_mismatches += record["novel_causal_functions"] != novel
    run.check(out["json"] == digests["hierarchy_json"], "hierarchy_json digest")
    run.check(out["dot"] == digests["hierarchy_dot"], "hierarchy_dot digest")
    return novel_mismatches


def run(run: Run) -> None:
    digests = json.loads((BENCH_DIR / "digests.json").read_text())
    reference_file = ROOT / "tests" / "data" / "catalogue3.json"
    reference = {g["id"]: g for g in json.loads(reference_file.read_text())["classes"]}
    tables = oracle.group_tables(3)
    classes = digests["classes"]
    pinned = [classes[str(i)]["representative"] for i in range(len(classes))]
    canon3 = {oracle.canonical(r, tables) for r in pinned}

    rng = random.Random(run.seed)
    inputs = [rng.choice(oracle.orbit(r, tables)) for r in pinned]
    rng.shuffle(inputs)
    order = list(range(len(pinned)))
    rng.shuffle(order)
    saved = run.tmp / "classes-3.hsets"
    with open(saved, "wb") as f:
        cs.write_hsets(f, inputs)
    order_arg = json.dumps(order)

    env = child_env(run.tmp)
    units: dict[bool, list[dict]] = {False: [], True: []}
    for i in run.unit_loop(setup_events=3):
        traced = run.trace and i % 2 == 1
        result = run.tmp / f"unit-{i}.json"
        res = run_child(
            [sys.executable, __file__, str(saved), order_arg, str(result), str(int(traced))], env
        )
        if res.returncode != 0:
            raise RuntimeError(f"catalogue unit process exited with {res.returncode}")
        units[traced].append(json.loads(result.read_text()))
    rss = max_child_rss_mb()

    for out in units[False] + units[True]:
        mismatches = _check(run, out, digests, reference, canon3, tables)
    run.notes.append(
        f"criterion 6b: {mismatches} of 101 novel-function counts differ from the reference"
    )

    plain = units[False]
    if run.trace:
        run.metrics.update(span_metrics([spans.aggregate(u["spans"]) for u in units[True]]))
        run.metrics["analysis.novel_mismatch_classes"] = mismatches
        run.metrics["trace.overhead_s"] = (
            median([u["wall"] for u in units[True]]) - median([u["wall"] for u in plain])
        )
        run.spans_out = [u["spans"] for u in units[True]]
    else:
        run.metrics.update(
            wall_s=median([u["wall"] for u in plain]),
            peak_rss_mb=rss,
            time_to_first_class_s=median([u["first"] for u in plain]),
            classes_per_s=(
                sum(len(u["gaps"]) for u in plain) / sum(u["per_class_s"] for u in plain)
            ),
            resume_s=median([u["resume"] for u in plain]),
            query_p50_s=median([g for u in plain for g in u["gaps"]]),
        )


def _child() -> None:
    saved, order_arg, result, traced = sys.argv[1:]
    tracer = spans.Tracer()
    if traced == "1":
        spans.install(tracer)
        tracer.enabled = True
    out = _unit(saved, json.loads(order_arg))
    tracer.enabled = False
    out["spans"] = tracer.take()
    Path(result).write_text(json.dumps(out))


if __name__ == "__main__":
    _child()
