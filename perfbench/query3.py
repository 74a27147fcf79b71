"""query3: single-class CLI queries at n=3, one fresh process each.

One unit is a pass over the query mix, in seed-shuffled order, with class
ids drawn from the seed:

* ``classify --class-id`` in json and in text;
* ``classify --space`` with a non-representative orbit member;
* ``causaltope --class-id`` in csv and in pgm;
* ``causaltope --space`` with a class representative;

with three ``resume`` runs of an n=3 search checkpointed halfway (51 of
102 classes) placed after every second query; they give ``resume_s``.
Each query's stdout must match the digest taken at the seed commit; each
resume must write the 102 classes. One closed-loop client: the next
process starts when the last has exited.
"""

from __future__ import annotations

import json
import random
import shutil
from statistics import median

import oracle
import spans
from common import (
    BENCH_DIR, Run, child_argv, child_env, digest, max_child_rss_mb, run_child,
    span_metrics,
)

import causalspace as cs

_HALF = 51



def _mix(rng: random.Random, classes: dict, tables) -> list[tuple[list[str], str, str]]:
    """(arguments, class id, digest kind) for one pass."""
    ids = sorted(classes, key=int)
    # classes whose orbit has a member other than the representative
    movable = [c for c in ids if oracle.orbit_size(classes[c]["representative"], tables) > 1]

    def pick() -> str:
        return rng.choice(ids)

    c1, c2, c3, c4, c5 = pick(), pick(), rng.choice(movable), pick(), pick()
    rep3 = classes[c3]["representative"]
    member = rng.choice([s for s in oracle.orbit(rep3, tables) if s != rep3])
    c6 = pick()
    rep6 = cs.format_hset(classes[c6]["representative"])
    queries = [
        (["classify", "--class-id", c1], c1, "classify_json"),
        (["classify", "--class-id", c2, "--format", "text"], c2, "classify_text"),
        (["classify", "--space", cs.format_hset(member)], c3, "classify_json"),
        (["causaltope", "--class-id", c4, "--format", "csv"], c4, "causaltope_csv"),
        (["causaltope", "--class-id", c5, "--format", "pgm"], c5, "causaltope_pgm"),
        (["causaltope", "--space", rep6], c6, "causaltope_csv"),
    ]
    for args, _, _ in queries:
        args[1:1] = ["--events", "3"]
    rng.shuffle(queries)
    return queries


def _read_hsets(path) -> list[int]:
    """Reads the class list format: 8-byte count, then per entry a 2-byte
    length and the bytes. Malformed data reads as no classes."""
    data = path.read_bytes()
    count, pos, out = int.from_bytes(data[:8], "big"), 8, []
    for _ in range(count):
        size = int.from_bytes(data[pos:pos + 2], "big")
        out.append(int.from_bytes(data[pos + 2:pos + 2 + size], "big"))
        pos += 2 + size
    return out if pos == len(data) else []


def run(run: Run) -> None:
    digests = json.loads((BENCH_DIR / "digests.json").read_text())
    classes = digests["classes"]
    tables = oracle.group_tables(3)
    canon3 = {oracle.canonical(c["representative"], tables) for c in classes.values()}
    rng = random.Random(run.seed)
    env = child_env(run.tmp)

    # an n=3 search stopped halfway, for the resume query
    checkpoint = run.tmp / "half.state"
    finder = cs.SpaceFinder(3, verbose=False)
    finder.blank_state()
    stream = finder.iter_find_eq_classes()
    for _ in range(_HALF):
        next(stream)
    finder.save_state(str(checkpoint), save_backup=False)
    stream.close()

    latencies, first_bytes, resumes, walls = [], [], [], {False: [], True: []}
    traced_passes = []
    state, out = run.tmp / "resume.state", run.tmp / "resumed.hsets"
    resume_args = [
        "resume", "--events", "3", "--state", str(state), "--quiet", "--output", str(out),
    ]
    for i in run.unit_loop(setup_events=0):
        # a traced run repeats each pass traced, so the pair differs only by tracing
        traced = run.trace and i % 2 == 1
        if not traced:
            steps = _mix(rng, classes, tables)
            for pos in (6, 4, 2):
                steps.insert(pos, (resume_args, None, "resume"))
        pass_spans = []
        wall = 0.0
        for j, (args, cid, kind) in enumerate(steps):
            spans_file = run.tmp / f"q{i}-{j}.json"
            if kind == "resume":
                shutil.copyfile(checkpoint, state)
            res = run_child(child_argv(traced, spans_file, "cli", *args), env)
            wall += res.latency_s
            if kind == "resume":
                resumed = _read_hsets(out) if res.returncode == 0 and out.exists() else []
                out.unlink(missing_ok=True)
                ok = (res.returncode == 0 and res.stdout == b"" and len(resumed) == 102
                      and {oracle.canonical(r, tables) for r in resumed} == canon3)
                what = f"resume from halfway: exit {res.returncode}, {len(resumed)} classes"
            else:
                ok = res.returncode == 0 and digest(res.stdout) == classes[cid][kind]
                what = f"{' '.join(args)}: exit {res.returncode}"
            run.check(ok, what)
            run.setup_tick(0)
            if traced:
                child_spans = json.loads(spans_file.read_text())
                pass_spans.append((res.latency_s, child_spans, kind != "resume"))
            elif kind == "resume":
                resumes.append(res.latency_s)
            else:
                latencies.append(res.latency_s)
                first_bytes.append(res.first_byte_s)
        if traced:
            traced_passes.append(pass_spans)
        walls[traced].append(wall)
    rss = max_child_rss_mb()

    if run.trace:
        aggs, rebuild, total = [], 0.0, 0.0
        for pass_spans in traced_passes:
            merged = {}
            for latency, child, per_class in pass_spans:
                agg = spans.aggregate(child)
                if per_class:
                    total += latency
                    rebuild += sum(
                        agg.get(n, {}).get("time", 0.0)
                        for n in ("enumerator.find_eq_classes", "analysis.build_hierarchy")
                    )
                for name, entry in agg.items():
                    m = merged.setdefault(name, {"calls": 0, "time": 0.0, "self": 0.0})
                    for key in m:
                        m[key] += entry[key]
            aggs.append(merged)
        run.metrics.update(span_metrics(aggs))
        run.metrics["cli.rebuild_share"] = rebuild / total
        run.metrics["trace.overhead_s"] = median(walls[True]) - median(walls[False])
        run.spans_out = [[child for _, child, _ in p] for p in traced_passes]
    else:
        run.metrics.update(
            wall_s=median(walls[False]),
            peak_rss_mb=rss,
            time_to_first_class_s=median(first_bytes),
            classes_per_s=(len(latencies) - 1) / sum(latencies[1:]),
            resume_s=median(resumes),
            query_p50_s=median(latencies),
        )
