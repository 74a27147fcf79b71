"""search4: bounded n=4 searches with a checkpoint and resume in each.

First the top-level plan is made and timed to the first class, once before
the units and once after them. Seed 0 gets there from a blank state; any
other seed computes the plan with ``opt_fix_child_choices``, writes a
checkpoint at its start choice in the documented binary format and loads
it with ``load_state``.

Then, until the time is up, one unit after another: write a checkpoint at
the unit's top-level fixed children choice, load it into a fresh
``SpaceFinder``, stream ``BUDGET // 2`` classes, ``save_state``, load that
file into another fresh ``SpaceFinder`` and stream on to ``BUDGET``
classes.

Units cycle through a pool of ``POOL`` choices, ``floor(frac(k * PHI) *
732)`` for ``k < POOL``: the golden-ratio step spreads them evenly over the
732 choices, whose class rates and resume costs differ by more than 2x.
The seed picks where in the pool a run starts (seed 0: choice 0). An
untraced run visits the whole pool at least once, and the unit metrics
weigh each choice once, so runs with different seeds measure the same mix
in a different order.
"""

from __future__ import annotations

import math
import random
from statistics import fmean, median
from time import perf_counter

import oracle
import spans
from common import Run, own_rss_mb, percentile, span_metrics

import causalspace as cs

BUDGET = 100  # classes per unit, never a wall-clock cutoff
POOL = 24
PHI = (math.sqrt(5) - 1) / 2


def _pool_choice(k: int, num_choices: int) -> int:
    return int(((k % POOL) * PHI % 1.0) * num_choices)


def _pool_start(seed: int) -> int:
    return 0 if seed == 0 else random.Random(seed).randrange(POOL)


def _write_checkpoint(path, plan, choice: int) -> None:
    """Writes a search state that starts at a top-level fixed children choice.

    The documented format, written here rather than by ``write_state``:
    five 8-byte big-endian counters (spaces, subsets done, subsets to do,
    choice index, variable subset), then four history-set collections
    (visited, classes, fixed choices, variable children), each an 8-byte
    count followed per entry by a 2-byte minimal byte length and the
    big-endian bytes.
    """
    choices, num_todo, remaining = plan
    num_done = sum(1 << r.bit_count() for r in remaining[:choice])
    out = bytearray()
    for counter in (0, num_done, num_todo, choice, 0):
        out += counter.to_bytes(8, "big")
    for coll in ([], [], choices, remaining):
        out += len(coll).to_bytes(8, "big")
        for hs in coll:
            size = max((hs.bit_length() + 7) // 8, 1)
            out += size.to_bytes(2, "big") + hs.to_bytes(size, "big")
    with open(path, "wb") as f:
        f.write(out)


def _first_class(seed: int, path) -> tuple[float, tuple, int]:
    """Time from the search call to the first class, plan included."""
    start = perf_counter()
    finder = cs.SpaceFinder(4, verbose=False)
    if seed == 0:
        finder.blank_state()
    else:
        choices, num_todo, remaining = finder.opt_fix_child_choices(
            cs.max_histories(4), cs.perm_table(4).group
        )
        plan = ([cs.bitvec(c) for c in choices], num_todo, [cs.bitvec(r) for r in remaining])
        choice = _pool_choice(_pool_start(seed), len(choices))
        _write_checkpoint(path, plan, choice)
        finder.load_state(str(path))
    stream = finder.iter_find_eq_classes()
    first = next(stream)
    elapsed = perf_counter() - start
    stream.close()
    state = finder.state
    plan = (list(state.child_choices_list), state.num_todo, list(state.remaining_children_list))
    return elapsed, plan, first


def _unit(path, plan, choice: int) -> dict:
    _write_checkpoint(path, plan, choice)
    stamps, reps = [], []
    t0 = perf_counter()
    finder = cs.SpaceFinder(4, verbose=False)
    finder.load_state(str(path))
    start_done = finder.state.num_done
    stream = finder.iter_find_eq_classes()
    for rep in stream:
        stamps.append(perf_counter())
        reps.append(rep)
        if len(reps) == BUDGET // 2:
            break
    checkpoint_bytes = finder.save_state(str(path))
    stream.close()
    t_resume = perf_counter()
    finder = cs.SpaceFinder(4, verbose=False)
    finder.load_state(str(path))
    stream = finder.iter_find_eq_classes()
    for rep in stream:
        stamps.append(perf_counter())
        reps.append(rep)
        if len(reps) == BUDGET:
            break
    t_end = perf_counter()
    stream.close()
    half = BUDGET // 2
    state = finder.state
    return {
        "choice": choice,
        "reps": reps,
        "wall": t_end - t0,
        "resume": stamps[half] - t_resume if len(stamps) > half else math.inf,
        "post_first": stamps[-1] - stamps[0],
        # the gap across the save and reload is resume time, not a class gap
        "gaps": [stamps[i + 1] - stamps[i] for i in range(len(stamps) - 1) if i != half - 1],
        "num_spaces": state.num_spaces,
        "num_classes": len(state.eq_classes),
        "visited": len(state.partial_spaces_visited),
        "toplevel_done": state.num_done - start_done,
        # saved as one file plus its .bak copy
        "checkpoint_bytes": checkpoint_bytes / 2,
    }


def _check(run: Run, unit: dict, tables) -> None:
    reps = unit["reps"]
    run.check(
        len(reps) == BUDGET and unit["num_classes"] == BUDGET,
        f"unit at choice {unit['choice']}: {len(reps)} classes streamed,"
        f" {unit['num_classes']} held",
    )
    dup = oracle.duplicate_orbits(reps, tables)
    for i, rep in enumerate(reps):
        run.check(
            i not in dup and oracle.is_causally_complete(rep),
            f"class {rep} repeats an orbit or is not causally complete",
        )
    run.check(
        unit["num_spaces"] == sum(oracle.orbit_size(r, tables) for r in reps),
        f"unit at choice {unit['choice']}: space count differs from the sum of orbit sizes",
    )


def run(run: Run) -> None:
    path = run.tmp / "search4.state"
    tracer = spans.Tracer()
    if run.trace:
        spans.install(tracer)
    # the plan is timed twice, before and after the units, so that one slow
    # stretch of the host does not set time_to_first_class_s alone
    probes = []

    def probe() -> None:
        tracer.enabled = run.trace
        elapsed, plan, first = _first_class(run.seed, path)
        tracer.enabled = False
        probes.append({"elapsed": elapsed, "plan": plan, "first": first, "spans": tracer.take()})

    probe()
    plan = probes[0]["plan"]
    start = _pool_start(run.seed)
    num_choices = len(plan[0])
    units = {False: [], True: []}
    budget = run.seconds - 2 * probes[0]["elapsed"]
    # an untraced run visits the whole pool even when the host is slow
    for i in run.unit_loop(setup_events=4, seconds=budget, min_units=0 if run.trace else POOL):
        # a traced run repeats each unit traced, so the pair differs only by tracing
        traced = run.trace and i % 2 == 1
        k = i // 2 if run.trace else i
        tracer.enabled = traced
        choice = _pool_choice(start + k, num_choices)
        unit = _unit(path, plan, choice)
        tracer.enabled = False
        unit["spans"] = tracer.take()
        units[traced].append(unit)
    probe()
    rss = own_rss_mb()

    tables = oracle.group_tables(4)
    for p in probes:
        run.check(
            oracle.is_causally_complete(p["first"]) and p["plan"] == plan,
            "first class is not causally complete or the plan changed",
        )
    all_units = units[False] + units[True]
    for unit in all_units:
        _check(run, unit, tables)
    run.notes.append(f"{len(all_units)} units from choices {[u['choice'] for u in all_units]}")

    gaps = [g for u in all_units for g in u["gaps"]]
    if run.trace:
        traced_units = units[True]
        run.metrics.update(span_metrics([spans.aggregate(u["spans"]) for u in traced_units]))
        run.metrics.update({
            "enumerator.plan_s": median([
                spans.aggregate(p["spans"]).get("enumerator.plan", {}).get("time", 0.0)
                for p in probes
            ]),
            "enumerator.plan_fixed_choices": num_choices,
            "enumerator.plan_subsets": plan[1],
            "enumerator.class_gap_p50_s": percentile(gaps, 50),
            "enumerator.class_gap_p99_s": percentile(gaps, 99),
            "enumerator.spaces": median([u["num_spaces"] for u in all_units]),
            "enumerator.visited": median([u["visited"] for u in all_units]),
            "enumerator.visited_per_class": median([u["visited"] / BUDGET for u in all_units]),
            "enumerator.toplevel_done": median([u["toplevel_done"] for u in all_units]),
            "enumerator.checkpoint_bytes": median([u["checkpoint_bytes"] for u in all_units]),
            "trace.overhead_s": median([u["wall"] for u in traced_units])
            - median([u["wall"] for u in units[False]]),
        })
        run.spans_out = [p["spans"] for p in probes] + [u["spans"] for u in traced_units]
    else:
        # each pool choice counts once, repeated visits averaged first; the
        # choices differ in their work, so their values are averaged too: a
        # median would jump between neighbouring choices' values
        by_choice: dict[int, list[dict]] = {}
        for u in units[False]:
            by_choice.setdefault(u["choice"], []).append(u)

        def per_choice(key: str) -> list[float]:
            return [fmean(u[key] for u in us) for us in by_choice.values()]

        run.metrics.update(
            wall_s=fmean(per_choice("wall")),
            peak_rss_mb=rss,
            time_to_first_class_s=median([p["elapsed"] for p in probes]),
            classes_per_s=len(by_choice) * (BUDGET - 1) / sum(per_choice("post_first")),
            resume_s=fmean(per_choice("resume")),
            query_p50_s=median(gaps),
        )
