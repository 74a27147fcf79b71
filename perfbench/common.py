"""Shared plumbing: paths, child processes, set-up timing, statistics, results."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Optional

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 120.0
SETUP_REPEATS = 7
SETUP_BUDGET_S = 5.0


def child_env(state_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["CAUSALSPACE_STATE_DIR"] = str(state_dir)
    return env


def digest(data: bytes) -> str:
    """Short content digest, as stored in ``digests.json``."""
    return hashlib.sha256(data).hexdigest()[:16]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


@dataclass
class ChildResult:
    returncode: int
    stdout: bytes
    latency_s: float  # launch to exit
    first_byte_s: float  # launch to the first byte on stdout (exit if none)


def run_child(argv: list[str], env: dict[str, str]) -> ChildResult:
    """Runs one child to completion, timing it from launch.

    Stdout is read as it arrives, so the time of its first byte is known.
    A child that outlives ``CHILD_TIMEOUT_S`` is killed and reported as
    failed; the call always waits for the child to end.
    """
    start = perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        fd = proc.stdout.fileno()
        chunks = []
        first = None
        while True:
            chunk = os.read(fd, 1 << 16)
            if first is None:
                first = perf_counter() - start
            if not chunk:
                break
            chunks.append(chunk)
        proc.stdout.close()
        returncode = proc.wait()
        latency = perf_counter() - start
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return ChildResult(returncode, b"".join(chunks), latency, first)


def child_argv(traced: bool, spans_file: Path, mode: str, *args: str) -> list[str]:
    """Command line of a child process.

    ``mode`` is ``setup`` (args: the event count, 0 for a bare import) or
    ``cli`` (args: the CLI arguments). Traced children go through
    ``launcher.py``, which writes their spans to ``spans_file``.
    """
    if traced:
        return [sys.executable, str(BENCH_DIR / "launcher.py"), str(spans_file), mode, *args]
    if mode == "setup":
        n = int(args[0])
        code = "import causalspace"
        if n:
            code += f"; causalspace.perm_table({n}); causalspace.SpaceFinder({n}, verbose=False)"
        return [sys.executable, "-c", code]
    return [sys.executable, "-m", "causalspace.cli", *args]


def max_child_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def own_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Run:
    """One benchmark run: its arguments and what it has measured so far."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    tmp: Path
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    spans_out: list = field(default_factory=list)
    _setup_times: list[float] = field(default_factory=list)
    _perm_table_times: list[float] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Counts one operation; a wrong output counts as a failed one."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def _setup_sample(self, num_events: int) -> None:
        """Times one fresh process doing only the set-up.

        ``num_events`` 0 means a bare ``import causalspace``; otherwise the
        import, ``perm_table(n)`` and ``SpaceFinder(n)`` construction.
        """
        spans_file = self.tmp / "setup-spans.json"
        argv = child_argv(self.trace, spans_file, "setup", str(num_events))
        res = run_child(argv, child_env(self.tmp))
        if res.returncode != 0:
            raise RuntimeError(f"set-up process exited with {res.returncode}")
        self._setup_times.append(res.latency_s)
        if self.trace:
            agg = spans.aggregate(json.loads(spans_file.read_text()))
            self._perm_table_times.append(agg.get("symmetry.perm_table", {}).get("time", 0.0))

    def setup_tick(self, num_events: int) -> None:
        """Takes one set-up sample unless there are enough.

        Enough is ``SETUP_REPEATS`` samples that together took at least
        ``SETUP_BUDGET_S``. Workloads call this between operations, so the
        samples spread over the run and a slow stretch of the host skews
        fewer of them.
        """
        if self._need_setup():
            self._setup_sample(num_events)

    def _need_setup(self) -> bool:
        return len(self._setup_times) < SETUP_REPEATS or sum(self._setup_times) < SETUP_BUDGET_S

    def unit_loop(self, setup_events: int, seconds: Optional[float] = None, min_units: int = 1):
        """Yields unit indices until the units have taken ``seconds``.

        At least ``min_units`` units run, and two when tracing, which
        alternates untraced and traced units. Set-up samples are taken after
        each unit and, if still too few, after the last; their median is
        ``setup_s``.
        """
        budget = self.seconds if seconds is None else seconds
        spent = 0.0
        i = 0
        while i < max(min_units, 1 + self.trace) or spent < budget:
            start = perf_counter()
            yield i
            spent += perf_counter() - start
            i += 1
            self.setup_tick(setup_events)
        while self._need_setup():
            self._setup_sample(setup_events)
        self.metrics["setup_s"] = median(self._setup_times)
        if self.trace:
            self.metrics["symmetry.perm_table_s"] = median(self._perm_table_times)


def span_metrics(per_unit: list[dict[str, dict[str, float]]]) -> dict[str, float]:
    """Per-layer metrics from aggregated spans, as means per traced unit."""

    def mean(name: str, key: str) -> float:
        return sum(a.get(name, {}).get(key, 0.0) for a in per_unit) / max(len(per_unit), 1)

    def per_call(name: str) -> float:
        calls = sum(a.get(name, {}).get("calls", 0) for a in per_unit)
        total = sum(a.get(name, {}).get("time", 0.0) for a in per_unit)
        return total / calls if calls else 0.0

    return {
        "symmetry.canonical_rep_calls": mean("symmetry.canonical_rep", "calls"),
        "symmetry.canonical_rep_s": mean("symmetry.canonical_rep", "time"),
        "symmetry.space_orbit_s": mean("symmetry.space_orbit", "time"),
        "enumerator.plan_s": mean("enumerator.plan", "time"),
        "enumerator.enumerate3_s": mean("enumerator.find_eq_classes", "time"),
        "enumerator.save_state_s": mean("enumerator.save_state", "time"),
        "enumerator.load_state_s": mean("enumerator.load_state", "time"),
        "causaltope.build_equations_calls": mean("causaltope.build_equations", "calls"),
        "causaltope.build_equations_s": mean("causaltope.build_equations", "time"),
        "causaltope.rank_calls": mean("causaltope.rank", "calls"),
        "causaltope.rank_s": mean("causaltope.rank", "time"),
        "causaltope.dump_s": mean("causaltope.dump_system", "time"),
        "spaces.is_causally_complete_calls": mean("spaces.is_causally_complete", "calls"),
        "spaces.is_causally_complete_s": mean("spaces.is_causally_complete", "time"),
        "spaces.tightness_s": mean("spaces.tightness", "time"),
        "orders.hist_space_s": mean("orders.hist_space", "time"),
        "orders.ext_hist_space_s": mean("orders.ext_hist_space", "time"),
        "analysis.build_hierarchy_self_s": mean("analysis.build_hierarchy", "self"),
        "analysis.classify_order_relation_calls": mean(
            "analysis.classify_order_relation", "calls"
        ),
        "analysis.classify_order_relation_s": mean("analysis.classify_order_relation", "time"),
        "analysis.causal_function_set_calls": mean("analysis.causal_function_set", "calls"),
        "analysis.causal_function_set_s": mean("analysis.causal_function_set", "time"),
        "analysis.export_s": sum(
            mean(n, "time")
            for n in ("analysis.report", "analysis.hierarchy_json", "analysis.hierarchy_dot")
        ),
        "cli.classify_s": per_call("cli.classify"),
        "cli.causaltope_s": per_call("cli.causaltope"),
    }
