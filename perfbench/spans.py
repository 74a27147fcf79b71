"""Spans recorded around calls into the program's public functions.

``install`` replaces each traced function, in its defining module and in
every module that imported it by name, with a wrapper that records a span
``[name, start, end, parent]``. Spans stay in memory until the run ends.
Per-bit helpers such as ``iter_bitvec`` are deliberately not traced: they
run about a million times per catalogue and would dominate the overhead.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, attribute or Class.method, span name)
TARGETS = (
    ("symmetry", "perm_table", "symmetry.perm_table"),
    ("symmetry", "canonical_rep", "symmetry.canonical_rep"),
    ("symmetry", "space_orbit", "symmetry.space_orbit"),
    ("enumerator", "SpaceFinder.opt_fix_child_choices", "enumerator.plan"),
    ("enumerator", "SpaceFinder.find_eq_classes", "enumerator.find_eq_classes"),
    ("enumerator", "SpaceFinder.save_state", "enumerator.save_state"),
    ("enumerator", "SpaceFinder.load_state", "enumerator.load_state"),
    ("enumerator", "enumerate_classes", "enumerator.enumerate_classes"),
    ("causaltope", "build_equations", "causaltope.build_equations"),
    ("causaltope", "rank", "causaltope.rank"),
    ("causaltope", "dump_system", "causaltope.dump_system"),
    ("spaces", "is_causally_complete", "spaces.is_causally_complete"),
    ("spaces", "tightness", "spaces.tightness"),
    ("orders", "hist_space", "orders.hist_space"),
    ("orders", "ext_hist_space", "orders.ext_hist_space"),
    ("analysis", "build_hierarchy", "analysis.build_hierarchy"),
    ("analysis", "classify_order_relation", "analysis.classify_order_relation"),
    ("analysis", "causal_function_set", "analysis.causal_function_set"),
    ("analysis", "report", "analysis.report"),
    ("analysis", "hierarchy_json", "analysis.hierarchy_json"),
    ("analysis", "hierarchy_dot", "analysis.hierarchy_dot"),
    ("cli", "cmd_classify", "cli.classify"),
    ("cli", "cmd_causaltope", "cli.causaltope"),
    ("cli", "cmd_resume", "cli.resume"),
)


class Tracer:
    """Collects spans; ``parent`` is the index of the enclosing span or -1."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.enabled = False

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return traced

    def take(self) -> list[list]:
        """Returns the spans recorded so far and starts a new list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def install(tracer: Tracer) -> list[str]:
    """Wraps every target; returns the targets the program does not define."""
    for mod_name in dict.fromkeys(m for m, _, _ in TARGETS):
        try:
            importlib.import_module(f"causalspace.{mod_name}")
        except ImportError:
            pass
    mods = [
        mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "causalspace" or name.startswith("causalspace."))
    ]
    missing = []
    for mod_name, attr, span_name in TARGETS:
        owner_name, _, fn_name = attr.rpartition(".")
        owner = sys.modules.get(f"causalspace.{mod_name}")
        if owner is not None and owner_name:
            owner = getattr(owner, owner_name, None)
        original = getattr(owner, fn_name, None)
        if original is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        wrapped = tracer.wrap(span_name, original)
        setattr(owner, fn_name, wrapped)
        if owner_name:
            continue
        # names imported with ``from module import name`` are separate bindings
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return missing


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive time (outermost spans only) and self time.

    Self time is a span's duration minus the time its direct children cover;
    children never overlap, because calls nest.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "time": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["self"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            entry["time"] += end - start
    return out
