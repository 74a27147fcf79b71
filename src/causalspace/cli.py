"""Command-line interface.

Subcommands:

* ``enumerate``: search for causally complete spaces, with optional
  checkpointing; writes the class representatives in the binary
  history-set format.
* ``resume``: continue a checkpointed search.
* ``classify``: report record for one equivalence class or space literal.
* ``hierarchy``: DOT or JSON export of the condensed hierarchy.
* ``causaltope``: CSV or PGM dump of a space's equation system.
* ``orders``: DOT or JSON export of the hierarchy of causal orders.

Space literals are either a decimal history-set bitvector or a bracketed
list like ``[A/0; A/1; B/0,C/1]``. Order literals follow the grammar in
``causalspace.orders`` (for example ``total(A,B)|discrete(C)``). The
environment variable ``CAUSALSPACE_STATE_DIR`` sets the default directory
for state files and exports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import analysis, causaltope, orders
from .encoding import HistorySet
from .enumerator import (
    MAX_COMPLETE_SEARCH_EVENTS,
    MAX_SEARCH_EVENTS,
    CorruptStateError,
    SpaceFinder,
    enumerate_classes,
    find_eq_classes_parallel,
    write_hsets,
)
from .spaces import Space

STATE_DIR_ENV = "CAUSALSPACE_STATE_DIR"


def _state_dir() -> Path:
    return Path(os.environ.get(STATE_DIR_ENV, "."))


def _add_common(p: argparse.ArgumentParser, formats: tuple[str, ...] = ()) -> None:
    """Shared options; the first of ``formats`` is the default."""
    p.add_argument("--events", type=int, required=True, help="number of events")
    if formats:
        p.add_argument("--format", default=formats[0], choices=formats)
    p.add_argument("--output", default=None, help="output file (default: stdout)")


def _emit(data: bytes | str, output: Optional[str]) -> None:
    if isinstance(data, str):
        data = data.encode()
    if output is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(output).write_bytes(data)


def _build_hierarchy(num_events: int) -> analysis.Hierarchy:
    if not 1 <= num_events <= MAX_COMPLETE_SEARCH_EVENTS:
        raise ValueError(
            f"--events must be 1-{MAX_COMPLETE_SEARCH_EVENTS}:"
            " this needs a complete search, which does not finish beyond"
            f" {MAX_COMPLETE_SEARCH_EVENTS} events."
        )
    classes, _ = enumerate_classes(num_events)
    return analysis.build_hierarchy(classes, num_events)


def _write_classes(classes: tuple[HistorySet, ...], args: argparse.Namespace) -> None:
    out = args.output
    if out is None:
        out = str(_state_dir() / f"classes-{args.events}.hsets")
    with open(out, "wb") as f:
        write_hsets(f, classes)


def cmd_enumerate(args: argparse.Namespace) -> int:
    if not 1 <= args.events <= MAX_SEARCH_EVENTS:
        print(f"enumerate: --events must be 1-{MAX_SEARCH_EVENTS}", file=sys.stderr)
        return 2
    state_file = args.state
    if state_file is None and args.save_period is not None:
        state_file = str(_state_dir() / f"space-finder-{args.events}.state")
    try:
        if args.parallel:
            classes, num_spaces = find_eq_classes_parallel(args.events)
            print(
                f"Found {num_spaces} spaces in {len(classes)} equivalence classes."
            )
        else:
            finder = SpaceFinder(
                args.events,
                verbose=not args.quiet,
                update_period=args.update_period,
                filename=state_file,
                save_period=args.save_period,
            )
            finder.blank_state()
            finder.find_eq_classes()
            classes = tuple(finder.iter_eq_classes)
        _write_classes(classes, args)
    except OSError as exc:
        print(f"enumerate: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    try:
        finder = SpaceFinder(
            args.events,
            verbose=not args.quiet,
            update_period=args.update_period,
            filename=args.state,
            save_period=args.save_period,
        )
        finder.load_state(args.state)
        finder.find_eq_classes()
        _write_classes(tuple(finder.iter_eq_classes), args)
    except CorruptStateError as exc:
        print(f"resume: corrupt state file: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"resume: {exc}", file=sys.stderr)
        return 1
    return 0


def _resolve_space(
    args: argparse.Namespace, hierarchy: Optional[analysis.Hierarchy]
) -> Space:
    """The space named by ``--class-id`` in ``hierarchy`` or by ``--space``."""
    if args.class_id is not None:
        if args.class_id not in hierarchy.nodes:
            raise ValueError(f"Unknown class id {args.class_id}.")
        return Space(hierarchy.nodes[args.class_id].representative)
    return Space.parse(args.space)


def cmd_classify(args: argparse.Namespace) -> int:
    try:
        hierarchy = _build_hierarchy(args.events)
        record = analysis.report(_resolve_space(args, hierarchy), hierarchy)
    except ValueError as exc:
        print(f"classify: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        _emit(json.dumps(record, indent=2, sort_keys=True) + "\n", args.output)
    else:
        lines = [f"class {record['class_id']} ({record['class_size']} spaces)"]
        lines.append("histories: " + "; ".join(record["representative_histories"]))
        if record["induced_by_order"]:
            lines.append(f"induced by: {record['induced_by_order']}")
        elif record["closest_order_coarsenings"]:
            lines.append(
                "closest order coarsenings: "
                + ", ".join(record["closest_order_coarsenings"])
            )
        lines.append("tight" if record["is_tight"] else "not tight")
        lines.append(
            f"causal functions: {record['causal_functions']}"
            f" ({record['novel_causal_functions']} novel)"
        )
        ct = record["causaltope"]
        lines.append(
            f"causaltope: dim {ct['dimension']},"
            f" {ct['independent_equations']} of {ct['equations']} equations independent"
        )
        lines.append(f"closest refinements: {record['closest_refinements']}")
        lines.append(f"closest coarsenings: {record['closest_coarsenings']}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_hierarchy(args: argparse.Namespace) -> int:
    try:
        hierarchy = _build_hierarchy(args.events)
    except ValueError as exc:
        print(f"hierarchy: {exc}", file=sys.stderr)
        return 2
    if args.format == "dot":
        _emit(analysis.hierarchy_dot(hierarchy), args.output)
    else:
        _emit(analysis.hierarchy_json(hierarchy) + "\n", args.output)
    return 0


def cmd_causaltope(args: argparse.Namespace) -> int:
    try:
        hierarchy = None if args.class_id is None else _build_hierarchy(args.events)
        system = causaltope.build_equations(_resolve_space(args, hierarchy))
        data = causaltope.dump_system(system, args.format)
    except ValueError as exc:
        print(f"causaltope: {exc}", file=sys.stderr)
        return 2
    _emit(data, args.output)
    return 0


def cmd_orders(args: argparse.Namespace) -> int:
    if not 1 <= args.events <= 4:
        print("orders: --events must be 1-4", file=sys.stderr)
        return 2
    all_orders, edges = orders.order_hierarchy(args.events)
    if args.format == "dot":
        lines = ["digraph orders {"]
        for i, o in enumerate(all_orders):
            shape = "box" if orders.is_definite(o) else "ellipse"
            lines.append(f'  "{i}" [label="{orders.format_order(o)}", shape={shape}];')
        for i, j in edges:
            lines.append(f'  "{i}" -> "{j}";')
        lines.append("}")
        _emit("\n".join(lines) + "\n", args.output)
    elif args.format == "json":
        payload = {
            "num_events": args.events,
            "orders": [orders.format_order(o) for o in all_orders],
            "covering_edges": [list(e) for e in edges],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalspace",
        description="Enumerate and analyse causally complete spaces of input histories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="search for causally complete spaces")
    _add_common(p)
    p.add_argument("--state", default=None, help="checkpoint file")
    p.add_argument("--save-period", type=int, default=None)
    p.add_argument("--update-period", type=int, default=None)
    p.add_argument("--parallel", action="store_true")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("resume", help="continue a checkpointed search")
    _add_common(p)
    p.add_argument("--state", required=True, help="checkpoint file")
    p.add_argument("--save-period", type=int, default=None)
    p.add_argument("--update-period", type=int, default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser("classify", help="report record for a class or space")
    _add_common(p, ("json", "text"))
    p.add_argument("--class-id", type=int, default=None)
    p.add_argument("--space", default=None, help="space literal")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("hierarchy", help="export the condensed hierarchy")
    _add_common(p, ("dot", "json"))
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("causaltope", help="dump a space's equation system")
    _add_common(p, ("csv", "pgm"))
    p.add_argument("--class-id", type=int, default=None)
    p.add_argument("--space", default=None, help="space literal")
    p.set_defaults(func=cmd_causaltope)

    p = sub.add_parser("orders", help="export the hierarchy of causal orders")
    _add_common(p, ("dot", "json"))
    p.set_defaults(func=cmd_orders)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "class_id", 1) is None and getattr(args, "space", 1) is None:
        parser.error("one of --class-id or --space is required")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
