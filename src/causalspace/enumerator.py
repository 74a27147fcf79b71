"""Search for equivalence classes of causally complete spaces.

The search proceeds level by level: level ``l`` chooses the input histories
with ``n - l`` events. For each set of candidate histories it iterates over
subsets of their children such that every candidate keeps at least one
child, discards candidates whose items are fully covered by discovered
sub-histories (``winnowing``, since such candidates cannot be join-prime),
skips partial spaces already seen up to event-input permutation, and emits
a representative when only single-event children remain.

At the top level the subset iteration is optionally symmetry-optimised:
event-input permutations fix some children choices up front, splitting the
iteration into a list of "fixed" subsets, each paired with the "variable"
children whose subsets remain to be swept. On 2/3/4 events this shrinks the
top level from 16/4096/4294967296 subsets to 6/922/315981136.

The full search state can be serialised to a binary file and a run resumed
from it. All multi-byte integers are big-endian: the state is five 8-byte
counters followed by four history-set collections, each serialised as an
8-byte count and, per entry, a 2-byte byte-length (minimum 1) followed by
the entry's bytes (always the minimal number for its value).
"""

from __future__ import annotations

import sys
from collections.abc import Collection, Iterator, Sequence, Set
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from time import perf_counter
from typing import BinaryIO, Callable, Optional

from .encoding import (
    History,
    HistorySet,
    bitvec,
    child_histories,
    domsize,
    history_sort_key,
    is_subset,
    iter_bitvec,
    max_histories,
    parents,
    sub,
    sub_histories,
)
from .symmetry import PermGroupEl, PermTable, canonical_rep, perm_table, space_orbit

MAX_SEARCH_EVENTS = 4
# precomputed permutation tables grow as n! * 2**n * 3**n; the search itself
# is only tractable up to 4 events
MAX_COMPLETE_SEARCH_EVENTS = 3
# a search run to completion is desk-scale up to 3 events; at 4 it has
# 315981136 top-level subsets and runs only as a checkpointed search


class CorruptStateError(Exception):
    """A state file does not follow the binary checkpoint format."""


def write_hsets(f: BinaryIO, hsets: Collection[HistorySet]) -> int:
    """Writes a collection of history sets to a binary file.

    Returns the number of bytes written.
    """
    f.write(len(hsets).to_bytes(8, byteorder="big"))
    num_bytes_written = 8
    for hs in hsets:
        num_bytes = max((hs.bit_length() + 7) // 8, 1)
        f.write(num_bytes.to_bytes(2, byteorder="big"))
        f.write(hs.to_bytes(num_bytes, byteorder="big"))
        num_bytes_written += num_bytes + 2
    return num_bytes_written


def read_hsets(f: BinaryIO) -> list[HistorySet]:
    """Reads back a collection of history sets written by ``write_hsets``."""
    count = int.from_bytes(_read_exact(f, 8), byteorder="big")
    out = []
    for _ in range(count):
        num_bytes = int.from_bytes(_read_exact(f, 2), byteorder="big")
        hs = int.from_bytes(_read_exact(f, num_bytes), byteorder="big")
        if max((hs.bit_length() + 7) // 8, 1) != num_bytes:
            raise CorruptStateError(
                f"History set {hs} declared with non-minimal length {num_bytes}."
            )
        out.append(hs)
    return out


def _read_exact(f: BinaryIO, size: int) -> bytes:
    data = f.read(size)
    if len(data) != size:
        raise CorruptStateError("Unexpected end of state data.")
    return data


@dataclass
class SearchState:
    """Everything the search mutates, in serialisation order.

    ``partial_spaces_visited`` and ``eq_classes`` are insertion-ordered
    mappings used as sets, so that serialisation round-trips byte-exactly
    and iteration follows discovery order.
    """

    num_spaces: int = 0
    num_done: int = 0
    num_todo: int = 0
    fix_child_choice_idx: int = 0
    var_child_subset_bitvec: int = 0
    partial_spaces_visited: dict[HistorySet, None] = field(default_factory=dict)
    eq_classes: dict[HistorySet, None] = field(default_factory=dict)
    child_choices_list: list[HistorySet] = field(default_factory=list)
    remaining_children_list: list[HistorySet] = field(default_factory=list)

    @property
    def toplevel_ready(self) -> bool:
        """Whether the top-level subset plan has been computed or loaded."""
        return self.num_todo > 0


def write_state(state: SearchState, f: BinaryIO) -> int:
    """Serialises a search state; returns the number of bytes written."""
    for counter in (
        state.num_spaces,
        state.num_done,
        state.num_todo,
        state.fix_child_choice_idx,
        state.var_child_subset_bitvec,
    ):
        f.write(counter.to_bytes(8, byteorder="big"))
    num_bytes_written = 40
    num_bytes_written += write_hsets(f, state.partial_spaces_visited)
    num_bytes_written += write_hsets(f, state.eq_classes)
    num_bytes_written += write_hsets(f, state.child_choices_list)
    num_bytes_written += write_hsets(f, state.remaining_children_list)
    return num_bytes_written


def read_state(f: BinaryIO) -> SearchState:
    """Deserialises a search state written by ``write_state``."""
    counters = [int.from_bytes(_read_exact(f, 8), byteorder="big") for _ in range(5)]
    partial = dict.fromkeys(read_hsets(f))
    classes = dict.fromkeys(read_hsets(f))
    choices = read_hsets(f)
    remaining = read_hsets(f)
    return SearchState(*counters, partial, classes, choices, remaining)


def time_str(time: float) -> str:
    """Formats a time value in seconds, for status lines."""
    if time == 0:
        return "0s"
    if time < 1e-6:
        return f"{time * 1e9:.2f}ns"
    if time < 1e-3:
        return f"{time * 1e6:.2f}us"
    if time < 1:
        return f"{time * 1e3:.2f}ms"
    if time < 60:
        return f"{time:.2f}s"
    itime = int(time)
    if itime < 3600:
        return f"{itime // 60}m{itime % 60}s"
    if itime < 86400:
        return f"{itime // 3600}h{(itime % 3600) // 60}m"
    return f"{itime // 86400}d{(itime % 86400) // 3600}h"


def memory_str(mem: int) -> str:
    """Formats a memory value in bytes, for status lines."""
    if mem < 1024:
        return f"{mem}B"
    if mem < 1024**2:
        return f"{mem / 1024:.2f}KiB"
    if mem < 1024**3:
        return f"{mem / 1024**2:.2f}MiB"
    return f"{mem / 1024**3:.2f}GiB"


def _powerset(items: Sequence) -> Iterator[tuple]:
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


@dataclass(frozen=True)
class SearchMetrics:
    """A snapshot of search progress."""

    num_spaces: int
    num_eq_classes: int
    num_done: int
    num_todo: int
    perc_completed: float
    fixed_subsets_perc_completed: float
    var_subsets_perc_completed: float
    time_elapsed: float
    memsize: int


class SpaceFinder:
    """Coordinates the search for causally complete spaces on ``n`` events.

    The constructor precomputes the permutation tables and the child/parent
    structure of all candidate histories. A search runs on an explicit
    state, initialised by ``blank_state`` or ``load_state``.

    :param num_events: number of events (the search is desk-scale up to 3,
        long-running at 4)
    :param verbose: whether to print status updates
    :param update_period: minimum number of equivalence classes between
        status lines; ``None`` prints one line per valid top-level subset
    :param filename: checkpoint file; ``None`` disables saving
    :param save_period: minimum number of equivalence classes between
        checkpoints; ``None`` saves only once, at the end
    :param use_toplevel_symmetry: when ``False``, the top level iterates
        over all children subsets brute-force (identical results, slower)
    :param print_fn: sink for status output
    """

    def __init__(
        self,
        num_events: int,
        *,
        verbose: bool = True,
        update_period: Optional[int] = None,
        filename: Optional[str] = None,
        save_period: Optional[int] = None,
        use_toplevel_symmetry: bool = True,
        print_fn: Callable[[str], None] = print,
    ) -> None:
        if not 1 <= num_events <= MAX_SEARCH_EVENTS:
            raise ValueError(
                f"Number of events must be 1-{MAX_SEARCH_EVENTS}, found {num_events}."
            )
        if update_period is not None and update_period <= 0:
            raise ValueError("update_period must be positive.")
        if save_period is not None and save_period <= 0:
            raise ValueError("save_period must be positive.")
        self._num_events = num_events
        self._verbose = verbose
        self._update_period = update_period
        self._filename = filename
        self._save_period = save_period
        self._use_toplevel_symmetry = use_toplevel_symmetry
        self._print_fn = print_fn
        self._chunk: Optional[tuple[int, int]] = None

        self._table: PermTable = perm_table(num_events)
        self._max_histories = max_histories(num_events)
        self._perm_group = self._table.group
        hs = sorted(sub_histories(self._max_histories), key=history_sort_key)
        self._histories_perm_dict = self._table.action
        self._children_set = {h: frozenset(child_histories(h)) for h in hs}
        self._children = {
            h: tuple(sorted(self._children_set[h], key=history_sort_key)) for h in hs
        }
        self._parents = parents(hs)
        self._domsize = {h: domsize(h) for h in hs}
        self._all_children = bitvec(
            k for h in self._max_histories for k in self._children[h]
        )
        self._max_space_size = sys.getsizeof(1 << (1 << (2 * num_events)))
        self._state: Optional[SearchState] = None
        self._start_time = perf_counter()
        self._num_eq_classes_since_last_save = 0

    # -- state management ------------------------------------------------

    @property
    def state(self) -> SearchState:
        if self._state is None:
            raise ValueError(
                "Search state not initialised: call blank_state() or load_state()."
            )
        return self._state

    def blank_state(self) -> None:
        """Initialises the finder for a fresh search."""
        self._state = SearchState()

    def load_state(self, filename: str) -> None:
        """Loads a previously saved search state from a binary file."""
        with open(filename, "rb") as f:
            state = read_state(f)
            if f.read(1):
                raise CorruptStateError("Trailing bytes after state data.")
        self._validate_state(state)
        self._state = state

    def _validate_state(self, state: SearchState) -> None:
        n = self._num_events
        max_history = 1 << (2 * n)
        for hs in chain(
            state.partial_spaces_visited,
            state.eq_classes,
            state.child_choices_list,
            state.remaining_children_list,
        ):
            if hs.bit_length() > max_history:
                raise ValueError(
                    f"State holds histories outside the range of {n} events."
                )
        if state.num_todo == 0:
            if state.num_done or state.child_choices_list or state.eq_classes:
                raise ValueError("State has progress but no top-level plan.")
            return
        if n == 1:
            if state.child_choices_list or state.num_todo != 1:
                raise ValueError("State does not describe a 1-event search.")
            return
        for v in chain(state.child_choices_list, state.remaining_children_list):
            if not is_subset(v, self._all_children):
                raise ValueError(
                    f"State holds top-level children not valid for {n} events."
                )
        expected_todo = sum(
            1 << r.bit_count() for r in state.remaining_children_list
        )
        if state.num_todo != expected_todo or state.num_done > state.num_todo:
            raise ValueError("State counters are inconsistent with its plan.")
        if state.fix_child_choice_idx > len(state.child_choices_list):
            raise ValueError("State subset index is out of range.")

    def save_state(
        self, filename: Optional[str] = None, *, save_backup: bool = True
    ) -> int:
        """Saves the state to ``filename`` (and ``filename + ".bak"``).

        Returns the total number of bytes written.
        """
        if filename is None:
            filename = self._filename
        if filename is None:
            raise ValueError("No state filename configured.")
        state = self.state
        if state.child_choices_list:
            # keep the completion counter consistent when saving from a
            # partially consumed stream: the top-level position determines
            # how many subsets were fully processed
            state.num_done = (
                sum(
                    1 << r.bit_count()
                    for r in state.remaining_children_list[: state.fix_child_choice_idx]
                )
                + state.var_child_subset_bitvec
            )
        num_bytes_written = 0
        message = [f"Saving to '{filename}'..."]
        with open(filename, "wb") as f:
            num_bytes_written += write_state(self.state, f)
        if save_backup:
            backup = filename + ".bak"
            message.append(f"saving to '{backup}'...")
            with open(backup, "wb") as f:
                num_bytes_written += write_state(self.state, f)
        if self._verbose:
            message.append(f"done ({memory_str(num_bytes_written)} written).")
            self._print(" ".join(message))
        return num_bytes_written

    def _save_state(self) -> None:
        if self._filename is not None:
            self.save_state(self._filename)

    def _consider_saving_state(self) -> None:
        if (
            self._filename is not None
            and self._save_period is not None
            and self._num_eq_classes_since_last_save >= self._save_period
        ):
            self._num_eq_classes_since_last_save = 0
            self._save_state()
            self._print_status_line()

    # -- read-only accessors ----------------------------------------------

    @property
    def num_events(self) -> int:
        return self._num_events

    @property
    def num_eq_classes(self) -> int:
        """Number of equivalence classes discovered so far."""
        return len(self.state.eq_classes)

    @property
    def iter_eq_classes(self) -> Iterator[HistorySet]:
        """Representatives of discovered classes, in discovery order."""
        return iter(self.state.eq_classes)

    @property
    def num_spaces(self) -> int:
        """Number of causally complete spaces discovered so far."""
        return self.state.num_spaces

    @property
    def iter_spaces(self) -> Iterator[tuple[HistorySet, HistorySet]]:
        """All discovered spaces, as (class representative, space) pairs.

        Spaces are produced by permuting each representative in group
        order, without repetition.
        """
        for rep in self.iter_eq_classes:
            for img in space_orbit(rep, self._table):
                yield rep, img

    @property
    def time_elapsed(self) -> float:
        return perf_counter() - self._start_time

    @property
    def perc_completed(self) -> float:
        """Rough completion estimate over top-level subsets."""
        state = self.state
        return state.num_done / state.num_todo if state.num_todo else 0.0

    @property
    def fixed_toplevel_subsets_perc_completed(self) -> float:
        state = self.state
        if not state.child_choices_list:
            return 1.0 if state.toplevel_ready else 0.0
        return state.fix_child_choice_idx / len(state.child_choices_list)

    @property
    def var_toplevel_subsets_perc_completed(self) -> float:
        state = self.state
        if state.fix_child_choice_idx >= len(state.child_choices_list):
            return 1.0
        remaining = state.remaining_children_list[state.fix_child_choice_idx]
        return state.var_child_subset_bitvec / (2.0 ** remaining.bit_count())

    @property
    def memsize(self) -> int:
        """Upper bound on bytes held by search collections.

        Counts one maximal space bitvector per entry across the mutable
        collections, plus container overhead.
        """
        state = self.state
        collections = (
            state.partial_spaces_visited,
            state.eq_classes,
            state.child_choices_list,
            state.remaining_children_list,
        )
        return sum(
            sys.getsizeof(c) + len(c) * self._max_space_size for c in collections
        )

    def metrics(self) -> SearchMetrics:
        """A snapshot of progress counters and resource estimates."""
        return SearchMetrics(
            num_spaces=self.num_spaces,
            num_eq_classes=self.num_eq_classes,
            num_done=self.state.num_done,
            num_todo=self.state.num_todo,
            perc_completed=self.perc_completed,
            fixed_subsets_perc_completed=self.fixed_toplevel_subsets_perc_completed,
            var_subsets_perc_completed=self.var_toplevel_subsets_perc_completed,
            time_elapsed=self.time_elapsed,
            memsize=self.memsize,
        )

    # -- status output ----------------------------------------------------

    def _print(self, line: str) -> None:
        self._print_fn(line)

    def _print_status_header(self) -> None:
        if self._verbose:
            self._print(
                f"{'time': >10} {'spaces': >12} {'eq. cls': >10}"
                f" {'memory': >10} {'completed': >10}"
                f" {'fts compl.': >10} {'vts compl.': >10}"
            )

    def _print_status_line(self) -> None:
        if self._verbose:
            line = (
                f"{time_str(self.time_elapsed): >10}"
                f" {self.num_spaces: >12}"
                f" {self.num_eq_classes: >10}"
                f" {memory_str(self.memsize): >10}"
                f" {self.perc_completed: >10.4%}"
                f" {self.fixed_toplevel_subsets_perc_completed: >10.4%}"
                f" {self.var_toplevel_subsets_perc_completed: >10.4%}"
            )
            self._print(line)

    def _describe(self) -> None:
        if self._verbose:
            self._print(
                f"Found {self.num_spaces} spaces in "
                f"{self.num_eq_classes} equivalence classes."
            )

    # -- search -----------------------------------------------------------

    def find_eq_classes(self) -> None:
        """Runs the search to completion, printing and saving as configured."""
        for _ in self.iter_find_eq_classes():
            pass
        if self._update_period is not None:
            self._print_status_line()
        self.state.partial_spaces_visited.clear()
        self._save_state()
        self._describe()

    def iter_find_eq_classes(self) -> Iterator[HistorySet]:
        """Streams class representatives, updating the search state.

        Consuming the stream partially leaves a consistent, saveable state;
        resuming from it completes the search without repeating work.
        """
        state = self.state
        self._start_time = perf_counter()
        self._num_eq_classes_since_last_save = 0
        if self._num_events == 1:
            yield from self._find_single_event()
            return
        for rep in self._find_eq_classes(self._max_histories):
            state.eq_classes[rep] = None
            self._num_eq_classes_since_last_save += 1
            if (
                self._update_period is not None
                and self.num_eq_classes % self._update_period == 0
            ):
                self._print_status_line()
            yield rep

    def _find_single_event(self) -> Iterator[HistorySet]:
        # the level structure assumes histories with at least two events, so
        # the unique single-event space is emitted directly
        state = self.state
        if state.toplevel_ready and state.num_done >= state.num_todo:
            return
        state.num_todo = 1
        space = bitvec(self._max_histories)
        state.eq_classes[space] = None
        state.num_spaces = 1
        state.num_done = 1
        self._num_eq_classes_since_last_save += 1
        yield space

    def _find_eq_classes(
        self,
        new_hs: Sequence[History],
        hs: Sequence[History] = (),
        hs_rest: Sequence[History] = (),
        level: int = 0,
    ) -> Iterator[HistorySet]:
        hs_so_far = tuple(chain(new_hs, hs))
        hs_perm_dict = self._histories_perm_dict
        state = self.state
        partial_spaces_visited = state.partial_spaces_visited
        spaces_visited = state.eq_classes
        if level == 0:
            iter_child_subsets = self._iter_child_subsets_toplevel
        else:
            iter_child_subsets = self.iter_child_subsets
        for child_subset in iter_child_subsets(new_hs):
            child_subset_sorted = sorted(child_subset, key=history_sort_key)
            hs_so_far_rest = list(chain(new_hs, hs_rest))
            for k in child_subset_sorted:
                for j, h in enumerate(hs_so_far):
                    if is_subset(k, h):
                        hs_so_far_rest[j] = sub(hs_so_far_rest[j], k)
            winnowed_hs = tuple(
                h for j, h in enumerate(hs_so_far) if hs_so_far_rest[j]
            )
            winnowed_hs_rest = tuple(h for h in hs_so_far_rest if h)
            partial_space = set(chain(child_subset_sorted, winnowed_hs))
            partial_space_bitvec = bitvec(partial_space)
            already_seen = (
                partial_space_bitvec in partial_spaces_visited
                or partial_space_bitvec in spaces_visited
            )
            eq_class: set[HistorySet] = set()
            if not already_seen:
                for g in self._perm_group:
                    g_action = hs_perm_dict[g]
                    perm_bitvec = bitvec(g_action[h] for h in partial_space)
                    eq_class.add(perm_bitvec)
                    if (
                        perm_bitvec in partial_spaces_visited
                        or perm_bitvec in spaces_visited
                    ):
                        already_seen = True
                        break
            if not already_seen:
                if all(self._domsize[h] == 1 for h in child_subset_sorted):
                    state.num_spaces += len(eq_class)
                    yield partial_space_bitvec
                else:
                    yield from self._find_eq_classes(
                        child_subset_sorted, winnowed_hs, winnowed_hs_rest, level + 1
                    )
                    # marked visited only once fully explored, so a state
                    # saved after an abandoned run still resumes exactly;
                    # partial spaces at distinct levels can never collide
                    # (their minimum member domain size pins the level)
                    partial_spaces_visited[partial_space_bitvec] = None

    # -- child subset iteration --------------------------------------------

    def iter_child_subsets(self, hs: Sequence[History]) -> Iterator[set[History]]:
        """All children subsets where every history keeps at least one child."""
        child_hists = sorted(
            {k for h in hs for k in self._children[h]}, key=history_sort_key
        )
        for subset_bits in range(1, 1 << len(child_hists)):
            child_subset = self.child_subset(hs, child_hists, subset_bits)
            if child_subset is not None:
                yield child_subset

    def child_subset(
        self,
        hs: Sequence[History],
        child_hists: Sequence[History],
        child_subset_bitvec: int,
        hs_already_covered: frozenset[History] = frozenset(),
        children_already_chosen: frozenset[History] = frozenset(),
    ) -> Optional[set[History]]:
        """Decodes a children subset, or ``None`` if coverage fails.

        The subset is the children of ``child_hists`` selected by the bits
        of ``child_subset_bitvec``, unioned with ``children_already_chosen``;
        it is returned only if every history in ``hs`` (minus those already
        covered) has at least one child in it.
        """
        hs_still_to_cover = set(hs) - hs_already_covered
        child_subset = set(children_already_chosen)
        idx = 0
        while child_subset_bitvec > 0:
            child_subset_bitvec, b = divmod(child_subset_bitvec, 2)
            if b:
                k = child_hists[idx]
                child_subset.add(k)
                if hs_still_to_cover:
                    hs_still_to_cover -= self._parents[k]
            idx += 1
        if not hs_still_to_cover:
            return child_subset
        return None

    def _toplevel_plan(
        self, hs: Sequence[History]
    ) -> tuple[tuple[frozenset[History], ...], tuple[set[History], ...]]:
        state = self.state
        if state.toplevel_ready:
            choices = tuple(
                frozenset(iter_bitvec(v)) for v in state.child_choices_list
            )
            remaining = tuple(set(iter_bitvec(v)) for v in state.remaining_children_list)
            return choices, remaining
        if self._use_toplevel_symmetry:
            choices, num_todo, remaining = self.opt_fix_child_choices(
                hs, self._perm_group
            )
        else:
            all_children = {k for h in hs for k in self._children[h]}
            choices = (frozenset(),)
            remaining = (all_children,)
            num_todo = 1 << len(all_children)
            if self._verbose:
                self._print(
                    f"Brute-forcing complexity: {num_todo}"
                    " top-level child history subsets."
                )
        state.num_todo = num_todo
        state.num_done = 0
        state.child_choices_list = [bitvec(c) for c in choices]
        state.remaining_children_list = [bitvec(r) for r in remaining]
        state.fix_child_choice_idx = 0
        state.var_child_subset_bitvec = 0
        return tuple(choices), tuple(remaining)

    def _iter_child_subsets_toplevel(
        self, hs: Sequence[History]
    ) -> Iterator[set[History]]:
        state = self.state
        choices, remaining_list = self._toplevel_plan(hs)
        if self._verbose:
            self._print(
                f"Iterating over {state.num_todo} top-level child history subsets."
            )
        self._print_status_header()
        start, stop = self._chunk or (0, len(choices))
        start = max(start, state.fix_child_choice_idx)
        state.fix_child_choice_idx = start
        for child_choice, remaining in islice(
            zip(choices, remaining_list), start, stop
        ):
            rem_sorted = sorted(remaining, key=history_sort_key)
            hs_already_covered = frozenset(
                h for h in hs if child_choice & self._children_set[h]
            )
            num_child_subsets = 1 << len(rem_sorted)
            for subset_bits in range(
                state.var_child_subset_bitvec, num_child_subsets
            ):
                child_subset = self.child_subset(
                    hs, rem_sorted, subset_bits, hs_already_covered, child_choice
                )
                state.num_done += 1
                if child_subset is not None:
                    yield child_subset
                    if self._update_period is None:
                        self._print_status_line()
                state.var_child_subset_bitvec += 1
                if child_subset is not None:
                    self._consider_saving_state()
            state.var_child_subset_bitvec = 0
            state.fix_child_choice_idx += 1

    # -- top-level symmetry optimisation ------------------------------------

    def fix_child_choices(
        self,
        hs: Sequence[History],
        perm_group: Sequence[PermGroupEl],
        children_to_include: frozenset[History] = frozenset(),
        children_to_avoid: frozenset[History] = frozenset(),
        *,
        depth: int = 0,
        max_depth: Optional[int] = None,
    ) -> list[tuple[frozenset[History], frozenset[History]]]:
        """Fixes children choices that are redundant under symmetry.

        Recursively picks the history whose admissible children subsets
        fall into the fewest orbits under ``perm_group``, branches on one
        representative per orbit (with its stabiliser as the next group),
        and accumulates the (children to include, children to avoid) pairs.
        Recursion stops on a trivial group, exhausted histories, or the
        depth cutoff.
        """
        if len(perm_group) == 1 or not hs or (
            max_depth is not None and depth > max_depth
        ):
            return [(frozenset(), frozenset())]

        def selectable(s: Set[History], must_include: Set[History]) -> bool:
            return not (s & children_to_avoid) and must_include <= s

        best: Optional[
            tuple[History, dict[frozenset[History], list[PermGroupEl]]]
        ] = None
        hs_new_fixed = []
        for h in hs:
            h_children = self._children[h]
            must_include = children_to_include & self._children_set[h]
            sel_subsets = sorted(
                (
                    s
                    for t in _powerset(h_children)
                    if selectable(s := frozenset(t), must_include)
                ),
                key=lambda s: (-len(s), sorted(s, key=history_sort_key)),
            )
            orbit_reps: dict[frozenset[History], list[PermGroupEl]] = {}
            seen_imgs: set[frozenset[History]] = set()
            for ks in sel_subsets:
                if not ks or ks in seen_imgs:
                    continue
                ks_stab = []
                for g in perm_group:
                    action = self._histories_perm_dict[g]
                    ks_img = frozenset(action[k] for k in ks)
                    if ks == ks_img:
                        ks_stab.append(g)
                    seen_imgs.add(ks_img)
                orbit_reps[ks] = ks_stab
            if len(orbit_reps) >= 1:
                if best is None or len(orbit_reps) < len(best[1]):
                    best = (h, orbit_reps)
            else:
                hs_new_fixed.append(h)
        if best is None:
            return [(frozenset(), frozenset())]
        best_h, best_orbit_reps = best
        hs_new_fixed.append(best_h)
        new_hs = tuple(h for h in hs if h not in hs_new_fixed)
        seen: set[tuple[frozenset[History], frozenset[History]]] = set()
        child_choices = []
        for ks, ks_stab in best_orbit_reps.items():
            new_include = children_to_include | ks
            new_avoid = children_to_avoid | (
                frozenset(self._children[best_h]) - ks
            )
            for rec_include, rec_avoid in self.fix_child_choices(
                new_hs,
                ks_stab,
                new_include,
                new_avoid,
                depth=depth + 1,
                max_depth=max_depth,
            ):
                choice = (rec_include | ks, rec_avoid | new_avoid)
                if choice not in seen:
                    seen.add(choice)
                    child_choices.append(choice)
        return child_choices

    def opt_fix_child_choices(
        self, hs: Sequence[History], perm_group: Sequence[PermGroupEl]
    ) -> tuple[tuple[frozenset[History], ...], int, tuple[set[History], ...]]:
        """Sweeps optimisation depths and keeps the first local minimum.

        Returns the fixed children subsets, the total number of top-level
        subsets to iterate over, and the corresponding maximal variable
        children subsets.
        """
        child_hists_set = {k for h in hs for k in self._children[h]}
        if self._verbose:
            self._print(
                f"Brute-forcing complexity: {1 << len(child_hists_set)}"
                " top-level child history subsets."
            )
            self._print(
                "Optimising top-level child history subsets"
                f" (max depth {len(hs)})."
            )
        best: Optional[
            tuple[
                list[tuple[frozenset[History], frozenset[History]]],
                int,
                list[set[History]],
            ]
        ] = None
        for max_depth in range(-1, len(hs) + 1):
            fixed_choices = self.fix_child_choices(hs, perm_group, max_depth=max_depth)
            num_todo = 0
            remaining_list = []
            for include, avoid in fixed_choices:
                remaining = child_hists_set - (include | avoid)
                num_todo += 1 << len(remaining)
                remaining_list.append(remaining)
            if best is None or num_todo <= best[1]:
                if self._verbose and max_depth >= 0:
                    self._print(
                        f"  {num_todo} subsets at optimisation depth {max_depth}"
                    )
                best = (fixed_choices, num_todo, remaining_list)
            else:
                break
        assert best is not None
        return (
            tuple(include for include, _ in best[0]),
            best[1],
            tuple(best[2]),
        )


def enumerate_classes(num_events: int) -> tuple[tuple[HistorySet, ...], int]:
    """Runs a blank search to completion: class representatives and space count."""
    finder = SpaceFinder(num_events, verbose=False)
    finder.blank_state()
    finder.find_eq_classes()
    return tuple(finder.iter_eq_classes), finder.num_spaces


def _run_chunk(args: tuple[int, int, int]) -> list[HistorySet]:
    num_events, start, stop = args
    finder = SpaceFinder(num_events, verbose=False)
    finder.blank_state()
    finder._chunk = (start, stop)
    # plan deterministically, then restrict the top level to the chunk
    return list(finder.iter_find_eq_classes())


def find_eq_classes_parallel(
    num_events: int, *, processes: int = 2
) -> tuple[tuple[HistorySet, ...], int]:
    """Deterministic parallel search over top-level chunks.

    Each worker explores a contiguous range of fixed children subsets with
    its own visited sets; results are merged in chunk order and deduplicated
    by orbit, so the final class set and space count are identical to a
    sequential run (individual representatives may differ within an orbit).
    """
    if num_events == 1:
        return enumerate_classes(1)
    planner = SpaceFinder(num_events, verbose=False)
    choices, _, _ = planner.opt_fix_child_choices(
        max_histories(num_events), planner._perm_group
    )
    num_choices = len(choices)
    processes = max(1, min(processes, num_choices))
    bounds = [
        (num_events, i * num_choices // processes, (i + 1) * num_choices // processes)
        for i in range(processes)
    ]
    if processes == 1:
        chunk_results = [_run_chunk(bounds[0])]
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            chunk_results = list(pool.map(_run_chunk, bounds))
    table = perm_table(num_events)
    seen_canon: set[HistorySet] = set()
    merged: list[HistorySet] = []
    num_spaces = 0
    for chunk in chunk_results:
        for rep in chunk:
            canon = canonical_rep(rep, table)
            if canon not in seen_canon:
                seen_canon.add(canon)
                merged.append(rep)
                num_spaces += len(space_orbit(rep, table))
    return tuple(merged), num_spaces
