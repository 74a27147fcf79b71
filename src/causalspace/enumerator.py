"""Search for equivalence classes of causally complete spaces.

The search proceeds level by level: level ``l`` chooses the input histories
with ``n - l`` events. For each set of candidate histories it iterates over
subsets of their children such that every candidate keeps at least one
child. It keeps only the join-prime histories of the partial space so far
(``winnowing``): a history stays iff its strictly smaller members, those
kept from earlier levels and the chosen children inside it, do not cover
its items. It skips partial spaces already seen up to event-input
permutation. The children chosen at level ``n - 2`` are single-event
histories, so that level emits class representatives.

A node numbers its sorted children, so a children subset is a position
whose bit ``i`` selects child ``i``, walked in binary order. Coverage is a
mask test: a position is decoded only when it meets, for every candidate,
the mask of that candidate's child indices, and a position that misses a
mask skips to the next one that sets the mask's lowest bit.

A partial space counts as seen when it was met before as it is, or else
when its canonical dense key, the smallest of its packed images under the
group (see ``symmetry``), is in a set the finder keeps beside the state, one
key per visited partial space and per class. Only the second test images
it. The state itself still holds the history sets as found, so the
checkpoint format does not depend on the packed table.

At the top level one recursive pass over the top-level histories fixes,
orbit by orbit under event-input permutations, some children choices up
front. This splits the iteration into a plan: a list of "fixed" subsets,
each paired with the "variable" children whose subsets remain to be swept.
On 2/3/4 events this shrinks the top level from 16/4096/4294967296 subsets
to 6/922/315981136. Without top-level symmetry the plan is the one built
under the trivial group: one empty fixed subset with every child variable.
The top level walks each fixed subset's variable children the same way and
sets its counters from the position.

The full search state can be serialised to a binary file and a run resumed
from it, including from the middle of a top-level subset. All multi-byte
integers are big-endian: the state is five 8-byte counters followed by four
history-set collections, each serialised as an 8-byte count and, per entry,
a 2-byte byte-length (minimum 1) followed by the entry's bytes (always the
minimal number for its value). Checkpoint files are replaced atomically.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Collection, Iterator, Sequence
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import chain, combinations
from operator import or_
from time import perf_counter
from typing import BinaryIO, Callable, Optional

from .encoding import (
    History,
    HistorySet,
    bitvec,
    child_histories,
    history_sort_key,
    is_subset,
    iter_bitvec,
    max_histories,
)
from .symmetry import PermGroupEl, PermTable, perm_table, space_orbit

MAX_SEARCH_EVENTS = 4
# precomputed permutation tables grow as n! * 2**n * 3**n; the search itself
# is only tractable up to 4 events


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

    @property
    def subsets_before(self) -> int:
        """The number of top-level subsets before the position in the plan."""
        done = self.remaining_children_list[: self.fix_child_choice_idx]
        return sum(1 << r.bit_count() for r in done) + self.var_child_subset_bitvec


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


def _write_state_atomic(state: SearchState, filename: str) -> int:
    """Writes a state to ``filename`` through a synced temporary file."""
    tmp = filename + ".tmp"
    try:
        with open(tmp, "wb") as f:
            num_bytes_written = write_state(state, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, filename)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return num_bytes_written


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
    :param use_toplevel_symmetry: when ``False``, the top-level plan is
        built under the trivial group, so the top level iterates over all
        children subsets brute-force (identical results, slower)
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

        self._table: PermTable = perm_table(num_events)
        self._max_histories = max_histories(num_events)
        self._perm_group = self._table.group
        hs = self._table.histories
        # child_histories lists children in history_sort_key order
        self._children = {h: child_histories(h) for h in hs}
        self._all_children = bitvec(
            k for h in self._max_histories for k in self._children[h]
        )
        self._max_space_size = sys.getsizeof(1 << (1 << (2 * num_events)))
        self._state: Optional[SearchState] = None
        # canonical dense keys of partial_spaces_visited and eq_classes, and
        # the partial spaces met as they are whose orbit is seen
        self._seen: set[bytes] = set()
        self._seen_spaces: set[HistorySet] = set()
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
        self._seen, self._seen_spaces = set(), set()

    def load_state(self, filename: str) -> None:
        """Loads a previously saved search state from a binary file."""
        with open(filename, "rb") as f:
            state = read_state(f)
            if f.read(1):
                raise CorruptStateError("Trailing bytes after state data.")
        self._validate_state(state)
        seen, num_spaces = self._seen_keys(state)
        if num_spaces != state.num_spaces:
            raise ValueError(
                f"State counts {state.num_spaces} spaces, but its classes"
                f" hold {num_spaces}."
            )
        self._state, self._seen = state, seen
        self._seen_spaces = {*state.partial_spaces_visited, *state.eq_classes}

    def _seen_keys(self, state: SearchState) -> tuple[set[bytes], int]:
        """The canonical dense keys of a state, and the spaces its classes hold."""
        dense_images = self._table.dense_images
        seen = {min(dense_images(iter_bitvec(s))) for s in state.partial_spaces_visited}
        num_spaces = 0
        for s in state.eq_classes:
            imgs = dense_images(iter_bitvec(s))
            seen.add(min(imgs))
            num_spaces += len(set(imgs))
        return seen, num_spaces

    def _validate_state(self, state: SearchState) -> None:
        n = self._num_events
        all_histories = bitvec(self._table.histories)
        for hs in chain(
            state.partial_spaces_visited,
            state.eq_classes,
            state.child_choices_list,
            state.remaining_children_list,
        ):
            if not is_subset(hs, all_histories):
                raise ValueError(
                    f"State holds histories outside the range of {n} events."
                )
        if state.num_todo == 0:
            if (
                state.num_done
                or state.child_choices_list
                or state.eq_classes
                or state.partial_spaces_visited
            ):
                raise ValueError("State has progress but no top-level plan.")
            return
        if n == 1:
            # a 1-event search is done in one step, so a planned state is done
            if state != self._single_event_state():
                raise ValueError("State does not describe a finished 1-event search.")
            return
        for v in chain(state.child_choices_list, state.remaining_children_list):
            if not is_subset(v, self._all_children):
                raise ValueError(
                    f"State holds top-level children not valid for {n} events."
                )
        expected_todo = sum(
            1 << r.bit_count() for r in state.remaining_children_list
        )
        num_choices = len(state.child_choices_list)
        if (
            state.num_todo != expected_todo
            or num_choices != len(state.remaining_children_list)
        ):
            raise ValueError("State counters are inconsistent with its plan.")
        idx = state.fix_child_choice_idx
        # the variable subset position may sit just past the last subset of
        # its fixed choice (resuming moves on to the next choice); past the
        # last fixed choice it is 0
        max_var_subset = (
            1 << state.remaining_children_list[idx].bit_count()
            if idx < num_choices
            else 0
        )
        if idx > num_choices or state.var_child_subset_bitvec > max_var_subset:
            raise ValueError("State subset index is out of range.")
        # in range, the position implies at most num_todo subsets done
        if state.num_done != state.subsets_before:
            raise ValueError("State subsets done disagree with its position.")

    def save_state(
        self, filename: Optional[str] = None, *, save_backup: bool = True
    ) -> int:
        """Saves the state to ``filename`` (and ``filename + ".bak"``).

        Each file is written to a temporary file beside it and then renamed
        over it, so a crash mid-write leaves the previous file intact.
        Returns the total number of bytes written.
        """
        if filename is None:
            filename = self._filename
        if filename is None:
            raise ValueError("No state filename configured.")
        state = self.state
        if state.child_choices_list:
            # the top-level position determines how many subsets were fully
            # processed; the subset in progress when saving from the middle
            # of a stream is redone on resume
            state = replace(state, num_done=state.subsets_before)
        message = [f"Saving to '{filename}'..."]
        num_bytes_written = _write_state_atomic(state, filename)
        if save_backup:
            backup = filename + ".bak"
            message.append(f"saving to '{backup}'...")
            num_bytes_written += _write_state_atomic(state, backup)
        if self._verbose:
            message.append(f"done ({memory_str(num_bytes_written)} written).")
            self._print_fn(" ".join(message))
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

    def metrics(self) -> SearchMetrics:
        """A snapshot of progress counters and resource estimates.

        The completion figures are rough estimates over top-level subsets:
        overall, over the fixed choices of the plan, and over the variable
        subsets of the current fixed choice. ``memsize`` is an upper bound
        on bytes held by the search state's collections: one maximal space
        bitvector per entry across the mutable collections, plus container
        overhead. Neither the finder's canonical dense keys beside the state
        nor its partial spaces met as they are is counted.
        """
        state = self.state
        idx = state.fix_child_choice_idx
        num_choices = len(state.child_choices_list)
        if idx < num_choices:
            num_var_subsets = 1 << state.remaining_children_list[idx].bit_count()
            var_perc = state.var_child_subset_bitvec / num_var_subsets
        else:
            var_perc = 1.0
        collections = (
            state.partial_spaces_visited,
            state.eq_classes,
            state.child_choices_list,
            state.remaining_children_list,
        )
        return SearchMetrics(
            num_spaces=state.num_spaces,
            num_eq_classes=len(state.eq_classes),
            num_done=state.num_done,
            num_todo=state.num_todo,
            perc_completed=state.num_done / state.num_todo if state.num_todo else 0.0,
            fixed_subsets_perc_completed=(
                idx / num_choices if num_choices else float(state.toplevel_ready)
            ),
            var_subsets_perc_completed=var_perc,
            time_elapsed=perf_counter() - self._start_time,
            memsize=sum(
                sys.getsizeof(c) + len(c) * self._max_space_size for c in collections
            ),
        )

    # -- status output ----------------------------------------------------

    def _print_status_header(self) -> None:
        if self._verbose:
            self._print_fn(
                f"{'time': >10} {'spaces': >12} {'eq. cls': >10}"
                f" {'memory': >10} {'completed': >10}"
                f" {'fts compl.': >10} {'vts compl.': >10}"
            )

    def _print_status_line(self) -> None:
        if self._verbose:
            m = self.metrics()
            self._print_fn(
                f"{time_str(m.time_elapsed): >10}"
                f" {m.num_spaces: >12}"
                f" {m.num_eq_classes: >10}"
                f" {memory_str(m.memsize): >10}"
                f" {m.perc_completed: >10.4%}"
                f" {m.fixed_subsets_perc_completed: >10.4%}"
                f" {m.var_subsets_perc_completed: >10.4%}"
            )

    def _describe(self) -> None:
        if self._verbose:
            self._print_fn(
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
        self._seen, _ = self._seen_keys(self.state)
        self._seen_spaces = set(self.state.eq_classes)
        self._save_state()
        self._describe()

    def iter_find_eq_classes(self) -> Iterator[HistorySet]:
        """Streams class representatives, updating the search state.

        Consuming the stream partially leaves a consistent, saveable state;
        resuming from it completes the search without repeating work.
        """
        self._start_time = perf_counter()
        self._num_eq_classes_since_last_save = 0
        if self._num_events == 1:
            yield from self._find_single_event()
            return
        for rep in self._find_eq_classes(self._max_histories):
            self._num_eq_classes_since_last_save += 1
            self._consider_saving_state()
            if (
                self._update_period is not None
                and self.num_eq_classes % self._update_period == 0
            ):
                self._print_status_line()
            yield rep

    def _single_event_state(self) -> SearchState:
        """The finished 1-event search: its one space is its one class."""
        return SearchState(1, 1, 1, eq_classes={bitvec(self._max_histories): None})

    def _find_single_event(self) -> Iterator[HistorySet]:
        # the level structure assumes histories with at least two events, so
        # the unique single-event space is emitted directly
        if self.state.toplevel_ready:
            return
        self._state = self._single_event_state()
        self._num_eq_classes_since_last_save += 1
        yield from self.state.eq_classes

    def _find_eq_classes(
        self, new_hs: Collection[History], hs: Sequence[History] = (), level: int = 0
    ) -> Iterator[HistorySet]:
        hs_so_far = tuple(chain(new_hs, hs))
        below = [
            reduce(or_, (k for k in hs_so_far if k != h and k & h == k), 0)
            for h in hs_so_far
        ]
        state = self.state
        dense_images = self._table.dense_images
        seen, seen_spaces = self._seen, self._seen_spaces
        if level == 0:
            iter_child_subsets = self._iter_child_subsets_toplevel
        else:
            iter_child_subsets = self.iter_child_subsets
        for child_subset in iter_child_subsets(new_hs):
            # a history stays iff it is join-prime: its strictly smaller
            # members, those in hs_so_far and the chosen children inside it,
            # do not cover its items
            winnowed_hs = []
            for h, cover in zip(hs_so_far, below):
                for k in child_subset:
                    if k & h == k:
                        cover |= k
                if cover != h:
                    winnowed_hs.append(h)
            partial_space = set(chain(child_subset, winnowed_hs))
            partial_space_bitvec = bitvec(partial_space)
            # seen if met as it is, or else if its orbit meets the seen
            # spaces, which is iff its canonical key is seen
            if partial_space_bitvec in seen_spaces:
                continue
            imgs = dense_images(partial_space)
            canon = min(imgs)
            if canon in seen:
                seen_spaces.add(partial_space_bitvec)
                continue
            # the children of level n - 2 are single-event histories
            if level == self._num_events - 2:
                state.num_spaces += len(set(imgs))
                state.eq_classes[partial_space_bitvec] = None
                seen.add(canon)
                seen_spaces.add(partial_space_bitvec)
                yield partial_space_bitvec
            else:
                yield from self._find_eq_classes(child_subset, winnowed_hs, level + 1)
                # marked visited only once fully explored, so a state
                # saved after an abandoned run still resumes exactly;
                # partial spaces at distinct levels can never collide
                # (their minimum member domain size pins the level)
                state.partial_spaces_visited[partial_space_bitvec] = None
                seen.add(canon)
                seen_spaces.add(partial_space_bitvec)

    # -- child subset iteration --------------------------------------------

    def iter_child_subsets(self, hs: Collection[History]) -> Iterator[set[History]]:
        """All children subsets where every history keeps at least one child."""
        child_hists = sorted(
            {k for h in hs for k in self._children[h]}, key=history_sort_key
        )
        for _, child_subset in self._child_subsets(hs, child_hists, 1):
            yield child_subset

    def _child_subsets(
        self, hs: Collection[History], child_hists: Sequence[History], start: int
    ) -> Iterator[tuple[int, set[History]]]:
        """The positions from ``start`` that give every history a child.

        Bit ``i`` of a position selects ``child_hists[i]``; each covering
        position is yielded with its decoded subset.
        """
        index = {k: i for i, k in enumerate(child_hists)}
        masks = [bitvec(index[k] for k in self._children[h] if k in index) for h in hs]
        # a zero mask is never met; a position that misses mask m skips to
        # the next one with m's lowest bit set, as none in between meets m
        if not all(masks):
            return
        end = 1 << len(child_hists)
        bits = start
        while bits < end:
            for m in masks:
                if not bits & m:
                    bits = (bits | ((m & -m) - 1)) + 1
                    break
            else:
                yield bits, {child_hists[i] for i in iter_bitvec(bits)}
                bits += 1

    def _iter_child_subsets_toplevel(
        self, hs: Sequence[History]
    ) -> Iterator[set[History]]:
        state = self.state
        if not state.toplevel_ready:
            # the identity comes first in group order, and a one-element
            # group fixes no choice: every child stays variable
            group = self._perm_group
            if not self._use_toplevel_symmetry:
                group = group[:1]
            choices, num_todo, remaining = self.opt_fix_child_choices(hs, group)
            state.num_todo = num_todo
            state.num_done = 0
            state.child_choices_list = [bitvec(c) for c in choices]
            state.remaining_children_list = [bitvec(r) for r in remaining]
            state.fix_child_choice_idx = 0
            state.var_child_subset_bitvec = 0
        if self._verbose:
            self._print_fn(
                f"Iterating over {state.num_todo} top-level child history subsets."
            )
        self._print_status_header()
        for idx in range(state.fix_child_choice_idx, len(state.child_choices_list)):
            child_choice = set(iter_bitvec(state.child_choices_list[idx]))
            remaining = iter_bitvec(state.remaining_children_list[idx])
            rem_sorted = sorted(remaining, key=history_sort_key)
            hs_to_cover = [h for h in hs if child_choice.isdisjoint(self._children[h])]
            for bits, child_subset in self._child_subsets(
                hs_to_cover, rem_sorted, state.var_child_subset_bitvec
            ):
                # the subset in progress counts as done; a save counts it undone
                state.var_child_subset_bitvec = bits
                state.num_done = state.subsets_before + 1
                yield child_subset | child_choice
                if self._update_period is None:
                    self._print_status_line()
            state.var_child_subset_bitvec = 0
            state.fix_child_choice_idx += 1
            state.num_done = state.subsets_before

    # -- top-level symmetry optimisation ------------------------------------

    def fix_child_choices(
        self,
        hs: Sequence[History],
        perm_group: Sequence[PermGroupEl],
        children_to_include: frozenset[History] = frozenset(),
        children_to_avoid: frozenset[History] = frozenset(),
    ) -> list[tuple[frozenset[History], frozenset[History]]]:
        """Fixes children choices that are redundant under symmetry.

        Recursively picks the history whose admissible children subsets
        fall into the fewest orbits under ``perm_group``, branches on one
        representative per orbit (with its stabiliser as the next group),
        and accumulates the (children to include, children to avoid) pairs.
        Recursion stops on a trivial group or exhausted histories.
        """
        if len(perm_group) == 1 or not hs:
            return [(frozenset(), frozenset())]

        best: Optional[
            tuple[History, dict[frozenset[History], list[PermGroupEl]]]
        ] = None
        hs_new_fixed = []
        for h in hs:
            h_children = self._children[h]
            must_include = children_to_include.intersection(h_children)
            orbit_reps: dict[frozenset[History], list[PermGroupEl]] = {}
            seen_imgs: set[frozenset[History]] = set()
            # h_children is sorted, so subsets come largest first and then in
            # the order of their sorted members
            subsets = chain.from_iterable(
                combinations(h_children, r) for r in range(len(h_children), 0, -1)
            )
            for ks in map(frozenset, subsets):
                if ks in seen_imgs or ks & children_to_avoid or not must_include <= ks:
                    continue
                ks_stab = []
                for g in perm_group:
                    action = self._table.action[g]
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
        # each choice meets best_h's children in exactly its ks, so no two
        # orbit representatives yield the same choice
        child_choices = []
        for ks, ks_stab in best_orbit_reps.items():
            new_include = children_to_include | ks
            new_avoid = children_to_avoid | (
                frozenset(self._children[best_h]) - ks
            )
            for rec_include, rec_avoid in self.fix_child_choices(
                new_hs, ks_stab, new_include, new_avoid
            ):
                child_choices.append((rec_include | ks, rec_avoid | new_avoid))
        return child_choices

    def opt_fix_child_choices(
        self, hs: Sequence[History], perm_group: Sequence[PermGroupEl]
    ) -> tuple[tuple[frozenset[History], ...], int, tuple[set[History], ...]]:
        """The top-level plan under ``perm_group``, in one recursive pass.

        Returns the fixed children subsets, the total number of top-level
        subsets to iterate over, and the corresponding maximal variable
        children subsets.
        """
        child_hists_set = {k for h in hs for k in self._children[h]}
        if self._verbose:
            self._print_fn(
                f"Brute-forcing complexity: {1 << len(child_hists_set)}"
                " top-level child history subsets."
            )
        fixed_choices = self.fix_child_choices(hs, perm_group)
        remaining = tuple(
            child_hists_set - (include | avoid) for include, avoid in fixed_choices
        )
        return (
            tuple(include for include, _ in fixed_choices),
            sum(1 << len(r) for r in remaining),
            remaining,
        )


def enumerate_classes(num_events: int) -> tuple[tuple[HistorySet, ...], int]:
    """Runs a blank search to completion: class representatives and space count."""
    finder = SpaceFinder(num_events, verbose=False)
    finder.blank_state()
    finder.find_eq_classes()
    return tuple(finder.iter_eq_classes), finder.num_spaces
