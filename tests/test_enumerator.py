import hashlib
import io
import os
import random
import shutil
from dataclasses import replace
from itertools import chain, islice
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from causalspace import enumerator as en
from causalspace.encoding import (
    bitvec,
    child_histories,
    domsize,
    history,
    history_sort_key,
    iter_bitvec,
    max_histories,
    sub_histories,
)
from causalspace.spaces import prime_hset
from causalspace.symmetry import PermTable, canonical_rep, perm_table


def run_finder(n, **kwargs):
    finder = en.SpaceFinder(n, verbose=False, **kwargs)
    finder.blank_state()
    finder.find_eq_classes()
    return finder


def test_single_event_search():
    finder = run_finder(1)
    assert list(finder.iter_eq_classes) == [bitvec(max_histories(1))]
    assert finder.num_spaces == 1


def test_two_event_search_exact():
    finder = run_finder(2)
    assert list(finder.iter_eq_classes) == [1362, 278, 1638]
    spaces = {}
    for rep, space in finder.iter_spaces:
        spaces.setdefault(rep, []).append(space)
    assert spaces[1362] == [1362, 820, 1558, 358]
    assert spaces[1638] == [1638, 1904]
    assert spaces[278] == [278]
    assert finder.num_spaces == 7
    assert finder.state.num_todo == 6


def test_two_event_fixed_choice_plan():
    finder = en.SpaceFinder(2, verbose=False)
    finder.blank_state()
    choices, num_todo, remaining = finder.opt_fix_child_choices(
        max_histories(2), finder._perm_group
    )
    assert [sorted(c) for c in choices] == [[1, 4, 8], [1, 4], [1, 2, 8], [1, 2]]
    assert [sorted(r) for r in remaining] == [[2], [2], [], []]
    assert num_todo == 6


PLAN_DIGESTS = {
    3: (24, "537cad66036c72aaed9ba41b01056f65a5b44b2c381b918e053819b8ff9185f6"),
    4: (732, "af5aaf8252e6f79291296d4115cc895eb738f89ec640ec3fca7979fded42caa9"),
}


@pytest.mark.parametrize("n", sorted(PLAN_DIGESTS))
def test_toplevel_plan_pinned(n):
    # checkpoints carry the plan, so it must stay byte-exact
    num_choices, digest = PLAN_DIGESTS[n]
    finder = en.SpaceFinder(n, verbose=False)
    choices, num_todo, remaining = finder.opt_fix_child_choices(
        max_histories(n), finder._perm_group
    )
    assert len(choices) == num_choices
    plan = ([bitvec(c) for c in choices], num_todo, [bitvec(r) for r in remaining])
    assert hashlib.sha256(repr(plan).encode()).hexdigest() == digest


CHECKPOINT4_SHA256 = "a2773a508f0fe6167d8d8d0b00f50efe596c394358b7399c061664183b63c22b"


def test_four_event_checkpoint_pinned(tmp_path):
    # the checkpoint after 100 classes of a blank 4-event search is byte-exact:
    # the state holds history sets as found, whatever keys dedupe the search
    path = str(tmp_path / "n4.bin")
    finder = en.SpaceFinder(4, verbose=False)
    finder.blank_state()
    stream = finder.iter_find_eq_classes()
    assert len(list(islice(stream, 100))) == 100
    stream.close()
    finder.save_state(path, save_backup=False)
    with open(path, "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == CHECKPOINT4_SHA256


CLASSES4_SHA256 = "3517bdb8059381d25153964636d1cd26a5f6c160687ace87aa7893a9aa6d8e11"


def test_four_event_classes_pinned():
    # the 1,000 classes after the first of a blank 4-event search, each as
    # 1,000 big-endian bytes
    finder = en.SpaceFinder(4, verbose=False)
    finder.blank_state()
    classes = islice(finder.iter_find_eq_classes(), 1, 1001)
    blob = b"".join(c.to_bytes(1000, byteorder="big") for c in classes)
    assert hashlib.sha256(blob).hexdigest() == CLASSES4_SHA256


def test_four_event_resume_matches_straight_run(tmp_path):
    # a loaded state must skip orbits seen before the save, also those of the
    # top-level subset that is redone on resume
    straight = en.SpaceFinder(4, verbose=False)
    straight.blank_state()
    reps = list(islice(straight.iter_find_eq_classes(), 60))
    path = str(tmp_path / "n4.bin")
    first = en.SpaceFinder(4, verbose=False)
    first.blank_state()
    resumed = list(islice(first.iter_find_eq_classes(), 30))
    first.save_state(path, save_backup=False)
    second = en.SpaceFinder(4, verbose=False)
    second.load_state(path)
    resumed += islice(second.iter_find_eq_classes(), 30)
    assert resumed == reps
    assert second.num_spaces == straight.num_spaces


def test_three_event_search_exact(enumeration3):
    classes, num_spaces = enumeration3
    assert len(classes) == 102
    assert num_spaces == 2644


def test_visited_spaces_and_classes_are_join_prime():
    # winnowing keeps exactly the join-prime members of each partial space;
    # the stream leaves the visited spaces in the state, find_eq_classes not
    finder = en.SpaceFinder(3, verbose=False)
    finder.blank_state()
    classes = list(finder.iter_find_eq_classes())
    visited = list(finder.state.partial_spaces_visited)
    assert (len(classes), len(visited)) == (102, 67)
    for s in chain(visited, classes):
        assert prime_hset(s) == s


def test_status_updates_and_metrics(capsys):
    lines = []
    finder = en.SpaceFinder(2, verbose=True, print_fn=lines.append)
    finder.blank_state()
    finder.find_eq_classes()
    assert lines[-1] == "Found 7 spaces in 3 equivalence classes."
    assert any("Iterating over 6 top-level child history subsets." == l for l in lines)
    m = finder.metrics()
    assert m.num_done == m.num_todo == 6
    assert m.perc_completed == 1.0
    assert m.num_spaces == 7 and m.num_eq_classes == 3
    assert m.memsize > 0


def status_lines(n, **kwargs):
    """Everything a verbose search prints, with the time column removed."""
    lines = []
    finder = en.SpaceFinder(n, verbose=True, print_fn=lines.append, **kwargs)
    finder.blank_state()
    finder.find_eq_classes()
    # status lines end in a percentage; their first 10 characters are the time
    return [l[10:] if l.endswith("%") else l for l in lines]


def test_status_table_pinned_two_events():
    # without update_period, one status line per valid top-level subset
    assert status_lines(2) == [
        "Brute-forcing complexity: 16 top-level child history subsets.",
        "Iterating over 6 top-level child history subsets.",
        "      time       spaces    eq. cls     memory  completed fts compl. vts compl.",
        "            4          1       716B   16.6667%    0.0000%    0.0000%",
        "            5          2       744B   33.3333%    0.0000%   50.0000%",
        "            5          2       744B   66.6667%   25.0000%   50.0000%",
        "            5          2       744B   83.3333%   50.0000%    0.0000%",
        "            7          3       772B  100.0000%   75.0000%    0.0000%",
        "Found 7 spaces in 3 equivalence classes.",
    ]


def test_status_table_pinned_three_events():
    assert status_lines(3, update_period=10) == [
        "Brute-forcing complexity: 4096 top-level child history subsets.",
        "Iterating over 922 top-level child history subsets.",
        "      time       spaces    eq. cls     memory  completed fts compl. vts compl.",
        "          360         10    2.93KiB    0.3254%    0.0000%    6.2500%",
        "          583         20    3.78KiB    0.7592%    0.0000%   18.7500%",
        "          718         30    5.03KiB    2.1692%    0.0000%   59.3750%",
        "          994         40    5.97KiB    7.9176%    8.3333%   25.0000%",
        "         1318         50    8.05KiB    8.7852%    8.3333%   50.0000%",
        "         1714         60    8.65KiB   16.1605%   16.6667%   15.6250%",
        "         2062         70   10.60KiB   41.9740%   37.5000%    6.2500%",
        "         2215         80   11.06KiB   42.5163%   37.5000%   21.8750%",
        "         2461         90   14.13KiB   52.8200%   50.0000%    4.6875%",
        "         2635        100   14.76KiB   96.0954%   87.5000%    0.0000%",
        "         2644        102   14.90KiB  100.0000%  100.0000%  100.0000%",
        "Found 2644 spaces in 102 equivalence classes.",
    ]


def test_brute_force_toplevel_plan_three_events():
    # without symmetry the plan is one empty fixed choice, every child variable
    lines = []
    finder = en.SpaceFinder(3, use_toplevel_symmetry=False, print_fn=lines.append)
    finder.blank_state()
    stream = finder.iter_find_eq_classes()
    next(stream)
    stream.close()
    state = finder.state
    assert state.child_choices_list == [0]
    assert len(state.remaining_children_list) == 1
    assert state.remaining_children_list[0].bit_count() == 12
    assert state.num_todo == 4096
    assert lines[:2] == [
        "Brute-forcing complexity: 4096 top-level child history subsets.",
        "Iterating over 4096 top-level child history subsets.",
    ]


def test_brute_force_toplevel_equivalent():
    fast = run_finder(2)
    brute = run_finder(2, use_toplevel_symmetry=False)
    table = perm_table(2)
    assert {canonical_rep(c, table) for c in brute.iter_eq_classes} == {
        canonical_rep(c, table) for c in fast.iter_eq_classes
    }
    assert brute.num_spaces == fast.num_spaces
    assert brute.state.num_todo == 16


def test_iter_child_subsets_counts():
    finder = en.SpaceFinder(2, verbose=False)
    hs = max_histories(2)
    subsets = list(finder.iter_child_subsets(hs))
    # of the 15 non-empty subsets of the 4 children, those covering every
    # total assignment
    for s in subsets:
        for h in hs:
            assert any(k & h == k for k in s)
    single = [history({"A": 0, "B": 0})]
    assert list(finder.iter_child_subsets(single)) == [{1}, {4}, {1, 4}]


def reference_child_subsets(hs):
    """Every non-empty subset of the sorted children giving each history a
    child, in binary order over the children."""
    children = sorted({k for h in hs for k in child_histories(h)}, key=history_sort_key)
    out = []
    for bits in range(1, 1 << len(children)):
        subset = {k for i, k in enumerate(children) if bits >> i & 1}
        if all(subset.intersection(child_histories(h)) for h in hs):
            out.append(subset)
    return out


def test_iter_child_subsets_matches_reference():
    cases = [(2, max_histories(2)), (3, max_histories(3))]
    for n, size, seed_ in ((3, 2, 0), (3, 2, 1), (4, 3, 2), (4, 3, 3), (4, 2, 4)):
        # nested levels choose among the histories with `size` events
        level = [h for h in sub_histories(max_histories(n)) if domsize(h) == size]
        cases.append((n, random.Random(seed_).sample(level, 3)))
    for n, hs in cases:
        finder = en.SpaceFinder(n, verbose=False)
        assert list(finder.iter_child_subsets(hs)) == reference_child_subsets(hs)


def brute_force_child_subsets(hs, child_hists, start):
    """The positions from ``start`` of ``child_hists`` subsets that give
    every history a child, each with its subset, by testing every position."""
    out = []
    for bits in range(start, 1 << len(child_hists)):
        subset = {k for i, k in enumerate(child_hists) if bits >> i & 1}
        if all(subset.intersection(child_histories(h)) for h in hs):
            out.append((bits, subset))
    return out


def test_child_subset_walk_matches_brute_force():
    # the walk skips positions that miss a history's children; it must yield
    # exactly the positions of the brute-force filter, in the same order
    rng = random.Random(20)
    finder = en.SpaceFinder(4, verbose=False)
    histories = sub_histories(max_histories(4))
    num_zero_masks = 0
    for _ in range(150):
        size = rng.choice((2, 3, 4))
        level = [h for h in histories if domsize(h) == size]
        hs = rng.sample(level, rng.randint(0, 4))
        children = {k for h in hs for k in child_histories(h)}
        # a random part of the children, so some histories may keep none:
        # their mask is 0, and the walk must yield nothing and end
        child_hists = sorted(
            rng.sample(sorted(children), min(len(children), rng.randint(0, 11))),
            key=history_sort_key,
        )
        if any(set(child_histories(h)).isdisjoint(child_hists) for h in hs):
            num_zero_masks += 1
        end = 1 << len(child_hists)
        expected = brute_force_child_subsets(hs, child_hists, 0)
        starts = [0, end, rng.randrange(end + 1)]
        if expected:
            starts.append(rng.choice(expected)[0])
        for start in starts:
            got = list(finder._child_subsets(hs, child_hists, start))
            assert got == [(b, s) for b, s in expected if b >= start]
    assert num_zero_masks > 10


def assert_seen_spaces_are_seen(finder):
    # a space met as it is stands for its orbit, whose key must be seen
    table = perm_table(finder.num_events)
    for s in finder._seen_spaces:
        assert min(table.dense_images(iter_bitvec(s))) in finder._seen


def test_seen_spaces_have_seen_keys(tmp_path):
    finder = en.SpaceFinder(3, verbose=False)
    finder.blank_state()
    stream = finder.iter_find_eq_classes()
    for num_classes in (1, 10, 40, 77, 102):
        for _ in islice(stream, num_classes - finder.num_eq_classes):
            pass
        assert finder.num_eq_classes == num_classes
        assert len(finder._seen_spaces) >= num_classes
        assert_seen_spaces_are_seen(finder)
    finder.find_eq_classes()
    assert finder._seen_spaces == set(finder.state.eq_classes)
    assert_seen_spaces_are_seen(finder)

    path = str(tmp_path / "n4.bin")
    first = en.SpaceFinder(4, verbose=False)
    first.blank_state()
    for _ in islice(first.iter_find_eq_classes(), 30):
        pass
    first.save_state(path, save_backup=False)
    second = en.SpaceFinder(4, verbose=False)
    second.load_state(path)
    state = second.state
    assert second._seen_spaces == {*state.partial_spaces_visited, *state.eq_classes}
    assert_seen_spaces_are_seen(second)


def test_three_event_search_images_each_new_space_once(monkeypatch):
    # a partial space met before, exactly, is not imaged again: a blank
    # 3-event search images 1,104 sets, the 102 classes re-keyed at its end
    # included
    calls = []
    dense_images = PermTable.dense_images

    def counted(self, histories):
        calls.append(None)
        return dense_images(self, histories)

    monkeypatch.setattr(PermTable, "dense_images", counted)
    finder = run_finder(3)
    assert (finder.num_eq_classes, finder.num_spaces) == (102, 2644)
    assert len(calls) == 1104


def test_hsets_byte_format():
    buf = io.BytesIO()
    n = en.write_hsets(buf, [5])
    assert buf.getvalue() == bytes([0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 5])
    assert n == 11
    buf = io.BytesIO()
    en.write_hsets(buf, [298])
    assert buf.getvalue()[8:] == bytes([0, 2, 0x01, 0x2A])
    buf.seek(0)
    assert en.read_hsets(buf) == [298]


def test_hsets_rejects_non_minimal_length():
    data = bytes([0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 5])  # 5 padded to 2 bytes
    with pytest.raises(en.CorruptStateError):
        en.read_hsets(io.BytesIO(data))


def test_hsets_rejects_truncation():
    buf = io.BytesIO()
    en.write_hsets(buf, [298, 5])
    data = buf.getvalue()[:-1]
    with pytest.raises(en.CorruptStateError):
        en.read_hsets(io.BytesIO(data))


def test_state_roundtrip_bytes(tmp_path):
    path = str(tmp_path / "state.bin")
    finder = en.SpaceFinder(2, verbose=False, filename=path)
    finder.blank_state()
    finder.find_eq_classes()
    # partial spaces are dropped once the search completes, keeping
    # checkpoints small
    assert finder.state.partial_spaces_visited == {}
    finder.save_state(path, save_backup=True)
    first = open(path, "rb").read()
    assert open(path + ".bak", "rb").read() == first

    loaded = en.SpaceFinder(2, verbose=False)
    loaded.load_state(path)
    loaded.save_state(str(tmp_path / "second.bin"), save_backup=False)
    assert open(tmp_path / "second.bin", "rb").read() == first


def test_resume_finished_state_is_identity(tmp_path):
    path = str(tmp_path / "state.bin")
    finder = en.SpaceFinder(2, verbose=False, filename=path)
    finder.blank_state()
    finder.find_eq_classes()
    before = (list(finder.iter_eq_classes), finder.num_spaces)

    again = en.SpaceFinder(2, verbose=False)
    again.load_state(path)
    again.find_eq_classes()
    assert (list(again.iter_eq_classes), again.num_spaces) == before


@pytest.mark.parametrize("stop_at", [5, 41, 77])
def test_interrupted_resume_matches_full_run(tmp_path, stop_at, enumeration3):
    path = str(tmp_path / f"state{stop_at}.bin")
    finder = en.SpaceFinder(3, verbose=False)
    finder.blank_state()
    for i, _ in enumerate(finder.iter_find_eq_classes()):
        if i == stop_at:
            break
    finder.save_state(path)

    resumed = en.SpaceFinder(3, verbose=False)
    resumed.load_state(path)
    resumed.find_eq_classes()
    classes, num_spaces = enumeration3
    assert tuple(resumed.iter_eq_classes) == classes
    assert resumed.num_spaces == num_spaces


def test_periodic_checkpoints_resumable(tmp_path):
    path = str(tmp_path / "periodic.bin")
    snapshots = []

    class Snapshotting(en.SpaceFinder):
        def _save_state(self):
            super()._save_state()
            if os.path.exists(path):
                snap = str(tmp_path / f"snap{len(snapshots)}.bin")
                shutil.copyfile(path, snap)
                snapshots.append(snap)

    finder = Snapshotting(3, verbose=False, filename=path, save_period=25)
    finder.blank_state()
    finder.find_eq_classes()
    expected = (list(finder.iter_eq_classes), finder.num_spaces)
    assert len(snapshots) >= 3
    for snap in snapshots[:-1]:
        resumed = en.SpaceFinder(3, verbose=False)
        resumed.load_state(snap)
        resumed.find_eq_classes()
        assert (list(resumed.iter_eq_classes), resumed.num_spaces) == expected


def test_periodic_checkpoints_within_a_toplevel_subset(tmp_path):
    # at 4 events the first top-level subset alone yields thousands of
    # classes, so checkpoints must not wait for a subset to finish
    path = str(tmp_path / "n4.bin")
    finder = en.SpaceFinder(4, verbose=False, filename=path, save_period=5)
    finder.blank_state()
    streamed = list(islice(finder.iter_find_eq_classes(), 12))
    assert os.path.exists(path)
    resumed = en.SpaceFinder(4, verbose=False)
    resumed.load_state(path)
    assert list(resumed.iter_eq_classes) == streamed[:10]


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = str(tmp_path / "state.bin")
    finder = run_finder(2, filename=path)
    before = {p: Path(p).read_bytes() for p in (path, path + ".bak")}

    def failing_write_state(state, f):
        f.write(b"\x00\x01\x02")
        raise OSError("disk full")

    monkeypatch.setattr(en, "write_state", failing_write_state)
    with pytest.raises(OSError):
        finder.save_state(path)
    assert {p: Path(p).read_bytes() for p in before} == before
    assert sorted(os.listdir(tmp_path)) == ["state.bin", "state.bin.bak"]


def test_load_state_rejects_out_of_range_subset_position(tmp_path):
    path = str(tmp_path / "state.bin")
    finder = en.SpaceFinder(3, verbose=False)
    finder.blank_state()
    next(finder.iter_find_eq_classes())
    finder.save_state(path, save_backup=False)
    with open(path, "rb") as f:
        state = en.read_state(f)
    remaining = state.remaining_children_list[state.fix_child_choice_idx]
    # just past the last subset of a fixed choice is a valid position
    end = 1 << remaining.bit_count()
    for position, valid in ((end, True), (end + 1, False), (1 << 40, False)):
        # num_done moves with the position, so only the range can fail
        state.num_done += position - state.var_child_subset_bitvec
        state.var_child_subset_bitvec = position
        with open(path, "wb") as f:
            en.write_state(state, f)
        if valid:
            en.SpaceFinder(3, verbose=False).load_state(path)
        else:
            with pytest.raises(ValueError):
                en.SpaceFinder(3, verbose=False).load_state(path)


def test_load_state_rejects_counter_bit_flips(tmp_path):
    # bytes 8-15 hold num_done, bytes 24-39 the top-level position, and
    # num_done must be the count the position implies
    path = str(tmp_path / "state.bin")
    finder = en.SpaceFinder(3, verbose=False)
    finder.blank_state()
    for _ in islice(finder.iter_find_eq_classes(), 40):
        pass
    finder.save_state(path, save_backup=False)
    data = Path(path).read_bytes()
    for byte in chain(range(8, 16), range(24, 40)):
        for bit in range(8):
            blob = bytearray(data)
            blob[byte] ^= 1 << bit
            Path(path).write_bytes(blob)
            with pytest.raises((ValueError, en.CorruptStateError)):
                en.SpaceFinder(3, verbose=False).load_state(path)


def test_closed_stream_continues_without_recounting():
    # the top-level subset in progress when a stream is closed is redone by
    # the next stream, and counted once
    finder = en.SpaceFinder(3, verbose=False)
    finder.blank_state()
    stream = finder.iter_find_eq_classes()
    assert len(list(islice(stream, 5))) == 5
    stream.close()
    finder.find_eq_classes()
    m = finder.metrics()
    assert (m.num_eq_classes, m.num_spaces) == (102, 2644)
    assert m.num_done == m.num_todo == 922


def test_load_state_rejects_unfinished_one_event_states(tmp_path):
    # a 1-event search finishes in one step, so only the finished state loads
    path = str(tmp_path / "n1.bin")
    run_finder(1, filename=path)
    with open(path, "rb") as f:
        finished = en.read_state(f)
    for changes in (
        {"num_done": 7},
        {"num_done": 0},
        {"fix_child_choice_idx": 5, "var_child_subset_bitvec": 9},
    ):
        with open(path, "wb") as f:
            en.write_state(replace(finished, **changes), f)
        with pytest.raises(ValueError, match="1-event"):
            en.SpaceFinder(1, verbose=False).load_state(path)
    with open(path, "wb") as f:
        en.write_state(finished, f)
    finder = en.SpaceFinder(1, verbose=False)
    finder.load_state(path)
    assert list(finder.iter_find_eq_classes()) == []
    assert finder.metrics().perc_completed == 1.0


def test_load_state_rejects_visited_spaces_without_plan(tmp_path):
    path = str(tmp_path / "state.bin")
    visited = bitvec(max_histories(3))
    with open(path, "wb") as f:
        en.write_state(en.SearchState(partial_spaces_visited={visited: None}), f)
    with pytest.raises(ValueError, match="no top-level plan"):
        en.SpaceFinder(3, verbose=False).load_state(path)


def test_corrupted_checkpoints_fail_cleanly(tmp_path):
    path = str(tmp_path / "state.bin")
    finder = en.SpaceFinder(3, verbose=False)
    finder.blank_state()
    for _ in islice(finder.iter_find_eq_classes(), 40):
        pass
    finder.save_state(path, save_backup=False)
    data = Path(path).read_bytes()
    loader = en.SpaceFinder(3, verbose=False)

    def load(blob):
        Path(path).write_bytes(blob)
        loader.load_state(path)

    def flipped(bit):
        blob = bytearray(data)
        blob[bit // 8] ^= 1 << (bit % 8)
        return bytes(blob)

    for size in range(len(data)):
        with pytest.raises(en.CorruptStateError):
            load(data[:size])
    # the first 8 bytes hold num_spaces
    for bit in range(64):
        with pytest.raises(ValueError, match="spaces"):
            load(flipped(bit))

    @seed(2644)
    @settings(max_examples=600, deadline=None)
    @given(st.integers(0, 8 * len(data) - 1))
    def flip_loads_or_fails_cleanly(bit):
        try:
            load(flipped(bit))
        except (en.CorruptStateError, ValueError):
            pass

    flip_loads_or_fails_cleanly()


def test_load_state_rejects_sets_of_non_histories(tmp_path):
    path = str(tmp_path / "state.bin")
    # bit 0 is the empty history, bit 3 the history with both inputs at A
    for bad in (0b1, 0b1000):
        with open(path, "wb") as f:
            en.write_state(en.SearchState(partial_spaces_visited={bad: None}), f)
        with pytest.raises(ValueError):
            en.SpaceFinder(3, verbose=False).load_state(path)


def test_load_state_guards_event_mismatch(tmp_path):
    path = str(tmp_path / "n3.bin")
    finder = en.SpaceFinder(3, verbose=False, filename=path)
    finder.blank_state()
    finder.find_eq_classes()
    wrong = en.SpaceFinder(2, verbose=False)
    with pytest.raises(ValueError):
        wrong.load_state(path)

    path2 = str(tmp_path / "n2.bin")
    finder2 = en.SpaceFinder(2, verbose=False, filename=path2)
    finder2.blank_state()
    finder2.find_eq_classes()
    wrong3 = en.SpaceFinder(3, verbose=False)
    with pytest.raises(ValueError):
        wrong3.load_state(path2)


def test_emitted_classes_are_duplicate_free_and_orbit_disjoint(enumeration3):
    classes, num_spaces = enumeration3
    table = perm_table(3)
    canon = [canonical_rep(c, table) for c in classes]
    assert len(set(canon)) == len(classes)
    from causalspace.symmetry import space_orbit

    assert sum(len(space_orbit(c, table)) for c in classes) == num_spaces


def test_finder_rejects_bad_parameters():
    with pytest.raises(ValueError):
        en.SpaceFinder(0)
    with pytest.raises(ValueError):
        en.SpaceFinder(5)
    with pytest.raises(ValueError):
        en.SpaceFinder(2, update_period=0)
    with pytest.raises(ValueError):
        en.SpaceFinder(2, save_period=-1)
    finder = en.SpaceFinder(2, verbose=False)
    with pytest.raises(ValueError):
        finder.find_eq_classes()  # state not initialised


def test_emitted_representatives_are_causally_complete(enumeration3):
    from causalspace.spaces import Space, is_causally_complete, is_free_choice

    classes, _ = enumeration3
    for rep in classes:
        space = Space(rep)
        assert is_free_choice(space)
        assert is_causally_complete(space)


def test_runs_are_deterministic():
    first = run_finder(3)
    second = run_finder(3)
    assert list(first.iter_eq_classes) == list(second.iter_eq_classes)
    assert first.num_spaces == second.num_spaces
