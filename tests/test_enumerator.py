import io
import os
import shutil

import pytest

from causalspace import enumerator as en
from causalspace.encoding import bitvec, history, max_histories
from causalspace.symmetry import canonical_rep, perm_table


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


def test_three_event_search_exact(enumeration3):
    classes, num_spaces = enumeration3
    assert len(classes) == 102
    assert num_spaces == 2644


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
    a0 = history({"A": 0})
    single = [history({"A": 0, "B": 0})]
    got = list(finder.iter_child_subsets(single))
    assert got == [{1}, {4}, {1, 4}] or len(got) == 3


def test_child_subset_decoding():
    finder = en.SpaceFinder(2, verbose=False)
    hs = max_histories(2)
    children = sorted(
        {k for h in hs for k in finder._children[h]},
        key=lambda h: (bin(h).count("1"), h),
    )
    assert finder.child_subset(hs, children, 0) is None
    full = finder.child_subset(hs, children, (1 << len(children)) - 1)
    assert full == set(children)


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


def test_parallel_mode_matches_sequential(enumeration3):
    classes, num_spaces = enumeration3
    table = perm_table(3)
    par_classes, par_spaces = en.find_eq_classes_parallel(3, processes=2)
    assert par_spaces == num_spaces
    assert {canonical_rep(c, table) for c in par_classes} == {
        canonical_rep(c, table) for c in classes
    }


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
