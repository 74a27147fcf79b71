import hashlib
import json
import os

import pytest

from causalspace import analysis, causaltope, cli
from causalspace.cli import main
from causalspace.enumerator import SpaceFinder, read_hsets
from causalspace.spaces import Space, ext_hset
from causalspace.symmetry import perm_table


@pytest.fixture(autouse=True)
def state_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("CAUSALSPACE_STATE_DIR", str(tmp_path))
    return tmp_path


def test_enumerate_two_events(capsys, state_dir):
    rc = main(["enumerate", "--events", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Found 7 spaces in 3 equivalence classes." in out
    with open(state_dir / "classes-2.hsets", "rb") as f:
        assert set(read_hsets(f)) == {1362, 278, 1638}


def test_enumerate_one_event(capsys, state_dir):
    rc = main(["enumerate", "--events", "1", "--quiet"])
    assert rc == 0
    with open(state_dir / "classes-1.hsets", "rb") as f:
        classes = read_hsets(f)
    assert len(classes) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--events", "7"],
        ["--events", "2", "--save-period", "0"],
        ["--events", "2", "--update-period", "-1"],
    ],
    ids=["events", "save-period", "update-period"],
)
def test_enumerate_rejects_bad_event_count(capsys, argv):
    assert main(["enumerate", *argv]) == 2
    assert capsys.readouterr().err.startswith("enumerate: ")


@pytest.mark.parametrize(
    "command, with_state",
    [("enumerate", False), ("enumerate", True), ("resume", True)],
    ids=["bare", "state", "resume"],
)
def test_enumerate_four_events_needs_save_period(
    capsys, monkeypatch, state_dir, command, with_state
):
    def no_search(*args, **kwargs):
        raise AssertionError("the search was started")

    monkeypatch.setattr(cli, "SpaceFinder", no_search)
    argv = ["--state", str(state_dir / "run4.state")] if with_state else []
    assert main([command, "--events", "4", "--quiet", *argv]) == 2
    assert capsys.readouterr().err.startswith(f"{command}: --events 4 needs --save-period")
    assert not os.listdir(state_dir)


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--events", "2", "--quiet"],
        ["resume", "--events", "2", "--quiet"],
        ["classify", "--events", "2", "--class-id", "0"],
        ["hierarchy", "--events", "2"],
        ["causaltope", "--events", "2", "--class-id", "0"],
        ["orders", "--events", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_output_is_reported(capsys, state_dir, argv):
    if argv[0] == "resume":
        state = str(state_dir / "n2.state")
        finder = SpaceFinder(2, verbose=False, filename=state)
        finder.blank_state()
        finder.find_eq_classes()
        argv = [*argv, "--state", state]
    missing = str(state_dir / "missing" / "out")
    assert main([*argv, "--output", missing]) == 1
    assert capsys.readouterr().err.startswith(f"{argv[0]}: [Errno 2]")


def test_enumerate_with_checkpoint_and_resume(capsys, state_dir):
    state = str(state_dir / "run.state")
    rc = main(
        ["enumerate", "--events", "2", "--quiet", "--state", state, "--save-period", "1"]
    )
    assert rc == 0
    assert os.path.exists(state) and os.path.exists(state + ".bak")

    rc = main(["resume", "--events", "2", "--quiet", "--state", state])
    assert rc == 0
    with open(state_dir / "classes-2.hsets", "rb") as f:
        assert set(read_hsets(f)) == {1362, 278, 1638}


def test_resume_rejects_mismatched_events(capsys, state_dir):
    state = str(state_dir / "n2.state")
    finder = SpaceFinder(2, verbose=False, filename=state)
    finder.blank_state()
    finder.find_eq_classes()
    rc = main(["resume", "--events", "3", "--quiet", "--state", state])
    assert rc == 1
    assert "resume:" in capsys.readouterr().err


def test_resume_rejects_corrupt_file(capsys, state_dir):
    bad = state_dir / "bad.state"
    bad.write_bytes(b"\x00" * 12)
    rc = main(["resume", "--events", "2", "--quiet", "--state", str(bad)])
    assert rc == 1


def test_classify_two_events_json(capsys):
    rc = main(["classify", "--events", "2", "--class-id", "0"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["class_id"] == 0
    assert record["causal_functions"] == 16
    assert record["induced_by_order"] == "discrete(A,B)"


def test_classify_space_literal(capsys):
    rc = main(["classify", "--events", "2", "--space", "278", "--format", "text"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "class 0" in out


def test_classify_unknown_class(capsys):
    assert main(["classify", "--events", "2", "--class-id", "9"]) == 2


def test_classify_space_outside_hierarchy(capsys):
    # a complete 3-event space is no member of the 2-event hierarchy
    assert main(["classify", "--events", "2", "--space", "4295033110"]) == 2
    assert capsys.readouterr().err == "classify: Space is not part of the hierarchy.\n"


@pytest.mark.parametrize(
    "literal",
    [
        "[A/0;A/1;B/0;B/1;C/0;C/1;D/0;D/1]",  # histories beyond 3 events
        "[A/0;B/0;C/0]",  # not causally complete
        "[A/0;A/1;B/0;B/1]",  # complete on 2 events only
    ],
)
def test_classify_space_not_in_three_event_hierarchy(capsys, literal):
    assert main(["classify", "--events", "3", "--space", literal]) == 2
    assert capsys.readouterr().err == "classify: Space is not part of the hierarchy.\n"


def test_classify_rejects_unclosed_space_literal(capsys):
    argv = ["classify", "--events", "2", "--space", "[A/0; A/1; B/0; B/1"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("classify: ")


def _count_calls(monkeypatch, name):
    """Records the first argument of each call to a ``causaltope`` function."""
    calls = []
    fn = getattr(causaltope, name)

    def counted(first, *args, **kwargs):
        calls.append(first)
        return fn(first, *args, **kwargs)

    monkeypatch.setattr(causaltope, name, counted)
    return calls


@pytest.mark.parametrize("class_id", [3, 17, 100])
def test_classify_class_id_analyses_only_its_class(capsys, monkeypatch, hierarchy3, class_id):
    systems = _count_calls(monkeypatch, "build_equations")
    ranks = _count_calls(monkeypatch, "rank")
    assert main(["classify", "--events", "3", "--class-id", str(class_id)]) == 0
    assert json.loads(capsys.readouterr().out)["class_id"] == class_id
    # its own closure only: the dimension of the coarsening meet comes from
    # the union of the coarsening closures, with no closure per coarsening;
    # ranks and equation counts are counted, so no system is built
    node = hierarchy3.nodes[class_id]
    assert ranks[0] == ext_hset(node.representative)
    assert len(ranks) == 1 + bool(node.closest_coarsenings)
    assert systems == []


def test_causaltope_class_id_builds_one_system(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "build_equations")
    assert main(["causaltope", "--events", "3", "--class-id", "17"]) == 0
    assert capsys.readouterr().out.startswith("000|000,")
    assert len(calls) == 1


def test_causaltope_unknown_class(capsys):
    assert main(["causaltope", "--events", "2", "--class-id", "9"]) == 2
    assert capsys.readouterr().err == "causaltope: Unknown class id 9.\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--events", "4", "--class-id", "0"],
        ["classify", "--events", "5", "--space", "278"],
        ["hierarchy", "--events", "4"],
        ["hierarchy", "--events", "0"],
        ["causaltope", "--events", "4", "--class-id", "0"],
    ],
)
def test_per_class_commands_reject_events_without_catalogue(capsys, argv):
    # a complete search beyond 3 events does not finish, so these must fail
    # before starting one
    assert main(argv) == 2
    assert "--events must be 1-3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "causaltope"])
@pytest.mark.parametrize(
    "choice", [[], ["--class-id", "0", "--space", "278"]], ids=["neither", "both"]
)
def test_class_id_and_space_are_exclusive(capsys, command, choice):
    with pytest.raises(SystemExit) as exc:
        main([command, "--events", "2", *choice])
    assert exc.value.code == 2


def test_causaltope_accepts_four_event_literal(capsys):
    literal = "[A/0; A/1; B/0; B/1; C/0; C/1; D/0; D/1]"
    assert main(["causaltope", "--events", "4", "--space", literal]) == 0
    assert capsys.readouterr().out.startswith("0000|0000,")


def test_causaltope_rejects_literal_beyond_five_events(capsys, monkeypatch):
    # a 6-event system has 4096 columns and tens of thousands of rows, so
    # the command must refuse before building it
    def unreachable(space, **kwargs):
        raise AssertionError("build_equations was called")

    monkeypatch.setattr(causaltope, "build_equations", unreachable)
    literal = "[A/0; A/1; B/0; B/1; C/0; C/1; D/0; D/1; E/0; E/1; F/0; F/1]"
    assert main(["causaltope", "--events", "6", "--space", literal]) == 2
    err = capsys.readouterr().err
    assert err.startswith("causaltope: ") and "6 events" in err


def test_causaltope_rejects_events_below_one(capsys, monkeypatch):
    # the empty literal has 0 events, so the event-count check alone passes it
    def unreachable(space, **kwargs):
        raise AssertionError("build_equations was called")

    monkeypatch.setattr(causaltope, "build_equations", unreachable)
    assert main(["causaltope", "--events", "0", "--space", "0"]) == 2
    assert capsys.readouterr().err == (
        "causaltope: --events must be 1-5: equation systems are not dumped for 0 events.\n"
    )


@pytest.mark.parametrize("events, literal_events", [(2, "ABC"), (5, "ABCDEF")])
def test_causaltope_rejects_literal_on_other_event_count(
    capsys, monkeypatch, events, literal_events
):
    # checked before the dump cap and before any system is built
    def unreachable(space, **kwargs):
        raise AssertionError("build_equations was called")

    monkeypatch.setattr(causaltope, "build_equations", unreachable)
    literal = "[" + "; ".join(f"{e}/{v}" for e in literal_events for v in (0, 1)) + "]"
    assert main(["causaltope", "--events", str(events), "--space", literal]) == 2
    assert capsys.readouterr().err == (
        f"causaltope: the space has {len(literal_events)} events, not --events {events}.\n"
    )


def test_enumerate_has_no_format_option():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--events", "2", "--format", "pgm"])
    assert exc.value.code == 2


def test_hierarchy_dot(capsys):
    rc = main(["hierarchy", "--events", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph hierarchy {")
    assert out.count("->") == 2


def test_causaltope_csv(capsys):
    rc = main(["causaltope", "--events", "2", "--space", "[A/0; A/1; B/0; B/1]"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().split("\n") if l]
    assert len(lines) == 12  # header + 11 equation rows


def test_causaltope_pgm_to_file(state_dir, capsys):
    out_file = state_dir / "system.pgm"
    rc = main(
        [
            "causaltope",
            "--events",
            "2",
            "--space",
            "[A/0; A/1; B/0; B/1]",
            "--format",
            "pgm",
            "--output",
            str(out_file),
        ]
    )
    assert rc == 0
    assert out_file.read_bytes().startswith(b"P2 16 11 255")


def test_orders_exports(capsys):
    rc = main(["orders", "--events", "2"])
    assert rc == 0
    dot = capsys.readouterr().out
    assert dot.count("label=") == 4

    rc = main(["orders", "--events", "2", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["orders"]) == 4
    assert len(payload["covering_edges"]) == 4


@pytest.mark.parametrize("events", ["0", "5"])
def test_orders_rejects_events_out_of_range(capsys, events):
    assert main(["orders", "--events", events]) == 2
    assert capsys.readouterr().err == "orders: --events must be 1-4\n"


# sha256 of the stdout of ``orders --events n --format fmt``
ORDERS_DIGESTS = {
    (3, "dot"): "5d542cc4f8911254fe58b799cbc0470ec837e4cbf825a9602198d27514dcff3f",
    (3, "json"): "1d51e7e34e0eedc83ca460893eaaa24127e1e1148a0d1286d824e10e7854bb51",
    (4, "dot"): "f05296ae8225e1d94dc81e25f692c4b01835f178edb7b0b2c62e7991057b671a",
    (4, "json"): "a3c9b8f9c67edbcf0db9849505b0dd30d3ebea838b5a40f5c922f0165d25e9fe",
}


@pytest.mark.parametrize("n,fmt", sorted(ORDERS_DIGESTS))
def test_orders_output_pinned(capsys, n, fmt):
    assert main(["orders", "--events", str(n), "--format", fmt]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == ORDERS_DIGESTS[n, fmt]


def test_outputs_are_deterministic(capsys):
    main(["hierarchy", "--events", "2", "--format", "json"])
    first = capsys.readouterr().out
    main(["hierarchy", "--events", "2", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


# sha256 of the stdout of ``hierarchy --events n --format fmt``; the 3-event
# exports are pinned in test_analysis.py
HIERARCHY_DIGESTS = {
    (1, "dot"): "0c44beeefea1a3d1bbf2cb72fbbf9e743c33578f6a01ea3899cef3930ad55540",
    (1, "json"): "27581d817253a9a8a59fe1d2aaeda9e0a3b28de5a71d237243a9f266079b9781",
    (2, "dot"): "64593a58f436cb2712aeb80c9965bb3302a2a5e7e51eab201b9cab1a5a7abc3c",
    (2, "json"): "9d0c43d0be4ae627c1860643908dc6cf2315b0777cc808633b3237727d822e3f",
}

# sha256 of the stdout of ``classify --events 2 --class-id c``
CLASSIFY2_DIGESTS = {
    0: "c73968c1c88ab353005373c736824094f77c0370c733f12c128f0afbb0843043",
    1: "81b2299c38c35fac378466423a0bae2f8d1dbd5fe93e8699965fbe0ae0f661dd",
    2: "97947676da3a5c84858f8dc405f2fc577a5a2869ec41480043e196b003f39735",
}


def _stdout_digest(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("n,fmt", sorted(HIERARCHY_DIGESTS))
def test_small_hierarchy_exports_pinned(capsys, n, fmt):
    argv = ["hierarchy", "--events", str(n), "--format", fmt]
    assert _stdout_digest(capsys, argv) == HIERARCHY_DIGESTS[n, fmt]


@pytest.mark.parametrize("class_id", sorted(CLASSIFY2_DIGESTS))
def test_two_event_class_records_pinned(capsys, class_id):
    argv = ["classify", "--events", "2", "--class-id", str(class_id)]
    assert _stdout_digest(capsys, argv) == CLASSIFY2_DIGESTS[class_id]


@pytest.mark.parametrize("n, class_ids", [(2, (0, 1, 2)), (3, (0, 17, 101))])
def test_queries_read_class_table_without_search(
    request, capsys, monkeypatch, n, class_ids
):
    # the expected outputs come from a hierarchy that the search built, before
    # any way into the search is made to raise; its exports are pinned
    hierarchy = request.getfixturevalue(f"hierarchy{n}")
    table = perm_table(n)

    def no_search(*args, **kwargs):
        raise AssertionError("the search was started")

    monkeypatch.setattr(cli, "SpaceFinder", no_search)
    for name in ("find_eq_classes", "iter_find_eq_classes"):
        monkeypatch.setattr(SpaceFinder, name, no_search)

    def stdout(*argv):
        assert main([argv[0], "--events", str(n), *argv[1:]]) == 0
        return capsys.readouterr().out

    def dump(class_id, fmt):
        space = Space(hierarchy.nodes[class_id].representative)
        return causaltope.dump_system(causaltope.build_equations(space), fmt).decode()

    for c in class_ids:
        rep = hierarchy.nodes[c].representative
        record = json.dumps(analysis.report(c, hierarchy), indent=2, sort_keys=True)
        member = max(table.permute_space(rep, g) for g in table.group)
        assert stdout("classify", "--class-id", str(c)) == record + "\n"
        assert stdout("classify", "--space", str(member)) == record + "\n"
        assert stdout("causaltope", "--class-id", str(c)) == dump(c, "csv")
    assert stdout("hierarchy", "--format", "json") == analysis.hierarchy_json(hierarchy) + "\n"
    assert stdout("hierarchy", "--format", "dot") == analysis.hierarchy_dot(hierarchy)

    # causaltope --class-id reads one representative and builds no catalogue
    monkeypatch.setattr(analysis, "_catalogue", no_search)
    for c in class_ids:
        assert stdout("causaltope", "--class-id", str(c), "--format", "pgm") == dump(c, "pgm")
