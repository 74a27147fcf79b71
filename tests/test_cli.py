import json
import os

import pytest

from causalspace.cli import main
from causalspace.enumerator import SpaceFinder, read_hsets


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


def test_enumerate_rejects_bad_event_count(capsys):
    assert main(["enumerate", "--events", "7"]) == 2


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


def test_causaltope_accepts_four_event_literal(capsys):
    literal = "[A/0; A/1; B/0; B/1; C/0; C/1; D/0; D/1]"
    assert main(["causaltope", "--events", "4", "--space", literal]) == 0
    assert capsys.readouterr().out.startswith("0000|0000,")


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


def test_outputs_are_deterministic(capsys):
    main(["hierarchy", "--events", "2", "--format", "json"])
    first = capsys.readouterr().out
    main(["hierarchy", "--events", "2", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second
