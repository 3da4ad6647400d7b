import json
import pathlib

import pytest

from aisles import cli, derived, kronecker, torsion
from aisles.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from aisles.errors import UnsupportedError

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_a2(capsys):
    code, out, _ = run(capsys, "enumerate", "--builtin", "a2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["count"] == 5
    assert len(payload["pairs"]) == 5


def test_enumerate_split_only(capsys):
    code, out, _ = run(capsys, "enumerate", "--builtin", "a2", "--split-only")
    assert code == EXIT_OK
    assert json.loads(out)["count"] == 4


def test_enumerate_deterministic(capsys):
    _, first, _ = run(capsys, "enumerate", "--builtin", "a3")
    _, second, _ = run(capsys, "enumerate", "--builtin", "a3")
    assert first == second


def test_enumerate_kronecker_is_usage_error(capsys):
    code, _, err = run(capsys, "enumerate", "--builtin", "kronecker")
    assert code == EXIT_USAGE
    assert "error" in err


def test_enumerate_from_quiver_file(capsys):
    code, out, _ = run(capsys, "enumerate", "--quiver", str(FIXTURES / "a2.quiver"))
    assert code == EXIT_OK
    assert json.loads(out)["count"] == 5


def test_malformed_quiver_file(capsys):
    code, _, err = run(
        capsys, "enumerate", "--quiver", str(FIXTURES / "malformed.quiver")
    )
    assert code == EXIT_USAGE
    assert "line 3" in err


def test_missing_quiver_argument(capsys):
    code, _, err = run(capsys, "enumerate")
    assert code == EXIT_USAGE
    assert "no quiver" in err


def test_lift_and_trace(capsys):
    code, out, _ = run(
        capsys,
        "lift",
        "--builtin",
        "a2",
        "--torsion",
        "[[1, 0]]",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["split"] is True
    assert payload["upper_tail"] is True
    assert "[1, 0]" in payload["aisle"]["0"]

    code, out, _ = run(
        capsys, "trace", "--builtin", "a2", "--torsion", "[[1, 0]]"
    )
    assert code == EXIT_OK
    assert json.loads(out)["roundtrip"] is True


def test_lift_rejects_non_torsion_class(capsys):
    # {P_1} alone is not closed under quotients
    code, _, err = run(
        capsys, "lift", "--builtin", "a2", "--torsion", "[[1, 1]]"
    )
    assert code == EXIT_USAGE
    assert "not a torsion class" in err


def test_classify_a2(capsys):
    code, out, _ = run(capsys, "classify", "--builtin", "a2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pass"] is True
    assert any("scan" in case for case in payload["cases"])


def test_verify_clean_table(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "a2", "--suite", "all")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pass"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "euler_identity" in names
    assert "lift_trace_roundtrip" in names


def test_verify_falsified_table_fails(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--builtin",
        "a2",
        "--suite",
        "all",
        "--table-patch",
        str(FIXTURES / "falsified_hom.json"),
    )
    assert code == EXIT_FAIL
    payload = json.loads(out)
    assert payload["pass"] is False
    assert any(not c["pass"] for c in payload["checks"])


def test_verify_kronecker_suite(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--builtin",
        "kronecker",
        "--suite",
        "53",
        "--range",
        "4",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["checks"][0]["name"] == "three_way_bijection"
    assert payload["pass"] is True


def test_verify_unknown_suite(capsys):
    code, _, err = run(
        capsys, "verify", "--builtin", "a2", "--suite", "nonsense"
    )
    assert code == EXIT_USAGE


def test_bad_window(capsys):
    code, _, err = run(
        capsys, "classify", "--builtin", "a2", "--window", "3..1"
    )
    assert code == EXIT_USAGE
    assert "bad window" in err


def test_transport_kronecker(capsys):
    code, out, _ = run(
        capsys,
        "transport",
        "--builtin",
        "kronecker",
        "--range",
        "4",
        "--tilting",
        "Post(1),Post(2)",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["cardinalities"]["heart_pairs"] == 8


def test_export_ar(capsys):
    code, out, _ = run(
        capsys, "export-ar", "--builtin", "a2", "--window=-1..2"
    )
    assert code == EXIT_OK
    assert out.startswith("digraph")
    assert out.count("label=") == 12


def test_export_ar_with_coloring(tmp_path, capsys):
    color = tmp_path / "color.json"
    color.write_text(
        json.dumps({"members": [[[1, 0], 0], [[0, 1], 1]]}), encoding="utf-8"
    )
    code, out, _ = run(
        capsys,
        "export-ar",
        "--builtin",
        "a2",
        "--window=-1..2",
        "--color-file",
        str(color),
    )
    assert code == EXIT_OK
    assert out.count("fillcolor") == 2


def test_verify_output_deterministic(capsys):
    args = ("verify", "--builtin", "a3", "--suite", "consistency")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_enumerate_over_class_cap_is_usage_error(capsys, monkeypatch):
    # A3 has 14 torsion classes; a cap of 13 must stop the search.
    monkeypatch.setattr(torsion, "MAX_TORSION_CLASSES", 13)
    code, out, err = run(capsys, "enumerate", "--builtin", "a3")
    assert code == EXIT_USAGE
    assert out == ""
    assert "MAX_TORSION_CLASSES = 13" in err


def test_window_over_object_budget_is_usage_error(capsys, monkeypatch):
    # A3 has 6 indecomposables, so the default window holds 36 objects;
    # the check must come before the table is built.
    monkeypatch.setattr(derived, "MAX_WINDOW_OBJECTS", 35)

    def no_table(quiver):
        raise AssertionError("table built before the budget check")

    monkeypatch.setattr(cli, "enumerate_indecomposables", no_table)
    for command in ("verify", "lift", "classify", "export-ar"):
        argv = [command, "--builtin", "a3"]
        if command == "lift":
            argv += ["--torsion", "[]"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "MAX_WINDOW_OBJECTS = 35" in err


def test_window_at_object_budget_runs(capsys, monkeypatch):
    monkeypatch.setattr(derived, "MAX_WINDOW_OBJECTS", 36)
    code, _, _ = run(capsys, "verify", "--builtin", "a3", "--suite", "semipath")
    assert code == EXIT_OK


def test_kronecker_over_budgets_is_usage_error(capsys, monkeypatch):
    # the default model: 4 pivot layers x 5**3 tube thresholds = 500 scan
    # candidates, and 23 module objects in 6 degrees = 138 window objects
    monkeypatch.setattr(kronecker, "MAX_SCAN_CANDIDATES", 500)
    assert run(capsys, "verify", "--builtin", "kronecker")[0] == EXIT_OK
    monkeypatch.setattr(kronecker, "MAX_SCAN_CANDIDATES", 499)
    code, out, err = run(capsys, "verify", "--builtin", "kronecker")
    assert (code, out) == (EXIT_USAGE, "")
    assert "MAX_SCAN_CANDIDATES = 499" in err
    monkeypatch.setattr(kronecker, "MAX_SCAN_CANDIDATES", 500)
    monkeypatch.setattr(derived, "MAX_WINDOW_OBJECTS", 137)
    code, out, err = run(capsys, "transport", "--builtin", "kronecker")
    assert (code, out) == (EXIT_USAGE, "")
    assert "MAX_WINDOW_OBJECTS = 137" in err
    with pytest.raises(UnsupportedError):
        kronecker.default_model()
