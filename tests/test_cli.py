import argparse
import io
import json
import pathlib
from collections import Counter

import pytest

from aisles import cli, derived, repcore, suites, torsion, tstruct
from aisles.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from aisles.derived import DEFAULT_WINDOW
from aisles.errors import UnsupportedError
from aisles.quiver import BUILTIN_QUIVERS
from aisles.repcore import enumerate_indecomposables
from aisles.suites import DYNKIN_SUITES, TORSION_SUITES
from reference import default_model

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_declares_what_subcommands_declare():
    """Each subcommand takes --quiver or --builtin, --window where its
    entry says so, the Kronecker options exactly when it runs on the
    Kronecker model, and its own arguments, in that order."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(cli.SUBCOMMANDS)
    for name, (func, _help, models, window, arguments) in cli.SUBCOMMANDS.items():
        flags = [a.option_strings[-1] for a in sub.choices[name]._actions]
        assert flags == [
            "--help", "--quiver", "--builtin", *["--window"] * window,
            *["--tubes", "--tube-depth", "--range"] * (cli.KRONECKER in models),
            *(flag for flag, _ in arguments),
        ], name
        assert sub.choices[name].get_default("func") is func


def test_enumerate_a2(capsys):
    code, out, _ = run(capsys, "enumerate", "--builtin", "a2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["count"] == 5
    assert len(payload["pairs"]) == 5


def test_enumerate_e7(capsys):
    code, out, _ = run(capsys, "enumerate", "--builtin", "e7")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["quiver"] == "E7"
    assert payload["count"] == 4160
    modules = {
        tuple(d) for tp in payload["pairs"] for d in tp["torsion"] + tp["free"]
    }
    assert len(modules) == 63


def test_enumerate_split_only(capsys):
    code, out, _ = run(capsys, "enumerate", "--builtin", "a2", "--split-only")
    assert code == EXIT_OK
    assert json.loads(out)["count"] == 4


def test_enumerate_deterministic(capsys):
    _, first, _ = run(capsys, "enumerate", "--builtin", "a3")
    _, second, _ = run(capsys, "enumerate", "--builtin", "a3")
    assert first == second


@pytest.mark.parametrize("split_only", [False, True], ids=["all", "split-only"])
@pytest.mark.parametrize("name", ["a2", "d4", "e6"])
def test_enumerate_streams_the_bytes_of_one_dump(capsys, name, split_only):
    """The pairs are written one at a time, and the bytes are those of
    one `json.dumps` of the whole payload."""
    table = enumerate_indecomposables(BUILTIN_QUIVERS[name]())
    pairs = [
        tp
        for tp in torsion.enumerate_torsion_pairs(table)
        if tp.split or not split_only
    ]
    payload = {
        "quiver": table.quiver.name,
        "count": len(pairs),
        "pairs": [torsion.pair_to_json(tp, table) for tp in pairs],
    }
    flag = ["--split-only"] if split_only else []
    code, out, _ = run(capsys, "enumerate", "--builtin", name, *flag)
    assert code == EXIT_OK
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "items",
    [[], [{"split": True, "free": [[0, 1]]}], [{}, [], [[]], "a\nb"]],
    ids=["empty", "one", "odd"],
)
def test_emit_list_writes_what_emit_writes(capsys, items):
    # a string value that holds the key's text cannot hold its newline
    payload = {"quiver": '\n  "pairs": []', "count": len(items), "z": {"y": []}}
    whole = {**payload, "pairs": items}
    cli.emit(whole)
    expected = capsys.readouterr().out
    assert expected == json.dumps(whole, indent=2, sort_keys=True) + "\n"
    cli.emit_list(payload, "pairs", iter(items))
    assert capsys.readouterr().out == expected


def test_enumerate_kronecker_is_usage_error(capsys):
    code, _, err = run(capsys, "enumerate", "--builtin", "kronecker")
    assert code == EXIT_USAGE
    assert err == (
        "error: enumerate runs on a Dynkin quiver only: the Kronecker model "
        "has no finite indecomposable table\n"
    )


@pytest.mark.parametrize("command", ["lift", "trace", "classify", "export-ar"])
def test_dynkin_subcommands_refuse_kronecker_unbuilt(capsys, monkeypatch, command):
    """The gate reads the models each subcommand declares in
    `cli.SUBCOMMANDS` before a table or model is built."""

    def unbuilt(*args):
        raise AssertionError("built before the model was checked")

    monkeypatch.setattr(cli, "load_table", unbuilt)
    monkeypatch.setattr(cli, "load_model", unbuilt)
    assert cli.SUBCOMMANDS[command][2] == (cli.DYNKIN,)
    extra = ["--torsion", "[]"] if command in ("lift", "trace") else []
    code, out, err = run(capsys, command, "--builtin", "kronecker", *extra)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        f"error: {command} runs on a Dynkin quiver only: the Kronecker "
        "model has no finite indecomposable table\n"
    )


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


SHAPE = "want a JSON list of dimension vectors of ints"


@pytest.mark.parametrize(
    "text, token",
    [
        ("[[1,2,3]]", "(1, 2, 3)"),
        ("nope", "'nope'"),
        ("{}", SHAPE),
        ('""', SHAPE),
        ("[[true,false]]", SHAPE),
        ("[[1.0,0]]", SHAPE),
        ("[1,0]", SHAPE),
        ('[["1","0"]]', SHAPE),
    ],
    ids=[
        "unknown-dimvec",
        "not-json",
        "object",
        "string",
        "bools",
        "floats",
        "flat-list",
        "string-entries",
    ],
)
def test_lift_malformed_torsion_is_usage_error(capsys, text, token):
    code, out, err = run(capsys, "lift", "--builtin", "a2", "--torsion", text)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: bad torsion class") and token in err


def test_lift_empty_torsion_class(capsys):
    code, out, _ = run(capsys, "lift", "--builtin", "a2", "--torsion", "[]")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["aisle"].keys() == {"1", "2", "3"}
    assert payload["heart"] == ["[0, 1]@1", "[1, 0]@1", "[1, 1]@1"]


def test_classify_a2(capsys):
    code, out, _ = run(capsys, "classify", "--builtin", "a2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pass"] is True
    assert any("scan" in case for case in payload["cases"])


@pytest.fixture
def a1_quiver(tmp_path):
    path = tmp_path / "a1.quiver"
    path.write_text("vertex 1\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [["classify"], ["verify", "--suite", "all"], ["verify", "--suite", "consistency"]],
    ids=["classify", "verify-all", "verify-consistency"],
)
def test_a1_is_refused_by_the_classification_by_sections(capsys, a1_quiver, argv):
    """A1 is Dynkin, but ZA1 has no arrows: no successor cone reaches a
    shift, so classify and verify exit 2 naming that reason before any
    suite runs, not 1 with every pivot failed."""
    code, out, err = run(capsys, *argv, "--quiver", a1_quiver)
    assert code == EXIT_USAGE and out == ""
    assert f"error: {argv[0]} needs a quiver with an arrow" in err
    assert "no successor cone reaches a shift" in err


def test_a1_still_lifts_traces_enumerates_and_exports(capsys, a1_quiver):
    code, out, _ = run(capsys, "lift", "--quiver", a1_quiver, "--torsion", "[[1]]")
    assert code == EXIT_OK
    assert json.loads(out)["heart"] == ["[1]@0"]
    code, out, _ = run(capsys, "trace", "--quiver", a1_quiver, "--torsion", "[[1]]")
    assert code == EXIT_OK and json.loads(out)["roundtrip"] is True
    code, out, _ = run(capsys, "enumerate", "--quiver", a1_quiver)
    assert code == EXIT_OK and json.loads(out)["count"] == 2
    code, out, _ = run(capsys, "export-ar", "--quiver", a1_quiver)
    assert code == EXIT_OK
    assert out.count("label=") == 6 and "->" not in out


def test_verify_clean_table(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "a2", "--suite", "all")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pass"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "euler_identity" in names
    assert "lift_trace_roundtrip" in names


@pytest.mark.parametrize("window", ["-2..0", "-1..1", "0..2", "0..3", "-3..0"])
@pytest.mark.parametrize("name", ["a2", "a3", "d4"])
def test_verify_all_passes_with_degree_0_or_1_on_the_window_edge(
    capsys, name, window
):
    """Lemma 4.1 reads the heart on interior degrees only, as it reads
    the aisle's down-closure."""
    code, out, _ = run(
        capsys, "verify", "--builtin", name, "--suite", "all", f"--window={window}"
    )
    assert code == EXIT_OK and json.loads(out)["pass"] is True


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


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"hom": [[99, 0, 1]]}', "entry [99, 0, 1]"),
        ("{hom", "bad table patch: Expecting property name"),
        ('{"hom": [[0, 0, "x"]]}', 'entry [0, 0, "x"]'),
        ('{"hom": [[-1, 0, 1]]}', "entry [-1, 0, 1]"),
        ('[[0, 0, "x"]]', 'want {"hom": [[i, j, value], ...]}'),
        ('{"ext": [[0, 6, 1]]}', "entry [0, 6, 1]"),
        ('{"hom": [], "ext": [[0, 0, -1]]}', "entry [0, 0, -1]"),
        ('{"ext": {"0": 1}}', 'want {"hom": [[i, j, value], ...]}, "ext" alike'),
        ('{"hom": [], "tau": []}', 'want {"hom": [[i, j, value], ...]}, "ext" alike'),
    ],
    ids=[
        "index-out-of-range",
        "not-json",
        "value-not-int",
        "negative-index",
        "not-an-object",
        "ext-index-out-of-range",
        "ext-negative-value",
        "ext-not-a-list",
        "unknown-key",
    ],
)
def test_verify_malformed_table_patch_is_usage_error(
    capsys, tmp_path, text, message
):
    path = tmp_path / "patch.json"
    path.write_text(text)
    code, out, err = run(
        capsys, "verify", "--builtin", "a2", "--table-patch", str(path)
    )
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: bad table patch") and message in err


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


@pytest.mark.parametrize("suite", ["all", "53"])
def test_verify_kronecker_too_small_for_suite_53_is_usage_error(
    capsys, monkeypatch, suite
):
    """Suite 53 tilts at Post(1) and Post(2), and a model of range 1 holds
    Post(0) and Post(1) only: refused before any suite runs."""

    def unrun(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "run_suites", unrun)
    code, out, err = run(
        capsys, "verify", "--builtin", "kronecker", "--suite", suite, "--range", "1"
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "error: suite 53 tilts at Post(1)@0, Post(2)@0: it needs --range 2 "
        "or more\n"
    )


def test_verify_kronecker_63b_runs_at_range_1(capsys):
    code, out, _ = run(
        capsys, "verify", "--builtin", "kronecker", "--suite", "63b", "--range", "1"
    )
    assert code == EXIT_OK
    assert json.loads(out) == {
        "checks": [{"name": "tame_split_classification", "pass": True, "cases": 32}],
        "pass": True,
    }


def test_verify_unknown_suite(capsys, monkeypatch):
    """An unknown suite is refused before any table or model is built."""

    def unbuilt(*args):
        raise AssertionError("built before the suite name was checked")

    monkeypatch.setattr(cli, "enumerate_indecomposables", unbuilt)
    monkeypatch.setattr(cli, "load_model", unbuilt)
    for builtin, known in (
        ("a2", "consistency"), ("e8", "cor64"), ("kronecker", "63b")
    ):
        code, out, err = run(
            capsys, "verify", "--builtin", builtin, "--suite", "nonsense"
        )
        assert code == EXIT_USAGE and out == ""
        assert "unknown suite 'nonsense': want all, " in err and known in err


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


@pytest.mark.parametrize("tilting", ["post(1),POST(2)", " Post(1) , pOsT(2)\t"])
def test_transport_summands_ignore_case_and_surrounding_spaces(capsys, tilting):
    argv = ["transport", "--builtin", "kronecker", "--range", "4", "--tilting"]
    want = run(capsys, *argv, "Post(1),Post(2)")
    assert want[0] == EXIT_OK
    assert run(capsys, *argv, tilting) == want


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--tilting", "Post(x)"], "cannot parse tilting summand 'Post(x)'"),
        (
            ["--tilting", "post(1))),post(2"],
            "cannot parse tilting summand 'post(1)))'",
        ),
        (["--tilting", "Post(1),Post(2"], "cannot parse tilting summand 'Post(2'"),
        (["--tilting", "Post1),Pre(2)"], "cannot parse tilting summand 'Post1)'"),
        (["--tilting", "Post(1)x,Pre(2)"], "cannot parse tilting summand 'Post(1)x'"),
        (["--tilting", "Post(1),"], "cannot parse tilting summand ''"),
        (["--tilting", "Post(1),Post(3)"], "not a tilting set: ext("),
        (
            ["--range", "6", "--tilting", "Post(7),Post(8)"],
            "tilting summand Post(7)@0 is not an object of the model",
        ),
    ],
    ids=[
        "unparsable", "extra-parens", "unclosed", "unopened", "trailing-text",
        "empty-summand", "not-rigid", "outside-model",
    ],
)
def test_transport_bad_tilting_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, "transport", "--builtin", "kronecker", *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv",
    [["--builtin", "d5"], ["--quiver", str(FIXTURES / "a2.quiver")], []],
    ids=["builtin-d5", "quiver-file", "no-model"],
)
def test_transport_without_kronecker_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "transport", *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "error: transport runs on the Kronecker model only: use --builtin "
        "kronecker\n"
    )


@pytest.mark.parametrize("window", ["0..2", "-2..0"])
@pytest.mark.parametrize(
    "command",
    [["verify", "--suite", "all"], ["transport"]],
    ids=["verify", "transport"],
)
def test_kronecker_refuses_degree_0_on_the_window_edge(capsys, command, window):
    """The three-way bijection lifts at pivot 0, which must be interior:
    the model is refused by name and reason before any check fails."""
    code, out, err = run(
        capsys, command[0], "--builtin", "kronecker", *command[1:], f"--window={window}"
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        f"error: window {window} has degree 0 on its edge: the three-way "
        "bijection lifts each base pair at pivot 0, and split aisles are "
        "classified at interior pivots only\n"
    )


def test_kronecker_passes_on_the_narrowest_window(capsys):
    code, out, _ = run(
        capsys, "verify", "--builtin", "kronecker", "--suite", "all", "--window=-1..1"
    )
    checks = {c["name"]: (c["pass"], c["cases"]) for c in json.loads(out)["checks"]}
    assert code == EXIT_OK
    assert checks == {
        "tame_split_classification": (True, 8),
        "three_way_bijection": (True, 8),
    }
    code, out, _ = run(capsys, "transport", "--builtin", "kronecker", "--window=-1..1")
    payload = json.loads(out)
    assert code == EXIT_OK and payload["pass"] is True
    assert len(payload["cases"]) == 8


def test_verify_kronecker_table_patch_is_usage_error(capsys):
    code, out, err = run(
        capsys, "verify", "--builtin", "kronecker",
        "--table-patch", str(FIXTURES / "falsified_hom.json"),
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "error: --table-patch patches a Dynkin Hom table; the Kronecker "
        "model has none\n"
    )


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--builtin", "a2", "--suite", "consistency", "--tubes", "9",
          "--range", "99"], "--tubes"),
        (["--builtin", "a2", "--tube-depth", "2"], "--tube-depth"),
        (["--quiver", str(FIXTURES / "a2.quiver"), "--range", "6"], "--range"),
    ],
    ids=["tubes", "tube-depth", "range"],
)
def test_verify_dynkin_refuses_kronecker_options(capsys, argv, flag):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        f"error: {flag} shapes the Kronecker model; a Dynkin quiver takes "
        "none\n"
    )


def _argparse_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (EXIT_USAGE, "")
    return captured.err.splitlines()[-1]


@pytest.mark.parametrize("command", ["verify", "transport"])
def test_kronecker_with_quiver_file_is_usage_error(capsys, command):
    err = _argparse_error(
        capsys, command, "--builtin", "kronecker",
        "--quiver", str(FIXTURES / "malformed.quiver"),
    )
    assert err == (
        f"aisles {command}: error: argument --quiver: not allowed with "
        "argument --builtin"
    )


def test_enumerate_refuses_window(capsys):
    err = _argparse_error(capsys, "enumerate", "--builtin", "a2", "--window", "5..1")
    assert err == "aisles: error: unrecognized arguments: --window 5..1"


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


def test_enumerate_over_class_cap_is_usage_error(capsys, monkeypatch, a3_table):
    # A3 has 14 torsion classes; a cap of 13 stops the closure search,
    # and the CLI refuses A3 before it builds the table
    monkeypatch.setattr(torsion, "MAX_TORSION_CLASSES", 13)
    with pytest.raises(UnsupportedError, match="MAX_TORSION_CLASSES = 13"):
        torsion.torsion_masks(a3_table)
    code, out, err = run(capsys, "enumerate", "--builtin", "a3")
    assert code == EXIT_USAGE
    assert out == ""
    assert "MAX_TORSION_CLASSES = 13" in err


CLASS_CAP_ERROR = (
    "error: more than MAX_TORSION_CLASSES = 60000 torsion classes; "
    "enumeration stopped at the class cap\n"
)


def _linear_quiver(tmp_path, n):
    """The file of the linear quiver 1 -> 2 -> ... -> n."""
    path = tmp_path / f"a{n}.quiver"
    path.write_text(
        "".join(f"vertex {v}\n" for v in range(1, n + 1))
        + "".join(f"arrow a{v}: {v} -> {v + 1}\n" for v in range(1, n))
    )
    return path


def test_enumerate_refuses_a_quiver_over_the_class_cap_unbuilt(
    capsys, monkeypatch, tmp_path
):
    # linear A11 has Cat(12) = 208,012 torsion classes
    path = _linear_quiver(tmp_path, 11)

    def no_table(quiver):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "enumerate_indecomposables", no_table)
    code, out, err = run(capsys, "enumerate", "--quiver", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == CLASS_CAP_ERROR


@pytest.mark.parametrize(
    "n, argv", [(11, ["verify", "--suite", "classify"]), (13, ["classify"])],
    ids=["verify-a11", "classify-a13"],
)
def test_classify_refuses_a_quiver_over_the_class_cap_unsearched(
    capsys, monkeypatch, tmp_path, n, argv
):
    """The closure search reads the class count of the quiver before it
    starts; `lift`, `trace`, `export-ar` and the consistency suite,
    which enumerate no torsion class, still run on A11."""
    path = str(_linear_quiver(tmp_path, n))

    def no_search(table):
        raise AssertionError("the closure search started")

    monkeypatch.setattr(torsion, "_relation", no_search)
    code, out, err = run(capsys, *argv, "--quiver", path)
    assert (code, out, err) == (EXIT_USAGE, "", CLASS_CAP_ERROR)
    monkeypatch.undo()
    if n == 11:
        for other in (["lift", "--torsion", "[]"], ["trace", "--torsion", "[]"],
                      ["export-ar"], ["verify", "--suite", "consistency"]):
            assert run(capsys, *other, "--quiver", path)[0] == EXIT_OK, other


class _Built(Exception):
    """Raised in place of building a table."""


@pytest.mark.parametrize(
    "argv",
    [["classify"], ["verify"]]
    + [["verify", "--suite", key] for key in sorted(TORSION_SUITES)],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv),
)
def test_a_run_that_enumerates_refuses_a_quiver_over_the_class_cap_unbuilt(
    capsys, monkeypatch, tmp_path, argv
):
    """Linear A30 at -1..2 (1,860 window objects, within
    MAX_WINDOW_OBJECTS) is refused from its Dynkin type before the table
    is built by every run that enumerates torsion pairs; the consistency
    suite, which enumerates none, goes on to build it."""
    path = str(_linear_quiver(tmp_path, 30))

    def no_table(quiver):
        raise _Built

    monkeypatch.setattr(cli, "enumerate_indecomposables", no_table)
    code, out, err = run(capsys, *argv, "--quiver", path, "--window=-1..2")
    assert (code, out, err) == (EXIT_USAGE, "", CLASS_CAP_ERROR)
    with pytest.raises(_Built):
        cli.main(["verify", "--suite", "consistency", "--quiver", path,
                  "--window=-1..2"])


def test_torsion_suites_are_those_that_enumerate(monkeypatch, a3_table):
    """`TORSION_SUITES` names exactly the Dynkin suites that run the
    closure search, so `verify` refuses a quiver over the class cap for
    those selections and only those."""
    searched = []
    masks = torsion.torsion_masks

    def recording(table):
        searched.append(table)
        return masks(table)

    monkeypatch.setattr(torsion, "torsion_masks", recording)
    for key, suite in DYNKIN_SUITES.items():
        searched.clear()
        suite(a3_table.copy(), DEFAULT_WINDOW)
        assert bool(searched) == (key in TORSION_SUITES), key


def test_a2_converse_scan_over_budget_is_usage_error(capsys, monkeypatch):
    """A2's three modules over a window of width hi - lo take width**3
    scan candidates: width 100 is exactly MAX_SCAN_CANDIDATES and runs,
    width 101 is refused before any suite runs."""
    assert run(capsys, "classify", "--builtin", "a2", "--window=-50..50")[0] == EXIT_OK

    def no_suites(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "run_suites", no_suites)
    message = (
        "error: 3 modules over 102 degrees exceed MAX_SCAN_CANDIDATES = "
        "1000000 split-aisle scan candidates; use a narrower window\n"
    )
    for argv in (["classify", "--window=-50..51"],
                 ["verify", "--window=-51..50"],
                 ["verify", "--window=-51..50", "--suite", "classify"]):
        code, out, err = run(capsys, *argv, "--builtin", "a2")
        assert (code, out, err) == (EXIT_USAGE, "", message), argv
    monkeypatch.undo()
    code, _, _ = run(
        capsys, "verify", "--builtin", "a2", "--window=-51..50", "--suite", "cor64"
    )
    assert code == EXIT_OK


@pytest.mark.parametrize("flag", [[], ["--split-only"]], ids=["all", "split-only"])
def test_enumerate_builds_each_pair_as_it_writes_it(monkeypatch, flag):
    """The closure search keeps bitmasks only: each `TorsionPair` is built
    after the pairs before it, and the payload's head, are written."""
    out = io.StringIO()
    monkeypatch.setattr(cli.sys, "stdout", out)
    written = []
    pair_of_masks = torsion.pair_of_masks

    def recording(*args):
        written.append(out.tell())
        return pair_of_masks(*args)

    monkeypatch.setattr(torsion, "pair_of_masks", recording)
    assert main(["enumerate", "--builtin", "d4", *flag]) == EXIT_OK
    payload = json.loads(out.getvalue())
    assert len(written) == payload["count"] == (25 if flag else 50)
    assert 0 < written[0] and all(map(int.__lt__, written, written[1:]))


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
    monkeypatch.setattr(derived, "MAX_SCAN_CANDIDATES", 500)
    assert run(capsys, "verify", "--builtin", "kronecker")[0] == EXIT_OK
    monkeypatch.setattr(derived, "MAX_SCAN_CANDIDATES", 499)
    code, out, err = run(capsys, "verify", "--builtin", "kronecker")
    assert (code, out) == (EXIT_USAGE, "")
    assert "MAX_SCAN_CANDIDATES = 499" in err
    monkeypatch.setattr(derived, "MAX_SCAN_CANDIDATES", 500)
    monkeypatch.setattr(derived, "MAX_WINDOW_OBJECTS", 137)
    code, out, err = run(capsys, "transport", "--builtin", "kronecker")
    assert (code, out) == (EXIT_USAGE, "")
    assert "MAX_WINDOW_OBJECTS = 137" in err
    with pytest.raises(UnsupportedError):
        default_model()


def test_cor64_suite_computes_ext_projectives_once(a3_table, window, monkeypatch):
    """One Ext-projective computation per split t-structure: the suite
    hands its set to verify_cor64 instead of having it recomputed."""
    calls = 0
    compute = tstruct.ext_projectives

    def counting(ts, table):
        nonlocal calls
        calls += 1
        return compute(ts, table)

    monkeypatch.setattr(tstruct, "ext_projectives", counting)
    structures = tstruct.enumerate_split_tstructures(
        a3_table, window, suites.split_pairs(a3_table)
    )
    assert suites.suite_cor64(a3_table, window) == [
        {"name": "tilting_complex_checks", "pass": True, "cases": len(structures)}
    ]
    assert calls == len(structures)


@pytest.mark.parametrize(
    "patch", [None, [[4, 0, 1]], [[0, 0, 0]]], ids=["fixture", "torsion", "free"]
)
def test_oracle_warm_memo_keeps_the_first_witness(a3_table, tmp_path, patch):
    """The oracle over every pair and module, twice on one patched table:
    the second sweep reads the memo the first one filled and must stop
    at the same first witness.  The fixture patch leaves the oracle
    passing; the other two make it fail on the torsion or the free side."""
    path = FIXTURES / "falsified_hom.json"
    if patch is not None:
        path = tmp_path / "patch.json"
        path.write_text(json.dumps({"hom": patch}))
    table = cli.apply_table_patch(a3_table, str(path))
    pairs = torsion.enumerate_torsion_pairs(table)
    first = suites._oracle_check(pairs, table)
    assert "oracle_cases" in table.memo
    assert suites._oracle_check(pairs, table) == first
    assert first["pass"] is (patch is None)
    if patch is not None:
        side = "/trace)" if patch == [[4, 0, 1]] else "Hom(trace("
        assert side in first["witness"]


def test_roundtrip_suite_solves_each_certificate_once(window, monkeypatch):
    """Each distinct oracle certificate is one Hom solve: the builtin D5
    has 182 pairs x 20 modules, and solving every certificate of every
    call would be tens of thousands of solves."""
    table = enumerate_indecomposables(BUILTIN_QUIVERS["d5"]())
    calls = 0
    solve = torsion.hom_space

    def counting(M, N):
        nonlocal calls
        calls += 1
        return solve(M, N)

    monkeypatch.setattr(torsion, "hom_space", counting)
    assert suites.suite_roundtrip(table, window) == [
        {"name": "lift_trace_roundtrip", "pass": True, "cases": 182},
        {"name": "canonical_sequence_oracle", "pass": True, "cases": 182 * 20},
    ]
    assert 0 < calls <= 4000
    # the suite leaves no oracle memo behind for the later suites
    assert not [k for k in table.memo if str(k).startswith("oracle_")]


def test_oracle_builds_each_image_and_checks_each_pair_once(monkeypatch):
    """On the builtin D5 (182 pairs x 20 modules): the torsion-pair
    axioms are checked once per pair, each image of Hom(i, y) is reduced
    once, the 687 (module, members with a Hom into it) keys of the
    oracle come down to at most 150 trace builds, for 95 distinct
    traces, and each certificate is solved once per subobject or
    quotient value."""
    table = enumerate_indecomposables(BUILTIN_QUIVERS["d5"]())
    pairs = torsion.enumerate_torsion_pairs(table)
    seen = []
    names = ("is_torsion_pair", "trace_subrepresentation", "_image", "hom_space")
    for name in names:

        def counting(*args, name=name, inner=getattr(torsion, name)):
            seen.append((name, args[:2]))
            return inner(*args)

        monkeypatch.setattr(torsion, name, counting)
    assert suites._oracle_check(pairs, table)["pass"]
    assert suites._oracle_check(pairs, table)["pass"]
    calls = Counter(name for name, _ in seen)
    assert calls["is_torsion_pair"] == len(pairs) == 182
    n = len(table.entries)
    nonzero = [(i, y) for i in range(n) for y in range(n) if table.hom_bases[i][y]]
    assert sorted(args for name, args in seen if name == "_image") == nonzero
    distinct = len(table.memo["oracle_cases"])
    assert distinct == 95
    assert distinct <= calls["trace_subrepresentation"] <= 150
    solved = table.memo["oracle_certificates"].values()
    # each certificate is a [certified, nonzero] pair of module masks
    count = sum((certified | nonzero).bit_count() for certified, nonzero in solved)
    assert calls["hom_space"] == count == 818


def test_oracle_certificates_are_all_proved_zero_mod_2(monkeypatch):
    """On the builtin D5 every certificate the oracle solves is a zero
    Hom space whose system has full rank mod 2: none is eliminated.  The
    table's own bases, solved on first read, are read before counting."""
    table = enumerate_indecomposables(BUILTIN_QUIVERS["d5"]())
    pairs = torsion.enumerate_torsion_pairs(table)
    assert table.hom_bases
    eliminated = 0
    eliminate = repcore.eliminate

    def counting(rows):
        nonlocal eliminated
        eliminated += 1
        return eliminate(rows)

    monkeypatch.setattr(repcore, "eliminate", counting)
    assert suites._oracle_check(pairs, table)["pass"]
    assert eliminated == 0 and table.memo["oracle_certificates"]


def test_lift_leaves_the_fraction_hom_bases_unformed(capsys, monkeypatch):
    """`lift`, `trace` and `enumerate` read the Hom and Ext dimensions
    only: no Hom system is formed, and neither the Hom bases (integer or
    `Fraction`) nor the AR arrows of the table are solved."""
    tables = []
    build = cli.enumerate_indecomposables
    systems = []
    hom_system = repcore.hom_system

    def keeping(quiver):
        tables.append(build(quiver))
        return tables[-1]

    def recording(M, N):
        systems.append((M, N))
        return hom_system(M, N)

    monkeypatch.setattr(cli, "enumerate_indecomposables", keeping)
    monkeypatch.setattr(repcore, "hom_system", recording)
    torsion_class = ["--torsion", "[[1,0,0,0,0,0]]"]
    for argv in (["lift", *torsion_class], ["trace", *torsion_class], ["enumerate"]):
        code, _, _ = run(capsys, argv[0], "--builtin", "e6", *argv[1:])
        assert code == EXIT_OK
    assert len(tables) == 3
    for table in tables:
        assert "hom_bases" not in vars(table)
        assert table.solved.vectors is None and table.solved.arrows is None
    assert systems == []


@pytest.mark.parametrize(
    "patch",
    [{"ext": [[0, 0, 1]]}, {"hom": [[0, 1, 5]], "ext": [[0, 0, 1], [5, 0, 2]]}],
    ids=["ext", "hom-and-ext"],
)
def test_table_patch_takes_ext_alone_or_beside_hom(a3_table, tmp_path, patch):
    """Each listed entry is overwritten in its own table, the other
    entries and the unpatched table stay as built."""
    path = tmp_path / "patch.json"
    path.write_text(json.dumps(patch))
    patched = cli.apply_table_patch(a3_table, str(path))
    for key in ("hom", "ext"):
        want = [list(row) for row in getattr(a3_table, key)]
        for i, j, value in patch.get(key, []):
            want[i][j] = value
        assert [list(row) for row in getattr(patched, key)] == want, key
    assert patched.ext != a3_table.ext
    assert patched.copy().ext == patched.ext
    assert patched.hom_vectors is a3_table.hom_vectors


def test_table_patch_copy_forms_the_same_hom_bases(a3_table):
    table = a3_table.copy()
    patched = cli.apply_table_patch(table, str(FIXTURES / "falsified_hom.json"))
    assert patched.hom != table.hom
    assert "hom_bases" not in vars(patched)
    assert patched.hom_vectors is table.hom_vectors
    assert patched.hom_bases == table.hom_bases


@pytest.mark.parametrize("arrow_patch", [False, True], ids=["fixture", "arrow"])
def test_table_patch_copy_reads_the_same_ar_arrows(tmp_path, arrow_patch):
    """A patched copy read first solves the arrows for the original too:
    neither reads the patched ``hom``, also where it moves the Hom
    dimension of an AR arrow."""
    table = enumerate_indecomposables(BUILTIN_QUIVERS["a3"]())
    path = FIXTURES / "falsified_hom.json"
    if arrow_patch:
        i, j = enumerate_indecomposables(table.quiver).ar_arrows[0]
        path = tmp_path / "arrow.json"
        path.write_text(json.dumps({"hom": [[i, j, 2]]}), encoding="utf-8")
    patched = cli.apply_table_patch(table, str(path))
    assert patched.hom != table.hom
    arrows = patched.ar_arrows
    assert table.ar_arrows is arrows
    assert arrows == enumerate_indecomposables(table.quiver).ar_arrows


JSON_INPUTS = {
    "--torsion": "lift", "--table-patch": "verify", "--color-file": "export-ar"
}


@pytest.mark.parametrize(
    "flag, text, message",
    [
        ("--torsion", "[[1,", "bad torsion class '[[1,': Expecting value"),
        ("--torsion", "{}", "bad torsion class '{}': want a JSON list"),
        ("--table-patch", "[[1,", "bad table patch: Expecting value"),
        ("--table-patch", "{}", 'bad table patch: want {"hom"'),
        ("--table-patch", None, "bad table patch: [Errno 2] No such file"),
        ("--color-file", "[[1,", "bad coloring file: Expecting value"),
        ("--color-file", "{}", 'bad coloring file: want an object {"members"'),
        ("--color-file", None, "bad coloring file: [Errno 2] No such file"),
    ],
)
def test_json_inputs_report_their_faults_in_one_wording(
    capsys, tmp_path, flag, text, message
):
    """Malformed JSON, a wrong shape and a missing file each read
    ``bad <input>: <reason>``."""
    value = text
    if flag != "--torsion":
        value = str(tmp_path / "input.json")
        if text is not None:
            (tmp_path / "input.json").write_text(text, encoding="utf-8")
    code, out, err = run(capsys, JSON_INPUTS[flag], "--builtin", "a2", flag, value)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"error: {message}"), err


def test_color_file_unknown_dimvec_is_usage_error(capsys, tmp_path):
    path = tmp_path / "color.json"
    path.write_text('{"members": [[[2, 2], 0]]}', encoding="utf-8")
    code, out, err = run(
        capsys, "export-ar", "--builtin", "a2", "--color-file", str(path)
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "error: bad coloring file: no indecomposable with dimension vector "
        "(2, 2)\n"
    )


def test_quiver_file_not_utf8_is_usage_error(capsys, tmp_path):
    path = tmp_path / "binary.quiver"
    path.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
    code, out, err = run(capsys, "enumerate", "--quiver", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "is not UTF-8 text" in err


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        '"members"',
        "3",
        "null",
        "{}",
        '{"other": 1}',
        '{"members": {}}',
        '{"members": [[[1, 0], 0], [[0, 1], 1]], "other": 1}',
        '{"members": [[[1, 0], 0.5]]}',
        '{"members": [[[1, 0], "1"]]}',
        '{"members": [[[1, 0], true]]}',
        '{"members": [[[1.0, 0], 1]]}',
    ],
)
def test_export_ar_color_file_not_an_object_is_usage_error(
    capsys, tmp_path, text
):
    path = tmp_path / "color.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(
        capsys, "export-ar", "--builtin", "a2", "--color-file", str(path)
    )
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: bad coloring file")


def test_export_ar_color_member_outside_the_window_is_usage_error(
    capsys, tmp_path
):
    """The member is named as the file writes it, with the window."""
    path = tmp_path / "color.json"
    path.write_text('{"members": [[[1, 0, 0, 0], 9]]}', encoding="utf-8")
    code, out, err = run(
        capsys, "export-ar", "--builtin", "d4", "--color-file", str(path)
    )
    assert code == EXIT_USAGE and out == ""
    assert err == "error: member [1, 0, 0, 0]@9 outside the window -2..3\n"


def test_verify_all_enumerates_torsion_pairs_once(capsys, monkeypatch, a3_table):
    """The five suites share one enumeration per table; a patched copy
    starts with an empty memo and enumerates its own pairs."""
    calls = 0
    enumerate_pairs = torsion.enumerate_torsion_pairs

    def counting(table):
        nonlocal calls
        calls += 1
        return enumerate_pairs(table)

    monkeypatch.setattr(torsion, "enumerate_torsion_pairs", counting)
    code, _, _ = run(capsys, "verify", "--builtin", "a3", "--suite", "all")
    assert code == EXIT_OK and calls == 1
    table = a3_table.copy()
    pairs = suites._pairs(table)
    assert suites._pairs(table) is pairs and calls == 2
    patched = cli.apply_table_patch(table, str(FIXTURES / "falsified_hom.json"))
    assert suites._pairs(patched) == enumerate_pairs(patched) != pairs
    assert calls == 3
