"""CLI stdout pinned byte for byte.

The fixtures under ``fixtures/golden`` were written by the subset-scan
torsion enumeration that the closure search replaced; any change to
enumeration order, pair content or JSON layout shows here.
"""

import pathlib

import pytest

from aisles.cli import EXIT_OK, main

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "golden"

CASES = [
    ("enumerate_a2.json", ["enumerate", "--builtin", "a2"]),
    ("enumerate_a3.json", ["enumerate", "--builtin", "a3"]),
    ("enumerate_a4.json", ["enumerate", "--builtin", "a4"]),
    ("enumerate_d4.json", ["enumerate", "--builtin", "d4"]),
    ("verify_d4.json", ["verify", "--builtin", "d4", "--suite", "all"]),
    ("classify_a3.json", ["classify", "--builtin", "a3"]),
    (
        "verify_kronecker.json",
        ["verify", "--builtin", "kronecker", "--suite", "all"],
    ),
]


@pytest.mark.parametrize("name, argv", CASES, ids=[c[0] for c in CASES])
def test_cli_stdout_matches_golden(capsys, name, argv):
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
