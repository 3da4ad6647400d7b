"""CLI stdout and exit codes pinned byte for byte.

The fixtures under ``fixtures/golden`` were written before the code they
pin was last restructured: the first seven by the subset-scan torsion
enumeration, the others by the per-model Hom scans that the shared
Hom-mask core replaced.  Any change to enumeration order, witness
choice, pair content or JSON layout shows here.
"""

import pathlib

import pytest

from aisles.cli import EXIT_FAIL, EXIT_OK, main

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "golden"
FIXTURES = GOLDEN.parent
PATCH = str(FIXTURES / "falsified_hom.json")

CASES = [
    ("enumerate_a2.json", ["enumerate", "--builtin", "a2"], EXIT_OK),
    ("enumerate_a3.json", ["enumerate", "--builtin", "a3"], EXIT_OK),
    ("enumerate_a4.json", ["enumerate", "--builtin", "a4"], EXIT_OK),
    ("enumerate_d4.json", ["enumerate", "--builtin", "d4"], EXIT_OK),
    ("verify_d4.json", ["verify", "--builtin", "d4", "--suite", "all"], EXIT_OK),
    ("classify_a3.json", ["classify", "--builtin", "a3"], EXIT_OK),
    (
        "verify_kronecker.json",
        ["verify", "--builtin", "kronecker", "--suite", "all"],
        EXIT_OK,
    ),
    (
        "verify_a2_falsified.json",
        ["verify", "--builtin", "a2", "--table-patch", PATCH],
        EXIT_FAIL,
    ),
    (
        "verify_a3_falsified.json",
        ["verify", "--builtin", "a3", "--table-patch", PATCH],
        EXIT_FAIL,
    ),
    ("transport_kronecker.json", ["transport", "--builtin", "kronecker"], EXIT_OK),
    (
        "verify_kronecker_4_4_10.json",
        [
            "verify", "--builtin", "kronecker", "--tubes", "4",
            "--tube-depth", "4", "--range", "10",
        ],
        EXIT_OK,
    ),
    ("export_ar_a3.dot", ["export-ar", "--builtin", "a3"], EXIT_OK),
]


@pytest.mark.parametrize("name, argv, code", CASES, ids=[c[0] for c in CASES])
def test_cli_stdout_matches_golden(capsys, name, argv, code):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
