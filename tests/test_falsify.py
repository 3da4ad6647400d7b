"""What the verifiers catch: every single-entry Hom flip of the A3 table.

Each of the 36 entries of A3's Hom table (each 0 or 1) is flipped
(0 <-> 1) through ``verify --table-patch``, and ``verify --suite all``
runs on the patched table.  Every flip must fail some check.  The test
pins how many flips each check fails, ``*_internal`` included (a suite
that stops on inconsistent data before its own checks run), so a change
that makes a check catch more or fewer flips shows up here as a diff.

Five checks catch no flip today and read 0 below:
``lift_trace_roundtrip``, ``triangulated_iff_zero_heart``,
``ringel_witnesses_nonempty``, ``split_classification`` and
``tilting_complex_checks``.  The patch rewrites ``hom`` only, never
``ext``, the Hom bases or the AR arrows; on 19 flips the classify and
cor64 suites stop as ``*_internal`` before their own checks run.
"""

import io
import json
from collections import Counter

from aisles import cli
from aisles.cli import EXIT_FAIL
from aisles.quiver import BUILTIN_QUIVERS
from aisles.repcore import enumerate_indecomposables

FLIPS_FAILED = {
    "euler_identity": 28,
    "ar_formula": 8,
    "lift_trace_roundtrip": 0,
    "canonical_sequence_oracle": 21,
    "no_aisle_to_orthogonal_semipath": 6,
    "triangulated_iff_zero_heart": 0,
    "ringel_witnesses_nonempty": 0,
    "classify_internal": 19,
    "split_classification": 0,
    "cor64_internal": 19,
    "tilting_complex_checks": 0,
}


def test_every_a3_hom_flip_fails_a_pinned_set_of_checks(tmp_path, monkeypatch):
    table = enumerate_indecomposables(BUILTIN_QUIVERS["a3"]())
    n = len(table.entries)
    assert n == 6 and {v for row in table.hom for v in row} == {0, 1}
    failed = Counter()
    ran = set()
    path = tmp_path / "flip.json"
    for i in range(n):
        for j in range(n):
            path.write_text(json.dumps({"hom": [[i, j, 1 - table.hom[i][j]]]}))
            out = io.StringIO()
            monkeypatch.setattr(cli.sys, "stdout", out)
            code = cli.main(
                ["verify", "--builtin", "a3", "--suite", "all",
                 "--table-patch", str(path)]
            )
            checks = json.loads(out.getvalue())["checks"]
            caught = [c["name"] for c in checks if not c["pass"]]
            assert code == EXIT_FAIL and caught, (i, j)
            failed.update(caught)
            ran.update(c["name"] for c in checks)
    assert {name: failed[name] for name in ran} == FLIPS_FAILED
