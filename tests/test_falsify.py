"""What the verifiers catch: every single-entry Hom flip of the A3 and D4
tables, and every single-entry Ext flip of the A3 table.

Each entry is flipped, a nonzero one to 0 and a zero one to 1 (A3's 36
Hom and 36 Ext entries are each 0 or 1; D4's 144 Hom entries hold 0, 1
and 2), through ``verify --table-patch``, and ``verify --suite all``
runs on the patched table.  Every flip must fail some check.  The test
pins how many flips each check fails, ``*_internal`` included (a suite
that stops on inconsistent data before its own checks run), so a change
that makes a check catch more or fewer flips shows up here as a diff.

Five checks catch no Hom flip on either table today and read 0 below:
``lift_trace_roundtrip``, ``triangulated_iff_zero_heart``,
``ringel_witnesses_nonempty``, ``split_classification`` and
``tilting_complex_checks``.  A patch rewrites ``hom``, ``ext`` or both,
never the Hom bases or the AR arrows; on 19 Hom flips of A3 and 40 of
D4 the classify and cor64 suites stop as ``*_internal`` before their
own checks run.  An Ext flip breaks the Euler identity Hom - Ext = <x, y>
at its entry, so ``euler_identity`` catches all 36 and the consistency
suite, which reports its first failure only, never reaches
``ar_formula``.  The classify suite stops on every Ext flip, so
``split_classification`` never runs: on 14 at the internal cross-check
of ``HomMasks.ext_projectives``, on the other 22 at the Yoneda
cross-arrow validation, whose cokernel count of extension classes
disagrees with ``ext``; cor64 stops at the same cross-check on 33.
"""

import io
import json
from collections import Counter

import pytest

from aisles import cli
from aisles.cli import EXIT_FAIL
from aisles.quiver import BUILTIN_QUIVERS
from aisles.repcore import enumerate_indecomposables

CATCH_NONE = dict.fromkeys(
    [
        "lift_trace_roundtrip",
        "triangulated_iff_zero_heart",
        "ringel_witnesses_nonempty",
        "split_classification",
        "tilting_complex_checks",
    ],
    0,
)

# per builtin: its indecomposables, the values of its Hom table, and how
# many flips each check fails
FLIPS = {
    "a3": (6, {0, 1}, {
        **CATCH_NONE,
        "euler_identity": 28,
        "ar_formula": 8,
        "canonical_sequence_oracle": 21,
        "no_aisle_to_orthogonal_semipath": 6,
        "classify_internal": 19,
        "cor64_internal": 19,
    }),
    "d4": (12, {0, 1, 2}, {
        **CATCH_NONE,
        "euler_identity": 103,
        "ar_formula": 41,
        "canonical_sequence_oracle": 93,
        "no_aisle_to_orthogonal_semipath": 12,
        "classify_internal": 40,
        "cor64_internal": 40,
    }),
}


# A3's Ext flips: the checks that ran on some flip, and how many flips
# each failed
EXT_FLIPS_A3 = {
    "euler_identity": 36,
    "lift_trace_roundtrip": 0,
    "canonical_sequence_oracle": 0,
    "no_aisle_to_orthogonal_semipath": 0,
    "triangulated_iff_zero_heart": 0,
    "ringel_witnesses_nonempty": 0,
    "classify_internal": 36,
    "cor64_internal": 33,
    "tilting_complex_checks": 0,
}


def _flips_failed(builtin, field, tmp_path, monkeypatch):
    """Every single-entry flip of the table's ``field`` ("hom" or
    "ext"), each of which must fail some check: how many flips each
    check that ran on some flip failed."""
    table = enumerate_indecomposables(BUILTIN_QUIVERS[builtin]())
    values = getattr(table, field)
    n = len(table.entries)
    failed = Counter()
    ran = set()
    path = tmp_path / "flip.json"
    for i in range(n):
        for j in range(n):
            flipped = 0 if values[i][j] else 1
            path.write_text(json.dumps({field: [[i, j, flipped]]}))
            out = io.StringIO()
            monkeypatch.setattr(cli.sys, "stdout", out)
            code = cli.main(
                ["verify", "--builtin", builtin, "--suite", "all",
                 "--table-patch", str(path)]
            )
            checks = json.loads(out.getvalue())["checks"]
            caught = [c["name"] for c in checks if not c["pass"]]
            assert code == EXIT_FAIL and caught, (i, j)
            failed.update(caught)
            ran.update(c["name"] for c in checks)
    return {name: failed[name] for name in ran}


@pytest.mark.parametrize("builtin", sorted(FLIPS))
def test_every_hom_flip_fails_a_pinned_set_of_checks(builtin, tmp_path, monkeypatch):
    count, values, flips_failed = FLIPS[builtin]
    table = enumerate_indecomposables(BUILTIN_QUIVERS[builtin]())
    assert len(table.entries) == count
    assert {v for row in table.hom for v in row} == values
    assert _flips_failed(builtin, "hom", tmp_path, monkeypatch) == flips_failed


def test_every_ext_flip_fails_a_pinned_set_of_checks(a3_table, tmp_path, monkeypatch):
    assert {v for row in a3_table.ext for v in row} == {0, 1}
    assert _flips_failed("a3", "ext", tmp_path, monkeypatch) == EXT_FLIPS_A3
