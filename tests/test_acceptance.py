"""Acceptance gate: one check per shipped guarantee, one PASS/FAIL line each.

Every test funnels through ``_gate`` so the verdict line is printed even
when the underlying assertions fail.
"""

import json
import pathlib

import pytest

from aisles.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, apply_table_patch, main
from aisles.derived import Window
from aisles.kronecker import (
    hom_rule,
    post,
    pre,
    reg,
    verify_63b,
)
from aisles.errors import TiltingUnsupportedError
from aisles.repcore import euler_form, hom_space
from aisles.suites import DYNKIN_SUITES, check_table_consistency, run_suites
from aisles.torsion import canonical_sequence_oracle, enumerate_torsion_pairs
from aisles.transport import (
    KroneckerContext,
    TiltingSet,
    heart_realization,
    verify_theorem53,
)
from aisles.tstruct import (
    classify_split,
    enumerate_split_tstructures,
    ext_projectives,
    lift,
    ringel_criterion,
    trace,
    verify_cor64,
    verify_lemma41,
    verify_lemma42,
)
from reference import default_model, explicit_representation

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
WINDOW = Window(-2, 3)


def _gate(name, fn):
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def _split_pairs(table):
    return [tp for tp in enumerate_torsion_pairs(table) if tp.split]


def test_torsion_pair_enumeration(a2_table, a3_table):
    def check():
        a2_pairs = enumerate_torsion_pairs(a2_table)
        assert len(a2_pairs) == 5
        assert sum(tp.split for tp in a2_pairs) == 4
        a3_pairs = enumerate_torsion_pairs(a3_table)
        assert len(a3_pairs) == 14
        for table, pairs in ((a2_table, a2_pairs), (a3_table, a3_pairs)):
            for tp in pairs:
                for y in range(len(table.entries)):
                    sub, quot = canonical_sequence_oracle(y, tp, table)
                    assert (
                        sub.total_dim() + quot.total_dim()
                        == table.entries[y].rep.total_dim()
                    )

    _gate("torsion-pair-enumeration", check)


def test_lift_trace_inverse_bijections(a2_table, a3_table, d4_table):
    def check():
        for table in (a2_table, a3_table, d4_table):
            for tp in enumerate_torsion_pairs(table):
                ts = lift(tp, table, WINDOW)
                back = trace(ts, table)
                assert back == tp
                again = lift(back, table, WINDOW)
                assert again.aisle == ts.aisle
                assert again.coaisle == ts.coaisle

    _gate("lift-trace-roundtrip", check)


def test_euler_and_translate_consistency(a2_table, a3_table, d4_table):
    def check():
        for table in (a2_table, a3_table, d4_table):
            n = len(table.entries)
            for i in range(n):
                for j in range(n):
                    assert table.hom[i][j] - table.ext[i][j] == euler_form(
                        table.quiver,
                        table.entries[i].dimvec,
                        table.entries[j].dimvec,
                    )
                    t = table.entries[i].tau
                    want = 0 if t is None else table.hom[j][t]
                    assert table.ext[i][j] == want
            assert all(c["pass"] for c in check_table_consistency(table))

    _gate("euler-translate-consistency", check)


def test_ext_projective_dichotomy(a2_table):
    def check():
        n_vertices = len(a2_table.quiver.vertices)
        report = classify_split(a2_table, WINDOW, _split_pairs(a2_table))
        assert report
        assert all(case["pass"] for case in report)
        scans = [case for case in report if "scan" in case]
        assert scans and scans[0]["pass"]
        for case in report:
            if "scan" in case:
                continue
            count = len(case["ext_projectives"])
            assert count in (0, n_vertices)
            if count:
                assert case["checks"]["section"]
                assert case["checks"]["successors_reproduce_aisle"]

    _gate("ext-projective-dichotomy", check)


def test_semipath_separation_and_falsifiability(a2_table, a3_table):
    def check():
        for table in (a2_table, a3_table):
            for tp in _split_pairs(table):
                ts = lift(tp, table, WINDOW)
                ok, witness = verify_lemma42(ts, table)
                assert ok and witness is None
                assert verify_lemma41(ts, table)
            assert ringel_criterion(table, WINDOW)
        patched = apply_table_patch(a2_table, FIXTURES / "falsified_hom.json")
        checks = run_suites(DYNKIN_SUITES, patched, WINDOW, "all")
        assert not all(c["pass"] for c in checks)

    _gate("semipath-separation", check)


def test_tame_split_classification():
    def check():
        model = default_model()
        report = verify_63b(model)
        assert report["pass"]
        assert len(report["cases"]) == 32
        assert report["converse_scan"]["pass"]
        lam = {"t0": 0, "t1": 1, "t2": 7}
        samples = [post(0), post(2), reg("t0", 2), reg("t1", 1), pre(0), pre(2)]
        reps = {x: explicit_representation(x, lam) for x in samples}
        for x in samples:
            for y in samples:
                assert hom_space(reps[x], reps[y])[0] == hom_rule(x, y)

    _gate("tame-split-classification", check)


def test_three_way_bijection():
    def check():
        model = default_model()
        report = verify_theorem53(
            model, TiltingSet(frozenset({post(1), post(2)}))
        )
        assert report["pass"]
        assert report["cardinalities"] == {
            "base_pairs": 8,
            "aisles": 8,
            "heart_pairs": 8,
        }
        ctx = KroneckerContext(model)
        with pytest.raises(TiltingUnsupportedError) as exc:
            heart_realization(TiltingSet(frozenset({pre(1), pre(2)})), ctx)
        assert "projective" in str(exc.value)

    _gate("three-way-bijection", check)


def test_tilting_complex_properties(a2_table, a3_table):
    def check():
        for table in (a2_table, a3_table):
            for _pivot, _tp, ts in enumerate_split_tstructures(
                table, WINDOW, _split_pairs(table)
            ):
                if not ext_projectives(ts, table):
                    continue
                ok, diagnostics = verify_cor64(ts, table)
                assert ok, diagnostics

    _gate("tilting-complex-properties", check)


def test_cli_determinism_and_exit_codes(capsys):
    def check():
        def run(*argv):
            code = main(list(argv))
            captured = capsys.readouterr()
            return code, captured.out

        for args in (
            ("enumerate", "--builtin", "a2"),
            ("verify", "--builtin", "a2", "--suite", "consistency"),
        ):
            code1, out1 = run(*args)
            code2, out2 = run(*args)
            assert code1 == code2 == EXIT_OK
            assert out1 == out2
            json.loads(out1)

        clean, _ = run("verify", "--quiver", str(FIXTURES / "a2.quiver"))
        assert clean == EXIT_OK
        falsified, _ = run(
            "verify",
            "--builtin",
            "a2",
            "--table-patch",
            str(FIXTURES / "falsified_hom.json"),
        )
        assert falsified == EXIT_FAIL
        malformed, _ = run(
            "verify", "--quiver", str(FIXTURES / "malformed.quiver")
        )
        assert malformed == EXIT_USAGE

    _gate("cli-determinism-exit-codes", check)
