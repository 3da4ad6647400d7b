"""The verification suites' check records: what each check counts, the
zero-case pass on narrow windows, and the runner shared by both models.

The case counts are compared with closed forms, not with the code: on
linear A_n at the default window -2..3 there are n(n+1)/2 modules,
Cat(n+1) torsion pairs, 2^n split ones, four interior degrees, and
3 * 2^n - 2 pivoted split lifts (three pivots, less the empty class at
the two lower ones, a duplicate of the full class one pivot up).
"""

from math import comb

import pytest

from aisles import kronecker
from aisles.derived import Window
from aisles.errors import AislesError, ConsistencyError
from aisles.quiver import BUILTIN_QUIVERS, linear_quiver
from aisles.repcore import enumerate_indecomposables
from aisles.suites import DYNKIN_SUITES, KRONECKER_SUITES, run_suites

WINDOW = Window(-2, 3)


def _cases(checks):
    assert all(c["pass"] is True and "witness" not in c for c in checks)
    assert all(type(c["cases"]) is int for c in checks)
    return {c["name"]: c["cases"] for c in checks}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_case_counts_match_closed_forms_on_linear_a(n):
    table = enumerate_indecomposables(linear_quiver(n))
    modules = n * (n + 1) // 2
    catalan = comb(2 * n + 2, n + 1) // (n + 2)
    assert _cases(run_suites(DYNKIN_SUITES, table, WINDOW, "all")) == {
        "euler_identity": modules**2,
        "ar_formula": modules**2,
        "lift_trace_roundtrip": catalan,
        "canonical_sequence_oracle": catalan * modules,
        "no_aisle_to_orthogonal_semipath": 2**n,
        "triangulated_iff_zero_heart": 2**n,
        "ringel_witnesses_nonempty": 4 * modules,
        "split_classification": 3 * 2**n - 2,
        "tilting_complex_checks": 3 * 2**n - 2,
    }


@pytest.mark.parametrize("name", ["a2", "a3", "a4", "d4", "d5"])
def test_every_check_covers_cases_on_the_default_window(name):
    table = enumerate_indecomposables(BUILTIN_QUIVERS[name]())
    counts = _cases(run_suites(DYNKIN_SUITES, table, WINDOW, "all"))
    assert len(counts) == 9 and min(counts.values()) > 0


@pytest.mark.parametrize("window", ["-2..0", "-1..1", "0..2"])
def test_three_degree_window_passes_the_split_checks_over_zero_cases(
    d4_table, window
):
    """No pivot fits a three-degree window, so no split t-structure is
    enumerated: the two checks over them pass and say they covered
    nothing, while every other check still covers some case."""
    lo, hi = map(int, window.split(".."))
    counts = _cases(run_suites(DYNKIN_SUITES, d4_table, Window(lo, hi), "all"))
    zero = {"split_classification", "tilting_complex_checks"}
    assert {name for name, cases in counts.items() if cases == 0} == zero


def test_kronecker_case_counts(tame_models):
    """One classification case per interior degree and subset of tubes,
    one bijection case per subset of tubes."""
    got = [
        _cases(run_suites(KRONECKER_SUITES, model, model.window, "all"))
        for model in tame_models
    ]
    assert got == [
        {"tame_split_classification": 32, "three_way_bijection": 8},
        {"tame_split_classification": 64, "three_way_bijection": 16},
    ]


def test_runner_turns_an_inconsistency_into_an_internal_check(
    tame_model, monkeypatch
):
    """Both models share the runner: a Kronecker suite that raises is one
    failed check, and the next suite still runs."""

    def broken(model):
        raise ConsistencyError("rule tables disagree")

    monkeypatch.setattr(kronecker, "verify_63b", broken)
    checks = run_suites(KRONECKER_SUITES, tame_model, tame_model.window, "all")
    assert checks == [
        {
            "name": "63b_internal",
            "pass": False,
            "cases": 0,
            "witness": "rule tables disagree",
        },
        {"name": "three_way_bijection", "pass": True, "cases": 8},
    ]


@pytest.mark.parametrize("suites", [DYNKIN_SUITES, KRONECKER_SUITES])
def test_runner_refuses_an_unknown_suite(suites):
    with pytest.raises(AislesError, match="unknown suite 'nonsense': want all, "):
        run_suites(suites, None, WINDOW, "nonsense")
