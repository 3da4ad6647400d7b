"""Verification suites of both models, their one check record and runner.

A suite takes a subject (a Dynkin ``IndecTable`` or the Kronecker
``TameModel``, which carries its own window) and a degree window, and
returns checks built by `check`: ``name``, ``pass``, the integer number
of ``cases`` covered (so a pass over nothing reads ``"cases": 0``) and,
on failure only, a ``witness``, the first failing case.  `run_suites`
runs a model's suite table (`DYNKIN_SUITES`, `KRONECKER_SUITES`).
"""

from __future__ import annotations

from . import kronecker as kr
from . import torsion as torsion_mod
from . import transport as transport_mod
from . import tstruct
from .errors import AislesError, ConsistencyError, PreconditionError
from .repcore import euler_form


def check(name, cases, witness=None):
    """The one check record: it passes exactly when it has no witness."""
    record = {"name": name, "pass": witness is None, "cases": cases}
    if witness is not None:
        record["witness"] = witness
    return record


def check_table_consistency(table):
    """Euler-form and AR-formula identities, one case per pair of table
    entries; the first failure is reported with its witness pair."""
    n = len(table.entries)
    for i in range(n):
        for j in range(n):
            euler = euler_form(
                table.quiver, table.entries[i].dimvec, table.entries[j].dimvec
            )
            t = table.entries[i].tau
            ar = 0 if t is None else table.hom[j][t]
            for name, ok in (
                ("euler_identity", table.hom[i][j] - table.ext[i][j] == euler),
                ("ar_formula", table.ext[i][j] == ar),
            ):
                if not ok:
                    return [check(name, i * n + j + 1, f"({i},{j})")]
    return [check("euler_identity", n * n), check("ar_formula", n * n)]


def _pairs(table):
    """All torsion pairs of ``table``, enumerated once per table and kept
    in its memo for the suites that follow."""
    if "torsion_pairs" not in table.memo:
        table.memo["torsion_pairs"] = torsion_mod.enumerate_torsion_pairs(table)
    return table.memo["torsion_pairs"]


def split_pairs(table):
    return [tp for tp in _pairs(table) if tp.split]


def suite_roundtrip(table, window):
    """One case per torsion pair, and one oracle case per pair and
    module."""
    pairs = _pairs(table)
    roundtrip = check("lift_trace_roundtrip", len(pairs))
    for count, tp in enumerate(pairs, 1):
        ts = tstruct.lift(tp, table, window)
        back = tstruct.trace(ts, table)
        if back != tp or tstruct.lift(back, table, window).aisle != ts.aisle:
            witness = torsion_mod.pair_to_json(tp, table)
            roundtrip = check("lift_trace_roundtrip", count, witness)
            break
    oracle = _oracle_check(pairs, table)
    # no later suite reads the oracle's memo: free it before they run
    torsion_mod.forget_oracle_memo(table)
    return [roundtrip, oracle]


def _oracle_check(pairs, table):
    n = len(table.entries)
    for p, tp in enumerate(pairs):
        for y in range(n):
            try:
                torsion_mod.canonical_sequence_oracle(y, tp, table)
            except (ConsistencyError, PreconditionError) as exc:
                return check("canonical_sequence_oracle", p * n + y + 1, str(exc))
    return check("canonical_sequence_oracle", len(pairs) * n)


def suite_semipath(table, window):
    """One case per split pair for both lemmas; the Ringel check counts
    its witnesses."""
    pairs = split_pairs(table)
    for count, tp in enumerate(pairs, 1):
        ts = tstruct.lift(tp, table, window)
        ok, witness = tstruct.verify_lemma42(ts, table)
        if not ok:
            labels = [x.label(table) for x in witness]
            return [check("no_aisle_to_orthogonal_semipath", count, labels)]
        if not tstruct.verify_lemma41(ts, table):
            pair = torsion_mod.pair_to_json(tp, table)
            return [check("triangulated_iff_zero_heart", count, pair)]
    ringel = tstruct.ringel_criterion(table, window)
    return [
        check("no_aisle_to_orthogonal_semipath", len(pairs)),
        check("triangulated_iff_zero_heart", len(pairs)),
        check("ringel_witnesses_nonempty", ringel.bit_count(), None if ringel else []),
    ]


def suite_classify(table, window):
    """One case per enumerated split t-structure; the exhaustive scan
    of small tables must pass but adds no case."""
    report = tstruct.classify_split(table, window, split_pairs(table))
    cases = sum("scan" not in case for case in report)
    witness = next((case for case in report if not case["pass"]), None)
    return [check("split_classification", cases, witness)]


def suite_cor64(table, window):
    """One case per enumerated split t-structure with Ext-projectives."""
    cases = 0
    for _pivot, _tp, ts in tstruct.enumerate_split_tstructures(
        table, window, split_pairs(table)
    ):
        E = tstruct.ext_projectives(ts, table)
        if not E:
            continue
        cases += 1
        ok, diagnostics = tstruct.verify_cor64(ts, table, candidates=E)
        if not ok:
            return [check("tilting_complex_checks", cases, diagnostics)]
    return [check("tilting_complex_checks", cases)]


DYNKIN_SUITES = {
    "consistency": lambda table, window: check_table_consistency(table),
    "roundtrip": suite_roundtrip,
    "semipath": suite_semipath,
    "classify": suite_classify,
    "cor64": suite_cor64,
}


def _kronecker_check(name, report):
    """One case per report case; the rest of the report (the converse
    scan, the cardinalities) must pass too."""
    rest = {key: value for key, value in report.items() if key != "cases"}
    witness = next((c for c in [*report["cases"], rest] if not c["pass"]), None)
    return [check(name, len(report["cases"]), witness)]


def suite_53(model, window):
    T = transport_mod.TiltingSet(frozenset({kr.post(1), kr.post(2)}))
    report = transport_mod.verify_theorem53(model, T)
    return _kronecker_check("three_way_bijection", report)


KRONECKER_SUITES = {
    "63b": lambda model, window: _kronecker_check(
        "tame_split_classification", kr.verify_63b(model)
    ),
    "53": suite_53,
}


def suite_keys(suites, name):
    """The keys of ``suites`` that ``name`` selects: all of them, or the
    one named; an unknown name raises ``AislesError``."""
    if name == "all":
        return list(suites)
    if name not in suites:
        raise AislesError(f"unknown suite {name!r}: want all, {', '.join(suites)}")
    return [name]


def run_suites(suites, subject, window, name):
    """The checks of every suite `suite_keys` selects, each looked up as
    it runs; a ``ConsistencyError`` or ``PreconditionError`` is a failed
    ``<suite>_internal`` check."""
    checks = []
    for key in suite_keys(suites, name):
        try:
            checks.extend(suites[key](subject, window))
        except (ConsistencyError, PreconditionError) as exc:
            # inconsistent input data surfaces as a failed check, not a crash
            checks.append(check(f"{key}_internal", 0, str(exc)))
    return checks
