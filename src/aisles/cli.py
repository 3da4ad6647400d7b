"""Command-line interface.

Subcommands: enumerate, lift, trace, classify, verify, transport,
export-ar.  All machine-readable output is JSON with sorted keys and
fixed orderings, so identical configurations produce byte-identical
output.  Exit codes: 0 success, 1 verification failure, 2 usage or load
error.  Inputs over a size budget (``MAX_WINDOW_OBJECTS``,
``MAX_SCAN_CANDIDATES``, ``MAX_TORSION_CLASSES``) exit 2 before the
work starts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import kronecker as kr
from . import torsion as torsion_mod
from . import transport as transport_mod
from . import tstruct
from .derived import (
    DerivedObject,
    DerivedSubcategory,
    Window,
    check_window_objects,
    export_dot,
)
from .errors import AislesError, ConsistencyError, PreconditionError
from .quiver import BUILTIN_QUIVERS, load_quiver_file
from .repcore import enumerate_indecomposables, euler_form

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def parse_window(text):
    try:
        lo, hi = text.split("..")
        return Window(int(lo), int(hi))
    except (ValueError, AislesError) as exc:
        raise AislesError(f"bad window {text!r}: {exc}")


def load_table(args):
    if args.builtin:
        if args.builtin == "kronecker":
            raise AislesError(
                "the Kronecker model has no finite indecomposable table"
            )
        if args.builtin not in BUILTIN_QUIVERS:
            raise AislesError(f"unknown builtin quiver {args.builtin!r}")
        quiver = BUILTIN_QUIVERS[args.builtin]()
    elif args.quiver:
        quiver = load_quiver_file(args.quiver)
    else:
        raise AislesError("no quiver given: use --quiver or --builtin")
    if args.command != "enumerate":  # the only subcommand without a window
        check_window_objects(
            parse_window(args.window), quiver.positive_root_count()
        )
    return enumerate_indecomposables(quiver)


def load_model(args):
    window = parse_window(args.window)
    kr.check_budgets(args.tubes, args.tube_depth, args.range, window)
    labels = tuple(f"t{i}" for i in range(args.tubes))
    return kr.TameModel(labels, args.tube_depth, args.range, window)


def emit(payload):
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def apply_table_patch(table, path):
    """Overwrite hom-table entries from a JSON fixture; used to show the
    verifiers actually detect wrong data."""
    with open(path, "r", encoding="utf-8") as fh:
        patch = json.load(fh)
    hom = [list(row) for row in table.hom]
    for (i, j, value) in patch.get("hom", []):
        hom[i][j] = value
    return dataclasses.replace(table, hom=tuple(tuple(r) for r in hom))


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _failed(name, witness):
    return {"name": name, "pass": False, "witness": witness}


def check_table_consistency(table):
    """Euler-form and AR-formula identities over the whole table; the
    first failure is reported with its witness pair."""
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
                    return [_failed(name, f"({i},{j})")]
    return [
        {"name": "euler_identity", "pass": True},
        {"name": "ar_formula", "pass": True},
    ]


def _split_pairs(table):
    return [tp for tp in torsion_mod.enumerate_torsion_pairs(table) if tp.split]


def suite_roundtrip(table, window):
    pairs = torsion_mod.enumerate_torsion_pairs(table)
    checks = [{"name": "lift_trace_roundtrip", "pass": True}]
    for tp in pairs:
        ts = tstruct.lift(tp, table, window)
        back = tstruct.trace(ts, table)
        if back != tp or (
            tstruct.lift(back, table, window).aisle.members != ts.aisle.members
        ):
            witness = torsion_mod.pair_to_json(tp, table)
            checks = [_failed("lift_trace_roundtrip", witness)]
            break
    for tp in pairs:
        for y in range(len(table.entries)):
            try:
                torsion_mod.canonical_sequence_oracle(y, tp, table)
            except (ConsistencyError, PreconditionError) as exc:
                return checks + [_failed("canonical_sequence_oracle", str(exc))]
    return checks + [{"name": "canonical_sequence_oracle", "pass": True}]


def suite_semipath(table, window):
    for tp in _split_pairs(table):
        ts = tstruct.lift(tp, table, window)
        ok, witness = tstruct.verify_lemma42(ts, table)
        if not ok:
            labels = [x.label(table) for x in witness]
            return [_failed("no_aisle_to_orthogonal_semipath", labels)]
        if not tstruct.verify_lemma41(ts, table):
            pair = torsion_mod.pair_to_json(tp, table)
            return [_failed("triangulated_iff_zero_heart", pair)]
    ringel = tstruct.ringel_criterion(table, window)
    return [
        {"name": "no_aisle_to_orthogonal_semipath", "pass": True},
        {"name": "triangulated_iff_zero_heart", "pass": True},
        {"name": "ringel_witnesses_nonempty", "pass": bool(ringel)},
    ]


def suite_classify(table, window):
    report = tstruct.classify_split(table, window, _split_pairs(table))
    return [
        {
            "name": "split_classification",
            "pass": all(case["pass"] for case in report),
            "cases": report,
        }
    ]


def suite_cor64(table, window):
    for _pivot, _tp, ts in tstruct.enumerate_split_tstructures(
        table, window, _split_pairs(table)
    ):
        if not tstruct.ext_projectives(ts, table):
            continue
        ok, diagnostics = tstruct.verify_cor64(ts, table)
        if not ok:
            return [_failed("tilting_complex_checks", diagnostics)]
    return [{"name": "tilting_complex_checks", "pass": True}]


DYNKIN_SUITES = {
    "consistency": lambda table, window: check_table_consistency(table),
    "roundtrip": suite_roundtrip,
    "semipath": suite_semipath,
    "classify": suite_classify,
    "cor64": suite_cor64,
}


def run_dynkin_verify(table, window, suite):
    names = list(DYNKIN_SUITES) if suite == "all" else [suite]
    checks = []
    for name in names:
        if name not in DYNKIN_SUITES:
            raise AislesError(f"unknown suite {name!r}")
        try:
            checks.extend(DYNKIN_SUITES[name](table, window))
        except (ConsistencyError, PreconditionError) as exc:
            # inconsistent input data surfaces as a failed check, not a crash
            checks.append(
                {"name": f"{name}_internal", "pass": False, "witness": str(exc)}
            )
    return checks


def run_kronecker_verify(model, suite, window):
    checks = []
    if suite in ("all", "63b"):
        report = kr.verify_63b(model)
        checks.append(
            {"name": "tame_split_classification", "pass": report["pass"],
             "cases": len(report["cases"])}
        )
    if suite in ("all", "53"):
        T = transport_mod.TiltingSet(frozenset({kr.post(1), kr.post(2)}))
        report = transport_mod.verify_theorem53(model, T, window)
        checks.append(
            {"name": "three_way_bijection", "pass": report["pass"],
             "cases": len(report["cases"])}
        )
    if not checks:
        raise AislesError(f"unknown suite {suite!r} for the tame model")
    return checks


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_enumerate(args):
    if args.builtin == "kronecker":
        sys.stderr.write(
            "error: torsion-pair enumeration requires a representation-"
            "finite quiver\n"
        )
        return EXIT_USAGE
    table = load_table(args)
    pairs = torsion_mod.enumerate_torsion_pairs(table)
    if args.split_only:
        pairs = [tp for tp in pairs if tp.split]
    emit(
        {
            "quiver": table.quiver.name,
            "count": len(pairs),
            "pairs": [torsion_mod.pair_to_json(tp, table) for tp in pairs],
        }
    )
    return EXIT_OK


def _parse_torsion(table, text):
    dimvecs = json.loads(text)
    ids = frozenset(table.by_dimvec(tuple(d)).id for d in dimvecs)
    tp_free = torsion_mod.right_orth(torsion_mod.Subcategory(ids), table)
    tp = torsion_mod.TorsionPair(
        torsion_mod.Subcategory(ids),
        tp_free,
        split=len(ids) + len(tp_free) == len(table.entries),
    )
    if not torsion_mod.is_torsion_pair(tp, table):
        raise AislesError(
            "the given dimension vectors are not a torsion class"
        )
    return tp


def ts_to_json(ts, table):
    by_degree = {}
    for x in sorted(ts.aisle.members):
        by_degree.setdefault(str(x.degree), []).append(
            str(list(table.entries[x.indec].dimvec))
        )
    return {
        "aisle": by_degree,
        "upper_tail": ts.aisle.upper_tail,
        "heart": [x.label(table) for x in sorted(ts.heart)],
        "split": ts.split,
    }


def cmd_lift(args):
    table = load_table(args)
    window = parse_window(args.window)
    tp = _parse_torsion(table, args.torsion)
    ts = tstruct.lift(tp, table, window)
    emit(ts_to_json(ts, table))
    return EXIT_OK


def cmd_trace(args):
    table = load_table(args)
    window = parse_window(args.window)
    tp = _parse_torsion(table, args.torsion)
    ts = tstruct.lift(tp, table, window)
    back = tstruct.trace(ts, table)
    emit(
        {
            "input": torsion_mod.pair_to_json(tp, table),
            "traced": torsion_mod.pair_to_json(back, table),
            "roundtrip": back == tp,
        }
    )
    return EXIT_OK if back == tp else EXIT_FAIL


def cmd_classify(args):
    table = load_table(args)
    window = parse_window(args.window)
    split_pairs = _split_pairs(table)
    report = tstruct.classify_split(table, window, split_pairs)
    ok = all(case["pass"] for case in report)
    emit({"quiver": table.quiver.name, "cases": report, "pass": ok})
    return EXIT_OK if ok else EXIT_FAIL


def cmd_verify(args):
    window = parse_window(args.window)
    if args.builtin == "kronecker":
        model = load_model(args)
        checks = run_kronecker_verify(model, args.suite, window)
    else:
        table = load_table(args)
        if args.table_patch:
            table = apply_table_patch(table, args.table_patch)
        checks = run_dynkin_verify(table, window, args.suite)
    ok = all(c["pass"] for c in checks)
    emit({"checks": checks, "pass": ok})
    return EXIT_OK if ok else EXIT_FAIL


def cmd_transport(args):
    window = parse_window(args.window)
    model = load_model(args)
    summands = _parse_tilting(args.tilting)
    T = transport_mod.TiltingSet(frozenset(summands))
    report = transport_mod.verify_theorem53(model, T, window)
    emit(report)
    return EXIT_OK if report["pass"] else EXIT_FAIL


def _parse_tilting(text):
    out = []
    for token in text.split(","):
        token = token.strip()
        kind, _, rest = token.partition("(")
        value = rest.rstrip(")")
        if kind.lower() == "post":
            out.append(kr.post(int(value)))
        elif kind.lower() == "pre":
            out.append(kr.pre(int(value)))
        else:
            raise AislesError(f"cannot parse tilting summand {token!r}")
    return out


def cmd_export_ar(args):
    table = load_table(args)
    window = parse_window(args.window)
    coloring = None
    if args.color_file:
        try:
            with open(args.color_file, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            members = frozenset(
                DerivedObject(table.by_dimvec(tuple(d)).id, int(deg))
                for (d, deg) in data.get("members", [])
            )
            if members:
                coloring = DerivedSubcategory(
                    window, members, upper_tail=bool(data.get("upper_tail"))
                )
        except (ValueError, KeyError, OSError, TypeError) as exc:
            raise AislesError(f"bad coloring file: {exc}")
    sys.stdout.write(export_dot(table, window, coloring))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="aisles",
        description=(
            "Torsion pairs in hereditary module categories and "
            "t-structures in their derived categories"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kronecker_ok=False):
        p.add_argument("--quiver", help="path to a quiver file")
        p.add_argument("--builtin", help="builtin quiver name or 'kronecker'")
        p.add_argument("--window", default="-2..3", help="degree window lo..hi")
        if kronecker_ok:
            p.add_argument("--tubes", type=int, default=3)
            p.add_argument("--tube-depth", type=int, default=3)
            p.add_argument("--range", type=int, default=6)

    p = sub.add_parser("enumerate", help="list all torsion pairs")
    common(p)
    p.add_argument("--split-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("lift", help="t-structure induced by a torsion class")
    common(p)
    p.add_argument("--torsion", required=True, help="JSON list of dimvecs")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("trace", help="degree-0 trace of a lifted t-structure")
    common(p)
    p.add_argument("--torsion", required=True, help="JSON list of dimvecs")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("classify", help="classify split t-structures")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run verification suites")
    common(p, kronecker_ok=True)
    p.add_argument("--suite", default="all")
    p.add_argument(
        "--table-patch", help="JSON hom-table overrides (falsification probe)"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("transport", help="three-way bijection for a tilting set")
    common(p, kronecker_ok=True)
    p.add_argument(
        "--tilting",
        default="Post(1),Post(2)",
        help="comma-separated symbolic summands",
    )
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("export-ar", help="DOT export of the derived AR quiver")
    common(p)
    p.add_argument("--color-file", help="JSON subcategory to highlight")
    p.set_defaults(func=cmd_export_ar)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AislesError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
