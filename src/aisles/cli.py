"""Command-line interface: argument parsing, loading and output.

Subcommands: enumerate, lift, trace, classify, verify, transport,
export-ar; `verify` runs a model's table of ``aisles.suites``.  All
machine-readable output is JSON with sorted keys and fixed orderings, so
identical configurations produce byte-identical output.  Exit codes: 0
success, 1 verification failure, 2 usage or load error.  Inputs over a
size budget (``MAX_WINDOW_OBJECTS``, ``MAX_SCAN_CANDIDATES``,
``MAX_TORSION_CLASSES``) exit 2 before the work starts.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import islice

from . import kronecker as kr
from . import torsion as torsion_mod
from . import transport as transport_mod
from . import tstruct
from .derived import (
    DerivedObject,
    TableContext,
    Window,
    bits,
    check_window_objects,
    coloring_mask,
    export_dot,
    hom_masks,
    module_relation,
)
from .errors import AislesError
from .quiver import BUILTIN_QUIVERS, load_quiver_file
from .repcore import enumerate_indecomposables
from .suites import (
    DYNKIN_SUITES,
    KRONECKER_SUITES,
    run_suites,
    split_pairs,
    suite_keys,
)

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
    if args.command == "enumerate":  # the only subcommand without a window
        torsion_mod.check_quiver_class_count(quiver)
    else:
        check_window_objects(
            parse_window(args.window), quiver.positive_root_count()
        )
    return enumerate_indecomposables(quiver)


# The options that shape the Kronecker model, with their defaults; a
# Dynkin quiver takes none of them.
KRONECKER_OPTIONS = {"tubes": 3, "tube_depth": 3, "range": 6}


def load_model(args):
    window = parse_window(args.window)
    tubes, tube_depth, range_ = (
        default if getattr(args, name) is None else getattr(args, name)
        for name, default in KRONECKER_OPTIONS.items()
    )
    kr.check_budgets(tubes, tube_depth, range_, window)
    labels = tuple(f"t{i}" for i in range(tubes))
    return kr.TameModel(labels, tube_depth, range_, window)


def emit(payload):
    """Write ``payload`` as JSON in batches of 4096 encoder pieces (about
    20 kB): no whole-document string is built (E8's torsion list is 260
    MB), and one write per piece would be slower than building it."""
    pieces = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    while batch := "".join(islice(pieces, 4096)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def emit_list(payload, key, items):
    """Write ``payload`` with the list ``items`` under ``key``, byte for
    byte as `emit` would, one item at a time: E8's 25,080 torsion pairs
    print 260 MB, which is never held at once.  The rest of ``payload``
    is encoded around an empty list; no string value can hold the
    newline that starts the key's line."""
    enc = json.JSONEncoder(indent=2, sort_keys=True)
    slot = f"\n  {enc.encode(key)}: ["
    head, tail = enc.encode({**payload, key: []}).split(slot + "]")
    sys.stdout.write(head + slot)
    sep = "\n    "
    for item in items:
        sys.stdout.write(sep + enc.encode(item).replace("\n", "\n    "))
        sep = ",\n    "
    sys.stdout.write(("]" if sep == "\n    " else "\n  ]") + tail + "\n")


def _int_list(value):
    return isinstance(value, list) and all(type(x) is int for x in value)


def apply_table_patch(table, path):
    """Overwrite hom-table entries from a JSON fixture ``{"hom": [[i, j,
    value], ...]}``; used to show the verifiers actually detect wrong
    data.  Any other content is an AislesError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            patch = json.load(fh)
        except ValueError as exc:
            raise AislesError(f"bad table patch: {exc}") from None
    if not (
        isinstance(patch, dict)
        and patch.keys() == {"hom"}
        and isinstance(patch["hom"], list)
    ):
        raise AislesError(
            'bad table patch: want {"hom": [[i, j, value], ...]}'
        )
    n = len(table.entries)
    hom = [list(row) for row in table.hom]
    for entry in patch["hom"]:
        if not (
            _int_list(entry)
            and len(entry) == 3
            and 0 <= entry[0] < n
            and 0 <= entry[1] < n
            and entry[2] >= 0
        ):
            raise AislesError(
                f"bad table patch entry {json.dumps(entry)}: want "
                f"[i, j, value] with 0 <= i, j < {n} and value >= 0"
            )
        i, j, value = entry
        hom[i][j] = value
    return table.copy(hom=tuple(tuple(r) for r in hom))


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
    # the search finishes (or stops at the class cap) before a byte is
    # written; each pair is built only as it is written
    masks = torsion_mod.torsion_masks(table)
    if args.split_only:
        masks = [(t, f) for t, f in masks if torsion_mod.is_split_mask(t, f, table)]
    emit_list(
        {"quiver": table.quiver.name, "count": len(masks)},
        "pairs",
        (
            torsion_mod.pair_to_json(torsion_mod.pair_of_masks(t, f, table), table)
            for t, f in masks
        ),
    )
    return EXIT_OK


def _parse_torsion(table, text):
    try:
        dimvecs = json.loads(text)
        if not (isinstance(dimvecs, list) and all(map(_int_list, dimvecs))):
            raise ValueError("want a JSON list of dimension vectors of ints")
        torsion = 0
        for d in dimvecs:
            torsion |= 1 << table.by_dimvec(tuple(d)).id
    except (ValueError, KeyError) as exc:
        raise AislesError(f"bad torsion class {text!r}: {exc.args[0]}") from None
    relation = module_relation(TableContext(table))
    free = relation.right_perp(torsion)  # so only T = lperp(F) can fail
    if relation.left_perp(free) != torsion:
        raise AislesError(
            "the given dimension vectors are not a torsion class"
        )
    return torsion_mod.pair_of_masks(torsion, free, table)


def ts_to_json(ts, table):
    by_degree = {}
    for x in hom_masks(TableContext(table), ts.window).members(ts.aisle):
        by_degree.setdefault(str(x.degree), []).append(
            str(list(table.entries[x.indec].dimvec))
        )
    # heart bit (d - lo)·n + i, listed by indecomposable, then degree
    n = len(table.entries)
    heart = sorted((k % n, ts.window.lo + k // n) for k in bits(ts.heart))
    return {
        "aisle": by_degree,
        # every aisle contains all objects above the window
        "upper_tail": True,
        "heart": [DerivedObject(*x).label(table) for x in heart],
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


def _require_arrows(table, command):
    """Refuse a quiver with no arrow (A1) for ``command``: the split
    classification reads each aisle off a section of the derived AR
    quiver and its successors, and ZA1 has no arrows, so no successor
    cone reaches a shift and every pivot would read as failed."""
    if not table.quiver.arrows:
        raise AislesError(
            f"{command} needs a quiver with an arrow: the classification by "
            "sections needs a derived AR quiver with arrows, and over a "
            "quiver with none (A1) no successor cone reaches a shift"
        )


def cmd_classify(args):
    table = load_table(args)
    _require_arrows(table, "classify")
    window = parse_window(args.window)
    report = tstruct.classify_split(table, window, split_pairs(table))
    ok = all(case["pass"] for case in report)
    emit({"quiver": table.quiver.name, "cases": report, "pass": ok})
    return EXIT_OK if ok else EXIT_FAIL


def cmd_verify(args):
    window = parse_window(args.window)
    if args.builtin == "kronecker":
        if args.table_patch:
            raise AislesError(
                "--table-patch patches a Dynkin Hom table; the Kronecker "
                "model has none"
            )
        suite_keys(KRONECKER_SUITES, args.suite)  # before the model is built
        suites, subject = KRONECKER_SUITES, load_model(args)
    else:
        for name in KRONECKER_OPTIONS:
            if getattr(args, name) is not None:
                raise AislesError(
                    f"--{name.replace('_', '-')} shapes the Kronecker model; "
                    "a Dynkin quiver takes none"
                )
        suite_keys(DYNKIN_SUITES, args.suite)  # before the table is built
        suites, subject = DYNKIN_SUITES, load_table(args)
        _require_arrows(subject, "verify")
        if args.table_patch:
            subject = apply_table_patch(subject, args.table_patch)
    checks = run_suites(suites, subject, window, args.suite)
    ok = all(c["pass"] for c in checks)
    emit({"checks": checks, "pass": ok})
    return EXIT_OK if ok else EXIT_FAIL


def cmd_transport(args):
    if args.builtin != "kronecker":
        raise AislesError(
            "transport runs on the Kronecker model only: use --builtin "
            "kronecker"
        )
    model = load_model(args)
    summands = _parse_tilting(args.tilting)
    T = transport_mod.TiltingSet(frozenset(summands))
    report = transport_mod.verify_theorem53(model, T)
    emit(report)
    return EXIT_OK if report["pass"] else EXIT_FAIL


# one summand: Post(m) or Pre(m) for an integer m, in any case
_SUMMAND = re.compile(r"(post|pre)\((-?[0-9]+)\)", re.IGNORECASE)


def _parse_tilting(text):
    """The summands of a comma-separated list, each exactly Post(m) or
    Pre(m) up to case and the spaces around it."""
    kinds = {"post": kr.post, "pre": kr.pre}
    out = []
    for token in text.split(","):
        token = token.strip()
        match = _SUMMAND.fullmatch(token)
        if match is None:
            raise AislesError(f"cannot parse tilting summand {token!r}")
        kind, value = match.groups()
        out.append(kinds[kind.lower()](int(value)))
    return out


def cmd_export_ar(args):
    table = load_table(args)
    window = parse_window(args.window)
    coloring = 0
    if args.color_file:
        try:
            with open(args.color_file, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not (
                isinstance(data, dict)
                and data.keys() == {"members"}
                and isinstance(data["members"], list)
                and all(
                    isinstance(m, list)
                    and len(m) == 2
                    and _int_list(m[0])
                    and type(m[1]) is int
                    for m in data["members"]
                )
            ):
                raise AislesError(
                    'bad coloring file: want an object {"members": '
                    "[[dimvec, degree], ...]}"
                )
            members = [
                (table.by_dimvec(tuple(d)).id, deg) for (d, deg) in data["members"]
            ]
        except (ValueError, KeyError, OSError) as exc:
            raise AislesError(f"bad coloring file: {exc}")
        coloring = coloring_mask(table, window, members)
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

    def model(p):
        # a model is read from exactly one place
        group = p.add_mutually_exclusive_group()
        group.add_argument("--quiver", help="path to a quiver file")
        group.add_argument("--builtin", help="builtin quiver name or 'kronecker'")

    def common(p, kronecker_ok=False):
        model(p)
        p.add_argument("--window", default="-2..3", help="degree window lo..hi")
        if kronecker_ok:
            for name, default in KRONECKER_OPTIONS.items():
                p.add_argument(
                    f"--{name.replace('_', '-')}",
                    type=int,
                    help=f"Kronecker model only (default {default})",
                )

    p = sub.add_parser("enumerate", help="list all torsion pairs")
    model(p)  # the module category has no degree window
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
