"""Command-line interface: argument parsing, loading and output.

Subcommands: enumerate, lift, trace, classify, verify, transport,
export-ar, each declared once in `SUBCOMMANDS`; `verify` runs a model's
table of ``aisles.suites``.  All machine-readable output is JSON with
sorted keys and fixed orderings, so identical configurations produce
byte-identical output.  Exit codes: 0 success, 1 verification failure,
2 usage or load error.  Inputs over a size budget exit 2 before the work
starts: ``MAX_WINDOW_OBJECTS``; ``MAX_SCAN_CANDIDATES``, for the
Kronecker scan and for the converse scan that `classify` and `verify`'s
classify suite run on a table of at most three indecomposables (A2 over
a window wider than hi - lo = 100); and ``MAX_TORSION_CLASSES``, read
from the Dynkin type before the table is built by every run that
enumerates torsion pairs (`enumerate`, `classify`, and `verify` with a
suite of ``TORSION_SUITES``).
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
    TILTING_53,
    TORSION_SUITES,
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


def enumerates_classes(args):
    """Whether the run enumerates torsion pairs: `enumerate`, `classify`,
    and `verify` with a suite of ``TORSION_SUITES``."""
    if args.command == "verify":
        return not TORSION_SUITES.isdisjoint(suite_keys(DYNKIN_SUITES, args.suite))
    return args.command in ("enumerate", "classify")


def load_table(args):
    """The table of --builtin or --quiver.  Refused from the quiver alone,
    before the build: a window past ``MAX_WINDOW_OBJECTS``, and a quiver
    past ``MAX_TORSION_CLASSES`` when the run enumerates torsion pairs."""
    if args.builtin:
        if args.builtin not in BUILTIN_QUIVERS:
            raise AislesError(f"unknown builtin quiver {args.builtin!r}")
        quiver = BUILTIN_QUIVERS[args.builtin]()
    elif args.quiver:
        quiver = load_quiver_file(args.quiver)
    else:
        raise AislesError("no quiver given: use --quiver or --builtin")
    if "window" in args:  # all but enumerate, whose module category has none
        check_window_objects(
            parse_window(args.window), quiver.positive_root_count()
        )
    if enumerates_classes(args):
        torsion_mod.check_quiver_class_count(quiver)
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


def read_json(what, want, item, build, text=None, path=None, keys=()):
    """``build`` of the JSON list in ``text``, or in the file at ``path``;
    with ``keys``, of the JSON object of one or more of ``keys``, each
    holding such a list.  An unreadable file, malformed JSON, another
    shape or an ``item`` that fails (it wants ``want``), and a dimension
    vector that ``build`` cannot find are each an AislesError worded
    ``bad <what>: <reason>``."""
    try:
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        value = json.loads(text)
        lists = [value]
        if keys:  # anything but {key: ..., ...} over ``keys`` fails the shape
            shaped = isinstance(value, dict) and value and value.keys() <= set(keys)
            lists = list(value.values()) if shaped else [0]
        if not all(isinstance(v, list) and all(map(item, v)) for v in lists):
            raise ValueError(f"want {want}")
        return build(value)
    except KeyError as exc:  # from `IndecTable.by_dimvec`
        reason = exc.args[0]
    except (OSError, ValueError) as exc:
        reason = exc
    raise AislesError(f"bad {what}: {reason}") from None


def apply_table_patch(table, path):
    """Overwrite Hom- and Ext-table entries from a JSON fixture ``{"hom":
    [[i, j, value], ...], "ext": [...]}`` with either key or both; used to
    show the verifiers actually detect wrong data.  The Hom bases and the
    AR arrows stay as built.  Any other content is an AislesError."""
    patch = read_json(
        "table patch", '{"hom": [[i, j, value], ...]}, "ext" alike, or both',
        lambda entry: True, dict, path=path, keys=("hom", "ext"),
    )
    n = len(table.entries)
    fields = {}
    for key, entries in patch.items():
        rows = [list(row) for row in getattr(table, key)]
        for entry in entries:
            if not (_int_list(entry) and len(entry) == 3 and min(entry) >= 0
                    and max(entry[:2]) < n):
                raise AislesError(
                    f"bad table patch entry {json.dumps(entry)}: want "
                    f"[i, j, value] with 0 <= i, j < {n} and value >= 0"
                )
            i, j, value = entry
            rows[i][j] = value
        fields[key] = tuple(tuple(r) for r in rows)
    return table.copy(**fields)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_enumerate(args):
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


def _lift(args):
    """The table, the torsion pair of ``--torsion`` and its lift."""
    table = load_table(args)
    members = read_json(
        f"torsion class {args.torsion!r}", "a JSON list of dimension vectors of ints",
        _int_list, lambda v: {table.by_dimvec(tuple(d)).id for d in v},
        text=args.torsion,
    )
    torsion = sum(1 << i for i in members)
    relation = module_relation(TableContext(table))
    free = relation.right_perp(torsion)  # so only T = lperp(F) can fail
    if relation.left_perp(free) != torsion:
        raise AislesError(
            "the given dimension vectors are not a torsion class"
        )
    tp = torsion_mod.pair_of_masks(torsion, free, table)
    return table, tp, tstruct.lift(tp, table, parse_window(args.window))


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
    table, _tp, ts = _lift(args)
    emit(ts_to_json(ts, table))
    return EXIT_OK


def cmd_trace(args):
    table, tp, ts = _lift(args)
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
        keys = suite_keys(KRONECKER_SUITES, args.suite)  # before the model
        suites, subject = KRONECKER_SUITES, load_model(args)
        reach = max(t.index for t in TILTING_53)  # Post(m) needs range >= m
        if "53" in keys and subject.range < reach:
            raise AislesError(
                f"suite 53 tilts at {', '.join(t.name() for t in sorted(TILTING_53))}: "
                f"it needs --range {reach} or more"
            )
    else:
        keys = suite_keys(DYNKIN_SUITES, args.suite)  # before the table
        suites, subject = DYNKIN_SUITES, load_table(args)
        _require_arrows(subject, "verify")
        if "classify" in keys:  # before any suite runs
            tstruct.check_scan_budget(subject, window)
        if args.table_patch:
            subject = apply_table_patch(subject, args.table_patch)
    checks = run_suites(suites, subject, window, args.suite)
    ok = all(c["pass"] for c in checks)
    emit({"checks": checks, "pass": ok})
    return EXIT_OK if ok else EXIT_FAIL


def cmd_transport(args):
    model = load_model(args)
    T = transport_mod.TiltingSet(frozenset(_parse_tilting(args.tilting)))
    report = transport_mod.verify_theorem53(model, T)
    emit(report)
    return EXIT_OK if report["pass"] else EXIT_FAIL


# one summand: Post(m) or Pre(m) for an integer m, in any case
_SUMMAND = re.compile(r"(post|pre)\((-?[0-9]+)\)", re.IGNORECASE)


def _parse_tilting(text):
    """The summands of a comma-separated list, each exactly Post(m) or
    Pre(m) up to case and the spaces around it."""
    out = []
    for token in map(str.strip, text.split(",")):
        match = _SUMMAND.fullmatch(token)
        if match is None:
            raise AislesError(f"cannot parse tilting summand {token!r}")
        kind, value = match.groups()
        out.append((kr.post if kind.lower() == "post" else kr.pre)(int(value)))
    return out


def cmd_export_ar(args):
    table = load_table(args)
    window = parse_window(args.window)
    coloring = 0
    if args.color_file:
        members = read_json(
            "coloring file", 'an object {"members": [[dimvec, degree], ...]}',
            lambda m: isinstance(m, list) and len(m) == 2 and _int_list(m[0])
            and type(m[1]) is int,
            lambda v: [
                (table.by_dimvec(tuple(d)).id, deg) for d, deg in v["members"]
            ],
            path=args.color_file, keys=("members",),
        )
        coloring = coloring_mask(table, window, members)
    sys.stdout.write(export_dot(table, window, coloring))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

DYNKIN, KRONECKER = "dynkin", "kronecker"
_ONLY = {  # how a refusal names the one model a subcommand runs on
    DYNKIN: "a Dynkin quiver only: the Kronecker model has no finite "
    "indecomposable table",
    KRONECKER: "the Kronecker model only: use --builtin kronecker",
}
_TORSION = ("--torsion", {"required": True, "help": "JSON list of dimvecs"})

# Each subcommand once: (handler, help, the models it runs on, whether it
# takes --window, its own arguments as (flag, `add_argument` keywords)).
# The Dynkin model is the table of `load_table`, the Kronecker model that
# of `load_model`.  Every subcommand takes --quiver or --builtin, and one
# that runs on the Kronecker model takes the options that shape it.
SUBCOMMANDS = {
    "enumerate": (cmd_enumerate, "list all torsion pairs", (DYNKIN,), False,
                  [("--split-only", {"action": "store_true"})]),
    "lift": (cmd_lift, "t-structure induced by a torsion class", (DYNKIN,), True,
             [_TORSION]),
    "trace": (cmd_trace, "degree-0 trace of a lifted t-structure", (DYNKIN,), True,
              [_TORSION]),
    "classify": (cmd_classify, "classify split t-structures", (DYNKIN,), True, []),
    "verify": (cmd_verify, "run verification suites", (DYNKIN, KRONECKER), True, [
        ("--suite", {"default": "all"}),
        ("--table-patch", {"help": "JSON Hom/Ext table overrides (falsification probe)"}),
    ]),
    "transport": (cmd_transport, "three-way bijection for a tilting set",
                  (KRONECKER,), True, [("--tilting", {"default": "Post(1),Post(2)",
                                        "help": "comma-separated symbolic summands"})]),
    "export-ar": (cmd_export_ar, "DOT export of the derived AR quiver", (DYNKIN,),
                  True, [("--color-file", {"help": "JSON subcategory to highlight"})]),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="aisles",
        description=(
            "Torsion pairs in hereditary module categories and "
            "t-structures in their derived categories"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_, models, window, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_)
        # a model is read from exactly one place
        group = p.add_mutually_exclusive_group()
        group.add_argument("--quiver", help="path to a quiver file")
        group.add_argument("--builtin", help="builtin quiver name or 'kronecker'")
        if window:
            p.add_argument("--window", default="-2..3", help="degree window lo..hi")
        for option, default in KRONECKER_OPTIONS.items() if KRONECKER in models else ():
            p.add_argument(
                f"--{option.replace('_', '-')}",
                type=int,
                help=f"Kronecker model only (default {default})",
            )
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func, models=models)
    return parser


def check_model(args):
    """Refuse, before anything is built, a model that the subcommand does
    not run on, and the Kronecker options with a Dynkin quiver."""
    model = KRONECKER if args.builtin == "kronecker" else DYNKIN
    if model not in args.models:
        raise AislesError(f"{args.command} runs on {_ONLY[args.models[0]]}")
    given = [n for n in KRONECKER_OPTIONS if getattr(args, n, None) is not None]
    if model == DYNKIN and given:
        raise AislesError(
            f"--{given[0].replace('_', '-')} shapes the Kronecker model; a "
            "Dynkin quiver takes none"
        )


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_model(args)
        return args.func(args)
    except (AislesError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
