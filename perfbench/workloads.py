"""The benchmark's workloads: seeded inputs and closed-form output checks.

The seed chooses the orientation of every edge of the D5 and E7 graphs
and which source vertex's simple `table-e7` lifts (the additive closure
of a simple is always a torsion class).  The program sees only the
generated quiver files and CLI arguments.  `verify-kronecker` has no
seedable input: the tame model is fixed by its truncation parameters, so
it ignores the seed.

Each check returns a list of problems, empty when the output is right.
The expected values are closed forms or fixed structure, so no check
trusts the code under test.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

D5_EDGES = [(1, 2), (2, 3), (3, 4), (3, 5)]
E7_EDGES = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)]
E7_ROOTS = 63
D5_TORSION_CLASSES = 182  # (3n-2)/n * C(2n-2, n-1) at n = 5

# Every check name each Dynkin suite reports when it passes.
DYNKIN_SUITE_CHECKS = {
    "consistency": ("euler_identity", "ar_formula"),
    "roundtrip": ("lift_trace_roundtrip", "canonical_sequence_oracle"),
    "semipath": (
        "no_aisle_to_orthogonal_semipath",
        "triangulated_iff_zero_heart",
        "ringel_witnesses_nonempty",
    ),
    "classify": ("split_classification",),
    "cor64": ("tilting_complex_checks",),
}

KRONECKER_TUBES = 4
KRONECKER_TUBE_DEPTH = 4
KRONECKER_RANGE = 10
# The default window -2..3 has interior degrees -1..2.
KRONECKER_INTERIOR_DEGREES = 4


def oriented_quiver(edges, rng):
    """Quiver text with each edge pointing either way, and the arrows."""
    arrows = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in edges]
    vertices = sorted({v for edge in edges for v in edge})
    lines = [f"vertex {v}" for v in vertices]
    lines += [f"arrow a{k}: {s} -> {t}" for k, (s, t) in enumerate(arrows, 1)]
    return "\n".join(lines) + "\n", vertices, arrows


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# -- verify-d5 ----------------------------------------------------------------


def d5_args(seed, workdir):
    text, _vertices, _arrows = oriented_quiver(D5_EDGES, random.Random(seed))
    path = _write(workdir, "d5.quiver", text)
    return ["verify", "--quiver", path, "--suite", "all"], None


def check_d5(stdout, expected):
    try:
        out = json.loads(stdout)
        names = [c["name"] for c in out["checks"]]
        failed = [c["name"] for c in out["checks"] if c["pass"] is not True]
        top = out["pass"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable verify output: {exc!r}"]
    problems = []
    if top is not True:
        problems.append("verify reports pass != true")
    if failed:
        problems.append(f"failed checks: {failed}")
    for suite, wanted in DYNKIN_SUITE_CHECKS.items():
        missing = [n for n in wanted if n not in names]
        if missing:
            problems.append(f"suite {suite} is missing checks {missing}")
    return problems


def check_d5_trace(metrics):
    problems = []
    # derived._cross_cache is keyed by id(table); a stale hit would skip
    # the Ext cross-arrow validation and look like a speed-up.
    if metrics["extspace.machines"] != 1:
        problems.append(
            f"extspace.machines == {metrics['extspace.machines']}, want 1: "
            "cross-arrow validation did not run exactly once"
        )
    if metrics["torsion.classes"] != D5_TORSION_CLASSES:
        problems.append(
            f"torsion.classes == {metrics['torsion.classes']}, want "
            f"{D5_TORSION_CLASSES} (D5 Coxeter-Catalan number)"
        )
    return problems


# -- table-e7 -----------------------------------------------------------------


def e7_args(seed, workdir):
    rng = random.Random(seed)
    text, vertices, arrows = oriented_quiver(E7_EDGES, rng)
    path = _write(workdir, "e7.quiver", text)
    targets = {t for _s, t in arrows}
    source = rng.choice([v for v in vertices if v not in targets])
    dimvec = [1 if v == source else 0 for v in vertices]
    return ["lift", "--quiver", path, "--torsion", json.dumps([dimvec])], dimvec


def check_e7(stdout, dimvec):
    try:
        out = json.loads(stdout)
        aisle = out["aisle"]
        heart = out["heart"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable lift output: {exc!r}"]
    problems = []
    if sorted(aisle) != ["0", "1", "2", "3"]:
        problems.append(f"aisle degrees {sorted(aisle)}, want 0..3")
    if aisle.get("0") != [str(dimvec)]:
        problems.append(f"degree 0 is {aisle.get('0')}, want [{str(dimvec)}]")
    for degree in ("1", "2", "3"):
        objs = aisle.get(degree, [])
        if len(set(objs)) != E7_ROOTS or len(objs) != E7_ROOTS:
            problems.append(
                f"degree {degree} has {len(objs)} objects "
                f"({len(set(objs))} distinct), want {E7_ROOTS}"
            )
    if len(heart) != E7_ROOTS:
        problems.append(f"heart has {len(heart)} objects, want {E7_ROOTS}")
    return problems


# -- verify-kronecker -----------------------------------------------------------


def kronecker_args(seed, workdir):
    return [
        "verify", "--builtin", "kronecker", "--suite", "all",
        "--tubes", str(KRONECKER_TUBES),
        "--tube-depth", str(KRONECKER_TUBE_DEPTH),
        "--range", str(KRONECKER_RANGE),
    ], None


def check_kronecker(stdout, expected):
    want = {
        # one case per interior degree and subset of tubes
        "tame_split_classification": KRONECKER_INTERIOR_DEGREES * 2**KRONECKER_TUBES,
        # one case per subset of tubes
        "three_way_bijection": 2**KRONECKER_TUBES,
    }
    try:
        out = json.loads(stdout)
        got = {c["name"]: (c["pass"], c["cases"]) for c in out["checks"]}
        top = out["pass"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable verify output: {exc!r}"]
    problems = []
    if top is not True:
        problems.append("verify reports pass != true")
    for name, cases in want.items():
        if got.get(name) != (True, cases):
            problems.append(f"{name} is {got.get(name)}, want (True, {cases})")
    return problems


# -- the table ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (seed, workdir) -> (CLI arguments, value the output check expects)
    make_args: Callable
    # (stdout text, expected) -> problems
    check: Callable
    # per-layer metrics of a traced run -> problems
    check_trace: Callable = lambda metrics: []


WORKLOADS = [
    Workload(
        "verify-d5",
        "smallest Dynkin case where layers, not start-up, set the time: "
        "torsion scan, Ext cross-arrow validation, Fraction linalg, derived AR arrows",
        d5_args,
        check_d5,
        check_d5_trace,
    ),
    Workload(
        "table-e7",
        "IndecTable build: hom_space nullspaces and rad/rad^2 on a few large "
        "systems; bypasses torsion, extspace and tstruct",
        e7_args,
        check_e7,
    ),
    Workload(
        "verify-kronecker",
        "symbolic rule tables only, no Fraction arithmetic; bypasses "
        "linalg/repcore/extspace/torsion; ignores the seed",
        kronecker_args,
        check_kronecker,
    ),
]

BY_NAME = {w.name: w for w in WORKLOADS}
