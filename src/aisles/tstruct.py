"""t-structures on the windowed derived model.

The lift and trace maps connect torsion pairs in the module category with
t-structures whose aisle contains every module in degree 1 and whose
right orthogonal contains every module in degree -1.  On top of that sit
the Ext-projective calculus, sections and successor cones, semipath
reachability, and the verifiers for the split-t-structure classification.
A t-structure's aisle, coaisle and heart are window masks of the
table's ``HomMasks`` (``aisles.derived``), as a Kronecker aisle is:
``lift`` builds them with ``HomMasks.lift``, ``trace`` reads their
degree-0 parts back into a torsion pair.  Ext-projectives, sections,
successor cones and Ringel witnesses are window masks too, read off the
Hom masks, the derived AR successor rows (``ar_adjacency``), the
translates ``HomMasks.tau`` and its ``orbit_ends``.

All verifiers quantify over interior window degrees only; conclusions
about boundary-adjacent objects are never asserted.
"""

from __future__ import annotations

from typing import NamedTuple

from .derived import (
    DerivedObject,
    TableContext,
    Window,
    ar_adjacency,
    bits,
    hom_masks,
    union,
)
from .errors import ConsistencyError, PreconditionError
from .linalg import span_rank
from .quiver import breadth_first
from .torsion import is_torsion_pair, pair_of_masks


class TStructure(NamedTuple):
    """Aisle plus its right orthogonal (stored unshifted as ``coaisle``)
    as masks of the table's ``HomMasks`` for ``window``, the split flag
    and the heart.  The aisle holds every object above the window and
    the coaisle every object below it, so no flag stores the tails.
    ``heart`` is a mask over the window's objects and the degree just
    above it, bit (d - lo)·n + i: at the top pivot its free part lies
    there."""

    window: Window
    aisle: int
    coaisle: int
    split: bool
    heart: int


# ---------------------------------------------------------------------------
# Lift and trace
# ---------------------------------------------------------------------------


def _masks(table, window):
    return hom_masks(TableContext(table), window)


def lift(tp, table, window, pivot=0):
    """The t-structure induced by a torsion pair: torsion modules in
    degree ``pivot`` plus everything in higher degrees, by
    ``HomMasks.lift``.  Pivot 0 is the lift proper; other pivots are its
    shifts."""
    lifted = _masks(table, window).lift(tp.torsion.mask, tp.free.mask, pivot)
    aisle, coaisle, heart = lifted
    return TStructure(window, aisle, coaisle, tp.split, heart)


def trace(ts, table):
    """The torsion pair cut out at degree 0.

    Requires every module in degree 1 inside the aisle and every module
    in degree -1 inside the right orthogonal; a missing shifted module is
    a precondition violation, not a silent answer.  A degree outside the
    window lies in the aisle's or the coaisle's tail."""
    masks = _masks(table, ts.window)
    for i in range(masks.n):
        if masks.place(1 << i, 1) & ~ts.aisle:
            raise PreconditionError(
                "aisle does not contain the shifted module "
                f"{DerivedObject(i, 1).label(table)}"
            )
        if masks.place(1 << i, -1) & ~ts.coaisle:
            raise PreconditionError(
                "right orthogonal does not contain "
                f"{DerivedObject(i, -1).label(table)}"
            )
    tp = pair_of_masks(masks.part(ts.aisle, 0), masks.part(ts.coaisle, 0), table)
    if not is_torsion_pair(tp, table):
        raise ConsistencyError(
            "degree-0 slice of the t-structure is not a torsion pair"
        )
    return tp


# ---------------------------------------------------------------------------
# Ext-projectives
# ---------------------------------------------------------------------------


def ext_projectives(ts, table):
    """Interior aisle members with no extensions inside the aisle, as a
    window mask, by ``HomMasks.ext_projectives``."""
    return _masks(table, ts.window).ext_projectives(ts.aisle)


# ---------------------------------------------------------------------------
# Sections, successors, semipaths
# ---------------------------------------------------------------------------


def section_check(S, table, window):
    """Whether the window mask ``S`` has one object per interior
    tau-orbit, compatible with the AR arrows up to translation (the
    presection condition): each interior non-member an arrow from S
    reaches has its translate in S.  Its dual (each interior non-member
    with an arrow into S is a translate of a member) follows: an arrow
    y -> s of ZΔ gives the path tau^k y -> tau^k s -> ... -> y -> s,
    whose objects are interior when its ends are, so if S meets the
    orbit of a non-member y at tau^k y (k >= 1), tau^k s breaks the
    condition, and if at tau^-k y (k >= 2), tau^-1 y does."""
    masks = _masks(table, window)
    if S & ~masks.interior:
        return False
    ends, every = masks.orbit_ends
    hit = union(ends, S)
    if hit != every or hit.bit_count() != S.bit_count():
        return False
    succ = ar_adjacency(table, window)
    reached = union(succ, S) & masks.interior & ~S
    return not masks.translate(reached) & ~S


def successors(S, table, window):
    """Reflexive-transitive closure of the window mask ``S`` under the
    derived AR arrows, as a window mask: OR the successor rows of the new
    objects until none is added."""
    succ = ar_adjacency(table, window)
    cone = new = S
    while new:
        new = union(succ, new) & ~cone
        cone |= new
    return cone


def _first_semipath(masks, source, targets):
    """A shortest semipath from window index ``source`` to the first
    object of the ``targets`` mask that breadth-first search reaches, as
    a vertex list, or None.  Semipaths are walks along nonzero
    morphisms between distinct objects and shift jumps."""
    parent = {}
    for k in breadth_first(masks.semipath_successors, [source], parent):
        if (targets >> k) & 1:
            path = []
            while k is not None:
                path.append(masks.objects[k])
                k = parent[k]
            return path[::-1]
    return None


def semipath(X, Y, table, window):
    """A semipath from X to Y as a vertex list, or None."""
    if not (window.contains(X) and window.contains(Y)):
        raise PreconditionError("semipath endpoints must lie in the window")
    masks = _masks(table, window)
    return _first_semipath(masks, masks.index[X], 1 << masks.index[Y])


def ringel_criterion(table, window):
    """Interior objects X with no semipath from X[1] back to X (the
    witnesses of derived-hereditariness), as a window mask."""
    masks = _masks(table, window)
    reach = masks.semipath_reach
    return sum(
        1 << k for k in bits(masks.interior) if not reach[k + masks.n] >> k & 1
    )


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


def verify_lemma42(ts, table):
    """Split t-structures admit no semipath from the aisle into the
    right orthogonal; returns (bool, witness path or None)."""
    if not ts.split:
        raise PreconditionError("semipath separation asserted for split input")
    masks = _masks(table, ts.window)
    targets = ts.coaisle & masks.interior
    for k in bits(ts.aisle & masks.interior):
        if (masks.semipath_reach[k] | 1 << k) & targets:
            return False, _first_semipath(masks, k, targets)
    return True, None


def verify_lemma41(ts, table):
    """Biconditional: the aisle is closed under downward shift on the
    interior iff the heart is empty."""
    if not ts.split:
        raise PreconditionError("biconditional asserted for split input")
    masks = _masks(table, ts.window)
    down_closed = not masks.shift(ts.aisle & masks.interior, -1) & ~ts.aisle
    heart_empty = not ts.heart & masks.interior
    return down_closed == heart_empty


def enumerate_split_tstructures(table, window, split_pairs):
    """Window-representable split t-structures whose aisle is saturated
    at the top degree and empty at the bottom degree.

    Each is a pivoted lift of a split torsion pair; pivots keep one spare
    degree below and two above so the heart stays interior.  The empty
    torsion class at pivot d equals the full one at pivot d+1, so those
    duplicates are dropped."""
    out = []
    for pivot in range(window.lo + 1, window.hi - 1):
        for tp in split_pairs:
            if len(tp.torsion) == 0 and pivot < window.hi - 2:
                continue  # duplicate of the full class one pivot up
            out.append((pivot, tp, lift(tp, table, window, pivot)))
    return out


def classify_split(table, window, split_pairs):
    """Classification report for every enumerated split t-structure.

    For each structure the Ext-projective count must be 0 or the number
    of vertices; nonzero sets must form a section whose successor cone
    reproduces the aisle interior.  At small scale an exhaustive scan
    over all shift-closed subsets confirms the enumeration misses no
    split aisle."""
    n_vertices = len(table.quiver.vertices)
    masks = _masks(table, window)
    report = []
    enumerated = enumerate_split_tstructures(table, window, split_pairs)
    for pivot, tp, ts in enumerated:
        E = ext_projectives(ts, table)
        checks = {}
        checks["ext_projective_count"] = E.bit_count() in (0, n_vertices)
        if E:
            checks["count_matches_vertices"] = E.bit_count() == n_vertices
            checks["section"] = section_check(E, table, window)
            cone = successors(E, table, window)
            checks["successors_reproduce_aisle"] = not (
                (cone ^ ts.aisle) & masks.interior
            )
        else:
            checks["zero_heart"] = not ts.heart
        report.append(
            {
                "pivot": pivot,
                "torsion": [
                    list(table.entries[i].dimvec) for i in tp.torsion
                ],
                "ext_projectives": sorted(
                    x.label(table) for x in masks.members(E)
                ),
                "checks": checks,
                "pass": all(checks.values()),
            }
        )
    if len(table.entries) <= 3:
        # every shift-closed window subset that contains the top degree
        # and misses the bottom one, by per-indecomposable entry degree;
        # the Hom-orthogonal ones are the split aisles
        degrees = range(window.lo + 1, window.hi + 1)
        scan = masks.orthogonal_unions(
            [[(t, masks.above(1 << i, t)) for t in degrees] for i in range(masks.n)]
        )
        # expected family: pivoted lifts at every pivot whose thresholds
        # stay inside the scan range, plus the top tail aisle
        expected = {(window.hi,) * len(table.entries)}
        for pivot in range(window.lo + 1, window.hi):
            for tp in split_pairs:
                expected.add(
                    tuple(
                        pivot if i in tp.torsion else pivot + 1
                        for i in range(len(table.entries))
                    )
                )
        report.append(
            {
                "scan": "exhaustive shift-closed subsets",
                "found": len(scan),
                "checks": {"no_unlisted_split_aisles": set(scan) == expected},
                "pass": set(scan) == expected,
            }
        )
    return report


def verify_cor64(ts, table, candidates=None):
    """Ext-projectives of a split t-structure as a tilting complex:
    inside the heart, shift-self-orthogonal, signed dimension vectors of
    full rank.  Returns (bool, diagnostics list).

    ``candidates`` is the Ext-projective window mask when the caller has
    it already, or another window mask: corrupted sets must make at least
    one check fail."""
    if not ts.split:
        raise PreconditionError("tilting-complex check needs a split input")
    masks = _masks(table, ts.window)
    n, objects = masks.n, masks.objects
    E = ext_projectives(ts, table) if candidates is None else candidates
    if not E:
        raise PreconditionError("no Ext-projectives to check")
    # the members by indecomposable, then degree
    E = sorted(bits(E), key=lambda k: (k % n, k))
    diagnostics = [
        f"{objects[e].label(table)} outside the heart"
        for e in E
        if not ts.heart >> e & 1
    ]
    # per f, every other shift of f inside the window
    shifts = [masks.above(1 << f % n, ts.window.lo) & ~(1 << f) for f in E]
    for e in E:
        for f, f_shifts in zip(E, shifts):
            for k in bits(masks.out[e] & f_shifts):
                diagnostics.append(
                    f"nonzero morphism {objects[e].label(table)} -> "
                    f"{objects[f].label(table)} shifted by {k // n - f // n}"
                )
    signed = [
        [-c if objects[e].degree % 2 else c for c in table.entries[e % n].dimvec]
        for e in E
    ]
    if span_rank(signed) != len(table.quiver.vertices):
        diagnostics.append("signed dimension vectors do not span full rank")
    return not diagnostics, diagnostics
