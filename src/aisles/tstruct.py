"""t-structures on the windowed derived model.

The lift and trace maps connect torsion pairs in the module category with
t-structures whose aisle contains every module in degree 1 and whose
right orthogonal contains every module in degree -1.  On top of that sit
the Ext-projective calculus, sections and successor cones, semipath
reachability, and the verifiers for the split-t-structure classification.
Every Hom-vanishing, reachability and split-aisle scan runs on the
table's ``HomMasks`` for the window (``aisles.derived``).

All verifiers quantify over interior window degrees only; conclusions
about boundary-adjacent objects are never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .derived import (
    DerivedObject,
    DerivedSubcategory,
    TableContext,
    all_objects,
    breadth_first,
    derived_ar_arrows,
    hom_masks,
    shift,
    tau_derived,
    tau_inverse_derived,
    tau_orbits,
)
from .errors import ConsistencyError, PreconditionError
from .linalg import span_rank
from .torsion import (
    Subcategory,
    TorsionPair,
    _bits,
    canonical_sequence_oracle,
    is_torsion_pair,
)


@dataclass(frozen=True)
class TStructure:
    """Aisle plus its right orthogonal (stored unshifted as ``coaisle``),
    the split flag and the heart object set."""

    aisle: DerivedSubcategory
    coaisle: DerivedSubcategory
    split: bool
    heart: frozenset

    @property
    def window(self):
        return self.aisle.window


# ---------------------------------------------------------------------------
# Lift and trace
# ---------------------------------------------------------------------------


def _masks(table, window):
    return hom_masks(TableContext(table), window)


def lift(tp, table, window, pivot=0):
    """The t-structure induced by a torsion pair: torsion modules in
    degree ``pivot`` plus everything in higher degrees.  Pivot 0 is the
    lift proper; other pivots are its shifts."""
    n = len(table.entries)
    aisle = {DerivedObject(i, pivot) for i in tp.torsion}
    coaisle = {DerivedObject(j, pivot) for j in tp.free}
    for d in window.degrees():
        if d > pivot:
            aisle |= {DerivedObject(i, d) for i in range(n)}
        if d < pivot:
            coaisle |= {DerivedObject(i, d) for i in range(n)}
    heart = {DerivedObject(i, pivot) for i in tp.torsion} | {
        DerivedObject(j, pivot + 1) for j in tp.free
    }
    return TStructure(
        aisle=DerivedSubcategory(window, frozenset(aisle), upper_tail=True),
        coaisle=DerivedSubcategory(window, frozenset(coaisle), lower_tail=True),
        split=tp.split,
        heart=frozenset(heart),
    )


def trace(ts, table):
    """The torsion pair cut out at degree 0.

    Requires every module in degree 1 inside the aisle and every module
    in degree -1 inside the right orthogonal; a missing shifted module is
    a precondition violation, not a silent answer."""
    n = len(table.entries)
    for i in range(n):
        x = DerivedObject(i, 1)
        if x not in ts.aisle:
            raise PreconditionError(
                f"aisle does not contain the shifted module {x.label(table)}"
            )
        y = DerivedObject(i, -1)
        if y not in ts.coaisle:
            raise PreconditionError(
                f"right orthogonal does not contain {y.label(table)}"
            )
    torsion = Subcategory(
        frozenset(x.indec for x in ts.aisle.at_degree(0))
    )
    free = Subcategory(frozenset(y.indec for y in ts.coaisle.at_degree(0)))
    split = len(torsion) + len(free) == n
    tp = TorsionPair(torsion, free, split)
    if not is_torsion_pair(tp, table):
        raise ConsistencyError(
            "degree-0 slice of the t-structure is not a torsion pair"
        )
    return tp


def is_aisle_window(S, table):
    """Aisle predicate with diagnostics; returns (bool, message).

    Checks shift closure, then the approximation property: through the
    canonical-sequence oracle of the traced pair when degree 1 sits
    inside and degree -1 sits in the orthogonal, through the split
    coverage property otherwise."""
    window = S.window
    n = len(table.entries)
    for x in S.members:
        if x.degree < window.hi:
            if shift(x, 1) not in S.members:
                return False, f"not closed under shift at {x.label(table)}"
        elif not S.upper_tail:
            return False, f"no upper tail above {x.label(table)}"
    # the right orthogonal in the window: objects of the upper tail map
    # into no window object, so the window members of S suffice
    masks = _masks(table, window)
    orth = set(masks.members(masks.full & ~masks.targets(masks.mask(S.members))))
    hypotheses = all(
        DerivedObject(i, 1) in S.members for i in range(n)
    ) and all(DerivedObject(i, -1) in orth for i in range(n))
    if hypotheses:
        torsion = Subcategory(frozenset(x.indec for x in S.at_degree(0)))
        free = Subcategory(
            frozenset(y.indec for y in orth if y.degree == 0)
        )
        tp = TorsionPair(torsion, free, split=len(torsion) + len(free) == n)
        if not is_torsion_pair(tp, table):
            return False, (
                "degree-0 trace is not a fixed point of the orthogonal "
                f"operators: torsion={sorted(torsion.members)}"
            )
        for y in range(n):
            canonical_sequence_oracle(y, tp, table)
        return True, "ok"
    for x in all_objects(table, window):
        if not window.is_interior(x):
            continue
        if x not in S.members and x not in orth:
            return False, (
                f"object {x.label(table)} has no approximation: neither in "
                "the aisle nor in its right orthogonal"
            )
    return True, "ok (split coverage)"


# ---------------------------------------------------------------------------
# Ext-projectives
# ---------------------------------------------------------------------------


def ext_projectives(ts, table):
    """Interior aisle members with no extensions inside the aisle.

    Computed by the translate criterion (tau of the object lands in the
    right orthogonal) and cross-checked against the defining
    Hom-vanishing; disagreement aborts."""
    window = ts.window
    masks = _masks(table, window)
    aisle = masks.mask(ts.aisle.members)
    reached = masks.targets(aisle)
    shifted = masks.shift(aisle, 1)
    out = set()
    for k in _bits(aisle):
        x = masks.objects[k]
        if not window.is_interior(x):
            continue
        by_tau = not (reached >> masks.index[tau_derived(x, table)]) & 1
        by_def = not masks.out[k] & shifted
        if by_tau != by_def:
            raise ConsistencyError(
                f"Ext-projectivity criteria disagree at {x.label(table)}"
            )
        if by_tau:
            out.add(x)
    return out


# ---------------------------------------------------------------------------
# Sections, successors, semipaths
# ---------------------------------------------------------------------------


def section_check(S, table, window):
    """One object per interior tau-orbit, compatible with the AR arrows
    up to translation (the presection condition)."""
    interior = {x for x in S if window.is_interior(x)}
    if interior != set(S):
        return False
    for orbit in tau_orbits(table, window):
        hits = [x for x in orbit if window.is_interior(x) and x in S]
        if len(hits) != 1:
            return False
    arrows = derived_ar_arrows(table, window)
    sset = set(S)
    for (x, y) in arrows:
        if x in sset and window.is_interior(y):
            if y not in sset and tau_derived(y, table) not in sset:
                return False
        if y in sset and window.is_interior(x):
            if x not in sset and tau_inverse_derived(x, table) not in sset:
                return False
    return True


def successors(S, table, window):
    """Reflexive-transitive closure under the derived AR arrows."""
    masks = _masks(table, window)
    succ = [[] for _ in masks.objects]
    for (x, y) in derived_ar_arrows(table, window):
        succ[masks.index[x]].append(masks.index[y])
    sources = [masks.index[x] for x in S if window.contains(x)]
    closure = {masks.objects[k] for k in breadth_first(succ, sources, {})}
    n = len(table.entries)
    top_full = all(DerivedObject(i, window.hi) in closure for i in range(n))
    return DerivedSubcategory(window, frozenset(closure), upper_tail=top_full)


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


def semipath_exists(X, Y, table, window):
    return semipath(X, Y, table, window) is not None


def ringel_criterion(table, window):
    """Interior objects X with no semipath from X[1] back to X (the
    witnesses of derived-hereditariness)."""
    masks = _masks(table, window)
    reach = masks.semipath_reach
    return {
        x
        for k, x in enumerate(masks.objects)
        if window.is_interior(x) and not (reach[k + masks.n] >> k) & 1
    }


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


def verify_lemma42(ts, table):
    """Split t-structures admit no semipath from the aisle into the
    right orthogonal; returns (bool, witness path or None)."""
    if not ts.split:
        raise PreconditionError("semipath separation asserted for split input")
    window = ts.window
    masks = _masks(table, window)
    interior = [x for x in ts.coaisle.members if window.is_interior(x)]
    targets = masks.mask(interior)
    for k in _bits(masks.mask(ts.aisle.members)):
        if not window.is_interior(masks.objects[k]):
            continue
        if (masks.semipath_reach[k] | 1 << k) & targets:
            return False, _first_semipath(masks, k, targets)
    return True, None


def verify_lemma41(ts, table):
    """Biconditional: the aisle is closed under downward shift on the
    interior iff the heart is empty."""
    if not ts.split:
        raise PreconditionError("biconditional asserted for split input")
    window = ts.window
    down_closed = all(
        shift(x, -1) in ts.aisle
        for x in ts.aisle.members
        if window.is_interior(x)
    )
    heart_empty = not any(window.contains(h) for h in ts.heart)
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
    report = []
    enumerated = enumerate_split_tstructures(table, window, split_pairs)
    for pivot, tp, ts in enumerated:
        E = ext_projectives(ts, table)
        checks = {}
        checks["ext_projective_count"] = len(E) in (0, n_vertices)
        heart_nonzero = bool(ts.heart)
        if E:
            checks["count_matches_vertices"] = len(E) == n_vertices
            checks["section"] = section_check(E, table, window)
            cone = successors(E, table, window)
            interior = {
                x
                for x in all_objects(table, window)
                if window.is_interior(x)
            }
            checks["successors_reproduce_aisle"] = {
                x for x in cone.members if x in interior
            } == {x for x in ts.aisle.members if x in interior}
        else:
            checks["zero_heart"] = not heart_nonzero
        report.append(
            {
                "pivot": pivot,
                "torsion": [
                    list(table.entries[i].dimvec) for i in tp.torsion
                ],
                "ext_projectives": sorted(
                    x.label(table) for x in E
                ),
                "checks": checks,
                "pass": all(checks.values()),
            }
        )
    if len(table.entries) <= 3:
        # every shift-closed window subset that contains the top degree
        # and misses the bottom one, by per-indecomposable entry degree;
        # the Hom-orthogonal ones are the split aisles
        masks = _masks(table, window)
        degrees = range(window.lo + 1, window.hi + 1)
        scan = masks.orthogonal_unions(
            [[(t, masks.above([i], t)) for t in degrees] for i in range(masks.n)]
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

    ``candidates`` overrides the computed Ext-projective set with other
    window objects; corrupted sets must make at least one check fail."""
    if not ts.split:
        raise PreconditionError("tilting-complex check needs a split input")
    E = sorted(ext_projectives(ts, table) if candidates is None else candidates)
    if not E:
        raise PreconditionError("no Ext-projectives to check")
    window = ts.window
    diagnostics = []
    ok = True
    for e in E:
        if e not in ts.heart:
            ok = False
            diagnostics.append(f"{e.label(table)} outside the heart")
    masks = _masks(table, window)
    for e in E:
        for f in E:
            # every other shift of f inside the window
            shifts = masks.above([f.indec], window.lo) & ~(1 << masks.index[f])
            for k in _bits(masks.out[masks.index[e]] & shifts):
                ok = False
                diagnostics.append(
                    f"nonzero morphism {e.label(table)} -> "
                    f"{f.label(table)} shifted by "
                    f"{masks.objects[k].degree - f.degree}"
                )
    signed = [
        [((-1) ** e.degree) * c for c in table.entries[e.indec].dimvec]
        for e in E
    ]
    if span_rank(signed) != len(table.quiver.vertices):
        ok = False
        diagnostics.append("signed dimension vectors do not span full rank")
    return ok, diagnostics
