import functools
import itertools
import random

import pytest

from aisles import derived, tstruct
from aisles.derived import (
    DerivedObject,
    TableContext,
    Window,
    hom_derived,
    hom_masks,
    shift,
    tau_derived,
)
from aisles.errors import PreconditionError
from aisles.quiver import BUILTIN_QUIVERS
from aisles.repcore import enumerate_indecomposables
from aisles.torsion import enumerate_torsion_pairs
from aisles.tstruct import (
    classify_split,
    enumerate_split_tstructures,
    ext_projectives,
    lift,
    ringel_criterion,
    section_check,
    semipath,
    successors,
    trace,
    verify_cor64,
    verify_lemma41,
    verify_lemma42,
)
from reference import (
    all_objects,
    arrow_pairs,
    is_interior,
    reference_cone,
    tau_inverse_derived,
    tau_orbits,
    window_mask,
)


def _ids(table, *dimvecs):
    return frozenset(table.by_dimvec(d).id for d in dimvecs)


def _masks(table, window):
    return hom_masks(TableContext(table), window)


def _heart_objects(ts, table):
    """The heart mask decoded: bit (d - lo)·n + i is module i in degree
    d, which may lie one degree above the window."""
    n = len(table.entries)
    return {
        DerivedObject(k % n, ts.window.lo + k // n)
        for k in range(ts.heart.bit_length())
        if ts.heart >> k & 1
    }


def _pair(table, torsion_dimvecs):
    want = _ids(table, *torsion_dimvecs)
    return next(
        tp
        for tp in enumerate_torsion_pairs(table)
        if tp.torsion.members == want
    )


def test_lift_trace_roundtrip(a2_table, a3_table, window):
    for table in (a2_table, a3_table):
        for tp in enumerate_torsion_pairs(table):
            ts = lift(tp, table, window)
            back = trace(ts, table)
            assert back.torsion.members == tp.torsion.members
            assert back.free.members == tp.free.members
            assert back.split == tp.split


def test_lift_structure(a2_table, window):
    t = a2_table
    tp = _pair(t, [(1, 0)])
    ts = lift(tp, t, window)
    index = _masks(t, window).index
    s1 = t.by_dimvec((1, 0)).id
    s2 = t.by_dimvec((0, 1)).id
    p1 = t.by_dimvec((1, 1)).id
    assert ts.aisle >> index[DerivedObject(s1, 0)] & 1
    assert not ts.aisle >> index[DerivedObject(s2, 0)] & 1
    assert ts.aisle >> index[DerivedObject(p1, 2)] & 1
    assert ts.coaisle >> index[DerivedObject(s2, 0)] & 1
    # degree 1 above Window(-2, 0) and degree -1 below Window(0, 2) are
    # read from the aisle's upper and the coaisle's lower tail
    for tail in (Window(-2, 0), Window(0, 2)):
        assert trace(lift(tp, t, tail), t) == tp
    assert _heart_objects(ts, t) == {
        DerivedObject(s1, 0), DerivedObject(s2, 1), DerivedObject(p1, 1)
    }


def _lift_by_objects(tp, table, window, pivot):
    """Aisle, coaisle, heart and Ext-projectives of the pivoted lift
    written out as sets of stalk objects: the reference for the masks
    ``lift`` and ``ext_projectives`` build.  The Ext-projectives are the
    interior aisle members with no nonzero morphism into the shifted
    aisle, by ``hom_derived``."""
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
    ext_projectives = {
        x
        for x in aisle
        if is_interior(window, x)
        and not any(hom_derived(x, shift(y, 1), table) for y in aisle)
    }
    return aisle, coaisle, heart, ext_projectives


def _by_degree(objects):
    out = {}
    for x in objects:
        out.setdefault(x.degree, set()).add(x.indec)
    return out


@pytest.mark.parametrize("name", ["a2", "a3", "d4", "d5"])
def test_lift_matches_stalk_object_reference(name):
    """The decoded heart, the Ext-projectives, their successor cone and
    ``section_check`` against the object-set references, at every pivot
    of three windows; some of the Ext-projective sets are sections and
    some are not."""
    table = enumerate_indecomposables(BUILTIN_QUIVERS[name]())
    pairs = enumerate_torsion_pairs(table)
    sections = set()
    for window in (Window(-2, 3), Window(-2, 0), Window(0, 2)):
        masks = _masks(table, window)
        arrows = arrow_pairs(table, window)
        # pivot 0 and every pivot enumerate_split_tstructures lifts at
        for pivot in sorted({0, *range(window.lo + 1, window.hi - 1)}):
            for tp in pairs:
                ts = lift(tp, table, window, pivot)
                aisle, coaisle, heart, E = _lift_by_objects(
                    tp, table, window, pivot
                )
                for got, want in ((ts.aisle, aisle), (ts.coaisle, coaisle)):
                    assert _by_degree(masks.members(got)) == _by_degree(want)
                assert _heart_objects(ts, table) == heart
                assert ts.split == tp.split
                assert ts.window == window
                got = ext_projectives(ts, table)
                assert got == window_mask(masks, E), (pivot, sorted(E))
                cone = window_mask(masks, reference_cone(arrows, E))
                assert successors(got, table, window) == cone
                want = full_scan_section_check(E, table, window)
                assert section_check(got, table, window) == want
                sections.add(want)
    assert sections == {True, False}


def test_mask_entry_points_build_no_stalk_objects(d4_table, window, monkeypatch):
    """Once a window's Hom masks and AR rows are built, ``lift``,
    ``ext_projectives``, ``section_check`` and ``successors`` work on
    masks alone: they build no ``DerivedObject``."""
    pairs = enumerate_torsion_pairs(d4_table)
    successors(0, d4_table, window)  # builds the masks and the AR rows

    def refuse(*args):
        raise AssertionError(f"DerivedObject{args} built")

    for module in (derived, tstruct):
        monkeypatch.setattr(module, "DerivedObject", refuse)
    for tp in pairs:
        ts = lift(tp, d4_table, window)
        E = ext_projectives(ts, d4_table)
        section_check(E, d4_table, window)
        successors(E, d4_table, window)


def test_trace_precondition(a2_table, window):
    tp = _pair(a2_table, [(1, 0)])
    ts = lift(tp, a2_table, window)
    masks = _masks(a2_table, window)
    # remove a degree-1 shifted module from the aisle
    degree1 = [x for x in masks.objects if x.degree == 1]
    broken = ts.aisle & ~window_mask(masks, degree1)
    with pytest.raises(PreconditionError) as exc:
        trace(ts._replace(aisle=broken), a2_table)
    assert "@1" in str(exc.value) or "shift" in str(exc.value)
    # the first missing object in module order, the aisle's before the
    # orthogonal's for each module
    label = DerivedObject(0, 1).label(a2_table)
    assert str(exc.value) == (
        f"aisle does not contain the shifted module {label}"
    )
    both = ts._replace(
        aisle=ts.aisle & ~window_mask(masks, [DerivedObject(1, 1)]),
        coaisle=ts.coaisle & ~window_mask(masks, [DerivedObject(0, -1)]),
    )
    with pytest.raises(PreconditionError) as exc:
        trace(both, a2_table)
    label = DerivedObject(0, -1).label(a2_table)
    assert str(exc.value) == f"right orthogonal does not contain {label}"


def test_ext_projectives_example(a2_table, window):
    t = a2_table
    tp = _pair(t, [(1, 0)])  # split pair with torsion {S_1}
    ts = lift(tp, t, window)
    s1 = t.by_dimvec((1, 0)).id
    s2 = t.by_dimvec((0, 1)).id
    assert ext_projectives(ts, t) == window_mask(_masks(t, window), [
        DerivedObject(s1, 0),
        DerivedObject(s2, 1),
    ])


def test_nonsplit_lift_ext_projectives_frozen(a2_table, window):
    t = a2_table
    tp = _pair(t, [(0, 1)])  # the non-split pair
    assert not tp.split
    s2 = t.by_dimvec((0, 1)).id
    p1 = t.by_dimvec((1, 1)).id
    assert ext_projectives(lift(tp, t, window), t) == window_mask(_masks(t, window), [
        DerivedObject(s2, 0),
        DerivedObject(p1, 1),
    ])


def test_section_check(a2_table, window):
    t = a2_table
    s1 = t.by_dimvec((1, 0)).id
    s2 = t.by_dimvec((0, 1)).id
    p1 = t.by_dimvec((1, 1)).id
    mask = functools.partial(window_mask, _masks(t, window))
    good = mask([DerivedObject(s1, 0), DerivedObject(s2, 1)])
    assert section_check(good, t, window)
    # two objects from one tau-orbit
    bad = mask([DerivedObject(s1, 0), DerivedObject(p1, 1)])
    assert not section_check(bad, t, window)
    # boundary object disqualifies
    assert not section_check(mask([DerivedObject(s1, window.hi)]), t, window)


def full_scan_section_check(S, table, window):
    """The presection condition over every tau-orbit and every derived
    AR arrow of the window."""
    interior = {x for x in S if is_interior(window, x)}
    if interior != set(S):
        return False
    for orbit in tau_orbits(table, window):
        hits = [x for x in orbit if is_interior(window, x) and x in S]
        if len(hits) != 1:
            return False
    sset = set(S)
    for (x, y) in arrow_pairs(table, window):
        if x in sset and is_interior(window, y):
            if y not in sset and tau_derived(y, table) not in sset:
                return False
        if y in sset and is_interior(window, x):
            if x not in sset and tau_inverse_derived(x, table) not in sset:
                return False
    return True


@pytest.mark.parametrize("name", ["a3", "d4", "d5"])
def test_section_check_matches_full_scan(name, window):
    """Every Ext-projective set that classify checks, and each of them
    with one member moved along its tau-orbit, shifted, dropped, or
    joined by another object; the empty set; and 200 random choices of
    one interior object per tau-orbit."""
    table = enumerate_indecomposables(BUILTIN_QUIVERS[name]())
    masks = _masks(table, window)
    split = [tp for tp in enumerate_torsion_pairs(table) if tp.split]
    rng = random.Random(0)
    orbits = [
        sorted(x for x in orbit if is_interior(window, x))
        for orbit in tau_orbits(table, window)
    ]
    candidates = [set()]
    candidates += [{rng.choice(orbit) for orbit in orbits} for _ in range(200)]
    for _pivot, _tp, ts in enumerate_split_tstructures(table, window, split):
        E = set(masks.members(ext_projectives(ts, table)))
        if not E:
            continue
        candidates.append(E)
        for x in E:
            rest = E - {x}
            for other in (
                tau_derived(x, table),
                tau_inverse_derived(x, table),
                DerivedObject(x.indec, x.degree + 1),
            ):
                candidates.append(rest | {other})
                candidates.append(E | {other})
            candidates.append(rest)
    outcomes = set()
    for S in candidates:
        want = full_scan_section_check(S, table, window)
        assert section_check(window_mask(masks, S), table, window) == want, sorted(S)
        outcomes.add(want)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "name, lo, hi", [("a2", -2, 3), ("a3", -2, 3), ("d4", -1, 2)]
)
def test_section_check_rejects_one_per_orbit_sets_that_are_not_slices(
    name, lo, hi
):
    """A set with one interior object per tau-orbit is a section of ZΔ
    exactly when its full subquiver is connected (a slice).  Over every
    such set, ``section_check`` accepts exactly the connected ones; most
    are not, and only the presection condition rejects those."""
    table = enumerate_indecomposables(BUILTIN_QUIVERS[name]())
    window = Window(lo, hi)
    mask = functools.partial(window_mask, _masks(table, window))
    neighbours = {}
    for a, b in arrow_pairs(table, window):
        neighbours.setdefault(a, set()).add(b)
        neighbours.setdefault(b, set()).add(a)
    orbits = [
        sorted(x for x in orbit if is_interior(window, x))
        for orbit in tau_orbits(table, window)
    ]
    outcomes = []
    for choice in itertools.product(*orbits):
        S = set(choice)
        reached, todo = {choice[0]}, [choice[0]]
        while todo:
            new = neighbours[todo.pop()] & S - reached
            reached |= new
            todo += new
        assert section_check(mask(S), table, window) == (reached == S), choice
        outcomes.append(reached == S)
    assert 0 < sum(outcomes) < len(outcomes)
    # on A2: [0, 1] in degrees -1 and 0 lie on the two orbits, unjoined
    if name == "a2":
        s2 = table.by_dimvec((0, 1)).id
        pair = {DerivedObject(s2, -1), DerivedObject(s2, 0)}
        assert not section_check(mask(pair), table, window)


def test_successors_cone(a2_table, window):
    t = a2_table
    s1 = t.by_dimvec((1, 0)).id
    index = _masks(t, window).index
    cone = successors(1 << index[DerivedObject(s1, 0)], t, window)
    assert (cone >> index[DerivedObject(s1, 0)]) & 1
    s2 = t.by_dimvec((0, 1)).id
    assert (cone >> index[DerivedObject(s2, 1)]) & 1
    assert not (cone >> index[DerivedObject(s2, 0)]) & 1


def test_semipath_shift_and_hom_edges(a2_table, window):
    t = a2_table
    s2 = t.by_dimvec((0, 1)).id
    s1 = t.by_dimvec((1, 0)).id
    p1 = t.by_dimvec((1, 1)).id
    path = semipath(DerivedObject(s2, 0), DerivedObject(s1, 0), t, window)
    assert path is not None
    assert path[0] == DerivedObject(s2, 0) and path[-1] == DerivedObject(s1, 0)
    # degree never drops along a semipath
    assert all(b.degree >= a.degree for a, b in zip(path, path[1:]))
    assert (
        semipath(DerivedObject(s1, 1), DerivedObject(p1, 0), t, window) is None
    )
    with pytest.raises(PreconditionError):
        semipath(DerivedObject(s1, 99), DerivedObject(s1, 0), t, window)


def test_ringel_criterion_all_interior(a2_table, a3_table, window):
    for t in (a2_table, a3_table):
        interior = {
            x for x in all_objects(t, window) if is_interior(window, x)
        }
        assert ringel_criterion(t, window) == window_mask(_masks(t, window), interior)


def test_verify_lemma42_split_pairs(a2_table, window):
    for tp in enumerate_torsion_pairs(a2_table):
        if not tp.split:
            continue
        ok, witness = verify_lemma42(lift(tp, a2_table, window), a2_table)
        assert ok and witness is None


def test_verify_lemma42_detects_corruption(a2_table, window):
    t = a2_table
    tp = _pair(t, [(1, 0)])
    ts = lift(tp, t, window)
    masks = _masks(t, window)
    s2 = t.by_dimvec((0, 1)).id
    corrupted = ts._replace(aisle=ts.aisle | window_mask(masks, [DerivedObject(s2, 0)]))
    ok, witness = verify_lemma42(corrupted, t)
    assert not ok
    assert witness[0] == DerivedObject(s2, 0)
    assert ts.coaisle >> masks.index[witness[-1]] & 1


def test_verify_lemma42_requires_split(a2_table, window):
    tp = _pair(a2_table, [(0, 1)])
    with pytest.raises(PreconditionError):
        verify_lemma42(lift(tp, a2_table, window), a2_table)


def test_verify_lemma41(a2_table, window):
    for tp in enumerate_torsion_pairs(a2_table):
        if tp.split:
            assert verify_lemma41(lift(tp, a2_table, window), a2_table)


def test_enumerate_split_counts(a2_table, window):
    split_pairs = [
        tp for tp in enumerate_torsion_pairs(a2_table) if tp.split
    ]
    enumerated = enumerate_split_tstructures(a2_table, window, split_pairs)
    pivots = list(range(window.lo + 1, window.hi - 1))
    # empty torsion classes are deduplicated except at the topmost pivot
    expected = len(pivots) * (len(split_pairs) - 1) + 1
    assert len(enumerated) == expected


def test_classify_split_all_pass(a2_table, a3_table, window):
    for table in (a2_table, a3_table):
        split_pairs = [
            tp for tp in enumerate_torsion_pairs(table) if tp.split
        ]
        report = classify_split(table, window, split_pairs)
        assert report, "empty classification report"
        assert all(case["pass"] for case in report)


def test_classify_split_scan_present_for_small_tables(a2_table, window):
    split_pairs = [tp for tp in enumerate_torsion_pairs(a2_table) if tp.split]
    report = classify_split(a2_table, window, split_pairs)
    scans = [case for case in report if "scan" in case]
    assert len(scans) == 1
    assert scans[0]["found"] == 13
    assert scans[0]["pass"]


def test_verify_cor64_passes(a2_table, window):
    t = a2_table
    tp = _pair(t, [(1, 0)])
    ts = lift(tp, t, window)
    ok, diag = verify_cor64(ts, t)
    assert ok, diag


def test_verify_cor64_detects_corrupted_candidates(a2_table, window):
    t = a2_table
    tp = _pair(t, [(1, 0)])
    ts = lift(tp, t, window)
    s1 = t.by_dimvec((1, 0)).id
    s2 = t.by_dimvec((0, 1)).id
    p1 = t.by_dimvec((1, 1)).id
    bad = window_mask(_masks(t, window), [
        DerivedObject(s1, 0),
        DerivedObject(s2, 1),
        DerivedObject(p1, 1),
    ])
    ok, diag = verify_cor64(ts, t, candidates=bad)
    assert not ok
    assert diag


def test_verify_cor64_requires_split(a2_table, window):
    tp = _pair(a2_table, [(0, 1)])
    with pytest.raises(PreconditionError):
        verify_cor64(lift(tp, a2_table, window), a2_table)
