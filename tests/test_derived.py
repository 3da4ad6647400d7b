import pytest
from hypothesis import given, strategies as st

from aisles import derived
from aisles.derived import (
    DerivedObject,
    TableContext,
    Window,
    coloring_mask,
    cross_arrow_pairs,
    derived_ar_arrows,
    export_dot,
    hom_derived,
    hom_masks,
    shift,
    tau_derived,
)
from aisles.errors import ShapeError
from aisles.quiver import Quiver, quiver_from_edges
from aisles.repcore import enumerate_indecomposables
from reference import (
    all_objects,
    arrow_pairs,
    is_interior,
    tau_inverse_derived,
    tau_orbits,
)


def test_window_validation():
    with pytest.raises(ShapeError):
        Window(1, 3)
    with pytest.raises(ShapeError):
        Window(0, 1)
    w = Window(-1, 2)
    assert list(w.interior()) == [0, 1]


def test_derived_objects_sort_by_indec_then_degree():
    objs = [
        DerivedObject(2, 0), DerivedObject(0, 1), DerivedObject(1, -1), DerivedObject(0, -2)
    ]
    assert sorted(objs) == sorted(objs, key=lambda x: (x.indec, x.degree))
    assert sorted(objs)[:2] == [DerivedObject(0, -2), DerivedObject(0, 1)]


def test_hom_derived_rules(a2_table, window):
    t = a2_table
    s1 = t.by_dimvec((1, 0)).id
    s2 = t.by_dimvec((0, 1)).id
    assert hom_derived(DerivedObject(s1, 0), DerivedObject(s2, 1), t) == 1
    assert hom_derived(DerivedObject(s1, 0), DerivedObject(s2, 2), t) == 0
    assert hom_derived(DerivedObject(s1, 1), DerivedObject(s2, 0), t) == 0
    assert hom_derived(DerivedObject(s2, 0), DerivedObject(s2, 0), t) == 1


def test_tau_derived_examples(a2_table):
    t = a2_table
    s1 = t.by_dimvec((1, 0)).id
    s2 = t.by_dimvec((0, 1)).id
    p1 = t.by_dimvec((1, 1)).id
    assert tau_derived(DerivedObject(s1, 0), t) == DerivedObject(s2, 0)
    # projectives wrap to the injective of the same vertex, one degree down
    assert tau_derived(DerivedObject(p1, 0), t) == DerivedObject(s1, -1)
    assert tau_derived(DerivedObject(s2, 1), t) == DerivedObject(p1, 0)


@given(st.integers(-3, 3), st.integers(0, 2), st.integers(-2, 2))
def test_shift_group_action_and_tau_commutes(d, i, s):
    table = test_shift_group_action_and_tau_commutes.table
    x = DerivedObject(i, d)
    assert shift(x, 0) == x
    assert shift(shift(x, s), -s) == x
    assert tau_derived(shift(x, s), table) == shift(tau_derived(x, table), s)


from aisles.quiver import linear_quiver  # noqa: E402

test_shift_group_action_and_tau_commutes.table = enumerate_indecomposables(
    linear_quiver(2)
)


def test_tau_bijection(a3_table, window):
    objs = all_objects(a3_table, window)
    for x in objs:
        assert tau_inverse_derived(tau_derived(x, a3_table), a3_table) == x
        assert tau_derived(tau_inverse_derived(x, a3_table), a3_table) == x
    images = {tau_derived(x, a3_table) for x in objs}
    assert len(images) == len(objs)


def test_orbit_count_is_vertex_count(a2_table, a3_table, d4_table, window):
    for table in (a2_table, a3_table, d4_table):
        assert len(tau_orbits(table, window)) == len(table.quiver.vertices)


def test_serre_duality_window(a3_table, window):
    t = a3_table
    for x in all_objects(t, window):
        if not is_interior(window, x):
            continue
        for y in all_objects(t, window):
            tx = tau_derived(x, t)
            if not (window.contains(shift(y, 1)) and window.contains(tx)):
                continue
            assert hom_derived(y, tx, t) == hom_derived(x, shift(y, 1), t)


def test_degree_zero_arrows_match_module_ar(a3_table, window):
    arrows = arrow_pairs(a3_table, window)
    deg0 = {
        (x.indec, y.indec)
        for (x, y) in arrows
        if x.degree == 0 and y.degree == 0
    }
    assert deg0 == set(a3_table.ar_arrows)


def test_cross_degree_arrow_a2(a2_table, window):
    t = a2_table
    arrows = arrow_pairs(t, window)
    s1 = t.by_dimvec((1, 0)).id
    s2 = t.by_dimvec((0, 1)).id
    assert (DerivedObject(s1, 0), DerivedObject(s2, 1)) in arrows


def test_single_vertex_quiver_has_no_arrows(window):
    q = Quiver(("1",), ())
    table = enumerate_indecomposables(q)
    assert derived_ar_arrows(table, window) == [0] * len(window.degrees())


def test_subcategory_membership_and_tails(a2_table, window):
    n = len(a2_table.entries)
    members = [DerivedObject(i, d) for i in range(n) for d in range(1, 4)]
    mask = coloring_mask(a2_table, window, members)
    s = hom_masks(TableContext(a2_table), window).members(mask)
    assert s == sorted(members, key=lambda x: (x.degree, x.indec))
    assert DerivedObject(0, 3) in s
    # no tails: objects outside the window are never members
    assert DerivedObject(0, 5) not in s
    assert DerivedObject(0, -5) not in s
    assert DerivedObject(0, 0) not in s
    with pytest.raises(ShapeError) as exc:
        coloring_mask(a2_table, window, [DerivedObject(0, 9)])
    label = DerivedObject(0, 9).label(a2_table)
    assert str(exc.value) == f"member {label} outside the window -2..3"


def test_export_dot_counts(a2_table):
    w = Window(-1, 2)
    dot = export_dot(a2_table, w)
    assert dot.count("label=") == 12  # 3 indecomposables x 4 degrees
    assert dot.startswith("digraph")
    colored = export_dot(
        a2_table,
        w,
        coloring_mask(a2_table, w, [DerivedObject(0, 0)]),
    )
    assert colored.count("fillcolor") == 1


def test_cross_arrow_pairs_belong_to_their_table(monkeypatch):
    """Copies of two tables of different orientations, made and dropped in
    turn: each copy gets its own pairs, validated once.  A copy made right
    after another is dropped tends to reuse its address, which is where a
    cache keyed by id() would hand it the other orientation's pairs."""
    validations = 0
    validate = derived._validate_cross_arrows

    def counting(table, pairs):
        nonlocal validations  # keeps no reference to the table
        validations += 1
        validate(table, pairs)

    monkeypatch.setattr(derived, "_validate_cross_arrows", counting)
    orientations = ([(1, 2), (2, 3)], [(2, 1), (2, 3)])
    originals = []
    for edges in orientations:
        table = enumerate_indecomposables(quiver_from_edges("A3", edges))
        want = {
            (
                table.injective_by_vertex(str(s)).id,
                table.projective_by_vertex(str(t)).id,
            )
            for s, t in edges
        }
        originals.append((table, want))
    assert originals[0][1] != originals[1][1]
    for k in range(20):
        original, want = originals[k % 2]
        table = original.copy()
        assert cross_arrow_pairs(table) == want
        assert cross_arrow_pairs(table) == want
        assert validations == k + 1
        del table
