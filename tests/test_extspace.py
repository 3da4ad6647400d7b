import pytest

from aisles.extspace import ExtMachine
from aisles.quiver import BUILTIN_QUIVERS
from aisles.repcore import enumerate_indecomposables, hom_system, unflatten


def test_ext_dims_match_table(a2_table, a3_table):
    for table in (a2_table, a3_table):
        machine = ExtMachine(table)
        n = len(table.entries)
        for i in range(n):
            for j in range(n):
                assert machine.ext_dim(i, j) == table.ext[i][j]


def test_ext_basis_spans(a3_table):
    machine = ExtMachine(a3_table)
    n = len(a3_table.entries)
    for i in range(n):
        for j in range(n):
            basis = machine.ext_basis(i, j)
            assert len(basis) == a3_table.ext[i][j]
            assert machine.class_span_dim(i, j, basis) == len(basis)


def _image_families(table, i, j):
    """im delta of Ext^1(i, j), one arrow family per column of delta (of
    the integer Hom system, a nonzero multiple of delta: same image)."""
    X, Y = table.entries[i].rep, table.entries[j].rep
    rows, ncols = hom_system(X, Y)
    shapes = [
        (a.name, Y.dim(a.target), X.dim(a.source)) for a in table.quiver.arrows
    ]
    return [unflatten([row.get(c, 0) for row in rows], shapes) for c in range(ncols)]


@pytest.mark.parametrize("fixture", ["a3_table", "d4_table"])
def test_yoneda_products_are_well_defined(fixture, request):
    # composing a coboundary with a morphism on either side stays a
    # coboundary, so the products do not depend on the representative
    t = request.getfixturevalue(fixture)
    machine = ExtMachine(t)
    n = len(t.entries)
    for i in range(n):
        for j in range(n):
            image = _image_families(t, i, j)
            assert machine.class_span_dim(i, j, image) == 0
            for m in range(n):
                pre = [
                    machine.pre_compose(psi, f)
                    for psi in image
                    for f in t.hom_bases[m][i]
                ]
                post = [
                    machine.post_compose(phi, h)
                    for phi in image
                    for h in t.hom_bases[j][m]
                ]
                assert machine.class_span_dim(m, j, pre) == 0
                assert machine.class_span_dim(i, m, post) == 0


@pytest.mark.parametrize("name", ["a3", "d4", "d5"])
def test_irreducible_ext_only_injective_to_projective(name):
    t = enumerate_indecomposables(BUILTIN_QUIVERS[name]())
    machine = ExtMachine(t)
    expected = set()
    for a in t.quiver.arrows:
        iw = t.injective_by_vertex(a.source)
        pv = t.projective_by_vertex(a.target)
        expected.add((iw.id, pv.id))
    n = len(t.entries)
    got = {
        (i, j)
        for i in range(n)
        for j in range(n)
        if machine.irreducible_ext_dim(i, j) == 1
    }
    assert got == expected
