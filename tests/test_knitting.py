"""The module-free oracle: ZQ^op knitted from the quiver alone
(``reference.Knitting``) against what the code under test builds from
modules: the Hom and Ext tables, the translate, the projectives and
injectives, the module AR arrows and the gluing pairs."""

import json

import pytest
from hypothesis import given, settings

from aisles import cli
from aisles.derived import DEFAULT_WINDOW, DerivedObject, Window, tau_derived
from aisles.quiver import BUILTIN_QUIVERS
from aisles.repcore import enumerate_indecomposables, gluing_pairs
from reference import Knitting, all_objects, knitted_hom_ext, orientations


def _assert_knitting_matches(table, window):
    """The hammocks give ``table.hom`` and ``table.ext``; over ``window``
    the knitted vertices are the window objects, each once, tau(v, m) =
    (v, m - 1) is ``tau_derived``, (v, 0) is P_v and the last vertex of
    v's orbit in degree 0 is I_w for the P_w[1] that follows it; the
    knitted arrows are the module AR arrows in every degree and the
    gluing pairs from each degree to the next, and nothing else."""
    assert knitted_hom_ext(table) == (table.hom, table.ext)
    knit = Knitting(table.quiver, window.lo, window.hi)
    label = knit.labels(table)
    assert sorted(label.values()) == sorted(all_objects(table, window))
    for (v, m), x in label.items():
        if (v, m - 1) in label:
            assert tau_derived(x, table) == label[v, m - 1], x
    # P_v is (v, 0); the orbit of v leaves degree 0 at I_w, whose inverse
    # translate P_w[1] has the class -[P_w]
    vertices = table.quiver.vertices
    proj = {knit.dimvec[v, 0]: v for v in vertices}
    projectives, injectives = set(), set()
    for v in vertices:
        assert label[v, 0] == DerivedObject(table.projective_by_vertex(v).id, 0)
        last = max(m for (u, m), x in label.items() if u == v and x.degree == 0)
        w = proj[tuple(-c for c in knit.dimvec[v, last + 1])]
        assert label[v, last].indec == table.injective_by_vertex(w).id, v
        projectives.add(label[v, 0].indec)
        injectives.add(label[v, last].indec)
    assert projectives == {e.id for e in table.entries if e.is_projective}
    assert injectives == {e.id for e in table.entries if e.is_injective}
    by_degrees = {}
    for z, y in knit.arrows():
        x, y = label[z], label[y]
        by_degrees.setdefault((x.degree, y.degree), set()).add((x.indec, y.indec))
    want = {(d, d): set(table.ar_arrows) for d in window.degrees()}
    want.update({(d, d + 1): gluing_pairs(table) for d in range(window.lo, window.hi)})
    assert by_degrees == want


@pytest.mark.parametrize("name", sorted(BUILTIN_QUIVERS))
def test_knitting_equals_the_table(name):
    table = enumerate_indecomposables(BUILTIN_QUIVERS[name]())
    if name == "e8":
        assert len(table.entries) ** 2 == 14_400
    _assert_knitting_matches(table, DEFAULT_WINDOW)


@settings(max_examples=20, deadline=None)
@given(orientations())
def test_knitting_equals_the_table_on_any_orientation(quiver):
    _assert_knitting_matches(enumerate_indecomposables(quiver), Window(-1, 2))


@settings(max_examples=3, deadline=None)
@given(orientations(shapes=("E6", "E7", "E8")))
def test_knitting_equals_the_table_on_any_e_orientation(quiver):
    _assert_knitting_matches(enumerate_indecomposables(quiver), Window(-1, 1))


def test_every_one_entry_hom_patch_of_d4_fails_the_knitting(tmp_path):
    """The oracle reads the quiver, never the table's Hom: knitted from
    a patched D4 table it still gives the built table, so each of the
    144 single-entry Hom flips disagrees with it."""
    table = enumerate_indecomposables(BUILTIN_QUIVERS["d4"]())
    path = tmp_path / "patch.json"
    n = len(table.entries)
    for i in range(n):
        for j in range(n):
            path.write_text(json.dumps({"hom": [[i, j, 0 if table.hom[i][j] else 1]]}))
            patched = cli.apply_table_patch(table, str(path))
            hom, ext = knitted_hom_ext(patched)
            assert (hom, ext) == (table.hom, table.ext)
            assert hom != patched.hom, (i, j)
