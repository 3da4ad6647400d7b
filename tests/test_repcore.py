import dataclasses
import functools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from aisles.errors import ConsistencyError, UnsupportedError
from aisles.linalg import Mat, span_rank
from aisles.quiver import BUILTIN_QUIVERS, Arrow, Quiver, d4_quiver, linear_quiver
from aisles.repcore import (
    Representation,
    _validate_ar_arrows,
    compose_morphisms,
    coxeter_matrix,
    coxeter_transform,
    enumerate_indecomposables,
    euler_form,
    hom_space,
    irreducible_dim,
    positive_roots,
    reflect,
    simple_representation,
)

dimvec2 = st.tuples(
    st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)
)


def test_a2_table_contents(a2_table):
    t = a2_table
    assert [e.dimvec for e in t.entries] == [(0, 1), (1, 0), (1, 1)]
    s2 = t.by_dimvec((0, 1))
    s1 = t.by_dimvec((1, 0))
    p1 = t.by_dimvec((1, 1))
    # frozen Hom dimensions, independently derivable by hand
    assert t.hom[s2.id][p1.id] == 1
    assert t.hom[p1.id][s1.id] == 1
    assert t.hom[p1.id][s2.id] == 0
    assert t.ext[s1.id][s2.id] == 1
    assert s2.is_projective and p1.is_projective and not s1.is_projective
    assert s1.is_injective and p1.is_injective and not s2.is_injective
    assert s1.tau == s2.id and s2.tau is None
    assert set(t.ar_arrows) == {(s2.id, p1.id), (p1.id, s1.id)}


def test_hom_space_explicit_basis(a2_table):
    s2 = a2_table.by_dimvec((0, 1)).rep
    p1 = a2_table.by_dimvec((1, 1)).rep
    dim, basis = hom_space(s2, p1)
    assert dim == 1
    f = basis[0]
    assert f["1"].ncols == 0
    assert f["2"].nrows == 1


def test_table_sizes(a3_table, d4_table):
    assert len(a3_table.entries) == 6
    assert len(d4_table.entries) == 12


def test_positive_roots_a3():
    roots = positive_roots(linear_quiver(3))
    assert (1, 1, 1) in roots and (0, 1, 1) in roots
    assert len(roots) == 6


@given(dimvec2, dimvec2, dimvec2)
def test_euler_bilinearity(d, e, f):
    q = linear_quiver(2)
    left = euler_form(q, [d[0] + e[0], d[1] + e[1]], list(f))
    assert left == euler_form(q, list(d), list(f)) + euler_form(q, list(e), list(f))
    right = euler_form(q, list(d), [e[0] + f[0], e[1] + f[1]])
    assert right == euler_form(q, list(d), list(e)) + euler_form(q, list(d), list(f))


def test_euler_equals_hom_minus_ext(a3_table):
    t = a3_table
    for i, ei in enumerate(t.entries):
        for j, ej in enumerate(t.entries):
            assert t.hom[i][j] - t.ext[i][j] == euler_form(
                t.quiver, ei.dimvec, ej.dimvec
            )


def test_ar_formula(d4_table):
    t = d4_table
    for i, ei in enumerate(t.entries):
        for j in range(len(t.entries)):
            want = 0 if ei.tau is None else t.hom[j][ei.tau]
            assert t.ext[i][j] == want


def test_coxeter_on_a2():
    phi = coxeter_matrix(linear_quiver(2))
    assert coxeter_transform(phi, (1, 0)) == (0, 1)  # tau S_1 = S_2
    assert any(x < 0 for x in coxeter_transform(phi, (0, 1)))  # projective
    assert coxeter_transform(phi, (0, 1), inverse=True) == (1, 0)


def test_reflection_at_sink():
    q = linear_quiver(2)
    s1 = simple_representation(q, "1")
    r = reflect(s1, "2")  # vertex 2 is a sink: positive reflection
    assert r.dimension_vector() == (1, 1)
    assert r.quiver.arrows[0].source == "2"
    # reflecting back over the reversed quiver recovers the simple
    back = reflect(r, "2")
    assert back.dimension_vector() == (1, 0)
    # the simple at the sink itself is annihilated
    s2 = simple_representation(q, "2")
    assert reflect(s2, "2").dimension_vector() == (0, 0)


def test_reflect_rejects_interior_vertex():
    q = linear_quiver(3)
    m = simple_representation(q, "1")
    with pytest.raises(UnsupportedError):
        reflect(m, "2")


@functools.cache
def builtin_table(name):
    return enumerate_indecomposables(BUILTIN_QUIVERS[name]())


@pytest.mark.parametrize("name", ["a3", "d4", "d5"])
def test_irreducible_matches_ar_arrows(name):
    t = builtin_table(name)
    for i in range(len(t.entries)):
        for j in range(len(t.entries)):
            assert (irreducible_dim(i, j, t) == 1) == ((i, j) in t.ar_arrows)


def reference_irreducible_dim(i, j, table):
    """rad/rad^2 with `Fraction` composites through every third module,
    without scaling or early stop."""
    if i == j or not table.hom_bases[i][j]:
        return 0
    Q = table.quiver
    composites = []
    for m in range(len(table.entries)):
        if m in (i, j):
            continue
        for f in table.hom_bases[i][m]:
            for g in table.hom_bases[m][j]:
                gf = compose_morphisms(g, f, Q)
                composites.append([x for v in Q.vertices for x in gf[v].flatten()])
    return table.hom[i][j] - span_rank(composites)


@pytest.mark.parametrize("name", ["a3", "d4", "d5", "e6"])
def test_irreducible_dim_matches_fraction_composites(name):
    t = builtin_table(name)
    n = len(t.entries)
    got = [[irreducible_dim(i, j, t) for j in range(n)] for i in range(n)]
    want = [[reference_irreducible_dim(i, j, t) for j in range(n)] for i in range(n)]
    assert got == want


@pytest.mark.parametrize("name", ["d4", "d5"])
def test_validation_catches_wrong_knitting(name):
    """The early stop in `irreducible_dim` must not hide a knitting error:
    dropping any AR arrow, or adding any non-arrow pair with nonzero Hom,
    fails the rad/rad^2 check."""
    t = builtin_table(name)
    arrows = set(t.ar_arrows)
    n = len(t.entries)
    extra = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and t.hom[i][j] and (i, j) not in arrows
    ]
    assert extra
    wrong = [arrows - {a} for a in sorted(arrows)]
    wrong += [arrows | {p} for p in extra]
    for knitted in wrong:
        patched = dataclasses.replace(t, ar_arrows=tuple(sorted(knitted)))
        with pytest.raises(
            ConsistencyError, match=r"knitting disagrees with rad/rad\^2"
        ):
            _validate_ar_arrows(patched)


def test_non_dynkin_rejected():
    q = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2")))
    with pytest.raises(UnsupportedError):
        enumerate_indecomposables(q)


def test_mesh_property(d4_table):
    t = d4_table
    for e in t.entries:
        if e.tau is None:
            continue
        ins = {s for s, y in t.ar_arrows if y == e.id}
        outs = {y for s, y in t.ar_arrows if s == e.tau}
        assert ins == outs


def test_representation_shape_validation():
    q = linear_quiver(2)
    with pytest.raises(Exception):
        Representation(q, {"1": 1, "2": 1}, {"a1": Mat.zeros(2, 1)})


def test_simple_rep_end_is_field(a2_table):
    for v in ("1", "2"):
        s = simple_representation(linear_quiver(2), v)
        dim, basis = hom_space(s, s)
        assert dim == 1
        assert basis[0][v] == Mat([[Fraction(1)]])
