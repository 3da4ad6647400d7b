"""Differential tests of the integer Hom kernel.

`repcore.hom_system` builds Ringel's map delta on sparse integer rows,
scaled by the denominators of both representations, and `hom_space` and
the Ext cokernel eliminate those rows fraction-free.  Here delta is
written out again from its definition with `Fraction` entries, and its
kernel and image are computed by the plain `Fraction` Gauss-Jordan of
``test_linalg``; the reduced row echelon form is unique, so the results
must agree entry for entry.  The parity masks that certify zero Hom
spaces without forming delta are checked row for row against the odd
entries of `hom_system`, and their rank against the rank mod 2 of its
dict rows (``reference.rank_mod2_rows``).
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from aisles import repcore
from aisles.extspace import ExtMachine
from aisles.errors import ShapeError
from aisles.linalg import Mat, rank_mod2, scaled_to_ints
from aisles.quiver import BUILTIN_QUIVERS, linear_quiver
from aisles.repcore import (
    Representation,
    enumerate_indecomposables,
    euler_form,
    hom_space,
)
from aisles.torsion import canonical_sequence_oracle, enumerate_torsion_pairs
from reference import odd_masks, opposite, orientations, rank_mod2_rows
from test_linalg import in_normal_form, reference_nullspace, reference_rref

QUIVERS = [linear_quiver(2), linear_quiver(3), BUILTIN_QUIVERS["d4"]()]

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))


def fraction_delta(M, N):
    """delta(f)_a = N_a f_u - f_w M_a as a `Fraction` matrix: columns
    (v, i, j) vertex by vertex and row-major in f_v, rows (a, r, c)."""
    Q = M.quiver
    coords = [
        (v, i, j)
        for v in Q.vertices
        for i in range(N.dim(v))
        for j in range(M.dim(v))
    ]
    index = {x: k for k, x in enumerate(coords)}
    rows = []
    for a in Q.arrows:
        u, w = a.source, a.target
        Na, Ma = N.maps[a.name], M.maps[a.name]
        for r in range(N.dim(w)):
            for c in range(M.dim(u)):
                row = [Fraction(0)] * len(coords)
                for k in range(N.dim(u)):  # (N_a f_u)[r, c]
                    row[index[u, k, c]] += Na[r, k]
                for k in range(M.dim(w)):  # (f_w M_a)[r, c]
                    row[index[w, r, k]] -= Ma[k, c]
                rows.append(row)
    return Mat(rows, len(rows), len(coords))


def flat(f, quiver):
    return [x for v in quiver.vertices for x in f[v].flatten()]


@st.composite
def representations(draw, quiver):
    """Dimensions 0-2 at each vertex and `Fraction` maps with
    denominators 1-6, so the two sides of a pair mostly scale by
    different integers."""
    dims = {v: draw(st.integers(0, 2)) for v in quiver.vertices}
    maps = {}
    for a in quiver.arrows:
        nrows, ncols = dims[a.target], dims[a.source]
        entries = st.lists(rationals, min_size=ncols, max_size=ncols)
        rows = draw(st.lists(entries, min_size=nrows, max_size=nrows))
        maps[a.name] = Mat(rows, nrows, ncols)
    return Representation(quiver, dims, maps)


@st.composite
def pairs(draw):
    quiver = draw(st.sampled_from(QUIVERS))
    return draw(representations(quiver)), draw(representations(quiver))


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_hom_space_matches_fraction_nullspace(pair):
    M, N = pair
    dim, basis = hom_space(M, N)
    want = reference_nullspace(fraction_delta(M, N))
    assert dim == len(want)
    assert [flat(f, M.quiver) for f in basis] == want
    for f in basis:
        for v in M.quiver.vertices:
            assert (f[v].nrows, f[v].ncols) == (N.dim(v), M.dim(v))
            assert in_normal_form(f[v].flatten())


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_ext_cokernel_matches_fraction_gauss_jordan(pair):
    M, N = pair
    entries = [SimpleNamespace(rep=M), SimpleNamespace(rep=N)]
    machine = ExtMachine(SimpleNamespace(quiver=M.quiver, entries=entries))
    image, pivots, free, basis = machine._cokernel(0, 1)
    delta = fraction_delta(M, N)
    want_rows, want_pivots = reference_rref(delta.transpose())
    assert pivots == want_pivots
    assert [
        [Fraction(row.get(k, 0), row[p]) for k in range(delta.nrows)]
        for row, p in zip(image, pivots)
    ] == want_rows[: len(want_pivots)]
    assert free == [k for k in range(delta.nrows) if k not in want_pivots]
    assert len(basis) == len(free)


def test_hom_space_scales_each_side_by_its_own_denominators():
    # the row of delta for (a, r, c) mixes D_M N_a and D_N M_a; with
    # D_M = 2 and D_N = 3 a kernel that dropped either factor would differ
    Q = linear_quiver(2)
    (a,) = Q.arrows
    u, w = a.source, a.target
    M = Representation(Q, {u: 1, w: 1}, {a.name: Mat([[Fraction(1, 2)]])})
    N = Representation(Q, {u: 1, w: 1}, {a.name: Mat([[Fraction(2, 3)]])})
    assert M.int_maps[0] == 2 and N.int_maps[0] == 3
    dim, basis = hom_space(M, N)
    assert [flat(f, Q) for f in basis] == reference_nullspace(fraction_delta(M, N))
    # f_w = (N_a / M_a) f_u = 4/3 f_u
    assert dim == 1 and basis[0][w][0, 0] == Fraction(4, 3) * basis[0][u][0, 0]


def assert_table_matches_fraction_nullspace(table):
    """Each basis, in `Mat`'s normal form, is the nullspace of the
    `Fraction` delta, and each stored integer vector is `scaled_to_ints`
    of its basis vector."""
    for X in table.entries:
        for Y in table.entries:
            want = reference_nullspace(fraction_delta(X.rep, Y.rep))
            got = [flat(f, table.quiver) for f in table.hom_bases[X.id][Y.id]]
            assert got == want
            assert all(in_normal_form(vec) for vec in got)
            vectors = [list(v) for v in table.hom_vectors[X.id][Y.id]]
            assert vectors == [scaled_to_ints(v) for v in want]
            assert all(type(x) is int for vec in vectors for x in vec)


@pytest.mark.parametrize("name", ["a2", "a3", "a4", "d4", "d5", "e6"])
def test_table_hom_bases_match_fraction_nullspace(name):
    assert_table_matches_fraction_nullspace(
        enumerate_indecomposables(BUILTIN_QUIVERS[name]())
    )


@settings(max_examples=15, deadline=None)
@given(orientations())
def test_table_hom_bases_match_fraction_nullspace_on_orientations(q):
    assert_table_matches_fraction_nullspace(enumerate_indecomposables(q))


def test_hom_singular_mod_2_falls_back_to_exact_elimination(monkeypatch):
    """Over A2 with arrow map [2], delta is even: rank 0 mod 2, so no
    space is certified zero and each one is eliminated exactly.
    Hom(M, S_2) = 0 although delta = [-2] is singular mod 2, and
    Hom(M, M) = k although delta is zero mod 2."""
    Q = linear_quiver(2)
    (a,) = Q.arrows
    u, w = a.source, a.target
    M = Representation(Q, {u: 1, w: 1}, {a.name: Mat([[2]])})
    S = Representation(Q, {u: 0, w: 1}, {a.name: Mat.zeros(1, 0)})
    eliminated = []
    eliminate = repcore.eliminate

    def counting(rows):
        eliminated.append(rows)
        return eliminate(rows)

    monkeypatch.setattr(repcore, "eliminate", counting)
    for X, Y, dim in ((M, S, 0), (M, M, 1)):
        masks, ncols = repcore.hom_parities(X, Y)
        assert rank_mod2(masks) == 0 < ncols
        assert hom_space(X, Y)[0] == dim == len(reference_nullspace(fraction_delta(X, Y)))
    assert len(eliminated) == 2


# -- the parity certificate and the Euler-form routing ----------------------------


def assert_parities_match_rows(M, N):
    """`hom_parities` is `hom_system` mod 2, row for row, and certifies
    exactly when the rank mod 2 of the dict rows would."""
    rows, ncols = repcore.hom_system(M, N)
    masks, mask_cols = repcore.hom_parities(M, N)
    assert mask_cols == ncols
    assert masks == odd_masks(rows)
    assert rank_mod2(masks) == rank_mod2_rows(rows)


def assert_table_parities_match_rows(table):
    reps = [e.rep for e in table.entries]
    for M in reps:
        for N in reps:
            assert_parities_match_rows(M, N)


@pytest.mark.parametrize("name", ["a2", "a3", "a4", "d4", "d5", "e6", "e7", "e8"])
def test_parity_masks_match_the_dict_rows_on_every_table_pair(name):
    assert_table_parities_match_rows(enumerate_indecomposables(BUILTIN_QUIVERS[name]()))


@settings(max_examples=10, deadline=None)
@given(orientations())
def test_parity_masks_match_the_dict_rows_on_orientations(q):
    assert_table_parities_match_rows(enumerate_indecomposables(q))


@settings(max_examples=5, deadline=None)
@given(orientations(shapes=("E7",)))
def test_parity_masks_match_the_dict_rows_on_e7_orientations(q):
    """The orientations the `table-e7` benchmark draws: each table is
    built with all its checks, the layouts its modules keep hold the odd
    entries of their maps, and the parities placed from them are the
    dict rows mod 2 on all 3,969 pairs."""
    table = enumerate_indecomposables(q)
    assert len(table) == 63
    assert_kept_layouts_read_as_the_maps(table)
    assert_table_parities_match_rows(table)


@pytest.mark.parametrize("name", ["d4", "d5"])
def test_parity_masks_match_the_dict_rows_on_oracle_modules(name):
    """The canonical-sequence oracle's subobjects and quotients, paired
    both ways with every table module, place their parities as the
    table's own modules do."""
    table = enumerate_indecomposables(BUILTIN_QUIVERS[name]())
    for tp in enumerate_torsion_pairs(table):
        for y in range(len(table)):
            canonical_sequence_oracle(y, tp, table)
    cases = table.memo["oracle_cases"].values()
    modules = {id(R): R for _trace, sub, quot, *_ in cases for R in (sub, quot)}
    assert len(modules) > len(table)
    for X in modules.values():
        for e in table.entries:
            assert_parities_match_rows(X, e.rep)
            assert_parities_match_rows(e.rep, X)


def assert_kept_layouts_read_as_the_maps(table):
    """Each module of the table keeps the one `ParityLayout` its pairs
    were placed from, and it holds the odd entries of the module's
    integer maps: the odd rows of each column, and each row's odd
    columns i as the bits i s at every stride s a partner asks for."""
    Q = table.quiver
    index = {v: k for k, v in enumerate(Q.vertices)}
    reps = [e.rep for e in table.entries]
    # the partners M with M_u = 0 at an arrow u -> w place no row of it
    strides = {R.dim(a.source) for R in reps for a in Q.arrows} - {0}
    for R in reps:
        layout = vars(R)["parity_layout"]  # kept by the build
        den, maps = R.int_maps
        assert layout.dims == R.dimension_vector() and layout.odd == den % 2
        assert layout.columns == [
            (k, index[a.source], index[a.target], odd_masks(
                [dict(column) for column in maps[a.name][1]]
            ))
            for k, a in enumerate(Q.arrows)
            if R.dim(a.source)
        ]
        for s in strides:
            assert [spreads[s] for spreads in layout.spreads] == [
                odd_masks([{i * s: x for i, x in row} for row in maps[a.name][0]])
                for a in Q.arrows
            ]


@pytest.mark.parametrize("name", ["a2", "a3", "a4", "d4", "d5", "e6", "e7", "e8"])
def test_kept_parities_read_as_the_maps_on_every_table_pair(name):
    assert_kept_layouts_read_as_the_maps(
        enumerate_indecomposables(BUILTIN_QUIVERS[name]())
    )


@pytest.mark.parametrize("keep", [False, True], ids=["afresh", "kept"])
def test_parities_over_two_quivers_are_refused(keep):
    """1 -> 2 and 2 -> 1 have the same vertices and arrow names, so only
    the quiver check tells their modules apart, also once each module
    keeps its layout."""
    P, Q = linear_quiver(2), opposite(linear_quiver(2))
    M = Representation(P, {"1": 1, "2": 1}, {"a1": Mat([[1]])})
    N = Representation(Q, {"1": 1, "2": 1}, {"a1": Mat([[1]])})
    if keep:
        assert M.parity_layout.dims == N.parity_layout.dims == (1, 1)
    for X, Y in ((M, N), (N, M)):
        with pytest.raises(ShapeError, match="over one quiver"):
            repcore.hom_parities(X, Y)
        with pytest.raises(ShapeError, match="over one quiver"):
            hom_space(X, Y)


def test_the_build_reads_every_pair_off_the_kept_parities(monkeypatch):
    """Each module's layout is read once, on its first pair, and every
    one of the n^2 pairs is placed from two of them."""
    layouts, placed = [], []
    layout, place = repcore.ParityLayout, repcore.hom_parities

    def counting_layout(*fields):
        layouts.append(layout(*fields))
        return layouts[-1]

    def counting_place(M, N):
        placed.append(None)
        return place(M, N)

    monkeypatch.setattr(repcore, "ParityLayout", counting_layout)
    monkeypatch.setattr(repcore, "hom_parities", counting_place)
    table = enumerate_indecomposables(BUILTIN_QUIVERS["d5"]())
    assert len(placed) == len(table) ** 2 == 400
    kept = [vars(e.rep)["parity_layout"] for e in table.entries]
    assert sorted(map(id, layouts)) == sorted(map(id, kept))


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_parity_masks_match_the_dict_rows_on_scaled_representations(pair):
    # denominators 1-6: either scale D is even about half the time, and
    # then the part of each row it multiplies has no odd entry; the
    # second pair places the layouts the first one kept
    M, N = pair
    assert_parities_match_rows(M, N)
    assert_parities_match_rows(N, M)
    assert M.parity_layout.odd == (M.int_maps[0] % 2 == 1)


def test_parity_masks_drop_the_part_an_even_scale_multiplies():
    # both integer maps are [1]; the scales are D_M = 2 and D_N = 3
    Q = linear_quiver(2)
    (a,) = Q.arrows
    u, w = a.source, a.target
    M = Representation(Q, {u: 1, w: 1}, {a.name: Mat([[Fraction(1, 2)]])})
    N = Representation(Q, {u: 1, w: 1}, {a.name: Mat([[Fraction(1, 3)]])})
    # row (a, 0, 0) of D_M D_N delta is D_M (D_N N_a) at (u, 0, 0) and
    # -D_N (D_M M_a) at (w, 0, 0): 2 * 1 and -3 * 1
    assert repcore.hom_system(M, N) == ([{0: 2, 1: -3}], 2)
    assert repcore.hom_parities(M, N) == ([0b10], 2)
    # with the roles exchanged: 3 * 1 and -2 * 1
    assert repcore.hom_system(N, M) == ([{0: 3, 1: -2}], 2)
    assert repcore.hom_parities(N, M) == ([0b01], 2)


def euler(M, N):
    return euler_form(M.quiver, M.dimension_vector(), N.dimension_vector())


def kernel_and_certificate_calls(M, N):
    """`hom_kernel(M, N)` and the pairs it read the parities of."""
    tried = []
    parities = repcore.hom_parities

    def recording(X, Y):
        tried.append((X, Y))
        return parities(X, Y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repcore, "hom_parities", recording)
        return repcore.hom_kernel(M, N), tried


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_positive_euler_form_skips_the_certificate(pair):
    """<dim M, dim N> = dim Hom - dim Ext^1, so a positive form means a
    nonzero Hom: the parities are never read, and the kernel is the
    exact nullspace of delta."""
    M, N = pair
    got, tried = kernel_and_certificate_calls(M, N)
    want = reference_nullspace(fraction_delta(M, N))
    assert got == [scaled_to_ints(v) for v in want]
    if euler(M, N) > 0:
        assert tried == [] and len(got) >= euler(M, N)
    else:
        assert tried == [(M, N)]


def test_positive_euler_form_goes_straight_to_elimination():
    """Over A2 with arrow map [1], <M, M> = 1: delta is the one odd row
    [1, -1], and Hom(M, M) = k comes from elimination alone."""
    Q = linear_quiver(2)
    (a,) = Q.arrows
    M = Representation(Q, {a.source: 1, a.target: 1}, {a.name: Mat([[1]])})
    assert euler(M, M) == 1
    assert kernel_and_certificate_calls(M, M) == ([[1, 1]], [])


# -- the normal form on the builtin tables ---------------------------------------


@pytest.mark.parametrize("name", ["a2", "a3", "a4", "d4", "d5", "e6", "e7"])
def test_table_maps_and_bases_hold_only_ints(name):
    """Every Dynkin table is integral: each entry of every arrow map, of
    every ``hom_bases`` family and of every `ExtMachine` basis family is
    an `int` (`Mat`'s normal form), so no product on them forms a
    `Fraction`."""
    table = enumerate_indecomposables(BUILTIN_QUIVERS[name]())
    machine = ExtMachine(table)

    def ints(family):
        return all(type(x) is int for m in family.values() for x in m.flatten())

    n = len(table.entries)
    assert all(ints(e.rep.maps) for e in table.entries)
    assert all(e.rep.int_maps[0] == 1 for e in table.entries)
    for i in range(n):
        for j in range(n):
            assert all(map(ints, table.hom_bases[i][j]))
            assert all(map(ints, machine.ext_basis(i, j)))
