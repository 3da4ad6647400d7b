from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

# matrix generation can be slow under load; correctness is what matters
settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")

from aisles.linalg import (
    Mat,
    eliminate,
    kernel,
    kernel_ints,
    rank_mod2,
    scaled_to_ints,
    span_rank,
    sparse_row,
)
from reference import hstack, odd_masks, rank_mod2_rows


def in_span(vector, vectors):
    """True when ``vector`` lies in the span of ``vectors``."""
    base = span_rank(vectors)
    return span_rank(list(vectors) + [list(vector)]) == base


def nullspace(m):
    """Right-kernel basis of ``m`` by `kernel` on its integer rows."""
    rows = [sparse_row(scaled_to_ints(r)) for r in m.rows]
    return kernel(*eliminate(rows), m.ncols)


def rank(m):
    return span_rank(m.rows)


def column(entries):
    return Mat([[x] for x in entries], len(entries), 1)


small_entries = st.integers(min_value=-5, max_value=5)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(Mat)
        )
    )


def test_shapes_and_zero_dims():
    z = Mat.zeros(0, 3)
    assert z.nrows == 0 and z.ncols == 3
    assert (z * Mat.zeros(3, 2)).ncols == 2
    assert rank(Mat.zeros(2, 0)) == 0
    with pytest.raises(ValueError):
        Mat([[1, 2], [3]])


def test_product_and_transpose():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([[0, 1], [1, 0]])
    assert a * b == Mat([[2, 1], [4, 3]])
    assert a.transpose().transpose() == a


@given(matrices())
def test_rank_equals_transpose_rank(m):
    assert rank(m) == rank(m.transpose())


@given(matrices())
def test_nullspace_vectors_annihilate(m):
    for v in nullspace(m):
        assert (m * column(v)).is_zero()
    assert rank(m) + len(nullspace(m)) == m.ncols


@given(matrices())
def test_left_nullspace_rows_annihilate(m):
    for r in nullspace(m.transpose()):
        assert (Mat([r]) * m).is_zero()


def test_rref_pivots():
    m = Mat([[2, 4], [1, 2]])
    red, pivots = m.rref()
    assert pivots == [0]
    assert red.rows[0] == [Fraction(1), Fraction(2)]
    assert [type(x) for x in red.flatten()] == [int] * 4


def test_entries_take_the_normal_form():
    """An integral value is held as an int, any other as a `Fraction`;
    equality and hashing do not see the difference."""
    m = Mat([[Fraction(4, 2), True, 0.5, Fraction(3, 2), -0.0]])
    assert [(type(x), x) for x in m.flatten()] == [
        (int, 2), (int, 1), (Fraction, Fraction(1, 2)),
        (Fraction, Fraction(3, 2)), (int, 0),
    ]
    assert m == Mat([[2, 1, Fraction(1, 2), Fraction(3, 2), 0]])
    assert hash(m) == hash(Mat([[Fraction(2), 1, 0.5, 1.5, Fraction(0)]]))
    # a product, a transpose and a reduction keep it
    half = Mat([[Fraction(1, 2)]])
    assert type((half * Mat([[2]]))[0, 0]) is int
    assert type((half * half)[0, 0]) is Fraction
    assert [type(x) for x in half.transpose().flatten()] == [Fraction]
    red, _ = Mat([[2, 3], [4, 6]]).rref()
    assert [(type(x), x) for x in red.flatten()] == [
        (int, 1), (Fraction, Fraction(3, 2)), (int, 0), (int, 0),
    ]
    assert [type(x) for x in Mat.zeros(2, 2).flatten()] == [int] * 4


def test_kernel_and_scaling_keep_the_normal_form():
    reduced, pivots = eliminate([{0: 2, 1: 3}])
    assert kernel(reduced, pivots, 2) == [[Fraction(-3, 2), 1]]
    reduced, pivots = eliminate([{0: 1, 1: -2}])
    (vec,) = kernel(reduced, pivots, 2)
    assert vec == [2, 1] and [type(x) for x in vec] == [int, int]
    ints = [3, 0, -4]
    assert scaled_to_ints(ints) is ints
    assert scaled_to_ints([Fraction(1, 2), 3]) == [1, 6]


def test_span_helpers():
    assert span_rank([[1, 0], [0, 1], [1, 1]]) == 2
    assert in_span([2, 2], [[1, 1]])
    assert not in_span([1, 0], [[1, 1]])
    assert span_rank([]) == 0


# -- differential tests against Fraction Gauss-Jordan ---------------------------
#
# `Mat.rref` eliminates on ints.  The reference below is the plain
# `Fraction` Gauss-Jordan it replaced; the reduced row echelon form is
# unique, so every result must agree entry for entry.  A `Mat` holds
# integral entries as ints, so the reference coerces each entry to a
# `Fraction` before it divides.


def reference_rref(m):
    rows = [[Fraction(x) for x in r] for r in m.rows]
    pivots = []
    r = 0
    for c in range(m.ncols):
        if r == m.nrows:
            break
        pivot = next((i for i in range(r, m.nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m.nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def reference_nullspace(m):
    rows, pivots = reference_rref(m)
    basis = []
    for fc in (c for c in range(m.ncols) if c not in pivots):
        v = [Fraction(0)] * m.ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def reference_solve(m, b):
    aug = hstack([m, column(b)])
    rows, pivots = reference_rref(aug)
    if m.ncols in pivots:
        return None
    x = [Fraction(0)] * m.ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][m.ncols]
    return x


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def rational_matrices(draw, max_dim=5):
    nrows = draw(st.integers(0, max_dim))
    ncols = draw(st.integers(0, max_dim))
    all_zero = draw(st.integers(0, 3)) == 0  # about one matrix in four
    entries = st.just(Fraction(0)) if all_zero else rationals
    rows = draw(
        st.lists(
            st.lists(entries, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return Mat(rows, nrows, ncols)


def in_normal_form(values):
    """Every value is an int, or a `Fraction` that is not integral."""
    return all(
        type(x) is int or (type(x) is Fraction and x.denominator != 1)
        for x in values
    )


@settings(max_examples=300)
@given(rational_matrices())
def test_rref_matches_fraction_gauss_jordan(m):
    red, pivots = m.rref()
    want_rows, want_pivots = reference_rref(m)
    assert pivots == want_pivots
    assert (red.nrows, red.ncols) == (m.nrows, m.ncols)
    assert red.rows == want_rows
    assert in_normal_form(red.flatten())
    assert rank(m) == len(want_pivots)


@settings(max_examples=300)
@given(rational_matrices())
def test_kernels_match_fraction_gauss_jordan(m):
    right = nullspace(m)
    assert right == reference_nullspace(m)
    assert all(in_normal_form(v) for v in right)
    left = nullspace(m.transpose())
    assert left == reference_nullspace(m.transpose())
    assert all(len(r) == m.nrows for r in left)


def test_rref_degenerate_shapes():
    for m in (Mat([], 0, 4), Mat([[], [], []], 3, 0), Mat.zeros(3, 4)):
        red, pivots = m.rref()
        assert pivots == []
        assert red == Mat.zeros(m.nrows, m.ncols)
        assert len(nullspace(m)) == m.ncols
        assert len(nullspace(m.transpose())) == m.nrows


@settings(max_examples=300)
@given(rational_matrices())
def test_integer_kernel_is_the_scaled_fraction_kernel(m):
    rows = [sparse_row(scaled_to_ints(r)) for r in m.rows]
    got = kernel_ints(*eliminate(rows), m.ncols)
    assert got == [scaled_to_ints(v) for v in reference_nullspace(m)]
    assert all(type(x) is int for v in got for x in v)


# -- the rank mod 2 ---------------------------------------------------------------


def reference_rank_mod2(rows, ncols):
    """Gauss-Jordan over GF(2) on dense 0/1 lists."""
    dense = [[row.get(k, 0) % 2 for k in range(ncols)] for row in rows]
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(dense)) if dense[i][c]), None)
        if pivot is None:
            continue
        dense[rank], dense[pivot] = dense[pivot], dense[rank]
        for i in range(len(dense)):
            if i != rank and dense[i][c]:
                dense[i] = [a ^ b for a, b in zip(dense[i], dense[rank])]
        rank += 1
    return rank


# zero most often, and even entries about as often as odd ones
sparse_entries = st.sampled_from([0, 0, 0, 0, 1, -1, 3, 2, -2, 4, 6, -6])


@st.composite
def integer_rows(draw, max_dim=6):
    ncols = draw(st.integers(0, max_dim))
    dense = draw(
        st.lists(
            st.lists(sparse_entries, min_size=ncols, max_size=ncols),
            max_size=max_dim,
        )
    )
    return [sparse_row(r) for r in dense], ncols


@settings(max_examples=500)
@given(integer_rows())
def test_rank_mod2_is_the_gf2_rank_and_bounds_the_rank(case):
    rows, ncols = case
    exact = len(eliminate(rows)[1])
    got = rank_mod2(odd_masks(rows))
    assert got == rank_mod2_rows(rows) == reference_rank_mod2(rows, ncols) <= exact


def test_rank_mod2_misses_even_minors():
    # full rank over the rationals, singular mod 2: det [[1, 1], [1, 3]] = 2
    rows = [{0: 1, 1: 1}, {0: 1, 1: 3}]
    assert odd_masks(rows) == [0b11, 0b11]
    assert rank_mod2(odd_masks(rows)) == 1 < len(eliminate(rows)[1]) == 2
    assert rank_mod2(odd_masks([{0: 2}, {1: -4}])) == 0
    # det [[3, 2], [4, 5]] = 7 is odd
    assert rank_mod2(odd_masks([{0: 3, 1: 2}, {0: 4, 1: 5}])) == 2
