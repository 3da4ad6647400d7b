import functools
import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from aisles import torsion
from aisles.errors import ConsistencyError, PreconditionError, UnsupportedError
from aisles.linalg import Mat, span_rank
from aisles.quiver import BUILTIN_QUIVERS, Quiver, linear_quiver, quiver_from_edges
from aisles.repcore import enumerate_indecomposables, hom_space
from aisles.derived import TableContext, bits, module_relation
from aisles.torsion import (
    Subcategory,
    TorsionPair,
    canonical_sequence_oracle,
    enumerate_torsion_pairs,
    is_torsion_pair,
    sub_and_quotient,
    trace_subrepresentation,
)
from reference import opposite, orientations
from test_linalg import reference_rref


def _ids(table, *dimvecs):
    return frozenset(table.by_dimvec(d).id for d in dimvecs)


def _mask(table, *dimvecs):
    return sum(1 << i for i in _ids(table, *dimvecs))


def test_orthogonals_a2(a2_table):
    t = a2_table
    relation = module_relation(TableContext(t))
    assert relation.right_perp(_mask(t, (0, 1))) == _mask(t, (1, 0))
    assert relation.left_perp(_mask(t, (1, 0))) == _mask(t, (0, 1))
    everything = 0b111
    assert relation.right_perp(0) == everything
    assert relation.right_perp(everything) == 0
    assert relation.left_perp(_mask(t, (0, 1), (1, 1))) == _mask(t, (1, 0))


@pytest.mark.parametrize("seed", range(4))
def test_orthogonals_match_brute_force_on_patched_table(a3_table, seed):
    """Both orthogonals of every subset, on a3 with random Hom entries
    zeroed or set, against the definition read off ``table.hom``."""
    rng = random.Random(seed)
    n = len(a3_table.entries)
    hom = [list(row) for row in a3_table.hom]
    for _ in range(6):
        hom[rng.randrange(n)][rng.randrange(n)] = rng.choice((0, 1, 2))
    table = a3_table.copy(hom=tuple(tuple(r) for r in hom))
    relation = module_relation(TableContext(table))
    for mask in range(1 << n):
        members = bits(mask)
        assert relation.right_perp(mask) == sum(
            1 << j for j in range(n) if all(hom[i][j] == 0 for i in members)
        )
        assert relation.left_perp(mask) == sum(
            1 << i for i in range(n) if all(hom[i][j] == 0 for j in members)
        )


def test_enumeration_counts(a2_table, a3_table):
    pairs = enumerate_torsion_pairs(a2_table)
    assert len(pairs) == 5
    assert sum(tp.split for tp in pairs) == 4
    classes = {
        frozenset(a2_table.entries[i].dimvec for i in tp.torsion)
        for tp in pairs
    }
    assert classes == {
        frozenset(),
        frozenset({(1, 0)}),
        frozenset({(1, 0), (1, 1)}),
        frozenset({(0, 1)}),
        frozenset({(0, 1), (1, 0), (1, 1)}),
    }
    assert len(enumerate_torsion_pairs(a3_table)) == 14  # Catalan(4)


def test_nonsplit_pair_a2(a2_table):
    t = a2_table
    tp = next(
        tp
        for tp in enumerate_torsion_pairs(t)
        if tp.torsion.members == _ids(t, (0, 1))
    )
    assert not tp.split
    assert tp.free.members == _ids(t, (1, 0))


def test_enumeration_sorted_canonically(a3_table):
    pairs = enumerate_torsion_pairs(a3_table)
    masks = [sum(1 << i for i in tp.torsion.members) for tp in pairs]
    assert masks == sorted(masks)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 5)))
def test_closure_idempotence(seed):
    table = test_closure_idempotence.table
    s = sum(1 << i for i in seed if i < len(table.entries))
    relation = module_relation(TableContext(table))
    close = lambda x: relation.left_perp(relation.right_perp(x))
    once = close(s)
    assert close(once) == once


test_closure_idempotence.table = enumerate_indecomposables(linear_quiver(3))


def test_every_pair_passes_oracle(a2_table, a3_table, d4_table):
    for table in (a2_table, a3_table, d4_table, _builtin_table("d5")):
        for tp in enumerate_torsion_pairs(table):
            for y in range(len(table.entries)):
                sub, quot = canonical_sequence_oracle(y, tp, table)
                assert (
                    sub.total_dim() + quot.total_dim()
                    == table.entries[y].rep.total_dim()
                )


def test_oracle_canonical_sequence_of_p1(a2_table):
    t = a2_table
    tp = next(
        tp
        for tp in enumerate_torsion_pairs(t)
        if tp.torsion.members == _ids(t, (0, 1))
    )
    sub, quot = canonical_sequence_oracle(t.by_dimvec((1, 1)).id, tp, t)
    assert sub.dimension_vector() == (0, 1)
    assert quot.dimension_vector() == (1, 0)


def test_oracle_trivial_cases(a2_table):
    t = a2_table
    tp = next(
        tp
        for tp in enumerate_torsion_pairs(t)
        if tp.torsion.members == _ids(t, (1, 0))
    )
    y_in_torsion = t.by_dimvec((1, 0)).id
    sub, quot = canonical_sequence_oracle(y_in_torsion, tp, t)
    assert sub.dimension_vector() == (1, 0) and quot.is_zero()
    y_free = t.by_dimvec((0, 1)).id
    sub, quot = canonical_sequence_oracle(y_free, tp, t)
    assert sub.is_zero() and quot.dimension_vector() == (0, 1)


def test_subcategory_is_its_mask():
    """A torsion class is the int of its module mask, with a set view:
    ascending iteration, membership, size and the members' frozenset."""
    s = Subcategory(0b101001)
    assert isinstance(s, int) and s == 0b101001 and hash(s) == hash(0b101001)
    assert list(s) == [0, 3, 5] and s.members == frozenset({0, 3, 5})
    assert 3 in s and 4 not in s and len(s) == 3
    assert len(Subcategory(0)) == 0 and list(Subcategory(0)) == []
    assert not {"__init__", "__eq__", "__hash__"} & set(vars(Subcategory))


def test_oracle_rejects_non_pair(a2_table):
    t = a2_table
    bogus = TorsionPair(
        Subcategory(_mask(t, (1, 1))), Subcategory(_mask(t, (1, 0))), False
    )
    # a pair that fails its axioms is not remembered: it fails every call
    for _ in range(2):
        with pytest.raises(PreconditionError):
            canonical_sequence_oracle(0, bogus, t)


def _reference_trace(y, generators, table):
    """Per vertex, the reduced rows of the span of the columns of every
    Hom basis from the generators into ``y``, by `Fraction` Gauss-Jordan:
    the trace with no image memo and no containment key."""
    Y = table.entries[y].rep
    span = {}
    for v in table.quiver.vertices:
        columns = [
            c
            for i in generators
            for f in table.hom_bases[i][y]
            for c in zip(*f[v].rows)
        ]
        rows, pivots = reference_rref(Mat(columns, len(columns), Y.dim(v)))
        span[v] = Mat(rows[: len(pivots)], len(pivots), Y.dim(v))
    return span


def _unmemoised_oracle(y, tp, table):
    """The canonical-sequence oracle without its memo: the axioms, the
    trace (`_reference_trace`), its subobject and quotient and every
    certificate computed afresh on each call."""
    if not is_torsion_pair(tp, table):
        raise PreconditionError("input does not satisfy the torsion-pair axioms")
    span = _reference_trace(y, tp.torsion.members, table)
    sub, quot = sub_and_quotient(table.entries[y].rep, span, table)
    for f in tp.free:
        dim, _ = hom_space(sub, table.entries[f].rep)
        if dim != 0:
            raise ConsistencyError(
                f"falsified: Hom(trace({table.entries[y].dimvec}), "
                f"{table.entries[f].dimvec}) has dimension {dim}"
            )
    for t in tp.torsion:
        dim, _ = hom_space(table.entries[t].rep, quot)
        if dim != 0:
            raise ConsistencyError(
                f"falsified: Hom({table.entries[t].dimvec}, "
                f"{table.entries[y].dimvec}/trace) has dimension {dim}"
            )
    return sub, quot


def _oracle_outcomes(oracle, table):
    """For every pair and module in turn, the subobject and quotient
    dimension vectors, or the type and message of what was raised."""
    out = []
    for tp in enumerate_torsion_pairs(table):
        for y in range(len(table.entries)):
            try:
                sub, quot = oracle(y, tp, table)
            except (ConsistencyError, PreconditionError) as exc:
                out.append((type(exc).__name__, str(exc)))
            else:
                out.append((sub.dimension_vector(), quot.dimension_vector()))
    return out


def _assert_traces_match_reference(table):
    """The memoised trace of every pair in every module has, vertex by
    vertex, the reduced rows of `_reference_trace`, which is computed
    once per module and members with a Hom basis into it."""
    reference = {}
    for tp in enumerate_torsion_pairs(table):
        for y in range(len(table.entries)):
            members = [i for i in tp.torsion if table.hom_bases[i][y]]
            key = (y, tuple(members))
            if key not in reference:
                span = _reference_trace(y, members, table)
                reference[key] = tuple(span[v] for v in table.quiver.vertices)
            tmask = sum(1 << i for i in tp.torsion.members)
            assert torsion._canonical_case(y, tmask, table)[0] == reference[key]


@pytest.mark.parametrize("name", ["a3", "d4", "d5"])
def test_memoised_oracle_matches_unmemoised(name):
    # a copy starts with an empty memo, so the first sweep fills it
    table = _builtin_table(name).copy()
    expected = _oracle_outcomes(_unmemoised_oracle, table)
    assert _oracle_outcomes(canonical_sequence_oracle, table) == expected
    assert _oracle_outcomes(canonical_sequence_oracle, table) == expected
    _assert_traces_match_reference(table)
    _assert_certificates_are_their_cases(table)


@settings(max_examples=10, deadline=None)
@given(orientations(shapes=("A4", "A5", "A6", "D4", "D5")))
def test_memoised_traces_match_reference_on_any_orientation(q):
    """On random orientations every memoised trace is the reference one,
    and every pair passes the oracle."""
    table = enumerate_indecomposables(q)
    _assert_traces_match_reference(table)
    assert all(
        canonical_sequence_oracle(y, tp, table)
        for tp in enumerate_torsion_pairs(table)
        for y in range(len(table.entries))
    )


def _contains(big, small):
    """Whether the span of the rows ``small`` lies in that of ``big``."""
    return span_rank(big + small) == span_rank(big)


@pytest.mark.parametrize("name", ["a3", "d4", "d5", "e6"])
def test_dominators_match_span_ranks(name):
    """For each module y, i dominates j exactly when the image of Hom(j,
    y) lies in that of Hom(i, y), strictly or with i < j, by the ranks
    of the stacked Hom basis columns at every vertex."""
    table = _builtin_table(name).copy()
    n = len(table.entries)
    ties = 0
    for y in range(n):
        into, images, dominators = torsion._images_into(y, table)
        gens = [i for i in range(n) if table.hom_bases[i][y]]
        assert into == sum(1 << i for i in gens) and sorted(images) == gens
        columns = {
            i: [
                [list(c) for f in table.hom_bases[i][y] for c in zip(*f[v].rows)]
                for v in table.quiver.vertices
            ]
            for i in gens
        }
        for j in gens:
            expected = 0
            for i in gens:
                inside = all(map(_contains, columns[i], columns[j]))
                equal = inside and all(map(_contains, columns[j], columns[i]))
                ties += equal and i != j
                if i != j and inside and (i < j or not equal):
                    expected |= 1 << i
            assert dominators[j] == expected, (y, j)
    assert ties > 0


def test_oracle_memo_follows_hom_bases_on_patched_hom(a3_table):
    """A patch rewrites ``hom`` and keeps ``hom_bases``; the oracle reads
    the bases, so its memo must be keyed by them.  Every single-cell
    flip of the a3 table, between zero and nonzero, in turn."""
    n = len(a3_table.entries)
    falsified = 0
    for i in range(n):
        for j in range(n):
            hom = [list(row) for row in a3_table.hom]
            hom[i][j] = 0 if hom[i][j] else 1
            patched = a3_table.copy(hom=tuple(tuple(r) for r in hom))
            expected = _oracle_outcomes(_unmemoised_oracle, patched)
            assert _oracle_outcomes(canonical_sequence_oracle, patched) == expected
            _assert_certificates_are_their_cases(patched)
            falsified += any(o[0] == "ConsistencyError" for o in expected)
    assert falsified > 0


def _assert_certificates_are_their_cases(table):
    """Cases share a [certified, nonzero] pair of module masks only when
    their subobjects (or quotients) have equal dimensions and matrices,
    and every member kept in one is certified exactly when the Hom
    dimension of each case's own subobject or quotient is zero."""
    owner = {}
    for _trace, sub, quot, sub_into, into_quot in table.memo[
        "oracle_cases"
    ].values():
        for rep, solved in ((sub, sub_into), (quot, into_quot)):
            first = owner.setdefault(id(solved), rep)
            assert (first.dims, first.maps) == (rep.dims, rep.maps)
            assert not solved[0] & solved[1]
        reps = [e.rep for e in table.entries]
        for (certified, nonzero), dim in (
            (sub_into, lambda f: hom_space(sub, reps[f])[0]),
            (into_quot, lambda t: hom_space(reps[t], quot)[0]),
        ):
            for k in bits(certified | nonzero):
                assert (dim(k) == 0) == bool(certified >> k & 1)


def test_duality_with_opposite_quiver(a3_table):
    op_table = enumerate_indecomposables(opposite(a3_table.quiver))
    fwd = {
        (
            frozenset(a3_table.entries[i].dimvec for i in tp.torsion),
            frozenset(a3_table.entries[j].dimvec for j in tp.free),
        )
        for tp in enumerate_torsion_pairs(a3_table)
    }
    # over the opposite quiver (T, F) corresponds to (F, T)
    bwd = {
        (
            frozenset(op_table.entries[j].dimvec for j in tp.free),
            frozenset(op_table.entries[i].dimvec for i in tp.torsion),
        )
        for tp in enumerate_torsion_pairs(op_table)
    }
    assert fwd == bwd


def test_torsion_classes_closed_under_meet(a3_table):
    pairs = enumerate_torsion_pairs(a3_table)
    classes = {tp.torsion.members for tp in pairs}
    for s in classes:
        for t in classes:
            assert s & t in classes


def test_is_torsion_pair_fixed_point(a2_table):
    for tp in enumerate_torsion_pairs(a2_table):
        assert is_torsion_pair(tp, a2_table)


# ---------------------------------------------------------------------------
# Oracles for the closure search
# ---------------------------------------------------------------------------


def _brute_force_pairs(table):
    """Reference enumeration: scan all 2^n subsets and keep those that are
    fixed points of the double-orthogonal operator, read off
    ``table.hom``."""
    n = len(table.entries)
    full = (1 << n) - 1
    nohom = [[table.hom[i][j] == 0 for j in range(n)] for i in range(n)]
    nohom_from = [sum(1 << j for j in range(n) if nohom[i][j]) for i in range(n)]
    nohom_into = [sum(1 << i for i in range(n) if nohom[i][j]) for j in range(n)]
    pairs = []
    for tmask in range(1 << n):
        fmask = tback = full
        for i in bits(tmask):
            fmask &= nohom_from[i]
        for j in bits(fmask):
            tback &= nohom_into[j]
        if tmask != tback:
            continue
        split = (tmask | fmask) == full
        pairs.append(TorsionPair(Subcategory(tmask), Subcategory(fmask), split))
    return pairs


@functools.cache
def _builtin_table(name):
    return enumerate_indecomposables(BUILTIN_QUIVERS[name]())


def _catalan(n):
    return comb(2 * n, n) // (n + 1)


@pytest.mark.parametrize("name", ["a2", "a3", "a4", "d4", "d5"])
def test_closure_search_matches_subset_scan(name):
    table = _builtin_table(name)
    assert enumerate_torsion_pairs(table) == _brute_force_pairs(table)


def test_closure_search_matches_subset_scan_on_patched_table(a2_table):
    # With no nonzero Hom out of P1 at all, not even its identity, the
    # smallest fixed point is no longer 0; both enumerations must agree.
    p1 = a2_table.by_dimvec((0, 1)).id
    hom = [list(row) for row in a2_table.hom]
    hom[p1] = [0] * len(hom)
    patched = a2_table.copy(hom=tuple(tuple(r) for r in hom))
    pairs = enumerate_torsion_pairs(patched)
    assert pairs == _brute_force_pairs(patched)
    assert p1 in pairs[0].torsion


# (tree edges, torsion-class count): A2..A5 and D4
SHAPES = [
    ([(k, k + 1) for k in range(1, n)], _catalan(n + 1)) for n in range(2, 6)
] + [([(1, 4), (2, 4), (3, 4)], 50)]


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(SHAPES), st.lists(st.booleans(), min_size=4, max_size=4)
)
def test_class_count_independent_of_orientation(shape, flips):
    edges, count = shape
    # edge k reversed when flips[k] is set; extra flips are ignored
    oriented = [
        (t, s) if flip else (s, t) for (s, t), flip in zip(edges, flips)
    ]
    table = enumerate_indecomposables(quiver_from_edges("Q", oriented))
    assert len(enumerate_torsion_pairs(table)) == count


@pytest.mark.parametrize("n", range(1, 7))
def test_type_a_class_count_is_catalan(n):
    table = enumerate_indecomposables(linear_quiver(n))
    assert len(enumerate_torsion_pairs(table)) == _catalan(n + 1)


@pytest.mark.parametrize(
    "name, count",
    # D_n: (3n - 2)/n * C(2n - 2, n - 1); E6 from Ingalls-Thomas
    [("d4", 50), ("d5", 182), ("e6", 833)],
)
def test_coxeter_catalan_counts(name, count):
    assert len(enumerate_torsion_pairs(_builtin_table(name))) == count


def _coxeter_catalan(name):
    """The torsion-class count of a Dynkin type by its closed form: A_n
    Cat(n + 1), D_n (3n - 2)/n * C(2n - 2, n - 1), E6, E7, E8 833,
    4160, 25080 (Ingalls-Thomas)."""
    kind, n = name[0].upper(), int(name[1:])
    if kind == "A":
        return _catalan(n + 1)
    if kind == "D":
        return (3 * n - 2) * comb(2 * n - 2, n - 1) // n
    return {6: 833, 7: 4160, 8: 25080}[n]


def test_quiver_class_count_is_coxeter_catalan():
    for name, build in BUILTIN_QUIVERS.items():
        assert build().torsion_class_count() == _coxeter_catalan(name), name
    for n in range(1, 13):
        assert linear_quiver(n).torsion_class_count() == _coxeter_catalan(f"A{n}")


def test_class_budget_is_decided_without_forming_huge_counts(monkeypatch):
    """A10's 58,786 classes fit under the cap and A11's 208,012 do not;
    from rank 16, where 2^16 alone is over the cap, the count is not
    formed (Cat(100,001) has about 60,000 digits) and the message is the
    same."""
    message = (
        "more than MAX_TORSION_CLASSES = 60000 torsion classes; "
        "enumeration stopped at the class cap"
    )
    torsion.check_quiver_class_count(linear_quiver(10))
    with pytest.raises(UnsupportedError) as exc:
        torsion.check_quiver_class_count(linear_quiver(11))
    assert str(exc.value) == message

    def unformed(quiver):
        raise AssertionError("the class count was formed")

    monkeypatch.setattr(Quiver, "torsion_class_count", unformed)
    for n in (16, 100_000):
        with pytest.raises(UnsupportedError) as exc:
            torsion.check_quiver_class_count(linear_quiver(n))
        assert str(exc.value) == message


@settings(max_examples=20, deadline=None)
@given(orientations())
def test_class_count_is_coxeter_catalan_on_any_orientation(q):
    table = enumerate_indecomposables(q)
    assert len(torsion.torsion_masks(table)) == _coxeter_catalan(q.name)



def reference_projection(rows):
    """P with P * [rows^T | unit vectors off the rows' pivots] = [0 | I]:
    the last rows of the inverse of that square matrix, by `Fraction`
    Gauss-Jordan."""
    n = rows.ncols
    others = [c for c in range(n) if c not in reference_rref(rows)[1]]
    square = [
        list(col) + [int(i == c) for c in others]
        for i, col in enumerate(rows.transpose().rows)
    ]
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(square)]
    red, pivots = reference_rref(Mat(aug, n, 2 * n))
    assert pivots == list(range(n))
    return Mat([r[n:] for r in red[rows.nrows :]], len(others), n)


@pytest.mark.parametrize("name", ["a3", "d4"])
def test_trace_sequence_is_short_exact(name):
    """For every module and torsion class, the inclusion sub -> Y (the
    trace's reduced rows as columns) and the projection Y -> quot are
    morphisms, their composite is 0 and the dimensions add up."""
    table = _builtin_table(name)
    Q = table.quiver
    for tp in enumerate_torsion_pairs(table):
        for y in range(len(table.entries)):
            Y = table.entries[y].rep
            span = trace_subrepresentation(y, tp.torsion.members, table)
            sub, quot = sub_and_quotient(Y, span, table)
            incl = {v: span[v].transpose() for v in Q.vertices}
            proj = {v: reference_projection(span[v]) for v in Q.vertices}
            for v in Q.vertices:
                assert span_rank(span[v].rows) == sub.dim(v) == span[v].nrows
                assert sub.dim(v) + quot.dim(v) == Y.dim(v)
                assert (proj[v] * incl[v]).is_zero()
            for a in Q.arrows:
                u, w = a.source, a.target
                Ya = Y.maps[a.name]
                assert Ya * incl[u] == incl[w] * sub.maps[a.name]
                assert quot.maps[a.name] * proj[u] == proj[w] * Ya


def test_sub_and_quotient_rejects_a_span_not_closed_under_arrows(a2_table):
    """On the projective P_1 of 1 -> 2, the top (vertex 1) alone is not
    closed under the arrow; the socle (vertex 2) is."""
    Y = a2_table.entries[a2_table.by_dimvec((1, 1)).id].rep
    top = {"1": Mat([[1]]), "2": Mat([], 0, 1)}
    with pytest.raises(ConsistencyError, match="not closed under arrow maps"):
        sub_and_quotient(Y, top, a2_table)
    socle = {"1": Mat([], 0, 1), "2": Mat([[1]])}
    sub, quot = sub_and_quotient(Y, socle, a2_table)
    assert sub.dimension_vector() == (0, 1) and quot.dimension_vector() == (1, 0)
