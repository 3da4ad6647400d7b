import functools
import hashlib
import json
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aisles import repcore
from aisles.derived import TableContext, module_relation
from aisles.errors import ConsistencyError, UnsupportedError
from aisles.linalg import Mat, span_rank
from aisles.quiver import (
    BUILTIN_QUIVERS,
    Arrow,
    Quiver,
    linear_quiver,
)
from aisles.repcore import (
    Representation,
    compose_morphisms,
    enumerate_indecomposables,
    euler_form,
    hom_space,
    irreducible_dim,
    reflect,
)
from reference import hstack, orientations, vstack
from test_linalg import reference_nullspace, reference_solve
from test_quiver import positive_roots

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


def test_positive_roots_a3(a3_table):
    roots = [e.dimvec for e in a3_table.entries]
    assert (1, 1, 1) in roots and (0, 1, 1) in roots
    assert len(roots) == 6
    assert set(roots) == positive_roots(linear_quiver(3))


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


def simple(quiver, v):
    """The simple representation at ``v``."""
    dims = {w: int(w == v) for w in quiver.vertices}
    maps = {
        a.name: Mat.zeros(dims[a.target], dims[a.source]) for a in quiver.arrows
    }
    return Representation(quiver, dims, maps)


def coxeter_transform(quiver, d, inverse=False):
    """Phi d, or Phi^{-1} d, on dimension vectors, with Phi = -E^{-1} E^T
    and E the Euler matrix (<d, e> = d^T E e): E x = -E^T d, or
    E^T x = -E d, solved by the `Fraction` Gauss-Jordan of test_linalg."""
    idx = {v: i for i, v in enumerate(quiver.vertices)}
    E = [[int(i == j) for j in idx.values()] for i in idx.values()]
    for a in quiver.arrows:
        E[idx[a.source]][idx[a.target]] -= 1
    Et = [list(col) for col in zip(*E)]
    A, B = (Et, E) if inverse else (E, Et)
    x = reference_solve(Mat(A), [-sum(map(operator.mul, row, d)) for row in B])
    assert all(v.denominator == 1 for v in x)
    return tuple(int(v) for v in x)


def test_coxeter_on_a2(a2_table):
    q = linear_quiver(2)
    assert coxeter_transform(q, (1, 0)) == (0, 1)  # tau S_1 = S_2
    assert any(x < 0 for x in coxeter_transform(q, (0, 1)))  # projective
    assert coxeter_transform(q, (0, 1), inverse=True) == (1, 0)
    s1, s2 = a2_table.by_dimvec((1, 0)), a2_table.by_dimvec((0, 1))
    assert s1.tau == s2.id and s2.tau is None and s2.tau_inverse == s1.id


def test_reflection_at_sink():
    q = linear_quiver(2)
    s1 = simple(q, "1")
    r = reflect(s1, "2")  # vertex 2 is a sink: positive reflection
    assert r.dimension_vector() == (1, 1)
    assert r.quiver.arrows[0].source == "2"
    # reflecting back over the reversed quiver recovers the simple
    back = reflect(r, "2")
    assert back.dimension_vector() == (1, 0)
    # the simple at the sink itself is annihilated
    s2 = simple(q, "2")
    assert reflect(s2, "2").dimension_vector() == (0, 0)


def reference_reflect(R, v):
    """BGP reflection at a sink or source with `Fraction` Gauss-Jordan:
    the kernel of the stacked arrow maps into v, or the left kernel of
    those out of v."""
    Q = R.quiver
    maps = {a.name: R.maps[a.name] for a in Q.arrows if v not in (a.source, a.target)}
    offset = 0
    if Q.is_sink(v):
        arrows = Q.arrows_into(v)
        basis = reference_nullspace(hstack([R.maps[a.name] for a in arrows]))
        K = Mat(basis, len(basis), sum(R.dim(a.source) for a in arrows)).transpose()
        for a in arrows:
            d = R.dim(a.source)
            maps[a.name] = Mat(K.rows[offset : offset + d], d, len(basis))
            offset += d
    else:
        arrows = Q.arrows_from(v)
        h = vstack([R.maps[a.name] for a in arrows])
        basis = reference_nullspace(h.transpose())
        for a in arrows:
            d = R.dim(a.target)
            maps[a.name] = Mat([b[offset : offset + d] for b in basis], len(basis), d)
            offset += d
    return Q.reversed_at(v), {**R.dims, v: len(basis)}, maps


@pytest.mark.parametrize("name", ["d4", "d5"])
def test_reflect_matches_fraction_reference(name):
    """Every entry reflected at every sink and source, and each result
    again at every sink and source of its quiver (the D4 centre becomes
    a source of three arrows)."""
    todo = [e.rep for e in builtin_table(name).entries]
    for depth in range(2):
        reflected = []
        for R in todo:
            Q = R.quiver
            for v in Q.vertices:
                if Q.is_sink(v) or Q.is_source(v):
                    got = reflect(R, v)
                    assert (got.quiver, got.dims, got.maps) == reference_reflect(R, v)
                    reflected.append(got)
        todo = reflected
    assert any(max(R.dims.values()) > 1 for R in todo)


def test_reflect_rejects_interior_vertex():
    q = linear_quiver(3)
    m = simple(q, "1")
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


@pytest.mark.parametrize("name", ["a3", "d4", "d5", "e6"])
def test_radical_and_mesh_rules_catch_every_flip(name, monkeypatch):
    """The derived mesh rule fixes the AR arrows, so flipping
    `irreducible_dim` on any one pair fails it: dropping an AR arrow,
    adding a pair with nonzero Hom (the diagonal too), or adding a pair
    with zero Hom.  On a3 each flip builds the table and reads its
    arrows."""
    t = builtin_table(name)
    n = len(t.entries)
    irr = {(i, j): irreducible_dim(i, j, t) for i in range(n) for j in range(n)}
    assert repcore._ar_arrows(t) == t.ar_arrows
    flip = None

    def flipped(i, j, table):
        return irr[i, j] ^ ((i, j) == flip)

    monkeypatch.setattr(repcore, "irreducible_dim", flipped)
    build = (
        (lambda: enumerate_indecomposables(t.quiver).ar_arrows)
        if name == "a3"
        else (lambda: repcore._ar_arrows(t))
    )
    for flip in irr:
        with pytest.raises(ConsistencyError, match=r"(radical|mesh) rule fails"):
            build()


@pytest.mark.parametrize("name", ["a3", "d4", "d5"])
def test_mesh_rule_catches_every_wrong_gluing(name, monkeypatch):
    """The derived mesh rule fixes the gluing arrows I_w[d] -> P_v[d+1]
    too, so the proof fails on every single dropped, added or swapped
    `gluing_pairs` pair, on the rule read off the reversed arrows and on
    the empty rule.  On a3 each wrong rule builds the table and reads
    its arrows."""
    t = builtin_table(name)
    n = len(t.entries)
    irr = {(i, j): irreducible_dim(i, j, t) for i in range(n) for j in range(n)}
    rule = repcore.gluing_pairs(t)
    assert len(rule) == len(t.quiver.arrows)
    reversed_rule = {
        (t.injective_by_vertex(a.target).id, t.projective_by_vertex(a.source).id)
        for a in t.quiver.arrows
    }
    assert reversed_rule != rule
    others = [(i, j) for i in range(n) for j in range(n) if (i, j) not in rule]
    wrong = [rule - {p} for p in rule]
    wrong += [rule | {q} for q in others]
    wrong += [rule - {p} | {q} for p in rule for q in others]
    wrong += [reversed_rule, set()]
    # d5: 4 drops, 396 adds, 1,584 swaps and the two whole rules
    assert len(wrong) == len(rule) + (len(rule) + 1) * len(others) + 2
    gluing = rule

    monkeypatch.setattr(repcore, "irreducible_dim", lambda i, j, table: irr[i, j])
    monkeypatch.setattr(repcore, "gluing_pairs", lambda table: gluing)
    assert repcore._ar_arrows(t) == t.ar_arrows
    build = (
        (lambda: enumerate_indecomposables(t.quiver).ar_arrows)
        if name == "a3"
        else (lambda: repcore._ar_arrows(t))
    )
    for gluing in wrong:
        with pytest.raises(ConsistencyError, match=r"(radical|mesh) rule fails"):
            build()


def translation_closure(table, arrows):
    """The least arrow set holding ``arrows`` and closed under the mesh
    translations of the table's tau: a -> b gives tau b -> a when b is
    not projective, and b -> tau^- a when a is not injective.  Every
    such set meets the mesh rule at each non-projective module."""
    entries = table.entries
    closed = set(arrows)
    todo = list(arrows)
    while todo:
        a, b = todo.pop()
        for arrow in (
            (entries[b].tau, a) if entries[b].tau is not None else None,
            (b, entries[a].tau_inverse) if entries[a].tau_inverse is not None else None,
        ):
            if arrow is not None and arrow not in closed:
                closed.add(arrow)
                todo.append(arrow)
    return closed


def mesh_clauses(table, arrows, gluing):
    """(radical, socle, rest): whether, at every P_v, the module arrows
    into P_v are the gluing targets of I_v (radical half) and the gluing
    sources of P_v are the module arrows out of I_v (socle half), and
    whether the mesh rule holds at every non-projective module."""
    n = len(table.entries)
    into, out, glued_into, glued_out = ([set() for _ in range(n)] for _ in range(4))
    for s, t in arrows:
        out[s].add(t)
        into[t].add(s)
    for s, t in gluing:
        glued_out[s].add(t)
        glued_into[t].add(s)
    radical = socle = rest = True
    for e in table.entries:
        if e.is_projective:
            inj = table.injective_by_vertex(e.proj_vertex).id
            radical &= into[e.id] == glued_out[inj]
            socle &= glued_into[e.id] == out[inj]
        else:
            rest &= into[e.id] == out[e.tau] and not glued_into[e.id] | glued_out[e.tau]
    return radical, socle, rest


@pytest.mark.parametrize("name", ["a3", "d5", "e6"])
def test_each_half_of_the_mesh_at_a_projective_is_needed(name, monkeypatch):
    """Joint mutations of module arrows and gluing that only one half of
    the mesh rule at P_v rejects: a wrong arrow P_u -> P_v (or
    I_u -> I_v) with all its tau-translates, and the gluing pair
    (I_v, P_u) that keeps the other half.  The mesh rule holds at every
    non-projective, so a proof without the radical half, or without the
    socle half, would accept some of them."""
    t = builtin_table(name)
    arrows = set(t.ar_arrows)
    rule = repcore.gluing_pairs(t)
    assert mesh_clauses(t, arrows, rule) == (True, True, True)
    wrong = {(False, True, True): [], (True, False, True): []}
    for u in t.quiver.vertices:
        for v in t.quiver.vertices:
            if u == v:
                continue
            p_u, p_v = t.projective_by_vertex(u).id, t.projective_by_vertex(v).id
            i_u, i_v = t.injective_by_vertex(u).id, t.injective_by_vertex(v).id
            for seed in ((p_u, p_v), (i_u, i_v)):
                if seed not in arrows:
                    mutated = translation_closure(t, arrows | {seed})
                    gluing = rule | {(i_v, p_u)}
                    clauses = mesh_clauses(t, mutated, gluing)
                    if clauses in wrong:
                        wrong[clauses].append((mutated, gluing))
    assert all(wrong.values())
    mutated = gluing = None
    monkeypatch.setattr(
        repcore, "irreducible_dim", lambda i, j, table: int((i, j) in mutated)
    )
    monkeypatch.setattr(repcore, "gluing_pairs", lambda table: gluing)
    for mutated, gluing in (m for ms in wrong.values() for m in ms):
        with pytest.raises(ConsistencyError, match="mesh rule fails at the arrows into"):
            repcore._ar_arrows(t)


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


def test_representations_and_tables_are_unhashable(a2_table):
    """Both hold dicts, so no cache may key on them (by value or by id)."""
    for record in (a2_table.entries[0].rep, a2_table):
        with pytest.raises(TypeError):
            hash(record)


def test_table_copy_shares_solved_and_starts_a_fresh_memo(a3_table):
    table = a3_table.copy()
    module_relation(TableContext(table))
    assert table.memo
    for hom in (None, tuple(tuple(0 for _ in r) for r in table.hom)):
        copy = table.copy(hom=hom)
        assert copy.solved is table.solved and copy.memo == {}
        assert copy.hom is (table.hom if hom is None else hom)
        assert copy.entries is table.entries and copy.ext is table.ext
        assert "hom_bases" not in vars(copy)


def test_simple_rep_end_is_field(a2_table):
    for v in ("1", "2"):
        s = simple(linear_quiver(2), v)
        dim, basis = hom_space(s, s)
        assert dim == 1
        assert basis[0][v] == Mat([[Fraction(1)]])


@settings(max_examples=30, deadline=None)
@given(orientations())
def test_orbit_walk_matches_roots_and_coxeter_transform(q):
    """On any orientation: one entry per positive root (the reflection
    closure), End = k, the AR formula, and every tau / tau^- link equal
    to the Coxeter transform Phi = -E^{-1} E^T of the Euler matrix, with
    Phi dim X not positive exactly at the projectives (Phi^{-1} at the
    injectives)."""
    t = enumerate_indecomposables(q)
    n = len(t.entries)
    assert n == q.positive_root_count()
    assert {e.dimvec for e in t.entries} == positive_roots(q)
    for i, e in enumerate(t.entries):
        assert t.hom[i][i] == 1
        for j in range(n):
            assert t.ext[i][j] == (0 if e.tau is None else t.hom[j][e.tau])
        for link, inverse in ((e.tau, False), (e.tau_inverse, True)):
            phi = coxeter_transform(q, e.dimvec, inverse)
            if link is None:
                assert min(phi) < 0
            else:
                assert t.entries[link].dimvec == phi


def test_walk_that_never_reaches_zero_stops_at_the_cap(monkeypatch):
    """A reflection that keeps every space never ends an orbit: the walk
    must raise at the positive-root cap, not loop."""
    calls = 0

    def stuck(R, v):
        nonlocal calls
        calls += 1
        assert calls < 1000, "the walk did not stop at its cap"
        maps = {
            a.name: R.maps[a.name].transpose()
            if v in (a.source, a.target)
            else R.maps[a.name]
            for a in R.quiver.arrows
        }
        return Representation(R.quiver.reversed_at(v), R.dims, maps)

    monkeypatch.setattr(repcore, "reflect", stuck)
    with pytest.raises(ConsistencyError, match="exceed 12 modules"):
        enumerate_indecomposables(BUILTIN_QUIVERS["d4"]())


def test_wrong_projective_is_caught(monkeypatch):
    """The simple at the non-sink 1 of 1 -> 2 -> 3 in place of P_1: its
    orbit misses P_1 = (1, 1, 1)."""
    real = repcore.projective
    monkeypatch.setattr(
        repcore,
        "projective",
        lambda quiver, v: simple(quiver, v) if v == "1" else real(quiver, v),
    )
    with pytest.raises(ConsistencyError, match="5 dimension vectors"):
        enumerate_indecomposables(linear_quiver(3))


def test_swapped_projectives_are_caught(monkeypatch):
    """P_1 and P_2 exchanged: the same orbits, so only the check that the
    projective with top v starts v's walk can see it."""
    real = repcore.projective
    swap = {"1": "2", "2": "1"}
    monkeypatch.setattr(
        repcore, "projective", lambda quiver, v: real(quiver, swap.get(v, v))
    )
    with pytest.raises(ConsistencyError, match="walk from P_1"):
        enumerate_indecomposables(linear_quiver(3))


def test_coxeter_functor_must_return_to_the_quiver(monkeypatch):
    """C^- that skips the last vertex of the sink ordering leaves arrows
    reversed."""
    real = Quiver.sink_ordering
    monkeypatch.setattr(Quiver, "sink_ordering", lambda self: real(self)[1:])
    with pytest.raises(ConsistencyError, match="off the quiver"):
        enumerate_indecomposables(linear_quiver(3))


@pytest.mark.parametrize("name", ["d5", "e7"])
def test_coxeter_walk_plans_each_step_once(monkeypatch, name):
    """Every C^- starts from the table's quiver, so the quivers it passes
    through are built in the first round only: one per vertex, whatever
    the number of `reflect` calls."""
    quiver = BUILTIN_QUIVERS[name]()
    built, reflected = [], []
    init, real_reflect = Quiver.__init__, repcore.reflect

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counting_reflect(R, v):
        reflected.append(v)
        return real_reflect(R, v)

    monkeypatch.setattr(Quiver, "__init__", counting_init)
    monkeypatch.setattr(repcore, "reflect", counting_reflect)
    table = enumerate_indecomposables(quiver)
    assert len(built) == len(quiver.vertices)
    assert len(reflected) == len(table) * len(quiver.vertices)
    # the last step of the plan closes the round on a quiver equal to,
    # and not the same object as, the table's
    last = quiver
    for v in quiver.sink_ordering()[::-1]:
        last = last.reversed_at(v)
    assert last == quiver and last is not quiver
    assert len(built) == len(quiver.vertices)


# -- the builtin tables, pinned ----------------------------------------------------

# sha256 of the compact JSON of [dimension vectors, hom, ext, ar_arrows,
# hom_vectors] of each builtin table, written by the table build that
# formed every row of delta for every pair and tested its rank mod 2 on
# those rows: any change of a root's position, a Hom or Ext dimension, an
# AR arrow or a Hom basis vector shows here.
TABLE_DIGESTS = {
    "a2": "d3984f7a6660d305cdd9ba796deb1d70338cf6ccfa9996d9182429cb3451f54f",
    "a3": "012972dd9f7314d893e2fbcb5b4e8a7866a14da94e5a09fa1532758bf83d03a4",
    "a4": "c35529ab70cea194a9699ae7e5498f01d7164dad1ccf47e3b63afb30a4a8d25b",
    "d4": "f9c95b2383521dd0a9ac543aa136a327f262c068821f7f1351417bf172f19bcb",
    "d5": "39802965d966244d94a59005e04a747d9f353eec1d043a599ca70d62aa0d40af",
    "e6": "a3d7446dea7f19430d77aa360d84072a52b7c945601debe9a8601b6b9b17d07c",
    "e7": "ad0d8c8afcdd1354263d6f32870c082a39ca4745831d0c7c4c7d638e8f2ab48f",
    "e8": "95fa168107b55f9eb91d5fcce9fb83d3dd97bbd1b54f69e3211ba7e0668c7eb6",
}


@pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
def test_builtin_table_matches_its_pinned_digest(name):
    assert sorted(TABLE_DIGESTS) == sorted(BUILTIN_QUIVERS)
    t = enumerate_indecomposables(BUILTIN_QUIVERS[name]())
    data = [[e.dimvec for e in t.entries], t.hom, t.ext, t.ar_arrows, t.hom_vectors]
    text = json.dumps(data, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[name]


# -- the certificate mod 2 ----------------------------------------------------------


@pytest.mark.parametrize("name, nonzero, pairs", [("d5", 140, 400), ("e6", 462, 1296)])
def test_only_nonzero_hom_systems_are_eliminated(monkeypatch, name, nonzero, pairs):
    """Building the table reads the parity masks of every pair once and
    forms no row of delta: Dynkin modules are directing, so Hom and Ext
    between indecomposables are never both nonzero, delta has full rank,
    and its rank mod 2 proves that rank.  Reading ``hom_vectors`` then
    builds delta as rows, and eliminates it, once for exactly the
    nonzero pairs (the reflections eliminate too, on other rows); the
    AR arrows read those bases and form no system."""
    systems, certified, eliminated = [], [], []
    hom_system, hom_parities = repcore.hom_system, repcore.hom_parities
    eliminate = repcore.eliminate

    def recording_system(M, N):
        out = hom_system(M, N)
        systems.append((M, N, out[0]))
        return out

    def recording_parities(M, N):
        certified.append((M, N))
        return hom_parities(M, N)

    def recording_eliminate(rows):
        eliminated.append(rows)
        return eliminate(rows)

    monkeypatch.setattr(repcore, "hom_system", recording_system)
    monkeypatch.setattr(repcore, "hom_parities", recording_parities)
    monkeypatch.setattr(repcore, "eliminate", recording_eliminate)
    table = enumerate_indecomposables(BUILTIN_QUIVERS[name]())
    assert systems == []
    index = {id(e.rep): e.id for e in table.entries}
    n = len(table)
    tried = [(index[id(M)], index[id(N)]) for M, N in certified]
    assert sorted(tried) == [(i, j) for i in range(n) for j in range(n)]
    assert len(tried) == pairs
    assert table.hom_vectors is table.hom_vectors
    assert table.ar_arrows
    built = [(index[id(M)], index[id(N)]) for M, N, _rows in systems]
    want = [(i, j) for i, row in enumerate(table.hom) for j, h in enumerate(row) if h]
    assert sorted(built) == want and len(set(built)) == len(built) == nonzero
    assert len(certified) == pairs
    eliminated_ids = {id(rows) for rows in eliminated}
    assert all(id(rows) in eliminated_ids for _M, _N, rows in systems)
    assert "hom_bases" not in vars(table)


@pytest.mark.parametrize("name", ["a2", "a3", "a4", "d4", "d5"])
def test_short_rank_mod_2_falls_back_to_elimination(monkeypatch, name):
    """With every rank mod 2 short, no pair is proved by its parities:
    the build eliminates each one, keeps its kernel, and reading
    ``hom_vectors`` forms no system again.  The table is the same."""
    rank_mod2 = repcore.rank_mod2
    hom_system = repcore.hom_system
    systems = []

    def recording(M, N):
        systems.append((M, N))
        return hom_system(M, N)

    monkeypatch.setattr(repcore, "rank_mod2", lambda masks: rank_mod2(masks) - 1)
    monkeypatch.setattr(repcore, "hom_system", recording)
    t = enumerate_indecomposables(BUILTIN_QUIVERS[name]())
    assert len(systems) == len(t) ** 2
    data = [[e.dimvec for e in t.entries], t.hom, t.ext, t.ar_arrows, t.hom_vectors]
    assert len(systems) == len(t) ** 2
    text = json.dumps(data, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[name]


@pytest.mark.parametrize(
    "wrong", [lambda basis: basis[1:], lambda basis: basis + basis[:1]], ids=["short", "long"]
)
def test_basis_off_its_certified_dimension_raises(monkeypatch, wrong):
    """A Hom basis solved on first read must have the dimension the
    build proved mod 2; exact elimination cross-checks the parities."""
    table = enumerate_indecomposables(BUILTIN_QUIVERS["a3"]())
    kernel_ints = repcore.kernel_ints
    monkeypatch.setattr(
        repcore, "kernel_ints", lambda *args: wrong(kernel_ints(*args))
    )
    with pytest.raises(ConsistencyError, match=r"solves to dimension \d+, certified 1"):
        table.hom_vectors
    assert table.solved.vectors is None


# A3 pairs (i, j) with only Hom, neither, and only Ext nonzero
@pytest.mark.parametrize("pair", [(0, 3), (0, 1), (1, 0)], ids=["hom", "zero", "ext"])
def test_a_wrong_hom_kernel_breaks_the_directing_check(monkeypatch, pair):
    """One Hom kernel one vector too long raises Hom and, with the Euler
    form, Ext by one: the pair then has both nonzero, which no pair of
    Dynkin modules has (they are directing)."""
    t = enumerate_indecomposables(BUILTIN_QUIVERS["a3"]())
    i, j = pair
    rank_mod2, kernel = repcore.rank_mod2, repcore._kernel
    calls = []

    def one_long(rows, ncols):
        calls.append(None)
        basis = kernel(rows, ncols)
        return basis + ((0,) * ncols,) if len(calls) == i * len(t) + j + 1 else basis

    monkeypatch.setattr(repcore, "rank_mod2", lambda masks: rank_mod2(masks) - 1)
    monkeypatch.setattr(repcore, "_kernel", one_long)
    with pytest.raises(ConsistencyError, match="both nonzero: the modules are not directing"):
        enumerate_indecomposables(BUILTIN_QUIVERS["a3"]())
    assert len(calls) == len(t) ** 2


@pytest.mark.parametrize(
    "wrong", [{(2, 4), (1, 5)}, {(1, 5), (1, 0)}, {(4, 1), (3, 2), (5, 0)}]
)
def test_the_directing_check_names_the_first_wrong_pair(monkeypatch, wrong):
    """The check reads whole rows; with several pairs wrong, its message
    still names the first of them in row-major order."""
    t = enumerate_indecomposables(BUILTIN_QUIVERS["a3"]())
    n = len(t)
    rank_mod2, kernel = repcore.rank_mod2, repcore._kernel
    calls = []

    def long_at_wrong(rows, ncols):
        i, j = divmod(len(calls), n)
        calls.append(None)
        basis = kernel(rows, ncols)
        return basis + ((0,) * ncols,) if (i, j) in wrong else basis

    monkeypatch.setattr(repcore, "rank_mod2", lambda masks: rank_mod2(masks) - 1)
    monkeypatch.setattr(repcore, "_kernel", long_at_wrong)
    i, j = min(wrong)
    roots = [e.dimvec for e in t.entries]
    message = f"Hom and Ext from {roots[i]} to {roots[j]} are both nonzero"
    with pytest.raises(ConsistencyError, match=re.escape(message)):
        enumerate_indecomposables(BUILTIN_QUIVERS["a3"]())


@pytest.mark.parametrize("name", ["a3", "d4", "d5"])
def test_the_ar_formula_check_names_the_first_failing_pair(monkeypatch, name):
    """Each orbit walked backwards makes tau the true tau^-: the hom
    column at tau i no longer matches row i of ext.  The check compares
    whole rows, and names the first failing pair in row-major order with
    the values the pair-by-pair check reported."""
    t = enumerate_indecomposables(BUILTIN_QUIVERS[name]())
    first = next(
        (i, j, t.ext[i][j], want)
        for i, e in enumerate(t.entries)
        for j in range(len(t))
        for want in [0 if e.tau_inverse is None else t.hom[j][e.tau_inverse]]
        if t.ext[i][j] != want
    )
    walk = repcore.tau_minus_orbits
    monkeypatch.setattr(
        repcore,
        "tau_minus_orbits",
        lambda quiver, cap: {v: o[::-1] for v, o in walk(quiver, cap).items()},
    )
    i, j, ext, want = first
    roots = [e.dimvec for e in t.entries]
    message = (
        f"AR formula fails at ({roots[i]}, {roots[j]}): "
        f"ext={ext}, hom(j, tau i)={want}"
    )
    with pytest.raises(ConsistencyError, match=re.escape(message) + "$"):
        enumerate_indecomposables(BUILTIN_QUIVERS[name]())
