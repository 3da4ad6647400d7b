"""Constructions only the tests use: the opposite quiver, the Kronecker
quiver with honest matrices for its symbolic modules and its Euler form,
the inverse Kronecker and Dynkin translates and the Dynkin tau-orbits
they walk, the object-set side of the window masks (the window's stalk
objects, interiority, the mask of an object set), the derived AR arrows
as stalk-object pairs and the successor cones over them, matrix
stacking, the set-based transport maps the mask maps are checked
against, the rank mod 2 of sparse integer rows the parity masks are
checked against, and the random ADE orientations of the Hypothesis
tests, and the rescanning sink ordering the heap one is checked
against."""

from collections import deque

from hypothesis import strategies as st

from aisles.derived import (
    DerivedObject,
    TableContext,
    Window,
    ar_adjacency,
    bits,
    hom_masks,
    tau_derived,
)
from aisles.errors import TruncationError
from aisles.kronecker import POST, PRE, TameModel, post, pre
from aisles.linalg import Mat
from aisles.quiver import Arrow, Quiver, quiver_from_edges
from aisles.repcore import Representation


def opposite(quiver):
    return Quiver(
        quiver.vertices,
        tuple(Arrow(a.name, a.target, a.source) for a in quiver.arrows),
        f"{quiver.name}^op" if quiver.name else "",
        _checked=True,
    )


def rescan_sink_ordering(quiver):
    """`Quiver.sink_ordering` by a rescan of the vertex list at every step
    for the first vertex whose arrows all end at vertices already taken:
    quadratic, and stopping where no such vertex is left."""
    outdeg = {v: len(quiver.arrows_from(v)) for v in quiver.vertices}
    order = []
    remaining = list(quiver.vertices)
    while True:
        v = next((w for w in remaining if outdeg[w] == 0), None)
        if v is None:
            return order
        order.append(v)
        remaining.remove(v)
        for a in quiver.arrows_into(v):
            outdeg[a.source] -= 1


def kronecker_quiver():
    return Quiver(
        ("1", "2"),
        (Arrow("a", "1", "2"), Arrow("b", "1", "2")),
        name="kronecker",
    )


def default_model():
    """The Kronecker model `aisles verify --builtin kronecker` builds
    with no options: three tubes of depth 3, transjective range 6, and
    the window -2..3."""
    return TameModel(("t0", "t1", "t2"), 3, 6, Window(-2, 3))


def euler_form_kronecker(d, e):
    return d[0] * e[0] + d[1] * e[1] - 2 * d[0] * e[1]


def _mat(nrows, ncols, entry):
    rows = [[entry(r, c) for c in range(ncols)] for r in range(nrows)]
    return Mat(rows, nrows, ncols)


def explicit_representation(X, lam_values):
    """Honest matrix representation of a degree-0 symbolic object, used
    to oracle-check the rule table.  ``lam_values`` maps tube labels to
    distinct scalars."""
    m = X.index
    if X.kind == POST:
        # (m, m+1): a = identity on top, b = identity on bottom
        a = _mat(m + 1, m, lambda r, c: int(r == c))
        b = _mat(m + 1, m, lambda r, c: int(r == c + 1))
    elif X.kind == PRE:
        a = _mat(m, m + 1, lambda r, c: int(r == c))
        b = _mat(m, m + 1, lambda r, c: int(r + 1 == c))
    else:
        lam = lam_values[X.label]
        a = _mat(m, m, lambda r, c: int(r == c))
        b = _mat(m, m, lambda r, c: lam if r == c else int(c == r + 1))
    d1, d2 = X.dimvec()
    return Representation(kronecker_quiver(), {"1": d1, "2": d2}, {"a": a, "b": b})


def tau_inverse_rule(X, model):
    """Derived inverse AR translate of a symbolic Kronecker object;
    preinjectives wrap to postprojectives one degree up.  Overflow past
    the transjective truncation is an error."""
    if X.kind == PRE:
        if X.index >= 2:
            return pre(X.index - 2, X.degree)
        return post(1 - X.index, X.degree + 1)
    if X.kind == POST:
        if X.index + 2 > model.range:
            raise TruncationError(
                f"inverse tau of {X.name()} exceeds the transjective range"
            )
        return post(X.index + 2, X.degree)
    return X


def all_objects(table, window):
    """The window's stalk objects in window order: degree, then module."""
    return [
        DerivedObject(i, d)
        for d in window.degrees()
        for i in range(len(table.entries))
    ]


def is_interior(window, obj):
    return window.lo < obj.degree < window.hi


def window_mask(masks, objects):
    """The window mask of ``objects`` in the ``HomMasks`` ``masks``."""
    out = 0
    for x in objects:
        out |= 1 << masks.index[x]
    return out


def arrow_pairs(table, window):
    """The derived AR arrows read off the successor rows
    (``derived.ar_adjacency``), as sorted stalk-object pairs."""
    objects = hom_masks(TableContext(table), window).objects
    return sorted(
        (objects[k], objects[m])
        for k, row in enumerate(ar_adjacency(table, window))
        for m in bits(row)
    )


def reference_arrow_pairs(table, window):
    """The derived AR arrows of ZQ^op built by hand, as sorted stalk-object
    pairs: the module AR arrows in every degree, and I_w[d] -> P_v[d+1]
    for each quiver arrow w -> v below the top degree."""
    injective, projective = table.injective_by_vertex, table.projective_by_vertex
    gluing = [
        (injective(a.source).id, projective(a.target).id)
        for a in table.quiver.arrows
    ]
    module = table.ar_arrows
    pairs = []
    for d in window.degrees():
        pairs += [(DerivedObject(s, d), DerivedObject(t, d)) for s, t in module]
        if d < window.hi:
            pairs += [(DerivedObject(i, d), DerivedObject(j, d + 1)) for i, j in gluing]
    return sorted(pairs)


def tau_inverse_derived(X, table):
    """The inverse of ``derived.tau_derived``: module inverse tau where
    defined, injectives wrap to the matching projective one degree up."""
    e = table.entries[X.indec]
    if e.tau_inverse is not None:
        return DerivedObject(e.tau_inverse, X.degree)
    proj = table.projective_by_vertex(e.inj_vertex)
    return DerivedObject(proj.id, X.degree + 1)


def tau_orbits(table, window):
    """Partition of the windowed objects into tau-orbit lines, walked by
    the translate and its inverse from each object; built once per table
    and window."""
    key = ("reference_tau_orbits", window)
    if key not in table.memo:
        seen = set()
        orbits = table.memo[key] = []
        for x in sorted(all_objects(table, window)):
            if x in seen:
                continue
            orbit = {x}
            for step in (tau_derived, tau_inverse_derived):
                cur = step(x, table)
                while window.contains(cur) and cur not in orbit:
                    orbit.add(cur)
                    cur = step(cur, table)
            seen |= orbit
            orbits.append(frozenset(orbit))
    return table.memo[key]


def reference_cone(arrows, sources):
    """Breadth-first successor cone over derived AR arrow pairs."""
    out = {}
    for x, y in arrows:
        out.setdefault(x, []).append(y)
    seen, todo = set(sources), deque(sources)
    while todo:
        for y in out.get(todo.popleft(), ()):
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def hstack(mats):
    mats = list(mats)
    if not mats:
        raise ValueError("hstack of nothing")
    nrows = mats[0].nrows
    if any(m.nrows != nrows for m in mats):
        raise ValueError("hstack row mismatch")
    rows = [sum((m.rows[i] for m in mats), []) for i in range(nrows)]
    return Mat(rows, nrows, sum(m.ncols for m in mats))


def vstack(mats):
    mats = list(mats)
    if not mats:
        raise ValueError("vstack of nothing")
    ncols = mats[0].ncols
    if any(m.ncols != ncols for m in mats):
        raise ValueError("vstack column mismatch")
    rows = [row for m in mats for row in m.rows]
    return Mat(rows, sum(m.nrows for m in mats), ncols)


def odd_masks(rows):
    """Each sparse integer row as the int bitmask of its odd entries."""
    out = []
    for row in rows:
        m = 0
        for k, x in row.items():
            if x & 1:
                m |= 1 << k
        out.append(m)
    return out


def rank_mod2_rows(rows):
    """Rank over GF(2) of sparse integer rows, each held as an int
    bitmask of its odd entries: the form `linalg.rank_mod2` had before it
    took the masks, run here on the dict rows of `repcore.hom_system`."""
    by_top = {}
    for row in rows:
        m = 0
        for k, x in row.items():
            if x & 1:
                m |= 1 << k
        while m:
            top = m.bit_length() - 1
            b = by_top.get(top)
            if b is None:
                by_top[top] = m
                break
            m ^= b
    return len(by_top)


def chi_reference(torsion, free, gen, cogen):
    """The transport map chi on sets: a base torsion pair of module
    objects to a heart pair of (object, degree) tuples, for the heart
    with degree-0 layer ``gen`` = T(T) and degree-1 layer ``cogen`` =
    F(T).  The degree-0 part that survives in the heart stays on its
    side; the whole degree-1 layer is torsion."""
    heart_torsion = {(x, 0) for x in torsion if x in gen} | {
        (y, 1) for y in cogen
    }
    heart_free = {(x, 0) for x in free if x in gen}
    return frozenset(heart_torsion), frozenset(heart_free)


def zeta_reference(heart_torsion, context):
    """The transport map zeta on sets: the degree-0 part of the heart's
    torsion side, with its right orthogonal in the module category."""
    torsion = {x for (x, d) in heart_torsion if d == 0}
    free = {
        y
        for y in context.objects()
        if all(context.hom(t, y) == 0 for t in torsion)
    }
    return frozenset(torsion), frozenset(free)


# The ADE graphs of the orientation fuzz: edges (s, t), each flipped or not.
# E7 is the graph the `table-e7` benchmark orients at random.
SHAPES = {
    **{f"A{n}": [(k, k + 1) for k in range(1, n)] for n in range(2, 7)},
    **{
        f"D{n}": [(k, k + 1) for k in range(1, n - 1)] + [(n - 2, n)]
        for n in range(4, 7)
    },
    "E6": [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)],
    "E7": [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)],
}


@st.composite
def orientations(draw, shapes=tuple(sorted(set(SHAPES) - {"E7"}))):
    """A quiver on one of the named ``SHAPES``, each edge oriented at
    random; E7, whose 63 modules make a table test take seconds, only
    when asked for by name."""
    name = draw(st.sampled_from(shapes))
    edges = [(t, s) if draw(st.booleans()) else (s, t) for s, t in SHAPES[name]]
    return quiver_from_edges(name, edges)
