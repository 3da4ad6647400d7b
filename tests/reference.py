"""Constructions only the tests use: the opposite quiver, the Kronecker
quiver with honest matrices for its symbolic modules and its Euler form,
the inverse Kronecker and Dynkin translates and the Dynkin tau-orbits
they walk, the object-set side of the window masks (the window's stalk
objects, interiority, the mask of an object set), ZQ^op knitted from
the quiver alone with its hammocks (the module-free oracle of the Hom
and Ext tables, the translate and the derived AR arrows), the derived
AR arrows as stalk-object pairs and the successor cones over them, matrix
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


class Knitting:
    """The derived AR quiver ZQ^op of a Dynkin quiver over the degrees
    lo..hi, knitted from the quiver alone, with its hammocks (Happel, LMS
    Lecture Notes 119, 1988; Gabriel, LNM 831, 1980; Ringel-Vossieck,
    Proc. LMS 54, 1987).  No module and no table is built.

    Vertex (v, m) is tau^-m P_v.  Each quiver arrow v -> w gives the
    arrows (w, m) -> (v, m) and (v, m) -> (w, m + 1), and tau(v, m) is
    (v, m - 1).  The class of P_v counts the paths from v; the classes
    knit along the meshes, [Y] + [tau Y] = the sum of [Z] over Z -> Y,
    forward and backward from m = 0.  The degree of (v, m) is the number
    of sign changes of its class along its orbit from m = 0, and its
    module has the class times (-1)^degree as dimension vector.
    ``vertices`` lists every vertex of degree lo..hi in topological
    order: by m, then sinks first (`rescan_sink_ordering`)."""

    def __init__(self, quiver, lo, hi):
        order = rescan_sink_ordering(quiver)  # w before v for v -> w
        self.targets = {v: [a.target for a in quiver.arrows_from(v)] for v in order}
        self.sources = {v: [a.source for a in quiver.arrows_into(v)] for v in order}
        self.dimvec, self.degree = {}, {}
        for v in order:  # the trivial path at v, then those through v -> w
            unit = tuple(int(u == v) for u in quiver.vertices)
            self.dimvec[v, 0] = self._add(unit, [(w, 0) for w in self.targets[v]])
            self.degree[v, 0] = 0
        m = 0
        while min(self.degree[v, m] for v in order) <= hi:
            m += 1
            for v in order:
                self._knit((v, m), (v, m - 1), self.predecessors(v, m), 1)
        m = 0
        while max(self.degree[v, m] for v in order) >= lo:
            m -= 1
            for v in reversed(order):
                self._knit((v, m), (v, m + 1), self.predecessors(v, m + 1), -1)
        position = {v: k for k, v in enumerate(order)}
        self.vertices = sorted(
            (x for x, d in self.degree.items() if lo <= d <= hi),
            key=lambda x: (x[1], position[x[0]]),
        )
        self.kept = set(self.vertices)

    def _knit(self, x, neighbour, summands, step):
        """Knit ``x`` across its mesh with its orbit ``neighbour``, one step
        back (``step`` 1, knitting forward) or on (-1, backward): its class
        is the sum over ``summands`` less the neighbour's, and its degree
        moves by ``step`` where the sign changes."""
        zero = (0,) * len(self.dimvec[neighbour])
        total = self._add(zero, summands)
        self.dimvec[x] = tuple(a - b for a, b in zip(total, self.dimvec[neighbour]))
        flips = (max(self.dimvec[x]) > 0) != (max(self.dimvec[neighbour]) > 0)
        self.degree[x] = self.degree[neighbour] + step * flips

    def _add(self, vector, vertices):
        """``vector`` plus the classes of ``vertices``."""
        return tuple(map(sum, zip(vector, *(self.dimvec[z] for z in vertices))))

    def predecessors(self, v, m):
        """The vertices with an arrow to (v, m)."""
        return [(w, m) for w in self.targets[v]] + [(u, m - 1) for u in self.sources[v]]

    def arrows(self):
        """The arrows between kept vertices, as (source, target) pairs."""
        return [
            (z, y)
            for y in self.vertices
            for z in self.predecessors(*y)
            if z in self.kept
        ]

    def hammock(self, x):
        """dim Hom(x, y) for each kept vertex y from x on: h(x) = 1, then in
        topological order h(y) = max(0, the sum of h(z) over z -> y, less
        h(tau y)); 0 for the vertices missing from the dict."""
        h = {x: 1}
        for v, m in self.vertices[self.vertices.index(x) + 1:]:
            reached = sum(h.get(z, 0) for z in self.predecessors(v, m))
            h[v, m] = max(0, reached - h.get((v, m - 1), 0))
        return h

    def labels(self, table):
        """Each kept vertex as the table's stalk object: the module of its
        dimension vector (class times (-1)^degree), in its degree."""
        ids = {e.dimvec: e.id for e in table.entries}
        out = {}
        for x in self.vertices:
            d = self.degree[x]
            out[x] = DerivedObject(ids[tuple((-1) ** d * c for c in self.dimvec[x])], d)
        return out


def knitted_hom_ext(table):
    """The Hom and Ext tables of ``table``'s quiver read off the hammocks
    of the knitting over degrees 0..1: dim Hom(X, Y[d]) is h_X at the
    vertex of Y in degree d."""
    knit = Knitting(table.quiver, 0, 1)
    at = {obj: x for x, obj in knit.labels(table).items()}
    n = len(table.entries)
    hom, ext = [], []
    for i in range(n):
        h = knit.hammock(at[DerivedObject(i, 0)])
        hom.append(tuple(h.get(at[DerivedObject(j, 0)], 0) for j in range(n)))
        ext.append(tuple(h.get(at[DerivedObject(j, 1)], 0) for j in range(n)))
    return tuple(hom), tuple(ext)


def reference_arrow_pairs(table, window):
    """The derived AR arrows of ZQ^op knitted from the quiver alone
    (``Knitting``), as sorted stalk-object pairs of the window."""
    knit = Knitting(table.quiver, window.lo, window.hi)
    label = knit.labels(table)
    return sorted((label[z], label[y]) for z, y in knit.arrows())


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
    "E8": [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)],
}


@st.composite
def orientations(draw, shapes=tuple(sorted(set(SHAPES) - {"E7", "E8"}))):
    """A quiver on one of the named ``SHAPES``, each edge oriented at
    random; E7 and E8, whose 63 and 120 modules make a table test take
    seconds, only when asked for by name."""
    name = draw(st.sampled_from(shapes))
    edges = [(t, s) if draw(st.booleans()) else (s, t) for s, t in SHAPES[name]]
    return quiver_from_edges(name, edges)
