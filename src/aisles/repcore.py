"""Quiver representations over the rationals and the indecomposable table.

The indecomposables of a Dynkin quiver are the tau^- orbits of its
projectives: from each P_v, built by hand, the Coxeter functor C^- (the
reflection functors at the sources of an admissible ordering) is applied
until it gives zero.  The walk is capped at the number of positive roots,
must bring the quiver back to itself after each C^-, and must meet that
many distinct dimension vectors; identity of isomorphism classes is by
dimension vector.  Its plan, the quivers C^- passes through and the
arrows at each reflected vertex, is built once per walk and kept on the
quivers (`Quiver.reversed_at`, `Quiver.arrows_into`).  The table then
records all Hom/Ext dimensions and the AR translate, cross-validated
against independent computations: End = k, Ext from the Euler form,
never nonzero beside a nonzero Hom (Dynkin modules are directing), the
AR formula ext(X, Y) = hom(Y, tau X) against the walk's tau, and the top
of each projective against the vertex its orbit started from.
Validation failures abort.

Hom(M, N) is the kernel of Ringel's map delta (`hom_system`) and Ext^1
its cokernel.  One rule (`_solve_hom`) proves a Hom dimension from the
parities of delta alone (`hom_parities`, bitmasks): the rank mod 2
bounds the rank over the rationals from below, and the size of delta
from above, so when it reaches min(rows, columns) it is the rank; a
pair whose rank mod 2 falls short is eliminated exactly.  Dynkin
modules are directing, so Hom and Ext^1 between two indecomposables
are never both nonzero and delta always has that full rank: the table
build proves every pair this way.  The parities of each module's maps
are read once, on first use, and kept on it (``parity_layout``), so a
pair only places them: the modules of a table, the canonical-sequence
oracle's subobjects and quotients, and any other module alike.

The Hom bases (``IndecTable.hom_vectors``) and the AR arrows are solved
on first read: each nonzero pair eliminated once, its basis held to the
dimension the build certified.  The AR arrows are read off rad/rad^2 and
proved, with the gluing arrows of the derived AR quiver ZQ^op
(``gluing_pairs``), by the derived mesh rule stated on modules.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, repeat
from math import lcm
from operator import mul, sub
from typing import NamedTuple

from .errors import ConsistencyError, ShapeError, UnsupportedError
from .linalg import (
    Mat,
    echelon_add,
    eliminate,
    kernel,
    kernel_ints,
    rank_mod2,
    scaled_to_ints,
    sparse_row,
    unit_last,
)
from .quiver import breadth_first


class Representation:
    """Vector spaces at vertices and matrices along arrows.

    ``maps[a]`` has shape dims(target a) x dims(source a).  `int_maps`
    holds the same maps scaled by one integer, the form the Hom system
    is built from, and ``parity_layout`` their parities, the form
    `hom_parities` places; both are read on first use and kept.
    Unhashable: it holds dicts.
    """

    __hash__ = None

    def __init__(self, quiver, dims, maps):
        self.quiver = quiver
        self.dims = dims
        self.maps = maps
        for v in quiver.vertices:
            if dims.get(v, 0) < 0:
                raise ShapeError(f"negative dimension at vertex {v!r}")
        for a in quiver.arrows:
            m = maps[a.name]
            want = (dims.get(a.target, 0), dims.get(a.source, 0))
            if (m.nrows, m.ncols) != want:
                raise ShapeError(
                    f"map for arrow {a.name!r} has shape "
                    f"{(m.nrows, m.ncols)}, expected {want}"
                )

    def dim(self, v):
        return self.dims.get(v, 0)

    def total_dim(self):
        return sum(self.dim(v) for v in self.quiver.vertices)

    def dimension_vector(self):
        return tuple(map(self.dims.get, self.quiver.vertices, repeat(0)))

    def is_zero(self):
        return self.total_dim() == 0

    @cached_property
    def int_maps(self):
        """(D, {arrow name: (rows, columns)}), where D is the lcm of the
        denominators of every arrow map and rows[r] (columns[c]) lists
        the (index, entry) pairs of the nonzero entries in row r (column
        c) of D times the map: integers.  D is 1 when every entry is
        integral, as on every builtin table.  Read from ``maps`` alone, on
        first use, and kept on the instance."""
        den = lcm(
            *[x.denominator for m in self.maps.values() for r in m.rows for x in r]
        )
        out = {}
        for name, m in self.maps.items():
            rows = [[(k, int(x * den)) for k, x in enumerate(r) if x] for r in m.rows]
            columns = [[] for _ in range(m.ncols)]
            for i, row in enumerate(rows):
                for k, x in row:
                    columns[k].append((i, x))
            out[name] = (rows, columns)
        return den, out

    @cached_property
    def parity_layout(self):
        """The `ParityLayout` of `int_maps`, read on first use and kept."""
        den, maps = self.int_maps
        dims = self.dimension_vector()
        Q = self.quiver
        columns, spreads = [], []
        for k, (a, (u, w)) in enumerate(zip(Q.arrows, Q.arrow_ends)):
            a_rows, a_columns = maps[a.name]
            spreads.append(_Spreads([[i for i, x in row if x & 1] for row in a_rows]))
            if dims[u]:
                parts = [sum(1 << i for i, x in c if x & 1) for c in a_columns]
                columns.append((k, u, w, parts))
        return ParityLayout(dims, den & 1 == 1, columns, spreads)


# ---------------------------------------------------------------------------
# Hom spaces
# ---------------------------------------------------------------------------


def _one_quiver(M, N):
    if M.quiver is not N.quiver and M.quiver != N.quiver:
        raise ShapeError(
            "the Hom system delta needs representations over one quiver"
        )


def _coordinates(M, N):
    """The first column of each vertex's block in the Hom system, and
    the number of columns: f_v is N_v x M_v, vertex by vertex."""
    _one_quiver(M, N)
    mdim, ndim = M.dims.get, N.dims.get
    offsets = {}
    total = 0
    for v in M.quiver.vertices:
        offsets[v] = total
        total += ndim(v, 0) * mdim(v, 0)
    return offsets, total


def hom_system(M, N):
    """The map

        delta: (+)_v Hom_k(M_v, N_v) -> (+)_{a: u->w} Hom_k(M_u, N_w),
        delta(f)_a = N_a f_u - f_w M_a,

    scaled to integers, as (rows, number of columns).

    Hom(M, N) is its kernel and, the path algebra being hereditary,
    Ext^1(M, N) its cokernel.  Columns are the coordinates (v, i, j),
    vertex by vertex and row-major within f_v, the order ``unflatten``
    reads; rows are (a, r, c), the same order for an arrow family
    {a: Mat(N_w x M_u)}.  Each row is a sparse integer row (see
    `linalg`): with D_M, D_N the scales of `Representation.int_maps`,
    row (a, r, c) is D_M (D_N N_a) on the u-coordinates minus
    D_N (D_M M_a) on the w-coordinates, that is, D_M D_N delta.  A
    nonzero scale changes neither the kernel, nor the image, nor the
    reduced row echelon form.
    """
    offsets, total = _coordinates(M, N)
    mdim, ndim = M.dims.get, N.dims.get
    dm, m_maps = M.int_maps
    dn, n_maps = N.int_maps
    rows = []
    for a in M.quiver.arrows:
        u, w = a.source, a.target
        n_rows = n_maps[a.name][0]
        m_columns = m_maps[a.name][1]
        ou, ow = offsets[u], offsets[w]
        mu, mw = mdim(u, 0), mdim(w, 0)
        # the quiver has no loops, so u != w and the two parts of a row
        # use disjoint coordinates
        for r in range(ndim(w, 0)):
            nr = n_rows[r]
            base = ow + r * mw
            for c in range(mu):
                row = {ou + k * mu + c: dm * x for k, x in nr}  # (u, k, c)
                for k, x in m_columns[c]:  # the (w, r, k) coordinates
                    row[base + k] = -dn * x
                rows.append(row)
    return rows, total


def hom_parities(M, N):
    """The rows of `hom_system` mod 2, as (int bitmasks, number of
    columns) for `linalg.rank_mod2`: bit k of row (a, r, c) is set when
    its entry in column k is odd.  Placed from the `ParityLayout` of
    each module (``Representation.parity_layout``, read once per module)
    without forming the rows: the odd entries of row r of D_N N_a,
    spread at stride m_u, fill the u-part from column off_u + c; those
    of column c of D_M M_a fill the w-part from column off_w + r m_w.
    Each part is scaled by the other module's D, so it is even
    throughout when that D is."""
    if M.quiver is not N.quiver:
        _one_quiver(M, N)
    mdims, m_odd, m_columns, _ = M.parity_layout
    ndims, n_odd, _, spreads = N.parity_layout
    if not m_odd:  # an even D_M makes N's part of every row even
        spreads = [_Spreads([()] * len(rows.odd_columns)) for rows in spreads]
    if not n_odd:  # and an even D_N makes M's part even
        m_columns = [(k, u, w, [0] * len(parts)) for k, u, w, parts in m_columns]
    offsets = [0, *accumulate(map(mul, ndims, mdims))]
    masks = []
    for k, u, w, m_parts in m_columns:
        if not ndims[w]:
            continue
        mu = mdims[u]
        rows = spreads[k][mu]
        ou, base = offsets[u], offsets[w]
        mw = mdims[w]
        if mu == 1:  # one column: one mask per row
            m_part = m_parts[0] << base
            for spread in rows:
                masks.append(spread << ou | m_part)
                m_part <<= mw
            continue
        for spread in rows:
            part = spread << ou
            for m_part in m_parts:
                masks.append(part | m_part << base)
                part <<= 1
            base += mw
    return masks, offsets[-1]


class ParityLayout(NamedTuple):
    """The parities of one module's `Representation.int_maps`, as
    `hom_parities` places them.

    ``dims`` is the dimension vector, and ``odd`` whether the scale D is
    odd: an even D makes the partner's part of every row even.
    ``columns`` lists, per arrow u -> w with a nonzero dimension at u,
    (arrow index, indices of u and w, the bitmask of the odd rows of
    each column).  ``spreads[k][s]`` lists, per row of the map of arrow
    k, the bits i s over its odd columns i: the rows spread at stride s,
    made the first time a partner asks for them."""

    dims: tuple
    odd: bool
    columns: list
    spreads: list


class _Spreads(dict):
    """stride s -> the rows of one arrow's map, each as the bits i s
    over its odd columns i; each stride is made on its first lookup."""

    def __init__(self, odd_columns):
        super().__init__()
        self.odd_columns = odd_columns

    def __missing__(self, s):
        spread = self[s] = [
            sum([1 << i * s for i in odd]) for odd in self.odd_columns
        ]
        return spread


def _solve_hom(M, N, parities=True):
    """(dim Hom(M, N), kernel basis or None): the one proof of a Hom
    dimension.  The rank mod 2 of delta (`linalg.rank_mod2` on
    `hom_parities`) bounds its rank over the rationals from below, and
    min(rows, columns) bounds it from above, so when it reaches that
    bound it is the rank: the dimension is the columns less it, no row
    of delta is formed, and the basis is None.  Otherwise, or without
    ``parities``, delta is eliminated, and the basis is its kernel as
    coprime integer vectors (`linalg.kernel_ints`)."""
    if parities:
        masks, ncols = hom_parities(M, N)
        rank = rank_mod2(masks)
        if rank == min(len(masks), ncols):
            return ncols - rank, None
    rows, ncols = hom_system(M, N)
    basis = kernel_ints(*eliminate(rows), ncols)
    return len(basis), basis


def hom_kernel(M, N):
    """Hom(M, N) as coprime integer vectors in the coordinates of
    `hom_system`, for `hom_space`; the table build certifies its
    dimensions on its own and solves its bases on first read.

    The Euler form (`euler_form`, on the dimension vectors the parity
    layouts keep) routes: dim Hom - dim Ext^1 = <dim M, dim N> is the
    number of columns of delta minus its number of rows.  When it is
    positive, Hom is nonzero and delta is eliminated without trying the
    parities.  Otherwise the rows are at least the columns, so a rank
    mod 2 that proves anything (`_solve_hom`) proves Hom zero.
    """
    _one_quiver(M, N)
    euler = euler_form(M.quiver, M.parity_layout.dims, N.parity_layout.dims)
    _dim, basis = _solve_hom(M, N, parities=euler <= 0)
    return basis or []


def hom_space(M, N):
    """Dimension and basis of Hom(M, N).

    A morphism is a family of matrices f_v with N_a f_{s(a)} = f_{t(a)} M_a
    for every arrow a; the basis elements are dicts vertex -> Mat.  The
    basis is the `hom_kernel` basis, each vector divided by its last
    nonzero entry: the nullspace of the system over the rationals, with
    `Mat` entries in normal form (an int when integral, which every
    basis of a Dynkin table is).
    """
    basis = _families(hom_kernel(M, N), M, N)
    return len(basis), basis


def _families(vectors, M, N):
    """The morphisms M -> N with the given `hom_kernel` vectors, each
    divided by its last nonzero entry (`linalg.unit_last`, in normal
    form), as dicts vertex -> Mat."""
    shapes = [(v, N.dim(v), M.dim(v)) for v in M.quiver.vertices]
    return [unflatten(unit_last(vec), shapes) for vec in vectors]


# Not used in this package since `irreducible_dim` composes on ints: the
# tests compose with it, and `perfbench` counts its calls.
def compose_morphisms(g, f, quiver):
    """Vertex-wise composite g o f of two morphism families."""
    return {v: g[v] * f[v] for v in quiver.vertices}


def unflatten(values, shapes):
    """The family {key: Mat} whose flatten is ``values``; ``shapes`` lists
    (key, nrows, ncols) in flatten order."""
    out = {}
    k = 0
    for key, nrows, ncols in shapes:
        out[key] = Mat(
            [values[k + r * ncols : k + (r + 1) * ncols] for r in range(nrows)],
            nrows,
            ncols,
        )
        k += nrows * ncols
    return out


# ---------------------------------------------------------------------------
# Euler form
# ---------------------------------------------------------------------------


def euler_form(quiver, d, e):
    """The homological bilinear form dim Hom - dim Ext^1 on dimension
    vectors (for any hereditary path algebra, not only Dynkin)."""
    if len(d) != len(quiver.vertices) or len(e) != len(quiver.vertices):
        raise ShapeError("dimension vector length mismatch")
    return sum(map(mul, _pushed(quiver, d), e))


def _pushed(quiver, d):
    """The vector p with <d, e> = p . e for every e: d_w minus d_u over
    the arrows u -> w."""
    p = list(d)
    for u, w in quiver.arrow_ends:
        p[w] -= d[u]
    return p


# ---------------------------------------------------------------------------
# Reflection functors
# ---------------------------------------------------------------------------


def reflect(R, v):
    """BGP reflection of ``R`` at a sink (positive) or source (negative)
    vertex ``v``; the result lives over the quiver with arrows at v
    reversed.

    At a sink, R_v becomes the kernel of the map (R_a) from the sum of
    the R_{s(a)} over the arrows a into v.  At a source, it becomes the
    cokernel of the map (R_a) into the sum of the R_{t(a)}, read as its
    left kernel: the kernel of the transposed maps.  Each arrow at v gets
    its block of the kernel basis."""
    Q = R.quiver
    sink = Q.is_sink(v)
    if not (sink or Q.is_source(v)):
        raise UnsupportedError(f"vertex {v!r} is neither a sink nor a source")
    arrows = Q.arrows_into(v) if sink else Q.arrows_from(v)
    blocks = [R.maps[a.name] if sink else R.maps[a.name].transpose() for a in arrows]
    rows = [
        sparse_row(scaled_to_ints([x for m in blocks for x in m.rows[r]]))
        for r in range(R.dim(v))
    ]
    sizes = [m.ncols for m in blocks]
    basis = kernel(*eliminate(rows), sum(sizes))
    maps = {a.name: R.maps[a.name] for a in Q.arrows if v not in (a.source, a.target)}
    offset = 0
    for a, d in zip(arrows, sizes):
        block = Mat([b[offset : offset + d] for b in basis], len(basis), d)
        maps[a.name] = block.transpose() if sink else block
        offset += d
    return Representation(Q.reversed_at(v), {**R.dims, v: len(basis)}, maps)


def projective(quiver, v):
    """P_v: k at every vertex a path from ``v`` reaches, and the identity
    along the arrows between them.  A Dynkin graph is a tree, so no
    vertex is reached by two paths."""
    succ = {w: [a.target for a in quiver.arrows_from(w)] for w in quiver.vertices}
    reached = set(breadth_first(succ, [v], {}))
    dims = {w: int(w in reached) for w in quiver.vertices}
    maps = {
        a.name: Mat.zeros(dims[a.target], dims[a.source])
        if a.source not in reached
        else Mat([[1]])
        for a in quiver.arrows
    }
    return Representation(quiver, dims, maps)


def tau_minus_orbits(quiver, cap):
    """{v: [P_v, tau^- P_v, tau^- tau^- P_v, ...]} up to the last nonzero
    term, for every vertex v in quiver order.

    tau^- is the Coxeter functor C^-: `reflect` at the vertices of
    ``quiver.sink_ordering()`` in reverse order, each a source when its
    turn comes.  C^- must bring the quiver back to itself, and the walk
    raises ConsistencyError once it has met more than ``cap``
    representations, so no input can make it loop.  Each C^- starts
    from ``quiver`` itself, so the quivers it passes through and their
    arrows at each vertex, kept by `Quiver.reversed_at` and
    `Quiver.arrows_into`, are found in the first round and read in every
    later one.
    """
    order = quiver.sink_ordering()[::-1]
    orbits = {}
    met = 0
    for v in quiver.vertices:
        orbit = orbits[v] = []
        rep = projective(quiver, v)
        while not rep.is_zero():
            met += 1
            if met > cap:
                raise ConsistencyError(
                    f"the tau^- orbits of the projectives exceed {cap} modules"
                )
            orbit.append(rep)
            for w in order:
                rep = reflect(rep, w)
            if rep.quiver != quiver:
                raise ConsistencyError(
                    f"C^- took {orbit[-1].dimension_vector()} off the quiver"
                )
            # moved onto the one quiver object, equal to its own, so that
            # comparing the quivers of two modules of the table is an
            # identity check; its maps were validated as `reflect` built it
            rep.quiver = quiver
    return orbits


# ---------------------------------------------------------------------------
# The indecomposable table
# ---------------------------------------------------------------------------


class IndecEntry(NamedTuple):
    id: int
    dimvec: tuple
    rep: Representation
    is_projective: bool
    is_injective: bool
    tau: int | None
    tau_inverse: int | None
    proj_vertex: str | None  # v with this entry iso to P_v
    inj_vertex: str | None


class _Solved:
    """What a table shares with its `IndecTable.copy` copies: the Hom
    dimensions its build certified (``hom``, which no patch of the
    table's own ``hom`` field reaches), the kernels its build eliminated
    ((i, j) -> basis), and the Hom kernels and AR arrows, None until
    first read."""

    __slots__ = ("hom", "kernels", "vectors", "arrows")

    def __init__(self, hom, kernels):
        self.hom = hom
        self.kernels = kernels
        self.vectors = self.arrows = None


class IndecTable:
    """Complete list of indecomposables of a Dynkin quiver with Hom/Ext
    tables, tau links and the AR quiver.  Immutable after construction,
    and unhashable: it holds dicts.

    ``hom`` and ``ext`` are filled by the build; ``hom_vectors`` and
    ``ar_arrows`` are solved on first read and shared with every `copy`.
    ``hom_vectors[i][j]`` holds the Hom(i, j) basis as `hom_kernel`
    returns it: coprime integer vectors, flattened vertex by vertex and
    row-major.  ``hom_bases`` is the same basis as morphism families of
    `Mat`s, each vector divided by its last nonzero entry, formed for the
    whole table on first read; their entries are ints on every Dynkin
    table (`Mat`'s normal form).
    ``ar_arrows`` lists the AR arrows as (source id, target id) pairs in
    ascending order, proved with ``gluing_pairs`` by the derived mesh rule
    when first read (`_ar_arrows`)."""

    __hash__ = None

    def __init__(self, quiver, entries, hom, ext, solved):
        self.quiver = quiver
        self.entries = entries
        self.hom = hom  # hom[i][j] = dim Hom(i, j)
        self.ext = ext
        self.solved = solved
        # Results derived from this table alone, computed on first use
        # and keyed by value: the module relation (Hom and Ext bitmasks),
        # the torsion pairs the CLI suites share, the canonical-sequence
        # oracle's entries (the pairs whose axioms hold, per module the
        # reduced image of each Hom(i, y) and which images lie inside
        # which, the traces keyed by members and by reduced rows, and the
        # certificates keyed by subobject or quotient), the validated
        # gluing pairs, and per window the derived AR successor rows and
        # the Hom masks (which hold the tau-orbit ends).  A `copy` starts
        # empty, and without ``hom_bases``, so a patched table is
        # re-validated.
        self.memo = {}

    def copy(self, hom=None):
        """This table with ``hom`` in place of its own, when given.  The
        copy shares ``solved``, which reads no patchable field, and starts
        with an empty ``memo`` and no ``hom_bases``."""
        hom = self.hom if hom is None else hom
        return IndecTable(self.quiver, self.entries, hom, self.ext, self.solved)

    @property
    def hom_vectors(self):
        solved = self.solved
        if solved.vectors is None:
            solved.vectors = _hom_vectors(self.entries, solved)
        return solved.vectors

    @property
    def ar_arrows(self):
        solved = self.solved
        if solved.arrows is None:
            solved.arrows = _ar_arrows(self)
        return solved.arrows

    @cached_property
    def hom_bases(self):
        """bases[i][j]: the Hom(i, j) basis as dicts vertex -> Mat, each
        ``hom_vectors`` vector divided by its last nonzero entry, as
        `hom_space` returns it.  The entries are in `Mat`'s normal form:
        the last nonzero entry divides every coprime kernel vector of a
        Dynkin table, so each entry is an int and the Yoneda products
        and the oracle's reductions on them are integer arithmetic."""
        reps = [e.rep for e in self.entries]
        return tuple(
            tuple(
                tuple(_families(vectors, M, N))
                for N, vectors in zip(reps, row)
            )
            for M, row in zip(reps, self.hom_vectors)
        )

    def __len__(self):
        return len(self.entries)

    def by_dimvec(self, d):
        for e in self.entries:
            if e.dimvec == tuple(d):
                return e
        raise KeyError(f"no indecomposable with dimension vector {d}")

    def projective_by_vertex(self, v):
        return next(e for e in self.entries if e.proj_vertex == v)

    def injective_by_vertex(self, v):
        return next(e for e in self.entries if e.inj_vertex == v)


def enumerate_indecomposables(quiver):
    """Construct the full IndecTable of a Dynkin quiver from the tau^-
    orbits of its projectives.

    Raises UnsupportedError for non-Dynkin input and ConsistencyError if
    any of the cross-checks (entry count, Euler/AR identities, the
    projective starting each orbit) fails.  Reading ``hom_vectors`` or
    ``ar_arrows`` later raises it when a basis misses its certified
    dimension or the derived mesh rule fails.

    Each module's ``parity_layout`` is read once, on its first pair, and
    `hom_parities` places two of them per pair.  Ext is formed, and the
    directing and AR-formula checks compare, a whole row at a time; a
    failing row is searched for the first pair at fault.
    """
    expected = quiver.positive_root_count()  # raises UnsupportedError
    orbits = tau_minus_orbits(quiver, expected)
    roots = sorted(
        {rep.dimension_vector() for orbit in orbits.values() for rep in orbit},
        key=lambda d: (sum(d), d),
    )
    # with at most `expected` modules walked, this count makes the
    # dimension vectors distinct; with hom[i][i] = 1 below they are the
    # positive roots (Gabriel)
    if len(roots) != expected:
        raise ConsistencyError(
            f"the tau^- orbits hold {len(roots)} dimension vectors, "
            f"expected {expected}"
        )
    by_dimvec = {d: i for i, d in enumerate(roots)}
    n = expected
    reps = [None] * n
    tau_link = [None] * n
    tau_inv = [None] * n
    for orbit in orbits.values():
        ids = [by_dimvec[rep.dimension_vector()] for rep in orbit]
        for i, rep in zip(ids, orbit):
            reps[i] = rep
        for i, j in zip(ids, ids[1:]):
            tau_inv[i] = j
            tau_link[j] = i

    # dim Hom, proved by `_solve_hom`; a pair its parities do not prove
    # is eliminated there, and its kernel kept for `hom_vectors`
    hom = []
    kernels = {}
    for i, M in enumerate(reps):
        row = []
        for j, N in enumerate(reps):
            dim, basis = _solve_hom(M, N)
            if basis is not None:
                kernels[i, j] = basis
            row.append(dim)
        hom.append(tuple(row))
    hom = tuple(hom)
    for i in range(n):
        if hom[i][i] != 1:
            raise ConsistencyError(
                f"endomorphism ring of {roots[i]} has dimension {hom[i][i]}"
            )

    # ext = hom - <i, j>, the Euler form read off one pushed vector p per
    # root: row i of hom less p_k times coordinate k of every root, for
    # each vertex k, a whole row at a time
    coordinates = list(zip(*roots))
    ext = []
    for hom_row, d in zip(hom, roots):
        row = list(hom_row)
        for p, coordinate in zip(_pushed(quiver, d), coordinates):
            if p:
                row = list(map(sub, row, map(mul, repeat(p), coordinate)))
        ext.append(row)
    # Dynkin modules are directing: Hom and Ext between indecomposables
    # are never both nonzero, so the rank of delta is never short.  Each
    # row is checked whole; a failing one is searched for its first j.
    for i, (hom_row, ext_row) in enumerate(zip(hom, ext)):
        if any(map(mul, hom_row, ext_row)):
            j = next(j for j in range(n) if hom_row[j] and ext_row[j])
            raise ConsistencyError(
                f"Hom and Ext from {roots[i]} to {roots[j]} are both "
                "nonzero: the modules are not directing"
            )

    # AR formula validation: ext(i, j) = hom(j, tau i) for non-projective i,
    # ext(i, j) = 0 for projective i; row i of ext against the hom column
    # at tau i, whole, and a failing row searched for its first j
    columns = list(zip(*hom))
    zeros = [0] * n
    for i, ext_row in enumerate(ext):
        want = zeros if tau_link[i] is None else list(columns[tau_link[i]])
        if ext_row != want:
            j = next(j for j in range(n) if ext_row[j] != want[j])
            raise ConsistencyError(
                f"AR formula fails at ({roots[i]}, {roots[j]}): "
                f"ext={ext_row[j]}, hom(j, tau i)={want[j]}"
            )

    # identify P_v / I_v via Hom against simples
    simple_id = {}
    for k, v in enumerate(quiver.vertices):
        d = tuple(1 if j == k else 0 for j in range(len(quiver.vertices)))
        simple_id[v] = by_dimvec[d]
    proj_vertex = [None] * n
    inj_vertex = [None] * n
    for i in range(n):
        if tau_link[i] is None:
            vs = [v for v in quiver.vertices if hom[i][simple_id[v]] != 0]
            if len(vs) != 1:
                raise ConsistencyError("projective has no unique top")
            proj_vertex[i] = vs[0]
        if tau_inv[i] is None:
            vs = [v for v in quiver.vertices if hom[simple_id[v]][i] != 0]
            if len(vs) != 1:
                raise ConsistencyError("injective has no unique socle")
            inj_vertex[i] = vs[0]
    for v, orbit in orbits.items():
        if proj_vertex[by_dimvec[orbit[0].dimension_vector()]] != v:
            raise ConsistencyError(
                f"the walk from P_{v} starts at a module with another top"
            )

    entries = tuple(
        IndecEntry(
            id=i,
            dimvec=roots[i],
            rep=reps[i],
            is_projective=tau_link[i] is None,
            is_injective=tau_inv[i] is None,
            tau=tau_link[i],
            tau_inverse=tau_inv[i],
            proj_vertex=proj_vertex[i],
            inj_vertex=inj_vertex[i],
        )
        for i in range(n)
    )

    return IndecTable(
        quiver=quiver,
        entries=entries,
        hom=hom,
        ext=tuple(tuple(r) for r in ext),
        solved=_Solved(hom, kernels),
    )


def _hom_vectors(entries, solved):
    """``hom_vectors``: the kernel of each pair the build certified
    nonzero, eliminated once (`_solve_hom`) unless the build kept it, and
    of the dimension certified, as tuples; () for the others."""
    vectors = []
    for X, dims in zip(entries, solved.hom):
        row = []
        for Y, dim in zip(entries, dims):
            basis = solved.kernels.get((X.id, Y.id), ())
            if dim and not basis:
                _dim, basis = _solve_hom(X.rep, Y.rep, parities=False)
                if len(basis) != dim:
                    raise ConsistencyError(
                        f"Hom({X.dimvec}, {Y.dimvec}) solves to dimension "
                        f"{len(basis)}, certified {dim}"
                    )
            row.append(tuple(map(tuple, basis)))
        vectors.append(tuple(row))
    return tuple(vectors)


def gluing_pairs(table):
    """The module pairs (I_w id, P_v id), one per quiver arrow w -> v:
    the gluing arrows I_w[d] -> P_v[d+1] of the derived AR quiver
    ZQ^op, whose mesh at P_v[d+1] has rad P_v and I_v/soc as middle."""
    return {
        (
            table.injective_by_vertex(a.source).id,
            table.projective_by_vertex(a.target).id,
        )
        for a in table.quiver.arrows
    }


def _ar_arrows(table):
    """The AR arrows in ascending order: the pairs (i, j) with
    dim rad/rad^2 = 1 (`irreducible_dim`, 0 or 1 on every pair), proved
    with `gluing_pairs` by the derived mesh rule: in ZQ^op the arrows
    into each object X are the arrows out of tau X.  For a non-projective
    X, tau X lies in X's degree, so the module arrows into X are those
    out of tau X, and neither end has a gluing arrow.  For P_v, tau P_v
    is I_v one degree down, so the module arrows into P_v are the gluing
    targets of I_v, and the gluing sources of P_v are the module arrows
    out of I_v.  This fixes both the module arrows and the gluing."""
    n = len(table.entries)
    arrows = []
    for i in range(n):
        for j in range(n):
            irr = irreducible_dim(i, j, table)
            if irr not in (0, 1):
                raise ConsistencyError(f"arrow multiplicity {irr} between {i} and {j}")
            if irr:
                arrows.append((i, j))
    into, out, glued_into, glued_out = ([set() for _ in range(n)] for _ in range(4))
    for s, t in arrows:
        out[s].add(t)
        into[t].add(s)
    for s, t in gluing_pairs(table):
        glued_out[s].add(t)
        glued_into[t].add(s)
    for e in table.entries:
        if e.is_projective:
            inj = table.injective_by_vertex(e.proj_vertex).id
            holds = into[e.id] == glued_out[inj] and glued_into[e.id] == out[inj]
        else:
            holds = into[e.id] == out[e.tau] and not glued_into[e.id] | glued_out[e.tau]
        if not holds:
            raise ConsistencyError(f"mesh rule fails at the arrows into {e.dimvec}")
    return tuple(arrows)


def irreducible_dim(i, j, table):
    """dim rad(i,j)/rad^2(i,j) from explicit Hom bases.

    For non-isomorphic indecomposables rad = Hom and rad^2 is spanned by
    composites g f of basis morphisms f: i -> m, g: m -> j through any
    third indecomposable m (radical endomorphisms vanish: End is trivial
    over a Dynkin quiver).  The composites come from the Hom bases alone,
    and the table's AR arrows are read off this function.

    The composites are formed from the integer ``hom_vectors``; a nonzero
    scale does not change their span, so their rank is counted on ints
    (`linalg.echelon_add`).  The composites lie in Hom(i, j), so once
    they span a space of its dimension the rank cannot grow and the scan
    stops there.
    """
    if i == j:
        return 0
    target = table.hom_vectors[i][j]
    if not target:
        return 0
    echelon = []
    for gf in _int_composites(i, j, table):
        if echelon_add(echelon, gf) and len(echelon) == len(target):
            break
    return len(target) - len(echelon)


def _int_composites(i, j, table):
    """The composites g f through each m other than i and j, flattened
    like ``hom_vectors``, as sparse integer rows."""
    entries = table.entries
    vectors = table.hom_vectors
    dim_i, dim_j = entries[i].dimvec, entries[j].dimvec
    for m, F in enumerate(vectors[i]):
        G = vectors[m][j] if F and m != i and m != j else ()
        if not G:
            continue
        dim_m = entries[m].dimvec
        for f in F:
            for g in G:
                yield _compose(g, f, dim_j, dim_m, dim_i)


def _compose(g, f, dim_j, dim_m, dim_i):
    """g f for flattened morphisms f: i -> m and g: m -> j, whose matrices
    at vertex k are dim_m[k] x dim_i[k] and dim_j[k] x dim_m[k], as a
    sparse integer row flattened the same way."""
    out = {}
    k = at_g = at_f = 0
    for r, c, s in zip(dim_j, dim_m, dim_i):
        end_f = at_f + c * s
        for _ in range(r):
            g_row = g[at_g : at_g + c]
            at_g += c
            for y in range(at_f, at_f + s):
                value = sum(map(mul, g_row, f[y:end_f:s]))
                if value:
                    out[k] = value
                k += 1
        at_f = end_f
    return out
