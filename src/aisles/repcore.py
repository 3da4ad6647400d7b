"""Quiver representations over the rationals and the indecomposable table.

Indecomposables of a Dynkin quiver are constructed by reflection functors
along an admissible sink ordering, one per positive root; identity of
isomorphism classes is by dimension vector.  The table then records all
Hom/Ext dimensions, the AR translate and the AR quiver, with every derived
quantity cross-validated against an independent computation (Euler form,
AR formula, rad/rad^2 linear algebra).  Validation failures abort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConsistencyError, ShapeError, UnsupportedError
from .linalg import Mat, span_rank
from .quiver import Quiver


@dataclass(frozen=True)
class Representation:
    """Vector spaces at vertices and matrices along arrows.

    ``maps[a]`` has shape dims(target a) x dims(source a).
    """

    quiver: Quiver
    dims: dict
    maps: dict

    def __post_init__(self):
        for v in self.quiver.vertices:
            if self.dims.get(v, 0) < 0:
                raise ShapeError(f"negative dimension at vertex {v!r}")
        for a in self.quiver.arrows:
            m = self.maps[a.name]
            want = (self.dims.get(a.target, 0), self.dims.get(a.source, 0))
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
        return tuple(self.dim(v) for v in self.quiver.vertices)

    def is_zero(self):
        return self.total_dim() == 0


def simple_representation(quiver, v):
    dims = {w: 1 if w == v else 0 for w in quiver.vertices}
    maps = {
        a.name: Mat.zeros(dims[a.target], dims[a.source]) for a in quiver.arrows
    }
    return Representation(quiver, dims, maps)


# ---------------------------------------------------------------------------
# Hom spaces
# ---------------------------------------------------------------------------


def hom_space(M, N):
    """Dimension and basis of Hom(M, N).

    A morphism is a family of matrices f_v with N_a f_{s(a)} = f_{t(a)} M_a
    for every arrow a; the basis elements are dicts vertex -> Mat.
    """
    if M.quiver != N.quiver:
        raise ShapeError("hom_space requires representations over one quiver")
    Q = M.quiver
    offsets = {}
    total = 0
    for v in Q.vertices:
        offsets[v] = total
        total += N.dim(v) * M.dim(v)
    if total == 0:
        return 0, []

    def var(v, i, j):
        return offsets[v] + i * M.dim(v) + j

    rows = []
    for a in Q.arrows:
        u, w = a.source, a.target
        Na, Ma = N.maps[a.name], M.maps[a.name]
        for r in range(N.dim(w)):
            for c in range(M.dim(u)):
                row = [Fraction(0)] * total
                for k in range(N.dim(u)):
                    row[var(u, k, c)] += Na[r, k]
                for k in range(M.dim(w)):
                    row[var(w, r, k)] -= Ma[k, c]
                rows.append(row)
    system = Mat(rows, len(rows), total) if rows else Mat.zeros(0, total)
    kernel = system.nullspace()
    basis = []
    for vec in kernel:
        f = {}
        for v in Q.vertices:
            entries = [
                [
                    vec[offsets[v] + i * M.dim(v) + j, 0]
                    for j in range(M.dim(v))
                ]
                for i in range(N.dim(v))
            ]
            f[v] = Mat(entries, N.dim(v), M.dim(v))
        basis.append(f)
    return len(basis), basis


def compose_morphisms(g, f, quiver):
    """Vertex-wise composite g o f of two morphism families."""
    return {v: g[v] * f[v] for v in quiver.vertices}


def morphism_flatten(f, quiver):
    out = []
    for v in quiver.vertices:
        out.extend(f[v].flatten())
    return out


# ---------------------------------------------------------------------------
# Euler form and Coxeter transformation
# ---------------------------------------------------------------------------


def euler_matrix(quiver):
    """E with <d, e> = d^T E e = sum_v d_v e_v - sum_a d_{s(a)} e_{t(a)}."""
    n = len(quiver.vertices)
    idx = {v: i for i, v in enumerate(quiver.vertices)}
    E = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for a in quiver.arrows:
        E[idx[a.source]][idx[a.target]] -= 1
    return Mat(E, n, n)


def euler_form(quiver, d, e):
    """The homological bilinear form dim Hom - dim Ext^1 on dimension
    vectors (for any hereditary path algebra, not only Dynkin)."""
    if len(d) != len(quiver.vertices) or len(e) != len(quiver.vertices):
        raise ShapeError("dimension vector length mismatch")
    idx = {v: i for i, v in enumerate(quiver.vertices)}
    val = sum(di * ei for di, ei in zip(d, e))
    for a in quiver.arrows:
        val -= d[idx[a.source]] * e[idx[a.target]]
    return val


def coxeter_matrix(quiver):
    """Phi = -E^{-1} E^T acting on column vectors; dim tau M = Phi dim M."""
    E = euler_matrix(quiver)
    n = E.nrows
    cols = []
    for j in range(n):
        b = Mat.column([Fraction(1 if i == j else 0) for i in range(n)])
        cols.append(E.solve(b))
    return (Mat.hstack(cols) * E.transpose()).scale(-1)


def coxeter_transform(phi, d, inverse=False):
    """Phi d, or Phi^{-1} d, for ``phi = coxeter_matrix(quiver)``."""
    if inverse:
        # Phi^{-1} = -E^T{}^{-1} E; solve Phi x = d instead of inverting again
        x = phi.solve(Mat.column(d))
        return tuple(int(v) for v in x.flatten())
    out = phi * Mat.column(list(d))
    return tuple(int(v) for v in out.flatten())


# ---------------------------------------------------------------------------
# Reflection functors
# ---------------------------------------------------------------------------


def reflect(R, v):
    """BGP reflection of ``R`` at a sink (positive) or source (negative)
    vertex ``v``; the result lives over the quiver with arrows at v
    reversed."""
    Q = R.quiver
    if Q.is_sink(v):
        return _reflect_sink(R, v)
    if Q.is_source(v):
        return _reflect_source(R, v)
    raise UnsupportedError(f"vertex {v!r} is neither a sink nor a source")


def _reflect_sink(R, v):
    Q = R.quiver
    incoming = Q.arrows_into(v)
    blocks = [R.maps[a.name] for a in incoming]
    total_cols = sum(R.dim(a.source) for a in incoming)
    if incoming:
        h = Mat.hstack(blocks) if total_cols else Mat.zeros(R.dim(v), 0)
    else:
        h = Mat.zeros(R.dim(v), 0)
    kernel = h.nullspace()
    kdim = len(kernel)
    K = Mat.hstack(kernel) if kernel else Mat.zeros(total_cols, kdim)
    newQ = Q.reversed_at(v)
    dims = dict(R.dims)
    dims[v] = kdim
    maps = {a.name: R.maps[a.name] for a in Q.arrows if v not in (a.source, a.target)}
    offset = 0
    for a in incoming:
        d = R.dim(a.source)
        rows = [K.rows[offset + i] for i in range(d)]
        maps[a.name] = Mat(rows, d, kdim)
        offset += d
    return Representation(newQ, dims, maps)


def _reflect_source(R, v):
    Q = R.quiver
    outgoing = Q.arrows_from(v)
    blocks = [R.maps[a.name] for a in outgoing]
    total_rows = sum(R.dim(a.target) for a in outgoing)
    if outgoing and total_rows:
        h = Mat.vstack(blocks)
    else:
        h = Mat.zeros(total_rows, R.dim(v))
    cokernel_rows = h.left_nullspace()
    cdim = len(cokernel_rows)
    P = Mat.vstack(cokernel_rows) if cokernel_rows else Mat.zeros(cdim, total_rows)
    newQ = Q.reversed_at(v)
    dims = dict(R.dims)
    dims[v] = cdim
    maps = {a.name: R.maps[a.name] for a in Q.arrows if v not in (a.source, a.target)}
    offset = 0
    for a in outgoing:
        d = R.dim(a.target)
        cols = [[P.rows[i][offset + j] for j in range(d)] for i in range(cdim)]
        maps[a.name] = Mat(cols, cdim, d)
        offset += d
    return Representation(newQ, dims, maps)


# ---------------------------------------------------------------------------
# Positive roots and construction of all indecomposables
# ---------------------------------------------------------------------------


def _simple_reflection(quiver, v, d):
    """s_v on dimension vectors: negate at v, add neighbouring coordinates."""
    idx = {w: i for i, w in enumerate(quiver.vertices)}
    i = idx[v]
    neigh = Fraction(0)
    for a in quiver.arrows:
        if a.source == v:
            neigh += d[idx[a.target]]
        elif a.target == v:
            neigh += d[idx[a.source]]
    out = list(d)
    out[i] = int(neigh) - d[i]
    return tuple(out)


def positive_roots(quiver):
    """All positive roots, by reflection closure from the simple roots."""
    n = len(quiver.vertices)
    simples = [
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    ]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for d in frontier:
            for v in quiver.vertices:
                r = _simple_reflection(quiver, v, d)
                if all(x >= 0 for x in r) and r not in roots and any(r):
                    roots.add(r)
                    nxt.append(r)
        frontier = nxt
    return sorted(roots, key=lambda d: (sum(d), d))


def build_indecomposable(quiver, d):
    """The indecomposable representation with dimension vector ``d``.

    Applies the simple reflections of the admissible sink sequence to ``d``
    until it would become negative; the surviving vector is a simple root,
    and the representation is obtained by pulling the corresponding simple
    back through the inverse reflection functors.
    """
    order = quiver.sink_ordering()
    trail = []  # (vertex, quiver before reflecting at it)
    cur_q = quiver
    cur_d = tuple(d)
    guard = 0
    while True:
        idx = {v: i for i, v in enumerate(quiver.vertices)}
        nonzero = [v for v in quiver.vertices if cur_d[idx[v]] > 0]
        if len(nonzero) == 1 and cur_d[idx[nonzero[0]]] == 1:
            break  # reached a simple root
        v = order[len(trail) % len(order)]
        nd = _simple_reflection(quiver, v, cur_d)
        if any(x < 0 for x in nd):
            raise ConsistencyError(
                f"reflection descent left the positive cone at {cur_d}"
            )
        trail.append((v, cur_q))
        cur_q = cur_q.reversed_at(v)
        cur_d = nd
        guard += 1
        if guard > 64 * len(order):
            raise ConsistencyError("reflection descent did not terminate")
    idx = {v: i for i, v in enumerate(quiver.vertices)}
    w = next(v for v in quiver.vertices if cur_d[idx[v]] == 1)
    rep = simple_representation(cur_q, w)
    for v, _prev_q in reversed(trail):
        rep = reflect(rep, v)  # v is a source here: negative reflection
    if rep.quiver != quiver or rep.dimension_vector() != tuple(d):
        raise ConsistencyError(
            f"reflection construction produced {rep.dimension_vector()} "
            f"instead of {tuple(d)}"
        )
    return rep


# ---------------------------------------------------------------------------
# The indecomposable table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndecEntry:
    id: int
    dimvec: tuple
    rep: Representation
    is_projective: bool
    is_injective: bool
    tau: int | None
    tau_inverse: int | None
    proj_vertex: str | None  # v with this entry iso to P_v
    inj_vertex: str | None


@dataclass(frozen=True)
class IndecTable:
    """Complete list of indecomposables of a Dynkin quiver with Hom/Ext
    tables, tau links and the AR quiver.  Immutable after construction."""

    quiver: Quiver
    entries: tuple
    hom: tuple  # hom[i][j] = dim Hom(i, j)
    ext: tuple
    ar_arrows: tuple  # (source id, target id)
    hom_bases: tuple = field(repr=False, compare=False)  # bases[i][j]: Hom(i, j)
    # Results derived from this table alone, computed on first use (the
    # derived model's validated cross-degree arrows).  A copy made with
    # dataclasses.replace starts empty, so a patched table is re-validated.
    memo: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __len__(self):
        return len(self.entries)

    def by_dimvec(self, d):
        for e in self.entries:
            if e.dimvec == tuple(d):
                return e
        raise KeyError(f"no indecomposable with dimension vector {d}")

    def simple(self, v):
        i = self.quiver.vertex_index(v)
        d = tuple(1 if j == i else 0 for j in range(len(self.quiver.vertices)))
        return self.by_dimvec(d)

    def projectives(self):
        return [e for e in self.entries if e.is_projective]

    def injectives(self):
        return [e for e in self.entries if e.is_injective]

    def projective_by_vertex(self, v):
        return next(e for e in self.entries if e.proj_vertex == v)

    def injective_by_vertex(self, v):
        return next(e for e in self.entries if e.inj_vertex == v)

    def ar_arrows_from(self, i):
        return [t for s, t in self.ar_arrows if s == i]

    def ar_arrows_into(self, j):
        return [s for s, t in self.ar_arrows if t == j]


def enumerate_indecomposables(quiver):
    """Construct the full IndecTable of a Dynkin quiver.

    Raises UnsupportedError for non-Dynkin input and ConsistencyError if
    any of the cross-checks (entry count, Euler/AR identities, knitting
    vs rad/rad^2) fails.
    """
    expected = quiver.positive_root_count()  # raises UnsupportedError
    roots = positive_roots(quiver)
    if len(roots) != expected:
        raise ConsistencyError(
            f"found {len(roots)} positive roots, expected {expected}"
        )
    reps = [build_indecomposable(quiver, d) for d in roots]
    n = len(reps)

    hom = [[0] * n for _ in range(n)]
    bases = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            dim, basis = hom_space(reps[i], reps[j])
            hom[i][j] = dim
            bases[i][j] = tuple(basis)
    for i in range(n):
        if hom[i][i] != 1:
            raise ConsistencyError(
                f"endomorphism ring of {roots[i]} has dimension {hom[i][i]}"
            )

    ext = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            val = hom[i][j] - euler_form(quiver, roots[i], roots[j])
            if val < 0:
                raise ConsistencyError(
                    f"negative Ext dimension between {roots[i]} and {roots[j]}"
                )
            ext[i][j] = val

    by_dimvec = {d: i for i, d in enumerate(roots)}
    tau_link = [None] * n
    tau_inv = [None] * n
    phi = coxeter_matrix(quiver)
    for i, d in enumerate(roots):
        td = coxeter_transform(phi, d)
        if all(x >= 0 for x in td):
            if td not in by_dimvec:
                raise ConsistencyError(f"Coxeter transform of {d} is not a root")
            tau_link[i] = by_dimvec[td]
        ti = coxeter_transform(phi, d, inverse=True)
        if all(x >= 0 for x in ti):
            if ti not in by_dimvec:
                raise ConsistencyError(
                    f"inverse Coxeter transform of {d} is not a root"
                )
            tau_inv[i] = by_dimvec[ti]

    # AR formula validation: ext(i, j) = hom(j, tau i) for non-projective i,
    # ext(i, j) = 0 for projective i.
    for i in range(n):
        for j in range(n):
            want = 0 if tau_link[i] is None else hom[j][tau_link[i]]
            if ext[i][j] != want:
                raise ConsistencyError(
                    f"AR formula fails at ({roots[i]}, {roots[j]}): "
                    f"ext={ext[i][j]}, hom(j, tau i)={want}"
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

    arrows = _knit_ar_arrows(quiver, entries)
    table = IndecTable(
        quiver=quiver,
        entries=entries,
        hom=tuple(tuple(r) for r in hom),
        ext=tuple(tuple(r) for r in ext),
        ar_arrows=tuple(sorted(arrows)),
        hom_bases=tuple(tuple(r) for r in bases),
    )
    _validate_ar_arrows(table)
    return table


def _knit_ar_arrows(quiver, entries):
    """AR arrows by knitting: the projective slice from radical inclusions
    (rad P_v = direct sum of P_w over arrows v -> w), then mesh completion:
    arrows into a non-projective X are the translates of arrows out of
    tau X, iterated to a fixpoint."""
    proj_of = {e.proj_vertex: e.id for e in entries if e.is_projective}
    arrows = set()
    for a in quiver.arrows:
        arrows.add((proj_of[a.target], proj_of[a.source]))
    changed = True
    while changed:
        changed = False
        for e in entries:
            if e.tau is None:
                continue
            for (src, tgt) in list(arrows):
                if src == e.tau and (tgt, e.id) not in arrows:
                    arrows.add((tgt, e.id))
                    changed = True
    # mesh property: middles of the mesh ending at X = arrows out of tau X
    for e in entries:
        if e.tau is None:
            continue
        ins = {s for s, t in arrows if t == e.id}
        outs = {t for s, t in arrows if s == e.tau}
        if ins != outs:
            raise ConsistencyError(
                f"incomplete mesh at {e.dimvec}: ins {ins} vs outs {outs}"
            )
    return arrows


def irreducible_dim(i, j, table):
    """dim rad(i,j)/rad^2(i,j) from explicit Hom bases.

    For non-isomorphic indecomposables rad = Hom and rad^2 is spanned by
    composites through any third indecomposable (radical endomorphisms
    vanish: End is trivial over a Dynkin quiver).
    """
    if i == j:
        return 0
    Q = table.quiver
    target = table.hom_bases[i][j]
    if not target:
        return 0
    composites = []
    for m in range(len(table.entries)):
        if m in (i, j):
            continue
        for f in table.hom_bases[i][m]:
            for g in table.hom_bases[m][j]:
                composites.append(
                    morphism_flatten(compose_morphisms(g, f, Q), Q)
                )
    return table.hom[i][j] - span_rank(composites)


def _validate_ar_arrows(table):
    n = len(table.entries)
    knitted = set(table.ar_arrows)
    for i in range(n):
        for j in range(n):
            irr = irreducible_dim(i, j, table)
            if irr not in (0, 1):
                raise ConsistencyError(
                    f"arrow multiplicity {irr} between {i} and {j}"
                )
            if (irr == 1) != ((i, j) in knitted):
                raise ConsistencyError(
                    f"knitting disagrees with rad/rad^2 at ({i}, {j})"
                )
