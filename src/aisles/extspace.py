"""Explicit Ext^1 classes with composition, via projective presentations.

Every indecomposable X over a hereditary path algebra has the standard
presentation

    0 -> (+)_{a: u->w} P_w^{dim X_u} -> (+)_v P_v^{dim X_v} -> X -> 0

so Ext^1(X, Y) = coker( Hom(P0, Y) -> Hom(P1, Y) ).  Representing a class
by a morphism P1 -> Y makes both compositions computable:

* post-composition with h: Y -> Z is vertex-wise matrix multiplication;
* pre-composition with f: W -> X lifts f to the presentations and
  pre-composes with the lifted map on P1's.

This is the independent route used to certify irreducibility of the
cross-degree arrows of the derived AR quiver.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConsistencyError
from .linalg import Mat, span_rank
from .repcore import (
    Representation,
    compose_morphisms,
    hom_space,
    morphism_flatten,
)


def direct_sum(quiver, reps):
    """Direct sum representation together with per-summand vertex offsets."""
    dims = {v: sum(r.dim(v) for r in reps) for v in quiver.vertices}
    offsets = []
    cursor = {v: 0 for v in quiver.vertices}
    for r in reps:
        offsets.append(dict(cursor))
        for v in quiver.vertices:
            cursor[v] += r.dim(v)
    maps = {}
    for a in quiver.arrows:
        block = Mat.zeros(dims[a.target], dims[a.source])
        rows = [list(row) for row in block.rows]
        for r, off in zip(reps, offsets):
            m = r.maps[a.name]
            for i in range(m.nrows):
                for j in range(m.ncols):
                    rows[off[a.target] + i][off[a.source] + j] = m[i, j]
        maps[a.name] = Mat(rows, dims[a.target], dims[a.source])
    return Representation(quiver, dims, maps), offsets


def scale_morphism(f, c, quiver):
    return {v: f[v].scale(c) for v in quiver.vertices}


def add_morphisms(f, g, quiver):
    return {v: f[v] + g[v] for v in quiver.vertices}


class Presentation:
    """The standard projective presentation of one table entry."""

    def __init__(self, table, entry):
        quiver = table.quiver
        X = entry.rep
        idx = {v: i for i, v in enumerate(quiver.vertices)}

        p0_summands = []
        for v in quiver.vertices:
            p0_summands += [table.projective_by_vertex(v)] * X.dim(v)
        p1_summands = []
        for a in quiver.arrows:
            p1_summands += [table.projective_by_vertex(a.target)] * X.dim(
                a.source
            )
        self.p0_reps = [e.rep for e in p0_summands]
        self.p1_reps = [e.rep for e in p1_summands]
        self.P0, self.off0 = direct_sum(quiver, self.p0_reps)
        self.P1, self.off1 = direct_sum(quiver, self.p1_reps)

        # p: P0 -> X, summand (v, i) picks out basis vector i of X_v
        comps = []
        k = 0
        for v in quiver.vertices:
            for i in range(X.dim(v)):
                target = Mat.column(
                    [Fraction(1 if r == i else 0) for r in range(X.dim(v))]
                )
                comps.append(
                    _generator_hom(table, p0_summands[k], X, target)
                )
                k += 1
        self.p = _assemble_into_target(quiver, self.P0, self.off0, comps, X)

        # g: P1 -> P0, summand (a: u->w, i) maps into blocks (u, i) and (w, *)
        self.g = self._build_g(table, entry)
        self._validate(X)
        del idx

    def _build_g(self, table, entry):
        quiver = table.quiver
        X = entry.rep
        total_cols = {v: self.P1.dim(v) for v in quiver.vertices}
        total_rows = {v: self.P0.dim(v) for v in quiver.vertices}
        rows = {
            v: [[Fraction(0)] * total_cols[v] for _ in range(total_rows[v])]
            for v in quiver.vertices
        }
        k = 0
        for a in quiver.arrows:
            u, w = a.source, a.target
            Pw = table.projective_by_vertex(w).rep
            Pu = table.projective_by_vertex(u).rep
            # left multiplication by a: P_w -> P_u, sending the generator of
            # P_w to the image of P_u's generator along the arrow map
            target = Mat.column([Pu.maps[a.name][r, 0] for r in range(Pu.dim(w))])
            m_a = _generator_hom_rep(quiver, Pw, Pu, target)
            for i in range(X.dim(u)):
                off1 = self.off1[k]
                # block (u, i): + m_a
                off0u = self.off0[_p0_block_index(quiver, X, u, i)]
                for v in quiver.vertices:
                    m = m_a[v]
                    for r in range(m.nrows):
                        for c in range(m.ncols):
                            rows[v][off0u[v] + r][off1[v] + c] += m[r, c]
                # blocks (w, j): - X_a[j, i] * id_{P_w}
                for j in range(X.dim(w)):
                    coeff = X.maps[a.name][j, i]
                    if coeff == 0:
                        continue
                    off0w = self.off0[_p0_block_index(quiver, X, w, j)]
                    for v in quiver.vertices:
                        for r in range(Pw.dim(v)):
                            rows[v][off0w[v] + r][off1[v] + r] -= coeff
                k += 1
        return {
            v: Mat(rows[v], total_rows[v], total_cols[v])
            for v in quiver.vertices
        }

    def _validate(self, X):
        quiver = X.quiver
        for v in quiver.vertices:
            pg = self.p[v] * self.g[v]
            if not pg.is_zero():
                raise ConsistencyError("presentation: p o g is nonzero")
            if self.p[v].rank() != X.dim(v):
                raise ConsistencyError("presentation: p is not surjective")
            if self.g[v].rank() != self.P1.dim(v):
                raise ConsistencyError("presentation: g is not injective")
            if self.P0.dim(v) - self.P1.dim(v) != X.dim(v):
                raise ConsistencyError("presentation: Euler count is off")


def _p0_block_index(quiver, X, v, i):
    k = 0
    for w in quiver.vertices:
        if w == v:
            return k + i
        k += X.dim(w)
    raise KeyError(v)


def _zero_morphism(src, tgt):
    return {
        v: Mat.zeros(tgt.dim(v), src.dim(v)) for v in src.quiver.vertices
    }


def _generator_hom_rep(quiver, Pv_rep, Y, target):
    """The morphism P_v -> Y sending the canonical generator to ``target``
    (a column vector in Y at the vertex where P_v is one-dimensional and
    generates)."""
    v = next(
        w
        for w in quiver.vertices
        if Pv_rep.dim(w) == 1 and _is_generator_vertex(quiver, Pv_rep, w)
    )
    dim, basis = hom_space(Pv_rep, Y)
    if dim == 0:
        if not all(x == 0 for x in target.flatten()):
            raise ConsistencyError("generator image outside Hom image")
        return _zero_morphism(Pv_rep, Y)
    cols = [[b[v][r, 0] for b in basis] for r in range(Y.dim(v))]
    system = Mat(cols, Y.dim(v), dim)
    sol = system.solve(target)
    if sol is None:
        raise ConsistencyError("generator image not realizable")
    out = _zero_morphism(Pv_rep, Y)
    for k, b in enumerate(basis):
        c = sol[k, 0]
        if c != 0:
            out = add_morphisms(out, scale_morphism(b, c, quiver), quiver)
    return out


def _is_generator_vertex(quiver, Pv_rep, w):
    # the generating vertex of P_v is the unique one from which every
    # supported vertex is reachable
    support = {u for u in quiver.vertices if Pv_rep.dim(u) > 0}
    reach = {w}
    stack = [w]
    while stack:
        x = stack.pop()
        for a in quiver.arrows_from(x):
            if a.target not in reach:
                reach.add(a.target)
                stack.append(a.target)
    return support <= reach


def _generator_hom(table, proj_entry, Y, target):
    return _generator_hom_rep(table.quiver, proj_entry.rep, Y, target)


def _assemble_into_target(quiver, P0, off0, comps, Y):
    out = {}
    for v in quiver.vertices:
        rows = [[Fraction(0)] * P0.dim(v) for _ in range(Y.dim(v))]
        for comp, off in zip(comps, off0):
            m = comp[v]
            for r in range(m.nrows):
                for c in range(m.ncols):
                    rows[r][off[v] + c] += m[r, c]
        out[v] = Mat(rows, Y.dim(v), P0.dim(v))
    return out


class ExtMachine:
    """Ext^1 spaces with composition for one IndecTable."""

    def __init__(self, table):
        self.table = table
        self.quiver = table.quiver
        self._pres = {}
        self._hom_cache = {}

    def presentation(self, i):
        if i not in self._pres:
            self._pres[i] = Presentation(self.table, self.table.entries[i])
        return self._pres[i]

    def _hom_basis(self, A, B):
        key = (id(A), id(B))
        if key not in self._hom_cache:
            self._hom_cache[key] = hom_space(A, B)[1]
        return self._hom_cache[key]

    def _image_vectors(self, i, Y):
        """Flattened Hom(P1, Y) vectors spanning the image of Hom(P0, Y)."""
        pres = self.presentation(i)
        out = []
        for h in self._hom_basis(pres.P0, Y):
            comp = compose_morphisms(h, pres.g, self.quiver)
            out.append(morphism_flatten(comp, self.quiver))
        return out

    def ext_dim(self, i, j):
        Y = self.table.entries[j].rep
        pres = self.presentation(i)
        amb = self._hom_basis(pres.P1, Y)
        im = self._image_vectors(i, Y)
        return len(amb) - span_rank(im)

    def ext_basis(self, i, j):
        """Morphisms P1(i) -> Y(j) whose classes form a basis of Ext^1."""
        Y = self.table.entries[j].rep
        pres = self.presentation(i)
        im = self._image_vectors(i, Y)
        picked = []
        vectors = list(im)
        base = span_rank(vectors)
        for h in self._hom_basis(pres.P1, Y):
            vec = morphism_flatten(h, self.quiver)
            if span_rank(vectors + [vec]) > base:
                vectors.append(vec)
                base += 1
                picked.append(h)
        return picked

    def post_compose(self, phi, h):
        """Class [phi] in Ext(X, Y), h: Y -> Z  ->  representative of
        [h o phi] in Ext(X, Z)."""
        return compose_morphisms(h, phi, self.quiver)

    def pre_compose(self, i, m, psi, f):
        """psi a representative of a class in Ext(m, Z), f: X(i) -> Y(m);
        returns a representative of [psi] o f in Ext(i, Z)."""
        presX = self.presentation(i)
        presM = self.presentation(m)
        f0 = self._lift(
            self._hom_basis(presX.P0, presM.P0),
            lambda cand: compose_morphisms(presM.p, cand, self.quiver),
            compose_morphisms(f, presX.p, self.quiver),
        )
        f1 = self._lift(
            self._hom_basis(presX.P1, presM.P1),
            lambda cand: compose_morphisms(presM.g, cand, self.quiver),
            compose_morphisms(f0, presX.g, self.quiver),
        )
        return compose_morphisms(psi, f1, self.quiver)

    def _lift(self, basis, apply_fn, target):
        rhs = morphism_flatten(target, self.quiver)
        cols = [morphism_flatten(apply_fn(b), self.quiver) for b in basis]
        if not cols:
            if any(x != 0 for x in rhs):
                raise ConsistencyError("lift through presentation failed")
            return _zero_like(target, self.quiver)
        system = Mat(
            [[col[r] for col in cols] for r in range(len(rhs))],
            len(rhs),
            len(cols),
        )
        sol = system.solve(Mat.column(rhs))
        if sol is None:
            raise ConsistencyError("lift through presentation failed")
        out = None
        for k, b in enumerate(basis):
            term = scale_morphism(b, sol[k, 0], self.quiver)
            out = term if out is None else add_morphisms(out, term, self.quiver)
        return out

    def class_span_dim(self, i, j, representatives):
        """Dimension of the span of ext classes inside Ext^1(i, j)."""
        im = self._image_vectors(i, self.table.entries[j].rep)
        base = span_rank(im)
        vecs = [morphism_flatten(r, self.quiver) for r in representatives]
        return span_rank(im + vecs) - base

    def irreducible_ext_dim(self, i, j):
        """dim of Ext^1(i, j) modulo composites through a third object:
        the cross-degree analogue of rad/rad^2."""
        total = self.ext_dim(i, j)
        if total != self.table.ext[i][j]:
            raise ConsistencyError(
                f"presentation Ext disagrees with table at ({i}, {j})"
            )
        if total == 0:
            return 0
        composites = []
        n = len(self.table.entries)
        for m in range(n):
            if m != i:
                # X -> M (degree 0) then M => Y (degree jump)
                for f in self.table.hom_bases[i][m]:
                    for psi in self.ext_basis(m, j):
                        composites.append(self.pre_compose(i, m, psi, f))
            if m != j:
                # X => M (degree jump) then M -> Y (degree 1)
                for phi in self.ext_basis(i, m):
                    for h in self.table.hom_bases[m][j]:
                        composites.append(self.post_compose(phi, h))
        return total - self.class_span_dim(i, j, composites)


def _zero_like(target, quiver):
    return {v: Mat.zeros(target[v].nrows, target[v].ncols) for v in quiver.vertices}
