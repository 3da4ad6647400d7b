"""Torsion pairs in the module category of a Dynkin quiver.

Enumeration is a closure search over the lattice of torsion classes with
bit-parallel Hom-vanishing masks.  It starts from the smallest class and
steps from each class T it has reached, for every indecomposable x not in
T, to the smallest torsion class containing T and x, the double
orthogonal of T + x.  Every torsion class is reached, because it is the
closure of its members added one at a time, and the search stops with
``UnsupportedError`` once it has seen more than ``MAX_TORSION_CLASSES``
classes.  The canonical-sequence oracle certifies each pair
independently by actually computing the trace subrepresentation of every
module and checking the two Hom-vanishing conditions on explicit
representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, PreconditionError, UnsupportedError
from .linalg import Mat
from .repcore import Representation, hom_space

# E8, the largest Dynkin type of bounded size, has 25,080 torsion classes
# (A10 58,786); A15 would have Cat(16), about 35 million.
MAX_TORSION_CLASSES = 60_000


@dataclass(frozen=True)
class Subcategory:
    """A set of indecomposable ids inside one IndecTable."""

    members: frozenset

    def __contains__(self, i):
        return i in self.members

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self):
        return len(self.members)


@dataclass(frozen=True)
class TorsionPair:
    torsion: Subcategory
    free: Subcategory
    split: bool

    def torsion_bitmask(self):
        return sum(1 << i for i in self.torsion.members)


def right_orth(S, table):
    """All j with Hom(i, j) = 0 for every i in S."""
    n = len(table.entries)
    members = {
        j
        for j in range(n)
        if all(table.hom[i][j] == 0 for i in S.members)
    }
    return Subcategory(frozenset(members))


def left_orth(S, table):
    """All i with Hom(i, j) = 0 for every j in S."""
    n = len(table.entries)
    members = {
        i
        for i in range(n)
        if all(table.hom[i][j] == 0 for j in S.members)
    }
    return Subcategory(frozenset(members))


def _orth_masks(table):
    """nohom_from[i] = bitmask of j with hom(i, j) = 0, and the transpose."""
    n = len(table.entries)
    full = (1 << n) - 1
    nohom_from = [0] * n
    nohom_into = [0] * n
    for i in range(n):
        for j in range(n):
            if table.hom[i][j] == 0:
                nohom_from[i] |= 1 << j
                nohom_into[j] |= 1 << i
    return full, nohom_from, nohom_into


def enumerate_torsion_pairs(table):
    """All torsion pairs, sorted by the bitmask of the torsion class."""
    full, nohom_from, nohom_into = _orth_masks(table)
    # torsion mask -> free mask.  The search starts from the closure of
    # the empty set: 0 on a true Hom table, but a patched table (the
    # falsification probe) may have objects with no nonzero Hom at all.
    free_of = {_left_orth_mask(full, nohom_into): full}
    todo = list(free_of)
    while todo:
        tmask = todo.pop()
        fmask = free_of[tmask]
        for x in _bits(full & ~tmask):
            # (T + x)^perp, and the smallest torsion class containing T + x
            fnext = fmask & nohom_from[x]
            tnext = _left_orth_mask(fnext, nohom_into)
            if tnext in free_of:
                continue
            if len(free_of) == MAX_TORSION_CLASSES:
                raise UnsupportedError(
                    f"more than MAX_TORSION_CLASSES = {MAX_TORSION_CLASSES} "
                    "torsion classes; enumeration stopped at the class cap"
                )
            free_of[tnext] = fnext
            todo.append(tnext)
    return [
        TorsionPair(
            Subcategory(frozenset(_bits(tmask))),
            Subcategory(frozenset(_bits(fmask))),
            (tmask | fmask) == full,
        )
        for tmask, fmask in sorted(free_of.items())
    ]


def _left_orth_mask(fmask, nohom_into):
    out = (1 << len(nohom_into)) - 1
    m = fmask
    while m:
        j = (m & -m).bit_length() - 1
        out &= nohom_into[j]
        m &= m - 1
    return out


def _bits(mask):
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def is_torsion_pair(tp, table):
    """The defining fixed-point conditions, checked directly."""
    return (
        tp.free == right_orth(tp.torsion, table)
        and tp.torsion == left_orth(tp.free, table)
    )


# ---------------------------------------------------------------------------
# Canonical-sequence oracle
# ---------------------------------------------------------------------------


def trace_subrepresentation(y, generators, table):
    """Per-vertex column spans of the images of all morphisms from the
    given indecomposables into entry ``y``, read off the table's Hom
    bases; the result is automatically a subrepresentation (sum of
    images)."""
    Q = table.quiver
    Y = table.entries[y].rep
    columns = {v: [] for v in Q.vertices}
    for i in generators:
        for f in table.hom_bases[i][y]:
            for v in Q.vertices:
                m = f[v]
                for c in range(m.ncols):
                    columns[v].append([m[r, c] for r in range(m.nrows)])
    span = {}
    for v in Q.vertices:
        if columns[v]:
            red, pivots = Mat(columns[v]).rref()
            rows = [red.rows[k] for k in range(len(pivots))]
            span[v] = Mat(rows).transpose() if rows else Mat.zeros(Y.dim(v), 0)
        else:
            span[v] = Mat.zeros(Y.dim(v), 0)
    return span


def sub_and_quotient(Y, span, table):
    """Representations on a subspace family closed under the arrow maps,
    and on its quotient."""
    Q = table.quiver
    sub_dims = {v: span[v].ncols for v in Q.vertices}
    proj = {}
    for v in Q.vertices:
        rows = span[v].left_nullspace()
        proj[v] = (
            Mat.vstack(rows)
            if rows
            else Mat.zeros(0, Y.dim(v))
        )
    sub_maps = {}
    quot_maps = {}
    for a in Q.arrows:
        u, w = a.source, a.target
        img = Y.maps[a.name] * span[u]
        # solve span[w] * m = img column by column
        cols = []
        for c in range(img.ncols):
            col = Mat.column([img[r, c] for r in range(img.nrows)])
            sol = span[w].solve(col)
            if sol is None:
                raise ConsistencyError("trace is not closed under arrow maps")
            cols.append(sol)
        sub_maps[a.name] = (
            Mat.hstack(cols) if cols else Mat.zeros(sub_dims[w], 0)
        )
        # quotient map q with q * proj[u] = proj[w] * Y_a
        target = proj[w] * Y.maps[a.name]
        pu = proj[u]
        if pu.nrows == 0:
            quot_maps[a.name] = Mat.zeros(proj[w].nrows, 0)
            continue
        # proj[u] has full row rank; solve on a right inverse
        quot_maps[a.name] = target * _right_inverse(pu)
    sub = Representation(Q, sub_dims, sub_maps)
    quot = Representation(
        Q, {v: proj[v].nrows for v in Q.vertices}, quot_maps
    )
    return sub, quot, proj


def _right_inverse(m):
    cols = []
    for r in range(m.nrows):
        e = Mat.column(
            [Fraction(1 if k == r else 0) for k in range(m.nrows)]
        )
        sol = m.solve(e)
        if sol is None:
            raise ConsistencyError("projection is not surjective")
        cols.append(sol)
    return Mat.hstack(cols)


def canonical_sequence_oracle(y, tp, table):
    """Trace subobject and quotient of entry ``y`` for the pair ``tp``,
    certified by Hom-vanishing on explicit representations.

    A certification failure means the input was not a torsion pair; the
    failing Hom space is reported as a falsification witness.
    """
    if not is_torsion_pair(tp, table):
        raise PreconditionError("input does not satisfy the torsion-pair axioms")
    Y = table.entries[y].rep
    span = trace_subrepresentation(y, tp.torsion.members, table)
    sub, quot, _proj = sub_and_quotient(Y, span, table)
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


# ---------------------------------------------------------------------------
# JSON emission
# ---------------------------------------------------------------------------


def pair_to_json(tp, table):
    return {
        "torsion": [list(table.entries[i].dimvec) for i in tp.torsion],
        "free": [list(table.entries[j].dimvec) for j in tp.free],
        "split": tp.split,
    }
