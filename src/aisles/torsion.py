"""Torsion pairs in the module category of a Dynkin quiver.

Enumeration is a closure search over the lattice of torsion classes with
bit-parallel Hom-vanishing masks.  It starts from the smallest class and
steps from each class T it has reached, for every indecomposable x not in
T, to the smallest torsion class containing T and x, the double
orthogonal of T + x.  Every torsion class is reached, because it is the
closure of its members added one at a time, and the search stops with
``UnsupportedError`` once it has seen more than ``MAX_TORSION_CLASSES``
classes.  The search, the fixed-point test and the split rule all read
the table's module relation (``derived.module_relation``, built once per
table), whose ``right_perp`` and ``left_perp`` are the orthogonals.

The canonical-sequence oracle certifies each pair independently of the
search: it computes the trace subrepresentation of a module from the
table's Hom bases as the reduced rows of its span at each vertex, reads
the subobject and the quotient off those rows, and checks the two
Hom-vanishing conditions by solving Hom spaces on them.  The trace of a
class in a module y is the sum of the images of Hom(i, y) over its
members i.  Each image is reduced once per table, and which images lie
inside which is recorded once per module, so a trace is keyed by the
members whose image lies in no other member's: many classes share that
key, and a trace is built about once.  Subobjects and quotients with
equal matrices share their certificates, module masks of the members
whose Hom space is solved zero or nonzero, each solved the first time a
pair needs it; the torsion-pair axioms are checked once per distinct
pair.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .derived import TableContext, bits, module_relation, split_gap, union
from .errors import ConsistencyError, PreconditionError, UnsupportedError
from .linalg import Mat
from .repcore import Representation, hom_space

# E8, the largest Dynkin type of bounded size, has 25,080 torsion classes
# (A10 58,786); A15 would have Cat(16), about 35 million.
MAX_TORSION_CLASSES = 60_000


class Subcategory:
    """A set of indecomposable ids inside one IndecTable as a bitmask, bit
    i for id i; iteration is in ascending id order.  Equal and hashed by
    its mask."""

    def __init__(self, mask):
        self.mask = mask

    def __eq__(self, other):
        if type(other) is not Subcategory:
            return NotImplemented
        return self.mask == other.mask

    def __hash__(self):
        return hash(self.mask)

    def __contains__(self, i):
        return self.mask >> i & 1 == 1

    @cached_property
    def _ordered(self):
        return tuple(bits(self.mask))

    def __iter__(self):
        return iter(self._ordered)

    @property
    def members(self):
        return frozenset(self._ordered)

    def __len__(self):
        return self.mask.bit_count()


class TorsionPair(NamedTuple):
    torsion: Subcategory
    free: Subcategory
    split: bool


def _relation(table):
    return module_relation(TableContext(table))


def check_class_count(count):
    """Refuse ``count`` torsion classes past ``MAX_TORSION_CLASSES``: the
    closure search's cap, also checked on the Coxeter-Catalan number of
    a quiver before its table is built."""
    if count > MAX_TORSION_CLASSES:
        raise UnsupportedError(
            f"more than MAX_TORSION_CLASSES = {MAX_TORSION_CLASSES} "
            "torsion classes; enumeration stopped at the class cap"
        )


def check_quiver_class_count(quiver):
    """`check_class_count` on a Dynkin quiver's class count, which rank n
    bounds below by 2^n (each factor (h + e_i + 1) / (e_i + 1) of the
    Coxeter-Catalan number is at least 2): from rank b, the cap's bit
    length, 2^b is checked instead, and no huge count is formed."""
    _kind, n = quiver.dynkin_type()
    b = MAX_TORSION_CLASSES.bit_length()  # 2^b > MAX_TORSION_CLASSES
    check_class_count(quiver.torsion_class_count() if n < b else 1 << b)


def torsion_masks(table):
    """Every torsion pair as (torsion bitmask, free bitmask), sorted by
    the torsion bitmask: the closure search.  It raises
    ``UnsupportedError`` past ``MAX_TORSION_CLASSES`` classes, before any
    pair is returned."""
    relation = _relation(table)
    full, hom, into = relation.full, relation.hom, relation.into
    # torsion mask -> free mask.  The search starts from the closure of
    # the empty set: 0 on a true Hom table, but a patched table (the
    # falsification probe) may have objects with no nonzero Hom at all.
    free_of = {relation.left_perp(full): full}
    todo = list(free_of)
    while todo:
        tmask = todo.pop()
        fmask = free_of[tmask]
        for x in bits(full & ~tmask):
            # (T + x)^perp, and the smallest torsion class containing T + x
            fnext = fmask & ~hom[x]
            tnext = full & ~union(into, fnext)
            if tnext in free_of:
                continue
            check_class_count(len(free_of) + 1)
            free_of[tnext] = fnext
            todo.append(tnext)
    return sorted(free_of.items())


def is_split_mask(tmask, fmask, table):
    """Whether the pair with these bitmasks is split: T and F cover
    every indecomposable."""
    return split_gap(_relation(table).full, tmask, fmask) is None


def pair_of_masks(tmask, fmask, table):
    """The `TorsionPair` with these torsion and free bitmasks."""
    return TorsionPair(
        Subcategory(tmask), Subcategory(fmask), is_split_mask(tmask, fmask, table)
    )


def enumerate_torsion_pairs(table):
    """All torsion pairs, sorted by the bitmask of the torsion class."""
    return [pair_of_masks(t, f, table) for t, f in torsion_masks(table)]


def is_torsion_pair(tp, table):
    """The defining fixed-point conditions, checked directly."""
    relation = _relation(table)
    return (
        tp.free.mask == relation.right_perp(tp.torsion.mask)
        and tp.torsion.mask == relation.left_perp(tp.free.mask)
    )


# ---------------------------------------------------------------------------
# Canonical-sequence oracle
# ---------------------------------------------------------------------------


def trace_subrepresentation(y, generators, table):
    """Per vertex v, the reduced rows (`Mat.rref`) of the span of the
    images of all morphisms from the given indecomposables into entry
    ``y``, as a Mat with dim Y_v columns; the result is automatically a
    subrepresentation (sum of images).  The rows stacked per vertex are
    the reduced rows of each generator's image (`_images_into`)."""
    Q = table.quiver
    Y = table.entries[y].rep
    images = _images_into(y, table)[1]
    stacked = [images[i][0] for i in generators if i in images]
    span = {}
    for k, v in enumerate(Q.vertices):
        rows = [row for image in stacked for row in image[k]]
        if rows:
            red, pivots = Mat(rows, len(rows), Y.dim(v)).rref()
            rows = red.rows[: len(pivots)]
        span[v] = Mat(rows, len(rows), Y.dim(v))
    return span


def _images_into(y, table):
    """(into, images, dominators) for entry ``y``, built on first use and
    kept in the oracle memo.

    ``into`` is the bitmask of the i with a nonzero Hom(i, y) basis.
    ``images[i]`` is the image of Hom(i, y) (`_image`).  ``dominators[j]``
    is the bitmask of the i whose image holds the image of j: strictly,
    or equally with i < j.  A subspace inside another has its pivot
    columns among the other's, so that test rejects most pairs before
    any row is reduced, and containment with equal pivot columns means
    equal images."""
    memo = table.memo.setdefault("oracle_images", {})
    if y not in memo:
        gens = [i for i in range(len(table.entries)) if table.hom_bases[i][y]]
        images = {i: _image(i, y, table) for i in gens}
        dominators = {}
        for j in gens:
            rows_j, _, signature_j = images[j]
            mask = 0
            for i in gens:
                rows_i, pivots_i, signature_i = images[i]
                if i == j or signature_j & ~signature_i:
                    continue
                if signature_i == signature_j and i > j:
                    continue
                if all(map(_inside, rows_j, rows_i, pivots_i)):
                    mask |= 1 << i
            dominators[j] = mask
        memo[y] = (sum(1 << i for i in gens), images, dominators)
    return memo[y]


def _image(i, y, table):
    """(rows, pivots, signature) of the image of Hom(i, y): per vertex
    the reduced rows of the span of the basis's columns, one `Mat.rref`
    each, and their pivot columns; ``signature`` has the pivot columns
    of all vertices as one bitmask, vertex blocks side by side."""
    Y = table.entries[y].rep
    rows_by_vertex = []
    pivots_by_vertex = []
    signature = 0
    offset = 0
    for v in table.quiver.vertices:
        columns = [c for f in table.hom_bases[i][y] for c in zip(*f[v].rows)]
        rows, pivots = [], []
        if columns:
            red, pivots = Mat(columns, len(columns), Y.dim(v)).rref()
            rows = red.rows[: len(pivots)]
            for p in pivots:
                signature |= 1 << (offset + p)
        rows_by_vertex.append(rows)
        pivots_by_vertex.append(pivots)
        offset += Y.dim(v)
    return tuple(rows_by_vertex), tuple(pivots_by_vertex), signature


def _inside(rows, reduced, pivots):
    """Whether every row of ``rows`` lies in the span of ``reduced``, the
    rows of a reduced row echelon form with those pivot columns: then a
    row r equals the sum of r[p] times the reduced row with pivot p."""
    for r in rows:
        rest = r
        for b, p in zip(reduced, pivots):
            if rest[p]:
                rest = [x - rest[p] * z for x, z in zip(rest, b)]
        if any(rest):
            return False
    return True


def sub_and_quotient(Y, span, table):
    """Representations on a subspace family closed under the arrow maps,
    and on its quotient, as (sub, quot).

    ``span[v]`` holds the reduced rows of the subspace at v, as
    `trace_subrepresentation` returns them.  A vector of the subspace
    has its coordinates at the rows' pivots.  Any vector of Y_v, once
    its pivot part is subtracted, has its quotient coordinates at the
    other columns: the unit vectors there are the quotient's basis."""
    Q = table.quiver
    pivots = {
        v: [next(c for c, x in enumerate(row) if x) for row in span[v].rows]
        for v in Q.vertices
    }
    others = {
        v: [c for c in range(Y.dim(v)) if c not in pivots[v]]
        for v in Q.vertices
    }
    proj = {v: _projection(span[v], pivots[v], others[v]) for v in Q.vertices}
    sub_maps = {}
    quot_maps = {}
    for a in Q.arrows:
        u, w = a.source, a.target
        m = Y.maps[a.name]
        image = m * span[u].transpose()
        if not (proj[w] * image).is_zero():
            raise ConsistencyError("trace is not closed under arrow maps")
        sub_maps[a.name] = Mat(
            [image.rows[p] for p in pivots[w]], len(pivots[w]), image.ncols
        )
        quot_maps[a.name] = Mat(
            [[row[c] for c in others[u]] for row in (proj[w] * m).rows],
            len(others[w]),
            len(others[u]),
        )
    sub = Representation(Q, {v: len(pivots[v]) for v in Q.vertices}, sub_maps)
    quot = Representation(Q, {v: len(others[v]) for v in Q.vertices}, quot_maps)
    return sub, quot


def _projection(span, pivots, others):
    """The map from Y_v onto the quotient coordinates, as a Mat: x goes
    to the entries at ``others`` of x minus its pivot part, the sum of
    x[p] times the reduced row with pivot p."""
    rows = []
    for c in others:
        row = [0] * span.ncols
        row[c] = 1
        for b, p in zip(span.rows, pivots):
            row[p] = -b[c]
        rows.append(row)
    return Mat(rows, len(rows), span.ncols)


def canonical_sequence_oracle(y, tp, table):
    """Trace subobject and quotient of entry ``y`` for the pair ``tp``,
    certified by Hom-vanishing on explicit representations.

    A certification failure means the input was not a torsion pair; the
    failing Hom space is reported as a falsification witness.  The
    torsion-pair axioms are checked on the first call for each distinct
    pair of (torsion, free) bitmasks; only a pair that passes is kept in
    the memo, so one that fails raises on every call.  The trace, its
    subobject and quotient, and each certifying Hom dimension are
    computed once per table and distinct trace (``_canonical_case``);
    the free and then the torsion modules are still checked on every
    call, in order, so the first failing witness is the same as without
    the memo.
    """
    checked = table.memo.setdefault("oracle_pairs", set())
    tmask = tp.torsion.mask
    if (tmask, tp.free.mask) not in checked:
        if not is_torsion_pair(tp, table):
            raise PreconditionError(
                "input does not satisfy the torsion-pair axioms"
            )
        checked.add((tmask, tp.free.mask))
    _trace, sub, quot, sub_into, into_quot = _canonical_case(y, tmask, table)
    entries = table.entries
    for members, certificate, solve, space in (
        (tp.free.mask, sub_into, lambda f: hom_space(sub, entries[f].rep),
         "Hom(trace({1}), {0})"),
        (tmask, into_quot, lambda t: hom_space(entries[t].rep, quot),
         "Hom({0}, {1}/trace)"),
    ):
        # solve the members in neither mask, up to the first nonzero one;
        # its dimension is solved again for the message
        for k in bits(members & ~certificate[0]):
            if certificate[1] >> k & 1 or solve(k)[0]:
                certificate[1] |= 1 << k
                space = space.format(entries[k].dimvec, entries[y].dimvec)
                raise ConsistencyError(
                    f"falsified: {space} has dimension {solve(k)[0]}"
                )
            certificate[0] |= 1 << k
    return sub, quot


def _canonical_case(y, tmask, table):
    """(trace, sub, quot, Hom(sub, f) certificate, Hom(t, quot)
    certificate) for the trace in entry ``y`` of the torsion class with
    bitmask ``tmask``; ``trace`` holds the per-vertex reduced rows.  A
    certificate is a [certified, nonzero] pair of module masks, the
    members f (or t) whose Hom space is solved zero or nonzero; both
    fill as the oracle asks, and cases whose subobjects (or quotients)
    have the same dimensions and matrices share them.

    The trace is the sum of the images of Hom(i, y) over the members i,
    so it depends only on the members with a nonzero Hom basis into y,
    and not on a member whose image lies in another member's.  Level one
    of the memo maps (y, mask of members) to the case of their trace:
    first the mask of the members with a Hom basis into y, then, when
    that misses, the same mask less every member another one dominates
    (`_images_into`); the trace is built only when both miss.  Level two
    maps (y, the trace's per-vertex reduced rows), which are equal
    exactly when the subspaces are, to the case, so classes with equal
    traces share one.  The masks read ``hom_bases``, as the trace does,
    and not ``hom``, which a patched table may contradict."""
    traces = table.memo.setdefault("oracle_traces", {})
    into, _images, dominators = _images_into(y, table)
    key = (y, tmask & into)
    case = traces.get(key)
    if case is None:
        kept = key[1]
        for j in bits(key[1]):
            if dominators[j] & key[1]:
                kept ^= 1 << j
        reduced = (y, kept)
        case = traces.get(reduced)
        if case is None:
            span = trace_subrepresentation(y, bits(reduced[1]), table)
            trace = tuple(span[v] for v in table.quiver.vertices)
            cases = table.memo.setdefault("oracle_cases", {})
            case = cases.get((y, trace))
            if case is None:
                sub, quot = sub_and_quotient(table.entries[y].rep, span, table)
                solved = table.memo.setdefault("oracle_certificates", {})
                case = cases[y, trace] = (
                    trace,
                    sub,
                    quot,
                    solved.setdefault(("sub", _value(sub)), [0, 0]),
                    solved.setdefault(("quot", _value(quot)), [0, 0]),
                )
            traces[reduced] = case
        traces[key] = case
    return case


def _value(rep):
    """A representation's dimensions and arrow matrices, as a dict key."""
    Q = rep.quiver
    return (
        tuple(rep.dim(v) for v in Q.vertices),
        tuple(rep.maps[a.name] for a in Q.arrows),
    )


def forget_oracle_memo(table):
    """Drop the oracle's memo entries, named ``oracle_*``, from ``table``."""
    for key in [k for k in table.memo if str(k).startswith("oracle_")]:
        del table.memo[key]


# ---------------------------------------------------------------------------
# JSON emission
# ---------------------------------------------------------------------------


def pair_to_json(tp, table):
    return {
        "torsion": [list(table.entries[i].dimvec) for i in tp.torsion],
        "free": [list(table.entries[j].dimvec) for j in tp.free],
        "split": tp.split,
    }
