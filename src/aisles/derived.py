"""Windowed model of the bounded derived category of a Dynkin quiver.

Every object is a stalk: an indecomposable module placed in a single
degree.  Hom spaces live only in degree gaps 0 (module Hom) and 1 (module
Ext), the AR translate becomes a total bijection, and the derived AR
quiver ZQ^op is the module AR quiver in each degree glued by the
arrows I_w[d] -> P_v[d+1] of ``repcore.gluing_pairs``, kept as successor
rows over the window objects like the Hom masks.  Both kinds of arrow
are proved once per table by the derived mesh rule (``ar_arrows`` of
the table); the gluing is also validated against rad/rad^2 of explicit
extension classes (``aisles.extspace``: Ext^1 as the cokernel of the Hom
system).

``module_relation`` says once per model which module pairs have a
nonzero Hom or Ext, as bitmasks; it is the only reader of a context's
``hom`` and ``ext`` (``TableContext`` for tables), and torsion, the Hom
masks and transport all read it.  ``split_gap`` is the one split rule.

``HomMasks`` is the core that both derived models (Dynkin tables here,
the Kronecker model in ``aisles.kronecker``) lift torsion pairs and
answer Hom-vanishing, reachability, shift-closure, Ext-projectivity and
split-aisle questions with: one bitmask per window object of the objects
it has a nonzero morphism to, plus the window index of its translate.
It is built once per model and window from the module relation and the
context's translate and object labels.  Every derived subcategory is a
window mask, bit (d - lo)·n + i for module i in degree d: aisles and
coaisles, hearts, Ext-projectives, sections, successor cones and the
``export_dot`` coloring; a degree-0 trace is a mask's ``part``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import NamedTuple

from .errors import ConsistencyError, ShapeError, UnsupportedError
from .extspace import ExtMachine
from .repcore import gluing_pairs

# The Hom masks take time and memory quadratic in the window objects, and
# every verifier walks them.  E8 over the default window has 720 objects,
# the 4-tube Kronecker benchmark model 228.
MAX_WINDOW_OBJECTS = 2_000


class DerivedObject(NamedTuple):
    """A stalk object: indecomposable ``indec`` placed in ``degree``."""

    indec: int
    degree: int

    def label(self, table):
        return f"{list(table.entries[self.indec].dimvec)}@{self.degree}"


class _WindowFields(NamedTuple):
    lo: int
    hi: int


class Window(_WindowFields):
    __slots__ = ()

    def __new__(cls, lo, hi):
        if not (lo <= 0 <= hi):
            raise ShapeError("window must contain degree 0")
        if hi - lo < 2:
            raise ShapeError("window needs at least three degrees")
        return tuple.__new__(cls, (lo, hi))

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def interior(self):
        return range(self.lo + 1, self.hi)

    def contains(self, obj):
        return self.lo <= obj.degree <= self.hi


DEFAULT_WINDOW = Window(-2, 3)


def check_window_objects(window, per_degree):
    """Refuse a window whose object count exceeds ``MAX_WINDOW_OBJECTS``;
    called with the module count before anything is built."""
    count = per_degree * (window.hi - window.lo + 1)
    if count > MAX_WINDOW_OBJECTS:
        raise UnsupportedError(
            f"{count} window objects exceed MAX_WINDOW_OBJECTS = "
            f"{MAX_WINDOW_OBJECTS}; use a narrower window or a smaller model"
        )


def coloring_mask(table, window, members):
    """The ``HomMasks`` window mask of the (indecomposable, degree) pairs
    ``members``, the coloring of ``export_dot``.  A mask has no tails, so
    a member outside the window is refused, named by its label."""
    masks = hom_masks(TableContext(table), window)
    mask = 0
    for i, d in members:
        if not window.lo <= d <= window.hi:
            raise ShapeError(
                f"member {DerivedObject(i, d).label(table)} outside the "
                f"window {window.lo}..{window.hi}"
            )
        mask |= masks.place(1 << i, d)
    return mask


def hom_derived(X, Y, table):
    """Morphism-space dimension between stalk objects.

    Module Hom in degree gap 0, module Ext in gap 1, zero otherwise
    (hereditary: no higher Ext groups).  The reference rule: verifiers
    ask ``HomMasks``, and the tests check the masks against this."""
    gap = Y.degree - X.degree
    if gap == 0:
        return table.hom[X.indec][Y.indec]
    if gap == 1:
        return table.ext[X.indec][Y.indec]
    return 0


def shift(X, s):
    return DerivedObject(X.indec, X.degree + s)


def tau_derived(X, table):
    """The AR translate as a total bijection: module tau where defined,
    projectives wrap to the matching injective one degree down."""
    e = table.entries[X.indec]
    if e.tau is not None:
        return DerivedObject(e.tau, X.degree)
    inj = table.injective_by_vertex(e.proj_vertex)
    return DerivedObject(inj.id, X.degree - 1)


def _validate_cross_arrows(table, pairs):
    """Cross-check the gluing rule against rad/rad^2 of explicit
    extension classes for every module pair."""
    machine = ExtMachine(table)
    n = len(table.entries)
    for i in range(n):
        for j in range(n):
            irr = machine.irreducible_ext_dim(i, j)
            if irr not in (0, 1):
                raise ConsistencyError(
                    f"cross-degree arrow multiplicity {irr} at ({i}, {j})"
                )
            if (irr == 1) != ((i, j) in pairs):
                raise ConsistencyError(
                    f"cross-degree gluing rule disagrees with rad/rad^2 "
                    f"of extension classes at ({i}, {j})"
                )


def cross_arrow_pairs(table):
    """The validated gluing pairs (``repcore.gluing_pairs``), kept in the
    table's memo so the validation runs once per table and the result
    dies with it."""
    if "cross_arrow_pairs" not in table.memo:
        pairs = gluing_pairs(table)
        _validate_cross_arrows(table, pairs)
        table.memo["cross_arrow_pairs"] = pairs
    return table.memo["cross_arrow_pairs"]


def derived_ar_arrows(table, window):
    """The successor rows of the windowed derived AR quiver: per window
    index, the mask of the window indices its arrows point to.  These
    are the module AR arrows in every degree and the validated gluing
    arrows from each degree to the next, both proved by the derived mesh
    rule when the table's ``ar_arrows`` are first read."""
    arrows = table.ar_arrows
    cross = cross_arrow_pairs(table)
    masks = hom_masks(TableContext(table), window)
    n = masks.n
    succ = [0] * len(masks.objects)
    for base in range(0, len(succ), n):
        for s, t in arrows:
            succ[base + s] |= 1 << base + t
        if base + n < len(succ):
            for i, j in cross:
                succ[base + i] |= 1 << base + n + j
    return succ


def ar_adjacency(table, window):
    """The ``derived_ar_arrows`` rows, built once per table and window and
    kept in the table's memo."""
    key = ("ar_adjacency", window)
    if key not in table.memo:
        table.memo[key] = derived_ar_arrows(table, window)
    return table.memo[key]


# ---------------------------------------------------------------------------
# The Hom-mask core
# ---------------------------------------------------------------------------


class TableContext(NamedTuple):
    """Module-category view of a Dynkin IndecTable: module objects are
    table ids, placed in a degree as stalk ``DerivedObject``s.  ``tau``
    and ``label`` take such window objects."""

    table: object

    @property
    def memo(self):
        return self.table.memo

    def objects(self):
        return list(range(len(self.table.entries)))

    def at(self, x, degree):
        return DerivedObject(x, degree)

    def hom(self, x, y):
        return self.table.hom[x][y]

    def ext(self, x, y):
        return self.table.ext[x][y]

    def tau(self, obj):
        return tau_derived(obj, self.table)

    def label(self, obj):
        return obj.label(self.table)

    def rank(self):
        return len(self.table.quiver.vertices)

    def is_projective(self, x):
        return self.table.entries[x].is_projective

    def name(self, x):
        return str(list(self.table.entries[x].dimvec))

    def components(self):
        """A Dynkin module category is one finite component: no part of
        it is pinned to either side of an admissible pair, and the
        degree-0 layer of a heart is all postprojective."""
        return Components(0, 0, 0)

    def check_components(self, hm):
        """Nothing to check: P_A is the whole degree-0 heart."""


class Components(NamedTuple):
    """Module masks, in the module order of ``HomMasks``, of the parts
    that decide admissibility in a model.  An admissible base pair puts
    every preinjective in the torsion class and every postprojective in
    the torsion-free class; the tilted heart reads its preinjective and
    regular components off the degree-0 torsion layer."""

    preinjective: int
    postprojective: int
    regular: int


def bits(mask):
    """The set bits of ``mask``, lowest first."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def lowest(mask):
    """The lowest set bit of ``mask``, or None when it is 0."""
    return (mask & -mask).bit_length() - 1 if mask else None


def union(rows, mask):
    """The OR of ``rows[k]`` over the set bits k of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def split_gap(whole, torsion, free):
    """The lowest index where ``torsion | free`` and ``whole`` differ:
    None exactly when the pair is split over ``whole``."""
    return lowest((torsion | free) ^ whole)


class ModuleRelation(NamedTuple):
    """Which module objects of a model have a nonzero Hom or Ext, as
    bitmasks over ``modules`` (``context.objects()``, in order): bit l
    of ``hom[k]`` (of ``ext[k]``) is set when Hom(k, l) (Ext(k, l)) is
    nonzero, and ``into`` is the transpose of ``hom``."""

    modules: list
    index: dict
    full: int
    hom: list
    ext: list
    into: list

    def mask(self, objects):
        return sum(1 << self.index[x] for x in objects)

    def right_perp(self, mask):
        """The modules no member of ``mask`` has a nonzero Hom to."""
        return self.full & ~union(self.hom, mask)

    def left_perp(self, mask):
        """The modules with no nonzero Hom to any member of ``mask``."""
        return self.full & ~union(self.into, mask)


def module_relation(context):
    """The ``ModuleRelation`` of a model, built once and kept in its memo:
    the only reader of the context's ``hom`` and ``ext`` rules."""
    if "module_relation" not in context.memo:
        modules = context.objects()
        n = len(modules)
        hom, ext = (
            [_row(rule, x, modules) for x in modules]
            for rule in (context.hom, context.ext)
        )
        into = [sum(1 << k for k in range(n) if hom[k] >> j & 1) for j in range(n)]
        index = {x: k for k, x in enumerate(modules)}
        context.memo["module_relation"] = ModuleRelation(
            modules, index, (1 << n) - 1, hom, ext, into
        )
    return context.memo["module_relation"]


def _row(rule, x, modules):
    return sum(1 << j for j, y in enumerate(modules) if rule(x, y) != 0)


class HomMasks:
    """Nonzero-morphism bitmasks of the objects of one window.

    ``context`` is a module-category view with ``objects()``,
    ``hom(x, y)``, ``ext(x, y)``, ``at(x, degree)`` and a ``memo`` dict,
    and on window objects ``tau(obj)`` (None when the translate is not
    represented) and ``label(obj)``.  Window object k is module object
    k % n in degree lo + k // n, the order of ``TameModel.objects()``.
    Bit l of ``out[k]`` is set when object k has a nonzero morphism to
    object l, read off the model's ``module_relation``: module Hom in
    degree gap 0, module Ext in gap 1, nothing otherwise.  This is the
    only place where a verifier applies that gap rule.  ``tau[k]`` is the
    window index of the translate of object k, or None when it lies
    outside the window or is not represented.
    """

    def __init__(self, context, window):
        relation = module_relation(context)
        modules = relation.modules
        n = len(modules)
        check_window_objects(window, n)
        self.context = context
        self.window = window
        self.n = n
        self.modules = modules
        self.objects = [context.at(x, d) for d in window.degrees() for x in modules]
        self.index = {x: k for k, x in enumerate(self.objects)}
        self.full = (1 << len(self.objects)) - 1
        # the objects strictly inside the window's degrees
        self.interior = ((1 << len(self.objects) - 2 * n) - 1) << n
        self.tau = [self.index.get(context.tau(x)) for x in self.objects]
        self._ext_projectives = {}  # aisle mask -> Ext-projective mask
        self.out = []
        for base in range(0, len(self.objects), n):
            for i in range(n):
                gaps = relation.hom[i] | relation.ext[i] << n
                self.out.append((gaps << base) & self.full)

    def members(self, mask):
        return [self.objects[k] for k in bits(mask)]

    def place(self, modules, degree):
        """The module mask ``modules`` (bit i: module object i) as the
        window mask of those objects in one degree; 0 when the degree
        lies outside the window."""
        if not self.window.lo <= degree <= self.window.hi:
            return 0
        return modules << (degree - self.window.lo) * self.n

    def above(self, modules, degree):
        """The module mask ``modules`` placed in every window degree from
        ``degree`` up."""
        return sum(self.place(modules, d) for d in range(degree, self.window.hi + 1))

    def part(self, mask, degree):
        """The members of ``mask`` in one window degree, as a module
        mask."""
        return mask >> (degree - self.window.lo) * self.n & (1 << self.n) - 1

    def translate(self, mask):
        """The translates of the members of ``mask``, each of which must
        lie in the window (as those of interior objects do)."""
        return sum(1 << self.tau[k] for k in bits(mask))

    def lift(self, torsion, free, pivot):
        """The aisle, coaisle and heart of the t-structure lifted from the
        module masks ``torsion`` and ``free`` at window degree ``pivot``:
        the aisle is ``torsion`` in degree ``pivot`` and every object
        above it, the coaisle ``free`` in degree ``pivot`` and every
        object below it, the heart ``torsion`` in degree ``pivot`` and
        ``free`` one degree up, past the window at the top pivot."""
        if not self.window.lo <= pivot <= self.window.hi:
            raise ShapeError(f"pivot degree {pivot} outside the window")
        cut = (pivot - self.window.lo) * self.n
        above = (self.full >> cut + self.n) << cut + self.n
        heart = torsion << cut | free << cut + self.n
        return torsion << cut | above, free << cut | (1 << cut) - 1, heart

    def shift(self, mask, s):
        """The mask moved ``s`` degrees up, cut to the window."""
        step = s * self.n
        return (mask << step) & self.full if step >= 0 else mask >> -step

    def targets(self, mask):
        """Objects with a nonzero morphism from some object of ``mask``."""
        return union(self.out, mask)

    def witness(self, sources, targets):
        """The first (k, l) in window order, k in ``sources`` and l in
        ``targets``, with a nonzero morphism from k to l; or None."""
        for k in bits(sources):
            hit = self.out[k] & targets
            if hit:
                return k, lowest(hit)
        return None

    def shift_escape(self, mask):
        """The first member of ``mask`` below the top degree whose shift
        is not in ``mask``, as a window index; None when the mask is
        closed under shift inside the window."""
        missing = self.shift(mask, 1) & ~mask
        return lowest(missing) - self.n if missing else None

    def ext_projectives(self, aisle):
        """The interior members of ``aisle`` with no extensions into it,
        as a mask.

        Computed by the translate criterion (the translate lands in the
        right orthogonal) and cross-checked against the defining
        Hom-vanishing into the shifted aisle; disagreement aborts.  A
        member whose translate is not represented is skipped.  Each
        distinct aisle is computed once and its result kept."""
        if aisle not in self._ext_projectives:
            self._ext_projectives[aisle] = self._compute_ext_projectives(aisle)
        return self._ext_projectives[aisle]

    def _compute_ext_projectives(self, aisle):
        reached = self.targets(aisle)
        shifted = self.shift(aisle, 1)
        out = 0
        for k in bits(aisle & self.interior):
            t = self.tau[k]
            if t is None:
                continue
            by_tau = not (reached >> t) & 1
            by_def = not self.out[k] & shifted
            if by_tau != by_def:
                raise ConsistencyError(
                    "Ext-projectivity criteria disagree at "
                    f"{self.context.label(self.objects[k])}"
                )
            if by_tau:
                out |= 1 << k
        return out

    def orthogonal_unions(self, families):
        """Split-aisle scan.  ``families`` lists, per group of objects,
        its choices as (label, mask) pairs; returns the label tuple of
        every choice of one entry per family, in ``itertools.product``
        order, whose union has no nonzero morphism to its complement."""
        reached = [[(t, m, self.targets(m)) for t, m in f] for f in families]
        found = []
        for combo in product(*reached):
            inside = hit = 0
            for _t, m, r in combo:
                inside |= m
                hit |= r
            if not hit & ~inside:
                found.append(tuple(t for t, _m, _r in combo))
        return found

    @cached_property
    def orbit_ends(self):
        """Per window index, the one-bit mask of the tau-most object of
        its tau-orbit in the window, and the mask of every such end, one
        per orbit.  The translate never raises the degree, so an orbit
        meets the window in one unbroken run."""
        ends = []
        for end in range(len(self.objects)):
            while self.tau[end] is not None:
                end = self.tau[end]
            ends.append(1 << end)
        return ends, union(ends, self.full)

    @cached_property
    def semipath_successors(self):
        """Successors in the semipath graph, in search order: the shift
        first, then the other Hom targets in window order.  All edges
        keep or raise the degree, so the window loses no semipath
        between its own objects."""
        size, n = len(self.objects), self.n
        return [
            ([k + n] if k + n < size else []) + bits(self.out[k] & ~(1 << k))
            for k in range(size)
        ]

    @cached_property
    def semipath_reach(self):
        """reach[k]: the ends of the semipaths of positive length from k,
        by one transitive closure (Warshall on bitmasks)."""
        reach = [sum(1 << j for j in succ) for succ in self.semipath_successors]
        for j in range(len(reach)):
            bit, rj = 1 << j, reach[j]
            for i, ri in enumerate(reach):
                if ri & bit:
                    reach[i] = ri | rj
        return reach


def hom_masks(context, window):
    """The ``HomMasks`` of a model and window, built once and kept in the
    model's memo (an `IndecTable.copy` starts with an empty one)."""
    key = ("hom_masks", window)
    if key not in context.memo:
        context.memo[key] = HomMasks(context, window)
    return context.memo[key]


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def export_dot(table, window, coloring=0):
    """GraphViz rendering of the windowed derived AR quiver: its objects,
    then the arrows of its successor rows, both in (indec, degree) order.

    ``coloring`` is a window mask (``coloring_mask``); its members are
    drawn filled, the complement plain."""
    objects = hom_masks(TableContext(table), window).objects
    succ = ar_adjacency(table, window)
    order = sorted(range(len(objects)), key=lambda k: objects[k])
    node = [f'"n{x.indec}_{x.degree}"' for x in objects]
    lines = ["digraph derived_ar {", "  rankdir=LR;"]
    for k in order:
        attrs = [f'label="{objects[k].label(table)}"']
        if coloring >> k & 1:
            attrs.append('style=filled fillcolor=lightblue')
        lines.append(f'  {node[k]} [{" ".join(attrs)}];')
    for k in order:
        for m in sorted(bits(succ[k]), key=lambda m: objects[m]):
            lines.append(f"  {node[k]} -> {node[m]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
