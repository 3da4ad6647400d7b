"""Windowed model of the bounded derived category of a Dynkin quiver.

Every object is a stalk: an indecomposable module placed in a single
degree.  Hom spaces live only in degree gaps 0 (module Hom) and 1 (module
Ext), the AR translate becomes a total bijection, and the derived AR
quiver is the module AR quiver in each degree glued by cross-degree
arrows from injectives to projectives one degree up.  The cross-degree
arrows are validated against rad/rad^2 of explicit extension classes, so
a wrong gluing rule aborts the build instead of propagating.

``HomMasks`` is the core that both derived models (Dynkin tables here,
the Kronecker model in ``aisles.kronecker``) answer Hom-vanishing,
reachability and split-aisle questions with: one bitmask per window
object of the objects it has a nonzero morphism to.  It reads a
module-category context (``TableContext`` for tables) and is built once
per model and window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .errors import ConsistencyError, ShapeError, UnsupportedError
from .extspace import ExtMachine
from .torsion import _bits

# The Hom masks take time and memory quadratic in the window objects, and
# every verifier walks them.  E8 over the default window has 720 objects,
# the 4-tube Kronecker benchmark model 228.
MAX_WINDOW_OBJECTS = 2_000


@dataclass(frozen=True, order=True)
class DerivedObject:
    """A stalk object: indecomposable ``indec`` placed in ``degree``."""

    indec: int
    degree: int

    def label(self, table):
        return f"{list(table.entries[self.indec].dimvec)}@{self.degree}"


@dataclass(frozen=True)
class Window:
    lo: int
    hi: int

    def __post_init__(self):
        if not (self.lo <= 0 <= self.hi):
            raise ShapeError("window must contain degree 0")
        if self.hi - self.lo < 2:
            raise ShapeError("window needs at least three degrees")

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def interior(self):
        return range(self.lo + 1, self.hi)

    def contains(self, obj):
        return self.lo <= obj.degree <= self.hi

    def is_interior(self, obj):
        return self.lo < obj.degree < self.hi


DEFAULT_WINDOW = Window(-2, 3)


@dataclass(frozen=True)
class DerivedSubcategory:
    """A set of windowed derived objects, possibly saturated beyond the
    window by the two tail flags."""

    window: Window
    members: frozenset
    upper_tail: bool = False
    lower_tail: bool = False

    def __post_init__(self):
        for x in self.members:
            if not self.window.contains(x):
                raise ShapeError(f"member {x} outside the window")

    def __contains__(self, obj):
        if obj.degree > self.window.hi:
            return self.upper_tail
        if obj.degree < self.window.lo:
            return self.lower_tail
        return obj in self.members

    def at_degree(self, d):
        return {x for x in self.members if x.degree == d}

    def saturated_above(self, table):
        """Every object at the top window degree is a member."""
        top = {DerivedObject(i, self.window.hi) for i in range(len(table.entries))}
        return top <= self.members

    def saturated_below(self, table):
        bot = {DerivedObject(i, self.window.lo) for i in range(len(table.entries))}
        return bot <= self.members

    def validate(self, table):
        if self.upper_tail and not self.saturated_above(table):
            raise ShapeError("upper tail set but top degree not saturated")
        if self.lower_tail and not self.saturated_below(table):
            raise ShapeError("lower tail set but bottom degree not saturated")


def check_window_objects(window, per_degree):
    """Refuse a window whose object count exceeds ``MAX_WINDOW_OBJECTS``;
    called with the module count before anything is built."""
    count = per_degree * (window.hi - window.lo + 1)
    if count > MAX_WINDOW_OBJECTS:
        raise UnsupportedError(
            f"{count} window objects exceed MAX_WINDOW_OBJECTS = "
            f"{MAX_WINDOW_OBJECTS}; use a narrower window or a smaller model"
        )


def all_objects(table, window):
    return [
        DerivedObject(i, d)
        for d in window.degrees()
        for i in range(len(table.entries))
    ]


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


def tau_inverse_derived(X, table):
    e = table.entries[X.indec]
    if e.tau_inverse is not None:
        return DerivedObject(e.tau_inverse, X.degree)
    proj = table.projective_by_vertex(e.inj_vertex)
    return DerivedObject(proj.id, X.degree + 1)


def tau_orbits(table, window):
    """Partition of the windowed objects into tau-orbit lines."""
    seen = set()
    orbits = []
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
    return orbits


def _cross_arrow_pairs(table):
    """Module-level pairs (i, j) with an irreducible extension class:
    i an injective I_w, j the projective P_v for each quiver arrow w -> v
    (the mesh middle of P_v one degree up is rad P_v plus I_v/soc)."""
    pairs = set()
    for a in table.quiver.arrows:
        iw = table.injective_by_vertex(a.source)
        pv = table.projective_by_vertex(a.target)
        pairs.add((iw.id, pv.id))
    return pairs


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
    """The validated cross-degree arrow pairs, kept in the table's memo so
    the validation runs once per table and the result dies with it."""
    if "cross_arrow_pairs" not in table.memo:
        pairs = _cross_arrow_pairs(table)
        _validate_cross_arrows(table, pairs)
        table.memo["cross_arrow_pairs"] = pairs
    return table.memo["cross_arrow_pairs"]


def derived_ar_arrows(table, window):
    """AR arrows of the windowed derived category: the module AR quiver
    in every degree plus the validated cross-degree arrows.  Every mesh
    whose translate lies in the window is checked for completeness, once
    per table and window."""
    key = ("ar_arrows", window)
    if key not in table.memo:
        table.memo[key] = _derived_ar_arrows(table, window)
    return table.memo[key]


def _derived_ar_arrows(table, window):
    cross = cross_arrow_pairs(table)
    arrows = []
    for d in window.degrees():
        for (s, t) in table.ar_arrows:
            arrows.append((DerivedObject(s, d), DerivedObject(t, d)))
        if d < window.hi:
            for (i, j) in cross:
                arrows.append((DerivedObject(i, d), DerivedObject(j, d + 1)))
    arrows.sort()
    _check_meshes(table, window, arrows)
    return arrows


def _check_meshes(table, window, arrows):
    ins = {}
    outs = {}
    for (x, y) in arrows:
        ins.setdefault(y, set()).add(x)
        outs.setdefault(x, set()).add(y)
    for d in window.interior():
        for i in range(len(table.entries)):
            z = DerivedObject(i, d)
            tz = tau_derived(z, table)
            if not window.is_interior(tz):
                continue
            if ins.get(z, set()) != outs.get(tz, set()):
                raise ConsistencyError(f"incomplete derived mesh at {z}")


# ---------------------------------------------------------------------------
# The Hom-mask core
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableContext:
    """Module-category view of a Dynkin IndecTable: module objects are
    table ids, placed in a degree as stalk ``DerivedObject``s."""

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

    def rank(self):
        return len(self.table.quiver.vertices)

    def is_projective(self, x):
        return self.table.entries[x].is_projective

    def name(self, x):
        return str(list(self.table.entries[x].dimvec))

    def near_boundary(self, x):
        return False


class HomMasks:
    """Nonzero-morphism bitmasks of the objects of one window.

    ``context`` is a module-category view with ``objects()``,
    ``hom(x, y)``, ``ext(x, y)``, ``at(x, degree)`` and a ``memo`` dict.
    Window object k is module object k % n in degree lo + k // n, the
    order of ``all_objects`` and ``TameModel.objects()``.  Bit l of
    ``out[k]`` is set when object k has a nonzero morphism to object l:
    module Hom in degree gap 0, module Ext in gap 1, nothing otherwise.
    This is the only place where a verifier applies that gap rule.
    """

    def __init__(self, context, window):
        modules = context.objects()
        n = len(modules)
        check_window_objects(window, n)
        self.window = window
        self.n = n
        self.modules = modules
        self.objects = [context.at(x, d) for d in window.degrees() for x in modules]
        self.index = {x: k for k, x in enumerate(self.objects)}
        self.full = (1 << len(self.objects)) - 1
        hom_row = [_row(context.hom, x, modules) for x in modules]
        ext_row = [_row(context.ext, x, modules) for x in modules]
        self.out = []
        for base in range(0, len(self.objects), n):
            for i in range(n):
                gaps = hom_row[i] | ext_row[i] << n
                self.out.append((gaps << base) & self.full)

    def mask(self, objects):
        out = 0
        for x in objects:
            out |= 1 << self.index[x]
        return out

    def members(self, mask):
        return [self.objects[k] for k in _bits(mask)]

    def above(self, modules, degree):
        """The module objects numbered in ``modules``, in every window
        degree from ``degree`` up."""
        out = 0
        for base in range(max(degree - self.window.lo, 0) * self.n,
                          len(self.objects), self.n):
            for i in modules:
                out |= 1 << (base + i)
        return out

    def shift(self, mask, s):
        """The mask moved ``s`` degrees up, cut to the window."""
        step = s * self.n
        return (mask << step) & self.full if step >= 0 else mask >> -step

    def targets(self, mask):
        """Objects with a nonzero morphism from some object of ``mask``."""
        out = 0
        for k in _bits(mask):
            out |= self.out[k]
        return out

    def witness(self, sources, targets):
        """The first (k, l) in window order, k in ``sources`` and l in
        ``targets``, with a nonzero morphism from k to l; or None."""
        for k in _bits(sources):
            hit = self.out[k] & targets
            if hit:
                return k, (hit & -hit).bit_length() - 1
        return None

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
    def semipath_successors(self):
        """Successors in the semipath graph, in search order: the shift
        first, then the other Hom targets in window order.  All edges
        keep or raise the degree, so the window loses no semipath
        between its own objects."""
        size, n = len(self.objects), self.n
        return [
            ([k + n] if k + n < size else []) + _bits(self.out[k] & ~(1 << k))
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


def _row(rule, x, modules):
    return sum(1 << j for j, y in enumerate(modules) if rule(x, y) != 0)


def hom_masks(context, window):
    """The ``HomMasks`` of a model and window, built once and kept in the
    model's memo (a table copied with ``dataclasses.replace`` starts with
    an empty one)."""
    key = ("hom_masks", window)
    if key not in context.memo:
        context.memo[key] = HomMasks(context, window)
    return context.memo[key]


def breadth_first(succ, sources, parent):
    """Window indices reachable from ``sources`` along ``succ`` (index ->
    successor indices), yielded in breadth-first order; ``parent`` gets
    each one's predecessor, None for the sources."""
    queue = deque()
    for k in sources:
        if k not in parent:
            parent[k] = None
            queue.append(k)
    while queue:
        k = queue.popleft()
        yield k
        for j in succ[k]:
            if j not in parent:
                parent[j] = k
                queue.append(j)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def export_dot(table, window, coloring=None, name="derived_ar"):
    """GraphViz rendering of the windowed derived AR quiver.

    ``coloring`` is an optional DerivedSubcategory; its members are drawn
    filled, the complement plain."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for x in sorted(all_objects(table, window)):
        attrs = [f'label="{x.label(table)}"']
        if coloring is not None and x in coloring:
            attrs.append('style=filled fillcolor=lightblue')
        lines.append(f'  "n{x.indec}_{x.degree}" [{" ".join(attrs)}];')
    for (x, y) in derived_ar_arrows(table, window):
        lines.append(
            f'  "n{x.indec}_{x.degree}" -> "n{y.indec}_{y.degree}";'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
