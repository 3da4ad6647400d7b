"""Windowed model of the bounded derived category of a Dynkin quiver.

Every object is a stalk: an indecomposable module placed in a single
degree.  Hom spaces live only in degree gaps 0 (module Hom) and 1 (module
Ext), the AR translate becomes a total bijection, and the derived AR
quiver is the module AR quiver in each degree glued by cross-degree
arrows from injectives to projectives one degree up.  The cross-degree
arrows are validated against rad/rad^2 of explicit extension classes, so
a wrong gluing rule aborts the build instead of propagating.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError, ShapeError
from .extspace import ExtMachine


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


def all_objects(table, window):
    return [
        DerivedObject(i, d)
        for d in window.degrees()
        for i in range(len(table.entries))
    ]


def hom_derived(X, Y, table):
    """Morphism-space dimension between stalk objects.

    Module Hom in degree gap 0, module Ext in gap 1, zero otherwise
    (hereditary: no higher Ext groups)."""
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
        orbit = [x]
        seen.add(x)
        cur = x
        while True:
            cur = tau_derived(cur, table)
            if not window.contains(cur) or cur in seen:
                break
            orbit.append(cur)
            seen.add(cur)
        cur = x
        while True:
            cur = tau_inverse_derived(cur, table)
            if not window.contains(cur) or cur in seen:
                break
            orbit.append(cur)
            seen.add(cur)
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
    whose translate lies in the window is checked for completeness."""
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


def arrows_from(arrows, x):
    return [y for (s, y) in arrows if s == x]


def arrows_into(arrows, y):
    return [x for (x, t) in arrows if t == y]


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
