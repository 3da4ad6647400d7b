"""Quivers: finite directed graphs with named vertices and arrows.

The text format accepted by :func:`load_quiver` has one declaration per
line::

    vertex 1
    vertex 2
    arrow a: 1 -> 2

Blank lines and ``#`` comments are ignored.  Unrecognized lines,
duplicate vertices or arrows, unknown arrow ends and loops are rejected
naming the offending line; directed cycles and disconnected underlying
graphs, which no single line causes, are rejected naming none, all in
O((n + m) log n) time for n vertices and m arrows.  ``BUILTIN_QUIVERS``
builds each builtin from its edge list by `quiver_from_edges`.
"""

from __future__ import annotations

import re
from collections import deque
from functools import cached_property, partial
from heapq import heappop, heappush
from itertools import repeat
from math import comb
from typing import NamedTuple

from .errors import QuiverLoadError, UnsupportedError

_ARROW_RE = re.compile(r"^arrow\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$")
_VERTEX_RE = re.compile(r"^vertex\s+(\S+)$")


class Arrow(NamedTuple):
    name: str
    source: str
    target: str


class Quiver:
    """A finite acyclic connected quiver.

    ``vertices`` fixes the canonical coordinate order used by every
    dimension vector over this quiver.  ``_checked`` skips `validate`,
    for callers that validate themselves or derive from a valid quiver.
    Equal and hashed by value; the arrows at each vertex and the quivers
    reversed at a vertex are kept on first use, the plan a Coxeter walk
    reads in every round, and so are the underlying graph and the Dynkin
    type, so ``vertices`` and ``arrows`` are not to be reassigned.
    """

    def __init__(self, vertices, arrows, name="", _checked=False):
        self.vertices = vertices
        self.arrows = arrows
        self.name = name
        self._reversed = {}  # v -> this quiver reversed at v, once built
        if not _checked:
            self.validate()

    def __eq__(self, other):
        if type(other) is not Quiver:
            return NotImplemented
        return (self.vertices, self.arrows, self.name) == (
            other.vertices, other.arrows, other.name
        )

    def __hash__(self):
        return hash((self.vertices, self.arrows, self.name))

    def validate(self, vertex_lines=None, arrow_lines=None):
        """Raise QuiverLoadError on the faults the module docstring lists,
        naming the declaring line from ``vertex_lines``/``arrow_lines``
        (one number per vertex/arrow) when one declaration is at fault."""
        seen = set()
        for v, line in zip(self.vertices, vertex_lines or repeat(None)):
            if v in seen:
                raise QuiverLoadError(f"duplicate vertex {v!r}", line=line)
            seen.add(v)
        anames = set()
        for a, line in zip(self.arrows, arrow_lines or repeat(None)):
            if a.name in anames:
                raise QuiverLoadError(f"duplicate arrow {a.name!r}", line=line)
            anames.add(a.name)
            for end in (a.source, a.target):
                if end not in seen:
                    raise QuiverLoadError(
                        f"arrow {a.name!r} uses unknown vertex {end!r}",
                        line=line,
                    )
            if a.source == a.target:
                raise QuiverLoadError(f"arrow {a.name!r} is a loop", line=line)
        if len(self.sink_ordering()) != len(self.vertices):
            raise QuiverLoadError("quiver has a directed cycle")
        if self.vertices and not self._is_connected():
            raise QuiverLoadError("underlying graph is not connected")

    # -- basic structure ---------------------------------------------------

    @cached_property
    def _incident(self):
        """{v: (arrows into v, arrows from v)}, in arrow order: the arrow
        list scanned once."""
        into = {v: [] for v in self.vertices}
        out = {v: [] for v in self.vertices}
        for a in self.arrows:
            into[a.target].append(a)
            out[a.source].append(a)
        return {v: (tuple(into[v]), tuple(out[v])) for v in self.vertices}

    @cached_property
    def arrow_ends(self):
        """(index of the source, index of the target) of each arrow, in
        arrow order: the positions of its ends in ``vertices``."""
        index = {v: k for k, v in enumerate(self.vertices)}
        return tuple((index[a.source], index[a.target]) for a in self.arrows)

    def arrows_from(self, v):
        return self._incident[v][1]

    def arrows_into(self, v):
        return self._incident[v][0]

    def is_sink(self, v):
        return not self._incident[v][1]

    def is_source(self, v):
        return not self._incident[v][0]

    @cached_property
    def _neighbours(self):
        """The underlying undirected graph, as neighbour lists: read by
        `validate` and `dynkin_type`, so it is built once."""
        adj = {v: [] for v in self.vertices}
        for a in self.arrows:
            adj[a.source].append(a.target)
            adj[a.target].append(a.source)
        return adj

    def _is_connected(self):
        reached = breadth_first(self._neighbours, self.vertices[:1], {})
        return sum(1 for _ in reached) == len(self.vertices)

    # -- derived quivers ---------------------------------------------------

    def reversed_at(self, v):
        """Reverse every arrow incident to ``v``.  The result is kept per
        vertex, so a Coxeter walk, which reflects the same sequence of
        quivers in every round, builds each of them once."""
        quiver = self._reversed.get(v)
        if quiver is None:
            new = tuple(
                Arrow(a.name, a.target, a.source)
                if v in (a.source, a.target)
                else a
                for a in self.arrows
            )
            quiver = Quiver(self.vertices, new, self.name, _checked=True)
            self._reversed[v] = quiver
        return quiver

    def sink_ordering(self):
        """An admissible ordering v1, v2, ... with v1 a sink of the quiver,
        v2 a sink after reflecting at v1, and so on: each step takes the
        first vertex, in vertex order, with no arrow to a vertex not yet
        taken, from a heap of the ready ones.  The order misses a vertex
        exactly when the quiver has a directed cycle."""
        outdeg = [0] * len(self.vertices)
        into = [[] for _ in self.vertices]
        for s, t in self.arrow_ends:
            outdeg[s] += 1
            into[t].append(s)
        ready = [k for k, d in enumerate(outdeg) if not d]  # sorted: a heap
        order = []
        while ready:
            k = heappop(ready)
            order.append(self.vertices[k])
            for s in into[k]:
                outdeg[s] -= 1
                if not outdeg[s]:
                    heappush(ready, s)
        return order

    # -- Dynkin classification ---------------------------------------------

    def dynkin_type(self):
        """Return ('A'|'D'|'E', n) for a Dynkin quiver, else raise.

        A connected loop-free graph without multiple edges is Dynkin exactly
        when its Tits form is positive definite; the type is then read off
        the degree sequence.  The type is kept once found (a raise is not),
        as the budget checks and the table build each read it.
        """
        return self._dynkin_type

    @cached_property
    def _dynkin_type(self):
        n = len(self.vertices)
        pairs = {frozenset((a.source, a.target)) for a in self.arrows}
        if len(pairs) != len(self.arrows):
            raise UnsupportedError(
                "multiple arrows between two vertices: not Dynkin "
                "(the Kronecker quiver is handled by the tame model)"
            )
        adj = self._neighbours
        deg = {v: len(adj[v]) for v in self.vertices}
        degs = sorted(deg.values(), reverse=True)
        if len(self.arrows) != n - 1:
            raise UnsupportedError("underlying graph is not a tree: not Dynkin")
        if not degs or degs[0] <= 2:
            return ("A", n)
        if degs[0] > 3 or (len(degs) > 1 and degs[1] > 2):
            raise UnsupportedError("underlying graph is not of ADE shape")
        # one branch vertex of degree 3; arm lengths decide D vs E
        branch = next(v for v, d in deg.items() if d == 3)
        arms = sorted(_arm_lengths(adj, branch))
        if arms[0] != 1:
            raise UnsupportedError("underlying graph is not of ADE shape")
        if arms[1] == 1:
            return ("D", n)
        if arms[1] == 2 and arms[2] in (2, 3, 4):
            return ("E", n)
        raise UnsupportedError("underlying graph is not of ADE shape")

    def positive_root_count(self):
        kind, n = self.dynkin_type()
        if kind == "A":
            return n * (n + 1) // 2
        if kind == "D":
            return n * (n - 1)
        return {6: 36, 7: 63, 8: 120}[n]

    def torsion_class_count(self):
        """The Coxeter-Catalan number of the Dynkin type: the number of
        torsion classes of the path algebra, read off the type alone."""
        kind, n = self.dynkin_type()
        if kind == "A":
            return comb(2 * n + 2, n + 1) // (n + 2)
        if kind == "D":
            return (3 * n - 2) * comb(2 * n - 2, n - 1) // n
        return {6: 833, 7: 4_160, 8: 25_080}[n]


def breadth_first(succ, sources, parent):
    """Nodes reachable from ``sources`` along ``succ`` (node -> successor
    nodes), yielded in breadth-first order; ``parent`` gets each one's
    predecessor, None for the sources."""
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


def _arm_lengths(adj, branch):
    lengths = []
    for start in adj[branch]:
        prev, cur, length = branch, start, 1
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        lengths.append(length)
    return lengths


def load_quiver(text, name=""):
    """Parse the quiver text format.  Raises QuiverLoadError with line
    numbers on malformed input."""
    vertices, vertex_lines = [], []
    arrows, arrow_lines = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _VERTEX_RE.match(line)
        if m:
            vertices.append(m.group(1))
            vertex_lines.append(lineno)
            continue
        m = _ARROW_RE.match(line)
        if m:
            arrows.append(Arrow(m.group(1), m.group(2), m.group(3)))
            arrow_lines.append(lineno)
            continue
        raise QuiverLoadError(f"unrecognized declaration {line!r}", line=lineno)
    quiver = Quiver(tuple(vertices), tuple(arrows), name, _checked=True)
    quiver.validate(vertex_lines, arrow_lines)
    return quiver


def load_quiver_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise QuiverLoadError(
                f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
            ) from None
    return load_quiver(text, name=str(path))


def linear_quiver(n):
    """A_n with linear orientation 1 -> 2 -> ... -> n."""
    vs = tuple(str(i) for i in range(1, n + 1))
    arrows = tuple(
        Arrow(f"a{i}", str(i), str(i + 1)) for i in range(1, n)
    )
    return Quiver(vs, arrows, name=f"A{n}")


def quiver_from_edges(name, edges):
    """The quiver with one arrow s -> t per (s, t) in ``edges``."""
    vs = tuple(sorted({str(v) for edge in edges for v in edge}))
    arrows = tuple(
        Arrow(f"a{k}", str(s), str(t)) for k, (s, t) in enumerate(edges, 1)
    )
    return Quiver(vs, arrows, name=name)


# The builtin quivers, each an edge list s -> t; the quiver's name is the
# builtin's in capitals.  D_4 points its three outer vertices into the
# centre c; D_5 and E_n are the path 1 -> 2 -> ... with one more arrow 3 -> n.
_BUILTIN_EDGES = {
    "a2": [(1, 2)],
    "a3": [(1, 2), (2, 3)],
    "a4": [(1, 2), (2, 3), (3, 4)],
    "d4": [(1, "c"), (2, "c"), (3, "c")],
    "d5": [(1, 2), (2, 3), (3, 4), (3, 5)],
    "e6": [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)],
    "e7": [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)],
    "e8": [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)],
}

BUILTIN_QUIVERS = {
    name: partial(quiver_from_edges, name.upper(), edges)
    for name, edges in _BUILTIN_EDGES.items()
}
