import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisles.derived import DEFAULT_WINDOW, check_window_objects
from aisles.errors import QuiverLoadError, UnsupportedError
from aisles.quiver import (
    BUILTIN_QUIVERS,
    Arrow,
    Quiver,
    linear_quiver,
    load_quiver,
    load_quiver_file,
)
from reference import opposite, orientations, rescan_sink_ordering

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def positive_roots(quiver):
    """The positive roots of a Dynkin quiver as a set, by reflection
    closure from the simple roots: s_v negates coordinate v and adds the
    coordinates of v's neighbours."""
    idx = {v: i for i, v in enumerate(quiver.vertices)}
    n = len(idx)
    neighbours = [[] for _ in range(n)]
    for a in quiver.arrows:
        neighbours[idx[a.source]].append(idx[a.target])
        neighbours[idx[a.target]].append(idx[a.source])
    roots = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    frontier = list(roots)
    while frontier:
        d = frontier.pop()
        for i in range(n):
            r = d[:i] + (sum(d[k] for k in neighbours[i]) - d[i],) + d[i + 1 :]
            if min(r) >= 0 and r not in roots:
                roots.add(r)
                frontier.append(r)
    return roots


def test_load_basic():
    q = load_quiver("vertex 1\nvertex 2\narrow a: 1 -> 2\n")
    assert q.vertices == ("1", "2")
    assert q.arrows[0] == Arrow("a", "1", "2")
    assert q.is_sink("2") and q.is_source("1")


def test_load_comments_and_blanks():
    q = load_quiver("# c\n\nvertex x\n")
    assert q.vertices == ("x",)


def test_malformed_line_number():
    with pytest.raises(QuiverLoadError) as exc:
        load_quiver_file(FIXTURES / "malformed.quiver")
    assert exc.value.line == 3


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("vertex 1\nvertex 1\n", "duplicate vertex"),
        ("vertex 1\narrow a: 1 -> 1\n", "loop"),
        ("vertex 1\narrow a: 1 -> 2\n", "unknown vertex"),
        (
            "vertex 1\nvertex 2\narrow a: 1 -> 2\narrow b: 2 -> 1\n",
            "directed cycle",
        ),
        ("vertex 1\nvertex 2\n", "not connected"),
    ],
)
def test_rejections(text, fragment):
    with pytest.raises(QuiverLoadError) as exc:
        load_quiver(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "text,line",
    [
        ("vertex 1\n# c\nvertex 1\n", 3),
        ("vertex 1\nvertex 2\narrow a: 1 -> 2\n\narrow a: 2 -> 1\n", 5),
        ("vertex 1\narrow a: 1 -> 1\n", 2),
        # arrows may name vertices declared below them
        ("arrow a: 1 -> 2\nvertex 1\nvertex 2\narrow b: 1 -> 4\n", 4),
    ],
)
def test_declaration_errors_name_their_line(text, line):
    with pytest.raises(QuiverLoadError) as exc:
        load_quiver(text)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}: ")


_NAMES = st.sampled_from(["1", "2", "3", "x"])
_LINES = st.one_of(
    _NAMES.map(lambda v: f"vertex {v}"),
    st.tuples(st.sampled_from("ab"), _NAMES, _NAMES).map(
        lambda t: "arrow {}: {} -> {}".format(*t)
    ),
    st.text(max_size=8).map(lambda c: f"# {c}"),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINES, max_size=8))
def test_loader_raises_only_quiver_load_errors(lines):
    """Arbitrary vertex, arrow, comment and garbage lines either load or
    raise QuiverLoadError; an error tied to one declaration names a line
    that declares something."""
    text = "\n".join(lines)
    try:
        q = load_quiver(text)
    except QuiverLoadError as exc:
        message = str(exc)
        if "directed cycle" in message or "not connected" in message:
            assert exc.line is None
        else:
            declared = text.splitlines()[exc.line - 1]
            assert declared.split("#", 1)[0].strip()
        return
    assert len(set(q.vertices)) == len(q.vertices)


def test_dynkin_classification():
    assert linear_quiver(4).dynkin_type() == ("A", 4)
    assert BUILTIN_QUIVERS["d4"]().dynkin_type() == ("D", 4)
    assert linear_quiver(2).positive_root_count() == 3
    assert linear_quiver(3).positive_root_count() == 6
    assert BUILTIN_QUIVERS["d4"]().positive_root_count() == 12


def test_e_builtins():
    assert BUILTIN_QUIVERS["e7"]().dynkin_type() == ("E", 7)
    e8 = BUILTIN_QUIVERS["e8"]()
    assert e8.dynkin_type() == ("E", 8)
    assert len(positive_roots(e8)) == e8.positive_root_count() == 120
    # the default window -2..3 holds 6 * 120 = 720 objects, under the budget
    assert len(DEFAULT_WINDOW.degrees()) * 120 == 720
    check_window_objects(DEFAULT_WINDOW, 120)


def test_multi_edge_not_dynkin():
    q = Quiver(
        ("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2"))
    )
    with pytest.raises(UnsupportedError):
        q.dynkin_type()


def test_sink_ordering_is_admissible():
    q = linear_quiver(3)
    order = q.sink_ordering()
    assert order == ["3", "2", "1"]
    cur = q
    for v in order:
        assert cur.is_sink(v)
        cur = cur.reversed_at(v)


@settings(max_examples=40, deadline=None)
@given(orientations())
def test_sink_ordering_takes_the_first_sink_in_vertex_order(quiver):
    cur = quiver
    taken = set()
    for v in quiver.sink_ordering():
        sinks = [w for w in cur.vertices if w not in taken and cur.is_sink(w)]
        assert v == sinks[0]
        taken.add(v)
        cur = cur.reversed_at(v)
    assert taken == set(quiver.vertices)


@st.composite
def drawn_quivers(draw, acyclic):
    """Up to 8 vertices listed in a random order, with arrows between
    random pairs, each drawn up to three times as parallel arrows.  An
    acyclic quiver orients every arrow down a hidden rank order, so
    several vertices are often ready at once and vertex order must break
    the tie; a cyclic one also gets the arrows of a directed cycle.  Not
    validated: the underlying graph may be disconnected."""
    n = draw(st.integers(2, 8))
    vertices = tuple(draw(st.permutations([str(k) for k in range(n)])))
    rank = draw(st.permutations(range(n)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    drawn = draw(
        st.lists(
            st.tuples(pair.filter(lambda p: p[0] != p[1]), st.integers(1, 3)),
            max_size=2 * n,
        )
    )
    pairs = [p for p, times in drawn for _ in range(times)]
    if acyclic:
        pairs = [sorted(p, key=rank.__getitem__) for p in pairs]
    else:
        cycle = draw(
            st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True)
        )
        pairs += zip(cycle, cycle[1:] + cycle[:1])
    arrows = tuple(
        Arrow(f"a{k}", vertices[s], vertices[t]) for k, (s, t) in enumerate(pairs)
    )
    return Quiver(vertices, arrows, _checked=True)


@settings(max_examples=200, deadline=None)
@given(drawn_quivers(acyclic=True))
def test_sink_ordering_equals_the_rescan_on_acyclic_quivers(quiver):
    order = quiver.sink_ordering()
    assert order == rescan_sink_ordering(quiver)
    assert sorted(order) == sorted(quiver.vertices)


@settings(max_examples=200, deadline=None)
@given(drawn_quivers(acyclic=False))
def test_sink_ordering_stops_where_the_rescan_does_on_a_cycle(quiver):
    order = quiver.sink_ordering()
    assert order == rescan_sink_ordering(quiver)
    assert len(order) < len(quiver.vertices)


def test_opposite_swaps_arrows():
    q = opposite(linear_quiver(2))
    assert q.arrows[0].source == "2"
