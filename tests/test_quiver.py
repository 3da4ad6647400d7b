import pathlib

import pytest

from aisles.derived import DEFAULT_WINDOW, check_window_objects
from aisles.errors import QuiverLoadError, UnsupportedError
from aisles.quiver import (
    BUILTIN_QUIVERS,
    Arrow,
    Quiver,
    d4_quiver,
    linear_quiver,
    load_quiver,
    load_quiver_file,
)
from aisles.repcore import positive_roots

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


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


def test_dynkin_classification():
    assert linear_quiver(4).dynkin_type() == ("A", 4)
    assert d4_quiver().dynkin_type() == ("D", 4)
    assert linear_quiver(2).positive_root_count() == 3
    assert linear_quiver(3).positive_root_count() == 6
    assert d4_quiver().positive_root_count() == 12


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


def test_opposite_swaps_arrows():
    q = linear_quiver(2).opposite()
    assert q.arrows[0].source == "2"
