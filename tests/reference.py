"""Constructions only the tests use: the opposite quiver, the Kronecker
quiver with honest matrices for its symbolic modules and its Euler form,
and the random ADE orientations of the Hypothesis tests."""

from hypothesis import strategies as st

from aisles.kronecker import POST, PRE
from aisles.linalg import Mat
from aisles.quiver import Arrow, Quiver, quiver_from_edges
from aisles.repcore import Representation


def opposite(quiver):
    return Quiver(
        quiver.vertices,
        tuple(Arrow(a.name, a.target, a.source) for a in quiver.arrows),
        f"{quiver.name}^op" if quiver.name else "",
        _checked=True,
    )


def kronecker_quiver():
    return Quiver(
        ("1", "2"),
        (Arrow("a", "1", "2"), Arrow("b", "1", "2")),
        name="kronecker",
    )


def euler_form_kronecker(d, e):
    return d[0] * e[0] + d[1] * e[1] - 2 * d[0] * e[1]


def _mat(nrows, ncols, entry):
    rows = [[entry(r, c) for c in range(ncols)] for r in range(nrows)]
    return Mat(rows, nrows, ncols)


def explicit_representation(X, lam_values):
    """Honest matrix representation of a degree-0 symbolic object, used
    to oracle-check the rule table.  ``lam_values`` maps tube labels to
    distinct scalars."""
    m = X.index
    if X.kind == POST:
        # (m, m+1): a = identity on top, b = identity on bottom
        a = _mat(m + 1, m, lambda r, c: int(r == c))
        b = _mat(m + 1, m, lambda r, c: int(r == c + 1))
    elif X.kind == PRE:
        a = _mat(m, m + 1, lambda r, c: int(r == c))
        b = _mat(m, m + 1, lambda r, c: int(r + 1 == c))
    else:
        lam = lam_values[X.label]
        a = _mat(m, m, lambda r, c: int(r == c))
        b = _mat(m, m, lambda r, c: lam if r == c else int(c == r + 1))
    d1, d2 = X.dimvec()
    return Representation(kronecker_quiver(), {"1": d1, "2": d2}, {"a": a, "b": b})


# The ADE graphs of the orientation fuzz: edges (s, t), each flipped or not.
SHAPES = {
    **{f"A{n}": [(k, k + 1) for k in range(1, n)] for n in range(2, 7)},
    **{
        f"D{n}": [(k, k + 1) for k in range(1, n - 1)] + [(n - 2, n)]
        for n in range(4, 7)
    },
    "E6": [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)],
}


@st.composite
def orientations(draw, shapes=tuple(sorted(SHAPES))):
    """A quiver on one of the named ``SHAPES``, each edge oriented at
    random."""
    name = draw(st.sampled_from(shapes))
    edges = [(t, s) if draw(st.booleans()) else (s, t) for s, t in SHAPES[name]]
    return quiver_from_edges(name, edges)
