"""Exact linear algebra over the rationals.

Everything downstream (Hom spaces, reflection functors, radical series)
reduces to kernels, ranks and linear solves of small dense systems, so a
shape-aware matrix of `fractions.Fraction` entries is all that is needed.
Shapes are carried explicitly because zero-dimensional spaces are the rule,
not the exception (every simple representation has them).

`Fraction`s appear only at the boundary: a `Mat` takes and returns them,
but elimination runs on Python ints.  `Mat.rref` scales each row by the
lcm of its denominators, combines rows fraction-free (cross-multiplying
by the pivots over their gcd, then dividing the new row by the gcd of its
entries) and forms `Fraction`s once, when each pivot row is divided by
its pivot.  The reduced row echelon form is unique, so this returns
exactly what `Fraction` Gauss-Jordan returns, and so do `rank`,
`nullspace`, `left_nullspace` and `solve`, which read it.
`echelon_add` is the same elimination step for callers that already hold
integer vectors and want a rank that grows one vector at a time.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


def scaled_to_ints(values):
    """A list of `Fraction`s times the lcm of their denominators, as ints."""
    den = lcm(*[x.denominator for x in values])
    if den == 1:
        return [x.numerator for x in values]
    return [x.numerator * (den // x.denominator) for x in values]


def _cancel(row, prow, c):
    """The integer combination of ``row`` and ``prow`` that is zero in
    column c, divided by the gcd of its entries; ``prow[c]`` is nonzero."""
    p, f = prow[c], row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    out = [a * x - b * y for x, y in zip(row, prow)]
    g = gcd(*out)
    if g > 1:
        out = [x // g for x in out]
    return out


def echelon_add(echelon, vec):
    """Add the integer vector ``vec`` to the span kept in ``echelon``.

    ``echelon`` is a list of (pivot column, int row) pairs, each row zero
    in the pivot columns of the rows before it; its length is the rank of
    the vectors added so far.  Returns True when ``vec`` raised the rank.
    """
    for c, row in echelon:
        if vec[c]:
            vec = _cancel(vec, row, c)
    c = next((k for k, x in enumerate(vec) if x), None)
    if c is None:
        return False
    echelon.append((c, vec))
    return True


class Mat:
    """A dense nrows x ncols matrix over the rationals.

    Entries are `Fraction`s: the constructor converts any other number,
    and every method returns `Fraction` entries.  Elimination inside
    `rref` runs on ints (see the module docstring).  Immutable by
    convention: no method mutates ``self``.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows, nrows=None, ncols=None):
        rows = [
            [x if type(x) is Fraction else Fraction(x) for x in row]
            for row in rows
        ]
        if nrows is None:
            nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError("inconsistent matrix shape")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @staticmethod
    def zeros(nrows, ncols):
        return Mat([[_ZERO] * ncols for _ in range(nrows)], nrows, ncols)

    @staticmethod
    def column(entries):
        return Mat([[x] for x in entries], len(entries), 1)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        return f"Mat({self.rows!r})"

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def is_zero(self):
        return all(x == 0 for row in self.rows for x in row)

    def scale(self, c):
        c = Fraction(c)
        return Mat(
            [[c * x for x in row] for row in self.rows], self.nrows, self.ncols
        )

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch in product: {self.nrows}x{self.ncols} times "
                f"{other.nrows}x{other.ncols}"
            )
        out = [[Fraction(0)] * other.ncols for _ in range(self.nrows)]
        for i in range(self.nrows):
            ri = self.rows[i]
            oi = out[i]
            for k in range(self.ncols):
                a = ri[k]
                if a == 0:
                    continue
                rk = other.rows[k]
                for j in range(other.ncols):
                    oi[j] += a * rk[j]
        return Mat(out, self.nrows, other.ncols)

    def transpose(self):
        return Mat(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            self.ncols,
            self.nrows,
        )

    @staticmethod
    def hstack(mats):
        mats = list(mats)
        if not mats:
            raise ValueError("hstack of nothing")
        nrows = mats[0].nrows
        if any(m.nrows != nrows for m in mats):
            raise ValueError("hstack row mismatch")
        rows = [sum((m.rows[i] for m in mats), []) for i in range(nrows)]
        return Mat(rows, nrows, sum(m.ncols for m in mats))

    @staticmethod
    def vstack(mats):
        mats = list(mats)
        if not mats:
            raise ValueError("vstack of nothing")
        ncols = mats[0].ncols
        if any(m.ncols != ncols for m in mats):
            raise ValueError("vstack column mismatch")
        rows = [row for m in mats for row in m.rows]
        return Mat(rows, sum(m.nrows for m in mats), ncols)

    def flatten(self):
        """Row-major entry list."""
        return [x for row in self.rows for x in row]

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        rows = [scaled_to_ints(r) for r in self.rows]
        pivots = []
        for c in range(self.ncols):
            r = len(pivots)
            if r == self.nrows:
                break
            pivot = next((i for i in range(r, self.nrows) if rows[i][c]), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            prow = rows[r]
            for i in range(self.nrows):
                if i != r and rows[i][c]:
                    rows[i] = _cancel(rows[i], prow, c)
            pivots.append(c)
        red = [
            [Fraction(x, row[c]) if x else _ZERO for x in row]
            for row, c in zip(rows, pivots)
        ]
        red += [[_ZERO] * self.ncols for _ in range(self.nrows - len(pivots))]
        return Mat(red, self.nrows, self.ncols), pivots

    def rank(self):
        return len(self.rref()[1])

    def nullspace(self):
        """Basis of the right kernel, as a list of column vectors (Mat n x 1)."""
        red, pivots = self.rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            v = [_ZERO] * self.ncols
            v[fc] = _ONE
            for r, pc in enumerate(pivots):
                v[pc] = -red.rows[r][fc]
            basis.append(Mat.column(v))
        return basis

    def left_nullspace(self):
        """Basis of the left kernel, as a list of row vectors (Mat 1 x m)."""
        return [v.transpose() for v in self.transpose().nullspace()]

    def solve(self, b):
        """One solution x of ``self * x = b`` (b a column), or None."""
        if b.ncols != 1 or b.nrows != self.nrows:
            raise ValueError("solve expects a matching column vector")
        aug = Mat.hstack([self, b])
        red, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [_ZERO] * self.ncols
        for r, pc in enumerate(pivots):
            x[pc] = red.rows[r][self.ncols]
        return Mat.column(x)


def span_rank(vectors):
    """Rank of the span of a list of equal-length coordinate vectors."""
    vectors = [list(v) for v in vectors]
    if not vectors:
        return 0
    return Mat(vectors).rank()

