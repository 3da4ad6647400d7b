"""Exact linear algebra over the rationals, eliminated on integers.

Everything downstream (Hom spaces, Ext cokernels, reflection functors,
radical series) reduces to kernels and ranks of small systems, so a
shape-aware matrix of exact rationals is all the interface needs.
Shapes are carried explicitly because zero-dimensional spaces are the
rule, not the exception (every simple representation has them).

Every exact value here has one normal form: a Python `int` when it is
integral, and a `fractions.Fraction` only otherwise.  An `int` and an
integral `Fraction` compare and hash alike, so the form changes no
equality and no dict key; it only keeps integral data, which is all of
the data of the Dynkin tables, out of `Fraction` arithmetic.  No module
of the package uses true division, so an `int` never turns into a float.
`fractions` is imported only where a non-integral value is formed
(`_exact`, `_ratio`), so a run on integral data never loads it.

Elimination itself never touches a `Fraction`.  Its one row format is the
sparse integer row, a dict column -> nonzero int, and its one step is
`_cancel`: cross-multiply two rows by their entries in a column over
their gcd, then divide the result by the gcd of its entries.
`eliminate` runs fraction-free Gauss-Jordan on such rows; `echelon_add`
grows a rank one row at a time; `kernel_ints` reads a right-kernel basis
off the reduced rows as coprime integer vectors.  Scaling a row by a
nonzero integer changes neither its span nor the reduced row echelon
form (which is unique), so a caller may clear denominators first
(`scaled_to_ints`, or once per representation in `repcore`) and gets
exactly what `Fraction` Gauss-Jordan returns.  Quotients are formed
only for output entries: `kernel` divides each `kernel_ints` vector by
its last nonzero entry, which sits at its free column (`unit_last`), and
an entry x of a reduced row with pivot p is x/p, each in normal form:
x // p when p divides x.

`rank_mod2` is the one shortcut: the rank over GF(2) of rows given as
int bitmasks of their odd entries, which a caller can read off its
integer data without forming the rows.  It never exceeds the rank over
the rationals, which never exceeds the number of rows or of columns, so
when it reaches the smaller of the two it is the rank, without an
elimination; any lower answer proves nothing, and the caller eliminates.

Every elimination runs on sparse integer rows.  `Mat` is a container of
entries in normal form; its one elimination, `Mat.rref`, goes through
`eliminate` and returns the reduced rows in normal form.  Kernels are
read with `kernel(*eliminate(rows), ncols)` (or `kernel_ints`) and ranks
with `echelon_add` (`span_rank`).
"""

from __future__ import annotations

from math import gcd, lcm


def _exact(x):
    """The number ``x``, not an `int`, in normal form: its `Fraction`, or
    that fraction's numerator when it is integral."""
    from fractions import Fraction

    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _ratio(x, d):
    """x/d for ints x and d != 0, in normal form."""
    if not x % d:
        return x // d
    from fractions import Fraction

    return Fraction(x, d)


def scaled_to_ints(values):
    """A list of exact numbers times the lcm of their denominators, as
    ints: ``values`` itself when every entry is an `int`."""
    if all(type(x) is int for x in values):
        return values
    den = lcm(*[x.denominator for x in values])
    if den == 1:
        return [x.numerator for x in values]
    return [x.numerator * (den // x.denominator) for x in values]


def sparse_row(values):
    """The sparse integer row of a dense list of ints."""
    return {k: x for k, x in enumerate(values) if x}


def _cancel(row, prow, c):
    """The integer combination of ``row`` and ``prow`` that is zero in
    column c, divided by the gcd of its entries; both are sparse rows
    with an entry in column c."""
    p, f = prow[c], row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    out = {k: a * x for k, x in row.items()} if a != 1 else dict(row)
    for k, y in prow.items():
        x = out.get(k, 0) - b * y
        if x:
            out[k] = x
        else:
            del out[k]
    g = gcd(*out.values())
    if g > 1:
        out = {k: x // g for k, x in out.items()}
    return out


def eliminate(rows):
    """Fraction-free Gauss-Jordan elimination of sparse integer rows.

    Returns (reduced, pivots): ``pivots`` ascends, ``reduced[k]`` has an
    entry at ``pivots[k]`` and none at the other pivots, and
    ``reduced[k]`` divided by that entry is row k of the reduced row
    echelon form of ``rows``.  The input rows are not modified.
    """
    # rows still to reduce, by their least column: a row there is zero
    # at every pivot so far, so the next pivot is the least such column
    # and only the rows filed under it have an entry there
    by_lead = {}
    for row in rows:
        if row:
            by_lead.setdefault(min(row), []).append(row)
    reduced = []
    pivots = []
    while by_lead:
        c = min(by_lead)
        group = by_lead.pop(c)
        prow = min(group, key=len)
        for row in group:
            if row is not prow:
                row = _cancel(row, prow, c)
                if row:
                    by_lead.setdefault(min(row), []).append(row)
        reduced.append(prow)
        pivots.append(c)
    # back-substitute once, from the last row up: the rows below row k
    # are reduced by then, so cancelling a pivot of theirs in row k puts
    # no entry at any other pivot
    at = {c: k for k, c in enumerate(pivots)}
    for k in range(len(reduced) - 2, -1, -1):
        row = reduced[k]
        for c in [c for c in row if c in at and c != pivots[k]]:
            row = _cancel(row, reduced[at[c]], c)
        reduced[k] = row
    return reduced, pivots


def kernel_ints(reduced, pivots, ncols):
    """Basis of the right kernel of a matrix with ``ncols`` columns whose
    `eliminate` result is (reduced, pivots), as lists of coprime ints: one
    per free column fc, positive at fc, 0 at the other free columns and
    at each pivot pc proportional to -reduced[k][fc] / reduced[k][pc].
    A reduced row has entries only at its pivot and at free columns to
    its right, so fc holds the vector's last nonzero entry."""
    taken = set(pivots)
    at = {c: [] for c in range(ncols) if c not in taken}
    for row, pc in zip(reduced, pivots):
        for k in row:
            if k != pc:
                at[k].append((pc, row))
    basis = []
    for fc, rows in at.items():
        den = lcm(*[row[pc] for pc, row in rows])
        vec = [0] * ncols
        vec[fc] = den
        for pc, row in rows:
            vec[pc] = -row[fc] * (den // row[pc])
        g = gcd(*vec)
        basis.append([x // g for x in vec] if g > 1 else vec)
    return basis


def unit_last(vec):
    """The integer vector ``vec`` divided by its last nonzero entry, in
    normal form: a `kernel_ints` vector becomes the `kernel` vector, 1 at
    its free column, and stays integral when that entry divides it."""
    d = next(x for x in reversed(vec) if x)
    return [_ratio(x, d) for x in vec]


def kernel(reduced, pivots, ncols):
    """The `kernel_ints` basis in normal form, each vector 1 at its free
    column: -reduced[k][fc] / reduced[k][pc] at each pivot pc."""
    return [unit_last(vec) for vec in kernel_ints(reduced, pivots, ncols)]


def rank_mod2(masks):
    """Rank over GF(2) of rows held as int bitmasks, bit k set when the
    row's entry in column k is odd (`repcore.hom_parities` reads them off
    integer maps).  A minor that is odd is nonzero, so this is a lower
    bound on the rank over the rationals of any integer rows with these
    parities: when it equals the number of rows or of columns, it is
    that rank, and only then is it a proof."""
    by_top = {}
    for m in masks:
        while m:
            top = m.bit_length() - 1
            b = by_top.get(top)
            if b is None:
                by_top[top] = m
                break
            m ^= b
    return len(by_top)


def echelon_add(echelon, row):
    """Add the sparse integer row ``row`` to the span kept in ``echelon``.

    ``echelon`` is a list of (pivot column, sparse row) pairs, each row
    zero in the pivot columns of the rows before it, as the reduced rows
    of `eliminate` are; its length is the rank of the rows added so far.
    Returns True when ``row`` raised the rank.
    """
    for c, prow in echelon:
        if c in row:
            row = _cancel(row, prow, c)
    if not row:
        return False
    echelon.append((min(row), row))
    return True


class Mat:
    """A dense nrows x ncols matrix over the rationals.

    Entries are in normal form: an `int` when integral, a `Fraction`
    only otherwise (see the module docstring).  The constructor brings
    any other number to it (`Fraction(4, 2)` and `True` become ints,
    0.5 becomes `Fraction(1, 2)`), and every method returns it.  Its one
    elimination, `rref`, runs on sparse integer rows.  Immutable by
    convention: no method mutates ``self``.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows, nrows=None, ncols=None):
        rows = [
            [x if type(x) is int else _exact(x) for x in row]
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
        return Mat([[0] * ncols for _ in range(nrows)], nrows, ncols)

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

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch in product: {self.nrows}x{self.ncols} times "
                f"{other.nrows}x{other.ncols}"
            )
        out = [[0] * other.ncols for _ in range(self.nrows)]
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

    def flatten(self):
        """Row-major entry list."""
        return [x for row in self.rows for x in row]

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        reduced, pivots = eliminate(
            [sparse_row(scaled_to_ints(r)) for r in self.rows]
        )
        red = []
        for row, c in zip(reduced, pivots):
            out = [0] * self.ncols
            p = row[c]
            for k, x in row.items():
                out[k] = _ratio(x, p)
            red.append(out)
        red += [[0] * self.ncols for _ in range(self.nrows - len(pivots))]
        return Mat(red, self.nrows, self.ncols), pivots


def span_rank(vectors):
    """Rank of the span of a list of equal-length coordinate vectors of
    exact numbers."""
    echelon = []
    for v in vectors:
        echelon_add(echelon, sparse_row(scaled_to_ints(v)))
    return len(echelon)
