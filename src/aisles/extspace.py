"""Explicit Ext^1 classes with composition, as the cokernel of the Hom system.

Over a hereditary path algebra every pair of representations X, Y has the
exact sequence (Ringel, J. Algebra 41, 1976)

    0 -> Hom(X, Y) -> (+)_v Hom_k(X_v, Y_v) -> (+)_{a: u->w} Hom_k(X_u, Y_w)
      -> Ext^1(X, Y) -> 0

whose middle map delta(f)_a = Y_a f_u - f_w X_a is the linear system
``repcore.hom_system`` solves for Hom.  A class is an arrow family
{a: Mat(Y_w x X_u)} modulo the image of delta.  delta is natural in both
arguments, so both Yoneda products are arrow-wise matrix products:

* post-composition with h: Y -> Z sends phi to h_w phi_a;
* pre-composition with f: W -> X sends psi to psi_a f_u.

This is the independent route used to certify irreducibility of the
cross-degree arrows of the derived AR quiver.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConsistencyError
from .linalg import echelon_add, eliminate, scaled_to_ints, sparse_row
from .repcore import hom_system, unflatten

# Not used here: `perfbench` wraps every binding of `repcore.hom_space`, and
# its tests assert that this module binds it as well.
from .repcore import hom_space  # noqa: F401


class ExtMachine:
    """Ext^1 spaces with composition for one IndecTable."""

    def __init__(self, table):
        self.table = table
        self.quiver = table.quiver
        self._coker = {}

    def _cokernel(self, i, j):
        """For Ext^1(i, j): the reduced integer rows spanning im delta,
        their pivot coordinates, the other coordinates and the basis at
        those.  The rows are the columns of the integer `hom_system`,
        which spans the same image as delta."""
        if (i, j) not in self._coker:
            X = self.table.entries[i].rep
            Y = self.table.entries[j].rep
            rows, ncols = hom_system(X, Y)
            columns = [{} for _ in range(ncols)]
            for r, row in enumerate(rows):
                for c, x in row.items():
                    columns[c][r] = x
            image, pivots = eliminate(columns)
            taken = set(pivots)
            free = [k for k in range(len(rows)) if k not in taken]
            shapes = [
                (a.name, Y.dim(a.target), X.dim(a.source))
                for a in self.quiver.arrows
            ]
            basis = [
                unflatten([Fraction(k == c) for k in range(len(rows))], shapes)
                for c in free
            ]
            self._coker[i, j] = (image, pivots, free, basis)
        return self._coker[i, j]

    def ext_dim(self, i, j):
        return len(self.ext_basis(i, j))

    def ext_basis(self, i, j):
        """Arrow families whose classes form a basis of Ext^1(i, j): the
        unit vectors off the pivots of im delta, which span a complement."""
        return self._cokernel(i, j)[3]

    def post_compose(self, phi, h):
        """Class [phi] in Ext(X, Y), h: Y -> Z  ->  representative of
        [h o phi] in Ext(X, Z)."""
        return {a.name: h[a.target] * phi[a.name] for a in self.quiver.arrows}

    def pre_compose(self, psi, f):
        """psi a representative of a class in Ext(M, Z), f: X -> M;
        returns a representative of [psi] o f in Ext(X, Z)."""
        return {a.name: psi[a.name] * f[a.source] for a in self.quiver.arrows}

    def class_span_dim(self, i, j, representatives):
        """Dimension of the span of ext classes inside Ext^1(i, j): how
        many of the representatives raise the rank of im delta."""
        image, pivots, _, _ = self._cokernel(i, j)
        echelon = list(zip(pivots, image))
        base = len(echelon)
        for rep in representatives:
            vec = [x for a in self.quiver.arrows for x in rep[a.name].flatten()]
            echelon_add(echelon, sparse_row(scaled_to_ints(vec)))
        return len(echelon) - base

    def irreducible_ext_dim(self, i, j):
        """dim of Ext^1(i, j) modulo composites through a third object:
        the cross-degree analogue of rad/rad^2."""
        total = self.ext_dim(i, j)
        if total != self.table.ext[i][j]:
            raise ConsistencyError(
                f"cokernel Ext disagrees with table at ({i}, {j})"
            )
        if total == 0:
            return 0
        composites = []
        n = len(self.table.entries)
        for m in range(n):
            if m != i:
                # X -> M (degree 0) then M => Y (degree jump)
                for f in self.table.hom_bases[i][m]:
                    for psi in self.ext_basis(m, j):
                        composites.append(self.pre_compose(psi, f))
            if m != j:
                # X => M (degree jump) then M -> Y (degree 1)
                for phi in self.ext_basis(i, m):
                    for h in self.table.hom_bases[m][j]:
                        composites.append(self.post_compose(phi, h))
        return total - self.class_span_dim(i, j, composites)
