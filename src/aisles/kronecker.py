"""Rule-based model of the derived category of the Kronecker algebra.

Objects are symbolic: postprojectives Post(m) with dimension vector
(m, m+1), preinjectives Pre(m) with (m+1, m), and regular modules
Reg(label, length) with (length, length) in homogeneous tubes indexed by
opaque labels.  Hom dimensions come from a closed rule table (Euler form
plus directedness), the AR translate from the orbit rules, and adjacent
degree morphism spaces from the AR formula.  Everything is truncated:
transjective index up to a configured range, quasi-length up to a
configured tube depth, degrees inside a window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .derived import Window
from .errors import ShapeError, TruncationError
from .linalg import Mat
from .quiver import Arrow, Quiver
from .repcore import Representation

POST = "post"
PRE = "pre"
REG = "reg"


@dataclass(frozen=True, order=True)
class KroneckerObject:
    kind: str
    index: int  # transjective index for post/pre, quasi-length for reg
    label: str | None
    degree: int

    def __post_init__(self):
        if self.kind not in (POST, PRE, REG):
            raise ShapeError(f"unknown kind {self.kind!r}")
        if self.kind == REG and (self.label is None or self.index < 1):
            raise ShapeError("regular objects need a tube label and length")
        if self.kind != REG and (self.label is not None or self.index < 0):
            raise ShapeError("transjective objects take a bare index")

    def dimvec(self):
        if self.kind == POST:
            return (self.index, self.index + 1)
        if self.kind == PRE:
            return (self.index + 1, self.index)
        return (self.index, self.index)

    def at(self, degree):
        return KroneckerObject(self.kind, self.index, self.label, degree)

    def shifted(self, s):
        return self.at(self.degree + s)

    def name(self):
        if self.kind == REG:
            return f"Reg({self.label},{self.index})@{self.degree}"
        return f"{self.kind.capitalize()}({self.index})@{self.degree}"


def post(m, degree=0):
    return KroneckerObject(POST, m, None, degree)


def pre(m, degree=0):
    return KroneckerObject(PRE, m, None, degree)


def reg(label, length, degree=0):
    return KroneckerObject(REG, length, label, degree)


@dataclass(frozen=True)
class TameModel:
    tube_labels: tuple
    tube_depth: int
    range: int
    window: Window

    def __post_init__(self):
        if len(self.tube_labels) < 3:
            raise ShapeError("need at least three tube labels")
        if self.tube_depth < 1 or self.range < 1:
            raise ShapeError("positive truncation parameters required")

    def module_objects(self):
        """The represented degree-0 objects, canonically ordered."""
        out = [post(m) for m in range(self.range + 1)]
        out += [
            reg(lam, ell)
            for lam in self.tube_labels
            for ell in range(1, self.tube_depth + 1)
        ]
        out += [pre(m) for m in range(self.range + 1)]
        return out

    def objects(self):
        return [
            x.at(d)
            for d in self.window.degrees()
            for x in self.module_objects()
        ]


def default_model():
    return TameModel(("t0", "t1", "t2"), 3, 6, Window(-2, 3))


# ---------------------------------------------------------------------------
# Hom and tau rules
# ---------------------------------------------------------------------------


def euler_form_kronecker(d, e):
    return d[0] * e[0] + d[1] * e[1] - 2 * d[0] * e[1]


def _hom0(X, Y):
    """Module-level Hom dimension, degrees ignored."""
    if X.kind == POST:
        if Y.kind == POST:
            return Y.index - X.index + 1 if Y.index >= X.index else 0
        if Y.kind == REG:
            return Y.index
        return X.index + Y.index  # post -> pre, Euler value
    if X.kind == REG:
        if Y.kind == POST:
            return 0
        if Y.kind == REG:
            return min(X.index, Y.index) if X.label == Y.label else 0
        return X.index  # reg -> pre
    # preinjective source maps only within the preinjectives
    if Y.kind == PRE:
        return X.index - Y.index + 1 if X.index >= Y.index else 0
    return 0


def _tau0(X):
    """Module-level AR translate, None for the two projectives."""
    if X.kind == POST:
        if X.index >= 2:
            return post(X.index - 2)
        return None
    if X.kind == PRE:
        return pre(X.index + 2)
    return reg(X.label, X.index)


def _tau0_inverse(X):
    if X.kind == PRE:
        if X.index >= 2:
            return pre(X.index - 2)
        return None
    if X.kind == POST:
        return post(X.index + 2)
    return reg(X.label, X.index)


def ext_module(X, Y):
    """Module-level Ext^1 via the AR formula."""
    tX = _tau0(X)
    if tX is None:
        return 0
    return _hom0(Y.at(0), tX)


def hom_rule(X, Y):
    """Morphism-space dimension between symbolic derived objects."""
    gap = Y.degree - X.degree
    if gap == 0:
        return _hom0(X, Y)
    if gap == 1:
        return ext_module(X, Y)
    return 0


def tau_rule(X, model):
    """Derived AR translate; projectives wrap to preinjectives one
    degree down.  Overflow past the transjective truncation is an error,
    never a silent clamp."""
    if X.kind == POST:
        if X.index >= 2:
            return post(X.index - 2, X.degree)
        return pre(1 - X.index, X.degree - 1)
    if X.kind == PRE:
        if X.index + 2 > model.range:
            raise TruncationError(
                f"tau of {X.name()} exceeds the transjective range"
            )
        return pre(X.index + 2, X.degree)
    return X


def tau_inverse_rule(X, model):
    if X.kind == PRE:
        if X.index >= 2:
            return pre(X.index - 2, X.degree)
        return post(1 - X.index, X.degree + 1)
    if X.kind == POST:
        if X.index + 2 > model.range:
            raise TruncationError(
                f"inverse tau of {X.name()} exceeds the transjective range"
            )
        return post(X.index + 2, X.degree)
    return X


def layer(X):
    """Transjective-layer index: preinjectives of degree d glue with the
    postprojectives and regulars of degree d + 1 into one component."""
    return X.degree + 1 if X.kind == PRE else X.degree


# ---------------------------------------------------------------------------
# Aisles of the tame classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KroneckerAisle:
    pivot: int
    labels: frozenset
    members: frozenset
    # The members sorted once by degree, kind (post, reg, pre), tube label
    # and index, which is TameModel.objects() order for sorted labels.
    # Witness searches iterate this: frozenset order would not repeat
    # between processes, because transjective objects have label None,
    # which Python before 3.12 hashes by address.
    ordered: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "ordered", tuple(sorted(self.members, key=_canonical_key))
        )

    def __contains__(self, X):
        return X in self.members


_KIND_RANK = {POST: 0, REG: 1, PRE: 2}


def _canonical_key(X):
    return (X.degree, _KIND_RANK[X.kind], X.label or "", X.index)


def build_aisle_63b(i, L, model):
    """The split aisle with pivot layer ``i`` and tube subset ``L``:
    every object in a layer above i, plus the chosen tubes at layer i."""
    if not (model.window.lo < i < model.window.hi):
        raise ShapeError("pivot layer must be interior to the window")
    L = frozenset(L)
    members = set()
    for X in model.objects():
        if layer(X) > i:
            members.add(X)
        elif X.kind == REG and X.degree == i and X.label in L:
            members.add(X)
    return KroneckerAisle(i, L, frozenset(members))


def _orthogonal(aisle, model):
    """First Hom witness from the aisle into its complement, or None."""
    complement = [y for y in model.objects() if y not in aisle.members]
    return _hom_witness(aisle.ordered, complement)


def _hom_witness(sources, targets):
    """First (x, y) in scan order with Hom(x, y) != 0, or None."""
    for x in sources:
        for y in targets:
            if hom_rule(x, y) != 0:
                return (x, y)
    return None


def _shift_closed(aisle, model):
    for x in aisle.ordered:
        if x.degree < model.window.hi and x.shifted(1) not in aisle.members:
            return x
    return None


def _ext_projective_witness(aisle, model):
    """An interior member whose translate leaves the aisle, if any.

    The aisle is split, so a translate outside the members lies in the
    right orthogonal and the member would be Ext-projective."""
    for x in aisle.ordered:
        if not model.window.is_interior(x):
            continue
        try:
            tx = tau_rule(x, model)
        except TruncationError:
            continue  # boundary-conservative: outside the represented range
        if model.window.contains(tx) and tx not in aisle.members:
            return x
    return None


def trace_at_zero(aisle, model):
    """Degree-0 slice of the aisle and its complement: a torsion pair on
    the truncated module category."""
    torsion = {x.at(0) for x in aisle.members if x.degree == 0}
    free = {
        x for x in model.module_objects() if x not in torsion
    }
    return torsion, free


def scan_split_aisles(model):
    """Exhaustive scan over tube-and-layer-resolved shift-closed subsets
    that contain the top window degree and miss the bottom one; returns
    the surviving split aisles as (transjective threshold, per-tube
    thresholds) tuples."""
    lo, hi = model.window.lo, model.window.hi
    found = []
    tube_choices = list(range(lo + 1, hi + 1))
    for j1 in range(lo + 2, hi + 1):  # lowest transjective layer included
        for combo in _product(tube_choices, len(model.tube_labels)):
            tube_min = dict(zip(model.tube_labels, combo))
            members, complement = [], []
            for X in model.objects():
                if X.kind == REG:
                    inside = X.degree >= tube_min[X.label]
                else:
                    inside = layer(X) >= j1
                (members if inside else complement).append(X)
            if _hom_witness(members, complement) is None:
                found.append((j1, combo))
    return found


def _product(choices, n):
    if n == 0:
        yield ()
        return
    for head in choices:
        for tail in _product(choices, n - 1):
            yield (head,) + tail


def verify_63b(model):
    """Full verification of the tame split-aisle classification on the
    truncated model; returns a report with per-check pass flags."""
    report = {"model": describe(model), "cases": [], "pass": True}
    labels = model.tube_labels
    for i in model.window.interior():
        for L in _subsets(labels):
            aisle = build_aisle_63b(i, frozenset(L), model)
            checks = {}
            witness = _orthogonal(aisle, model)
            checks["orthogonal"] = witness is None
            bad_shift = _shift_closed(aisle, model)
            checks["shift_closed"] = bad_shift is None
            ep = _ext_projective_witness(aisle, model)
            checks["no_ext_projectives"] = ep is None
            case = {
                "pivot": i,
                "tubes": sorted(L),
                "checks": checks,
            }
            if witness is not None:
                case["witness"] = [witness[0].name(), witness[1].name()]
            if i == 0:
                torsion, free = trace_at_zero(aisle, model)
                checks["preinjectives_torsion"] = all(
                    pre(m) in torsion for m in range(model.range + 1)
                )
                checks["postprojectives_free"] = all(
                    post(m) in free for m in range(model.range + 1)
                )
            case["pass"] = all(checks.values())
            report["cases"].append(case)
            report["pass"] = report["pass"] and case["pass"]

    # converse: the scan may find nothing outside the classified family
    scan = scan_split_aisles(model)
    classified = set()
    for j1 in range(model.window.lo + 2, model.window.hi + 1):
        i = j1 - 1
        for L in _subsets(labels):
            L = set(L)
            combo = tuple(i if lam in L else i + 1 for lam in labels)
            if all(model.window.lo + 1 <= t <= model.window.hi for t in combo):
                classified.add((j1, combo))
    report["converse_scan"] = {
        "found": len(scan),
        "classified": len(classified),
        "pass": set(scan) == classified,
    }
    report["pass"] = report["pass"] and report["converse_scan"]["pass"]
    return report


def _subsets(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield [items[k] for k in range(len(items)) if mask >> k & 1]


def describe(model):
    return {
        "tubes": len(model.tube_labels),
        "tube_depth": model.tube_depth,
        "range": model.range,
        "window": [model.window.lo, model.window.hi],
    }


# ---------------------------------------------------------------------------
# Explicit-matrix oracle support
# ---------------------------------------------------------------------------


def kronecker_quiver():
    return Quiver(
        ("1", "2"),
        (Arrow("a", "1", "2"), Arrow("b", "1", "2")),
        name="kronecker",
    )


def explicit_representation(X, lam_values):
    """Honest matrix representation of a degree-0 symbolic object, used
    to oracle-check the rule table.  ``lam_values`` maps tube labels to
    distinct scalars."""
    Q = kronecker_quiver()
    if X.kind == POST:
        m = X.index
        # (m, m+1): a = identity on top, b = identity on bottom
        a = Mat(
            [[1 if r == c else 0 for c in range(m)] for r in range(m + 1)],
            m + 1,
            m,
        )
        b = Mat(
            [[1 if r == c + 1 else 0 for c in range(m)] for r in range(m + 1)],
            m + 1,
            m,
        )
        return Representation(Q, {"1": m, "2": m + 1}, {"a": a, "b": b})
    if X.kind == PRE:
        m = X.index
        a = Mat(
            [[1 if r == c else 0 for c in range(m + 1)] for r in range(m)],
            m,
            m + 1,
        )
        b = Mat(
            [[1 if r + 1 == c else 0 for c in range(m + 1)] for r in range(m)],
            m,
            m + 1,
        )
        return Representation(Q, {"1": m + 1, "2": m}, {"a": a, "b": b})
    ell = X.index
    lam = lam_values[X.label]
    a = Mat([[1 if r == c else 0 for c in range(ell)] for r in range(ell)])
    b = Mat(
        [
            [
                lam if r == c else (1 if c == r + 1 else 0)
                for c in range(ell)
            ]
            for r in range(ell)
        ]
    )
    return Representation(Q, {"1": ell, "2": ell}, {"a": a, "b": b})
