"""Rule-based model of the derived category of the Kronecker algebra.

Objects are symbolic: postprojectives Post(m) with dimension vector
(m, m+1), preinjectives Pre(m) with (m+1, m), and regular modules
Reg(label, length) with (length, length) in homogeneous tubes indexed by
opaque labels.  Hom dimensions come from a closed rule table (Euler form
plus directedness), the AR translate from the orbit rules, and adjacent
degree morphism spaces from the AR formula.  Everything is truncated:
transjective index up to a configured range, quasi-length up to a
configured tube depth, degrees inside a window, and the size of a model
is bounded before anything is built.  ``KroneckerContext`` exposes the
module category to the shared Hom-mask core of ``aisles.derived``, which
the aisle checks and the split-aisle scan run on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .derived import Window, check_window_objects, hom_masks
from .errors import ShapeError, TruncationError, UnsupportedError
from .linalg import Mat
from .quiver import Arrow, Quiver
from .repcore import Representation

POST = "post"
PRE = "pre"
REG = "reg"

# scan_split_aisles tries (hi - lo - 1) * (hi - lo)**tubes threshold
# choices: 500 on the default model, 2,500 on the 4-tube benchmark model.
MAX_SCAN_CANDIDATES = 1_000_000


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
    # Results derived from this model alone (its Hom masks), computed on
    # first use.
    memo: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if len(self.tube_labels) < 3:
            raise ShapeError("need at least three tube labels")
        if self.tube_depth < 1 or self.range < 1:
            raise ShapeError("positive truncation parameters required")
        check_budgets(
            len(self.tube_labels), self.tube_depth, self.range, self.window
        )

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


def check_budgets(tubes, tube_depth, range_, window):
    """Refuse a model whose window objects or split-aisle scan exceed
    ``MAX_WINDOW_OBJECTS`` or ``MAX_SCAN_CANDIDATES``, from the
    parameters alone."""
    check_window_objects(window, 2 * (range_ + 1) + tubes * tube_depth)
    width = window.hi - window.lo  # at least 2, so tubes bound the power
    if (
        tubes > MAX_SCAN_CANDIDATES.bit_length()
        or (width - 1) * width**tubes > MAX_SCAN_CANDIDATES
    ):
        raise UnsupportedError(
            f"{tubes} tubes over {width + 1} degrees exceed "
            f"MAX_SCAN_CANDIDATES = {MAX_SCAN_CANDIDATES} split-aisle "
            "scan candidates; use fewer tubes or a narrower window"
        )


def default_model():
    return TameModel(("t0", "t1", "t2"), 3, 6, Window(-2, 3))


@dataclass(frozen=True)
class KroneckerContext:
    """Module-category view of the truncated Kronecker model."""

    model: TameModel

    @property
    def memo(self):
        return self.model.memo

    def objects(self):
        return self.model.module_objects()

    def at(self, x, degree):
        return x.at(degree)

    def hom(self, x, y):
        return _hom0(x, y)

    def ext(self, x, y):
        return ext_module(x, y)

    def rank(self):
        return 2

    def is_projective(self, x):
        return x.kind == POST

    def name(self, x):
        return x.name()

    def near_boundary(self, x):
        return x.kind != REG and x.index >= self.model.range - 1


def _masks(model):
    return hom_masks(KroneckerContext(model), model.window)


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


def ext_module(X, Y):
    """Module-level Ext^1 via the AR formula."""
    tX = _tau0(X)
    if tX is None:
        return 0
    return _hom0(Y.at(0), tX)


def hom_rule(X, Y):
    """Morphism-space dimension between symbolic derived objects.  The
    reference rule: the checks ask the Hom masks, and the tests check the
    masks against this."""
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

    def __contains__(self, X):
        return X in self.members


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


# The checks walk members in window order (TameModel.objects() order), so
# their witnesses repeat between processes; frozenset order would not,
# because transjective objects have label None, which Python before 3.12
# hashes by address.


def _orthogonal(aisle, model):
    """First Hom witness from the aisle into its complement, or None."""
    masks = _masks(model)
    inside = masks.mask(aisle.members)
    hit = masks.witness(inside, masks.full & ~inside)
    return None if hit is None else tuple(masks.objects[k] for k in hit)


def _shift_closed(aisle, model):
    """First member whose shift leaves the aisle, or None."""
    masks = _masks(model)
    inside = masks.mask(aisle.members)
    missing = masks.shift(inside, 1) & ~inside
    if not missing:
        return None
    return masks.objects[(missing & -missing).bit_length() - 1 - masks.n]


def _ext_projective_witness(aisle, model):
    """An interior member whose translate leaves the aisle, if any.

    The aisle is split, so a translate outside the members lies in the
    right orthogonal and the member would be Ext-projective."""
    masks = _masks(model)
    for x in masks.members(masks.mask(aisle.members)):
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
    masks = _masks(model)
    lo, hi = model.window.lo, model.window.hi
    modules = list(enumerate(model.module_objects()))
    posts = [i for i, x in modules if x.kind == POST]
    pres = [i for i, x in modules if x.kind == PRE]
    # the lowest transjective layer j1 included: postprojectives from
    # degree j1, preinjectives (layer = degree + 1) from degree j1 - 1
    families = [[
        (j1, masks.above(posts, j1) | masks.above(pres, j1 - 1))
        for j1 in range(lo + 2, hi + 1)
    ]]
    for lam in model.tube_labels:
        tube = [i for i, x in modules if x.label == lam]
        families.append(
            [(t, masks.above(tube, t)) for t in range(lo + 1, hi + 1)]
        )
    return [(c[0], c[1:]) for c in masks.orthogonal_unions(families)]


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
    # at pivot layer j1 - 1, each tube starts there or one layer up
    scan = scan_split_aisles(model)
    classified = {
        (j1, combo)
        for j1 in range(model.window.lo + 2, model.window.hi + 1)
        for combo in product((j1 - 1, j1), repeat=len(labels))
    }
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
