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
module category (Hom, Ext, the translate and object labels) to the
shared Hom-mask core of ``aisles.derived``, and states the model's
admissibility rule once: the preinjective, postprojective and regular
module masks (every preinjective torsion, every postprojective free),
and the closure check on a tilted heart's components.  Aisles are window
masks of that core: ``build_aisle_63b`` unions the same threshold masks
the split-aisle scan searches, and ``verify_63b`` checks orthogonality,
shift-closure, Ext-projectives and the degree-0 trace with the core's
``witness``, ``shift_escape``, ``ext_projectives`` and ``part``.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .derived import (
    Components,
    bits,
    check_scan_candidates,
    check_window_objects,
    gap_rule,
    hom_masks,
    lowest,
)
from .errors import PreconditionError, ShapeError, TruncationError

POST = "post"
PRE = "pre"
REG = "reg"


class _KroneckerFields(NamedTuple):
    kind: str
    index: int  # transjective index for post/pre, quasi-length for reg
    label: str | None
    degree: int


class KroneckerObject(_KroneckerFields):
    __slots__ = ()

    def __new__(cls, kind, index, label, degree):
        if kind not in (POST, PRE, REG):
            raise ShapeError(f"unknown kind {kind!r}")
        if kind == REG and (label is None or index < 1):
            raise ShapeError("regular objects need a tube label and length")
        if kind != REG and (label is not None or index < 0):
            raise ShapeError("transjective objects take a bare index")
        return tuple.__new__(cls, (kind, index, label, degree))

    def dimvec(self):
        if self.kind == POST:
            return (self.index, self.index + 1)
        if self.kind == PRE:
            return (self.index + 1, self.index)
        return (self.index, self.index)

    def at(self, degree):
        return KroneckerObject(self.kind, self.index, self.label, degree)

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


class TameModel:
    def __init__(self, tube_labels, tube_depth, range, window):
        if len(tube_labels) < 3:
            raise ShapeError("need at least three tube labels")
        if tube_depth < 1 or range < 1:
            raise ShapeError("positive truncation parameters required")
        check_budgets(len(tube_labels), tube_depth, range, window)
        self.tube_labels = tube_labels
        self.tube_depth = tube_depth
        self.range = range
        self.window = window
        # Results derived from this model alone (its Hom masks and
        # split-aisle blocks), computed on first use.
        self.memo = {}

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
    width = window.hi - window.lo
    check_scan_candidates(
        width, tubes, f"{tubes} tubes", "use fewer tubes or a narrower window",
        factor=width - 1,
    )


class KroneckerContext(NamedTuple):
    """Module-category view of the truncated Kronecker model.  ``tau``
    and ``label`` take window objects; a translate past the transjective
    range is not represented (None)."""

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

    def tau(self, obj):
        try:
            return tau_rule(obj, self.model)
        except TruncationError:
            return None  # past the transjective range: not represented

    def label(self, obj):
        return obj.name()

    def rank(self):
        return 2

    def is_projective(self, x):
        return x.kind == POST

    def name(self, x):
        return x.name()

    def components(self):
        """The preinjective, postprojective and regular module masks;
        an admissible pair has every preinjective torsion and every
        postprojective torsion-free.  Built once per model."""
        if "components" not in self.memo:
            modules = self.objects()
            self.memo["components"] = Components(*(
                sum(1 << k for k, x in enumerate(modules) if x.kind == kind)
                for kind in (PRE, POST, REG)
            ))
        return self.memo["components"]

    def check_components(self, hm):
        """The component identification of the heart ``hm``: the tilting
        summands land in P_A, P_A is closed under inverse translation
        inside the heart and I_A under translation.  A translate that is
        not represented is skipped."""
        masks = hm.masks
        for t in sorted(hm.tilting.summands):
            if not hm.P_A >> masks.index[t] & 1:
                raise PreconditionError(
                    f"tilting summand {t.name()} missed the postprojective "
                    "part"
                )
        # tau is a bijection where represented: y outside P_A with tau(y)
        # in P_A is an inverse translate escaping P_A
        for k in bits(hm.heart & ~hm.P_A):
            t = masks.tau[k]
            if t is not None and hm.P_A >> t & 1:
                raise PreconditionError(
                    f"inverse translate of {masks.objects[t].name()} escapes "
                    "the postprojective part"
                )
        for k in bits(hm.I_A):
            t = masks.tau[k]
            if t is not None and (hm.heart & ~hm.I_A) >> t & 1:
                raise PreconditionError(
                    f"translate of {masks.objects[k].name()} escapes the "
                    "preinjective part"
                )


def _masks(model):
    return hom_masks(KroneckerContext(model), model.window)


# ---------------------------------------------------------------------------
# Hom and tau rules
# ---------------------------------------------------------------------------


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
    return 0 if tX is None else _hom0(Y, tX)


def hom_rule(X, Y):
    """``gap_rule`` over ``_hom0`` and ``ext_module``; the tests check
    the Hom masks, which the checks ask, against it."""
    return gap_rule(X, Y, _hom0, ext_module)


def tau_rule(X, model):
    """Derived AR translate: ``_tau0`` in X's degree; the projectives
    Post(0), Post(1) wrap to Pre(1), Pre(0) one degree down.  Overflow
    past the transjective truncation is an error, never a silent clamp."""
    if X.kind == PRE and X.index + 2 > model.range:
        raise TruncationError(f"tau of {X.name()} exceeds the transjective range")
    tX = _tau0(X)
    return pre(1 - X.index, X.degree - 1) if tX is None else tX.at(X.degree)


def layer(X):
    """Transjective-layer index: preinjectives of degree d glue with the
    postprojectives and regulars of degree d + 1 into one component.
    The reference rule: ``build_aisle_63b`` reads threshold masks, and
    the tests check them against this."""
    return X.degree + 1 if X.kind == PRE else X.degree


# ---------------------------------------------------------------------------
# Aisles of the tame classification
# ---------------------------------------------------------------------------


def _threshold_families(model):
    """The blocks split aisles are unions of, as {threshold: mask} dicts:
    first the transjective objects of every layer from j1 up, then each
    tube (in label order) from degree t up.  Built once per model."""
    if "threshold_families" not in model.memo:
        masks = _masks(model)
        lo, hi = model.window.lo, model.window.hi
        pres, posts, regular = KroneckerContext(model).components()
        # postprojectives from degree j1, preinjectives (layer = degree
        # + 1) from degree j1 - 1
        families = [{
            j1: masks.above(posts, j1) | masks.above(pres, j1 - 1)
            for j1 in range(lo + 2, hi + 1)
        }]
        # the regular modules run tube by tube in label order
        # (``module_objects``), ``tube_depth`` of them each
        tube = (1 << model.tube_depth) - 1 << lowest(regular)
        for _lam in model.tube_labels:
            families.append(
                {t: masks.above(tube, t) for t in range(lo + 1, hi + 1)}
            )
            tube <<= model.tube_depth
        model.memo["threshold_families"] = families
    return model.memo["threshold_families"]


def build_aisle_63b(i, L, model):
    """The split aisle with pivot layer ``i`` and tube subset ``L``, as a
    window mask: every object in a layer above i, plus the chosen tubes
    at layer i."""
    if not (model.window.lo < i < model.window.hi):
        raise ShapeError("pivot layer must be interior to the window")
    transjective, *tubes = _threshold_families(model)
    aisle = transjective[i + 1]
    for lam, tube in zip(model.tube_labels, tubes):
        aisle |= tube[i if lam in L else i + 1]
    return aisle


def scan_split_aisles(model):
    """Exhaustive scan over tube-and-layer-resolved shift-closed subsets
    that contain the top window degree and miss the bottom one; returns
    the surviving split aisles as (transjective threshold, per-tube
    thresholds) tuples."""
    families = [f.items() for f in _threshold_families(model)]
    found = _masks(model).orthogonal_unions(families)
    return [(c[0], c[1:]) for c in found]


def verify_63b(model):
    """Full verification of the tame split-aisle classification on the
    truncated model; returns a report with per-check pass flags."""
    report = {"model": describe(model), "cases": [], "pass": True}
    labels = model.tube_labels
    masks = _masks(model)
    pres, posts, _regular = KroneckerContext(model).components()
    for i in model.window.interior():
        for L in subsets(labels):
            aisle = build_aisle_63b(i, L, model)
            checks = {}
            witness = masks.witness(aisle, masks.full & ~aisle)
            checks["orthogonal"] = witness is None
            checks["shift_closed"] = masks.shift_escape(aisle) is None
            checks["no_ext_projectives"] = not masks.ext_projectives(aisle)
            case = {
                "pivot": i,
                "tubes": sorted(L),
                "checks": checks,
            }
            if witness is not None:
                case["witness"] = [masks.objects[k].name() for k in witness]
            if i == 0:
                # the degree-0 trace: torsion in the aisle, free outside
                torsion = masks.part(aisle, 0)
                checks["preinjectives_torsion"] = not pres & ~torsion
                checks["postprojectives_free"] = not posts & torsion
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


def subsets(items):
    """Every sublist of ``items``, in binary counting order."""
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
