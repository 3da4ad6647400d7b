"""Tilting sets and the transport of torsion pairs to the tilted heart.

A tilting set induces the torsion pair (T(T), F(T)) by Ext- and
Hom-vanishing, read off the model's ``derived.module_relation`` as a
pair of module masks.  The module category of the tilted algebra is never
constructed: its indecomposables are realized as the heart of the lifted
t-structure, a mask of the Hom masks of ``HEART_WINDOW``, with
morphisms given by the derived Hom rules.  Base torsion pairs are module
masks and heart torsion pairs are heart-window masks; the chi and zeta
maps between them are shifts and ANDs, and the three-way classification
verifier checks they are mutually inverse bijections on the admissible
classes.

Both Dynkin tables and the symbolic Kronecker model plug in through the
module-category context that lives beside each model
(``derived.TableContext``, ``kronecker.KroneckerContext``).  Each
context states once what "admissible" means: the module masks of its
preinjective, postprojective and regular components
(``components()``), and the closure check on the heart's components
(``check_components``).  Every split test on a base or heart pair is
``derived.split_gap``.
"""

from __future__ import annotations

from typing import NamedTuple

from . import kronecker as kr
from .derived import (
    Window,
    bits,
    hom_masks,
    lowest,
    module_relation,
    split_gap,
    union,
)
from .errors import PreconditionError, ShapeError, TiltingUnsupportedError
from .kronecker import KroneckerContext, build_aisle_63b

# Heart objects sit in degrees 0 and 1, whatever window the caller uses.
HEART_WINDOW = Window(-1, 1)


class TiltingSet(NamedTuple):
    summands: frozenset


class HeartModel(NamedTuple):
    """The tilted module category as the heart of the lifted
    t-structure: T(T) in degree 0, F(T) in degree 1, as masks of the Hom
    masks of ``HEART_WINDOW``, split into the postprojective,
    preinjective and regular components."""

    context: object
    tilting: TiltingSet
    P_A: int
    I_A: int
    R_A: int

    @property
    def masks(self):
        return hom_masks(self.context, HEART_WINDOW)

    @property
    def heart(self):
        return self.P_A | self.I_A | self.R_A


# ---------------------------------------------------------------------------
# Tilting sets and the induced torsion pair
# ---------------------------------------------------------------------------


def is_tilting_set(S, context):
    """Rank, rigidity, and (over the represented objects) the generation
    condition: nothing is orthogonal to all of S in both Hom and Ext.
    A summand that is not an object of the model is a precondition
    violation."""
    S = set(S)
    relation = module_relation(context)
    outside = [t for t in S if t not in relation.index]
    if outside:
        raise PreconditionError(
            f"tilting summand {context.name(min(outside))} is not an object "
            "of the model"
        )
    diagnostics = []
    if len(S) != context.rank():
        diagnostics.append(
            f"expected {context.rank()} summands, got {len(S)}"
        )
    for t in sorted(S):
        for u in sorted(S):
            e = context.ext(t, u)
            if e != 0:
                diagnostics.append(
                    f"ext({context.name(t)}, {context.name(u)}) = {e}"
                )
    summands = relation.mask(S)
    reached = union(relation.hom, summands) | union(relation.ext, summands)
    for k in bits(relation.full & ~reached):
        diagnostics.append(
            f"{context.name(relation.modules[k])} is orthogonal to the whole set"
        )
    return not diagnostics, diagnostics


def induced_torsion_pair(T, context):
    """(T(T), F(T)) by Ext- and Hom-vanishing against the tilting set, as
    module masks, validated for torsion-pair shape."""
    relation = module_relation(context)
    summands = relation.mask(T.summands)
    gen = relation.full & ~union(relation.ext, summands)
    cogen = relation.right_perp(summands)
    # each witness is the least object, not the lowest module index
    objects = relation.modules
    if gen & cogen:
        x = min(objects[k] for k in bits(gen & cogen))
        raise PreconditionError(f"torsion classes overlap at {context.name(x)}")
    across = [objects[k] for k in bits(gen) if relation.hom[k] & cogen]
    if across:
        x = min(across)
        y = min(objects[k] for k in bits(relation.hom[relation.index[x]] & cogen))
        raise PreconditionError(
            f"hom({context.name(x)}, {context.name(y)}) nonzero across the "
            "induced pair"
        )
    return gen, cogen


# ---------------------------------------------------------------------------
# Heart realization
# ---------------------------------------------------------------------------


def heart_realization(T, context):
    """The heart of the lifted t-structure of (T(T), F(T)).

    ``T`` must be a tilting set of represented objects.  Requires every
    torsion-free module to be projective (the standing hypothesis of the
    transport maps); otherwise the tilting set is rejected."""
    ok, diagnostics = is_tilting_set(T.summands, context)
    if not ok:
        raise PreconditionError(f"not a tilting set: {diagnostics[0]}")
    gen, cogen = induced_torsion_pair(T, context)
    free = [module_relation(context).modules[k] for k in bits(cogen)]
    not_proj = [y for y in free if not context.is_projective(y)]
    if not_proj:
        raise TiltingUnsupportedError(
            "torsion-free class is not contained in the projectives: "
            f"{context.name(min(not_proj))} is torsion-free but not "
            "projective"
        )
    masks = hom_masks(context, HEART_WINDOW)
    pre, _post, reg = context.components()
    hm = HeartModel(
        context=context,
        tilting=T,
        P_A=masks.place(gen & ~pre & ~reg, 0),
        I_A=masks.place(gen & pre, 0) | masks.place(cogen, 1),
        R_A=masks.place(gen & reg, 0),
    )
    context.check_components(hm)
    return hm


# ---------------------------------------------------------------------------
# Transport maps
# ---------------------------------------------------------------------------


def _check_base_boundary(torsion, free, hm):
    """The admissible class in the base category: split, every
    preinjective torsion and every postprojective torsion-free."""
    masks, context = hm.masks, hm.context
    pre, post, _reg = context.components()
    for k, message in (
        (lowest(torsion & free), "{} on both sides"),
        (split_gap(masks.part(masks.full, 0), torsion, free),
         "pair is not split: {} in neither class"),
        (lowest(pre & ~torsion), "preinjective {} outside the torsion class"),
        (lowest(post & ~free), "postprojective {} outside the torsion-free class"),
    ):
        if k is not None:
            raise PreconditionError(message.format(context.name(masks.modules[k])))


def transport_chi(torsion, free, hm):
    """Base torsion pair (module masks) to heart torsion pair (heart
    masks): keep the degree-0 part that survives in the heart, and the
    whole degree-1 layer on the torsion side."""
    masks = hm.masks
    _check_base_boundary(torsion, free, hm)
    heart_torsion = hm.heart & (
        masks.place(torsion, 0) | masks.place((1 << masks.n) - 1, 1)
    )
    heart_free = hm.heart & masks.place(free, 0)
    _validate_heart_pair(heart_torsion, heart_free, hm)
    return heart_torsion, heart_free


def _validate_heart_pair(heart_torsion, heart_free, hm):
    masks = hm.masks
    hit = masks.witness(heart_torsion, heart_free)
    if hit is not None:
        x, y = (hm.context.label(masks.objects[k]) for k in hit)
        raise PreconditionError(f"transported pair not orthogonal at {x} -> {y}")
    _check_heart_pair(
        heart_torsion, heart_free, hm, "transported pair does not cover the heart"
    )


def _check_heart_pair(heart_torsion, heart_free, hm, uncovered):
    """Split, with I_A torsion and P_A free; ``uncovered`` is the message
    for a pair that does not make up the heart."""
    if split_gap(hm.heart, heart_torsion, heart_free) is not None:
        raise PreconditionError(uncovered)
    if hm.I_A & ~heart_torsion:
        raise PreconditionError(
            "preinjective heart component outside the torsion side"
        )
    if hm.P_A & ~heart_free:
        raise PreconditionError(
            "postprojective heart component outside the free side"
        )


def transport_zeta(heart_torsion, heart_free, hm):
    """Heart torsion pair back to the base category: the degree-0 part
    of the torsion side, with its right orthogonal (the modules no
    member has a nonzero Hom to)."""
    _check_heart_pair(heart_torsion, heart_free, hm, "heart pair is not split")
    torsion = hm.masks.part(heart_torsion, 0)
    free = module_relation(hm.context).right_perp(torsion)
    _check_base_boundary(torsion, free, hm)
    return torsion, free


# ---------------------------------------------------------------------------
# The three-way classification
# ---------------------------------------------------------------------------


def admissible_base_pairs(model):
    """Split torsion pairs on the truncated Kronecker module category
    with every preinjective torsion and every postprojective free, as
    module masks: one per tube subset."""
    ctx = KroneckerContext(model)
    relation = module_relation(ctx)
    pre, _post, _reg = ctx.components()
    pairs = []
    for L in kr.subsets(model.tube_labels):
        tubes = relation.mask(x for x in relation.modules if x.label in L)
        torsion = pre | tubes
        pairs.append((frozenset(L), torsion, relation.full & ~torsion))
    return pairs


def verify_theorem53(model, T):
    """Exhaustive check of the three-way bijection for one tilting set:
    base split pairs with the boundary conditions, their lifted split
    aisles, and their transported heart pairs, with zeta and chi inverse
    to each other throughout.  Each base pair lifts at pivot 0 and is
    compared with the split aisle classified there, and split aisles are
    classified at interior pivots only, so a window with degree 0 on its
    edge is refused first."""
    lo, hi = model.window
    if not lo < 0 < hi:
        raise ShapeError(
            f"window {lo}..{hi} has degree 0 on its edge: the three-way "
            "bijection lifts each base pair at pivot 0, and split aisles "
            "are classified at interior pivots only"
        )
    ctx = KroneckerContext(model)
    hm = heart_realization(T, ctx)
    masks = hom_masks(ctx, model.window)
    relation = module_relation(ctx)
    report = {"model": kr.describe(model), "cases": [], "pass": True}
    base = admissible_base_pairs(model)
    heart_pairs = set()
    for (L, torsion, free) in base:
        checks = {}
        # orthogonality of the base pair
        checks["base_orthogonal"] = not union(relation.hom, torsion) & free
        # class (c): the lifted aisle is the classified split aisle
        lifted = masks.lift(torsion, free, 0)[0]
        checks["lift_matches_classification"] = (
            lifted == build_aisle_63b(0, L, model)
        )
        # class (a): transport through chi and back through zeta
        ht, hf = transport_chi(torsion, free, hm)
        heart_pairs.add((ht, hf))
        back_t, back_f = transport_zeta(ht, hf, hm)
        checks["zeta_chi_identity"] = back_t == torsion and back_f == free
        ht2, hf2 = transport_chi(back_t, back_f, hm)
        checks["chi_zeta_identity"] = ht2 == ht and hf2 == hf
        case = {
            "tubes": sorted(L),
            "checks": checks,
            "pass": all(checks.values()),
        }
        report["cases"].append(case)
        report["pass"] = report["pass"] and case["pass"]
    report["cardinalities"] = {
        "base_pairs": len(base),
        "aisles": len(base),
        "heart_pairs": len(heart_pairs),
    }
    report["pass"] = report["pass"] and (
        report["cardinalities"]["heart_pairs"] == len(base)
    )
    return report
