"""Tilting sets and the transport of torsion pairs to the tilted heart.

A tilting set induces the torsion pair (T(T), F(T)) by Ext- and
Hom-vanishing.  The module category of the tilted algebra is never
constructed: its indecomposables are realized as the heart of the lifted
t-structure, with morphisms given by the derived Hom rules.  The chi and
zeta maps transport torsion pairs between the base category and the
heart; the three-way classification verifier checks they are mutually
inverse bijections on the admissible classes.

Both Dynkin tables and the symbolic Kronecker model plug in through the
module-category context that lives beside each model
(``derived.TableContext``, ``kronecker.KroneckerContext``); morphisms
between heart objects come from that model's Hom masks.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kronecker as kr
from .derived import TableContext, Window, hom_masks  # noqa: F401 (re-export)
from .errors import PreconditionError, TiltingUnsupportedError
from .kronecker import KroneckerContext, build_aisle_63b

# Heart objects sit in degrees 0 and 1, whatever window the caller uses.
HEART_WINDOW = Window(-1, 1)


@dataclass(frozen=True)
class TiltingSet:
    summands: frozenset


@dataclass(frozen=True)
class HeartModel:
    """The tilted module category as the heart of the lifted
    t-structure: T(T) in degree 0, F(T) in degree 1, with the
    postprojective / regular / preinjective components identified."""

    context: object
    tilting: TiltingSet
    degree0: frozenset
    degree1: frozenset
    P_A: frozenset
    I_A: frozenset
    R_A: frozenset

    def heart_objects(self):
        return {(x, 0) for x in self.degree0} | {
            (y, 1) for y in self.degree1
        }


# ---------------------------------------------------------------------------
# Tilting sets and the induced torsion pair
# ---------------------------------------------------------------------------


def is_tilting_set(S, context):
    """Rank, rigidity, and (over the represented objects) the generation
    condition: nothing is orthogonal to all of S in both Hom and Ext."""
    S = set(S)
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
    for x in context.objects():
        if all(context.hom(t, x) == 0 for t in S) and all(
            context.ext(t, x) == 0 for t in S
        ):
            diagnostics.append(
                f"{context.name(x)} is orthogonal to the whole set"
            )
    return not diagnostics, diagnostics


def induced_torsion_pair(T, context):
    """(T(T), F(T)) by Ext- and Hom-vanishing against the tilting set,
    validated for torsion-pair shape.  Violations whose witnesses touch
    the truncation boundary are reported as warnings, not errors."""
    S = set(T.summands)
    gen = {x for x in context.objects() if all(context.ext(t, x) == 0 for t in S)}
    cogen = {x for x in context.objects() if all(context.hom(t, x) == 0 for t in S)}
    warnings = []
    overlap = gen & cogen
    if overlap:
        raise PreconditionError(
            f"torsion classes overlap at {context.name(sorted(overlap)[0])}"
        )
    for x in sorted(gen):
        for y in sorted(cogen):
            if context.hom(x, y) != 0:
                msg = (
                    f"hom({context.name(x)}, {context.name(y)}) nonzero "
                    "across the induced pair"
                )
                if context.near_boundary(x) or context.near_boundary(y):
                    warnings.append(msg)
                else:
                    raise PreconditionError(msg)
    return frozenset(gen), frozenset(cogen), warnings


# ---------------------------------------------------------------------------
# Heart realization
# ---------------------------------------------------------------------------


def heart_realization(T, context):
    """The heart of the lifted t-structure of (T(T), F(T)).

    ``T`` must be a tilting set of represented objects.  Requires every
    torsion-free module to be projective (the standing hypothesis of the
    transport maps); otherwise the tilting set is rejected."""
    objects = set(context.objects())
    outside = sorted(t for t in T.summands if t not in objects)
    if outside:
        raise PreconditionError(
            f"tilting summand {context.name(outside[0])} is not an object "
            "of the model"
        )
    ok, diagnostics = is_tilting_set(T.summands, context)
    if not ok:
        raise PreconditionError(f"not a tilting set: {diagnostics[0]}")
    gen, cogen, _warnings = induced_torsion_pair(T, context)
    not_proj = [y for y in cogen if not context.is_projective(y)]
    if not_proj:
        raise TiltingUnsupportedError(
            "torsion-free class is not contained in the projectives: "
            f"{context.name(sorted(not_proj)[0])} is torsion-free but not "
            "projective"
        )
    if isinstance(context, KroneckerContext):
        P_A = frozenset((x, 0) for x in gen if x.kind == kr.POST)
        I_A = frozenset((x, 0) for x in gen if x.kind == kr.PRE) | frozenset(
            (y, 1) for y in cogen
        )
        R_A = frozenset((x, 0) for x in gen if x.kind == kr.REG)
    else:
        P_A = frozenset((x, 0) for x in gen)
        I_A = frozenset((y, 1) for y in cogen)
        R_A = frozenset()
    hm = HeartModel(
        context=context,
        tilting=T,
        degree0=frozenset(gen),
        degree1=frozenset(cogen),
        P_A=P_A,
        I_A=I_A,
        R_A=R_A,
    )
    _validate_components(hm)
    return hm


def _validate_components(hm):
    """Structural sanity of the component identification: the tilting
    summands land in P_A; P_A is closed under inverse translation inside
    the heart, I_A under translation."""
    if not isinstance(hm.context, KroneckerContext):
        return
    model = hm.context.model
    heart = hm.heart_objects()
    for t in hm.tilting.summands:
        if (t, 0) not in hm.P_A:
            raise PreconditionError(
                f"tilting summand {t.name()} missed the postprojective part"
            )
    for (x, d) in hm.P_A:
        try:
            tx = kr.tau_inverse_rule(x.at(d), model)
        except kr.TruncationError:
            continue
        key = (tx.at(0), tx.degree)
        if key in heart and key not in hm.P_A:
            raise PreconditionError(
                f"inverse translate of {x.name()} escapes the "
                "postprojective part"
            )
    for (x, d) in hm.I_A:
        try:
            tx = kr.tau_rule(x.at(d), model)
        except kr.TruncationError:
            continue
        key = (tx.at(0), tx.degree)
        if key in heart and key not in hm.I_A:
            raise PreconditionError(
                f"translate of {x.name()} escapes the preinjective part"
            )


# ---------------------------------------------------------------------------
# Transport maps
# ---------------------------------------------------------------------------


def _check_base_boundary(torsion, free, context):
    """The admissible class in the base category: split, all
    non-projective injective-side objects torsion, projectives free."""
    for x in context.objects():
        if x in torsion and x in free:
            raise PreconditionError(f"{context.name(x)} on both sides")
        if x not in torsion and x not in free:
            raise PreconditionError(
                f"pair is not split: {context.name(x)} in neither class"
            )
    if isinstance(context, KroneckerContext):
        for x in context.objects():
            if x.kind == kr.PRE and x not in torsion:
                raise PreconditionError(
                    f"preinjective {x.name()} outside the torsion class"
                )
            if x.kind == kr.POST and x not in free:
                raise PreconditionError(
                    f"postprojective {x.name()} outside the torsion-free class"
                )


def transport_chi(torsion, free, hm):
    """Base torsion pair to heart torsion pair: keep the degree-0 part
    that survives in the heart, and the whole degree-1 layer on the
    torsion side."""
    context = hm.context
    _check_base_boundary(torsion, free, context)
    heart_torsion = {(x, 0) for x in torsion if x in hm.degree0} | {
        (y, 1) for y in hm.degree1
    }
    heart_free = {(x, 0) for x in free if x in hm.degree0}
    _validate_heart_pair(heart_torsion, heart_free, hm)
    return frozenset(heart_torsion), frozenset(heart_free)


def _validate_heart_pair(heart_torsion, heart_free, hm):
    context = hm.context
    masks = hom_masks(context, HEART_WINDOW)

    def mask(pairs):
        return masks.mask(context.at(x, d) for (x, d) in pairs)

    hit = masks.witness(mask(heart_torsion), mask(heart_free))
    if hit is not None:
        x, y = (context.label(masks.objects[k]) for k in hit)
        raise PreconditionError(f"transported pair not orthogonal at {x} -> {y}")
    if heart_torsion | heart_free != hm.heart_objects():
        raise PreconditionError("transported pair does not cover the heart")
    _check_heart_components(heart_torsion, heart_free, hm)


def _check_heart_components(heart_torsion, heart_free, hm):
    if not hm.I_A <= heart_torsion:
        raise PreconditionError(
            "preinjective heart component outside the torsion side"
        )
    if not hm.P_A <= heart_free:
        raise PreconditionError(
            "postprojective heart component outside the free side"
        )


def transport_zeta(heart_torsion, heart_free, hm):
    """Heart torsion pair back to the base category: the degree-0 part
    of the torsion side, with its right orthogonal."""
    context = hm.context
    if heart_torsion | heart_free != hm.heart_objects():
        raise PreconditionError("heart pair is not split")
    _check_heart_components(heart_torsion, heart_free, hm)
    torsion = {x for (x, d) in heart_torsion if d == 0}
    free = {
        y
        for y in context.objects()
        if all(context.hom(t, y) == 0 for t in torsion)
    }
    _check_base_boundary(torsion, free, context)
    return frozenset(torsion), frozenset(free)


# ---------------------------------------------------------------------------
# The three-way classification
# ---------------------------------------------------------------------------


def admissible_base_pairs(model):
    """Split torsion pairs on the truncated Kronecker module category
    with every preinjective torsion and every postprojective free: one
    per tube subset."""
    ctx = KroneckerContext(model)
    pairs = []
    for L in kr._subsets(model.tube_labels):
        L = set(L)
        torsion = frozenset(
            x
            for x in ctx.objects()
            if x.kind == kr.PRE or (x.kind == kr.REG and x.label in L)
        )
        free = frozenset(x for x in ctx.objects() if x not in torsion)
        pairs.append((frozenset(sorted(L)), torsion, free))
    return pairs


def verify_theorem53(model, T):
    """Exhaustive check of the three-way bijection for one tilting set:
    base split pairs with the boundary conditions, their lifted split
    aisles, and their transported heart pairs, with zeta and chi inverse
    to each other throughout."""
    ctx = KroneckerContext(model)
    hm = heart_realization(T, ctx)
    masks = hom_masks(ctx, model.window)
    report = {"model": kr.describe(model), "cases": [], "pass": True}
    base = admissible_base_pairs(model)
    for (L, torsion, free) in base:
        checks = {}
        # orthogonality of the base pair
        checks["base_orthogonal"] = all(
            ctx.hom(x, y) == 0 for x in torsion for y in free
        )
        # class (c): the lifted aisle is the classified split aisle
        lifted = masks.layer(
            [k for k, x in enumerate(masks.modules) if x in torsion], 0
        ) | masks.above(range(masks.n), 1)
        checks["lift_matches_classification"] = (
            lifted == build_aisle_63b(0, L, model)
        )
        # class (a): transport through chi and back through zeta
        ht, hf = transport_chi(torsion, free, hm)
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
        "heart_pairs": len({transport_chi(t, f, hm) for (_L, t, f) in base}),
    }
    report["pass"] = report["pass"] and (
        report["cardinalities"]["heart_pairs"] == len(base)
    )
    return report
