import functools
from itertools import combinations, product

import pytest

from aisles.derived import (
    DerivedObject,
    TableContext,
    Window,
    hom_masks,
    module_relation,
    union,
)
from aisles.errors import PreconditionError, TiltingUnsupportedError
from aisles.kronecker import TameModel, post, pre, reg
from aisles.transport import (
    HEART_WINDOW,
    KroneckerContext,
    TiltingSet,
    _validate_heart_pair,
    admissible_base_pairs,
    heart_realization,
    induced_torsion_pair,
    is_tilting_set,
    transport_chi,
    transport_zeta,
    verify_theorem53,
)
from reference import chi_reference, window_mask, zeta_reference

KRONECKER_T = TiltingSet(frozenset({post(1), post(2)}))


def _ids(table, *dimvecs):
    return frozenset(table.by_dimvec(d).id for d in dimvecs)


def _modules(masks, mask):
    """A module mask as the set of its module objects; ``masks`` is a
    ``HomMasks`` or a ``ModuleRelation``."""
    return {x for k, x in enumerate(masks.modules) if mask >> k & 1}


def _pairs(masks, mask):
    """A heart mask as the set of its (module object, degree) tuples."""
    return {
        (masks.modules[k % masks.n], HEART_WINDOW.lo + k // masks.n)
        for k in range(len(masks.objects))
        if mask >> k & 1
    }


# ---------------------------------------------------------------------------
# Dynkin context
# ---------------------------------------------------------------------------


def test_is_tilting_set_a2(a2_table):
    ctx = TableContext(a2_table)
    p1 = a2_table.by_dimvec((1, 1)).id
    s1 = a2_table.by_dimvec((1, 0)).id
    s2 = a2_table.by_dimvec((0, 1)).id
    ok, diag = is_tilting_set({p1, s1}, ctx)
    assert ok, diag
    ok, diag = is_tilting_set({p1, s2}, ctx)  # the algebra itself
    assert ok, diag
    # {S_1, S_2} has a self-extension
    ok, diag = is_tilting_set({s1, s2}, ctx)
    assert not ok
    assert any("ext" in d for d in diag)
    # wrong rank
    ok, diag = is_tilting_set({p1}, ctx)
    assert not ok


def test_induced_pair_a2_apr_tilt(a2_table):
    ctx = TableContext(a2_table)
    p1 = a2_table.by_dimvec((1, 1)).id
    s1 = a2_table.by_dimvec((1, 0)).id
    s2 = a2_table.by_dimvec((0, 1)).id
    gen, cogen = induced_torsion_pair(TiltingSet(frozenset({p1, s1})), ctx)
    relation = module_relation(ctx)
    assert _modules(relation, gen) == {p1, s1}
    assert _modules(relation, cogen) == {s2}


def test_heart_realization_a2(a2_table):
    ctx = TableContext(a2_table)
    p1 = a2_table.by_dimvec((1, 1)).id
    s1 = a2_table.by_dimvec((1, 0)).id
    s2 = a2_table.by_dimvec((0, 1)).id
    hm = heart_realization(TiltingSet(frozenset({p1, s1})), ctx)
    masks = hom_masks(ctx, HEART_WINDOW)
    assert _pairs(masks, hm.heart) == {(p1, 0), (s1, 0), (s2, 1)}
    # a Dynkin table pins no component: degree 0 is P_A, degree 1 is I_A
    assert ctx.components() == (0, 0, 0)
    assert _pairs(masks, hm.P_A) == {(p1, 0), (s1, 0)}
    assert _pairs(masks, hm.I_A) == {(s2, 1)}
    assert hm.R_A == 0

    # morphisms inside the heart follow the degree-gap rules
    def hom_nonzero(a, b):
        k, l = (masks.index[DerivedObject(*x)] for x in (a, b))
        return bool(masks.out[k] >> l & 1)

    assert hom_nonzero((p1, 0), (s1, 0))
    assert hom_nonzero((s1, 0), (s2, 1))
    assert not hom_nonzero((s2, 1), (p1, 0))


def test_heart_pair_orthogonality_witness(a2_table):
    ctx = TableContext(a2_table)
    p1 = a2_table.by_dimvec((1, 1)).id
    s1 = a2_table.by_dimvec((1, 0)).id
    s2 = a2_table.by_dimvec((0, 1)).id
    hm = heart_realization(TiltingSet(frozenset({p1, s1})), ctx)
    masks = hm.masks
    # Hom(P_1, S_1) != 0, so P_1 cannot be torsion with S_1 free
    with pytest.raises(PreconditionError) as exc:
        _validate_heart_pair(
            window_mask(masks, [DerivedObject(p1, 0)]),
            window_mask(masks, [DerivedObject(s1, 0), DerivedObject(s2, 1)]),
            hm,
        )
    assert "not orthogonal at [1, 1]@0 -> [1, 0]@0" in str(exc.value)


def test_heart_pair_orthogonality_witness_kronecker(tame_model):
    ctx = KroneckerContext(tame_model)
    hm = heart_realization(KRONECKER_T, ctx)
    masks = hm.masks
    # Hom(Post(1), Reg(t0,1)) != 0 in degree 0
    with pytest.raises(PreconditionError) as exc:
        _validate_heart_pair(
            window_mask(masks, [post(1)]), window_mask(masks, [reg("t0", 1)]), hm
        )
    assert "not orthogonal at Post(1)@0 -> Reg(t0,1)@0" in str(exc.value)


def test_heart_realization_rejects_nonprojective_free(a3_table):
    ctx = TableContext(a3_table)
    # valid tilting set whose torsion-free class contains the middle
    # simple, which is not projective
    summands = _ids(a3_table, (0, 0, 1), (1, 0, 0), (1, 1, 1))
    ok, diag = is_tilting_set(summands, ctx)
    assert ok, diag
    with pytest.raises(TiltingUnsupportedError):
        heart_realization(TiltingSet(summands), ctx)


# ---------------------------------------------------------------------------
# Kronecker context
# ---------------------------------------------------------------------------


def test_kronecker_tilting_set(tame_model):
    ctx = KroneckerContext(tame_model)
    ok, diag = is_tilting_set({post(1), post(2)}, ctx)
    assert ok, diag
    ok, diag = is_tilting_set({post(1), post(3)}, ctx)  # not rigid
    assert not ok
    # past the transjective range: not an object of the model
    with pytest.raises(PreconditionError) as exc:
        is_tilting_set({post(1), post(tame_model.range + 1)}, ctx)
    assert str(exc.value) == (
        "tilting summand Post(7)@0 is not an object of the model"
    )


def test_kronecker_induced_pair(tame_model):
    ctx = KroneckerContext(tame_model)
    gen, cogen = (
        _modules(module_relation(ctx), c)
        for c in induced_torsion_pair(KRONECKER_T, ctx)
    )
    assert post(0) in cogen
    assert post(1) in gen and post(2) in gen
    assert all(pre(m) in gen for m in range(tame_model.range + 1))
    assert all(
        reg(lam, ell) in gen
        for lam in tame_model.tube_labels
        for ell in range(1, tame_model.tube_depth + 1)
    )


def test_kronecker_heart_components(tame_model):
    ctx = KroneckerContext(tame_model)
    hm = heart_realization(KRONECKER_T, ctx)
    P_A, I_A, R_A = (_pairs(hm.masks, m) for m in (hm.P_A, hm.I_A, hm.R_A))
    assert (post(1), 0) in P_A
    assert (post(0), 1) in I_A
    assert (pre(0), 0) in I_A
    assert (reg("t0", 1), 0) in R_A
    assert not (hm.P_A & hm.I_A or hm.P_A & hm.R_A or hm.I_A & hm.R_A)
    gen, cogen = (
        _modules(hm.masks, c) for c in induced_torsion_pair(KRONECKER_T, ctx)
    )
    assert P_A | I_A | R_A == {(x, 0) for x in gen} | {(y, 1) for y in cogen}


def test_admissible_base_pairs_count(tame_model):
    pairs = admissible_base_pairs(tame_model)
    assert len(pairs) == 8  # one per tube subset
    everything = (1 << len(tame_model.module_objects())) - 1
    for (_L, torsion, free) in pairs:
        assert torsion | free == everything
        assert not (torsion & free)


def test_chi_zeta_roundtrip(tame_model):
    ctx = KroneckerContext(tame_model)
    hm = heart_realization(KRONECKER_T, ctx)
    for (_L, torsion, free) in admissible_base_pairs(tame_model):
        ht, hf = transport_chi(torsion, free, hm)
        bt, bf = transport_zeta(ht, hf, hm)
        assert bt == torsion and bf == free


def test_chi_rejects_corrupted_heart_pair(tame_model):
    ctx = KroneckerContext(tame_model)
    hm = heart_realization(KRONECKER_T, ctx)
    (_L, torsion, free) = admissible_base_pairs(tame_model)[0]
    ht, hf = transport_chi(torsion, free, hm)
    # drop a degree-1 object from the torsion side: no longer covers the heart
    dropped = ht & ~window_mask(hm.masks, [post(0, 1)])
    with pytest.raises(PreconditionError) as exc:
        transport_zeta(dropped, hf, hm)
    assert str(exc.value) == "heart pair is not split"


def test_chi_rejects_non_admissible_base_pair(tame_model):
    ctx = KroneckerContext(tame_model)
    hm = heart_realization(KRONECKER_T, ctx)
    everything = (1 << len(ctx.objects())) - 1
    # preinjective slice on the wrong side
    torsion = ctx.components().postprojective
    free = everything & ~torsion
    with pytest.raises(PreconditionError):
        transport_chi(torsion, free, hm)


def test_verify_theorem53(tame_model):
    report = verify_theorem53(tame_model, KRONECKER_T)
    assert report["pass"]
    assert len(report["cases"]) == 8
    assert all(case["pass"] for case in report["cases"])
    assert report["cardinalities"] == {
        "base_pairs": 8,
        "aisles": 8,
        "heart_pairs": 8,
    }


# ---------------------------------------------------------------------------
# Preconditions, one fault per input
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "obj, source, target, message",
    [
        (post(2), "P_A", "R_A",
         "tilting summand Post(2)@0 missed the postprojective part"),
        (post(3), "P_A", "R_A",
         "inverse translate of Post(1)@0 escapes the postprojective part"),
        (pre(2), "I_A", "R_A",
         "translate of Pre(0)@0 escapes the preinjective part"),
    ],
    ids=["summand-missed", "inverse-translate-escapes", "translate-escapes"],
)
def test_component_closure_witness(tame_model, obj, source, target, message):
    ctx = KroneckerContext(tame_model)
    hm = heart_realization(KRONECKER_T, ctx)
    bit = window_mask(hm.masks, [obj])
    moved = {source: getattr(hm, source) & ~bit, target: getattr(hm, target) | bit}
    broken = hm._replace(**moved)
    with pytest.raises(PreconditionError) as exc:
        ctx.check_components(broken)
    assert str(exc.value) == message


def test_dynkin_heart_has_no_closure_check(a2_table):
    ctx = TableContext(a2_table)
    p1 = a2_table.by_dimvec((1, 1)).id
    s1 = a2_table.by_dimvec((1, 0)).id
    hm = heart_realization(TiltingSet(frozenset({p1, s1})), ctx)
    # the Kronecker closure check would reject a summand outside P_A
    ctx.check_components(hm._replace(P_A=0, R_A=hm.P_A))


@pytest.mark.parametrize(
    "add_torsion, drop_torsion, add_free, drop_free, message",
    [
        ([reg("t0", 1)], [], [], [], "Reg(t0,1)@0 on both sides"),
        ([], [], [], [reg("t0", 1)],
         "pair is not split: Reg(t0,1)@0 in neither class"),
        ([], [pre(3)], [pre(3)], [],
         "preinjective Pre(3)@0 outside the torsion class"),
        ([post(3)], [], [], [post(3)],
         "postprojective Post(3)@0 outside the torsion-free class"),
    ],
    ids=["both-sides", "not-split", "pre-free", "post-torsion"],
)
def test_base_boundary_witness(
    tame_model, add_torsion, drop_torsion, add_free, drop_free, message
):
    ctx = KroneckerContext(tame_model)
    hm = heart_realization(KRONECKER_T, ctx)
    (_L, torsion, free) = admissible_base_pairs(tame_model)[0]  # no tubes
    index = hm.masks.modules.index

    def edit(base, add, drop):
        add, drop = (sum(1 << index(x) for x in xs) for xs in (add, drop))
        return (base | add) & ~drop

    with pytest.raises(PreconditionError) as exc:
        transport_chi(
            edit(torsion, add_torsion, drop_torsion),
            edit(free, add_free, drop_free),
            hm,
        )
    assert str(exc.value) == message


def test_heart_pair_witnesses(tame_model):
    ctx = KroneckerContext(tame_model)
    hm = heart_realization(KRONECKER_T, ctx)
    bit = functools.partial(window_mask, hm.masks)
    _L, torsion, free = admissible_base_pairs(tame_model)[0]  # no tubes
    ht, hf = transport_chi(torsion, free, hm)
    with pytest.raises(PreconditionError) as exc:
        _validate_heart_pair(ht, hf & ~bit([reg("t0", 1)]), hm)
    assert str(exc.value) == "transported pair does not cover the heart"
    # the last preinjective maps to no other preinjective: moving it to
    # the free side keeps the pair orthogonal
    last = bit([pre(tame_model.range)])
    with pytest.raises(PreconditionError) as exc:
        _validate_heart_pair(ht & ~last, hf | last, hm)
    assert str(exc.value) == (
        "preinjective heart component outside the torsion side"
    )
    _L, torsion, free = admissible_base_pairs(tame_model)[-1]  # every tube
    ht, hf = transport_chi(torsion, free, hm)
    # nothing on the free side receives a map from the last postprojective
    last = bit([post(tame_model.range)])
    with pytest.raises(PreconditionError) as exc:
        _validate_heart_pair(ht | last, hf & ~last, hm)
    assert str(exc.value) == (
        "postprojective heart component outside the free side"
    )


def test_induced_pair_overlap_witness(tame_model):
    # nothing has Ext from Post(0), and only Pre(0) has no Hom from it
    with pytest.raises(PreconditionError) as exc:
        induced_torsion_pair(
            TiltingSet(frozenset({post(0)})), KroneckerContext(tame_model)
        )
    assert str(exc.value) == "torsion classes overlap at Pre(0)@0"


def test_induced_pair_is_orthogonal_for_every_tilting_pair():
    """Every 2-element tilting set of the Kronecker models with 3-4 tubes,
    tube depth 1-4 and range 1-10 induces a pair with no Hom from the
    torsion to the torsion-free class, so the check that raises on one
    never fires, also next to the truncation boundary."""
    found = 0
    for tubes, depth, range_ in product((3, 4), range(1, 5), range(1, 11)):
        labels = tuple(f"t{i}" for i in range(tubes))
        ctx = KroneckerContext(TameModel(labels, depth, range_, Window(-2, 3)))
        relation = module_relation(ctx)
        for pair in combinations(ctx.objects(), 2):
            if is_tilting_set(pair, ctx)[0]:
                gen, cogen = induced_torsion_pair(TiltingSet(frozenset(pair)), ctx)
                assert not union(relation.hom, gen) & cogen
                found += 1
    assert found == 880


# ---------------------------------------------------------------------------
# The mask maps against the set-based reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tubes", [3, 4])
def test_mask_maps_match_set_reference(tubes):
    labels = tuple(f"t{i}" for i in range(tubes))
    cases = 0
    for depth in range(1, 5):
        for range_ in range(4, 11):
            model = TameModel(labels, depth, range_, Window(-2, 3))
            ctx = KroneckerContext(model)
            hm = heart_realization(KRONECKER_T, ctx)
            masks = hm.masks
            gen, cogen = (
                _modules(masks, c) for c in induced_torsion_pair(KRONECKER_T, ctx)
            )
            for (_L, torsion, free) in admissible_base_pairs(model):
                ht, hf = transport_chi(torsion, free, hm)
                ref_t, ref_f = chi_reference(
                    _modules(masks, torsion), _modules(masks, free), gen, cogen
                )
                assert (_pairs(masks, ht), _pairs(masks, hf)) == (ref_t, ref_f)
                bt, bf = transport_zeta(ht, hf, hm)
                assert (_modules(masks, bt), _modules(masks, bf)) == (
                    zeta_reference(ref_t, ctx)
                )
                cases += 1
    assert cases == 4 * 7 * 2**tubes
