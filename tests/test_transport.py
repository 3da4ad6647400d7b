import pytest

from aisles.derived import DerivedObject, hom_masks
from aisles.errors import PreconditionError, TiltingUnsupportedError
from aisles.kronecker import post, pre, reg
from aisles.transport import (
    HEART_WINDOW,
    KroneckerContext,
    TableContext,
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


def _ids(table, *dimvecs):
    return frozenset(table.by_dimvec(d).id for d in dimvecs)


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
    gen, cogen, warnings = induced_torsion_pair(
        TiltingSet(frozenset({p1, s1})), ctx
    )
    assert gen == frozenset({p1, s1})
    assert cogen == frozenset({s2})
    assert warnings == []


def test_heart_realization_a2(a2_table):
    ctx = TableContext(a2_table)
    p1 = a2_table.by_dimvec((1, 1)).id
    s1 = a2_table.by_dimvec((1, 0)).id
    s2 = a2_table.by_dimvec((0, 1)).id
    hm = heart_realization(TiltingSet(frozenset({p1, s1})), ctx)
    assert hm.heart_objects() == {(p1, 0), (s1, 0), (s2, 1)}
    # morphisms inside the heart follow the degree-gap rules
    masks = hom_masks(ctx, HEART_WINDOW)

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
    # Hom(P_1, S_1) != 0, so P_1 cannot be torsion with S_1 free
    with pytest.raises(PreconditionError) as exc:
        _validate_heart_pair({(p1, 0)}, {(s1, 0), (s2, 1)}, hm)
    assert "not orthogonal at [1, 1]@0 -> [1, 0]@0" in str(exc.value)


def test_heart_pair_orthogonality_witness_kronecker(tame_model):
    ctx = KroneckerContext(tame_model)
    hm = heart_realization(TiltingSet(frozenset({post(1), post(2)})), ctx)
    # Hom(Post(1), Reg(t0,1)) != 0 in degree 0
    with pytest.raises(PreconditionError) as exc:
        _validate_heart_pair({(post(1), 0)}, {(reg("t0", 1), 0)}, hm)
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


def test_kronecker_induced_pair(tame_model):
    ctx = KroneckerContext(tame_model)
    gen, cogen, warnings = induced_torsion_pair(
        TiltingSet(frozenset({post(1), post(2)})), ctx
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
    hm = heart_realization(TiltingSet(frozenset({post(1), post(2)})), ctx)
    assert (post(1), 0) in hm.P_A
    assert (post(0), 1) in hm.I_A
    assert (pre(0), 0) in hm.I_A
    assert (reg("t0", 1), 0) in hm.R_A
    assert hm.P_A | hm.I_A | hm.R_A == hm.heart_objects()


def test_admissible_base_pairs_count(tame_model):
    pairs = admissible_base_pairs(tame_model)
    assert len(pairs) == 8  # one per tube subset
    for (_L, torsion, free) in pairs:
        ctx = KroneckerContext(tame_model)
        assert torsion | free == set(ctx.objects())
        assert not (torsion & free)


def test_chi_zeta_roundtrip(tame_model):
    ctx = KroneckerContext(tame_model)
    hm = heart_realization(TiltingSet(frozenset({post(1), post(2)})), ctx)
    for (_L, torsion, free) in admissible_base_pairs(tame_model):
        ht, hf = transport_chi(torsion, free, hm)
        bt, bf = transport_zeta(ht, hf, hm)
        assert bt == torsion and bf == free


def test_chi_rejects_corrupted_heart_pair(tame_model):
    ctx = KroneckerContext(tame_model)
    hm = heart_realization(TiltingSet(frozenset({post(1), post(2)})), ctx)
    (_L, torsion, free) = admissible_base_pairs(tame_model)[0]
    ht, hf = transport_chi(torsion, free, hm)
    # drop a degree-1 object from the torsion side: no longer covers the heart
    dropped = frozenset(p for p in ht if p != (post(0), 1))
    with pytest.raises(PreconditionError):
        transport_zeta(dropped, hf, hm)


def test_chi_rejects_non_admissible_base_pair(tame_model):
    ctx = KroneckerContext(tame_model)
    hm = heart_realization(TiltingSet(frozenset({post(1), post(2)})), ctx)
    objs = set(ctx.objects())
    # preinjective slice on the wrong side
    torsion = frozenset(x for x in objs if x.kind == "post")
    free = frozenset(objs - torsion)
    with pytest.raises(PreconditionError):
        transport_chi(torsion, free, hm)


def test_verify_theorem53(tame_model):
    report = verify_theorem53(
        tame_model, TiltingSet(frozenset({post(1), post(2)}))
    )
    assert report["pass"]
    assert len(report["cases"]) == 8
    assert all(case["pass"] for case in report["cases"])
    assert report["cardinalities"] == {
        "base_pairs": 8,
        "aisles": 8,
        "heart_pairs": 8,
    }
