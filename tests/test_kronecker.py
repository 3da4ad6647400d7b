import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import aisles
from aisles.derived import Window
from aisles.errors import ShapeError, TruncationError
from aisles.kronecker import (
    POST,
    PRE,
    REG,
    KroneckerContext,
    TameModel,
    _masks,
    build_aisle_63b,
    ext_module,
    hom_rule,
    layer,
    post,
    pre,
    reg,
    scan_split_aisles,
    subsets,
    tau_rule,
    verify_63b,
)
from aisles.repcore import hom_space
from reference import (
    default_model,
    euler_form_kronecker,
    explicit_representation,
    kronecker_quiver,
    tau_inverse_rule,
    window_mask,
)

LAM = {"t0": 0, "t1": 1, "t2": 5}


def test_object_validation():
    with pytest.raises(ShapeError):
        reg(None, 2)
    with pytest.raises(ShapeError):
        post(-1)
    assert post(3).dimvec() == (3, 4)
    assert pre(3).dimvec() == (4, 3)
    assert reg("t0", 2).dimvec() == (2, 2)


def test_objects_sort_by_kind_index_label_degree():
    objs = [reg("t1", 1), post(2, 1), pre(0), post(2, 0), reg("t0", 1), post(0, 3)]
    key = lambda x: (x.kind, x.index, x.label or "", x.degree)  # noqa: E731
    assert sorted(objs) == sorted(objs, key=key)
    assert sorted(objs)[:3] == [post(0, 3), post(2, 0), post(2, 1)]
    assert sorted(objs)[-2:] == [reg("t0", 1), reg("t1", 1)]


def test_model_validation():
    with pytest.raises(ShapeError):
        TameModel(("t0", "t1"), 3, 6, Window(-2, 3))
    m = default_model()
    assert len(m.module_objects()) == 7 + 9 + 7
    assert len(m.objects()) == 23 * 6


def test_hom_rule_table(tame_model):
    # postprojective ray
    assert hom_rule(post(0), post(3)) == 4
    assert hom_rule(post(3), post(0)) == 0
    # preinjective ray (reversed)
    assert hom_rule(pre(3), pre(0)) == 4
    assert hom_rule(pre(0), pre(3)) == 0
    # across the families
    assert hom_rule(post(1), reg("t0", 2)) == 2
    assert hom_rule(reg("t0", 2), post(1)) == 0
    assert hom_rule(reg("t0", 2), pre(1)) == 2
    assert hom_rule(pre(1), reg("t0", 2)) == 0
    assert hom_rule(post(1), pre(2)) == 3
    # tubes do not see each other
    assert hom_rule(reg("t0", 2), reg("t1", 2)) == 0
    assert hom_rule(reg("t0", 2), reg("t0", 3)) == 2
    # degrees gate everything
    assert hom_rule(post(0).at(1), post(3)) == 0
    assert hom_rule(post(0), post(3).at(2)) == 0


def test_hom_matches_explicit_matrices():
    """Rule-table Hom dimensions against honest matrix computations."""
    samples = [post(0), post(1), post(2), reg("t0", 1), reg("t0", 2),
               reg("t1", 1), pre(0), pre(1), pre(2)]
    reps = {x: explicit_representation(x, LAM) for x in samples}
    for x in samples:
        for y in samples:
            got, _ = hom_space(reps[x], reps[y])
            assert got == hom_rule(x, y), (x.name(), y.name())


def test_euler_consistency():
    """hom - ext agrees with the Euler form on every sample pair."""
    samples = [post(0), post(2), reg("t1", 2), reg("t2", 3), pre(0), pre(2)]
    for x in samples:
        for y in samples:
            assert hom_rule(x, y) - ext_module(x, y) == euler_form_kronecker(
                x.dimvec(), y.dimvec()
            )


def test_tau_rules(tame_model):
    m = tame_model
    assert tau_rule(post(4), m) == post(2)
    assert tau_rule(post(1), m) == pre(0, -1)
    assert tau_rule(post(0), m) == pre(1, -1)
    assert tau_rule(pre(2), m) == pre(4)
    assert tau_rule(reg("t0", 2), m) == reg("t0", 2)
    with pytest.raises(TruncationError):
        tau_rule(pre(m.range - 1), m)
    with pytest.raises(TruncationError):
        tau_inverse_rule(post(m.range), m)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 4), st.sampled_from(["post", "pre"]), st.integers(-1, 2))
def test_tau_inverse_roundtrip(idx, kind, deg):
    m = default_model()
    x = post(idx, deg) if kind == "post" else pre(idx, deg)
    try:
        assert tau_inverse_rule(tau_rule(x, m), m) == x
    except TruncationError:
        pass


def test_layer_glues_preinjectives():
    assert layer(pre(3, 0)) == 1
    assert layer(post(3, 1)) == 1
    assert layer(reg("t0", 1, 1)) == 1


def test_build_aisle_membership(tame_model):
    aisle = build_aisle_63b(0, frozenset({"t0"}), tame_model)
    index = _masks(tame_model).index

    def inside(x):
        return bool(aisle >> index[x] & 1)

    assert inside(post(2, 1))
    assert inside(pre(2, 0))  # layer(pre@0) = 1 > 0
    assert inside(reg("t0", 2, 0))
    assert not inside(reg("t1", 2, 0))
    assert not inside(post(2, 0))
    assert not inside(reg("t0", 2, -1))
    with pytest.raises(ShapeError):
        build_aisle_63b(tame_model.window.hi, frozenset(), tame_model)


def _layer_rule_aisle(i, L, model):
    """The aisle by the layer rule, walking every window object: the
    reference for the threshold masks."""
    return {
        x
        for x in model.objects()
        if layer(x) > i or (x.kind == REG and x.degree == i and x.label in L)
    }


def test_build_aisle_matches_layer_rule(tame_models):
    for model in tame_models:
        masks = _masks(model)
        for i in model.window.interior():
            for L in subsets(model.tube_labels):
                want = window_mask(masks, _layer_rule_aisle(i, L, model))
                assert build_aisle_63b(i, L, model) == want, (i, L)


def test_classified_aisles_have_no_ext_projectives(tame_models):
    """The shared Ext-projective routine finds none on any classified
    split aisle (both criteria are cross-checked inside it)."""
    for model in tame_models:
        masks = _masks(model)
        for i in model.window.interior():
            for L in subsets(model.tube_labels):
                assert masks.ext_projectives(build_aisle_63b(i, L, model)) == 0


def test_orthogonal_witness_on_broken_aisle(tame_model):
    """Adding Reg(t0,1)@0 without the longer tube modules above it breaks
    Hom-orthogonality and produces a witness."""
    masks = _masks(tame_model)
    base = build_aisle_63b(0, frozenset(), tame_model)
    broken = base | window_mask(masks, [reg("t0", 1, 0)])
    witness = masks.witness(broken, masks.full & ~broken)
    assert witness is not None
    x, y = (masks.objects[k] for k in witness)
    assert x == reg("t0", 1, 0)
    assert hom_rule(x, y) != 0


def test_trace_at_zero_pivot_zero(tame_model):
    masks = _masks(tame_model)
    aisle = build_aisle_63b(0, frozenset(tame_model.tube_labels), tame_model)
    torsion = masks.part(aisle, 0)
    free = masks.part(masks.full & ~aisle, 0)
    modules = tame_model.module_objects()
    assert not torsion & free and torsion | free == (1 << len(modules)) - 1
    torsion = {x for k, x in enumerate(modules) if torsion >> k & 1}
    for m in range(tame_model.range + 1):
        assert pre(m) in torsion
        assert post(m) not in torsion
    assert reg("t0", 1) in torsion


def test_components_partition_the_modules(tame_models):
    for model in tame_models:
        ctx = KroneckerContext(model)
        masks = dict(zip((PRE, POST, REG), ctx.components()))
        assert ctx.components() is ctx.components()  # built once per model
        for k, x in enumerate(model.module_objects()):
            assert [kind for kind, m in masks.items() if m >> k & 1] == [x.kind]


def test_verify_63b_full(tame_model):
    report = verify_63b(tame_model)
    assert report["pass"]
    # 4 interior pivots x 8 tube subsets
    assert len(report["cases"]) == 32
    assert all(case["pass"] for case in report["cases"])
    assert report["converse_scan"]["pass"]
    assert report["converse_scan"]["found"] == report["converse_scan"]["classified"]


def test_scan_finds_only_classified(tame_model):
    scan = scan_split_aisles(tame_model)
    assert len(scan) == 32
    # every surviving subset has each tube threshold at or one above the
    # transjective pivot layer
    for j1, combo in scan:
        assert all(t in (j1 - 1, j1) for t in combo)


def test_kronecker_quiver_shape():
    q = kronecker_quiver()
    assert len(q.arrows) == 2
    assert all(a.source == "1" and a.target == "2" for a in q.arrows)


REPEAT_WITNESS_AND_SCAN = """
from aisles import kronecker as kr
from aisles.derived import Window
model = kr.TameModel(("t0", "t1", "t2"), 3, 6, Window(-2, 3))  # default_model()
base = kr.build_aisle_63b(0, frozenset(), model)
masks = kr._masks(model)
broken = base | 1 << masks.index[kr.reg("t0", 1, 0)]
x, y = (masks.objects[k] for k in masks.witness(broken, masks.full & ~broken))
print(x.name(), y.name(), kr.scan_split_aisles(model))
"""


def test_witness_and_scan_repeat_between_processes():
    """Transjective objects hash their None label by address before Python
    3.12, so a witness search in frozenset order would differ per
    process; the Hom masks search in window order."""
    src = os.path.dirname(os.path.dirname(aisles.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    outputs = {
        subprocess.run(
            [sys.executable, "-c", REPEAT_WITNESS_AND_SCAN],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        for _ in range(2)
    }
    assert len(outputs) == 1
    assert outputs.pop().startswith("Reg(t0,1)@0 ")
