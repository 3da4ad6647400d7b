"""The Hom-mask core against the reference gap rules, and its memo."""

import dataclasses

import pytest

from aisles import derived
from aisles.derived import (
    DEFAULT_WINDOW,
    TableContext,
    derived_ar_arrows,
    hom_derived,
    hom_masks,
    shift,
)
from aisles.errors import ConsistencyError
from aisles.kronecker import KroneckerContext, TameModel, default_model, hom_rule
from aisles.quiver import BUILTIN_QUIVERS
from aisles.repcore import enumerate_indecomposables
from aisles.tstruct import ringel_criterion, semipath_exists


def _assert_masks_match(masks, rule):
    objects = masks.objects
    for k, x in enumerate(objects):
        want = sum(1 << l for l, y in enumerate(objects) if rule(x, y) != 0)
        assert masks.out[k] == want, x


@pytest.fixture(scope="module")
def d5_table():
    return enumerate_indecomposables(BUILTIN_QUIVERS["d5"]())


def test_table_masks_match_hom_derived(a3_table, d4_table, d5_table, window):
    for table in (a3_table, d4_table, d5_table):
        masks = hom_masks(TableContext(table), window)
        assert masks.objects == derived.all_objects(table, window)
        _assert_masks_match(masks, lambda x, y: hom_derived(x, y, table))


def test_kronecker_masks_match_hom_rule():
    benchmark_model = TameModel(
        tuple(f"t{i}" for i in range(4)), 4, 10, DEFAULT_WINDOW
    )
    for model in (default_model(), benchmark_model):
        masks = hom_masks(KroneckerContext(model), model.window)
        assert masks.objects == model.objects()
        _assert_masks_match(masks, hom_rule)


def test_ringel_criterion_matches_semipath_definition(a3_table, d4_table, window):
    for table in (a3_table, d4_table):
        want = {
            x
            for x in derived.all_objects(table, window)
            if window.is_interior(x)
            and not semipath_exists(shift(x, 1), x, table, window)
        }
        assert ringel_criterion(table, window) == want


def test_masks_and_arrows_built_once_per_table_and_window(a3_table, monkeypatch):
    builds = meshes = 0
    build, check = derived.HomMasks, derived._check_meshes

    def counting_build(context, window):
        nonlocal builds
        builds += 1
        return build(context, window)

    def counting_check(table, window, arrows):
        nonlocal meshes
        meshes += 1
        check(table, window, arrows)

    monkeypatch.setattr(derived, "HomMasks", counting_build)
    monkeypatch.setattr(derived, "_check_meshes", counting_check)
    table = dataclasses.replace(a3_table)
    for _ in range(3):
        hom_masks(TableContext(table), DEFAULT_WINDOW)
        derived_ar_arrows(table, DEFAULT_WINDOW)
    assert (builds, meshes) == (1, 1)
    # a patched copy starts with an empty memo and is checked again
    patched = dataclasses.replace(table)
    hom_masks(TableContext(patched), DEFAULT_WINDOW)
    derived_ar_arrows(patched, DEFAULT_WINDOW)
    assert (builds, meshes) == (2, 2)


def test_derived_mesh_check_raises_on_a_missing_arrow(a3_table):
    broken = dataclasses.replace(a3_table, ar_arrows=a3_table.ar_arrows[1:])
    with pytest.raises(ConsistencyError):
        derived_ar_arrows(broken, DEFAULT_WINDOW)
