"""The Hom-mask core against the reference gap rules, and its memo."""

import functools

import pytest
from hypothesis import given, settings

from aisles import derived, repcore
from aisles.derived import (
    DEFAULT_WINDOW,
    DerivedObject,
    TableContext,
    Window,
    derived_ar_arrows,
    hom_derived,
    hom_masks,
    module_relation,
    shift,
)
from aisles.errors import ConsistencyError, ShapeError
from aisles.kronecker import (
    KroneckerContext,
    TameModel,
    ext_module,
    hom_rule,
)
from aisles.quiver import BUILTIN_QUIVERS
from aisles.repcore import enumerate_indecomposables
from aisles.tstruct import ringel_criterion, semipath, successors
from reference import (
    all_objects,
    arrow_pairs,
    default_model,
    is_interior,
    orientations,
    reference_arrow_pairs,
    reference_cone,
    window_mask,
)


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
        assert masks.objects == all_objects(table, window)
        _assert_masks_match(masks, lambda x, y: hom_derived(x, y, table))


def test_kronecker_masks_match_hom_rule():
    benchmark_model = TameModel(
        tuple(f"t{i}" for i in range(4)), 4, 10, DEFAULT_WINDOW
    )
    for model in (default_model(), benchmark_model):
        masks = hom_masks(KroneckerContext(model), model.window)
        assert masks.objects == model.objects()
        _assert_masks_match(masks, hom_rule)


def _assert_relation_matches(context, hom, ext):
    relation = module_relation(context)
    modules = context.objects()
    assert relation.modules == modules
    assert relation.full == (1 << len(modules)) - 1
    for k, x in enumerate(modules):
        assert relation.index[x] == k
        for j, y in enumerate(modules):
            assert relation.hom[k] >> j & 1 == (hom(x, y) != 0), (x, y)
            assert relation.ext[k] >> j & 1 == (ext(x, y) != 0), (x, y)
            assert relation.into[j] >> k & 1 == (hom(x, y) != 0), (x, y)
    assert module_relation(context) is relation  # built once per model


@settings(max_examples=30, deadline=None)
@given(orientations())
def test_table_relation_matches_hom_and_ext_tables(quiver):
    table = enumerate_indecomposables(quiver)
    _assert_relation_matches(
        TableContext(table),
        lambda i, j: table.hom[i][j],
        lambda i, j: table.ext[i][j],
    )


def test_kronecker_relation_matches_the_rules():
    benchmark_model = TameModel(
        tuple(f"t{i}" for i in range(4)), 4, 10, DEFAULT_WINDOW
    )
    for model in (default_model(), benchmark_model):
        _assert_relation_matches(KroneckerContext(model), hom_rule, ext_module)


def test_lift_places_torsion_and_free_at_the_pivot(a3_table, d4_table, tame_models):
    """Bit k of the aisle is set exactly when object k lies above the
    pivot, or at it with its module in ``torsion``; bit k of the coaisle
    exactly when it lies below the pivot, or at it with its module in
    ``free``; bit k of the heart exactly when it lies at the pivot with
    its module in ``torsion``, or one degree up with it in ``free``.
    Window object k is module object k % n."""
    contexts = [TableContext(t) for t in (a3_table, d4_table)]
    contexts += [KroneckerContext(m) for m in tame_models]
    for context in contexts:
        masks = hom_masks(context, DEFAULT_WINDOW)
        n = masks.n
        every = (1 << n) - 1
        alternate = sum(1 << i for i in range(0, n, 2))
        samples = [
            (0, every),
            (every, 0),
            (alternate, every & ~alternate),
            (every >> n // 2, every >> n // 3),  # overlapping sides
        ]
        for pivot in masks.window.interior():
            for torsion, free in samples:
                aisle, coaisle, heart = masks.lift(torsion, free, pivot)
                for k, x in enumerate(masks.objects):
                    at = x.degree == pivot
                    in_aisle = x.degree > pivot or (at and torsion >> k % n & 1)
                    in_coaisle = x.degree < pivot or (at and free >> k % n & 1)
                    in_heart = at and torsion >> k % n & 1 or (
                        x.degree == pivot + 1 and free >> k % n & 1
                    )
                    assert aisle >> k & 1 == in_aisle, (pivot, x)
                    assert coaisle >> k & 1 == in_coaisle, (pivot, x)
                    assert heart >> k & 1 == in_heart, (pivot, x)
        for pivot in (masks.window.lo - 1, masks.window.hi + 1):
            with pytest.raises(ShapeError):
                masks.lift(0, every, pivot)


def test_ringel_criterion_matches_semipath_definition(a3_table, d4_table, window):
    for table in (a3_table, d4_table):
        want = {
            x
            for x in all_objects(table, window)
            if is_interior(window, x)
            and semipath(shift(x, 1), x, table, window) is None
        }
        masks = hom_masks(TableContext(table), window)
        assert ringel_criterion(table, window) == window_mask(masks, want)


def test_masks_and_arrows_built_once_per_table_and_window(a3_table, monkeypatch):
    builds = arrow_builds = 0
    build, build_arrows = derived.HomMasks, derived.derived_ar_arrows

    def counting_build(context, window):
        nonlocal builds
        builds += 1
        return build(context, window)

    def counting_arrows(table, window):
        nonlocal arrow_builds
        arrow_builds += 1
        return build_arrows(table, window)

    # the successor rows are one build, kept in the table's memo
    monkeypatch.setattr(derived, "HomMasks", counting_build)
    monkeypatch.setattr(derived, "derived_ar_arrows", counting_arrows)
    table = a3_table.copy()
    for _ in range(3):
        hom_masks(TableContext(table), DEFAULT_WINDOW)
        derived.ar_adjacency(table, DEFAULT_WINDOW)
    assert (builds, arrow_builds) == (1, 1)
    # a patched copy starts with an empty memo and is built again
    patched = table.copy()
    derived.ar_adjacency(patched, DEFAULT_WINDOW)
    hom_masks(TableContext(patched), DEFAULT_WINDOW)
    derived.ar_adjacency(patched, DEFAULT_WINDOW)
    assert (builds, arrow_builds) == (2, 2)


def test_successor_lists_built_once_per_table_and_window(a3_table, monkeypatch):
    walks = 0
    arrows = derived.derived_ar_arrows

    def counting_arrows(table, window):
        nonlocal walks
        walks += 1
        return arrows(table, window)

    # successors reads the rows ar_adjacency keeps per table and window
    monkeypatch.setattr(derived, "derived_ar_arrows", counting_arrows)
    table = a3_table.copy()
    masks = hom_masks(TableContext(table), DEFAULT_WINDOW)
    S = window_mask(masks, [DerivedObject(0, 0)])
    cones = {successors(S, table, DEFAULT_WINDOW) for _ in range(3)}
    assert walks == 1 and len(cones) == 1
    # another window, and a patched copy, build their own lists
    successors(S, table, Window(-1, 1))
    assert walks == 2
    assert successors(S, table.copy(), DEFAULT_WINDOW) in cones
    assert walks == 3


@functools.cache
def _table(name):
    return enumerate_indecomposables(BUILTIN_QUIVERS[name]())


@pytest.mark.parametrize(
    "name, drop",
    [
        (name, k)
        for name in ("a3", "d4", "d5")
        for k in range(len(_table(name).ar_arrows))
    ],
    ids=str,
)
def test_derived_mesh_check_raises_on_a_missing_arrow(monkeypatch, name, drop):
    """Every module AR arrow is needed: with any one missing from
    rad/rad^2, reading a fresh table's derived AR arrows fails the mesh
    proof, before the rows are built."""
    missing = _table(name).ar_arrows[drop]
    irreducible = repcore.irreducible_dim

    def dropped(i, j, table):
        return 0 if (i, j) == missing else irreducible(i, j, table)

    monkeypatch.setattr(repcore, "irreducible_dim", dropped)
    broken = enumerate_indecomposables(BUILTIN_QUIVERS[name]())
    with pytest.raises(ConsistencyError, match="mesh rule fails"):
        derived_ar_arrows(broken, DEFAULT_WINDOW)


def _assert_adjacency_matches_arrows(table, window):
    """The successor rows hold exactly the arrows of ZQ^op built by hand,
    every interior mesh closes (the arrows into k are the arrows out of
    its translate), and the successor cones match a breadth-first walk
    over the pairs."""
    arrows = reference_arrow_pairs(table, window)
    assert arrow_pairs(table, window) == arrows
    masks = hom_masks(TableContext(table), window)
    succ = derived.ar_adjacency(table, window)
    for k in derived.bits(masks.interior):
        t = masks.tau[k]
        if masks.interior >> t & 1:
            into = sum(1 << j for j, row in enumerate(succ) if row >> k & 1)
            assert into == succ[t], masks.objects[k]
    for x in masks.objects:
        want = window_mask(masks, reference_cone(arrows, [x]))
        assert successors(window_mask(masks, [x]), table, window) == want, x
    degree0 = [x for x in masks.objects if x.degree == 0]
    assert successors(window_mask(masks, degree0), table, window) == window_mask(
        masks, reference_cone(arrows, degree0)
    )


@pytest.mark.parametrize("name", ["a2", "a3", "a4", "d4", "d5", "e6"])
def test_adjacency_rows_and_cones_match_the_arrow_pairs(name):
    _assert_adjacency_matches_arrows(_table(name), DEFAULT_WINDOW)


@settings(max_examples=15, deadline=None)
@given(orientations())
def test_adjacency_rows_and_cones_match_on_any_orientation(quiver):
    _assert_adjacency_matches_arrows(
        enumerate_indecomposables(quiver), Window(-1, 2)
    )
