"""Tests of the benchmark itself: the tracer, the output checks and
BENCHMARK.json.  Run with ``python3 -m pytest perfbench/tests``."""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from aisles import cli  # noqa: E402


def _bindings():
    """Every module attribute, module-level dict value and class attribute
    of the aisles package, by identity."""
    out = {}
    for module in tracer._package_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = id(value)
            if isinstance(value, dict) and key != "__builtins__":
                for k, v in value.items():
                    out[(module.__name__, key, k)] = id(v)
            if isinstance(value, type) and value.__module__ == module.__name__:
                for k, v in vars(value).items():
                    out[(module.__name__, key, "attr", k)] = id(v)
    return out


def _traced_verify(argv):
    t = tracer.Tracer("test")
    t.install(layers.PROBES)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        t.restore()
    return t, code, out.getvalue()


def test_probes_wrap_every_binding_and_restore():
    before = _bindings()
    t = tracer.Tracer("test")
    t.install(layers.PROBES)
    try:
        import aisles.extspace as extspace
        import aisles.repcore as repcore
        import aisles.torsion as torsion
        from aisles.linalg import Mat

        assert extspace.hom_space is repcore.hom_space is torsion.hom_space
        assert repcore.hom_space.__wrapped__ is not None
        assert "__wrapped__" in vars(Mat.rref)
        assert hasattr(cli.DYNKIN_SUITES["consistency"], "__wrapped__")
        assert _bindings() != before
    finally:
        t.restore()
    assert _bindings() == before


def test_tracing_keeps_stdout_and_records_probes():
    plain = io.StringIO()
    with contextlib.redirect_stdout(plain):
        assert cli.main(["verify", "--builtin", "a3", "--suite", "all"]) == 0
    t, code, traced = _traced_verify(["verify", "--builtin", "a3", "--suite", "all"])
    assert code == 0 and traced == plain.getvalue()
    stats = tracer.aggregate(t.names, t.span_name, t.span_parent, t.span_start, t.span_end)
    values = layers.layer_metrics(stats, t.counts, {k: len(v) for k, v in t.observed.items()})
    assert values["torsion.classes"] == 14  # Catalan(4) for A3
    assert values["extspace.machines"] == 1
    assert values["linalg.rref.calls"] > 0 and values["cli.suite.roundtrip.s"] > 0


def test_self_times_nonnegative_and_within_parent(tmp_path):
    t, code, _ = _traced_verify(["verify", "--builtin", "a3", "--suite", "all"])
    assert code == 0
    path = tmp_path / "spans"
    t.dump(str(path))
    header, names, parents, starts, ends = tracer.load(str(path))
    assert header["spans"] == len(names) > 1000
    own = tracer.self_times(parents, starts, ends)
    for sid, parent in enumerate(parents):
        dur = ends[sid] - starts[sid]
        assert 0.0 <= own[sid] <= dur
        if parent >= 0:
            assert starts[parent] <= starts[sid] <= ends[sid] <= ends[parent]
            assert own[sid] <= ends[parent] - starts[parent]


def test_aggregate_counts_recursion_once():
    # span 0 "f" contains span 1 "f" (recursion) which contains span 2 "g"
    stats = tracer.aggregate(
        ["f", "g"], [0, 0, 1], [-1, 0, 1], [0.0, 1.0, 2.0], [10.0, 5.0, 4.0]
    )
    assert stats["f"] == {"calls": 2, "s": 10.0, "self_s": 6.0 + 2.0}
    assert stats["g"] == {"calls": 1, "s": 2.0, "self_s": 2.0}


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    value, pct = run.tail([float(i) for i in range(20)])
    assert value == 9.0 and sum(1 for i in range(20) if i > value) == 10
    assert pct == 50.0


# -- output checks ----------------------------------------------------------------


def _d5_output():
    checks = [
        {"name": name, "pass": True}
        for names in workloads.DYNKIN_SUITE_CHECKS.values()
        for name in names
    ]
    return {"checks": checks, "pass": True}


def _e7_output(dimvec):
    objs = [str([i, k]) for i in range(9) for k in range(7)]
    return {
        "aisle": {"0": [str(dimvec)], "1": objs, "2": objs, "3": objs},
        "heart": [o + "@1" for o in objs],
        "split": True,
        "upper_tail": True,
    }


def _kronecker_output():
    return {
        "checks": [
            {"cases": 64, "name": "tame_split_classification", "pass": True},
            {"cases": 16, "name": "three_way_bijection", "pass": True},
        ],
        "pass": True,
    }


def _corrupt_d5():
    out = _d5_output()
    out["checks"][3]["pass"] = False
    yield out
    out = _d5_output()
    out["checks"] = [c for c in out["checks"] if c["name"] != "tilting_complex_checks"]
    yield out
    out = _d5_output()
    out["pass"] = False
    yield out
    out = _d5_output()
    out["checks"].append({"name": "cor64_internal", "pass": False, "witness": "x"})
    yield out


def _corrupt_e7(dimvec):
    out = _e7_output(dimvec)
    out["aisle"]["2"] = out["aisle"]["2"][:-1]
    yield out
    out = _e7_output(dimvec)
    out["aisle"]["3"] = out["aisle"]["3"][:-1] + out["aisle"]["3"][:1]
    yield out
    out = _e7_output(dimvec)
    out["aisle"]["0"] = [str([0] * 7)]
    yield out
    out = _e7_output(dimvec)
    out["heart"] = out["heart"][1:]
    yield out
    out = _e7_output(dimvec)
    out["aisle"]["-1"] = ["[1, 0, 0, 0, 0, 0, 0]"]
    yield out


def _corrupt_kronecker():
    out = _kronecker_output()
    out["checks"][0]["cases"] = 63
    yield out
    out = _kronecker_output()
    out["checks"][1]["pass"] = False
    yield out
    out = _kronecker_output()
    del out["checks"][1]
    yield out
    out = _kronecker_output()
    out["pass"] = False
    yield out


E7_DIMVEC = [0, 0, 1, 0, 0, 0, 0]
CASES = [
    (workloads.check_d5, None, _d5_output(), _corrupt_d5()),
    (workloads.check_e7, E7_DIMVEC, _e7_output(E7_DIMVEC), _corrupt_e7(E7_DIMVEC)),
    (workloads.check_kronecker, None, _kronecker_output(), _corrupt_kronecker()),
]


@pytest.mark.parametrize("check, expected, good, corrupted", CASES)
def test_output_checks_pass_good_and_fail_corrupted(check, expected, good, corrupted):
    assert check(json.dumps(good), expected) == []
    assert check(json.dumps(good)[:-5], expected) != []
    for bad in corrupted:
        assert check(json.dumps(bad), expected) != [], bad


def test_d5_trace_check_guards_stale_cache_and_class_count():
    good = {"extspace.machines": 1, "torsion.classes": 182}
    assert workloads.check_d5_trace(good) == []
    assert workloads.check_d5_trace(dict(good, **{"extspace.machines": 0})) != []
    assert workloads.check_d5_trace(dict(good, **{"torsion.classes": 181})) != []


def test_inputs_follow_the_seed(tmp_path):
    a = workloads.e7_args(7, str(tmp_path))
    text_a = (tmp_path / "e7.quiver").read_text()
    b = workloads.e7_args(7, str(tmp_path))
    assert a == b and (tmp_path / "e7.quiver").read_text() == text_a
    orientations = set()
    for seed in range(20):
        workloads.d5_args(seed, str(tmp_path))
        orientations.add((tmp_path / "d5.quiver").read_text())
    assert len(orientations) > 1


# -- BENCHMARK.json ---------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == [w.name for w in workloads.WORKLOADS]
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS]
    assert [m["name"] for m in spec["per_layer"]] == layers.metric_names()
    for m in spec["per_layer"]:
        assert m["unit"] == layers.unit_of(m["name"])
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
