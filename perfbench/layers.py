"""What the traced run probes, and the per-layer metrics built from it.

Each layer is an `aisles` module.  For every layer the table names the
end-to-end metric its numbers should move, and on which workload, so a
later change that claims a gain on one layer can say beforehand where
the gain must show and where nothing may change.

Metric names end in the statistic they report: ``.calls`` (count),
``.s`` (inclusive seconds) or ``.self_s`` (seconds minus the time its
child spans cover).  The few other names are defined in `METRIC_FUNCS`.
"""

from __future__ import annotations


def _torsion_classes(pairs):
    return {tp.torsion.members for tp in pairs}


# (probe name, location below the aisles package, kind, result observer)
#
# Count probes stand where no time is asked for, or where a span would
# cost about as much as the call it measures.  Spans were left out for
# `kronecker.hom_rule` (about 3 million sub-microsecond rule lookups on
# verify-kronecker), `TameModel.objects`, `compose_morphisms`,
# `span_rank` and the `lift`/`trace`/`verify_cor64` entry points; their
# time stays in the enclosing spans.
PROBES = [
    ("linalg.rref", "linalg.Mat.rref", "span", None),
    ("linalg.mul", "linalg.Mat.__mul__", "span", None),
    ("linalg.new", "linalg.Mat.__init__", "span", None),
    ("linalg.span_rank", "linalg.span_rank", "count", None),
    ("repcore.table", "repcore.enumerate_indecomposables", "span", None),
    ("repcore.hom_space", "repcore.hom_space", "span", None),
    ("repcore.irreducible_dim", "repcore.irreducible_dim", "span", None),
    ("repcore.compose_morphisms", "repcore.compose_morphisms", "count", None),
    ("extspace.machines", "extspace.ExtMachine.__init__", "count", None),
    ("extspace.irreducible_ext_dim", "extspace.ExtMachine.irreducible_ext_dim", "span", None),
    ("extspace.pre_compose", "extspace.ExtMachine.pre_compose", "span", None),
    ("extspace.ext_basis", "extspace.ExtMachine.ext_basis", "span", None),
    ("torsion.enumerate", "torsion.enumerate_torsion_pairs", "span", _torsion_classes),
    ("torsion.oracle", "torsion.canonical_sequence_oracle", "span", None),
    ("derived.cross_arrow_pairs", "derived.cross_arrow_pairs", "span", None),
    ("derived.validations", "derived._validate_cross_arrows", "count", None),
    ("derived.ar_arrows", "derived.derived_ar_arrows", "span", None),
    ("tstruct.lift", "tstruct.lift", "count", None),
    ("tstruct.trace", "tstruct.trace", "count", None),
    ("tstruct.verify_lemma42", "tstruct.verify_lemma42", "span", None),
    ("tstruct.ringel_criterion", "tstruct.ringel_criterion", "span", None),
    ("tstruct.classify_split", "tstruct.classify_split", "span", None),
    ("tstruct.section_check", "tstruct.section_check", "span", None),
    ("tstruct.successors", "tstruct.successors", "span", None),
    ("tstruct.ext_projectives", "tstruct.ext_projectives", "span", None),
    ("tstruct.verify_cor64", "tstruct.verify_cor64", "count", None),
    ("kronecker.verify_63b", "kronecker.verify_63b", "span", None),
    ("kronecker.scan_split_aisles", "kronecker.scan_split_aisles", "span", None),
    ("kronecker.objects", "kronecker.TameModel.objects", "count", None),
    ("kronecker.hom_rule", "kronecker.hom_rule", "count", None),
    ("transport.verify_theorem53", "transport.verify_theorem53", "span", None),
    ("transport.heart_realization", "transport.heart_realization", "span", None),
    ("cli.load.table", "cli.load_table", "span", None),
    ("cli.load.model", "cli.load_model", "span", None),
    ("cli.suite.consistency", "cli.DYNKIN_SUITES.consistency", "span", None),
    ("cli.suite.roundtrip", "cli.DYNKIN_SUITES.roundtrip", "span", None),
    ("cli.suite.semipath", "cli.DYNKIN_SUITES.semipath", "span", None),
    ("cli.suite.classify", "cli.DYNKIN_SUITES.classify", "span", None),
    ("cli.suite.cor64", "cli.DYNKIN_SUITES.cor64", "span", None),
    ("cli.emit", "cli.emit", "span", None),
]

# (layer, metric names, which end-to-end metric it should move, and where)
LAYERS = [
    ("linalg",
     ["linalg.rref.calls", "linalg.rref.self_s", "linalg.mul.calls",
      "linalg.mul.self_s", "linalg.new.calls", "linalg.new.self_s",
      "linalg.span_rank.calls"],
     "setup_s on table-e7; wall_s on verify-d5; nothing on verify-kronecker"),
    ("repcore",
     ["repcore.table.s", "repcore.table.self_s", "repcore.hom_space.calls",
      "repcore.hom_space.self_s", "repcore.irreducible_dim.calls",
      "repcore.irreducible_dim.s", "repcore.compose_morphisms.calls"],
     "setup_s on table-e7; a small share of wall_s on verify-d5"),
    ("extspace",
     ["extspace.machines", "extspace.irreducible_ext_dim.calls",
      "extspace.irreducible_ext_dim.s", "extspace.pre_compose.calls",
      "extspace.pre_compose.s", "extspace.ext_basis.calls",
      "extspace.ext_basis.s"],
     "wall_s on verify-d5 only"),
    ("torsion",
     ["torsion.enumerate.calls", "torsion.enumerate.s", "torsion.classes",
      "torsion.oracle.calls", "torsion.oracle.s"],
     "wall_s on verify-d5 only"),
    ("derived",
     ["derived.cross_arrow_pairs.calls", "derived.cross_arrow_pairs.s",
      "derived.cross_arrow_pairs.hit_ratio", "derived.ar_arrows.calls",
      "derived.ar_arrows.s"],
     "wall_s on verify-d5"),
    ("tstruct",
     ["tstruct.lift.calls", "tstruct.trace.calls", "tstruct.verify_lemma42.s",
      "tstruct.ringel_criterion.s", "tstruct.classify_split.s",
      "tstruct.section_check.calls", "tstruct.section_check.s",
      "tstruct.successors.s", "tstruct.ext_projectives.calls",
      "tstruct.ext_projectives.s", "tstruct.verify_cor64.calls"],
     "wall_s on verify-d5"),
    ("kronecker",
     ["kronecker.verify_63b.s", "kronecker.scan_split_aisles.s",
      "kronecker.objects.calls", "kronecker.hom_rule.calls"],
     "wall_s on verify-kronecker only"),
    ("transport",
     ["transport.verify_theorem53.s", "transport.heart_realization.s"],
     "wall_s on verify-kronecker only"),
    ("cli",
     ["cli.load.s", "cli.suite.consistency.s", "cli.suite.roundtrip.s",
      "cli.suite.semipath.s", "cli.suite.classify.s", "cli.suite.cor64.s",
      "cli.emit.s"],
     "wall_s on the workload whose suite it is; cli.load.s tracks setup_s"),
    ("trace",
     ["trace.overhead"],
     "nothing: traced wall_s over untraced wall_s, the cost of the probes"),
]

# ROADMAP baselines (single runs, Python 3.11.7, 2 CPUs) beside the traced
# metric that measures the same thing: (workload, metric) -> seconds.
BASELINES = {
    ("verify-d5", "derived.cross_arrow_pairs.s"): ("D5 cross-arrow validation", 2.5),
    ("verify-d5", "cli.suite.roundtrip.s"): ("D5 roundtrip suite", 2.8),
    ("table-e7", "repcore.table.s"): ("E7 table", 4.6),
}

COUNTS = {name for name, _loc, kind, _obs in PROBES if kind == "count"}

# Counts that differ between processes running the same input, so no
# claim may rest on them: they are reported as medians and left out of
# the exact-repeat check.  Python before 3.12 hashes None by its address,
# which moves with address-space randomisation; KroneckerObject hashes
# its `label` field, None for transjective objects, so frozenset order of
# an aisle differs per process and `kronecker._orthogonal` stops at a
# different first Hom witness (2.4M-3.6M hom_rule calls were seen).
VARYING = {"kronecker.hom_rule.calls"}


def _hit_ratio(stats, counts, observed):
    calls = stats["derived.cross_arrow_pairs"]["calls"]
    return 1.0 - counts["derived.validations"] / calls if calls else 0.0


def _load_s(stats, counts, observed):
    return stats["cli.load.table"]["s"] + stats["cli.load.model"]["s"]


METRIC_FUNCS = {
    "extspace.machines": lambda stats, counts, observed: counts["extspace.machines"],
    "torsion.classes": lambda stats, counts, observed: observed.get("torsion.enumerate", 0),
    "derived.cross_arrow_pairs.hit_ratio": _hit_ratio,
    "cli.load.s": _load_s,
}


def metric_names():
    return [name for _layer, names, _moves in LAYERS for name in names]


def unit_of(name):
    if name == "trace.overhead" or name.endswith("hit_ratio"):
        return "ratio"
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    return "count"


def is_exact(name):
    """Counts must repeat exactly between two traced runs of one seed."""
    return unit_of(name) == "count" and name not in VARYING


def layer_metrics(stats, counts, observed):
    """Every per-layer metric except the overhead, from one traced run."""
    out = {}
    for name in metric_names():
        if name == "trace.overhead":
            continue
        if name in METRIC_FUNCS:
            out[name] = METRIC_FUNCS[name](stats, counts, observed)
            continue
        probe, _, stat = name.rpartition(".")
        if probe in COUNTS:
            out[name] = counts[probe]
        else:
            out[name] = stats[probe][stat]
    return out
