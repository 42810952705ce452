"""The layers and their per-layer metrics.  Stdlib only.

A layer is one module of the package.  Which end-to-end metric each
per-layer metric should move, and on which workloads, is the table in
README.md.
"""

from __future__ import annotations

LAYERS = ("fields", "curves", "calculus", "spanning", "oneforms", "arclength", "cli")

# In the order of the README's layer table, then the traced run's own
# metrics: spans per pass, traced suite time, and traced minus untraced time.
_NAMES = (
    "fields.diff4.calls",
    "fields.diff4.self_s",
    "fields.diff4.bytes_in",
    "fields.PeriodicScalarField.built",
    "fields.periodic_primitive.calls",
    "fields.periodic_primitive.self_s",
    "curves.frame.calls",
    "curves.frame.self_s",
    "curves.speed.calls",
    "curves.speed.self_s",
    "curves.arclen_deriv.self_s",
    "curves.curvature.calls",
    "curves.DiscreteImmersion.built",
    "curves.ImmersionTangent.built",
    "curves.frame.per_curve",
    "calculus.bracket_closed_form.calls",
    "calculus.bracket_closed_form.self_s",
    "calculus.directional_derivative.calls",
    "calculus.directional_derivative.self_s",
    "calculus.flow_commutator.calls",
    "calculus.flow_commutator.self_s",
    "calculus.variation_of_normal.self_s",
    "calculus.bracket_numeric.calls",
    "calculus.bracket_numeric.per_check",
    "spanning.bracket_generators.self_s",
    "spanning.normal_generators.self_s",
    "spanning.verify_spanning.self_s",
    "spanning.columns",
    "spanning.matrix_bytes",
    "oneforms.build_atlas.calls",
    "oneforms.build_atlas.self_s",
    "oneforms.decompose_oneform.calls",
    "oneforms.decompose_oneform.self_s",
    "oneforms.reconstruct.self_s",
    "oneforms.decompose_supported.self_s",
    "oneforms.terms_per_form",
    "arclength.project_to_arc.calls",
    "arclength.project_to_arc.self_s",
    "arclength.flow_arc.self_s",
    "arclength.flow_field.self_s",
    "arclength.frobenius_defect.self_s",
    "cli.make_curve.self_s",
    "cli.run_suite.self_s",
    *(f"{layer}.self_s" for layer in LAYERS),
    *(f"{layer}.raised" for layer in LAYERS),
    "cli.checks_errored",
    "trace.spans",
    "trace.wall_s",
    "trace.overhead_s",
)

_RATIOS = ("curves.frame.per_curve", "calculus.bracket_numeric.per_check", "oneforms.terms_per_form")


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_in") or name.endswith("_bytes"):
        return "bytes-computed"
    if name in _RATIOS:
        return "ratio"
    return "count"


PER_LAYER = tuple((name, unit(name), "lower") for name in _NAMES)


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def _special(stats: dict, records: dict) -> dict:
    calls, counters = stats["calls"], stats["counters"]
    return {
        "fields.diff4.bytes_in": counters.get("fields.diff4.bytes_in", 0),
        "curves.frame.per_curve": _ratio(
            calls.get("curves.frame", 0), calls.get("curves.DiscreteImmersion.__post_init__", 0)
        ),
        "calculus.bracket_numeric.per_check": _ratio(
            calls.get("calculus.bracket_numeric", 0), records["bracket_checks"]
        ),
        "spanning.columns": counters.get("spanning.columns", 0),
        "spanning.matrix_bytes": counters.get("spanning.matrix_bytes", 0),
        "oneforms.terms_per_form": _ratio(
            counters.get("oneforms.terms", 0), calls.get("oneforms.decompose_oneform", 0)
        ),
        "cli.checks_errored": records["errored"],
        "trace.spans": stats["spans"],
    }


def layer_metric(name: str, stats: dict, records: dict):
    """One per-layer metric of one traced pass.

    ``stats`` is ``Tracer.pass_stats`` of the pass and ``records`` the
    worker's classification of its records.  Besides the special metrics,
    a name is ``<span>.calls``, ``<span>.self_s``, ``<module>.<Class>.built``
    (calls of its ``__post_init__``), ``<module>.self_s`` or
    ``<module>.raised``.
    """
    special = _special(stats, records)
    if name in special:
        return special[name]
    target, kind = name.rsplit(".", 1)
    if kind == "calls":
        return stats["calls"].get(target, 0)
    if kind == "built":
        return stats["calls"].get(f"{target}.__post_init__", 0)
    if kind == "raised":
        return stats["raised"].get(target, 0)
    if kind == "self_s":
        if target in stats["layer_self_s"]:
            return stats["layer_self_s"][target]
        return stats["self_s"].get(target, 0.0)
    raise KeyError(name)
