"""Metric names, units and directions, and the per-layer metrics of a trace.

`END_TO_END` and `PER_LAYER` are the lists that BENCHMARK.json states; the
benchmark's tests keep the two in step.
"""

from __future__ import annotations

from curves import curve_metrics
from spans import Summary

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_share", "1", "higher"),
)

# metric -> span names whose time is summed (spans nested in a span of the
# same name are not counted twice)
TIMED = {
    "drift_diffusion.grid_build_s": ("drift_diffusion.GridPair.build",),
    "drift_diffusion.assemble_s": ("drift_diffusion.build_classical_operator",
                                   "drift_diffusion.build_conformable_operator"),
    "drift_diffusion.conjugacy_s": ("drift_diffusion.conjugacy_residual",),
    "drift_diffusion.mild_s": ("drift_diffusion.mild_solution_residuals",),
    "drift_diffusion.expm_s": ("drift_diffusion.expm",),
    "semigroup.evolve_s": ("semigroup.evolve_classical",),
    "semigroup.expm_s": ("semigroup.expm",),
    "semigroup.ode_s": ("semigroup.solve_conformable_ode",),
    "semigroup.resolvent_s": ("semigroup.resolvent_bound_check",),
    "semigroup.contraction_s": ("semigroup.contraction_check",),
    "semigroup.dissipativity_s": ("semigroup.dissipativity_margin",),
    "calculus.quad_build_s": ("calculus.WeightedQuadrature.build",),
    "calculus.limit_s": ("calculus.conf_derivative_limit",),
    "dynamics.probe_s": ("dynamics.dsw_hypotheses_probe",),
    "reports.write_s": ("reports.write_report_json", "reports.write_summary_csv"),
    "config.parse_s": ("config.parse_config",),
}
COUNTED = {
    "drift_diffusion.expm_calls": "drift_diffusion.expm",
    "semigroup.evolve_calls": "semigroup.evolve_classical",
    "semigroup.expm_calls": "semigroup.expm",
    "calculus.quad_build_calls": "calculus.WeightedQuadrature.build",
    "calculus.limit_calls": "calculus.conf_derivative_limit",
}
DENSE = {
    "drift_diffusion.dense_n3": "drift_diffusion.expm",
    "semigroup.dense_n3": "semigroup.expm",
}
SELF_LAYERS = ("drift_diffusion", "semigroup", "calculus", "spaces", "clock",
               "transport", "dynamics", "suites", "cli")
CALL_LAYERS = ("drift_diffusion", "semigroup", "calculus", "spaces", "clock",
               "transport", "dynamics")
LAYER_ORDER = ("drift_diffusion", "semigroup", "calculus", "spaces", "clock",
               "transport", "dynamics", "suites", "reports", "config", "cli")


def _layer_metrics() -> tuple:
    """(name, unit, better) of every metric a traced pass yields, by layer."""
    unit = dict.fromkeys(TIMED, "s")
    unit.update(dict.fromkeys((*COUNTED, *DENSE), "count"))
    unit.update({f"{layer}.self_s": "s" for layer in SELF_LAYERS})
    unit.update({f"{layer}.calls": "count" for layer in CALL_LAYERS})
    unit["reports.bytes"] = "bytes"
    ranked = sorted(unit, key=lambda name: LAYER_ORDER.index(name.split(".")[0]))
    return tuple((name, unit[name], "lower") for name in ranked)


PASS_METRICS = _layer_metrics()
PER_LAYER = (PASS_METRICS
             + (("trace.overhead_s", "s", "lower"),
                ("trace.coverage", "1", "higher"))
             + tuple((name, "s", "lower") for name in curve_metrics()))

# every span name a metric reads; a name missing from the traced program
# means the metric would silently read 0
SPAN_NAMES = frozenset([n for names in TIMED.values() for n in names]
                       + list(COUNTED.values()) + list(DENSE.values()))


def pass_metrics(summary: Summary, report_bytes: int) -> dict:
    """Per-layer metrics of one traced pass."""
    out = {}
    for name, span_names in TIMED.items():
        out[name] = sum(summary.name_s.get(s, 0.0) for s in span_names)
    for name, span_name in COUNTED.items():
        out[name] = summary.name_calls[span_name]
    for name, span_name in DENSE.items():
        out[name] = summary.name_n3[span_name]
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = summary.layer_self.get(layer, 0.0)
    for layer in CALL_LAYERS:
        out[f"{layer}.calls"] = summary.layer_calls[layer]
    out["reports.bytes"] = report_bytes
    return out
