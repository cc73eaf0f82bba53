"""Tests of the benchmark's own arithmetic, tables and tracer.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import pytest

import workloads
from metrics import END_TO_END, PER_LAYER
from spans import Span, Tracer, self_times, summarize

ROOT = Path(__file__).resolve().parents[2]


def _span(sid, parent, name, start, end, n3=0):
    return Span(sid, parent, 1, name, start, end, n3)


def test_self_time_subtracts_direct_children_only():
    # cli.main [0, 10] > suites.run_suite [1, 9] > semigroup.expm [2, 5]
    #                                          > clock.Clock.psi [6, 7]
    spans = [_span(2, 1, "semigroup.expm", 2.0, 5.0, 27),
             _span(3, 1, "clock.Clock.psi", 6.0, 7.0),
             _span(1, 0, "suites.run_suite", 1.0, 9.0),
             _span(0, -1, "cli.main", 0.0, 10.0)]
    assert self_times(spans) == {0: 2.0, 1: 4.0, 2: 3.0, 3: 1.0}

    summary = summarize(spans)
    assert summary.top_s == 10.0
    assert summary.layer_self == {"cli": 2.0, "suites": 4.0,
                                  "semigroup": 3.0, "clock": 1.0}
    assert sum(summary.layer_self.values()) == summary.top_s
    assert summary.layer_calls["semigroup"] == 0   # expm is counted apart
    assert summary.name_calls["semigroup.expm"] == 1
    assert summary.name_n3["semigroup.expm"] == 27


def test_same_name_nesting_is_not_counted_twice():
    # an outer evolve [0, 4] that calls evolve again [1, 3]
    spans = [_span(1, 0, "semigroup.evolve_classical", 1.0, 3.0),
             _span(0, -1, "semigroup.evolve_classical", 0.0, 4.0)]
    summary = summarize(spans)
    assert summary.name_s["semigroup.evolve_classical"] == 4.0
    assert summary.name_calls["semigroup.evolve_classical"] == 2
    assert summary.layer_self["semigroup"] == 4.0


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)


@pytest.mark.parametrize("name, ops", [("default-all", 126), ("fine-grid", 43),
                                       ("sweep-grid", 24),
                                       ("analytic-orders", 148)])
def test_operations_per_pass(name, ops):
    wl = workloads.build(name, 0, ROOT)
    for jobs in wl.passes:
        assert sum(workloads.expected_ops(job, wl.configs[job.config][1])
                   for job in jobs) == ops


def test_workload_inputs_follow_the_seed():
    for name in workloads.NAMES:
        assert workloads.build(name, 5, ROOT) == workloads.build(name, 5, ROOT)
    assert workloads.build("default-all", 5, ROOT) \
        != workloads.build("default-all", 6, ROOT)


def test_tracer_restores_every_binding():
    import confsemi.semigroup as sg
    import confsemi.suites as suites
    originals = (sg.evolve_classical, suites.evolve_classical, sg.expm,
                 vars(sg.GeneratorMatrix)["w_norm"])
    tracer = Tracer()
    tracer.install()
    try:
        assert suites.evolve_classical is not originals[1]
        assert suites.evolve_classical is sg.evolve_classical
        tracer.request = 7
        lap = sg.dirichlet_second_difference(3)
        sg.evolve_classical(lap, 0.5, [1.0, 0.0, 0.0])
    finally:
        tracer.uninstall()
    assert (sg.evolve_classical, suites.evolve_classical, sg.expm,
            vars(sg.GeneratorMatrix)["w_norm"]) == originals
    spans = tracer.drain()
    assert [(s.name, s.request, s.n3) for s in spans] == [
        ("semigroup.dirichlet_second_difference", 7, 0),
        ("semigroup.expm", 7, 27),
        ("semigroup.evolve_classical", 7, 0)]
    assert spans[1].parent == spans[2].sid
