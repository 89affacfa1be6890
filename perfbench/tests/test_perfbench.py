"""Self-tests of the benchmark: tracer, counters, checker and inputs.

Run with: python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import schrostep
import schrostep.cli
import schrostep.contours
import schrostep.interface_map
import schrostep.step
from schrostep import InitialCondition, PiecewisePotential, StepSolver
from schrostep.contours import rotated_boundary

import workloads
from check import Checker, Samples, mismatches
from hostspeed import REF_PROBE_S, HostSpeed
from tracing import LAYERS, PER_LAYER, Tracer, layer_names

ROOT = Path(__file__).resolve().parents[2]
UP = PiecewisePotential([1.0, 2.0], [0.0])
IC = InitialCondition.gaussian(center=-1.0, width=1.0, momentum=0.7)
XS = np.linspace(-2.0, 2.0, 5)


def _bound_names():
    """Every (namespace, attribute) currently bound to a traced function."""
    out = {}
    for name in layer_names():
        mod, qual = name.split(".", 1)
        home = sys.modules["schrostep." + mod]
        if "." in qual:
            cls, meth = qual.split(".")
            out[name] = [(getattr(home, cls), meth, getattr(home, cls).__dict__[meth])]
            continue
        fn = getattr(home, qual)
        out[name] = [(m, a, v) for key, m in sys.modules.items()
                     if key.startswith("schrostep") for a, v in vars(m).items()
                     if v is fn]
    return out


def _traced_step(t=0.5):
    tables = []
    tr = Tracer()
    with tr:
        traced = schrostep.step.build_node_table

        def spy(*args, **kwargs):
            out = traced(*args, **kwargs)
            tables.append(out)
            return out
        schrostep.step.build_node_table = spy
        tr.request_id = 0
        StepSolver(UP, IC).evaluate_grid(XS, t)
    return tr, tables


def test_node_table_counts_match_returned_tables():
    tr, tables = _traced_step()
    m = tr.layer_metrics()
    assert tables
    assert m["contours.build_node_table.calls"] == len(tables)
    assert m["contours.build_node_table.panels"] == sum(t.n_panels for t in tables)
    assert m["contours.build_node_table.nodes"] == sum(len(t.z) for t in tables)


def test_self_and_child_times_sum_to_each_root():
    tr, _ = _traced_step()
    layer, start, end, parent, request = tr.arrays()
    self_t = tr.self_times()
    roots = np.nonzero(parent < 0)[0]
    assert len(roots) == 1 and np.all(request == 0)
    root_of = np.arange(len(parent))
    for i in range(len(parent)):  # parents precede their children
        if parent[i] >= 0:
            root_of[i] = root_of[parent[i]]
    for r in roots:
        total = self_t[root_of == r].sum()
        assert total == pytest.approx(end[r] - start[r], rel=1e-9, abs=1e-12)
    assert np.all(self_t >= -1e-9)


def test_tracer_restores_every_binding():
    before = _bound_names()
    _traced_step()
    assert schrostep.step.build_node_table is schrostep.contours.build_node_table
    assert schrostep.interface_map.build_node_table is schrostep.contours.build_node_table
    assert _bound_names() == before
    # each function is wrapped wherever it is bound, e.g. three namespaces
    assert {m.__name__ for m, _, _ in before["contours.build_node_table"]} >= {
        "schrostep.contours", "schrostep.step", "schrostep.interface_map"}


def test_restores_after_a_request_raises():
    before = _bound_names()
    tr = Tracer()
    with pytest.raises(ValueError):
        with tr:
            StepSolver(UP, IC).evaluate_grid(XS, -1.0)
    assert _bound_names() == before
    assert list(tr.errors.values()) == ["ValueError"]


def test_retry_after_budget_exhaustion_is_counted():
    solver = StepSolver(UP, IC)
    terms = solver._terms(1, 0.5, False, 2.0)
    tr = Tracer()
    with tr:
        try:
            schrostep.step.eval_terms(terms, XS, 1e-14, max_panels=4)
        except schrostep.contours.QuadratureError:
            pass
    m = tr.layer_metrics()
    assert m["contours.build_node_table.calls"] == 2
    assert m["contours.build_node_table.retries"] == 1


def test_truncation_stopped_at_its_cap_is_counted():
    solver = StepSolver(UP, IC)
    weight = solver._w_d4(1, 0.5)

    def xcoef(z, tag):
        return -schrostep.nu(1.0, np.asarray(z, dtype=complex))

    def sector(T):
        return (rotated_boundary(4, solver.radius, T, solver.delta, lam=2.0),
                {"generic": [(0, True)], "osc": [(2, ((-1j, -1j),), T)]})

    T0 = 2.0 * solver.radius
    tr = Tracer()
    with tr:
        schrostep.step.choose_truncation(sector, weight, xcoef, 0.5, 0.0,
                                         (-2.0, 0.0), 1e-8, T0)
        schrostep.step.choose_truncation(sector, weight, xcoef, 0.5, 0.0,
                                         (-2.0, 0.0), 1e-300, T0, max_T=1.5 * T0)
    m = tr.layer_metrics()
    assert m["step.choose_truncation.calls"] == 2
    assert m["step.choose_truncation.capped"] == 1
    assert T0 < m["step.choose_truncation.T_max"] < 4000.0


def test_per_layer_metrics_are_all_reported():
    tr, _ = _traced_step()
    m = tr.layer_metrics()
    m["trace.overhead_frac"] = 0.0
    assert {name for name, _, _ in PER_LAYER} <= set(m)
    assert m["step.StepSolver.evaluate_grid.calls"] == 1
    assert m["transforms.hat_transform.nodes"] >= m["transforms.hat_transform.calls"] > 0


def test_reference_seconds_scale_each_stretch_by_the_probe_before_it():
    hs = HostSpeed()
    # a probe at t = 0 s at the reference speed, one at t = 2 s at half of it
    hs.starts = [0.0, 2.0]
    hs.durations = [REF_PROBE_S, 2.0 * REF_PROBE_S]
    assert hs.reference_seconds(0.5, 1.5) == pytest.approx(1.0)
    assert hs.reference_seconds(2.5, 4.5) == pytest.approx(1.0)
    # the second probe's own time is left out
    assert hs.probe_seconds(1.0, 3.0) == pytest.approx(2.0 * REF_PROBE_S)
    assert hs.reference_seconds(1.0, 3.0) == pytest.approx(
        1.0 + 0.5 * (1.0 - 2.0 * REF_PROBE_S))


def test_checker_flags_sample_perturbed_beyond_its_error():
    req = {"kind": "step", "rep": "d4",
           "potential": {"levels": [1.0, 2.0], "interfaces": [0.0]},
           "ic": {"kind": "gaussian", "center": -1.0, "width": 1.0, "momentum": 0.7},
           "xs": XS.tolist(), "t": 0.5, "derivative": False}
    got = Samples.from_solution(workloads.solver_of(req).evaluate_grid(XS, 0.5))
    checker = Checker()
    assert checker.failures(req, got) == []
    ref = checker._step_ref(req)
    i = 2
    gap = got.error[i] + ref.error[i] + abs(got.value[i] - ref.value[i])
    got.value[i] += 1.01 * gap
    assert list(mismatches(got, ref)) == [i]
    assert len(checker.failures(req, got)) == 1


def test_cached_reference_reads_back_unchanged(tmp_path):
    req = {"kind": "step", "rep": "d4",
           "potential": {"levels": [2.0, 1.0], "interfaces": [0.0]},
           "ic": {"kind": "gaussian", "center": -1.0, "width": 1.0, "momentum": 0.7},
           "xs": XS.tolist(), "t": 0.5, "derivative": False}
    first = Checker(tmp_path)._step_ref(req)
    assert len(list(tmp_path.iterdir())) == 1
    again = Checker(tmp_path)._step_ref(req)
    for col in ("x", "t", "value", "error"):
        np.testing.assert_array_equal(getattr(first, col), getattr(again, col))
    np.testing.assert_array_equal(first.x, XS)


def test_checker_flags_non_finite_and_raised():
    checker = Checker()
    bad = Samples([0.0], [0.5], [np.nan], [1e-9])
    assert checker.failures({"kind": "step"}, bad)
    assert checker.failures({"kind": "step"}, RuntimeError("boom"))


def test_inputs_are_seeded_and_stay_in_range():
    for w in workloads.WORKLOADS:
        a = workloads.make_requests(w, 7)
        assert json.dumps(a) == json.dumps(workloads.make_requests(w, 7))
        assert json.dumps(a) != json.dumps(workloads.make_requests(w, 8))
    ic = workloads.make_requests("large_t", 3)[0]["ic"]
    assert abs(ic["center"] + 1.0) <= workloads.JITTER["center"]
    assert abs(ic["width"] - 1.0) <= workloads.JITTER["width"]
    assert abs(ic["momentum"] - 0.7) <= workloads.JITTER["momentum"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "peak_rss_mb", "digits_min"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert len(LAYERS) == len(layer_names())


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                           "large_t", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
