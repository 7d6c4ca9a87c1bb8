"""Tests of the benchmark's own machinery.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import math
import os
import types

import pytest

import run
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# spans and self time


def test_self_times_subtract_direct_children_only():
    spans = [["cli.main", 0.0, 10.0, -1],
             ["solver.solve_ventcel", 1.0, 7.0, 0],
             ["femcore.mcshane_lift", 2.0, 5.0, 1],
             ["solver.factor", 5.5, 6.0, 1],
             ["solver.write_solution_csv", 8.0, 9.5, 0]]
    assert tracing.self_times(spans) == pytest.approx([2.5, 2.5, 3.0, 0.5, 1.5])
    m = tracing.layer_metrics(spans, {})
    assert m["femcore.lift_s"] == pytest.approx(3.0)
    assert m["solver.factor_s"] == pytest.approx(0.5)
    assert m["solver.output_s"] == pytest.approx(1.5)
    assert m["solver.other_s"] == pytest.approx(2.5)
    assert m["cli.self_s"] == pytest.approx(2.5)
    assert m["solver.factorizations"] == 1
    time_total = sum(v for k, v in m.items() if k.endswith("_s"))
    assert time_total == pytest.approx(10.0)


def test_wrappers_record_nested_spans_with_parents():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        traced_inner()
        traced_inner()
        clock.now += 1.0

    inner.__module__ = outer.__module__ = "ventcelfem.femcore"
    traced_inner = tracer.wrapper_for(inner)
    tracer.wrapper_for(outer)()
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("femcore.outer", -1), ("femcore.inner", 0),
                     ("femcore.inner", 0)]
    assert tracing.self_times(tracer.spans) == [2.0, 2.0, 2.0]
    assert tracer.wrapper_for(inner) is traced_inner


def _fake_modules():
    """A package whose femcore has lost mcshane_lift and Curve lost arc_length.

    femcore also binds a function from a module the tracer does not know.
    """
    femcore = types.ModuleType("ventcelfem.femcore")

    def build_space(mesh):
        return types.SimpleNamespace(n_free=3, ventcel_edges=[1, 2])

    def helper():
        return 1

    build_space.__module__ = "ventcelfem.femcore"
    helper.__module__ = "ventcelfem.newmodule"
    femcore.build_space = build_space
    femcore.helper = helper
    geometry = types.ModuleType("ventcelfem.geometry")
    geometry.Curve = type("Curve", (), {"point": lambda self, t: t})
    return {"femcore": femcore, "geometry": geometry}


def test_missing_targets_are_reported_absent_not_fatal():
    tracer = tracing.Tracer()
    modules = _fake_modules()
    tracing.instrument(tracer, modules)
    assert "femcore.mcshane_lift" in tracer.absent
    assert "geometry.arc_length" in tracer.absent
    assert "solver.factor" in tracer.absent
    assert "femcore.build_space" not in tracer.absent
    modules["femcore"].build_space(None)
    modules["femcore"].helper()          # defined in an unknown module
    assert [s[0] for s in tracer.spans] == ["femcore.build_space"]
    m = tracing.layer_metrics(tracer.spans, tracer.counters)
    assert m["femcore.lift_s"] == 0.0
    assert m["femcore.free_dofs"] == 3 and m["femcore.ventcel_edges"] == 2
    assert set(m) == set(tracing.LAYER_METRICS)


def test_probe_on_a_changed_result_is_recorded_not_raised():
    tracer = tracing.Tracer()

    def build_space(mesh):
        return object()

    build_space.__module__ = "ventcelfem.femcore"
    assert tracer.wrapper_for(build_space)(None) is not None
    assert set(tracer.probe_errors) == {"femcore.free_dofs",
                                        "femcore.ventcel_edges"}


def test_traced_child_attributes_a_real_solve(tmp_path):
    argv = ["solve", "--domain", "cable", "--n", "8", "--a2", "inv_curvature",
            "--phi", "harmonic_cubic", "--output-dir", str(tmp_path / "out")]
    code, _, err, result = run.run_child(str(tmp_path), argv, trace=True)
    assert code == 0, err
    assert result["absent"] == [] and result["probe_errors"] == {}
    spans = result["spans"]
    assert spans[0][0] == "cli.main" and spans[0][3] == -1
    m = tracing.layer_metrics(spans, result["counters"])
    assert m["solver.factorizations"] == 2
    assert m["mesh.nodes"] == 81 and m["solver.output_bytes"] > 0
    time_total = sum(v for k, v in m.items() if k.endswith("_s"))
    assert time_total == pytest.approx(spans[0][2] - spans[0][1])


# ----------------------------------------------------------------------
# output checks


def _write_solve_output(out_dir, diag, rows):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "diagnostics.txt"), "w") as fh:
        fh.write("".join(f"{k} = {v!r}\n" for k, v in diag.items()))
    with open(os.path.join(out_dir, "solution.csv"), "w") as fh:
        fh.write("x,y,u\n" + "".join(f"{r[0]},{r[1]},{r[2]}\n" for r in rows))


def test_cable_check_rejects_a_perturbed_error(tmp_path):
    diag = dict(workloads.CABLE_REFERENCE, algebraic_residual=2e-13)
    rows = [(0.5, 1.0, 0.25)] * workloads.CABLE_NODES
    _write_solve_output(tmp_path, diag, rows)
    assert workloads.check_solve_cable(0, "", str(tmp_path)) == []
    diag["e_L2"] *= 1 + 1e-8
    _write_solve_output(tmp_path, diag, rows)
    problems = workloads.check_solve_cable(0, "", str(tmp_path))
    assert len(problems) == 1 and problems[0].startswith("e_L2")
    assert workloads.check_solve_cable(3, "", str(tmp_path)) == ["exit code 3"]


def test_verify_check_rejects_a_missing_artifact(tmp_path):
    for name in workloads.VERIFY_ARTIFACTS:
        (tmp_path / name).write_text("x\n")
    assert workloads.check_verify_suite(0, "PASS a\nALL PASS\n", str(tmp_path)) == []
    os.remove(tmp_path / "ibp.csv")
    problems = workloads.check_verify_suite(0, "PASS a\nALL PASS\n", str(tmp_path))
    assert len(problems) == 1 and "ibp.csv" in problems[0]
    assert workloads.check_verify_suite(1, "FAILURES: 1\n", str(tmp_path))[:2] == [
        "exit code 1", "summary does not end in ALL PASS"]


def test_annulus_check_rejects_a_nan_row(tmp_path):
    rows = [(1.0, 0.0, 0.5)] * workloads.ANNULUS_NODES
    _write_solve_output(tmp_path, {"algebraic_residual": 1e-13}, rows)
    assert workloads.check_solve_annulus_nodal(0, "", str(tmp_path)) == []
    rows[100] = (1.0, 0.0, "nan")
    _write_solve_output(tmp_path, {"algebraic_residual": 1e-13}, rows)
    assert workloads.check_solve_annulus_nodal(0, "", str(tmp_path)) == [
        "solution.csv has 1 non-finite rows"]
    _write_solve_output(tmp_path, {"algebraic_residual": 1e-9}, rows[:10])
    assert len(workloads.check_solve_annulus_nodal(0, "", str(tmp_path))) == 2


# ----------------------------------------------------------------------
# inputs and the benchmark definition


def test_annulus_inputs_are_seeded_and_in_range():
    ring = [(2 * math.cos(t), 2 * math.sin(t))
            for t in (2 * math.pi * k / 256 for k in range(256))]
    a2, f1, a0_flag, g1_flag = workloads.annulus_fields(7)
    again = workloads.annulus_fields(7)
    assert (a0_flag, g1_flag) == again[2:]
    assert [a2(x, y) for x, y in ring] == [again[0](x, y) for x, y in ring]
    chain = [a2(x, y) for x, y in ring]
    assert min(chain) >= 0.5 and max(chain) - min(chain) > 0.1
    assert all(math.isfinite(f1(x, y)) for x, y in ring)
    c = [float(v) for v in a0_flag[5:].split(",")]
    assert min(c) >= 0.0 and c[1] == c[2] == c[4] == 0.0
    assert workloads.annulus_fields(8)[3] != g1_flag


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    result = {"wall_s": 1.0, "setup_s": 0.5, "peak_rss_mib": 100.0}
    e2e = run.end_to_end([{"result": result}], [0.4])
    assert [m["name"] for m in bench["end_to_end"]] == list(e2e)
    traced = dict(result, spans=[["cli.main", 0.0, 1.0, -1]], counters={},
                  absent=[], probe_errors={})
    layer, absent = run.per_layer([{"traced": True, "result": traced},
                                   {"traced": False, "result": result}])
    assert [m["name"] for m in bench["per_layer"]] == list(layer)
    assert absent == [] and layer["trace.overhead_s"][0] == 0.0
