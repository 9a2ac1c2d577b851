"""Tests of the benchmark's own machinery: span arithmetic, the tracing
wrappers and the correctness gates.  They run no workload."""

import json
import os

import numpy as np
import pytest

import bench_trace
import bench_workloads
import fiocalc
from bench_trace import Span, Tracer, pass_metrics, self_times
from fiocalc import gabor, metaplectic, serialize, symplectic
from fiocalc.grids import GridSpec, gaussian_window


def _nested_spans():
    # root [0, 10] holds A [1, 4] and B [5, 9]; B holds C [6, 7]
    return [Span("fio.root", 0.0, 10.0, None, 0),
            Span("gabor.a", 1.0, 4.0, 0, 0),
            Span("gabor.b", 5.0, 9.0, 0, 0),
            Span("metaplectic.c", 6.0, 7.0, 2, 0)]


def test_self_time_is_span_minus_children():
    assert self_times(_nested_spans()) == [3.0, 3.0, 3.0, 1.0]


def test_layer_self_times_add_up_to_the_root_span():
    tracer = Tracer()
    tracer.spans = _nested_spans()
    m = pass_metrics(tracer, [0])
    assert (m["fio.self_s"], m["gabor.self_s"], m["metaplectic.self_s"]) == (3.0, 6.0, 1.0)
    assert m["fio.self_s"] + m["gabor.self_s"] + m["metaplectic.self_s"] == 10.0
    assert m["gabor.calls"] == 2 and m["trace.spans"] == 4
    assert pass_metrics(tracer, [1])["trace.spans"] == 0


def test_recursive_spans_count_once():
    tracer = Tracer()
    tracer.spans = [Span("gabor.decay_profile", 0.0, 5.0, None, 0),
                    Span("gabor.decay_profile", 1.0, 2.0, 0, 0)]
    assert pass_metrics(tracer, [0])["gabor.decay_profile.s"] == 5.0


def test_wrapper_returns_the_same_object_and_records_a_span():
    tracer = Tracer()
    token = object()
    wrapped = tracer.wrap("grids.f", lambda x: (token, x))
    assert wrapped(3) == (token, 3) and wrapped(3)[0] is token
    assert [s.name for s in tracer.spans] == ["grids.f", "grids.f"]


def test_wrapper_lets_exceptions_through_unchanged():
    tracer = Tracer()
    error = KeyError("missing")

    def boom():
        raise error

    with pytest.raises(KeyError) as info:
        tracer.wrap("grids.boom", boom)()
    assert info.value is error
    assert tracer._stack == [] and tracer.spans[0].end >= tracer.spans[0].start


def test_instrumented_package_gives_identical_results(tmp_path):
    spec = GridSpec(1, 32, 6.0)
    psi = gaussian_window(spec)
    chi = symplectic.chirp_matrix(np.array([[0.4]])) @ symplectic.scaling_matrix(
        np.array([[1.3]]))
    before = metaplectic.mu_general(chi, spec).apply(psi).values
    draw = symplectic.random_symplectic(2, np.random.default_rng(5)).entries
    original = gabor.decay_profile
    tracer = Tracer()
    restore = bench_trace.instrument(tracer)
    try:
        assert gabor.decay_profile is not original
        assert fiocalc.decay_profile is gabor.decay_profile
        after = metaplectic.mu_general(chi, spec).apply(psi).values
        redraw = symplectic.random_symplectic(2, np.random.default_rng(5)).entries
        with pytest.raises(FileNotFoundError):
            serialize.read_json(str(tmp_path / "absent.json"))
    finally:
        restore()
    assert gabor.decay_profile is original and fiocalc.decay_profile is original
    assert np.array_equal(before, after) and np.array_equal(draw, redraw)
    names = {s.name for s in tracer.spans}
    assert {"metaplectic.mu_general", "metaplectic.ChirpFactor.apply.d1",
            "metaplectic.LinearFactor.apply.d1", "serialize.read_json"} <= names
    m = pass_metrics(tracer, [None])
    assert m["metaplectic.LinearFactor.apply.d1.calls"] == 2
    assert m["metaplectic.useful_apply_ratio"] == 0.5


def test_suite_gate_counts_a_wrong_verdict():
    checks = {f"check{i}": "pass" for i in range(12)}
    assert bench_workloads.gate_suite(0, {"checks": checks})[0] == 0
    checks["check3"] = "fail"
    assert bench_workloads.gate_suite(1, {"checks": checks})[0] == 1
    del checks["check3"]
    assert bench_workloads.gate_suite(1, {"checks": checks})[0] == 1
    all_pass = {f"check{i}": "pass" for i in range(12)}
    assert bench_workloads.gate_suite(1, {"checks": all_pass})[0] == 12
    assert bench_workloads.gate_suite(None, None)[0] == 12


def test_cli_gate_checks_exit_code_and_read_back(tmp_path):
    spec = GridSpec(1, 16, 4.0)
    serialize.grid_function_to_csv(gaussian_window(spec), str(tmp_path / "u.csv"))
    gate = bench_workloads.gate_cli_step
    assert gate(0, 0, str(tmp_path), [("u.csv", spec)], None)[0]
    assert not gate(1, 0, str(tmp_path), [("u.csv", spec)], None)[0]
    assert not gate(0, 0, str(tmp_path), [("u.csv", GridSpec(1, 32, 4.0))], None)[0]
    assert not gate(0, 0, str(tmp_path), [], lambda: (False, "wrong"))[0]


def test_numeric_gates_reject_wrong_outputs():
    grid = GridSpec(2, 16, 4.0)
    x = grid.points()
    good = np.exp(-1j * np.outer(x, x)) * np.exp(0.3j)
    assert bench_workloads.gate_synthesis(good, grid)[0]
    assert not bench_workloads.gate_synthesis(np.exp(1j * np.outer(x, x)), grid)[0]

    spec = GridSpec(1, 64, 8.0)
    psi = gaussian_window(spec)
    chi = symplectic.chirp_matrix(np.array([[0.5]]))
    op = metaplectic.mu_general(chi, spec)
    out = op.apply(psi)
    assert bench_workloads.gate_mu(op, out, chi, psi, ("ChirpFactor",))[0]
    assert not bench_workloads.gate_mu(op, out * 1.01, chi, psi, ("ChirpFactor",))[0]
    assert not bench_workloads.gate_mu(op, out, chi, psi, ("LinearFactor",))[0]


def test_benchmark_json_lists_every_reported_metric():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    tracer = Tracer()
    reported = set(pass_metrics(tracer, [])) | {"trace.wall_s", "artifact_bytes"}
    assert {m["name"] for m in bench["per_layer"]} == reported
    for m in bench["per_layer"]:
        assert m["unit"] == bench_trace.metric_unit(m["name"])
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "wall_s", "cpu_s", "peak_rss_mib"}
    assert {w["name"] for w in bench["workloads"]} == set(bench_workloads.WORKLOADS)
