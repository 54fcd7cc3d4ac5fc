"""Tests of the benchmark itself: seeded inputs, metric names, live checks,
and an untraced run that leaves the package untouched.

Runs are shortened to one block of the cheaper ops of each workload; the
metric set does not depend on which ops ran.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
#: Kinds cheap enough for a unit test (the zero-mean separable states take
#: seconds each on the degenerate integrate_abs path).
CHEAP_MATRIX = {"coherent_coherent", "mixture", "noon_n1", "noon_n2"}


def describe(op):
    """Everything the program receives from an op, as comparable bytes."""
    if op.argv is not None:
        return " ".join(op.argv).encode()
    return op.density.matrix.tobytes() + op.operator.tobytes()


def first_blocks(name, seed, count=2):
    stream = workloads.blocks(workloads.WORKLOADS[name], seed)
    return [describe(op) for _ in range(count) for op in next(stream)]


def quick(name):
    """The workload cut to one block of cheap ops, traced as one block."""
    real = workloads.WORKLOADS[name]

    def block(rng, index):
        ops = real.block(rng, index)
        if name == "sampler":
            ops = ops[:1]
            ops[0].argv[ops[0].argv.index("--shots") + 1] = "100000"
        elif name == "matrix_oracle":
            ops = [op for op in ops if op.kind in CHEAP_MATRIX]
        return ops

    return dataclasses.replace(real, block=block, traced_blocks=1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_inputs(name):
    assert first_blocks(name, 7) == first_blocks(name, 7)
    assert first_blocks(name, 7) != first_blocks(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_declared_metric_is_emitted(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setenv(run.OUTPUT_DIR_ENV, str(tmp_path))
    workload = quick(name)
    metrics, *_ = run.run_untraced(workload, seed=1, seconds=0.0, out_dir=str(tmp_path))
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == declared
    assert all(value > 0 for value, _ in metrics.values())

    metrics, *_ = run.run_traced(workload, seed=1, out_dir=str(tmp_path))
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == declared
    assert BENCHMARK["workloads"] and {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_untraced_run_leaves_the_package_unchanged(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setenv(run.OUTPUT_DIR_ENV, str(tmp_path))
    before = tracing.package_snapshot()
    run.run_untraced(quick("point_queries"), seed=3, seconds=0.0, out_dir=str(tmp_path))
    assert tracing.package_snapshot() == before
    run.run_traced(quick("point_queries"), seed=3, out_dir=str(tmp_path))
    assert tracing.package_snapshot() == before


def _first(name, kind, seed=5):
    for block in workloads.blocks(workloads.WORKLOADS[name], seed):
        for op in block:
            if op.kind == kind:
                return op
    raise AssertionError("unreachable")


def test_perturbed_sweep_row_fails(tmp_path, monkeypatch):
    monkeypatch.setenv(run.OUTPUT_DIR_ENV, str(tmp_path))
    op = _first("grid_sweep", "sweep_axis_p")
    result = workloads.execute(op)
    path = tmp_path / op.ref["file"]
    text = path.read_text()
    assert workloads.check_sweep(op, result, str(tmp_path)) is None

    header, row, *rest = text.splitlines()
    fields = row.split(",")
    fields[5] = f"{float(fields[5]) * (1 + 1e-9):.17g}"  # var_number
    path.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
    assert "E=" in workloads.check_sweep(op, result, str(tmp_path))


def test_perturbed_point_queries_fail():
    for kind, field, delta in (("eval", "E", 1e-9), ("threshold", "eta_star", 3e-6)):
        op = _first("point_queries", kind)
        result = workloads.execute(op)
        assert workloads.check_point(op, result, "") is None
        (payload,) = json.loads(result["stdout"])
        payload[field] += delta
        bad = dict(result, stdout=json.dumps([payload]))
        assert workloads.check_point(op, bad, "") is not None
    op = _first("point_queries", "eval_nondiscriminating")
    result = workloads.execute(op)
    assert workloads.check_point(op, result, "") is None
    assert workloads.check_point(op, dict(result, stdout="{}"), "") is not None


def test_perturbed_sample_fails():
    op = _first("sampler", "sample_n2")
    exact = workloads.steering.steering_functional(
        2, math.pi / 2, workloads.lossy.LossChannel(*op.ref["eta"]), "p")
    payload = {"E_hat": exact.E, "stderr": 0.01, "var_number": exact.var_number,
               "var_number_stderr": 0.01, "var_quadN": exact.var_quadrature_n,
               "var_quadN_stderr": 0.01, "commutator": exact.commutator_modulus,
               "commutator_stderr": 0.01}
    result = {"code": 0, "stdout": json.dumps([payload]), "stderr": ""}
    assert workloads.check_sample(op, result, "") is None
    payload["commutator"] += 0.06
    result["stdout"] = json.dumps([payload])
    assert "sigma" in workloads.check_sample(op, result, "")


def test_perturbed_matrix_values_fail():
    for kind in ("coherent_coherent", "noon_n2"):
        op = _first("matrix_oracle", kind)
        result = workloads.execute(op)
        assert workloads.check_matrix(op, result, "") is None
        var_n, var_q, modulus = result["values"]
        if kind == "noon_n2":
            bad = (var_n, var_q * (1 + 1e-5), modulus)
        else:
            bad = (var_n, var_q, 2.0 * math.sqrt(var_n * var_q) + 1e-6)
        assert workloads.check_matrix(op, {"values": bad}, "") is not None


def test_tail_uses_ten_ops_beyond_or_the_maximum():
    latencies = list(np.arange(1.0, 41.0))
    assert run.tail_latency(latencies, "ten_beyond")[0] == 30.0
    assert run.tail_latency(latencies[:15], "ten_beyond")[0] == 15.0
    assert run.tail_latency(latencies, "max")[0] == 40.0
