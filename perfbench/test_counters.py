"""The benchmark's own tests: exact counters, output checks, inputs, contract.

Run from the repository root (about a minute):

  python3 -m pytest -q -p no:cacheprovider perfbench/test_counters.py

The counters come from the traced run and must repeat exactly across runs
and seeds; a change that moves one reports the change as a count.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gen
import run
import tracer
import worker

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = (1, 2)

OPERATORS = {"lazy_walk": 28, "renorm_adjacency": 12, "residual_diffusion": 1}
GSAN_PER_EPOCH = {
    "graph.adjacency_matvec": 82,
    **{f"graph.apply_operator.{k}": c for k, c in OPERATORS.items()},
    **{f"graph.apply_operator_transpose.{k}": c for k, c in OPERATORS.items()},
    "autodiff.tape_nodes": 144,
}
SCGCN_OPERATORS = {"lazy_walk": 10, "renorm_adjacency": 6, "residual_diffusion": 1}
SCGCN_PER_EPOCH = {
    "graph.adjacency_matvec": 34,
    **{f"graph.apply_operator.{k}": c for k, c in SCGCN_OPERATORS.items()},
    **{f"graph.apply_operator_transpose.{k}": c for k, c in SCGCN_OPERATORS.items()},
    "autodiff.tape_nodes": 53,
}
THEORY_PER_COMMAND = {
    "verify-theory": {"graph.adjacency_matvec": 532,
                      "graph.apply_operator.lazy_walk": 62,
                      "graph.apply_operator.renorm_adjacency": 455,
                      "graph.apply_operator.sym_norm_adjacency": 15},
    "scatter": {"graph.adjacency_matvec": 23, "graph.apply_operator.lazy_walk": 23,
                "graph.read_edge_list": 1},
    "spectra": {"spectral.eigendecompose": 6, "spectral.spectral_response": 5,
                "spectral.sym_normalized_laplacian": 5, "graph.read_edge_list": 1},
}


def traced_cycle(workload: str, seed: int, **kwargs):
    """One traced cycle of a workload: (ops, per-layer metrics, counts)."""
    inputs = run.WORK / f"test-{workload}-seed{seed}-pid{os.getpid()}"
    tr = tracer.Tracer()
    try:
        gen.make_inputs(workload, seed, inputs)
        wl = worker.WORKLOADS[workload](inputs, **kwargs)
        tracer.install(tr, worker.GS)
        wl.setup()
        ops, _, _ = worker.run_loop(wl, 0.0, tracer=tr)
    finally:
        tr.unpatch()
        shutil.rmtree(inputs, ignore_errors=True)
    metrics, counts = tracer.summarize(tr.spans, wl.training)
    return ops, metrics, counts


@pytest.mark.parametrize("seed", SEEDS)
def test_sbm_gsan_counters_and_checks(seed):
    ops, metrics, counts = traced_cycle("sbm-gsan", seed)
    assert [op["errors"] for op in ops] == [[]]
    assert counts["units"] == 100
    assert counts["per_epoch"] == GSAN_PER_EPOCH
    assert metrics["graph.adjacency_matvec.flops"] > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_wide_scgcn_counters_and_checks(seed):
    # three epochs are enough to pin per-epoch counts; the checks use the same count
    ops, _, counts = traced_cycle("wide-scgcn", seed, epochs=3)
    assert [op["errors"] for op in ops] == [[]]
    assert counts["units"] == 3
    assert counts["per_epoch"] == SCGCN_PER_EPOCH


@pytest.mark.parametrize("seed", SEEDS)
def test_theory_cli_counters_and_checks(seed):
    ops, metrics, counts = traced_cycle("theory-cli", seed)
    assert [(op["kind"], op["errors"]) for op in ops] == [
        ("verify-theory", []), ("scatter", []), ("spectra", [])]
    assert counts["per_command"] == THEORY_PER_COMMAND
    assert metrics["spectral.eigendecompose.calls"] == 6


def test_off_tape_cascade_is_inclusive_time():
    # scattering.cascade only forwards to cascade_tensor; its figure must carry
    # the child's time, while cascade_tensor keeps its own self time
    spans = [["cli.spectra", 0.0, 1.0, -1, "0:spectra", None],
             ["cli.scatter", 1.0, 3.0, -1, "1:scatter", None],
             ["scattering.cascade", 1.5, 2.5, 1, "1:scatter", None],
             ["scattering.cascade_tensor", 1.6, 2.4, 2, "1:scatter", None]]
    metrics, _ = tracer.summarize(spans, training=False)
    assert metrics["scattering.cascade.s"] == pytest.approx(1.0)
    assert metrics["scattering.cascade_tensor.s"] == pytest.approx(0.8)
    assert metrics["cli.scatter.s"] == pytest.approx(2.0)


def test_failed_operation_sets_accuracy_but_not_step_time():
    ops = [{"kind": "fit", "s": 1.0, "errors": [], "accuracy": 0.9, "epochs_ms": [5.0, 6.0]},
           {"kind": "fit", "s": 0.1, "errors": ["low accuracy"], "accuracy": 0.5,
            "epochs_ms": [1.0]}]
    values = run.end_to_end("sbm-gsan", {"ops": ops, "peak_rss_mb": 50.0}, [0.5])
    assert values["step_ms"] == 5.0
    assert values["accuracy"] == pytest.approx(0.7)
    assert values["ops_ok_frac"] == 0.5

    # theory-cli: fastest passing operation per command, then geometric mean
    ops = [{"kind": "verify-theory", "s": 2.0, "errors": [], "accuracy": 1.0},
           {"kind": "verify-theory", "s": 4.0, "errors": [], "accuracy": 1.0},
           {"kind": "verify-theory", "s": 0.5, "errors": ["16 of 17"], "accuracy": 16 / 17},
           {"kind": "verify-theory", "s": 0.4, "errors": ["15 of 17"], "accuracy": 15 / 17},
           {"kind": "scatter", "s": 0.1, "errors": []},
           {"kind": "spectra", "s": 1.0, "errors": []}]
    values = run.end_to_end("theory-cli", {"ops": ops, "peak_rss_mb": 50.0}, [0.5])
    assert values["step_ms"] == pytest.approx(1e3 * (2.0 * 0.1 * 1.0) ** (1 / 3))
    assert values["accuracy"] == pytest.approx((1.0 + 16 / 17) / 2)
    assert values["ops_ok_frac"] == 4 / 6


def test_kernel_cost_is_computed_from_array_sizes():
    # n=3, nnz=4, width 2: offsets 32 B, targets+weights 64 B, gathered 64 B, output 48 B
    assert tracer.kernel_cost(3, 4, 2) == (32 + 64 + 64 + 48, 16)


def test_inputs_repeat_per_seed_and_have_no_isolated_nodes():
    a = gen.sample(gen.SBM_GSAN, 7)
    b = gen.sample(gen.SBM_GSAN, 7)
    c = gen.sample(gen.SBM_GSAN, 8)
    for x, y in zip(a, b):
        assert json.dumps(x, default=np.ndarray.tolist) == json.dumps(y, default=np.ndarray.tolist)
    assert not np.array_equal(a[2], c[2])
    u, v = a[0], a[1]
    assert np.all(u < v)
    assert np.bincount(np.concatenate([u, v]), minlength=400).min() > 0


def test_draws_with_isolated_nodes_are_rejected():
    sparse = gen.BlockModel(tag=9, block_sizes=(3, 3), p_in=0.6, p_out=0.3, feature_dim=2)
    for seed in range(20):
        u, v, *_ = gen.sample(sparse, seed)
        assert np.bincount(np.concatenate([u, v]), minlength=6).min() > 0
    empty = gen.BlockModel(tag=9, block_sizes=(3, 3), p_in=0.0, p_out=0.0, feature_dim=2)
    with pytest.raises(RuntimeError):
        gen.sample(empty, 0)


def test_metric_names_match_benchmark_json():
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    _, metrics, _ = traced_cycle("theory-cli", 1)
    assert set(metrics) | {"trace.overhead_frac"} == set(per_layer)
    ops = [{"kind": "fit", "s": 1.0, "errors": [], "accuracy": 0.9, "epochs_ms": [5.0] * 20}]
    values = run.end_to_end("sbm-gsan", {"ops": ops, "peak_rss_mb": 50.0}, [0.5])
    assert set(values) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_benchmark_json_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(gen.DATASETS)
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    e2e = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()) <= 0.25
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))


def test_refuses_to_run_without_the_program():
    bare = run.WORK / f"test-bare-pid{os.getpid()}"
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sbm-gsan",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
