"""Tests of the benchmark itself: tracer counts, gate, workloads, contract.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest

import layers
import pace as pace_module
import run
import worker
from framelets import analysis, cli, frames, landscape, netbuild, seeding
from pace import Pace
from tracer import Tracer
from workloads import BANK_SEEDS, WORKLOADS, make_configs

SPEC = netbuild.NetworkSpec(kappa=2, r=2, q=(1, 2, 4), m=(4, 4, 4), skip=True,
                            nonlinearity="relu")

TINY = {
    "seed": 11,
    "network": SPEC.to_dict(),
    "bank": {"source": "random"},
    "analyses": ["regions", "lipschitz", "jacobian", "landscape", "train"],
    "sampler": {"count": 25},
    "jacobian": {"count": 3, "margin": 1e-6},
    "train": {"samples": 2, "iterations": 3, "step_size": 1e-3},
}


@pytest.fixture(scope="module")
def mats():
    return netbuild.realize(SPEC, netbuild.random_bank(SPEC, seed=3))


def test_census_makes_one_pattern_per_sample(mats):
    count = 37
    with Tracer() as tracer:
        census = analysis.region_census(SPEC, mats, analysis.CensusConfig(count=count, seed=5))
    summary = tracer.summary()
    assert summary["analysis.extract_pattern"]["calls"] == count
    assert summary["netbuild.forward_matrices"]["calls"] == count
    assert summary["analysis.spectral_norm"]["calls"] == census.distinct


def test_fd_jacobian_runs_two_forwards_per_input_coordinate(mats):
    gen = np.random.default_rng(0)
    with Tracer() as tracer:
        for _ in range(2):
            analysis.fd_jacobian(SPEC, mats, gen.standard_normal(SPEC.d[0]))
    assert tracer.summary()["analysis.fd_jacobian"]["calls"] == 2
    assert tracer.calls_under("netbuild.forward_matrices", "analysis.fd_jacobian") \
        == 2 * 2 * SPEC.d[0]


def test_train_without_backtracks_makes_one_loss_per_iteration():
    # armijo=False takes every step as is: k accepted iterations, no backtracks
    k = 4
    gen = np.random.default_rng(1)
    data = landscape.TrainingSet(X=gen.standard_normal((SPEC.d[0], 2)),
                                 Y=gen.standard_normal((SPEC.d[0], 2)))
    bank = netbuild.random_bank(SPEC, seed=3)
    config = landscape.TrainConfig(step_size=1e-3, iterations=k, armijo=False)
    with Tracer() as tracer:
        result = landscape.train_gd(SPEC, bank, data, config)
    assert len(result.losses) - 1 == k
    summary = tracer.summary()
    assert summary["landscape.loss"]["calls"] == k + 1
    assert summary["landscape.tap_gradients"]["calls"] == k
    assert summary["netbuild.realize"]["calls"] == 2 * k + 1


def test_tracer_patches_every_binding_and_restores_them():
    originals = {"forward_matrices": netbuild.forward_matrices, "rng": seeding.rng}
    bindings = {"forward_matrices": (netbuild, analysis, landscape),
                "rng": (seeding, netbuild, analysis, cli, frames)}
    with Tracer():
        for name, modules in bindings.items():
            wrapped = {id(getattr(mod, name)) for mod in modules}
            assert len(wrapped) == 1
            assert getattr(modules[0], name) is not originals[name]
    for name, modules in bindings.items():
        assert all(getattr(mod, name) is originals[name] for mod in modules)


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans[:] = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
                       ["b", 5.0, 6.0, 0]]
    summary = tracer.summary()
    assert summary["a"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert summary["b"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert tracer.calls_under("c", "a") == 1
    assert tracer.calls_under("b", "c") == 0


def test_tracing_leaves_the_report_body_unchanged(tmp_path):
    plain = worker.run_verdict(TINY, str(tmp_path))
    with Tracer() as tracer:
        traced = worker.run_verdict(TINY, str(tmp_path))
    assert plain.error is None and traced.error is None
    assert set(plain.digests) == {"report.json", "census.json", "regions.csv",
                                  "region_lipschitz.csv", "loss_curve.csv"}
    assert traced.digests == plain.digests
    assert list(tmp_path.iterdir()) == []

    values = layers.per_layer_metrics(tracer, traced.report, TINY["network"],
                                      traced.report["timings"], traced.seconds,
                                      plain.seconds, 0.0)
    assert set(values) == set(layers.UNITS)
    assert values["analysis.region_census.calls"] == 2
    assert values["analysis.extract_pattern.self_s"] > 0.0
    instances = traced.report["results"]["jacobian"]["instances"]
    assert tracer.summary()["analysis.fd_jacobian"]["calls"] == instances
    assert values["analysis.jacobian.accept_ratio"] == \
        instances / values["analysis.jacobian_analytic.calls"]
    iterations = traced.report["results"]["train"]["iterations_run"]
    assert values["landscape.armijo.accept_ratio"] == \
        iterations / (tracer.calls_under("landscape.loss", "landscape.train_gd") - 1)
    assert values["netbuild.forward_matrices.flops_computed"] == \
        values["netbuild.forward_matrices.calls"] * layers.forward_flops(TINY["network"])


def test_forward_flops_counts_every_operator_entry_twice():
    mats = netbuild.realize(SPEC, netbuild.random_bank(SPEC, seed=3))
    entries = sum(m.E.size + m.D.size + m.S.size + m.S_tilde.size for m in mats)
    assert layers.forward_flops(SPEC.to_dict()) == 2 * entries


def test_gate_counts_and_names_each_failure():
    cfg = {"analyses": ["regions", "train"]}
    report = {"results": {
        "regions": {"checks": [{"name": "census_within_bound", "passed": True}]},
        "train": {"checks": [{"name": "monotone_descent", "passed": False}]},
    }}
    first = worker.Verdict(report=report, digests={"report.json": "a"})
    again = worker.Verdict(report=report, digests={"report.json": "b"})
    gate = worker.Gate()
    gate.check("w[0]", cfg, first, None)
    gate.check("w[0]", cfg, again, first)
    gate.check("w[1]", cfg, worker.Verdict(error="train raised ValueError: x"), None)
    assert (gate.attempted, gate.failed) == (4 + 5 + 2, 1 + 2 + 2)
    assert any("train:monotone_descent" in p for p in gate.problems)
    assert any("report.json differ" in p for p in gate.problems)
    assert any("train raised ValueError" in p for p in gate.problems)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_configs_are_deterministic_in_the_seed(workload):
    first = make_configs(workload, 7, "w")
    first[0]["network"]["q"].append(99)  # callers get fresh copies
    again = make_configs(workload, 7, "w")
    assert again == make_configs(workload, 7, "w")
    assert again != first
    assert len({cfg["seed"] for cfg in again}) == len(again) == len(BANK_SEEDS)
    assert [cfg["seed"] for cfg in make_configs(workload, 8, "w")] != \
        [cfg["seed"] for cfg in again]
    fixed = {k: v for k, v in WORKLOADS[workload].items() if k != "bank"}
    for k, cfg in enumerate(again):
        assert {key: v for key, v in cfg.items() if key not in ("seed", "bank")} == fixed
        assert cfg["bank"] == {"source": "file", "path": f"w/bank{k}.json"}


def test_pace_rescales_the_reference_kernel_to_its_nominal_time():
    # work made of reference kernel calls takes NOMINAL_TICK_S per call at the
    # nominal pace, however fast the machine runs them
    previous = signal.getsignal(signal.SIGALRM)
    calls = 500
    with Pace() as pace:
        for _ in range(calls):
            pace_module.tick()
    assert pace.ticks > 2
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert pace.seconds == pytest.approx(calls * pace_module.NOMINAL_TICK_S, rel=0.25)


def test_benchmark_json_lists_the_metrics_and_workloads():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [entry[:3] for entry in layers.PER_LAYER]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-d16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
