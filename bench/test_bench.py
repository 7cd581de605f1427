"""Tests of the benchmark itself, on its tiny input sets.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import sys
from pathlib import Path

import pytest

import references
import run
import spans
import yardstick

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
COUNTERS = (
    "tracking.march_attempts",
    "tracking.steps_used",
    "poly.roots.calls",
    "periods.quad_nodes",
    "topsys.rk4_steps",
)


def _tiny_run(capsys, workload, trace, seed=3):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv, tiny=True, min_passes=1, setup_repeats=1) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_matches_the_runner():
    assert SPEC["workloads"] and [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        spans.PER_LAYER
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed(capsys, workload, trace):
    result = _tiny_run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_expected_matrix_fails_the_op(capsys, monkeypatch):
    monkeypatch.setattr(references, "CUSHMAN_ACTIONS", ((1, 0, 0), (2, 1, 0), (0, 0, 1)))
    result = _tiny_run(capsys, "loops", 0)
    # the named loop and its meridian miss; the contractible loop still passes
    assert result["failed"] == 2 and not result["correct"]


def test_perturbed_action_reference_fails_the_op(capsys, monkeypatch):
    exact = references.action_reference
    monkeypatch.setattr(references, "action_reference", lambda p: exact(p) + 1e-6)
    result = _tiny_run(capsys, "actions", 0)
    assert result["failed"] == result["attempted"] and not result["correct"]


def test_action_reference_matches_the_cubic_form():
    # an independent check of the mpmath reference at a documented point
    from topmonodromy.periods import action_I1_cubic

    point = (0.1, 1.2, -0.05)
    assert references.action_reference(point) == pytest.approx(
        action_I1_cubic(point), abs=1e-12
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_work_counters_repeat(capsys, workload):
    first = _tiny_run(capsys, workload, 1)["metrics"]
    second = _tiny_run(capsys, workload, 1)["metrics"]
    assert {c: first[c]["value"] for c in COUNTERS} == {
        c: second[c]["value"] for c in COUNTERS
    }
    busy = {"loops": "tracking.march_attempts", "actions": "poly.roots.calls",
            "simulate": "topsys.rk4_steps"}[workload]
    assert first[busy]["value"] > 0


def test_yardstick_scales_to_the_reference_speed():
    sampler = yardstick.Sampler()
    # two samples inside [1, 2] at two and four times the reference time,
    # one after it: the interval ran at (1/2 + 1/4) / 2 of the reference speed
    for start, k in ((1.25, 2), (1.5, 4), (2.5, 4)):
        sampler.record(start, k * yardstick.REF_S)
    net = 1.0 - 6 * yardstick.REF_S
    assert sampler.reference_seconds(1.0, 2.0) == pytest.approx(net * 0.375)
    # an interval without samples takes the speed of its neighbours
    assert sampler.reference_seconds(2.0, 2.25) == pytest.approx(0.25 / 4)


def test_yardstick_samples_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sampler = yardstick.Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            yardstick.kernel(100)
    finally:
        sampler.stop()
    assert sampler.count >= 3
    assert signal.getsignal(signal.SIGALRM) is before
