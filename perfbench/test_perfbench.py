"""Checks of the benchmark itself: a fixed seed repeats its answers and call
counts (traced or not), a held-out seed runs clean, every workload is
described in BENCHMARK.json, and a run prints the metrics declared there.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import spans  # noqa: E402

SEED = 7
HELD_OUT_SEED = 20_261_017
TRIALS = 2


def outcomes(trials):
    return [(t.index, t.answer, t.reference, t.calls, t.error) for t in trials]


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_same_seed_repeats_answers_and_calls(name):
    pkg = harness.Package()
    workload = harness.WORKLOADS[name]
    plain, _ = harness.run_trials(harness.Workbench(pkg, workload, SEED),
                                     max_trials=TRIALS)
    again, _ = harness.run_trials(harness.Workbench(pkg, workload, SEED),
                                     max_trials=TRIALS)
    assert all(t.verified for t in plain), outcomes(plain)
    assert outcomes(again) == outcomes(plain)

    # the traced run (odd trials traced) must not change what the package does
    rec = spans.Recorder()
    traced, _ = harness.run_trials(
        harness.Workbench(pkg, workload, SEED), max_trials=TRIALS,
        instrumentation=spans.Instrumentation(pkg, rec))
    assert outcomes(traced) == outcomes(plain)
    assert list(rec.trials) == [1]
    trial_spans = rec.trials[1]
    spans.check_self_times(trial_spans, traced[1].seconds)
    names = {sp[spans.NAME] for sp in trial_spans}
    assert spans.ORACLE_EVAL in names or spans.BASE_EVAL in names
    if workload.s == 2:
        # the vectorised kernels never reach the per-graph counter methods;
        # a wrapped counter would have rerouted them there
        assert "cliques.count" not in names
    # patches are removed after each traced trial
    assert pkg.reduction.random_self_reduce.__module__ == "erclique.polynomial"


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_held_out_seed_runs_clean(name):
    bench = harness.Workbench(harness.Package(), harness.WORKLOADS[name], HELD_OUT_SEED)
    trials, _ = harness.run_trials(bench, max_trials=1)
    assert [t.verified for t in trials] == [True], outcomes(trials)
    assert trials[0].calls == bench.predicted_calls()


def test_every_workload_has_a_why_in_benchmark_json():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in doc["workloads"]}
    assert set(whys) == set(harness.WORKLOADS)
    for name, why in whys.items():
        assert why.strip() and "\n" not in why and len(why) <= 200, name


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_declared_metrics(trace, section):
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "parity-half",
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in doc[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
