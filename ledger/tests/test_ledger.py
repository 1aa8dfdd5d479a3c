"""Checks on the ledger itself: ``pytest ledger/tests`` (not tier-1).

The registry's limits and alphabet, ``BENCHMARK.json`` in sync with it,
the smoke run's schema, the driver protocol's last line, the refusal to
run without a program, and ``compare.py``'s verdicts.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent.parent
ROOT = LEDGER.parent
sys.path.insert(0, str(LEDGER))

import compare  # noqa: E402
import registry  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def run_ledger(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "ledger" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


# -- the registry and BENCHMARK.json -----------------------------------------


def test_limits_and_alphabet():
    assert 2 <= len(registry.WORKLOADS) <= 8
    assert 1 <= len(registry.DRIVER_E2E) <= 16
    assert 1 <= len(registry.PER_LAYER) <= 128
    names = (
        [w.name for w in registry.WORKLOADS]
        + [m.name for m in registry.END_TO_END]
        + [m.name for m in registry.PER_LAYER]
    )
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for metric in registry.END_TO_END + registry.PER_LAYER:
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("higher", "lower"), metric
    for workload in registry.WORKLOADS:
        assert "\n" not in workload.why and len(workload.why) <= 200, workload.name
        assert workload.primary in registry.E2E
        assert registry.E2E[workload.primary].applies(workload.name)
    for metric in registry.DRIVER_E2E:
        assert 0 < metric.bound <= 0.25, metric
    setup = registry.E2E["setup_s"]
    assert (setup.unit, setup.better, setup.workloads) == ("s", "lower", None)
    assert setup.bound == max(m.bound for m in registry.DRIVER_E2E)


def test_the_issue_s_shape():
    assert len(registry.WORKLOADS) == 8
    assert len(registry.END_TO_END) == 12
    # failed_share is 0 on a healthy tree; the driver protocol carries it
    # as failed/attempted, so it is the one metric not declared to it.
    assert [m.name for m in registry.END_TO_END if not m.driver] == ["failed_share"]


def test_benchmark_json_in_sync():
    document = json.loads(registry.BENCHMARK_PATH.read_text())
    assert document == registry.benchmark_json(), (
        "BENCHMARK.json drifted: run `python ledger/registry.py --write`"
    )
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert len(registry.BENCHMARK_PATH.read_bytes()) <= 64 * 1024
    runs = 4 + 22 * len(document["workloads"])
    assert isinstance(document["run_seconds"], int)
    # Every run also sets up SETUP_SAMPLES times; leave room for that.
    assert runs * (document["run_seconds"] + 6) <= 3420


# -- the smoke run -------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger-smoke")
    done = run_ledger("--smoke", "--reps", "1", "--traced", "--out", str(out))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return out, json.loads((out / "aggregate.json").read_text()), done.stdout


def test_smoke_emits_every_declared_metric(smoke):
    _out, aggregate, stdout = smoke
    assert sorted(aggregate["workloads"]) == sorted(registry.WORKLOAD_NAMES)
    for workload, row in aggregate["workloads"].items():
        assert row["failed"] == 0, (workload, row["errors"])
        expected = {m.name for m in registry.END_TO_END if m.applies(workload)}
        assert set(row["end_to_end"]) == expected, workload
        for name, stat in row["end_to_end"].items():
            assert math.isfinite(stat["median"]), (workload, name)
            assert stat["q1"] <= stat["median"] <= stat["q3"]
            if name != "failed_share":
                assert stat["median"] > 0, (workload, name)
        assert set(row["per_layer"]) == {m.name for m in registry.PER_LAYER}
        assert all(math.isfinite(v) for v in row["per_layer"].values()), workload
    # printed by name with its unit
    for metric in registry.END_TO_END:
        assert re.search(rf"{re.escape(metric.name)}\s+\S+ {re.escape(metric.unit)}\n",
                         stdout), metric.name


def test_smoke_layers_land_where_the_work_is(smoke):
    _out, aggregate, _stdout = smoke
    layers = {w: row["per_layer"] for w, row in aggregate["workloads"].items()}
    assert layers["sim_registers"]["sim.memory_calls"] > 0
    assert layers["sim_net"]["sim.memory_calls"] == 0  # Memory is bypassed
    assert layers["sim_net"]["net.rtts_per_register_op"] == 2.0
    assert layers["explore"]["verify.replay_ratio"] > 1
    assert layers["campaign"]["chaos.shrink_executions"] > 0
    assert layers["live_hot"]["serve.busy_per_grant"] > 1
    assert layers["live_open"]["serve.busy_per_grant"] < 1
    assert layers["live_faulty"]["serve.proxy_delayed"] > 0
    assert layers["live_refill"]["serve.proxy_delayed"] == 0


def test_smoke_persists_one_file_per_run(smoke):
    out, _aggregate, _stdout = smoke
    for workload in registry.WORKLOAD_NAMES:
        for suffix in ("rep0", "traced"):
            document = json.loads((out / f"{workload}.{suffix}.json").read_text())
            assert document["workload"] == workload
            assert document["traced"] == (suffix == "traced")


def test_exact_counts_repeat_for_equal_seeds(tmp_path):
    for name in ("a", "b"):
        done = run_ledger("--smoke", "--reps", "1", "--traced", "--seed", "7",
                          "--workload", "sim_net", "--workload", "campaign",
                          "--out", str(tmp_path / name))
        assert done.returncode == 0, done.stdout + done.stderr
    a = compare.load(str(tmp_path / "a"))
    b = compare.load(str(tmp_path / "b"))
    for workload in ("sim_net", "campaign"):
        assert a["workloads"][workload]["counts"] == b["workloads"][workload]["counts"]
        assert a["workloads"][workload]["counts"]
    # ... and so do the traced repetition's exact (`=`) per-layer counts.
    lines, _bad = compare.compare(a, b)
    assert not [line for line in lines if "exact counts differ" in line]


# -- the driver protocol -------------------------------------------------------


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_protocol_last_line(trace):
    done = run_ledger("--workload", "sim_registers", "--seed", "5",
                      "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = registry.PER_LAYER if trace == "1" else registry.DRIVER_E2E
    assert list(result["metrics"]) == [m.name for m in declared]
    for metric in declared:
        entry = result["metrics"][metric.name]
        assert set(entry) == {"value", "unit"} and entry["unit"] == metric.unit
        assert math.isfinite(entry["value"])
        if trace == "0":
            assert entry["value"] > 0, metric.name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(registry.BENCHMARK_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(LEDGER, tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = run_ledger("--workload", "explore", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -- compare.py ----------------------------------------------------------------


def _aggregate(values, seed=0, failed_share=0.0, counts=None):
    def stat(vs):
        vs = list(vs)
        q1, median, q3 = sorted(vs)[len(vs) // 4], sorted(vs)[len(vs) // 2], sorted(vs)[-1 - len(vs) // 4]
        return {"median": median, "q1": q1, "q3": q3, "n": len(vs), "values": vs}

    return {
        "seed": seed, "smoke": False,
        "workloads": {
            "sim_net": {
                "end_to_end": {
                    "events_per_s": stat(values),
                    "failed_share": stat([failed_share] * len(values)),
                },
                "counts": counts or {"events": 1},
            }
        },
    }


@pytest.mark.parametrize("b_values, word, exit_bad", [
    ([100, 101, 102, 103, 104], "unchanged", 0),
    ([60, 61, 62, 63, 64], "regressed", 1),
    ([120, 121, 122, 123, 124], "improved", 0),
])
def test_compare_verdicts(b_values, word, exit_bad):
    a = _aggregate([100, 101, 102, 103, 104])
    lines, bad = compare.compare(a, _aggregate(b_values))
    row = next(line for line in lines if "events_per_s" in line)
    assert row.endswith(word), row
    assert bad == exit_bad


def test_compare_unresolved_when_the_parent_is_noisy():
    a = _aggregate([60, 80, 100, 120, 140])
    lines, bad = compare.compare(a, _aggregate([70, 85, 95, 110, 130]))
    assert next(line for line in lines if "events_per_s" in line).endswith("unresolved")
    assert bad == 0


def test_compare_flags_failures_and_count_drift():
    a = _aggregate([100, 101, 102, 103, 104])
    _lines, bad = compare.compare(a, _aggregate([100, 101, 102, 103, 104],
                                                failed_share=0.01))
    assert bad == 1
    lines, bad = compare.compare(a, _aggregate([100, 101, 102, 103, 104],
                                               counts={"events": 2}))
    assert bad == 1 and any("exact counts differ" in line for line in lines)
