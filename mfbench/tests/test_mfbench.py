"""Tests of the benchmark itself.

    python3 -m pytest -q mfbench/tests
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import host  # noqa: E402
import moneyflow  # noqa: E402
import run  # noqa: E402
from tracer import DRAW_TARGETS, SPAN_TARGETS, Span, Tracer, counting_pools, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(cwd) / "mfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def _footer(stdout: str, key: str) -> str:
    return next(line.split("=", 1)[1] for line in stdout.splitlines()
                if line.strip().startswith(f"{key}="))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload):
    results = {}
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.01",
                      "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in listed}
        results[trace] = done.stdout
    for key in ("output_digest", "counts_digest"):
        assert _footer(results[0], key) == _footer(results[1], key)


def test_benchmark_json_matches_the_metric_tables():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert all(m["unit"] == run.END_TO_END[m["name"]] for m in SPEC["end_to_end"])
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == run.PER_LAYER


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.child", 2.0, 3.5, 1),
        Span("b", 5.0, 9.0, 0),
        Span("b.child1", 5.0, 6.0, 3),
        Span("b.child2", 7.0, 8.5, 3),
        Span("other-root", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 1.5, 1.0, 1.5, 1.0])


def _bindings() -> dict[tuple[int, str], object]:
    """Every attribute of every moneyflow module and wrapped class."""
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "moneyflow"]
    owners.append(moneyflow.network.NetworkState)
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_removing_the_tracer_restores_every_original():
    import concurrent.futures

    for module, _ in SPAN_TARGETS + DRAW_TARGETS:  # install imports what is missing
        importlib.import_module(f"moneyflow.{module}")
    before = _bindings()
    pool_class = concurrent.futures.ProcessPoolExecutor
    tracer = Tracer()
    with tracer.installed():
        wrapped = {key for key, value in _bindings().items() if value is not before.get(key)}
        assert moneyflow.recorder.run is not before[(id(moneyflow.engine), "run")]
        moneyflow.build_network(moneyflow.two_agent_kernel())
        assert [s.name for s in tracer.spans] == ["network.build_network"]
        assert tracer.draws
    with counting_pools():
        assert concurrent.futures.ProcessPoolExecutor is not pool_class
    # One binding per target at least, plus the names copied by `from .x import y`.
    assert len(wrapped) > len(SPAN_TARGETS) + len(DRAW_TARGETS)
    after = _bindings()
    assert all(after[key] is before[key] for key in wrapped)
    assert concurrent.futures.ProcessPoolExecutor is pool_class


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_calibration_over_cpus_restores_the_affinity():
    before = os.sched_getaffinity(0)
    assert host.calib_ms(spread=True) > 0
    assert os.sched_getaffinity(0) == before


def test_scaling_divides_by_the_mean_calibration():
    assert host.scaled(1.0, host.REFERENCE_MS, host.REFERENCE_MS) == 1.0
    assert host.scaled(3.0, 2 * host.REFERENCE_MS, 4 * host.REFERENCE_MS) == pytest.approx(1.0)


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "mfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = _bench("--workload", "simulate-n5", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
