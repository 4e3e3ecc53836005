"""Self-test of the end-to-end benchmark harness, at the smallest scale.

Run from the repository root (about two minutes on 2 vCPUs)::

    python3 -m pytest -q e2ebench/selftest.py

It checks that every metric ``BENCHMARK.json`` names is printed with its
unit, that one corrupted output byte fails the digest check, and that a
``REPRO_CACHE_DIR`` exported by the caller does not turn a cold run warm.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the harness module next to this file)

SCALE = "0.05"
SEED = "2021"  # the CLI's default seed, so the CLI can prefill a cache


def harness(workload: str, trace: int, env=None) -> "tuple[int, str]":
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", SEED, "--seconds", "1", "--trace", str(trace),
         "--scale", SCALE],
        cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def prefilled_cache(tmp_path_factory):
    """A result cache holding every case of ``st-mechanisms-cold``."""
    cache = tmp_path_factory.mktemp("cache")
    env = {**run.child_env(), "REPRO_CACHE_DIR": str(cache)}
    experiments = run.WORKLOADS["st-mechanisms-cold"]["experiments"]
    subprocess.run(
        [sys.executable, "-m", "repro", "run", "all", "--experiments",
         *experiments.split(","), "--scale", SCALE, "--jobs", "2",
         "--out", str(tmp_path_factory.mktemp("cli-out"))],
        cwd=run.ROOT, env=env, check=True, capture_output=True, timeout=600)
    return cache


@pytest.fixture(scope="module")
def cold_with_cache_exported(prefilled_cache):
    """The cold workload run by a caller that exported ``REPRO_CACHE_DIR``."""
    before = sorted(os.listdir(prefilled_cache))
    env = {**os.environ, "REPRO_CACHE_DIR": str(prefilled_cache)}
    code, stdout = harness("st-mechanisms-cold", 0, env=env)
    return code, stdout, before, sorted(os.listdir(prefilled_cache))


def benchmark_metrics(section: str) -> "dict[str, str]":
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def test_harness_metric_lists_match_benchmark_json():
    assert dict(run.END_TO_END) == benchmark_metrics("end_to_end")
    assert dict(run.PER_LAYER) == benchmark_metrics("per_layer")
    assert sorted(run.WORKLOADS) == sorted(
        workload["name"] for workload in
        json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"])


def printed_units(stdout: str) -> "dict[str, str]":
    metrics = result_line(stdout)["metrics"]
    return {name: metric["unit"] for name, metric in metrics.items()}


def test_cold_run_prints_every_end_to_end_metric(cold_with_cache_exported):
    code, stdout, _before, _after = cold_with_cache_exported
    assert code == 0, stdout
    result = result_line(stdout)
    assert result["correct"] and result["failed"] == 0
    assert printed_units(stdout) == benchmark_metrics("end_to_end")
    for name, unit in run.END_TO_END:
        assert f"{name}: median " in stdout and f" {unit} (q1 " in stdout


def test_warm_replay_prints_every_end_to_end_metric():
    code, stdout = harness("full-warm-replay", 0)
    assert code == 0, stdout
    assert result_line(stdout)["correct"]
    assert printed_units(stdout) == benchmark_metrics("end_to_end")


def test_traced_run_prints_every_per_layer_metric():
    code, stdout = harness("st-mechanisms-cold", 1)
    assert code == 0, stdout
    assert result_line(stdout)["correct"]
    assert printed_units(stdout) == benchmark_metrics("per_layer")
    for name in ("workloads.build_s", "cpu.ns_per_branch.tage",
                 "case.p50_ms", "case.p95_ms", "pipeline.assemble_s.figure1"):
        assert f"  {name} = " in stdout


def test_exported_cache_dir_does_not_leak_into_cold_run(
        prefilled_cache, cold_with_cache_exported):
    code, stdout, before, after = cold_with_cache_exported
    assert len(before) >= 264  # the cache could have served every case
    # A leak would turn the cold runs into cache hits ("cold run was not
    # cold") or publish into the cache.
    assert code == 0, stdout
    assert after == before


def test_child_env_scrubs_repro_knobs():
    env = run.child_env({"REPRO_CACHE_DIR": "c", "REPRO_STORE_DIR": "s",
                         "REPRO_JOBS": "4", "REPRO_SCALE": "1",
                         "REPRO_BACKEND": "numpy", "REPRO_FAULT_SPEC": "x",
                         "REPRO_TRACE_DIR": "t", "HOME": "/h"})
    assert env == {"HOME": "/h", "PYTHONPATH": str(run.ROOT / "src")}


def test_corrupted_output_byte_fails_digest_check(tmp_path, monkeypatch):
    out, store = tmp_path / "out", tmp_path / "store"
    usage = run.spawn(
        [sys.executable, str(run.CHILD), "run", "--experiments", "figure1",
         "--seed", SEED, "--scale", SCALE, "--store", str(store),
         "--report", str(tmp_path / "report.json"), "--out", str(out)],
        tmp_path / "child.log", timeout=300)
    assert usage["code"] == 0
    monkeypatch.setattr(run, "PINS", tmp_path / "digests.json")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")

    def check(pin: bool) -> "tuple[str, list, int]":
        inv = run.Invocation("st-mechanisms-cold", int(SEED), float(SCALE))
        inv.engine = "selftest"
        inv.digests = {run.output_digest(out)}
        inv.attempted = 12
        try:
            return inv.check_digests(pin), inv.problems, inv.failed
        finally:
            inv.close()

    assert check(pin=True)[0].startswith("pinned ")
    status, problems, failed = check(pin=False)
    assert status.startswith("matches pin ") and not problems and not failed

    victim = out / "figure1.json"
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 0x01
    victim.write_bytes(bytes(data))
    status, problems, failed = check(pin=False)
    assert status == "mismatch"
    assert problems and "differs from the pinned" in problems[0]
    assert failed == 12  # every case of the mismatching runs
