#!/usr/bin/env python3
"""End-to-end benchmark of ``repro run all``: cold and warm wall time, by layer.

Run from the repository root::

    python3 e2ebench/run.py --workload st-mechanisms-cold --seed 1 \\
        --seconds 20 --trace 0

Every measured run is a fresh ``python`` process (``e2ebench/child.py``)
executing the real ``build_manifest`` -> ``run_serial`` -> ``write_outputs``
pipeline with 2 workers, one batch job at a time (closed loop), against a
result store of its own: empty for the cold workloads, filled beforehand by
an untimed cold run of the same manifest and seed for ``full-warm-replay``.
No cache is carried between runs and every ``REPRO_*`` variable is scrubbed
from the child environment.

``--trace 0`` repeats the run until ``--seconds`` have passed and reports the
median of each end-to-end metric.  ``--trace 1`` runs the workload three
times -- 2 workers, serial, and serial with layer spans -- and reports the
per-layer split from the spans.  Either way the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it give the provenance, the quartiles and sample counts, and
the full per-layer table.

Every run's output directory is hashed.  The digest must equal the one
pinned in ``e2ebench/digests.json`` for (engine version, scale, workload,
seed); without a pin it is reported as unpinned, and ``--pin`` records it.
All runs of one invocation must agree, a warm replay must reproduce its
store-fill run, and a seed-chosen sample of the stored cases is re-simulated
and compared.  The exit status is non-zero when any case fails or any check
fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
PINS = HERE / "digests.json"
WORK = ROOT / ".e2ebench"

#: Default ``--scale``: 0.1 keeps one figure-10 run near 10 s on a 2-vCPU
#: host while every case still simulates its full warm-up window.
SCALE = 0.1
#: Worker processes of the measured runs (the hosts have 2 vCPUs).
JOBS = 2
#: Set-up-only runs per ``--trace 0`` invocation; ``setup_s`` is their
#: median.
SETUP_PROBES = 10
#: Every child of one workload's invocation must have exited this long after
#: the invocation started; one still running then is killed and its run
#: counts as failed.
DEADLINE_S = 170.0

PREDICTORS = ("gshare", "tage", "tournament", "ltage", "tage_sc_l")

#: Why each workload was chosen is recorded in ``e2ebench/README.md``.
WORKLOADS = {
    "st-mechanisms-cold": {
        "experiments": "figure1,figure7,figure8,figure9", "warm": False},
    "smt-predictors-cold": {"experiments": "figure10", "warm": False},
    "full-warm-replay": {"experiments": "all", "warm": True},
}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_branches_per_s", "1/s"),
)

#: Per-layer metrics of the result line.  The full table printed above it
#: has more (every experiment's assembly time, store open, run_serial).
PER_LAYER = (
    ("trace.wall_s", "s"),
    ("trace.uncovered_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("manifest.plan_s", "s"),
    ("manifest.unique_cases", "count"),
    ("store.get_s", "s"),
    ("store.get_calls", "count"),
    ("store.put_s", "s"),
    ("store.put_calls", "count"),
    ("store.bytes_written", "bytes"),
    ("pipeline.assemble_self_s", "s"),
    ("pipeline.assemble_s.table1", "s"),
    ("pipeline.assemble_s.poc_attacks", "s"),
    ("pipeline.write_s", "s"),
    ("pipeline.register_manifest_s", "s"),
    ("workloads.build_s", "s"),
    ("workloads.build_calls", "count"),
    ("workloads.build_distinct_ratio", "ratio"),
    ("workloads.trace_s", "s"),
    ("workloads.trace_batches", "count"),
    ("engine.kernel_compile_s", "s"),
    ("engine.kernel_compiles", "count"),
    ("core.build_bpu_s", "s"),
    ("core.build_bpu_calls", "count"),
    ("cpu.st_run_self_s", "s"),
    ("cpu.smt_run_self_s", "s"),
    ("cpu.branches", "count"),
) + tuple((f"cpu.ns_per_branch.{name}", "ns") for name in PREDICTORS) + (
    ("case.p50_ms", "ms"),
    ("case.p95_ms", "ms"),
    ("attacks.run_attack_s", "s"),
    ("attacks.run_attack_calls", "count"),
    ("executor.simulated", "count"),
    ("executor.cache_hits", "count"),
    ("executor.store_hits", "count"),
    ("executor.failures", "count"),
    ("executor.parallel_efficiency", "ratio"),
)


def child_env(environ=None) -> dict:
    """The environment of every child: no ``REPRO_*`` knob, ``src`` first.

    A developer's shell would otherwise leak in: ``REPRO_CACHE_DIR`` or
    ``REPRO_STORE_DIR`` turning a cold run warm, ``REPRO_JOBS``,
    ``REPRO_SCALE`` or ``REPRO_BACKEND`` changing the work,
    ``REPRO_FAULT_SPEC`` injecting faults, ``REPRO_TRACE_DIR`` swapping the
    trace corpus.
    """
    environ = os.environ if environ is None else environ
    env = {name: value for name, value in environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv, log_path: Path, timeout: float) -> dict:
    """Run one child to completion; return its exit code and resource use.

    ``wall_s`` runs from just before the fork to the reaped exit.  The
    rusage from ``wait4`` covers the child and every worker it reaped, so
    ``cpu_s`` is user plus system time of the whole run and ``peak_rss_mb``
    the largest resident set among them.  A child still running after
    ``timeout`` seconds is killed with its whole process group, and the group
    is waited for.
    """
    with open(log_path, "ab") as log:
        started = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    _wait_group_gone(proc.pid)
    return {"code": proc.returncode, "started": started, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int) -> None:
    """Kill and wait out anything left in a finished child's process group."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def output_digest(out_dir: Path) -> str:
    """SHA-256 over every file of an output directory (names and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out_dir).as_posix().encode())
        digest.update(b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def check_outputs(out_dir: Path, report: dict) -> "list[str]":
    """Structural checks of one run's output directory."""
    problems = []
    expected = {"summary.json"} | {f"{key}.{ext}"
                                   for key in report["experiments"]
                                   for ext in ("json", "txt")}
    present = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    if present != expected:
        problems.append(
            f"output files differ from the plan: missing "
            f"{sorted(expected - present)}, unexpected "
            f"{sorted(present - expected)}")
        return problems
    summary = json.loads((out_dir / "summary.json").read_text())
    if summary.get("manifest_hash") != report["manifest_hash"] \
            or summary.get("unique_cases") != report["unique_cases"]:
        problems.append("summary.json does not describe the planned manifest")
    return problems


def pin_key(engine: str, scale: float) -> str:
    return f"{engine}/scale-{scale}"


def load_pins() -> dict:
    try:
        return json.loads(PINS.read_text())
    except FileNotFoundError:
        return {}


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


class ChildFailed(Exception):
    """A child process exited non-zero or was killed."""


class Invocation:
    """One benchmark invocation: its runs, checks and scratch directory."""

    def __init__(self, workload: str, seed: int, scale: float) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.spec = WORKLOADS[workload]
        self.deadline = time.monotonic() + DEADLINE_S
        self.dir = WORK / f"run-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.log = self.dir / "children.log"
        self._serial = 0
        self.problems: "list[str]" = []
        self.digests: "set[str]" = set()
        self.engine = None
        self.unique_cases = None
        self.attempted = 0
        self.failed = 0

    def fresh(self, name: str) -> Path:
        self._serial += 1
        return self.dir / f"{name}-{self._serial}"

    def _child(self, mode: str, store: Path, *extra) -> "tuple[dict, dict]":
        report_path = self.fresh(f"{mode}-report")
        argv = [sys.executable, str(CHILD), mode,
                "--experiments", self.spec["experiments"],
                "--seed", str(self.seed), "--scale", str(self.scale),
                "--store", str(store), "--report", str(report_path), *extra]
        usage = spawn(argv, self.log,
                      max(1.0, self.deadline - time.monotonic()))
        if usage["code"] != 0:
            tail = self.log.read_text(errors="replace").splitlines()[-20:]
            print("\n".join(tail), file=sys.stderr)
            raise ChildFailed(f"{mode} child exited with {usage['code']}")
        report = json.loads(report_path.read_text())
        self.engine = report["engine"]
        return usage, report

    def probe(self) -> float:
        """One set-up-only run; returns its set-up time."""
        usage, report = self._child("probe", self.dir / "probe-store")
        return report["setup_end"] - usage["started"]

    def run(self, store: Path, *, jobs: int, cold: bool,
            spans: "Path | None" = None) -> "dict | None":
        """One measured pipeline run, checked; ``None`` if it failed."""
        out = self.fresh("out")
        extra = ["--out", str(out), "--jobs", str(jobs)]
        if spans is not None:
            extra += ["--trace", "--spans", str(spans),
                      "--run-id", f"{self.workload}-seed{self.seed}"]
        try:
            usage, report = self._child("run", store, *extra)
        except ChildFailed as exc:
            self.attempted += self.unique_cases or 1
            self._fail(str(exc), self.unique_cases or 1)
            return None
        problems = check_outputs(out, report)
        if cold and (report["simulated"] != report["unique_cases"]
                     or report["store_hits"]):
            problems.append(
                f"cold run was not cold: {report['simulated']} of "
                f"{report['unique_cases']} simulated, "
                f"{report['store_hits']} store hit(s)")
        if not cold and (report["simulated"]
                         or report["store_hits"] != report["unique_cases"]):
            problems.append(
                f"warm run simulated {report['simulated']} case(s) and "
                f"read {report['store_hits']} of {report['unique_cases']} "
                "from the store")
        if not problems:
            self.digests.add(output_digest(out))
        shutil.rmtree(out, ignore_errors=True)
        self.unique_cases = report["unique_cases"]
        self.attempted += report["unique_cases"]
        if problems:
            self._fail("; ".join(problems), report["unique_cases"])
            return None
        self.failed += report["failures"]
        if report["failures"]:
            self.problems.append(f"{report['failures']} case(s) failed")
        return {**usage, "report": report}

    def verify(self, store: Path) -> "dict | None":
        """Audit a filled store; returns the verify report."""
        try:
            _usage, report = self._child("verify", store)
        except ChildFailed as exc:
            self.problems.append(f"store audit: {exc}")
            return None
        if report["missing"]:
            self.problems.append(
                f"store audit: {len(report['missing'])} planned case(s) "
                "missing or corrupt")
        if report["mismatched"]:
            self.problems.append(
                f"store audit: {len(report['mismatched'])} of "
                f"{len(report['resimulated'])} re-simulated case(s) differ "
                "from the stored result")
        return report

    def _fail(self, problem: str, cases: int) -> None:
        """A failed run counts every one of its cases as failed."""
        self.problems.append(problem)
        self.failed += cases

    def check_digests(self, pin: bool) -> str:
        """Compare the runs' output digest with the pinned one.

        A failed comparison fails every run of the invocation, so all of
        their cases count as failed.
        """
        if len(self.digests) > 1:
            self.problems.append(
                f"runs of one manifest and seed wrote {len(self.digests)} "
                "different outputs")
            self.failed = self.attempted
            return "inconsistent"
        if not self.digests or self.engine is None:
            return "no output"
        digest = next(iter(self.digests))
        pins = load_pins()
        key = pin_key(self.engine, self.scale)
        pinned = pins.get(key, {}).get(self.workload, {}).get(str(self.seed))
        if pinned is None:
            if pin and not self.problems:
                pins.setdefault(key, {}).setdefault(
                    self.workload, {})[str(self.seed)] = digest
                PINS.write_text(json.dumps(pins, indent=2, sort_keys=True)
                                + "\n")
                return f"pinned {digest[:16]}"
            return f"unpinned {digest[:16]}"
        if pinned != digest:
            self.problems.append(
                f"output digest {digest[:16]} differs from the pinned "
                f"{pinned[:16]} for {self.workload} seed {self.seed}")
            self.failed = self.attempted
            return "mismatch"
        return f"matches pin {digest[:16]}"

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def fill_store(inv: Invocation) -> "tuple[Path, dict | None]":
    """The warm workload's fixture: an untimed cold run into a kept store."""
    store = inv.fresh("store")
    inv.run(store, jobs=JOBS, cold=True)
    return store, inv.verify(store)


def measure_end_to_end(inv: Invocation, seconds: float) -> dict:
    warm = inv.spec["warm"]
    inv.probe()  # untimed: byte-compiles the package, warms the page cache
    audit = None
    if warm:
        store, audit = fill_store(inv)
        if inv.problems:
            return {}
    setup = [inv.probe() for _ in range(SETUP_PROBES)]
    runs = []
    started = time.monotonic()
    while not runs or time.monotonic() - started < seconds:
        if not warm:
            store = inv.fresh("store")
        run = inv.run(store, jobs=JOBS, cold=not warm)
        if run is None:
            break
        if audit is None:
            audit = inv.verify(store)
        if not warm:
            shutil.rmtree(store, ignore_errors=True)
        runs.append(run)
    if not runs:
        return {}
    branches = audit["branches"] if audit else 0
    samples = {
        "wall_s": [run["wall_s"] for run in runs],
        "setup_s": setup,
        "cpu_s": [run["cpu_s"] for run in runs],
        "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
        "sim_branches_per_s": [branches / run["wall_s"] for run in runs],
    }
    for name, unit in END_TO_END:
        q1, median, q3 = quartiles(samples[name])
        print(f"{name}: median {median:.6g} {unit} (q1 {q1:.6g}, "
              f"q3 {q3:.6g}, n={len(samples[name])})")
    return {name: statistics.median(samples[name]) for name, _ in END_TO_END}


def self_times(spans: "list[dict]") -> "dict[int, float]":
    """Each span's duration minus the durations of its child spans."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * fraction) - 1)]


def layer_metrics(spans: "list[dict]", traced: dict, serial: dict,
                  parallel: dict) -> "dict[str, tuple[float, str]]":
    """Every per-layer figure of one traced run, as ``name -> (value, unit)``."""
    own = self_times(spans)
    self_by_name = defaultdict(float)
    calls_by_name = defaultdict(int)
    for span in spans:
        self_by_name[span["name"]] += own[span["id"]]
        calls_by_name[span["name"]] += 1
    wall = traced["wall_s"]

    def self_s(name):
        return self_by_name.get(name, 0.0)

    def calls(name):
        return calls_by_name.get(name, 0)

    metrics = {
        "trace.wall_s": (wall, "s"),
        "trace.uncovered_s": (wall - sum(s["end"] - s["start"] for s in spans
                                          if s["parent"] is None), "s"),
        "trace.overhead_ratio": (wall / serial["wall_s"], "ratio"),
    }
    metrics["pipeline.assemble_self_s"] = (self_s("pipeline.assemble"), "s")
    for layer in ("manifest.plan", "store.open", "store.get", "store.put",
                  "pipeline.run_serial", "pipeline.write",
                  "pipeline.register_manifest",
                  "workloads.build", "workloads.trace",
                  "engine.kernel_compile", "core.build_bpu", "case",
                  "attacks.run_attack"):
        metrics[f"{layer}_s"] = (self_s(layer), "s")
    for layer in ("st_run", "smt_run"):
        metrics[f"cpu.{layer}_self_s"] = (self_s(f"cpu.{layer}"), "s")

    builds = [s for s in spans if s["name"] == "workloads.build"]
    distinct = {(s["pair"], s["seed"]) for s in builds}
    metrics.update({
        "manifest.unique_cases": (traced["report"]["unique_cases"], "count"),
        "store.get_calls": (calls("store.get"), "count"),
        "store.put_calls": (calls("store.put"), "count"),
        "store.bytes_written": (traced["store_bytes"], "bytes"),
        "workloads.build_calls": (len(builds), "count"),
        "workloads.build_distinct_ratio": (
            len(distinct) / len(builds) if builds else 0.0, "ratio"),
        "workloads.trace_batches": (calls("workloads.trace"), "count"),
        "engine.kernel_compiles": (calls("engine.kernel_compile"), "count"),
        "core.build_bpu_calls": (calls("core.build_bpu"), "count"),
        "attacks.run_attack_calls": (calls("attacks.run_attack"), "count"),
    })

    # Self time of the core loop per predictor; a run's children are trace
    # generation and kernel compiles, which are layers of their own.
    per_predictor = defaultdict(lambda: [0.0, 0])
    for span in spans:
        if span["name"] in ("cpu.st_run", "cpu.smt_run") and "predictor" in span:
            row = per_predictor[span["predictor"]]
            row[0] += own[span["id"]]
            row[1] += span["branches"]
    metrics["cpu.branches"] = (
        sum(row[1] for row in per_predictor.values()), "count")
    for name in PREDICTORS:
        busy, branches = per_predictor.get(name, (0.0, 0))
        metrics[f"cpu.ns_per_branch.{name}"] = (
            1e9 * busy / branches if branches else 0.0, "ns")

    cases = [s["end"] - s["start"] for s in spans if s["name"] == "case"]
    p50, p95 = percentile(cases, 0.50), percentile(cases, 0.95)
    metrics["case.p50_ms"] = (1e3 * p50, "ms")
    metrics["case.p95_ms"] = (1e3 * p95, "ms")

    # Per experiment the whole assembly counts, attack runs included: the
    # caseless experiments spend their time there.  The ones named in
    # PER_LAYER read 0 s on a workload that does not run them.
    per_experiment = defaultdict(float, {"table1": 0.0, "poc_attacks": 0.0})
    for span in spans:
        if span["name"] == "pipeline.assemble":
            per_experiment[span["experiment"]] += span["end"] - span["start"]
    for key, seconds in per_experiment.items():
        metrics[f"pipeline.assemble_s.{key}"] = (seconds, "s")

    report = traced["report"]
    metrics.update({
        "executor.simulated": (report["simulated"], "count"),
        "executor.cache_hits": (report["cache_hits"], "count"),
        "executor.store_hits": (report["store_hits"], "count"),
        "executor.failures": (report["failures"], "count"),
        "executor.parallel_efficiency": (
            parallel["cpu_s"] / (JOBS * parallel["wall_s"]), "ratio"),
    })
    return metrics


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def measure_layers(inv: Invocation) -> dict:
    warm = inv.spec["warm"]
    inv.probe()
    audit = None
    if warm:
        store, audit = fill_store(inv)
        if inv.problems:
            return {}
    runs = {}
    for label, jobs, traced in (("parallel", JOBS, False),
                                ("serial", 1, False), ("traced", 1, True)):
        if not warm:
            store = inv.fresh("store")
        before = tree_bytes(store) if store.exists() else 0
        spans_path = inv.fresh("spans") if traced else None
        run = inv.run(store, jobs=jobs, cold=not warm, spans=spans_path)
        if run is None:
            return {}
        run["store_bytes"] = tree_bytes(store) - before
        if audit is None:
            audit = inv.verify(store)
        if not warm:
            shutil.rmtree(store, ignore_errors=True)
        runs[label] = run
    spans = json.loads(spans_path.read_text())
    keep = WORK / "traces" / f"{inv.workload}-seed{inv.seed}.json"
    keep.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(spans_path, keep)
    print(f"spans: {len(spans)} written to {keep.relative_to(ROOT)}")
    metrics = layer_metrics(spans, runs["traced"], runs["serial"],
                            runs["parallel"])
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name} = {value:.6g} {unit}")
    return {name: metrics[name][0] for name, _unit in PER_LAYER}


def git_commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="'all' runs every workload in turn, each "
                             "printing its own result line")
    parser.add_argument("--seed", type=int, default=2021,
                        help="workload seed (ExperimentScale.seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the --trace 0 loop measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=SCALE,
                        help="trace-length scale of every run (the "
                             "self-test uses the smallest, 0.05)")
    parser.add_argument("--pin", action="store_true",
                        help="record the output digest when none is pinned")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no reproduction package under {ROOT / 'src'}; run "
              "from a full checkout", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    codes = [run_workload(args, workload) for workload in workloads]
    return max(codes)


def run_workload(args, workload: str) -> int:
    """Measure one workload, print its report and result line."""
    inv = Invocation(workload, args.seed, args.scale)
    metrics = {}
    try:
        if args.trace:
            metrics = measure_layers(inv)
        else:
            metrics = measure_end_to_end(inv, args.seconds)
    except ChildFailed as exc:
        inv.problems.append(str(exc))
    finally:
        inv.close()
    digest = inv.check_digests(args.pin)
    provenance = {"commit": git_commit(), "engine": inv.engine,
                  "backend": "python", "nproc": os.cpu_count(),
                  "python": platform.python_version(),
                  "workload": workload, "seed": args.seed,
                  "scale": args.scale, "jobs": JOBS, "output": digest}
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for problem in inv.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    names = PER_LAYER if args.trace else END_TO_END
    correct = not inv.problems and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(inv.attempted, 1),
        "failed": inv.failed if inv.attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names if name in metrics},
    }), flush=True)
    return 0 if correct and inv.failed == 0 else 1

if __name__ == "__main__":
    sys.exit(main())
