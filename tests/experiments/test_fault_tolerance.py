"""Tests for the fault-tolerant execution layer.

Every recovery path is exercised deterministically through the
``REPRO_FAULT_SPEC`` injection harness (:mod:`repro.testing.faults`):
retry-to-success, retry exhaustion (fail-fast and ``keep_going``), timeout
classification, worker-crash (``BrokenProcessPool``) recovery, real
hang-then-timeout pool abandonment, Ctrl-C propagation, crash-then-resume
journal replay, torn-write detection and orphaned tmp-file sweeping.

The headline invariant: a run that crashed mid-shard and was resumed
produces case payloads — and therefore merged figures — **bit-identical**
to an uninterrupted run.  (Shard-artifact ``stats`` legitimately differ:
they record what each execution actually simulated.)
"""

import json
import os
import subprocess
import sys

import pytest

from repro.cpu.config import fpga_prototype
from repro.experiments import fig1_flush_single
from repro.experiments.executor import (
    CaseSpec,
    ExecutionError,
    RunResultCache,
    SweepExecutor,
    atomic_write_json,
    sweep_tmp_files,
)
from repro.experiments.manifest import ExperimentDef, build_manifest
from repro.experiments.pipeline import (
    execute_shard,
    failure_manifest_path,
    journal_path,
    load_artifact,
    load_journal,
    merge_artifacts,
    shard_artifact_path,
)
from repro.experiments.scaling import ExperimentScale
from repro.experiments.store import ResultStore
from repro.testing.faults import (
    FaultClause,
    InjectedFault,
    parse_fault_spec,
)
from repro.workloads import SINGLE_THREAD_PAIRS

#: Deliberately tiny budgets: these tests exercise plumbing, not physics.
TINY = ExperimentScale(
    time_scale=800.0, smt_time_scale=800.0, syscall_time_scale=100.0,
    st_target_branches=1_200, st_warmup_branches=300,
    smt_instructions=10_000, smt_warmup_instructions=2_000, seed=7)

CONFIG = fpga_prototype("gshare", n_entries=2048)


def _spec(preset="baseline", **overrides):
    defaults = dict(kind="single", pair=SINGLE_THREAD_PAIRS[0], config=CONFIG,
                    preset=preset, scale=TINY)
    defaults.update(overrides)
    return CaseSpec(**defaults)


def _cache():
    # Memory-only: isolated from any REPRO_STORE_DIR.
    return RunResultCache(store=False)


def _executor(jobs=1, *, retries=0, keep_going=False, timeout=False,
              cache=None, **kwargs):
    # backoff=0: the retry paths must run instantly in tier-1.
    return SweepExecutor(jobs=jobs, cache=cache or _cache(), retries=retries,
                         backoff=0, keep_going=keep_going, timeout=timeout,
                         **kwargs)


class TestFaultSpecParsing:
    def test_clauses_round_trip(self):
        clauses = parse_fault_spec(
            "crash:case_idx=1,timeout:key~fig8;attempts=99,"
            "hang:seconds=2.5,torn_write:path~shard-,fail,interrupt")
        assert [c.kind for c in clauses] == [
            "crash", "timeout", "hang", "torn_write", "fail", "interrupt"]
        assert clauses[0] == FaultClause("crash", case_idx=1)
        assert clauses[1] == FaultClause("timeout", match="fig8", attempts=99)
        assert clauses[2].seconds == 2.5
        assert clauses[3].matches_path("out/shard-0-of-2.json")
        assert not clauses[3].matches_path("out/figure1.json")

    def test_unknown_kind_is_named_error(self):
        with pytest.raises(ValueError,
                           match="REPRO_FAULT_SPEC.*unknown fault kind"):
            parse_fault_spec("explode:case_idx=0")

    def test_unknown_selector_is_named_error(self):
        with pytest.raises(ValueError, match="unknown selector"):
            parse_fault_spec("fail:when=later")

    def test_malformed_int_is_named_error(self):
        with pytest.raises(ValueError, match="case_idx"):
            parse_fault_spec("fail:case_idx=one")

    def test_attempts_window(self):
        clause = parse_fault_spec("fail:attempts=2")[0]
        assert clause.matches_case(index=0, key="k", label="l", attempt=1)
        assert clause.matches_case(index=0, key="k", label="l", attempt=2)
        assert not clause.matches_case(index=0, key="k", label="l", attempt=3)

    def test_bad_spec_fails_at_executor_construction(self, monkeypatch):
        # Not as a cryptic crash inside the first worker.
        monkeypatch.setenv("REPRO_FAULT_SPEC", "explode")
        with pytest.raises(ValueError, match="REPRO_FAULT_SPEC"):
            SweepExecutor(jobs=1, cache=_cache())


class TestSerialFaults:
    def test_transient_failure_is_retried_to_success(self, monkeypatch):
        clean = _executor().run_spec(_spec())
        monkeypatch.setenv("REPRO_FAULT_SPEC", "fail:attempts=1")
        executor = _executor(retries=2)
        result = executor.run_spec(_spec())
        assert executor.failures == []
        assert executor.simulated == 1
        assert result.cycles == clean.cycles

    def test_retry_exhaustion_is_a_structured_failure(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "fail:attempts=99")
        executor = _executor(retries=1)
        with pytest.raises(ExecutionError, match="injected fail"):
            executor.run_spec(_spec())
        (failure,) = executor.failures
        assert failure.attempts == 2  # first try + one retry
        assert failure.error == "InjectedFault"
        assert failure.timed_out is False
        assert failure.key == _spec().cache_key()

    def test_keep_going_completes_healthy_cases(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "crash:case_idx=0;attempts=99")
        executor = _executor(keep_going=True)
        results = executor.run_specs([_spec(), _spec(preset="complete_flush")])
        assert results[0] is None
        assert results[1] is not None and results[1].mechanism == "complete_flush"
        (failure,) = executor.failures
        assert failure.error == "InjectedCrash"  # serial degrades the kill

    def test_injected_timeout_classifies_as_timed_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "timeout:attempts=99")
        executor = _executor(keep_going=True)
        assert executor.run_spec(_spec()) is None
        assert executor.failures[0].timed_out is True

    def test_interrupt_propagates(self, monkeypatch):
        # KeyboardInterrupt is never swallowed by the retry machinery; the
        # CLI maps it to exit code 130.
        monkeypatch.setenv("REPRO_FAULT_SPEC", "interrupt")
        with pytest.raises(KeyboardInterrupt):
            _executor(retries=5).run_spec(_spec())

    def test_failed_key_is_not_retried_within_executor_lifetime(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "fail:attempts=99")
        executor = _executor(keep_going=True)
        assert executor.run_spec(_spec()) is None
        # A later batch naming the same case reuses the failure verdict
        # instead of burning the retry budget again.
        assert executor.run_specs([_spec()]) == [None]
        assert len(executor.failures) == 1


class TestParallelFaults:
    SPECS = staticmethod(lambda: [
        _spec(preset="baseline"), _spec(preset="complete_flush")])

    def test_worker_crash_recovers_bit_identically(self, monkeypatch):
        expected = _executor().run_specs(self.SPECS())
        # Attempt 1 of case 0 hard-kills its worker (BrokenProcessPool);
        # the pool is rebuilt and both cases — the crasher and any
        # co-victim — retry and succeed.
        monkeypatch.setenv("REPRO_FAULT_SPEC", "crash:case_idx=0;attempts=1")
        executor = _executor(jobs=2, retries=2)
        observed = executor.run_specs(self.SPECS())
        assert executor.failures == []
        assert [r.cycles for r in observed] == [r.cycles for r in expected]
        assert [r.mechanism for r in observed] \
            == [r.mechanism for r in expected]

    def test_worker_crash_exhaustion_under_keep_going(self, monkeypatch):
        # Every case crashes its worker on every attempt.  A broken pool
        # cannot tell the crasher from its co-victims, so each in-flight
        # case consumes an attempt per break; with retries=1 both exhaust
        # after two pool rebuilds — and keep_going still returns instead of
        # raising, with one structured failure per case.
        monkeypatch.setenv("REPRO_FAULT_SPEC", "crash:attempts=99")
        executor = _executor(jobs=2, retries=1, keep_going=True)
        results = executor.run_specs(self.SPECS())
        assert results == [None, None]
        assert len(executor.failures) == 2
        assert {f.error for f in executor.failures} == {"BrokenProcessPool"}
        assert {f.attempts for f in executor.failures} == {2}

    def test_injected_timeout_in_worker(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC",
                           "timeout:case_idx=1;attempts=99")
        executor = _executor(jobs=2, keep_going=True)
        results = executor.run_specs(self.SPECS())
        assert results[0] is not None
        assert results[1] is None
        failure = next(f for f in executor.failures
                       if f.key == _spec(preset="complete_flush").cache_key())
        assert failure.timed_out is True

    def test_real_hang_expires_against_the_case_timeout(self, monkeypatch):
        # The one wall-clock test: a worker wedges (sleeps 4 s) and the
        # parent classifies it as CaseTimeout after ~1 s, abandons the pool
        # it cannot preempt, and still completes the healthy case.  The 4x
        # margin between the hang and the timeout keeps this robust on slow
        # machines without signals or flaky short sleeps.
        monkeypatch.setenv("REPRO_FAULT_SPEC", "hang:case_idx=0;seconds=4")
        executor = _executor(jobs=2, timeout=1.0, keep_going=True)
        results = executor.run_specs(self.SPECS())
        assert results[0] is None
        assert results[1] is not None
        failure = next(f for f in executor.failures
                       if f.key == _spec().cache_key())
        assert failure.error == "CaseTimeout"
        assert failure.timed_out is True


#: Golden-restricted Figure 1 registry for the journal/resume tests.
PAIRS = SINGLE_THREAD_PAIRS[:2]
REGISTRY = {
    "figure1": ExperimentDef(
        "figure1",
        plan=lambda scale: fig1_flush_single.plan(scale, pairs=PAIRS),
        assemble=lambda scale, executor: fig1_flush_single.run(
            scale, pairs=PAIRS, executor=executor)),
}


def _manifest(scale=TINY):
    return build_manifest(scale=scale, experiments=REGISTRY)


class TestJournalResume:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("reference"))
        path = execute_shard(_manifest(), None, out, jobs=1, cache=_cache())
        return out, path

    def test_crash_then_resume_matches_uninterrupted_run(
            self, reference, tmp_path, monkeypatch):
        ref_dir, ref_path = reference
        manifest = _manifest()
        out = str(tmp_path / "crashed")

        # Case 5 fails permanently: serial execution completes (and
        # journals) cases 0-4, then aborts.
        monkeypatch.setenv("REPRO_FAULT_SPEC", "crash:case_idx=5;attempts=99")
        monkeypatch.setenv("REPRO_RETRIES", "0")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        with pytest.raises(ExecutionError):
            execute_shard(manifest, None, out, jobs=1, cache=_cache())
        assert not os.path.exists(shard_artifact_path(out, None))
        with open(journal_path(out, None), encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 1 + 5  # header + the five completed cases

        # Faults cleared, the resumed run replays the journal and simulates
        # only the remainder.
        monkeypatch.delenv("REPRO_FAULT_SPEC")
        path = execute_shard(manifest, None, out, jobs=1, cache=_cache(),
                             resume=True)
        resumed = load_artifact(path)
        ref = load_artifact(ref_path)
        total = len(manifest.unique_cases())
        assert resumed["stats"]["simulated"] == total - 5
        assert ref["stats"]["simulated"] == total

        # Case payloads are bit-identical; only the execution-history stats
        # block differs.
        assert resumed["cases"] == ref["cases"]
        assert {k: v for k, v in resumed.items() if k != "stats"} \
            == {k: v for k, v in ref.items() if k != "stats"}

        # And therefore the merged figures are byte-identical files.
        ref_merged = str(tmp_path / "m-ref")
        res_merged = str(tmp_path / "m-res")
        merge_artifacts([ref_path], manifest, out_dir=ref_merged)
        merge_artifacts([path], manifest, out_dir=res_merged)
        for name in ("figure1.json", "figure1.txt"):
            with open(os.path.join(ref_merged, name), "rb") as handle:
                expected = handle.read()
            with open(os.path.join(res_merged, name), "rb") as handle:
                assert handle.read() == expected, f"{name} drifted"

    def test_foreign_journal_is_refused(self, reference, monkeypatch):
        ref_dir, _path = reference
        other = _manifest(scale=ExperimentScale())  # different manifest hash
        with pytest.raises(ValueError, match="different run"):
            execute_shard(other, None, ref_dir, jobs=1, cache=_cache(),
                          resume=True)

    def test_journal_with_unowned_case_is_refused(self, reference, tmp_path):
        ref_dir, _path = reference
        out = str(tmp_path / "forged")
        os.makedirs(out)
        with open(journal_path(ref_dir, None), encoding="utf-8") as handle:
            header_line, first_record = handle.read().splitlines()[:2]
        record = json.loads(first_record)
        record["key"] = "0" * 64
        with open(journal_path(out, None), "w", encoding="utf-8") as handle:
            handle.write(header_line + "\n")
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="does not own"):
            execute_shard(_manifest(), None, out, jobs=1, cache=_cache(),
                          resume=True)

    def test_torn_tail_is_salvaged(self, reference, tmp_path):
        ref_dir, _path = reference
        source = journal_path(ref_dir, None)
        with open(source, "rb") as handle:
            intact = handle.read()
        torn = str(tmp_path / "journal-0-of-1.jsonl")
        with open(torn, "wb") as handle:
            handle.write(intact + b'{"key": "torn-mid-app')
        from repro.experiments.pipeline import _journal_header

        header = _journal_header(_manifest(), None)
        whole, valid_whole = load_journal(source, header)
        salvaged, valid = load_journal(torn, header)
        assert valid == valid_whole == len(intact)
        assert salvaged.keys() == whole.keys()

    def test_corrupt_record_salvages_the_prefix(self, reference, tmp_path):
        ref_dir, _path = reference
        from repro.experiments.pipeline import _journal_header

        header = _journal_header(_manifest(), None)
        with open(journal_path(ref_dir, None), encoding="utf-8") as handle:
            lines = handle.read().splitlines(keepends=True)
        corrupt = str(tmp_path / "journal-0-of-1.jsonl")
        with open(corrupt, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:3])
            handle.write("not json at all\n")
            handle.writelines(lines[3:])
        salvaged, valid = load_journal(corrupt, header)
        assert len(salvaged) == 2  # the two records before the bad line
        assert valid == sum(len(line) for line in lines[:3])

    def test_missing_and_torn_header_journals_start_fresh(self, tmp_path):
        from repro.experiments.pipeline import _journal_header

        header = _journal_header(_manifest(), None)
        assert load_journal(str(tmp_path / "absent.jsonl"), header) == ({}, 0)
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(b'{"kind": "shard-jou')  # killed mid-header
        assert load_journal(str(torn), header) == ({}, 0)

    def test_keep_going_writes_a_failure_manifest(self, tmp_path,
                                                  monkeypatch):
        manifest = _manifest()
        out = str(tmp_path / "keepgoing")
        monkeypatch.setenv("REPRO_FAULT_SPEC", "crash:case_idx=0;attempts=99")
        monkeypatch.setenv("REPRO_RETRIES", "0")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        path = execute_shard(manifest, None, out, jobs=1, cache=_cache(),
                             keep_going=True)
        fpath = failure_manifest_path(out, None)
        with open(fpath, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["failures"][0]["error"] == "InjectedCrash"
        # figure1 is case-based: it assembles at merge time, where the hole
        # fails the exactly-once check loudly — no caseless failures here.
        assert payload["failed_experiments"] == {}
        artifact = load_artifact(path)
        assert len(artifact["cases"]) == len(manifest.unique_cases()) - 1

        # A later clean run of the same shard clears the stale manifest —
        # the file's existence is the machine-readable failure signal.
        monkeypatch.delenv("REPRO_FAULT_SPEC")
        execute_shard(manifest, None, out, jobs=1, cache=_cache(),
                      resume=True, keep_going=True)
        assert not os.path.exists(fpath)

    def test_caseless_assembly_failure_is_recorded(self, tmp_path):
        def _boom(scale, executor):
            raise RuntimeError("kaput")

        registry = dict(REGISTRY)
        registry["boom"] = ExperimentDef("boom", plan=lambda scale: [],
                                         assemble=_boom)
        manifest = build_manifest(scale=TINY, experiments=registry)
        out = str(tmp_path / "caseless")
        with pytest.raises(RuntimeError, match="kaput"):
            execute_shard(manifest, None, out, jobs=1, cache=_cache())
        path = execute_shard(manifest, None, out, jobs=1, cache=_cache(),
                             keep_going=True)
        with open(failure_manifest_path(out, None),
                  encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["failed_experiments"] == {"boom": "RuntimeError: kaput"}
        assert payload["failures"] == []
        # The healthy cases (and figure1's artifact entry set) are intact.
        artifact = load_artifact(path)
        assert len(artifact["cases"]) == len(manifest.unique_cases())
        assert "boom" not in artifact["experiment_results"]


class TestTornWritesAndSweep:
    def test_torn_write_leaves_truncated_doc_and_orphan_tmp(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "torn_write:path~victim.json")
        victim = str(tmp_path / "victim.json")
        atomic_write_json(victim, {"payload": list(range(64))})
        with pytest.raises(ValueError):
            json.loads(open(victim, encoding="utf-8").read())
        orphans = [name for name in os.listdir(str(tmp_path))
                   if ".tmp." in name]
        assert orphans == [f"victim.json.tmp.{os.getpid()}"]
        # Unmatched paths still write atomically.
        clean = str(tmp_path / "clean.json")
        atomic_write_json(clean, {"ok": True})
        assert json.loads(open(clean, encoding="utf-8").read()) == {"ok": True}

    def test_sweep_removes_dead_writers_tmp_and_keeps_live(self, tmp_path):
        live = tmp_path / f"entry.json.tmp.{os.getpid()}"
        live.write_text("{}")
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        dead = tmp_path / f"other.json.tmp.{proc.pid}"
        dead.write_text("{}")
        not_a_tmp = tmp_path / "entry.json"
        not_a_tmp.write_text("{}")
        removed = sweep_tmp_files(str(tmp_path))
        assert removed == [str(dead)]
        assert live.exists() and not_a_tmp.exists() and not dead.exists()

    def test_torn_store_entry_is_quarantined_on_contact(
            self, tmp_path, monkeypatch):
        store_dir = str(tmp_path / "store")
        monkeypatch.setenv("REPRO_FAULT_SPEC",
                           "torn_write:path~" + store_dir)
        store = ResultStore(store_dir)
        writer = SweepExecutor(jobs=1, cache=RunResultCache(store=store),
                               retries=0, backoff=0)
        writer.run_spec(_spec())  # store entry written torn

        monkeypatch.delenv("REPRO_FAULT_SPEC")
        fresh = ResultStore(store_dir)
        key = _spec().cache_key()
        assert fresh.get(key) is None  # corrupt entry moved aside, not served
        assert len(fresh.quarantined()) == 1
        # Self-heal: a clean put replaces the entry and the store serves it.
        healed = SweepExecutor(jobs=1, cache=RunResultCache(store=fresh),
                               retries=0, backoff=0)
        result = healed.run_spec(_spec())
        restored = ResultStore(store_dir).get(key)
        assert restored is not None and restored.cycles == result.cycles
