"""Tests for the parallel caching sweep executor."""

import dataclasses
import pathlib

import pytest

from repro.cpu.config import fpga_prototype, sunny_cove_smt
from repro.experiments.executor import (
    CaseSpec,
    ExecutionError,
    RunResultCache,
    SweepExecutor,
    env_jobs,
)
from repro.experiments.store import ResultStore
from repro.experiments.runner import (
    overhead_figure_single_thread,
    sweep_single_thread,
    sweep_smt,
)
from repro.experiments.scaling import ExperimentScale
from repro.workloads import SINGLE_THREAD_PAIRS, SMT2_PAIRS

#: Deliberately tiny budgets: these tests exercise plumbing, not physics.
TINY = ExperimentScale(
    time_scale=800.0, smt_time_scale=800.0, syscall_time_scale=100.0,
    st_target_branches=1_200, st_warmup_branches=300,
    smt_instructions=10_000, smt_warmup_instructions=2_000, seed=7)

CONFIG = fpga_prototype("gshare", n_entries=2048)
SMT_CONFIG = sunny_cove_smt("gshare", n_entries=2048)


def _spec(preset="baseline", **overrides):
    defaults = dict(kind="single", pair=SINGLE_THREAD_PAIRS[0], config=CONFIG,
                    preset=preset, scale=TINY)
    defaults.update(overrides)
    return CaseSpec(**defaults)


class TestCacheKey:
    def test_identical_specs_share_a_key(self):
        assert _spec().cache_key() == _spec().cache_key()

    def test_preset_changes_the_key(self):
        assert _spec().cache_key() != _spec(preset="complete_flush").cache_key()

    def test_scale_changes_the_key(self):
        other = dataclasses.replace(TINY, st_target_branches=2_000)
        assert _spec().cache_key() != _spec(scale=other).cache_key()

    def test_switch_interval_changes_the_key(self):
        assert _spec().cache_key() != _spec(switch_interval=4_000_000).cache_key()

    def test_label_is_not_part_of_the_key(self):
        assert _spec(label="a").cache_key() == _spec(label="b").cache_key()

    def test_engine_version_changes_the_key(self, monkeypatch):
        # An engine-version bump must invalidate every cached entry: stale
        # results from an older kernel generation may differ bit-for-bit.
        before = _spec().cache_key()
        monkeypatch.setattr("repro.experiments.executor.ENGINE_VERSION",
                            "0000.0-test-bump")
        assert _spec().cache_key() != before

    def test_engine_version_bump_misses_the_store(self, tmp_path,
                                                  monkeypatch):
        # Populate a store under the current engine version, then bump the
        # version: the same spec must re-simulate (stored entry unused).
        store = ResultStore(str(tmp_path))
        executor = SweepExecutor(jobs=1, cache=RunResultCache(store=store))
        executor.run_spec(_spec())
        assert executor.simulated == 1

        monkeypatch.setattr("repro.experiments.executor.ENGINE_VERSION",
                            "0000.0-test-bump")
        fresh = SweepExecutor(jobs=1, cache=RunResultCache(store=store))
        fresh.run_spec(_spec())
        assert fresh.simulated == 1  # entry from the old engine ignored

        # Under the old version the entry would still have been a hit.
        monkeypatch.undo()
        rerun = SweepExecutor(jobs=1, cache=RunResultCache(store=store))
        rerun.run_spec(_spec())
        assert rerun.simulated == 0


class TestRunResultCache:
    def test_memory_roundtrip(self):
        cache = RunResultCache()
        executor = SweepExecutor(jobs=1, cache=cache)
        result = executor.run_spec(_spec())
        assert cache.get(_spec().cache_key()).cycles == result.cycles

    def test_exported_cache_dir_is_never_written(self, tmp_path,
                                                 monkeypatch):
        # The on-disk cache level is gone: a REPRO_CACHE_DIR left in a
        # user's environment must neither receive files nor serve results.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = RunResultCache()
        result = SweepExecutor(jobs=1, cache=cache).run_spec(_spec())
        cache.put("0" * 64, result)
        assert list(tmp_path.iterdir()) == []
        assert RunResultCache().get("0" * 64) is None

    def test_directory_other_than_none_or_false_is_a_type_error(self):
        with pytest.raises(TypeError, match="ResultStore"):
            RunResultCache(directory="x")

    def test_directory_false_call_shape_still_works(self, tmp_path):
        # The end-to-end benchmark's frozen call shape.
        store = ResultStore(str(tmp_path))
        cache = RunResultCache(directory=False, store=store)
        assert cache.store is store
        result = SweepExecutor(jobs=1, cache=cache).run_spec(_spec())
        assert store.get(_spec().cache_key()).cycles == result.cycles

    @pytest.mark.parametrize("directory", [True, 0, "", pathlib.Path("c")])
    def test_only_none_and_false_are_accepted_directories(self, directory):
        # An identity check, not truthiness: 0 == False and "" is falsy,
        # yet neither may silently stand in for "no disk level".
        with pytest.raises(TypeError, match="no disk level"):
            RunResultCache(directory=directory)

    @pytest.mark.parametrize("directory", [None, False])
    def test_directory_does_not_affect_the_env_store(self, directory,
                                                     tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        cache = RunResultCache(directory=directory)
        assert cache.store is not None
        assert cache.store.directory == str(tmp_path)

    def test_miss_is_counted_and_memory_hits_skip_the_store(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cache = RunResultCache(store=store)
        key = _spec().cache_key()
        assert cache.get(key) is None
        assert (cache.hits, cache.misses, cache.store_hits) == (0, 1, 0)
        SweepExecutor(jobs=1, cache=cache).run_spec(_spec())
        assert cache.get(key) is not None
        # Served from memory: the store level was never consulted.
        assert (cache.hits, cache.store_hits) == (1, 0)
        assert len(cache) == 1

    def test_store_false_publishes_nothing_to_the_env_store(self, tmp_path,
                                                            monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        cache = RunResultCache(store=False)
        SweepExecutor(jobs=1, cache=cache).run_spec(_spec())
        assert len(cache) == 1
        assert ResultStore(str(tmp_path)).get(_spec().cache_key()) is None

    def test_explicit_store_wins_over_the_env_store(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "env"))
        explicit = ResultStore(str(tmp_path / "explicit"))
        cache = RunResultCache(store=explicit)
        assert cache.store is explicit
        SweepExecutor(jobs=1, cache=cache).run_spec(_spec())
        key = _spec().cache_key()
        assert explicit.get(key) is not None
        assert ResultStore(str(tmp_path / "env")).get(key) is None

    def test_put_survives_an_unwritable_store(self):
        # A read-only shared store must not abort a finished simulation.
        class ReadOnlyStore:
            def get(self, key):
                return None

            def put(self, key, result):
                raise PermissionError("read-only store")

        cache = RunResultCache(store=ReadOnlyStore())
        result = SweepExecutor(jobs=1, cache=cache).run_spec(_spec())
        assert cache.get(_spec().cache_key()) is result

    def test_put_propagates_a_digest_conflict(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cache = RunResultCache(store=store)
        result = SweepExecutor(jobs=1, cache=cache).run_spec(_spec())
        divergent = dataclasses.replace(result, cycles=result.cycles + 1)
        with pytest.raises(ValueError, match="different result digest"):
            RunResultCache(store=store).put(_spec().cache_key(), divergent)


class TestSweepExecutor:
    def test_duplicate_specs_simulate_once(self):
        executor = SweepExecutor(jobs=1, cache=RunResultCache())
        results = executor.run_specs([_spec(), _spec(), _spec()])
        assert executor.simulated == 1
        assert results[0] is results[1] is results[2]

    def test_results_keep_submission_order(self):
        executor = SweepExecutor(jobs=1, cache=RunResultCache())
        specs = [_spec(preset="baseline"), _spec(preset="complete_flush"),
                 _spec(preset="baseline")]
        results = executor.run_specs(specs)
        assert results[0].mechanism == "baseline"
        assert results[1].mechanism == "complete_flush"
        assert results[2] is results[0]

    def test_parallel_results_match_serial(self):
        serial = SweepExecutor(jobs=1, cache=RunResultCache())
        parallel = SweepExecutor(jobs=2, cache=RunResultCache())
        specs = [_spec(preset="baseline"), _spec(preset="complete_flush")]
        expected = serial.run_specs(specs)
        observed = parallel.run_specs([_spec(preset="baseline"),
                                       _spec(preset="complete_flush")])
        assert [r.cycles for r in observed] == [r.cycles for r in expected]
        assert [r.mechanism for r in observed] == [r.mechanism for r in expected]

    def test_env_jobs_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert env_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert env_jobs() == 4

    @pytest.mark.parametrize("bad", ["banana", "0", "-2", "1.5", ""])
    def test_env_jobs_rejects_malformed_values(self, bad, monkeypatch):
        # A typo'd REPRO_JOBS used to silently run serially (or crash deep in
        # the pool setup); now it fails at parse time, naming the variable.
        monkeypatch.setenv("REPRO_JOBS", bad)
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            env_jobs()

    def test_replay_only_executor_rejects_uncached_cases(self):
        cache = RunResultCache()
        warm = SweepExecutor(jobs=1, cache=cache)
        warm.run_spec(_spec())
        replay = SweepExecutor(jobs=1, cache=cache, allow_simulation=False)
        # The cached case replays fine; an uncached one must fail loudly.
        assert replay.run_spec(_spec()).mechanism == "baseline"
        assert replay.simulated == 0
        with pytest.raises(RuntimeError, match="replay-only"):
            replay.run_spec(_spec(preset="complete_flush"))

    def test_unknown_kind_rejected(self):
        executor = SweepExecutor(jobs=1, cache=RunResultCache())
        # A deterministic misconfiguration is not retried (no backoff burn)
        # and surfaces as a structured ExecutionError after one attempt.
        with pytest.raises(ExecutionError, match="unknown case kind"):
            executor.run_spec(_spec(kind="gpu"))
        assert len(executor.failures) == 1
        assert executor.failures[0].attempts == 1
        assert executor.failures[0].error == "ValueError"


class TestSweepIntegration:
    def test_single_thread_sweep_runs_baseline_once_per_pair(self):
        executor = SweepExecutor(jobs=1, cache=RunResultCache())
        pairs = SINGLE_THREAD_PAIRS[:2]
        results = sweep_single_thread(pairs, CONFIG,
                                      ["baseline", "complete_flush"],
                                      TINY, executor=executor)
        # 2 pairs x (baseline + complete_flush) = 4 simulations, no dupes.
        assert executor.simulated == 4
        assert set(results) == {(p.case, preset) for p in pairs
                                for preset in ("baseline", "complete_flush")}

    def test_smt_sweep_dedupes_baseline(self):
        executor = SweepExecutor(jobs=1, cache=RunResultCache())
        pair = SMT2_PAIRS[0]
        sweep_smt([pair], SMT_CONFIG, ["baseline", "complete_flush"], TINY,
                  executor=executor)
        simulated_after_first = executor.simulated
        assert simulated_after_first == 2
        # A second sweep naming baseline again must not re-simulate it.
        sweep_smt([pair], SMT_CONFIG, ["baseline"], TINY, executor=executor)
        assert executor.simulated == simulated_after_first

    def test_figure_driver_shares_baselines_with_sweeps(self):
        executor = SweepExecutor(jobs=1, cache=RunResultCache())
        pairs = SINGLE_THREAD_PAIRS[:2]
        sweep_single_thread(pairs, CONFIG, ["baseline"], TINY,
                            executor=executor)
        baseline_runs = executor.simulated
        figure, baselines = overhead_figure_single_thread(
            "fig", "test figure", [("CF", "complete_flush", None)], list(pairs),
            config=CONFIG, scale=TINY, executor=executor)
        # Only the complete_flush series is new; baselines come from cache.
        assert executor.simulated == baseline_runs + len(pairs)
        assert set(baselines) == {p.case for p in pairs}
        assert "CF" in figure.series

    def test_parallel_sweep_matches_serial(self):
        pairs = SINGLE_THREAD_PAIRS[:2]
        serial = sweep_single_thread(
            pairs, CONFIG, ["baseline"], TINY,
            executor=SweepExecutor(jobs=1, cache=RunResultCache()))
        parallel = sweep_single_thread(
            pairs, CONFIG, ["baseline"], TINY,
            executor=SweepExecutor(jobs=2, cache=RunResultCache()))
        assert {k: v.cycles for k, v in serial.items()} \
            == {k: v.cycles for k, v in parallel.items()}
