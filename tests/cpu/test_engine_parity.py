"""Batched-engine parity: the fast engine must be bit-identical to the
scalar reference loop.

The batched engine restructures the hot path (tuple trace batches, fused
predictor execute, inline timing arithmetic, due-checked OS events) but must
not change a single statistic: these tests run both engines on freshly built
systems with the same seeds and compare every field of the resulting
:class:`repro.cpu.stats.RunResult`, across the baseline, an encoding preset
and a flush preset, on both core models and for the default (TAGE /
TAGE-SC-L) and Gshare predictors.
"""

import pytest

from repro.core.registry import make_bpu
from repro.cpu.config import fpga_prototype, sunny_cove_smt
from repro.cpu.core import SingleThreadCore, record_batch_stream
from repro.cpu.smt import SmtCore
from repro.experiments.runner import build_bpu
from repro.experiments.scaling import ExperimentScale
from repro.predictors.tage import _MAX_GATHER_TABLES, TageConfig
from repro.types import BranchType
from repro.workloads import SINGLE_THREAD_PAIRS, SMT2_PAIRS, make_pair_workloads
from repro.workloads.generator import make_workload

#: Small but non-trivial budgets: enough branches for context switches,
#: syscalls, warm-up resets and (for flush presets) several flushes.
SCALE = ExperimentScale(
    time_scale=200.0, smt_time_scale=400.0, syscall_time_scale=25.0,
    st_target_branches=3_000, st_warmup_branches=800,
    smt_instructions=30_000, smt_warmup_instructions=8_000, seed=2021)

#: Baseline + one encoding-based + one flush-based preset (distinct engine
#: fast-path behaviour: passthrough, encode/decode dispatch, owner-agnostic
#: flushes), plus precise_flush to cover owner tracking and noisy_xor_bp to
#: cover index randomization (the only policy overriding map_index).
PRESETS = ["baseline", "xor_bp", "complete_flush", "precise_flush",
           "noisy_xor_bp"]

#: TAGE kernel arm each preset selects.
PRESET_ARMS = {"baseline": "passthrough", "noisy_xor_bp": "fused-xor",
               "precise_flush": "generic"}


def _snapshot(result):
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "context_switches": result.context_switches,
        "privilege_switches": result.privilege_switches,
        "threads": {
            name: (t.cycles, t.instructions, t.branches,
                   t.conditional_branches, t.direction_mispredicts,
                   t.target_mispredicts, t.btb_lookups, t.btb_hits,
                   t.syscalls, t.context_switches)
            for name, t in result.threads.items()},
    }


def _single_thread(preset, engine, predictor=None):
    config = fpga_prototype() if predictor is None else fpga_prototype(predictor)
    workloads = make_pair_workloads(SINGLE_THREAD_PAIRS[0], seed=SCALE.seed)
    bpu = build_bpu(config, preset, seed=SCALE.seed + 1)
    core = SingleThreadCore(config, bpu, workloads,
                            time_scale=SCALE.time_scale,
                            syscall_time_scale=SCALE.syscall_time_scale)
    return core.run(target_branches=SCALE.st_target_branches,
                    warmup_branches=SCALE.st_warmup_branches,
                    mechanism_name=preset, engine=engine)


def _smt(preset, engine, predictor=None, se_mode=True):
    config = (sunny_cove_smt() if predictor is None
              else sunny_cove_smt(predictor))
    workloads = make_pair_workloads(SMT2_PAIRS[0], seed=SCALE.seed)
    bpu = build_bpu(config, preset, seed=SCALE.seed + 1)
    core = SmtCore(config, bpu, workloads, time_scale=SCALE.smt_time_scale,
                   se_mode=se_mode)
    return core.run(instructions=SCALE.smt_instructions,
                    warmup_instructions=SCALE.smt_warmup_instructions,
                    mechanism_name=preset, engine=engine)


class TestSingleThreadParity:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_batched_matches_scalar(self, preset):
        scalar = _single_thread(preset, "scalar")
        batched = _single_thread(preset, "batched")
        assert _snapshot(batched) == _snapshot(scalar)

    # gshare has its own fused execute; tournament and bimodal take the
    # generic DirectionPredictor.execute fallback path.
    @pytest.mark.parametrize("predictor", ["gshare", "tournament", "bimodal"])
    def test_other_predictor_parity(self, predictor):
        scalar = _single_thread("baseline", "scalar", predictor=predictor)
        batched = _single_thread("baseline", "batched", predictor=predictor)
        assert _snapshot(batched) == _snapshot(scalar)

    @pytest.mark.parametrize("preset", ["baseline", "noisy_xor_bp",
                                        "precise_flush"])
    def test_tage_useful_reset_parity(self, preset):
        # A reset period far below the branch budget forces graceful
        # useful-counter resets inside both the warm-up and measured phases
        # on each kernel arm (the default 1<<18 period never fires at these
        # test budgets).  At these budgets no reset lands on a provider with
        # a useful counter set, so the provider re-read itself is pinned by
        # test_useful_reset_reread_equals_scalar_protocol (predictor level).
        def run(engine):
            config = fpga_prototype(
                "tage", config=TageConfig(useful_reset_period=512))
            workloads = make_pair_workloads(SINGLE_THREAD_PAIRS[0],
                                            seed=SCALE.seed)
            bpu = build_bpu(config, preset, seed=SCALE.seed + 1)
            core = SingleThreadCore(config, bpu, workloads,
                                    time_scale=SCALE.time_scale,
                                    syscall_time_scale=SCALE.syscall_time_scale)
            return core.run(target_branches=SCALE.st_target_branches,
                            warmup_branches=SCALE.st_warmup_branches,
                            mechanism_name=preset, engine=engine)

        assert _snapshot(run("batched")) == _snapshot(run("scalar"))

    @pytest.mark.parametrize("preset", ["baseline", "noisy_xor_bp",
                                        "precise_flush"])
    def test_tage_beyond_the_gather_map_parity(self, preset):
        # More tagged tables than the oldest-bit gather map covers: the
        # kernels gather the leaving history bits per table instead.
        def run(engine):
            tage = TageConfig(n_tables=_MAX_GATHER_TABLES + 1,
                              table_entries=256, base_entries=1024)
            config = fpga_prototype("tage", config=tage)
            workloads = make_pair_workloads(SINGLE_THREAD_PAIRS[0],
                                            seed=SCALE.seed)
            bpu = build_bpu(config, preset, seed=SCALE.seed + 1)
            assert bpu.direction._old_gather is None
            assert bpu.direction.exec_kernel(0).arm == PRESET_ARMS[preset]
            core = SingleThreadCore(config, bpu, workloads,
                                    time_scale=SCALE.time_scale,
                                    syscall_time_scale=SCALE.syscall_time_scale)
            result = core.run(target_branches=SCALE.st_target_branches,
                              warmup_branches=SCALE.st_warmup_branches,
                              mechanism_name=preset, engine=engine)
            return (_snapshot(result),
                    [list(t.rows()) for t in bpu.direction.tables()])

        assert run("batched") == run("scalar")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            _single_thread("baseline", "vectorised")


class TestSmtParity:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_batched_matches_scalar(self, preset):
        scalar = _smt(preset, "scalar")
        batched = _smt(preset, "batched")
        assert _snapshot(batched) == _snapshot(scalar)

    def test_tage_sc_l_useful_reset_parity_under_precise_flush(self):
        # The component arm's reset_fired provider re-read, on the generic
        # arm with owner tracking and two threads sharing the tables.
        def run(engine):
            tage = TageConfig(n_tables=8, table_entries=4096, min_history=8,
                              max_history=256, useful_reset_period=512)
            config = sunny_cove_smt("tage_sc_l", tage_config=tage)
            workloads = make_pair_workloads(SMT2_PAIRS[0], seed=SCALE.seed)
            bpu = build_bpu(config, "precise_flush", seed=SCALE.seed + 1)
            assert bpu.direction.tage.component_kernel(0).arm == "generic"
            core = SmtCore(config, bpu, workloads,
                           time_scale=SCALE.smt_time_scale)
            result = core.run(instructions=SCALE.smt_instructions,
                              warmup_instructions=SCALE.smt_warmup_instructions,
                              mechanism_name="precise_flush", engine=engine)
            return (_snapshot(result),
                    [list(t.rows()) for t in bpu.direction.tables()])

        assert run("batched") == run("scalar")

    def test_full_system_mode_parity(self):
        # se_mode=False exercises the per-thread syscall path.
        scalar = _smt("xor_bp", "scalar", se_mode=False)
        batched = _smt("xor_bp", "batched", se_mode=False)
        assert _snapshot(batched) == _snapshot(scalar)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            _smt("baseline", "vectorised")

    def test_key_registers_drawn_in_thread_order(self):
        # xor_btb keys only the BTB, whose first write may come from the
        # second thread.  Key registers drawn on first touch would then be
        # assigned in another order than the batched engine's up-front
        # kernel fetch: identical statistics, entries under swapped keys.
        def run(engine):
            config = sunny_cove_smt("gshare")
            workloads = make_pair_workloads(SMT2_PAIRS[0], seed=12)
            bpu = build_bpu(config, "xor_btb", seed=13)
            core = SmtCore(config, bpu, workloads, time_scale=200.0)
            core.run(instructions=15_000, warmup_instructions=4_000,
                     mechanism_name="xor_btb", engine=engine)
            keys = bpu.isolation.key_manager
            return ([keys.master_key(t) for t in range(2)],
                    bpu.btb.raw_sets())

        assert run("batched") == run("scalar")


class TestBpuFastPathParity:
    def test_execute_branch_fast_matches_execute_branch(self):
        # The engines inline the conditional arm of execute_branch_fast, so
        # this drives the method itself over every branch type against the
        # BranchOutcome reference path to pin it from drifting.
        config = fpga_prototype()
        records = make_workload("gcc", seed=9).segment(2_000)
        ref_bpu = build_bpu(config, "baseline", seed=11)
        fast_bpu = build_bpu(config, "baseline", seed=11)
        for record in records:
            ref = ref_bpu.execute_branch(record.pc, record.taken,
                                         record.target, record.branch_type, 0)
            fast = fast_bpu.execute_branch_fast(record.pc, record.taken,
                                                record.target,
                                                record.branch_type, 0)
            assert fast == (ref.direction_mispredicted,
                            ref.target_mispredicted,
                            ref.btb_accessed, ref.btb_hit)
        assert (fast_bpu.direction.stats(0).mispredictions
                == ref_bpu.direction.stats(0).mispredictions)
        assert fast_bpu.btb.hits == ref_bpu.btb.hits


    @pytest.mark.parametrize("preset", ["baseline", "noisy_xor_bp",
                                        "precise_flush"])
    @pytest.mark.parametrize("ways", [1, 8])
    def test_btb_geometry_parity(self, ways, preset):
        # The presets' BTBs are 2- and 4-way; the probe generator unrolls
        # the way walk and special-cases one way.  Few sets force evictions.
        kinds = (BranchType.CALL, BranchType.DIRECT, BranchType.INDIRECT)
        records = []
        for i, record in enumerate(make_workload("gcc", seed=9).segment(3_000)):
            kind = record.branch_type
            if kind in kinds:
                # The generator emits no DIRECT branches: rotate the types.
                kind = kinds[i % 3]
            records.append((record.pc, record.taken, record.target, kind))
        assert {r[3] for r in records} >= {BranchType.CONDITIONAL, *kinds}
        ref_bpu = make_bpu("gshare", preset, seed=11, btb_sets=16,
                           btb_ways=ways)
        fast_bpu = make_bpu("gshare", preset, seed=11, btb_sets=16,
                            btb_ways=ways)
        arm = PRESET_ARMS[preset]
        assert fast_bpu.btb.exec_conditional_kernel(0).arm == arm
        assert fast_bpu.btb.exec_indirect_kernel(0).arm == arm
        for i, (pc, taken, target, kind) in enumerate(records):
            thread = (i // 200) % 2
            ref = ref_bpu.execute_branch(pc, taken, target, kind, thread)
            fast = fast_bpu.execute_branch_fast(pc, taken, target, kind,
                                                thread)
            assert fast == (ref.direction_mispredicted,
                            ref.target_mispredicted,
                            ref.btb_accessed, ref.btb_hit), f"branch {i}"
            if i % 97 == 0:
                ref_bpu.notify_context_switch(thread)
                fast_bpu.notify_context_switch(thread)
        assert fast_bpu.btb.snapshot() == ref_bpu.btb.snapshot()
        assert (fast_bpu.btb.lookups, fast_bpu.btb.hits) \
            == (ref_bpu.btb.lookups, ref_bpu.btb.hits)

    @pytest.mark.parametrize("preset", ["baseline", "noisy_xor_bp"])
    def test_force_generic_dispatch_flips_both_btb_kernels(self, preset):
        bpu = make_bpu("gshare", preset, seed=11)
        fetches = (bpu.btb.exec_conditional_kernel,
                   bpu.btb.exec_indirect_kernel)
        assert [fetch(0).arm for fetch in fetches] == [PRESET_ARMS[preset]] * 2
        bpu.force_generic_dispatch()
        assert [fetch(0).arm for fetch in fetches] == ["generic"] * 2


class TestTraceApiParity:
    def test_record_batches_match_records(self):
        workload = make_workload("gcc", seed=5)
        records = workload.segment(3_000, seed_offset=2)
        flat = []
        for batch in workload.record_batches(257, seed_offset=2):
            flat.extend(batch)
            if len(flat) >= 3_000:
                break
        for record, row in zip(records, flat):
            assert row == (record.pc, record.taken, record.target,
                           record.branch_type, record.instructions,
                           record.syscall_after)

    def test_batch_sizes_respect_minimum(self):
        workload = make_workload("milc", seed=1)
        stream = workload.record_batches(100)
        for _ in range(5):
            assert len(next(stream)) >= 100

    def test_fallback_wrapper_for_records_only_workloads(self):
        class RecordsOnly:
            def __init__(self, inner):
                self._inner = inner

            def records(self, seed_offset=0):
                return self._inner.records(seed_offset=seed_offset)

        workload = make_workload("gobmk", seed=3)
        native = record_batch_stream(workload, 128, seed_offset=1)
        wrapped = record_batch_stream(RecordsOnly(workload), 128, seed_offset=1)
        native_flat = []
        wrapped_flat = []
        while len(native_flat) < 1_000:
            native_flat.extend(next(native))
        while len(wrapped_flat) < 1_000:
            wrapped_flat.extend(next(wrapped))
        assert native_flat[:1_000] == wrapped_flat[:1_000]
