"""The cores fetch execute kernels directly from the predictor structures.

Both batched loops resolve ``direction.exec_kernel`` and
``btb.exec_conditional_kernel`` with ``getattr`` and fall back to the bound
``execute`` / ``execute_conditional_fast`` methods for structures that
expose no kernel (generic predictors, duck-typed BTBs).  These tests pin
both arms: a system whose kernels are hidden from the core must produce
the identical result *and* raw (still encoded) storage as the kernel path,
for every isolation preset on both core models; a predictor without a
kernel must match the scalar reference loop; and the per-thread kernels
the SMT loop re-fetches after a switch must be dropped for the switching
thread only.
"""

import pytest

from repro.core.registry import make_bpu, preset_names
from repro.cpu.config import fpga_prototype, sunny_cove_smt
from repro.cpu.core import SingleThreadCore
from repro.cpu.smt import SmtCore
from repro.experiments.runner import build_bpu
from repro.experiments.scaling import ExperimentScale
from repro.workloads import SINGLE_THREAD_PAIRS, SMT2_PAIRS, make_pair_workloads

PRESETS = sorted(preset_names())
#: Every direction predictor that exposes an execute kernel.
KERNEL_PREDICTORS = ["tage", "gshare", "tournament", "ltage", "tage_sc_l"]

SCALE = ExperimentScale(
    time_scale=200.0, smt_time_scale=400.0, syscall_time_scale=25.0,
    st_target_branches=2_000, st_warmup_branches=500,
    smt_instructions=20_000, smt_warmup_instructions=5_000, seed=2021)


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


def _raw_state(bpu):
    return ([list(table.rows()) for table in bpu.direction.tables()],
            bpu.btb.raw_sets())


def _hide_kernels(bpu):
    """Make the cores take the bound-method fallback for both structures."""
    bpu.direction.exec_kernel = None
    bpu.btb.exec_conditional_kernel = None


def _single_thread(preset, predictor, *, engine="batched", hide=False):
    config = fpga_prototype(predictor)
    workloads = make_pair_workloads(SINGLE_THREAD_PAIRS[0], seed=SCALE.seed)
    bpu = build_bpu(config, preset, seed=SCALE.seed + 1)
    if hide:
        _hide_kernels(bpu)
    core = SingleThreadCore(config, bpu, workloads,
                            time_scale=SCALE.time_scale,
                            syscall_time_scale=SCALE.syscall_time_scale)
    result = core.run(target_branches=SCALE.st_target_branches,
                      warmup_branches=SCALE.st_warmup_branches,
                      mechanism_name=preset, engine=engine)
    return result, bpu


def _smt(preset, predictor, *, engine="batched", hide=False):
    config = sunny_cove_smt(predictor)
    workloads = make_pair_workloads(SMT2_PAIRS[0], seed=SCALE.seed)
    bpu = build_bpu(config, preset, seed=SCALE.seed + 1)
    if hide:
        _hide_kernels(bpu)
    # Full-system mode: per-thread syscalls rotate keys mid-run, so the
    # per-thread kernel re-fetch after a privilege switch is exercised.
    core = SmtCore(config, bpu, workloads, time_scale=SCALE.smt_time_scale,
                   se_mode=False)
    result = core.run(instructions=SCALE.smt_instructions,
                      warmup_instructions=SCALE.smt_warmup_instructions,
                      mechanism_name=preset, engine=engine)
    return result, bpu


class TestSingleThreadFallback:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("predictor", KERNEL_PREDICTORS)
    def test_bound_methods_match_kernels(self, predictor, preset):
        kernel, kernel_bpu = _single_thread(preset, predictor)
        bound, bound_bpu = _single_thread(preset, predictor, hide=True)
        assert kernel.privilege_switches > 0
        assert _snapshot(bound) == _snapshot(kernel)
        assert _raw_state(bound_bpu) == _raw_state(kernel_bpu)


class TestSmtFallback:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_bound_methods_match_kernels(self, preset):
        kernel, kernel_bpu = _smt(preset, "tage")
        bound, bound_bpu = _smt(preset, "tage", hide=True)
        assert kernel.privilege_switches > 0
        assert _snapshot(bound) == _snapshot(kernel)
        assert _raw_state(bound_bpu) == _raw_state(kernel_bpu)


class TestKernelFreePredictor:
    """bimodal has no kernel: the cores drive its bound ``execute``."""

    def test_bimodal_exposes_no_kernel(self):
        bpu = build_bpu(fpga_prototype("bimodal"), "xor_bp", seed=7)
        assert getattr(bpu.direction, "exec_kernel", None) is None

    def test_single_thread_matches_scalar(self):
        scalar, scalar_bpu = _single_thread("xor_bp", "bimodal",
                                            engine="scalar")
        batched, batched_bpu = _single_thread("xor_bp", "bimodal")
        assert _snapshot(batched) == _snapshot(scalar)
        assert _raw_state(batched_bpu) == _raw_state(scalar_bpu)

    def test_smt_matches_scalar(self):
        scalar, scalar_bpu = _smt("xor_bp", "bimodal", engine="scalar")
        batched, batched_bpu = _smt("xor_bp", "bimodal")
        assert _snapshot(batched) == _snapshot(scalar)
        assert _raw_state(batched_bpu) == _raw_state(scalar_bpu)


def _fetch(bpu, structure):
    if structure == "btb":
        return bpu.btb.exec_conditional_kernel
    if structure == "btb-indirect":
        return bpu.btb.exec_indirect_kernel
    return bpu.direction.exec_kernel


class TestPerThreadRefetch:
    """A switch drops the switching thread's kernel and no other."""

    @pytest.mark.parametrize("structure", ["tage", "gshare", "btb",
                                           "btb-indirect"])
    def test_context_switch_drops_only_that_threads_kernel(self, structure):
        predictor = "tage" if structure.startswith("btb") else structure
        bpu = make_bpu(predictor, "xor_bp", seed=7)
        fetch = _fetch(bpu, structure)
        first, second = fetch(0), fetch(1)
        assert fetch(0) is first  # cached per (structure, thread)
        assert first is not second
        bpu.notify_context_switch(0)
        assert fetch(0) is not first
        assert fetch(1) is second
