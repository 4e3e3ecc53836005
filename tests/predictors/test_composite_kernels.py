"""Execute kernels of the tournament, LTAGE and TAGE-SC-L predictors.

Figure 10's SMT study runs these three predictors; their batched-engine
kernels follow the TAGE/gshare contract: a ``passthrough``, a ``fused-xor``
and a ``generic`` arm chosen from the tables' storage flags, and a kernel
dropped on key rotation, ``flush``/``flush_thread``, ``reset_stats`` and
``invalidate_kernel_masks``.  These tests pin the arm chosen per preset,
the invalidation events, the composable TAGE arm the composites are built
on, and the kernels' equivalence with the scalar ``lookup``/``update``
protocol, including under the ablation encoders.
"""

import random

import pytest

from repro.core.registry import make_bpu
from repro.predictors import make_direction_predictor
from repro.predictors.tage import TagePredictor
from repro.types import Privilege
from repro.workloads.generator import make_workload

KERNEL_PREDICTORS = ["tournament", "ltage", "tage_sc_l"]

#: Kernel arm every preset must select (the PHT side of the preset decides).
PRESET_ARMS = {
    "noisy_xor_bp": "fused-xor",
    "xor_bp": "fused-xor",
    "baseline": "passthrough",
    "complete_flush": "passthrough",
    "precise_flush": "generic",
}


class TestKernelArms:
    @pytest.mark.parametrize("preset", sorted(PRESET_ARMS))
    @pytest.mark.parametrize("predictor", KERNEL_PREDICTORS)
    def test_arm_matches_preset(self, predictor, preset):
        bpu = make_bpu(predictor, preset, seed=11)
        assert bpu.direction.exec_kernel(0).arm == PRESET_ARMS[preset]
        # Re-randomisation rebuilds the same arm, never a generic fallback.
        bpu.notify_context_switch(0)
        assert bpu.direction.exec_kernel(0).arm == PRESET_ARMS[preset]

    @pytest.mark.parametrize("preset", ["noisy_xor_bp", "baseline"])
    @pytest.mark.parametrize("predictor", KERNEL_PREDICTORS)
    def test_force_generic_dispatch_flips_to_generic(self, predictor, preset):
        bpu = make_bpu(predictor, preset, seed=11)
        assert bpu.direction.exec_kernel(1).arm == PRESET_ARMS[preset]
        bpu.force_generic_dispatch()
        assert bpu.direction.exec_kernel(0).arm == "generic"
        assert bpu.direction.exec_kernel(1).arm == "generic"

    @pytest.mark.parametrize("predictor", ["ltage", "tage_sc_l"])
    def test_force_generic_reaches_the_inner_tage(self, predictor):
        bpu = make_bpu(predictor, "noisy_xor_bp", seed=11)
        tage = bpu.direction.tage
        assert tage.component_kernel(0).arm == "fused-xor"
        bpu.force_generic_dispatch()
        assert tage.component_kernel(0).arm == "generic"
        assert tage.exec_kernel(0).arm == "generic"

    @pytest.mark.parametrize("predictor", KERNEL_PREDICTORS)
    def test_non_xor_encoder_takes_generic_arm(self, predictor):
        bpu = make_bpu(predictor, "xor_bp", seed=11,
                       config_overrides={"encoder": "sbox"})
        assert bpu.direction.exec_kernel(0).arm == "generic"


class TestKernelInvalidation:
    @pytest.mark.parametrize("predictor", KERNEL_PREDICTORS)
    def test_key_rotation_drops_the_kernel(self, predictor):
        bpu = make_bpu(predictor, "noisy_xor_bp", seed=11)
        kernel = bpu.direction.exec_kernel(0)
        other = bpu.direction.exec_kernel(1)
        bpu.notify_privilege_switch(0, Privilege.KERNEL)
        assert bpu.direction.exec_kernel(0) is not kernel
        assert bpu.direction.exec_kernel(1) is other

    @pytest.mark.parametrize("predictor", KERNEL_PREDICTORS)
    def test_flush_reset_and_invalidate_drop_the_kernel(self, predictor):
        direction = make_bpu(predictor, "baseline", seed=11).direction
        for event in (direction.flush, lambda: direction.flush_thread(0),
                      direction.reset_stats,
                      direction.invalidate_kernel_masks):
            kernel = direction.exec_kernel(0)
            assert direction.exec_kernel(0) is kernel
            event()
            assert direction.exec_kernel(0) is not kernel

    @pytest.mark.parametrize("predictor", KERNEL_PREDICTORS)
    def test_kernel_counts_into_fresh_stats_after_reset(self, predictor):
        direction = make_bpu(predictor, "baseline", seed=11).direction
        direction.exec_kernel(0)(0x400, True)
        direction.reset_stats()
        direction.exec_kernel(0)(0x400, True)
        assert direction.stats(0).lookups == 1


class TestComponentArm:
    """TAGE's composable arm: same state evolution, no stats, confidence."""

    @pytest.mark.parametrize("encoded,diversified",
                             [(False, False), (True, False), (True, True)])
    def test_component_source_derives_from_the_plain_kernel(
            self, encoded, diversified):
        tage = TagePredictor()
        plain = tage._kernel_source(encoded, diversified).splitlines()
        component = tage._kernel_source(encoded, diversified,
                                        component=True).splitlines()
        # Identical but for the dropped statistics and the return value.
        stats = ["    pstats.lookups += 1", "    if mispredicted:",
                 "        pstats.mispredictions += 1"]
        assert all(plain.count(line) == 1 for line in stats)
        assert [line for line in plain[:-1] if line not in stats] \
            == component[:-1]
        assert plain[-1].strip() == "return predicted"
        assert component[-1].strip().startswith("return predicted, ")

    @pytest.mark.parametrize("preset", ["baseline", "noisy_xor_bp",
                                        "precise_flush"])
    def test_component_kernel_matches_the_scalar_protocol(self, preset):
        fast = make_bpu("tage_sc_l", preset, seed=5).direction
        slow = make_bpu("tage_sc_l", preset, seed=5).direction
        step = fast.tage.component_kernel(0)
        records = make_workload("gcc", seed=3).segment(3_000)
        for record in records:
            if record.branch_type.name != "CONDITIONAL":
                continue
            prediction = slow.tage.lookup(record.pc, 0)
            want = (prediction.taken, slow._tage_confident(prediction))
            slow.tage.update(record.pc, record.taken, prediction, 0)
            assert step(record.pc, record.taken) == want
        assert [list(t.rows()) for t in fast.tage.tables()] \
            == [list(t.rows()) for t in slow.tage.tables()]
        # The composable arm records nothing on the inner TAGE.
        assert fast.tage.total_stats().lookups == 0


def _branch_stream(n, seed):
    """Random branches interleaved with fixed-trip loop exits.

    The loop branches train confident loop-predictor entries (so the loop
    override is exercised); PCs span bit 20, which selects the statistical
    corrector's backward-history push.
    """
    rng = random.Random(seed)
    loops = [(rng.randrange(1 << 20) << 2, rng.randrange(2, 9))
             for _ in range(6)]
    counters = [0] * len(loops)
    for i in range(n):
        if i % 3:
            k = rng.randrange(len(loops))
            pc, trip = loops[k]
            counters[k] = (counters[k] + 1) % (trip + 1)
            yield pc, counters[k] != 0
        else:
            yield rng.randrange(1 << 20) << 2, rng.random() < 0.6


class TestScalarEquivalence:
    """Kernels equal the scalar ``lookup``/``update`` protocol."""

    @pytest.mark.parametrize("overrides", [None, {"encoder": "sbox"},
                                           {"encoder": "shift_xor"}])
    @pytest.mark.parametrize("preset", ["baseline", "noisy_xor_bp",
                                        "precise_flush"])
    @pytest.mark.parametrize("predictor", KERNEL_PREDICTORS)
    def test_kernel_equals_scalar_protocol(self, predictor, preset,
                                           overrides):
        fast = make_bpu(predictor, preset, seed=7,
                        config_overrides=overrides).direction
        slow = make_bpu(predictor, preset, seed=7,
                        config_overrides=overrides).direction
        for i, (pc, taken) in enumerate(_branch_stream(3_000, seed=17)):
            thread = i % 2
            predicted = fast.execute(pc, taken, thread)
            prediction = slow.lookup(pc, thread)
            slow.stats(thread).record(prediction.taken == taken)
            slow.update(pc, taken, prediction, thread)
            assert predicted == prediction.taken, f"diverged at branch {i}"
        assert [list(t.rows()) for t in fast.tables()] \
            == [list(t.rows()) for t in slow.tables()]
        assert fast.total_stats() == slow.total_stats()


def test_tournament_with_distinct_choice_geometry_matches_scalar():
    # A choice table sized apart from the global table cannot share its
    # index; the kernel then runs the reference protocol.
    fast = make_direction_predictor("tournament", choice_entries=4096)
    slow = make_direction_predictor("tournament", choice_entries=4096)
    assert fast.exec_kernel(0).arm == "generic"
    for i, (pc, taken) in enumerate(_branch_stream(2_000, seed=5)):
        prediction = slow.lookup(pc, i % 2)
        slow.stats(i % 2).record(prediction.taken == taken)
        slow.update(pc, taken, prediction, i % 2)
        assert fast.execute(pc, taken, i % 2) == prediction.taken
    assert [list(t.rows()) for t in fast.tables()] \
        == [list(t.rows()) for t in slow.tables()]
    assert fast.total_stats() == slow.total_stats()


def test_unregistered_predictor_construction_still_works():
    # Composites built outside the registry (no isolation) get kernels too.
    for name in KERNEL_PREDICTORS:
        predictor = make_direction_predictor(name)
        assert predictor.exec_kernel(0).arm == "passthrough"
