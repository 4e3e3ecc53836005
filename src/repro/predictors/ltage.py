"""LTAGE: TAGE augmented with a loop predictor.

LTAGE (Seznec, CBP-2) is one of the four predictors evaluated in the paper's
SMT study (Table 2 lists a 32 KB LTAGE).  The loop predictor overrides TAGE
whenever it has a confident entry for the branch.

Hot path
--------

Both TAGE composites (this module and :mod:`repro.predictors.tage_sc_l`)
serve the batched engines through per-thread execute kernels built from
their components' fused steps: TAGE's *component* kernel (the generated
TAGE kernel without statistics, see
:meth:`repro.predictors.tage.TagePredictor.component_kernel`), the loop
predictor's probe + training step and, for TAGE-SC-L, the statistical
corrector's vote + training step.  The scalar protocol runs every lookup
before every update; the kernel instead runs each component's lookup and
update back to back, TAGE first.  That order is bit-identical because TAGE
trains on its *own* prediction (never on the loop- or SC-overridden one)
and the components' tables and histories are disjoint — the only state one
component reads from another is TAGE's global history, which the
TAGE-SC-L kernel samples before TAGE's step pushes the outcome.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .base import DirectionPrediction, DirectionPredictor
from .loop import LoopPredictor
from .table import PredictorTable, TableIsolation, supports_fused_xor
from .tage import TageConfig, TagePredictor

__all__ = ["LTagePredictor"]


class TageComposite(DirectionPredictor):
    """Kernel plumbing shared by the TAGE-based composite predictors.

    Subclasses build ``self._tage`` and ``self._loop`` (plus any further
    component), call :meth:`_init_kernels`, and implement
    :meth:`_components` and :meth:`_compose`.  The kernel contract matches
    :meth:`TagePredictor.exec_kernel`: three arms (``passthrough``,
    ``fused-xor``, ``generic``) and invalidation on key rotation,
    ``flush``/``flush_thread``, ``reset_stats`` and
    ``invalidate_kernel_masks``.
    """

    _tage: TagePredictor
    _loop: LoopPredictor

    def _init_kernels(self) -> None:
        # Per-thread composite kernels.  They bind per-thread fused-XOR
        # masks (through the component steps), so under an XOR policy they
        # register as a mask cache: key re-randomisation drops them.
        self._exec_fns: Dict[int, object] = {}
        attached = self._loop.table.isolation
        if supports_fused_xor(attached):
            self._exec_token = object()
            attached.register_fast_mask_cache(self._exec_token,
                                              self._exec_fns,
                                              self._build_exec_fn)

    def _components(self) -> list:
        """Component predictors, in flush order."""
        raise NotImplementedError

    def _compose(self, thread_id: int, tage_step, loop_step, pstats):
        """Return the kernel of one hardware thread."""
        raise NotImplementedError

    def execute(self, pc: int, taken: bool, thread_id: int = 0) -> bool:
        """Fused lookup + stats + update via the thread's kernel.

        State evolution and statistics are identical to the ``lookup`` /
        ``stats().record`` / ``update`` sequence, for every isolation policy.
        """
        fn = self._exec_fns.get(thread_id)
        if fn is None:
            fn = self._build_exec_fn(thread_id)
        return fn(pc, taken)

    def exec_kernel(self, thread_id: int = 0):
        """Return the thread's execute kernel ``fn(pc, taken)``.

        Same contract as :meth:`TagePredictor.exec_kernel`: callers must
        re-fetch it after every switch notification; the callable also
        accepts (and ignores) a trailing ``thread_id`` argument.
        """
        fn = self._exec_fns.get(thread_id)
        if fn is None:
            fn = self._build_exec_fn(thread_id)
        return fn

    def _build_exec_fn(self, thread_id: int):
        """Build, cache and return one thread's composite kernel."""
        fn = self._compose(thread_id, self._tage.component_kernel(thread_id),
                           self._loop.step_kernel(thread_id),
                           self.stats(thread_id))
        # Each component step picks its arm from its own tables' storage
        # flags, so the kernel runs one packed arm only when all tables do.
        tables = self.tables()
        fn.arm = ("passthrough" if all(t._fast for t in tables)
                  else "fused-xor" if all(t._xor_fast for t in tables)
                  else "generic")
        self._exec_fns[thread_id] = fn
        return fn

    def invalidate_kernel_masks(self) -> None:
        """Drop every cached kernel, the inner TAGE's included."""
        self._tage.invalidate_kernel_masks()
        self._exec_fns.clear()

    def flush(self) -> None:
        for component in self._components():
            component.flush()
        self._exec_fns.clear()

    def flush_thread(self, thread_id: int) -> None:
        for component in self._components():
            component.flush_thread(thread_id)
        self._exec_fns.pop(thread_id, None)

    def reset_stats(self) -> None:
        super().reset_stats()
        # The kernels bind the (now replaced) stats objects.
        self._exec_fns.clear()

    @property
    def tage(self) -> TagePredictor:
        """The TAGE component."""
        return self._tage

    @property
    def loop(self) -> LoopPredictor:
        """The loop-predictor component."""
        return self._loop


class LTagePredictor(TageComposite):
    """TAGE + loop predictor.

    Args:
        tage_config: sizing of the TAGE component.
        loop_entries: number of loop-table entries.
        isolation: isolation policy applied to every table.
        word_bits: physical word width used for base-PHT packing.
    """

    name = "ltage"

    def __init__(self, tage_config: Optional[TageConfig] = None,
                 loop_entries: int = 256, *,
                 isolation: Optional[TableIsolation] = None,
                 word_bits: int = 32) -> None:
        super().__init__(isolation)
        self._tage = TagePredictor(tage_config, isolation=isolation,
                                   word_bits=word_bits)
        self._loop = LoopPredictor(loop_entries, isolation=isolation)
        self._init_kernels()

    def lookup(self, pc: int, thread_id: int = 0) -> DirectionPrediction:
        tage_pred = self._tage.lookup(pc, thread_id)
        loop_pred = self._loop.lookup(pc, thread_id)
        if loop_pred.valid:
            taken = loop_pred.taken
        else:
            taken = tage_pred.taken
        return DirectionPrediction(taken=taken, meta={
            "tage": tage_pred,
            "loop_valid": loop_pred.valid,
            "loop_taken": loop_pred.taken,
        })

    def update(self, pc: int, taken: bool,
               prediction: Optional[DirectionPrediction] = None,
               thread_id: int = 0) -> None:
        if prediction is None or "tage" not in prediction.meta:
            prediction = self.lookup(pc, thread_id)
        self._loop.update(pc, taken, thread_id)
        self._tage.update(pc, taken, prediction.meta["tage"], thread_id)

    def _components(self) -> list:
        return [self._tage, self._loop]

    def _compose(self, thread_id: int, tage_step, loop_step, pstats):
        def fn(pc, taken, _thread_id=0):
            predicted = tage_step(pc, taken)[0]
            loop_taken = loop_step(pc, taken)
            if loop_taken is not None:
                predicted = loop_taken
            pstats.lookups += 1
            if predicted != taken:
                pstats.mispredictions += 1
            return predicted

        return fn

    def tables(self) -> List[PredictorTable]:
        return self._tage.tables() + [self._loop.table]
