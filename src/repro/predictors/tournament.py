"""Alpha-21264-style Tournament direction predictor.

The Tournament predictor combines a two-level *local* predictor (per-branch
pattern history feeding a table of counters) with a *global* predictor indexed
by the recent path/global history, and a *chooser* that learns, per history
pattern, which of the two components to trust.

Sizing follows the paper's Figure 6(a): a 2048-entry, 11-bit local history
table, a 2048-entry local prediction table, an 8192-entry global prediction
table and an 8192-entry choice table, both indexed by the global (path)
history.  All second-level tables are built on
:class:`repro.predictors.table.PackedCounterTable` so that content and index
encoding apply uniformly, as shown in the figure.

The batched engines drive it through per-thread closure kernels (the
:mod:`repro.predictors.gshare` treatment): the geometry of the three
counter tables and, under a plain-XOR policy, the thread's fused masks are
bound once per (thread, rekey), so a branch pays no prediction objects,
meta dicts or mask-cache lookups.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .base import DirectionPrediction, DirectionPredictor
from .counters import counter_is_taken, saturating_update
from .history import GlobalHistory, LocalHistoryTable, PathHistory
from .table import (PackedCounterTable, PredictorTable, TableIsolation,
                    supports_fused_xor)

__all__ = ["TournamentPredictor"]


class TournamentPredictor(DirectionPredictor):
    """Local/global/chooser hybrid predictor.

    Args:
        local_history_entries: rows in the first-level local history table.
        local_history_bits: pattern length kept per static branch.
        local_entries: counters in the local prediction table.
        global_entries: counters in the global prediction table.
        choice_entries: counters in the chooser table.
        global_history_bits: length of the global history register.
        isolation: isolation policy applied to all second-level tables.
        word_bits: physical word width for Enhanced-XOR-PHT style packing.
    """

    name = "tournament"

    def __init__(self,
                 local_history_entries: int = 2048,
                 local_history_bits: int = 11,
                 local_entries: int = 2048,
                 global_entries: int = 8192,
                 choice_entries: int = 8192,
                 global_history_bits: int = 13, *,
                 isolation: Optional[TableIsolation] = None,
                 word_bits: int = 32) -> None:
        super().__init__(isolation)
        self._local_history = LocalHistoryTable(local_history_entries, local_history_bits)
        self._local_pht = PackedCounterTable(local_entries, 2, word_bits=word_bits,
                                             reset_value=1, name="tournament_local",
                                             isolation=isolation)
        self._global_pht = PackedCounterTable(global_entries, 2, word_bits=word_bits,
                                              reset_value=1, name="tournament_global",
                                              isolation=isolation)
        self._choice_pht = PackedCounterTable(choice_entries, 2, word_bits=word_bits,
                                              reset_value=1, name="tournament_choice",
                                              isolation=isolation)
        self._local_mask = local_entries - 1
        self._global_mask = global_entries - 1
        self._choice_mask = choice_entries - 1
        self._ghr = GlobalHistory(global_history_bits)
        # The paper describes the second level as "indexed by the path (or
        # global) history of the last 12 branches" (Figure 6a); hashing the
        # outcome history with the path history keeps outcome correlation
        # while decorrelating different programs' footprints.
        self._path = PathHistory(24, pc_bits_per_branch=2)
        if isolation is not None:
            isolation.register_flushable(self._local_history)
        # Per-thread execute kernels; under an XOR policy they register as a
        # mask cache so key re-randomisation drops them.
        self._exec_fns: Dict[int, object] = {}
        attached = self._local_pht.word_table.isolation
        if supports_fused_xor(attached):
            self._exec_token = object()
            attached.register_fast_mask_cache(self._exec_token,
                                              self._exec_fns,
                                              self._build_exec_fn)

    # -- index computation ----------------------------------------------------
    def _local_index(self, pc: int) -> int:
        # Second level of the local component: indexed by the branch's pattern
        # history, as in the Alpha 21264 and gem5's TournamentBP.
        return self._local_history.read(pc) & self._local_mask

    def _global_index(self, thread_id: int) -> int:
        history = self._ghr.folded(self._global_mask.bit_length(), thread_id)
        path = self._path.folded(self._global_mask.bit_length(), thread_id)
        return (history ^ path) & self._global_mask

    def _choice_index(self, thread_id: int) -> int:
        history = self._ghr.folded(self._choice_mask.bit_length(), thread_id)
        path = self._path.folded(self._choice_mask.bit_length(), thread_id)
        return (history ^ path) & self._choice_mask

    # -- prediction protocol --------------------------------------------------
    def lookup(self, pc: int, thread_id: int = 0) -> DirectionPrediction:
        local_index = self._local_index(pc)
        global_index = self._global_index(thread_id)
        choice_index = self._choice_index(thread_id)
        local_counter = self._local_pht.read(local_index, thread_id)
        global_counter = self._global_pht.read(global_index, thread_id)
        choice_counter = self._choice_pht.read(choice_index, thread_id)
        local_taken = counter_is_taken(local_counter)
        global_taken = counter_is_taken(global_counter)
        use_global = counter_is_taken(choice_counter)
        taken = global_taken if use_global else local_taken
        return DirectionPrediction(taken=taken, meta={
            "local_index": local_index,
            "global_index": global_index,
            "choice_index": choice_index,
            "local_taken": local_taken,
            "global_taken": global_taken,
            "use_global": use_global,
        })

    def update(self, pc: int, taken: bool,
               prediction: Optional[DirectionPrediction] = None,
               thread_id: int = 0) -> None:
        if prediction is None or "local_index" not in prediction.meta:
            prediction = self.lookup(pc, thread_id)
        meta = prediction.meta
        local_index = meta["local_index"]
        global_index = meta["global_index"]
        choice_index = meta["choice_index"]
        local_correct = meta["local_taken"] == taken
        global_correct = meta["global_taken"] == taken

        # Train the chooser only when the components disagree.
        if local_correct != global_correct:
            choice = self._choice_pht.read(choice_index, thread_id)
            self._choice_pht.write(choice_index,
                                   saturating_update(choice, global_correct),
                                   thread_id)

        local_counter = self._local_pht.read(local_index, thread_id)
        self._local_pht.write(local_index, saturating_update(local_counter, taken),
                              thread_id)
        global_counter = self._global_pht.read(global_index, thread_id)
        self._global_pht.write(global_index, saturating_update(global_counter, taken),
                               thread_id)

        self._local_history.push(pc, taken)
        self._ghr.push(taken, thread_id)
        self._path.push(pc, thread_id)

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

        Same contract as :meth:`GsharePredictor.exec_kernel
        <repro.predictors.gshare.GsharePredictor.exec_kernel>`: dropped on
        key rotation, ``flush``/``flush_thread``, ``reset_stats`` and
        ``invalidate_kernel_masks``; callers re-fetch it after every switch
        notification.
        """
        fn = self._exec_fns.get(thread_id)
        if fn is None:
            fn = self._build_exec_fn(thread_id)
        return fn

    def invalidate_kernel_masks(self) -> None:
        """Drop every cached kernel (tests / manual fast-path flag flips)."""
        self._exec_fns.clear()

    def _build_exec_fn(self, thread_id: int):
        """Build, cache and return one thread's kernel.

        Three arms, selected by the word tables' storage flags: the
        *passthrough* and *fused-XOR* arms address the packed storage lists
        directly (passthrough with all-zero masks); the *generic* arm
        routes every word access through the table dispatch.  Each counter
        word is read once and reused for the update — no table is written
        between the reference protocol's lookup and update reads.  Exotic
        geometries (global and choice tables of different sizes) run the
        reference ``lookup``/``update`` pair.
        """
        words = [pht.word_table for pht in
                 (self._local_pht, self._global_pht, self._choice_pht)]
        pstats = self.stats(thread_id)
        global_mask = self._global_mask
        global_bits = global_mask.bit_length()
        if not (global_bits and global_mask == self._choice_mask):
            def fn(pc, taken, _thread_id=0, _tid=thread_id):
                prediction = self.lookup(pc, _tid)
                pstats.record(prediction.taken == taken)
                self.update(pc, taken, prediction, _tid)
                return prediction.taken

            fn.arm = "generic"
            self._exec_fns[thread_id] = fn
            return fn

        lht_entries = self._local_history._entries
        lht_index_mask = self._local_history._index_mask
        lht_mask = self._local_history._mask
        local_mask = self._local_mask
        ghr_values = self._ghr._values
        ghr_mask = self._ghr._mask
        path_values = self._path._values
        path_mask = self._path._mask
        pc_bits = self._path._pc_bits
        pc_mask = (1 << pc_bits) - 1
        tid = thread_id
        # (word shift, slot mask) per table: counters per word is a power
        # of two, as both the counter and the word counts are.
        lws = self._local_pht.counters_per_word.bit_length() - 1
        lsm = self._local_pht.counters_per_word - 1
        gws = self._global_pht.counters_per_word.bit_length() - 1
        gsm = self._global_pht.counters_per_word - 1
        cws = self._choice_pht.counters_per_word.bit_length() - 1
        csm = self._choice_pht.counters_per_word - 1

        if all(w._fast for w in words) or all(w._xor_fast for w in words):
            cells = []
            for table in words:
                if table._xor_fast:
                    masks = table._xor_masks.get(thread_id)
                    if masks is None:
                        masks = table._build_xor_masks(thread_id)
                    index_key, content_key, row_keys = masks
                else:
                    index_key = content_key = 0
                    row_keys = table.row_diversifier_keys()
                cells.append((table._data, table._offset, table._index_mask,
                              table._value_mask, index_key, content_key,
                              row_keys))
            ((ldata, loff, lwmask, lvmask, lik, lck, lrk),
             (gdata, goff, gwmask, gvmask, gik, gck, grk),
             (cdata, coff, cwmask, cvmask, cik, cck, crk)) = cells

            def fn(pc, taken, _thread_id=0):
                pc2 = pc >> 2
                slot = pc2 & lht_index_mask
                local_history = lht_entries[slot]
                local_index = local_history & local_mask
                # Folding is linear in XOR: the GHR and the path history
                # fold together, and the choice table shares the index.
                history = ghr_values.get(tid, 0)
                path = path_values.get(tid, 0)
                index = (history ^ path) & global_mask
                h = history >> global_bits
                p = path >> global_bits
                while h or p:
                    index ^= (h ^ p) & global_mask
                    h >>= global_bits
                    p >>= global_bits
                lrow = ((local_index >> lws) ^ lik) & lwmask
                lkey = lck ^ lrk[lrow]
                lword = ldata[loff + lrow] ^ lkey
                lshift = (local_index & lsm) * 2
                lctr = (lword >> lshift) & 3
                grow = ((index >> gws) ^ gik) & gwmask
                gkey = gck ^ grk[grow]
                gword = gdata[goff + grow] ^ gkey
                gshift = (index & gsm) * 2
                gctr = (gword >> gshift) & 3
                crow = ((index >> cws) ^ cik) & cwmask
                ckey = cck ^ crk[crow]
                cword = cdata[coff + crow] ^ ckey
                cshift = (index & csm) * 2
                cctr = (cword >> cshift) & 3
                local_taken = lctr >= 2
                global_taken = gctr >= 2
                predicted = global_taken if cctr >= 2 else local_taken
                pstats.lookups += 1
                if predicted != taken:
                    pstats.mispredictions += 1
                if local_taken != global_taken:
                    # Exactly one component was right: train the chooser.
                    if global_taken == taken:
                        cctr = cctr + 1 if cctr < 3 else 3
                    else:
                        cctr = cctr - 1 if cctr > 0 else 0
                    cdata[coff + crow] = (((cword & ~(3 << cshift))
                                           | (cctr << cshift)) & cvmask) ^ ckey
                if taken:
                    lctr = lctr + 1 if lctr < 3 else 3
                    gctr = gctr + 1 if gctr < 3 else 3
                else:
                    lctr = lctr - 1 if lctr > 0 else 0
                    gctr = gctr - 1 if gctr > 0 else 0
                ldata[loff + lrow] = (((lword & ~(3 << lshift))
                                       | (lctr << lshift)) & lvmask) ^ lkey
                gdata[goff + grow] = (((gword & ~(3 << gshift))
                                       | (gctr << gshift)) & gvmask) ^ gkey
                lht_entries[slot] = ((local_history << 1) | taken) & lht_mask
                ghr_values[tid] = ((history << 1) | taken) & ghr_mask
                path_values[tid] = ((path << pc_bits) | (pc2 & pc_mask)) \
                    & path_mask
                return predicted

            fn.arm = "fused-xor" if words[0]._xor_fast else "passthrough"
        else:
            lwords, gwords, cwords = words

            def fn(pc, taken, _thread_id=0):
                pc2 = pc >> 2
                slot = pc2 & lht_index_mask
                local_history = lht_entries[slot]
                local_index = local_history & local_mask
                history = ghr_values.get(tid, 0)
                path = path_values.get(tid, 0)
                index = (history ^ path) & global_mask
                h = history >> global_bits
                p = path >> global_bits
                while h or p:
                    index ^= (h ^ p) & global_mask
                    h >>= global_bits
                    p >>= global_bits
                lrow = local_index >> lws
                lword = lwords.read(lrow, tid)
                lshift = (local_index & lsm) * 2
                lctr = (lword >> lshift) & 3
                grow = index >> gws
                gword = gwords.read(grow, tid)
                gshift = (index & gsm) * 2
                gctr = (gword >> gshift) & 3
                crow = index >> cws
                cword = cwords.read(crow, tid)
                cshift = (index & csm) * 2
                cctr = (cword >> cshift) & 3
                local_taken = lctr >= 2
                global_taken = gctr >= 2
                predicted = global_taken if cctr >= 2 else local_taken
                pstats.lookups += 1
                if predicted != taken:
                    pstats.mispredictions += 1
                if local_taken != global_taken:
                    if global_taken == taken:
                        cctr = cctr + 1 if cctr < 3 else 3
                    else:
                        cctr = cctr - 1 if cctr > 0 else 0
                    cwords.write(crow, (cword & ~(3 << cshift))
                                 | (cctr << cshift), tid)
                if taken:
                    lctr = lctr + 1 if lctr < 3 else 3
                    gctr = gctr + 1 if gctr < 3 else 3
                else:
                    lctr = lctr - 1 if lctr > 0 else 0
                    gctr = gctr - 1 if gctr > 0 else 0
                lwords.write(lrow, (lword & ~(3 << lshift))
                             | (lctr << lshift), tid)
                gwords.write(grow, (gword & ~(3 << gshift))
                             | (gctr << gshift), tid)
                lht_entries[slot] = ((local_history << 1) | taken) & lht_mask
                ghr_values[tid] = ((history << 1) | taken) & ghr_mask
                path_values[tid] = ((path << pc_bits) | (pc2 & pc_mask)) \
                    & path_mask
                return predicted

            fn.arm = "generic"
        self._exec_fns[thread_id] = fn
        return fn

    # -- structure access -----------------------------------------------------
    def tables(self) -> List[PredictorTable]:
        return [self._local_pht.word_table, self._global_pht.word_table,
                self._choice_pht.word_table]

    @property
    def local_history(self) -> LocalHistoryTable:
        """First-level local history table."""
        return self._local_history

    @property
    def local_pht(self) -> PackedCounterTable:
        """Second-level local prediction table."""
        return self._local_pht

    @property
    def global_pht(self) -> PackedCounterTable:
        """Global prediction table."""
        return self._global_pht

    @property
    def choice_pht(self) -> PackedCounterTable:
        """Chooser table."""
        return self._choice_pht

    def flush(self) -> None:
        self._local_pht.flush()
        self._global_pht.flush()
        self._choice_pht.flush()
        self._local_history.flush()
        self._ghr.clear()
        self._path.clear()
        self._exec_fns.clear()

    def flush_thread(self, thread_id: int) -> None:
        self._local_pht.flush_thread(thread_id)
        self._global_pht.flush_thread(thread_id)
        self._choice_pht.flush_thread(thread_id)
        self._ghr.clear(thread_id)
        self._path.clear(thread_id)
        self._exec_fns.pop(thread_id, None)

    def reset_stats(self) -> None:
        super().reset_stats()
        # The kernels bind the (now replaced) stats objects.
        self._exec_fns.clear()
