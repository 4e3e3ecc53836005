"""GEHL-style statistical corrector.

TAGE occasionally produces statistically biased mispredictions (branches that
correlate weakly with history).  The statistical corrector (SC) of TAGE-SC-L
sums a set of signed counters read from tables indexed by different history
flavours (global history, backward-branch history, local history, the IMLI
counter) and, when the magnitude of the sum is large enough and disagrees
with TAGE, overrides the prediction.

This implementation keeps the structure (multiple GEHL components over
different histories, a dynamic use threshold) while remaining small enough
for trace-driven simulation.  All component tables are
:class:`repro.predictors.table.PredictorTable` instances so the isolation
mechanisms apply to them, as shown in Figure 6(b).
"""

from __future__ import annotations

from typing import List, Optional

from .counters import signed_saturating_update
from .history import GlobalHistory, LocalHistoryTable, fold_history
from .kernel_cache import build_kernel
from .table import PredictorTable, TableIsolation

__all__ = ["StatisticalCorrector"]


def _to_signed(value: int, bits: int) -> int:
    """Interpret an unsigned stored word as a signed counter."""
    sign_bit = 1 << (bits - 1)
    return (value & (sign_bit - 1)) - (value & sign_bit)


def _to_unsigned(value: int, bits: int) -> int:
    """Store a signed counter as an unsigned word."""
    return value & ((1 << bits) - 1)


class StatisticalCorrector:
    """Multi-component signed-counter corrector.

    Args:
        table_entries: entries per component table (power of two).
        counter_bits: width of each signed counter.
        history_lengths: global-history lengths of the GEHL components.
        local_history_bits: length of the per-branch local history component.
        isolation: isolation policy applied to all component tables.
    """

    def __init__(self, table_entries: int = 1024, counter_bits: int = 6,
                 history_lengths: Optional[List[int]] = None,
                 local_history_bits: int = 8, *,
                 isolation: Optional[TableIsolation] = None) -> None:
        self._counter_bits = counter_bits
        self._max = (1 << (counter_bits - 1)) - 1
        self._index_bits = table_entries.bit_length() - 1
        self._index_mask = table_entries - 1
        self._history_lengths = history_lengths or [4, 10, 16, 27]
        self._tables: List[PredictorTable] = []
        for i, _ in enumerate(self._history_lengths):
            self._tables.append(PredictorTable(table_entries, counter_bits,
                                               reset_value=0, name=f"sc_g{i}",
                                               isolation=isolation))
        self._backward_table = PredictorTable(table_entries, counter_bits,
                                              reset_value=0, name="sc_bw",
                                              isolation=isolation)
        self._local_table = PredictorTable(table_entries, counter_bits,
                                           reset_value=0, name="sc_local",
                                           isolation=isolation)
        self._local_history = LocalHistoryTable(256, local_history_bits)
        self._backward_history = GlobalHistory(16)
        self._use_threshold = 2 * len(self._tables)
        if isolation is not None:
            isolation.register_flushable(self._local_history)

    # -- indexing -------------------------------------------------------------
    def _global_index(self, pc: int, length: int, ghr: int) -> int:
        history = fold_history(ghr & ((1 << length) - 1), length, self._index_bits)
        return ((pc >> 2) ^ history) & self._index_mask

    def _backward_index(self, pc: int, thread_id: int) -> int:
        history = self._backward_history.folded(self._index_bits, thread_id)
        return ((pc >> 2) ^ history) & self._index_mask

    def _local_index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._local_history.read(pc)) & self._index_mask

    # -- prediction protocol --------------------------------------------------
    def confidence_sum(self, pc: int, ghr_value: int, tage_taken: bool,
                       thread_id: int = 0) -> int:
        """Signed vote of all components (positive = taken)."""
        total = 8 if tage_taken else -8  # TAGE's own vote, centred bias
        for table, length in zip(self._tables, self._history_lengths):
            index = self._global_index(pc, length, ghr_value)
            total += 2 * _to_signed(table.read(index, thread_id), self._counter_bits) + 1
        bw_index = self._backward_index(pc, thread_id)
        total += 2 * _to_signed(self._backward_table.read(bw_index, thread_id),
                                self._counter_bits) + 1
        local_index = self._local_index(pc)
        total += 2 * _to_signed(self._local_table.read(local_index, thread_id),
                                self._counter_bits) + 1
        return total

    def correct(self, pc: int, ghr_value: int, tage_taken: bool,
                tage_confident: bool, thread_id: int = 0) -> bool:
        """Return the (possibly overridden) prediction.

        The corrector only overrides low-confidence TAGE predictions whose
        statistical vote is strong and disagrees.
        """
        total = self.confidence_sum(pc, ghr_value, tage_taken, thread_id)
        sc_taken = total >= 0
        if sc_taken == tage_taken:
            return tage_taken
        if tage_confident and abs(total) < self._use_threshold:
            return tage_taken
        if abs(total) >= self._use_threshold // 2:
            return sc_taken
        return tage_taken

    def update(self, pc: int, taken: bool, ghr_value: int, tage_taken: bool,
               final_taken: bool, thread_id: int = 0) -> None:
        """Train all components with the resolved outcome."""
        total = self.confidence_sum(pc, ghr_value, tage_taken, thread_id)
        sc_taken = total >= 0
        # Dynamic threshold adaptation (simplified): grow when the corrector
        # overrode incorrectly, shrink when it could have helped.
        if final_taken != taken and sc_taken == taken:
            self._use_threshold = max(2, self._use_threshold - 1)
        elif final_taken != taken and sc_taken != taken:
            self._use_threshold = min(8 * len(self._tables), self._use_threshold + 1)

        if sc_taken != taken or abs(total) < 4 * self._use_threshold:
            for table, length in zip(self._tables, self._history_lengths):
                index = self._global_index(pc, length, ghr_value)
                value = _to_signed(table.read(index, thread_id), self._counter_bits)
                value = signed_saturating_update(value, taken, self._counter_bits)
                table.write(index, _to_unsigned(value, self._counter_bits), thread_id)
            bw_index = self._backward_index(pc, thread_id)
            value = _to_signed(self._backward_table.read(bw_index, thread_id),
                               self._counter_bits)
            value = signed_saturating_update(value, taken, self._counter_bits)
            self._backward_table.write(bw_index, _to_unsigned(value, self._counter_bits),
                                       thread_id)
            local_index = self._local_index(pc)
            value = _to_signed(self._local_table.read(local_index, thread_id),
                               self._counter_bits)
            value = signed_saturating_update(value, taken, self._counter_bits)
            self._local_table.write(local_index, _to_unsigned(value, self._counter_bits),
                                    thread_id)

        # History maintenance.
        self._local_history.push(pc, taken)
        is_backward = bool((pc >> 20) & 1)
        if is_backward:
            self._backward_history.push(taken, thread_id)

    def step_kernel(self, thread_id: int = 0):
        """Build one thread's fused vote + training step.

        The step ``fn(pc, taken, ghr_value, pre_taken, confident)`` is
        :meth:`correct` followed by :meth:`update` for one branch: it
        computes the component indices once, reads each counter once for
        both the vote and the training (no component table is written
        between the two in the reference protocol either), and returns the
        final prediction.  ``pre_taken``/``confident`` are the combined
        TAGE/loop prediction and its confidence; ``ghr_value`` is TAGE's
        global history *before* the branch.

        The step is generated (see :meth:`_step_source`) per arm: the
        *passthrough* and *fused-XOR* arms address the storage lists
        directly, the *generic* arm routes every access through the tables'
        isolation dispatch.  Composite predictors rebuild the step whenever
        their own kernel is invalidated (it binds the thread's fused-XOR
        masks).
        """
        tables = self.tables()
        if all(t._fast for t in tables):
            arm = "passthrough"
        elif all(t._xor_fast for t in tables):
            arm = "fused-xor"
        else:
            arm = "generic"
        namespace = {"sc": self, "TID": thread_id,
                     "bw_values": self._backward_history._values,
                     "lht": self._local_history._entries}
        for j, table in enumerate(tables):
            if arm == "generic":
                namespace[f"T{j}"] = table
                continue
            namespace[f"D{j}"] = table._data
            if arm == "fused-xor":
                masks = table._xor_masks.get(thread_id)
                if masks is None:
                    masks = table._build_xor_masks(thread_id)
                namespace[f"IK{j}"], namespace[f"CK{j}"], \
                    namespace[f"RK{j}"] = masks
        return build_kernel(self._step_source(arm), f"<sc-kernel {arm}>",
                            namespace)

    def _step_source(self, arm: str) -> str:
        """Generate the source of one fused SC step arm.

        Component loops are unrolled and the geometry (index width, history
        lengths, counter width, storage offsets) inlined as literals; the
        tables' storage lists and the thread's masks are globals.  Statement
        order follows :meth:`correct` + :meth:`update` (history pushes are
        moved ahead of the counter writes; they touch disjoint state).
        """
        tables = self.tables()
        ibits = self._index_bits
        imask = self._index_mask
        sign = 1 << (self._counter_bits - 1)
        vmask = (1 << self._counter_bits) - 1
        hi = self._max
        lo = -(hi + 1)
        lht = self._local_history

        def fold(name: str, bits: int) -> str:
            """XOR-fold a ``bits``-wide value into ``ibits`` (fold_history)."""
            if ibits <= 0 or bits <= 0:
                return "0"
            terms = []
            for shift in range(0, bits, ibits):
                term = f"({name} >> {shift})" if shift else name
                terms.append(term if shift + ibits >= bits
                             else f"({term} & {imask})")
            return " ^ ".join(terms)

        lines = []
        emit = lines.append
        emit("def _kernel(pc, taken, ghr_value, pre_taken, confident):")
        emit("    pc2 = pc >> 2")
        for j, length in enumerate(self._history_lengths):
            emit(f"    h = ghr_value & {(1 << length) - 1}")
            emit(f"    i{j} = (pc2 ^ {fold('h', length)}) & {imask}")
        n = len(tables)
        bw_bits = self._backward_history.bits
        emit("    h = bw_values.get(TID, 0)")
        emit(f"    i{n - 2} = (pc2 ^ {fold('h', bw_bits)}) & {imask}")
        emit(f"    i{n - 1} = (pc2 ^ lht[pc2 & {lht._index_mask}]) & {imask}")
        for j, table in enumerate(tables):
            cell = f"D{j}[{table._offset} + r{j}]" if table._offset \
                else f"D{j}[r{j}]"
            if arm == "passthrough":
                emit(f"    r{j} = i{j}")
                emit(f"    v = {cell}")
            elif arm == "fused-xor":
                emit(f"    r{j} = (i{j} ^ IK{j}) & {imask}")
                emit(f"    k{j} = CK{j} ^ RK{j}[r{j}]")
                emit(f"    v = {cell} ^ k{j}")
            else:
                emit(f"    v = T{j}.read(i{j}, TID)")
            emit(f"    s{j} = (v & {sign - 1}) - (v & {sign})")
        votes = " + ".join(f"s{j}" for j in range(n))
        emit(f"    total = (8 if pre_taken else -8) + 2 * ({votes}) + {n}")
        # -- correct() -------------------------------------------------------
        emit("    threshold = sc._use_threshold")
        emit("    sc_taken = total >= 0")
        emit("    magnitude = total if sc_taken else -total")
        emit("    if sc_taken == pre_taken:")
        emit("        final = pre_taken")
        emit("    elif confident and magnitude < threshold:")
        emit("        final = pre_taken")
        emit("    elif magnitude >= threshold // 2:")
        emit("        final = sc_taken")
        emit("    else:")
        emit("        final = pre_taken")
        # -- update(): threshold adaptation, histories, training -------------
        emit("    if final != taken:")
        emit("        if sc_taken == taken:")
        emit("            threshold = threshold - 1 if threshold > 2 else 2")
        emit("        else:")
        max_threshold = 8 * len(self._tables)
        emit(f"            threshold = threshold + 1 if threshold < "
             f"{max_threshold} else {max_threshold}")
        emit("        sc._use_threshold = threshold")
        emit(f"    slot = pc2 & {lht._index_mask}")
        emit(f"    lht[slot] = ((lht[slot] << 1) | taken) & {lht._mask}")
        emit("    if (pc >> 20) & 1:")
        emit("        bw_values[TID] = ((bw_values.get(TID, 0) << 1) | taken)"
             f" & {self._backward_history._mask}")
        emit("    if sc_taken != taken or magnitude < 4 * threshold:")
        for step, limit in (("+ 1", hi), ("- 1", lo)):
            emit("        if taken:" if step == "+ 1" else "        else:")
            for j in range(n):
                cmp = "<" if step == "+ 1" else ">"
                emit(f"            s{j} = s{j} {step} if s{j} {cmp} {limit}"
                     f" else {limit}")
        for j, table in enumerate(tables):
            cell = f"D{j}[{table._offset} + r{j}]" if table._offset \
                else f"D{j}[r{j}]"
            if arm == "passthrough":
                emit(f"        {cell} = s{j} & {vmask}")
            elif arm == "fused-xor":
                emit(f"        {cell} = (s{j} & {vmask}) ^ k{j}")
            else:
                emit(f"        T{j}.write(i{j}, s{j} & {vmask}, TID)")
        emit("    return final")
        return "\n".join(lines) + "\n"

    # -- structure access -----------------------------------------------------
    def tables(self) -> List[PredictorTable]:
        """All component tables."""
        return list(self._tables) + [self._backward_table, self._local_table]

    def flush(self) -> None:
        """Clear all component tables and histories."""
        for table in self.tables():
            table.flush()
        self._local_history.flush()
        self._backward_history.clear()

    def flush_thread(self, thread_id: int) -> None:
        """Clear component entries owned by one hardware thread."""
        for table in self.tables():
            table.flush_thread(thread_id)
        self._backward_history.clear(thread_id)
