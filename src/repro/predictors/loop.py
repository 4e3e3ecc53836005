"""Loop predictor.

The loop predictor captures branches that exit a loop after a regular number
of iterations — a pattern the counter-based components mispredict exactly once
per loop.  LTAGE and TAGE-SC-L both include one (the paper's TAGE-SC-L
configuration uses a 256-entry, 4-way associative loop table).

Entries are packed into a :class:`repro.predictors.table.PredictorTable` so
that the isolation mechanisms cover the loop table as well.
"""

from __future__ import annotations

from typing import Optional

from .table import PredictorTable, TableIsolation

__all__ = ["LoopPredictor", "LoopPrediction"]


class LoopPrediction:
    """Result of a loop-predictor lookup.

    Attributes:
        valid: True when a confident loop entry matched the branch.
        taken: predicted direction when ``valid``.
    """

    __slots__ = ("valid", "taken", "index")

    def __init__(self, valid: bool, taken: bool, index: int) -> None:
        self.valid = valid
        self.taken = taken
        self.index = index


class LoopPredictor:
    """Direct-mapped loop predictor.

    Each entry stores a partial tag, the learned trip count, the current
    iteration count and a confidence counter.  The entry predicts *taken*
    until the current iteration reaches the learned trip count, then predicts
    *not taken* once.  Only confident entries override the main predictor.

    Args:
        n_entries: number of loop entries (power of two).
        tag_bits: partial tag width.
        iter_bits: width of the trip/iteration counters.
        confidence_threshold: confidence needed before predictions are used.
        isolation: isolation policy applied to the loop table.
    """

    def __init__(self, n_entries: int = 256, *, tag_bits: int = 10,
                 iter_bits: int = 10, confidence_threshold: int = 3,
                 isolation: Optional[TableIsolation] = None) -> None:
        self._tag_bits = tag_bits
        self._iter_bits = iter_bits
        self._conf_bits = 2
        self._tag_mask = (1 << tag_bits) - 1
        self._iter_mask = (1 << iter_bits) - 1
        self._conf_mask = (1 << self._conf_bits) - 1
        self._threshold = min(confidence_threshold, self._conf_mask)
        entry_bits = tag_bits + 2 * iter_bits + self._conf_bits
        self._table = PredictorTable(n_entries, entry_bits, reset_value=0,
                                     name="loop", isolation=isolation)
        self._index_mask = n_entries - 1

    # -- entry packing --------------------------------------------------------
    def _pack(self, tag: int, trip: int, current: int, confidence: int) -> int:
        return (((tag & self._tag_mask) << (2 * self._iter_bits + self._conf_bits))
                | ((trip & self._iter_mask) << (self._iter_bits + self._conf_bits))
                | ((current & self._iter_mask) << self._conf_bits)
                | (confidence & self._conf_mask))

    def _unpack(self, word: int):
        confidence = word & self._conf_mask
        current = (word >> self._conf_bits) & self._iter_mask
        trip = (word >> (self._conf_bits + self._iter_bits)) & self._iter_mask
        tag = (word >> (self._conf_bits + 2 * self._iter_bits)) & self._tag_mask
        return tag, trip, current, confidence

    def _index_of(self, pc: int) -> int:
        return (pc >> 2) & self._index_mask

    def _tag_of(self, pc: int) -> int:
        return (pc >> (2 + self._index_mask.bit_length())) & self._tag_mask

    # -- prediction protocol --------------------------------------------------
    def lookup(self, pc: int, thread_id: int = 0) -> LoopPrediction:
        """Predict the branch at ``pc`` if a confident loop entry matches."""
        index = self._index_of(pc)
        word = self._table.read(index, thread_id)
        tag, trip, current, confidence = self._unpack(word)
        if word == 0 or tag != self._tag_of(pc) or confidence < self._threshold:
            return LoopPrediction(valid=False, taken=False, index=index)
        # ``current`` counts the taken back-edges seen so far in this loop
        # execution; the branch stays taken until that reaches the learned
        # trip count.
        taken = current < trip
        return LoopPrediction(valid=True, taken=taken, index=index)

    def update(self, pc: int, taken: bool, thread_id: int = 0) -> None:
        """Train the loop entry for ``pc`` with the resolved direction."""
        index = self._index_of(pc)
        lookup_tag = self._tag_of(pc)
        word = self._table.read(index, thread_id)
        tag, trip, current, confidence = self._unpack(word)

        if word == 0 or tag != lookup_tag:
            # Allocate only when we see the loop exit (a not-taken outcome),
            # so the first learned trip count is meaningful.
            if not taken:
                self._table.write(index, self._pack(lookup_tag, 0, 0, 0), thread_id)
            return

        if taken:
            current = min(current + 1, self._iter_mask)
            self._table.write(index, self._pack(tag, trip, current, confidence),
                              thread_id)
            return

        # Loop exit: compare the observed trip count with the learned one.
        observed = current
        if observed == trip and trip != 0:
            confidence = min(confidence + 1, self._conf_mask)
        else:
            trip = observed
            confidence = 0
        self._table.write(index, self._pack(tag, trip, 0, confidence), thread_id)

    def step_kernel(self, thread_id: int = 0):
        """Build one thread's fused probe + training step ``fn(pc, taken)``.

        The step is ``lookup`` followed by ``update`` on the same entry,
        reading the entry once: it returns the predicted direction when a
        confident entry matched and ``None`` otherwise, and trains the
        entry with the resolved direction.  Composite predictors (LTAGE,
        TAGE-SC-L) embed it in their execute kernels; they rebuild it
        whenever their own kernel is invalidated (the step binds the
        thread's fused-XOR masks).

        The *passthrough* and *fused-XOR* arms address the packed storage
        list directly (passthrough with all-zero masks); the *generic* arm
        routes every access through the table's isolation dispatch.
        """
        table = self._table
        imask = self._index_mask
        tag_shift = 2 + imask.bit_length()
        tag_mask = self._tag_mask
        conf_bits = self._conf_bits
        conf_mask = self._conf_mask
        iter_mask = self._iter_mask
        trip_shift = conf_bits + self._iter_bits
        word_tag_shift = conf_bits + 2 * self._iter_bits
        threshold = self._threshold
        one_iter = 1 << conf_bits
        tid = thread_id

        if table._fast or table._xor_fast:
            data = table._data
            offset = table._offset
            if table._xor_fast:
                masks = table._xor_masks.get(thread_id)
                if masks is None:
                    masks = table._build_xor_masks(thread_id)
                index_key, content_key, row_keys = masks
            else:
                index_key = content_key = 0
                row_keys = table.row_diversifier_keys()

            def step(pc, taken):
                row = ((pc >> 2) ^ index_key) & imask
                key = content_key ^ row_keys[row]
                word = data[offset + row] ^ key
                lookup_tag = (pc >> tag_shift) & tag_mask
                if word == 0 or (word >> word_tag_shift) != lookup_tag:
                    if not taken:
                        data[offset + row] = (lookup_tag << word_tag_shift) ^ key
                    return None
                current = (word >> conf_bits) & iter_mask
                trip = (word >> trip_shift) & iter_mask
                confidence = word & conf_mask
                predicted = current < trip if confidence >= threshold else None
                if taken:
                    if current < iter_mask:
                        data[offset + row] = (word + one_iter) ^ key
                elif current == trip and trip != 0:
                    if confidence < conf_mask:
                        data[offset + row] = \
                            ((word & ~(iter_mask << conf_bits)) + 1) ^ key
                    else:
                        data[offset + row] = \
                            (word & ~(iter_mask << conf_bits)) ^ key
                else:
                    data[offset + row] = ((lookup_tag << word_tag_shift)
                                          | (current << trip_shift)) ^ key
                return predicted

        else:
            read = table.read
            write = table.write
            pack = self._pack

            def step(pc, taken):
                index = (pc >> 2) & imask
                word = read(index, tid)
                lookup_tag = (pc >> tag_shift) & tag_mask
                if word == 0 or (word >> word_tag_shift) != lookup_tag:
                    if not taken:
                        write(index, pack(lookup_tag, 0, 0, 0), tid)
                    return None
                current = (word >> conf_bits) & iter_mask
                trip = (word >> trip_shift) & iter_mask
                confidence = word & conf_mask
                predicted = current < trip if confidence >= threshold else None
                if taken:
                    write(index, pack(lookup_tag, trip,
                                      min(current + 1, iter_mask),
                                      confidence), tid)
                elif current == trip and trip != 0:
                    write(index, pack(lookup_tag, trip, 0,
                                      min(confidence + 1, conf_mask)), tid)
                else:
                    write(index, pack(lookup_tag, current, 0, 0), tid)
                return predicted

        return step

    # -- structure access -----------------------------------------------------
    @property
    def table(self) -> PredictorTable:
        """The underlying loop table."""
        return self._table

    def flush(self) -> None:
        """Clear all loop entries."""
        self._table.flush()

    def flush_thread(self, thread_id: int) -> None:
        """Clear loop entries owned by one hardware thread."""
        self._table.flush_thread(thread_id)
