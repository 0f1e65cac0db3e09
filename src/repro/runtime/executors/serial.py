"""In-process executor: the deterministic default.

Runs every task in the calling process, in submission order, sharing this
process's evaluation-table cache across the whole batch.
"""

from __future__ import annotations

from typing import Any, Iterator, Tuple

from repro.errors import SimulationError
from repro.runtime.executors.base import Executor, TaskError, Ticket

__all__ = ["SerialExecutor"]


class SerialExecutor(Executor):
    """Execute tasks inline, lazily, when results are drained."""

    def outstanding(self) -> int:
        return len(self._queue)

    def as_completed(
        self, *, raise_errors: bool = True
    ) -> Iterator[Tuple[Ticket, Any]]:
        while self._queue:
            ticket, task = self._queue.popleft()
            try:
                result = self._worker_fn(self._payload, task)
            except Exception as exc:
                error = TaskError.capture(ticket, task, exc)
                if not raise_errors:
                    # Resilient mode: hand the captured failure to the
                    # caller (the study layer's retry/quarantine loop).
                    yield ticket, error
                    continue
                # Re-queue nothing: the failure is deterministic.  Surface
                # the failing task's label (the protocol contract, same as
                # the pool and tcp backends); prior yields stay with the
                # caller.
                error.traceback = ""  # the cause is chained, not re-printed
                try:
                    error.raise_()
                except SimulationError as wrapped:
                    raise wrapped from exc
            yield ticket, result
