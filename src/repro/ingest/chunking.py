"""Memory-bounded chunked reading of DNS trace sources.

The batch pipeline used to materialize an entire capture as one Python
list before building any graph — fine for a tiny simulated trace,
impossible for the month-of-campus-traffic scale the paper ingests. This
module turns any trace source into a stream of bounded
:class:`RecordBatch` chunks:

* chunks are bounded by **record count** (``max_records``) and, when
  configured, by **trace-time span** (``max_seconds``) — a quiet
  overnight hour and a 9am burst both land in right-sized batches;
* each chunk is parsed straight into the
  :class:`~repro.dns.logfmt.TraceColumns` the graph fold reads — no
  per-record objects are built on this path;
* the reader maintains a **monotone cursor** (records consumed since the
  start of the trace), which is what stage checkpoints persist — a
  resumed run skips exactly ``cursor`` records (cheaply, without
  parsing) and continues byte-identically;
* iteration is context-managed end to end: the underlying file handle
  is released when the reader is closed or exhausted, never left to the
  garbage collector.

See ``docs/ingestion.md`` for the full chunking model.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, TextIO

from repro.dns.logfmt import DnsTraceReader, TraceColumns, TraceRecordIterator
from repro.errors import IngestError
from repro.obs.logging import get_logger
from repro.obs.metrics import default_registry

__all__ = ["ChunkPolicy", "RecordBatch", "ChunkedTraceReader"]

_log = get_logger(__name__)


@dataclass(slots=True, frozen=True)
class ChunkPolicy:
    """Bounds one ingestion chunk.

    Attributes:
        max_records: Hard per-chunk record cap — the peak-memory knob.
        max_seconds: Optional trace-time span cap: a chunk never covers
            more than this many seconds of capture time, so wall-clock
            aligned checkpoints stay possible even at low traffic rates.
            ``None`` disables the time bound.
    """

    max_records: int = 100_000
    max_seconds: float | None = None

    def validate(self) -> None:
        """Raise :class:`IngestError` on out-of-range bounds."""
        if self.max_records < 1:
            raise IngestError(
                f"chunk max_records must be >= 1, got {self.max_records}"
            )
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise IngestError(
                f"chunk max_seconds must be positive, got {self.max_seconds}"
            )


@dataclass(slots=True)
class RecordBatch:
    """One bounded batch of interleaved trace records, as columns.

    Attributes:
        index: Zero-based chunk sequence number.
        columns: The batch's records, parsed into the columns the graph
            fold reads, in capture order.
        start_record: Cursor value *before* this batch (records consumed
            by all earlier batches, including skipped ones on resume).
        end_record: Cursor value after this batch — what a checkpoint
            taken at this boundary persists.
    """

    index: int
    columns: TraceColumns
    start_record: int = 0
    end_record: int = 0

    def __len__(self) -> int:
        return len(self.columns)

    @property
    def min_timestamp(self) -> float:
        """Earliest record timestamp in the batch."""
        return self.columns.min_timestamp

    @property
    def max_timestamp(self) -> float:
        """Latest record timestamp in the batch."""
        return self.columns.max_timestamp


class ChunkedTraceReader:
    """Yields bounded :class:`RecordBatch` chunks from one trace pass.

    One instance makes a single pass; :attr:`cursor` is the monotone
    count of records consumed from the trace so far (including the
    ``start_record`` records skipped on a resumed run). Usable as a
    context manager; :meth:`close` releases the underlying file handle
    even when iteration is abandoned mid-trace.
    """

    def __init__(
        self,
        source: str | Path | TextIO | DnsTraceReader,
        policy: ChunkPolicy | None = None,
        *,
        start_record: int = 0,
    ) -> None:
        """Args:
            source: A trace path / text stream, or an existing
                :class:`DnsTraceReader`.
            policy: Chunk bounds (defaults to :class:`ChunkPolicy`).
            start_record: Resume cursor — this many records are skipped
                (without parsing) before the first batch is assembled.
        """
        self.policy = policy or ChunkPolicy()
        self.policy.validate()
        if start_record < 0:
            raise IngestError(
                f"start_record must be non-negative, got {start_record}"
            )
        if isinstance(source, DnsTraceReader):
            reader = source
        else:
            reader = DnsTraceReader(source)
        self._records: TraceRecordIterator = reader.records()
        self._start_record = start_record
        self._cursor = 0
        self._skipped = False
        self._chunk_index = 0

    @property
    def cursor(self) -> int:
        """Monotone count of trace records consumed so far."""
        return self._cursor

    @property
    def chunks_read(self) -> int:
        """Number of batches yielded so far."""
        return self._chunk_index

    def close(self) -> None:
        """Release the underlying trace file handle (idempotent)."""
        self._records.close()

    @property
    def closed(self) -> bool:
        return self._records.closed

    def __enter__(self) -> "ChunkedTraceReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _skip_to_start(self) -> None:
        if self._skipped:
            return
        self._skipped = True
        if self._start_record == 0:
            return
        skipped = self._records.skip_records(self._start_record)
        if skipped != self._start_record:
            raise IngestError(
                f"resume cursor {self._start_record} lies beyond the trace "
                f"({skipped} records found) — wrong trace for this checkpoint?"
            )
        self._cursor = skipped
        _log.debug("ingest_skipped", records=skipped)

    def __iter__(self) -> Iterator[RecordBatch]:
        self._skip_to_start()
        policy = self.policy
        registry = default_registry()
        records_counter = registry.counter("ingest.records")
        chunks_counter = registry.counter("ingest.chunks")
        while True:
            columns = self._records.read_columns(
                policy.max_records, policy.max_seconds
            )
            if not columns:
                self.close()
                return
            batch = RecordBatch(
                index=self._chunk_index,
                columns=columns,
                start_record=self._cursor,
                end_record=self._cursor + len(columns),
            )
            self._cursor = batch.end_record
            self._chunk_index += 1
            records_counter.inc(len(columns))
            chunks_counter.inc()
            yield batch
