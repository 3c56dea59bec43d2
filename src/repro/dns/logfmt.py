"""Text format for DNS traffic logs.

The campus collection pipeline in the paper stores one record per line.
We use a tab-separated format with an explicit record kind so that queries
and responses can be interleaved in capture order:

``Q\t<timestamp>\t<txid>\t<source_ip>\t<qname>\t<qtype>``

``R\t<timestamp>\t<txid>\t<dest_ip>\t<qname>\tNXDOMAIN``

``R\t<timestamp>\t<txid>\t<dest_ip>\t<qname>\t<type>:<value>:<ttl>[,...]``

Readers are streaming (constant memory) and raise
:class:`~repro.errors.DnsLogFormatError` with line numbers on malformed
input, including any line that holds a NUL character. A pass yields
either whole record objects (iterate a :class:`DnsTraceReader`) or, for
graph construction, only the :class:`TraceColumns` the graph fold reads
(:meth:`TraceRecordIterator.read_columns`); both apply the same checks.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from repro.dns.types import DnsQuery, DnsResponse, QueryType, ResourceRecord
from repro.errors import DnsLogFormatError

_QUERY_KIND = "Q"
_RESPONSE_KIND = "R"
_NXDOMAIN_TOKEN = "NXDOMAIN"
#: Upper-cased type mnemonics a trace may carry.
_TYPE_NAMES = frozenset(qtype.value for qtype in QueryType)
#: Answer types that carry a resolved address.
_ADDRESS_TYPES = frozenset((QueryType.A.value, QueryType.AAAA.value))


def format_query(query: DnsQuery) -> str:
    """Serialize one query to its log-line form (no trailing newline)."""
    return "\t".join(
        (
            _QUERY_KIND,
            f"{query.timestamp:.3f}",
            str(query.txid),
            query.source_ip,
            query.qname,
            query.qtype.value,
        )
    )


def format_response(response: DnsResponse) -> str:
    """Serialize one response to its log-line form (no trailing newline)."""
    if response.nxdomain:
        payload = _NXDOMAIN_TOKEN
    else:
        payload = ",".join(
            f"{rr.rtype.value}:{rr.value}:{rr.ttl}" for rr in response.answers
        )
    return "\t".join(
        (
            _RESPONSE_KIND,
            f"{response.timestamp:.3f}",
            str(response.txid),
            response.destination_ip,
            response.qname,
            payload,
        )
    )


def _stamp_and_txid(
    fields: list[str], line_number: int, line: str, kind: str
) -> tuple[float, int]:
    """Checked field count, timestamp and txid of a ``Q``/``R`` record.

    With :func:`_query_values` and :func:`_response_values`, the one
    validation both readers share: :func:`parse_query` /
    :func:`parse_response` build objects from the values, while
    :meth:`TraceRecordIterator.read_columns` appends them to columns.
    A NUL anywhere in the line is rejected: fields are kept verbatim,
    and numpy string arrays (checkpoints, bundles) drop trailing NULs,
    so ``"10.0.0.1\x00"`` would collide with ``"10.0.0.1"`` on reload.
    """
    if "\x00" in line:
        raise DnsLogFormatError(line_number, line, "NUL character in record")
    if len(fields) != 6:
        raise DnsLogFormatError(line_number, line, f"{kind} needs 6 fields")
    try:
        timestamp = float(fields[1])
        txid = int(fields[2])
    except ValueError as exc:
        raise DnsLogFormatError(line_number, line, str(exc)) from exc
    if not 0 <= txid <= 0xFFFF:
        raise DnsLogFormatError(
            line_number, line, f"txid {txid} outside 0..65535"
        )
    return timestamp, txid


def _query_values(
    fields: list[str], line_number: int, line: str
) -> tuple[float, int, str]:
    """Checked ``(timestamp, txid, qtype)`` of a ``Q`` record's fields.

    ``qtype`` is the upper-cased mnemonic.
    """
    timestamp, txid = _stamp_and_txid(fields, line_number, line, "query")
    qtype = fields[5].upper()
    if qtype not in _TYPE_NAMES:
        raise DnsLogFormatError(
            line_number, line, f"unknown DNS query type {fields[5]!r}"
        )
    if timestamp < 0:
        raise DnsLogFormatError(
            line_number, line, "timestamp must be non-negative"
        )
    return timestamp, txid, qtype


def _response_values(
    fields: list[str], line_number: int, line: str
) -> tuple[float, int, list[tuple[str, str, int]] | None]:
    """Checked ``(timestamp, txid, answers)`` of an ``R`` record's fields.

    ``answers`` is ``None`` for NXDOMAIN, else one upper-cased
    ``(rtype, value, ttl)`` triple per answer record.
    """
    timestamp, txid = _stamp_and_txid(fields, line_number, line, "response")
    payload = fields[5]
    if payload == _NXDOMAIN_TOKEN:
        return timestamp, txid, None
    answers: list[tuple[str, str, int]] = []
    for chunk in payload.split(",") if payload else ():
        parts = chunk.split(":")
        if len(parts) != 3:
            raise DnsLogFormatError(
                line_number, line, f"malformed answer record {chunk!r}"
            )
        rtype = parts[0].upper()
        if rtype not in _TYPE_NAMES:
            raise DnsLogFormatError(
                line_number, line, f"unknown DNS query type {parts[0]!r}"
            )
        try:
            ttl = int(parts[2])
        except ValueError as exc:
            raise DnsLogFormatError(line_number, line, str(exc)) from exc
        if ttl < 0:
            raise DnsLogFormatError(
                line_number, line, "TTL must be non-negative"
            )
        answers.append((rtype, parts[1], ttl))
    return timestamp, txid, answers


def parse_query(fields: list[str], line_number: int, line: str) -> DnsQuery:
    """Parse the fields of a ``Q`` record."""
    timestamp, txid, qtype = _query_values(fields, line_number, line)
    return DnsQuery(
        timestamp=timestamp,
        txid=txid,
        source_ip=fields[3],
        qname=fields[4],
        qtype=QueryType(qtype),
    )


def parse_response(fields: list[str], line_number: int, line: str) -> DnsResponse:
    """Parse the fields of an ``R`` record."""
    timestamp, txid, answers = _response_values(fields, line_number, line)
    return DnsResponse(
        timestamp=timestamp,
        txid=txid,
        destination_ip=fields[3],
        qname=fields[4],
        answers=tuple(
            ResourceRecord(rtype=QueryType(rtype), value=value, ttl=ttl)
            for rtype, value, ttl in answers or ()
        ),
        nxdomain=answers is None,
    )


@dataclass(slots=True)
class TraceColumns:
    """The fields of a run of trace records that the graph fold reads.

    Attributes:
        query_qnames / query_sources / query_stamps: One entry per ``Q``
            record: queried name, source IP, timestamp.
        answer_qnames / answer_values: One entry per A/AAAA answer of a
            non-NXDOMAIN ``R`` record: queried name, resolved address.
        record_count: ``Q`` and ``R`` records covered, including
            responses that contribute no answer.
        min_timestamp / max_timestamp: Trace-time span of those records
            (both 0.0 when there are none).
    """

    query_qnames: list[str] = field(default_factory=list)
    query_sources: list[str] = field(default_factory=list)
    query_stamps: list[float] = field(default_factory=list)
    answer_qnames: list[str] = field(default_factory=list)
    answer_values: list[str] = field(default_factory=list)
    record_count: int = 0
    min_timestamp: float = 0.0
    max_timestamp: float = 0.0

    def __len__(self) -> int:
        return self.record_count

    @classmethod
    def from_records(
        cls, records: Iterable[DnsQuery | DnsResponse]
    ) -> "TraceColumns":
        """The columns of already-parsed records, in their order."""
        columns = cls()
        for record in records:
            if isinstance(record, DnsQuery):
                columns.query_qnames.append(record.qname)
                columns.query_sources.append(record.source_ip)
                columns.query_stamps.append(record.timestamp)
            elif isinstance(record, DnsResponse):
                if not record.nxdomain:
                    for rr in record.answers:
                        if rr.rtype.value in _ADDRESS_TYPES:
                            columns.answer_qnames.append(record.qname)
                            columns.answer_values.append(rr.value)
            else:
                raise TypeError(f"cannot fold {type(record).__name__}")
            stamp = record.timestamp
            if columns.record_count == 0:
                columns.min_timestamp = columns.max_timestamp = stamp
            elif stamp < columns.min_timestamp:
                columns.min_timestamp = stamp
            elif stamp > columns.max_timestamp:
                columns.max_timestamp = stamp
            columns.record_count += 1
        return columns


class DnsTraceWriter:
    """Streaming writer for interleaved DNS trace logs.

    Usable as a context manager. Accepts any mix of
    :class:`~repro.dns.types.DnsQuery` and
    :class:`~repro.dns.types.DnsResponse` records.
    """

    def __init__(self, destination: str | Path | TextIO) -> None:
        if isinstance(destination, (str, Path)):
            self._stream: TextIO = open(destination, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = destination
            self._owns_stream = False
        self.records_written = 0

    def write(self, record: DnsQuery | DnsResponse) -> None:
        """Append one record."""
        if isinstance(record, DnsQuery):
            line = format_query(record)
        elif isinstance(record, DnsResponse):
            line = format_response(record)
        else:
            raise TypeError(f"cannot serialize {type(record).__name__}")
        self._stream.write(line + "\n")
        self.records_written += 1

    def write_all(self, records: Iterable[DnsQuery | DnsResponse]) -> int:
        """Append many records; returns how many were written."""
        count = 0
        for record in records:
            self.write(record)
            count += 1
        return count

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "DnsTraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class TraceRecordIterator:
    """Iterator over one pass of a trace, owning its file handle.

    Usable as a context manager (the chunked-ingestion path holds one of
    these across many batch yields and must be able to release the
    underlying file deterministically — relying on garbage collection to
    run a generator's ``finally`` leaks handles on abandonment):

    * iterating yields :class:`DnsQuery`/:class:`DnsResponse` objects;
    * :meth:`read_columns` parses the next bounded run of records
      straight into :class:`TraceColumns`, building no record objects;
    * :meth:`close` (or ``with``-exit) closes the stream when this
      iterator opened it; externally supplied streams are left alone;
    * :meth:`skip_records` discards records by counting raw lines
      without parsing them — the cheap half of cursor-based resume.
    """

    def __init__(self, stream: TextIO, owns_stream: bool) -> None:
        self._stream = stream
        self._owns_stream = owns_stream
        self._line_number = 0
        self._closed = False
        # A line read but not yet consumed: the record that crossed a
        # read_columns time bound opens the next read.
        self._pending: str | None = None

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (or the stream is gone)."""
        return self._closed

    def close(self) -> None:
        """Release the underlying stream (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "TraceRecordIterator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __iter__(self) -> "TraceRecordIterator":
        return self

    def _lines(self) -> Iterator[str]:
        """The unread raw lines, a pending one first."""
        pending, self._pending = self._pending, None
        if pending is None:
            return self._stream
        return chain((pending,), self._stream)

    def __next__(self) -> DnsQuery | DnsResponse:
        if self._closed:
            raise StopIteration
        for raw in self._lines():
            self._line_number += 1
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            kind = fields[0]
            try:
                if kind == _QUERY_KIND:
                    return parse_query(fields, self._line_number, line)
                if kind == _RESPONSE_KIND:
                    return parse_response(fields, self._line_number, line)
                raise DnsLogFormatError(
                    self._line_number, line, f"unknown record kind {kind!r}"
                )
            except DnsLogFormatError:
                # Match the old generator semantics: a parse error ends
                # the pass, releasing the handle before propagating.
                self.close()
                raise
        self.close()
        raise StopIteration

    def read_columns(
        self, max_records: int, max_seconds: float | None = None
    ) -> TraceColumns:
        """Parse the next run of records into one :class:`TraceColumns`.

        The run ends after ``max_records`` records, at the end of the
        trace (which closes the pass), or — when ``max_seconds`` is set —
        before the first record whose timestamp lies ``max_seconds`` or
        more after the run's first; that record opens the next run.
        Lines are checked exactly as :meth:`__next__` checks them, and a
        malformed one ends the pass with :class:`DnsLogFormatError`.
        Empty columns mean the pass is over.
        """
        columns = TraceColumns()
        if self._closed or max_records < 1:
            return columns
        add_qname = columns.query_qnames.append
        add_source = columns.query_sources.append
        add_stamp = columns.query_stamps.append
        add_answer_qname = columns.answer_qnames.append
        add_answer_value = columns.answer_values.append
        address_types = _ADDRESS_TYPES
        count = 0
        first = low = high = 0.0
        line_number = self._line_number
        for raw in self._lines():
            line_number += 1
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            kind = fields[0]
            answers: list[tuple[str, str, int]] | None = None
            try:
                if kind == _QUERY_KIND:
                    stamp = _query_values(fields, line_number, line)[0]
                elif kind == _RESPONSE_KIND:
                    stamp, __, answers = _response_values(
                        fields, line_number, line
                    )
                else:
                    raise DnsLogFormatError(
                        line_number, line, f"unknown record kind {kind!r}"
                    )
            except DnsLogFormatError:
                self._line_number = line_number
                self.close()
                raise
            if count == 0:
                first = low = high = stamp
            elif max_seconds is not None and stamp - first >= max_seconds:
                self._pending = raw
                line_number -= 1
                break
            elif stamp < low:
                low = stamp
            elif stamp > high:
                high = stamp
            if kind == _QUERY_KIND:
                add_qname(fields[4])
                add_source(fields[3])
                add_stamp(stamp)
            elif answers:
                for rtype, value, __ in answers:
                    if rtype in address_types:
                        add_answer_qname(fields[4])
                        add_answer_value(value)
            count += 1
            if count >= max_records:
                break
        else:
            self.close()
        self._line_number = line_number
        columns.record_count = count
        columns.min_timestamp = low
        columns.max_timestamp = high
        return columns

    def skip_records(self, count: int) -> int:
        """Discard up to ``count`` records without parsing them.

        Comment and blank lines are passed over for free; record lines
        are counted but never turned into objects. Returns how many
        records were actually skipped (fewer than ``count`` only when
        the trace is exhausted first).
        """
        skipped = 0
        if count <= 0 or self._closed:
            return 0
        for raw in self._lines():
            self._line_number += 1
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            skipped += 1
            if skipped >= count:
                break
        return skipped


class DnsTraceReader:
    """Streaming reader yielding records in file order.

    Blank lines and ``#`` comment lines are skipped. Iterating the reader
    yields :class:`DnsQuery` / :class:`DnsResponse` objects. Each
    iteration opens its own pass over the source; use :meth:`records`
    when the pass should be context-managed (closes the file even when
    iteration is abandoned early)::

        with DnsTraceReader(path).records() as records:
            first = next(records)
    """

    def __init__(self, source: str | Path | TextIO) -> None:
        self._source = source

    def _open(self) -> tuple[TextIO, bool]:
        if isinstance(self._source, (str, Path)):
            return open(self._source, "r", encoding="utf-8"), True
        if isinstance(self._source, io.TextIOBase):
            return self._source, False
        return self._source, False

    def records(self) -> TraceRecordIterator:
        """One context-managed pass over the trace, in file order."""
        stream, owns = self._open()
        return TraceRecordIterator(stream, owns)

    def __iter__(self) -> Iterator[DnsQuery | DnsResponse]:
        return self.records()

    def queries(self) -> Iterator[DnsQuery]:
        """Yield only the query records."""
        for record in self:
            if isinstance(record, DnsQuery):
                yield record

    def responses(self) -> Iterator[DnsResponse]:
        """Yield only the response records."""
        for record in self:
            if isinstance(record, DnsResponse):
                yield record
