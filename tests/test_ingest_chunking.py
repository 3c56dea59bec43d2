"""Unit tests for chunked trace reading (repro.ingest.chunking)."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dns.logfmt import DnsTraceWriter, TraceColumns
from repro.dns.types import DnsQuery, DnsResponse, QueryType, ResourceRecord
from repro.errors import IngestError
from repro.ingest import ChunkedTraceReader, ChunkPolicy
from repro.obs.metrics import default_registry


def _make_records(count, *, spacing=1.0):
    records = []
    for index in range(count):
        stamp = index * spacing
        records.append(
            DnsQuery(stamp, index % 0x10000, f"10.0.0.{index % 20}",
                     f"name{index}.example.com", QueryType.A)
        )
    return records


def _trace_stream(records):
    buffer = io.StringIO()
    DnsTraceWriter(buffer).write_all(records)
    buffer.seek(0)
    return buffer


class TestChunkPolicy:
    def test_defaults_validate(self):
        ChunkPolicy().validate()

    @pytest.mark.parametrize("max_records", [0, -3])
    def test_bad_record_bound_rejected(self, max_records):
        with pytest.raises(IngestError):
            ChunkPolicy(max_records=max_records).validate()

    @pytest.mark.parametrize("max_seconds", [0.0, -1.0])
    def test_bad_time_bound_rejected(self, max_seconds):
        with pytest.raises(IngestError):
            ChunkPolicy(max_seconds=max_seconds).validate()

    def test_reader_rejects_negative_cursor(self):
        with pytest.raises(IngestError):
            ChunkedTraceReader(_trace_stream([]), start_record=-1)


class TestChunking:
    def test_record_bound_splits_batches(self):
        records = _make_records(10)
        reader = ChunkedTraceReader(
            _trace_stream(records), ChunkPolicy(max_records=4)
        )
        batches = list(reader)
        assert [len(b) for b in batches] == [4, 4, 2]
        assert [b.index for b in batches] == [0, 1, 2]
        assert batches[0].start_record == 0
        assert batches[0].end_record == 4
        assert batches[-1].end_record == 10
        assert reader.cursor == 10
        assert reader.chunks_read == 3

    def test_batches_preserve_record_order(self):
        records = _make_records(7)
        batches = list(
            ChunkedTraceReader(
                _trace_stream(records), ChunkPolicy(max_records=3)
            )
        )
        assert [b.columns for b in batches] == [
            TraceColumns.from_records(records[i:i + 3]) for i in (0, 3, 6)
        ]

    def test_time_bound_opens_new_chunk(self):
        # 10 records, one per second; a 3-second bound caps each chunk
        # at 3 records even though max_records allows far more.
        records = _make_records(10, spacing=1.0)
        batches = list(
            ChunkedTraceReader(
                _trace_stream(records),
                ChunkPolicy(max_records=100, max_seconds=3.0),
            )
        )
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        for batch in batches:
            assert batch.max_timestamp - batch.min_timestamp < 3.0

    def test_batch_timestamps_span_records(self):
        records = _make_records(5, spacing=2.0)
        (batch,) = list(ChunkedTraceReader(_trace_stream(records)))
        assert batch.min_timestamp == 0.0
        assert batch.max_timestamp == 8.0

    def test_mixed_queries_and_responses(self):
        records = [
            DnsQuery(1.0, 1, "10.0.0.1", "a.example.com", QueryType.A),
            DnsResponse(
                1.1, 1, "10.0.0.1", "a.example.com",
                answers=(ResourceRecord(QueryType.A, "93.0.0.1", 300),),
            ),
            DnsQuery(2.0, 2, "10.0.0.2", "b.example.com", QueryType.A),
        ]
        (batch,) = list(ChunkedTraceReader(_trace_stream(records)))
        assert batch.columns == TraceColumns.from_records(records)

    def test_empty_trace_yields_nothing(self):
        reader = ChunkedTraceReader(_trace_stream([]))
        assert list(reader) == []
        assert reader.cursor == 0
        assert reader.closed


class TestCursorResume:
    def test_start_record_skips_exactly(self):
        records = _make_records(10)
        reader = ChunkedTraceReader(
            _trace_stream(records),
            ChunkPolicy(max_records=4),
            start_record=6,
        )
        batches = list(reader)
        assert [len(b) for b in batches] == [4]
        assert batches[0].start_record == 6
        assert batches[0].columns == TraceColumns.from_records(records[6:])
        assert reader.cursor == 10

    def test_cursor_concatenation_covers_trace(self):
        # Reading [0, k) then reopening at k must reproduce one pass.
        records = _make_records(9)
        first = ChunkedTraceReader(
            _trace_stream(records), ChunkPolicy(max_records=4)
        )
        iterator = iter(first)
        head = next(iterator)
        first.close()
        second = ChunkedTraceReader(
            _trace_stream(records),
            ChunkPolicy(max_records=100),
            start_record=first.cursor,
        )
        assert head.columns == TraceColumns.from_records(records[:4])
        assert [b.columns for b in second] == [
            TraceColumns.from_records(records[4:])
        ]

    def test_time_bound_crossing_record_opens_next_chunk(self):
        # Responses carry timestamps too: the response at t=3.0 crosses
        # the 3-second bound of the chunk opened at t=0.0, so it opens
        # the next chunk, and a pass reopened at the first chunk's
        # cursor reads the same chunks as the uninterrupted pass.
        records = []
        for index in range(8):
            name = f"name{index}.example.com"
            records.append(
                DnsQuery(float(index), index, "10.0.0.1", name, QueryType.A)
            )
            records.append(
                DnsResponse(
                    index + 0.5 if index % 2 else index + 1.0, index,
                    "10.0.0.1", name,
                    answers=(ResourceRecord(QueryType.A, "93.0.0.1", 60),),
                )
            )
        policy = ChunkPolicy(max_records=100, max_seconds=3.0)
        first = ChunkedTraceReader(_trace_stream(records), policy)
        batches = list(first)
        bounds = [0, 5, 12, 16]
        assert [b.start_record for b in batches] == bounds[:-1]
        assert [b.columns for b in batches] == [
            TraceColumns.from_records(records[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]
        assert isinstance(records[5], DnsResponse)
        second = ChunkedTraceReader(
            _trace_stream(records), policy, start_record=batches[0].end_record
        )
        assert [b.columns for b in second] == [b.columns for b in batches[1:]]
        assert second.cursor == first.cursor == len(records)

    def test_cursor_beyond_trace_raises(self):
        records = _make_records(3)
        reader = ChunkedTraceReader(_trace_stream(records), start_record=5)
        with pytest.raises(IngestError, match="beyond the trace"):
            list(reader)


class TestResourceHandling:
    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "dns.log"
        with DnsTraceWriter(path) as writer:
            writer.write_all(_make_records(5))
        with ChunkedTraceReader(path, ChunkPolicy(max_records=2)) as reader:
            next(iter(reader))
            assert not reader.closed
        assert reader.closed

    def test_exhaustion_closes(self, tmp_path):
        path = tmp_path / "dns.log"
        with DnsTraceWriter(path) as writer:
            writer.write_all(_make_records(3))
        reader = ChunkedTraceReader(path)
        list(reader)
        assert reader.closed

    def test_close_is_idempotent(self):
        reader = ChunkedTraceReader(_trace_stream(_make_records(2)))
        reader.close()
        reader.close()
        assert reader.closed

    def test_ingest_metrics_counted(self):
        registry = default_registry()
        registry.reset()
        list(
            ChunkedTraceReader(
                _trace_stream(_make_records(10)), ChunkPolicy(max_records=4)
            )
        )
        snapshot = registry.snapshot()
        assert snapshot["counters"]["ingest.records"]["value"] == 10
        assert snapshot["counters"]["ingest.chunks"]["value"] == 3


# Child script for the memory-bound test: reads the trace either
# monolithically (everything in one list, the old pipeline shape) or
# chunked, and prints its own current RSS at the point of peak holding.
# Current RSS from /proc/self/statm, not ru_maxrss: the high-water mark
# can survive exec on some kernels and echo the parent's peak.
_RSS_CHILD = """
import os, sys
sys.path[:0] = {sys_path!r}
from repro.dns.logfmt import DnsTraceReader
from repro.ingest import ChunkPolicy, ChunkedTraceReader

def rss():
    with open("/proc/self/statm") as stream:
        return int(stream.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

if {mode!r} == "monolithic":
    records = list(DnsTraceReader({path!r}))
    print(rss())
else:
    peak = 0
    with ChunkedTraceReader(
        {path!r}, ChunkPolicy(max_records=2_000)
    ) as reader:
        for batch in reader:
            peak = max(peak, rss())
    print(peak)
"""


@pytest.mark.slow
@pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="needs /proc RSS"
)
class TestMemoryBound:
    def test_chunked_ingest_peak_rss_below_monolithic(self, tmp_path):
        # 200k records: the monolithic record list costs tens of MiB,
        # while the chunked reader holds at most 2k records at a time.
        path = tmp_path / "dns.log"
        with DnsTraceWriter(path) as writer:
            writer.write_all(_make_records(200_000))

        src = Path(__file__).resolve().parents[1] / "src"

        def measure(mode):
            child = _RSS_CHILD.format(
                sys_path=[str(src), *sys.path], mode=mode, path=str(path)
            )
            out = subprocess.run(
                [sys.executable, "-c", child],
                capture_output=True,
                text=True,
                check=True,
                timeout=300,
            )
            return int(out.stdout.strip().splitlines()[-1])

        monolithic = measure("monolithic")
        chunked = measure("chunked")
        # The gap must be the record list itself, not noise.
        assert chunked + 5 * 1024 * 1024 < monolithic
