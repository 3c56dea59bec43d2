"""Unit tests for the DNS trace log format (round-trips and errors)."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.dns.logfmt import (
    DnsTraceReader,
    DnsTraceWriter,
    TraceColumns,
    format_query,
    format_response,
)
from repro.dns.types import DnsQuery, DnsResponse, QueryType, ResourceRecord
from repro.errors import DnsLogFormatError


@pytest.fixture()
def sample_records():
    return [
        DnsQuery(1.25, 100, "10.20.0.5", "www.example.com", QueryType.A),
        DnsResponse(
            1.30,
            100,
            "10.20.0.5",
            "www.example.com",
            answers=(
                ResourceRecord(QueryType.A, "93.0.0.1", 300),
                ResourceRecord(QueryType.A, "93.0.0.2", 300),
            ),
        ),
        DnsQuery(2.0, 101, "10.20.0.6", "missing.example.net", QueryType.AAAA),
        DnsResponse(2.1, 101, "10.20.0.6", "missing.example.net", nxdomain=True),
    ]


class TestRoundTrip:
    def test_memory_round_trip(self, sample_records):
        buffer = io.StringIO()
        writer = DnsTraceWriter(buffer)
        assert writer.write_all(sample_records) == 4
        buffer.seek(0)
        parsed = list(DnsTraceReader(buffer))
        assert parsed == sample_records

    def test_file_round_trip(self, sample_records, tmp_path):
        path = tmp_path / "dns.log"
        with DnsTraceWriter(path) as writer:
            writer.write_all(sample_records)
        assert list(DnsTraceReader(path)) == sample_records

    def test_queries_and_responses_filters(self, sample_records, tmp_path):
        path = tmp_path / "dns.log"
        with DnsTraceWriter(path) as writer:
            writer.write_all(sample_records)
        reader = DnsTraceReader(path)
        assert len(list(reader.queries())) == 2
        assert len(list(reader.responses())) == 2

    def test_comments_and_blank_lines_skipped(self, sample_records):
        text = (
            "# a comment\n\n"
            + format_query(sample_records[0])
            + "\n\n# another\n"
            + format_response(sample_records[1])
            + "\n"
        )
        parsed = list(DnsTraceReader(io.StringIO(text)))
        assert parsed == sample_records[:2]


class TestFormat:
    def test_query_line_shape(self, sample_records):
        line = format_query(sample_records[0])
        assert line.split("\t") == [
            "Q", "1.250", "100", "10.20.0.5", "www.example.com", "A",
        ]

    def test_nxdomain_line_shape(self, sample_records):
        line = format_response(sample_records[3])
        assert line.endswith("NXDOMAIN")

    def test_writer_rejects_foreign_types(self):
        writer = DnsTraceWriter(io.StringIO())
        with pytest.raises(TypeError):
            writer.write("not a record")  # type: ignore[arg-type]


class TestRecordIterator:
    def test_context_manager_closes_owned_file(self, sample_records, tmp_path):
        path = tmp_path / "dns.log"
        with DnsTraceWriter(path) as writer:
            writer.write_all(sample_records)
        with DnsTraceReader(path).records() as records:
            first = next(records)
            assert first == sample_records[0]
            assert not records.closed
        assert records.closed

    def test_abandoned_pass_closes_on_exit(self, sample_records, tmp_path):
        # The whole point of the context manager: abandoning iteration
        # midway must still release the handle, not wait for GC.
        path = tmp_path / "dns.log"
        with DnsTraceWriter(path) as writer:
            writer.write_all(sample_records * 100)
        iterator = DnsTraceReader(path).records()
        next(iterator)
        iterator.close()
        assert iterator.closed
        iterator.close()  # idempotent
        assert list(iterator) == []

    def test_external_stream_left_open(self, sample_records):
        buffer = io.StringIO()
        DnsTraceWriter(buffer).write_all(sample_records)
        buffer.seek(0)
        with DnsTraceReader(buffer).records() as records:
            list(records)
        assert not buffer.closed

    def test_parse_error_closes_handle(self, tmp_path):
        path = tmp_path / "dns.log"
        path.write_text("Q\tbroken\n")
        iterator = DnsTraceReader(path).records()
        with pytest.raises(DnsLogFormatError):
            next(iterator)
        assert iterator.closed

    def test_skip_records_without_parsing(self, sample_records):
        # A malformed line inside the skipped region must NOT raise —
        # skipping counts lines, it never parses them.
        text = (
            "# header\n"
            + format_query(sample_records[0])
            + "\nQ\tbroken-but-skipped\n"
            + format_query(sample_records[2])
            + "\n"
        )
        with DnsTraceReader(io.StringIO(text)).records() as records:
            assert records.skip_records(2) == 2
            assert next(records) == sample_records[2]

    def test_skip_records_reports_shortfall(self, sample_records):
        buffer = io.StringIO()
        DnsTraceWriter(buffer).write_all(sample_records)
        buffer.seek(0)
        with DnsTraceReader(buffer).records() as records:
            assert records.skip_records(99) == len(sample_records)
            assert list(records) == []


class TestParseErrors:
    @pytest.mark.parametrize(
        "line",
        [
            "Q\t1.0\t5\t10.0.0.1\texample.com",  # missing field
            "Q\t1.0\txx\t10.0.0.1\texample.com\tA",  # bad txid
            "Q\t1.0\t5\t10.0.0.1\texample.com\tBOGUS",  # bad qtype
            "R\t1.0\t5\t10.0.0.1\texample.com\tA:1.2.3.4",  # bad answer
            "R\t1.0\t5\t10.0.0.1\texample.com\tA:1.2.3.4:-1",  # bad ttl
            "X\t1.0\t5\t10.0.0.1\texample.com\tA",  # unknown kind
            "Q\t1.0\t5\t10.0.0.1\x00\texample.com\tA",  # NUL in a field
            "R\t1.0\t5\t10.0.0.1\texample.com\tA:1.2.3.4\x00:60",  # NUL
        ],
    )
    def test_malformed_lines_raise_with_line_number(self, line):
        with pytest.raises(DnsLogFormatError) as excinfo:
            list(DnsTraceReader(io.StringIO(line + "\n")))
        assert excinfo.value.line_number == 1

    def test_error_reports_correct_line_number(self):
        good = "Q\t1.0\t5\t10.0.0.1\texample.com\tA\n"
        bad = "Q\tbroken\n"
        with pytest.raises(DnsLogFormatError) as excinfo:
            list(DnsTraceReader(io.StringIO(good + good + bad)))
        assert excinfo.value.line_number == 3


# ---------------------------------------------------------------------------
# The column reader and the object reader agree (Hypothesis)

_TYPES = [qtype.value for qtype in QueryType]
_type_token = st.sampled_from(_TYPES).flatmap(
    lambda name: st.sampled_from([name, name.lower(), name.capitalize()])
)
_token = st.text(alphabet="abcxyz019.-", max_size=10)
_txid = st.integers(min_value=0, max_value=0xFFFF).map(str)


def _stamp(min_value):
    return st.floats(
        min_value=min_value, max_value=1e7, allow_nan=False,
        allow_infinity=False,
    ).map(repr)


def _answer(rtype=_type_token, ttl=st.integers(0, 2**31)):
    return st.tuples(rtype, _token, ttl.map(str)).map(":".join)


_payload = st.one_of(
    st.just("NXDOMAIN"),
    st.lists(_answer(), max_size=4).map(",".join),
)
_query_line = st.tuples(
    st.just("Q"), _stamp(0.0), _txid, _token, _token, _type_token
).map(list)
_response_line = st.tuples(
    st.just("R"), _stamp(-1e7), _txid, _token, _token, _payload
).map(list)
_record_line = st.one_of(_query_line, _response_line)


def _set(index, value):
    """Mutation setting field ``index`` of a record line to ``value``."""
    return lambda fields: fields[:index] + [value] + fields[index + 1:]


#: Mutation name -> (lines it applies to, strategy of field rewrites).
_MUTATIONS = {
    "field_count": (_record_line, st.sampled_from(
        [lambda f: f[:-1], lambda f: f + ["extra"], lambda f: f[:2]]
    )),
    "bad_float": (_record_line, st.sampled_from(
        ["abc", "", "1.2.3", "--1"]
    ).map(lambda v: _set(1, v))),
    "bad_txid": (_record_line, st.sampled_from(
        ["xx", "", "1.5", "0x10"]
    ).map(lambda v: _set(2, v))),
    "txid_range": (_record_line, st.one_of(
        st.integers(min_value=0x10000), st.integers(max_value=-1)
    ).map(lambda v: _set(2, str(v)))),
    "negative_query_stamp": (_query_line, st.floats(
        max_value=-1e-3, min_value=-1e7
    ).map(lambda v: _set(1, repr(v)))),
    "unknown_qtype": (_query_line, st.sampled_from(
        ["BOGUS", "any", "A6", ""]
    ).map(lambda v: _set(5, v))),
    "unknown_rtype": (_response_line, _answer(
        rtype=st.sampled_from(["BOGUS", "any", ""])
    ).map(lambda v: _set(5, v))),
    "two_part_answer": (_response_line, st.sampled_from(
        ["A:1.2.3.4", "A:1.2.3.4:60,MX:mail", "1.2.3.4"]
    ).map(lambda v: _set(5, v))),
    "negative_ttl": (_response_line, _answer(
        ttl=st.integers(max_value=-1)
    ).map(lambda v: _set(5, v))),
    "nul_byte": (_record_line, st.sampled_from([3, 4, 5]).map(
        lambda i: lambda f: _set(i, "\x00" + f[i])(f)
    )),
    "unknown_kind": (_record_line, st.sampled_from(
        ["X", "q", "r", "QR", ""]
    ).map(lambda v: _set(0, v))),
}


@st.composite
def _traces(draw, mutation=None):
    """Trace text plus the 1-based line number of its mutated line."""
    lines = [
        "\t".join(fields)
        for fields in draw(st.lists(_record_line, max_size=12))
    ]
    for __ in range(draw(st.integers(min_value=0, max_value=3))):
        index = draw(st.integers(min_value=0, max_value=len(lines)))
        lines.insert(index, draw(st.sampled_from(["", "# note"])))
    bad_line = None
    if mutation is not None:
        fields_strategy, rewrite = _MUTATIONS[mutation]
        fields = draw(rewrite)(draw(fields_strategy))
        index = draw(st.integers(min_value=0, max_value=len(lines)))
        lines.insert(index, "\t".join(fields))
        bad_line = index + 1
    return "".join(line + "\n" for line in lines), bad_line


def _all_columns(text, max_records):
    with DnsTraceReader(io.StringIO(text)).records() as records:
        batches = []
        while batch := records.read_columns(max_records):
            batches.append(batch)
    return batches


class TestColumnReaderAgrees:
    @given(_traces(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=150)
    def test_valid_trace_same_columns(self, trace, max_records):
        text, __ = trace
        records = list(DnsTraceReader(io.StringIO(text)))
        assert _all_columns(text, 10**6) == (
            [TraceColumns.from_records(records)] if records else []
        )
        assert _all_columns(text, max_records) == [
            TraceColumns.from_records(records[i:i + max_records])
            for i in range(0, len(records), max_records)
        ]

    @pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
    @given(data=st.data())
    @settings(max_examples=25)
    def test_invalid_trace_same_error(self, mutation, data):
        text, bad_line = data.draw(_traces(mutation))
        with pytest.raises(DnsLogFormatError) as by_objects:
            list(DnsTraceReader(io.StringIO(text)))
        with pytest.raises(DnsLogFormatError) as by_columns:
            _all_columns(text, 10**6)
        assert by_objects.value.line_number == bad_line
        assert by_columns.value.line_number == bad_line
        assert by_columns.value.reason == by_objects.value.reason
