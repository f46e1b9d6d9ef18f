"""Tests for trace record types and log IO."""

import pytest

from repro.errors import TraceFormatError
from repro.workload import (
    RequestRecord,
    UpdateRecord,
    read_request_log,
    read_update_log,
    write_request_log,
    write_update_log,
)


class TestRecords:
    def test_request_valid(self):
        r = RequestRecord(timestamp_ms=1.5, cache_node=1, doc_id=0)
        assert r.timestamp_ms == 1.5

    def test_request_negative_time_rejected(self):
        with pytest.raises(TraceFormatError):
            RequestRecord(timestamp_ms=-1.0, cache_node=1, doc_id=0)

    def test_request_to_origin_rejected(self):
        with pytest.raises(TraceFormatError):
            RequestRecord(timestamp_ms=0.0, cache_node=0, doc_id=0)

    def test_request_negative_doc_rejected(self):
        with pytest.raises(TraceFormatError):
            RequestRecord(timestamp_ms=0.0, cache_node=1, doc_id=-1)

    def test_update_valid(self):
        u = UpdateRecord(timestamp_ms=3.0, doc_id=2)
        assert u.doc_id == 2

    def test_update_negative_rejected(self):
        with pytest.raises(TraceFormatError):
            UpdateRecord(timestamp_ms=-0.1, doc_id=0)

    @pytest.mark.parametrize(
        "timestamp", [float("nan"), float("inf")], ids=["nan", "inf"]
    )
    def test_non_finite_timestamps_rejected(self, timestamp):
        with pytest.raises(TraceFormatError, match="finite"):
            RequestRecord(timestamp, 1, 0)
        with pytest.raises(TraceFormatError, match="finite"):
            UpdateRecord(timestamp, 0)

    def test_records_order_by_time(self):
        a = RequestRecord(1.0, 1, 0)
        b = RequestRecord(2.0, 1, 0)
        assert a < b


class TestRoundTrip:
    def test_request_log(self, tmp_path):
        records = [
            RequestRecord(0.5, 1, 10),
            RequestRecord(1.25, 2, 3),
            RequestRecord(1.25, 1, 10),
        ]
        path = tmp_path / "requests.log"
        write_request_log(records, path)
        assert read_request_log(path) == records

    def test_update_log(self, tmp_path):
        records = [UpdateRecord(0.0, 1), UpdateRecord(9.75, 2)]
        path = tmp_path / "updates.log"
        write_update_log(records, path)
        assert read_update_log(path) == records

    def test_empty_logs(self, tmp_path):
        path = tmp_path / "empty.log"
        write_request_log([], path)
        assert read_request_log(path) == []

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "requests.log"
        path.write_text(
            "# a comment\n\n1.0\t1\t5\n# another\n2.0\t2\t6\n"
        )
        records = read_request_log(path)
        assert len(records) == 2
        assert records[0].doc_id == 5


class TestFormatErrors:
    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("1.0\t1\n")
        with pytest.raises(TraceFormatError, match="expected 3 fields"):
            read_request_log(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("abc\t1\t2\n")
        with pytest.raises(TraceFormatError):
            read_request_log(path)

    def test_out_of_order_rejected_on_read(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("2.0\t1\t0\n1.0\t1\t0\n")
        with pytest.raises(TraceFormatError, match="out of time order"):
            read_request_log(path)

    def test_out_of_order_rejected_on_write(self, tmp_path):
        records = [RequestRecord(2.0, 1, 0), RequestRecord(1.0, 1, 0)]
        with pytest.raises(TraceFormatError):
            write_request_log(records, tmp_path / "x.log")

    def test_update_wrong_fields(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("1.0\t2\t3\n")
        with pytest.raises(TraceFormatError, match="expected 2 fields"):
            read_update_log(path)

    def test_nan_timestamp_names_file_and_line(self, tmp_path):
        # NaN compares false, so an unchecked NaN would also hide the
        # out-of-order 0.5 that follows it from the order check.
        path = tmp_path / "nan.log"
        path.write_text("1.0\t1\t0\nnan\t1\t0\n0.5\t1\t0\n")
        with pytest.raises(TraceFormatError, match=r"nan\.log:2: .*finite"):
            read_request_log(path)

    def test_nan_update_timestamp_names_file_and_line(self, tmp_path):
        path = tmp_path / "nan-updates.log"
        path.write_text("# header\nnan\t3\n")
        with pytest.raises(TraceFormatError, match="nan-updates.log:2"):
            read_update_log(path)

    def test_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "named.log"
        path.write_text("1.0\t1\t5\nbroken line here\n")
        with pytest.raises(TraceFormatError, match="named.log:2"):
            read_request_log(path)
