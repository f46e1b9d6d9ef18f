"""Tests for repro.types: id conventions."""

from repro.types import ORIGIN_NODE_ID


class TestCacheIdMapping:
    def test_origin_is_node_zero(self):
        assert ORIGIN_NODE_ID == 0
