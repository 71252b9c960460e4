"""Tests for profile export (kernel tables, summaries)."""

import pytest

from repro.gpu.trace import summarize, to_kernel_table
from repro.models import BERT_LARGE, InferenceSession


@pytest.fixture(scope="module")
def profile():
    return InferenceSession(BERT_LARGE, seq_len=1024).simulate().profile


class TestTables:
    def test_kernel_table_rows(self, profile):
        table = to_kernel_table(profile, limit=5)
        lines = table.splitlines()
        assert len(lines) == 7  # header + rule + 5 rows
        assert "bound" in lines[0]

    def test_summary_totals(self, profile):
        text = summarize(profile)
        assert "TOTAL" in text
        assert "softmax" in text
        assert f"{profile.total_time() * 1e3:.2f}" in text
