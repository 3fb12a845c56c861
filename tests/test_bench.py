"""Bench harness: exact counts, report formats, strategy parsing."""

import json

import numpy as np
import pytest

from lidarseq.aggregation import (
    aggregate_direct,
    aggregate_fsa,
    aggregate_stepped,
    division_preset,
)
from lidarseq.bench import BenchReport, BenchRow, parse_strategy, run_bench
from lidarseq.errors import InvalidInputError, UsageError
from lidarseq.sequence import SyntheticSceneSpec, generate_synthetic

DIVISION = division_preset("division3")


def make_frames(frame_count=20, points=400, seed=0):
    spec = SyntheticSceneSpec(
        frame_count=frame_count,
        points_per_frame=points,
        classes={40: 0.4, 50: 0.3, 70: 0.2, 10: 0.1},
        seed=seed,
        extent=30.0,
    )
    return generate_synthetic(spec)


FRAMES = make_frames()


class TestParseStrategy:
    def test_plain_forms(self):
        assert parse_strategy("direct") == ("direct", None)
        assert parse_strategy("fsa") == ("fsa", None)
        assert parse_strategy("stepped:4") == ("stepped", 4)

    def test_bad_forms_are_usage_errors(self):
        for bad in ("nearest", "stepped:x", "stepped:0", "stepped:", "DIRECT"):
            with pytest.raises(UsageError):
                parse_strategy(bad)

    def test_unknown_strategy_names_the_valid_forms(self):
        with pytest.raises(UsageError, match="direct, stepped:<step>, fsa"):
            parse_strategy("bogus")


class TestRunBench:
    def test_direct_window_zero_counts_one_frame(self):
        report = run_bench(FRAMES, ["direct"], t_values=[5], windows=[0], repeats=1)
        assert report.rows[0].points == FRAMES[5].count

    def test_counts_match_the_aggregation_oracle(self):
        report = run_bench(
            FRAMES,
            ["direct", "stepped:4", "fsa"],
            t_values=[12, 16],
            windows=[8],
            division=DIVISION,
            repeats=1,
        )
        want = {
            "direct": sum(aggregate_direct(FRAMES, t, 8).count for t in (12, 16)),
            "stepped:4": sum(aggregate_stepped(FRAMES, t, 8, 4).count for t in (12, 16)),
            "fsa": sum(
                aggregate_fsa(FRAMES, t, DIVISION.with_window(8)).count for t in (12, 16)
            ),
        }
        for row in report.rows:
            assert row.points == want[row.strategy]

    def test_fsa_never_outcounts_direct(self):
        report = run_bench(
            FRAMES, ["direct", "fsa"], t_values=[16], windows=[4, 8, 16],
            division=DIVISION, repeats=1,
        )
        by_key = {(r.strategy, r.window): r.points for r in report.rows}
        for window in (4, 8, 16):
            assert by_key[("fsa", window)] <= by_key[("direct", window)]

    def test_window_sweep_emits_one_monotone_row_per_window(self):
        windows = [4, 8, 12, 16, 20, 24, 28]
        report = run_bench(
            make_frames(frame_count=30), ["fsa"], t_values=[29], windows=windows,
            division=DIVISION, repeats=1,
        )
        assert len(report.rows) == 7
        assert [r.window for r in report.rows] == windows
        counts = [r.points for r in report.rows]
        assert counts == sorted(counts)

    def test_byte_estimate_is_exact(self):
        report = run_bench(FRAMES, ["direct"], t_values=[10], windows=[4], repeats=1)
        row = report.rows[0]
        assert row.bytes == row.points * 16

    def test_division_name_appears_only_on_fsa_rows(self):
        report = run_bench(
            FRAMES, ["direct", "fsa"], t_values=[8], windows=[4],
            division=DIVISION, repeats=1,
        )
        names = {r.strategy: r.division for r in report.rows}
        assert names["fsa"] == "division3"
        assert names["direct"] == "-"

    def test_fsa_without_division_is_a_usage_error(self):
        with pytest.raises(UsageError):
            run_bench(FRAMES, ["fsa"], t_values=[8], windows=[4])

    def test_degenerate_arguments_rejected(self):
        with pytest.raises(UsageError):
            run_bench(FRAMES, [], t_values=[8])
        with pytest.raises(InvalidInputError):
            run_bench(FRAMES, ["direct"], t_values=[])
        with pytest.raises(InvalidInputError):
            run_bench(FRAMES, ["direct"], t_values=[8], windows=[])
        with pytest.raises(InvalidInputError):
            run_bench(FRAMES, ["direct"], t_values=[8], repeats=0)


class TestReportFormats:
    def report(self):
        return run_bench(
            FRAMES, ["direct", "fsa"], t_values=[10], windows=[4, 8],
            division=DIVISION, repeats=1,
        )

    def test_machine_lines_are_sorted_key_json(self):
        text = self.report().to_machine()
        lines = text.strip().split("\n")
        assert len(lines) == 4
        for line in lines:
            record = json.loads(line)
            assert list(record) == sorted(record)
            assert set(record) == {"strategy", "window", "division", "points", "bytes", "millis"}

    def test_runs_identical_modulo_timing(self):
        def untimed(text):
            records = [json.loads(line) for line in text.splitlines()]
            for record in records:
                del record["millis"]
            return records

        assert untimed(self.report().to_machine()) == untimed(self.report().to_machine())

    def test_table_has_a_row_per_bench_row(self):
        report = self.report()
        table = report.to_table()
        lines = table.strip().split("\n")
        assert len(lines) == 2 + len(report.rows)
        assert "strategy" in lines[0] and "points" in lines[0]
