"""CLI flag coverage and experiment-result formatting details."""

import pytest

from repro.bench.run import build_parser, main as bench_main
from repro.bench.tables import ExperimentResult, fmt


class TestCliFlags:
    def test_bricks_flag_reaches_table7(self, capsys):
        assert bench_main(["table7", "--quick", "--bricks", "5"]) == 0
        out = capsys.readouterr().out
        assert "Table 7" in out

    def test_all_expands(self):
        parser = build_parser()
        args = parser.parse_args(["all", "--quick"])
        assert args.experiments == ["all"]
        assert args.quick

    def test_queries_flag_parsed(self):
        args = build_parser().parse_args(["table7", "--queries", "3"])
        assert args.queries == 3

    def test_device_sweep_runs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a run at the defaults writes its table
        assert bench_main(["device-sweep"]) == 0
        assert "Device sweep" in capsys.readouterr().out


class TestFormatting:
    def test_fmt_variants(self):
        assert fmt(None) == "None"
        assert fmt(True) == "True"
        assert fmt(12345) == "12,345"
        assert fmt(12345.6) == "12,346"
        assert fmt(1.2345) == "1.23"
        assert fmt(0.0) == "0"
        assert fmt("text") == "text"

    def test_to_text_includes_notes_and_summary(self):
        result = ExperimentResult(
            "title", ["a"], [[1]], notes=["a note"], summary={"k": 2.0}
        )
        text = result.to_text()
        assert "note: a note" in text
        assert "summary: k=2.00" in text
