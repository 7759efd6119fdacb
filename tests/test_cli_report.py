"""CLI and reporting tests."""

import pytest

from repro.cli import main
from repro.report import Table


class TestTable:
    def test_text_alignment(self):
        t = Table(["name", "value"], title="demo")
        t.add_row("a", 1)
        t.add_row("longer_name", 2.5)
        text = t.to_text()
        assert "demo" in text
        lines = text.splitlines()
        assert lines[1].startswith("name")
        assert "longer_name" in text

    def test_markdown(self):
        t = Table(["a", "b"])
        t.add_row("x", "y")
        md = t.to_markdown()
        assert "| a | b |" in md and "| x | y |" in md

    def test_csv_escaping(self):
        t = Table(["a"])
        t.add_row('has,comma "quoted"')
        csv = t.to_csv()
        assert '"has,comma ""quoted"""' in csv

    def test_wrong_arity_rejected(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row("only one")

    def test_float_formatting(self):
        t = Table(["v"])
        t.add_row(1234.5)
        t.add_row(3.14159)
        t.add_row(0.001234)
        text = t.to_text()
        assert "1234" in text and "3.14" in text and "0.001" in text


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sync_counters" in out and "equal_count" in out

    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "gpt-4o" in out and "llama-3-70b" in out

    def test_campaign_has_no_strategy_selection_flags(self, capsys):
        with pytest.raises(SystemExit) as shown:
            main(["campaign", "--help"])
        assert shown.value.code == 0
        out = capsys.readouterr().out
        assert "--jobs" in out
        assert "--no-adaptive" not in out and "--min-samples" not in out
        with pytest.raises(SystemExit) as refused:
            main(["campaign", "updown_counter", "--no-adaptive"])
        assert refused.value.code == 2

    def test_prove_success(self, capsys):
        assert main(["prove", "updown_counter", "upper_bound"]) == 0
        assert "proven" in capsys.readouterr().out

    def test_prove_unknown_exit_code(self, capsys):
        assert main(["prove", "sync_counters", "equal_count",
                     "--max-k", "1"]) == 1
        assert "unknown" in capsys.readouterr().out

    def test_bmc_finds_bug(self, capsys):
        assert main(["bmc", "sync_counters_bug", "counters_equal"]) == 1
        out = capsys.readouterr().out
        assert "violated" in out
        assert "count1" in out  # waveform printed

    def test_repair(self, capsys):
        assert main(["repair", "sync_counters", "equal_count",
                     "--model", "gpt-4o", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "proven" in out

    def test_wave(self, capsys):
        assert main(["wave", "sync_counters", "equal_count"]) == 0
        out = capsys.readouterr().out
        assert "pre-state" in out

    def test_lemma(self, capsys):
        assert main(["lemma", "sync_counters", "--model", "oracle"]) == 0
        out = capsys.readouterr().out
        assert "lemma flow on sync_counters" in out
