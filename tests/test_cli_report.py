"""CLI and reporting tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import ProofStore
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

    def test_bmc_bound_zero_is_depth_zero(self, capsys):
        assert main(["bmc", "sync_counters_bug", "counters_equal",
                     "--bound", "0"]) == 0
        assert "violated" not in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_spec_option_the_strategy_does_not_take(self, jobs, capsys):
        assert main(["verify", "updown_counter", "--strategy",
                     "bmc(bnd=3)", "--jobs", jobs]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and "\n" not in err
        assert "takes no option bnd" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("argv", [
        ["verify", "updown_counter", "--strategy", "bmc", "--bound", "-2"],
        ["verify", "updown_counter", "--strategy", "pdr(max_frames=-1)"],
        ["verify", "updown_counter", "--max-k", "-1"],
    ], ids=["bound", "max_frames", "max_k"])
    def test_negative_depth_is_refused_and_not_cached(self, argv, jobs,
                                                      tmp_path, capsys):
        assert main(argv + ["--jobs", jobs,
                            "--cache-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and "\n" not in err
        assert "is negative" in err
        assert len(ProofStore.open(tmp_path)) == 0

    @pytest.mark.parametrize("argv", [
        ["bmc", "updown_counter", "upper_bound", "--bound", "-1"],
        ["prove", "updown_counter", "upper_bound", "--max-k", "-1"],
    ], ids=["bmc", "prove"])
    def test_negative_depth_single_check(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and \
            "is negative" in captured.err

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


@pytest.mark.parametrize("module", ["repro.cli", "repro.flow"])
def test_importing_does_not_load_the_fabric(module):
    """The CLI and the flows reach the distributed fabric lazily:
    importing them must not pull in ``repro.dist`` (and with it the
    HTTP server), which would tax every command's start-up."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    loaded = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print(' '.join(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60,
        check=True).stdout.split()
    assert "repro.dist" not in loaded
    assert "http.server" not in loaded
