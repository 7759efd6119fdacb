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

    def test_reader_that_left_ends_the_command_quietly(self):
        """`repro-verify list | head -1`: a reader that closes early
        ends the command with exit 1 and no traceback."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        read_end, write_end = os.pipe()
        os.close(read_end)          # gone before the first line arrives
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "list"], stdout=write_end,
                stderr=subprocess.PIPE, env=env, text=True, timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, "")

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
                            "--backend", str(tmp_path)]) == 2
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



def _subcommand_options() -> dict[str, set[str]]:
    """Every subcommand's option strings, by subcommand name."""
    import argparse

    from repro.cli import build_parser
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for action in parser._actions
                   for opt in action.option_strings}
            for name, parser in sub.choices.items()}


class TestOnlyTheKnobsADeploymentTurns:
    """The store is named one way (``--backend``), a worker races its
    job inline, and the fabric's tuning values are constants: the flags
    and parameters that once set them stay gone."""

    @pytest.mark.parametrize("argv", [
        ["verify", "updown_counter", "--cache-dir", "D"],
        ["campaign", "updown_counter", "--cache-dir", "D"],
        ["status", "--cache-dir", "D"],
        ["explain", "d", "p", "--cache-dir", "D"],
        ["repair", "d", "p", "--cache-dir", "D"],
        ["lemma", "d", "--cache-dir", "D"],
        ["worker", "--backend", "D", "--cache-dir", "D"],
        ["campaign", "updown_counter", "--worker-jobs", "2"],
        ["worker", "--backend", "D", "--jobs", "2"],
        ["worker", "--backend", "D", "--poll-interval", "0.1"],
        ["worker", "--backend", "D", "--idle-timeout", "5"],
        ["worker", "--backend", "D", "--max-jobs", "3"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_removed_flag_is_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_only_serve_names_a_cache_dir(self):
        options = _subcommand_options()
        assert [name for name, opts in options.items()
                if "--cache-dir" in opts] == ["serve"]
        for name in ("verify", "campaign", "status", "explain", "worker",
                     "repair", "lemma"):
            assert "--backend" in options[name], name

    def test_worker_takes_only_backend_id_and_lease(self):
        assert _subcommand_options()["worker"] == \
            {"-h", "--help", "--backend", "--id", "--lease"}

    @pytest.mark.parametrize("build, name", [
        (lambda d: _session(store=None), "store"),
        (lambda d: _session(cache_dir=d), "cache_dir"),
        (lambda d: _session(cache=None), "cache"),
        (lambda d: _session(jobs=2), "jobs"),
        (lambda d: _run_campaign(designs=["updown_counter"],
                                 cache_dir=d, worker_jobs=2),
         "worker_jobs"),
        (lambda d: _coordinator(d, worker_jobs=2), "worker_jobs"),
        (lambda d: _coordinator(d, max_respawns=1), "max_respawns"),
        (lambda d: _coordinator(d, poll_interval=0.1), "poll_interval"),
        (lambda d: _worker(d, jobs=2), "jobs"),
        (lambda d: _worker(d, poll_interval=0.1), "poll_interval"),
        (lambda d: _worker(d, max_jobs=3), "max_jobs"),
        (lambda d: _remote("RemoteWorkQueue", timeout=1.0), "timeout"),
        (lambda d: _remote("RemoteProofStore", timeout=1.0), "timeout"),
    ], ids=["session-store", "session-cache_dir", "session-cache",
            "session-jobs", "run_campaign-worker_jobs",
            "coordinator-worker_jobs", "coordinator-max_respawns",
            "coordinator-poll_interval", "worker-jobs",
            "worker-poll_interval", "worker-max_jobs", "queue-timeout",
            "store-timeout"])
    def test_removed_parameter_is_refused(self, build, name, tmp_path):
        with pytest.raises(TypeError,
                           match=f"unexpected keyword argument '{name}'"):
            build(tmp_path)
        assert list(tmp_path.iterdir()) == []     # refused before any I/O


def _session(**kwargs):
    from repro.designs.registry import get_design
    from repro.flow.session import VerificationSession
    return VerificationSession(get_design("updown_counter"), **kwargs)


def _run_campaign(**kwargs):
    from repro.flow.session import run_campaign
    return run_campaign(**kwargs)


def _coordinator(directory, **kwargs):
    from repro.dist.coordinator import Coordinator
    return Coordinator(directory, **kwargs)


def _worker(directory, **kwargs):
    from repro.dist.worker import Worker
    return Worker(directory, **kwargs)


def _remote(proxy, **kwargs):
    import repro.dist.remote as remote
    return getattr(remote, proxy)("http://127.0.0.1:9", **kwargs)


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
