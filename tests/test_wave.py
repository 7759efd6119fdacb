"""Waveform renderer coverage and the golden counterexample.

Counterexample artifacts are evidence; these tests pin down that a
known counterexample renders to a byte-stable golden waveform.
"""

from pathlib import Path

from repro.designs.registry import get_design
from repro.flow.session import VerificationSession
from repro.ir.system import Signal
from repro.mc.result import Status
from repro.trace.trace import Trace, TraceKind
from repro.trace.wave import render_bit_wave, render_for_prompt, render_wave

GOLDEN = Path(__file__).parent / "golden" / "sync_counters_bug_cex.wave.txt"


def _multi_width_trace() -> Trace:
    signals = [Signal("en", 1, "input"), Signal("cnt", 3, "state"),
               Signal("wide", 8, "state"), Signal("sum", 5, "define")]
    steps = [
        {"en": 1, "cnt": 0, "wide": 0, "sum": 0},
        {"en": 0, "cnt": 1, "wide": 255, "sum": 17},
        {"en": 1, "cnt": 1, "wide": 255, "sum": 17},   # partial change
        {"en": 1, "cnt": 7, "wide": 128, "sum": 31},
    ]
    return Trace(signals, steps, kind=TraceKind.SIMULATION)


def _cex() -> Trace:
    session = VerificationSession(get_design("sync_counters_bug"),
                                  model="gpt-4o", seed=1)
    result = session.bmc("counters_equal", bound=18)
    assert result.status is Status.VIOLATED
    return result.cex


class TestGoldenCounterexample:
    """The sync_counters_bug CEX is the paper's running example (Fig. 3)."""

    def test_golden_wave_is_current(self):
        assert render_wave(_cex()) + "\n" == GOLDEN.read_text(), (
            "sync_counters_bug counterexample waveform drifted from the "
            "golden file; if the change is intentional, regenerate "
            "tests/golden/sync_counters_bug_cex.wave.txt from "
            "render_wave of a bound-18 BMC run")

    def test_counterexample_shows_the_missed_increment(self):
        cex = _cex()
        assert cex.length == 17
        # The seeded bug: count2 misses one increment at the 16-wrap.
        assert cex.value("count1", 16) != cex.value("count2", 16)


class TestWaveRenderers:
    def test_hex_wave_multi_width(self):
        text = render_wave(_multi_width_trace())
        assert "wide" in text and "ff" in text
        assert "cnt" in text and " 7" in text

    def test_bit_wave_compare_marks_divergence(self):
        cex = _cex()
        text = render_bit_wave(cex, "count2", compare_with="count1")
        assert "*" in text  # at least one diverging (bit, cycle)
        same = render_bit_wave(cex, "count1", compare_with="count1")
        assert "*" not in same

    def test_render_for_prompt_on_the_counterexample(self):
        text = render_for_prompt(_cex(), max_cycles=4)
        assert "count1" in text
