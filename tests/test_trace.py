"""Trace, waveform rendering, VCD, and CEX analysis tests."""

import pytest

from repro.errors import TraceError
from repro.ir import expr as E
from repro.ir.system import Signal
from repro.trace.analyze import pre_state, signals_differing, violated_here
from repro.trace.trace import Trace, TraceKind
from repro.trace.vcd import to_vcd
from repro.trace.wave import render_bit_wave, render_for_prompt, render_wave


@pytest.fixture
def small_trace():
    signals = [Signal("en", 1, "input"), Signal("count1", 8, "state"),
               Signal("count2", 8, "state")]
    steps = [
        {"en": 1, "count1": 0xFC, "count2": 0xFF},
        {"en": 1, "count1": 0xFD, "count2": 0x00},
        {"en": 1, "count1": 0xFE, "count2": 0x01},
    ]
    return Trace(signals, steps, kind=TraceKind.STEP_CEX,
                 property_name="equal_count")


class TestTraceModel:
    def test_values(self, small_trace):
        assert small_trace.length == 3
        assert small_trace.value("count1", 0) == 0xFC
        assert small_trace.values_over_time("count2") == [0xFF, 0, 1]

    def test_bad_access(self, small_trace):
        with pytest.raises(TraceError):
            small_trace.value("ghost", 0)
        with pytest.raises(TraceError):
            small_trace.value("count1", 9)

    def test_missing_signal_rejected_at_construction(self):
        with pytest.raises(TraceError):
            Trace([Signal("a", 1, "input")], [{}])

    def test_restriction(self, small_trace):
        sub = small_trace.restricted(["count1"])
        assert sub.signal_names() == ["count1"]
        assert sub.length == 3
        assert sub.kind is TraceKind.STEP_CEX


class TestRendering:
    def test_hex_table(self, small_trace):
        text = render_wave(small_trace)
        assert "count1" in text and "fc" in text and "ff" in text
        assert "k+0" in text  # relative labels for step CEXes

    def test_bit_expansion_with_diff_markers(self, small_trace):
        text = render_bit_wave(small_trace, "count2", max_cycles=1,
                               compare_with="count1")
        assert "count2[7]" in text
        assert "*" in text  # bits 0/1 differ between fc and ff

    def test_prompt_rendering_includes_prestate(self, small_trace):
        text = render_for_prompt(small_trace)
        assert "pre-state" in text
        assert "count1=0xfc" in text

    def test_absolute_labels_for_bmc(self, small_trace):
        small_trace.kind = TraceKind.BMC_CEX
        assert "k+0" not in render_wave(small_trace)


class TestVcd:
    def test_header_and_changes(self, small_trace):
        vcd = to_vcd(small_trace)
        assert "$enddefinitions" in vcd
        assert "$var wire 8" in vcd
        assert "#0" in vcd and "#2" in vcd
        # count2 transitions to 0 at time 1: b0 must appear.
        assert "\nb0 " in vcd

    def test_unchanged_values_not_redumped(self, small_trace):
        vcd = to_vcd(small_trace)
        # en stays 1: appears once in the dumpvars block only.
        en_id = None
        for line in vcd.splitlines():
            if line.startswith("$var wire 1"):
                en_id = line.split()[3]
        assert en_id is not None
        changes = [line for line in vcd.splitlines()
                   if line == f"1{en_id}" or line == f"0{en_id}"]
        assert len(changes) == 1


class TestAnalysis:
    def test_pre_state(self, small_trace):
        pre = pre_state(small_trace)
        assert pre == {"count1": 0xFC, "count2": 0xFF}

    def test_signals_differing(self, small_trace):
        bits = signals_differing(small_trace, "count1", "count2", 0)
        assert bits == [0, 1]  # fc ^ ff == 0b11

    def test_violated_here(self, small_trace, sync_counters_system):
        candidate = E.eq(E.var("count1", 8), E.var("count2", 8))
        assert violated_here(sync_counters_system, small_trace, candidate,
                             time=0)

    def test_first_violation(self, small_trace, sync_counters_system):
        from repro.trace.analyze import first_violation
        candidate = E.eq(E.var("count1", 8), E.var("count2", 8))
        assert first_violation(sync_counters_system, small_trace,
                               candidate) == 0
        trivially_true = E.ule(E.var("count1", 8), E.const(255, 8))
        assert first_violation(sync_counters_system, small_trace,
                               trivially_true) is None
