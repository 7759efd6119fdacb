"""Trace model and waveform rendering tests."""

import pytest

from repro.errors import TraceError
from repro.ir import expr as E
from repro.ir.system import Signal
from repro.trace.trace import Trace, TraceKind
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

    def test_signal_subset_and_cycle_cap(self, small_trace):
        text = render_wave(small_trace, signals=["count2"], max_cycles=2)
        assert "count2" in text and "count1" not in text
        assert "k+1" in text and "k+2" not in text
        assert "00" in text and "01" not in text

    def test_bit_order_low_to_high(self, small_trace):
        rows = [line.split()[0] for line in render_bit_wave(
            small_trace, "count1", bit_high_to_low=False).splitlines()[3:]]
        assert rows == [f"count1[{b}]" for b in range(8)]


class TestFromModelValues:
    def test_defines_are_recomputed_per_cycle(self, sync_counters_system):
        s = sync_counters_system
        s.add_define("diff", E.sub(E.var("count1", 8), E.var("count2", 8)))
        trace = Trace.from_model_values(
            s, [{"count1": 3, "count2": 1}, {"count1": 4, "count2": 4}],
            kind=TraceKind.BMC_CEX, property_name="counters_equal")
        assert trace.signal_names() == ["count1", "count2", "diff"]
        assert trace.values_over_time("diff") == [2, 0]
        assert trace.kind is TraceKind.BMC_CEX
        assert trace.property_name == "counters_equal"
