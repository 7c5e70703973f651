"""Exporter round-trips: JSONL events, Chrome traces, Prometheus text."""

import json

from repro.catalog import GeneratorProfile, generate
from repro.fuzz.driver import execute_cell
from repro.obs import (
    EventBus,
    EventLog,
    MetricsRegistry,
    SpanTracer,
    chrome_trace,
    events_from_jsonl,
    events_to_jsonl,
    prometheus_text,
    validate_chrome_trace,
)
from repro.obs.export import TICK_US


def _traced_cell(seed=3, protocol="open-nested-oo"):
    spec = generate(seed, GeneratorProfile.smoke())
    bus = EventBus()
    log = EventLog(bus)
    tracer = SpanTracer(bus)
    result = execute_cell(spec, protocol, bus=bus)
    tracer.finish(result.makespan)
    return result, log, tracer


class TestJsonl:
    def test_real_event_stream_round_trips_exactly(self):
        _, log, _ = _traced_cell()
        assert len(log) > 0
        text = events_to_jsonl(log)
        assert events_from_jsonl(text) == list(log)

    def test_blank_lines_are_ignored(self):
        _, log, _ = _traced_cell()
        text = "\n\n" + events_to_jsonl(log) + "\n\n"
        assert events_from_jsonl(text) == list(log)


class TestChromeTrace:
    def test_real_run_validates_clean(self):
        _, _, tracer = _traced_cell()
        trace = chrome_trace(tracer.trees())
        assert trace["traceEvents"]
        assert validate_chrome_trace(trace) == []

    def test_trace_is_json_serializable(self):
        _, _, tracer = _traced_cell()
        trace = chrome_trace(tracer.trees())
        assert json.loads(json.dumps(trace)) == trace

    def test_every_transaction_becomes_a_named_thread(self):
        _, _, tracer = _traced_cell()
        trace = chrome_trace(tracer.trees())
        names = {
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert names == {root.txn for root in tracer.trees()}

    def test_nesting_reproduces_the_call_tree(self):
        """Each child span's interval lies inside its parent's."""
        _, _, tracer = _traced_cell()
        for root in tracer.trees():
            for span in root.iter_spans():
                end = span.end if span.end is not None else span.start
                for child in span.children:
                    child_end = (
                        child.end if child.end is not None else child.start
                    )
                    assert span.start <= child.start
                    assert child_end <= end

    def test_ticks_scale_to_trace_microseconds(self):
        _, _, tracer = _traced_cell()
        trace = chrome_trace(tracer.trees())
        root = tracer.trees()[0]
        starts = [
            event["ts"]
            for event in trace["traceEvents"]
            if event["ph"] == "X" and event["name"] == root.label
        ]
        assert root.start * TICK_US in starts

    def test_validator_rejects_partial_overlap(self):
        trace = {
            "traceEvents": [
                {"name": "a", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 1},
                {"name": "b", "ph": "X", "ts": 5, "dur": 10, "pid": 1, "tid": 1},
            ]
        }
        problems = validate_chrome_trace(trace)
        assert len(problems) == 1
        assert "partial overlap" in problems[0]

    def test_validator_rejects_non_integer_timestamps(self):
        trace = {
            "traceEvents": [
                {"name": "a", "ph": "X", "ts": 0.5, "dur": 10, "pid": 1, "tid": 1},
            ]
        }
        assert validate_chrome_trace(trace) == [
            "X event without int ts/dur: a"
        ]

    def test_validator_rejects_missing_trace_events(self):
        assert validate_chrome_trace({}) == [
            "traceEvents missing or not a list"
        ]


class TestPrometheusText:
    def test_renders_help_type_and_samples(self):
        registry = MetricsRegistry()
        counter = registry.counter("widgets_total", "widgets made")
        counter.inc(3)
        gauge = registry.gauge("depth", "current depth")
        gauge.set(2)
        text = prometheus_text(registry)
        assert "# HELP widgets_total widgets made" in text
        assert "# TYPE widgets_total counter" in text
        assert "widgets_total 3" in text
        assert "# TYPE depth gauge" in text
        assert "depth 2" in text
        assert text.endswith("\n")

    def test_labelled_family_renders_sorted_labels(self):
        registry = MetricsRegistry()
        family = registry.counter(
            "requests_total", "requests", labelnames=("mode", "obj")
        )
        family.labels(mode="read", obj="P1").inc(2)
        family.labels(mode="write", obj="P1").inc()
        text = prometheus_text(registry)
        assert 'requests_total{mode="read",obj="P1"} 2' in text
        assert 'requests_total{mode="write",obj="P1"} 1' in text

    def test_histogram_renders_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", "latency", bounds=(1, 10))
        for value in (0, 5, 50):
            hist.observe(value)
        text = prometheus_text(registry)
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="10"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 55" in text
        assert "lat_count 3" in text

    def test_real_run_registry_renders(self):
        result, _, _ = _traced_cell(seed=0, protocol="page-2pl")
        text = prometheus_text(result.db.metrics)
        assert "# TYPE scheduler_acquired_total counter" in text
        assert 'page_lock_requests_total{mode="read"}' in text
        assert "# TYPE lock_wait_ticks histogram" in text
