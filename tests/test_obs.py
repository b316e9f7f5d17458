"""Tests for the observability stack (:mod:`repro.obs`).

Covers the tracer, the deterministic metrics registry, schema
validation / Chrome export, the Table-V-style run report, and the
instrumentation hooks wired into the channel, aggregators and trainer.
(The tracer's gating is covered with the other observers' in
``test_obs_ambient.py``.)
"""

import json
import math

import numpy as np
import pytest

from repro.aggregation import get_aggregator
from repro.faults import FaultPlan, FaultyChannel
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TraceEvent,
    Tracer,
    TraceSchemaError,
    build_report,
    load_trace,
    render_report,
    to_chrome_trace,
    validate_event,
    write_chrome_trace,
)
from repro.obs import trace
from repro.pipeline.event_run import EventDrivenRun, TimingConfig
from repro.sim.engine import Simulator
from repro.sim.latency import FixedLatency, UniformLatency
from repro.sim.network import Channel, NetworkStats
from repro.topology.tree import build_ecsm


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled."""
    trace.disable()
    yield
    trace.disable()


# ======================================================================
# metrics
# ======================================================================
class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Counter("x").inc(-1)

    def test_snapshot(self):
        c = Counter("x")
        c.inc(4)
        assert c.snapshot() == {"type": "counter", "value": 4.0}


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("x")
        g.set(3)
        g.set(-1.5)
        assert g.snapshot() == {"type": "gauge", "value": -1.5}


class TestHistogram:
    def test_bounds_must_be_nonempty_finite_increasing(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", [])
        with pytest.raises(ValueError, match="finite"):
            Histogram("h", [1.0, math.inf])
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", [1.0, 1.0])

    def test_bucket_placement_and_overflow(self):
        h = Histogram("h", [1.0, 2.0])
        for v in (0.5, 1.0, 1.5, 99.0):
            h.observe(v)
        # v <= bound places in the first matching bucket; 99 overflows
        assert h.buckets == [2, 1, 1]
        assert h.count == 4
        assert h.total == pytest.approx(102.0)
        assert (h.min, h.max) == (0.5, 99.0)

    def test_non_finite_observation_rejected(self):
        h = Histogram("h", [1.0])
        with pytest.raises(ValueError, match="non-finite"):
            h.observe(float("nan"))

    def test_empty_snapshot_has_null_extrema(self):
        snap = Histogram("h", [1.0]).snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h", [1.0]) is reg.histogram("h", [1.0])
        assert len(reg) == 2 and "a" in reg

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("a")

    def test_histogram_bounds_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", [1.0, 2.0])
        with pytest.raises(ValueError, match="bounds"):
            reg.histogram("h", [1.0, 3.0])

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            MetricsRegistry().counter("")

    def test_snapshot_is_name_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zeta").inc()
        reg.gauge("alpha").set(1)
        assert list(reg.snapshot()) == ["alpha", "zeta"]


# ======================================================================
# tracer
# ======================================================================
class TestTracer:
    def test_instant_and_span_record(self):
        tr = Tracer()
        tr.instant("tick", "sim", 1.5, actor=3, k=2)
        tr.span("work", "compute", 1.0, 4.0, extra="x")
        assert [e.ph for e in tr.events] == ["i", "X"]
        instant, span = tr.events
        assert (instant.t, instant.actor, instant.args) == (1.5, 3, {"k": 2})
        assert (span.t, span.dur) == (1.0, 3.0)

    def test_non_finite_timestamps_are_skipped(self):
        tr = Tracer()
        tr.instant("a", "c", float("nan"))
        tr.span("b", "c", float("nan"), 2.0)
        tr.span("b", "c", 1.0, float("inf"))
        assert tr.events == []

    def test_backwards_span_is_skipped(self):
        tr = Tracer()
        tr.span("b", "c", 2.0, 1.0)
        assert tr.events == []

    def test_args_are_made_json_safe(self):
        tr = Tracer()
        tr.instant(
            "a", "c", 0.0,
            nan=float("nan"),
            np_scalar=np.int64(7),
            nested={"x": np.float64(0.5), "y": (1, 2)},
            other=object(),
        )
        args = tr.events[0].args
        assert args["nan"] is None
        assert args["np_scalar"] == 7 and isinstance(args["np_scalar"], int)
        assert args["nested"] == {"x": 0.5, "y": [1, 2]}
        assert isinstance(args["other"], str)

    def test_ndarray_arg_serialises_as_list(self):
        tr = Tracer()
        tr.instant("a", "c", 0.0, scores=np.array([1.5, np.nan]), ids=np.arange(3))
        assert tr.events[0].args == {"scores": [1.5, None], "ids": [0, 1, 2]}
        assert '"ids": [0, 1, 2]' in tr.to_jsonl()

    def test_as_dict_omits_absent_fields(self):
        event = TraceEvent(name="a", cat="c", ph="i", t=0.0)
        assert event.as_dict() == {"name": "a", "cat": "c", "ph": "i", "t": 0.0}

    def test_to_jsonl_sorted_keys_and_trailing_newline(self):
        tr = Tracer()
        tr.span("w", "compute", 0.0, 1.0, actor=1, z=1, a=2)
        text = tr.to_jsonl()
        assert text.endswith("\n")
        obj = json.loads(text)
        keys = list(json.loads(text, object_pairs_hook=lambda p: [k for k, _ in p]))
        assert keys == sorted(keys)
        assert obj["dur"] == 1.0

    def test_empty_tracer_serialises_to_empty_string(self):
        assert Tracer().to_jsonl() == ""

    def test_identical_event_streams_are_byte_identical(self):
        def make():
            tr = Tracer()
            tr.instant("a", "c", 1.0, k=3)
            tr.span("b", "comm", 0.0, 2.0, actor=4)
            tr.metrics.counter("n").inc(2)
            tr.snapshot_metrics(2.0)
            return tr.to_jsonl()

        assert make() == make()

    def test_snapshot_metrics_emits_counter_samples(self):
        tr = Tracer()
        tr.metrics.counter("calls").inc(3)
        tr.metrics.histogram("lat", [1.0]).observe(0.5)
        tr.snapshot_metrics(7.0)
        samples = [e for e in tr.events if e.ph == "C"]
        assert [e.name for e in samples] == ["calls", "lat"]
        assert all(e.cat == "metrics" and e.t == 7.0 for e in samples)
        assert samples[0].args["value"] == 3.0

    def test_snapshot_metrics_skips_non_finite_time(self):
        tr = Tracer()
        tr.metrics.counter("calls").inc()
        tr.snapshot_metrics(float("nan"))
        assert tr.events == []

    def test_save_load_roundtrip(self, tmp_path):
        tr = Tracer()
        tr.span("w", "wait", 0.0, 1.5, actor=2, round=0)
        tr.instant("f", "fault", 1.0)
        path = tr.save(tmp_path / "t.jsonl")
        events = load_trace(path)
        assert len(events) == 2
        assert events[0]["dur"] == 1.5 and events[1]["ph"] == "i"


# ======================================================================
# export / schema validation
# ======================================================================
def _minimal(ph="i", **extra):
    obj = {"name": "a", "cat": "c", "ph": ph, "t": 0.0}
    obj.update(extra)
    return obj


class TestValidateEvent:
    def test_minimal_events_pass(self):
        validate_event(_minimal())
        validate_event(_minimal(ph="X", dur=1.0, actor=3, args={"k": 1}))
        validate_event(_minimal(ph="C", args={"value": 2.0}))

    @pytest.mark.parametrize(
        "obj, match",
        [
            ([1, 2], "JSON object"),
            (_minimal(name=""), "'name'"),
            ({"name": "a", "ph": "i", "t": 0.0}, "'cat'"),
            (_minimal(ph="B"), "'ph'"),
            (_minimal(t=True), "'t'"),
            (_minimal(t=float("nan")), "'t'"),
            (_minimal(ph="X"), "require 'dur'"),
            (_minimal(ph="X", dur=-1.0), "'dur'"),
            (_minimal(actor=True), "'actor'"),
            (_minimal(args=[1]), "'args'"),
            (_minimal(extra_field=1), "unknown fields"),
        ],
    )
    def test_schema_violations_rejected(self, obj, match):
        with pytest.raises(TraceSchemaError, match=match):
            validate_event(obj)

    def test_context_prefixes_the_error(self):
        with pytest.raises(TraceSchemaError, match=r"file\.jsonl:3"):
            validate_event(_minimal(ph="B"), context="file.jsonl:3")


class TestLoadTrace:
    def test_invalid_json_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "a", "cat": "c", "ph": "i", "t": 0}\nnot json\n')
        with pytest.raises(TraceSchemaError, match=r"bad\.jsonl:2"):
            load_trace(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('\n{"name": "a", "cat": "c", "ph": "i", "t": 0}\n\n')
        assert len(load_trace(path)) == 1


class TestChromeExport:
    def test_span_maps_to_microseconds_and_tid(self):
        out = to_chrome_trace(
            [_minimal(ph="X", dur=0.5, actor=7, args={"k": 1}, t=2.0)]
        )
        (entry,) = out["traceEvents"]
        assert entry["ts"] == pytest.approx(2e6)
        assert entry["dur"] == pytest.approx(5e5)
        assert entry["tid"] == 7 and entry["pid"] == 0
        assert entry["args"] == {"k": 1}
        assert out["displayTimeUnit"] == "ms"

    def test_instant_is_thread_scoped(self):
        (entry,) = to_chrome_trace([_minimal()])["traceEvents"]
        assert entry["s"] == "t" and entry["tid"] == 0

    def test_counter_args_flattened_to_numbers(self):
        event = _minimal(
            ph="C",
            args={"value": 2, "flag": True, "label": "x", "sub": {"mean": 0.5}},
        )
        (entry,) = to_chrome_trace([event])["traceEvents"]
        assert entry["args"] == {"value": 2.0, "sub.mean": 0.5}

    def test_accepts_trace_event_objects(self):
        event = TraceEvent(name="a", cat="c", ph="i", t=1.0)
        (entry,) = to_chrome_trace([event])["traceEvents"]
        assert entry["ts"] == pytest.approx(1e6)

    def test_write_chrome_trace_roundtrip(self, tmp_path):
        path = write_chrome_trace(tmp_path / "t.json", [_minimal()])
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == 1


# ======================================================================
# run report
# ======================================================================
def _span(name, cat, t, dur, round_index=None):
    args = {} if round_index is None else {"round": round_index}
    return {"name": name, "cat": cat, "ph": "X", "t": t, "dur": dur, "args": args}


class TestBuildReport:
    def test_folds_spans_per_round_and_overall(self):
        events = [
            _span("local", "compute", 0.0, 2.0, round_index=0),
            _span("upload", "comm", 2.0, 1.0, round_index=0),
            _span("leader", "wait", 3.0, 4.0, round_index=1),
            _span("stray", "comm", 0.0, 0.5),  # no round -> -1 bucket
        ]
        report = build_report(events)
        assert report.n_events == 4
        assert report.by_round[0].compute == 2.0
        assert report.by_round[0].comm == 1.0
        assert report.by_round[1].wait == 4.0
        assert report.by_round[-1].comm == 0.5
        assert report.overall.total == pytest.approx(7.5)

    def test_comm_by_kind_tracks_count_total_peak(self):
        events = [
            _span("model_upload", "comm", 0.0, 1.0, round_index=0),
            _span("model_upload", "comm", 1.0, 3.0, round_index=0),
        ]
        report = build_report(events)
        count, total, peak = report.comm_by_kind["model_upload"]
        assert (count, total, peak) == (2, 4.0, 3.0)

    def test_fault_instants_counted(self):
        events = [
            {"name": "transport.drop", "cat": "fault", "ph": "i", "t": 0.0},
            {"name": "transport.drop", "cat": "fault", "ph": "i", "t": 1.0},
            {"name": "pipeline.crash", "cat": "fault", "ph": "i", "t": 2.0},
        ]
        report = build_report(events)
        assert report.fault_events == {"transport.drop": 2, "pipeline.crash": 1}

    def test_non_breakdown_categories_ignored(self):
        events = [_span("agg", "aggregation", 0.0, 1.0)]
        report = build_report(events)
        assert report.overall.total == 0.0 and report.n_events == 1

    def test_share_is_zero_on_empty_breakdown(self):
        report = build_report([])
        assert report.overall.share("wait") == 0.0


class TestRenderReport:
    def test_contains_breakdown_faults_and_counts(self):
        events = [
            _span("local", "compute", 0.0, 3.0, round_index=0),
            _span("up", "comm", 3.0, 1.0, round_index=0),
            _span("stray", "wait", 0.0, 1.0),
            {"name": "transport.drop", "cat": "fault", "ph": "i", "t": 0.0},
        ]
        text = render_report(events)
        assert "Wait / computation / communication breakdown" in text
        assert "(no round)" in text
        assert "75.0%" in text  # compute share of round 0
        assert "transport.drop" in text
        assert "4 trace events" in text

    def test_empty_trace_renders(self):
        text = render_report([])
        assert "0 trace events" in text

    def test_empty_trace_says_no_spans(self):
        # An empty trace must degrade to an explicit placeholder, not an
        # all-zero breakdown that reads like a measured result.
        text = render_report([])
        assert "no spans recorded (empty trace)" in text
        assert "Wait / computation / communication breakdown" in text

    def test_span_free_trace_reports_event_count(self):
        events = [
            {"name": "transport.drop", "cat": "fault", "ph": "i", "t": 0.0},
            {"name": "transport.drop", "cat": "fault", "ph": "i", "t": 1.0},
        ]
        text = render_report(events)
        assert "no spans recorded (2 events, none of them breakdown spans)" in text
        # The non-breakdown sections still render.
        assert "transport.drop" in text
        assert "2 trace events" in text

    def test_metrics_only_trace_degrades(self):
        tr = Tracer()
        tr.metrics.counter("agg.calls").inc(3)
        tr.snapshot_metrics(1.0)
        text = render_report(tr.events)
        assert "no spans recorded" in text
        assert "1 trace events" in text


# ======================================================================
# instrumentation hooks: aggregation + channel + faults
# ======================================================================
class TestAggregationTracing:
    def test_traced_call_emits_instant_and_counter(self, rng):
        fedavg = get_aggregator("fedavg")
        matrix = rng.standard_normal((5, 8))
        baseline = fedavg(matrix)
        with trace.traced() as tr:
            traced_out = fedavg(matrix)
        np.testing.assert_array_equal(traced_out, baseline)
        (event,) = [e for e in tr.events if e.name == "aggregate.fedavg"]
        assert event.cat == "aggregation"
        assert event.args["n"] == 5 and event.args["d"] == 8
        assert tr.metrics.counter("aggregate.fedavg.calls").value == 1.0


def _reliable_channel(seed=0, latency=0.5):
    sim = Simulator()
    channel = Channel(sim, FixedLatency(latency), np.random.default_rng(seed))
    return sim, channel


class TestChannelTracing:
    def test_delivery_emits_comm_span_with_round_from_int_payload(self):
        sim, channel = _reliable_channel()
        with trace.traced() as tr:
            channel.send(1, 2, "model_upload", 3, 100, lambda m: None)
            sim.run()
        (span,) = [e for e in tr.events if e.ph == "X"]
        assert (span.name, span.cat, span.ph) == ("model_upload", "comm", "X")
        assert span.t == 0.0 and span.dur == 0.5
        assert span.actor == 2
        assert span.args == {"src": 1, "dst": 2, "bytes": 100, "round": 3}

    def test_non_int_payload_has_no_round(self):
        sim, channel = _reliable_channel()
        with trace.traced() as tr:
            channel.send(1, 2, "m", "blob", 10, lambda m: None)
            channel.send(1, 2, "m", True, 10, lambda m: None)  # bool is not a round
            sim.run()
        assert all("round" not in e.args for e in tr.events)

    def test_untraced_delivery_emits_nothing(self):
        sim, channel = _reliable_channel()
        channel.send(1, 2, "m", 0, 10, lambda m: None)
        sim.run()  # no tracer installed: must simply not crash

    def test_delivered_message_flags(self):
        sim, channel = _reliable_channel()
        msg = channel.send(1, 2, "m", 0, 10, lambda m: None)
        assert math.isnan(msg.delivered_at) and msg.dropped is False
        sim.run()
        assert msg.delivered_at == 0.5 and msg.dropped is False

    def test_dropped_message_sets_flag_and_keeps_nan(self):
        sim = Simulator()
        plan = FaultPlan.uniform(drop_probability=1.0, max_retries=0, seed=1)
        channel = FaultyChannel(
            sim, FixedLatency(0.5), np.random.default_rng(0), plan=plan
        )
        delivered = []
        msg = channel.send(1, 2, "m", 0, 10, delivered.append)
        sim.run()
        assert delivered == []
        assert msg.dropped is True
        assert math.isnan(msg.delivered_at)

    def test_dropped_message_emits_fault_instant(self):
        sim = Simulator()
        plan = FaultPlan.uniform(drop_probability=1.0, max_retries=0, seed=1)
        channel = FaultyChannel(
            sim, FixedLatency(0.5), np.random.default_rng(0), plan=plan
        )
        with trace.traced() as tr:
            channel.send(1, 2, "m", 0, 10, lambda m: None)
            sim.run()
        names = [e.name for e in tr.events]
        assert "transport.drop" in names
        drop = tr.events[names.index("transport.drop")]
        assert drop.cat == "fault" and drop.ph == "i"

    def test_zero_rate_plan_trace_matches_reliable_channel(self):
        def run(channel_cls, **kwargs):
            sim = Simulator()
            channel = channel_cls(
                sim, FixedLatency(0.5), np.random.default_rng(7), **kwargs
            )
            with trace.traced() as tr:
                for i in range(5):
                    channel.send(0, 1, "m", i, 10, lambda m: None)
                sim.run()
            return tr.to_jsonl()

        plain = run(Channel)
        faulty = run(FaultyChannel, plan=FaultPlan())
        assert plain == faulty


class TestNetworkStats:
    def test_latency_summary_per_kind(self):
        sim, channel = _reliable_channel(latency=2.0)
        for i in range(3):
            channel.send(0, 1, "model", i, 100, lambda m: None)
        channel.send(0, 1, "flag", 0, 1, lambda m: None)
        sim.run()
        count, mean, peak = channel.stats.latency_summary("model")
        assert (count, mean, peak) == (3, 2.0, 2.0)
        assert channel.stats.delivered == 4

    def test_unknown_kind_summary_is_zero(self):
        assert NetworkStats().latency_summary("nope") == (0, 0.0, 0.0)

    def test_dropped_messages_do_not_contribute_latency(self):
        sim = Simulator()
        plan = FaultPlan.uniform(drop_probability=1.0, max_retries=0, seed=1)
        channel = FaultyChannel(
            sim, FixedLatency(0.5), np.random.default_rng(0), plan=plan
        )
        channel.send(0, 1, "m", 0, 10, lambda m: None)
        sim.run()
        assert channel.stats.messages == 1  # wire accounting still fires
        assert channel.stats.latency_summary("m") == (0, 0.0, 0.0)

    def test_summary_keeps_legacy_first_line_and_adds_latency(self):
        sim, channel = _reliable_channel(latency=1.5)
        channel.send(0, 1, "model", 0, 100, lambda m: None)
        sim.run()
        lines = channel.stats.summary().splitlines()
        assert lines[0] == "1 messages, 100 bytes"
        assert "1 delivered, latency mean 1.5000s max 1.5000s" in lines[1]

    def test_summary_without_deliveries_has_no_latency_suffix(self):
        sim, channel = _reliable_channel()
        channel.send(0, 1, "model", 0, 100, lambda m: None)
        # sim not run: sent but never delivered
        assert "latency" not in channel.stats.summary()


# ======================================================================
# end-to-end: event-driven run and trainer
# ======================================================================
def _tiny_timing():
    return TimingConfig(
        local_compute=UniformLatency(2.0, 4.0),
        partial_aggregate=FixedLatency(0.5),
        global_aggregate=FixedLatency(1.0),
        link=FixedLatency(0.1),
    )


class TestEventRunTracing:
    def test_traced_run_covers_all_breakdown_categories(self):
        hierarchy = build_ecsm(n_levels=3, cluster_size=2, n_top=2)
        run = EventDrivenRun(hierarchy, _tiny_timing(), flag_level=1, seed=3)
        with trace.traced() as tr:
            run.run(2)
        cats = {e.cat for e in tr.events if e.ph == "X"}
        assert {"compute", "comm", "wait"} <= cats
        report = build_report(tr.events)
        assert set(report.by_round) >= {0, 1}
        assert report.comm_by_kind  # per-kind latency table has rows
        # render end-to-end on a real trace
        assert "trace events" in render_report(tr.events)

    def test_traced_run_produces_schema_valid_trace(self, tmp_path):
        hierarchy = build_ecsm(n_levels=3, cluster_size=2, n_top=2)
        run = EventDrivenRun(hierarchy, _tiny_timing(), flag_level=1, seed=3)
        path = tmp_path / "run.jsonl"
        with trace.traced(path) as tr:
            run.run(1)
        events = load_trace(path)
        assert len(events) == len(tr.events)
        # Chrome export accepts the whole trace
        chrome = to_chrome_trace(events)
        assert len(chrome["traceEvents"]) == len(events)

    def test_traced_timings_match_untraced(self):
        def timings(traced):
            hierarchy = build_ecsm(n_levels=3, cluster_size=2, n_top=2)
            run = EventDrivenRun(hierarchy, _tiny_timing(), flag_level=1, seed=3)
            if traced:
                with trace.traced():
                    return run.run(2)
            return run.run(2)

        baseline = timings(False)
        traced = timings(True)
        assert len(baseline) == len(traced)
        for a, b in zip(baseline, traced):
            assert a.first_upload == b.first_upload
            assert a.global_arrival == b.global_arrival


class TestTrainerTracing:
    @pytest.fixture(scope="class")
    def traced_trainer(self):
        """A 2-round trainer and the tracer that watched it."""
        from test_core_trainer import default_config, small_setup

        hierarchy, datasets, model, test = small_setup()
        from repro.core.trainer import ABDHFLTrainer

        trainer = ABDHFLTrainer(
            hierarchy, datasets, model, default_config(), test, seed=0
        )
        with trace.traced() as tr:
            trainer.run(2)
        return trainer, tr

    def test_round_events_and_metrics_recorded(self, traced_trainer):
        _, tr = traced_trainer
        names = [e.name for e in tr.events]
        assert names.count("trainer.round") == 2
        for stage in (
            "trainer.local_training",
            "trainer.partial_aggregation",
            "trainer.global_aggregation",
        ):
            assert stage in names
        assert tr.metrics.counter("trainer.rounds").value == 2.0
        samples = [e for e in tr.events if e.ph == "C"]
        assert samples, "per-round metric snapshots missing"

    def test_round_timestamps_are_round_indices(self, traced_trainer):
        _, tr = traced_trainer
        rounds = [e.t for e in tr.events if e.name == "trainer.round"]
        assert rounds == [0.0, 1.0]

    def test_consensus_and_aggregation_events_present(self, traced_trainer):
        names = [e.name for e in traced_trainer[1].events]
        assert any(n.startswith("consensus.") for n in names)
        assert any(n.startswith("aggregate.") for n in names)

    def test_trace_serialises_and_validates(self, traced_trainer, tmp_path):
        _, tr = traced_trainer
        events = load_trace(tr.save(tmp_path / "train.jsonl"))
        assert len(events) == len(tr.events)

    def test_trace_off_by_default(self):
        """No per-trainer knob: a trainer run outside a ``traced()``
        scope installs nothing."""
        from test_core_trainer import default_config, small_setup

        hierarchy, datasets, model, test = small_setup()
        from repro.core.trainer import ABDHFLTrainer

        trainer = ABDHFLTrainer(
            hierarchy, datasets, model, default_config(), test, seed=0
        )
        trainer.run_round(evaluate=False)
        assert trace.tracer() is None and not hasattr(trainer, "tracer")

    def test_traced_training_matches_untraced(self, traced_trainer):
        from test_core_trainer import default_config, small_setup

        hierarchy, datasets, model, test = small_setup()
        from repro.core.trainer import ABDHFLTrainer

        baseline = ABDHFLTrainer(
            hierarchy, datasets, model, default_config(), test, seed=0
        )
        baseline.run(2)
        np.testing.assert_array_equal(
            baseline.global_model, traced_trainer[0].global_model
        )
