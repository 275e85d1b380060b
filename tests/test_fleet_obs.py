"""Tests for the fleet observability plane (ISSUE 10).

Covers the stdlib Prometheus exposition helpers (render/parse
round-trip, histogram buckets, family summing), the best-so-far front
tracker (front/HV behaviour, non-finite points, torn-line tolerance,
fleet-wide merges, bit parity with the pure-python code it replaced), the
SLO rule grammar and its breach semantics (rate reset clamp, young-
series stall guard), the scrape sidecar (gap records, per-URL output
paths, series folding), the broker's /healthz schema regression and
live /metrics + /best surfaces, X-Repro-Trace propagation through
submit -> lease, the monitor's resilience to truncated/mixed-schema
inputs plus its SLO exit codes, and the report's per-cell fleet
attribution.
"""

import json
import math
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.broker import serve
from repro.fleet.client import BrokerClient
from repro.fleet.worker import FleetWorker
from repro.obs.front import FrontTracker, point_from_commit
from repro.obs.monitor import MetricsState, SweepState, render
from repro.obs.monitor import main as monitor_main
from repro.obs.prom import (
    Histogram,
    counter,
    gauge,
    histogram_family,
    metric_value,
    parse_metrics,
    render_metrics,
)
from repro.obs.report import summarize_run
from repro.obs.scrape import _out_path, read_series, scrape_once
from repro.obs.slo import Rule, SloError, evaluate_rules, parse_rules
from repro.obs.spans import format_trace_context, parse_trace_context
from repro.obs.trace import TRACE_SCHEMA_VERSION


# ---------------------------------------------------------------------------
# Prometheus exposition helpers


class TestProm:
    def test_render_parse_round_trip(self):
        hist = Histogram((0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        text = render_metrics(
            [
                counter(
                    "fleet_submits_total", "submits",
                    [({"queue": "session.a"}, 3), ({"queue": "b"}, 1)],
                ),
                gauge("fleet_uptime_seconds", "uptime", 12.5),
                histogram_family(
                    "fleet_request_latency_seconds", "latency", hist
                ),
            ]
        )
        samples = parse_metrics(text)
        assert samples['fleet_submits_total{queue="session.a"}'] == 3.0
        assert samples["fleet_uptime_seconds"] == 12.5
        assert samples['fleet_request_latency_seconds_bucket{le="0.1"}'] == 1
        assert samples['fleet_request_latency_seconds_bucket{le="1"}'] == 2
        assert (
            samples['fleet_request_latency_seconds_bucket{le="+Inf"}'] == 3
        )
        assert samples["fleet_request_latency_seconds_count"] == 3
        assert samples["fleet_request_latency_seconds_sum"] == pytest.approx(
            5.55
        )

    def test_parse_skips_comments_and_garbage(self):
        samples = parse_metrics(
            "# HELP x y\n# TYPE x counter\nx 1\nnot-a-sample\nbad nan?\n"
        )
        assert samples == {"x": 1.0}

    def test_metric_value_exact_and_family_sum(self):
        samples = {
            'fleet_queue_depth{queue="a"}': 2.0,
            'fleet_queue_depth{queue="b"}': 3.0,
            "fleet_uptime_seconds": 7.0,
        }
        assert metric_value(samples, 'fleet_queue_depth{queue="a"}') == 2.0
        assert metric_value(samples, "fleet_queue_depth") == 5.0
        assert metric_value(samples, "fleet_uptime_seconds") == 7.0
        assert metric_value(samples, "absent_total") is None
        assert metric_value(samples, 'fleet_queue_depth{queue="z"}') is None


# ---------------------------------------------------------------------------
# Best-so-far front tracking


def _commit(power, cycles, lut, valid=True):
    return {
        "event": "commit",
        "reports": [
            {
                "valid": valid, "power_w": power,
                "latency_cycles": cycles, "clock_ns": 1000.0,
                "lut_util": lut,
            }
        ],
    }


def _tracker(*points):
    tracker = FrontTracker()
    for power, cycles, lut in points:
        tracker.feed_record(_commit(power, cycles, lut))
    return tracker


class TestFront:
    def test_pareto_front_drops_dominated(self):
        tracker = _tracker((1.0, 1000, 1.0), (2.0, 2000, 2.0), (0.5, 3000, 1.0))
        front = tracker.front()
        assert (2.0, 2000.0, 2.0) not in front
        assert front == [(0.5, 3000.0, 1.0), (1.0, 1000.0, 1.0)]
        assert tracker.summary()["n"] == 2

    def test_hypervolume_grows_with_better_point(self):
        tracker = _tracker((2.0, 2000, 2.0), (4.0, 4000, 4.0))
        hv0 = tracker.summary()["hv"]
        tracker.feed_record(_commit(1.0, 1000, 1.0))
        hv1 = tracker.summary()["hv"]
        assert hv1 > hv0 > 0.0

    def test_point_from_commit_filters_invalid(self):
        assert point_from_commit({"event": "step"}) is None
        assert point_from_commit(_commit(1, 2, 3, valid=False)) is None
        point = point_from_commit(_commit(1.5, 2000, 0.25))
        assert point == (1.5, 2000.0, 0.25)  # 2000 cyc @ 1000 ns -> 2000 us

    def test_tracker_tolerates_torn_lines(self):
        tracker = FrontTracker()
        data = "\n".join(
            [
                json.dumps(_commit(1.0, 1000, 0.5)),
                '{"event": "commit", "repor',  # torn mid-write
                "not json at all",
                json.dumps(_commit(2.0, 500, 0.4)),
            ]
        )
        assert tracker.feed(data) == 2
        summary = tracker.summary()
        assert summary["n"] == 2
        assert summary["commits"] == 2
        assert summary["hv"] > 0.0
        assert summary["best"]["power_w"] == 1.0

    def test_merge_summaries_unions_fronts(self):
        a, b = FrontTracker(), FrontTracker()
        a.feed_record(_commit(1.0, 1000, 0.5))
        b.feed_record(_commit(0.5, 2000, 0.6))
        merged = FrontTracker.merge_summaries([a.summary(), b.summary()])
        assert merged["n"] == 2
        assert merged["commits"] == 2

    def test_reference_point_needs_points(self):
        # No valid point, no reference point: the summary is empty.
        tracker = FrontTracker()
        tracker.feed_record(_commit(1.0, 1000, 0.5, valid=False))
        assert tracker.summary() == {
            "n": 0, "commits": 1, "hv": 0.0, "best": None, "points": [],
        }
        assert FrontTracker.merge_summaries([])["hv"] == 0.0

    def test_non_finite_point_is_dropped(self):
        """An ``"Infinity"`` objective (a journal sentinel float) adds
        no point, so the front and its HV stay finite; its commit still
        counts."""
        tracker = _tracker((1.0, 1000, 0.5), (2.0, 500, 0.4))
        finite = tracker.summary()
        assert not tracker.feed_record(_commit("Infinity", 500, 0.4))
        assert not tracker.feed_record(_commit(0.1, "-Infinity", 0.1))
        summary = tracker.summary()
        assert summary["commits"] == 4
        assert summary["n"] == 2 and summary["points"] == finite["points"]
        assert summary["hv"] == finite["hv"] and math.isfinite(summary["hv"])
        json.dumps(summary, allow_nan=False)  # no bare Infinity token
        poisoned = dict(finite, points=finite["points"] + [
            [math.inf, 500.0, 0.4], [0.1, math.nan, 0.1],
        ])
        merged = FrontTracker.merge_summaries([poisoned])
        assert merged["hv"] == finite["hv"] and merged["n"] == 2

    def test_cap_tie_break_is_arrival_independent(self):
        """Over ``max_points`` the closest-to-ideal points are kept; an
        exact distance tie at the cut goes to the smaller point, so a
        merge keeps the same points whatever the summary order."""
        # All integer (a, b, c) with a + b + c = 12: 91 mutually
        # non-dominated points with equal spans, so permuted triples
        # tie in distance, and one tie group straddles the cut at 64.
        plane = [
            (float(a), b, float(12 - a - b))
            for a in range(13) for b in range(13 - a)
        ]
        one, two = _tracker(*plane[::2]), _tracker(*plane[1::2])
        forward = FrontTracker.merge_summaries([one.summary(), two.summary()])
        backward = FrontTracker.merge_summaries([two.summary(), one.summary()])
        assert forward["n"] == 91 and len(forward["points"]) == 64
        assert forward == backward


# ---------------------------------------------------------------------------
# FrontTracker against the pure-python implementation it replaced


def _ref_pareto_front(points):
    front = []
    for p in points:
        if any(math.isnan(v) for v in p):
            continue
        dominated = False
        for q in points:
            if q is p:
                continue
            if all(a <= b for a, b in zip(q, p)) and any(
                a < b for a, b in zip(q, p)
            ):
                dominated = True
                break
        if not dominated and p not in front:
            front.append(p)
    return front


def _ref_union_area_2d(boxes, rx, ry):
    pts = sorted({(x, y) for x, y in boxes if x < rx and y < ry})
    area = 0.0
    best_y = ry
    for x, y in pts:
        if y < best_y:
            area += (rx - x) * (best_y - y)
            best_y = y
    return area


def _ref_hypervolume(front, ref):
    pts = [p for p in front if all(a < b for a, b in zip(p, ref))]
    if not pts:
        return 0.0
    levels = sorted({p[2] for p in pts}) + [ref[2]]
    volume = 0.0
    for lo, hi in zip(levels, levels[1:]):
        active = [(p[0], p[1]) for p in pts if p[2] <= lo]
        if active:
            volume += (hi - lo) * _ref_union_area_2d(active, ref[0], ref[1])
    return volume


def _ref_summary(points, commits, max_points=64):
    """The stdlib summary as it was, but for the cap's tie-break: the
    old sort key broke exact distance ties by arrival order, this one
    (like the tracker now) by the point itself."""
    points = [p for p in points if not any(math.isnan(v) for v in p)]
    front = _ref_pareto_front(points)
    ref = None
    if points:
        ref = tuple(max(p[i] for p in points) * 1.1 + 1e-12 for i in range(3))
    hv = _ref_hypervolume(front, ref) if ref is not None else 0.0
    n = len(front)
    if len(front) > max_points:
        ideal = tuple(min(p[i] for p in front) for i in range(3))
        span = tuple(max(r - i, 1e-12) for r, i in zip(ref, ideal))
        front = sorted(
            front,
            key=lambda p: (
                sum(((v - i) / s) ** 2 for v, i, s in zip(p, ideal, span)),
                p,
            ),
        )[:max_points]
    best = None
    if front:
        best = {
            "power_w": min(p[0] for p in front),
            "delay_us": min(p[1] for p in front),
            "lut_util": min(p[2] for p in front),
        }
    return {
        "n": n, "commits": commits, "hv": hv, "best": best,
        "points": [list(p) for p in sorted(front)],
    }


def _ref_merge(summaries):
    points = []
    for summary in summaries:
        for point in summary.get("points") or []:
            triple = tuple(float(v) for v in point)[:3]
            if len(triple) == 3 and not any(math.isnan(v) for v in triple):
                points.append(triple)
    commits = sum(int(summary.get("commits", 0)) for summary in summaries)
    return _ref_summary(points, commits)


def _assert_same_summary(got, want):
    assert got["hv"].hex() == want["hv"].hex()
    assert {k: v for k, v in got.items() if k != "hv"} == {
        k: v for k, v in want.items() if k != "hv"
    }


_KINDS = ("ok", "ok", "ok", "ok", "nan", "invalid", "empty", "step")


def _record(kind, point):
    power, delay, lut = point
    if kind == "step":
        return {"event": "step"}
    if kind == "empty":
        return {"event": "commit", "reports": []}
    return {
        "event": "commit",
        "reports": [{
            "valid": kind != "invalid",
            "power_w": "NaN" if kind == "nan" else power,
            "latency_cycles": delay, "clock_ns": 1.0, "lut_util": lut,
        }],
    }


@st.composite
def _tie_heavy_records(draw, max_size=40):
    """Commit records over 2–100 distinct levels per axis (ties and
    duplicates everywhere), mixed with NaN, invalid-report, report-less
    and non-commit records."""
    levels = [
        sorted(set(draw(st.lists(
            st.floats(0.0, 1e3, allow_nan=False, allow_subnormal=False),
            min_size=2, max_size=100,
        ))))
        for _ in range(3)
    ]
    points = draw(st.lists(
        st.tuples(*(st.sampled_from(axis) for axis in levels)),
        min_size=1, max_size=max_size,
    ))
    kinds = draw(st.lists(
        st.sampled_from(_KINDS), min_size=len(points), max_size=len(points),
    ))
    return [_record(kind, p) for kind, p in zip(kinds, points)]


@st.composite
def _wide_front_records(draw):
    """Over 64 mutually non-dominated points (integer a + b + c = 60)
    plus dominated copies, so the summary's cap engages."""
    pairs = draw(st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)),
        min_size=65, max_size=160, unique=True,
    ))
    points = [(float(a), float(b), float(60 - a - b)) for a, b in pairs]
    shadows = draw(st.lists(st.sampled_from(points), max_size=20))
    points += [(a + 1.0, b, c + 0.5) for a, b, c in shadows]
    order = draw(st.permutations(range(len(points))))
    return [_record("ok", points[i]) for i in order]


def _fold(records):
    tracker = FrontTracker()
    for record in records:
        tracker.feed_record(record)
    want_points = [
        p for p in map(point_from_commit, records) if p is not None
    ]
    commits = sum(r.get("event") == "commit" for r in records)
    return tracker, want_points, commits


class TestFrontParity:
    """The tracker's summaries are bit-equal to the pure-python front
    and hypervolume it replaced (test-local copies above)."""

    @given(
        st.one_of(_tie_heavy_records(), _wide_front_records()),
        st.sampled_from([4, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_summary_matches_reference(self, records, max_points):
        tracker, points, commits = _fold(records)
        _assert_same_summary(
            tracker.summary(max_points),
            _ref_summary(points, commits, max_points),
        )
        if points:
            assert tracker.front() == sorted(_ref_pareto_front(points))

    @given(
        st.lists(
            st.one_of(_tie_heavy_records(max_size=30), _wide_front_records()),
            min_size=1, max_size=4,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_matches_reference(self, chunks, rng):
        summaries = [_fold(records)[0].summary() for records in chunks]
        merged = FrontTracker.merge_summaries(summaries)
        _assert_same_summary(merged, _ref_merge(summaries))
        shuffled = list(summaries)
        rng.shuffle(shuffled)
        _assert_same_summary(
            FrontTracker.merge_summaries(shuffled), merged
        )


# ---------------------------------------------------------------------------
# SLO rules


def _series(*pairs):
    """(t, {metric: value}) samples for one endpoint."""
    return [(float(t), dict(samples)) for t, samples in pairs]


class TestSlo:
    def test_grammar(self):
        rate, value, stall = parse_rules(
            "# comment\n"
            "rate(fleet_lease_expiries_total) > 2/min over 120s\n"
            "\n"
            "value(fleet_workers_registered) < 1\n"
            "stall(fleet_best_hypervolume) >= 600s\n"
        )
        assert (rate.kind, rate.window_s, rate.threshold) == ("rate", 120.0, 2.0)
        assert (value.kind, value.op) == ("value", "<")
        assert (stall.kind, stall.window_s) == ("stall", 600.0)

    def test_bad_rules_raise(self):
        with pytest.raises(SloError):
            Rule.parse("rate(x) ~ 2")
        with pytest.raises(SloError):
            Rule.parse("stall(x) < 60s")
        with pytest.raises(SloError):
            parse_rules("median(x) > 1")

    def test_rule_fires_when_breach_condition_holds(self):
        rule = Rule.parse("value(fleet_auth_rejects_total) > 0")
        healthy = _series((0, {"fleet_auth_rejects_total": 0.0}))
        broken = _series((0, {"fleet_auth_rejects_total": 3.0}))
        assert rule.check(healthy) is None
        breach = rule.check(broken)
        assert breach["observed"] == 3.0

    def test_rate_counter_reset_clamps(self):
        rule = Rule.parse("rate(fleet_submits_total) > 0.5/min over 60s")
        rising = _series(
            (0, {"fleet_submits_total": 0}), (30, {"fleet_submits_total": 5})
        )
        assert rule.check(rising)["observed"] == pytest.approx(10.0)
        # Broker restart without its WAL: counter wraps to zero — the
        # delta clamps rather than alerting on the wrap.
        reset = _series(
            (0, {"fleet_submits_total": 50}), (30, {"fleet_submits_total": 2})
        )
        assert rule.check(reset) is None

    def test_stall_guards_young_series(self):
        rule = Rule.parse("stall(fleet_best_hypervolume) >= 60s")
        young = _series(
            (0, {"fleet_best_hypervolume": 1.0}),
            (30, {"fleet_best_hypervolume": 1.0}),
        )
        assert rule.check(young) is None
        flat = _series(
            (0, {"fleet_best_hypervolume": 1.0}),
            (90, {"fleet_best_hypervolume": 1.0}),
        )
        assert rule.check(flat)["observed"] == pytest.approx(90.0)
        rising = _series(
            (0, {"fleet_best_hypervolume": 1.0}),
            (80, {"fleet_best_hypervolume": 2.0}),
            (90, {"fleet_best_hypervolume": 2.0}),
        )
        assert rule.check(rising) is None

    def test_missing_metric_is_not_a_breach(self):
        rule = Rule.parse("value(fleet_never_exported) > 0")
        assert rule.check(_series((0, {"other": 1.0}))) is None

    def test_evaluate_rules_tags_source(self):
        rules = parse_rules("value(x) >= 1")
        breaches = evaluate_rules(
            rules,
            {
                "http://a/metrics": _series((0, {"x": 2.0})),
                "http://b/metrics": _series((0, {"x": 0.0})),
            },
        )
        assert [b["source"] for b in breaches] == ["http://a/metrics"]


# ---------------------------------------------------------------------------
# Scrape sidecar


class TestScrape:
    def test_out_path_sanitizes_url(self, tmp_path):
        path = _out_path(tmp_path, "http://127.0.0.1:9/metrics")
        assert path.parent == tmp_path
        assert path.name.endswith(".metrics.jsonl")
        assert "/" not in path.name.replace(".metrics.jsonl", "")
        explicit = _out_path(tmp_path / "one.jsonl", "http://x/metrics")
        assert explicit == tmp_path / "one.jsonl"

    def test_scrape_once_gap_record_never_raises(self):
        record = scrape_once("http://127.0.0.1:9/metrics", timeout_s=0.5)
        assert record["ok"] is False
        assert "error" in record

    def test_read_series_skips_gaps_and_torn_lines(self, tmp_path):
        path = tmp_path / "a.metrics.jsonl"
        path.write_text(
            json.dumps(
                {"t": 2.0, "url": "u", "ok": True, "metrics": {"x": 2.0}}
            )
            + "\n"
            + json.dumps({"t": 3.0, "url": "u", "ok": False, "error": "down"})
            + "\n"
            + '{"t": 4.0, "url": "u", "ok": true, "metr'  # torn
            + "\n"
            + json.dumps(
                {"t": 1.0, "url": "u", "ok": True, "metrics": {"x": 1.0}}
            )
            + "\n"
        )
        series = read_series(path)
        assert [t for t, _ in series["u"]] == [1.0, 2.0]


# ---------------------------------------------------------------------------
# Broker surfaces: /healthz schema, /metrics families, /best, traces


@pytest.fixture()
def broker_server(tmp_path):
    server = serve(port=0, lease_ttl_s=30.0, state_dir=tmp_path / "state")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    server.broker.close()


class TestBrokerObservability:
    def test_healthz_schema_regression(self, broker_server):
        """The /healthz contract: exact key set, WAL fsync age live."""
        client = BrokerClient(broker_server.url)
        client.submit("session.a", b"payload")
        health = client.healthz()
        assert set(health) == {
            "ok", "wal_seq", "uptime_s", "restarts", "last_wal_fsync_age_s"
        }
        assert health["ok"] is True
        assert health["wal_seq"] >= 1
        assert health["uptime_s"] >= 0.0
        assert health["restarts"] == 0
        assert health["last_wal_fsync_age_s"] >= 0.0

    def test_metrics_families(self, broker_server):
        client = BrokerClient(broker_server.url)
        client.submit("session.a", b"payload")
        samples = parse_metrics(client.metrics_text())
        families = set()
        for key in samples:
            name = key.split("{", 1)[0]
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix):
                    name = name[: -len(suffix)]
            families.add(name)
        assert len(families) >= 12, sorted(families)
        for expected in (
            "fleet_requests_total", "fleet_submits_total",
            "fleet_queue_depth", "fleet_uptime_seconds",
            "fleet_request_latency_seconds", "fleet_wal_fsync_seconds",
        ):
            assert expected in families

    def test_metrics_count_every_answered_request(
        self, broker_server, monkeypatch
    ):
        """A request is counted before its answer reaches the client, so
        the next ``/metrics`` always includes it.  Recording is slowed
        down to widen the window a late count would fall into."""
        broker = broker_server.broker
        observe = broker.observe_request

        def slow_observe(endpoint, dur_s):
            time.sleep(0.01)
            observe(endpoint, dur_s)

        monkeypatch.setattr(broker, "observe_request", slow_observe)
        client = BrokerClient(broker_server.url)
        key = 'fleet_requests_total{endpoint="/submit"}'
        for i in range(1, 51):
            client.submit("session.a", b"payload")
            assert parse_metrics(client.metrics_text())[key] == i

    def test_heartbeat_front_publishes_best(self, broker_server):
        client = BrokerClient(broker_server.url)
        client.submit("session.a", b"payload")
        grant = client.lease("w0", queues=["session.a"])
        tracker = FrontTracker()
        tracker.feed_record(_commit(1.0, 1000, 0.5))
        assert client.heartbeat(grant.lease_id, front=tracker.summary())
        best = client.best()["queues"]
        assert best["session.a"]["n"] == 1
        assert best["session.a"]["hv"] >= 0.0
        samples = parse_metrics(client.metrics_text())
        assert 'fleet_best_front_size{queue="session.a"}' in samples

    def test_trace_context_propagates_to_lease(self, broker_server):
        client = BrokerClient(broker_server.url)
        context = format_trace_context("a" * 32, 7)
        client.trace_context = context
        client.submit("session.a", b"payload")
        client.trace_context = None
        client.submit("session.a", b"untraced")
        first = client.lease("w0", queues=["session.a"])
        second = client.lease("w0", queues=["session.a"])
        assert first.trace == context
        assert parse_trace_context(first.trace) == ("a" * 32, 7)
        assert second.trace is None


class TestWorkerMetrics:
    def test_metrics_text_families(self):
        worker = FleetWorker("http://127.0.0.1:9", worker_id="w-test")
        samples = parse_metrics(worker.metrics_text())
        for family in (
            "worker_tasks_completed_total", "worker_reconnects_total",
            "worker_heartbeats_total", "worker_segments_shipped_total",
            "worker_fronts_sent_total", "worker_executing",
            "worker_uptime_seconds",
        ):
            assert family in samples, family
        assert samples["worker_executing"] == 0.0


# ---------------------------------------------------------------------------
# Monitor resilience + SLO exit codes


def _metrics_record(t, url="http://b/metrics", ok=True, **metrics):
    if not ok:
        return {"t": t, "url": url, "ok": False, "error": "down"}
    return {"t": t, "url": url, "ok": True, "metrics": metrics}


class TestMonitorResilience:
    def test_metrics_state_gap_and_resume(self):
        state = MetricsState()
        state.feed(_metrics_record(0.0, fleet_submits_total=0))
        state.feed(_metrics_record(10.0, ok=False))
        state.feed(_metrics_record(20.0, ok=False))
        state.feed(_metrics_record(30.0, fleet_submits_total=6))
        url = "http://b/metrics"
        assert state.gaps[url] == 2
        assert state.alive[url] is True
        assert state.latest(url, "fleet_submits_total") == 6.0
        assert state.rate(url, "fleet_submits_total", 60.0) == pytest.approx(
            12.0
        )
        # Counter reset clamps to zero, same as the SLO evaluator.
        state.feed(_metrics_record(40.0, fleet_submits_total=1))
        assert state.rate(url, "fleet_submits_total", 10.0) == 0.0

    def test_refresh_survives_truncated_and_mixed_schema(self, tmp_path):
        (tmp_path / "run.metrics.jsonl").write_text(
            json.dumps(_metrics_record(1.0, fleet_submits_total=2))
            + "\n"
            + '{"t": 2.0, "url": "http://b/metrics", "ok": true, "met'
        )
        (tmp_path / "old.trace.jsonl").write_text(
            '{"v": 1, "event": "mystery", "payload": [1, 2]}\n'
            "garbage line\n"
        )
        (tmp_path / "b.fleet.jsonl").write_text(
            json.dumps(
                {"event": "submit", "queue": "session.a", "task": "t1",
                 "t": 1.0}
            )
            + "\n"
            + '{"event": "lease", "que'  # mid-rotation tear
        )
        state = SweepState()
        state.refresh(tmp_path)  # must not raise
        text = render(state, tmp_path, tick=1)
        assert "fleet" in text
        assert state.metrics.series  # the intact metrics line landed

    def test_monitor_slo_exit_codes(self, tmp_path, capsys):
        metrics_dir = tmp_path / "series"
        metrics_dir.mkdir()
        (metrics_dir / "b.metrics.jsonl").write_text(
            json.dumps(_metrics_record(1.0, fleet_lease_expiries_total=9))
            + "\n"
        )
        alert_file = tmp_path / "alerts.json"
        rc = monitor_main(
            [
                str(metrics_dir), "--once",
                "--slo", "value(fleet_lease_expiries_total) > 0",
                "--alert-file", str(alert_file),
            ]
        )
        capsys.readouterr()
        assert rc == 1
        alerts = json.loads(alert_file.read_text())
        assert alerts["breaches"][0]["metric"] == (
            "fleet_lease_expiries_total"
        )
        rc = monitor_main(
            [
                str(metrics_dir), "--once",
                "--slo", "value(fleet_lease_expiries_total) > 100",
            ]
        )
        capsys.readouterr()
        assert rc == 0
        rc = monitor_main([str(metrics_dir), "--once", "--slo", "nope"])
        capsys.readouterr()
        assert rc == 2


# ---------------------------------------------------------------------------
# Report attribution from the merged cross-process trace


def _span(name, t0, dur_s, task, cat="fleet", **extra_args):
    return {
        "v": TRACE_SCHEMA_VERSION, "event": "span", "name": name,
        "cat": cat, "host": "h", "pid": 1, "tid": 1, "tname": "main",
        "t0": t0, "dur_s": dur_s, "id": 1, "parent": None,
        "trace": "t" * 32,
        "args": {"task": task, "queue": "session.a", **extra_args},
    }


class TestReportAttribution:
    def test_fleet_cells_from_marks(self, tmp_path):
        path = tmp_path / "merged.trace.jsonl"
        spans = [
            _span("submit", 100.0, 0.001, "cell1"),
            _span("broker.lease", 102.0, 0.0, "cell1", cat="broker"),
            _span("execute", 102.1, 3.0, "cell1"),
            _span("broker.complete", 105.5, 0.0, "cell1", cat="broker"),
            # Incomplete cell: submit only — must not attribute.
            _span("submit", 110.0, 0.001, "cell2"),
        ]
        path.write_text("".join(json.dumps(s) + "\n" for s in spans))
        summary = summarize_run([path])
        cells = summary["fleet_cells"]
        assert [c["task"] for c in cells] == ["cell1"]
        cell = cells[0]
        assert cell["queue"] == "session.a"
        assert cell["queued_s"] == pytest.approx(2.0)
        assert cell["leased_s"] == pytest.approx(3.5)
        assert cell["evaluating_s"] == pytest.approx(3.0)
        assert cell["network_s"] == pytest.approx(0.5)

    def test_local_run_has_no_fleet_cells(self, tmp_path):
        path = tmp_path / "local.trace.jsonl"
        path.write_text(
            json.dumps(
                {
                    "v": TRACE_SCHEMA_VERSION, "event": "span",
                    "name": "flow_eval", "cat": "flow", "host": "h",
                    "pid": 1, "tid": 1, "tname": "main", "t0": 1.0,
                    "dur_s": 0.5, "id": 1, "parent": None,
                }
            )
            + "\n"
        )
        summary = summarize_run([path])
        assert summary["fleet_cells"] == []
        assert summary["n_spans"] == 1
