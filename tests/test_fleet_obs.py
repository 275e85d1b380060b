"""Tests for fleet tracing, the broker's metrics and the monitor's fronts.

Covers the stdlib Prometheus exposition helpers (render/parse
round-trip, histogram buckets, family summing), the monitor's per-cell
front hypervolume (dominance, non-finite points, torn-line tolerance,
bit parity with the pure-python front and hypervolume it replaced), the
broker's /healthz schema regression and live /metrics surface,
X-Repro-Trace propagation through submit -> lease, the monitor's
resilience to truncated/mixed-schema inputs, and the report's per-cell
fleet attribution.
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
from repro.obs.monitor import CellState, SweepState, point_from_commit, render
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
# Per-cell front hypervolume


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


def _cell(*points):
    cell = CellState("cell.journal.jsonl")
    for power, cycles, lut in points:
        cell.feed(_commit(power, cycles, lut))
    return cell


class TestFront:
    def test_pareto_front_drops_dominated(self):
        cell = _cell((1.0, 1000, 1.0), (2.0, 2000, 2.0), (0.5, 3000, 1.0))
        # The dominated point sets two reference coordinates but adds
        # no volume.
        ref = (2.0 * 1.1 + 1e-12, 3000.0 * 1.1 + 1e-12, 2.0 * 1.1 + 1e-12)
        front = [(0.5, 3000.0, 1.0), (1.0, 1000.0, 1.0)]
        assert cell.hypervolume() == _ref_hypervolume(front, ref)

    def test_hypervolume_grows_with_better_point(self):
        cell = _cell((2.0, 2000, 2.0), (4.0, 4000, 4.0))
        hv0 = cell.hypervolume()
        cell.feed(_commit(1.0, 1000, 1.0))
        hv1 = cell.hypervolume()
        assert hv1 > hv0 > 0.0

    def test_point_from_commit_filters_invalid(self):
        assert point_from_commit({"event": "step"}) is None
        assert point_from_commit(_commit(1, 2, 3, valid=False)) is None
        point = point_from_commit(_commit(1.5, 2000, 0.25))
        assert point == (1.5, 2000.0, 0.25)  # 2000 cyc @ 1000 ns -> 2000 us

    def test_tracker_tolerates_torn_lines(self, tmp_path):
        (tmp_path / "c.journal.jsonl").write_text(
            "\n".join(
                [
                    json.dumps(_commit(1.0, 1000, 0.5)),
                    '{"event": "commit", "repor',  # torn mid-write
                    "not json at all",
                    json.dumps(_commit(2.0, 500, 0.4)),
                ]
            )
            + "\n"
        )
        state = SweepState()
        state.refresh(tmp_path)
        cell = state.cells["c.journal.jsonl"]
        assert cell.commits == 2
        assert len(cell.points) == 2
        assert min(p[0] for p in cell.points) == 1.0
        assert cell.hypervolume() > 0.0

    def test_reference_point_needs_points(self):
        # No valid point, no reference point: no hypervolume yet.
        cell = CellState("cell.journal.jsonl")
        cell.feed(_commit(1.0, 1000, 0.5, valid=False))
        assert cell.commits == 1 and cell.points == []
        assert cell.hypervolume() is None

    def test_non_finite_point_is_dropped(self):
        """An ``"Infinity"`` objective (a journal sentinel float) adds
        no point, so the hypervolume stays finite; its commit still
        counts."""
        cell = _cell((1.0, 1000, 0.5), (2.0, 500, 0.4))
        points, hv = list(cell.points), cell.hypervolume()
        cell.feed(_commit("Infinity", 500, 0.4))
        cell.feed(_commit(0.1, "-Infinity", 0.1))
        assert cell.commits == 4
        assert cell.points == points
        assert cell.hypervolume() == hv and math.isfinite(hv)


# ---------------------------------------------------------------------------
# The monitor's hypervolume against the pure-python implementation it
# replaced


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


def _ref_cell_hypervolume(points):
    """The stdlib front and hypervolume of the valid points, against the
    componentwise worst point plus 10%."""
    points = [p for p in points if not any(math.isnan(v) for v in p)]
    if not points:
        return None
    ref = tuple(max(p[i] for p in points) * 1.1 + 1e-12 for i in range(3))
    return _ref_hypervolume(_ref_pareto_front(points), ref)


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
    plus dominated copies: a wide front with many exact ties."""
    pairs = draw(st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)),
        min_size=65, max_size=160, unique=True,
    ))
    points = [(float(a), float(b), float(60 - a - b)) for a, b in pairs]
    shadows = draw(st.lists(st.sampled_from(points), max_size=20))
    points += [(a + 1.0, b, c + 0.5) for a, b, c in shadows]
    order = draw(st.permutations(range(len(points))))
    return [_record("ok", points[i]) for i in order]


class TestFrontParity:
    """The monitor's cell hypervolume is bit-equal to the pure-python
    front and hypervolume it replaced (test-local copies above)."""

    @given(st.one_of(_tie_heavy_records(), _wide_front_records()))
    @settings(max_examples=60, deadline=None)
    def test_summary_matches_reference(self, records):
        cell = CellState("cell.journal.jsonl")
        for record in records:
            cell.feed(record)
        points = [
            p for p in map(point_from_commit, records) if p is not None
        ]
        want = _ref_cell_hypervolume(points)
        got = cell.hypervolume()
        if want is None:
            assert got is None
        else:
            assert got.hex() == want.hex()
        assert cell.commits == sum(r.get("event") == "commit" for r in records)


# ---------------------------------------------------------------------------
# Broker surfaces: /healthz schema, /metrics families, traces


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


# ---------------------------------------------------------------------------
# Monitor resilience


class TestMonitorResilience:
    def test_refresh_survives_truncated_and_mixed_schema(self, tmp_path):
        # A scraped series an older release left next to the logs is
        # skipped, torn tail and all.
        (tmp_path / "run.metrics.jsonl").write_text(
            json.dumps({"t": 1.0, "url": "http://b/metrics", "ok": True,
                        "metrics": {"fleet_submits_total": 2}})
            + "\n"
            + '{"t": 2.0, "url": "http://b/metrics", "ok": true, "met'
        )
        (tmp_path / "old.trace.jsonl").write_text(
            '{"v": 1, "event": "mystery", "payload": [1, 2]}\n'
            "garbage line\n"
        )
        # An older broker log still holds a ``best`` front record.
        (tmp_path / "b.fleet.jsonl").write_text(
            json.dumps(
                {"event": "submit", "queue": "session.a", "task": "t1",
                 "t": 1.0}
            )
            + "\n"
            + json.dumps(
                {"event": "best", "queue": "session.a", "hv": 0.5, "n": 1,
                 "commits": 1, "t": 1.5}
            )
            + "\n"
            + '{"event": "lease", "que'  # mid-rotation tear
        )
        state = SweepState()
        state.refresh(tmp_path)  # must not raise
        text = render(state, tmp_path, tick=1)
        assert "fleet" in text and "queue session.a" in text
        assert all(path.name != "run.metrics.jsonl" for path in state.tails)
        assert state.trace_events == 1  # the mystery record only


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
