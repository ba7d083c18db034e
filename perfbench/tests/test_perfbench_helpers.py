"""Tests for the benchmark's own helpers: statistics, spans, answer checks."""

from __future__ import annotations

import http.server
import socket
import threading
import time

import pytest

from perfbench import stats
from perfbench.httpload import HttpClient
from perfbench.spans import Span, Tracer, covered, self_times, totals


# -- percentiles and the ten-beyond rule ---------------------------------


def test_nearest_rank_percentile_is_an_observed_sample():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([3.0], 99) == 3.0


@pytest.mark.parametrize(
    "n, preferred, expected",
    [
        (100, None, 90.0),  # exactly ten beyond p90
        (99, None, 80.0),  # p90 would leave nine
        (1000, None, 99.0),
        (1000, 98.0, 98.0),  # the workload's fixed percentile caps it
        (30, 99.0, 50.0),
        (15, None, None),  # even the median leaves fewer than ten
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, preferred, expected):
    assert stats.tail_percentile(n, preferred) == expected
    if expected is not None:
        assert stats.samples_beyond(n, expected) >= stats.MIN_BEYOND


def test_latency_summary_reports_the_percentile_it_used():
    summary = stats.latency_summary([i / 1000 for i in range(1, 101)], 99.0)
    assert summary["tail_pct"] == 90.0
    assert summary["tail_beyond"] == 10
    assert summary["n"] == 100
    assert summary["tail_ms"] == pytest.approx(90.0)
    assert summary["p50_ms"] == pytest.approx(50.0)


# -- self time -------------------------------------------------------------


def _span(sid, start, end, parent=None):
    span = Span(sid, f"s{sid}", start, parent, None)
    span.end = end
    return span


def test_self_time_subtracts_nested_and_adjacent_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 4.0, 6.0, parent=1),  # adjacent to span 2
        _span(4, 2.0, 3.0, parent=2),  # nested one level deeper
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(5.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(1.0)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([(1, 5), (3, 7)], 0, 10) == pytest.approx(6.0)
    assert covered([(-2, 2), (9, 12)], 0, 10) == pytest.approx(3.0)
    assert covered([], 0, 10) == 0.0


class _Walker:
    def run(self, n):
        return sum(self.walk(n))

    def walk(self, n):
        for i in range(n):
            time.sleep(0.001)
            yield i


def test_tracer_wraps_calls_and_generator_steps_then_restores():
    original_run, original_walk = _Walker.__dict__["run"], _Walker.__dict__["walk"]
    tracer = Tracer()
    tracer.wrap(_Walker, "run", "run")
    tracer.wrap_steps(_Walker, "walk", "step",
                      on_call=lambda args: lambda item: tracer.count("items"))
    try:
        with tracer.span("request", req=7):
            assert _Walker().run(3) == 3
    finally:
        tracer.restore()
    assert _Walker.__dict__["run"] is original_run
    assert _Walker.__dict__["walk"] is original_walk
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (request,), (run,) = by_name["request"], by_name["run"]
    steps = by_name["step"]
    assert len(steps) == 4  # three items and the step that ends the generator
    assert run.parent == request.sid
    assert all(step.parent == run.sid for step in steps)
    assert {span.req for span in tracer.spans} == {7}
    assert tracer.counters["items"] == 3
    row = totals(tracer.spans)["run"]
    assert row["self"] < row["total"]


# -- live-set recall -------------------------------------------------------

BASE = [(float(d), i) for d, i in zip(range(1, 21), range(20))]  # id i at i + 1


def test_live_recall_counts_the_write_in_flight_as_applied_or_not():
    ops = [("insert", 100)]
    near = {100: 0.5}  # the new point would be every query's nearest
    without = list(range(10))
    with_insert = [100] + list(range(9))
    for answer in (without, with_insert):
        score, problem = stats.live_recall(answer, 10, 50, BASE, near, ops, 0, 1)
        assert problem is None
        assert score == 1.0
    # Once acked before the query was sent, the insert must be seen.
    score, problem = stats.live_recall(without, 10, 50, BASE, near, ops, 1, 1)
    assert problem is None and score == pytest.approx(0.9)


def test_live_recall_rejects_deleted_and_unknown_ids():
    ops = [("delete", 3)]
    answer = list(range(10))  # still returns id 3
    _, problem = stats.live_recall(answer, 10, 50, BASE, {}, ops, 1, 1)
    assert problem is not None
    score, problem = stats.live_recall(answer, 10, 50, BASE, {}, ops, 0, 1)
    assert problem is None and score == 1.0  # delete still in flight
    _, problem = stats.live_recall([77] + list(range(9)), 10, 50, BASE, {}, [], 0, 0)
    assert problem is not None  # 77 was never inserted


def test_malformed_answers_are_named():
    assert stats.malformed([1, 2], [0.1, 0.2], 2) is None
    assert "expected" in stats.malformed([1], [0.1], 2)
    assert "sorted" in stats.malformed([1, 2], [0.2, 0.1], 2)
    assert "duplicate" in stats.malformed([1, 1], [0.1, 0.2], 2)
    assert stats.malformed([1, 2], [0.1, float("nan")], 2) is not None


# -- failure accounting ----------------------------------------------------


class _Handler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        if self.path == "/slow":
            time.sleep(0.5)
        status = 429 if self.path == "/shed" else 200
        body = b"{}"
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_failed_frac_counts_429s_timeouts_and_refused_connections():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    closed = socket.socket()
    closed.bind(("127.0.0.1", 0))
    closed_port = closed.getsockname()[1]
    closed.close()  # nothing listens here: connecting is refused
    try:
        outcomes = stats.Outcomes()
        client = HttpClient(server.server_address[1], timeout=0.1)
        for path in ("/ok", "/shed", "/slow", "/ok"):
            outcomes.add(client.request("GET", path)[0])
        client.close()
        outcomes.add(HttpClient(closed_port, timeout=0.1).request("GET", "/ok")[0])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert dict(outcomes.kinds) == {"ok": 2, "http_429": 1, "timeout": 1, "refused": 1}
    assert outcomes.attempted == 5
    assert outcomes.failed == 3
    assert outcomes.failed_frac == pytest.approx(0.6)
