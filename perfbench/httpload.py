"""HTTP workloads: the index saved as a snapshot and served by ``repro serve --http``.

Every measured run starts a fresh serve process in its own session and
stops it, and everything it leaves behind, before the run ends.  The
traced run serves the same snapshot from ``perfbench.serve_host``
instead, so the serving layers' public functions can be wrapped.
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import exact, stats
from perfbench.libload import install_engine
from perfbench.spans import Span, Tracer, totals
from perfbench.workloads import (
    DIST_RTOL, K, N, POOL, ReadOnlyCheck, Workload, fit, make_inputs,
)

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WARMUP_SECONDS = 1.0
#: ``setup_s`` is the median of this many serve starts in one run.
SETUP_REPS = 3
START_TIMEOUT = 120.0
STOP_TIMEOUT = 30.0
SETTLE_TIMEOUT = 60.0
REQUEST_TIMEOUT = 30.0
JSON_HEADERS = {"Content-Type": "application/json"}


class HttpClient:
    """One keep-alive connection; reconnects after a connection error."""

    def __init__(self, port: int, timeout: float = REQUEST_TIMEOUT) -> None:
        self.port = port
        self.timeout = timeout
        self.conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body: Optional[bytes] = None
                ) -> Tuple[str, Optional[bytes], float, float]:
        """``(outcome, body, sent, received)``; outcome is :func:`stats.classify`'s."""
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                   timeout=self.timeout)
        sent = time.perf_counter()
        try:
            self.conn.request(method, path, body=body,
                              headers=JSON_HEADERS if body is not None else {})
            response = self.conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return stats.classify(error=exc), None, sent, time.perf_counter()
        received = time.perf_counter()
        if response.will_close:
            self.close()
        return stats.classify(status=response.status), payload, sent, received

    def get_json(self, path: str) -> dict:
        outcome, payload, _, _ = self.request("GET", path)
        if outcome == "connection":
            # The serve closes a keep-alive connection idle for 60 s.
            outcome, payload, _, _ = self.request("GET", path)
        if outcome != "ok":
            raise RuntimeError(f"GET {path} failed: {outcome}")
        return json.loads(payload)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def _env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class Serve:
    """A serve process in its own session, ready once ``/healthz`` answers 200."""

    def __init__(self, argv: List[str], log: Path, hosted: bool) -> None:
        self.hosted = hosted
        self.log = log
        started = time.perf_counter()
        with open(log, "wb") as sink:
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env=_env(), stdout=sink, stderr=subprocess.STDOUT,
                stdin=subprocess.PIPE if hosted else subprocess.DEVNULL,
                start_new_session=True,
            )
        try:
            self.port = self._await_port(started)
            probe = HttpClient(self.port, timeout=5.0)
            while probe.request("GET", "/healthz")[0] != "ok":
                self._check_alive(started)
                time.sleep(0.005)
            probe.close()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started

    def _check_alive(self, started: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"serve exited {self.proc.returncode}: "
                               f"{self.log.read_text()[-2000:]}")
        if time.perf_counter() - started > START_TIMEOUT:
            raise RuntimeError("serve did not come up in time")

    def _await_port(self, started: float) -> int:
        while True:
            for line in self.log.read_text(errors="replace").splitlines():
                if line.startswith("http on "):
                    return int(line.split()[2].rpartition(":")[2])
            self._check_alive(started)
            time.sleep(0.005)

    def tree_pss_mb(self) -> float:
        """Proportional set size summed over the serve process tree."""
        parents: Dict[int, int] = {}
        for entry in Path("/proc").iterdir():
            if entry.name.isdigit():
                try:
                    stat = (entry / "stat").read_text()
                except OSError:
                    continue
                parents[int(entry.name)] = int(stat.rpartition(")")[2].split()[1])
        tree, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            tree.append(pid)
            frontier.extend(c for c, p in parents.items() if p == pid)
        total_kb = 0
        for pid in tree:
            try:
                with open(f"/proc/{pid}/smaps_rollup") as rollup:
                    for line in rollup:
                        if line.startswith("Pss:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """Ask the serve to shut down cleanly, then reap its whole session."""
        if self.proc.poll() is None:
            if self.hosted:
                self.proc.stdin.close()
            else:
                self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + STOP_TIMEOUT
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------


def _readers(port: int, bodies: List[bytes], seconds: float, n: int):
    """``n`` connections, each a closed loop of single-query POSTs."""
    records: List[list] = [[] for _ in range(n)]
    clients = [HttpClient(port) for _ in range(n)]
    started = time.perf_counter()
    deadline = started + seconds

    def loop(j: int) -> None:
        qi = j
        while time.perf_counter() < deadline:
            outcome, payload, sent, received = clients[j].request(
                "POST", "/query", bodies[qi % POOL])
            records[j].append((qi % POOL, sent, received, outcome, payload))
            qi += n

    threads = [threading.Thread(target=loop, args=(j,)) for j in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for client in clients:
        client.close()
    return [r for rs in records for r in rs], started


def _writer(port: int, plan: List[Tuple[str, int, bytes]], rate: float,
            started: float, log: list) -> None:
    """Open loop: write ``i`` is due at ``started + i / rate``."""
    client = HttpClient(port)
    for i, (op, _, body) in enumerate(plan):
        due = started + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        outcome, payload, sent, received = client.request("POST", f"/{op}", body)
        log.append((due, sent, received, outcome, payload))
    client.close()


def write_plan(seed: int, n_writes: int, fresh: np.ndarray):
    """Three inserts of fresh points, then one delete of a random live id."""
    rng = np.random.default_rng([seed, 2])
    plan, deleted, next_id, inserted = [], set(), N, 0
    for i in range(n_writes):
        if i % 4 == 3:
            while True:
                victim = int(rng.integers(0, next_id))
                if victim not in deleted:
                    break
            deleted.add(victim)
            plan.append(("delete", victim, json.dumps({"id": victim}).encode()))
        else:
            body = json.dumps({"point": fresh[inserted].tolist()}).encode()
            plan.append(("insert", next_id, body))
            next_id += 1
            inserted += 1
    return plan


# ----------------------------------------------------------------------
# Answer checks with writes
# ----------------------------------------------------------------------


class LiveCheck:
    """Scores answers against the live set while one writer mutates it."""

    def __init__(self, data, queries, fresh, truth_ids, truth_d, plan, write_log) -> None:
        self.data = data
        self.queries = queries
        self.fresh = fresh
        self.truth = (truth_ids, truth_d)
        self.problem: Optional[str] = None
        self.recalls: List[float] = []
        self.answers: Dict[int, List[int]] = {}
        self.ops: List[Tuple[str, int]] = []
        self.sent: List[float] = []
        self.acked: List[float] = []
        for (op, pid, _), (_, sent, received, outcome, payload) in zip(plan, write_log):
            if outcome != "ok":
                continue  # failed writes are counted, never applied
            reply = json.loads(payload)
            if op == "insert" and reply.get("id") != pid:
                self.problem = f"insert acked id {reply.get('id')}, expected {pid}"
            if op == "delete" and reply.get("deleted") is not True:
                self.problem = f"delete of live id {pid} answered {reply}"
            self.ops.append((op, pid))
            self.sent.append(sent)
            self.acked.append(received)
        self.inserted = [pid for op, pid in self.ops if op == "insert"]

    def point(self, pid: int) -> np.ndarray:
        return self.data[pid] if pid < N else self.fresh[pid - N]

    def add(self, qi: int, sent: float, received: float, ids, dists) -> None:
        if self.problem is not None:
            return
        ids = [int(i) for i in ids]
        problem = stats.malformed(ids, dists, K)
        q = self.queries[qi]
        if problem is None and not all(0 <= i < N + self.fresh.shape[0] for i in ids):
            problem = "id outside every live set"
        if problem is None:
            exact_d = np.linalg.norm(np.stack([self.point(i) for i in ids]) - q, axis=1)
            if not np.allclose(dists, exact_d, rtol=DIST_RTOL, atol=1e-9):
                problem = "returned distances differ from the exact ones"
        if problem is None:
            lo = bisect.bisect_left(self.acked, sent)
            hi = bisect.bisect_left(self.sent, received)
            ranked = list(zip(self.truth[1][qi].tolist(), self.truth[0][qi].tolist()))
            fresh_d = np.linalg.norm(self.fresh[: len(self.inserted)] - q, axis=1)
            insert_dist = dict(zip(self.inserted, fresh_d.tolist()))
            score, problem = stats.live_recall(
                ids, K, N, ranked, insert_dist, self.ops, lo, hi)
        if problem is not None:
            self.problem = f"query {qi}: {problem}"
            return
        self.answers.setdefault(qi, ids)
        self.recalls.append(score)

    @property
    def recall(self) -> float:
        return float(np.mean(self.recalls)) if self.recalls else 0.0

    @property
    def digest(self) -> str:
        return stats.digest(self.answers)


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


class _Run:
    """The run's scratch directory and how it starts serve processes."""

    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        self.work = WORK / f"{os.getpid()}"
        self.base = self.work / "base.npz"
        self.snap = self.work / "serve.npz"
        self.serves = 0

    def serve_args(self) -> List[str]:
        index = self.snap if self.wl.write_rate else self.base
        args = ["--index", str(index.relative_to(ROOT)),
                "--listen", str((self.work / "raw.sock").relative_to(ROOT)),
                "--http", "127.0.0.1:0"]
        if self.wl.write_rate:
            # Only the count trigger: the byte and measured-overhead
            # triggers fire at timing-dependent moments, and the number
            # of compactions per run must repeat exactly.
            args += ["--mutable", "--compact-threshold", str(self.wl.compact_every),
                     "--compact-wal-bytes", "0", "--compact-overhead", "0"]
        return args

    def start(self, hosted: bool = False, spans: Optional[Path] = None) -> Serve:
        if self.wl.write_rate:
            # A fresh, unmutated copy and no WAL: every start sees the
            # same files.  The copy leaves the snapshot in the page cache.
            shutil.rmtree(str(self.snap) + ".wal", ignore_errors=True)
            shutil.copyfile(self.base, self.snap)
        self.serves += 1
        log = self.work / f"serve{self.serves}.log"
        if hosted:
            argv = [sys.executable, "-m", "perfbench.serve_host",
                    "--spans", str(spans), "--", *self.serve_args()]
        else:
            argv = [sys.executable, "-m", "repro", "serve", *self.serve_args()]
        return Serve(argv, log, hosted)


def _phase(wl: Workload, serve: Serve, bodies, plan, seconds: float):
    """One measured phase: readers, plus the open-loop writer on http-mixed."""
    write_log: list = []
    writer = None
    if plan:
        writer = threading.Thread(
            target=_writer,
            args=(serve.port, plan, wl.write_rate, time.perf_counter(), write_log))
        writer.start()
    records, started = _readers(serve.port, bodies, seconds, wl.connections)
    if writer is not None:
        writer.join()
    return records, write_log, started


def expected_compactions(wl: Workload, n_writes: int) -> int:
    """Compactions a run of ``n_writes`` writes makes.

    Each time the pending count reaches the threshold the server folds
    it, and then at once folds the writes that arrived meanwhile: the
    wake-up those writes raised while the count was still over the
    threshold is not re-checked.  The threshold is set so that the
    second fold never reaches it again.
    """
    return 2 * (n_writes // wl.compact_every) if wl.compact_every else 0


def _settle(client: HttpClient, wl: Workload, before: dict, expected: int) -> dict:
    """Wait until the run's compactions have finished; returns ``/status``."""
    deadline = time.monotonic() + SETTLE_TIMEOUT
    while True:
        status = client.get_json("/status")
        if (not wl.write_rate
                or status["compactions"] - before["compactions"] >= expected
                or time.monotonic() > deadline):
            return status
        time.sleep(0.05)


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    run_ = _Run(wl)
    run_.work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(run_, wl, seed, seconds, trace)
    finally:
        shutil.rmtree(run_.work, ignore_errors=True)


def _run(run_: _Run, wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    from repro.io.snapshot import save_index

    host = exact.host_record()
    n_writes = int(round(wl.write_rate * seconds))
    data, queries, fresh = make_inputs(wl, seed, extra=n_writes)
    plan = write_plan(seed, n_writes, fresh)
    depth = K + sum(op == "delete" for op, _, _ in plan)
    truth_ids, truth_d, exact_qps = exact.yardstick(data, queries, depth)
    bodies = [json.dumps({"query": q.tolist(), "k": K}).encode() for q in queries]

    layers: Dict[str, float] = {"yardstick.exact_qps": exact_qps,
                                "host_cpus": host["host_cpus"]}
    tracer = Tracer()
    if trace:
        install_engine(tracer)
    try:
        index = fit(wl, data)
        with tracer.span("io.snapshot.save"):
            save_index(index, str(run_.base))
    finally:
        tracer.restore()
    del index
    if trace:
        tot = totals(tracer.spans)
        layers.update({
            "hashing.project_all_s": tot["hashing.project_all"]["total"],
            "index.build_s": tot["index.build"]["total"],
            "io.snapshot.save_s": tot["io.snapshot.save"]["total"],
        })

    setups = []
    reps = 1 if trace else SETUP_REPS
    for rep in range(reps):
        serve = run_.start()
        setups.append(serve.ready_s)
        if rep + 1 < reps:
            serve.stop()
    try:
        measured = _measure(wl, serve, data, queries, fresh, truth_ids, truth_d,
                            plan, bodies, seconds)
    finally:
        serve.stop()

    out = {
        "host": host,
        "problem": measured["check"].problem,
        "digest": measured["check"].digest,
        "outcomes": measured["outcomes"],
        "end_to_end": {
            "setup_s": stats.median(setups),
            "query_qps": measured["qps"],
            "query_p50_ms": measured["lat"]["p50_ms"],
            "query_tail_ms": measured["lat"]["tail_ms"],
            "recall_at_10": measured["check"].recall,
            "memory_mb": measured["pss_mb"],
        },
        "samples": {
            "setup_s": len(setups), "query": measured["lat"],
            "recall_at_10": len(measured["check"].recalls),
            "memory_note": f"PSS summed over the serve process tree at the end "
                           f"of the measured phase, every compaction finished; "
                           f"snapshot page-cache warm (written by this run just "
                           f"before serve started)",
        },
        "notes": measured["notes"],
        "layers": layers,
    }
    if "write" in measured:
        layers["write_p50_ms"] = measured["write"]["p50_ms"]
        layers["write_tail_ms"] = measured["write"]["tail_ms"]
    if trace:
        spans_path = run_.work / "spans.json"
        serve = run_.start(hosted=True, spans=spans_path)
        try:
            traced = _measure(wl, serve, data, queries, fresh, truth_ids, truth_d,
                              plan, bodies, seconds)
        finally:
            serve.stop()
        out["problem"] = out["problem"] or traced["check"].problem
        layers.update(_layers(wl, serve, traced, spans_path, measured["qps"]))
    return out


def _measure(wl, serve, data, queries, fresh, truth_ids, truth_d, plan, bodies,
             seconds) -> dict:
    """Warm up, run one measured phase and check every answer."""
    client = HttpClient(serve.port)
    warm, _ = _readers(serve.port, bodies, WARMUP_SECONDS, wl.connections)
    before = client.get_json("/status")
    metrics_before = client.get_json("/metrics")
    records, write_log, started = _phase(wl, serve, bodies, plan, seconds)
    status = _settle(client, wl, before, expected_compactions(wl, len(plan)))
    # Taken once every fold has finished.  A peak sampled every 0.2 s
    # through the phase caught a compaction's transient only some of the
    # time (spread 0.05 of its median over ten runs), and each sample
    # held this process's interpreter lock for ~6 ms.
    pss = serve.tree_pss_mb()
    metrics_after = client.get_json("/metrics")
    client.close()
    if plan:
        check = LiveCheck(data, queries, fresh, truth_ids, truth_d, plan, write_log)

        def add(qi, sent, received, answer):
            check.add(qi, sent, received, answer["ids"], answer["distances"])
    else:
        check = ReadOnlyCheck(data, queries, truth_ids)

        def add(qi, sent, received, answer):
            check.add(qi, answer["ids"], answer["distances"])
    for qi, sent, received, outcome, payload in warm + records:
        if outcome == "ok":
            add(qi, sent, received, json.loads(payload)["results"][0])
    outcomes = stats.Outcomes()
    ok = [r for r in records if r[3] == "ok"]
    for record in records:
        outcomes.add(record[3])
    wall = max(r[2] for r in records) - started
    out = {
        "check": check, "outcomes": outcomes, "pss_mb": pss,
        "qps": len(ok) / wall,
        "lat": stats.latency_summary([r[2] - r[1] for r in ok], wl.tail_pct),
        "notes": [], "records": records, "started": started,
        "status": (before, status), "metrics": (metrics_before, metrics_after),
    }
    if plan:
        for entry in write_log:
            outcomes.add(entry[3])
        acks = [received - due for due, _, received, outcome, _ in write_log
                if outcome == "ok"]
        out["write"] = stats.latency_summary(acks, wl.write_tail_pct)
        late = max(sent - due for due, sent, _, _, _ in write_log)
        compactions = status["compactions"] - before["compactions"]
        expected = expected_compactions(wl, len(plan))
        w = out["write"]
        out["notes"] += [
            f"writes: {len(plan)} at {wl.write_rate:g}/s open loop, "
            f"p50 {w['p50_ms']:.4g} ms, p{w['tail_pct']:g} {w['tail_ms']:.4g} ms "
            f"(n={w['n']}, {w['tail_beyond']} beyond), generator at most "
            f"{late * 1e3:.3g} ms late",
            f"compactions: {compactions} (count trigger at {wl.compact_every} "
            f"pending; {expected} expected)",
        ]
        out["compactions"] = compactions
    return out


def _layers(wl: Workload, serve: Serve, m: dict, spans_path: Path,
            untraced_qps: float) -> Dict[str, float]:
    """Per-layer numbers from the hosted serve's spans and the client's calls."""
    spans = [Span.from_dict(d) for d in json.loads(spans_path.read_text())["spans"]]
    window = [s for s in spans if s.start >= m["started"]]

    def named(name: str, pool=window) -> List[Span]:
        return [s for s in pool if s.name == name]

    def mean(values) -> float:
        values = list(values)
        return float(np.mean(values)) if values else 0.0

    # The coordinator span a request rode in: the latest-ending outermost
    # batch span that lies wholly inside the request's client span.
    outer = sorted((s for s in window if s.parent is None
                    and s.name in ("serve.server.batch", "serve.mutable.batch")),
                   key=lambda s: s.end)
    ends = [s.end for s in outer]
    overheads, total, matched = [], 0.0, 0.0
    for _, sent, received, outcome, _ in m["records"]:
        if outcome != "ok":
            continue
        total += received - sent
        j = bisect.bisect_right(ends, received) - 1
        while j >= 0 and outer[j].end >= sent and outer[j].start < sent:
            j -= 1
        if j >= 0 and outer[j].end >= sent:
            matched += received - sent
            overheads.append(received - sent - outer[j].duration)

    batches = named("serve.server.batch")
    results = sum(s.extra.get("results", 0) for s in batches)
    engine = sum(s.extra.get("engine_s", 0.0) for s in batches)
    sweeps = named("core.delta_sweep")
    compacts = [s for s in named("serve.mutable.compact") if s.extra.get("compacted")]
    waits = sorted(named("io.wal.commit_wait"), key=lambda s: s.end)
    # Acks of one commit group share the log size they return; the
    # growth from one group's size to the next is that group's bytes.
    runs: List[List[int]] = []
    for s in waits:
        if runs and runs[-1][0] == s.extra["size"]:
            runs[-1][1] += 1
        else:
            runs.append([s.extra["size"], 1])
    grown = [(b - a, n) for (a, _), (b, n) in zip(runs, runs[1:]) if b > a]
    start_s = sum(s.duration for s in named("serve.server.start", spans) if s.parent is None)
    http_s = sum(s.duration for s in named("serve.http.start", spans))
    (s0, s1), (m0, m1) = m["status"], m["metrics"]

    def delta(doc0, doc1, *keys) -> float:
        for key in keys:
            doc0, doc1 = doc0[key], doc1[key]
        return doc1 - doc0

    query_lat = ("endpoints", "query", "latency_seconds")
    queue_wait = (delta(m0, m1, *query_lat, "sum") / max(delta(m0, m1, *query_lat, "count"), 1)
                  - delta(m0, m1, "batch_latency_seconds", "sum")
                  / max(delta(m0, m1, "batch_latency_seconds", "count"), 1))
    out = {
        "serve.worker.engine_ms": engine / results * 1e3 if results else 0.0,
        "serve.server.batch_ms": mean(s.duration for s in batches) * 1e3,
        "serve.server.ipc_ms": mean(s.duration - s.extra.get("engine_s", 0.0)
                                    for s in batches) * 1e3,
        "serve.http.overhead_ms": mean(overheads) * 1e3,
        "serve.http.batch_size": delta(m0, m1, "batch", "sum")
        / max(delta(m0, m1, "batch", "count"), 1),
        "serve.http.queue_wait_ms": queue_wait * 1e3,
        "serve.server.start_s": start_s,
        "serve.http.start_s": http_s,
        "setup.traced_s": serve.ready_s,
        "setup.other_s": serve.ready_s - start_s - http_s,
        "core.delta_sweep_ms": sum(s.duration for s in sweeps) / max(len(outer), 1) * 1e3,
        "core.delta_rows_max": max((s.extra["rows"] for s in sweeps), default=0),
        "trace.coverage": matched / total if total else 0.0,
        "trace.overhead_frac": 1.0 - m["qps"] / untraced_qps,
    }
    if wl.write_rate:
        groups = s1["wal_groups_committed"] - s0["wal_groups_committed"]
        records = (s1["wal_groups_committed"] * s1["wal_mean_group_records"]
                   - s0["wal_groups_committed"] * s0["wal_mean_group_records"])
        out.update({
            "serve.mutable.compactions": m["compactions"],
            "serve.mutable.compact_s": mean(s.duration for s in compacts),
            "io.wal.commit_wait_ms": mean(s.duration for s in waits) * 1e3,
            "io.wal.groups": groups,
            "io.wal.records_per_group": records / groups if groups else 0.0,
            "io.wal.bytes_per_record": (sum(b for b, _ in grown) / sum(n for _, n in grown)
                                        if grown else 0.0),
            "io.snapshot.load_s": mean(s.duration for s in named("io.snapshot.load")),
        })
    return out
