"""In-process workloads: ``DBLSH`` driven through its public API."""

from __future__ import annotations

import gc
import time
from contextlib import nullcontext
from typing import Dict, List, Tuple

from perfbench import exact, stats
from perfbench.hostspeed import SETUP_KERNELS, HostClock, scaled
from perfbench.spans import Tracer, totals
from perfbench.workloads import (
    K, POOL, ReadOnlyCheck, Workload, fit, make_inputs,
)

WARMUP_SECONDS = 0.5
#: ``setup_s`` is the median of this many fits in one run.
SETUP_REPS = 5


def rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS in /proc/self/status")


def install_engine(tracer: Tracer) -> Dict[int, Tuple[object, int]]:
    """Wrap the engine's public entry points; returns the tree baselines.

    ``DBLSH`` never fills ``QueryStats.index_node_visits``, so node visits
    are read from each ``FlatRStarTree``'s own counters: the returned
    dict maps each tree seen to its count before its first traced walk.
    """
    from repro.core import dblsh
    from repro.hashing.compound import CompoundHasher
    from repro.index.flat import FlatRStarTree

    trees: Dict[int, Tuple[object, int]] = {}

    def on_walk(args):
        tree = args[0]
        trees.setdefault(id(tree), (tree, tree.stats.node_visits))
        tracer.count("index.windows")

        def after(chunk):
            tracer.count("index.chunks")
            tracer.count("index.ids_emitted", chunk.shape[0])

        return after

    tracer.wrap(dblsh.DBLSH, "query_batch", "core.query")
    tracer.wrap(dblsh.DBLSH, "query", "core.query")
    tracer.wrap(CompoundHasher, "project_queries", "hashing.project")
    tracer.wrap(CompoundHasher, "project_query", "hashing.project")
    tracer.wrap(CompoundHasher, "project_all", "hashing.project_all")
    tracer.wrap(dblsh, "build_flat_str", "index.build")
    tracer.wrap_steps(FlatRStarTree, "window_query_iter", "index.traverse", on_walk)
    return trees


def _loop(wl: Workload, index, queries, seconds: float, tracer=None, clock=None):
    """Closed loop of library calls for ``seconds``; one thread.  With a
    ``clock``, calibration slices run between calls."""
    calls: List[Tuple[float, float]] = []
    answers = []
    pos = 0
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        if clock is not None:
            clock.tick()
        picks = [(pos + j) % POOL for j in range(wl.batch)]
        pos += wl.batch
        scope = tracer.span("client.call", req=len(calls)) if tracer else nullcontext()
        with scope:
            t0 = time.perf_counter()
            if wl.batch == 1:
                results = [index.query(queries[picks[0]], k=K)]
            else:
                results = index.query_batch(queries[picks], k=K)
            t1 = time.perf_counter()
        calls.append((t0, t1))
        answers.extend(zip(picks, results))
    wall = calls[-1][1] - started
    return calls, answers, wall


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    host = exact.host_record()
    data, queries, _ = make_inputs(wl, seed)
    truth, _, exact_qps = exact.yardstick(data, queries, K)

    clock = HostClock()
    setups, growth = [], []
    index = None
    for _ in range(SETUP_REPS):
        index = None
        gc.collect()
        before = rss_mb()
        clock.slice(SETUP_KERNELS)
        t0 = time.perf_counter()
        index = fit(wl, data)
        t1 = time.perf_counter()
        clock.slice(SETUP_KERNELS)
        setups.append((t0, t1))
        growth.append(rss_mb() - before)

    check = ReadOnlyCheck(data, queries, truth)
    outcomes = stats.Outcomes()
    # Untimed warm-up: first scratch masks, lazily frozen tables, caches.
    _, warm, _ = _loop(wl, index, queries, WARMUP_SECONDS)
    for qi, res in warm:
        check.add(qi, res.ids, res.distances)

    calls, answers, _ = _loop(wl, index, queries, seconds, clock=clock)
    for qi, res in answers:
        check.add(qi, res.ids, res.distances)
        outcomes.add("ok")
    started, ended = calls[0][0], calls[-1][1]
    raw_qps = len(answers) / (ended - started - clock.paused(started, ended))
    raw = stats.latency_summary([b - a for a, b in calls], wl.tail_pct)
    lat = stats.latency_summary(scaled(clock, calls), wl.tail_pct)
    setup_s = scaled(clock, setups)
    out = {
        "host": host,
        "problem": check.problem,
        "digest": check.digest,
        "outcomes": outcomes,
        "end_to_end": {
            "setup_s": stats.median(setup_s),
            "query_qps": len(answers) / clock.scaled_span(started, ended),
            "query_p50_ms": lat["p50_ms"],
            "query_tail_ms": lat["tail_ms"],
            "recall_at_10": check.recall,
            "memory_mb": stats.median(growth),
        },
        "samples": {"setup_s": len(setups), "query": lat, "recall_at_10": len(check.recalls),
                    "memory_note": f"RSS growth of this process across fit, median "
                                   f"of n={len(growth)} set-ups"},
        "notes": [f"unscaled: setup {stats.median(b - a for a, b in setups):.4g} s, "
                  f"{raw_qps:.4g} queries/s, p50 {raw['p50_ms']:.4g} ms, "
                  f"p{raw['tail_pct']:g} {raw['tail_ms']:.4g} ms; host speed "
                  f"{clock.factor(started, ended):.3f} of the reference"],
        "layers": {"yardstick.exact_qps": exact_qps, "host_cpus": host["host_cpus"],
                   "host.speed": clock.factor(started, ended)},
    }
    if trace:
        out["layers"].update(_traced(wl, data, queries, seconds, check, raw_qps))
        out["problem"] = check.problem
    return out


def _traced(wl: Workload, data, queries, seconds: float,
            check: ReadOnlyCheck, untraced_qps: float) -> Dict[str, float]:
    tracer = Tracer()
    trees = install_engine(tracer)
    try:
        t0 = time.perf_counter()
        index = fit(wl, data)
        fit_s = time.perf_counter() - t0
        setup = totals(tracer.spans)
        tracer.spans.clear()
        trees.clear()
        tracer.counters.clear()
        _loop(wl, index, queries, 0.2)  # settle the wrappers' first calls
        tracer.spans.clear()
        tracer.counters.clear()
        trees.clear()
        calls, answers, wall = _loop(wl, index, queries, seconds, tracer)
    finally:
        tracer.restore()
    for qi, res in answers:
        check.add(qi, res.ids, res.distances)
    nq = len(answers)
    tot = totals(tracer.spans)
    project = tot["hashing.project"]["total"]
    traverse = tot["index.traverse"]["total"]
    verify = tot["core.query"]["self"]
    engine = project + traverse + verify
    node_visits = sum(tree.stats.node_visits - base for tree, base in trees.values())
    st = [res.stats for _, res in answers]
    candidates = sum(s.candidates_verified for s in st)
    emitted = tracer.counters["index.ids_emitted"]
    return {
        "hashing.project_ms": project / nq * 1e3,
        "index.traverse_ms": traverse / nq * 1e3,
        "core.verify_ms": verify / nq * 1e3,
        "index.traverse_share": traverse / engine,
        "core.verify_share": verify / engine,
        "index.windows": tracer.counters["index.windows"] / nq,
        "index.chunks": tracer.counters["index.chunks"] / nq,
        "index.ids_emitted": emitted / nq,
        "index.node_visits": node_visits / nq,
        "index.fresh_frac": candidates / emitted if emitted else 0.0,
        "core.candidates": candidates / nq,
        "core.distance_computations": sum(s.distance_computations for s in st) / nq,
        "core.rounds": sum(s.rounds for s in st) / nq,
        "core.stop_budget_frac": sum(s.terminated_by == "budget" for s in st) / nq,
        "core.stop_radius_frac": sum(s.terminated_by == "radius" for s in st) / nq,
        "hashing.project_all_s": setup["hashing.project_all"]["total"],
        "index.build_s": setup["index.build"]["total"],
        "setup.traced_s": fit_s,
        "setup.other_s": fit_s - setup["hashing.project_all"]["total"]
        - setup["index.build"]["total"],
        "trace.coverage": tot["core.query"]["total"] / wall,
        "trace.overhead_frac": 1.0 - (nq / wall) / untraced_qps,
    }
