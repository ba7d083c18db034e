"""Host ``repro serve``'s server and gateway in a process the benchmark owns.

    python3 -m perfbench.serve_host --spans OUT.json -- <repro serve arguments>

The arguments are parsed by the CLI's own parser and the server and
gateway are composed the way ``repro serve`` composes them, but with
the serving layers' public functions wrapped in spans.  The process
serves until its standard input closes, then writes the spans to OUT.
"""

from __future__ import annotations

import argparse
import json
import sys

from perfbench.spans import Tracer


def install_serve(tracer: Tracer) -> None:
    from repro.core.delta import DeltaView
    from repro.io.wal import CommitTicket
    from repro.serve import http, mutable, server

    def on_decode(span, args, result):
        batch = tracer.enclosing("serve.server.batch")
        if batch is not None:
            batch.extra["engine_s"] = (
                batch.extra.get("engine_s", 0.0) + result.stats.elapsed_seconds
            )
            batch.extra["results"] = batch.extra.get("results", 0) + 1

    def on_sweep(span, args, result):
        span.extra["rows"] = len(args[0])

    def on_compact(span, args, result):
        span.extra["compacted"] = bool(result.get("compacted"))

    def on_wait(span, args, result):
        span.extra["size"] = int(result)

    tracer.wrap(server.SnapshotServer, "start", "serve.server.start")
    tracer.wrap(mutable.MutableSnapshotServer, "start", "serve.server.start")
    tracer.wrap(http.HttpGateway, "start", "serve.http.start")
    tracer.wrap(server.SnapshotServer, "query_batch", "serve.server.batch")
    tracer.wrap(mutable.MutableSnapshotServer, "query_batch", "serve.mutable.batch")
    tracer.wrap(server, "decode_result", "serve.server.decode", on_decode)
    tracer.wrap(DeltaView, "sweep", "core.delta_sweep", on_sweep)
    tracer.wrap(mutable.MutableSnapshotServer, "compact", "serve.mutable.compact",
                on_compact)
    tracer.wrap(CommitTicket, "wait", "io.wal.commit_wait", on_wait)
    tracer.wrap(mutable, "save_index", "io.snapshot.save")
    tracer.wrap(mutable, "load_index", "io.snapshot.load")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro.cli import build_parser
    from repro.serve import HttpGateway, MutableSnapshotServer, SnapshotServer

    opts = build_parser().parse_args(["serve", *serve_args])
    tracer = Tracer()
    install_serve(tracer)
    try:
        if opts.mutable:
            server = MutableSnapshotServer(
                opts.index, query_timeout=opts.query_timeout,
                hang_policy=opts.hang_policy, mp_context=opts.mp_context,
                wal_path=opts.wal, compact_threshold=opts.compact_threshold,
                compact_wal_bytes=opts.compact_wal_bytes,
                compact_overhead=opts.compact_overhead,
                group_commit_ms=opts.wal_group_commit_ms,
                group_bytes=opts.wal_group_bytes,
                segment_bytes=opts.wal_segment_bytes,
            )
        else:
            server = SnapshotServer(
                opts.index, query_timeout=opts.query_timeout,
                hang_policy=opts.hang_policy, mp_context=opts.mp_context,
            )
        host, _, port = opts.http.rpartition(":")
        with server:
            gateway = HttpGateway(
                server, host or "127.0.0.1", int(port),
                batch_window=opts.http_batch_window,
                max_batch=opts.http_max_batch,
                queue_limit=opts.http_queue_limit,
                default_timeout=opts.http_default_timeout,
                idle_timeout=opts.http_idle_timeout,
                max_connections=opts.http_max_connections,
            ).start()
            try:
                print(f"http on {gateway.address}", flush=True)
                sys.stdin.read()
            finally:
                gateway.close()
    finally:
        tracer.restore()
        with open(args.spans, "w") as out:
            json.dump({"spans": [s.to_dict() for s in tracer.spans],
                       "counters": dict(tracer.counters)}, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
