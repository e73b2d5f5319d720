"""Server process of the serve-open workload: ``make_backend`` + ``AdmissionServer``.

Usage (started by ``serve_open.py`` with the program's source on
``PYTHONPATH``)::

    python3 perfbench/launcher.py --seed N --horizon H --socket PATH [--trace-file PATH]

Serves one single-cluster backend built with the program's defaults on the
Unix socket ``PATH``, prints ``{"socket": PATH}`` once listening, and after a
client's ``shutdown`` prints its report: CPU seconds and peak resident set
of this process and, with ``--trace-file``, the per-layer split of the
server (wrappers installed before the server starts; spans written to
``PATH`` in Chrome trace-event format).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from time import process_time


async def start_on_unix_socket(server, path: str) -> None:
    """``server.start()``, listening on the Unix socket ``path`` instead of TCP.

    The server binds through ``asyncio.start_server``; that call is swapped
    for ``asyncio.start_unix_server`` while ``start()`` runs, so the same
    connection handler serves the same framed protocol.  A sandbox without
    a network may have no usable loopback interface, and a Unix socket
    needs none.
    """
    tcp = asyncio.start_server

    async def unix(client_connected_cb, host=None, port=None, **kwargs):
        return await asyncio.start_unix_server(client_connected_cb, path, **kwargs)

    asyncio.start_server = unix
    try:
        await server.start()
    finally:
        asyncio.start_server = tcp
    if not Path(path).exists():
        raise RuntimeError(f"the server did not listen on {path}")


async def serve(backend, rec, socket_path: str, trace_file: str | None) -> dict:
    from common import peak_rss_mb
    from repro.serve.server import AdmissionServer

    server = AdmissionServer(backend)
    await start_on_unix_socket(server, socket_path)
    print(json.dumps({"socket": socket_path}), flush=True)
    cpu = process_time()
    await server.wait_closed()
    report = {"cpu_s": process_time() - cpu, "rss_mb": peak_rss_mb()}
    if rec is not None:
        from common import members
        from layers import layer_metrics

        sims = members(backend.sim)
        arrivals = sum(s.scheduler.stats.arrivals for s in sims)
        report["layers"] = layer_metrics(rec, sims, arrivals)
        report["spans"] = rec.write_chrome(trace_file)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--horizon", type=float, required=True)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    from common import ALGORITHM, serve_scenario
    from repro.serve.backend import make_backend

    backend = make_backend(serve_scenario(args.seed, args.horizon), ALGORITHM)
    rec = None
    if args.trace_file:
        from layers import SpanRecorder, instrument_serve

        rec = SpanRecorder()
        instrument_serve(rec, backend)
    try:
        report = asyncio.run(serve(backend, rec, args.socket, args.trace_file))
    finally:
        Path(args.socket).unlink(missing_ok=True)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
