"""The serve-open workload: one load generator, two connections, one server process.

The server (``launcher.py``) runs the program's own backend and
``AdmissionServer`` in a process of its own, listening on a Unix socket
(a sandbox without a network may have no usable loopback interface).
This process generates the task stream and drives it over two
connections from a single thread, each connection carrying a round-robin
shard of the stream, so the server's watermark merge orders the two
shards back into one.

Phase 1 (three quarters of the run) is an open loop: requests are due on
a fixed schedule, 1000 submits/s with one probe before one seeded submit of
every four, and each latency runs from the request's due time to its reply,
so a server stall also delays the requests queued behind it.  Phase 2 is a
saturating closed loop of submits only, each connection keeping a fixed
window in flight; decisions/s comes from it, measured in segments with
the server's CPU speed measured between them.  Latencies are medians over
windows of 250 requests, and the rate is the median over the segments.
A traced run repeats the session with the layer wrappers installed in the
server.

Afterwards the stream is run offline: ``loopback_diff`` of the server's
finalize payload against it must be empty, every reply must equal the
offline decision, and the decisions must equal the reference test's.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import socket
import subprocess
import sys
from collections import deque
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The server's Unix socket, relative to the checkout root (the working
#: directory of both processes), which keeps it short of the length limit.
SOCKET = f".bench_out/serve-{os.getpid()}.sock"

#: Phase 1: share of the run, submit rate, and one probe per this many
#: submits.  At 16 s the phase holds 48 windows of 250 submits and 12 of
#: 250 probes.
OPEN_SHARE = 0.75
OPEN_RATE = 1000.0
PROBE_EVERY = 4
#: Phase 2: tasks per requested second, and requests in flight per connection.
#: The window keeps the server busy all the time (server CPU time equals
#: wall time), so the rate follows the speed of the server's CPU, which the
#: calibration tracks, and not that of the generator's.
SATURATE_TASKS_PER_S = 1500
WINDOW = 64
#: Phase 2 runs in this many segments, with the server's CPU speed
#: measured between them.
SEGMENTS = 16
#: Arrivals per simulation time unit of the paper scenario at load 0.6
#: (the stream is generated over a horizon long enough for both phases).
ARRIVALS_PER_UNIT = 4.47e-4
#: A reply later than this counts as a failure; no reply at all for
#: ``STALL_S`` aborts the run.
REPLY_TIMEOUT_S = 10.0
STALL_S = 30.0


class Wire:
    """One client connection speaking the framed protocol, without blocking reads.

    The server answers a connection's requests in order, so each reply is
    matched to the oldest pending request by position alone; payloads are
    decoded after the session (:meth:`Session.settle`), which keeps the load
    generator's own work per reply to a header read.
    """

    def __init__(self, path: str, encode_frame) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(STALL_S)
        self.sock.connect(path)
        self._encode = encode_frame
        self._buf = bytearray()
        self.next_seq = 0
        #: Set once the server has closed this connection.
        self.closed = False
        #: (seq, kind, due time, stream position) of requests awaiting a reply.
        self.pending: deque[tuple[int, str, float, int]] = deque()

    def encode(self, message: dict) -> tuple[int, bytes]:
        """Number one request and return ``(seq, frame)``; nothing is sent."""
        seq = self.next_seq
        self.next_seq += 1
        return seq, self._encode({**message, "seq": seq})

    def send(self, message: dict, kind: str, due: float, position: int = -1) -> None:
        seq, frame = self.encode(message)
        self.pending.append((seq, kind, due, position))
        self.sock.sendall(frame)

    def receive(self) -> list[tuple[int, bytes]]:
        """Read what the socket has; return every complete ``(codec byte, payload)``."""
        data = self.sock.recv(1 << 20)
        if not data:
            # A shutdown closes every connection, so the other connection
            # may see its end before this one sees the shutdown reply.
            if self.pending:
                raise ConnectionError("the server closed the connection")
            self.closed = True
            return []
        buf = self._buf
        buf += data
        frames = []
        while len(buf) >= 5:
            end = 5 + int.from_bytes(buf[1:5], "big")
            if len(buf) < end:
                break
            frames.append((buf[0], bytes(buf[5:end])))
            del buf[:end]
        return frames

    def close(self) -> None:
        self.sock.close()


class Session:
    """Both connections, the reply bookkeeping, and the two phase loops."""

    def __init__(self, path: str, tasks: list, protocol) -> None:
        self.tasks = tasks
        self.encode_task = protocol.encode_task
        self.decode_payload = protocol.decode_payload
        self.wires = [Wire(path, protocol.encode_frame) for _ in range(2)]
        # select(2) takes its timeout in microseconds; epoll rounds it up to
        # whole milliseconds, which would make every open-loop send late.
        self.selector = selectors.SelectSelector()
        for wire in self.wires:
            self.selector.register(wire.sock, selectors.EVENT_READ, wire)
        #: Every reply: (expected seq, kind, stream position, codec, payload).
        self.raw: list[tuple[int, str, int, int, bytes]] = []
        #: Arrival time of every submit reply, in order.
        self.submit_replies: list[float] = []
        self.latency: dict[str, list[float]] = {"submit": [], "probe": []}
        self.failed = 0
        for wire in self.wires:
            self.call(wire, {"op": "hello", "codec": "json"})

    def close(self) -> None:
        self.selector.close()
        for wire in self.wires:
            wire.close()

    def outstanding(self) -> int:
        return sum(len(w.pending) for w in self.wires)

    def pump(self, timeout: float, record: bool = False) -> None:
        """Wait up to ``timeout`` for replies and account for each one."""
        events = self.selector.select(timeout)
        if not events and timeout >= STALL_S:
            raise TimeoutError(f"no reply for {STALL_S} s")
        for key, _ in events:
            wire = key.data
            frames = wire.receive()
            if wire.closed:
                self.selector.unregister(wire.sock)
            now = perf_counter()
            for codec, payload in frames:
                seq, kind, due, position = wire.pending.popleft()
                self.raw.append((seq, kind, position, codec, payload))
                late = now - due
                if late > REPLY_TIMEOUT_S:
                    self.failed += 1
                if kind == "submit":
                    self.submit_replies.append(now)
                if record and kind in self.latency:
                    self.latency[kind].append(late)

    def call(self, wire: Wire, message: dict) -> dict:
        """Send one control request once nothing is in flight; return its reply."""
        wire.send(message, "control", perf_counter())
        while self.outstanding():
            self.pump(STALL_S)
        seq, _, _, codec, payload = self.raw.pop()
        reply = self.decode_payload(codec, payload)
        if reply.get("seq") != seq or not reply.get("ok"):
            raise RuntimeError(f"server error: {reply}")
        return reply

    def settle(self) -> tuple[dict[int, tuple], int]:
        """Decode every reply: the decision per stream position, and failures.

        A failure is an error reply, or a reply whose id is not the one its
        position in the connection's order calls for.
        """
        decisions: dict[int, tuple] = {}
        failed = self.failed
        for seq, kind, position, codec, payload in self.raw:
            reply = self.decode_payload(codec, payload)
            if reply.get("seq") != seq or not reply.get("ok"):
                failed += 1
            if kind == "submit":
                task = self.tasks[position]
                decisions[position] = (
                    task.task_id, reply.get("accepted"),
                    reply.get("est_completion"), reply.get("member"),
                )
        return decisions, failed

    def streams(self, op: str, record: bool = False) -> None:
        """``stream_open`` or ``stream_end`` on both connections; drain all replies."""
        for wire in self.wires:
            wire.send({"op": op}, "control", perf_counter())
        while self.outstanding():
            self.pump(STALL_S, record)

    def open_loop(self, start: float, ops: list) -> list[float]:
        """Send ``ops`` (due offset, kind, position) on schedule; return lateness."""
        late = []
        i = 0
        while i < len(ops) or self.outstanding():
            now = perf_counter()
            while i < len(ops) and now >= start + ops[i][0]:
                offset, kind, position = ops[i]
                task = self.tasks[position]
                self.wires[position % 2].send(
                    {"op": kind, "task": self.encode_task(task)},
                    kind, start + offset, position,
                )
                late.append(now - (start + offset))
                i += 1
                now = perf_counter()
            if i == len(ops):
                # The merge holds each shard's last submit until the other
                # stream ends; end both so the tail is released.
                self.streams("stream_end", record=True)
                break
            self.pump(max(start + ops[i][0] - now, 0.0), record=True)
        return late

    def closed_loop(self, first: int, count: int, speed) -> tuple[list, list[float]]:
        """Submit positions ``first..first+count`` in ``SEGMENTS`` runs.

        Each run opens both streams, keeps ``WINDOW`` submits in flight per
        connection (freed slots are refilled in stream order, one write per
        connection, from frames encoded before the run) and ends both
        streams.  Between runs, while the server idles, ``speed()`` times
        the calibration loop on the server's CPU.  Returns each run's
        ``(rate, scale)``, with the scale of the calibrations around it, and
        the calibrations.
        """
        from common import scale

        runs = []
        calibrations = [speed()]
        bounds = [first + count * i // SEGMENTS for i in range(SEGMENTS + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            self.streams("stream_open")
            frames = [
                self.wires[p % 2].encode(
                    {"op": "submit", "task": self.encode_task(self.tasks[p])}
                )
                for p in range(lo, hi)
            ]
            position = lo
            start = perf_counter()
            while position < hi:
                out: list[list[bytes]] = [[], []]
                now = perf_counter()
                while position < hi:
                    index = position % 2
                    wire = self.wires[index]
                    if len(wire.pending) >= WINDOW:
                        break
                    seq, frame = frames[position - lo]
                    wire.pending.append((seq, "submit", now, position))
                    out[index].append(frame)
                    position += 1
                for wire, chunk in zip(self.wires, out):
                    if chunk:
                        wire.sock.sendall(b"".join(chunk))
                self.pump(STALL_S)
            self.streams("stream_end")
            calibrations.append(speed())
            rate = (hi - lo) / (self.submit_replies[-1] - start)
            runs.append((rate, scale(*calibrations[-2:])))
        return runs, calibrations


def _schedule(n_submits: int, seed: int) -> list[tuple[float, str, int]]:
    """Phase-1 requests: evenly spaced due offsets, a probe before one submit in four."""
    rng = random.Random(seed)
    kinds: list[tuple[str, int]] = []
    for group in range(0, n_submits, PROBE_EVERY):
        probed = group + rng.randrange(PROBE_EVERY)
        for position in range(group, min(group + PROBE_EVERY, n_submits)):
            if position == probed:
                kinds.append(("probe", position))
            kinds.append(("submit", position))
    gap = 1.0 / (OPEN_RATE * (PROBE_EVERY + 1) / PROBE_EVERY)
    return [(i * gap, kind, position) for i, (kind, position) in enumerate(kinds)]


def _placement() -> tuple[int, int] | None:
    """One CPU for the server and another for the generator, when there are two.

    Kept apart, the generator never takes the server's core and the OS never
    moves either process; on a 2-vCPU host this cut the run-to-run spread of
    the closed-loop rate from about 0.25 to 0.07.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None
    cpus = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:  # a sandbox may forbid pinning; run unpinned
        return None
    cpus = sorted(cpus)
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else None


def _speed(placement):
    """Time the calibration loop on the server's CPU (the client moves there briefly)."""
    from common import calibrate

    if placement is None:
        return calibrate()
    os.sched_setaffinity(0, {placement[0]})
    try:
        return calibrate()
    finally:
        os.sched_setaffinity(0, {placement[1]})


def _start_launcher(seed: int, horizon: float, trace_file: str | None):
    (ROOT / SOCKET).parent.mkdir(exist_ok=True)
    command = [sys.executable, str(HERE / "launcher.py"),
               "--seed", str(seed), "--horizon", repr(horizon), "--socket", SOCKET]
    if trace_file:
        command += ["--trace-file", trace_file]
    return subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=os.environ
    )


def _stop(launcher) -> None:
    if launcher.poll() is None:
        launcher.terminate()
        try:
            launcher.wait(timeout=10)
        except subprocess.TimeoutExpired:
            launcher.kill()
            launcher.wait()
    (ROOT / SOCKET).unlink(missing_ok=True)


def _session(
    args, n1: int, n2: int, horizon: float, trace_file: str | None, placement
) -> dict:
    """Start a server, run both phases against it, and return what was seen."""
    launcher = _start_launcher(args.seed, horizon, trace_file)
    try:
        if placement is not None:
            os.sched_setaffinity(launcher.pid, {placement[0]})
            os.sched_setaffinity(0, {placement[1]})
        from common import calibrate, serve_scenario
        from repro.serve import protocol

        t = perf_counter()
        tasks = serve_scenario(args.seed, horizon).stream_scenario().generate_tasks()
        generate_s = perf_counter() - t
        n2 = min(n2, len(tasks) - n1)
        ops = _schedule(n1, args.seed)
        path = json.loads(launcher.stdout.readline())["socket"]
        session = Session(path, tasks, protocol)
        try:
            session.streams("stream_open")
            cpu = process_time()
            start = perf_counter()
            if args.setup_only:
                session.wires[ops[0][2] % 2].send(
                    {"op": ops[0][1], "task": protocol.encode_task(tasks[ops[0][2]])},
                    ops[0][1], start,
                )
                return {"first_submit": start, "calibration": calibrate()}
            late = session.open_loop(start, ops)
            saturate = perf_counter()
            runs, calibrations = session.closed_loop(
                n1, n2, lambda: _speed(placement)
            )
            wire = session.wires[0]
            payload = session.call(wire, {"op": "finalize"})["result"]
            end = perf_counter()
            cpu = process_time() - cpu
            metrics = None
            if trace_file:
                metrics = session.call(wire, {"op": "metrics"})["metrics"]
            session.call(wire, {"op": "shutdown"})
        finally:
            session.close()
        decisions, failed = session.settle()
        report = json.loads(launcher.stdout.readline())
        launcher.wait(timeout=30)
    finally:
        _stop(launcher)
    return {
        "tasks": tasks[: n1 + n2],
        "decisions": [decisions.get(p) for p in range(n1 + n2)],
        "runs": runs,
        "calibration": calibrations,
        "payload": payload,
        "latency": session.latency,
        "late": late,
        "replies": sum(1 for reply in session.raw if reply[1] != "control"),
        "failed": failed,
        "wall_s": end - start,
        "saturate_s": end - saturate,
        "n2": n2,
        "cpu_s": cpu,
        "generate_s": generate_s,
        "server": report,
        "metrics": metrics,
    }


def _check(args, horizon: float, sessions: list[dict]) -> dict:
    """Replay the stream offline and hold every session to it and to the reference."""
    from common import (
        REFERENCE_PREFIX, build_cluster, decide, digest, mismatches,
        output_faults, serve_scenario, use_reference,
    )
    from repro.serve.replay import loopback_diff

    member = serve_scenario(args.seed, horizon).member_scenario(0)
    tasks = sessions[0]["tasks"]
    sim = build_cluster(member)
    expected = [decide(sim, task) for task in tasks]
    offline = sim.finalize()
    failed = output_faults(offline, len(tasks))
    for s in sessions:
        failed += len(loopback_diff(s["payload"], offline))
        failed += mismatches(s["decisions"], expected)

    prefix = REFERENCE_PREFIX["serve-open"]
    ref = build_cluster(member)
    use_reference(ref)
    reference = [decide(ref, task) for task in tasks[:prefix]]
    failed += mismatches(expected[:prefix], reference)
    return {
        "failed": failed,
        "decisions_digest": digest(expected[:prefix]),
        "reference_digest": digest(reference),
        "reference_prefix": prefix,
    }


def run(args) -> dict:
    """Measure serve-open; the report the harness turns into metrics."""
    from common import quantile, trace_path, windowed

    n1 = int(OPEN_RATE * OPEN_SHARE * args.seconds)
    n2 = int(SATURATE_TASKS_PER_S * args.seconds)
    horizon = 1.1 * (n1 + n2) / ARRIVALS_PER_UNIT
    placement = _placement()
    if args.setup_only:
        return _session(args, n1, n2, horizon, None, placement)

    sessions = [_session(args, n1, n2, horizon, None, placement)]
    trace_file = None
    if args.trace:
        trace_file = str(trace_path(args.workload, args.seed))
        sessions.append(_session(args, n1, n2, horizon, trace_file, placement))
    check = _check(args, horizon, sessions)
    last = sessions[-1]
    attempted = sum(s["replies"] for s in sessions)
    failed = sum(s["failed"] for s in sessions) + check["failed"]
    checks = {k: v for k, v in check.items() if k != "failed"}
    ms = 1e3
    if not args.trace:
        runs = last["runs"]
        metrics = {
            "decisions_per_s": quantile([rate / k for rate, k in runs], 0.5),
            "peak_rss_mb": last["server"]["rss_mb"],
        }
        return {"attempted": attempted, "failed": failed, "metrics": metrics,
                "raw": {"decisions_per_s": quantile([r for r, _ in runs], 0.5)},
                "calibration": last["calibration"], "checks": checks}

    from layers import SELF_METRIC

    server = last["server"]
    metrics = dict(server["layers"])
    in_server = sum(metrics[m] for m in set(SELF_METRIC.values()))
    snapshot = last["metrics"]
    batches = snapshot.get("serve_coalesced_batch_size", {})
    other = server["cpu_s"] - in_server
    metrics.update({
        "submit_p50_ms": windowed(sessions[0]["latency"]["submit"], 0.5) * ms,
        "submit_p99_ms": windowed(sessions[0]["latency"]["submit"], 0.99) * ms,
        "probe_p50_ms": windowed(sessions[0]["latency"]["probe"], 0.5) * ms,
        "probe_p99_ms": windowed(sessions[0]["latency"]["probe"], 0.99) * ms,
        "workload.generate_s": last["generate_s"],
        "workload.tasks": len(last["tasks"]),
        "serve.server_cpu_s": server["cpu_s"],
        "serve.server_other_s": other,
        "serve.batch_size_mean": batches.get("sum", 0.0) / max(batches.get("count", 0), 1),
        "serve.requests": sum(
            v["value"] for k, v in snapshot.items() if k.startswith("serve_requests_total")
        ),
        "loadgen.late_p99_ms": windowed(last["late"], 0.99) * ms,
        "loadgen.cpu_s": last["cpu_s"],
        "bench.harness_s": last["wall_s"] - in_server - other,
        "bench.traced_wall_s": last["wall_s"],
        "bench.layer_share": (in_server + other) / last["wall_s"],
        "bench.trace_overhead_ratio": last["saturate_s"] / sessions[0]["saturate_s"],
    })
    checks["trace_file"] = trace_file
    checks["spans"] = server["spans"]
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "checks": checks}
