"""Serving-side harness: a ``repro serve`` subprocess and its load client.

The client is one thread driving two non-blocking TCP connections with
:mod:`selectors`.  Frames are sent on a fixed schedule whatever the
server does (an open loop: independent users), alternating between the
connections, and every frame is timed from the instant it was *due*,
so a stall also charges the frames queued behind it.  How late the
client itself sent each frame is recorded separately.  A saturation
phase (:func:`saturate`) instead keeps a fixed number of frames in
flight on each connection, so the server's own capacity sets the rate.
"""

from __future__ import annotations

import json
import os
import pathlib
import selectors
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Sequence

from stats import gc_paused, percentile, read_status_kb

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Load connections per phase (the generator machine has 2 cores).
CONNECTIONS = 2
#: Seconds an open-loop phase waits after its last due time for stragglers.
DRAIN_S = 30.0
#: Frames each connection keeps in flight in a saturation phase; both
#: connections together stay well under the server's admission limit (64).
WINDOW = 8
#: Rate ladder: coarse and fine climbing factors, and the most rungs.
LADDER_COARSE, LADDER_FINE, LADDER_MAX_RUNGS = 1.25, 1.06, 14


class Server:
    """One ``repro serve`` process on loopback, announced port parsed from stderr."""

    def __init__(
        self, work_dir: pathlib.Path, extra: Sequence[str] = (), launcher: Sequence[str] = ()
    ) -> None:
        work_dir.mkdir(parents=True, exist_ok=True)
        self.log_path = work_dir / f"serve-{os.getpid()}-{time.monotonic_ns()}.stderr"
        command = list(launcher) or [sys.executable, "-m", "repro"]
        command += [
            "serve", "--host", "127.0.0.1", "--port", "0",
            "--backend", "thread", "--workers", "2", *extra,
        ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._log,
        )
        self.port = self._await_announcement(timeout=60.0)

    def _await_announcement(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self.log_path.read_text(errors="replace").splitlines():
                if line.startswith("# serving on "):
                    return int(line.split()[3].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(
            "server did not announce its port:\n" + self.log_path.read_text(errors="replace")
        )

    def control(self, verb: str, timeout: float = 30.0) -> dict[str, Any]:
        """One control-verb round trip on a fresh connection."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=timeout) as sock:
            sock.sendall(json.dumps({"op": verb}).encode() + b"\n")
            data = b""
            while not data.endswith(b"\n"):
                chunk = sock.recv(1 << 20)
                if not chunk:
                    break
                data += chunk
        return json.loads(data)

    def peak_rss_mb(self) -> float:
        return read_status_kb(self.proc.pid, "VmHWM") / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if the drain hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._log.close()


def contain_frame(pair: dict[str, Any], request_id: str, deadline_ms: float | None = None) -> bytes:
    frame: dict[str, Any] = {
        "id": pair["id"], "left": pair["left"], "right": pair["right"],
        "request_id": request_id,
    }
    if deadline_ms is not None:
        frame["deadline_ms"] = deadline_ms
    return (json.dumps(frame) + "\n").encode()


def closed_loop(port: int, frames: Sequence[bytes], timeout: float = 120.0) -> list[dict]:
    """Send every frame on one connection, then read all responses (warm-up)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(b"".join(frames))
        data = b""
        while data.count(b"\n") < len(frames):
            chunk = sock.recv(1 << 20)
            if not chunk:
                break
            data += chunk
    return [json.loads(line) for line in data.splitlines() if line.strip()]


class OpenLoopResult:
    """Per-frame timings of one open-loop phase (perf_counter seconds)."""

    def __init__(self, due: list[float]) -> None:
        self.due = due
        self.sent: list[float | None] = [None] * len(due)
        self.received: list[float | None] = [None] * len(due)
        self.responses: list[dict | None] = [None] * len(due)

    def rtt_ms(self, indices: Sequence[int] | None = None) -> list[float]:
        """Round trips from the due time, for answered frames among *indices*."""
        chosen = range(len(self.due)) if indices is None else indices
        return [
            (self.received[i] - self.due[i]) * 1000.0
            for i in chosen
            if self.received[i] is not None
        ]

    def late_ms(self) -> list[float]:
        return [(s - d) * 1000.0 for s, d in zip(self.sent, self.due) if s is not None]


@gc_paused()
def open_loop(
    port: int,
    frames: Sequence[bytes],
    rate_hz: float,
) -> OpenLoopResult:
    """Send ``frames[i]`` at ``t0 + i / rate_hz`` and collect every reply.

    Frames carry ``request_id`` ``"f<i>"``; replies are matched by it.
    Waits up to ``DRAIN_S`` after the last due time for stragglers;
    anything still missing is unanswered.
    """
    socks = [socket.create_connection(("127.0.0.1", port)) for _ in range(CONNECTIONS)]
    selector = selectors.DefaultSelector()
    outbox = [bytearray() for _ in socks]
    inbox = [bytearray() for _ in socks]
    for k, sock in enumerate(socks):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        selector.register(sock, selectors.EVENT_READ, k)
    t0 = time.perf_counter() + 0.05
    result = OpenLoopResult([t0 + i / rate_hz for i in range(len(frames))])
    due, sent, received, responses = result.due, result.sent, result.received, result.responses
    pending = 0
    nxt = 0
    total = len(frames)
    give_up = due[-1] + DRAIN_S if frames else t0

    writing = [False] * CONNECTIONS

    def flush(k: int) -> None:
        if outbox[k]:
            try:
                n = socks[k].send(outbox[k])
            except BlockingIOError:
                n = 0
            del outbox[k][:n]
        if bool(outbox[k]) != writing[k]:
            writing[k] = bool(outbox[k])
            events = selectors.EVENT_READ | (selectors.EVENT_WRITE if writing[k] else 0)
            selector.modify(socks[k], events, k)

    try:
        while nxt < total or pending:
            now = time.perf_counter()
            if now > give_up:
                break
            while nxt < total and due[nxt] <= now:
                k = nxt % CONNECTIONS
                outbox[k] += frames[nxt]
                sent[nxt] = now
                pending += 1
                nxt += 1
                flush(k)
            timeout = max(0.0, due[nxt] - time.perf_counter()) if nxt < total else 0.05
            for key, mask in selector.select(timeout):
                k = key.data
                if mask & selectors.EVENT_WRITE:
                    flush(k)
                if mask & selectors.EVENT_READ:
                    try:
                        chunk = socks[k].recv(1 << 18)
                    except BlockingIOError:
                        continue
                    if not chunk:
                        raise ConnectionError("server closed a load connection")
                    stamp = time.perf_counter()
                    inbox[k] += chunk
                    while True:
                        cut = inbox[k].find(b"\n")
                        if cut < 0:
                            break
                        line = bytes(inbox[k][:cut])
                        del inbox[k][: cut + 1]
                        payload = json.loads(line)
                        index = int(payload["request_id"][1:])
                        if received[index] is None:
                            received[index] = stamp
                            responses[index] = payload
                            pending -= 1
    finally:
        for sock in socks:
            selector.unregister(sock)
            sock.close()
        selector.close()
    return result


@gc_paused()
def saturate(port: int, frames: Sequence[bytes], seconds: float) -> OpenLoopResult:
    """Closed loop at saturation: each connection keeps ``WINDOW`` frames in flight.

    Frames go out in order, ``frames[i]`` carrying ``request_id``
    ``"f<i>"``; a reply on a connection releases its next frame.  No new
    frame is sent after *seconds* (or once *frames* runs out); the
    result is truncated to the frames sent, each due when it was sent.
    """
    socks = [socket.create_connection(("127.0.0.1", port)) for _ in range(CONNECTIONS)]
    selector = selectors.DefaultSelector()
    inbox = [bytearray() for _ in socks]
    for k, sock in enumerate(socks):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        selector.register(sock, selectors.EVENT_READ, k)
    result = OpenLoopResult([0.0] * len(frames))
    nxt = pending = 0
    t0 = time.perf_counter()
    stop_at, give_up = t0 + seconds, t0 + seconds + DRAIN_S

    def send(k: int, count: int) -> None:
        nonlocal nxt, pending
        now = time.perf_counter()
        if now >= stop_at:
            return
        batch = frames[nxt:nxt + count]
        for i in range(nxt, nxt + len(batch)):
            result.due[i] = result.sent[i] = now
        # Small frames on loopback: a blocking send of a few KB returns at once.
        socks[k].sendall(b"".join(batch))
        nxt += len(batch)
        pending += len(batch)

    try:
        for k in range(CONNECTIONS):
            send(k, WINDOW)
        while pending and time.perf_counter() < give_up:
            for key, _ in selector.select(0.05):
                k = key.data
                chunk = socks[k].recv(1 << 18)
                if not chunk:
                    raise ConnectionError("server closed a load connection")
                stamp = time.perf_counter()
                inbox[k] += chunk
                done = 0
                while (cut := inbox[k].find(b"\n")) >= 0:
                    payload = json.loads(bytes(inbox[k][:cut]))
                    del inbox[k][: cut + 1]
                    index = int(payload["request_id"][1:])
                    if result.received[index] is None:
                        result.received[index] = stamp
                        result.responses[index] = payload
                        pending -= 1
                        done += 1
                send(k, done)
    finally:
        for sock in socks:
            selector.unregister(sock)
            sock.close()
        selector.close()
    for field in ("due", "sent", "received", "responses"):
        setattr(result, field, getattr(result, field)[:nxt])
    return result


def ladder(
    port: int,
    make_frames,
    start_hz: float,
    rung_s: float,
    limit_ms: float,
) -> tuple[float, list[dict[str, Any]], list[OpenLoopResult]]:
    """Highest rate whose p99 (from due time) is <= *limit_ms* with no backlog.

    Climbs by ``LADDER_COARSE`` until a rung fails (stepping down first
    if the starting rate already fails), then refines upward from the
    last passing rung by ``LADDER_FINE`` (< 1/10 of the value) until a
    rung fails again.  A rung fails on a p99 over the limit, on any
    shed or unanswered frame, or on a growing backlog: round trips in
    the rung's last quarter exceeding twice those of its first quarter
    plus 2 ms.  Returns ``(max_rate_hz, rungs, results)``; the rate is
    0.0 if no rung passed.
    """
    rungs: list[dict[str, Any]] = []
    results: list[OpenLoopResult] = []
    best = 0.0
    coarse, fine = LADDER_COARSE, LADDER_FINE
    rate, factor = start_hz, coarse
    while len(rungs) < LADDER_MAX_RUNGS:
        count = max(20, int(rate * rung_s))
        result = open_loop(port, make_frames(count), rate)
        results.append(result)
        rtts = result.rtt_ms()
        quarter = max(1, count // 4)
        first = result.rtt_ms(range(quarter))
        last = result.rtt_ms(range(count - quarter, count))
        shed = sum(
            1 for r in result.responses if r is not None and r.get("method") == "serve-admission"
        )
        growing = bool(first and last) and percentile(last, 50) > 2 * percentile(first, 50) + 2.0
        p99 = percentile(rtts, 99) if rtts else float("inf")
        ok = len(rtts) == count and shed == 0 and not growing and p99 <= limit_ms
        rungs.append(
            {"rate_hz": round(rate, 1), "p99_ms": round(p99, 3), "growing": growing,
             "shed": shed, "unanswered": count - len(rtts), "pass": ok}
        )
        if ok:
            best = max(best, rate)
            rate *= factor
        elif best == 0:
            rate /= coarse  # the first rungs failed: step down until one passes
        elif factor == coarse:
            factor = fine
            rate = best * fine
        else:
            break
    return best, rungs, results

