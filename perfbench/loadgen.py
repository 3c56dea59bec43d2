"""Open- and closed-loop HTTP load over persistent keep-alive connections.

One process, one thread per connection, and never more connections
than CPUs. Every connection is an ``http.client`` keep-alive connection
that stays open across requests, as a resolver or proxy keeps it; a
request whose connection broke reconnects before the next send.

Open loop: requests follow a precomputed schedule of due times; a free
thread takes the next request, waits until it is due and sends it. A
request that comes due while every connection is busy waits, and that
wait is part of its latency, which is always measured from the due
time. The generator's own lateness (sent after both the due time and
the moment its connection became free) is reported separately as lag.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

#: Seconds a single request may take before it counts as a timeout.
REQUEST_TIMEOUT_S = 10.0


@dataclass(slots=True)
class Request:
    """One scoring request: names and their JSON body."""

    offset: float
    names: list[str]
    payload: bytes


@dataclass(slots=True)
class Outcome:
    """What happened to one request (times are ``time.monotonic``)."""

    request: Request
    conn: int
    due: float
    sent: float
    done: float
    lag: float
    status: int
    body: Any
    error: str | None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.error is None


class Connection:
    """A keep-alive HTTP/1.1 connection that reconnects after a failure."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, payload: bytes | None = None) -> tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=REQUEST_TIMEOUT_S
            )
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        try:
            self._conn.request(method, path, body=payload, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if response.will_close:
            self.close()
        return response.status, data

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _send(conn: Connection, request: Request) -> tuple[int, Any, str | None]:
    try:
        status, data = conn.request("POST", "/v1/score", request.payload)
    except (OSError, http.client.HTTPException) as exc:
        return 0, None, f"{type(exc).__name__}: {exc}"
    try:
        return status, json.loads(data), None
    except ValueError as exc:
        return status, None, f"bad JSON: {exc}"


def run_load(
    connections: Sequence[Connection],
    requests: Sequence[Request],
    start: float | None,
) -> list[Outcome]:
    """Send ``requests``; open loop from ``start``, closed loop if ``None``.

    Closed loop: every request is due at once, so each connection sends
    its next request as soon as its previous one completes.
    """
    origin = time.monotonic() if start is None else start
    outcomes: list[Outcome | None] = [None] * len(requests)
    position = iter(range(len(requests)))
    lock = threading.Lock()

    def worker(slot: int) -> None:
        conn = connections[slot]
        free = origin
        while True:
            with lock:
                index = next(position, None)
            if index is None:
                return
            request = requests[index]
            due = origin if start is None else origin + request.offset
            wait = due - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            sent = time.monotonic()
            status, body, error = _send(conn, request)
            done = time.monotonic()
            outcomes[index] = Outcome(
                request, slot, due, sent, done, sent - max(due, free),
                status, body, error,
            )
            free = done

    threads = [
        threading.Thread(target=worker, args=(slot,), daemon=True)
        for slot in range(len(connections))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [outcome for outcome in outcomes if outcome is not None]


def poisson_offsets(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Arrival offsets of a Poisson process of ``rate`` over ``duration``."""
    expected = int(rate * duration * 1.5) + 16
    gaps = rng.exponential(1.0 / rate, size=expected)
    offsets = np.cumsum(gaps)
    while offsets[-1] < duration:
        more = np.cumsum(rng.exponential(1.0 / rate, size=expected)) + offsets[-1]
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < duration]


class NameMix:
    """Draws request names: Zipf over known domains plus unknown names.

    ``known_share`` of names come from a Zipf(``exponent``) law over
    ``known`` (rank order as given); the rest from a pool of
    ``unknown_pool`` distinct names that no model knows.
    """

    def __init__(
        self,
        known: Sequence[str],
        *,
        exponent: float = 1.1,
        known_share: float = 0.7,
        unknown_pool: int = 200_000,
    ) -> None:
        self.known = list(known)
        weights = np.arange(1, len(self.known) + 1, dtype=np.float64) ** -exponent
        self.cumulative = np.cumsum(weights / weights.sum())
        self.known_share = known_share
        self.unknown_pool = unknown_pool

    @staticmethod
    def unknown_name(index: int) -> str:
        return f"unseen{index:06d}.example"

    def draw(self, rng: np.random.Generator, count: int) -> list[str]:
        names = []
        for is_known, u, j in zip(
            rng.random(count) < self.known_share,
            rng.random(count),
            rng.integers(0, self.unknown_pool, size=count),
        ):
            if is_known:
                rank = min(int(np.searchsorted(self.cumulative, u)), len(self.known) - 1)
                names.append(self.known[rank])
            else:
                names.append(self.unknown_name(int(j)))
        return names


def build_requests(
    rng: np.random.Generator,
    offsets: np.ndarray,
    mix: NameMix,
    *,
    batch_share: float = 0.1,
    batch_size: int = 32,
) -> list[Request]:
    """One request per offset: single-domain, or a batch ``batch_share`` of the time."""
    requests = []
    for offset, batched in zip(offsets, rng.random(len(offsets)) < batch_share):
        if batched:
            names = mix.draw(rng, batch_size)
            payload = {"domains": names}
        else:
            names = mix.draw(rng, 1)
            payload = {"domain": names[0]}
        requests.append(Request(float(offset), names, json.dumps(payload).encode()))
    return requests
