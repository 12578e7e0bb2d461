"""Traffic for serve-repeat: request streams, closed loops, oracle.

Stdlib only, and free of daemon knowledge, so the self-tests can drive
it against a stub server.

* Request streams are pure functions of the workload seed: the same seed
  gives byte-identical request bodies.
* Loops run in this one process with one thread per caller, the calling
  thread included, and never more callers than CPUs. Each caller sends
  its next request as soon as its last one is answered, so a slow host
  lowers the request rate instead of queueing requests up: latency is
  the program's service time, not the host's backlog.
* A caller's lag is the time from its last answer to its next send: the
  generator's own overhead.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable


#: Connections (and threads) the generator may use.
MAX_CONNECTIONS = max(1, min(2, os.cpu_count() or 1))


# ------------------------------------------------------------- streams

def request_sizes(rng: random.Random, count: int) -> list[int]:
    """``count`` request sizes of 1-8 pairs.

    Every block of 8 consecutive requests is a shuffle of the sizes 1-8,
    so any 8 aligned requests carry 36 pairs whatever the seed: the seed
    moves which pairs are asked and in what order, not how much work a
    slice of a multiple of 8 requests holds.
    """
    sizes: list[int] = []
    while len(sizes) < count:
        block = list(range(1, 9))
        rng.shuffle(block)
        sizes += block
    return sizes[:count]


def repeat_stream(seed: int, phase: str, count: int, pool: int) -> list[list[int]]:
    """``count`` requests of 1-8 pair indices drawn with replacement."""
    rng = random.Random(f"serve-repeat/{phase}/{seed}")
    return [[rng.randrange(pool) for _ in range(size)] for size in request_sizes(rng, count)]


def encode(payloads: list[dict], indices: list[int]) -> bytes:
    """The ``POST /match`` body for the pairs at ``indices``."""
    return json.dumps({"pairs": [payloads[i] for i in indices]}).encode()


# -------------------------------------------------------------- oracle

def answer_matches(body: bytes, proba: list[float], labels: list[int]) -> bool:
    """Whether a ``/match`` answer equals the oracle bit for bit.

    ``proba``/``labels`` went through the same JSON float round trip as
    the answer, so list equality compares exact doubles.
    """
    try:
        payload = json.loads(body)
    except ValueError:
        return False
    return payload.get("probabilities") == proba and payload.get("labels") == labels


# ---------------------------------------------------------------- http

class Connection:
    """One client connection to the daemon (reopened after an error)."""

    def __init__(self, port: int, timeout: float = 30.0) -> None:
        self._port = port
        self._timeout = timeout
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        """(status, body); status 0 when the transport failed."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self._port, timeout=self._timeout
            )
            return 0, b""

    def close(self) -> None:
        self._conn.close()


# --------------------------------------------------------------- loops

@dataclass
class Outcome:
    """One request: due, send and completion times, and its verdict.

    A request is due when its caller is free to send it, so ``latency``
    (completion minus due) holds the generator's own delay too and
    ``lag`` (send minus due) tells it apart.
    """

    due: float
    sent: float
    done: float
    ok: bool

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due


#: ``send(connection_index, request_index) -> (done_time, ok)``; it must
#: take ``done_time`` as soon as the answer is read, before checking it.
Send = Callable[[int, int], tuple[float, bool]]


def _run_senders(callers: int, worker: Callable[[int], None]) -> None:
    """Run ``worker(i)`` for each caller; the calling thread is one."""
    callers = max(1, min(callers, MAX_CONNECTIONS))
    errors: list[BaseException] = []

    def guarded(index: int) -> None:
        try:
            worker(index)
        except BaseException as exc:  # surfaced after the join below
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(i,), name=f"perfbench-sender-{i}")
        for i in range(1, callers)
    ]
    for thread in threads:
        thread.start()
    guarded(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def closed_loop(count: int, send: Send, callers: int, first: int = 0) -> list[Outcome]:
    """``callers`` clients each send their next request when answered.

    Sends requests ``first`` to ``first + count - 1``.
    """
    outcomes: list[Outcome | None] = [None] * count
    lock = threading.Lock()
    cursor = [0]

    def worker(conn: int) -> None:
        while True:
            due = time.monotonic()
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= count:
                return
            sent = time.monotonic()
            done, ok = send(conn, first + index)
            outcomes[index] = Outcome(due, sent, done, ok)

    _run_senders(callers, worker)
    return outcomes  # type: ignore[return-value]
