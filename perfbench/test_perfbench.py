"""Self-tests of the benchmark (no program process is started).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import struct
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import loadgen  # noqa: E402


class _StallingHandler(BaseHTTPRequestHandler):
    """Answers ``/match`` at once, except that the first request stalls."""

    stall_seconds = 0.3
    served = 0
    lock = threading.Lock()

    def log_message(self, fmt, *args) -> None:
        pass

    def do_POST(self) -> None:
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with self.lock:
            first = type(self).served == 0
            type(self).served += 1
        if first:
            time.sleep(self.stall_seconds)
        body = json.dumps({"probabilities": [0.5], "labels": [1]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_a_server_stall_is_charged_to_latency_not_lag():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        conns = [loadgen.Connection(server.server_address[1]) for _ in range(2)]

        def send(conn: int, _index: int) -> tuple[float, bool]:
            status, body = conns[conn].request("POST", "/match", b"{}")
            return time.monotonic(), status == 200

        outcomes = loadgen.closed_loop(10, send, callers=2)
        for conn in conns:
            conn.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert all(o.ok for o in outcomes)
    # The stalled request's latency holds the 300 ms stall; no caller was
    # kept from sending by the generator itself.
    latencies = sorted(o.latency for o in outcomes)
    assert latencies[-1] >= 0.25 and latencies[-2] < 0.25
    assert max(o.lag for o in outcomes) < 0.05


def test_tail_is_the_median_of_slice_tails():
    steady = [[10.0] * 89 + [20.0] * 11 for _ in range(4)]
    assert common.tail(steady[0]) == (20.0, 90.0, 100)
    # One slice with a host stall in it does not move the tail.
    stalled = [*steady[:3], [10.0] * 80 + [500.0] * 20]
    assert common.median_tail(stalled) == (20.0, 90.0, 100)
    assert common.median_tail([[1.0] * 30, *steady[:2]])[1:] == (100.0 * 20 / 30, 30)


def test_same_seed_gives_a_byte_identical_request_stream():
    payloads = [{"left": {"name": f"l{i}"}, "right": {"name": f"r{i}"}} for i in range(50)]

    def stream(seed: int) -> list[bytes]:
        requests = loadgen.repeat_stream(seed, "latency-0", 30, len(payloads))
        return [loadgen.encode(payloads, r) for r in requests]

    assert stream(3) == stream(3)
    assert stream(3) != stream(4)


def test_oracle_catches_a_flipped_probability_bit():
    proba, labels = [0.8125731, 0.0231], [1, 0]
    answer = json.dumps({"probabilities": proba, "labels": labels}).encode()
    assert loadgen.answer_matches(answer, proba, labels)
    (bits,) = struct.unpack("<q", struct.pack("<d", proba[0]))
    (flipped,) = struct.unpack("<d", struct.pack("<q", bits ^ 1))
    assert flipped != proba[0]
    wrong = json.dumps({"probabilities": [flipped, proba[1]], "labels": labels}).encode()
    assert not loadgen.answer_matches(wrong, proba, labels)
    wrong = json.dumps({"probabilities": proba, "labels": [0, 0]}).encode()
    assert not loadgen.answer_matches(wrong, proba, labels)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "batch-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
