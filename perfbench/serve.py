"""The serve-repeat workload: a ``repro-em serve`` child process over HTTP.

The daemon serves the fixture model (``fixture.py``) in its own process,
started as ``python -m repro.cli serve`` with a fresh cache directory;
every answer is checked against the fixture's oracle. After a warm-up
pass over the 946 fixture pairs, the run is cut into rounds of a
capacity slice (two callers) and a latency slice (one caller), all
closed-loop (see ``loadgen``), so that every metric covers the whole run
rather than the few seconds the host happened to be fast or slow in.
Requests carry 1-8 warmed pairs. Set-up and reload times come from a
second, idle daemon (see ``SetupSamples``).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

import loadgen
import spans
from common import (
    BENCH_DIR, WORK, BenchError, count_files, median, median_tail, note,
    proc_status_mb, program_env, reap, run_python, settle, source_digest, spawn,
)
from fixture import EXPECTED_MEAN_PROBA, EXPECTED_TEST_F1, MEAN_PROBA_TOLERANCE

READY_TIMEOUT_S = 90.0
#: Pairs per warm-up request (two callers fill a 64-pair flush).
WARM_CHUNK = 32
#: Callers of a capacity slice (and of the warm-up).
CALLERS = 2
#: serve-repeat: one round per ROUND_SECONDS of --seconds, each a capacity
#: slice of CAPACITY_REQUESTS and a latency slice of LATENCY_REQUESTS (one
#: caller, so every flush holds one request; the slice's tail percentile
#: is p90.4). Multiples of 8, so every slice carries the same number of
#: pairs (see ``loadgen``).
ROUND_SECONDS = 3.5
LATENCY_REQUESTS = 104
CAPACITY_REQUESTS = 64
#: Capacity slices are sent in CAPACITY_PIECES parts, with
#: RELOADS_PER_PIECE timed ``POST /reload`` calls on the sample daemon
#: between two parts (see SetupSamples). One reload lasts about 35 ms,
#: and single timings that short spread by 18-31% (IQR / median) on a
#: 2-vCPU host, so the median needs many. Latency slices go in one part
#: and right after a capacity slice, so that no request of theirs meets
#: caches a reload has just swept.
CAPACITY_PIECES = 4
RELOADS_PER_PIECE = 3
#: The daemons' BLAS pool. The daemon and the load generator share the
#: host's 2 vCPUs; a second BLAS thread (which spins while it waits for
#: work) would make them contend, and the scheduler would be measured.
DAEMON_BLAS_THREADS = 1
#: Requests the traced run replays in-process.
REPLAY_SAMPLE = 40


# -------------------------------------------------------------- fixture

class Fixture:
    """The fitted model file, its request payloads and their oracle.

    ``model_ok`` says whether the model gives the recorded test F1 and
    mean oracle probability: the oracle comes from the same code as the
    daemon, so this is the check that the model itself did not change.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.model = directory / "model.pkl"
        data = json.loads((directory / "fixture.json").read_text())
        self.dataset = data["dataset"]
        mean_proba = statistics.fmean(data["proba"])
        self.model_ok = (data["test_f1"] == EXPECTED_TEST_F1 and
                         abs(mean_proba - EXPECTED_MEAN_PROBA) <= MEAN_PROBA_TOLERANCE)
        if not self.model_ok:
            note(f"fixture model changed: test F1 {data['test_f1']!r} (expected "
                 f"{EXPECTED_TEST_F1!r}), mean P(match) {mean_proba!r} (expected "
                 f"{EXPECTED_MEAN_PROBA!r})")
        self.pairs = data["pairs"]
        self.proba = data["proba"]
        self.labels = data["labels"]


def fixture() -> Fixture:
    """The fixture for this program version, built on first use.

    Keyed by a digest of ``src/`` and ``fixture.py``, so each program
    version is served a model fitted by its own code. Built into a
    temporary directory and renamed into place, so an interrupted build
    is never mistaken for a finished one.
    """
    digest = source_digest(BENCH_DIR / "fixture.py")
    final = WORK / f"fixture-{digest}"
    if not (final / "fixture.json").is_file():
        build = WORK / f"fixture-{digest}.build-{os.getpid()}"
        shutil.rmtree(build, ignore_errors=True)
        build.mkdir(parents=True)
        note(f"building the serve fixture in {final.name}")
        try:
            run_python("fixture.py", [str(build)], program_env(build / "cache"),
                       build / "build.log", build, timeout=900)
            shutil.rmtree(build / "cache")
            if not (final / "fixture.json").is_file():
                shutil.rmtree(final, ignore_errors=True)
                os.replace(build, final)
        finally:
            shutil.rmtree(build, ignore_errors=True)
    return Fixture(final)


# --------------------------------------------------------------- daemon

class Daemon:
    """One ``repro-em serve`` process on the fixture model."""

    def __init__(self, run_dir: Path, fix: Fixture, env: dict[str, str],
                 name: str = "daemon") -> None:
        self._run_dir = run_dir
        self._fixture = fix
        self._env = env
        self._name = name
        self.proc = None
        self.port = 0

    def start(self) -> float:
        """Spawn and wait (bounded) for ``/healthz``; returns the seconds."""
        port_file = self._run_dir / f"{self._name}.port"
        port_file.unlink(missing_ok=True)
        args = [sys.executable, "-m", "repro.cli", "serve",
                "--model", str(self._fixture.model),
                "--dataset", self._fixture.dataset,
                "--port-file", str(port_file)]
        start = time.monotonic()
        self.proc = spawn(args, self._env, self._run_dir / f"{self._name}.log",
                          self._run_dir)
        deadline = start + READY_TIMEOUT_S
        port = 0
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited with {self.proc.returncode}")
            if time.monotonic() > deadline:
                raise BenchError(f"daemon not ready within {READY_TIMEOUT_S:.0f}s")
            if not port and port_file.is_file():
                text = port_file.read_text()
                if text.endswith("\n"):
                    port = int(text)
            if port:
                probe = loadgen.Connection(port, timeout=5.0)
                status, _ = probe.request("GET", "/healthz")
                probe.close()
                if status == 200:
                    self.port = port
                    return time.monotonic() - start
            time.sleep(0.005)

    def get(self, path: str) -> dict:
        conn = loadgen.Connection(self.port)
        try:
            status, body = conn.request("GET", path)
        finally:
            conn.close()
        if status != 200:
            raise BenchError(f"GET {path} -> {status}")
        return json.loads(body)

    def status_mb(self, field: str) -> float:
        return proc_status_mb(self.proc.pid, field)

    def stop(self) -> None:
        if self.proc is not None:
            reap(self.proc)


class SetupSamples:
    """Spawn-to-ready and reload times, spread over a run.

    A second daemon, the sample daemon, idles beside the working one.
    The benchmark times RELOADS_PER_PIECE reloads on it between pieces
    of traffic, and respawns it before the middle round. The three
    spawns (working daemon, first and second sample daemon) give the
    set-up samples.
    Host speed drifts from second to second and over tens of seconds, so
    samples taken back to back would all see the same moment; these see
    the whole run, as the traffic metrics do. Reloads never go to the
    working daemon: each loads a fresh model and frees the old, which
    would show up in, and hide span growth from, its RSS.
    """

    def __init__(self, run_dir: Path, fix: Fixture, env: dict[str, str]) -> None:
        self._run_dir, self._fixture, self._env = run_dir, fix, env
        self._sample: Daemon | None = None
        self.spawn_s: list[float] = []
        self.reload_s: list[float] = []
        self.failures = 0

    def start(self, daemon: Daemon) -> None:
        """Start the working daemon, then the sample daemon."""
        self.spawn_s.append(daemon.start())
        self._respawn()

    def before_round(self, index: int, rounds: int) -> None:
        if index and index == rounds // 2:
            self._respawn()

    def reload(self) -> None:
        samples, failures = time_reloads(self._sample, RELOADS_PER_PIECE)
        self.reload_s += samples
        self.failures += failures

    def _respawn(self) -> None:
        self.stop()
        self._sample = Daemon(self._run_dir, self._fixture, self._env, name="sample")
        self.spawn_s.append(self._sample.start())

    def stop(self) -> None:
        if self._sample is not None:
            self._sample.stop()


def time_reloads(daemon: Daemon, count: int) -> tuple[list[float], int]:
    """``count`` client-timed ``POST /reload`` calls: (seconds, failures)."""
    conn = loadgen.Connection(daemon.port)
    samples, failures = [], 0
    try:
        for _ in range(count):
            start = time.monotonic()
            status, _body = conn.request("POST", "/reload", b"")
            samples.append(time.monotonic() - start)
            failures += status != 200
    finally:
        conn.close()
    return samples, failures


# --------------------------------------------------------------- phases

class Recorder:
    """Per-phase outcomes; with ``scrape`` also /metrics, /proc and files."""

    def __init__(self, daemon: Daemon, cache: Path, scrape: bool) -> None:
        self.daemon = daemon
        self.cache = cache
        self.scrape = scrape
        self.phases: list[dict] = []
        self.marks: list[dict] = []
        self.mark("start")

    def mark(self, name: str) -> None:
        if self.scrape:
            files, disk_mb = count_files(self.cache / "entity")
            self.marks.append({
                "after": name, "metrics": self.daemon.get("/metrics"),
                "vm_rss_mb": self.daemon.status_mb("VmRSS"),
                "entity_files": files, "entity_mb": disk_mb,
            })

    def phase(self, name: str, outcomes: list[loadgen.Outcome], pairs: int,
              seconds: float) -> dict:
        succeeded = sum(o.ok for o in outcomes)
        summary = {
            "phase": name, "sent": len(outcomes), "succeeded": succeeded,
            "failed": len(outcomes) - succeeded, "pairs": pairs,
            "seconds": seconds,
            "latency_ms": [o.latency * 1000.0 for o in outcomes],
            "client_ms": [(o.done - o.sent) * 1000.0 for o in outcomes],
            "lag_ms": [o.lag * 1000.0 for o in outcomes],
        }
        self.phases.append(summary)
        self.mark(name)
        return summary


def _sender(daemon: Daemon, bodies: list[bytes], expected: list[tuple], callers: int):
    connections = [loadgen.Connection(daemon.port) for _ in range(callers)]

    def send(conn: int, index: int) -> tuple[float, bool]:
        status, body = connections[conn].request("POST", "/match", bodies[index])
        done = time.monotonic()
        return done, status == 200 and loadgen.answer_matches(body, *expected[index])

    def close() -> None:
        for connection in connections:
            connection.close()

    return send, close


def run_requests(rec: Recorder, name: str, source: dict, requests: list[list[int]],
                 callers: int, pieces: int = 1,
                 between: Callable[[], None] | None = None) -> dict:
    """Send ``requests`` in a closed loop of ``callers``; the phase summary.

    The requests go in ``pieces`` consecutive parts, with ``between()``
    called between two parts, outside the timed seconds.
    """
    bodies = [loadgen.encode(source["pairs"], r) for r in requests]
    expected = [([source["proba"][i] for i in r], [source["labels"][i] for i in r])
                for r in requests]
    send, close = _sender(rec.daemon, bodies, expected, callers)
    outcomes, seconds = [], 0.0
    try:
        for piece in range(pieces):
            lo = piece * len(requests) // pieces
            hi = (piece + 1) * len(requests) // pieces
            start = time.monotonic()
            outcomes += loadgen.closed_loop(hi - lo, send, callers, first=lo)
            seconds += time.monotonic() - start
            if between is not None and piece < pieces - 1:
                between()
    finally:
        close()
    return rec.phase(name, outcomes, sum(len(r) for r in requests), seconds)


# -------------------------------------------------------------- workload

def serve_repeat(seed: int, seconds: float, run_dir: Path, fix: Fixture,
                 scrape: bool, tag: str) -> dict:
    cache = run_dir / f"cache-{tag}"
    setup = SetupSamples(run_dir, fix,
                         program_env(run_dir / f"cache-{tag}-sample", DAEMON_BLAS_THREADS))
    daemon = Daemon(run_dir, fix, program_env(cache, DAEMON_BLAS_THREADS))
    source = {"pairs": fix.pairs, "proba": fix.proba, "labels": fix.labels}
    n = len(fix.pairs)
    rounds = max(1, round(seconds / ROUND_SECONDS))
    latency, capacity, requests = [], [], []
    try:
        setup.start(daemon)
        rec = Recorder(daemon, cache, scrape)
        warm = [list(range(i, min(i + WARM_CHUNK, n))) for i in range(0, n, WARM_CHUNK)]
        warm_phase = run_requests(rec, "warm-up", source, warm, CALLERS)
        settle()
        for index in range(rounds):
            setup.before_round(index, rounds)
            phase = f"capacity-{index}"
            capacity.append(run_requests(
                rec, phase, source, loadgen.repeat_stream(seed, phase, CAPACITY_REQUESTS, n),
                CALLERS, CAPACITY_PIECES, setup.reload))
            phase = f"latency-{index}"
            asked = loadgen.repeat_stream(seed, phase, LATENCY_REQUESTS, n)
            latency.append(run_requests(rec, phase, source, asked, 1))
            requests += asked
        peak_mb = daemon.status_mb("VmHWM")
    finally:
        setup.stop()
        daemon.stop()
    # Every traffic metric is a median over the rounds, so that a host
    # stall or slow spell covering less than half of them does not move it.
    tail_ms, tail_pct, tail_n = median_tail([p["latency_ms"] for p in latency])
    return {
        "spawn_s": setup.spawn_s, "reload_s": setup.reload_s,
        "extra_failures": setup.failures,
        "e2e": {
            "setup_s": median(setup.spawn_s) + warm_phase["seconds"],
            "fit_s": median(setup.reload_s),
            "pairs_per_s": median([p["pairs"] / p["seconds"] for p in capacity]),
            "rss_mb": peak_mb,
            "p50_ms": median([median(p["latency_ms"]) for p in latency]),
            "tail_ms": tail_ms,
            "max_rps": median([p["sent"] / p["seconds"] for p in capacity]),
        },
        "tail": {"pct": tail_pct, "n": tail_n, "slices": len(latency)},
        "phases": rec.phases, "marks": rec.marks,
        "requests": requests,
    }


# ---------------------------------------------------------------- replay

def replay(seed: int, traced: dict, run_dir: Path, fix: Fixture) -> dict:
    """Replay a seeded sample of the traced pass's requests in-process."""
    requests = traced["requests"]
    rng = random.Random(f"replay/serve-repeat/{seed}")
    sample = rng.sample(requests, min(REPLAY_SAMPLE, len(requests)))
    sample_path = run_dir / "replay-requests.json"
    sample_path.write_text(json.dumps({"requests": sample}))
    out = run_dir / "replay.json"
    run_python("replay.py", [str(fix.directory), str(sample_path), str(out)],
               program_env(run_dir / "cache-replay", DAEMON_BLAS_THREADS),
               run_dir / "replay.log",
               run_dir, timeout=170)
    return json.loads(out.read_text())


def layers(traced: dict, replayed: dict) -> dict[str, float]:
    """Per-layer values from the traced pass's scrapes and the replay."""
    marks = {m["after"]: m for m in traced["marks"]}
    first = marks["warm-up"]
    last = traced["marks"][-1]

    def counter(*names: str, start: dict = first) -> float:
        return sum(last["metrics"]["counters"].get(n, 0.0)
                   - start["metrics"]["counters"].get(n, 0.0) for n in names)

    def histogram(name: str) -> tuple[float, float]:
        def total(mark: dict) -> tuple[float, float]:
            h = mark["metrics"]["histograms"].get(name, {"count": 0, "mean": 0.0})
            return h["count"], h["count"] * h["mean"]
        (c0, s0), (c1, s1) = total(first), total(last)
        return c1 - c0, s1 - s0

    flushes = counter("serving.batch.flushes")
    batch_n, batch_s = histogram("serving.batch.seconds")
    request_n, request_s = histogram("serving.request.seconds")
    fused_n, fused_sum = histogram("serving.batch.requests")
    flush_ms = batch_s / batch_n * 1000.0
    request_ms = request_s / request_n * 1000.0
    traffic = [p for p in traced["phases"] if p["phase"] != "warm-up"]
    client_ms = [v for p in traffic for v in p["client_ms"]]
    hits = counter("adapter.entity_cache.memory.hits")
    misses = counter("adapter.entity_cache.memory.misses")
    store = marks["warm-up"]
    store_pairs = next(p["pairs"] for p in traced["phases"] if p["phase"] == "warm-up")
    program = replayed["program_spans"]

    def span_s(name: str, **match) -> float:
        return spans.total(replayed["spans"], name, **match)

    # The part of the engine's call that is not the transform (second call
    # minus the transform; see replay.py), in ensemble passes and as a
    # share of the call as the daemon meets it.
    beyond_s = span_s("serving.match_pairs", call=2) - span_s("adapter.transform")
    pass_s = span_s("automl.predict_proba")

    return {
        "setup.import_s": span_s("setup.import"),
        "data.generate_s": span_s("data.generate"),
        "adapter.transform_s": span_s("adapter.transform"),
        "adapter.tokenize_s": program.get("adapter.tokenize", [0, 0.0])[1],
        "adapter.embed_s": program.get("adapter.embed", [0, 0.0])[1],
        "adapter.combine_s": program.get("adapter.combine", [0, 0.0])[1],
        "adapter.entity_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "adapter.entity_store.files_written": store["entity_files"],
        "adapter.entity_store.files_per_pair": store["entity_files"] / store_pairs,
        "adapter.entity_store.disk_mb": store["entity_mb"],
        "automl.candidates": replayed["counters"].get("automl.candidates", 0.0),
        "automl.predict_ms": pass_s / replayed["requests"] * 1000.0,
        "automl.passes_per_request": beyond_s / pass_s,
        "automl.predict_share": beyond_s / span_s("serving.match_pairs", call=1),
        "persistence.load_s": span_s("persistence.load"),
        "serving.flush_ms": flush_ms,
        "serving.wait_ms": request_ms - flush_ms,
        "serving.requests_per_flush": fused_sum / fused_n,
        "serving.pairs_per_flush": counter("serving.batch.fused_pairs") / flushes,
        "serving.http_ms": sum(client_ms) / len(client_ms) - request_ms,
        "serving.shed": counter("serving.request.shed", "serving.batch.rejected",
                                start=traced["marks"][0]),
        "serving.errors": counter("serving.request.errors", "serving.batch.errors",
                                  "serving.response.dropped", start=traced["marks"][0]),
        "daemon.rss_growth_mb_per_1k_flushes":
            (last["vm_rss_mb"] - first["vm_rss_mb"]) / flushes * 1000.0,
        "loadgen.max_lag_ms": max(v for p in traffic for v in p["lag_ms"]),
    }
