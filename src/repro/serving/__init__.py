"""Online serving for fitted matchers: ``repro-em serve`` (ROADMAP item 2).

The paper's pipeline trains offline; this package is the online half —
a persistent daemon that loads a saved :class:`repro.matching.EMPipeline`
once (via :mod:`repro.persistence`), keeps the content-addressed
entity-embedding store warm across requests, and answers match queries
over HTTP using only the standard library.

Three pieces:

* :class:`MatchEngine` (:mod:`repro.serving.engine`) — owns the loaded
  model and the request schema, and serves the model's adapter as
  loaded: its only cache, the entity store, is content-addressed and
  therefore safe to share across requests. Supports atomic in-place
  model reload.
* :class:`MicroBatcher` (:mod:`repro.serving.batcher`) — a bounded
  queue drained by one worker thread that fuses concurrently waiting
  requests into a single vectorized transform + predict call. Because
  encoding is exact-length-bucketed (``ENCODE_VERSION`` 2), fused and
  one-at-a-time serving produce bit-identical predictions.
* :class:`MatchDaemon` (:mod:`repro.serving.daemon`) — a
  ``ThreadingHTTPServer`` exposing ``POST /match``, ``GET /healthz``,
  ``GET /metrics``, ``POST /reload`` and ``POST /shutdown``, with
  :mod:`repro.faults` seams on the request-read / response-write /
  model-load I/O boundaries.

:func:`run_loadtest` (:mod:`repro.serving.loadtest`) drives a running
daemon with a deterministic seeded request stream and reports client
latency percentiles plus the server's own telemetry.
"""

from repro.serving.batcher import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS,
    MicroBatcher,
)
from repro.serving.daemon import MatchDaemon
from repro.serving.engine import MatchEngine
from repro.serving.errors import (
    ServerClosedError,
    ServerOverloadedError,
    ServingError,
)
from repro.serving.loadtest import build_requests, run_loadtest

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "LATENCY_BUCKETS",
    "MatchDaemon",
    "MatchEngine",
    "MicroBatcher",
    "ServerClosedError",
    "ServerOverloadedError",
    "ServingError",
    "build_requests",
    "run_loadtest",
]
