"""Operational counters for the advisor service (the ``/metrics`` body).

:class:`ServiceMetrics` keeps no counter or window of its own: every
observation is one write into the :class:`~repro.obs.registry.MetricsRegistry`
(``service.requests|errors|timeouts|sheds{path}``,
``service.latency_ms{path}``, ``service.solve_ms{source}``,
``service.batches``, ``service.batched_requests``,
``service.batch_size``), so the same series show up in the
Prometheus/JSON exporters alongside engine, runner and cache telemetry.

The ``endpoints``, ``solvers``, ``speedup_vs_sim`` and ``batching``
sections of ``/metrics`` are derived from those series by
:func:`sections`, from this process's registry or from the fleet merge
of every worker's :meth:`ServiceMetrics.export`
(:mod:`repro.service.aggregate`) alike.  The section shapes are an API.
Latency percentiles are over the most recent ``latency_window``
samples (what an operator tuning the batching knobs wants); ``mean``
and ``max`` are exact lifetime values.

The ``path`` label is the caller's route template (see
:func:`repro.service.server.route_label`), never a raw URL path: paths
are client controlled and label cardinality must stay bounded.
"""

from __future__ import annotations

import os
import time

from repro import obs
from repro.obs.registry import summarize_histogram

__all__ = ["FAMILIES", "ServiceMetrics", "sections"]

#: the registry families :func:`sections` reads (and workers dump)
FAMILIES = (
    "service.requests",
    "service.errors",
    "service.timeouts",
    "service.sheds",
    "service.latency_ms",
    "service.solve_ms",
    "service.batches",
    "service.batched_requests",
    "service.batch_size",
)


class ServiceMetrics:
    """Writes service observations into the registry; reads ``/metrics``."""

    def __init__(
        self,
        latency_window: int = 2048,
        registry: obs.MetricsRegistry | None = None,
    ) -> None:
        self._latency_window = latency_window
        self._started = time.monotonic()
        #: wall-clock start (dashboards detect restarts from a jump)
        self.started_unix = time.time()
        #: version / git-revision / config-digest info labels; the
        #: server fills this at construction (see set_build_info)
        self.build_info: dict[str, str] = {}
        self.registry = registry if registry is not None else obs.registry()
        self.registry.gauge("process.start_time_unix").set(self.started_unix)

    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    def set_build_info(self, **info: str) -> None:
        """Attach build/config info labels (version, revision, digest).

        Exported as a Prometheus-style info gauge: constant value 1,
        the payload lives in the labels, so dashboards can join on it
        to detect version/config skew across a fleet.
        """
        self.build_info.update({k: str(v) for k, v in info.items()})
        self.registry.gauge("process.build_info", **self.build_info).set(1.0)

    def observe_request(
        self,
        path: str,
        latency_ms: float,
        *,
        error: bool = False,
        timeout: bool = False,
        shed: bool = False,
    ) -> None:
        """Record one finished request under route label ``path``.

        ``timeout=True`` and ``shed=True`` (HTTP 429, or a spent
        deadline) imply an error.  Every flag combination counts each
        counter exactly once: a shed request whose client also timed
        out waiting is one request, one shed, one timeout, one error.
        """
        reg = self.registry
        reg.counter("service.requests", path=path).inc()
        if timeout:
            reg.counter("service.timeouts", path=path).inc()
        if shed:
            reg.counter("service.sheds", path=path).inc()
        if error or timeout or shed:
            reg.counter("service.errors", path=path).inc()
        reg.histogram(
            "service.latency_ms", reservoir=self._latency_window, path=path
        ).observe(latency_ms)

    def observe_solve(self, source: str, latency_ms: float) -> None:
        """Record one solve call's latency for engine ``source``.

        One observation per solve *call*: a micro-batched surrogate
        group counts once however many requests it stacked, while the
        sim path (which solves per request) counts per request -- the
        conservative direction for the ``speedup_vs_sim`` ratio.  Label
        cardinality is bounded by the PROFILES constant.
        """
        self.registry.histogram(
            "service.solve_ms", reservoir=self._latency_window, source=source
        ).observe(latency_ms)

    def observe_stream(self, event: str) -> None:
        """Count one stream-session lifecycle event.

        ``event`` is one of the fixed literals ``open`` / ``push`` /
        ``change`` / ``close`` / ``reject`` (server-controlled, so the
        label cardinality is bounded by construction).
        """
        self.registry.counter("service.stream_events", event=event).inc()

    def observe_batch(self, size: int) -> None:
        reg = self.registry
        reg.counter("service.batches").inc()
        reg.counter("service.batched_requests").inc(size)
        reg.histogram("service.batch_size").observe(size)

    def export(self) -> dict:
        """The raw, mergeable state of :data:`FAMILIES` (worker dumps)."""
        return self.registry.export(FAMILIES)

    def snapshot(
        self, *, cache: dict | None = None, sessions: dict | None = None
    ) -> dict:
        uptime_s = self.uptime_s()
        return {
            # additive: the stream-session section (None when the
            # caller has no session manager, e.g. bare-metrics tests)
            "sessions": sessions,
            "uptime_s": uptime_s,
            "process": {
                "start_time_unix": self.started_unix,
                "uptime_s": uptime_s,
                "pid": os.getpid(),
                **self.build_info,
            },
            **sections(self.export()),
            "cache": cache,
        }


def sections(families: dict) -> dict:
    """The ``endpoints``/``solvers``/``speedup_vs_sim``/``batching``
    sections of ``/metrics`` from a :data:`FAMILIES` export."""

    def series(name: str) -> list[dict]:
        return families.get(name, {}).get("series", [])

    def by_label(name: str, label: str) -> dict:
        return {s["labels"][label]: s["value"] for s in series(name)}

    errors = by_label("service.errors", "path")
    timeouts = by_label("service.timeouts", "path")
    sheds = by_label("service.sheds", "path")
    latency = by_label("service.latency_ms", "path")
    endpoints = {
        path: {
            "requests": int(count),
            "errors": int(errors.get(path, 0)),
            "timeouts": int(timeouts.get(path, 0)),
            "sheds": int(sheds.get(path, 0)),
            "latency_ms": summarize_histogram(latency[path]),
        }
        for path, count in sorted(by_label("service.requests", "path").items())
    }
    solvers = {
        source: {
            "requests": raw["count"],
            "errors": 0,
            "timeouts": 0,
            "sheds": 0,
            "latency_ms": summarize_histogram(raw),
        }
        for source, raw in sorted(by_label("service.solve_ms", "source").items())
    }
    speedup: dict[str, float] = {}
    sim = solvers.get("sim")
    if sim is not None:
        for source, stats in solvers.items():
            mean = stats["latency_ms"]["mean"]
            if source != "sim" and mean > 0:
                speedup[source] = sim["latency_ms"]["mean"] / mean
    batches = int(sum(s["value"] for s in series("service.batches")))
    batched = int(sum(s["value"] for s in series("service.batched_requests")))
    max_batch = max((s["value"]["max"] for s in series("service.batch_size")), default=0)
    return {
        "endpoints": endpoints,
        "solvers": solvers,
        "speedup_vs_sim": speedup,
        "batching": {
            "batches": batches,
            "batched_requests": batched,
            "max_batch_size": int(max_batch),
            "mean_batch_size": batched / batches if batches else 0.0,
        },
    }
