"""Service <-> repro.obs integration.

The acceptance bar: one service request produces a trace with at least
four nested spans (request -> queue_wait -> solve, plus request ->
serialize) exportable to a Perfetto-loadable Chrome trace JSON, while
``/metrics`` keeps its original field names.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import obs
from repro.service import (
    AsyncServiceClient,
    PartitionService,
    ServiceConfig,
    ServiceError,
)
from repro.service.metrics import ServiceMetrics
from repro.service.server import route_label

APC = [0.004, 0.007, 0.002]
API = [0.03, 0.04, 0.01]


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    obs.configure(enabled=True, sample=1.0)
    yield
    obs.reset()


def run_with_service(coro_factory, **config_kwargs):
    config_kwargs.setdefault("port", 0)
    config_kwargs.setdefault("max_wait_ms", 1.0)

    async def main():
        service = PartitionService(ServiceConfig(**config_kwargs))
        await service.start()
        try:
            async with AsyncServiceClient(port=service.port) as client:
                return await coro_factory(service, client)
        finally:
            await service.stop()

    return asyncio.run(main())


# ----------------------------------------------------------------------
# the acceptance criterion: one request, >= 4 nested spans
# ----------------------------------------------------------------------
def test_single_request_traces_four_nested_spans(tmp_path):
    async def scenario(service, client):
        return await client.partition(APC, 0.01, api=API)

    run_with_service(scenario)
    spans = obs.tracer().spans()
    by = {}
    for s in spans:
        by.setdefault(s.name, s)

    request = by["service.request"]
    queue_wait = by["service.queue_wait"]
    solve = by["service.solve"]
    serialize = by["service.serialize"]

    # request -> queue_wait -> solve; request -> serialize
    assert request.parent_id is None
    assert queue_wait.parent_id == request.span_id
    assert solve.parent_id == queue_wait.span_id
    assert serialize.parent_id == request.span_id
    assert solve.attrs["batched"] is True

    # ...and the chain exports to a loadable Chrome trace file
    path = tmp_path / "service.trace.json"
    obs.write_chrome_trace(path, spans)
    doc = json.loads(path.read_text())
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {
        "service.request",
        "service.queue_wait",
        "service.solve",
        "service.serialize",
    } <= names


def test_unbatched_solve_nests_directly_under_request():
    async def scenario(service, client):
        return await client.partition(APC, 0.01, api=API)

    run_with_service(scenario, batching=False)
    by = {s.name: s for s in obs.tracer().spans()}
    assert "service.queue_wait" not in by
    assert by["service.solve"].parent_id == by["service.request"].span_id
    assert by["service.solve"].attrs["batched"] is False


# ----------------------------------------------------------------------
# /metrics stays backward compatible and gains the registry view
# ----------------------------------------------------------------------
def test_metrics_keeps_field_names_and_adds_obs_section():
    async def scenario(service, client):
        await client.partition(APC, 0.01, api=API)
        return await client.metrics()

    body = run_with_service(scenario)
    # original shape untouched
    endpoint = body["endpoints"]["/v1/partition"]
    assert endpoint["requests"] == 1
    for key in ("p50", "p90", "p99", "mean", "max", "window"):
        assert key in endpoint["latency_ms"]
    assert set(body["cache"]) >= {"hits", "misses", "puts"}
    assert "batches" in body["batching"]
    # additive registry snapshot
    reqs = body["obs"]["service.requests"]
    assert reqs["kind"] == "counter"
    assert reqs["series"][0]["labels"] == {"path": "/v1/partition"}
    assert reqs["series"][0]["value"] == 1.0


def test_registry_mirrors_service_counters():
    async def scenario(service, client):
        await client.partition(APC, 0.01, api=API)
        await client.partition(APC, 0.01, api=API)
        return None

    run_with_service(scenario)
    reg = obs.registry()
    assert reg.get_value("service.requests", path="/v1/partition") == 2.0
    assert reg.get_value("cache.hits", cache="service") == 1.0
    assert reg.get_value("cache.misses", cache="service") == 1.0


def test_benchmark_families_exist_after_one_analytic_request():
    """The contract the serving benchmark reads out of ``/metrics``."""

    async def scenario(service, client):
        await client.partition(APC, 0.01, api=API)
        return await client.metrics()

    families = run_with_service(scenario)["obs"]

    def labels_of(name):
        return [s["labels"] for s in families[name]["series"]]

    assert {} in labels_of("service.batches")
    assert {} in labels_of("service.batched_requests")
    assert {"cache": "service"} in labels_of("cache.hits")
    assert {"source": "analytic"} in labels_of("service.solve_ms")
    assert {"path": "/v1/partition"} in labels_of("service.latency_ms")


def test_unrouted_paths_label_as_other():
    for route in (
        "/healthz",
        "/metrics",
        "/v1/partition",
        "/v1/partition/batch",
        "/v1/qos",
        "/v1/surrogate/reload",
        "/v1/stream/open",
        "/v1/debug/recent",
        "/v1/debug/slo",
        "/v1/debug/drift",
    ):
        assert route_label(route) == route
    assert route_label("/v1/debug/recent?kind=shed&limit=2") == "/v1/debug/recent"
    assert route_label("/v1/stream/abc") == "/v1/stream/{id}"
    assert route_label("/v1/stream/abc/counters") == "/v1/stream/{id}/counters"
    for junk in (
        "/p0",
        "/v1/partition?x=1",
        "/v1/debug/nope",
        "/v1/stream/",
        "/v1/stream//counters",
        "/v1/stream/a/b",
        "/v1/stream/a/b/counters",
    ):
        assert route_label(junk) == "other", junk


# ----------------------------------------------------------------------
# regressions: the request label set is fixed by the routes
# ----------------------------------------------------------------------
def test_partition_keeps_its_label_after_many_stream_sessions():
    async def scenario(service, client):
        for _ in range(20):
            session = (await client.stream_open(API, 0.01))["session"]
            await client.stream_push(session, 100_000, [600, 200, 100])
        await client.partition(APC, 0.01, api=API)
        return await client.metrics()

    body = run_with_service(scenario, max_sessions=32)
    reg = obs.registry()
    assert reg.get_value("service.requests", path="/v1/partition") == 1.0
    assert reg.get_value("service.requests", path="other") is None
    assert body["endpoints"]["/v1/partition"]["requests"] == 1
    assert body["endpoints"]["/v1/stream/{id}/counters"]["requests"] == 20


def test_junk_paths_leave_a_bounded_label_set():
    n_junk = 10_000

    async def scenario(service, client):
        for i in range(n_junk):
            with pytest.raises(ServiceError):
                await client._request("GET", f"/junk/{i}")
        return await client.metrics()

    body = run_with_service(scenario)
    # (the /metrics call itself is recorded after its body is built)
    assert set(body["endpoints"]) == {"other"}
    assert body["endpoints"]["other"]["requests"] == n_junk
    assert body["endpoints"]["other"]["errors"] == n_junk
    assert len(obs.registry().series()) < 100


# ----------------------------------------------------------------------
# satellite: timeout implies an error exactly once
# ----------------------------------------------------------------------
class TestEndpointStatsTimeout:
    """One request's flags, through ``ServiceMetrics.observe_request``
    into the registry and the ``/metrics`` endpoint stats."""

    PATH = "/v1/partition"

    def observe(self, **flags):
        metrics = ServiceMetrics(registry=obs.MetricsRegistry())
        metrics.observe_request(self.PATH, 5.0, **flags)
        stats = metrics.snapshot()["endpoints"][self.PATH]
        reg = metrics.registry
        assert reg.get_value("service.requests", path=self.PATH) == stats["requests"]
        for name in ("errors", "timeouts"):
            assert (reg.get_value(f"service.{name}", path=self.PATH) or 0) == stats[name]
        return stats

    def test_timeout_alone_counts_one_error(self):
        stats = self.observe(timeout=True)
        assert stats["timeouts"] == 1
        assert stats["errors"] == 1

    def test_timeout_plus_error_flag_still_counts_once(self):
        stats = self.observe(error=True, timeout=True)
        assert stats["timeouts"] == 1
        assert stats["errors"] == 1

    def test_plain_error_does_not_count_a_timeout(self):
        stats = self.observe(error=True)
        assert stats["timeouts"] == 0
        assert stats["errors"] == 1

    def test_success_counts_neither(self):
        stats = self.observe()
        assert stats["requests"] == 1
        assert stats["errors"] == 0
        assert stats["timeouts"] == 0
