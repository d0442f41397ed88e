"""Traced replay: a sample of the workload's inputs through each layer.

The replay calls the public functions the server calls, in the same
order, on fresh in-process objects, with a span around every call.  It
runs once untraced and once traced (twice each, keeping the faster), so
the difference is the tracing overhead.  Nothing is patched; the spans
live only in this file.
"""

from __future__ import annotations

import json
import time

from spans import Recorder

PATH = "/v1/partition"


def _service():
    from repro.service.cache import ResultCache
    from repro.service.config import ServiceConfig
    from repro.service.metrics import ServiceMetrics
    from repro.service.watch import ServiceWatch
    from repro import obs

    registry = obs.MetricsRegistry()
    config = ServiceConfig(shadow_rate=0.0)
    return (
        ServiceMetrics(registry=registry),
        ServiceWatch(config, registry=registry),
        ResultCache(config.cache_capacity),
    )


def _solve_layer(profile: str) -> str:
    return "surrogate" if profile == "surrogate" else "core.batch"


def _solved() -> dict[str, int]:
    """Rows solved per solver layer (cache hits solve nothing)."""
    return {"core.batch": 0, "surrogate": 0}


def replay_rpc(bodies: list[bytes], model, rec: Recorder) -> dict[str, int]:
    from repro.service.batching import solve_partition_rows
    from repro.service.protocol import parse_partition_request, partition_response

    metrics, watch, cache = _service()
    solved_rows = _solved()
    for rid, body in enumerate(bodies):
        t0 = time.perf_counter()
        with rec.span("request", "replay", rid):
            with rec.span("parse_partition_request", "service.protocol"):
                req = parse_partition_request(json.loads(body))
            with rec.span("cache_key", "service.protocol.cache_key"):
                key = req.cache_key()
            with rec.span("ResultCache.get", "service.cache"):
                hit = cache.get(key)
            if hit is None:
                with rec.span("solve_partition_rows", _solve_layer(req.profile)):
                    row = solve_partition_rows([req], surrogate=model)[0]
                with rec.span("partition_response", "service.protocol.encode"):
                    resp = partition_response(req, row, source=req.profile)
                with rec.span("ResultCache.put", "service.cache"):
                    cache.put(key, resp)
                solved = req.profile
                solved_rows[_solve_layer(solved)] += 1
            else:
                resp = dict(hit, cached=True, batch_size=0)
                solved = None
            with rec.span("json.dumps", "service.protocol.encode"):
                json.dumps(resp).encode()
            with rec.span("observe", "service.metrics"):
                ms = (time.perf_counter() - t0) * 1e3
                if solved is not None:
                    metrics.observe_solve(solved, ms)
                    watch.observe_solve(solved, ms)
                metrics.observe_request(PATH, ms)
                watch.observe_request(PATH, ms, status=200, error=False,
                                      timeout=False, shed=False)
    return solved_rows


def replay_stream(configs: list[dict], pushes: list[tuple[int, bytes]], model,
                  rec: Recorder) -> dict[str, int]:
    """``pushes`` are ``(session index, counter body)`` in send order.
    Returns the rows solved per solver layer and the change points seen."""
    from repro.service.batching import solve_partition_rows
    from repro.service.protocol import (
        PartitionRequest, parse_counter_push, parse_stream_open, partition_response,
    )
    from repro.service.sessions import SessionManager

    metrics, watch, _cache = _service()
    manager = SessionManager(max_sessions=len(configs), idle_timeout_s=3600.0,
                             history_limit=64)
    sessions = []
    for config in configs:
        o = parse_stream_open(config)
        sessions.append(manager.open(
            scheme=o.scheme, api=o.api, bandwidth=o.bandwidth, metrics=o.metrics,
            work_conserving=o.work_conserving, profile=o.profile, prior=o.prior,
            smoothing=o.smoothing, smoothing_param=o.smoothing_param,
            change_threshold=o.change_threshold, cooldown=o.cooldown,
        ))
    solved_rows = _solved()
    changes = 0
    for rid, (index, body) in enumerate(pushes):
        t0 = time.perf_counter()
        session = sessions[index]
        with rec.span("request", "replay", rid):
            with rec.span("parse_counter_push", "service.protocol"):
                window, accesses, interference = parse_counter_push(
                    json.loads(body), session.n_apps)
            with rec.span("StreamSession.push_counters", "service.sessions"):
                update = session.push_counters(window, accesses, interference)
                estimate = session.current_estimate()
            req = PartitionRequest(
                scheme=session.scheme, apc_alone=tuple(float(v) for v in estimate),
                api=session.api, bandwidth=session.bandwidth, metrics=session.metrics,
                work_conserving=session.work_conserving, profile=session.profile,
            )
            s0 = time.perf_counter()
            with rec.span("solve_partition_rows", _solve_layer(req.profile)):
                row = solve_partition_rows([req], surrogate=model)[0]
            resolve_ms = (time.perf_counter() - s0) * 1e3
            solved_rows[_solve_layer(req.profile)] += 1
            with rec.span("partition_response", "service.protocol.encode"):
                resp = partition_response(req, row, source=req.profile)
                resp.update(session=session.session_id, epoch=update.epoch,
                            changed=update.changed, degenerate=update.degenerate,
                            apc_alone_estimate=[float(v) for v in estimate])
            with rec.span("observe", "service.metrics"):
                session.observe_health(update, beta=tuple(resp["beta"]),
                                       resolve_ms=resolve_ms)
                watch.observe_stream_epoch(resolve_ms=resolve_ms,
                                           churn=session.health.last_churn)
                metrics.observe_stream("push")
                if update.changed:
                    metrics.observe_stream("change")
                    changes += 1
            with rec.span("json.dumps", "service.protocol.encode"):
                json.dumps(resp).encode()
            with rec.span("observe", "service.metrics"):
                ms = (time.perf_counter() - t0) * 1e3
                path = f"/v1/stream/{session.session_id}/counters"
                metrics.observe_request(path, ms)
                watch.observe_request(path, ms, status=200, error=False,
                                      timeout=False, shed=False)
    return dict(solved_rows, changes=changes)


def traced_replay(run_once) -> tuple[Recorder, float, dict[str, int]]:
    """Run ``run_once(recorder)`` untraced and traced, twice each.

    Returns the last traced recorder, the tracing overhead in percent
    (fastest traced wall time over fastest untraced, minus one) and the
    rows solved per solver layer.
    """
    plain, traced = [], []
    for _ in range(2):
        t0 = time.perf_counter()
        run_once(Recorder(enabled=False))
        plain.append(time.perf_counter() - t0)
        rec = Recorder()
        t0 = time.perf_counter()
        solved = run_once(rec)
        traced.append(time.perf_counter() - t0)
    return rec, (min(traced) / min(plain) - 1.0) * 100.0, solved
