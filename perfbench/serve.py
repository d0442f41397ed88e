"""The serve-rpc workload: single ``/v1/partition`` calls in a closed loop.

Each run fits the smoke surrogate and starts a fresh
``python -m repro.service`` (defaults, except ``--port 0``,
``--surrogate-dir`` and ``--shadow-rate 0``), then loads it from this
process over ``nproc`` keep-alive connections in a closed loop:

1. set-up, four times (the median is ``setup_s``): fit the surrogate,
   start a server and wait until it listens; then one fixed warm-up
   pass on that fresh server (their median is ``cold_s``);
2. four more passes of the same size on the last server (the fastest
   is ``warm_s``); every warm-up input is disjoint from the timed stream;
3. the timed window of ``--seconds``, between two ``/metrics`` reads;
4. off the clock: stop the server's process group, then parse and
   check every answer.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import statistics
import subprocess
import time

import inputs
import stats
from loadgen import Call, Client
from procs import cpu_seconds, log_tail, peak_rss_mb
from spans import Recorder

HOST = "127.0.0.1"
SETUP_REPS = 4
#: warm-up streams run on the last server after its cold pass
WARM_STREAMS = ("warm2", "warm3", "warm4", "warm5")
PATH = "/v1/partition"
#: calls per warm-up pass
PASS_CALLS = 800
#: solves_per_s is the median rate over blocks of this many calls
RATE_BLOCK = 500
#: the traced run replays this many timed requests, and this many
#: pushes for each of the stream sessions
REPLAY_REQUESTS = 2000
REPLAY_PUSHES = 32
_LISTENING = re.compile(rb"listening on http://[^:]+:(\d+)")


# ----------------------------------------------------------------------
# program processes
# ----------------------------------------------------------------------
def fit_surrogate(ctx, out_dir) -> float:
    """Fit the smoke surrogate into ``out_dir``; returns wall seconds."""
    with open(ctx.run_dir / "fit.log", "ab") as log:
        group = ctx.programs.start(
            [ctx.python, "-m", "repro.surrogate", "fit", "--preset", "smoke",
             "--out", str(out_dir), "--workers", str(ctx.nproc)],
            env=ctx.sweep_env, cwd=ctx.root, stdout=log, stderr=log,
        )
        try:
            code = group.wait(timeout=300)
        finally:
            elapsed = time.monotonic() - group.started
            ctx.programs.stop(group)
    if code != 0:
        raise RuntimeError(f"surrogate fit exited with {code}:\n{log_tail(ctx.run_dir / 'fit.log')}")
    return elapsed


def prime_sweep(ctx) -> None:
    """Run the smoke sweep once per checkout, untimed; later fits reuse
    its SimCache, so ``setup_s`` measures the fit, not the simulations."""
    marker = ctx.sweep_dir / "primed"
    if marker.exists():
        ctx.log(f"surrogate sweep: reusing the SimCache kept at {ctx.sweep_dir} "
                "(only the first run in a checkout pays the cold sweep)")
        return
    seconds = fit_surrogate(ctx, ctx.run_dir / "surrogate-prime")
    marker.write_text("smoke\n")
    ctx.log(f"surrogate sweep: cold sweep paid once ({seconds:.1f} s, untimed); "
            f"its SimCache is kept at {ctx.sweep_dir} for later runs")


def start_server(ctx, surrogate_dir):
    """Start a server; returns ``(group, port, seconds until listening)``."""
    log = open(ctx.run_dir / "server.log", "ab")
    try:
        group = ctx.programs.start(
            [ctx.python, "-m", "repro.service", "--port", "0",
             "--surrogate-dir", str(surrogate_dir), "--shadow-rate", "0"],
            env=ctx.env, cwd=ctx.root, stdout=subprocess.PIPE, stderr=log,
        )
    finally:
        log.close()
    out = group.proc.stdout
    deadline = time.monotonic() + 60.0
    seen = b""
    while time.monotonic() < deadline:
        ready, _, _ = select.select([out], [], [], 0.5)
        if ready:
            line = out.readline()
            if not line:
                break
            seen += line
            match = _LISTENING.search(line)
            if match:
                return group, int(match.group(1)), time.monotonic() - group.started
    raise RuntimeError(f"server did not start listening: {seen[-500:]!r}\n"
                       f"{log_tail(ctx.run_dir / 'server.log')}")


def get_metrics(port: int) -> dict:
    conn = http.client.HTTPConnection(HOST, port, timeout=30)
    try:
        conn.request("GET", "/metrics")
        resp = conn.getresponse()
        body = resp.read()
        if resp.status != 200:
            raise RuntimeError(f"/metrics answered {resp.status}")
        return json.loads(body)
    finally:
        conn.close()


def _series(snapshot: dict, name: str, **labels):
    family = snapshot["obs"].get(name)
    if family is None:
        return None
    total = None
    for series in family["series"]:
        if all(series["labels"].get(k) == v for k, v in labels.items()):
            value = series["value"]
            if isinstance(value, dict):
                total = total or {"count": 0, "sum": 0.0}
                total["count"] += value["count"]
                total["sum"] += value["sum"]
            else:
                total = (total or 0.0) + value
    return total


def _delta(before: dict, after: dict, name: str, **labels) -> float:
    a = _series(after, name, **labels) or 0.0
    b = _series(before, name, **labels) or 0.0
    return a - b


def _delta_mean(before: dict, after: dict, name: str, **labels) -> float:
    a = _series(after, name, **labels) or {"count": 0, "sum": 0.0}
    b = _series(before, name, **labels) or {"count": 0, "sum": 0.0}
    n = a["count"] - b["count"]
    return (a["sum"] - b["sum"]) / n if n else 0.0


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def check_solves(pairs, model) -> list[str]:
    """Check ``(request, response)`` pairs against in-process solves.

    Analytic answers must equal a ``repro.core.batch`` solve of the same
    input exactly and conserve Eq. 2; surrogate answers must come from
    the surrogate and match ``SurrogateModel.predict`` of the same
    artifact.  Returns one message per failed pair.
    """
    import numpy as np

    from repro.core.bandwidth import (
        CONSERVATION_ATOL, CONSERVATION_RTOL, conservation_residual,
    )
    from repro.core.batch import batch_allocate

    failures: list[str] = []
    groups: dict = {}
    for req, resp in pairs:
        got = resp.get("apc_shared")
        if resp.get("source") != req["profile"]:
            failures.append(f"{req['profile']} request answered by {resp.get('source')!r}")
        elif not isinstance(got, list) or len(got) != len(req["apc_alone"]):
            failures.append(f"malformed answer {str(resp)[:120]}")
        else:
            key = (req["profile"], req["scheme"], len(got))
            groups.setdefault(key, []).append((req, got))
    for (profile, scheme, _n), members in groups.items():
        apc = np.array([r["apc_alone"] for r, _ in members], dtype=float)
        band = np.array([r["bandwidth"] for r, _ in members], dtype=float)
        api = (np.array([r["api"] for r, _ in members], dtype=float)
               if scheme == "prio_api" else None)
        got = np.array([g for _, g in members], dtype=float)
        if profile == "surrogate":
            expected = model.predict(scheme, apc, band, api=api)
            bad = ~np.isclose(got, expected, rtol=1e-9, atol=1e-15).all(axis=1)
            what = "differs from SurrogateModel.predict"
        else:
            expected = batch_allocate(scheme, apc, band, api=api)
            bad = ~(got == expected).all(axis=1)
            what = "differs from core.batch"
            tol = CONSERVATION_ATOL + CONSERVATION_RTOL * max(1.0, float(band.max()))
            if conservation_residual(got, band, apc, work_conserving=True) > tol:
                for i in range(len(members)):
                    if conservation_residual(got[i], band[i], apc[i],
                                             work_conserving=True) > tol:
                        bad[i] = True
                        what = "differs from core.batch or violates Eq. 2"
        failures.extend(f"{profile} {scheme} answer {what}: {members[i][0]['apc_alone']}"
                        for i in np.flatnonzero(bad))
    return failures


# ----------------------------------------------------------------------
# inputs and checks
# ----------------------------------------------------------------------
class _Calls:
    """Pre-encoded calls handed out in order to whichever connection asks."""

    def __init__(self, seed: int, stream: str, n: int) -> None:
        gen = inputs.rpc_requests(seed, stream)
        self.calls = [Call(inputs.wire("POST", PATH, body), body)
                      for body in (next(gen) for _ in range(n))]
        self.next = 0

    def __call__(self, _ci: int):
        if self.next >= len(self.calls):
            return None
        call = self.calls[self.next]
        self.next += 1
        return call


def check(calls, model) -> tuple[int, list[str]]:
    """Failed calls and one message per failure."""
    pairs, failures = [], []
    for call in calls:
        if call.status != 200:
            failures.append(f"HTTP {call.status}: {call.body[:200]!r}")
            continue
        try:
            pairs.append((call.meta, json.loads(call.body)))
        except ValueError as exc:
            failures.append(f"bad JSON: {exc}")
    failures += check_solves(pairs, model)
    return len(failures), failures


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def run(ctx) -> dict:
    from repro.surrogate.artifact import load_model

    prime_sweep(ctx)
    setups, colds, all_calls = [], [], []
    for rep in range(SETUP_REPS):
        art = ctx.run_dir / f"surrogate-{rep}"
        fit_s = fit_surrogate(ctx, art)
        group, port, listen_s = start_server(ctx, art)
        setups.append(fit_s + listen_s)
        client = Client(HOST, port, ctx.nproc)
        cold, cold_s = client.run(_Calls(ctx.seed, "warm1", PASS_CALLS))
        all_calls += cold
        colds.append(cold_s)
        if rep < SETUP_REPS - 1:
            client.close()
            ctx.programs.stop(group)
    ctx.log("set-up (fit + listen) s: " + ", ".join(f"{s:.3f}" for s in setups))
    model = load_model(art)

    try:
        warms = []
        for stream in WARM_STREAMS:
            warm, warm_s = client.run(_Calls(ctx.seed, stream, PASS_CALLS))
            all_calls += warm
            warms.append(warm_s)
        # enough pre-encoded inputs for one and a half times the warm rate
        rate = PASS_CALLS / statistics.median(warms)
        next_call = _Calls(ctx.seed, "timed", int(rate * ctx.seconds * 1.5) + PASS_CALLS)

        before = get_metrics(port)
        cpu0, own0 = cpu_seconds(group.pid), os.times()
        t0 = time.perf_counter()
        timed, elapsed = client.run(next_call, deadline=t0 + ctx.seconds)
        wall = time.perf_counter() - t0
        cpu1, own1 = cpu_seconds(group.pid), os.times()
        after = get_metrics(port)
        rss = peak_rss_mb(group.members())
    finally:
        client.close()
    ctx.programs.stop(group)
    all_calls += timed
    if elapsed < ctx.seconds * 0.9:
        ctx.log(f"warning: pre-encoded inputs ran out after {elapsed:.2f} s")

    failed, failures = check(all_calls, model)
    for msg in failures[:10]:
        ctx.log("FAILED: " + msg)

    rates = stats.block_rates([(c.t0 + c.latency_s, 1) for c in timed],
                              min(RATE_BLOCK, len(timed)), t0)
    lat_ms = [c.latency_s * 1e3 for c in timed]
    tail_ms, tail_label, n_beyond = stats.tail(lat_ms)
    server_share = (cpu1 - cpu0) / wall
    loadgen_share = ((own1.user - own0.user) + (own1.system - own0.system)) / wall
    ctx.log(f"serve-rpc: {len(timed)} solves in {elapsed:.3f} s over {client.n} "
            f"connections; tail latency {tail_label} = {tail_ms:.3f} ms "
            f"({n_beyond} samples beyond)")
    ctx.log(f"solves/s per block of {RATE_BLOCK} calls: "
            + " ".join(f"{r:.0f}" for r in rates))
    ctx.log("cold passes s: " + ", ".join(f"{v:.3f}" for v in colds)
            + "; warm passes s: " + ", ".join(f"{v:.3f}" for v in warms))
    ctx.log(f"cpu share: server {server_share:.2f}, load generator {loadgen_share:.2f}"
            + ("  [CLIENT-BOUND]" if loadgen_share > 0.9 else ""))

    result = {
        "attempted": len(all_calls),
        "failed": failed,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "solves_per_s": statistics.median(rates),
            "latency_p50_ms": statistics.median(lat_ms),
            "cold_s": statistics.median(colds),
            # best of four: the passes do the same work on a warm server,
            # so the spread between them is interference from outside
            "warm_s": min(warms),
            "peak_rss_mb": rss,
        },
    }
    if ctx.trace:
        result["per_layer"] = _layers(ctx, timed, model, before, after)
        result["per_layer"].update({
            "server.cpu_share": server_share,
            "loadgen.cpu_share": loadgen_share,
            "latency_tail_ms": tail_ms,
            "latency_tail_beyond": float(n_beyond),
        })
    return result


def _layers(ctx, timed, model, before, after) -> dict:
    import replay
    from spans import layer_table

    out = {}
    batches = _delta(before, after, "service.batches")
    out["service.batching.mean_batch_size"] = (
        _delta(before, after, "service.batched_requests") / batches if batches else 0.0)
    hits = _delta(before, after, "cache.hits", cache="service")
    misses = _delta(before, after, "cache.misses", cache="service")
    out["service.cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    analytic_ms = _delta_mean(before, after, "service.solve_ms", source="analytic")
    out["service.solver.analytic_ms"] = analytic_ms
    out["service.solver.surrogate_ms"] = _delta_mean(
        before, after, "service.solve_ms", source="surrogate")
    client_ms = [c.latency_s * 1e3 for c in timed]
    server_ms = _delta_mean(before, after, "service.latency_ms", path=PATH)
    out["service.http.overhead_ms"] = sum(client_ms) / len(client_ms) - server_ms

    # uncached analytic calls wait for the batch window and solve; cached
    # ones do neither, and the solve's own time is known from /metrics
    fresh, cached = [], []
    for c in timed:
        if c.meta["profile"] == "analytic" and c.status == 200:
            (cached if json.loads(c.body)["cached"] else fresh).append(c.latency_s * 1e3)
    out["service.batching.wait_ms"] = (
        sum(fresh) / len(fresh) - sum(cached) / len(cached) - analytic_ms
        if fresh and cached else 0.0)

    bodies = [c.wire.split(b"\r\n\r\n", 1)[1] for c in timed[:REPLAY_REQUESTS]]
    rec, overhead, solved = replay.traced_replay(
        lambda r: replay.replay_rpc(bodies, model, r))

    def per(layer: str, n: int, recorder=rec) -> float:
        return recorder.layer_sum(layer)[0] / n * 1e6 if n else 0.0

    rows = len(bodies)
    out["service.protocol.decode_us"] = per("service.protocol", rows)
    out["service.protocol.encode_us"] = per("service.protocol.encode", rows)
    out["service.protocol.cache_key_us"] = per("service.protocol.cache_key", rows)
    out["service.metrics.observe_us"] = per("service.metrics", rows)
    out["core.batch.solve_us_per_row"] = per("core.batch", solved["core.batch"])
    out["surrogate.predict_us_per_row"] = per("surrogate", solved["surrogate"])
    out["trace.overhead_pct"] = overhead
    out["trace.spans"] = float(len(rec))

    # stream sessions: the sessions and control layers, replayed
    configs = [inputs.open_body(c) for c in inputs.stream_sessions(ctx.seed)]
    pushes = inputs.round_robin_pushes(ctx.seed, REPLAY_PUSHES)
    stream_rec = Recorder()
    changes = replay.replay_stream(configs, pushes, model, stream_rec)["changes"]
    out["service.sessions.push_us"] = per(
        "service.sessions", len(pushes), stream_rec)
    out["control.resolve_ms"] = (
        (stream_rec.layer_sum("core.batch")[0] + stream_rec.layer_sum("surrogate")[0])
        / len(pushes) * 1e3)
    out["control.change_rate"] = changes / len(pushes)

    for name, recorder, title in (("requests", rec, "serve-rpc requests"),
                                  ("stream", stream_rec, "stream pushes")):
        path = ctx.trace_dir / f"serve-rpc-{name}-seed{ctx.seed}.jsonl"
        recorder.write(path)
        ctx.log(f"traced replay of {title}: {len(recorder)} spans -> {path}")
        ctx.log(layer_table(recorder, f"Total ({title})"))
    ctx.log(f"tracing overhead {overhead:+.1f}% (request replay, traced over untraced)")
    return out
