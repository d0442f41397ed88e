"""Seeded inputs: advisor requests, and stream sessions for the replay.

Every input stream is a pure function of the seed and the stream's
name: items are drawn one at a time from a ``random.Random`` seeded
with both, so the first ``n`` items never depend on how many are taken.
The timed stream and the warm-up streams use different names, so
warm-up inputs never repeat in the timed window.

Surrogate-profile inputs stay inside the smoke artifact's training
domain: four apps, ``api`` in [0.004, 0.04] and ``apc_alone`` between
0.2 and 0.9 of the bandwidth, which is the DDR2-400 peak APC the smoke
sweep trains at.
"""

from __future__ import annotations

import json
import random

#: the schemes the surrogate is fitted for; analytic inputs use the same set
SCHEMES = ("equal", "prop", "sqrt", "twothirds", "prio_apc", "prio_api")
#: peak APC of the DDR2-400 bus the smoke sweep simulates (bus scale 1)
TRAINING_BANDWIDTH = 0.01
SURROGATE_APPS = 4
SURROGATE_API = (0.004, 0.04)
SURROGATE_DEMAND = (0.2, 0.9)

HOT_SET_SIZE = 256
HOT_SHARE = 0.25
SURROGATE_SHARE = 0.25
STREAM_SESSIONS = 64
STREAM_WINDOW_CYCLES = 100_000.0
PHASE_EPOCHS = (40, 60)


def _rng(seed: int, *names) -> random.Random:
    return random.Random("/".join([str(seed), *map(str, names)]))


def _analytic_demand(rng: random.Random, n: int, bandwidth: float) -> list[float]:
    # per-app demand shrinks with the app count so small and large
    # groups are over-subscribed by similar factors
    scale = min(1.0, 4.0 / n)
    return [rng.uniform(0.05, 0.9) * bandwidth * scale for _ in range(n)]


def _surrogate_demand(rng: random.Random) -> list[float]:
    lo, hi = SURROGATE_DEMAND
    return [rng.uniform(lo, hi) * TRAINING_BANDWIDTH for _ in range(SURROGATE_APPS)]


def analytic_request(rng: random.Random, n_apps: int | None = None) -> dict:
    n = n_apps if n_apps is not None else rng.randint(2, 8)
    bandwidth = rng.uniform(0.005, 0.02)
    return {
        "scheme": rng.choice(SCHEMES),
        "apc_alone": _analytic_demand(rng, n, bandwidth),
        "api": [rng.uniform(0.002, 0.05) for _ in range(n)],
        "bandwidth": bandwidth,
        "profile": "analytic",
    }


def surrogate_request(rng: random.Random) -> dict:
    lo, hi = SURROGATE_API
    return {
        "scheme": rng.choice(SCHEMES),
        "apc_alone": _surrogate_demand(rng),
        "api": [rng.uniform(lo, hi) for _ in range(SURROGATE_APPS)],
        "bandwidth": TRAINING_BANDWIDTH,
        "profile": "surrogate",
    }


def hot_set(seed: int) -> list[dict]:
    rng = _rng(seed, "rpc", "hot")
    return [analytic_request(rng) for _ in range(HOT_SET_SIZE)]


def rpc_requests(seed: int, stream: str = "timed"):
    """Endless ``/v1/partition`` bodies; only the timed stream uses the
    hot set, so warm-up never pre-fills the cache with hot keys."""
    rng = _rng(seed, "rpc", stream)
    hot = hot_set(seed) if stream == "timed" else None
    while True:
        r = rng.random()
        if r < HOT_SHARE:
            yield hot[rng.randrange(HOT_SET_SIZE)] if hot else analytic_request(rng)
        elif r < HOT_SHARE + SURROGATE_SHARE:
            yield surrogate_request(rng)
        else:
            yield analytic_request(rng)


def stream_sessions(seed: int) -> list[dict]:
    """The 64 session configs.  Every fourth one is on the surrogate
    profile; schemes and app counts cycle, so every seed opens the same
    mix of sessions and only the numbers differ."""
    rng = _rng(seed, "stream", "sessions")
    out = []
    for i in range(STREAM_SESSIONS):
        if i % 4 == 3:
            lo, hi = SURROGATE_API
            out.append({
                "scheme": SCHEMES[(i // 4) % len(SCHEMES)],
                "api": [rng.uniform(lo, hi) for _ in range(SURROGATE_APPS)],
                "bandwidth": TRAINING_BANDWIDTH,
                "profile": "surrogate",
                "apc_alone": _surrogate_demand(rng),
            })
        else:
            j = i - i // 4
            n = 2 + (j // len(SCHEMES)) % 7
            bandwidth = rng.uniform(0.005, 0.02)
            out.append({
                "scheme": SCHEMES[j % len(SCHEMES)],
                "api": [rng.uniform(0.002, 0.05) for _ in range(n)],
                "bandwidth": bandwidth,
                "profile": "analytic",
                "apc_alone": _analytic_demand(rng, n, bandwidth),
            })
    return out


def session_ops(seed: int, index: int, config: dict):
    """Endless counter pushes for one session, drawn around the current
    phase's demand, with a new phase every 40-60 epochs."""
    rng = _rng(seed, "stream", index)
    surrogate = config["profile"] == "surrogate"
    bandwidth = config["bandwidth"]
    n = len(config["api"])
    demand = list(config["apc_alone"])
    countdown = rng.randint(*PHASE_EPOCHS)
    window = STREAM_WINDOW_CYCLES
    while True:
        countdown -= 1
        if countdown == 0:
            demand = (
                _surrogate_demand(rng) if surrogate
                else _analytic_demand(rng, n, bandwidth)
            )
            countdown = rng.randint(*PHASE_EPOCHS)
        interference = [rng.uniform(0.0, 0.3) * window for _ in range(n)]
        accesses = [
            float(round(d * (window - t) * rng.uniform(0.95, 1.05)))
            for d, t in zip(demand, interference)
        ]
        yield {
            "window_cycles": window,
            "accesses": accesses,
            "interference_cycles": interference,
        }


def round_robin_pushes(seed: int, per_session: int) -> list[tuple[int, bytes]]:
    """The first ``per_session`` counter pushes of every session's timed
    stream, as ``(session index, encoded body)`` in round-robin order."""
    bodies = []
    for index, config in enumerate(stream_sessions(seed)):
        pushes = session_ops(seed, index, config)
        bodies.append([json.dumps(next(pushes)).encode() for _ in range(per_session)])
    return [(index, own[k]) for k in range(per_session) for index, own in enumerate(bodies)]


def open_body(config: dict) -> dict:
    """A ``/v1/stream/open`` body, primed with the session's demand."""
    return {k: config[k] for k in ("scheme", "api", "bandwidth", "profile", "apc_alone")}


def wire(method: str, path: str, body: dict | None = None) -> bytes:
    """One pre-encoded HTTP/1.1 keep-alive request."""
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n"
    )
    return head.encode("latin-1") + payload
