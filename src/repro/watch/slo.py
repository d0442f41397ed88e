"""Declarative service-level objectives with multi-window burn rates.

An :class:`SLO` states what "good" means for one signal of one surface
-- request availability for an endpoint, request latency under a
threshold for an endpoint or a solver profile, or the staleness of a
monitor feed -- plus the objective (the target fraction of good
events).  The :class:`SLOEngine` turns the service's event stream into
*burn rates*: the ratio of the observed bad-event rate to the error
budget ``1 - objective``.  A burn of 1.0 spends the budget exactly at
the sustainable pace; a burn of 14.4 empties a 30-day budget in two
days.

Alerting is multi-window, the SRE-workbook shape: an objective *pages*
only when both a fast window (default 5 minutes -- "it is burning
right now") and a slow window (default 1 hour -- "it has been burning
long enough to matter") exceed their burn thresholds, which filters
blips without missing sustained incidents; one window alone is a
*warn*.  Staleness objectives are level-based instead (the current age
of a feed against ``max_age_s``) because a feed that has stopped
produces no events to rate.

Counts live in coarse time buckets inside a bounded deque, so an
engine's memory is O(slow_window / bucket) per objective regardless of
traffic, and the clock is injectable for tests.  Objectives come from
:func:`default_slos` or from a JSON file (:func:`load_slos`) -- see
``docs/WATCH.md`` for the schema.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.util.errors import ConfigurationError

__all__ = [
    "SIGNALS",
    "SLO",
    "SLOEngine",
    "WindowedCounts",
    "default_slos",
    "slos_from_json",
    "load_slos",
]

#: objective kinds an SLO may declare
SIGNALS: tuple[str, ...] = ("availability", "latency", "staleness")

#: events below this count in a window never alert: a single failed
#: request at night would otherwise page with an astronomical burn
DEFAULT_MIN_EVENTS = 10


@dataclass(frozen=True)
class SLO:
    """One declarative objective.

    ``selector`` binds the objective to an event stream: an endpoint
    path (``/v1/partition``), a solver profile (``solver:surrogate``),
    a monitor feed (``drift:shadow_age_s`` for staleness), ``*`` for
    everything, or a ``prefix*`` pattern (``/v1/stream/*``).
    """

    name: str
    signal: str
    selector: str
    #: target fraction of good events (availability/latency); the error
    #: budget is ``1 - objective``
    objective: float = 0.999
    #: latency objectives: a request is good iff it finishes within this
    threshold_ms: float | None = None
    #: staleness objectives: the feed is good iff its age is below this
    max_age_s: float | None = None
    fast_window_s: float = 300.0
    slow_window_s: float = 3600.0
    #: burn-rate thresholds per window (page needs both, warn needs one)
    fast_burn: float = 14.4
    slow_burn: float = 6.0
    #: a window with fewer events than this never alerts
    min_events: int = DEFAULT_MIN_EVENTS

    def __post_init__(self) -> None:
        if self.signal not in SIGNALS:
            raise ConfigurationError(
                f"SLO {self.name!r}: unknown signal {self.signal!r}; "
                f"available: {sorted(SIGNALS)}"
            )
        if not self.name or not self.selector:
            raise ConfigurationError("SLO name and selector must be non-empty")
        if not (0.0 < self.objective < 1.0):
            raise ConfigurationError(
                f"SLO {self.name!r}: objective must be in (0, 1), "
                f"got {self.objective}"
            )
        if self.signal == "latency" and (
            self.threshold_ms is None or self.threshold_ms <= 0
        ):
            raise ConfigurationError(
                f"SLO {self.name!r}: latency objectives need threshold_ms > 0"
            )
        if self.signal == "staleness" and (
            self.max_age_s is None or self.max_age_s <= 0
        ):
            raise ConfigurationError(
                f"SLO {self.name!r}: staleness objectives need max_age_s > 0"
            )
        if not (0 < self.fast_window_s < self.slow_window_s):
            raise ConfigurationError(
                f"SLO {self.name!r}: need 0 < fast_window_s < slow_window_s"
            )
        if self.fast_burn <= 0 or self.slow_burn <= 0:
            raise ConfigurationError(
                f"SLO {self.name!r}: burn thresholds must be positive"
            )
        if self.min_events < 1:
            raise ConfigurationError(
                f"SLO {self.name!r}: min_events must be >= 1"
            )

    def matches(self, selector: str) -> bool:
        """Does an event tagged ``selector`` feed this objective?"""
        if self.selector == "*":
            return True
        if self.selector.endswith("*"):
            return selector.startswith(self.selector[:-1])
        return selector == self.selector

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "signal": self.signal,
            "selector": self.selector,
            "objective": self.objective,
            "threshold_ms": self.threshold_ms,
            "max_age_s": self.max_age_s,
            "fast_window_s": self.fast_window_s,
            "slow_window_s": self.slow_window_s,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
            "min_events": self.min_events,
        }


class WindowedCounts:
    """Good/bad event counts over a sliding horizon, in coarse buckets.

    Buckets are anchored at the first event that opens them and span
    ``bucket_s`` seconds; anything older than ``horizon_s`` is pruned
    on every touch, so memory is O(horizon / bucket) regardless of
    event rate.  Window sums include every bucket whose *start* falls
    inside the window -- at the default 10 s granularity that edge
    blur is far below alerting resolution.
    """

    def __init__(
        self,
        horizon_s: float,
        *,
        bucket_s: float = 10.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if horizon_s <= 0 or bucket_s <= 0:
            raise ConfigurationError("horizon_s and bucket_s must be positive")
        self.horizon_s = float(horizon_s)
        self.bucket_s = float(bucket_s)
        self._clock = clock
        #: deque of [bucket_start, good_count, bad_count]
        self._buckets: deque[list[float]] = deque()

    def _prune(self, now: float) -> None:
        while self._buckets and now - self._buckets[0][0] > self.horizon_s:
            self._buckets.popleft()

    def record(self, good: bool, n: int = 1) -> None:
        now = self._clock()
        self._prune(now)
        if not self._buckets or now - self._buckets[-1][0] >= self.bucket_s:
            self._buckets.append([now, 0.0, 0.0])
        self._buckets[-1][1 if good else 2] += n

    def counts(self, window_s: float) -> tuple[float, float]:
        """(good, bad) event counts over the trailing ``window_s``."""
        now = self._clock()
        self._prune(now)
        good = bad = 0.0
        for start, g, b in reversed(self._buckets):
            if now - start > window_s:
                break
            good += g
            bad += b
        return good, bad


class SLOEngine:
    """Routes events into per-objective trackers and evaluates burn.

    Event feeds:

    * :meth:`record_request` -- one finished HTTP request, tagged by
      its route label (availability objectives see ``error``; latency
      objectives see ``latency_ms`` vs their threshold, on non-error
      requests only -- a 500 in 2 ms is not a fast success);
    * :meth:`record_solve` -- one solver call, tagged
      ``solver:<source>``;
    * :meth:`set_level` -- the current value of a staleness feed
      (evaluated against ``max_age_s`` at :meth:`status` time).
    """

    def __init__(
        self,
        slos: Sequence[SLO] | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        bucket_s: float = 10.0,
    ) -> None:
        self._clock = clock
        self.slos: tuple[SLO, ...] = tuple(
            default_slos() if slos is None else slos
        )
        names = [s.name for s in self.slos]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(f"duplicate SLO names: {dupes}")
        self._counts: dict[str, WindowedCounts] = {
            s.name: WindowedCounts(s.slow_window_s, bucket_s=bucket_s, clock=clock)
            for s in self.slos
            if s.signal != "staleness"
        }
        #: event selector -> the (objective, counts) pairs it feeds,
        #: resolved on first sight (selectors are route labels, a
        #: bounded set)
        self._fed: dict[str, tuple[tuple[SLO, WindowedCounts], ...]] = {}
        #: staleness feeds: selector -> current level
        self._levels: dict[str, float] = {}
        #: objective name -> clock() time the current breach started
        self._breached_since: dict[str, float] = {}

    # ------------------------------------------------------------------
    # event feeds
    # ------------------------------------------------------------------
    def record_request(
        self, path: str, latency_ms: float, *, error: bool
    ) -> None:
        fed = self._fed.get(path)
        if fed is None:
            fed = self._fed[path] = tuple(
                (slo, self._counts[slo.name])
                for slo in self.slos
                if slo.signal != "staleness" and slo.matches(path)
            )
        for slo, counts in fed:
            if slo.signal == "availability":
                counts.record(not error)
            elif not error:
                assert slo.threshold_ms is not None  # enforced at init
                counts.record(latency_ms <= slo.threshold_ms)

    def record_solve(self, source: str, latency_ms: float) -> None:
        self.record_request(f"solver:{source}", latency_ms, error=False)

    def set_level(self, selector: str, value: float) -> None:
        """Update a staleness feed (e.g. seconds since the last shadow)."""
        self._levels[selector] = float(value)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _window(self, slo: SLO, window_s: float, burn_threshold: float) -> dict:
        good, bad = self._counts[slo.name].counts(window_s)
        total = good + bad
        rate = bad / total if total else 0.0
        budget = 1.0 - slo.objective
        burn = rate / budget
        return {
            "window_s": window_s,
            "total": total,
            "bad": bad,
            "error_rate": rate,
            "burn": burn,
            "burning": bool(total >= slo.min_events and burn >= burn_threshold),
        }

    def _status_one(self, slo: SLO) -> dict:
        base = {
            "name": slo.name,
            "signal": slo.signal,
            "selector": slo.selector,
            "objective": slo.objective,
        }
        if slo.signal == "staleness":
            level = self._levels.get(slo.selector)
            state = (
                "page"
                if level is not None and slo.max_age_s is not None
                and level > slo.max_age_s
                else "ok"
            )
            base.update(
                {"value": level, "max_age_s": slo.max_age_s, "state": state}
            )
        else:
            fast = self._window(slo, slo.fast_window_s, slo.fast_burn)
            slow = self._window(slo, slo.slow_window_s, slo.slow_burn)
            if fast["burning"] and slow["burning"]:
                state = "page"
            elif fast["burning"] or slow["burning"]:
                state = "warn"
            else:
                state = "ok"
            if slo.signal == "latency":
                base["threshold_ms"] = slo.threshold_ms
            base.update({"fast": fast, "slow": slow, "state": state})
        now = self._clock()
        if state == "ok":
            self._breached_since.pop(slo.name, None)
            base["breached_for_s"] = 0.0
        else:
            since = self._breached_since.setdefault(slo.name, now)
            base["breached_for_s"] = max(0.0, now - since)
        return base

    def status(self) -> list[dict]:
        """Every objective's current evaluation, in declaration order."""
        return [self._status_one(slo) for slo in self.slos]

    def alerts(self) -> dict:
        """The compact ``/metrics`` alerts section."""
        page: list[dict] = []
        warn: list[dict] = []
        for st in self.status():
            if st["state"] == "ok":
                continue
            entry = {
                "name": st["name"],
                "signal": st["signal"],
                "selector": st["selector"],
                "state": st["state"],
                "breached_for_s": st["breached_for_s"],
            }
            (page if st["state"] == "page" else warn).append(entry)
        return {
            "paging": len(page),
            "warning": len(warn),
            "page": page,
            "warn": warn,
        }


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
def default_slos() -> tuple[SLO, ...]:
    """The service's built-in objectives, per endpoint and per profile."""
    return (
        SLO("partition.availability", "availability", "/v1/partition"),
        SLO(
            "partition.latency", "latency", "/v1/partition",
            objective=0.99, threshold_ms=50.0,
        ),
        SLO("batch.availability", "availability", "/v1/partition/batch"),
        SLO("qos.availability", "availability", "/v1/qos"),
        SLO(
            "stream.availability", "availability", "/v1/stream/*",
            objective=0.99,
        ),
        SLO(
            "solve.analytic.latency", "latency", "solver:analytic",
            objective=0.99, threshold_ms=5.0,
        ),
        SLO(
            "solve.surrogate.latency", "latency", "solver:surrogate",
            objective=0.99, threshold_ms=5.0,
        ),
        SLO(
            "solve.sim.latency", "latency", "solver:sim",
            objective=0.95, threshold_ms=500.0,
        ),
        SLO(
            "surrogate.shadow.staleness", "staleness", "drift:shadow_age_s",
            max_age_s=900.0,
        ),
    )


_SLO_FIELDS = frozenset(SLO.__dataclass_fields__)


def slos_from_json(data: object) -> tuple[SLO, ...]:
    """Parse a JSON array of objective objects into validated SLOs."""
    if not isinstance(data, list) or not data:
        raise ConfigurationError("SLO config must be a non-empty JSON array")
    out: list[SLO] = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ConfigurationError(f"SLO entry {i} must be a JSON object")
        unknown = set(entry) - _SLO_FIELDS
        if unknown:
            raise ConfigurationError(
                f"SLO entry {i}: unknown fields {sorted(unknown)}; "
                f"available: {sorted(_SLO_FIELDS)}"
            )
        try:
            out.append(SLO(**entry))
        except TypeError as exc:
            raise ConfigurationError(f"SLO entry {i}: {exc}") from None
    return tuple(out)


def load_slos(path: str | os.PathLike[str]) -> tuple[SLO, ...]:
    """Load objectives from a JSON file (see ``docs/WATCH.md``)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read SLO config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(
            f"SLO config {path} is not valid JSON: {exc}"
        ) from exc
    return slos_from_json(data)
