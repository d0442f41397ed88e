"""Cross-worker ``/metrics`` aggregation for the pre-fork server.

With ``--workers N`` a ``GET /metrics`` lands on *one* worker, and
silently reporting that process as if it were the service would
under-count the fleet by roughly ``(N-1)/N``.  Instead every worker
periodically (and on each ``/metrics`` request) drops a dump into the
supervisor's runtime directory via
:func:`repro.util.cache.atomic_write_json`: the raw registry export of
the service families (:meth:`repro.service.metrics.ServiceMetrics.export`
-- counters, plus each histogram's count, sum, min, max and **window
samples**, because percentiles cannot be merged but samples can) and a
few per-worker gauges.  The worker answering ``/metrics`` reads every
sibling's latest dump and merges the exports generically
(:func:`merge_families`): counters summed, histogram count/sum summed,
min/max combined, windows concatenated.  The merged export goes
through the same :func:`repro.service.metrics.sections` derivation as
a single process's.  Per-worker gauges (pid, uptime, in-flight, cache
occupancy) are labelled by ``worker_id`` under ``workers`` instead of
being averaged into meaninglessness.

Peer dumps are bounded-stale (at most ``metrics_sync_s`` plus one
write); each worker's ``age_s`` is reported so dashboards can see the
staleness instead of guessing.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.service.metrics import sections
from repro.util.cache import atomic_write_json

__all__ = [
    "worker_dump_path",
    "write_worker_dump",
    "read_worker_dumps",
    "merge_families",
    "merge_worker_dumps",
]

_DUMP_PREFIX = "worker-"


def worker_dump_path(runtime_dir: str, worker_id: int) -> pathlib.Path:
    return pathlib.Path(runtime_dir) / f"{_DUMP_PREFIX}{worker_id}.json"


def write_worker_dump(runtime_dir: str, worker_id: int, payload: dict) -> None:
    """Atomically publish one worker's snapshot (peers read these)."""
    path = worker_dump_path(runtime_dir, worker_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_json(path, dict(payload, written_unix=time.time()))


def read_worker_dumps(runtime_dir: str) -> list[dict]:
    """Every worker's latest dump, sorted by worker id."""
    root = pathlib.Path(runtime_dir)
    dumps: list[dict] = []
    if not root.is_dir():
        return dumps
    for path in sorted(root.glob(f"{_DUMP_PREFIX}*.json")):
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue  # sibling mid-restart; its next flush self-heals
        if isinstance(payload, dict) and "worker_id" in payload:
            dumps.append(payload)
    dumps.sort(key=lambda d: d.get("worker_id", 0))
    return dumps


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------
def _merge_histograms(parts: list[dict]) -> dict:
    """One histogram export from many: exact aggregates combined,
    windows concatenated (re-ranked when summarized)."""
    seen = [p for p in parts if p["count"]]
    return {
        "count": sum(p["count"] for p in parts),
        "sum": sum(p["sum"] for p in parts),
        "min": min((p["min"] for p in seen), default=0.0),
        "max": max((p["max"] for p in seen), default=0.0),
        "samples": [v for p in parts for v in p["samples"]],
    }


#: how one series merges across workers, by instrument kind (gauges are
#: per-process levels and are reported per worker instead)
_MERGE = {"counter": sum, "histogram": _merge_histograms}


def merge_families(exports: list[dict]) -> dict:
    """Merge registry exports (:meth:`MetricsRegistry.export`) series by
    series, into one export of the same shape."""
    grouped: dict[str, tuple[str, dict]] = {}
    for export in exports:
        for name, family in export.items():
            kind, by_labels = grouped.setdefault(name, (family["kind"], {}))
            for series in family["series"]:
                key = tuple(sorted(series["labels"].items()))
                labels, values = by_labels.setdefault(key, (series["labels"], []))
                values.append(series["value"])
    return {
        name: {
            "kind": kind,
            "series": [
                {"labels": labels, "value": _MERGE[kind](values)}
                for labels, values in by_labels.values()
            ],
        }
        for name, (kind, by_labels) in grouped.items()
    }


def _requests(families: dict) -> int:
    """One worker's request total across every route."""
    series = families.get("service.requests", {}).get("series", [])
    return int(sum(s["value"] for s in series))


def _sum_field(dumps: list[dict], section: str, name: str) -> int:
    return sum((d.get(section) or {}).get(name, 0) for d in dumps)


def merge_worker_dumps(dumps: list[dict]) -> dict:
    """The fleet view: summed counters, merged histograms, labelled gauges."""
    now = time.time()
    cache = {
        "hits": _sum_field(dumps, "cache", "hits"),
        "misses": _sum_field(dumps, "cache", "misses"),
        "puts": _sum_field(dumps, "cache", "puts"),
        "shared_hits": _sum_field(dumps, "cache", "shared_hits"),
    }
    admission = {
        "admitted": _sum_field(dumps, "admission", "admitted"),
        "rejected": _sum_field(dumps, "admission", "rejected"),
        "inflight": _sum_field(dumps, "admission", "inflight"),
    }
    workers = {
        str(d.get("worker_id")): {
            "worker_id": d.get("worker_id"),
            "pid": d.get("pid"),
            "uptime_s": d.get("uptime_s"),
            "inflight": (d.get("admission") or {}).get("inflight", 0),
            "requests": _requests(d.get("families") or {}),
            "sessions": (d.get("sessions") or {}).get("active", 0),
            "age_s": max(0.0, now - d.get("written_unix", now)),
        }
        for d in dumps
    }
    return {
        "workers": workers,
        "n_workers": len(dumps),
        **sections(merge_families([d.get("families") or {} for d in dumps])),
        "cache": cache,
        "admission": admission,
        "sessions": {
            "active": sum((d.get("sessions") or {}).get("active", 0) for d in dumps)
        },
    }


def prune_worker_dump(runtime_dir: str, worker_id: int) -> None:
    """Drop a departed worker's dump so the fleet view stops counting it."""
    try:
        os.unlink(worker_dump_path(runtime_dir, worker_id))
    except OSError:
        pass
